"""Conic-line arrangements: data model, input format, validation.

Input files are plain text, one declaration per line, `#` starts a
comment:

    line  L1 : 1 0 0              # coefficients of a*x + b*y + c*z
    conic C  : 1 1 1 -2 -2 -2     # x^2, y^2, z^2, xy, xz, yz
    curve B  = C L4 L5 L6 L7      # a named sub-curve

Coefficients are integers or fractions p/q.  At most one conic is
accepted and it must be smooth; components are stored with primitive
integer coefficients, first nonzero positive, so proportional inputs are
detected exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import HomPoly

LINE_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
CONIC_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))

LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class ParseError(ValueError):
    """Syntax or validation error in an arrangement file, with position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def line_form(coeffs: Iterable) -> HomPoly:
    a, b, c = (Fraction(v) for v in coeffs)
    return HomPoly.from_terms(1, dict(zip(LINE_EXPONENTS, (a, b, c)))).primitive()


def conic_form(coeffs: Iterable) -> HomPoly:
    vals = tuple(Fraction(v) for v in coeffs)
    if len(vals) != 6:
        raise ValueError("a conic takes six coefficients")
    return HomPoly.from_terms(2, dict(zip(CONIC_EXPONENTS, vals))).primitive()


def conic_matrix_determinant(form: HomPoly) -> int:
    """Four times the determinant of the symmetric matrix of a quadratic form.

    The matrix has the cross-term coefficients halved off its diagonal, so
    the factor 4 keeps the value an integer for an integer form.  Nonzero
    exactly when the conic is smooth; a product of two lines (e.g.
    x^2 - y^2) gives 0.
    """
    a, b, c, d, e, f = (form.coefficient(expo) for expo in CONIC_EXPONENTS)
    return 4 * a * b * c + d * e * f - a * f * f - b * e * e - c * d * d


@dataclass(frozen=True)
class Component:
    """A labeled smooth component: a line or a smooth conic."""

    label: str
    kind: str  # "line" | "conic"
    form: HomPoly

    def __post_init__(self):
        if self.kind not in ("line", "conic"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        expected = 1 if self.kind == "line" else 2
        if self.form.degree != expected:
            raise ValueError(f"{self.kind} must have degree {expected}")
        if self.form.is_zero():
            raise ValueError("component form is identically zero")
        # every stored form is primitive-integer, whoever built it: all later
        # arithmetic is on ints, and proportional components compare equal
        object.__setattr__(self, "form", self.form.primitive())
        if self.kind == "conic" and conic_matrix_determinant(self.form) == 0:
            raise ValueError(f"conic {self.label} is singular (not smooth)")

    @property
    def degree(self) -> int:
        return self.form.degree


@dataclass(frozen=True)
class Arrangement:
    """An ordered list of components plus user-declared named sub-curves."""

    components: tuple[Component, ...]
    subcurves: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for i, comp in enumerate(self.components):
            _check_component(self.components[:i], comp)
        labels = set(self.labels)
        for name, members in self.subcurves.items():
            _check_subcurve(labels, name, members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.components)

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)

    def component(self, label: str) -> Component:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(f"unknown component label {label!r}")

    @property
    def conic(self) -> Component | None:
        for c in self.components:
            if c.kind == "conic":
                return c
        return None

    @property
    def lines(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.kind == "line")

    def subcurve(self, name: str) -> "SubCurve":
        if name not in self.subcurves:
            raise KeyError(f"arrangement declares no sub-curve named {name!r}")
        return SubCurve(self, self.subcurves[name])


def _check_component(prior: Sequence[Component], comp: Component) -> None:
    """Reject a component that repeats a label of, or clashes with, the ones before it."""
    if any(p.label == comp.label for p in prior):
        raise ValueError(f"duplicate label {comp.label}")
    if comp.kind == "conic" and any(p.kind == "conic" for p in prior):
        raise ValueError("more than one conic")
    for p in prior:
        if p.form == comp.form:
            raise ValueError(f"component {comp.label} is proportional to {p.label}")


def _check_subcurve(labels: set[str], name: str, members: tuple[str, ...]) -> None:
    """Reject a sub-curve that is empty, names a label not in `labels` or repeats one."""
    if not members:
        raise ValueError(f"sub-curve {name} is empty")
    for i, member in enumerate(members):
        if member not in labels:
            raise ValueError(f"unknown label {member} in sub-curve {name}")
        if member in members[:i]:
            raise ValueError(f"sub-curve {name} repeats label {member}")


@dataclass(frozen=True)
class SubCurve:
    """A union of components of an arrangement, selected by label."""

    arrangement: Arrangement
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("sub-curve is empty")
        for l in self.labels:
            self.arrangement.component(l)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self.arrangement.component(l) for l in self.labels)

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)


def _parse_number(token: str, lineno: int, col: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected integer or fraction, got {token!r}", lineno, col)


def parse(text: str) -> Arrangement:
    """Parse and validate an arrangement file.

    Each declaration is checked against the ones above it by the checks
    `Arrangement` makes, and an error names the declaration's line and the
    column of its label.
    """
    components: list[Component] = []
    subcurves: dict[str, tuple[str, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", stripped)]
        keyword, kw_col = tokens[0]

        if keyword in ("line", "conic"):
            if len(tokens) < 3 or tokens[2][0] != ":":
                raise ParseError(f"expected `{keyword} LABEL : coefficients`", lineno, kw_col)
            label, label_col = tokens[1]
            if not LABEL_RE.match(label):
                raise ParseError(f"invalid label {label!r}", lineno, label_col)
            coeff_tokens = tokens[3:]
            want = 3 if keyword == "line" else 6
            if len(coeff_tokens) != want:
                raise ParseError(
                    f"{keyword} takes {want} coefficients, got {len(coeff_tokens)}",
                    lineno,
                    coeff_tokens[0][1] if coeff_tokens else kw_col,
                )
            coeffs = [_parse_number(t, lineno, c) for t, c in coeff_tokens]
            try:
                form = line_form(coeffs) if keyword == "line" else conic_form(coeffs)
                comp = Component(label, keyword, form)
                _check_component(components, comp)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, label_col)
            components.append(comp)

        elif keyword == "curve":
            if len(tokens) < 3 or tokens[2][0] != "=":
                raise ParseError("expected `curve NAME = LABEL ...`", lineno, kw_col)
            name, name_col = tokens[1]
            if not LABEL_RE.match(name):
                raise ParseError(f"invalid sub-curve name {name!r}", lineno, name_col)
            if name in subcurves:
                raise ParseError(f"duplicate sub-curve name {name}", lineno, name_col)
            members = tuple(member for member, _col in tokens[3:])
            try:
                _check_subcurve({c.label for c in components}, name, members)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, name_col)
            subcurves[name] = members

        else:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, kw_col)

    return Arrangement(tuple(components), subcurves)


def _coeff_string(form: HomPoly, exponents) -> str:
    return " ".join(str(form.coefficient(e)) for e in exponents)


def serialize(a: Arrangement) -> str:
    """Stable text form; parse(serialize(a)) reproduces a exactly."""
    out = []
    for comp in a.components:
        exps = LINE_EXPONENTS if comp.kind == "line" else CONIC_EXPONENTS
        out.append(f"{comp.kind} {comp.label} : {_coeff_string(comp.form, exps)}")
    for name, members in a.subcurves.items():
        out.append(f"curve {name} = {' '.join(members)}")
    return "\n".join(out) + ("\n" if out else "")
