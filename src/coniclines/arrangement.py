"""Conic-line arrangements: data model, input format, validation.

Input files are plain text, one declaration per line, `#` starts a
comment:

    line  L1 : 1 0 0              # coefficients of a*x + b*y + c*z
    conic C  : 1 1 1 -2 -2 -2     # x^2, y^2, z^2, xy, xz, yz
    curve B  = C L4 L5 L6 L7      # a named sub-curve

Coefficients are integers or fractions p/q, with no decimal point or
exponent.  Each declaration is scaled by the lcm of its denominators
where it is parsed, so no fraction goes past `parse`.  At most one conic
is accepted and it must be smooth; components are stored with primitive
integer coefficients, first nonzero positive, so proportional inputs are
detected exactly.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .poly import HomPoly

CONIC_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))

LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


class ComponentError(ValueError):
    """A component that repeats a label of, or clashes with, the ones before it."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index  # of the component in `Arrangement.components`


class HypothesisError(ValueError):
    """An input violates a hypothesis of the computation asked for (CLI exit 2)."""


class ParseError(ValueError):
    """Syntax or validation error in an arrangement file, with position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_rational(token: str) -> tuple[int, int]:
    """Numerator and denominator of a token p or p/q with q > 0, else a ValueError.

    A decimal point or an exponent is refused before any arithmetic, and
    an integer past the interpreter's digit limit for `int()` by that limit.
    """
    m = RATIONAL_RE.fullmatch(token)
    if m is None:
        raise ValueError(f"expected integer or fraction, got {token!r}")
    try:
        return int(m[1]), int(m[2] or 1)
    except ValueError:  # digits only, so only the limit can fail
        limit = f"{sys.get_int_max_str_digits()} digits (the limit of sys.get_int_max_str_digits())"
        raise ValueError(f"integer longer than {limit}") from None


def line_form(coeffs: Iterable[int]) -> HomPoly:
    return HomPoly(1, coeffs)


def conic_form(coeffs: Iterable[int]) -> HomPoly:
    vals = tuple(coeffs)
    if len(vals) != 6:
        raise ValueError("a conic takes six coefficients")
    return HomPoly.from_terms(2, dict(zip(CONIC_EXPONENTS, vals)))


def conic_matrix_determinant(form: HomPoly) -> int:
    """Four times the determinant of the symmetric matrix of a quadratic form.

    The matrix has the cross-term coefficients halved off its diagonal, so
    the factor 4 keeps the value an integer for an integer form.  Nonzero
    exactly when the conic is smooth; a product of two lines (e.g.
    x^2 - y^2) gives 0.
    """
    a, b, c, d, e, f = form.coeffs  # x^2, xy, xz, y^2, yz, z^2
    return 4 * a * d * f + b * c * e - a * e * e - d * c * c - f * b * b


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
        """One pass over the components, against the labels and forms seen so far."""
        labels: set[str] = set()
        forms: dict[HomPoly, str] = {}
        conic = False
        for i, comp in enumerate(self.components):
            if comp.label in labels:
                raise ComponentError(f"duplicate label {comp.label}", i)
            if comp.kind == "conic" and conic:
                raise ComponentError("more than one conic", i)
            first = forms.setdefault(comp.form, comp.label)
            if first != comp.label:
                raise ComponentError(f"component {comp.label} is proportional to {first}", i)
            labels.add(comp.label)
            conic = conic or comp.kind == "conic"
        for name, members in self.subcurves.items():
            check_subcurve(labels, name, members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.components)

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)

    def degree_of(self, labels: Iterable[str]) -> int:
        """The degree of the union of the components with these labels."""
        return sum(self.component(l).degree for l in labels)

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

    def subcurve(self, name: str) -> tuple[str, ...]:
        """The labels of the declared sub-curve `name`."""
        if name not in self.subcurves:
            raise ValueError(f"arrangement declares no sub-curve named {name!r}")
        return self.subcurves[name]


def check_subcurve(labels: set[str], name: str, members: tuple[str, ...]) -> None:
    """Reject a sub-curve that is empty, names a label not in `labels` or repeats one."""
    if not members:
        raise ValueError(f"sub-curve {name} is empty")
    for i, member in enumerate(members):
        if member not in labels:
            raise ValueError(f"unknown label {member} in sub-curve {name}")
        if member in members[:i]:
            raise ValueError(f"sub-curve {name} repeats label {member}")


def _error(message: str, lineno: int, line: str, index: int) -> ParseError:
    """The error at the index-th token of the line, whose column is found only here.

    `parse` splits a line with `str.split()`, which splits exactly where
    `\\S+` ends a match, so this scan finds the same tokens.
    """
    token = next(itertools.islice(re.finditer(r"\S+", line), index, None))
    return ParseError(message, lineno, token.start() + 1)


def parse(text: str) -> Arrangement:
    """Parse and validate an arrangement file.

    The components are checked once, by `Arrangement`, and a sub-curve
    against the components declared above it.  An error names the first
    faulty declaration's line and the column of its label.
    """
    components: list[Component] = []
    positions: list[tuple[int, str]] = []  # (line number, line) per component
    subcurves: dict[str, tuple[str, ...]] = {}

    def arrangement() -> Arrangement:
        try:
            return Arrangement(tuple(components), subcurves)
        except ComponentError as exc:
            raise _error(str(exc), *positions[exc.index], 1) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]

        if keyword in ("line", "conic"):
            if len(tokens) < 3 or tokens[2] != ":":
                raise _error(f"expected `{keyword} LABEL : coefficients`", lineno, line, 0)
            label = tokens[1]
            if not LABEL_RE.match(label):
                raise _error(f"invalid label {label!r}", lineno, line, 1)
            want = 3 if keyword == "line" else 6
            if len(tokens) != want + 3:
                message = f"{keyword} takes {want} coefficients, got {len(tokens) - 3}"
                raise _error(message, lineno, line, 3 if len(tokens) > 3 else 0)
            ratios = []
            for i in range(3, len(tokens)):
                try:
                    ratios.append(parse_rational(tokens[i]))
                except ValueError as exc:
                    raise _error(str(exc), lineno, line, i)
            den = math.lcm(*(d for _, d in ratios))
            coeffs = [n * (den // d) for n, d in ratios]
            try:
                form = line_form(coeffs) if keyword == "line" else conic_form(coeffs)
                components.append(Component(label, keyword, form))
            except ValueError as exc:
                raise _error(str(exc), lineno, line, 1)
            positions.append((lineno, line))

        elif keyword == "curve":
            if len(tokens) < 3 or tokens[2] != "=":
                raise _error("expected `curve NAME = LABEL ...`", lineno, line, 0)
            name = tokens[1]
            if not LABEL_RE.match(name):
                raise _error(f"invalid sub-curve name {name!r}", lineno, line, 1)
            if name in subcurves:
                raise _error(f"duplicate sub-curve name {name}", lineno, line, 1)
            members = tuple(tokens[3:])
            try:
                check_subcurve({c.label for c in components}, name, members)
            except ValueError as exc:
                arrangement()  # a faulty component above this line is reported first
                raise _error(str(exc), lineno, line, 1)
            subcurves[name] = members

        else:
            raise _error(f"unknown declaration {keyword!r}", lineno, line, 0)

    return arrangement()
