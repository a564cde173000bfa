import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from coniclines import parse
from coniclines.arrangement import CONIC_EXPONENTS, Arrangement, Component, conic_form
from coniclines.incidence import (
    Combinatorics,
    ConjugatePair,
    Equivalences,
    SingularPoint,
    classify,
    combinatorics,
    equivalences,
)
from coniclines.linalg import QMatrix, QVector, _ff_echelon, kernel_basis, primitive
from coniclines.moduli import OrderingCertificate, _tangent_lines, connectivity_certificate, n_value
from coniclines.poly import HomPoly, ProjPoint, cross, monomial_count, monomials
from coniclines.splitting import check_hypotheses, through_points

from .oracles import X, Y, Z, to_sympy

DATA = Path(__file__).resolve().parent.parent / "data"

PAIR_FILES = {
    "pair1_B1": DATA / "pair1_B1.txt",
    "pair1_B2": DATA / "pair1_B2.txt",
    "pair2_B1": DATA / "pair2_B1.txt",
    "pair2_B2": DATA / "pair2_B2.txt",
}


# a conic with the lines x = 0..3, y = 0..3 and x + y = 1..4: 39 singular
# points, 8,190 proper sub-curves, some with no build order
GRID = (
    "conic C : 1 1 -1000 0 0 0\n"
    + "".join(f"line X{i} : 1 0 {-i}\n" for i in range(4))
    + "".join(f"line Y{i} : 0 1 {-i}\n" for i in range(4))
    + "".join(f"line S{s} : 1 1 {-s}\n" for s in range(1, 5))
)


# two lines, each meeting the conic in one conjugate pair: 4 conjugate nodes
TWO_CONJUGATE_PAIRS = """
conic Q : 1 1 -1 0 0 0
line L1 : 0 1 -2
line L2 : 0 1 -3
"""


def cleared(vec) -> tuple[int, ...]:
    """A rational vector scaled by the lcm of its denominators: the ints the package takes."""
    vec = [Fraction(e) for e in vec]
    den = math.lcm(*(e.denominator for e in vec))
    return tuple(int(e * den) for e in vec)


LINE_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def coefficient(form: HomPoly, expo: tuple[int, int, int]) -> int:
    """The coefficient of the monomial with this exponent triple."""
    return dict(zip(monomials(form.degree), form.coeffs))[expo]


def _coeff_string(form: HomPoly, exponents) -> str:
    return " ".join(str(coefficient(form, e)) for e in exponents)


def serialize(a: Arrangement) -> str:
    """Stable text form, in the file's coefficient order; parse(serialize(a)) == a."""
    out = []
    for comp in a.components:
        exps = LINE_EXPONENTS if comp.kind == "line" else CONIC_EXPONENTS
        out.append(f"{comp.kind} {comp.label} : {_coeff_string(comp.form, exps)}")
    for name, members in a.subcurves.items():
        out.append(f"curve {name} = {' '.join(members)}")
    return "\n".join(out) + ("\n" if out else "")


def load(name: str) -> Arrangement:
    return parse(PAIR_FILES[name].read_text(encoding="utf-8"))


def component_labels(a: Arrangement) -> tuple[str, ...]:
    """The labels of a's components, in their order."""
    return tuple(c.label for c in a.components)


def sub_arrangement(a: Arrangement, labels) -> Arrangement:
    """The sub-arrangement with the given components, rebuilt from scratch.

    The reference that restricted incidence structures are compared
    against; sub-curve names are dropped.
    """
    wanted = set(labels)
    return Arrangement(tuple(c for c in a.components if c.label in wanted), {})


def reference_singular_points(a: Arrangement) -> tuple[SingularPoint, ...]:
    """`singular_points` built pair by pair, apart from the package's intersection code.

    The reference that `singular_points` is compared against: a `ProjPoint`
    per intersection, merged by `ProjPoint` equality; a line meets the conic
    along the kernel basis of its row, and the conic is restricted to it by
    evaluating q(u), q(w) and q(u + w) term by term.
    """
    by_point: dict[ProjPoint, dict[tuple[str, str], int]] = {}
    conjugates = []
    for c1, c2 in itertools.combinations(a.components, 2):
        pair = tuple(sorted((c1.label, c2.label)))
        if c1.kind == c2.kind == "line":
            by_point.setdefault(ProjPoint(*cross(c1.form.coeffs, c2.form.coeffs)), {})[pair] = 1
            continue
        line, conic = (c1, c2) if c1.kind == "line" else (c2, c1)
        q = conic.form
        u, w = kernel_basis(QMatrix.from_rows([line.form.coeffs], cols=3))
        A, C = value_at(q, u), value_at(q, w)
        B = value_at(q, tuple(x + y for x, y in zip(u, w))) - A - C
        disc = B * B - 4 * A * C
        root = math.isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            conjugates.append(ConjugatePair(disc, line.label, conic.label))
            continue
        # the roots (s : t) of A s^2 + B s t + C t^2
        roots = {(1, 0), (-C, B)} if A == 0 else {(-B + root, 2 * A), (-B - root, 2 * A)}
        points = {ProjPoint(*(s * x + t * y for x, y in zip(u, w))) for s, t in roots}
        for p in points:
            by_point.setdefault(p, {})[pair] = 2 if disc == 0 else 1
    records = []
    for p in sorted(by_point):
        mults = by_point[p]
        branches = frozenset(l for pair in mults for l in pair)
        local_type = classify(len(branches), tuple(sorted(mults.values())))
        records.append(SingularPoint(p, branches, tuple(sorted(mults.items())), local_type))
    for cj in sorted(conjugates, key=lambda c: (c.line, c.conic)):
        pair = tuple(sorted((cj.line, cj.conic)))
        # one record per point: the two conjugate nodes
        records += [SingularPoint(cj, frozenset(pair), ((pair, 1),), classify(2, (1,)))] * 2
    return tuple(records)


def record_calls(monkeypatch, *functions) -> dict[str, list[tuple]]:
    """The positional arguments of every call of each function, by function name.

    Each function is replaced in every `coniclines` namespace that holds
    it, as the benchmark's tracer rebinds it, so calls between modules are
    recorded too.
    """
    calls: dict[str, list[tuple]] = {f.__name__: [] for f in functions}
    for original in functions:

        def recording(*args, original=original, **kwargs):
            calls[original.__name__].append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "coniclines" or name.startswith("coniclines."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording)
    return calls


def scratch_facts(c: Combinatorics) -> tuple:
    """(fingerprints, pair_profiles, record_keys) of c, computed from its points alone."""
    degree = dict(c.degrees)
    entries: dict[str, list] = {l: [] for l in degree}
    profiles: dict[tuple[str, str], list] = {}
    for rec in c.points:
        for l in rec.branches:
            others = tuple(sorted(degree[o] for o in rec.branches if o != l))
            entries[l].append((rec.local_type, others))
        for pair, m in rec.pair_mults:
            profiles.setdefault(pair, []).append((rec.local_type, m, len(rec.branches)))
    keys = sorted((r.local_type, tuple(sorted(r.branches)), r.pair_mults) for r in c.points)
    return (
        {l: (d, tuple(sorted(entries[l]))) for l, d in degree.items()},
        {k: tuple(sorted(v)) for k, v in profiles.items()},
        tuple(keys),
    )


def every_subset_classes(a: Arrangement) -> list[tuple]:
    """The shared classes of `minimality_check(a, ...)`, one sub-curve at a time.

    The reference that the orbit sweep is compared against: every proper
    sub-curve of a is rebuilt and looked up on its own, so a class keeps
    its first sub-curve in `itertools.combinations` order and counts its
    sub-curves one by one.  (representative, count, certificate) triples,
    ordered as in the report.
    """
    classes = []  # [representative, combinatorics, count]
    for r in range(1, len(component_labels(a))):
        for subset in itertools.combinations(component_labels(a), r):
            comb = combinatorics(sub_arrangement(a, subset))
            for cls in classes:
                if equivalences(comb, cls[1], find_all=False):
                    cls[2] += 1
                    break
            else:
                classes.append([subset, comb, 1])
    triples = [(rep, n, connectivity_certificate(comb)) for rep, comb, n in classes]
    return sorted(triples, key=lambda t: (len(t[0]), t[0]))


@pytest.fixture(scope="session")
def pair1_b1():
    return load("pair1_B1")


@pytest.fixture(scope="session")
def pair1_b2():
    return load("pair1_B2")


@pytest.fixture(scope="session")
def pair2_b1():
    return load("pair2_B1")


@pytest.fixture(scope="session")
def pair2_b2():
    return load("pair2_B2")


def random_line(rng: random.Random) -> HomPoly:
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(3)]
        if any(coeffs):
            return HomPoly(1, coeffs).primitive()


def random_smooth_conic(rng: random.Random) -> HomPoly:
    from coniclines.arrangement import conic_matrix_determinant

    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(6)]
        if not any(coeffs):
            continue
        form = conic_form(coeffs).primitive()
        if conic_matrix_determinant(form) != 0:
            return form


def random_arrangement(
    rng: random.Random, max_lines: int = 5, with_conic: bool | None = None
) -> Arrangement:
    """A random valid arrangement with distinct lines and an optional smooth conic."""
    components = []
    forms = set()
    if with_conic is None:
        with_conic = rng.random() < 0.5
    if with_conic:
        q = random_smooth_conic(rng)
        components.append(Component("C", q))
        forms.add(q)
    n = rng.randint(1, max_lines)
    i = 0
    while i < n:
        f = random_line(rng)
        if f in forms:
            continue
        forms.add(f)
        components.append(Component(f"L{i + 1}", f))
        i += 1
    return Arrangement(tuple(components), {})


def random_invertible_matrix(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    while True:
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            return m


def long_int(text: str) -> int:
    """A decimal string of any length as an int, read 600 digits at a time.

    Python 3.11+ refuses `int()` on more than `sys.get_int_max_str_digits()`
    digits; each 600-digit piece is under the lowest limit Python allows (640).
    """
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(text), 600):
        piece = text[i : i + 600]
        n = n * 10 ** len(piece) + int(piece)
    return sign * n


def value_at(form: HomPoly, coords) -> int:
    """The value of a form at a raw coordinate triple, summed term by term."""
    x, y, z = coords
    return sum(k * x**a * y**b * z**c for (a, b, c), k in zip(monomials(form.degree), form.coeffs))


def from_sympy(expr, degree: int) -> HomPoly:
    """The degree-`degree` form of a sympy polynomial in x, y, z, read in `monomials` order."""
    terms = sp.Poly(expr, X, Y, Z).as_dict()
    return HomPoly(degree, [int(terms.get(e, 0)) for e in monomials(degree)])


def transform_arrangement(a: Arrangement, m) -> Arrangement:
    """Apply the linear substitution (x, y, z) -> m * (x, y, z) to every form.

    The substitution runs in sympy, apart from the package's own algebra.
    """
    images = {v: row[0] * X + row[1] * Y + row[2] * Z for v, row in zip((X, Y, Z), m)}
    new_components = tuple(
        Component(c.label, from_sympy(to_sympy(c.form).xreplace(images), c.degree))
        for c in a.components
    )
    return Arrangement(new_components, dict(a.subcurves))


def relabelled_image(a: Arrangement, rng: random.Random) -> Arrangement:
    """A projective image of a with its components renamed and reordered."""
    moved = transform_arrangement(a, random_invertible_matrix(rng))
    names = [f"M{i}" for i in range(len(moved.components))]
    rng.shuffle(names)
    rename = dict(zip(component_labels(moved), names))
    renamed = [Component(rename[c.label], c.form) for c in moved.components]
    rng.shuffle(renamed)
    subcurves = {n: tuple(rename[l] for l in ls) for n, ls in moved.subcurves.items()}
    return Arrangement(tuple(renamed), subcurves)


def symmetric_arrangement(rng: random.Random) -> Arrangement:
    """Lines with many automorphisms, with or without a conic, or a random arrangement.

    The lines x + t*y + t^2*z are in general position and all tangent to
    y^2 = 4xz, so every permutation of them is an automorphism.  Adding a
    pencil of lines through [0:0:1] gives lines of two kinds, so that one
    class of sub-curves (a single line, say) holds several orbits.
    """
    kind = rng.randrange(4)
    if kind == 3:
        return random_arrangement(rng, max_lines=5)
    pencil = rng.sample(range(-5, 6), rng.randint(2, 3)) if kind == 2 else []
    ts = rng.sample([t for t in range(-5, 6) if t], rng.randint(2, (6, 5, 3)[kind]))
    forms = [(1, s, 0) for s in pencil] + [(1, t, t * t) for t in ts]
    components = [Component(f"L{i + 1}", HomPoly(1, f)) for i, f in enumerate(forms)]
    if kind == 1 or (kind == 2 and rng.random() < 0.5):
        components.insert(0, Component("C", conic_form((0, 1, 0, 0, -4, 0))))
    return Arrangement(tuple(components), {})


def generic_lines(n: int) -> str:
    """n lines x + i*y + i^2*z: no three concurrent, so every permutation is an automorphism."""
    return "".join(f"line L{i} : 1 {i} {i * i}\n" for i in range(1, n + 1))


def every_bijection(c1: Combinatorics, c2: Combinatorics) -> list[dict[str, str]]:
    """The label bijections carrying c1's incidence structure onto c2's, tried one by one.

    The reference that `equivalences` is compared against: every
    permutation of c2's labels, kept when it preserves degrees and maps
    c1's record multiset onto c2's; no fingerprints, no pruning.  Sorted
    as `equivalences` sorts.
    """
    if len(c1.labels) != len(c2.labels):
        return []
    target = sorted(rec.mapped_key({l: l for l in c2.labels}) for rec in c2.points)
    degree1, degree2 = dict(c1.degrees), dict(c2.degrees)
    found = []
    for images in itertools.permutations(c2.labels):
        m = dict(zip(c1.labels, images))
        if all(degree1[l] == degree2[m[l]] for l in c1.labels) and (
            sorted(rec.mapped_key(m) for rec in c1.points) == target
        ):
            found.append(m)
    return sorted(found, key=lambda m: tuple(m[l] for l in c1.labels))


def every_equivalence(eqs: Equivalences) -> list[dict[str, str]]:
    """Every equivalence φ∘t₀∘…∘tₙ₋₁ composed from φ and the transversals, sorted.

    The full listing that no command makes; tests compare it against
    `every_bijection` and read properties off it.
    """
    maps = [] if eqs.phi is None else [eqs.phi]
    for level in eqs.transversals:
        maps += [{l: m[t[l]] for l in t} for m in maps for t in level]
    return sorted(maps, key=lambda m: tuple(m.values()))


def backtracking_certificate(c: Combinatorics) -> OrderingCertificate | None:
    """`connectivity_certificate` by depth-first search over build orders.

    The reference that peeling is compared against: from the base, try
    each remaining line in sorted order with n <= 2, recurse, and
    remember every prior set that failed, so at most 2^k prior sets are
    visited for k transversal lines.
    """
    conics = [l for l, d in c.degrees if d == 2]
    lines = [l for l, d in c.degrees if d == 1]
    if not conics:
        if len(lines) <= 9:
            return OrderingCertificate(
                base=tuple(lines), order=(), n_values=(), base_rule="PureLinesAtMost9"
            )
        return None
    conic = conics[0]
    tangents = _tangent_lines(c, conic)
    if len(tangents) > 2:
        return None
    base = (conic, *tangents)
    dead: set[frozenset[str]] = set()

    def extend(prior: frozenset[str], remaining: list[str]) -> tuple[list[str], list[int]] | None:
        if not remaining:
            return [], []
        if prior in dead:
            return None
        for l in remaining:
            n = n_value(c, l, prior)
            if n > 2:
                continue
            tail = extend(prior | {l}, [m for m in remaining if m != l])
            if tail is not None:
                return [l] + tail[0], [n] + tail[1]
        dead.add(prior)
        return None

    found = extend(frozenset(base), sorted(set(lines) - set(tangents)))
    if found is None:
        return None
    return OrderingCertificate(
        base=base, order=tuple(found[0]), n_values=tuple(found[1]), base_rule="ConicWithTangents"
    )


def random_matrix_rows(rng: random.Random, max_dim: int = 12):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    grid = [
        [
            Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    if rng.random() < 0.4 and rows >= 2:
        # plant a dependent row so rank-deficient inputs are common
        src = rng.randrange(rows - 1)
        factor = Fraction(rng.randint(-3, 3))
        grid[-1] = [factor * e for e in grid[src]]
    return grid, cols


def rank(m: QMatrix) -> int:
    """Rank over the rationals, by the package's fraction-free elimination."""
    _, pivots = _ff_echelon(m)
    return len(pivots)


def in_span(v, basis: tuple[QVector, ...], ambient: int) -> bool:
    """True iff v in Q^ambient is a rational combination of the independent vectors of `basis`."""
    v = tuple(v)
    if len(v) != ambient:
        raise ValueError(f"dimension mismatch: {len(v)} vs ambient {ambient}")
    if not any(v):
        return True
    if not basis:
        return False
    return rank(QMatrix.from_rows(basis + (v,), cols=ambient)) == len(basis)


def multiplication_image(f: HomPoly, n: int) -> tuple[QVector, ...]:
    """Degree-n coefficient vectors of f * (every monomial of degree n - deg f): a basis of f·S."""
    if f.is_zero():
        raise ValueError("zero form has no multiplication image")
    if f.degree > n:
        raise ValueError(f"degree overflow: deg f = {f.degree} > n = {n}")
    return tuple(primitive(times_monomial(f, expo).coeffs) for expo in monomials(n - f.degree))


def times_monomial(f: HomPoly, expo: tuple[int, int, int]) -> HomPoly:
    """f times the monomial x^a * y^b * z^c of the exponent triple (a, b, c)."""
    a, b, c = expo
    return HomPoly.from_terms(
        f.degree + a + b + c, {(a1 + a, b1 + b, c1 + c): k for (a1, b1, c1), k in f.terms()}
    )


def stacked_rank_split(a: Arrangement, b, c) -> tuple[int, HomPoly | None]:
    """(connected number, witness) of a split by rank tests on stacked matrices.

    The reference that division is compared against: the kernel K lies in
    c·S exactly when stacking K onto `multiplication_image(c, n)` adds no
    rank, and the witness is the first of the same 10,000 seeded draws
    that lies in no c·S by `in_span`.
    """
    report = check_hypotheses(combinatorics(a), b, c)
    n = a.degree_of(b) // 2
    kernel = through_points(n, report.intersection_points)
    cols = monomial_count(n)
    images = [multiplication_image(comp.form, n) for comp in map(a.component, c) if comp.degree <= n]
    if not kernel or any(
        rank(QMatrix.from_rows(img + kernel, cols=cols)) == len(img) for img in images
    ):
        return 1, None
    rng = random.Random(0)
    for _ in range(10_000):
        coeffs = [rng.randint(-9, 9) for _ in range(len(kernel))]
        vec = [sum(k * v[i] for k, v in zip(coeffs, kernel)) for i in range(cols)]
        if any(vec) and not any(in_span(vec, img, cols) for img in images):
            return 2, HomPoly(n, vec).primitive()
    raise AssertionError("no witness among the seeded draws")


def tangent_split(rng: random.Random, m: int) -> Arrangement:
    """The conic x*z - y^2 with 2m tangent lines, moved by a random projective map.

    The tangent at (s^2 : s*t : t^2) is t^2*x - 2*s*t*y + s^2*z.  B is the
    lines and CC the conic, as in the package's splitting benchmark.
    """
    params = set()
    while len(params) < 2 * m:
        s, t = rng.randint(-9, 9), rng.randint(0, 9)
        if math.gcd(s, t) == 1 and (t or s == 1):
            params.add((s, t))
    lines = "".join(
        f"line L{i} : {t * t} {-2 * s * t} {s * s}\n" for i, (s, t) in enumerate(sorted(params), 1)
    )
    text = (
        "conic C : 0 -1 0 0 1 0\n"
        + lines
        + "curve B = " + " ".join(f"L{i}" for i in range(1, 2 * m + 1)) + "\ncurve CC = C\n"
    )
    return transform_arrangement(parse(text), random_invertible_matrix(rng))
