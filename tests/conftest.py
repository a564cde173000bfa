import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from coniclines import parse
from coniclines.arrangement import Arrangement, Component, conic_form, line_form
from coniclines.incidence import Combinatorics, combinatorics, equivalences
from coniclines.moduli import connectivity_certificate
from coniclines.poly import HomPoly, monomials

from .oracles import X, Y, Z, to_sympy

DATA = Path(__file__).resolve().parent.parent / "data"

PAIR_FILES = {
    "pair1_B1": DATA / "pair1_B1.txt",
    "pair1_B2": DATA / "pair1_B2.txt",
    "pair2_B1": DATA / "pair2_B1.txt",
    "pair2_B2": DATA / "pair2_B2.txt",
}


def load(name: str) -> Arrangement:
    return parse(PAIR_FILES[name].read_text(encoding="utf-8"))


def sub_arrangement(a: Arrangement, labels) -> Arrangement:
    """The sub-arrangement with the given components, rebuilt from scratch.

    The reference that restricted incidence structures are compared
    against; sub-curve names are dropped.
    """
    wanted = set(labels)
    return Arrangement(tuple(c for c in a.components if c.label in wanted), {})


def every_subset_classes(a: Arrangement) -> list[tuple]:
    """The shared classes of `minimality_check(a, ...)`, one sub-curve at a time.

    The reference that the orbit sweep is compared against: every proper
    sub-curve of a is rebuilt and looked up on its own, so a class keeps
    its first sub-curve in `itertools.combinations` order and counts its
    sub-curves one by one.  (representative, count, certificate) triples,
    ordered as in the report.
    """
    classes = []  # [representative, combinatorics, count]
    for r in range(1, len(a.labels)):
        for subset in itertools.combinations(a.labels, r):
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
            return line_form(coeffs)


def random_smooth_conic(rng: random.Random) -> HomPoly:
    from coniclines.arrangement import conic_matrix_determinant

    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(6)]
        if not any(coeffs):
            continue
        form = conic_form(coeffs)
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
        components.append(Component("C", "conic", q))
        forms.add(q)
    n = rng.randint(1, max_lines)
    i = 0
    while i < n:
        f = random_line(rng)
        if f in forms:
            continue
        forms.add(f)
        components.append(Component(f"L{i + 1}", "line", f))
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
        Component(c.label, c.kind, from_sympy(to_sympy(c.form).xreplace(images), c.degree))
        for c in a.components
    )
    return Arrangement(new_components, dict(a.subcurves))


def relabelled_image(a: Arrangement, rng: random.Random) -> Arrangement:
    """A projective image of a with its components renamed and reordered."""
    moved = transform_arrangement(a, random_invertible_matrix(rng))
    names = [f"M{i}" for i in range(len(moved.components))]
    rng.shuffle(names)
    rename = dict(zip(moved.labels, names))
    renamed = [Component(rename[c.label], c.kind, c.form) for c in moved.components]
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
    components = [Component(f"L{i + 1}", "line", line_form(f)) for i, f in enumerate(forms)]
    if kind == 1 or (kind == 2 and rng.random() < 0.5):
        components.insert(0, Component("C", "conic", conic_form((0, 1, 0, 0, -4, 0))))
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
    found = []
    for images in itertools.permutations(c2.labels):
        m = dict(zip(c1.labels, images))
        if all(c1.degree_of(l) == c2.degree_of(m[l]) for l in c1.labels) and (
            sorted(rec.mapped_key(m) for rec in c1.points) == target
        ):
            found.append(m)
    return sorted(found, key=lambda m: tuple(m[l] for l in c1.labels))


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
