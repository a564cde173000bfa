"""Seeded input generators for the `corpus` workload.

Every generator takes the benchmark seed and a cycle index, so the same
seed always yields the same files, and each cycle of a run gets fresh
inputs.  The generators check their own output with plain integer
arithmetic (no package code): conic points lie on the conic, tangent
lines are the polars of their points, chords pass through both of their
points, and transformed copies are non-degenerate.

Conics are images of x*z - y^2 under a seeded integer projective map T,
so their rational points come from the parameterization (s^2, s*t, t^2)
pushed through T; the point height grows with the parameter height.

The `corpus` workload runs two seeded families, each input used once.
What they vary, and why:

- the split family exists to load the linear algebra of the splitting
  criterion (`through_points`, `kernel_basis`, `intersect_subspaces`).
  It varies the component count (2m + 1 for m = 2..7, so the matrix grows from
  4 x 6 to 14 x 36) and the coefficient height (parameters up to
  SPLIT_HEIGHT, maps with entries up to 2).  Symmetry plays no part.
- the arrangement family exists to load the incidence and equivalence
  search on inputs that share nothing, the opposite of `minimality`'s
  sweep over restrictions of one arrangement.  It varies the component
  count (6-12 lines plus a conic, 5-7 generic lines), the coefficient
  height (images under maps with entries up to 3) and the symmetry:
  chords and tangents at a few conic points give small automorphism
  groups, while n generic lines have all n! label bijections as
  equivalences.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Vec = tuple[int, int, int]
Mat = tuple[Vec, Vec, Vec]

# 2 * (x*z - y^2) as a symmetric integer matrix
BASE_CONIC: Mat = ((0, 0, 1), (0, -2, 0), (1, 0, 0))


def rng_for(workload: str, seed: int, cycle: int) -> random.Random:
    # string seeds are hashed with SHA-512, so they are stable across runs
    return random.Random(f"{workload}:{seed}:{cycle}")


def primitive(v) -> tuple[int, ...]:
    g = math.gcd(*v)
    if g == 0:
        raise ValueError(f"zero vector {v}")
    sign = next(1 if x > 0 else -1 for x in v if x)
    return tuple(sign * x // g for x in v)


def cross(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def det(m: Mat) -> int:
    return dot(m[0], cross(m[1], m[2]))


def adjugate(m: Mat) -> Mat:
    # columns of the inverse times det are the cross products of row pairs
    return transpose((cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])))


def quad(m: Mat, p: Vec) -> int:
    return dot(p, mat_vec(m, p))


def random_map(rng: random.Random, bound: int) -> Mat:
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(3))
        if det(m) != 0:
            return m


def conic_coeffs(m: Mat) -> tuple[int, ...]:
    """File coefficients (x^2, y^2, z^2, xy, xz, yz) of p^T m p, primitive."""
    return primitive((m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2]))


@dataclass(frozen=True)
class Conic:
    matrix: Mat  # symmetric, the conic is p^T matrix p = 0
    param_map: Mat  # (s^2, s*t, t^2) -> point on the conic

    def point(self, s: int, t: int) -> Vec:
        return primitive(mat_vec(self.param_map, (s * s, s * t, t * t)))

    def tangent(self, p: Vec) -> Vec:
        return primitive(mat_vec(self.matrix, p))


def random_conic(rng: random.Random, bound: int = 2) -> Conic:
    t = random_map(rng, bound)
    a = adjugate(t)
    return Conic(mat_mul(mat_mul(transpose(a), BASE_CONIC), a), t)


def distinct_params(rng: random.Random, count: int, height: int) -> list[tuple[int, int]]:
    """`count` pairwise non-proportional coprime (s, t) with |s|, |t| <= height."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        s, t = rng.randint(-height, height), rng.randint(0, height)
        if math.gcd(s, t) != 1 or (t == 0 and s != 1):
            continue
        if (s, t) not in out:
            out.append((s, t))
    return out


def check_tangent(conic: Conic, p: Vec, line: Vec) -> None:
    if quad(conic.matrix, p) != 0:
        raise AssertionError(f"point {p} is not on the conic")
    if dot(line, p) != 0 or cross(line, mat_vec(conic.matrix, p)) != (0, 0, 0):
        raise AssertionError(f"line {line} is not tangent at {p}")


def fmt(values) -> str:
    return " ".join(str(v) for v in values)


# ---------------------------------------------------------------- splits


@dataclass(frozen=True)
class SplitCase:
    m: int
    text: str
    tangency_points: tuple[Vec, ...]

    @property
    def expected_dim(self) -> int:
        # 2m points on a conic impose independent conditions on degree-m forms
        return math.comb(self.m + 2, 2) - 2 * self.m


SPLIT_MS = range(2, 8)
SPLIT_HEIGHT = 9


def split_case(rng: random.Random, m: int) -> SplitCase:
    """A conic plus 2m rational tangent lines; B = the lines, CC = the conic.

    The degree-m forms through the 2m tangency points exceed the conic
    multiples by exactly one dimension, so the connected number is 2.
    """
    conic = random_conic(rng)
    points = [conic.point(s, t) for s, t in distinct_params(rng, 2 * m, SPLIT_HEIGHT)]
    if len(set(points)) != len(points):
        raise AssertionError("tangency points coincide")
    lines = []
    for p in points:
        line = conic.tangent(p)
        check_tangent(conic, p, line)
        lines.append(line)
    body = [f"conic C : {fmt(conic_coeffs(conic.matrix))}"]
    body += [f"line L{i} : {fmt(l)}" for i, l in enumerate(lines, 1)]
    body.append("curve B = " + " ".join(f"L{i}" for i in range(1, len(lines) + 1)))
    body.append("curve CC = C")
    return SplitCase(m, "\n".join(body) + "\n", tuple(points))


def split_family(seed: int, cycle: int) -> list[SplitCase]:
    rng = rng_for("splits", seed, cycle)
    return [split_case(rng, m) for m in SPLIT_MS]


# ---------------------------------------------------------------- corpus


@dataclass(frozen=True)
class Arr:
    conic: Mat | None
    lines: tuple[Vec, ...]


@dataclass(frozen=True)
class CorpusCase:
    name: str
    original: str
    copy: str
    # combinatorial self-equivalences when known by construction, else None
    automorphisms: int | None


RIGID_SIZES = range(6, 13)
GENERIC_SIZES = range(5, 8)
CORPUS_HEIGHT = 6


def rigid_arrangement(rng: random.Random, nlines: int) -> Arr:
    """A conic with tangents and chords through its rational points."""
    conic = random_conic(rng)
    npoints = nlines // 2 + 2
    points = [conic.point(s, t) for s, t in distinct_params(rng, npoints, CORPUS_HEIGHT)]
    ntangents = rng.randint(1, 3)
    lines = []
    for p in rng.sample(points, ntangents):
        line = conic.tangent(p)
        check_tangent(conic, p, line)
        lines.append(line)
    pairs = [(i, j) for i in range(npoints) for j in range(i + 1, npoints)]
    for i, j in rng.sample(pairs, nlines - ntangents):
        chord = primitive(cross(points[i], points[j]))
        if dot(chord, points[i]) or dot(chord, points[j]):
            raise AssertionError("chord misses its points")
        lines.append(chord)
    return Arr(conic.matrix, tuple(lines))


def generic_arrangement(rng: random.Random, nlines: int) -> Arr:
    """n lines (1, k, k^2), k distinct: no three concurrent, Aut = all n! bijections."""
    ks = rng.sample(range(-12, 13), nlines)
    return Arr(None, tuple(primitive((1, k, k * k)) for k in ks))


def transformed(a: Arr, s: Mat) -> Arr:
    """Image of `a` under p -> s p (lines l -> l adj(s), conics adj^T M adj)."""
    adj = adjugate(s)
    conic = None
    if a.conic is not None:
        conic = mat_mul(mat_mul(transpose(adj), a.conic), adj)
        if det(conic) == 0:
            raise AssertionError("transformed conic is singular")
    lines = tuple(primitive(mat_vec(transpose(adj), l)) for l in a.lines)
    if len(set(lines)) != len(lines):
        raise AssertionError("transformed lines coincide")
    for l, image in zip(a.lines, lines):
        # a point p on l must map to s p on the image line
        p = next(q for q in (cross(l, e) for e in ((1, 0, 0), (0, 1, 0))) if any(q))
        if dot(image, mat_vec(s, p)) != 0:
            raise AssertionError("line image does not contain the image point")
    return Arr(conic, lines)


def arrangement_text(a: Arr, order: list[int]) -> str:
    body = [] if a.conic is None else [f"conic C : {fmt(conic_coeffs(a.conic))}"]
    body += [f"line L{i} : {fmt(a.lines[k])}" for i, k in enumerate(order, 1)]
    return "\n".join(body) + "\n"


def corpus_cycle(seed: int, cycle: int) -> list[CorpusCase]:
    """Seven rigid arrangements (6-12 lines) and three generic ones (5-7 lines).

    Each comes with a copy under a seeded projective map, its lines
    relabelled by a seeded shuffle.
    """
    rng = rng_for("corpus", seed, cycle)
    cases = []
    specs = [("rigid", n) for n in RIGID_SIZES] + [("generic", n) for n in GENERIC_SIZES]
    for kind, n in specs:
        if kind == "rigid":
            a, auts = rigid_arrangement(rng, n), None
        else:
            a, auts = generic_arrangement(rng, n), math.factorial(n)
        image = transformed(a, random_map(rng, 3))
        order = list(range(n))
        shuffled = order[:]
        rng.shuffle(shuffled)
        cases.append(
            CorpusCase(
                f"{kind}_{n}",
                arrangement_text(a, order),
                arrangement_text(image, shuffled),
                auts,
            )
        )
    return cases
