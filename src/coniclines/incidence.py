"""Intersection points, singular-point classification, abstract combinatorics.

Two rational lines always meet in a rational point, so only line-conic
intersections can leave the rationals.  Those are kept symbolic as a
conjugate pair (line, conic, discriminant): the pair is two nodes, two
equal point records, and no third component can pass through either
point, so no field-extension arithmetic is ever needed.

`combinatorics(a)` is the one way from an arrangement to its points.  An
arrangement's `Combinatorics` is computed once, and a sub-arrangement's
is its restriction: the whole structure memoises each distinct (point,
kept branches) with that point's facts, which every sub-curve shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .arrangement import Arrangement, Component
from .poly import ProjPoint, cross, restrict_to_line


@dataclass(frozen=True)
class ConjugatePair:
    """Two Galois-conjugate intersection points of a line and the conic.

    The discriminant comes from the canonical parameterization of the
    line (`_line_points`), so it is deterministic;
    it is well defined up to a nonzero square factor.
    """

    discriminant: int
    line: str
    conic: str


def intersect_lines(l1: Component, l2: Component) -> ProjPoint:
    """The unique common point of two non-proportional lines (cross product)."""
    if l1.kind != "line" or l2.kind != "line":
        raise ValueError("intersect_lines expects two lines")
    point = cross(l1.form.coeffs, l2.form.coeffs)
    if not any(point):
        raise ValueError(f"lines {l1.label} and {l2.label} are proportional")
    return ProjPoint(*point)


def _line_points(line: Component) -> tuple[ProjPoint, ProjPoint]:
    """Two canonical integer coordinate vectors spanning the line a*x + b*y + c*z.

    The kernel basis of the row (a, b, c) in closed form: one vector per
    free column, each a `ProjPoint`.
    """
    a, b, c = line.form.coeffs
    if a:
        return ProjPoint(-b, a, 0), ProjPoint(-c, 0, a)
    return ProjPoint(1, 0, 0), ProjPoint(0, -c, b)


def intersect_line_conic(
    line: Component, conic: Component
) -> tuple[tuple[ProjPoint, int], ...] | ConjugatePair:
    """line ∩ conic as (point, local multiplicity) pairs, or a conjugate pair.

    Parameterize the line by s*P0 + t*P1 and restrict the conic to a binary
    quadratic A s^2 + B s t + C t^2; then Δ = B^2 - 4AC decides: 0 is a
    tangency, one point of multiplicity 2; a nonzero square gives two
    rational points of multiplicity 1, sorted; anything else a conjugate
    pair.
    """
    if line.kind != "line" or conic.kind != "conic":
        raise ValueError("intersect_line_conic expects a line and a conic")
    p0, p1 = _line_points(line)
    A, B, C = restrict_to_line(conic.form, p0, p1)
    disc = B * B - 4 * A * C

    def point_at(s: int, t: int) -> ProjPoint:
        return ProjPoint(s * p0[0] + t * p1[0], s * p0[1] + t * p1[1], s * p0[2] + t * p1[2])

    if disc == 0:
        if A == 0:
            # restriction is C t^2 with C != 0: double root at t = 0
            return ((p0, 2),)
        return ((point_at(-B, 2 * A), 2),)
    if disc > 0 and (root := math.isqrt(disc)) * root == disc:
        if A == 0:
            p, q = sorted((point_at(1, 0), point_at(-C, B)))
        else:
            p, q = sorted((point_at(-B + root, 2 * A), point_at(-B - root, 2 * A)))
        return ((p, 1), (q, 1))
    return ConjugatePair(disc, line.label, conic.label)


class LocalType(NamedTuple):
    """Local type of a singular point: node, tacnode, ordinary m-fold, other.

    The branch count and the pairwise multiplicities determine the type, so
    they are its only fields; `classify` gives one shared value per type.
    """

    branch_count: int
    signature: tuple[int, ...]  # sorted pairwise intersection multiplicities

    @property
    def kind(self) -> str:  # "node" | "tacnode" | "ordinary" | "other"
        if self.branch_count == 2 and self.signature in ((1,), (2,)):
            return "node" if self.signature == (1,) else "tacnode"
        if self.branch_count >= 3 and all(m == 1 for m in self.signature):
            return "ordinary"
        return "other"

    def display(self, plural: bool = False) -> str:
        """The name of the type.

        A plural name ends in "s": `bench/workloads.py` finds the group
        headers of `analyze` by it.
        """
        s = "s" if plural else ""
        if self.kind in ("node", "tacnode"):
            return self.kind + s
        if self.kind == "ordinary":
            if self.branch_count == 3:
                return f"ordinary triple point{s}"
            if plural:
                return f"ordinary {self.branch_count}-fold points"
            return f"ordinary point of multiplicity {self.branch_count}"
        name = f"other (pairwise multiplicities {list(self.signature)})"
        return f"{name} points" if plural else name


# the local type of a point, one shared value per type: equal types are identical
classify = lru_cache(maxsize=None)(LocalType)


PairMults = tuple[tuple[tuple[str, str], int], ...]


@dataclass(frozen=True)
class SingularPoint:
    """A singular point: its location and its pair table, sorted by pair.

    The branches and the local type follow from the pair table.  The two
    nodes of a conjugate pair are two equal records, each with the
    ConjugatePair as its location.
    """

    location: ProjPoint | ConjugatePair
    pair_mults: PairMults
    branches: frozenset[str] = field(init=False, compare=False)
    local_type: LocalType = field(init=False, compare=False)

    def __post_init__(self):
        pairs, signature = zip(*self.pair_mults)
        branches = frozenset(itertools.chain.from_iterable(pairs))
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "local_type", classify(len(branches), tuple(sorted(signature))))

    def mult(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        for pair, m in self.pair_mults:
            if pair == key:
                return m
        raise KeyError(f"components {a}, {b} do not both pass through this point")

    @property
    def is_rational(self) -> bool:
        return isinstance(self.location, ProjPoint)

    def mapped_key(self, mapping: dict[str, str]) -> PairMults:
        """Coordinate-free image of the point under a relabelling: its sorted pair table."""
        mults = []
        for (x, y), m in self.pair_mults:
            x, y = mapping[x], mapping[y]
            mults.append(((x, y) if x <= y else (y, x), m))
        mults.sort()
        return tuple(mults)

    def restrict(self, keep: frozenset[str]) -> SingularPoint | None:
        """The same point on the sub-arrangement `keep`; None if it is smooth there."""
        if keep.issuperset(self.branches):
            return self
        mults = tuple([item for item in self.pair_mults if keep.issuperset(item[0])])
        return SingularPoint(self.location, mults) if mults else None


def singular_points(a: Arrangement) -> tuple[SingularPoint, ...]:
    """All singular points, rational ones merged by canonical coordinates.

    Rational points come first, in lexicographic order of their canonical
    coordinate triples, one `ProjPoint` each; conjugate pairs follow,
    ordered by labels, two equal records each.  Commands reach them
    through `combinatorics`.
    """
    by_point: dict[ProjPoint, dict[tuple[str, str], int]] = {}
    conjugates: list[ConjugatePair] = []
    lines, conic = a.lines, a.conic
    for l1, l2 in itertools.combinations(lines, 2):
        pair = (l1.label, l2.label) if l1.label <= l2.label else (l2.label, l1.label)
        by_point.setdefault(intersect_lines(l1, l2), {})[pair] = 1
    for line in lines if conic is not None else ():
        outcome = intersect_line_conic(line, conic)
        if isinstance(outcome, ConjugatePair):
            conjugates.append(outcome)
            continue
        pair = (line.label, conic.label) if line.label <= conic.label else (conic.label, line.label)
        for p, mult in outcome:
            by_point.setdefault(p, {})[pair] = mult

    points: list[SingularPoint] = []
    for p in sorted(by_point):
        mults = by_point[p]
        pt = SingularPoint(p, tuple(sorted(mults.items())))
        # two components through the same rational point always have their
        # intersection recorded there, so the pair table holds every pair
        n = len(pt.branches)
        if len(mults) != n * (n - 1) // 2:
            pairs = itertools.combinations(sorted(pt.branches), 2)
            x, y = next(pair for pair in pairs if pair not in mults)
            raise AssertionError(f"missing pair multiplicity for {x}, {y} at {pt.location}")
        points.append(pt)
    for cj in sorted(conjugates, key=lambda c: (c.line, c.conic)):
        pt = SingularPoint(cj, ((tuple(sorted((cj.line, cj.conic))), 1),))
        points += (pt, pt)
    return tuple(points)


def bezout_table(points: tuple[SingularPoint, ...]) -> dict[tuple[str, str], int]:
    """Sum of local multiplicities per component pair (should equal degree products)."""
    sums: dict[tuple[str, str], int] = {}
    for pt in points:
        for pair, m in pt.pair_mults:
            sums[pair] = sums.get(pair, 0) + m
    return sums


def bezout_check(comb: Combinatorics) -> bool:
    """Bezout's theorem for every component pair of the structure."""
    table = bezout_table(comb.points)
    return all(
        table.get((x, y) if x <= y else (y, x), 0) == dx * dy
        for (x, dx), (y, dy) in itertools.combinations(comb.degrees, 2)
    )


class PointFacts(NamedTuple):
    """A point record with its entries in the fingerprints and pair profiles of `Combinatorics`."""

    record: SingularPoint
    fingerprint: tuple[tuple[str, tuple], ...]  # (label, entry) per branch
    profile: tuple[tuple[tuple[str, str], tuple], ...]  # (pair, entry) per pair


def _point_facts(rec: SingularPoint, degree: dict[str, int]) -> PointFacts:
    key = rec.local_type
    labels = sorted(rec.branches)
    degrees = sorted([degree[l] for l in labels])
    fingerprint = []
    for l in labels:  # the other branches' degrees: all of them less one of l's
        others = degrees.copy()
        others.remove(degree[l])
        fingerprint.append((l, (key, tuple(others))))
    profile = tuple([(pair, (key, m, len(labels))) for pair, m in rec.pair_mults])
    return PointFacts(rec, tuple(fingerprint), profile)


@dataclass(frozen=True)
class Combinatorics:
    """Incidence structure of an arrangement: component degrees and singular points.

    `points` lists `singular_points` in their canonical order, one record
    per point.  The points keep their locations, but equivalence reads
    only degrees and pair tables: two projectively equivalent arrangements
    give structures equal up to a bijection of labels, which
    `equivalences` searches for.  A sub-arrangement's structure is the
    restriction of the whole one.

    `facts` holds each point's `PointFacts`, built on first use: a
    restriction is handed the facts of its points.  `fingerprints` and
    `pair_profiles` are sorts of those entries, `record_keys` the sorted
    pair tables.
    """

    degrees: tuple[tuple[str, int], ...]
    points: tuple[SingularPoint, ...]

    @cached_property
    def facts(self) -> tuple[PointFacts, ...]:
        return tuple(_point_facts(pt, self._degree) for pt in self.points)

    @cached_property
    def _degree(self) -> dict[str, int]:
        return dict(self.degrees)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.degrees)

    @cached_property
    def fingerprints(self) -> dict[str, tuple]:
        """Per label: (degree, multiset over its points of (local type, co-incident degrees)).

        Computed once per structure, like the facts below.  Invariant under
        every equivalence: a report item and the search's first pruning.
        """
        entries: dict[str, list] = {l: [] for l, _ in self.degrees}
        for f in self.facts:
            for l, entry in f.fingerprint:
                entries[l].append(entry)
        return {l: (d, tuple(sorted(entries[l]))) for l, d in self.degrees}

    @cached_property
    def pair_profiles(self) -> dict[tuple[str, str], tuple]:
        """Per sorted label pair: (local type, multiplicity, branch count) of each common point."""
        profiles: dict[tuple[str, str], list] = {}
        for f in self.facts:
            for pair, entry in f.profile:
                profiles.setdefault(pair, []).append(entry)
        return {k: tuple(sorted(v)) for k, v in profiles.items()}

    @cached_property
    def record_keys(self) -> tuple[PairMults, ...]:
        """`_record_multiset` of the identity labelling: the target of the leaf checks."""
        return tuple(sorted(pt.pair_mults for pt in self.points))

    @cached_property
    def _restrictions(self) -> dict[tuple[int, frozenset[str]], PointFacts]:
        """(point index, kept branches) -> the facts of the restricted point."""
        return {}

    def restrict(self, labels: Iterable[str]) -> Combinatorics:
        """The incidence structure of the sub-arrangement with the given components.

        Each distinct (point, kept branches) is restricted once per
        structure, with its facts, however many sub-arrangements keep it.
        """
        keep = frozenset(labels)
        memo = self._restrictions
        facts = []
        for i, pt in enumerate(self.points):
            if pt.branches <= keep:
                facts.append(self.facts[i])
                continue
            kept = pt.branches & keep
            if len(kept) < 2:  # smooth on the sub-arrangement
                continue
            f = memo.get((i, kept))
            if f is None:
                f = memo[i, kept] = _point_facts(pt.restrict(kept), self._degree)
            facts.append(f)
        sub = Combinatorics(
            tuple((l, d) for l, d in self.degrees if l in keep),
            tuple(f.record for f in facts),
        )
        object.__setattr__(sub, "facts", tuple(facts))
        return sub


def combinatorics(a: Arrangement) -> Combinatorics:
    """The incidence structure of a: its degrees and singular points."""
    return Combinatorics(tuple((c.label, c.degree) for c in a.components), singular_points(a))


def _record_multiset(c: Combinatorics, mapping: dict[str, str]) -> tuple:
    return tuple(sorted(rec.mapped_key(mapping) for rec in c.points))


@dataclass(frozen=True)
class Equivalences:
    """The label bijections carrying a structure c1 onto c2: φ and a group, not a list.

    `phi` is one equivalence, or None.  `transversals[i]` holds the
    automorphisms of c1 that fix the first i labels of the search order and
    send the next one to each further image.  Every equivalence is
    φ∘t₀∘…∘tₙ₋₁ in exactly one way, each tᵢ the identity or in
    `transversals[i]`: a base and strong generating set of Aut(c1) (McKay &
    Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014).
    `len` is ∏(1 + |Tᵢ|).  φ and the transversal elements are read-only mappings.
    """

    phi: Mapping[str, str] | None
    transversals: tuple[tuple[Mapping[str, str], ...], ...] = ()

    def __len__(self) -> int:
        return 0 if self.phi is None else math.prod(1 + len(t) for t in self.transversals)

    @cached_property
    def generators(self) -> tuple[Mapping[str, str], ...]:
        """Every transversal element: automorphisms of c1 that generate all of them."""
        return tuple(t for level in self.transversals for t in level)

    def map_onto(self, subset: Iterable[str], image: Iterable[str]) -> bool:
        """Whether every equivalence maps `subset` onto `image` (true if there is none).

        The automorphisms fixing `subset` form a subgroup: φ and the generators decide.
        """
        s = set(subset)
        fixed = all({g[l] for l in s} == s for g in self.generators)
        return self.phi is None or ({self.phi[l] for l in s} == set(image) and fixed)


def equivalences(c1: Combinatorics, c2: Combinatorics, find_all: bool = True) -> Equivalences:
    """The label bijections carrying c1's incidence structure onto c2's.

    Backtracking over fingerprint-compatible candidates with pairwise
    profile pruning, then a check at the leaves that the relabelled pair
    tables are c2's, finds the first equivalence φ.  Then, level by level,
    one search per further image of the level's label, with φ fixed before
    it, finds each ψ and so the automorphism φ⁻¹∘ψ.  With `find_all` false
    the result is φ alone (`len` 1).  A falsy result means the structures
    are not equivalent.
    """
    fp1, fp2 = c1.fingerprints, c2.fingerprints
    # equal fingerprint multisets also give equal degrees and point types
    if sorted(fp1.values()) != sorted(fp2.values()):
        return Equivalences(None)
    candidates = {l: [m for m in fp2 if fp2[m] == fp1[l]] for l in fp1}
    prof1, prof2 = c1.pair_profiles, c2.pair_profiles
    target = c2.record_keys

    order = sorted(fp1, key=lambda l: (len(candidates[l]), l))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def compatible(l: str, m: str) -> bool:
        for other, image in mapping.items():
            key1 = (l, other) if l <= other else (other, l)
            key2 = (m, image) if m <= image else (image, m)
            if prof1.get(key1, ()) != prof2.get(key2, ()):
                return False
        return True

    def first(i: int, options: list[str] | None = None) -> dict[str, str] | None:
        """The first completion of `mapping` on order[i:]; order[i] from `options` if given."""
        if i == len(order):
            return dict(mapping) if _record_multiset(c1, mapping) == target else None
        l = order[i]
        for m in candidates[l] if options is None else options:
            if m in used or not compatible(l, m):
                continue
            mapping[l] = m
            used.add(m)
            found = first(i + 1)
            used.discard(m)
            del mapping[l]
            if found is not None:
                return found
        return None

    try:
        found = first(0)
        if found is None:
            return Equivalences(None)
        phi = MappingProxyType({l: found[l] for l in fp1})
        if not find_all:
            return Equivalences(phi)
        inverse = {m: l for l, m in phi.items()}
        transversals = []
        for i, l in enumerate(order):
            # the candidates before φ(l) already failed on the way to φ
            later = candidates[l][candidates[l].index(phi[l]) + 1 :]
            found_here = [psi for psi in (first(i, [m]) for m in later) if psi is not None]
            automorphisms = ({k: inverse[psi[k]] for k in phi} for psi in found_here)
            transversals.append(tuple(map(MappingProxyType, automorphisms)))
            mapping[l] = phi[l]
            used.add(phi[l])
        return Equivalences(phi, tuple(transversals))
    finally:
        del first  # it calls itself through its closure cell: break that cycle
