"""Intersections, singular-point tables, combinatorics, equivalence search."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coniclines import incidence
from coniclines.arrangement import Arrangement, Component, conic_form, parse
from coniclines.incidence import (
    Combinatorics,
    ConjugatePair,
    SingularPoint,
    _line_points,
    bezout_check,
    bezout_table,
    classify,
    combinatorics,
    equivalences,
    intersect_line_conic,
    intersect_lines,
    singular_points,
)
from coniclines.linalg import QMatrix, kernel_basis
from coniclines.poly import HomPoly, ProjPoint

from .conftest import (
    GRID,
    LINE_EXPONENTS,
    PAIR_FILES,
    TWO_CONJUGATE_PAIRS,
    cleared,
    coefficient,
    component_labels,
    every_bijection,
    every_equivalence,
    generic_lines,
    load,
    random_arrangement,
    random_invertible_matrix,
    reference_singular_points,
    relabelled_image,
    scratch_facts,
    sub_arrangement,
    symmetric_arrangement,
    transform_arrangement,
)
from .oracles import sympy_line_conic_points

CONIC = Component("C", conic_form([1, 1, 1, -2, -2, -2]))
L1 = Component("L1", HomPoly(1, [1, 0, 0]))
L2 = Component("L2", HomPoly(1, [0, 1, 0]))
L3 = Component("L3", HomPoly(1, [1, 1, -5]))
L4 = Component("L4", HomPoly(1, [3, -2, -10]))

PAIR1_TRIPLES = {
    frozenset(s)
    for s in (
        ("L1", "L4", "L5"),
        ("L1", "L6", "L7"),
        ("L2", "L5", "L7"),
        ("L2", "L4", "L6"),
        ("L3", "L5", "L6"),
        ("L3", "L7", "C"),
        ("L3", "L4", "C"),
    )
}
PAIR1_TACNODES = {frozenset(("L1", "C")), frozenset(("L2", "C"))}

PAIR2_TRIPLES = {
    frozenset(s)
    for s in (
        ("L1", "L2", "L4"),
        ("L1", "L3", "L6"),
        ("L1", "L5", "L7"),
        ("L4", "L7", "C"),
        ("L4", "L5", "C"),
        ("L6", "L7", "C"),
        ("L5", "L6", "C"),
    )
}
PAIR2_TACNODES = {frozenset(("L2", "C")), frozenset(("L3", "C"))}


def test_intersect_coordinate_lines():
    assert intersect_lines(L1, L2) == (0, 0, 1)


def test_intersect_lines_triple_point_location():
    # {L1, L4, L5} is a triple point of pair 1
    assert intersect_lines(L1, L4) == (0, 5, -1)  # [0 : -5 : 1]


def test_intersect_lines_substitution_case():
    assert intersect_lines(L1, L3) == (0, 5, 1)


def test_intersect_proportional_lines_rejected():
    with pytest.raises(ValueError, match="proportional"):
        intersect_lines(L1, Component("M", HomPoly(1, [2, 0, 0])))


def test_line_conic_tangent():
    assert intersect_line_conic(L1, CONIC) == (((0, 1, 1), 2),)


def test_line_conic_two_rational():
    assert intersect_line_conic(L3, CONIC) == (((1, 4, 1), 1), ((4, 1, 1), 1))


def test_line_conic_conjugate_pair():
    line = Component("M", HomPoly(1, [0, 1, -2]))
    circle = Component("Q", conic_form([1, 1, -1, 0, 0, 0]))
    out = intersect_line_conic(line, circle)
    assert isinstance(out, ConjugatePair)
    assert out.discriminant == Fraction(-12)


def test_tangency_golden():
    mults = [[m for _, m in intersect_line_conic(l, CONIC)] for l in (L1, L2, L3)]
    assert mults == [[2], [2], [1, 1]]


# zero is drawn about half the time, so the a = 0 and a = b = 0 branches run often
COEFFICIENT = st.one_of(st.just(0), st.integers(-40, 40))


@settings(max_examples=200, deadline=None)
@given(st.tuples(COEFFICIENT, COEFFICIENT, COEFFICIENT).filter(any))
@example((0, 3, -2))
@example((0, 0, -5))
@example((0, 4, 0))
@example((-2, 0, 0))
def test_line_points_are_the_kernel_basis_of_the_row(row):
    line = Component("L", HomPoly(1, row))
    stored = [coefficient(line.form, e) for e in LINE_EXPONENTS]
    assert _line_points(line) == kernel_basis(QMatrix.from_rows([stored], cols=3))


def _tables(a: Arrangement):
    triples, tacs, rational_nodes, conj = set(), set(), set(), set()
    for pt in singular_points(a):
        kind = pt.local_type.kind
        if kind == "ordinary" and pt.local_type.branch_count == 3:
            triples.add(pt.branches)
        elif kind == "tacnode":
            tacs.add(pt.branches)
        elif kind == "node" and pt.is_rational:
            rational_nodes.add((pt.branches, pt.location))
        elif kind == "node":
            conj.add(pt.branches)
        else:
            raise AssertionError(f"unexpected type {pt.local_type}")
    return triples, tacs, rational_nodes, conj


@pytest.mark.parametrize("name", ["pair1_B1", "pair1_B2"])
def test_pair1_singularity_table(name):
    triples, tacs, rational_nodes, conj = _tables(load(name))
    assert triples == PAIR1_TRIPLES
    assert tacs == PAIR1_TACNODES
    assert len(rational_nodes) == 6
    assert len(conj) == 2  # conjugate pairs: 4 more nodes
    assert conj == {frozenset(("C", "L5")), frozenset(("C", "L6"))}


@pytest.mark.parametrize("name", ["pair2_B1", "pair2_B2"])
def test_pair2_singularity_table(name):
    triples, tacs, rational_nodes, conj = _tables(load(name))
    assert triples == PAIR2_TRIPLES
    assert tacs == PAIR2_TACNODES
    assert len(rational_nodes) == 8
    assert conj == {frozenset(("C", "L1"))}


def test_two_generic_lines_single_node():
    a = Arrangement((L1, L2), {})
    pts = singular_points(a)
    assert len(pts) == 1
    assert pts[0].local_type.kind == "node"


def test_single_line_no_singular_points():
    assert singular_points(Arrangement((L1,), {})) == ()


def test_node_counts_on_examples():
    # 10 complex nodes in every example arrangement (a conjugate pair is two records)
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        pts = singular_points(load(name))
        nodes = [p for p in pts if p.local_type.kind == "node"]
        assert len(nodes) == 10


def test_conjugate_points_never_merge():
    # a conjugate-pair record always has exactly the line and the conic,
    # and the pair is two equal records, one per point
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        pts = singular_points(load(name))
        for pt in pts:
            if not pt.is_rational:
                assert len(pt.branches) == 2
                assert pts.count(pt) == 2
                assert pt.local_type.kind == "node"


def test_intersections_match_sympy_oracle():
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        a = load(name)
        conic = a.conic
        for line in a.lines:
            points, irrational = sympy_line_conic_points(line, conic)
            out = intersect_line_conic(line, conic)
            if irrational:
                assert isinstance(out, ConjugatePair)
            else:
                rational = [ProjPoint(*cleared(Fraction(str(c)) for c in p)) for p in points]
                want = sorted(rational)
                mult = 2 if len(want) == 1 else 1  # a tangency is one double point
                assert out == tuple((p, mult) for p in want)


def test_bezout_on_examples():
    # in the last one, each line meets the conic only in a conjugate pair,
    # whose two records give the line-conic sum 2
    names = ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2")
    for a in [*map(load, names), parse(TWO_CONJUGATE_PAIRS)]:
        assert bezout_check(combinatorics(a))
        table = bezout_table(singular_points(a))
        for c1, c2 in itertools.combinations(a.components, 2):
            key = tuple(sorted((c1.label, c2.label)))
            assert table[key] == c1.degree * c2.degree


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bezout_on_random_arrangements(seed):
    a = random_arrangement(random.Random(seed))
    assert bezout_check(combinatorics(a))


def test_combinatorics_within_pairs_equal():
    for first, second in (("pair1_B1", "pair1_B2"), ("pair2_B1", "pair2_B2")):
        eqs = equivalences(combinatorics(load(first)), combinatorics(load(second)))
        assert eqs, f"{first} and {second} should share their combinatorics"


def test_combinatorics_across_pairs_distinct():
    eqs = equivalences(
        combinatorics(load("pair1_B1")), combinatorics(load("pair2_B1"))
    )
    assert not eqs and every_equivalence(eqs) == []


def test_equivalences_contain_identity(pair1_b1):
    c = combinatorics(pair1_b1)
    eqs = equivalences(c, c)
    assert {l: l for l in c.labels} in every_equivalence(eqs)


def test_equivalences_symmetric(pair1_b1, pair1_b2):
    c1, c2 = combinatorics(pair1_b1), combinatorics(pair1_b2)
    forward = equivalences(c1, c2)
    backward = equivalences(c2, c1)
    assert len(forward) == len(backward)
    inverses = [{v: k for k, v in m.items()} for m in every_equivalence(forward)]
    listed = every_equivalence(backward)
    for inv in inverses:
        assert inv in listed


def test_pair1_rigidity_of_triangle(pair1_b1, pair1_b2):
    eqs = equivalences(combinatorics(pair1_b1), combinatorics(pair1_b2))
    assert eqs
    for m in every_equivalence(eqs):
        assert {m[l] for l in ("L1", "L2", "L3")} == {"L1", "L2", "L3"}
        assert m["L3"] == "L3"
        assert m["C"] == "C"


def test_pair2_rigidity_of_conic_plus_line(pair2_b1, pair2_b2):
    eqs = equivalences(combinatorics(pair2_b1), combinatorics(pair2_b2))
    assert eqs
    for m in every_equivalence(eqs):
        assert {m[l] for l in ("C", "L1")} == {"C", "L1"}


def test_conic_fingerprints_distinguish_pairs(pair1_b1, pair2_b1):
    def triple_count(fp):
        _, entries = fp
        return sum(1 for t, _ in entries if t.kind == "ordinary" and t.branch_count == 3)

    def tacnode_count(fp):
        _, entries = fp
        return sum(1 for t, _ in entries if t.kind == "tacnode")

    fp1 = combinatorics(pair1_b1).fingerprints["C"]
    fp2 = combinatorics(pair2_b1).fingerprints["C"]
    assert triple_count(fp1) == 2 and tacnode_count(fp1) == 2
    assert triple_count(fp2) == 4 and tacnode_count(fp2) == 2


def test_fingerprint_of_generic_line():
    c = combinatorics(Arrangement((L1, L2), {}))
    degree, entries = c.fingerprints["L1"]
    assert degree == 1
    assert len(entries) == 1
    assert entries[0][0].kind == "node"


def test_fingerprint_unknown_label(pair1_b1):
    with pytest.raises(KeyError):
        combinatorics(pair1_b1).fingerprints["L99"]


def test_single_line_combinatorics_empty():
    c = combinatorics(Arrangement((L1,), {}))
    assert c.points == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combinatorics_invariant_under_projective_transform(seed):
    rng = random.Random(seed)
    a = random_arrangement(rng, max_lines=4)
    m = random_invertible_matrix(rng)
    transformed = transform_arrangement(a, m)
    c1, c2 = combinatorics(a), combinatorics(transformed)
    identity = {l: l for l in c1.labels}
    assert identity in every_equivalence(equivalences(c1, c2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["itself", "image", "other"]))
def test_equivalences_match_every_bijection(seed, partner):
    rng = random.Random(seed)
    a = symmetric_arrangement(rng) if rng.random() < 0.5 else random_arrangement(rng, max_lines=6)
    if partner == "itself":
        b = a
    elif partner == "image":
        b = relabelled_image(a, rng)
    else:
        b = random_arrangement(rng, max_lines=6)
    c1, c2 = combinatorics(a), combinatorics(b)
    expected = every_bijection(c1, c2)
    assert every_equivalence(equivalences(c1, c2)) == expected
    if expected:
        assert equivalences(c1, c2, find_all=False).phi in expected
    else:
        assert not equivalences(c1, c2, find_all=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["itself", "image"]))
def test_rigidity_from_generators_matches_every_bijection(seed, partner):
    # `map_onto` reads φ and the generators; the reference tries every bijection
    rng = random.Random(seed)
    a = symmetric_arrangement(rng)
    b = a if partner == "itself" else relabelled_image(a, rng)
    c1, c2 = combinatorics(a), combinatorics(b)
    if rng.random() < 0.5:
        # a union of fingerprint classes, often fixed by every automorphism
        prints = sorted(set(c1.fingerprints.values()))
        chosen = rng.sample(prints, rng.randint(1, len(prints)))
        subset = [l for l in c1.labels if c1.fingerprints[l] in chosen]
    else:
        subset = rng.sample(c1.labels, rng.randint(1, len(c1.labels)))
    everything = every_bijection(c1, c2)
    if rng.random() < 0.8:
        image = {rng.choice(everything)[l] for l in subset}
    else:
        image = set(rng.sample(c2.labels, len(subset)))
    expected = all({m[l] for l in subset} == image for m in everything)
    assert equivalences(c1, c2).map_onto(subset, image) == expected


def leaf_checks(monkeypatch) -> list:
    """Records one entry per full record-multiset check of `equivalences`."""
    calls = []
    original = incidence._record_multiset

    def counting(c, mapping):
        calls.append(None)
        return original(c, mapping)

    monkeypatch.setattr(incidence, "_record_multiset", counting)
    return calls


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_generic_lines_check_one_leaf_per_transversal_element(monkeypatch, n):
    # φ, then n - 1 - i further images at level i: 1 + n(n-1)/2 leaves, not n!
    c = combinatorics(parse(generic_lines(n)))
    calls = leaf_checks(monkeypatch)
    eqs = equivalences(c, c)
    assert len(calls) == 1 + n * (n - 1) // 2
    assert len({tuple(m.values()) for m in every_equivalence(eqs)}) == len(eqs) == math.factorial(n)


@pytest.mark.parametrize("name, checks", [("pair1", 6), ("pair2", 3)])
def test_bundled_pairs_leaf_checks(monkeypatch, name, checks):
    c1, c2 = combinatorics(load(f"{name}_B1")), combinatorics(load(f"{name}_B2"))
    calls = leaf_checks(monkeypatch)
    eqs = equivalences(c1, c2)
    assert len(calls) == checks
    assert len(eqs) == 4


def test_tangency_plus_extra_branch_is_other():
    # a line through the tangency point of L1 and the conic
    extra = Component("M", HomPoly(1, [1, 1, -1]))  # passes [0:1:1]? 0+1-1=0 yes
    a = Arrangement((CONIC, L1, extra), {})
    types = {pt.branches: pt.local_type for pt in singular_points(a)}
    key = frozenset(("C", "L1", "M"))
    assert key in types
    assert types[key].kind == "other"
    assert types[key].signature == (1, 1, 2)


def test_singular_point_restrict():
    extra = Component("M", HomPoly(1, [1, 1, -1]))
    a = Arrangement((CONIC, L1, extra), {})
    (pt,) = [p for p in singular_points(a) if len(p.branches) == 3]
    tac = pt.restrict(frozenset(("C", "L1")))
    tacnode = classify(2, (2,))
    assert tac == SingularPoint(pt.location, frozenset(("C", "L1")), ((("C", "L1"), 2),), tacnode)
    assert pt.restrict(frozenset(("L1", "M"))).local_type.kind == "node"
    assert pt.restrict(frozenset(("C", "L2"))) is None
    assert pt.restrict(pt.branches) == pt


def _check_restriction(a: Arrangement, points, c, subset) -> None:
    """Restricting the whole arrangement's incidence equals recomputing it."""
    keep = frozenset(subset)
    sub = sub_arrangement(a, subset)
    assert c.restrict(subset) == combinatorics(sub)
    restricted = [r for r in (pt.restrict(keep) for pt in points) if r is not None]
    expected = singular_points(sub)
    assert len(restricted) == len(expected)
    for got, want in zip(restricted, expected):
        assert got == want


def test_restriction_matches_recomputation_on_bundled_files():
    checked = 0
    for name in PAIR_FILES:
        a = load(name)
        points, c = singular_points(a), combinatorics(a)
        for r in range(1, len(component_labels(a))):
            for subset in itertools.combinations(component_labels(a), r):
                _check_restriction(a, points, c, subset)
                checked += 1
    assert checked == 4 * 254


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restriction_matches_recomputation_on_random_arrangements(seed):
    a = random_arrangement(random.Random(seed), max_lines=6)
    points, c = singular_points(a), combinatorics(a)
    for r in range(len(component_labels(a)) + 1):
        for subset in itertools.combinations(component_labels(a), r):
            _check_restriction(a, points, c, subset)


def arrangements():
    """Bundled files, symmetric and random arrangements, and grid sub-curves."""
    seeds = st.integers(0, 2**32 - 1)
    grid = parse(GRID)
    return st.one_of(
        st.sampled_from(sorted(PAIR_FILES)).map(load),
        seeds.map(lambda seed: symmetric_arrangement(random.Random(seed))),
        seeds.map(lambda seed: random_arrangement(random.Random(seed), max_lines=6)),
        st.sets(st.sampled_from(component_labels(grid)), min_size=2).map(
            lambda labels: sub_arrangement(grid, labels)
        ),
    )


@settings(max_examples=150, deadline=None)
@given(arrangements())
def test_singular_points_match_the_pairwise_reference(a):
    assert singular_points(a) == reference_singular_points(a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoised_restriction_matches_recomputation(data):
    # several restrictions of one structure, so that later ones reuse the
    # memoised points of earlier ones
    a = data.draw(arrangements())
    full = combinatorics(a)
    labels = st.sets(st.sampled_from(component_labels(a)))
    subsets = data.draw(st.lists(labels, min_size=1, max_size=12))
    for subset in subsets:
        c = full.restrict(subset)
        assert c == combinatorics(sub_arrangement(a, subset))
        fresh = Combinatorics(c.degrees, c.points)
        facts = scratch_facts(fresh)
        assert (fresh.fingerprints, fresh.pair_profiles, fresh.record_keys) == facts
        assert (c.fingerprints, c.pair_profiles, c.record_keys) == facts


def test_restriction_builds_each_point_once():
    # a triple point restricted to each of its three pairs of branches,
    # however many sub-curves keep that pair
    c = combinatorics(load("pair1_B1"))
    restricted = [c.restrict(s) for s in itertools.combinations(c.labels, 5)]
    partial = {
        id(rec)
        for sub in restricted
        for rec in sub.points
        if not any(rec is pt for pt in c.points)
    }
    assert len(partial) == 7 * 3
