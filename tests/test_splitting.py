"""Splitting hypotheses, linear systems, connected numbers, certificates."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.arrangement import Arrangement, Component, HypothesisError, parse
from coniclines import linalg, splitting
from coniclines.linalg import QMatrix
from coniclines.poly import HomPoly, ProjPoint, divides, monomial_count
from coniclines.splitting import (
    INVARIANCE_AXIOM,
    analyze_split,
    certificate_report,
    check_hypotheses,
    through_points,
    zariski_certificate,
)

from coniclines.incidence import ConjugatePair, combinatorics, singular_points

from .conftest import (
    PAIR_FILES,
    TWO_CONJUGATE_PAIRS,
    from_sympy,
    in_span,
    load,
    multiplication_image,
    random_invertible_matrix,
    rank,
    record_calls,
    relabelled_image,
    stacked_rank_split,
    tangent_split,
    transform_arrangement,
    value_at,
)
from .oracles import sympy_divides, to_sympy

PAIR1_B1_POINTS = {
    ProjPoint(0, -5, 1),
    ProjPoint(0, 10, 3),
    ProjPoint(-5, 0, 1),
    ProjPoint(10, 0, 3),
    ProjPoint(1, -1, 0),
    ProjPoint(1, 4, 1),
    ProjPoint(4, 1, 1),
    ProjPoint(0, 1, 1),
    ProjPoint(1, 0, 1),
}


def split_of(a):
    return a, a.subcurve("B"), a.subcurve("CC")


def connected_numbers(cert):
    return tuple(an.connected for an in cert.analyses)


def test_pair1_hypotheses_pass(pair1_b1):
    a, b, c = split_of(pair1_b1)
    report = check_hypotheses(combinatorics(a), b, c)
    assert report.ok
    assert report.violations == ()
    assert len(report.intersection_points) == 9
    assert set(report.intersection_points) == PAIR1_B1_POINTS


@pytest.mark.parametrize("name", ["pair1_B2", "pair2_B1", "pair2_B2"])
def test_other_examples_hypotheses_pass(name):
    a, b, c = split_of(load(name))
    report = check_hypotheses(combinatorics(a), b, c)
    assert report.ok
    assert len(report.intersection_points) == 9


def test_odd_degree_branch_rejected(pair1_b1):
    b = ("L1",)
    c = ("C", "L2", "L3", "L4", "L5", "L6", "L7")
    report = check_hypotheses(combinatorics(pair1_b1), b, c)
    assert "deg B = 1 is odd" in report.violations
    assert any("odd" in v for v in report.violations)


def test_violation_names_a_triple_point_with_an(pair1_b1):
    b = ("L1",)
    c = ("C", "L2", "L3", "L4", "L5", "L6", "L7")
    report = check_hypotheses(combinatorics(pair1_b1), b, c)
    triple = [v for v in report.violations if "triple" in v]
    assert triple and all(v.startswith("C has an ordinary triple point at [") for v in triple)
    assert not any(" a o" in v for v in report.violations)


def test_non_nodal_c_rejected(pair1_b1):
    # putting the tangent line L1 with the conic makes C carry a tacnode
    c = ("C", "L1")
    b = ("L2", "L3", "L4", "L5", "L6", "L7")
    report = check_hypotheses(combinatorics(pair1_b1), b, c)
    assert "C has a tacnode at [0 : 1 : 1]" in report.violations
    assert any("tacnode" in v for v in report.violations)


def test_b_through_node_of_c_rejected():
    # L3 passes through the node of L1 and L2 at [0:0:1]... use concurrent lines
    text = """
line L1 : 1 0 0
line L2 : 0 1 0
line L3 : 1 1 0
line L4 : 1 2 0
"""
    a = parse(text)
    # L1..L3 all pass through [0:0:1]; C = {L1, L2} has its node there
    b = ("L3", "L4")
    c = ("L1", "L2")
    report = check_hypotheses(combinatorics(a), b, c)
    assert any("passes through a singular point of C" in v for v in report.violations)


def test_conjugate_intersection_across_split_rejected():
    # each pair is two point records but one violation
    a = parse(TWO_CONJUGATE_PAIRS)
    b = ("L1", "L2")  # even degree
    c = ("Q",)
    report = check_hypotheses(combinatorics(a), b, c)
    assert report.violations == (
        "B meets C at the irrational conjugate pair of L1 and Q; rational support is required",
        "B meets C at the irrational conjugate pair of L2 and Q; rational support is required",
    )


def test_split_must_partition(pair1_b1):
    b = ("C", "L4")
    c = ("L1", "L2", "L3")
    missing = r"do not cover the arrangement: missing \['L5', 'L6', 'L7'\]"
    with pytest.raises(ValueError, match=missing):
        check_hypotheses(combinatorics(pair1_b1), b, c)
    overlapping = ("C", "L1", "L4", "L5", "L6", "L7")
    c2 = ("L1", "L2", "L3")
    with pytest.raises(ValueError, match=r"share components: \['L1'\]"):
        check_hypotheses(combinatorics(pair1_b1), overlapping, c2)


B1, CC1 = ("C", "L4", "L5", "L6", "L7"), ("L1", "L2", "L3")


@pytest.mark.parametrize(
    "b, c, message",
    [
        (B1 + ("X",), CC1, "unknown label X in sub-curve B"),
        (B1, ("L1", "L2", "L3", "L2"), "sub-curve C repeats label L2"),
        ((), B1 + CC1, "sub-curve B is empty"),
        (B1 + CC1, (), "sub-curve C is empty"),
    ],
)
def test_split_labels_are_checked(pair1_b1, b, c, message):
    # label tuples reach check_hypotheses unchecked: each fault is one input error
    with pytest.raises(ValueError) as exc:
        check_hypotheses(combinatorics(pair1_b1), b, c)
    assert str(exc.value) == message
    assert not isinstance(exc.value, HypothesisError)
    with pytest.raises(ValueError, match=message):
        analyze_split(pair1_b1, b, c)


def test_evaluation_matrix_ranks():
    from coniclines.poly import monomial_row

    expected = {"pair1_B1": 8, "pair1_B2": 9}
    for name, r in expected.items():
        a, b, c = split_of(load(name))
        report = check_hypotheses(combinatorics(a), b, c)
        m = QMatrix.from_rows(
            [monomial_row(3, p) for p in report.intersection_points], cols=10
        )
        assert (m.rows, m.cols) == (9, 10)
        assert rank(m) == r


def test_through_points_projective_dimensions():
    expected = {
        "pair1_B1": 1,
        "pair1_B2": 0,
        "pair2_B1": 0,
        "pair2_B2": 1,
    }
    for name, dim in expected.items():
        a = load(name)
        _, b, c = split_of(a)
        report = check_hypotheses(combinatorics(a), b, c)
        kernel = through_points(3, report.intersection_points)
        assert len(kernel) - 1 == dim, name


def test_kernel_contains_c_part_polynomial():
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        a = load(name)
        _, b, c = split_of(a)
        report = check_hypotheses(combinatorics(a), b, c)
        kernel = through_points(3, report.intersection_points)
        product = sp.Mul(*(to_sympy(comp.form) for comp in map(a.component, c)))
        vec = from_sympy(product, a.degree_of(c)).primitive().coeffs
        assert in_span(vec, kernel, monomial_count(3))


def test_kernel_vectors_vanish_at_all_points():
    for name in ("pair1_B1", "pair2_B2"):
        a = load(name)
        _, b, c = split_of(a)
        report = check_hypotheses(combinatorics(a), b, c)
        kernel = through_points(3, report.intersection_points)
        for f in (HomPoly(3, v) for v in kernel):
            for p in report.intersection_points:
                assert value_at(f, p.coords) == 0


def test_through_points_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        through_points(2, [ProjPoint(1, 0, 0), ProjPoint(2, 0, 0)])


def test_through_points_rejects_degree_zero():
    with pytest.raises(ValueError):
        through_points(0, [ProjPoint(1, 0, 0)])


def test_connected_numbers_of_both_pairs():
    values = {
        "pair1_B1": 2,
        "pair1_B2": 1,
        "pair2_B1": 1,
        "pair2_B2": 2,
    }
    for name, expected in values.items():
        a, b, c = split_of(load(name))
        analysis = analyze_split(a, b, c)
        assert analysis.connected == expected, name
        # every system is nonempty, so each value 1 comes from a component
        # of C containing the whole kernel, not from an empty kernel
        assert analysis.kernel, name
        assert (analysis.witness is not None) == (expected == 2), name


def test_witness_properties_pair1():
    a, b, c = split_of(load("pair1_B1"))
    analysis = analyze_split(a, b, c)
    witness = analysis.witness
    assert analysis.connected == 2
    assert witness is not None
    report = check_hypotheses(combinatorics(a), b, c)
    for p in report.intersection_points:
        assert value_at(witness, p.coords) == 0
    for comp in map(a.component, c):
        assert not sympy_divides(witness, comp.form)


def test_witness_properties_pair2():
    a, b, c = split_of(load("pair2_B2"))
    analysis = analyze_split(a, b, c)
    assert analysis.connected == 2
    for comp in map(a.component, c):
        assert not sympy_divides(analysis.witness, comp.form)


def test_divisibility_dual_oracle():
    # division, span-membership and rank verdicts == sympy's exact polynomial division, on K's basis
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        a = load(name)
        _, b, c = split_of(a)
        report = check_hypotheses(combinatorics(a), b, c)
        K = through_points(3, report.intersection_points)
        for comp in map(a.component, c):
            if comp.degree > 3:
                continue
            img = multiplication_image(comp.form, 3)
            expected = [sympy_divides(HomPoly(3, v), comp.form) for v in K]
            assert [divides(comp.form, v, 3) for v in K] == expected
            assert [in_span(v, img, monomial_count(3)) for v in K] == expected
            stacked = QMatrix.from_rows(img + K, cols=monomial_count(3))
            assert (rank(stacked) == len(img)) == all(expected)


@pytest.mark.parametrize("m", range(2, 8))
def test_division_agrees_with_stacked_ranks_on_tangent_splits(m):
    # a conic with 2m tangent lines under random projective maps, as in the split benchmark
    rng = random.Random(2000 + m)
    for _ in range(2):
        a = tangent_split(rng, m)
        _, b, c = split_of(a)
        analysis = analyze_split(a, b, c)
        assert len(analysis.kernel) == (m + 1) * (m + 2) // 2 - 2 * m
        assert (analysis.connected, analysis.witness) == stacked_rank_split(a, b, c)
        assert analysis.connected == 2


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_one_elimination_per_split(name, monkeypatch):
    # the kernel is the only elimination: divisibility and the witness search divide
    calls = []
    echelon = linalg._ff_echelon

    def counting(m):
        calls.append((m.rows, m.cols))
        return echelon(m)

    monkeypatch.setattr(linalg, "_ff_echelon", counting)
    analysis = analyze_split(*split_of(load(name)))
    assert calls == [(9, 10)]
    assert analysis.kernel


class ZeroRandom:
    """A stand-in for `random.Random` whose every draw is 0, counting its draws."""

    draws = 0

    def __init__(self, seed):
        pass

    def randint(self, lo, hi):
        ZeroRandom.draws += 1
        return 0


@pytest.mark.parametrize("name", ["pair1_B1", "pair2_B2"])
def test_witness_falls_back_to_the_moment_curve(name, monkeypatch):
    # all 10,000 seeded draws give the zero curve, so the moment curve must find the witness
    monkeypatch.setattr(ZeroRandom, "draws", 0)
    monkeypatch.setattr(splitting.random, "Random", ZeroRandom)
    a, b, c = split_of(load(name))
    analysis = analyze_split(a, b, c)
    assert ZeroRandom.draws == 10_000 * len(analysis.kernel)
    assert analysis.connected == 2
    witness = analysis.witness
    for p in analysis.intersection_points:
        assert value_at(witness, p.coords) == 0
    for comp in map(a.component, c):
        assert not sympy_divides(witness, comp.form)
        assert not divides(comp.form, witness.coeffs, witness.degree)


def test_connected_number_requires_hypotheses(pair1_b1):
    b = ("L1",)
    c = ("C", "L2", "L3", "L4", "L5", "L6", "L7")
    with pytest.raises(HypothesisError):
        analyze_split(pair1_b1, b, c)


def test_synthetic_empty_system_gives_one():
    # conic with three tangent lines: the three tacnode points are not
    # collinear, so no line passes through all of them and c = 1
    text = """
conic Q : 1 1 -1 0 0 0
line T1 : 1 0 -1
line T2 : 0 1 -1
line T3 : 1 0 1
"""
    a = parse(text)
    b = ("Q",)
    c = ("T1", "T2", "T3")
    report = check_hypotheses(combinatorics(a), b, c)
    assert report.ok
    assert len(report.intersection_points) == 3
    assert through_points(1, report.intersection_points) == ()
    assert analyze_split(a, b, c).connected == 1


def test_synthetic_tangent_line_splits():
    # double cover branched along a conic: a single tangent line splits
    text = """
conic Q : 1 1 -1 0 0 0
line T1 : 1 0 -1
"""
    a = parse(text)
    b = ("Q",)
    c = ("T1",)
    analysis = analyze_split(a, b, c)
    assert analysis.connected == 2
    assert not sympy_divides(analysis.witness, a.component(c[0]).form)


def test_connected_number_invariant_under_relabeling(pair1_b1):
    renamed = {"C": "Q", "L1": "M1", "L2": "M2", "L3": "M3",
               "L4": "M4", "L5": "M5", "L6": "M6", "L7": "M7"}
    comps = tuple(
        Component(renamed[c.label], c.kind, c.form) for c in pair1_b1.components
    )
    sub = {
        name: tuple(renamed[l] for l in labels)
        for name, labels in pair1_b1.subcurves.items()
    }
    relabeled = Arrangement(comps, sub)
    assert (
        analyze_split(*split_of(relabeled)).connected
        == analyze_split(*split_of(pair1_b1)).connected
    )


def test_connected_number_invariant_under_projective_transform():
    rng = random.Random(99)
    for name in ("pair1_B1", "pair2_B2"):
        a = load(name)
        base = analyze_split(*split_of(a)).connected
        for _ in range(3):
            m = random_invertible_matrix(rng)
            moved = transform_arrangement(a, m)
            assert analyze_split(*split_of(moved)).connected == base


def test_zariski_certificate_pair1(pair1_b1, pair1_b2):
    cert = zariski_certificate(pair1_b1, pair1_b2, ("B", "CC"), ("B", "CC"))
    assert cert.conclusion == "CandidatePair"
    assert cert.equivalence_count > 0 and cert.split_rigid
    assert connected_numbers(cert) == (2, 1)
    assert "invariance" in INVARIANCE_AXIOM
    assert certificate_report(cert).endswith(f"  axioms used:\n    - {INVARIANCE_AXIOM}\n")


def test_zariski_certificate_pair2(pair2_b1, pair2_b2):
    cert = zariski_certificate(pair2_b1, pair2_b2, ("B", "CC"), ("B", "CC"))
    assert cert.conclusion == "CandidatePair"
    assert connected_numbers(cert) == (1, 2)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["pair1", "pair2"]), st.integers(0, 2**32 - 1))
def test_zariski_certificate_invariant_under_projective_relabelling(pair, seed):
    rng = random.Random(seed)
    a1, a2 = load(f"{pair}_B1"), load(f"{pair}_B2")
    split = ("B", "CC")
    base = zariski_certificate(a1, a2, split, split)
    moved = zariski_certificate(relabelled_image(a1, rng), relabelled_image(a2, rng), split, split)
    assert moved.conclusion == base.conclusion == "CandidatePair"
    assert connected_numbers(moved) == connected_numbers(base)
    assert moved.equivalence_count == base.equivalence_count


def test_zariski_certificate_finds_singular_points_once_per_arrangement(
    pair2_b1, pair2_b2, monkeypatch
):
    calls = record_calls(monkeypatch, singular_points)
    zariski_certificate(pair2_b1, pair2_b2, ("B", "CC"), ("B", "CC"))
    assert [a for (a,) in calls["singular_points"]] == [pair2_b1, pair2_b2]


def test_zariski_certificate_self_is_inconclusive(pair1_b1):
    cert = zariski_certificate(pair1_b1, pair1_b1, ("B", "CC"), ("B", "CC"))
    assert cert.conclusion == "Inconclusive"
    assert connected_numbers(cert) == (2, 2)
    assert any("agree" in r for r in cert.reasons)


def test_certificate_report_is_stable(pair1_b1, pair1_b2):
    cert = zariski_certificate(pair1_b1, pair1_b2, ("B", "CC"), ("B", "CC"))
    text1 = certificate_report(cert, "a", "b")
    text2 = certificate_report(
        zariski_certificate(pair1_b1, pair1_b2, ("B", "CC"), ("B", "CC")), "a", "b"
    )
    assert text1 == text2
    assert "conclusion: CandidatePair" in text1


def test_analyze_split_bundle(pair2_b2):
    analysis = analyze_split(*split_of(pair2_b2))
    assert analysis.connected == 2
    assert analysis.b_degree == 6 and analysis.c_degree == 3
    assert len(analysis.kernel) - 1 == 1
    assert analysis.witness is not None


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_bundled_pipeline_is_integer_valued(name):
    """Forms, points, kernel vectors, witnesses and discriminants are all ints."""
    a = load(name)
    values = [v for comp in a.components for v in comp.form.coeffs]
    conjugates = 0
    for pt in singular_points(a):
        if isinstance(pt.location, ConjugatePair):
            values.append(pt.location.discriminant)
            conjugates += 1
        else:
            values.extend(pt.location.coords)
    analysis = analyze_split(*split_of(a))
    values.extend(v for p in analysis.intersection_points for v in p.coords)
    values.extend(v for vec in analysis.kernel for v in vec)
    if analysis.witness is not None:
        values.extend(analysis.witness.coeffs)
    assert conjugates > 0 and analysis.kernel
    assert {type(v) for v in values} == {int}
