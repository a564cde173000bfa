"""Splitting hypotheses, linear systems, connected numbers, certificates."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.arrangement import Arrangement, Component, SubCurve, parse
from coniclines.linalg import QMatrix, in_span, rank
from coniclines.poly import HomPoly, ProjPoint, multiplication_image
from coniclines.splitting import (
    SplitHypothesisError,
    analyze_split,
    certificate_report,
    check_hypotheses,
    through_points,
    zariski_certificate,
)

from coniclines.incidence import ConjugatePair, singular_points

from .conftest import (
    PAIR_FILES,
    from_sympy,
    load,
    random_invertible_matrix,
    relabelled_image,
    transform_arrangement,
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
    return a.subcurve("B"), a.subcurve("CC")


def test_pair1_hypotheses_pass(pair1_b1):
    b, c = split_of(pair1_b1)
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert report.ok
    assert report.violations == ()
    assert len(report.intersection_points) == 9
    assert set(report.intersection_points) == PAIR1_B1_POINTS


@pytest.mark.parametrize("name", ["pair1_B2", "pair2_B1", "pair2_B2"])
def test_other_examples_hypotheses_pass(name):
    b, c = split_of(load(name))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert report.ok
    assert len(report.intersection_points) == 9


def test_odd_degree_branch_rejected(pair1_b1):
    b = SubCurve(pair1_b1, ("L1",))
    c = SubCurve(pair1_b1, ("C", "L2", "L3", "L4", "L5", "L6", "L7"))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert not report.b_even_degree
    assert any("odd" in v for v in report.violations)


def test_non_nodal_c_rejected(pair1_b1):
    # putting the tangent line L1 with the conic makes C carry a tacnode
    c = SubCurve(pair1_b1, ("C", "L1"))
    b = SubCurve(pair1_b1, ("L2", "L3", "L4", "L5", "L6", "L7"))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert not report.c_nodal_smooth
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
    b = SubCurve(a, ("L3", "L4"))
    c = SubCurve(a, ("L1", "L2"))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert not report.bc_disjoint_from_nodes_of_c


def test_conjugate_intersection_across_split_rejected():
    text = """
conic Q : 1 1 -1 0 0 0
line L1 : 0 1 -2
line L2 : 0 1 -3
"""
    a = parse(text)
    b = SubCurve(a, ("L1", "L2"))  # even degree
    c = SubCurve(a, ("Q",))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert not report.all_local_mults_two
    assert any("conjugate" in v for v in report.violations)


def test_split_must_partition(pair1_b1):
    b = SubCurve(pair1_b1, ("C", "L4"))
    c = SubCurve(pair1_b1, ("L1", "L2", "L3"))
    with pytest.raises(ValueError, match="cover"):
        check_hypotheses(b, c, singular_points(b.arrangement))
    overlapping = SubCurve(pair1_b1, ("C", "L1", "L4", "L5", "L6", "L7"))
    c2 = SubCurve(pair1_b1, ("L1", "L2", "L3"))
    with pytest.raises(ValueError, match="share"):
        check_hypotheses(overlapping, c2, singular_points(pair1_b1))


def test_evaluation_matrix_ranks():
    from coniclines.linalg import QMatrix, rank
    from coniclines.poly import monomial_row

    expected = {"pair1_B1": 8, "pair1_B2": 9}
    for name, r in expected.items():
        b, c = split_of(load(name))
        report = check_hypotheses(b, c, singular_points(b.arrangement))
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
        b, c = split_of(a)
        report = check_hypotheses(b, c, singular_points(b.arrangement))
        system = through_points(3, report.intersection_points)
        assert system.projective_dimension == dim, name


def test_kernel_contains_c_part_polynomial():
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        a = load(name)
        b, c = split_of(a)
        report = check_hypotheses(b, c, singular_points(b.arrangement))
        system = through_points(3, report.intersection_points)
        product = sp.Mul(*(to_sympy(comp.form) for comp in c.components))
        vec = from_sympy(product, c.degree).primitive().coeffs
        assert in_span(vec, system.kernel)


def test_kernel_vectors_vanish_at_all_points():
    for name in ("pair1_B1", "pair2_B2"):
        a = load(name)
        b, c = split_of(a)
        report = check_hypotheses(b, c, singular_points(b.arrangement))
        system = through_points(3, report.intersection_points)
        for f in (HomPoly(system.degree, v) for v in system.kernel.vectors):
            for p in report.intersection_points:
                assert f.evaluate_triple(p.coords) == 0


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
        b, c = split_of(load(name))
        analysis = analyze_split(b, c)
        assert analysis.connected == expected, name
        # every system is nonempty, so each value 1 comes from a component
        # of C containing the whole kernel, not from an empty kernel
        assert analysis.system.kernel.dim > 0, name
        assert (analysis.witness is not None) == (expected == 2), name


def test_witness_properties_pair1():
    b, c = split_of(load("pair1_B1"))
    analysis = analyze_split(b, c)
    witness = analysis.witness
    assert analysis.connected == 2
    assert witness is not None
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    for p in report.intersection_points:
        assert witness.evaluate_triple(p.coords) == 0
    for comp in c.components:
        assert not sympy_divides(witness, comp.form)


def test_witness_properties_pair2():
    b, c = split_of(load("pair2_B2"))
    analysis = analyze_split(b, c)
    assert analysis.connected == 2
    for comp in c.components:
        assert not sympy_divides(analysis.witness, comp.form)


def test_divisibility_dual_oracle():
    # span-membership and rank verdicts == sympy's exact polynomial division, on K's basis
    for name in ("pair1_B1", "pair1_B2", "pair2_B1", "pair2_B2"):
        a = load(name)
        b, c = split_of(a)
        report = check_hypotheses(b, c, singular_points(b.arrangement))
        system = through_points(3, report.intersection_points)
        K = system.kernel
        for comp in c.components:
            if comp.degree > 3:
                continue
            img = multiplication_image(comp.form, 3)
            divides = [sympy_divides(HomPoly(3, v), comp.form) for v in K.vectors]
            assert [in_span(v, img) for v in K.vectors] == divides
            stacked = QMatrix.from_rows(img.vectors + K.vectors, cols=img.ambient_dim)
            assert (rank(stacked) == img.dim) == all(divides)


def test_connected_number_requires_hypotheses(pair1_b1):
    b = SubCurve(pair1_b1, ("L1",))
    c = SubCurve(pair1_b1, ("C", "L2", "L3", "L4", "L5", "L6", "L7"))
    with pytest.raises(SplitHypothesisError):
        analyze_split(b, c)


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
    b = SubCurve(a, ("Q",))
    c = SubCurve(a, ("T1", "T2", "T3"))
    report = check_hypotheses(b, c, singular_points(b.arrangement))
    assert report.ok
    assert len(report.intersection_points) == 3
    system = through_points(1, report.intersection_points)
    assert system.kernel.dim == 0
    assert analyze_split(b, c).connected == 1


def test_synthetic_tangent_line_splits():
    # double cover branched along a conic: a single tangent line splits
    text = """
conic Q : 1 1 -1 0 0 0
line T1 : 1 0 -1
"""
    a = parse(text)
    b = SubCurve(a, ("Q",))
    c = SubCurve(a, ("T1",))
    analysis = analyze_split(b, c)
    assert analysis.connected == 2
    assert not sympy_divides(analysis.witness, c.components[0].form)


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
    assert cert.equivalences_found and cert.split_rigid
    assert cert.c_values == (2, 1)
    assert any("invariance" in ax for ax in cert.axioms_used)


def test_zariski_certificate_pair2(pair2_b1, pair2_b2):
    cert = zariski_certificate(pair2_b1, pair2_b2, ("B", "CC"), ("B", "CC"))
    assert cert.conclusion == "CandidatePair"
    assert cert.c_values == (1, 2)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["pair1", "pair2"]), st.integers(0, 2**32 - 1))
def test_zariski_certificate_invariant_under_projective_relabelling(pair, seed):
    rng = random.Random(seed)
    a1, a2 = load(f"{pair}_B1"), load(f"{pair}_B2")
    split = ("B", "CC")
    base = zariski_certificate(a1, a2, split, split)
    moved = zariski_certificate(relabelled_image(a1, rng), relabelled_image(a2, rng), split, split)
    assert moved.conclusion == base.conclusion == "CandidatePair"
    assert moved.c_values == base.c_values
    assert moved.equivalence_count == base.equivalence_count


def test_zariski_certificate_finds_singular_points_once_per_arrangement(
    pair2_b1, pair2_b2, monkeypatch
):
    from coniclines import incidence, splitting

    calls = []

    def counting(a):
        calls.append(a)
        return singular_points(a)

    monkeypatch.setattr(incidence, "singular_points", counting)
    monkeypatch.setattr(splitting, "singular_points", counting)
    zariski_certificate(pair2_b1, pair2_b2, ("B", "CC"), ("B", "CC"))
    assert calls == [pair2_b1, pair2_b2]


def test_zariski_certificate_self_is_inconclusive(pair1_b1):
    cert = zariski_certificate(pair1_b1, pair1_b1, ("B", "CC"), ("B", "CC"))
    assert cert.conclusion == "Inconclusive"
    assert cert.c_values == (2, 2)
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
    assert analysis.system.projective_dimension == 1
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
    values.extend(v for p in analysis.report.intersection_points for v in p.coords)
    values.extend(v for vec in analysis.system.kernel.vectors for v in vec)
    if analysis.witness is not None:
        values.extend(analysis.witness.coeffs)
    assert conjugates > 0 and analysis.system.kernel.dim > 0
    assert {type(v) for v in values} == {int}
