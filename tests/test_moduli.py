"""Connectivity certificates: n-values, ordering search, minimality driver."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.arrangement import Arrangement, Component, parse
from coniclines import moduli
from coniclines.incidence import Combinatorics, Equivalences, combinatorics
from coniclines.moduli import (
    AXIOM_LINES,
    connectivity_certificate,
    minimality_check,
    minimality_report_text,
    n_value,
    replay_certificate,
)

from .conftest import (
    every_subset_classes,
    generic_lines,
    load,
    random_arrangement,
    random_invertible_matrix,
    relabelled_image,
    sub_arrangement,
    symmetric_arrangement,
    transform_arrangement,
)


def comb_of(text: str):
    return combinatorics(parse(text))


def test_n_value_transverse_only():
    # L3 meets two prior lines in two distinct points: every point simple
    c = comb_of("line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 -5\n")
    assert n_value(c, "L3", {"L1", "L2"}) == 0


def test_n_value_through_prior_intersection():
    # L3 passes through the intersection of L1 and L2 at [0:0:1]
    c = comb_of("line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 0\n")
    assert n_value(c, "L3", {"L1", "L2"}) == 1


def test_n_value_counts_conic_tangency():
    c = comb_of("conic C : 1 1 1 -2 -2 -2\nline L1 : 1 0 0\n")
    assert n_value(c, "L1", {"C"}) == 1


def test_n_value_conjugate_nodes_do_not_count():
    # the line meets the conic in two conjugate nodes, each simple
    c = comb_of("conic Q : 1 1 -1 0 0 0\nline L1 : 0 1 -2\n")
    assert n_value(c, "L1", {"Q"}) == 0


def test_n_value_unknown_labels(pair1_b1):
    c = combinatorics(pair1_b1)
    with pytest.raises(KeyError):
        n_value(c, "L99", {"L1"})
    with pytest.raises(KeyError):
        n_value(c, "L1", {"L99"})
    with pytest.raises(ValueError):
        n_value(c, "L1", {"L1"})


def test_certificate_conic_with_two_tangents_only():
    c = comb_of(
        "conic C : 1 1 1 -2 -2 -2\nline L1 : 1 0 0\nline L2 : 0 1 0\n"
    )
    cert = connectivity_certificate(c)
    assert cert is not None
    assert cert.base_rule == "ConicWithTangents"
    assert set(cert.base) == {"C", "L1", "L2"}
    assert cert.order == ()
    assert replay_certificate(c, cert)


def test_certificate_bare_conic():
    c = comb_of("conic C : 1 1 1 -2 -2 -2\n")
    cert = connectivity_certificate(c)
    assert cert is not None and cert.base == ("C",)


def test_certificate_pure_lines():
    a = load("pair1_B1")
    lines_only = sub_arrangement(a, [l for l in a.labels if l != "C"])
    cert = connectivity_certificate(combinatorics(lines_only))
    assert cert is not None
    assert cert.base_rule == "PureLinesAtMost9"
    assert len(cert.base) == 7
    assert replay_certificate(combinatorics(lines_only), cert)


def test_certificate_three_tangents_unknown():
    # three tangent lines to the circle: the base rule does not apply
    text = """
conic Q : 1 1 -1 0 0 0
line T1 : 1 0 -1
line T2 : 0 1 -1
line T3 : 1 0 1
"""
    assert connectivity_certificate(comb_of(text)) is None


def test_certificate_search_is_bounded(monkeypatch):
    # a conic with 12 transversal lines x=i, y=i, x+y=s, no ordering with
    # every n_t <= 2: without remembering dead states the search runs for
    # minutes; with them it visits each of the 2^12 prior sets at most once
    text = "conic C : 1 1 -1000 0 0 0\n"
    text += "".join(f"line X{i} : 1 0 {-i}\nline Y{i} : 0 1 {-i}\n" for i in range(1, 5))
    text += "".join(f"line S{s} : 1 1 {-s}\n" for s in range(2, 6))
    c = comb_of(text)
    rest = 12
    calls = 0

    def counting_n_value(*args):
        nonlocal calls
        calls += 1
        if calls > rest * 2**rest:
            raise AssertionError(f"more than {rest} * 2^{rest} n_value calls")
        return n_value(*args)

    monkeypatch.setattr(moduli, "n_value", counting_n_value)
    assert connectivity_certificate(c) is None


@pytest.mark.parametrize("name", ["pair1_B1", "pair2_B1"])
@pytest.mark.parametrize("drop", ["L1", "L4", "L7"])
def test_certificates_for_single_line_deletions(name, drop):
    a = load(name)
    sub = sub_arrangement(a, [l for l in a.labels if l != drop])
    c = combinatorics(sub)
    cert = connectivity_certificate(c)
    assert cert is not None
    assert all(n <= 2 for n in cert.n_values)
    assert replay_certificate(c, cert)


def test_certificate_label_independent(pair1_b1):
    sub = sub_arrangement(pair1_b1, [l for l in pair1_b1.labels if l != "L4"])
    renamed = {l: f"X{i}" for i, l in enumerate(sub.labels)}
    relabeled = Arrangement(
        tuple(Component(renamed[c.label], c.kind, c.form) for c in sub.components), {}
    )
    cert = connectivity_certificate(combinatorics(relabeled))
    assert cert is not None
    assert replay_certificate(combinatorics(relabeled), cert)


def test_n_value_coordinate_free():
    rng = random.Random(7)
    a = sub_arrangement(load("pair1_B1"), ["C", "L1", "L2", "L3", "L4", "L5"])
    c_before = combinatorics(a)
    prior = {"C", "L1", "L2", "L3"}
    base = {l: n_value(c_before, l, prior) for l in ("L4", "L5")}
    for _ in range(5):
        m = random_invertible_matrix(rng)
        c_after = combinatorics(transform_arrangement(a, m))
        for l, expected in base.items():
            assert n_value(c_after, l, prior) == expected


def test_minimality_pair1(pair1_b1, pair1_b2):
    report = minimality_check(pair1_b1, pair1_b2)
    assert report.overall == "Minimal"
    conic_deletion = next(d for d in report.deletions if d.deleted == "C")
    assert conic_deletion.certificate.base_rule == "PureLinesAtMost9"
    for d in report.deletions:
        if d.deleted != "C":
            assert d.certificate.base_rule == "ConicWithTangents"
            assert all(n <= 2 for n in d.certificate.n_values)
    assert AXIOM_LINES in report.axioms_used
    assert all(s.certificate is not None for s in report.shared_classes)


def test_minimality_pair2(pair2_b1, pair2_b2):
    report = minimality_check(pair2_b1, pair2_b2)
    assert report.overall == "Minimal"
    assert all(d.certified for d in report.deletions)


def test_minimality_two_triangles():
    t1 = parse("line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 -5\n")
    t2 = parse("line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 2 3 -7\n")
    report = minimality_check(t1, t2)
    assert report.overall == "Minimal"
    assert all(
        d.certificate and d.certificate.base_rule == "PureLinesAtMost9"
        for d in report.deletions
    )


def class_profile(report):
    return sorted(
        (
            len(s.representative),
            s.count,
            s.certificate.base_rule if s.certificate else None,
        )
        for s in report.shared_classes
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_minimality_same_from_either_side(seed):
    rng = random.Random(seed)
    a = random_arrangement(rng, max_lines=5, with_conic=rng.random() < 0.8)
    b = relabelled_image(a, rng)
    forward, backward = minimality_check(a, b), minimality_check(b, a)
    assert class_profile(forward) == class_profile(backward)
    assert forward.overall == backward.overall
    assert forward.axioms_used == backward.axioms_used
    assert sorted(d.certified for d in forward.deletions) == sorted(
        d.certified for d in backward.deletions
    )
    # the classes partition the proper nonempty sub-curves of either side
    size = len(a.components)
    assert sum(s.count for s in forward.shared_classes) == 2**size - 2
    for report, side in ((forward, a), (backward, b)):
        full = combinatorics(side)
        for s in report.shared_classes:
            if s.certificate is not None:
                assert replay_certificate(full.restrict(s.representative), s.certificate)


@pytest.mark.parametrize("name, orbits, lookups", [("pair1", 110, 59), ("pair2", 118, 67)])
def test_minimality_restricts_one_sub_curve_per_orbit(name, orbits, lookups, monkeypatch):
    # of the 254 proper sub-curves only the first of each orbit of the
    # arrangement's automorphisms is restricted and looked up among the
    # classes; the 8 deletions are restricted too, and one more
    # `equivalences` call matches the two arrangements
    counts = {"restrict": 0, "equivalences": 0}
    restrict, equivalences = Combinatorics.restrict, moduli.equivalences

    def counting_restrict(self, labels):
        counts["restrict"] += 1
        return restrict(self, labels)

    def counting_equivalences(*args, **kwargs):
        counts["equivalences"] += 1
        return equivalences(*args, **kwargs)

    monkeypatch.setattr(Combinatorics, "restrict", counting_restrict)
    monkeypatch.setattr(moduli, "equivalences", counting_equivalences)
    minimality_check(load(f"{name}_B1"), load(f"{name}_B2"))
    assert counts == {"restrict": orbits + 8, "equivalences": 1 + lookups}


def test_minimality_on_generic_lines_restricts_one_sub_curve_per_size(monkeypatch):
    # every permutation of 8 generic lines is an automorphism: the orbits
    # are the sizes 1..7, found by closing under 28 generators, and the
    # 40,320 equivalences are never listed
    counts = {"restrict": 0}
    restrict = Combinatorics.restrict

    def counting_restrict(self, labels):
        counts["restrict"] += 1
        return restrict(self, labels)

    def refuse(self):
        raise AssertionError("the equivalences were listed")

    monkeypatch.setattr(Combinatorics, "restrict", counting_restrict)
    monkeypatch.setattr(Equivalences, "__iter__", refuse)
    a = parse(generic_lines(8))
    report = minimality_check(a, relabelled_image(a, random.Random(8)))
    assert counts == {"restrict": 7 + 8}
    assert [s.count for s in report.shared_classes] == [math.comb(8, r) for r in range(1, 8)]
    assert report.overall == "Minimal"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orbit_sweep_matches_every_subset_sweep(seed):
    rng = random.Random(seed)
    a = symmetric_arrangement(rng)
    report = minimality_check(a, relabelled_image(a, rng))
    swept = [(s.representative, s.count, s.certificate) for s in report.shared_classes]
    assert swept == every_subset_classes(a)


def test_minimality_lists_the_axioms_of_the_deletions():
    # deleting the only line leaves no proper sub-curve to share, so the
    # deletion's certificate is the only one that uses an axiom
    a = parse("line L1 : 1 0 0\n")
    report = minimality_check(a, a)
    assert report.shared_classes == ()
    assert report.deletions[0].certificate.base_rule == "PureLinesAtMost9"
    assert report.axioms_used == (moduli.AXIOM_LINES,)


def test_minimality_requires_equivalence(pair1_b1, pair2_b1):
    with pytest.raises(ValueError, match="equivalent"):
        minimality_check(pair1_b1, pair2_b1)


def test_minimality_report_text_stable(pair1_b1, pair1_b2):
    r1 = minimality_report_text(minimality_check(pair1_b1, pair1_b2), "a", "b")
    r2 = minimality_report_text(minimality_check(pair1_b1, pair1_b2), "a", "b")
    assert r1 == r2
    assert "overall: Minimal" in r1
    assert "at-most-9-lines axiom" in r1


def test_minimality_report_names_unknown_class():
    # the circle with four tangent lines: every three tangents with the
    # conic exceed the base rule, in 4 sub-curves on each side
    a = parse(
        "conic C : 1 1 -1 0 0 0\nline L1 : 1 0 -1\nline L2 : 0 1 -1\n"
        "line L3 : 1 0 1\nline L4 : 0 1 1\n"
    )
    report = minimality_check(a, transform_arrangement(a, ((1, 2, 0), (0, 1, 0), (1, 1, 1))))
    assert report.overall == "Unknown"
    text = minimality_report_text(report, "a", "b")
    assert "    UNKNOWN: class of {C, L1, L2, L3} (4 / 4 sub-curves)\n" in text
    assert "shared by both arrangements: 8 (7 certified)" in text


def test_replay_rejects_wrong_certificate(pair1_b1):
    sub = sub_arrangement(pair1_b1, [l for l in pair1_b1.labels if l != "L4"])
    c = combinatorics(sub)
    cert = connectivity_certificate(c)
    other = sub_arrangement(pair1_b1, [l for l in pair1_b1.labels if l != "L5"])
    assert not replay_certificate(combinatorics(other), cert)


@pytest.mark.parametrize(
    "drop, change",
    [
        pytest.param("L4", {"order": ("L3", "L3", "L5", "L7", "L6"), "n_values": (0, 0, 0, 2, 2)},
                     id="line-repeated-in-order"),
        pytest.param("L4", {"order": ("L2", "L3", "L5", "L7", "L6"), "n_values": (0, 0, 0, 2, 2)},
                     id="base-line-in-order"),
        pytest.param("L4", {"n_values": (0, 0, 2)}, id="n-values-shorter-than-order"),
        pytest.param("L4", {"base": ()}, id="empty-base"),
        pytest.param("C", {"base": ("L1", "L1", "L2", "L3", "L4", "L5", "L6", "L7")},
                     id="pure-lines-base-repeats-a-line"),
    ],
)
def test_replay_rejects_malformed_certificate(pair1_b1, drop, change):
    c = combinatorics(sub_arrangement(pair1_b1, [l for l in pair1_b1.labels if l != drop]))
    cert = connectivity_certificate(c)
    assert replay_certificate(c, cert)
    assert replay_certificate(c, dataclasses.replace(cert, **change)) is False
