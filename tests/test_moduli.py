"""Connectivity certificates: n-values, ordering search, minimality driver."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniclines.arrangement import Arrangement, Component, HypothesisError, parse
from coniclines import moduli
from coniclines.incidence import (
    Combinatorics,
    Equivalences,
    SingularPoint,
    combinatorics,
    equivalences,
)
from coniclines.moduli import (
    AXIOM_LINES,
    connectivity_certificate,
    minimality_check,
    minimality_report_text,
    n_value,
    replay_certificate,
)

from .conftest import (
    GRID,
    PAIR_FILES,
    backtracking_certificate,
    component_labels,
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
    lines_only = sub_arrangement(a, [l for l in component_labels(a) if l != "C"])
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
    # every n_t <= 2: peeling removes at most one line per scan of the
    # remaining ones, so it makes at most 12 + 11 + ... + 1 = 78 n_value
    # calls before it gets stuck (a depth-first search of build orders
    # would visit up to 2^12 sets of placed lines)
    text = "conic C : 1 1 -1000 0 0 0\n"
    text += "".join(f"line X{i} : 1 0 {-i}\nline Y{i} : 0 1 {-i}\n" for i in range(1, 5))
    text += "".join(f"line S{s} : 1 1 {-s}\n" for s in range(2, 6))
    c = comb_of(text)
    rest = 12
    calls = 0

    def counting_n_value(*args):
        nonlocal calls
        calls += 1
        if calls > rest * (rest + 1) // 2:
            raise AssertionError(f"more than {rest} * {rest + 1} / 2 n_value calls")
        return n_value(*args)

    monkeypatch.setattr(moduli, "n_value", counting_n_value)
    assert connectivity_certificate(c) is None


def every_sub_combinatorics(c: Combinatorics):
    for r in range(1, len(c.labels) + 1):
        for subset in itertools.combinations(c.labels, r):
            yield c.restrict(subset)


def assert_peeling_agrees_with_backtracking(c: Combinatorics):
    # an order exists exactly when the depth-first search finds one, and
    # every peeled order replays
    cert = connectivity_certificate(c)
    assert (cert is None) == (backtracking_certificate(c) is None), c.labels
    assert cert is None or replay_certificate(c, cert), c.labels


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_peeling_decides_every_bundled_sub_combinatorics(name):
    for sub in every_sub_combinatorics(combinatorics(load(name))):
        assert_peeling_agrees_with_backtracking(sub)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_peeling_decides_every_sub_combinatorics(seed):
    for sub in every_sub_combinatorics(combinatorics(symmetric_arrangement(random.Random(seed)))):
        assert_peeling_agrees_with_backtracking(sub)


GRID_COMBINATORICS = comb_of(GRID)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(GRID_COMBINATORICS.labels[1:]), min_size=8, max_size=10))
def test_peeling_decides_grid_sub_curves(lines):
    # a conic with 8 to 10 lines of the grid, whose many triple points
    # often leave no build order: about one draw in four of 10 lines
    assert_peeling_agrees_with_backtracking(GRID_COMBINATORICS.restrict({"C", *lines}))


@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_single_component_deletions_keep_the_backtracking_order(name):
    # `minimality` prints these orders when the file comes first
    c = combinatorics(load(name))
    for l in c.labels:
        sub = c.restrict(set(c.labels) - {l})
        assert connectivity_certificate(sub) == backtracking_certificate(sub), l


def counting_n_value(monkeypatch) -> list:
    """Records one entry per `n_value` call made through `moduli`."""
    calls = []

    def counting(*args):
        calls.append(None)
        return n_value(*args)

    monkeypatch.setattr(moduli, "n_value", counting)
    return calls


def test_grid_minimality_n_value_count(monkeypatch):
    # a conic with the 12 lines x = 0..3, y = 0..3, x + y = 1..4: the
    # depth-first search made 164,380 n_value calls here, and the peel
    # 1,061 while each deletion was certified again as a class of the sweep
    a = parse(GRID)
    calls = counting_n_value(monkeypatch)
    report = minimality_check(a, a)
    assert len(calls) == 1005
    assert (len(report.shared_classes), report.overall) == (204, "Unknown")
    assert sum(s.certificate is not None for s in report.shared_classes) == 179


@pytest.mark.parametrize("name, most", [("pair1", 118), ("pair2", 126)])
def test_bundled_minimality_n_value_count(name, most, monkeypatch):
    # the depth-first search made 136 and 159 calls on the same pairs
    calls = counting_n_value(monkeypatch)
    minimality_check(load(f"{name}_B1"), load(f"{name}_B2"))
    assert len(calls) <= most


@pytest.mark.parametrize("name", ["pair1_B1", "pair2_B1"])
@pytest.mark.parametrize("drop", ["L1", "L4", "L7"])
def test_certificates_for_single_line_deletions(name, drop):
    a = load(name)
    sub = sub_arrangement(a, [l for l in component_labels(a) if l != drop])
    c = combinatorics(sub)
    cert = connectivity_certificate(c)
    assert cert is not None
    assert all(n <= 2 for n in cert.n_values)
    assert replay_certificate(c, cert)


def test_certificate_label_independent(pair1_b1):
    sub = sub_arrangement(pair1_b1, [l for l in component_labels(pair1_b1) if l != "L4"])
    renamed = {l: f"X{i}" for i, l in enumerate(component_labels(sub))}
    relabeled = Arrangement(
        tuple(Component(renamed[c.label], c.form) for c in sub.components), {}
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
    assert all(d.certificate is not None for d in report.deletions)


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
    assert sorted(d.certificate is not None for d in forward.deletions) == sorted(
        d.certificate is not None for d in backward.deletions
    )
    # the classes partition the proper nonempty sub-curves of either side
    size = len(a.components)
    assert sum(s.count for s in forward.shared_classes) == 2**size - 2
    for report, side in ((forward, a), (backward, b)):
        full = combinatorics(side)
        for s in report.shared_classes:
            if s.certificate is not None:
                assert replay_certificate(full.restrict(s.representative), s.certificate)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_equivalences_restrict_to_every_sub_curve(seed):
    # the lemma the minimality sweep links by: restricting a point record
    # and relabelling it commute, so an equivalence, and an automorphism,
    # carries each sub-curve onto its image with equivalent combinatorics
    rng = random.Random(seed)
    a = random_arrangement(rng, max_lines=6)
    c1 = combinatorics(a)
    c2 = combinatorics(relabelled_image(a, rng))
    eqs = equivalences(c1, c2)
    subset = rng.sample(c1.labels, rng.randint(1, len(c1.labels)))
    for target, phi in ((c2, eqs.phi), *((c1, g) for g in eqs.generators)):
        sub, image = c1.restrict(subset), target.restrict(phi[l] for l in subset)
        assert sorted((phi[l], d) for l, d in sub.degrees) == sorted(image.degrees)
        assert tuple(sorted(rec.mapped_key(phi) for rec in sub.points)) == image.record_keys


@pytest.mark.parametrize(
    "name, restricted, lookups", [("pair1", 52, 6), ("pair2", 51, 5), ("grid", 218, 32)]
)
def test_minimality_restricts_only_unlinked_sub_curves(name, restricted, lookups, monkeypatch):
    # a sub-curve linked to a swept one, by an automorphism generator or by
    # an equivalence a lookup found, joins its class with no restriction and
    # no search.  The rest are restricted and looked up: 51 classes and 6
    # matches on pair 1, 51 and 5 on pair 2, 204 classes, 19 matches and 13
    # failed searches on the grid.  The deletions are restricted first, and
    # the 5 classes of (n-1)-component sub-curves reuse them; one more
    # `equivalences` call matches the two arrangements.  The orbit sweep
    # restricted 113, 121 and 1,638 and searched 59, 67 and 1,456 times
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
    a1, a2 = (parse(GRID),) * 2 if name == "grid" else (load(f"{name}_B1"), load(f"{name}_B2"))
    minimality_check(a1, a2)
    deletions = len(a1.components)
    assert counts == {"restrict": deletions + restricted, "equivalences": 1 + lookups}


@pytest.mark.parametrize("name, records", [("pair1", 21), ("pair2", 21), ("grid", 61)])
def test_minimality_builds_each_restricted_point_once(name, records, monkeypatch):
    # a new point record per distinct (point, kept branches), memoised on the
    # full structure: each triple point once per pair of its branches, among
    # the sub-curves that are restricted at all.  Restricting every point
    # anew built 298, 317 and 10,364 records; the orbit sweep built 66 on
    # the grid
    built = []
    restrict = SingularPoint.restrict

    def counting_restrict(self, keep):
        rec = restrict(self, keep)
        if rec is not None and rec is not self:
            built.append(rec)
        return rec

    a1, a2 = (parse(GRID),) * 2 if name == "grid" else (load(f"{name}_B1"), load(f"{name}_B2"))
    monkeypatch.setattr(SingularPoint, "restrict", counting_restrict)
    minimality_check(a1, a2)
    assert len(built) == records


@pytest.mark.parametrize("name", ["pair1", "pair2"])
def test_minimality_certifies_each_deletion_once(name, monkeypatch):
    # 51 classes and 8 deletions, 5 of the classes being deletions: each
    # sub-curve is certified once, and the report keeps the same certificate
    calls = []

    def counting(c):
        calls.append(frozenset(c.labels))
        return connectivity_certificate(c)

    monkeypatch.setattr(moduli, "connectivity_certificate", counting)
    report = minimality_check(load(f"{name}_B1"), load(f"{name}_B2"))
    assert (len(report.shared_classes), len(calls), len(set(calls))) == (51, 54, 54)
    whole = frozenset(d.deleted for d in report.deletions)
    classes = {frozenset(s.representative): s.certificate for s in report.shared_classes}
    reused = [d for d in report.deletions if whole - {d.deleted} in classes]
    assert len(reused) == 5
    assert all(classes[whole - {d.deleted}] is d.certificate for d in reused)


def test_minimality_on_generic_lines_restricts_one_sub_curve_per_size(monkeypatch):
    # every permutation of 8 generic lines is an automorphism: the orbits
    # are the sizes 1..7, found by closing under 28 generators, and the
    # 40,320 equivalences are never listed; the orbit of size 7 reuses the
    # first of the 8 deletions
    counts = {"restrict": 0}
    restrict = Combinatorics.restrict

    def counting_restrict(self, labels):
        counts["restrict"] += 1
        return restrict(self, labels)

    def refuse(self):
        raise AssertionError("the equivalences were listed")

    monkeypatch.setattr(Combinatorics, "restrict", counting_restrict)
    monkeypatch.setattr(Equivalences, "__iter__", refuse, raising=False)
    a = parse(generic_lines(8))
    report = minimality_check(a, relabelled_image(a, random.Random(8)))
    assert counts == {"restrict": 7 + 8 - 1}
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
    with pytest.raises(HypothesisError, match="equivalent"):
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
    sub = sub_arrangement(pair1_b1, [l for l in component_labels(pair1_b1) if l != "L4"])
    c = combinatorics(sub)
    cert = connectivity_certificate(c)
    other = sub_arrangement(pair1_b1, [l for l in component_labels(pair1_b1) if l != "L5"])
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
    kept = [l for l in component_labels(pair1_b1) if l != drop]
    c = combinatorics(sub_arrangement(pair1_b1, kept))
    cert = connectivity_certificate(c)
    assert replay_certificate(c, cert)
    assert replay_certificate(c, dataclasses.replace(cert, **change)) is False
