"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Everything is exact rational arithmetic; there are no numeric
tolerances anywhere.
"""

import random
import re

from coniclines import parse
from coniclines.cli import main
from coniclines.incidence import (
    bezout_check,
    combinatorics,
    equivalences,
)
from coniclines.linalg import QMatrix, kernel_basis
from coniclines.moduli import minimality_check, n_value
from coniclines.poly import HomPoly
from coniclines.splitting import (
    analyze_split,
    check_hypotheses,
    through_points,
)

from .conftest import (
    PAIR_FILES,
    cleared,
    every_equivalence,
    load,
    random_arrangement,
    random_invertible_matrix,
    random_matrix_rows,
    rank,
    serialize,
    sub_arrangement,
    transform_arrangement,
    value_at,
)
from .oracles import naive_rank, sympy_divides

P1B1 = str(PAIR_FILES["pair1_B1"])
P1B2 = str(PAIR_FILES["pair1_B2"])
P2B1 = str(PAIR_FILES["pair2_B1"])
P2B2 = str(PAIR_FILES["pair2_B2"])

PAIR1_TRIPLES = {
    frozenset(("L1", "L4", "L5")),
    frozenset(("L1", "L6", "L7")),
    frozenset(("L2", "L5", "L7")),
    frozenset(("L2", "L4", "L6")),
    frozenset(("L3", "L5", "L6")),
    frozenset(("L3", "L7", "C")),
    frozenset(("L3", "L4", "C")),
}
PAIR1_TACNODES = {frozenset(("L1", "C")), frozenset(("L2", "C"))}
PAIR2_TRIPLES = {
    frozenset(("L1", "L2", "L4")),
    frozenset(("L1", "L3", "L6")),
    frozenset(("L1", "L5", "L7")),
    frozenset(("L4", "L7", "C")),
    frozenset(("L4", "L5", "C")),
    frozenset(("L6", "L7", "C")),
    frozenset(("L5", "L6", "C")),
}
PAIR2_TACNODES = {frozenset(("L2", "C")), frozenset(("L3", "C"))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def braces_in(text: str, header: str) -> set[frozenset]:
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip().startswith(header))
    body = []
    for l in lines[start + 1 :]:
        if not l.startswith("    "):
            break
        body.append(l)
    return {
        frozenset(m.group(1).split(", "))
        for m in re.finditer(r"\{([^}]*)\}", "\n".join(body))
    }


def split_of(a):
    return a, a.subcurve("B"), a.subcurve("CC")


def test_criterion_1_singularity_tables(capsys):
    for path, triples, tacnodes in (
        (P1B1, PAIR1_TRIPLES, PAIR1_TACNODES),
        (P1B2, PAIR1_TRIPLES, PAIR1_TACNODES),
        (P2B1, PAIR2_TRIPLES, PAIR2_TACNODES),
        (P2B2, PAIR2_TRIPLES, PAIR2_TACNODES),
    ):
        code, out = run_cli(capsys, "analyze", path)
        assert code == 0, path
        assert braces_in(out, "ordinary triple points") == triples, path
        assert braces_in(out, "tacnodes") == tacnodes, path
    print("PASS criterion 1: analyze reproduces both singularity tables exactly")


def test_criterion_2_matrix_dimensions():
    expected = {"pair1_B1": 1, "pair1_B2": 0, "pair2_B1": 0, "pair2_B2": 1}
    for name, dim in expected.items():
        a, b, c = split_of(load(name))
        report = check_hypotheses(combinatorics(a), b, c)
        assert report.ok and len(report.intersection_points) == 9, name
        kernel = through_points(a.degree_of(b) // 2, report.intersection_points)
        assert len(kernel) - 1 == dim, name
    print(
        "PASS criterion 2: projective dimensions (1,0) for pair 1 and (0,1) for pair 2"
    )


def test_criterion_3_connected_numbers():
    expected = {"pair1_B1": 2, "pair1_B2": 1, "pair2_B1": 1, "pair2_B2": 2}
    for name, value in expected.items():
        a, b, c = split_of(load(name))
        analysis = analyze_split(a, b, c)
        witness = analysis.witness
        assert analysis.connected == value, name
        if value == 2:
            assert witness is not None, name
            report = check_hypotheses(combinatorics(a), b, c)
            for p in report.intersection_points:
                assert value_at(witness, p.coords) == 0, name
            for comp in map(a.component, c):
                assert not sympy_divides(witness, comp.form), name
    print(
        "PASS criterion 3: connected numbers (2,1) and (1,2); witnesses vanish on all "
        "nine points and are divisible by no component of C"
    )


def test_criterion_4_combinatorics(capsys):
    # within-pair equivalences exist, cross-pair none
    for first, second in ((P1B1, P1B2), (P2B1, P2B2)):
        code, out = run_cli(capsys, "compare", first, second)
        assert code == 0
        count = int(re.search(r"equivalences: (\d+)", out).group(1))
        assert count >= 1
    code, out = run_cli(capsys, "compare", P1B1, P2B1)
    assert "equivalences: 0" in out

    def counts(fp):
        _, entries = fp
        triples = sum(1 for k, _ in entries if k[0] == "ordinary" and k[1] == 3)
        tacs = sum(1 for k, _ in entries if k[0] == "tacnode")
        return triples, tacs

    assert counts(combinatorics(load("pair1_B1")).fingerprints["C"]) == (2, 2)
    assert counts(combinatorics(load("pair2_B1")).fingerprints["C"]) == (4, 2)

    eqs1 = equivalences(combinatorics(load("pair1_B1")), combinatorics(load("pair1_B2")))
    assert eqs1 and all(
        {m[l] for l in ("L1", "L2", "L3")} == {"L1", "L2", "L3"} for m in every_equivalence(eqs1)
    )
    eqs2 = equivalences(combinatorics(load("pair2_B1")), combinatorics(load("pair2_B2")))
    assert eqs2 and all({m[l] for l in ("C", "L1")} == {"C", "L1"} for m in every_equivalence(eqs2))
    print(
        "PASS criterion 4: equivalences within pairs (none across), conic fingerprints "
        "2 vs 4 triple points, rigidity of {L1,L2,L3} and {C,L1}"
    )


def test_criterion_5_zariski_certificates(capsys):
    for first, second in ((P1B1, P1B2), (P2B1, P2B2)):
        code, out = run_cli(
            capsys,
            "zariski", first, second,
            "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
        )
        assert code == 0
        assert "conclusion: CandidatePair" in out
    code, out = run_cli(
        capsys,
        "zariski", P1B1, P1B1,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert code == 3
    assert "conclusion: Inconclusive" in out
    print("PASS criterion 5: zariski exits 0 with CandidatePair per pair, 3 against itself")


def test_criterion_6_minimality():
    for first, second in (("pair1_B1", "pair1_B2"), ("pair2_B1", "pair2_B2")):
        report = minimality_check(load(first), load(second))
        assert report.overall == "Minimal", (first, second)
        conic_deletion = next(d for d in report.deletions if d.deleted == "C")
        assert conic_deletion.certificate.base_rule == "PureLinesAtMost9"
        for d in report.deletions:
            if d.deleted == "C":
                continue
            cert = d.certificate
            assert cert is not None and cert.base_rule == "ConicWithTangents"
            assert all(n <= 2 for n in cert.n_values)
    print(
        "PASS criterion 6: both pairs Minimal; conic deletion by the <=9-lines axiom, "
        "line deletions by explicit orderings with all n_t <= 2"
    )


def test_criterion_7_property_suites():
    # Bezout on the four examples and on 200 randomized arrangements
    for name in PAIR_FILES:
        a = load(name)
        assert bezout_check(combinatorics(a))
    rng = random.Random(1234)
    for _ in range(200):
        a = random_arrangement(rng)
        assert bezout_check(combinatorics(a))

    # kernel vanishing is exact on the examples
    for name in PAIR_FILES:
        a, b, c = split_of(load(name))
        report = check_hypotheses(combinatorics(a), b, c)
        kernel = through_points(3, report.intersection_points)
        for f in (HomPoly(3, v) for v in kernel):
            for p in report.intersection_points:
                assert value_at(f, p.coords) == 0

    # rank dual oracle (fraction-free vs naive fractions) up to 12x12
    rng = random.Random(4321)
    for _ in range(100):
        grid, cols = random_matrix_rows(rng, max_dim=12)
        m = QMatrix.from_rows(map(cleared, grid), cols=cols)
        assert rank(m) == naive_rank(grid)
        assert rank(m) + len(kernel_basis(m)) == cols

    # invariance under random rational projective transformations
    rng = random.Random(777)
    for _ in range(5):
        a = random_arrangement(rng, max_lines=4)
        m = random_invertible_matrix(rng)
        c1, c2 = combinatorics(a), combinatorics(transform_arrangement(a, m))
        assert {l: l for l in c1.labels} in every_equivalence(equivalences(c1, c2))
    for name in ("pair1_B1", "pair2_B2"):
        a = load(name)
        base = analyze_split(*split_of(a)).connected
        moved = transform_arrangement(a, random_invertible_matrix(rng))
        assert analyze_split(*split_of(moved)).connected == base
    sub = sub_arrangement(load("pair1_B1"), ["C", "L1", "L2", "L3", "L4", "L5"])
    prior = {"C", "L1", "L2", "L3"}
    base_n = {l: n_value(combinatorics(sub), l, prior) for l in ("L4", "L5")}
    for _ in range(3):
        moved = transform_arrangement(sub, random_invertible_matrix(rng))
        for l, expected in base_n.items():
            assert n_value(combinatorics(moved), l, prior) == expected

    # parse / serialize round trip
    for name, path in PAIR_FILES.items():
        a = load(name)
        assert parse(serialize(a)) == a
    rng = random.Random(31337)
    for _ in range(25):
        a = random_arrangement(rng)
        assert parse(serialize(a)) == a
    print(
        "PASS criterion 7: Bezout (examples + 200 random), exact kernel vanishing, "
        "rank dual-oracle to 12x12, projective invariance, parse/serialize round trip"
    )
