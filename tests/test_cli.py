"""CLI behaviour: reports, exit codes, determinism, SVG output."""

import argparse
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coniclines import cli, splitting
from coniclines.cli import build_parser, main
from coniclines.arrangement import parse
from coniclines.incidence import Equivalences, intersect_line_conic
from coniclines.poly import ProjPoint, cross

from .conftest import PAIR_FILES, generic_lines, long_int, record_calls

P1B1 = str(PAIR_FILES["pair1_B1"])
P1B2 = str(PAIR_FILES["pair1_B2"])
P2B1 = str(PAIR_FILES["pair2_B1"])
P2B2 = str(PAIR_FILES["pair2_B2"])
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def braces(text: str) -> set[frozenset]:
    return {frozenset(m.group(1).split(", ")) for m in re.finditer(r"\{([^}]*)\}", text)}


def section(text: str, header: str) -> str:
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip().startswith(header))
    out = []
    for l in lines[start + 1 :]:
        if not l.startswith("    "):
            break
        out.append(l)
    return "\n".join(out)


def test_analyze_pair1_tables(capsys):
    code, out, _ = run(capsys, "analyze", P1B1)
    assert code == 0
    triples = braces(section(out, "ordinary triple points"))
    assert triples == {
        frozenset(("L1", "L4", "L5")),
        frozenset(("L1", "L6", "L7")),
        frozenset(("L2", "L5", "L7")),
        frozenset(("L2", "L4", "L6")),
        frozenset(("L3", "L5", "L6")),
        frozenset(("L3", "L7", "C")),
        frozenset(("L3", "L4", "C")),
    }
    tacnodes = braces(section(out, "tacnodes"))
    assert tacnodes == {frozenset(("L1", "C")), frozenset(("L2", "C"))}
    assert "ordinary triple points (7)" in out
    assert "tacnodes (2)" in out
    assert "nodes (10: 6 rational + 2 conjugate pairs)" in out
    assert "bezout check: OK (28 component pairs)" in out


def test_analyze_pair2_tables(capsys):
    code, out, _ = run(capsys, "analyze", P2B1)
    assert code == 0
    triples = braces(section(out, "ordinary triple points"))
    assert triples == {
        frozenset(("L1", "L2", "L4")),
        frozenset(("L1", "L3", "L6")),
        frozenset(("L1", "L5", "L7")),
        frozenset(("L4", "L7", "C")),
        frozenset(("L4", "L5", "C")),
        frozenset(("L6", "L7", "C")),
        frozenset(("L5", "L6", "C")),
    }
    assert braces(section(out, "tacnodes")) == {
        frozenset(("L2", "C")),
        frozenset(("L3", "C")),
    }


@pytest.mark.parametrize(
    "text, line",
    [
        (PAIR_FILES["pair1_B1"].read_text(), "bezout check: OK (28 component pairs)"),
        ("line L1 : 1 0 0\nline L2 : 0 1 0\n", "bezout check: OK (1 component pair)"),
    ],
    ids=["pair1_B1", "two_lines"],
)
def test_analyze_bezout_line_counts_component_pairs(capsys, tmp_path, text, line):
    f = tmp_path / "a.txt"
    f.write_text(text)
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_analyze_single_line(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("line L1 : 1 0 0\n")
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert "no singular points" in out


def test_analyze_malformed_file_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("line L1 : 1 0\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("token", ["1e10000000", "1.5"])
def test_analyze_decimal_or_exponent_coefficient_exit_1(capsys, tmp_path, token):
    f = tmp_path / "bad.txt"
    f.write_text(f"line L1 : 1 0 1\nline L2 : {token} 1 0\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: line 2, column 11: expected integer or fraction, got {token!r}\n"


def test_internal_error_exit_4(capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("no witness\nfound")

    monkeypatch.setattr(splitting, "_find_witness", fail)
    code, out, err = run(capsys, "split", P1B1, "--branch", "B", "--curve", "CC")
    assert code == 4
    assert out == ""
    # the message keeps its newline escaped, and the line names where it was raised
    pattern = r"internal error: RuntimeError\('no witness\\nfound'\) at test_cli\.py:\d+\n"
    assert re.fullmatch(pattern, err)


def test_internal_key_error_exit_4(capsys, monkeypatch):
    # a KeyError from inside the pipeline is a fault of the program, not an
    # input error: only `main` maps exceptions to exit codes
    def fail(*args):
        raise KeyError("internal")

    monkeypatch.setattr(splitting, "equivalences", fail)
    code, out, err = run(
        capsys,
        "zariski",
        P1B1,
        P1B2,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert (code, out) == (4, "")
    assert re.fullmatch(r"internal error: KeyError\('internal'\) at test_cli\.py:\d+\n", err)


# 3000 digits each, under the interpreter's default limit of 4300 for int <-> str
LONG_A, LONG_B = 10**2999 + 7, 3 * 10**2999 - 11


def test_analyze_prints_a_point_past_the_digit_limit(capsys, tmp_path):
    # the node of two lines with 3000-digit coefficients has a coordinate
    # of about 6000 digits
    f = tmp_path / "long.txt"
    f.write_text(f"line L1 : {LONG_A} {LONG_B} 1\nline L2 : {LONG_B} {-LONG_A} 1\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, err) == (0, "")
    point = re.search(r"\{L1, L2\} at \[(\S+) : (\S+) : (\S+)\]", out).groups()
    assert len(point[2]) > 4300
    expected = ProjPoint(*cross((LONG_A, LONG_B, 1), (LONG_B, -LONG_A, 1)))
    assert tuple(map(long_int, point)) == expected
    assert "bezout check: OK" in out


def test_analyze_prints_a_form_and_a_discriminant_past_the_digit_limit(capsys, tmp_path):
    # clearing the denominators gives z a coefficient of about 6000 digits
    f = tmp_path / "long.txt"
    f.write_text(f"conic C : 1 1 -1 0 0 0\nline L : 1/{LONG_A} 1/{LONG_B} 1\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, err) == (0, "")
    a = parse(f.read_text())
    form = re.search(r"L: line  (\d+)\*x \+ (\d+)\*y \+ (\d+)\*z$", out, re.M).groups()
    assert tuple(map(long_int, form)) == a.component("L").form.coeffs == (
        LONG_B, LONG_A, LONG_A * LONG_B
    )
    disc = re.search(r"conjugate pair, discriminant (-?\d+)$", out, re.M)[1]
    assert len(disc) > 4300
    assert long_int(disc) == intersect_line_conic(a.component("L"), a.conic).discriminant


def test_analyze_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.txt")
    assert code == 1
    assert "cannot read" in err


def test_analyze_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", P1B1)
    _, second, _ = run(capsys, "analyze", P1B1)
    assert first == second


def test_compare_within_pair(capsys):
    code, out, _ = run(capsys, "compare", P1B1, P1B2)
    assert code == 0
    m = re.search(r"equivalences: (\d+)", out)
    assert m and int(m.group(1)) >= 1


def test_compare_across_pairs(capsys):
    code, out, _ = run(capsys, "compare", P1B1, P2B1)
    assert code == 0
    assert "equivalences: 0" in out
    assert "combinatorially distinct" in out
    assert "2 ordinary triple points" in out  # pair-1 conic fingerprint
    assert "4 ordinary triple points" in out  # pair-2 conic fingerprint


def test_compare_names_point_types_once(capsys, tmp_path):
    # three lines through one point of the conic: an ordinary 4-fold point
    f = tmp_path / "fan.txt"
    f.write_text(
        "conic C : 1 1 -1 0 0 0\nline L1 : 0 1 0\nline L2 : 1 1 -1\nline L3 : 1 -1 -1\n"
    )
    code, out, _ = run(capsys, "compare", str(f), str(f))
    assert code == 0
    assert f"{f}: 4 components; 3 nodes, 1 ordinary point of multiplicity 4" in out
    assert f"conic fingerprint of {f}: 3 nodes, 1 ordinary point of multiplicity 4" in out


@pytest.mark.parametrize(
    "text, header, summary",
    [
        # x, y, x+y, x-y meet at [0:0:1]; z, y+z, y-z and x meet at [0:1:0]
        (
            "line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 0\nline L4 : 1 -1 0\n"
            "line L5 : 0 0 1\nline L6 : 0 1 1\nline L7 : 0 1 -1\n",
            "  ordinary 4-fold points (2):",
            "7 components; 9 nodes, 2 ordinary 4-fold points",
        ),
        # x is tangent to y^2 = 4xz at [0:0:1], which y also passes through
        (
            "conic C : 0 1 0 0 -4 0\nline L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 1\n",
            "  other (pairwise multiplicities [1, 1, 2]) points (1):",
            "4 components; 3 nodes, 1 other (pairwise multiplicities [1, 1, 2]), 1 tacnode",
        ),
    ],
)
def test_point_types_are_named_in_the_plural(capsys, tmp_path, text, header, summary):
    f = tmp_path / "a.txt"
    f.write_text(text)
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert header in out.splitlines()
    assert not re.search(r"\ds|\)s", out)
    code, out, _ = run(capsys, "compare", str(f), str(f))
    assert code == 0
    assert f"  {f}: {summary}" in out.splitlines()


def test_compare_names_one_component_in_the_singular(capsys, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("line L1 : 1 0 0\n")
    code, out, _ = run(capsys, "compare", str(f), str(f))
    assert code == 0
    assert f"  {f}: 1 component; no singular points" in out.splitlines()
    assert "equivalences: 1" in out


def test_compare_conic_without_singular_points(capsys, tmp_path):
    conic, line = tmp_path / "conic.txt", tmp_path / "line.txt"
    conic.write_text("conic C : 1 1 -1 0 0 0\n")
    line.write_text("line L1 : 1 0 0\n")
    code, out, _ = run(capsys, "compare", str(conic), str(line))
    assert code == 0
    assert f"conic fingerprint of {conic}: no singular points" in out.splitlines()


def test_compare_prints_generators_of_all_bijections_of_eight_generic_lines(capsys, tmp_path):
    # φ and 7 + 6 + … + 1 = 28 transversal automorphisms stand for all 8!
    # equivalences: closing the printed generators gives every bijection
    f = tmp_path / "generic_8.txt"
    f.write_text(generic_lines(8))
    code, out, _ = run(capsys, "compare", str(f), str(f))
    assert code == 0
    lines = out.splitlines()
    assert "equivalences: 40320" in lines
    assert f"  automorphism generators of {f}: 28" in lines
    mappings = [l for l in lines if "L1->" in l]
    assert len(mappings) == 1 + 28
    assert mappings[0].startswith("  phi: ")
    labels = [f"L{i}" for i in range(1, 9)]
    generators = []
    for line in mappings[1:]:
        images = dict(pair.split("->") for pair in line.strip().split(", "))
        assert sorted(images) == sorted(images.values()) == labels
        generators.append(tuple(labels.index(images[l]) for l in labels))
    identity = tuple(range(8))
    group, queue = {identity}, [identity]
    while queue:
        p = queue.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                queue.append(q)
    assert len(group) == 40320


def test_no_command_lists_every_equivalence(capsys, tmp_path, monkeypatch):
    # compare, zariski and minimality read φ and the generators; listing
    # the equivalences would raise, and main would report exit 4
    def refuse(self):
        raise AssertionError("the equivalences were listed")

    monkeypatch.setattr(Equivalences, "__iter__", refuse, raising=False)
    generic = tmp_path / "generic_8.txt"
    generic.write_text(generic_lines(8))
    # 8 lines tangent to y^2 = 4xz, split as B = the conic, C = the lines
    tangents = tmp_path / "tangents_8.txt"
    tangents.write_text(
        "conic C : 0 1 0 0 -4 0\n"
        + generic_lines(8)
        + "curve B = C\ncurve CC = "
        + " ".join(f"L{i}" for i in range(1, 9))
        + "\n"
    )
    split = ["--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC"]
    cases = [
        (["compare", P1B1, P1B2], 0),
        (["compare", P2B1, P2B2], 0),
        (["compare", str(generic), str(generic)], 0),
        (["zariski", P1B1, P1B2, *split], 0),
        (["zariski", P2B1, P2B2, *split], 0),
        (["zariski", str(tangents), str(tangents), *split], 3),
        (["minimality", P1B1, P1B2], 0),
        (["minimality", P2B1, P2B2], 0),
        (["minimality", str(generic), str(generic)], 0),
    ]
    for argv, expected in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (expected, ""), argv
    _, out, _ = run(capsys, "zariski", str(tangents), str(tangents), *split)
    assert "  combinatorial equivalences: 40320" in out.splitlines()
    assert "  split preserved by every equivalence: yes" in out.splitlines()


def test_split_pair1(capsys):
    code, out, _ = run(capsys, "split", P1B1, "--branch", "B", "--curve", "CC")
    assert code == 0
    assert "projective dimension 1" in out
    assert "connected number of C in the double cover branched along B: 2" in out
    assert "witness curve" in out


def test_split_unknown_subcurve_exit_1(capsys):
    code, _, err = run(capsys, "split", P1B1, "--branch", "Nope", "--curve", "CC")
    assert code == 1
    assert "Nope" in err


def test_split_hypothesis_violation_exit_2(capsys, tmp_path):
    f = tmp_path / "odd.txt"
    f.write_text(
        "line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 -5\n"
        "curve B = L1\ncurve CC = L2 L3\n"
    )
    code, _, err = run(capsys, "split", str(f), "--branch", "B", "--curve", "CC")
    assert code == 2
    assert "odd" in err


def test_zariski_pair1(capsys):
    code, out, _ = run(
        capsys,
        "zariski",
        P1B1,
        P1B2,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert code == 0
    assert "conclusion: CandidatePair" in out
    assert "connected number: 2" in out
    assert "connected number: 1" in out


def test_zariski_pair2(capsys):
    code, out, _ = run(
        capsys,
        "zariski",
        P2B1,
        P2B2,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert code == 0
    assert "conclusion: CandidatePair" in out


def test_zariski_self_exit_3(capsys):
    code, out, _ = run(
        capsys,
        "zariski",
        P1B1,
        P1B1,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert code == 3
    assert "conclusion: Inconclusive" in out


# three lines through [0 : 0 : 1]: B ∩ C is that one point, and the
# automorphisms permute all three lines, so none keeps L3 on the C side
CONCURRENT = "line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 0\ncurve B = L1 L2\ncurve CC = L3\n"


@pytest.mark.parametrize(
    "files, reasons",
    [
        ((P1B1, P2B1), ["the arrangements are combinatorially distinct"]),
        (
            ("concurrent", "concurrent"),
            [
                "some equivalence does not preserve the (B, C) split",
                "connected numbers agree (2 = 2)",
            ],
        ),
        ((P1B1, P1B1), ["connected numbers agree (2 = 2)"]),
    ],
    ids=["distinct", "not-rigid", "agree"],
)
def test_zariski_states_every_inconclusive_reason(capsys, tmp_path, files, reasons):
    concurrent = tmp_path / "concurrent.txt"
    concurrent.write_text(CONCURRENT)
    code, out, _ = run(
        capsys,
        "zariski",
        *(str(concurrent) if f == "concurrent" else f for f in files),
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    assert code == 3
    assert "  conclusion: Inconclusive\n" in out
    assert re.findall(r"^    reason: (.*)$", out, re.MULTILINE) == reasons
    if "concurrent" in files:
        assert out.count("\n    B ∩ C: 1 rational point\n") == 2


def test_zariski_split_error_precedes_hypothesis_violation(capsys, tmp_path):
    # split 1 has an odd B (a hypothesis violation, exit 2); split 2 leaves
    # L3 out of B and C (a split error, exit 1); the split error wins
    f = tmp_path / "odd.txt"
    f.write_text(
        "line L1 : 1 0 0\nline L2 : 0 1 0\nline L3 : 1 1 -5\n"
        "curve B = L1\ncurve CC = L2 L3\ncurve PART = L2\n"
    )
    code, out, err = run(
        capsys,
        "zariski",
        str(f),
        str(f),
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "PART",
    )
    assert (code, out) == (1, "")
    assert "do not cover the arrangement" in err
    assert "hypothesis" not in err


def test_minimality_pair1(capsys):
    code, out, _ = run(capsys, "minimality", P1B1, P1B2)
    assert code == 0
    assert "overall: Minimal" in out
    assert "at-most-9-lines axiom" in out


def test_minimality_non_equivalent_exit_2(capsys):
    code, _, err = run(capsys, "minimality", P1B1, P2B1)
    assert code == 2
    assert "equivalent" in err


def test_render_pair1(capsys, tmp_path):
    out_file = tmp_path / "pic.svg"
    code, _, _ = run(capsys, "render", P1B1, "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<?xml")
    assert svg.count('class="component"') == 8
    # of the nine B∩C points, [1:-1:0] lies on the chart's line at infinity
    assert svg.count("<circle") == 8
    assert "{L1,L4,L5}" in svg


def test_render_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "render", P1B1, "-o", str(f1))
    run(capsys, "render", P1B1, "-o", str(f2))
    assert f1.read_text() == f2.read_text()


def test_render_empty_arrangement(capsys, tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing\n")
    out_file = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "render", str(src), "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert 'class="axes"' in svg
    assert 'class="component"' not in svg


def test_render_zero_width_window_exit_1(capsys, tmp_path):
    out_file = tmp_path / "zero.svg"
    code, _, err = run(
        capsys, "render", P1B1, "-o", str(out_file), "--window", "0", "0", "-1", "1"
    )
    assert code == 1
    assert "degenerate" in err


@pytest.mark.parametrize("value", ["1/0", "a", "1e9", "1.5"])
def test_render_bad_window_value_exit_1(capsys, tmp_path, value):
    out_file = tmp_path / "bad.svg"
    code, out, err = run(
        capsys, "render", P1B1, "-o", str(out_file), "--window", value, "1", "0", "1"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --window takes integers or fractions p/q, got {value!r}\n"
    assert not out_file.exists()


def test_render_negative_fraction_window(capsys, tmp_path):
    out_file = tmp_path / "window.svg"
    code, out, err = run(
        capsys, "render", P1B1, "-o", str(out_file), "--window", "-1/2", "1/2", "-1", "1"
    )
    assert (code, err) == (0, "")
    assert 'viewBox="0 0 640 1280.00"' in out_file.read_text()
    # a missing bound is still a usage error
    with pytest.raises(SystemExit) as exc:
        main(["render", P1B1, "-o", str(out_file), "--window", "-1/2", "1/2", "-1"])
    assert exc.value.code == 2


OUTSIDE = "window is outside the float range"


@pytest.mark.parametrize(
    "window, message",
    [
        ((-(10**400), 10**400, -1, 1), OUTSIDE),  # bounds past the float range
        ((0, f"1/{10**400}", 0, f"1/{10**400}"), "window is degenerate"),  # rounds to 0.0
        ((-(10**308), 10**308, -1, 1), OUTSIDE),  # a width past the float range
        ((0, 1, 0, 10**308), OUTSIDE),  # a pixel height past the float range
        ((0, f"1/{10**320}", 0, 1), OUTSIDE),  # a subnormal width: an infinite scale
        ((0, 1, 0, "1/1000000"), "window is degenerate"),  # 0.00064 pixels high: "0.00"
    ],
    ids=["bounds", "rounds_to_zero", "width", "pixel_height", "scale", "flat"],
)
def test_render_window_outside_the_float_range_exit_1(capsys, tmp_path, window, message):
    out_file = tmp_path / "window.svg"
    code, out, err = run(
        capsys, "render", P1B1, "-o", str(out_file), "--window", *map(str, window)
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


def test_render_huge_window_has_finite_pixels(capsys, tmp_path):
    # the first window's diagonal, 1.4e200, squares past the float range;
    # on both, 0.08 chart units of stroke are far below a pixel
    out_file = tmp_path / "window.svg"
    for window in (
        ("0", str(10**200), "0", str(10**200)),
        ("-1000000", "1000000", "-1000000", "1000000"),
    ):
        assert run(capsys, "render", P1B1, "-o", str(out_file), "--window", *window) == (
            0, f"wrote {out_file}\n", ""
        )
        svg = out_file.read_text()
        assert 'viewBox="0 0 640 640.00"' in svg
        assert re.search(r"\b(nan|inf)\b", svg) is None
        strokes = re.findall(r'stroke-width="([^"]*)"', svg)
        assert len(strokes) == 9  # the axes and the 8 components
        assert "0.00" not in strokes


def test_closed_stdout_ends_quietly():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coniclines", "compare", P1B1, P1B2],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_analyze_accepts_byte_order_mark(capsys, tmp_path):
    src = tmp_path / "pair1_B1.txt"
    src.write_bytes(b"\xef\xbb\xbf" + PAIR_FILES["pair1_B1"].read_bytes())
    code, out, _ = run(capsys, "analyze", str(src))
    assert code == 0
    assert out == (GOLDEN / "analyze_pair1_B1.txt").read_text(encoding="utf-8")


def test_render_unwritable_output_exit_1(capsys, tmp_path):
    out_file = tmp_path / "missing_dir" / "out.svg"
    code, out, err = run(capsys, "render", P1B1, "-o", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_file}")


def test_render_command_raises_on_a_failed_write(tmp_path):
    # the command raises like a failed read; only main turns it into exit 1
    out_file = tmp_path / "missing_dir" / "out.svg"
    args = build_parser().parse_args(["render", P1B1, "-o", str(out_file)])
    with pytest.raises(ValueError) as exc:
        cli.cmd_render(args)
    assert str(exc.value) == f"cannot write {out_file}: No such file or directory"


def test_render_other_charts(capsys, tmp_path):
    for chart in ("x", "y"):
        out_file = tmp_path / f"{chart}.svg"
        code, _, _ = run(capsys, "render", P1B1, "-o", str(out_file), "--chart", chart)
        assert code == 0
        assert out_file.read_text().count('class="component"') == 8


PAIR1_RUNS = {
    "analyze": ["analyze", P1B1],
    "compare": ["compare", P1B1, P1B2],
    "split": ["split", P1B1, "--branch", "B", "--curve", "CC"],
    "zariski": ["zariski", P1B1, P1B2, "--branch1", "B", "--curve1", "CC",
                "--branch2", "B", "--curve2", "CC"],
    "minimality": ["minimality", P1B1, P1B2],
    "render": ["render", P1B1, "-o", "OUT"],
}


def count_calls(capsys, tmp_path, monkeypatch, command, *functions) -> dict[str, int]:
    """Calls of each function, by name, in one successful run of a `PAIR1_RUNS` command."""
    calls = record_calls(monkeypatch, *functions)
    argv = [str(tmp_path / "out.svg") if a == "OUT" else a for a in PAIR1_RUNS[command]]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return {name: len(args) for name, args in calls.items()}


@pytest.mark.parametrize(
    "command, parses, searches",
    [
        ("analyze", 1, 1),
        ("compare", 2, 2),
        ("split", 1, 1),
        ("zariski", 2, 2),
        ("minimality", 2, 2),
        ("render", 1, 1),
    ],
    ids=list(PAIR1_RUNS),
)
def test_each_command_parses_each_file_once_and_finds_its_singular_points_once(
    capsys, tmp_path, monkeypatch, command, parses, searches
):
    from coniclines import arrangement, incidence

    functions = (arrangement.parse, incidence.singular_points)
    calls = count_calls(capsys, tmp_path, monkeypatch, command, *functions)
    assert calls == {"parse": parses, "singular_points": searches}


@pytest.mark.parametrize(
    "command, builds",
    [
        ("analyze", 0),
        ("compare", 38),  # 19 points on each side, read by the equivalence search
        ("split", 0),
        ("zariski", 38),
        ("minimality", 59),  # 38, and 21 restricted points of the sub-curve sweep
        ("render", 0),
    ],
    ids=list(PAIR1_RUNS),
)
def test_point_facts_are_built_only_where_they_are_read(
    capsys, tmp_path, monkeypatch, command, builds
):
    from coniclines import incidence

    calls = count_calls(capsys, tmp_path, monkeypatch, command, incidence._point_facts)
    assert calls == {"_point_facts": builds}


def test_zariski_deterministic_report(capsys):
    args = (
        "zariski", P1B1, P1B2,
        "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def exits(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_main_can_be_called_repeatedly(capsys, tmp_path, monkeypatch):
    # one process, one parser: no option or error of one call leaks into the next
    monkeypatch.chdir(GOLDEN.parent.parent)
    pic = tmp_path / "pic.svg"
    assert run(capsys, "render", P1B1, "-o", str(pic), "--chart", "x")[0] == 0
    assert run(capsys, "render", P1B1, "-o", str(pic))[0] == 0
    assert pic.read_bytes() == (GOLDEN / "render_pair1_B1_z.svg").read_bytes()

    fresh = build_parser.__wrapped__().parse_args
    # a usage error (no --branch) goes to stderr with exit 2, help to stdout with exit 0
    for argv, expected in (
        (["split", "data/pair1_B1.txt"], 2),
        (["--help"], 0),
        (["minimality", "--help"], 0),
    ):
        code, out, err = exits(capsys, main, argv)
        assert (code, out, err) == exits(capsys, fresh, argv)
        printed, silent = (err, out) if code else (out, err)
        assert code == expected and printed.startswith("usage: coniclines") and silent == ""

    window = ["--window", "-1/2", "1/2", "-1", "1"]
    assert run(capsys, "render", P1B1, "-o", str(pic), *window) == (0, f"wrote {pic}\n", "")
    for golden, argv in (
        ("analyze_pair1_B1.txt", ["analyze", "data/pair1_B1.txt"]),
        ("minimality_pair1.txt", ["minimality", "data/pair1_B1.txt", "data/pair1_B2.txt"]),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_one_parser_per_process(capsys, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    jobs = [
        ["analyze", P1B1],
        ["compare", P1B1, P1B2],
        ["split", P1B1, "--branch", "B", "--curve", "CC"],
        ["zariski", P1B1, P1B2, "--branch1", "B", "--curve1", "CC",
         "--branch2", "B", "--curve2", "CC"],
        ["minimality", P1B1, P1B2],
        ["render", P1B1, "-o", str(tmp_path / "pic.svg")],
    ]
    for i in range(20):
        assert main(jobs[i % len(jobs)]) == 0
    capsys.readouterr()
    # the top-level parser and one subparser per command
    assert len(built) == 7


def test_commands_are_dispatched_by_name_at_call_time(capsys, monkeypatch):
    # the cached parser holds no command functions: a replaced `cmd_*` is the one called
    assert run(capsys, "analyze", P1B1)[0] == 0
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: print(f"stub {args.file}") or 3)
    assert run(capsys, "analyze", P1B1) == (3, f"stub {P1B1}\n", "")


def test_commands_leave_no_reference_cycles(capsys):
    # the equivalence search is recursive; it must not keep itself alive after a call
    commands = [
        ("compare", P2B1, P2B2),
        ("zariski", P2B1, P2B2, "--branch1", "B", "--curve1", "CC", "--branch2", "B", "--curve2", "CC"),
        ("minimality", P2B1, P2B2),
    ]
    for argv in commands:  # the first calls build the parser and fill the caches
        main(list(argv))
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            main(list(argv))
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()
