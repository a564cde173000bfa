"""SVG rendering: golden pictures, the conic sweep, the closed-form real point."""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coniclines import parse, render
from coniclines.arrangement import CONIC_EXPONENTS, conic_form, conic_matrix_determinant
from coniclines.cli import main
from coniclines.poly import HomPoly, ProjPoint, monomial_count
from coniclines.render import (
    CHART_ORDER,
    _chart_form,
    _chart_point,
    _conic_samples,
    _real_point_on_conic,
    render_svg,
)

from .conftest import PAIR_FILES, cleared, value_at

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("chart", ["x", "y", "z"])
@pytest.mark.parametrize("name", sorted(PAIR_FILES))
def test_render_matches_golden(name, chart, tmp_path, capsys):
    out_file = tmp_path / "pic.svg"
    assert main(["render", str(PAIR_FILES[name]), "-o", str(out_file), "--chart", chart]) == 0
    capsys.readouterr()
    golden = GOLDEN / f"render_{name}_{chart}.svg"
    assert out_file.read_bytes() == golden.read_bytes()


def test_verify_pairs_renders_golden(tmp_path):
    # the script's --render writes the default chart-z picture of each file;
    # its stdout is golden once the output directory reads OUTDIR
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_pairs.py"), "--render", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verdict: all certificates obtained\n")
    stdout = proc.stdout.replace(f"wrote {tmp_path}", "wrote OUTDIR")
    assert stdout == (GOLDEN / "verify_pairs.txt").read_text(encoding="utf-8")
    for name in PAIR_FILES:
        golden = GOLDEN / f"render_{name}_z.svg"
        assert (tmp_path / f"{name}.svg").read_bytes() == golden.read_bytes()


def fraction_samples(q: HomPoly, p0: ProjPoint, count: int) -> list[ProjPoint]:
    """The conic sweep through the rational parameter s = 3u/(1-u^2), in Fractions.

    The reference the integer sweep of `_conic_samples` is compared against.
    """
    if abs(p0[0]) == max(abs(v) for v in p0):
        d1, d2 = ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)
    elif abs(p0[1]) == max(abs(v) for v in p0):
        d1, d2 = ProjPoint(1, 0, 0), ProjPoint(0, 0, 1)
    else:
        d1, d2 = ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)

    def polar(u, v):
        both = tuple(a + b for a, b in zip(u, v))
        return value_at(q, both) - value_at(q, u) - value_at(q, v)

    params = []
    for k in range(1, count):
        u = Fraction(-1) + Fraction(2 * k, count)
        params.append((3 * u / (1 - u * u), Fraction(1)))
    params.append((Fraction(1), Fraction(0)))
    samples = []
    for s, t in params:
        d = tuple(s * a + t * b for a, b in zip(d1, d2))
        if not any(d):
            continue
        qd = value_at(q, d)
        pol = polar(p0, d)
        coords = tuple(qd * a - pol * b for a, b in zip(p0, d))
        if any(coords):
            samples.append(ProjPoint(*cleared(coords)))
    return samples


SMALL = st.integers(-6, 6)


@pytest.mark.parametrize("chart", sorted(CHART_ORDER))
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data(), st.tuples(SMALL, SMALL, SMALL))
def test_chart_form_at_chart_point_is_the_form_at_the_point(chart, degree, data, coords):
    n = monomial_count(degree)
    f = HomPoly(degree, data.draw(st.lists(SMALL, min_size=n, max_size=n)))
    order = CHART_ORDER[chart]
    moved = tuple(coords[i] for i in order)
    assert value_at(_chart_form(order, f), moved) == value_at(f, coords)


@pytest.mark.parametrize("chart", sorted(CHART_ORDER))
@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-(10**30), 10**30), SMALL, st.integers(-(10**30), 10**30)))
@example(coords=(10**400, 1, 1))  # a quotient past the float range in charts y and z
@example(coords=(1, -(10**400), 1))  # and in charts x and z
def test_chart_point_is_the_rounded_fraction(chart, coords):
    c0, c1, c2 = (coords[i] for i in CHART_ORDER[chart])
    try:
        expected = None if c2 == 0 else (float(Fraction(c0, c2)), float(Fraction(c1, c2)))
    except OverflowError:  # off every window
        expected = None
    # repr tells -0.0 from 0.0, which the SVG text would show as "-0.00"
    assert repr(_chart_point(CHART_ORDER[chart], coords)) == repr(expected)


def test_marker_on_a_negative_third_coordinate_is_not_drawn_at_minus_zero():
    # the triple point [0 : 1 : -1] lies on the window's left edge
    a = parse("line L1 : 1 0 0\nline L2 : 0 1 1\nline L3 : 1 1 1\n")
    window = (Fraction(0), Fraction(2), Fraction(-2), Fraction(2))
    svg = render_svg(a, window=window)
    assert '<circle cx="0.00" cy="960.00" r="3.5"/>' in svg


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(SMALL, SMALL, SMALL).filter(any),
    st.tuples(SMALL, SMALL, SMALL, SMALL, SMALL, SMALL),
    st.integers(16, 80),
)
def test_integer_sweep_equals_fraction_sweep(point, coeffs, count):
    p0 = ProjPoint(*point)
    # q = g * x_i^2(p0) - g(p0) * x_i^2 vanishes at p0, where x_i is a
    # coordinate that is nonzero at p0
    i = next(k for k, v in enumerate(p0) if v)
    square = CONIC_EXPONENTS[i]
    x, y, z = p0
    weight = p0[i] ** 2
    shift = sum(c * x**e[0] * y**e[1] * z**e[2] for c, e in zip(coeffs, CONIC_EXPONENTS))
    values = [c * weight - (shift if e == square else 0) for c, e in zip(coeffs, CONIC_EXPONENTS)]
    assume(any(values))
    q = conic_form(values)
    assume(conic_matrix_determinant(q) != 0)
    assert value_at(q, p0) == 0
    samples = _conic_samples(q, p0, count)
    assert [ProjPoint(*p) for p in samples] == fraction_samples(q, p0, count)
    assert len(samples) == count
    assert all(value_at(q, p) == 0 for p in samples)


def _component_paths(svg: str) -> list[str]:
    lines = svg.splitlines()
    start = next(i for i, l in enumerate(lines) if 'class="component"' in l)
    end = lines.index("  </g>", start)
    return [l for l in lines[start + 1 : end] if "<path" in l]


@pytest.mark.parametrize(
    "text, drawn",
    [
        ("conic C : 1 1 -3 0 0 0\n", True),  # real points, no rational one
        ("conic C : 1 1 1 0 0 0\n", False),  # definite: no real points
        ("conic C : -2 -3 -5 1 1 1\n", False),  # negative definite
    ],
)
def test_point_search_is_bounded(text, drawn, monkeypatch):
    calls = 0
    restrict_to_line = render.restrict_to_line

    def counting(*args):
        nonlocal calls
        calls += 1
        return restrict_to_line(*args)

    monkeypatch.setattr(render, "restrict_to_line", counting)
    svg = render_svg(parse(text))
    # at most six lines for the point, then three binary forms for the sweep
    assert calls <= 9
    assert bool(_component_paths(svg)) == drawn


def test_conic_without_rational_points_is_one_closed_loop():
    paths = _component_paths(render_svg(parse("conic C : 1 1 -3 0 0 0\n")))
    assert len(paths) == 1
    points = paths[0].split('d="M ')[1].split('"')[0].split(" L ")
    assert len(points) == 257
    assert points[0] == points[-1]


BIG = 10**400


@pytest.mark.parametrize(
    "text, conic_drawn",
    [
        # the first line tried meets the conic in a non-square discriminant
        (f"conic C : 1 -2 0 0 0 {BIG}\n", True),
        # an ordinary triple point at [10^400 : 1 : 1], far off the window
        (f"line L1 : 0 1 -1\nline L2 : 1 {-BIG} 0\nline L3 : 1 0 {-BIG}\n", False),
    ],
    ids=["conic", "triple_point"],
)
def test_render_past_the_float_range(text, conic_drawn, tmp_path, capsys):
    src, out = tmp_path / "in.txt", tmp_path / "out.svg"
    src.write_text(text, encoding="utf-8")
    assert main(["render", str(src), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    svg = out.read_text(encoding="utf-8")
    assert ('id="C"' in svg and bool(_component_paths(svg))) == conic_drawn
    assert "<circle" not in svg


def is_definite(q: HomPoly) -> bool:
    """Sylvester's criterion on the doubled symmetric matrix of q, or on its negative."""
    a, b, c, d, e, f = q.coeffs
    m = sympy.Matrix([[2 * a, b, c], [b, 2 * d, e], [c, e, 2 * f]])
    minors = [m[:k, :k].det() for k in (1, 2, 3)]
    return all(v > 0 for v in minors) or all((-1) ** k * v > 0 for k, v in enumerate(minors, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 6, 1000]).flatmap(
        lambda h: st.lists(st.integers(-h, h), min_size=6, max_size=6)
    )
)
def test_real_point_is_none_exactly_for_a_definite_conic(coeffs):
    q = HomPoly(2, coeffs)
    assume(conic_matrix_determinant(q) != 0)
    restrictions, restrict_to_line = [], render.restrict_to_line

    def recording(*args):
        restrictions.append(restrict_to_line(*args))
        return restrictions[-1]

    with mock.patch.object(render, "restrict_to_line", recording):
        p = _real_point_on_conic(q)
    assert (p is None) == is_definite(q)
    if p is None:
        return
    assert any(p) and all(type(v) is int for v in p)
    # the point lies on the last line restricted: exact when its discriminant is a square
    A, B, C = restrictions[-1]
    disc = B * B - 4 * A * C
    value = value_at(q, p)
    if math.isqrt(disc) ** 2 == disc:
        assert value == 0
    else:
        scale = sum(abs(v) for v in coeffs) * max(abs(v) for v in p) ** 2
        assert abs(value) <= 1e-12 * scale
