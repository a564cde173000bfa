"""Deterministic SVG pictures of the real points of an arrangement.

The only floating point in the package lives here, and nothing computed
here flows back into any analysis.  Lines are clipped exactly against the
window before the final float conversion.  The conic is swept once
through the pencil of lines at a real point found in closed form on
integers: exact when that point is rational, else rounded to about 64
bits by an integer square root; a definite conic is not drawn.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arrangement import Arrangement
from .incidence import combinatorics
from .poly import HomPoly, cross, restrict_to_line

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

# a chart reorders (x, y, z) so that its own coordinate comes last; a point
# is drawn at (c0 / c2, c1 / c2) of its reordered coordinates, and a form is
# read with its exponents reordered the same way
CHART_ORDER = {"x": (1, 2, 0), "y": (0, 2, 1), "z": (0, 1, 2)}
STROKE_WIDTH = 0.08
SAMPLE_COUNT = 256
SIZE = 640
WINDOW = (Fraction(-12), Fraction(12), Fraction(-12), Fraction(12))  # xmin, xmax, ymin, ymax


def _chart_point(order: tuple[int, int, int], coords) -> tuple[float, float] | None:
    c0, c1, c2 = (coords[i] for i in order)
    if c2 == 0:
        return None
    if c2 < 0:  # 0 / -k would give -0.0, which formats as "-0.00"
        c0, c1, c2 = -c0, -c1, -c2
    # int true division rounds correctly, as float(Fraction(c0, c2)) does
    try:
        return c0 / c2, c1 / c2
    except OverflowError:  # a quotient past the float range is off every window
        return None


def _chart_form(order: tuple[int, int, int], form: HomPoly) -> HomPoly:
    return HomPoly.from_terms(
        form.degree, {tuple(e[i] for i in order): c for e, c in form.terms()}
    )


class _Canvas:
    """A chart and its window: the exact bounds for clipping, their floats for pixels.

    In floats, a window whose width or height is not positive is degenerate.
    One whose scale or pixel height is not finite and positive, or whose
    width or height is not finite with the 5% margin that the conic is drawn
    into on each side, is outside the float range: no pixel coordinate of a
    window that passes overflows.  A window whose pixel height prints as
    0.00 is degenerate too: its picture would be empty.
    """

    def __init__(self, chart: str, window: tuple[Fraction, ...]):
        if chart not in CHART_ORDER:
            raise ValueError(f"chart must be one of {tuple(CHART_ORDER)}")
        self.order = CHART_ORDER[chart]
        self.window = window
        outside = "window is outside the float range"
        try:
            xmin, xmax, ymin, ymax = (float(v) for v in window)
        except OverflowError:
            raise ValueError(outside) from None
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        width, height = xmax - xmin, ymax - ymin
        if not (width > 0 and height > 0):
            raise ValueError("window is degenerate")
        self.scale = SIZE / width
        self.height = height * self.scale
        finite = max(1.1 * width, 1.1 * height, self.scale, self.height) < math.inf
        if not (finite and self.height > 0):  # a wide, flat window's height can underflow
            raise ValueError(outside)
        if f"{self.height:.2f}" == "0.00":  # the SVG would be written 0.00 pixels high
            raise ValueError("window is degenerate")

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (
            (x - self.xmin) * self.scale,
            self.height - (y - self.ymin) * self.scale,
        )

    def fmt(self, x: float, y: float) -> str:
        px, py = self.to_px(x, y)
        return f"{px:.2f},{py:.2f}"


def _clip_line_to_window(
    a: Fraction, b: Fraction, c: Fraction, window
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None:
    """Exact clipping of a*u + b*v + c = 0 against the window rectangle."""
    xmin, xmax, ymin, ymax = window
    hits: list[tuple[Fraction, Fraction]] = []

    def push(u: Fraction, v: Fraction):
        if xmin <= u <= xmax and ymin <= v <= ymax and (u, v) not in hits:
            hits.append((u, v))

    if b != 0:
        for u in (xmin, xmax):
            push(u, Fraction(-(a * u + c), b))
    if a != 0:
        for v in (ymin, ymax):
            push(Fraction(-(b * v + c), a), v)
    if len(hits) < 2:
        return None
    hits.sort()
    return hits[0], hits[-1]


def _line_paths(canvas: _Canvas, form: HomPoly) -> list[str]:
    f = _chart_form(canvas.order, form)
    a, b, c = f.coeffs
    if a == 0 and b == 0:
        return []  # the chart's line at infinity
    seg = _clip_line_to_window(a, b, c, canvas.window)
    if seg is None:
        return []
    (u1, v1), (u2, v2) = seg
    return [f"M {canvas.fmt(float(u1), float(v1))} L {canvas.fmt(float(u2), float(v2))}"]


BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _real_point_on_conic(q: HomPoly) -> tuple[int, int, int] | None:
    """A real point of the smooth conic q, or None when q is definite.

    The lines tried are the three coordinate lines, then the line from each
    e_k to its pole adj(M) e_k, M the doubled matrix of q.  If the first
    three miss the conic, the diagonal of M has one sign and its 2x2
    principal minors are positive; an indefinite q then has det M of the
    opposite sign, so q(pole_k) = det M * adj(M)_kk / 2 and q(e_k) differ
    in sign.  The point is exact when the discriminant is a square;
    otherwise 2^k sqrt(disc) is taken by the integer square root, with k
    such that its rounding moves the point by about a 2^-64 fraction of
    its size.
    """
    a, b, c, d, e, f = q.coeffs  # x^2, xy, xz, y^2, yz, z^2
    m = ((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))
    poles = (cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1]))  # columns of adj(M)
    for u, w in (*itertools.combinations(BASIS, 2), *zip(BASIS, poles)):
        A, B, C = restrict_to_line(q, u, w)
        disc = B * B - 4 * A * C
        if disc < 0:
            continue
        if A == 0:
            return u
        root = math.isqrt(disc)
        if root * root != disc:
            bits = max(abs(v) for v in (*u, *w)).bit_length()
            k = max(0, 64 + 2 * bits - disc.bit_length() // 2)
            root, A, B, C = math.isqrt(disc << 2 * k), A << k, B << k, C << k
        # (s : t) = (root - B : 2A) = (-2C : root + B), the second where the
        # first would cancel; zero only when the pole is e_k itself
        s, t = (-2 * C, root + B) if B > 0 else (root - B, 2 * A)
        point = tuple(s * x + t * y for x, y in zip(u, w))
        if any(point):
            return point
    return None


def _conic_samples(q: HomPoly, p0: tuple, count: int) -> list[tuple]:
    """Raw triples sweeping the smooth conic q once, via the pencil of lines through p0.

    The second intersection of the line through p0 with direction
    D = s*d1 + t*d2 is q(D) * p0 - polar(p0, D) * D, never zero: D is off
    p0, and the tangent at p0 meets a smooth conic nowhere else.  Both
    factors are binary forms in (s, t), set up once, so a sample is plain
    arithmetic, exact when p0 is.
    """
    k = max(range(3), key=lambda i: abs(p0[i]))
    d1, d2 = (e for i, e in enumerate(BASIS) if i != k)
    A, B, C = restrict_to_line(q, d1, d2)
    pol1, pol2 = (restrict_to_line(q, p0, d)[1] for d in (d1, d2))

    # sweep the whole projective parameter line: u = w/count in (-1, 1) is
    # mapped to s = 3u/(1-u^2), which runs from -inf to +inf with good
    # density near 0; (s : 1) is the integer pair (3 w count : count^2 - w^2)
    params = [(3 * w * count, count * count - w * w) for w in range(2 - count, count, 2)]
    params.append((1, 0))
    samples: list[tuple] = []
    for s, t in params:
        qd, pol = A * s * s + B * s * t + C * t * t, pol1 * s + pol2 * t
        d = tuple(s * x + t * y for x, y in zip(d1, d2))
        samples.append(tuple(qd * x - pol * y for x, y in zip(p0, d)))
    return samples


def _polylines_from_chart_points(
    canvas: _Canvas, pts: list[tuple[float, float] | None]
) -> list[str]:
    jump = 0.4 * math.hypot(canvas.xmax - canvas.xmin, canvas.ymax - canvas.ymin)
    margin_x = 0.05 * (canvas.xmax - canvas.xmin)
    margin_y = 0.05 * (canvas.ymax - canvas.ymin)

    def visible(p):
        return (
            p is not None
            and canvas.xmin - margin_x <= p[0] <= canvas.xmax + margin_x
            and canvas.ymin - margin_y <= p[1] <= canvas.ymax + margin_y
        )

    paths: list[str] = []
    run: list[tuple[float, float]] = []
    for p in pts:
        if not visible(p):
            if len(run) >= 2:
                paths.append("M " + " L ".join(canvas.fmt(*q) for q in run))
            run = []
            continue
        if run:
            prev = run[-1]
            if math.hypot(p[0] - prev[0], p[1] - prev[1]) > jump:
                if len(run) >= 2:
                    paths.append("M " + " L ".join(canvas.fmt(*q) for q in run))
                run = []
        run.append(p)
    if len(run) >= 2:
        paths.append("M " + " L ".join(canvas.fmt(*q) for q in run))
    return paths


def _conic_paths(canvas: _Canvas, form: HomPoly) -> list[str]:
    q = _chart_form(canvas.order, form)
    p0 = _real_point_on_conic(q)
    if p0 is None:
        return []  # a definite conic has no real points
    # the samples are points of q, already in the chart's coordinates
    pts = [_chart_point(CHART_ORDER["z"], p) for p in _conic_samples(q, p0, SAMPLE_COUNT)]
    pts.append(pts[0])  # close the sweep so bounded conics render as loops
    return _polylines_from_chart_points(canvas, pts)


def render_svg(
    a: Arrangement, chart: str = "z", window: tuple[Fraction, ...] = WINDOW
) -> str:
    """Render the arrangement to a deterministic standalone SVG document.

    `window` is (xmin, xmax, ymin, ymax) in the chart's coordinates, and
    `_Canvas` says which windows are refused.
    """
    canvas = _Canvas(chart, window)
    w = SIZE
    h = canvas.height
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h:.2f}" '
        f'width="{w}" height="{h:.2f}">',
        f'  <rect x="0" y="0" width="{w}" height="{h:.2f}" fill="white"/>',
    ]
    # axes of the chart
    axes = []
    if canvas.xmin < 0 < canvas.xmax:
        axes.append((f"M {canvas.fmt(0.0, canvas.ymin)} L {canvas.fmt(0.0, canvas.ymax)}"))
    if canvas.ymin < 0 < canvas.ymax:
        axes.append((f"M {canvas.fmt(canvas.xmin, 0.0)} L {canvas.fmt(canvas.xmax, 0.0)}"))
    out.append('  <g class="axes" stroke="#cccccc" stroke-width="1" fill="none">')
    for d in axes:
        out.append(f'    <path d="{d}"/>')
    out.append("  </g>")

    # at least a pixel wide, like the axes, so that no component vanishes
    stroke_px = max(STROKE_WIDTH * canvas.scale, 1)
    for idx, comp in enumerate(a.components):
        color = PALETTE[idx % len(PALETTE)]
        if comp.kind == "line":
            paths = _line_paths(canvas, comp.form)
        else:
            paths = _conic_paths(canvas, comp.form)
        out.append(
            f'  <g class="component" id="{comp.label}" stroke="{color}" '
            f'stroke-width="{stroke_px:.2f}" fill="none">'
        )
        for d in paths:
            out.append(f'    <path d="{d}"/>')
        out.append("  </g>")

    # markers: the distinguished (non-node) singular points
    marked = [
        pt
        for pt in combinatorics(a).points
        if pt.is_rational and pt.local_type.kind != "node"
    ]
    conic = a.conic.label if a.conic else None
    out.append('  <g class="markers" fill="#000000" font-size="12" font-family="monospace">')
    for pt in marked:
        cc = _chart_point(canvas.order, pt.location.coords)
        if cc is None:
            continue
        u, v = cc
        if not (canvas.xmin <= u <= canvas.xmax and canvas.ymin <= v <= canvas.ymax):
            continue
        px, py = canvas.to_px(u, v)
        label = "{" + ",".join(sorted(pt.branches, key=lambda l: (l == conic, l))) + "}"
        out.append(f'    <circle cx="{px:.2f}" cy="{py:.2f}" r="3.5"/>')
        out.append(f'    <text x="{px + 5:.2f}" y="{py - 5:.2f}">{label}</text>')
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
