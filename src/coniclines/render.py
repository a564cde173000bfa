"""Deterministic SVG pictures of the real points of an arrangement.

The only floating point in the package lives here, and nothing computed
here flows back into any analysis.  Lines are clipped exactly against the
window before the final float conversion.  The conic is swept once
through the pencil of lines at a real point found in closed form, exactly
on integers when that point is rational; a definite conic is not drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .incidence import singular_points
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


@dataclass(frozen=True)
class RenderConfig:
    chart: str = "z"
    window: tuple[Fraction, Fraction, Fraction, Fraction] = (
        Fraction(-12),
        Fraction(12),
        Fraction(-12),
        Fraction(12),
    )

    def __post_init__(self):
        if self.chart not in CHART_ORDER:
            raise ValueError(f"chart must be one of {tuple(CHART_ORDER)}")
        xmin, xmax, ymin, ymax = self.window
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("window is degenerate")


def _chart_point(order: tuple[int, int, int], coords) -> tuple[float, float] | None:
    c0, c1, c2 = (coords[i] for i in order)
    if c2 == 0:
        return None
    if c2 < 0:  # 0 / -k would give -0.0, which formats as "-0.00"
        c0, c1, c2 = -c0, -c1, -c2
    # int true division rounds correctly, as float(Fraction(c0, c2)) does
    return c0 / c2, c1 / c2


def _chart_form(order: tuple[int, int, int], form: HomPoly) -> HomPoly:
    return HomPoly.from_terms(
        form.degree, {tuple(e[i] for i in order): c for e, c in form.terms()}
    )


class _Canvas:
    def __init__(self, cfg: RenderConfig):
        xmin, xmax, ymin, ymax = (float(v) for v in cfg.window)
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        self.scale = SIZE / (xmax - xmin)
        self.height = (ymax - ymin) * self.scale

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


def _line_paths(cfg: RenderConfig, canvas: _Canvas, form: HomPoly) -> list[str]:
    f = _chart_form(CHART_ORDER[cfg.chart], form)
    a, b, c = f.coeffs
    if a == 0 and b == 0:
        return []  # the chart's line at infinity
    seg = _clip_line_to_window(a, b, c, cfg.window)
    if seg is None:
        return []
    (u1, v1), (u2, v2) = seg
    return [f"M {canvas.fmt(float(u1), float(v1))} L {canvas.fmt(float(u2), float(v2))}"]


BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _real_point_on_conic(q: HomPoly) -> tuple | None:
    """A real point of the smooth conic q, or None when q is definite.

    The lines tried are the three coordinate lines, then the line from each
    e_k to its pole adj(M) e_k, M the doubled matrix of q.  If the first
    three miss the conic, the diagonal of M has one sign and its 2x2
    principal minors are positive; an indefinite q then has det M of the
    opposite sign, so q(pole_k) = det M * adj(M)_kk / 2 and q(e_k) differ
    in sign.  The point is in ints when the discriminant is a square.
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
            root = math.sqrt(disc)
        # (s : t) = (root - B : 2A); zero only when the pole is e_k itself
        point = tuple((root - B) * x + 2 * A * y for x, y in zip(u, w))
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
    window_diag = ((canvas.xmax - canvas.xmin) ** 2 + (canvas.ymax - canvas.ymin) ** 2) ** 0.5
    jump = 0.4 * window_diag
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
            if ((p[0] - prev[0]) ** 2 + (p[1] - prev[1]) ** 2) ** 0.5 > jump:
                if len(run) >= 2:
                    paths.append("M " + " L ".join(canvas.fmt(*q) for q in run))
                run = []
        run.append(p)
    if len(run) >= 2:
        paths.append("M " + " L ".join(canvas.fmt(*q) for q in run))
    return paths


def _conic_paths(cfg: RenderConfig, canvas: _Canvas, form: HomPoly) -> list[str]:
    q = _chart_form(CHART_ORDER[cfg.chart], form)
    p0 = _real_point_on_conic(q)
    if p0 is None:
        return []  # a definite conic has no real points
    # the samples are points of q, already in the chart's coordinates
    pts = [_chart_point(CHART_ORDER["z"], p) for p in _conic_samples(q, p0, SAMPLE_COUNT)]
    pts.append(pts[0])  # close the sweep so bounded conics render as loops
    return _polylines_from_chart_points(canvas, pts)


def render_svg(a: Arrangement, cfg: RenderConfig | None = None) -> str:
    """Render the arrangement to a deterministic standalone SVG document."""
    cfg = cfg or RenderConfig()
    canvas = _Canvas(cfg)
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

    stroke_px = STROKE_WIDTH * canvas.scale
    for idx, comp in enumerate(a.components):
        color = PALETTE[idx % len(PALETTE)]
        if comp.kind == "line":
            paths = _line_paths(cfg, canvas, comp.form)
        else:
            paths = _conic_paths(cfg, canvas, comp.form)
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
        for pt in singular_points(a)
        if pt.is_rational and pt.local_type.kind != "node"
    ]
    out.append('  <g class="markers" fill="#000000" font-size="12" font-family="monospace">')
    for pt in marked:
        cc = _chart_point(CHART_ORDER[cfg.chart], pt.location.coords)
        if cc is None:
            continue
        u, v = cc
        if not (canvas.xmin <= u <= canvas.xmax and canvas.ymin <= v <= canvas.ymax):
            continue
        px, py = canvas.to_px(u, v)
        label = "{" + ",".join(
            sorted(pt.branches, key=lambda l: (a.component(l).kind == "conic", l))
        ) + "}"
        out.append(f'    <circle cx="{px:.2f}" cy="{py:.2f}" r="3.5"/>')
        out.append(f'    <text x="{px + 5:.2f}" y="{py - 5:.2f}">{label}</text>')
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
