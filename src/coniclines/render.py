"""Deterministic SVG pictures of the real points of an arrangement.

The only floating point in the package lives here, and nothing computed
here flows back into any analysis.  Lines are clipped exactly against the
window before the final float conversion.  The conic is sampled on
integers through the pencil of lines at a rational point of height at
most POINT_SEARCH_HEIGHT (every sample then lies exactly on the conic);
any other conic is drawn by a float quadratic scan, which draws nothing
for a definite conic, as it has no real points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .incidence import singular_points
from .poly import HomPoly, ProjPoint

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
    a = f.coefficient((1, 0, 0))
    b = f.coefficient((0, 1, 0))
    c = f.coefficient((0, 0, 1))
    if a == 0 and b == 0:
        return []  # the chart's line at infinity
    seg = _clip_line_to_window(a, b, c, cfg.window)
    if seg is None:
        return []
    (u1, v1), (u2, v2) = seg
    return [f"M {canvas.fmt(float(u1), float(v1))} L {canvas.fmt(float(u2), float(v2))}"]


# an arbitrary bound, not a measured one: every bundled conic has a point
# of height 1, and the search costs at most 728 evaluations at height 4;
# a conic whose first point lies higher is drawn by the float scan
POINT_SEARCH_HEIGHT = 4


def _rational_point_on_conic(q: HomPoly) -> ProjPoint | None:
    for h in range(1, POINT_SEARCH_HEIGHT + 1):
        coords = range(-h, h + 1)
        for x in coords:
            for y in coords:
                for z in coords:
                    if max(abs(x), abs(y), abs(z)) != h:
                        continue
                    p = ProjPoint(x, y, z)
                    if q.evaluate(p) == 0:
                        return p
    return None


def _conic_samples(q: HomPoly, p0: ProjPoint, count: int) -> list[ProjPoint]:
    """Exact points sweeping the smooth conic q once, via the pencil of lines through p0.

    The second intersection of the line through p0 with direction D is
    q(D) * p0 - polar(p0, D) * D, a quadratic parameterization of the conic
    by the projective parameter of D.  It is never zero: D is off p0, and
    the tangent at p0 meets a smooth conic nowhere else.
    """
    if abs(p0.coords[0]) == max(abs(v) for v in p0.coords):
        d1, d2 = ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)
    elif abs(p0.coords[1]) == max(abs(v) for v in p0.coords):
        d1, d2 = ProjPoint(1, 0, 0), ProjPoint(0, 0, 1)
    else:
        d1, d2 = ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)

    def polar(u, v) -> int:
        both = tuple(a + b for a, b in zip(u, v))
        return q.evaluate_triple(both) - q.evaluate_triple(u) - q.evaluate_triple(v)

    # sweep the whole projective parameter line: u = w/count in (-1, 1) is
    # mapped to s = 3u/(1-u^2), which runs from -inf to +inf with good
    # density near 0; (s : 1) is the integer pair (3 w count : count^2 - w^2)
    params = [(3 * w * count, count * count - w * w) for w in range(2 - count, count, 2)]
    params.append((1, 0))
    samples: list[ProjPoint] = []
    for s, t in params:
        d = tuple(s * a + t * b for a, b in zip(d1.coords, d2.coords))
        qd = q.evaluate_triple(d)
        pol = polar(p0.coords, d)
        samples.append(ProjPoint(*(qd * a - pol * b for a, b in zip(p0.coords, d))))
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
    p0 = _rational_point_on_conic(q)
    if p0 is not None:
        # the samples are points of q, already in the chart's coordinates
        samples = _conic_samples(q, p0, SAMPLE_COUNT)
        pts = [_chart_point(CHART_ORDER["z"], p.coords) for p in samples]
        # close the sweep so bounded conics render as loops
        pts.append(pts[0] if pts else None)
        return _polylines_from_chart_points(canvas, pts)
    # fallback: float column scan (display only)
    a = float(q.coefficient((0, 2, 0)))
    upper: list[tuple[float, float] | None] = []
    lower: list[tuple[float, float] | None] = []
    for k in range(SAMPLE_COUNT + 1):
        u = canvas.xmin + (canvas.xmax - canvas.xmin) * k / SAMPLE_COUNT
        # q(u, v, 1) = a v^2 + bv(u) v + cv(u)
        bv = float(q.coefficient((1, 1, 0))) * u + float(q.coefficient((0, 1, 1)))
        cv = (
            float(q.coefficient((2, 0, 0))) * u * u
            + float(q.coefficient((1, 0, 1))) * u
            + float(q.coefficient((0, 0, 2)))
        )
        if a == 0:
            if bv != 0:
                v = -cv / bv
                upper.append((u, v))
                lower.append(None)
            else:
                upper.append(None)
                lower.append(None)
            continue
        disc = bv * bv - 4 * a * cv
        if disc < 0:
            upper.append(None)
            lower.append(None)
            continue
        root = disc**0.5
        upper.append((u, (-bv + root) / (2 * a)))
        lower.append((u, (-bv - root) / (2 * a)))
    return _polylines_from_chart_points(canvas, upper) + _polylines_from_chart_points(
        canvas, lower
    )


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
