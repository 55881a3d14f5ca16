"""Byte-deterministic SVG 1.1 rendering of evaluated figures.

The world y-axis points up (math orientation, base point V below the
diameter); SVG's points down, so the mapping to pixel space flips y.  All
printed numbers carry exactly `decimals` fraction digits with ties rounded
half away from zero, object order follows figure insertion order, and the
same (figure, options) pair always produces identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP, localcontext

from .dsl import Figure
from .geometry import Circle, Line, Point, VesicaError
from .methods import PolygonResult

__all__ = ["RenderOptions", "EmptyFigure", "render_svg", "render_polygon", "fixed"]


class EmptyFigure(VesicaError):
    """Nothing to draw: the figure holds no points and no curves."""


@dataclass(frozen=True, slots=True)
class RenderOptions:
    width_px: int = 640
    margin: float = 0.08          # padding as a fraction of the content span
    stroke_width: float = 1.5
    label_points: bool = True
    decimals: int = 2

    def __post_init__(self) -> None:
        if self.width_px <= 0:
            raise VesicaError(f"width_px must be positive, got {self.width_px}")
        if not 0.0 <= self.margin <= 0.4:
            raise VesicaError(f"margin must be in [0, 0.4], got {self.margin}")
        if self.stroke_width <= 0:
            raise VesicaError(f"stroke_width must be positive, got {self.stroke_width}")
        if not 0 <= self.decimals <= 15:
            raise VesicaError(f"decimals must be in [0, 15], got {self.decimals}")


def fixed(value: float, decimals: int) -> str:
    """Format with exactly `decimals` fraction digits, ties away from zero."""
    if not math.isfinite(value):
        raise VesicaError(f"cannot format the non-finite value {value}")
    exponent = Decimal(1).scaleb(-decimals)
    with localcontext() as ctx:
        ctx.prec = 340  # any finite double (<= ~1.8e308) plus 15 fraction digits
        quantized = Decimal(value).quantize(exponent, rounding=ROUND_HALF_UP)
    if quantized == 0:
        quantized = quantized.copy_abs()  # never print -0.00
    return format(quantized, "f")


class _Canvas:
    """World-to-pixel mapping over a padded bounding box, y flipped."""

    def __init__(self, bounds: tuple[float, float, float, float], opts: RenderOptions):
        x0, y0, x1, y1 = bounds
        span = max(x1 - x0, y1 - y0)
        if span <= 0.0:
            span = 2.0  # single point: give it a unit-radius neighborhood
            x0, x1 = x0 - 1.0, x1 + 1.0
            y0, y1 = y0 - 1.0, y1 + 1.0
        pad = opts.margin * span
        self.x0, self.y0 = x0 - pad, y0 - pad
        self.x1, self.y1 = x1 + pad, y1 + pad
        self.scale = opts.width_px / (self.x1 - self.x0)
        self.width = opts.width_px
        self.height = (self.y1 - self.y0) * self.scale
        self.decimals = opts.decimals
        # A flat figure drawn with margin 0 keeps its height of 0.
        if not (0.0 < self.scale < math.inf and self.height < math.inf):
            raise VesicaError(
                f"cannot scale a figure spanning x {bounds[0]!r}..{bounds[2]!r}, "
                f"y {bounds[1]!r}..{bounds[3]!r} to {opts.width_px} px"
            )

    def px(self, x: float) -> str:
        return fixed((x - self.x0) * self.scale, self.decimals)

    def py(self, y: float) -> str:
        return fixed((self.y1 - y) * self.scale, self.decimals)

    def length(self, r: float) -> str:
        return fixed(r * self.scale, self.decimals)


def _bounds_of(points, curves) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for p in points:
        xs.append(p.x)
        ys.append(p.y)
    for curve in curves:
        if isinstance(curve, Circle):
            xs += [curve.center.x - curve.radius, curve.center.x + curve.radius]
            ys += [curve.center.y - curve.radius, curve.center.y + curve.radius]
        else:
            xs += [curve.p.x, curve.q.x]
            ys += [curve.p.y, curve.q.y]
    return min(xs), min(ys), max(xs), max(ys)


def _clip_line(line: Line, box: tuple[float, float, float, float]):
    """Clip an infinite line to a rectangle; returns endpoints or None."""
    x0, y0, x1, y1 = box
    px, py = line.p.x, line.p.y
    dx, dy = line.q.x - px, line.q.y - py
    t_low, t_high = -math.inf, math.inf
    for delta, start, lo, hi in ((dx, px, x0, x1), (dy, py, y0, y1)):
        if delta == 0.0:
            if not lo <= start <= hi:
                return None
            continue
        ta, tb = (lo - start) / delta, (hi - start) / delta
        if ta > tb:
            ta, tb = tb, ta
        t_low, t_high = max(t_low, ta), min(t_high, tb)
    if t_low > t_high:
        return None
    return (
        Point(px + t_low * dx, py + t_low * dy),
        Point(px + t_high * dx, py + t_high * dy),
    )


_DOC_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)


def _document(canvas: _Canvas, body: list[str]) -> str:
    w = fixed(canvas.width, canvas.decimals)
    h = fixed(canvas.height, canvas.decimals)
    return _DOC_OPEN.format(w=w, h=h) + "\n".join(body) + "\n</svg>\n"


def _marker(name: str, p: Point, canvas: _Canvas, opts: RenderOptions) -> list[str]:
    size = 3.0 * opts.stroke_width
    cx = (p.x - canvas.x0) * canvas.scale
    cy = (canvas.y1 - p.y) * canvas.scale
    d = canvas.decimals
    out = [
        f'<rect x="{fixed(cx - size / 2, d)}" y="{fixed(cy - size / 2, d)}" '
        f'width="{fixed(size, d)}" height="{fixed(size, d)}" fill="#000000"/>'
    ]
    if opts.label_points:
        offset = size + 2.0
        out.append(
            f'<text x="{fixed(cx + offset, d)}" y="{fixed(cy - offset, d)}" '
            f'font-family="monospace" font-size="12" fill="#555555">{name}</text>'
        )
    return out


def render_svg(fig: Figure, opts: RenderOptions = RenderOptions()) -> str:
    """Render a figure's curves and points as an SVG document string.

    Circles map to circle elements, infinite lines are clipped to the padded
    view, points become small square markers (optionally labelled).  Measured
    scalars are not drawn.
    """
    if not fig.points and not fig.curves:
        raise EmptyFigure("figure has no points or curves to render")
    canvas = _Canvas(_bounds_of(fig.points.values(), fig.curves.values()), opts)
    stroke = f'stroke="#000000" stroke-width="{fixed(opts.stroke_width, canvas.decimals)}"'
    body: list[str] = []
    for curve in fig.curves.values():
        if isinstance(curve, Circle):
            body.append(
                f'<circle cx="{canvas.px(curve.center.x)}" cy="{canvas.py(curve.center.y)}" '
                f'r="{canvas.length(curve.radius)}" fill="none" {stroke}/>'
            )
        else:
            clipped = _clip_line(curve, (canvas.x0, canvas.y0, canvas.x1, canvas.y1))
            if clipped is None:
                continue
            a, b = clipped
            body.append(
                f'<line x1="{canvas.px(a.x)}" y1="{canvas.py(a.y)}" '
                f'x2="{canvas.px(b.x)}" y2="{canvas.py(b.y)}" {stroke}/>'
            )
    for name, point in fig.points.items():
        body.extend(_marker(name, point, canvas, opts))
    return _document(canvas, body)


def render_polygon(result: PolygonResult, opts: RenderOptions = RenderOptions()) -> str:
    """Render an approximate n-gon on its circle, closure gap annotated.

    Draws n edges: the final edge steps once more by the step angle, so the
    mismatch against the starting vertex is the visible closure gap.
    """
    center = Point(0.0, 0.0)
    canvas = _Canvas((-1.0, -1.0, 1.0, 1.0), opts)
    d = canvas.decimals
    stroke = f'stroke="#000000" stroke-width="{fixed(opts.stroke_width, d)}"'
    body = [
        f'<circle cx="{canvas.px(center.x)}" cy="{canvas.py(center.y)}" '
        f'r="{canvas.length(1.0)}" fill="none" {stroke}/>'
    ]
    n = len(result.vertices)
    closing = math.cos(n * result.step_angle), math.sin(n * result.step_angle)
    ring = list(result.vertices) + [Point(-closing[0], -closing[1])]
    points_attr = " ".join(f"{canvas.px(v.x)},{canvas.py(v.y)}" for v in ring)
    body.append(f'<polyline points="{points_attr}" fill="none" {stroke}/>')
    for k, v in enumerate(result.vertices):
        body.extend(_marker(f"V{k}", v, canvas, opts))
    gap = ("+" if result.closure_gap >= 0 else "") + fixed(result.closure_gap, 6)
    body.append(
        f'<text x="{fixed(8.0, d)}" y="{fixed(16.0, d)}" font-family="monospace" '
        f'font-size="12" fill="#555555">closure gap {gap} rad</text>'
    )
    return _document(canvas, body)
