"""Byte-deterministic SVG 1.1 rendering of evaluated figures.

The world y-axis points up (math orientation, base point V below the
diameter); SVG's points down, so the mapping to pixel space flips y.  The
canvas is 640 px wide, padded by 8 % of the content span.  There are no
options beyond `labels`: every number prints with two fraction digits through
the correctly rounded float formatter, exact integer arithmetic deciding ties
(half away from zero), and the same figure always gives the same bytes.
"""

from __future__ import annotations

import math
import operator

from .dsl import Figure
from .geometry import Circle, Line, Point, VesicaError, rotate
from .methods import PolygonResult

__all__ = ["EmptyFigure", "render_svg", "render_polygon", "fixed"]

_WIDTH_PX = 640
_MARGIN = 0.08  # padding as a fraction of the content span
_MARKER = 3.0 * 1.5  # side of a point's square marker: three stroke widths
_STROKE = 'stroke="#000000" stroke-width="1.50"'
_LABEL = 'font-family="monospace" font-size="12" fill="#555555"'
_DECIMALS = 2
_SVG_NS = 'xmlns="http://www.w3.org/2000/svg" version="1.1"'
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


class EmptyFigure(VesicaError):
    """Nothing to draw: the figure holds no points and no curves."""


def fixed(value: float, decimals: int) -> str:
    """Format with exactly `decimals` fraction digits, ties away from zero, never -0:
    floats by the correctly rounded formatter, ties, ints and -0 by exact integers."""
    if not math.isfinite(value):
        raise VesicaError(f"cannot format the non-finite value {value}")
    if operator.index(decimals) < 0:
        raise VesicaError(f"cannot format with {decimals} decimals")
    if type(value) is float:
        text = "%.*f" % (decimals, value)
        step = 2.0 ** -decimals  # ties are odd multiples of step / 2; none exist once step is 0.0
        if (text[0] != "-" or text.strip("-0.")) and (not step or value % step != step / 2):
            return text
    num, den = value.as_integer_ratio()
    units, rest = divmod(abs(num) * 10**decimals, den)
    if 2 * rest >= den:
        units += 1
    sign = "-" if num < 0 and units else ""
    digits = str(units).zfill(decimals + 1)
    cut = len(digits) - decimals
    return sign + digits[:cut] + ("." + digits[cut:] if decimals else "")


class _Canvas:
    """World-to-pixel mapping over a padded bounding box, y flipped."""
    _size = fixed(_MARKER, _DECIMALS)  # the side of every marker, formatted once

    def __init__(self, bounds: tuple[float, float, float, float]):
        x0, y0, x1, y1 = bounds
        span = max(x1 - x0, y1 - y0)
        if span <= 0.0:
            span = 2.0  # single point: give it a unit-radius neighborhood
            x0, x1 = x0 - 1.0, x1 + 1.0
            y0, y1 = y0 - 1.0, y1 + 1.0
        pad = _MARGIN * span
        self.x0, self.y0 = x0 - pad, y0 - pad
        self.x1, self.y1 = x1 + pad, y1 + pad
        self.scale = _WIDTH_PX / (self.x1 - self.x0)
        self.height = (self.y1 - self.y0) * self.scale
        if not (0.0 < self.scale < math.inf and self.height < math.inf):
            raise VesicaError(
                f"cannot scale a figure spanning x {bounds[0]!r}..{bounds[2]!r}, "
                f"y {bounds[1]!r}..{bounds[3]!r} to {_WIDTH_PX} px"
            )

    def xy(self, p: Point) -> tuple[float, float]:
        return (p.x - self.x0) * self.scale, (self.y1 - p.y) * self.scale

    def circle(self, center: Point, radius: float) -> str:
        cx, cy = self.xy(center)
        return (
            f'<circle cx="{fixed(cx, _DECIMALS)}" cy="{fixed(cy, _DECIMALS)}" '
            f'r="{fixed(radius * self.scale, _DECIMALS)}" fill="none" {_STROKE}/>'
        )

    def marker(self, name: str, p: Point, labels: bool) -> list[str]:
        cx, cy = self.xy(p)
        x, y = cx - _MARKER / 2, cy - _MARKER / 2
        out = [f'<rect x="{fixed(x, _DECIMALS)}" y="{fixed(y, _DECIMALS)}" '
               f'width="{self._size}" height="{self._size}" fill="#000000"/>']
        if labels:
            x, y = cx + (_MARKER + 2.0), cy - (_MARKER + 2.0)
            out.append(f'<text x="{fixed(x, _DECIMALS)}" y="{fixed(y, _DECIMALS)}" '
                       f"{_LABEL}>{name.translate(_XML_ESCAPES)}</text>")
        return out

    def document(self, body: list[str]) -> str:
        w, h = fixed(_WIDTH_PX, _DECIMALS), fixed(self.height, _DECIMALS)
        head = f'<svg {_SVG_NS} width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        return f'<?xml version="1.0" encoding="UTF-8"?>\n{head}\n' + "\n".join(body) + "\n</svg>\n"


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


def _clip_line(line: Line, box: tuple[float, float, float, float]) -> tuple[Point, Point]:
    """Clip an infinite line to a rectangle that holds its anchor `p`, as the
    padded canvas holds every anchor, so the clip is never empty."""
    x0, y0, x1, y1 = box
    px, py = line.p.x, line.p.y
    dx, dy = line.q.x - px, line.q.y - py
    t_low, t_high = -math.inf, math.inf
    for delta, start, lo, hi in ((dx, px, x0, x1), (dy, py, y0, y1)):
        if delta != 0.0:
            ta, tb = sorted(((lo - start) / delta, (hi - start) / delta))
            t_low, t_high = max(t_low, ta), min(t_high, tb)
    return (
        Point(px + t_low * dx, py + t_low * dy),
        Point(px + t_high * dx, py + t_high * dy),
    )


def render_svg(fig: Figure, labels: bool = True) -> str:
    """Render a figure's curves and points as an SVG document string.

    Circles map to circle elements, infinite lines are clipped to the padded
    view, points become small square markers, labelled unless `labels` is
    false.  Measured scalars are not drawn.
    """
    if not fig.points and not fig.curves:
        raise EmptyFigure("figure has no points or curves to render")
    canvas = _Canvas(_bounds_of(fig.points.values(), fig.curves.values()))
    body: list[str] = []
    for curve in fig.curves.values():
        if isinstance(curve, Circle):
            body.append(canvas.circle(curve.center, curve.radius))
            continue
        clipped = _clip_line(curve, (canvas.x0, canvas.y0, canvas.x1, canvas.y1))
        (ax, ay), (bx, by) = map(canvas.xy, clipped)
        body.append(
            f'<line x1="{fixed(ax, _DECIMALS)}" y1="{fixed(ay, _DECIMALS)}" '
            f'x2="{fixed(bx, _DECIMALS)}" y2="{fixed(by, _DECIMALS)}" {_STROKE}/>'
        )
    for name, point in fig.points.items():
        body.extend(canvas.marker(name, point, labels))
    return canvas.document(body)


def render_polygon(result: PolygonResult, labels: bool = True) -> str:
    """Render an approximate n-gon on its circle, closure gap annotated.

    Draws n edges: the final edge steps once more by the step angle, so the
    mismatch against the starting vertex is the visible closure gap.
    """
    canvas = _Canvas((-1.0, -1.0, 1.0, 1.0))
    body = [canvas.circle(Point(0.0, 0.0), 1.0)]
    n = len(result.vertices)
    ring = list(result.vertices) + [rotate(result.vertices[0], Point(0.0, 0.0), n * result.step_angle)]
    pairs = map(canvas.xy, ring)
    points_attr = " ".join(f"{fixed(x, _DECIMALS)},{fixed(y, _DECIMALS)}" for x, y in pairs)
    body.append(f'<polyline points="{points_attr}" fill="none" {_STROKE}/>')
    for k, v in enumerate(result.vertices):
        body.extend(canvas.marker(f"V{k}", v, labels))
    gap = fixed(result.closure_gap, 6)
    gap = gap if gap[0] == "-" else "+" + gap  # a gap printing as zero reads +0.000000
    body.append(f'<text x="8.00" y="16.00" {_LABEL}>closure gap {gap} rad</text>')
    return canvas.document(body)
