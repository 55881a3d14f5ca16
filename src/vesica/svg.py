"""Byte-deterministic SVG 1.1 rendering of evaluated figures.

The world y-axis points up (math orientation, base point V below the
diameter); SVG's points down, so the mapping to pixel space flips y.  The
canvas is 640 px wide, padded by 8 % of the content span.  There are no
options beyond `labels`, and the same figure always gives the same bytes.
Elements print through `%` templates with `%.2f` numbers, which match `fixed(v, 2)`,
the exact rule, except at ties and -0.00; a fill that holds one prints through `fixed`.
"""

from __future__ import annotations

import math
import operator
from itertools import chain

from .dsl import Figure
from .geometry import Circle, Line, Point, VesicaError, rotate
from .methods import PolygonResult

__all__ = ["EmptyFigure", "render_svg", "render_polygon", "fixed"]

_WIDTH_PX = 640.0
_MARGIN = 0.08  # padding as a fraction of the content span
_MARKER = 3.0 * 1.5  # side of a point's square marker: three stroke widths
_HALF, _OFFSET = _MARKER / 2, _MARKER + 2.0  # a marker's corner and its label, off the point
_STROKE = 'stroke="#000000" stroke-width="1.50"'
_LABEL = 'font-family="monospace" font-size="12" fill="#555555"'
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

# The element templates: every %.2f takes a float, every %s an escaped name.
_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
         'version="1.1" width="%.2f" height="%.2f" viewBox="0 0 %.2f %.2f">\n')
_CIRCLE = f'<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" {_STROKE}/>'
_LINE = f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" {_STROKE}/>'
_RECT = '<rect x="%%.2f" y="%%.2f" width="%.2f" height="%.2f" fill="#000000"/>' % (_MARKER, _MARKER)
_NAMED = _RECT + f'\n<text x="%.2f" y="%.2f" {_LABEL}>%s</text>'  # a marker and its label
_VERTEX = _NAMED.replace(">%s<", ">V%d<")  # a polygon's k-th marker, labelled Vk
_POLYLINE = f'<polyline points="%s" fill="none" {_STROKE}/>'  # %s: one "%.2f,%.2f" per vertex
_GAP = f'<text x="8.00" y="16.00" {_LABEL}>closure gap %s rad</text>'


class EmptyFigure(VesicaError):
    """Nothing to draw: the figure holds no points and no curves."""


def fixed(value: float, decimals: int) -> str:
    """Format with exactly `decimals` fraction digits, ties away from zero, never -0:
    floats by the correctly rounded formatter, ties, ints and -0 by exact integers.
    This is the exact rule for every SVG number, and the renderers' fallback."""
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


def _numbers(template: str, values: list) -> str:
    """`template % values`, each float as `fixed(v, 2)` prints it: `%.2f` does but for
    ties (odd multiples of 1/8) and -0.00, so where one shows, `fixed` prints each float."""
    text = template % tuple(values)
    if "-0.00" in text or any(isinstance(v, float) and v % 0.25 == 0.125 for v in values):
        texts = [fixed(v, 2) if isinstance(v, float) else v for v in values]
        return template.replace("%.2f", "%s") % tuple(texts)
    return text


class _Canvas:
    """World-to-pixel mapping over a padded bounding box, y flipped."""

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
        # a span below 1 ulp of x0 pads nothing, which leaves no width
        self.scale = _WIDTH_PX / (self.x1 - self.x0) if self.x1 > self.x0 else math.inf
        self.height = (self.y1 - self.y0) * self.scale
        if not (0.0 < self.scale < math.inf and self.height < math.inf):
            raise VesicaError(f"cannot scale a figure spanning x {bounds[0]!r}..{bounds[2]!r}, "
                              f"y {bounds[1]!r}..{bounds[3]!r} to {_WIDTH_PX:.0f} px")

    def xy(self, p: Point) -> tuple[float, float]:
        return (p.x - self.x0) * self.scale, (self.y1 - p.y) * self.scale

    def document(self, body: list[str], values: list) -> str:
        """The head and the body's templates filled with `values`."""
        head = [_WIDTH_PX, self.height, _WIDTH_PX, self.height]
        return _numbers(_HEAD + "\n".join(body), head + values) + "\n</svg>\n"


def _bounds_of(points, curves) -> tuple[float, float, float, float]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
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
    return Point(px + t_low * dx, py + t_low * dy), Point(px + t_high * dx, py + t_high * dy)


def _marks(pixels, names):
    """The values of a marker at each pixel pair, then of its label if `names` is given."""
    if names is None:
        return chain.from_iterable([(x - _HALF, y - _HALF) for x, y in pixels])
    return chain.from_iterable([(x - _HALF, y - _HALF, x + _OFFSET, y - _OFFSET, name)
                                for (x, y), name in zip(pixels, names)])


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
    values: list = []
    box = (canvas.x0, canvas.y0, canvas.x1, canvas.y1)
    for curve in fig.curves.values():
        if isinstance(curve, Circle):
            body.append(_CIRCLE)
            values += (*canvas.xy(curve.center), curve.radius * canvas.scale)
        else:  # filled alone, as a clipped end may print -0.00; the text holds no %
            a, b = _clip_line(curve, box)
            body.append(_numbers(_LINE, [*canvas.xy(a), *canvas.xy(b)]))
    names = [name.translate(_XML_ESCAPES) for name in fig.points] if labels else None
    values += _marks(map(canvas.xy, fig.points.values()), names)
    body += [_NAMED if labels else _RECT] * len(fig.points)
    return canvas.document(body, values)


def render_polygon(result: PolygonResult, labels: bool = True) -> str:
    """Render an approximate n-gon on its circle, closure gap annotated.

    Draws n edges: the final edge steps once more by the step angle, so the
    mismatch against the starting vertex is the visible closure gap.
    """
    canvas = _Canvas((-1.0, -1.0, 1.0, 1.0))
    n = len(result.vertices)
    ring = [*result.vertices, rotate(result.vertices[0], Point(0.0, 0.0), n * result.step_angle)]
    pixels = list(map(canvas.xy, ring))  # each vertex's pixel pair, for the ring and its marker
    values = [*canvas.xy(Point(0.0, 0.0)), canvas.scale, *chain.from_iterable(pixels)]
    values += _marks(pixels[:n], range(n) if labels else None)
    gap = fixed(result.closure_gap, 6)
    gap = gap if gap[0] == "-" else "+" + gap  # a gap printing as zero reads +0.000000
    polyline = _POLYLINE % " ".join(["%.2f,%.2f"] * (n + 1))
    marks = [_VERTEX if labels else _RECT] * n
    return canvas.document([_CIRCLE, polyline, *marks, _GAP], [*values, gap])
