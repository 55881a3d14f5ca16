"""Byte-deterministic SVG 1.1 rendering of evaluated figures.

The world y-axis points up (math orientation, base point V below the
diameter); SVG's points down, so the mapping to pixel space flips y.  The
canvas is 640 px wide, padded by 8 % of the content span.  There are no
options beyond `labels`, and the same figure always gives the same bytes.

A document is one `%` template filled with numbers only: floats for `%.2f` and the
polygon's vertex numbers for `V%d`.  Each point name, escaped for XML with every `%`
doubled, is written into its own label's template, and the closure-gap text into the
gap's, before the numbers go in.  `%.2f` prints what `fixed(v, 2)`, the exact rule,
prints except at ties and -0.00, and a document that holds one prints through `fixed`.
A tie at two decimals is (2k + 1)/200 for an integer k, and a double is a fraction
over a power of two, so a tie is a double only when 25 divides 2k + 1: it is an odd
multiple of 1/8.  `v * 8.0` is exact, or infinite only for a v that is an integer
already, so C picks out the multiples of 1/8 as the values whose product is an
integer, and only those are tested for `% 0.25 == 0.125`.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import chain, compress, repeat

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
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "%": "%%"})
# a character XML 1.0 cannot hold: a C0 control but tab, LF and CR, a surrogate, U+FFFE, U+FFFF;
# `re` compiles it at its first search, so a process that draws no label never pays for that
_NOT_XML = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"

# The element templates: every %.2f takes a float, every %d a vertex number.
_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
         'version="1.1" width="%.2f" height="%.2f" viewBox="0 0 %.2f %.2f">\n')
_CIRCLE = f'<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" {_STROKE}/>'
_LINE = f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" {_STROKE}/>'
_RECT = '<rect x="%%.2f" y="%%.2f" width="%.2f" height="%.2f" fill="#000000"/>' % (_MARKER, _MARKER)
_NAMED = _RECT + f'\n<text x="%.2f" y="%.2f" {_LABEL}>'  # a marker and its label, up to the name
_VERTEX = _NAMED + "V%d</text>"  # a polygon's k-th marker, labelled Vk
_POLYLINE = f'<polyline points="%s" fill="none" {_STROKE}/>'  # %s: one "%.2f,%.2f" per vertex
_GAP = f'<text x="8.00" y="16.00" {_LABEL}>closure gap %s rad</text>'  # %s: filled first


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
    ties (odd multiples of 1/8) and -0.00, so where one shows, `fixed` prints each float
    into a `%s`.  The template's `%%` are literal percent signs, never part of a `%.2f`."""
    text = template % tuple(values)
    eighths = compress(values, map(float.is_integer, map(operator.mul, values, repeat(8.0))))
    if "-0.00" in text or 0.125 in map(operator.mod, eighths, repeat(0.25)):
        texts = tuple([fixed(v, 2) if isinstance(v, float) else v for v in values])
        return "%%".join([part.replace("%.2f", "%s") for part in template.split("%%")]) % texts
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


def _marks(pixels, labels: bool, numbered: bool = False):
    """The values of a marker at each pixel pair, then of its label's corner if `labels`,
    then of the label's number, its index, if also `numbered`."""
    if not labels:
        return chain.from_iterable([(x - _HALF, y - _HALF) for x, y in pixels])
    if not numbered:
        return chain.from_iterable([(x - _HALF, y - _HALF, x + _OFFSET, y - _OFFSET) for x, y in pixels])
    return chain.from_iterable([(x - _HALF, y - _HALF, x + _OFFSET, y - _OFFSET, k)
                                for k, (x, y) in enumerate(pixels)])


def render_svg(fig: Figure, labels: bool = True) -> str:
    """Render a figure's curves and points as an SVG document string.

    Circles map to circle elements, infinite lines are clipped to the padded
    view, points become small square markers, labelled unless `labels` is
    false.  Measured scalars are not drawn.  A label whose name holds a
    character XML cannot hold is refused with a VesicaError.
    """
    points = fig.points
    if not points and not fig.curves:
        raise EmptyFigure("figure has no points or curves to render")
    if labels and re.search(_NOT_XML, "".join(points)):
        name = next(name for name in points if re.search(_NOT_XML, name))
        raise VesicaError(f"cannot draw the point name {name!r}: XML cannot hold "
                          f"{re.search(_NOT_XML, name)[0]!r}")
    canvas = _Canvas(_bounds_of(points.values(), fig.curves.values()))
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
    values += _marks(map(canvas.xy, points.values()), labels)
    if labels:
        body += [_NAMED + name.translate(_XML_ESCAPES) + "</text>" for name in points]
    else:
        body += [_RECT] * len(points)
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
    values += _marks(pixels[:n], labels, numbered=True)
    gap = fixed(result.closure_gap, 6)
    gap = gap if gap[0] == "-" else "+" + gap  # a gap printing as zero reads +0.000000
    polyline = _POLYLINE % " ".join(["%.2f,%.2f"] * (n + 1))
    marks = [_VERTEX if labels else _RECT] * n
    return canvas.document([_CIRCLE, polyline, *marks, _GAP % gap], values)
