"""Deterministic 2D primitives for ruler-and-compass constructions.

Points, lines, circles, their intersections, unsigned angles, segment
division and rotation.  All lengths are expressed in units of the governing
circle's radius, which keeps every construction at unit scale where double
precision carries ~1e-13 of noise at worst.  Every operation is a pure
function of its arguments and returns bit-identical results on repeated
calls, so intersection lists can be indexed deterministically.
"""

from __future__ import annotations

import math

# Geometric coincidence threshold: below this, coordinates/lengths are
# treated as equal.  Every comparison in the kernel reads it.
EPS_GEOM = 1e-9


class VesicaError(ValueError):
    """Root of every error vesica raises for input it cannot handle: a bad
    argument, a malformed program, a failed construction, a size bound."""


class GeometryError(VesicaError):
    """Base class for geometric failure modes."""


class CoincidentCurves(GeometryError):
    """Two curves are the same object: infinitely many intersections."""


class DegenerateAngle(GeometryError):
    """Angle requested with a leg endpoint falling on the vertex."""


class BadIndex(GeometryError):
    """Segment division index outside [0, n] (or n < 1)."""


class _Record:
    """Immutable value whose fields are slots, in declaration order.

    Behaves as a frozen dataclass: one constructor takes each field once, by
    position or keyword; __eq__ is field-wise within one class, __hash__ that
    of the field tuple; the repr is ``Name(field=value, ...)``; fields match
    by position and are read-only.  The field names are ``__match_args__``:
    a subclass's are its parent's, then any slots it adds, so one declaring
    ``__slots__ = ()`` keeps its parent's fields, and ``_stores`` holds each
    field's bound slot setter, taken from the subclass.

    A record that checks its arguments, or that is built by the thousand,
    has its own __init__ that stores through those setters, a call cheaper
    than this constructor's.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        inherited = getattr(cls, "__match_args__", ())
        added = tuple([name for name in cls.__dict__.get("__slots__", ()) if name not in inherited])
        cls.__match_args__ = fields = inherited + added
        cls._stores = tuple([getattr(cls, name).__set__ for name in fields])

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args += tuple([kwargs.pop(name) for name in fields[len(args):] if name in kwargs])
            if kwargs or len(args) != len(fields):
                raise TypeError(f"{type(self).__qualname__}() takes {', '.join(fields)} once each")
        stores, i = self._stores, 0
        for value in args:  # indexed by hand: faster than zip or enumerate here
            stores[i](self, value)
            i += 1

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return self.__class__, self._fields()


class Point(_Record):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise VesicaError(f"point coordinates must be finite, got ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)


class Line(_Record):
    """Infinite line through two distinct anchor points."""

    __slots__ = ("p", "q")

    def __init__(self, p: Point, q: Point) -> None:
        if distance(p, q) <= EPS_GEOM:
            raise VesicaError(f"line anchors coincide: {p} and {q}")
        _set_p(self, p)
        _set_q(self, q)


class Circle(_Record):
    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float) -> None:
        if not math.isfinite(radius) or radius <= EPS_GEOM:
            raise VesicaError(f"circle radius must be positive, got {radius}")
        _set_center(self, center)
        _set_radius(self, radius)


# Bound setters as globals: the kernel builds a Point per intersection.
_set_x, _set_y = Point._stores
_set_p, _set_q = Line._stores
_set_center, _set_radius = Circle._stores


Curve = Line | Circle


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q.x - p.x, q.y - p.y)


def angle(vertex: Point, p: Point, q: Point) -> float:
    """Unsigned angle between rays vertex->p and vertex->q, in [0, pi].

    Computed as atan2(|cross|, dot) of the two leg vectors.  This stays fully
    conditioned near 0 and pi, where acos of a normalized dot product loses
    half the significand.  Symmetric in p and q.  Raises GeometryError when
    cross or dot overflows, as an infinite one no longer fixes the angle.
    """
    ux, uy = p.x - vertex.x, p.y - vertex.y
    wx, wy = q.x - vertex.x, q.y - vertex.y
    if math.hypot(ux, uy) <= EPS_GEOM or math.hypot(wx, wy) <= EPS_GEOM:
        raise DegenerateAngle(f"angle leg collapses onto vertex {vertex}")
    cross = ux * wy - uy * wx
    dot = ux * wx + uy * wy
    if not (math.isfinite(cross) and math.isfinite(dot)):
        raise GeometryError(f"angle legs from vertex {vertex} are too long to measure")
    return math.atan2(abs(cross), dot)


def divide_segment(p: Point, q: Point, n: int, k: int) -> Point:
    """Point at parameter k/n along the segment from p to q.

    k = 0 returns exactly p and k = n exactly q (the two-product form of the
    interpolation guarantees this in floating point).
    """
    if distance(p, q) <= EPS_GEOM:
        raise VesicaError(f"cannot divide a degenerate segment at {p}")
    if n < 1:
        raise BadIndex(f"segment must be divided into at least 1 part, got n={n}")
    if not 0 <= k <= n:
        raise BadIndex(f"division index k={k} outside [0, {n}]")
    t = k / n
    s = 1.0 - t
    return Point(p.x * s + q.x * t, p.y * s + q.y * t)


def rotate(p: Point, center: Point, theta: float) -> Point:
    """Rotate p about center by theta radians (counterclockwise positive)."""
    if not math.isfinite(theta):
        raise VesicaError(f"rotation angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + dx * c - dy * s, center.y + dx * s + dy * c)


def intersect(a: Curve, b: Curve) -> list[Point]:
    """Intersection points of two curves, sorted ascending by (x, y).

    Returns 0, 1 or 2 points.  Tangency is snapped: a discriminant within
    EPS_GEOM of zero counts as exactly zero and yields a single point.
    Coordinates are compared at EPS_GEOM when ordering the result.

    The two arguments are put into a canonical order internally, so
    intersect(a, b) and intersect(b, a) run the same arithmetic and return
    bit-identical lists.

    Raises CoincidentCurves when a and b are the same line or same circle,
    GeometryError when two circles lie too far out to square their coordinates.
    """
    if isinstance(a, Line):
        if isinstance(b, Line):
            return _line_line(*_canonical_pair(a, b, _line_key))
        return _implicit_line_circle(_implicit(a), b)
    if isinstance(b, Line):
        return _implicit_line_circle(_implicit(b), a)
    return _circle_circle(*_canonical_pair(a, b, _circle_key))


def _line_key(line: Line) -> tuple[float, float, float, float]:
    return (line.p.x, line.p.y, line.q.x, line.q.y)


def _circle_key(circle: Circle) -> tuple[float, float, float]:
    return (circle.center.x, circle.center.y, circle.radius)


def _canonical_pair(a, b, key):
    return (a, b) if key(a) <= key(b) else (b, a)


def _implicit(line: Line) -> tuple[float, float, float]:
    """Coefficients (A, B, C) with Ax + By + C = 0 through the anchors."""
    a = line.q.y - line.p.y
    b = line.p.x - line.q.x
    c = -(a * line.p.x + b * line.p.y)
    return a, b, c


def _point_line_distance(coeffs: tuple[float, float, float], p: Point) -> float:
    a, b, c = coeffs
    return abs(a * p.x + b * p.y + c) / math.hypot(a, b)


def _line_line(l1: Line, l2: Line) -> list[Point]:
    a1, b1, c1 = _implicit(l1)
    a2, b2, c2 = _implicit(l2)
    det = a1 * b2 - a2 * b1
    # Parallelism judged on unit directions so long anchors don't skew it.
    if abs(det) / (math.hypot(a1, b1) * math.hypot(a2, b2)) <= EPS_GEOM:
        if _point_line_distance((a1, b1, c1), l2.p) <= EPS_GEOM:
            raise CoincidentCurves(f"lines {l1} and {l2} coincide")
        return []
    x = (b1 * c2 - b2 * c1) / det
    y = (c1 * a2 - c2 * a1) / det
    return [Point(x, y)]


def _implicit_line_circle(coeffs: tuple[float, float, float], circle: Circle) -> list[Point]:
    a, b, c = coeffs
    cx, cy = circle.center.x, circle.center.y
    n2 = a * a + b * b
    # Signed offset of the center from the line, scaled by the normal.
    f = (a * cx + b * cy + c) / n2
    fx, fy = cx - a * f, cy - b * f  # the foot of the perpendicular from the center
    disc = circle.radius * circle.radius - f * f * n2
    if abs(disc) < EPS_GEOM or not (math.isfinite(fx) and math.isfinite(fy)):
        return [Point(fx, fy)]  # the tangent point; Point refuses a foot past a float's range
    if disc < 0.0:
        return []
    s = math.sqrt(disc / n2)
    return _ordered(Point(fx - b * s, fy + a * s), Point(fx + b * s, fy - a * s))


def _circle_circle(c1: Circle, c2: Circle) -> list[Point]:
    d = distance(c1.center, c2.center)
    if d <= EPS_GEOM:
        if abs(c1.radius - c2.radius) <= EPS_GEOM:
            raise CoincidentCurves(f"circles {c1} and {c2} coincide")
        return []  # concentric, distinct radii
    # Radical line of the two circles, then one well-tested quadratic path.
    a = 2.0 * (c2.center.x - c1.center.x)
    b = 2.0 * (c2.center.y - c1.center.y)
    try:  # float ** 2 raises OverflowError past ~1.3e154 instead of returning inf
        c = (c1.center.x ** 2 + c1.center.y ** 2 - c1.radius ** 2) - (
            c2.center.x ** 2 + c2.center.y ** 2 - c2.radius ** 2
        )
    except OverflowError:
        raise GeometryError(f"circles {c1} and {c2} are too large to intersect") from None
    return _implicit_line_circle((a, b, c), c1)


def _ordered(p1: Point, p2: Point) -> list[Point]:
    """Sort two points ascending by (x, y), comparing coordinates at EPS_GEOM."""
    if abs(p1.x - p2.x) > EPS_GEOM:
        return [p1, p2] if p1.x < p2.x else [p2, p1]
    if abs(p1.y - p2.y) > EPS_GEOM:
        return [p1, p2] if p1.y < p2.y else [p2, p1]
    return [p1, p2]
