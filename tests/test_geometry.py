import importlib
import math
import pkgutil

import pytest
from hypothesis import assume, given, strategies as st

import vesica
from vesica.geometry import (
    BadIndex,
    Circle,
    CoincidentCurves,
    DegenerateAngle,
    GeometryError,
    Line,
    Point,
    VesicaError,
    angle,
    distance,
    divide_segment,
    intersect,
    rotate,
)

SQRT3 = math.sqrt(3.0)


# --- error hierarchy ------------------------------------------------------------

def test_every_exported_exception_is_a_vesica_error():
    exported = [getattr(vesica, name) for name in dir(vesica) if not name.startswith("_")]
    for info in pkgutil.iter_modules(vesica.__path__):
        module = importlib.import_module(f"vesica.{info.name}")
        exported += [getattr(module, name) for name in getattr(module, "__all__", ())]
    errors = {x for x in exported if isinstance(x, type) and issubclass(x, BaseException)}
    assert {vesica.GeometryError, vesica.ParseError, vesica.EmptyFigure} <= errors
    assert sorted(e.__name__ for e in errors if not issubclass(e, VesicaError)) == []


# --- construction validation --------------------------------------------------

def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_line_rejects_coincident_anchors():
    with pytest.raises(ValueError):
        Line(Point(1.0, 1.0), Point(1.0, 1.0))


def test_circle_rejects_tiny_radius():
    with pytest.raises(ValueError):
        Circle(Point(0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Circle(Point(0.0, 0.0), 1e-12)


# --- intersect ------------------------------------------------------------------

def test_vesica_circles_intersect_at_sqrt3():
    pts = intersect(Circle(Point(-1, 0), 2.0), Circle(Point(1, 0), 2.0))
    assert len(pts) == 2
    assert pts[0].x == pytest.approx(0.0, abs=1e-15)
    assert pts[0].y == pytest.approx(-SQRT3, abs=1e-15)
    assert pts[1].y == pytest.approx(SQRT3, abs=1e-15)


def test_diameter_line_hits_unit_circle():
    pts = intersect(Line(Point(0, -2), Point(0, 2)), Circle(Point(0, 0), 1.0))
    assert [(p.x, p.y) for p in pts] == [(0.0, -1.0), (0.0, 1.0)]


def test_tangent_line_snaps_to_one_point():
    pts = intersect(Line(Point(-2, 1), Point(2, 1)), Circle(Point(0, 0), 1.0))
    assert len(pts) == 1
    assert (pts[0].x, pts[0].y) == (0.0, 1.0)


def test_disjoint_circles_do_not_intersect():
    assert intersect(Circle(Point(0, 0), 1.0), Circle(Point(5, 0), 1.0)) == []


def test_line_line_crossing_and_parallel():
    h = Line(Point(-1, 0), Point(1, 0))
    v = Line(Point(0, -1), Point(0, 1))
    (p,) = intersect(h, v)
    assert (p.x, p.y) == (0.0, 0.0)
    assert intersect(h, Line(Point(-1, 1), Point(1, 1))) == []


def test_coincident_curves_raise():
    c = Circle(Point(0, 0), 1.0)
    with pytest.raises(CoincidentCurves):
        intersect(c, Circle(Point(0, 0), 1.0))
    with pytest.raises(CoincidentCurves):
        intersect(Line(Point(0, 0), Point(1, 0)), Line(Point(2, 0), Point(3, 0)))


def test_circles_too_far_out_to_square_raise():
    # float ** 2 overflows past ~1.3e154; the kernel reports that as a GeometryError.
    with pytest.raises(GeometryError, match="too large to intersect"):
        intersect(Circle(Point(1e200, 0), 1e200), Circle(Point(0, 0), 1e200))
    assert len(intersect(Circle(Point(1e150, 0), 1e150), Circle(Point(0, 0), 1e150))) == 2


def test_concentric_distinct_circles_are_disjoint():
    assert intersect(Circle(Point(0, 0), 1.0), Circle(Point(0, 0), 2.0)) == []


def test_internally_tangent_circles():
    pts = intersect(Circle(Point(0, 0), 2.0), Circle(Point(1, 0), 1.0))
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(2.0, abs=1e-9)
    assert pts[0].y == pytest.approx(0.0, abs=1e-9)


# --- angle ----------------------------------------------------------------------

def test_angle_hexagon_step_is_pi_over_3():
    got = angle(Point(0, 0), Point(-1, 0), Point(-0.5, SQRT3 / 2))
    assert got == pytest.approx(math.pi / 3, abs=1e-15)


def test_angle_degenerate_extremes():
    assert angle(Point(0, 0), Point(1, 0), Point(1, 0)) == 0.0
    assert angle(Point(0, 0), Point(1, 0), Point(-1, 0)) == pytest.approx(math.pi)


def test_angle_rejects_vertex_on_leg():
    with pytest.raises(DegenerateAngle):
        angle(Point(0, 0), Point(0, 0), Point(1, 0))


def test_angle_stable_near_zero():
    # acos of a normalized dot would lose half the digits here
    got = angle(Point(0, 0), Point(1, 0), Point(1, 1e-9))
    assert got == pytest.approx(1e-9, rel=1e-6)


# --- divide_segment -------------------------------------------------------------

def test_divide_second_of_nine():
    p = divide_segment(Point(-1, 0), Point(1, 0), 9, 2)
    assert p.x == pytest.approx(-5 / 9, abs=1e-15)
    assert p.y == 0.0


def test_divide_midpoint_and_endpoints_exact():
    assert divide_segment(Point(-1, 0), Point(1, 0), 2, 1) == Point(0.0, 0.0)
    assert divide_segment(Point(0, 0), Point(3, 0), 3, 3) == Point(3.0, 0.0)
    assert divide_segment(Point(0.1, 0.7), Point(0.3, -0.2), 7, 0) == Point(0.1, 0.7)
    assert divide_segment(Point(0.1, 0.7), Point(0.3, -0.2), 7, 7) == Point(0.3, -0.2)


def test_divide_bad_indices():
    with pytest.raises(BadIndex):
        divide_segment(Point(0, 0), Point(1, 0), 9, 10)
    with pytest.raises(BadIndex):
        divide_segment(Point(0, 0), Point(1, 0), 9, -1)
    with pytest.raises(BadIndex):
        divide_segment(Point(0, 0), Point(1, 0), 0, 0)
    with pytest.raises(ValueError):
        divide_segment(Point(0, 0), Point(0, 0), 2, 1)


# --- rotate / distance ----------------------------------------------------------

def test_rotate_quarter_turn():
    p = rotate(Point(1, 0), Point(0, 0), math.pi / 2)
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)


def test_rotate_full_turn_returns_home():
    p = rotate(Point(1, 0), Point(0, 0), 2 * math.pi)
    assert p.x == pytest.approx(1.0, abs=1e-15)
    assert p.y == pytest.approx(0.0, abs=1e-15)


def test_rotate_by_hexagon_angle():
    from vesica.methods import bion_angle

    p = rotate(Point(-1, 0), Point(0, 0), bion_angle(6))
    assert p.x == pytest.approx(-0.5, abs=1e-12)
    assert p.y == pytest.approx(-SQRT3 / 2, abs=1e-12)  # counterclockwise from west


def test_distance_examples():
    assert distance(Point(0, 0), Point(0, SQRT3)) == SQRT3
    assert distance(Point(0.3, -0.4), Point(0.3, -0.4)) == 0.0
    assert distance(Point(-1, 0), Point(1, 0)) == 2.0


# --- properties -----------------------------------------------------------------

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False, allow_subnormal=False)
points = st.builds(Point, coords, coords)
radii = st.floats(0.1, 30, allow_nan=False, allow_infinity=False)
circles = st.builds(Circle, points, radii)
lines = st.builds(
    lambda p, q: Line(p, q) if distance(p, q) > 1e-3 else None, points, points
).filter(lambda x: x is not None)
curves = st.one_of(lines, circles)


def _intersect_or_discard(a, b):
    try:
        return intersect(a, b)
    except CoincidentCurves:
        assume(False)


@given(a=curves, b=curves)
def test_intersection_is_symmetric(a, b):
    assert _intersect_or_discard(a, b) == _intersect_or_discard(b, a)


@given(a=curves, b=curves)
def test_intersections_lie_on_both_curves(a, b):
    for p in _intersect_or_discard(a, b):
        for curve in (a, b):
            if isinstance(curve, Circle):
                assert abs(distance(p, curve.center) - curve.radius) <= 1e-7
            else:
                dx, dy = curve.q.x - curve.p.x, curve.q.y - curve.p.y
                off = abs(dx * (p.y - curve.p.y) - dy * (p.x - curve.p.x))
                assert off / math.hypot(dx, dy) <= 1e-7


@given(a=curves, b=curves)
def test_intersection_ordering_is_deterministic(a, b):
    first = _intersect_or_discard(a, b)
    assert first == _intersect_or_discard(a, b)
    if len(first) == 2:
        p1, p2 = first
        if abs(p1.x - p2.x) > 1e-9:
            assert p1.x < p2.x
        else:
            assert p1.y <= p2.y + 1e-9


@given(v=points, p=points, q=points)
def test_angle_bounds_and_symmetry(v, p, q):
    assume(distance(v, p) > 1e-3 and distance(v, q) > 1e-3)
    a = angle(v, p, q)
    assert 0.0 <= a <= math.pi
    assert a == angle(v, q, p)


@given(p=points, q=points, n=st.integers(1, 20), data=st.data())
def test_divide_stays_on_segment_line(p, q, n, data):
    assume(distance(p, q) > 1e-3)
    k = data.draw(st.integers(0, n))
    r = divide_segment(p, q, n, k)
    dx, dy = q.x - p.x, q.y - p.y
    length = math.hypot(dx, dy)
    assert abs(dx * (r.y - p.y) - dy * (r.x - p.x)) / length <= 1e-7
    assert distance(p, r) / length == pytest.approx(k / n, abs=1e-7)


@given(p=points, c=points, theta=st.floats(-10, 10, allow_nan=False))
def test_rotation_preserves_radius(p, c, theta):
    r_before = distance(p, c)
    r_after = distance(rotate(p, c, theta), c)
    assert abs(r_after - r_before) <= 1e-7 * max(1.0, r_before)


@given(p=points, q=points)
def test_distance_symmetric_nonnegative(p, q):
    assert distance(p, q) == distance(q, p) >= 0.0
