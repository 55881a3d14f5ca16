import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil

import pytest
from hypothesis import assume, given, strategies as st

import vesica
from vesica import dsl, methods
from vesica.geometry import (
    BadIndex,
    Circle,
    CoincidentCurves,
    DegenerateAngle,
    EPS_GEOM,
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


def test_only_the_result_types_bench_copies_remain_dataclasses():
    exported = [getattr(vesica, name) for name in dir(vesica) if not name.startswith("_")]
    for info in pkgutil.iter_modules(vesica.__path__):
        module = importlib.import_module(f"vesica.{info.name}")
        exported += [getattr(module, name) for name in getattr(module, "__all__", ())]
    classes = {x for x in exported if isinstance(x, type)}
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {
        "ErrorRow", "Figure", "ConstructibilityVerdict", "Obstruction"}


# --- value records ----------------------------------------------------------------

_P, _Q = Point(1.0, 2.0), Point(-0.5, 0.0)

# (value, its repr, its fields in order): the reprs are those of the frozen
# dataclasses these records replaced.
RECORDS = [
    (_P, "Point(x=1.0, y=2.0)", ("x", "y")),
    (Line(_P, _Q), "Line(p=Point(x=1.0, y=2.0), q=Point(x=-0.5, y=0.0))", ("p", "q")),
    (Circle(_Q, 1.5), "Circle(center=Point(x=-0.5, y=0.0), radius=1.5)", ("center", "radius")),
    (dsl.Num(math.pi, "pi"), "Num(value=3.141592653589793, symbol='pi')", ("value", "symbol")),
    (dsl.Selector("near", "A"), "Selector(kind='near', ref='A')", ("kind", "ref")),
    (dsl.PointDef("A", dsl.Num(0.0), dsl.Num(1.0)),
     "PointDef(name='A', x=Num(value=0.0, symbol=None), y=Num(value=1.0, symbol=None))",
     ("name", "x", "y")),
    (dsl.LineDef("L", "A", "B"), "LineDef(name='L', a='A', b='B')", ("name", "a", "b")),
    (dsl.CircleDef("c", "A", "B"), "CircleDef(name='c', center='A', through='B')",
     ("name", "center", "through")),
    (dsl.CircleRadDef("c", "A", "B", "C"),
     "CircleRadDef(name='c', center='A', rad_from='B', rad_to='C')",
     ("name", "center", "rad_from", "rad_to")),
    (dsl.Intersect(("G",), "a", "b", dsl.Selector("upper")),
     "Intersect(names=('G',), a='a', b='b', pick=Selector(kind='upper', ref=None))",
     ("names", "a", "b", "pick")),
    (dsl.Divide("F", "B", "A", 5, 2), "Divide(name='F', start='B', end='A', n=5, k=2)",
     ("name", "start", "end", "n", "k")),
    (dsl.MeasureAngle("t", "C", "B", "G"), "MeasureAngle(name='t', vertex='C', p='B', q='G')",
     ("name", "vertex", "p", "q")),
    (dsl.Program((dsl.LineDef("L", "A", "B"),)),
     "Program(statements=(LineDef(name='L', a='A', b='B'),))", ("statements",)),
    (methods.PolygonResult((_Q,), 1.5, -0.25),
     "PolygonResult(vertices=(Point(x=-0.5, y=0.0),), step_angle=1.5, closure_gap=-0.25)",
     ("vertices", "step_angle", "closure_gap")),
    (methods.RectificationResult(2.0, 3.0),
     "RectificationResult(base_distance=2.0, implied_pi=3.0)", ("base_distance", "implied_pi")),
]

records = pytest.mark.parametrize(
    "value, text, names", RECORDS, ids=[type(value).__name__ for value, _, _ in RECORDS])


@records
def test_record_repr_is_the_dataclass_format(value, text, names):
    assert repr(value) == str(value) == text


@records
def test_record_match_args_are_the_fields_in_order(value, text, names):
    assert type(value).__match_args__ == names


@records
def test_record_equality_and_hash_follow_the_fields(value, text, names):
    fields = tuple(getattr(value, name) for name in names)
    twin = type(value)(*fields)
    assert twin == value and twin is not value
    assert hash(value) == hash(twin) == hash(fields)
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert value != object()


@records
def test_record_keyword_construction(value, text, names):
    assert type(value)(**{name: getattr(value, name) for name in names}) == value


@records
def test_record_fields_cannot_be_assigned_or_deleted(value, text, names):
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@records
def test_record_pickle_and_copy_round_trip(value, text, names):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value


@records
def test_record_constructor_rejects_bad_arguments(value, text, names):
    cls, fields = type(value), [getattr(value, name) for name in names]
    for args, kwargs in [
        ((), dict(zip(names[1:], fields[1:]))),  # the first field missing
        ((*fields, fields[0]), {}),              # one argument too many
        (fields, {names[0]: fields[0]}),         # the first field twice
        (fields, {"bogus": None}),               # an unknown field
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


class _BarePoint(Point):
    __slots__ = ()


class _BareLineDef(dsl.LineDef):
    __slots__ = ()


def test_record_subclass_without_new_slots_keeps_its_parents_fields():
    point = _BarePoint(1.0, 2.0)
    assert _BarePoint.__match_args__ == ("x", "y")
    assert point == _BarePoint(y=2.0, x=1.0) and hash(point) == hash((1.0, 2.0))
    assert point != _BarePoint(3.0, 4.0) and hash(point) != hash(_BarePoint(3.0, 4.0))
    assert point != Point(1.0, 2.0)
    assert repr(point) == "_BarePoint(x=1.0, y=2.0)"
    with pytest.raises(VesicaError):  # Point's own checks still run
        _BarePoint(math.nan, 0.0)
    line = _BareLineDef("L", "A", "B")
    assert line == _BareLineDef(name="L", a="A", b="B") != _BareLineDef("M", "A", "B")
    assert repr(line) == "_BareLineDef(name='L', a='A', b='B')"
    for value in (point, line):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)
    for args in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(TypeError):
            _BarePoint(*args)
    for args in (("L", "A"), ("L", "A", "B", "C")):
        with pytest.raises(TypeError, match=r"^_BareLineDef\(\) takes name, a, b once each$"):
            _BareLineDef(*args)


def test_record_defaults():
    assert dsl.Num(1.0) == dsl.Num(value=1.0, symbol=None)
    assert dsl.Selector("first") == dsl.Selector(kind="first", ref=None)


@pytest.mark.parametrize("build, message", [
    (lambda: Point(math.nan, 0.0), "point coordinates must be finite, got (nan, 0.0)"),
    (lambda: Point(0.0, math.inf), "point coordinates must be finite, got (0.0, inf)"),
    (lambda: Line(_P, Point(1.0, 2.0)),
     "line anchors coincide: Point(x=1.0, y=2.0) and Point(x=1.0, y=2.0)"),
    (lambda: Circle(_P, 0.0), "circle radius must be positive, got 0.0"),
    (lambda: Circle(_P, math.inf), "circle radius must be positive, got inf"),
    (lambda: dsl.Num(math.inf), "numeric literal must be finite, got inf"),
    (lambda: dsl.Num(1.0, "e"), "unknown symbolic literal 'e'"),
    (lambda: dsl.Num(1.0, "pi"), "symbolic literal 'pi' is ±3.141592653589793, got 1.0"),
    (lambda: dsl.Num(-1.75, "sqrt3"), "symbolic literal 'sqrt3' is ±1.7320508075688772, got -1.75"),
    (lambda: dsl.Selector("top"), "unknown selector kind 'top'"),
    (lambda: dsl.Selector("near"), "selector `near` takes a point name; others take none"),
    (lambda: dsl.Selector("first", "A"), "selector `near` takes a point name; others take none"),
    (lambda: dsl.Intersect(("a", "b", "c"), "x", "y", None), "intersect binds one or two names"),
    (lambda: dsl.Intersect(("a", "b"), "x", "y", dsl.Selector("first")),
     "one result name takes a selector; two take none"),
    (lambda: dsl.Program(()), "a program holds at least one statement"),
])
def test_constructor_checks_pin_full_message(build, message):
    with pytest.raises(VesicaError) as info:
        build()
    assert type(info.value) is VesicaError and str(info.value) == message


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
    assert [(p.x.hex(), p.y.hex()) for p in pts] == [("0x0.0p+0", "0x1.0000000000000p+0")]


@pytest.mark.parametrize("radius", [1.5, 1.5 + 1e-11, 1.5 - 1e-11])
def test_tangent_point_bits_are_pinned(radius):
    # A slanted tangent and two near-tangents that snap: the one point is the
    # foot of the perpendicular from the center, with these exact bits.
    line = Line(Point(2.743395428418003, -0.3183981345244349),
                Point(-1.4639594956214796, 2.383113394816264))
    circle = Circle(Point(0.25, -0.5), radius)
    for pts in (intersect(line, circle), intersect(circle, line)):
        assert [(p.x.hex(), p.y.hex()) for p in pts] == [("0x1.0f79e0bc7c4e9p+0", "0x1.863fed68d9366p-1")]


@pytest.mark.parametrize("line", [
    Line(Point(-1e155, 1e155), Point(1e155, 1e155)),
    Line(Point(0, -1e155), Point(1e155, 0)),
], ids=["tangent", "secant"])
def test_line_circle_past_squaring_range_raises_plain_error(line):
    # The coefficients' squares overflow, so the foot is (nan, nan).  Pins the
    # failure of today's kernel; an overflow-free kernel may answer instead.
    circle = Circle(Point(0, 0), 1e155)
    for a, b in ((line, circle), (circle, line)):
        with pytest.raises(VesicaError) as raised:
            intersect(a, b)
        assert type(raised.value) is VesicaError
        assert str(raised.value) == "point coordinates must be finite, got (nan, nan)"


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


def test_unit_circles_off_the_axis_meet_where_derived():
    # |P - (0, 1)| = |P - (1, 1)| = 1 gives x = 1/2 and (y - 1)^2 = 3/4.
    h = SQRT3 / 2
    for a, b in ((Point(0, 1), Point(1, 1)), (Point(1, 1), Point(0, 1))):
        pts = intersect(Circle(a, 1.0), Circle(b, 1.0))
        assert [(p.x, p.y) for p in pts] == [
            (pytest.approx(0.5, abs=1e-12), pytest.approx(1 - h, abs=1e-12)),
            (pytest.approx(0.5, abs=1e-12), pytest.approx(1 + h, abs=1e-12))]


@pytest.mark.parametrize("l1, l2", [
    # the same slanted line y = x/2, anchored apart
    (Line(Point(0, 0), Point(2, 1)), Line(Point(4, 2), Point(6, 3))),
    # y = x/2 and an anchor 1e-10 above it: 1e-10 * cos(atan(1/2)), about 9e-11, apart
    (Line(Point(0, 0), Point(1000, 500)), Line(Point(2000, 1000 + 1e-10), Point(3000, 1500 + 1e-10))),
], ids=["slope-half", "long-anchors-9e-11-apart"])
def test_slanted_coincident_lines_raise(l1, l2):
    for a, b in ((l1, l2), (l2, l1)):
        with pytest.raises(CoincidentCurves):
            intersect(a, b)


def test_nearly_parallel_lines_with_long_anchors_do_not_meet():
    # Unit directions differ by 1e-13 rad, below EPS_GEOM, and the lines lie 1 apart.
    l1, l2 = Line(Point(0, 0), Point(1000, 0)), Line(Point(0, 1), Point(1000, 1 + 1e-10))
    assert intersect(l1, l2) == [] == intersect(l2, l1)


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


def test_angle_rejects_legs_whose_products_overflow():
    # At 1e154 cross overflows to inf while dot is exactly 0, and atan2 gave
    # the right pi/2; from 1e155 dot is inf - inf = nan and atan2 gave nan.
    # Both are refused until the kernel rescales long legs.
    for s in (1e154, 1e155, 1e300):
        with pytest.raises(GeometryError, match="too long to measure"):
            angle(Point(0, 0), Point(s, s), Point(-s, s))
    assert angle(Point(0, 0), Point(1e153, 1e153), Point(-1e153, 1e153)) == math.pi / 2


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


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_rotate_rejects_a_non_finite_angle(theta):
    with pytest.raises(VesicaError, match="^rotation angle must be finite"):
        rotate(Point(1, 0), Point(0, 0), theta)


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
    # at most two points, ascending by (x, y): dsl._select compares the first and last
    first = _intersect_or_discard(a, b)
    assert first == _intersect_or_discard(a, b)
    assert len(first) <= 2
    if len(first) == 2:
        p1, p2 = first
        if abs(p1.x - p2.x) > EPS_GEOM:
            assert p1.x < p2.x
        elif abs(p1.y - p2.y) > EPS_GEOM:
            assert p1.y < p2.y


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
