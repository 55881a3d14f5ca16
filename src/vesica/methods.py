"""Approximate circle division: the Bion and Tempier constructions.

Both recipes start from the same base point V, the lower intersection of two
arcs drawn around the ends of a horizontal diameter with the diameter as
radius (the vesica piscis apex, at distance sqrt(3) below the center).  A ray
from V through a division point of the diameter cuts the circle at a point G,
and the central angle it spans approximates 2*pi/n.  The recipes differ only in
the division point they aim through and the point they measure from; each
``Method`` member holds that description.

This module carries both the closed-form angles (where the ray from V meets
the circle, solved without cancellation) and generators that emit the same
constructions as DSL programs, so the geometric kernel and the formulas can
be verified against each other.  It also quantifies how good V is at
rectifying a quadrant, which is what makes the recipes work at all.

Every length is in units of the circle radius; the angles do not depend on
that choice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

from .geometry import Point, VesicaError, _Record, rotate
from .dsl import (
    CircleDef,
    Divide,
    Intersect,
    LineDef,
    MeasureAngle,
    Num,
    PointDef,
    Program,
    Selector,
    _set_head,
)

__all__ = [
    "SQRT3",
    "Method",
    "UnsupportedN",
    "DomainError",
    "ErrorRow",
    "RectificationResult",
    "PolygonResult",
    "bion_angle",
    "tempier_angle",
    "method_angle",
    "bion_program",
    "tempier_program",
    "method_program",
    "polygon",
    "error_table",
    "relative_error_limit",
    "best_method",
    "rectified_quadrant",
    "exact_rectifier_distance",
]

SQRT3 = math.sqrt(3.0)
TAU = 2.0 * math.pi

# Two methods tie when their absolute relative errors agree this closely.
TIE_TOLERANCE = 1e-4


# Canonical frame: unit circle about C, diameter B(-1,0) -- A(1,0),
# vesica arcs about both endpoints with radius |BA|, V picked below.  The
# kernel evaluates it once, at import; every method program starts with these
# statement objects, so evaluate resumes it from a copy of that figure.
_FRAME = (
    PointDef("C", Num(0.0), Num(0.0)),
    PointDef("B", Num(-1.0), Num(0.0)),
    PointDef("A", Num(1.0), Num(0.0)),
    CircleDef("main", "C", "B"),
    CircleDef("arcB", "B", "A"),
    CircleDef("arcA", "A", "B"),
    Intersect(("V",), "arcB", "arcA", Selector("lower")),
)
_set_head(_FRAME)


class Method(Enum):
    """One recipe: the description its closed form, program and polygon share.

    BION aims through F, the second of n equal parts of BA counted from B, and
    measures theta from B; TEMPIER aims through T, 4/n left of the center (n-4
    of 2n parts), and measures from D, the top of the vertical diameter.
    ``value`` is the CLI name.  ``aim`` names the aiming point, ``division``
    maps n to its (parts, index) on BA and ``reference`` names B or D.  ``head``
    (the frame, plus D) and ``tail`` are the program's statements before and
    after its one n-dependent Divide.
    """

    BION = ("bion", "F", lambda n: (n, 2), "B")
    TEMPIER = ("tempier", "T", lambda n: (2 * n, n - 4), "D")

    def __new__(cls, value, aim, division, reference):
        member = object.__new__(cls)
        member._value_ = value
        member.aim, member.division, member.reference = aim, division, reference
        member.head = _FRAME + ((PointDef("D", Num(0.0), Num(1.0)),) if reference == "D" else ())
        member.tail = (LineDef("ray", "V", aim), Intersect(("G",), "ray", "main", Selector("upper")),
                       MeasureAngle("theta", "C", reference, "G"))
        return member


class UnsupportedN(VesicaError):
    """n below 4, where Bion's aiming point would sit right of the center and
    Tempier's beyond the diameter's end; or n too large to convert to a float."""


class DomainError(VesicaError):
    """A rectified quadrant's implied pi overflowed a float."""


def _require_n(n: int) -> None:
    if operator.index(n) < 4:
        raise UnsupportedN(f"circle division is supported for n >= 4, got n={n}")
    try:
        float(n)  # 2*pi/n is computed in floating point
    except OverflowError:
        raise UnsupportedN(f"n is too large for a float, got a {n.bit_length()}-bit n") from None


def _require_base(base_distance: float) -> None:
    if not (base_distance > 0.0 and math.isfinite(base_distance)):
        raise VesicaError(f"base distance must be positive, got {base_distance}")


# Far enough out that the 1/n term of n*theta(n) is far below an ulp.
_LIMIT_N = 2**60


def _closed_form(parts: int, index: int, b: float, reference: str) -> float:
    """Angle at the center of the unit circle from the reference point to the
    upper hit G of the ray from V = (0, -b) through the division point (-a, 0),
    a = (parts - 2*index)/parts.

    With q = 1 - a^2 taken from the integers, G = (-a*(1+k), b*k) for
    k = q / (hypot(a, b*sqrt(q)) + a^2).  Every term is a sum or product of
    non-negative values, so no digits cancel at any n.
    """
    a = (parts - 2 * index) / parts
    q = (2 * index / parts) * (2 * (parts - index) / parts)
    k = q / (math.hypot(a, b * math.sqrt(q)) + a * a)
    x, y = a * (1.0 + k), b * k
    return math.atan2(y, x) if reference == "B" else math.atan2(x, y)


def method_angle(method: Method, n: int, base_distance: float = SQRT3) -> float:
    """The method's approximation to 2*pi/n, with V base_distance below the center."""
    _require_n(n)
    _require_base(base_distance)
    return _closed_form(*method.division(n), base_distance, method.reference)


def bion_angle(n: int) -> float:
    """Closed-form Bion central angle, the paper's

    x(n) = arcsin(sqrt(3) n / (2 sqrt(n^2 - 2n + 4)))
         - arcsin(sqrt(3) (n-4) / (2 sqrt(n^2 - 2n + 4))),

    evaluated in the cancellation-free form of _closed_form.  Exact (equal to
    2*pi/n) only for n = 4 and n = 6.
    """
    return method_angle(Method.BION, n)


def tempier_angle(n: int, base_distance: float = SQRT3) -> float:
    """Closed-form Tempier central angle; exact only for n = 4 and n = 12.

    With the default base this is the paper's
    y(n) = arccos(-4 / sqrt(3 n^2 + 16)) - arccos(4 sqrt(3) / sqrt(3 n^2 + 16)),
    evaluated in the cancellation-free form of _closed_form; a different
    base_distance substitutes for sqrt(3) throughout.
    """
    return method_angle(Method.TEMPIER, n, base_distance)


def method_program(method: Method, n: int) -> Program:
    """DSL program whose ``theta`` constructs ``method_angle(method, n)``: the ray
    from V through the aiming point hits the circle at G, measured from the reference."""
    _require_n(n)
    return Program((*method.head, Divide(method.aim, "B", "A", *method.division(n)), *method.tail))


def bion_program(n: int) -> Program:
    """Bion: aim through the second of n diameter divisions F, measure from B."""
    return method_program(Method.BION, n)


def tempier_program(n: int) -> Program:
    """Tempier: aim through T, 4/n left of center (n-4 of 2n parts), measure from D."""
    return method_program(Method.TEMPIER, n)


# --- tables and analysis -------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class ErrorRow:
    """One row of a method error table, all angles in radians.

    A frozen dataclass, so that ``dataclasses.replace`` copies a row, with its
    own ``__init__``: the generated one stores each field through
    ``object.__setattr__``, which costs more than the closed form the row
    holds.  This one stores through the slots' bound setters, as ``_Record``
    does; equality, hashing, repr and ``__match_args__`` stay generated.
    """

    n: int
    exact: float      # 2*pi/n
    approx: float     # the method's angle
    error: float      # exact - approx
    rel_error: float  # |exact - approx| / exact

    def __init__(self, n: int, exact: float, approx: float, error: float, rel_error: float) -> None:
        _set_row_n(self, n)
        _set_row_exact(self, exact)
        _set_row_approx(self, approx)
        _set_row_error(self, error)
        _set_row_rel_error(self, rel_error)


# Taken from the class the decorator returns: slots=True builds a new one.
_set_row_n, _set_row_exact, _set_row_approx, _set_row_error, _set_row_rel_error = (
    getattr(ErrorRow, name).__set__ for name in ErrorRow.__slots__)


class PolygonResult(_Record):
    """n-gon laid out by stepping the approximate angle around the circle;
    closure_gap is n * step_angle - 2*pi, signed."""

    __slots__ = ("vertices", "step_angle", "closure_gap")

    def __init__(self, vertices: tuple[Point, ...], step_angle: float, closure_gap: float) -> None:
        if not vertices:
            raise VesicaError("a polygon needs at least one vertex")
        if not (math.isfinite(step_angle) and math.isfinite(closure_gap)):
            raise VesicaError(f"a polygon's step angle and closure gap must be finite, "
                              f"got {step_angle} and {closure_gap}")
        super().__init__(vertices, step_angle, closure_gap)


class RectificationResult(_Record):
    """Implied value of pi when a base point rectifies the quadrant."""

    __slots__ = ("base_distance", "implied_pi")


def polygon(method: Method, n: int) -> PolygonResult:
    """Vertices rotate(B, C, k*theta) for k = 0..n-1 on the unit circle.

    The closure gap n*theta - 2*pi is the angular misfit left after stepping
    the approximate side n times; it vanishes exactly when the method does.
    """
    theta = method_angle(method, n)
    center = Point(0.0, 0.0)
    start = Point(-1.0, 0.0)
    vertices = tuple(rotate(start, center, k * theta) for k in range(n))
    return PolygonResult(vertices, theta, n * theta - TAU)


def error_table(method: Method, n_from: int, n_to: int) -> list[ErrorRow]:
    """ErrorRow per n in [n_from, n_to]; requires 4 <= n_from <= n_to."""
    _require_n(n_from)
    if n_to < n_from:
        raise UnsupportedN(f"empty range: n_from={n_from} > n_to={n_to}")
    _require_n(n_to)  # so every n in the range is valid
    division, reference = method.division, method.reference
    rows = []
    for n in range(n_from, n_to + 1):
        exact = TAU / n
        parts, index = division(n)
        approx = _closed_form(parts, index, SQRT3, reference)
        error = exact - approx
        rows.append(ErrorRow(n, exact, approx, error, abs(error) / exact))
    return rows


def relative_error_limit(method: Method) -> float:
    """Limit of the signed relative error 1 - n*angle(n)/(2*pi) as n grows.

    Read off the closed form at a huge n.  Bion: 1 - 2*sqrt(3)/pi (about
    -0.1026); Tempier: 1 - 2*(1 + sqrt(3))/(pi*sqrt(3)) (about -0.0042), which
    is exactly the quadrant-rectification error of the base point V.
    """
    return 1.0 - _LIMIT_N * method_angle(method, _LIMIT_N) / TAU


def best_method(n: int) -> Method | None:
    """Method with the smaller absolute relative error at n.

    Returns None on a tie, i.e. when the two agree within 1e-4 (covers the
    exact n=4 case and the near-tie at n=8).
    """
    _require_n(n)
    exact = TAU / n
    bion, tempier = Method.BION, Method.TEMPIER
    parts, index = bion.division(n)
    bion_error = abs(exact - _closed_form(parts, index, SQRT3, bion.reference)) / exact
    parts, index = tempier.division(n)
    tempier_error = abs(exact - _closed_form(parts, index, SQRT3, tempier.reference)) / exact
    if abs(bion_error - tempier_error) <= TIE_TOLERANCE:
        return None
    return bion if bion_error < tempier_error else tempier


def rectified_quadrant(base_distance: float) -> RectificationResult:
    """Straighten a unit-circle quadrant by projecting from a base point.

    A base point at the given distance below the center projects the
    quadrant's top onto the tangent line so that the rectified quadrant has
    length (d+1)/d; twice that is the implied approximation of pi.
    """
    _require_base(base_distance)
    implied_pi = 2.0 * (base_distance + 1.0) / base_distance
    if not math.isfinite(implied_pi):
        raise DomainError(f"implied pi overflows for base distance {base_distance}")
    return RectificationResult(base_distance, implied_pi)


def exact_rectifier_distance() -> float:
    """Base distance whose rectified quadrant is exact: 2/(pi - 2).

    Transcendental, hence not constructible; the nearby constructible
    distances sqrt(3) and 7/4 are what the practical recipes use.
    """
    return 2.0 / (math.pi - 2.0)
