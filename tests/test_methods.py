import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from vesica.dsl import evaluate, format_program, parse
from vesica.geometry import VesicaError
from vesica.methods import (
    DomainError,
    ErrorRow,
    Method,
    PolygonResult,
    SQRT3,
    UnsupportedN,
    _closed_form,
    best_method,
    method_angle,
    method_program,
    bion_angle,
    bion_program,
    error_table,
    exact_rectifier_distance,
    polygon,
    rectified_quadrant,
    relative_error_limit,
    tempier_angle,
    tempier_program,
)

TAU = 2 * math.pi


# --- the Method members ---------------------------------------------------------

def test_method_members_are_singletons_named_by_value():
    assert Method("bion") is Method.BION and Method("tempier") is Method.TEMPIER
    for member in Method:
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member
    assert [m.value for m in Method] == ["bion", "tempier"]
    assert repr(Method.BION) == "<Method.BION: 'bion'>"
    assert repr(Method.TEMPIER) == "<Method.TEMPIER: 'tempier'>"
    assert Method.TEMPIER.division(9) == (18, 5)
    assert Method.BION.division(9) == (9, 2)


# --- angle formulas -------------------------------------------------------------

def test_angle_x_nonagon():
    assert _closed_form(9, 2, SQRT3, "B") == pytest.approx(0.7030, abs=5e-5)


def test_angle_x_square_case():
    assert _closed_form(4, 2, SQRT3, "B") == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_x_hexagon_exact():
    assert _closed_form(6, 2, SQRT3, "B") == pytest.approx(math.pi / 3, abs=1e-12)


def test_angle_y_nonagon():
    assert _closed_form(18, 5, SQRT3, "D") == pytest.approx(0.6962, abs=5e-5)


def test_angle_y_square_case():
    assert _closed_form(8, 0, SQRT3, "D") == pytest.approx(math.pi / 2, abs=1e-15)


def test_angle_y_dodecagon_exact():
    assert _closed_form(24, 8, SQRT3, "D") == pytest.approx(math.pi / 6, abs=1e-12)


@given(
    st.sampled_from(list(Method)),
    st.integers(min_value=4, max_value=2**1023),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_closed_form_is_finite_and_in_first_quadrant(method, n, base):
    theta = method_angle(method, n, base if method is Method.TEMPIER else SQRT3)
    assert 0.0 <= theta <= math.pi / 2


# --- closed forms ---------------------------------------------------------------

def test_bion_angle_pentagon():
    assert bion_angle(5) == pytest.approx(1.256, abs=5e-4)
    assert TAU / 5 - bion_angle(5) == pytest.approx(0.0008, abs=5e-5)


def test_bion_angle_exact_cases():
    assert bion_angle(4) == pytest.approx(math.pi / 2, abs=1e-12)
    assert bion_angle(6) == pytest.approx(math.pi / 3, abs=1e-12)


def test_bion_angle_20gon():
    assert bion_angle(20) == pytest.approx(0.3252, abs=5e-5)


def test_bion_agrees_with_general_formula():
    # the paper's explicit x(n), written out
    for n in range(4, 201):
        root = 2.0 * math.sqrt(n * n - 2.0 * n + 4.0)
        x = math.asin(SQRT3 * n / root) - math.asin(SQRT3 * (n - 4) / root)
        assert bion_angle(n) == pytest.approx(x, abs=1e-14)


def _oracle_angle(method: Method, n: int, base: float | None = None) -> mpmath.mpf:
    """The construction itself at 50 digits: intersect the ray from
    V = (0, -base) through the aiming point with the unit circle and measure
    the upper hit G from the reference point.  No arcsin/arccos formula.
    G's height loses about log10(n) digits, leaving 30 for every n < 2^62."""
    with mpmath.workdps(50):
        aim, ref = {
            Method.BION: (-1 + mpmath.mpf(4) / n, (-1, 0)),
            Method.TEMPIER: (-mpmath.mpf(4) / n, (0, 1)),
        }[method]
        vy = -mpmath.sqrt(3) if base is None else -mpmath.mpf(base)
        dx, dy = aim, -vy
        # |V + t (dx, dy)|^2 = 1, larger root is the upper hit
        qa, qb, qc = dx * dx + dy * dy, 2 * vy * dy, vy * vy - 1
        t = (-qb + mpmath.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        gx, gy = t * dx, vy + t * dy
        return mpmath.atan2(abs(ref[0] * gy - ref[1] * gx), ref[0] * gx + ref[1] * gy)


# n = 4..2000, 500 seeded n below 2^62, the powers of ten up to 10^18, and 2^60
_ORACLE_NS = (
    list(range(4, 2001))
    + random.Random(20261018).sample(range(4, 2**62), 500)
    + [10**k for k in range(1, 19)]
    + [2**60]
)


def test_closed_forms_match_50_digit_oracle():
    # relative budget of 4 ulp at every n, both methods, Tempier at four bases
    cases = [(method, None) for method in Method]
    cases += [(Method.TEMPIER, base) for base in (1.0, 1.75, 4.0)]
    for method, base in cases:
        b = SQRT3 if base is None else base
        worst = max(
            (abs(method_angle(method, n, b) / _oracle_angle(method, n, base) - 1), n)
            for n in _ORACLE_NS
        )
        assert worst[0] <= 4 * 2.0**-52, (method, base, worst)


def test_kernel_agrees_with_closed_form_within_n_eps():
    # G sits about 1/n from its reference point, so the kernel's coordinate
    # rounding of about eps becomes a relative angle error of about n*eps.
    for n in random.Random(7).sample(range(200, 10**6 + 1), 400):
        for method in Method:
            closed = method_angle(method, n)
            kernel = evaluate(method_program(method, n)).scalars["theta"]
            assert abs(kernel - closed) / closed <= n * 2.0**-52, (method, n)


def test_tempier_angle_pentagon():
    assert tempier_angle(5) == pytest.approx(1.246, abs=5e-4)
    assert TAU / 5 - tempier_angle(5) == pytest.approx(0.0111, abs=5e-5)


def test_tempier_angle_exact_cases():
    assert tempier_angle(4) == pytest.approx(math.pi / 2, abs=1e-12)
    assert tempier_angle(12) == pytest.approx(math.pi / 6, abs=1e-12)


def test_tempier_angle_17gon():
    assert tempier_angle(17) == pytest.approx(0.3703, abs=5e-5)


def test_tempier_generalized_base_is_asymptotically_exact():
    n = 10**5
    rel = 1 - n * tempier_angle(n, exact_rectifier_distance()) / TAU
    assert abs(rel) < 1e-6


def test_unsupported_n():
    for fn in (bion_angle, tempier_angle, bion_program, tempier_program):
        with pytest.raises(UnsupportedN):
            fn(3)
    with pytest.raises(UnsupportedN):
        polygon(Method.BION, 3)
    with pytest.raises(ValueError):
        tempier_angle(10, -1.0)


def test_n_beyond_float_range_is_unsupported():
    n = 2**1024  # 2*pi/n would overflow converting n to float
    for fn in (bion_angle, tempier_angle, bion_program, tempier_program, best_method):
        with pytest.raises(UnsupportedN, match="too large for a float, got a 1025-bit n"):
            fn(n)
    with pytest.raises(UnsupportedN, match="too large for a float, got a 1024-bit n"):
        bion_angle(2**1024 - 1)  # rounds up to 2^1024 when converted
    with pytest.raises(UnsupportedN):
        error_table(Method.BION, n, n)
    assert math.isfinite(bion_angle(2**1023))  # the largest power of two accepted


@pytest.mark.parametrize("n", [9.5, 9.0])
def test_non_integer_n_raises_type_error(n):
    calls = [
        lambda: method_angle(Method.BION, n),
        lambda: bion_angle(n),
        lambda: best_method(n),
        lambda: method_program(Method.TEMPIER, n),
        lambda: polygon(Method.BION, n),
        lambda: error_table(Method.BION, n, 12),
        lambda: error_table(Method.BION, 4, n),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


# --- construction programs -------------------------------------------------------

def test_bion_program_nonagon():
    assert evaluate(bion_program(9)).scalars["theta"] == pytest.approx(0.7030, abs=5e-5)


def test_bion_program_hexagon_hits_known_point():
    fig = evaluate(bion_program(6))
    assert fig.scalars["theta"] == pytest.approx(math.pi / 3, abs=1e-10)
    assert fig.points["G"].x == pytest.approx(-0.5, abs=1e-12)
    assert fig.points["G"].y == pytest.approx(SQRT3 / 2, abs=1e-12)


def test_bion_program_square_is_vertical():
    assert evaluate(bion_program(4)).scalars["theta"] == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_tempier_program_nonagon():
    assert evaluate(tempier_program(9)).scalars["theta"] == pytest.approx(
        0.6962, abs=5e-5
    )


def test_tempier_program_dodecagon_exact():
    assert evaluate(tempier_program(12)).scalars["theta"] == pytest.approx(
        math.pi / 6, abs=1e-10
    )


def test_tempier_program_square_aims_at_endpoint():
    fig = evaluate(tempier_program(4))
    assert fig.scalars["theta"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert fig.points["G"].x == pytest.approx(-1.0, abs=1e-12)
    assert fig.points["G"].y == pytest.approx(0.0, abs=1e-12)


def test_generated_programs_roundtrip():
    for n in (4, 7, 50):
        for gen in (bion_program, tempier_program):
            program = gen(n)
            assert parse(format_program(program)) == program


# --- pinned outputs ---------------------------------------------------------------
# Exact program texts and closed-form reprs; a change to any of them is a
# change to CLI output and must be documented value by value.

def test_output_bytes_pinned():
    assert format_program(bion_program(9)) == (
        "point C = (0, 0)\npoint B = (-1, 0)\npoint A = (1, 0)\n"
        "circle main = C B\ncircle arcB = B A\ncircle arcA = A B\n"
        "intersect V = arcB arcA pick lower\ndivide F = B A 9 2\nline ray = V F\n"
        "intersect G = ray main pick upper\nangle theta = C B G\n"
    )
    assert format_program(tempier_program(9)) == (
        "point C = (0, 0)\npoint B = (-1, 0)\npoint A = (1, 0)\n"
        "circle main = C B\ncircle arcB = B A\ncircle arcA = A B\n"
        "intersect V = arcB arcA pick lower\npoint D = (0, 1)\n"
        "divide T = B A 18 5\nline ray = V T\n"
        "intersect G = ray main pick upper\nangle theta = C D G\n"
    )
    assert [repr(tempier_angle(n)) for n in range(4, 21)] == [
        "1.5707963267948966", "1.2455740101974564", "1.0389346732239026",
        "0.8922696493689178", "0.7821279147681708", "0.696224837040002",
        "0.6273123730446273", "0.5707933406669442", "0.5235987755982989",
        "0.48359785026335395", "0.4492636063964008", "0.41947276618550616",
        "0.39338046200416926", "0.37033897335988014", "0.3498433877382108",
        "0.33149430585190737", "0.3149716572979656",
    ]
    assert repr(polygon(Method.BION, 9).closure_gap) == "0.043638788750532065"


# --- polygon --------------------------------------------------------------------

def test_polygon_closure_gap_nonagon():
    # frozen: 9 * bion_angle(9) - 2*pi computed from the closed form
    assert polygon(Method.BION, 9).closure_gap == pytest.approx(
        0.043638788750532065, abs=1e-12
    )


def test_polygon_exact_cases_close():
    assert abs(polygon(Method.BION, 6).closure_gap) < 1e-10
    assert abs(polygon(Method.TEMPIER, 12).closure_gap) < 1e-10


def test_polygon_vertices_on_unit_circle_with_equal_steps():
    result = polygon(Method.TEMPIER, 9)
    assert len(result.vertices) == 9
    center = (0.0, 0.0)
    for v in result.vertices:
        assert math.hypot(v.x, v.y) == pytest.approx(1.0, abs=1e-7)
    from vesica.geometry import Point, angle

    for a, b in zip(result.vertices, result.vertices[1:]):
        step = angle(Point(*center), a, b)
        assert step == pytest.approx(result.step_angle, abs=1e-7)


@pytest.mark.parametrize(
    "vertices, step_angle, closure_gap, message",
    [((), 1.0, 0.0, "at least one vertex"),
     (None, math.nan, 0.0, "must be finite, got nan and 0.0"),
     (None, 1.0, math.inf, "must be finite, got 1.0 and inf"),
     (None, -math.inf, 0.0, "must be finite, got -inf and 0.0")],
)
def test_polygon_result_rejects_bad_arguments(vertices, step_angle, closure_gap, message):
    square = polygon(Method.BION, 4).vertices
    with pytest.raises(VesicaError, match=message):
        PolygonResult(square if vertices is None else vertices, step_angle, closure_gap)


# --- tables ----------------------------------------------------------------------

def test_error_table_rows():
    (row,) = error_table(Method.BION, 9, 9)
    assert (row.exact, row.approx, row.error, row.rel_error) == pytest.approx(
        (0.6981, 0.7030, -0.0048, 0.0069), abs=1e-3
    )
    (row,) = error_table(Method.TEMPIER, 5, 5)
    assert (row.exact, row.approx, row.error, row.rel_error) == pytest.approx(
        (1.257, 1.246, 0.0111, 0.0088), abs=1e-3
    )
    (row,) = error_table(Method.BION, 4, 4)
    assert row.error == pytest.approx(0.0, abs=1e-12)
    assert row.rel_error == pytest.approx(0.0, abs=1e-12)


def test_error_table_range_and_validation():
    rows = error_table(Method.TEMPIER, 4, 20)
    assert [r.n for r in rows] == list(range(4, 21))
    for r in rows:
        assert r.error == pytest.approx(r.exact - r.approx, abs=1e-15)
        assert r.rel_error >= 0.0
    with pytest.raises(UnsupportedN):
        error_table(Method.BION, 3, 5)
    with pytest.raises(UnsupportedN):
        error_table(Method.BION, 10, 5)


def test_error_table_rejects_an_unrepresentable_n_to_at_once():
    with pytest.raises(UnsupportedN, match="too large for a float, got a 1025-bit n"):
        error_table(Method.BION, 4, 2**1024)


def test_error_table_and_best_method_match_method_angle_bits():
    for method in Method:
        rows = error_table(method, 4, 600)
        assert [row.approx for row in rows] == [method_angle(method, n) for n in range(4, 601)]
    for n in range(4, 600):
        exact = TAU / n
        errors = {m: abs(exact - method_angle(m, n)) / exact for m in Method}
        low, high = sorted(errors.values())
        assert best_method(n) is (None if high - low <= 1e-4 else min(errors, key=errors.get))




def test_error_row_is_a_frozen_dataclass_with_its_own_constructor():
    row = ErrorRow(9, 0.5, 0.25, 0.25, 0.5)
    assert row == ErrorRow(n=9, exact=0.5, approx=0.25, error=0.25, rel_error=0.5)
    assert repr(row) == "ErrorRow(n=9, exact=0.5, approx=0.25, error=0.25, rel_error=0.5)"
    assert hash(row) == hash((9, 0.5, 0.25, 0.25, 0.5))
    assert row != (9, 0.5, 0.25, 0.25, 0.5) and row != ErrorRow(9, 0.5, 0.25, 0.25, 0.25)
    names = ("n", "exact", "approx", "error", "rel_error")
    assert tuple(f.name for f in dataclasses.fields(ErrorRow)) == names == ErrorRow.__match_args__
    assert not hasattr(row, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(row, name)
    moved = dataclasses.replace(row, approx=0.125)
    assert moved == ErrorRow(9, 0.5, 0.125, 0.25, 0.5) and row.approx == 0.25
    match moved:
        case ErrorRow(n, exact, approx, error, rel_error):
            assert (n, exact, approx, error, rel_error) == (9, 0.5, 0.125, 0.25, 0.5)
    assert copy.copy(row) == row and pickle.loads(pickle.dumps(row)) == row
    with pytest.raises(TypeError):
        ErrorRow(9, 0.5, 0.25, 0.25)

# sha256 over the repr of every field of every row of error_table(m, n, n + 511)
# for both methods, the tables' starts stepping by their length from 4 (rows
# for n = 4..3075) and at 10**6, 10**9 and 2**40, then over best_method(n) for
# n = 4..3000.
_TABLE_SHA256 = "267de53bf60ac702610ed47db8f51c7a4ededaa7a361e39bebe8f9cc343d7df0"


def _table_digest() -> str:
    digest = hashlib.sha256()
    for m in Method:
        for start in itertools.chain(range(4, 3001, 512), (10**6, 10**9, 2**40)):
            for row in error_table(m, start, start + 511):
                digest.update(f"{row.n!r} {row.exact!r} {row.approx!r} {row.error!r} {row.rel_error!r}\n".encode())
    for n in range(4, 3001):
        best = best_method(n)
        digest.update(f"{n} {None if best is None else best.value}\n".encode())
    return digest.hexdigest()


def test_error_table_and_best_method_bits_are_pinned():
    assert _table_digest() == _TABLE_SHA256

# --- limits and comparison --------------------------------------------------------

def test_relative_error_limits():
    assert relative_error_limit(Method.BION) == pytest.approx(
        1 - 2 * SQRT3 / math.pi, abs=0
    )
    with mpmath.workdps(50):
        root3, pi = mpmath.sqrt(3), mpmath.pi
        want = {
            Method.BION: 1 - 2 * root3 / pi,
            Method.TEMPIER: 1 - 2 * (1 + root3) / (pi * root3),
        }
        for method, limit in want.items():
            assert abs(relative_error_limit(method) - limit) <= 2.0**-53, method
    assert relative_error_limit(Method.BION) == pytest.approx(-0.1026, abs=1e-4)
    assert relative_error_limit(Method.TEMPIER) == pytest.approx(-0.00417, abs=5e-6)


def test_numeric_limit_agreement():
    for n, tol in ((10**6, 1e-4), (10**15, 1e-12)):
        bion_rel = 1 - n * bion_angle(n) / TAU
        assert abs(bion_rel - relative_error_limit(Method.BION)) < tol, n
        tempier_rel = 1 - n * tempier_angle(n) / TAU
        assert abs(tempier_rel - relative_error_limit(Method.TEMPIER)) < tol, n


def test_best_method():
    assert best_method(7) is Method.BION
    assert best_method(5) is Method.BION
    assert best_method(6) is Method.BION
    assert best_method(9) is Method.TEMPIER
    assert best_method(4) is None
    assert best_method(8) is None


# --- rectification -----------------------------------------------------------------

def test_rational_point_implies_22_sevenths():
    assert rectified_quadrant(7 / 4).implied_pi == pytest.approx(22 / 7, abs=1e-12)


def test_vesica_point_implies_3_15470():
    assert rectified_quadrant(SQRT3).implied_pi == pytest.approx(3.15470, abs=1e-5)


def test_exact_point_implies_pi():
    assert rectified_quadrant(exact_rectifier_distance()).implied_pi == pytest.approx(
        math.pi, abs=1e-12
    )


def test_rectification_matches_50_digit_oracle():
    # within 2 ulp of 2(d + 1)/d evaluated at 50 digits for the float d
    rng = random.Random(20261018)
    distances = [SQRT3, 7 / 4, exact_rectifier_distance()]
    distances += [10 ** rng.uniform(-6, 6) for _ in range(200)]
    with mpmath.workdps(50):
        for d in distances:
            exact = 2 * (mpmath.mpf(d) + 1) / mpmath.mpf(d)
            got = rectified_quadrant(d).implied_pi
            assert abs(got / exact - 1) <= 2 * 2.0**-52, d


def test_exact_rectifier_distance_value_and_ordering():
    d = exact_rectifier_distance()
    assert d == pytest.approx(1.75194, abs=5e-6)
    assert SQRT3 < d < 7 / 4 + 0.002


def test_rectification_rejects_bad_distance():
    with pytest.raises(ValueError):
        rectified_quadrant(0.0)
    with pytest.raises(ValueError):
        rectified_quadrant(-2.0)


def test_rectification_rejects_overflowing_pi():
    for distance in (1e308, 1e-310):
        with pytest.raises(DomainError):
            rectified_quadrant(distance)


def test_tempier_limit_equals_vesica_rectification_error():
    implied = rectified_quadrant(SQRT3).implied_pi
    assert relative_error_limit(Method.TEMPIER) == pytest.approx(
        1 - implied / math.pi, abs=1e-12
    )
