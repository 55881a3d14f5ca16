import hashlib
import itertools
import math
import random
import re
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vesica import dsl, geometry, methods
from vesica.dsl import (
    CircleDef,
    CircleRadDef,
    Divide,
    DuplicateName,
    Intersect,
    LineDef,
    MeasureAngle,
    Num,
    ParseError,
    PointDef,
    Program,
    Selector,
    SelectorEmpty,
    UnknownName,
    evaluate,
    format_program,
    format_statement,
    parse,
)
from vesica.geometry import CoincidentCurves, Point, VesicaError, distance
from vesica.methods import Method, method_program, polygon

from corpus import HANDWRITTEN_PROGRAMS, MALFORMED_PROGRAMS

SQRT3 = math.sqrt(3.0)

VESICA = """\
point A = (-1, 0)
point B = (1, 0)
circle ca = A B
circle cb = B A
intersect V = ca cb pick lower
"""


# --- parsing --------------------------------------------------------------------

def test_parse_single_point():
    program = parse("point A = (-1, 0)")
    assert program.statements == (PointDef("A", Num(-1.0), Num(0.0)),)


def test_parse_intersect_with_selector():
    (stmt,) = parse("intersect V = c1 c2 pick lower").statements
    assert stmt == Intersect(("V",), "c1", "c2", Selector("lower"))


def test_parse_intersect_defaults():
    (stmt,) = parse("intersect V = c1 c2").statements
    assert stmt.pick == Selector("first")
    (stmt,) = parse("intersect P Q = c1 c2").statements
    assert stmt == Intersect(("P", "Q"), "c1", "c2", None)


def test_intersect_selector_goes_with_one_name():
    with pytest.raises(ValueError):
        Intersect(("P", "Q"), "c1", "c2", Selector("first"))
    with pytest.raises(ValueError):
        Intersect(("P",), "c1", "c2", None)
    with pytest.raises(ValueError):
        Selector("both")
    for text in ("intersect P Q = c1 c2 pick first", "intersect P = c1 c2 pick both",
                 "intersect both = c1 c2"):
        with pytest.raises(ParseError):
            parse(text)


def test_parse_divide():
    (stmt,) = parse("divide F = A B 9 2").statements
    assert stmt == Divide("F", "A", "B", 9, 2)


@pytest.mark.parametrize("literal, n", [
    ("1e30", 10**30),
    ("12345678901234567891.0", 12345678901234567891),
    ("9007199254740993.0", 2**53 + 1),
    ("-4.5e1", -45),
    (".5e1", 5),
    ("120e-1", 12),
    ("0.0e5", 0),
    ("0e99999999999999999999", 0),
    # int() refuses strings of more than 4300 digits
    pytest.param("0" * 5000 + "9", 9, id="leading-zeros"),
    pytest.param("1" + "0" * 5000 + "e-5000", 1, id="trailing-zeros"),
    pytest.param("9e+" + "0" * 5000 + "1", 90, id="zero-padded-exponent"),
])
def test_divide_takes_n_from_the_literals_exact_value(literal, n):
    (stmt,) = parse(f"divide F = B A {literal} 2").statements
    assert stmt.n == n and type(stmt.n) is int
    assert format_program(Program((stmt,))) == f"divide F = B A {n} 2\n"


@pytest.mark.parametrize("literal, message", [
    ("1.5", "expected an integer"),
    ("1.0000000000000000001", "expected an integer"),
    ("00012e-1", "expected an integer"),
    ("1e-400", "expected an integer"),
    ("1e400", "numeric literal out of range: 1e400"),
])
def test_divide_rejects_a_non_integer_or_out_of_range_literal(literal, message):
    with pytest.raises(ParseError) as err:
        parse(f"divide F = B A {literal} 2")
    assert str(err.value) == f"line 1, column 16: {message}"


def test_parse_circle_forms():
    (plain,) = parse("circle main = C B").statements
    assert plain == CircleDef("main", "C", "B")
    (rad,) = parse("circle k = C radius A B").statements
    assert rad == CircleRadDef("k", "C", "A", "B")


def test_parse_symbolic_literals():
    (stmt,) = parse("point V = (-sqrt3, pi)").statements
    assert stmt.x == Num(-SQRT3, "sqrt3")
    assert stmt.y == Num(math.pi, "pi")


def test_statement_equality_is_type_strict():
    assert LineDef("L", "A", "B") != CircleDef("L", "A", "B")
    assert CircleRadDef("c", "A", "B", "C") != MeasureAngle("c", "A", "B", "C")
    assert len({LineDef("L", "A", "B"), CircleDef("L", "A", "B"), LineDef("L", "A", "B")}) == 2


def test_num_rejects_non_finite():
    with pytest.raises(ValueError):
        Num(float("inf"))
    with pytest.raises(ValueError):
        Num(float("nan"))


def test_parse_arity_error_position():
    with pytest.raises(ParseError) as err:
        parse("circle c1 = A B B")
    assert (err.value.line, err.value.column) == (1, 17)


def test_parse_crlf_and_comments():
    program = parse("# heading\r\npoint A = (0, 0)\r\n\r\npoint B = (1, 0)  # end\r\n")
    assert [s.name for s in program.statements] == ["A", "B"]


def test_lines_end_at_lf_only():
    # Only LF or CRLF ends a line; a form feed or U+2028 does not.
    with pytest.raises(ParseError) as err:
        parse("point A = (0, 0)\x0cpoint B = (1, 0)\nline L = A")
    assert (err.value.line, err.value.column) == (1, 17)
    assert err.value.message == "unexpected character '\\x0c'"
    with pytest.raises(ParseError) as err:
        parse("point A = (0, 0) # a\x0cb\u2028c\nline L = A")
    assert (err.value.line, err.value.column) == (2, 11)


@pytest.mark.parametrize("line, column", [
    ("point B = (\u0661\u0662, 0)", 12),  # Arabic-Indic 12
    ("divide F = A B \uff19 2", 16),  # fullwidth 9
])
def test_a_number_is_written_in_ascii_digits(line, column):
    message = f"line 1, column {column}: unexpected character {line[column - 1]!r}"
    with pytest.raises(ParseError) as err:
        parse(line)
    assert str(err.value) == message
    assert dsl._matched_statement(line) is None
    with pytest.raises(ParseError) as err:
        dsl._cursor_statement(line, 1)
    assert str(err.value) == message


def test_parse_empty_program():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   \n# comment only\n")


@pytest.mark.parametrize("text,line,column", MALFORMED_PROGRAMS)
def test_malformed_inputs_report_first_offending_token(text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, column {column}:")


# str(ParseError) for each MALFORMED_PROGRAMS entry, in the same order.
MALFORMED_MESSAGES = [
    "line 1, column 16: expected ')', found end of line",
    "line 1, column 17: unexpected trailing token 'B'",
    "line 1, column 1: unknown statement keyword 'pint'",
    "line 1, column 7: expected a name, found '='",
    "line 1, column 7: 'pi' is a reserved word",
    "line 1, column 11: expected a name, found end of line",
    "line 1, column 16: expected an integer",
    "line 1, column 16: expected an integer",
    "line 1, column 26: expected a selector, found 'center'",
    "line 1, column 23: pick clause not allowed with two result names",
    "line 1, column 13: unexpected character ';'",
    "line 1, column 14: expected a name, found end of line",
    "line 1, column 22: expected a name, found end of line",
    "line 1, column 13: expected a number, found '-'",
    "line 1, column 9: expected '=', found '('",
    "line 1, column 17: expected a number, found end of line",
    "line 1, column 12: numeric literal out of range: 1e400",
    "line 1, column 17: expected a name, found end of line",
    "line 2, column 14: unexpected trailing token 'extra'",
    "line 1, column 1: program contains no statements",
    "line 1, column 1: expected a statement keyword, found '('",
    "line 1, column 1: unexpected character '\\x0c'",
    "line 1, column 29: 'radius' is a reserved word",
    "line 1, column 19: expected a name, found end of line",
]


def test_malformed_inputs_pin_full_message():
    assert len(MALFORMED_MESSAGES) == len(MALFORMED_PROGRAMS)
    for (text, _, _), expected in zip(MALFORMED_PROGRAMS, MALFORMED_MESSAGES):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == expected, text


# --- formatting -----------------------------------------------------------------

def test_format_normalizes_whitespace():
    assert format_program(parse("point  A=( -1,0 )")) == "point A = (-1, 0)\n"


def test_format_divide():
    assert format_program(parse("divide  F = A  B  9  2")) == "divide F = A B 9 2\n"


@pytest.mark.parametrize("n", [2**53 + 1, 10**17, 2**62])
@pytest.mark.parametrize("method", list(Method))
def test_method_program_roundtrips_at_large_n(method, n):
    program = method_program(method, n)
    assert parse(format_program(program)) == program


def test_format_is_idempotent_on_corpus():
    for text in HANDWRITTEN_PROGRAMS:
        once = format_program(parse(text))
        assert format_program(parse(once)) == once


def test_roundtrip_on_handwritten_corpus():
    assert len(HANDWRITTEN_PROGRAMS) >= 20
    for text in HANDWRITTEN_PROGRAMS:
        program = parse(text)
        assert parse(format_program(program)) == program


def test_negative_zero_survives_a_round_trip():
    # == cannot tell Num(-0.0) from Num(0.0); repr can.
    program = parse("point A = (-0.0, 0)\npoint B = (0, -0e5)")
    text = format_program(program)
    assert text == "point A = (-0, 0)\npoint B = (0, -0)\n"
    assert repr(parse(text)) == repr(program)


def test_format_statement_rejects_a_non_statement():
    with pytest.raises(TypeError, match="^not a statement: <object object at "):
        format_statement(object())


def test_format_and_evaluate_take_statements_of_exact_type_only():
    class Marked(LineDef):
        __slots__ = LineDef.__slots__

    line = Marked("L", "A", "B")
    with pytest.raises(TypeError, match=r"^not a statement: \S*Marked\(name='L', a='A', b='B'\)$"):
        format_statement(line)
    with pytest.raises(TypeError, match=r"^not a statement: \S*Marked\("):
        evaluate(Program((PointDef("A", Num(0.0), Num(0.0)), PointDef("B", Num(1.0), Num(0.0)), line)))


def test_format_preserves_symbolic_tokens():
    text = format_program(parse("point V = (0, -sqrt3)\npoint W = (pi, 2.5)"))
    assert text == "point V = (0, -sqrt3)\npoint W = (pi, 2.5)\n"


# --- evaluation -----------------------------------------------------------------

def test_vesica_program_places_base_point():
    fig = evaluate(parse(VESICA))
    v = fig.points["V"]
    assert v.x == pytest.approx(0.0, abs=1e-15)
    assert v.y == pytest.approx(-SQRT3, abs=1e-15)


def test_measured_right_angle():
    fig = evaluate(
        parse(
            "point C = (0, 0)\npoint E = (1, 0)\npoint N = (0, 1)\n"
            "angle a = C E N"
        )
    )
    assert fig.scalars["a"] == pytest.approx(math.pi / 2, abs=1e-15)


def test_program_theta_matches_closed_form():
    from vesica.methods import bion_angle, bion_program

    fig = evaluate(bion_program(9))
    assert fig.scalars["theta"] == pytest.approx(bion_angle(9), abs=1e-10)


@pytest.mark.parametrize(
    "selector,expected",
    [
        ("first", (0.0, -1.0)),
        ("second", (0.0, 1.0)),
        ("upper", (0.0, 1.0)),
        ("lower", (0.0, -1.0)),
        ("near N", (0.0, 1.0)),
    ],
)
def test_selectors_on_vertical_chord(selector, expected):
    fig = evaluate(
        parse(
            "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"
            "point S = (0, -2)\npoint N = (0, 2)\nline vert = S N\n"
            f"intersect X = vert main pick {selector}"
        )
    )
    assert (fig.points["X"].x, fig.points["X"].y) == expected


def test_left_right_selectors():
    fig = evaluate(
        parse(
            "point C = (0, 0)\npoint R = (0, 1)\ncircle main = C R\n"
            "point W = (-2, 0)\npoint E = (2, 0)\nline horiz = W E\n"
            "intersect L = horiz main pick left\n"
            "intersect Rt = horiz main pick right"
        )
    )
    assert fig.points["L"].x == -1.0
    assert fig.points["Rt"].x == 1.0


def test_both_binds_in_kernel_order():
    fig = evaluate(
        parse(
            "point A = (-1, 0)\npoint B = (1, 0)\ncircle ca = A B\ncircle cb = B A\n"
            "intersect P Q = ca cb"
        )
    )
    assert fig.points["P"].y < 0 < fig.points["Q"].y


def test_selector_empty_on_disjoint():
    text = (
        "point A = (0, 0)\npoint B = (9, 0)\npoint U = (1, 0)\npoint W = (10, 0)\n"
        "circle ca = A U\ncircle cb = B W\nintersect X = ca cb pick first"
    )
    with pytest.raises(SelectorEmpty):
        evaluate(parse(text))


def test_selector_second_on_tangency():
    text = (
        "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"
        "point L = (-2, 1)\npoint M = (2, 1)\nline t = L M\n"
        "intersect X = t main pick second"
    )
    with pytest.raises(SelectorEmpty):
        evaluate(parse(text))


_UNIT_CIRCLE = "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"


@pytest.mark.parametrize("chord, selectors", [
    ("point W = (-2, 0)\npoint E = (2, 0)\nline L = W E\npoint Q = (0, 5)\n",
     ["upper", "lower", "near Q"]),
    ("point S = (0, -2)\npoint N = (0, 2)\nline L = S N\npoint Q = (5, 0)\n",
     ["left", "right", "near Q"]),
])
def test_selector_ties_go_to_the_first_point_in_kernel_order(chord, selectors):
    # a horizontal chord ties on y, a vertical one on x; Q is equidistant from both hits
    fig = evaluate(parse(_UNIT_CIRCLE + chord))
    first, last = geometry.intersect(fig.curves["L"], fig.curves["main"])
    assert (first.x, first.y) < (last.x, last.y)
    assert first.y == last.y if selectors[0] == "upper" else first.x == last.x
    assert distance(fig.points["Q"], first) == distance(fig.points["Q"], last)
    for selector in selectors:
        fig = evaluate(parse(_UNIT_CIRCLE + chord + f"intersect X = L main pick {selector}"))
        assert fig.points["X"] == first, selector


@pytest.mark.parametrize("selector", ["first", "upper", "lower", "left", "right", "near Q"])
def test_every_selector_takes_the_tangent_point(selector):
    text = _UNIT_CIRCLE + "point A = (-2, 1)\npoint B = (2, 1)\nline t = A B\npoint Q = (3, 3)\n"
    fig = evaluate(parse(text + f"intersect X = t main pick {selector}"))
    assert fig.points["X"] == Point(0.0, 1.0)  # `second` raises: test_selector_second_on_tangency


_FIRST_WINS = {"upper": (max, "y"), "lower": (min, "y"), "left": (min, "x"), "right": (max, "x")}
_tie_prone = st.builds(Point, *[st.sampled_from([0.0, 1.0])] * 2)


@pytest.mark.parametrize("kind", ["first", "second", "upper", "lower", "left", "right", "near"])
@given(hits=st.lists(_tie_prone, max_size=2), anchor=st.builds(Point, *[st.sampled_from([0.0, 0.5, 1.0])] * 2))
def test_select_matches_a_first_wins_reference(kind, hits, anchor):
    # min and max keep the first of equal keys; `is` tells equal points apart
    fig = dsl.Figure({"Q": anchor})
    pick = Selector(kind, "Q" if kind == "near" else None)
    if not hits or (kind == "second" and len(hits) < 2):
        with pytest.raises(SelectorEmpty):
            dsl._select(pick, hits, fig)
        return
    if kind in _FIRST_WINS:
        extreme, axis = _FIRST_WINS[kind]
        expected = extreme(hits, key=lambda p: getattr(p, axis))
    elif kind == "near":
        expected = min(hits, key=lambda p: distance(anchor, p))
    else:
        expected = hits[kind == "second"]
    assert dsl._select(pick, hits, fig) is expected


def test_both_needs_two_points():
    text = (
        "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"
        "point L = (-2, 1)\npoint M = (2, 1)\nline t = L M\n"
        "intersect X Y = t main"
    )
    with pytest.raises(SelectorEmpty):
        evaluate(parse(text))


def test_unknown_name():
    with pytest.raises(UnknownName):
        evaluate(parse("line L = A B"))


def test_kind_mismatch_reports_unknown_name():
    text = "point A = (0, 0)\npoint B = (1, 0)\nline L = A B\ncircle c = L A"
    with pytest.raises(UnknownName) as err:
        evaluate(parse(text))
    assert "curve" in str(err.value)


# Binds a point A, a scalar t and a curve L.
_ABT = "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\nangle t = A B C\nline L = A B\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("line L = A B", "no point named 'A'"),
        ("point A = (0, 0)\nintersect X = c d", "no curve named 'c'"),
        (_ABT + "circle c = L A", "'L' names a curve, expected a point"),
        (_ABT + "intersect X = L A", "'A' names a point, expected a curve"),
        (_ABT + "line M = t A", "'t' names a scalar, expected a point"),
        (_ABT + "intersect X = L t", "'t' names a scalar, expected a curve"),
        (_ABT + "circle c = A B\nintersect X = L c pick near Q", "no point named 'Q'"),
    ],
)
def test_unknown_name_messages(text, message):
    with pytest.raises(UnknownName) as err:
        evaluate(parse(text))
    assert str(err.value) == message


def test_duplicate_name_across_namespaces():
    with pytest.raises(DuplicateName):
        evaluate(parse("point A = (0, 0)\npoint A = (1, 0)"))
    with pytest.raises(DuplicateName):
        evaluate(
            parse(
                "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\n"
                "angle A = B A C"
            )
        )


_TWO_CIRCLES = ("point A = (0, 0)\npoint B = (1, 0)\ncircle c = A B\ncircle d = B A\n"
                "line L = A B\nangle t = A B B\n")


@pytest.mark.parametrize("taken", ["A", "c", "L", "t"])
@pytest.mark.parametrize("first", [True, False])
def test_two_name_intersect_reports_either_duplicate_name(taken, first):
    names = f"{taken} Y" if first else f"X {taken}"
    with pytest.raises(DuplicateName) as err:
        evaluate(parse(_TWO_CIRCLES + f"intersect {names} = c d"))
    assert str(err.value) == f"name {taken!r} is already defined"


def test_two_name_intersect_reports_equal_names():
    with pytest.raises(DuplicateName) as err:
        evaluate(parse(_TWO_CIRCLES + "intersect X X = c d"))
    assert str(err.value) == "name 'X' is already defined"
    fig = evaluate(parse(_TWO_CIRCLES + "intersect X Y = c d"))
    assert list(fig.points) == ["A", "B", "X", "Y"]


def test_coincident_curves_propagates():
    text = (
        "point A = (0, 0)\npoint B = (1, 0)\npoint C = (2, 0)\n"
        "line l1 = A B\nline l2 = B C\nintersect X = l1 l2"
    )
    with pytest.raises(CoincidentCurves):
        evaluate(parse(text))


def test_overflowing_circle_intersection_is_a_vesica_error():
    text = (
        "point A = (1e200, 0)\npoint B = (0, 0)\n"
        "circle c = A B\ncircle d = B A\nintersect X Y = c d\n"
    )
    with pytest.raises(VesicaError):
        evaluate(parse(text))


def test_prefix_monotonicity():
    from vesica.methods import tempier_program

    program = tempier_program(9)
    full = evaluate(program)
    for cut in range(1, len(program.statements)):
        partial = evaluate(Program(program.statements[:cut]))
        assert all(full.points[k] == v for k, v in partial.points.items())
        assert all(full.curves[k] == v for k, v in partial.curves.items())
        assert all(full.scalars[k] == v for k, v in partial.scalars.items())


def test_evaluation_is_deterministic():
    program = parse(VESICA)
    a, b = evaluate(program), evaluate(program)
    assert a.points == b.points and a.curves == b.curves and a.scalars == b.scalars


def test_figure_insertion_order_preserved():
    fig = evaluate(parse(VESICA))
    assert list(fig.points) == ["A", "B", "V"]
    assert list(fig.curves) == ["ca", "cb"]


# Scoping, selector and kernel errors, in the order evaluate() meets them.
_EVAL_ERROR_TEXTS = [
    "point A = (0, 0)\npoint B = (9, 0)\npoint U = (1, 0)\npoint W = (10, 0)\n"
    "circle ca = A U\ncircle cb = B W\nintersect X = ca cb pick first",
    "point A = (0, 0)\npoint B = (9, 0)\npoint U = (1, 0)\npoint W = (10, 0)\n"
    "circle ca = A U\ncircle cb = B W\nintersect X = ca cb pick near Q",
    "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"
    "point L = (-2, 1)\npoint M = (2, 1)\nline t = L M\nintersect X = t main pick second",
    "point C = (0, 0)\npoint R = (1, 0)\ncircle main = C R\n"
    "point L = (-2, 1)\npoint M = (2, 1)\nline t = L M\nintersect X Y = t main",
    "line L = A B",
    "point A = (0, 0)\npoint B = (1, 0)\nline L = A B\ncircle c = L A",
    "point A = (0, 0)\nintersect X = c d",
    _ABT + "circle c = L A",
    _ABT + "intersect X = L A",
    _ABT + "line M = t A",
    _ABT + "intersect X = L t",
    _ABT + "intersect X = t L",
    _ABT + "circle c = A t",
    _ABT + "circle k = t radius A B",
    _ABT + "divide M = L B 3 1",
    _ABT + "angle s = A B L",
    _ABT + "circle c = A B\nintersect X = L c pick near c",
    _ABT + "circle c = A B\nintersect X = L c pick near t",
    _ABT + "circle c = A B\nintersect X = L c pick near Q",
    _ABT + "circle c = A B\nintersect L = L c pick first",
    _ABT + "circle c = A B\nintersect X t = L c",
    _ABT + "angle t = A B C",
    _ABT + "circle c = A B\nintersect X X = L c",
    _ABT + "line A = A B",
    _ABT + "line N = A A",
    _ABT + "line A = A A",
    "point A = (0, 0)\npoint A = (1, 0)",
    "point A = (0, 0)\npoint B = (1, 0)\npoint C = (0, 1)\nangle A = B A C",
    "point A = (0, 0)\npoint B = (1, 0)\npoint C = (2, 0)\nline l1 = A B\nline l2 = B C\n"
    "intersect X = l1 l2",
    "point A = (1e200, 0)\npoint B = (0, 0)\ncircle c = A B\ncircle d = B A\nintersect X Y = c d",
    "circle c = X Y",
    _ABT + "circle c = A Y",
    _ABT + "circle c = A A",
    "circle k = X radius Y Z",
    _ABT + "circle k = X radius A Z",
    _ABT + "circle k = X radius A B",
    _ABT + "circle k = A radius B B",
    "divide M = X Y 3 1",
    _ABT + "divide M = A Y 3 1",
    _ABT + "divide M = A A 3 1",
    _ABT + "divide M = A B 3 4",
    _ABT + "divide M = A B 0 0",
    "angle s = X Y Z",
    _ABT + "angle s = A Y Z",
    _ABT + "angle s = A B Z",
    _ABT + "angle s = A A B",
]

# sha256 over the formatted method programs, every point, curve and scalar
# evaluate() binds for them and for the handwritten corpus, and the type and
# message of every error on _EVAL_ERROR_TEXTS.
_EVAL_SHA256 = "6fd8b229b81bf90af2f67b0634990e618c574bdc9b926b36b3034390ac68f094"


def _evaluation_digest() -> str:
    digest = hashlib.sha256()

    def add(fig):
        for name, p in fig.points.items():
            digest.update(f"{name} {p.x!r} {p.y!r}\n".encode())
        for name, curve in fig.curves.items():
            digest.update(f"{name} {curve!r}\n".encode())
        for name, value in fig.scalars.items():
            digest.update(f"{name} {value!r}\n".encode())

    for m in Method:
        for n in itertools.chain(range(4, 3001), (10**6, 10**9, 2**40)):
            program = method_program(m, n)
            digest.update(format_program(program).encode())
            add(evaluate(program))
    for text in HANDWRITTEN_PROGRAMS:
        add(evaluate(parse(text)))
    for text in _EVAL_ERROR_TEXTS:
        try:
            evaluate(parse(text))
        except VesicaError as err:
            digest.update(f"{type(err).__name__}: {err}\n".encode())
        else:
            raise AssertionError(f"no error from {text!r}")
    return digest.hexdigest()


def test_evaluation_bits_and_errors_are_pinned():
    assert _evaluation_digest() == _EVAL_SHA256


def test_evaluate_rejects_a_non_statement():
    with pytest.raises(TypeError, match="^not a statement: 'x'$"):
        evaluate(Program(("x",)))


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("method", list(Method))
def test_kernel_is_reached_through_module_globals(monkeypatch, method):
    counts = [_counting(monkeypatch, dsl, name)
              for name in ("intersect_curves", "measure_angle", "divide_segment")]
    rotations = _counting(monkeypatch, methods, "rotate")
    evaluate(method_program(method, 9))  # resumes after the frame's intersect
    polygon(method, 7)
    assert [len(calls) for calls in counts] == [1, 1, 1]
    assert len(rotations) == 7
    for calls in counts:
        calls.clear()
    evaluate(parse(format_program(method_program(method, 9))))  # equal, not identical
    assert [len(calls) for calls in counts] == [2, 1, 1]


# --- resuming from the evaluated frame ------------------------------------------

@pytest.mark.parametrize("method", list(Method))
def test_resumed_figures_share_no_dict(method):
    program = method_program(method, 9)
    first, second = evaluate(program), evaluate(program)
    for name in ("points", "curves", "scalars"):
        assert getattr(first, name) is not getattr(second, name)
    first.points.clear()
    first.curves["V"] = None
    first.scalars["theta"] = 0.0
    again = evaluate(program)
    assert (again.points, again.curves, again.scalars) == \
        (second.points, second.curves, second.scalars)


def test_program_shorter_than_the_frame_runs_in_full():
    fig = evaluate(Program(methods._FRAME[:3]))
    assert list(fig.points) == ["C", "B", "A"]
    assert fig.curves == {} and fig.scalars == {}


def test_rebinding_a_frame_name_reports_like_its_parsed_copy():
    program = Program(methods._FRAME + (PointDef("V", Num(0.0), Num(0.0)),))
    with pytest.raises(DuplicateName) as resumed:
        evaluate(program)
    with pytest.raises(DuplicateName) as parsed:
        evaluate(parse(format_program(program)))
    assert str(resumed.value) == str(parsed.value) == "name 'V' is already defined"


def test_equal_but_not_identical_frame_keeps_its_bits():
    text = format_program(Program(methods._FRAME)).replace(
        "point C = (0, 0)", "point C = (-0, -0)")
    program = parse(text)
    assert program.statements == methods._FRAME  # Num(-0.0) == Num(0.0)
    c = evaluate(program).points["C"]
    assert math.copysign(1.0, c.x) == math.copysign(1.0, c.y) == -1.0


def test_resumed_theta_is_bit_identical_across_threads():
    def thetas():
        return [evaluate(method_program(m, n)).scalars["theta"].hex()
                for m in Method for n in range(4, 301)]

    full = [evaluate(parse(format_program(method_program(m, n)))).scalars["theta"].hex()
            for m in Method for n in range(4, 301)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = [pool.submit(thetas) for _ in range(4)]
        assert all(run.result() == full for run in runs)


# --- generated-program round trip -------------------------------------------------

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in dsl._KEYWORDS
)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_nums = st.one_of(
    st.builds(Num, _floats),
    st.sampled_from([Num(math.pi, "pi"), Num(-math.pi, "pi"),
                     Num(SQRT3, "sqrt3"), Num(-SQRT3, "sqrt3")]),
)
_selectors = st.one_of(
    st.sampled_from([Selector(k) for k in ("first", "second", "upper", "lower", "left", "right")]),
    st.builds(lambda r: Selector("near", r), _names),
)
_statements = st.one_of(
    st.builds(PointDef, _names, _nums, _nums),
    st.builds(LineDef, _names, _names, _names),
    st.builds(CircleDef, _names, _names, _names),
    st.builds(CircleRadDef, _names, _names, _names, _names),
    st.builds(lambda n, a, b, s: Intersect((n,), a, b, s), _names, _names, _names, _selectors),
    st.builds(lambda n, m, a, b: Intersect((n, m), a, b, None),
              _names, _names, _names, _names),
    st.builds(Divide, _names, _names, _names, st.integers(1, 60), st.integers(0, 60)),
    st.builds(MeasureAngle, _names, _names, _names, _names),
)
_programs = st.builds(lambda stmts: Program(tuple(stmts)), st.lists(_statements, min_size=1, max_size=12))


@given(program=_programs)
def test_roundtrip_on_generated_programs(program):
    parsed = parse(format_program(program))
    assert parsed == program
    assert repr(parsed) == repr(program)  # the sign of a zero too


# --- whole-line patterns against the cursor ---------------------------------------

def _outcome(text: str) -> str:
    """repr of the parsed program, or str of the ParseError."""
    try:
        return repr(parse(text))
    except ParseError as err:
        return str(err)


def _cursor_only_outcome(text: str) -> str:
    with mock.patch.object(dsl, "_matched_statement", lambda line: None):
        return _outcome(text)


def _literal_spellings(text: str) -> list[str]:
    """Respellings of one literal token: blanks after the sign, exponents,
    -0, zero padding, many digits, the other sign, a fraction."""
    sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
    spellings = [text, f"{sign} {body}", f"{sign}\t{body}", "00" + body, body + "0" * 17,
                 "-" + body, text + "e0", text + ".0"]
    if body not in dsl._SYMBOLIC:
        value = float(text)
        spellings += ["%.17e" % value, "%.17E" % value, "%.3e" % value]
        if value == 0:
            spellings += ["-0", "-0.0", "-.0e5", "0e-999", "-0e+0"]
    return spellings


_DIGIT_SETS = ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
               "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f"]  # Devanagari
_SYMBOL_TOKENS = "(),="


@st.composite
def _spelled_lines(draw):
    """(canonical, line): a generated statement's canonical text, and the
    statement respelled: blanks and tabs, literal spellings, reserved words,
    a comment, and perhaps a Unicode digit, a stray character or a cut."""
    canonical = format_statement(draw(_statements))
    tokens = re.findall(r"[(),=]|[^ (),=]+", canonical)
    line = draw(st.sampled_from(["", "", " ", "\t"]))
    for i, token in enumerate(tokens):
        if token[0] in "-.0123456789":
            token = draw(st.sampled_from(_literal_spellings(token)))
        elif i and draw(st.integers(0, 9)) == 0:
            token = draw(st.sampled_from(sorted(dsl._KEYWORDS)))
        if i and tokens[i - 1] not in _SYMBOL_TOKENS and tokens[i] not in _SYMBOL_TOKENS:
            line += draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        elif i:
            line += draw(st.sampled_from(["", "", " ", "\t"]))
        line += token
    line += draw(st.sampled_from(["", "", " ", "\t", "# note", "  #", "\t# x = (1, 2)"]))
    digits = [i for i, char in enumerate(line) if char in "0123456789"]
    if digits and draw(st.integers(0, 4)) == 0:
        i = draw(st.sampled_from(digits))
        line = line[:i] + draw(st.sampled_from(_DIGIT_SETS))[int(line[i])] + line[i + 1:]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(line)))
        stray = draw(st.sampled_from(["x", "7", "-", "=", "(", ";", "#", "\r", "\x0c", "\u00e9"]))
        line = line[:i] + stray + line[i:]
    if draw(st.integers(0, 4)) == 0:
        line = line[:draw(st.integers(0, len(line)))]
    return canonical, line


@settings(deadline=None)
@given(spelled=_spelled_lines(), newline=st.sampled_from(["\n", "\r\n"]))
def test_line_patterns_agree_with_the_cursor(spelled, newline):
    # repr, not ==, tells Num(-0.0) from Num(0.0).
    canonical, line = spelled
    taken = dsl._matched_statement(canonical)  # the patterns take every canonical line
    assert taken is not None, canonical
    assert repr(taken) == repr(dsl._cursor_statement(canonical, 1))
    fast = dsl._matched_statement(line)
    if fast is not None:
        slow = dsl._cursor_statement(line, 1)
        assert (type(fast), repr(fast)) == (type(slow), repr(slow)), line
    text = f"# heading{newline}point O = (0, 0){newline}{line}{newline}"
    outcome = _outcome(text)
    assert outcome == _cursor_only_outcome(text)
    code = line.split("#", 1)[0]
    unicode_digits = [i for i, char in enumerate(code, start=1) if char.isdecimal() and not char.isascii()]
    if unicode_digits:  # a number is written in ASCII digits
        assert fast is None
        error = re.fullmatch(r"line 3, column (\d+): unexpected character .*", outcome)
        assert error is not None and int(error[1]) <= unicode_digits[0], (line, outcome)


@pytest.mark.parametrize("line", ["point A = (-pi, sqrt3)", "point B = ( - sqrt3 , pi )"])
def test_line_patterns_read_symbolic_literals(line):
    taken = dsl._matched_statement(line)
    assert taken is not None
    assert repr(taken) == repr(dsl._cursor_statement(line, 1))


def test_slot_group_counts_match_their_patterns():
    assert dsl._GROUPS == {slot: re.compile(pattern).groups for slot, pattern in dsl._SLOTS.items()}


# Each name position of every form; {} is where the name goes.
_NAME_POSITIONS = [
    "point {} = (0, 0)",
    "line {} = A B", "line L = {} B", "line L = A {}",
    "circle {} = A B", "circle c = {} B", "circle c = A {}",
    "circle {} = A radius B C", "circle c = {} radius B C", "circle c = A radius {} C",
    "circle c = A radius B {}",
    "intersect {} = c d", "intersect P = {} d", "intersect P = c {}",
    "intersect {} Q = c d", "intersect P {} = c d", "intersect P Q = {} d", "intersect P Q = c {}",
    "intersect P = c d pick near {}",
    "divide {} = A B 9 2", "divide F = {} B 9 2", "divide F = A {} 9 2",
    "angle {} = A B C", "angle t = {} B C", "angle t = A {} C", "angle t = A B {}",
]


@pytest.mark.parametrize("word", ["pick", "pi", "near", "point"])
@pytest.mark.parametrize("template", _NAME_POSITIONS)
def test_line_patterns_refuse_a_reserved_word_at_every_name(template, word):
    line = template.format(word)
    assert dsl._matched_statement(line) is None
    outcome = _outcome(line)
    assert outcome == _cursor_only_outcome(line)
    if template == "intersect P {} = c d":  # the second result name is optional
        message = f"expected '=', found {word!r}"
    else:
        message = f"{word!r} is a reserved word"
    assert outcome == f"line 1, column {template.index('{}') + 1}: {message}"


def test_the_cursor_raises_when_a_builder_refuses_what_its_steps_passed(monkeypatch):
    monkeypatch.setitem(dsl._FORMS, "line", ("N = N N", lambda *groups: None))
    with pytest.raises(ParseError, match="^line 3, column 1: line statement refused by its builder$"):
        dsl._cursor_statement("line L = A B", 3)


def test_the_cursor_keeps_the_tokens_of_the_longest_statement_and_one_more():
    longest = "point A = (-1, -2)"
    assert dsl._MOST_TOKENS == sum(1 for m in dsl._TOKEN_RE.finditer(longest) if m.lastgroup) + 1 == 11
    with pytest.raises(ParseError, match=r"^line 1, column 19: unexpected trailing token '\)'$"):
        dsl._cursor_statement(longest + ")" * 100_000, 1)
    with pytest.raises(ParseError, match=r"^line 1, column 100019: unexpected character ';'$"):
        dsl._cursor_statement(longest + ")" * 100_000 + ";", 1)  # a stray character wins anywhere



def _first_stray_by_walk(line: str) -> str | None:
    """The unexpected-character message that walking every token of `line` finds first."""
    bad = next((m for m in dsl._TOKEN_RE.finditer(line) if m.lastgroup == "bad"), None)
    return None if bad is None else f"line 1, column {bad.start() + 1}: unexpected character {bad.group()!r}"


@given(tail=st.text(alphabet=" \t#.+e5x_=(),-;\r\x0cé١", max_size=30))
def test_the_cursor_finds_the_stray_character_a_full_token_walk_finds(tail):
    # The longest statement fills the cursor's tokens; the tail is searched
    # past them, at once or by a walk when it holds a '.' or '+'.
    line = "point A = (-1, -2)" + tail
    want = _first_stray_by_walk(line)
    try:
        dsl._cursor_statement(line, 1)
    except ParseError as err:
        assert want is None or str(err) == want
        assert want is not None or "unexpected character" not in str(err)
    else:
        assert want is None

def test_a_long_malformed_line_parses_in_little_memory():
    line = "point" + "=" * ((1 << 20) - 5)  # the longest line `vesica run` reads
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^line 1, column 6: expected a name, found '='$"):
            parse(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_blank_and_comment_lines_never_reach_a_reader():
    text = "\n\t\n# heading\n  \t# indented\npoint A = (0, 0)\n \n\t#\npoint B = (1, 0)\n\n# end\n"
    with mock.patch.object(dsl, "_cursor_statement", side_effect=AssertionError("cursor ran")):
        program = parse(text)
    assert program == Program((PointDef("A", Num(0.0), Num(0.0)), PointDef("B", Num(1.0), Num(0.0))))


@pytest.mark.parametrize("method", list(Method))
def test_line_patterns_read_method_programs_at_huge_n(method):
    program = method_program(method, 10**20)
    lines = format_program(program).splitlines()
    assert tuple(map(dsl._matched_statement, lines)) == program.statements


def test_line_patterns_read_counts_below_10_to_the_308():
    below = f"divide F = A B {'9' * 308} 2"
    assert repr(dsl._matched_statement(below)) == repr(dsl._cursor_statement(below, 1))
    at = f"divide F = A B {10**308} 2"
    assert repr(dsl._matched_statement(at)) == repr(dsl._cursor_statement(at, 1))
    (stmt,) = parse(at).statements
    assert stmt == Divide("F", "A", "B", 10**308, 2) and type(stmt.n) is int


_GAP = " \t" * 50_000  # 100 000 blanks


@pytest.mark.parametrize("tokens", [
    ("point", "A", "=", "(", "-", "1.5", ",", "-", "2e-3", ")"),
    ("line", "L", "=", "A", "B"),
    ("circle", "c", "=", "A", "B"),
    ("circle", "c", "=", "A", "radius", "B", "C"),
    ("intersect", "P", "=", "c", "d"),
    ("intersect", "P", "=", "c", "d", "pick", "near", "Q"),
    ("intersect", "P", "Q", "=", "c", "d"),
    ("divide", "F", "=", "A", "B", "9", "2"),
    ("angle", "t", "=", "A", "B", "C"),
], ids=["point", "line", "circle", "circle-radius", "intersect", "intersect-pick",
        "intersect-two-names", "divide", "angle"])
@pytest.mark.parametrize("stray", ["", ";"], ids=["valid", "stray"])
def test_line_patterns_run_in_linear_time(tokens, stray):
    # A pattern in which two blank runs meet around an optional token takes
    # minutes on this line; the cursor, and a linear pattern, milliseconds.
    line = _GAP.join(("",) + tokens + (stray,))
    start = time.perf_counter()
    outcome = _outcome(line)
    assert time.perf_counter() - start < 1.0
    if stray:
        assert outcome == f"line 1, column {len(line)}: unexpected character ';'"
        assert dsl._matched_statement(line) is None
    else:
        assert outcome == repr(Program((dsl._matched_statement(line),)))
    assert outcome == _cursor_only_outcome(line)


# --- pinned parse outcomes ----------------------------------------------------------

# Statement shapes: R is a number slot, I a count slot, K a selector kind.
_CORPUS_SHAPES = [
    "point N = ( R , R )", "line N = N N", "circle N = N N", "circle N = N radius N N",
    "intersect N = N N", "intersect N = N N pick K", "intersect N = N N pick near N",
    "intersect N N = N N", "divide N = N N I I", "angle N = N N N",
]
_CORPUS_NAMES = ["A", "B", "c1", "_x", "P2", "near_", "Pick"]
_CORPUS_NUMBERS = ["0", "-1", "1.5", "-2e-3", "pi", "-sqrt3", "1e308", "1e400", ".5", "7."]
_CORPUS_COUNTS = ["9", "2", "0", "-3", "1e30", "-4.5e1", ".5e1", "120e-1", "1.5", "pi", "1e-400",
                  "1e400", "0e99", "9" * 308, "9" * 309, "1" + "0" * 308, "0" * 400 + "7"]
_CORPUS_STRAYS = ["x", "7", "-", "=", "(", ")", ",", ";", "#", "\r", "\x0c", "é", "pick", "radius"]


def _corpus_line(rng) -> str:
    """One statement line, respelled: blanks, literal spellings, reserved
    words, dropped or repeated tokens, a comment, and perhaps a Unicode
    digit, a stray character or a cut."""
    tokens = []
    for slot in rng.choice(_CORPUS_SHAPES).split():
        if slot == "N":
            token = rng.choice(_CORPUS_NAMES)
        elif slot in "RI":
            token = rng.choice(_literal_spellings(rng.choice(
                _CORPUS_NUMBERS if slot == "R" else _CORPUS_COUNTS)))
        elif slot == "K":
            token = rng.choice(["first", "second", "upper", "lower", "left", "right"])
        else:
            token = slot
        roll = rng.randrange(60)
        if roll < 3 and tokens:
            token = rng.choice(sorted(dsl._KEYWORDS))
        elif roll == 3:
            continue  # dropped
        elif roll == 4:
            tokens.append(token)  # repeated
        tokens.append(token)
    line = rng.choice(["", "", " ", "\t"])
    for i, token in enumerate(tokens):
        if i and (tokens[i - 1] in _SYMBOL_TOKENS or token in _SYMBOL_TOKENS or rng.randrange(30) == 0):
            line += rng.choice(["", "", " ", "\t"])
        elif i:
            line += rng.choice([" ", "  ", "\t", " \t "])
        line += token
    line += rng.choice(["", "", "", " ", "\t", "# note", "  #", "\t# x = (1, 2)", " # line L = A"])
    digits = [i for i, char in enumerate(line) if char in "0123456789"]
    if digits and rng.randrange(8) == 0:
        i = rng.choice(digits)
        line = line[:i] + rng.choice(_DIGIT_SETS)[int(line[i])] + line[i + 1:]
    if rng.randrange(5) == 0:
        i = rng.randrange(len(line) + 1)
        line = line[:i] + rng.choice(_CORPUS_STRAYS) + line[i:]
    if rng.randrange(5) == 0:
        line = line[:rng.randrange(len(line) + 1)]
    return line


# sha256 over the outcome, repr(Program) or str(ParseError), of each of the
# 20 000 lines _corpus_line draws from random.Random(2026), one line each.
_PARSE_SHA256 = "9352509dd42a1c53f7474eb7ad79a2c81f848b6e8d3bfce0a8729d8d2daf2b19"


def test_parse_outcomes_are_pinned():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(20_000):
        digest.update(_outcome(_corpus_line(rng)).encode() + b"\n")
    assert digest.hexdigest() == _PARSE_SHA256
