import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import HANDWRITTEN_PROGRAMS
from vesica.cli import main
from vesica.dsl import Figure, Num, PointDef, Program, evaluate, format_program, parse
from vesica.geometry import Circle, Line, Point, VesicaError
from vesica.methods import Method, PolygonResult, bion_program, method_program, polygon
from vesica import svg
from vesica.svg import EmptyFigure, _numbers, fixed, render_polygon, render_svg


def _fixed_oracle(value: float, decimals: int) -> str:
    """The exact decimal rounding `fixed` must reproduce, via `decimal`."""
    exponent = Decimal(1).scaleb(-decimals)
    with localcontext() as ctx:
        ctx.prec = 340  # any finite double (<= ~1.8e308) plus 15 fraction digits
        quantized = Decimal(value).quantize(exponent, rounding=ROUND_HALF_UP)
    if quantized == 0:
        quantized = quantized.copy_abs()  # never print -0.00
    return format(quantized, "f")


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 15))
def test_fixed_matches_decimal_oracle(value, decimals):
    assert fixed(value, decimals) == _fixed_oracle(value, decimals)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "value, decimals",
    [(2.5, 0), (0.125, 2), (0.00125, 4), (0.0, 2), (0.0, 0), (5e-324, 15), (5e-324, 0),
     (1e300, 2), (1e300, 15), (0.5, 0), (0.004, 2), (0.005, 2), (1.0, 3)],
)
def test_fixed_matches_decimal_oracle_on_edge_cases(sign, value, decimals):
    assert fixed(sign * value, decimals) == _fixed_oracle(sign * value, decimals)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**52 - 1), st.integers(0, 52), st.integers(0, 15), st.sampled_from([1, -1]))
def test_fixed_matches_decimal_oracle_on_ties(bits, shift, decimals, sign):
    # a tie at `decimals` digits is an odd multiple of 2**-(decimals + 1); random
    # floats almost never draw one, so build them at every magnitude up to 2**52
    tie = sign * (2 * (bits >> shift) + 1) / 2 ** (decimals + 1)
    for value in (tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)):
        assert fixed(value, decimals) == _fixed_oracle(value, decimals)


@pytest.mark.parametrize(
    "value, decimals, text",
    [(640, 2, "640.00"), (True, 2, "1.00"), (2**60 + 1, 0, "1152921504606846977"),
     (-(2**53 + 1), 0, "-9007199254740993"), (-(2**53 + 1), 2, "-9007199254740993.00"),
     pytest.param(10**400, 2, "1" + "0" * 400 + ".00", id="10**400-2-1e400.00")],
)
def test_fixed_formats_ints_exactly(value, decimals, text):
    # an int keeps every digit, even where the nearest float does not
    assert fixed(value, decimals) == text


def _expansion(value: float, decimals: int) -> str:
    """`value` written out digit by digit with `Fraction`; it must end within `decimals`."""
    rest = abs(Fraction(value))
    text = f"{int(rest)}."
    for _ in range(decimals):
        rest = (rest - int(rest)) * 10
        text += str(int(rest))
    assert rest == int(rest)
    return ("-" if value < 0 else "") + text


@pytest.mark.parametrize("value, decimals", [(0.1, 5000), (5e-324, 1074), (-5e-324, 1074)])
def test_fixed_with_more_decimals_than_int_to_str_allows(value, decimals):
    text = fixed(value, decimals)
    assert len(text) == decimals + 2 + (value < 0)
    assert text == _expansion(value, decimals)


def test_fixed_half_away_from_zero():
    assert fixed(2.5, 0) == "3"
    assert fixed(-2.5, 0) == "-3"
    assert fixed(0.00125, 4) == "0.0013"
    assert fixed(-0.00125, 4) == "-0.0013"
    assert fixed(1.0, 3) == "1.000"
    assert fixed(-0.0001, 2) == "0.00"  # never -0.00


def test_fixed_handles_extreme_magnitudes():
    assert fixed(1e300, 2).endswith(".00")
    assert len(fixed(1e300, 2)) == 304  # 301 integer digits + ".00"
    assert fixed(5e-324, 15) == "0.000000000000000"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_fixed_rejects_non_finite(value):
    with pytest.raises(ValueError):
        fixed(value, 2)


def test_fixed_rejects_negative_or_non_integer_decimals():
    with pytest.raises(VesicaError, match="^cannot format with -1 decimals$"):
        fixed(1.25, -1)
    with pytest.raises(TypeError):
        fixed(1.25, 2.0)


def test_render_is_byte_deterministic():
    fig = evaluate(bion_program(9))
    assert render_svg(fig) == render_svg(fig)
    result = polygon(Method.TEMPIER, 7)
    assert render_polygon(result) == render_polygon(result)


def test_bion_construction_has_three_circle_elements():
    # main circle plus the two vesica arcs; point markers are rects
    doc = render_svg(evaluate(bion_program(9)))
    assert doc.count("<circle ") == 3
    assert doc.count("<line ") == 1
    assert doc.count("<rect ") == 6  # C B A V F G


def test_one_point_figure_centers_viewbox():
    doc = render_svg(Figure(points={"P": Point(3.0, -2.0)}))
    assert doc.count("<rect ") == 1
    # unit neighborhood + margin on each side, square 640 px canvas
    assert 'width="640.00" height="640.00" viewBox="0 0 640.00 640.00"' in doc
    # the 4.5 px marker sits at the canvas center, 320 - 4.5 / 2
    assert '<rect x="317.75" y="317.75" width="4.50" height="4.50"' in doc


def test_empty_figure_rejected():
    with pytest.raises(EmptyFigure):
        render_svg(Figure())
    with pytest.raises(EmptyFigure):
        render_svg(Figure(scalars={"t": 1.0}))  # nothing drawable


@pytest.mark.parametrize(
    "a,b",
    [
        (Point(-1e308, -1e308), Point(1e308, 1e308)),
        (Point(0.0, 0.0), Point(1e-320, 0.0)),
    ],
    ids=["extent-overflows", "extent-subnormal"],
)
def test_unscalable_extent_rejected(a, b):
    with pytest.raises(ValueError, match="cannot scale a figure spanning"):
        render_svg(Figure(points={"A": a, "B": b}))


def test_labels_can_be_disabled():
    fig = Figure(points={"P": Point(0.0, 0.0)})
    labelled = render_svg(fig)
    bare = render_svg(fig, labels=False)
    assert "<text " in labelled
    assert "<text " not in bare


def test_lines_are_clipped_to_view():
    fig = evaluate(
        parse("point A = (0, 0)\npoint B = (1, 3)\nline steep = A B")
    )
    doc = render_svg(fig)
    assert doc.count("<line ") == 1
    # every printed coordinate stays inside the pixel viewBox
    import re

    w = float(re.search(r'width="([0-9.]+)"', doc).group(1))
    h = float(re.search(r'height="([0-9.]+)"', doc).group(1))
    for x1, y1, x2, y2 in re.findall(
        r'<line x1="(-?[0-9.]+)" y1="(-?[0-9.]+)" x2="(-?[0-9.]+)" y2="(-?[0-9.]+)"', doc
    ):
        for v, hi in ((x1, w), (x2, w), (y1, h), (y2, h)):
            assert -0.01 <= float(v) <= hi + 0.01


def test_y_axis_is_flipped():
    fig = Figure(points={"low": Point(0.0, -1.0), "high": Point(0.0, 1.0)})
    doc = render_svg(fig, labels=False)
    import re

    ys = [float(m) for m in re.findall(r'<rect x="[0-9.-]+" y="([0-9.-]+)"', doc)]
    assert len(ys) == 2
    assert ys[0] > ys[1]  # world low point prints lower (larger pixel y)


def test_every_number_prints_two_decimals():
    fig = Figure(points={"P": Point(0.123456, 0.0)}, curves={"c": Circle(Point(0, 0), 1.0)})
    doc = render_svg(fig)
    import re

    attrs = re.findall(r'\b(?:cx|cy|r|x|y|x1|y1|x2|y2|width|height)="([^"]*)"', doc)
    assert len(attrs) == 12  # stroke-width and the marker size included
    for number in attrs:
        assert re.fullmatch(r"-?\d+\.\d\d", number), number


def test_circle_element_geometry():
    # the unit circle padded by 0.08 * 2 = 0.16 on each side: 640 px over 2.32 units
    fig = Figure(curves={"c": Circle(Point(0.0, 0.0), 1.0)})
    doc = render_svg(fig)
    assert '<circle cx="320.00" cy="320.00" r="275.86" fill="none" ' in doc
    assert 'stroke="#000000" stroke-width="1.50"/>' in doc


def test_render_polygon_shows_closure_gap():
    doc = render_polygon(polygon(Method.BION, 9))
    assert "closure gap +0.043639 rad" in doc
    assert doc.count("<polyline ") == 1
    assert doc.count("<circle ") == 1
    # one marker per vertex
    assert doc.count("<rect ") == 9


def test_render_polygon_exact_case_annotation():
    doc = render_polygon(polygon(Method.TEMPIER, 12))
    assert "closure gap +0.000000 rad" in doc


@pytest.mark.parametrize("gap, label", [(-1e-12, "+0.000000"), (0.0, "+0.000000"), (-0.0, "+0.000000"),
                                        (1e-12, "+0.000000"), (-6e-7, "-0.000001")])
def test_closure_gap_sign_follows_the_printed_digits(gap, label):
    square = polygon(Method.BION, 4)
    doc = render_polygon(PolygonResult(square.vertices, square.step_angle, gap))
    assert f"closure gap {label} rad" in doc


def test_object_order_follows_insertion_order():
    fig = Figure()
    fig.curves["first"] = Circle(Point(0, 0), 1.0)
    fig.curves["second"] = Line(Point(-1, 0), Point(1, 0))
    fig.points["P"] = Point(0.0, 0.5)
    doc = render_svg(fig, labels=False)
    assert doc.index("<circle ") < doc.index("<line ") < doc.index("<rect ")


def test_labels_are_xml_escaped():
    fig = evaluate(Program((PointDef("a<b&", Num(0.0), Num(0.0)),)))
    root = ET.fromstring(render_svg(fig))
    (text,) = root.iter("{http://www.w3.org/2000/svg}text")
    assert text.text == "a<b&"


def _filled_by_fixed(template, values):
    """`template` with each float as `fixed(v, 2)` prints it: what `_numbers` must return.
    Each `%%` is a literal percent sign, so a `%.2f` right after one is not a number's."""
    texts = tuple(fixed(v, 2) if isinstance(v, float) else v for v in values)
    return re.sub(r"%(%|\.2f)", lambda m: "%%" if m[1] == "%" else "%s", template) % texts


# odd multiples of 1/8, the ties at two decimals, from 0.125 up to just past 2**40
_TIES = [sign * (2 * m + 1) / 8 for sign in (1, -1)
         for m in (0, 9, 18, 12345, 2**20 + 3, 2**42 + 1)]


@pytest.mark.parametrize(
    "value",
    [*_TIES, *(math.nextafter(t, d) for t in _TIES for d in (-math.inf, math.inf)),
     -0.0, 0.0, -0.004, -0.005, -1e-300, -5e-324, 123.456789],
)
def test_numbers_print_ties_and_negative_zero_as_fixed_does(value):
    template = '<rect x="%.2f"/>'
    assert _numbers(template, [value]) == _filled_by_fixed(template, [value])


def test_numbers_print_one_tie_among_several_values_as_fixed_does():
    assert 2.0**40 < max(_TIES) < 2.0**40 + 1
    assert "%.2f" % 0.125 == "0.12" != fixed(0.125, 2) == "0.13"  # % rounds a tie half to even
    template = '<a x="%.2f" y="%.2f" z="%.2f">%s V%d</a>'
    values = [1.005, -2.375, 0.123456, "n", 7]
    for tie in (0.125, 2.375, -4.625):
        values[1] = tie
        assert _numbers(template, values) == _filled_by_fixed(template, values)


def _odd_eighths(m, negative):
    """(2m + 1)/8, an odd multiple of 1/8: every one below 2**50 is a double."""
    return (-1) ** negative * (2 * m + 1) / 8


_SMALLEST_NORMAL = 2.0**-1022
_mixed_values = st.one_of(
    st.integers(-10**6, 10**6),  # a vertex number: never a tie
    st.builds(_odd_eighths, st.integers(0, 2**52 - 1), st.booleans()),
    st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),  # subnormals and both zeros
    st.sampled_from([-0.0, 1.7e308, -1.7e308, 2.0**50 - 0.125, 0.125, 5e-324]),
    st.floats(-1e6, 1e6),
)


@given(st.lists(_mixed_values, max_size=12))
def test_numbers_print_ints_and_floats_as_fixed_does(values):
    template = "<".join("%d" if type(v) is int else "%.2f" for v in values)
    assert _numbers(template, values) == _filled_by_fixed(template, values)


@pytest.mark.parametrize("value", [1.7e308, -1.7e308, 5e-324, -5e-324, 2.0**-1030, -0.0,
                                   2.0**50 - 0.125, -(2.0**50 - 0.375), 2.0**50 + 0.25])
def test_numbers_find_ties_past_the_edges_of_the_multiples_of_an_eighth(value):
    assert math.isinf(1.7e308 * 8.0)  # its product is inf, which is no integer
    for template, values in (("%d %.2f %.2f", [3, value, 0.125]), ("%d %.2f", [3, value]),
                             ("%.2f", [value])):
        assert _numbers(template, values) == _filled_by_fixed(template, values)


_coords = st.floats(-1e3, 1e3, allow_nan=False)
_points = st.builds(Point, _coords, _coords)


@st.composite
def _figures(draw):
    names = st.text("ABCxyz_0123%<&-.2f", min_size=1, max_size=4)
    points = draw(st.dictionaries(names, _points, max_size=6))
    curves = {}
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(_points, _points), max_size=4))):
        span = math.dist((a.x, a.y), (b.x, b.y))
        if span > 1e-6:  # a circle around a through b, or the line through both
            curves[f"c{i}"] = Circle(a, span) if i % 2 else Line(a, b)
    if not points and not curves:
        points["P"] = draw(_points)
    return Figure(points=points, curves=curves)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_figures(), st.tuples(st.sampled_from(Method), st.integers(4, 2000))),
       st.booleans())
def test_templates_print_the_bytes_fixed_prints(drawing, labels):
    """Every document prints the same with each value through `fixed`, as for a tie."""
    def render():
        try:
            if isinstance(drawing, Figure):
                return render_svg(drawing, labels=labels)
            return render_polygon(polygon(*drawing), labels=labels)
        except VesicaError as err:  # only the refusal of an extent the canvas cannot scale
            assert str(err).startswith("cannot scale a figure")
            return f"refused: {err}"

    fast = render()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svg, "_numbers", _filled_by_fixed)  # its fallback, for every document
        assert render() == fast


def test_names_with_percent_signs_print_verbatim():
    names = ["100%", "%s%d", "a<b&%"]
    fig = Figure(points={name: Point(float(i), -float(i)) for i, name in enumerate(names)})
    root = ET.fromstring(render_svg(fig))
    ns = "{http://www.w3.org/2000/svg}"
    assert [text.text for text in root.iter(ns + "text")] == names
    assert len(list(root.iter(ns + "rect"))) == len(fig.points)


@pytest.mark.parametrize("name, point, shown", [
    # with corners (0, 0) and (1, 1), this point's marker is at x = 42.125 px, a tie
    ("%.2f%%.2f", Point(0.0004296875000000106, 0.5), 'x="42.13"'),
    # every pixel of a point is 44 px or more inside the canvas, so only a name prints -0.00
    ("%-0.00", Point(0.25, 0.5), ">%-0.00<"),
], ids=["tie", "negative-zero"])
def test_names_with_percent_signs_print_verbatim_through_fixed(name, point, shown):
    names = ["a%.2fb", "%%", "100%", name]
    fig = Figure(points=dict(zip(names, [Point(0.0, 0.0), Point(1.0, 1.0), Point(0.75, 0.25), point])))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svg, "fixed", lambda *args: calls.append(args) or fixed(*args))
        doc = render_svg(fig)
    assert calls  # the document went through the fallback
    assert shown in doc
    root = ET.fromstring(doc)
    assert [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")] == names


_XML_REFUSED = [*(chr(c) for c in range(32) if chr(c) not in "\t\n\r"),
                "\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", _XML_REFUSED, ids=[f"U+{ord(c):04X}" for c in _XML_REFUSED])
def test_names_xml_cannot_hold_are_refused(char):
    name = f"a{char}b"
    fig = Figure(points={"B": Point(1.0, 1.0), name: Point(0.0, 0.0)})
    with pytest.raises(VesicaError) as err:
        render_svg(fig)
    assert type(err.value) is VesicaError
    assert str(err.value) == f"cannot draw the point name {name!r}: XML cannot hold {char!r}"
    ET.fromstring(render_svg(fig, labels=False).encode())  # unlabelled, the name is not drawn


@pytest.mark.parametrize("char", ["\t", "\n", "\r", " ", "\ud7ff", "\ue000", "\ufffd",
                                  "\U00010000", "\U0010ffff"])
def test_names_xml_can_hold_are_drawn(char):
    fig = Figure(points={"B": Point(1.0, 1.0), f"a{char}b": Point(0.0, 0.0)})
    root = ET.fromstring(render_svg(fig).encode())
    assert len(list(root.iter("{http://www.w3.org/2000/svg}text"))) == 2


# sha256 of every document below and the CLI's stdout beside each file it
# writes. Any changed byte changes it; re-pin only for an intended change.
_CORPUS_SHA256 = "9ca408073fd6c26cca43e22f26eb59f74f23bf274a90ff6dc3e1606e9caecb6b"


def test_output_bytes_are_pinned(tmp_path, capsys):
    figures = [evaluate(parse(text)) for text in HANDWRITTEN_PROGRAMS]
    figures += [evaluate(method_program(m, n)) for m in Method for n in range(5, 201)]
    ns = itertools.chain(range(4, 400), range(590, 610), (9999, 10000))
    polygons = [polygon(m, n) for n in ns for m in Method]
    digest = hashlib.sha256()
    for labels in (True, False):
        for fig in figures:
            digest.update(render_svg(fig, labels=labels).encode())
        for result in polygons:
            digest.update(render_polygon(result, labels=labels).encode())
    euc, out = tmp_path / "c.euc", tmp_path / "out.svg"
    euc.write_text(format_program(method_program(Method.TEMPIER, 17)))
    for argv in (["run", str(euc), "--svg", str(out)], ["polygon", "bion", "9", "--svg", str(out)]):
        for extra in ([], ["--no-labels"]):
            assert main(argv + extra) == 0
            digest.update(capsys.readouterr().out.encode())
            digest.update(out.read_bytes())
    assert digest.hexdigest() == _CORPUS_SHA256


def test_cli_import_leaves_decimal_unloaded():
    code = "import sys, vesica.cli; print('decimal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"
