import pytest

from vesica.dsl import Figure, evaluate, parse
from vesica.geometry import Circle, Line, Point
from vesica.methods import Method, bion_program, polygon
from vesica.svg import EmptyFigure, RenderOptions, fixed, render_polygon, render_svg


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
    fig = Figure(points={"P": Point(3.0, -2.0)})
    opts = RenderOptions()
    doc = render_svg(fig, opts)
    assert doc.count("<rect ") == 1
    # unit neighborhood + margin on each side, square canvas
    assert f'width="{fixed(opts.width_px, opts.decimals)}"' in doc
    assert f'height="{fixed(opts.width_px, opts.decimals)}"' in doc
    # marker sits at the canvas center
    half = opts.width_px / 2 - 1.5 * opts.stroke_width
    assert f'<rect x="{fixed(half, 2)}" y="{fixed(half, 2)}"' in doc


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
    labelled = render_svg(fig, RenderOptions(label_points=True))
    bare = render_svg(fig, RenderOptions(label_points=False))
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
    doc = render_svg(fig, RenderOptions(label_points=False))
    import re

    ys = [float(m) for m in re.findall(r'<rect x="[0-9.-]+" y="([0-9.-]+)"', doc)]
    assert len(ys) == 2
    assert ys[0] > ys[1]  # world low point prints lower (larger pixel y)


def test_decimals_control_printed_precision():
    fig = Figure(points={"P": Point(0.123456, 0.0)}, curves={"c": Circle(Point(0, 0), 1.0)})
    doc = render_svg(fig, RenderOptions(decimals=5))
    import re

    numbers = re.findall(r'\b(?:cx|cy|r|x|y|x1|y1|x2|y2|width|height)="(-?\d+\.\d+)"', doc)
    assert numbers
    for number in numbers:
        assert len(number.split(".")[1]) == 5


def test_circle_element_geometry():
    fig = Figure(curves={"c": Circle(Point(0.0, 0.0), 1.0)})
    opts = RenderOptions(margin=0.0, decimals=1)
    doc = render_svg(fig, opts)
    assert '<circle cx="320.0" cy="320.0" r="320.0"' in doc


def test_render_polygon_shows_closure_gap():
    doc = render_polygon(polygon(Method.BION, 9))
    assert "closure gap +0.043639 rad" in doc
    assert doc.count("<polyline ") == 1
    assert doc.count("<circle ") == 1
    # one marker per vertex
    assert doc.count("<rect ") == 9


def test_render_polygon_exact_case_annotation():
    doc = render_polygon(polygon(Method.TEMPIER, 12))
    assert "closure gap +0.000000 rad" in doc or "closure gap -0.000000 rad" in doc


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(width_px=0)
    with pytest.raises(ValueError):
        RenderOptions(margin=0.5)
    with pytest.raises(ValueError):
        RenderOptions(stroke_width=0.0)
    with pytest.raises(ValueError):
        RenderOptions(decimals=16)


def test_object_order_follows_insertion_order():
    fig = Figure()
    fig.curves["first"] = Circle(Point(0, 0), 1.0)
    fig.curves["second"] = Line(Point(-1, 0), Point(1, 0))
    fig.points["P"] = Point(0.0, 0.5)
    doc = render_svg(fig, RenderOptions(label_points=False))
    assert doc.index("<circle ") < doc.index("<line ") < doc.index("<rect ")
