import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from vesica import cli
from vesica.cli import main
from vesica.dsl import ParseError, UnknownName, evaluate, format_program, parse
from vesica.methods import (
    Method,
    bion_angle,
    relative_error_limit,
    tempier_angle,
    tempier_program,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- angle -----------------------------------------------------------------------

def test_angle_bion(capsys):
    code, out, err = run_cli(capsys, "angle", "bion", "9")
    assert code == 0 and err == ""
    lines = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    assert float(lines["approx"]) == pytest.approx(bion_angle(9), abs=0)
    assert float(lines["exact"]) == pytest.approx(2 * math.pi / 9, abs=0)
    assert float(lines["error"]) == pytest.approx(2 * math.pi / 9 - bion_angle(9))
    assert float(lines["rel_error"]) == pytest.approx(0.0069, abs=1e-3)


@pytest.mark.parametrize("method, n", [("bion", 10**15), ("tempier", 2**60)])
def test_angle_at_huge_n_prints_the_limit(capsys, method, n):
    code, out, _ = run_cli(capsys, "angle", method, str(n))
    assert code == 0
    lines = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    limit = relative_error_limit(Method(method))
    assert float(lines["rel_error"]) == pytest.approx(abs(limit), abs=1e-9)


def test_angle_tempier_with_base(capsys):
    code, out, _ = run_cli(capsys, "angle", "tempier", "9", "--base", "1.75")
    assert code == 0
    approx = float(out.splitlines()[0].split()[1])
    assert approx == pytest.approx(tempier_angle(9, 1.75), abs=0)


def test_angle_base_rejected_for_bion(capsys):
    code, out, err = run_cli(capsys, "angle", "bion", "9", "--base", "1.75")
    assert code == 1 and out == "" and "--base" in err


def test_angle_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "angle", "bion", "3")
    assert code == 2
    assert "n >= 4" in err and "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "angle", "newton", "9")
    assert code == 1 and err != ""
    code, _, err = run_cli(capsys, "angle", "bion", "nine")
    assert code == 1
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


# --- table -----------------------------------------------------------------------

def test_table_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "table", "bion")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,exact,approx,error,rel_error"
    assert len(lines) == 18  # header + n = 4..20
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[2]) == pytest.approx(bion_angle(4), abs=0)


def test_table_paper_rounding(capsys):
    code, out, _ = run_cli(capsys, "table", "tempier", "--paper")
    assert code == 0
    row12 = [line for line in out.splitlines() if line.startswith("12,")][0]
    assert row12 == "12,0.5236,0.5236,0.0000,0.0000"


def test_table_paper_csv_matches_published_values(capsys):
    from test_acceptance import TEMPIER_TABLE

    code, out, _ = run_cli(
        capsys, "table", "tempier", "--from", "4", "--to", "20", "--paper", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 17
    for row in rows:
        n, _, approx, error, rel_error = row.split(",")
        _, want_approx, want_error, want_rel = TEMPIER_TABLE[int(n)]
        assert float(approx) == pytest.approx(want_approx, abs=1e-3)
        assert float(error) == pytest.approx(want_error, abs=1e-3)
        assert float(rel_error) == pytest.approx(want_rel, abs=1e-3)


def test_table_custom_range(capsys):
    code, out, _ = run_cli(capsys, "table", "bion", "--from", "5", "--to", "7")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["5", "6", "7"]


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "tempier", "--format", "json", "--paper")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 17
    assert rows[0] == {"n": 4, "exact": 1.5708, "approx": 1.5708, "error": 0.0, "rel_error": 0.0}


def test_cli_import_leaves_json_and_decimal_unloaded():
    code = "import sys, vesica.cli; print(sorted({'decimal', 'json'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


def test_cli_import_compiles_no_line_pattern():
    code = "import vesica.cli; print(vesica.dsl._line_patterns.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "0\n"


def test_table_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "bion", "--from", "3")
    assert code == 2 and err != ""


def test_table_row_bound(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.methods, "error_table", lambda *args: calls.append(args) or [])
    code, _, _ = run_cli(capsys, "table", "bion", "--to", str(3 + cli._MAX_TABLE_ROWS))
    assert code == 0 and len(calls) == 1
    code, out, err = run_cli(capsys, "table", "bion", "--to", str(4 + cli._MAX_TABLE_ROWS))
    assert code == 2 and out == "" and "at most 100000 rows" in err
    code, _, err = run_cli(capsys, "table", "bion", "--to", "1000000000")
    assert code == 2 and "Traceback" not in err
    assert len(calls) == 1  # rejected before any row is built


# --- construct / run ----------------------------------------------------------------

def test_construct_stdout_parses(capsys):
    from vesica.dsl import parse
    from vesica.methods import tempier_program

    code, out, _ = run_cli(capsys, "construct", "tempier", "9")
    assert code == 0
    assert parse(out) == tempier_program(9)


def test_construct_to_file_and_run_roundtrip(capsys, tmp_path):
    path = tmp_path / "nonagon.euc"
    code, out, _ = run_cli(capsys, "construct", "bion", "9", "-o", str(path))
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    name, _, value = out.strip().partition(" = ")
    assert name == "theta"
    assert abs(float(value) - bion_angle(9)) < 1e-10


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/file.euc")
    assert code == 1 and "cannot read" in err


def test_run_malformed_program(capsys, tmp_path):
    path = tmp_path / "broken.euc"
    path.write_text("point A = (1, 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 1, column 16" in err and "Traceback" not in err


def test_run_reports_line_of_lf_separated_file(capsys, tmp_path):
    # A form feed and a U+2028 inside a comment do not end the line.
    path = tmp_path / "ff.euc"
    path.write_text("point A = (0, 0) # a\x0cb\u2028c\nline L = A\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 2, column 11:" in err


def test_run_reports_lone_cr_where_parse_does(capsys, tmp_path):
    path = tmp_path / "cr.euc"
    path.write_bytes(b"point A = (0, 0)\rline L = A\n")
    with pytest.raises(ParseError) as parsed:
        parse(path.read_bytes().decode("utf-8"))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {parsed.value}\n"
    assert "line 1, column 17: unexpected character '\\r'" in err


def test_run_reports_a_stray_character_after_long_blank_runs(capsys, tmp_path):
    gap = " \t" * 50_000
    line = gap.join(("", "point", "A", "=", "(", "-", "1", ",", "2", ")", ";"))
    path = tmp_path / "blanks.euc"
    path.write_text(f"point O = (0, 0)\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2, column 1000014: unexpected character ';'\n"


@pytest.mark.parametrize("line, column", [("point B = (\u0661\u0662, 0)", 12),
                                          ("divide F = A B \uff19 2", 16)])
def test_run_rejects_a_non_ascii_digit(capsys, tmp_path, line, column):
    path = tmp_path / "digits.euc"
    path.write_text(f"point A = (0, 0)\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 2, column {column}: unexpected character {line[column - 1]!r}\n"


def test_run_crlf_file_prints_the_scalars_of_its_lf_twin(capsys, tmp_path):
    text = format_program(tempier_program(17))
    lf, crlf = tmp_path / "lf.euc", tmp_path / "crlf.euc"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    code, out, err = run_cli(capsys, "run", str(lf))
    assert code == 0 and err == "" and out.startswith("theta = ")
    assert run_cli(capsys, "run", str(crlf)) == (code, out, err)


@pytest.mark.parametrize(
    "text",
    [
        "point A = (-1e308, -1e308)\npoint B = (1e308, 1e308)\n",
        "point A = (0, 0)\npoint B = (1e-320, 0)\n",
        "point A = (1, 0)\npoint B = (1, 1e-320)\n",
    ],
    ids=["extent-overflows", "extent-subnormal", "extent-subnormal-off-origin"],
)
def test_run_svg_unscalable_extent_exits_2(capsys, tmp_path, text):
    euc, svg = tmp_path / "fig.euc", tmp_path / "fig.svg"
    euc.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(euc), "--svg", str(svg))
    assert code == 2
    assert "cannot scale a figure spanning" in err and "Traceback" not in err
    assert not svg.exists()


def test_run_program_bound(capsys, tmp_path):
    path = tmp_path / "long.euc"
    program = "point O = (0, 0)\npoint P = (1, 0)\npoint Q = (0, 1)\nangle t = O P Q\n# "
    path.write_text(program.ljust(cli._MAX_PROGRAM_CHARS, "x"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0 and out.startswith("t = 1.5707963267948966")
    path.write_text(program.ljust(cli._MAX_PROGRAM_CHARS + 1, "x"), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a program holds at most 1048576 characters\n"


def test_run_geometric_failure(capsys, tmp_path):
    path = tmp_path / "disjoint.euc"
    path.write_text(
        "point A = (0, 0)\npoint B = (9, 0)\npoint U = (1, 0)\npoint W = (10, 0)\n"
        "circle ca = A U\ncircle cb = B W\nintersect X = ca cb pick first\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2 and "empty intersection" in err


def test_run_with_svg(capsys, tmp_path):
    euc = tmp_path / "fig.euc"
    svg = tmp_path / "fig.svg"
    run_cli(capsys, "construct", "tempier", "12", "-o", str(euc))
    code, out, _ = run_cli(capsys, "run", str(euc), "--svg", str(svg))
    assert code == 0
    assert svg.read_text(encoding="utf-8").startswith("<?xml")
    assert "theta = " in out


# --- polygon -------------------------------------------------------------------------

def test_polygon_writes_svg_and_reports_gap(capsys, tmp_path):
    svg = tmp_path / "nine.svg"
    code, out, _ = run_cli(capsys, "polygon", "bion", "9", "--svg", str(svg))
    assert code == 0
    assert out.startswith("closure_gap = 0.043638788750")
    assert "<polyline " in svg.read_text(encoding="utf-8")


def test_polygon_requires_svg_flag(capsys):
    code, _, err = run_cli(capsys, "polygon", "bion", "9")
    assert code == 1 and err != ""


def test_polygon_n_bound(capsys, tmp_path):
    svg = tmp_path / "big.svg"
    code, out, err = run_cli(capsys, "polygon", "bion", "10001", "--svg", str(svg))
    assert code == 2 and out == "" and "n <= 10000" in err
    assert not svg.exists()


def test_unwritable_output_path_exits_1(capsys):
    code, _, err = run_cli(capsys, "polygon", "bion", "9", "--svg", "/nonexistent/dir/x.svg")
    assert code == 1 and "Traceback" not in err and err != ""
    code, _, err = run_cli(capsys, "construct", "bion", "9", "-o", "/nonexistent/dir/x.euc")
    assert code == 1 and err != ""


def test_os_errors_name_the_file_only_when_there_is_one(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "polygon", "bion", "9", "--svg", "/nonexistent/dir/x.svg")
    assert (code, err) == (1, "error: No such file or directory: /nonexistent/dir/x.svg\n")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = main(["table", "bion"])
    assert (code, capsys.readouterr().err) == (1, "error: Broken pipe\n")


# --- check ---------------------------------------------------------------------------

def test_check_nonagon(capsys):
    code, out, _ = run_cli(capsys, "check", "9")
    assert code == 0
    assert out == "9: NOT constructible (3 appears twice)\n"


def test_check_17gon(capsys):
    code, out, _ = run_cli(capsys, "check", "17")
    assert code == 0
    assert out == "17: constructible (17 = 17)\n"


def test_check_60gon(capsys):
    code, out, _ = run_cli(capsys, "check", "60")
    assert out == "60: constructible (60 = 2^2 * 3 * 5)\n"


def test_check_too_small(capsys):
    code, _, err = run_cli(capsys, "check", "2")
    assert code == 2 and err != ""


@pytest.mark.parametrize("argv, status, out", [
    (["check", "60"], 0, "60: constructible (60 = 2^2 * 3 * 5)\n"),
    (["check"], 1, ""),
    (["check", "2"], 2, ""),
])
def test_console_script_exits_with_mains_status(argv, status, out):
    # pyproject.toml's `vesica` script calls cli.run, which exits with main's status.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", "from vesica.cli import run; run()", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (status, out)
    assert (done.stderr == "") == (status == 0)


# --- rectify ---------------------------------------------------------------------------

def test_rectify_default_rows(capsys):
    code, out, _ = run_cli(capsys, "rectify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["vesica", "1.73205", "3.15470"]
    assert lines[1].split() == ["rational", "1.75000", "3.14286"]
    assert lines[2].split() == ["exact", "1.75194", "3.14159"]


def test_rectify_custom_distance(capsys):
    code, out, _ = run_cli(capsys, "rectify", "--distance", "1.75")
    assert code == 0
    assert out.split() == ["custom", "1.75000", "3.14286"]


def test_rectify_invalid_distance(capsys):
    code, _, err = run_cli(capsys, "rectify", "--distance", "-1")
    assert code == 2 and err != ""


@pytest.mark.parametrize("argv, value, code, err", [
    (["rectify", "--distance"], "-1e-3", 2, "error: base distance must be positive, got -0.001\n"),
    (["angle", "tempier", "9", "--base"], "-1e-3", 2, "error: base distance must be positive, got -0.001\n"),
    (["angle", "tempier", "9", "--base"], "-2.5E+1", 2, "error: base distance must be positive, got -25.0\n"),
    (["rectify", "--distance"], "-.5e-1", 2, "error: base distance must be positive, got -0.05\n"),
    (["rectify", "--distance"], "-inf", 2, "error: base distance must be positive, got -inf\n"),
    (["rectify", "--distance"], "-Infinity", 2, "error: base distance must be positive, got -inf\n"),
    (["rectify", "--distance"], "-nan", 2, "error: base distance must be positive, got nan\n"),
    (["table", "bion", "--from"], "-1e3", 1, "usage error: argument --from: invalid int value: '-1e3'\n"),
])
def test_a_negative_option_value_reads_the_same_in_either_spelling(capsys, argv, value, code, err):
    option = argv[-1]
    assert run_cli(capsys, *argv, value) == (code, "", err)
    assert run_cli(capsys, *argv[:-1], f"{option}={value}") == (code, "", err)


@pytest.mark.parametrize("distance", ["1e-310"])
def test_rectify_overflowing_distance_exits_2(capsys, distance):
    code, out, err = run_cli(capsys, "rectify", "--distance", distance)
    assert code == 2 and out == ""
    assert "implied pi" in err and "Traceback" not in err


@pytest.mark.parametrize("distance", ["1e308", repr(sys.float_info.max)])
def test_rectify_largest_distance_prints_2(capsys, distance):
    code, out, err = run_cli(capsys, "rectify", "--distance", distance)
    assert (code, err) == (0, "")
    assert out.split()[::2] == ["custom", "2.00000"]


# --- error handling ---------------------------------------------------------------------

_TWO_POINTS = "point A = (0, 0)\npoint B = (1, 0)\n"


@pytest.mark.parametrize(
    "argv, euc",
    [
        (["run"], "point A = (0, 0)\nline L = A A\n"),
        (["run"], "point A = (0, 0)\ncircle c = A A\n"),
        (["run"], "point A = (0, 0)\ndivide D = A A 2 1\n"),
        (["run"], "point A = (-1e308, 0)\npoint B = (1e308, 0)\ncircle c = A B\n"),
        (["run"], _TWO_POINTS + "line L = A B\nline M = B A\nintersect X = L M\n"),
        (["run"], "point A = (1e200, 0)\npoint B = (0, 0)\n"
                  "circle c = A B\ncircle d = B A\nintersect X Y = c d\n"),
        (["run"], b"point A = (0, 0) # caf\xe9\n"),
        (["run"], "point O = (0, 0)\npoint P = (1e155, 1e155)\npoint Q = (-1e155, 1e155)\n"
                  "angle t = O P Q\n"),
        (["check", "5000000000"], None),
        (["check", "2"], None),
        (["angle", "tempier", "9", "--base", "-1"], None),
        (["angle", "tempier", "9", "--base", "nan"], None),
        (["angle", "bion", "3"], None),
        (["table", "bion", "--from", "10", "--to", "5"], None),
        (["angle", "bion", str(10**400)], None),
        (["table", "bion", "--from", str(10**400), "--to", str(10**400)], None),
    ],
    ids=[
        "line-anchors-coincide", "circle-radius-zero", "divide-degenerate-segment",
        "circle-radius-overflows", "coincident-lines",
        "circle-squares-overflow", "euc-not-utf8", "angle-products-overflow",
        "check-n-too-large", "check-n-too-small", "base-negative", "base-nan",
        "angle-n-too-small", "table-empty-range", "angle-n-beyond-float",
        "table-n-beyond-float",
    ],
)
def test_domain_errors_exit_2_with_one_error_line(capsys, tmp_path, argv, euc):
    if euc is not None:
        path = tmp_path / "case.euc"
        path.write_bytes(euc if isinstance(euc, bytes) else euc.encode("utf-8"))
        argv = argv + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


_LONG_NAME = "x" * 10**6


@pytest.mark.parametrize("argv, euc, status, start", [
    (["run"], f"point A = (0, 0)\nline L = A {_LONG_NAME}\n", 2, "error: no point named 'xxx"),
    (["check", _LONG_NAME], None, 1, "usage error: argument n: invalid int value: 'xxx"),
], ids=["run-unknown-long-name", "usage-long-argument"])
def test_an_error_line_is_cut_after_a_thousand_characters(capsys, tmp_path, argv, euc, status, start):
    if euc is not None:
        path = tmp_path / "case.euc"
        path.write_text(euc, encoding="utf-8")
        argv = argv + [str(path)]
        with pytest.raises(UnknownName) as raised:  # the library keeps the whole message
            evaluate(parse(euc))
        assert str(raised.value) == f"no point named '{_LONG_NAME}'"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (status, "")
    assert err.startswith(start) and err.count("\n") == 1
    assert re.search(r"x\.\.\. \(\d+ more characters\)\n$", err) and len(err.encode()) < 2048


@pytest.mark.parametrize("bug", [ValueError("bug"), OverflowError("bug")])
def test_bugs_are_not_reported_as_domain_errors(monkeypatch, bug):
    def broken(*args):
        raise bug

    monkeypatch.setattr(cli.methods, "method_angle", broken)
    with pytest.raises(type(bug)) as raised:
        main(["angle", "bion", "9"])
    assert raised.value is bug


# --- in-process fuzz of the numeric subcommands -----------------------------------------

_METHODS = st.sampled_from(["bion", "tempier"])
_INTS = st.integers(-2**70, 2**70)
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf])).map(repr)


@st.composite
def _table_argv(draw):
    start = draw(_INTS)
    stop = draw(st.one_of(_INTS, st.integers(-3, 40).map(lambda k: start + k)))
    flags = draw(st.lists(st.sampled_from(["--paper", "--format=json"]), unique=True))
    return ["table", draw(_METHODS), f"--from={start}", f"--to={stop}", *flags]


_NUMERIC_ARGVS = st.one_of(
    st.tuples(st.just("angle"), _METHODS, _INTS.map(str)).map(list),
    st.tuples(st.just("angle"), _METHODS, _INTS.map(str), _FLOATS.map("--base={}".format)).map(list),
    _table_argv(),
    st.tuples(st.just("check"), _INTS.map(str)).map(list),
    st.tuples(st.just("construct"), _METHODS, _INTS.map(str)).map(list),
    st.just(["rectify"]),
    st.tuples(st.just("rectify"), _FLOATS.map("--distance={}".format)).map(list),
    st.tuples(st.just("polygon"), _METHODS, st.one_of(st.integers(-3, 40), st.just(10_001)).map(str)).map(list),
)


def _separate(argv):
    """argv with the value of each `--option=value` item as an item of its own."""
    return [part for item in argv
            for part in (item.split("=", 1) if item.startswith("--") and "=" in item else [item])]


def _run_in_process(argv, tmp):
    """(status, stdout, stderr, the SVG bytes or None) of one cli.main call."""
    svg = os.path.join(tmp, "out.svg")
    if argv[0] == "polygon":
        argv = argv + ["--svg", svg]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if not os.path.exists(svg):
        return status, out.getvalue(), err.getvalue(), None
    with open(svg, "rb") as handle:
        written = handle.read()
    os.remove(svg)
    return status, out.getvalue(), err.getvalue(), written


@settings(max_examples=200, deadline=None)
@given(argv=_NUMERIC_ARGVS)
def test_numeric_subcommands_exit_cleanly_on_any_number(argv):
    with tempfile.TemporaryDirectory() as tmp:
        first = _run_in_process(argv, tmp)
        assert _run_in_process(argv, tmp) == first, argv  # the same argv gives the same bytes
        assert _run_in_process(_separate(argv), tmp) == first, argv  # `--option value` reads alike
    status, out, err, _ = first
    assert status in (0, 1, 2), argv
    if status == 0:
        assert err == "" and not re.search(r"(?i)\b(?:nan|inf|infinity)\b", out), (argv, out)
    else:
        assert err.startswith(("error: ", "usage error: ")) and err.count("\n") == 1, (argv, err)


# --- determinism ------------------------------------------------------------------------

def test_streams_and_files_are_reproducible(capsys, tmp_path):
    _, out1, _ = run_cli(capsys, "table", "tempier", "--format", "json")
    _, out2, _ = run_cli(capsys, "table", "tempier", "--format", "json")
    assert out1 == out2

    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(capsys, "polygon", "tempier", "11", "--svg", str(a))
    run_cli(capsys, "polygon", "tempier", "11", "--svg", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "vesica" in out
