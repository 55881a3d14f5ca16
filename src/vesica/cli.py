"""Command line front end.

Exit codes: 0 success, 1 usage error or unreadable/unwritable file, 2 domain
error: any VesicaError (bad n, malformed program, failed construction, input
over a size bound).  User errors never produce a stack trace; any other
exception is a bug and propagates.  Identical argv and input files produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import constructible, dsl, methods
from .geometry import VesicaError
from .methods import Method, SQRT3
from .svg import fixed, render_polygon, render_svg


# Bounds on CLI input that keep memory and time small; the library takes any size.
_MAX_TABLE_ROWS = 100_000
_MAX_POLYGON_N = 10_000
# A run this long took at most 0.9 s and 110 MB, and one malformed line this long
# at most 0.35 s and 17 MB (2-core x86-64, Python 3.11).
_MAX_PROGRAM_CHARS = 1 << 20
_MAX_ERROR_CHARS = 1000  # a message quotes names and arguments whole; its line is cut here


def _error(prefix: str, message: str) -> None:
    """Print `prefix: message` as one stderr line, cut with a marker past _MAX_ERROR_CHARS."""
    if len(message) > _MAX_ERROR_CHARS:
        message = f"{message[:_MAX_ERROR_CHARS]}... ({len(message) - _MAX_ERROR_CHARS} more characters)"
    print(f"{prefix}: {message}", file=sys.stderr)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Any negative float is a value: older argparse took `--base -1e-3` for an option.
        self._negative_number_matcher = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.I)

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


def _cmd_angle(ns) -> int:
    method = Method(ns.method)
    if ns.base is not None and method is not Method.TEMPIER:
        _error("error", "--base is only supported for tempier")
        return 1
    approx = methods.method_angle(method, ns.n, SQRT3 if ns.base is None else ns.base)
    exact = methods.TAU / ns.n
    error = exact - approx
    print(f"approx    {approx!r}")
    print(f"exact     {exact!r}")
    print(f"error     {error!r}")
    print(f"rel_error {abs(error) / exact!r}")
    return 0


def _cmd_table(ns) -> int:
    if ns.stop - ns.start + 1 > _MAX_TABLE_ROWS:
        raise VesicaError(f"a table holds at most {_MAX_TABLE_ROWS} rows (--from to --to)")
    rows = methods.error_table(Method(ns.method), ns.start, ns.stop)
    columns = ("n", "exact", "approx", "error", "rel_error")
    # --paper rounds to 4 decimals: JSON gets the rounded floats, CSV their text.
    if ns.format == "json":
        import json  # only this branch needs it: a cold `vesica` skips the import

        value = (lambda v: float(fixed(v, 4))) if ns.paper else float
        payload = [
            dict(zip(columns, [row.n] + [value(getattr(row, c)) for c in columns[1:]]))
            for row in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        text = (lambda v: fixed(v, 4)) if ns.paper else repr
        print(",".join(columns))
        for row in rows:
            print(",".join([str(row.n)] + [text(getattr(row, c)) for c in columns[1:]]))
    return 0


def _cmd_construct(ns) -> int:
    text = dsl.format_program(methods.method_program(Method(ns.method), ns.n))
    if ns.output:
        _write_text(ns.output, text)
    else:
        print(text, end="")
    return 0


def _cmd_run(ns) -> int:
    try:
        # newline="": line ends reach parse() as written, so a lone CR is
        # reported where parse() sees it, not taken as a line break.
        with open(ns.file, "r", encoding="utf-8-sig", newline="") as handle:
            text = handle.read(_MAX_PROGRAM_CHARS + 1)
    except OSError as exc:
        _error("error", f"cannot read {ns.file}: {exc.strerror or exc}")
        return 1
    except UnicodeDecodeError as exc:
        raise VesicaError(f"cannot read {ns.file}: {exc}") from None
    if len(text) > _MAX_PROGRAM_CHARS:
        raise VesicaError(f"a program holds at most {_MAX_PROGRAM_CHARS} characters")
    figure = dsl.evaluate(dsl.parse(text))
    for name, value in figure.scalars.items():
        print(f"{name} = {value!r}")
    if ns.svg:
        _write_text(ns.svg, render_svg(figure, labels=not ns.no_labels))
    return 0


def _cmd_polygon(ns) -> int:
    if ns.n > _MAX_POLYGON_N:
        raise VesicaError(f"polygon supports n <= {_MAX_POLYGON_N}, got n={ns.n}")
    result = methods.polygon(Method(ns.method), ns.n)
    _write_text(ns.svg, render_polygon(result, labels=not ns.no_labels))
    print(f"closure_gap = {result.closure_gap!r}")
    return 0


def _cmd_check(ns) -> int:
    print(constructible.check(ns.n).describe())
    return 0


def _cmd_rectify(ns) -> int:
    if ns.distance is not None:
        rows = [("custom", methods.rectified_quadrant(ns.distance))]
    else:
        rows = [
            ("vesica", methods.rectified_quadrant(SQRT3)),
            ("rational", methods.rectified_quadrant(7.0 / 4.0)),
            ("exact", methods.rectified_quadrant(methods.exact_rectifier_distance())),
        ]
    for label, result in rows:
        print(f"{label:<8} {fixed(result.base_distance, 5)} {fixed(result.implied_pi, 5)}")
    return 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vesica", description="Approximate circle division toolkit")
    method_names = [method.value for method in Method]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angle", help="one method angle vs the exact 2*pi/n")
    p.add_argument("method", choices=method_names)
    p.add_argument("n", type=int)
    p.add_argument("--base", type=float, default=None,
                   help="base point distance below center (tempier only)")
    p.set_defaults(func=_cmd_angle)

    p = sub.add_parser("table", help="error table over a range of n")
    p.add_argument("method", choices=method_names)
    p.add_argument("--from", dest="start", type=int, default=4)
    p.add_argument("--to", dest="stop", type=int, default=20)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--paper", action="store_true",
                   help="round all values to 4 decimals (half away from zero)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("construct", help="emit the construction DSL program")
    p.add_argument("method", choices=method_names)
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None, help="write to a .euc file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("run", help="evaluate a .euc program, print its scalars")
    p.add_argument("file")
    p.add_argument("--svg", default=None, help="also render the figure")
    p.add_argument("--no-labels", dest="no_labels", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("polygon", help="render the stepped n-gon as SVG")
    p.add_argument("method", choices=method_names)
    p.add_argument("n", type=int)
    p.add_argument("--svg", required=True)
    p.add_argument("--no-labels", dest="no_labels", action="store_true")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("check", help="Gauss-Wantzel constructibility verdict")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rectify", help="implied pi from rectifying the quadrant")
    p.add_argument("--distance", type=float, default=None)
    p.set_defaults(func=_cmd_rectify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        _error("usage error", str(exc))
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        _error("error", f"{exc.strerror or exc}{where}")
        return 1
    except VesicaError as exc:
        _error("error", str(exc))
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
