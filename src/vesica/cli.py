"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (bad n, malformed
program, failed construction, input over a size bound).  User errors never
produce a stack trace.  Identical argv and input files produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructible, dsl, methods
from .geometry import GeometryError
from .methods import Method, SQRT3
from .svg import RenderOptions, fixed, render_polygon, render_svg

_DOMAIN_ERRORS = (
    ValueError,          # UnsupportedN, DomainError, bad options, ...
    OverflowError,
    GeometryError,
    dsl.ParseError,
    dsl.EvalError,
)


# Bounds on CLI input that keep memory and time small; the library takes any size.
_MAX_TABLE_ROWS = 100_000
_MAX_POLYGON_N = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


def _method(name: str) -> Method:
    return Method(name)


def _paper_round(value: float) -> float:
    return float(fixed(value, 4))


def _row_values(row: methods.ErrorRow, paper: bool) -> list:
    values = [row.n, row.exact, row.approx, row.error, row.rel_error]
    if paper:
        return [row.n] + [_paper_round(v) for v in values[1:]]
    return values


def _cmd_angle(ns) -> int:
    method = _method(ns.method)
    if ns.base is not None and method is not Method.TEMPIER:
        print("error: --base is only supported for tempier", file=sys.stderr)
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
        raise ValueError(f"a table holds at most {_MAX_TABLE_ROWS} rows (--from to --to)")
    rows = methods.error_table(_method(ns.method), ns.start, ns.stop)
    if ns.format == "json":
        payload = [
            dict(zip(("n", "exact", "approx", "error", "rel_error"), _row_values(r, ns.paper)))
            for r in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print("n,exact,approx,error,rel_error")
        for row in rows:
            n, *numbers = _row_values(row, ns.paper)
            if ns.paper:
                print(",".join([str(n)] + [fixed(v, 4) for v in numbers]))
            else:
                print(",".join([str(n)] + [repr(v) for v in numbers]))
    return 0


def _cmd_construct(ns) -> int:
    text = dsl.format_program(methods.method_program(_method(ns.method), ns.n))
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_run(ns) -> int:
    try:
        with open(ns.file, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {ns.file}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    figure = dsl.evaluate(dsl.parse(text))
    for name, value in figure.scalars.items():
        print(f"{name} = {value!r}")
    if ns.svg:
        _write_svg(ns.svg, render_svg(figure, _render_options(ns)))
    return 0


def _cmd_polygon(ns) -> int:
    if ns.n > _MAX_POLYGON_N:
        raise ValueError(f"polygon supports n <= {_MAX_POLYGON_N}, got n={ns.n}")
    result = methods.polygon(_method(ns.method), ns.n)
    _write_svg(ns.svg, render_polygon(result, _render_options(ns)))
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


def _render_options(ns) -> RenderOptions:
    return RenderOptions(label_points=not getattr(ns, "no_labels", False))


def _write_svg(path: str, document: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(document)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vesica", description="Approximate circle division toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angle", help="one method angle vs the exact 2*pi/n")
    p.add_argument("method", choices=["bion", "tempier"])
    p.add_argument("n", type=int)
    p.add_argument("--base", type=float, default=None,
                   help="base point distance below center (tempier only)")
    p.set_defaults(func=_cmd_angle)

    p = sub.add_parser("table", help="error table over a range of n")
    p.add_argument("method", choices=["bion", "tempier"])
    p.add_argument("--from", dest="start", type=int, default=4)
    p.add_argument("--to", dest="stop", type=int, default=20)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--paper", action="store_true",
                   help="round all values to 4 decimals (half away from zero)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("construct", help="emit the construction DSL program")
    p.add_argument("method", choices=["bion", "tempier"])
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None, help="write to a .euc file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("run", help="evaluate a .euc program, print its scalars")
    p.add_argument("file")
    p.add_argument("--svg", default=None, help="also render the figure")
    p.add_argument("--no-labels", dest="no_labels", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("polygon", help="render the stepped n-gon as SVG")
    p.add_argument("method", choices=["bion", "tempier"])
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
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except OSError as exc:
        print(f"error: {exc.strerror or exc}: {getattr(exc, 'filename', '')}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
