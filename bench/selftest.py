"""Shows that every oracle check rejects a deliberately wrong output.

    python3 bench/selftest.py

For each workload it runs real items through vesica, requires the checks
to accept their outputs, then feeds the checks perturbed copies (a wrong
last digit, a swapped verdict, a moved vertex, a dropped element, ...) and
requires every one of them to be rejected.  Exits 1 if a genuine output is
rejected or a perturbed one accepted.
"""

from __future__ import annotations

import dataclasses
import re
import sys

import oracles
import run
import workloads

failures: list[str] = []


def expect(label: str, errors: list[str], rejected: bool) -> None:
    ok = bool(errors) == rejected
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({errors[0][:90]})" if errors else ""))
    if not ok:
        failures.append(label)


def bump_last_digit(text: str) -> str:
    """The same number with its last digit changed by one."""
    last = text[-1]
    return text[:-1] + ("0" if last == "9" else str(int(last) + 1))


def replace_first(pattern: str, repl, text: str) -> str:
    changed, count = re.subn(pattern, repl, text, count=1)
    assert count == 1, pattern
    return changed


def check_sweep(v, oracle) -> None:
    wl = workloads.Sweep(v, 1, run.ROOT)
    n0 = wl.pool[0][0]
    tables, per_n = wl.run_item(n0)
    expect("sweep genuine", wl.check(n0, (tables, per_n), oracle), False)
    cf_b, cf_t, kb, kt, best = per_n[0]
    other = wl.method["bion"] if best is not wl.method["bion"] else wl.method["tempier"]
    cases = {
        "closed form off by 1e-13": (cf_b + 1e-13, cf_t, kb, kt, best),
        "kernel theta off by 1e-13": (cf_b, cf_t, kb, kt + 1e-13, best),
        "best method swapped": (cf_b, cf_t, kb, kt, other),
        "best method a tie": (cf_b, cf_t, kb, kt, None),
    }
    for label, row in cases.items():
        expect(f"sweep {label}", wl.check(n0, (tables, [row] + per_n[1:]), oracle), True)
    first = tables[0][0]
    for field, shift in (("exact", 1e-8), ("approx", 1e-8), ("error", 1e-7), ("rel_error", 1e-6)):
        moved = dataclasses.replace(first, **{field: getattr(first, field) * (1 + shift)})
        bad = ([moved] + tables[0][1:], tables[1])
        expect(f"sweep error row {field} off", wl.check(n0, (bad, per_n), oracle), True)
    expect("sweep error row missing", wl.check(n0, ((tables[0][:-1], tables[1]), per_n), oracle), True)


def check_draw(v, oracle) -> None:
    wl = workloads.Draw(v, 1, run.ROOT)
    page = next(p for p in wl.pool[0] if not p.fault)
    out = wl.run_item(page)
    expect("draw genuine", wl.check(page, out, oracle), False)
    (step, gap, poly_svg), *drawn = out

    def with_polygon(**kw):
        values = {"step": step, "gap": gap, "svg": poly_svg, **kw}
        return [(values["step"], values["gap"], values["svg"])] + drawn

    moved = replace_first(r'points="(-?\d+\.\d+)', lambda m: f'points="{bump_last_digit(m.group(1))}', poly_svg)
    cases = {
        "polyline vertex moved by one unit": with_polygon(svg=moved),
        "polygon marker dropped": with_polygon(svg=replace_first(r"<rect [^>]*/>\n", "", poly_svg)),
        "polygon svg truncated": with_polygon(svg=poly_svg[:-8]),
        "closure label last digit": with_polygon(
            svg=replace_first(r"closure gap ([-+]\d+\.\d+)", lambda m: f"closure gap {bump_last_digit(m.group(1))}", poly_svg)),
        "polygon step angle off": with_polygon(step=step + 1e-13),
    }
    for label, bad in cases.items():
        expect(f"draw {label}", wl.check(page, bad, oracle), True)

    for k, (prog, (canonical, figure, document)) in enumerate(zip(page.programs, drawn)):
        def with_program(**kw):
            values = {"canonical": canonical, "figure": figure, "document": document, **kw}
            swapped = list(out)
            swapped[1 + k] = (values["canonical"], values["figure"], values["document"])
            return swapped

        name, point = next(reversed(figure.points.items()))
        shifted = dataclasses.replace(figure, points={**figure.points,
                                                      name: v.geometry.Point(point.x + 1e-6 * prog.scale, point.y)})
        scalar = next(iter(figure.scalars))
        wrong_scalar = dataclasses.replace(figure, scalars={**figure.scalars, scalar: figure.scalars[scalar] + 1e-8})
        cases = {
            "format_program token changed": with_program(canonical=canonical.replace(" = ", " =  ", 1)),
            "point moved": with_program(figure=shifted),
            "scalar off": with_program(figure=wrong_scalar),
            "svg circle dropped": with_program(document=replace_first(r"<circle [^>]*/>\n", "", document)),
            "svg number with three decimals": with_program(
                document=replace_first(r'r="(\d+\.\d\d)"', lambda m: f'r="{m.group(1)}5"', document)),
        }
        for label, bad in cases.items():
            expect(f"draw {prog.kind} {label}", wl.check(page, bad, oracle), True)

    fault = wl.pool[0][next(iter(workloads.FAULT_SLOTS))]
    try:
        wl.run_item(fault)
    except Exception as exc:
        failure = ("error", type(exc).__name__, str(exc))
        expect("draw scale-1e-5 page fails as the known fault",
               [] if wl.expected_failure(fault, failure) else ["unexpected failure"], False)
        expect("draw other failure on a fault page",
               [] if wl.expected_failure(fault, ("error", "ValueError", "")) else ["unexpected"], True)
    else:
        print("note: the scale-1e-5 page no longer fails")


def check_gauss(v, oracle) -> None:
    wl = workloads.Gauss(v, 1, run.ROOT)
    item = wl.pool[0][0]
    census, verdicts = wl.run_item(item)
    expect("gauss genuine", wl.check(item, (census, verdicts), oracle), False)
    first = verdicts[0]
    cases = {
        "census with one extra number": (census + [census[-1] + 1], verdicts),
        "census missing one number": (census[:-1], verdicts),
        "verdict swapped": (census, [dataclasses.replace(first, constructible=not first.constructible)] + verdicts[1:]),
        "obstruction prime wrong": (census, [dataclasses.replace(
            first, obstruction=dataclasses.replace(first.obstruction, prime=first.obstruction.prime + 2))] + verdicts[1:]),
        "power of two wrong": (census, verdicts[:1] + [dataclasses.replace(
            verdicts[1], power_of_two=verdicts[1].power_of_two + 1)] + verdicts[2:]),
    }
    for label, bad in cases.items():
        expect(f"gauss {label}", wl.check(item, bad, oracle), True)
    limit, ms = item
    composite = ((3, 1), (5, 1), (15, 1))
    expect("gauss input factor that is not prime",
           wl.check((limit, (composite,) + ms[1:]), (census, verdicts), oracle), True)


def check_cli(v, oracle) -> None:
    wl = workloads.Cli(v, 1, run.ROOT)
    try:
        for cmd in wl.pool[0]:
            code, out, err, written = wl.run_item(cmd)
            expect(f"cli {cmd.kind} genuine", wl.check(cmd, (code, out, err, written), oracle), False)
            expect(f"cli {cmd.kind} nonzero exit", wl.check(cmd, (2, out, err, written), oracle), True)
            if cmd.kind in ("angle", "run", "polygon"):
                bad = replace_first(r"(\d\.\d{5})", lambda m: bump_last_digit(m.group(1)), out)
                expect(f"cli {cmd.kind} printed value changed", wl.check(cmd, (0, bad, err, written), oracle), True)
            if cmd.kind == "check":
                bad = out.replace("NOT constructible", "constructible") if "NOT" in out else out.replace(
                    "constructible", "NOT constructible")
                expect("cli check verdict swapped", wl.check(cmd, (0, bad, err, written), oracle), True)
            if cmd.kind in ("table", "rectify"):
                bad = replace_first(r"(\d\.\d{4,5})\n", lambda m: bump_last_digit(m.group(1)) + "\n", out)
                expect(f"cli {cmd.kind} last digit changed", wl.check(cmd, (0, bad, err, written), oracle), True)
            if cmd.kind == "construct":
                bad = written.replace(b"pick upper", b"pick lower")
                expect("cli construct file changed", wl.check(cmd, (0, out, err, bad), oracle), True)
            if cmd.kind in ("run", "polygon"):
                bad = replace_first(r"<rect [^>]*/>\n", "", written.decode()).encode()
                expect(f"cli {cmd.kind} svg element dropped", wl.check(cmd, (0, out, err, bad), oracle), True)
    finally:
        wl.close()
    published = oracles.PAPER_TABLES["tempier"][5][2]
    expect("published table off by two units", [] if oracles.paper_matches("0.0113", published) else ["x"], True)
    expect("fixed() oracle: half away from zero",
           [] if (oracles.fixed_text(2.5, 0), oracles.fixed_text(-0.125, 2), oracles.fixed_text(-0.001, 2))
           == ("3", "-0.13", "0.00") else ["wrong rounding"], False)


class _Flaky:
    """A workload whose single item gives a new output on every run."""

    pool = [[0]]

    def __init__(self):
        self.calls = 0

    def run_item(self, item):
        self.calls += 1
        return self.calls

    def check(self, item, output, oracle):
        return []


def check_determinism() -> None:
    m = run.Measurement()
    m.first[(0, 0)] = 1
    flaky = _Flaky()
    flaky.calls = 1
    expect("output that changes on a second run", run.check_outputs(flaky, m), True)


def main() -> int:
    if not (run.SRC / "vesica" / "__init__.py").is_file():
        print(f"error: no vesica sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    v = run.Vesica()
    oracle = oracles.AngleOracle()
    for section in (check_sweep, check_draw, check_gauss, check_cli):
        section(v, oracle)
    check_determinism()
    print(f"{len(failures)} check(s) misbehaved" if failures else "every check rejects its perturbed output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
