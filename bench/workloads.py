"""The four benchmark workloads: sweep, draw, gauss and cli.

A workload turns a seed into a pool of rounds.  A round is a fixed list of
items, and a run attempts whole rounds only, cycling through the pool, so
that the share of failed items is the same in every run.  ``run_item`` is
the timed work; ``check`` compares one output with the independent oracles
after timing has ended.  vesica is reached only through the module
attributes of the namespace ``v`` (``v.dsl.parse``, ``v.methods.polygon``,
...), so that the tracer can replace them.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import euc
import oracles

METHODS = ("bion", "tempier")


class Workload:
    name = ""
    round_size = 0
    pool_rounds = 0

    def __init__(self, v, seed: int, root: Path):
        self.v = v
        self.rng = random.Random(f"{self.name}:{seed}")
        self.method = {m.value: m for m in v.methods.Method}
        self.pool = [[self.make_item(r, i) for i in range(self.round_size)]
                     for r in range(self.pool_rounds)]

    def make_item(self, r: int, i: int):
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def check(self, item, output, oracle: oracles.AngleOracle) -> list[str]:
        raise NotImplementedError

    def expected_failure(self, item, failure: tuple) -> bool:
        return False

    def close(self) -> None:
        pass


# --- sweep: the paper's analysis, computed twice ------------------------------------

SWEEP_BLOCK = 512
# Worst absolute error seen against the 50-digit oracle over n = 4..1500 and
# 2500 seeded n up to 10^6: 2.0e-15 (closed form, Bion n = 5), 5.0e-16 (kernel).
ANGLE_TOL = 1e-14


class Sweep(Workload):
    """One item: SWEEP_BLOCK consecutive n from a seeded start in 4..10^6,
    both methods: closed form, error-table rows, best method, and the
    construction program built and evaluated through the kernel."""

    name = "sweep"
    round_size = 4
    pool_rounds = 4

    def make_item(self, r, i):
        return self.rng.randint(4, 10 ** 6 - SWEEP_BLOCK + 1)

    def run_item(self, n0):
        methods, dsl = self.v.methods, self.v.dsl
        bion, tempier = self.method["bion"], self.method["tempier"]
        n1 = n0 + SWEEP_BLOCK - 1
        tables = (methods.error_table(bion, n0, n1), methods.error_table(tempier, n0, n1))
        per_n = []
        for n in range(n0, n1 + 1):
            per_n.append((
                methods.method_angle(bion, n),
                methods.method_angle(tempier, n),
                dsl.evaluate(methods.method_program(bion, n)).scalars["theta"],
                dsl.evaluate(methods.method_program(tempier, n)).scalars["theta"],
                methods.best_method(n),
            ))
        return tables, per_n

    def check(self, n0, output, oracle):
        tables, per_n = output
        errors = []
        ns = range(n0, n0 + SWEEP_BLOCK)
        for method, rows in zip(METHODS, tables):
            if [row.n for row in rows] != list(ns):
                errors.append(f"error_table({method}, {n0}, ...) rows for n = {[r.n for r in rows]}")
                continue
            for row in rows:
                errors += row_errors(method, row.n, oracle,
                                     (row.exact, row.approx, row.error, row.rel_error))
        for n, (cf_b, cf_t, kern_b, kern_t, best) in zip(ns, per_n):
            for method, closed, kernel in (("bion", cf_b, kern_b), ("tempier", cf_t, kern_t)):
                want = oracle.angle(method, n)
                if not oracles.close(closed, want, ANGLE_TOL):
                    errors.append(f"{method}_angle({n}) = {closed!r}, oracle {want!r}")
                if not oracles.close(kernel, want, ANGLE_TOL):
                    errors.append(f"evaluate({method}_program({n})) theta = {kernel!r}, oracle {want!r}")
            want_best = oracles.best_method(oracle, n)
            got_best = None if best is None else best.value
            if want_best != "either" and got_best != want_best:
                errors.append(f"best_method({n}) = {got_best}, oracle {want_best}")
        return errors


def row_errors(method: str, n: int, oracle, values) -> list[str]:
    """One error-table row (exact, approx, error, rel_error) against 2*pi/n
    and the 50-digit angle."""
    exact, approx, error, rel = values
    want_exact = oracle.exact(n)
    want_approx = oracle.angle(method, n)
    want_error = want_exact - want_approx
    ok = (
        oracles.close(exact, want_exact, 4e-16 * want_exact)
        and oracles.close(approx, want_approx, ANGLE_TOL)
        and oracles.close(error, want_error, ANGLE_TOL)
        and oracles.close(rel, abs(want_error) / want_exact, ANGLE_TOL / want_exact + 1e-12)
    )
    return [] if ok else [f"{method} row n={n}: {values}, oracle approx {want_approx!r}"]


# --- draw: text to SVG ---------------------------------------------------------------

POLYGON_BAND = (596, 604)
DRAW_SCALES = (1.0, 1.0, 1e-3, 1e3)
FAULT_SCALE = 1e-5
FAULT_SLOTS = {9: "bion", 19: "tempier"}    # round positions of the known-fault pages
PROGRAM_SETS = 6                            # (walk, selectors, method) programs per page


@dataclass(frozen=True)
class Page:
    polygon: tuple            # (method, n)
    programs: tuple           # euc.EucProgram: hexagon, selectors, method
    fault: bool = False


class Draw(Workload):
    """One item is a page: polygon + render_polygon for n in a narrow band,
    then PROGRAM_SETS times three .euc programs (a compass walk, every
    selector, a Bion or Tempier construction), each parsed, formatted back,
    evaluated and rendered.  Two pages in each round of twenty are fixed and
    seed-independent; their last program is the Bion/Tempier n = 9
    construction drawn at scale 1e-5, which fails today."""

    name = "draw"
    round_size = 20
    pool_rounds = 4

    def __init__(self, v, seed, root):
        fixed_rng = random.Random("draw:fault-pages")
        self.fault_pages = {}
        for slot, method in FAULT_SLOTS.items():
            programs = tuple(prog for _ in range(PROGRAM_SETS) for prog in (
                euc.hexagon_program(fixed_rng, 1.0), euc.selector_program(fixed_rng, 1.0),
                euc.method_program(method, 9, 1.0, fixed_rng)))
            # the last program is the known fault: the same construction at scale 1e-5
            programs = programs[:-1] + (euc.method_program(method, 9, FAULT_SCALE, fixed_rng),)
            self.fault_pages[slot] = Page(("bion", 600), programs, fault=True)
        super().__init__(v, seed, root)

    def make_item(self, r, i):
        if i in self.fault_pages:
            return self.fault_pages[i]
        rng = self.rng
        method = METHODS[i % 2]
        programs = []
        for k in range(PROGRAM_SETS):
            # every page draws the same mix of scales, so that pages cost alike
            scale = DRAW_SCALES[k % len(DRAW_SCALES)]
            programs += [euc.hexagon_program(rng, scale), euc.selector_program(rng, scale),
                         euc.method_program(method, rng.randint(5, 200), scale, rng)]
        return Page((rng.choice(METHODS), rng.randint(*POLYGON_BAND)), tuple(programs))

    def run_item(self, page):
        methods, dsl, svg = self.v.methods, self.v.dsl, self.v.svg
        method, n = page.polygon
        poly = methods.polygon(self.method[method], n)
        out = [(poly.step_angle, poly.closure_gap, svg.render_polygon(poly))]
        for prog in page.programs:
            program = dsl.parse(prog.text)
            canonical = dsl.format_program(program)
            figure = dsl.evaluate(program)
            out.append((canonical, figure, svg.render_svg(figure)))
        return out

    def expected_failure(self, page, failure):
        return page.fault and failure[1] == "DegenerateAngle"

    def check(self, page, output, oracle):
        method, n = page.polygon
        (step, gap, poly_svg), *drawn = output
        errors = []
        theta = oracle.theta_mp(method, n)
        with oracles.mpmath.workdps(oracles.DIGITS):
            want_gap = float(n * theta - 2 * oracles.mpmath.pi)
        if not oracles.close(step, float(theta), ANGLE_TOL) or not oracles.close(gap, want_gap, 1e-12):
            errors.append(f"polygon({method}, {n}): step {step!r}, gap {gap!r}; oracle {float(theta)!r}, {want_gap!r}")
        errors += oracles.polygon_svg_errors(poly_svg, method, n, oracle, gap)
        for prog, (canonical, figure, document) in zip(page.programs, drawn):
            errors += program_errors(prog, canonical, figure, document, oracle)
        return errors


def program_errors(prog, canonical, figure, document, oracle) -> list[str]:
    errors = []
    if canonical != prog.canonical:
        errors.append(f"format_program({prog.kind}) printed {canonical!r}, expected {prog.canonical!r}")
    expected = euc.expected_figure(prog, oracle)
    points = {name: (p.x, p.y) for name, p in figure.points.items()}
    errors += euc.figure_errors(prog, expected, points, dict(figure.scalars))
    n_points = len(expected.points)
    svg_errors, _ = oracles.svg_errors(document, {
        "svg": 1, "circle": expected.circles, "line": expected.lines,
        "rect": n_points, "text": n_points,
    })
    return errors + [f"{prog.kind}: {e}" for e in svg_errors]


# --- gauss: constructibility in bulk and for single large n -------------------------------

GAUSS_CENSUS_BAND = (9600, 10080)
LARGE_PRIME_BAND = (2 ** 32 - 2 ** 28, 2 ** 32 - 1)
_SMALL_ODD_PRIMES = [p for p in range(3, 5000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
_NON_FERMAT = [p for p in _SMALL_ODD_PRIMES if p not in oracles.FERMAT_PRIMES]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses, which is
    exact below 3.3e24.  Used only to build inputs; primes are certified
    again with sympy when outputs are checked."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fill_to_2_32(factors: dict[int, int]) -> dict[int, int]:
    """Multiplies in the largest power of two that keeps n <= 2^32."""
    odd = math.prod(p ** e for p, e in factors.items())
    k = (oracles.LIMIT_2_32 // odd).bit_length() - 1
    if k:
        factors = {2: k, **factors}
    return factors


def large_m(rng: random.Random, kind: str) -> dict[int, int]:
    """Factors of a seeded n near 2^32 with a known verdict.

    kinds: "prime" (a prime in the top 2^28 below 2^32), "constructible"
    (2^k times a product of distinct Fermat primes), "repeated" (an odd
    prime squared), "non-fermat" (a small prime that is not a Fermat prime).
    """
    fermat = [p for p in oracles.FERMAT_PRIMES if rng.random() < 0.5]
    if kind == "prime":
        while True:
            p = rng.randint(*LARGE_PRIME_BAND) | 1
            if is_probable_prime(p):
                return {p: 1}
    if kind == "constructible":
        return _fill_to_2_32({p: 1 for p in fermat})
    if kind == "repeated":
        p = rng.choice(_SMALL_ODD_PRIMES[:25])
        return _fill_to_2_32({p: 2, **{q: 1 for q in fermat if q != p and q < 257}})
    q = rng.choice(_NON_FERMAT)
    return _fill_to_2_32({q: 1, **{p: 1 for p in fermat if p < 257}})


M_KINDS = ("prime",) * 12 + ("constructible", "repeated", "non-fermat")


class Gauss(Workload):
    """One item: constructible_up_to(L) for L in a narrow band, then check()
    on fifteen seeded n near 2^32, one for each entry of M_KINDS; the
    twelve primes together cost about as much as the census."""

    name = "gauss"
    round_size = 8
    pool_rounds = 8

    def make_item(self, r, i):
        ms = tuple(tuple(sorted(large_m(self.rng, kind).items())) for kind in M_KINDS)
        return self.rng.randint(*GAUSS_CENSUS_BAND), ms

    def run_item(self, item):
        constructible = self.v.constructible
        limit, ms = item
        census = constructible.constructible_up_to(limit)
        verdicts = [constructible.check(math.prod(p ** e for p, e in f)) for f in ms]
        return census, verdicts

    def check(self, item, output, oracle):
        limit, ms = item
        census, verdicts = output
        errors = []
        if census != oracles.constructible_numbers(limit):
            errors.append(f"constructible_up_to({limit}) differs from the Fermat enumeration")
        for factors, got in zip(ms, verdicts):
            errors += verdict_errors(dict(factors), got)
        return errors


_certified: dict[int, bool] = {}


def certified_prime(p: int) -> bool:
    if p not in _certified:
        import sympy
        _certified[p] = bool(sympy.isprime(p))
    return _certified[p]


def verdict_errors(factors: dict[int, int], got) -> list[str]:
    bad = [p for p in factors if not certified_prime(p)]
    if bad:
        return [f"input factor(s) {bad} are not prime"]
    want = oracles.verdict(factors)
    obstruction = None if got.obstruction is None else (got.obstruction.kind, got.obstruction.prime)
    have = {"n": got.n, "constructible": got.constructible, "power_of_two": got.power_of_two,
            "odd_primes": tuple(got.odd_primes), "obstruction": obstruction}
    return [] if have == want else [f"check({want['n']}) = {have}, expected {want}"]


# --- cli: one cold process per item ---------------------------------------------------

CLI_KINDS = ("angle", "check", "construct", "run", "table", "polygon", "rectify")


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple
    params: tuple
    output_file: str | None = None


def cli_commands(rng: random.Random, workdir: Path, tag: str) -> list[Command]:
    """One seeded command of each kind in CLI_KINDS; files live in workdir."""
    method = rng.choice(METHODS)
    n = rng.randint(4, 10 ** 6)
    factors = tuple(sorted(large_m(rng, rng.choice(M_KINDS)).items()))
    m = math.prod(p ** e for p, e in factors)
    c_method, c_n = rng.choice(METHODS), rng.randint(4, 10 ** 6)
    program = (euc.selector_program(rng, 1.0) if rng.random() < 0.5 else
               euc.method_program(rng.choice(METHODS), rng.randint(4, 500), 1.0, rng))
    euc_path = workdir / f"prog-{tag}.euc"
    euc_path.write_bytes(program.text.encode())
    t_method = rng.choice(METHODS)
    lo = rng.randint(4, 20)
    hi = rng.randint(lo, 20)
    p_method, p_n = rng.choice(METHODS), rng.randint(5, 12)
    return [
        Command("angle", ("angle", method, str(n)), (method, n)),
        Command("check", ("check", str(m)), (factors,)),
        Command("construct", ("construct", c_method, str(c_n), "-o", "construct.euc"),
                (c_method, c_n), "construct.euc"),
        Command("run", ("run", euc_path.name, "--svg", "run.svg"), (program,), "run.svg"),
        Command("table", ("table", t_method, "--paper", "--from", str(lo), "--to", str(hi)),
                (t_method, lo, hi)),
        Command("polygon", ("polygon", p_method, str(p_n), "--svg", "polygon.svg"),
                (p_method, p_n), "polygon.svg"),
        Command("rectify", ("rectify",), ()),
    ]


def child_env(root: Path) -> dict:
    """The environment of a vesica child: vesica from ``src/``, and bytecode
    cached as for an installed package, whatever the caller's settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """One item: one cold ``python -m vesica.cli`` process, cycling through
    the seven commands of CLI_KINDS, run one at a time in a work directory."""

    name = "cli"
    round_size = len(CLI_KINDS)
    pool_rounds = 10

    def __init__(self, v, seed, root):
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.env = child_env(root)
        self._round: list[Command] = []
        super().__init__(v, seed, root)

    def make_item(self, r, i):
        if i == 0:
            self._round = cli_commands(self.rng, self.workdir, str(r))
        return self._round[i]

    def run_item(self, cmd):
        target = self.workdir / cmd.output_file if cmd.output_file else None
        if target is not None and target.exists():
            target.unlink()
        proc = subprocess.run(
            [sys.executable, "-m", "vesica.cli", *cmd.argv],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=60,
        )
        written = target.read_bytes() if target is not None and target.exists() else None
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), written

    def check(self, cmd, output, oracle):
        code, out, err, written = output
        if code != 0 or err:
            return [f"vesica {' '.join(cmd.argv)}: exit {code}, stderr {err!r}"]
        errors = cli_output_errors(cmd, out, written, oracle)
        return [f"vesica {' '.join(cmd.argv)}: {e}" for e in errors]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _float_lines(out: str) -> dict[str, float]:
    """``name = value`` or ``name value`` lines; a value that is not a
    number reads as NaN, which no check accepts."""
    values = {}
    for line in out.splitlines():
        key, _, value = line.partition("=") if "=" in line else line.partition(" ")
        try:
            values[key.strip()] = float(value)
        except ValueError:
            values[key.strip()] = math.nan
    return values


def cli_output_errors(cmd: Command, out: str, written: bytes | None, oracle) -> list[str]:
    kind = cmd.kind
    if kind == "angle":
        method, n = cmd.params
        got = _float_lines(out)
        row = (got.get("exact", math.nan), got.get("approx", math.nan),
               got.get("error", math.nan), got.get("rel_error", math.nan))
        if list(got) != ["approx", "exact", "error", "rel_error"]:
            return [f"printed {out!r}"]
        return row_errors(method, n, oracle, row)
    if kind == "check":
        want = oracles.verdict_text(oracles.verdict(dict(cmd.params[0])))
        return [] if out == want + "\n" else [f"printed {out!r}, expected {want!r}"]
    if kind == "construct":
        method, n = cmd.params
        want = euc.method_program(method, n, 1.0, random.Random(0)).canonical
        ok = out == "" and written == want.encode()
        return [] if ok else [f"wrote {written!r}, expected {want!r}"]
    if kind == "run":
        (prog,) = cmd.params
        expected = euc.expected_figure(prog, oracle)
        got = _float_lines(out)
        errors = []
        if list(got) != list(expected.scalars):
            errors.append(f"printed {out!r}")
        for name, value in expected.scalars.items():
            if not oracles.close(got.get(name, math.nan), value, 1e-9):
                errors.append(f"{name} = {got.get(name)!r}, expected {value!r}")
        if written is None:
            return errors + ["no svg written"]
        n_points = len(expected.points)
        svg_errors, _ = oracles.svg_errors(written.decode(), {
            "svg": 1, "circle": expected.circles, "line": expected.lines,
            "rect": n_points, "text": n_points,
        })
        return errors + svg_errors
    if kind == "table":
        return paper_table_errors(cmd.params, out, oracle)
    if kind == "polygon":
        method, n = cmd.params
        got = _float_lines(out)
        with oracles.mpmath.workdps(oracles.DIGITS):
            want_gap = float(n * oracle.theta_mp(method, n) - 2 * oracles.mpmath.pi)
        gap = got.get("closure_gap", math.nan)
        errors = [] if oracles.close(gap, want_gap, 1e-12) else [f"closure_gap {gap!r}, oracle {want_gap!r}"]
        if written is None:
            return errors + ["no svg written"]
        return errors + oracles.polygon_svg_errors(written.decode(), method, n, oracle, gap)
    want = oracles.rectify_text()
    return [] if out == want else [f"printed {out!r}, expected {want!r}"]


def paper_table_errors(params, out: str, oracle) -> list[str]:
    """``table --paper`` rows: each value is the 50-digit value rounded
    exactly to four decimals, and within rounding of the published table."""
    method, lo, hi = params
    lines = out.splitlines()
    if not lines or lines[0] != "n,exact,approx,error,rel_error" or len(lines) != hi - lo + 2:
        return [f"printed {out!r}"]
    errors = []
    for n, line in zip(range(lo, hi + 1), lines[1:]):
        fields = line.split(",")
        if fields[0] != str(n) or len(fields) != 5:
            errors.append(f"row {line!r} for n={n}")
            continue
        with oracles.mpmath.workdps(oracles.DIGITS):
            exact = 2 * oracles.mpmath.pi / n
            approx = oracle.theta_mp(method, n)
            error = exact - approx
            values = (exact, approx, error, abs(error) / exact)
        for printed, value, published in zip(fields[1:], values, oracles.PAPER_TABLES[method][n]):
            exact_ok = printed == oracles.fixed_text(value, 4) or oracles.near_tie(value, 4)
            if not exact_ok or not oracles.paper_matches(printed, published):
                errors.append(f"n={n}: printed {printed}, 50 digits give {oracles.fixed_text(value, 4)}, "
                              f"published {published}")
    return errors


WORKLOADS = {w.name: w for w in (Sweep, Draw, Gauss, Cli)}
