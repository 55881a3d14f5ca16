"""vesica benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from any directory; vesica is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record goes to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import oracles  # noqa: E402  (bench/ is on sys.path as the script directory)
import layers  # noqa: E402
import workloads  # noqa: E402

VESICA_MODULES = ("geometry", "dsl", "methods", "constructible", "svg", "cli")
# Set-up is repeated before and after the timed loop, so that its median
# samples the machine at both ends of the run.
SETUP_BEFORE, SETUP_AFTER = 3, 2
TAIL_BEYOND = 10
# Timings are reported at reference speed: each wall time is multiplied by
# REF_MS / the mean of the REF_WINDOW reference-loop times on each side of
# it (see README.md, "Reference speed").  Wall times go to the record.
REF_MS = 4.5
REF_WINDOW = 4


class Vesica:
    """The freshly imported vesica modules."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "vesica" or m.startswith("vesica.")]:
            del sys.modules[name]
        for name in VESICA_MODULES:
            setattr(self, name, importlib.import_module(f"vesica.{name}"))
        where = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"vesica imported from {where}, not from {SRC}")


def _reference_step(x: float, y: float) -> tuple[float, float]:
    return x * 0.5 + y, math.hypot(x, y)


def reference_loop_ms() -> float:
    """A fixed pure-Python loop of the kinds of work vesica does (calls,
    tuples, float math, a dict, a list); its time tracks the machine's
    speed and nothing of vesica's."""
    start = perf_counter()
    acc = 0.0
    seen = {}
    for i in range(6_000):
        p = _reference_step(i * 1e-3, 1.5)
        seen[i & 63] = p
        acc += p[1] - p[0]
        acc -= sum([p[0], p[1], acc]) * 1e-9
    return (perf_counter() - start) * 1e3


def pin_to_one_cpu() -> None:
    """Keeps this process, and the children it starts, on one CPU, so that
    the reference loop and the items it scales run at the same speed: on a
    shared host two CPUs of one machine can run at unrelated speeds."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_reference_speed(seconds: float, refs: list[float], k: int) -> float:
    """``seconds`` measured between reference samples ``k - 1`` and ``k``,
    scaled by the mean of the REF_WINDOW samples on each side to the speed
    at which the reference loop takes REF_MS."""
    return seconds * REF_MS / statistics.fmean(refs[max(0, k - REF_WINDOW):k + REF_WINDOW])


def set_up(name: str, seed: int, repeats: int):
    """Imports vesica, builds the pool and warms up on its first item, as
    many times as ``repeats``; returns the last workload, every wall time
    and every time at reference speed."""
    times, scaled = [], []
    before = [reference_loop_ms() for _ in range(REF_WINDOW)]
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        start = perf_counter()
        v = Vesica()
        workload = workloads.WORKLOADS[name](v, seed, ROOT)
        workload.run_item(workload.pool[0][0])
        times.append(perf_counter() - start)
        after = [reference_loop_ms() for _ in range(REF_WINDOW)]
        scaled.append(at_reference_speed(times[-1], before + after, REF_WINDOW))
        before = after
    return workload, times, scaled


class Measurement:
    def __init__(self) -> None:
        self.refs: list[float] = []   # reference loop ms: one before each item, one after the last
        self.items: list[tuple[float, bool, bool]] = []   # (wall s, completed, traced), all attempted
        self.attempted = 0
        self.failed = 0
        self.traced_items = 0
        self.first: dict[tuple[int, int], object] = {}
        self.errors: list[str] = []

    def latencies(self, traced: bool = False, scaled: bool = True) -> list[float]:
        """Seconds of the completed items, at reference speed or as wall time."""
        return [at_reference_speed(s, self.refs, k + 1) if scaled else s
                for k, (s, ok, t) in enumerate(self.items) if ok and t == traced]

    def busy(self, scaled: bool = True) -> float:
        """Seconds of every attempted item, failed ones too."""
        return sum(at_reference_speed(s, self.refs, k + 1) if scaled else s
                   for k, (s, _, _) in enumerate(self.items))


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Closed loop, one client: whole rounds of the pool until ``seconds``
    have passed.  With a tracer, every other round runs traced; the other
    rounds give the untraced latencies the overhead is measured against."""
    m = Measurement()
    pool = workload.pool
    deadline = perf_counter() + seconds
    r = 0
    while True:
        slot = r % len(pool)
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install()
        for i, item in enumerate(pool[slot]):
            m.refs.append(reference_loop_ms())
            start = perf_counter()
            try:
                output = workload.run_item(item)
            except Exception as exc:  # recorded, then judged by the checks
                elapsed = perf_counter() - start
                output = ("error", type(exc).__name__, str(exc))
                m.failed += 1
                m.items.append((elapsed, False, traced))
            else:
                elapsed = perf_counter() - start
                m.items.append((elapsed, True, traced))
            m.attempted += 1
            m.traced_items += traced
            key = (slot, i)
            if key not in m.first:
                m.first[key] = output
            elif m.first[key] != output:
                m.errors.append(f"item {key}: output differs from its first run")
        if traced:
            tracer.uninstall()
        r += 1
        if perf_counter() >= deadline and (tracer is None or r >= 2):
            m.refs.append(reference_loop_ms())
            return m


def check_outputs(workload, m: Measurement) -> list[str]:
    """Every distinct output against the oracles, and round 0 run again for
    byte-identical results."""
    oracle = oracles.AngleOracle()
    errors = list(m.errors)
    for (slot, i), output in m.first.items():
        item = workload.pool[slot][i]
        if isinstance(output, tuple) and output[:1] == ("error",):
            if not workload.expected_failure(item, output):
                errors.append(f"item {(slot, i)} failed: {output[1]}: {output[2]}")
            continue
        try:
            errors += workload.check(item, output, oracle)
        except (ValueError, TypeError, IndexError, AttributeError) as exc:  # malformed output
            errors.append(f"item {(slot, i)}: output could not be checked: {exc!r}")
    for i, item in enumerate(workload.pool[0]):
        try:
            again = workload.run_item(item)
        except Exception as exc:
            again = ("error", type(exc).__name__, str(exc))
        if again != m.first.get((0, i)):
            errors.append(f"item (0, {i}): a second run gave different output")
    return errors


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_import_ms(runs: int = 5) -> float:
    """Median time to import vesica.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import vesica.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(ROOT),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


def cli_main_ms(v, seed: int, cycles: int = 3) -> float:
    """Median time of one in-process ``vesica.cli.main(argv)``, output captured."""
    OUT.mkdir(exist_ok=True)
    times = []
    with tempfile.TemporaryDirectory(prefix="main-", dir=OUT) as tmp:
        workdir = Path(tmp)
        commands = workloads.cli_commands(random.Random(f"cli-main:{seed}"), workdir, "main")
        for _ in range(cycles):
            for cmd in commands:
                argv = [str(workdir / a) if a.endswith((".euc", ".svg")) else a for a in cmd.argv]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    start = perf_counter()
                    code = v.cli.main(argv)
                    times.append(perf_counter() - start)
                if code != 0:
                    raise RuntimeError(f"vesica {' '.join(argv)} exited {code}: {sink.getvalue()}")
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vesica" / "__init__.py").is_file():
        print(f"error: no vesica sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False   # import vesica as an installed package would be
    pin_to_one_cpu()

    workload, setup_wall, setup_scaled = set_up(args.workload, args.seed, SETUP_BEFORE)
    try:
        tracer = layers.Tracer(workload.v) if args.trace else None
        m = measure(workload, args.seconds, tracer)
        rss = peak_rss_mb(args.workload)
        spare, more_wall, more_scaled = set_up(args.workload, args.seed, SETUP_AFTER)
        spare.close()
        setup_wall += more_wall
        setup_scaled += more_scaled
        extra = {}
        if args.trace:
            extra = {"cli.import_ms": cli_import_ms(), "cli.main_ms": cli_main_ms(workload.v, args.seed)}
        errors = check_outputs(workload, m)
    finally:
        workload.close()

    def end_to_end(scaled: bool) -> dict[str, float]:
        completed = m.latencies(scaled=scaled)
        return {
            "throughput": len(completed) / m.busy(scaled),
            "latency_ms_p50": statistics.median(completed) * 1e3,
            "latency_ms_tail": tail(completed)[0] * 1e3,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_scaled if scaled else setup_wall),
        }

    samples = len(m.latencies(scaled=False))
    tail_pct = tail(m.latencies(scaled=False))[1]
    wall = end_to_end(scaled=False)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0],
        "reference_ms": REF_MS,
        "reference_loop_ms": statistics.median(m.refs),
        "reference_loop_ms_q1_q3": statistics.quantiles(m.refs, n=4)[::2],
        "wall": wall,
        "samples": samples,
        "tail_percentile": tail_pct,
        "errors": errors[:50],
        "setup_wall_s": setup_wall,
        "item_wall_s": [s for s, _, _ in m.items],
        "reference_samples_ms": m.refs,
    }
    if args.trace:
        metrics = layers.layer_metrics(tracer, m.traced_items)
        metrics.update(extra)
        untraced = statistics.median(m.latencies())
        metrics["trace.overhead_pct"] = (statistics.median(m.latencies(traced=True)) / untraced - 1) * 100
        metrics["host.reference_loop_ms"] = record["reference_loop_ms"]
        units = layers.UNITS
    else:
        metrics = end_to_end(scaled=True)
        units = {"throughput": "items/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": val, "unit": units[k]} for k, val in metrics.items()},
    }
    record.update(result)

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# {args.workload}: {m.attempted} attempted, {m.failed} failed, "
          f"{samples} latency samples; latency_ms_tail is p{tail_pct:.2f} "
          f"({TAIL_BEYOND} samples beyond it)")
    print(f"# reference loop {record['reference_loop_ms']:.3f} ms median over the run "
          f"(machine speed; timings below are scaled to {REF_MS} ms; not gated)")
    for k, val in metrics.items():
        raw = f"  (wall time: {wall[k]:.6g})" if not args.trace and k in wall and k != "peak_rss_mb" else ""
        print(f"# {k} = {val:.6g} {units[k]}{raw}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
