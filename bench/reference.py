"""Reference figures for single vesica calls, quoted in README.md.

    python3 bench/reference.py

In-process figures are the best of five timeit repeats; process figures
are the best and the median of ten cold starts.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import timeit
from time import perf_counter

import run
import workloads


def best_ms(stmt, number: int) -> float:
    return min(timeit.repeat(stmt, number=number, repeat=5)) / number * 1e3


def process_ms(argv: list[str], runs: int = 10) -> tuple[float, float]:
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(argv, env=workloads.child_env(run.ROOT), check=True, capture_output=True)
        times.append((perf_counter() - start) * 1e3)
    return min(times), statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    v = run.Vesica()
    m, dsl, svg, c = v.methods, v.dsl, v.svg, v.constructible
    poly = m.polygon(m.Method.TEMPIER, 200)
    text = dsl.format_program(m.tempier_program(9))
    rows = [
        ("render_polygon(polygon(tempier, 200))", best_ms(lambda: svg.render_polygon(poly), 20)),
        ("fixed(123.456789, 2)", best_ms(lambda: svg.fixed(123.456789, 2), 2000)),
        (f"parse of the {len(text.splitlines())}-line Tempier n = 9 program", best_ms(lambda: dsl.parse(text), 200)),
        ("constructible_up_to(2 * 10**4)", best_ms(lambda: c.constructible_up_to(20_000), 1)),
        ("check(4294967291)", best_ms(lambda: c.check(4294967291), 20)),
        ("reference loop (bench/run.py)", best_ms(run.reference_loop_ms, 5)),
    ]
    for label, ms in rows:
        print(f"{label:48s} {ms:9.4f} ms")
    for label, argv in (("python -c pass", [sys.executable, "-c", "pass"]),
                        ("python -m vesica.cli angle bion 9", [sys.executable, "-m", "vesica.cli", "angle", "bion", "9"])):
        best, median = process_ms(argv)
        print(f"{label:48s} {best:9.1f} ms best, {median:.1f} ms median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
