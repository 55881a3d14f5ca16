"""Layer timers installed at run time from the benchmark's own files.

``Tracer`` replaces module attributes of vesica with timing wrappers: the
globals vesica's own code calls through (``vesica.dsl.intersect_curves``,
``vesica.svg.fixed``, ``vesica.methods.rotate``, ...) and the stage
functions the benchmark calls (``vesica.dsl.parse``, ...).  Spans are kept
as aggregates per span name: calls, total time, time of directly nested
spans, and an optional work count (statements, lines, rows, bytes).  Self
time is total time minus nested time.  Nothing under ``src/`` is edited;
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

from time import perf_counter


def _statements(args, result):
    return len(args[0].statements)


def _lines(args, result):
    return len(args[0].splitlines())


def _length(args, result):
    return len(result)


def targets(v) -> list[tuple]:
    """(module, attribute, span name, work counter) for every wrapped call."""
    return [
        (v.dsl, "intersect_curves", "geometry.intersect", None),
        (v.dsl, "measure_angle", "geometry.angle", None),
        (v.dsl, "divide_segment", "geometry.divide_segment", None),
        (v.methods, "rotate", "geometry.rotate", None),
        (v.dsl, "parse", "dsl.parse", _lines),
        (v.dsl, "format_program", "dsl.format_program", None),
        (v.dsl, "evaluate", "dsl.evaluate", _statements),
        (v.methods, "method_program", "methods.program", None),
        (v.methods, "bion_angle", "methods.closed_form", None),
        (v.methods, "tempier_angle", "methods.closed_form", None),
        (v.methods, "error_table", "methods.error_table", _length),
        (v.methods, "best_method", "methods.best_method", None),
        (v.methods, "polygon", "methods.polygon", None),
        (v.svg, "fixed", "svg.fixed", None),
        (v.svg, "render_svg", "svg.render_svg", _length),
        (v.svg, "render_polygon", "svg.render_polygon", _length),
        (v.constructible, "constructible_up_to", "constructible.constructible_up_to", None),
        (v.constructible, "check", "constructible.check", None),
    ]


class Tracer:
    def __init__(self, v):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, nested_s, work]
        self._stack: list[float] = []         # nested time of each open span
        self._targets = [
            (module, attr, getattr(module, attr), self._wrap(getattr(module, attr), name, count))
            for module, attr, name, count in targets(v)
        ]
        for _, _, name, _ in targets(v):
            self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _wrap(self, fn, name, count):
        stack = self._stack
        stats = self.stats

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += nested
            if count is not None:
                entry[3] += count(args, result)
            return result

        return span

    def install(self) -> None:
        for module, attr, _, wrapped in self._targets:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        return self.stats[name][1] - self.stats[name][2]

    def work(self, name: str) -> int:
        return self.stats[name][3]


UNITS = {
    "geometry.intersect.calls": "calls/item",
    "geometry.intersect.ms": "ms/item",
    "geometry.angle.calls": "calls/item",
    "geometry.angle.ms": "ms/item",
    "geometry.divide_segment.ms": "ms/item",
    "geometry.rotate.ms": "ms/item",
    "dsl.evaluate.self_ms": "ms/item",
    "dsl.evaluate.statements": "stmts/item",
    "methods.program.ms": "ms/item",
    "methods.closed_form.calls": "calls/item",
    "methods.closed_form.ms": "ms/item",
    "methods.error_table.ms": "ms/item",
    "methods.error_table.rows": "rows/item",
    "methods.best_method.ms": "ms/item",
    "dsl.parse.ms": "ms/item",
    "dsl.parse.lines_per_s": "lines/s",
    "dsl.format_program.ms": "ms/item",
    "svg.fixed.calls": "calls/item",
    "svg.fixed.ms": "ms/item",
    "svg.render_svg.self_ms": "ms/item",
    "svg.render_polygon.self_ms": "ms/item",
    "svg.bytes": "bytes/item",
    "methods.polygon.ms": "ms/item",
    "constructible.constructible_up_to.ms": "ms/item",
    "constructible.check.calls": "calls/item",
    "constructible.check.ms": "ms/item",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_pct": "%",
    "host.reference_loop_ms": "ms",
}


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-layer figures per traced item (calls, ms, counts), plus rates."""
    per = 1.0 / items
    ms = 1e3 * per

    def rate(name):
        return tracer.work(name) / tracer.total(name) if tracer.total(name) else 0.0

    return {
        "geometry.intersect.calls": tracer.calls("geometry.intersect") * per,
        "geometry.intersect.ms": tracer.total("geometry.intersect") * ms,
        "geometry.angle.calls": tracer.calls("geometry.angle") * per,
        "geometry.angle.ms": tracer.total("geometry.angle") * ms,
        "geometry.divide_segment.ms": tracer.total("geometry.divide_segment") * ms,
        "geometry.rotate.ms": tracer.total("geometry.rotate") * ms,
        "dsl.evaluate.self_ms": tracer.self_time("dsl.evaluate") * ms,
        "dsl.evaluate.statements": tracer.work("dsl.evaluate") * per,
        "methods.program.ms": tracer.total("methods.program") * ms,
        "methods.closed_form.calls": tracer.calls("methods.closed_form") * per,
        "methods.closed_form.ms": tracer.total("methods.closed_form") * ms,
        "methods.error_table.ms": tracer.total("methods.error_table") * ms,
        "methods.error_table.rows": tracer.work("methods.error_table") * per,
        "methods.best_method.ms": tracer.total("methods.best_method") * ms,
        "dsl.parse.ms": tracer.total("dsl.parse") * ms,
        "dsl.parse.lines_per_s": rate("dsl.parse"),
        "dsl.format_program.ms": tracer.total("dsl.format_program") * ms,
        "svg.fixed.calls": tracer.calls("svg.fixed") * per,
        "svg.fixed.ms": tracer.total("svg.fixed") * ms,
        "svg.render_svg.self_ms": tracer.self_time("svg.render_svg") * ms,
        "svg.render_polygon.self_ms": tracer.self_time("svg.render_polygon") * ms,
        "svg.bytes": (tracer.work("svg.render_svg") + tracer.work("svg.render_polygon")) * per,
        "methods.polygon.ms": tracer.total("methods.polygon") * ms,
        "constructible.constructible_up_to.ms": tracer.total("constructible.constructible_up_to") * ms,
        "constructible.check.calls": tracer.calls("constructible.check") * per,
        "constructible.check.ms": tracer.total("constructible.check") * ms,
    }
