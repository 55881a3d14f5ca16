"""Generated .euc construction programs and their expected figures.

Every program is written twice: a ``text`` the benchmark feeds to
``vesica.dsl.parse``, with seeded cosmetic variations (spacing, comments,
blank lines, CRLF, exponent spellings, an omitted default ``pick first``),
and the ``canonical`` text ``format_program`` must print back.  The expected
points and scalars are computed here from the literal coordinates alone,
with plain trigonometry and the 50-digit method oracle, never with vesica.

Program kinds:

* ``bion`` / ``tempier``: the paper's construction for an n-gon.
* ``hexagon``: a 28-statement compass walk around a circle (``near``
  guides, two-name intersects, ``radius`` circles, ``divide``, ``angle``).
* ``selectors``: one line and two circles picked with every selector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracles import AngleOracle

SELECTOR_ANGLES = ((20, 70), (110, 160))    # degrees: keep both hits apart in x and y
CIRCLE_ANGLES = ((30, 150), (210, 330))


@dataclass(frozen=True)
class EucProgram:
    kind: str
    params: tuple
    scale: float
    text: str
    canonical: str


@dataclass(frozen=True)
class Figure:
    points: dict      # name -> (x, y)
    scalars: dict     # name -> value
    circles: int
    lines: int


def num_text(v: float) -> str:
    """Canonical spelling of a literal: an integer when integral, else repr."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


class _Writer:
    """Collects statements in canonical and varied spellings."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.canonical: list[str] = []
        self.varied: list[str] = []

    def _num(self, v: float) -> str:
        if v != int(v) and self.rng.random() < 0.2:
            return "%.17e" % v          # exponent spelling of the same double
        return num_text(v)

    def _space(self) -> str:
        return self.rng.choice(("", " ", "  ", "\t"))

    def point(self, name: str, x: float, y: float) -> None:
        self.canonical.append(f"point {name} = ({num_text(x)}, {num_text(y)})")
        s = self._space
        self.varied.append(
            f"point {name}{s()}={s()}({s()}{self._num(x)}{s()},{s()}{self._num(y)}{s()})"
        )

    def words(self, *tokens: str, default_pick: bool = False) -> None:
        self.canonical.append(" ".join(tokens))
        shown = tokens[:-2] if default_pick and self.rng.random() < 0.5 else tokens
        self.varied.append((" " + self._space()).join(shown))

    def finish(self) -> tuple[str, str]:
        rng = self.rng
        lines = []
        if rng.random() < 0.5:
            lines.append("# generated construction")
        for stmt in self.varied:
            if rng.random() < 0.1:
                lines.append("")
            lines.append(stmt + ("  # step" if rng.random() < 0.15 else ""))
        newline = "\r\n" if rng.random() < 0.25 else "\n"
        return newline.join(lines) + newline, "\n".join(self.canonical) + "\n"


def _make(kind: str, params: tuple, scale: float, writer: _Writer) -> EucProgram:
    text, canonical = writer.finish()
    return EucProgram(kind, params, scale, text, canonical)


# --- the paper's constructions -------------------------------------------------

def method_program(method: str, n: int, scale: float, rng: random.Random) -> EucProgram:
    w = _Writer(rng)
    w.point("C", 0.0, 0.0)
    w.point("B", -scale, 0.0)
    w.point("A", scale, 0.0)
    w.words("circle", "main", "=", "C", "B")
    w.words("circle", "arcB", "=", "B", "A")
    w.words("circle", "arcA", "=", "A", "B")
    w.words("intersect", "V", "=", "arcB", "arcA", "pick", "lower")
    if method == "bion":
        w.words("divide", "F", "=", "B", "A", str(n), "2")
        w.words("line", "ray", "=", "V", "F")
        w.words("intersect", "G", "=", "ray", "main", "pick", "upper")
        w.words("angle", "theta", "=", "C", "B", "G")
    else:
        w.point("D", 0.0, scale)
        w.words("divide", "T", "=", "B", "A", str(2 * n), str(n - 4))
        w.words("line", "ray", "=", "V", "T")
        w.words("intersect", "G", "=", "ray", "main", "pick", "upper")
        w.words("angle", "theta", "=", "C", "D", "G")
    return _make(method, (n,), scale, w)


def _method_figure(prog: EucProgram, oracle: AngleOracle) -> Figure:
    method, (n,), s = prog.kind, prog.params, prog.scale
    theta, aim, g = oracle.geometry(method, n)
    points = {"C": (0.0, 0.0), "B": (-s, 0.0), "A": (s, 0.0), "V": (0.0, -math.sqrt(3) * s)}
    if method == "tempier":
        points["D"] = (0.0, s)
    points["F" if method == "bion" else "T"] = (float(aim[0]) * s, 0.0)
    points["G"] = (float(g[0]) * s, float(g[1]) * s)
    return Figure(points, {"theta": float(theta)}, circles=3, lines=1)


# --- a compass walk around a circle ---------------------------------------------

def _round(v: float, digits: int, scale: float) -> float:
    return round(v, digits) * scale


def hexagon_program(rng: random.Random, scale: float) -> EucProgram:
    ox, oy = round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)
    radius = rng.uniform(0.5, 2.0)
    while True:
        phi = rng.uniform(0, 2 * math.pi)
        # both diameter pairs used below must be well apart in x
        if min(abs(math.cos(phi)), abs(math.cos(phi + 2 * math.pi / 3))) >= 0.3:
            break
    w = _Writer(rng)
    w.point("O", ox * scale, oy * scale)
    w.point("P0", _round(ox + radius * math.cos(phi), 4, scale),
            _round(oy + radius * math.sin(phi), 4, scale))
    w.words("circle", "main", "=", "O", "P0")
    for k in range(1, 6):
        a = phi + k * math.pi / 3
        w.words("circle", f"c{k}", "=", f"P{k - 1}", "O")
        w.point(f"H{k}", _round(ox + 1.5 * radius * math.cos(a), 3, scale),
                _round(oy + 1.5 * radius * math.sin(a), 3, scale))
        w.words("intersect", f"P{k}", "=", f"c{k}", "main", "pick", "near", f"H{k}")
    w.words("line", "d03", "=", "P0", "P3")
    w.words("line", "d14", "=", "P1", "P4")
    w.words("intersect", "X", "=", "d03", "d14", "pick", "first", default_pick=True)
    w.words("angle", "a", "=", "O", "P0", "P2")
    w.words("divide", "M", "=", "P0", "P3", "4", "1")
    w.words("circle", "k2", "=", "X", "radius", "P0", "P1")
    w.words("intersect", "Q1", "Q2", "=", "k2", "d03")
    w.words("line", "l25", "=", "P2", "P5")
    w.words("intersect", "Y", "=", "l25", "main", "pick", "left")
    w.words("angle", "b", "=", "P1", "P0", "P2")
    return _make("hexagon", (), scale, w)


def _literal_points(canonical: str) -> dict:
    points = {}
    for line in canonical.splitlines():
        if line.startswith("point "):
            name, rest = line[6:].split(" = (")
            x, y = rest.rstrip(")").split(", ")
            points[name] = (float(x), float(y))
    return points


def _by_x(p, q):
    return (p, q) if p[0] < q[0] else (q, p)


def _angle(vertex, p, q) -> float:
    ux, uy = p[0] - vertex[0], p[1] - vertex[1]
    wx, wy = q[0] - vertex[0], q[1] - vertex[1]
    return math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def _hexagon_figure(prog: EucProgram) -> Figure:
    pts = _literal_points(prog.canonical)
    (ox, oy), (x0, y0) = pts["O"], pts["P0"]
    radius = math.hypot(x0 - ox, y0 - oy)
    phi = math.atan2(y0 - oy, x0 - ox)
    for k in range(1, 6):
        a = phi + k * math.pi / 3
        pts[f"P{k}"] = (ox + radius * math.cos(a), oy + radius * math.sin(a))
    p0, p3 = pts["P0"], pts["P3"]
    pts["X"] = (ox, oy)
    pts["M"] = (p0[0] + (p3[0] - p0[0]) / 4, p0[1] + (p3[1] - p0[1]) / 4)
    pts["Q1"], pts["Q2"] = _by_x(p0, p3)
    pts["Y"] = _by_x(pts["P2"], pts["P5"])[0]
    order = ["O", "P0"] + [f"{c}{k}" for k in range(1, 6) for c in "HP"] + ["X", "M", "Q1", "Q2", "Y"]
    scalars = {"a": 2 * math.pi / 3, "b": 2 * math.pi / 3}
    return Figure({name: pts[name] for name in order}, scalars, circles=7, lines=3)


# --- every selector ----------------------------------------------------------------

def _uniform_in(rng: random.Random, bands) -> float:
    lo, hi = rng.choice(bands)
    return math.radians(rng.uniform(lo, hi))


def selector_program(rng: random.Random, scale: float) -> EucProgram:
    cx, cy = round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)
    r = round(rng.uniform(0.5, 2.0), 3)
    psi = _uniform_in(rng, SELECTOR_ANGLES)
    h = rng.uniform(-0.6, 0.6) * r
    half = rng.uniform(1.5, 2.0) * r
    fx, fy = cx - h * math.sin(psi), cy + h * math.cos(psi)
    ux, uy = math.cos(psi), math.sin(psi)
    beta = _uniform_in(rng, CIRCLE_ANGLES)
    d = rng.uniform(0.6, 1.4) * r
    w = _Writer(rng)
    w.point("C", cx * scale, cy * scale)
    w.point("R", round(cx + r, 3) * scale, cy * scale)
    w.words("circle", "k", "=", "C", "R")
    w.point("W", _round(fx - half * ux, 4, scale), _round(fy - half * uy, 4, scale))
    w.point("E", _round(fx + half * ux, 4, scale), _round(fy + half * uy, 4, scale))
    w.words("line", "l", "=", "W", "E")
    for i, pick in enumerate(("first", "second", "upper", "lower", "left", "right"), 1):
        w.words("intersect", f"S{i}", "=", "l", "k", "pick", pick,
                default_pick=pick == "first")
    w.words("intersect", "S7", "=", "l", "k", "pick", "near", "W")
    w.words("intersect", "S8", "S9", "=", "l", "k")
    w.point("C2", _round(cx + d * math.cos(beta), 4, scale), _round(cy + d * math.sin(beta), 4, scale))
    w.words("circle", "k2", "=", "C2", "radius", "C", "R")
    w.words("intersect", "T1", "T2", "=", "k", "k2")
    w.words("angle", "g", "=", "C", "T1", "T2")
    return _make("selectors", (), scale, w)


def _selector_figure(prog: EucProgram) -> Figure:
    pts = _literal_points(prog.canonical)
    c, rp, wp, ep, c2 = pts["C"], pts["R"], pts["W"], pts["E"], pts["C2"]
    r = math.hypot(rp[0] - c[0], rp[1] - c[1])
    # line W + t (E - W) against |P - C| = r
    dx, dy = ep[0] - wp[0], ep[1] - wp[1]
    fx, fy = wp[0] - c[0], wp[1] - c[1]
    a, b, cc = dx * dx + dy * dy, 2 * (fx * dx + fy * dy), fx * fx + fy * fy - r * r
    root = math.sqrt(b * b - 4 * a * cc)
    hits = [(wp[0] + t * dx, wp[1] + t * dy) for t in ((-b - root) / (2 * a), (-b + root) / (2 * a))]
    first, second = _by_x(*hits)
    pts.update({
        "S1": first, "S2": second,
        "S3": max(hits, key=lambda p: p[1]), "S4": min(hits, key=lambda p: p[1]),
        "S5": first, "S6": second,
        "S7": hits[0],                      # smaller t: the hit nearer W
        "S8": first, "S9": second,
    })
    # two circles of radius r about C and C2
    ddx, ddy = c2[0] - c[0], c2[1] - c[1]
    d = math.hypot(ddx, ddy)
    h = math.sqrt(r * r - d * d / 4)
    mx, my = c[0] + ddx / 2, c[1] + ddy / 2
    pts["T1"], pts["T2"] = _by_x((mx - h * ddy / d, my + h * ddx / d),
                                 (mx + h * ddy / d, my - h * ddx / d))
    order = ["C", "R", "W", "E"] + [f"S{i}" for i in range(1, 10)] + ["C2", "T1", "T2"]
    return Figure({name: pts[name] for name in order}, {"g": _angle(c, pts["T1"], pts["T2"])},
                  circles=2, lines=1)


def expected_figure(prog: EucProgram, oracle: AngleOracle) -> Figure:
    if prog.kind in ("bion", "tempier"):
        return _method_figure(prog, oracle)
    if prog.kind == "hexagon":
        return _hexagon_figure(prog)
    return _selector_figure(prog)


def figure_errors(prog: EucProgram, expected: Figure, points: dict, scalars: dict) -> list[str]:
    """Compares an evaluated figure (name -> (x, y), name -> value) with the
    expected one: same names in the same order, coordinates within 1e-8 of
    the drawing scale and angles within 1e-9 rad."""
    errors = []
    if list(points) != list(expected.points):
        errors.append(f"{prog.kind}: points {list(points)}, expected {list(expected.points)}")
    if list(scalars) != list(expected.scalars):
        errors.append(f"{prog.kind}: scalars {list(scalars)}, expected {list(expected.scalars)}")
    tol = 1e-8 * prog.scale
    for name, (x, y) in expected.points.items():
        got = points.get(name)
        if got is None or not (abs(got[0] - x) <= tol and abs(got[1] - y) <= tol):
            errors.append(f"{prog.kind} at scale {prog.scale:g}: point {name} = {got}, expected ({x!r}, {y!r})")
    for name, value in expected.scalars.items():
        got = scalars.get(name)
        if got is None or not abs(got - value) <= 1e-9:
            errors.append(f"{prog.kind} at scale {prog.scale:g}: {name} = {got!r}, expected {value!r}")
    return errors
