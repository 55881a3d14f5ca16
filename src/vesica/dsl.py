"""A small textual language for ruler-and-compass construction programs.

One statement per line (lines end at LF or CRLF), ``#`` comments,
whitespace-insensitive tokens::

    point NAME = ( NUM , NUM )
    line NAME = NAME NAME
    circle NAME = NAME NAME                  # center, through-point
    circle NAME = NAME radius NAME NAME      # center, radius |NAME NAME|
    intersect NAME [NAME] = NAME NAME [pick SELECTOR]
    divide NAME = NAME NAME NUM NUM          # endpoints, parts n, index k
    angle NAME = NAME NAME NAME              # vertex, p, q

    SELECTOR := first | second | upper | lower | left | right | near NAME
    NUM      := decimal literal in ASCII digits, or the exact tokens `pi` /
                `sqrt3` (optionally preceded by `-`)

The ``pi`` and ``sqrt3`` tokens carry exact irrational values into programs
without an expression grammar; the formatter prints them back symbolically.
An intersect statement with one result name defaults to selector ``first``;
with two result names it binds both intersection points in kernel order and
admits no pick clause.

``parse`` skips blank and comment lines and reads each other line with two
readers that follow one table of statement forms, each the steps after its
keyword and one builder: a whole-line pattern generated from a form's steps
takes every canonical line and other common spellings; any other line goes to
a token cursor, which reads every spelling and owns every ParseError.  The
cursor walks the line's tokens once for a character no token can start with,
which it reports wherever it stands, then walks them again, taking each token
as a step of the same form asks for it, and stops at the first offending one.
Both readers pass the groups they read to the form's builder.

``parse`` -> ``format_program`` round-trips structurally; ``evaluate`` runs a
program against the geometry kernel and returns a ``Figure``.  Name scoping
errors (unknown/duplicate) surface at evaluation, not parse.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from operator import is_

from .geometry import (
    Circle,
    Curve,
    Line,
    Point,
    VesicaError,
    _Record,
    angle as measure_angle,
    distance,
    divide_segment,
    intersect as intersect_curves,
)

__all__ = [
    "Num",
    "Selector",
    "PointDef",
    "LineDef",
    "CircleDef",
    "CircleRadDef",
    "Intersect",
    "Divide",
    "MeasureAngle",
    "Statement",
    "Program",
    "Figure",
    "ParseError",
    "EvalError",
    "UnknownName",
    "DuplicateName",
    "SelectorEmpty",
    "parse",
    "evaluate",
    "format_program",
]


class ParseError(VesicaError):
    """Syntax error at a specific token; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class EvalError(VesicaError):
    """Base class for failures while executing a program."""


class UnknownName(EvalError):
    """A statement references a name not bound by an earlier statement."""


class DuplicateName(EvalError):
    """A statement rebinds a name that is already defined."""


class SelectorEmpty(EvalError):
    """A selector was applied to too few intersection points."""


_SYMBOLIC = {"pi": math.pi, "sqrt3": math.sqrt(3.0)}

_SELECTOR_KINDS = frozenset(
    {"first", "second", "upper", "lower", "left", "right", "near"}
)

class Num(_Record):
    """A numeric literal; `symbol` records symbolic spelling (pi / sqrt3)."""

    __slots__ = ("value", "symbol")

    def __init__(self, value: float, symbol: str | None = None) -> None:
        if not math.isfinite(value):
            raise VesicaError(f"numeric literal must be finite, got {value}")
        if symbol is not None and symbol not in _SYMBOLIC:
            raise VesicaError(f"unknown symbolic literal {symbol!r}")
        if symbol is not None and abs(value) != _SYMBOLIC[symbol]:  # it would print another value
            raise VesicaError(f"symbolic literal {symbol!r} is ±{_SYMBOLIC[symbol]}, got {value}")
        _set_value(self, value)
        _set_symbol(self, symbol)


class Selector(_Record):
    """Disambiguates which intersection point a one-name intersect binds."""

    __slots__ = ("kind", "ref")

    def __init__(self, kind: str, ref: str | None = None) -> None:
        if kind not in _SELECTOR_KINDS:
            raise VesicaError(f"unknown selector kind {kind!r}")
        if (ref is not None) != (kind == "near"):
            raise VesicaError("selector `near` takes a point name; others take none")
        _set_kind(self, kind)
        _set_ref(self, ref)


class PointDef(_Record):
    __slots__ = ("name", "x", "y")


class LineDef(_Record):
    __slots__ = ("name", "a", "b")


class CircleDef(_Record):
    __slots__ = ("name", "center", "through")


class CircleRadDef(_Record):
    """Circle with the compass opened to the span of two other points."""

    __slots__ = ("name", "center", "rad_from", "rad_to")


class Intersect(_Record):
    """`pick` None binds both intersection points, for two result names."""

    __slots__ = ("names", "a", "b", "pick")

    def __init__(self, names: tuple[str, ...], a: str, b: str, pick: Selector | None) -> None:
        if len(names) not in (1, 2):
            raise VesicaError("intersect binds one or two names")
        if (len(names) == 2) != (pick is None):
            raise VesicaError("one result name takes a selector; two take none")
        _set_names(self, names)
        _set_a(self, a)
        _set_b(self, b)
        _set_pick(self, pick)


class Divide(_Record):
    __slots__ = ("name", "start", "end", "n", "k")

    def __init__(self, name: str, start: str, end: str, n: int, k: int) -> None:
        _set_divide_name(self, name)
        _set_start(self, start)
        _set_end(self, end)
        _set_n(self, n)
        _set_k(self, k)


class MeasureAngle(_Record):
    __slots__ = ("name", "vertex", "p", "q")


Statement = (
    PointDef | LineDef | CircleDef | CircleRadDef | Intersect | Divide | MeasureAngle
)


class Program(_Record):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]) -> None:
        if not statements:
            raise VesicaError("a program holds at least one statement")
        _set_statements(self, statements)


# The checking records and Divide store through bound setters, as Point does.
_set_value, _set_symbol = Num._stores
_set_kind, _set_ref = Selector._stores
_set_names, _set_a, _set_b, _set_pick = Intersect._stores
_set_divide_name, _set_start, _set_end, _set_n, _set_k = Divide._stores
(_set_statements,) = Program._stores


@dataclass(slots=True)
class Figure:
    """Evaluation result: named points, curves and measured scalars.

    The three namespaces are disjoint and each map preserves the order in
    which the program bound its names.
    """

    points: dict[str, Point] = field(default_factory=dict)
    curves: dict[str, Curve] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)


# --- parser ------------------------------------------------------------------

# The tokens of the grammar, shared by the cursor and the whole-line patterns.
# A number is written in ASCII digits: [0-9], not \d, which takes any
# Unicode decimal digit.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"

# One pass per line: blanks and comments match no group, the last group
# catches any character no token can start with.
_TOKEN_RE = re.compile(rf"[ \t]+|\#.*|(?P<number>{_NUMBER})|(?P<name>{_NAME})|(?P<sym>[=(),-])|(?P<bad>.)")


def _literal(negative, text: str) -> Num | None:
    """The Num of a number, pi or sqrt3 token, negated if `negative`; None past a float's range."""
    symbol = text if text in _SYMBOLIC else None
    value = _SYMBOLIC[text] if symbol else float(text)
    return Num(-value if negative else value, symbol) if math.isfinite(value) else None


def _count(negative, text: str) -> int | None:
    """The integer a number token spells exactly, negated if `negative`; None
    for pi, sqrt3, a fraction or a value past a float's range."""
    if len(text) <= 308 and text.isdigit():  # below 10**308, in a float's range
        return -int(text) if negative else int(text)
    if text in _SYMBOLIC or not math.isfinite(value := float(text)):
        return None
    # float() rounds above 2**53, so n is int(significant) * 10**shift, with
    # zeros trimmed first, as int() refuses more than 4300 digits.
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return 0
    if not value:  # a nonzero literal below a float's range
        return None
    power = int(exponent.lstrip("+-").lstrip("0") or 0)  # short: the value is finite
    shift = len(digits) - len(significant) - len(fraction)
    shift += -power if exponent.startswith("-") else power
    if shift < 0:
        return None
    n = int(significant) * 10**shift  # below 2**1024
    return -n if negative else n


def _point_line(name, x_minus, x, y_minus, y):
    x, y = _literal(x_minus, x), _literal(y_minus, y)
    return None if x is None or y is None else PointDef(name, x, y)


def _circle_line(name, center, rad_from, through):
    if rad_from is None:
        return CircleDef(name, center, through)
    return CircleRadDef(name, center, rad_from, through)


def _intersect_line(name, second, a, b, ref, kind):
    if second is None:
        return Intersect((name,), a, b, Selector("near", ref) if ref else Selector(kind or "first"))
    if ref is None and kind is None:  # two result names take no pick clause
        return Intersect((name, second), a, b, None)
    return None


def _divide_line(name, start, end, n_minus, n, k_minus, k):
    n, k = _count(n_minus, n), _count(k_minus, k)
    return None if n is None or k is None else Divide(name, start, end, n, k)


# keyword -> (the steps after the keyword, the statement from their groups, or
# None when a group fails its check).  A step is a slot, a symbol or a word;
# [...] marks an optional clause, read when its first token is there.  The
# whole-line pattern leaves a line to the cursor, which raises, when it does
# not match or the builder returns None.
_FORMS = {
    "point": ("N = ( R , R )", _point_line),
    "line": ("N = N N", LineDef),
    "circle": ("N = N [radius N] N", _circle_line),
    "intersect": ("N [N] = N N [pick S]", _intersect_line),  # a pick clause after one result name only
    "divide": ("N = N N I I", _divide_line),
    "angle": ("N = N N N", MeasureAngle),
}

_KEYWORDS = frozenset(_FORMS) | _SELECTOR_KINDS | frozenset(_SYMBOLIC) | {"pick", "radius", "both"}

# The slots of a statement form, each with its pattern: N a name, R a number,
# I a count (a number that spells an integer), S a selector.  A pattern in
# which two blank runs meet around an optional token, as in `[ \t]*-?[ \t]*`,
# retries the n ways to split n blanks for every later token, so a sign is
# `(?:(-)[ \t]*)?`, and an optional clause opens with its blanks and a token.
# A name slot refuses a reserved word, as the cursor does.
_FREE_NAME = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_])){_NAME}"
_SIGNED_NUMBER = rf"(?:(-)[ \t]*)?({_NUMBER}|{'|'.join(_SYMBOLIC)})"
_SLOTS = {
    "N": f"({_FREE_NAME})",
    "R": _SIGNED_NUMBER,
    "I": _SIGNED_NUMBER,
    "S": rf"(?:near[ \t]+({_FREE_NAME})|({'|'.join(sorted(_SELECTOR_KINDS - {'near'}))}))",
}
_GROUPS = {"N": 1, "R": 2, "I": 2, "S": 2}  # the groups each slot's pattern captures


class _Cursor:
    """Reads one line's (kind, text, column) tokens as the steps ask for them,
    from a lazy walk of _TOKEN_RE, then an "end" token; it stops at the first
    offending token, so it holds one token whatever the line's length."""

    __slots__ = ("walk", "token", "lineno")

    def __init__(self, line: str, lineno: int):
        tokens = ((m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line) if m.lastgroup)
        self.walk = chain(tokens, [("end", "", len(line) + 1)])  # no step reads past "end"
        self.token = next(self.walk)
        self.lineno = lineno

    def fail(self, message: str) -> ParseError:
        return ParseError(self.lineno, self.token[2], message)

    def found(self) -> str:
        kind, text, _ = self.token
        return "end of line" if kind == "end" else repr(text)

    def name(self) -> str:
        kind, text, _ = self.token
        if kind != "name":
            raise self.fail(f"expected a name, found {self.found()}")
        if text in _KEYWORDS:
            raise self.fail(f"{text!r} is a reserved word")
        self.token = next(self.walk)
        return text

    def statement(self) -> Statement:
        """The statement read step by step, with the groups the whole-line
        pattern of the same steps captures."""
        kind, keyword, _ = self.token
        if kind != "name":
            raise self.fail(f"expected a statement keyword, found {self.found()}")
        if keyword not in _FORMS:
            raise self.fail(f"unknown statement keyword {keyword!r}")
        steps, build = _FORMS[keyword]
        self.token, groups, skipping = next(self.walk), [], False
        for step in steps.split():
            slot = step.strip("[]")
            kind, text, column = self.token
            if step[0] == "[":  # read when its first token is here: its word, or a name
                skipping = kind != "name" or (text in _KEYWORDS if slot == "N" else text != slot)
                if text == slot == "pick" and groups[1] is not None:  # intersect's second result name
                    raise self.fail("pick clause not allowed with two result names")
            if skipping:
                groups += [None] * _GROUPS.get(slot, 0)
            elif slot == "N":
                groups.append(self.name())
            elif slot == "S":
                if kind != "name" or text not in _SELECTOR_KINDS:
                    raise self.fail(f"expected a selector, found {self.found()}")
                self.token = next(self.walk)
                groups += [self.name(), None] if text == "near" else [None, text]
            elif slot in ("R", "I"):
                minus = "-" if text == "-" else None
                if minus is not None:
                    self.token = next(self.walk)
                kind, text, _ = self.token
                if kind != "number" and text not in _SYMBOLIC:  # no other token's text is pi or sqrt3
                    raise self.fail(f"expected a number, found {self.found()}")
                if _literal(minus, text) is None:
                    raise self.fail(f"numeric literal out of range: {text}")
                if slot == "I" and _count(minus, text) is None:
                    raise ParseError(self.lineno, column, "expected an integer")
                self.token = next(self.walk)
                groups += [minus, text]
            elif text == slot:
                self.token = next(self.walk)
            else:
                raise self.fail(f"expected {slot!r}, found {self.found()}")
            skipping = skipping and step[-1] != "]"
        if self.token[0] != "end":
            raise self.fail(f"unexpected trailing token {self.found()}")
        if (statement := build(*groups)) is None:  # the steps above check every group the builder checks
            raise ParseError(self.lineno, 1, f"{keyword} statement refused by its builder")
        return statement


@functools.cache
def _line_patterns() -> dict:
    """keyword -> (its whole-line fullmatch, its builder), compiled on the
    first parse: most vesica commands never parse.  Two words take blanks
    between them, a symbol and its neighbours need none, and the sign of a
    number is a symbol, as in `B-9`.  A number that starts with `.` right
    after a name or a number, as in `B.5` or `1e32.0`, is left to the
    cursor, which reads two tokens there."""
    patterns = {}
    for keyword, (steps, build) in _FORMS.items():
        regex, last = keyword, keyword
        for step in steps.split():
            slot = step.strip("[]")
            blanks = r"[ \t]*"
            if last.isalpha() and slot.isalpha():
                blanks = r"(?:[ \t]+|(?=-))" if slot in ("R", "I") else r"[ \t]+"
            regex += ("(?:" if step[0] == "[" else "") + blanks + _SLOTS.get(slot, re.escape(slot))
            regex += ")?" if step[-1] == "]" else ""
            last = slot
        patterns[keyword] = (re.compile(rf"[ \t]*{regex}[ \t]*(?:\#.*)?").fullmatch, build)
    return patterns


def _matched_statement(line: str) -> Statement | None:
    """The statement that the whole-line pattern of `line`'s first word
    builds, or None when there is no such pattern, it does not match or a
    group fails its builder's check."""
    words = line.split(None, 1)
    form = _line_patterns().get(words[0]) if words else None
    match = form[0](line) if form is not None else None
    return None if match is None else form[1](*match.groups())


def _cursor_statement(line: str, lineno: int) -> Statement:
    """The statement on `line` read token by token; raises ParseError at the
    first stray character on the line, wherever it stands, or else at the
    first offending token.  A comment is one token, so no stray is inside one."""
    for m in _TOKEN_RE.finditer(line):
        if m.lastgroup == "bad":
            raise ParseError(lineno, m.start() + 1, f"unexpected character {m.group()!r}")
    return _Cursor(line, lineno).statement()


def parse(text: str) -> Program:
    """Parse program text; raises ParseError at the first stray character of
    the first malformed line, or else at its first offending token.

    Lines end at LF; CRs at the end of a line are dropped, so CRLF text
    parses the same.  Empty lines and `#` comments after blanks and tabs are
    skipped before either reader runs.  Both readers follow one table of
    statement forms: the whole-line pattern generated from the steps of a
    line's first word takes every canonical line; a line it does not take
    goes to the token cursor, which walks the same steps, reads every
    spelling and alone raises ParseError.  Both hand the groups they read to
    the form's one builder, so they give the same statement for every line
    the pattern takes.
    """
    lines = text.removesuffix("\n").split("\n")  # a final LF starts no line
    statements: list[Statement] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\r")
        if line.lstrip(" \t")[:1] not in ("", "#"):
            statements.append(_matched_statement(line) or _cursor_statement(line, lineno))
    if not statements:
        raise ParseError(len(lines), 1, "program contains no statements")
    return Program(tuple(statements))


# --- formatter ---------------------------------------------------------------

def _num_text(num: Num) -> str:
    if num.symbol is not None:
        return ("-" + num.symbol) if num.value < 0 else num.symbol
    v = num.value
    if v == int(v) and abs(v) < 1e16:
        return "%.0f" % v  # exact below 1e16, and -0.0 keeps its sign
    return repr(v)


def _intersect_text(stmt: Intersect) -> str:
    names, pick = stmt.names, stmt.pick
    if pick is None:
        return f"intersect {names[0]} {names[1]} = {stmt.a} {stmt.b}"
    selector = f"near {pick.ref}" if pick.kind == "near" else pick.kind
    return f"intersect {names[0]} = {stmt.a} {stmt.b} pick {selector}"


# Statement type -> its canonical line.  Keyed by exact type, as evaluate
# dispatches: an instance of a subclass is not a statement.
_FORMATTERS = {
    PointDef: lambda s: f"point {s.name} = ({_num_text(s.x)}, {_num_text(s.y)})",
    LineDef: lambda s: f"line {s.name} = {s.a} {s.b}",
    CircleDef: lambda s: f"circle {s.name} = {s.center} {s.through}",
    CircleRadDef: lambda s: f"circle {s.name} = {s.center} radius {s.rad_from} {s.rad_to}",
    Intersect: _intersect_text,
    Divide: lambda s: f"divide {s.name} = {s.start} {s.end} {s.n} {s.k}",
    MeasureAngle: lambda s: f"angle {s.name} = {s.vertex} {s.p} {s.q}",
}


def format_statement(stmt: Statement) -> str:
    formatter = _FORMATTERS.get(type(stmt))
    if formatter is None:
        raise TypeError(f"not a statement: {stmt!r}")
    return formatter(stmt)


def format_program(program: Program) -> str:
    """Canonical text: one statement per line, single spaces, LF endings."""
    return "\n".join([format_statement(s) for s in program.statements]) + "\n"


# --- evaluator ---------------------------------------------------------------

def _unknown(fig: Figure, name: str, want: str = "point"):
    """Raise UnknownName: `name` names no `want` ("point" or "curve") in `fig`."""
    for kind, bound in (("point", fig.points), ("curve", fig.curves), ("scalar", fig.scalars)):
        if name in bound:
            raise UnknownName(f"{name!r} names a {kind}, expected a {want}")
    raise UnknownName(f"no {want} named {name!r}")


def _select(pick: Selector, points: list[Point], fig: Figure) -> Point:
    if not points:
        raise SelectorEmpty(f"selector {pick.kind!r} applied to an empty intersection")
    # The kernel returns at most two points, sorted ascending by (x, y), so one
    # comparison of the first and the last decides each selector.  Only a
    # strict win takes the last: a tie resolves to the kernel-order point.
    a, b, kind = points[0], points[-1], pick.kind
    if kind == "upper":
        return b if b.y > a.y else a
    if kind == "lower":
        return b if b.y < a.y else a
    if kind == "left":
        return b if b.x < a.x else a
    if kind == "right":
        return b if b.x > a.x else a
    if kind == "first":
        return a
    if kind == "second":
        if len(points) < 2:
            raise SelectorEmpty("selector 'second' needs two intersection points")
        return points[1]
    anchor = fig.points.get(pick.ref) or _unknown(fig, pick.ref)  # "near", the one kind left
    return b if distance(anchor, b) < distance(anchor, a) else a


# The evaluated head, (statements, figure): set once at import by _set_head,
# and copied, never handed out, by evaluate.  Until then it is empty.
_HEAD: tuple[tuple[Statement, ...], Figure] = ((), Figure())


def _set_head(statements: tuple[Statement, ...]) -> None:
    """Evaluate `statements` once, so that programs starting with these very
    statement objects resume from a copy of the figure."""
    global _HEAD
    _HEAD = (statements, evaluate(Program(statements)))


def evaluate(program: Program) -> Figure:
    """Execute statements in order against the geometry kernel.

    A program whose first statements are the very objects of the head
    (identity, not equality), which is the method frame, resumes from a copy
    of the head's figure and runs only the rest; the result is the same
    either way.  Any other program runs from an empty figure.

    One loop dispatches on each statement's type: it reads names with
    dict.get, calls the kernel through module globals and binds the new name.

    Raises UnknownName / DuplicateName for scoping faults, SelectorEmpty when
    a construction fails geometrically and TypeError for a non-statement.  Any
    VesicaError from the kernel propagates unchanged: CoincidentCurves,
    DegenerateAngle, BadIndex, GeometryError for circles too large to
    intersect or angle legs too long to measure, and the plain VesicaError
    of coincident line anchors, a zero-radius circle or a degenerate divide.
    """
    statements, (head, done) = program.statements, _HEAD
    if len(statements) >= len(head) and all(map(is_, statements, head)):
        fig = Figure(done.points.copy(), done.curves.copy(), done.scalars.copy())
        statements = statements[len(head):]
    else:
        fig = Figure()
    points, curves, scalars = fig.points, fig.curves, fig.scalars
    point, curve = points.get, curves.get  # every bound value is truthy: `or` takes only a miss
    for stmt in statements:
        kind = type(stmt)
        if kind is Divide:
            store, name = points, stmt.name
            value = divide_segment(point(stmt.start) or _unknown(fig, stmt.start),
                                   point(stmt.end) or _unknown(fig, stmt.end), stmt.n, stmt.k)
        elif kind is LineDef:
            store, name = curves, stmt.name
            value = Line(point(stmt.a) or _unknown(fig, stmt.a), point(stmt.b) or _unknown(fig, stmt.b))
        elif kind is Intersect:
            hits = intersect_curves(curve(stmt.a) or _unknown(fig, stmt.a, "curve"),
                                    curve(stmt.b) or _unknown(fig, stmt.b, "curve"))
            store, name = points, stmt.names[0]
            if stmt.pick is not None:
                value = _select(stmt.pick, hits, fig)
            elif len(hits) < 2:
                raise SelectorEmpty(f"binding {name!r} and {stmt.names[1]!r} needs two "
                                    f"intersection points, got {len(hits)}")
            else:  # the first point binds here, the second below
                if name in points or name in curves or name in scalars:
                    raise DuplicateName(f"name {name!r} is already defined")
                points[name] = hits[0]
                name, value = stmt.names[1], hits[1]
        elif kind is MeasureAngle:
            store, name = scalars, stmt.name
            value = measure_angle(point(stmt.vertex) or _unknown(fig, stmt.vertex),
                                  point(stmt.p) or _unknown(fig, stmt.p),
                                  point(stmt.q) or _unknown(fig, stmt.q))
        elif kind is PointDef:
            store, name, value = points, stmt.name, Point(stmt.x.value, stmt.y.value)
        elif kind is CircleDef:
            store, name, center = curves, stmt.name, point(stmt.center) or _unknown(fig, stmt.center)
            value = Circle(center, distance(center, point(stmt.through) or _unknown(fig, stmt.through)))
        elif kind is CircleRadDef:
            radius = distance(point(stmt.rad_from) or _unknown(fig, stmt.rad_from),
                              point(stmt.rad_to) or _unknown(fig, stmt.rad_to))
            store, name = curves, stmt.name
            value = Circle(point(stmt.center) or _unknown(fig, stmt.center), radius)
        else:
            raise TypeError(f"not a statement: {stmt!r}")
        if name in points or name in curves or name in scalars:
            raise DuplicateName(f"name {name!r} is already defined")
        store[name] = value
    return fig
