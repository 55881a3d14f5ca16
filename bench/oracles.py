"""Independent oracles for the vesica benchmark.

Nothing here imports vesica.  Each oracle recomputes what a vesica output
should be from the inputs alone:

* ``AngleOracle``: the Bion/Tempier angle at 50 digits, by intersecting the
  ray from V = (0, -sqrt 3) through the aiming point with the unit circle.
* ``PAPER_TABLES``: the published error tables for n = 4..20.
* ``fixed_text``: exact round-half-away-from-zero with ``Fraction``.
* ``constructible_numbers``: every 2^k * prod(S), S a subset of the five
  known Fermat primes, which is exact below 2^32 because F5 > 2^32.
* ``verdict``: the Gauss-Wantzel verdict of a number from the factors it
  was built from.
* SVG structure checks with ``xml.etree``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations

import mpmath

DIGITS = 50
FERMAT_PRIMES = (3, 5, 17, 257, 65537)
LIMIT_2_32 = 2 ** 32

# Published error tables (n -> exact, approx, error, rel_error), as printed:
# angles >= 1 to four significant digits, everything else to four decimals.
PAPER_TABLES = {
    "bion": {
        4: ("1.571", "1.571", "0.0000", "0.0000"),
        5: ("1.257", "1.256", "0.0008", "0.0006"),
        6: ("1.047", "1.047", "0.0000", "0.0000"),
        7: ("0.8976", "0.8992", "-0.0016", "0.0017"),
        8: ("0.7854", "0.7887", "-0.0033", "0.0042"),
        9: ("0.6981", "0.7030", "-0.0048", "0.0069"),
        10: ("0.6283", "0.6345", "-0.0062", "0.0099"),
        11: ("0.5712", "0.5785", "-0.0073", "0.0129"),
        12: ("0.5236", "0.5319", "-0.0083", "0.0158"),
        13: ("0.4833", "0.4923", "-0.0090", "0.0186"),
        14: ("0.4488", "0.4584", "-0.0096", "0.0214"),
        15: ("0.4189", "0.4289", "-0.0100", "0.0240"),
        16: ("0.3927", "0.4031", "-0.0104", "0.0265"),
        17: ("0.3696", "0.3803", "-0.0107", "0.0288"),
        18: ("0.3491", "0.3599", "-0.0108", "0.0311"),
        19: ("0.3307", "0.3417", "-0.0110", "0.0332"),
        20: ("0.3142", "0.3252", "-0.0111", "0.0352"),
    },
    "tempier": {
        4: ("1.571", "1.571", "0.0000", "0.0000"),
        5: ("1.257", "1.246", "0.0111", "0.0088"),
        6: ("1.047", "1.039", "0.0083", "0.0079"),
        7: ("0.8976", "0.8923", "0.0053", "0.0059"),
        8: ("0.7854", "0.7821", "0.0033", "0.0042"),
        9: ("0.6981", "0.6962", "0.0019", "0.0027"),
        10: ("0.6283", "0.6273", "0.0010", "0.0016"),
        11: ("0.5712", "0.5708", "0.0004", "0.0007"),
        12: ("0.5236", "0.5236", "0.0000", "0.0000"),
        13: ("0.4833", "0.4836", "-0.0003", "0.0006"),
        14: ("0.4488", "0.4493", "-0.0005", "0.0010"),
        15: ("0.4189", "0.4195", "-0.0006", "0.0014"),
        16: ("0.3927", "0.3934", "-0.0007", "0.0017"),
        17: ("0.3696", "0.3703", "-0.0007", "0.0020"),
        18: ("0.3491", "0.3498", "-0.0008", "0.0022"),
        19: ("0.3307", "0.3315", "-0.0008", "0.0024"),
        20: ("0.3142", "0.3150", "-0.0008", "0.0026"),
    },
}


# --- the two approximation methods at 50 digits --------------------------------

class AngleOracle:
    """Bion/Tempier geometry at DIGITS digits, memoised per (method, n)."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], tuple] = {}
        self._exact: dict[int, float] = {}

    def geometry(self, method: str, n: int) -> tuple:
        """(theta, aim, G) on the unit frame, as mpf values.

        The ray from V through the aiming point meets the unit circle twice;
        G is the upper hit.  theta is the angle at the center C between G
        and the reference point (B = (-1, 0) for Bion, D = (0, 1) for
        Tempier).
        """
        key = (method, n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        with mpmath.workdps(DIGITS):
            nn = mpmath.mpf(n)
            vx, vy = mpmath.mpf(0), -mpmath.sqrt(3)
            if method == "bion":
                aim = (-1 + 4 / nn, mpmath.mpf(0))    # second of n divisions from B
                ref = (mpmath.mpf(-1), mpmath.mpf(0))
            elif method == "tempier":
                aim = (-4 / nn, mpmath.mpf(0))        # two n-ths left of the center
                ref = (mpmath.mpf(0), mpmath.mpf(1))
            else:
                raise ValueError(f"unknown method {method!r}")
            dx, dy = aim[0] - vx, aim[1] - vy
            a = dx * dx + dy * dy
            b = 2 * (vx * dx + vy * dy)
            c = vx * vx + vy * vy - 1
            t = (-b + mpmath.sqrt(b * b - 4 * a * c)) / (2 * a)  # dy > 0: larger t is upper
            g = (vx + t * dx, vy + t * dy)
            cross = ref[0] * g[1] - ref[1] * g[0]
            dot = ref[0] * g[0] + ref[1] * g[1]
            theta = mpmath.atan2(abs(cross), dot)
        hit = (theta, aim, g)
        self._cache[key] = hit
        return hit

    def angle(self, method: str, n: int) -> float:
        return float(self.geometry(method, n)[0])

    def exact(self, n: int) -> float:
        """2*pi/n rounded once from DIGITS digits."""
        hit = self._exact.get(n)
        if hit is None:
            with mpmath.workdps(DIGITS):
                hit = self._exact[n] = float(2 * mpmath.pi / n)
        return hit

    def theta_mp(self, method: str, n: int):
        return self.geometry(method, n)[0]


def best_method(oracle: AngleOracle, n: int, tie: float = 1e-4):
    """Expected ``best_method(n)`` as 'bion', 'tempier', None, or 'either'
    when the two relative errors differ by a hair's breadth of the tie
    tolerance, where float rounding may decide either way."""
    with mpmath.workdps(DIGITS):
        exact = 2 * mpmath.pi / n
        rb = abs(exact - oracle.theta_mp("bion", n)) / exact
        rt = abs(exact - oracle.theta_mp("tempier", n)) / exact
        gap = abs(rb - rt)
    if abs(gap - tie) <= 1e-9:
        return "either"
    if gap <= tie:
        return None
    return "bion" if rb < rt else "tempier"


def close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


# --- exact decimal rounding ------------------------------------------------------

def fixed_text(value, decimals: int) -> str:
    """``value`` with exactly ``decimals`` fraction digits, ties away from
    zero, never ``-0.00``.  ``value`` may be a float, Fraction or mpf; floats
    are taken at their exact binary value."""
    if isinstance(value, mpmath.mpf):
        sign, man, exp, _ = value._mpf_
        q = (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)
    else:
        q = Fraction(value)
    scaled = abs(q) * 10 ** decimals
    units = int(scaled)
    if scaled - units >= Fraction(1, 2):
        units += 1
    sign = "-" if q < 0 and units else ""
    digits = str(units).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + digits
    return f"{sign}{digits[:-decimals]}.{digits[-decimals:]}"


def near_tie(value, decimals: int, slack: float = 1e-12) -> bool:
    """True when ``value`` lies within ``slack`` of a rounding tie, where a
    float computation may legitimately round to either neighbour."""
    scaled = abs(float(value)) * 10 ** decimals
    return abs(scaled - math.floor(scaled) - 0.5) <= slack * max(1.0, scaled)


def paper_matches(printed: str, published: str) -> bool:
    """A 4-decimal value printed by vesica against the published spelling:
    within half a unit of the published last digit plus half a unit of the
    printed one."""
    decimals = len(published.split(".")[1])
    tol = 0.5 * 10 ** -decimals + 0.5e-4 + 1e-12
    return abs(float(printed) - float(published)) <= tol


# --- constructibility ----------------------------------------------------------------

def constructible_numbers(limit: int) -> list[int]:
    """All n in [3, limit] of the form 2^k * prod(S), S a set of Fermat primes.

    Exact for limit < 2^32 + 1 = F5, the first Fermat number that is not
    prime; there are no other Fermat primes below it.
    """
    if limit > LIMIT_2_32:
        raise ValueError("enumeration is only exact up to 2^32")
    odd_parts = []
    for r in range(len(FERMAT_PRIMES) + 1):
        for subset in combinations(FERMAT_PRIMES, r):
            odd_parts.append(math.prod(subset))
    found = set()
    for odd in odd_parts:
        value = odd
        while value <= limit:
            if value >= 3:
                found.add(value)
            value *= 2
    return sorted(found)


def verdict(factors: dict[int, int]) -> dict:
    """Expected verdict fields of n = prod(p^e) from its prime factors.

    The first obstruction in ascending prime order wins: a repeated odd
    prime, else an odd prime that is not a Fermat prime.
    """
    n = math.prod(p ** e for p, e in factors.items())
    odd = sorted(p for p in factors if p != 2)
    obstruction = None
    for p in odd:
        if factors[p] > 1:
            obstruction = ("repeated-prime", p)
            break
        if p not in FERMAT_PRIMES:
            obstruction = ("non-fermat-prime", p)
            break
    return {
        "n": n,
        "constructible": obstruction is None,
        "power_of_two": factors.get(2, 0),
        "odd_primes": tuple(odd),
        "obstruction": obstruction,
    }


def verdict_text(expected: dict) -> str:
    """The one-line verdict the CLI prints for ``vesica check n``."""
    n = expected["n"]
    if expected["constructible"]:
        parts = [f"2^{expected['power_of_two']}"] if expected["power_of_two"] else []
        parts += [str(p) for p in expected["odd_primes"]]
        return f"{n}: constructible ({n} = {' * '.join(parts)})"
    kind, prime = expected["obstruction"]
    why = f"{prime} appears twice" if kind == "repeated-prime" else f"{prime} is not a Fermat prime"
    return f"{n}: NOT constructible ({why})"


# --- SVG -------------------------------------------------------------------------

SVG_NS = "{http://www.w3.org/2000/svg}"
_FIXED2 = re.compile(r"-?\d+\.\d\d")
_NUMERIC_ATTRS = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "r",
                  "width", "height", "stroke-width")


def svg_errors(document: str, counts: dict[str, int]) -> tuple[list[str], ET.Element | None]:
    """Well-formedness, element counts and the 2-decimal number format."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        return [f"svg not well-formed: {exc}"], None
    errors = []
    if root.tag != SVG_NS + "svg":
        errors.append(f"svg root is {root.tag!r}")
    seen: dict[str, int] = {}
    for element in root.iter():
        tag = element.tag.removeprefix(SVG_NS)
        seen[tag] = seen.get(tag, 0) + 1
        for attr in _NUMERIC_ATTRS:
            value = element.get(attr)
            if value is not None and not _FIXED2.fullmatch(value):
                errors.append(f"svg <{tag} {attr}={value!r}> is not a 2-decimal number")
                break
    for tag, want in counts.items():
        if seen.get(tag, 0) != want:
            errors.append(f"svg has {seen.get(tag, 0)} <{tag}>, expected {want}")
    return errors, root


POLY_MARGIN = 0.08
POLY_WIDTH = 640


def polygon_svg_errors(document: str, method: str, n: int, oracle: AngleOracle,
                       closure_gap: float) -> list[str]:
    """Checks a ``render_polygon`` document for the n-gon of ``method``.

    Every polyline vertex must sit within half a unit of the last printed
    decimal of its 50-digit pixel position, and the closure-gap label must
    be ``closure_gap`` rounded exactly to six decimals.
    """
    errors, root = svg_errors(
        document, {"svg": 1, "circle": 1, "polyline": 1, "rect": n, "text": n + 1}
    )
    if root is None:
        return errors
    polyline = root.find(SVG_NS + "polyline")
    if polyline is None:
        return errors
    pairs = polyline.get("points", "").split()
    if len(pairs) != n + 1:
        return errors + [f"polyline has {len(pairs)} vertices, expected {n + 1}"]
    with mpmath.workdps(DIGITS):
        theta = oracle.theta_mp(method, n)
        x0 = -1 - POLY_MARGIN * 2            # padded view [-1.16, 1.16]^2, y flipped
        scale = POLY_WIDTH / (2 + 4 * POLY_MARGIN)
        half_unit = mpmath.mpf("0.005") + mpmath.mpf("1e-9")
        step_c, step_s = mpmath.cos(theta), mpmath.sin(theta)
        wx, wy = mpmath.mpf(-1), mpmath.mpf(0)
        for k, pair in enumerate(pairs):
            # vertex k is B = (-1, 0) rotated by k * theta about C
            if k:
                wx, wy = wx * step_c - wy * step_s, wx * step_s + wy * step_c
            px, py = (mpmath.mpf(v) for v in pair.split(","))
            ex, ey = (wx - x0) * scale, (-x0 - wy) * scale
            if abs(px - ex) > half_unit or abs(py - ey) > half_unit:
                errors.append(
                    f"polyline vertex {k} at {pair}, expected "
                    f"({mpmath.nstr(ex, 8)}, {mpmath.nstr(ey, 8)})"
                )
                break
    label = [t.text for t in root.iter(SVG_NS + "text") if t.text and t.text.startswith("closure gap")]
    gap = ("+" if closure_gap >= 0 else "") + fixed_text(closure_gap, 6)
    if label != [f"closure gap {gap} rad"]:
        errors.append(f"closure label {label!r}, expected 'closure gap {gap} rad'")
    return errors


# --- rectification -----------------------------------------------------------------

def rectify_text() -> str:
    """Expected stdout of ``vesica rectify``: base distance and implied pi
    for sqrt 3, 7/4 and the exact 2/(pi - 2), each to five decimals."""
    lines = []
    with mpmath.workdps(DIGITS):
        for label, d in (
            ("vesica", mpmath.sqrt(3)),
            ("rational", mpmath.mpf(7) / 4),
            ("exact", 2 / (mpmath.pi - 2)),
        ):
            implied = 2 * (d + 1) / d
            lines.append(f"{label:<8} {fixed_text(d, 5)} {fixed_text(implied, 5)}")
    return "\n".join(lines) + "\n"
