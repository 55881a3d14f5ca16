"""Which regular n-gons admit exact ruler-and-compass constructions.

A regular n-gon is constructible exactly when n factors as a power of two
times a product of distinct Fermat primes (primes of the form 2^(2^m) + 1).
`check` factors n by trial division, with one hashed Miller-Rabin round
(Forisek and Jancina 2015) certifying a prime cofactor, so that its verdict
carries the factorization as evidence, or the first obstruction: a repeated
odd prime, or an odd prime that is not a Fermat prime.  `constructible_up_to`
factors nothing: it enumerates the powers of two times products of Fermat
primes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import isqrt, prod

from .geometry import VesicaError, _Record

__all__ = [
    "Obstruction",
    "ConstructibilityVerdict",
    "is_fermat_prime",
    "check",
    "constructible_up_to",
    "FACTOR_LIMIT",
]

# The range of the module; inputs above it raise _TooLarge, an OverflowError.
# In `check` two primes near 2^16 cost a full trial-division scan to 2^16, and
# the single Miller-Rabin round of _is_prime proves primality only below
# 4296595241 = 11411 * 376531.  The census enumerates and has no such cost; it
# keeps the bound only so that both functions accept the same range.
FACTOR_LIMIT = 2 ** 32

# One Miller-Rabin base for each of 256 buckets of a hash of n: an n below
# 4296595241 with no prime factor below 11 is prime exactly when it passes a
# strong probable-prime round to its bucket's base.  From M. Forisek and
# J. Jancina, "Fast Primality Testing for Integers That Fit into a Machine
# Word" (2015); the table is sympy's _MR_BASES_32 (BSD licence).
_FJ_BASES = (
    15591, 2018, 166, 7429, 8064, 16045, 10503, 4399, 1949, 1295, 2776, 3620, 560,
    3128, 5212, 2657, 2300, 2021, 4652, 1471, 9336, 4018, 2398, 20462, 10277, 8028,
    2213, 6219, 620, 3763, 4852, 5012, 3185, 1333, 6227, 5298, 1074, 2391, 5113,
    7061, 803, 1269, 3875, 422, 751, 580, 4729, 10239, 746, 2951, 556, 2206, 3778,
    481, 1522, 3476, 481, 2487, 3266, 5633, 488, 3373, 6441, 3344, 17, 15105, 1490,
    4154, 2036, 1882, 1813, 467, 3307, 14042, 6371, 658, 1005, 903, 737, 1887, 7447,
    1888, 2848, 1784, 7559, 3400, 951, 13969, 4304, 177, 41, 19875, 3110, 13221,
    8726, 571, 7043, 6943, 1199, 352, 6435, 165, 1169, 3315, 978, 233, 3003, 2562,
    2994, 10587, 10030, 2377, 1902, 5354, 4447, 1555, 263, 27027, 2283, 305, 669,
    1912, 601, 6186, 429, 1930, 14873, 1784, 1661, 524, 3577, 236, 2360, 6146, 2850,
    55637, 1753, 4178, 8466, 222, 2579, 2743, 2031, 2226, 2276, 374, 2132, 813,
    23788, 1610, 4422, 5159, 1725, 3597, 3366, 14336, 579, 165, 1375, 10018, 12616,
    9816, 1371, 536, 1867, 10864, 857, 2206, 5788, 434, 8085, 17618, 727, 3639,
    1595, 4944, 2129, 2029, 8195, 8344, 6232, 9183, 8126, 1870, 3296, 7455, 8947,
    25017, 541, 19115, 368, 566, 5674, 411, 522, 1027, 8215, 2050, 6544, 10049, 614,
    774, 2333, 3007, 35201, 4706, 1152, 1785, 1028, 1540, 3743, 493, 4474, 2521,
    26845, 8354, 864, 18915, 5465, 2447, 42, 4511, 1660, 166, 1249, 6259, 2553, 304,
    272, 7286, 73, 6554, 899, 2816, 5197, 13330, 7054, 2818, 3199, 811, 922, 350,
    7514, 4452, 3449, 2663, 4708, 418, 1621, 1171, 3471, 88, 11345, 412, 1559, 194,
)


class _TooLarge(VesicaError, OverflowError):
    """An input above the range the checker supports."""


# Every Fermat prime up to 2^64.  2^e + 1 is prime only if e is a power of
# two (an odd factor of e gives 2^e + 1 a factor), 2^32 + 1 = 641 * 6700417,
# and the next candidate, 2^64 + 1, lies beyond the supported range.
_FERMAT_PRIMES = frozenset({3, 5, 17, 257, 65537})
_PRIMALITY_LIMIT = 2 ** 64

# The 32 products of distinct Fermat primes, the empty product 1 included.
_FERMAT_PRODUCTS = tuple(
    prod(subset) for k in range(len(_FERMAT_PRIMES) + 1)
    for subset in combinations(_FERMAT_PRIMES, k)
)


def is_fermat_prime(p: int) -> bool:
    """True iff p is prime and p - 1 is a power of two (and p > 2)."""
    p = operator.index(p)
    if p < 2:
        raise VesicaError(f"primality is defined for integers >= 2, got {p}")
    if p > _PRIMALITY_LIMIT:
        raise _TooLarge(f"primality test supported up to 2^64, got {p}")
    return p in _FERMAT_PRIMES


# The decorators only list the fields, for dataclasses.replace; _Record does the rest.
@dataclass(slots=True, init=False, repr=False, eq=False, match_args=False)
class Obstruction(_Record):
    """Why an n-gon is not constructible."""

    kind: str  # "repeated-prime" | "non-fermat-prime"
    prime: int

    def __init__(self, kind: str, prime: int) -> None:
        _set_kind(self, kind)
        _set_prime(self, prime)

    def describe(self) -> str:
        if self.kind == "repeated-prime":
            return f"{self.prime} appears twice"
        return f"{self.prime} is not a Fermat prime"


@dataclass(slots=True, init=False, repr=False, eq=False, match_args=False)
class ConstructibilityVerdict(_Record):
    """Factorization evidence for one n: n = 2^power_of_two * prod(odd_primes)
    with their exponents; constructible iff every odd prime is a Fermat prime
    appearing exactly once."""

    n: int
    constructible: bool
    power_of_two: int
    odd_primes: tuple[int, ...]  # distinct, ascending
    obstruction: Obstruction | None = None

    def __init__(self, n: int, constructible: bool, power_of_two: int,
                 odd_primes: tuple[int, ...], obstruction: Obstruction | None = None) -> None:
        _set_n(self, n)
        _set_constructible(self, constructible)
        _set_power_of_two(self, power_of_two)
        _set_odd_primes(self, odd_primes)
        _set_obstruction(self, obstruction)

    def describe(self) -> str:
        if self.constructible:
            parts = [f"2^{self.power_of_two}"] if self.power_of_two else []
            parts += [str(p) for p in self.odd_primes]
            return f"{self.n}: constructible ({self.n} = {' * '.join(parts)})"
        return f"{self.n}: NOT constructible ({self.obstruction.describe()})"


_set_kind, _set_prime = Obstruction._stores
_set_n, _set_constructible, _set_power_of_two, _set_odd_primes, _set_obstruction = (
    ConstructibilityVerdict._stores)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 4296595241: after trial division by
    2, 3, 5 and 7, one strong probable-prime round to the base that a hash of
    n picks from _FJ_BASES is a proof.  The hash is computed in unbounded ints:
    the bucket reads only the low 24 bits, where they agree with the 64-bit
    arithmetic of the reference code."""
    if n < 121:
        return n in {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                     61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113}
    if not (n % 2 and n % 3 and n % 5 and n % 7):
        return False
    h = ((n >> 16) ^ n) * 0x45d9f3b
    h = ((h >> 16) ^ h) * 0x45d9f3b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    x = pow(_FJ_BASES[((h >> 16) ^ h) & 255], (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _factor(n: int) -> list[tuple[int, int]]:
    """Factorization of n >= 1 as (prime, exponent) pairs, ascending.  After
    2 and 3 only p = 6k - 1 and p + 2 = 6k + 1 can be prime.  Until _is_prime
    proves the cofactor m prime, a scan over them finds its next factor and
    restarts with a smaller bound isqrt(m), so a prime n costs one
    Miller-Rabin round and no scan, and two primes near 2^16 cost a full
    scan."""
    factors = []
    m = n
    divisors, start = (2, 3), 5
    while True:
        for q in divisors:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            if e:
                factors.append((q, e))
        if _is_prime(m):
            break
        for p in range(start, isqrt(m) + 1, 6):
            if not (m % p and m % (p + 2)):
                break
        else:
            break
        divisors, start = (p, p + 2), p + 6
    if m > 1:
        factors.append((m, 1))
    return factors


def check(n: int) -> ConstructibilityVerdict:
    """Constructibility verdict for the regular n-gon, n >= 3."""
    n = operator.index(n)
    if n < 3:
        raise VesicaError(f"polygons need at least 3 sides, got n={n}")
    if n > FACTOR_LIMIT:
        raise _TooLarge(f"factorization supported up to 2^32, got {n}")
    factors = _factor(n)
    power_of_two = 0
    odd_primes: list[int] = []
    obstruction = None
    for prime, exponent in factors:
        if prime == 2:
            power_of_two = exponent
            continue
        odd_primes.append(prime)
        if obstruction is None and exponent > 1:
            obstruction = Obstruction("repeated-prime", prime)
        elif obstruction is None and not is_fermat_prime(prime):
            obstruction = Obstruction("non-fermat-prime", prime)
    return ConstructibilityVerdict(n, obstruction is None, power_of_two, tuple(odd_primes), obstruction)


def constructible_up_to(limit: int) -> list[int]:
    """All constructible n in [3, limit], ascending: every product of
    distinct Fermat primes times every power of two, up to limit."""
    limit = operator.index(limit)
    if limit < 3:
        raise VesicaError(f"limit must be at least 3, got {limit}")
    if limit > FACTOR_LIMIT:
        raise _TooLarge(f"factorization supported up to 2^32, got {limit}")
    census = []
    for n in _FERMAT_PRODUCTS:
        while n <= limit:
            if n >= 3:
                census.append(n)
            n *= 2
    return sorted(census)
