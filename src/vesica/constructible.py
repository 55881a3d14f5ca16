"""Which regular n-gons admit exact ruler-and-compass constructions.

A regular n-gon is constructible exactly when n factors as a power of two
times a product of distinct Fermat primes (primes of the form 2^(2^m) + 1).
`check` factors n by trial division, with Miller-Rabin certifying a prime
cofactor, so that its verdict carries the factorization as evidence, or the
first obstruction: a repeated odd prime, or an odd prime that is not a Fermat
prime.  `constructible_up_to` factors nothing: it enumerates the powers of two
times products of Fermat primes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import isqrt, prod

from .geometry import VesicaError

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
# Miller-Rabin with bases 2, 7 and 61 proves primality only below 4759123141 =
# 48781 * 97561 (Jaeschke 1993).  The census enumerates and has no such cost;
# it keeps the bound only so that both functions accept the same range.
FACTOR_LIMIT = 2 ** 32
_MILLER_RABIN_BASES = (2, 7, 61)


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


@dataclass(frozen=True, slots=True, init=False)
class Obstruction:
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


@dataclass(frozen=True, slots=True, init=False)
class ConstructibilityVerdict:
    """Factorization evidence for one n: n = 2^power_of_two * prod(odd_primes)
    with their exponents; constructible iff every odd prime is a Fermat prime
    appearing exactly once.

    Both verdict records are frozen dataclasses, so that ``dataclasses.replace``
    copies them, with their own ``__init__``: the generated one stores each
    field through ``object.__setattr__``.  These store through the slots'
    bound setters, as ``methods.ErrorRow`` does.
    """

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


# Taken from the classes the decorator returns: slots=True builds new ones.
_set_kind, _set_prime = (getattr(Obstruction, name).__set__ for name in Obstruction.__slots__)
_set_n, _set_constructible, _set_power_of_two, _set_odd_primes, _set_obstruction = (
    getattr(ConstructibilityVerdict, name).__set__ for name in ConstructibilityVerdict.__slots__)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: a proof of primality for n < 4759123141."""
    if n < 2 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if a % n and x != 1:  # a % n == 0 only when n is the prime a
            for _ in range(s):
                if x == n - 1:
                    break
                x = x * x % n
            else:
                return False
    return True


def _factor(n: int) -> list[tuple[int, int]]:
    """Factorization of n >= 1 as (prime, exponent) pairs, ascending.  After
    2 and 3 only p = 6k - 1 and p + 2 = 6k + 1 can be prime.  Until _is_prime
    proves the cofactor m prime, a scan over them finds its next factor and
    restarts with a smaller bound isqrt(m), so a prime n costs no scan and two
    primes near 2^16 cost a full one."""
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
