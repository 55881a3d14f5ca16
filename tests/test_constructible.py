import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
from math import isqrt

import pytest

from vesica.constructible import (
    ConstructibilityVerdict,
    FACTOR_LIMIT,
    Obstruction,
    _FJ_BASES,
    _factor,
    _is_prime,
    check,
    constructible_up_to,
    is_fermat_prime,
)
from vesica.geometry import VesicaError

# Independent oracle: naive trial-division factorization, then test each odd
# prime for p-1 being a power of two with exponent one.


def _naive_factor(n: int) -> dict[int, int]:
    m, factors = n, {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _oracle_constructible(n: int) -> bool:
    for prime, exponent in _naive_factor(n).items():
        if prime == 2:
            continue
        if exponent > 1:
            return False
        if (prime - 1) & (prime - 2) != 0:  # p-1 not a power of two
            return False
    return True


# frozen from the oracle above before the implementation existed
ORACLE_UP_TO_20 = [3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20]
ORACLE_COUNT_UP_TO_300 = 37


def test_fermat_primes_known_list():
    for p in (3, 5, 17, 257, 65537):
        assert is_fermat_prime(p)


def test_fermat_prime_rejections():
    assert not is_fermat_prime(7)
    assert not is_fermat_prime(2)  # 2^(2^m)+1 has no solution at 2
    assert not is_fermat_prime(13)
    # F5 = 2^32 + 1 = 641 * 6700417: p-1 is a power of two but p is composite
    assert not is_fermat_prime(2**32 + 1)


def test_fermat_primes_among_two_to_the_e_plus_one():
    holds = [e for e in range(1, 64) if is_fermat_prime(2**e + 1)]
    assert holds == [1, 2, 4, 8, 16]


def test_fermat_prime_input_validation():
    with pytest.raises(ValueError):
        is_fermat_prime(1)
    with pytest.raises(OverflowError):
        is_fermat_prime(2**64 + 1)


def test_check_nonagon_repeated_prime():
    verdict = check(9)
    assert not verdict.constructible
    assert verdict.obstruction.kind == "repeated-prime"
    assert verdict.obstruction.prime == 3
    assert verdict.describe() == "9: NOT constructible (3 appears twice)"


def test_check_17gon():
    verdict = check(17)
    assert verdict == ConstructibilityVerdict(17, True, 0, (17,))


def test_check_60gon():
    verdict = check(60)
    assert verdict.constructible
    assert verdict.power_of_two == 2
    assert verdict.odd_primes == (3, 5)


def test_check_heptagon_non_fermat():
    verdict = check(7)
    assert not verdict.constructible
    assert verdict.obstruction.kind == "non-fermat-prime"
    assert verdict.obstruction.prime == 7
    assert verdict.describe() == "7: NOT constructible (7 is not a Fermat prime)"


def test_check_power_of_two_only():
    verdict = check(16)
    assert verdict.constructible
    assert verdict.power_of_two == 4
    assert verdict.odd_primes == ()
    assert verdict.describe() == "16: constructible (16 = 2^4)"


def test_check_input_validation():
    with pytest.raises(ValueError):
        check(2)
    with pytest.raises(OverflowError):
        check(FACTOR_LIMIT + 1)
    with pytest.raises(OverflowError):
        constructible_up_to(FACTOR_LIMIT + 1)
    with pytest.raises(VesicaError, match="^limit must be at least 3, got 2$"):
        constructible_up_to(2)


@pytest.mark.parametrize("n", [9.0, 7.5])
def test_non_integers_raise_type_error(n):
    with pytest.raises(TypeError):
        check(n)
    with pytest.raises(TypeError):
        constructible_up_to(n)
    with pytest.raises(TypeError):
        is_fermat_prime(n)


def test_constructible_up_to_20_matches_frozen_oracle():
    assert constructible_up_to(20) == ORACLE_UP_TO_20


def test_constructible_up_to_3():
    assert constructible_up_to(3) == [3]


def test_constructible_up_to_300_matches_oracle():
    got = constructible_up_to(300)
    assert len(got) == ORACLE_COUNT_UP_TO_300
    assert got == [n for n in range(3, 301) if _oracle_constructible(n)]


def test_census_matches_check_up_to_20000():
    assert constructible_up_to(20_000) == [
        n for n in range(3, 20_001) if check(n).constructible
    ]


def test_census_up_to_2_32():
    census = constructible_up_to(2**32)
    assert len(census) == 527
    assert all(a < b for a, b in zip(census, census[1:]))
    for n in census:
        assert check(n).constructible, n


def test_factor_matches_naive_oracle():
    rng = random.Random(20261018)
    ns = list(range(1, 20_001)) + [rng.randint(1, 2**32) for _ in range(2000)]
    # the 6k +- 1 wheel's edge cases: the largest prime square <= 2^32, the
    # two largest primes below 2^16, a high power of 3, consecutive small
    # primes, 2^32 itself and the largest prime below 2^32
    ns += [65521**2, 65519 * 65521, 3**20, 5 * 7 * 11 * 13 * 17 * 19, 2**32, 4294967291]
    for n in ns:
        assert _factor(n) == sorted(_naive_factor(n).items()), n


def test_verdicts_match_oracle_up_to_300():
    for n in range(3, 301):
        assert check(n).constructible == _oracle_constructible(n), n


def test_multiplicativity_of_coprime_constructibles():
    from math import gcd

    ns = constructible_up_to(150)
    for m in ns:
        for n in ns:
            if m * n <= 300 and gcd(m, n) == 1:
                assert check(m * n).constructible, (m, n)


def test_doubling_closure():
    for n in constructible_up_to(150):
        assert check(2 * n).constructible, n


def test_verdict_soundness_reconstructs_n():
    for n in range(3, 301):
        verdict = check(n)
        if verdict.constructible:
            product = 2**verdict.power_of_two
            for p in verdict.odd_primes:
                product *= p
            assert product == n
            assert list(verdict.odd_primes) == sorted(set(verdict.odd_primes))


# --- the Miller-Rabin certificate -------------------------------------------------


def _sieve(limit: int) -> bytearray:
    """is_prime[n] for 0 <= n < limit, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * limit
    is_prime[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return is_prime


def test_is_prime_matches_a_sieve_below_a_million():
    sieve = _sieve(10**6)
    assert [n for n in range(10**6) if _is_prime(n)] == [n for n in range(10**6) if sieve[n]]


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001,  # strong pseudoprimes to base 2
    3215031751,  # strong pseudoprime to bases 2 and 7
    561, 1105, 1729, 41041, 825265, 321197185,  # Carmichael numbers
    65519 * 65521, 65521**2,  # the costliest n for the scan
    # strong pseudoprimes to their own hashed base, rejected by division by 2, 3, 5 and 7
    7 * 11 * 31 * 173, 3 * 397 * 631, 7 * 11 * 101 * 163,
])
def test_is_prime_rejects_pseudoprimes_and_carmichael_numbers(n):
    assert not _is_prime(n)


def test_is_prime_accepts_the_largest_primes_below_2_32():
    assert _is_prime(4294967291)
    assert _is_prime(4294967279)


def test_factor_limit_is_within_the_proven_range_of_the_bases():
    # 11411 * 376531 is the least composite that passes the hashed round (bucket
    # 84, base 7559): raising FACTOR_LIMIT past it needs another base set.  A
    # hash masked to 32 bits picks bucket 201 and rejects it, so this also pins
    # the unbounded hash
    assert 11411 * 376531 == 4_296_595_241
    assert _is_prime(4_296_595_241)
    assert FACTOR_LIMIT < 4_296_595_241


def test_miller_rabin_bases_are_pinned():
    # the 256 bases of Forisek and Jancina (2015), as sympy 1.14 lists them
    assert len(_FJ_BASES) == 256
    digest = hashlib.sha256(repr(_FJ_BASES).encode()).hexdigest()
    assert digest == "6c218e36dc2ba7f6e7d1fe7ae2975206e535da641df325185fef31f78dfeacb6"


def test_is_prime_matches_naive_oracle_on_seeded_odd_n_near_2_32():
    rng = random.Random(20150127)
    for n in (rng.randrange(2**32 - 2**20, 2**32) | 1 for _ in range(300)):
        assert _is_prime(n) == (_naive_factor(n) == {n: 1}), n


def test_factor_matches_naive_oracle_on_large_primes_and_semiprimes():
    sieve = _sieve(2**16)
    small = [p for p in range(2**16) if sieve[p]]  # every prime up to sqrt(2^32)
    primes = [n for n in range(2**32 - 1, 2**32 - 2001, -2) if all(n % p for p in small)][:40]
    assert len(primes) == 40 and primes[0] == 4294967291
    near = small[-41:]
    semiprimes = [p * q for p, q in zip(near, near[1:])]  # two primes near 2^16
    for n in primes + semiprimes:
        assert _factor(n) == sorted(_naive_factor(n).items()), n
    assert [_factor(p) for p in primes] == [[(p, 1)] for p in primes]


# --- the verdict records ----------------------------------------------------------


def test_verdict_records_are_frozen_dataclasses_with_their_own_constructors():
    obstruction = Obstruction("repeated-prime", 3)
    assert obstruction == Obstruction(kind="repeated-prime", prime=3)
    assert repr(obstruction) == "Obstruction(kind='repeated-prime', prime=3)"
    verdict = ConstructibilityVerdict(9, False, 0, (3,), obstruction)
    assert verdict == ConstructibilityVerdict(
        n=9, constructible=False, power_of_two=0, odd_primes=(3,), obstruction=obstruction)
    assert verdict == check(9)
    assert repr(verdict) == ("ConstructibilityVerdict(n=9, constructible=False, power_of_two=0, "
                             "odd_primes=(3,), obstruction=Obstruction(kind='repeated-prime', prime=3))")
    plain = ConstructibilityVerdict(12, True, 2, (3,))
    assert plain.obstruction is None and plain == ConstructibilityVerdict(12, True, 2, (3,), None)
    assert plain == ConstructibilityVerdict(n=12, constructible=True, power_of_two=2, odd_primes=(3,))
    assert hash(obstruction) == hash(("repeated-prime", 3))
    assert hash(verdict) == hash((9, False, 0, (3,), obstruction))
    assert verdict != (9, False, 0, (3,), obstruction) and verdict != plain
    assert obstruction != Obstruction("non-fermat-prime", 3)
    for record, names in (
        (obstruction, ("kind", "prime")),
        (verdict, ("n", "constructible", "power_of_two", "odd_primes", "obstruction")),
    ):
        cls = type(record)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names == cls.__match_args__
        assert not hasattr(record, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
    moved = dataclasses.replace(verdict, obstruction=dataclasses.replace(obstruction, prime=5))
    assert moved == ConstructibilityVerdict(9, False, 0, (3,), Obstruction("repeated-prime", 5))
    assert verdict.obstruction.prime == 3
    match moved:
        case ConstructibilityVerdict(n, constructible, power_of_two, odd_primes, Obstruction(kind, prime)):
            assert (n, constructible, power_of_two, odd_primes, kind, prime) == (
                9, False, 0, (3,), "repeated-prime", 5)
    for build in (
        lambda: Obstruction("repeated-prime"),
        lambda: Obstruction("repeated-prime", 3, 5),
        lambda: Obstruction("repeated-prime", prime=3, n=9),
        lambda: ConstructibilityVerdict(9, False, 0),
        lambda: ConstructibilityVerdict(9, False, 0, (3,), obstruction, None),
        lambda: ConstructibilityVerdict(9, False, 0, (3,), n=9),
    ):
        with pytest.raises(TypeError):
            build()


# --- pinned verdicts --------------------------------------------------------------

# sha256 over repr(check(n)), one per line, for n = 3..30000 and then 200 seeded
# n near 2^32 of each kind in turn: primes, Fermat products times 2^k, squares of
# primes near 2^16, and multiples of a non-Fermat prime below 2^16.
_CHECK_SHA256 = "87f8e91e2fb55ea1c0f851f90ee093b7d32ff8404265f87c4e46a2d15c4db3f8"


def _near_2_32(rng: random.Random) -> list[int]:
    top = 2**32
    primes = []
    while len(primes) < 200:
        n = rng.randrange(top - 2**24, top) | 1
        while not _is_prime(n):
            n -= 2
        primes.append(n)
    products = (1, 3, 5, 17, 257, 3 * 5 * 17 * 257, 65537, 3 * 65537, 5 * 17 * 65537)  # ascending
    fermat = []
    for _ in range(200):
        f = rng.choice(products)
        k = (top // f).bit_length() - 1 - rng.randrange(4)  # f * 2^k in (2^28, 2^32]
        fermat.append(f << k)
    squares = []
    while len(squares) < 200:
        p = rng.randrange(2**15, 2**16) | 1
        if _is_prime(p):
            squares.append(p * p)
    non_fermat = []
    while len(non_fermat) < 200:
        p = rng.randrange(7, 2**16) | 1
        if _is_prime(p) and not is_fermat_prime(p):
            non_fermat.append(p * rng.randrange((top - 2**24) // p, top // p + 1))
    return primes + fermat + squares + non_fermat


def _check_digest() -> str:
    digest = hashlib.sha256()
    for n in itertools.chain(range(3, 30001), _near_2_32(random.Random(20150325))):
        digest.update(f"{check(n)!r}\n".encode())
    return digest.hexdigest()


def test_check_verdicts_are_pinned():
    assert _check_digest() == _CHECK_SHA256
