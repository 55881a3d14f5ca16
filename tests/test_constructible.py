import random

import pytest

from vesica.constructible import (
    ConstructibilityVerdict,
    FACTOR_LIMIT,
    _factor,
    check,
    constructible_up_to,
    is_fermat_prime,
)

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


@pytest.mark.parametrize("n", [9.0, 7.5])
def test_non_integers_raise_type_error(n):
    with pytest.raises(TypeError):
        check(n)
    with pytest.raises(TypeError):
        constructible_up_to(n)


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
