import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from polyvis import (
    base_digits,
    factorize,
    is_prime,
    lcm_many,
    next_prime_above,
    primes_up_to,
    valuation,
)
from polyvis import roots
from polyvis.roots import RootTable, frobenius_gcds


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_to_2000():
    for n in range(2000):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_known_values():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**32 + 1)
    # strong pseudoprime to several small bases; composite = 151 * 751 * 28351
    assert not is_prime(3215031751)
    assert not is_prime(1)
    assert not is_prime(0)


def test_next_prime_above():
    assert next_prime_above(0) == 2
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(5) == 7
    assert next_prime_above(7) == 11
    assert next_prime_above(13) == 17
    assert next_prime_above(89) == 97
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 10**9)
        p = next_prime_above(n)
        assert p > n and is_prime(p)
        # nothing prime in between
        assert all(not is_prime(m) for m in range(n + 1, p))


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**5)) == 9592


def test_factorize_exhaustive_small():
    for n in range(1, 2001):
        factors = factorize(n)
        rebuilt = 1
        for p, e in factors:
            assert is_prime(p) and e >= 1
            rebuilt *= p**e
        assert rebuilt == n
        assert factors == sorted(factors)


def test_factorize_random_reconstruction():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_factorize_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(p * p) == [(p, 2)]
    assert factorize(2**4 * p) == [(2, 4), (p, 1)]


def test_factorize_edge_cases():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_valuation_integers():
    assert valuation(2, 8) == 3
    assert valuation(2, -8) == 3
    assert valuation(3, 10) == 0
    assert valuation(7, Fraction(10, 21)) == -1
    assert valuation(5, Fraction(50, 4)) == 2
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(1, 6)


def test_valuation_is_additive():
    rng = random.Random(99)
    primes = [2, 3, 5, 7, 13]
    for _ in range(300):
        p = rng.choice(primes)
        x = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        y = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        assert valuation(p, x * y) == valuation(p, x) + valuation(p, y)


def test_base_digits_round_trip():
    assert base_digits(7, 3) == [1, 2]
    assert base_digits(5, 2) == [1, 0, 1]
    assert base_digits(9, 10) == [9]
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randrange(1, 10**9)
        base = rng.randrange(2, 65)
        digits = base_digits(n, base)
        assert digits[-1] != 0
        assert all(0 <= d < base for d in digits)
        assert sum(d * base**i for i, d in enumerate(digits)) == n


def test_base_digits_units_digit_of_prime():
    # a prime has a nonzero units digit in any base smaller than itself
    for ell in (7, 11, 13, 101, 997):
        for base in range(2, min(ell, 30)):
            assert base_digits(ell, base)[0] >= 1


def test_base_digits_errors():
    with pytest.raises(ValueError):
        base_digits(0, 2)
    with pytest.raises(ValueError):
        base_digits(10, 1)


def test_lcm_many():
    assert lcm_many([]) == 1
    assert lcm_many([4, 6]) == 12
    assert lcm_many([2, 3, 5, 7]) == 210
    rng = random.Random(11)
    for _ in range(100):
        xs = [rng.randrange(1, 400) for _ in range(rng.randrange(1, 6))]
        expect = 1
        for x in xs:
            expect = expect * x // math.gcd(expect, x)
        assert lcm_many(xs) == expect


def _times_linear(poly, r):
    """poly * (x - r), little-endian integer coefficients."""
    return [a - r * b for a, b in zip([0, *poly], [*poly, 0])]


def count_roots_mod_p(poly, p):
    """Q's distinct roots in F_p: deg gcd(Q, x^p - x), from frobenius_gcds as a batch of one."""
    (g,) = frobenius_gcds(poly, [p])
    return len(g) - 1


def test_count_roots_mod_p_counts_distinct_roots():
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 101, 2**31 - 1, 2**61 - 1):
        for _ in range(25):
            roots = [rng.randrange(p) for _ in range(rng.randrange(0, 8))]
            poly = [rng.randrange(1, p)]  # a random nonzero leading coefficient
            for r in roots:
                poly = _times_linear(poly, r)
            assert count_roots_mod_p(poly, p) == len(set(roots))
            if p % 4 == 3:  # x^2 + 1 has no roots mod p, so multiplying by it changes nothing
                poly = [a + c for a, c in zip([0, 0, *poly], [*poly, 0, 0])]
                assert count_roots_mod_p(poly, p) == len(set(roots))


def test_roots_mod_p_finds_every_root():
    """Random root sets at small and large primes, and random polynomials checked
    against residue enumeration; every prime takes the one splitting path."""
    rng = random.Random(6)
    for p in (2, 3, 5, 7, 101, 251, 257, 7919, 2**31 - 1):
        for _ in range(25):
            roots = [rng.randrange(p) for _ in range(rng.randrange(0, 8))]
            poly = [rng.randrange(1, p)]
            for r in roots:
                poly = _times_linear(poly, r)
            if p % 4 == 3:  # x^2 + 1 has no roots mod p
                poly = [a + c for a, c in zip([0, 0, *poly], [*poly, 0, 0])]
            assert RootTable(poly).roots(p) == sorted(set(roots))
    for p in (2, 3, 5, 13, 263):
        for _ in range(20):
            poly = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 17))]
            if all(c % p == 0 for c in poly):
                continue
            expected = [x for x in range(p) if sum(c * x**i for i, c in enumerate(poly)) % p == 0]
            assert RootTable(poly).roots(p) == expected
    for zero in ([7, 14], [0, 0, 7], [0, 0]):  # zero mod 7, with and without a power of x
        with pytest.raises(ValueError):
            RootTable(zero).roots(7)


def test_roots_mod_p_every_root_set_at_small_primes():
    """Every root set over F_p for p <= 7, and those of size <= 4 for p = 11, 13,
    alone and with the first root repeated, against residue enumeration."""
    for p, most in ((2, 2), (3, 3), (5, 5), (7, 7), (11, 4), (13, 4)):
        for k in range(most + 1):
            for roots in itertools.combinations(range(p), k):
                for repeated in ((), roots[:1]):
                    poly = [1 + k % (p - 1)]  # a nonzero leading coefficient, not always 1
                    for r in roots + repeated:
                        poly = _times_linear(poly, r)
                    expected = [x for x in range(p) if sum(c * x**i for i, c in enumerate(poly)) % p == 0]
                    assert expected == list(roots)
                    assert RootTable(poly).roots(p) == expected, (p, roots + repeated)


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("q0", [[1], [6, 1], [1, 1, 1], [30, 7, 0, 11]], ids=["1", "x+6", "x^2+x+1", "11x^3+7x+30"])
def test_roots_mod_p_of_a_power_of_x_times_q0_match_enumeration(j, q0):
    """x^j * Q0 has the root 0 and the roots of Q0, over every prime <= 400. Q0(0) = 6
    and 30 make 0 a root of Q0 as well at 2, 3 and 5, where it is listed once."""
    poly = [0] * j + q0
    for p in primes_up_to(400):
        expected = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p == 0]
        assert RootTable(poly).roots(p) == expected, p


def test_roots_mod_p_raises_to_positive_powers_only(monkeypatch):
    """_power_mod is defined for e >= 1. At p = 2 the split exponent (p - 1)/2 is 0,
    so x^2 + x = x^p - x must be answered without splitting; so must x^3 - x at p = 3."""
    power_mod = roots._power_mod

    def checked(q, p, s, e):
        assert e >= 1, (q, p, s, e)
        return power_mod(q, p, s, e)

    monkeypatch.setattr(roots, "_power_mod", checked)
    assert RootTable([1]).roots(2) == []
    assert RootTable([0, 1]).roots(2) == [0]
    assert RootTable([1, 1]).roots(2) == [1]
    assert RootTable([0, 1, 1]).roots(2) == [0, 1]
    assert RootTable([0, -1, 0, 1]).roots(3) == [0, 1, 2]


def _python_calls(fn, *args):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_roots_mod_p_work_does_not_grow_with_a_small_prime():
    """A linear Q has its root in its constant term at every prime: as many Python
    calls at p = 251 as at p = 7919, none of them per residue."""
    assert _python_calls(RootTable([1, 1]).roots, 251) == _python_calls(RootTable([1, 1]).roots, 7919)


def test_count_roots_mod_p_degree_drops_and_errors():
    assert count_roots_mod_p([5, 7], 7) == 0  # 5 + 7x is the nonzero constant 5 mod 7
    assert count_roots_mod_p([1, 3, 14], 7) == 1  # 1 + 3x, root x = 2
    assert count_roots_mod_p([1, 0, 1], 7) == 0
    assert count_roots_mod_p([1, 0, 1], 5) == 2
    with pytest.raises(ValueError):
        count_roots_mod_p([7, 14], 7)


@pytest.mark.parametrize("batch", [roots._BATCH, 64])
@pytest.mark.parametrize(
    "poly",
    [[1, 1, 1], [1, 2, 0, 3], [1, 3, 2**65], [3, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 7]],
    ids=["x^2+x+1", "3x^3+2x^2+1", "2^65x^2+3x+1", "degree-15"],
)
def test_frobenius_gcds_widest_batch_equals_batches_of_one(monkeypatch, poly, batch):
    """The last 64 primes <= 10^6 make the widest moduli a density run can reach, in one
    batch at 64. A lane must hold the CRT sum of a batch's packed products: lanes sized for
    a square alone gave x^2 + x + 1 wrong gcds at 30 of these primes."""
    monkeypatch.setattr(roots, "_BATCH", batch)
    primes = primes_up_to(10**6)[-64:]
    assert frobenius_gcds(poly, primes) == [frobenius_gcds(poly, [p])[0] for p in primes]


def test_frobenius_gcds_takes_primes_in_any_order():
    poly = [1, 2, 0, 3]
    primes = primes_up_to(400)
    shuffled = random.Random(3).sample(primes, len(primes))
    by_prime = dict(zip(primes, frobenius_gcds(poly, primes)))
    assert frobenius_gcds(poly, shuffled) == [by_prime[p] for p in shuffled]
    assert frobenius_gcds(poly, [7, 7, 5]) == [by_prime[7], by_prime[7], by_prime[5]]
