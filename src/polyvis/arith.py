"""Exact integer arithmetic: primality, factorization, p-adic valuations, digits.

Everything here works on plain Python ints (arbitrary precision), so results
are exact (`valuation` also takes a Fraction). Factorization is deterministic
run-to-run: trial division by sieved primes, then Brent-cycle Pollard rho
seeded from the number being split.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import compress

# Deterministic Miller-Rabin witness set; sufficient for all n below this
# bound (in particular for anything that fits in 64 bits).
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS = 40  # randomized rounds above the deterministic bound

_SMALL_PRIME_LIMIT = 10_000


def lcm_many(values) -> int:
    """lcm of an iterable of positive ints; empty input gives 1."""
    return math.lcm(*values)


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (simple byte sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return list(compress(range(bound + 1), sieve))


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_SMALL_PRIME_LIMIT))


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-probable-prime test. True = passes (maybe prime)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 via the fixed witness set; beyond that,
    40 rounds with bases drawn from a generator seeded by n (so the answer
    for a given n never changes between runs).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_WITNESSES
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)]
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def _pollard_brent(n: int, rng: random.Random) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] with p ascending.

    factorize(1) == []. Trial division by primes to 1e4, then Pollard rho
    (Brent) on whatever composite survives.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    counts: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1 and n <= _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        # cofactor below the square of the trial bound is prime
        counts[n] = counts.get(n, 0) + 1
        n = 1
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            f = _pollard_brent(m, random.Random(m))
            stack.append(f)
            stack.append(m // f)
    return sorted(counts.items())


def valuation(p: int, x) -> int:
    """p-adic valuation v_p(x) for nonzero x, an int (denominator 1) or a Fraction.

    Negative for fractions with p in the denominator. Raises on x == 0,
    where the valuation is not a finite number.
    """
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return _int_valuation(p, x.numerator) - _int_valuation(p, x.denominator)


def _int_valuation(p: int, n: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def base_digits(n: int, base: int) -> list[int]:
    """Digits of n >= 1 in the given base, least significant first.

    The invariant n == sum(d * base**i) always holds, and the leading
    (last) digit is nonzero.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"base_digits needs n >= 1, got {n}")
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    return digits
