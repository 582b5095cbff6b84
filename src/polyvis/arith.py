"""Exact integer arithmetic: primality, factorization, p-adic valuations,
roots of polynomials over F_p, digits.

Everything here works on plain Python ints (arbitrary precision), so results
are exact (`valuation` also takes a Fraction). Factorization is deterministic
run-to-run: trial division by sieved primes, then Brent-cycle Pollard rho
seeded from the number being split.
"""

from __future__ import annotations

import math
import operator
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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def count_roots_mod_p(coeffs, p: int) -> int:
    """Number of distinct roots in F_p of sum coeffs[i] * x**i, for a prime p.

    Every element of F_p is a simple root of x^p - x, so the count is
    deg gcd(Q, x^p - x) with Q the polynomial reduced mod p (Cohen, GTM 138,
    polynomials over finite fields). Q mod p must not be zero.
    """
    return len(_frobenius_gcd(coeffs, p)) - 1


def roots_mod_p(coeffs, p: int) -> list[int]:
    """The distinct roots in F_p of sum coeffs[i] * x**i, ascending, for a prime p.

    The roots are those of g = gcd(Q, x^p - x), found at every prime by
    equal-degree splitting (Cantor-Zassenhaus; Cohen, GTM 138, 3.4.3):
    gcd(g, (x + s)^((p-1)/2) - 1) holds the roots r with r + s a nonzero
    square. Some shift s in [0, p) separates any two roots. A factor split
    off at s resumes at s + 1: every earlier shift gave all of its roots one
    answer. g of degree p is x^p - x itself, every residue; at p = 2 it is
    the only g of degree >= 2, where the exponent (p-1)/2 would be 0. Q mod
    p must not be zero.
    """
    g = _frobenius_gcd(coeffs, p)
    if len(g) > p:
        return list(range(p))
    roots = []
    stack = [(g, 0)]
    while stack:
        g, first = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            for s in range(first, p):
                h = _power_mod(g, p, s, (p - 1) // 2)
                h[0] = (h[0] - 1) % p
                f = _gcd_mod_p(list(g), h, p)
                if 1 < len(f) < len(g):
                    stack += [(f, s + 1), (_quotient_mod_p(g, f, p), s + 1)]
                    break
    return sorted(roots)


def _frobenius_gcd(coeffs, p: int) -> list[int]:
    """Monic gcd(Q, x^p - x) over F_p, little-endian: the product of x - r over the roots r of Q."""
    q = [c % p for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        raise ValueError(f"polynomial is zero mod {p}")
    inv = pow(q[-1], -1, p)
    q = [c * inv % p for c in q]
    if len(q) <= 2:
        return q
    h = _power_mod(q, p, 0, p)
    h[1] = (h[1] - 1) % p
    return _gcd_mod_p(q, h, p)


def _power_mod(q: list[int], p: int, s: int, e: int) -> list[int]:
    """(x + s)^e mod q over F_p, for monic q of degree d >= 2 and e >= 1; d coefficients.

    Square-and-multiply on polynomials packed into one int, w bits per
    coefficient (Kronecker substitution), so a square is one bigint product.
    A coefficient never exceeds 2d(p-1)^2 < 2^w before it is reduced: the
    square contributes at most d products of residues, and the reduction
    adds one more per folded-in power x^k, k = d..2d-1.
    """
    d = len(q) - 1
    w = 2 * p.bit_length() + (2 * d).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, d * w, w)

    def pack(cs):
        v = 0
        for c in reversed(cs):
            v = (v << w) | c
        return v

    def unpack(v):
        """The d lowest coefficients of v, reduced mod p."""
        return [(v >> i & mask) % p for i in shifts]

    # fold[k - d] = x^k mod q, packed, for the powers a square times x reaches
    fold = []
    r = [-c % p for c in q[:d]]  # x^d = -(q_0 + ... + q_{d-1} x^{d-1})
    for _ in range(d):
        fold.append(pack(r))
        top = r[-1]
        r = [0, *r[:-1]]
        r = [(ri - top * qi) % p for ri, qi in zip(r, q)]
    low = (1 << (d * w)) - 1

    def reduce(v):
        return pack(unpack(sum(map(operator.mul, unpack(v >> (d * w)), fold), v & low)))

    acc = pack([s % p, 1])
    for bit in bin(e)[3:]:
        acc *= acc
        if bit == "1":
            if s:
                acc = reduce(acc)
                acc = (acc << w) + s * acc
            else:
                acc <<= w
        acc = reduce(acc)
    return unpack(acc)


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd(a, b) over F_p; little-endian coefficient lists, a nonzero, both consumed."""
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % p
            if c:
                a[i - db : i + 1] = [(x - c * y) % p for x, y in zip(a[i - db : i + 1], b)]
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _quotient_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b over F_p for monic b dividing a; little-endian coefficient lists."""
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = out[i - db] = a[i]
        if c:
            a[i - db : i + 1] = [(x - c * y) % p for x, y in zip(a[i - db : i + 1], b)]
    return out


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
