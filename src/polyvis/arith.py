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
_BATCH = 16  # primes per frobenius_gcds batch, chosen by measurement (README)
_TABLE_GAP = 128  # gaps a batch steps by a table of x^k, not by power(); prime gaps below 10^6 are <= 114


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


def frobenius_gcds(coeffs, primes) -> list[list[int]]:
    """Per prime p, monic gcd(Q, x^p - x) over F_p for Q = sum coeffs[i] * x**i: the product
    of x - r over Q's distinct roots r, its degree their count (Cohen, GTM 138, 3.4).

    Primes not dividing Q's leading coefficient go in batches of _BATCH, p_1 < ... < p_k
    with product M, in (Z/M)[x]/(Q): x^(p_1) by square-and-multiply, each next x^(p_i) one
    product by x^(p_i - p_(i-1)), the x^(p_i) - x joined by CRT into one G, and one Euclid
    gcd(Q, G) over Z/M (`_gcd_mod`). A prime dividing Q's lead is a batch of one. Q mod p != 0.
    """
    rest = sorted({p for p in primes if coeffs[-1] % p})
    batches = [[p] for p in set(primes) if coeffs[-1] % p == 0]
    batches += [rest[i : i + _BATCH] for i in range(0, len(rest), _BATCH)]
    gcds = {}
    for batch in batches:
        for m, g in _batch_gcds(coeffs, batch):
            gcds.update((p, [c % p for c in g]) for p in batch if m % p == 0)
    return [gcds[p] for p in primes]


def _batch_gcds(coeffs, batch: list[int]) -> list[tuple[int, list[int]]]:
    """_gcd_mod(Q, G, M) for M = prod(batch) and G = x^p - x mod (Q, p) at each p in batch."""
    m = math.prod(batch)
    q = [c % m for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        raise ValueError(f"polynomial is zero mod {m}")
    inv = pow(q[-1], -1, m)
    q = [c * inv % m for c in q]
    if len(q) <= 2:
        return [(m, q)]
    gaps = [b - a for a, b in zip(batch, batch[1:])]
    top = min(max(gaps, default=0), _TABLE_GAP)
    pack, unpack, reduce, power, xs = _kronecker(q, m, max(2 * len(q) - 2, len(batch)), top)
    steps = {gap: pack(xs[gap]) if gap < len(xs) else power(0, gap) for gap in set(gaps)}
    h = power(0, batch[0])
    crt = 0
    for p, gap in zip(batch, [0, *gaps]):
        if gap:
            h = reduce(h * steps[gap])
        crt += h * (m // p * pow(m // p, -1, p))  # 1 mod p, 0 mod the rest of the batch
    g = unpack(crt)
    g[1] = (g[1] - 1) % m
    return _gcd_mod(q, g, m)


def roots_mod_p(coeffs, p: int) -> list[int]:
    """The distinct roots in F_p of sum coeffs[i] * x**i, ascending, for a prime p.

    They are the roots of g = gcd(Q, x^p - x), from `frobenius_gcds` as a batch of one,
    split by equal-degree splitting (Cantor-Zassenhaus; Cohen, GTM 138, 3.4.3):
    gcd(g, (x + s)^((p-1)/2) - 1) holds the roots r with r + s a nonzero square, and some
    shift s in [0, p) separates any two roots. A factor split off at s resumes at s + 1:
    every earlier shift gave all of its roots one answer. g of degree p is x^p - x itself,
    every residue; at p = 2 it is the only g of degree >= 2, where the exponent (p-1)/2
    would be 0. Q mod p must not be zero.
    """
    (g,) = frobenius_gcds(coeffs, [p])
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
                ((_, f),) = _gcd_mod(list(g), h, p)
                if 1 < len(f) < len(g):
                    stack += [(f, s + 1), (_quotient_mod_p(g, f, p), s + 1)]
                    break
    return sorted(roots)


def _kronecker(q: list[int], m: int, terms: int, top: int):
    """(pack, unpack, reduce, power, xs) for (Z/m)[x]/(q), q monic of degree d >= 2.

    pack puts d residues in one int, w bits each (Kronecker substitution), so a
    product is one bigint product. A coefficient holds up to `terms` products of
    residues: a product has d, and reduce adds one per folded-in x^k, k = d..2d-1.
    power(s, e) is (x + s)^e packed, e >= 1; xs[k] is x^k mod q for k <= max(top, 2d - 1).
    """
    d = len(q) - 1
    w = 2 * m.bit_length() + terms.bit_length()
    mask = (1 << w) - 1
    shifts = range(0, d * w, w)

    def pack(cs):
        v = 0
        for c in reversed(cs):
            v = (v << w) | c
        return v

    def unpack(v):
        """The d lowest coefficients of v, reduced mod m."""
        return [(v >> i & mask) % m for i in shifts]

    xs = [[0] * k + [1] + [0] * (d - 1 - k) for k in range(d)]
    while len(xs) <= max(top, 2 * d - 1):  # x^(k+1) = x * x^k, with x^d = -(q_0 + ... + q_{d-1} x^{d-1})
        r = xs[-1]
        xs.append([(ri - r[-1] * qi) % m for ri, qi in zip([0, *r[:-1]], q)])
    fold = [pack(r) for r in xs[d : 2 * d]]
    low = (1 << (d * w)) - 1

    def reduce(v):
        return pack(unpack(sum(map(operator.mul, unpack(v >> (d * w)), fold), v & low)))

    def power(s, e):
        acc = pack([s % m, 1])
        for bit in bin(e)[3:]:
            acc *= acc
            if bit == "1":
                if s:
                    acc = reduce(acc)
                    acc = (acc << w) + s * acc
                else:
                    acc <<= w
            acc = reduce(acc)
        return acc

    return pack, unpack, reduce, power, xs


def _power_mod(q: list[int], m: int, s: int, e: int) -> list[int]:
    """(x + s)^e mod (q, m) for monic q of degree d >= 2 and e >= 1; d coefficients."""
    _, unpack, _, power, _ = _kronecker(q, m, 2 * len(q) - 2, 0)
    return unpack(power(s, e))


def _gcd_mod(a: list[int], b: list[int], m: int) -> list[tuple[int, list[int]]]:
    """[(m', g)] over coprime m' with product m, g the monic gcd(a, b) mod each prime of m'.

    Euclid over Z/m, m squarefree, a's leading coefficient a unit. A leading coefficient c
    that is neither 0 nor a unit splits m into gcd(c, m) and its cofactor ("dynamic
    evaluation": Della Dora, Dicrescenzo and Duval, 1985). Lists are consumed.
    """
    out, stack = [], [(a, b, m)]
    while stack:
        a, b, m = stack.pop()
        while b and b[-1] % m == 0:
            b.pop()
        if not b:
            inv = pow(a[-1], -1, m)
            out.append((m, [c * inv % m for c in a]))
            continue
        g = math.gcd(b[-1], m)
        if g > 1:
            stack += [(list(a), list(b), g), (a, b, m // g)]
            continue
        inv = pow(b[-1], -1, m)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % m
            if c:
                a[i - db : i + 1] = [(x - c * y) % m for x, y in zip(a[i - db : i + 1], b)]
        del a[db:]
        stack.append((b, a, m))
    return out


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
