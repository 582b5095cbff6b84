"""Roots of integer polynomials over F_p, for the Euler products and the column moduli
search alone: `visible` and `construct` never load this kernel."""

import math
import operator

_BATCH = 16  # most primes per frobenius_gcds batch, chosen by measurement (README)
_PACK_BITS = 2560  # bound on deg Q * log2 M, M the product of a batch: fewer primes at high degree (README)
_TABLE_GAP = 128  # gaps a batch steps by a table of x^k, not by power(); prime gaps below 10^6 are <= 114


def frobenius_gcds(coeffs, primes) -> list[list[int]]:
    """Per prime p, monic gcd(Q, x^p - x) over F_p for Q = sum coeffs[i] * x**i: the product
    of x - r over Q's distinct roots r, its degree their count (Cohen, GTM 138, 3.4).

    Primes not dividing Q's leading coefficient go in batches p_1 < ... < p_k with product M,
    k <= _BATCH and deg Q * log2 M about _PACK_BITS at most, in (Z/M)[x]/(Q): x^(p_1) by
    square-and-multiply, each next x^(p_i) one product by x^(p_i - p_(i-1)), the x^(p_i) - x
    joined by CRT into one G, and one Euclid gcd(Q, G) over Z/M (`_gcd_mod`). A prime
    dividing Q's lead is a batch of one. Q mod p != 0.
    """
    rest = sorted({p for p in primes if coeffs[-1] % p})
    bits = max(len(coeffs) - 1, 1) * (rest[-1].bit_length() if rest else 1)  # deg Q * log2 of a prime
    width = max(1, min(_BATCH, _PACK_BITS // bits))
    batches = [[p] for p in set(primes) if coeffs[-1] % p == 0]
    batches += [rest[i : i + width] for i in range(0, len(rest), width)]
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


class RootTable:
    """The roots over F_p of Q = sum coeffs[i] * x**i, for one polynomial and as many primes as
    its readers ask for. Each `columns.ProfileCache` owns one for its classes; a census sweep
    batches the primes <= N into it first, and a density run hands it to the Euler product
    (`census.rho`) as well.

    Q = x^j * Q0 with Q0(0) != 0 (`split_x_power`). Per prime p the table holds the monic
    g = gcd(Q0, x^p - x), the product of x - r over Q0's distinct roots r: `gcds` batches the
    primes it lacks through `frobenius_gcds`, so a prime first read alone is a batch of one.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self.j, self.q0 = split_x_power(self.coeffs)
        self._gcds: dict[int, list[int]] = {}

    def gcds(self, primes) -> list[list[int]]:
        """g at each prime in primes, from the table: the primes it lacks go in batches, one
        exponentiation and one Euclid each. Q mod p must not be zero."""
        new = [p for p in primes if p not in self._gcds]
        if new:
            self._gcds.update(zip(new, frobenius_gcds(self.q0, new)))
        return [self._gcds[p] for p in primes]

    def roots(self, p: int) -> list[int]:
        """The distinct roots in F_p of Q, ascending, for a prime p.

        They are the roots of g, split by equal-degree splitting (Cantor-Zassenhaus; Cohen,
        GTM 138, 3.4.3): gcd(g, (x + s)^((p-1)/2) - 1) holds the roots r with r + s a nonzero
        square, and some shift s in [0, p) separates any two roots. A factor split off at s
        resumes at s + 1: every earlier shift gave all of its roots one answer. g of degree p
        is x^p - x itself, every residue; at p = 2 it is the only g of degree >= 2, where the
        exponent (p-1)/2 would be 0. Q has the roots of Q0, and 0 if j > 0.
        """
        (g,) = self.gcds([p])
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
        return sorted({*roots, 0} if self.j else roots)


def split_x_power(coeffs) -> tuple[int, list[int]]:
    """(j, Q0) with Q = x^j * Q0 and Q0(0) != 0 for Q = sum coeffs[i] * x**i; (0, Q) for Q = 0."""
    j = next((i for i, c in enumerate(coeffs) if c), 0)
    return j, coeffs[j:]


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
