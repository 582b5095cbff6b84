"""Whole columns of moduli m_{a,t}, for the sieves (`ProfileCache`) and by the O(a)
scan of one column (`column_profile`)."""

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm, prod

from .arith import factorize, primes_up_to, valuation
from .polyfam import PolyFamily
from .roots import roots_mod_p
from .visibility import lcm_p

# One column: a; moduli, the (t, m_{a,t}) for t in [1, a); minimal_moduli, the
# divisibility-minimal values, ascending; lcm_prime_set, the primes dividing L_P(a).
ColumnProfile = namedtuple("ColumnProfile", "a moduli minimal_moduli lcm_prime_set")


def _minimal_by_divisibility(values: set[int]) -> tuple[int, ...]:
    kept: list[int] = []
    for m in sorted(values):
        if not any(m % k == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def column_profile(family: PolyFamily, a: int) -> ColumnProfile:
    """Full modulus list for column a plus its minimal set and lcm prime support.

    The prime support factorizes L_P(a) in full, so the cost follows the
    size of its factors, not a: for the degree-16 family 7,1,2,...,14,3,
    0.62 s at a = 800 and 0.01 s at a = 2000 on a 2-CPU Xeon host.
    """
    if a < 1:
        raise ValueError(f"column index must be >= 1, got {a}")
    pa = family.eval(a)
    pairs = tuple((t, pa // gcd(pa, family.eval(t))) for t in range(1, a))
    moduli = {m for _, m in pairs}
    primes = tuple(p for p, _ in factorize(lcm(*moduli)))
    return ColumnProfile(a, pairs, _minimal_by_divisibility(moduli), primes)


_CLASS_RUN = 8  # t per candidate class at which ProfileCache stops refining by CRT


@lru_cache(maxsize=4)
def _primorial(bound: int) -> int:
    """Product of the primes <= bound, multiplied pairwise: a product tree, not a quadratic fold."""
    level = primes_up_to(bound) or [1]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


class ProfileCache:
    """Column data for one family up to a bound, computed once per column and reused.

    The one implementation of the sieves' column moduli: every sieve reads its columns here.

    bound is the largest b, and the largest column, that the caller reads.
    minimal_moduli(a) is the divisibility-minimal set of the m_{a,t}, t < a,
    cut to [1, bound]: a modulus above the bound marks no b the caller
    reads and is never produced, so is_visible refuses b > bound. Columns
    a < 1 and rows b < 1 lie off the lattice and are refused. Censuses,
    grids and block scans ask for each column once; only the radius search,
    whose rings overlap, reads a column again.
    """

    def __init__(self, family: PolyFamily, bound: int):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        self.family = family
        self.bound = bound
        self._values: dict[int, int] = {}
        self._minimal: dict[int, tuple[int, ...]] = {}
        self._primes: dict[int, list[int]] = {}
        self._root_classes: dict[tuple[int, int], tuple[float, list[tuple[int, int]]]] = {}

    def value(self, x: int) -> int:
        got = self._values.get(x)
        if got is None:
            if x < 1:  # every column read starts here, so a < 1 is refused once, on the miss
                raise ValueError(f"column index must be >= 1, got {x}")
            got = self._values[x] = self.family.eval(x)
        return got

    def minimal_moduli(self, a: int) -> tuple[int, ...]:
        got = self._minimal.get(a)
        if got is None:
            got = self._minimal[a] = self._moduli(a)
        return got

    def _moduli(self, a: int) -> tuple[int, ...]:
        """minimal_moduli(a): at most one gcd per candidate t (`_candidates`), not per t < a.

        Column 1 has no earlier columns. Otherwise only the bound-smooth part of P(a) is
        factorized. The rest, C(a), made of primes above the bound, divides P(a)/m for every
        m <= bound, so a t gets its gcd only if C(a) | P(t). When bound >= a those primes exceed
        a, and C(a) | P(t) = t Q(t), Q = P/x, forces C(a) | (Q(a) - Q(t))/(a - t) <= Q(a) - Q(a-1)
        (nonnegative coefficients): a larger C(a) leaves the column with no modulus <= bound.
        """
        if a == 1:
            return ()
        pa = self.value(a)
        powers = [(p, valuation(p, pa)) for p in self._smooth_primes(a)]
        rough = pa // prod(p**e for p, e in powers)
        if rough > 1 and a <= self.bound and rough > pa // a - self.value(a - 1) // (a - 1):
            return ()
        candidates = self._candidates(a, powers)
        if rough > 1:
            candidates = [t for t in candidates if self.value(t) % rough == 0]
        mods = {pa // gcd(pa, self.value(t)) for t in candidates}
        return _minimal_by_divisibility({m for m in mods if m <= self.bound})

    def _smooth_primes(self, a: int) -> list[int]:
        """The primes <= bound dividing P(a), ascending; one factorize per column."""
        if a not in self._primes:
            self._primes[a] = [p for p, _ in factorize(gcd(self.value(a), _primorial(self.bound)))]
        return self._primes[a]

    def _candidates(self, a: int, powers: list[tuple[int, int]]) -> set[int]:
        """t < a holding a witness of every modulus <= bound of column a; powers are
        the prime powers p^e of P(a) with p <= bound.

        m is a multiple of m_{a,t} exactly when d = P(a)/m divides P(t). So for
        m = prod p^j <= bound, a witness t has p^(e-j) | P(t) for every p and lies
        in the CRT intersection of `_classes(p, e - j)`. The search branches on j
        prime by prime, largest p^e first, with the product of the p^j at most
        bound, so every m <= bound has its branch. A branch stops refining once
        its classes hold _CLASS_RUN t each on average, and they join the
        candidates. A class whose least member is >= a is dropped: refining only
        raises it. A branch that refines every prime with larger classes needs
        one t: if d | P(t) for their least member t, t alone joins, since then
        m_{a,t} | m, and so m_{a,t} = m when m is minimal.
        """
        pool: set[tuple[int, int]] = set()
        powers = sorted(powers, key=lambda pe: pe[0] ** pe[1], reverse=True)
        stack = [(0, 1, [(0, 1)], 1.0)]
        while stack:
            i, m, classes, share = stack.pop()
            if a * share <= _CLASS_RUN * len(classes):
                pool.update(classes)
                continue
            if i == len(powers):
                t = min(r or q for r, q in classes)
                pool.update([(t, a)] if self.value(t) % (self.value(a) // m) == 0 else classes)
                continue
            p, e = powers[i]
            pj = 1
            for j in range(e + 1):
                if m * pj > self.bound:
                    break
                if j == e:
                    stack.append((i + 1, m * pj, classes, share))
                else:
                    density, cls = self._classes(p, e - j)
                    merged = [
                        (x, q * q2)
                        for r, q in classes
                        for s, q2 in cls
                        if (x := r + q * ((s - r) * pow(q, -1, q2) % q2)) < a
                    ]
                    if merged:
                        stack.append((i + 1, m * pj, merged, share * density))
                pj *= p
        return {t for r, q in pool for t in range(r or q, a, q)}

    def _classes(self, p: int, e: int) -> tuple[float, list[tuple[int, int]]]:
        """Residue classes (r, q), q a power of p, holding every t >= 0 with p^e | P(t),
        and the share of the integers they hold.

        A root r of P mod p with P'(r) a unit mod p lifts to one root mod p^e
        (Hensel), kept mod the first power of p past the bound: that class holds
        at most one t <= bound. A root with P'(r) = 0 mod p stays a class mod p,
        a superset of its lifts. The roots mod p are found once, for e = 1.
        """
        got = self._root_classes.get((p, e))
        if got is None:
            coeffs = self.family.coeffs
            classes = []
            for r in [r for r, _ in self._classes(p, 1)[1]] if e > 1 else {0, *roots_mod_p(coeffs, p)}:
                slope = sum((i + 1) * c * r**i for i, c in enumerate(coeffs)) % p
                q = p
                if slope:
                    inv = pow(slope, -1, p)
                    for _ in range(e - 1):
                        if q > self.bound:
                            break
                        q *= p
                        r = (r - self.family.eval(r) * inv) % q
                classes.append((r, q))
            got = self._root_classes[(p, e)] = (sum(1 / q for _, q in classes), classes)
        return got

    def lcm(self, a: int) -> int:
        return lcm_p(self.family, a, self.value)

    def prime_set(self, a: int) -> tuple[int, ...]:
        """Primes <= bound dividing L_P(a), ascending.

        L_P(a) divides P(a), so they are among the _smooth_primes(a), which
        the moduli search has factorized already.
        """
        la = self.lcm(a)
        return tuple(p for p in self._smooth_primes(a) if la % p == 0)

    def is_visible(self, a: int, b: int) -> bool:
        """Same verdict as module-level is_visible, via the minimal modulus set; 1 <= b <= bound."""
        if not 0 < b <= self.bound:
            raise ValueError(
                f"b must be >= 1, got {b}" if b < 1
                else f"b={b} is past the cache bound {self.bound}: its moduli are unknown"
            )
        return all(b % m != 0 for m in self.minimal_moduli(a))
