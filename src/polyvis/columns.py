"""Whole columns of moduli m_{a,t}, for the sieves (`ProfileCache`) and by the O(a)
scan of one column (`column_profile`)."""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm, prod

from .arith import factorize, primes_up_to
from .polyfam import PolyFamily
from .roots import RootTable

# One column: a; moduli, the (t, m_{a,t}) for t in [1, a); minimal_moduli, the
# divisibility-minimal values, ascending; lcm_prime_set, the primes dividing L_P(a).
ColumnProfile = namedtuple("ColumnProfile", "a moduli minimal_moduli lcm_prime_set")


def _minimal_by_divisibility(values: set[int]) -> tuple[int, ...]:
    kept: list[int] = []
    for m in sorted(values):
        for k in kept:
            if m % k == 0:
                break
        else:
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
    reads and is never produced, so is_visible refuses b > bound. A column
    past the bound is refused too, so every cache is sized once. Columns
    a < 1 and rows b < 1 lie off the lattice and are refused. Censuses,
    grids and block scans ask for each column once; only the radius search,
    whose rings overlap, reads a column again. roots is the `RootTable` of
    P / x that the column classes read: a census sweep fills it in batches
    first (`census._column_cache`); else each prime's roots are found when read.
    """

    def __init__(self, family: PolyFamily, bound: int):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        self.family = family
        self.bound = bound
        self.roots = RootTable(family.coeffs)
        self._prefix = tuple(accumulate(map(family.eval, range(1, family.degree + 1)), gcd))  # gcd P(1..t)
        self._values: dict[int, int] = {}
        self._minimal: dict[int, tuple[int, ...]] = {}
        self._primes: dict[int, list[int]] = {}
        self._class_cache: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._witness: dict[tuple[int, int], int] = {}
        self._combed: dict[tuple[tuple[int, int], ...], int] = {}  # the same bitsets, by their classes
        self._all = (1 << bound + 1) - 1  # the witness bitsets hold t <= bound

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
        """minimal_moduli(a): ANDs of witness bitsets, not a gcd per t < a.

        Only P(a)'s bound-smooth part, prod p^e, is factorized. The t < a split prime by prime,
        largest p^e first, by min(e, v_p(P(t))) (`_witnesses`): each leaf is one m_{a,t}, kept when
        reached if the rest of P(a), C(a), divides P(t) for one of its t down to P(t) < P(a)/bound
        (else m_{a,t} > bound). A branch stops once m passes the bound or a smaller m found divides
        it. A column past the bound is refused, so a <= bound: the primes of C(a) exceed a, and
        C(a) | P(t) = t Q(t), Q = P/x, forces C(a) | (Q(a) - Q(t))/(a - t) <= Q(a) - Q(a-1)
        (nonnegative coefficients): a larger C(a) leaves no modulus <= bound.
        """
        if a > self.bound:
            raise ValueError(f"column {a} is past the cache bound {self.bound}: its moduli are unknown")
        if a == 1:
            return ()
        pa = rough = self.value(a)
        powers = []  # (p^e, p, e) with p^e exactly dividing P(a), p <= bound
        for p in self._smooth_primes(a):
            q, e, rough = p, 1, rough // p
            while rough % p == 0:
                q, e, rough = q * p, e + 1, rough // p
            powers.append((q, p, e))
        if rough > 1 and rough > pa // a - self.value(a - 1) // (a - 1):
            return ()
        powers.sort(reverse=True)
        bound, cached, found = self.bound, self._witness.get, []
        stack = [(0, 1, (1 << a) - 2)]  # t in [1, a)
        while stack:
            i, m, mask = stack.pop()
            for k in found:
                if m % k == 0:
                    break
            else:
                k = 0
            if k:
                continue
            if i == len(powers):  # only when C(a) > 1
                while mask and (v := self.value(t := mask.bit_length() - 1)) * bound >= pa:
                    if v % rough == 0:
                        found.append(m)
                        break
                    mask ^= 1 << t
                continue
            _, p, e = powers[i]
            children, above = [], 0
            for f in range(e, -1, -1):  # m takes p^(e - f): the t left have v_p(P(t)) = f, or >= e
                if m > bound:
                    break
                held = mask & (cached((p, f)) or self._witnesses(p, f)) if f else mask
                if held != above:
                    if i + 1 < len(powers) or rough > 1:
                        children.append((i + 1, m, held ^ above))
                    else:  # every t left witnesses m or a multiple of it
                        found.append(m)
                        break
                if held == mask:
                    break
                above, m = held, m * p
            stack += reversed(children)  # smaller m first
        return _minimal_by_divisibility(set(found))

    def _smooth_primes(self, a: int) -> list[int]:
        """The primes <= bound dividing P(a), ascending; one factorize per column."""
        if a not in self._primes:
            self._primes[a] = [p for p, _ in factorize(gcd(self.value(a), _primorial(self.bound)))]
        return self._primes[a]

    def _witnesses(self, p: int, f: int) -> int:
        """Bit t set for each t in [0, reach) with p^f | P(t): `_classes` combed out by doubling.

        Kept, once per set of classes, while their least modulus q has q^2 <= reach or
        q reach <= K^2, K the columns read: the kept bitsets hold about deg P reach^1.5 + K^2
        bits, and a sparser set recurs in few columns. Singular roots make many p^f share a set.
        The one caller, `_moduli`, reads `_witness` first, so a call here is a miss.

        Sharing by classes keeps x^3's (p, 1..3) as one object: without it, density of 1,0,0 at
        N = 10^4 peaked at 21.1 MB, not 20.1. Keeping every bitset made the census about 5%
        faster but doubled far-region memory: classify 98001..10^5 of x^2 + x, 21.3 -> 37.2 MB.
        """
        classes, reach = self._classes(p, f), self.bound + 1
        got = self._combed.get(classes)
        if got is None:
            combs, got = {}, 0
            for r, q in classes:
                combs[q] = combs.get(q, 0) | 1 << r
            for q, comb in combs.items():
                while q < reach:
                    comb |= comb << q
                    q <<= 1
                got |= comb
            got &= self._all
            q = min(combs)  # there is one class at least: P(0) = 0
            if q * q > reach and q * reach > len(self._minimal) ** 2:
                return got
            self._combed[classes] = got
        self._witness[(p, f)] = got
        return got

    def _classes(self, p: int, f: int) -> tuple[tuple[int, int], ...]:
        """Classes r mod q, q a power of p, whose members below reach are the t with p^f | P(t).

        The roots mod p are found once, for f = 1 (Cohen, GTM 138, 3.4). A root with P'(r) a
        unit lifts to one root mod each p^k (Hensel). A singular class r mod q is whole when
        P(r + q y) = 0 mod p^f for y = 0 .. deg P, as their finite differences then vanish;
        empty when P(r + q y) = P(r) mod p^(v+1) there, v = v_p(P(r)) < f (each member then has
        valuation v); else it splits mod pq. A class mod q >= reach holds at most r. The root 0
        of P = x^j R, j > 1, needs no split when p does not divide R(0)."""
        got = self._class_cache.get((p, f))
        if got is None:
            P, pf, reach, coeffs = self.family.eval, p**f, self.bound + 1, self.family.coeffs
            roots = {0, *self.roots.roots(p)} if f == 1 else [r for r, _ in self._classes(p, 1)]
            stack, got = [(r, p) for r in roots], []
            j = self.roots.j + 1  # P = x^j R with R(0) = roots.q0[0]
            if j > 1 and self.roots.q0[0] % p:  # p | t gives v_p(P(t)) = j v_p(t): one class for 0
                stack.remove((0, p))
                got.append((0, p ** -(-f // j)))
            while stack:
                r, q = stack.pop()
                if q >= pf or q >= reach:
                    if r < reach and (q >= pf or P(r) % pf == 0):
                        got.append((r, q))
                elif slope := sum((i + 1) * c * r**i for i, c in enumerate(coeffs)) % p:
                    stack.append(((r - P(r) * pow(slope, -1, p)) % (q * p), q * p))
                else:
                    values = [P(r + q * y) for y in range(self.family.degree + 1)]
                    step = gcd(values[0], pf) * p  # p^(v+1) when v = v_p(P(r)) < f
                    if not any(v % pf for v in values):
                        got.append((r, q))
                    elif step > pf or any((v - values[0]) % step for v in values):
                        stack += [(r + s * q, q * p) for s in range(min(p, (reach - 1 - r) // q + 1))]
            got = self._class_cache[(p, f)] = tuple(sorted(got))
        return got

    def lcm(self, a: int) -> int:
        """L_P(a), as `visibility.lcm_p`, over the cache's prefix gcds of P(1), ..., P(deg P)."""
        return self.value(a) // self._prefix[min(a, self.family.degree) - 1]

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
