"""Visibility predicates and column structure for a polynomial family.

(a, b) is visible along y = q*P(x) when no earlier column t in [1, a)
has b*P(t)/P(a) an integer; equivalently, none of the column moduli

    m_{a,t} = P(a) // gcd(P(a), P(t))

divides b. Column a = 1 has no earlier columns, so every (1, b) is
visible. Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import factorize, valuation
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


def multiples_mask(mods, lo: int, hi: int) -> np.ndarray:
    """Boolean array over b in [lo, hi]: True where some modulus in mods divides b.

    The column sieve: with a column's minimal moduli it marks the invisible
    points of that column, with its lcm prime set the points failing the
    lcm certificate.
    """
    mask = np.zeros(hi - lo + 1, dtype=bool)
    for m in mods:
        start = -(-lo // m) * m
        if start <= hi:
            mask[start - lo :: m] = True
    return mask


def modulus(family: PolyFamily, a: int, t: int) -> int:
    """m_{a,t} = P(a) / gcd(P(a), P(t)); the divisor of b that blocks (a, b) at t."""
    if not 1 <= t < a:
        raise ValueError(f"need 1 <= t < a, got t={t}, a={a}")
    pa = family.eval(a)
    return pa // gcd(pa, family.eval(t))


def is_visible(family: PolyFamily, point: LatticePoint) -> VisibilityVerdict:
    """Visibility of (a, b), with the smallest blocking t as witness if invisible."""
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
    """gcd(P(a), b). Value 1 is a sufficient (not necessary) visibility certificate.

    It is the strict end of the chain gcd certificate => lcm certificate =>
    visible: L_P(a) divides P(a), so gcd(P(a), b) = 1 leaves b coprime to
    L_P(a) (see `lcm_criterion`). The converse fails: on x^2 + x the point
    (1, 2) has gcd 2 yet passes the lcm test, since column 1 has no earlier
    columns.
    """
    return gcd(family.eval(point.a), point.b)


def _minimal_by_divisibility(values: set[int]) -> tuple[int, ...]:
    kept: list[int] = []
    for m in sorted(values):
        if not any(m % k == 0 for k in kept):
            kept.append(m)
    return tuple(kept)


def column_profile(family: PolyFamily, a: int) -> ColumnProfile:
    """Full modulus list for column a plus its minimal set and lcm prime support."""
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

    Only primes of gcd(P(a), b) can divide both b and L_P(a), so that gcd
    is factorized instead of P(a), which can be far larger.
    """
    cache = ProfileCache(family)
    pa = cache.value(point.a)
    return not any(
        cache.divides_lcm(point.a, p, valuation(p, pa)) for p, _ in factorize(gcd(pa, point.b))
    )


class ProfileCache:
    """Column data for one family, computed once per column and reused.

    The one implementation of column moduli and lcm prime sets:
    column_profile, lcm_criterion and every sieve read their columns here.

    Grid scans and censuses touch every column many times; the cache keeps
    evaluated P-values and minimal modulus sets keyed by column index, so
    repeated lookups return the same tuples. Lcm prime sets are not kept:
    every caller asks for each column once.
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

    def prime_set(self, a: int) -> tuple[int, ...]:
        """Primes dividing L_P(a) = lcm of d_t = P(a)/gcd over t < a."""
        return tuple(p for p, e in factorize(self.value(a)) if self.divides_lcm(a, p, e))

    def divides_lcm(self, a: int, p: int, e: int) -> bool:
        """Whether the prime p, with p^e exactly dividing P(a), divides L_P(a).

        p divides some d_t exactly when v_p(P(t)) < e for some t < a, so the
        lcm itself never has to be materialized. Whether p^e divides P(t)
        depends only on t mod p^e, so t <= p^e covers every t < a.
        """
        return any(valuation(p, self.value(t)) < e for t in range(1, min(a, p**e + 1)))

    def is_visible(self, a: int, b: int) -> bool:
        """Same verdict as module-level is_visible, via the minimal modulus set."""
        return all(b % m != 0 for m in self.minimal_moduli(a))
