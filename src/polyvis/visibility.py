"""Visibility of single points along a polynomial family: predicates and certificates.

(a, b) is visible along y = q*P(x) when no earlier column t in [1, a)
has b*P(t)/P(a) an integer; equivalently, none of the column moduli

    m_{a,t} = P(a) // gcd(P(a), P(t))

divides b. Column a = 1 has no earlier columns, so every (1, b) is
visible. Column a's moduli have lcm L_P(a) = P(a) / gcd(P(1), ..., P(a)).
Everything here is exact integer arithmetic: one P(a), one gcd and at most
one scan of the t < a per point. Whole columns are in `columns`.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import import_module
from math import gcd

from .polyfam import LatticePoint, PolyFamily


VisibilityVerdict = namedtuple("VisibilityVerdict", "visible witness_t witness_modulus", defaults=(None, None))


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
    column scan runs, so an invisible point still gets its smallest t. It takes
    one remainder per t: m_{a,t} | b exactly when D = P(a) / gcd(P(a), b) divides P(t).
    """
    if lcm_criterion(family, point):
        return VisibilityVerdict(True)
    a, b = point.a, point.b
    pa = family.eval(a)
    d = pa // gcd(pa, b)
    for t in range(1, a):
        if (pt := family.eval(t)) % d == 0:
            return VisibilityVerdict(False, t, pa // gcd(pa, pt))
    return VisibilityVerdict(True)


def is_visible_direct(family: PolyFamily, point: LatticePoint) -> bool:
    """Ground-truth check straight from the definition, in rational arithmetic.

    Kept deliberately independent of `is_visible` (no shared modulus math)
    so the two can cross-check each other.
    """
    from fractions import Fraction
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


def lcm_criterion(family: PolyFamily, point: LatticePoint) -> bool:
    """True when b is coprime to L_P(a): a sufficient visibility certificate.

    Every d_t divides P(a), so L_P(a) divides P(a) and this test passes
    whenever gcd(P(a), b) = 1: gcd certificate => lcm certificate =>
    visible. The converse of the first step fails, e.g. x^2 + x at (1, 2),
    where L_P(1) = 1 but gcd(P(1), 2) = 2.

    L_P(a) comes from `lcm_p`, so nothing is factorized.
    """
    return gcd(lcm_p(family, point.a), point.b) == 1


def lcm_p(family: PolyFamily, a: int) -> int:
    """L_P(a) = P(a) / gcd(P(1), ..., P(a)) for a >= 1, as every gcd(P(a), P(t)) divides P(a); past
    a = deg the gcd is P's fixed divisor."""
    return family.eval(a) // gcd(*map(family.eval, range(1, min(a, family.degree) + 1)))


def __getattr__(name: str):
    """ColumnProfile, ProfileCache and column_profile, from `columns` on first use (PEP 562)."""
    if name not in ("ColumnProfile", "ProfileCache", "column_profile"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".columns", __package__), name)


