"""Building curves through a prescribed lattice point that dodge all earlier columns.

The recipe: pick a prime ell > max(a, b), expand ell in base a with digits
d_1..d_k (least significant first), and take

    C(x) = sum_i (b * d_i) / (ell * a) * x**i.

Horner in base a reassembles ell at x = a, so C(a) = b exactly, while for
0 < t < a the digit polynomial stays below ell (hence coprime to it) and an
ell survives in every denominator: the open segment from (0,0) to (a, b)
meets no lattice point. The same digit polynomial drives the multi-prime
average and the n-coordinate bundle; every claim is re-checked in exact
integer arithmetic and the outcome recorded, never assumed. The curves are
`RationalPoly`s, exact `Fraction` polynomials that live here beside their one user.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod

from .arith import base_digits, is_prime, next_prime_above, valuation
from .errors import ResourceLimitError
from .polyfam import LatticePoint

# Fixed caps that LATTICE_SCOPE_CAP leaves alone. A 64-bit ell keeps is_prime
# in its deterministic Miller-Rabin range.
ELL_BITS_CAP = 64
MULTI_PRIME_CAP = 4


class RationalPoly(namedtuple("RationalPoly", "coeffs")):
    """Polynomial with exact Fraction coefficients, constant term included.

    coeffs[i] multiplies x**i. Used for the constructed curves, whose
    whole point is having controlled denominators.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def eval(self, x: int | Fraction) -> Fraction:
        """The exact value at x: Horner on the integer coefficients of D * curve, divided by D once."""
        den, nums = _integral(self)
        acc = 0
        for n in nums:
            acc = acc * x + n
        return Fraction(acc, den)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                pw = "x" if i == 1 else f"x^{i}"
                terms.append(f"{c}*{pw}" if c != 1 else pw)
        return " + ".join(terms) if terms else "0"


def _integral(curve: RationalPoly) -> tuple[int, tuple[int, ...]]:
    """(D, the coefficients of D * curve from the highest power down), D the lcm of the denominators."""
    den = lcm(*(c.denominator for c in curve.coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in reversed(curve.coeffs))


class Construction(namedtuple("Construction", "point ell digits curve verified")):
    """A digit curve through point: digits are ell's little-endian base-a digits,
    and verified says curve(t) is non-integral for every 0 < t < a."""

    __slots__ = ()

    def to_record(self) -> dict:
        return {
            "point": {"a": self.point.a, "b": self.point.b},
            "ell": self.ell,
            "digits": list(self.digits),
            "curve": [_frac_str(c) for c in self.curve.coeffs],
            "curve_text": str(self.curve),
            "verified": self.verified,
            "valuation_profile": [list(p) for p in valuation_profile(self).points],
        }


class MultiPrimeConstruction(
    namedtuple("MultiPrimeConstruction", "point ells components curve verified denominator_counterexamples")
):
    """Average of single-prime curves; denominators should retain every prime.
    denominator_counterexamples are the interior t where some ell drops out."""

    __slots__ = ()

    @property
    def denominator_claim_ok(self) -> bool:
        return not self.denominator_counterexamples

    def to_record(self) -> dict:
        return {
            "point": {"a": self.point.a, "b": self.point.b},
            "ells": list(self.ells),
            "components": [c.to_record() for c in self.components],
            "curve": [_frac_str(c) for c in self.curve.coeffs],
            "curve_text": str(self.curve),
            "verified": self.verified,
            "denominator_claim_ok": self.denominator_claim_ok,
        }


# One curve per coordinate after the first; x runs along coordinate 1.
CurveBundle = namedtuple("CurveBundle", "point ell curves verified")

# points: (exponent, v_ell) for each nonzero coefficient.
ValuationProfile = namedtuple("ValuationProfile", "ell points")


def _frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _check_ell(ell: int, bound: int) -> None:
    if ell.bit_length() > ELL_BITS_CAP:
        raise ResourceLimitError(f"ell has {ell.bit_length()} bits; the cap is {ELL_BITS_CAP}")
    if not is_prime(ell):
        raise ValueError(f"ell={ell} is not prime")
    if ell <= bound:
        raise ValueError(f"ell={ell} must exceed the largest coordinate {bound}")


def _digit_curves(coords: tuple[int, ...], ell: int | None):
    """(ell, digits, curves, verified) for coords = (a, c_2, ..., c_n): one
    digit curve per coordinate after the first, checked to hit c at x = a
    and to take no integer value at 0 < t < a."""
    a = coords[0]
    if a < 2:
        raise ValueError(
            "base-a digits need a >= 2; note (1, b) is already visible on y = b*x"
        )
    if ell is None:
        ell = next_prime_above(max(coords))
    else:
        _check_ell(ell, max(coords))
    digits = tuple(base_digits(ell, a))
    curves = tuple(
        RationalPoly((Fraction(0),) + tuple(Fraction(c * d, ell * a) for d in digits))
        for c in coords[1:]
    )
    verified = True
    for curve, c in zip(curves, coords[1:]):
        den, nums = _integral(curve)
        verified = verified and curve.eval(a) == c and all(num % den for num in _numerators(nums, a))
    return ell, digits, curves, verified


def _numerators(nums: tuple[int, ...], a: int):
    """D * curve(t) for t = 1, ..., a - 1, by Horner on nums = _integral(curve)[1]:
    curve(t) is an integer iff D divides it."""
    for t in range(1, a):
        acc = 0
        for n in nums:
            acc = acc * t + n
        yield acc


def _denominators(curve: RationalPoly, a: int):
    """The reduced denominator D // gcd(num, D) of curve(t) for t = 1, ..., a - 1."""
    den, nums = _integral(curve)
    return (den // gcd(num, den) for num in _numerators(nums, a))


def construct_visible(pt: LatticePoint, ell: int | None = None) -> Construction:
    """Curve through (a, b) missing every lattice point with 0 < x < a.

    When ell is omitted the smallest admissible prime is used. The
    non-integrality of curve(t) at every interior integer is checked here,
    not trusted, and lands in `verified`.
    """
    ell, digits, (curve,), verified = _digit_curves((pt.a, pt.b), ell)
    return Construction(pt, ell, digits, curve, verified)


def construct_multi_prime(pt: LatticePoint, ells) -> MultiPrimeConstruction:
    """Average of the single-prime curves over distinct primes ells.

    The average still hits (a, b) exactly, and each interior value keeps
    every ell in its reduced denominator: at 0 < t < a it is
    b t / (a k) * sum_j D_j(t) / ell_j, k = len(ells), D_j the polynomial of
    ell_j's base-a digits, so 1 <= D_j(t) < D_j(a) = ell_j. Over a k prod(ells)
    its numerator is b t D_j(t) prod_{i != j} ell_i mod ell_j, nonzero as
    b, t < ell_j. So the O(a) check cannot fail for an accepted input; it
    stays as the recorded certificate, a violation listed as counterexamples
    rather than raised. Every ell is checked before any curve is built.
    """
    ells = tuple(ells)
    if not ells:
        raise ValueError("need at least one prime")
    if len(ells) > MULTI_PRIME_CAP:
        raise ResourceLimitError(f"{len(ells)} primes exceed the cap {MULTI_PRIME_CAP}")
    if len(set(ells)) != len(ells):
        raise ValueError(f"duplicate prime in {ells}")
    for ell in ells:
        _check_ell(ell, max(pt.a, pt.b))
    components = tuple(construct_visible(pt, ell) for ell in ells)
    columns = zip_longest(*(c.curve.coeffs for c in components), fillvalue=Fraction(0))
    curve = RationalPoly(tuple(sum(col) / len(components) for col in columns))
    verified = curve.eval(pt.a) == pt.b
    every = prod(ells)  # distinct primes: all divide q exactly when their product does
    bad: list[int] = []
    for t, q in enumerate(_denominators(curve, pt.a), 1):
        if q == 1:
            verified = False
        if q % every:
            bad.append(t)
    return MultiPrimeConstruction(pt, ells, components, curve, verified, tuple(bad))


def construct_curve_bundle(coords, ell: int | None = None) -> CurveBundle:
    """Curves (C_2(x), ..., C_n(x)) through (a_1, ..., a_n), parametrized by x.

    C_k(a_1) = a_k for each k, and at integer 0 < x < a_1 no coordinate is
    an integer, so the arc meets no other lattice point.
    """
    coords = tuple(coords)
    if len(coords) < 2:
        raise ValueError("need at least two coordinates")
    if any(c < 1 for c in coords):
        raise ValueError(f"coordinates must be >= 1, got {coords}")
    ell, _, curves, verified = _digit_curves(coords, ell)
    return CurveBundle(coords, ell, curves, verified)


def valuation_profile(c: Construction) -> ValuationProfile:
    """(exponent, v_ell(coefficient)) for each nonzero coefficient.

    For these curves every valuation is -1: the support of the lower convex
    hull is one horizontal segment at height -1.
    """
    pts = tuple(
        (i, valuation(c.ell, coef))
        for i, coef in enumerate(c.curve.coeffs)
        if coef != 0
    )
    return ValuationProfile(c.ell, pts)
