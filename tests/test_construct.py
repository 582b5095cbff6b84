import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvis import (
    LatticePoint,
    ResourceLimitError,
    construct_curve_bundle,
    construct_multi_prime,
    construct_visible,
    RationalPoly,
    next_prime_above,
    valuation_profile,
)
from polyvis import construct


def test_point_3_5_default_prime():
    c = construct_visible(LatticePoint(3, 5))
    assert c.ell == 7
    assert c.digits == (1, 2)
    assert c.curve.coeffs == (Fraction(0), Fraction(5, 21), Fraction(10, 21))
    assert c.curve.eval(3) == 5
    assert c.curve.eval(1) == Fraction(5, 7)
    assert c.curve.eval(2) == Fraction(50, 21)
    assert c.verified


def test_point_2_3():
    c = construct_visible(LatticePoint(2, 3))
    assert c.ell == 5
    assert c.digits == (1, 0, 1)
    assert c.curve.coeffs == (Fraction(0), Fraction(3, 10), Fraction(0), Fraction(3, 10))
    assert c.curve.eval(2) == 3
    assert c.verified
    prof = valuation_profile(c)
    assert prof.ell == 5
    assert prof.points == ((1, -1), (3, -1))


def test_to_record():
    rec = construct_visible(LatticePoint(2, 3)).to_record()
    assert rec["point"] == {"a": 2, "b": 3}
    assert rec["ell"] == 5
    assert rec["digits"] == [1, 0, 1]
    assert rec["curve"] == ["0/1", "3/10", "0/1", "3/10"]
    assert rec["curve_text"] == "3/10*x + 3/10*x^3"
    assert rec["verified"] is True
    assert rec["valuation_profile"] == [[1, -1], [3, -1]]


@given(st.integers(2, 300), st.integers(1, 300), st.booleans())
def test_single_bundle_and_multi_share_one_digit_curve(a, b, next_one):
    pt = LatticePoint(a, b)
    ell = next_prime_above(max(a, b))
    if next_one:
        ell = next_prime_above(ell)
    c = construct_visible(pt, ell)
    bundle = construct_curve_bundle((a, b), ell)
    assert (bundle.ell, bundle.curves, bundle.verified) == (c.ell, (c.curve,), c.verified)
    assert c.verified
    multi = construct_multi_prime(pt, [ell, next_prime_above(ell)])
    assert multi.components == (c, construct_visible(pt, next_prime_above(ell)))


def test_any_admissible_prime_works():
    primes = []
    ell = 5
    while len(primes) < 10:
        ell = next_prime_above(ell)
        primes.append(ell)
    for ell in primes:
        c = construct_visible(LatticePoint(3, 5), ell)
        assert c.verified
        assert c.curve.eval(3) == 5


def test_random_points_verify():
    rng = random.Random(424242)
    for _ in range(500):
        pt = LatticePoint(rng.randrange(2, 31), rng.randrange(1, 101))
        c = construct_visible(pt)
        assert c.verified
        assert c.curve.eval(pt.a) == pt.b
        assert all(v == -1 for _, v in valuation_profile(c).points)


def test_construct_errors():
    with pytest.raises(ValueError, match="a >= 2"):
        construct_visible(LatticePoint(1, 4))
    with pytest.raises(ValueError, match="not prime"):
        construct_visible(LatticePoint(3, 5), 9)
    with pytest.raises(ValueError, match="exceed"):
        construct_visible(LatticePoint(3, 5), 5)


def test_multi_prime_average():
    m = construct_multi_prime(LatticePoint(3, 5), [7, 11])
    assert m.ells == (7, 11)
    assert len(m.components) == 2
    assert m.curve.eval(3) == 5
    assert m.curve.eval(1) == Fraction(45, 77)
    assert m.curve.eval(2).denominator != 1
    assert m.verified
    assert m.denominator_claim_ok
    # every interior value keeps both primes downstairs
    for t in (1, 2):
        den = m.curve.eval(t).denominator
        assert den % 7 == 0 and den % 11 == 0
    rec = m.to_record()
    assert rec["denominator_claim_ok"] is True
    assert len(rec["components"]) == 2


def test_multi_prime_single_matches_plain():
    single = construct_visible(LatticePoint(4, 9), 11)
    m = construct_multi_prime(LatticePoint(4, 9), [11])
    assert m.curve.coeffs == single.curve.coeffs
    assert m.verified


def test_multi_prime_random_denominators():
    rng = random.Random(1618)
    for _ in range(40):
        a = rng.randrange(2, 15)
        b = rng.randrange(1, 40)
        ells, ell = [], max(a, b)
        for _ in range(rng.randrange(2, 4)):
            ell = next_prime_above(ell)
            ells.append(ell)
        m = construct_multi_prime(LatticePoint(a, b), ells)
        assert m.verified
        for t in range(1, a):
            den = m.curve.eval(t).denominator
            assert all(den % ell == 0 for ell in ells) == (
                t not in m.denominator_counterexamples
            )


def test_multi_prime_errors():
    with pytest.raises(ValueError, match="at least one"):
        construct_multi_prime(LatticePoint(3, 5), [])
    with pytest.raises(ValueError, match="duplicate"):
        construct_multi_prime(LatticePoint(3, 5), [7, 7])
    with pytest.raises(ValueError, match="not prime"):
        construct_multi_prime(LatticePoint(3, 5), [7, 15])
    with pytest.raises(ValueError, match="a >= 2"):
        construct_multi_prime(LatticePoint(1, 5), [7, 11])
    with pytest.raises(ValueError, match="exceed"):
        construct_multi_prime(LatticePoint(3, 5), [7, 5])


def test_multi_prime_checks_every_ell_before_building(monkeypatch):
    """A bad prime late in the list fails before the earlier curves are built."""
    monkeypatch.setattr(construct, "_digit_curves", lambda *a: pytest.fail("a curve was built"))
    with pytest.raises(ValueError, match="ell=15 is not prime"):
        construct_multi_prime(LatticePoint(100000, 99991), [2**64 - 59, 15])
    with pytest.raises(ValueError, match="must exceed the largest coordinate 100000"):
        construct_multi_prime(LatticePoint(100000, 99991), [2**64 - 59, 99989])
    with pytest.raises(ResourceLimitError, match="65 bits"):
        construct_multi_prime(LatticePoint(3, 5), [7, 2**64 + 13])


def test_prime_caps():
    with pytest.raises(ResourceLimitError, match="5 primes exceed the cap 4"):
        construct_multi_prime(LatticePoint(3, 5), [7, 11, 13, 17, 19])
    with pytest.raises(ResourceLimitError, match="65 bits"):
        construct_visible(LatticePoint(3, 5), 2**64 + 13)
    with pytest.raises(ResourceLimitError, match="65 bits"):
        construct_multi_prime(LatticePoint(3, 5), [7, 2**64 + 13])
    assert construct_visible(LatticePoint(3, 5), 2**64 - 59).verified
    assert construct_multi_prime(LatticePoint(3, 5), [7, 11, 13, 2**64 - 59]).verified


def test_bundle_2_3_5():
    bundle = construct_curve_bundle([2, 3, 5])
    assert bundle.ell == 7
    assert bundle.verified
    c2, c3 = bundle.curves
    assert c2.eval(1) == Fraction(9, 14)
    assert c2.eval(2) == 3
    assert c3.eval(2) == 5
    assert c3.coeffs == (Fraction(0), Fraction(5, 14), Fraction(5, 14), Fraction(5, 14))


def test_bundle_two_coords_matches_construct():
    bundle = construct_curve_bundle([4, 9], 11)
    single = construct_visible(LatticePoint(4, 9), 11)
    assert bundle.curves == (single.curve,)
    assert bundle.verified == single.verified


def test_bundle_errors():
    with pytest.raises(ValueError, match="two coordinates"):
        construct_curve_bundle([5])
    with pytest.raises(ValueError, match=">= 1"):
        construct_curve_bundle([2, 0])
    with pytest.raises(ValueError, match="a >= 2"):
        construct_curve_bundle([1, 5])
    with pytest.raises(ValueError, match="exceed"):
        construct_curve_bundle([2, 3, 5], 5)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(2, 2000),
    rest=st.lists(st.integers(1, 2000), min_size=1, max_size=3),
    count=st.integers(1, construct.MULTI_PRIME_CAP),
)
def test_every_construct_result_is_verified(a, rest, count):
    """construct_visible, construct_curve_bundle and construct_multi_prime all
    check every 0 < t < a, and each reports verified."""
    pt = LatticePoint(a, rest[0])
    assert construct_visible(pt).verified
    assert construct_curve_bundle((a, *rest)).verified
    ells = [next_prime_above(max(a, *rest))]
    while len(ells) < count:
        ells.append(next_prime_above(ells[-1]))
    multi = construct_multi_prime(pt, ells)
    assert multi.verified and all(c.verified for c in multi.components)


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(2, 300),
    b=st.integers(1, 300),
    skip=st.integers(0, 3),
    count=st.integers(1, construct.MULTI_PRIME_CAP),
)
def test_integer_checks_match_the_fraction_values(a, b, skip, count):
    """verified and denominator_counterexamples, read in integers from
    construct._integral, equal the same facts read from the Fraction
    RationalPoly.eval(t) at every t, and so does each reduced denominator."""
    ells = [next_prime_above(max(a, b))]
    while len(ells) < skip + count:
        ells.append(next_prime_above(ells[-1]))
    ells = ells[skip:]
    single = construct_visible(LatticePoint(a, b), ells[0])
    multi = construct_multi_prime(LatticePoint(a, b), ells)
    for got, curve in ((single, single.curve), (multi, multi.curve)):
        dens = [curve.eval(t).denominator for t in range(1, a)]
        assert list(construct._denominators(curve, a)) == dens
        assert got.verified == (curve.eval(a) == b and 1 not in dens)
    dens = [multi.curve.eval(t).denominator for t in range(1, a)]
    assert multi.denominator_counterexamples == tuple(
        t for t, den in enumerate(dens, 1) if any(den % ell for ell in ells)
    )


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=6),
    a=st.integers(1, 40),
)
def test_denominators_of_any_rational_poly(coeffs, a):
    curve = RationalPoly(tuple(coeffs))
    assert list(construct._denominators(curve, a)) == [curve.eval(t).denominator for t in range(1, a)]
