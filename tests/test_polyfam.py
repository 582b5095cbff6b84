import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvis import DEGREE_CAP, LatticePoint, PolyFamily, RationalPoly, parse_family


def test_parse_family_basics():
    fam = parse_family("1,1")
    assert fam.coeffs == (1, 1)
    assert fam.degree == 2
    assert fam.spec == "1,1"
    assert parse_family("2,5").coeffs == (5, 2)
    assert parse_family("1,0,3").coeffs == (3, 0, 1)


def test_parse_family_rejects_bad_specs():
    with pytest.raises(ValueError, match="empty"):
        parse_family("")
    with pytest.raises(ValueError, match="negative"):
        parse_family("-1,1")
    with pytest.raises(ValueError, match="leading"):
        parse_family("0,1")
    with pytest.raises(ValueError, match="integers"):
        parse_family("a,b")
    with pytest.raises(ValueError, match="integers"):
        parse_family("1,,2")
    with pytest.raises(ValueError, match="cap"):
        parse_family(",".join(["1"] * (DEGREE_CAP + 1)))
    with pytest.raises(ValueError, match="leading"):
        parse_family("0,0")


def test_parse_family_normalize():
    """parse_family divides out the content; PolyFamily itself still rejects it."""
    assert parse_family("4,4").spec == "1,1"
    assert parse_family("12,12").spec == "1,1"
    assert parse_family("2,4").spec == "1,2"
    assert parse_family("6,0,9") == PolyFamily((3, 0, 2))
    with pytest.raises(ValueError, match="content must be 1, got 4"):
        PolyFamily((4, 4))


def test_family_validation_direct():
    with pytest.raises(ValueError):
        PolyFamily(())
    with pytest.raises(ValueError):
        PolyFamily((1, 0))  # leading coefficient zero
    with pytest.raises(ValueError):
        PolyFamily((2,))  # content 2
    with pytest.raises(ValueError):
        PolyFamily((-1, 1))


def test_eval_matches_naive_sum():
    rng = random.Random(314159)
    for _ in range(10_000):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(0, 9) for _ in range(deg)]
        coeffs[-1] = rng.randrange(1, 9)
        if math.gcd(*coeffs) != 1:
            coeffs[0] = 1
        fam = PolyFamily(tuple(coeffs))
        x = rng.randrange(0, 500)
        naive = sum(c * x ** (i + 1) for i, c in enumerate(fam.coeffs))
        assert fam.eval(x) == naive


def test_eval_no_constant_term():
    assert parse_family("1,1").eval(0) == 0
    assert parse_family("1,0,1").eval(0) == 0


def test_spec_round_trip():
    for spec in ("1", "1,0", "2,5", "1,0,0,7"):
        assert parse_family(spec).spec == spec
        assert parse_family(parse_family(spec).spec) == parse_family(spec)


def test_str_rendering():
    assert str(parse_family("1,1")) == "x^2 + x"
    assert str(parse_family("1,0,1")) == "x^3 + x"
    assert str(parse_family("2,5")) == "2x^2 + 5x"
    assert str(parse_family("1")) == "x"


def test_lattice_point_validation():
    LatticePoint(1, 1)
    with pytest.raises(ValueError):
        LatticePoint(0, 5)
    with pytest.raises(ValueError):
        LatticePoint(3, 0)
    with pytest.raises(ValueError):
        LatticePoint(-2, 4)


def test_rational_poly():
    curve = RationalPoly((Fraction(0), Fraction(5, 21), Fraction(10, 21)))
    assert curve.eval(3) == 5
    assert curve.eval(1) == Fraction(5, 7)
    assert curve.degree == 2
    assert str(curve) == "5/21*x + 10/21*x^2"
    padded = RationalPoly((Fraction(1), Fraction(0), Fraction(0)))
    assert padded.degree == 0
    assert RationalPoly((Fraction(0),)).eval(17) == 0


def _fraction_horner(coeffs, x):
    """Oracle: Horner with one Fraction operation per coefficient."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.fractions(-10**6, 10**6, max_denominator=10**9), max_size=20),
    x=st.one_of(st.integers(-10**4, 10**4), st.fractions(-100, 100, max_denominator=10**4)),
)
def test_rational_poly_eval_matches_fraction_horner(coeffs, x):
    got = RationalPoly(tuple(coeffs)).eval(x)
    assert isinstance(got, Fraction)
    assert got == _fraction_horner(coeffs, x)
