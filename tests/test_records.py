"""The package's records are immutable namedtuples that compare by their fields.

Each keeps the behaviour of the frozen records it replaced: assigning a field
raises AttributeError, equal fields give equal instances with the hash of
the field tuple, and the validated ones refuse bad input on construction.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import polyvis
from polyvis import (
    BlockHit,
    CensusResult,
    ColumnProfile,
    ConstantResult,
    Construction,
    CurveBundle,
    LatticePoint,
    MultiPrimeConstruction,
    PolyFamily,
    RadiusResult,
    RationalPoly,
    Region,
    ValuationProfile,
    VisibilityVerdict,
)

P, Q = LatticePoint(3, 5), LatticePoint(4, 9)
CURVE = RationalPoly((Fraction(0), Fraction(5, 21), Fraction(10, 21)))
OTHER_CURVE = RationalPoly((Fraction(0), Fraction(1, 2)))
BUILT = Construction(P, 7, (1, 2), CURVE, True)

# (type, fields, different fields)
RECORDS = [
    (LatticePoint, (3, 5), (5, 3)),
    (PolyFamily, ((1, 1),), ((0, 1),)),
    (RationalPoly, (CURVE.coeffs,), (OTHER_CURVE.coeffs,)),
    (VisibilityVerdict, (False, 2, 3), (True, None, None)),
    (ColumnProfile, (3, ((1, 6), (2, 2)), (2,), (2,)), (3, ((1, 6), (2, 3)), (3,), (3,))),
    (Construction, (P, 7, (1, 2), CURVE, True), (P, 7, (1, 2), CURVE, False)),
    (MultiPrimeConstruction, (P, (7,), (BUILT,), CURVE, True, ()), (P, (7,), (BUILT,), CURVE, True, (1,))),
    (CurveBundle, ((3, 5), 7, (CURVE,), True), ((3, 5), 7, (OTHER_CURVE,), True)),
    (ValuationProfile, (7, ((1, -1), (2, -1))), (7, ((1, -1),))),
    (CensusResult, (10, 63, 0.63), (10, 64, 0.64)),
    (ConstantResult, (0.6, 100, 0.02), (0.6, 101, 0.02)),
    (Region, (1, 2, 1, 2), (1, 2, 1, 3)),
    (BlockHit, (P, 2), (Q, 2)),
    (RadiusResult, (P, 1), (P, -1)),
]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_compares_and_hashes_by_its_fields(cls, fields, other):
    rec = cls(*fields)
    assert tuple(getattr(rec, name) for name in cls._fields) == fields
    assert rec == cls(*fields) and hash(rec) == hash(cls(*fields)) == hash(fields)
    assert rec != cls(*other)
    assert len({rec, cls(*fields), cls(*other)}) == 2


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_cannot_be_set(cls, fields, other):
    """Neither a field nor any new attribute can be assigned."""
    rec = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(cls(*other), name))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == cls(*fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LatticePoint(0, 1),
        lambda: LatticePoint(1, 0),
        lambda: PolyFamily(()),
        lambda: PolyFamily((2, 2)),
        lambda: Region(2, 1, 1, 1),
        lambda: Region(0, 1, 1, 1),
    ],
)
def test_validated_records_refuse_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_src_neither_imports_dataclasses_nor_skips_validation():
    """_make and _replace build a record without __new__, so without its checks."""
    for path in Path(polyvis.__file__).resolve().parent.glob("*.py"):
        text = path.read_text()
        assert "dataclass" not in text, path.name
        assert "._make(" not in text and "._replace(" not in text, path.name
