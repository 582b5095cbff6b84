"""Visibility of lattice points along polynomial curve families.

A point (a, b) is visible along y = q*P(x) when the curve through it meets
no earlier lattice point. This package decides that predicate exactly,
counts and estimates densities of visible points, constructs curves that
make a chosen point visible, and maps invisible blocks and visibility
radii over regions.

The census and geometry names load on first use (PEP 562), to keep start-up
cheap.
"""

import importlib

from .arith import (
    base_digits,
    factorize,
    is_prime,
    lcm_many,
    next_prime_above,
    primes_up_to,
    valuation,
)
from .construct import (
    Construction,
    CurveBundle,
    MultiPrimeConstruction,
    ValuationProfile,
    construct_curve_bundle,
    construct_multi_prime,
    construct_visible,
    valuation_profile,
)
from .errors import ResourceLimitError
from .polyfam import DEGREE_CAP, LatticePoint, PolyFamily, RationalPoly, parse_family
from .visibility import (
    ColumnProfile,
    ProfileCache,
    VisibilityVerdict,
    column_profile,
    gcd_p,
    is_visible,
    is_visible_direct,
    lcm_criterion,
    modulus,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(
    (
        "PRUNED_MODE", "SUBSET_MODE", "CensusResult", "ConstantResult", "brute_count",
        "constant_cp", "constant_cpq", "constant_cpq_star", "coprimality_count",
        "density_rows", "empirical_density", "exact_count_ie", "rho",
    ),
    "census",
) | dict.fromkeys(
    (
        "BLOCK_SURVEY", "BlockHit", "RadiusResult", "Region", "blocks_to_csv",
        "classify_region", "find_all_blocks", "find_block", "find_point_with_radius",
        "radius_to_visible", "region_to_csv", "scan_block_range", "survey_family",
    ),
    "geometry",
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
