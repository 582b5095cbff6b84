"""Visibility of lattice points along polynomial curve families.

A point (a, b) is visible along y = q*P(x) when the curve through it meets
no earlier lattice point. This package decides that predicate exactly,
counts and estimates densities of visible points, constructs curves that
make a chosen point visible, and maps invisible blocks and visibility
radii over regions.

Every name below loads its module on first use (PEP 562), so importing the
package, or one command's modules, costs no more than they need.
"""

import importlib

__version__ = "0.1.0"

_LAZY = {
    name: module
    for module, names in (
        ("arith", "base_digits factorize is_prime lcm_many next_prime_above primes_up_to valuation"),
        ("construct", "Construction CurveBundle MultiPrimeConstruction RationalPoly ValuationProfile "
         "construct_curve_bundle construct_multi_prime construct_visible valuation_profile"),
        ("errors", "ResourceLimitError"),
        ("polyfam", "DEGREE_CAP LatticePoint PolyFamily parse_family"),
        ("visibility", "VisibilityVerdict gcd_p is_visible is_visible_direct lcm_criterion lcm_p modulus"),
        ("columns", "ColumnProfile ProfileCache column_profile"),
        ("census", "CensusResult ConstantResult brute_count constant_cp constant_cpq constant_cpq_star "
         "coprimality_count density_rows empirical_density exact_count_ie rho subset_count"),
        ("geometry", "BLOCK_SURVEY BlockHit RadiusResult Region blocks_to_csv classify_region "
         "find_all_blocks find_block find_point_with_radius radius_to_visible region_to_csv "
         "scan_block_range survey_family"),
    )
    for name in names.split()
}
__all__ = list(_LAZY)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
