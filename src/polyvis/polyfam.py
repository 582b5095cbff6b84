"""Integer polynomial curve families and the lattice points they pass through.

A family is an integer polynomial P(x) = a_n x^n + ... + a_1 x with no
constant term, nonnegative coefficients, positive leading coefficient, and
content (gcd of all coefficients) equal to 1. Coefficients are stored
little-endian: coeffs[i] multiplies x**(i+1).

The text form used by the CLI and by `parse_family` lists coefficients in
descending degree order, comma-separated: "2,5" means 2x^2 + 5x.
"""

from __future__ import annotations

import math
from collections import namedtuple

DEGREE_CAP = 16


class LatticePoint(namedtuple("LatticePoint", "a b")):
    """A point (a, b) in the positive integer quadrant."""

    __slots__ = ()  # fields checked in __new__, which _make and _replace skip: never call them

    def __new__(cls, a: int, b: int):
        if a < 1 or b < 1:
            raise ValueError(f"lattice point must have a, b >= 1, got ({a}, {b})")
        return super().__new__(cls, a, b)


class PolyFamily(namedtuple("PolyFamily", "coeffs")):
    """Integer polynomial family y = q * P(x); coeffs[i] is the x**(i+1) coefficient."""

    __slots__ = ()  # fields checked in __new__, which _make and _replace skip: never call them

    def __new__(cls, coeffs: tuple[int, ...]):
        self = super().__new__(cls, coeffs)
        if not coeffs:
            raise ValueError("family needs at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"family {self.spec!r} has a negative coefficient")
        if coeffs[-1] <= 0:
            raise ValueError(f"family {self.spec!r} needs a positive leading coefficient")
        if math.gcd(*coeffs) != 1:
            raise ValueError(f"coefficient content must be 1, got {math.gcd(*coeffs)}")
        if len(coeffs) > DEGREE_CAP:
            raise ValueError(f"family degree {len(coeffs)} exceeds cap {DEGREE_CAP}")
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def eval(self, x: int) -> int:
        """P(x) by Horner; exact."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x

    @property
    def spec(self) -> str:
        """Canonical text form: descending-degree comma list, e.g. '2,5'."""
        return ",".join(str(c) for c in reversed(self.coeffs))

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            pw = "x" if i == 0 else f"x^{i + 1}"
            terms.append(pw if c == 1 else f"{c}{pw}")
        return " + ".join(terms)


def parse_family(text: str, *, normalize: bool = True) -> PolyFamily:
    """Parse a descending-degree coefficient list like "1,0,3" (= x^3 + 3x).

    A common factor is divided out ("4,4" becomes x^2 + x), as the CLI
    does; PolyFamily makes every other check. normalize has no effect: it
    is accepted because bench/checks.py still passes normalize=True.
    """
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty family spec")
    try:
        desc = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"family spec {text!r} is not a comma list of integers") from None
    g = math.gcd(*desc)
    if g > 1:
        desc = [c // g for c in desc]
    return PolyFamily(tuple(reversed(desc)))

