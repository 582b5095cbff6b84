"""Counting visible points and the density constants attached to a family.

Counts are exact integers; densities are formed by one float division at
the end. Column a is invisible exactly at multiples of its minimal moduli,
so every count, the per-N prefix rows too, is the paper's exact double
sum over them, from one term list per column (`_ie_terms`). Counts over
[1,N]^2 read their columns from a ProfileCache(family, N') with N' >= N,
which callers may share: a modulus above N marks no b <= N.

The density constants are Euler products over primes p <= B of
(1 - rho_P(p)/p^2). `rho` counts the roots of P over F_p for a whole list
of primes at once (`arith.frobenius_gcds`), rather than enumerating residues.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .arith import factorize, frobenius_gcds, primes_up_to
from .errors import ResourceLimitError
from .polyfam import LatticePoint, PolyFamily
from .visibility import ProfileCache, is_visible_direct, modulus

PRIME_BOUND_CAP = 1_000_000  # the prime sieve takes B bytes; LATTICE_SCOPE_CAP leaves this alone
_SUBSET_COLUMN_CAP = 26  # 2^(a-1) terms per column beyond this is hopeless
_ORACLE_N_CAP = 100  # brute_count does O(N^3) Fraction work; N = 100 takes seconds


CensusResult = namedtuple("CensusResult", "n visible_count density_estimate")

# A partial Euler product with a crude-but-rigorous tail estimate.
ConstantResult = namedtuple("ConstantResult", "value prime_bound tail_bound")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")


def check_prime_bound(prime_bound: int) -> None:
    """Raise unless 2 <= prime_bound <= PRIME_BOUND_CAP, before any sieve is allocated."""
    if prime_bound < 2:
        raise ValueError(f"prime_bound must be >= 2, got {prime_bound}")
    if prime_bound > PRIME_BOUND_CAP:
        raise ResourceLimitError(f"prime bound {prime_bound} exceeds the cap {PRIME_BOUND_CAP}")


def _column_cache(family: PolyFamily, n: int, cache: ProfileCache | None) -> ProfileCache:
    """cache, refused unless it holds family's columns up to n, or a new ProfileCache(family, n)."""
    _check_n(n)
    if cache is None:
        return ProfileCache(family, n)
    if cache.family != family or cache.bound < n:
        raise ValueError(f"a cache of {cache.family.spec} up to {cache.bound} cannot count {family.spec} up to {n}")
    return cache


def density_rows(family: PolyFamily, n: int, cache: ProfileCache | None = None) -> list[tuple[int, int, float]]:
    """(N', visible_count, density) for every prefix square N' = 1..n.

    Row N' adds column N' over b <= N', its double sum at N', and row N'
    over the earlier columns: (a, N') is visible iff column a's terms with
    lcm l | N' have signs summing to 1, so the row sums weight[l], the signs
    of the earlier columns' terms with lcm l, over the divisors l of N'.
    cache, when given, is a ProfileCache of family up to n or past it.
    """
    cache = _column_cache(family, n, cache)
    divisors = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for k in range(d, n + 1, d):
            divisors[k].append(d)
    weight, out, total = [0] * (n + 1), [], 0
    for a in range(1, n + 1):
        terms = _ie_terms(cache.minimal_moduli(a), n)
        total += sum(s * (a // l) for l, s in terms) + sum(weight[l] for l in divisors[a])
        out.append((a, total, total / (a * a)))
        for l, s in terms:
            weight[l] += s
    return out


def empirical_density(family: PolyFamily, n: int) -> CensusResult:
    """Exact visible count over [1,N]^2 and its density, by exact_count_ie."""
    count = exact_count_ie(family, n)
    return CensusResult(n, count, count / (n * n))


def brute_count(family: PolyFamily, n: int) -> int:
    """Pointwise ground truth straight from the definition. Slow on purpose."""
    _check_n(n)
    if n > _ORACLE_N_CAP:
        raise ResourceLimitError(f"the oracle count is O(N^3) work; N={n} exceeds {_ORACLE_N_CAP}")
    return sum(
        is_visible_direct(family, LatticePoint(a, b))
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    )


def subset_count(family: PolyFamily, n: int) -> int:
    """exact_count_ie's sum run literally over all 2^(a-1) subsets of every m_{a,t}: a cross-check."""
    _check_n(n)
    if n > _SUBSET_COLUMN_CAP:
        raise ResourceLimitError(f"subset-enumeration is 2^(a-1) work per column; N={n} exceeds {_SUBSET_COLUMN_CAP}")
    return sum(_ie_subsets([modulus(family, a, t) for t in range(1, a)], n) for a in range(1, n + 1))


def _ie_subsets(mods: list[int], n: int) -> int:
    """Literal inclusion-exclusion over all 2^k subsets; cross-check oracle."""

    def rec(i: int, l: int, sign: int) -> int:
        if i == len(mods):
            return sign * (n // l)
        return rec(i + 1, l, sign) + rec(i + 1, lcm(l, mods[i]), -sign)

    return rec(0, 1, 1)


def _ie_terms(mods, n: int) -> list[tuple[int, int]]:
    """(lcm J, (-1)^|J|) for every subset J of mods with lcm J <= n, the empty set first.
    A subset whose lcm passes n, and each superset of it, adds floor(n / lcm) = 0."""
    terms = [(1, 1)]
    for m in mods:
        terms += [(l2, -s) for l, s in terms if (l2 := lcm(l, m)) <= n]
    return terms


def _ie_pruned(mods, n: int) -> int:
    """The inclusion-exclusion sum over mods at n: the b <= n that no modulus divides."""
    return sum(s * (n // l) for l, s in _ie_terms(mods, n))


def exact_count_ie(family: PolyFamily, n: int, cache: ProfileCache | None = None) -> int:
    """Visible-pair count over [1,N]^2 by per-column inclusion-exclusion.

    Column a contributes sum over subsets J of its moduli of
    (-1)^|J| * floor(N / lcm J), taken over the divisibility-minimal moduli
    and only the subsets whose lcm is at most N; subset_count runs the same
    sum over every subset. cache is as in density_rows.
    """
    cache = _column_cache(family, n, cache)
    return sum(_ie_pruned(cache.minimal_moduli(a), n) for a in range(1, n + 1))


def rho(family: PolyFamily, primes: list[int]) -> list[int]:
    """rho_P(p), the number of residues x mod p with P(x) = 0 mod p, for each prime p in primes.

    P = x^(j+1) * Q0 with Q0(0) != 0, so rho_P(p) = deg gcd(Q0, x^p - x) + [Q0(0) != 0 mod p].
    `arith.frobenius_gcds` finds those gcds with one exponentiation and one Euclid per
    batch of primes; a Q0 of degree <= 1, as for x^3, needs neither.
    """
    if any(p < 2 for p in primes):
        raise ValueError(f"need primes >= 2, got {min(primes)}")
    q = family.coeffs
    q0 = q[next(i for i, c in enumerate(q) if c) :]
    return [len(g) - 1 + (q0[0] % p != 0) for p, g in zip(primes, frobenius_gcds(q0, primes))]


def constant_cp(family: PolyFamily, prime_bound: int) -> ConstantResult:
    """Truncation of prod_p (1 - rho_P(p)/p^2) at primes <= prime_bound.

    One `rho` call over all the primes, multiplied in ascending p. prime_bound
    may not exceed PRIME_BOUND_CAP.
    Tail: |log shift from primes > B| <= deg(P) * sum_{m>B} 1/m^2 <= deg/(B-1).
    """
    check_prime_bound(prime_bound)
    primes = primes_up_to(prime_bound)
    value = 1.0
    for p, r in zip(primes, rho(family, primes)):
        value *= 1.0 - r / (p * p)
    return ConstantResult(value, prime_bound, family.degree / (prime_bound - 1))


def constant_cpq(p: int, q: int, prime_bound: int) -> ConstantResult:
    """(1 - 1/p^2)(1 - 1/q^2) * prod_{5 <= r <= B} (1 - 2/r^2) for primes p, q."""
    if prime_bound < 5:
        raise ValueError(f"prime_bound must be >= 5, got {prime_bound}")
    check_prime_bound(prime_bound)
    value = (1.0 - 1.0 / (p * p)) * (1.0 - 1.0 / (q * q))
    for r in primes_up_to(prime_bound):
        if r >= 5:
            value *= 1.0 - 2.0 / (r * r)
    return ConstantResult(value, prime_bound, 2.0 / (prime_bound - 1))


def constant_cpq_star(p: int, q: int, prime_bound: int) -> ConstantResult:
    """prod_{r | pq} (1 - 1/r^2) * prod_{r not | pq, r <= B} (1 - 2/r^2), gcd(p,q) = 1.

    The r | pq factors are taken exactly (from the factorization of pq, not
    the sieve), so they appear even when they exceed prime_bound.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    check_prime_bound(prime_bound)
    divisors = [r for r, _ in factorize(p * q)]
    value = 1.0
    for r in divisors:
        value *= 1.0 - 1.0 / (r * r)
    for r in primes_up_to(prime_bound):
        if r not in divisors:
            value *= 1.0 - 2.0 / (r * r)
    return ConstantResult(value, prime_bound, 2.0 / (prime_bound - 1))


def coprimality_count(family: PolyFamily, n: int, cache: ProfileCache | None = None) -> int:
    """Pairs in [1,N]^2 with b coprime to L_P(a), the lcm of column a's moduli.

    A subset of the visible pairs: the lcm certificate is sufficient for
    visibility, not necessary. Primes above N mark no b <= N, so column a
    takes the pruned sum of exact_count_ie over the primes <= N of L_P(a)
    (`ProfileCache.prime_set`). cache is as in density_rows.
    """
    cache = _column_cache(family, n, cache)
    return sum(_ie_pruned(cache.prime_set(a), n) for a in range(1, n + 1))
