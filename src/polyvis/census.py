"""Counting visible points and the density constants attached to a family.

Counts are exact integers; densities are formed by one float division at
the end. Column a is invisible exactly at multiples of its minimal moduli,
so every count, the per-N prefix rows too, is the paper's exact double
sum over them, from one term list per column (`_ie_terms`). Counts over
[1,N]^2 read their columns from a ProfileCache(family, N') with N' >= N,
which callers may share: a modulus above N marks no b <= N. Every sweep hands
its columns 1..N to `ProfileCache.sieve_primes` (`_column_cache`), as the grid
commands do; a second sweep of a shared cache finds them sieved.

The density constants are Euler products over primes p <= B of
(1 - rho_P(p)/p^2). `rho` counts the roots of P over F_p for a whole list
of primes at once, from a `roots.RootTable` (in a density run, its column
cache's) or, for a Q0 of degree 2 or 3, mostly from its discriminant,
rather than enumerating residues.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .arith import factorize, primes_up_to
from .columns import ProfileCache
from .errors import ResourceLimitError
from .polyfam import LatticePoint, PolyFamily, parse_family
from .roots import RootTable

PRIME_BOUND_CAP = 1_000_000  # the prime sieve takes B bytes; LATTICE_SCOPE_CAP leaves this alone
_SUBSET_COLUMN_CAP = 26  # 2^(a-1) terms per column beyond this is hopeless
_ORACLE_N_CAP = 100  # brute_count does O(N^3) Fraction work; N = 100 takes seconds


CensusResult = namedtuple("CensusResult", "n visible_count density_estimate")

# A partial Euler product with a crude-but-rigorous tail estimate.
ConstantResult = namedtuple("ConstantResult", "value prime_bound tail_bound")


def _check_n(n: int, limit: int | None = None) -> None:
    """Raise unless N >= 1 and, when the command line gives its N cap limit, N <= limit."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if limit is not None and n > limit:
        raise ResourceLimitError(f"N={n} exceeds the configured cap {limit}")


def check_prime_bound(prime_bound: int) -> None:
    """Raise unless 2 <= prime_bound <= PRIME_BOUND_CAP, before any sieve is allocated."""
    if prime_bound < 2:
        raise ValueError(f"prime_bound must be >= 2, got {prime_bound}")
    if prime_bound > PRIME_BOUND_CAP:
        raise ResourceLimitError(f"prime bound {prime_bound} exceeds the cap {PRIME_BOUND_CAP}")


def _column_cache(family: PolyFamily, n: int, cache: ProfileCache | None) -> ProfileCache:
    """cache (refused unless it holds family's columns up to n) or a new one, its columns
    1..n handed to `ProfileCache.sieve_primes`, which decides how they get their primes."""
    _check_n(n)
    if cache is None:
        cache = ProfileCache(family, n)
    elif cache.family != family or cache.bound < n:
        raise ValueError(f"a cache of {cache.family.spec} up to {cache.bound} cannot count {family.spec} up to {n}")
    cache.sieve_primes(1, n)
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
    from .visibility import is_visible_direct

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
    from .visibility import modulus

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


def exact_count_ie(family: PolyFamily, n: int, cache: ProfileCache | None = None) -> int:
    """Visible-pair count over [1,N]^2 by per-column inclusion-exclusion.

    Column a contributes sum over subsets J of its moduli of
    (-1)^|J| * floor(N / lcm J), taken over the divisibility-minimal moduli
    and only the subsets whose lcm is at most N; subset_count runs the same
    sum over every subset. cache is as in density_rows.
    """
    cache = _column_cache(family, n, cache)
    return sum(s * (n // l) for a in range(1, n + 1) for l, s in _ie_terms(cache.minimal_moduli(a), n))


def rho(family: PolyFamily, primes: list[int], table: RootTable | None = None) -> list[int]:
    """rho_P(p), the number of residues x mod p with P(x) = 0 mod p, for each prime p in primes.

    P = x^(j+1) * Q0 with Q0(0) != 0. P's roots mod p are 0 and Q0's, which share the root 0 when
    p | Q0(0): rho_P(p) = rho_Q0(p) + [Q0(0) != 0 mod p]. A Q0 = c0 + c1 x, as for x^3 or
    x^2 + x, has rho_Q0(p) = [c1 != 0 mod p]. A Q0 of degree d = 2 or 3 at an odd p dividing
    neither its lead nor its discriminant D is squarefree mod p, with r irreducible factors, and
    (D/p) = (-1)^(d - r) (Stickelberger; Swan, Pacific J. Math. 12, 1962): so rho_Q0(p) =
    1 + (D/p) when d = 2, and 1 when d = 3 and (D/p) = -1. Every other p reads
    deg gcd(Q0, x^p - x) from table, a `RootTable` of P / x (a new one when None), filled with
    one exponentiation and one Euclid per batch of the primes it lacks.
    """
    if any(p < 2 for p in primes):
        raise ValueError(f"need primes >= 2, got {min(primes)}")
    if table is None:
        table = RootTable(family.coeffs)
    elif table.coeffs != family.coeffs:
        raise ValueError(f"a root table of {table.coeffs} cannot serve {family.coeffs}")
    q0 = table.q0
    if len(q0) <= 2:
        c1 = q0[-1] if len(q0) == 2 else 0
        return [(c1 % p != 0) + (q0[0] % p != 0) for p in primes]
    read = {}  # rho_Q0(p) where the discriminant fixes it
    if len(q0) <= 4:
        d, c, b, a = (*q0, 0)[:4]  # D of a x^3 + b x^2 + c x + d; at a = 0, b^2 (c^2 - 4bd): same symbol
        disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
        for p in primes:
            if p > 2 and q0[-1] * disc % p:
                square = pow(disc, (p - 1) // 2, p) == 1  # Euler's criterion
                if len(q0) == 3:
                    read[p] = 2 * square
                elif not square:
                    read[p] = 1
    rest = iter(table.gcds([p for p in primes if p not in read]))  # in the order of primes
    return [(read[p] if p in read else len(next(rest)) - 1) + (q0[0] % p != 0) for p in primes]


def constant_cp(family: PolyFamily, prime_bound: int, table: RootTable | None = None) -> ConstantResult:
    """Truncation of prod_p (1 - rho_P(p)/p^2) at primes <= prime_bound.

    One `rho` call over all the primes, multiplied in ascending p; table is as in rho.
    prime_bound may not exceed PRIME_BOUND_CAP.
    Tail: |log shift from primes > B| <= deg(P) * sum_{m>B} 1/m^2 <= deg/(B-1).
    """
    check_prime_bound(prime_bound)
    primes = primes_up_to(prime_bound)
    value = 1.0
    for p, r in zip(primes, rho(family, primes, table)):
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
    takes the Moebius sum over the products <= N of the distinct primes <= N
    of L_P(a) (`ProfileCache.prime_set`, off the columns sieved as in every sweep):
    the pruned sum of exact_count_ie, whose lcms of distinct primes are their
    products. cache is as in density_rows.
    """
    cache = _column_cache(family, n, cache)
    total = 0
    for a in range(1, n + 1):
        terms = [(1, 1)]
        for p in cache.prime_set(a):
            terms += [(l * p, -s) for l, s in terms if l * p <= n]
        total += sum(s * (n // l) for l, s in terms)
    return total


def cmd_density(args):
    from .cli import DEFAULT_N_CAP, scope_cap

    fam = parse_family(args.poly)
    n_cap = scope_cap(DEFAULT_N_CAP)  # a bad LATTICE_SCOPE_CAP is reported before a bad prime bound
    check_prime_bound(args.prime_bound)
    _check_n(args.n, n_cap)
    cache = ProfileCache(fam, args.n)
    if args.out is not None:
        open(args.out, "a").close()  # an unwritable path fails before the census
    constant = constant_cp(fam, args.prime_bound, cache.roots)  # roots <= B it reads; the sweep adds <= N
    if args.out is not None:
        rows = density_rows(fam, args.n, cache)
        with open(args.out, "wb") as fh:
            fh.write(b"N,visible_count,density\r\n" + b"".join(b"%d,%d,%r\r\n" % row for row in rows))
        visible_count = rows[-1][1]
    else:
        visible_count = exact_count_ie(fam, args.n, cache=cache)
    payload = {
        "n": args.n,
        "visible_count": visible_count,
        "density": visible_count / (args.n * args.n),
        "coprimality_count": coprimality_count(fam, args.n, cache),
        "c_p_constant": constant.value,
        "tail_bound": constant.tail_bound,
    }
    return fam.spec, payload, 0


def cmd_count(args):
    from .cli import DEFAULT_N_CAP, scope_cap

    fam = parse_family(args.poly)
    _check_n(args.n, scope_cap(DEFAULT_N_CAP))
    counter = {"oracle": brute_count, "pruned": exact_count_ie, "subsets": subset_count}
    return fam.spec, {"n": args.n, "count": counter[args.mode](fam, args.n), "mode": args.mode}, 0
