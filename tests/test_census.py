import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyvis import (
    DEGREE_CAP,
    PolyFamily,
    ResourceLimitError,
    brute_count,
    constant_cp,
    constant_cpq,
    constant_cpq_star,
    coprimality_count,
    density_rows,
    empirical_density,
    exact_count_ie,
    factorize,
    modulus,
    next_prime_above,
    parse_family,
    rho,
    subset_count,
)
from polyvis import arith, census, geometry, visibility
from polyvis.arith import primes_up_to

X = parse_family("1")
XSQ = parse_family("1,0")
XSQ_X = parse_family("1,1")
TWOX2_3X = parse_family("2,3")

# (family, counts at N = 1, 5, 10, 12, 15, 20)
COUNT_ROWS = [
    (X, (1, 19, 63, 91, 143, 255)),
    (XSQ_X, (1, 19, 75, 109, 171, 310)),
    (TWOX2_3X, (1, 25, 98, 141, 217, 386)),
]
ROW_NS = (1, 5, 10, 12, 15, 20)


def _modulus_scan_rows(family, n):
    """Oracle: the visible count of every prefix square [1, N']^2, N' = 1..n, from
    modulus() over every t < a and a sieve of the b <= n each modulus divides.
    It reads no ProfileCache, so it shares no moduli search with the counts."""
    visible = [None]
    for a in range(1, n + 1):
        blocked = bytearray(n + 1)
        for m in {modulus(family, a, t) for t in range(1, a)}:
            blocked[m::m] = b"\1" * len(range(m, n + 1, m))
        visible.append([not x for x in blocked])
    rows, total = [], 0
    for k in range(1, n + 1):
        total += sum(visible[k][1 : k + 1]) + sum(visible[a][k] for a in range(1, k))
        rows.append(total)
    return rows


def test_counting_methods_agree(family):
    sieve = _modulus_scan_rows(family, 12)
    for n in (1, 2, 3, 5, 8, 12):
        assert subset_count(family, n) == sieve[n - 1]
        assert exact_count_ie(family, n) == sieve[n - 1]
        assert brute_count(family, n) == sieve[n - 1]


def test_counting_methods_agree_n20():
    for fam in (X, XSQ_X):
        sieve = _modulus_scan_rows(fam, 20)[-1]
        assert subset_count(fam, 20) == sieve
        assert exact_count_ie(fam, 20) == sieve


def test_pruned_matches_sieve_locally(family):
    """exact_count_ie and every density_rows row equal the modulus-scan census, at
    N = 60 and at N = 300, where P(a) has more and larger prime powers."""
    for n in (60, 300):
        sieve = _modulus_scan_rows(family, n)
        assert exact_count_ie(family, n) == sieve[-1]
        assert [count for _, count, _ in density_rows(family, n)] == sieve


def test_known_count_rows():
    for fam, counts in COUNT_ROWS:
        got = tuple(exact_count_ie(fam, n) for n in ROW_NS)
        assert got == counts, f"{fam.spec}: {got}"


def test_empirical_density_values():
    res = empirical_density(X, 1000)
    assert (res.visible_count, res.n) == (608383, 1000)
    assert res.density_estimate == pytest.approx(0.608383)
    assert empirical_density(XSQ, 1000).visible_count == 832000
    tiny = empirical_density(X, 1)
    assert (tiny.n, tiny.visible_count, tiny.density_estimate) == (1, 1, 1.0)


def test_density_rows_match_empirical(family):
    rows = density_rows(family, 30)
    assert [r[0] for r in rows] == list(range(1, 31))
    for n, count, dens in rows:
        assert count == empirical_density(family, n).visible_count
        assert dens == count / (n * n)


def test_empirical_density_is_last_density_row_and_brute_count(family):
    for n in range(1, 21):
        res = empirical_density(family, n)
        assert (res.n, res.visible_count, res.density_estimate) == density_rows(family, n)[-1]
        assert res.visible_count == brute_count(family, n)


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("spec", ["1", "1,1"])
def test_density_rows_at_counter_width_edges(spec, n):
    """N = 255, 256 and 257, where a one-byte count per row would overflow;
    P = x has the most invisible points per row. Every row equals the double
    sum at its own N', counted from the same shared cache."""
    family = parse_family(spec)
    cache = visibility.ProfileCache(family, n)
    rows = density_rows(family, n, cache)
    assert [count for _, count, _ in rows] == [exact_count_ie(family, m, cache=cache) for m in range(1, n + 1)]


def _sieve_prefix_counts(family, n):
    """Visible points of [1, N']^2 for N' = 1..n, from the column sieve of
    `geometry.classify_region`: an oracle independent of the double sum."""
    grid = geometry.classify_region(family, geometry.Region(1, n, 1, n))
    counts, total = [], 0
    for k in range(1, n + 1):
        total += grid[k - 1][:k].count(1) + sum(col[k - 1] for col in grid[: k - 1])
        counts.append(total)
    return counts


@st.composite
def _low_degree_families(draw):
    lead = draw(st.integers(1, 3))
    rest = draw(st.lists(st.integers(0, 3), max_size=3))
    return parse_family(",".join(map(str, [lead, *rest])))


@settings(max_examples=60, deadline=None)
@given(_low_degree_families(), st.integers(1, 60))
@example(X, 60)
@example(parse_family("1,0,0"), 60)
def test_density_rows_match_the_column_sieve(family, n):
    """Every prefix row counts what the column sieve marks visible in its square."""
    assert [count for _, count, _ in density_rows(family, n)] == _sieve_prefix_counts(family, n)


def test_density_rows_match_the_column_sieve_x2_plus_x_at_400():
    rows = density_rows(XSQ_X, 400)
    assert [count for _, count, _ in rows] == _sieve_prefix_counts(XSQ_X, 400)
    assert [dens for _, _, dens in rows] == [c / (n * n) for n, c, _ in rows]


# (name, the count as f(family, n, cache)) for every count that takes a ProfileCache
CACHED_COUNTS = [
    ("exact_count_ie", lambda fam, n, cache: exact_count_ie(fam, n, cache=cache)),
    ("coprimality_count", coprimality_count),
    ("density_rows", lambda fam, n, cache: density_rows(fam, n, cache)[-1][1]),
]


@pytest.mark.parametrize("count", [c for _, c in CACHED_COUNTS], ids=[name for name, _ in CACHED_COUNTS])
@pytest.mark.parametrize(
    "cache_family, bound",
    [(XSQ_X, 10), (XSQ_X, 99), (parse_family("1,0,0"), 100), (X, 100), (parse_family("1,1,0"), 500)],
    ids=["short", "one-short", "x^3", "x", "x^3+x^2"],
)
def test_counts_refuse_a_cache_of_another_family_or_a_shorter_bound(count, cache_family, bound):
    """x^2 + x at N = 100 from a cache of x^3, or one up to 10, counted
    9301 and 9336 visible points instead of 8779 before this check."""
    with pytest.raises(ValueError, match="cannot count 1,1 up to 100"):
        count(XSQ_X, 100, visibility.ProfileCache(cache_family, bound))


@pytest.mark.parametrize("count", [c for _, c in CACHED_COUNTS], ids=[name for name, _ in CACHED_COUNTS])
@pytest.mark.parametrize("spec", ["1", "1,1", "1,0,2,3"])
def test_counts_from_a_larger_cache_are_unchanged(count, spec):
    """A cache past N holds moduli above N, which mark no b <= N."""
    family = parse_family(spec)
    want = count(family, 100, None)
    assert count(family, 100, visibility.ProfileCache(family, 100)) == want
    assert count(family, 100, visibility.ProfileCache(family, 1000)) == want


def test_cached_counts_of_x2_plus_x_at_100():
    assert exact_count_ie(XSQ_X, 100) == 8779
    assert coprimality_count(XSQ_X, 100) == 4847


@pytest.mark.parametrize(
    "mods, n, terms",
    [
        ([], 5, [(1, 1)]),
        ([2, 3], 5, [(1, 1), (2, -1), (3, -1)]),
        ([2, 3], 6, [(1, 1), (2, -1), (3, -1), (6, 1)]),
        ([4, 6, 9], 36, [(1, 1), (4, -1), (6, -1), (12, 1), (9, -1), (36, 1), (18, 1), (36, -1)]),
        ([7], 6, [(1, 1)]),
    ],
)
def test_ie_terms(mods, n, terms):
    """One term per subset with lcm <= n, the empty set first, each sign (-1)^|J|."""
    assert census._ie_terms(mods, n) == terms
    assert census._ie_pruned(mods, n) == census._ie_subsets(mods, n) == sum(
        all(b % m for m in mods) for b in range(1, n + 1)
    )


def test_density_rows_final_row():
    rows = density_rows(XSQ_X, 200)
    res = empirical_density(XSQ_X, 200)
    assert rows[-1] == (200, res.visible_count, res.density_estimate)


def test_density_trend_along_x2_plus_x():
    c100 = empirical_density(XSQ_X, 100)
    c300 = empirical_density(XSQ_X, 300)
    c1000 = empirical_density(XSQ_X, 1000)
    assert (c100.visible_count, c300.visible_count, c1000.visible_count) == (
        8779,
        83184,
        959290,
    )
    assert c100.density_estimate < c300.density_estimate < c1000.density_estimate
    assert c1000.density_estimate >= 0.95


def test_coprimality_sandwich(family):
    n = 100
    visible = empirical_density(family, n).visible_count
    lower = coprimality_count(family, n)
    assert lower <= visible <= n * n


def test_coprimality_values():
    # For y = qx the coprimality condition *is* visibility.
    assert coprimality_count(X, 1000) == 608383
    assert coprimality_count(XSQ_X, 500) == 121232
    assert empirical_density(XSQ_X, 500).visible_count == 235476


def test_coprimality_count_degree_16_factors_only_n_smooth_parts(monkeypatch):
    """At degree 16, P(a) has up to 41 digits at N = 300. The count must equal
    the lcm certificate taken literally from modulus(), and every number
    factorized must divide the primorial of N, never P(a) itself."""
    family = parse_family("7,1,2,3,4,5,6,7,8,9,10,11,12,13,14,3")
    n = 300
    expected = 0
    for a in range(1, n + 1):
        lcm_all = math.lcm(*(modulus(family, a, t) for t in range(1, a)))
        expected += sum(math.gcd(lcm_all, b) == 1 for b in range(1, n + 1))
    factorized = []

    def spy(m):
        factorized.append(m)
        return factorize(m)

    monkeypatch.setattr(visibility, "factorize", spy)
    assert coprimality_count(family, n) == expected
    primorial = math.prod(primes_up_to(n))
    assert factorized and all(primorial % m == 0 for m in factorized)


def test_rho_values():
    assert rho(X, [5]) == [1]
    assert rho(XSQ_X, [2, 7]) == [2, 2]
    assert rho(TWOX2_3X, [2]) == [1]
    assert rho(X, []) == []
    with pytest.raises(ValueError):
        rho(X, [1])
    with pytest.raises(ValueError):
        rho(X, [2, 3, 1, 5])


def test_rho_bounds(family):
    for r in rho(family, primes_up_to(100)):
        assert 1 <= r <= family.degree  # x = 0 is always a root


def _rho_by_enumeration(family, p):
    return sum(1 for x in range(p) if family.eval(x) % p == 0)


def test_rho_matches_enumeration(family):
    """rho over one list of primes, batched, agrees with the enumeration oracle at each."""
    primes = [*primes_up_to(200), 1031, 1033, 2003]
    assert rho(family, primes) == [_rho_by_enumeration(family, p) for p in primes]


@pytest.mark.parametrize("spec", ["10000000000000000000,1", f"{2**65},3,1"])
def test_rho_big_coefficients_match_enumeration(spec):
    """Coefficients past int64 are reduced mod p before the roots are counted."""
    family = parse_family(spec)
    primes = [*primes_up_to(300), 1031]
    assert rho(family, primes) == [_rho_by_enumeration(family, p) for p in primes]


@pytest.mark.parametrize(
    "spec",
    [
        "1,0,0", "1,0,0,0", "1,0,2,0",  # P = x^(j+1) * Q0: only Q0's roots are counted
        "6,0,0,35", "210,1,1,1", "30,7,0,0,11",  # leading coefficients with small prime factors
        f"{2**65},3,1",
        "7,1,2,3,4,5,6,7,8,9,10,11,12,13,14,3",  # degree 16
    ],
)
def test_rho_over_every_prime_below_3000_matches_enumeration(spec):
    """One rho call over the primes <= 3000 crosses many batch boundaries, and the
    primes that divide the leading coefficient each leave their batch."""
    family = parse_family(spec)
    primes = primes_up_to(3000)
    assert rho(family, primes) == [_rho_by_enumeration(family, p) for p in primes]


def test_rho_of_an_x_power_times_a_constant_runs_no_frobenius(monkeypatch):
    """x^3 and x^4 have Q0 = 1 once x^j is stripped: one root, 0, at every prime."""

    def fail(*args):
        raise AssertionError("no polynomial arithmetic mod Q expected")

    monkeypatch.setattr(arith, "_kronecker", fail)
    primes = primes_up_to(20_000)
    for spec in ("1,0,0", "1,0,0,0"):
        assert rho(parse_family(spec), primes) == [1] * len(primes)


_PRIMES_BELOW_3000 = primes_up_to(3000)


@st.composite
def _family_and_prime(draw):
    """A family within DEGREE_CAP and a prime p < 3000, with coefficients past
    2^64 and multiples of p (the leading one too) so that P mod p loses degree."""
    p = draw(st.sampled_from(_PRIMES_BELOW_3000))
    big = st.integers(2**64, 2**70)
    coeff = st.one_of(st.integers(0, 3 * p), big, st.integers(0, 4).map(lambda k: k * p))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=DEGREE_CAP))
    coeffs[-1] = draw(st.one_of(st.integers(1, 5), big, st.integers(1, 4).map(lambda k: k * p)))
    assume(math.gcd(*coeffs) == 1)
    return PolyFamily(tuple(coeffs)), p


@settings(max_examples=150, deadline=None)
@given(_family_and_prime())
def test_rho_matches_enumeration_property(family_and_prime):
    """p alone, and p last in a list with the primes below it, so that it shares a batch."""
    family, p = family_and_prime
    below = _PRIMES_BELOW_3000[: _PRIMES_BELOW_3000.index(p) + 1][-40:]
    assert rho(family, [p]) == [_rho_by_enumeration(family, p)]
    assert rho(family, below)[-1] == _rho_by_enumeration(family, p)


def test_rho_closed_forms_past_2_31():
    """x(x^2+1) has the roots +-i when p = 1 mod 4; x(x^2+x+1) has the two
    primitive cube roots of unity when p = 1 mod 3. Enumeration is out of reach."""
    primes = [2**31]
    for _ in range(8):
        primes.append(next_prime_above(primes[-1]))
    primes = [*primes[1:], 2**61 - 1, 2**89 - 1, 2**127 - 1, next_prime_above(10**40)]
    assert {p % 4 for p in primes} == {1, 3} and {p % 3 for p in primes} == {1, 2}
    assert rho(parse_family("1,0,1"), primes) == [1 + 2 * (p % 4 == 1) for p in primes]
    assert rho(parse_family("1,1,1"), primes) == [1 + 2 * (p % 3 == 1) for p in primes]


def test_constant_cp():
    assert constant_cp(X, 2).value == 0.75
    res = constant_cp(X, 10**5)
    assert res.value == pytest.approx(0.607927589563138, abs=1e-12)
    assert abs(res.value - 6 / math.pi**2) < 1e-5
    assert res.tail_bound == pytest.approx(1 / (10**5 - 1))
    with pytest.raises(ValueError):
        constant_cp(X, 1)
    with pytest.raises(ResourceLimitError, match="prime bound 1000001 exceeds the cap 1000000"):
        constant_cp(X, 10**6 + 1)


def test_constant_cp_monotone_with_tail_control():
    """For families of degree 1-4 with varying rho, the truncation falls as B
    grows, and its stated tail bound deg/(B-1) covers the distance to the
    product at B = 10^5."""
    for spec in ("1", "1,1", "3,1", "3,0,2,1", "1,1,1,1"):
        family = parse_family(spec)
        reference = constant_cp(family, 10**5).value
        results = [constant_cp(family, b) for b in (10, 100, 1000, 10_000)]
        values = [r.value for r in results] + [reference]
        assert values == sorted(values, reverse=True), spec
        for res in results:
            assert res.tail_bound == family.degree / (res.prime_bound - 1), spec
            assert abs(math.log(res.value) - math.log(reference)) <= res.tail_bound, spec


def test_constant_cp_x2_plus_x_equals_two_root_product():
    res = constant_cp(XSQ_X, 10**5)
    assert res.value == pytest.approx(0.32263461660543236, abs=1e-12)
    # rho = 2 at every prime for x(x+1), so this is the (1 - 2/p^2) product.
    assert res.value == pytest.approx(constant_cpq_star(1, 1, 10**5).value, rel=1e-12)


def gcd_count(family, n):
    """Pairs in [1,N]^2 with gcd(P(a), b) = 1, the points the gcd certificate
    proves visible: the sum over a of sum_d mu(d) * floor(N / d), d running
    over the squarefree d <= N that divide gcd(P(a), primorial(N)).

    Test-only oracle for the Euler product, whose value is this count's
    density. It shares no code with the census sieves."""
    primorial = math.prod(primes_up_to(n))
    total = 0

    def mobius_sum(primes, i, d, sign):
        nonlocal total
        total += sign * (n // d)
        for j in range(i, len(primes)):
            if d * primes[j] > n:
                break
            mobius_sum(primes, j + 1, d * primes[j], -sign)

    for a in range(1, n + 1):
        mobius_sum([p for p, _ in factorize(math.gcd(family.eval(a), primorial))], 0, 1, 1)
    return total


EULER_SPECS = ("1", "1,1", "1,0,0", "2,5", "3,0,2,1")


@pytest.mark.parametrize("spec", EULER_SPECS)
def test_gcd_count_is_below_the_lcm_certificate(spec):
    """gcd certificate => lcm certificate => visible, counted over [1,500]^2."""
    family = parse_family(spec)
    visible = empirical_density(family, 500).visible_count
    assert gcd_count(family, 500) <= coprimality_count(family, 500) <= visible


@pytest.mark.parametrize("spec", EULER_SPECS)
def test_euler_product_is_the_gcd_certificate_density(spec):
    """C_P is the density of gcd(P(a), b) = 1: at N = 2000 the count is
    within N of C_P * N^2. One extra root at a prime p <= 37 breaks this."""
    family = parse_family(spec)
    n = 2000
    assert n * abs(gcd_count(family, n) / n**2 - constant_cp(family, 10**5).value) <= 1


def test_constant_cpq():
    assert constant_cpq(2, 2, 5).value == pytest.approx((9 / 16) * (1 - 2 / 25))
    assert constant_cpq(2, 3, 10**5).value == pytest.approx(0.553087914180739, abs=1e-12)
    assert constant_cpq(3, 5, 10**5).value == pytest.approx(0.7079525301513473, abs=1e-12)
    with pytest.raises(ValueError):
        constant_cpq(2, 3, 4)


def test_constant_cpq_star():
    star = constant_cpq_star(2, 3, 10**5)
    plain = constant_cpq(2, 3, 10**5)
    assert star.value == pytest.approx(plain.value, rel=1e-12)
    with pytest.raises(ValueError):
        constant_cpq_star(4, 6, 100)


def test_constant_cpq_star_keeps_divisor_factors_beyond_bound():
    res = constant_cpq_star(101, 1, 10)
    expect = 1 - 1 / 101**2
    for r in (2, 3, 5, 7):
        expect *= 1 - 2 / r**2
    assert res.value == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: constant_cpq(2, 3, 10**6 + 1),
        lambda: constant_cpq_star(2, 3, 10**12),
        lambda: brute_count(X, 101),
    ],
)
def test_fixed_caps_raise_before_any_work(monkeypatch, call):
    monkeypatch.setattr(census, "primes_up_to", lambda *a: pytest.fail("a sieve was allocated"))
    monkeypatch.setattr(census, "is_visible_direct", lambda *a: pytest.fail("the oracle ran"))
    with pytest.raises(ResourceLimitError):
        call()


def test_range_checks():
    with pytest.raises(ValueError):
        empirical_density(X, 0)
    with pytest.raises(ResourceLimitError):
        subset_count(X, 27)
    with pytest.raises(ValueError):
        subset_count(X, 0)
