import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvis import census, columns, visibility
from polyvis import (
    DEGREE_CAP,
    LatticePoint,
    ProfileCache,
    column_profile,
    factorize,
    gcd_p,
    is_visible,
    is_visible_direct,
    lcm_criterion,
    lcm_many,
    lcm_p,
    modulus,
    parse_family,
)
from polyvis.arith import primes_up_to
from polyvis.roots import RootTable

from conftest import families

X = parse_family("1")
XSQ = parse_family("1,0")
XSQ_X = parse_family("1,1")


def test_modulus_values():
    assert modulus(X, 4, 2) == 2
    assert modulus(XSQ_X, 13, 6) == 13
    assert modulus(XSQ_X, 3, 1) == 6


def test_modulus_range_errors():
    for bad_t in (0, 4, 7, -1):
        with pytest.raises(ValueError):
            modulus(X, 4, bad_t)


def test_verdict_examples():
    v = is_visible(X, LatticePoint(2, 4))
    assert (v.visible, v.witness_t, v.witness_modulus) == (False, 1, 2)
    # gcd(P(2), 2) = 2 yet the point is visible: gcd certificate is one-way.
    v = is_visible(XSQ, LatticePoint(2, 2))
    assert v.visible and v.witness_t is None
    assert gcd_p(XSQ, LatticePoint(2, 2)) == 2


def test_column_one_always_visible(family):
    for b in (1, 2, 17, 360):
        assert is_visible(family, LatticePoint(1, b)).visible
        assert is_visible_direct(family, LatticePoint(1, b))


def test_witness_actually_blocks(family):
    """Any reported witness must satisfy the divisibility it claims."""
    rng = random.Random(sum(ord(c) for c in family.spec))
    for _ in range(300):
        a = rng.randrange(2, 80)
        b = rng.randrange(1, 300)
        v = is_visible(family, LatticePoint(a, b))
        if not v.visible:
            assert 1 <= v.witness_t < a
            assert modulus(family, a, v.witness_t) == v.witness_modulus
            assert b % v.witness_modulus == 0


def test_divisor_test_matches_rational_definition(family):
    for a in range(1, 26):
        for b in range(1, 81):
            pt = LatticePoint(a, b)
            assert is_visible(family, pt).visible == is_visible_direct(family, pt)


def test_divisor_test_matches_rational_definition_sampled(family):
    rng = random.Random(20_26)
    for _ in range(350):
        pt = LatticePoint(rng.randrange(1, 121), rng.randrange(1, 401))
        assert is_visible(family, pt).visible == is_visible_direct(family, pt)


def test_identity_family_reduces_to_coprimality():
    """Along y = qx the visible points are exactly the classically visible ones."""
    cache = ProfileCache(X, 300)
    for a in range(1, 301):
        for b in range(1, 301):
            assert cache.is_visible(a, b) == (math.gcd(a, b) == 1)


def test_first_row_always_visible(family):
    cache = ProfileCache(family, 1000)
    assert all(cache.is_visible(a, 1) for a in range(1, 1001))


def test_certificate_chain(family):
    """gcd(P(a), b) = 1 implies the lcm test passes, which implies visible."""
    cache = ProfileCache(family, 100)
    for a in range(1, 101):
        primes = cache.prime_set(a)
        for b in range(1, 101):
            passes_lcm = all(b % p for p in primes)
            if math.gcd(cache.value(a), b) == 1:
                assert passes_lcm
            if passes_lcm:
                assert cache.is_visible(a, b)
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.randrange(1, 101), rng.randrange(1, 101)
        expected = all(b % p for p in cache.prime_set(a))
        assert lcm_criterion(family, LatticePoint(a, b)) == expected


def test_lcm_criterion_never_factorizes(monkeypatch):
    """L_P(a) = P(a) / gcd(P(1), ..., P(deg)) needs no factorization, so
    neither P(a), 81 digits here, nor anything else is factorized."""
    factorized = []

    def spy(n):
        factorized.append(n)
        return factorize(n)

    monkeypatch.setattr(columns, "factorize", spy)
    family = parse_family("3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1")
    assert lcm_criterion(family, LatticePoint(100_000, 99_991))  # gcd(P(a), b) = 1
    # v_2(P(100000)) = 5 but v_2(P(1)) = v_2(4) = 2, so 2 divides L_P(a)
    assert not lcm_criterion(family, LatticePoint(100_000, 99_990))
    assert factorized == []


@settings(max_examples=100, deadline=None)
@given(family=families(), a=st.integers(1, 60))
def test_lcm_p_is_p_a_over_the_prefix_gcd(family, a):
    """lcm_p is P(a) // gcd(P(1), ..., P(a)) by brute force, and `visibility`
    still names the `columns` objects."""
    assert lcm_p(family, a) == family.eval(a) // math.gcd(*(family.eval(t) for t in range(1, a + 1)))
    assert visibility.ProfileCache is columns.ProfileCache
    assert (visibility.column_profile, visibility.ColumnProfile) == (column_profile, columns.ColumnProfile)


def test_minimal_moduli_block_the_same_points(family):
    """Dropping non-minimal moduli never changes which b get blocked."""
    for a in (2, 3, 7, 12, 30, 61):
        prof = column_profile(family, a)
        full = {m for _, m in prof.moduli}
        for b in range(1, 1001):
            blocked_full = any(b % m == 0 for m in full)
            blocked_min = any(b % m == 0 for m in prof.minimal_moduli)
            assert blocked_full == blocked_min


def test_prime_set_within_prime_support(family):
    for a in range(2, 60):
        prof = column_profile(family, a)
        support = {p for p, _ in factorize(family.eval(a))}
        assert set(prof.lcm_prime_set) <= support


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(0, 4), min_size=1, max_size=DEGREE_CAP),
    a=st.integers(1, 40),
    bound=st.integers(1, 60),
    b=st.integers(1, 10**6),
)
@example(coeffs=[3, 1, 0], a=6, bound=2, b=2)  # prefix gcd 4, 4, 2: it drops at t = 3 = deg
def test_prime_set_is_prime_support_of_modulus_lcm(coeffs, a, bound, b):
    """ProfileCache.lcm(a) is lcm(m_{a,t}), taken from modulus(); column_profile
    lists its primes, ProfileCache(family, bound).prime_set(a) those <= bound,
    and lcm_criterion is coprimality with it."""
    family = parse_family(",".join(map(str, [coeffs[0] or 1, *coeffs[1:]])))
    lcm_all = lcm_many(modulus(family, a, t) for t in range(1, a))
    primes = tuple(p for p, _ in factorize(lcm_all))
    cache = ProfileCache(family, bound)
    assert cache.lcm(a) == lcm_all
    assert column_profile(family, a).lcm_prime_set == primes
    assert cache.prime_set(a) == tuple(p for p in primes if p <= bound)
    assert lcm_criterion(family, LatticePoint(a, b)) == (math.gcd(lcm_all, b) == 1)


def test_column_profile_values():
    prof = column_profile(X, 6)
    assert tuple(m for _, m in prof.moduli) == (6, 3, 2, 3, 6)
    assert prof.minimal_moduli == (2, 3)
    assert prof.lcm_prime_set == (2, 3)

    prof = column_profile(XSQ_X, 3)
    assert prof.moduli == ((1, 6), (2, 2))
    assert prof.minimal_moduli == (2,)
    assert prof.lcm_prime_set == (2, 3)

    prof = column_profile(XSQ_X, 1)
    assert prof.moduli == () and prof.minimal_moduli == () and prof.lcm_prime_set == ()

    with pytest.raises(ValueError):
        column_profile(X, 0)


def test_profile_cache_consistent_and_idempotent(family):
    cache = ProfileCache(family, 500)
    for a in (1, 2, 9, 40):
        # Expectations come from the full modulus list alone: the minimal set
        # is its divisibility-minimal elements up to the bound, and since
        # d_t = m_{a,t} the lcm prime set is the prime support of lcm(m_{a,t}),
        # cut to the bound in the cache.
        prof = column_profile(family, a)
        mods = {m for _, m in prof.moduli}
        minimal = tuple(sorted(m for m in mods if m <= 500 and not any(m != k and m % k == 0 for k in mods)))
        primes = tuple(sorted({p for m in mods for p, _ in factorize(m)}))
        assert cache.minimal_moduli(a) == minimal
        assert prof.lcm_prime_set == primes
        assert cache.prime_set(a) == tuple(p for p in primes if p <= 500)
        assert cache.minimal_moduli(a) is cache.minimal_moduli(a)
        assert cache.value(a) == family.eval(a)
    rng = random.Random(99)
    for _ in range(200):
        a, b = rng.randrange(1, 90), rng.randrange(1, 500)
        assert cache.is_visible(a, b) == is_visible(family, LatticePoint(a, b)).visible


def _gcd_scan_minimal(family, a, bound):
    """Oracle: the divisibility-minimal m_{a,t} over every t < a, by one gcd per t,
    cut to [1, bound]."""
    pa = family.eval(a)
    mods = {pa // math.gcd(pa, family.eval(t)) for t in range(1, a)}
    return tuple(sorted(m for m in mods if m <= bound and not any(m != k and m % k == 0 for k in mods)))


@st.composite
def _bound_and_columns(draw):
    """A cache bound in [1, 800] and up to 8 columns in [1, min(bound, 600)], in any order."""
    bound = draw(st.integers(1, 800))
    return bound, draw(st.lists(st.integers(1, min(bound, 600)), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(family=families(), bound_columns=_bound_and_columns())
# Every column a >= 2 goes through the witness search.
@example(family=parse_family("1,1,1"), bound_columns=(800, [545, 300]))  # C(545) = 883 and 545 is a modulus
@example(family=parse_family("3,0,2,1"), bound_columns=(600, [200, 130]))  # C(a) > Q(a) - Q(a-1): no modulus
# C(52) = 5209 divides P(12) alone: the leaf of 351 keeps it at t = 12, and 351 then prunes the
# node of 702. Leaves kept without that remainder would give (27, 39).
@example(family=parse_family("3,0,2,1"), bound_columns=(800, [52]))
@example(family=parse_family("1,2,1"), bound_columns=(500, [180, 90, 1, 2]))  # -1 is a double root
# 257 = a + 1 is a modulus equal to the bound, and t = a - 1 is its only witness.
@example(family=parse_family("1,1"), bound_columns=(257, [256]))
@example(family=X, bound_columns=(1000, [997]))  # P = x at a prime: no t < a is a multiple of a
@example(family=X, bound_columns=(800, [720]))  # P = x at a column with 30 divisors
@example(family=XSQ_X, bound_columns=(1, [1]))  # column 1 has no t
# Q = x^p - x mod p has every residue as a root: x^2 + x at p = 2, and x^3 + 2x at p = 3.
@example(family=parse_family("1,1,0"), bound_columns=(400, list(range(1, 401))))
@example(family=parse_family("1,0,2,0"), bound_columns=(400, list(range(1, 401))))
# x^3 and x^4 + 2x^2 have the singular root 0 at every prime; p^2 | a makes their classes split.
@example(family=parse_family("1,0,0"), bound_columns=(1000, [360, 900]))
@example(family=parse_family("1,0,2,0"), bound_columns=(1000, [360, 900]))
# The grid's column shape, and columns at the coordinate cap.
@example(family=XSQ_X, bound_columns=(8999, [997, 1000]))
@example(family=XSQ_X, bound_columns=(100_000, [99990, 100_000]))
def test_minimal_moduli_match_gcd_scan(family, bound_columns):
    """ProfileCache(family, bound).minimal_moduli(a) is the gcd-scan minimal set
    cut to [1, bound], for columns in [1, bound], in any order."""
    bound, columns = bound_columns
    cache = ProfileCache(family, bound)
    for a in columns:
        assert cache.minimal_moduli(a) == _gcd_scan_minimal(family, a, bound), a


@settings(max_examples=200, deadline=None)
@given(
    family=families(),
    p=st.sampled_from([p for p in range(2, 51) if all(p % d for d in range(2, p))]),
    f=st.integers(1, 4),
    bound=st.integers(1, 500),
)
@example(family=parse_family("1,0,0"), p=2, f=4, bound=500)  # singular at 0: t^3 = 0 mod 16 iff 4 | t
@example(family=parse_family("1,1,0"), p=2, f=3, bound=64)  # every residue is a root mod 2
@example(family=parse_family("1,2,1"), p=3, f=4, bound=500)  # -1 is a double root
def test_witness_bitsets_match_brute_force(family, p, f, bound):
    """Bit t of the witness bitset of p^f is set exactly when p^f | P(t), 0 <= t <= bound."""
    brute = sum(1 << t for t in range(bound + 1) if family.eval(t) % p**f == 0)
    assert ProfileCache(family, bound)._witnesses(p, f) == brute


@settings(max_examples=60, deadline=None)
@given(
    family=st.builds(
        lambda lead, rest: parse_family(",".join(map(str, [lead, *rest]))),
        st.integers(1, 3),
        st.lists(st.integers(0, 3), max_size=5),
    ),
    n=st.integers(1, 400),
    where=st.sampled_from(("below", "at", "above")),
    data=st.data(),
)
def test_profile_cache_reads_a_root_table_filled_by_rho(family, n, where, data):
    """Columns whose roots come from a table that rho filled in batches, for the primes
    up to a B below, at or above N, match columns that find each prime's roots alone."""
    bound = {"below": lambda: data.draw(st.integers(2, max(n - 1, 2))), "at": lambda: max(n, 2),
             "above": lambda: data.draw(st.integers(n + 1, 3 * n + 50))}[where]()
    shared, alone = ProfileCache(family, n), ProfileCache(family, n)
    census.rho(family, primes_up_to(bound), shared.roots)
    for a in range(1, n + 1):
        assert shared.minimal_moduli(a) == alone.minimal_moduli(a), a
        assert shared.prime_set(a) == alone.prime_set(a), a


def test_root_table_of_another_family_is_refused():
    family = parse_family("1,1,1")  # Q0 = x^2 + x + 1: rho reads the table's gcds
    table = RootTable(family.coeffs)
    with pytest.raises(ValueError, match="cannot serve"):
        census.rho(XSQ, [2, 3], table)
    assert census.rho(family, [2, 3, 5, 7], table) == census.rho(family, [2, 3, 5, 7]) == [1, 2, 1, 3]


@pytest.mark.parametrize(
    "spec, bound, columns",
    [
        ("1,1", 20, [144, 147]),  # C(144) = 29 < a: the rough-part exit, sound for a <= bound, drops its moduli
        ("1,1", 1, [1, 2]),  # the least bound: column 1 is served and column 2 refused
        ("1,1,0,0", 300, [1011]),  # degree 4 past column 1000: C(1011) = 38272753
        ("1,0,0,0", 600, [1202]),  # x^4 at 2 * 601: C = 601^4
    ],
)
def test_profile_cache_refuses_a_column_past_its_bound(spec, bound, columns):
    """minimal_moduli and is_visible refuse a column past the bound, so each cache is sized
    once; a column within the bound, read before or after a refusal, is the gcd-scan minimal set."""
    family = parse_family(spec)
    cache = ProfileCache(family, bound)
    for a in [*columns, bound + 1, 1, bound]:
        if a > bound:
            with pytest.raises(ValueError, match=f"column {a} is past the cache bound {bound}"):
                cache.minimal_moduli(a)
            with pytest.raises(ValueError, match=f"column {a} is past the cache bound {bound}"):
                cache.is_visible(a, 1)
        else:
            assert cache.minimal_moduli(a) == _gcd_scan_minimal(family, a, bound), a


def test_profile_cache_refuses_b_past_its_bound():
    cache = ProfileCache(XSQ_X, 200)
    assert cache.is_visible(13, 195) is False
    assert cache.is_visible(13, 200) is True
    with pytest.raises(ValueError, match="past the cache bound 200"):
        cache.is_visible(13, 201)
    with pytest.raises(ValueError):
        ProfileCache(XSQ_X, 0)


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda c: c.minimal_moduli(0), "column index must be >= 1, got 0"),
        (lambda c: c.minimal_moduli(-3), "column index must be >= 1, got -3"),
        (lambda c: c.lcm(0), "column index must be >= 1, got 0"),
        (lambda c: c.prime_set(0), "column index must be >= 1, got 0"),
        (lambda c: c.is_visible(-3, 5), "column index must be >= 1, got -3"),
        (lambda c: c.is_visible(3, 0), "b must be >= 1, got 0"),
        (lambda c: c.is_visible(3, -5), "b must be >= 1, got -5"),
    ],
    ids=["moduli-0", "moduli-neg", "lcm-0", "primes-0", "visible-a-neg", "visible-b-0", "visible-b-neg"],
)
def test_profile_cache_refuses_points_off_the_lattice(read, message):
    """Column 0 once factorized the whole primorial, lcm(0) and prime_set(0) divided
    by zero, and column -3 had no moduli, so (-3, 5) read visible."""
    with pytest.raises(ValueError, match=message):
        read(ProfileCache(XSQ_X, 50))


def _full_scan(family, a, b):
    """Oracle: the column scan over every t < a, with no certificate first."""
    pa = family.eval(a)
    for t in range(1, a):
        m = pa // math.gcd(pa, family.eval(t))
        if b % m == 0:
            return False, t, m
    return True, None, None


@st.composite
def _points(draw, family):
    """(a, b) drawn free, on a multiple of a column modulus (invisible), or on a
    multiple of a small prime of L_P(a) (uncertified, either verdict)."""
    a = draw(st.integers(1, 150))
    b = draw(st.integers(1, 10**4))
    how = draw(st.sampled_from(("free", "modulus", "lcm prime")))
    primes = ProfileCache(family, 50).prime_set(a)
    if how == "modulus" and a > 1:
        b *= modulus(family, a, draw(st.integers(1, a - 1)))
    elif how == "lcm prime" and primes:
        b *= draw(st.sampled_from(primes))
    return a, b


@settings(max_examples=200, deadline=None)
@given(case=families().flatmap(lambda family: st.tuples(st.just(family), _points(family))))
@example(case=(XSQ_X, (13, XSQ_X.eval(13))))  # P(a) | b: D = 1, so t = 1 is the witness
@example(case=(XSQ_X, (1, 2)))  # column 1 has no earlier t; gcd(P(1), 2) = 2 but L_P(1) = 1
@example(case=(parse_family("7,1,2,3,4,5,6,7,8,9,10,11,12,13,14,3"), (137, 43)))  # 43 | P(137), visible
def test_is_visible_matches_full_scan(case):
    """The lcm certificate exit and the D | P(t) scan change neither the
    verdict nor the smallest witness and its modulus."""
    family, (a, b) = case
    v = is_visible(family, LatticePoint(a, b))
    assert (v.visible, v.witness_t, v.witness_modulus) == _full_scan(family, a, b)


def test_is_visible_scans_only_uncertified_points(monkeypatch):
    """A certified point costs deg + 1 evaluations of P; an uncertified
    one, here visible with gcd(P(a), b) = 5, still scans every t < a."""
    family = parse_family("3," + "0," * 14 + "1")
    calls = []
    real_eval = type(family).eval
    monkeypatch.setattr(type(family), "eval", lambda self, x: calls.append(x) or real_eval(self, x))
    for b, certified in ((7, True), (5, False)):
        assert lcm_criterion(family, LatticePoint(300, b)) is certified
        calls.clear()
        assert is_visible(family, LatticePoint(300, b)).visible
        assert len(set(calls)) == (family.degree + 1 if certified else 300)


@pytest.mark.parametrize("a", [9973, 9240])  # a prime; 2^3 * 3 * 5 * 7 * 11 with 64 divisors
def test_degree_one_column_evaluates_few_t(monkeypatch, a):
    """For P = x the witness search evaluates P only at a and at the root 0.

    P(a) = a is bound-smooth, so no t needs the rough-part remainder. The only root
    of x mod p is 0, where P' = 1 is a unit, so its Hensel lifts stay 0, and each
    witness bitset of p^f is the multiples of p^f, combed from the class (0, p^f).
    """
    cache = ProfileCache(X, 10_000)
    calls = []
    real_eval = type(X).eval
    monkeypatch.setattr(type(X), "eval", lambda self, x: calls.append(x) or real_eval(self, x))
    assert cache.minimal_moduli(a) == tuple(p for p, _ in factorize(a))
    assert set(calls) <= {a, 0}


def test_cube_shares_one_witness_bitset_per_prime():
    """x^3 has one class, 0 mod p, for p, p^2 and p^3 alike, so the bitsets of (p, 1..3)
    are one object, shared through `_combed`: a sweep keeps 274 keys but 122 bitsets."""
    cache = ProfileCache(parse_family("1,0,0"), 1108)
    for a in range(1, 1109):
        cache.minimal_moduli(a)
    for p in primes_up_to(13):
        assert cache._witness[(p, 1)] is cache._witness[(p, 2)] is cache._witness[(p, 3)], p


@pytest.mark.parametrize(
    "spec, kept",
    [("1,1", 78), ("7,1,2,3,4,5,6,7,8,9,10,11,12,13,14,3", 64)],  # of the 234 and 237 (p, f) read
)
def test_far_columns_keep_few_witness_bitsets(spec, kept):
    """On the far columns 99801..10^5 at bound 10^5 the keep rule of `_witnesses` stores
    only the bitsets of small moduli: a sparse bitset of 10^5 bits recurs in few columns."""
    cache = ProfileCache(parse_family(spec), 100_000)
    for a in range(99801, 100_001):
        cache.minimal_moduli(a)
    assert len(cache._witness) <= kept
