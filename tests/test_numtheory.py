"""Unit and property tests for the exact number-theory core."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perindex import numtheory
from perindex.numtheory import (
    Factorization,
    factorize,
    integer_log,
    is_prime,
    kummer_carries,
    m_closed,
    n_func,
    r_primary_part,
)

from brute_force import m_oracle, n_oracle, padic_valuation, prime_support, trial_division

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# psi_k for k = 1..12: the least strong pseudoprime to the first k primes as
# bases (OEIS A014233); psi_13 is MR_EXACT_BELOW
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def trial_is_prime(p: int) -> bool:
    return p > 1 and trial_division(p) == ((p, 1),)


def test_factorize_examples():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(1).pairs == ()
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent < 1


@given(st.integers(min_value=1, max_value=100_000))
def test_factorize_roundtrip(a):
    assert math.prod(p**e for p, e in factorize(a).pairs) == a


def test_factorize_matches_trial_division_below_20000():
    for a in range(1, 20_000):
        assert factorize(a).pairs == trial_division(a), a


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_matches_trial_division_up_to_1e12(a):
    assert factorize(a).pairs == trial_division(a)


def test_factorize_large_periods():
    m61, m31 = 2**61 - 1, 2**31 - 1
    assert factorize(10**16 + 61).pairs == ((10**16 + 61, 1),)
    assert factorize(m61).pairs == ((m61, 1),)
    assert factorize(m31 * m61).pairs == ((m31, 1), (m61, 1))
    assert factorize(2**64 + 1).pairs == ((274177, 1), (67280421310721, 1))
    assert factorize(2**5 * 43**2 * 1_000_003**3).pairs == ((2, 5), (43, 2), (1_000_003, 3))


def test_factorize_cache_is_bounded():
    bound = factorize.cache_info().maxsize
    assert bound is not None
    factorize.cache_clear()
    values = range(10**9, 10**9 + bound + 100)
    for a in values:
        factorize(a)
    assert factorize.cache_info().currsize == bound
    misses = factorize.cache_info().misses
    # the least recently used values were evicted: they are factored afresh
    for a in values[:100]:
        assert factorize(a).pairs == trial_division(a), a
    assert factorize.cache_info().misses == misses + 100
    assert factorize.cache_info().currsize == bound


def test_factorize_refuses_what_it_cannot_settle(monkeypatch):
    # a strong pseudoprime to all 13 bases: is_prime cannot certify the cofactor
    with pytest.raises(ValueError, match="cannot certify"):
        factorize(MR_EXACT_BELOW)
    # a semiprime that rho cannot split within a (shrunken) budget
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 64)
    with pytest.raises(ValueError, match="cannot factor .* within 64 iterations"):
        factorize(1_000_000_007 * 1_000_000_009)


def test_rho_budget_shrinks_with_bit_length():
    budget = numtheory._rho_budget
    full = 1 << 22
    for bits in (2, 40, 64, 100, 127, 128):
        assert budget((1 << bits) - 1) == full
    assert budget(1 << 128) == full * 128**2 // 129**2
    assert budget(1 << 255) == 1 << 20
    assert budget(1 << 1023) == 1 << 16
    assert budget(1 << 4095) == 1 << 12
    previous = full
    for bits in range(129, 5000, 37):
        n = (1 << bits) - 1
        assert budget(n) <= previous
        # budget times a cost quadratic in the bit length stays within that of 128 bits
        assert budget(n) * bits**2 <= full * 128**2
        previous = budget(n)


def test_large_cofactor_refused_within_its_scaled_budget(monkeypatch):
    # M521 * M607 has 1128 bits: 2**16 * (128 / 1128)**2 iterations, rounded down
    monkeypatch.setattr(numtheory, "_RHO_BUDGET", 1 << 16)
    with pytest.raises(ValueError, match="cannot factor .* within 843 iterations"):
        factorize((2**521 - 1) * (2**607 - 1))


def test_padic_valuation_examples():
    assert padic_valuation(2, 12) == 2
    assert padic_valuation(3, 1) == 0
    assert padic_valuation(5, 250) == 3


def test_padic_valuation_rejects_zero_and_nonprime():
    with pytest.raises(ValueError):
        padic_valuation(2, 0)
    with pytest.raises(ValueError):
        padic_valuation(6, 12)


def test_integer_log_exact_powers():
    # repeated division must land exactly on powers of p
    for p in SMALL_PRIMES:
        for e in range(6):
            assert integer_log(p, p**e) == e
            if p**e > 1:
                assert integer_log(p, p**e - 1) == e - 1


def test_kummer_examples():
    assert kummer_carries(2, 1, 1) == 1
    assert kummer_carries(3, 3, 6) == padic_valuation(3, math.comb(9, 3)) == 1
    assert kummer_carries(2, 4, 4) == padic_valuation(2, math.comb(8, 4)) == 1


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
)
def test_kummer_equals_binomial_valuation(p, a, b):
    c = math.comb(a + b, b)
    expected = padic_valuation(p, c) if c else 0
    assert kummer_carries(p, a, b) == expected


def test_m_examples():
    assert m_oracle(4, 2) == math.gcd(4, 6) == 2
    assert m_closed(4, 2) == 2
    assert m_closed(12, 2) == math.gcd(12, 66) == 6
    assert m_oracle(6, 3) == math.gcd(6, math.gcd(15, 20)) == 1


def test_m_boundary_values():
    for a in (1, 2, 7, 36, 97):
        assert m_closed(a, 1) == a
        assert m_closed(a, a) == 1
        assert m_oracle(a, 1) == a
        assert m_oracle(a, a) == 1


def test_m_prime_power_formula():
    for p in (2, 3, 5):
        for n in range(1, 5):
            for s in range(1, p**n + 2):
                c = max(n - integer_log(p, s), 0)
                assert m_closed(p**n, s) == p**c


def test_m_rejects_s_zero():
    with pytest.raises(ValueError):
        m_closed(4, 0)
    with pytest.raises(ValueError):
        m_oracle(4, 0)


@given(st.integers(min_value=1, max_value=500), st.data())
def test_m_closed_matches_oracle(a, data):
    s = data.draw(st.integers(min_value=1, max_value=a))
    assert m_closed(a, s) == m_oracle(a, s)


def test_m_closed_matches_oracle_past_the_cap():
    # m_closed caps s at a; the oracle takes every s as it comes
    for a in range(1, 60):
        for s in range(1, 2 * a + 1):
            assert m_closed(a, s) == m_oracle(a, s), (a, s)
    assert m_closed(12, 10**4000) == 1


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40))
def test_m_monotone_under_divisibility(a, s):
    assert m_closed(a, s) % m_closed(a, s + 1) == 0


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=50))
def test_m_prime_support_contained_in_a(a, s):
    assert prime_support(m_closed(a, s)) <= prime_support(a)


LCM_FORM_MAX_S = numtheory._LCM_FORM_MAX_S


# the oracle m takes up to about 0.1 s at these sizes
@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=2 * LCM_FORM_MAX_S + 50),
    st.one_of(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=LCM_FORM_MAX_S - 1, max_value=LCM_FORM_MAX_S + 1),
        # prime powers past the bound, where [log_p s] steps up
        st.sampled_from([11**3, 37**2, 2**11]),
    ),
)
@example(1, LCM_FORM_MAX_S)
@example(2 * 3 * 1019, LCM_FORM_MAX_S)
@example(2**10 * 1021, LCM_FORM_MAX_S + 1)
@example(LCM_FORM_MAX_S + 1, LCM_FORM_MAX_S + 1)
@example(2 * LCM_FORM_MAX_S, LCM_FORM_MAX_S + 1)
@example(2**11, 2**11)
@example(2 * 11**3, 11**3)
def test_closed_forms_match_their_definitions(a, s):
    # up to LCM_FORM_MAX_S both read lcm(1..s); past it n_func factors, and
    # so does m_closed once a is past it too
    assert n_func(a, s) == n_oracle(a, s)
    assert m_closed(a, s) == m_oracle(a, s)


def test_n_examples():
    assert n_func(1, 7) == 1
    assert n_func(2, 2) == 4
    assert n_func(12, 5) == 2 ** (2 + 2) * 3 ** (1 + 1) == 144
    assert n_func(3, 9) == 27


def test_n_rejects_s_zero():
    with pytest.raises(ValueError):
        n_func(4, 0)


@given(st.integers(min_value=1, max_value=500))
def test_n_at_one_is_identity(b):
    assert n_func(b, 1) == b


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=10),
)
def test_n_monotone_under_divisibility(b, s, extra):
    assert n_func(b, s + extra) % n_func(b, s) == 0


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=30),
)
def test_forced_divisor_property(b, a, s):
    # whenever b divides the binomial gcd, the forced divisor divides the degree
    if m_closed(a, s) % b == 0:
        assert a % n_func(b, s) == 0


def test_is_prime_small():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    assert {p for p in range(60) if is_prime(p)} == primes_below_60


def test_is_prime_matches_trial_division_below_20000():
    for p in range(-2, 20_000):
        assert is_prime(p) == trial_is_prime(p), p


def strong_probable_prime(n: int, a: int) -> bool:
    d, e = n - 1, 0
    while d % 2 == 0:
        d, e = d // 2, e + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, e))


def test_is_prime_strong_pseudoprimes():
    # psi_k passes the first k prime bases, so is_prime must run more of them
    # on it: the next base that is a witness
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for k, n in enumerate(PSI, start=1):
        assert all(strong_probable_prime(n, a) for a in bases[:k]), k
        assert not is_prime(n), k
    # is_prime picks its bases from this table
    assert numtheory._MR_PSI == PSI + (MR_EXACT_BELOW,)
    # a strong pseudoprime to all 13 bases: refused, not guessed
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(MR_EXACT_BELOW)


def test_is_prime_matches_a_sieve_below_one_million():
    # below psi_2 = 1,373,653 this checks the one- and two-base verdicts
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [p for p in range(limit) if is_prime(p) != sieve[p]] == []


def test_is_prime_above_the_exact_bound():
    m89 = 2**89 - 1
    # a witness proves compositeness at any size; a prime there cannot be certified
    assert not is_prime((2**31 - 1) * (2**61 - 1) * m89)
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(m89)
    with pytest.raises(ValueError, match="cannot certify"):
        Factorization(((m89, 1),))


def test_factorize_certifies_each_prime_once(monkeypatch):
    calls = []
    certify = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda p: calls.append(p) or certify(p))
    p, q = 1_000_000_007, 2**61 - 1
    # the uncached function, so that the counts do not depend on earlier tests
    assert factorize.__wrapped__(p).pairs == ((p, 1),)
    assert calls == [p]
    calls.clear()
    assert factorize.__wrapped__(2**3 * p * q).pairs == ((2, 3), (p, 1), (q, 1))
    # the calls below 43 test the exponents of a perfect power, not cofactors,
    # which have no prime factor up to 41
    assert sorted(c for c in calls if c >= 43) == [p, q, p * q]
    # a hand-built factorization is still checked in full
    with pytest.raises(ValueError, match="not prime"):
        Factorization(((p * q, 1),))


def test_factorize_strips_a_certified_prime_from_every_pending_cofactor(monkeypatch):
    splits = []
    split = numtheory._rho_factor
    monkeypatch.setattr(numtheory, "_rho_factor", lambda n: splits.append(n) or split(n))
    # peeling off one prime factor per split took 59 splits here, and 7 below
    assert factorize.__wrapped__(10007**60).pairs == ((10007, 60),)
    assert len(splits) <= 2
    splits.clear()
    p, q = 1_000_003, 1_000_033
    assert factorize.__wrapped__(p**5 * q**3).pairs == ((p, 5), (q, 3))
    assert len(splits) <= 2


# A 61-bit prime p and an exact k-th power of it: rho cannot split p**2
# within its budget (it was refused after about 3.5 s), the k-th root can.
M61_POWERS = [(2**61 - 1) ** k for k in range(2, 6)]
PRIME_POWER_PRODUCTS = [
    (2**61 - 1) ** 2 * 1_000_003,
    1_000_003**2 * (2**61 - 1),
    (2**61 - 1) ** 2 * 10007**3,
    (1_000_003 * 1_000_033) ** 6,
    43**97,
]


def test_factorize_perfect_powers_of_a_large_prime():
    m61 = 2**61 - 1
    for k, n in enumerate(M61_POWERS, start=2):
        assert factorize.__wrapped__(n).pairs == ((m61, k),)
    p, q = 1_000_003, 1_000_033
    expected = [
        ((p, 1), (m61, 2)),
        ((p, 2), (m61, 1)),
        ((10007, 3), (m61, 2)),
        ((p, 6), (q, 6)),
        ((43, 97),),
    ]
    for n, pairs in zip(PRIME_POWER_PRODUCTS, expected):
        assert factorize.__wrapped__(n).pairs == pairs, n


def test_factorize_perfect_powers_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in M61_POWERS + PRIME_POWER_PRODUCTS:
        assert dict(factorize.__wrapped__(n).pairs) == sympy.factorint(n), n


def test_is_prime_power_matches_factorize_without_rho(monkeypatch):
    for n in range(1, 5000):
        assert numtheory._is_prime_power(n) == (len(factorize(n).pairs) == 1), n

    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(numtheory, "_rho_factor", no_rho)
    hard = 2787593149816327892763980872944807277756691  # rho cannot split it
    for n in M61_POWERS + PRIME_POWER_PRODUCTS + [hard, 4 * hard, 2**61 * hard]:
        assert numtheory._is_prime_power(n) == (n in M61_POWERS or n == 43**97), n
    assert numtheory._is_prime_power(2**61 - 1) and numtheory._is_prime_power(2**64)
    with pytest.raises(ValueError, match="cannot certify"):
        numtheory._is_prime_power(MR_EXACT_BELOW)


def test_integer_root_is_exact():
    rng = random.Random(61)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(1, 600)) + 1
        k = rng.randint(2, 80)
        x = numtheory._iroot(n, k)
        assert x**k <= n < (x + 1) ** k, (n, k)
    for x in (43, 2**61 - 1, 3**200 + 2):
        for k in (2, 3, 7, 31):
            assert numtheory._iroot(x**k, k) == x
            assert numtheory._iroot(x**k - 1, k) == x - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=1, max_value=10**6))
def test_r_primary_part_matches_valuations(a, r):
    expected = math.prod(p ** padic_valuation(p, a) for p in prime_support(r))
    assert r_primary_part(a, r) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.data())
def test_r_primary_part_decides_prime_support(r, data):
    # a <= 10**30 as a product of at most five numbers <= 10**6, so that the
    # oracle can factor it; primes of r are drawn often to make a r-primary
    primes = sorted(prime_support(r)) or [1]
    pieces = data.draw(
        st.lists(st.one_of(st.integers(1, 10**6), st.sampled_from(primes)), max_size=5)
    )
    a = math.prod(pieces)
    part = r_primary_part(a, r)
    assert part == math.prod(p ** padic_valuation(p, a) for p in prime_support(r))
    assert (part == a) == (prime_support(a) <= prime_support(r))


def test_r_primary_part_needs_no_factorization():
    m, n = 2**2203 - 1, 2**2281 - 1  # Mersenne primes, beyond is_prime's exact bound
    assert r_primary_part(m * n, m) == m
    assert r_primary_part(m**3 * n, m * 6) == m**3
    assert r_primary_part(m * n, 2) == 1
    assert r_primary_part(1, 12) == r_primary_part(12, 1) == 1
    with pytest.raises(ValueError):
        r_primary_part(0, 12)


def test_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20111)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(40, 80))
        assert is_prime(n) == sympy.isprime(n), n
        p = sympy.nextprime(n)
        assert is_prime(p), p
    for _ in range(40):
        n = rng.getrandbits(rng.randint(40, 80)) | 1
        assert dict(factorize(n).pairs) == sympy.factorint(n), n
    for _ in range(10):
        p, q = (sympy.nextprime(rng.getrandbits(rng.randint(20, 36))) for _ in range(2))
        assert dict(factorize(p * q).pairs) == sympy.factorint(p * q), (p, q)
