"""Tests for the divisibility bound reports and the cup-power obstructions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perindex import bounds, stable_tables
from perindex.bounds import (
    COMPOSITE_RULE_NOTE,
    BoundReport,
    HypothesisViolatedError,
    KIND_LOWER,
    KIND_UPPER,
    OrdersProfile,
    check_per_ind_consistency,
    degree_admissible,
    dimension_forces_period,
    lower_bound_skeleton,
    min_admissible_degree,
    pu_eta_power_order,
    upper_bound_prime_power,
    upper_bound_product,
)
from perindex.numtheory import factorize, m_closed, n_func
from perindex.stable_tables import UNKNOWN_ENTRY, ExponentEntry

from brute_force import m_oracle, prime_support


def test_report_validation():
    with pytest.raises(ValueError):
        BoundReport(4, "sideways", "tag")
    with pytest.raises(ValueError):
        BoundReport(0, KIND_UPPER, "tag")
    entry = ExponentEntry(2, "closed-formula")
    with pytest.raises(ValueError):
        BoundReport(3, KIND_UPPER, "tag", ((1, entry),))  # 3 != 2
    report = BoundReport(2, KIND_UPPER, "tag", ((1, entry),))
    assert report.known and report.partial_product == 2
    # the bound is None exactly when a factor is unknown
    partial = ((1, entry), (2, UNKNOWN_ENTRY))
    with pytest.raises(ValueError):
        BoundReport(2, KIND_UPPER, "tag", partial)
    with pytest.raises(ValueError):
        BoundReport(None, KIND_UPPER, "tag", ((1, entry),))
    report = BoundReport(None, KIND_UPPER, "tag", partial)
    assert report.unknown_indices() == (2,) and report.partial_product == 2


def test_report_describe_directions():
    up = upper_bound_product(6, 2)
    assert up.describe() == "ind divides 64"
    low = lower_bound_skeleton(2, 5)
    assert low.describe() == "4 divides ind"


def test_orders_profile_validation():
    OrdersProfile(2, (2, 2, 1))
    with pytest.raises(ValueError):
        OrdersProfile(2, (4, 2))  # o_1 != r
    with pytest.raises(ValueError):
        OrdersProfile(4, (4, 3))  # 3 does not divide 4
    with pytest.raises(ValueError):
        OrdersProfile(2, ())


def test_upper_bound_product_examples():
    report = upper_bound_product(6, 2)
    assert report.bound == 64
    assert [e.value for _, e in report.factors] == [2, 2, 8, 2, 1]
    assert report.kind == KIND_UPPER

    assert upper_bound_product(1, 5).bound == 1
    assert upper_bound_product(1, 5).factors == ()

    report = upper_bound_product(4, 5)
    assert report.bound == 25
    assert [e.value for _, e in report.factors] == [5, 1, 5]
    # cross-check against the prime-power route (hypothesis 2*5 > 5 holds)
    assert report.bound == upper_bound_prime_power(4, 5).bound


def test_upper_bound_product_unknown_propagates():
    report = upper_bound_product(8, 2)  # degrees 6, 7 unknown for r = 2
    assert report.bound is None
    assert not report.known
    assert report.unknown_indices() == (6, 7)
    assert report.partial_product == 64
    assert "unknown" in report.describe()


def test_upper_bound_product_composite_flag():
    report = upper_bound_product(3, 6)
    assert COMPOSITE_RULE_NOTE in report.assumptions
    assert report.bound == 6 * 2
    assert COMPOSITE_RULE_NOTE not in upper_bound_product(3, 4).assumptions


def test_prime_power_examples():
    assert upper_bound_prime_power(5, 5).bound == 25
    assert upper_bound_prime_power(4, 3).bound == 9
    assert upper_bound_prime_power(4, 125).bound == 125**2
    with pytest.raises(HypothesisViolatedError):
        upper_bound_prime_power(6, 9)


def test_prime_power_rejects_bad_inputs():
    # a composite period and 2l <= d+1 are both outside the hypothesis
    for d, r in [(4, 6), (3, 10), (2, 2 * (2**61 - 1)), (5, 3), (3, 2), (4, 4)]:
        with pytest.raises(HypothesisViolatedError):
            upper_bound_prime_power(d, r)
    for d, r in [(0, 5), (4, 1), (4, 0)]:
        with pytest.raises(ValueError):
            upper_bound_prime_power(d, r)


def test_theorem_agreement_in_overlap():
    for ell in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            for d in range(1, 2 * ell - 1):  # 2*ell > d+1
                product = upper_bound_product(d, ell**k)
                half = upper_bound_prime_power(d, ell**k)
                assert product.bound == half.bound == (ell**k) ** (d // 2)


def test_one_factorization_per_bound(monkeypatch):
    looked_up = []

    def counted(a):
        looked_up.append(a)
        return factorize(a)

    for module in (bounds, stable_tables):
        monkeypatch.setattr(module, "factorize", counted)
    report = upper_bound_product(12, 18, {(9, 4): 9, (9, 5): 27})
    assert report.assumptions == (COMPOSITE_RULE_NOTE,)
    assert looked_up == [18]
    looked_up.clear()
    upper_bound_prime_power(9, 11)
    assert looked_up == [11]
    looked_up.clear()
    # at d = 1 there are no factors, so a period rho cannot split is never factored
    assert upper_bound_product(1, 2787593149816327892763980872944807277756691).bound == 1
    assert looked_up == []


def test_half_dimension_factors_are_the_odd_degree_exponents():
    for r in range(2, 126):
        pairs = factorize(r).pairs
        if len(pairs) != 1:
            continue
        ell = pairs[0][0]
        for d in range(1, 2 * ell - 1):  # 2*ell > d+1
            odd = tuple((j, e) for j, e in upper_bound_product(d, r).factors if j % 2)
            assert upper_bound_prime_power(d, r).factors == odd, (d, r)


def test_lower_bound_skeleton_examples():
    assert lower_bound_skeleton(2, 5).bound == 4
    for r in (2, 3, 5, 12):
        assert lower_bound_skeleton(r, 3).bound == r
    assert lower_bound_skeleton(3, 19).bound == 27
    with pytest.raises(ValueError):
        lower_bound_skeleton(2, 2)


def test_sandwich_coherence():
    for r in (2, 3, 4, 5, 6):
        for a in range(3, 8):
            low = lower_bound_skeleton(r, a)
            up = upper_bound_product(a + 1, r)
            if up.known:
                assert up.bound % low.bound == 0
    assert upper_bound_product(6, 2).bound % lower_bound_skeleton(2, 5).bound == 0


def test_pu_eta_power_order():
    for n in (2, 3, 10, 97):
        assert pu_eta_power_order(n, 1) == n
        assert pu_eta_power_order(n, n) == 1
    assert pu_eta_power_order(4, 2) == m_oracle(4, 2) == 2


def test_degree_admissible_examples():
    assert degree_admissible(4, OrdersProfile(2, (2, 2)))
    assert not degree_admissible(2, OrdersProfile(2, (2, 2)))  # m(2,2) = 1
    assert degree_admissible(7, OrdersProfile(1, (1, 1, 1)))


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_admissible_monotone_under_divisibility(n, data):
    r = data.draw(st.sampled_from([2, 4, 6, 12]))
    length = data.draw(st.integers(min_value=1, max_value=4))
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    strong = [r] + [data.draw(st.sampled_from(divisors)) for _ in range(length - 1)]
    weak = [r] + [data.draw(st.sampled_from([d for d in divisors if o % d == 0])) for o in strong[1:]]
    strong_profile = OrdersProfile(r, tuple(strong))
    weak_profile = OrdersProfile(r, tuple(weak))
    if degree_admissible(n, strong_profile):
        assert degree_admissible(n, weak_profile)


def test_min_admissible_degree_examples():
    assert min_admissible_degree(OrdersProfile(2, (2, 2)), 100) == 4
    assert min_admissible_degree(OrdersProfile(5, (5,)), 10) == 5
    assert min_admissible_degree(OrdersProfile(3, (3, 3, 3)), 1000) == 9 == n_func(3, 3)
    assert min_admissible_degree(OrdersProfile(7, (7, 7)), 10) == 7 == n_func(7, 2)
    assert min_admissible_degree(OrdersProfile(7, (7, 7)), 6) is None


def test_min_admissible_degree_brute_force_cross_check():
    profile = OrdersProfile(2, (2, 2))
    hits = [n for n in range(2, 101) if all(m_oracle(n, s) % o == 0 for s, o in enumerate(profile.orders, 1))]
    assert hits[0] == min_admissible_degree(profile, 100) == 4
    assert all(h % n_func(2, 2) == 0 for h in hits)

    # the closed form against a linear search: every profile with r <= 24 and S <= 3
    cap = 2000
    profiles = [
        OrdersProfile(r, (r,) + tail)
        for r in range(1, 25)
        for length in range(3)
        for tail in itertools.product([o for o in range(1, r + 1) if r % o == 0], repeat=length)
    ]
    assert len(profiles) == 472
    for profile in profiles:
        search = next(
            (
                n
                for n in range(2, cap + 1)
                if all(m_oracle(n, s) % o == 0 for s, o in enumerate(profile.orders, 1))
            ),
            None,
        )
        assert min_admissible_degree(profile, cap) == search
        if search is not None and search > 2:
            assert min_admissible_degree(profile, search - 1) is None


def test_per_ind_consistency():
    assert check_per_ind_consistency(2, 8)
    assert not check_per_ind_consistency(2, 6)
    for r in (1, 2, 9, 12):
        assert check_per_ind_consistency(r, r)
    assert not check_per_ind_consistency(4, 2)  # per does not divide ind
    m, n = 2**2203 - 1, 2**2281 - 1  # Mersenne primes, beyond is_prime's exact bound
    assert check_per_ind_consistency(m, m**3)
    assert check_per_ind_consistency(6 * m, 12 * m**2)
    assert not check_per_ind_consistency(m, m * n)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=9))
def test_bound_prime_support(r, d):
    report = upper_bound_product(d, r)
    if report.known and report.bound > 1:
        assert prime_support(report.bound) <= prime_support(r)
    low = lower_bound_skeleton(r, 3 + d)
    assert prime_support(low.bound) <= prime_support(r)


def test_dimension_forces_period():
    assert dimension_forces_period(4)
    assert not dimension_forces_period(5)


def test_constant_profile_forced_multiple():
    for r, length in [(2, 2), (2, 4), (3, 3), (6, 2), (4, 2)]:
        result = min_admissible_degree(OrdersProfile(r, (r,) * length), 10_000)
        assert result is not None
        assert result % n_func(r, length) == 0
        assert result == n_func(r, length)
