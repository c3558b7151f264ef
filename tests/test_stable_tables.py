"""Tests for finite abelian group arithmetic and the stable exponent tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perindex import stable_tables
from perindex.bounds import upper_bound_product
from perindex.numtheory import factorize
from perindex.stable_tables import (
    PROVENANCE_EXTENSION,
    PROVENANCE_FORMULA,
    PROVENANCE_TABLE,
    PROVENANCE_UNKNOWN,
    ExponentEntry,
    FinAbGroup,
    InfiniteExponentError,
    exponent,
    exponent_table_from_json,
    r_primary_exponent,
    stable_exponent_BZr,
)

from brute_force import prime_support


@st.composite
def fin_ab_groups(draw):
    rank = draw(st.integers(min_value=0, max_value=3))
    length = draw(st.integers(min_value=0, max_value=4))
    factors = []
    current = 1
    for _ in range(length):
        current *= draw(st.integers(min_value=2, max_value=6))
        factors.append(current)
    return FinAbGroup(rank, tuple(factors))


def test_group_validation():
    FinAbGroup(0, (2, 8))
    with pytest.raises(ValueError):
        FinAbGroup(0, (8, 2))  # chain broken
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))  # factor < 2
    with pytest.raises(ValueError):
        FinAbGroup(-1, ())


def test_exponent_examples():
    assert exponent(FinAbGroup(0, ())) == 1
    assert exponent(FinAbGroup(0, (2, 8))) == 8
    assert exponent(FinAbGroup(0, (24,))) == 24


def test_exponent_signals_on_free_part():
    with pytest.raises(InfiniteExponentError):
        exponent(FinAbGroup(1, (2,)))


def test_r_primary_examples():
    assert r_primary_exponent(FinAbGroup(0, (24,)), 2) == 8
    assert r_primary_exponent(FinAbGroup(1, (5,)), 2) == 1
    assert r_primary_exponent(FinAbGroup(0, (4,)), 2) == 4
    assert r_primary_exponent(FinAbGroup(2, ()), 6) == 1
    m = 2**2203 - 1  # a Mersenne prime beyond is_prime's exact bound
    assert r_primary_exponent(FinAbGroup(0, (m * 2**5,)), 2) == 32
    assert r_primary_exponent(FinAbGroup(0, (m * 2**5,)), m) == m


@given(fin_ab_groups(), st.integers(min_value=1, max_value=60))
def test_r_primary_divides_exponent(g, r):
    value = r_primary_exponent(g, r)
    if g.free_rank == 0:
        assert exponent(g) % value == 0
    assert prime_support(value) <= prime_support(r) or value == 1


def test_entry_validation():
    ExponentEntry(8, PROVENANCE_TABLE)
    with pytest.raises(ValueError):
        ExponentEntry(None, PROVENANCE_TABLE)
    with pytest.raises(ValueError):
        ExponentEntry(4, PROVENANCE_UNKNOWN)
    with pytest.raises(ValueError):
        ExponentEntry(0, PROVENANCE_FORMULA)


def test_formula_range_prime_powers():
    entry = stable_exponent_BZr(5, 3)
    assert (entry.value, entry.provenance) == (5, PROVENANCE_FORMULA)
    entry = stable_exponent_BZr(9, 2)
    assert (entry.value, entry.provenance) == (1, PROVENANCE_FORMULA)
    # the full pattern: trivial at even degrees, cyclic of full order at odd
    for ell, n in [(3, 1), (3, 2), (5, 1), (7, 2), (11, 1), (13, 1)]:
        r = ell**n
        for j in range(1, 2 * ell - 2):
            entry = stable_exponent_BZr(r, j)
            assert entry.known
            assert entry.value == (r if j % 2 else 1)


def test_shipped_two_primary_table():
    values = [stable_exponent_BZr(2, j).value for j in range(1, 6)]
    assert values == [2, 2, 8, 2, 1]
    # degree 1 is still inside the formula range for l = 2
    assert stable_exponent_BZr(2, 1).provenance == PROVENANCE_FORMULA
    assert stable_exponent_BZr(2, 3).provenance == PROVENANCE_TABLE
    # the first three agree with the 2-primary exponents of the stable stems
    stems = [FinAbGroup(0, (2,)), FinAbGroup(0, (2,)), FinAbGroup(0, (24,))]
    assert values[:3] == [r_primary_exponent(g, 2) for g in stems]


def test_unknown_beyond_known_range():
    assert not stable_exponent_BZr(2, 7).known
    assert not stable_exponent_BZr(3, 4).known
    assert not stable_exponent_BZr(4, 2).known
    assert stable_exponent_BZr(2, 7).provenance == PROVENANCE_UNKNOWN


def test_composite_r_multiplies_components():
    # 6 = 2 * 3: degree 1 gives 2 * 3, degree 2 gives the shipped 2 entry
    assert stable_exponent_BZr(6, 1).value == 6
    assert stable_exponent_BZr(6, 2).value == 2
    assert stable_exponent_BZr(6, 3).value == 24
    assert not stable_exponent_BZr(6, 4).known  # 3-component unknown at j=4


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=12))
def test_value_support_inside_r_support(r, j):
    entry = stable_exponent_BZr(r, j)
    if entry.known and entry.value > 1:
        assert prime_support(entry.value) <= prime_support(r)


def test_table_extension():
    table = exponent_table_from_json(
        {"table": [{"r": 2, "j": 7, "invariant_factors": [2, 16]}]}
    )
    entry = stable_exponent_BZr(2, 7, table)
    assert (entry.value, entry.provenance) == (16, PROVENANCE_EXTENSION)
    # unrelated entries stay unknown
    assert not stable_exponent_BZr(2, 8, table).known
    # composite lookups may be answered directly by the table
    table2 = exponent_table_from_json(
        {"table": [{"r": 6, "j": 4, "invariant_factors": [6]}]}
    )
    assert stable_exponent_BZr(6, 4, table2).value == 6


# the 9-component of r = 18 beyond the formula range, degrees 4 and 5
R18_ROWS = {"table": [
    {"r": 9, "j": 4, "invariant_factors": [9]},
    {"r": 9, "j": 5, "invariant_factors": [3, 27]},
]}


def test_composite_period_takes_a_component_from_the_table():
    # 18 = 2 * 9: the 2-component is the formula, then the shipped B Z/2
    # values; the 9-component is the formula below degree 4, then the rows
    table = exponent_table_from_json(R18_ROWS)
    entries = [stable_exponent_BZr(18, j, table) for j in range(1, 6)]
    assert [e.value for e in entries] == [18, 2, 72, 18, 27]
    # a part from the caller's rows tags the product, over the shipped 2-part
    assert [e.provenance for e in entries] == (
        [PROVENANCE_FORMULA] + [PROVENANCE_TABLE] * 2 + [PROVENANCE_EXTENSION] * 2
    )
    assert upper_bound_product(6, 18, table).bound == 1259712
    # no row for the 9-component at degree 6
    assert not stable_exponent_BZr(18, 6, table).known


def test_one_factorization_per_lookup(monkeypatch):
    # the components come from one factorization of r, none of their own
    table = exponent_table_from_json(R18_ROWS)
    lookups = []
    monkeypatch.setattr(stable_tables, "factorize", lambda n: lookups.append(n) or factorize(n))
    for r, j in ((18, 5), (18, 6), (6, 4), (60, 1), (2, 3), (9, 5), (7, 20)):
        lookups.clear()
        stable_exponent_BZr(r, j, table)
        assert lookups == [r], (r, j)


def test_table_extension_refuses_a_repeated_row():
    # the stored exponent must not depend on which of two rows comes last
    rows = [{"r": 3, "j": 5, "invariant_factors": [3]}, {"r": 3, "j": 5, "invariant_factors": [27]}]
    for table in (rows, rows[::-1]):
        with pytest.raises(ValueError, match=r"more than one row for \(r=3, j=5\)"):
            exponent_table_from_json({"table": table})


def test_shipped_values_take_precedence_over_the_table():
    # the period divides the index, so a row claiming e_1 = 2 for r = 6 must
    # not override the shipped product 2 * 3
    table = exponent_table_from_json({"table": [
        {"r": 6, "j": 1, "invariant_factors": [2]},
        {"r": 6, "j": 4, "invariant_factors": [6]},
        {"r": 5, "j": 3, "invariant_factors": [25]},
    ]})
    entry = stable_exponent_BZr(6, 1, table)
    assert (entry.value, entry.provenance) == (6, PROVENANCE_FORMULA)
    assert upper_bound_product(3, 6, table).bound == 12
    entry = stable_exponent_BZr(5, 3, table)
    assert (entry.value, entry.provenance) == (5, PROVENANCE_FORMULA)
    # the table still answers where a component is unknown (3 at j = 4)
    entry = stable_exponent_BZr(6, 4, table)
    assert (entry.value, entry.provenance) == (6, PROVENANCE_EXTENSION)


def test_table_support_check_needs_no_factorization():
    m, n = 2**2203 - 1, 2**2281 - 1  # Mersenne primes, beyond is_prime's exact bound
    row = {"r": 2, "j": 7, "invariant_factors": [m * n]}
    with pytest.raises(ValueError, match="prime support outside"):
        exponent_table_from_json({"table": [row]})
    row = {"r": m, "j": 7, "invariant_factors": [m, m**2]}
    assert exponent_table_from_json({"table": [row]}) == {(m, 7): m**2}
    with pytest.raises(ValueError, match="prime support outside"):
        exponent_table_from_json({"table": [{"r": 12, "j": 9, "invariant_factors": [10]}]})


def test_table_extension_rejects_bad_rows():
    with pytest.raises(ValueError):
        exponent_table_from_json({"rows": []})
    with pytest.raises(ValueError):
        exponent_table_from_json({"table": [{"r": 2, "j": 7}]})
    with pytest.raises(ValueError):
        exponent_table_from_json({"table": [{"r": 2, "j": 0, "invariant_factors": [2]}]})
    # prime support escaping r is rejected outright
    with pytest.raises(ValueError):
        exponent_table_from_json({"table": [{"r": 2, "j": 7, "invariant_factors": [6]}]})


def test_stable_exponent_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stable_exponent_BZr(1, 1)
    with pytest.raises(ValueError):
        stable_exponent_BZr(4, 0)
