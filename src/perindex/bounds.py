"""Divisibility bounds on the index of a torsion degree-3 class.

Every bound is reported as a divisibility statement with an explicit
direction tag, never as a numeric inequality: an upper report asserts that
the index divides the bound, a lower report that the bound divides the index.
Collapsing either to "<=" would lose the content.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numtheory import factorize, m_closed, n_func, r_primary_part
from .stable_tables import (
    ExponentEntry,
    ExponentTable,
    _exponent,
)

__all__ = [
    "BoundReport",
    "OrdersProfile",
    "HypothesisViolatedError",
    "upper_bound_product",
    "upper_bound_prime_power",
    "lower_bound_skeleton",
    "pu_eta_power_order",
    "degree_admissible",
    "min_admissible_degree",
    "check_per_ind_consistency",
    "dimension_forces_period",
]

KIND_UPPER = "upper"
KIND_LOWER = "lower"

TAG_PRODUCT = "stable-exponent-product"
TAG_PRIME_POWER = "prime-power-halfdim"
TAG_SKELETON = "skeleton-cup-powers"
TAG_PU_ORDER = "projective-unitary-cup-order"
TAG_OBSTRUCTION = "cup-order-obstruction"
TAG_CONSISTENCY = "period-index-prime-support"

COMPOSITE_RULE_NOTE = (
    "composite period: stable exponents multiplied over coprime prime-power components"
)

# The largest dimension the upper bounds accept.  They build one factor per
# degree and multiply the factors out, so the cost grows quadratically in the
# dimension and with the size of the period.  With period 2**61-1 the library
# calls at 10**4 take about 0.16 s (prime power) and 0.4 s (product), but the
# CLI prints no such bound: from dimension 470 on it has more than the 4,300
# digits Python converts to text, and the CLI exits 1 after about 0.55 s.
# With period 10007**300 the prime-power bound took 3.1 s at dimension 1,000
# and 14.7 s at 2,000, so at 10**4 it would take minutes (not run).
MAX_DIM = 10**4


def check_dimension(d: int) -> None:
    """Refuse with ValueError a dimension the upper bounds do not accept:
    below 1 or above MAX_DIM."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the limit of {MAX_DIM}")


class HypothesisViolatedError(ValueError):
    """The prime-power bound was requested for a composite period or outside 2l > d+1."""


class BoundReport(namedtuple("BoundReport", "bound kind theorem factors assumptions")):
    """A divisibility statement about the index of a class of period r.

    kind="upper" asserts "ind divides bound"; kind="lower" asserts "bound
    divides ind".  If there are factors, bound is None exactly when one is
    Unknown, and otherwise their product; the known ones then still give a
    partial product, reported explicitly rather than silently substituted by 1.
    """

    __slots__ = ()

    def __new__(
        cls,
        bound: int | None,
        kind: str,
        theorem: str,
        factors: tuple[tuple[int, ExponentEntry], ...] = (),
        assumptions: tuple[str, ...] = (),
    ):
        self = tuple.__new__(cls, (bound, kind, theorem, tuple(factors), tuple(assumptions)))
        if kind not in (KIND_UPPER, KIND_LOWER):
            raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")
        if bound is not None and bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if self.factors:
            expected = None if self.unknown_indices() else self.partial_product
            if bound != expected:
                raise ValueError(f"bound {bound} does not match its factors, which give {expected}")
        return self

    @property
    def known(self) -> bool:
        return self.bound is not None

    @property
    def partial_product(self) -> int:
        return math.prod(e.value for _, e in self.factors if e.known)

    def unknown_indices(self) -> tuple[int, ...]:
        return tuple(j for j, e in self.factors if not e.known)

    def describe(self) -> str:
        if self.known:
            if self.kind == KIND_UPPER:
                return f"ind divides {self.bound}"
            return f"{self.bound} divides ind"
        unknown = ", ".join(str(j) for j in self.unknown_indices())
        return (
            f"{self.kind} bound unknown: known factors give {self.partial_product}, "
            f"entries unknown at j={unknown}"
        )


class OrdersProfile(namedtuple("OrdersProfile", "r orders")):
    """The orders o_s of the cup powers of a degree-2 class of order r.

    o_1 equals r and every o_s divides r: cup powers of an r-torsion class
    stay r-torsion.  An o_s of 1 records a vanishing power.
    """

    __slots__ = ()

    def __new__(cls, r: int, orders: tuple[int, ...]):
        orders = tuple(orders)
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if not orders:
            raise ValueError("orders must be nonempty")
        if orders[0] != r:
            raise ValueError(f"o_1 must equal r, got {orders[0]} != {r}")
        for s, o in enumerate(orders, start=1):
            if o < 1 or r % o != 0:
                raise ValueError(f"o_{s} = {o} does not divide r = {r}")
        return tuple.__new__(cls, (r, orders))


def upper_bound_product(d: int, r: int, table: ExponentTable | None = None) -> BoundReport:
    """Upper bound prod e_j over j = 1..d-1, where e_j is the exponent of the
    degree-j reduced stable homotopy of B Z/r (stable_exponent_BZr).

    The index of any class of period r on a d-dimensional complex divides the
    bound.  r is factored once, but not at d = 1, which has no degrees.  Unknown
    entries leave the bound Unknown with the partial factors listed.  A
    dimension above MAX_DIM is refused with ValueError.
    """
    check_dimension(d)
    if r < 2:
        raise ValueError(f"period must be >= 2, got {r}")
    pairs = factorize(r).pairs if d > 1 else ()
    table = table or {}
    factors = tuple((j, _exponent(pairs, r, j, table)) for j in range(1, d))
    assumptions = (COMPOSITE_RULE_NOTE,) if len(pairs) > 1 else ()
    known = all(e.known for _, e in factors)
    bound = math.prod(e.value for _, e in factors) if known else None
    return BoundReport(bound, KIND_UPPER, TAG_PRODUCT, factors, assumptions)


def upper_bound_prime_power(d: int, r: int) -> BoundReport:
    """Upper bound r**[d/2] for a class of period r = l**k, valid only under
    the hypothesis 2l > d+1.  A composite r, or 2l <= d+1, is refused with
    HypothesisViolatedError rather than silently degraded; callers fall back
    to upper_bound_product.  A dimension above MAX_DIM is refused with
    ValueError.  Under the hypothesis every j < d has j < 2l - 2, so this is
    the exponent product less its even degrees, which are 1."""
    check_dimension(d)
    pairs = factorize(r).pairs
    if len(pairs) != 1:
        raise HypothesisViolatedError(f"prime-power bound needs a prime-power period, got {r}")
    ell = pairs[0][0]
    if 2 * ell <= d + 1:
        raise HypothesisViolatedError(
            f"prime-power bound needs 2*{ell} > {d}+1; use the exponent product instead"
        )
    factors = tuple((j, _exponent(pairs, r, j, {})) for j in range(1, d, 2))
    return BoundReport(r ** (d // 2), KIND_UPPER, TAG_PRIME_POWER, factors)


def lower_bound_skeleton(r: int, a: int) -> BoundReport:
    """Lower bound for the canonical period-r class on the (a+1)-skeleton of
    the universal period-r space: n_func(r, [(a-1)/2]) divides its index."""
    if r < 2:
        raise ValueError(f"period must be >= 2, got {r}")
    if a < 3:
        raise ValueError(f"skeleton parameter must be >= 3, got {a}")
    s = (a - 1) // 2
    value = n_func(r, s)
    factors = ((s, ExponentEntry(value, "closed-formula")),)
    assumptions = (f"the skeleton class has period exactly {r}",)
    return BoundReport(value, KIND_LOWER, TAG_SKELETON, factors, assumptions)


def pu_eta_power_order(n: int, s: int) -> int:
    """Order of the s-th cup power of the degree-2 generator of the projective
    unitary group of degree n: m_closed(n, s)."""
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return m_closed(n, s)


def degree_admissible(n: int, profile: OrdersProfile) -> bool:
    """Whether a degree-n algebra can carry a class with the given cup-power
    orders: r and then the forced divisor must divide n.  n is never factored,
    and the orders are factored only when r divides n."""
    if n < 2:
        raise ValueError(f"candidate degree must be >= 2, got {n}")
    return n % profile.r == 0 and n % _forced_divisor(profile) == 0


def min_admissible_degree(profile: OrdersProfile, search_cap: int) -> int | None:
    """Smallest admissible degree <= search_cap, or None when none exists: the
    admissible degrees are the multiples of the forced divisor L, so max(2, L).
    r = n_func(o_1, 1) divides L, so an r past the cap settles it before any
    order is factored."""
    if search_cap < 2:
        raise ValueError(f"search_cap must be >= 2, got {search_cap}")
    if profile.r > search_cap:
        return None
    least = max(2, _forced_divisor(profile))
    return least if least <= search_cap else None


def _forced_divisor(profile: OrdersProfile) -> int:
    """L = lcm_s n_func(o_s, s): o_s divides m_closed(n, s) for every s iff L divides n."""
    return math.lcm(*(n_func(o, s) for s, o in enumerate(profile.orders, start=1)))


def check_per_ind_consistency(per: int, ind: int) -> bool:
    """True iff per divides ind and the two have the same prime divisors."""
    if per < 1 or ind < 1:
        raise ValueError(f"per and ind must be >= 1, got {per}, {ind}")
    return ind % per == 0 and r_primary_part(ind, per) == ind


def dimension_forces_period(d: int) -> bool:
    """In dimension at most 4 the index collapses to the period."""
    return d <= 4
