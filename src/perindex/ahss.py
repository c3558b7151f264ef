"""Spectral-sequence style upper bounds from concrete cohomology.

For a class of period r on a d-dimensional complex, the first differential
out of degree zero contributes a factor of exactly r, and each later
differential lands in a subquotient of an odd-degree integral cohomology
group whose image is r-primary torsion.  Bounding every image by the full
r-primary exponent of its target group (a sound relaxation: subquotient
exponents divide ambient ones) yields an upper bound computable from the
cohomology alone.  Even degrees contribute nothing: the coefficient groups
are 2-periodic Z, 0, Z, 0, ... so only odd differentials leave degree zero.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import (
    BoundReport,
    HypothesisViolatedError,
    KIND_UPPER,
    TAG_PRIME_POWER,
    TAG_PRODUCT,
    dimension_forces_period,
    upper_bound_prime_power,
    upper_bound_product,
)
from .homology import ChainComplex, CohomologyGroup, cohomology_Z
from .stable_tables import ExponentEntry, ExponentTable, _all_ints, _read_json, r_primary_exponent

__all__ = [
    "TwistedShape",
    "ku_ahss_upper_bound",
    "best_upper_bound",
    "twisted_shape_from_json",
    "load_twisted_shape",
]

TAG_AHSS = "ahss-odd-torsion"
TAG_COMBINED = "combined-upper"

_PERIOD_NOTE = "class assumed to live in degree 3 with order exactly the period"


class TwistedShape(namedtuple("TwistedShape", "d r h")):
    """Dimension, period, and the integral cohomology of a space in degrees
    0..d; the degree-3 class of order exactly r is the caller's assertion."""

    __slots__ = ()

    def __new__(cls, d: int, r: int, h: tuple[CohomologyGroup, ...]):
        h = tuple(h)
        if not _all_ints((d, r)):
            raise ValueError(f"dimension and period must be integers, got {d!r}, {r!r}")
        if d < 0:
            raise ValueError(f"dimension must be >= 0, got {d}")
        if r < 2:
            raise ValueError(f"period must be >= 2, got {r}")
        if len(h) != d + 1:
            raise ValueError(f"need cohomology in degrees 0..{d}, got {len(h)} groups")
        for k, g in enumerate(h):
            if g.degree != k:
                raise ValueError(f"group at position {k} has degree {g.degree}")
        if h[0].free_rank < 1:
            raise ValueError("degree-0 cohomology must have free rank >= 1 (nonempty space)")
        return tuple.__new__(cls, (d, r, h))

    @classmethod
    def from_complex(cls, c: ChainComplex, r: int) -> "TwistedShape":
        groups = tuple(cohomology_Z(c, k) for k in range(c.top_dim + 1))
        return cls(c.top_dim, r, groups)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "h": [
                {"free_rank": g.free_rank, "torsion": list(g.torsion)} for g in self.h
            ],
        }


def twisted_shape_from_json(obj) -> TwistedShape:
    """Parse {"d": int, "r": int, "h": [{"free_rank", "torsion"}, ...]}."""
    if not isinstance(obj, dict) or not {"d", "r", "h"} <= set(obj):
        raise ValueError('shape document must be an object with keys "d", "r", "h"')
    d, r, h = obj["d"], obj["r"], obj["h"]
    if not _all_ints((d, r)) or not isinstance(h, list):
        raise ValueError("shape document has wrongly typed fields")
    groups = []
    for k, entry in enumerate(h):
        if not isinstance(entry, dict):
            raise ValueError(f"group {k} must be an object")
        free_rank = entry.get("free_rank", 0)
        torsion = entry.get("torsion", [])
        if not _all_ints((free_rank,)):
            raise ValueError(f"group {k}: free_rank must be an integer")
        if not isinstance(torsion, list) or not _all_ints(torsion):
            raise ValueError(f"group {k}: torsion must be a list of integers")
        groups.append(CohomologyGroup(degree=k, free_rank=free_rank, torsion=tuple(torsion)))
    return TwistedShape(d, r, tuple(groups))


def load_twisted_shape(path) -> TwistedShape:
    return twisted_shape_from_json(_read_json(path))


def ku_ahss_upper_bound(shape: TwistedShape) -> BoundReport:
    """Upper bound r * prod over odd k in 5..d of the r-primary exponent of
    the degree-k integral cohomology.

    Below dimension 3 there is no degree-3 class at all and the bound is 1.
    In dimensions 3 and 4 no odd degree contributes and the bound collapses
    to the period.
    """
    d, r = shape.d, shape.r
    if d < 3:
        return BoundReport(
            1,
            KIND_UPPER,
            TAG_AHSS,
            (),
            ("no degree-3 class exists below dimension 3",),
        )
    factors = [(3, ExponentEntry(r, "period-exact"))]
    for k in range(5, d + 1, 2):
        e = r_primary_exponent(shape.h[k].group(), r)
        factors.append((k, ExponentEntry(e, "cohomology-torsion")))
    assumptions = [_PERIOD_NOTE]
    if dimension_forces_period(d):
        assumptions.append("dimension at most 4: the bound collapses to the period")
    bound = math.prod(e.value for _, e in factors)
    return BoundReport(bound, KIND_UPPER, TAG_AHSS, tuple(factors), tuple(assumptions))


def best_upper_bound(shape: TwistedShape, table: ExponentTable | None = None) -> BoundReport:
    """gcd of all applicable upper bounds for the shape.

    Contributors: the odd-torsion bound above, the stable-exponent product,
    and the prime-power half-dimension bound whenever its hypothesis holds.
    Unknown contributors are listed but excluded from the gcd; the gcd of
    valid upper bounds is itself a valid upper bound.
    """
    d, r = shape.d, shape.r
    contributors: list[tuple[str, BoundReport]] = [
        (TAG_AHSS, ku_ahss_upper_bound(shape)),
        (TAG_PRODUCT, upper_bound_product(d, r, table)),
    ]
    try:
        contributors.append((TAG_PRIME_POWER, upper_bound_prime_power(d, r)))
    except HypothesisViolatedError:
        pass
    known = [rep.bound for _, rep in contributors if rep.known]
    bound = math.gcd(*known)
    notes = []
    for tag, rep in contributors:
        notes.append(f"{tag}: {rep.describe()}")
        notes.extend(f"{tag} assumes: {a}" for a in rep.assumptions)
    return BoundReport(bound, KIND_UPPER, TAG_COMBINED, (), tuple(notes))
