"""Finitely generated abelian groups and the exponent tables for the reduced
stable homotopy of the classifying spaces B Z/r.

The exponents e_j of these groups are the raw material of the main upper
bound.  e_j of B Z/r is the product over the prime-power components q = l**n
of r, each taken from the low-degree pattern (cyclic of order q in odd
degrees, trivial in even degrees, valid below degree 2l - 2), else the shipped
B Z/2 table through degree 5, else the caller's extension table at (q, j).
Only when a component is unknown is that table read at (r, j); else Unknown.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .numtheory import factorize, r_primary_part

__all__ = [
    "FinAbGroup",
    "InfiniteExponentError",
    "ExponentEntry",
    "exponent",
    "r_primary_exponent",
    "stable_exponent_BZr",
    "load_exponent_table",
]

PROVENANCE_FORMULA = "formula-range"
PROVENANCE_TABLE = "shipped-table"
PROVENANCE_EXTENSION = "extension-table"
PROVENANCE_UNKNOWN = "unknown"


class InfiniteExponentError(ValueError):
    """Requested the exponent of a group with a free summand."""


class FinAbGroup(namedtuple("FinAbGroup", "free_rank invariant_factors")):
    """Finitely generated abelian group: a free rank plus invariant factors
    d_1 | d_2 | ... with every d_i >= 2."""

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, invariant_factors: tuple[int, ...] = ()):
        invariant_factors = tuple(invariant_factors)
        if not _all_ints((free_rank, *invariant_factors)):
            raise ValueError(f"fields must be integers, got {free_rank!r}, {invariant_factors!r}")
        if free_rank < 0:
            raise ValueError(f"free_rank must be >= 0, got {free_rank}")
        prev = 1
        for d in invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factors must be >= 2, got {d}")
            if d % prev != 0:
                raise ValueError(
                    f"invariant factors must form a divisibility chain, {prev} does not divide {d}"
                )
            prev = d
        return tuple.__new__(cls, (free_rank, invariant_factors))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def exponent(g: FinAbGroup) -> int:
    """Least N >= 1 annihilating g: the largest invariant factor, 1 if trivial.

    Signals InfiniteExponentError when g has a free summand.
    """
    if g.free_rank > 0:
        raise InfiniteExponentError("group has a free summand; exponent is infinite")
    return g.invariant_factors[-1] if g.invariant_factors else 1


def r_primary_exponent(g: FinAbGroup, r: int) -> int:
    """Exponent of the subgroup of g annihilated by powers of primes dividing r.

    Any free summand is ignored: consumers of this value only ever bound
    torsion phenomena, and must tolerate cohomology with free parts.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return r_primary_part(g.invariant_factors[-1], r) if g.invariant_factors else 1


class ExponentEntry(namedtuple("ExponentEntry", "value provenance")):
    """A known positive exponent tagged with its justification, or an
    explicitly unknown entry (value None, provenance "unknown")."""

    __slots__ = ()

    def __new__(cls, value: int | None, provenance: str):
        if value is None:
            if provenance != PROVENANCE_UNKNOWN:
                raise ValueError("unknown entries must carry the 'unknown' provenance")
        else:
            if not _all_ints((value,)) or value < 1:
                raise ValueError(f"exponent value must be an integer >= 1, got {value!r}")
            if not provenance or provenance == PROVENANCE_UNKNOWN:
                raise ValueError("known entries need a justifying provenance tag")
        return tuple.__new__(cls, (value, provenance))

    @property
    def known(self) -> bool:
        return self.value is not None


UNKNOWN_ENTRY = ExponentEntry(None, PROVENANCE_UNKNOWN)

# Exponents of the reduced stable homotopy of B Z/2 in degrees 1..5: the
# 2-primary parts of the stable stems Z/2, Z/2, Z/24, then the exceptional
# degree-4 group Z/2, then trivial in degree 5.
_BZ2_EXPONENTS = {1: 2, 2: 2, 3: 8, 4: 2, 5: 1}

# Maps (r, j) to a user-supplied exponent for degrees beyond the shipped range.
ExponentTable = dict[tuple[int, int], int]


def stable_exponent_BZr(r: int, j: int, table: ExponentTable | None = None) -> ExponentEntry:
    """Exponent of the reduced stable homotopy of B Z/r in degree j: the
    product over the prime-power components q = l**n of r of the first source
    that knows q: the formula (j < 2l - 2), the shipped values (q = 2), the
    caller's table at (q, j).  The table at (r, j) is read only when some
    component is unknown.  Unknown is a value, never an error.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return _exponent(factorize(r).pairs, r, j, table or {})


def _exponent(pairs, r: int, j: int, table: ExponentTable) -> ExponentEntry:
    """stable_exponent_BZr(r, j, table) from the prime-power pairs (l, n) of r."""
    value, provenance = 1, PROVENANCE_FORMULA
    for ell, n in pairs:
        q = ell**n
        if j < 2 * ell - 2:
            value *= q if j % 2 else 1
        elif q == 2 and j in _BZ2_EXPONENTS:
            value, provenance = value * _BZ2_EXPONENTS[j], PROVENANCE_TABLE
        elif (q, j) in table:
            value, provenance = value * table[(q, j)], PROVENANCE_EXTENSION
        elif (r, j) in table:
            return ExponentEntry(table[(r, j)], PROVENANCE_EXTENSION)
        else:
            return UNKNOWN_ENTRY
    return ExponentEntry(value, provenance)


def _all_ints(values) -> bool:
    """Whether all values are integers, by one pass over their types: the one
    rule, an int or an int subclass other than bool (IntEnum, not True)."""
    kinds = set(map(type, values))
    return kinds <= {int} or all(issubclass(k, int) and k is not bool for k in kinds)


def _read_json(path):
    """Parse a JSON file.  A document nested too deeply for the parser is a
    malformed document like any other: ValueError, not RecursionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON document is nested too deeply") from None


def exponent_table_from_json(obj) -> ExponentTable:
    """Parse a table-extension document {"table": [{"r", "j", "invariant_factors"}]}.

    Each row gives the invariant factors of the degree-j group for B Z/r; the
    stored exponent is the largest factor (1 for an empty list).  Rows whose
    prime support escapes that of r are rejected: no table may break the
    prime-support invariant of the shipped data.  So is a second row for the
    same (r, j), which would otherwise be resolved by row order.
    """
    if not isinstance(obj, dict) or "table" not in obj or not isinstance(obj["table"], list):
        raise ValueError('table extension must be an object {"table": [...]}')
    out: ExponentTable = {}
    for row in obj["table"]:
        if not isinstance(row, dict) or not {"r", "j", "invariant_factors"} <= set(row):
            raise ValueError(f"bad table row: {row!r}")
        r, j, factors = row["r"], row["j"], row["invariant_factors"]
        if not _all_ints((r, j)) or r < 2 or j < 1:
            raise ValueError(f"bad (r, j) in table row: {row!r}")
        if (r, j) in out:
            raise ValueError(f"table has more than one row for (r={r}, j={j})")
        if not isinstance(factors, list) or not _all_ints(factors):
            raise ValueError(f"invariant_factors must be a list of integers: {row!r}")
        group = FinAbGroup(0, tuple(factors))
        value = exponent(group)
        if r_primary_part(value, r) != value:
            raise ValueError(
                f"table row for (r={r}, j={j}) has prime support outside that of r"
            )
        out[(r, j)] = value
    return out


def load_exponent_table(path) -> ExponentTable:
    return exponent_table_from_json(_read_json(path))
