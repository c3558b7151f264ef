"""One integer rule at every entry point that reads integers: an int, or an
int subclass other than bool.

Each entry point below reads the value v in one place, where v = 2 makes a
valid input.  An IntEnum member equal to 2 is accepted there, and True, 2.0
and "2" are refused with the entry point's own exception type.
"""

import enum

import pytest

from brute_force import ADD
from perindex.ahss import TwistedShape, twisted_shape_from_json
from perindex.homology import (
    CohomologyGroup,
    ComplexFormatError,
    IntMatrix,
    SmithDecomposition,
    bockstein,
    bockstein_of_cocycle,
    bzr_skeleton_complex,
    chain_complex_from_json,
    cohomology_mod,
)
from perindex.stable_tables import ExponentEntry, FinAbGroup, exponent_table_from_json

TWO = enum.IntEnum("Two", {"TWO": 2}).TWO


def _added(v):
    """Row 1 and column 1 += v times row and column 0: with v = 2, U and V
    are [[1, 0], [2, 1]] and [[1, 2], [0, 1]]."""
    return SmithDecomposition((2, 2), (1, 1), [ADD, 1, 0, v], [ADD, 1, 0, v])


# entry point -> (a call reading v, the exception type refusing a non-integer v)
ENTRY_POINTS = {
    "IntMatrix": (lambda v: IntMatrix(1, 1, [[v]]), ValueError),
    "loader boundary entry": (
        lambda v: chain_complex_from_json({"cell_counts": [1, 1], "boundaries": [[v]]}),
        ComplexFormatError,
    ),
    "loader cell count": (
        lambda v: chain_complex_from_json({"cell_counts": [v, 0], "boundaries": [[]]}),
        ComplexFormatError,
    ),
    # [2] is a cocycle mod 2 in degree 1 of the 3-skeleton, whose coboundary is *2
    "bockstein_of_cocycle": (
        lambda v: bockstein_of_cocycle(bzr_skeleton_complex(2, 3), 1, 2, [v]),
        ValueError,
    ),
    "bockstein_of_cocycle modulus": (
        lambda v: bockstein_of_cocycle(bzr_skeleton_complex(2, 3), 1, v, [2]),
        ValueError,
    ),
    "bockstein modulus": (lambda v: bockstein(bzr_skeleton_complex(2, 3), 1, v), ValueError),
    "cohomology_mod modulus": (
        lambda v: cohomology_mod(bzr_skeleton_complex(2, 3), 1, v),
        ValueError,
    ),
    "TwistedShape dimension": (
        lambda v: TwistedShape(v, 2, [CohomologyGroup(k, int(k == 0), ()) for k in range(3)]),
        ValueError,
    ),
    "TwistedShape period": (lambda v: TwistedShape(0, v, [CohomologyGroup(0, 1, ())]), ValueError),
    "twisted_shape_from_json": (
        lambda v: twisted_shape_from_json({"d": 0, "r": v, "h": [{"free_rank": 1}]}),
        ValueError,
    ),
    "exponent_table_from_json": (
        lambda v: exponent_table_from_json(
            {"table": [{"r": 2, "j": 6, "invariant_factors": [v]}]}
        ),
        ValueError,
    ),
    # row 1 += v * row 0 reduces [[1], [-2]] to diag(1) for v = 2
    "verify log entry": (
        lambda v: SmithDecomposition((2, 1), (1,), [ADD, 1, 0, v], []).verify(
            IntMatrix(2, 1, [[1], [-2]])
        ),
        RuntimeError,
    ),
    "verify diagonal entry": (
        lambda v: SmithDecomposition((1, 1), (v,), [], []).verify(IntMatrix(1, 1, [[2]])),
        RuntimeError,
    ),
    "_act": (lambda v: _added(v)._act("U", [[1], [0]]), RuntimeError),
    "U": (lambda v: _added(v).U, RuntimeError),
    "V": (lambda v: _added(v).V, RuntimeError),
    "u_inv": (lambda v: _added(v).u_inv, RuntimeError),
    "v_inv": (lambda v: _added(v).v_inv, RuntimeError),
    "FinAbGroup": (lambda v: FinAbGroup(0, (v,)), ValueError),
    "CohomologyGroup": (lambda v: CohomologyGroup(1, 0, (v,)), ValueError),
    "ExponentEntry": (lambda v: ExponentEntry(v, "shipped-table"), ValueError),
}


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_every_entry_point_keeps_the_one_integer_rule(entry_point):
    call, error = ENTRY_POINTS[entry_point]
    call(TWO)
    for value in (True, 2.0, "2"):
        with pytest.raises(error) as err:
            call(value)
        assert err.type is error, (value, err.value)


def test_witnesses_of_an_int_enum_log_are_those_of_its_ints():
    two = _added(2)
    assert [_added(TWO).U, _added(TWO).V] == [two.U, two.V]
    assert two.U == IntMatrix(2, 2, [[1, 0], [2, 1]])
    assert two.V == IntMatrix(2, 2, [[1, 2], [0, 1]])
