"""The record types are immutable tuples that validate on construction.

Each record is a namedtuple subclass whose __new__ normalises and checks its
fields.  namedtuple's _make and _replace bypass __new__, so the library must
not call them.
"""

import pathlib
import re

import pytest

import perindex
from perindex.ahss import TwistedShape
from perindex.bounds import BoundReport, OrdersProfile
from perindex.homology import BocksteinMap, CohomologyGroup, IntMatrix, SmithDecomposition
from perindex.numtheory import Factorization
from perindex.stable_tables import ExponentEntry, FinAbGroup


def _entries():
    return ((1, ExponentEntry(2, "shipped-table")), (2, ExponentEntry(3, "formula-range")))


def _groups():
    return [CohomologyGroup(0, 1, ()), CohomologyGroup(1, 0, [3])]


# type -> a function building keyword arguments; each call builds new,
# equal inputs, lists where the record normalises to tuples
VALID = {
    Factorization: lambda: {"pairs": ((2, 1), (3, 2))},
    FinAbGroup: lambda: {"free_rank": 1, "invariant_factors": [2, 4]},
    ExponentEntry: lambda: {"value": 8, "provenance": "shipped-table"},
    BoundReport: lambda: {
        "bound": 6, "kind": "upper", "theorem": "t", "factors": list(_entries()),
        "assumptions": ["a note"],
    },
    OrdersProfile: lambda: {"r": 6, "orders": [6, 3]},
    TwistedShape: lambda: {"d": 1, "r": 3, "h": _groups()},
    SmithDecomposition: lambda: {
        "shape": (1, 2), "diag": (2,), "row_log": [], "col_log": [0, 0, 1, 0],
    },
    CohomologyGroup: lambda: {"degree": 2, "free_rank": 0, "torsion": [3, 9]},
    BocksteinMap: lambda: {
        "degree": 1, "modulus": 3, "source": CohomologyGroup(1, 0, (3,)),
        "target": CohomologyGroup(2, 0, (3,)), "matrix": IntMatrix(1, 1, [[1]]),
        "source_orders": (3,), "target_orders": (3,),
    },
}

# type -> keyword arguments its validation refuses
INVALID = {
    Factorization: {"pairs": ((4, 1),)},
    FinAbGroup: {"free_rank": 0, "invariant_factors": (4, 6)},
    ExponentEntry: {"value": 0, "provenance": "shipped-table"},
    BoundReport: {"bound": 5, "kind": "upper", "theorem": "t", "factors": _entries()},
    OrdersProfile: {"r": 6, "orders": (6, 4)},
    TwistedShape: {"d": 1, "r": 3, "h": _groups()[:1]},
    CohomologyGroup: {"degree": -1, "free_rank": 0, "torsion": ()},
}

# list logs, and IntMatrix defines equality without a hash
UNHASHABLE = {SmithDecomposition, BocksteinMap}


def test_every_record_is_covered():
    exported = [getattr(perindex, name) for name in perindex.__all__]
    records = {value for value in exported if isinstance(value, type) and issubclass(value, tuple)}
    assert records == set(VALID)
    assert set(INVALID) == set(VALID) - UNHASHABLE


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_records_are_immutable_and_compare_by_value(cls):
    kwargs = VALID[cls]()
    record = cls(**kwargs)
    assert list(record._fields) == list(kwargs)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    again = cls(**VALID[cls]())
    assert record == again and record is not again
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    if cls is not SmithDecomposition:  # its logs stay lists
        assert not any(isinstance(value, list) for value in record)
    assert cls(*VALID[cls]().values()) == record
    # the dataclass-style repr
    assert repr(record).startswith(f"{cls.__name__}({record._fields[0]}=")


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_invalid_keywords_are_refused(cls):
    with pytest.raises(ValueError):
        cls(**INVALID[cls])


def test_no_record_keeps_an_instance_dict():
    for cls in VALID:
        assert not hasattr(cls(**VALID[cls]()), "__dict__"), cls.__name__


def test_library_builds_records_through_their_constructors():
    src = pathlib.Path(perindex.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\._(make|replace)\(", text), path.name
        assert not re.search(r"^\s*(from|import) dataclasses\b", text, re.M), path.name
