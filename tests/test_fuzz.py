"""Fuzzing of the three JSON loaders and of the CLI's error contract.

Malformed input of any shape must surface as a ValueError (a domain error),
and the CLI must turn it into exit code 1 with exactly one line on stderr,
never a traceback or the exit code 3 reserved for internal checks.

Cell counts stay at most 8, so every integer drawn as a replacement value
does too: the Smith normal forms of dense boundaries grow fast in time with
their size, so large complexes test the arithmetic, not the input handling.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perindex.ahss import twisted_shape_from_json
from perindex.cli import main
from perindex.homology import chain_complex_from_json
from perindex.stable_tables import exponent_table_from_json

MAX_CELLS = 8

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-MAX_CELLS, max_value=MAX_CELLS),
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=20,
)
small_ints = st.integers(min_value=-2, max_value=2) | st.sampled_from([0, 0, 0, 6, 2**70])


@st.composite
def complex_documents(draw):
    """Chain-complex documents of the right shape, with sparse small entries
    so that some boundaries compose to zero."""
    counts = draw(st.lists(st.integers(min_value=0, max_value=MAX_CELLS), min_size=1, max_size=5))
    flats = [
        draw(st.lists(small_ints, min_size=rows * cols, max_size=rows * cols))
        for rows, cols in zip(counts, counts[1:])
    ]
    return {"cell_counts": counts, "boundaries": flats, "name": draw(st.text(max_size=6))}


@st.composite
def shape_documents(draw):
    """Shape documents with d + 1 groups, mostly valid ones."""
    torsion = st.sampled_from([[], [], [], [2], [3], [2, 4], [2, 6], [0], [4, 2]])
    group = st.fixed_dictionaries(
        {}, optional={"free_rank": st.sampled_from([0, 0, 0, 1, 2, -1]), "torsion": torsion}
    )
    d = draw(st.integers(min_value=0, max_value=MAX_CELLS))
    h = draw(st.lists(group, min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        h[0]["free_rank"] = 1
    return {"d": d, "r": draw(st.integers(min_value=2, max_value=24)), "h": h}


def table_documents():
    row = st.fixed_dictionaries({
        "r": st.integers(min_value=2, max_value=30),
        "j": st.integers(min_value=1, max_value=8),
        "invariant_factors": st.lists(st.integers(min_value=-1, max_value=64), max_size=3),
    })
    return st.fixed_dictionaries({"table": st.lists(row, min_size=1, max_size=4)})


@st.composite
def one_value_replaced(draw, documents):
    """A document in which, two times in three, one value is replaced by an
    arbitrary JSON value, most often a scalar: the whole document, or the
    value of a key or a list entry 1, 2 or 3 levels down, each depth equally
    likely (a uniform walk would almost never reach a boundary array)."""
    document = draw(documents)
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        return document
    replacement = draw(json_scalars | json_values)
    depth = draw(st.integers(min_value=0, max_value=3))
    if depth == 0:
        return replacement
    parent, key = None, None
    value = document
    for _ in range(depth):
        if isinstance(value, dict) and value:
            keys = list(value)
        elif isinstance(value, list) and value:
            keys = range(len(value))
        else:
            break
        parent, key = value, draw(st.sampled_from(keys))
        value = parent[key]
    if parent is None:
        return replacement
    parent[key] = replacement
    return document


@pytest.mark.parametrize(
    "loader, documents",
    [
        (chain_complex_from_json, complex_documents()),
        (twisted_shape_from_json, shape_documents()),
        (exponent_table_from_json, table_documents()),
    ],
    ids=["complex", "shape", "table"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_value_errors(loader, documents, data):
    try:
        loader(data.draw(one_value_replaced(documents)))
    except ValueError:
        pass


@pytest.mark.parametrize(
    "loader, document",
    [
        (chain_complex_from_json, {"cell_counts": [1, 1], "boundaries": [5]}),
        (chain_complex_from_json, {"cell_counts": [1, None], "boundaries": [[0]]}),
        (twisted_shape_from_json, {"d": 0, "r": 2, "h": [3]}),
        (exponent_table_from_json, {"table": [{"r": 2, "j": 1, "invariant_factors": 7}]}),
        (exponent_table_from_json, {"table": [None]}),
    ],
)
def test_nested_values_of_the_wrong_type_are_value_errors(loader, document):
    # positions the fuzzer above reaches only now and then
    with pytest.raises(ValueError):
        loader(document)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_cli(argv)
    if code == 0:
        assert err == "", argv
    else:
        assert code == 1, (argv, err)
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith("error: ")
    return code


def file_contents(documents):
    """A file of the kind the command reads, mostly, or any text or bytes."""
    return st.one_of(
        one_value_replaced(documents).map(json.dumps),
        one_value_replaced(documents).map(json.dumps),
        st.text(max_size=20),
        st.binary(max_size=20),
    )


# tmp_path is shared by the examples; each one overwrites the same file
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(["cohomology", "bockstein", "ahss-bound"]),
    st.integers(min_value=-1, max_value=5),
    st.integers(min_value=-1, max_value=12),
    st.booleans(),
    st.data(),
)
def test_cli_exit_codes_on_fuzzed_files(tmp_path, command, degree, modulus, as_json, data):
    path = tmp_path / "doc.json"
    documents = shape_documents() if command == "ahss-bound" else complex_documents()
    contents = data.draw(file_contents(documents))
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(contents, encoding="utf-8")
    if command == "ahss-bound":
        argv = ["ahss-bound", "--shape", str(path)]
    else:
        argv = [command, str(path), "--degree", str(degree), "--mod", str(modulus)]
    assert_contract(argv + ["--json"] * as_json)


def test_deeply_nested_documents_are_domain_errors(tmp_path):
    # the JSON parser raises RecursionError, a RuntimeError, on deep nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (
        ["cohomology", str(path)],
        ["bockstein", str(path), "--degree", "0", "--mod", "2"],
        ["ahss-bound", "--shape", str(path)],
        ["upper-bound", "--dim", "6", "--period", "2", "--tables", str(path)],
    ):
        assert assert_contract(argv) == 1
