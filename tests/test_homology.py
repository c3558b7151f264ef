"""Tests for exact matrices, Smith normal form, cohomology, and the Bockstein."""

import collections
import enum
import hashlib
import itertools
import json
import math
import operator
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perindex import homology
from perindex.ahss import TwistedShape, best_upper_bound
from perindex.homology import (
    BocksteinMap,
    ChainComplex,
    CohomologyGroup,
    ComplexFormatError,
    IntMatrix,
    SmithDecomposition,
    bockstein,
    bockstein_of_cocycle,
    bzr_skeleton_complex,
    chain_complex_from_json,
    chain_complex_to_json,
    cohomology_generators_Z,
    cohomology_mod,
    cohomology_Z,
    _invariant_form,
    load_chain_complex,
    rp_complex,
    smith_normal_form,
    sphere_complex,
)
from perindex.numtheory import factorize

from brute_force import (
    ADD,
    NEG,
    SWAP,
    apply,
    column,
    connected_blocks,
    det_oracle,
    diagonal_matrix,
    elementary_matrix,
    euler_characteristic,
    invariant_form_oracle,
)


def random_matrix(rng, max_dim=30, span=9):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    data = [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(rows, cols, data)


# --- IntMatrix ---------------------------------------------------------------

def test_matmul_and_identity():
    a = IntMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    b = IntMatrix(3, 2, [[7, 8], [9, 10], [11, 12]])
    assert (a @ b).to_lists() == [[58, 64], [139, 154]]
    assert IntMatrix.identity(2) @ a == a
    assert a @ IntMatrix.identity(3) == a


def test_empty_matrices_are_legal():
    empty = IntMatrix(0, 3)
    assert empty.transpose().shape == (3, 0)
    assert (IntMatrix(2, 0) @ IntMatrix(0, 3)).to_lists() == [[0, 0, 0], [0, 0, 0]]
    assert IntMatrix(0, 0).det() == 1


def test_det_examples():
    assert IntMatrix(2, 2, [[2, 0], [0, 3]]).det() == 6
    assert IntMatrix(2, 2, [[0, 1], [1, 0]]).det() == -1
    assert IntMatrix(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det() == 0


def test_det_against_laplace_expansion():
    # the determinant read off the Smith logs against its definition, on
    # seeded matrices from 0 x 0 to 6 x 6; a third are made singular by
    # setting one row to a multiple (possibly 0) of another
    rng = random.Random(23)
    seen = collections.Counter()
    for _ in range(500):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 1 / 3:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [c * x for x in rows[j]]
        a, expected = IntMatrix(n, n, rows), det_oracle(rows)
        assert a.det() == expected, rows
        d = smith_normal_form(a)
        kinds = collections.Counter(d.row_log[::4] + d.col_log[::4])
        seen.update(
            singular=expected == 0,
            swap=kinds[SWAP] > 0,
            negation=kinds[NEG] > 0,
            odd_flips=(kinds[SWAP] + kinds[NEG]) % 2 == 1,
        )
    assert min(seen[k] for k in ("singular", "swap", "negation", "odd_flips")) >= 50, seen


def test_entries_must_be_integers():
    for bad in (1.5, 2.0, True, False, "1", None):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [[bad]])
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [[0, 1], [-1, bad]])


def naive_product(a: list[list[int]], b: list[list[int]], width: int) -> list[list[int]]:
    """Triple-loop product of an m x k and a k x width matrix."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(width)]
        for i in range(len(a))
    ]


def naive_transpose(a: list[list[int]], cols: int) -> list[list[int]]:
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


HUGE = 1 << 3000
# Mostly 0 and +-1, as in boundary matrices, with some 3,000-bit entries.
mixed_entries = st.one_of(
    st.just(0),
    st.sampled_from([1, -1]),
    st.integers(min_value=-HUGE, max_value=HUGE),
)


def matrices(rows: int, cols: int, entries=mixed_entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.data(),
)
def test_matmul_and_transpose_match_naive_oracle(m, k, p, data):
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, p))
    vec = data.draw(st.lists(mixed_entries, min_size=k, max_size=k))
    left, right = IntMatrix(m, k, a), IntMatrix(k, p, b)
    product = left @ right
    assert product.shape == (m, p)
    assert product.data == naive_product(a, b, p)
    assert left.transpose().shape == (k, m)
    assert left.transpose().data == naive_transpose(a, k)
    assert apply(left, vec) == [row[0] for row in naive_product(a, [[x] for x in vec], 1)]
    # results share no rows with their factors
    for row in product.data + left.transpose().data:
        row.append(0)
    assert left.data == a and right.data == b


@pytest.mark.parametrize("m, k, p", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)])
def test_matmul_edge_shapes(m, k, p):
    rng = random.Random(m * 100 + k * 10 + p)
    for entries in ([-1, 0, 1], [0, HUGE - 1, -HUGE + 3]):
        a = [[rng.choice(entries) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice(entries) for _ in range(p)] for _ in range(k)]
        product = IntMatrix(m, k, a) @ IntMatrix(k, p, b)
        assert product.shape == (m, p)
        assert product.data == naive_product(a, b, p)
        assert IntMatrix(m, k, a).transpose() == IntMatrix(k, m, naive_transpose(a, k))


def test_matmul_dense_and_sparse_rows_agree():
    # sparse to full rows of +-1, small and 200-bit entries times 300-bit ones
    rng = random.Random(11)
    for density in (0.1, 0.5, 0.6, 1.0):
        a = [
            [rng.choice([1, -1, 7, -(1 << 200)]) if rng.random() < density else 0
             for _ in range(12)]
            for _ in range(9)
        ]
        b = [[rng.randint(-(1 << 300), 1 << 300) for _ in range(5)] for _ in range(12)]
        assert (IntMatrix(9, 12, a) @ IntMatrix(12, 5, b)).data == naive_product(a, b, 5)


# --- Smith normal form -------------------------------------------------------

def test_snf_examples():
    d = smith_normal_form(IntMatrix(2, 2, [[2, 0], [0, 3]]))
    assert d.diagonal() == (1, 6)

    zero = IntMatrix(3, 2)
    d = smith_normal_form(zero)
    assert diagonal_matrix(3, 2, d.diagonal()) == zero
    assert d.U == IntMatrix.identity(3)
    assert d.V == IntMatrix.identity(2)

    d = smith_normal_form(IntMatrix(1, 1, [[7]]))
    assert d.diagonal() == (7,)


def test_snf_verifies_by_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        a = random_matrix(rng, max_dim=8)
        d = smith_normal_form(a)
        assert d.U @ a @ d.V == diagonal_matrix(*a.shape, d.diagonal())
        assert abs(d.U.det()) == 1
        assert abs(d.V.det()) == 1
        assert d.U @ d.u_inv == IntMatrix.identity(a.rows)
        assert d.V @ d.v_inv == IntMatrix.identity(a.cols)
        diag = d.diagonal()
        for i in range(1, len(diag)):
            if diag[i - 1]:
                assert diag[i] % diag[i - 1] == 0
            else:
                assert diag[i] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6), st.data())
def test_snf_roundtrip_property(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    a = IntMatrix(rows, cols, entries)
    d = smith_normal_form(a)
    assert d.U @ a @ d.V == diagonal_matrix(rows, cols, d.diagonal())
    assert d.rank == sum(1 for x in d.diagonal() if x)


def _with_op(log, index, op):
    """The flat log with operation ``index`` replaced by ``op``, four integers."""
    log = list(log)
    log[4 * index : 4 * index + 4] = op
    return log


def _ops(log):
    """A flat log as (kind, i, t, q) tuples."""
    return [tuple(log[k : k + 4]) for k in range(0, len(log), 4)]


def _log_mutants():
    """(matrix, decomposition, message) triples for SmithDecomposition.verify.

    Each of the first six corrupts a valid decomposition once, five in its
    row log and one in its diagonal, and must fail the replay with its own
    message.  The next five break the form of a log, two of them in the
    quadruples verify checks itself, then come two of the wrong shape.  The
    last three, on the diagonal's form, carry logs whose replay ends at the
    stored diagonal, so the form check alone must catch them.
    """
    a = IntMatrix(3, 4, [[2, 4, 6, 8], [1, 3, 5, 7], [3, 7, 11, 15]])
    good = smith_normal_form(a)
    assert good.diagonal() == (1, 2, 0)
    rows, cols = good.row_log, good.col_log
    # the five row and five column operations, as (kind, i, t, q)
    assert _ops(rows) == [
        (SWAP, 0, 1, 0),
        (ADD, 1, 0, -2),
        (ADD, 2, 0, -3),
        (NEG, 1, 1, 0),
        (ADD, 2, 1, 1),
    ]
    assert _ops(cols) == [
        (ADD, 1, 0, -3),
        (ADD, 2, 0, -5),
        (ADD, 3, 0, -7),
        (ADD, 2, 1, -2),
        (ADD, 3, 1, -3),
    ]

    def mutant(row_log=rows, col_log=cols, diag=good.diag):
        return SmithDecomposition(good.shape, diag, row_log, col_log)

    mutants = [
        # a dropped operation
        (a, mutant(rows[:4] + rows[8:]), "replay leaves -2 at (1, 0), off the diagonal"),
        # a wrong multiplier
        (
            a,
            mutant(_with_op(rows, 2, (ADD, 2, 0, -2))),
            "replay leaves 1 at (2, 0), off the diagonal",
        ),
        # a self-add, which would scale row 2 by 2
        (a, mutant(_with_op(rows, 4, (ADD, 2, 2, 1))), "row operation 4 adds a row to itself"),
        # a row index that would be in range for a column
        (
            a,
            mutant(_with_op(rows, 4, (ADD, 3, 1, 1))),
            "row operation 4 has an index out of range",
        ),
        # a wrong diagonal entry
        (a, mutant(diag=(1, 4, 0)), "replay gives 2 at (1, 1), the diagonal has 4"),
        # two operations swapped: row 2 += row 1 before row 1 is negated
        (
            a,
            mutant(rows[:12] + rows[16:20] + rows[12:16]),
            "replay leaves -4 at (2, 1), off the diagonal",
        ),
        # the column log's own form: a self-add, a negative index, which
        # would name the last column, and kind 3, a column addition in the
        # older format, which had five kinds
        (
            a,
            mutant(col_log=_with_op(cols, 3, (ADD, 2, 2, -2))),
            "column operation 3 adds a column to itself",
        ),
        (
            a,
            mutant(col_log=_with_op(cols, 3, (ADD, 2, -1, -2))),
            "column operation 3 has an index out of range",
        ),
        (a, mutant(col_log=_with_op(cols, 0, (3, 1, 0, -3))), "column operation 0 has no kind 3"),
        # the quadruples themselves: a cut record, and a float multiplier
        (a, mutant(col_log=cols[:-1]), "column log is not integer quadruples"),
        # a multiplier of 1/2, with which the replay would reach diag(1) from
        # [[2], [0]], whose Smith form is diag(2)
        (
            IntMatrix(2, 1, [[2], [0]]),
            homology.SmithDecomposition(
                (2, 1), (1,), [ADD, 1, 0, 0.5, ADD, 0, 1, -2, SWAP, 0, 1, 0], []
            ),
            "row log is not integer quadruples",
        ),
        # one diagonal entry short, and a source of another shape
        (a, mutant(diag=(1, 2)), "shapes"),
        (IntMatrix(3, 5), good, "shapes"),
        # -d_2, with row 1 negated at the end of the row log
        (a, mutant(rows + [NEG, 1, 1, 0], diag=(1, -2, 0)), "negative diagonal"),
        # d_2 and d_3 = 0 swapped by a row and a column swap at the end of the logs
        (
            a,
            mutant(rows + [SWAP, 1, 2, 0], cols + [SWAP, 1, 2, 0], (1, 0, 2)),
            "zeros must trail",
        ),
        # diag(2, 3) is its own reduction by the empty logs, but 2 does not divide 3
        (
            IntMatrix(2, 2, [[2, 0], [0, 3]]),
            homology.SmithDecomposition((2, 2), (2, 3), [], []),
            "divisibility chain",
        ),
    ]
    return [(m, d, "Smith decomposition failed: " + message) for m, d, message in mutants]


def test_verify_catches_every_mutation():
    mutants = _log_mutants()
    for a, decomposition, message in mutants:
        with pytest.raises(RuntimeError) as err:
            decomposition.verify(a)
        assert str(err.value) == message
    # every mutant but the two of the wrong shape is named by its own message
    assert len({message for _, _, message in mutants}) == len(mutants) - 1
    # the elimination adds columns only once the pivot column is zero off
    # the pivot, but these two column additions each meet a second nonzero
    # entry in the column they add: a replay that updated only row t on a
    # column operation would refuse them, a whole-column replay reaches I
    a = IntMatrix(2, 2, [[1, 1], [1, 2]])
    SmithDecomposition((2, 2), (1, 1), [], [ADD, 1, 0, -1, ADD, 0, 1, -1]).verify(a)
    # the dropped, wrong and swapped operations are still elementary, so their
    # witnesses are unimodular, but they do not reduce A to D
    for a, d, _ in [mutants[i] for i in (0, 1, 5)]:
        assert abs(d.U.det()) == abs(d.V.det()) == 1
        assert d.U @ a @ d.V != diagonal_matrix(*a.shape, d.diag)
    # the diagonal-form mutants replay to their stored diagonals
    for a, d, _ in mutants[-3:]:
        assert d.U @ a @ d.V == diagonal_matrix(*a.shape, d.diag)


WITNESSES = ("U", "u_inv", "V", "v_inv")


def test_witnesses_refuse_malformed_logs():
    # each witness replays its side's log and refuses, naming the operation
    # by its place in the log also where it is replayed in reverse, what
    # verify refuses: a self-addition (with the row log [ADD, 1, 1, 5], U
    # would scale row 1 by 6), an index out of range, negative or not (-1
    # would name the last row), and a kind that does not exist
    good = [SWAP, 0, 1, 0]
    malformed = [
        ([ADD, 1, 1, 5], "adds a {side} to itself"),
        ([SWAP, 0, 2, 0], "has an index out of range"),
        ([SWAP, 0, -1, 0], "has an index out of range"),
        ([ADD, 0, -2, 1], "has an index out of range"),
        ([9, 0, 1, 0], "has no kind 9"),
    ]
    for op, problem in malformed:
        for side, witnesses in (("row", ("U", "u_inv")), ("column", ("V", "v_inv"))):
            log = good + op
            d = SmithDecomposition((2, 2), (1, 1), *((log, []) if side == "row" else ([], log)))
            message = f"Smith decomposition failed: {side} operation 1 {problem.format(side=side)}"
            for which in witnesses:
                with pytest.raises(RuntimeError) as err:
                    getattr(d, which)
                assert str(err.value) == message
                with pytest.raises(RuntimeError) as err:
                    d._act(which, [[1], [2]])
                assert str(err.value) == message
            with pytest.raises(RuntimeError) as err:
                d.verify(IntMatrix(2, 2, [[0, 1], [1, 0]]))
            assert str(err.value) == message
            # the other side's witnesses read only their own, empty, log
            for which in set(WITNESSES) - set(witnesses):
                assert getattr(d, which) == IntMatrix.identity(2)


def test_witness_actions_and_verify_do_not_use_the_elimination_arithmetic(monkeypatch):
    # the replay is written apart from _axpy, which the elimination uses: with
    # _axpy broken, verify, the witnesses and _act give what they gave before
    rng = random.Random(18)
    cases = []
    for _ in range(30):
        a = random_matrix(rng, max_dim=8)
        d = smith_normal_form(a)
        rows = {}
        for w in WITNESSES:
            size = a.rows if w in ("U", "u_inv") else a.cols
            rows[w] = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(size)]
        witnesses = {w: getattr(d, w) for w in WITNESSES}
        acted = {w: d._act(w, rows[w]) for w in WITNESSES}
        cases.append((a, d, rows, witnesses, acted))

    def broken(*args):
        raise AssertionError("_axpy called")

    monkeypatch.setattr(homology, "_axpy", broken)
    # the patch is live: the elimination clears 3 under the pivot 2 with _axpy
    with pytest.raises(AssertionError):
        smith_normal_form(IntMatrix(2, 1, [[2], [3]]))
    for a, d, rows, witnesses, acted in cases:
        d.verify(a)
        assert {w: getattr(d, w) for w in WITNESSES} == witnesses
        assert {w: d._act(w, rows[w]) for w in WITNESSES} == acted


def _random_ops(rng, size, length):
    """length operations (kind, i, t, q) of any kind that fits size rows
    (or columns), in any order: swaps may repeat an index, and negations
    and additions may hit any row or column, finished or not."""
    kinds = [kind for kind, least in ((SWAP, 1), (NEG, 1), (ADD, 2)) if size >= least]
    ops = []
    for _ in range(length if kinds else 0):
        kind = rng.choice(kinds)
        i = rng.randrange(size)
        if kind == NEG:
            ops.append((kind, i, i, 0))
        elif kind == SWAP:
            ops.append((kind, i, rng.randrange(size), 0))
        else:
            t = rng.choice([x for x in range(size) if x != i])
            ops.append((kind, i, t, rng.choice([-1, 1]) * rng.randint(1, 5)))
    return ops


def _oracle_witnesses(row_ops, col_ops, m, n):
    """U, u_inv, V and v_inv of a row log and a column log, as products of
    their elementary matrices: U = E_k ... E_1 over the row operations,
    V = F_1 ... F_k over the column operations, and the inverses from the
    inverse operations, an addition's with its multiplier negated."""
    u = u_inv = IntMatrix.identity(m)
    for kind, i, t, q in row_ops:
        e = elementary_matrix("row", (kind, i, t, q), m)
        u, u_inv = e @ u, u_inv @ elementary_matrix("row", (kind, i, t, -q), m)
    v = v_inv = IntMatrix.identity(n)
    for kind, i, t, q in col_ops:
        e = elementary_matrix("column", (kind, i, t, q), n)
        v, v_inv = v @ e, elementary_matrix("column", (kind, i, t, -q), n) @ v_inv
    return {"U": u, "u_inv": u_inv, "V": v, "v_inv": v_inv}


def _occurs_after(kinds, later, earlier):
    return earlier in kinds and later in kinds[kinds.index(earlier) + 1 :]


def _flat(ops):
    return [x for op in ops for x in op]


def test_replay_of_arbitrary_logs_matches_elementary_products():
    rng = random.Random(2718)
    unusual_orders = column_negations = refused = 0
    for _ in range(200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        ops = {"row": _random_ops(rng, m, rng.randint(0, 8))}
        ops["column"] = _random_ops(rng, n, rng.randint(0, 8))
        row_kinds, col_kinds = ([op[0] for op in ops[side]] for side in ("row", "column"))
        # the elimination swaps columns only before it adds them, negates a
        # row only while it is the pivot row, and negates no column
        unusual_orders += _occurs_after(col_kinds, SWAP, ADD)
        unusual_orders += _occurs_after(row_kinds, NEG, ADD)
        column_negations += NEG in col_kinds
        oracle = _oracle_witnesses(ops["row"], ops["column"], m, n)
        assert oracle["U"] @ oracle["u_inv"] == IntMatrix.identity(m)
        assert oracle["V"] @ oracle["v_inv"] == IntMatrix.identity(n)
        diag = [0] * min(m, n)
        d = 1
        for i in range(rng.randint(0, min(m, n))):
            diag[i] = d = d * rng.choice([1, 1, 2, 3, 5])
        decomposition = SmithDecomposition(
            (m, n), tuple(diag), _flat(ops["row"]), _flat(ops["column"])
        )
        # each witness acts on random rows as its brute-force product
        for which, w in oracle.items():
            x = IntMatrix(w.cols, 2, [[rng.randint(-9, 9) for _ in range(2)] for _ in w.data])
            assert decomposition._act(which, x.data) == (w @ x).data
            assert getattr(decomposition, which) == w
        # A = u_inv D v_inv reduces to D by the logs
        target = diagonal_matrix(m, n, diag)
        a = oracle["u_inv"] @ target @ oracle["v_inv"]
        decomposition.verify(a)
        # one changed multiplier: verify refuses A exactly when U' A V' is not D
        adds = [(side, k) for side in ops for k, op in enumerate(ops[side]) if op[0] == ADD]
        if not adds:
            continue
        side, k = rng.choice(adds)
        changed = {s: list(ops[s]) for s in ops}
        kind, i, t, q = changed[side][k]
        changed[side][k] = (kind, i, t, q + rng.choice([-2, -1, 1, 2]))
        other = _oracle_witnesses(changed["row"], changed["column"], m, n)
        mutant = SmithDecomposition(
            (m, n), tuple(diag), _flat(changed["row"]), _flat(changed["column"])
        )
        if other["U"] @ a @ other["V"] == target:
            mutant.verify(a)
        else:
            refused += 1
            with pytest.raises(RuntimeError, match="replay"):
                mutant.verify(a)
    assert unusual_orders and column_negations and refused


def test_snf_pivots_on_negative_rounded_residues():
    # the nearest quotient leaves a negative residue, which the next round
    # swaps up as the pivot and negates
    cases = [
        ([[5], [3]], (1,), (ADD, 1, 0, -2), (ADD, 1, 0, -3)),  # 5 - 2*3 = -1
        ([[-6], [4]], (2,), (ADD, 1, 0, 1), (ADD, 1, 0, -2)),  # -6 + 4 = -2
    ]
    for rows, diag, first, last in cases:
        a = IntMatrix(2, 1, rows)
        d = smith_normal_form(a)
        d.verify(a)
        assert d.diagonal() == diag
        swap = (SWAP, 0, 1, 0)
        assert _ops(d.row_log) == [swap, first, swap, (NEG, 0, 0, 0), last]
        assert d.col_log == []
    # rank-deficient: rows 0 and 1 are 2 and 3 times (2, 3, 1)
    a = IntMatrix(3, 3, [[4, 6, 2], [6, 9, 3], [2, 8, 10]])
    d = smith_normal_form(a)
    d.verify(a)
    assert d.diagonal() == (1, 2, 0)
    assert d.U @ a @ d.V == diagonal_matrix(3, 3, (1, 2, 0))


def test_dense_snf_operation_count():
    # a deterministic stand-in for a timing test: 11,362 operations when
    # every pivot rescanned the whole block and quotients were floored
    rng = random.Random(2026)
    a = IntMatrix(48, 48, [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)])
    d = smith_normal_form(a)
    # 7,990 row and 1,166 column operations, counted by kind
    assert collections.Counter(d.row_log[::4]) == {ADD: 7124, SWAP: 570, NEG: 296}
    assert collections.Counter(d.col_log[::4]) == {ADD: 1121, SWAP: 45}
    assert len(d.row_log) // 4 + len(d.col_log) // 4 == 9156 < 11362


def test_snf_diagonals_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(1997)
    rectangular = deficient = 0
    for case in range(20):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        if case % 3:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        else:
            # a product through fewer than min(m, n) dimensions
            inner = rng.randint(0, min(m, n) - 1)
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(m)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)]
            rows = (IntMatrix(m, inner, left) @ IntMatrix(inner, n, right)).to_lists()
        d = smith_normal_form(IntMatrix(m, n, rows))
        expected = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert d.diagonal() == tuple(int(x) for x in expected), rows
        rectangular += m != n
        deficient += d.rank < min(m, n)
    assert rectangular >= 10 and deficient >= 7


# --- Chain complexes ---------------------------------------------------------

def test_complex_rejects_nonzero_composition():
    b1 = IntMatrix(1, 1, [[1]])
    b2 = IntMatrix(1, 1, [[1]])
    with pytest.raises(ComplexFormatError) as err:
        ChainComplex((1, 1, 1), (b1, b2))
    assert "k=1, row=0, col=0" in str(err.value)


def first_nonzero_composition(boundaries):
    """(k, row, col) of the first nonzero entry of a product d_k d_(k+1) of
    dense matrices, entry by entry: the least k, then row, then column;
    None when every product is zero.  Also whether, in that row, some
    entry of the product is zero although a term of its sum is not."""
    for k, (left, right) in enumerate(zip(boundaries, boundaries[1:]), start=1):
        for i, row in enumerate(left.data):
            terms = [[x * right.data[t][j] for t, x in enumerate(row)] for j in range(right.cols)]
            sums = [sum(ts) for ts in terms]
            if any(sums):
                cancelled = any(any(ts) and not s for ts, s in zip(terms, sums))
                return (k, i, next(j for j, s in enumerate(sums) if s)), cancelled
    return None, False


def test_composition_check_names_the_first_offender():
    """Rebased product complexes, which compose to zero only by cancellation,
    with one to three entries changed: the complex is refused exactly when
    a dense product of consecutive boundaries is nonzero, naming its first
    nonzero entry."""
    rng = random.Random(23)
    factors = [((2, 3), (3, 3)), ((4, 2), (6, 3)), ((2, 2), (3, 2), (2, 2))]
    seen = collections.Counter()
    for trial in range(150):
        dims = factors[trial % len(factors)]
        c = rebased(tensor_complex(*(bzr_skeleton_complex(r, top) for r, top in dims)), rng)
        boundaries = [IntMatrix(b.rows, b.cols, b.data) for b in c.boundaries]
        for _ in range(rng.randint(0, 3)):
            b = rng.choice([b for b in boundaries if b.rows and b.cols])
            b.data[rng.randrange(b.rows)][rng.randrange(b.cols)] += rng.choice((-2, -1, 1, 3))
        expected, cancelled = first_nonzero_composition(boundaries)
        if expected is None:
            ChainComplex(c.cell_counts, boundaries)
            seen["accepted"] += 1
            continue
        with pytest.raises(ComplexFormatError) as err:
            ChainComplex(c.cell_counts, boundaries)
        k, i, j = expected
        assert str(err.value) == f"boundary composition is nonzero at k={k}, row={i}, col={j}"
        seen.update(k=k > 1, row=i > 0, col=j > 0, cancelled=cancelled)
    assert seen["accepted"] >= 5 and all(seen[key] >= 10 for key in ("k", "row", "col", "cancelled"))


def test_complex_rejects_dimension_mismatch():
    with pytest.raises(ComplexFormatError):
        ChainComplex((1, 2), (IntMatrix(1, 1, [[0]]),))


@pytest.mark.parametrize("counts", [[2.7, True], [2, True], [1.0], ["1"], [None], [-1], []])
def test_complex_refuses_non_integer_cell_counts(counts):
    with pytest.raises(ComplexFormatError, match="cell counts"):
        ChainComplex(counts, [IntMatrix(2, 1)] * (len(counts) - 1))


def test_complex_refuses_more_than_max_cells():
    assert ChainComplex([homology.MAX_CELLS], []).cell_counts == (homology.MAX_CELLS,)
    with pytest.raises(ComplexFormatError, match="more than the limit"):
        ChainComplex([homology.MAX_CELLS, 1], [IntMatrix(0, 0)])
    # a short document may claim any count: it is refused before any row exists
    for counts in ([10**12, 0], [homology.MAX_CELLS // 2 + 1] * 2, [2**64]):
        doc = {"cell_counts": counts, "boundaries": [[]] * (len(counts) - 1)}
        tracemalloc.start()
        try:
            with pytest.raises(ComplexFormatError, match="more than the limit"):
                chain_complex_from_json(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_coboundary_is_transpose():
    c = rp_complex(2)
    assert c.coboundary(0) == c.boundaries[0].transpose()
    assert c.coboundary(2).shape == (0, 1)
    with pytest.raises(ValueError):
        c.coboundary(3)


def test_fixture_shapes():
    c = bzr_skeleton_complex(3, 5)
    assert c.cell_counts == (1,) * 6
    assert [b.to_lists() for b in c.boundaries] == [[[0]], [[3]], [[0]], [[3]], [[0]]]
    s = sphere_complex(4)
    assert s.cell_counts == (1, 0, 0, 0, 1)


# --- Cohomology over Z -------------------------------------------------------

def test_bzr_skeleton_cohomology():
    for r in (2, 3, 4, 6):
        c = bzr_skeleton_complex(r, 9)
        assert cohomology_Z(c, 0).free_rank == 1
        assert cohomology_Z(c, 0).torsion == ()
        for k in range(1, 9):
            g = cohomology_Z(c, k)
            if k % 2 == 0:
                assert (g.free_rank, g.torsion) == (0, (r,))
            else:
                assert (g.free_rank, g.torsion) == (0, ())


def test_sphere_cohomology():
    for n in (1, 2, 3, 6):
        c = sphere_complex(n)
        for k in range(n + 1):
            g = cohomology_Z(c, k)
            expected_rank = 1 if k in (0, n) else 0
            assert (g.free_rank, g.torsion) == (expected_rank, ())


def test_rp2_cohomology():
    c = rp_complex(2)
    assert (cohomology_Z(c, 0).free_rank, cohomology_Z(c, 0).torsion) == (1, ())
    assert (cohomology_Z(c, 1).free_rank, cohomology_Z(c, 1).torsion) == (0, ())
    assert (cohomology_Z(c, 2).free_rank, cohomology_Z(c, 2).torsion) == (0, (2,))


def test_degree_out_of_range():
    c = sphere_complex(2)
    with pytest.raises(ValueError):
        cohomology_Z(c, 3)
    with pytest.raises(ValueError):
        cohomology_mod(c, -1, 2)


def test_euler_characteristic_consistency():
    fixtures = [bzr_skeleton_complex(2, 9), bzr_skeleton_complex(3, 6), sphere_complex(4), rp_complex(2)]
    for c in fixtures:
        alt_sum = sum(
            (-1) ** k * cohomology_Z(c, k).free_rank for k in range(c.top_dim + 1)
        )
        assert alt_sum == euler_characteristic(c)


def test_multicell_complex_cohomology():
    # two 0-cells, one 1-cell joining them: an interval, contractible
    c = ChainComplex((2, 1), (IntMatrix(2, 1, [[1], [-1]]),), name="interval")
    assert (cohomology_Z(c, 0).free_rank, cohomology_Z(c, 0).torsion) == (1, ())
    assert (cohomology_Z(c, 1).free_rank, cohomology_Z(c, 1).torsion) == (0, ())


def test_generators_have_stated_orders():
    c = bzr_skeleton_complex(4, 6)
    gens = cohomology_generators_Z(c, 2)
    assert len(gens) == 1
    cochain, order = gens[0]
    assert order == 4
    assert len(cochain) == 1


def _generators_by_column(c, k):
    """The per-column formula cohomology_generators_Z once used: one dense
    matrix-vector product per generator, n_k^3 multiplications in all."""
    n_k = c.cell_counts[k]
    snf_out = smith_normal_form(c.coboundary(k))
    rank = snf_out.rank
    incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(n_k, 0)
    w = snf_out.v_inv @ incoming
    snf_q = smith_normal_form(IntMatrix(n_k - rank, incoming.cols, w.data[rank:]))
    kernel_basis = IntMatrix(n_k, n_k - rank, [row[rank:] for row in snf_out.V.data])
    orders = snf_q.diagonal()[: snf_q.rank] + (0,) * (n_k - rank - snf_q.rank)
    return [
        (apply(kernel_basis, column(snf_q.u_inv, i)), d) for i, d in enumerate(orders) if d != 1
    ]


def test_generators_match_the_per_column_formula():
    complexes = [bzr_skeleton_complex(r, 6) for r in (2, 3, 4, 6)]
    complexes += [sphere_complex(3), rp_complex(2)]
    complexes.append(tensor_complex(bzr_skeleton_complex(6, 3), bzr_skeleton_complex(4, 3)))
    column = [1 + i % 7 for i in range(120)]
    complexes.append(chain_complex_from_json({"cell_counts": [120, 1], "boundaries": [column]}))
    rng = random.Random(12)
    for _ in range(20):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        boundary = [rng.randint(-9, 9) for _ in range(m * n)]
        complexes.append(chain_complex_from_json({"cell_counts": [m, n], "boundaries": [boundary]}))
    for c in complexes:
        for k in range(c.top_dim + 1):
            assert cohomology_generators_Z(c, k) == _generators_by_column(c, k), (c.name, k)


def test_generators_of_a_dense_boundary():
    # 999 free generators from one product; one matrix-vector product each
    # was cubic in the cells
    boundary = [1 + i % 7 for i in range(1000)]
    c = chain_complex_from_json({"cell_counts": [1000, 1], "boundaries": [boundary]})
    gens = cohomology_generators_Z(c, 0)
    assert len(gens) == 999
    for cochain, order in gens:
        assert order == 0
        assert sum(map(operator.mul, cochain, boundary)) == 0


# --- Mod-r cohomology --------------------------------------------------------

def test_mod_cohomology_examples():
    c = bzr_skeleton_complex(2, 9)
    assert (cohomology_mod(c, 1, 2).free_rank, cohomology_mod(c, 1, 2).torsion) == (0, (2,))
    s = sphere_complex(2)
    assert cohomology_mod(s, 1, 3).torsion == ()
    assert cohomology_mod(s, 1, 3).free_rank == 0
    r2 = rp_complex(2)
    assert cohomology_mod(r2, 2, 2).torsion == (2,)


def test_mod_cohomology_counts_both_sources():
    # on the r-skeleton every degree below the top carries one Z/r mod r:
    # reductions of integral classes and preimages of torsion alternate
    for r in (2, 3, 4):
        c = bzr_skeleton_complex(r, 7)
        for k in range(0, 7):
            assert cohomology_mod(c, k, r).torsion == (r,)


def test_mod_cohomology_with_coprime_modulus():
    c = bzr_skeleton_complex(2, 5)
    for k in range(1, 5):
        g = cohomology_mod(c, k, 3)
        assert g.torsion == ()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=1, max_value=60), max_size=6),
)
def test_mod_cohomology_matches_the_full_sweep(r, free, diagonal):
    # a diagonal boundary with `free` zero columns: mod r, degree 1 is
    # (Z/r)^free plus Z/gcd(d, r) per entry d, and degree 0 the gcds alone
    m, n = len(diagonal), len(diagonal) + free
    data = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(diagonal)]
    c = ChainComplex((m, n), (IntMatrix(m, n, data),))
    gcds = [math.gcd(d, r) for d in diagonal]
    assert cohomology_mod(c, 0, r).torsion == invariant_form_oracle(gcds)
    assert cohomology_mod(c, 1, r).torsion == invariant_form_oracle([r] * free + gcds)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from([1, *pool]), max_size=12)
    )
)
def test_invariant_form_matches_the_primary_decomposition(orders):
    # the pool makes repeated orders and trivial summands Z/1 common
    assert _invariant_form(orders) == invariant_form_oracle(orders)


def test_invariant_form_oracle_examples():
    assert invariant_form_oracle([]) == invariant_form_oracle([1, 1]) == ()
    assert invariant_form_oracle([4, 6]) == (2, 12)
    assert invariant_form_oracle([2, 3, 2, 9, 1]) == (6, 18)


def test_mod_cohomology_is_linear_in_the_free_rank():
    # a gcd/lcm sweep over every summand is quadratic: about 1.9 s already at 4,000
    c = ChainComplex([50_000], [])
    start = time.perf_counter()
    group = cohomology_mod(c, 0, 6)
    assert time.perf_counter() - start < 2
    assert group.torsion == (6,) * 50_000


# --- Bockstein ---------------------------------------------------------------

def test_bockstein_is_isomorphism_on_bz2_skeleton():
    c = bzr_skeleton_complex(2, 9)
    beta = bockstein(c, 1, 2)
    assert beta.source.torsion == (2,)
    assert beta.target.torsion == (2,)
    assert beta.matrix.to_lists() == [[1]]
    assert beta.is_isomorphism()
    assert not beta.is_zero()


def test_bockstein_zero_on_spheres():
    s = sphere_complex(3)
    for k in range(3):
        for r in (2, 3, 4):
            assert bockstein(s, k, r).is_zero()


def test_bockstein_annihilated_by_r():
    for r in (2, 3, 4, 6):
        c = bzr_skeleton_complex(r, 8)
        for k in range(8):
            beta = bockstein(c, k, r)
            for row, order in zip(beta.matrix.data, beta.target_orders):
                for entry in row:
                    assert (r * entry) % order == 0 if order else entry == 0


def test_bockstein_kills_reductions_of_integral_classes():
    for r in (2, 3, 4):
        c = bzr_skeleton_complex(r, 8)
        for k in range(8):
            for cochain, _ in cohomology_generators_Z(c, k):
                image = bockstein_of_cocycle(c, k, r, cochain)
                assert all(x == 0 for x in image)


def test_bockstein_degree_range():
    c = sphere_complex(2)
    with pytest.raises(ValueError):
        bockstein(c, 2, 2)


def test_bockstein_rejects_non_cocycle():
    c = bzr_skeleton_complex(2, 4)
    with pytest.raises(ValueError):
        bockstein_of_cocycle(c, 1, 4, [1])  # delta(x) = 2x, not divisible by 4
    c = bzr_skeleton_complex(6, 4)
    with pytest.raises(ValueError, match="not a cocycle mod r"):
        bockstein_of_cocycle(c, 1, 4, [1])  # delta(x) = 6x
    assert bockstein_of_cocycle(c, 1, 4, [2]) == (3,)  # 6 * 2 / 4 = 3 in Z/6
    for k, r, cochain in ((1, 4, [2, 0]), (1, 1, [2]), (4, 2, [1])):
        with pytest.raises(ValueError):
            bockstein_of_cocycle(c, k, r, cochain)


def test_bockstein_of_cocycle_refuses_non_integer_entries():
    c = bzr_skeleton_complex(2, 4)
    assert bockstein_of_cocycle(c, 1, 2, [1]) == (1,)
    for cochain in ([1.0], [True], ["1"]):
        with pytest.raises(ValueError, match="must be integers"):
            bockstein_of_cocycle(c, 1, 2, cochain)


def test_bockstein_of_cocycle_refuses_a_cochain_of_the_wrong_length():
    c = chain_complex_from_json({"cell_counts": [2, 1], "boundaries": [[2, 4]]})
    assert bockstein_of_cocycle(c, 0, 2, [1, 0]) == (1,)  # delta = 2, half of it generates Z/2
    for cochain in ([], [1], [1, 0, 0], iter([1, 0, 0])):
        with pytest.raises(ValueError, match="cochain of length"):
            bockstein_of_cocycle(c, 0, 2, cochain)


def enumerated_isomorphism(beta):
    """Reference bijectivity check: push every source element through the
    matrix and count the distinct images."""
    if beta.source.free_rank or beta.target.free_rank:
        return False
    images = {
        tuple(
            sum(m * x for m, x in zip(row, element)) % d
            for row, d in zip(beta.matrix.data, beta.target_orders)
        )
        for element in itertools.product(*(range(o) for o in beta.source_orders))
    }
    return len(images) == math.prod(beta.source_orders) == math.prod(beta.target_orders)


def finite_map(source_orders, target_orders, rows):
    return BocksteinMap(
        degree=0,
        modulus=2,
        source=CohomologyGroup(0, 0, source_orders),
        target=CohomologyGroup(1, 0, target_orders),
        matrix=IntMatrix(len(target_orders), len(source_orders), rows),
        source_orders=source_orders,
        target_orders=target_orders,
    )


def test_is_isomorphism_matches_enumeration():
    # groups of equal order, so that both answers occur
    families = [
        [(2, 2), (4,)],
        [(2, 2, 2), (2, 4), (8,)],
        [(3, 3), (9,)],
        [(2, 6), (12,)],
        [(2, 2, 4), (4, 4), (2, 8), (16,)],
        [(3, 6), (18,)],
    ]
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        family = rng.choice(families)
        source, target = rng.choice(family), rng.choice(family)
        if rng.random() < 0.1:
            target = rng.choice(rng.choice(families))
        # the image of a generator of order s in Z/t is a multiple of t/gcd(s, t);
        # representatives are not reduced, to exercise entries beyond t
        rows = [
            [
                rng.randrange(math.gcd(s, t)) * (t // math.gcd(s, t)) + t * rng.randint(-1, 1)
                for s in source
            ]
            for t in target
        ]
        beta = finite_map(source, target, rows)
        expected = enumerated_isomorphism(beta)
        assert beta.is_isomorphism() == expected
        outcomes.add(expected)
    assert outcomes == {True, False}

    for r in (2, 3, 4, 6):
        for c in (bzr_skeleton_complex(r, 6), sphere_complex(3), rp_complex(5)):
            for k in range(c.top_dim):
                beta = bockstein(c, k, r)
                assert beta.is_isomorphism() == enumerated_isomorphism(beta)


def test_is_isomorphism_has_no_size_cap():
    orders = (101, 101)
    assert finite_map(orders, orders, [[1, 0], [0, 1]]).is_isomorphism()
    assert not finite_map(orders, orders, [[1, 0], [1, 0]]).is_isomorphism()


def test_is_isomorphism_refuses_a_matrix_of_the_wrong_height():
    # groups of equal order, so that the check reaches the matrix
    beta = BocksteinMap(
        degree=0,
        modulus=2,
        source=CohomologyGroup(0, 0, (4,)),
        target=CohomologyGroup(1, 0, (2, 2)),
        matrix=IntMatrix(1, 1, [[1]]),
        source_orders=(4,),
        target_orders=(2, 2),
    )
    with pytest.raises(ValueError):
        beta.is_isomorphism()


# --- Universal coefficient groups against the witness path and Kunneth -------

UCT_MODULI = (2, 3, 4, 6, 12)


def tensor_complex(*factors):
    """Cellular tensor product: cells (p, i, q, j) of degree p + q, ordered by
    p, with boundary d(x (x) y) = dx (x) y + (-1)^p x (x) dy."""
    a, *rest = factors
    for b in rest:
        top = a.top_dim + b.top_dim
        cells = [
            [
                (p, i, n - p, j)
                for p in range(max(0, n - b.top_dim), min(n, a.top_dim) + 1)
                for i in range(a.cell_counts[p])
                for j in range(b.cell_counts[n - p])
            ]
            for n in range(top + 1)
        ]
        index = [{cell: pos for pos, cell in enumerate(level)} for level in cells]
        boundaries = []
        for n in range(1, top + 1):
            m = IntMatrix(len(cells[n - 1]), len(cells[n]))
            for col, (p, i, q, j) in enumerate(cells[n]):
                if p:
                    for i2, x in enumerate(column(a.boundary(p), i)):
                        if x:
                            m.data[index[n - 1][(p - 1, i2, q, j)]][col] += x
                if q:
                    for j2, y in enumerate(column(b.boundary(q), j)):
                        if y:
                            m.data[index[n - 1][(p, i, q - 1, j2)]][col] += (-1) ** p * y
            boundaries.append(m)
        a = ChainComplex([len(level) for level in cells], boundaries)
    return a


def bzr_groups(r, top):
    """Integral cohomology of bzr_skeleton_complex(r, top) as (free rank,
    torsion) pairs: Z in degree 0, Z/r in even degrees, 0 in odd degrees
    below the top, Z in an odd top degree."""
    return [(1, [])] + [
        (0, [r]) if k % 2 == 0 else (1 if k == top else 0, []) for k in range(1, top + 1)
    ]


def sphere_groups(n):
    return [(1 if k in (0, n) else 0, []) for k in range(n + 1)]


def kunneth(*factor_groups):
    """H^n of a tensor product: the tensor products of H^p and H^q with
    p + q = n, plus Tor(H^p, H^q) with p + q = n + 1."""
    ha, *rest = factor_groups
    for hb in rest:
        out = [[0, []] for _ in range(len(ha) + len(hb) - 1)]
        for (p, (fa, ta)), (q, (fb, tb)) in itertools.product(enumerate(ha), enumerate(hb)):
            tor = [math.gcd(s, t) for s in ta for t in tb]
            out[p + q][0] += fa * fb
            out[p + q][1] += ta * fb + tb * fa + tor
            if p + q:
                out[p + q - 1][1] += tor
        ha = [tuple(g) for g in out]
    return ha


def primary(free_rank, orders):
    """A finitely generated abelian group as its free rank and the sorted
    prime powers of its primary decomposition."""
    return free_rank, sorted(p**n for o in orders for p, n in factorize(o).pairs)


def uct_mod(h, k, r):
    """H^k(Z/r) = H^k (x) Z/r + Tor(H^(k+1), Z/r) from integral groups."""
    free, torsion = h[k]
    above = h[k + 1][1] if k + 1 < len(h) else []
    return primary(0, [r] * free + [math.gcd(t, r) for t in torsion + above])


def assert_uct_matches(c, h):
    """Every group of c agrees with the expected integral groups h, with the
    witness path, and with the universal coefficient theorem mod r."""
    assert len(h) == c.top_dim + 1
    for k in range(c.top_dim + 1):
        g = cohomology_Z(c, k)
        assert primary(g.free_rank, g.torsion) == primary(*h[k])
        orders = [o for _, o in cohomology_generators_Z(c, k)]
        assert (g.free_rank, g.torsion) == (orders.count(0), tuple(o for o in orders if o))
        for r in UCT_MODULI:
            g_r = cohomology_mod(c, k, r)
            assert primary(g_r.free_rank, g_r.torsion) == uct_mod(h, k, r)
            if k < c.top_dim:
                beta = bockstein(c, k, r)
                assert beta.source == g_r
                assert beta.target == cohomology_Z(c, k + 1)


def test_uct_groups_on_products():
    cases = [
        ((6, 4), (4, 4), (12, 4)),
        ((3, 5), (2, 4)),
        ((2, 3), (4, 3), (6, 2)),
    ]
    for dims in cases:
        c = tensor_complex(*(bzr_skeleton_complex(r, top) for r, top in dims))
        assert_uct_matches(c, kunneth(*(bzr_groups(r, top) for r, top in dims)))
    c = tensor_complex(sphere_complex(2), rp_complex(4), bzr_skeleton_complex(3, 3))
    assert_uct_matches(c, kunneth(sphere_groups(2), bzr_groups(2, 4), bzr_groups(3, 3)))


def random_unimodular(rng, n):
    """A random unimodular matrix and its inverse, from elementary row
    additions: adding c times row j to row i of P subtracts c times column i
    from column j of P^-1."""
    p, p_inv = IntMatrix.identity(n), IntMatrix.identity(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p.data[i] = [x + c * y for x, y in zip(p.data[i], p.data[j])]
        for row in p_inv.data:
            row[j] -= c * row[i]
    assert p @ p_inv == IntMatrix.identity(n)
    return p, p_inv


def rebased(c, rng):
    """c with each chain group re-based by a random unimodular P_k: the
    boundary d_k becomes P_(k-1)^-1 d_k P_k, and cohomology is unchanged."""
    bases = [random_unimodular(rng, n) for n in c.cell_counts]
    boundaries = [
        bases[k - 1][1] @ c.boundary(k) @ bases[k][0] for k in range(1, c.top_dim + 1)
    ]
    return ChainComplex(c.cell_counts, boundaries)


def test_uct_groups_on_rebased_complexes():
    rng = random.Random(5)
    factors = [
        ((2, 3), (3, 3)),
        ((4, 2), (6, 3)),
        ((2, 4), (2, 2)),
        ((12, 3), (2, 3)),
        ((3, 6),),
        ((2, 2), (3, 2), (4, 2)),
    ]
    for trial in range(24):
        dims = factors[trial % len(factors)]
        c = rebased(tensor_complex(*(bzr_skeleton_complex(r, top) for r, top in dims)), rng)
        assert any(x not in (-1, 0, 1) for b in c.boundaries for row in b.data for x in row)
        assert_uct_matches(c, kunneth(*(bzr_groups(r, top) for r, top in dims)))


def test_group_work_reduces_each_distinct_block_once(monkeypatch):
    c = tensor_complex(
        bzr_skeleton_complex(6, 4), bzr_skeleton_complex(4, 4), bzr_skeleton_complex(12, 4)
    )
    real = homology.smith_normal_form
    reduced = []

    def counting(a):
        reduced.append(a)
        return real(a)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    for k in range(c.top_dim + 1):
        cohomology_Z(c, k)
        cohomology_mod(c, k, 6)
    TwistedShape.from_complex(c, 6)
    assert c.top_dim == 12
    # a zero boundary has no block and is not reduced
    assert c.boundaries[0].is_zero() and not connected_blocks(c.boundaries[0])
    # the rest are cut into the blocks of their nonzero pattern: 12 distinct
    # blocks of 30 entries in all, the largest 3 x 3
    distinct = []
    for b in c.boundaries:
        distinct += [a for a in connected_blocks(b) if a not in distinct]
    assert len(distinct) == 12
    assert sum(a.rows * a.cols for a in distinct) == 30
    assert max(a.shape for a in distinct) == (3, 3)
    # a block with one row or one column has the gcd of its entries as its
    # one factor; each distinct block with 2 rows and 2 columns or more is
    # reduced once, transposed, in degree order: here the 3 x 3 block alone
    assert reduced == [a for a in distinct if min(a.shape) >= 2]
    assert [(a.shape, a.rows * a.cols) for a in reduced] == [((3, 3), 9)]
    # where the boundaries cut to their nonzero rows and columns alone had
    # 11 cores of 1,143 entries, the largest 16 x 18
    cores = [
        (sum(1 for j in range(b.cols) if any(column(b, j))), sum(1 for row in b.data if any(row)))
        for b in c.boundaries
        if not b.is_zero()
    ]
    assert (len(cores), sum(r * s for r, s in cores), max(cores)) == (11, 1143, (16, 18))
    for a in distinct:
        assert all(map(any, a.data)) and all(any(column(a, j)) for j in range(a.cols))


@pytest.mark.parametrize("counts", [[1000, 0, 1000], [1000, 1, 1000], [1000, 1]])
def test_zero_boundaries_cost_linear_memory(counts):
    # The composition check once formed the whole 1000 x 1000 zero product
    # (a peak of about 7.8 MB to load), and the groups ran witness Smith
    # forms of the whole 1000 x 0 and 1000 x 1 boundaries (about 39 MB), as
    # they did for a 1000 x 1 boundary with one nonzero entry, whose core is
    # 1 x 1.
    boundaries = [[0] * (m * n) for m, n in zip(counts, counts[1:])]
    expected = [(n, ()) for n in counts]
    if counts == [1000, 1]:
        boundaries[0][500] = 6
        expected = [(999, ()), (0, (6,))]
    text = json.dumps({"cell_counts": counts, "boundaries": boundaries})
    tracemalloc.start()
    try:
        c = chain_complex_from_json(json.loads(text))
        groups = [cohomology_Z(c, k) for k in range(len(counts))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(g.free_rank, g.torsion) for g in groups] == expected
    assert peak < 1_000_000


def test_dense_boundary_costs_linear_memory():
    # The core of this boundary is the whole 1000 x 1 column.  Its Smith form
    # once built a dense 1000 x 1000 witness and multiplied it with its
    # inverse, a peak of about 42 MB; the operation log grows with the
    # entries instead.
    boundary = [1 + i % 7 for i in range(1000)]
    text = json.dumps({"cell_counts": [1000, 1], "boundaries": [boundary]})
    tracemalloc.start()
    try:
        c = chain_complex_from_json(json.loads(text))
        groups = [cohomology_Z(c, k) for k in range(2)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(g.free_rank, g.torsion) for g in groups] == [(999, ()), (0, ())]
    assert peak < 1_000_000


def test_a_cocycle_of_a_dense_boundary_costs_linear_memory():
    # The connecting map on one cocycle once built all four witnesses of the
    # 1 x 1000 coboundary, among them a dense 1000 x 1000 v_inv, a peak of
    # about 25 MB; replaying the log on the cocycle needs no square matrix.
    boundary = [1 + i % 7 for i in range(1000)]
    c = chain_complex_from_json({"cell_counts": [1000, 1], "boundaries": [boundary]})
    cocycle = [2 * (i % 3) for i in range(1000)]
    tracemalloc.start()
    try:
        image = bockstein_of_cocycle(c, 0, 2, cocycle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image == ()
    assert peak < 1_000_000
    # the generators are those the square witnesses gave (a SHA-256 taken then)
    assert hashlib.sha256(repr(cohomology_generators_Z(c, 0)).encode()).hexdigest() == (
        "b7908470716093087fc3ee30223f00d7c566bebfa60bf30bce691c4697c43315"
    )


def test_factors_from_the_core_match_the_full_smith_form():
    """Nonzero invariant factors of a boundary with planted zero rows and
    columns, against the Smith form of the whole matrix."""
    rng = random.Random(9)
    for _ in range(300):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        zero_rows = set(rng.sample(range(m), rng.randint(0, m)))
        zero_cols = set(rng.sample(range(n), rng.randint(0, n)))
        data = [
            [
                0 if i in zero_rows or j in zero_cols or rng.random() > density
                else rng.choice((-1, 1, rng.randint(-9, 9)))
                for j in range(n)
            ]
            for i in range(m)
        ]
        a = IntMatrix(m, n, data)
        c = ChainComplex([m, n], [a])
        full = tuple(d for d in smith_normal_form(a).diagonal() if d)
        assert c._nonzero_factors(1) == full
        for k in range(2):
            g = cohomology_Z(c, k)
            orders = [o for _, o in cohomology_generators_Z(c, k)]
            assert (g.free_rank, g.torsion) == (orders.count(0), tuple(o for o in orders if o))


def riffled(rng, groups, extra):
    """A random order of the indices of the given groups and of `extra` more,
    in which each group keeps its own order."""
    labels = [g for g, group in enumerate(groups) for _ in group] + [None] * extra
    rng.shuffle(labels)
    queues = [iter(group) for group in groups]
    spare = iter(range(sum(map(len, groups)), sum(map(len, groups)) + extra))
    return [next(spare) if g is None else next(queues[g]) for g in labels]


def test_block_factors_match_the_whole_smith_form(monkeypatch):
    """Random connected blocks, some repeated verbatim and some with rows
    negated, placed block-diagonally beside zero rows and columns, then
    permuted: the merged factors are the Smith diagonal of the whole matrix
    (and sympy's), and each distinct block with 2 rows and 2 columns or more
    is reduced once, and no other."""
    try:
        import sympy
        from sympy.matrices.normalforms import invariant_factors
    except ImportError:
        sympy = None
    real = homology.smith_normal_form
    reduced = []

    def counting(a):
        reduced.append(a)
        return real(a)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    rng = random.Random(17)
    repeats = negated = matrices = 0
    for case in range(120):
        blocks, count = [], rng.randint(1, 6)
        while len(blocks) < count:
            pick = rng.random()
            if blocks and pick < 0.35:
                blocks.append(rng.choice(blocks))
                repeats += 1
            elif blocks and pick < 0.5:
                signs = [rng.choice((-1, 1)) for _ in range(len(blocks[-1]))]
                blocks.append([[s * x for x in row] for s, row in zip(signs, blocks[-1])])
                negated += -1 in signs
            else:
                m, n = rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2, 3))
                data = [
                    [rng.choice((0, -1, 1, rng.randint(-6, 6))) for _ in range(n)]
                    for _ in range(m)
                ]
                if [(a.rows, a.cols) for a in connected_blocks(IntMatrix(m, n, data))] == [(n, m)]:
                    blocks.append(data)
        row_groups, col_groups, m, n = [], [], 0, 0
        for data in blocks:
            row_groups.append(range(m, m + len(data)))
            col_groups.append(range(n, n + len(data[0])))
            m, n = m + len(data), n + len(data[0])
        whole = [[0] * (n + 2) for _ in range(m + 2)]
        for data, rows, cols in zip(blocks, row_groups, col_groups):
            for i, row in zip(rows, data):
                whole[i][cols.start : cols.stop] = row
        # a riffle keeps each block's own order, so copies stay equal; a
        # shuffle need not, and copies may then be distinct blocks
        for permute in ("riffle", "shuffle"):
            if permute == "riffle":
                row_order = riffled(rng, row_groups, 2)
                col_order = riffled(rng, col_groups, 2)
            else:
                row_order = rng.sample(range(m + 2), m + 2)
                col_order = rng.sample(range(n + 2), n + 2)
            a = IntMatrix(m + 2, n + 2, [[whole[i][j] for j in col_order] for i in row_order])
            c = ChainComplex([m + 2, n + 2], [a])
            reduced.clear()
            factors = c._nonzero_factors(1)
            assert factors == tuple(d for d in real(a).diagonal() if d)
            if sympy is not None and case < 40:
                expected = invariant_factors(sympy.Matrix(a.data), domain=sympy.ZZ)
                assert factors == tuple(int(x) for x in expected if x)
            distinct = []
            for block in connected_blocks(a):
                if min(block.shape) >= 2 and block not in distinct:
                    distinct.append(block)
            assert sorted(b.data for b in reduced) == sorted(b.data for b in distinct)
            if permute == "riffle":
                copies = []
                for data in blocks:
                    transposed = [list(col) for col in zip(*data)]
                    if min(len(data), len(data[0])) >= 2 and transposed not in copies:
                        copies.append(transposed)
                assert sorted(b.data for b in reduced) == sorted(copies)
                matrices += bool(copies)
    assert repeats > 50 and negated > 20 and matrices > 40


def test_vector_blocks_take_the_gcd_of_their_entries(monkeypatch):
    """Random one-row and one-column blocks, whose entries share factors,
    placed block-diagonally beside zero rows and columns, then permuted:
    their factors, taken by gcd with no Smith form, are the nonzero Smith
    diagonal of the whole matrix."""
    real = homology.smith_normal_form
    reduced = []
    monkeypatch.setattr(homology, "smith_normal_form", lambda a: reduced.append(a) or real(a))
    rng = random.Random(31)
    shapes = collections.Counter()
    for _ in range(200):
        blocks = []
        for _ in range(rng.randint(1, 5)):
            scale, length = rng.choice((1, 2, 3, 4, 6, 12)), rng.randint(1, 5)
            entries = [scale * rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(length)]
            row = length > 1 and rng.random() < 0.5
            blocks.append([entries] if row else [[x] for x in entries])
            shapes["1 x 1" if length == 1 else "row" if row else "column"] += 1
        m = sum(map(len, blocks)) + rng.randint(0, 3)
        n = sum(len(data[0]) for data in blocks) + rng.randint(0, 3)
        whole = [[0] * n for _ in range(m)]
        i = j = 0
        for data in blocks:
            for row in data:
                whole[i][j : j + len(row)] = row
                i += 1
            j += len(data[0])
        row_order, col_order = rng.sample(range(m), m), rng.sample(range(n), n)
        a = IntMatrix(m, n, [[whole[i][j] for j in col_order] for i in row_order])
        factors = ChainComplex([m, n], [a])._nonzero_factors(1)
        assert reduced == []
        assert factors == tuple(d for d in real(a).diagonal() if d)
    assert min(shapes.values()) > 80, shapes


def test_a_permuted_diagonal_boundary_takes_bounded_time():
    # One entry per row and column, so each is a 1 x 1 block and the distinct
    # blocks are [2] and [3]; the cubic elimination of the whole 1000 x 1000
    # core would take about 25 s here (1.63 s at 400 x 400).
    rng = random.Random(1000)
    n = 1000
    columns = rng.sample(range(n), n)
    data = [[0] * n for _ in range(n)]
    for i, j in enumerate(columns):
        data[i][j] = 3 if i % 2 else 2
    start = time.perf_counter()
    c = ChainComplex([n, n], [IntMatrix(n, n, data)])
    groups = [cohomology_Z(c, k) for k in range(2)]
    assert time.perf_counter() - start < 2
    assert [(g.free_rank, g.torsion) for g in groups] == [(0, ()), (0, (6,) * 500)]


# --- The Bockstein map against its cochain-level oracle ----------------------


class IntegralClasses:
    """Integral cohomology in one degree with class coordinates of cocycles.

    Kernel coordinates come from the V basis of the coboundary's Smith
    decomposition; quotient coordinates from the U basis of the Smith
    decomposition of the incoming image written in kernel coordinates.
    """

    def __init__(self, c, k):
        n_k = c.cell_counts[k]
        snf_out = smith_normal_form(c.coboundary(k))
        rank = snf_out.rank
        incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(n_k, 0)
        w = snf_out.v_inv @ incoming
        assert not any(map(any, w.data[:rank])), "incoming image escapes the kernel"
        snf_q = smith_normal_form(IntMatrix(n_k - rank, incoming.cols, w.data[rank:]))
        self.rank = rank
        self.v_inv = snf_out.v_inv
        self.uq = snf_q.U
        self.orders = snf_q.diagonal()[: snf_q.rank] + (0,) * (n_k - rank - snf_q.rank)
        self.group = CohomologyGroup(
            k, self.orders.count(0), tuple(d for d in self.orders if d > 1)
        )

    def class_coordinates(self, cochain):
        """Coordinates of an integer cocycle in the generator basis: torsion
        coordinates reduced modulo their orders, then free coordinates."""
        full = apply(self.v_inv, cochain)
        if any(full[: self.rank]):
            raise ValueError("cochain is not a cocycle")
        quotient = apply(self.uq, full[self.rank :])
        return tuple(b % d if d else b for b, d in zip(quotient, self.orders) if d != 1)


class ModClasses:
    """Mod-r cohomology in one degree, computed at the cochain level.

    A mod-r cocycle lifts to an integer cochain x with delta(x) divisible by
    r; those lifts form a lattice L spanned by suitably rescaled V columns of
    the coboundary's Smith decomposition, and the group is L modulo integral
    coboundaries and r times everything.
    """

    def __init__(self, c, k, r):
        n_k = c.cell_counts[k]
        snf_out = smith_normal_form(c.coboundary(k))
        diagonal = snf_out.diagonal()
        scales = [r // math.gcd(diagonal[i], r) if i < snf_out.rank else 1 for i in range(n_k)]
        self.lattice_basis = IntMatrix(
            n_k, n_k, [[x * scales[j] for j, x in enumerate(row)] for row in snf_out.V.data]
        )
        incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(n_k, 0)
        sub_gens = IntMatrix(
            n_k,
            incoming.cols + n_k,
            [row + [r if j == i else 0 for j in range(n_k)] for i, row in enumerate(incoming.data)],
        )
        w = snf_out.v_inv @ sub_gens
        assert all(val % scales[i] == 0 for i, row in enumerate(w.data) for val in row)
        quotients = [[val // scale for val in row] for scale, row in zip(scales, w.data)]
        rel = IntMatrix(n_k, sub_gens.cols, quotients)
        snf_q = smith_normal_form(rel)
        assert snf_q.rank == n_k, "mod-r cohomology in one degree must be finite"
        self.orders = snf_q.diagonal()
        assert all(r % d == 0 for d in self.orders), "mod-r cohomology must be annihilated by r"
        self.v_inv, self.scales = snf_out.v_inv, scales
        self.uq, self.uq_inv = snf_q.U, snf_q.u_inv
        self.group = CohomologyGroup(k, 0, tuple(d for d in self.orders if d > 1))

    def class_coordinates(self, cochain):
        """Coordinates of the class of a mod-r cocycle lift, reduced modulo
        the orders of the generators."""
        full = apply(self.v_inv, cochain)
        assert all(a % scale == 0 for a, scale in zip(full, self.scales)), "not a cocycle mod r"
        quotient = apply(self.uq, [a // scale for a, scale in zip(full, self.scales)])
        return tuple(b % d for b, d in zip(quotient, self.orders) if d > 1)

    def generators(self):
        """(lift, order) pairs for the generators of nontrivial order."""
        return [
            (apply(self.lattice_basis, column(self.uq_inv, i)), d)
            for i, d in enumerate(self.orders)
            if d > 1
        ]


def divide_cochain(vec, r):
    assert all(x % r == 0 for x in vec), "cochain is not a cocycle mod r"
    return [x // r for x in vec]


def cochain_bockstein(c, k, r):
    """The connecting map at the cochain level, with its target classes.

    Every generator of the mod-r group is lifted to an integer cochain,
    pushed through the coboundary, divided by r, and located in the integral
    cohomology one degree up.  Well-definedness is checked once for the whole
    map: class coordinates are linear, so adding r times any cochain leaves
    every image unchanged when each delta(e_i) has zero class, and adding an
    integral coboundary does when delta composed with the incoming coboundary
    is zero.
    """
    source = ModClasses(c, k, r)
    target = IntegralClasses(c, k + 1)
    delta = c.coboundary(k)
    incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(c.cell_counts[k], 0)
    assert (delta @ incoming).is_zero(), "connecting map is not well defined on classes"
    for i in range(delta.cols):
        assert not any(target.class_coordinates(column(delta, i))), "not well defined on classes"
    generators = source.generators()
    columns = [target.class_coordinates(divide_cochain(apply(delta, x), r)) for x, _ in generators]
    torsion, free_rank = target.group.torsion, target.group.free_rank
    assert not any(any(col[len(torsion) :]) for col in columns), "image must be torsion"
    target_orders = torsion + (0,) * free_rank
    rows = [[col[i] for col in columns] for i in range(len(target_orders))]
    matrix = IntMatrix(len(target_orders), len(columns), rows)
    beta = BocksteinMap(
        k, r, source.group, target.group, matrix, tuple(o for _, o in generators), target_orders
    )
    return beta, [x for x, _ in generators], source, target


def image_and_cokernel(beta):
    """The image and the cokernel of beta as (free rank, invariant factors).

    With U [matrix | diag(target_orders)] V = D of rank q, the columns of
    u_inv D span the image plus the relations; the relations, written in that
    basis, are rows i < q of U diag(target_orders) divided by d_i, and the
    image is Z^q modulo their span.
    """
    n = len(beta.target_orders)
    relations = diagonal_matrix(n, n, beta.target_orders)
    spanning = [row + rel for row, rel in zip(beta.matrix.data, relations.data)]
    snf = smith_normal_form(IntMatrix(n, beta.matrix.cols + n, spanning))
    diag = snf.diagonal()[: snf.rank]
    coker = (len(beta.target_orders) - snf.rank, [d for d in diag if d > 1])
    in_span = snf.U @ relations
    assert in_span.data[snf.rank :] == [[0] * relations.cols] * (relations.rows - snf.rank)
    coords = [divide_cochain(row, d) for row, d in zip(in_span.data, diag)]
    image_snf = smith_normal_form(IntMatrix(snf.rank, relations.cols, coords))
    image = (snf.rank - image_snf.rank, [d for d in image_snf.diagonal() if d > 1])
    return image, coker


def element_order(coords, orders):
    """Order of the element with these coordinates; 0 when it is infinite."""
    if any(x for x, d in zip(coords, orders) if d == 0):
        return 0
    return math.lcm(*(d // math.gcd(x, d) for x, d in zip(coords, orders) if d))


def smith_source_generators(c, k, r):
    """Lifts of the source generators of bockstein(c, k, r), in column order:
    (r / g_i) V e_i for g_i = gcd(d_i, r) > 1, then the integral generators
    of degree k whose reduction mod r is nonzero."""
    snf = smith_normal_form(c.coboundary(k))
    lifted = [
        [r // math.gcd(d, r) * x for x in column(snf.V, i)]
        for i, d in enumerate(snf.diagonal()[: snf.rank])
        if math.gcd(d, r) > 1
    ]
    return lifted + [x for x, d in cohomology_generators_Z(c, k) if math.gcd(d, r) > 1]


def oracle_complexes():
    """Twelve skeleta of B Z/r, a sphere, a projective space and two products,
    and those last four re-based by random unimodular matrices."""
    rng = random.Random(17)
    fixtures = [
        bzr_skeleton_complex(r, top)
        for r in (2, 3, 4, 6, 8, 12)
        for top in (4, 5)
    ]
    others = [
        sphere_complex(3),
        rp_complex(6),
        tensor_complex(bzr_skeleton_complex(4, 3), bzr_skeleton_complex(6, 3)),
        tensor_complex(
            bzr_skeleton_complex(2, 2), bzr_skeleton_complex(12, 2), bzr_skeleton_complex(3, 2)
        ),
    ]
    return fixtures + others + [rebased(c, rng) for c in others]


def test_bockstein_closed_form_matches_cochain_oracle():
    rng = random.Random(23)
    cases = cocycles = 0
    outcomes = set()
    for c in oracle_complexes():
        for k in range(c.top_dim):
            for r in UCT_MODULI:
                beta = bockstein(c, k, r)
                oracle, oracle_lifts, source_classes, target_classes = cochain_bockstein(c, k, r)
                cases += 1
                assert (beta.source, beta.target) == (oracle.source, oracle.target)
                assert beta.target_orders == oracle.target_orders
                assert math.prod(beta.source_orders) == math.prod(oracle.source_orders)
                image, coker = image_and_cokernel(beta)
                oracle_image, oracle_coker = image_and_cokernel(oracle)
                assert primary(*image) == primary(*oracle_image)
                assert primary(*coker) == primary(*oracle_coker)
                # the image is the sum of the Z/g_i, the torsion cokernel that of the Z/(d_i/g_i)
                torsion = beta.target.torsion
                gcds = [math.gcd(d, r) for d in torsion]
                assert primary(*image) == primary(0, gcds)
                assert primary(*coker) == primary(
                    beta.target.free_rank, [d // g for d, g in zip(torsion, gcds)]
                )
                assert beta.is_zero() == oracle.is_zero()
                iso = beta.is_isomorphism()
                assert iso == oracle.is_isomorphism()
                below = cohomology_Z(c, k)
                reduction_vanishes = not below.free_rank and all(
                    math.gcd(d, r) == 1 for d in below.torsion
                )
                assert iso == (
                    not beta.target.free_rank
                    and reduction_vanishes
                    and all(r % d == 0 for d in c._nonzero_factors(k + 1))
                )
                outcomes.add(iso)

                # one change of basis between the targets: column i of P holds the
                # oracle coordinates of the generator u_inv e_i with d_i > 1
                snf = smith_normal_form(c.coboundary(k))
                generators = [
                    column(snf.u_inv, i)
                    for i, d in enumerate(snf.diagonal()[: snf.rank])
                    if d > 1
                ]
                p_columns = [target_classes.class_coordinates(g) for g in generators]
                p = [[col[i] for col in p_columns] for i in range(len(torsion))]
                assert all(not any(col[len(torsion) :]) for col in p_columns)
                assert finite_map(torsion, torsion, p).is_isomorphism()

                def check_cocycle(x):
                    image = bockstein_of_cocycle(c, k, r, x)
                    expected = target_classes.class_coordinates(
                        divide_cochain(apply(c.coboundary(k), x), r)
                    )
                    assert len(image) == len(expected) == len(beta.target_orders)
                    assert all(0 <= x < d for x, d in zip(image, torsion))
                    assert element_order(image, beta.target_orders) == element_order(
                        expected, beta.target_orders
                    )
                    moved = [sum(a * b for a, b in zip(row, image)) for row in p]
                    assert [x % d for x, d in zip(moved, torsion)] == list(expected[: len(torsion)])
                    assert not any(image[len(torsion) :]) and not any(expected[len(torsion) :])

                lifts = smith_source_generators(c, k, r)
                assert len(lifts) == len(beta.source_orders)
                for j, x in enumerate(lifts):
                    assert list(bockstein_of_cocycle(c, k, r, x)) == column(beta.matrix, j)
                # and one between the sources: the Smith lifts have the stated
                # orders and map onto the oracle's generators
                q_columns = [source_classes.class_coordinates(x) for x in lifts]
                source_torsion = oracle.source_orders
                for coords, order in zip(q_columns, beta.source_orders):
                    assert element_order(coords, source_torsion) == order
                q = IntMatrix(
                    len(source_torsion),
                    len(lifts),
                    [[col[i] for col in q_columns] for i in range(len(source_torsion))],
                )
                assert BocksteinMap(
                    k, r, beta.source, oracle.source, q, beta.source_orders, source_torsion
                ).is_isomorphism()
                n_k = c.cell_counts[k]
                incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(n_k, 0)
                for x in lifts + oracle_lifts:
                    check_cocycle(x)
                for _ in range(3):
                    # a random class, plus r times a cochain and an integral coboundary
                    coboundary = apply(incoming, rng.choices(range(-2, 3), k=incoming.cols))
                    x = [r * rng.randint(-2, 2) + b for b in coboundary]
                    for lift in rng.sample(lifts + oracle_lifts, min(3, len(lifts + oracle_lifts))):
                        scale = rng.randint(-3, 3)
                        x = [a + scale * b for a, b in zip(x, lift)]
                    check_cocycle(x)
                cocycles += len(lifts) + len(oracle_lifts) + 3
    assert (cases, cocycles) == (480, 2478)
    assert outcomes == {True, False}


def test_bockstein_reads_only_the_memoised_diagonals(monkeypatch):
    c = tensor_complex(
        bzr_skeleton_complex(6, 4), bzr_skeleton_complex(4, 4), bzr_skeleton_complex(12, 4)
    )
    for k in range(c.top_dim + 1):
        cohomology_Z(c, k)
        cohomology_mod(c, k, 2)
    real = homology.smith_normal_form
    shapes = []

    def counting(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    for k in range(c.top_dim):
        for r in UCT_MODULI:
            bockstein(c, k, r)
    assert shapes == []
    for k in range(c.top_dim):
        for r in UCT_MODULI:
            bockstein_of_cocycle(c, k, r, [0] * c.cell_counts[k])
            assert shapes == [c.coboundary(k).shape]
            shapes.clear()


def test_only_named_classes_build_witnesses(monkeypatch):
    c = tensor_complex(
        bzr_skeleton_complex(6, 4), bzr_skeleton_complex(4, 4), bzr_skeleton_complex(12, 4)
    )
    real = SmithDecomposition._act
    builds = []

    def counting(self, which, rows):
        builds.append((which, self.shape))
        return real(self, which, rows)

    monkeypatch.setattr(SmithDecomposition, "_act", counting)
    for k in range(c.top_dim + 1):
        cohomology_Z(c, k)
        cohomology_mod(c, k, 6)
    for k in range(c.top_dim):
        for r in UCT_MODULI:
            bockstein(c, k, r).is_isomorphism()
    best_upper_bound(TwistedShape.from_complex(c, 6))
    assert builds == []
    # generators and the connecting map on cocycles apply them, and give the
    # outputs they gave when every decomposition carried its witnesses (a
    # SHA-256 taken then)
    digest = hashlib.sha256()
    for k in range(c.top_dim + 1):
        digest.update(repr(cohomology_generators_Z(c, k)).encode())
    for k in range(c.top_dim):
        for r in UCT_MODULI:
            for x in smith_source_generators(c, k, r):
                digest.update(repr(bockstein_of_cocycle(c, k, r, x)).encode())
    assert builds
    assert digest.hexdigest() == (
        "047e99974b95d2a902ed870993924f96216b601551b6f8d19f48d69e8edafd50"
    )


# --- JSON interchange --------------------------------------------------------

def test_json_roundtrip():
    c = bzr_skeleton_complex(3, 4)
    doc = chain_complex_to_json(c)
    again = chain_complex_from_json(json.loads(json.dumps(doc)))
    assert again.cell_counts == c.cell_counts
    assert again.boundaries == c.boundaries
    assert again.name == c.name


def test_json_flat_row_major_layout():
    c = ChainComplex((2, 1), (IntMatrix(2, 1, [[1], [-1]]),), name="interval")
    doc = chain_complex_to_json(c)
    assert doc["boundaries"] == [[1, -1]]


def test_loader_rejects_malformed_documents():
    good = chain_complex_to_json(bzr_skeleton_complex(2, 3))

    with pytest.raises(ComplexFormatError):
        chain_complex_from_json([1, 2, 3])

    bad = dict(good)
    bad.pop("cell_counts")
    with pytest.raises(ComplexFormatError):
        chain_complex_from_json(bad)

    bad = dict(good, boundaries=good["boundaries"][:-1])
    with pytest.raises(ComplexFormatError):
        chain_complex_from_json(bad)

    bad = dict(good, boundaries=[[2, 2]] + good["boundaries"][1:])
    with pytest.raises(ComplexFormatError) as err:
        chain_complex_from_json(bad)
    assert "boundary 1" in str(err.value)

    # composition failure reports the first offending position
    bad = dict(good, boundaries=[[1], [1], [0]])
    with pytest.raises(ComplexFormatError) as err:
        chain_complex_from_json(bad)
    assert "k=1, row=0, col=0" in str(err.value)


def test_loader_refuses_entries_that_are_not_integers():
    good = chain_complex_to_json(bzr_skeleton_complex(2, 3))
    assert good["boundaries"] == [[0], [2], [0]]
    for entry in (1.5, 2.0, True, False, "1", None):
        bad = dict(good, boundaries=[[0], [entry], [0]])
        with pytest.raises(ComplexFormatError) as err:
            chain_complex_from_json(bad)
        assert str(err.value) == "boundary 2 must be a flat list of integers"
    # an int subclass other than bool is an integer
    two = enum.IntEnum("Two", {"TWO": 2}).TWO
    c = chain_complex_from_json(dict(good, boundaries=[[0], [two], [0]]))
    assert [cohomology_Z(c, k) for k in range(4)] == [
        cohomology_Z(bzr_skeleton_complex(2, 3), k) for k in range(4)
    ]


def test_load_chain_complex_from_file(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(chain_complex_to_json(rp_complex(2))))
    c = load_chain_complex(path)
    assert cohomology_Z(c, 2).torsion == (2,)
