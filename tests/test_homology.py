"""Tests for exact matrices, Smith normal form, cohomology, and the Bockstein."""

import dataclasses
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perindex import homology
from perindex.ahss import TwistedShape
from perindex.homology import (
    BocksteinMap,
    ChainComplex,
    CohomologyGroup,
    ComplexFormatError,
    IntMatrix,
    bockstein,
    bockstein_of_cocycle,
    bzr_skeleton_complex,
    chain_complex_from_json,
    chain_complex_to_json,
    cohomology_generators_Z,
    cohomology_mod,
    cohomology_Z,
    load_chain_complex,
    rp_complex,
    smith_normal_form,
    sphere_complex,
)
from perindex.numtheory import factorize


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
    assert left.apply(vec) == [row[0] for row in naive_product(a, [[x] for x in vec], 1)]
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
    # rows above and below the half-full threshold, +-1 and general entries
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
    assert d.D == zero
    assert d.U == IntMatrix.identity(3)
    assert d.V == IntMatrix.identity(2)

    d = smith_normal_form(IntMatrix(1, 1, [[7]]))
    assert d.diagonal() == (7,)


def test_snf_verifies_by_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        a = random_matrix(rng, max_dim=8)
        d = smith_normal_form(a)
        assert d.U @ a @ d.V == d.D
        assert abs(d.U.det()) == 1
        assert abs(d.V.det()) == 1
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
    assert d.U @ a @ d.V == d.D
    assert d.rank == sum(1 for x in d.diagonal() if x)


def _swap_rows(m: IntMatrix, i: int, j: int) -> IntMatrix:
    data = m.to_lists()
    data[i], data[j] = data[j], data[i]
    return IntMatrix(m.rows, m.cols, data)


def _edit(m: IntMatrix, i: int, j: int, delta: int) -> IntMatrix:
    data = m.to_lists()
    data[i][j] += delta
    return IntMatrix(m.rows, m.cols, data)


def _verify_mutants():
    """(matrix, decomposition, message) triples: each decomposition breaks
    SmithDecomposition.verify at the named check, and most keep every other
    invariant intact, so that check alone must catch it."""
    a = IntMatrix(3, 4, [[2, 4, 6, 8], [1, 3, 5, 7], [3, 7, 11, 15]])
    good = smith_normal_form(a)
    assert good.diagonal() == (1, 2, 0)
    replace = dataclasses.replace
    T = IntMatrix.transpose
    out = []
    for field, message in (
        ("U", "U inverse witness"),
        ("u_inv", "U inverse witness"),
        ("V", "V inverse witness"),
        ("v_inv", "V inverse witness"),
    ):
        for i, j in ((0, 0), (1, 2), (2, 1)):
            matrix = getattr(good, field)
            out.append((a, replace(good, **{field: _edit(matrix, i, j, 1)}), message))
    out.append((a, replace(good, D=_edit(good.D, 0, 1, 1)), "D not diagonal"))
    out.append((a, replace(good, D=_edit(good.D, 2, 3, -5)), "D not diagonal"))
    # -d_1 with row 1 of U and column 1 of u_inv negated: U A V == D still holds
    flip = IntMatrix(3, 3, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    out.append((
        a,
        replace(good, U=flip @ good.U, D=flip @ good.D, u_inv=good.u_inv @ flip),
        "negative diagonal",
    ))
    # d_1 and d_2 = 0 swapped by the same permutation on both sides
    out.append((
        a,
        replace(
            good,
            U=_swap_rows(good.U, 1, 2),
            u_inv=T(_swap_rows(T(good.u_inv), 1, 2)),
            D=T(_swap_rows(T(_swap_rows(good.D, 1, 2)), 1, 2)),
            V=T(_swap_rows(T(good.V), 1, 2)),
            v_inv=_swap_rows(good.v_inv, 1, 2),
        ),
        "zeros must trail",
    ))
    # diag(2, 3) is its own exact decomposition, but 2 does not divide 3
    b = IntMatrix(2, 2, [[2, 0], [0, 3]])
    one = IntMatrix.identity(2)
    chain_broken = homology.SmithDecomposition(one, b, one, one, one, 2)
    out.append((b, chain_broken, "divisibility chain"))
    out.append((a, replace(good, rank=3), "rank mismatch"))
    out.append((a, replace(good, rank=1), "rank mismatch"))
    # Inverse witnesses correct, U A V != D: change basis by an elementary
    # matrix E on one side, with E^-1 on the witness.
    e = IntMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    e_inv = IntMatrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, -1, 1]])
    out.append((a, replace(good, U=e @ good.U, u_inv=good.u_inv @ e_inv), "U A != D V^-1"))
    f = IntMatrix(4, 4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    f_inv = IntMatrix(4, 4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    out.append((a, replace(good, V=good.V @ f, v_inv=f_inv @ good.v_inv), "U A != D V^-1"))
    # A wide V with a one-sided inverse: V @ v_inv == I but V is not square.
    c = IntMatrix(1, 1, [[2]])
    one = IntMatrix.identity(1)
    wide = homology.SmithDecomposition(
        one, c, IntMatrix(1, 2, [[1, 0]]), one, IntMatrix(2, 1, [[1], [0]]), 1
    )
    out.append((c, wide, "shapes"))
    return out


def test_verify_catches_every_mutation():
    mutants = _verify_mutants()
    for a, decomposition, message in mutants:
        with pytest.raises(RuntimeError, match=re.escape(message)):
            decomposition.verify(a)
    # the inverse witnesses hold in the mutants aimed at the final identity,
    # and the old triple product tells them apart from a valid decomposition
    for a, decomposition, message in mutants:
        if message == "U A != D V^-1":
            assert decomposition.U @ decomposition.u_inv == IntMatrix.identity(3)
            assert decomposition.V @ decomposition.v_inv == IntMatrix.identity(4)
            assert decomposition.U @ a @ decomposition.V != decomposition.D


# --- Chain complexes ---------------------------------------------------------

def test_complex_rejects_nonzero_composition():
    b1 = IntMatrix(1, 1, [[1]])
    b2 = IntMatrix(1, 1, [[1]])
    with pytest.raises(ComplexFormatError) as err:
        ChainComplex((1, 1, 1), (b1, b2))
    assert "k=1, row=0, col=0" in str(err.value)


def test_complex_rejects_dimension_mismatch():
    with pytest.raises(ComplexFormatError):
        ChainComplex((1, 2), (IntMatrix(1, 1, [[0]]),))


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
        assert alt_sum == c.euler_characteristic()


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
                    for i2, x in enumerate(a.boundary(p).column(i)):
                        if x:
                            m.data[index[n - 1][(p - 1, i2, q, j)]][col] += x
                if q:
                    for j2, y in enumerate(b.boundary(q).column(j)):
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


def test_group_work_reduces_each_boundary_once(monkeypatch):
    c = tensor_complex(
        bzr_skeleton_complex(6, 4), bzr_skeleton_complex(4, 4), bzr_skeleton_complex(12, 4)
    )
    real = homology.smith_normal_form
    shapes = []

    def counting(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    for k in range(c.top_dim + 1):
        cohomology_Z(c, k)
        cohomology_mod(c, k, 6)
    TwistedShape.from_complex(c, 6)
    assert c.top_dim == 12
    assert shapes == [b.shape for b in c.boundaries]


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


def test_load_chain_complex_from_file(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(chain_complex_to_json(rp_complex(2))))
    c = load_chain_complex(path)
    assert cohomology_Z(c, 2).torsion == (2,)
