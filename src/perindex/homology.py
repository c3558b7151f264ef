"""Exact cellular cohomology over Z and Z/r via Smith normal form.

Everything here is exact arbitrary-precision integer linear algebra:
matrices are rows of Python ints, and the integers of matrices, cochains,
documents and Smith logs are checked by one rule, stable_tables._all_ints.
A Smith decomposition U A V = D keeps its diagonal and a log each of the
elementary row and column operations that reduced A to D.  _operations
checks that a log is integer quadruples, and one interpreter, _replay,
checks each operation as it applies it to rows, with arithmetic apart from
the elimination's.  Replayed on A, the logs certify the decomposition: each
operation is an elementary integer matrix of determinant +-1, so a replay
that ends exactly at D proves U A V = D with U and V unimodular.  Replayed
on the rows of a matrix, a log multiplies them by U, V or their inverses,
which are never stored.  Matrix products skip zero entries and treat +-1
as addition and subtraction, which suits the sparse 0/+-1 boundary matrices
of cell complexes.  A complex reads the nonzero columns of each boundary
row once; the check that boundaries compose to zero accumulates over those
entries alone, and they cut each boundary into the connected blocks of its
nonzero pattern.  Cohomology groups, and the connecting map of the
coefficient sequence Z -> Z -> Z/r written in Smith-adapted bases, follow
from the invariant factors of the boundary maps by the universal
coefficient theorem: a block with one row or one column has the gcd of its
entries as its one factor, each distinct larger block is reduced once per
complex, each integral group is formed once per complex, and no witness is
applied.  Witnesses are applied only
where classes must be named, to the few vectors that name them: by
cohomology_generators_Z to the generating cochains, and by
bockstein_of_cocycle to one cocycle.

Conventions: the coboundary in degree k is the transpose of the boundary in
degree k+1.  Smith-adapted bases come from a decomposition
U delta_k V = D with nonzero diagonal d_1 | ... | d_q: the columns of u_inv
with d_i > 1 generate the torsion of H^(k+1)(X; Z), and the columns of V
past q span the degree-k cocycles.  Such columns are read as u_inv (or V)
times columns of the identity, never by building the square witness.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress, count, repeat
from operator import add, sub

from .stable_tables import FinAbGroup, _all_ints, _read_json

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "ChainComplex",
    "ComplexFormatError",
    "CohomologyGroup",
    "cohomology_Z",
    "cohomology_generators_Z",
    "cohomology_mod",
    "BocksteinMap",
    "bockstein",
    "bockstein_of_cocycle",
    "chain_complex_to_json",
    "chain_complex_from_json",
    "load_chain_complex",
    "bzr_skeleton_complex",
    "sphere_complex",
    "rp_complex",
]


class ComplexFormatError(ValueError):
    """Raised by chain-complex validation and the JSON loader."""


# The most cells, summed over all degrees, that a complex may have.  Boundary
# rows are allocated per cell even where a boundary has no columns, so this
# bounds the memory of a document of any length.
MAX_CELLS = 10**6


def _check_cell_counts(counts) -> None:
    """Refuse, before anything is allocated, counts that are not a nonempty
    list or tuple of integers >= 0 or whose total exceeds MAX_CELLS."""
    if not (isinstance(counts, (list, tuple)) and counts and _all_ints(counts)) or min(counts) < 0:
        raise ComplexFormatError("cell counts must be a nonempty list of integers >= 0")
    if sum(counts) > MAX_CELLS:
        raise ComplexFormatError(
            f"the complex has {sum(counts)} cells, more than the limit of {MAX_CELLS}"
        )


def _check_degree_count(top_dim: int) -> None:
    """Refuse a built-in complex with more degrees than MAX_CELLS before any
    per-degree list is built: a sphere has two cells however many degrees it
    spans, so the cell limit alone would not stop it."""
    if top_dim + 1 > MAX_CELLS:
        raise ComplexFormatError(
            f"the complex has {top_dim + 1} degrees, more than the limit of {MAX_CELLS}"
        )


def _axpy(x: list[int], y: list[int], c: int) -> list[int]:
    """The row x + c * y, with c = +-1 as plain addition or subtraction."""
    if c == 1:
        return list(map(add, x, y))
    if c == -1:
        return list(map(sub, x, y))
    return [p + c * q for p, q in zip(x, y)]


def _check_integers(values, what: str) -> None:
    """Refuse values that are not all integers, naming the first that is not."""
    if not _all_ints(values):
        x = next(x for x in values if not _all_ints((x,)))
        raise ValueError(f"{what} entries must be integers, got {x!r}")


class IntMatrix:
    """Integer matrix stored as rows of Python ints; either dimension may be
    zero.  Products skip the zero entries of the left factor."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions must be >= 0, got {rows} x {cols}")
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        else:
            data = [list(row) for row in data]
            if len(data) != rows or any(len(row) != cols for row in data):
                raise ValueError(f"data does not have shape {rows} x {cols}")
            for row in data:
                _check_integers(row, "matrix")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: list[list[int]]) -> "IntMatrix":
        """Wrap rows of ints that this module built itself, without copying
        or checking them; the rows must not be shared with a caller."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = 1
        return cls._trusted(n, n, data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix(self.cols, 0)
        return IntMatrix._trusted(self.cols, self.rows, [list(col) for col in zip(*self.data)])

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product is the sum of a * (row j of other) over the
        nonzero entries a = self[i][j], with a = +-1 as plain addition or
        subtraction."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        b, width = other.data, other.cols
        out = []
        for row in self.data:
            acc = [0] * width
            for j in compress(range(self.cols), row):
                acc = _axpy(acc, b[j], row[j])
            out.append(acc)
        return IntMatrix._trusted(self.rows, width, out)

    def det(self) -> int:
        """Exact determinant from the verified smith_normal_form U A V = D: the
        product of the diagonal, negated once for each swap and each negation
        in the two logs (determinant -1 each; an addition has determinant 1)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        snf = smith_normal_form(self)
        flips = sum(kind != _ADD for kind in snf.row_log[::4] + snf.col_log[::4])
        return (-1) ** flips * math.prod(snf.diag)

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {self.data!r})"


# The kinds of elementary operation in the logs of a Smith decomposition.
_SWAP, _NEG, _ADD = _KINDS = range(3)


def _operations(side: str, log: list[int]):
    """(side, k, kind, i, t, q) for each operation k, (kind, i, t, q), of a flat log;
    RuntimeError naming the side, at once, unless the log is integer quadruples."""
    if len(log) % 4 or not _all_ints(log):
        raise RuntimeError(f"Smith decomposition failed: {side} log is not integer quadruples")
    return zip(repeat(side), count(), *[iter(log)] * 4)


def _replay(rows: list[list[int]], ops, sign: int = 1) -> list[list[int]]:
    """The rows after the operations ops, (side, k, kind, i, t, q) each for
    operation k of the side's log, in order; the input is unchanged.  A swap
    swaps rows i and t, a negation negates row i, an addition adds
    sign * q * row t to row i.  The one interpreter of the operations, it
    raises RuntimeError naming side and k on an unknown kind, on i or t
    outside range(len(rows)), and on a row added to itself (scaled by 1 + q)."""
    rows = list(rows)
    size = len(rows)
    for side, k, kind, i, t, q in ops:
        problem = (
            f"has no kind {kind}" if kind not in _KINDS
            else "has an index out of range" if not (0 <= i < size and 0 <= t < size)
            else f"adds a {side} to itself" if kind == _ADD and i == t else None
        )
        if problem:
            raise RuntimeError(f"Smith decomposition failed: {side} operation {k} {problem}")
        if kind == _ADD:
            c = sign * q
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[t])]
        elif kind == _SWAP:
            rows[i], rows[t] = rows[t], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


class SmithDecomposition(namedtuple("SmithDecomposition", "shape diag row_log col_log")):
    """U @ A @ V == D for an m x n matrix A, with U, V unimodular and D the
    m x n matrix with diag on its diagonal: nonnegative, zeros trailing, and
    d_1 | d_2 | ....

    Stored are the shape (m, n), the diagonal, min(m, n) entries long, and
    the elementary operations that reduced A to D, in order, in two flat
    logs of four integers (kind, i, t, q) each: row_log of the row and
    col_log of the column operations.  The kinds are a swap of i and t, the
    negation of i (t = i), and i += q * t with i != t.  The rank is the
    number of nonzero diagonal entries.  The witnesses U, V, u_inv and v_inv
    are not stored: _act applies one to the rows of a matrix by replaying a
    log, the row log for U and u_inv, the column log for V and v_inv, and
    each witness property builds its matrix that way, anew on every read.
    Like verify, they read a log only through _operations and _replay.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    def diagonal(self) -> tuple[int, ...]:
        return self.diag

    def _act(self, which: str, rows: list[list[int]]) -> list[list[int]]:
        """The rows of W @ M, for the witness W named by which ("U", "u_inv",
        "V" or "v_inv") and M given by its rows, by _replay on them.

        U replays the row log in order, u_inv its inverse, of sign -1, in
        reverse.  Column i += q * column t is a right factor I + q e_t e_i^T,
        which acts on the rows of M as row t += q * row i, so the column log
        is replayed with i and t exchanged: reversed for V, and with sign -1
        in order for v_inv.  Swaps and negations are their own inverses.
        """
        if which in ("U", "u_inv"):
            ops = list(_operations("row", self.row_log))
        else:
            ops = _operations("column", self.col_log)
            ops = [(side, k, kind, t, i, q) for side, k, kind, i, t, q in ops]
        if which in ("u_inv", "V"):
            ops.reverse()
        return _replay(rows, ops, 1 if which in ("U", "V") else -1)

    def _witness(self, which: str) -> IntMatrix:
        n = self.shape[0 if which in ("U", "u_inv") else 1]
        return IntMatrix._trusted(n, n, self._act(which, IntMatrix.identity(n).data))

    @property
    def U(self) -> IntMatrix:
        return self._witness("U")

    @property
    def V(self) -> IntMatrix:
        return self._witness("V")

    @property
    def u_inv(self) -> IntMatrix:
        return self._witness("u_inv")

    @property
    def v_inv(self) -> IntMatrix:
        return self._witness("v_inv")

    def verify(self, a: IntMatrix) -> None:
        """Re-check the decomposition against the source matrix by replaying
        its logs; raises RuntimeError on failure.

        The shapes, including the length of the diagonal, and its form
        (integers, nonnegative, zeros trailing, the divisibility chain) are
        read off directly, and _operations checks each log's quadruples.
        Then _replay, checking each operation, applies the row log to the
        rows of A and the column log to the rows of (U A)^T; the two sides
        commute, so transposed back that is U A V, which must be exactly D.

        This proves U @ A @ V == D with U and V unimodular.  Each operation
        multiplies by an elementary integer matrix: a swap and a negation
        have determinant -1, and row (or column) i += q * row (or column) t
        with i != t and q an integer is unitriangular, of determinant 1, so
        U and V, the products of the row and of the column log, are integer
        matrices of determinant +-1, with integer inverses.  _replay's
        additions are written apart from the elimination's (_axpy) and act
        on whole rows and columns, so neither the elimination's arithmetic
        nor its reliance on rows that are zero left of the pivot column (it
        adds only their live suffixes) or on a pivot column that is zero off
        the pivot is trusted.
        """
        m, n = self.shape
        diag = self.diag
        if a.shape != self.shape or len(diag) != min(m, n):
            raise RuntimeError("Smith decomposition failed: shapes")
        if not _all_ints(diag):
            raise RuntimeError("Smith decomposition failed: diagonal is not integers")
        for i, d in enumerate(diag):
            if d < 0:
                raise RuntimeError("Smith decomposition failed: negative diagonal")
            if i and diag[i - 1] == 0 and d != 0:
                raise RuntimeError("Smith decomposition failed: zeros must trail")
            if i and diag[i - 1] != 0 and d % diag[i - 1] != 0:
                raise RuntimeError("Smith decomposition failed: divisibility chain")
        row_ops, col_ops = _operations("row", self.row_log), _operations("column", self.col_log)
        # (U A)^T, n empty rows if m == 0, then U A V, no rows (no entries) if n == 0
        s = [list(c) for c in zip(*_replay(a.data, row_ops))] or [[]] * n
        s = [list(c) for c in zip(*_replay(s, col_ops))]
        for i, row in enumerate(s):
            if i < n and row[i] != diag[i]:
                raise RuntimeError(
                    f"Smith decomposition failed: replay gives {row[i]} at ({i}, {i}), "
                    f"the diagonal has {diag[i]}"
                )
            if any(row[:i]) or any(row[i + 1 :]):
                j = next(j for j, x in enumerate(row) if x and j != i)
                raise RuntimeError(
                    f"Smith decomposition failed: replay leaves {row[j]} at ({i}, {j}), "
                    "off the diagonal"
                )


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Each column t starts from the first entry of minimal absolute value in
    row-major order of the remaining block (the scan stops at the first
    unit), moved to (t, t) by a row and a column swap and made positive by a
    row negation.  Column t is then cleared below the pivot p by row
    additions whose quotients are rounded to the nearest integer, so every
    residue lies in (-p/2, p/2]; while one is nonzero, the row holding the
    first least of them is swapped up as the next pivot, which at least
    halves the pivot without rescanning the block.  The pivot row is then
    reduced by column additions with floor division; a remainder there, rare
    once the pivot is a unit, sends the step back to the block scan.  A
    final fold guarantees the pivot divides the remaining block before
    advancing, which makes the divisibility chain automatic (a unit pivot
    divides everything, so it needs no fold).  Entries are
    arbitrary-precision, so coefficient growth only ever costs time, never
    correctness.

    Only the working matrix is updated; each operation is appended to its
    side's log instead of being applied to witnesses.  Rows t and below are
    zero left of column t, so a row addition updates only their live suffix
    from column t on, and a column operation changes only the pivot row,
    because the pivot column is zero off the pivot by then.  The diagonal is
    read off the reduced working matrix, and the result is checked exactly
    by SmithDecomposition.verify, which replays the logs on A with whole
    rows and columns, before it is returned.
    """
    m, n = a.rows, a.cols
    s = [row[:] for row in a.data]
    row_log: list[int] = []
    col_log: list[int] = []

    t = 0
    while t < m and t < n:
        best = 0
        for i in range(t, m):
            low = min(map(abs, filter(None, s[i][t:])), default=0)
            if low and (not best or low < best):
                best, pi = low, i
                if best == 1:
                    break
        if not best:
            break
        pj = next(j for j in range(t, n) if abs(s[pi][j]) == best)
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            row_log += (_SWAP, t, pi, 0)
        if pj != t:
            for row in s:
                row[t], row[pj] = row[pj], row[t]
            col_log += (_SWAP, t, pj, 0)
        while True:
            # clear column t below the pivot, or find the least residue there
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                row_log += (_NEG, t, t, 0)
            pivot = s[t][t]
            live = s[t][t:]
            best = 0
            for i in range(t + 1, m):
                x = s[i][t]
                if x:
                    q = (2 * x + pivot) // (2 * pivot)
                    if q:
                        s[i][t:] = _axpy(s[i][t:], live, -q)
                        row_log += (_ADD, i, t, -q)
                        x = s[i][t]
                    if x and (not best or abs(x) < best):
                        best, pi = abs(x), i
            if not best:
                break
            s[t], s[pi] = s[pi], s[t]
            row_log += (_SWAP, t, pi, 0)
        pivot_row = s[t]
        for j in range(t + 1, n):
            if pivot_row[j]:
                q = pivot_row[j] // pivot
                if q:
                    # column j -= q * column t, which is zero off row t
                    pivot_row[j] -= q * pivot
                    col_log += (_ADD, j, t, -q)
        if any(pivot_row[t + 1 :]):
            continue
        if pivot != 1:
            offender = next(
                (i for i in range(t + 1, m) if any(x % pivot for x in s[i][t + 1 :])), None
            )
            if offender is not None:
                s[t][t:] = _axpy(s[t][t:], s[offender][t:], 1)
                row_log += (_ADD, t, offender, 1)
                continue
        t += 1

    diag = tuple(s[i][i] for i in range(min(m, n)))
    decomposition = SmithDecomposition((m, n), diag, row_log, col_log)
    decomposition.verify(a)
    return decomposition


def _blocks(a: IntMatrix, supports) -> list[list[list[int]]]:
    """The connected blocks of the nonzero pattern of a, each transposed
    and given by its rows, in the order of their first rows; supports[i]
    holds the columns where row i of a is nonzero, in order.

    A row and a column are linked when their entry is nonzero; a block is
    the submatrix on the rows and columns of one connected part, in their
    order in a.  Zero rows and columns belong to no block, and every entry
    outside the blocks is zero.  The parts are found by union-find on the
    columns, each nonzero row joining the columns it meets.
    """
    indices = range(a.cols)
    parent = list(indices)

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    live = [(row, cols) for row, cols in zip(a.data, supports) if cols]
    for _, cols in live:
        first = root(cols[0])
        for j in cols[1:]:
            parent[root(j)] = first
    rows_of: dict[int, list[list[int]]] = {}
    for row, cols in live:
        rows_of.setdefault(root(cols[0]), []).append(row)
    # a column that no row meets is its own root, and roots no part
    cols_of: dict[int, list[int]] = {}
    for j in indices:
        r = root(j)
        if r in rows_of:
            cols_of.setdefault(r, []).append(j)
    return [[[row[j] for row in rows] for j in cols_of[r]] for r, rows in rows_of.items()]


class ChainComplex:
    """A finite complex of free Z-modules with validated boundary maps.

    boundaries[k-1] is the degree-k boundary, a cell_counts[k-1] by
    cell_counts[k] matrix; consecutive boundaries must compose to zero.
    """

    __slots__ = (
        "name", "cell_counts", "boundaries", "_supports", "_factors", "_block_factors", "_groups"
    )

    def __init__(self, cell_counts, boundaries, name: str = ""):
        cell_counts = tuple(cell_counts)
        boundaries = tuple(boundaries)
        _check_cell_counts(cell_counts)
        if len(boundaries) != len(cell_counts) - 1:
            raise ComplexFormatError(
                f"expected {len(cell_counts) - 1} boundary matrices, got {len(boundaries)}"
            )
        for k, b in enumerate(boundaries, start=1):
            if not isinstance(b, IntMatrix):
                raise ComplexFormatError(f"boundary {k} is not an IntMatrix")
            if b.shape != (cell_counts[k - 1], cell_counts[k]):
                raise ComplexFormatError(
                    f"boundary {k} has shape {b.shape}, expected "
                    f"({cell_counts[k - 1]}, {cell_counts[k]})"
                )
        # the columns where each boundary row is nonzero, read once; an empty
        # support is the shared empty tuple, so zero rows cost no memory
        supports = tuple(
            [tuple(compress(range(b.cols), row)) for row in b.data] for b in boundaries
        )
        for k in range(1, len(boundaries)):
            # row i of d_k d_(k+1) sums x * (row t of d_(k+1)) over the nonzero
            # entries x = d_k[i][t], accumulated on the columns those rows meet
            left, right = boundaries[k - 1].data, boundaries[k].data
            for i, (row, cols) in enumerate(zip(left, supports[k - 1])):
                acc: dict[int, int] = {}
                for t in cols:
                    x, below = row[t], right[t]
                    for j in supports[k][t]:
                        acc[j] = acc.get(j, 0) + x * below[j]
                offenders = [j for j, y in acc.items() if y]
                if offenders:
                    raise ComplexFormatError(
                        f"boundary composition is nonzero at k={k}, row={i}, col={min(offenders)}"
                    )
        self.name = name
        self.cell_counts = cell_counts
        self.boundaries = boundaries
        self._supports = supports
        self._factors: dict[int, tuple[int, ...]] = {}
        self._block_factors: dict[tuple, tuple[int, ...]] = {}
        self._groups: dict[int, CohomologyGroup] = {}

    @property
    def top_dim(self) -> int:
        return len(self.cell_counts) - 1

    def boundary(self, k: int) -> IntMatrix:
        if not 1 <= k <= self.top_dim:
            raise ValueError(f"boundary degree {k} out of range 1..{self.top_dim}")
        return self.boundaries[k - 1]

    def coboundary(self, k: int) -> IntMatrix:
        """The degree-k coboundary: transpose of the degree-(k+1) boundary,
        the zero map out of the top degree."""
        if not 0 <= k <= self.top_dim:
            raise ValueError(f"degree {k} out of range 0..{self.top_dim}")
        if k == self.top_dim:
            return IntMatrix(0, self.cell_counts[k])
        return self.boundaries[k].transpose()

    def _nonzero_factors(self, k: int) -> tuple[int, ...]:
        """Nonzero invariant factors of the degree-k boundary, empty for k
        outside 1..top_dim and for a zero boundary.

        The boundary is cut into the connected blocks of its nonzero pattern
        (_blocks): permuting rows and columns makes it block-diagonal, with
        its zero rows and columns apart, so its invariant factors are those
        of the sum of the blocks' cyclic groups.  A block with one row or
        one column has no zero entry, and its one invariant factor is the
        gcd of its entries.  Each distinct block with at least 2 rows and 2
        columns is reduced, transposed, once per complex and memoised by its
        entries; the non-unit factors of all blocks are put in invariant
        form, after as many 1s as there are unit factors in all.  A dense
        boundary is a single block, which the merge leaves as it is.  Over
        all degrees of the product of the 4-skeleta of B Z/6, B Z/4 and
        B Z/12 there are 12 distinct blocks of 30 entries in all: 1 block
        reduced, the 3 x 3 one, the other 11 by gcd, where the boundaries
        cut to their nonzero rows and columns have 1,143 entries.
        """
        if not 1 <= k <= self.top_dim:
            return ()
        if k not in self._factors:
            factors = []
            for block in _blocks(self.boundary(k), self._supports[k - 1]):
                if len(block) == 1 or len(block[0]) == 1:
                    # a vector, all of whose entries are nonzero
                    factors.append(math.gcd(*(x for row in block for x in row)))
                    continue
                key = tuple(map(tuple, block))
                if key not in self._block_factors:
                    a = IntMatrix._trusted(len(block), len(block[0]), block)
                    self._block_factors[key] = tuple(filter(None, smith_normal_form(a).diag))
                factors += self._block_factors[key]
            torsion = _invariant_form(d for d in factors if d > 1)
            self._factors[k] = (1,) * (len(factors) - len(torsion)) + torsion
        return self._factors[k]

    def __repr__(self) -> str:
        return f"ChainComplex(name={self.name!r}, cell_counts={self.cell_counts})"


class CohomologyGroup(namedtuple("CohomologyGroup", "degree free_rank torsion")):
    """A cohomology group in one degree: free rank plus torsion invariant
    factors forming a divisibility chain."""

    __slots__ = ()

    def __new__(cls, degree: int, free_rank: int, torsion: tuple[int, ...]):
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        # reuse the chain/positivity validation
        group = FinAbGroup(free_rank, torsion)
        return tuple.__new__(cls, (degree, free_rank, group.invariant_factors))

    def group(self) -> FinAbGroup:
        return FinAbGroup(self.free_rank, self.torsion)

    def __str__(self) -> str:
        return str(self.group())


def _check_degree(c: ChainComplex, k: int) -> None:
    if not 0 <= k <= c.top_dim:
        raise ValueError(f"degree {k} out of range 0..{c.top_dim}")


def _invariant_form(orders) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the cyclic groups Z/o, in time
    quadratic in the number of orders.

    Replacing each pair by (gcd, lcm) keeps the group, since Z/a + Z/b is
    Z/gcd(a, b) + Z/lcm(a, b); after the sweep over position i, the entry at
    i divides every later one.
    """
    out = list(orders)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            out[i], out[j] = math.gcd(out[i], out[j]), math.lcm(out[i], out[j])
    return tuple(o for o in out if o > 1)


def cohomology_Z(c: ChainComplex, k: int) -> CohomologyGroup:
    """Integral cohomology of the dual cochain complex in degree k,
    memoised per complex.

    By the universal coefficient theorem the free rank is
    n_k - rank d_k - rank d_(k+1) and the torsion is the non-unit invariant
    factors of the boundary d_k.
    """
    _check_degree(c, k)
    if k not in c._groups:
        incoming = c._nonzero_factors(k)
        free_rank = c.cell_counts[k] - len(incoming) - len(c._nonzero_factors(k + 1))
        c._groups[k] = CohomologyGroup(k, free_rank, tuple(d for d in incoming if d > 1))
    return c._groups[k]


def cohomology_generators_Z(c: ChainComplex, k: int) -> list[tuple[list[int], int]]:
    """Generator cochains for the degree-k integral cohomology, as
    (cochain, order) pairs, torsion first and order 0 for free generators.

    The columns of V past the rank q of the coboundary's Smith decomposition
    span the cocycles.  The incoming coboundaries, written in that basis
    (rows q and on of v_inv times them), are reduced once more, and the
    columns of its u_inv with a non-unit diagonal entry, stacked under q zero
    rows and multiplied by V, are the generators.  Each product is a replay
    of a log on the rows of its right factor, so no square witness is built.
    """
    _check_degree(c, k)
    n_k = c.cell_counts[k]
    snf_out = smith_normal_form(c.coboundary(k))
    rank = snf_out.rank
    incoming = c.coboundary(k - 1) if k > 0 else IntMatrix(n_k, 0)
    w = snf_out._act("v_inv", incoming.data)
    if any(map(any, w[:rank])):
        raise RuntimeError("incoming image escapes the kernel; complex is invalid")
    snf_q = smith_normal_form(IntMatrix._trusted(n_k - rank, incoming.cols, w[rank:]))
    orders = snf_q.diagonal()[: snf_q.rank] + (0,) * (n_k - rank - snf_q.rank)
    kept = [i for i, d in enumerate(orders) if d != 1]
    unit_columns = [[int(j == i) for i in kept] for j in range(n_k - rank)]
    chosen = snf_q._act("u_inv", unit_columns)
    cochains = snf_out._act("V", [[0] * len(kept) for _ in range(rank)] + chosen)
    return [(list(x), orders[i]) for x, i in zip(zip(*cochains), kept)]


def cohomology_mod(c: ChainComplex, k: int, r: int) -> CohomologyGroup:
    """Cohomology of the mod-r reduction of the cochain complex in degree k,
    reported as the underlying abelian group.

    By the universal coefficient theorem it is (Z/r)^f, f the integral free
    rank, plus Z/gcd(d, r) for every nonzero invariant factor d of the
    boundaries d_k and d_(k+1).  Every gcd divides r, so the f copies of Z/r
    are the top f invariant factors, and only the non-unit gcds are put in
    invariant form.
    """
    _check_degree(c, k)
    _check_modulus(r)
    factors = c._nonzero_factors(k) + c._nonzero_factors(k + 1)
    free_rank = c.cell_counts[k] - len(factors)
    torsion = _invariant_form(g for g in (math.gcd(d, r) for d in factors) if g > 1)
    return CohomologyGroup(k, 0, torsion + (r,) * free_rank)


class BocksteinMap(
    namedtuple(
        "BocksteinMap", "degree modulus source target matrix source_orders target_orders"
    )
):
    """The connecting map from degree-k mod-r cohomology to degree-(k+1)
    integral cohomology, as an integer matrix on chosen generators.

    Rows are indexed by the target generators (torsion first, order in
    target_orders, 0 meaning free), columns by the source generators (orders
    in source_orders).  bockstein fills it in Smith-adapted bases, where it
    is diagonal up to zero rows and columns; any bases may be used.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_isomorphism(self) -> bool:
        """Bijectivity check; both groups must be finite.

        A map between finite groups of equal order is bijective exactly when
        it is onto, and it is onto exactly when its columns together with the
        target relations span the target lattice, that is when
        [matrix | diag(target_orders)] has only unit invariant factors.
        Raises ValueError unless the matrix has one row per target order.
        """
        if self.source.free_rank or self.target.free_rank:
            return False
        if math.prod(self.source_orders) != math.prod(self.target_orders):
            return False
        n, width = len(self.target_orders), self.matrix.cols
        if self.matrix.rows != n:
            raise ValueError(f"matrix has {self.matrix.rows} rows for {n} target generators")
        rows = [row + [0] * n for row in self.matrix.data]
        for i, d in enumerate(self.target_orders):
            rows[i][width + i] = d
        spanning = IntMatrix._trusted(n, width + n, rows)
        return all(d == 1 for d in smith_normal_form(spanning).diagonal())


def _check_modulus(r: int) -> None:
    if not _all_ints((r,)):
        raise ValueError(f"modulus must be an integer, got {r!r}")
    if r < 2:
        raise ValueError(f"modulus must be >= 2, got {r}")


def _check_bockstein_args(c: ChainComplex, k: int, r: int) -> None:
    if not 0 <= k < c.top_dim:
        raise ValueError(f"degree {k} out of range 0..{c.top_dim - 1}")
    _check_modulus(r)


def bockstein_of_cocycle(c: ChainComplex, k: int, r: int, cochain) -> tuple[int, ...]:
    """Connecting-map image of one mod-r cocycle, given as an integer lift x,
    in the target generators of bockstein(c, k, r).

    One verified Smith decomposition U delta_k V = D gives y = v_inv x, by
    replaying its column operations on x, and delta(x) = u_inv D y, so
    delta(x) is divisible by r exactly when every d_i y_i is, and
    delta(x) / r has coordinate (d_i y_i / r) mod d_i on the generator
    u_inv e_i for each d_i > 1.  The free part of the target gets zeros.
    Raises ValueError unless x has one integer entry per degree-k cell (a
    float or a bool is refused) and delta(x) = 0 mod r.
    """
    _check_bockstein_args(c, k, r)
    x = list(cochain)
    if len(x) != c.cell_counts[k]:
        raise ValueError(f"cochain of length {len(x)} for {c.cell_counts[k]} cells in degree {k}")
    _check_integers(x, "cochain")
    snf = smith_normal_form(c.coboundary(k))
    y = [row[0] for row in snf._act("v_inv", [[a] for a in x])]
    diagonal = snf.diagonal()[: snf.rank]
    if any(d * a % r for d, a in zip(diagonal, y)):
        raise ValueError("cochain is not a cocycle mod r")
    torsion = tuple(d * a // r % d for d, a in zip(diagonal, y) if d > 1)
    return torsion + (0,) * cohomology_Z(c, k + 1).free_rank


def bockstein(c: ChainComplex, k: int, r: int) -> BocksteinMap:
    """The connecting map on degree-k mod-r cohomology, from the memoised
    invariant factors alone.

    Let d_1 | ... | d_q be the nonzero invariant factors of the boundary
    d_(k+1) and g_i = gcd(d_i, r).  In the Smith-adapted bases of
    U delta_k V = D, beta is the direct sum of Z/g_i -> Z/d_i,
    x -> (d_i / g_i) x, from the generator (r / g_i) V e_i to the generator
    u_inv e_i, and of the zero map on H^k(X; Z) (x) Z/r, the reductions of
    integral classes.  So the columns are the summands Z/g_i with g_i > 1,
    then Z/gcd(d, r) for each torsion factor d of H^k(X; Z) and Z/r for each
    free one (trivial summands left out); the rows are the torsion of
    H^(k+1)(X; Z) in diagonal order, then its free part.  No cochain is
    formed and no matrix is reduced beyond the boundary diagonals.
    """
    _check_bockstein_args(c, k, r)
    below, target = cohomology_Z(c, k), cohomology_Z(c, k + 1)
    gcds = [math.gcd(d, r) for d in target.torsion]
    lifted = [i for i, g in enumerate(gcds) if g > 1]
    reduced = [math.gcd(d, r) for d in below.torsion] + [r] * below.free_rank
    source_orders = tuple(gcds[i] for i in lifted) + tuple(g for g in reduced if g > 1)
    target_orders = target.torsion + (0,) * target.free_rank
    rows = [[0] * len(source_orders) for _ in target_orders]
    for j, i in enumerate(lifted):
        rows[i][j] = target.torsion[i] // gcds[i]
    return BocksteinMap(
        degree=k,
        modulus=r,
        source=cohomology_mod(c, k, r),
        target=target,
        matrix=IntMatrix._trusted(len(target_orders), len(source_orders), rows),
        source_orders=source_orders,
        target_orders=target_orders,
    )


# --- JSON interchange -------------------------------------------------------

def chain_complex_to_json(c: ChainComplex) -> dict:
    """Serialize to the interchange format: boundaries are flat row-major
    integer arrays, empty when either dimension is zero."""
    return {
        "name": c.name,
        "cell_counts": list(c.cell_counts),
        "boundaries": [
            [x for row in b.data for x in row] for b in c.boundaries
        ],
    }


def chain_complex_from_json(obj) -> ChainComplex:
    """Parse and fully validate the interchange format.

    Dimension mismatches and nonzero boundary compositions are rejected with
    the offending position.
    """
    if not isinstance(obj, dict):
        raise ComplexFormatError("chain complex document must be a JSON object")
    for key in ("cell_counts", "boundaries"):
        if key not in obj:
            raise ComplexFormatError(f"missing key {key!r}")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ComplexFormatError("name must be a string")
    counts = obj["cell_counts"]
    _check_cell_counts(counts)
    flats = obj["boundaries"]
    if not isinstance(flats, list) or len(flats) != len(counts) - 1:
        raise ComplexFormatError(
            f"expected {len(counts) - 1} boundary arrays, got "
            f"{len(flats) if isinstance(flats, list) else type(flats).__name__}"
        )
    boundaries = []
    for k, flat in enumerate(flats, start=1):
        rows, cols = counts[k - 1], counts[k]
        if not isinstance(flat, list) or not _all_ints(flat):
            raise ComplexFormatError(f"boundary {k} must be a flat list of integers")
        if len(flat) != rows * cols:
            raise ComplexFormatError(
                f"boundary {k} has {len(flat)} entries, expected {rows}*{cols}"
            )
        data = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        boundaries.append(IntMatrix._trusted(rows, cols, data))
    return ChainComplex(counts, boundaries, name=name)


def load_chain_complex(path) -> ChainComplex:
    return chain_complex_from_json(_read_json(path))


# --- Fixture complexes ------------------------------------------------------

def bzr_skeleton_complex(r: int, top_dim: int, name: str | None = None) -> ChainComplex:
    """One cell per dimension with boundaries alternating 0, *r (the standard
    lens-type model of a skeleton of B Z/r shifted up a degree): integrally,
    cohomology is Z in degree 0, Z/r in positive even degrees, and zero in odd
    degrees below the top.  The top degree itself is distorted by truncation."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if top_dim < 1:
        raise ValueError(f"top_dim must be >= 1, got {top_dim}")
    _check_degree_count(top_dim)
    boundaries = [
        IntMatrix(1, 1, [[r if k % 2 == 0 else 0]]) for k in range(1, top_dim + 1)
    ]
    return ChainComplex(
        (1,) * (top_dim + 1), boundaries, name=name or f"bzr-{r}-skeleton-{top_dim}"
    )


def sphere_complex(n: int) -> ChainComplex:
    """Minimal CW sphere: one 0-cell, one n-cell, all boundaries zero."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_degree_count(n)
    counts = [1] + [0] * (n - 1) + [1]
    boundaries = [IntMatrix(counts[k - 1], counts[k]) for k in range(1, n + 1)]
    return ChainComplex(counts, boundaries, name=f"sphere-{n}")


def rp_complex(n: int) -> ChainComplex:
    """Real projective space with one cell per dimension: boundaries alternate
    0, *2 starting with the zero map in degree 1."""
    return bzr_skeleton_complex(2, n, name=f"rp-{n}")
