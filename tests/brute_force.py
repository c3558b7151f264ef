"""Brute-force references used only by the tests.

Each restates a quantity by its definition, so that the library's closed
forms and fast paths have something independent to be checked against.
"""

import collections
import math

from perindex.homology import IntMatrix
from perindex.numtheory import factorize, is_prime


def m_oracle(a: int, s: int) -> int:
    """gcd of the binomial coefficients C(a,1), ..., C(a,s), exactly.

    C(a,i) = 0 once i > a; zero terms are skipped rather than folded into the
    gcd, so the running gcd is always over the nonzero coefficients.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s} (the gcd over an empty range is undefined)")
    g = 0
    for i in range(1, s + 1):
        c = math.comb(a, i)
        if c != 0:
            g = math.gcd(g, c)
    return g


def trial_division(a: int) -> tuple[tuple[int, int], ...]:
    """Factorization of a >= 1 by dividing by every candidate up to sqrt(a)."""
    pairs = []
    n = a
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def prime_support(a: int) -> frozenset[int]:
    """The set of primes dividing a."""
    return frozenset(p for p, _ in factorize(a).pairs)


def padic_valuation(p: int, x: int) -> int:
    """Largest v with p**v dividing x; rejects x = 0, whose valuation is infinite."""
    if not is_prime(p):
        raise ValueError(f"padic_valuation requires p prime, got {p}")
    if x < 1:
        raise ValueError(f"padic_valuation requires x >= 1, got {x}")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def euler_characteristic(c) -> int:
    """Alternating sum of the cell counts of a chain complex."""
    return sum((-1) ** k * n for k, n in enumerate(c.cell_counts))


def invariant_form_oracle(orders) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the cyclic groups Z/o, from the
    primary decomposition: Z/o is the sum of Z/p**k over the prime powers
    exactly dividing o.  Sort each prime's exponents in descending order; the
    i-th largest invariant factor is the product of p**(i-th exponent) over
    the primes p."""
    exponents = collections.defaultdict(list)
    for o in orders:
        for p, k in trial_division(o):
            exponents[p].append(k)
    largest_first = [1] * max(map(len, exponents.values()), default=0)
    for p, ks in exponents.items():
        for i, k in enumerate(sorted(ks, reverse=True)):
            largest_first[i] *= p**k
    return tuple(reversed(largest_first))


def diagonal_matrix(rows: int, cols: int, diagonal) -> IntMatrix:
    """The rows x cols matrix with the min(rows, cols) given entries down its
    diagonal and zeros elsewhere: the D of a Smith decomposition U A V = D."""
    assert len(diagonal) == min(rows, cols)
    data = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diagonal):
        data[i][i] = d
    return IntMatrix(rows, cols, data)


def column(a: IntMatrix, j: int) -> list[int]:
    """Column j of a."""
    return [row[j] for row in a.data]


def apply(a: IntMatrix, vec) -> list[int]:
    """The product of a with a vector of integers, entry by entry."""
    vec = list(vec)
    assert len(vec) == a.cols, (len(vec), a.shape)
    return [sum(x * y for x, y in zip(row, vec)) for row in a.data]


def connected_blocks(a: IntMatrix) -> list[IntMatrix]:
    """The connected blocks of the nonzero pattern of a, each transposed,
    in the order of their first rows, by their definition: from a nonzero
    row not yet placed, take every column its rows meet and every row those
    columns meet, until nothing more is taken."""
    placed: set[int] = set()
    blocks = []
    for start, row in enumerate(a.data):
        if start in placed or not any(row):
            continue
        rows: set[int] = {start}
        cols: set[int] = set()
        while True:
            more_cols = {j for i in rows for j in range(a.cols) if a.data[i][j]}
            more_rows = {i for i in range(a.rows) for j in more_cols if a.data[i][j]}
            if (more_rows, more_cols) == (rows, cols):
                break
            rows, cols = more_rows, more_cols
        placed |= rows
        data = [[a.data[i][j] for i in sorted(rows)] for j in sorted(cols)]
        blocks.append(IntMatrix(len(cols), len(rows), data))
    return blocks


# The kinds of logged operation of a Smith decomposition, in their order.
SWAP, NEG, ADD = range(3)


def elementary_matrix(side: str, op, size: int) -> IntMatrix:
    """The size x size elementary matrix of one operation (kind, i, t, q)
    of a row log (side "row") or a column log (side "column"), entry by
    entry: a row operation multiplies on the left, a column operation on
    the right.  A swap exchanges i and t, a negation negates i, row
    i += q * row t is I + q e_i e_t^T, and column i += q * column t is
    I + q e_t e_i^T."""
    kind, i, t, q = op
    e = [[int(r == c) for c in range(size)] for r in range(size)]
    if kind == SWAP:
        e[i][i] = e[t][t] = 0
        e[i][t] = e[t][i] = 1
    elif kind == NEG:
        e[i][i] = -1
    elif side == "row":
        e[i][t] += q
    else:
        e[t][i] += q
    return IntMatrix(size, size, e)
