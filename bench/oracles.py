"""Independent oracles and input documents for the benchmark.

Nothing here calls perindex: every expected value the benchmark checks a
result against is computed from first principles, so a defect in the program
cannot hide behind the same defect in its checker.

Groups are written as (free_rank, torsion) with torsion a tuple of invariant
factors d_1 | d_2 | ..., each d_i >= 2, the form perindex reports.
"""

from __future__ import annotations

import math
from collections import defaultdict

# --- finitely generated abelian groups ---------------------------------------

Group = tuple[int, tuple[int, ...]]

TRIVIAL: Group = (0, ())


def _prime_powers(d: int) -> list[tuple[int, int]]:
    """(p, e) with p**e exactly dividing d, by trial division (d is small)."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, 1))
    return out


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/c (c >= 1)."""
    exponents: dict[int, list[int]] = defaultdict(list)
    for c in cyclic_orders:
        for p, e in _prime_powers(c):
            exponents[p].append(e)
    length = max((len(v) for v in exponents.values()), default=0)
    factors = [1] * length
    for p, es in exponents.items():
        es.sort(reverse=True)
        for i, e in enumerate(es):
            factors[i] *= p**e
    return tuple(sorted(factors))


def group(free_rank: int, cyclic_orders=()) -> Group:
    return (free_rank, invariant_factors(cyclic_orders))


def direct_sum(groups) -> Group:
    free = 0
    cyclic: list[int] = []
    for f, t in groups:
        free += f
        cyclic.extend(t)
    return group(free, cyclic)


def tensor(a: Group, b: Group) -> Group:
    (fa, ta), (fb, tb) = a, b
    cyclic = [m for m in ta for _ in range(fb)] + [n for n in tb for _ in range(fa)]
    cyclic += [math.gcd(m, n) for m in ta for n in tb]
    return group(fa * fb, cyclic)


def tor(a: Group, b: Group) -> Group:
    return group(0, [math.gcd(m, n) for m in a[1] for n in b[1]])


def kunneth(h_x: list[Group], h_y: list[Group]) -> list[Group]:
    """Integral cohomology of X (x) Y from that of the factors.

    For cochain complexes of free modules,
    H^n = sum_{p+q=n} H^p (x) H^q  +  sum_{p+q=n+1} Tor(H^p, H^q).
    """
    top = len(h_x) + len(h_y) - 2
    out = []
    for n in range(top + 1):
        parts = [
            tensor(h_x[p], h_y[n - p])
            for p in range(len(h_x))
            if 0 <= n - p < len(h_y)
        ]
        parts += [
            tor(h_x[p], h_y[n + 1 - p])
            for p in range(len(h_x))
            if 0 <= n + 1 - p < len(h_y)
        ]
        out.append(direct_sum(parts))
    return out


def uct_mod(h: list[Group], r: int) -> list[Group]:
    """Cohomology with Z/r coefficients: H^k (x) Z/r  +  Tor(H^{k+1}, Z/r)."""
    zr = (0, (r,))
    out = []
    for k, g in enumerate(h):
        parts = [tensor(g, zr)]
        if k + 1 < len(h):
            parts.append(tor(h[k + 1], zr))
        out.append(direct_sum(parts))
    return out


def bzr_cohomology(r: int, top_dim: int) -> list[Group]:
    """Integral cohomology of the bzr-R-D fixture: one cell per degree, the
    degree-k boundary is r for even k and 0 for odd k.  The coboundary out of
    degree j is r exactly when j is odd and below the top."""
    out = []
    for j in range(top_dim + 1):
        out_zero = j % 2 == 0 or j == top_dim
        in_value = r if j % 2 == 0 and j > 0 else 0
        if not out_zero:
            out.append(TRIVIAL)
        elif in_value:
            out.append(group(0, [in_value]))
        else:
            out.append(group(1))
    return out


def r_primary_part(n: int, r: int) -> int:
    """Largest divisor of n built from primes dividing r."""
    out = 1
    for p, _ in _prime_powers(r):
        while n % p == 0:
            n //= p
            out *= p
    return out


# --- chain complexes ---------------------------------------------------------

def bzr_document(r: int, top_dim: int) -> dict:
    """The bzr-R-D fixture in the chain-complex interchange format."""
    return {
        "name": f"bzr-{r}-{top_dim}",
        "cell_counts": [1] * (top_dim + 1),
        "boundaries": [[r if k % 2 == 0 else 0] for k in range(1, top_dim + 1)],
    }


def _unflatten(doc: dict) -> list[list[list[int]]]:
    counts = doc["cell_counts"]
    mats = []
    for k, flat in enumerate(doc["boundaries"], start=1):
        cols = counts[k]
        mats.append([flat[i * cols : (i + 1) * cols] for i in range(counts[k - 1])])
    return mats


def tensor_document(x: dict, y: dict) -> dict:
    """The tensor product of two chain complexes in the interchange format.

    Cells of degree n are pairs (a, b) with deg a + deg b = n, ordered by deg a
    then by the index of a and of b; the boundary is
    d(a (x) b) = da (x) b + (-1)^deg(a) a (x) db.
    """
    cx, cy = x["cell_counts"], y["cell_counts"]
    bx, by = _unflatten(x), _unflatten(y)
    top = len(cx) + len(cy) - 2
    index = []  # per degree: {(p, i, q, j): position}
    for n in range(top + 1):
        cells = {}
        for p in range(len(cx)):
            q = n - p
            if 0 <= q < len(cy):
                for i in range(cx[p]):
                    for j in range(cy[q]):
                        cells[(p, i, q, j)] = len(cells)
        index.append(cells)
    counts = [len(cells) for cells in index]
    boundaries = []
    for n in range(1, top + 1):
        rows, cols = counts[n - 1], counts[n]
        mat = [[0] * cols for _ in range(rows)]
        for (p, i, q, j), col in index[n].items():
            if p > 0:
                for k in range(cx[p - 1]):
                    c = bx[p - 1][k][i]
                    if c:
                        mat[index[n - 1][(p - 1, k, q, j)]][col] += c
            if q > 0:
                sign = -1 if p % 2 else 1
                for l in range(cy[q - 1]):
                    c = by[q - 1][l][j]
                    if c:
                        mat[index[n - 1][(p, i, q - 1, l)]][col] += sign * c
        boundaries.append([v for row in mat for v in row])
    return {
        "name": f"{x['name']}*{y['name']}",
        "cell_counts": counts,
        "boundaries": boundaries,
    }


# --- dense integer matrices --------------------------------------------------

def rank_and_det(rows: list[list[int]]) -> tuple[int, int | None]:
    """Rank by fraction-free (Bareiss) elimination, and the determinant when
    the matrix is square (0 when it is singular)."""
    a = [row[:] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(n):
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        head = top[col]
        for i in range(rank + 1, m):
            row = a[i]
            f = row[col]
            for j in range(col + 1, n):
                row[j] = (row[j] * head - f * top[j]) // prev
            row[col] = 0
        prev = head
        rank += 1
    if m != n:
        return rank, None
    return rank, (sign * prev if rank == n else 0) if n else 1


# --- number theory -----------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: deterministic below
    3.3 * 10**24, far above every number generated here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    """A prime drawn from [lo, hi) by rejection sampling; hi must be even,
    so that rounding a draw up to odd keeps it below hi."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_probable_prime(n):
            return n


def factor_small(n: int) -> dict[int, int]:
    return dict(_prime_powers(n))


def m_oracle(a: int, s: int) -> int:
    """gcd of the nonzero binomial coefficients C(a, 1..s)."""
    g = 0
    for i in range(1, s + 1):
        g = math.gcd(g, math.comb(a, i))
    return g


def integer_log(p: int, s: int) -> int:
    e = 0
    while s >= p:
        s //= p
        e += 1
    return e


def n_oracle(factors: dict[int, int], s: int) -> int:
    """prod p**(n + floor(log_p s)) over b = prod p**n, from its factorization."""
    return math.prod(p ** (n + integer_log(p, s)) for p, n in factors.items())


def _factorial_valuation(p: int, n: int) -> int:
    """Legendre: the p-adic valuation of n! is sum_i floor(n / p**i)."""
    v = 0
    while n:
        n //= p
        v += n
    return v


def kummer_oracle(p: int, a: int, b: int) -> int:
    """p-adic valuation of C(a+b, b), from Legendre's formula."""
    return _factorial_valuation(p, a + b) - _factorial_valuation(p, a) - _factorial_valuation(p, b)
