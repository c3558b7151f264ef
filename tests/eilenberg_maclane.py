"""The normalized chains of the simplicial model of K(Z/l, 2), by Dold-Kan.

Test data, not library API.  A q-simplex of the model is a normalized
2-cocycle on the standard simplex Delta[q] with values in Z/l: a value for
each triple i < j < k of its vertices.  Delta[q] is contractible, so each
such cocycle is the coboundary of exactly one 1-cochain g that vanishes on
the edges (0, i); there are l^C(q, 2) q-simplices.  A monotone vertex map
phi acts by restriction, x -> x o phi, and a triple that phi sends to a
repeated vertex reads 0.  The faces are the restrictions along the coface
maps, which skip one vertex.  A simplex x is degenerate exactly when
x = s_j d_j x for some j, and s_j d_j is the restriction along the vertex
map that sends j to j + 1 and fixes the rest.  The normalized chains have
the nondegenerate simplices as cells and the boundary sum (-1)^i d_i, in
which degenerate faces are dropped.

The model is Eilenberg-MacLane's; see May, "Simplicial Objects in
Algebraic Topology", 1967, section 23, and Goerss-Jardine, "Simplicial
Homotopy Theory", 1999, III.2, for the Dold-Kan correspondence.
"""

import functools
from itertools import combinations, product

from perindex.homology import ChainComplex, IntMatrix


@functools.cache
def _triples(q: int) -> dict[tuple[int, int, int], int]:
    """The place of each triple i < j < k of range(q + 1), in lexicographic order."""
    return {t: n for n, t in enumerate(combinations(range(q + 1), 3))}


def _restrict(x: tuple[int, ...], phi: tuple[int, ...], q: int) -> tuple[int, ...]:
    """The q-simplex x restricted along the monotone vertex map phi, given by
    the images of range(len(phi)) in range(q + 1)."""
    place = _triples(q)
    return tuple(
        x[place[phi[i], phi[j], phi[k]]] if phi[i] < phi[j] < phi[k] else 0
        for i, j, k in _triples(len(phi) - 1)
    )


def _simplices(l: int, q: int) -> list[tuple[int, ...]]:
    """Every q-simplex, as the coboundary of g with g(0, i) = 0, in the
    lexicographic order of the values of g on the edges (i, j), 0 < i < j."""
    edges = list(combinations(range(1, q + 1), 2))
    out = []
    for values in product(range(l), repeat=len(edges)):
        g = dict(zip(edges, values))
        out.append(tuple(
            (g.get((j, k), 0) - g.get((i, k), 0) + g.get((i, j), 0)) % l
            for i, j, k in _triples(q)
        ))
    return out


def _nondegenerate(l: int, q: int) -> list[tuple[int, ...]]:
    shifts = [tuple(v + (v == j) for v in range(q + 1)) for j in range(q)]
    return [x for x in _simplices(l, q) if all(_restrict(x, s, q) != x for s in shifts)]


def k_z_l_2(l: int, top: int) -> ChainComplex:
    """The normalized chain complex of the top-skeleton of K(Z/l, 2)."""
    cells = [_nondegenerate(l, q) for q in range(top + 1)]
    boundaries = []
    for q in range(1, top + 1):
        place = {x: n for n, x in enumerate(cells[q - 1])}
        faces = [tuple(v + (v >= i) for v in range(q)) for i in range(q + 1)]
        rows = [[0] * len(cells[q]) for _ in cells[q - 1]]
        for c, x in enumerate(cells[q]):
            for i, face in enumerate(faces):
                n = place.get(_restrict(x, face, q))
                if n is not None:
                    rows[n][c] += (-1) ** i
        boundaries.append(IntMatrix(len(cells[q - 1]), len(cells[q]), rows))
    return ChainComplex([len(c) for c in cells], boundaries, name=f"K(Z/{l}, 2)^({top})")
