"""The rational signature routine, kept as an oracle for the integer one.

This is how ``hjtoric.homology.signature`` eliminated before it held its
entries as reduced integer pairs: the same least-degree heap with basis-order
tie-break, 1x1 pivots, 2x2 hyperbolic pivot and fill-in, on string labels and
``Fraction`` entries.  It reads the lattice store directly, as it did inside
the package.  ``dense.py`` checks both against a dense diagonalization.
"""

import heapq
from fractions import Fraction

from hjtoric.homology import IntersectionLattice


def signature(form) -> tuple[int, int, int]:
    """Counts ``(b_plus, b_minus, b_zero)`` of a symmetric form.

    ``form`` is a lattice, or a square symmetric list of rows of integers or
    Fractions, read into the same store keyed by row index (the lattice
    constructor takes integer entries only).
    Computed by symmetric (congruence) elimination over exact rationals on
    the sparse form, always at a class of least remaining degree: a nonzero
    diagonal entry is a 1x1 pivot; a zero one whose class meets another is
    a 2x2 hyperbolic pivot with that class (determinant -m^2 < 0, so one
    plus and one minus); a class meeting nothing counts by the sign of its
    diagonal.  A pivot of degree k updates O(k^2) entries.  On a forest,
    every plumbing graph included, each pivot is a leaf or an isolated class,
    so nothing fills in and a lattice costs O(n log n) (on a chain this is
    the continued fraction).  A list of rows is first read in Theta(n^2).
    The triple is a congruence invariant, hence independent of basis.
    """
    if isinstance(form, IntersectionLattice):
        diag = dict(form._self)
        edges = {l: dict(row) for l, row in form._edges.items()}
    else:
        diag = {i: row[i] for i, row in enumerate(form)}
        edges = {i: {j: x for j, x in enumerate(row) if x and j != i}
                 for i, row in enumerate(form)}
    b_plus = b_minus = b_zero = 0
    rank = {v: k for k, v in enumerate(diag)}  # tie-break: basis order
    heap = [(len(row), rank[v], v) for v, row in edges.items()]
    heapq.heapify(heap)

    def add(i, j, x):  # M[i][j] += x
        if i == j:
            diag[i] += x
        else:
            _add(edges[i], j, x)
            _add(edges[j], i, x)

    while heap:
        deg, _, v = heapq.heappop(heap)
        if v not in diag or len(edges[v]) != deg:
            continue  # a stale entry: v is gone or its degree changed
        d = diag.pop(v)
        a = edges.pop(v)
        for k in a:
            del edges[k][v]
        if not a:
            if d > 0:
                b_plus += 1
            elif d < 0:
                b_minus += 1
            else:
                b_zero += 1
            continue
        if d:
            # M[k][l] -= a_k a_l / d over the neighbours of v
            if d > 0:
                b_plus += 1
            else:
                b_minus += 1
            d = Fraction(d)
            items = list(a.items())
            for idx, (k, ak) in enumerate(items):
                f = ak / d
                for l, al in items[idx:]:
                    add(k, l, -f * al)
            touched = a
        else:
            # pivot on the block [[0, m], [m, dw]] of v and a neighbour w;
            # its Schur complement subtracts (a c~^T + c~ a^T) / m, where a
            # and c are the columns of v and w and c~ = c - dw/(2m) a, so
            # nothing changes when v is a leaf
            b_plus += 1
            b_minus += 1
            w = min(a, key=lambda u: (len(edges[u]), rank[u]))
            m = Fraction(a.pop(w))
            c = edges.pop(w)
            for k in c:
                del edges[k][w]
            t = diag.pop(w) / (2 * m)
            ct = dict(c)
            for k, ak in a.items():
                ct[k] = ct.get(k, 0) - t * ak
            for k, ak in a.items():
                for l, cl in ct.items():
                    x = ak * cl / m
                    add(k, l, -2 * x if k == l else -x)
            touched = ct
        for k in touched:
            heapq.heappush(heap, (len(edges[k]), rank[k], k))
    return (b_plus, b_minus, b_zero)


def _add(row: dict, key, x) -> None:
    """``row[key] += x`` in an edge-map row, which holds nonzero entries only."""
    v = row.get(key, 0) + x
    if v:
        row[key] = v
    else:
        row.pop(key, None)
