"""Dense-matrix lattice routines, kept as oracles for the sparse ones.

These are the implementations ``hjtoric.homology`` used when a lattice was
stored as a dense n x n tuple: a congruence diagonalization over a dense
``Fraction`` copy, and blowups, blowdowns and direct sums that rebuild the
whole matrix.  They read and build lattices only through the public
constructor and the ``pairing``/``c1`` views, so they share no code with the
routines they check.  ``read_rows`` is the constructor's dense read as it
was then, tuple copies and a transposed copy, and builds its lattice with
the private ``_sparse``: it is the oracle for the type pass and nonzero
scan that replaced that read, and for ``from_json`` on objects and text.
"""

from fractions import Fraction
from itertools import compress

from hjtoric.errors import DomainError, require_ints, require_list, require_strs
from hjtoric.homology import IntersectionLattice


def read_rows(classes, pairing, c1):
    """The public constructor's read before it scanned only the nonzeros:
    every row copied to a tuple, symmetry tested against the transposed
    copy.  Returns the lattice built from that store with the row and c1
    copies, which the constructor kept as its ``pairing`` and ``c1`` views."""
    classes = require_strs(classes, "class labels must be a list of strings")
    n = len(classes)
    if len(set(classes)) != n:
        raise DomainError("class labels must be distinct")
    rows = tuple(require_ints(row, "each pairing row must be a list of integers")
                 for row in require_list(pairing, "a pairing must be a list of rows"))
    if any(len(row) != len(rows) for row in rows):
        raise DomainError("pairing matrix must be square")
    if len(rows) != n:
        raise DomainError("pairing matrix shape does not match class count")
    c1 = require_ints(c1, "c1 must be a list of integers")
    if len(c1) != n:
        raise DomainError("c1 labels do not match class count")
    if rows != tuple(zip(*rows)):
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if rows[i][j] != rows[j][i])
        raise DomainError(f"pairing not symmetric at ({i}, {j})")
    lat = IntersectionLattice._sparse(
        {l: rows[i][i] for i, l in enumerate(classes)},
        dict(zip(classes, c1)),
        {l: {classes[j]: rows[i][j] for j in compress(range(n), rows[i]) if j != i}
         for i, l in enumerate(classes)},
    )
    return lat, rows, c1


def signature(form) -> tuple[int, int, int]:
    """(b_plus, b_minus, b_zero) by dense symmetric diagonalization: a nonzero
    diagonal pivot, a swap to one, or a hyperbolic repair when every trailing
    diagonal entry is 0."""
    rows = form.pairing if isinstance(form, IntersectionLattice) else form
    n = len(rows)
    M = [[Fraction(x) for x in row] for row in rows]
    b_plus = b_minus = b_zero = 0
    for i in range(n):
        if M[i][i] == 0:
            j = next((j for j in range(i + 1, n) if M[j][j] != 0 and M[i][j] != 0), None)
            if j is None:
                j = next((j for j in range(i + 1, n) if M[j][j] != 0), None)
            if j is not None:
                for l in range(i, n):  # swap basis vectors i and j
                    M[i][l], M[j][l] = M[j][l], M[i][l]
                for l in range(i, n):
                    M[l][i], M[l][j] = M[l][j], M[l][i]
            else:
                j = next((j for j in range(i + 1, n) if M[i][j] != 0), None)
                if j is None:
                    b_zero += 1
                    continue
                # all trailing diagonal entries are 0: basis_i += basis_j
                # turns the hyperbolic pair into a usable pivot 2*M[i][j]
                for l in range(i, n):
                    M[i][l] += M[j][l]
                for l in range(i, n):
                    M[l][i] += M[l][j]
        d = M[i][i]
        if d > 0:
            b_plus += 1
        else:
            b_minus += 1
        cols = [j for j in range(i + 1, n) if M[i][j] != 0]
        for a, j in enumerate(cols):
            fj = M[i][j]
            for l in cols[a:]:
                delta = fj * M[i][l] / d
                M[j][l] -= delta
                if l != j:
                    M[l][j] = M[j][l]
    return (b_plus, b_minus, b_zero)


def direct_sum(a: IntersectionLattice, b: IntersectionLattice) -> IntersectionLattice:
    n, m = len(a), len(b)
    rows = [list(r) + [0] * m for r in a.pairing]
    rows += [[0] * n + list(r) for r in b.pairing]
    return IntersectionLattice(a.classes + b.classes, tuple(tuple(r) for r in rows), a.c1 + b.c1)


def blow_down(lat: IntersectionLattice, label: str) -> IntersectionLattice:
    """Contract (-1)-class ``label``: C.D grows by (C.e)(D.e), c1(C) by C.e."""
    i = lat.classes.index(label)
    assert lat.pairing[i][i] == -1 and lat.c1[i] == 1
    keep = [j for j in range(len(lat)) if j != i]
    m = [lat.pairing[j][i] for j in range(len(lat))]
    rows = tuple(tuple(lat.pairing[j][l] + m[j] * m[l] for l in keep) for j in keep)
    c1 = tuple(lat.c1[j] + m[j] for j in keep)
    return IntersectionLattice(tuple(lat.classes[j] for j in keep), rows, c1)


def blow_up_at(lat: IntersectionLattice, touched, label: str) -> IntersectionLattice:
    """Blow up a point on the ``touched`` classes, transversally once each."""
    n = len(lat)
    idx = [lat.classes.index(t) for t in touched]
    rows = [list(r) + [0] for r in lat.pairing]
    rows.append([0] * n + [-1])
    c1 = list(lat.c1) + [1]
    for a in idx:
        rows[a][a] -= 1
        rows[a][n] = rows[n][a] = 1
        c1[a] -= 1
    for x in range(len(idx)):
        for y in range(x + 1, len(idx)):
            a, b = idx[x], idx[y]
            rows[a][b] -= 1
            rows[b][a] -= 1
    return IntersectionLattice(lat.classes + (label,), tuple(tuple(r) for r in rows), tuple(c1))
