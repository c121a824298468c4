"""Intersection lattices of labeled sphere classes, with exact signature.

A lattice is a finite ordered basis of labeled classes, a symmetric integer
pairing matrix and an integer c1 label per class.  Embedded-sphere classes
obey the adjunction rule ``c1 = 2 + self-intersection``, so a (-1)-class with
c1 = 1 is an exceptional class and an element of a resolution chain has
``c1 = 2 - a`` for self-intersection ``-a``.

Operations never mutate: each returns a fresh lattice value, so values can be
shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, StructureError


@dataclass(frozen=True)
class IntersectionLattice:
    classes: tuple[str, ...]
    pairing: tuple[tuple[int, ...], ...]
    c1: tuple[int, ...]

    def __post_init__(self):
        n = len(self.classes)
        if len(set(self.classes)) != n:
            raise DomainError("class labels must be distinct")
        if len(self.pairing) != n or any(len(row) != n for row in self.pairing):
            raise DomainError("pairing matrix shape does not match class count")
        if len(self.c1) != n:
            raise DomainError("c1 labels do not match class count")
        for i in range(n):
            for j in range(i + 1, n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise DomainError(f"pairing not symmetric at ({i}, {j})")

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, label: str) -> int:
        try:
            return self.classes.index(label)
        except ValueError:
            raise DomainError(f"no class labeled {label!r}") from None

    def pair(self, a: str, b: str) -> int:
        return self.pairing[self.index(a)][self.index(b)]

    def self_intersection(self, label: str) -> int:
        i = self.index(label)
        return self.pairing[i][i]

    def c1_of(self, label: str) -> int:
        return self.c1[self.index(label)]

    def is_exceptional(self, label: str) -> bool:
        """A (-1)-sphere class: self-intersection -1 and c1 = 1."""
        i = self.index(label)
        return self.pairing[i][i] == -1 and self.c1[i] == 1

    def exceptional_classes(self) -> tuple[str, ...]:
        return tuple(l for l in self.classes if self.is_exceptional(l))

    # -- construction helpers ---------------------------------------------

    def direct_sum(self, other: "IntersectionLattice") -> "IntersectionLattice":
        n, m = len(self), len(other)
        classes = self.classes + other.classes
        rows = [list(r) + [0] * m for r in self.pairing]
        rows += [[0] * n + list(r) for r in other.pairing]
        return IntersectionLattice(classes, tuple(tuple(r) for r in rows), self.c1 + other.c1)

    def without(self, labels: Iterable[str]) -> "IntersectionLattice":
        drop = {self.index(l) for l in labels}
        keep = [i for i in range(len(self)) if i not in drop]
        return IntersectionLattice(
            tuple(self.classes[i] for i in keep),
            tuple(tuple(self.pairing[i][j] for j in keep) for i in keep),
            tuple(self.c1[i] for i in keep),
        )

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "classes": list(self.classes),
            "pairing": [list(r) for r in self.pairing],
            "c1": list(self.c1),
        }

    @staticmethod
    def from_json(obj: dict | str) -> "IntersectionLattice":
        """Read ``{"pairing": [[...]], "classes": [...], "c1": [...]}``.

        ``classes`` and ``c1`` are optional.  Malformed JSON, a non-square
        pairing and entries that are not integers (floats, booleans) raise
        DomainError.
        """
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise DomainError(f"malformed JSON input: {exc}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("pairing"), list):
            raise DomainError('a lattice is an object with a "pairing" matrix')
        rows = tuple(_integers(row, "each pairing row") for row in obj["pairing"])
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DomainError("pairing matrix must be square")
        classes = obj.get("classes") or [f"C{i + 1}" for i in range(n)]
        c1 = obj.get("c1")
        if c1 is None:
            # adjunction default for sphere classes
            c1 = [2 + rows[i][i] for i in range(n)]
        return IntersectionLattice(tuple(classes), rows, _integers(c1, "c1"))


def _integers(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise DomainError(f"{what} must be a list of integers, got {values!r}")
    return tuple(values)


def empty_lattice() -> IntersectionLattice:
    return IntersectionLattice((), (), ())


def add_class(
    lat: IntersectionLattice,
    label: str,
    self_intersection: int,
    pairings: dict[str, int] | None = None,
    c1: int | None = None,
) -> IntersectionLattice:
    """Adjoin one labeled class with prescribed pairings (default c1 by
    adjunction).  Useful for synthetic configurations in tests and models."""
    if label in lat.classes:
        raise DomainError(f"label {label!r} already present")
    pairings = pairings or {}
    n = len(lat)
    cross = [0] * n
    for other, v in pairings.items():
        cross[lat.index(other)] = v
    rows = [list(r) + [cross[i]] for i, r in enumerate(lat.pairing)]
    rows.append(cross + [self_intersection])
    c1v = (2 + self_intersection) if c1 is None else c1
    return IntersectionLattice(
        lat.classes + (label,),
        tuple(tuple(r) for r in rows),
        lat.c1 + (c1v,),
    )


def lattice_from_parts(
    labels: Sequence[str],
    pairs: dict[tuple[str, str], int],
    self_intersections: dict[str, int],
) -> IntersectionLattice:
    """Build a lattice from sparse data; c1 set by adjunction."""
    idx = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
    for l, s in self_intersections.items():
        rows[idx[l]][idx[l]] = s
    for (a, b), v in pairs.items():
        rows[idx[a]][idx[b]] = v
        rows[idx[b]][idx[a]] = v
    c1 = tuple(2 + rows[i][i] for i in range(n))
    return IntersectionLattice(tuple(labels), tuple(tuple(r) for r in rows), c1)


# -- signature --------------------------------------------------------------


def signature(form) -> tuple[int, int, int]:
    """Counts ``(b_plus, b_minus, b_zero)`` of a symmetric form.

    Computed by symmetric (congruence) diagonalization over exact rationals:
    pick a nonzero diagonal pivot, or repair a zero diagonal with a hyperbolic
    row+column addition, and clear the pivot row/column.  The cost is
    Theta(n^2) even for chain forms: a dense Fraction copy of the matrix,
    then a scan of every column at each pivot (only nonzero entries are
    updated).  The triple is a congruence invariant, hence independent of
    basis.
    """
    if isinstance(form, IntersectionLattice):
        rows = form.pairing
    else:
        rows = form
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


# -- blowups / blowdowns -----------------------------------------------------


def blow_up(lat: IntersectionLattice, label: str | None = None) -> IntersectionLattice:
    """Adjoin a fresh orthogonal (-1)-class with c1 = 1.

    Orthogonality means the positive part of the form is untouched, so
    ``b_plus`` is unchanged.
    """
    if label is None:
        k = 1
        while f"E{k}" in lat.classes:
            k += 1
        label = f"E{k}"
    if label in lat.classes:
        raise DomainError(f"label {label!r} already present")
    return lat.direct_sum(IntersectionLattice((label,), ((-1,),), (1,)))


def blow_down(lat: IntersectionLattice, label: str) -> IntersectionLattice:
    """Contract an exceptional class, pushing forward every other class.

    For a class C meeting the contracted class e in m = C.e points, the image
    downstairs is C + m*e: self-intersection grows by m^2, c1 by m, and the
    pairing of survivors C, D grows by (C.e)(D.e).  This is the unique rule
    making contraction inverse to blowing up a transverse configuration.
    """
    i = lat.index(label)
    if lat.pairing[i][i] != -1 or lat.c1[i] != 1:
        raise DomainError(
            f"cannot contract {label!r}: needs self-intersection -1 and c1 = 1, "
            f"has {lat.pairing[i][i]} and c1 = {lat.c1[i]}"
        )
    keep = [j for j in range(len(lat)) if j != i]
    m = [lat.pairing[j][i] for j in range(len(lat))]
    rows = tuple(
        tuple(lat.pairing[j][l] + m[j] * m[l] for l in keep) for j in keep
    )
    c1 = tuple(lat.c1[j] + m[j] for j in keep)
    return IntersectionLattice(tuple(lat.classes[j] for j in keep), rows, c1)


def blow_up_at(
    lat: IntersectionLattice, touched: Sequence[str], label: str
) -> IntersectionLattice:
    """Blow up a point lying on the listed classes (transversally, once each).

    Inverse of :func:`blow_down` for this configuration: the new class e has
    e^2 = -1 and c1 = 1, each touched class C is replaced by its proper
    transform C - e (self-intersection and c1 drop by 1, C.e = 1), and two
    touched classes through the point lose one mutual intersection.
    """
    if label in lat.classes:
        raise DomainError(f"label {label!r} already present")
    n = len(lat)
    idx = [lat.index(t) for t in touched]
    if len(set(idx)) != len(idx):
        raise DomainError("touched classes must be distinct")
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
    return IntersectionLattice(
        lat.classes + (label,), tuple(tuple(r) for r in rows), tuple(c1)
    )


# -- b2+ = 1 criteria --------------------------------------------------------


def exceptional_pair_criterion(lat: IntersectionLattice, e1: str, e2: str) -> bool:
    """True iff two exceptional classes meet (pairing >= 1).

    Two meeting (-1)-spheres can be smoothed at one intersection point into a
    sphere in the class E1 + E2 with c1 = 2, which forces b2+ = 1; the c1 sum
    is asserted whenever the criterion fires.
    """
    for e in (e1, e2):
        if not lat.is_exceptional(e):
            raise DomainError(f"{e!r} is not an exceptional class")
    if e1 == e2:
        raise DomainError("criterion needs two distinct classes")
    k = lat.pair(e1, e2)
    if k >= 1:
        c1_sum = lat.c1_of(e1) + lat.c1_of(e2)
        if c1_sum != 2:
            raise StructureError(f"exceptional pair with c1 sum {c1_sum} != 2")
        return True
    return False


@dataclass(frozen=True)
class ChainContactReplay:
    """Outcome of the blowdown replay behind :func:`chain_contact_criterion`."""

    triggered: bool
    via: str | None  # class whose contact fired the criterion
    contractions: tuple[str, ...]  # classes contracted before it fired
    pair: tuple[str, str] | None  # the intersecting exceptional pair found
    pair_self_intersections: tuple[int, int] | None
    pair_product: int | None
    c1_sum: int | None


def chain_contact_replay(lat: IntersectionLattice, eprime: str, config) -> ChainContactReplay:
    """Replay of the contact criterion for an exceptional class E' vs a
    weighted-blowup configuration.

    If E' meets the configuration's own exceptional class the pair criterion
    applies at once.  If E' instead meets a chain class, contract the
    configuration in its forced blowdown order (the unique (-1)-class at each
    stage), never contracting a class E' touches, until the first touched
    class reaches self-intersection -1; at that stage E' is still untouched
    (everything contracted so far was disjoint from it) and the two classes
    form an intersecting exceptional pair.

    ``config`` needs attributes ``exceptional_label`` and ``chain_labels``.
    """
    etilde = config.exceptional_label
    chain_labels = tuple(config.chain_labels)
    if eprime == etilde:
        raise DomainError("E' must be distinct from the configuration's class")
    if not lat.is_exceptional(eprime):
        raise DomainError(f"{eprime!r} is not an exceptional class")
    if lat.pair(eprime, etilde) != 0:
        k = lat.pair(eprime, etilde)
        if k >= 1:
            exceptional_pair_criterion(lat, eprime, etilde)
        return ChainContactReplay(
            True, etilde, (), (eprime, etilde), (-1, -1), k,
            lat.c1_of(eprime) + lat.c1_of(etilde),
        )
    contacts = [l for l in chain_labels if lat.pair(eprime, l) != 0]
    if not contacts:
        return ChainContactReplay(False, None, (), None, None, None, None)
    work = lat
    remaining = [etilde, *chain_labels]
    done: list[str] = []
    while True:
        hit = next(
            (l for l in remaining
             if work.self_intersection(l) == -1 and work.pair(eprime, l) != 0),
            None,
        )
        if hit is not None:
            k = work.pair(eprime, hit)
            if k >= 1:
                exceptional_pair_criterion(work, eprime, hit)
            return ChainContactReplay(
                True, hit, tuple(done), (eprime, hit),
                (work.self_intersection(eprime), work.self_intersection(hit)),
                k, work.c1_of(eprime) + work.c1_of(hit),
            )
        nxt = next(
            (l for l in remaining
             if work.self_intersection(l) == -1 and work.c1_of(l) == 1),
            None,
        )
        if nxt is None:
            raise StructureError("blowdown replay stuck: no (-1)-class left")
        work = blow_down(work, nxt)
        remaining.remove(nxt)
        done.append(nxt)


def chain_contact_criterion(lat: IntersectionLattice, eprime: str, config) -> bool:
    """True iff E' pairs nonzero with the configuration's exceptional class
    or with any of its chain classes (detected through the blowdown replay)."""
    return chain_contact_replay(lat, eprime, config).triggered
