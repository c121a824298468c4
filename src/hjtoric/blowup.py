"""(p, q)-weighted blowups of a smooth point, resolved two independent ways.

A weighted blowup with coprime weights p > q >= 1 removes a small ellipsoid
E(q, p) and collapses its boundary, producing an exceptional curve through
two new quotient points of orders p and q.  Two routes compute the resolved
intersection lattice:

* the vertex route resolves each new corner of the moment polygon with a
  negative continued fraction: the order-p corner from p/(p - q), the
  order-q corner from q/k with k = q - p mod q, joined by the proper
  transform E~ of the exceptional curve with E~^2 = -1;

* the multiplicity route realizes the same surface by a cascade of
  ordinary corner cuts of the quadrant.  The Euclidean algorithm on (p, q),
  ``hj._euclid_blocks``, gives the multiplicities and splits the cuts into
  blocks; each cut's label is the Stern-Brocot mediant of the labels of the
  two edges flanking its corner, from the axes (1, 0) and (0, 1), and the
  block parity decides which flank the new cut replaces.  The labels end at
  (q, p).  Every corner cut is smooth (its flanks have determinant 1) and
  is an ordinary blowup at the classes of its flanking cuts.  The replay is
  pure integer arithmetic (Graham-Knuth-Patashnik, *Concrete Mathematics*
  sec. 4.5; Fulton, *Introduction to Toric Varieties* sec. 2.6).

``cross_check`` verifies that the two routes build isomorphic lattices; the
sum of squared multiplicities always equals p*q (each multiplicity-m cut
removes m^2 half-unit triangles of the p*q-area corner being excised).
``weighted_blowdown`` walks a lattice of as many classes as the config along its
path first, else (or on an anomaly) checks it and runs the general walk.

Both chains of a config are stored with class index 1 adjacent to E~ (the
expansions above read from the opposite, axis-adjacent end; reversing an
expansion of m/k gives the expansion of m/k' with kk' = 1 mod m, so either
orientation carries the same data).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from ._value import Value
from .errors import DomainError, StructureError, require_object, require_seq
from .hj import MAX_TERMS, _euclid_blocks, hj_expand
from .homology import (IntersectionLattice, _bump, _forced_contractions, _lattice,
                       _require_exceptional, empty_lattice)
from .rationals import parse_rational
from .resolution import Chain, chain_from_terms

Vec = tuple[int, int]
Point = tuple[int, int]  # a chord end: every one is an integer point


def _require_weights(p: int, q: int) -> None:
    require_seq((p, q), int, "weights must be integers")
    if p < 1 or q < 1:
        raise DomainError(f"weights must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise DomainError(f"weights ({p}, {q}) must be coprime")
    if p <= q and not (p == q == 1):
        raise DomainError(f"weights need p > q (or p = q = 1), got ({p}, {q})")


class BlowupConfig(Value):
    """The resolved picture of a (p, q)-weighted blowup of a smooth point.

    ``chain_p`` resolves the order-p point, ``chain_q`` the order-q point;
    both are oriented so their first class is the one meeting the
    exceptional class E~.  ``size`` scales the symplectic area of E~.
    """

    p: int
    q: int
    size: Fraction
    chain_p: Chain
    chain_q: Chain
    exceptional_label: str

    @property
    def chain_labels(self) -> tuple[str, ...]:
        return self.chain_p.labels + self.chain_q.labels

    @cached_property
    def class_labels(self) -> tuple[str, ...]:
        """E~, then both chains: checked distinct on the first read, kept (no field)."""
        labels = (self.exceptional_label, *self.chain_p.labels, *self.chain_q.labels)
        if len(set(labels)) != len(labels):
            raise DomainError("class labels must be distinct")
        return labels

    @cached_property
    def _lattice(self) -> IntersectionLattice:
        """``lattice()``, built on the first read as a sparse store and kept
        (no field), like ``class_labels``: not compared, hashed or shown,
        and a ``dataclasses.replace`` copy builds its own."""
        e = self.class_labels[0]  # the read checks that the labels are distinct
        selfs, edges = {e: -1}, {e: {}}
        for chain in (self.chain_p, self.chain_q):
            prev = e
            for label, s in zip(chain.labels, chain.self_intersections):
                selfs[label], edges[label] = s, {prev: 1}
                edges[prev][label] = 1
                prev = label
        return IntersectionLattice._sparse(selfs, None, edges)

    def lattice(self) -> IntersectionLattice:
        """E~ at -1 joined to the first class of each chain, c1 by adjunction
        (``IntersectionLattice._sparse`` fills it in): the same immutable
        value on every call, since every simulator blowdown reads it."""
        return self._lattice

    def to_json(self) -> dict:
        # chains are reported from the axis end (the continued-fraction
        # reading order); the lattice block carries the actual wiring
        return {
            "p": self.p,
            "q": self.q,
            "chain_p": list(reversed(self.chain_p.self_intersections)),
            "chain_q": list(reversed(self.chain_q.self_intersections)),
            "lattice": self.lattice().to_json(),
        }


def fulton_config(
    p: int,
    q: int,
    size: Fraction | int | str = 1,
) -> BlowupConfig:
    """Resolved lattice of the (p, q)-weighted blowup via the vertex route.

    The order-p corner resolves by the expansion of p/(p - q) and the
    order-q corner by the expansion of q/k with k = q - p mod q (empty for
    q = 1); E~ meets the last class of each expansion, so the stored chains
    are the reversed expansions.  ``size`` is read by ``parse_rational``.
    """
    _require_weights(p, q)
    size = parse_rational(size)
    if size <= 0:
        raise DomainError(f"size must be positive, got {size}")
    terms_p = hj_expand(p, p - q).terms
    terms_q = hj_expand(q, (q - p) % q).terms
    return BlowupConfig(p, q, size, chain_from_terms(reversed(terms_p), prefix="Zp"),
                        chain_from_terms(reversed(terms_q), prefix="Zq"), "E~")


class McDuffSequence(Value):
    """The cut replay: multiplicities, labels and flanks of the ordinary cuts.

    ``multiplicities`` lists q_1 repeated a_1 times, q_2 repeated a_2 times,
    and so on, where q_1 = q and q_{i+1} = q_{i-1} - a_i * q_i (the Euclidean
    algorithm on (p, q), q_0 = p), stopping when the remainder vanishes.
    ``cut_directions`` are the corresponding cut labels (a, b), the negated
    outward conormal of each new edge; the last is always (q, p).
    ``flanks`` names, per cut, the earlier cuts on its up and down side
    (None for the vertical and the horizontal axis), a DomainError unless
    distinct; ``lattice`` and ``chords`` are built from them.
    """

    p: int
    q: int
    multiplicities: tuple[int, ...]
    cut_directions: tuple[Vec, ...]
    flanks: tuple[tuple[int | None, int | None], ...]

    def __post_init__(self):  # what lattice and chords index by, checked once
        for i, flank in enumerate(self.flanks):
            if type(flank) is tuple and len(flank) == 2:
                up, down = flank
                if ((up is None or type(up) is int and 0 <= up < i)
                        and (down is None or type(down) is int and 0 <= down < i)
                        and (up is None or up != down)):
                    continue
            raise DomainError(f"the flanks of cut {i + 1} must be a pair of None or "
                              f"distinct earlier cuts, got {flank!r}")

    def __len__(self) -> int:
        return len(self.multiplicities)

    def lattice(self) -> IntersectionLattice:
        """One class e_i per cut: a blowup at the classes of its flanking
        cuts (the axes carry no class), in one pass over ``flanks`` on one
        fresh store: the cut's class, at -1 with c1 1, goes in between its
        flanks, each flank drops by one, and the two are parted (an edge of 1
        deleted, any other pairing lowered by one), so the n cuts cost O(n)."""
        labels = [f"e{i + 1}" for i in range(len(self.flanks))]
        self_, c1, edges = {}, {}, {}
        for label, (up, down) in zip(labels, self.flanks):
            row = {}
            if up is not None and down is not None:
                a, b = labels[up], labels[down]
                ra, rb = edges[a], edges[b]
                if ra.get(b) == 1:
                    del ra[b], rb[a]
                else:
                    _bump(ra, b, -1)
                    _bump(rb, a, -1)
            for t in (labels[j] for j in (up, down) if j is not None):
                self_[t] -= 1
                c1[t] -= 1
                edges[t][label] = row[t] = 1
            self_[label], c1[label], edges[label] = -1, 1, row
        return IntersectionLattice._sparse(self_, c1, edges)

    def chords(self) -> list[tuple[Vec, Point, Point]]:
        """(label, start, end) per cut, cut i sized by multiplicity i, in ints.

        Cut i sits where the lines of its flanks meet, u.x = c_u and
        d.x = c_d with det(u, d) = 1, and runs from the up flank to the down
        flank; its own line is (u + d).x = c_u + c_d + m_i, all integers.
        """
        levels: list[int] = []
        chords: list[tuple[Vec, Point, Point]] = []
        labels = self.cut_directions
        for label, m, (up, down) in zip(labels, self.multiplicities, self.flanks):
            (ux, uy), cu = ((1, 0), 0) if up is None else (labels[up], levels[up])
            (dx, dy), cd = ((0, 1), 0) if down is None else (labels[down], levels[down])
            vx, vy = cu * dy - cd * uy, ux * cd - dx * cu  # the cut vertex
            chords.append((label, (vx - m * uy, vy + m * ux), (vx + m * dy, vy - m * dx)))
            levels.append(cu + cd + m)
        return chords


def mcduff_sequence(q: int, p: int) -> McDuffSequence:
    """The cut replay for weights (q, p), p > q.

    Each cut's label is the mediant of its two flanking labels, starting
    from the axes (1, 0) and (0, 1).  Block i of the Euclidean recursion,
    ``hj._euclid_blocks``, makes a_i cuts; in the first, third, ... block
    each new cut replaces the up flank of the next cut, in the second,
    fourth, ... the down flank.  For (4, 7) this is multiplicities
    (4, 3, 1, 1, 1) and cuts (1, 1), (1, 2), (2, 3), (3, 5), (4, 7).  The cut
    count, the sum of the block sizes, is at most p; a replay of more than
    ``hj.MAX_TERMS`` cuts is refused before it starts.
    """
    _require_weights(p, q)
    blocks, values = _euclid_blocks(p, q)
    if p > MAX_TERMS and (n := sum(blocks)) > MAX_TERMS:
        raise DomainError(f"the cut replay of ({q}, {p}) has {n} cuts, more than {MAX_TERMS}")
    multiplicities: list[int] = []
    labels: list[Vec] = []
    flanks: list[tuple[int | None, int | None]] = []
    up: int | None = None
    down: int | None = None
    u, d = (1, 0), (0, 1)
    for block, (a, value) in enumerate(zip(blocks, values)):
        for _ in range(a):
            if u[0] * d[1] - u[1] * d[0] != 1:
                raise StructureError(f"cut {len(labels) + 1} sits at a non-smooth corner {u}, {d}")
            multiplicities.append(value)
            labels.append((u[0] + d[0], u[1] + d[1]))
            flanks.append((up, down))
            if block % 2 == 0:
                up, u = len(labels) - 1, labels[-1]
            else:
                down, d = len(labels) - 1, labels[-1]
    if labels[-1] != (q, p):
        raise StructureError(f"cut replay ended at {labels[-1]}, expected {(q, p)}")
    return McDuffSequence(p, q, tuple(multiplicities), tuple(labels), tuple(flanks))


def cut_chords(q: int, p: int) -> list[tuple[Vec, Point, Point]]:
    """Exact chord geometry of the cut cascade, cut i sized by multiplicity i.

    Returns (label, start, end) per cut, in cut order, with integer ends.
    With these sizes intermediate edges shrink to points and the last chord
    is the hypotenuse from (0, q) to (p, 0), the boundary of the excised
    corner; this is the picture usually drawn for the resolution diagram.
    """
    return mcduff_sequence(q, p).chords()


def _path_profile(lat: IntersectionLattice) -> list[tuple[int, int]] | None:
    """(self-intersection, c1) along the path, or None if not a path graph:
    one pass over the store checks the degrees and weights and finds the
    ends, then one walk from an end must visit every class."""
    edges, ends = lat._edges, []
    for label, row in edges.items():
        if len(row) > 2 or not {1}.issuperset(row.values()):
            return None
        if len(row) == 1:
            ends.append(label)
    if len(edges) > 1 and len(ends) != 2:
        return None
    path, prev = ends[:1] or list(edges), None  # a lone class is its own path
    while len(path) < len(edges):
        for nxt in edges[path[-1]]:
            if nxt != prev:
                break
        else:
            return None  # the other end, with classes left off the path
        prev = path[-1]
        path.append(nxt)
    return [(lat._self[l], lat._c1[l]) for l in path]


def lattices_isomorphic_as_chains(a: IntersectionLattice, b: IntersectionLattice) -> bool:
    """Permutation isomorphism test for path-shaped lattices."""
    pa, pb = _path_profile(_lattice(a)), _path_profile(_lattice(b))
    if pa is None or pb is None:
        return False
    return pa == pb or pa == list(reversed(pb))


def cross_check(p: int, q: int) -> bool:
    """Whether the vertex route and the cut replay agree for weights (p, q).

    True iff the replay lattice is isomorphic to the vertex-route lattice by
    a permutation matching self-intersections and pairings (so the replay
    has exactly |chain_p| + |chain_q| + 1 cuts).  A False return means an
    internal inconsistency, not a bad input.
    """
    return lattices_isomorphic_as_chains(fulton_config(p, q).lattice(),
                                          mcduff_sequence(q, p).lattice())


def _path_walk(lat: IntersectionLattice, config: BlowupConfig) -> bool:
    """Whether the forced walk empties ``lat``, read in one pass: E~ a class
    at -1 with c1 = 1, then each chain class as it comes to the top of its
    chain, with c1 = 2 + self and an edge of 1 to its predecessor on the path
    Zp_n..Zp_1, E~, Zq_1..Zq_m, and the degrees twice the path's edges (no
    other edge).  A contraction bumps both neighbours by (1, 1) and joins
    them: its chain's next class comes up bumped once, the other top is
    bumped.  Take the top at -1, p's first; past -1, a stall."""
    self_, c1, edges, e = lat._self, lat._c1, lat._edges, config.exceptional_label
    if self_.get(e) != -1 or c1[e] != 1:
        return False
    p, q = config.chain_p.labels, config.chain_q.labels
    m, n = len(p), len(q)
    degrees, i, j, up_p, up_q = len(edges[e]), 0, 0, True, True  # E~ contracted: both come up
    while True:
        if up_p:  # p's next class comes up; past its end, a top never at -1
            if i < m:
                label = p[i]
                s = self_.get(label)
                if (s is None or c1[label] != s + 2
                        or (row := edges[label]).get(p[i - 1] if i else e) != 1):
                    return False
                degrees, top_p = degrees + len(row), s + 1
            else:
                top_p = 1
            i += 1
        if up_q:
            if j < n:
                label = q[j]
                s = self_.get(label)
                if (s is None or c1[label] != s + 2
                        or (row := edges[label]).get(q[j - 1] if j else e) != 1):
                    return False
                degrees, top_q = degrees + len(row), s + 1
            else:
                top_q = 1
            j += 1
        if top_p == -1:
            up_p, up_q, top_q = True, False, top_q + 1
        elif top_q == -1:
            up_p, up_q, top_p = False, True, top_p + 1
        else:  # done if both chains emptied, with a path edge each and no other
            return i > m and j > n and degrees == 2 * len(self_) - 2


def weighted_blowdown(lat: IntersectionLattice, config: BlowupConfig) -> IntersectionLattice:
    """Remove a blowup configuration by iterated (-1)-contractions.

    Contracts E~ first; afterwards exactly one remaining config class sits at
    self-intersection -1 at each stage (the reverse of the cut replay), and
    contracting in that forced order empties the configuration in
    |chain_p| + |chain_q| + 1 steps.  Any stage without a (-1) config class
    means the configuration was corrupted.  ``_path_walk`` first reads a
    lattice of as many classes as the config, in O(n); else the checks run
    in order and one walk edits a copy of ``lat``'s store, O(n) beyond the
    copy.  A walk that leaves no class returns ``empty_lattice()``.
    """
    if not (isinstance(lat, IntersectionLattice) and isinstance(config, BlowupConfig)):
        _lattice(lat)
        require_object(config, BlowupConfig, "config must be a BlowupConfig")
    selfs, labels = lat._self, config.class_labels
    if len(selfs) == len(labels) and _path_walk(lat, config):
        return empty_lattice()
    if not all(map(selfs.__contains__, labels)):
        missing = next(label for label in labels if label not in selfs)
        raise DomainError(f"no class labeled {missing!r}")
    etilde = labels[0]
    if selfs[etilde] != -1:
        raise StructureError(f"{etilde!r} has self-intersection {selfs[etilde]}, not -1")
    store = lat._store()
    for _ in _forced_contractions(store, labels):
        pass
    if remaining := [label for label in labels if label in store[0]]:
        if etilde in remaining:  # E~ leads the walk: it is left only if its c1 is not 1
            _require_exceptional(lat, etilde)
        raise StructureError("blowdown stalled: no remaining config class at -1 "
                             f"(remaining: {list(remaining)})")
    return IntersectionLattice._sparse(*store) if store[0] else empty_lattice()
