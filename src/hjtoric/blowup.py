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
  ordinary corner cuts of the quadrant.  The Euclidean algorithm on (p, q)
  gives the multiplicities and splits the cuts into blocks; each cut's
  label is the Stern-Brocot mediant of the labels of the two edges flanking
  its corner, starting from the axes (1, 0) and (0, 1), and the block
  parity decides which flank the new cut replaces.  The labels end at
  (q, p).  Every corner cut is smooth (its flanks have determinant 1) and
  is an ordinary blowup at the classes of its flanking cuts.  The replay is
  pure integer arithmetic (Graham-Knuth-Patashnik, *Concrete Mathematics*
  sec. 4.5; Fulton, *Introduction to Toric Varieties* sec. 2.6).

``cross_check`` verifies that the two routes build isomorphic lattices; the
sum of squared multiplicities always equals p*q (each multiplicity-m cut
removes m^2 half-unit triangles of the p*q-area corner being excised).
``weighted_blowdown`` undoes a config along the one forced-contraction walk,
``homology._forced_contractions``, that ``chain_contact_replay`` also drives.

Both chains of a config are stored with class index 1 adjacent to E~ (the
expansions above read from the opposite, axis-adjacent end; reversing an
expansion of m/k gives the expansion of m/k' with kk' = 1 mod m, so either
orientation carries the same data).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, StructureError, require_ints, require_object
from .hj import hj_expand
from .homology import IntersectionLattice, _blow_up, _contract, _forced_contractions, _lattice
from .rationals import parse_rational
from .resolution import Chain, chain_from_terms

Vec = tuple[int, int]
Point = tuple[Fraction, Fraction]


def det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _require_weights(p: int, q: int) -> None:
    require_ints((p, q), "weights must be integers")
    if p < 1 or q < 1:
        raise DomainError(f"weights must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise DomainError(f"weights ({p}, {q}) must be coprime")
    if p <= q and not (p == q == 1):
        raise DomainError(f"weights need p > q (or p = q = 1), got ({p}, {q})")


@dataclass(frozen=True)
class BlowupConfig:
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

    @property
    def class_labels(self) -> tuple[str, ...]:
        return (self.exceptional_label,) + self.chain_labels

    def lattice(self) -> IntersectionLattice:
        """E~ at -1 joined to the first class of each chain, c1 by adjunction.

        Built once per config, as a sparse store, and returned as the same
        immutable value afterwards, since every simulator blowdown reads it.
        The memo is no field: it takes no part in equality, hash or repr,
        and a ``dataclasses.replace`` copy builds its own."""
        try:
            return self.__dict__["_lattice"]
        except KeyError:
            pass
        e = self.exceptional_label
        selfs, edges = {e: -1}, {e: {}}
        for chain in (self.chain_p, self.chain_q):
            prev = e
            for label, s in zip(chain.labels, chain.self_intersections):
                selfs[label], edges[label] = s, {prev: 1}
                edges[prev][label] = 1
                prev = label
        if len(selfs) != len(self.class_labels):
            raise DomainError("class labels must be distinct")
        lat = IntersectionLattice._sparse(selfs, {l: 2 + s for l, s in selfs.items()}, edges)
        object.__setattr__(self, "_lattice", lat)
        return lat

    def prefixed(self, prefix: str) -> "BlowupConfig":
        """The same config with ``prefix`` put before every class label."""
        return BlowupConfig(self.p, self.q, self.size, self.chain_p.prefixed(prefix),
                            self.chain_q.prefixed(prefix), prefix + self.exceptional_label)

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
    are the reversed expansions.  ``size`` is read by ``parse_rational``;
    :meth:`BlowupConfig.prefixed` relabels a config.
    """
    _require_weights(p, q)
    size = parse_rational(size)
    if size <= 0:
        raise DomainError(f"size must be positive, got {size}")
    terms_p = hj_expand(p, p - q).terms
    terms_q = hj_expand(q, (q - p) % q).terms
    return BlowupConfig(p, q, size, chain_from_terms(reversed(terms_p), prefix="Zp"),
                        chain_from_terms(reversed(terms_q), prefix="Zq"), "E~")


@dataclass(frozen=True)
class McDuffSequence:
    """The cut replay: multiplicities, labels and flanks of the ordinary cuts.

    ``multiplicities`` lists q_1 repeated a_1 times, q_2 repeated a_2 times,
    and so on, where q_1 = q and q_{i+1} = q_{i-1} - a_i * q_i (the Euclidean
    algorithm on (p, q), q_0 = p), stopping when the remainder vanishes.
    ``cut_directions`` are the corresponding cut labels (a, b), the negated
    outward conormal of each new edge; the last is always (q, p).
    ``flanks`` names, per cut, the earlier cuts on its up and down side
    (None for the vertical and the horizontal axis); ``lattice`` and
    ``chords`` are built from them.
    """

    p: int
    q: int
    multiplicities: tuple[int, ...]
    cut_directions: tuple[Vec, ...]
    flanks: tuple[tuple[int | None, int | None], ...]

    def __len__(self) -> int:
        return len(self.multiplicities)

    def lattice(self) -> IntersectionLattice:
        """One class e_i per cut: a blowup at the classes of its flanking
        cuts (the axes carry no class).  The blowups edit one fresh store,
        so the n cuts cost O(n) in total."""
        store: tuple[dict, dict, dict] = ({}, {}, {})
        for i, flank in enumerate(self.flanks):
            touched = [f"e{j + 1}" for j in flank if j is not None]
            _blow_up(store, touched, f"e{i + 1}")
        return IntersectionLattice._sparse(*store)

    def chords(self) -> list[tuple[Vec, Point, Point]]:
        """(label, start, end) per cut, cut i sized by multiplicity i.

        Cut i sits where the lines of its flanks meet, u.x = c_u and
        d.x = c_d with det(u, d) = 1, and runs from the up flank to the down
        flank; its own line is (u + d).x = c_u + c_d + m_i.
        """
        levels: list[Fraction] = []
        chords: list[tuple[Vec, Point, Point]] = []
        labels = self.cut_directions
        for label, m, (up, down) in zip(labels, self.multiplicities, self.flanks):
            (ux, uy), cu = ((1, 0), Fraction(0)) if up is None else (labels[up], levels[up])
            (dx, dy), cd = ((0, 1), Fraction(0)) if down is None else (labels[down], levels[down])
            vx, vy = cu * dy - cd * uy, ux * cd - dx * cu  # the cut vertex
            chords.append((label, (vx - m * uy, vy + m * ux), (vx + m * dy, vy - m * dx)))
            levels.append(cu + cd + m)
        return chords


def _euclid_blocks(p: int, q: int) -> tuple[list[int], list[int]]:
    """Block sizes a_i and values q_i of the multiplicity recursion."""
    blocks: list[int] = []
    values: list[int] = []
    prev, cur = p, q
    while cur > 0:
        a, rem = divmod(prev, cur)
        blocks.append(a)
        values.append(cur)
        prev, cur = cur, rem
    return blocks, values


def mcduff_sequence(q: int, p: int) -> McDuffSequence:
    """The cut replay for weights (q, p), p > q.

    Each cut's label is the mediant of its two flanking labels, starting
    from the axes (1, 0) and (0, 1).  Block i of the Euclidean recursion
    makes a_i cuts; in the first, third, ... block each new cut replaces the
    up flank of the next cut, in the second, fourth, ... the down flank.
    For (4, 7) this is multiplicities (4, 3, 1, 1, 1) and cuts (1, 1),
    (1, 2), (2, 3), (3, 5), (4, 7).
    """
    _require_weights(p, q)
    blocks, values = _euclid_blocks(p, q)
    multiplicities: list[int] = []
    labels: list[Vec] = []
    flanks: list[tuple[int | None, int | None]] = []
    up: int | None = None
    down: int | None = None
    u, d = (1, 0), (0, 1)
    for block, (a, value) in enumerate(zip(blocks, values)):
        for _ in range(a):
            if det2(u, d) != 1:
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


def mcduff_lattice(q: int, p: int) -> IntersectionLattice:
    """Intersection lattice of the cut replay, one class per cut."""
    return mcduff_sequence(q, p).lattice()


def cut_chords(q: int, p: int) -> list[tuple[Vec, Point, Point]]:
    """Exact chord geometry of the cut cascade, cut i sized by multiplicity i.

    Returns (label, start, end) per cut, in cut order.  With these sizes
    intermediate edges shrink to points and the last chord is the hypotenuse
    from (0, q) to (p, 0), the boundary of the excised corner; this is the
    picture usually drawn for the resolution diagram.
    """
    return mcduff_sequence(q, p).chords()


def _path_profile(lat: IntersectionLattice) -> list[tuple[int, int]] | None:
    """(self-intersection, c1) along the path, or None if not a path graph."""
    if len(lat) == 0:
        return []
    adj = {l: lat.neighbours(l) for l in lat.classes}
    if any(len(row) > 2 or any(v != 1 for v in row.values()) for row in adj.values()):
        return None
    ends = [l for l in lat.classes if len(adj[l]) == 1]
    if len(lat) > 1 and len(ends) != 2:
        return None
    order = [ends[0] if ends else lat.classes[0]]
    prev = None
    while len(order) < len(lat):
        nxts = [l for l in adj[order[-1]] if l != prev]
        if len(nxts) != 1:
            return None
        prev = order[-1]
        order.append(nxts[0])
    return [(lat.self_intersection(l), lat.c1_of(l)) for l in order]


def lattices_isomorphic_as_chains(a: IntersectionLattice, b: IntersectionLattice) -> bool:
    """Permutation isomorphism test for path-shaped lattices."""
    pa, pb = _path_profile(a), _path_profile(b)
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
    return lattices_isomorphic_as_chains(fulton_config(p, q).lattice(), mcduff_lattice(q, p))


def weighted_blowdown(lat: IntersectionLattice, config: BlowupConfig) -> IntersectionLattice:
    """Remove a blowup configuration by iterated (-1)-contractions.

    Contracts E~ first; afterwards exactly one remaining config class sits at
    self-intersection -1 at each stage (the reverse of the cut replay), and
    contracting in that forced order empties the configuration in
    |chain_p| + |chain_q| + 1 steps.  Any stage without a (-1) config class
    means the configuration was corrupted.  The contractions edit one copy
    of ``lat``'s store, so the whole blowdown costs O(n) beyond that copy.
    """
    _lattice(lat)
    require_object(config, BlowupConfig, "config must be a BlowupConfig")
    for label in config.class_labels:
        lat.self_intersection(label)  # presence check, raises DomainError
    etilde = config.exceptional_label
    if lat.self_intersection(etilde) != -1:
        raise StructureError(
            f"{etilde!r} has self-intersection {lat.self_intersection(etilde)}, not -1"
        )
    store = lat._store()
    _contract(store, etilde)
    for _ in _forced_contractions(store, config.chain_labels):
        pass
    remaining = [l for l in config.chain_labels if l in store[0]]
    if remaining:
        raise StructureError("blowdown stalled: no remaining config class at -1 "
                             f"(remaining: {remaining})")
    return IntersectionLattice._sparse(*store)
