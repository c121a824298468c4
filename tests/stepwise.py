"""Step-by-step constructions, kept as oracles for the single-store ones.

These are how ``hjtoric.blowup`` built a cut-replay lattice, ran a weighted
blowdown and read a path lattice's profile, and how ``hjtoric.homology``
replayed the chain-contact criterion, before the constructions edited one
private copy of the sparse store: one public ``blow_up_at`` or
``blow_down`` per class, each returning a fresh lattice, and one public
query per class read.  They use only the public lattice operations and
queries.  Those operations run the same kernels (``_blow_up``,
``_forced_contractions``), so these oracles check what the constructions
add: one shared store, the forced contraction order and the checks around
it.  The kernels themselves are checked against the dense routines in
``dense.py``.
"""

from hjtoric.blowup import BlowupConfig, McDuffSequence
from hjtoric.errors import DomainError, StructureError
from hjtoric.homology import (
    ChainContactReplay,
    IntersectionLattice,
    blow_down,
    blow_up_at,
    empty_lattice,
    exceptional_pair_criterion,
)


def mcduff_lattice(seq: McDuffSequence) -> IntersectionLattice:
    """One ``blow_up_at`` per cut, at the classes of its flanking cuts."""
    lat = empty_lattice()
    for i, flank in enumerate(seq.flanks):
        touched = [f"e{j + 1}" for j in flank if j is not None]
        lat = blow_up_at(lat, touched, f"e{i + 1}")
    return lat


def weighted_blowdown(lat: IntersectionLattice, config: BlowupConfig) -> IntersectionLattice:
    """One ``blow_down`` per config class: E~ first, then the ready chain
    class with the earliest chain label."""
    for label in config.class_labels:
        lat.self_intersection(label)
    etilde = config.exceptional_label
    if lat.self_intersection(etilde) != -1:
        raise StructureError(
            f"{etilde!r} has self-intersection {lat.self_intersection(etilde)}, not -1")
    current = blow_down(lat, etilde)
    remaining = {l: i for i, l in enumerate(config.chain_labels)}
    ready = {l for l in remaining if _contractible(current, l)}
    while remaining:
        if not ready:
            raise StructureError("blowdown stalled: no remaining config class at -1 "
                                 f"(remaining: {list(remaining)})")
        label = min(ready, key=remaining.__getitem__)
        touched = current.neighbours(label)
        current = blow_down(current, label)
        del remaining[label]
        ready.discard(label)
        for l in touched:
            if l in remaining and _contractible(current, l):
                ready.add(l)
            else:
                ready.discard(l)
    return current


def chain_contact_replay(lat: IntersectionLattice, eprime: str, config) -> ChainContactReplay:
    """One ``blow_down`` per contraction, rescanning the remaining config
    classes for a hit and for the next (-1)-class at every step."""
    etilde = config.exceptional_label
    chain_labels = tuple(config.chain_labels)
    if eprime == etilde:
        raise DomainError("E' must be distinct from the configuration's class")
    if not lat.is_exceptional(eprime):
        raise DomainError(f"{eprime!r} is not an exceptional class")
    if lat.pair(eprime, etilde) != 0:
        k = lat.pair(eprime, etilde)
        if not lat.is_exceptional(etilde):
            raise DomainError(f"{etilde!r} is not an exceptional class")
        if k >= 1:
            exceptional_pair_criterion(lat, eprime, etilde)
        return ChainContactReplay(
            True, etilde, (), (eprime, etilde),
            (lat.self_intersection(eprime), lat.self_intersection(etilde)), k,
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


def path_profile(lat: IntersectionLattice) -> list[tuple[int, int]] | None:
    """(self-intersection, c1) along the path, or None if not a path graph.

    ``blowup._path_profile`` as it was, through the public accessors."""
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


def _contractible(lat: IntersectionLattice, label: str) -> bool:
    return lat.self_intersection(label) == -1 and lat.c1_of(label) == 1


def outcome(fn, *args):
    """The value ``fn(*args)`` returns, or the type and message of the
    package error it raises, so that two routes can be compared on bad input
    too."""
    try:
        return fn(*args)
    except (DomainError, StructureError) as exc:
        return type(exc), str(exc)
