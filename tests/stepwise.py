"""Step-by-step constructions, kept as oracles for the single-store ones.

These are how ``hjtoric.blowup`` built a cut-replay lattice and ran a
weighted blowdown before the constructions edited one private copy of the
sparse store: one public ``blow_up_at`` or ``blow_down`` per class, each
returning a fresh lattice.  They use only the public lattice operations and
queries.  Those operations run the same kernels (``_blow_up``,
``_contract``), so these oracles check what the constructions add: one
shared store, the forced contraction order and the checks around it.  The
kernels themselves are checked against the dense routines in ``dense.py``.
"""

from hjtoric.blowup import BlowupConfig, McDuffSequence
from hjtoric.errors import DomainError, StructureError
from hjtoric.homology import IntersectionLattice, blow_down, blow_up_at, empty_lattice


def mcduff_lattice(seq: McDuffSequence, label_prefix: str = "") -> IntersectionLattice:
    """One ``blow_up_at`` per cut, at the classes of its flanking cuts."""
    lat = empty_lattice()
    for i, flank in enumerate(seq.flanks):
        touched = [f"{label_prefix}e{j + 1}" for j in flank if j is not None]
        lat = blow_up_at(lat, touched, f"{label_prefix}e{i + 1}")
    return lat


def weighted_blowdown(lat: IntersectionLattice, config: BlowupConfig) -> IntersectionLattice:
    """One ``blow_down`` per config class: E~ first, then the ready chain
    class with the earliest chain label."""
    for label in config.class_labels:
        lat.self_intersection(label)
    etilde = config.exceptional_label
    if lat.self_intersection(etilde) != -1:
        raise StructureError(f"{etilde!r} is not at -1")
    current = blow_down(lat, etilde)
    remaining = {l: i for i, l in enumerate(config.chain_labels)}
    ready = {l for l in remaining if _contractible(current, l)}
    while remaining:
        if not ready:
            raise StructureError(f"blowdown stalled (remaining: {list(remaining)})")
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


def _contractible(lat: IntersectionLattice, label: str) -> bool:
    return lat.self_intersection(label) == -1 and lat.c1_of(label) == 1


def outcome(fn, *args):
    """The value ``fn(*args)`` returns, or the type of the package error it
    raises, so that two routes can be compared on bad input too."""
    try:
        return fn(*args)
    except (DomainError, StructureError) as exc:
        return type(exc)
