"""Global-lattice stepping of the circle simulator, kept as an oracle.

This is how ``hjtoric.circle`` stepped before each live instance carried its
own lattice: one bookkeeping lattice for the whole state, grown by
``direct_sum`` at every blowup level and shrunk by ``weighted_blowdown`` on
that whole lattice at every blowdown level; an area record per class ever
installed, never pruned; books stored and filtered; the crossed datum found
by a scan of the fixed-point tuple.  It shares the input conventions
(``validate``, ``default_base``, ``default_delta``) and the result type with
the package, but none of the stepping, and it keeps its own tracking: a
``track`` mode on ``cross_level``, a ``tracked`` flag per instance and its
own ``TrackedClassDestroyed``, where the package's ``run_loop`` owns the
tracked class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from hjtoric.blowup import fulton_config, weighted_blowdown
from hjtoric.circle import (
    RunResult,
    arc_distance,
    default_base,
    default_delta,
    validate,
)
from hjtoric.errors import DomainError, StructureError
from hjtoric.homology import IntersectionLattice, empty_lattice
from hjtoric.resolution import CyclicSingularity


class TrackedClassDestroyed(Exception):
    """Raised when the blowdown victim is the tracked class itself."""


@dataclass(frozen=True)
class AreaTrack:
    kind: str  # "tent" | "ray" | "const"
    start: Fraction
    end: Fraction | None
    rate_pq: int = 1
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class Instance:
    uid: str
    pair: int
    config: object
    created_at: Fraction
    dies_at: Fraction | None
    tracked: bool = False


@dataclass(frozen=True)
class GlobalState:
    data: tuple
    pairs: tuple
    base: Fraction
    position: Fraction
    delta: Fraction
    lattice: IntersectionLattice
    instances: tuple = ()
    books: tuple = ()
    areas: dict = field(default_factory=dict)
    counter: int = 0

    def at(self, position: Fraction) -> "GlobalState":
        if position < self.position:
            raise DomainError("the simulator only moves counterclockwise")
        return replace(self, position=position)

    def tracked_instance(self):
        return next((inst for inst in self.instances if inst.tracked), None)


def _pair_arc(data, pair) -> Fraction:
    plus, minus = pair
    return arc_distance(data[plus].level, data[minus].level)


def _install(state, pair_idx, created_at, dies_at, uid, tracked):
    plus, _ = state.pairs[pair_idx]
    p, q = state.data[plus].weights
    size = Fraction(1) if dies_at is None else (dies_at - created_at) / (2 * p * q)
    cfg = fulton_config(p, q, size=size).prefixed(f"{uid}.")
    books = list(state.books)
    if p > 1:
        books.append((uid, CyclicSingularity(p, 1, (p - q) % p)))
    if q > 1:
        books.append((uid, CyclicSingularity(q, 1, (q - p) % q)))
    areas = dict(state.areas)
    kind = "ray" if dies_at is None else "tent"
    areas[cfg.exceptional_label] = AreaTrack(kind, created_at, dies_at, p * q)
    for label in cfg.chain_labels:
        areas[label] = AreaTrack("const", created_at, dies_at, 1, state.delta)
    return replace(
        state,
        lattice=state.lattice.direct_sum(cfg.lattice()),
        books=tuple(books),
        areas=areas,
        instances=state.instances + (Instance(uid, pair_idx, cfg, created_at, dies_at, tracked),),
        counter=state.counter + 1,
    )


def initial_state(data, *, base=None, delta=None) -> GlobalState:
    data = tuple(data)
    if not data:
        raise DomainError("cannot build a state from an empty fixed-point set")
    pairs = validate(data)
    base = default_base(data) if base is None else Fraction(base) % 1
    if any(d.level == base for d in data):
        raise DomainError(f"base level {base} must be a regular level")
    delta = default_delta(data) if delta is None else Fraction(delta)
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    state = GlobalState(data, pairs, base, base, delta, empty_lattice())
    for pair_idx, (plus, _) in enumerate(pairs):
        back = arc_distance(data[plus].level, base)
        length = _pair_arc(data, pairs[pair_idx])
        if 0 < back < length:
            state = _install(state, pair_idx, base - back, base - back + length,
                             f"B{state.counter + 1}", False)
    return state


def cross_level(state, datum, *, track=None) -> GlobalState:
    try:
        i = state.data.index(datum)
    except ValueError:
        raise DomainError("datum is not part of this state's fixed-point data") from None
    if arc_distance(datum.level, state.position) != 0:
        raise DomainError(f"state position {state.position} is not at level {datum.level}")
    if datum.sign == 1:
        pair_idx = next(k for k, (plus, _) in enumerate(state.pairs) if plus == i)
        length = _pair_arc(state.data, state.pairs[pair_idx])
        uid = f"B{state.counter + 1}"
        state = _install(state, pair_idx, state.position, state.position + length, uid,
                         track == "mark")
        if track == "copy":
            state = _install(state, pair_idx, state.position, None, "T", True)
        return state
    pair_idx = next(k for k, (_, minus) in enumerate(state.pairs) if minus == i)
    victims = [inst for inst in state.instances
               if inst.pair == pair_idx and inst.dies_at == state.position]
    if not victims:
        raise StructureError(f"no matched class with vanishing area at {state.position}")
    victim = victims[0]
    if victim.tracked:
        raise TrackedClassDestroyed(victim.uid)
    return replace(
        state,
        lattice=weighted_blowdown(state.lattice, victim.config),
        books=tuple(b for b in state.books if b[0] != victim.uid),
        instances=tuple(inst for inst in state.instances if inst.uid != victim.uid),
    )


def area(state, label, lam) -> Fraction:
    lam = Fraction(lam)
    rec = state.areas.get(label)
    if rec is None:
        raise DomainError(f"no class {label!r} was ever present")
    t = lam - rec.start
    if t < 0 or (rec.end is not None and lam > rec.end):
        raise DomainError(f"class {label!r} not present at {lam}")
    if rec.kind == "const":
        return rec.value
    if rec.kind == "ray":
        return t / rec.rate_pq
    return min(t, rec.end - rec.start - t) / rec.rate_pq


def run_loop(data, loops, bound=None, *, base=None, delta=None,
             tracked_independent=True) -> RunResult:
    """The verdict, ledger, contradiction loop and final lattice; the
    messages are not reproduced."""
    data = tuple(data)
    if loops < 1:
        raise DomainError(f"loops must be >= 1, got {loops}")
    if not data:
        return RunResult("NO_OBSTRUCTION", (), None, empty_lattice(), None, None, bound)
    state = initial_state(data, base=base, delta=delta)
    order = sorted(range(len(data)), key=lambda i: arc_distance(state.base, data[i].level))
    ledger: list[Fraction] = []
    tracked_label = None
    bound_val = bound
    for loop in range(1, loops + 1):
        for i in order:
            pos = state.base + (loop - 1) + arc_distance(state.base, data[i].level)
            track = None
            if tracked_label is None and data[i].sign == 1:
                track = "copy" if tracked_independent else "mark"
            try:
                state = cross_level(state.at(pos), data[i], track=track)
            except TrackedClassDestroyed:
                return RunResult("TRACKED_CLASS_DESTROYED", tuple(ledger), None,
                                 state.lattice, state.base, tracked_label, bound_val)
            if track is not None:
                tracked_label = state.tracked_instance().config.exceptional_label
        state = state.at(state.base + loop)
        ledger.append(area(state, tracked_label, state.position))
        if bound_val is None:
            bound_val = len(state.lattice.exceptional_classes())
        if len(set(ledger)) > bound_val:
            return RunResult("HAMILTONIAN", tuple(ledger), loop, state.lattice,
                             state.base, tracked_label, bound_val)
    return RunResult("INCONCLUSIVE", tuple(ledger), None, state.lattice,
                     state.base, tracked_label, bound_val)
