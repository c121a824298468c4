"""Symbolic simulator of the circle of reduced spaces of an S^1 action.

Input is a list of critical levels on a unit-circumference circle, each an
isolated fixed point with isotropy weights (p, q, -1) (sign +1: crossing the
level counterclockwise performs a (p, q)-weighted blowup of the reduced
space) or (-p, -q, 1) (sign -1: crossing undoes one).  Levels are exact
rationals and every quantity evolved here is exact.

Every +1 level is paired with a -1 level of equal weights, either explicitly
(the ``match`` field) or first-in-first-out among equal weights.  A pair's
configuration is alive on the counterclockwise arc from its blowup level to
its blowdown level; the area of its exceptional class rises from zero at
slope 1/(p*q), then falls back to zero at the blowdown level (a tent over
the arc), while resolution-chain classes keep a small constant area.

On top of the periodic dynamics ``run_loop`` tracks the exceptional class
born at the first +1 level after the base point: its transported copy is
kept as a separate direct summand of the bookkeeping lattice and its area
grows at slope 1/(p*q) forever (blowdown levels destroy the matched dynamic
partner, never the transported copy, which is disjoint from everything
else).  The per-loop ledger of its area at the base level is then strictly
increasing; once it holds more distinct values than a closed 4-manifold
with b2+ > 1 could carry exceptional classes (the bound B), the premise
"not Hamiltonian" has contradicted itself and the run reports HAMILTONIAN.
With ``tracked_independent=False`` the tracked class is the dynamic
instance itself instead; it then dies at its matched level and the run
reports TRACKED_CLASS_DESTROYED.

Configurations never interact, so the state is the set of live instances,
each its pair's config, shared with every other instance of the pair, and a
uid.  Labels are prefixed ``uid.`` only where they leave the run: in an
instance's lattice (so in the state's and the result's), in ``area`` and in
the tracked label.  A crossing costs the same at any loop count, and a
blowdown reads the config's lattice, built once per run.

A run splits what it fixes from what it steps.  ``initial_state`` validates
the data once (``ValidationError`` lists every failure) and builds one
frozen ``RunContext`` per run: the data, base and delta, each pair's
config, resolved once, and the run's grid, the lcm D of the base and level
denominators.  Every position the run reaches is a multiple of 1/D,
so a step value, ``ReducedSpaceState``, holds the context, an integer
position numerator over D, the live instances and an install counter; an
instance keeps its blowup and blowdown positions as numerators over D, and
``area`` reads its tent from them.  A crossing is then one lookup of its
datum, an integer check of its position and the blowup or blowdown itself;
Fractions are built only for areas, the ledger and the output, so every
result stays exact.  The interval cover, ``build_cover``, needs only the
levels.  Each input is checked by the function that reads it: rationals by
``parse_rational``, integers by ``require_int``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .blowup import BlowupConfig, _require_weights, fulton_config, weighted_blowdown
from .errors import DomainError, StructureError, ValidationError, require_int, require_object
from .homology import IntersectionLattice, empty_lattice
from .rationals import parse_rational, rational_json
from .resolution import CyclicSingularity

log = logging.getLogger(__name__)

ONE = Fraction(1)


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def arc_distance(a: Fraction, b: Fraction) -> Fraction:
    """Counterclockwise distance from a to b on the unit circle, in [0, 1)."""
    return _mod1(b - a)


@dataclass(frozen=True)
class FixedPointDatum:
    """An isolated fixed point: circle level, weight sign and weights (p, q).

    ``match`` optionally names the index of the partner datum of opposite
    sign and equal weights; either all data carry matches or none do.
    ``level`` is read by ``parse_rational``; the other fields must be ints.
    """

    level: Fraction
    sign: int
    p: int
    q: int
    match: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "level", parse_rational(self.level))
        if not (0 <= self.level < 1):
            raise DomainError(f"level must lie in [0, 1), got {self.level}")
        if require_int(self.sign, "sign must be an integer") not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {self.sign!r}")
        _require_weights(self.p, self.q)
        if self.match is not None:
            require_int(self.match, "match must be an integer")
        # a run looks up its datum at every crossing; hashing the Fraction
        # level each time would cost more than the rest of the lookup
        object.__setattr__(self, "_hash", hash((self.level, self.sign, self.p, self.q, self.match)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def weights(self) -> tuple[int, int]:
        return (self.p, self.q)


def _fixed_points(data) -> tuple[FixedPointDatum, ...]:
    """``data`` as a tuple if it is a list or a tuple of ``FixedPointDatum``;
    otherwise a DomainError."""
    if not isinstance(data, (list, tuple)) or not {FixedPointDatum}.issuperset(map(type, data)):
        raise DomainError(f"fixed points must be a list of FixedPointDatum, got {data!r}")
    return tuple(data)


def _derive_pairs(data: tuple[FixedPointDatum, ...], errors: list[str]) -> tuple[tuple[int, int], ...]:
    given = [i for i, d in enumerate(data) if d.match is not None]
    if given and len(given) != len(data):
        errors.append("explicit pairing must cover all fixed points or none")
        return ()
    if given:
        pairs = set()
        for i in given:
            j = data[i].match
            if not (0 <= j < len(data)) or j == i:
                errors.append(f"fixed point {i}: match index {j} out of range")
                return ()
            if data[j].match != i:
                errors.append(f"fixed points {i} and {j} disagree about their match")
                return ()
            if data[i].sign == data[j].sign or data[i].weights != data[j].weights:
                errors.append(
                    f"fixed points {i} and {j} are not an opposite-sign equal-weight pair"
                )
                return ()
            pairs.add((i, j) if data[i].sign == 1 else (j, i))
        return tuple(sorted(pairs))
    # first-in-first-out among equal weights, counterclockwise from level 0,
    # with leftover blowups wrapping around to the leading blowdowns
    order = sorted(range(len(data)), key=lambda i: data[i].level)
    queues: dict[tuple[int, int], list[int]] = {}
    deficits: dict[tuple[int, int], list[int]] = {}
    pairs = []
    for i in order:
        d = data[i]
        if d.sign == 1:
            queues.setdefault(d.weights, []).append(i)
        else:
            q = queues.get(d.weights)
            if q:
                pairs.append((q.pop(0), i))
            else:
                deficits.setdefault(d.weights, []).append(i)
    for w, plus_left in queues.items():
        minus_left = deficits.get(w, [])
        if len(plus_left) != len(minus_left):
            errors.append(f"unmatched weights {w}: blowups and blowdowns do not balance")
            return ()
        pairs.extend(zip(plus_left, minus_left))
    for w, minus_left in deficits.items():
        if w not in queues and minus_left:
            errors.append(f"unmatched weights {w}: blowdown with no blowup")
            return ()
    return tuple(sorted(pairs))


def validate(data) -> tuple[tuple[int, int], ...]:
    """The blowup/blowdown pairing of ``data``: sorted (plus index, minus
    index) pairs, or () for an empty fixed-point set.

    Levels must be distinct, both signs must occur and every blowup must
    pair with a blowdown of equal weights; data that fail raise one
    ``ValidationError`` listing every reason; data that are not a list of
    ``FixedPointDatum`` raise DomainError.
    """
    data = _fixed_points(data)
    if not data:
        return ()
    errors: list[str] = []
    levels = [d.level for d in data]
    if len(set(levels)) != len(levels):
        errors.append("critical levels must be distinct")
    signs = {d.sign for d in data}
    if signs != {1, -1}:
        errors.append("need at least one blowup (+1) and one blowdown (-1) level")
    pairs: tuple[tuple[int, int], ...] = ()
    if not errors:
        pairs = _derive_pairs(data, errors)
    if errors:
        raise ValidationError(tuple(errors))
    return pairs


# -- the interval cover -------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedCover:
    """Open cover of the circle by level gaps U_i and level neighborhoods I_i.

    Arcs are stored as (start, end) with the arc running counterclockwise
    from start to end; all triple intersections are empty and the partial
    order lists exactly the overlapping pairs: I_i < U_i, I_i < U_{i-1} and
    I_1 < U_n (1-indexed, n = number of levels).
    """

    levels: tuple[Fraction, ...]
    eps: Fraction
    u_arcs: tuple[tuple[Fraction, Fraction], ...]
    i_arcs: tuple[tuple[Fraction, Fraction], ...]
    relations: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        pair = lambda arc: [rational_json(_mod1(arc[0])), rational_json(_mod1(arc[1]))]
        return {
            "levels": [rational_json(l) for l in self.levels],
            "eps": rational_json(self.eps),
            "U": [pair(a) for a in self.u_arcs],
            "I": [pair(a) for a in self.i_arcs],
            "relations": [list(r) for r in self.relations],
        }


def build_cover(data, eps) -> GeneralizedCover:
    """Cover by gap intervals U_i = (l_i, l_{i+1}) and I_i = (l_i - eps, l_i + eps).

    Needs only the levels, which must be non-empty and distinct.  Requires
    eps, read by ``parse_rational``, strictly below half the minimal level
    gap; at or above that bound some point would lie in three sets.  The
    violation message reports the supremum of admissible radii.
    """
    levels, gaps = _level_gaps(_fixed_points(data))
    if not levels:
        raise DomainError("cannot cover the circle from an empty level set")
    if len(levels) == 1:
        # the arc of a lone level is the whole circle, which no (start, end)
        # pair with start == end can stand for
        raise DomainError("a cover needs at least two levels, got one")
    if len(set(levels)) != len(levels):
        raise DomainError("critical levels must be distinct")
    eps = parse_rational(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    n = len(levels)
    min_gap = min(gaps)
    if eps >= min_gap / 2:
        raise DomainError(
            f"eps = {eps} too large: must be strictly below half the minimal "
            f"level gap, i.e. below {min_gap / 2}"
        )
    u_arcs = tuple((levels[i], levels[(i + 1) % n]) for i in range(n))
    i_arcs = tuple((l - eps, l + eps) for l in levels)
    relations = [(f"I{i + 1}", f"U{i + 1}") for i in range(n)]
    relations += [(f"I{i + 1}", f"U{i}") for i in range(1, n)]
    relations.append(("I1", f"U{n}"))
    return GeneralizedCover(tuple(levels), eps, u_arcs, i_arcs, tuple(relations))


# -- reduced-space state -------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    """What a run fixes once, in ``initial_state``: shared by all its states.

    ``den`` is the run's grid: the lcm of the base and level denominators,
    so every position the run reaches, every level and every life arc is an
    integer numerator over it.  ``levels`` maps each datum to its pair index
    and its level numerator; ``arcs`` holds each pair's life arc as a
    numerator.  ``templates`` holds each pair's config as ``fulton_config``
    returns it, with unprefixed labels; every instance of the pair holds
    that same object.
    """

    data: tuple[FixedPointDatum, ...]
    base: Fraction
    delta: Fraction
    den: int
    arcs: tuple[int, ...]
    levels: dict[FixedPointDatum, tuple[int, int]] = field(repr=False, compare=False)
    templates: tuple[BlowupConfig, ...] = field(repr=False)


@dataclass(frozen=True)
class Instance:
    """A live blowup configuration: its pair's config, shared with the
    run's context, under the label prefix ``uid.``.

    ``config`` keeps the unprefixed labels; ``lattice`` is the config's
    lattice with every label prefixed, built on each read for output.
    ``created`` and ``dies`` are cumulative coordinates as numerators over
    the run's grid ``RunContext.den``: its blowup and its matched blowdown,
    ``dies`` None for the transported tracked copy ``T``, which no blowdown
    touches.  Which instance is tracked is ``run_loop``'s to know.
    """

    uid: str
    pair: int
    config: BlowupConfig
    created: int
    dies: int | None

    @property
    def lattice(self) -> IntersectionLattice:
        return self.config.prefixed(f"{self.uid}.").lattice()


@dataclass(frozen=True)
class ReducedSpaceState:
    """One step of a run: its context, its position and the live instances.

    The run's fixed data sit in the shared ``context``; a state adds only
    ``pos``, the position as an integer numerator over ``context.den``, the
    live ``instances`` in install order and the install ``counter``.  The
    position is a cumulative counterclockwise coordinate (it increases by 1
    per loop; its value mod 1 is the circle level).  ``position`` reads it
    as an exact Fraction; ``lattice`` (the instances' direct sum in install
    order) and ``books`` (their orbifold points) are derived on demand.
    Transition functions return fresh states and never write to their input.
    """

    context: RunContext
    pos: int
    instances: tuple[Instance, ...] = ()
    counter: int = 0

    @property
    def data(self) -> tuple[FixedPointDatum, ...]:
        return self.context.data

    @property
    def base(self) -> Fraction:
        return self.context.base

    @property
    def delta(self) -> Fraction:
        return self.context.delta

    @property
    def position(self) -> Fraction:
        return Fraction(self.pos, self.context.den)

    @property
    def lattice(self) -> IntersectionLattice:
        return empty_lattice().direct_sum(*(inst.lattice for inst in self.instances))

    @property
    def books(self) -> tuple[tuple[str, CyclicSingularity], ...]:
        """(uid, point) for the order-p and order-q points of each live
        instance; a point of order 1 is smooth and absent."""
        books = []
        for inst in self.instances:
            p, q = inst.config.p, inst.config.q
            books += [(inst.uid, CyclicSingularity(n, 1, (n - m) % n))
                      for n, m in ((p, q), (q, p)) if n > 1]
        return tuple(books)

    def at(self, position) -> "ReducedSpaceState":
        """The same state at a later position, which must lie on the run's
        grid of multiples of 1/``context.den``; read by ``parse_rational``."""
        position = parse_rational(position)
        if position < self.position:
            raise DomainError("the simulator only moves counterclockwise")
        pos = position * self.context.den
        if pos.denominator != 1:
            raise DomainError(f"position {position} is off this run's grid of "
                              f"multiples of 1/{self.context.den}")
        return ReducedSpaceState(self.context, pos.numerator, self.instances, self.counter)


def _level_gaps(data) -> tuple[list[Fraction], list[Fraction]]:
    """The levels in order and the arc from each to the next.  A lone
    level's arc is the whole circle; a repeated level has a zero gap."""
    levels = sorted(d.level for d in data)
    n = len(levels)
    if n == 1:
        return levels, [ONE]
    return levels, [arc_distance(levels[i], levels[(i + 1) % n]) for i in range(n)]


def default_base(data) -> Fraction:
    """Midpoint of the longest critical-free arc (first such arc on ties)."""
    levels, gaps = _level_gaps(data)
    i = max(range(len(gaps)), key=gaps.__getitem__)
    return _mod1(levels[i] + gaps[i] / 2)


def default_delta(data) -> Fraction:
    """Chain-class area: 1/1000 of the minimal level gap."""
    return min(_level_gaps(data)[1], default=ONE) / 1000


def _install(state: ReducedSpaceState, pair_idx: int, created: int, dies: int | None,
             uid: str) -> ReducedSpaceState:
    """Add an instance of the pair's config: the context's own, unrelabelled."""
    ctx = state.context
    cfg = ctx.templates[pair_idx]
    inst = Instance(uid, pair_idx, cfg, created, dies)
    log.debug("blowup %s at position %d/%d: weights (%d, %d)", uid, created, ctx.den, cfg.p, cfg.q)
    return ReducedSpaceState(ctx, state.pos, state.instances + (inst,), state.counter + 1)


def initial_state(data, *, base=None, delta=None) -> ReducedSpaceState:
    """The primed state at the base level.

    Every matched pair whose counterclockwise life arc contains the base
    level contributes one live configuration, so the state is consistent
    with the periodic dynamics from the very first crossing.  The run's
    context, with each pair's config resolved once, is built here; every
    install shares that config.  ``base`` and ``delta`` are parsed first;
    data that fail ``validate`` raise its ``ValidationError``.
    """
    base, delta = (None if x is None else parse_rational(x) for x in (base, delta))
    pairs = validate(data)
    data = tuple(data)
    if not data:
        raise DomainError("cannot build a state from an empty fixed-point set")
    base = default_base(data) if base is None else _mod1(base)
    if any(d.level == base for d in data):
        raise DomainError(f"base level {base} must be a regular level")
    delta = default_delta(data) if delta is None else delta
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    den = lcm(base.denominator, *(d.level.denominator for d in data))
    levels = [d.level.numerator * (den // d.level.denominator) for d in data]
    arcs = tuple((levels[minus] - levels[plus]) % den for plus, minus in pairs)
    ctx = RunContext(data, base, delta, den, arcs,
                     {data[i]: (k, levels[i]) for k, pair in enumerate(pairs) for i in pair},
                     tuple(fulton_config(*data[plus].weights) for plus, _ in pairs))
    start = base.numerator * (den // base.denominator)
    state = ReducedSpaceState(ctx, start)
    for pair_idx, (plus, _) in enumerate(pairs):
        back = (start - levels[plus]) % den
        if 0 < back < arcs[pair_idx]:
            state = _install(state, pair_idx, start - back, start - back + arcs[pair_idx],
                             f"B{state.counter + 1}")
    return state


def cross_level(state: ReducedSpaceState, datum: FixedPointDatum) -> ReducedSpaceState:
    """Cross one critical level counterclockwise.

    A +1 level installs the resolved (p, q)-weighted blowup as a new
    instance: its chain classes and exceptional class, whose area starts at
    zero with slope 1/(p*q), and its two orbifold points (orders p and q,
    absent when the order is 1).  A -1 level identifies the matched
    instance whose exceptional area vanishes at this level and removes it
    by weighted blowdown of its own lattice, which must leave nothing.
    Every crossing is the same step: tracking a class is ``run_loop``'s.
    """
    ctx = require_object(state, ReducedSpaceState, "state must be a ReducedSpaceState").context
    require_object(datum, FixedPointDatum, "datum must be a FixedPointDatum")
    found = ctx.levels.get(datum)
    if found is None:
        raise DomainError("datum is not part of this state's fixed-point data")
    pair_idx, level = found
    pos = state.pos
    if (pos - level) % ctx.den:
        raise DomainError(
            f"state position {state.position} is not at level {datum.level}"
        )
    if datum.sign == 1:
        return _install(state, pair_idx, pos, pos + ctx.arcs[pair_idx], f"B{state.counter + 1}")
    instances = state.instances
    for i, victim in enumerate(instances):
        if victim.pair == pair_idx and victim.dies == pos:
            break
    else:
        raise StructureError(
            f"model inconsistency: no matched class with vanishing area at "
            f"level {datum.level} (position {state.position})"
        )
    weighted_blowdown(victim.config.lattice(), victim.config)
    log.debug("blowdown %s at position %d/%d", victim.uid, pos, ctx.den)
    return ReducedSpaceState(ctx, pos, instances[:i] + instances[i + 1:], state.counter)


def area(state: ReducedSpaceState, label: str, lam: Fraction) -> Fraction:
    """Exact area of a live class at cumulative coordinate lam.

    Exceptional classes of matched configurations follow the tent over
    their life arc (slope +1/(p*q) from creation, -1/(p*q) into the matched
    blowdown); the transported tracked class grows at +1/(p*q) without
    bound; chain classes sit at the constant delta.  A blown-down class is
    no longer part of the state.  ``label`` is an instance's uid, a dot
    and a label of its config; ``lam`` is read by ``parse_rational``.
    """
    require_object(state, ReducedSpaceState, "state must be a ReducedSpaceState")
    lam = parse_rational(lam)
    uid, _, local = require_object(label, str, "label must be a string").partition(".")
    inst = next((inst for inst in state.instances
                 if inst.uid == uid and local in inst.config.class_labels), None)
    if inst is None:
        raise DomainError(f"no class {label!r} is live")
    den = state.context.den
    t = lam * den - inst.created  # the class's age, in units of 1/den
    if t < 0 or (inst.dies is not None and t > inst.dies - inst.created):
        raise DomainError(f"class {label!r} not present at {lam}")
    if local != inst.config.exceptional_label:
        return state.delta
    if inst.dies is not None:
        t = min(t, inst.dies - inst.created - t)
    return t / (inst.config.p * inst.config.q * den)


@dataclass(frozen=True)
class RunResult:
    verdict: str  # HAMILTONIAN | NO_OBSTRUCTION | INCONCLUSIVE | TRACKED_CLASS_DESTROYED
    ledger: tuple[Fraction, ...]
    loop_of_contradiction: int | None
    final_lattice: IntersectionLattice
    base: Fraction | None
    tracked_label: str | None
    bound: int | None
    message: str = ""

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "message": self.message,
            "ledger": [rational_json(x) for x in self.ledger],
            "loop_of_contradiction": self.loop_of_contradiction,
            "final_lattice": self.final_lattice.to_json(),
            "base": None if self.base is None else rational_json(self.base),
            "tracked": self.tracked_label,
            "bound": self.bound,
        }


def run_loop(data, loops: int, bound: int | None = None, *, base=None,
             delta=None, tracked_independent: bool = True) -> RunResult:
    """Evolve counterclockwise for full loops and watch the tracked ledger.

    The ledger records the tracked class's area at the base level after
    each loop; the verdict flips to HAMILTONIAN at the first loop where the
    number of distinct ledger values exceeds the bound B (default: the
    number of exceptional-type classes in the lattice at the end of the
    first loop).  An empty fixed-point set reports NO_OBSTRUCTION; loops
    exhausted without contradiction report INCONCLUSIVE.

    The tracked class is the run's alone: the copy ``T`` it installs at
    the first +1 crossing or, with ``tracked_independent=False``, that
    crossing's own instance, whose -1 level then ends the run.

    The options are checked first, so a malformed one raises DomainError
    also for empty data.  The data are validated once, by ``initial_state``;
    loop n crosses each level n - 1 loops after its first-loop position on
    the run's grid, computed once.
    """
    if bound is not None:
        require_int(bound, "bound must be None or an integer >= 0", 0)
    require_object(tracked_independent, bool, "tracked_independent must be a bool")
    require_int(loops, "loops must be an integer >= 1", 1)
    base, delta = (None if x is None else parse_rational(x) for x in (base, delta))
    data = _fixed_points(data)
    if not data:
        return RunResult(
            "NO_OBSTRUCTION", (), None, empty_lattice(), None, None, bound,
            "no fixed points: the ledger argument needs a non-empty fixed-point set",
        )
    state = initial_state(data, base=base, delta=delta)
    ctx, start = state.context, state.pos
    den = ctx.den
    crossings = sorted(((start + (ctx.levels[d][1] - start) % den, d) for d in data),
                       key=lambda crossing: crossing[0])
    ledger: list[Fraction] = []
    distinct: set[Fraction] = set()
    tracked: Instance | None = None
    tracked_label: str | None = None
    bound_val = bound
    for loop in range(1, loops + 1):
        shift = (loop - 1) * den
        for pos, datum in crossings:
            pos += shift
            # levels are distinct and an arc is shorter than a loop, so only
            # the tracked instance's own -1 level reaches its death position
            if tracked is not None and pos == tracked.dies:
                return RunResult(
                    "TRACKED_CLASS_DESTROYED", tuple(ledger), None,
                    state.lattice, state.base, tracked_label, bound_val,
                    "the pairing sends the tracked class's own creation level "
                    "to this blowdown; rerun with an independent tracked class "
                    "to model its transported copy",
                )
            state = cross_level(ReducedSpaceState(ctx, pos, state.instances, state.counter), datum)
            if tracked is None and datum.sign == 1:
                if tracked_independent:
                    state = _install(state, state.instances[-1].pair, pos, None, "T")
                tracked = state.instances[-1]
                tracked_label = f"{tracked.uid}.{tracked.config.exceptional_label}"
        state = ReducedSpaceState(ctx, start + loop * den, state.instances, state.counter)
        ledger.append(area(state, tracked_label, state.position))
        distinct.add(ledger[-1])
        if bound_val is None:
            bound_val = len(state.lattice.exceptional_classes())
            log.debug("bound defaulted to %d exceptional classes", bound_val)
        if len(distinct) > bound_val:
            return RunResult(
                "HAMILTONIAN", tuple(ledger), loop, state.lattice,
                state.base, tracked_label, bound_val,
                f"contradiction at loop {loop}: the tracked class's area "
                f"ledger holds {len(distinct)} distinct values, but a "
                f"closed reduced space with b2+ > 1 carries at most "
                f"{bound_val} exceptional classes, so the non-Hamiltonian "
                "premise fails and the action must be Hamiltonian",
            )
    return RunResult(
        "INCONCLUSIVE", tuple(ledger), None, state.lattice,
        state.base, tracked_label, bound_val,
        f"no contradiction within {loops} loops (bound {bound_val}); "
        "increase the loop budget",
    )
