"""Symbolic simulator of the circle of reduced spaces of an S^1 action.

Input is a list of critical levels on a unit-circumference circle, each an
isolated fixed point with isotropy weights (p, q, -1) (sign +1: crossing the
level counterclockwise performs a (p, q)-weighted blowup of the reduced
space) or (-p, -q, 1) (sign -1: crossing undoes one).  Levels are exact
rationals and every quantity evolved here is exact.

Every +1 level is paired with a -1 level of equal weights, either explicitly
(the ``match`` field) or first-in-first-out among equal weights around the
circle from level 0.  A pair's configuration is alive on the counterclockwise
arc from its blowup level to its blowdown level; the area of its exceptional
class rises from zero at slope 1/(p*q), then falls back to zero at the
blowdown level (a tent over the arc).

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

Configurations never interact, so a live instance is a pair, a uid and
two positions; its config is its pair's, shared by every instance of the
pair, every pair of equal weights and, by a bounded cache, every run of
the process, which builds its lattice once.  A uid is an install number
until it leaves the run, as the label prefix ``B<n>`` (``T`` for the
tracked copy).  A crossing costs the same in every loop.

A run splits what it fixes from what it steps.  ``_prime`` puts the levels
on one integer grid, ``_grid`` (the lcm of their denominators, each level's
numerator over it, their order and the gaps between them), once: it pairs
and validates the data on it by ``_validate`` (one ``ValidationError``
lists every failure), reads the default base off it and builds one frozen
``RunContext`` per run: the data and base, each datum's pair, each pair's
config, resolved once per distinct weight pair, and the run's grid, the lcm
D of the base and level denominators.  Every position is an integer
numerator over D, and so are an instance's blowup and blowdown positions,
which give its area tent.  What a run steps is a live map, a dict in
install order from ``(pair, dies)`` (T under ``(pair, None)``) to
``(uid, created)``, and one kernel, ``_cross``, crosses a run of table rows
(``_row``) on it in place: an install at a +1 row, a pop by key and a
blowdown at a -1 row, logged only if a loaded ``logging`` (never imported
here) has the debug trail on.  ``_prime`` primes the map with it;
``run_loop`` crosses its table, each level at its first position after the
base (``_next``), once per loop and reads its result off the map;
``initial_state`` and ``cross_level`` show the map as a state.  A ledger
entry is the tracked class's tent numerator (``_tent``) over p*q*D, one
denominator for the whole run, so the ledger's distinct count is kept on
those integers.  Fractions are built only for the default base and the
output, the ledger's once at exit, so every result stays exact.  The
interval cover, ``build_cover``, needs only the levels, which it reads off
their grid too.  Each input is checked by the function that reads it:
rationals by ``parse_rational``, integers by ``require_int``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from ._value import Value
from .blowup import BlowupConfig, _require_weights, fulton_config, weighted_blowdown
from .errors import (DomainError, StructureError, ValidationError, require_int, require_object,
                     require_seq)
from .homology import IntersectionLattice, _with_prefix, empty_lattice
from .rationals import parse_rational, rational_json


class FixedPointDatum(Value):
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

    @property
    def weights(self) -> tuple[int, int]:
        return (self.p, self.q)


def _fixed_points(data) -> tuple[FixedPointDatum, ...]:
    return require_seq(data, FixedPointDatum, "fixed points must be a list of FixedPointDatum")


def _validate(data: tuple[FixedPointDatum, ...], grid) -> tuple[tuple[int, int], ...]:
    """The blowup/blowdown pairing of non-empty ``data`` whose level grid is
    ``grid``: sorted (plus index, minus index) pairs.

    Levels must be distinct, both signs must occur and every blowup must
    pair with a blowdown of equal weights; data that fail raise one
    ``ValidationError`` listing every reason.
    """
    errors: list[str] = []
    if 0 in grid[3]:
        errors.append("critical levels must be distinct")
    if {d.sign for d in data} != {1, -1}:
        errors.append("need at least one blowup (+1) and one blowdown (-1) level")
    if errors:
        raise ValidationError(tuple(errors))
    given = [i for i, d in enumerate(data) if d.match is not None]
    if given and len(given) != len(data):
        raise ValidationError(("explicit pairing must cover all fixed points or none",))
    if given:
        pairs = set()
        for i in given:
            j = data[i].match
            if not (0 <= j < len(data)) or j == i:
                raise ValidationError((f"fixed point {i}: match index {j} out of range",))
            if data[j].match != i:
                raise ValidationError((f"fixed points {i} and {j} disagree about their match",))
            if data[i].sign == data[j].sign or data[i].weights != data[j].weights:
                raise ValidationError(
                    (f"fixed points {i} and {j} are not an opposite-sign equal-weight pair",))
            pairs.add((i, j) if data[i].sign == 1 else (j, i))
        return tuple(sorted(pairs))
    # first-in-first-out among equal weights in the grid's order; a blowdown
    # no blowup precedes takes the oldest one left over on the circle's next turn
    queues: dict[tuple[int, int], list[int]] = {}
    waiting, unpaired, pairs = [], [], []
    for i in grid[2]:
        d = data[i]
        if d.sign == 1:
            queues.setdefault(d.weights, []).append(i)
        elif q := queues.get(d.weights):
            pairs.append((q.pop(0), i))
        else:
            waiting.append(i)
    for i in waiting:
        if q := queues.get(data[i].weights):
            pairs.append((q.pop(0), i))
        else:
            unpaired.append(data[i].weights)
    for w in [*queues, *unpaired]:
        if w not in queues:
            raise ValidationError((f"unmatched weights {w}: blowdown with no blowup",))
        if queues[w] or w in unpaired:
            raise ValidationError(
                (f"unmatched weights {w}: blowups and blowdowns do not balance",))
    return tuple(sorted(pairs))


# -- the interval cover -------------------------------------------------------


class GeneralizedCover(Value):
    """Open cover of the circle by level gaps U_i and level neighborhoods I_i.

    Arcs are stored as (start, end) with the arc running counterclockwise
    from start to end; all triple intersections are empty and the partial
    order lists exactly the overlapping pairs: I_i < U_i and I_i < U_{i-1}
    (1-indexed, n = number of levels, indices mod n, so I_1 < U_n).
    """

    levels: tuple[Fraction, ...]
    eps: Fraction
    u_arcs: tuple[tuple[Fraction, Fraction], ...]
    i_arcs: tuple[tuple[Fraction, Fraction], ...]
    relations: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        pair = lambda arc: [rational_json(arc[0] % 1), rational_json(arc[1] % 1)]
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
    data = _fixed_points(data)
    den, _, order, gaps = _grid(data)
    if not data:
        raise DomainError("cannot cover the circle from an empty level set")
    if len(data) == 1:
        # the arc of a lone level is the whole circle, which no (start, end)
        # pair with start == end can stand for
        raise DomainError("a cover needs at least two levels, got one")
    if 0 in gaps:
        raise DomainError("critical levels must be distinct")
    eps = parse_rational(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    levels = [data[i].level for i in order]
    n = len(levels)
    half_gap = Fraction(min(gaps), 2 * den)
    if eps >= half_gap:
        raise DomainError(
            f"eps = {eps} too large: must be strictly below half the minimal "
            f"level gap, i.e. below {half_gap}"
        )
    u_arcs = tuple((levels[i], levels[(i + 1) % n]) for i in range(n))
    i_arcs = tuple((l - eps, l + eps) for l in levels)
    relations = [(f"I{i + 1}", f"U{i + 1}") for i in range(n)]
    relations += [(f"I{i % n + 1}", f"U{i}") for i in range(1, n + 1)]
    return GeneralizedCover(tuple(levels), eps, u_arcs, i_arcs, tuple(relations))


# -- reduced-space state -------------------------------------------------------


class RunContext(Value):
    """What a run fixes once, in ``_prime``: shared by all its states.

    ``den`` is the run's grid: the lcm of the base and level denominators,
    so every position the run reaches, every level and every life arc is an
    integer numerator over it.  ``arcs`` holds each pair's life arc as a
    numerator; ``pair_of`` holds each datum's pair index, in ``data``
    order.  ``templates`` holds each pair's config as ``fulton_config``
    returns it, with unprefixed labels, resolved once per distinct weight
    pair by ``_config``, which keeps the process's last 256: equal weights,
    in one run or a later one, hold one object, and every instance of a
    pair holds its pair's.  A default ``base`` is read off the data's grid.
    """

    data: tuple[FixedPointDatum, ...]
    base: Fraction
    den: int
    arcs: tuple[int, ...]
    pair_of: tuple[int, ...]
    templates: tuple[BlowupConfig, ...]


class Instance(Value):
    """A live blowup configuration as a state shows it: its pair's config,
    shared with the run's context, under the label prefix ``uid.``.

    ``config`` keeps the unprefixed labels; ``lattice`` is the config's
    lattice with every label prefixed (``homology._with_prefix``), built on
    each read for output.
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
        return _with_prefix(self.config.lattice(), f"{self.uid}.")


class ReducedSpaceState(Value):
    """A frozen view of a run's live map at one position.

    The run's fixed data and base sit in the shared ``context``; a
    state adds ``pos``, the position as an integer numerator over
    ``context.den``, the live map's ``instances`` in install order and the
    install ``counter``.  The position is a cumulative counterclockwise
    coordinate, ``Fraction(pos, context.den)`` (it increases by 1 per loop;
    mod 1 it is the circle level); ``cross_level`` moves it.  Each instance
    carries its own lattice and its config's weights (its orbifold points
    have orders ``config.p`` and ``config.q``).  The kernel steps a map,
    never a state.
    """

    context: RunContext
    pos: int
    instances: tuple[Instance, ...] = ()
    counter: int = 0


def _grid(data) -> tuple[int, list[int], list[int], list[int]]:
    """The levels of ``data`` on one integer grid: D, the lcm of their
    denominators; each level's numerator over D, in ``data`` order; the
    indices of ``data`` by level (ties in ``data`` order); and the arc from
    each level in that order to the next, over D.  A lone level's arc is D,
    the whole circle; a repeated level has a zero gap."""
    den = lcm(*(d.level.denominator for d in data))
    keys = [d.level.numerator * (den // d.level.denominator) for d in data]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    nums = [keys[i] for i in order]
    if len(nums) < 2:
        return den, keys, order, [den] * len(nums)
    return den, keys, order, [(b - a) % den for a, b in zip(nums, nums[1:] + nums[:1])]


def default_base(grid) -> Fraction:
    """Midpoint of the longest critical-free arc (first such arc on ties),
    read off a non-empty level grid (``_grid``)."""
    den, keys, order, gaps = grid
    i = gaps.index(max(gaps))
    return Fraction((2 * keys[order[i]] + gaps[i]) % (2 * den), 2 * den)


# one immutable config per weight pair per process; fulton_config is read at each miss
_config = lru_cache(maxsize=256)(lambda p, q: fulton_config(p, q))


def _debug_log():
    """The module's logger if a loaded ``logging`` has it on for DEBUG, else None."""
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(__name__)
    return log if log and log.isEnabledFor(logging.DEBUG) else None


def _name(uid, dies: int | None) -> str:
    """A live entry's label prefix: ``B<uid>``, ``T`` if it never dies, or a state's name."""
    return uid if type(uid) is str else "T" if dies is None else f"B{uid}"


def _row(ctx: RunContext, i: int, pos: int) -> tuple:
    """Datum ``i``'s crossing at ``pos``: (pos, pair, sign, life arc, config, its lattice)."""
    pair = ctx.pair_of[i]
    cfg = ctx.templates[pair]
    return pos, pair, ctx.data[i].sign, ctx.arcs[pair], cfg, cfg.lattice()


def _cross(ctx: RunContext, live: dict, rows, shift: int, counter: int, log) -> int:
    """Cross ``rows`` in order, each ``shift`` after its position, on the live
    map in place, logged to ``log`` unless None; returns the install counter.
    A +1 row installs number ``counter + 1``, dying an arc later (never if the
    arc is None, as T's; no pair's is 0), on a free key (else DomainError); a
    -1 row pops its pair's entry dying there (else StructureError) and blows it down."""
    den = ctx.den
    for pos, pair, sign, arc, cfg, lat in rows:
        pos += shift
        if sign == 1:
            dies = arc and pos + arc
            if (pair, dies) in live:
                raise DomainError(f"pair {pair} already has a live instance dying at {dies}/{den}")
            counter += 1
            live[pair, dies] = counter, pos
            if log:
                log.debug("blowup %s at position %d/%d: weights (%d, %d)", _name(counter, dies),
                          pos, den, cfg.p, cfg.q)
            continue
        victim = live.pop((pair, pos), None)
        if victim is None:
            raise StructureError(
                f"model inconsistency: no matched class with vanishing area at "
                f"level {Fraction(pos % den, den)} (position {Fraction(pos, den)})"
            )
        weighted_blowdown(lat, cfg)
        if log:
            log.debug("blowdown %s at position %d/%d", _name(victim[0], pos), pos, den)
    return counter


def _instances(ctx: RunContext, live: dict) -> tuple[Instance, ...]:
    """The live map's entries as ``Instance`` values, in install order."""
    return tuple(Instance(_name(uid, dies), pair, ctx.templates[pair], created, dies)
                 for (pair, dies), (uid, created) in live.items())


def _prime(data: tuple[FixedPointDatum, ...], base: Fraction | None, log) -> tuple:
    """``(ctx, start, live)``: the run's context, the base's position and the
    live map primed there, for non-empty ``data`` and a parsed ``base`` (None:
    the default).  Each pair whose life arc holds the base has its blowup
    crossed a loop early.  Data that fail ``_validate`` raise its error."""
    grid = _grid(data)
    pairs = _validate(data, grid)
    base = default_base(grid) if base is None else base % 1
    den = lcm(grid[0], base.denominator)
    levels = [key * (den // grid[0]) for key in grid[1]]
    start = base.numerator * (den // base.denominator)
    if start in levels:
        raise DomainError(f"base level {base} must be a regular level")
    arcs = tuple((levels[minus] - levels[plus]) % den for plus, minus in pairs)
    weights = [data[plus].weights for plus, _ in pairs]
    configs = {w: _config(*w) for w in dict.fromkeys(weights)}
    ctx = RunContext(data, base, den, arcs,
                     tuple(k for _, k in sorted((i, k) for k, p in enumerate(pairs) for i in p)),
                     tuple(map(configs.get, weights)))
    live = {}
    _cross(ctx, live, [_row(ctx, plus, start - back) for (plus, _), arc in zip(pairs, arcs)
                       if 0 < (back := (start - levels[plus]) % den) < arc], 0, 0, log)
    return ctx, start, live


def initial_state(data, *, base=None) -> ReducedSpaceState:
    """The primed state at the base level: ``_prime``'s live map shown.
    ``base`` is parsed first; data that fail ``_validate`` raise its
    ``ValidationError``."""
    base = None if base is None else parse_rational(base)
    data = _fixed_points(data)
    if not data:
        raise DomainError("cannot build a state from an empty fixed-point set")
    ctx, start, live = _prime(data, base, _debug_log())
    return ReducedSpaceState(ctx, start, _instances(ctx, live), len(live))


def _next(ctx: RunContext, pos: int, datum: FixedPointDatum) -> int:
    """``datum``'s first position strictly after ``pos``, both over ``ctx.den``."""
    level = datum.level.numerator * (ctx.den // datum.level.denominator)
    return pos + 1 + (level - pos - 1) % ctx.den


def cross_level(state: ReducedSpaceState, datum: FixedPointDatum) -> ReducedSpaceState:
    """Cross ``datum``'s level counterclockwise at its first position
    strictly after the state's (``_next``): a second crossing lands a loop on.

    A +1 level installs the resolved (p, q)-weighted blowup as a new
    instance: its chain classes and exceptional class, whose area starts at
    zero with slope 1/(p*q), and its two orbifold points (orders p and q,
    absent when the order is 1).  A -1 level removes the matched instance
    whose exceptional area vanishes at this level by weighted blowdown of
    its own lattice, which must leave nothing.  The state's checks are
    here; the step is ``_cross`` on a one-row table and a copy of the
    state's map, so the input is never written.  Tracking is ``run_loop``'s.
    """
    ctx = require_object(state, ReducedSpaceState, "state must be a ReducedSpaceState").context
    require_object(datum, FixedPointDatum, "datum must be a FixedPointDatum")
    if datum not in ctx.data:
        raise DomainError("datum is not part of this state's fixed-point data")
    configs = dict(enumerate(ctx.templates))
    if any(inst.config != configs.get(inst.pair) for inst in state.instances):
        raise DomainError("each of the state's instances must hold its pair's config")
    live = {(inst.pair, inst.dies): (inst.uid, inst.created) for inst in state.instances}
    if len(live) < len(state.instances):
        raise DomainError("two of the state's instances share a pair and a death position")
    pos = _next(ctx, state.pos, datum)
    counter = _cross(ctx, live, [_row(ctx, ctx.data.index(datum), pos)], 0, state.counter,
                     _debug_log())
    return ReducedSpaceState(ctx, pos, _instances(ctx, live), counter)


def _tent(pos: int, created: int, dies: int | None) -> int:
    """The exceptional area at ``pos`` of a (p, q) instance as a numerator over p*q*D:
    the tent over its life arc, or the ramp of the tracked copy T (``dies`` None)."""
    t = pos - created
    return t if dies is None else min(t, dies - pos)


class RunResult(Value):
    """What ``run_loop`` found: the ``verdict`` and a ``message`` on it,
    the tracked class's area at the base level after each loop (``ledger``),
    the loop whose entry broke the bound, the lattice live at exit, and the
    run's ``base``, ``tracked_label`` and ``bound``, None where unset."""

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
             tracked_independent: bool = True) -> RunResult:
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
    also for empty data.  The run steps ``_prime``'s live map from start to
    end and builds no state and no ``Instance``: it crosses its table by
    ``_cross`` once per loop, split at the first +1 row to install T and at
    the untracked class's death.  A ledger entry is the tracked instance's
    tent numerator over p*q*D, the default bound counts the live configs'
    exceptional classes, and ``finish`` makes the ledger's Fractions, the
    lattice (a prefixed template lattice per live entry, one
    ``direct_sum``) and the tracked label once, at exit.
    """
    if bound is not None:
        require_int(bound, "bound must be None or an integer >= 0", 0)
    require_object(tracked_independent, bool, "tracked_independent must be a bool")
    require_int(loops, "loops must be an integer >= 1", 1)
    base = None if base is None else parse_rational(base)
    data = _fixed_points(data)
    if not data:
        return RunResult(
            "NO_OBSTRUCTION", (), None, empty_lattice(), None, None, bound,
            "no fixed points: the ledger argument needs a non-empty fixed-point set",
        )
    log = _debug_log()
    ctx, start, live = _prime(data, base, log)
    den = ctx.den
    table = sorted(_row(ctx, i, _next(ctx, start, d)) for i, d in enumerate(ctx.data))
    first = next(i for i, row in enumerate(table) if row[2] == 1)
    created, pair, _, arc, cfg, lat = table[first]
    t_row = [(created, pair, 1, None, cfg, lat)] if tracked_independent else []  # no arc: T
    counter = _cross(ctx, live, table[:first + 1] + t_row, 0, len(live), log)
    uid, dies = counter, None if tracked_independent else created + arc
    ledger: list[int] = []  # tent numerators over the one denominator p*q*D
    distinct: set[int] = set()

    def finish(verdict: str, loop: int | None, message: str) -> RunResult:
        lattice = empty_lattice().direct_sum(*(
            _with_prefix(ctx.templates[k].lattice(), f"{_name(n, d)}.")
            for (k, d), (n, _) in live.items()))
        pqd = cfg.p * cfg.q * den
        return RunResult(verdict, tuple(Fraction(t, pqd) for t in ledger), loop, lattice, ctx.base,
                         f"{_name(uid, dies)}.{cfg.exceptional_label}", bound, message)

    rows = table[first + 1:]
    for loop in range(1, loops + 1):
        shift = (loop - 1) * den
        if dies is not None and dies <= start + loop * den:  # at its own -1 row
            end = [row[0] + shift for row in rows].index(dies)
            _cross(ctx, live, rows[:end], shift, counter, log)
            return finish("TRACKED_CLASS_DESTROYED", None,
                          "the pairing sends the tracked class's own creation level to "
                          "this blowdown; rerun with an independent tracked class to "
                          "model its transported copy")
        counter = _cross(ctx, live, rows, shift, counter, log)
        rows = table
        ledger.append(_tent(start + loop * den, created, dies))
        distinct.add(ledger[-1])
        if bound is None:
            bound = sum(len(ctx.templates[k].lattice().exceptional_classes()) for k, _ in live)
            if log:
                log.debug("bound defaulted to %d exceptional classes", bound)
        if len(distinct) > bound:
            return finish("HAMILTONIAN", loop,
                          f"contradiction at loop {loop}: the tracked class's area ledger holds "
                          f"{len(distinct)} distinct values, but a closed reduced space with "
                          f"b2+ > 1 carries at most {bound} exceptional classes, so the "
                          "non-Hamiltonian premise fails and the action must be Hamiltonian")
    return finish("INCONCLUSIVE", None, f"no contradiction within {loops} loops (bound "
                  f"{bound}); increase the loop budget")
