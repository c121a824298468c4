import logging
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import closed_form
import dense
import fraction_levels
import global_sim
from fraction_levels import arc_distance
from hjtoric import circle
from hjtoric.circle import (
    FixedPointDatum,
    ReducedSpaceState,
    build_cover,
    cross_level,
    default_base,
    initial_state,
    run_loop,
)
from hjtoric.blowup import fulton_config, weighted_blowdown
from hjtoric.errors import DomainError, StructureError, ValidationError
from hjtoric.homology import IntersectionLattice, empty_lattice
from hjtoric.resolution import Chain, CyclicSingularity, resolve_cyclic


def pair_21():
    return [
        FixedPointDatum(Fraction(0), +1, 2, 1),
        FixedPointDatum(Fraction(1, 2), -1, 2, 1),
    ]


def pair_74():
    return [
        FixedPointDatum(Fraction(0), +1, 7, 4),
        FixedPointDatum(Fraction(1, 2), -1, 7, 4),
    ]


def pairs_of(data):
    """The pairing of non-empty ``data`` that ``initial_state`` and
    ``run_loop`` take from ``circle._validate``, or its ValidationError."""
    data = tuple(data)
    return circle._validate(data, circle._grid(data))


def class_count(state):
    """The number of classes live in ``state``, summed over its instances."""
    return sum(len(inst.lattice) for inst in state.instances)


def orbifold_orders(state):
    """(uid, order) for each live instance's points of order p and q, a
    point of order 1 being smooth and absent."""
    return [(inst.uid, n) for inst in state.instances
            for n in (inst.config.p, inst.config.q) if n > 1]


def canonical_components(lat):
    """Multiset of connected components as normalized (self, c1) profiles."""
    n = len(lat)
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if lat.pairing[i][j]:
                adj[i].add(j)
                adj[j].add(i)
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        ends = [v for v in comp if len(adj[v]) <= 1]
        start = min(ends) if ends else min(comp)
        order, prev = [start], None
        while len(order) < len(comp):
            nxt = [w for w in adj[order[-1]] if w != prev]
            prev = order[-1]
            order.append(nxt[0])
        profile = tuple((lat.pairing[v][v], lat.c1[v]) for v in order)
        comps.append(min(profile, tuple(reversed(profile))))
    return sorted(comps)


class TestDatum:
    def test_validation(self):
        for fields, reason in [
            ((Fraction(3, 2), 1, 2, 1), "level"),
            ((Fraction(0), 2, 2, 1), "sign"),
            ((Fraction(0), 1, 4, 2), "coprime"),
            ((Fraction(0), 1, 4, 7), "p > q"),
            ((0, True, 2, 1), "sign"),
            ((0, 1, 2, 1, 1.0), "match"),
            ((0, 1, 2.0, 1), "weights must be integers"),
            ((0, 1, True, True), "weights must be integers"),
            ((0.1, 1, 2, 1), "exact rational"),
            (("1e-3", 1, 2, 1), "exponent"),
        ]:
            with pytest.raises(DomainError, match=reason):
                FixedPointDatum(*fields)


class TestValidate:
    def test_empty_is_no_obstruction(self):
        """No fixed points need no pairing: the run reports NO_OBSTRUCTION
        and a state cannot be primed."""
        assert run_loop([], 1).verdict == "NO_OBSTRUCTION"
        with pytest.raises(DomainError, match="empty"):
            initial_state([])

    def test_matched_pair(self):
        assert pairs_of(pair_21()) == ((0, 1),)

    def test_unmatched_weights(self):
        with pytest.raises(ValidationError) as err:
            pairs_of(
                [
                    FixedPointDatum(Fraction(0), +1, 2, 1),
                    FixedPointDatum(Fraction(1, 2), -1, 3, 1),
                ]
            )
        assert any("unmatched weights" in e for e in err.value.errors)

    def test_duplicate_levels(self):
        with pytest.raises(ValidationError):
            pairs_of(
                [
                    FixedPointDatum(Fraction(0), +1, 2, 1),
                    FixedPointDatum(Fraction(0), -1, 2, 1),
                ]
            )

    def test_single_sign(self):
        with pytest.raises(ValidationError):
            pairs_of([FixedPointDatum(Fraction(0), +1, 2, 1)])

    def test_fifo_wraps_around(self):
        data = [
            FixedPointDatum(Fraction(1, 4), -1, 2, 1),
            FixedPointDatum(Fraction(3, 4), +1, 2, 1),
        ]
        assert pairs_of(data) == ((1, 0),)

    def test_fifo_two_pairs_same_weights(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1),
            FixedPointDatum(Fraction(1, 4), +1, 2, 1),
            FixedPointDatum(Fraction(1, 2), -1, 2, 1),
            FixedPointDatum(Fraction(3, 4), -1, 2, 1),
        ]
        assert pairs_of(data) == ((0, 2), (1, 3))

    def test_explicit_matching(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1, match=2),
            FixedPointDatum(Fraction(1, 4), +1, 2, 1, match=3),
            FixedPointDatum(Fraction(1, 2), -1, 2, 1, match=0),
            FixedPointDatum(Fraction(3, 4), -1, 2, 1, match=1),
        ]
        assert pairs_of(data) == ((0, 2), (1, 3))

    def test_explicit_matching_inconsistent(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1, match=1),
            FixedPointDatum(Fraction(1, 2), -1, 3, 1, match=0),
        ]
        with pytest.raises(ValidationError):
            pairs_of(data)

    def test_partial_matching_rejected(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1, match=1),
            FixedPointDatum(Fraction(1, 2), -1, 2, 1),
        ]
        with pytest.raises(ValidationError):
            pairs_of(data)


INVALID = {
    "unmatched-weights": [FixedPointDatum(Fraction(0), +1, 2, 1),
                          FixedPointDatum(Fraction(1, 2), -1, 3, 1)],
    "repeated-level-one-sign": [FixedPointDatum(Fraction(0), +1, 2, 1),
                                FixedPointDatum(Fraction(0), +1, 3, 1)],
    "one-sign": [FixedPointDatum(Fraction(0), +1, 2, 1),
                 FixedPointDatum(Fraction(1, 2), +1, 3, 1)],
}


@pytest.mark.parametrize("start", [initial_state, lambda data: run_loop(data, 3)],
                         ids=["initial_state", "run_loop"])
@pytest.mark.parametrize("name", INVALID)
def test_invalid_data_raise_validation_error(start, name):
    """The one validation of a run raises the DomainError that
    ``_validate`` raises, which carries its reasons, joined as its
    message."""
    with pytest.raises(ValidationError) as want:
        pairs_of(INVALID[name])
    errors = want.value.errors
    with pytest.raises(ValidationError) as err:
        start(INVALID[name])
    assert isinstance(err.value, DomainError) and errors
    assert err.value.errors == errors and str(err.value) == "; ".join(errors)


@pytest.mark.parametrize("call, message", [
    (lambda: run_loop([FixedPointDatum(0, +1, 2, 1, match=5),
                       FixedPointDatum(Fraction(1, 2), -1, 2, 1, match=0)], 1),
     "fixed point 0: match index 5 out of range"),
    (lambda: run_loop([FixedPointDatum(0, +1, 2, 1, match=1),
                       FixedPointDatum(Fraction(1, 4), -1, 2, 1, match=2),
                       FixedPointDatum(Fraction(1, 2), -1, 2, 1, match=1)], 1),
     "fixed points 0 and 1 disagree about their match"),
    (lambda: run_loop([FixedPointDatum(0, +1, 2, 1), FixedPointDatum(Fraction(1, 4), -1, 2, 1),
                       FixedPointDatum(Fraction(1, 2), -1, 3, 1)], 1),
     "unmatched weights (3, 1): blowdown with no blowup"),
    (lambda: build_cover(pair_21(), 0), "eps must be positive, got 0"),
    (lambda: build_cover(pair_21(), Fraction(-1, 8)), "eps must be positive, got -1/8"),
    (lambda: cross_level(initial_state(pair_21()), FixedPointDatum(Fraction(1, 3), +1, 2, 1)),
     "datum is not part of this state's fixed-point data"),
], ids=["match-out-of-range", "match-disagrees", "blowdown-without-blowup", "zero-eps",
        "negative-eps", "foreign-datum"])
def test_each_refusal_names_its_reason(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("data, errors", [
    ([FixedPointDatum(0, +1, 2, 1), FixedPointDatum(Fraction(1, 4), +1, 3, 1),
      FixedPointDatum(Fraction(1, 2), +1, 2, 1), FixedPointDatum(Fraction(3, 4), -1, 5, 1)],
     ("unmatched weights (2, 1): blowups and blowdowns do not balance",)),
    (INVALID["repeated-level-one-sign"],
     ("critical levels must be distinct",
      "need at least one blowup (+1) and one blowdown (-1) level")),
], ids=["first-pairing-failure", "repeated-level-one-sign"])
def test_a_refusal_lists_the_level_checks_together_and_one_pairing_failure(data, errors):
    """Repeated levels and a single sign are listed together, in that order;
    pairing stops at its first failure: unbalanced (2, 1), the first weight
    in grid order, is named, and neither (3, 1) nor (5, 1) is."""
    with pytest.raises(ValidationError) as err:
        run_loop(data, 1)
    assert err.value.errors == errors


@pytest.mark.parametrize("start", [initial_state, lambda data, **kw: run_loop(data, 3, **kw)],
                         ids=["initial_state", "run_loop"])
@pytest.mark.parametrize("options,reason", [
    ({"base": 0.25}, "exact rational"),
    ({"base": "1e-3"}, "exponent"),
], ids=["float-base", "exponent-base"])
def test_inexact_base_and_delta_are_rejected(start, options, reason):
    with pytest.raises(DomainError, match=reason):
        start(pair_21(), **options)


@pytest.mark.parametrize("data", [pair_21(), []], ids=["pair", "empty"])
@pytest.mark.parametrize("args,options,reason", [
    ((5,), {"bound": -1}, "bound"),
    ((5,), {"bound": 1.5}, "bound"),
    ((5,), {"bound": True}, "bound"),
    ((2.5,), {}, "loops"),
    ((True,), {}, "loops"),
    ((5,), {"tracked_independent": 1}, "tracked_independent"),
    ((5,), {"base": True}, "exact rational"),
], ids=["negative-bound", "float-bound", "bool-bound", "float-loops", "bool-loops",
        "int-tracked", "bool-base"])
def test_run_loop_checks_its_options_first(data, args, options, reason):
    """Before any data are read, so also for an empty fixed-point set."""
    with pytest.raises(DomainError, match=reason):
        run_loop(data, *args, **options)


def cover_arcs(cov):
    """The cover's sets by name, U1, U2, ... then I1, I2, ..."""
    named = {f"U{i + 1}": arc for i, arc in enumerate(cov.u_arcs)}
    named.update({f"I{i + 1}": arc for i, arc in enumerate(cov.i_arcs)})
    return named


def arc_contains(arc, x):
    a, b = arc
    return 0 < arc_distance(a, x) < arc_distance(a, b)


def membership(cov, x):
    return tuple(n for n, arc in cover_arcs(cov).items() if arc_contains(arc, x))


def max_overlap(cov):
    """Exact maximum number of cover sets through a single point.

    Membership is constant on the open intervals between consecutive arc
    endpoints, so checking every endpoint and every midpoint between
    consecutive endpoints decides the maximum exactly.
    """
    cuts = sorted({e % 1 for arc in cover_arcs(cov).values() for e in arc})
    candidates = list(cuts)
    for a, b in zip(cuts, cuts[1:] + [cuts[0] + 1]):
        candidates.append((a + b) / 2 % 1)
    return max(len(membership(cov, x)) for x in candidates)


class TestCover:
    def test_two_levels(self):
        cov = build_cover(pair_21(), Fraction(1, 8))
        assert cov.u_arcs == ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
        assert cov.i_arcs == (
            (Fraction(-1, 8), Fraction(1, 8)),
            (Fraction(3, 8), Fraction(5, 8)),
        )
        assert set(cov.relations) == {
            ("I1", "U1"), ("I2", "U2"), ("I2", "U1"), ("I1", "U2"),
        }

    def test_half_gap_rejected(self):
        with pytest.raises(DomainError) as err:
            build_cover(pair_21(), Fraction(1, 4))
        assert "1/4" in str(err.value)

    def test_max_overlap_two(self):
        for eps in (Fraction(1, 8), Fraction(1, 100), Fraction(24, 100)):
            assert max_overlap(build_cover(pair_21(), eps)) == 2

    def test_covers_everything(self):
        cov = build_cover(pair_21(), Fraction(1, 8))
        for x in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(99, 100)):
            assert len(membership(cov, x)) >= 1

    @pytest.mark.parametrize("name", ["unmatched-weights", "one-sign"])
    def test_needs_only_distinct_levels(self, name):
        """The cover reads the levels alone, so data that fail ``_validate``
        on their weights or signs still get one."""
        with pytest.raises(ValidationError):
            pairs_of(INVALID[name])
        assert build_cover(INVALID[name], Fraction(1, 8)) == build_cover(pair_21(), Fraction(1, 8))

    @pytest.mark.parametrize("levels,reason", [([], "empty"), ([Fraction(0)] * 2, "distinct"),
                                               ([Fraction(1, 3)], "at least two levels")],
                             ids=["empty", "repeated", "lone"])
    def test_rejects_empty_and_repeated_levels(self, levels, reason):
        with pytest.raises(DomainError, match=reason):
            build_cover([FixedPointDatum(l, +1, 2, 1) for l in levels], Fraction(1, 8))

    @pytest.mark.parametrize("eps,reason", [(True, "exact rational"), (0.125, "exact rational"),
                                            ("1e-3", "exponent")],
                             ids=["bool", "float", "exponent"])
    def test_rejects_inexact_eps(self, eps, reason):
        with pytest.raises(DomainError, match=reason):
            build_cover(pair_21(), eps)

    def test_four_levels_relations(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1),
            FixedPointDatum(Fraction(1, 4), +1, 3, 2),
            FixedPointDatum(Fraction(1, 2), -1, 2, 1),
            FixedPointDatum(Fraction(3, 4), -1, 3, 2),
        ]
        cov = build_cover(data, Fraction(1, 16))
        assert len(cov.u_arcs) == len(cov.i_arcs) == 4
        assert ("I1", "U4") in cov.relations
        assert ("I3", "U2") in cov.relations
        assert max_overlap(cov) == 2


class TestCrossLevel:
    def test_standard_blowup(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 1, 1),
            FixedPointDatum(Fraction(1, 2), -1, 1, 1),
        ]
        st = initial_state(data, base=Fraction(3, 4))
        st = cross_level(st, data[0])
        assert class_count(st) == 1
        assert orbifold_orders(st) == []

    def test_weighted_blowup_adds_chains_and_books(self):
        data = pair_74()
        st = initial_state(data, base=Fraction(3, 4))
        st = cross_level(st, data[0])
        assert class_count(st) == 5
        assert orbifold_orders(st) == [("B1", 7), ("B1", 4)]

    def test_blowdown_removes_matched_config(self):
        data = pair_74()
        st = initial_state(data, base=Fraction(3, 4))
        st = cross_level(st, data[0])
        st = cross_level(st, data[1])
        assert st.instances == ()

    def test_blowdown_without_candidate_fails(self):
        data = pair_74()
        st = initial_state(data, base=Fraction(1, 4))
        # the primed instance dies at 1/2; jumping to 3/2 leaves nothing
        st = cross_level(st, data[1])
        with pytest.raises(StructureError):
            cross_level(st, data[1])

    def test_blowdown_checks_the_victims_own_lattice(self):
        """The victim's lattice is its pair's config's, the context's
        template; a template with an extra chain class or a deeper one
        stalls its own blowdown, though the config it was copied from has
        built its lattice already.  An instance must hold its pair's
        template: a state whose instance holds another config is refused,
        not stepped with the template."""
        data = pair_74()
        st = initial_state(data, base=Fraction(3, 4))
        st = cross_level(st, data[0])
        inst = st.instances[-1]
        cfg = inst.config
        assert cfg is st.context.templates[inst.pair] and cfg.lattice() is cfg.lattice()
        longer = Chain(cfg.chain_q.self_intersections + (-2,), cfg.chain_q.labels + ("Zx",))
        deeper = Chain(tuple(s - 1 for s in cfg.chain_p.self_intersections), cfg.chain_p.labels)
        for config in (replace(cfg, chain_q=longer), replace(cfg, chain_p=deeper)):
            broken = replace(st, context=replace(st.context, templates=(config,)),
                             instances=(replace(inst, config=config),))
            with pytest.raises(StructureError, match="stalled"):
                cross_level(broken, data[1])
            with pytest.raises(DomainError, match="must hold its pair's config"):
                cross_level(replace(st, instances=(replace(inst, config=config),)), data[1])
        for pair in (1, -1, "0"):
            with pytest.raises(DomainError, match="must hold its pair's config"):
                cross_level(replace(st, instances=(replace(inst, pair=pair),)), data[1])
        # an equal config, resolved afresh, is its pair's
        fresh = replace(st, instances=(replace(inst, config=fulton_config(7, 4)),))
        assert cross_level(fresh, data[1]).instances == ()


def tent(inst, pos, den):
    """``circle._tent`` of an instance a state shows, at ``pos`` over ``den``:
    the integer tent divided by p*q*den."""
    pqd = inst.config.p * inst.config.q * den
    return Fraction(circle._tent(pos, inst.created, inst.dies), pqd)


class TestArea:
    """The exceptional area the ledger reads, ``circle._tent``."""

    def setup_state(self):
        data = pair_21()
        st = initial_state(data, base=Fraction(3, 4))
        return cross_level(st, data[0])

    def test_exceptional_grows_at_slope(self):
        st = self.setup_state()
        inst, den = st.instances[-1], st.context.den
        assert inst.uid == "B1"
        assert tent(inst, st.pos, den) == 0
        assert tent(inst, st.pos + den // 4, den) == Fraction(1, 8)
        assert circle._tent(st.pos + den // 4, inst.created, inst.dies) == den // 4

    def test_tent_vanishes_at_death(self):
        st = self.setup_state()
        inst = st.instances[-1]
        assert tent(inst, inst.dies, st.context.den) == 0
        assert tent(inst, inst.dies - 1, st.context.den) > 0


class TestRunLoop:
    def test_empty_no_obstruction(self):
        res = run_loop([], loops=3)
        assert res.verdict == "NO_OBSTRUCTION"
        assert res.ledger == ()

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_contradiction_at_bound_plus_one(self, bound):
        res = run_loop(pair_21(), loops=10, bound=bound)
        assert res.verdict == "HAMILTONIAN"
        assert res.loop_of_contradiction == bound + 1

    def test_ledger_strictly_increasing_constant_increment(self):
        res = run_loop(pair_21(), loops=6, bound=5)
        diffs = {b - a for a, b in zip(res.ledger, res.ledger[1:])}
        assert all(b > a for a, b in zip(res.ledger, res.ledger[1:]))
        assert diffs == {Fraction(1, 2)}  # 1/(p*q) per unit circumference

    def test_semifree_same_shape(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 1, 1),
            FixedPointDatum(Fraction(1, 2), -1, 1, 1),
        ]
        res = run_loop(data, loops=10, bound=3)
        assert res.verdict == "HAMILTONIAN"
        assert res.loop_of_contradiction == 4
        assert all(b > a for a, b in zip(res.ledger, res.ledger[1:]))

    def test_strict_mode_reports_destruction(self):
        res = run_loop(pair_21(), loops=5, bound=3, tracked_independent=False)
        assert res.verdict == "TRACKED_CLASS_DESTROYED"

    def test_tracked_mark_dies(self):
        """The dynamic instance, tracked, ends the run at its own -1 level
        without that crossing: its classes are still in the result."""
        res = run_loop(pair_21(), loops=5, bound=3, base=Fraction(3, 4),
                       tracked_independent=False)
        assert (res.verdict, res.ledger, res.tracked_label) == (
            "TRACKED_CLASS_DESTROYED", (), "B1.E~")
        assert res.final_lattice.classes == tuple(
            f"B1.{label}" for label in fulton_config(2, 1).class_labels)

    def test_inconclusive_when_loops_short(self):
        res = run_loop(pair_21(), loops=2, bound=5)
        assert res.verdict == "INCONCLUSIVE"
        assert len(res.ledger) == 2

    def test_default_bound_counts_exceptional_classes(self):
        res = run_loop(pair_21(), loops=10)
        # end of loop 1: the dynamic instance and the tracked copy
        assert res.bound == 2
        assert res.loop_of_contradiction == 3

    def test_two_pairs(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 7, 4),
            FixedPointDatum(Fraction(1, 4), +1, 3, 2),
            FixedPointDatum(Fraction(1, 2), -1, 7, 4),
            FixedPointDatum(Fraction(3, 4), -1, 3, 2),
        ]
        res = run_loop(data, loops=8, bound=4)
        assert res.verdict == "HAMILTONIAN"
        assert res.loop_of_contradiction == 5
        assert all(b > a for a, b in zip(res.ledger, res.ledger[1:]))


class TestInvariants:
    def loop_lattices(self, data, loops):
        """The class count and the components of the live instances'
        lattices at the end of each loop of run_loop's stepping."""
        ends = list(crossings(circle, data, loops))[len(data)::len(data)]
        return [(class_count(st), sorted(c for inst in st.instances
                                         for c in canonical_components(inst.lattice)))
                for st in ends]

    def test_loop_to_loop_isomorphism_type(self):
        for data in (pair_21(), pair_74()):
            snaps = self.loop_lattices(data, 4)
            forms = [c for _, c in snaps]
            assert forms[0] == forms[1] == forms[2] == forms[3]

    def test_class_count_conserved_between_levels(self):
        data = pair_74()
        snaps = self.loop_lattices(data, 3)
        counts = {count for count, _ in snaps}
        assert len(counts) == 1

    def test_books_chains_embedded(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 7, 4),
            FixedPointDatum(Fraction(1, 4), +1, 3, 2),
            FixedPointDatum(Fraction(1, 2), -1, 7, 4),
            FixedPointDatum(Fraction(3, 4), -1, 3, 2),
        ]
        st = initial_state(data, base=Fraction(7, 8))
        st = cross_level(st, data[0])
        st = cross_level(st, data[1])
        assert len(orbifold_orders(st)) >= 4
        for inst in st.instances:
            cfg, lat = inst.config, inst.lattice
            for n, m, chain in ((cfg.p, cfg.q, cfg.chain_p), (cfg.q, cfg.p, cfg.chain_q)):
                if n == 1:
                    continue
                labels = [f"{inst.uid}.{l}" for l in chain.labels]
                expect = resolve_cyclic(CyclicSingularity(n, 1, (n - m) % n)).self_intersections
                stored = tuple(lat.self_intersection(l) for l in labels)
                assert stored == tuple(reversed(expect)) or stored == expect
                for a, b in zip(labels, labels[1:]):
                    assert lat.pair(a, b) == 1

    def test_default_base_picks_longest_gap(self):
        data = [
            FixedPointDatum(Fraction(0), +1, 2, 1),
            FixedPointDatum(Fraction(3, 4), -1, 2, 1),
        ]
        assert default_base(circle._grid(data)) == Fraction(3, 8)

    def test_defaults_for_a_lone_and_a_repeated_level(self):
        """A lone level's arc is the whole circle; a repeated level keeps
        its zero gap."""
        lone = [FixedPointDatum(Fraction(1, 4), +1, 2, 1)]
        assert default_base(circle._grid(lone)) == Fraction(3, 4)
        repeated = [FixedPointDatum(l, +1, 2, 1) for l in (Fraction(0), Fraction(0), Fraction(1, 2))]
        assert default_base(circle._grid(repeated)) == Fraction(1, 4)


# -- the level grid against the Fraction oracle --------------------------------

NEAR_1E50 = 10 ** 50


def outcome(call, *args):
    """``call(*args)``, or the type and message of the DomainError it raised."""
    try:
        return call(*args)
    except DomainError as exc:
        return type(exc), str(exc), getattr(exc, "errors", None)


@hst.composite
def level_sets(draw):
    """(data, eps): up to eight levels over small denominators or ones near
    10^50, some of them repeated, signs and weights at random and no
    matches, so ``_validate`` pairs them first-in-first-out or refuses them;
    eps below or at half the minimal gap, or any positive rational."""
    dens = draw(hst.lists(hst.integers(1, 60) | hst.integers(NEAR_1E50 - 99, NEAR_1E50 + 99),
                          max_size=8))
    levels = [Fraction(draw(hst.integers(0, d - 1)), d) for d in dens]
    if levels:
        levels += draw(hst.lists(hst.sampled_from(levels), max_size=2))
    levels = draw(hst.permutations(levels))
    data = [FixedPointDatum(l, draw(hst.sampled_from((1, -1))),
                            *draw(hst.sampled_from(((2, 1), (3, 1)))))
            for l in levels]
    gaps = fraction_levels.level_gaps(data)[1]
    half = min(gaps, default=Fraction(1)) / 2
    eps = draw(hst.sampled_from((half, half / 3, half - Fraction(1, 10 ** 60)))
               | hst.fractions(min_value=Fraction(1, 10 ** 6), max_value=1))
    return data, eps


@settings(max_examples=300, deadline=None)
@given(case=level_sets())
@example(case=([], Fraction(1, 8)))
@example(case=([FixedPointDatum(Fraction(1, 4), 1, 2, 1)], Fraction(1, 8)))
@example(case=([FixedPointDatum(Fraction(1, 3), 1, 2, 1), FixedPointDatum(Fraction(1, 3), -1, 2, 1),
                FixedPointDatum(Fraction(2, 3), -1, 2, 1)], Fraction(1, 8)))
@example(case=([FixedPointDatum(Fraction(n, 8), s, 2, 1)
                 for n, s in ((6, -1), (0, 1), (2, 1), (4, -1))], Fraction(1, 8)))
@example(case=([FixedPointDatum(Fraction(NEAR_1E50 - 1, NEAR_1E50), 1, 2, 1),
                FixedPointDatum(Fraction(1, NEAR_1E50 + 1), -1, 2, 1),
                FixedPointDatum(Fraction(NEAR_1E50 // 2 + 1, NEAR_1E50 + 3), 1, 3, 1),
                FixedPointDatum(Fraction(1, 2), -1, 3, 1)], Fraction(1, 10 ** 51)))
def test_level_grid_matches_the_fraction_oracle(case):
    """The grid's sorted levels and gaps, the default base, the
    cover (or its error) and the pairing (or its error) are what the
    Fraction arithmetic gives, for a lone level, repeated levels, no level,
    four equal gaps (the first wins the base) and denominators near 10^50."""
    data, eps = case
    den, keys, order, gaps = circle._grid(data)
    levels, want_gaps = fraction_levels.level_gaps(data)
    assert [Fraction(keys[i], den) for i in order] == levels
    assert [Fraction(g, den) for g in gaps] == want_gaps
    cover = outcome(build_cover, data, eps)
    if isinstance(cover, circle.GeneralizedCover):
        cover = (cover.levels, cover.u_arcs, cover.i_arcs)
    assert cover == outcome(fraction_levels.cover_arcs, data, eps)
    if data:  # a run of no data reports NO_OBSTRUCTION before any base or pairing
        assert default_base((den, keys, order, gaps)) == fraction_levels.default_base(data)
        assert outcome(pairs_of, data) == outcome(fraction_levels.fifo_pairs, data)


# -- the per-instance state against the global-lattice oracle ----------------

WEIGHTS = [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (7, 4)]


@hst.composite
def balanced_actions(draw, max_pairs=6):
    """(data, base): k matched pairs at distinct levels, matched explicitly
    or first-in-first-out, in a random order; base None or a regular level."""
    k = draw(hst.integers(1, max_pairs))
    den = draw(hst.integers(2 * k, 60))
    nums = draw(hst.lists(hst.integers(0, den - 1), min_size=2 * k, max_size=2 * k, unique=True))
    weights = draw(hst.lists(hst.sampled_from(WEIGHTS), min_size=k, max_size=k))
    explicit = draw(hst.booleans())
    order = draw(hst.permutations(range(2 * k)))  # order[n]: the point stored at n
    where = {point: n for n, point in enumerate(order)}
    data = []
    for point in order:
        p, q = weights[point // 2]
        data.append(FixedPointDatum(Fraction(nums[point], den), 1 if point % 2 == 0 else -1,
                                    p, q, where[point ^ 1] if explicit else None))
    base = draw(hst.none() | hst.integers(0, den - 1).map(lambda n: Fraction(2 * n + 1, 2 * den)))
    return data, base


@settings(max_examples=150, deadline=None)
@given(action=balanced_actions(), loops=hst.integers(1, 8),
       bound=hst.none() | hst.integers(0, 8), tracked=hst.booleans())
def test_run_loop_matches_global_lattice_oracle(action, loops, bound, tracked):
    data, base = action
    got = run_loop(data, loops, bound, base=base, tracked_independent=tracked)
    want = global_sim.run_loop(data, loops, bound, base=base, tracked_independent=tracked)
    assert (got.verdict, got.ledger, got.loop_of_contradiction, got.bound, got.tracked_label) == (
        want.verdict, want.ledger, want.loop_of_contradiction, want.bound, want.tracked_label)
    assert got.final_lattice.to_json() == want.final_lattice.to_json()


PRIMES_NEAR_1000 = (937, 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013)


@pytest.mark.parametrize("seed", range(8))
def test_run_loop_on_a_large_grid_matches_global_lattice_oracle(seed):
    """Levels over pairwise-coprime denominators near 1000, so the run's
    grid is the product of up to eleven of them."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    dens = rng.sample(PRIMES_NEAR_1000, 2 * k + 1)
    levels = [Fraction(rng.randrange(1, den), den) for den in dens]
    points = list(range(2 * k))
    rng.shuffle(points)
    where = {point: n for n, point in enumerate(points)}
    explicit = rng.random() < 0.5
    data = [FixedPointDatum(levels[point], 1 if point % 2 == 0 else -1,
                            *WEIGHTS[(seed + point // 2) % len(WEIGHTS)],
                            where[point ^ 1] if explicit else None)
            for point in points]
    base = None if seed % 2 else levels[-1]
    assert initial_state(data, base=base).context.den > 900 ** (2 * k)
    for loops, bound, tracked in ((6, None, True), (7, 5, True), (3, 2, False), (1, 0, True)):
        got = run_loop(data, loops, bound, base=base, tracked_independent=tracked)
        want = global_sim.run_loop(data, loops, bound, base=base, tracked_independent=tracked)
        assert (got.verdict, got.ledger, got.loop_of_contradiction, got.bound,
                got.tracked_label, got.base) == (
            want.verdict, want.ledger, want.loop_of_contradiction, want.bound,
            want.tracked_label, want.base)
        assert got.final_lattice.to_json() == want.final_lattice.to_json()


def install(state, pair_idx, created, dies):
    """``state`` plus an instance of the pair's config born at ``created``
    and dying at ``dies`` (None: a tracked copy T), installed as the run
    installs one: by the kernel ``_cross`` on a one-row table, over the live
    map of the state's instances, whose entries are plain ``(uid, created)``
    tuples until the state shows them.  Its uid is the next install number."""
    ctx = state.context
    live = {(inst.pair, inst.dies): (inst.uid, inst.created) for inst in state.instances}
    cfg = ctx.templates[pair_idx]
    row = (created, pair_idx, 1, None if dies is None else dies - created, cfg, cfg.lattice())
    counter = circle._cross(ctx, live, [row], 0, state.counter, None)
    assert all(type(entry) is tuple for entry in live.values())
    return ReducedSpaceState(ctx, state.pos, circle._instances(ctx, live), counter)


def with_tracked_copy(state):
    """``state`` plus the transported copy T of its newest instance, as
    run_loop installs it after the first +1 crossing."""
    return install(state, state.instances[-1].pair, state.pos, None)


def crossings(sim, data, loops):
    """Every state of ``sim``'s stepping, as run_loop steps with a tracked
    copy; the oracle installs it through its own ``track`` mode.  Both
    sims prime at the default base.  The package's ``cross_level`` finds
    each crossing's position itself; the oracle is moved to it by hand."""
    base = default_base(circle._grid(data))
    state = sim.initial_state(data)
    order = sorted(data, key=lambda d: arc_distance(base, d.level))
    tracked = False
    yield state
    for loop in range(loops):
        for d in order:
            track = not tracked and d.sign == 1
            if sim is circle:
                state = circle.cross_level(state, d)
                if track:
                    state = with_tracked_copy(state)
            else:
                at = state.at(base + loop + arc_distance(base, d.level))
                state = sim.cross_level(at, d, track="copy" if track else None)
            tracked |= track
            yield state


@settings(max_examples=60, deadline=None)
@given(action=balanced_actions(max_pairs=4))
def test_each_crossing_matches_global_lattice_oracle(action):
    data, _ = action
    before = None
    for got, want in zip(crossings(circle, data, 3), crossings(global_sim, data, 3)):
        if before is not None:  # cross_level never writes to its input
            assert (before[0].pos, before[0].instances, before[0].counter) == before[1]
        before = got, (got.pos, got.instances, got.counter)
        assert Fraction(got.pos, got.context.den) == want.position
        assert [(i.uid, i.config.p, i.config.q) for i in got.instances] == [
            (i.uid, i.config.p, i.config.q) for i in want.instances]
        lattices = [inst.lattice for inst in got.instances]
        for lat in lattices:
            dense.assert_one_basis_order(lat)
        assert want.lattice.to_json() == empty_lattice().direct_sum(*lattices).to_json()
        for inst in got.instances:
            label = f"{inst.uid}.{inst.config.exceptional_label}"
            assert tent(inst, got.pos, got.context.den) == global_sim.area(
                want, label, want.position)


def test_state_does_not_grow_with_loops():
    data = [
        FixedPointDatum(Fraction(0), +1, 7, 4),
        FixedPointDatum(Fraction(1, 4), +1, 3, 2),
        FixedPointDatum(Fraction(1, 2), -1, 7, 4),
        FixedPointDatum(Fraction(3, 4), -1, 3, 2),
    ]
    states = list(crossings(circle, data, 100))
    per_loop = len(data)
    after_10, after_100 = states[10 * per_loop], states[100 * per_loop]
    assert len(after_100.instances) == len(after_10.instances)
    assert class_count(after_100) == class_count(after_10)


@settings(max_examples=500, deadline=None)
@given(action=balanced_actions(), loops=hst.integers(1, 8),
       bound=hst.none() | hst.integers(0, 8), tracked=hst.booleans())
@example(action=([FixedPointDatum("1/2", 1, 3, 1), FixedPointDatum("3/4", -1, 3, 1)], 0),
         loops=3, bound=1, tracked=True)
def test_run_loop_matches_closed_form(action, loops, bound, tracked):
    """Verdict, ledger, bound and contradiction loop are the closed form's
    (``tests/closed_form.py``), over explicit and first-in-first-out
    matches, given and default bases and bounds, and both tracked modes.
    In the example the ledger 2/12, 6/12 (D = 4, pq = 3) reads 1/6, 1/2:
    distinct values whose reduced numerators agree, so the contradiction
    comes at loop 2 only if distinct values are counted over p*q*D."""
    data, base = action
    res = run_loop(data, loops, bound, base=base, tracked_independent=tracked)
    assert (res.verdict, res.ledger, res.loop_of_contradiction, res.bound) == closed_form.run(
        data, loops, bound, base, tracked)


def nested_pairs(k):
    """k (7, 4) pairs, every blowup level before every blowdown level, so
    all k instances are live at once."""
    return ([FixedPointDatum(Fraction(i, 2 * k + 1), +1, 7, 4) for i in range(k)]
            + [FixedPointDatum(Fraction(k + i, 2 * k + 1), -1, 7, 4) for i in range(k)])


def chained_pairs(k):
    """k (7, 4) pairs matched explicitly, each dying just after the next is
    born: pair i lives from 2i/(2k) to (2i + 3)/(2k), the last wrapping
    around, so two are live at the default base 1/(4k)."""
    data = [FixedPointDatum(Fraction(n, 2 * k), 1 - 2 * (n % 2), 7, 4) for n in range(2 * k)]
    return [replace(datum, match=(n + 3) % (2 * k) if n % 2 == 0 else (n - 3) % (2 * k))
            for n, datum in enumerate(data)]


@pytest.mark.parametrize("data, loops, bound", [
    (nested_pairs(4096), 2, None), (chained_pairs(4096), 2, None),
    (nested_pairs(8), 10 ** 4, 10 ** 4),
], ids=["nested-4096", "chained-4096", "nested-8-10000-loops"])
def test_large_runs_match_closed_form(data, loops, bound):
    """Sizes no stepping oracle reaches: 4096 pairs, all live at once or
    chained, and 10^4 loops, whose ledger must hold 10^4 distinct values
    under the bound 10^4 (one fewer loop than the contradiction needs)."""
    for tracked in (True, False):
        res = run_loop(data, loops, bound, tracked_independent=tracked)
        assert (res.verdict, res.ledger, res.loop_of_contradiction, res.bound) == closed_form.run(
            data, loops, bound, None, tracked)


@settings(max_examples=200, deadline=None)
@given(p=hst.integers(1, 400), q=hst.integers(1, 400))
def test_a_config_lattice_has_one_exceptional_class(p, q):
    """Why the default bound is L + 1 (``tests/closed_form.py``): every
    ``fulton_config`` lattice has exactly one exceptional class, E~, since
    each chain class sits at -2 or below (Hirzebruch-Jung terms are >= 2)."""
    p, q = max(p, q), min(p, q)
    if gcd(p, q) != 1 or p == q != 1:
        return
    cfg = fulton_config(p, q)
    assert cfg.lattice().exceptional_classes() == (cfg.exceptional_label,)
    assert all(s <= -2 for s in cfg.chain_p.self_intersections + cfg.chain_q.self_intersections)


# -- per-run templates ---------------------------------------------------------


def test_installs_equal_a_prefixed_fulton_config():
    """An installed instance holds the pair's template itself, and its
    lattice, the template's under the instance's label prefix, must equal
    the lattice of a config resolved afresh and prefixed through the public
    constructors, and the dense relabel of the template's lattice."""
    for p in range(1, 41):
        for q in range(1, p + 1):
            if gcd(p, q) != 1 or p == q != 1:
                continue
            data = [FixedPointDatum(Fraction(0), +1, p, q),
                    FixedPointDatum(Fraction(3, 8), -1, p, q)]
            st = initial_state(data, base=Fraction(1, 2))
            den = st.context.den  # created at 1, dying at 11/8
            st = install(st, 0, den, 11 * den // 8)
            st = install(st, 0, den, None)
            for inst in st.instances:
                prefix = f"{inst.uid}."
                want = global_sim.prefixed(fulton_config(p, q), prefix).lattice()
                lat = inst.config.lattice()
                relabeled = IntersectionLattice([prefix + l for l in lat.classes], lat.pairing,
                                                lat.c1)
                assert inst.config is st.context.templates[0], (p, q)
                assert inst.lattice == want == relabeled, (p, q)
                assert inst.lattice.to_json() == want.to_json(), (p, q)


def test_every_install_shares_its_pairs_template():
    """Primed, crossed and tracked installs all hold their pair's config
    itself, so a run builds each template's lattice once."""
    states = list(crossings(circle, three_pairs(), 2))
    templates = states[0].context.templates
    lattices = [cfg.lattice() for cfg in templates]
    assert states[0].instances and any(inst.uid == "T" for inst in states[-1].instances)
    for st in states:
        assert st.context.templates is templates
        for inst in st.instances:
            assert inst.config is templates[inst.pair]
    assert all(cfg.lattice() is lat for cfg, lat in zip(templates, lattices))


def test_lattice_of_many_instances_equals_the_pairwise_fold():
    """``direct_sum`` sums the live instances' lattices in one pass, as the
    result's lattice is built; at 256 of them it equals folding it over them
    pairwise, in install order.  The copies share one pair, so each dies at
    its own position."""
    st = initial_state(pair_74(), base=Fraction(3, 4))
    for i in range(256):
        st = install(st, 0, st.pos, st.pos + 1 + i)
    lats = [inst.lattice for inst in st.instances]
    fold = empty_lattice()
    for lat in lats:
        fold = fold.direct_sum(lat)
    total = empty_lattice().direct_sum(*lats)
    assert len(lats) == 256 and total == fold and total.classes == fold.classes
    with pytest.raises(DomainError):
        empty_lattice().direct_sum(*lats, lats[0])


def three_pairs():
    return [
        FixedPointDatum(Fraction(0), +1, 7, 4),
        FixedPointDatum(Fraction(1, 8), +1, 3, 2),
        FixedPointDatum(Fraction(1, 4), +1, 1, 1),
        FixedPointDatum(Fraction(1, 2), -1, 7, 4),
        FixedPointDatum(Fraction(5, 8), -1, 3, 2),
        FixedPointDatum(Fraction(3, 4), -1, 1, 1),
    ]


def test_configs_are_resolved_once_per_pair_and_run(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fulton_config(*args, **kwargs)

    monkeypatch.setattr(circle, "fulton_config", counting)
    circle._config.cache_clear()
    res = run_loop(three_pairs(), 50, 1000)
    assert res.verdict == "INCONCLUSIVE" and len(res.ledger) == 50
    assert calls == [(7, 4), (3, 2), (1, 1)]


def two_equal_weight_pairs():
    """Two (3, 2) pairs and a (2, 1) pair; first-in-first-out pairs them as
    (0, 3), (1, 4) and (2, 5)."""
    return [FixedPointDatum(Fraction(l), s, p, q) for l, s, p, q in (
        ("0", 1, 3, 2), ("1/6", 1, 3, 2), ("1/3", 1, 2, 1),
        ("1/2", -1, 3, 2), ("5/7", -1, 3, 2), ("4/5", -1, 2, 1))]


def test_equal_weight_pairs_share_one_config(monkeypatch):
    """A run resolves one config per distinct weight pair, in pair order,
    and pairs of equal weights hold that one object; the next run with the
    same weights reuses it and resolves nothing, while the public
    ``fulton_config`` still builds a new value on each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fulton_config(*args, **kwargs)

    monkeypatch.setattr(circle, "fulton_config", counting)
    circle._config.cache_clear()
    st = initial_state(two_equal_weight_pairs())
    templates = st.context.templates
    assert calls == [(3, 2), (2, 1)]
    assert templates[0] is templates[1] and templates[2] is not templates[0]
    assert templates == (fulton_config(3, 2), fulton_config(3, 2), fulton_config(2, 1))
    assert {inst.pair for inst in st.instances} == {1, 2}
    for inst in st.instances:
        assert inst.config is templates[inst.pair]
    again = initial_state(two_equal_weight_pairs()).context.templates
    assert all(a is b for a, b in zip(again, templates)) and calls == [(3, 2), (2, 1)]
    assert fulton_config(3, 2) is not fulton_config(3, 2)


@settings(max_examples=60, deadline=None)
@given(action=balanced_actions(), loops=hst.integers(1, 6),
       bound=hst.none() | hst.integers(0, 6), tracked=hst.booleans())
def test_config_cache_changes_no_result(action, loops, bound, tracked):
    """Two runs on a warm config cache and one after clearing it give the
    same output, and it is the global-lattice oracle's (which writes no
    message)."""
    data, base = action
    run = lambda: run_loop(data, loops, bound, base=base, tracked_independent=tracked).to_json()
    warm = [run(), run()]
    circle._config.cache_clear()
    cold = run()
    want = global_sim.run_loop(data, loops, bound, base=base, tracked_independent=tracked)
    assert warm[0] == warm[1] == cold
    assert cold == {**want.to_json(), "message": cold["message"]}


def test_a_run_past_the_cache_bound_matches_the_oracle():
    """More distinct weight pairs than the cache keeps: the cache evicts the
    run's first pair while the run resolves the rest, yet that pair's second
    instance still shares the first's config, and the run still matches the
    oracle.  Each pair lives on its own short arc, so few are live at once."""
    bound = circle._config.cache_info().maxsize
    weights = [(p, q) for p in range(1, 64) for q in range(1, p + 1)
               if gcd(p, q) == 1 and (p > q or p == 1)][:bound + 1]
    weights.append(weights[0])
    k = len(weights)
    data = [FixedPointDatum(Fraction(2 * i + sign, 2 * k + 1), 1 - 2 * sign, p, q)
            for i, (p, q) in enumerate(weights) for sign in (0, 1)]
    circle._config.cache_clear()
    templates = initial_state(data).context.templates
    assert len(set(map(id, templates))) == bound + 1 and templates[0] is templates[-1]
    assert circle._config(*weights[0]) is not templates[0]  # evicted, so resolved afresh
    for tracked in (True, False):
        got = run_loop(data, 2, None, tracked_independent=tracked).to_json()
        want = global_sim.run_loop(data, 2, None, tracked_independent=tracked).to_json()
        assert got == {**want, "message": got["message"]}


@pytest.mark.parametrize("tracked", [True, False])
def test_no_logging_call_per_crossing_with_debug_off(monkeypatch, caplog, tracked):
    """With debug logging off a 50-loop run, a run that defaults its bound
    and the step API make no ``debug`` call at all; with it on, each install
    and blowdown makes one, so a tracked run makes one per crossing at least.
    The calls are counted on the ``hjtoric.circle`` logger itself, which a
    run looks up afresh."""
    data = three_pairs()
    calls = []
    monkeypatch.setattr(logging.getLogger("hjtoric.circle"), "debug",
                        lambda *args: calls.append(args))
    for level in (logging.WARNING, logging.DEBUG):
        calls.clear()
        with caplog.at_level(level, logger="hjtoric.circle"):
            res = run_loop(data, 50, 1000, tracked_independent=tracked)
            assert len(res.ledger) == (50 if tracked else 1)
            run_loop(data, 50, None, tracked_independent=tracked)
            st = initial_state(data)
            for d in data:
                st = cross_level(st, d)
        if level == logging.WARNING:
            assert calls == []
        else:
            assert len(calls) >= (50 if tracked else 1) * len(data)


@pytest.mark.parametrize("tracked", [True, False])
def test_every_blowdown_crossing_runs_weighted_blowdown(monkeypatch, tracked):
    """Each -1 crossing blows its victim's config down: a run of L full
    loops over m blowdown levels makes L * m calls, and an untracked run
    makes one per blowdown level it crosses before the tracked class's own.
    Each call gets the victim's config, its pair's template, so the equal
    weights of the first two pairs make one object."""
    calls = []

    def counting(lat, config):
        calls.append(config)
        return weighted_blowdown(lat, config)

    monkeypatch.setattr(circle, "weighted_blowdown", counting)
    data = two_equal_weight_pairs()
    res = run_loop(data, 7, 1000, base=Fraction(3, 8), tracked_independent=tracked)
    if tracked:
        assert res.verdict == "INCONCLUSIVE" and len(calls) == 7 * 3
    else:
        # from 3/8: the -1 levels 1/2, 5/7 and 4/5, then the tracked class,
        # born at level 0, dies at 1/2 of the second loop
        assert res.verdict == "TRACKED_CLASS_DESTROYED" and len(calls) == 3
    assert [(cfg.p, cfg.q) for cfg in calls[:3]] == [(3, 2), (3, 2), (2, 1)]
    assert calls[0] is calls[1] and len({id(cfg) for cfg in calls}) == 2


def test_a_repeated_blowup_crossing_is_refused():
    """Installing one +1 level twice at one position would give two instances
    one life arc, and one blowdown would leave the other live past its own
    death: the second install of a live ``(pair, dies)`` key is refused, T's
    included, and the input state is left as it was."""
    data = pair_74()
    st = cross_level(initial_state(data, base=Fraction(3, 4)), data[0])
    b1 = st.instances[0]
    with pytest.raises(DomainError, match="already has a live instance"):
        install(st, b1.pair, b1.created, b1.dies)
    tracked = with_tracked_copy(st)
    with pytest.raises(DomainError, match="already has a live instance"):
        with_tracked_copy(tracked)
    assert [inst.uid for inst in st.instances] == ["B1"]
    assert [inst.uid for inst in tracked.instances] == ["B1", "T"]


def test_instances_sharing_a_key_are_refused():
    """A hand-built state whose two instances share a pair and a death
    position would lose one of them when the step keys them by
    ``(pair, dies)``, and the blowdown at 3/2 would remove only the other:
    ``cross_level`` refuses such a state instead."""
    data = pair_74()
    st = cross_level(initial_state(data, base=Fraction(3, 4)), data[0])
    b1 = st.instances[0]
    doubled = replace(st, instances=(b1, replace(b1, uid="B9")))
    with pytest.raises(DomainError, match="share a pair and a death position"):
        cross_level(doubled, data[1])


@pytest.mark.parametrize("data", [three_pairs(), nested_pairs(24)], ids=["3-pairs", "24-pairs"])
@pytest.mark.parametrize("loops, bound, tracked", [
    (1, None, True), (9, 1000, True), (9, 3, True), (9, 1000, False),
])
def test_run_loop_builds_a_state_per_loop_not_per_crossing(monkeypatch, data, loops, bound,
                                                           tracked):
    """Not even one state per loop: the run steps one live map from start to
    end and reads its ledger, bound and result off it, so it builds no
    state whatever its loop and crossing counts, bound and tracking."""
    built = []

    class Counting(ReducedSpaceState):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    want = run_loop(data, loops, bound, tracked_independent=tracked)
    monkeypatch.setattr(circle, "ReducedSpaceState", Counting)
    got = run_loop(data, loops, bound, tracked_independent=tracked)
    assert got == want and built == []


@pytest.mark.parametrize("data, base", [
    (three_pairs(), None), (three_pairs(), Fraction(7, 8)), (pair_21(), Fraction(1, 4)),
    (two_equal_weight_pairs(), Fraction(3, 8)),
    (nested_pairs(3), Fraction(1, 3) + Fraction(1, 21)),
])
def test_cross_level_lands_at_the_levels_next_position(data, base):
    """``cross_level`` crosses a datum's level at its first position strictly
    after the state's, worked out here in Fractions: each blowup from the
    primed state, the same blowup again exactly ``context.den`` (one loop)
    later, and every level in turn, in run order, over two loops."""
    def after(x, level):
        return x + (arc_distance(x, level) or 1)

    st = initial_state(data, base=base)
    den = st.context.den
    for d in data:
        if d.sign == 1:
            once = cross_level(st, d)
            assert Fraction(once.pos, den) == after(Fraction(st.pos, den), d.level)
            assert cross_level(once, d).pos == once.pos + den
    for d in sorted(data, key=lambda d: arc_distance(st.context.base, d.level)) * 2:
        want = after(Fraction(st.pos, den), d.level)
        st = cross_level(st, d)
        assert Fraction(st.pos, den) == want


@pytest.mark.parametrize("data, base", [(three_pairs(), None), (three_pairs(), Fraction(7, 8)),
                                        (nested_pairs(3), Fraction(1, 3) + Fraction(1, 21))])
def test_positions_stay_ints_through_the_step_api_and_run_loop(monkeypatch, data, base):
    """Positions are integer numerators over the run's grid: ``pos``,
    ``created`` and ``dies`` are ints (``dies`` None for T), never Fractions,
    in the states of the step API, and in the live map ``run_loop`` steps,
    read at each blowdown and at exit, whose uids are install numbers."""
    def check(created, dies):
        assert type(created) is int and (dies is None or type(dies) is int)

    st = initial_state(data, base=base)
    base = st.context.base
    for loop in range(2):
        assert type(st.pos) is int
        for inst in st.instances:
            check(inst.created, inst.dies)
        for d in sorted(data, key=lambda d: arc_distance(base, d.level)):
            st = cross_level(st, d)
    maps, seen = [], []
    prime = circle._prime

    def recording_prime(*args):
        ctx, start, live = prime(*args)
        maps.append(live)
        return ctx, start, live

    def recording_blowdown(lat, config):
        seen.extend(maps[-1].items())
        return weighted_blowdown(lat, config)

    monkeypatch.setattr(circle, "_prime", recording_prime)
    monkeypatch.setattr(circle, "weighted_blowdown", recording_blowdown)
    for tracked in (True, False):
        run_loop(data, 4, 1000, base=base, tracked_independent=tracked)
    seen.extend(item for live in maps for item in live.items())
    assert len(maps) == 2 and any(dies is None for (_, dies), _ in seen)
    for (pair, dies), (uid, created) in seen:
        assert type(pair) is type(uid) is int
        check(created, dies)


@pytest.mark.parametrize("data", [three_pairs(), nested_pairs(24), two_equal_weight_pairs()],
                         ids=["3-pairs", "24-pairs", "equal-weights"])
@pytest.mark.parametrize("bound", [1000, None])
def test_run_loop_builds_no_state_and_blows_down_at_every_minus_crossing(monkeypatch, data,
                                                                         bound):
    """A run steps the kernel's live map and builds its result straight from
    it: no ``Instance`` and no ``ReducedSpaceState``, while each of the L
    loops still runs ``weighted_blowdown`` once per -1 level."""
    built, calls = [], []

    class CountingInstance(circle.Instance):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    class CountingState(ReducedSpaceState):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counting(lat, config):
        calls.append(config)
        return weighted_blowdown(lat, config)

    monkeypatch.setattr(circle, "Instance", CountingInstance)
    monkeypatch.setattr(circle, "ReducedSpaceState", CountingState)
    monkeypatch.setattr(circle, "weighted_blowdown", counting)
    res = run_loop(data, 9, bound)
    assert res.verdict == ("INCONCLUSIVE" if bound else "HAMILTONIAN")
    assert built == [] and len(calls) == len(res.ledger) * sum(d.sign == -1 for d in data)


@settings(max_examples=150, deadline=None)
@given(action=balanced_actions())
def test_step_api_leaves_the_kernels_live_entries(action):
    """``initial_state`` and then ``cross_level`` on each datum over one loop,
    in run order, leave the live entries (uid, pair, created, dies) and the
    install counter that the kernel leaves on ``_prime``'s map after crossing
    ``run_loop``'s one-loop table, the step API's uids being the kernel's
    install numbers as labels."""
    data, base = action
    st = initial_state(data, base=base)
    ctx, start, live = circle._prime(tuple(data), base, None)
    assert (ctx, start) == (st.context, st.pos)
    table = sorted(circle._row(ctx, i, circle._next(ctx, start, d))
                   for i, d in enumerate(ctx.data))
    counter = circle._cross(ctx, live, table, 0, len(live), None)
    for d in sorted(data, key=lambda d: circle._next(ctx, start, d)):
        st = cross_level(st, d)
    assert st.pos == table[-1][0] and st.counter == counter
    assert [(inst.uid, inst.pair, inst.created, inst.dies) for inst in st.instances] == [
        (circle._name(uid, dies), pair, created, dies)
        for (pair, dies), (uid, created) in live.items()]


def test_installs_and_blowdowns_leave_other_lattices_unchanged():
    data = three_pairs()
    st = initial_state(data, base=Fraction(7, 8))
    snap = lambda lat: IntersectionLattice.from_json(lat.to_json())
    templates = [snap(cfg.lattice()) for cfg in st.context.templates]
    for level, datum in sorted((d.level, d) for d in data):
        live = [(inst.lattice, snap(inst.lattice)) for inst in st.instances]
        st = cross_level(st, datum)
        if level == 0:
            st = with_tracked_copy(st)
        assert all(lat == before for lat, before in live)
    assert [cfg.lattice() for cfg in st.context.templates] == templates


def test_debug_trail_names_every_blowup(caplog):
    """The README example: the primed B1, each crossed blowup and the
    tracked copy T log a blowup line, so every uid of the final lattice has
    one, and each blowdown logs its own line."""
    data = [FixedPointDatum("0", 1, 2, 1), FixedPointDatum("1/2", -1, 2, 1)]
    with caplog.at_level(logging.DEBUG, logger="hjtoric.circle"):
        res = run_loop(data, 5, 3)
    trail = [record.getMessage() for record in caplog.records]
    assert trail[:4] == [
        "blowup B1 at position 0/4: weights (2, 1)",
        "blowdown B1 at position 2/4",
        "blowup B2 at position 4/4: weights (2, 1)",
        "blowup T at position 4/4: weights (2, 1)",
    ]
    uids = {label.partition(".")[0] for label in res.final_lattice.classes}
    assert uids == {"T", "B6"}
    assert all(any(line.startswith(f"blowup {uid} at") for line in trail) for uid in uids)
