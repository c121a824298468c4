import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
import hjtoric.blowup
import hjtoric.circle
import stepwise
from geometry import Polygon, corner_cut, det2, quadrant
from hjtoric.blowup import (
    BlowupConfig,
    McDuffSequence,
    cross_check,
    cut_chords,
    fulton_config,
    lattices_isomorphic_as_chains,
    mcduff_sequence,
    weighted_blowdown,
)
from hjtoric.circle import FixedPointDatum, run_loop
from hjtoric.errors import DomainError, StructureError
from hjtoric.homology import (
    IntersectionLattice,
    _forced_contractions,
    add_class,
    blow_down,
    blow_up_at,
    chain_contact_replay,
    empty_lattice,
    lattice_from_parts,
    signature,
)
from hjtoric.resolution import Chain


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def polygon_replay(q, p):
    """The cut replay on a real polygon, as an oracle for the mediant replay.

    Cuts the quadrant's corners with ``corner_cut`` and reads each label off
    the new edge's conormal.  Cut sizes shrink by a factor of 4 so that every
    cut fits inside the earlier edges.  Returns the labels and the lattice of
    blowups at the classes of the flanking cuts (the axes carry no class).
    """
    blocks = []
    prev, cur = p, q
    while cur:
        blocks.append(prev // cur)
        prev, cur = cur, prev % cur
    total = sum(blocks)
    poly = quadrant()
    edges = ["V", "H"]  # edge ids in polygon order: the axes, then cut numbers
    up, down = "V", "H"
    labels = []
    lat = empty_lattice()
    for bi, a in enumerate(blocks):
        for _ in range(a):
            step = len(labels)
            iu = edges.index(up)
            assert edges[iu + 1] == down
            touched = [f"e{i + 1}" for i in (up, down) if isinstance(i, int)]
            lat = blow_up_at(lat, touched, f"e{step + 1}")
            poly = corner_cut(poly, iu, 4 ** (total - 1 - step))
            edges.insert(iu + 1, step)
            n = poly.conormal(iu + 1)
            labels.append((-n[0], -n[1]))
            if bi % 2 == 0:
                up = step
            else:
                down = step
    return tuple(labels), lat


@pytest.mark.parametrize("p", range(1, 41))
def test_mediant_replay_matches_polygon_replay(p):
    for q in range(1, p + 1):
        if gcd(p, q) != 1 or p == q != 1:
            continue
        labels, lat = polygon_replay(q, p)
        assert mcduff_sequence(q, p).cut_directions == labels, (p, q)
        assert mcduff_sequence(q, p).lattice().to_json() == lat.to_json(), (p, q)


class TestCornerCut:
    """The oracle's geometry: conormals, lengths and refusals of a cut."""

    def test_standard_cut_conormal(self):
        poly = corner_cut(quadrant(), 0, Fraction(1, 2))
        assert poly.conormals() == ((-1, 0), (-1, -1), (0, -1))
        assert poly.edge_lattice_length(1) == Fraction(1, 2)

    def test_cut_again_near_horizontal(self):
        poly = corner_cut(quadrant(), 0, Fraction(1, 2))
        poly = corner_cut(poly, 1, Fraction(1, 8))
        assert poly.conormals() == ((-1, 0), (-1, -1), (-1, -2), (0, -1))

    def test_edge_count_and_smoothness(self):
        poly = quadrant()
        rng = random.Random(3)
        for _ in range(6):
            i = rng.randrange(len(poly.vertices))
            before = poly.edge_count
            try:
                poly = corner_cut(poly, i, Fraction(1, 64))
            except DomainError:
                continue  # non-smooth vertex: allowed to refuse
            assert poly.edge_count == before + 1
            for v in range(len(poly.vertices)):
                assert abs(det2(poly.conormal(v), poly.conormal(v + 1))) == 1

    def test_rejects_nonsmooth(self):
        corner = Polygon(((0, 0),), (1, 2), (1, 0))  # a corner of order 2
        with pytest.raises(DomainError, match="not smooth"):
            corner_cut(corner, 0, Fraction(1, 4))

    def test_rejects_oversized(self):
        poly = corner_cut(quadrant(), 0, Fraction(1, 2))
        with pytest.raises(DomainError):
            corner_cut(poly, 0, Fraction(1, 2))  # consumes the new edge
        with pytest.raises(DomainError):
            corner_cut(poly, 0, Fraction(2, 3))


class TestFultonConfig:
    def test_two_one(self):
        cfg = fulton_config(2, 1)
        assert cfg.chain_p.self_intersections == (-2,)
        assert len(cfg.chain_q) == 0
        assert cfg.lattice().self_intersection("E~") == -1

    def test_seven_four(self):
        cfg = fulton_config(7, 4)
        # expansions 7/3 = [3,2,2] and 4/1 = [4], stored from the E~ end
        assert tuple(reversed(cfg.chain_p.self_intersections)) == (-3, -2, -2)
        assert cfg.chain_q.self_intersections == (-4,)
        lat = cfg.lattice()
        assert lat.pair("E~", "Zp1") == 1
        assert lat.pair("E~", "Zq1") == 1
        assert lat.pair("Zp1", "Zq1") == 0
        assert lat.self_intersection("Zp1") == -2

    def test_standard_blowup(self):
        cfg = fulton_config(1, 1)
        assert len(cfg.chain_p) == len(cfg.chain_q) == 0
        assert len(cfg.lattice()) == 1

    def test_chain_orthogonality(self):
        cfg = fulton_config(11, 7)
        lat = cfg.lattice()
        for a in cfg.chain_p.labels:
            for b in cfg.chain_q.labels:
                assert lat.pair(a, b) == 0

    def test_negative_definite_single_minus_one(self):
        for p, q in [(2, 1), (7, 4), (7, 5), (12, 5), (9, 2)]:
            lat = fulton_config(p, q).lattice()
            assert signature(lat) == (0, len(lat), 0)
            minus_ones = [l for l in lat.classes if lat.self_intersection(l) == -1]
            assert minus_ones == ["E~"]

    def test_lattice_is_built_once_per_config(self):
        """``lattice`` returns one value per config, which a blowdown of it
        leaves unchanged.  The memo is no field, so equality, hash and repr
        ignore it, and a ``replace`` copy builds the lattice of its own
        chains."""
        cfg, fresh = fulton_config(7, 4), fulton_config(7, 4)
        lat = cfg.lattice()
        before = snapshot(lat)
        assert cfg.lattice() is lat
        weighted_blowdown(lat, cfg)
        assert cfg.lattice() is lat and lat == before
        assert (cfg == fresh, hash(cfg), repr(cfg)) == (True, hash(fresh), repr(fresh))
        assert replace(cfg).lattice() is not lat and replace(cfg).lattice() == lat
        deeper = replace(cfg, chain_p=Chain(
            tuple(s - 1 for s in cfg.chain_p.self_intersections), cfg.chain_p.labels))
        assert deeper.lattice() is deeper.lattice()
        assert deeper.lattice().self_intersection("Zp1") == lat.self_intersection("Zp1") - 1
        with pytest.raises(StructureError, match="stalled"):
            weighted_blowdown(deeper.lattice(), deeper)

    def test_rejects_bad_weights(self):
        for args, reason in [((4, 2), "coprime"), ((4, 7), "p > q"),
                             ((2.0, 1), "must be integers"), ((True, True), "must be integers"),
                             ((2, 1, "1e-3"), "exponent"), ((2, 1, 0.5), "exact rational"),
                             ((2, 1, "1_0"), "exact rational")]:
            with pytest.raises(DomainError, match=reason):
                fulton_config(*args)
            if len(args) == 2:
                with pytest.raises(DomainError, match=reason):
                    mcduff_sequence(args[1], args[0])


class TestMcDuffSequence:
    def test_four_seven(self):
        seq = mcduff_sequence(4, 7)
        assert seq.multiplicities == (4, 3, 1, 1, 1)
        assert seq.cut_directions == ((1, 1), (1, 2), (2, 3), (3, 5), (4, 7))

    def test_one_p(self):
        seq = mcduff_sequence(1, 5)
        assert seq.multiplicities == (1,) * 5
        assert seq.cut_directions == ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5))

    def test_trivial(self):
        seq = mcduff_sequence(1, 1)
        assert seq.multiplicities == (1,)
        assert seq.cut_directions == ((1, 1),)

    def test_five_seven(self):
        seq = mcduff_sequence(5, 7)
        assert seq.multiplicities == (5, 2, 2, 1, 1)
        assert seq.cut_directions == ((1, 1), (1, 2), (2, 3), (3, 4), (5, 7))

    def test_recursion_property(self):
        # the q_i strictly decrease, so runs of equal multiplicities are
        # exactly the blocks of the recursion
        for p, q in coprime_pairs(25):
            seq = mcduff_sequence(q, p)
            blocks = []  # (value q_i, count a_i)
            for m in seq.multiplicities:
                if blocks and blocks[-1][0] == m:
                    blocks[-1][1] += 1
                else:
                    blocks.append([m, 1])
            prev, cur = p, q
            for i, (value, count) in enumerate(blocks):
                assert value == cur
                assert count * cur <= prev < (count + 1) * cur
                prev, cur = cur, prev - count * cur
            assert cur == 0  # a_n * q_n consumed q_{n-1} exactly

    def test_last_cut_is_weight_vector(self):
        for p, q in coprime_pairs(30):
            assert mcduff_sequence(q, p).cut_directions[-1] == (q, p)

    def test_replay_checks_its_last_label(self, monkeypatch):
        # two cuts of one block stop at (1, 2), short of the weight vector
        monkeypatch.setattr(hjtoric.blowup, "_euclid_blocks", lambda p, q: ([2], [1]))
        with pytest.raises(StructureError):
            mcduff_sequence(4, 7)

    def test_sum_of_squares(self):
        for p, q in coprime_pairs(30):
            seq = mcduff_sequence(q, p)
            assert sum(m * m for m in seq.multiplicities) == p * q


class TestCrossCheck:
    @pytest.mark.parametrize("p,q", [(7, 4), (2, 1), (1, 1), (7, 5), (13, 8)])
    def test_examples(self, p, q):
        assert cross_check(p, q)
        cfg = fulton_config(p, q)
        assert len(mcduff_sequence(q, p)) == len(cfg.chain_p) + len(cfg.chain_q) + 1

    def test_replay_lattice_values(self):
        lat = mcduff_sequence(4, 7).lattice()
        selfs = sorted(lat.pairing[i][i] for i in range(len(lat)))
        assert selfs == [-4, -3, -2, -2, -1]

    def test_every_pair_up_to_sixty(self):
        """The routes agree for every coprime p > q with p <= 60, and the
        store-reading path profile of each route's lattice is the oracle's."""
        for p, q in coprime_pairs(60):
            assert cross_check(p, q), (p, q)
            for lat in (fulton_config(p, q).lattice(), mcduff_sequence(q, p).lattice()):
                assert hjtoric.blowup._path_profile(lat) == stepwise.path_profile(lat), (p, q)

    def test_isomorphism_test_refuses_non_lattices(self):
        lat = fulton_config(7, 4).lattice()
        for a, b, bad in (("x", "y", "'x'"), (lat, None, "None")):
            with pytest.raises(DomainError) as exc:
                lattices_isomorphic_as_chains(a, b)
            assert str(exc.value) == f"lat must be an IntersectionLattice, got {bad}"

    def test_path_isomorphism_is_reversal_invariant(self):
        a = lattice_from_parts(["x", "y"], {("x", "y"): 1}, {"x": -2, "y": -3})
        b = lattice_from_parts(["u", "v"], {("u", "v"): 1}, {"u": -3, "v": -2})
        assert lattices_isomorphic_as_chains(a, b)

    def test_detects_mismatch(self):
        a = lattice_from_parts(["x", "y"], {("x", "y"): 1}, {"x": -2, "y": -3})
        c = lattice_from_parts(["u", "v"], {("u", "v"): 1}, {"u": -2, "v": -2})
        assert not lattices_isomorphic_as_chains(a, c)


@st.composite
def graph_lattices(draw):
    """A lattice whose graph is a path, or one of the near misses a path
    profile must refuse: a cycle, a star, a path with one edge of weight 2
    or -1, a path beside isolated classes or beside a cycle; or 0 or 1
    classes.  Labels are shuffled against the graph, so a path need not run
    in basis order; self-intersections and c1 labels are drawn freely."""
    kind = draw(st.sampled_from(["path", "cycle", "star", "weighted", "isolated",
                                 "path+cycle", "tiny"]))
    least = {"tiny": 0, "cycle": 3, "star": 4, "path+cycle": 5}.get(kind, 2)
    n = draw(st.integers(least, 1 if kind == "tiny" else 12))
    path = [(i, i + 1, 1) for i in range(n - 1)]
    if kind == "cycle":
        edges = path + [(n - 1, 0, 1)]
    elif kind == "star":
        edges = [(0, i, 1) for i in range(1, n)]
    elif kind == "weighted":
        i = draw(st.integers(0, n - 2))
        edges = path[:i] + [(i, i + 1, draw(st.sampled_from([2, -1])))] + path[i + 1:]
    elif kind == "isolated":
        edges = path[:draw(st.integers(0, n - 2))]
    elif kind == "path+cycle":
        cut = draw(st.integers(2, n - 3))  # classes 0..cut-1 a path, the rest a cycle
        edges = path[:cut - 1] + path[cut:] + [(n - 1, cut, 1)]
    else:
        edges = path
    where = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-4, 2))
    for i, j, v in edges:
        rows[where[i]][where[j]] = rows[where[j]][where[i]] = v
    c1 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return IntersectionLattice([f"v{i}" for i in range(n)], rows, c1)


@settings(max_examples=300, deadline=None)
@given(graph_lattices(), graph_lattices())
def test_path_profile_matches_the_accessor_oracle(a, b):
    want = stepwise.path_profile(a)
    assert hjtoric.blowup._path_profile(a) == want
    other = stepwise.path_profile(b)
    agree = want is not None and other is not None and (want == other or want == other[::-1])
    assert lattices_isomorphic_as_chains(a, b) == agree


class TestWeightedBlowdown:
    @pytest.mark.parametrize("p,q", [(2, 1), (7, 4), (1, 1), (11, 3)])
    def test_blowdown_to_empty(self, p, q):
        """A walk that leaves nothing returns the package's one empty lattice."""
        cfg = fulton_config(p, q)
        assert weighted_blowdown(cfg.lattice(), cfg) is empty_lattice()
        assert len(empty_lattice()) == 0

    def test_round_trip_over_base(self):
        """A walk that leaves classes returns a new lattice, the stepwise one."""
        base = lattice_from_parts(
            ["A", "B"], {("A", "B"): 2}, {"A": 3, "B": -5}
        )
        cfg = fulton_config(7, 4)
        total = base.direct_sum(cfg.lattice())
        down = weighted_blowdown(total, cfg)
        assert down == base == stepwise.weighted_blowdown(total, cfg)
        assert down is not empty_lattice() and down is not base
        assert down.to_json() == stepwise.weighted_blowdown(total, cfg).to_json()

    def test_shared_empty_lattice_stays_empty(self):
        """The empty lattice every emptied blowdown returns reads empty after a
        100-loop run, which returns it at each -1 crossing, and after
        ``direct_sum`` over it builds a new lattice."""
        data = [FixedPointDatum("0", 1, 7, 4), FixedPointDatum("1/2", -1, 7, 4)]
        empty = empty_lattice()
        assert run_loop(data, 100, 1000).verdict == "INCONCLUSIVE"
        cfg = fulton_config(7, 4)
        total = empty.direct_sum(cfg.lattice(), FOREIGN)
        assert total is not empty and total == cfg.lattice().direct_sum(FOREIGN)
        assert empty_lattice() is empty is weighted_blowdown(cfg.lattice(), cfg)
        assert (empty.classes, empty.pairing, empty.c1, len(empty)) == ((), (), (), 0)
        assert empty.to_json() == {"classes": [], "pairing": [], "c1": []}

    def test_corrupted_config_detected(self):
        cfg = fulton_config(7, 4)
        lat = cfg.lattice()
        # break the E~ self-intersection
        rows = [list(r) for r in lat.pairing]
        idx = lat.classes.index("E~")
        rows[idx][idx] = -2
        from hjtoric.homology import IntersectionLattice

        bad = IntersectionLattice(lat.classes, tuple(tuple(r) for r in rows), lat.c1)
        with pytest.raises(StructureError):
            weighted_blowdown(bad, cfg)

    def test_missing_class_detected(self):
        cfg = fulton_config(7, 4)
        lat = without(cfg.lattice(), ["Zp2"])
        with pytest.raises(DomainError):
            weighted_blowdown(lat, cfg)

    def test_error_paths_keep_their_types_and_messages(self):
        """A missing class is named first in ``class_labels`` order, E~ off
        -1 and a walk that stalls are StructureErrors, each with its own
        message; the lattice is read before the config."""
        cfg = fulton_config(7, 4)
        lat = cfg.lattice()
        deeper = replace(cfg, chain_p=Chain(
            tuple(s - 1 for s in cfg.chain_p.self_intersections), cfg.chain_p.labels))
        cases = [
            (without(lat, ["Zq1", "Zp2"]), cfg, DomainError, "no class labeled 'Zp2'"),
            (without(lat, ["Zq1", "E~"]), cfg, DomainError, "no class labeled 'E~'"),
            (without(lat, ["Zq1"]), cfg, DomainError, "no class labeled 'Zq1'"),
            (blow_up_at(lat, ["E~"], "x"), cfg, StructureError,
             "'E~' has self-intersection -2, not -1"),
            (deeper.lattice(), deeper, StructureError,
             "blowdown stalled: no remaining config class at -1 "
             "(remaining: ['Zp1', 'Zp2', 'Zp3', 'Zq1'])"),
            (None, None, DomainError, "lat must be an IntersectionLattice, got None"),
            (lat, None, DomainError, "config must be a BlowupConfig, got None"),
        ]
        for lattice, config, kind, message in cases:
            with pytest.raises(kind) as exc:
                weighted_blowdown(lattice, config)
            assert type(exc.value) is kind and str(exc.value) == message

    def test_a_config_naming_a_class_twice_is_refused(self):
        """A label shared by both chains, or by E~ and a chain, is a
        DomainError from ``class_labels``, so from ``weighted_blowdown``,
        ``lattice`` and the contact replay alike, with one message."""
        cfg = fulton_config(7, 4)
        lat = cfg.lattice()
        # E' on a chain class, on E~ and on no class: each branch of the replay
        with_eprime = [add_class(lat, "X", -1, row) for row in ({"Zp1": 1}, {"E~": 1}, {})]
        for bad in (replace(cfg, chain_q=replace(cfg.chain_q, labels=("Zp1",))),
                    replace(cfg, exceptional_label="Zq1")):
            calls = [lambda: bad.class_labels, bad.lattice, lambda: weighted_blowdown(lat, bad)]
            calls += [partial(chain_contact_replay, lat_e, "X", bad) for lat_e in with_eprime]
            for call in calls:
                with pytest.raises(DomainError) as exc:
                    call()
                assert str(exc.value) == "class labels must be distinct"

    def test_class_labels_are_kept_per_config(self):
        """``class_labels`` is built once per config, not per read, and is no
        field: a ``replace`` copy and an equal config build their own."""
        cfg = fulton_config(7, 4)
        labels = cfg.class_labels
        assert labels == ("E~", "Zp1", "Zp2", "Zp3", "Zq1") and cfg.class_labels is labels
        assert replace(cfg).class_labels is not labels and cfg == replace(cfg)
        assert "class_labels" not in repr(cfg) and hash(cfg) == hash(fulton_config(7, 4))


class TestCutChords:
    def test_endpoints_of_final_chord(self):
        for p, q in coprime_pairs(40):
            chords = cut_chords(q, p)
            label, a, b = chords[-1]
            assert label == (q, p)
            assert a == (Fraction(0), Fraction(q))
            assert b == (Fraction(p), Fraction(0))

    def test_chord_directions_match_labels(self):
        for label, a, b in cut_chords(4, 7):
            dx, dy = b[0] - a[0], b[1] - a[1]
            # chord direction is perpendicular to the label vector
            assert label[0] * dx + label[1] * dy == 0

    def test_sizes_are_multiplicities(self):
        # labels are primitive, so the chord vector is the multiplicity
        # times the perpendicular (label_y, -label_x)
        for p, q in coprime_pairs(40):
            seq = mcduff_sequence(q, p)
            for (label, a, b), m in zip(cut_chords(q, p), seq.multiplicities):
                assert (b[0] - a[0], b[1] - a[1]) == (m * label[1], -m * label[0])

    def test_seven_four_chords(self):
        assert [(a, b) for _, a, b in cut_chords(4, 7)] == [
            ((0, 4), (4, 0)), ((1, 3), (7, 0)), ((0, 4), (3, 2)),
            ((0, 4), (5, 1)), ((0, 4), (7, 0)),
        ]

    def test_chords_are_the_fraction_chords_in_ints(self):
        """The chords, ints, equal the same recursion run on Fraction levels."""
        for p, q in coprime_pairs(60):
            seq = mcduff_sequence(q, p)
            labels, levels, want = seq.cut_directions, [], []
            for label, m, (up, down) in zip(labels, seq.multiplicities, seq.flanks):
                (ux, uy), cu = ((1, 0), Fraction(0)) if up is None else (labels[up], levels[up])
                (dx, dy), cd = ((0, 1), Fraction(0)) if down is None else (labels[down], levels[down])
                vx, vy = cu * dy - cd * uy, ux * cd - dx * cu
                want.append((label, (vx - m * uy, vy + m * ux), (vx + m * dy, vy - m * dx)))
                levels.append(cu + cd + m)
            got = seq.chords()
            assert got == want, (p, q)
            assert {type(x) for _, a, b in got for x in (*a, *b)} == {int}, (p, q)


def test_replay_contracts_back_to_empty_in_reverse_cut_order():
    from hjtoric.homology import blow_down

    lat = mcduff_sequence(4, 7).lattice()
    for step in range(len(lat), 0, -1):
        label = f"e{step}"
        assert lat.self_intersection(label) == -1
        lat = blow_down(lat, label)
    assert len(lat) == 0


def test_thousand_class_replay_stays_fast():
    """A 1000-cut replay, its signature and its blowdown within 3 s in total.

    Each blowup and blowdown touches only its neighbours and copies the
    sparse store once, and the signature pivots leaf first, so the three
    take well under a second; a store that rebuilds or rescans an n x n
    matrix per step makes them cubic, about a minute.
    """
    t0 = time.process_time()
    assert cross_check(1000, 1)
    cfg = fulton_config(1000, 1)
    assert signature(cfg.lattice()) == (0, 1000, 0)
    assert len(weighted_blowdown(cfg.lattice(), cfg)) == 0
    assert time.process_time() - t0 < 3.0


# -- the single-store constructions against their step-by-step oracles ------

# classes outside every config: a -1 class with c1 = 1 and a class meeting it twice
FOREIGN = add_class(lattice_from_parts(["A"], {}, {"A": -1}), "B", 3, {"A": 2})


def with_neighbours(cfg):
    """The config's lattice with two outside classes that its blowdown
    pushes forward: X meets E~, Y meets the far end of chain_p twice."""
    lat = add_class(cfg.lattice(), "X", -3, {cfg.exceptional_label: 1})
    far = cfg.chain_p.labels[-1] if len(cfg.chain_p) else cfg.exceptional_label
    return add_class(lat, "Y", -2, {far: 2})


@pytest.mark.parametrize("p", range(1, 61))
def test_constructions_match_stepwise_oracles(p):
    for q in range(1, p + 1):
        if gcd(p, q) != 1 or p == q != 1:
            continue
        seq = mcduff_sequence(q, p)
        lat, ref = seq.lattice(), stepwise.mcduff_lattice(seq)
        assert lat == ref and lat.to_json() == ref.to_json(), (p, q)
        cfg = fulton_config(p, q)
        for lat in (cfg.lattice(), with_neighbours(cfg), FOREIGN.direct_sum(cfg.lattice()),
                    cfg.lattice().direct_sum(FOREIGN)):
            down, ref = weighted_blowdown(lat, cfg), stepwise.weighted_blowdown(lat, cfg)
            assert down == ref and down.to_json() == ref.to_json(), (p, q)


def key_orders(lat):
    """Each row's neighbours in key order, which ``to_json`` does not show."""
    return [list(lat.neighbours(label)) for label in lat.classes]


@pytest.mark.parametrize("p", range(1, 257))
def test_long_replays_match_the_stepwise_oracle(p):
    """The replays blowup-sweep times, q = 1, 2 (odd p) and p - 1 for every
    p <= 256: the one-pass build equals a ``blow_up_at`` per cut."""
    for q in {q for q in (1, 2, p - 1) if q == 1 or 1 < q < p and gcd(p, q) == 1}:
        seq = mcduff_sequence(q, p)
        lat, ref = seq.lattice(), stepwise.mcduff_lattice(seq)
        assert lat == ref and lat.to_json() == ref.to_json(), (p, q)
        assert key_orders(lat) == key_orders(ref), (p, q)


# hand-built flanks of the (7, 4) replay that are not a pair of None or
# distinct earlier cuts, with the cut the check names
BAD_FLANKS = {
    "later": (((None, None), (0, None), (0, 3), (2, 1), (3, 1)), 3),
    "repeated": (((None, None), (0, None), (1, 1), (2, 1), (3, 1)), 3),
    "own": (((None, None), (1, None), (0, 1), (2, 1), (3, 1)), 2),
    "own-down": (((None, None), (0, None), (0, 2), (2, 1), (3, 1)), 3),
    "negative": (((None, None), (-5, None), (0, 1), (2, 1), (3, 1)), 2),
    "past-end": (((None, None), (9, None), (0, 1), (2, 1), (3, 1)), 2),
    "str": (((None, None), ("0", None), (0, 1), (2, 1), (3, 1)), 2),
    "float": (((None, None), (0.0, None), (0, 1), (2, 1), (3, 1)), 2),
    "bool": (((None, None), (0, None), (True, 0), (2, 1), (3, 1)), 3),
    "one-entry": (((None, None), (0,), (0, 1), (2, 1), (3, 1)), 2),
    "three-entry": (((None, None), (0, None), (0, 1, None), (2, 1), (3, 1)), 3),
    "list": (((None, None), [0, None], (0, 1), (2, 1), (3, 1)), 2),
    "not-a-pair": (((None, None), 0, (0, 1), (2, 1), (3, 1)), 2),
}


@pytest.mark.parametrize("flanks, cut", BAD_FLANKS.values(), ids=BAD_FLANKS)
def test_hand_built_flanks_are_checked_when_built(flanks, cut):
    """A flank that is not a pair of None or distinct earlier cuts is a
    DomainError naming its cut, raised before any lattice is built."""
    with pytest.raises(DomainError) as info:
        replace(mcduff_sequence(4, 7), flanks=flanks)
    assert str(info.value) == (f"the flanks of cut {cut} must be a pair of None or "
                               f"distinct earlier cuts, got {flanks[cut - 1]!r}")


def test_flanks_that_part_no_edge_of_1_build_the_stepwise_lattice():
    """Cut 4 of these flanks lies between e1 and e3, which share no edge:
    they are parted to -1, as one ``blow_up_at`` per cut does."""
    seq = replace(mcduff_sequence(4, 7),
                  flanks=((None, None), (0, None), (1, None), (0, 2), (3, 1)))
    lat, ref = seq.lattice(), stepwise.mcduff_lattice(seq)
    assert lat == ref and key_orders(lat) == key_orders(ref)
    assert lat.to_json()["pairing"] == [[-3, 1, -1, 1, 0], [1, -3, 1, -1, 1], [-1, 1, -2, 1, 0],
                                        [1, -1, 1, -2, 1], [0, 1, 0, 1, -1]]


@st.composite
def valid_flanks(draw):
    """Up to 40 flanks, each a pair of None or distinct earlier cuts."""
    flanks = []
    for i in range(draw(st.integers(0, 40))):
        side = st.one_of(st.none(), st.integers(0, i - 1)) if i else st.none()
        up, down = draw(side), draw(side)
        flanks.append((up, None if down == up else down))
    return tuple(flanks)


@settings(max_examples=200, deadline=None)
@given(valid_flanks())
def test_any_valid_flanks_build_the_stepwise_lattice(flanks):
    """Flanks no replay makes, with edges above 1 and parted pairs at 0 or
    below: the one-pass build equals a ``blow_up_at`` per cut, keys in the
    same order."""
    n = len(flanks)
    seq = McDuffSequence(n + 1, 1, (1,) * n, ((1, 1),) * n, flanks)
    lat, ref = seq.lattice(), stepwise.mcduff_lattice(seq)
    assert lat == ref and lat.to_json() == ref.to_json()
    assert key_orders(lat) == key_orders(ref)


def altered(lat, label, self_shift=0, c1_shift=0):
    """``lat`` with one class's self-intersection and c1 shifted."""
    rows = [list(row) for row in lat.pairing]
    c1 = list(lat.c1)
    i = lat.classes.index(label)
    rows[i][i] += self_shift
    c1[i] += c1_shift
    return IntersectionLattice(lat.classes, rows, c1)


def without(lat, labels):
    """``lat`` with the classes ``labels`` dropped, read back by the dense
    constructor."""
    keep = [i for i, l in enumerate(lat.classes) if l not in labels]
    return IntersectionLattice([lat.classes[i] for i in keep],
                               [[lat.pairing[i][j] for j in keep] for i in keep],
                               [lat.c1[i] for i in keep])


def paired(lat, a, b, m):
    """``lat`` with the pairing of classes ``a`` and ``b`` set to ``m``."""
    rows = [list(row) for row in lat.pairing]
    i, j = lat.classes.index(a), lat.classes.index(b)
    rows[i][j] = rows[j][i] = m
    return IntersectionLattice(lat.classes, rows, lat.c1)


def swapped(lat, a, b):
    """``lat`` with the labels ``a`` and ``b`` exchanged."""
    classes = [b if l == a else a if l == b else l for l in lat.classes]
    return IntersectionLattice(classes, lat.pairing, lat.c1)


def renamings(cfg):
    """The config's own lattice, of as many classes as the config, with E~,
    or the first or last chain class, relabeled by a foreign label."""
    lat, labels = cfg.lattice(), cfg.chain_labels
    for label in dict.fromkeys([cfg.exceptional_label, *labels[:1], *labels[-1:]]):
        classes = ["W" if l == label else l for l in lat.classes]
        renamed = IntersectionLattice(classes, lat.pairing, lat.c1)
        assert len(renamed) == len(cfg.class_labels)
        yield renamed


def tampered(cfg):
    """(lattice, config) pairs that are not a config's own lattice.  The
    blowdown's path walk reads each one of as many classes as the config
    before any other check; the anomalies only it reads are a chain class
    off the adjunction rule by its c1, a path edge of weight 2 or missing,
    an edge that closes a cycle, two adjacent chain labels swapped, and the
    first class of each chain at -2 with c1 = 0, so that both are at -1
    after E~ (a tie); a class it reads may also be missing (``renamings``)."""
    lat = cfg.lattice()
    for renamed in renamings(cfg):
        yield renamed, cfg
    extra = Chain(cfg.chain_q.self_intersections + (-2,), cfg.chain_q.labels + ("Zx",))
    yield lat, BlowupConfig(cfg.p, cfg.q, cfg.size, cfg.chain_p, extra, cfg.exceptional_label)
    yield add_class(lat, "X", -1, {cfg.class_labels[-1]: 1}), cfg
    yield altered(lat, cfg.exceptional_label, self_shift=-1), cfg
    yield altered(lat, cfg.exceptional_label, c1_shift=1), cfg
    for label in cfg.chain_labels:
        yield altered(lat, label, self_shift=-1), cfg
    if cfg.chain_labels:
        yield without(lat, [cfg.chain_labels[-1]]), cfg
        yield add_class(lat, "Y", -2, {cfg.chain_labels[-1]: 1}), cfg
        yield altered(lat, cfg.chain_labels[-1], c1_shift=1), cfg
    path = (*reversed(cfg.chain_p.labels), cfg.exceptional_label, *cfg.chain_q.labels)
    for a, b in dict.fromkeys([path[:2], path[-2:]]) if len(path) > 1 else ():
        yield paired(lat, a, b, 2), cfg
        yield paired(lat, a, b, 0), cfg
    if cfg.chain_p and cfg.chain_q:
        yield paired(lat, path[0], path[-1], 1), cfg
        tie = lat
        for chain in (cfg.chain_p, cfg.chain_q):
            shift = -2 - chain.self_intersections[0]
            tie = altered(tie, chain.labels[0], shift, shift)
        yield tie, cfg
    for chain in (cfg.chain_p, cfg.chain_q):
        if len(chain) > 1:
            yield swapped(lat, *chain.labels[:2]), cfg


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (7, 4), (11, 3), (13, 8), (40, 1), (41, 29)])
def test_tampered_configs_fail_like_the_oracle(p, q):
    outcomes = set()
    for lat, cfg in tampered(fulton_config(p, q)):
        got = stepwise.outcome(weighted_blowdown, lat, cfg)
        assert got == stepwise.outcome(stepwise.weighted_blowdown, lat, cfg)
        outcomes.add(got[0] if isinstance(got, tuple) else "lattice")
    assert {DomainError, StructureError} <= outcomes


def stepwise_contractions(lat, labels):
    """(label, lattice) per ``blow_down`` in ``stepwise``'s order, which
    contracts the earliest of ``labels`` that is exceptional, rescanned at
    every step, until none is; the first pair is (None, ``lat``)."""
    steps, left = [(None, lat)], list(labels)
    while label := next((l for l in left if lat.is_exceptional(l)), None):
        lat = blow_down(lat, label)
        left.remove(label)
        steps.append((label, lat))
    return steps


def test_the_general_walk_yields_the_stepwise_contractions():
    """Stepped as a generator on (7, 4)'s lattice and on each tampered one
    that holds the config's classes, the walk yields E~ first exactly when
    E~ is exceptional, each class with the row of the classes it met, and
    after k steps leaves the lattice k ``blow_down``s leave; a walk
    abandoned there contracts nothing more."""
    cfg = fulton_config(7, 4)
    for lat, c in [(cfg.lattice(), cfg), *tampered(cfg)]:
        labels = c.class_labels
        if not set(labels) <= set(lat.classes):
            continue
        want = stepwise_contractions(lat, labels)
        got = list(_forced_contractions(lat._store(), labels))
        assert (got[:1] != [] and got[0][0] == "E~") == lat.is_exceptional("E~")
        assert got == [(l, dict(before.neighbours(l))) for (_, before), (l, _) in zip(want, want[1:])]
        for k, (_, after) in enumerate(want):
            store = lat._store()
            walk = _forced_contractions(store, labels)
            assert len(list(islice(walk, k))) == k
            assert IntersectionLattice._sparse(*store) == after
            walk.close()
            assert IntersectionLattice._sparse(*store) == after


def refuse_the_general_walk(monkeypatch):
    """Make the general walk behind ``weighted_blowdown``'s path walk raise."""
    def general_walk(*args):
        raise AssertionError("the blowdown fell back to the general walk")

    monkeypatch.setattr(hjtoric.blowup, "_forced_contractions", general_walk)


def test_every_config_blows_down_along_its_path(monkeypatch):
    """Each coprime config with p <= 256, the blowup-sweep benchmark's
    largest p, (1, 1) included, is emptied by the path walk on its own
    lattice, never by the general walk."""
    refuse_the_general_walk(monkeypatch)
    for p in range(1, 257):
        for q in config_weights(p):
            cfg = fulton_config(p, q)
            assert weighted_blowdown(cfg.lattice(), cfg) is empty_lattice(), (p, q)


def test_simulator_blowdowns_take_the_path_walk(monkeypatch):
    """A run over the circle-sim workload's seven weights, (55, 34) and
    (255, 1), blows each victim down by the path walk alone: every -1 level
    of five loops, one call each."""
    refuse_the_general_walk(monkeypatch)
    calls = []

    def counting(lat, config):
        calls.append((config.p, config.q))
        return weighted_blowdown(lat, config)

    monkeypatch.setattr(hjtoric.circle, "weighted_blowdown", counting)
    weights = [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3), (7, 4), (55, 34), (255, 1)]
    k = len(weights)
    data = [FixedPointDatum(Fraction(i, 2 * k) + Fraction(1, 2) * down, -1 if down else 1, p, q)
            for i, (p, q) in enumerate(weights) for down in (0, 1)]
    assert run_loop(data, 5, 1000).verdict == "INCONCLUSIVE"
    assert sorted(calls) == sorted(weights * 5)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (7, 4), (11, 3), (13, 8), (40, 1), (41, 29)])
def test_contact_replay_on_tampered_configs_matches_the_oracle(p, q):
    """E' on each class of a tampered config, or of one whose chain class
    sits at -1 beside E~ and stops being contractible when E~ goes."""
    cfg = fulton_config(p, q)
    cases = list(tampered(cfg))
    cases += [(altered(cfg.lattice(), label, 1, 1), cfg) for label in cfg.chain_labels]
    for lat, c in cases:
        for label in lat.classes:
            lat_e = add_class(lat, "E'", -1, {label: 1})
            want = stepwise.outcome(stepwise.chain_contact_replay, lat_e, "E'", c)
            assert stepwise.outcome(chain_contact_replay, lat_e, "E'", c) == want, (p, q, label)


def config_weights(p):
    return [q for q in range(1, p + 1) if gcd(p, q) == 1 and not p == q != 1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_matches_the_stepwise_oracles(data):
    """A config with p <= 60, its own lattice or a tampered one (E~ at -2
    or with c1 = 2, a chain class one lower, missing, or lifted to a second
    exceptional class, a foreign class on a chain class, and the anomalies
    only the path walk reads, listed in ``tampered``), alone or summed
    with foreign classes: the blowdown and the contact replay with E' on
    any class give the oracles' result, or raise the same error with the
    same message."""
    p = data.draw(st.integers(1, 60))
    cfg = fulton_config(p, data.draw(st.sampled_from(config_weights(p))))
    lifted = [(altered(cfg.lattice(), label, 1, 1), cfg) for label in cfg.chain_labels]
    lat, c = data.draw(st.sampled_from([(cfg.lattice(), cfg), *tampered(cfg), *lifted]))
    lat = data.draw(st.sampled_from([lat, FOREIGN.direct_sum(lat), lat.direct_sum(FOREIGN)]))
    assert (stepwise.outcome(weighted_blowdown, lat, c)
            == stepwise.outcome(stepwise.weighted_blowdown, lat, c))
    label = data.draw(st.sampled_from(lat.classes))
    lat_e = add_class(lat, "E'", -1, {label: data.draw(st.sampled_from([1, 2, -1]))})
    dense.assert_one_basis_order(lat_e)
    assert (stepwise.outcome(chain_contact_replay, lat_e, "E'", c)
            == stepwise.outcome(stepwise.chain_contact_replay, lat_e, "E'", c))


@pytest.mark.parametrize("p,q", [(7, 4), (11, 3), (13, 8)])
def test_a_repeated_config_label_walks_like_the_oracle(p, q):
    """A config that names chain classes twice is refused before any walk,
    by the package and by the oracle alike, with the same DomainError: on
    its lattice and with each named class lifted to -1."""
    cfg = fulton_config(p, q)
    twice = replace(cfg, chain_q=replace(cfg.chain_q, labels=cfg.chain_p.labels[:len(cfg.chain_q)]))
    refused = (DomainError, "class labels must be distinct")
    for lat in (cfg.lattice(), *(altered(cfg.lattice(), l, 1, 1) for l in cfg.chain_labels)):
        for blowdown in (weighted_blowdown, stepwise.weighted_blowdown):
            assert stepwise.outcome(blowdown, lat, twice) == refused


def snapshot(lat):
    """An independent copy of ``lat`` through its JSON."""
    return IntersectionLattice.from_json(lat.to_json())


@pytest.mark.parametrize("p,q", [(2, 1), (7, 4), (41, 29), (60, 1)])
def test_operations_leave_their_inputs_unchanged(p, q):
    cfg, seq = fulton_config(p, q), mcduff_sequence(q, p)
    replay = seq.lattice()
    lattices = [replay, cfg.lattice(), with_neighbours(cfg)]
    before = [snapshot(lat) for lat in lattices]
    up = blow_up_at(replay, replay.classes[-2:], "E")
    blow_down(up, "E")
    blow_down(replay, replay.classes[-1])
    for lat in lattices[1:]:
        weighted_blowdown(lat, cfg)
    seq.lattice()
    assert lattices == before
    assert up == blow_up_at(snapshot(replay), replay.classes[-2:], "E")
