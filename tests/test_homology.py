import json
import random
import time
from dataclasses import replace
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
import fraction_signature
import fresh
import row_walker
import stepwise
from hjtoric import homology
from hjtoric.blowup import fulton_config
from hjtoric.circle import FixedPointDatum, run_loop
from hjtoric.errors import DomainError
from hjtoric.homology import (
    IntersectionLattice,
    add_class,
    blow_down,
    blow_up_at,
    chain_contact_replay,
    empty_lattice,
    exceptional_pair_criterion,
    lattice_from_parts,
    signature,
)


def blow_up(lat: IntersectionLattice, label: str | None = None) -> IntersectionLattice:
    """Adjoin a fresh orthogonal (-1)-class with c1 = 1, labelled ``label``
    or the first free ``E1``, ``E2``, ...

    Orthogonality means the positive part of the form is untouched, so
    ``b_plus`` is unchanged.
    """
    if label is None:
        k = 1
        while f"E{k}" in lat.classes:
            k += 1
        label = f"E{k}"
    return blow_up_at(lat, (), label)


def exact_det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(n):
        piv = next((j for j in range(i, n) if m[j][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for j in range(i + 1, n):
            f = m[j][i] / m[i][i]
            for l in range(i, n):
                m[j][l] -= f * m[i][l]
    return det


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 5):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for l in range(n):
            m[i][l] += c * m[j][l]
    return m


def congruent(rows, u):
    n = len(rows)
    ut_m = [[sum(u[k][i] * rows[k][l] for k in range(n)) for l in range(n)]
            for i in range(n)]
    return [[sum(ut_m[i][k] * u[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


class TestSignature:
    def test_hyperbolic(self):
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_chain_two(self):
        assert signature([[-2, 1], [1, -2]]) == (0, 2, 0)

    def test_empty(self):
        assert signature([]) == (0, 0, 0)

    def test_zero_block(self):
        assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
        assert signature([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) == (1, 1, 1)

    def test_mixed(self):
        assert signature([[2, 0, 0], [0, -3, 0], [0, 0, 0]]) == (1, 1, 1)

    def test_unimodular_invariance(self):
        rng = random.Random(20240811)
        test_forms = [
            [[0, 1], [1, 0]],
            [[-2, 1], [1, -2]],
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[-3, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 0], [1, 0, 0, -1]],
        ]
        for form in test_forms:
            expected = signature(form)
            for _ in range(50):
                u = random_unimodular(rng, len(form))
                assert signature(congruent(form, u)) == expected


def test_the_empty_lattice_is_one_shared_value():
    """``empty_lattice()`` returns one object, which a blowdown to nothing
    and every caller share, so nothing built from it may change it: a
    ``direct_sum`` over it, a blowup of it and a blowdown back to nothing
    each leave it empty."""
    empty = empty_lattice()
    assert empty_lattice() is empty
    cfg = fulton_config(7, 4)
    total = empty.direct_sum(cfg.lattice())
    assert total is not empty and total == cfg.lattice()
    assert empty.direct_sum() == empty and empty.direct_sum() is not empty
    up = blow_up(empty)
    assert len(up) == 1 and blow_down(up, up.classes[0]) == empty
    assert (empty.classes, empty.pairing, empty.c1, len(empty)) == ((), (), (), 0)
    assert empty.to_json() == {"classes": [], "pairing": [], "c1": []}


class TestBlowUpDown:
    def test_blow_up_empty(self):
        lat = blow_up(empty_lattice())
        assert signature(lat) == (0, 1, 0)
        assert lat.c1 == (1,)

    def test_blow_up_twice(self):
        lat = blow_up(blow_up(empty_lattice()))
        assert [lat.pairing[i][i] for i in range(2)] == [-1, -1]
        assert signature(lat)[0] == 0

    def test_blow_up_keeps_b_plus(self):
        hyper = IntersectionLattice(("A", "B"), ((0, 1), (1, 0)), (2, 2))
        assert signature(blow_up(hyper))[0] == signature(hyper)[0] == 1

    def test_contract_orthogonal(self):
        lat = blow_up(blow_up(empty_lattice()))
        lat2 = blow_down(lat, lat.classes[0])
        assert len(lat2) == 1 and lat2.pairing[0][0] == -1

    def test_contract_chain_neighbor(self):
        lat = lattice_from_parts(["E", "Z"], {("E", "Z"): 1}, {"E": -1, "Z": -2})
        out = blow_down(lat, "E")
        assert out.self_intersection("Z") == -1
        assert out.c1_of("Z") == 1

    def test_contract_multiplicity_two(self):
        lat = lattice_from_parts(["E", "C"], {("E", "C"): 2}, {"E": -1, "C": -5})
        lat = IntersectionLattice(lat.classes, lat.pairing, (1, lat.c1[1]))
        out = blow_down(lat, "E")
        assert out.self_intersection("C") == -5 + 4
        assert out.c1_of("C") == lat.c1_of("C") + 2

    def test_pairing_pushforward(self):
        lat = lattice_from_parts(
            ["E", "A", "B"], {("E", "A"): 1, ("E", "B"): 1}, {"E": -1, "A": -2, "B": -2}
        )
        out = blow_down(lat, "E")
        assert out.pair("A", "B") == 1

    def test_blow_down_requires_minus_one(self):
        lat = lattice_from_parts(["Z"], {}, {"Z": -2})
        with pytest.raises(DomainError):
            blow_down(lat, "Z")

    def test_blow_down_requires_c1_one(self):
        lat = IntersectionLattice(["Z"], [[-1]], [0])
        with pytest.raises(DomainError, match="c1 = 1"):
            blow_down(lat, "Z")

    def test_blow_up_then_down_is_identity(self):
        base = lattice_from_parts(
            ["A", "B"], {("A", "B"): 1}, {"A": -2, "B": -3}
        )
        assert blow_down(blow_up(base, "E"), "E") == base

    def test_blow_up_at_inverse(self):
        base = lattice_from_parts(
            ["A", "B"], {("A", "B"): 1}, {"A": -2, "B": -3}
        )
        up = blow_up_at(base, ["A", "B"], "E")
        assert up.pair("A", "B") == 0
        assert up.self_intersection("A") == -3
        assert blow_down(up, "E") == base

    def test_orthogonal_contraction_keeps_determinant(self):
        base = lattice_from_parts(
            ["A", "B"], {("A", "B"): 1}, {"A": -2, "B": -3}
        )
        lat = blow_up(base, "E")
        assert abs(exact_det(lat.pairing)) == abs(exact_det(base.pairing))


@settings(max_examples=60)
@given(st.integers(0, 3), st.randoms(use_true_random=False))
def test_blow_up_never_changes_b_plus(n, rng):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            rows[i][j] = rows[j][i] = v
    lat = IntersectionLattice(
        tuple(f"C{i}" for i in range(n)),
        tuple(tuple(r) for r in rows),
        tuple(2 + rows[i][i] for i in range(n)),
    )
    assert signature(blow_up(lat))[0] == signature(lat)[0]


class TestCriteria:
    def two_exceptional(self, k):
        return lattice_from_parts(
            ["E1", "E2"], {("E1", "E2"): k}, {"E1": -1, "E2": -1}
        )

    def test_meeting_pair(self):
        assert exceptional_pair_criterion(self.two_exceptional(1), "E1", "E2")

    def test_disjoint_pair(self):
        assert not exceptional_pair_criterion(self.two_exceptional(0), "E1", "E2")

    def test_triple_meeting(self):
        lat = self.two_exceptional(3)
        assert exceptional_pair_criterion(lat, "E1", "E2")
        assert lat.c1_of("E1") + lat.c1_of("E2") == 2

    def test_requires_exceptional(self):
        lat = lattice_from_parts(["E1", "Z"], {}, {"E1": -1, "Z": -2})
        with pytest.raises(DomainError):
            exceptional_pair_criterion(lat, "E1", "Z")

    def test_contact_direct(self):
        cfg = fulton_config(7, 4)
        lat = add_class(cfg.lattice(), "E'", -1, {cfg.exceptional_label: 1})
        replay = chain_contact_replay(lat, "E'", cfg)
        assert replay.triggered and replay.via == cfg.exceptional_label
        assert replay.contractions == ()

    def test_contact_direct_reads_etilde(self):
        """E' meeting E~ with pairing -1: both self-intersections come from
        the lattice, and an E~ shifted to -2 is no exceptional class."""
        cfg = fulton_config(7, 4)
        etilde = cfg.exceptional_label
        lat = add_class(cfg.lattice(), "E'", -1, {etilde: -1})
        replay = chain_contact_replay(lat, "E'", cfg)
        assert replay.triggered and replay.via == etilde and replay.pair_product == -1
        assert replay.pair_self_intersections == (-1, -1) and replay.c1_sum == 2
        rows = [list(row) for row in cfg.lattice().pairing]
        i = cfg.lattice().classes.index(etilde)
        rows[i][i] = -2
        shifted = IntersectionLattice(cfg.lattice().classes, rows, cfg.lattice().c1)
        for k in (-1, 1):
            lat = add_class(shifted, "E'", -1, {etilde: k})
            with pytest.raises(DomainError, match=f"{etilde!r} is not an exceptional class"):
                chain_contact_replay(lat, "E'", cfg)
            assert stepwise.outcome(stepwise.chain_contact_replay, lat, "E'", cfg) == (
                DomainError, f"{etilde!r} is not an exceptional class")

    def test_contact_orthogonal_false(self):
        cfg = fulton_config(7, 4)
        lat = add_class(cfg.lattice(), "E'", -1, {})
        assert not chain_contact_replay(lat, "E'", cfg).triggered

    def test_contact_through_chain(self):
        cfg = fulton_config(7, 4)
        lat = add_class(cfg.lattice(), "E'", -1, {"Zp1": 1})
        replay = chain_contact_replay(lat, "E'", cfg)
        assert replay.triggered and replay.via == "Zp1"
        # one contraction (of E~) turns the -2 class Zp1 into a -1 class
        assert replay.contractions == (cfg.exceptional_label,)
        assert replay.pair_self_intersections == (-1, -1)
        assert replay.c1_sum == 2

    def test_contact_far_end_of_chain(self):
        cfg = fulton_config(7, 4)
        lat = add_class(cfg.lattice(), "E'", -1, {"Zp3": 1})
        replay = chain_contact_replay(lat, "E'", cfg)
        assert replay.triggered and replay.via == "Zp3"
        assert replay.pair_self_intersections == (-1, -1)
        assert replay.c1_sum == 2
        assert "Zp3" not in replay.contractions

    def test_replay_matches_stepwise_oracle(self):
        """E' on each class of the config of every coprime pair with
        p <= 40, and on none: the single-store replay and the one-blowdown-
        per-step replay agree in every field."""
        for p in range(1, 41):
            for q in range(1, p + 1):
                if gcd(p, q) != 1 or p == q != 1:
                    continue
                cfg = fulton_config(p, q)
                for touched in ((), *((label,) for label in cfg.class_labels)):
                    lat = add_class(cfg.lattice(), "E'", -1, dict.fromkeys(touched, 1))
                    got = chain_contact_replay(lat, "E'", cfg)
                    assert got == stepwise.chain_contact_replay(lat, "E'", cfg), (p, q, touched)
                    assert got.triggered == bool(touched)

    def test_replay_is_linear(self):
        """E' on the far end of chain_p of fulton_config(p, 1), which every
        other config class is contracted before; the replay that copies the
        lattice per contraction takes about 2 s at p = 3200."""
        cfg = fulton_config(3200, 1)
        far = cfg.chain_p.labels[-1]
        lat = add_class(cfg.lattice(), "E'", -1, {far: 1})
        t0 = time.process_time()
        replay = chain_contact_replay(lat, "E'", cfg)
        elapsed = time.process_time() - t0
        assert replay.via == far and len(replay.contractions) == len(cfg.class_labels) - 1
        assert elapsed < 0.5, f"{elapsed:.3f} s"

    def test_replay_rejects_repeated_config_labels(self):
        cfg = fulton_config(7, 4)
        lat = add_class(cfg.lattice(), "E'", -1, {"Zp1": 1})
        twice = replace(cfg, chain_q=replace(cfg.chain_q, labels=cfg.chain_p.labels[:1]))
        with pytest.raises(DomainError, match="distinct"):
            chain_contact_replay(lat, "E'", twice)
        with pytest.raises(DomainError, match="distinct"):
            twice.lattice()


# -- the sparse routines against the dense oracles in tests/dense.py ----------


@st.composite
def symmetric_forms(draw, max_n=9, wide=False):
    """Small symmetric integer forms: sparse or dense, sometimes with an
    all-zero diagonal, hyperbolic blocks, or classes that are sums of others
    (corank > 0), in shuffled basis order.  ``wide`` forms also draw entries
    up to 10^6 in size and may carry a zero-diagonal cycle, so no class is a
    leaf and the first pivot is 2x2 at a class of degree 2."""
    n = draw(st.integers(0, max_n))
    entry = st.sampled_from(draw(st.sampled_from([(0, 0, 0, 1), (0, 1, -1, 2, -2)])))
    diagonal = st.integers(-3, 3)
    if wide:
        entry = st.one_of(entry, st.integers(-10**6, 10**6))
        diagonal = st.one_of(diagonal, st.integers(-10**6, 10**6))
    zero_diag = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0 if zero_diag else draw(diagonal)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    for _ in range(draw(st.integers(0, 2))):
        k = len(rows)
        if wide and draw(st.booleans()):  # a cycle with a zero diagonal
            m = draw(st.integers(3, 5))
            for row in rows:
                row += [0] * m
            rows += [[0] * (k + m) for _ in range(m)]
            for i in range(m):
                x = draw(entry.filter(bool))
                a, b = k + i, k + (i + 1) % m
                rows[a][b] = rows[b][a] = x
        elif draw(st.booleans()):  # a hyperbolic block
            for row in rows:
                row += [0, 0]
            rows += [[0] * k + [0, 1], [0] * k + [1, 0]]
        elif k >= 2:  # basis_a + basis_b, a dependent class
            a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            new = [rows[a][l] + rows[b][l] for l in range(k)]
            for row, x in zip(rows, new):
                row.append(x)
            rows.append(new + [new[a] + new[b]])
    perm = draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in perm] for i in perm]


def as_lattice(rows, prefix="C"):
    n = len(rows)
    return IntersectionLattice(
        tuple(f"{prefix}{i}" for i in range(n)),
        tuple(tuple(r) for r in rows),
        tuple(2 + rows[i][i] for i in range(n)),
    )


@settings(max_examples=300, deadline=None)
@given(symmetric_forms())
def test_signature_matches_dense_oracle(rows):
    expected = dense.signature(rows)
    assert signature(rows) == expected
    assert signature(as_lattice(rows)) == expected
    assert sum(expected) == len(rows)


@settings(max_examples=300, deadline=None)
@given(symmetric_forms(max_n=8, wide=True))
def test_signature_matches_fraction_oracle(rows):
    """The int routine against the Fraction one it replaced and the dense
    one, on forms with cycles and dense blocks (fill-in, 2x2 pivots at a
    class that is no leaf) and entries up to 10^6 in size."""
    expected = dense.signature(rows)
    assert fraction_signature.signature(as_lattice(rows)) == expected
    assert signature(as_lattice(rows)) == expected
    assert signature(rows) == expected


@pytest.mark.parametrize("bad", [1.5, True, "1", None, 2j, Fraction(1, 2)], ids=repr)
def test_other_row_entries_raise(bad):
    """Rows are read by the lattice constructor, so a non-int entry, a
    Fraction included, gets its message."""
    with pytest.raises(DomainError, match=r"each pairing row must be a list of integers, got \[0, "):
        signature([[0, bad], [bad, -1]])
    with pytest.raises(DomainError, match=r"each pairing row must be a list of integers, got \["):
        signature([[bad, 0], [0, -1]])


def test_dense_form_entries_stay_small():
    """A seeded dense 60x60 form in [-5, 5], so every pivot fills in: each
    entry is kept in lowest terms, so the run stays well inside 5 s (the
    Fraction oracle takes about half a second, while scaling classes to
    clear denominators without reducing grows the entries exponentially)."""
    rng = random.Random(60)
    rows = [[0] * 60 for _ in range(60)]
    for i in range(60):
        for j in range(i, 60):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    t0 = time.process_time()
    got = signature(rows)
    elapsed = time.process_time() - t0
    assert got == fraction_signature.signature(rows) and sum(got) == 60
    assert elapsed < 5, f"{elapsed:.2f} s"


def test_lattice_signature_does_no_fraction_arithmetic():
    """``homology`` binds neither ``Fraction`` nor ``lcm``: its signature
    is integer work, for a lattice and for a list of rows alike."""
    lat = fulton_config(255, 1).lattice()
    assert not {"Fraction", "fractions", "lcm"} & vars(homology).keys()
    assert signature(lat) == fraction_signature.signature(lat)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)


def block_sum(*blocks):
    """The rows of the orthogonal sum of square blocks of rows."""
    n = sum(map(len, blocks))
    rows, k = [], 0
    for block in blocks:
        for row in block:
            rows.append([0] * k + list(row) + [0] * (n - k - len(row)))
        k += len(block)
    return rows


@st.composite
def plumbing_forests(draw):
    """Shuffled sums of plumbing blocks: chains, weighted-blowup configs,
    hyperbolic planes and zero classes.  Sometimes a cycle is joined to
    classes of the blocks, and zero-diagonal leaves hang on cycle classes;
    such a leaf is a hyperbolic pair with its cycle class, which breaks the
    cycle, so the core the heap gets is empty, a path or a cycle."""
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["chain", "config", "hyperbolic", "zero"]))
        if kind == "chain":
            diagonal = draw(st.lists(st.integers(-5, 2), min_size=1, max_size=6))
            weight = draw(st.sampled_from([1, 1, -1, 2]))
            blocks.append([[d if j == i else weight if abs(i - j) == 1 else 0
                            for j in range(len(diagonal))] for i, d in enumerate(diagonal)])
        elif kind == "config":
            p = draw(st.integers(2, 12))
            q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
            blocks.append(fulton_config(p, q).lattice().pairing)
        else:
            blocks.append([[0, 1], [1, 0]] if kind == "hyperbolic" else [[0]])
    rows = block_sum(*blocks)
    if draw(st.booleans()):
        k, m = len(rows), draw(st.integers(3, 5))
        cycle = [[0] * m for _ in range(m)]
        for i in range(m):
            cycle[i][i] = draw(st.integers(-3, 1))
            x = draw(st.sampled_from([1, -1, 2]))
            cycle[i][(i + 1) % m] = cycle[(i + 1) % m][i] = x
        rows = block_sum(rows, cycle)
        for i in range(k, k + m):  # join cycle classes to tree classes
            if k and draw(st.booleans()):
                j = draw(st.integers(0, k - 1))
                rows[i][j] = rows[j][i] = draw(st.sampled_from([1, -1]))
        for _ in range(draw(st.integers(0, 2))):  # zero leaves on the cycle
            i = draw(st.integers(k, k + m - 1))
            rows = block_sum(rows, [[0]])
            rows[i][-1] = rows[-1][i] = draw(st.sampled_from([1, -2]))
    perm = draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in perm] for i in perm]


@settings(max_examples=200, deadline=None)
@given(plumbing_forests())
def test_peel_to_core_handoff_matches_the_oracles(rows):
    """The leaf peel hands what it leaves, with its updated diagonals, to
    the heap elimination; both phases together agree with the dense and
    the Fraction oracles, on the lattice and on its rows."""
    expected = dense.signature(rows)
    assert fraction_signature.signature(rows) == expected
    assert signature(as_lattice(rows)) == expected
    assert signature(rows) == expected


def test_a_forest_never_reaches_the_heap(monkeypatch):
    """A forest is eliminated by the peel alone: each hands the heap an
    empty core, no class.  A cycle core goes on to the heap, and a zero
    leaf on a cycle class breaks the cycle."""
    heaps = []

    def counted(heap, _heapify=homology.heapify):
        heaps.append(len(heap))
        return _heapify(heap)

    monkeypatch.setattr(homology, "heapify", counted)
    forest = block_sum([[-2, 1, 0], [1, -3, 1], [0, 1, -2]], fulton_config(7, 4).lattice().pairing,
                       [[0, 1], [1, 0]], [[0]])
    assert signature(fulton_config(255, 1).lattice()) == (0, 255, 0)
    assert signature(as_lattice(forest)) == signature(forest) == (1, 9, 1)
    assert dense.signature(forest) == (1, 9, 1)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    broken = [[-2, 1, 1, 0, 0], [1, -2, 1, 0, 1], [1, 1, -2, 1, 0], [0, 0, 1, 0, 0],
              [0, 1, 0, 0, -2]]  # a triangle with a zero leaf and a tail
    assert signature(broken) == dense.signature(broken) == (1, 4, 0)
    assert heaps and not any(heaps)
    cycle = [[0, 1, 0, 0, 1], [1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1],
             [1, 0, 0, 1, -2]]
    assert signature(cycle) == (1, 4, 0)
    assert heaps[-1] == 5 and not any(heaps[:-1])


def cycle_with_tail(zero_at):
    """A 4-cycle of -2s with one zero diagonal, and a 2-class tail on class 0."""
    rows = block_sum([[-2 if j == i else 0 for j in range(4)] for i in range(4)],
                     [[-2, 1], [1, -2]])
    rows[zero_at][zero_at] = 0
    for i in range(4):
        rows[i][(i + 1) % 4] = rows[(i + 1) % 4][i] = 1
    rows[0][4] = rows[4][0] = 1
    return rows


def diamond(b):
    """A triangle 0, 1, 2 whose pivot at class 0 (diagonal 1) cancels the edge
    1-2, and class 3 meeting 1 and 2: the elimination leaves the path 1-3-2,
    two pendants, with class 1 at ``b - 1``."""
    return [[1, 1, 1, 0], [1, b, 1, 1], [1, 1, -2, 1], [0, 1, 1, -3]]


# a zero at class 1 is a 2x2 pivot that leaves no class of degree 1
@pytest.mark.parametrize("rows", [cycle_with_tail(k) for k in (0, 2, 3)]
                         + [diamond(b) for b in (-2, 1, 2)])
def test_a_class_of_degree_one_made_in_the_heap_phase(rows, monkeypatch):
    """The core the peel hands over has no class of degree 1, yet the heap
    elimination makes some (its last edge, or a pendant once a fill edge
    cancels); each is a pivot of the general loops, 1x1 on a nonzero
    diagonal and 2x2 on a zero one, and the counts match both oracles."""
    cores, pushed = [], []

    def counted_heapify(heap, _heapify=homology.heapify):
        cores.append(min(heap))
        return _heapify(heap)

    def counted_push(heap, item, _push=homology.heappush):
        pushed.append(item[0])
        return _push(heap, item)

    monkeypatch.setattr(homology, "heapify", counted_heapify)
    monkeypatch.setattr(homology, "heappush", counted_push)
    expected = dense.signature(rows)
    assert fraction_signature.signature(rows) == expected
    assert signature(rows) == signature(as_lattice(rows)) == expected
    assert cores and min(cores)[0] >= 2 and 1 in pushed


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), True], ids=["float", "fraction", "bool"])
def test_constructor_rejects_non_integers(bad):
    """A non-int pairing entry or c1 label is a DomainError up front, not a
    TypeError from ``signature`` later."""
    with pytest.raises(DomainError, match="each pairing row must be a list of integers"):
        IntersectionLattice(["A", "B"], [[bad, 1], [1, 0]], [0, 0])
    with pytest.raises(DomainError, match="c1 must be a list of integers"):
        IntersectionLattice(["A", "B"], [[0, 1], [1, 0]], [bad, 0])


class Zero(IntEnum):
    ZERO = 0


@pytest.mark.parametrize("zero", [False, 0.0, -0.0, Fraction(0), Decimal(0), Zero.ZERO],
                         ids=repr)
def test_zero_valued_non_integers_raise(zero):
    """A non-int that equals 0 is refused by its type, on either side of a
    pair, though the symmetry test compares only the nonzero entries."""
    for rows, bad in [([[-1, zero], [zero, -1]], [-1, zero]),
                      ([[-1, 0], [zero, -1]], [zero, -1]),
                      ([[zero, 1], [1, -1]], [zero, 1])]:
        message = f"each pairing row must be a list of integers, got {bad!r}"
        for read in (lambda: IntersectionLattice(["A", "B"], rows, [1, 1]),
                     lambda: signature(rows),
                     lambda: IntersectionLattice.from_json({"pairing": rows})):
            with pytest.raises(DomainError) as exc:
                read()
            assert str(exc.value) == message


@pytest.mark.parametrize("rows, at", [
    ([[-2, 0, 1], [0, -2, 0], [0, 0, -2]], (0, 2)),
    ([[-2, 0, 0], [0, -2, 0], [1, 0, -2]], (0, 2)),
    ([[-2, 1, 0], [1, -2, 3], [0, 2, -2]], (1, 2)),
    ([[-2, 0, 0], [0, -2, 0], [0, 5, -2]], (1, 2)),
])
def test_one_sided_asymmetry_is_named_at_its_first_pair(rows, at):
    """An asymmetric pair with a zero side is seen from its nonzero side,
    and the error names the first such pair in row-major order."""
    with pytest.raises(DomainError) as exc:
        signature(rows)
    assert str(exc.value) == f"pairing not symmetric at {at}"


def test_lattice_keeps_no_reference_to_the_input_rows():
    rows = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    c1 = [0, 0, 0]
    seen = IntersectionLattice(["A", "B", "C"], rows, c1)
    assert seen.pairing == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
    lats = [seen, IntersectionLattice(["A", "B", "C"], rows, c1),
            IntersectionLattice.from_json({"pairing": rows, "c1": c1})]
    rows[0][0] = 5
    rows[0][1] = rows[1][0] = 0
    rows[2].append(7)
    rows.append([1, 1, 1])
    c1[0] = 9
    for lat in lats:
        assert lat.pairing == ((-2, 1, 0), (1, -2, 1), (0, 1, -2)) and lat.c1 == (0, 0, 0)
        assert signature(lat) == (0, 3, 0)


NOT_INTS = [0.0, -0.0, False, True, Fraction(0), None, "0"]
NOT_ROWS = [lambda row: None, lambda row: 0, str, set, dict.fromkeys, iter]


@st.composite
def mutated_forms(draw):
    """``(classes, rows, c1)`` from a drawn symmetric form, lists or tuples,
    with up to two mutations: one entry set to another int or 0 on one side
    only, a row made ragged, an entry swapped for a non-int (zero-valued
    ones included), a row made a non-list, or c1 given a non-int or a
    wrong length.  Two mutations make the order of the checks show."""
    rows = draw(symmetric_forms(max_n=6))
    n = len(rows)
    c1 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        kind = draw(st.sampled_from(["asymmetric", "ragged", "entry", "row", "c1"]))
        i, j = draw(index), draw(index)
        entry = isinstance(rows[i], list) and j < len(rows[i])
        if kind == "asymmetric" and entry:
            rows[i][j] = draw(st.sampled_from([0, 0, 1, -1, 3]))
        elif kind == "ragged" and isinstance(rows[i], list):
            if rows[i] and draw(st.booleans()):
                rows[i].pop()
            else:
                rows[i].append(draw(st.integers(-1, 1)))
        elif kind == "entry" and entry:
            rows[i][j] = draw(st.sampled_from(NOT_INTS))
        elif kind == "row" and isinstance(rows[i], list):
            rows[i] = draw(st.sampled_from(NOT_ROWS))(rows[i])
        elif kind == "c1":
            if draw(st.booleans()):
                c1[i] = draw(st.sampled_from(NOT_INTS))
            else:
                c1.append(0)
    if draw(st.booleans()):
        rows = tuple(tuple(row) if isinstance(row, list) else row for row in rows)
    return tuple(f"C{i}" for i in range(n)), rows, c1


@settings(max_examples=400, deadline=None)
@given(mutated_forms())
def test_constructor_matches_the_dense_read_oracle(form):
    """The nonzero scan reads every input as the tuple copy and transpose
    test it replaced: equal lattices and views, or the same DomainError."""
    classes, rows, c1 = form
    try:
        lat, pairing, c1_view = dense.read_rows(classes, rows, c1)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            IntersectionLattice(classes, rows, c1)
        assert str(got.value) == str(exc)
        return
    got = IntersectionLattice(classes, rows, c1)
    assert got == lat and got.classes == lat.classes
    assert got.pairing == pairing and got.c1 == c1_view


JSON_ZEROS = ["0.0", "-0.0", "0e0", "false"]
JSON_NON_INTS = ["true", "null", '"0"', "[]", "{}", "1.5"]


@st.composite
def mutated_texts(draw):
    """Lattice JSON text over a drawn symmetric form, with up to two
    mutations in JSON terms: an entry made a zero-valued non-int or another
    non-int, an int set on one side of the diagonal only, or a row made
    ragged.  Sometimes a class label holds ``false`` or an ignored key holds
    a float: text outside the pairing must not change how its entries read."""
    rows = draw(symmetric_forms(max_n=6))
    n = len(rows)
    tokens = [[str(x) for x in row] for row in rows]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        kind = draw(st.sampled_from(["zero", "non-int", "asymmetric", "ragged"]))
        i, j = draw(index), draw(index)
        if kind == "ragged":
            if tokens[i] and draw(st.booleans()):
                tokens[i].pop()
            else:
                tokens[i].append(draw(st.sampled_from(["0", "1"])))
        elif j < len(tokens[i]):
            choices = {"zero": JSON_ZEROS, "non-int": JSON_NON_INTS,
                       "asymmetric": ["0", "1", "-1", "3"]}
            tokens[i][j] = draw(st.sampled_from(choices[kind]))
    fields = ['"pairing": [' + ", ".join(f"[{', '.join(row)}]" for row in tokens) + "]"]
    if draw(st.booleans()):
        labels = [f"C{i}" for i in range(n)]
        if n and draw(st.booleans()):
            labels[draw(index)] = draw(st.sampled_from(["false", "is false"]))
        fields.append('"classes": ' + json.dumps(labels))
    if draw(st.booleans()):
        c1 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        fields.append('"c1": ' + json.dumps(c1))
    if draw(st.booleans()):
        fields.append('"note": 0.5')
    return "{" + ", ".join(draw(st.permutations(fields))) + "}"


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_text_read_matches_the_dense_read_oracle(text):
    """``from_json`` on text, by the sparse read or by ``json.loads`` and
    the constructor's type pass and nonzero scan, reads as the dense oracle
    reads the decoded object: equal lattices and views, or the same
    DomainError."""
    obj = json.loads(text)
    n = len(obj["pairing"])
    classes = obj.get("classes", [f"C{i + 1}" for i in range(n)])
    c1 = obj.get("c1", [0] * n)
    try:
        lat, pairing, c1_view = dense.read_rows(classes, obj["pairing"], c1)
        if "c1" not in obj:  # the adjunction default
            lat, pairing, c1_view = dense.read_rows(
                classes, obj["pairing"], [2 + pairing[i][i] for i in range(n)])
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            IntersectionLattice.from_json(text)
        assert str(got.value) == str(exc)
        return
    got = IntersectionLattice.from_json(text)
    assert got == lat and got.classes == lat.classes
    assert got.pairing == pairing and got.c1 == c1_view


def from_json_oracle(text):
    """What ``from_json(text)`` gave before the sparse text read:
    ``json.loads``, then the dense oracle read of the decoded object.
    Returns ``(lattice, pairing view, c1 view)``, or the DomainError message."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"malformed JSON input: {exc}"
    if not isinstance(obj, dict) or not isinstance(obj.get("pairing"), list):
        return 'a lattice is an object with a "pairing" matrix'
    rows = obj["pairing"]
    n = len(rows)
    classes = [f"C{i + 1}" for i in range(n)] if obj.get("classes") is None else obj["classes"]
    try:
        lat, pairing, c1 = dense.read_rows(classes, rows, [0] * n if obj.get("c1") is None
                                           else obj["c1"])
        if obj.get("c1") is None:  # the adjunction default
            lat, pairing, c1 = dense.read_rows(classes, rows, [2 + pairing[i][i] for i in range(n)])
    except DomainError as exc:
        return str(exc)
    return lat, pairing, c1


def assert_reads_like_the_oracle(text):
    """Equal lattices, views and neighbour orders, or the same DomainError."""
    want = from_json_oracle(text)
    if isinstance(want, str):
        with pytest.raises(DomainError) as got:
            IntersectionLattice.from_json(text)
        assert str(got.value) == want
        return
    lat, pairing, c1 = want
    got = IntersectionLattice.from_json(text)
    dense.assert_one_basis_order(got)
    assert got == lat and got.classes == lat.classes and type(got.classes) is tuple
    assert got.pairing == pairing and got.c1 == c1 and type(got.c1) is tuple
    assert [list(got.neighbours(l)) for l in got.classes] == [
        list(lat.neighbours(l)) for l in lat.classes]  # column order


SPACINGS = {  # item and key separators, the brackets of a list
    "compact": (",", ":", "[", "]"), "spaced": (", ", ": ", "[", "]"),
    "indent=2": (",\n    ", ": ", "[\n    ", "\n  ]"), "newlines": (",\n", ":", "[", "]")}
TOKENS = ["-0", "00", "000", "0000", "", "01", "-01", "+1", "1e0", "1.0", "1_0", " 1", "\u0661",
          "9" * 4301]


@st.composite
def dumped_texts(draw):
    """Lattice JSON text over a drawn symmetric form, written as ``json.dumps``
    writes it (items split by "," or ", "), indented, or with other newlines,
    which the sparse read leaves to the old one, with up to two text-level
    changes: a pairing token that ``json.loads`` reads otherwise than the
    sparse read would (``-0``, ``01``, a 4301-digit int, ...), one item of
    a row split by the other separator, a second ``"pairing"`` key, data
    after the object or a BOM before it, an empty or ``NaN`` pairing or one
    row nested one level deeper, or a ``NaN`` pairing beside another field
    holding the drawn list of lists.  A label may hold ``]]``, ``"pairing":``,
    ``[[0]]`` or ``NaN``, or repeat another, ``classes`` and ``c1`` may be
    null or ``Infinity``, and one more field may hold ``NaN``, ``Infinity``
    or a list of lists.
    A ``wide`` form writes tokens with inner and trailing zeros (``-100``)."""
    rows = draw(symmetric_forms(max_n=6, wide=draw(st.booleans())))
    n = len(rows)
    item, key, opening, closing = SPACINGS[draw(st.sampled_from(sorted(SPACINGS)))]

    def dump(items):
        return opening + item.join(items) + closing

    tokens = [[str(x) for x in row] for row in rows]
    kinds = ["token", "respace", "twice", "trail", "lead", "shape", "cut"]
    changes = [draw(st.sampled_from(kinds)) for _ in range(draw(st.integers(0, 2)))]
    if "token" in changes and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        tokens[i][j] = draw(st.sampled_from(TOKENS))
    lists = [dump(row) for row in tokens]
    if "respace" in changes and n > 1:  # one item of a row split the other way
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        other = "," if item == ", " else ", "
        lists[i] = dump([item.join(tokens[i][:j]) + other + item.join(tokens[i][j:])])
    if "shape" in changes and n:
        i = draw(st.integers(0, n - 1))
        lists[i] = dump([lists[i]])
    pairing = dump(lists)
    if "shape" in changes and draw(st.booleans()):
        pairing = draw(st.sampled_from(["[]", "[[]]", "NaN"]))
    fields = [f'"pairing"{key}{pairing}']
    if "cut" in changes:  # the drawn pairing under another key, a NaN in its place
        fields = [f'"pairing"{key}NaN', f'"x"{key}{pairing}']
    if "twice" in changes:
        fields.append(f'"pairing"{key}' + dump(map(dump, ([str(x) for x in row] for row in
                                                           draw(symmetric_forms(max_n=3))))))
    if draw(st.booleans()):
        labels = [f"C{i}" for i in range(n)]
        if n and draw(st.booleans()):
            labels[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from(['a]]', '"pairing":', "C0", "[[0]]", "NaN"]))
        fields.append(f'"classes"{key}' + draw(st.sampled_from([json.dumps(labels), "null",
                                                                  "Infinity"])))
    if draw(st.booleans()):
        c1 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        fields.append(f'"c1"{key}' + draw(st.sampled_from([json.dumps(c1), "null", "Infinity"])))
    if draw(st.booleans()):  # a NaN or Infinity beside the cut's NaN, or a [[ before the pairing
        fields.append(draw(st.sampled_from(['"note": NaN', '"note": Infinity', '"x": [[0]]'])))
    head = draw(st.sampled_from(["\ufeff", " ", "\n"])) if "lead" in changes else ""
    tail = draw(st.sampled_from([" ", "\n", " x", "}", ",", "{}", "[]"])) if "trail" in changes \
        else ""
    return head + "{" + item.join(draw(st.permutations(fields))) + "}" + tail


@settings(max_examples=600, deadline=None)
@given(dumped_texts())
def test_dumped_text_reads_like_the_dense_read_oracle(text):
    """The sparse read of text ``json.dumps`` writes, and the old read it
    hands every other text to, read as ``json.loads`` and the dense oracle
    do: equal lattices and views, or the same DomainError."""
    assert_reads_like_the_oracle(text)


@pytest.mark.parametrize("text", [
    '{"pairing": [[-2,-0],[0,-2]]}', '{"pairing": [[-2,-0],[-0,-2]]}',
    '{"pairing": [[-2,-01],[-01,-2]]}', '{"pairing": [[1,0],[0,1]]} x', '\ufeff{"pairing": [[1]]}',
    '{"pairing": []}', '{"pairing": [[]]}', '{"pairing": [[[-2],0],[0,-2]]}',
    '{"pairing": [[1,2],[2,1]], "pairing": [[5]]}', '{"pairing": [[0, 1], [1, 0]],"c1": null}',
    '{"classes": ["]]", "\\"pairing\\":"], "pairing": [[-1,1],[1,-1]]}',
    '{"pairing": [[1, 0],[0, 1]]}', '{"pairing": [[1,0], [0,1]]}', '{"pairing": [[1 ,0],[0,1]]}',
    '{"pairing": [[1,0,],[0,1]]}', '{"pairing": [[1,,0],[0,1]]}', '{"pairing": [[0,1],[2,0]]}',
    '{"pairing": [[1,0],[0,1],]}', '{"pairing": [[1,0],[0,1]], }',
    '{"pairing": [[1]], "c1": [1.0]}',
    '{"pairing": [[\u0661]]}', '{"pairing": [[1]], "classes": [["a"]]}',
    '{"pairing": [[00,,1],[0,0,0],[1,0,0]]}', '{"pairing": [[0, 1], [1,-2]]}',
    '{"pairing": {"1]]}', '{"pairing": [ [1]]}', '{"pairing": [[1],[1] ]}',
    '{"pairing"x[[1]]}', '{xpairing": [[1]]}', '{"pairing": [[1]]]', '{"pairing": [[1]],}',
    pytest.param('{"note": ' + "[" * 100000 + ', "pairing": [[1]]}', id="deep"),
    '{"pairing": [[-10,1],[1,-100]]}', '{"pairing": [[100]]}', '{"pairing": [[0]]}',
    '{"pairing": [[0,-1000000],[-1000000,0]]}', '{"pairing": [[0, 0, 0], [0, 0, 0], [0, 0, 20]]}',
    '{"pairing": [[0,0],[0,10]], "c1": [1, 2]}', '{"pairing": [[1,10],[10,-1]], "c1": [1, 20]}',
    '{"a": "[[0]]", "pairing": NaN}', '{"x": [[0]], "pairing": NaN}',
    '{"x": "[[0]]", "pairing": Infinity}', '{"pairing": [[1]], "c1": Infinity}',
    '{"classes": Infinity, "pairing": [[1]]}', '{"pairing": [[1]], "note": NaN}',
    '{"classes": ["[[", "b"], "pairing": [[-1,1],[1,-1]]}', '{"pairing": 5, "pairing": [[1]]}',
    '{"a": {"pairing": [[1]]}, "pairing": [[2]]}', '{"pair\\u0069ng": [[1]]}',
])
def test_hand_picked_texts_read_like_the_dense_read_oracle(text):
    assert_reads_like_the_oracle(text)


ENTRIES = [1, -1, 2, -2, 10, -10, 100, -100, 1000, -1000000, 10**20 + 1]


@st.composite
def pairing_texts(draw):
    """The text of an n x n pairing, n up to 40, as ``json.dumps`` writes it
    with either item separator and something after it.  A drawn share of
    its cells, from none to all (past the density guard), holds entries,
    often with inner and trailing zeros, symmetric or not.  Up to two
    changes follow: a cell set to a ``TOKENS`` string, one item split by
    the other separator, or a row made one item shorter or longer."""
    n = draw(st.integers(1, 40))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # the cells, drawn at once
    share = draw(st.sampled_from([0, 0.01, 0.03, 0.1, 1]))
    entries = draw(st.sampled_from([ENTRIES, ENTRIES[:4]]))
    rows = [[rnd.choice(entries) if rnd.random() < share else 0 for _ in range(n)]
            for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    item = draw(st.sampled_from([",", ", "]))
    tokens = [[str(x) for x in row] for row in rows]
    for change in draw(st.lists(st.sampled_from(["token", "respace", "ragged"]), max_size=2)):
        i = draw(st.integers(0, n - 1))
        if not tokens[i]:
            continue
        j = draw(st.integers(0, len(tokens[i]) - 1))
        if change == "token":
            tokens[i][j] = draw(st.sampled_from(TOKENS))
        elif change == "respace" and j:
            other = "," if item == ", " else ", "
            tokens[i][j - 1:j + 1] = [tokens[i][j - 1] + other + tokens[i][j]]
        elif change == "ragged":
            tokens[i][j:j + 1] = draw(st.sampled_from([[], ["0", "0"], ["1", "0"]]))
    pairing = "[" + item.join("[" + item.join(row) + "]" for row in tokens) + "]"
    return pairing + draw(st.sampled_from(["", "}", ', "c1": null}', "]]", " [[1]]"]))


@settings(max_examples=500, deadline=None)
@given(pairing_texts())
def test_the_split_read_matches_the_row_walker_cell_by_cell(text):
    """The one split of a pairing and the per-row walker it replaced read
    the same cells, in row-major order, and the same end, or both refuse.
    The walker's density guard counted "0" characters, fewer than the
    nonzeros when a token holds a zero; the read counts tokens, so that
    guard is applied to what the walker read."""
    try:
        rows, end = row_walker.text_rows(text, 0)
        want = (len(rows), [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()], end)
        if 20 * len(want[1]) > want[0] ** 2 + 4096:
            want = None
    except ValueError:
        want = None
    try:
        (n, cells), end = homology._text_cells(text, 0)
        got = (n, cells, end)
    except ValueError:
        got = None
    assert got == want


def test_dumped_lattices_take_the_sparse_read(monkeypatch):
    """Every config lattice with p < 60 and a run's final lattice, written
    by ``json.dumps`` with either item separator, read back with the
    constructor made to raise: the sparse read alone reads them.  Indented
    text takes the constructor's dense read, and reads the same."""
    pairs = [("0", "1/2", 7, 4), ("1/8", "5/8", 3, 2), ("1/4", "3/4", 55, 34)]
    data = [FixedPointDatum(l, s, p, q)
            for up, down, p, q in pairs for l, s in ((up, 1), (down, -1))]
    lattices = [run_loop(data, 6, 5).final_lattice, fulton_config(1, 1).lattice()]
    lattices += [fulton_config(p, q).lattice() for p in range(2, 60) for q in range(1, p)
                 if gcd(p, q) == 1]
    assert len(lattices[0]) == 22

    def dense_read(*args):
        raise AssertionError("the dense read ran")

    with monkeypatch.context() as patch:
        patch.setattr(IntersectionLattice, "__init__", dense_read)
        for lat in lattices:
            for separators in ((",", ":"), (", ", ": ")):
                text = json.dumps(lat.to_json(), separators=separators)
                got = IntersectionLattice.from_json(text)
                assert got == lat and got.classes == lat.classes and got.c1 == lat.c1
        with pytest.raises(AssertionError, match="the dense read ran"):
            IntersectionLattice.from_json(json.dumps(lattices[0].to_json(), indent=2))
    for lat in lattices:
        assert IntersectionLattice.from_json(json.dumps(lat.to_json(), indent=2)) == lat


def test_a_dense_pairing_is_left_to_json_loads():
    """A pairing with more nonzero tokens than about 5% of its cells is read
    faster by ``json.loads``, so the sparse read counts the tokens of its
    one split, before any per-token work, and leaves such a pairing to the
    old read; a plumbing graph of any size is sparse enough.  A band of 10s
    is counted by its tokens, not by the "0" characters they hold."""
    dense_rows = [[1] * 40 for _ in range(40)]
    chain = [[-2 if i == j else int(abs(i - j) == 1) for j in range(400)] for i in range(400)]

    def band(w):  # 10 within w of the diagonal: 268 tokens at w = 3, 340 at w = 4
        return [[10 * (abs(i - j) <= w) for j in range(40)] for i in range(40)]

    for rows, sparse in ((dense_rows, False), (chain, True), (band(3), True), (band(4), False)):
        text = json.dumps({"pairing": rows}, separators=(",", ":"))
        assert (homology._read_text(text) is not None) is sparse
        assert IntersectionLattice.from_json(text) == IntersectionLattice(
            [f"C{i + 1}" for i in range(len(rows))], rows, [2 + row[i] for i, row in enumerate(rows)])


def test_there_is_one_dense_read(monkeypatch):
    """The constructor is the one dense read: the constructor itself,
    ``signature`` of rows, ``from_json`` of an object and of each text the
    sparse read refuses (indented, too dense, a float in the pairing, a
    ``[[`` label before it, a ``NaN`` beside it) run it exactly once, and a
    dumped config lattice never runs it."""
    calls = []
    init = IntersectionLattice.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(IntersectionLattice, "__init__", counted)
    rows = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    dense_rows = [[1] * 40 for _ in range(40)]  # past the sparse read's density guard

    def dumped(classes):
        return json.dumps({"classes": classes, "pairing": rows})

    reads = {
        "constructor": lambda: IntersectionLattice(["a", "b", "c"], rows, [0, 0, 0]),
        "signature(rows)": lambda: signature(rows),
        "from_json(dict)": lambda: IntersectionLattice.from_json({"pairing": rows}),
        "indented text": lambda: IntersectionLattice.from_json(
            json.dumps({"pairing": rows}, indent=2)),
        "dense compact text": lambda: IntersectionLattice.from_json(
            json.dumps({"pairing": dense_rows}, separators=(",", ":"))),
        "a [[ label": lambda: IntersectionLattice.from_json(dumped(["[[", "b", "c"])),
        "a NaN field": lambda: IntersectionLattice.from_json(dumped(["a", "b", "c"])[:-1]
                                                             + ', "note": NaN}'),
    }
    for name, read in reads.items():
        calls.clear()
        read()
        assert len(calls) == 1, name
    calls.clear()
    with pytest.raises(DomainError, match=r"got \[-2, 1.5\]"):
        IntersectionLattice.from_json('{"pairing":[[-2,1.5],[1.5,-2]]}')
    assert len(calls) == 1
    calls.clear()
    lat = fulton_config(7, 4).lattice()
    assert IntersectionLattice.from_json(json.dumps(lat.to_json())) == lat
    assert calls == []


def test_each_slot_of_a_built_lattice_is_written_once(monkeypatch):
    """No read writes a lattice after the constructor or ``_sparse`` has
    built it: c1 by adjunction is filled in as the store becomes a lattice.
    The lazy ``pairing`` cache is left aside."""
    writes, kept = {}, []  # kept: no lattice is freed, so no id is reused

    def counted(self, name, value):
        if name != "_pairing" or value is None:
            kept.append(self)
            writes[id(self), name] = writes.get((id(self), name), 0) + 1
        object.__setattr__(self, name, value)

    monkeypatch.setattr(IntersectionLattice, "__setattr__", counted)
    rows = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    reads = {
        "object with c1": lambda: IntersectionLattice.from_json({"pairing": rows, "c1": [0] * 3}),
        "object without c1": lambda: IntersectionLattice.from_json({"pairing": rows}),
        "compact text": lambda: IntersectionLattice.from_json(
            json.dumps({"pairing": rows}, separators=(",", ":"))),
        "indented text": lambda: IntersectionLattice.from_json(
            json.dumps({"pairing": rows}, indent=2)),
        "lattice_from_parts": lambda: lattice_from_parts(
            ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, {"a": -2, "b": -2, "c": -2}),
        "fulton_config(7, 4).lattice()": lambda: fulton_config(7, 4).lattice(),
    }
    for name, read in reads.items():
        writes.clear()
        lat = read()
        assert writes and set(writes.values()) == {1}, (name, writes)
        assert lat.c1 == tuple(0 if name == "object with c1" else 2 + s
                               for s in map(lat.self_intersection, lat.classes)), name


READS = {
    "constructor": lambda rows: IntersectionLattice([f"C{i}" for i in range(len(rows))], rows,
                                                    [0] * len(rows)),
    "from_json(dict)": lambda rows: IntersectionLattice.from_json({"pairing": rows}),
    "from_json(str)": lambda rows: IntersectionLattice.from_json(json.dumps({"pairing": rows})),
    "signature(rows)": signature,
}


@pytest.mark.parametrize("read", READS.values(), ids=READS)
def test_each_read_finds_one_sided_nonzeros_and_zero_valued_non_ints(read):
    """A nonzero on one side of the diagonal only is found on either side,
    and a zero-valued non-int, which ``row.count(0)`` would count as a
    zero, meets the constructor's type pass first, on every read."""
    lower = [[-2, 0, 0], [0, -2, 0], [1, 0, -2]]
    for rows in (lower, [list(row) for row in zip(*lower)]):
        with pytest.raises(DomainError) as exc:
            read(rows)
        assert str(exc.value) == "pairing not symmetric at (0, 2)"
    for zero in (0.0, -0.0, False):
        for rows, bad in [([[-1, zero], [zero, -1]], [-1, zero]),
                          ([[-1, 0], [zero, -1]], [zero, -1])]:
            with pytest.raises(DomainError) as exc:
                read(rows)
            assert str(exc.value) == f"each pairing row must be a list of integers, got {bad!r}"


class LoggedRow(list):
    """A list whose own iterator is a generator, not the list's."""

    def __iter__(self):
        yield from list.__iter__(self)


def test_rows_whose_own_iterator_cannot_seek_read_like_lists():
    """A list or tuple subclass with its own ``__iter__`` is read by the
    constructor's type pass and nonzero scan as a plain row: it reads, and
    fails, like one."""
    rows = [[-2, 1, 0], [1, 0, 1], [0, 1, -2]]
    plain = IntersectionLattice(["a", "b", "c"], rows, [0, 0, 0])
    for wrap in (LoggedRow, tuple):
        assert IntersectionLattice(["a", "b", "c"], [wrap(row) for row in rows], [0, 0, 0]) == plain
    with pytest.raises(DomainError, match=r"pairing not symmetric at \(0, 2\)"):
        IntersectionLattice(["a", "b", "c"], [LoggedRow(row) for row in
                                              ([-2, 1, 0], [1, 0, 1], [3, 1, -2])], [0, 0, 0])


def test_lattice_from_parts_rejects_a_self_pair():
    """A self-intersection has its own dict; a pair (a, a) is not one."""
    with pytest.raises(DomainError, match="self-intersection"):
        lattice_from_parts(["A", "B"], {("A", "A"): -3, ("A", "B"): 1}, {"B": -2})


_UNKNOWN_LABELS = """
from hjtoric.errors import DomainError
from hjtoric.homology import lattice_from_parts
try:
    lattice_from_parts(["a", "b"], {("a", "x"): 1, ("b", "y"): 1, ("a", "z"): 1}, {"w": -2})
except DomainError as err:
    print(err)
"""


def test_lattice_from_parts_names_the_first_unknown_label_under_every_hash_seed(monkeypatch):
    """The unknown label named is the first in the order given (pair keys,
    then self-intersections), not the first in a set's hash order."""
    for seed in range(8):
        monkeypatch.setenv("PYTHONHASHSEED", str(seed))
        proc = fresh.python("-c", _UNKNOWN_LABELS)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "no class labeled 'x'\n", "")


def _two_classes():
    return lattice_from_parts(["A", "B"], {("A", "B"): 1}, {"A": -1, "B": -2})


def _replay_args(eprime):
    """A (7, 4) config with a free (-1)-class E', and ``eprime`` as E'."""
    cfg = fulton_config(7, 4)
    return add_class(cfg.lattice(), "E'", -1), eprime, cfg


@pytest.mark.parametrize("call, message", [
    (lambda: add_class(_two_classes(), "A", -1), "label 'A' already present"),
    (lambda: lattice_from_parts(["A", "B", "A"], {}, {}), "class labels must be distinct"),
    (lambda: lattice_from_parts(["A"], {("A", "C"): 1}, {}), "no class labeled 'C'"),
    (lambda: blow_up_at(_two_classes(), ["A"], "B"), "label 'B' already present"),
    (lambda: blow_up_at(_two_classes(), ["A", "C"], "E"), "no class labeled 'C'"),
    (lambda: blow_up_at(_two_classes(), ["A", "B", "A"], "E"), "touched classes must be distinct"),
    (lambda: exceptional_pair_criterion(_two_classes(), "A", "A"),
     "criterion needs two distinct classes"),
    (lambda: chain_contact_replay(*_replay_args("E~")),
     "E' must be distinct from the configuration's class"),
    (lambda: chain_contact_replay(*_replay_args("Zp1")), "'Zp1' is not an exceptional class"),
], ids=["add-class-present", "parts-repeated", "parts-unknown", "blow-up-present",
        "blow-up-unknown", "blow-up-repeated", "criterion-one-class", "replay-eprime-is-etilde",
        "replay-eprime-not-exceptional"])
def test_each_refusal_names_its_reason(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_a_lattice_equals_no_other_type():
    lat = _two_classes()
    assert lat.__eq__(0) is NotImplemented
    assert not lat == 0 and lat != 0


def test_from_json_rejects_non_integers_with_the_same_messages():
    for obj, message in [
        ({"pairing": [[1.5, 0], [0, -1]]}, "each pairing row must be a list of integers, got [1.5, 0]"),
        ({"pairing": [[True, 0], [0, -1]]}, "each pairing row must be a list of integers, got [True, 0]"),
        ({"pairing": [0]}, "each pairing row must be a list of integers, got 0"),
        ({"pairing": [[-2]], "c1": [0.5]}, "c1 must be a list of integers, got [0.5]"),
    ]:
        with pytest.raises(DomainError) as exc:
            IntersectionLattice.from_json(obj)
        assert str(exc.value) == message


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_inertia(sympy, rows) -> tuple[int, int, int]:
    """(b+, b-, b0) from sympy's exact characteristic polynomial.

    A real symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact: the sign changes of the coefficients of p(x) and p(-x),
    once the factor x^b0 is divided out, count the positive and the negative
    eigenvalues with multiplicity.
    """
    n = len(rows)
    coeffs = sympy.Matrix(rows).charpoly().all_coeffs() if n else [1]  # leading first
    b_zero = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
    coeffs = coeffs[:len(coeffs) - b_zero]
    deg = len(coeffs) - 1

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    b_plus = changes(coeffs)
    b_minus = changes([c * (-1) ** (deg - i) for i, c in enumerate(coeffs)])
    assert b_plus + b_minus + b_zero == n
    return b_plus, b_minus, b_zero


@settings(max_examples=150, deadline=None)
@given(symmetric_forms())
def test_signature_matches_sympy_inertia(sympy, rows):
    assert signature(as_lattice(rows)) == sympy_inertia(sympy, rows)


@settings(max_examples=150, deadline=None)
@given(symmetric_forms(max_n=7), st.data())
def test_blow_up_at_matches_dense_oracle(rows, data):
    lat = as_lattice(rows)
    touched = data.draw(st.lists(st.sampled_from(lat.classes), unique=True)) if rows else []
    up = blow_up_at(lat, touched, "E")
    dense.assert_one_basis_order(lat)
    dense.assert_one_basis_order(up)
    assert up.to_json() == dense.blow_up_at(lat, touched, "E").to_json()
    assert up == dense.blow_up_at(lat, touched, "E")
    assert blow_down(up, "E") == lat
    b_plus, b_minus, b_zero = signature(lat)
    assert signature(up) == (b_plus, b_minus + 1, b_zero)


@settings(max_examples=150, deadline=None)
@given(symmetric_forms(max_n=7), st.data())
def test_blow_down_matches_dense_oracle(rows, data):
    if not rows:
        return
    k = data.draw(st.integers(0, len(rows) - 1))
    rows[k][k] = -1
    lat = as_lattice(rows)
    label = lat.classes[k]
    assert lat.is_exceptional(label)
    down = blow_down(lat, label)
    dense.assert_one_basis_order(down)
    assert down.to_json() == dense.blow_down(lat, label).to_json()
    assert down == dense.blow_down(lat, label)


@settings(max_examples=100, deadline=None)
@given(symmetric_forms(max_n=6), symmetric_forms(max_n=6))
def test_direct_sum_matches_dense_oracle(rows_a, rows_b):
    a, b = as_lattice(rows_a, "A"), as_lattice(rows_b, "B")
    dense.assert_one_basis_order(a.direct_sum(b))
    assert a.direct_sum(b).to_json() == dense.direct_sum(a, b).to_json()
    assert a.direct_sum(b) == dense.direct_sum(a, b)


def test_constructor_checks_and_views():
    lat = IntersectionLattice(["A", "B"], [[0, 1], [1, -2]], [2, 0])
    assert lat.classes == ("A", "B") and lat.pairing == ((0, 1), (1, -2)) and lat.c1 == (2, 0)
    assert dict(lat.neighbours("A")) == {"B": 1} and dict(lat.neighbours("B")) == {"A": 1}
    assert lat == lattice_from_parts(["A", "B"], {("A", "B"): 1}, {"A": 0, "B": -2})
    for classes, pairing, c1 in [
        (("A", "A"), ((0, 0), (0, 0)), (2, 2)),
        (("A", "B"), ((0, 0),), (2, 2)),
        (("A", "B"), ((0, 0), (0, 0)), (2,)),
        (("A", "B"), ((0, 1), (2, 0)), (2, 2)),
    ]:
        with pytest.raises(DomainError):
            IntersectionLattice(classes, pairing, c1)
    with pytest.raises(AttributeError):
        lat.classes = ("X", "Y")
