from math import gcd

import pytest

import dense
from hjtoric.errors import DomainError
from hjtoric.hj import hj_expand
from hjtoric.homology import signature
from hjtoric.resolution import (
    Chain,
    CyclicSingularity,
    chains_equal_up_to_reversal,
    resolution_params,
    resolve_cyclic,
    same_resolution,
    type_equivalent,
)


def coprime_residues(r):
    return [q for q in range(1, r) if gcd(q, r) == 1]


class TestSingularity:
    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            CyclicSingularity(4, 2, 1)
        with pytest.raises(DomainError):
            CyclicSingularity(6, 1, 3)

    def test_canonical(self):
        s = CyclicSingularity(5, 3, 2)
        # 3^{-1} = 2 mod 5, so the canonical residue is 2*2 = 4
        assert s.canonical() == CyclicSingularity(5, 1, 4)
        assert CyclicSingularity(1, 7, 3).canonical() == CyclicSingularity(1, 1, 0)

    def test_canonical_is_idempotent(self):
        for r in range(2, 20):
            for q in coprime_residues(r):
                c = CyclicSingularity(r, 1, q).canonical()
                assert c.canonical() == c


class TestResolve:
    def test_smooth(self):
        assert len(resolve_cyclic(CyclicSingularity(1, 1, 1))) == 0

    @pytest.mark.parametrize("r", [2, 3, 7, 19])
    def test_type_one_one(self, r):
        chain = resolve_cyclic(CyclicSingularity(r, 1, 1))
        assert chain.self_intersections == (-r,)

    def test_five_three_two(self):
        chain = resolve_cyclic(CyclicSingularity(5, 3, 2))
        assert chain.self_intersections == (-2, -2, -2, -2)
        alpha, k = resolution_params(CyclicSingularity(5, 3, 2))
        assert alpha == 2 and k == 4

    def test_labels(self):
        chain = resolve_cyclic(CyclicSingularity(7, 1, 3))
        assert chain.labels == ("Z1", "Z2", "Z3")
        assert chain.self_intersections == (-3, -2, -2)

    def test_canonicalization_invariance(self):
        for r in range(2, 30):
            for p in coprime_residues(r):
                for q in coprime_residues(r)[:4]:
                    s = CyclicSingularity(r, p, q)
                    assert resolve_cyclic(s) == resolve_cyclic(s.canonical())

    def test_chain_lattice_pairing(self):
        lat = resolve_cyclic(CyclicSingularity(7, 1, 3)).lattice()
        assert lat.pair("Z1", "Z2") == 1
        assert lat.pair("Z1", "Z3") == 0
        assert lat.c1_of("Z1") == 2 - 3

    def test_chains_negative_definite(self):
        for r in range(2, 40):
            for q in coprime_residues(r):
                lat = resolve_cyclic(CyclicSingularity(r, 1, q)).lattice()
                dense.assert_one_basis_order(lat)
                assert signature(lat) == (0, len(lat), 0)


class TestTypeEquivalent:
    def test_inverse_pair_oriented(self):
        s1, s2 = CyclicSingularity(5, 1, 2), CyclicSingularity(5, 1, 3)
        assert type_equivalent(s1, s2, oriented=True)  # 2*3 = 1 mod 5

    def test_self(self):
        s = CyclicSingularity(9, 1, 2)
        assert type_equivalent(s, s)
        assert type_equivalent(s, s, oriented=True)

    def test_non_equivalent(self):
        s1, s2 = CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3)
        assert not type_equivalent(s1, s2, oriented=True)
        # unoriented allows q' = -q or qq' = -1: 2*3 = 6 = -1 mod 7
        assert type_equivalent(s1, s2, oriented=False)

    def test_different_orders(self):
        assert not type_equivalent(CyclicSingularity(5, 1, 2), CyclicSingularity(7, 1, 2))

    def test_oriented_implies_same_resolution(self):
        for r in range(2, 40):
            for q1 in coprime_residues(r):
                for q2 in coprime_residues(r):
                    s1 = CyclicSingularity(r, 1, q1)
                    s2 = CyclicSingularity(r, 1, q2)
                    if type_equivalent(s1, s2, oriented=True):
                        assert same_resolution(s1, s2)


class TestSameResolution:
    def test_equal_types(self):
        s = CyclicSingularity(11, 1, 4)
        assert same_resolution(s, s)

    def test_reversal_pair(self):
        assert same_resolution(CyclicSingularity(7, 1, 3), CyclicSingularity(7, 1, 5))

    def test_distinct(self):
        s1, s2 = CyclicSingularity(7, 1, 2), CyclicSingularity(7, 1, 3)
        assert not same_resolution(s1, s2)
        assert resolve_cyclic(s1).self_intersections == (-4, -2)
        assert resolve_cyclic(s2).self_intersections == (-3, -2, -2)

    def test_agrees_with_chain_comparison(self):
        """Against the chains themselves, for every type (p, q) with p and q
        units mod r, r = 1 (the unit 0) included.  Each type meets every
        type whose p is the next unit; as q2 runs over the units, so does
        that type's residue, so every pair of residues is compared."""
        for r in range(1, 30):
            units = [u for u in range(r) if gcd(u, r) == 1]
            chains = {(p, q): resolve_cyclic(CyclicSingularity(r, p, q))
                      for p in units for q in units}
            for (p1, q1), c1 in chains.items():
                p2 = units[(units.index(p1) + 1) % len(units)]
                for q2 in units:
                    expected = chains_equal_up_to_reversal(c1, chains[p2, q2])
                    got = same_resolution(
                        CyclicSingularity(r, p1, q1), CyclicSingularity(r, p2, q2)
                    )
                    assert got == expected, (r, p1, q1, p2, q2)


@pytest.mark.parametrize("p,q", [(1, 1), (7, 3), (0, 0), (-2, 5)])
def test_order_one_is_smooth(p, q):
    """A point of order 1 is smooth whatever its type: no resolution data,
    the empty chain, canonical type (1, 0), equivalent to every order-1 point."""
    s = CyclicSingularity(1, p, q)
    assert s.canonical() == CyclicSingularity(1, 1, 0)
    assert resolution_params(s) == (0, 0)
    assert resolve_cyclic(s) == Chain((), ())
    other = CyclicSingularity(1, 3, 4)
    assert type_equivalent(s, other) and type_equivalent(s, other, oriented=True)
    assert same_resolution(s, other)


class TestChain:
    def test_rejects_minus_one_entry(self):
        with pytest.raises(DomainError):
            Chain((-1,), ("Z1",))

    def test_rejects_a_repeated_label(self):
        with pytest.raises(DomainError) as err:
            Chain((-2, -3), ("Z1", "Z1"))
        assert str(err.value) == "chain labels must be distinct"

    def test_reversed_relabels(self):
        c = Chain((-2, -3), ("Z1", "Z2"))
        rev = c.reversed()
        assert rev.self_intersections == (-3, -2)
        assert rev.labels == ("Z1", "Z2")
