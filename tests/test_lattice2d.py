from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjtoric.errors import DomainError
from hjtoric.hj import ext_gcd
from hjtoric.lattice2d import phi_embed


TRIPLES = [(2, 1, 1), (3, 2, 5), (7, 4, 9), (5, 3, 7), (7, 2, 3), (11, 4, 5)]
VALID = (2, 1, 1, Fraction(1, 10), Fraction(1, 2), 1)
BAD = {"inexact": (2, 1, 1, 0.1, 0.5, True), "p-q-not-coprime": (2, 2, 5, 0, 0, 0),
       "p-r-not-coprime": (5, 2, 10, 0, 0, 0), "negative-eps": (2, 1, 1, -1, 0, 0)}
BAD.update({f"{kind}-{name}": VALID[:i] + (bad,) + VALID[i + 1:]
            for i, name in enumerate(("p", "q", "r", "eps", "a", "b"))
            for kind, bad in (("float", 0.5), ("bool", True))})


class TestPhiEmbed:
    @pytest.mark.parametrize("p,q,r", TRIPLES)
    def test_axis_images(self, p, q, r):
        _, alpha, _ = ext_gcd(p, r)
        assert phi_embed(p, q, r, 0, 1, 0) == (r, 0, p)
        assert phi_embed(p, q, r, 0, q * alpha, r) == (0, r, q)

    @pytest.mark.parametrize("p,q,r", TRIPLES)
    def test_origin_at_eps(self, p, q, r):
        eps = Fraction(3, 7)
        assert phi_embed(p, q, r, eps, 0, 0) == (eps / p, 0, 0)

    @pytest.mark.parametrize("p,q,r", TRIPLES)
    def test_second_vertex_at_eps(self, p, q, r):
        _, _, beta = ext_gcd(p, r)
        eps = Fraction(5, 3)
        img = phi_embed(p, q, r, eps, -eps * beta / p, eps / q)
        assert img == (0, eps / q, 0)

    @settings(max_examples=150)
    @given(
        st.sampled_from(TRIPLES),
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=0, max_value=10),
    )
    def test_plane_identity(self, triple, a, b, eps):
        p, q, r = triple
        x, y, z = phi_embed(p, q, r, eps, a, b)
        assert p * x + q * y - r * z == eps

    @pytest.mark.parametrize("args", BAD.values(), ids=BAD.keys())
    def test_rejects_bad_input(self, args):
        """Weights must be pairwise coprime positive ints, and eps, a and b
        exact rationals, eps >= 0; a float or a bool is never read as one."""
        assert phi_embed(*VALID) == (Fraction(11, 20), 1, 2)
        with pytest.raises(DomainError):
            phi_embed(*args)
