import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjtoric.errors import DomainError
from hjtoric.hj import ext_gcd
from hjtoric.lattice2d import (
    Polygon,
    UnimodularAffineMap,
    Wedge,
    apply_map,
    corner_cut,
    det2,
    is_smooth_vertex,
    local_model_wedge,
    normalize_vertex,
    phi_embed,
    primitive,
    quadrant,
    standard_wedge,
    wedge_polygon,
)


def rand_unimodular_map(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(6):
        c = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            m = [[m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]]
    if rng.random() < 0.5:
        m = [m[1], m[0]]
    return UnimodularAffineMap(
        ((m[0][0], m[0][1]), (m[1][0], m[1][1])),
        (Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))),
    )


class TestApplyMap:
    def test_identity(self):
        w = Wedge((0, 0), ((0, -1), (-5, 4)))
        assert apply_map(UnimodularAffineMap.identity(), w) == w

    def test_corner_normalization_matrix(self):
        # rows (-1, 0), (c, -1) send (0,-1) to (0,1) and (-r, qa) to (r, -qa - rc)
        r, qa, c = 5, 4, 2
        m = UnimodularAffineMap(((-1, 0), (c, -1)))
        assert m.linear((0, -1)) == (0, 1)
        assert m.linear((-r, qa)) == (r, -qa - r * c)

    def test_order_p_vertex_matrix(self):
        m = UnimodularAffineMap(((0, -1), (-1, 1)))
        p, q = 7, 4
        assert m.linear((-q, -p)) == (p, -(p - q))
        assert m.linear((-1, 0)) == (0, 1)

    def test_determinant_required(self):
        with pytest.raises(DomainError):
            UnimodularAffineMap(((2, 0), (0, 1)))

    def test_affine_on_apex_linear_on_conormals(self):
        m = UnimodularAffineMap(((1, 1), (0, 1)), (Fraction(1, 2), Fraction(0)))
        w = Wedge((1, 1), ((-1, 0), (0, -1)))
        out = apply_map(m, w)
        assert out.apex == (Fraction(5, 2), Fraction(1))
        assert out.conormals == ((-1, 0), (-1, -1))


class TestSmoothVertex:
    def test_standard_quadrant(self):
        assert is_smooth_vertex(Wedge((0, 0), ((-1, 0), (0, -1))))

    @pytest.mark.parametrize("r,k", [(2, 1), (5, 2), (9, 4)])
    def test_singular_standard(self, r, k):
        assert not is_smooth_vertex(standard_wedge(r, k))

    def test_weighted_corner(self):
        p, q = 7, 4
        assert not is_smooth_vertex(Wedge((0, 0), ((0, -1), (-q, -p))))
        assert abs(det2((0, -1), (-q, -p))) == q

    def test_parallel_rejected(self):
        with pytest.raises(DomainError):
            is_smooth_vertex(Wedge((0, 0), ((1, 2), (2, 4))))

    def test_needs_two_conormals(self):
        with pytest.raises(DomainError):
            is_smooth_vertex(local_model_wedge(3, 2, 5, 1))


class TestNormalizeVertex:
    def test_local_model_goes_standard(self):
        p, q, r = 3, 2, 5
        _, alpha, _ = ext_gcd(p, r)
        m, std = normalize_vertex(Wedge((0, 0), ((0, -1), (-r, q * alpha))))
        k = (q * alpha) % r
        assert std.conormals == ((0, 1), (r, -k))
        assert apply_map(m, Wedge((0, 0), ((0, -1), (-r, q * alpha)))) == std

    def test_standard_is_fixed(self):
        m, std = normalize_vertex(standard_wedge(7, 3))
        assert m == UnimodularAffineMap.identity()
        assert std == standard_wedge(7, 3)

    def test_every_standard_wedge_is_fixed(self):
        """Each standard wedge (0, 1), (r, -k) with k at most its inverse mod
        r (k = 0 for r = 1) normalizes to itself by the identity."""
        for r in range(1, 80):
            for k in range(r):
                if gcd(k, r) != 1 or (r > 1 and k > pow(k, -1, r)):
                    continue
                assert normalize_vertex(standard_wedge(r, k)) == (
                    UnimodularAffineMap.identity(), standard_wedge(r, k)), (r, k)

    def test_weighted_corner_7_4(self):
        m, std = normalize_vertex(Wedge((0, 0), ((-1, 0), (-4, -7))))
        assert std.conormals == ((0, 1), (7, -3))  # k = p - q = 3
        assert apply_map(m, Wedge((0, 0), ((-1, 0), (-4, -7)))) == std

    def test_smooth_vertex_gives_r_one(self):
        m, std = normalize_vertex(Wedge((2, 3), ((-1, 0), (0, -1))))
        assert std.conormals == ((0, 1), (1, 0))
        assert apply_map(m, Wedge((2, 3), ((-1, 0), (0, -1)))) == std

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            u = primitive((rng.randint(-9, 9) or 1, rng.randint(-9, 9)))
            v = primitive((rng.randint(-9, 9), rng.randint(-9, 9) or 1))
            if det2(u, v) == 0:
                continue
            w = Wedge((rng.randint(-3, 3), rng.randint(-3, 3)), (u, v))
            _, std = normalize_vertex(w)
            m2, std2 = normalize_vertex(std)
            assert m2 == UnimodularAffineMap.identity()
            assert std2 == std

    def test_parallel_error(self):
        with pytest.raises(DomainError):
            normalize_vertex(Wedge((0, 0), ((1, 0), (3, 0))))

    def test_determinant_is_invariant(self):
        rng = random.Random(11)
        for _ in range(60):
            u = primitive((rng.randint(-9, 9) or 2, rng.randint(-9, 9)))
            v = primitive((rng.randint(-9, 9), rng.randint(-9, 9) or 3))
            if det2(u, v) == 0:
                continue
            w = Wedge((0, 0), (u, v))
            m = rand_unimodular_map(rng)
            moved = apply_map(m, w)
            assert abs(det2(*moved.conormals)) == abs(det2(u, v))
            _, std1 = normalize_vertex(w)
            _, std2 = normalize_vertex(moved)
            assert std1 == std2  # r and canonical k agree


class TestCornerCut:
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
                assert is_smooth_vertex(poly.vertex_wedge(v))

    def test_rejects_nonsmooth(self):
        w = wedge_polygon(standard_wedge(5, 2))
        with pytest.raises(DomainError):
            corner_cut(w, 0, Fraction(1, 4))

    def test_rejects_oversized(self):
        poly = corner_cut(quadrant(), 0, Fraction(1, 2))
        with pytest.raises(DomainError):
            corner_cut(poly, 0, Fraction(1, 2))  # consumes the new edge
        with pytest.raises(DomainError):
            corner_cut(poly, 0, Fraction(2, 3))

    def test_closed_polygon_cut(self):
        square = Polygon(((0, 0), (3, 0), (3, 3), (0, 3)))
        cut = corner_cut(square, 0, Fraction(1))
        assert len(cut.vertices) == 5
        assert (-1, -1) in cut.conormals()

    def test_wedge_input(self):
        cut = corner_cut(Wedge((0, 0), ((-1, 0), (0, -1))), 0, Fraction(1))
        assert (-1, -1) in cut.conormals()


class TestLocalModel:
    def test_level_zero(self):
        p, q, r = 3, 2, 5
        _, alpha, _ = ext_gcd(p, r)
        w = local_model_wedge(p, q, r, 0)
        assert w.conormals == ((0, -1), (-r, q * alpha))

    def test_level_zero_smooth(self):
        w = local_model_wedge(3, 2, 1, 0)
        assert w.conormals == ((0, -1), (-1, 0))

    def test_level_plus_weighted_triangle(self):
        p, q = 3, 2
        w = local_model_wedge(p, q, 1, 1)
        assert w.conormals == ((0, -1), (-1, 0), (-p, -q))

    def test_level_plus_general(self):
        p, q, r = 3, 2, 5
        _, alpha, beta = ext_gcd(p, r)
        w = local_model_wedge(p, q, r, 1)
        assert w.conormals == ((0, -1), (-r, q * alpha), (-p, -q * beta))

    def test_gcd_violation(self):
        with pytest.raises(DomainError):
            local_model_wedge(2, 2, 5, 0)
        with pytest.raises(DomainError):
            local_model_wedge(5, 2, 10, 0)


TRIPLES = [(2, 1, 1), (3, 2, 5), (7, 4, 9), (5, 3, 7), (7, 2, 3), (11, 4, 5)]


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


class TestJson:
    def test_polygon_json(self):
        poly = corner_cut(quadrant(), 0, Fraction(1, 2))
        obj = poly.to_json()
        assert obj["vertices"] == [[0, "1/2"], ["1/2", 0]]
        assert obj["conormals"] == [[-1, 0], [-1, -1], [0, -1]]

    def test_wedge_json(self):
        obj = standard_wedge(5, 2).to_json()
        assert obj == {"vertices": [[0, 0]], "conormals": [[0, 1], [5, -2]]}


class TestTruncationEdge:
    @pytest.mark.parametrize("p,q,r", TRIPLES)
    def test_endpoints(self, p, q, r):
        from hjtoric.lattice2d import truncation_edge

        eps = Fraction(2, 3)
        a, b = truncation_edge(p, q, r, eps)
        assert a == (eps / p, 0, 0)
        assert b == (0, eps / q, 0)

    def test_needs_positive_eps(self):
        from hjtoric.lattice2d import truncation_edge

        with pytest.raises(DomainError):
            truncation_edge(3, 2, 5, 0)
