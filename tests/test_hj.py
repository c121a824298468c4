import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjtoric.errors import DomainError, EvaluationError
from hjtoric.hj import UNIT, ext_gcd, hj_eval, hj_expand, hj_reverse, mod_inverse


class TestExtGcd:
    def test_basic(self):
        assert ext_gcd(3, 5) == (1, 2, -1)
        assert ext_gcd(4, 7) == (1, 2, -1)

    @pytest.mark.parametrize("r", [2, 3, 5, 11, 100])
    def test_identity_case(self, r):
        assert ext_gcd(1, r) == (1, 1, 0)

    def test_unit_modulus_normalizes_to_zero(self):
        # 0 <= x < |b|/g leaves only x = 0 when b = 1
        assert ext_gcd(1, 1) == (1, 0, 1)
        assert ext_gcd(5, 1) == (1, 0, 1)

    def test_zero_arguments(self):
        with pytest.raises(DomainError):
            ext_gcd(0, 0)
        assert ext_gcd(7, 0) == (7, 1, 0)
        assert ext_gcd(-7, 0) == (7, -1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_bezout_postcondition(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b) > 0
        assert a * x + b * y == g
        if b != 0:
            assert 0 <= x < abs(b) // g


class TestModInverse:
    def test_basic(self):
        assert mod_inverse(3, 5) == 2
        assert mod_inverse(4, 7) == 2

    @pytest.mark.parametrize("m", [2, 3, 17, 1000])
    def test_one(self, m):
        assert mod_inverse(1, m) == 1

    def test_not_invertible(self):
        with pytest.raises(DomainError):
            mod_inverse(6, 9)
        with pytest.raises(DomainError):
            mod_inverse(2, 1)

    @given(st.integers(2, 5000), st.integers(1, 10**9))
    def test_postcondition(self, m, a):
        if gcd(a, m) != 1:
            return
        x = mod_inverse(a, m)
        assert 1 <= x <= m - 1
        assert (a * x) % m == 1


class TestExpand:
    @pytest.mark.parametrize("r", [2, 3, 7, 40])
    def test_single_term(self, r):
        assert hj_expand(r, 1).terms == (r,)

    def test_examples(self):
        assert hj_expand(7, 3).terms == (3, 2, 2)
        assert hj_expand(5, 4).terms == (2, 2, 2, 2)

    def test_smooth_case(self):
        e = hj_expand(1, 0)
        assert e.terms == () and e.numerator == 1 and e.residue == 0

    def test_rejects_bad_residue(self):
        with pytest.raises(DomainError):
            hj_expand(6, 3)  # gcd 3
        with pytest.raises(DomainError):
            hj_expand(5, 5)
        with pytest.raises(DomainError):
            hj_expand(5, 0)
        with pytest.raises(DomainError):
            hj_expand(1, 1)

    def test_residue_above_numerator_is_rejected_before_the_loop(self):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            hj_expand(5, 10**12)
        assert time.perf_counter() - start < 0.1


class TestEval:
    def test_single(self):
        assert hj_eval([9]) == (9, 1)

    def test_example(self):
        assert hj_eval([3, 2, 2]) == (7, 3)

    def test_empty_is_unit(self):
        assert hj_eval([]) == UNIT == (1, 0)

    def test_ones_allowed_for_oracle_use(self):
        assert hj_eval([1, 2]) == (1, 2)
        assert hj_eval([1, 1, 2]) == (-1, 1)

    def test_intermediate_zero_denominator(self):
        # tail [1, 1] evaluates to 0, so one more term divides by zero
        with pytest.raises(EvaluationError):
            hj_eval([3, 1, 1])


class TestReverse:
    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_palindrome_single(self, r):
        e = hj_expand(r, 1)
        assert hj_reverse(e) == e
        assert (1 * 1) % r == 1 % r

    def test_seven_thirds(self):
        rev = hj_reverse(hj_expand(7, 3))
        assert rev.terms == (2, 2, 3)
        assert rev == hj_expand(7, 5)
        assert (3 * 5) % 7 == 1

    def test_all_twos(self):
        e = hj_expand(5, 4)
        assert hj_reverse(e).terms == (2, 2, 2, 2)
        assert (4 * 4) % 5 == 1

    def test_empty(self):
        e = hj_expand(1, 0)
        assert hj_reverse(e) is e


def coprime_pairs(limit):
    for m in range(2, limit + 1):
        for k in range(1, m):
            if gcd(m, k) == 1:
                yield m, k


def test_round_trip_small_range():
    for m, k in coprime_pairs(60):
        e = hj_expand(m, k)
        assert all(a >= 2 for a in e.terms)
        assert hj_eval(e.terms) == (m, k)


def test_reversal_duality_small_range():
    for m, k in coprime_pairs(60):
        rev = hj_reverse(hj_expand(m, k))
        assert (k * rev.residue) % m == 1


@settings(max_examples=200)
@given(st.integers(2, 3000), st.integers(1, 3000))
def test_round_trip_random(m, k):
    k = k % m
    if k == 0 or gcd(m, k) != 1:
        return
    e = hj_expand(m, k)
    assert hj_eval(e.terms) == (m, k)
    assert all(a >= 2 for a in e.terms)


def test_uniqueness_by_exhaustive_search():
    """Every list with all terms >= 2 evaluating to m/k (m <= 30) is the
    expansion; generated by prepending terms, which strictly grows the
    numerator, so the search below is exhaustive for numerators <= 30."""
    bound = 30
    by_value = {}
    frontier = []
    for a in range(2, bound + 1):
        by_value.setdefault((a, 1), []).append((a,))
        frontier.append(((a,), (a, 1)))
    while frontier:
        terms, (m, k) = frontier.pop()
        for a in range(2, (bound + k) // m + 1):
            new = (a, *terms)
            val = (a * m - k, m)
            if val[0] > bound:
                continue
            by_value.setdefault(val, []).append(new)
            frontier.append((new, val))
    for m, k in coprime_pairs(bound):
        found = by_value.get((m, k), [])
        assert found == [hj_expand(m, k).terms], (m, k, found)
