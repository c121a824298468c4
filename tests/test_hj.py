import re
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fresh
from hjtoric.blowup import mcduff_sequence
from hjtoric.errors import DomainError, EvaluationError
from hjtoric.hj import (MAX_TERMS, UNIT, HJExpansion, _euclid_blocks, _term_count, ext_gcd, hj_eval,
                        hj_expand, hj_reverse, mod_inverse)


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

    @given(st.integers(-2**600, 2**600), st.integers(-2**600, 2**600))
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

    @given(st.integers(2, 2**600), st.integers(-2**600, 2**600))
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

    @given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)), max_size=40))
    def test_result_is_in_lowest_terms(self, terms):
        """Each step multiplies (num, den) by a determinant-1 matrix, so the
        pair stays coprime for any int terms, negative and 1 included."""
        try:
            m, k = hj_eval(terms)
        except EvaluationError:
            return
        assert gcd(m, k) == 1 and k >= 0


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


def test_public_constructor_accepts_what_expand_and_reverse_build():
    """hj_expand and hj_reverse skip HJExpansion's checks; the constructor,
    which runs them all, is the oracle that they hold."""
    for m, k in [(1, 0), *coprime_pairs(60)]:
        for e in (hj_expand(m, k), hj_reverse(hj_expand(m, k))):
            assert type(e) is HJExpansion
            assert HJExpansion(e.numerator, e.residue, e.terms) == e


@pytest.mark.parametrize("fields, message", [
    ((5, 2, (3, 1)), "all terms must be >= 2, got (3, 1)"),
    ((0, 0, ()), "terms [] do not evaluate to 0/0"),
    ((-5, 2, (3, 2)), "terms [3, 2] do not evaluate to -5/2"),
    ((1, 1, ()), "terms [] do not evaluate to 1/1"),
    ((1, 0, (2,)), "terms [2] do not evaluate to 1/0"),
    ((5, 0, (3, 2)), "terms [3, 2] do not evaluate to 5/0"),
    ((5, 5, (3, 2)), "terms [3, 2] do not evaluate to 5/5"),
    ((5, -3, (3, 2)), "terms [3, 2] do not evaluate to 5/-3"),
    ((6, 4, (2, 2)), "terms [2, 2] do not evaluate to 6/4"),
    ((True, 0, ()), "numerator and residue must be integers, got (True, 0)"),
    ((2, 1, (True,)), "terms must be a list of integers, got (True,)"),
], ids=["term-1", "m-0", "m-negative", "m-1-k-1", "m-1-with-terms", "k-0", "k-m",
        "k-negative", "gcd-2", "bool-numerator", "bool-term"])
def test_the_constructor_refuses_all_that_breaks_its_invariant(fields, message):
    """Int fields, terms >= 2 and ``hj_eval(terms) == (m, k)``: that one
    invariant refuses m < 1, m = 1 with k != 0 or with terms, k outside
    [1, m) and gcd(m, k) > 1."""
    with pytest.raises(DomainError) as err:
        HJExpansion(*fields)
    assert str(err.value) == message


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


# -- the expansion cap ----------------------------------------------------------


@settings(max_examples=300)
@given(st.integers(2, 5000), st.integers(1, 5000))
def test_term_count_is_the_expansions_length(m, k):
    """The O(log m) count read off the regular continued fraction equals the
    length of the expansion it stands in for, and never exceeds m - 1.  The
    Euclid walk behind it rebuilds (m, k) from its quotients and divisors,
    and its quotients sum to the cut count of the replay of (k, m)."""
    k = k % m or 1
    if gcd(m, k) != 1:
        return
    n = _term_count(m, k)
    assert n == len(hj_expand(m, k).terms) <= m - 1
    blocks, values = _euclid_blocks(m, k)
    pair = (values[-1], 0)
    for a, v in zip(reversed(blocks), reversed(values)):
        assert pair[0] == v
        pair = (a * v + pair[1], v)
    assert pair == (m, k) and sum(blocks) == len(mcduff_sequence(k, m))


def test_term_count_of_the_longest_expansions():
    """m/(m - 1) is the chain of m - 1 twos and m/1 a single term, at any size."""
    for m in (2, 3, 10 ** 6, 10 ** 12, 10 ** 40):
        assert _term_count(m, m - 1) == m - 1
        assert _term_count(m, 1) == 1


def test_the_cap_admits_max_terms_and_refuses_one_more():
    assert len(hj_expand(MAX_TERMS + 1, MAX_TERMS).terms) == MAX_TERMS
    with pytest.raises(DomainError, match=f"has {MAX_TERMS + 1} terms, more than {MAX_TERMS}"):
        hj_expand(MAX_TERMS + 2, MAX_TERMS + 1)
    # a huge numerator with a short expansion is still expanded
    assert hj_expand(10 ** 12, 1).terms == (10 ** 12,)


# each public way into an expansion or a cut replay of about 10^12 steps
HUGE = {
    "hj_expand": ("h.hj_expand(10**12, 10**12 - 1)", "expansion"),
    "resolve_cyclic": ("h.resolve_cyclic(h.CyclicSingularity(10**12 + 1, 1, 10**12))",
                       "expansion"),
    "fulton_config": ("h.fulton_config(10**12, 1)", "expansion"),
    "mcduff_sequence": ("h.mcduff_sequence(1, 10**12)", "cut replay"),
    "cut_chords": ("h.cut_chords(1, 10**12)", "cut replay"),
    "run_loop": ("h.run_loop(pair, 5)", "expansion"),
    "initial_state": ("h.initial_state(pair)", "expansion"),
}
_CAPPED = """\
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
import hjtoric as h
pair = [h.FixedPointDatum(0, 1, 10**12, 1), h.FixedPointDatum("1/2", -1, 10**12, 1)]
t = time.perf_counter()
try:
    {call}
except Exception as exc:
    print(type(exc).__name__, time.perf_counter() - t, exc)
"""


@pytest.mark.parametrize("name", sorted(HUGE))
def test_every_entry_point_refuses_a_huge_expansion_at_once(name):
    """Each raises a DomainError within a fraction of a second, before its
    loop.  The call runs in a new interpreter capped at 1 GiB of address
    space, so a missing check ends there in a MemoryError, not by filling
    the host's memory."""
    call, what = HUGE[name]
    proc = fresh.python("-c", _CAPPED.format(call=call))
    kind, seconds, message = proc.stdout.split(" ", 2)
    assert (proc.returncode, kind) == (0, "DomainError") and float(seconds) < 1.0
    assert re.fullmatch(f"the {what} of .* more than {MAX_TERMS}\n", message)
