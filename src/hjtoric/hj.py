"""Exact integer helpers and Hirzebruch-Jung (negative) continued fractions.

A negative continued fraction writes a rational m/k (with 1 <= k < m,
gcd(m, k) = 1) as

    m/k = a_1 - 1/(a_2 - 1/(... - 1/a_n)),

and there is a unique such expansion with every a_i >= 2.  The terms are the
(negated) self-intersections of the chain of spheres resolving a cyclic
quotient singularity, which is why everything in this module is exact: all
arithmetic is arbitrary-precision integer arithmetic, never floating point.

The smooth case m = 1 is represented by the empty expansion (no resolution
curves) with residue 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from ._value import Value
from .errors import DomainError, EvaluationError, require_int, require_object, require_seq

UNIT = (1, 0)  # value of the empty expansion; a 1/0-free stand-in for "m = 1"
# the most terms an expansion, or cuts a cut replay (``blowup.mcduff_sequence``),
# may have: one Euclid walk, ``_euclid_blocks``, counts both in O(log m) steps
# first, and a longer one is refused with a DomainError instead of filling memory
MAX_TERMS = 10 ** 6


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a canonical Bezout pair.

    Returns ``(g, x, y)`` with ``g = gcd(a, b) > 0`` and ``a*x + b*y = g``.
    For ``b != 0`` the coefficient ``x`` is normalized to ``0 <= x < |b|/g``,
    which makes the pair unique and the output deterministic.  For ``b == 0``
    the result is ``(|a|, sign(a), 0)``.
    """
    require_seq((a, b), int, "ext_gcd needs integers")
    if a == 0 and b == 0:
        raise DomainError("ext_gcd(0, 0) is undefined")
    if b == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    g = gcd(a, b)
    m = abs(b) // g
    x = pow(a // g, -1, m) if m > 1 else 0
    return (g, x, (g - a * x) // b)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` in ``[1, m - 1]``; requires ``m >= 2``."""
    require_int(m, "modulus must be an integer >= 2", 2)
    a = require_int(a, "the residue to invert must be an integer") % m
    g = gcd(a, m)
    if g != 1:
        raise DomainError(f"{a} is not invertible mod {m} (gcd = {g})")
    return pow(a, -1, m)


class HJExpansion(Value):
    """The negative continued fraction of m/k with all terms >= 2.

    Its one invariant: int fields, every term >= 2 and ``hj_eval(terms) ==
    (m, k)``, which implies 1 <= k < m coprime, or m = 1, k = 0 and no terms.
    """

    numerator: int
    residue: int
    terms: tuple[int, ...]

    def __post_init__(self):
        m, k = self.numerator, self.residue
        require_seq((m, k), int, "numerator and residue must be integers")
        object.__setattr__(self, "terms", require_seq(
            self.terms, int, "terms must be a list of integers"))  # a list kept as a tuple
        if any(a < 2 for a in self.terms):
            raise DomainError(f"all terms must be >= 2, got {self.terms}")
        if hj_eval(self.terms) != (m, k):
            raise DomainError(f"terms {list(self.terms)} do not evaluate to {m}/{k}")


def _expansion(m: int, k: int, terms: tuple[int, ...]) -> HJExpansion:
    """The expansion of checked m/k whose ``terms`` were computed from it,
    so ``HJExpansion``'s checks hold by construction and are not run again."""
    e = object.__new__(HJExpansion)
    object.__setattr__(e, "numerator", m)
    object.__setattr__(e, "residue", k)
    object.__setattr__(e, "terms", terms)
    return e


def hj_eval(terms: Sequence[int]) -> tuple[int, int]:
    """Evaluate ``a_1 - 1/(a_2 - ...)`` exactly, returning ``(m, k)``.

    ``terms`` is a list or a tuple of ints; anything else is a DomainError.
    The result is in lowest terms with ``k >= 0``: each step multiplies
    (num, den) by [[a, -1], [1, 0]], which has determinant 1, so the walk
    from the coprime pair (1, 0) stays coprime.  The empty list evaluates to
    the sentinel pair ``UNIT == (1, 0)`` (the smooth case).  Terms >= 1 are
    accepted so the function can serve as an independent oracle, but an
    intermediate zero denominator (a trailing tail evaluating to 0 followed by
    another term) raises EvaluationError.
    """
    num, den = 1, 0
    for a in reversed(require_seq(terms, int, "terms must be a list of integers")):
        if num == 0:
            raise EvaluationError("intermediate zero denominator in evaluation")
        num, den = a * num - den, num
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    return (num, den)


def _euclid_blocks(p: int, q: int) -> tuple[list[int], list[int]]:
    """The quotients a_i and divisors q_i of the Euclidean algorithm on (p, q),
    q_0 = p, q_1 = q and q_{i-1} = a_i * q_i + q_{i+1} until the remainder is 0:
    the block sizes and multiplicities of the cut replay, and the term count."""
    blocks, values = [], []
    while q:
        blocks.append(p // q)
        values.append(q)
        p, q = q, p % q
    return blocks, values


def _term_count(m: int, k: int) -> int:
    """The number of terms of the expansion of m/k (1 <= k < m, coprime), in
    O(log m) steps: with [c1; c2, ...] the regular continued fraction of
    m/k, each odd-position quotient counts 1 and each even-position one its
    value less 1.  The count is at most m - 1."""
    return sum(c - 1 if i % 2 else 1 for i, c in enumerate(_euclid_blocks(m, k)[0]))


def hj_expand(m: int, k: int) -> HJExpansion:
    """The unique expansion of m/k with all terms >= 2.

    Requires ``1 <= k < m`` and ``gcd(m, k) = 1``; the smooth case ``m = 1``
    (with ``k = 0``) yields the empty expansion.  The range check runs before
    the loop on purpose: for k > m the loop runs about k/m times, so without
    it ``hj_expand(5, 10**12)`` would loop 2 * 10**11 times.  An expansion of
    more than ``MAX_TERMS`` terms is refused before the loop too; only m >
    ``MAX_TERMS`` can have one.  The terms are computed from checked m and k,
    so the result is built without ``HJExpansion``'s check, which would
    evaluate them again.
    """
    require_seq((m, k), int, "m and k must be integers")
    if m < 1:
        raise DomainError(f"numerator must be positive, got {m}")
    if m == 1:
        if k != 0:
            raise DomainError(f"m = 1 requires k = 0, got k = {k}")
        return _expansion(1, 0, ())
    if not (1 <= k < m):
        raise DomainError(f"residue must satisfy 1 <= k < m, got k = {k}, m = {m}")
    if gcd(m, k) != 1:
        raise DomainError(f"gcd({m}, {k}) = {gcd(m, k)} != 1")
    if m > MAX_TERMS and (n := _term_count(m, k)) > MAX_TERMS:
        raise DomainError(f"the expansion of {m}/{k} has {n} terms, more than {MAX_TERMS}")
    m0, k0 = m, k
    terms = []
    while k0 > 0:
        a = -(-m0 // k0)  # ceil(m0 / k0)
        terms.append(a)
        m0, k0 = k0, a * k0 - m0
    return _expansion(m, k, tuple(terms))


def hj_reverse(e: HJExpansion) -> HJExpansion:
    """The expansion read backwards: the expansion of m/k' with kk' = 1 mod m.

    Reversing the term list of the expansion of m/k produces the (still
    valid, all terms >= 2) expansion of m/k' where k' is the inverse of k
    modulo m, so the result needs no check.  The empty expansion reverses
    to itself.
    """
    require_object(e, HJExpansion, "e must be an HJExpansion")
    if not e.terms:
        return e
    m = e.numerator
    return _expansion(m, mod_inverse(e.residue, m), e.terms[::-1])
