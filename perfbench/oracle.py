"""Independent arithmetic the benchmark uses to build inputs and check outputs.

Nothing here imports hjtoric.  Expected values come from these few lines of
textbook arithmetic (Euclid, negative continued fractions, block signatures),
so a wrong answer from the package cannot be confirmed by the same wrong code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def cf_expand(m: int, k: int) -> tuple[int, ...]:
    """Terms (all >= 2) of the negative continued fraction of m/k, 0 < k < m."""
    terms = []
    while k > 0:
        a = -(-m // k)
        terms.append(a)
        m, k = k, a * k - m
    return tuple(terms)


def cf_eval(terms) -> tuple[int, int]:
    """(m, k) with m/k = a1 - 1/(a2 - ...), for terms all >= 2."""
    m, k = 1, 0
    for a in reversed(terms):
        m, k = a * m - k, m
    return m, k


def resolution_residue(r: int, p: int, q: int) -> int:
    """k = q * p^-1 mod r: the chain of a type-(p, q) point expands r/k."""
    return (q * pow(p, -1, r)) % r


def type_equivalent(r: int, q1: int, q2: int, oriented: bool) -> bool:
    """Equivalence of canonical types (1, q1), (1, q2) of order r."""
    if r == 1:
        return True
    ok = (q1 - q2) % r == 0 or (q1 * q2 - 1) % r == 0
    if not oriented:
        ok = ok or (q1 + q2) % r == 0 or (q1 * q2 + 1) % r == 0
    return ok


def euclid_multiplicities(p: int, q: int) -> tuple[int, ...]:
    """q_i repeated a_i times along Euclid's algorithm on (p, q)."""
    out = []
    while q:
        a, rem = divmod(p, q)
        out += [q] * a
        p, q = q, rem
    return tuple(out)


def config_terms(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chain terms of a (p, q)-weighted blowup, read from the axis end.

    The order-p corner expands p/(p - q), the order-q corner q/((q - p) mod q).
    """
    terms_p = cf_expand(p, p - q) if p > 1 else ()
    terms_q = cf_expand(q, (q - p) % q) if q > 1 else ()
    return terms_p, terms_q


def arc(a: Fraction, b: Fraction) -> Fraction:
    """Counterclockwise distance from a to b on the unit circle, in [0, 1)."""
    d = b - a
    return d - (d.numerator // d.denominator)


def max_overlap(arcs) -> int:
    """Most open arcs ``(start, end)`` (counterclockwise) through one point.

    Membership changes only at arc endpoints, so the endpoints and the
    midpoints between consecutive endpoints decide the maximum.
    """
    cuts = sorted({arc(Fraction(0), e) for a in arcs for e in a})
    points = cuts + [arc(Fraction(0), (a + b) / 2) for a, b in zip(cuts, cuts[1:] + [cuts[0] + 1])]

    def inside(x, a, b):
        return 0 < arc(a, x) < arc(a, b)

    return max(sum(inside(x, a, b) for a, b in arcs) for x in points)
