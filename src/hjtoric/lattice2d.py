"""The plane embedding of the local model of a (p, q, -r) circle reduction.

``phi_embed`` realizes the moment wedge of the reduced space inside the
plane p*x + q*y - r*z = eps of R^3.  It is an exact identity that the tests
check; no other module of the package imports this one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, require_ints
from .hj import ext_gcd
from .rationals import parse_rational


def _require_weights(p: int, q: int, r: int) -> None:
    require_ints((p, q, r), "weights must be integers")
    if min(p, q, r) < 1:
        raise DomainError(f"weights must be positive, got ({p}, {q}, {r})")
    for a, b in ((p, r), (q, r), (p, q)):
        if gcd(a, b) != 1:
            raise DomainError(f"weights ({p}, {q}, {r}) must be pairwise coprime")


def phi_embed(p: int, q: int, r: int, eps, a, b) -> tuple[Fraction, Fraction, Fraction]:
    """Affine embedding of the local wedge into the plane px + qy - rz = eps.

    With alpha*p + beta*r = 1 the image of (a, b) is

        (a*r - b*q*alpha + eps/p,  b,  a*p + b*q*beta),

    so (1, 0) at eps = 0 goes to (r, 0, p) and (q*alpha, r) to (0, r, q).
    The plane identity holds for every rational (a, b) and eps >= 0.
    ``eps``, ``a`` and ``b`` are read by ``parse_rational``.
    """
    _require_weights(p, q, r)
    eps = parse_rational(eps)
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    a = parse_rational(a)
    b = parse_rational(b)
    _, alpha, beta = ext_gcd(p, r)
    return (
        a * r - b * q * alpha + eps / p,
        b,
        a * p + b * q * beta,
    )
