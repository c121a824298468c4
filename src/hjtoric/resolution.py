"""Cyclic quotient singularities and their resolution chains.

A point of order r and type (p, q) is locally C^2 divided by Z_r acting as
(z1, z2) |-> (xi^p z1, xi^q z2) with xi a primitive r-th root of unity and
gcd(p, r) = gcd(q, r) = 1.  Types reduce to the form (1, q) by multiplying by
the inverse of p mod r, and the resolution replaces the point with a chain of
spheres whose self-intersections are the negated terms of the expansion of
r/k, k = q * p^{-1} mod r.
"""

from __future__ import annotations

from math import gcd

from ._value import Value
from .errors import DomainError, require_object, require_seq
from .hj import ext_gcd, hj_expand
from .homology import IntersectionLattice, lattice_from_parts


class CyclicSingularity(Value):
    """An isolated orbifold point of order ``order`` and type ``(p, q)``."""

    order: int
    p: int
    q: int

    def __post_init__(self):
        require_seq((self.order, self.p, self.q), int, "order and type must be integers")
        r = self.order
        if r < 1:
            raise DomainError(f"order must be >= 1, got {r}")
        if gcd(self.p, r) != 1 or gcd(self.q, r) != 1:
            raise DomainError(
                f"type ({self.p}, {self.q}) not coprime to order {r}"
            )

    @property
    def smooth(self) -> bool:
        return self.order == 1

    def canonical(self) -> "CyclicSingularity":
        """The equivalent type (1, q*p^{-1} mod r); order 1 maps to (1, 0)."""
        return CyclicSingularity(self.order, 1, resolution_params(self)[1])


class Chain(Value):
    """A chain of spheres Z1, ..., Zn with Zi.Zi <= -2 and Zi.Z(i+1) = 1."""

    self_intersections: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        require_seq(self.self_intersections, int, "chain self-intersections must be integers")
        if any(s > -2 for s in self.self_intersections):
            raise DomainError(
                f"chain self-intersections must be <= -2, got {self.self_intersections}"
            )
        require_seq(self.labels, str, "chain labels must be a list of strings")
        if len(self.labels) != len(self.self_intersections):
            raise DomainError("labels and self-intersections differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("chain labels must be distinct")

    def __len__(self) -> int:
        return len(self.self_intersections)

    def reversed(self) -> "Chain":
        """The same chain walked from the other end; labels reassigned
        left-to-right so label order always matches storage order."""
        return Chain(tuple(reversed(self.self_intersections)), self.labels)

    def lattice(self) -> IntersectionLattice:
        labels = self.labels
        pairs = {(labels[i], labels[i + 1]): 1 for i in range(len(labels) - 1)}
        selfs = dict(zip(labels, self.self_intersections))
        return lattice_from_parts(labels, pairs, selfs)


def chain_from_terms(terms, prefix: str = "Z") -> Chain:
    terms = tuple(terms)
    return Chain(
        tuple(-a for a in terms),
        tuple(f"{prefix}{i + 1}" for i in range(len(terms))),
    )


def resolution_params(s: CyclicSingularity) -> tuple[int, int]:
    """The pair (alpha, k) with alpha*p + beta*r = 1 and k = q*alpha mod r.

    For a smooth point both are 0 (no resolution data): ``ext_gcd(p, 1)``
    gives alpha = 0.
    """
    r = s.order
    _, alpha, _ = ext_gcd(s.p, r)
    return (alpha, (s.q * alpha) % r)


def resolve_cyclic(s: CyclicSingularity) -> Chain:
    """The resolution chain of a cyclic quotient point.

    With alpha the inverse of p mod r and k = q*alpha mod r, the chain
    self-intersections are the negated terms of the expansion of r/k.  A
    smooth point (r = 1) resolves to the empty chain.
    """
    require_object(s, CyclicSingularity, "s must be a CyclicSingularity")
    _, k = resolution_params(s)
    return chain_from_terms(hj_expand(s.order, k).terms)


def type_equivalent(s1: CyclicSingularity, s2: CyclicSingularity, oriented: bool = False) -> bool:
    """Whether two singularities have diffeomorphic neighborhoods.

    After reducing both to type (1, q), points of equal order r are
    equivalent iff q' = +-q or qq' = +-1 (mod r); under orientation-preserving
    maps only the + alternatives q' = q or qq' = 1 (mod r) survive.
    """
    for s in (s1, s2):
        require_object(s, CyclicSingularity, "s1 and s2 must be CyclicSingularity")
    require_object(oriented, bool, "oriented must be a bool")
    if s1.order != s2.order:
        return False
    r = s1.order
    _, q1 = resolution_params(s1)
    _, q2 = resolution_params(s2)
    if (q2 - q1) % r == 0 or (q1 * q2 - 1) % r == 0:
        return True
    if oriented:
        return False
    return (q2 + q1) % r == 0 or (q1 * q2 + 1) % r == 0


def same_resolution(s1: CyclicSingularity, s2: CyclicSingularity) -> bool:
    """Whether two singularities produce the same chain (up to reversal).

    This is oriented type equivalence, ``type_equivalent(s1, s2,
    oriented=True)``: k1 = k2 or k1*k2 = 1 (mod r) for the residues k_i of
    the two resolutions, since reversing the expansion of r/k yields the
    expansion of r/k' with kk' = 1 mod r.  Unequal orders never share a chain
    (the order is the chain's determinant).  The tests check it against its
    independent oracle, ``chains_equal_up_to_reversal`` on the two resolved
    chains.
    """
    return type_equivalent(s1, s2, oriented=True)


def chains_equal_up_to_reversal(c1: Chain, c2: Chain) -> bool:
    a, b = c1.self_intersections, c2.self_intersections
    return a == b or a == tuple(reversed(b))
