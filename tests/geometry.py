"""Moment-polygon corner cuts, kept as the geometry behind the tests'
polygon-replay oracle.

``test_blowup.polygon_replay`` cuts the corners of the quadrant (the moment
polygon of C^2) with ``corner_cut`` and reads each cut's label off the new
edge's outward conormal; the package computes the same labels by pure
integer arithmetic (``hjtoric.blowup.mcduff_sequence``).  Only open chains
are needed: the quadrant and every polygon cut from it.  Vertices are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from hjtoric.errors import DomainError

Vec = tuple[int, int]
Point = tuple[Fraction, Fraction]


def det2(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def primitive(v) -> Vec:
    """Primitive integer representative of a (possibly rational) direction."""
    fx, fy = Fraction(v[0]), Fraction(v[1])
    scale = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    x, y = int(fx * scale), int(fy * scale)
    if x == 0 and y == 0:
        raise DomainError("zero vector has no primitive representative")
    g = gcd(x, y)
    return (x // g, y // g)


@dataclass(frozen=True)
class Polygon:
    """An unbounded polygon boundary walked counterclockwise (interior on
    the left): ``ray_in`` points from ``vertices[0]`` to infinity along the
    first edge, ``ray_out`` from ``vertices[-1]`` along the last.

    Edge 0 is the incoming ray (walked from infinity to ``vertices[0]``),
    edge i for 1 <= i <= n-1 runs ``vertices[i-1]`` -> ``vertices[i]``, and
    edge n leaves ``vertices[-1]`` along ``ray_out``; vertex i sits between
    edges i and i + 1.
    """

    vertices: tuple[Point, ...]
    ray_in: Vec
    ray_out: Vec

    def __post_init__(self):
        if not self.vertices:
            raise DomainError("polygon needs at least one vertex")
        object.__setattr__(self, "vertices",
                           tuple((Fraction(x), Fraction(y)) for x, y in self.vertices))
        object.__setattr__(self, "ray_in", primitive(self.ray_in))
        object.__setattr__(self, "ray_out", primitive(self.ray_out))

    @property
    def edge_count(self) -> int:
        return len(self.vertices) + 1

    def edge_direction(self, i: int) -> Vec:
        """Primitive walking direction of edge i."""
        vs = self.vertices
        if i == 0:
            return (-self.ray_in[0], -self.ray_in[1])
        if i == len(vs):
            return self.ray_out
        a, b = vs[i - 1], vs[i]
        return primitive((b[0] - a[0], b[1] - a[1]))

    def conormal(self, i: int) -> Vec:
        """Outward primitive normal of edge i."""
        d = self.edge_direction(i)
        return (d[1], -d[0])

    def conormals(self) -> tuple[Vec, ...]:
        return tuple(self.conormal(i) for i in range(self.edge_count))

    def edge_lattice_length(self, i: int) -> Fraction | None:
        """Length in units of the primitive direction; None for a ray."""
        vs = self.vertices
        if i == 0 or i == len(vs):
            return None
        a, b = vs[i - 1], vs[i]
        d = self.edge_direction(i)
        return (b[0] - a[0]) / d[0] if d[0] != 0 else (b[1] - a[1]) / d[1]


def quadrant() -> Polygon:
    """The moment polygon of C^2: the first quadrant, corner at the origin,
    walked down the y axis and out along the x axis."""
    return Polygon(((0, 0),), (0, 1), (1, 0))


def corner_cut(poly: Polygon, vertex: int, size) -> Polygon:
    """Cut a smooth corner, replacing the vertex by an edge of lattice length
    ``size`` whose outward conormal is the sum of the two adjacent conormals.

    Rejects non-smooth vertices and cuts that would consume an incident
    bounded edge (size must be strictly below both incident lengths so every
    edge of the result has positive length).
    """
    size = Fraction(size)
    if size <= 0:
        raise DomainError(f"cut size must be positive, got {size}")
    n = len(poly.vertices)
    if not (0 <= vertex < n):
        raise DomainError(f"no vertex {vertex} in a {n}-vertex polygon")
    ein, eout = vertex, vertex + 1
    v = poly.vertices[vertex]
    u = poly.edge_direction(ein)
    u = (-u[0], -u[1])  # away from the vertex along the incoming edge
    wdir = poly.edge_direction(eout)
    if abs(det2(u, wdir)) != 1:  # parallel edges (determinant 0) included
        raise DomainError(f"vertex {vertex} is not smooth; refusing to cut")
    for e in (ein, eout):
        length = poly.edge_lattice_length(e)
        if length is not None and size >= length:
            raise DomainError(
                f"cut size {size} does not fit inside edge {e} of length {length}"
            )
    a = (v[0] + size * u[0], v[1] + size * u[1])
    b = (v[0] + size * wdir[0], v[1] + size * wdir[1])
    vs = list(poly.vertices)
    vs[vertex:vertex + 1] = [a, b]
    return Polygon(tuple(vs), poly.ray_in, poly.ray_out)
