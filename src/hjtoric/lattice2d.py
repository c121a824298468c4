"""Two-dimensional lattice geometry for moment polytopes.

Conormals are outward-pointing primitive integer normals of polygon edges;
the pair at a vertex determines the local quotient singularity through its
determinant.  Vertices are exact rationals.  Unbounded regions (wedges, the
quadrant) are stored as vertex chains with a ray at each end; bounded
polygons are cyclic vertex lists.

The plane embeddings at the end of the module realize the wedge of a
(p, q, -r) circle reduction inside the plane p*x + q*y - r*z = eps of R^3 and
are used as exact identities in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .hj import ext_gcd
from .rationals import rational_json

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


def _point(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _rotate_ccw(v: Vec) -> Vec:
    return (-v[1], v[0])


def outward_conormal(walk_direction: Vec) -> Vec:
    """Outward normal of an edge walked with the interior on the left."""
    d = primitive(walk_direction)
    return (d[1], -d[0])


def direction_of_conormal(n: Vec) -> Vec:
    """Walking direction (interior on the left) of an edge with conormal n."""
    return _rotate_ccw(primitive(n))


@dataclass(frozen=True)
class UnimodularAffineMap:
    """An integral linear map of determinant +-1 plus a rational translation.

    The linear part acts on lattice vectors (directions, conormals); points
    get the translation as well.
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    translation: Point = (Fraction(0), Fraction(0))

    def __post_init__(self):
        if abs(self.determinant) != 1:
            raise DomainError(f"matrix determinant must be +-1, got {self.determinant}")
        object.__setattr__(self, "translation", _point(self.translation))

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    @staticmethod
    def identity() -> "UnimodularAffineMap":
        return UnimodularAffineMap(((1, 0), (0, 1)))

    def linear(self, v: Vec) -> Vec:
        (a, b), (c, d) = self.matrix
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    def point(self, p) -> Point:
        p = _point(p)
        (a, b), (c, d) = self.matrix
        t = self.translation
        return (a * p[0] + b * p[1] + t[0], c * p[0] + d * p[1] + t[1])


@dataclass(frozen=True)
class Wedge:
    """A polytope corner: an apex and 2 (or 3, when truncated) conormals.

    Conormals are normalized to primitive representatives on construction and
    must be pairwise non-parallel.
    """

    apex: Point
    conormals: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "apex", _point(self.apex))
        conos = tuple(primitive(n) for n in self.conormals)
        if len(conos) not in (2, 3):
            raise DomainError("a wedge carries two or three conormals")
        for i in range(len(conos)):
            for j in range(i + 1, len(conos)):
                if det2(conos[i], conos[j]) == 0:
                    raise DomainError(f"parallel conormals {conos[i]}, {conos[j]}")
        object.__setattr__(self, "conormals", conos)

    def to_json(self) -> dict:
        return {
            "vertices": [[rational_json(self.apex[0]), rational_json(self.apex[1])]],
            "conormals": [list(n) for n in self.conormals],
        }


def apply_map(m: UnimodularAffineMap, obj):
    """Linear action on lattice vectors, affine action on wedge apexes."""
    if isinstance(obj, Wedge):
        return Wedge(m.point(obj.apex), tuple(m.linear(n) for n in obj.conormals))
    if isinstance(obj, Polygon):
        return Polygon(
            tuple(m.point(v) for v in obj.vertices),
            None if obj.ray_in is None else m.linear(obj.ray_in),
            None if obj.ray_out is None else m.linear(obj.ray_out),
        )
    return m.linear((int(obj[0]), int(obj[1])))


def is_smooth_vertex(w: Wedge) -> bool:
    """Whether the two conormals span the full lattice (determinant +-1)."""
    if len(w.conormals) != 2:
        raise DomainError("smoothness test needs a two-conormal wedge")
    return abs(det2(*w.conormals)) == 1


def standard_wedge(r: int, k: int) -> Wedge:
    return Wedge((Fraction(0), Fraction(0)), ((0, 1), (r, -k)))


def _normalization_for(u: Vec, v: Vec) -> tuple[tuple[tuple[int, int], tuple[int, int]], int, int]:
    """A unimodular matrix M with M(u) = (0, 1) and M(v) = (r, -k), plus r, k.

    r is |det(u, v)| and k the canonical residue: 0 for r = 1, otherwise the
    unique 1 <= k < r with k determined by the pair modulo r.
    """
    d = det2(u, v)
    r = abs(d)
    sigma = 1 if d > 0 else -1
    row1 = (-sigma * u[1], sigma * u[0])
    _, x, y = ext_gcd(u[0], u[1])
    row2 = (x, y)
    e = row2[0] * v[0] + row2[1] * v[1]
    k = (-e) % r
    t = (-k - e) // r
    row2 = (row2[0] + t * row1[0], row2[1] + t * row1[1])
    return ((row1, row2), r, k)


def normalize_vertex(w: Wedge) -> tuple[UnimodularAffineMap, Wedge]:
    """Move a two-conormal wedge to the standard form (0, 1), (r, -k).

    r is the absolute determinant of the conormal pair (the order of the
    quotient singularity at the vertex; r = 1 at a smooth vertex, where
    k = 0).  The returned map sends the input wedge onto the returned
    standard wedge, apex at the origin.  Both conormal orderings are tried
    and the one with the smaller residue wins (they give k and its inverse
    mod r); an input already in standard form gets the identity map.
    """
    if len(w.conormals) != 2:
        raise DomainError("normalization needs a two-conormal wedge")
    u, v = w.conormals
    candidates = []
    for a, b in ((u, v), (v, u)):
        matrix, r, k = _normalization_for(a, b)
        candidates.append((k, matrix, r))
    candidates.sort(key=lambda c: c[0])
    k, matrix, r = candidates[0]
    lin = UnimodularAffineMap(matrix)
    moved = lin.point(w.apex)
    full = UnimodularAffineMap(matrix, (-moved[0], -moved[1]))
    return (full, standard_wedge(r, k))


# -- polygons ----------------------------------------------------------------


@dataclass(frozen=True)
class Polygon:
    """A polygon boundary walked counterclockwise (interior on the left).

    Bounded polygons have ``ray_in = ray_out = None`` and cyclic vertices.
    Unbounded chains carry the two escape directions: ``ray_in`` points from
    ``vertices[0]`` to infinity along the first edge, ``ray_out`` from
    ``vertices[-1]`` along the last.
    """

    vertices: tuple[Point, ...]
    ray_in: Vec | None = None
    ray_out: Vec | None = None

    def __post_init__(self):
        if not self.vertices:
            raise DomainError("polygon needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(_point(v) for v in self.vertices))
        if (self.ray_in is None) != (self.ray_out is None):
            raise DomainError("open chains need both rays")
        if self.ray_in is not None:
            object.__setattr__(self, "ray_in", primitive(self.ray_in))
            object.__setattr__(self, "ray_out", primitive(self.ray_out))
        elif len(self.vertices) < 3:
            raise DomainError("a closed polygon needs at least three vertices")

    @property
    def closed(self) -> bool:
        return self.ray_in is None

    @property
    def edge_count(self) -> int:
        return len(self.vertices) + (0 if self.closed else 1)

    def edge_direction(self, i: int) -> Vec:
        """Primitive walking direction of edge i.

        Closed: edge i runs vertices[i] -> vertices[i+1 mod n].  Open: edge 0
        is the incoming ray (walked from infinity to vertices[0]), edge i for
        1 <= i <= n-1 runs vertices[i-1] -> vertices[i], and edge n leaves
        vertices[-1] along ray_out.
        """
        vs = self.vertices
        if self.closed:
            a, b = vs[i], vs[(i + 1) % len(vs)]
            return primitive((b[0] - a[0], b[1] - a[1]))
        if i == 0:
            return (-self.ray_in[0], -self.ray_in[1])
        if i == len(vs):
            return self.ray_out
        a, b = vs[i - 1], vs[i]
        return primitive((b[0] - a[0], b[1] - a[1]))

    def conormal(self, i: int) -> Vec:
        return outward_conormal(self.edge_direction(i))

    def conormals(self) -> tuple[Vec, ...]:
        return tuple(self.conormal(i) for i in range(self.edge_count))

    def edge_lattice_length(self, i: int) -> Fraction | None:
        """Length in units of the primitive direction; None for a ray."""
        vs = self.vertices
        if self.closed:
            a, b = vs[i], vs[(i + 1) % len(vs)]
        elif i == 0 or i == len(vs):
            return None
        else:
            a, b = vs[i - 1], vs[i]
        d = self.edge_direction(i)
        dx, dy = b[0] - a[0], b[1] - a[1]
        return dx / d[0] if d[0] != 0 else dy / d[1]

    def vertex_edges(self, i: int) -> tuple[int, int]:
        """Indices of the (incoming, outgoing) edges at vertex i."""
        if self.closed:
            return ((i - 1) % len(self.vertices), i)
        return (i, i + 1)

    def vertex_wedge(self, i: int) -> Wedge:
        ein, eout = self.vertex_edges(i)
        return Wedge(self.vertices[i], (self.conormal(ein), self.conormal(eout)))

    def to_json(self) -> dict:
        return {
            "vertices": [[rational_json(x), rational_json(y)] for x, y in self.vertices],
            "conormals": [list(self.conormal(i)) for i in range(self.edge_count)],
        }


def wedge_polygon(w: Wedge) -> Polygon:
    """The unbounded polygon bounded by a two-conormal wedge."""
    if len(w.conormals) != 2:
        raise DomainError("only two-conormal wedges convert to polygons")
    na, nb = w.conormals

    def edge_ray(n: Vec, other: Vec) -> Vec:
        d = direction_of_conormal(n)
        # the edge ray must lie weakly inside the other supporting half-plane
        if other[0] * d[0] + other[1] * d[1] <= 0:
            return d
        return (-d[0], -d[1])

    ra, rb = edge_ray(na, nb), edge_ray(nb, na)
    # choose which ray is incoming: the turn incoming -> outgoing is a left turn
    if det2((-ra[0], -ra[1]), rb) > 0:
        ray_in, ray_out = ra, rb
    else:
        ray_in, ray_out = rb, ra
    return Polygon((w.apex,), ray_in, ray_out)


def quadrant() -> Polygon:
    """The moment polygon of C^2: the first quadrant, corner at the origin."""
    return wedge_polygon(Wedge((0, 0), ((-1, 0), (0, -1))))


def corner_cut(poly, vertex: int, size) -> Polygon:
    """Cut a smooth corner, replacing the vertex by an edge of lattice length
    ``size`` whose outward conormal is the sum of the two adjacent conormals.

    Rejects non-smooth vertices and cuts that would consume an incident
    bounded edge (size must be strictly below both incident lengths so every
    edge of the result has positive length).
    """
    if isinstance(poly, Wedge):
        poly = wedge_polygon(poly)
    size = Fraction(size)
    if size <= 0:
        raise DomainError(f"cut size must be positive, got {size}")
    n = len(poly.vertices)
    if not (0 <= vertex < n):
        raise DomainError(f"no vertex {vertex} in a {n}-vertex polygon")
    ein, eout = poly.vertex_edges(vertex)
    v = poly.vertices[vertex]
    u = poly.edge_direction(ein)
    u = (-u[0], -u[1])  # away from the vertex along the incoming edge
    wdir = poly.edge_direction(eout)
    if abs(det2(u, wdir)) != 1:  # parallel edges (determinant 0) included
        raise DomainError(f"vertex {vertex} is not smooth; refusing to cut")
    for e, length in ((ein, poly.edge_lattice_length(ein)), (eout, poly.edge_lattice_length(eout))):
        if length is not None and size >= length:
            raise DomainError(
                f"cut size {size} does not fit inside edge {e} of length {length}"
            )
    a = (v[0] + size * u[0], v[1] + size * u[1])
    b = (v[0] + size * wdir[0], v[1] + size * wdir[1])
    vs = list(poly.vertices)
    vs[vertex:vertex + 1] = [a, b]
    return Polygon(tuple(vs), poly.ray_in, poly.ray_out)


# -- the local model of a (p, q, -r) circle reduction ------------------------


def _require_weights(p: int, q: int, r: int) -> None:
    if min(p, q, r) < 1:
        raise DomainError(f"weights must be positive, got ({p}, {q}, {r})")
    for a, b in ((p, r), (q, r), (p, q)):
        if gcd(a, b) != 1:
            raise DomainError(f"weights ({p}, {q}, {r}) must be pairwise coprime")


def local_model_wedge(p: int, q: int, r: int, level: int = 0) -> Wedge:
    """Moment wedge of the reduced space of the (p, q, -r) circle action.

    At the critical level the wedge has conormals (0, -1) and (-r, q*alpha)
    where alpha*p + beta*r = 1; just above it the corner is truncated and the
    third conormal (-p, -q*beta) appears.  ``level`` is a sign: 0 for the
    critical level, positive for just above.  Apexes sit at the origin.
    """
    _require_weights(p, q, r)
    if level < 0:
        raise DomainError("level must be 0 or positive (reduction below is smooth)")
    _, alpha, beta = ext_gcd(p, r)
    if level == 0:
        return Wedge((0, 0), ((0, -1), (-r, q * alpha)))
    return Wedge((0, 0), ((0, -1), (-r, q * alpha), (-p, -q * beta)))


def truncation_edge(p: int, q: int, r: int, eps):
    """Endpoints of the truncation edge of the level-eps wedge.

    Computed as the images of (0, 0) and (-eps*beta/p, eps/q) under the
    embedding below, i.e. (eps/p, 0, 0) and (0, eps/q, 0); no closed form
    for the lattice length is asserted.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"the truncation edge needs eps > 0, got {eps}")
    _, _, beta = ext_gcd(p, r)
    return (
        phi_embed(p, q, r, eps, 0, 0),
        phi_embed(p, q, r, eps, Fraction(-eps * beta, p), Fraction(eps, q)),
    )


def phi_embed(p: int, q: int, r: int, eps, a, b) -> tuple[Fraction, Fraction, Fraction]:
    """Affine embedding of the local wedge into the plane px + qy - rz = eps.

    With alpha*p + beta*r = 1 the image of (a, b) is

        (a*r - b*q*alpha + eps/p,  b,  a*p + b*q*beta),

    so (1, 0) at eps = 0 goes to (r, 0, p) and (q*alpha, r) to (0, r, q).
    The plane identity holds for every rational (a, b) and eps >= 0.
    """
    _require_weights(p, q, r)
    eps = Fraction(eps)
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    a = Fraction(a)
    b = Fraction(b)
    _, alpha, beta = ext_gcd(p, r)
    return (
        a * r - b * q * alpha + eps / p,
        b,
        a * p + b * q * beta,
    )
