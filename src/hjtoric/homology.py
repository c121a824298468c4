"""Intersection lattices of labeled sphere classes, with exact signature.

A lattice is a finite ordered basis of labeled classes, a symmetric integer
pairing and an integer c1 label per class.  Embedded-sphere classes obey the
adjunction rule ``c1 = 2 + self-intersection``, so a (-1)-class with c1 = 1
is an exceptional class and an element of a resolution chain has
``c1 = 2 - a`` for self-intersection ``-a``.  A store given no c1 takes
it by that rule in ``IntersectionLattice._sparse``, and no lattice is
written after it is built, but for its cached ``pairing`` view.

Every lattice the package builds is a plumbing graph: a resolution chain,
E~ joined to two chains, a direct sum of those, and their blowups and
blowdowns.  Such a form has a few nonzero entries per class, so it is stored
sparse: the labels in basis order, a self-intersection and a c1 per label,
and an edge map holding only the nonzero pairings of distinct classes.
Blowups, blowdowns and sums touch only the classes they change and are
symmetric by construction; the dense ``pairing`` matrix is a read-only view
built on demand, for JSON output and for callers that want rows.  A sparse
pairing in JSON text as ``json.dumps`` writes it, at the text's first ``[[``,
is read with no dense list: one C-speed split into zero gaps and nonzero
tokens, one compare of the gaps with the zero matrix's text, and ``int`` on
the tokens alone; the rest of the text, with ``NaN`` in the pairing's place
and no other ``NaN``, goes through ``json``'s decoder.

Public operations never mutate, so values can be shared freely across
threads: each returns a fresh lattice value, but a construction left with no
class returns the one shared ``empty_lattice()``.  ``blow_up_at`` and
``blow_down`` copy the store once and edit the copy with the private kernels
``_blow_up`` and ``_forced_contractions``; a weighted blowdown of n steps
copies once and runs a kernel on its own store, O(n) in total.  The cut
replay (``McDuffSequence.lattice``) runs no kernel: it puts each cut's class
in between its flanks on a fresh store.  Rows shared with other lattices are
never written: ``_forced_contractions`` copies an edge-map row before
writing to it, and ``_blow_up`` writes the touched rows in place, so
``blow_up_at`` copies those rows first.
``_forced_contractions``, the general contraction walk, is a generator its
callers step: ``blow_down`` once, ``blowup.weighted_blowdown`` to the end on a
configuration its path walk (for that shape alone) does not empty and
``chain_contact_replay`` until a class that E' meets is at -1.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Mapping, Sequence
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress, count, islice, repeat
from math import gcd
from operator import add
from types import MappingProxyType

from ._value import Value
from .errors import DomainError, StructureError, require_int, require_object, require_seq


_MARK = bytes.maketrans(b"-123456789", b"x" * 10)  # so a nonzero token is x, then x or 0
_TOKENS = re.compile(rb"(x[x0]*)").split  # the zero gaps, with the nonzero tokens between
_CUT = object()  # the pairing, cut out of the text and read back as its one NaN
_DECODE = json.JSONDecoder(parse_constant=lambda c: _CUT if c == "NaN" else float(c)).decode


def _text_cells(text, i) -> tuple[tuple[int, list], int]:
    """The pairing at ``text[i]`` as ``(n, cells)``, its nonzeros ``(row,
    column, value)`` in row-major order, and the index past it, if
    ``json.dumps`` could have written it without ``indent`` (items split by
    "," or ", ") and it is sparse; otherwise a ValueError.  n is the length
    of the first row.  The rows, as ASCII bytes with ``-`` and ``1``-``9``
    marked, are split once at C speed into zero gaps and nonzero tokens;
    more tokens than about 5% of the cells is a dense pairing.  Then one
    compare: the gaps joined by ``0`` must be the rows of the all-zero
    n x n matrix, built by string multiplication.  And one more: the tokens
    must read as ``str`` writes ints, none 0 (not ``-0``, ``01``, ``+1``,
    ``1_0``, " 1", non-ASCII digits).  A token's cell is read off the gap
    lengths before it."""
    sep = ", " if text.startswith("], [", first := text.find("]", i)) else ","
    n, w = text.count(sep, i, first) + 1, len(sep) + 1  # the first row's items; an item's width
    # "]]" comes w*n*n + 2*n + 1 - w characters or more past "[[": if it is not there, the
    # pairing is not n x n, and the zero matrix is not built
    if not text.startswith("[[", i) or (end := text.find("]]", i + w * n * n + 2 * n + 1 - w)) < 0:
        raise ValueError("not a pairing as json.dumps writes one")
    parts = _TOKENS(text[i + 1:end + 1].encode("ascii").translate(_MARK))  # non-ASCII: ValueError
    layout, lens = b"0".join(parts[::2]), list(map(len, parts))  # each token put back as one 0
    del parts  # the gaps go before the zero matrix is built
    if 20 * (len(lens) // 2) > n * n + 4096:  # tokens in over 5% of cells: json.loads is faster
        raise ValueError("a dense pairing")
    if layout != sep.encode().join([("[0" + (sep + "0") * (n - 1) + "]").encode()] * n):
        raise ValueError("not the layout json.dumps writes")
    ends = list(accumulate(lens, initial=i + 1))
    tokens = list(map(text.__getitem__, map(slice, ends[1::2], ends[2::2])))
    ints = list(map(int, tokens))  # a ValueError past 4300 digits
    if ",".join(map(str, ints)) != ",".join(tokens):  # a token starts "-" or 1-9: none is "0"
        raise ValueError("a token not as str writes an int")
    # a token's index in the layout, r*(n*w + 2) + 1 + c*w (1 < w): its gaps, one 0 per token before
    at = map(divmod, map(add, accumulate(lens[:-1:2]), count()), repeat(n * w + 2))
    return (n, [(r, c // w, v) for (r, c), v in zip(at, ints)]), end + 2


def _read_text(text: str) -> "IntersectionLattice | None":
    """``from_json`` of text cut at its first ``[[``: that pairing read by ``_text_cells``,
    and the rest, with a ``NaN`` in its place and none elsewhere, decoded by ``json``; the
    read counts if that ``NaN`` is the object's ``"pairing"`` (a repeated key: the last one
    counts, as in ``json.loads``).  None on other text or an anomaly."""
    try:  # no "[[" at all: find gives -1, which _text_cells refuses
        (n, cells), end = _text_cells(text, i := text.find("[["))
        head, tail = text[:i], text[end:]
        fields = None if "NaN" in head or "NaN" in tail else _DECODE(head + "NaN" + tail)
    except (ValueError, RecursionError):  # bad JSON, too deep, >4300 digits, not dumps text
        return None
    if type(fields) is not dict or fields.get("pairing") is not _CUT:
        return None
    classes, c1 = fields.get("classes"), fields.get("c1")
    classes = [f"C{i + 1}" for i in range(n)] if classes is None else classes
    if type(classes) is not list or len(classes) != n or not {str}.issuperset(
            map(type, classes)) or len(set(classes)) != n or c1 is not None and (
            type(c1) is not list or len(c1) != n or not {int}.issuperset(map(type, c1))):
        return None
    if set(cells) != {(c, r, v) for r, c, v in cells}:
        return None
    self_, edges = dict.fromkeys(classes, 0), {l: {} for l in classes}
    for r, c, v in cells:  # row-major: each row's neighbours in column order
        if r == c:
            self_[classes[r]] = v
        else:
            edges[classes[r]][classes[c]] = v
    return IntersectionLattice._sparse(self_, None if c1 is None else dict(zip(classes, c1)), edges)


def _dense_store(classes, pairing, c1) -> tuple[dict, dict, dict]:
    """The store of ``IntersectionLattice(classes, pairing, c1)``, after the
    constructor's checks: the one dense read."""
    classes = require_seq(classes, str, "class labels must be a list of strings")
    n = len(classes)
    if len(set(classes)) != n:
        raise DomainError("class labels must be distinct")
    rows = require_seq(pairing, None, "a pairing must be a list of rows")
    for row in rows:  # require_seq's test for ints, without its tuple copy
        if not isinstance(row, (list, tuple)) or not {int}.issuperset(map(type, row)):
            raise DomainError(f"each pairing row must be a list of integers, got {row!r}")
    if any(len(row) != len(rows) for row in rows):
        raise DomainError("pairing matrix must be square")
    if len(rows) != n:
        raise DomainError("pairing matrix shape does not match class count")
    c1 = require_seq(c1, int, "c1 must be a list of integers")
    if len(c1) != n:
        raise DomainError("c1 labels do not match class count")
    cols = list(range(n))  # compress reads stored ints, with no int made per entry
    nonzero = [list(islice(compress(cols, row), n - row.count(0))) for row in rows]
    # an asymmetric pair has a nonzero side, so comparing there is enough
    if not all(rows[j][i] == row[j] for i, row, js in zip(cols, rows, nonzero) for j in js):
        i, j = next((i, j) for i in cols for j in range(i + 1, n) if rows[i][j] != rows[j][i])
        raise DomainError(f"pairing not symmetric at ({i}, {j})")
    return ({l: row[i] for i, l, row in zip(cols, classes, rows)}, dict(zip(classes, c1)),
            {l: {classes[j]: row[j] for j in js if j != i}
             for i, l, row, js in zip(cols, classes, rows, nonzero)})


class IntersectionLattice:
    """Labeled classes with a symmetric integer pairing and c1 labels.

    ``IntersectionLattice(classes, pairing, c1)`` reads a dense square
    pairing matrix and checks it, in this order: lists (or tuples) of
    distinct str labels, of rows and of c1 labels, int entries and c1
    labels (a bool, a float or a Fraction is a DomainError), a square shape,
    one row and one c1 per class, and symmetry.  It makes one C-speed type pass per row;
    ``compress`` then finds the row's nonzeros, stopping at the count that
    ``row.count(0)`` gives, and symmetry is compared at the nonzeros only
    (an asymmetric pair has a nonzero side), with no dense copy.  It is the
    one dense read: ``signature`` reads a list of rows through it, and
    ``from_json`` any object or text that the sparse text read refuses.
    The other functions here build the sparse store, which is valid by
    construction.

    The store is a self-intersection and a c1 per label, and an edge map
    ``label -> {neighbour: pairing}`` with nonzero entries only, each edge
    kept under both ends.  The three dicts keep their labels in basis order,
    so ``classes`` is the key order of the self-intersections.  ``pair``,
    ``self_intersection``, ``c1_of`` and ``neighbours`` are dict lookups.
    ``pairing`` (built once), ``classes`` and ``c1`` (built on each read)
    are tuple views in basis order.  Lattices are immutable values, equal
    when their classes, in order, their pairings and their c1 labels agree.
    """

    __slots__ = ("_self", "_c1", "_edges", "_pairing")

    def __init__(self, classes, pairing, c1):
        self._self, self._c1, self._edges = _dense_store(classes, pairing, c1)
        self._pairing = None

    @classmethod
    def _sparse(cls, self_, c1, edges) -> "IntersectionLattice":
        """A lattice from a sparse store that is symmetric by construction;
        the keys of ``self_`` are the labels in basis order.  ``c1=None``
        takes c1 by adjunction, the one copy of that rule for a store."""
        lat = cls.__new__(cls)
        lat._self, lat._edges, lat._pairing = self_, edges, None
        lat._c1 = {l: 2 + s for l, s in self_.items()} if c1 is None else c1
        return lat

    def _store(self) -> tuple[dict, dict, dict]:
        """A private copy of the store for the kernels to edit.  The edge
        rows are still shared with this lattice: a caller copies a row
        before a kernel writes it in place."""
        return dict(self._self), dict(self._c1), dict(self._edges)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntersectionLattice):
            return NotImplemented
        return (self.classes == other.classes and self._self == other._self
                and self._c1 == other._c1 and self._edges == other._edges)

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return (f"IntersectionLattice(classes={self.classes!r}, "
                f"pairing={self.pairing!r}, c1={self.c1!r})")

    # -- basic queries ----------------------------------------------------

    @property
    def classes(self) -> tuple[str, ...]:
        """The labels in basis order, read from the store on each call."""
        return tuple(self._self)

    @property
    def pairing(self) -> tuple[tuple[int, ...], ...]:
        """The dense pairing matrix in basis order (built on first use)."""
        if self._pairing is None:
            n = len(self._self)
            pos = {l: i for i, l in enumerate(self._self)}
            rows = []
            for i, (l, s) in enumerate(self._self.items()):
                row = [0] * n
                row[i] = s
                for m, v in self._edges[l].items():
                    row[pos[m]] = v
                rows.append(tuple(row))
            self._pairing = tuple(rows)
        return self._pairing

    @property
    def c1(self) -> tuple[int, ...]:
        """The c1 labels in basis order, read from the store on each call."""
        return tuple(map(self._c1.__getitem__, self._self))

    def __len__(self) -> int:
        return len(self._self)

    def _check(self, label: str) -> None:
        # the type test first: an unhashable label cannot be looked up
        if type(label) is not str or label not in self._self:
            raise DomainError(f"no class labeled {label!r}")

    def neighbours(self, label: str) -> Mapping[str, int]:
        """The classes meeting ``label``, with their nonzero pairings."""
        self._check(label)
        return MappingProxyType(self._edges[label])

    def pair(self, a: str, b: str) -> int:
        self._check(a)
        self._check(b)
        return self._self[a] if a == b else self._edges[a].get(b, 0)

    def self_intersection(self, label: str) -> int:
        self._check(label)
        return self._self[label]

    def c1_of(self, label: str) -> int:
        self._check(label)
        return self._c1[label]

    def is_exceptional(self, label: str) -> bool:
        """A (-1)-sphere class: self-intersection -1 and c1 = 1."""
        return self.self_intersection(label) == -1 and self._c1[label] == 1

    def exceptional_classes(self) -> tuple[str, ...]:
        return tuple(l for l, s in self._self.items() if s == -1 and self._c1[l] == 1)

    # -- construction helpers ---------------------------------------------

    def direct_sum(self, *others: "IntersectionLattice") -> "IntersectionLattice":
        """The orthogonal sum of this lattice and ``others``, each merged once."""
        self_, c1, edges = dict(self._self), dict(self._c1), dict(self._edges)
        for other in others:
            require_object(other, IntersectionLattice, "summands must be IntersectionLattices")
            self_.update(other._self)
            c1.update(other._c1)
            edges.update(other._edges)
        if len(self_) != len(self) + sum(map(len, others)):
            raise DomainError("class labels must be distinct")
        return IntersectionLattice._sparse(self_, c1, edges)

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "classes": list(self._self),
            "pairing": [list(r) for r in self.pairing],
            "c1": list(self.c1),
        }

    @staticmethod
    def from_json(obj: dict | str) -> "IntersectionLattice":
        """Read ``{"pairing": [[...]], "classes": [...], "c1": [...]}``.

        ``classes`` and ``c1`` are optional (absent or null: ``C1..Cn`` and
        adjunction, which ``_sparse`` fills in, so no built lattice is
        written).  Malformed JSON, a non-square pairing, entries that are
        not integers (floats, booleans) and class labels that are not
        strings raise DomainError.  Text as ``json.dumps`` writes it without
        ``indent`` is read sparse if its first ``[[`` is the pairing and it
        holds no ``NaN``: the pairing is split once at C speed at the nonzero
        tokens, which at most about 5% of the cells may be, the gaps between
        them are compared once with the zero matrix's text, and only the
        tokens are parsed; the rest, with ``NaN`` in the pairing's place,
        goes through ``json``'s decoder.  An object, any other text and any
        anomaly are decoded by ``json.loads`` and read with the constructor's
        checks and messages.  Each read builds one lattice value.
        """
        if isinstance(obj, str):
            if (lat := _read_text(obj)) is not None:
                return lat
            try:
                obj = json.loads(obj)
            except (ValueError, RecursionError) as exc:  # bad JSON, too deep, >4300 digits
                raise DomainError(f"malformed JSON input: {exc}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("pairing"), list):
            raise DomainError('a lattice is an object with a "pairing" matrix')
        n = len(obj["pairing"])
        classes = [f"C{i + 1}" for i in range(n)] if obj.get("classes") is None else obj["classes"]
        c1 = obj.get("c1")
        self_, c1s, edges = _dense_store(classes, obj["pairing"], [0] * n if c1 is None else c1)
        return IntersectionLattice._sparse(self_, None if c1 is None else c1s, edges)


_EMPTY = IntersectionLattice._sparse({}, {}, {})


def empty_lattice() -> IntersectionLattice:
    """The package's one empty lattice, shared: no operation writes a lattice."""
    return _EMPTY


def add_class(
    lat: IntersectionLattice,
    label: str,
    self_intersection: int,
    pairings: dict[str, int] | None = None,
) -> IntersectionLattice:
    """Adjoin one labeled class with prescribed pairings, a dict label ->
    int, and c1 by adjunction.  Useful for synthetic configurations in
    tests and models."""
    require_seq([label], str, "a class label must be a string")
    require_int(self_intersection, "self-intersection must be an integer")
    if pairings is None:
        pairings = {}
    require_object(pairings, dict, "pairings must be a dict label -> integer")
    require_seq(list(pairings.values()), int, "pairings must be integers")
    if label in _lattice(lat)._self:
        raise DomainError(f"label {label!r} already present")
    for other in pairings:
        lat._check(other)
    row = {other: v for other, v in pairings.items() if v}
    edges = dict(lat._edges)
    for other, v in row.items():
        edges[other] = {**edges[other], label: v}
    edges[label] = row
    return IntersectionLattice._sparse(
        {**lat._self, label: self_intersection},
        {**lat._c1, label: 2 + self_intersection},
        edges,
    )


def lattice_from_parts(
    labels: Sequence[str],
    pairs: dict[tuple[str, str], int],
    self_intersections: dict[str, int],
) -> IntersectionLattice:
    """Build a lattice from sparse data, a list of labels and dicts
    (label, label) -> pairing and label -> self-intersection; ``_sparse``
    sets c1 by adjunction.  A pair given in both orders is a DomainError."""
    classes = require_seq(labels, str, "labels must be a list of strings")
    require_object(pairs, dict, "pairs must be a dict (label, label) -> integer")
    require_object(self_intersections, dict, "self-intersections must be a dict label -> integer")
    require_seq([*pairs.values(), *self_intersections.values()], int,
                "pairings and self-intersections must be integers")
    for key in pairs:
        if len(require_seq(key, str, "a pair must be a tuple of two labels")) != 2:
            raise DomainError(f"a pair must be a tuple of two labels, got {key!r}")
    self_ = dict.fromkeys(classes, 0)
    if len(self_) != len(classes):
        raise DomainError("class labels must be distinct")
    for l in chain(*pairs, self_intersections):
        if l not in self_:
            raise DomainError(f"no class labeled {l!r}")
    self_.update(self_intersections)
    edges: dict[str, dict[str, int]] = {l: {} for l in classes}
    for (a, b), v in pairs.items():
        if a == b:
            raise DomainError(f"pair ({a!r}, {a!r}) is a self-intersection, not a pairing")
        if (b, a) in pairs:
            raise DomainError(f"pair ({a!r}, {b!r}) is given in both orders")
        if v:
            edges[a][b] = edges[b][a] = v
    return IntersectionLattice._sparse(self_, None, edges)


def _with_prefix(lat: IntersectionLattice, prefix: str) -> IntersectionLattice:
    """``lat`` with ``prefix`` put before every label, in the same basis
    order.  A common prefix keeps distinct labels distinct, so the result
    is valid by construction."""
    return IntersectionLattice._sparse(
        {prefix + l: s for l, s in lat._self.items()},
        {prefix + l: c for l, c in lat._c1.items()},
        {prefix + l: {prefix + m: v for m, v in row.items()} for l, row in lat._edges.items()})


def _lattice(lat) -> IntersectionLattice:
    """``lat`` itself if it is a lattice; otherwise a DomainError."""
    return require_object(lat, IntersectionLattice, "lat must be an IntersectionLattice")


# -- signature --------------------------------------------------------------


def signature(form) -> tuple[int, int, int]:
    """Counts ``(b_plus, b_minus, b_zero)`` of a symmetric form.

    ``form`` is a lattice, or a list of rows of ints read by the public
    constructor, which checks the entries, the shape and the symmetry; any
    other form or entry, a Fraction included, is a DomainError.  Computed by
    symmetric (congruence) elimination, each diagonal entry an int pair
    ``(num, den > 0)`` in lowest terms, in two phases.  First, leaves are
    peeled on the read-only store from a stack seeded in basis order: a
    class meeting nothing counts by the sign of its diagonal d; a leaf is a
    1x1 pivot that subtracts m^2/d from its neighbour's diagonal if d != 0,
    else a 2x2 hyperbolic pivot with its neighbour (determinant -m^2 < 0:
    one plus and one minus) that changes no other entry.  No row is copied:
    on a forest, every plumbing graph included, this is the whole
    elimination, O(n) (on a chain, the continued fraction).  The cycle core
    left over (empty on a forest), with its diagonals and original edges,
    goes on to a heap at a class of least remaining degree (ties to basis
    order), where a pivot of degree k updates O(k^2) entries.  A list of
    rows is read first by the constructor: a type pass and a nonzero scan
    per row, no dense copy.  The triple is a congruence invariant,
    independent of basis and of pivot order.
    """
    if not isinstance(form, IntersectionLattice):
        rows = require_seq(form, None, "a form must be a lattice or a list of integer rows")
        form = IntersectionLattice(tuple(map(str, range(len(rows)))), rows, (0,) * len(rows))
    graph = form._edges
    num = dict(form._self)  # the diagonals num/den of the classes left
    den = dict.fromkeys(num, 1)
    degree = dict(zip(graph, map(len, graph.values())))
    b_plus = b_minus = 0  # b_zero: the classes counted by neither
    stack = [l for l in reversed(num) if degree[l] < 2]  # a class goes on once: now or at degree 1
    while stack:
        v = stack.pop()
        if v not in num:
            continue  # gone in a hyperbolic pair
        dn = num.pop(v)
        if dn > 0:
            b_plus += 1
        elif dn < 0:
            b_minus += 1
        for w, m in graph[v].items():
            if w in num:
                break
        else:
            continue  # v meets nothing left
        if dn:  # num/den of w -= m^2 / (dn/den[v])
            n, d = num[w] * dn - m * m * den[v] * den[w], den[w] * dn
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            num[w], den[w] = n // g, d // g
            drop = (w,)
        else:
            b_plus += 1
            b_minus += 1
            del num[w]
            drop = graph[w]
        for k in drop:
            if k in num:
                degree[k] -= 1
                if degree[k] == 1:
                    stack.append(k)
    rank = dict(zip(num, range(len(num))))  # the tie-break: basis order
    edges = {l: {m: (x, 1) for m, x in graph[l].items() if m in num} for l in num}
    heap = [(len(row), rank[l], l) for l, row in edges.items()]
    heapify(heap)

    def sub(k, l, n, d):  # M[k][l] -= n/d
        if k == l:
            num[k], den[k] = _minus((num[k], den[k]), n, d)
        elif n:
            x = _minus(edges[k].get(l, (0, 1)), n, d)
            if x[0]:
                edges[k][l] = edges[l][k] = x
            else:
                del edges[k][l], edges[l][k]

    while heap:
        deg, _, v = heappop(heap)
        a = edges[v]
        if a is None or len(a) != deg:
            continue  # a stale entry: v is gone or its degree changed
        edges[v] = None
        dn, dd = num[v], den[v]
        for k in a:
            del edges[k][v]
        if dn > 0:
            b_plus += 1
        elif dn < 0:
            b_minus += 1
        touched = a
        if dn:
            # M[k][l] -= a_k a_l / d over the neighbours of v
            items = list(a.items())
            for idx, (k, (kn, kd)) in enumerate(items):
                for l, (ln, ld) in items[idx:]:
                    sub(k, l, kn * ln * dd, kd * ld * dn)
        elif a:
            # pivot on the block [[0, m], [m, dw]] of v and a neighbour w;
            # its Schur complement subtracts (a c~^T + c~ a^T) / m, where a
            # and c are the columns of v and w and c~ = c - dw/(2m) a, so
            # nothing changes when v is a leaf
            b_plus += 1
            b_minus += 1
            w = min(a, key=lambda u: (len(edges[u]), rank[u]))
            mn, md = a.pop(w)
            c, edges[w] = edges[w], None
            for k in c:
                del edges[k][w]
            wn, wd = num[w], den[w]
            ct = dict(c)
            for k, (an, ad) in a.items():
                ct[k] = _minus(ct.get(k, (0, 1)), wn * md * an, wd * 2 * mn * ad)
            for k, (an, ad) in a.items():
                for l, (cn, cd) in ct.items():
                    sub(k, l, (2 if k == l else 1) * an * cn * md, ad * cd * mn)
            touched = ct
        for k in touched:
            heappush(heap, (len(edges[k]), rank[k], k))
    return (b_plus, b_minus, len(form) - b_plus - b_minus)


def _minus(x, n, d):
    """``x - n/d`` in lowest terms, for a pair ``x`` and ``d != 0``."""
    n, d = x[0] * d - n * x[1], x[1] * d
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g


# -- blowups / blowdowns -----------------------------------------------------


def blow_down(lat: IntersectionLattice, label: str) -> IntersectionLattice:
    """Contract an exceptional class, pushing forward every other class.

    For a class C meeting the contracted class e in m = C.e points, the image
    downstairs is C + m*e: self-intersection grows by m^2, c1 by m, and the
    pairing of survivors C, D grows by (C.e)(D.e).  This is the unique rule
    making contraction inverse to blowing up a transverse configuration.
    One copy of the store, then O(deg(e)^2) for the contraction itself.
    """
    require_seq([label], str, "a class label must be a string")
    _require_exceptional(_lattice(lat), label)
    store = lat._store()
    next(_forced_contractions(store, (label,)))
    return IntersectionLattice._sparse(*store)


def blow_up_at(
    lat: IntersectionLattice, touched: Sequence[str], label: str
) -> IntersectionLattice:
    """Blow up a point lying on the listed classes (transversally, once each).

    Inverse of :func:`blow_down` for this configuration: the new class e has
    e^2 = -1 and c1 = 1, each touched class C is replaced by its proper
    transform C - e (self-intersection and c1 drop by 1, C.e = 1), and two
    touched classes through the point lose one mutual intersection.  One
    copy of the store, then O(len(touched)^2) for the blowup itself.
    """
    touched = require_seq(touched, str, "touched classes must be a list of labels")
    require_seq([label], str, "a class label must be a string")
    store = _lattice(lat)._store()
    edges = store[2]
    edges.update({t: dict(edges[t]) for t in touched if t in edges})  # rows _blow_up writes
    _blow_up(store, touched, label)
    return IntersectionLattice._sparse(*store)


def _blow_up(store, touched: Sequence[str], label: str) -> None:
    """The kernel of :func:`blow_up_at`: edit ``store`` (self-intersections,
    c1 labels, edge map; owned by the caller) in place, with the same checks.
    It writes the rows of the touched classes, which the caller owns too."""
    self_, c1, edges = store
    if label in self_:
        raise DomainError(f"label {label!r} already present")
    for t in touched:
        if t not in self_:
            raise DomainError(f"no class labeled {t!r}")
    if len(set(touched)) != len(touched):
        raise DomainError("touched classes must be distinct")
    for t in touched:
        self_[t] -= 1
        c1[t] -= 1
        row = edges[t]
        for u in touched:
            if u != t:
                _bump(row, u, -1)
        row[label] = 1
    self_[label], c1[label], edges[label] = -1, 1, dict.fromkeys(touched, 1)


def _bump(row: dict, key: str, x: int) -> None:
    """``row[key] += x`` for ``x != 0``; an edge row holds nonzero entries only."""
    if v := row.get(key, 0) + x:
        row[key] = v
    else:
        del row[key]


def _require_exceptional(lat: IntersectionLattice, label: str) -> None:
    """A DomainError unless ``label`` is a (-1)-class of ``lat`` with c1 = 1."""
    lat._check(label)
    s, c = lat._self[label], lat._c1[label]
    if s != -1 or c != 1:
        raise DomainError(
            f"cannot contract {label!r}: needs self-intersection -1 and c1 = 1, "
            f"has {s} and c1 = {c}"
        )


def _forced_contractions(store, labels: Sequence[str]) -> Iterator[tuple[str, dict]]:
    """Contract ``labels`` in ``store`` (owned by the caller) in their forced
    order, one (-1)-class with c1 = 1 at a time (of several, the earliest label),
    as :func:`blow_down` does, until none is ready.  A generator: it yields
    each class just contracted with the row of the classes it met, and a
    caller that stops reading contracts nothing more.  One pass over the met
    classes edits them (rows by copy) and updates their readiness; only they
    can change it, so the walk is O(n)."""
    self_, c1, edges = store
    order, ready = {}, []  # ready: usually one long
    for i, l in enumerate(labels):
        if l not in order and self_[l] == -1 and c1[l] == 1:
            ready.append(l)
        order[l] = i
    while ready:
        label = min(ready, key=order.__getitem__)
        ready.remove(label)
        del order[label], self_[label], c1[label]
        met = edges.pop(label)
        pairs = met.items()
        for a, ma in pairs:
            s = self_[a] = self_[a] + ma * ma
            c = c1[a] = c1[a] + ma
            row = edges[a] = dict(edges[a])
            del row[label]
            for b, mb in pairs:
                if b != a:
                    _bump(row, b, ma * mb)
            # a's self-intersection grew: if it is ready now, it was not before
            if s == -1 and c == 1 and a in order:
                ready.append(a)
            elif a in ready:
                ready.remove(a)
        yield label, met


# -- b2+ = 1 criteria --------------------------------------------------------


def exceptional_pair_criterion(lat: IntersectionLattice, e1: str, e2: str) -> bool:
    """True iff two exceptional classes meet (pairing >= 1).

    Two meeting (-1)-spheres can be smoothed at one intersection point into a
    sphere in the class E1 + E2 with c1 = 2, which forces b2+ = 1.
    """
    _lattice(lat)
    for e in (e1, e2):
        if not lat.is_exceptional(e):
            raise DomainError(f"{e!r} is not an exceptional class")
    if e1 == e2:
        raise DomainError("criterion needs two distinct classes")
    return lat.pair(e1, e2) >= 1


class ChainContactReplay(Value):
    """Outcome of :func:`chain_contact_replay`; ``triggered`` is the verdict
    of the contact criterion."""

    triggered: bool
    via: str | None  # class whose contact fired the criterion
    contractions: tuple[str, ...]  # classes contracted before it fired
    pair: tuple[str, str] | None  # the intersecting exceptional pair found
    pair_self_intersections: tuple[int, int] | None
    pair_product: int | None
    c1_sum: int | None


def chain_contact_replay(lat: IntersectionLattice, eprime: str, config) -> ChainContactReplay:
    """Replay of the contact criterion for an exceptional class E' vs a
    weighted-blowup configuration.

    If E' meets the configuration's own exceptional class the pair criterion
    applies at once.  If E' instead meets a chain class, contract the
    configuration in its forced blowdown order (the unique (-1)-class at each
    stage), never contracting a class E' touches, until the first touched
    class reaches self-intersection -1; at that stage E' is still untouched
    (everything contracted so far was disjoint from it) and the two classes
    form an intersecting exceptional pair.

    ``config`` is a ``BlowupConfig``; one that names a class twice is refused.
    """
    from .blowup import BlowupConfig  # here: blowup imports this module
    _lattice(lat)
    require_object(config, BlowupConfig, "config must be a BlowupConfig")
    etilde, *chain_labels = config.class_labels
    if eprime == etilde:
        raise DomainError("E' must be distinct from the configuration's class")
    if not lat.is_exceptional(eprime):
        raise DomainError(f"{eprime!r} is not an exceptional class")
    hit, done, work = etilde, [], lat
    k = lat.pair(eprime, etilde)
    if k == 0:
        contacts = {l for l in chain_labels if lat.pair(eprime, l) != 0}
        if not contacts:
            return ChainContactReplay(False, None, (), None, None, None, None)
        # Everything contracted is disjoint from E' (a -1 class meeting E' ends
        # the replay first), so the pairings of E' never change, and only the
        # neighbours of a contracted class can join the hits.
        store = lat._store()
        self_ = store[0]
        hits = {l for l in contacts if self_[l] == -1}
        walk = _forced_contractions(store, config.class_labels)
        while not hits:
            label, met = next(walk, (None, None))
            if label is None:
                raise StructureError("blowdown replay stuck: no (-1)-class left")
            done.append(label)
            hits.update(l for l in met if l in contacts and self_[l] == -1)
        hit = min(hits, key=chain_labels.index)
        work = IntersectionLattice._sparse(*store)
        k = work.pair(eprime, hit)
        if k >= 1:
            exceptional_pair_criterion(work, eprime, hit)
    elif not lat.is_exceptional(etilde):  # E' meets E~: a pair for either sign of k
        raise DomainError(f"{etilde!r} is not an exceptional class")
    return ChainContactReplay(True, hit, tuple(done), (eprime, hit),
                              (work.self_intersection(eprime), work.self_intersection(hit)),
                              k, work.c1_of(eprime) + work.c1_of(hit))

