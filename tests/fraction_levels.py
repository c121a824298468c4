"""The simulator's level arithmetic in Fractions, kept as an oracle.

This is how ``hjtoric.circle`` read its levels before it put them on one
integer grid (``circle._grid``): the levels sorted as Fractions, each gap a
Fraction arc, the default base computed from those, the cover's
radius bound compared in Fractions, and the first-in-first-out pairing
walked in Fraction order with the distinct-level check on a set of
Fractions.  ``global_sim`` takes its default base from here, so
that oracle shares none of the grid with the package.
"""

from __future__ import annotations

from fractions import Fraction

from hjtoric.errors import DomainError, ValidationError

ONE = Fraction(1)


def arc_distance(a: Fraction, b: Fraction) -> Fraction:
    return (b - a) % 1


def level_gaps(data) -> tuple[list[Fraction], list[Fraction]]:
    """The levels in order and the arc from each to the next.  A lone
    level's arc is the whole circle; a repeated level has a zero gap."""
    levels = sorted(d.level for d in data)
    n = len(levels)
    if n == 1:
        return levels, [ONE]
    return levels, [arc_distance(levels[i], levels[(i + 1) % n]) for i in range(n)]


def default_base(data) -> Fraction:
    """Midpoint of the longest critical-free arc (first such arc on ties)."""
    levels, gaps = level_gaps(data)
    i = max(range(len(gaps)), key=gaps.__getitem__)
    return (levels[i] + gaps[i] / 2) % 1


def cover_arcs(data, eps: Fraction):
    """The sorted levels, the gap arcs U_i and the arcs I_i of radius
    ``eps`` that ``build_cover`` returns, or the DomainError it raises."""
    levels, gaps = level_gaps(data)
    if not levels:
        raise DomainError("cannot cover the circle from an empty level set")
    if len(levels) == 1:
        raise DomainError("a cover needs at least two levels, got one")
    if len(set(levels)) != len(levels):
        raise DomainError("critical levels must be distinct")
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    n = len(levels)
    min_gap = min(gaps)
    if eps >= min_gap / 2:
        raise DomainError(
            f"eps = {eps} too large: must be strictly below half the minimal "
            f"level gap, i.e. below {min_gap / 2}"
        )
    u_arcs = tuple((levels[i], levels[(i + 1) % n]) for i in range(n))
    i_arcs = tuple((l - eps, l + eps) for l in levels)
    return tuple(levels), u_arcs, i_arcs


def fifo_pairs(data) -> tuple[tuple[int, int], ...]:
    """The pairing ``circle._validate`` gives data without ``match``
    fields, () for no data: the level and sign checks, then
    first-in-first-out among equal weights counterclockwise from level 0,
    leftover blowups wrapping around to the leading blowdowns."""
    if not data:
        return ()
    errors: list[str] = []
    if len({d.level for d in data}) < len(data):
        errors.append("critical levels must be distinct")
    if {d.sign for d in data} != {1, -1}:
        errors.append("need at least one blowup (+1) and one blowdown (-1) level")
    if errors:
        raise ValidationError(tuple(errors))
    order = sorted(range(len(data)), key=lambda i: data[i].level)
    queues: dict[tuple[int, int], list[int]] = {}
    deficits: dict[tuple[int, int], list[int]] = {}
    pairs = []
    for i in order:
        d = data[i]
        if d.sign == 1:
            queues.setdefault(d.weights, []).append(i)
        else:
            q = queues.get(d.weights)
            if q:
                pairs.append((q.pop(0), i))
            else:
                deficits.setdefault(d.weights, []).append(i)
    for w, plus_left in queues.items():
        minus_left = deficits.get(w, [])
        if len(plus_left) != len(minus_left):
            raise ValidationError(
                (f"unmatched weights {w}: blowups and blowdowns do not balance",))
        pairs.extend(zip(plus_left, minus_left))
    for w, minus_left in deficits.items():
        if w not in queues and minus_left:
            raise ValidationError((f"unmatched weights {w}: blowdown with no blowup",))
    return tuple(sorted(pairs))
