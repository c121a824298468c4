"""A whole run of ``circle.run_loop`` in closed form, kept as an oracle.

Configurations never interact, so every field ``run_loop`` reports except
the final lattice's labels follows from the pairing arcs, with no stepping
and in one pass over the data.  Let d be the arc from the base to the first
+1 level after it, (p, q) that level's weights and L the number of pairs
whose life arc contains the base.

* With an independent tracked copy T, a ray of slope 1/(pq) from that
  level, the ledger after loop n is (n - d)/(pq), so every entry is new.
  The default bound B is L + 1: the configs live at the base at the end of
  loop 1, plus T, each with exactly one exceptional class, since every
  chain class of a ``fulton_config`` lattice sits at -2 or below.  A given
  bound replaces it.  The run reports HAMILTONIAN at loop B + 1 if
  loops > B, and INCONCLUSIVE otherwise.
* With the tracked class the dynamic instance itself, a tent over its
  pair's life arc a: if d + a < 1 it dies within loop 1, and the run
  reports TRACKED_CLASS_DESTROYED with an empty ledger.  Otherwise the one
  entry is min(1 - d, d + a - 1)/(pq) and the default B is L.  The run
  reports HAMILTONIAN at loop 1 if B = 0, INCONCLUSIVE if loops = 1, and
  TRACKED_CLASS_DESTROYED otherwise, at the class's own blowdown in loop 2.

Every input is read off ``fraction_levels`` (the default base and the
first-in-first-out pairing) or off the ``match`` fields, never off
``circle``'s integer grid, and the arithmetic is in Fractions.  Standard
library only.
"""

from __future__ import annotations

from fractions import Fraction

from fraction_levels import arc_distance, default_base, fifo_pairs


def pairing(data) -> list[tuple[int, int]]:
    """(plus index, minus index) of each pair: from the ``match`` fields if
    the data carry them, else first-in-first-out."""
    if data and data[0].match is not None:
        return [(i, d.match) for i, d in enumerate(data) if d.sign == 1]
    return list(fifo_pairs(data))


def run(data, loops: int, bound: int | None = None, base=None,
        tracked_independent: bool = True) -> tuple:
    """(verdict, ledger, loop_of_contradiction, bound) of valid ``data``,
    as ``run_loop(data, loops, bound, base=base,
    tracked_independent=tracked_independent)`` reports them."""
    if not data:
        return "NO_OBSTRUCTION", (), None, bound
    base = default_base(data) if base is None else Fraction(base) % 1
    d, arc, pq, live = None, None, None, 0
    for plus, minus in pairing(data):
        life = arc_distance(data[plus].level, data[minus].level)
        live += 0 < arc_distance(data[plus].level, base) < life
        ahead = arc_distance(base, data[plus].level)
        if d is None or ahead < d:
            d, arc, pq = ahead, life, data[plus].p * data[plus].q
    if tracked_independent:
        bound = live + 1 if bound is None else bound
        ledger = tuple((n - d) / pq for n in range(1, min(loops, bound + 1) + 1))
        if loops > bound:
            return "HAMILTONIAN", ledger, bound + 1, bound
        return "INCONCLUSIVE", ledger, None, bound
    if d + arc < 1:
        return "TRACKED_CLASS_DESTROYED", (), None, bound
    bound = live if bound is None else bound
    ledger = (min(1 - d, d + arc - 1) / pq,)
    if bound == 0:
        return "HAMILTONIAN", ledger, 1, bound
    return "INCONCLUSIVE" if loops == 1 else "TRACKED_CLASS_DESTROYED", ledger, None, bound
