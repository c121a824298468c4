"""Minimal SVG emission for the cut diagram of a weighted blowup.

Lattice points sit at integer coordinates scaled by a uniform factor; the
y axis is flipped so diagrams read in the usual mathematical orientation,
and a margin of 0.75 lattice units is left blank on every side.
"""

from __future__ import annotations

from math import inf, isfinite

from .blowup import McDuffSequence, mcduff_sequence
from .errors import DomainError, require_int
from .hj import MAX_TERMS

_STYLE = (
    "text { font: 11px sans-serif; } "
    ".grid { fill: #bbb; } "
    ".edge { stroke: #222; stroke-width: 2; fill: none; } "
    ".cut { stroke: #c22; stroke-width: 1.5; } "
    ".label { fill: #c22; }"
)
_MARGIN = 0.75  # lattice units of blank border on every side


def _fmt(x) -> str:
    f = float(x)
    return f"{f:.4f}".rstrip("0").rstrip(".")


def cut_diagram_svg(p: int, q: int, scale: int = 40) -> str:
    """The cut cascade of the (p, q)-weighted blowup, chords labeled.

    Draws the two quadrant edges and every cut chord at multiplicity size,
    ending in the hypotenuse from (0, q) to (p, 0).  A scale whose canvas
    size is not a finite float is a DomainError, and so is a grid of more
    than ``hj.MAX_TERMS`` points, (p + 2)(q + 2).
    """
    return _cut_diagram(mcduff_sequence(q, p), scale)  # the weights are checked first


def _cut_diagram(seq: McDuffSequence, scale: int) -> str:
    """The diagram of :func:`cut_diagram_svg`, drawn from a replay already built."""
    p, q = seq.p, seq.q
    scale = require_int(scale, "scale must be an integer >= 1", 1)
    xmax, ymax = p + 1, q + 1
    try:  # every coordinate drawn lies between 0 and the canvas size
        w, h = ((n + 2 * _MARGIN) * scale for n in (xmax, ymax))
    except OverflowError:  # a scale beyond the float range
        w = h = inf
    if not (isfinite(w) and isfinite(h)):
        raise DomainError(f"scale too large: the canvas of the ({p},{q}) diagram "
                          "overflows a float")
    if (points := (xmax + 1) * (ymax + 1)) > MAX_TERMS:
        raise DomainError(f"the ({p},{q}) diagram has {points} grid points, more than {MAX_TERMS}")

    def x_at(x) -> str:
        return _fmt((float(x) + _MARGIN) * scale)

    def y_at(y) -> str:
        return _fmt((ymax + _MARGIN - float(y)) * scale)

    def line(a, b, cls: str = "edge") -> str:
        return (f'<line class="{cls}" x1="{x_at(a[0])}" y1="{y_at(a[1])}" '
                f'x2="{x_at(b[0])}" y2="{y_at(b[1])}"/>')

    def text(x, y, s: str) -> str:
        return f'<text class="label" x="{x_at(x)}" y="{y_at(y)}">{s}</text>'

    sep = "\n  "  # between two items of the body, so between two dots of a column too
    ys = [y_at(j) for j in range(ymax + 1)]  # each row's y formatted once
    parts = [f'<circle class="grid" cx="{x}" cy="'
             + f'" r="1.6"/>{sep}<circle class="grid" cx="{x}" cy="'.join(ys) + '" r="1.6"/>'
             for x in map(x_at, range(xmax + 1))]  # a column of dots per x
    parts += [line((0, 0), (0, ymax)), line((0, 0), (xmax, 0))]
    for label, a, b in seq.chords():  # a label an eighth up and right of its chord's middle
        mid = [(4 * (s + t) + 1) / 8 for s, t in zip(a, b)]  # one exact int-to-float division
        parts += [line(a, b, cls="cut"), text(*mid, f"({label[0]},{label[1]})")]
    parts.append(text(p - 1, q + 0.5, f"({p},{q})-weighted blowup cuts"))
    w, h = _fmt(w), _fmt(h)
    body = sep.join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h}" viewBox="0 0 {w} {h}">\n'
        f"  <style>{_STYLE}</style>\n  {body}\n</svg>\n"
    )
