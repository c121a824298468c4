"""Minimal SVG emission for the cut diagram of a weighted blowup.

Lattice points sit at integer coordinates scaled by a uniform factor; the
y axis is flipped so diagrams read in the usual mathematical orientation.
"""

from __future__ import annotations

from fractions import Fraction

from .blowup import mcduff_sequence
from .errors import require_int

_STYLE = (
    "text { font: 11px sans-serif; } "
    ".grid { fill: #bbb; } "
    ".edge { stroke: #222; stroke-width: 2; fill: none; } "
    ".cut { stroke: #c22; stroke-width: 1.5; } "
    ".label { fill: #c22; }"
)


def _fmt(x) -> str:
    f = float(x)
    return f"{f:.4f}".rstrip("0").rstrip(".")


class _Canvas:
    """Collects SVG elements in lattice coordinates, rendering at the end."""

    margin = 0.75  # lattice units of blank border on every side

    def __init__(self, xmax: float, ymax: float, scale: int = 40):
        self.scale = require_int(scale, "scale must be an integer >= 1", 1)
        self.xmax = xmax
        self.ymax = ymax
        self.parts: list[str] = []

    def _pt(self, x, y) -> tuple[float, float]:
        s = self.scale
        return ((float(x) + self.margin) * s, (self.ymax + self.margin - float(y)) * s)

    def grid(self):
        """A dot at every lattice point, each column's x and each row's y
        formatted once."""
        xs = [_fmt(self._pt(i, 0)[0]) for i in range(int(self.xmax) + 1)]
        ys = [_fmt(self._pt(0, j)[1]) for j in range(int(self.ymax) + 1)]
        self.parts.extend(f'<circle class="grid" cx="{x}" cy="{y}" r="1.6"/>'
                          for x in xs for y in ys)

    def line(self, a, b, cls: str = "edge"):
        x1, y1 = self._pt(*a)
        x2, y2 = self._pt(*b)
        self.parts.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )

    def text(self, at, s: str, cls: str = "label"):
        x, y = self._pt(*at)
        self.parts.append(f'<text class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}">{s}</text>')

    def render(self) -> str:
        w = (self.xmax + 2 * self.margin) * self.scale
        h = (self.ymax + 2 * self.margin) * self.scale
        body = "\n  ".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n'
            f"  <style>{_STYLE}</style>\n  {body}\n</svg>\n"
        )


def cut_diagram_svg(p: int, q: int, scale: int = 40) -> str:
    """The cut cascade of the (p, q)-weighted blowup, chords labeled.

    Draws the two quadrant edges and every cut chord at multiplicity size,
    ending in the hypotenuse from (0, q) to (p, 0).
    """
    seq = mcduff_sequence(q, p)
    canvas = _Canvas(p + 1, q + 1, scale)
    canvas.grid()
    canvas.line((0, 0), (0, q + 1))
    canvas.line((0, 0), (p + 1, 0))
    for label, a, b in seq.chords():
        canvas.line(a, b, cls="cut")
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        canvas.text((mid[0] + Fraction(1, 8), mid[1] + Fraction(1, 8)), f"({label[0]},{label[1]})")
    canvas.text((p - 1, q + Fraction(1, 2)), f"({p},{q})-weighted blowup cuts", cls="label")
    return canvas.render()

