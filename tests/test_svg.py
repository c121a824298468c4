import pytest

from hjtoric import svg
from hjtoric.errors import DomainError
from hjtoric.svg import cut_diagram_svg


def test_cut_diagram_contains_all_labels():
    doc = cut_diagram_svg(7, 4)
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    for label in ("(1,1)", "(1,2)", "(2,3)", "(3,5)", "(4,7)"):
        assert label in doc
    assert doc.count("<line") >= 7  # two axes plus five cuts


def test_cut_diagram_scale():
    small = cut_diagram_svg(2, 1, scale=10)
    big = cut_diagram_svg(2, 1, scale=100)
    assert 'width="45"' in small
    assert 'width="450"' in big
    with pytest.raises(DomainError):
        cut_diagram_svg(2, 1, scale=0)


def per_point_grid(canvas):
    """The grid with both coordinates formatted at every point."""
    for i in range(int(canvas.xmax) + 1):
        for j in range(int(canvas.ymax) + 1):
            cx, cy = canvas._pt(i, j)
            canvas.parts.append(
                f'<circle class="grid" cx="{svg._fmt(cx)}" cy="{svg._fmt(cy)}" r="1.6"/>'
            )


@pytest.mark.parametrize("draw", [
    lambda: cut_diagram_svg(119, 118),
    lambda: cut_diagram_svg(7, 4),
    lambda: cut_diagram_svg(120, 1, scale=10),
    lambda: cut_diagram_svg(89, 55, scale=7),
], ids=["119-118", "7-4", "120-1", "89-55"])
def test_grid_matches_per_point_formatting(draw, monkeypatch):
    doc = draw()
    monkeypatch.setattr(svg._Canvas, "grid", per_point_grid)
    assert doc == draw()
