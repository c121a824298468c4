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


@pytest.mark.parametrize("scale", [10 ** 308, 10 ** 400, 2 ** 1024],
                         ids=["inf-canvas", "beyond-float", "float-max-plus"])
def test_scale_whose_canvas_is_not_a_finite_float_is_a_domain_error(scale):
    """A 10^308 scale made ``width="inf"``, which no SVG reader takes, and a
    scale past the float range raised OverflowError."""
    with pytest.raises(DomainError, match="scale too large"):
        cut_diagram_svg(7, 4, scale)


def test_largest_finite_canvas_is_drawn():
    """The last scale below the overflow still draws, every coordinate a
    finite number."""
    doc = cut_diagram_svg(7, 4, 10 ** 307)
    assert "inf" not in doc and 'width="9499999999' in doc


@pytest.mark.parametrize("p, q, scale", [(119, 118, 40), (7, 4, 40), (120, 1, 10), (89, 55, 7)],
                         ids=["119-118", "7-4", "120-1", "89-55"])
def test_grid_matches_per_point_formatting(p, q, scale):
    """The grid, each column's x and each row's y formatted once, equals a
    dot per lattice point with both coordinates formatted at that point."""
    m = svg._MARGIN
    want = [f'<circle class="grid" cx="{svg._fmt((i + m) * scale)}" '
            f'cy="{svg._fmt((q + 1 + m - j) * scale)}" r="1.6"/>'
            for i in range(p + 2) for j in range(q + 2)]
    doc = cut_diagram_svg(p, q, scale)
    assert [l.strip() for l in doc.splitlines() if l.lstrip().startswith("<circle")] == want
