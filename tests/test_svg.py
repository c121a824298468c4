import hashlib

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


# sha256 of each diagram as drawn when chords were Fractions and every grid
# point was a list item of its own
DRAWN = {
    (7, 4, 40): "2964cd1d54fe0e25c2daf1b36188cbdcdb6c5c81d60de3c76c04df3ab98b2b82",
    (120, 1, 10): "3358275d8ef81bf148bd82541d061128e06bf7e86c3efc3531815760db59c2c3",
    (119, 118, 40): "f1dcc04514044a1cee9c760e39d139676edb6e524872e6265ac9f8558c8f0278",
    (256, 255, 40): "d3b949b114129557cd45b9a542526771fd8d1fd193d6c6213622c5c41bfe22e4",
    (233, 144, 40): "c1b3376919540aa292d2408411d81f6df3b9ff1f7e7903acf3f628dbdc46f1a9",
    (89, 55, 7): "ae2bffcf61c134e5ec82593b73929aeba065ecb71773b14bfb3e14e44951717d",
}


@pytest.mark.parametrize("p, q, scale", DRAWN, ids=[f"{p}-{q}-{s}" for p, q, s in DRAWN])
def test_diagram_bytes_are_unchanged(p, q, scale):
    doc = cut_diagram_svg(p, q, scale).encode()
    assert hashlib.sha256(doc).hexdigest() == DRAWN[p, q, scale]


@pytest.mark.parametrize("p, q, points", [(1000, 999, 1003002),
                                          (1134903170, 701408733, 1134903172 * 701408735)],
                         ids=["1000-999", "fibonacci-44-cuts"])
def test_a_grid_over_the_cap_is_a_domain_error(p, q, points):
    """(p + 2)(q + 2) grid points over ``hj.MAX_TERMS`` are refused before
    any is drawn: a 44-cut replay had a grid of 8e17 points."""
    with pytest.raises(DomainError, match=rf"^the \({p},{q}\) diagram has {points} grid "
                                          r"points, more than 1000000$"):
        cut_diagram_svg(p, q)


def test_the_grid_cap_is_inclusive_and_comes_after_the_scale_checks(monkeypatch):
    """(7, 4) has 9 x 6 = 54 grid points: drawn at a cap of 54, refused at 53,
    and a bad scale is still named first."""
    monkeypatch.setattr(svg, "MAX_TERMS", 54)
    assert cut_diagram_svg(7, 4).count("<circle") == 54
    monkeypatch.setattr(svg, "MAX_TERMS", 53)
    with pytest.raises(DomainError, match="54 grid points, more than 53"):
        cut_diagram_svg(7, 4)
    with pytest.raises(DomainError, match="scale too large"):
        cut_diagram_svg(7, 4, 10 ** 400)
    with pytest.raises(DomainError, match="scale must be an integer"):
        cut_diagram_svg(7, 4, 0)
