from fractions import Fraction

import pytest

from hjtoric.errors import DomainError
from hjtoric.lattice2d import Polygon, Wedge, corner_cut, quadrant
from hjtoric.svg import cut_diagram_svg, polygon_svg


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


def test_polygon_svg_open_chain():
    poly = corner_cut(quadrant(), 0, Fraction(1))
    doc = polygon_svg(poly)
    assert doc.startswith("<svg")
    assert doc.count("<line") == 3


def test_polygon_svg_closed():
    square = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))
    doc = polygon_svg(square)
    assert doc.count("<line") == 4


def test_polygon_svg_wedge():
    doc = polygon_svg(Wedge((0, 0), ((-1, 0), (0, -1))))
    assert doc.count("<line") == 2
