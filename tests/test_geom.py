"""Exact rational geometry primitives."""

from fractions import Fraction

from hypothesis import given, strategies as st

from collinear.geom import (
    F, crosses_h, homogeneous, line_h, line_intersection,
    line_through, on_segment, orient, point_in_triangle, side_h,
)

frac = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def P(x, y):
    return (F(x), F(y))


def test_orient_basic():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_collinear_and_on_segment():
    assert orient(P(0, 0), P(2, 2), P(1, 1)) == 0
    assert on_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not on_segment(P(3, 3), P(0, 0), P(2, 2))
    assert on_segment(P(0, 0), P(0, 0), P(2, 2))


def H(x, y):
    return homogeneous(P(x, y))


def test_homogeneous_keeps_the_point():
    assert homogeneous((F(1, 2), F(-3, 4))) == (2, -3, 4)
    assert homogeneous((3, 0.5)) == (6, 1, 2)
    assert homogeneous((F(2, 15), F(1, 21))) == (14, 5, 105)
    x, y, w = homogeneous((F(7, 3), F(5, 9)))
    assert w > 0 and (F(x, w), F(y, w)) == (F(7, 3), F(5, 9))


@given(frac, frac, frac, frac, frac, frac)
def test_side_h_matches_orient(ax, ay, bx, by, cx, cy):
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert side_h(line_h(homogeneous(a), homogeneous(b)), homogeneous(c)) == orient(a, b, c)


def test_crosses_h():
    # proper crossing
    assert crosses_h(H(0, 0), H(2, 2), H(0, 2), H(2, 0))
    # shared endpoint is not a crossing
    assert not crosses_h(H(0, 0), H(1, 1), H(1, 1), H(2, 0))
    # disjoint
    assert not crosses_h(H(0, 0), H(1, 0), H(0, 1), H(1, 1))
    # T-contact and collinear overlap are not proper crossings: the drawing
    # verifier reports them as a vertex lying on an edge
    assert not crosses_h(H(0, 0), H(2, 0), H(1, 0), H(1, 1))
    assert not crosses_h(H(0, 0), H(2, 0), H(1, 0), H(3, 0))
    # collinear and disjoint
    assert not crosses_h(H(0, 0), H(1, 0), H(2, 0), H(3, 0))
    # a crossing far below float resolution, translated near 1e17
    t = F(10 ** 17, 3)
    assert crosses_h(H(t, t), H(t + 2, t + F(1, 10 ** 30)),
                     H(t + 1, t - 1), H(t + 1, t + 1))
    assert not crosses_h(H(t, t), H(t + 2, t + F(1, 10 ** 30)),
                         H(t + 1, t + F(1, 10 ** 30)), H(t + 1, t + 1))


def test_line_intersection():
    l1 = line_through(P(0, 0), P(2, 2))
    l2 = line_through(P(0, 2), P(2, 0))
    assert line_intersection(l1, l2) == P(1, 1)
    l3 = line_through(P(0, 1), P(2, 3))
    assert line_intersection(l1, l3) is None  # parallel


def test_point_in_triangle():
    a, b, c = P(0, 0), P(4, 0), P(0, 4)
    assert point_in_triangle(P(1, 1), a, b, c, strict=True)
    assert not point_in_triangle(P(2, 0), a, b, c, strict=True)
    assert point_in_triangle(P(2, 0), a, b, c, strict=False)
    assert not point_in_triangle(P(5, 5), a, b, c, strict=False)
