"""Exact rational geometry primitives."""

from fractions import Fraction

from hypothesis import given, strategies as st

from collinear.geom import (
    F, crosses_h, homogeneous, inside_h, line_h, line_through, on_segment_h,
    orient, side_h,
)

frac = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def P(x, y):
    return (F(x), F(y))


# -- Fraction references for the integer predicates ----------------------------------


def on_segment(p, a, b):
    """True iff p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def line_intersection(l1, l2):
    """Meet of two lines A*x + B*y = C (``line_through``); None if parallel."""
    A1, B1, C1 = l1
    A2, B2, C2 = l2
    det = A1 * B2 - A2 * B1
    if det == 0:
        return None
    return ((C1 * B2 - C2 * B1) / det, (A1 * C2 - A2 * C1) / det)


def point_in_triangle(p, a, b, c, strict=True):
    """Membership of p in triangle (a,b,c); strict means interior only."""
    s = orient(a, b, c)
    if s == 0:
        return False
    os_ = (orient(a, b, p) * s, orient(b, c, p) * s, orient(c, a, p) * s)
    if strict:
        return all(o > 0 for o in os_)
    return all(o >= 0 for o in os_)


def meet_h(a, b, c, d):
    """The integer meet of lines ab and cd as a Fraction point, or None."""
    x, y, w = line_h(line_h(homogeneous(a), homogeneous(b)),
                     line_h(homogeneous(c), homogeneous(d)))
    return None if w == 0 else (Fraction(x, w), Fraction(y, w))


def test_orient_basic():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_collinear_and_on_segment():
    assert orient(P(0, 0), P(2, 2), P(1, 1)) == 0
    for on in (on_segment, lambda p, a, b: on_segment_h(*map(homogeneous, (p, a, b)))):
        assert on(P(1, 1), P(0, 0), P(2, 2))
        assert not on(P(3, 3), P(0, 0), P(2, 2))
        assert on(P(0, 0), P(0, 0), P(2, 2))
        assert not on(P(1, 1), P(0, 0), P(2, 0))


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
    assert meet_h(P(0, 0), P(2, 2), P(0, 2), P(2, 0)) == P(1, 1)
    assert meet_h(P(0, 0), P(2, 2), P(0, 1), P(2, 3)) is None
    assert meet_h(P(0, 0), P(2, 2), P(3, 3), P(5, 5)) is None    # one line


def test_point_in_triangle():
    a, b, c = P(0, 0), P(4, 0), P(0, 4)
    assert point_in_triangle(P(1, 1), a, b, c, strict=True)
    assert not point_in_triangle(P(2, 0), a, b, c, strict=True)
    assert point_in_triangle(P(2, 0), a, b, c, strict=False)
    assert not point_in_triangle(P(5, 5), a, b, c, strict=False)
    boundary = [P(2, 0), P(2, 2), P(0, 2), a, b, c]    # each edge, each corner
    for tri in ((a, b, c), (a, c, b)):
        ha, hb, hc = map(homogeneous, tri)
        assert inside_h(H(1, 1), ha, hb, hc)
        assert not any(inside_h(homogeneous(p), ha, hb, hc) for p in boundary)
        assert not inside_h(H(5, 5), ha, hb, hc)
    assert not inside_h(H(1, 1), H(0, 0), H(1, 1), H(2, 2))   # collinear


# -- integer predicates against the Fraction references ------------------------------

# Rationals of three kinds: small, translated near 1e17 so that floats would
# merge them, and with denominators above 2,000 bits as on deep stackings.
BIG = 2 ** 2001
coords = st.one_of(
    frac,
    frac.map(lambda x: Fraction(10 ** 17, 3) + x / 10 ** 6),
    st.integers(-BIG * 1000, BIG * 1000).flatmap(
        lambda n: st.integers(1, 2 ** 40).map(lambda k: Fraction(n, BIG + 2 * k - 1))),
)
points = st.tuples(coords, coords)
weights = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


def along(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


@st.composite
def triangle_cases(draw):
    """(p, a, b, c): p random, on an edge or at a corner, or a convex
    combination of the corners; the triangle sometimes collinear."""
    a, b = draw(points), draw(points)
    c = along(a, b, draw(frac)) if draw(st.integers(0, 3)) == 0 else draw(points)
    kind = draw(st.sampled_from(["free", "edge", "corner", "inside", "inside"]))
    if kind == "free":
        p = draw(points)
    elif kind == "edge":
        u, v = draw(st.sampled_from([(a, b), (b, c), (c, a)]))
        p = along(u, v, draw(weights))
    elif kind == "corner":
        p = draw(st.sampled_from([a, b, c]))
    else:
        p = along(along(a, b, draw(weights)), c, draw(weights))
    return p, a, b, c


@given(triangle_cases())
def test_inside_h_matches_reference(case):
    p, a, b, c = case
    assert inside_h(*map(homogeneous, case)) == point_in_triangle(p, a, b, c, strict=True)


@st.composite
def segment_cases(draw):
    """(p, a, b): p random, on the line ab inside or outside the segment,
    or at an end; a and b sometimes equal."""
    a = draw(points)
    b = a if draw(st.integers(0, 9)) == 0 else draw(points)
    kind = draw(st.sampled_from(["free", "line", "segment", "end"]))
    if kind == "free":
        p = draw(points)
    elif kind == "line":
        p = along(a, b, draw(frac))
    elif kind == "segment":
        p = along(a, b, draw(weights))
    else:
        p = draw(st.sampled_from([a, b]))
    return p, a, b


@given(segment_cases())
def test_on_segment_h_matches_reference(case):
    p, a, b = map(homogeneous, case)
    assert on_segment_h(p, a, b) == on_segment(*case)
    # free placement passes meets whose weight may be negative
    assert on_segment_h(tuple(-x for x in p), a, b) == on_segment(*case)


@st.composite
def line_pairs(draw):
    """(a, b, c, d): lines ab and cd, sometimes parallel, equal, or with a
    repeated point."""
    a, b, c = draw(points), draw(points), draw(points)
    kind = draw(st.sampled_from(["free", "free", "parallel", "same", "repeated"]))
    if kind == "free":
        d = draw(points)
    elif kind == "parallel":
        k = draw(frac)
        d = (c[0] + k * (b[0] - a[0]), c[1] + k * (b[1] - a[1]))
    elif kind == "same":
        c, d = along(a, b, draw(frac)), along(a, b, draw(frac))
    else:
        d = c
    return a, b, c, d


@given(line_pairs())
def test_meet_h_matches_reference(case):
    a, b, c, d = case
    assert meet_h(a, b, c, d) == line_intersection(line_through(a, b), line_through(c, d))
