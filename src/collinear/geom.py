"""Exact rational plane geometry: predicates and intersections.

All coordinates are ``fractions.Fraction``.  Every predicate is exact.  Where
one point meets many predicates (the sweep in drawing verification, angular
sorts), points are first converted to integer homogeneous coordinates
(``homogeneous``) and handled by ``direction_h``, ``line_h``, ``side_h`` and
``crosses_h``, which use integer products only: no float and no gcd per
predicate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple

Point = Tuple[Fraction, Fraction]


def F(x, y=None) -> Fraction:
    if y is not None:
        return Fraction(x, y)
    return x if isinstance(x, Fraction) else Fraction(x)


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle (a, b, c): +1 ccw, -1 cw, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


HPoint = Tuple[int, int, int]


def homogeneous(p) -> HPoint:
    """Integer homogeneous coordinates ``(X, Y, W)`` with ``W > 0`` of the
    point ``(X/W, Y/W)``, ``W`` the lcm of the two denominators.  Accepts
    ints, floats and Fractions.  This is the one gcd per point; predicates
    on the result need none, and per-point weights avoid the growth of one
    common denominator over unrelated points."""
    a, b = p[0].as_integer_ratio()
    c, d = p[1].as_integer_ratio()
    g = gcd(b, d)
    return (a * (d // g), c * (b // g), b // g * d)


def direction_h(p: HPoint, q: HPoint) -> Tuple[int, int]:
    """A positive integer multiple of the vector q - p."""
    return (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])


def line_h(p: HPoint, q: HPoint) -> HPoint:
    """The line through p and q as the cross product p x q: its dot product
    with r is the 3x3 determinant of the rows p, q, r."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    return (y1 * w2 - w1 * y2, w1 * x2 - x1 * w2, x1 * y2 - y1 * x2)


def side_h(line: HPoint, r: HPoint) -> int:
    """``orient`` on homogeneous points, for ``line = line_h(p, q)``: +1 if r
    lies left of p -> q, -1 right, 0 on the line (the positive weights do
    not change the sign).  Each point tested costs three products."""
    d = line[0] * r[0] + line[1] * r[1] + line[2] * r[2]
    return (d > 0) - (d < 0)


def crosses_h(a: HPoint, b: HPoint, c: HPoint, d: HPoint) -> bool:
    """True iff segments (a,b) and (c,d) cross properly: each has its end
    points strictly on opposite sides of the other's supporting line, so
    they meet in one point interior to both.  Touching and collinear
    overlaps are not proper crossings."""
    ab, cd = line_h(a, b), line_h(c, d)
    return side_h(ab, c) * side_h(ab, d) < 0 and side_h(cd, a) * side_h(cd, b) < 0


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment [a, b] (assumes collinear not required)."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def seg_line_y0_crossing(a: Point, b: Point) -> Point | None:
    """Intersection of segment (a,b) with the x-axis when a, b are strictly on
    opposite sides; None otherwise."""
    if a[1] == 0 or b[1] == 0 or (a[1] > 0) == (b[1] > 0):
        return None
    t = a[1] / (a[1] - b[1])
    return (a[0] + t * (b[0] - a[0]), Fraction(0))


def line_through(p: Point, q: Point) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients (A, B, C) with A*x + B*y = C through p, q."""
    A = q[1] - p[1]
    B = p[0] - q[0]
    C = A * p[0] + B * p[1]
    return A, B, C


def line_intersection(l1, l2) -> Point | None:
    A1, B1, C1 = l1
    A2, B2, C2 = l2
    det = A1 * B2 - A2 * B1
    if det == 0:
        return None
    return ((C1 * B2 - C2 * B1) / det, (A1 * C2 - A2 * C1) / det)


def point_in_triangle(p: Point, a: Point, b: Point, c: Point, strict: bool = True) -> bool:
    """Membership of p in triangle (a,b,c); strict means interior only."""
    s = orient(a, b, c)
    if s == 0:
        return False
    os_ = (orient(a, b, p) * s, orient(b, c, p) * s, orient(c, a, p) * s)
    if strict:
        return all(o > 0 for o in os_)
    return all(o >= 0 for o in os_)
