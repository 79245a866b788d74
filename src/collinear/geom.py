"""Exact rational plane geometry: predicates and intersections.

All coordinates are ``fractions.Fraction``.  Every predicate is exact.  Where
one point meets many predicates (the verifier's sweep, angular sorts, free
placement), points are first converted to integer homogeneous coordinates
(``homogeneous``) and handled by the ``*_h`` functions, which use integer
products only: no float and no gcd per predicate.
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
    with r is the 3x3 determinant of the rows p, q, r.  The same cross
    product of two lines is the point where they meet, with weight 0 when
    they are parallel (or equal)."""
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


def inside_h(p: HPoint, a: HPoint, b: HPoint, c: HPoint) -> bool:
    """p strictly inside triangle (a, b, c), either orientation; none if collinear."""
    ab = line_h(a, b)
    s = side_h(ab, c)
    return (s != 0 and side_h(ab, p) == s and side_h(line_h(b, c), p) == s
            and side_h(line_h(c, a), p) == s)


def on_segment_h(p: HPoint, a: HPoint, b: HPoint) -> bool:
    """True iff p lies on the closed segment [a, b]: on its line and in its
    bounding box, where each coordinate's differences to a and b do not
    share a sign.  p's weight may be negative; it enters squared."""
    (ax, ay), (bx, by) = direction_h(p, a), direction_h(p, b)
    return side_h(line_h(a, b), p) == 0 and ax * bx <= 0 and ay * by <= 0


def line_through(p: Point, q: Point) -> Tuple[Fraction, Fraction, Fraction]:
    """Coefficients (A, B, C) with A*x + B*y = C through p, q."""
    A = q[1] - p[1]
    B = p[0] - q[0]
    C = A * p[0] + B * p[1]
    return A, B, C
