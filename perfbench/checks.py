"""Output checks that do not trust ``collinear.realize``.

Everything here is exact rational arithmetic written for the benchmark
alone: it shares no geometry code with the program, so a faster verifier in
the program cannot certify its own output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

Point = Tuple[Fraction, Fraction]

# The exhaustive crossing test runs on drawings with at most this many edges
# and coordinates of at most this many bits.  Its cost grows with the number
# of edge pairs whose x-ranges overlap and with the size of the numbers;
# these limits keep it near a second per graph.
EXHAUSTIVE_MAX_EDGES = 1000
EXHAUSTIVE_MAX_BITS = 800


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def grid_bound(side: int) -> int:
    """Branch sets the grid-minor snake must visit on a side x side model."""
    gp = (side - 2) // 4 * 4
    if gp < 4:
        return 0
    return len(range(4, gp + 1, 2)) * len(range(2, gp + 1, 2))


def _bits(c: Fraction) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def coord_bits(coords: Dict[int, Point]) -> int:
    """Largest numerator or denominator bit length in a drawing."""
    return max(_bits(c) for p in coords.values() for c in p)


def total_coord_bits(coords: Dict[int, Point]) -> int:
    """Sum over all coordinates of the larger of numerator and denominator
    bit length."""
    return sum(_bits(c) for p in coords.values() for c in p)


def on_line(coords: Dict[int, Point], designated: Iterable[int],
            expected: Iterable[int], need: int) -> List[str]:
    """Designated vertices are the expected ones, all on y = 0, and at
    least ``need`` of them."""
    des = list(designated)
    out = []
    if sorted(des) != sorted(expected):
        out.append("designated vertices differ from the curve's vertices")
    if len(set(des)) < need:
        out.append(f"{len(set(des))} designated vertices, bound is {need}")
    off = [v for v in des if coords[v][1] != 0]
    if off:
        out.append(f"designated vertex {off[0]} is off the line y = 0")
    return out


def _integral(p: Point) -> Tuple[int, int, int]:
    x, y = p
    d = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d)


def _orient(a, b, c) -> int:
    """Sign of the turn a -> b -> c.  Points are (X, Y, D) for (X/D, Y/D)
    with D > 0; clearing the positive denominators Da^2 Db Dc keeps the sign
    and needs no gcd."""
    (xa, ya, da), (xb, yb, db), (xc, yc, dc) = a, b, c
    d = ((xb * da - xa * db) * (yc * da - ya * dc)
         - (yb * da - ya * db) * (xc * da - xa * dc))
    return (d > 0) - (d < 0)


def _in_box(p, a, b) -> bool:
    """p inside the closed bounding box of a and b (all (X, Y, D))."""
    for k in (0, 1):
        pa = p[k] * a[2] - a[k] * p[2]          # sign of p - a
        pb = p[k] * b[2] - b[k] * p[2]          # sign of p - b
        if (pa > 0 and pb > 0) or (pa < 0 and pb < 0):
            return False
    return True


def _closed_segments_meet(a, b, c, d) -> bool:
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return ((d1 == 0 and _in_box(a, c, d)) or (d2 == 0 and _in_box(b, c, d))
            or (d3 == 0 and _in_box(c, a, b)) or (d4 == 0 and _in_box(d, a, b)))


def _pair_problem(s, t) -> Optional[str]:
    (_, _, _, _, u1, v1, a, b), (_, _, _, _, u2, v2, c, d) = s, t
    shared = {u1, v1} & {u2, v2}
    if not shared:
        if _closed_segments_meet(a, b, c, d):
            return f"edges {(u1, v1)} and {(u2, v2)} meet"
        return None
    shared_v = next(iter(shared))
    p = a if u1 == shared_v else b
    q1 = b if u1 == shared_v else a
    q2 = d if u2 == shared_v else c
    if _orient(p, q1, q2) == 0 and not _in_box(p, q1, q2):
        return f"edges {(u1, v1)} and {(u2, v2)} overlap"
    return None


def first_crossing(coords: Dict[int, Point],
                   edges: Iterable[Tuple[int, int]]) -> Optional[str]:
    """Exhaustive exact planarity test of a straight-line drawing.

    Every pair of edges whose x-ranges overlap is tested exactly; pairs with
    disjoint x-ranges cannot meet.  Two edges may share only a common
    endpoint, and vertices must be pairwise distinct.  Returns the first
    problem found, or None.
    """
    where: Dict[Point, int] = {}
    for v, p in coords.items():
        if p in where:
            return f"vertices {where[p]} and {v} coincide"
        where[p] = v
    exact = {v: _integral(p) for v, p in coords.items()}
    segs = []
    for u, v in edges:
        a, b = coords[u], coords[v]
        if b < a:
            u, v, a, b = v, u, b, a
        segs.append((a[0], b[0], min(a[1], b[1]), max(a[1], b[1]), u, v,
                     exact[u], exact[v]))
    segs.sort(key=lambda s: s[0])
    active: list = []
    for s in segs:
        active = [t for t in active if t[1] >= s[0]]
        for t in active:
            if t[3] < s[2] or s[3] < t[2]:
                continue
            problem = _pair_problem(t, s)
            if problem:
                return problem
        active.append(s)
    return None
