"""Placement corollaries of the collinear-set machinery.

Two user-facing features for plane 3-trees, both riding on the guaranteed
collinear set of ceil((n-3)/8) vertices and on the freedom to prescribe the
positions of the collinear vertices along a line:

* :func:`universal_placement` -- any set of at most ceil((n-3)/8) points can
  be hit exactly by distinct vertices of a planar straight-line drawing;
* :func:`untangle` -- any straight-line drawing, planar or not, can be made
  planar while keeping at least sqrt(ceil((n-3)/8)) vertices fixed.

Both work in exact rational arithmetic; when input points share
x-coordinates the axes are rotated by a rational rotation (a Pythagorean
direction), and rotated back at the end, so exactness is never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from .plane_graph import PlaneGraph
from .realize import (Drawing, LabelingOrder, RealizeError, labeling_from_curve,
                      lift_off_line, place_free, verify_drawing)
from .three_tree import build_curve_bundle, decompose

Point = Tuple[F, F]


class ApplicationError(ValueError):
    """A placement request violates its size or distinctness bounds."""


class DrawingRejected(RealizeError):
    """The exact verifier rejected a drawing built here: a defect of the
    construction, not of the input."""


def collinear_guarantee(n: int) -> int:
    """ceil((n-3)/8): how many collinear vertices every plane 3-tree has."""
    return -(-(n - 3) // 8)


@dataclass(frozen=True)
class PointSet:
    """Exact rational points, pairwise distinct."""
    points: Tuple[Point, ...]

    def __post_init__(self):
        pts = tuple((F(x), F(y)) for (x, y) in self.points)
        object.__setattr__(self, 'points', pts)
        if len(set(pts)) != len(pts):
            raise ApplicationError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class UntangleResult:
    """A planar re-drawing that keeps ``fixed`` at their input positions."""
    fixed: FrozenSet[int]
    drawing: Drawing


# -- exact axis rotation ---------------------------------------------------------


def rotation_for(points: Sequence[Point]) -> Tuple[F, F]:
    """A rational (cos, sin) whose rotation separates all x-coordinates.

    Rational points on the unit circle come from the parameterization
    ((1-t^2)/(1+t^2), 2t/(1+t^2)); each pair of input points rules out at
    most two parameter values, so small integers t suffice.
    """
    pts = [(F(x), F(y)) for (x, y) in points]
    for t in range(2 * len(pts) * len(pts) + 1):
        c, s = F(1 - t * t, 1 + t * t), F(2 * t, 1 + t * t)
        ok = all(c * (x1 - x2) + s * (y1 - y2) != 0
                 for i, (x1, y1) in enumerate(pts)
                 for (x2, y2) in pts[i + 1:])
        if ok:
            return c, s
    raise ApplicationError("points are not pairwise distinct")


def rotate(p: Point, cs: Tuple[F, F]) -> Point:
    c, s = cs
    return (c * p[0] + s * p[1], -s * p[0] + c * p[1])


def unrotate(p: Point, cs: Tuple[F, F]) -> Point:
    c, s = cs
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


# -- shared plumbing -------------------------------------------------------------


def _spread_targets(order, assigned: Dict[int, F]) -> Dict:
    """Strictly increasing targets for every element, honouring ``assigned``
    (position-in-order -> x) and filling the gaps monotonically."""
    m = len(order)
    if not assigned:
        return {e: F(i + 1) for i, e in enumerate(order)}
    idxs = sorted(assigned)
    targets = {}
    first, last = idxs[0], idxs[-1]
    for back, i in enumerate(range(first - 1, -1, -1)):
        targets[order[i]] = assigned[first] - (back + 1)
    for a, b in zip(idxs, idxs[1:]):
        xa, xb = assigned[a], assigned[b]
        for step in range(1, b - a):
            targets[order[a + step]] = xa + (xb - xa) * F(step, b - a)
    for fwd, i in enumerate(range(last + 1, m)):
        targets[order[i]] = assigned[last] + (fwd + 1)
    for i in idxs:
        targets[order[i]] = assigned[i]
    return targets


def _lined_drawing(g: PlaneGraph, lab: LabelingOrder,
                   assigned: Dict[int, F]) -> Drawing:
    targets = _spread_targets(lab.order, assigned)
    lab2 = LabelingOrder(labels=lab.labels, order=lab.order, targets=targets)
    return place_free(g, lab2)


# -- universal point subsets ------------------------------------------------------


def universal_placement(g: PlaneGraph, p: PointSet) -> Drawing:
    """Drawing of the plane 3-tree with |p| vertices exactly at the points.

    Requires |p| <= ceil((n-3)/8).  The returned drawing's designated
    vertices sit at ``p.points`` in rotated-x order.
    """
    k = collinear_guarantee(g.n)
    if len(p) > k:
        raise ApplicationError(f"{len(p)} points exceed the guarantee of {k} "
                               f"collinear vertices for n={g.n}")
    d = decompose(g)
    if not p.points:
        curve = build_curve_bundle(d).best
        lab = labeling_from_curve(g, curve)
        return Drawing(_lined_drawing(g, lab, {}).coords, ())
    cs = rotation_for(p.points)
    rpts = sorted(rotate(q, cs) for q in p.points)
    xs = [q[0] for q in rpts]
    if len(set(xs)) != len(xs):
        raise AssertionError("rotation failed to separate x-coordinates")

    curve = build_curve_bundle(d).best
    lab = labeling_from_curve(g, curve)
    v_positions = [i for i, e in enumerate(lab.order) if e[0] == 'v']
    if len(v_positions) < len(p):
        raise AssertionError("curve visits fewer vertices than guaranteed")
    chosen_pos = v_positions[:len(p)]
    flat = _lined_drawing(g, lab, dict(zip(chosen_pos, xs)))
    chosen = tuple(lab.order[i][1] for i in chosen_pos)
    heights = {v: F(0) for v in flat.designated}
    heights.update({v: rpts[i][1] for i, v in enumerate(chosen)})
    lifted = lift_off_line(g, flat, heights)
    coords = {v: unrotate(q, cs) for v, q in lifted.coords.items()}
    final = Drawing(coords, chosen)
    for v, q in zip(chosen, sorted(rotate(t, cs) for t in p.points)):
        if coords[v] != unrotate(q, cs):
            raise AssertionError(f"vertex {v} missed its prescribed point")
    # the prescribed points need not be collinear: verify planarity only
    report = verify_drawing(g, Drawing(coords, ()))
    if not report.ok:
        raise DrawingRejected(f"universal placement drawing failed: {report.violations}")
    return final


# -- untangling -------------------------------------------------------------------


def _longest_monotone(seq: List[F]) -> Tuple[List[int], bool]:
    """Indices of the longest strictly increasing or strictly decreasing
    subsequence, and whether it is increasing."""
    def lis(s):
        best: List[List[int]] = [[]]
        length = [0] * len(s)
        prev = [-1] * len(s)
        for i, x in enumerate(s):
            for j in range(i):
                if s[j] < x and length[j] >= length[i]:
                    length[i] = length[j] + 1
                    prev[i] = j
        if not s:
            return []
        i = max(range(len(s)), key=lambda i: length[i])
        out = []
        while i != -1:
            out.append(i)
            i = prev[i]
        return out[::-1]

    inc = lis(seq)
    dec = lis([-x for x in seq])
    return (inc, True) if len(inc) >= len(dec) else (dec, False)


def untangle(g: PlaneGraph, bad: Mapping[int, Point]) -> UntangleResult:
    """Planar re-drawing of the plane 3-tree fixing many of ``bad``'s positions.

    At least ceil(sqrt(ceil((n-3)/8))) vertices keep their exact positions:
    the guaranteed collinear set induces an ordered point sequence, and its
    longest monotone subsequence can be laid back on a line.
    """
    bad = {v: (F(x), F(y)) for v, (x, y) in bad.items()}
    if len(set(bad.values())) != len(bad):
        raise ApplicationError("input positions must be pairwise distinct")
    d = decompose(g)
    curve = build_curve_bundle(d).best
    lab = labeling_from_curve(g, curve)
    line = list(lab.on_line)
    cs = rotation_for([bad[v] for v in line])
    seq = [rotate(bad[v], cs)[0] for v in line]
    picked, increasing = _longest_monotone(seq)
    if not increasing:
        lab = labeling_from_curve(g, curve.reversed())
        line = list(lab.on_line)
        picked = sorted(len(line) - 1 - i for i in picked)
        seq = [rotate(bad[v], cs)[0] for v in line]
    fixed = [line[i] for i in picked]
    need = math.isqrt(collinear_guarantee(g.n) - 1) + 1
    if len(fixed) < need:
        raise AssertionError(f"monotone selection kept {len(fixed)} < {need}")

    v_positions = [i for i, e in enumerate(lab.order) if e[0] == 'v']
    pos_of = {line[i]: v_positions[i] for i in range(len(line))}
    assigned = {pos_of[v]: seq[i] for v, i in zip(fixed, picked)}
    flat = _lined_drawing(g, lab, assigned)
    heights = {v: F(0) for v in flat.designated}
    heights.update({v: rotate(bad[v], cs)[1] for v in fixed})
    lifted = lift_off_line(g, flat, heights)
    coords = {v: unrotate(q, cs) for v, q in lifted.coords.items()}
    final = Drawing(coords, tuple(fixed))
    for v in fixed:
        if coords[v] != bad[v]:
            raise AssertionError(f"fixed vertex {v} moved")
    # the fixed positions need not be collinear: verify planarity only
    report = verify_drawing(g, Drawing(coords, ()))
    if not report.ok:
        raise DrawingRejected(f"untangled drawing failed: {report.violations}")
    return UntangleResult(fixed=frozenset(fixed), drawing=final)
