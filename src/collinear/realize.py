"""Exact straight-line realizations.

Drawings are maps from vertices to exact rational points.  This module
provides:

* ``Drawing`` / ``PolylineDrawing`` with a text interchange format and an
  SVG export;
* ``verify_drawing`` -- exact planarity (a Shamos-Hoey sweep on integer
  determinant signs), embedding fidelity (rotation system and outer face),
  and collinearity of the designated vertices;
* ``tutte_convex`` -- barycentric embedding with a fixed convex boundary,
  solved exactly over the rationals;
* ``LabelingOrder`` / ``labeling_from_curve`` -- the side labels (above /
  below / on the line), the crossing order, and the target positions that
  a proper good curve induces;
* ``place_free`` -- recursive placement of a plane 3-tree that puts every
  on-line vertex and every crossing edge exactly at its target;
* ``straighten_preserving_y`` -- replace y-monotone polyline edges by
  straight segments keeping every y-coordinate: one bottom-to-top level
  sweep over the active edges gives the left-to-right order at every
  vertex level, and a sparse feasibility LP on those orders gives new
  x-coordinates, re-checked exactly in integers;
* ``curve_to_drawing`` -- realize a proper good curve as a straight-line
  drawing with all its vertex stations on the x-axis (for graphs that are
  not 3-trees: both sides drawn barycentrically, then straightened on the
  ranked vertex levels);
* ``lift_off_line`` -- re-place the collinear vertices at arbitrary
  prescribed heights while keeping the drawing planar.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .geom import (F, HPoint, crosses_h, direction_h, homogeneous, line_h,
                   line_intersection, line_through, on_segment, orient,
                   point_in_triangle, seg_line_y0_crossing, side_h)
from .plane_graph import (PlaneGraph, PlaneGraphError, edge_key,
                          graph_from_positions, _cyclic_eq)
from .curves import GoodCurve, AugmentedCurve, augment_with_curve
from .three_tree import ThreeTreeError, decompose

Point = Tuple[Fraction, Fraction]
Elem = Tuple[str, object]          # ('v', vertex) or ('e', (u, v))

UP, DOWN, ON = "up", "down", "on"


class RealizeError(ValueError):
    """Raised for inconsistent labelings, infeasible placements, or
    malformed drawing data."""


def _pt(x, y) -> Point:
    return (F(x), F(y))


# -- drawings ---------------------------------------------------------------------

@dataclass(frozen=True)
class Drawing:
    """Exact straight-line drawing: vertex -> rational point, plus the
    designated (intended collinear) vertex set."""
    coords: Dict[int, Point]
    designated: Tuple[int, ...] = ()

    def point(self, v: int) -> Point:
        return self.coords[v]


@dataclass(frozen=True)
class PolylineDrawing:
    """Straight-line drawing whose edges may carry interior bend points.

    ``bends[edge_key(u, v)]`` lists the bends in order from the smaller
    endpoint to the larger one.
    """
    coords: Dict[int, Point]
    bends: Dict[Tuple[int, int], Tuple[Point, ...]] = field(default_factory=dict)

    def polyline(self, u: int, v: int) -> List[Point]:
        e = edge_key(u, v)
        pts = [self.coords[e[0]], *self.bends.get(e, ()), self.coords[e[1]]]
        return pts if (u, v) == e else pts[::-1]


def serialize_drawing(d: Drawing) -> str:
    lines = [f"drawing {len(d.coords)}"]
    for v in sorted(d.coords):
        (x, y) = d.coords[v]
        lines.append(f"v {v} {x.numerator}/{x.denominator} {y.numerator}/{y.denominator}")
    lines.append("designated: " + " ".join(str(v) for v in d.designated))
    return "\n".join(lines) + "\n"


def parse_drawing(text: str) -> Drawing:
    coords: Dict[int, Point] = {}
    designated: Tuple[int, ...] = ()
    n_declared = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("drawing "):
            n_declared = int(line.split()[1])
        elif line.startswith("v "):
            _, v, xs, ys = line.split()
            coords[int(v)] = (Fraction(xs), Fraction(ys))
        elif line.startswith("designated:"):
            designated = tuple(int(t) for t in line.split(":", 1)[1].split())
        else:
            raise RealizeError(f"unrecognized drawing line: {line!r}")
    if n_declared is not None and n_declared != len(coords):
        raise RealizeError(f"drawing declares {n_declared} vertices, has {len(coords)}")
    missing = [v for v in designated if v not in coords]
    if missing:
        raise RealizeError(f"designated vertices without coordinates: {missing}")
    return Drawing(coords, designated)


def drawing_to_svg(g: PlaneGraph, d: Drawing, size: int = 640) -> str:
    """Deterministic SVG: edges as segments, designated vertices highlighted,
    the line y = 0 drawn across the viewport."""
    pts = {v: (float(p[0]), float(p[1])) for v, p in d.coords.items()}
    xs = [p[0] for p in pts.values()] or [0.0]
    ys = [p[1] for p in pts.values()] or [0.0]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    margin = 0.05 * span
    scale = size / (span + 2 * margin)

    def sx(x):
        return (x - lo_x + margin) * scale

    def sy(y):                          # flip: SVG y grows downward
        return (hi_y - y + margin) * scale

    height = int(round((hi_y - lo_y + 2 * margin) * scale))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{height}" '
           f'viewBox="0 0 {size} {height}">']
    if lo_y - margin <= 0 <= hi_y + margin:
        out.append(f'  <line x1="0" y1="{sy(0):.3f}" x2="{size}" y2="{sy(0):.3f}" '
                   f'stroke="#888" stroke-dasharray="6 4" stroke-width="1"/>')
    for (u, v) in sorted(g.edges):
        (x1, y1), (x2, y2) = pts[u], pts[v]
        out.append(f'  <line x1="{sx(x1):.3f}" y1="{sy(y1):.3f}" '
                   f'x2="{sx(x2):.3f}" y2="{sy(y2):.3f}" stroke="#333" stroke-width="1.5"/>')
    special = set(d.designated)
    for v in sorted(pts):
        x, y = pts[v]
        color = "#d32" if v in special else "#36c"
        r = 5 if v in special else 3.5
        out.append(f'  <circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="{r}" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- verification -----------------------------------------------------------------

@dataclass
class DrawingReport:
    planar: bool
    embedding_ok: bool
    outer_ok: bool
    collinear_ok: bool
    violations: List[str]

    @property
    def ok(self) -> bool:
        return self.planar and self.embedding_ok and self.outer_ok and self.collinear_ok


def _planarity_violations(coords: Mapping[int, Point],
                          edges: Iterable[Tuple[int, int]]) -> List[str]:
    """Exact planarity audit of a straight-line drawing: the first violation
    a Shamos-Hoey sweep meets, or ``[]`` when the drawing is planar.

    A violation is a pair of coincident vertices, a vertex inside an edge
    (a collinear overlap included) or two edges crossing properly.  Events
    are the vertices in lexicographic order, which also orders vertical
    edges.  The status lists the edges that span the sweep position from
    bottom to top; at each vertex it is searched by bisection, the edges
    ending there leave, the edges starting there enter in angular order, and
    only the newly adjacent pairs are tested.  Every predicate is the sign of
    an integer determinant on homogeneous coordinates (``geom.side_h``).
    """
    from functools import cmp_to_key

    order = sorted(sorted(coords), key=coords.__getitem__)
    for a, b in zip(order, order[1:]):
        if coords[a] == coords[b]:
            return [f"vertices {a} and {b} coincide at {coords[a]}"]
    rank = {v: i for i, v in enumerate(order)}
    H = {v: homogeneous(p) for v, p in coords.items()}
    edges = sorted(edges)
    left: List[int] = []                 # edge index -> left end point
    right: List[int] = []                # edge index -> right end point
    starts: Dict[int, List[int]] = {v: [] for v in order}
    for i, (u, w) in enumerate(edges):
        if rank[u] > rank[w]:
            u, w = w, u
        left.append(u)
        right.append(w)
        starts[u].append(i)
    lines = [line_h(H[u], H[w]) for u, w in zip(left, right)]

    status: List[int] = []               # edge indices, bottom to top
    for v in order:
        p = H[v]
        lo, hi = 0, len(status)
        while lo < hi:                   # first edge not strictly below p
            mid = (lo + hi) // 2
            if side_h(lines[status[mid]], p) > 0:
                lo = mid + 1
            else:
                hi = mid
        hi = lo
        while hi < len(status) and side_h(lines[status[hi]], p) == 0:
            if right[status[hi]] != v:   # edges through p must end there
                return [f"vertex {v} lies on edge {edges[status[hi]]}"]
            hi += 1
        del status[lo:hi]

        dirs = {i: direction_h(p, H[right[i]]) for i in starts[v]}

        def below(i: int, j: int) -> int:
            (x1, y1), (x2, y2) = dirs[i], dirs[j]
            cr = x1 * y2 - y1 * x2
            return (cr < 0) - (cr > 0)

        # edges leaving in one direction overlap; the sweep reports the
        # nearer far end when it reaches it inside the other edge
        new = sorted(starts[v], key=cmp_to_key(below))
        status[lo:lo] = new
        top = lo + len(new)
        for a, b in ((lo - 1, lo), (top - 1, top)) if new else ((lo - 1, lo),):
            if a >= 0 and b < len(status):
                i, j = status[a], status[b]
                if crosses_h(H[left[i]], H[right[i]], H[left[j]], H[right[j]]):
                    e, f = sorted((edges[i], edges[j]))
                    return [f"edges {e} and {f} intersect"]
    return []


def verify_drawing(g: PlaneGraph, d: Drawing) -> DrawingReport:
    """Exact audit: planarity, rotation-system fidelity, outer-face fidelity,
    and collinearity of the designated vertices."""
    violations: List[str] = []
    missing = [v for v in g.vertices if v not in d.coords]
    if missing:
        return DrawingReport(False, False, False, False,
                             [f"vertices without coordinates: {missing[:10]}"])

    planar_viol = _planarity_violations(d.coords, g.edges)
    violations.extend(planar_viol)
    planar = not planar_viol

    embedding_ok = outer_ok = False
    try:
        gp = graph_from_positions({v: d.coords[v] for v in g.vertices}, g.edges)
        embedding_ok = all(_cyclic_eq(gp.rot[v], g.rot[v]) for v in g.vertices)
        if not embedding_ok:
            bad = next(v for v in g.vertices if not _cyclic_eq(gp.rot[v], g.rot[v]))
            violations.append(
                f"rotation at vertex {bad} is {gp.rot[bad]}, expected {g.rot[bad]}")
        outer_ok = gp.face_key(gp.outer) == g.face_key(g.outer)
        if not outer_ok:
            violations.append(
                f"outer face is {gp.face_key(gp.outer)}, expected {g.face_key(g.outer)}")
    except PlaneGraphError as exc:
        violations.append(f"embedding reconstruction failed: {exc}")

    collinear_ok = True
    des = [v for v in d.designated]
    if len(des) >= 3:
        line = line_h(homogeneous(d.coords[des[0]]), homogeneous(d.coords[des[1]]))
        for v in des[2:]:
            if side_h(line, homogeneous(d.coords[v])) != 0:
                collinear_ok = False
                violations.append(
                    f"designated vertices {des[0]}, {des[1]}, {v} are not collinear")
                break
    return DrawingReport(planar, embedding_ok, outer_ok, collinear_ok, violations)


# -- barycentric (Tutte) embedding ------------------------------------------------

def _solve_barycentric(rows: Dict[int, Dict[int, Fraction]],
                       rhs: Dict[int, List[Fraction]]) -> Dict[int, List[Fraction]]:
    """Exact sparse Gaussian elimination with min-degree pivoting.

    ``rows[v]`` maps unknowns to coefficients; ``rhs[v]`` is a pair of right
    hand sides (x and y are solved simultaneously).
    """
    occurs: Dict[int, Set[int]] = {v: set() for v in rows}
    for r, row in rows.items():
        for v in row:
            occurs[v].add(r)
    order: List[Tuple[int, Dict[int, Fraction], List[Fraction]]] = []
    remaining = set(rows)
    while remaining:
        p = min(remaining, key=lambda v: (len(rows[v]), v))
        prow, prhs = rows[p], rhs[p]
        piv = prow.get(p, Fraction(0))
        if piv == 0:
            raise RealizeError("singular barycentric system")
        order.append((p, prow, prhs))
        remaining.discard(p)
        for r in list(occurs[p]):
            if r == p or r not in remaining:
                continue
            row = rows[r]
            factor = row[p] / piv
            del row[p]
            for v, c in prow.items():
                if v == p:
                    continue
                nv = row.get(v, Fraction(0)) - factor * c
                if nv == 0:
                    row.pop(v, None)
                    occurs[v].discard(r)
                else:
                    if v not in row:
                        occurs[v].add(r)
                    row[v] = nv
            rhs[r][0] -= factor * prhs[0]
            rhs[r][1] -= factor * prhs[1]
        occurs[p] = set()
    sol: Dict[int, List[Fraction]] = {}
    for p, prow, prhs in reversed(order):
        acc = [prhs[0], prhs[1]]
        for v, c in prow.items():
            if v == p:
                continue
            acc[0] -= c * sol[v][0]
            acc[1] -= c * sol[v][1]
        piv = prow[p]
        sol[p] = [acc[0] / piv, acc[1] / piv]
    return sol


def tutte_convex(g: PlaneGraph, polygon: Mapping[int, Point]) -> Drawing:
    """Barycentric drawing: the outer walk fixed at the given convex positions,
    every interior vertex exactly at the average of its neighbors."""
    walk = g.outer_walk()
    boundary = set(walk)
    for v in walk:
        if v not in polygon:
            raise RealizeError(f"no polygon position for outer vertex {v}")
    pos = {v: _pt(*polygon[v]) for v in walk}
    k = len(walk)
    if k < 3:
        raise RealizeError("outer walk is not a cycle")
    if len(set(walk)) != k:
        raise RealizeError("outer walk repeats a vertex; boundary is not a simple cycle")
    signs = set()
    for i in range(k):
        signs.add(orient(pos[walk[i]], pos[walk[(i + 1) % k]], pos[walk[(i + 2) % k]]))
    if signs - {0, -1}:
        raise RealizeError("polygon positions do not traverse a convex boundary clockwise")
    if -1 not in signs:
        raise RealizeError("polygon positions are collinear")

    interior = [v for v in g.vertices if v not in boundary]
    rows: Dict[int, Dict[int, Fraction]] = {}
    rhs: Dict[int, List[Fraction]] = {}
    for v in interior:
        row: Dict[int, Fraction] = {v: Fraction(g.degree(v))}
        b = [Fraction(0), Fraction(0)]
        for u in g.rot[v]:
            if u in boundary:
                b[0] += pos[u][0]
                b[1] += pos[u][1]
            else:
                row[u] = row.get(u, Fraction(0)) - 1
        rows[v] = row
        rhs[v] = b
    sol = _solve_barycentric(rows, rhs) if rows else {}
    coords = dict(pos)
    for v, (x, y) in sol.items():
        coords[v] = (x, y)
    return Drawing(coords)


# -- labelings induced by a curve -------------------------------------------------

@dataclass(frozen=True)
class LabelingOrder:
    """Side labels, crossing order, and target positions on the line y = 0.

    ``labels[v]`` is one of ``'up'``, ``'down'``, ``'on'``.  ``order`` is the
    left-to-right sequence over the on-line vertices and the crossing edges;
    ``targets`` assigns each of them a strictly increasing x-coordinate.
    """
    labels: Dict[int, str]
    order: Tuple[Elem, ...]
    targets: Dict[Elem, Fraction]

    @property
    def on_line(self) -> Tuple[int, ...]:
        return tuple(e[1] for e in self.order if e[0] == 'v')

    def validate(self, g: PlaneGraph) -> None:
        for v in g.vertices:
            if self.labels.get(v) not in (UP, DOWN, ON):
                raise RealizeError(f"vertex {v} has no valid label")
        want: Set[Elem] = {('v', v) for v in g.vertices if self.labels[v] == ON}
        for (u, v) in g.edges:
            if {self.labels[u], self.labels[v]} == {UP, DOWN}:
                want.add(('e', edge_key(u, v)))
        have = set(self.order)
        if len(have) != len(self.order):
            raise RealizeError("ordering repeats an element")
        if have != want:
            raise RealizeError(
                f"ordering covers {sorted(have - want)} unexpectedly and misses "
                f"{sorted(want - have)}")
        xs = [self.targets[e] for e in self.order]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise RealizeError("target positions are not strictly increasing")


def _outer_corner(g: PlaneGraph, v: int) -> Tuple[int, int]:
    """(w_in, w_out) with the darts (w_in, v), (v, w_out) consecutive on the
    outer walk: the angular gap of v that faces the unbounded region."""
    walk = g.faces[g.outer]
    for i, (x, y) in enumerate(walk):
        if y == v:
            return x, walk[(i + 1) % len(walk)][1]
    raise RealizeError(f"vertex {v} is not on the outer face")


def _arc_cw(rot: Sequence[int], start: int, stop: int) -> List[int]:
    """Neighbors strictly between start and stop going clockwise."""
    i = rot.index(start)
    out = []
    j = (i + 1) % len(rot)
    while rot[j] != stop:
        out.append(rot[j])
        j = (j + 1) % len(rot)
    return out


def _side_seeds(aug: AugmentedCurve) -> Tuple[Set[int], Set[int]]:
    """Split the neighbors of the curve path into the two sides of the curve.

    Which of the two returned sets is 'up' is fixed later by the orientation
    test in ``_orient_sides``; here side A is the side swept clockwise from
    the path-successor to the path-predecessor at each path vertex.
    """
    g = aug.graph
    path = aug.path_vertices
    on_path = set(path)
    side_a: Set[int] = set()    # clockwise from successor to predecessor
    side_b: Set[int] = set()

    def classify(v: int, nxt: Optional[int], prv: Optional[int]) -> None:
        rot = g.rot[v]
        if nxt is None and prv is None:    # single-vertex path: no seeds
            return
        if nxt is not None and prv is not None:
            for w in _arc_cw(rot, nxt, prv):
                side_a.add(w)
            for w in _arc_cw(rot, prv, nxt):
                side_b.add(w)
            return
        # path endpoint that is a real vertex: the line continues into the
        # unbounded region through the outer-face corner of v
        if len(rot) == 1:
            return
        w_in, w_out = _outer_corner(g, v)
        if nxt is not None:        # first path vertex
            arc = _arc_cw(rot, nxt, w_out)
            side_a.update(arc)
            side_b.update(x for x in rot
                          if x not in arc and x != nxt and x not in on_path)
        else:                      # last path vertex
            arc = _arc_cw(rot, prv, w_out)
            side_b.update(arc)
            side_a.update(x for x in rot
                          if x not in arc and x != prv and x not in on_path)

    for i, p in enumerate(path):
        nxt = path[i + 1] if i + 1 < len(path) else None
        prv = path[i - 1] if i > 0 else None
        classify(p, nxt, prv)
    side_a -= on_path
    side_b -= on_path
    if side_a & side_b:
        raise RealizeError(
            f"curve does not separate its neighborhood: {sorted(side_a & side_b)}")

    # flood fill the rest of the graph
    label: Dict[int, int] = {}
    for v in side_a:
        label[v] = 0
    for v in side_b:
        label[v] = 1
    stack = list(label)
    while stack:
        v = stack.pop()
        for u in g.rot[v]:
            if u in on_path:
                continue
            if u in label:
                if label[u] != label[v]:
                    raise RealizeError(
                        f"vertices {v} and {u} connect the two sides of the curve")
                continue
            label[u] = label[v]
            stack.append(u)
    a = {v for v, s in label.items() if s == 0}
    b = {v for v, s in label.items() if s == 1}
    rest = set(g.vertices) - on_path - a - b
    if rest:
        # no seed reached these vertices (single-vertex curves); they form
        # one side on their own
        a |= rest
    return a, b


def _path_dart_orientation(sub: PlaneGraph, path: Sequence[int]) -> Optional[bool]:
    """True if sub's outer walk traverses the path backwards (last to first),
    False if forwards, None if undecidable (both sides empty)."""
    darts = set(sub.faces[sub.outer])
    fwd = sum((a, b) in darts and (b, a) not in darts
              for a, b in zip(path, path[1:]))
    bwd = sum((b, a) in darts and (a, b) not in darts
              for a, b in zip(path, path[1:]))
    if fwd and bwd:
        return None
    if bwd:
        return True
    if fwd:
        return False
    return None


def curve_sides(aug: AugmentedCurve) -> Tuple[Set[int], Set[int]]:
    """(above, below): the two sides of a proper curve drawn along the x-axis
    with its first endpoint on the left.

    The side whose subgraph's outer walk traverses the curve path from its
    last vertex back to its first is the one drawn above the line.
    """
    if not aug.proper:
        raise RealizeError("curve sides are defined for proper open curves")
    side_a, side_b = _side_seeds(aug)
    path = aug.path_vertices
    if len(path) < 2 or (not side_a and not side_b):
        return side_a | side_b, set()
    on_path = set(path)
    ori = _path_dart_orientation(aug.graph.subgraph(on_path | side_a), path)
    if ori is None:
        ori_b = _path_dart_orientation(aug.graph.subgraph(on_path | side_b), path)
        if ori_b is None:
            return side_a, side_b
        ori = not ori_b
    return (side_a, side_b) if ori else (side_b, side_a)


def labeling_from_curve(g: PlaneGraph, c: GoodCurve) -> LabelingOrder:
    """Labels, order and integer targets induced by a proper good curve: its
    vertex stations become on-line vertices, its crossings become crossing
    edges, in station order at x = 1, 2, ..."""
    aug = augment_with_curve(g, c)
    if not aug.proper:
        raise RealizeError("curve is not proper (an endpoint misses the outer region)")
    order: List[Elem] = []
    for s in c.stations:
        if s[0] == 'v':
            order.append(('v', s[1]))
        elif s[0] == 'x':
            order.append(('e', s[1]))
    if len(set(order)) != len(order):
        raise RealizeError("curve visits an element twice")
    targets = {e: Fraction(i + 1) for i, e in enumerate(order)}
    above, below = curve_sides(aug)
    labels: Dict[int, str] = {}
    for v in g.vertices:
        if v in above:
            labels[v] = UP
        elif v in below:
            labels[v] = DOWN
        else:
            labels[v] = ON
    lab = LabelingOrder(labels, tuple(order), targets)
    lab.validate(g)
    return lab


# -- free placement of plane 3-trees ----------------------------------------------

def _centroid(a: Point, b: Point, c: Point) -> Point:
    return ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)


def _midpoint(a: Point, b: Point) -> Point:
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


class _Placer:
    def __init__(self, g: PlaneGraph, lab: LabelingOrder):
        self.g = g
        self.lab = lab
        self.pts: Dict[int, Point] = {}

    def fail(self, tri: Tuple[int, int, int], msg: str) -> None:
        raise RealizeError(f"inconsistent labeling at triangle {tri}: {msg}")

    def target_v(self, tri, v: int) -> Fraction:
        q = self.lab.targets.get(('v', v))
        if q is None:
            self.fail(tri, f"on-line vertex {v} has no target")
        return q

    def target_e(self, tri, a: int, b: int) -> Fraction:
        q = self.lab.targets.get(('e', edge_key(a, b)))
        if q is None:
            self.fail(tri, f"crossing edge {edge_key(a, b)} has no target")
        return q

    def beyond(self, tri, pa: Point, qx: Fraction) -> Point:
        """Midpoint between (qx, 0) and the exit of the ray from pa through it."""
        q = _pt(qx, 0)
        pu, pv, pz = (self.pts[c] for c in tri)
        if not point_in_triangle(q, pu, pv, pz, strict=True):
            self.fail(tri, f"target x = {qx} is not interior to the triangle")
        others = [self.pts[c] for c in tri if self.pts[c] != pa]
        exit_pt = line_intersection(line_through(pa, q), line_through(*others))
        if exit_pt is None or not on_segment(exit_pt, *others):
            self.fail(tri, f"ray through x = {qx} does not exit the opposite side")
        return _midpoint(q, exit_pt)

    def cross2(self, tri, pa: Point, qa: Fraction, pb: Point, qb: Fraction) -> Point:
        p = line_intersection(line_through(pa, _pt(qa, 0)),
                              line_through(pb, _pt(qb, 0)))
        if p is None:
            self.fail(tri, f"crossing rays through x = {qa} and x = {qb} are parallel")
        return p

    def place(self, tri: Tuple[int, int, int], w: int) -> Point:
        u, v, z = tri
        L = self.lab.labels
        lw = L[w]
        labs = (L[u], L[v], L[z])

        if all(l in (UP, ON) for l in labs) or all(l in (DOWN, ON) for l in labs):
            side = UP if all(l in (UP, ON) for l in labs) else DOWN
            if lw != side:
                self.fail(tri, f"vertex {w} labeled {lw} inside a one-sided triangle")
            p = _centroid(*(self.pts[c] for c in tri))
        else:
            rots = [(u, v, z), (v, z, u), (z, u, v)]
            frame = next(((a, b, c) for (a, b, c) in rots
                          if L[a] == UP and L[b] == DOWN), None)
            if frame is not None:
                ru, rv, rz = frame
                lz = L[rz]
                if lw == ON:
                    p = _pt(self.target_v(tri, w), 0)
                elif lz == ON:
                    p = (self.beyond(tri, self.pts[rv], self.target_e(tri, rv, w))
                         if lw == UP else
                         self.beyond(tri, self.pts[ru], self.target_e(tri, ru, w)))
                elif lz == UP:
                    p = (self.beyond(tri, self.pts[rv], self.target_e(tri, rv, w))
                         if lw == UP else
                         self.cross2(tri, self.pts[ru], self.target_e(tri, ru, w),
                                     self.pts[rz], self.target_e(tri, rz, w)))
                else:  # lz == DOWN; mirror of the previous case across the line
                    p = (self.beyond(tri, self.pts[ru], self.target_e(tri, ru, w))
                         if lw == DOWN else
                         self.cross2(tri, self.pts[rv], self.target_e(tri, rv, w),
                                     self.pts[rz], self.target_e(tri, rz, w)))
            else:
                # cyclic pattern (up, on, down): left-right mirror of the
                # (up, down, on) case
                frame = next(((a, b, c) for (a, b, c) in rots
                              if L[a] == UP and L[b] == ON and L[c] == DOWN), None)
                if frame is None:
                    self.fail(tri, f"unplaceable corner labels {labs}")
                r0, r1, r2 = frame
                if lw == ON:
                    p = _pt(self.target_v(tri, w), 0)
                elif lw == UP:
                    p = self.beyond(tri, self.pts[r2], self.target_e(tri, r2, w))
                else:
                    p = self.beyond(tri, self.pts[r0], self.target_e(tri, r0, w))

        pu, pv, pz = (self.pts[c] for c in tri)
        if not point_in_triangle(p, pu, pv, pz, strict=True):
            self.fail(tri, f"vertex {w} falls outside its triangle")
        want = {UP: 1, DOWN: -1, ON: 0}[lw]
        if (p[1] > 0) - (p[1] < 0) != want:
            self.fail(tri, f"vertex {w} labeled {lw} lands at y = {p[1]}")
        return p


def _root_triangle(corners: Tuple[int, int, int], lab: LabelingOrder) -> Dict[int, Point]:
    """Outer-triangle positions honoring the corner labels and the extreme
    targets; the corners are given counter-clockwise."""
    L = lab.labels
    labs = tuple(L[c] for c in corners)
    order = lab.order

    def fail(msg):
        raise RealizeError(f"outer triangle {corners}: {msg}")

    def check_extremes(first: Elem, last: Elem):
        if not order or order[0] != first or order[-1] != last:
            fail(f"ordering must start with {first} and end with {last}, "
                 f"got {order[:1]} ... {order[-1:]}")

    one = F(1)
    if all(l in (UP, ON) for l in labs) or all(l in (DOWN, ON) for l in labs):
        side = UP if all(l in (UP, ON) for l in labs) else DOWN
        ons = [c for c in corners if L[c] == ON]
        expect = tuple(('v', c) for c in sorted(ons, key=lambda c: lab.targets.get(('v', c), 0)))
        if tuple(order) != expect:
            fail(f"one-sided outer triangle allows only its on-line corners in "
                 f"the ordering, got {order}")
        y = one if side == UP else -one
        if len(ons) == 3:
            fail("all three outer corners cannot lie on the line")
        if len(ons) == 2:
            a, b = ons
            qa, qb = lab.targets[('v', a)], lab.targets[('v', b)]
            t = next(c for c in corners if L[c] != ON)
            pts = {a: _pt(qa, 0), b: _pt(qb, 0), t: ((qa + qb) / 2, y)}
        elif len(ons) == 1:
            c0 = ons[0]
            q = lab.targets[('v', c0)]
            rest = [c for c in corners if c != c0]
            pts = {c0: _pt(q, 0),
                   rest[0]: (q + (1 if side == UP else -1), y),
                   rest[1]: (q - (1 if side == UP else -1), y)}
        else:
            pts = dict(zip(corners, [_pt(0, y), _pt(2 if side == UP else 1, 2 * y),
                                     _pt(1 if side == UP else 2, 2 * y)]))
        ps = [pts[c] for c in corners]
        if orient(*ps) != 1:
            fail("corner labels are incompatible with the counter-clockwise frame")
        return pts

    if not order:
        fail("mixed corner labels but empty ordering")
    rots = [tuple(corners[(i + k) % 3] for k in range(3)) for i in range(3)]
    frame = next((r for r in rots if L[r[0]] == UP and L[r[1]] == DOWN), None)
    if frame is not None:
        ru, rv, rz = frame
        if L[rz] == ON:
            first, last = ('e', edge_key(ru, rv)), ('v', rz)
            check_extremes(first, last)
            x1, xk = lab.targets[first], lab.targets[last]
            return {ru: _pt(x1, 1), rv: _pt(x1, -1), rz: _pt(xk, 0)}
        if L[rz] == UP:
            first, last = ('e', edge_key(ru, rv)), ('e', edge_key(rv, rz))
            check_extremes(first, last)
            x1, xk = lab.targets[first], lab.targets[last]
            return {ru: _pt(x1, 1), rv: _pt(x1, -1), rz: (2 * xk - x1, one)}
        first, last = ('e', edge_key(ru, rv)), ('e', edge_key(ru, rz))
        check_extremes(first, last)
        x1, xk = lab.targets[first], lab.targets[last]
        return {ru: _pt(x1, 1), rv: _pt(x1, -1), rz: (2 * xk - x1, -one)}
    frame = next((r for r in rots if L[r[0]] == UP and L[r[1]] == ON and L[r[2]] == DOWN),
                 None)
    if frame is None:
        fail(f"unplaceable corner labels {labs}")
    r0, r1, r2 = frame
    first, last = ('v', r1), ('e', edge_key(r0, r2))
    check_extremes(first, last)
    x1, xk = lab.targets[first], lab.targets[last]
    return {r0: _pt(xk, 1), r1: _pt(x1, 0), r2: _pt(xk, -1)}


def place_free(g: PlaneGraph, lab: LabelingOrder) -> Drawing:
    """Straight-line drawing of a plane 3-tree in which every on-line vertex
    sits exactly at its target and every crossing edge meets y = 0 exactly at
    its target."""
    lab.validate(g)
    decomp = decompose(g)
    placer = _Placer(g, lab)
    placer.pts.update(_root_triangle(decomp.root.corners, lab))
    stack = [decomp.root]
    while stack:
        node = stack.pop()
        if node.kind == 'empty':
            continue
        placer.pts[node.w] = placer.place(node.corners, node.w)
        stack.extend(node.children)

    coords = dict(placer.pts)
    for elem in lab.order:
        if elem[0] == 'v':
            q = lab.targets[elem]
            assert coords[elem[1]] == (q, 0)
        else:
            a, b = elem[1]
            hit = seg_line_y0_crossing(coords[a], coords[b])
            if hit is None or hit[0] != lab.targets[elem]:
                raise RealizeError(
                    f"edge {elem[1]} does not cross the line at its target")
    designated = tuple(e[1] for e in lab.order if e[0] == 'v')
    return Drawing(coords, designated)


def lift_off_line(g: PlaneGraph, d: Drawing, heights: Mapping[int, Fraction]) -> Drawing:
    """Move the designated (on-line) vertices to prescribed heights.

    The designated vertices of ``d`` must lie on y = 0 with distinct x's.
    Every vertex (x, y) is re-placed at (x, M*y + h(x)) where h is the
    piecewise-linear interpolant of the prescribed heights and M doubles
    until the drawing verifies.
    """
    des = sorted(d.designated, key=lambda v: d.coords[v][0])
    if not des:
        raise RealizeError("drawing has no designated vertices to lift")
    for v in des:
        if d.coords[v][1] != 0:
            raise RealizeError(f"designated vertex {v} is not on the line")
        if v not in heights:
            raise RealizeError(f"no height prescribed for designated vertex {v}")
    knots = [(d.coords[v][0], F(heights[v])) for v in des]

    def h(x: Fraction) -> Fraction:
        if x <= knots[0][0]:
            return knots[0][1]
        if x >= knots[-1][0]:
            return knots[-1][1]
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError

    M = Fraction(1)
    for _ in range(70):
        coords = {v: (x, M * y + h(x)) for v, (x, y) in d.coords.items()}
        lifted = Drawing(coords, d.designated)
        rep = verify_drawing(g, lifted)
        if rep.planar and rep.embedding_ok and rep.outer_ok:
            return lifted
        M *= 2
    raise RealizeError("lift failed to verify at any tested magnification")


# -- straightening y-monotone polylines -------------------------------------------

def _level_orders(g: PlaneGraph, pl: PolylineDrawing,
                  at_level: Sequence[Sequence[int]], lev: Mapping[int, int]
                  ) -> List[List[Tuple[int, int]]]:
    """Left-to-right items at every vertex level, bottom to top: ``(v, v)``
    for a vertex, ``(lower, upper)`` for an edge passing through the level.

    ``at_level[i]`` lists the vertices of level i by increasing x; ``lev``
    maps a vertex to its level.  The sweep keeps the status, the edges
    active between two levels from left to right.  It changes only at
    vertices: a vertex's downward edges are one contiguous block, found by
    bisection with exact orientation tests, and are replaced by its upward
    edges in angular order.  Passing edges keep their places and are never
    interpolated.
    """
    ends: List[Tuple[int, int]] = []              # edge -> (lower, upper)
    ys: List[List[Fraction]] = []                 # bottom to top
    hs: List[List[HPoint]] = []
    up: Dict[int, List[int]] = {v: [] for v in lev}
    down = dict.fromkeys(lev, 0)
    for (u, v) in sorted(g.edges):
        poly = [_pt(*p) for p in pl.polyline(u, v)]
        if len(poly) == 2 and poly[0][1] == poly[1][1]:
            continue                              # horizontal: in no status
        if poly[0][1] > poly[-1][1]:
            poly.reverse()
            u, v = v, u
        if any(a[1] >= b[1] for a, b in zip(poly, poly[1:])):
            raise RealizeError(f"edge {edge_key(u, v)} is not y-monotone")
        up[u].append(len(ends))
        down[v] += 1
        ends.append((u, v))
        ys.append([p[1] for p in poly])
        hs.append([homogeneous(p) for p in poly])

    def leftward(e: int, f: int) -> int:          # compare first directions
        (dx, dy), (ex, ey) = direction_h(*hs[e][:2]), direction_h(*hs[f][:2])
        return dx * ey - ex * dy
    for v, out in up.items():
        out.sort(key=cmp_to_key(leftward))
        for e, f in zip(out, out[1:]):
            if not leftward(e, f):
                raise RealizeError(f"edges {edge_key(*ends[e])} and "
                                   f"{edge_key(*ends[f])} overlap at vertex {v}")

    def side(e: int, y: Fraction, p: HPoint) -> int:
        """Sign of (x of edge e at level y) - (x of p), p at level y."""
        i = bisect_left(ys[e], y)
        q = hs[e][i]
        if ys[e][i] == y:
            d = q[0] * p[2] - p[0] * q[2]
            return (d > 0) - (d < 0)
        return side_h(line_h(hs[e][i - 1], q), p)

    orders: List[List[Tuple[int, int]]] = []
    status: List[int] = []
    for i, vs in enumerate(at_level):
        y = pl.coords[vs[0]][1]
        items: List[Tuple[int, int]] = []
        nxt: List[int] = []
        done = 0

        def passing(block: Sequence[int]) -> None:
            for e in block:
                if lev[ends[e][1]] <= i:
                    raise RealizeError(f"edge {edge_key(*ends[e])} misses its end "
                                       f"vertex at level y = {y}")
                items.append(ends[e])
            nxt.extend(block)

        for j, v in enumerate(vs):
            p = homogeneous(pl.coords[v])
            if j and pl.coords[vs[j - 1]][0] == pl.coords[v][0]:
                raise RealizeError(f"vertices {vs[j - 1]} and {v} coincide")
            lo, hi = done, len(status)
            while lo < hi:
                mid = (lo + hi) // 2
                if side(status[mid], y, p) < 0:
                    lo = mid + 1
                else:
                    hi = mid
            stop = lo + down[v]
            if stop > len(status) or any(ends[e][1] != v for e in status[lo:stop]):
                raise RealizeError(f"the edges into vertex {v} are not adjacent: "
                                   "the drawing is not planar")
            if stop < len(status) and side(status[stop], y, p) <= 0:
                raise RealizeError(f"vertex {v} lies on edge "
                                   f"{edge_key(*ends[status[stop]])}")
            passing(status[done:lo])
            items.append((v, v))
            nxt.extend(up[v])
            done = stop
        passing(status[done:])
        status = nxt
        orders.append(items)
    return orders


def _straighten(g: PlaneGraph, pl: PolylineDrawing, designated: Tuple[int, ...],
                ranked: bool) -> Drawing:
    """``straighten_preserving_y``; with ``ranked`` the vertex levels are
    mapped onto consecutive integers first, 0 staying 0 if it is a level.
    The level orders do not change, and small integer levels keep the LP
    numerically benign when the input carries huge rationals."""
    for v in g.vertices:
        if v not in pl.coords:
            raise RealizeError(f"no position for vertex {v}")
    pl = PolylineDrawing({v: _pt(*pl.coords[v]) for v in g.vertices}, pl.bends)
    coords = pl.coords
    verts = sorted(coords)
    col = {v: k for k, v in enumerate(verts)}
    levels: List[Fraction] = []
    at_level: List[List[int]] = []
    lev: Dict[int, int] = {}
    for v in sorted(verts, key=lambda v: coords[v][::-1]):
        if not levels or levels[-1] != coords[v][1]:
            levels.append(coords[v][1])
            at_level.append([])
        at_level[-1].append(v)
        lev[v] = len(levels) - 1
    orders = _level_orders(g, pl, at_level, lev)
    if ranked:
        shift = levels.index(0) if 0 in levels else 0
        out_y = [Fraction(i - shift) for i in range(len(levels))]
    else:
        out_y = levels
    den = lcm(*(y.denominator for y in out_y))
    Y = [y.numerator * (den // y.denominator) for y in out_y]

    # A row says item b lies right of item a by at least 1:
    # (N_b / D_b - N_a / D_a) . x >= 1, where a vertex v has N = x_v, D = 1
    # and an edge from u up to w at level y has N = (Y_w - y) x_u +
    # (y - Y_u) x_w, D = Y_w - Y_u > 0.  The integer vector D_a N_b - D_b N_a
    # is kept for the exact re-check.
    rows: List[List[Tuple[int, int]]] = []
    r_idx: List[int] = []
    c_idx: List[int] = []
    vals: List[float] = []
    for y, items in zip(Y, orders):
        terms = []
        for (u, w) in items:
            if u == w:
                terms.append((1, ((col[u], 1),)))
            else:
                yu, yw = Y[lev[u]], Y[lev[w]]
                terms.append((yw - yu, ((col[u], yw - y), (col[w], y - yu))))
        for (da, na), (db, nb) in zip(terms, terms[1:]):
            row: Dict[int, int] = {}
            for k, c in nb:
                row[k] = row.get(k, 0) + da * c
            for k, c in na:
                row[k] = row.get(k, 0) - db * c
            dd = da * db
            for k, c in row.items():
                val = -c / dd                     # A_ub x <= -1, correctly rounded
                if val:
                    r_idx.append(len(rows))
                    c_idx.append(k)
                    vals.append(val)
            rows.append([(k, c) for k, c in row.items() if c])

    if rows:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import coo_array

        A = coo_array((vals, (r_idx, c_idx)), shape=(len(rows), len(verts)))
        res = linprog(np.zeros(len(verts)), A_ub=A, b_ub=-np.ones(len(rows)),
                      bounds=[(None, None)] * len(verts), method="highs")
        if not res.success:
            raise RealizeError(f"straightening LP infeasible: {res.message}")
        ratios = [float(x).as_integer_ratio() for x in res.x]
        xs = [Fraction(n, d) for n, d in ratios]
        # exact re-check of every row, on the solution times one power of two
        scale = max(d for _, d in ratios)
        X = [n * (scale // d) for n, d in ratios]
        for row in rows:
            if not sum(c * X[k] for k, c in row) > 0:
                raise RealizeError("straightening solution violates a level order")
    else:
        xs = [coords[v][0] for v in verts]
    return Drawing({v: (xs[col[v]], out_y[lev[v]]) for v in verts}, designated)


def straighten_preserving_y(g: PlaneGraph, pl: PolylineDrawing,
                            designated: Tuple[int, ...] = ()) -> Drawing:
    """Replace y-monotone polyline edges by straight segments.

    Precondition: ``pl`` is a planar drawing of ``g`` with y-monotone
    polyline edges (a horizontal edge has no bends) whose level orders are
    strict: on the horizontal line through any vertex, no two vertices or
    edges share a point.  Positions of vertices not in ``g`` are ignored.
    A non-monotone edge, coinciding vertices or a vertex on an edge raise
    ``RealizeError``; two edges touching at a level are not detected.

    Keeps every vertex's y-coordinate and, at every vertex level, the
    left-to-right order of its vertices and of the edges passing through
    it.  One bottom-to-top sweep finds these orders (``_level_orders``).
    New x-coordinates come from a feasibility LP with one row per pair of
    neighbouring items, solved by HiGHS in floating point from a sparse
    matrix; every row is then re-checked exactly in integers.  Cost:
    O((n + m) log n + R) for R rows, each built in integers and re-checked
    once, plus the LP solve (a sweep probe also bisects the probed edge's
    bends).
    """
    return _straighten(g, pl, designated, ranked=False)


# -- realizing a curve (collinearity pipeline) -------------------------------------

def _insert_before(rot: List[int], anchor: int, new: int) -> None:
    rot.insert(rot.index(anchor), new)


def _add_apex(sub: PlaneGraph, path: Sequence[int]) -> Tuple[PlaneGraph, int]:
    """New degree-2 vertex in sub's outer face adjacent to the path ends; the
    cycle (apex, path) becomes the outer face."""
    a, b = path[0], path[-1]
    apex = max(sub.vertices) + 1
    rot: Dict[int, List[int]] = {v: list(sub.rot[v]) for v in sub.vertices}
    walk = sub.faces[sub.outer]
    for end in {a, b}:
        i = next(i for i, (x, y) in enumerate(walk) if y == end)
        succ = walk[(i + 1) % len(walk)][1]
        _insert_before(rot[end], succ, apex)
    rot[apex] = [a, b] if a != b else [a]
    # the apex splits the old outer region in two; the new outer face is the
    # side bounded by the whole path (the other side may carry stretches of
    # the old outer walk that do not belong to the path)
    g2 = PlaneGraph(rot, outer_face=0)
    need = set(path)
    for nb in rot[apex]:
        f = g2.face_of_dart((apex, nb))
        if need <= {x for (x, _) in g2.faces[f]}:
            return g2.with_outer(f), apex
    raise RealizeError("no face beside the apex is bounded by the whole path")


def _star_triangulate(gr: PlaneGraph) -> Tuple[PlaneGraph, Set[int]]:
    """Add a hub vertex inside every non-triangular internal face, joined to
    each face vertex; never creates an edge between existing vertices."""
    rot: Dict[int, List[int]] = {v: list(gr.rot[v]) for v in gr.vertices}
    next_id = max(gr.vertices) + 1
    stars: Set[int] = set()
    for i in gr.internal_faces():
        walk = gr.faces[i]
        if len(walk) <= 3:
            continue
        vs = [x for (x, y) in walk]
        if len(set(vs)) != len(vs):
            raise RealizeError(
                f"internal face {tuple(vs)} repeats a vertex; cannot star-triangulate")
        hub = next_id
        next_id += 1
        stars.add(hub)
        rot[hub] = list(reversed(vs))
        for (x, y) in walk:
            _insert_before(rot[x], y, hub)
    g2 = PlaneGraph(rot, outer_walk=gr.outer_walk())
    return g2, stars


def _tutte_half(sub: PlaneGraph, path: Sequence[int], above: bool) -> Dict[int, Point]:
    """Positions for one side of the curve: path fixed at (1, 0)..(L, 0), the
    apex at |y| = L + 1, interior vertices barycentric."""
    g_apex, apex = _add_apex(sub, path)
    g_tri, stars = _star_triangulate(g_apex)
    L = len(path)
    y = F(L + 1) if above else F(-(L + 1))
    polygon: Dict[int, Point] = {path[i]: _pt(i + 1, 0) for i in range(L)}
    polygon[apex] = (F(1 + L) / 2, y)
    d = tutte_convex(g_tri, polygon)
    return {v: p for v, p in d.coords.items() if v != apex and v not in stars}


def _regular_convex_drawing(g: PlaneGraph, anchor: Optional[int] = None) -> Drawing:
    """Any verified convex-boundary drawing; the anchor vertex (if given and
    on the outer face) is pinned to the origin."""
    walk = list(g.outer_walk())
    if anchor is not None and anchor in walk:
        i = walk.index(anchor)
        walk = walk[i:] + walk[:i]
    k = len(walk)
    # clockwise convex positions on a parabola-like arc, first vertex at origin
    pos: Dict[int, Point] = {}
    for j, v in enumerate(walk):
        pos[v] = (F(-j * (k - j)), F(j))
    # ensure clockwise traversal; mirror in x if not
    area2 = sum(pos[walk[i]][0] * pos[walk[(i + 1) % k]][1]
                - pos[walk[i]][1] * pos[walk[(i + 1) % k]][0] for i in range(k))
    if area2 > 0:
        pos = {v: (-x, y) for v, (x, y) in pos.items()}
    return tutte_convex(g, pos)


def _split_drawing(g: PlaneGraph, aug: AugmentedCurve) -> PolylineDrawing:
    """Each side of the curve drawn barycentrically against the curve's path
    laid on the x-axis (at least two path vertices); an edge the curve
    crosses bends where it meets the axis."""
    path = aug.path_vertices
    above, below = curve_sides(aug)
    on_path = set(path)
    coords: Dict[int, Point] = {}
    coords.update(_tutte_half(aug.graph.subgraph(on_path | above), path, above=True))
    coords.update(_tutte_half(aug.graph.subgraph(on_path | below), path, above=False))
    return PolylineDrawing(
        coords={v: coords[v] for v in g.vertices},
        bends={e: (coords[w],) for e, w in aug.subdivision.items()})


def _theorem1_pipeline(g: PlaneGraph, c: GoodCurve) -> Drawing:
    """Generic realization of a proper good curve: split along the curve,
    draw each side barycentrically against the path laid on the x-axis, then
    straighten the crossed edges on the ranked vertex levels."""
    aug = augment_with_curve(g, c)
    if not aug.proper:
        raise RealizeError("curve is not proper (an endpoint misses the outer region)")
    designated = tuple(s[1] for s in c.stations if s[0] == 'v')
    path = aug.path_vertices
    if len(path) < 2:
        d = _regular_convex_drawing(g, anchor=path[0] if path else None)
        return Drawing(d.coords, designated)
    return _straighten(g, _split_drawing(g, aug), designated, ranked=True)


def curve_to_drawing(g: PlaneGraph, c: GoodCurve) -> Drawing:
    """Straight-line drawing of g in which the curve's stations land on the
    x-axis: vertex stations exactly on it, crossed edges meeting it once."""
    if c.closed:
        raise RealizeError("only open (proper) curves can be realized on a line")
    designated = tuple(s[1] for s in c.stations if s[0] == 'v')
    try:
        decompose(g)
        is_3tree = True
    except ThreeTreeError:
        is_3tree = False
    if is_3tree:
        lab = labeling_from_curve(g, c)
        d = place_free(g, lab)
        return Drawing(d.coords, designated)
    return _theorem1_pipeline(g, c)
