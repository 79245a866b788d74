"""Exact straight-line realizations.

Drawings are maps from vertices to exact rational points.  This module
provides:

* ``Drawing``, with a text interchange format and an SVG export;
* ``verify_drawing`` -- exact planarity and embedding fidelity (on a
  triangulation one integer determinant sign per face, O(n); otherwise a
  Shamos-Hoey sweep, O((n + m) log(n + m)), and each rotation checked in
  place), and collinearity of the designated vertices;
* ``LabelingOrder`` / ``labeling_from_curve`` -- the side labels (above /
  below / on the line), the crossing order, and the target positions that
  a proper good curve induces;
* ``place_free`` -- placement of a plane 3-tree, parent triangle before
  child, that puts every on-line vertex and every crossing edge exactly at
  its target by one rule: a centre in a triangle on one side of the line
  goes to its centroid, an on-line centre to its target, and any other
  centre onto the ray from each corner labelled opposite to it through
  that crossing edge's target (a step along the one ray, or the meet of
  the two); checked on integer homogeneous coordinates;
* ``curve_to_drawing`` -- realize a proper good curve as a straight-line
  drawing with all its vertex stations on the x-axis (for graphs that are
  not 3-trees: integer levels from an st-ordering of each side of the
  curve, the path at 0, then one convex-combination system over a
  triangulation on those levels, Floater's theorem, solved for x in fixed
  point, each triangle's orientation checked exactly when rounded);
* ``lift_off_line`` -- re-place the collinear vertices at arbitrary
  prescribed heights while keeping the drawing planar, at a magnification
  read off the faces' orientations, checked once on a triangulation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from heapq import heappop, heappush
from math import gcd
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .geom import (F, HPoint, crosses_h, direction_h, homogeneous, inside_h,
                   line_h, on_segment_h, orient, side_h)
from .plane_graph import (PlaneGraph, angle_cmp, clockwise_order,
                          content_lines, edge_key, leftmost_dart, reach, read_numbers)
from .curves import GoodCurve, AugmentedCurve, Fst, Vst, augment_with_curve, validate_curve
from .three_tree import ThreeTreeDecomp, ThreeTreeError, decompose

Point = Tuple[Fraction, Fraction]
Elem = Tuple[str, object]          # ('v', vertex) or ('e', (u, v))

UP, DOWN, ON = "up", "down", "on"
_SIGN = {UP: 1, DOWN: -1, ON: 0}     # the sign of y on each side of the line


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


def serialize_drawing(d: Drawing) -> str:
    lines = [f"drawing {len(d.coords)}"]
    for v in sorted(d.coords):
        (x, y) = d.coords[v]
        lines.append(f"v {v} {x.numerator}/{x.denominator} {y.numerator}/{y.denominator}")
    lines.append("designated: " + " ".join(str(v) for v in d.designated))
    return "\n".join(lines) + "\n"


def parse_drawing(text: str) -> Drawing:
    coords: Dict[int, Point] = {}
    designated: Optional[Tuple[int, ...]] = None
    n_declared = None
    for raw, line in content_lines(text):
        parts = line.split()
        if line.startswith("drawing "):
            n_declared, = read_numbers(raw, parts[1:], RealizeError, 1)
        elif line.startswith("v "):
            v, = read_numbers(raw, parts[1:2], RealizeError, 1)
            if v in coords:
                raise RealizeError(f"duplicate coordinate line for vertex {v}")
            coords[v] = tuple(read_numbers(raw, parts[2:], RealizeError, 2, Fraction))
        elif line.startswith("designated:"):
            if designated is not None:
                raise RealizeError(f"duplicate designated line: {raw!r}")
            designated = tuple(read_numbers(raw, line.split(":", 1)[1].split(),
                                            RealizeError))
        else:
            raise RealizeError(f"unrecognized drawing line: {raw!r}")
    if n_declared is not None and n_declared != len(coords):
        raise RealizeError(f"drawing declares {n_declared} vertices, has {len(coords)}")
    designated = designated or ()
    missing = [v for v in designated if v not in coords]
    if missing:
        raise RealizeError(f"designated vertices without coordinates: {missing}")
    repeated = _repeated(designated)
    if repeated:
        raise RealizeError(f"designated vertices repeated: {repeated}")
    return Drawing(coords, designated)


def _repeated(vs: Sequence[int]) -> List[int]:
    """The entries of ``vs`` that occur more than once, sorted."""
    return sorted(v for v, k in Counter(vs).items() if k > 1)


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


def _planarity_violations(coords: Mapping[int, Point], edges: Iterable[Tuple[int, int]],
                          H: Mapping[int, HPoint]) -> List[str]:
    """Exact planarity audit of a straight-line drawing: the first violation
    a Shamos-Hoey sweep meets, or ``[]`` when the drawing is planar.

    A violation is a pair of coincident vertices, a vertex inside an edge
    (a collinear overlap included) or two edges crossing properly.  Events
    are the vertices in lexicographic order, which also orders vertical
    edges.  The status lists the edges that span the sweep position from
    bottom to top; at each vertex it is searched by bisection, the edges
    ending there leave, the edges starting there enter in angular order, and
    only the newly adjacent pairs are tested.  Every predicate is the sign of
    an integer determinant on the homogeneous coordinates ``H`` of the
    points (``geom.homogeneous``, ``geom.side_h``).
    """
    order = sorted(sorted(coords), key=coords.__getitem__)
    for a, b in zip(order, order[1:]):
        if coords[a] == coords[b]:
            return [f"vertices {a} and {b} coincide at {coords[a]}"]
    rank = {v: i for i, v in enumerate(order)}
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


def _clockwise_at(g: PlaneGraph, H: Mapping[int, HPoint], v: int) -> bool:
    """Whether the drawn directions round v turn clockwise in the order of
    ``g.rot[v]``: at every step but one (the wrap past (1, 0)) the next
    direction is strictly smaller by ``angle_cmp``.  Equal directions would
    make a second such step, since a cyclic sequence that never rises is
    constant.  O(deg v), no sort."""
    dirs = [direction_h(H[v], H[w]) for w in g.rot[v]]
    steps = [angle_cmp(a, b) > 0 for a, b in zip(dirs, dirs[1:] + dirs[:1])]
    return len(dirs) < 2 or steps.count(False) == 1


def verify_drawing(g: PlaneGraph, d: Drawing) -> DrawingReport:
    """Exact audit of planarity, rotation and outer-face fidelity, and the
    collinearity of the designated vertices (on the line through the first
    and one drawn elsewhere), on integer homogeneous coordinates.  A
    drawing whose vertex set is not g's (vertices without coordinates,
    coordinates of vertices g lacks, designated ones without coordinates
    or repeated) gets one violation per case and every flag False.

    On a triangulation one determinant per face (``_oriented_dets``)
    decides the first three flags in O(n): internal walks drawn
    counter-clockwise, the outer walk clockwise, none flat.  Sound (Floater
    2003; Lipman 2014): for p on no drawn edge, the number of internal
    triangles holding p sums their walks' winding numbers round p; the
    darts of inner edges cancel, leaving the reversed outer walk's: 1
    inside the outer triangle T, 0 outside.  So no two internal triangles
    share an open set, as those on two crossing edges would.  Round a vertex
    off the outer walk its faces' angles, each in (0, pi), turn clockwise
    k >= 1 times in rotation order, covering nearby points k times: so
    k = 1, the rotation ``_clockwise_at`` asks for, and no other face comes
    near it.  A corner of T is inside no segment in T; its faces fill T's
    angle, the outer walk the rest.  So g is embedded with its rotations and the
    outer walk's face unbounded.  Complete: a drawing passing the full check
    draws each face as the region left of its walk, internal ones as
    bounded triangles.  So the verdict is the full check's, which runs,
    with its messages, on any other input: a Shamos-Hoey sweep
    (``_planarity_violations``), O((n + m) log(n + m)); each rotation in
    place in O(m) (``_clockwise_at``), with the verdict of rebuilding the
    drawn graph and comparing rotations; then, as equal rotations give
    equal faces, g's face of the ``leftmost_dart`` must be ``g.outer`` (not
    compared when a rotation differs).
    """
    coords = d.coords
    bad = [("vertices without coordinates", [v for v in g.vertices if v not in coords]),
           ("coordinates for vertices not in the graph",
            sorted(v for v in coords if v not in g.rot)),
           ("designated vertices without coordinates",
            [v for v in d.designated if v not in coords]),
           ("designated vertices repeated", _repeated(d.designated))]
    bad = [f"{what}: {vs[:10]}" for what, vs in bad if vs]
    if bad:
        return DrawingReport(False, False, False, False, bad)

    H = {v: homogeneous(coords[v]) for v in g.vertices}
    if all(len(w) == 3 for w in g.faces) and all(s > 0 for _, s in _oriented_dets(g, H)):
        violations, planar, embedding_ok, outer_ok = [], True, True, True
    else:
        violations = _planarity_violations(coords, g.edges, H)
        planar = not violations
        wrong = next((v for v in g.vertices if not _clockwise_at(g, H, v)), None)
        embedding_ok, outer_ok = wrong is None, False
        if embedding_ok:
            outer = g.face_of_dart(leftmost_dart(coords, H, g.rot))
            outer_ok = outer == g.outer
            if not outer_ok:
                violations.append(
                    f"outer face is {g.face_key(outer)}, expected {g.face_key(g.outer)}")
        else:
            drawn = clockwise_order(H, wrong, g.rot[wrong])
            violations.append(
                f"rotation at vertex {wrong} is {drawn}, expected {g.rot[wrong]}" if drawn
                else f"edge directions coincide at vertex {wrong}")

    collinear_ok = True
    des = d.designated
    b = next((v for v in des if coords[v] != coords[des[0]]), None)
    if b is not None:
        line = line_h(H[des[0]], H[b])
        off = next((v for v in des if side_h(line, H[v]) != 0), None)
        if off is not None:
            collinear_ok = False
            violations.append(f"designated vertices {des[0]}, {b}, {off} are not collinear")
    return DrawingReport(planar, embedding_ok, outer_ok, collinear_ok, violations)


# -- convex-combination systems ---------------------------------------------------

def _fixed_point_x(nbrs: Mapping[int, Mapping[int, int]], fixed: Mapping[int, int],
                   bits: int) -> Dict[int, int]:
    """x of every vertex of ``nbrs`` but the ``fixed`` ones, the average of
    its neighbours' x under the integer weights ``nbrs[v][u]``, with the
    fixed values, in fixed point: each value and coefficient times 2^bits.
    Sparse elimination in minimum-degree order from a lazy (row length,
    vertex) heap: pivot p makes row r, with a at p, row_r - f * row_p, f =
    a / piv and each product rounded down to bits fractional bits; a pivot
    rounded to zero raises.  O((U + T) log U) pivot choice for U unknowns,
    T updates."""
    one = 1 << bits
    rows = {v: {v: sum(ws.values()) * one, **{u: -w * one for u, w in ws.items() if u not in fixed}}
            for v, ws in nbrs.items() if v not in fixed}
    rhs = {v: sum(w * fixed[u] for u, w in nbrs[v].items() if u in fixed) * one for v in rows}
    occurs: Dict[int, Set[int]] = {v: set() for v in rows}
    for r, row in rows.items():
        for v in row:
            occurs[v].add(r)
    heap = sorted((len(row), v) for v, row in rows.items())
    order = []
    while heap:
        k, p = heappop(heap)
        if p not in rows or k != len(rows[p]):
            continue
        prow, prhs = rows.pop(p), rhs.pop(p)
        piv = prow.pop(p, 0)
        if piv == 0:
            raise RealizeError("singular barycentric system")
        order.append((p, piv, prow, prhs))
        for r in occurs.pop(p) & rows.keys():
            row = rows[r]
            before = len(row)
            f = (row.pop(p) << bits) // piv
            for v, c in prow.items():
                nv = row.get(v, 0) - (f * c >> bits)
                if nv:
                    occurs[v].add(r)
                    row[v] = nv
                elif v in row:
                    del row[v]
                    occurs[v].discard(r)
            rhs[r] -= f * prhs >> bits
            if len(row) != before:
                heappush(heap, (len(row), r))
    X = {v: x * one for v, x in fixed.items()}
    for p, piv, prow, px in reversed(order):
        X[p] = ((px << bits) - sum(c * X[v] for v, c in prow.items())) // piv
    return X


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
        labels = self.labels
        for v in g.vertices:
            if labels.get(v) not in (UP, DOWN, ON):
                raise RealizeError(f"vertex {v} has no valid label")
        want: Set[Elem] = {('v', v) for v in g.vertices if labels[v] == ON}
        for e in g.edges:
            a, b = labels[e[0]], labels[e[1]]
            if a != b and a != ON and b != ON:
                want.add(('e', e))
        have = set(self.order)
        if len(have) != len(self.order):
            raise RealizeError("ordering repeats an element")
        if have != want:
            raise RealizeError(
                f"ordering covers {sorted(have - want)} unexpectedly and misses "
                f"{sorted(want - have)}")
        missing = next((e for e in self.order if e not in self.targets), None)
        if missing is not None:
            raise RealizeError(f"ordering element {missing} has no target")
        xs = [self.targets[e] for e in self.order]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise RealizeError("target positions are not strictly increasing")


def _arc_cw(rot: Sequence[int], start: int, stop: int) -> List[int]:
    """Neighbors strictly between start and stop going clockwise."""
    i = rot.index(start)
    out = []
    j = (i + 1) % len(rot)
    while rot[j] != stop:
        out.append(rot[j])
        j = (j + 1) % len(rot)
    return out


def curve_sides(aug: AugmentedCurve) -> Tuple[Set[int], Set[int]]:
    """(above, below): the two sides of a proper curve drawn along the x-axis
    with its first endpoint on the left.

    The sides are read off the clockwise rotations of the augmented graph,
    on the engine's darts, so no graph is built.  At a path vertex
    with predecessor p and successor s, draw p to the left and s to the
    right: a clockwise sweep from s to p passes below the line, so those
    neighbours lie right of the path (below), and the sweep from p to s
    above it.  At an endpoint that is a vertex of the graph the line goes on
    into the unbounded region through the outer-face corner of that vertex,
    which takes the place of the missing neighbour.  A search from each
    side's vertices that does not cross the path labels the rest, and the
    two sides must not meet.  The path needs two vertices at least.
    """
    path = aug.path_vertices
    if not aug.proper or len(path) < 2:
        raise RealizeError("curve sides are defined for proper open curves "
                           "with two path vertices at least")
    on_path = set(path)
    below: Set[int] = set()     # clockwise from successor to predecessor
    above: Set[int] = set()
    for i, v in enumerate(path):
        rot = aug.rotation(v)
        nxt = path[i + 1] if i + 1 < len(path) else None
        prv = path[i - 1] if i > 0 else None
        if nxt is not None and prv is not None:
            below.update(_arc_cw(rot, nxt, prv))
            above.update(_arc_cw(rot, prv, nxt))
        elif len(rot) > 1:
            ref = prv if nxt is None else nxt
            arc = _arc_cw(rot, ref, aug.outer_corner(v))
            rest = (x for x in rot if x not in arc and x != ref and x not in on_path)
            (above if nxt is None else below).update(arc)
            (below if nxt is None else above).update(rest)

    def off_path(v):
        return (u for u in aug.rotation(v) if u not in on_path)
    above, below = (set(reach(seeds - on_path, off_path))
                    for seeds in (above, below))
    if above & below:
        raise RealizeError("curve does not separate the graph: vertices "
                           f"{sorted(above & below)} lie on both sides")
    return above, below


def _proper_augment(g: PlaneGraph, c: GoodCurve) -> AugmentedCurve:
    """The embedding of a proper curve, for both routes.  A curve of one
    outer vertex v is embedded as (f_outer, v, f_outer), so every path has
    two vertices at least; any other curve is embedded as it is."""
    if not c.closed and c.stations in [(Vst(v),) for v in g.outer_walk()]:
        c = GoodCurve((Fst(g.outer), *c.stations, Fst(g.outer)))
    aug = augment_with_curve(g, c)
    if not aug.proper:
        raise RealizeError("curve is not proper (an endpoint misses the outer region)")
    return aug


def _misses_drawing(g: PlaneGraph, c: GoodCurve) -> bool:
    """Whether c is a lone hop through the outer face, the read-back of a
    line that misses the drawing; a lone hop through another face raises,
    as it is not proper."""
    lone = not c.closed and len(c.stations) == 1 and c.stations[0][0] == 'f'
    if lone and not validate_curve(g, c).proper:
        raise RealizeError("curve is not proper (an endpoint misses the outer region)")
    return lone


def labeling_from_curve(g: PlaneGraph, c: GoodCurve) -> LabelingOrder:
    """Labels, order and integer targets induced by a proper good curve: its
    vertex stations become on-line vertices, its crossings become crossing
    edges, in station order at x = 1, 2, ...  A lone hop through the outer
    face labels every vertex up, as ``curve_to_drawing`` draws it."""
    if _misses_drawing(g, c):
        return LabelingOrder(dict.fromkeys(g.vertices, UP), (), {})
    aug = _proper_augment(g, c)
    order: List[Elem] = [('v' if s[0] == 'v' else 'e', s[1]) for s in c.stations if s[0] != 'f']
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

def _affine(p: HPoint) -> Point:
    return (Fraction(p[0], p[2]), Fraction(p[1], p[2]))


class _Placer:
    def __init__(self, lab: LabelingOrder):
        self.lab = lab
        self.pts: Dict[int, Point] = {}
        self.hpts: Dict[int, HPoint] = {}

    def put(self, v: int, p: Point) -> None:
        self.pts[v] = p
        self.hpts[v] = homogeneous(p)

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

    def beyond(self, tri, a: int, qx: Fraction) -> Point:
        """A point p on the ray from corner a through q = (qx, 0), strictly
        between q and the ray's exit e through the opposite side.

        With a = (x_a, y_a, w_a) (``geom.homogeneous``, y_a != 0 since a
        is off the line), p = q + mu*w_a*(q - a) = (qx + mu*(qx*w_a - x_a),
        -mu*y_a) for mu = 2^-k, so p carries about a's bits plus k, never
        the bits of e, which mix all three corners.  Along the ray
        y = -t*y_a, so e sits at t_e = -e_y / (e_w*y_a) > 0.  With
        N = |e_y| and D = |e_w*y_a|, D/N < 2^(len(D) - len(N) + 1) for bit
        lengths len, so k = len(D) - len(N) + 2 gives mu < t_e / 2 (k may
        be negative: mu is then an integer).  Since q is strictly inside
        the triangle and e on its boundary, p is strictly inside too; p is
        on line a-q and on the other side of y = 0 from a, so the edge from
        a to p meets y = 0 exactly at q.
        """
        q = homogeneous((qx, 0))
        if not inside_h(q, *(self.hpts[c] for c in tri)):
            self.fail(tri, f"target x = {qx} is not interior to the triangle")
        xa, ya, wa = self.hpts[a]
        b, c = (self.hpts[x] for x in tri if x != a)
        ex, ey, ew = line_h(line_h(self.hpts[a], q), line_h(b, c))
        if ew == 0 or not on_segment_h((ex, ey, ew), b, c):
            self.fail(tri, f"ray through x = {qx} does not exit the opposite side")
        k = abs(ew * ya).bit_length() - abs(ey).bit_length() + 2
        mu = Fraction(1, 2) ** k
        return _pt(qx + mu * (qx * wa - xa), -mu * ya)

    def cross2(self, tri, a: int, qa: Fraction, b: int, qb: Fraction) -> Point:
        p = line_h(line_h(self.hpts[a], homogeneous((qa, 0))),
                   line_h(self.hpts[b], homogeneous((qb, 0))))
        if p[2] == 0:
            self.fail(tri, f"crossing rays through x = {qa} and x = {qb} are parallel")
        return _affine(p)

    def place(self, tri: Tuple[int, int, int], w: int) -> None:
        """Put the centre w of ``tri`` (placed, counter-clockwise) by the
        proof's one rule.  When no two corners straddle the line, w goes to
        the centroid, on the corners' side.  Otherwise an on-line w goes to
        its target, and an off-line w onto the ray from each corner labelled
        opposite to it through that crossing edge's target: ``beyond`` the
        one such corner, or where the two such rays meet (``cross2``).
        Two such corners are read after the corner on w's side, counter-
        clockwise when w is up and clockwise when it is down: left to right.
        """
        L = self.lab.labels
        lw = L[w]
        labs = {L[c] for c in tri}
        if UP not in labs or DOWN not in labs:
            side = UP if DOWN not in labs else DOWN
            if lw != side:
                self.fail(tri, f"vertex {w} labeled {lw} inside a one-sided triangle")
            a, b, c = (self.pts[x] for x in tri)
            p = ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
        elif lw == ON:
            p = _pt(self.target_v(tri, w), 0)
        else:
            ring = tri if lw == UP else tri[::-1]
            i = [L[c] for c in ring].index(lw)
            opp = [c for c in ring[i + 1:] + ring[:i] if L[c] not in (lw, ON)]
            qs = [self.target_e(tri, c, w) for c in opp]
            p = (self.beyond(tri, opp[0], qs[0]) if len(opp) == 1
                 else self.cross2(tri, opp[0], qs[0], opp[1], qs[1]))

        self.put(w, p)
        if not inside_h(self.hpts[w], *(self.hpts[c] for c in tri)):
            self.fail(tri, f"vertex {w} falls outside its triangle")
        if (p[1] > 0) - (p[1] < 0) != _SIGN[lw]:
            self.fail(tri, f"vertex {w} labeled {lw} lands at y = {p[1]}")


def _root_triangle(corners: Tuple[int, int, int], lab: LabelingOrder) -> Dict[int, Point]:
    """Outer-triangle positions honoring the corner labels and the extreme
    targets; the corners are given counter-clockwise.  Mixed labels are read
    off the ordering's ends at x_1, x_k: an on-line vertex goes to (x, 0), a
    crossing edge's ends to (x, +-1), and the far end of a last edge that
    shares an end with the first one to 2*x_k - x_1.  The corners, and only
    they, must be placed, counter-clockwise."""
    L = lab.labels
    labs = tuple(L[c] for c in corners)
    order = lab.order

    def fail(msg):
        raise RealizeError(f"outer triangle {corners}: {msg}")

    if UP not in labs or DOWN not in labs:
        s = 1 if DOWN not in labs else -1
        ons = [c for c in corners if L[c] == ON]
        expect = tuple(('v', c) for c in sorted(ons, key=lambda c: lab.targets.get(('v', c), 0)))
        if tuple(order) != expect:
            fail(f"one-sided outer triangle allows only its on-line corners in "
                 f"the ordering, got {order}")
        if len(ons) == 3:
            fail("all three outer corners cannot lie on the line")
        if len(ons) == 2:
            a, b = ons
            qa, qb = lab.targets[('v', a)], lab.targets[('v', b)]
            t = next(c for c in corners if L[c] != ON)
            pts = {a: _pt(qa, 0), b: _pt(qb, 0), t: _pt((qa + qb) / 2, s)}
        elif len(ons) == 1:
            c0 = ons[0]
            q = lab.targets[('v', c0)]
            i = corners.index(c0)
            rest = corners[i + 1:] + corners[:i]        # counter-clockwise after c0
            pts = {c0: _pt(q, 0), rest[0]: _pt(q + s, s), rest[1]: _pt(q - s, s)}
        else:
            pts = dict(zip(corners, [_pt(0, s), _pt(2 if s > 0 else 1, 2 * s),
                                     _pt(1 if s > 0 else 2, 2 * s)]))
        if orient(*(pts[c] for c in corners)) != 1:
            fail("corner labels are incompatible with the counter-clockwise frame")
        return pts

    if not order:
        fail("mixed corner labels but empty ordering")
    first, last = order[0], order[-1]
    x1, xk = lab.targets[first], lab.targets[last]
    pts: Dict[int, Point] = {}
    for elem, x in ((first, x1), (last, xk)):
        ends = [elem[1]] if elem[0] == 'v' else list(elem[1])
        if [L[c] for c in ends] not in ([ON], [UP, DOWN], [DOWN, UP]):
            fail(f"ordering end {elem} does not match its labels")
        if not pts.keys().isdisjoint(ends):
            x = 2 * xk - x1
        for c in ends:
            pts.setdefault(c, _pt(x, _SIGN[L[c]]))
    if sorted(pts) != sorted(corners) or orient(*(pts[c] for c in corners)) != 1:
        fail(f"ordering ends {first} and {last} do not place the corners "
             f"counter-clockwise")
    return pts


def place_free(g: PlaneGraph, lab: LabelingOrder) -> Drawing:
    """Straight-line drawing of a plane 3-tree in which every on-line vertex
    sits exactly at its target and every crossing edge meets y = 0 exactly at
    its target.  Its exact tests cost one gcd per placed vertex, for the
    integer homogeneous coordinates (``geom.homogeneous``) they run on."""
    lab.validate(g)
    return _place(decompose(g), lab)


def _place(decomp: ThreeTreeDecomp, lab: LabelingOrder) -> Drawing:
    """``place_free`` given the graph's decomposition and a validated ``lab``."""
    placer = _Placer(lab)
    for v, p in _root_triangle(decomp.root.corners, lab).items():
        placer.put(v, p)
    for node in decomp.nodes:              # preorder: parents first
        if node.w is not None:
            placer.place(node.corners, node.w)

    for elem in lab.order:
        q = lab.targets[elem]
        if elem[0] == 'v':
            if placer.pts[elem[1]] != (q, 0):
                raise RealizeError(f"on-line vertex {elem[1]} is not at its target")
            continue
        # edge ab must cross y = 0 strictly, at the meet of line ab with the
        # x-axis (0, 1, 0): the point (ya*xb - xa*yb, 0, ya*wb - wa*yb)
        (xa, ya, wa), (xb, yb, wb) = (placer.hpts[v] for v in elem[1])
        num, den = q.as_integer_ratio()
        if ya * yb >= 0 or (ya * xb - xa * yb) * den != num * (ya * wb - wa * yb):
            raise RealizeError(f"edge {elem[1]} does not cross the line at its target")
    return Drawing(dict(placer.pts), lab.on_line)


def _det(p: HPoint, q: HPoint, r: HPoint) -> int:
    """The 3x3 determinant of the rows p, q, r: the signed area of the
    triangle (p, q, r) doubled and times the product of the three weights."""
    line = line_h(p, q)
    return line[0] * r[0] + line[1] * r[1] + line[2] * r[2]


def _oriented_dets(g: PlaneGraph, P: Mapping[int, HPoint]
                   ) -> Iterator[Tuple[Tuple[int, int, int], int]]:
    """Each triangular face of g whose vertices ``P`` all places, in face
    order, as its walk (a, b, c) and s * _det(P[a], P[b], P[c]), s = -1 for
    the outer face, else 1: positive iff the face is drawn as its walk goes,
    internal walks counter-clockwise, the outer one clockwise."""
    for i, walk in enumerate(g.faces):
        if len(walk) == 3 and all(v in P for v, _ in walk):
            (a, _), (b, _), (c, _) = walk
            yield (a, b, c), (-1 if i == g.outer else 1) * _det(P[a], P[b], P[c])


def _first_magnification(g: PlaneGraph, flat: Mapping[int, HPoint],
                         bent: Mapping[int, HPoint]) -> int:
    """The least j >= 0 such that at M = 2^j every triangular face whose
    flat orientation has its required sign keeps that sign in the lift.

    ``flat`` holds the points (x, y) and ``bent`` the points (x, h(x)) of
    the same vertices.  With x fixed and y' = M*y + h(x), a face's lifted
    orientation is M*A + B, A and B its ``_oriented_dets`` in ``flat`` and
    ``bent`` (the determinant is linear in the y column), so the face needs
    M*A + B > 0: when A > 0, M > -B / A, that is M > floor(-B / A) for an
    integer M.  A face with A <= 0, not a triangle or with an unplaced
    vertex gives no bound.
    """
    j = 0
    for ((a, b, c), A), (_, B) in zip(_oriented_dets(g, flat), _oriented_dets(g, bent)):
        if A > 0:
            # A and B carry the weight products of their own points
            wa, wb, wc = flat[a][2], flat[b][2], flat[c][2]
            va, vb, vc = bent[a][2], bent[b][2], bent[c][2]
            j = max(j, max(0, -B * wa * wb * wc // (A * va * vb * vc)).bit_length())
    return j


def lift_off_line(g: PlaneGraph, d: Drawing, heights: Mapping[int, Fraction]) -> Drawing:
    """Move the designated (on-line) vertices to prescribed heights.

    ``g`` must be a triangulation and the designated vertices of ``d`` must
    lie on y = 0 with distinct x's.  Every vertex (x, y) is re-placed at
    (x, M*y + h(x)), h the piecewise-linear interpolant of the heights,
    evaluated by bisection over the knots, and M = 2^j0, j0 being
    ``_first_magnification``.  The lift is checked once, by
    ``verify_drawing``'s certificate for a triangulation: every vertex of g
    and no other placed, every ``_oriented_dets`` sign positive.  No other
    power of two passes where 2^j0 fails: below it some face is flipped or
    flat, and from it on a face that ``d`` orients as its walk keeps its
    sign while the sign of any other never rises.  So the lift of a
    verified drawing verifies.
    """
    if any(len(walk) != 3 for walk in g.faces):
        raise RealizeError("lift needs a triangulation")
    des = sorted(d.designated, key=lambda v: d.coords[v][0])
    if not des:
        raise RealizeError("drawing has no designated vertices to lift")
    for v in des:
        if d.coords[v][1] != 0:
            raise RealizeError(f"designated vertex {v} is not on the line")
        if v not in heights:
            raise RealizeError(f"no height prescribed for designated vertex {v}")
    xs = [d.coords[v][0] for v in des]
    ys = [F(heights[v]) for v in des]

    def h(x: Fraction) -> Fraction:
        i = bisect_left(xs, x)          # xs[i - 1] < x <= xs[i]
        if 0 < i < len(xs):
            return ys[i - 1] + (ys[i] - ys[i - 1]) * (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[min(i, len(xs) - 1)]

    base = [(v, x, y, h(x)) for v, (x, y) in d.coords.items()]
    M = 1 << _first_magnification(g, {v: homogeneous(p) for v, p in d.coords.items()},
                                  {v: homogeneous((x, hx)) for v, x, _, hx in base})
    coords = {v: (x, M * y + hx) for v, x, y, hx in base}
    dets = [s for _, s in _oriented_dets(g, {v: homogeneous(p) for v, p in coords.items()})]
    if coords.keys() != g.rot.keys() or _repeated(d.designated) or min(dets) <= 0:
        raise RealizeError("lift failed to verify at any tested magnification")
    return Drawing(coords, d.designated)


# -- levels from st-orderings, and straightening -----------------------------------

def _clip_corner(vs: Sequence[int], nbrs: Dict[int, List[int]], barred,
                 key=lambda v: v) -> Optional[Tuple[int, int]]:
    """Cut a corner off face walk ``vs`` at a repeated vertex and return
    (i, k), ``vs[i:k]`` the corner, or None when no vertex repeats.  A
    maximal run of one ``key`` counts as one vertex (``vs[0]`` and
    ``vs[-1]`` differ in key).  A run whose key repeats is cut off when its
    walk neighbours a and b differ in key, are not adjacent and are not
    ``barred(a, x, b)``, x its first vertex: b goes into a's clockwise
    rotation in ``nbrs`` just before the run and a into b's just after it,
    so the new edge runs through the face.  If none can be, raises."""
    n = len(vs)
    starts = [i for i in range(n) if not i or key(vs[i]) != key(vs[i - 1])]
    runs = list(zip(starts, starts[1:] + [n]))
    count = Counter(key(vs[i]) for i, _ in runs)
    if len(count) == len(runs):
        return None
    for i, k in runs:
        a, x, b = vs[i - 1], vs[i], vs[k % n]
        if count[key(x)] > 1 and key(a) != key(b) and not barred(a, x, b) and b not in nbrs[a]:
            nbrs[a].insert(nbrs[a].index(x), b)
            nbrs[b].insert(nbrs[b].index(vs[k - 1]) + 1, a)
            return i, k
    raise RealizeError(f"face {tuple(vs)}: no corner to cut off")


def _st_order(adj: Mapping[int, Set[int]], s: int, t: int) -> List[int]:
    """An st-ordering of the biconnected graph ``adj``, s and t adjacent: s
    first, t last, every other vertex with a neighbour before it and one
    after it (Even and Tarjan, Theoret. Comput. Sci. 2, 1976), in Tarjan's
    linear form (Fund. Inform. 9, 1986): a depth-first search from s along
    st first gives each v its parent p and low(v), the first in preorder of
    v and the ends of back edges from its subtree; then, in preorder, v goes
    just before p in the list (s, t) if low(v) is marked -, marking p +, and
    else just after p, marking p -.  Raises unless the search meets every
    vertex and low(v), v not t, is a proper ancestor of p (biconnected)."""
    pre, parent, order = {s: 0}, {}, [s]
    stack = [(s, iter([t, *adj[s]]))]
    while stack:
        v, todo = stack[-1]
        u = next((u for u in todo if u not in pre), None)
        if u is None:
            stack.pop()
        else:
            pre[u], parent[u] = len(order), v
            order.append(u)
            stack.append((u, iter(adj[u])))
    low = {v: min((v, *(u for u in adj[v] if u != parent.get(v))), key=pre.__getitem__)
           for v in order}
    for v in reversed(order[1:]):              # children before their parents
        low[parent[v]] = min(low[parent[v]], low[v], key=pre.__getitem__)
    if len(order) < len(adj) or any(pre[low[v]] >= pre[parent[v]] for v in order[2:]):
        raise RealizeError("curve side is not biconnected")
    after, before, sign = {s: t, t: None}, {s: None, t: s}, {s: -1}
    for v in order[2:]:
        p = parent[v]
        a, b = (before[p], p) if sign[low[v]] < 0 else (p, after[p])
        before[v], after[v], after[a], before[b] = a, b, v, v
        sign[p] = -sign[low[v]]
    out = [s]
    while out[-1] != t:
        out.append(after[out[-1]])
    return out


def _level_graph(g: PlaneGraph, aug: AugmentedCurve
                 ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """Clockwise rotations and integer levels of g in a frame triangle
    (B, B2, T), the three largest vertices, with edges added so that every
    other vertex has a neighbour strictly above it and one strictly below:
    the path at level 0, the sides of ``curve_sides`` above and below.

    Read off ``aug.graph``: T joins the path ends in their outer corners
    above the line, B below, B-T passes left of the path and B2 closes the
    outer face B, T, B2.  With the path merged into one source s, each
    side's face walks (not at both B and T) have corners at a repeated
    vertex cut off (``_clip_corner``; at a subdivision vertex only if no
    other is left) until none repeats, and a path vertex of g between two
    others on a walk is joined to the vertex after them.  A plane graph
    whose faces are simple cycles is biconnected (a cut vertex appears
    twice on a face), so the side with s and its apex T or B has an
    st-ordering (``_st_order``): a vertex has a neighbour before it and one
    after it, and its level is its longest path from s (negated below).
    Then each subdivision vertex w of an edge ab is contracted into a and
    into b, each keeping w's edges across the line (planar, as clips at w
    in a face come from one side: from both, w and the next path vertex
    would both subdivide ab), and the curve's chords are dropped.  A
    dangling end stays, at level 0 between B and T, unless it hangs off a
    crossed edge.  O(n + m) but for the clipping, which scans a walk once
    per corner it cuts.
    """
    ga, path, on_path = aug.graph, aug.path_vertices, set(aug.path_vertices)
    ends = {w: e for e, w in aug.subdivision.items()}
    B, B2, T = frame = range(max(ga.vertices) + 1, max(ga.vertices) + 4)
    rot = {v: list(ws) for v, ws in ga.rot.items()}
    for v, corner in ((path[0], [B, T]), (path[-1], [T, B])):
        i = rot[v].index(aug.outer_corner(v))
        rot[v][i:i] = corner
    rot.update({B: [T, path[0], path[-1], B2], B2: [B, T], T: [B2, path[-1], path[0], B]})
    gone = {*ends, *(v for v in (path[0], path[-1]) if v not in g.rot and ga.rot[v][0] in ends)}
    key = lambda v: None if v in on_path else v

    todo = [vs for vs in ([v for v, _ in walk] for walk in PlaneGraph._trace_faces(
        rot, [(v, w) for v in rot for w in rot[v]])) if T not in vs or B not in vs]
    while todo:
        vs = todo.pop()
        i = next((i for i, v in enumerate(vs) if v not in on_path), None)
        if i is None:
            continue
        vs = vs[i:] + vs[:i]
        try:
            cut = _clip_corner(vs, rot, lambda a, x, b: a in gone or b in gone, key)
        except RealizeError:        # every corner is at a subdivision vertex
            cut = _clip_corner(vs, rot, lambda a, x, b: False, key)
        if cut:
            i, k = cut
            todo += [vs[:i] + vs[k:], [vs[i - 1], *vs[i:k], vs[k % len(vs)]]]
            continue
        run = [i for i, v in enumerate(vs) if v in on_path]
        for j in run[:1:-1]:
            a, y = vs[j - 1], vs[(run[-1] + 1) % len(vs)]
            if a not in gone:
                rot[a].insert(rot[a].index(vs[j]), y)
                rot[y].insert(rot[y].index(vs[j]) + 1, a)

    lev = dict.fromkeys(on_path, 0)
    s = T + 1
    for side, apex, sign in zip(curve_sides(aug), (T, B), (1, -1)):
        adj = {v: {s if u in on_path else u for u in rot[v] if u == apex or u not in frame}
               for v in (*side, apex)}
        adj[s] = {v for v, us in adj.items() if s in us}
        height = {s: 0}
        for v in _st_order(adj, s, apex)[1:]:
            height[v] = 1 + max(height[u] for u in adj[v] if u in height)
        lev.update((v, sign * h) for v, h in height.items() if v != s)
    lev[B2] = lev[B]

    def merged(v: int, u: int) -> Sequence[int]:
        """u's stand-ins in v's rotation: u, none for a chord, and for a
        subdivision vertex its neighbours across the line from v (in its
        rotation from v on if v is an end of its edge)."""
        if u in gone:
            ws = rot[u] if v in ends.get(u, ()) else ends.get(u, ())
            i = ws.index(v) + 1 if v in ws else 0
            return [y for y in ws[i:] + ws[:i] if lev[y] * lev[v] < 0]
        chord = v in on_path and u in on_path and v in g.rot and u in g.rot
        return () if chord and not g.has_edge(u, v) else (u,)
    return {v: [m for u in ws for m in merged(v, u)]
            for v, ws in rot.items() if v not in gone}, lev


def _fan(vs: Sequence[int], nbrs: Dict[int, List[int]], lev: Mapping[int, int]
         ) -> List[Tuple[int, int, int]]:
    """The triangles, in walk order, that cut face walk ``vs`` by edges added
    to ``nbrs``: each corner at a repeated vertex clipped (``_clip_corner``),
    then a fan from the corner nearest the walk's median level that adds no
    existing edge and no triangle on one level."""
    def flat(a: int, x: int, b: int) -> bool:
        return lev[a] == lev[x] == lev[b]
    tris = []
    while (cut := _clip_corner(vs, nbrs, flat)):
        j = cut[0]
        tris.append((vs[j - 1], vs[j], vs[(j + 1) % len(vs)]))
        vs = vs[:j] + vs[j + 1:]
    mid = sorted(lev[v] for v in vs)[len(vs) // 2]
    for i in sorted(range(len(vs)), key=lambda i: abs(lev[vs[i]] - mid)):
        c, rest = vs[i], vs[i + 1:] + vs[:i]
        fan = [(c, a, b) for a, b in zip(rest, rest[1:])]
        if not any(flat(*t) for t in fan) and set(nbrs[c]).isdisjoint(rest[1:-1]):
            for b in rest[1:-1]:
                nbrs[c].append(b)
                nbrs[b].append(c)
            return tris + fan
    raise RealizeError(f"face {tuple(vs)}: no corner to fan from")


_FIXED_BITS = 64           # first precision of the straightening proposal


def _stop_bits(nbrs: Mapping[int, Mapping[int, int]], fixed: Mapping[int, int]) -> int:
    """The precision past which ``_fixed_point_x`` proposes an x that
    ``_straighten`` certifies if the exact x* draws every triangle
    counter-clockwise: 2L + log2(64 U^3 a W^2) for the system A x = b of U
    unknowns, a its largest diagonal entry, W the width of the fixed values
    and 2^L a power of two at or above its Hadamard bound, prod ||row||.

    Cramer's rule puts every x*, and so every triangle's determinant (x's
    times integer level gaps), over det A, a positive integer below 2^L (A
    is a non-singular M-matrix): a positive determinant is at least 2^-L,
    and ||A^-1|| < U 2^L, the cofactors being below 2^L too.  Elimination
    keeps row diagonal dominance, so entries and pivots stay below 2a
    (Wilkinson; Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, ch. 9); each of at most U updates of an entry rounds by
    2^-bits, each multiplier and back-substitution by 2^-bits times a
    pivot, so the residual A(x - x*) is at most 9 U^2 a W 2^-bits per row
    and x is within 9 U^3 a W 2^(L - bits) of x*.  Here that moves a
    determinant (y-span at most W) by less than half of 2^-L: every
    proposed one is positive, and its grid 2^-k has k <= L + 2 + log2 W,
    at most half the bits."""
    rows = [(sum(ws.values()), [w for u, w in ws.items() if u not in fixed])
            for v, ws in nbrs.items() if v not in fixed]
    two_L = 1 + sum((d * d + sum(w * w for w in off)).bit_length() for d, off in rows)
    a, W = max(d for d, _ in rows), max(fixed.values()) - min(fixed.values())
    return two_L + (len(rows) ** 3 * a * W * W << 6).bit_length()


def _straighten(g: PlaneGraph, rot: Mapping[int, Sequence[int]], lev: Mapping[int, int],
                designated: Tuple[int, ...]) -> Drawing:
    """Straight-line drawing of g with every vertex at its level, given
    the rotations and st-ordering levels of ``_level_graph``: frame B, B2,
    T, the three largest vertices, and every other vertex with a neighbour
    strictly above it and one strictly below, else raises.

    The graph is triangulated (``_fan``) and each vertex but the frame put
    at a weighted average of its neighbours, with integer weights that
    make its level the same average of theirs: 1 on each, plus an extra on
    the nearest one on the side of the smaller sum of level gaps (scaled
    to integers).  The weights are positive, which is Floater's condition,
    so by his theorem (Math. Comp. 72, 2003) the one solution for x (B, T
    at x = 0, B2 at x = y_T - y_B) draws every triangle counter-clockwise.

    x is proposed in fixed point (``_fixed_point_x``) with 64 fractional
    bits first.  Moving x by at most 2^-k-1 changes the determinant of a
    triangle of y-span s by at most 2^-k s, so x is rounded to the coarsest
    grid 2^-k that no triangle's proposed determinant forbids, and each
    triangle's sign is checked exactly on the result, the certificate of
    ``verify_drawing``.  A non-positive proposed determinant, a zero pivot,
    k > bits/2 (too few guard bits to round as the exact x) or a failed
    check doubles the bits.  At the first precision past ``_stop_bits``,
    where a system meeting Floater's condition is certified, the proposal
    is rounded and checked all the same, and its failed check raises.
    """
    B, B2, T = sorted(rot)[-3:]
    nbrs = {v: list(ws) for v, ws in rot.items()}
    # each walk starts at its least dart: (B, T) starts the outer face's
    tris = [t for walk in PlaneGraph._trace_faces(rot, [(v, w) for v in rot for w in rot[v]])
            if walk[0] != (B, T) for t in _fan([v for v, _ in walk], nbrs, lev)]
    weights: Dict[int, Dict[int, int]] = {}
    for v in sorted(rot.keys() - {B, B2, T}):
        y, ws = lev[v], nbrs[v]
        gaps = [lev[u] - y for u in ws]
        if not min(gaps, default=0) < 0 < max(gaps, default=0):
            raise RealizeError(f"vertex {v} lacks a neighbour above it or one below it "
                               "(Floater's condition)")
        s = sum(gaps)
        weights[v] = dict.fromkeys(ws, 1)
        if s:
            k = min((u for u in ws if (lev[u] - y) * s < 0), key=lambda u: abs(lev[u] - y))
            q = gcd(lev[k] - y, s)
            weights[v] = dict.fromkeys(ws, abs(lev[k] - y) // q)
            weights[v][k] += abs(s) // q
    fixed = {B: 0, B2: lev[T] - lev[B], T: 0}
    stop = _stop_bits(weights, fixed)

    def grid(a: int, b: int, c: int, det: int) -> int:
        """The least k with 2^k * det > span for triangle abc."""
        r = (max(lev[a], lev[b], lev[c]) - min(lev[a], lev[b], lev[c])) * H[a][2] * H[b][2] * H[c][2]
        k = r.bit_length() - det.bit_length()
        return k + (det << max(k, 0) <= r << max(-k, 0))
    bits = _FIXED_BITS
    while True:
        last = bits >= stop
        try:
            X = _fixed_point_x(weights, fixed, bits)
        except RealizeError:            # a pivot rounded to zero: a failed check
            if last:
                raise
            bits *= 2
            continue
        H = {v: (x, lev[v] << bits, 1 << bits) for v, x in X.items()}
        dets = [_det(*(H[v] for v in t)) for t in tris]
        k = max(grid(*t, det) for t, det in zip(tris, dets))
        if last or (min(dets) > 0 and 2 * k <= bits):
            scale = F(2) ** k
            P = {v: (round(F(x, w) * scale), lev[v], 1) for v, (x, _, w) in H.items()}
            flipped = next((t for t in tris if _det(*(P[v] for v in t)) <= 0), None)
            if flipped is None:
                return Drawing({v: (P[v][0] / scale, F(lev[v])) for v in g.vertices}, designated)
            if last:
                raise RealizeError(f"straightened triangle {flipped} is not counter-clockwise")
        bits *= 2


# -- realizing a curve (collinearity pipeline) -------------------------------------

def curve_to_drawing(g: PlaneGraph, c: GoodCurve) -> Drawing:
    """Straight-line drawing of g in which the curve's stations land on the
    x-axis: vertex stations exactly on it, crossed edges meeting it once.  A
    plane 3-tree is placed by ``place_free``.  Any other graph gets levels
    from an st-ordering of each side (``_level_graph``), which exists as a
    side whose faces are clipped to simple cycles, with the path merged
    into its source, is biconnected; it is drawn on them by one system that
    meets Floater's condition, solved in fixed point until the exact
    triangle check certifies it (``_straighten``).  A lone hop through the
    outer face (a line that misses the drawing) gets the drawing of (v), v
    the first outer vertex, moved above the axis, with no designated vertex."""
    if c.closed:
        raise RealizeError("only open (proper) curves can be realized on a line")
    if _misses_drawing(g, c):
        d = curve_to_drawing(g, GoodCurve((Vst(g.outer_walk()[0]),)))
        lift = 1 - min(y for _, y in d.coords.values())
        return Drawing({v: (x, y + lift) for v, (x, y) in d.coords.items()})
    try:
        decomp = decompose(g)
    except ThreeTreeError:
        return _straighten(g, *_level_graph(g, _proper_augment(g, c)), c.vertices)
    return Drawing(_place(decomp, labeling_from_curve(g, c)).coords, c.vertices)
