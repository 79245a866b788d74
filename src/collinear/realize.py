"""Exact straight-line realizations.

Drawings are maps from vertices to exact rational points.  This module
provides:

* ``Drawing``, with a text interchange format and an SVG export, and
  ``PolylineDrawing``, whose edges may bend;
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
  not 3-trees: both sides drawn by one barycentric system against the path
  on the axis, then straightened on integer vertex levels by one convex-
  combination system over a triangulation, Floater's theorem, solved in
  fixed point, each triangle's orientation checked exactly when rounded);
* ``lift_off_line`` -- re-place the collinear vertices at arbitrary
  prescribed heights while keeping the drawing planar, at a magnification
  read off the faces' orientations (one verifier call on a triangulation).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from heapq import heappop, heappush
from itertools import groupby
from math import gcd, lcm
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


# -- barycentric (Tutte) embedding ------------------------------------------------

def _eliminate(rows: Dict[int, Dict[int, int]], rhs: Dict[int, Sequence[int]], step) -> list:
    """(p, pivot, rest of row p, rhs) per pivot of the system ``rows`` (row
    v maps unknowns to integer coefficients, ``rhs[v]`` holds its right-hand
    sides; both consumed), in minimum-degree order from a lazy (row length,
    vertex) heap; a zero pivot raises.  Pivot p makes row r, with a at p,
    ``m * row_r - (q * row_p >> s)``, (m, q, s) = ``step(piv, a)``, over its
    gcd if s = 0.  O((U + T) log U) pivot choice for U unknowns, T updates."""
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
            m, q, s = step(piv, row.pop(p))
            new = {v: m * c for v, c in row.items()}
            for v, c in prow.items():
                nv = new.get(v, 0) - (q * c >> s)
                if nv:
                    occurs[v].add(r)
                    new[v] = nv
                elif v in new:
                    del new[v]
                    occurs[v].discard(r)
            b = [m * x - (q * px >> s) for x, px in zip(rhs[r], prhs)]
            g = 1 if s else gcd(*b, *new.values())
            if g > 1:
                new, b = {v: c // g for v, c in new.items()}, [x // g for x in b]
            rows[r], rhs[r] = new, b
            if len(new) != len(row) + 1:
                heappush(heap, (len(new), r))
    return order


def _barycentric(nbrs: Mapping[int, Mapping[int, int]],
                 fixed: Mapping[int, Point]) -> Dict[int, Point]:
    """Every vertex of ``nbrs`` that ``fixed`` does not place, exactly at the
    weighted average of its neighbours, ``nbrs[v]`` mapping each to its
    integer weight; returns the fixed positions and the solved ones: the
    split drawing, whose y values decide the levels, and ``_straighten``'s
    last proposal.  Row v (the weight sum on the diagonal, minus the weight
    at each unfixed neighbour, the fixed neighbours' weighted sums on the
    right), scaled to integers, is eliminated fraction-free (Bareiss), each
    row a multiple of its ``Fraction`` counterpart with the same non-zeros,
    so a pivot is zero iff it is over the rationals.
    """
    rows: Dict[int, Dict[int, int]] = {}
    rhs: Dict[int, Sequence[int]] = {}
    for v, ws in nbrs.items():
        if v not in fixed:
            bx = sum((w * fixed[u][0] for u, w in ws.items() if u in fixed), F(0))
            by = sum((w * fixed[u][1] for u, w in ws.items() if u in fixed), F(0))
            s = lcm(bx.denominator, by.denominator)
            rows[v] = {v: sum(ws.values()) * s,
                       **{u: -w * s for u, w in ws.items() if u not in fixed}}
            rhs[v] = (bx.numerator * s // bx.denominator, by.numerator * s // by.denominator)
    sol: Dict[int, Point] = {}
    for p, piv, prow, (px, py) in reversed(_eliminate(rows, rhs, lambda piv, a: (piv, a, 0))):
        terms = [(c, sol[v]) for v, c in prow.items()]
        L = lcm(*(q.denominator for _, pt in terms for q in pt))
        x = px * L - sum(c * fx.numerator * (L // fx.denominator) for c, (fx, _) in terms)
        y = py * L - sum(c * fy.numerator * (L // fy.denominator) for c, (_, fy) in terms)
        sol[p] = (Fraction(x, piv * L), Fraction(y, piv * L))
    return {**fixed, **sol}


def _fixed_point_x(nbrs: Mapping[int, Mapping[int, int]], fixed: Mapping[int, int],
                   bits: int) -> Dict[int, int]:
    """The x column of ``_barycentric`` for integer fixed x, each value and
    coefficient times 2^bits: row r loses f * prow, f = row_r[p] / piv and
    each product rounded down to bits fractional bits."""
    one = 1 << bits
    rows = {v: {v: sum(ws.values()) * one, **{u: -w * one for u, w in ws.items() if u not in fixed}}
            for v, ws in nbrs.items() if v not in fixed}
    rhs = {v: (sum(w * fixed[u] for u, w in nbrs[v].items() if u in fixed) * one,) for v in rows}
    X = {v: x * one for v, x in fixed.items()}
    for p, piv, prow, (px,) in reversed(_eliminate(
            rows, rhs, lambda piv, a: (1, (a << bits) // piv, bits))):
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

    The designated vertices of ``d`` must lie on y = 0 with distinct x's.
    Every vertex (x, y) is re-placed at (x, M*y + h(x)) where h is the
    piecewise-linear interpolant of the prescribed heights, evaluated once
    per vertex by bisection over the knots, and M is the first power of two
    2^j, j0 <= j < j0 + 70, at which the drawing verifies, j0 being
    ``_first_magnification``.

    The powers below j0 are skipped: each leaves some triangular face
    oriented against its walk (or flat), and a drawing that verifies draws
    every face of ``g`` as a face with ``g``'s walk, internal ones
    counter-clockwise and the outer one clockwise, so none of them can
    verify and the result is the one of trying every power from 1 up.  When
    ``d`` is a verified drawing of a triangulation every face has a bound,
    so at the first power tried every face is oriented as its walk: that
    is ``verify_drawing``'s certificate, and the lift makes one verifier
    call of O(n) determinants instead of a sweep.
    """
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
    j0 = _first_magnification(g, {v: homogeneous(p) for v, p in d.coords.items()},
                              {v: homogeneous((x, hx)) for v, x, _, hx in base})
    for j in range(j0, j0 + 70):
        coords = {v: (x, (1 << j) * y + hx) for v, x, y, hx in base}
        lifted = Drawing(coords, d.designated)
        rep = verify_drawing(g, lifted)
        if rep.planar and rep.embedding_ok and rep.outer_ok:
            return lifted
    raise RealizeError("lift failed to verify at any tested magnification")


# -- straightening y-monotone polylines -------------------------------------------

def _regularize(g: PlaneGraph, pl: PolylineDrawing, frame: Tuple[int, int, int]
                ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """Clockwise rotations and integer levels of g as ``pl`` draws it in a
    frame triangle (B, B2, T) = ``frame``, with edges added so that each
    vertex of g has neighbours strictly above and below it.

    One bottom-to-top sweep keeps the status, the edges active between two
    levels from left to right, between the frame's sides B-T and B2-T.  A
    vertex's downward edges are one contiguous block, found by bisection
    with exact orientation tests, and are replaced by its upward edges in
    angular order.  Each gap between two status edges keeps its floor, the
    vertices under it on its latest level below the sweep (Lee and
    Preparata's helpers, SIAM J. Comput. 6, 1977).  A vertex that touches a
    gap from above joins every floor vertex with no upper neighbour yet, and
    if it has no lower edge, the last floor vertex.  A rotation lists the
    upper neighbours left to right, the right horizontal one, the lower ones
    right to left, then the left one.  A vertex at y = 0 gets level 0, any
    other, with the sign of its y, one more than the largest |level| of its
    neighbours between it and y = 0 (0 for those at or across it), shared
    along horizontal edges: edges keep their directions, vertices their sides.
    """
    coords = pl.coords
    B, B2, T = frame
    ends: List[Tuple[int, int]] = [(B, T), (B2, T)]   # edge -> (lower, upper)
    ys: List[List[Fraction]] = [[], []]               # the frame is never bisected
    hs: List[List[HPoint]] = [[], []]
    up: Dict[int, List[int]] = {v: [] for v in coords}
    down = dict.fromkeys(coords, 0)
    left, right = {B2: [B]}, {B: [B2]}                # horizontal neighbours
    for (u, v) in sorted(g.edges):
        poly = [_pt(*p) for p in pl.polyline(u, v)]
        if len(poly) == 2 and poly[0][1] == poly[1][1]:
            if poly[0] > poly[1]:
                u, v = v, u
            for a, beside in ((u, right), (v, left)):
                if a in beside:
                    raise RealizeError(f"edges {edge_key(a, *beside[a])} and "
                                       f"{edge_key(u, v)} overlap at vertex {a}")
            right[u], left[v] = [v], [u]
            continue
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
    ups = {v: [ends[e][1] for e in out] for v, out in up.items()} | {B: [T], B2: [T]}
    downs: Dict[int, List[int]] = {}

    def side(e: int, y: Fraction, p: HPoint) -> int:
        """Sign of (x of edge e at level y) - (x of p), p at level y."""
        i = bisect_left(ys[e], y)
        q = hs[e][i]
        if ys[e][i] == y:
            d = q[0] * p[2] - p[0] * q[2]
            return (d > 0) - (d < 0)
        return side_h(line_h(hs[e][i - 1], q), p)

    status = [0, 1]
    gaps = [[[B, B2], []]]        # per gap: its floor, and its vertices on the sweep level

    def join(v: int, k: int, alone: bool) -> List[int]:
        """v joins the free floor vertices of gap k, or the last one if none is
        and ``alone``: v goes before the gap's right edge where it starts."""
        floor, e = gaps[k][0], ends[status[k + 1]]
        new = [f for f in floor if not ups[f]] or (floor[-1:] if alone else [])
        for f in new:
            ups[f].insert(ups[f].index(e[1]) if e[0] == f else len(ups[f]), v)
        return new

    levels = [list(vs) for _, vs in groupby(sorted(coords, key=lambda v: coords[v][::-1]),
                                            key=lambda v: coords[v][1])]
    for vs in levels:                             # left to right, bottom to top
        y = coords[vs[0]][1]
        fresh: List[List[List[int]]] = []
        done = 1
        for j, v in enumerate(vs):
            p = homogeneous(coords[v])
            if j and coords[vs[j - 1]][0] == coords[v][0]:
                raise RealizeError(f"vertices {vs[j - 1]} and {v} coincide")
            lo, hi = done, len(status) - 1
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
            if stop < len(status) - 1 and side(status[stop], y, p) <= 0:
                raise RealizeError(f"vertex {v} lies on edge "
                                   f"{edge_key(*ends[status[stop]])}")
            downs[v] = join(v, lo - 1, not down[v])
            for k in range(lo, stop):
                downs[v] += [ends[status[k]][0], *join(v, k, False)]
            # only the last new gap's floor is read before the level ends
            new = [[[], [v]] for _ in range(len(up[v]) + 1)]
            new[0][1], new[-1][0] = gaps[lo - 1][1] + [v], gaps[stop - 1][0]
            gaps[lo - 1:stop] = new
            fresh += new
            status[lo:stop] = up[v]
            done = lo + len(up[v])
        for gap in fresh:
            if gap[1]:
                gap[0], gap[1] = gap[1], []
    downs[T] = [B, *join(T, 0, False), B2]
    rot = {v: ups.get(v, []) + right.get(v, []) + downs.get(v, [])[::-1] + left.get(v, [])
           for v in (*coords, B, B2, T)}

    sign = {v: (y > 0) - (y < 0) for v, (_, y) in coords.items()} | {B: -1, B2: -1, T: 1}
    lev = {v: 0 for v in coords if not sign[v]}
    for s, order, inward in ((1, levels, downs), (-1, levels[::-1], ups)):
        for vs in order:
            run: List[int] = []
            for v in vs + [None] if sign[vs[0]] == s else ():
                if run and left.get(v) != run[-1:]:
                    h = 1 + max(abs(lev[u]) if sign[u] == s else 0
                                 for w in run for u in inward[w])
                    lev.update(dict.fromkeys(run, s * h))
                    run = []
                run.append(v)
    lo_lev, hi_lev = min(lev.values()), max(lev.values())
    lev.update({B: lo_lev - 1, B2: lo_lev - 1, T: hi_lev + 1})
    return rot, lev


def _fan(vs: Sequence[int], nbrs: Dict[int, List[int]], lev: Mapping[int, int]
         ) -> List[Tuple[int, int, int]]:
    """The triangles, in walk order, that cut face walk ``vs`` by edges added
    to ``nbrs``: each corner at a repeated vertex clipped (``_clip_corner``),
    then a fan from the corner nearest the walk's median level that adds no
    existing edge and no triangle on one level."""
    def flat(a: int, x: int, b: int) -> bool:
        return lev[a] == lev[x] == lev[b]
    tris = []
    while len(set(vs)) != len(vs):
        j = _clip_corner(vs, nbrs, flat)
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
_FIXED_BITS_CAP = 1024     # past it, the exact solution is the proposal


def _straighten(g: PlaneGraph, pl: PolylineDrawing, designated: Tuple[int, ...]
                ) -> Drawing:
    """Replace the y-monotone polyline edges of a planar drawing ``pl`` of g
    (exact positions of exactly g's vertices, as ``_split_drawing`` gives) by
    straight segments on the levels of ``_regularize``.  A non-monotone
    edge, coinciding vertices or a vertex on an edge raise ``RealizeError``;
    two edges touching at a level are not detected.

    The regularized graph is triangulated (``_fan``) and each vertex of g
    put at a weighted average of its neighbours, with integer weights that
    make its level the same average of theirs: 1 on each, plus an extra on
    the nearest one on the side of the smaller sum of level gaps (all
    scaled to integers).  By Floater's theorem (Math. Comp. 72, 2003) the
    one solution for x (B, T at x = 0, B2 at x = y_T - y_B) draws every
    triangle counter-clockwise; y is the level.

    x is proposed in fixed point (``_fixed_point_x``) with 64 fractional
    bits first.  The matrix is diagonally dominant by rows (the weight sum
    on the diagonal, the unfixed neighbours' weights off it), the symmetric
    pivot order keeps it so, and elimination without pivoting then has
    growth factor at most 2 (Wilkinson; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 9): each rounding errs by
    2^-bits of entries that stay small, so the proposal tends to the exact
    x as the bits grow.  Moving x by at most 2^-k-1 changes the determinant
    of a triangle of y-span s by at most 2^-k s, so x is rounded to the
    coarsest grid 2^-k that no triangle's proposed determinant forbids, and
    each triangle's sign is checked exactly on the result, the certificate
    of ``verify_drawing``.  A non-positive proposed determinant, a zero
    pivot, k > bits/2 (too few guard bits to round as the exact x) or a
    failed check doubles the bits; past 1024, the exact ``_barycentric``
    solution is the last proposal, and its failed check raises.
    """
    coords = pl.coords
    B, B2, T = frame = tuple(range(max(coords) + 1, max(coords) + 4))
    rot, lev = _regularize(g, pl, frame)
    nbrs = {v: list(ws) for v, ws in rot.items()}
    # each walk starts at its least dart: (B, T) starts the outer face's
    tris = [t for walk in PlaneGraph._trace_faces(rot, [(v, w) for v in rot for w in rot[v]])
            if walk[0] != (B, T) for t in _fan([v for v, _ in walk], nbrs, lev)]
    weights: Dict[int, Dict[int, int]] = {}
    for v in coords:
        y, ws = lev[v], nbrs[v]
        s = sum(lev[u] - y for u in ws)
        weights[v] = dict.fromkeys(ws, 1)
        if s:
            k = min((u for u in ws if (lev[u] - y) * s < 0), key=lambda u: abs(lev[u] - y))
            q = gcd(lev[k] - y, s)
            weights[v] = dict.fromkeys(ws, abs(lev[k] - y) // q)
            weights[v][k] += abs(s) // q
    fixed = {B: 0, B2: lev[T] - lev[B], T: 0}

    def grid(a: int, b: int, c: int, det: int) -> int:
        """The least k with 2^k * det > span for triangle abc."""
        r = (max(lev[a], lev[b], lev[c]) - min(lev[a], lev[b], lev[c])) * H[a][2] * H[b][2] * H[c][2]
        k = r.bit_length() - det.bit_length()
        return k + (det << max(k, 0) <= r << max(-k, 0))
    bits = _FIXED_BITS
    while True:
        exact = bits > _FIXED_BITS_CAP
        if exact:
            H = {v: homogeneous(p) for v, p in _barycentric(
                weights, {u: (F(x), F(lev[u])) for u, x in fixed.items()}).items()}
        else:
            try:
                X = _fixed_point_x(weights, fixed, bits)
            except RealizeError:        # a pivot rounded to zero: a failed check
                bits *= 2
                continue
            H = {v: (x, lev[v] << bits, 1 << bits) for v, x in X.items()}
        dets = [_det(*(H[v] for v in t)) for t in tris]
        k = max(grid(*t, det) for t, det in zip(tris, dets))
        if exact or (min(dets) > 0 and 2 * k <= bits):
            scale = F(2) ** k
            P = {v: (round(F(x, w) * scale), lev[v], 1) for v, (x, _, w) in H.items()}
            flipped = next((t for t in tris if _det(*(P[v] for v in t)) <= 0), None)
            if flipped is None:
                return Drawing({v: (P[v][0] / scale, F(lev[v])) for v in coords}, designated)
            if exact:
                raise RealizeError(f"straightened triangle {flipped} is not counter-clockwise")
        bits *= 2


# -- realizing a curve (collinearity pipeline) -------------------------------------

def _clip_corner(vs: Sequence[int], nbrs: Dict[int, List[int]], barred) -> int:
    """The index in face walk ``vs`` of a corner at one occurrence of a
    repeated vertex x to cut off: its walk neighbours a and b, if distinct,
    not adjacent and not ``barred(a, x, b)``, are joined in ``nbrs``."""
    count = Counter(vs)
    for j, x in enumerate(vs):
        a, b = vs[j - 1], vs[(j + 1) % len(vs)]
        if count[x] > 1 and a != b and not barred(a, x, b) and b not in nbrs[a]:
            nbrs[a].append(b)
            nbrs[b].append(a)
            return j
    raise RealizeError(f"face {tuple(vs)}: no corner to cut off")


def _split_drawing(g: PlaneGraph, aug: AugmentedCurve) -> PolylineDrawing:
    """Each side of the curve drawn barycentrically against its path laid on
    the x-axis at (1, 0) .. (L, 0), L >= 2; a crossed edge bends at the axis.

    One system is read off ``aug.graph``: the path fixed; for a non-empty
    side an apex fixed at ((1 + L)/2, +-(L + 1)) closing its arc of the
    outer walk, which runs clockwise from the dart (path[0],
    outer_corner(path[0])) over the top to the dart (path[-1],
    outer_corner(path[-1])), then on below: the corners ``curve_sides``
    reads.  Each face walk that repeats a vertex is clipped
    (``_clip_corner``), then a face with more than three corners gets a hub,
    and every other vertex sits at the average of its neighbours.  Per side
    this is Tutte's system for the plane graph of the path, the side, the
    apex, the clips and the hubs: its outer face is the convex polygon of
    the path and the apex, and each face is bounded by a simple cycle, as
    Tutte's theorem needs.  A clip keeps the graph plane and simple with no
    edge along the axis: it is one edge inside one face, between two
    distinct, non-adjacent vertices that are not both on the path.
    """
    ga, path = aug.graph, aug.path_vertices
    L = len(path)
    fixed = {v: _pt(i + 1, 0) for i, v in enumerate(path)}
    nbrs = {v: list(ga.rot[v]) for v in ga.vertices}
    faces = [vs for vs in map(ga.face_vertices, ga.internal_faces())
             if any(v not in fixed for v in vs)]
    darts = ga.faces[ga.outer]
    i = darts.index((path[0], aug.outer_corner(path[0])))
    # the outer walk clockwise from path[0]'s outer corner round to it
    walk = [x for x, _ in darts[i:] + darts[:i]] + [path[0]]
    k = (darts.index((path[-1], aug.outer_corner(path[-1]))) - i) % len(darts)
    hub = max(ga.vertices) + 1
    for side, arc, y in zip(curve_sides(aug), (walk[:k + 1], walk[k:]), (L + 1, -L - 1)):
        if side:        # an empty side has only the path on its boundary
            fixed[hub] = (F(1 + L) / 2, F(y))
            nbrs[hub] = [arc[0], arc[-1]]
            nbrs[arc[0]].append(hub)
            nbrs[arc[-1]].append(hub)
            faces.append((hub, *arc))
            hub += 1
    on_path = set(path)
    for vs in faces:
        while len(set(vs)) != len(vs):
            j = _clip_corner(vs, nbrs, lambda a, x, b: a in on_path and b in on_path)
            vs = vs[:j] + vs[j + 1:]
        if len(vs) > 3:
            nbrs[hub] = vs
            for v in vs:
                nbrs[v].append(hub)
            hub += 1
    coords = _barycentric({v: Counter(ws) for v, ws in nbrs.items()}, fixed)
    return PolylineDrawing(
        coords={v: coords[v] for v in g.vertices},
        bends={e: (coords[w],) for e, w in aug.subdivision.items()})


def curve_to_drawing(g: PlaneGraph, c: GoodCurve) -> Drawing:
    """Straight-line drawing of g in which the curve's stations land on the
    x-axis: vertex stations exactly on it, crossed edges meeting it once.  A
    plane 3-tree is placed by ``place_free``; any other graph is split along
    the curve, each side drawn barycentrically against the path on the
    x-axis, and the crossed edges straightened.  A lone hop through the outer
    face (a line that misses the drawing) gets the drawing of (v), v the
    first outer vertex, moved above the axis, with no designated vertex."""
    if c.closed:
        raise RealizeError("only open (proper) curves can be realized on a line")
    if _misses_drawing(g, c):
        d = curve_to_drawing(g, GoodCurve((Vst(g.outer_walk()[0]),)))
        lift = 1 - min(y for _, y in d.coords.values())
        return Drawing({v: (x, y + lift) for v, (x, y) in d.coords.items()})
    try:
        decomp = decompose(g)
    except ThreeTreeError:
        return _straighten(g, _split_drawing(g, _proper_augment(g, c)), c.vertices)
    return Drawing(_place(decomp, labeling_from_curve(g, c)).coords, c.vertices)
