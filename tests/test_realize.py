"""Exact drawings: verification, barycentric solves, free placement, curve realization."""

import hashlib
import itertools
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction, Fraction as Fr
from heapq import heappop, heappush
from math import gcd
from typing import Dict, Mapping, Set
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from collinear import realize
from collinear.applications import PointSet, universal_placement
from collinear.geom import homogeneous, line_h, orient, side_h
from collinear.plane_graph import (PlaneGraph, PlaneGraphError, edge_key,
                                  graph_from_positions, reach)
from collinear.curves import (CurveError, GoodCurve, Vst, Xst, Fst, augment_with_curve,
                              validate_curve, curve_from_drawing)
from collinear.cubic import generate_triconnected_cubic, theorem4
from collinear.oracle import enumerate_curves
from collinear.treewidth import identity_grid_model, theorem5_curve
from collinear.three_tree import (random_plane_3tree, decompose, build_curve_bundle,
                                  dp_optimal_collinear)
from collinear.realize import (
    Drawing, LabelingOrder, RealizeError,
    parse_drawing, serialize_drawing, drawing_to_svg,
    verify_drawing, _planarity_violations, labeling_from_curve, place_free,
    lift_off_line, _straighten, curve_to_drawing, _level_graph, _st_order,
    curve_sides, _arc_cw, _place,
)
from test_three_tree import deep_stacking
from test_curves import reference_augment


K4 = PlaneGraph({0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
                outer_walk=(0, 1, 2))


def face_with(g, need_vs):
    return next(i for i in g.internal_faces()
                if set(need_vs) <= set(g.face_vertices(i)))


def k4_cross_curve():
    """X(1,2) -> hub -> X(0,2): one vertex station, two crossings."""
    return GoodCurve((Xst(1, 2), Fst(face_with(K4, {1, 2, 3})), Vst(3),
                      Fst(face_with(K4, {0, 2, 3})), Xst(0, 2)))


def prism():
    return graph_from_positions(
        {0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (1, 1), 4: (3, 1), 5: (2, 2)},
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def cube():
    return graph_from_positions(
        {0: (0, 0), 1: (6, 0), 2: (6, 6), 3: (0, 6),
         4: (2, 2), 5: (4, 2), 6: (4, 4), 7: (2, 4)},
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)])


# -- drawing format and SVG ----------------------------------------------------------


def test_drawing_roundtrip():
    d = Drawing({0: (Fr(1, 3), Fr(0)), 1: (Fr(-2), Fr(5, 7))}, designated=(1,))
    text = serialize_drawing(d)
    assert text.splitlines()[0] == "drawing 2"
    d2 = parse_drawing(text)
    assert d2.coords == d.coords and d2.designated == (1,)


def test_parse_drawing_rejects_garbage():
    with pytest.raises(RealizeError):
        parse_drawing("drawing 1\nwat 0 1/1 1/1\n")
    with pytest.raises(RealizeError):
        parse_drawing("drawing 2\nv 0 1/1 1/1\n")     # count mismatch


@pytest.mark.parametrize("text,message", [
    # four vertices declared and four distinct ids, but vertex 3 stated twice
    ("drawing 4\nv 0 0 0\nv 1 2 4\nv 2 4 0\nv 3 2 1\nv 3 2 -9\n",
     "duplicate coordinate line for vertex 3"),
    ("drawing 3\nv 0 0 0\nv 1 2 4\nv 2 4 0\ndesignated: 0 1 0 2 1\n",
     "designated vertices repeated: [0, 1]"),
])
def test_parse_drawing_rejects_a_repeated_vertex(text, message):
    with pytest.raises(RealizeError, match=re.escape(message)):
        parse_drawing(text)


def test_svg_export_deterministic():
    d = Drawing({v: (Fr(v), Fr(v * v)) for v in K4.vertices}, designated=(3,))
    s1 = drawing_to_svg(K4, d)
    s2 = drawing_to_svg(K4, d)
    assert s1 == s2
    assert s1.count("<line") == len(K4.edges) + 1      # edges plus the axis
    assert s1.count("#d32") == 1                       # highlighted vertex


# -- verification --------------------------------------------------------------------


def good_k4_drawing():
    return Drawing({0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(4)), 2: (Fr(4), Fr(0)),
                    3: (Fr(2), Fr(1))})


def test_verify_accepts_straightforward_drawing():
    rep = verify_drawing(K4, good_k4_drawing())
    assert rep.ok and rep.violations == []


def test_verify_rejects_mirrored_drawing():
    d = good_k4_drawing()
    mirrored = Drawing({v: (-x, y) for v, (x, y) in d.coords.items()})
    rep = verify_drawing(K4, mirrored)
    assert not rep.embedding_ok
    assert any("rotation" in v for v in rep.violations)


def test_verify_detects_crossing_and_vertex_on_edge():
    # hub pulled outside the outer triangle: edges must cross
    d = Drawing({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(2), Fr(4)),
                 3: (Fr(2), Fr(-3))})
    rep = verify_drawing(K4, d)
    assert not rep.planar and any("intersect" in v for v in rep.violations)
    # hub exactly on an outer edge
    d2 = Drawing({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(2), Fr(4)),
                  3: (Fr(2), Fr(0))})
    rep2 = verify_drawing(K4, d2)
    assert not rep2.planar and any("lies on edge" in v for v in rep2.violations)


def test_verify_reports_noncollinear_designated():
    d = Drawing(good_k4_drawing().coords, designated=(0, 1, 2))
    rep = verify_drawing(K4, d)
    assert not rep.collinear_ok and any("collinear" in v for v in rep.violations)


def test_verify_reports_a_vertex_set_that_is_not_the_graphs():
    # a designated vertex without coordinates, and a coordinate for a vertex
    # the graph lacks (drawn onto vertex 3), each one clear violation
    coords = good_k4_drawing().coords
    cases = [(Drawing(coords, (0, 2, 7)), ["designated vertices without coordinates: [7]"]),
             (Drawing({**coords, 9: coords[3]}),
              ["coordinates for vertices not in the graph: [9]"]),
             (Drawing({**coords, 9: coords[3]}, (9,)),
              ["coordinates for vertices not in the graph: [9]"]),
             (Drawing({v: coords[v] for v in (0, 1, 2)}, (5,)),
              ["vertices without coordinates: [3]",
               "designated vertices without coordinates: [5]"]),
             # a repeated first vertex gave the zero line, which every point is on
             (Drawing(coords, (0, 0, 1, 2)), ["designated vertices repeated: [0]"])]
    for d, violations in cases:
        rep = verify_drawing(K4, d)
        assert not (rep.planar or rep.embedding_ok or rep.outer_ok or rep.collinear_ok)
        assert rep.violations == violations


def test_verify_takes_the_line_through_two_distinct_points():
    # vertex 3 drawn onto vertex 0: the line runs through 0 and 1, not 0 and 3
    coords = {**good_k4_drawing().coords, 3: (Fr(0), Fr(0))}
    rep = verify_drawing(K4, Drawing(coords, (0, 3, 1)))
    assert rep.collinear_ok and not rep.planar
    rep = verify_drawing(K4, Drawing(coords, (0, 3, 1, 2)))
    assert not rep.collinear_ok
    assert "designated vertices 0, 1, 2 are not collinear" in rep.violations


def test_verify_exact_not_float():
    # a crossing smaller than any float could see
    tiny = Fr(1, 10 ** 40)
    d = Drawing({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(2), Fr(4)),
                 3: (Fr(2), -tiny)})
    rep = verify_drawing(K4, d)
    assert not rep.planar


# A crossing that a float filter scaled by coordinate differences missed:
# the coordinates sit near 1e17, where rounding the absolute values hides it.
CROSSING_NEAR_1E17 = {
    0: (Fr(70076886150809407, 534), Fr(98507140039826179977, 664)),
    1: (Fr(96322910926394421, 734), Fr(62308733157721377541, 420)),
    2: (Fr(3411983220825929, 26), Fr(40352322425952892307, 272)),
    3: (Fr(11154560529624228, 85), Fr(70764918371983566146, 477)),
}


def path_graph(n):
    """The path 0-1-...-(n-1): a plane graph with a single face."""
    rot = {v: tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n)}
    return PlaneGraph(rot, outer_face=0)


def test_verify_rejects_crossing_near_1e17():
    rep = verify_drawing(path_graph(4), Drawing(CROSSING_NEAR_1E17))
    assert not rep.planar and not rep.ok
    assert rep.violations[0] == "edges (0, 1) and (2, 3) intersect"


def test_verify_accepts_planar_path():
    d = Drawing({0: (Fr(0), Fr(0)), 1: (Fr(1), Fr(0)), 2: (Fr(1), Fr(1)),
                 3: (Fr(3), Fr(-1))})
    rep = verify_drawing(path_graph(4), d)
    assert rep.ok and rep.violations == []


def test_graph_from_positions_single_face():
    # a star and a path have one face, which must become the outer face
    star = graph_from_positions({0: (0, 0), 1: (1, 0), 2: (-1, 1), 3: (0, -2)},
                                [(0, 1), (0, 2), (0, 3)])
    assert len(star.faces) == 1 and star.outer == 0
    path = graph_from_positions({0: (0, 0), 1: (0, 1), 2: (0, 2)},
                                [(0, 1), (1, 2)])
    assert path.face_key(path.outer) == (0, 1, 2, 1)


def test_graph_from_positions_outer_face_at_leftmost_vertex():
    # the leftmost-lowest vertex is the bottom end of a vertical edge
    pos = {0: (0, 0), 1: (0, 2), 2: (3, 1), 3: (1, 1)}
    g = graph_from_positions(pos, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    assert g.face_key(g.outer) == (0, 1, 2)
    assert verify_drawing(g, Drawing({v: (Fr(x), Fr(y)) for v, (x, y) in pos.items()})).ok


# -- the sweep against an exhaustive exact pair test -----------------------------------


def _orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _brute_violations(coords, edges):
    """Every violation, by testing all pairs with Fraction arithmetic."""
    def inside(p, a, b):                 # p in the relative interior of [a, b]
        return _orient(a, b, p) == 0 and min(a, b) < p < max(a, b)

    out = set()
    vs = sorted(coords)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if coords[a] == coords[b]:
                out.add(f"vertices {a} and {b} coincide at {coords[a]}")
    edges = sorted(edges)
    for e in edges:
        for v in vs:
            if v not in e and inside(coords[v], coords[e[0]], coords[e[1]]):
                out.add(f"vertex {v} lies on edge {e}")
    for i, e in enumerate(edges):
        a, b = coords[e[0]], coords[e[1]]
        for f in edges[i + 1:]:
            c, d = coords[f[0]], coords[f[1]]
            if (_orient(a, b, c) * _orient(a, b, d) < 0
                    and _orient(c, d, a) * _orient(c, d, b) < 0):
                out.add(f"edges {e} and {f} intersect")
    return out


def _brute_planar(coords, edges):
    """True iff no two vertices coincide and no two edges share a point
    other than a common end point: an independent closed-segment test."""
    pts = list(coords.values())
    if len(set(pts)) < len(pts):
        return False

    def on(p, a, b):
        return (_orient(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    edges = sorted(edges)
    for i, (u, v) in enumerate(edges):
        a, b = coords[u], coords[v]
        if any(on(p, a, b) for w, p in coords.items() if w not in (u, v)):
            return False
        for (x, y) in edges[i + 1:]:
            c, d = coords[x], coords[y]
            shared = {u, v} & {x, y}
            if shared:
                s = shared.pop()
                p = b if s == u else a
                q = d if s == x else c
                o = coords[s]
                if _orient(o, p, q) == 0 and (
                        (p[0] - o[0]) * (q[0] - o[0]) + (p[1] - o[1]) * (q[1] - o[1]) > 0):
                    return False
                continue
            o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
            if o1 * o2 < 0 and o3 * o4 < 0:
                return False
            if on(c, a, b) or on(d, a, b) or on(a, c, d) or on(b, c, d):
                return False
    return True


def sweep(coords, edges):
    """``_planarity_violations`` with the homogeneous points it runs on."""
    return _planarity_violations(coords, edges,
                                 {v: homogeneous(p) for v, p in coords.items()})


def _check_sweep(coords, edges):
    found = sweep(coords, edges)
    planar = _brute_planar(coords, edges)
    assert (found == []) == planar, (coords, edges, found)
    if found:
        assert len(found) == 1 and found[0] in _brute_violations(coords, edges), found


small = st.integers(min_value=0, max_value=4)
coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def drawings(draw, values):
    n = draw(st.integers(min_value=2, max_value=7))
    # vertex ids in a drawn order: reports must not depend on dict order
    coords = {v: (Fr(draw(values)), Fr(draw(values)))
              for v in draw(st.permutations(range(n)))}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=9, unique=True))
    return coords, edges


@settings(max_examples=400, deadline=None)
@given(drawings(small))
def test_sweep_matches_pair_test_on_grid_drawings(case):
    # integer grid points: many vertical edges, collinear overlaps, vertices
    # on edges and coincident vertices
    _check_sweep(*case)


@settings(max_examples=200, deadline=None)
@given(drawings(coord), st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(1, 997),
       st.integers(1, 997))
def test_sweep_matches_pair_test_near_1e17(case, sx, sy, qx, qy):
    coords, edges = case
    tx, ty = Fr(10 ** 17 * qx + sx, qx), Fr(10 ** 17 * qy + sy, qy)
    _check_sweep(coords, edges)
    shifted = {v: (x + tx, y + ty) for v, (x, y) in coords.items()}
    _check_sweep(shifted, edges)
    assert (sweep(coords, edges) == []) == (sweep(shifted, edges) == [])


@pytest.mark.parametrize("coords, edges, message", [
    # vertical edge crossed by a horizontal one
    ({0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}, [(0, 1), (2, 3)],
     "edges (0, 1) and (2, 3) intersect"),
    # vertical edges on one line, touching only at a shared end point
    ({0: (0, 0), 1: (0, 1), 2: (0, 2)}, [(0, 1), (1, 2)], None),
    # a vertex inside a vertical edge
    ({0: (0, 0), 1: (0, 2), 2: (0, 1), 3: (1, 1)}, [(0, 1), (2, 3)],
     "vertex 2 lies on edge (0, 1)"),
    # a crossing pair that becomes adjacent only when the edge between ends
    ({0: (0, 0), 1: (10, 10), 2: (0, 10), 3: (10, 0), 4: (-1, 5), 5: (3, 5)},
     [(0, 1), (2, 3), (4, 5)], "edges (0, 1) and (2, 3) intersect"),
    # a new edge crossing the edge above it
    ({0: (0, 10), 1: (10, 0), 2: (1, 1), 3: (9, 9)}, [(0, 1), (2, 3)],
     "edges (0, 1) and (2, 3) intersect"),
    # a new edge crossing the edge below it
    ({0: (0, 0), 1: (10, 10), 2: (1, 9), 3: (9, 1)}, [(0, 1), (2, 3)],
     "edges (0, 1) and (2, 3) intersect"),
    # coincident vertices
    ({0: (0, 0), 1: (1, 1), 2: (1, 1)}, [(0, 1), (0, 2)],
     "vertices 1 and 2 coincide at (Fraction(1, 1), Fraction(1, 1))"),
    # collinear overlap at a shared vertex: the nearer far end lies on the other
    ({0: (0, 0), 1: (3, 3), 2: (1, 1)}, [(0, 1), (0, 2)],
     "vertex 2 lies on edge (0, 1)"),
    ({0: (0, 0), 1: (0, 3), 2: (0, 1)}, [(0, 1), (0, 2)],
     "vertex 2 lies on edge (0, 1)"),
    ({0: (2, 2), 1: (-1, -1), 2: (0, 0)}, [(0, 1), (0, 2)],
     "vertex 2 lies on edge (0, 1)"),
    # collinear overlap without a shared vertex
    ({0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (3, 0)}, [(0, 1), (2, 3)],
     "vertex 2 lies on edge (0, 1)"),
])
def test_sweep_degenerate_cases(coords, edges, message):
    coords = {v: (Fr(x), Fr(y)) for v, (x, y) in coords.items()}
    assert sweep(coords, edges) == ([message] if message else [])
    _check_sweep(coords, edges)


# -- barycentric embedding -----------------------------------------------------------


def unit_weights(nbrs):
    """Weight 1 on each neighbour, the system of a Tutte embedding."""
    return {v: Counter(ws) for v, ws in nbrs.items()}


def _eliminate(rows: Dict[int, Dict[int, int]], rhs: Dict[int, int], step) -> list:
    """(p, pivot, rest of row p, rhs) per pivot of the system ``rows`` (row
    v maps unknowns to integer coefficients, ``rhs[v]`` is its right-hand
    side; both consumed), in minimum-degree order from a lazy (row length,
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
            b = m * rhs[r] - (q * prhs >> s)
            g = 1 if s else gcd(b, *new.values())
            if g > 1:
                new, b = {v: c // g for v, c in new.items()}, b // g
            rows[r], rhs[r] = new, b
            if len(new) != len(row) + 1:
                heappush(heap, (len(new), r))
    return order


def _exact_x(nbrs: Mapping[int, Mapping[int, int]], fixed: Mapping[int, int]
             ) -> Dict[int, Fraction]:
    """x of every vertex of ``nbrs`` but the ``fixed`` ones, exactly the
    average of its neighbours' x under the integer weights ``nbrs[v][u]``,
    with the fixed values: the reference for ``_straighten``'s fixed-point
    proposals, once its last resort past 1024 bits.  Fraction-free
    (Bareiss): each row stays a multiple of its ``Fraction`` counterpart
    with the same non-zeros, so a pivot is zero iff it is over the
    rationals."""
    rows = {v: {v: sum(ws.values()), **{u: -w for u, w in ws.items() if u not in fixed}}
            for v, ws in nbrs.items() if v not in fixed}
    rhs = {v: sum(w * fixed[u] for u, w in nbrs[v].items() if u in fixed) for v in rows}
    X = {v: Fraction(x) for v, x in fixed.items()}
    for p, piv, prow, px in reversed(_eliminate(rows, rhs, lambda piv, a: (piv, a, 0))):
        X[p] = Fraction(px - sum(c * X[v] for v, c in prow.items()), piv)
    return X


def exact_solve(nbrs, fixed):
    """Both columns of the convex-combination system with the rational
    positions ``fixed``, each by ``_exact_x`` on the column scaled
    to integers."""
    cols = []
    for i in (0, 1):
        scale = math.lcm(*(p[i].denominator for p in fixed.values()))
        xs = _exact_x(nbrs, {v: int(p[i] * scale) for v, p in fixed.items()})
        cols.append({v: x / scale for v, x in xs.items()})
    return {v: (cols[0][v], cols[1][v]) for v in cols[0]}


def test_tutte_triangle_interior():
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (2, 1)},
                             [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    d = Drawing(exact_solve(unit_weights(g.rot), {0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)),
                                                  2: (Fr(2), Fr(3))}))
    assert d.coords[3] == (Fr(2), Fr(1))
    assert verify_drawing(g, d).ok


def test_tutte_square_center():
    g = graph_from_positions(
        {0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2), 4: (1, 1)},
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)])
    poly = {0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(0)), 2: (Fr(2), Fr(2)), 3: (Fr(0), Fr(2))}
    d = Drawing(exact_solve(unit_weights(g.rot), poly))
    assert d.coords[4] == (Fr(1), Fr(1))
    assert verify_drawing(g, d).ok


def octahedron():
    rot = {0: (1, 2, 3, 4), 1: (0, 4, 5, 2), 2: (0, 1, 5, 3),
           3: (0, 2, 5, 4), 4: (0, 3, 5, 1), 5: (1, 4, 3, 2)}
    return PlaneGraph({v: tuple(reversed(r)) for v, r in rot.items()},
                      outer_walk=(0, 1, 2))


def test_tutte_octahedron_residual_zero():
    g = octahedron()
    d = Drawing(exact_solve(unit_weights(g.rot), {0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(4)),
                                                  2: (Fr(4), Fr(0))}))
    assert verify_drawing(g, d).ok
    for v in (3, 4, 5):
        nb = g.rot[v]
        assert sum(d.coords[u][0] for u in nb) == len(nb) * d.coords[v][0]
        assert sum(d.coords[u][1] for u in nb) == len(nb) * d.coords[v][1]


# -- labelings from curves -----------------------------------------------------------


def test_labeling_from_k4_curve():
    lab = labeling_from_curve(K4, k4_cross_curve())
    assert lab.labels[3] == 'on'
    assert lab.labels[2] != lab.labels[0] == lab.labels[1]
    assert lab.order == (('e', (1, 2)), ('v', 3), ('e', (0, 2)))
    assert [lab.targets[e] for e in lab.order] == [1, 2, 3]


def test_labeling_validation_catches_gaps():
    lab = labeling_from_curve(K4, k4_cross_curve())
    broken = LabelingOrder(lab.labels, lab.order[:-1],
                           {e: lab.targets[e] for e in lab.order[:-1]})
    with pytest.raises(RealizeError):
        broken.validate(K4)


# -- free placement ------------------------------------------------------------------


def seg_line_y0_crossing(a, b):
    """Reference in Fractions: where segment (a, b) crosses y = 0, when its
    ends lie strictly on opposite sides; None otherwise."""
    if a[1] == 0 or b[1] == 0 or (a[1] > 0) == (b[1] > 0):
        return None
    t = a[1] / (a[1] - b[1])
    return (a[0] + t * (b[0] - a[0]), Fr(0))


def test_place_free_k4_hub_on_line():
    lab = LabelingOrder(
        {0: 'up', 1: 'down', 2: 'up', 3: 'on'},
        (('e', (1, 2)), ('v', 3), ('e', (0, 1))),
        {('e', (1, 2)): Fr(1), ('v', 3): Fr(2), ('e', (0, 1)): Fr(3)})
    d = place_free(K4, lab)
    assert d.coords[3] == (Fr(2), Fr(0))
    assert seg_line_y0_crossing(d.coords[1], d.coords[2]) == (Fr(1), Fr(0))
    assert seg_line_y0_crossing(d.coords[0], d.coords[1]) == (Fr(3), Fr(0))
    assert verify_drawing(K4, d).ok


def test_place_free_reports_violating_triangle():
    # same labels, but the crossing order runs against the embedding
    lab = LabelingOrder(
        {0: 'up', 1: 'down', 2: 'up', 3: 'on'},
        (('e', (0, 1)), ('v', 3), ('e', (1, 2))),
        {('e', (0, 1)): Fr(1), ('v', 3): Fr(2), ('e', (1, 2)): Fr(3)})
    with pytest.raises(RealizeError, match=r"triangle \(2, 1, 0\)"):
        place_free(K4, lab)


def test_place_free_one_sided():
    lab = LabelingOrder({0: 'on', 1: 'up', 2: 'up', 3: 'up'},
                        (('v', 0),), {('v', 0): Fr(7)})
    d = place_free(K4, lab)
    assert d.coords[0] == (Fr(7), Fr(0))
    assert all(d.coords[v][1] > 0 for v in (1, 2, 3))
    assert verify_drawing(K4, d).ok


def _e(a, b):
    return ('e', (a, b))


def _v(v):
    return ('v', v)


U, D, O = 'up', 'down', 'on'
_AT = "inconsistent labeling at triangle "

# Corrupted labelings, each with the exact message free placement gives for
# it (all but the parallel-rays case unchanged since before its tests ran
# on integer homogeneous coordinates, and all unchanged since the frame
# patterns became one rule).  A graph is K4 or random_plane_3tree(n, seed);
# targets are 1, 2, ... in order unless given.  One more message is
# unreachable: the ray from a corner through a point strictly inside the
# triangle always leaves through the opposite side, so "does not exit the
# opposite side" cannot occur.
PLACEMENT_FAILURES = [
    ("K4", (U, U, D, D), [_e(0, 2), _e(1, 3), _e(0, 3), _e(1, 2)], {},
     _AT + "(2, 1, 0): vertex 3 labeled down lands at y = 1/7"),
    ("K4", (U, D, D, U), [_e(0, 2), _e(1, 3), _e(2, 3), _e(0, 1)], {},
     _AT + "(2, 1, 0): vertex 3 labeled up lands at y = -1/7"),
    ((5, 1), (U, D, U, U, U), [_e(1, 2), _e(1, 4), _e(1, 3), _e(0, 1)], {},
     _AT + "(1, 0, 3): target x = 2 is not interior to the triangle"),
    ((5, 1), (U, U, D, D, O), [_e(0, 2), _e(0, 3), _e(1, 3), _v(4), _e(1, 2)], {},
     _AT + "(1, 0, 3): vertex 4 falls outside its triangle"),
    ((5, 1), (U, U, D, U, D),
     [_e(0, 2), _e(0, 4), _e(3, 4), _e(2, 3), _e(1, 4), _e(1, 2)], {},
     _AT + "(1, 0, 3): vertex 4 labeled down inside a one-sided triangle"),
    # the two rays that should meet at vertex 4 are parallel (found by a
    # seeded search over random labels and orders once vertices stepped
    # along their rays from the corner)
    ((5, 17), (U, D, U, U, D), [_e(1, 2), _e(1, 3), _e(3, 4), _e(2, 4), _e(0, 1)], {},
     _AT + "(2, 1, 3): crossing rays through x = 4 and x = 3 are parallel"),
    # the two rays meet exactly at corner 0 of the triangle: on its
    # boundary, not inside
    ((8, 3), (U, D, O, U, D, O, O, O),
     [_v(2), _v(6), _e(0, 4), _e(1, 3), _v(5), _v(7), _e(3, 4), _e(0, 1)],
     {_e(0, 4): Fr(23, 11), _e(1, 3): 3, _v(5): 4, _v(7): 5, _e(3, 4): 6, _e(0, 1): 8},
     _AT + "(1, 0, 3): vertex 4 falls outside its triangle"),
]


@pytest.mark.parametrize("graph,labels,order,targets,message", PLACEMENT_FAILURES)
def test_place_free_failure_messages(graph, labels, order, targets, message):
    g = K4 if graph == "K4" else random_plane_3tree(*graph)
    ts = {e: Fr(i + 1) for i, e in enumerate(order)}
    ts.update(targets)
    lab = LabelingOrder(dict(enumerate(labels)), tuple(order), ts)
    with pytest.raises(RealizeError) as err:
        place_free(g, lab)
    assert str(err.value) == message


@pytest.mark.parametrize("labels,message", [
    ((U, D, U, O), _AT + "(2, 1, 0): on-line vertex 3 has no target"),
    ((U, D, U, U), _AT + "(2, 1, 0): crossing edge (1, 3) has no target"),
])
def test_place_reports_a_missing_target(labels, message):
    # place_free validates its labeling first, so only _place, which takes
    # an already validated one, can meet an element without a target
    order = (_e(1, 2), _e(0, 1))
    lab = LabelingOrder(dict(enumerate(labels)), order, {order[0]: Fr(1), order[1]: Fr(2)})
    with pytest.raises(RealizeError) as err:
        _place(decompose(K4), lab)
    assert str(err.value) == message


@pytest.mark.parametrize("n,seed", [(50, 4), (120, 9)])
def test_place_free_hits_every_target_exactly(n, seed):
    g = random_plane_3tree(n, seed=seed)
    c = build_curve_bundle(decompose(g)).best
    lab = labeling_from_curve(g, c)
    d = place_free(g, lab)
    for elem in lab.order:
        q = lab.targets[elem]
        if elem[0] == 'v':
            assert d.coords[elem[1]] == (q, Fr(0))
        else:
            a, b = elem[1]
            assert seg_line_y0_crossing(d.coords[a], d.coords[b]) == (q, Fr(0))
    assert verify_drawing(g, d).ok


def test_place_free_names_an_element_without_target():
    lab = LabelingOrder(
        {0: 'up', 1: 'down', 2: 'up', 3: 'on'},
        (('e', (1, 2)), ('v', 3), ('e', (0, 1))),
        {('e', (1, 2)): Fr(1), ('e', (0, 1)): Fr(3)})
    with pytest.raises(RealizeError, match=re.escape("ordering element ('v', 3) has no target")):
        place_free(K4, lab)


def _bundle_labeling(g):
    return labeling_from_curve(g, build_curve_bundle(decompose(g)).best)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_plane_3tree, deep_stacking]), st.integers(4, 60),
       st.integers(0, 50), st.data())
def test_place_free_hits_random_increasing_targets(make, n, seed, data):
    # acceptance criterion 5 for any strictly increasing targets, not only
    # the curve's 1, 2, ...: the ray steps from a corner keep every crossing
    # edge on its own target
    g = make(n, seed)
    lab = _bundle_labeling(g)
    x = data.draw(st.fractions(-1000, 1000, max_denominator=100))
    targets = {}
    for elem in lab.order:
        targets[elem] = x
        x += data.draw(st.fractions(Fr(1, 1000), 1000, max_denominator=1000))
    d = place_free(g, LabelingOrder(lab.labels, lab.order, targets))
    for elem, q in targets.items():
        if elem[0] == 'v':
            assert d.coords[elem[1]] == (q, Fr(0))
        else:
            assert seg_line_y0_crossing(*(d.coords[v] for v in elem[1])) == (q, Fr(0))
    assert verify_drawing(g, d).ok


def test_place_free_deep_stacking_coordinates_stay_small():
    # the midpoint of a target and its ray's exit grew about 8 bits per
    # stacking level (14,373 bits at this size); a step from the corner
    # keeps about the corner's bits
    g = deep_stacking(1000, 1)
    d = place_free(g, _bundle_labeling(g))
    assert max(x.numerator.bit_length() + x.denominator.bit_length()
               for p in d.coords.values() for x in p) <= 3000


# -- the frame-pattern placement, kept as the reference -----------------------------


class ReferencePlacer(realize._Placer):
    """Free placement as it was written before the one-rule ``place``: the
    mixed triangles matched against rotated (up, down, *) frames and the
    cyclic (up, on, down) pattern, each with its mirror."""

    def place(self, tri, w):
        u, v, z = tri
        L = self.lab.labels
        lw = L[w]
        labs = (L[u], L[v], L[z])
        if all(l in (U, O) for l in labs) or all(l in (D, O) for l in labs):
            side = U if all(l in (U, O) for l in labs) else D
            if lw != side:
                self.fail(tri, f"vertex {w} labeled {lw} inside a one-sided triangle")
            a, b, c = (self.pts[x] for x in tri)
            p = ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
        else:
            rots = [(u, v, z), (v, z, u), (z, u, v)]
            frame = next(((a, b, c) for (a, b, c) in rots if L[a] == U and L[b] == D), None)
            if frame is not None:
                ru, rv, rz = frame
                lz = L[rz]
                if lw == O:
                    p = realize._pt(self.target_v(tri, w), 0)
                elif lz == O:
                    p = (self.beyond(tri, rv, self.target_e(tri, rv, w)) if lw == U
                         else self.beyond(tri, ru, self.target_e(tri, ru, w)))
                elif lz == U:
                    p = (self.beyond(tri, rv, self.target_e(tri, rv, w)) if lw == U
                         else self.cross2(tri, ru, self.target_e(tri, ru, w),
                                          rz, self.target_e(tri, rz, w)))
                else:
                    p = (self.beyond(tri, ru, self.target_e(tri, ru, w)) if lw == D
                         else self.cross2(tri, rv, self.target_e(tri, rv, w),
                                          rz, self.target_e(tri, rz, w)))
            else:
                frame = next(((a, b, c) for (a, b, c) in rots
                              if L[a] == U and L[b] == O and L[c] == D), None)
                if frame is None:
                    self.fail(tri, f"unplaceable corner labels {labs}")
                r0, r1, r2 = frame
                if lw == O:
                    p = realize._pt(self.target_v(tri, w), 0)
                elif lw == U:
                    p = self.beyond(tri, r2, self.target_e(tri, r2, w))
                else:
                    p = self.beyond(tri, r0, self.target_e(tri, r0, w))
        self.put(w, p)
        if not realize.inside_h(self.hpts[w], *(self.hpts[c] for c in tri)):
            self.fail(tri, f"vertex {w} falls outside its triangle")
        want = {U: 1, D: -1, O: 0}[lw]
        if (p[1] > 0) - (p[1] < 0) != want:
            self.fail(tri, f"vertex {w} labeled {lw} lands at y = {p[1]}")


def reference_root_triangle(corners, lab):
    """The outer triangle placed by rotated frames, before the ordering's two
    ends were read directly."""
    L = lab.labels
    labs = tuple(L[c] for c in corners)
    order = lab.order

    def fail(msg):
        raise RealizeError(f"outer triangle {corners}: {msg}")

    def check_extremes(first, last):
        if not order or order[0] != first or order[-1] != last:
            fail(f"ordering must start with {first} and end with {last}, "
                 f"got {order[:1]} ... {order[-1:]}")

    one = Fr(1)
    pt = realize._pt
    if all(l in (U, O) for l in labs) or all(l in (D, O) for l in labs):
        side = U if all(l in (U, O) for l in labs) else D
        ons = [c for c in corners if L[c] == O]
        expect = tuple(('v', c) for c in sorted(ons, key=lambda c: lab.targets.get(('v', c), 0)))
        if tuple(order) != expect:
            fail(f"one-sided outer triangle allows only its on-line corners in "
                 f"the ordering, got {order}")
        y = one if side == U else -one
        if len(ons) == 3:
            fail("all three outer corners cannot lie on the line")
        if len(ons) == 2:
            a, b = ons
            qa, qb = lab.targets[('v', a)], lab.targets[('v', b)]
            t = next(c for c in corners if L[c] != O)
            pts = {a: pt(qa, 0), b: pt(qb, 0), t: ((qa + qb) / 2, y)}
        elif len(ons) == 1:
            c0 = ons[0]
            q = lab.targets[('v', c0)]
            rest = [c for c in corners if c != c0]
            pts = {c0: pt(q, 0), rest[0]: (q + (1 if side == U else -1), y),
                   rest[1]: (q - (1 if side == U else -1), y)}
        else:
            pts = dict(zip(corners, [pt(0, y), pt(2 if side == U else 1, 2 * y),
                                     pt(1 if side == U else 2, 2 * y)]))
        if orient(*(pts[c] for c in corners)) != 1:
            fail("corner labels are incompatible with the counter-clockwise frame")
        return pts
    if not order:
        fail("mixed corner labels but empty ordering")
    rots = [tuple(corners[(i + k) % 3] for k in range(3)) for i in range(3)]
    frame = next((r for r in rots if L[r[0]] == U and L[r[1]] == D), None)
    if frame is not None:
        ru, rv, rz = frame
        if L[rz] == O:
            first, last = _e(*edge_key(ru, rv)), _v(rz)
            check_extremes(first, last)
            x1, xk = lab.targets[first], lab.targets[last]
            return {ru: pt(x1, 1), rv: pt(x1, -1), rz: pt(xk, 0)}
        if L[rz] == U:
            first, last = _e(*edge_key(ru, rv)), _e(*edge_key(rv, rz))
            check_extremes(first, last)
            x1, xk = lab.targets[first], lab.targets[last]
            return {ru: pt(x1, 1), rv: pt(x1, -1), rz: (2 * xk - x1, one)}
        first, last = _e(*edge_key(ru, rv)), _e(*edge_key(ru, rz))
        check_extremes(first, last)
        x1, xk = lab.targets[first], lab.targets[last]
        return {ru: pt(x1, 1), rv: pt(x1, -1), rz: (2 * xk - x1, -one)}
    frame = next((r for r in rots if L[r[0]] == U and L[r[1]] == O and L[r[2]] == D), None)
    if frame is None:
        fail(f"unplaceable corner labels {labs}")
    r0, r1, r2 = frame
    first, last = _v(r1), _e(*edge_key(r0, r2))
    check_extremes(first, last)
    x1, xk = lab.targets[first], lab.targets[last]
    return {r0: pt(xk, 1), r1: pt(x1, 0), r2: pt(xk, -1)}


def reference_place(decomp, lab):
    """``_place`` with the reference placer and root, walking the nodes from
    a stack as it did."""
    placer = ReferencePlacer(lab)
    for v, p in reference_root_triangle(decomp.root.corners, lab).items():
        placer.put(v, p)
    stack = [decomp.root]
    while stack:
        node = stack.pop()
        if node.kind == 'empty':
            continue
        placer.place(node.corners, node.w)
        stack.extend(node.children)
    for elem in lab.order:
        q = lab.targets[elem]
        if elem[0] == 'v':
            if placer.pts[elem[1]] != (q, 0):
                raise RealizeError(f"on-line vertex {elem[1]} is not at its target")
            continue
        (xa, ya, wa), (xb, yb, wb) = (placer.hpts[v] for v in elem[1])
        num, den = q.as_integer_ratio()
        if ya * yb >= 0 or (ya * xb - xa * yb) * den != num * (ya * wb - wa * yb):
            raise RealizeError(f"edge {elem[1]} does not cross the line at its target")
    return Drawing(dict(placer.pts), tuple(e[1] for e in lab.order if e[0] == 'v'))


def placement_outcome(place, decomp, lab):
    """The drawing, or the type of the exception raised."""
    try:
        return place(decomp, lab)
    except Exception as exc:             # the reference may fail otherwise
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([random_plane_3tree, deep_stacking]), st.integers(4, 60),
       st.integers(0, 50), st.sampled_from(["bundle", "dp"]),
       st.sampled_from([None, "flip", "swap"]), st.data())
def test_place_matches_the_frame_reference(make, n, seed, curve, corrupt, data):
    # the one rule gives the frame patterns' drawing whenever they give one,
    # and fails whenever they fail, on curve labelings and on corrupted ones
    g = make(n, seed)
    decomp = decompose(g)
    c = (build_curve_bundle(decomp).best if curve == "bundle"
         else dp_optimal_collinear(decomp)[1])
    lab = labeling_from_curve(g, c)
    labels, order = dict(lab.labels), list(lab.order)
    if corrupt == "flip":
        v = data.draw(st.sampled_from(sorted(labels)))
        labels[v] = data.draw(st.sampled_from([l for l in (U, D, O) if l != labels[v]]))
    elif corrupt == "swap" and len(order) >= 2:
        i, j = data.draw(st.lists(st.integers(0, len(order) - 1), min_size=2,
                                  max_size=2, unique=True))
        order[i], order[j] = order[j], order[i]
    x = data.draw(st.fractions(-1000, 1000, max_denominator=100))
    targets = {}
    for elem in order:
        targets[elem] = x
        x += data.draw(st.fractions(Fr(1, 1000), 1000, max_denominator=1000))
    lab = LabelingOrder(labels, tuple(order), targets)
    ref = placement_outcome(reference_place, decomp, lab)
    new = placement_outcome(_place, decomp, lab)
    if isinstance(ref, Drawing):
        assert new == ref
    else:
        assert new is RealizeError


@pytest.mark.parametrize("reverse", [False, True])
def test_root_triangle_matches_the_frame_reference(reverse):
    # every labelling of the corners and of a fourth vertex, every ordering
    # of any of the elements those labels allow, and every ordering of one
    # or two elements whatever their labels, with targets 1, 2, ...: equal
    # corner positions or a failure on both sides, except where one corner
    # is on the line and the other two on one side: the reference put those
    # two in list order, not counter-clockwise after the on-line corner, and
    # failed whenever that was clockwise
    corners = (2, 1, 0) if reverse else (0, 1, 2)
    every = [_v(v) for v in range(4)] + [_e(*e) for e in itertools.combinations(range(4), 2)]
    outcomes = {dict: 0, str: 0}
    mended = 0
    for labs in itertools.product((U, D, O), repeat=4):
        labels = dict(enumerate(labs))
        pool = [_v(v) for v in range(4) if labels[v] == O]
        pool += [_e(a, b) for a, b in itertools.combinations(range(4), 2)
                 if {labels[a], labels[b]} == {U, D}]
        orders = [order for k in range(len(pool) + 1)
                  for order in itertools.permutations(pool, k)]
        orders += [(a,) for a in every] + list(itertools.permutations(every, 2))
        for order in orders:
            lab = LabelingOrder(labels, order, {e: Fr(i + 1) for i, e in enumerate(order)})
            ref = outcome(reference_root_triangle, corners, lab)
            new = outcome(realize._root_triangle, corners, lab)
            if isinstance(ref, dict) or isinstance(new, str):
                assert new == ref if isinstance(ref, dict) else isinstance(new, str)
            else:
                on, = [c for c in corners if labels[c] == O]
                assert len({labels[c] for c in corners}) == 2
                assert ref.endswith("incompatible with the counter-clockwise frame")
                assert new[on] == (lab.targets[_v(on)], 0)
                assert orient(*(new[c] for c in corners)) == 1
                mended += 1
            outcomes[type(ref)] += 1
    assert outcomes == {dict: 192, str: 9273}
    assert mended == 12


@pytest.mark.parametrize("side", [U, D])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_root_triangle_with_one_corner_on_the_line(i, side):
    # the other two corners follow the on-line one counter-clockwise, at
    # height +-1 beside its target, whichever corner it is
    corners = (4, 7, 5)
    on = corners[i]
    labels = {c: O if c == on else side for c in corners}
    lab = LabelingOrder(labels, (_v(on),), {_v(on): Fr(3)})
    pts = realize._root_triangle(corners, lab)
    assert pts[on] == (3, 0)
    assert {pts[c][1] for c in corners if c != on} == {1 if side == U else -1}
    assert orient(*(pts[c] for c in corners)) == 1


@pytest.mark.parametrize("stations", [lambda g, v: (Vst(v),),
                                      lambda g, v: (Vst(v), Fst(g.outer)),
                                      lambda g, v: (Fst(g.outer), Vst(v))],
                         ids=["v", "v-f", "f-v"])
def test_one_vertex_curves_of_small_3trees_realize(stations):
    # one outer vertex on the line, every other vertex on one side: the
    # outer triangle has one corner on the line, any of the three
    for n, seed in ((6, 1), (8, 2), (10, 3), (12, 4)):
        g = random_plane_3tree(n, seed)
        for v in g.outer_walk():
            c = GoodCurve(stations(g, v))
            assert validate_curve(g, c).proper
            d = curve_to_drawing(g, c)
            assert d.designated == (v,) and d.coords[v][1] == 0
            assert verify_drawing(g, d).ok


def test_lift_off_line_arbitrary_heights():
    g = random_plane_3tree(50, seed=4)
    c = build_curve_bundle(decompose(g)).best
    d = place_free(g, labeling_from_curve(g, c))
    heights = {v: Fr((-1) ** i * (i + 1), 3) for i, v in enumerate(d.designated)}
    lifted = lift_off_line(g, d, heights)
    for v in d.designated:
        assert lifted.coords[v][0] == d.coords[v][0]       # same x-order
        assert lifted.coords[v][1] == heights[v]
    rep = verify_drawing(g, lifted)
    assert rep.planar and rep.embedding_ok and rep.outer_ok


def reference_lift_off_line(g, d, heights):
    """The lift before its first magnification was read off the faces: M
    doubles from 1 until the drawing verifies, and gives up where the lift
    does, after 2^(j0 + 69) for the first magnification j0."""
    des = sorted(d.designated, key=lambda v: d.coords[v][0])
    if not des:
        raise RealizeError("drawing has no designated vertices to lift")
    for v in des:
        if d.coords[v][1] != 0:
            raise RealizeError(f"designated vertex {v} is not on the line")
        if v not in heights:
            raise RealizeError(f"no height prescribed for designated vertex {v}")
    xs = [d.coords[v][0] for v in des]
    ys = [Fr(heights[v]) for v in des]

    def h(x):
        i = bisect_left(xs, x)
        if 0 < i < len(xs):
            return ys[i - 1] + (ys[i] - ys[i - 1]) * (x - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[min(i, len(xs) - 1)]

    j0 = realize._first_magnification(
        g, {v: homogeneous(p) for v, p in d.coords.items()},
        {v: homogeneous((x, h(x))) for v, (x, _) in d.coords.items()})
    M = Fr(1)
    for _ in range(j0 + 70):
        lifted = Drawing({v: (x, M * y + h(x)) for v, (x, y) in d.coords.items()},
                         d.designated)
        rep = realize.verify_drawing(g, lifted)
        if rep.planar and rep.embedding_ok and rep.outer_ok:
            return lifted
        M *= 2
    raise RealizeError("lift failed to verify at any tested magnification")


def _outcome(lift, g, d, heights):
    try:
        return serialize_drawing(lift(g, d, heights))
    except RealizeError as exc:
        return f"error: {exc}"


heights_st = st.one_of(st.fractions(-100, 100, max_denominator=20),
                       st.integers(-2 ** 90, 2 ** 90).map(Fr))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_plane_3tree, deep_stacking]), st.integers(4, 40),
       st.integers(0, 50), st.data())
def test_lift_matches_the_doubling_loop(make, n, seed, data):
    # the same drawing, bit for bit, or the same error; heights near 2^90
    # need magnifications past 2^70
    g = make(n, seed)
    d = place_free(g, _bundle_labeling(g))
    heights = {v: data.draw(heights_st) for v in d.designated}
    assert _outcome(lift_off_line, g, d, heights) == _outcome(reference_lift_off_line,
                                                               g, d, heights)


def test_lift_of_a_partial_drawing_fails_as_the_doubling_loop():
    g = random_plane_3tree(20, 1)
    d = place_free(g, _bundle_labeling(g))
    coords = dict(d.coords)
    del coords[next(v for v in g.vertices if v not in d.designated)]
    partial = Drawing(coords, d.designated)
    heights = {v: Fr(1) for v in d.designated}
    assert (_outcome(lift_off_line, g, partial, heights)
            == _outcome(reference_lift_off_line, g, partial, heights)
            == "error: lift failed to verify at any tested magnification")


def test_lift_makes_no_verifier_call_on_a_3tree(monkeypatch):
    calls = []

    def counting(g, d):
        calls.append(d)
        return verify_drawing(g, d)
    monkeypatch.setattr(realize, "verify_drawing", counting)
    # (deep stackings much larger than these need more than 2^69)
    cases = [(random_plane_3tree, 60, 3), (random_plane_3tree, 200, 7),
             (deep_stacking, 40, 4), (deep_stacking, 60, 4)]
    skipped = 0
    for make, n, seed in cases:
        g = make(n, seed)
        d = place_free(g, _bundle_labeling(g))
        heights = {v: Fr((-1) ** i * (7 * i % 11), 3) for i, v in enumerate(d.designated)}
        calls.clear()
        lifted = lift_off_line(g, d, heights)
        assert calls == []
        assert reference_lift_off_line(g, d, heights) == lifted
        skipped += len(calls) - 1
    assert skipped > 0          # the doubling loop verified rejected drawings


def test_lift_rejects_a_graph_that_is_not_a_triangulation():
    g = prism()
    d = Drawing({v: (Fr(x), Fr(y)) for v, (x, y) in {
        0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (1, 1), 4: (3, 1), 5: (2, 2)}.items()}, (0, 1))
    assert verify_drawing(g, d).ok
    with pytest.raises(RealizeError, match="^lift needs a triangulation$"):
        lift_off_line(g, d, {0: Fr(1), 1: Fr(-1)})


# -- straightening -------------------------------------------------------------------
# ``_straighten`` draws g on the levels it is given; each hand-made case is
# compared with the LP straightening of the same drawing by its shape


@dataclass(frozen=True)
class Polyline:
    """A drawing whose edges may bend, the input of the LP straightening
    and the output of the reference split drawing: ``bends[edge_key(u, v)]``
    lists the bends in order from the smaller endpoint to the larger one."""
    coords: dict
    bends: dict = field(default_factory=dict)

    def polyline(self, u, v):
        e = edge_key(u, v)
        pts = [self.coords[e[0]], *self.bends.get(e, ()), self.coords[e[1]]]
        return pts if (u, v) == e else pts[::-1]


def assert_same_shape(g, d, ref, base):
    """Both outcomes are drawings that verify and draw every edge in the
    direction ``base`` draws it (up, down or level), and ``d`` puts the
    vertices on y = 0 that ``base`` puts there (the reference, which ranks
    the levels, puts its lowest one there when ``base`` has none)."""
    assert isinstance(d, Drawing) and isinstance(ref, Drawing), (d, ref)
    assert verify_drawing(g, d).ok and verify_drawing(g, ref).ok
    assert d.designated == ref.designated

    def shape(dr):
        ys = {v: y for v, (_, y) in dr.coords.items()}
        return {(u, v): (ys[v] > ys[u]) - (ys[v] < ys[u]) for u, v in g.edges}

    def zero(dr):
        return {v for v, (_, y) in dr.coords.items() if y == 0}
    assert shape(d) == shape(ref) == shape(base) and zero(d) == zero(base)


def framed(g, pos, extra):
    """The input of ``_straighten`` for g drawn at ``pos``, whose integer y
    are the levels: g with the edges ``extra`` added, in the frame B, B2, T
    (the next three vertices, which ``pos`` also places), with the
    rotations of that drawing."""
    B, B2, T = range(max(g.vertices) + 1, max(g.vertices) + 4)
    drawn = graph_from_positions(pos, [*g.edges, *extra, (B, T), (T, B2), (B2, B)])
    return ({v: list(ws) for v, ws in drawn.rot.items()},
            {v: int(y) for v, (_, y) in pos.items()})


def test_straighten_removes_bend_keeping_y():
    # the triangle drawn with its edge 1-2 bent round (5, 1), given by its
    # levels and rotations, is drawn straight on those levels
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (0, 4)},
                             [(0, 1), (1, 2), (2, 0)])
    rot, lev = framed(g, {0: (0, 0), 1: (4, 0), 2: (0, 1), 3: (-1, -1), 4: (9, -1),
                          5: (-1, 2)}, [(3, 0), (3, 1), (5, 2)])
    d = _straighten(g, rot, lev, ())
    assert {v: d.coords[v][1] for v in g.vertices} == {0: 0, 1: 0, 2: 1}
    pl = Polyline({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(0), Fr(4))},
                  bends={(1, 2): ((Fr(5), Fr(1)),)})
    assert_same_shape(g, d, reference_straighten(g, reference_rank_levels(g, pl)), pl)


def test_straighten_preserves_level_order():
    g = prism()
    pos = {0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (1, 1), 4: (3, 1), 5: (2, 2)}
    rot, lev = framed(g, {**pos, 6: (-10, -1), 7: (20, -1), 8: (-10, 20)},
                      [(6, 0), (6, 1), (8, 2)])
    d = _straighten(g, rot, lev, ())
    pl = Polyline({v: (Fr(x), Fr(y)) for v, (x, y) in pos.items()})
    assert {v: d.coords[v][1] for v in g.vertices} == {v: y for v, (_, y) in pos.items()}
    assert_same_shape(g, d, reference_straighten(g, reference_rank_levels(g, pl)), pl)


def test_straighten_checks_every_triangle(monkeypatch):
    # every fixed-point proposal is replaced by one that moves vertex 2 out
    # of the frame, left of x = 0, so only the check of the triangles'
    # signs at the stopping precision can catch it
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2)},
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rot, lev = framed(g, {0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2), 4: (-1, -1),
                          5: (9, -1), 6: (-1, 3)}, [(4, 0), (4, 1), (6, 3)])
    assert verify_drawing(g, _straighten(g, rot, lev, ())).ok
    propose = realize._fixed_point_x

    def corrupted_proposal(nbrs, fixed, bits):
        return {**propose(nbrs, fixed, bits), 2: -1 << bits}
    monkeypatch.setattr(realize, "_fixed_point_x", corrupted_proposal)
    with pytest.raises(RealizeError, match=r"straightened triangle \(.*\) is not "
                                           "counter-clockwise"):
        _straighten(g, rot, lev, ())


@pytest.mark.parametrize("level", [-1, 3], ids=["none-below", "none-above"])
def test_straighten_rejects_a_vertex_without_neighbours_above_and_below(level):
    # vertex 0 of the square is moved to the level of B, its lowest
    # neighbour, or of T, above all of them: its level is no average of
    # its neighbours' with positive weights, so Floater's condition fails
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2)},
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    rot, lev = framed(g, {0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2), 4: (-1, -1),
                          5: (9, -1), 6: (-1, 3)}, [(4, 0), (4, 1), (6, 3)])
    with pytest.raises(RealizeError, match=r"^vertex 0 lacks a neighbour above it or one "
                                           r"below it \(Floater's condition\)$"):
        _straighten(g, rot, {**lev, 0: level}, ())


# -- the exact straightening that the fixed-point proposal replaced, kept as a
# reference: the same triangulation and weights, x solved exactly


def reference_exact_straighten(g, rot, lev, designated=()):
    """``_straighten`` with the exact ``_exact_x`` solution as its only
    proposal: x rounded to the coarsest grid 2^-k that no triangle's exact
    determinant forbids, then every triangle's sign checked."""
    B, B2, T = sorted(rot)[-3:]
    nbrs = {v: list(ws) for v, ws in rot.items()}
    tris = [t for walk in PlaneGraph._trace_faces(rot, [(v, w) for v in rot for w in rot[v]])
            if walk[0] != (B, T) for t in realize._fan([v for v, _ in walk], nbrs, lev)]
    weights = {}
    for v in rot:
        if v in (B, B2, T):
            continue
        y, ws = lev[v], nbrs[v]
        s = sum(lev[u] - y for u in ws)
        weights[v] = dict.fromkeys(ws, 1)
        if s:
            k = min((u for u in ws if (lev[u] - y) * s < 0), key=lambda u: abs(lev[u] - y))
            q = math.gcd(lev[k] - y, s)
            weights[v] = dict.fromkeys(ws, abs(lev[k] - y) // q)
            weights[v][k] += abs(s) // q
    fixed = {B: 0, B2: lev[T] - lev[B], T: 0}
    H = {v: homogeneous((x, Fr(lev[v]))) for v, x in _exact_x(weights, fixed).items()}

    def grid(a, b, c):
        det = realize._det(H[a], H[b], H[c])
        r = (max(lev[a], lev[b], lev[c]) - min(lev[a], lev[b], lev[c])) * H[a][2] * H[b][2] * H[c][2]
        k = r.bit_length() - det.bit_length()
        return k + (det << max(k, 0) <= r << max(-k, 0))
    scale = Fr(2) ** max(grid(*t) for t in tris)
    P = {v: (round(Fr(x, w) * scale), lev[v], 1) for v, (x, _, w) in H.items()}
    flipped = next((t for t in tris if realize._det(*(P[v] for v in t)) <= 0), None)
    if flipped is not None:
        raise RealizeError(f"straightened triangle {flipped} is not counter-clockwise")
    return Drawing({v: (P[v][0] / scale, Fr(lev[v])) for v in g.vertices}, designated)


def as_text(d):
    """A drawing serialized, or ``outcome``'s text of the error."""
    return serialize_drawing(d) if isinstance(d, Drawing) else d


def assert_matches_exact(g, rot, lev, designated=()):
    """``_straighten`` gives what the exact reference gives, bit for bit:
    the same drawing or the same error."""
    assert (as_text(outcome(_straighten, g, rot, lev, designated))
            == as_text(outcome(reference_exact_straighten, g, rot, lev, designated)))


@pytest.fixture
def proposals(monkeypatch):
    """The precision of every fixed-point proposal ``_straighten`` makes."""
    calls, propose = [], realize._fixed_point_x

    def spy(nbrs, fixed, bits):
        calls.append(bits)
        return propose(nbrs, fixed, bits)
    monkeypatch.setattr(realize, "_fixed_point_x", spy)
    return calls


@lru_cache(maxsize=None)
def leveled_system(case):
    """The graph and curve of ``split_case(*case)``, and the rotations and
    levels that ``_level_graph`` gives them."""
    g, c = split_case(*case)
    return (g, c, *_level_graph(g, augment_with_curve(g, c)))


# the grids and cubic (100, 1) take one proposal, at 64 bits; the larger
# cubic graphs round to a grid finer than 2^-32, so they take a second one
@pytest.mark.parametrize("case,solves", [
    (("grid", 10), 1), (("grid", 16), 1), (("grid", 20), 1), (("grid", 26), 1),
    (("cubic", 100, 1), 1), (("cubic", 300, 3), 2), (("cubic", 400, 7), 2),
    (("cubic", 800, 1), 2), (("cubic", 800, 2), 2)],
    ids=["grid10", "grid16", "grid20", "grid26", "cubic100-1", "cubic300-3",
         "cubic400-7", "cubic800-1", "cubic800-2"])
def test_straighten_matches_the_exact_reference(case, solves, proposals):
    g, c, rot, lev = leveled_system(case)
    assert_matches_exact(g, rot, lev, c.vertices)
    assert len(proposals) == solves


def test_straighten_doubles_a_low_start_precision(proposals, monkeypatch):
    monkeypatch.setattr(realize, "_FIXED_BITS", 2)
    g, c, rot, lev = leveled_system(("grid", 10))
    assert_matches_exact(g, rot, lev, c.vertices)
    assert len(proposals) > 1 and proposals == [2 << i for i in range(len(proposals))]


def test_straighten_raises_at_the_stopping_precision(monkeypatch):
    # every proposal puts every vertex at x = 0, so every triangle is flat:
    # the bits double up to the first precision past the system's stop,
    # where the proposal is rounded and checked all the same, and raises
    calls, stops = [], set()

    def flat(nbrs, fixed, bits):
        calls.append(bits)
        stops.add(realize._stop_bits(nbrs, fixed))
        return dict.fromkeys([*nbrs, *fixed], 0)
    monkeypatch.setattr(realize, "_fixed_point_x", flat)
    g, c, rot, lev = leveled_system(("grid", 10))
    with pytest.raises(RealizeError, match=r"straightened triangle \(.*\) is not "
                                           "counter-clockwise"):
        _straighten(g, rot, lev, c.vertices)
    (stop,) = stops
    assert calls == [64 << i for i in range(len(calls))]
    assert calls[-1] // 2 < stop <= calls[-1] and len(calls) > 5


def nested_triangles(depth):
    """``depth`` triangles, the i-th (from 0, innermost) with corners
    (-i-1, -i-1), (i+1, -i-1), (0, i+1), each joined to the next by a
    triangulated annulus, and their positions."""
    pos, edges = {}, []
    for i in range(depth):
        r, a = i + 1, 3 * i
        pos.update({a: (Fr(-r), Fr(-r)), a + 1: (Fr(r), Fr(-r)), a + 2: (Fr(0), Fr(r))})
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
        if i:
            edges += [e for j in range(3)
                      for e in ((a - 3 + j, a + j), (a - 3 + j, a + (j + 2) % 3))]
    return graph_from_positions(pos, edges), pos


def test_straighten_past_1024_bits_matches_the_exact_reference(proposals):
    # nested triangles of depth 200 read back along x = 1/7: the proposals
    # at up to 1024 bits fail, which sent this input to an exact solve as
    # the last resort; the 2048-bit one is certified and draws what the
    # exact solution draws, bit for bit
    g, pos = nested_triangles(200)
    c = curve_from_drawing(g, pos, (Fr(7), Fr(0), Fr(1)))
    d = curve_to_drawing(g, c)
    assert verify_drawing(g, d).ok
    assert proposals == [64, 128, 256, 512, 1024, 2048]
    rot, lev = _level_graph(g, realize._proper_augment(g, c))
    assert serialize_drawing(d) == serialize_drawing(
        reference_exact_straighten(g, rot, lev, c.vertices))


@pytest.mark.parametrize("case", [("grid", 10), ("cubic", 100, 1)], ids=["grid10", "cubic100-1"])
def test_stop_bits_leave_room_for_the_exact_grid(case):
    # the stop is at least 2L, 2^L the Hadamard bound on det A: every exact
    # x is a multiple of 1/det A, and the exact drawing's grid 2^-k meets
    # the guard 2k <= bits at the stop
    g, c, rot, lev = leveled_system(case)
    [(nbrs, fixed)] = captured_systems(_straighten, g, rot, lev, c.vertices)
    fixed = {v: int(x) for v, (x, _) in fixed.items()}
    stop = realize._stop_bits(nbrs, fixed)
    xs = _exact_x(nbrs, fixed).values()
    d = reference_exact_straighten(g, rot, lev, c.vertices)
    assert 2 * max(x.denominator for x in xs).bit_length() <= stop
    assert 2 * max(x.denominator for x, _ in d.coords.values()).bit_length() <= stop


# -- the LP straightening that the exact system replaced, kept as a reference -------


def reference_polyline_x_at(poly, y0):
    for (a, b) in zip(poly, poly[1:]):
        lo, hi = (a, b) if a[1] <= b[1] else (b, a)
        if lo[1] <= y0 <= hi[1]:
            if lo[1] == hi[1]:
                continue
            t = (y0 - lo[1]) / (hi[1] - lo[1])
            return lo[0] + t * (hi[0] - lo[0])
    raise RealizeError("polyline does not span the level")


def reference_rank_levels(g, pl):
    """Vertex levels mapped onto 0, 1, 2, ... (0 stays 0), every edge
    re-sampled at every vertex level it passes."""
    ys = sorted({y for (_, y) in pl.coords.values()})
    shift = ys.index(Fr(0)) if Fr(0) in ys else 0
    rank = {y: Fr(i - shift) for i, y in enumerate(ys)}
    coords = {v: (x, rank[y]) for v, (x, y) in pl.coords.items()}
    bends = {}
    for (u, v) in g.edges:
        yu, yv = pl.coords[u][1], pl.coords[v][1]
        lo, hi = min(yu, yv), max(yu, yv)
        inner = [y for y in ys if lo < y < hi]
        if not inner:
            continue
        poly = pl.polyline(u, v)
        pts = tuple((reference_polyline_x_at(poly, y), rank[y]) for y in inner)
        bends[(u, v)] = pts if yu < yv else pts[::-1]
    return Polyline(coords, bends)


def reference_straighten(g, pl, designated=()):
    """Per-level scan of every vertex and edge, dense LP matrix."""
    from scipy.optimize import linprog
    import numpy as np

    coords = {v: (Fr(x), Fr(y)) for v, (x, y) in pl.coords.items()}
    for v in g.vertices:
        if v not in coords:
            raise RealizeError(f"no position for vertex {v}")
    edges = sorted(g.edges)
    for (u, v) in edges:
        poly = pl.polyline(u, v)
        ys = [p[1] for p in poly]
        if len(poly) > 2 or ys[0] != ys[-1]:
            for a, b in zip(ys, ys[1:]):
                if not ((ys[0] < ys[-1] and a < b) or (ys[0] > ys[-1] and a > b)):
                    raise RealizeError(f"edge {(u, v)} is not y-monotone")
    verts = sorted(coords)
    var = {v: i for i, v in enumerate(verts)}
    levels = sorted({coords[v][1] for v in verts})
    constraints = []
    for y0 in levels:
        items = [(coords[v][0], ('v', v)) for v in verts if coords[v][1] == y0]
        for (u, v) in edges:
            ya, yb = coords[u][1], coords[v][1]
            if min(ya, yb) < y0 < max(ya, yb):
                items.append((reference_polyline_x_at(pl.polyline(u, v), y0),
                              ('e', (u, v))))
        items.sort(key=lambda t: t[0])
        for (xa, a), (xb, b) in zip(items, items[1:]):
            if xa == xb:
                raise RealizeError(f"items {a} and {b} coincide at level y = {y0}")

        def expr(item):
            if item[0] == 'v':
                return {var[item[1]]: Fr(1)}
            u, v = item[1]
            t = (y0 - coords[u][1]) / (coords[v][1] - coords[u][1])
            return {var[u]: 1 - t, var[v]: t}

        for (_, a), (_, b) in zip(items, items[1:]):
            lhs = {}
            for k, c in expr(b).items():
                lhs[k] = lhs.get(k, Fr(0)) + c
            for k, c in expr(a).items():
                lhs[k] = lhs.get(k, Fr(0)) - c
            constraints.append(lhs)
    if constraints:
        A = np.zeros((len(constraints), len(verts)))
        for i, lhs in enumerate(constraints):
            for k, c in lhs.items():
                A[i, k] = -float(c)
        res = linprog(np.zeros(len(verts)), A_ub=A, b_ub=-np.ones(len(constraints)),
                      bounds=[(None, None)] * len(verts), method="highs")
        if not res.success:
            raise RealizeError(f"straightening LP infeasible: {res.message}")
        xs = [Fr(*float(x).as_integer_ratio()) for x in res.x]
        for lhs in constraints:
            if not sum(c * xs[k] for k, c in lhs.items()) > 0:
                raise RealizeError("straightening solution violates a level order")
    else:
        xs = [coords[v][0] for v in verts]
    return Drawing({v: (xs[var[v]], coords[v][1]) for v in verts if v in set(g.vertices)},
                   designated)


def reference_ranked_straighten(g, pl, designated=()):
    """The reference straightening of ``pl`` with its levels ranked onto
    consecutive integers (0 stays 0), as the LP straightening ranked them."""
    return reference_straighten(g, reference_rank_levels(g, pl), designated)


def outcome(fn, *args):
    try:
        return fn(*args)
    except RealizeError as exc:
        return f"RealizeError: {exc}"


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def outer_drawing(g):
    """A verified drawing of g from ``curve_to_drawing``: the curve of one
    outer vertex."""
    return curve_to_drawing(g, GoodCurve((Vst(g.outer_walk()[0]),)))


def line_through_vertices(d, a, b):
    """(A, B, C) of the line Ax + By = C through vertices a and b of d."""
    (xa, ya), (xb, yb) = d.coords[a], d.coords[b]
    return (yb - ya, xa - xb, (yb - ya) * xa + (xa - xb) * ya)


def split_curve(g, c):
    """The curve the Theorem-1 route splits g along: (f_outer, v, f_outer)
    for a lone hop through the outer face (v the first vertex of the outer
    walk) or for a curve of one outer vertex v, else c itself."""
    if len(c.stations) == 1 and c.stations[0] in (Fst(g.outer), *map(Vst, g.outer_walk())):
        v = c.vertices[0] if c.vertices else g.outer_walk()[0]
        return GoodCurve((Fst(g.outer), Vst(v), Fst(g.outer)))
    return c


def reference_theorem1(g, c):
    """``curve_to_drawing`` on a graph that is not a 3-tree as it was drawn
    before its levels came from st-orderings: the LP straightening of the
    reference split drawing's ranked levels; a lone hop through the outer
    face gets that drawing lifted above the axis and no designated vertex."""
    pl = reference_split_drawing(g, augment_with_curve(g, split_curve(g, c)))
    d = reference_ranked_straighten(g, pl, c.vertices)
    if c.vertices:
        return d
    lift = 1 - min(y for _, y in d.coords.values())
    return Drawing({v: (x, y + lift) for v, (x, y) in d.coords.items()})


@st.composite
def theorem1_inputs(draw):
    """Graphs that are not 3-trees with proper good curves: cubic graphs
    (n <= 40) with their Theorem 4 curve, grids (sides 6-8) with the snake
    curve, and read-backs from the drawing of either: of a line through two
    vertices, of a horizontal line tangent to the drawing at its lowest or
    highest level, or of a line that misses the drawing (a lone hop)."""
    kind = draw(st.sampled_from(["cubic", "snake", "line", "tangent", "miss"]))
    if kind == "cubic" or (kind != "snake" and draw(st.booleans())):
        n = draw(st.integers(3, 20)) * 2
        g = generate_triconnected_cubic(draw(st.integers(0, 10 ** 6)), n)
        c = theorem4(g).curve
    else:
        g, c = theorem5_curve(*identity_grid_model(draw(st.integers(6, 8))))
    if kind in ("cubic", "snake"):
        return g, c
    d = curve_to_drawing(g, c)
    ys = sorted({y for _, y in d.coords.values()})
    if kind == "line":
        a, b = draw(st.lists(st.sampled_from(sorted(g.vertices)), min_size=2,
                             max_size=2, unique=True))
        line = line_through_vertices(d, a, b)
    elif kind == "tangent":
        line = (Fr(0), Fr(1), draw(st.sampled_from([ys[0], ys[-1]])))
    else:
        line = (Fr(0), Fr(1), ys[-1] + 1)
    c = curve_from_drawing(g, d.coords, line)
    assume(validate_curve(g, c).proper)
    return g, c


def assert_same_sides(g, d, ref):
    """Both outcomes are drawings that verify, designate the same vertices
    and put every vertex on the same side of y = 0 (the same sign of y), so
    the same vertices on it.  Edges may point another way: the levels of an
    st-ordering are not the ranks of the split drawing's levels."""
    assert isinstance(d, Drawing) and isinstance(ref, Drawing), (d, ref)
    assert verify_drawing(g, d).ok and verify_drawing(g, ref).ok
    assert d.designated == ref.designated

    def sides(dr):
        return {v: (y > 0) - (y < 0) for v, (_, y) in dr.coords.items()}
    assert sides(d) == sides(ref)


@settings(max_examples=40, deadline=None)
@given(theorem1_inputs())
def test_theorem1_straightening_matches_reference(case):
    # the pipeline against the LP straightening of the reference split
    # drawing, where that splits (it raises on a face that repeats a
    # vertex); and the straightening of the levels against the exact
    # reference
    g, c = case
    d = curve_to_drawing(g, c)
    ref = outcome(reference_theorem1, g, c)
    if isinstance(ref, Drawing):
        assert_same_sides(g, d, ref)
    else:
        assert verify_drawing(g, d).ok and d.designated == c.vertices
    rot, lev = _level_graph(g, augment_with_curve(g, split_curve(g, c)))
    assert_matches_exact(g, rot, lev, c.vertices)


def test_theorem1_drawings_pinned():
    # sha256 of the serialized drawings on the levels of st-orderings; each
    # drawing verifies (test_theorem1_straightening_matches_reference
    # compares their sides with the LP straightening)
    def grid(side):
        g, m = identity_grid_model(side)
        return theorem5_curve(g, m)

    def cubic(seed, n):
        g = generate_triconnected_cubic(seed, n)
        return g, theorem4(g).curve

    cases = [
        (grid(10), "994ad4193e33e1ad8f7bcf7b1216e5b13d1721bbd4149a76324be7dcd474bf5b"),
        (grid(16), "43d50859cba5fc00af786fa8d9899e2b52994209c8e49c8523b4e493ddc1913a"),
        (cubic(1, 100), "a9a9473fa6f6f9f052a475ab9a05d0eb7994836eb9e74b592e23e33054a47010"),
        (cubic(200, 200), "b1afb89a3c99f6b27d845b32d8ecf020b120795910f7aa0230b2dec0881ecec8"),
    ]
    for (g, c), digest in cases:
        text = serialize_drawing(curve_to_drawing(g, c))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- realizing curves ----------------------------------------------------------------


def test_curve_to_drawing_k4():
    d = curve_to_drawing(K4, k4_cross_curve())
    assert d.designated == (3,)
    assert d.coords[3][1] == 0
    assert verify_drawing(K4, d).ok


def test_curve_to_drawing_single_vertex():
    d = curve_to_drawing(K4, GoodCurve((Vst(0),)))
    assert d.coords[0][1] == 0
    assert verify_drawing(K4, d).ok


def _labels_text(g, c):
    """The labeling of c as text, or the class and message of its error."""
    try:
        lab = labeling_from_curve(g, c)
    except (CurveError, RealizeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((sorted(lab.labels.items()), lab.order, sorted(lab.targets.items())))


@pytest.mark.parametrize("make,drawings,labels", [
    (lambda: random_plane_3tree(30, 2),
     "f3a33c2f3f333752b785307f9352a17ea7d9d6e5620cfbb738b69e7867095a81",
     "5ca75014c71ecfeba4c3923d10e465c5a2e6dac20af5be270da51bc0132e36a6"),
    (lambda: generate_triconnected_cubic(1, 12),
     "050062e740d213c650cd608c2d4e12b074a9310ce1d9d7ecbafb92431943d022",
     "1054282a5c349ce3f234869d558d5198fa899113674c8385e57efd94b0d1d713"),
    (lambda: identity_grid_model(6)[0],
     "36bfc5ed64cb4e7ab5985afbb8d7fb9cdb6970aea83c1d168e456cb3ba5f96ea",
     "65deb0901fcadfac90da8752b55f54b86fd7f9b4a1eb992d1d57f19169dc0627"),
], ids=["3tree", "cubic", "grid"])
def test_one_station_curves_pinned(make, drawings, labels):
    # sha256 over the curves (v), v along the outer walk, then the lone hop
    # (f_outer): of their serialized drawings and of their labelings.  The
    # lone hop is labelled as curve_to_drawing draws it, every vertex up
    # with nothing on the line; its labeling used to raise the engine's
    # "single-hop curves have no attachment"
    g = make()
    curves = [GoodCurve((Vst(v),)) for v in g.outer_walk()] + [GoodCurve((Fst(g.outer),))]
    d_hash, l_hash = hashlib.sha256(), hashlib.sha256()
    for c in curves:
        d_hash.update(serialize_drawing(curve_to_drawing(g, c)).encode())
        l_hash.update(_labels_text(g, c).encode())
    assert (d_hash.hexdigest(), l_hash.hexdigest()) == (drawings, labels)


def test_curve_to_drawing_contained_edge():
    d = curve_to_drawing(K4, GoodCurve((Vst(0), Vst(1))))
    assert d.coords[0][1] == 0 == d.coords[1][1]
    assert verify_drawing(K4, d).ok


def test_curve_to_drawing_bundle_100():
    g = random_plane_3tree(100, seed=5)
    c = build_curve_bundle(decompose(g)).best
    d = curve_to_drawing(g, c)
    assert len(d.designated) >= 13
    assert all(d.coords[v][1] == 0 for v in d.designated)
    assert verify_drawing(g, d).ok


def test_curve_to_drawing_prism():
    g = prism()
    c = GoodCurve((Vst(2), Fst(face_with(g, {1, 2, 5, 4})), Xst(4, 5),
                   Fst(face_with(g, {3, 4, 5})), Xst(3, 4),
                   Fst(face_with(g, {0, 1, 4, 3})), Xst(0, 1)))
    assert validate_curve(g, c).proper
    d = curve_to_drawing(g, c)
    assert d.designated == (2,) and d.coords[2][1] == 0
    assert verify_drawing(g, d).ok


def test_curve_to_drawing_cube_two_collinear():
    g = cube()
    c = GoodCurve((Vst(0), Fst(face_with(g, {0, 1, 5, 4})), Xst(4, 5),
                   Fst(face_with(g, {4, 5, 6, 7})), Xst(5, 6),
                   Fst(face_with(g, {1, 2, 6, 5})), Vst(2)))
    d = curve_to_drawing(g, c)
    assert d.coords[0][1] == 0 == d.coords[2][1]
    assert verify_drawing(g, d).ok


@pytest.mark.parametrize("make,curve", [
    ("cube", None),
    ("threetree", None),
])
def test_roundtrip_line_recovers_at_least_the_stations(make, curve):
    if make == "cube":
        g = cube()
        c = GoodCurve((Vst(0), Fst(face_with(g, {0, 1, 5, 4})), Xst(4, 5),
                       Fst(face_with(g, {4, 5, 6, 7})), Xst(5, 6),
                       Fst(face_with(g, {1, 2, 6, 5})), Vst(2)))
    else:
        g = random_plane_3tree(60, seed=2)
        c = build_curve_bundle(decompose(g)).best
    want = sum(1 for s in c.stations if s[0] == 'v')
    d = curve_to_drawing(g, c)
    back = curve_from_drawing(g, d.coords, (Fr(0), Fr(1), Fr(0)))
    got = sum(1 for s in back.stations if s[0] == 'v')
    assert got >= want
    assert validate_curve(g, back).good


# -- the two sides of a curve ----------------------------------------------------------


def _outer_corner(g, v):
    """(w_in, w_out) with the darts (w_in, v), (v, w_out) consecutive on the
    outer walk: the angular gap of v that faces the unbounded region."""
    walk = g.faces[g.outer]
    for i, (x, y) in enumerate(walk):
        if y == v:
            return x, walk[(i + 1) % len(walk)][1]
    raise RealizeError(f"vertex {v} is not on the outer face")


def reference_curve_sides(aug):
    """The side code that ``curve_sides`` replaced: seeds from the rotation
    system, a flood fill, and the orientation decided by whether the outer
    walk of each side's subgraph runs along the path backwards."""
    g, path = aug.graph, aug.path_vertices
    on_path = set(path)
    side_a, side_b = set(), set()   # side A: clockwise from successor to predecessor
    for i, v in enumerate(path):
        rot = g.rot[v]
        nxt = path[i + 1] if i + 1 < len(path) else None
        prv = path[i - 1] if i > 0 else None
        if nxt is None and prv is None:
            continue
        if nxt is not None and prv is not None:
            side_a.update(_arc_cw(rot, nxt, prv))
            side_b.update(_arc_cw(rot, prv, nxt))
            continue
        if len(rot) == 1:
            continue
        w_out = _outer_corner(g, v)[1]
        if nxt is not None:
            arc = _arc_cw(rot, nxt, w_out)
            side_a.update(arc)
            side_b.update(x for x in rot if x not in arc and x != nxt and x not in on_path)
        else:
            arc = _arc_cw(rot, prv, w_out)
            side_b.update(arc)
            side_a.update(x for x in rot if x not in arc and x != prv and x not in on_path)
    side_a -= on_path
    side_b -= on_path
    assert not side_a & side_b
    label = {**dict.fromkeys(side_a, 0), **dict.fromkeys(side_b, 1)}
    stack = list(label)
    while stack:
        v = stack.pop()
        for u in g.rot[v]:
            if u not in on_path and u not in label:
                label[u] = label[v]
                stack.append(u)
            assert u in on_path or label[u] == label[v]
    a = {v for v, k in label.items() if k == 0} | (set(g.vertices) - on_path - set(label))
    b = {v for v, k in label.items() if k == 1}
    if len(path) < 2 or (not a and not b):
        return a | b, set()

    def backwards(sub):
        darts = set(sub.faces[sub.outer])
        fwd = sum((p, q) in darts and (q, p) not in darts for p, q in zip(path, path[1:]))
        bwd = sum((q, p) in darts and (p, q) not in darts for p, q in zip(path, path[1:]))
        return None if bool(fwd) == bool(bwd) else bool(bwd)

    ori = backwards(g.subgraph(on_path | a))
    if ori is None:
        ori_b = backwards(g.subgraph(on_path | b))
        if ori_b is None:
            return a, b
        ori = not ori_b
    return (a, b) if ori else (b, a)


def _outer_edge_curve(g):
    """Along the first outer edge, from the outer face back into it: a proper
    good curve with nothing on one side."""
    a, b = g.faces[g.outer][0]
    return GoodCurve((Fst(g.outer), Vst(a), Vst(b), Fst(g.outer)))


@st.composite
def side_cases(draw):
    """Proper curves of every family the pipeline meets: bundle, DP, oracle
    witness, Theorem 4, line read-back and grid snake curves, single-vertex
    curves and curves along an outer edge; any of them reversed."""
    kind = draw(st.sampled_from(["bundle", "dp", "oracle", "theorem4", "readback",
                                 "snake", "single", "outer_edge"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "theorem4":
        g = generate_triconnected_cubic(seed, 2 * draw(st.integers(2, 20)))
        c = theorem4(g).curve
    elif kind == "snake":
        g, c = theorem5_curve(*identity_grid_model(draw(st.integers(6, 8))))
    elif kind == "oracle":
        g = random_plane_3tree(draw(st.integers(4, 7)), seed)
        c = enumerate_curves(g).witness
    else:
        family = draw(st.sampled_from(["3tree", "cubic", "grid"]))
        if family == "3tree":
            g = random_plane_3tree(draw(st.integers(4, 50)), seed)
        elif family == "cubic":
            g = generate_triconnected_cubic(seed, 2 * draw(st.integers(2, 15)))
        else:
            g, _ = identity_grid_model(draw(st.integers(3, 6)))
        if kind in ("bundle", "dp"):
            assume(family == "3tree")
            d = decompose(g)
            c = (draw(st.sampled_from(build_curve_bundle(d).curves)) if kind == "bundle"
                 else dp_optimal_collinear(d)[1])
        elif kind == "single":
            c = GoodCurve((Vst(draw(st.sampled_from(g.outer_walk()))),))
        elif kind == "outer_edge":
            c = _outer_edge_curve(g)
        else:
            d = outer_drawing(g)
            a, b = draw(st.lists(st.sampled_from(sorted(g.vertices)), min_size=2,
                                 max_size=2, unique=True))
            c = curve_from_drawing(g, d.coords, line_through_vertices(d, a, b))
    if draw(st.booleans()):
        c = c.reversed()
    rep = validate_curve(g, c)
    assume(rep.good and rep.proper and len(c.stations) > 1)
    return g, c


@settings(max_examples=200, deadline=None)
@given(side_cases())
def test_curve_sides_match_reference(case):
    aug = augment_with_curve(*case)
    assert curve_sides(aug) == reference_curve_sides(aug)


def test_curve_sides_builds_no_graph(monkeypatch):
    cases = [(K4, k4_cross_curve()), (K4, _outer_edge_curve(K4)),
             (cube(), _outer_edge_curve(cube()).reversed())]
    augs = [augment_with_curve(g, c) for g, c in cases]
    want = [reference_curve_sides(aug) for aug in augs]

    def build(*args, **kwargs):
        raise AssertionError("curve_sides built a PlaneGraph")
    monkeypatch.setattr(PlaneGraph, "__init__", build)
    assert [curve_sides(aug) for aug in augs] == want


def test_curve_sides_rejects_a_one_vertex_path():
    # a proper curve of one outer vertex has no sides; the labeling embeds
    # it as (f_outer, v, f_outer) instead
    aug = augment_with_curve(K4, GoodCurve((Vst(0),)))
    assert aug.proper and aug.path_vertices == [0]
    with pytest.raises(RealizeError, match="two path vertices at least"):
        curve_sides(aug)


def _non_biconnected_graphs():
    """Small drawn graphs with cut vertices, each with its positions: a
    path, a star, a bowtie, a square with a tail, and a hexagon with a spoke
    to an inner vertex and a pendant outside."""
    cases = [({0: (0, 0), 1: (2, 1), 2: (4, 0)}, [(0, 1), (1, 2)]),
             ({0: (0, 0), 1: (3, 0), 2: (1, 3), 3: (-2, 1), 4: (-1, -3)},
              [(0, 1), (0, 2), (0, 3), (0, 4)]),
             ({0: (0, 0), 1: (-3, 1), 2: (-3, -2), 3: (3, 2), 4: (3, -1)},
              [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
             ({0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4), 4: (6, 7)},
              [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)]),
             ({0: (4, 0), 1: (2, 3), 2: (-2, 3), 3: (-4, 0), 4: (-2, -3), 5: (2, -3),
               6: (1, 0), 7: (7, 1)},
              [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (0, 7)])]
    for pos, edges in cases:
        pos = {v: (Fr(x), Fr(y)) for v, (x, y) in pos.items()}
        yield graph_from_positions(pos, edges), pos


def _read_back_lines(pos, rng):
    """The horizontal, vertical and both diagonal lines through every
    vertex, ten lines through two random vertices, and a line below the
    drawing."""
    lines = [(Fr(a), Fr(b), a * x + b * y) for _, (x, y) in sorted(pos.items())
             for a, b in ((0, 1), (1, 0), (1, 1), (1, -1))]
    vs = sorted(pos)
    lines += [line_through_vertices(Drawing(pos), *rng.sample(vs, 2)) for _ in range(10)]
    return lines + [(Fr(0), Fr(1), min(y for _, y in pos.values()) - 1)]


def _vertex_curves(g):
    """(v), (v, f_outer), (f_outer, v) for every vertex v; (v, w) for every
    edge; (v, f, w) and (f_outer, v, f, w, f_outer) for every face f at two
    vertices v != w."""
    o = Fst(g.outer)
    for v in g.vertices:
        yield from (GoodCurve((Vst(v),)), GoodCurve((Vst(v), o)), GoodCurve((o, Vst(v))))
        for w in g.vertices:
            if w != v:
                if g.has_edge(v, w):
                    yield GoodCurve((Vst(v), Vst(w)))
                for f in sorted(set(g.faces_at(v)) & set(g.faces_at(w))):
                    yield GoodCurve((Vst(v), Fst(f), Vst(w)))
                    yield GoodCurve((o, Vst(v), Fst(f), Vst(w), o))


def test_every_proper_curve_realizes():
    # every curve that validate_curve calls good and proper is realized by a
    # drawing the verifier accepts, with exactly the curve's vertex stations
    # designated: line read-backs (tangent lines, lines through cut vertices
    # and bridges, a line that misses) and short vertex-ended curves on
    # cubic graphs, a grid, graphs with cut vertices, and small 3-trees
    rng = __import__("random").Random(7)
    drawn = []
    for seed, n in ((1, 12), (2, 14), (3, 20), (4, 24), (5, 30)):
        g = generate_triconnected_cubic(seed, n)
        drawn.append((g, curve_to_drawing(g, theorem4(g).curve).coords))
    g, c = theorem5_curve(*identity_grid_model(6))
    drawn.append((g, curve_to_drawing(g, c).coords))
    drawn += list(_non_biconnected_graphs())
    cases = []
    for g, pos in drawn:
        backs = {curve_from_drawing(g, pos, line) for line in _read_back_lines(pos, rng)}
        cases += [("read-back", g, c) for c in backs]
        cases += [("vertex", g, c) for c in set(_vertex_curves(g))]
    for n, seed in ((6, 1), (8, 2), (10, 3), (12, 4)):
        g = random_plane_3tree(n, seed)
        cases += [("3-tree", g, c) for c in set(_vertex_curves(g))]
    realized = Counter()
    for kind, g, c in cases:
        try:
            rep = validate_curve(g, c)
        except CurveError:
            continue                     # not well formed: a face at one vertex
        if rep.good and rep.proper:
            d = curve_to_drawing(g, c)
            assert verify_drawing(g, d).ok, (kind, c)
            assert d.designated == c.vertices, (kind, c)
            realized[kind] += 1
    assert realized == {"read-back": 498, "vertex": 445, "3-tree": 60}


def test_lone_hop_realizes_on_both_routes():
    # a line that misses a drawing reads back as a lone hop through the
    # outer face: realized with every vertex above the axis and nothing
    # designated, so that the axis reads back as the same hop
    for g in (random_plane_3tree(12, 4), next(_non_biconnected_graphs())[0],
              generate_triconnected_cubic(1, 12)):
        c = GoodCurve((Fst(g.outer),))
        assert validate_curve(g, c).proper
        d = curve_to_drawing(g, c)
        assert d.designated == () and min(y for _, y in d.coords.values()) == 1
        assert verify_drawing(g, d).ok
        assert curve_from_drawing(g, d.coords, (Fr(0), Fr(1), Fr(0))) == c
        lab = labeling_from_curve(g, c)
        assert set(lab.labels.values()) == {"up"} and lab.order == () and lab.targets == {}
    inner = GoodCurve((Fst(g.internal_faces()[0]),))     # g: the cubic graph
    assert not validate_curve(g, inner).proper
    for realize_or_label in (curve_to_drawing, labeling_from_curve):
        with pytest.raises(RealizeError, match="curve is not proper"):
            realize_or_label(g, inner)


@pytest.mark.parametrize("side,a,b", [(4, 0, 1), (8, 60, 61)])
def test_curve_along_an_outer_edge_realizes(side, a, b):
    # the line through two adjacent outer vertices of a drawing with
    # everything else on one side of it reads back as a curve along an
    # outer edge, with nothing on one side of it; the empty side gets no
    # drawing of its own, and the apex of the other side closes the face
    # bounded by the path alone
    g, _ = identity_grid_model(side)
    c = _line_curve(g, a, b)
    assert validate_curve(g, c).proper and set(c.vertices) == {a, b}
    sides = curve_sides(augment_with_curve(g, c))
    assert sorted(map(len, sides)) == [0, g.n - 2]
    out = curve_to_drawing(g, c)
    assert out.designated == c.vertices
    assert out.coords[a][1] == out.coords[b][1] == 0
    assert verify_drawing(g, out).ok


# -- the split drawing ------------------------------------------------------------------


def reference_solve_barycentric(rows, rhs):
    """Sparse Gaussian elimination in ``Fraction``s with min-degree pivots
    found by a scan of every remaining row (``realize._barycentric`` before
    it solved in integers).  ``rows[v]`` maps unknowns to coefficients and
    ``rhs[v]`` is the pair of right-hand sides; both are consumed."""
    occurs = {v: set() for v in rows}
    for r, row in rows.items():
        for v in row:
            occurs[v].add(r)
    order = []
    remaining = set(rows)
    while remaining:
        p = min(remaining, key=lambda v: (len(rows[v]), v))
        prow, prhs = rows[p], rhs[p]
        piv = prow.get(p, Fr(0))
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
                nv = row.get(v, Fr(0)) - factor * c
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
    sol = {}
    for p, prow, prhs in reversed(order):
        acc = [prhs[0], prhs[1]]
        for v, c in prow.items():
            if v == p:
                continue
            acc[0] -= c * sol[v][0]
            acc[1] -= c * sol[v][1]
        piv = prow[p]
        sol[p] = (acc[0] / piv, acc[1] / piv)
    return sol


def reference_barycentric(nbrs, fixed):
    """``realize._barycentric`` on the reference solver: the same rows, from
    the integer weights ``nbrs[v][u]``, in ``Fraction``s."""
    rows, rhs = {}, {}
    for v, ws in nbrs.items():
        if v in fixed:
            continue
        row, b = {v: Fr(sum(ws.values()))}, [Fr(0), Fr(0)]
        for u, w in ws.items():
            if u in fixed:
                b[0] += w * fixed[u][0]
                b[1] += w * fixed[u][1]
            else:
                row[u] = Fr(-w)
        rows[v], rhs[v] = row, b
    return {**fixed, **reference_solve_barycentric(rows, rhs)}


def captured_systems(fn, *args):
    """The systems of every ``_fixed_point_x`` call that ``fn(*args)``
    makes, copied before the solve: (nbrs, fixed), the fixed x at y = 0."""
    calls, real = [], realize._fixed_point_x

    def capture(nbrs, fixed, bits):
        calls.append(({v: dict(ws) for v, ws in nbrs.items()},
                      {v: (Fr(x), Fr(0)) for v, x in fixed.items()}))
        return real(nbrs, fixed, bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "_fixed_point_x", capture)
        fn(*args)
    return calls


@st.composite
def convex_polygon_inputs(draw):
    """A random plane 3-tree or cubic graph and a random clockwise convex
    polygon for its outer walk: points on the parabola y = x^2 by
    decreasing x, then sheared and shifted."""
    if draw(st.booleans()):
        g = random_plane_3tree(draw(st.integers(4, 60)), draw(st.integers(0, 10 ** 6)))
    else:
        g = generate_triconnected_cubic(draw(st.integers(0, 10 ** 6)),
                                        draw(st.integers(2, 20)) * 2)
    walk = g.outer_walk()
    xs = sorted(draw(st.lists(small_fracs, min_size=len(walk), max_size=len(walk),
                              unique=True)), reverse=True)
    sh, dx, dy = draw(small_fracs), draw(small_fracs), draw(small_fracs)
    return g, {v: (x + sh * x * x + dx, x * x + dy) for v, x in zip(walk, xs)}


@settings(max_examples=40, deadline=None)
@given(st.one_of(theorem1_inputs().map(lambda case: ("straighten", case)),
                 convex_polygon_inputs().map(lambda case: ("tutte", case))))
def test_barycentric_matches_reference(case):
    # the systems the straightening proposes x for, and Tutte's systems of
    # a convex outer polygon, each column solved exactly by _exact_x
    kind, (g, arg) = case
    if kind == "straighten":
        systems = captured_systems(curve_to_drawing, g, arg)
    else:
        systems = [(unit_weights(g.rot), arg)]
    assert systems
    for nbrs, fixed in systems:
        assert exact_solve(nbrs, fixed) == reference_barycentric(nbrs, fixed)


def fixed_point_solve(nbrs, fixed):
    """``realize._fixed_point_x`` at 64 bits on the x column of ``fixed``."""
    return realize._fixed_point_x(nbrs, {v: int(x) for v, (x, _) in fixed.items()}, 64)


@pytest.mark.parametrize("solve", [exact_solve, reference_barycentric,
                                   fixed_point_solve],
                         ids=["integer", "reference", "fixed-point"])
@pytest.mark.parametrize("nbrs", [{0: {1: 1}, 1: {0: 1}}, {0: {}}],
                         ids=["pair-only-adjacent", "no-neighbours"])
def test_barycentric_rejects_a_singular_system(solve, nbrs):
    fixed = {5: (Fr(0), Fr(0))}
    with pytest.raises(RealizeError, match="^singular barycentric system$"):
        solve(nbrs, fixed)


def reference_tutte_convex(g, polygon):
    """``tutte_convex`` with its own row loop, before it shared one with the
    split drawing."""
    walk = g.outer_walk()
    boundary = set(walk)
    for v in walk:
        if v not in polygon:
            raise RealizeError(f"no polygon position for outer vertex {v}")
    pos = {v: (Fr(polygon[v][0]), Fr(polygon[v][1])) for v in walk}
    k = len(walk)
    if k < 3 or len(boundary) != k:
        raise RealizeError("outer walk is not a simple cycle")
    signs = {orient(pos[walk[i]], pos[walk[(i + 1) % k]], pos[walk[(i + 2) % k]])
             for i in range(k)}
    if signs - {0, -1} or -1 not in signs:
        raise RealizeError("polygon positions are not convex and clockwise")
    rows, rhs = {}, {}
    for v in g.vertices:
        if v in boundary:
            continue
        row, b = {v: Fr(g.degree(v))}, [Fr(0), Fr(0)]
        for u in g.rot[v]:
            if u in boundary:
                b[0] += pos[u][0]
                b[1] += pos[u][1]
            else:
                row[u] = row.get(u, Fr(0)) - 1
        rows[v], rhs[v] = row, b
    coords = dict(pos)
    if rows:
        coords.update(reference_solve_barycentric(rows, rhs))
    return coords


def _insert_before(rot, anchor, new):
    rot.insert(rot.index(anchor), new)


def reference_split_drawing(g, aug):
    """The split drawing before it became one system: for each non-empty
    side, the subgraph on the path and that side, an apex in the outer
    corners of the path ends, a hub in every non-triangular internal face,
    and a Tutte system of its own with the path and the apex fixed."""
    path = aug.path_vertices
    on_path, L = set(path), len(path)
    coords = {v: (Fr(i + 1), Fr(0)) for i, v in enumerate(path)}
    for side, y in zip(curve_sides(aug), (L + 1, -L - 1)):
        if not side:
            continue
        sub = aug.graph.subgraph(on_path | side)
        apex = max(sub.vertices) + 1
        rot = {v: list(sub.rot[v]) for v in sub.vertices}
        walk = sub.faces[sub.outer]
        for end in {path[0], path[-1]}:
            i = next(i for i, (_, w) in enumerate(walk) if w == end)
            _insert_before(rot[end], walk[(i + 1) % len(walk)][1], apex)
        rot[apex] = [path[0], path[-1]]
        g2 = PlaneGraph(rot, outer_face=0)
        outer = [f for f in map(g2.face_of_dart, ((apex, w) for w in rot[apex]))
                 if len(g2.faces[f]) == L + 1 and on_path <= set(g2.face_vertices(f))]
        if not outer:
            raise RealizeError("no face beside the apex is bounded by the path alone")
        g2 = g2.with_outer(outer[0])
        rot = {v: list(g2.rot[v]) for v in g2.vertices}
        hub = apex + 1
        for i in g2.internal_faces():
            vs = g2.face_vertices(i)
            if len(vs) <= 3:
                continue
            if len(set(vs)) != len(vs):
                raise RealizeError(f"internal face {vs} repeats a vertex")
            rot[hub] = list(reversed(vs))
            for x, w in g2.faces[i]:
                _insert_before(rot[x], w, hub)
            hub += 1
        g3 = PlaneGraph(rot, outer_walk=g2.outer_walk())
        polygon = {**{v: coords[v] for v in path}, apex: (Fr(1 + L) / 2, Fr(y))}
        drawn = reference_tutte_convex(g3, polygon)
        coords.update((v, drawn[v]) for v in side)
    return Polyline({v: coords[v] for v in g.vertices},
                           {e: (coords[w],) for e, w in aug.subdivision.items()})


def split_outcome(split, g, aug):
    try:
        return split(g, aug)
    except RealizeError:
        return "raises"


def _line_curve(g, a, b):
    """The read-back of the line through the ends a, b of an outer edge of
    g, in the drawing of the curve along that edge: everything else lies on
    one side of it."""
    d = curve_to_drawing(g, GoodCurve((Fst(g.outer), Vst(a), Vst(b), Fst(g.outer))))
    return curve_from_drawing(g, d.coords, line_through_vertices(d, a, b))


def split_case(kind, size, *args):
    if kind == "cubic":
        g = generate_triconnected_cubic(args[0], size)
        return g, theorem4(g).curve
    g, m = identity_grid_model(size)
    return (g, _line_curve(g, *args)) if args else theorem5_curve(g, m)


@pytest.mark.parametrize("case", [("grid", 26), ("cubic", 300, 3), ("cubic", 400, 7),
                                  ("cubic", 800, 1), ("cubic", 800, 2)],
                         ids=["grid26", "cubic300-3", "cubic400-7", "cubic800-1", "cubic800-2"])
def test_curves_the_straightening_lp_failed_on_realize(case):
    # the float LP straightening raised RealizeError on each of these (the
    # LP infeasible, or its answer violating a level order); the exact
    # convex-combination system draws them all
    g, c, _, _ = leveled_system(case)
    d = curve_to_drawing(g, c)
    assert d.designated == c.vertices and all(d.coords[v][1] == 0 for v in c.vertices)
    assert verify_drawing(g, d).ok


def test_split_drawing_clips_a_face_that_repeats_a_vertex():
    # a square with a pendant edge 0-4 inside; the curve through 1 and 3
    # leaves the face 0, 1, 3, 0, 4 on one side, which repeats 0:
    # _level_graph cuts off the corner at one occurrence of 0, joining 4 to
    # the path, so 4 gets a neighbour on each side of its level; the reference
    # split drawing, which star-triangulated only simple faces, raises
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4), 4: (1, 1)},
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    inner, = g.internal_faces()
    c = GoodCurve((Fst(g.outer), Vst(1), Fst(inner), Vst(3), Fst(g.outer)))
    aug = augment_with_curve(g, c)
    assert split_outcome(reference_split_drawing, g, aug) == "raises"
    rot, lev = _level_graph(g, aug)
    assert lev[4] != 0 and set(rot[4]) - {0} <= {1, 3}
    assert min(lev[u] for u in rot[4]) < lev[4] < max(lev[u] for u in rot[4])
    d = curve_to_drawing(g, c)
    assert d.designated == (1, 3) and d.coords[1][1] == d.coords[3][1] == 0
    assert verify_drawing(g, d).ok


def assert_levels(g, aug):
    """``_level_graph`` of the embedded curve ``aug``: g's rotations with
    edges added, symmetric; the path at level 0 and each side at the sign of
    y that ``curve_sides`` gives it; every vertex of g with a neighbour
    strictly above it and one strictly below it; every crossed edge joining
    levels of opposite sign."""
    rot, lev = _level_graph(g, aug)
    assert all(v in rot[u] for v, us in rot.items() for u in us)
    above, below = curve_sides(aug)
    assert all(lev[v] == 0 for v in aug.path_vertices)
    for v in g.vertices:
        kept = tuple(u for u in rot[v] if g.has_edge(u, v))
        assert _cyclic_eq(kept, g.rot[v]), v
        assert (lev[v] > 0) - (lev[v] < 0) == (v in above) - (v in below), v
        assert min(lev[u] for u in rot[v]) < lev[v] < max(lev[u] for u in rot[v]), v
    assert all(lev[u] * lev[v] < 0 for u, v in aug.subdivision)


# triangle 0, 1, 2 with blocks hanging at 2 inside it: a pendant 3, a
# triangle 2, 3, 4, that triangle with a pendant 5 at 3, two pendants 3 and
# 4, and a path 2, 3, 4
_BLOCKS_AT_A_CROSSED_CORNER = [
    ({3: (5, 5)}, [(2, 3)]),
    ({3: (4, 5), 4: (6, 5)}, [(2, 3), (3, 4), (4, 2)]),
    ({3: (4, 5), 4: (6, 5), 5: (5, 3)}, [(2, 3), (3, 4), (4, 2), (3, 5)]),
    ({3: (4, 5), 4: (6, 5)}, [(2, 3), (2, 4)]),
    ({3: (5, 6), 4: (5, 3)}, [(2, 3), (3, 4)]),
]


@pytest.mark.parametrize("inner,edges", _BLOCKS_AT_A_CROSSED_CORNER,
                         ids=["pendant", "block", "block-pendant", "two-pendants", "path"])
def test_level_graph_clips_at_a_crossed_edge(inner, edges):
    # the curve through the inner face from edge 2-0 to edge 2-1 leaves 2
    # and its blocks on one side: that side's walk in the face is 2, the
    # blocks, 2, and both of 2's corners are at a subdivision vertex, so the
    # clip goes to one and, once merged, on across the line to 0 or 1; run
    # either way, the blocks lie above or below, and every read-back of a
    # line through the graph's own drawing is realized too
    pos = {0: (0, 0), 1: (10, 0), 2: (5, 10), **inner}
    pos = {v: (Fr(x), Fr(y)) for v, (x, y) in pos.items()}
    g = graph_from_positions(pos, [(0, 1), (1, 2), (2, 0), *edges])
    f = next(f for f in g.internal_faces() if len(set(g.face_vertices(f))) == g.n)
    o = Fst(g.outer)
    c = GoodCurve((o, Xst(2, 0), Fst(f), Xst(2, 1), o))
    backs = {curve_from_drawing(g, pos, line)
             for line in _read_back_lines(pos, __import__("random").Random(3))}
    for curve in (c, c.reversed(), *backs):
        try:
            rep = validate_curve(g, curve)
        except CurveError:      # the line along 3-5 of block-pendant: the engine
            continue            # routes its first hop into the wrong corner of 3
        if not (rep.good and rep.proper) or curve.stations == (o,):
            continue
        aug = augment_with_curve(g, curve)
        assert_levels(g, aug)
        d = curve_to_drawing(g, curve)
        assert verify_drawing(g, d).ok and d.designated == curve.vertices
        if curve in (c, c.reversed()):
            rot, lev = _level_graph(g, aug)
            v = next(v for v in inner if set(rot[v]) & {0, 1})
            assert lev[v] * lev[2] > 0 > lev[v] * lev[0]


@pytest.mark.parametrize("adj", [
    {0: {1}, 1: {0, 2}, 2: {1}},                                # a path
    {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3, 4}, 3: {2, 4}, 4: {2, 3}},  # a bowtie
    {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: set()},               # an isolated vertex
], ids=["path", "bowtie", "isolated"])
def test_st_order_rejects_a_graph_that_is_not_biconnected(adj):
    with pytest.raises(RealizeError, match="not biconnected"):
        _st_order(adj, 0, 1)


@settings(max_examples=40, deadline=None)
@given(theorem1_inputs())
def test_level_graph_levels_each_side(case):
    g, c = case
    assert_levels(g, augment_with_curve(g, split_curve(g, c)))


# the five inputs the LP straightening failed on; two curves along an outer
# edge with nothing on one side; a curve that runs along the outer walk
# through 20, 90 and 89 (cubic 100); and the snake of grid 16
@pytest.mark.parametrize("case", [("grid", 26), ("cubic", 300, 3), ("cubic", 400, 7),
                                  ("cubic", 800, 1), ("cubic", 800, 2), ("grid", 4, 0, 1),
                                  ("grid", 8, 60, 61), ("cubic", 100, 1), ("grid", 16)],
                         ids=["grid26", "cubic300-3", "cubic400-7", "cubic800-1",
                              "cubic800-2", "grid4-edge", "grid8-edge", "cubic100", "grid16"])
def test_level_graph_levels_each_side_on_fixed_inputs(case, monkeypatch):
    g, c = split_case(*case)
    aug = augment_with_curve(g, c)
    calls = []
    for name in ("__init__", "subgraph"):
        def counting(*args, _name=name, _real=getattr(PlaneGraph, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(PlaneGraph, name, counting)
    _level_graph(g, aug)
    assert calls == []              # it traces faces, but builds no graph
    assert_levels(g, aug)


# -- the verifier against a rebuild of the drawn plane graph ---------------------------


def _cyclic_eq(a, b):
    """Whether tuple b is a rotation of tuple a."""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    doubled = a + a
    for i in range(len(a)):
        if doubled[i:i + len(b)] == b:
            return True
    return False


def reference_verify_drawing(g, d):
    """The verifier that rebuilt the drawn plane graph: rotations sorted by
    angle and faces traced by ``graph_from_positions``, then compared with
    g's rotations and outer face."""
    violations = []
    missing = [v for v in g.vertices if v not in d.coords]
    if missing:
        return realize.DrawingReport(False, False, False, False,
                                     [f"vertices without coordinates: {missing[:10]}"])
    planar_viol = sweep(d.coords, g.edges)
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
    des = list(d.designated)
    if len(des) >= 3:
        line = line_h(homogeneous(d.coords[des[0]]), homogeneous(d.coords[des[1]]))
        for v in des[2:]:
            if side_h(line, homogeneous(d.coords[v])) != 0:
                collinear_ok = False
                violations.append(
                    f"designated vertices {des[0]}, {des[1]}, {v} are not collinear")
                break
    return realize.DrawingReport(planar, embedding_ok, outer_ok, collinear_ok, violations)


@lru_cache(maxsize=None)
def _verified_drawing(kind, size, seed):
    """A drawing that ``verify_drawing`` accepts, from each route that makes
    one: free placement of a 3-tree's bundle curve, the Theorem-1 path on a
    cubic graph (Theorem 4 curve) or a grid (snake curve), and the lone
    hop of a line that misses the drawing on 3-trees and cubic graphs."""
    if kind == "place_free":
        g = random_plane_3tree(size, seed)
        d = place_free(g, _bundle_labeling(g))
    elif kind == "dp":
        g = random_plane_3tree(size, seed)
        d = curve_to_drawing(g, dp_optimal_collinear(decompose(g))[1])
    elif kind == "cubic":
        g = generate_triconnected_cubic(seed, 2 * size)
        d = curve_to_drawing(g, theorem4(g).curve)
    elif kind == "grid":
        g, c = theorem5_curve(*identity_grid_model(size))
        d = curve_to_drawing(g, c)
    else:
        g = (random_plane_3tree(size, seed) if kind == "miss3" else
             generate_triconnected_cubic(seed, 2 * size))
        d = curve_to_drawing(g, GoodCurve((Fst(g.outer),)))
    assert verify_drawing(g, d).ok
    return g, d


nudges = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def drawing_changes(draw):
    """A verified drawing with one change: 0-2 vertices moved, the mirror
    image, the positions of two neighbours of a vertex swapped, a vertex
    moved onto the ray of another edge at one of its neighbours, edges
    dropped until a vertex has degree 1 or 2 (that vertex then moved or
    not), or another face declared outer."""
    kind = draw(st.sampled_from(["place_free", "dp", "cubic", "grid", "miss3",
                                 "miss_cubic"]))
    size = draw(st.integers(6, 7) if kind == "grid" else
                st.integers(2, 12) if kind in ("cubic", "miss_cubic") else
                st.integers(4, 40))
    g, d = _verified_drawing(kind, size, draw(st.integers(0, 30)))
    coords = dict(d.coords)
    vs = sorted(g.vertices)
    change = draw(st.sampled_from(["move", "mirror", "swap", "ray", "thin", "outer"]))
    if change == "move":
        for v in draw(st.lists(st.sampled_from(vs), max_size=2, unique=True)):
            x, y = coords[v]
            coords[v] = (x + draw(nudges), y + draw(nudges))
    elif change == "outer":
        g = g.with_outer(draw(st.sampled_from(range(len(g.faces)))))
    elif change == "mirror":
        coords = {v: (-x, y) for v, (x, y) in coords.items()}
    elif change == "swap":
        a, b = draw(st.lists(st.sampled_from(g.rot[draw(st.sampled_from(vs))]),
                             min_size=2, max_size=2, unique=True))
        coords[a], coords[b] = coords[b], coords[a]
    elif change == "ray":
        u = draw(st.sampled_from(vs))
        w, x = draw(st.lists(st.sampled_from(g.rot[u]), min_size=2, max_size=2,
                             unique=True))
        t = draw(st.fractions(min_value=Fr(1, 4), max_value=3, max_denominator=4))
        (ux, uy), (wx, wy) = coords[u], coords[w]
        coords[x] = (ux + t * (wx - ux), uy + t * (wy - uy))
    else:
        v = draw(st.sampled_from(vs))
        keep = draw(st.integers(1, 2))
        for w in draw(st.permutations(g.rot[v])):
            if g.degree(v) <= keep:
                break
            try:
                g = g.subgraph(drop_edges=[(v, w)])
            except PlaneGraphError:         # the edge was a bridge
                pass
        assume(g.degree(v) <= 2)
        if draw(st.booleans()):
            x, y = coords[v]
            coords[v] = (x + draw(nudges), y + draw(nudges))
    return g, Drawing(coords, d.designated)


@settings(max_examples=300, deadline=None)
@given(drawing_changes())
def test_verify_matches_rebuild_reference(case):
    g, d = case
    new, old = verify_drawing(g, d), reference_verify_drawing(g, d)
    assert (new.planar, new.embedding_ok, new.ok) == (old.planar, old.embedding_ok, old.ok)
    assert new.violations[:1 - new.planar] == old.violations[:1 - old.planar]

    def messages(rep, text):
        return [v for v in rep.violations if text in v]
    assert messages(new, "collinear") == messages(old, "collinear")
    if new.embedding_ok:
        assert new.outer_ok == old.outer_ok
        assert new.violations == old.violations
    else:
        # the outer face is not compared when a rotation differs; without
        # coincident directions both name the same vertex and drawn order
        assert not new.outer_ok and not messages(new, "outer face")
        if not messages(old, "reconstruction failed"):
            assert messages(new, "rotation at") == messages(old, "rotation at")


# -- the triangulation certificate -----------------------------------------------------


def full_check(g, d):
    """``verify_drawing`` with the face-orientation certificate made to fail,
    so that the sweep, the rotation check and the outer-face check decide."""
    with mock.patch.object(realize, "_oriented_dets", lambda g, H: iter([(None, -1)])):
        return verify_drawing(g, d)


@st.composite
def triangulation_changes(draw):
    """A verified drawing of a 3-tree with one change: a vertex moved onto
    another vertex, onto an edge (often the edge opposite it in one of its
    faces), along an edge's ray past its far end, or across an edge (to the
    mirror image of its position in a point of that edge); a small nudge;
    the mirror image; or nothing."""
    kind = draw(st.sampled_from(["place_free", "dp", "miss3"]))
    g, d = _verified_drawing(kind, draw(st.integers(4, 40)), draw(st.integers(0, 30)))
    coords = dict(d.coords)
    v = draw(st.sampled_from(sorted(g.vertices)))
    change = draw(st.sampled_from(["vertex", "edge", "ray", "across", "nudge",
                                   "mirror", "none"]))
    if change == "mirror":
        coords = {u: (-x, y) for u, (x, y) in coords.items()}
    elif change == "vertex":
        coords[v] = coords[draw(st.sampled_from(sorted(set(g.vertices) - {v})))]
    elif change == "nudge":
        x, y = coords[v]
        coords[v] = (x + draw(nudges) / 64, y + draw(nudges) / 64)
    elif change != "none":
        opposite = [(a, b) for a, b in zip(g.rot[v], g.rot[v][1:] + g.rot[v][:1])
                    if b in g.rot[a]]
        if change == "ray":
            a, b = v, draw(st.sampled_from(g.rot[v]))
            t = draw(st.fractions(min_value=1, max_value=3, max_denominator=4))
        else:
            a, b = draw(st.sampled_from(opposite + sorted(g.edges)))
            t = draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        (ax, ay), (bx, by) = coords[a], coords[b]
        px, py = ax + t * (bx - ax), ay + t * (by - ay)
        x, y = coords[v]
        coords[v] = (2 * px - x, 2 * py - y) if change == "across" else (px, py)
    return g, Drawing(coords, d.designated)


@settings(max_examples=300, deadline=None)
@given(triangulation_changes())
def test_certificate_gives_the_full_checks_report(case):
    g, d = case
    assert verify_drawing(g, d) == full_check(g, d)


def test_certificate_gives_the_full_checks_report_on_flat_faces():
    # a vertex of degree 3 moved onto an edge (a corner) of its triangle
    # leaves one face (two faces) flat and every other drawn as its walk
    g = random_plane_3tree(30, 2)
    d = place_free(g, _bundle_labeling(g))
    outer = set(g.face_vertices(g.outer))
    for v in (v for v in g.vertices if g.degree(v) == 3 and v not in outer):
        a, b, _ = g.rot[v]
        for p in (d.coords[a], ((d.coords[a][0] + d.coords[b][0]) / 2,
                                (d.coords[a][1] + d.coords[b][1]) / 2)):
            moved = Drawing({**d.coords, v: p}, d.designated)
            rep = verify_drawing(g, moved)
            assert rep == full_check(g, moved) and not rep.planar


@pytest.mark.parametrize("make,n,seed", [(random_plane_3tree, 60, 1),
                                         (deep_stacking, 40, 2), (lambda n, s: K4, 4, 0)],
                         ids=["random", "deep", "K4"])
def test_oriented_dets_give_one_sign_per_face(make, n, seed):
    g = make(n, seed)
    d = place_free(g, _bundle_labeling(g))
    for flip in (1, -1):                # the drawing, then its mirror image
        H = {v: homogeneous((flip * x, y)) for v, (x, y) in d.coords.items()}
        dets = list(realize._oriented_dets(g, H))
        assert [walk for walk, _ in dets] == [g.face_vertices(i) for i in range(len(g.faces))]
        assert all(s * flip > 0 for _, s in dets)


def test_certificate_decides_triangulations_without_the_sweep(monkeypatch):
    def full_check_ran(*args):
        raise AssertionError("the full check ran")
    for name in ("_planarity_violations", "_clockwise_at", "leftmost_dart"):
        monkeypatch.setattr(realize, name, full_check_ran)
    g = random_plane_3tree(200, 5)
    assert verify_drawing(g, place_free(g, _bundle_labeling(g))).ok
    # the lift's one verifier call and the pinning's closing one
    pts = PointSet(((0, 0), (3, 1), (-2, 5)))
    d = universal_placement(g, pts)
    rep = verify_drawing(g, d)         # the points are not collinear
    assert rep.planar and rep.embedding_ok and rep.outer_ok
    assert {d.coords[v] for v in d.designated} == set(pts.points)


def test_non_triangulations_take_the_full_check(monkeypatch):
    g = generate_triconnected_cubic(1, 20)
    d = curve_to_drawing(g, theorem4(g).curve)
    calls = Counter()

    def counting(name):
        f = getattr(realize, name)

        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped
    for name in ("_planarity_violations", "_clockwise_at"):
        monkeypatch.setattr(realize, name, counting(name))
    # some faces are triangles, which a certificate without its guard reads
    assert any(len(walk) == 3 for walk in g.faces)
    assert verify_drawing(g, d).ok
    assert calls == {"_planarity_violations": 1, "_clockwise_at": g.n}


# -- labelings without a built graph ---------------------------------------------------


def graph_curve_sides(aug):
    """``curve_sides`` on a built augmented graph: its rotations, the outer
    walk's corner at an endpoint and a flood fill over its rotations."""
    g, path = aug.graph, aug.path_vertices
    on_path = set(path)
    if len(path) < 2:
        return set(g.vertices) - on_path, set()
    below, above = set(), set()
    for i, v in enumerate(path):
        rot = g.rot[v]
        nxt = path[i + 1] if i + 1 < len(path) else None
        prv = path[i - 1] if i > 0 else None
        if nxt is not None and prv is not None:
            below.update(_arc_cw(rot, nxt, prv))
            above.update(_arc_cw(rot, prv, nxt))
        elif len(rot) > 1:
            ref = prv if nxt is None else nxt
            arc = _arc_cw(rot, ref, _outer_corner(g, v)[1])
            rest = (x for x in rot if x not in arc and x != ref and x not in on_path)
            (above if nxt is None else below).update(arc)
            (below if nxt is None else above).update(rest)

    def off_path(v):
        return (u for u in g.rot[v] if u not in on_path)
    above, below = (set(reach(seeds - on_path, off_path)) for seeds in (above, below))
    if above & below:
        raise RealizeError("curve does not separate the graph: vertices "
                           f"{sorted(above & below)} lie on both sides")
    return above, below


def reference_labeling_from_curve(g, c):
    """The labeling read off an augmented graph traced afresh
    (``test_curves.reference_augment``) with ``graph_curve_sides``."""
    aug = reference_augment(g, c)
    if not aug.proper:
        raise RealizeError("curve is not proper (an endpoint misses the outer region)")
    order = [('v', s[1]) if s[0] == 'v' else ('e', s[1])
             for s in c.stations if s[0] in 'vx']
    if len(set(order)) != len(order):
        raise RealizeError("curve visits an element twice")
    above, below = graph_curve_sides(aug)
    labels = {v: 'up' if v in above else 'down' if v in below else 'on'
              for v in g.vertices}
    lab = LabelingOrder(labels, tuple(order),
                        {e: Fr(i + 1) for i, e in enumerate(order)})
    lab.validate(g)
    return lab


def labeling_outcome(f, g, c):
    try:
        return f(g, c)
    except (RealizeError, CurveError) as exc:
        return type(exc), str(exc)


@st.composite
def labeling_cases(draw):
    """Bundle and DP curves of random 3-trees, and line read-backs from
    ``outer_drawing`` of 3-trees, cubic graphs and grids (proper or not, and
    possibly through an edge), any of them reversed."""
    kind = draw(st.sampled_from(["bundle", "dp", "readback"]))
    family = "3tree" if kind != "readback" else draw(st.sampled_from(
        ["3tree", "cubic", "grid"]))
    seed = draw(st.integers(0, 10 ** 6))
    if family == "3tree":
        g = random_plane_3tree(draw(st.integers(4, 60)), seed)
    elif family == "cubic":
        g = generate_triconnected_cubic(seed, 2 * draw(st.integers(2, 15)))
    else:
        g, _ = identity_grid_model(draw(st.integers(3, 6)))
    if kind == "bundle":
        c = draw(st.sampled_from(build_curve_bundle(decompose(g)).curves))
    elif kind == "dp":
        c = dp_optimal_collinear(decompose(g))[1]
    else:
        d = outer_drawing(g)
        a, b = draw(st.lists(st.sampled_from(sorted(g.vertices)), min_size=2,
                             max_size=2, unique=True))
        c = curve_from_drawing(g, d.coords, line_through_vertices(d, a, b))
    return g, c.reversed() if draw(st.booleans()) else c


@settings(max_examples=150, deadline=None)
@given(labeling_cases())
def test_labeling_matches_built_graph_reference(case):
    g, c = case
    assert (labeling_outcome(labeling_from_curve, g, c)
            == labeling_outcome(reference_labeling_from_curve, g, c))


def test_verify_and_labeling_build_no_graph(monkeypatch):
    cases = []
    for n, seed in ((30, 1), (80, 2)):
        g = random_plane_3tree(n, seed)
        d = decompose(g)
        for c in (*build_curve_bundle(d).curves, dp_optimal_collinear(d)[1]):
            lab = reference_labeling_from_curve(g, c)
            drawing = place_free(g, lab)
            mirror = Drawing({v: (-x, y) for v, (x, y) in drawing.coords.items()})
            cases.append((g, c, lab, drawing, reference_verify_drawing(g, drawing),
                          mirror, reference_verify_drawing(g, mirror)))

    def build(*args, **kwargs):
        raise AssertionError("a plane graph was built")
    for name in ("__init__", "_trace_faces", "_from_walks"):
        monkeypatch.setattr(PlaneGraph, name, build)
    for g, c, lab, drawing, rep, mirror, mirror_rep in cases:
        assert labeling_from_curve(g, c) == lab
        assert verify_drawing(g, drawing) == rep and rep.ok
        got = verify_drawing(g, mirror)
        assert not got.embedding_ok and not got.outer_ok
        assert got.violations == mirror_rep.violations[:1]


def bowtie():
    """Triangles 0-1-2 and 0-3-4 sharing vertex 0, which meets the outer
    face in two corners."""
    return graph_from_positions({0: (0, 0), 1: (-2, -1), 2: (-2, 1), 3: (2, -1), 4: (2, 1)},
                                [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


@pytest.mark.parametrize("stations", [
    lambda g, left, right: (Vst(0), Fst(left), Xst(1, 2), Fst(g.outer)),
    lambda g, left, right: (Vst(0), Fst(right), Xst(3, 4), Fst(g.outer)),
    lambda g, left, right: (Fst(g.outer), Xst(1, 2), Fst(left), Vst(0), Fst(right),
                            Xst(3, 4), Fst(g.outer)),
], ids=["left", "right", "through"])
@pytest.mark.parametrize("reverse", [False, True])
def test_sides_at_an_endpoint_with_two_outer_corners(stations, reverse):
    # an end at vertex 0 leaves through the first of its two outer corners
    # on the outer walk read from its least dart
    g = bowtie()
    left, right = (next(i for i in g.internal_faces() if a in g.face_vertices(i))
                   for a in (1, 3))
    c = GoodCurve(stations(g, left, right))
    c = c.reversed() if reverse else c
    aug = augment_with_curve(g, c)
    assert aug.proper
    assert curve_sides(aug) == graph_curve_sides(aug)
    assert labeling_from_curve(g, c) == reference_labeling_from_curve(g, c)
