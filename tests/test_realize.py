"""Exact drawings: verification, Tutte embeddings, free placement, curve realization."""

import hashlib
import re
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from collinear.plane_graph import PlaneGraph, edge_key, graph_from_positions
from collinear.curves import (GoodCurve, Vst, Xst, Fst, augment_with_curve,
                              validate_curve, curve_from_drawing)
from collinear.cubic import generate_triconnected_cubic, theorem4
from collinear.treewidth import identity_grid_model, theorem5_curve
from collinear.three_tree import random_plane_3tree, decompose, build_curve_bundle
from collinear.geom import seg_line_y0_crossing
from collinear.realize import (
    Drawing, PolylineDrawing, LabelingOrder, RealizeError,
    parse_drawing, serialize_drawing, drawing_to_svg,
    verify_drawing, tutte_convex, _planarity_violations, labeling_from_curve, place_free,
    lift_off_line, straighten_preserving_y, curve_to_drawing, _split_drawing,
    _regular_convex_drawing,
)


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


def _check_sweep(coords, edges):
    found = _planarity_violations(coords, edges)
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
    assert ((_planarity_violations(coords, edges) == [])
            == (_planarity_violations(shifted, edges) == []))


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
    assert _planarity_violations(coords, edges) == ([message] if message else [])
    _check_sweep(coords, edges)


# -- barycentric embedding -----------------------------------------------------------


def test_tutte_triangle_interior():
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (2, 1)},
                             [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    d = tutte_convex(g, {0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(2), Fr(3))})
    assert d.coords[3] == (Fr(2), Fr(1))
    assert verify_drawing(g, d).ok


def test_tutte_square_center():
    g = graph_from_positions(
        {0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2), 4: (1, 1)},
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)])
    poly = {0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(0)), 2: (Fr(2), Fr(2)), 3: (Fr(0), Fr(2))}
    d = tutte_convex(g, poly)
    assert d.coords[4] == (Fr(1), Fr(1))
    assert verify_drawing(g, d).ok


def octahedron():
    rot = {0: (1, 2, 3, 4), 1: (0, 4, 5, 2), 2: (0, 1, 5, 3),
           3: (0, 2, 5, 4), 4: (0, 3, 5, 1), 5: (1, 4, 3, 2)}
    return PlaneGraph({v: tuple(reversed(r)) for v, r in rot.items()},
                      outer_walk=(0, 1, 2))


def test_tutte_octahedron_residual_zero():
    g = octahedron()
    d = tutte_convex(g, {0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(4)), 2: (Fr(4), Fr(0))})
    assert verify_drawing(g, d).ok
    for v in (3, 4, 5):
        nb = g.rot[v]
        assert sum(d.coords[u][0] for u in nb) == len(nb) * d.coords[v][0]
        assert sum(d.coords[u][1] for u in nb) == len(nb) * d.coords[v][1]


def test_tutte_rejects_bad_polygons():
    g = octahedron()
    with pytest.raises(RealizeError):            # counter-clockwise (mirrored)
        tutte_convex(g, {0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(2), Fr(4))})
    with pytest.raises(RealizeError):            # missing boundary vertex
        tutte_convex(g, {0: (Fr(0), Fr(0)), 1: (Fr(2), Fr(4))})
    with pytest.raises(RealizeError):            # collinear "polygon"
        tutte_convex(g, {0: (Fr(0), Fr(0)), 1: (Fr(1), Fr(0)), 2: (Fr(2), Fr(0))})


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


# -- straightening -------------------------------------------------------------------


def test_straighten_removes_bend_keeping_y():
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (0, 4)},
                             [(0, 1), (1, 2), (2, 0)])
    pl = PolylineDrawing({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(0), Fr(4))},
                         bends={(1, 2): ((Fr(5), Fr(1)),)})
    d = straighten_preserving_y(g, pl)
    assert {v: d.coords[v][1] for v in g.vertices} == {0: 0, 1: 0, 2: 4}
    assert verify_drawing(g, d).ok


def test_straighten_rejects_non_monotone():
    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (0, 4)},
                             [(0, 1), (1, 2), (2, 0)])
    pl = PolylineDrawing({0: (Fr(0), Fr(0)), 1: (Fr(4), Fr(0)), 2: (Fr(0), Fr(4))},
                         bends={(1, 2): ((Fr(5), Fr(5)),)})
    with pytest.raises(RealizeError):
        straighten_preserving_y(g, pl)


def test_straighten_preserves_level_order():
    g = prism()
    pl = PolylineDrawing({v: (Fr(x), Fr(y)) for v, (x, y) in
                          {0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (1, 1),
                           4: (3, 1), 5: (2, 2)}.items()})
    d = straighten_preserving_y(g, pl)
    assert verify_drawing(g, d).ok
    for v in g.vertices:
        assert d.coords[v][1] == pl.coords[v][1]


@pytest.mark.parametrize("coords,message", [
    ({0: (0, 0), 1: (2, 2), 2: (1, 1)}, "vertex 2 lies on edge (0, 1)"),
    ({0: (0, 0), 1: (1, 1), 2: (1, 1)}, "vertices 1 and 2 coincide"),
    ({0: (1, 1), 1: (0, 0), 2: (2, 2)}, "edges (0, 1) and (1, 2) overlap at vertex 1"),
])
def test_straighten_rejects_degenerate_levels(coords, message):
    g = path_graph(3)
    pl = PolylineDrawing({v: (Fr(x), Fr(y)) for v, (x, y) in coords.items()})
    with pytest.raises(RealizeError, match=re.escape(message)):
        straighten_preserving_y(g, pl)


def test_straighten_rechecks_every_row_exactly(monkeypatch):
    # one level (y = 1) holds the items vertex 2 and the edge (0, 3); the LP
    # answer is replaced, so only the exact re-check decides
    import scipy.optimize

    g = graph_from_positions({0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2)},
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    pl = PolylineDrawing({v: (Fr(x), Fr(y)) for v, (x, y) in
                          {0: (0, 0), 1: (4, 0), 2: (3, 1), 3: (0, 2)}.items()})
    # edge (0, 3) passes y = 1 at x = 2**-59; vertex 2 lies 2**-100 right of
    # it, or on it
    answers = {"just right": [0.0, 4.0, 2.0 ** -59 + 2.0 ** -100, 2.0 ** -58],
               "on the edge": [0.0, 4.0, 2.0 ** -59, 2.0 ** -58]}
    for name, x in answers.items():
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: SimpleNamespace(success=True, x=x,
                                                            message=""))
        if name == "just right":
            d = straighten_preserving_y(g, pl)
            assert [d.coords[v][0] for v in range(4)] == [Fr(t) for t in x]
        else:
            with pytest.raises(RealizeError, match="violates a level order"):
                straighten_preserving_y(g, pl)


# -- the straightening of the parent commit, kept as a reference ----------------------


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
    return PolylineDrawing(coords, bends)


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


def outcome(fn, *args):
    try:
        return fn(*args)
    except RealizeError as exc:
        return f"RealizeError: {exc}"


def sheared(d, edges, breaks):
    """The image of straight-line drawing ``d`` under (x, y) -> (x + f(y), y),
    f piecewise linear through the points ``breaks`` (y -> shift) and
    constant beyond them.  The map is a homeomorphism that keeps every
    horizontal line, so the image is planar with the same level orders; an
    edge bends wherever it passes a break."""
    ys = sorted(breaks)

    def f(y):
        if y <= ys[0]:
            return breaks[ys[0]]
        if y >= ys[-1]:
            return breaks[ys[-1]]
        for a, b in zip(ys, ys[1:]):
            if a <= y <= b:
                return breaks[a] + (breaks[b] - breaks[a]) * (y - a) / (b - a)

    coords = {v: (x + f(y), y) for v, (x, y) in d.coords.items()}
    bends = {}
    for e in map(lambda e: edge_key(*e), edges):
        (xa, ya), (xb, yb) = d.coords[e[0]], d.coords[e[1]]
        inner = [y for y in ys if min(ya, yb) < y < max(ya, yb)]
        if ya > yb:
            inner.reverse()
        if inner:
            bends[e] = tuple((xa + (xb - xa) * (y - ya) / (yb - ya) + f(y), y)
                             for y in inner)
    return PolylineDrawing(coords, bends)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def theorem1_inputs(draw):
    """Graphs that are not 3-trees with proper good curves: cubic graphs
    (n <= 40) with their Theorem 4 curve, and grids (sides 4-8) with either
    the snake curve (sides >= 6) or the read-back of a line through two
    vertices of a convex drawing."""
    kind = draw(st.sampled_from(["cubic", "snake", "line"]))
    if kind == "cubic":
        n = draw(st.integers(3, 20)) * 2
        g = generate_triconnected_cubic(draw(st.integers(0, 10 ** 6)), n)
        return g, theorem4(g).curve
    g, m = identity_grid_model(draw(st.integers(6 if kind == "snake" else 4, 8)))
    if kind == "snake":
        return theorem5_curve(g, m)
    d = _regular_convex_drawing(g)
    a, b = draw(st.lists(st.sampled_from(sorted(g.vertices)), min_size=2,
                         max_size=2, unique=True))
    (xa, ya), (xb, yb) = d.coords[a], d.coords[b]
    line = (yb - ya, xa - xb, (yb - ya) * xa + (xa - xb) * ya)
    c = curve_from_drawing(g, d.coords, line)
    assume(validate_curve(g, c).proper)
    return g, c


@settings(max_examples=40, deadline=None)
@given(theorem1_inputs(), st.data())
def test_theorem1_straightening_matches_reference(case, data):
    g, c = case
    aug = augment_with_curve(g, c)
    assume(len(aug.path_vertices) >= 2)
    designated = tuple(s[1] for s in c.stations if s[0] == 'v')
    try:
        pl = _split_drawing(g, aug)
    except RealizeError:            # fails before any straightening
        assume(False)
    # the pipeline: ranked levels; the same split drawing given straight to
    # the public function, with its bends on y = 0; and a sheared copy
    assert curve_to_drawing(g, c) == reference_straighten(
        g, reference_rank_levels(g, pl), designated)
    assert (outcome(straighten_preserving_y, g, pl, designated)
            == outcome(reference_straighten, g, pl, designated))
    base = straighten_preserving_y(g, pl, designated)
    levels = sorted({y for (_, y) in base.coords.values()})
    breaks = {y: data.draw(small_fracs) for y in
              data.draw(st.lists(st.sampled_from(levels + [Fr(1, 2), Fr(-1, 3)]),
                                 min_size=1, max_size=6, unique=True))}
    sh = sheared(base, g.edges, breaks)
    assert (outcome(straighten_preserving_y, g, sh, designated)
            == outcome(reference_straighten, g, sh, designated))


@st.composite
def grid_drawings(draw):
    """A triangulated grid with rows on shared levels (horizontal edges along
    every row) and x jittered within each row, then sheared."""
    cols, rows = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    levels = sorted(draw(st.lists(small_fracs, min_size=rows, max_size=rows,
                                  unique=True)))
    jitter = st.fractions(min_value=Fr(-2, 5), max_value=Fr(2, 5), max_denominator=9)
    vid = lambda i, j: j * cols + i
    pos = {vid(i, j): (i + draw(jitter), levels[j])
           for i in range(cols) for j in range(rows)}
    edges = [(vid(i, j), vid(i + 1, j)) for i in range(cols - 1) for j in range(rows)]
    edges += [(vid(i, j), vid(i, j + 1)) for i in range(cols) for j in range(rows - 1)]
    for i in range(cols - 1):
        for j in range(rows - 1):
            edges.append((vid(i, j), vid(i + 1, j + 1)) if draw(st.booleans())
                         else (vid(i + 1, j), vid(i, j + 1)))
    g = graph_from_positions(pos, edges)
    breaks = {y: draw(small_fracs) for y in
              draw(st.lists(st.sampled_from(levels + [Fr(0), Fr(1, 3), Fr(-5, 4)]),
                            min_size=1, max_size=6, unique=True))}
    return g, sheared(Drawing(pos), g.edges, breaks)


@settings(max_examples=120, deadline=None)
@given(grid_drawings())
def test_straighten_matches_reference_on_sheared_grids(case):
    g, pl = case
    got = outcome(straighten_preserving_y, g, pl)
    assert got == outcome(reference_straighten, g, pl)
    if isinstance(got, Drawing):
        assert verify_drawing(g, got).ok


def test_theorem1_drawings_pinned():
    # sha256 of the serialized drawings, equal to those of the per-level
    # scan with a dense LP matrix that the level sweep replaced
    def grid(side):
        g, m = identity_grid_model(side)
        return theorem5_curve(g, m)

    def cubic(seed, n):
        g = generate_triconnected_cubic(seed, n)
        return g, theorem4(g).curve

    cases = [
        (grid(10), "a6fc9e780f0e05ad35b15b33c5c84969c0cf5cda408aada0c97d701f186cca2b"),
        (grid(16), "0cd31c0075b922b7aec68317546bde64f188acad08d659daabfc529110751d3e"),
        (cubic(1, 100), "78d03d9ad22f1e1d6c4ed41be8d41a2563bc71739e4d28b2532cef88b38e3886"),
        (cubic(200, 200), "115809ef0014b85a173c5273a516c48dc0d254a8fca7857045033047df5de294"),
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
