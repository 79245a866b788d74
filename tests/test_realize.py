"""Exact drawings: verification, Tutte embeddings, free placement, curve realization."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from collinear.plane_graph import PlaneGraph, graph_from_positions
from collinear.curves import GoodCurve, Vst, Xst, Fst, validate_curve, curve_from_drawing
from collinear.three_tree import random_plane_3tree, decompose, build_curve_bundle
from collinear.geom import seg_line_y0_crossing
from collinear.realize import (
    Drawing, PolylineDrawing, LabelingOrder, RealizeError,
    parse_drawing, serialize_drawing, drawing_to_svg,
    verify_drawing, tutte_convex, _planarity_violations, labeling_from_curve, place_free,
    lift_off_line, straighten_preserving_y, curve_to_drawing,
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
