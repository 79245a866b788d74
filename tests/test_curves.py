"""Good-curve validation, augmentation, properness, cutting, format."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collinear import oracle
from collinear.cubic import generate_triconnected_cubic, theorem4
from collinear.curves import (
    AugmentedCurve, CurveError, CurveReport, Fst, GoodCurve, Vst, Xst, _Engine,
    _check_face_incident, _terminal, augment_with_curve, check_well_formed,
    cut_closed_curve, curve_from_drawing, edge_tallies, parse_curve,
    serialize_curve, validate_curve,
)
from collinear.geom import F, line_through, orient
from collinear.plane_graph import (PlaneGraph, PlaneGraphError, edge_key,
                                   graph_from_positions)
from collinear.realize import (LabelingOrder, curve_to_drawing,
                               labeling_from_curve, place_free, verify_drawing)
from collinear.three_tree import (build_curve_bundle, decompose,
                                  dp_optimal_collinear, random_plane_3tree)
from collinear.treewidth import identity_grid_model, theorem5_curve
from test_three_tree import deep_stacking


def triangle():
    return PlaneGraph({0: (1, 2), 1: (2, 0), 2: (0, 1)}, outer_walk=[0, 1, 2])


def k4():
    rot = {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)}
    return PlaneGraph(rot, outer_walk=[0, 1, 2])


def square():
    return PlaneGraph({0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
                      outer_walk=[0, 1, 2, 3])


def k4_spec():
    # same embedding with outer face {0,1,3}: vertex 2 becomes the apex, so
    # faces f012 and f023 are internal
    g = k4()
    idx = [i for i in range(len(g.faces))
           if frozenset(g.face_vertices(i)) == frozenset({0, 1, 3})][0]
    return g.with_outer(idx)


def face_with(g, verts):
    want = frozenset(verts)
    hits = [i for i in range(len(g.faces))
            if frozenset(g.face_vertices(i)) == want and i != g.outer]
    assert len(hits) == 1, f"no unique internal face on {verts}"
    return hits[0]


def k4_one_vertex_curve(g):
    f012 = face_with(g, [0, 1, 2])
    f023 = face_with(g, [0, 2, 3])
    return GoodCurve((Xst(0, 1), Fst(f012), Vst(2), Fst(f023), Xst(0, 3)))


def test_k4_curve_good_proper():
    g = k4_spec()
    rep = validate_curve(g, k4_one_vertex_curve(g))
    assert rep.good and rep.proper
    assert rep.vertex_count_on_curve == 1
    assert rep.vertices_on_curve == frozenset({2})
    assert rep.violations == []


def test_k4_augmentation_shape():
    g = k4_spec()
    aug = augment_with_curve(g, k4_one_vertex_curve(g))
    # 2 subdivision vertices + 2 endpoint vertices
    assert aug.graph.n == g.n + 4
    assert len(aug.subdivision) == 2
    a, b = aug.endpoints
    x01 = aug.subdivision[(0, 1)]
    x03 = aug.subdivision[(0, 3)]
    assert aug.path_vertices == [a, x01, 2, x03, b]
    assert aug.proper
    # both endpoints dangle on the outer region
    heads = set(aug.graph.outer_walk())
    assert a in heads and b in heads
    # Euler validity is enforced by the PlaneGraph constructor; also check tags
    assert set(aug.walk_tags) == set(range(len(aug.graph.faces)))


def test_contained_edge_endpoints_good():
    g = square()
    c = GoodCurve((Vst(0), Vst(1)))
    assert c.contained == frozenset({(0, 1)})
    rep = validate_curve(g, c)
    assert rep.good
    assert rep.vertex_count_on_curve == 2
    # edges (0,3) and (1,2) touched once each via the endpoints
    assert rep.proper  # both endpoints are outer vertices


def test_uncontained_edge_between_visits_is_violation():
    # visiting both endpoints of an edge through a face hop, without
    # containing the edge, puts two common points on it
    g = triangle()
    inner = [i for i in range(2) if i != g.outer][0]
    c = GoodCurve((Vst(0), Fst(inner), Vst(1)), contained=frozenset())
    rep = validate_curve(g, c)
    assert not rep.good
    assert ((0, 1), 2) in rep.violations
    # adjacent vertex stations must contain the joining edge
    c2 = GoodCurve((Vst(0), Vst(1)), contained=frozenset())
    with pytest.raises(CurveError, match="not contained"):
        validate_curve(g, c2)


def test_degenerate_identity_path():
    g = square()
    c = GoodCurve((Vst(0), Vst(1), Vst(2)))
    aug = augment_with_curve(g, c)
    assert aug.subdivision == {}
    assert aug.endpoints == (0, 2)
    assert aug.path_vertices == [0, 1, 2]
    assert aug.graph.n == g.n


def test_improper_curve_inside():
    # curve buried between two internal faces of K4: from inside f013 across
    # edge (1,3)... pick a curve crossing (1,3) with both ends internal
    g = k4()
    f013 = face_with(g, [0, 1, 3])
    f123 = face_with(g, [1, 2, 3])
    c = GoodCurve((Fst(f013), Xst(1, 3), Fst(f123)))
    rep = validate_curve(g, c)
    assert rep.good and not rep.proper


def test_endpoint_past_outer_edge_is_proper():
    # crossing an outer edge from an internal face: one end pokes outside
    g = k4()
    f013 = face_with(g, [0, 1, 3])
    f123 = face_with(g, [1, 2, 3])
    c = GoodCurve((Fst(f013), Xst(0, 1)))
    rep = validate_curve(g, c)
    assert rep.good
    assert not rep.proper  # the f013-side endpoint is internal
    c2 = GoodCurve((Xst(0, 1), Fst(f013), Xst(1, 3), Fst(f123), Xst(1, 2)))
    assert validate_curve(g, c2).proper  # both ends poke into the outer face


def test_empty_curve_in_outer_face():
    g = k4()
    c = GoodCurve((Fst(g.outer),))
    rep = validate_curve(g, c)
    assert rep.good and rep.proper and rep.vertex_count_on_curve == 0


@pytest.mark.parametrize("make,curve,message", [
    (k4, lambda g: GoodCurve(()), "empty station sequence"),
    (k4, lambda g: GoodCurve((Vst(9),)), "unknown vertex 9"),
    (k4, lambda g: GoodCurve((Xst(0, 9),)), "unknown edge (0, 9)"),
    (lambda: generate_triconnected_cubic(1, 12), lambda g: GoodCurve((Fst(999),)),
     "unknown face 999"),
    (k4, lambda g: GoodCurve((Vst(0), Fst(g.outer), Vst(0))), "vertex 0 visited twice"),
    (k4, lambda g: GoodCurve((Vst(0), Vst(1), Fst(g.outer), Xst(0, 1))),
     "edge (0, 1) both contained and crossed"),
    (k4, lambda g: GoodCurve((('q', 1),)), "unknown station kind ('q', 1)"),
    (k4, lambda g: GoodCurve((Vst(0),), contained=frozenset({(1, 2)})),
     "contained edges [(1, 2)] not spanned by consecutive vertex stations"),
    (k4, lambda g: GoodCurve((Vst(0),), closed=True),
     "closed curve needs at least two stations"),
], ids=["empty", "vertex", "edge", "face", "vertex-twice", "contained-crossed",
        "kind", "contained-unspanned", "closed-single"])
def test_malformed_curves_are_rejected(make, curve, message):
    # the verdict and the checked embedding reject alike, a lone hop too
    g = make()
    c = curve(g)
    for check in (validate_curve, augment_with_curve):
        with pytest.raises(CurveError) as exc:
            check(g, c)
        assert str(exc.value) == message


def test_crossing_same_edge_twice_rejected():
    g = k4()
    f013 = face_with(g, [0, 1, 3])
    with pytest.raises(CurveError, match="crossed twice"):
        validate_curve(g, GoodCurve((Xst(0, 1), Fst(f013), Xst(0, 1))))


def test_not_embeddable_hop():
    # hop through a face not incident to the stations
    g = k4()
    f123 = face_with(g, [1, 2, 3])
    with pytest.raises(CurveError):
        validate_curve(g, GoodCurve((Xst(0, 1), Fst(f123), Xst(0, 2))))


def test_hop_through_a_face_neither_station_touches():
    # octahedron: the inner triangle 3-4-5 misses vertex 0 and edge 1-2
    g = PlaneGraph({0: (1, 4, 3, 2), 1: (2, 5, 4, 0), 2: (0, 3, 5, 1),
                    3: (0, 4, 5, 2), 4: (1, 5, 3, 0), 5: (2, 3, 4, 1)},
                   outer_walk=[0, 1, 2])
    f = face_with(g, [3, 4, 5])
    with pytest.raises(CurveError, match=f"face {f} not incident to vertex 0"):
        validate_curve(g, GoodCurve((Vst(0), Fst(f), Xst(1, 2))))
    with pytest.raises(CurveError, match=rf"face {f} not incident to edge \(1, 2\)"):
        validate_curve(g, GoodCurve((Xst(1, 2), Fst(f), Vst(0))))


def walk_scan_incidence(g, f, s):
    """The incidence test that scanned the whole face walk."""
    walk = g.faces[f]
    if s[0] == 'v':
        return any(d[0] == s[1] for d in walk)
    a, b = s[1]
    return (a, b) in walk or (b, a) in walk


@pytest.mark.parametrize("make", [k4, square, k4_spec,
                                  lambda: random_plane_3tree(12, 3),
                                  lambda: generate_triconnected_cubic(1, 12),
                                  lambda: identity_grid_model(3)[0]])
def test_face_incidence_matches_walk_scan(make):
    g = make()
    stations = [Vst(v) for v in g.vertices] + [Xst(*e) for e in sorted(g.edges)]
    for f in range(len(g.faces)):
        for s in stations:
            try:
                _check_face_incident(g, f, s)
                raised = False
            except CurveError as exc:
                kind = "vertex" if s[0] == 'v' else "edge"
                assert str(exc) == f"face {f} not incident to {kind} {s[1]}"
                raised = True
            assert raised != walk_scan_incidence(g, f, s)


def test_closed_curve_cut():
    # closed curve around vertex 3 of K4 visiting nothing: hops through all
    # three internal faces crossing the three spokes... instead visit vertex 3
    # is impossible; use the square with a diagonal-free closed curve:
    # cross (0,1),(1,2),(2,3),(3,0) around the inside? Use K4: closed curve
    # through vertex 3's three incident faces crossing edges (0,3),(1,3),(2,3).
    g = k4()
    f013 = face_with(g, [0, 1, 3])
    f123 = face_with(g, [1, 2, 3])
    f023 = face_with(g, [0, 2, 3])
    c = GoodCurve((Xst(0, 3), Fst(f013), Xst(1, 3), Fst(f123), Xst(2, 3),
                   Fst(f023)), closed=True)
    rep = validate_curve(g, c)
    assert rep.good
    g2, opened = cut_closed_curve(g, c)
    assert g2.outer != g.outer
    rep2 = validate_curve(g2, opened)
    assert rep2.good and rep2.proper
    assert rep2.vertex_count_on_curve == rep.vertex_count_on_curve


def test_closed_curve_is_not_proper():
    g = k4()
    c = GoodCurve((Xst(0, 3), Fst(face_with(g, [0, 1, 3])), Xst(1, 3),
                   Fst(face_with(g, [1, 2, 3])), Xst(2, 3),
                   Fst(face_with(g, [0, 2, 3]))), closed=True)
    rep = validate_curve(g, c)
    assert rep.good and not rep.proper


def test_cut_requires_hop():
    g = square()
    c = GoodCurve((Vst(0), Vst(1), Vst(2), Vst(3)), closed=True)
    with pytest.raises(CurveError, match="face hop"):
        cut_closed_curve(g, c)


def graph_from_drawing(pos, edges, outer_verts):
    import math
    adj = {v: [] for v in pos}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    rot = {v: tuple(sorted(ws, key=lambda w: -math.atan2(
        float(pos[w][1] - pos[v][1]), float(pos[w][0] - pos[v][0]))))
        for v, ws in adj.items()}
    g = PlaneGraph(rot, outer_face=0)
    idx = [i for i in range(len(g.faces))
           if frozenset(g.face_vertices(i)) == frozenset(outer_verts)]
    assert len(idx) == 1
    return g.with_outer(idx[0])


def test_curve_from_drawing_k4():
    pos = {0: (Fraction(4), Fraction(-2)), 1: (Fraction(4), Fraction(2)),
           2: (Fraction(0), Fraction(0)), 3: (Fraction(2), Fraction(1, 3))}
    g = graph_from_drawing(pos, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                           [0, 1, 2])
    # vertex 2 at the origin on the x-axis; the axis then crosses (0,3), (0,1)
    c = curve_from_drawing(g, pos, (0, 1, 0))
    rep = validate_curve(g, c)
    assert rep.good and rep.proper
    assert rep.vertices_on_curve == frozenset({2})
    kinds = [s[0] for s in c.stations]
    assert kinds.count('x') == 2


def test_curve_from_drawing_missing_line():
    g = triangle()
    pos = {0: (Fraction(0), Fraction(0)), 1: (Fraction(2), Fraction(0)),
           2: (Fraction(1), Fraction(1))}
    c = curve_from_drawing(g, pos, (0, 1, -5))  # y = -5 misses everything
    rep = validate_curve(g, c)
    assert rep.good and rep.proper and rep.vertex_count_on_curve == 0


def test_curve_from_drawing_contained_edge():
    g = square()
    # the walk 0, 1, 2, 3 of the outer face runs clockwise
    pos = {0: (Fraction(0), Fraction(0)), 1: (Fraction(2), Fraction(0)),
           2: (Fraction(2), Fraction(-2)), 3: (Fraction(0), Fraction(-2))}
    c = curve_from_drawing(g, pos, (0, 1, 0))  # y = 0 along edge (0,1)
    rep = validate_curve(g, c)
    assert rep.good and rep.proper
    assert rep.vertices_on_curve == frozenset({0, 1})
    assert (0, 1) in c.contained


def test_vertices_are_computed_once_and_stay_out_of_equality():
    c = GoodCurve((Xst(0, 1), Fst(2), Vst(2), Vst(3), Fst(1)))
    assert c.vertices == (2, 3) and c.vertices is c.vertices
    assert c.vertex_count == 2
    fresh = GoodCurve(c.stations)
    assert c == fresh and hash(c) == hash(fresh) and {c: 1}[fresh] == 1
    assert repr(c) == repr(fresh)


def test_format_roundtrip():
    gs = k4_spec()
    g = k4()
    for g, c in ((gs, k4_one_vertex_curve(gs)),
                 (g, GoodCurve((Vst(0), Vst(1)), contained=frozenset({(0, 1)}))),
                 (g, GoodCurve((Xst(0, 3), Fst(face_with(g, [0, 1, 3])), Xst(1, 3),
                                Fst(face_with(g, [1, 2, 3])), Xst(2, 3),
                                Fst(face_with(g, [0, 2, 3]))), closed=True))):
        text = serialize_curve(g, c)
        c2 = parse_curve(g, text)
        assert c2.stations == c.stations
        assert c2.closed == c.closed
        assert c2.contained == c.contained
        assert serialize_curve(g, c2) == text


def test_parse_curve_keys_each_face_line_once(monkeypatch):
    # a face line is found through the dart of its first two vertices, not
    # by keying every face of the graph
    g = random_plane_3tree(200, 1)
    c = build_curve_bundle(decompose(g)).best
    text = serialize_curve(g, c)
    calls = []
    face_key = PlaneGraph.face_key
    monkeypatch.setattr(PlaneGraph, "face_key",
                        lambda self, i: calls.append(i) or face_key(self, i))
    assert parse_curve(g, text).stations == c.stations
    assert 0 < len(calls) <= sum(line.startswith("f ") for line in text.splitlines())


def test_tally_independence():
    # validator tallies equal a naive recount from stations
    g = k4_spec()
    c = k4_one_vertex_curve(g)
    rep = validate_curve(g, c)
    from collinear.curves import edge_tallies
    tally = edge_tallies(g, c)
    # vertex 2 touches (0,2),(1,2),(2,3); crossings touch (0,1),(0,3)
    assert tally == {(0, 2): 1, (1, 2): 1, (2, 3): 1, (0, 1): 1, (0, 3): 1}
    assert rep.good


def test_curve_from_drawing_wrong_outer_face():
    # the drawing's unbounded face is {0, 1, 2}, the graph's outer face is
    # {0, 1, 3}: the rotations agree, the outer face does not
    pos = {0: (Fraction(4), Fraction(-2)), 1: (Fraction(4), Fraction(2)),
           2: (Fraction(0), Fraction(0)), 3: (Fraction(2), Fraction(1, 3))}
    g = graph_from_drawing(pos, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                           [0, 1, 2])
    g = g.with_outer(face_with(g, [0, 1, 3]))
    with pytest.raises(CurveError, match="does not realize"):
        curve_from_drawing(g, pos, (0, 1, 0))


def test_curve_from_drawing_rotation_out_of_order():
    # a wheel whose hub sits on the line; swapping the positions of two
    # neighbours of the hub breaks its rotation, not the outer face
    rim = [(2, 1), (0, 2), (-2, 1), (-2, -1), (0, -2), (2, -1)]
    pos = {0: (Fraction(0), Fraction(0))}
    pos.update({i + 1: (Fraction(x), Fraction(y)) for i, (x, y) in enumerate(rim)})
    edges = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]
    g = graph_from_drawing(pos, edges, range(1, 7))
    assert validate_curve(g, curve_from_drawing(g, pos, (0, 1, 0))).proper
    pos[1], pos[2] = pos[2], pos[1]
    with pytest.raises(CurveError, match="does not realize"):
        curve_from_drawing(g, pos, (0, 1, 0))


# -- the point-in-polygon read-back, kept as the reference ---------------------------


def reference_curve_from_drawing(g, pos, line):
    """Read-back that locates each hop face by testing the midpoint of the
    hop against every internal face polygon."""
    A, B, C = F(line[0]), F(line[1]), F(line[2])
    d = (B, -A)

    def t_of(p):
        return d[0] * p[0] + d[1] * p[1]

    events = []
    on_l = {v for v in g.vertices if A * pos[v][0] + B * pos[v][1] == C}
    for v in on_l:
        events.append((t_of(pos[v]), Vst(v)))
    contained = set()
    for (u, v) in g.edges:
        if u in on_l and v in on_l:
            contained.add(edge_key(u, v))
            continue
        pu, pv = pos[u], pos[v]
        su = A * pu[0] + B * pu[1] - C
        sv = A * pv[0] + B * pv[1] - C
        if (su > 0 and sv < 0) or (su < 0 and sv > 0):
            tt = su / (su - sv)
            pt = (pu[0] + tt * (pv[0] - pu[0]), pu[1] + tt * (pv[1] - pu[1]))
            events.append((t_of(pt), Xst(u, v)))
    events.sort(key=lambda e: e[0])
    if not events:
        return GoodCurve((Fst(g.outer),), closed=False)

    def point_at(t):
        n2 = A * A + B * B
        return (A * C / n2 + d[0] * t / n2, B * C / n2 + d[1] * t / n2)

    stations = [Fst(g.outer)]
    for k, (t, s) in enumerate(events):
        if k > 0:
            prev_t, prev_s = events[k - 1]
            if not (prev_s[0] == 'v' and s[0] == 'v'
                    and edge_key(prev_s[1], s[1]) in contained):
                mid = point_at((prev_t + t) / 2)
                stations.append(Fst(reference_face_containing(g, pos, mid)))
        stations.append(s)
    stations.append(Fst(g.outer))
    cont_used = {edge_key(s1[1], s2[1]) for s1, s2 in zip(stations, stations[1:])
                 if s1[0] == 'v' and s2[0] == 'v'}
    return GoodCurve(tuple(stations), closed=False, contained=frozenset(cont_used))


def on_segment(p, a, b):
    """p on the closed segment [a, b], in Fractions."""
    return (orient(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def reference_face_containing(g, pos, p):
    """The internal face whose polygon contains p (exact ray crossing,
    boundary points inside), else the outer face."""
    for i in g.internal_faces():
        poly = [pos[v] for v in g.face_vertices(i)]
        if any(on_segment(p, a, b) for a, b in zip(poly, poly[1:] + poly[:1])):
            return i
        inside = False
        for a, b in zip(poly, poly[1:] + poly[:1]):
            if (a[1] > p[1]) != (b[1] > p[1]):
                if a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1]) > p[0]:
                    inside = not inside
        if inside:
            return i
    return g.outer


@lru_cache(maxsize=None)
def _drawn(kind, size, seed):
    """A verified exact drawing of a generated graph."""
    if kind == "3tree":
        g = random_plane_3tree(size, seed=seed)
        d = curve_to_drawing(g, build_curve_bundle(decompose(g)).best)
    elif kind == "cubic":
        g = generate_triconnected_cubic(seed, size)
        d = curve_to_drawing(g, theorem4(g).curve)
    elif kind == "grid":
        g, c = theorem5_curve(*identity_grid_model(size))
        d = curve_to_drawing(g, c)
    else:  # place_free at random increasing targets on the DP curve
        g = random_plane_3tree(size, seed=seed)
        lab = labeling_from_curve(g, dp_optimal_collinear(decompose(g))[1])
        rng = random.Random(seed)
        x, targets = Fraction(rng.randint(-9, 9)), {}
        for e in lab.order:
            x += Fraction(rng.randint(1, 9), rng.randint(1, 9))
            targets[e] = x
        d = place_free(g, LabelingOrder(lab.labels, lab.order, targets))
    assert verify_drawing(g, d).ok
    return g, d.coords


_drawings = st.one_of(
    st.tuples(st.just("3tree"), st.integers(4, 60), st.integers(0, 3)),
    st.tuples(st.just("cubic"), st.sampled_from([4, 8, 12, 16, 20, 24]),
              st.integers(0, 2)),
    st.tuples(st.just("grid"), st.just(6), st.just(0)),
    st.tuples(st.just("place"), st.integers(4, 40), st.integers(0, 3)),
)


@settings(max_examples=150, deadline=None)
@given(_drawings, st.sampled_from(["x-axis", "horizontal", "vertical",
                                   "through two", "miss"]),
       st.data())
def test_read_back_equals_point_in_polygon_reference(spec, kind, data):
    g, pos = _drawn(*spec)
    vs = sorted(pos)
    p = pos[data.draw(st.sampled_from(vs))]
    shift = data.draw(st.sampled_from([0, Fraction(1, 3), Fraction(-5, 7)]))
    if kind == "x-axis":
        line = (0, 1, 0)
    elif kind == "horizontal":
        line = (0, 1, p[1] + shift)
    elif kind == "vertical":
        line = (1, 0, p[0] + shift)
    elif kind == "through two":
        q = pos[data.draw(st.sampled_from([v for v in vs if pos[v] != p]))]
        line = line_through(p, q)
    else:
        line = (0, 1, max(q[1] for q in pos.values()) + 1 + abs(shift))
    new = curve_from_drawing(g, pos, line)
    old = reference_curve_from_drawing(g, pos, line)
    assert (new.stations, new.closed, new.contained) == \
        (old.stations, old.closed, old.contained)
    assert validate_curve(g, new).good


# -- the augmentation that re-traced faces, kept as the reference ----------------------


class ReferenceEngine:
    """The engine that kept one dart walk per region and a rotation list per
    vertex, scanning and copying a whole walk at every hop.  A chord that
    would parallel an edge is rejected as the dart engine rejects it."""

    def __init__(self, g):
        self.g = g
        self.rot = {v: list(g.rot[v]) for v in g.vertices}
        self.walks = [(i, list(w)) for i, w in enumerate(g.faces)]
        # original face tag -> indices into self.walks (regions of that face)
        self.by_tag = {i: [i] for i in range(len(g.faces))}
        self.sub = {}
        self.next_id = max(g.vertices) + 1

    def _new_vertex(self):
        v = self.next_id
        self.next_id += 1
        return v

    def subdivide(self, e):
        u, v = e
        w = self._new_vertex()
        self.rot[u][self.rot[u].index(v)] = w
        self.rot[v][self.rot[v].index(u)] = w
        self.rot[w] = [u, v]
        self.sub[e] = w
        sides = set(self.g.faces_of_edge(u, v))
        cand = {wi for f in sides for wi in self.by_tag.get(f, ())}
        for wi in cand:
            darts = self.walks[wi][1]
            for i, d in enumerate(darts):
                if d == (u, v):
                    darts[i:i + 1] = [(u, w), (w, v)]
                    break
            for i, d in enumerate(darts):
                if d == (v, u):
                    darts[i:i + 1] = [(v, w), (w, u)]
                    break
        return w

    def _corners(self, darts, v):
        return [i for i, d in enumerate(darts) if d[1] == v]

    def insert_antenna(self, anchor, face):
        for wi in self.by_tag.get(face, ()):
            darts = self.walks[wi][1]
            cs = self._corners(darts, anchor)
            if not cs:
                continue
            i = cs[0]
            x = darts[i][0]
            t = self._new_vertex()
            self.rot[t] = [anchor]
            ra = self.rot[anchor]
            ra.insert(ra.index(x) + 1, t)
            darts[i + 1:i + 1] = [(anchor, t), (t, anchor)]
            return t
        raise CurveError(f"cannot attach endpoint at {anchor} inside face {face}")

    def insert_chord(self, a, b, face):
        if a != b and b in self.rot[a]:
            raise CurveError(f"cannot route hop between {a} and {b} through face {face}: "
                             f"the chord would parallel edge {edge_key(a, b)}")
        for wi in self.by_tag.get(face, ()):
            tag, darts = self.walks[wi]
            ca = self._corners(darts, a)
            cb = self._corners(darts, b)
            if not ca or not cb:
                continue
            i, j = ca[0], cb[0]
            if i == j:
                continue
            x = darts[i][0]
            z = darts[j][0]
            ra, rb = self.rot[a], self.rot[b]
            ra.insert(ra.index(x) + 1, b)
            rb.insert(rb.index(z) + 1, a)
            n = len(darts)

            def cyc(lo, hi):  # darts at positions lo+1 .. hi (cyclic, inclusive)
                out = []
                k = (lo + 1) % n
                while True:
                    out.append(darts[k])
                    if k == hi:
                        return out
                    k = (k + 1) % n

            w1 = cyc(i, j) + [(b, a)]
            w2 = cyc(j, i) + [(a, b)]
            self.walks[wi] = (tag, w2)
            self.by_tag[tag].append(len(self.walks))
            self.walks.append((tag, w1))
            return
        raise CurveError(f"cannot route hop between {a} and {b} through face {face}: "
                         "no region of that face touches both (curve not embeddable)")


def reference_augment(g, c):
    """Checks, the engine, then a PlaneGraph traced afresh from the engine's
    rotation system, with the outer region chosen among the traced faces."""
    check_well_formed(g, c)
    bad = [(e, t) for e, t in edge_tallies(g, c).items() if t > 1]
    if bad:
        raise CurveError(f"curve is not good; edges with 2+ common points: {sorted(bad)}")
    eng = ReferenceEngine(g)
    sts = c.stations
    n = len(sts)
    station_vertex = [None] * n
    for e in [s[1] for s in sts if s[0] == 'x']:
        eng.subdivide(e)
    for i, s in enumerate(sts):
        if s[0] == 'v':
            station_vertex[i] = s[1]
        elif s[0] == 'x':
            station_vertex[i] = eng.sub[s[1]]
    endpoints = None
    if not c.closed:
        a = _terminal(eng, sts, station_vertex, first=True)
    for i in (range(n) if c.closed else range(1, n - 1)):
        if sts[i][0] == 'f':
            eng.insert_chord(station_vertex[(i - 1) % n], station_vertex[(i + 1) % n],
                             sts[i][1])
    if not c.closed:
        endpoints = (a, _terminal(eng, sts, station_vertex, first=False))
    path_v, path_e = [], []
    if endpoints is not None and sts[0][0] == 'f':
        path_v.append(endpoints[0])
    for v in [v for v in station_vertex if v is not None]:
        if path_v:
            path_e.append(edge_key(path_v[-1], v))
        path_v.append(v)
    if endpoints is not None and sts[-1][0] == 'f':
        path_e.append(edge_key(path_v[-1], endpoints[1]))
        path_v.append(endpoints[1])
    if endpoints is not None:
        if sts[0][0] == 'x':
            path_e.insert(0, edge_key(endpoints[0], path_v[0]))
            path_v.insert(0, endpoints[0])
        if sts[-1][0] == 'x':
            path_e.append(edge_key(path_v[-1], endpoints[1]))
            path_v.append(endpoints[1])
    if c.closed and len(path_v) > 1:
        path_e.append(edge_key(path_v[-1], path_v[0]))
    try:
        pg = PlaneGraph(eng.rot, outer_face=0)
    except PlaneGraphError as exc:
        raise CurveError(f"curve augmentation is not a plane graph: {exc}") from exc
    tags = {}
    for tag, darts in eng.walks:
        tags[pg.face_of_dart(darts[0])] = tag
    if len(tags) != len(pg.faces):
        raise CurveError("internal error: face bookkeeping out of sync")
    cands = [fi for fi in range(len(pg.faces)) if tags[fi] == g.outer]
    ends = set(endpoints or ())
    touching = [fi for fi in cands if ends and ends <= {d[1] for d in pg.faces[fi]}]
    return SimpleNamespace(graph=pg.with_outer((touching + cands)[0]),
                           station_vertex=station_vertex, endpoints=endpoints,
                           path_vertices=path_v, path_edges=path_e,
                           subdivision=dict(eng.sub), walk_tags=tags,
                           proper=bool(touching))


def reference_is_proper(g, c):
    """Properness of an open good curve."""
    if len(c.stations) == 1 and c.stations[0][0] == 'f':
        return c.stations[0][1] == g.outer
    return reference_augment(g, c).proper


def reference_validate_curve(g, c):
    check_well_formed(g, c)
    violations = sorted((e, t) for e, t in edge_tallies(g, c).items() if t > 1)
    proper = not violations and not c.closed and reference_is_proper(g, c)
    verts = frozenset(c.vertices)
    return CurveReport(len(verts), verts, not violations, proper, violations)


def _outcome(f, g, c):
    """The result of f(g, c), an augmentation as a tuple of all its fields
    (its graph built here, when an ``AugmentedCurve`` builds it), or the
    class and message of the exception it raised."""
    try:
        out = f(g, c)
        if isinstance(out, (AugmentedCurve, SimpleNamespace)):
            h = out.graph
            return (h.rot, h.faces, h.outer, out.station_vertex, out.endpoints,
                    out.path_vertices, out.path_edges, out.subdivision,
                    out.walk_tags, out.proper)
    except (CurveError, PlaneGraphError) as exc:
        return type(exc), str(exc)
    return out


def assert_agrees_with_reference(g, c):
    for new, old in ((validate_curve, reference_validate_curve),
                     (augment_with_curve, reference_augment)):
        assert _outcome(new, g, c) == _outcome(old, g, c), new.__name__
    try:
        aug = augment_with_curve(g, c)
    except CurveError:
        return
    assert aug.graph.faces == PlaneGraph(aug.graph.rot, outer_face=aug.graph.outer).faces


@lru_cache(maxsize=None)
def _oracle_curves(n, seed):
    """Every curve the oracle asks about on a small random 3-tree."""
    g = random_plane_3tree(n, seed)
    asked = []

    def spy(h, c):
        asked.append(c)
        return validate_curve(h, c)
    with mock.patch.object(oracle, "validate_curve", spy):
        oracle.enumerate_curves(g)
    return g, tuple(asked)


def _walk_curve(g, rng, want):
    """A random good open curve on g built hop by hop, each hop through a
    face of the last station to a fresh station on that face that keeps
    every edge at one common point.  For ``want`` "twice" it re-hops a face
    it has hopped whenever it can; for "outer" it starts on the outer face
    and hops it once between its ends whenever it can; for "single" it is
    one vertex or crossing.  End hops go through the outer face when they
    can."""
    edges = sorted(g.edges)
    tally = dict.fromkeys(edges, 0)

    def station(s):
        for e in ([edge_key(s[1], w) for w in g.rot[s[1]]] if s[0] == 'v'
                  else [s[1]]):
            tally[e] += 1
        return s

    def fresh(s):
        return all(tally[edge_key(s[1], w)] == 0 for w in g.rot[s[1]]) \
            if s[0] == 'v' else tally[s[1]] == 0

    def on(f):
        return [s for s in dict.fromkeys([Vst(v) for v in g.face_vertices(f)]
                                          + [Xst(*d) for d in g.faces[f]])
                if fresh(s)]

    def hop(s, prefer):
        faces = sorted(_faces_at(g, s))
        prefer = sorted(prefer.intersection(faces))
        return rng.choice(prefer if prefer and rng.random() < 0.8 else faces)

    sts = [station(rng.choice(on(g.outer)) if want == "outer" and rng.random() < 0.8
                   else Vst(rng.choice(g.vertices)) if rng.random() < 0.5
                   else Xst(*rng.choice(edges)))]
    if want == "single":
        return GoodCurve(tuple(sts))
    hopped = set()
    for _ in range(rng.randint(1, 12)):
        f = hop(sts[-1], hopped if want == "twice" else {g.outer} - hopped)
        nxt = on(f)
        if not nxt:
            break
        sts += [Fst(f), station(rng.choice(nxt))]
        hopped.add(f)
    if rng.random() < 0.8:
        sts.insert(0, Fst(hop(sts[0], {g.outer})))
    if rng.random() < 0.8:
        sts.append(Fst(hop(sts[-1], {g.outer})))
    return GoodCurve(tuple(sts))


def _walk_graph(kind, size, seed):
    if kind == "3tree":
        return random_plane_3tree(size, seed)
    if kind == "cubic":
        return generate_triconnected_cubic(seed, 2 * size)
    return identity_grid_model(size)[0]


@st.composite
def augment_cases(draw):
    """Bundle, DP, oracle, Theorem 4, grid-snake, read-back and random-walk
    curves, any of them reversed, and copies with one station dropped or two
    swapped, or closed up.  The walks cover the curves whose properness the
    engine decides, those hopping a face twice or the outer face between
    their ends, and one-station curves."""
    kind = draw(st.sampled_from(["bundle", "dp", "oracle", "theorem4", "snake",
                                 "readback", "walk"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "walk":
        g = _walk_graph(draw(st.sampled_from(["3tree", "cubic", "grid"])),
                        draw(st.integers(4, 8)), seed)
        c = _walk_curve(g, random.Random(seed),
                        draw(st.sampled_from(["twice", "outer", "single"])))
    elif kind in ("bundle", "dp"):
        d = decompose(random_plane_3tree(draw(st.integers(4, 40)), seed))
        g = d.graph
        c = (draw(st.sampled_from(build_curve_bundle(d).curves)) if kind == "bundle"
             else dp_optimal_collinear(d)[1])
    elif kind == "oracle":
        g, asked = _oracle_curves(draw(st.integers(4, 7)), draw(st.integers(0, 3)))
        c = draw(st.sampled_from(asked))
    elif kind == "theorem4":
        g = generate_triconnected_cubic(seed, 2 * draw(st.integers(2, 12)))
        c = theorem4(g).curve
    elif kind == "snake":
        g, c = theorem5_curve(*identity_grid_model(draw(st.integers(6, 8))))
    else:
        g, pos = _drawn(*draw(_drawings))
        p, q = draw(st.lists(st.sampled_from(sorted(pos)), min_size=2, max_size=2,
                             unique=True))
        c = curve_from_drawing(g, pos, line_through(pos[p], pos[q]))
    if draw(st.booleans()):
        c = c.reversed()
    sts = list(c.stations)
    edit = draw(st.sampled_from(["none", "drop", "swap", "reface", "close"]))
    hops = [i for i, s in enumerate(sts) if s[0] == 'f']
    if edit == "drop" and len(sts) > 1:
        del sts[draw(st.integers(0, len(sts) - 1))]
        c = GoodCurve(tuple(sts))
    elif edit == "swap" and len(sts) > 1:
        i = draw(st.integers(0, len(sts) - 2))
        sts[i], sts[i + 1] = sts[i + 1], sts[i]
        c = GoodCurve(tuple(sts))
    elif edit == "reface" and hops:
        # another face that both neighbours of the hop touch
        i = draw(st.sampled_from(hops))
        near = [s for s in (sts[i - 1] if i else None,
                            sts[i + 1] if i + 1 < len(sts) else None) if s]
        common = set.intersection(*(_faces_at(g, s) for s in near)) if near else {g.outer}
        sts[i] = Fst(draw(st.sampled_from(sorted(common))))
        c = GoodCurve(tuple(sts), contained=c.contained)
    elif edit == "close":
        if len(hops) > 1 and hops[0] == 0 and hops[-1] == len(sts) - 1:
            del sts[0]
        c = GoodCurve(tuple(sts), closed=True, contained=c.contained)
    return g, c


def _faces_at(g, s):
    if s[0] == 'v':
        return {g.face_of_dart((s[1], w)) for w in g.rot[s[1]]}
    return set(g.faces_of_edge(*s[1]))


@settings(max_examples=300, deadline=None)
@given(augment_cases())
def test_augmentation_matches_reference(case):
    assert_agrees_with_reference(*case)


def test_outer_face_hop_read_back_stays_improper():
    # a line that leaves the drawing and re-enters it: the hop through the
    # outer face between two events takes the first corner it finds, so the
    # read-back curve is called not proper, here and by the reference
    g, pos = _drawn("cubic", 12, 1)
    c = curve_from_drawing(g, pos, (0, 1, -1))
    assert [s for s in c.stations if s[0] == 'f'].count(Fst(g.outer)) == 3
    assert_agrees_with_reference(g, c)
    assert not validate_curve(g, c).proper


def _hexagon_with_spoke_and_pendant():
    """A hexagon 0..5 with a spoke 0-6 to an inner vertex and a pendant 0-7
    outside, with its positions: 0-6 and 0-7 are bridges, with one face on
    both sides."""
    pos = {0: (4, 0), 1: (2, 3), 2: (-2, 3), 3: (-4, 0), 4: (-2, -3), 5: (2, -3),
           6: (1, 0), 7: (7, 1)}
    pos = {v: (F(x), F(y)) for v, (x, y) in pos.items()}
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (0, 7)]
    return graph_from_positions(pos, edges), pos


@pytest.mark.parametrize("line,bridge", [((1, 0, 2), (0, 6)),    # hopped on both sides
                                         ((0, 1, F(1, 2)), (0, 7)),
                                         ((1, 0, 6), (0, 7))],   # the crossing alone
                         ids=["spoke", "pendant", "lone-crossing"])
def test_crossing_a_bridge_takes_both_sides(line, bridge):
    # a line through the drawing that crosses a bridge reads back as a
    # proper curve: its embedding enters the bridge's subdivision vertex on
    # one side and leaves on the other, so the bridge's ends lie on the two
    # sides of the curve and the curve realizes
    from collinear.realize import curve_sides

    g, pos = _hexagon_with_spoke_and_pendant()
    c = curve_from_drawing(g, pos, line)
    assert Xst(*bridge) in c.stations
    aug = augment_with_curve(g, c)
    assert aug.proper and validate_curve(g, c).proper
    rot = list(aug.rotation(aug.subdivision[bridge]))
    assert len(rot) == 4 and abs(rot.index(bridge[0]) - rot.index(bridge[1])) == 2
    above, below = curve_sides(aug)
    assert {bridge[0] in above, bridge[1] in above} == {True, False}
    assert {bridge[0] in below, bridge[1] in below} == {True, False}
    assert verify_drawing(g, curve_to_drawing(g, c)).ok


def test_crossing_a_star_edge_is_proper():
    # the line through a leaf of a star that crosses another of its edges:
    # the engine took one corner of that edge for both hops, so the curve
    # touched the edge instead of crossing it and was called not proper
    pos = {0: (0, 0), 1: (3, 0), 2: (1, 3), 3: (-2, 1), 4: (-1, -3)}
    pos = {v: (F(x), F(y)) for v, (x, y) in pos.items()}
    g = graph_from_positions(pos, [(0, 1), (0, 2), (0, 3), (0, 4)])
    c = curve_from_drawing(g, pos, (1, 1, 3))
    assert c.stations == (Fst(0), Xst(0, 2), Fst(0), Vst(1), Fst(0))
    assert validate_curve(g, c).proper
    d = curve_to_drawing(g, c)
    assert d.designated == (1,) and verify_drawing(g, d).ok


def test_properness_builds_no_graph(monkeypatch):
    d = decompose(random_plane_3tree(40, 5))
    g = d.graph
    curves = build_curve_bundle(d).curves
    want = [(reference_validate_curve(g, c), _outcome(reference_augment, g, c))
            for c in curves]

    def trace(*args, **kwargs):
        raise AssertionError("faces were traced")
    monkeypatch.setattr(PlaneGraph, "__init__", trace)
    monkeypatch.setattr(PlaneGraph, "_trace_faces", trace)
    for c, (report, aug) in zip(curves, want):
        assert validate_curve(g, c) == report
        assert _outcome(augment_with_curve, g, c) == aug


def test_walks_cover_every_engine_case():
    # the random walks reach the properness check with each condition that
    # sends a curve to the engine, with both verdicts and the engine's own
    # errors among them, and with one-station curves of both verdicts; every
    # curve gets the reference's verdict or error
    seen = Counter()
    for want in ("twice", "outer", "single"):
        for kind in ("3tree", "cubic", "grid"):
            for seed in range(40):
                g = _walk_graph(kind, 4 + seed % 5, seed)
                c = _walk_curve(g, random.Random(seed), want)
                assert_agrees_with_reference(g, c)
                hops = [s[1] for s in c.stations[1:-1] if s[0] == 'f']
                cases = {"twice": len(set(hops)) < len(hops),
                         "outer": g.outer in hops,
                         "single": len(c.stations) == 1}
                try:
                    verdict = validate_curve(g, c).proper
                except CurveError:
                    verdict = "error"
                for case, holds in cases.items():
                    seen[case, verdict] += holds
    assert all(seen[case, verdict] for case in ("twice", "outer")
               for verdict in (True, False, "error"))
    assert seen["single", True] and seen["single", False]


def _count_engines(monkeypatch):
    """A list that gets the graph of every ``_Engine`` built from now on."""
    built, init = [], _Engine.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)
    monkeypatch.setattr(_Engine, "__init__", counting)
    return built


@pytest.mark.parametrize("make", [random_plane_3tree, deep_stacking])
@pytest.mark.parametrize("seed", [1, 2])
def test_tree_curves_are_validated_without_an_engine(monkeypatch, make, seed):
    # every bundle and DP curve hops each face at most once and never the
    # outer face between its ends, so its properness is read from its ends
    d = decompose(make(400, seed))
    built = _count_engines(monkeypatch)
    curves = [*build_curve_bundle(d).curves, dp_optimal_collinear(d)[1]]
    for c in curves:
        rep = validate_curve(d.graph, c)
        assert rep.good and rep.proper
    assert built == []


@pytest.mark.parametrize("make", [random_plane_3tree, deep_stacking])
def test_tree_pipeline_builds_one_engine(monkeypatch, make):
    # decompose, bundle, DP, labeling and free placement: only the labeling
    # embeds its curve
    g = make(200, 3)
    built = _count_engines(monkeypatch)
    d = decompose(g)
    build_curve_bundle(d)
    drawing = place_free(g, labeling_from_curve(g, dp_optimal_collinear(d)[1]))
    assert verify_drawing(g, drawing).ok
    assert len(built) == 1


def test_outer_face_hop_read_back_builds_one_engine(monkeypatch):
    # the read-back of test_outer_face_hop_read_back_stays_improper hops the
    # outer face between its ends, so it is embedded
    g, pos = _drawn("cubic", 12, 1)
    c = curve_from_drawing(g, pos, (0, 1, -1))
    built = _count_engines(monkeypatch)
    assert not validate_curve(g, c).proper
    assert len(built) == 1


def test_chord_parallel_to_a_contained_edge_is_rejected():
    # the good closed curve (v 1, v 0, f 0) on K4 runs along edge 0-1 and
    # comes back through face 0; its chord would be a second edge 0-1
    g = k4()
    c = GoodCurve((Vst(1), Vst(0), Fst(0)), closed=True)
    assert validate_curve(g, c).good
    with pytest.raises(CurveError, match=r"through face 0: the chord would "
                                         r"parallel edge \(0, 1\)"):
        augment_with_curve(g, c)
    assert_agrees_with_reference(g, c)


_ENGINE_GRAPHS = [k4(), square(), k4_spec(), random_plane_3tree(9, 2),
                  generate_triconnected_cubic(2, 10), identity_grid_model(3)[0]]


def _engine_outcome(f, *args):
    try:
        return f(*args)
    except CurveError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_engines_agree_hop_by_hop(data):
    # random subdivisions, then chords and antennas between any vertices
    # through any faces: both engines place the same vertices, raise the
    # same CurveError on a hop or antenna they cannot embed, and end with
    # the same rotations, faces and face tags
    g = data.draw(st.sampled_from(_ENGINE_GRAPHS))
    new, old = _Engine(g), ReferenceEngine(g)
    for e in data.draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True,
                                max_size=4)):
        assert new.subdivide(e) == old.subdivide(e)
    faces = st.integers(0, len(g.faces) - 1)
    for _ in range(data.draw(st.integers(1, 8))):
        a, b = data.draw(st.lists(st.sampled_from(sorted(old.rot)), min_size=2,
                                  max_size=2))
        f = data.draw(faces)
        if data.draw(st.booleans()):
            got = _engine_outcome(new.insert_antenna, a, f)
            assert got == _engine_outcome(old.insert_antenna, a, f)
        else:
            got = _engine_outcome(new.insert_chord, a, b, f)
            assert got == _engine_outcome(old.insert_chord, a, b, f)
    pg, index = new.graph()
    ref = PlaneGraph._from_walks(old.rot, [w for _, w in old.walks])
    assert (pg.rot, pg.faces) == (ref.rot, ref.faces)
    assert [ref.face_of_dart(w[0]) for _, w in old.walks] == index
    assert [tag for tag, _ in old.walks] == list(new.tag)
