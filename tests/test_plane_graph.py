"""Rotation-system plane graphs: tracing, validation, subgraphs, format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from collinear.cubic import generate_triconnected_cubic
from collinear.plane_graph import (
    PlaneGraph, PlaneGraphError, edge_key, parse_plane_graph, path_to, reach,
    serialize_plane_graph,
)
from collinear.three_tree import random_plane_3tree
from collinear.treewidth import identity_grid_model


def triangle():
    # clockwise rotations for the drawing 0=(0,0), 1=(1,0), 2=(0,1)
    return PlaneGraph({0: (1, 2), 1: (2, 0), 2: (0, 1)}, outer_walk=[0, 1, 2])


def k4():
    # 3 = apex inside outer triangle (0,1,2); outer traced clockwise as 0,1,2
    rot = {
        0: (1, 3, 2),
        1: (2, 3, 0),
        2: (0, 3, 1),
        3: (0, 1, 2),
    }
    return PlaneGraph(rot, outer_walk=[0, 1, 2])


def square():
    return PlaneGraph({0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
                      outer_walk=[0, 1, 2, 3])


def octahedron():
    # outer triangle (0,1,2), inner triangle (3,4,5); each inner vertex sees
    # two outer ones; clockwise rotations of a straight-line drawing.
    rot = {
        0: (1, 4, 3, 2),
        1: (2, 5, 4, 0),
        2: (0, 3, 5, 1),
        3: (0, 4, 5, 2),
        4: (1, 5, 3, 0),
        5: (2, 3, 4, 1),
    }
    return PlaneGraph(rot, outer_walk=[0, 1, 2])


def test_triangle_faces():
    g = triangle()
    assert g.n == 3 and g.m == 3
    assert len(g.faces) == 2
    assert set(g.outer_walk()) == {0, 1, 2}
    # the other face is the internal one, traversed the other way around
    inner = [i for i in range(2) if i != g.outer][0]
    assert set(g.face_vertices(inner)) == {0, 1, 2}
    assert g.face_vertices(inner) != g.face_vertices(g.outer)


def test_k4_faces():
    g = k4()
    assert g.n == 4 and g.m == 6 and len(g.faces) == 4
    inner = [frozenset(g.face_vertices(i)) for i in g.internal_faces()]
    assert sorted(inner, key=sorted) == [frozenset({0, 1, 3}),
                                         frozenset({0, 2, 3}),
                                         frozenset({1, 2, 3})]
    assert g.is_triconnected()
    assert g.is_triangulation()


def test_ccw_input_rejected():
    # mirror image of the K4 fixture: counter-clockwise rotations.  The
    # declared outer walk then matches a traced face only in reverse.
    rot = {
        0: (2, 3, 1),
        1: (0, 3, 2),
        2: (1, 3, 0),
        3: (2, 1, 0),
    }
    with pytest.raises(PlaneGraphError, match="counter-clockwise"):
        PlaneGraph(rot, outer_walk=[0, 1, 2])


def test_nonplanar_rejected():
    # K5 has no planar rotation system; any rotation fails the Euler check
    rot = {v: tuple(w for w in range(5) if w != v) for v in range(5)}
    with pytest.raises(PlaneGraphError, match="Euler"):
        PlaneGraph(rot, outer_face=0)


def test_disconnected_rejected():
    with pytest.raises(PlaneGraphError, match="connected"):
        PlaneGraph({0: (1,), 1: (0,), 2: (3,), 3: (2,)}, outer_face=0)


def test_asymmetric_rejected():
    with pytest.raises(PlaneGraphError, match="symmetric"):
        PlaneGraph({0: (1,), 1: ()}, outer_face=0)


def test_bad_outer_walk_rejected():
    with pytest.raises(PlaneGraphError, match="not a traced face"):
        PlaneGraph({0: (1, 2), 1: (2, 0), 2: (0, 1)}, outer_walk=[0, 2])


def test_boundary_paths():
    g = square()
    assert g.boundary_path(0, 2, clockwise=True) == (0, 1, 2)
    assert g.boundary_path(0, 2, clockwise=False) == (0, 3, 2)


def test_separation_pairs_and_connectivity():
    g = square()
    assert g.is_biconnected()
    assert set(g.separation_pairs()) == {(0, 2), (1, 3)}
    assert not g.is_triconnected()
    assert octahedron().is_triconnected()


def test_subgraph_outer_inheritance():
    g = k4()
    sub = g.subgraph(vertices=[0, 1, 2])
    assert sub.edges == frozenset({frozenset((0, 1)), frozenset((1, 2)),
                                   frozenset((0, 2))}) or sub.m == 3
    assert set(sub.outer_walk()) == {0, 1, 2}
    # deleting an outer edge of the square merges the outer face with nothing odd
    h = square().subgraph(drop_edges=[(0, 1)])
    assert h.m == 3
    assert len(h.faces) == 1  # a path: single face, necessarily outer


def path3():
    # the path 0-1-2: one face, whose walk 0, 1, 2, 1 repeats vertex 1
    return PlaneGraph({0: (1,), 1: (0, 2), 2: (1,)}, outer_face=0)


@pytest.mark.parametrize("make", [triangle, k4, square, octahedron, path3,
                                  lambda: random_plane_3tree(30, 1),
                                  lambda: generate_triconnected_cubic(2, 20)])
def test_face_by_key_resolves_every_rotation(make):
    g = make()
    for i in range(len(g.faces)):
        walk = g.face_vertices(i)
        for k in range(len(walk)):
            assert g.face_by_key(walk[k:] + walk[:k]) == i
        for bad in (walk[:-1], walk + walk[:1], walk[:1], ()):
            with pytest.raises(PlaneGraphError, match="no face with walk"):
                g.face_by_key(bad)


@pytest.mark.parametrize("make", [triangle, k4, square, octahedron,
                                  lambda: random_plane_3tree(30, 1),
                                  lambda: generate_triconnected_cubic(2, 20)])
def test_with_outer_shares_faces(make):
    g = make()
    outer = g.outer
    for f in range(len(g.faces)):
        h = g.with_outer(f)
        fresh = PlaneGraph(g.rot, outer_face=f)
        assert h == fresh and h.outer == fresh.outer == f
        assert h.faces is g.faces and h.rot is g.rot
        assert h.faces == fresh.faces and h.outer_walk() == fresh.outer_walk()
        assert all(h.face_of_dart(d) == fresh.face_of_dart(d)
                   for walk in g.faces for d in walk)
        assert g.outer == outer
    for bad in (-1, len(g.faces)):
        with pytest.raises(PlaneGraphError, match="out of range"):
            g.with_outer(bad)


@pytest.mark.parametrize("make", [triangle, k4, square, octahedron,
                                  lambda: random_plane_3tree(30, 1),
                                  lambda: generate_triconnected_cubic(2, 20)])
def test_from_walks_matches_trace(make):
    # the walks in any order, each from any dart, give the traced faces
    g = make()
    rng = random.Random(len(g.faces))
    walks = []
    for walk in g.faces:
        k = rng.randrange(len(walk))
        walks.append(list(walk[k:] + walk[:k]))
    rng.shuffle(walks)
    h = PlaneGraph._from_walks(g.rot, walks)
    traced = PlaneGraph(g.rot, outer_face=0)
    assert h.faces == traced.faces and h.outer == 0 and h == traced
    assert (h.rot, h.vertices, h.n, h.m, list(h.edges)) == \
        (traced.rot, traced.vertices, traced.n, traced.m, list(traced.edges))
    assert all(h.face_of_dart(d) == traced.face_of_dart(d)
               for walk in g.faces for d in walk)


def test_from_walks_rejects_bad_walks():
    g = octahedron()
    walks = [list(w) for w in g.faces]
    with pytest.raises(PlaneGraphError, match="every dart exactly once"):
        PlaneGraph._from_walks(g.rot, walks[1:])                   # a walk missing
    with pytest.raises(PlaneGraphError, match="every dart exactly once"):
        PlaneGraph._from_walks(g.rot, walks + [walks[0][:1]])      # a dart twice
    with pytest.raises(PlaneGraphError, match="every dart exactly once"):
        PlaneGraph._from_walks(g.rot, walks[:-1] + [walks[-1][1:]])  # one dart lost
    merged = walks[0] + walks[1]                                    # a face too few
    with pytest.raises(PlaneGraphError, match="Euler"):
        PlaneGraph._from_walks(g.rot, [merged] + walks[2:])


def test_subgraph_inner_outer():
    # removing an outer vertex of K4: outer face must become the merged region
    g = k4()
    sub = g.subgraph(vertices=[0, 1, 3])
    assert set(sub.outer_walk()) == {0, 1, 3}


def reference_subgraph(g, vertices=None, drop_edges=()):
    """The subgraph that re-traced every face: a full constructor pass on
    the induced rotations, then the outer face found by a union-find over
    the parent faces merged across deleted edges."""
    keep = set(g.vertices if vertices is None else vertices)
    dropped = {edge_key(*e) for e in drop_edges}
    rot = {}
    for v in sorted(keep):
        rot[v] = tuple(w for w in g.rot[v] if w in keep and edge_key(v, w) not in dropped)
    parent = list(range(len(g.faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in g.edges:
        if a not in keep or b not in keep or edge_key(a, b) in dropped:
            ra, rb = find(g.face_of_dart((a, b))), find(g.face_of_dart((b, a)))
            if ra != rb:
                parent[ra] = rb
    outer_class = find(g.outer)
    sub = PlaneGraph(rot, outer_face=0)
    cands = []
    for i, walk in enumerate(sub.faces):
        classes = {find(g.face_of_dart(d)) for d in walk}
        if len(classes) != 1:
            raise PlaneGraphError("inherited embedding is inconsistent")
        if classes.pop() == outer_class:
            cands.append(i)
    if len(cands) != 1:
        raise PlaneGraphError(
            f"outer face of subgraph is ambiguous ({len(cands)} candidates)")
    return sub.with_outer(cands[0])


def _subgraph_outcome(f, g, vertices, drop):
    try:
        h = f(g, vertices, drop)
    except PlaneGraphError as exc:
        return str(exc)
    return h.rot, h.faces, h.outer


@st.composite
def subgraph_cases(draw):
    family = draw(st.sampled_from(["3tree", "cubic", "grid"]))
    seed = draw(st.integers(0, 10 ** 6))
    if family == "3tree":
        g = random_plane_3tree(draw(st.integers(4, 30)), seed)
    elif family == "cubic":
        g = generate_triconnected_cubic(seed, 2 * draw(st.integers(2, 12)))
    else:
        g, _ = identity_grid_model(draw(st.integers(2, 5)))
    if draw(st.booleans()):
        g = g.with_outer(draw(st.integers(0, len(g.faces) - 1)))
    verts = list(g.vertices)
    mode = draw(st.sampled_from(["all", "minus", "ball", "any"]))
    if mode == "all":
        vertices = None if draw(st.booleans()) else verts
    elif mode == "minus":
        gone = draw(st.lists(st.sampled_from(verts), max_size=3))
        vertices = [v for v in verts if v not in gone]
    elif mode == "ball":
        order = list(reach([draw(st.sampled_from(verts))], g.rot.__getitem__))
        vertices = order[:draw(st.integers(0, len(order)))]
    else:
        vertices = draw(st.lists(st.sampled_from(verts), unique=True))
    drop = draw(st.lists(st.sampled_from(sorted(g.edges)), max_size=3))
    drop = [e[::-1] if draw(st.booleans()) else e for e in drop]
    return g, vertices, drop


@settings(max_examples=300, deadline=None)
@given(subgraph_cases())
def test_subgraph_matches_reference(case):
    # vertex subsets (all, a few removed, a breadth-first ball, any) and
    # dropped edges on 3-trees, cubic graphs and grids, some with another
    # outer face: the same rotations, faces, face indices and outer face,
    # or the same PlaneGraphError message
    g, vertices, drop = case
    assert (_subgraph_outcome(PlaneGraph.subgraph, g, vertices, drop)
            == _subgraph_outcome(reference_subgraph, g, vertices, drop))


def test_subgraph_rejects_as_the_constructor_did():
    g = k4()
    for vertices, drop, message in (([], (), "empty graph"),
                                    ([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                                     "graph is not connected"),
                                    ([3], (), r"Euler check failed: V-E\+F = 1-0\+0")):
        with pytest.raises(PlaneGraphError, match=message):
            g.subgraph(vertices, drop)
        assert _subgraph_outcome(reference_subgraph, g, vertices, drop) == \
            _subgraph_outcome(PlaneGraph.subgraph, g, vertices, drop)


@pytest.mark.parametrize("make, vertices, drop", [
    (k4, [0, 1, 2], ()),
    (k4, None, [(0, 1)]),
    (octahedron, [0, 1, 2, 3, 4], [(1, 2)]),
    (lambda: random_plane_3tree(40, 3), range(1, 40), [(0, 1)]),
    (lambda: generate_triconnected_cubic(5, 60).with_outer(7), None, [(0, 8), (12, 1)]),
    (lambda: identity_grid_model(5)[0], range(1, 25), ()),
], ids=["k4-vertex", "k4-edge", "octahedron", "3tree", "cubic", "grid"])
def test_subgraph_keeps_intact_faces_and_traces_only_the_rest(make, vertices, drop,
                                                              monkeypatch):
    g = make()
    keep = set(g.vertices if vertices is None else vertices)
    gone = {edge_key(*e) for e in drop}

    def alive(d):
        return keep >= set(d) and edge_key(*d) not in gone
    intact = [w for w in g.faces if all(map(alive, w))]
    broken = {d for w in g.faces if not all(map(alive, w)) for d in w if alive(d)}
    assert broken and intact
    want = reference_subgraph(g, vertices, drop)
    traced = []
    real = PlaneGraph._trace_faces

    def record(rot, darts):
        darts = list(darts)
        traced.extend(darts)
        return real(rot, darts)

    def build(*args, **kwargs):
        raise AssertionError("subgraph called PlaneGraph.__init__")
    monkeypatch.setattr(PlaneGraph, "_trace_faces", staticmethod(record))
    monkeypatch.setattr(PlaneGraph, "__init__", build)
    h = g.subgraph(vertices, drop)
    assert sorted(traced) == sorted(broken)
    assert set(intact) <= set(h.faces)
    assert (h.rot, h.faces, h.outer) == (want.rot, want.faces, want.outer)


def test_format_roundtrip():
    for g in (triangle(), k4(), square(), octahedron()):
        text = serialize_plane_graph(g)
        h = parse_plane_graph(text)
        assert h == g
        assert serialize_plane_graph(h) == text


def test_format_errors():
    with pytest.raises(PlaneGraphError, match="header"):
        parse_plane_graph("rot 0: 1\nrot 1: 0\nouter: 0 1\n")
    with pytest.raises(PlaneGraphError, match="0..n-1"):
        parse_plane_graph("planegraph 2\nrot 0: 5\nrot 5: 0\nouter: 0 5\n")
    with pytest.raises(PlaneGraphError, match="outer"):
        parse_plane_graph("planegraph 2\nrot 0: 1\nrot 1: 0\n")
    for bad in ("planegraph 3 4", "planegraph x", "rot 0 1 2", "rot a: 1",
                "rot 0: 1 b", "outer: 0 1.5"):
        with pytest.raises(PlaneGraphError, match="bad line"):
            parse_plane_graph(bad + "\n")


def test_comments_and_blank_lines():
    text = """
# a triangle
planegraph 3
rot 0: 1 2  # clockwise
rot 1: 2 0
rot 2: 0 1

outer: 0 1 2
"""
    assert parse_plane_graph(text) == triangle()


# -- the breadth-first search ---------------------------------------------------------


def reference_reach(sources, adj):
    """Level-by-level search: (node, parent) pairs in discovery order."""
    found = []
    for s in sources:
        if s not in [v for v, _ in found]:
            found.append((s, None))
    level = [v for v, _ in found]
    while level:
        nxt = []
        for v in level:
            for w in adj[v]:
                if w not in [u for u, _ in found]:
                    found.append((w, v))
                    nxt.append(w)
        level = nxt
    return found


@st.composite
def adjacency_and_sources(draw):
    k = draw(st.integers(1, 12))
    node = st.integers(0, k - 1)
    adj = {v: draw(st.lists(node, max_size=5)) for v in range(k)}
    return adj, draw(st.lists(node, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(adjacency_and_sources())
def test_reach_matches_reference(case):
    adj, sources = case
    parent = reach(sources, adj.__getitem__)
    assert list(parent.items()) == reference_reach(sources, adj)
    for v in parent:
        path = path_to(parent, v)
        assert path[0] in sources and path[-1] == v
        assert all(b in adj[a] for a, b in zip(path, path[1:]))


def test_reach_keeps_every_source_a_root():
    # 1 is reachable from 0 but stays a source; the repeated 0 counts once
    adj = {0: [1, 2], 1: [3], 2: [], 3: [0]}
    parent = reach([0, 1, 0], adj.__getitem__)
    assert list(parent.items()) == [(0, None), (1, None), (2, 0), (3, 1)]
    assert path_to(parent, 3) == [1, 3]


@pytest.mark.parametrize("make", [triangle, k4, octahedron, path3])
def test_faces_at_reads_the_dart_map(make):
    g = make()
    for v in g.vertices:
        assert len(g.faces_at(v)) == g.degree(v)
        assert set(g.faces_at(v)) == {i for i in range(len(g.faces))
                                      if v in g.face_vertices(i)}
