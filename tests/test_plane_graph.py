"""Rotation-system plane graphs: tracing, validation, subgraphs, format."""

import random

import pytest

from collinear.cubic import generate_triconnected_cubic
from collinear.plane_graph import (
    PlaneGraph, PlaneGraphError, parse_plane_graph, serialize_plane_graph,
)
from collinear.three_tree import random_plane_3tree


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
