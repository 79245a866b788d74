"""Connectivity in ``PlaneGraph`` against a brute-force reference.

The library reads connectivity off the faces: a graph with n >= 3 is
biconnected iff no face walk meets a vertex twice, and a separation pair is
two vertices that share two faces, other than the two faces of an edge
between them.  The reference removes every vertex pair and tests what is
left for connectivity with a plain set-based search, so it shares no code
with the library.  Wheels put many faces at one vertex; cycles with one
chord have pairs on an edge that do and do not separate.  The reference
also audits every intermediate graph of the cubic generator, which itself
checks triconnectivity only on the graph it returns.
"""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from collinear.cubic import _expand, generate_triconnected_cubic
from collinear.plane_graph import PlaneGraph, PlaneGraphError, graph_from_positions
from collinear.three_tree import random_plane_3tree


# -- brute-force reference ---------------------------------------------------------


def connected_without(g, removed):
    alive = set(g.vertices) - set(removed)
    if not alive:
        return True
    start = next(iter(alive))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.rot[v]:
            if w in alive and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == alive


def ref_biconnected(g):
    return g.n >= 3 and all(connected_without(g, [v]) for v in g.vertices)


def ref_separation_pairs(g):
    return [(a, b) for a, b in combinations(g.vertices, 2)
            if not connected_without(g, [a, b])]


def ref_triconnected(g):
    return g.n >= 4 and ref_biconnected(g) and not ref_separation_pairs(g)


# -- small plane graphs -----------------------------------------------------------


def cycle(n):
    return PlaneGraph({v: ((v + 1) % n, (v - 1) % n) for v in range(n)},
                      outer_face=0)


def square():
    return PlaneGraph({0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
                      outer_walk=[0, 1, 2, 3])


def k4():
    return PlaneGraph({0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
                      outer_walk=(0, 1, 2))


def wheel(k):
    """Hub 0 joined to every vertex of the rim cycle 1..k."""
    rot = {0: tuple(range(1, k + 1))}
    for i in range(1, k + 1):
        rot[i] = (i % k + 1, 0, (i - 2) % k + 1)
    return PlaneGraph(rot, outer_face=0)


def chorded_cycle(n, j):
    """The cycle 0..n-1 with the chord (0, j)."""
    rot = {v: ((v + 1) % n, (v - 1) % n) for v in range(n)}
    rot[0] = (1, j, n - 1)
    rot[j] = (j + 1, 0, j - 1)
    return PlaneGraph(rot, outer_face=0)


def path(n):
    return PlaneGraph({v: tuple(w for w in (v - 1, v + 1) if 0 <= w < n)
                       for v in range(n)}, outer_face=0)


@st.composite
def plane_graphs(draw):
    kind = draw(st.sampled_from(["cycle", "square", "cubic", "3tree",
                                 "wheel", "chord"]))
    if kind == "cycle":
        return cycle(draw(st.integers(3, 12)))
    if kind == "square":
        return square()
    if kind == "wheel":
        return wheel(draw(st.integers(3, 12)))
    if kind == "chord":
        n = draw(st.integers(4, 14))
        return chorded_cycle(n, draw(st.integers(2, n - 2)))
    if kind == "cubic":
        return generate_triconnected_cubic(draw(st.integers(0, 50)),
                                           2 * draw(st.integers(2, 10)))
    g = random_plane_3tree(draw(st.integers(4, 14)), seed=draw(st.integers(0, 50)))
    edges = sorted(g.edges)
    dropped = set(draw(st.lists(st.sampled_from(edges), max_size=5)))
    rot = {v: tuple(w for w in nbrs if (min(v, w), max(v, w)) not in dropped)
           for v, nbrs in g.rot.items()}
    try:
        return PlaneGraph(rot, outer_face=0)
    except PlaneGraphError:     # the deletions disconnected the graph
        assume(False)


@settings(max_examples=300, deadline=None)
@given(plane_graphs())
def test_connectivity_matches_brute_force(g):
    biconnected = ref_biconnected(g)
    assert g.is_biconnected() == biconnected
    assert g.is_triconnected() == ref_triconnected(g)
    if not biconnected:
        with pytest.raises(PlaneGraphError, match="biconnected"):
            g.separation_pairs()
        return
    pairs = ref_separation_pairs(g)
    assert g.separation_pairs() == pairs
    for a, b in combinations(g.vertices, 2):
        assert g.is_separation_pair(a, b) == ((a, b) in pairs)
        assert g.is_separation_pair(b, a) == ((a, b) in pairs)


@pytest.mark.parametrize("pos,edges,biconnected", [
    ({0: (0, 0), 1: (1, 0), 2: (2, 0)}, [(0, 1), (1, 2)], False),
    ({0: (0, 0), 1: (2, 0), 2: (1, 2)}, [(0, 1), (1, 2), (2, 0)], True),
    ({0: (0, 0), 1: (-2, 1), 2: (-2, -1), 3: (2, 1), 4: (2, -1)},
     [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], False),
    ({0: (0, 0), 1: (2, 0), 2: (1, 2), 3: (1, 4)},
     [(0, 1), (1, 2), (2, 0), (2, 3)], False),
    ({0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (2, 1)},
     [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)], True),
    ({0: (0, 0), 1: (4, 0), 2: (2, 2), 3: (2, 0), 4: (2, -2)},
     [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)], True),
], ids=["P3", "triangle", "bowtie", "triangle-pendant", "K4", "theta"])
def test_is_biconnected_small_cases(pos, edges, biconnected):
    g = graph_from_positions(pos, edges)
    assert g.is_biconnected() == ref_biconnected(g) == biconnected


@pytest.mark.parametrize("g", [path(2), path(3), path(5),
                               PlaneGraph({0: (1, 2), 1: (0, 2), 2: (1, 0, 3),
                                           3: (2,)}, outer_face=0)])
def test_separation_pairs_require_biconnected(g):
    assert not g.is_biconnected() and not ref_biconnected(g)
    assert not g.is_triconnected()
    with pytest.raises(PlaneGraphError, match="biconnected"):
        g.separation_pairs()
    with pytest.raises(PlaneGraphError, match="biconnected"):
        g.is_separation_pair(0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_every_expansion_step_stays_triconnected(seed):
    # the generator audits only its final graph; replay its steps from K4
    # and audit each intermediate graph with the reference
    rng = random.Random(seed)
    g = k4()
    while g.n < 40:
        cand = _expand(g, rng)
        if cand is None:
            continue
        assert all(cand.degree(v) == 3 for v in cand.vertices)
        assert ref_triconnected(cand)
        assert cand.is_triconnected()
        g = cand
    final = generate_triconnected_cubic(seed, 40)
    assert g.rot == final.rot and g.outer == final.outer
