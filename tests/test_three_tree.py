"""Decomposition, curve bundles, chord-lemma segments, DP optimum."""

import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from collinear.plane_graph import PlaneGraph, edge_key, graph_from_positions
from collinear.curves import (GoodCurve, Vst, Xst, Fst, serialize_curve,
                              validate_curve)
from collinear.oracle import enumerate_curves, catalog_plane_3trees
from collinear.realize import labeling_from_curve, place_free, serialize_drawing
from collinear.three_tree import (
    ThreeTreeError, decompose, format_decomposition, lemma1_chord,
    build_curve_bundle, check_lemma3, dp_optimal_collinear,
    max_internal_collinear, augment_to_plane_3tree, random_plane_3tree,
    CurveBundle, _BundleBuilder, _Region, _chain_info, _join_ends,
    _lemma1_with_region,
)


K4 = PlaneGraph({0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
                outer_walk=(0, 1, 2))


_OCT_ROT = {0: (1, 2, 3, 4), 1: (0, 4, 5, 2), 2: (0, 1, 5, 3),
            3: (0, 2, 5, 4), 4: (0, 3, 5, 1), 5: (1, 4, 3, 2)}
OCTAHEDRON = PlaneGraph({v: tuple(reversed(r)) for v, r in _OCT_ROT.items()},
                        outer_walk=(0, 1, 2))


def stack(g_rot, faces_to_fill):
    """Tiny helper: build a plane 3-tree by stacking into named ccw faces."""
    rot = {v: list(r) for v, r in g_rot.items()}
    w = max(rot) + 1
    for (f0, f1, f2) in faces_to_fill:
        rot[w] = [f2, f1, f0]
        for v, succ in ((f0, f1), (f1, f2), (f2, f0)):
            rot[v].insert(rot[v].index(succ), w)
        w += 1
    return PlaneGraph(rot, outer_walk=(0, 1, 2))


def deep_stacking(n, seed):
    """Plane 3-tree with each new vertex in one of the three newest faces,
    so its stacking depth grows linearly with n."""
    rng = random.Random(seed)
    rot = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces = [(0, 2, 1)]
    for w in range(3, n):
        f0, f1, f2 = faces.pop(rng.randrange(max(0, len(faces) - 3), len(faces)))
        rot[w] = [f2, f1, f0]
        for v, succ in ((f0, f1), (f1, f2), (f2, f0)):
            rot[v].insert(rot[v].index(succ), w)
        faces.extend([(f0, f1, w), (f1, f2, w), (f2, f0, w)])
    return PlaneGraph(rot, outer_walk=(0, 1, 2))


# -- decomposition ------------------------------------------------------------------


def test_decompose_k4():
    d = decompose(K4)
    assert d.root.kind == 'A'
    assert d.root.w == 3
    assert d.root.m == 1
    assert (d.root.a, d.root.b, d.root.c, d.root.d, d.root.h) == (1, 0, 0, 0, 0)
    assert d.b_chains == []
    assert d.vertex_type(3) == 'A'


def test_decompose_five_vertices():
    # one extra stack: root becomes type B with a single-vertex chain
    g = stack(K4.rot, [(1, 0, 3)])
    d = decompose(g)
    assert d.root.kind == 'B'
    assert (d.root.a, d.root.b, d.root.h) == (1, 1, 1)
    assert d.b_chains == [(3,)]
    only = [k for k in d.root.children if k.kind != 'empty']
    assert len(only) == 1 and only[0].kind == 'A'


def test_decompose_type_d():
    # fill all three faces around the K4 hub: root becomes type D
    g = stack(K4.rot, [(0, 2, 3), (2, 1, 3), (1, 0, 3)])
    d = decompose(g)
    assert d.root.kind == 'D'
    assert (d.root.a, d.root.d) == (3, 1)
    assert d.root.a == d.root.c + 2 * d.root.d + 1


def test_decompose_rejects_non_3tree():
    with pytest.raises(ThreeTreeError):
        decompose(OCTAHEDRON)


def test_decompose_rejects_square():
    sq = PlaneGraph({0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
                    outer_walk=(0, 3, 2, 1))
    with pytest.raises(ThreeTreeError):
        decompose(sq)


def reference_decompose(g):
    """The recursive flood-fill decomposition that ``decompose`` replaced.

    At each node it takes the one inside vertex adjacent to all three corners
    as the centre and flood-fills the rest into the child triangles.  Returns
    per node, in preorder, (corners, centre, kind, interior, m, a, b, c, d,
    h, is B-chain head); raises ThreeTreeError on the inputs it rejected.
    """
    if len(g.outer_walk()) != 3 or not g.is_triangulation():
        raise ThreeTreeError("not a triangulation with a triangular outer face")
    nb = {v: frozenset(g.rot[v]) for v in g.vertices}
    out = []

    def rec(tri, inside, parent_kind):
        i = len(out)
        out.append(None)
        if not inside:
            out[i] = (tri, None, 'empty', inside) + (0,) * 6 + (False,)
            return out[i]
        ca, cb, cc = tri
        centers = inside & nb[ca] & nb[cb] & nb[cc]
        if len(centers) != 1:
            raise ThreeTreeError(f"{len(centers)} centres in {tri}")
        (w,) = centers
        rest = inside - {w}
        child_inside = [set(), set(), set()]
        opposite = (cc, ca, cb)
        seen = set()
        for v in sorted(rest):
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for y in nb[stack.pop()]:
                    if y in rest and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            slots = [j for j in range(3) if not comp & nb[opposite[j]]]
            if len(slots) != 1:
                raise ThreeTreeError(f"component {sorted(comp)} fits no child")
            child_inside[slots[0]] |= comp
        kind = 'DCBA'[sum(not c for c in child_inside)]
        kids = [rec(t, frozenset(c), kind) for t, c in
                zip(((ca, cb, w), (cb, cc, w), (cc, ca, w)), child_inside)]
        a, b, c, d, h = (sum(k[j] for k in kids) for j in range(5, 10))
        h += kind == 'B' and all(k[2] != 'B' for k in kids)
        out[i] = (tri, w, kind, inside, len(inside), a + (kind == 'A'),
                  b + (kind == 'B'), c + (kind == 'C'), d + (kind == 'D'), h,
                  kind == 'B' and parent_kind != 'B')
        return out[i]

    outer = g.outer_walk()
    rec(tuple(reversed(outer)), frozenset(g.vertices) - set(outer), '')
    return out


def _node_records(d):
    return [(n.corners, n.w, n.kind, d.interior(n), n.m, n.a, n.b, n.c, n.d,
             n.h, n.chain is not None) for n in d.nodes]


def _decompose_outcome(decomp, g):
    try:
        return decomp(g)
    except ThreeTreeError:
        return None


def flip(g, a, b):
    """The triangulation with internal edge (a, b) replaced by the other
    diagonal of its two faces, or None if that diagonal is already an edge."""
    (_, c), = [dt for dt in g.faces[g.face_of_dart((a, b))] if dt[0] == b]
    (_, e), = [dt for dt in g.faces[g.face_of_dart((b, a))] if dt[0] == a]
    if g.has_edge(c, e):
        return None
    rot = {v: list(r) for v, r in g.rot.items()}
    rot[c].insert(rot[c].index(b) + 1, e)
    rot[e].insert(rot[e].index(a) + 1, c)
    rot[a].remove(b)
    rot[b].remove(a)
    return PlaneGraph(rot, outer_walk=g.outer_walk())


@pytest.mark.parametrize("g", [K4, random_plane_3tree(3, 0)]
                         + catalog_plane_3trees(4)
                         + [random_plane_3tree(n, s) for n, s in
                            ((30, 1), (200, 2), (300, 3))]
                         + [deep_stacking(300, 4)])
def test_decompose_matches_reference(g):
    assert _node_records(decompose(g)) == reference_decompose(g)


@pytest.mark.parametrize("seed", range(8))
def test_decompose_rejects_as_reference(seed):
    # every single-edge flip of a small 3-tree: the peeling accepts exactly
    # what the flood fill accepted, with the same nodes
    g = random_plane_3tree(14, seed)
    outer = set(g.outer_walk())
    verdicts = set()
    for a, b in sorted(g.edges):
        if a in outer and b in outer:
            continue
        h = flip(g, a, b)
        if h is None:
            continue
        want = _decompose_outcome(reference_decompose, h)
        got = _decompose_outcome(decompose, h)
        assert (got is None) == (want is None), (a, b)
        if got is not None:
            assert _node_records(got) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_decompose_rejects_octahedron_as_reference():
    with pytest.raises(ThreeTreeError):
        reference_decompose(OCTAHEDRON)
    with pytest.raises(ThreeTreeError):
        decompose(OCTAHEDRON)


def test_deep_stacking_leaves_recursion_limit():
    limit = sys.getrecursionlimit()
    g = deep_stacking(2000, 5)
    d = decompose(g)
    assert len(d.nodes) == 3 * (g.n - 3) + 1
    cb = build_curve_bundle(d)
    _, curve, val = dp_optimal_collinear(d)
    assert val >= cb.best.vertex_count >= math.ceil((g.n - 3) / 8)
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("n,seed", [(20, 0), (60, 1), (200, 7)])
def test_decompose_counters_random(n, seed):
    d = decompose(random_plane_3tree(n, seed))
    r = d.root
    assert r.m == n - 3
    assert r.a + r.b + r.c + r.d == r.m
    assert r.a == r.c + 2 * r.d + 1
    assert r.h <= 2 * r.c + 3 * r.d + 1
    # chains are disjoint runs of type-B vertices
    seen = set()
    for chain in d.b_chains:
        for v in chain:
            assert d.vertex_type(v) == 'B'
            assert v not in seen
            seen.add(v)
    assert len(seen) == r.b


@pytest.mark.parametrize("g", [K4, random_plane_3tree(40, 3), deep_stacking(40, 6)])
def test_child_on_edge_matches_a_lookup_by_edge_key(g):
    for node in decompose(g).nodes:
        if node.children is None:
            continue
        u, v, z = node.corners
        slots = {edge_key(u, v): 0, edge_key(v, z): 1, edge_key(z, u): 2}
        for (a, b), i in slots.items():
            assert node.child_on_edge(a, b) is node.child_on_edge(b, a) is node.children[i]
        for a, b in ((u, u), (u, node.w), (node.w, z), (v, -1)):
            with pytest.raises(KeyError):
                node.child_on_edge(a, b)


def test_chain_paths_are_induced_and_disjoint():
    g = random_plane_3tree(80, 3)
    d = decompose(g)
    for node in d.nodes:
        if node.chain is None:
            continue
        paths = list(node.chain.paths.values())
        all_v = [v for p in paths for v in p]
        assert len(all_v) == len(set(all_v))
        for p in paths:
            for a, b in zip(p, p[1:]):
                assert g.has_edge(a, b)
        # no edges joining non-consecutive vertices of one path
        for p in paths:
            pos = {v: i for i, v in enumerate(p)}
            for v in p:
                for w in g.rot[v]:
                    if w in pos:
                        assert abs(pos[v] - pos[w]) == 1


def test_format_decomposition():
    out = format_decomposition(decompose(K4))
    assert "type=A w=3 m=1" in out
    assert out.count("empty") == 3
    g = stack(K4.rot, [(1, 0, 3)])
    assert "b-chain 3" in format_decomposition(decompose(g))


# -- chord lemma ---------------------------------------------------------------------


def _fan():
    # square 0-1-2-3 with chord (0,2); interior of cycle [0,1,2,3] on the left
    pos = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
    return graph_from_positions(pos, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def test_lemma1_crosses_separating_chord():
    g = _fan()
    sts = lemma1_chord(g, (0, 1, 2, 3), Xst(0, 1), Xst(2, 3))
    xs = [s for s in sts if s[0] == 'x']
    assert xs == [Xst(0, 1), Xst(0, 2), Xst(2, 3)]
    rep = validate_curve(g, GoodCurve(tuple(sts)))
    assert rep.good


def test_lemma1_vertex_endpoints():
    g = _fan()
    sts = lemma1_chord(g, (0, 1, 2, 3), Vst(1), Vst(3))
    assert sts[0] == Vst(1) and sts[-1] == Vst(3)
    assert [s for s in sts if s[0] == 'x'] == [Xst(0, 2)]


def test_lemma1_same_face_no_crossings():
    g = _fan()
    sts = lemma1_chord(g, (0, 1, 2, 3), Xst(0, 1), Xst(1, 2))
    assert [s[0] for s in sts] == ['x', 'f', 'x']


def test_lemma1_rejects_same_edge():
    g = _fan()
    with pytest.raises(ThreeTreeError):
        lemma1_chord(g, (0, 1, 2, 3), Vst(0), Xst(0, 1))
    with pytest.raises(ThreeTreeError):
        lemma1_chord(g, (0, 1, 2, 3), Vst(0), Vst(1))


def test_lemma1_skips_chords_at_own_endpoint():
    # endpoint vertex with incident chords: the segment leaves through a face
    # at the vertex without cutting any chord it touches
    pos = {0: (0, 0), 1: (2, 0), 2: (3, 2), 3: (1, 3), 4: (-1, 2)}
    g = graph_from_positions(pos, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                   (0, 2), (0, 3)])
    sts = lemma1_chord(g, (0, 1, 2, 3, 4), Vst(0), Xst(2, 3))
    xs = [s for s in sts if s[0] == 'x']
    assert xs == [Xst(2, 3)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ThreeTreeError as exc:
        return str(exc)


def test_lemma1_triangle_is_one_face_hop():
    # a 3-cycle around a face is crossed through that face, with the same
    # result or error as the region search on every pair of boundary points
    g = random_plane_3tree(30, 1)
    for f in g.internal_faces():
        cycle = g.face_vertices(f)
        a, b, c = cycle
        assert lemma1_chord(g, cycle, Xst(a, b), Xst(b, c)) == [Xst(a, b), Fst(f), Xst(b, c)]
        assert lemma1_chord(g, cycle, Vst(a), Xst(b, c)) == [Vst(a), Fst(f), Xst(b, c)]
        other = next(v for v in g.vertices if v not in cycle)
        points = [Vst(a), Vst(b), Vst(c), Xst(a, b), Xst(b, c), Xst(c, a), Vst(other)]
        for p1 in points:
            for p2 in points:
                assert (_outcome(lemma1_chord, g, cycle, p1, p2)
                        == _outcome(_lemma1_with_region, g, _Region(g, cycle), p1, p2))


def test_lemma1_triangle_rejects_bad_end_points():
    g = random_plane_3tree(30, 1)
    a, b, c = cycle = g.face_vertices(g.internal_faces()[0])
    with pytest.raises(ThreeTreeError, match=r"coincident end-points \('x', "):
        lemma1_chord(g, cycle, Xst(a, b), Xst(b, a))
    with pytest.raises(ThreeTreeError, match="lie on the same edge"):
        lemma1_chord(g, cycle, Vst(a), Xst(a, b))
    with pytest.raises(ThreeTreeError, match="lie on the same edge"):
        lemma1_chord(g, cycle, Vst(b), Vst(c))
    other = next(v for v in g.vertices if v not in cycle)
    with pytest.raises(ThreeTreeError, match="end-point not on the cycle"):
        lemma1_chord(g, cycle, Vst(other), Xst(a, b))


def test_lemma1_separating_triangle_is_not_a_face_hop():
    # the outer triangle of K4, counter-clockwise, holds vertex 3
    with pytest.raises(ThreeTreeError, match="not chord-filled"):
        lemma1_chord(K4, (2, 1, 0), Xst(0, 1), Xst(1, 2))


# -- curve bundles -------------------------------------------------------------------


def _assert_bundle_ok(g, d, cb):
    u, v, z = d.root.corners
    ends = {cb.lambda_u: (Xst(u, v), Xst(u, z)),
            cb.lambda_v: (Xst(v, z), Xst(u, v)),
            cb.lambda_z: (Xst(u, z), Xst(v, z))}
    type_a = {x for x in d.interior(d.root) if d.vertex_type(x) == 'A'}
    type_cd = {x for x in d.interior(d.root) if d.vertex_type(x) in 'CD'}
    for lam, (e1, e2) in ends.items():
        rep = validate_curve(g, lam)
        assert rep.good and rep.proper, rep.violations
        assert {lam.stations[0], lam.stations[-1]} == {e1, e2}
        on = set(lam.vertices)
        assert type_a <= on
        assert not (type_cd & on)
    rep3 = check_lemma3(d, cb)
    assert rep3.ok, rep3.first_violation
    assert cb.best.vertex_count >= math.ceil(d.root.m / 8)


def test_bundle_empty_tree():
    tri = PlaneGraph({0: (1, 2), 1: (2, 0), 2: (0, 1)}, outer_walk=(0, 1, 2))
    d = decompose(tri)
    cb = build_curve_bundle(d)
    for lam in cb.curves:
        assert [s[0] for s in lam.stations] == ['x', 'f', 'x']
        assert lam.vertex_count == 0
    assert (cb.s, cb.x) == (0, 0)
    _assert_bundle_ok(tri, d, cb)


def test_bundle_k4():
    d = decompose(K4)
    cb = build_curve_bundle(d)
    assert cb.s == 3
    for lam in cb.curves:
        assert lam.vertices == (3,)
    _assert_bundle_ok(K4, d, cb)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_bundle_catalog(m):
    for g in catalog_plane_3trees(m):
        d = decompose(g)
        cb = build_curve_bundle(d)
        _assert_bundle_ok(g, d, cb)


@pytest.mark.parametrize("n,seed", [(20, 0), (50, 2), (100, 5), (400, 11)])
def test_bundle_random(n, seed):
    g = random_plane_3tree(n, seed)
    d = decompose(g)
    cb = build_curve_bundle(d)
    _assert_bundle_ok(g, d, cb)


def test_lemma3_at_every_node():
    builder_graphs = [random_plane_3tree(40, 9)] + catalog_plane_3trees(4)[:6]
    for g in builder_graphs:
        d = decompose(g)
        bb = _BundleBuilder(d)
        for node in d.nodes:
            if node.kind == 'empty':
                continue
            ncb = bb.node_bundle(node)
            rep = check_lemma3(d, ncb, node=node)
            assert rep.ok, (node.corners, rep.first_violation)
            # node curves only visit vertices internal to the node
            for lam in ncb.curves:
                assert set(lam.vertices) <= d.interior(node)


_CATALOG_UP_TO_5 = [g for m in range(6) for g in catalog_plane_3trees(m)]

# -- the bundle that copied its children's curves, kept as the reference -------------


def reference_join(pieces):
    """Concatenate curve pieces end to end, flipping as ``_join_ends`` says;
    a shared end station is kept once (a shared Crossing becomes one proper
    crossing, a shared Vertex one visit)."""
    pieces = [p for p in pieces if p]
    _, _, flips = _join_ends([(p[0], p[-1]) for p in pieces])
    out = []
    for p, flip in zip(pieces, flips):
        p = p[::-1] if flip else p
        out.extend(p[1:] if out else p)
    return out


class ReferenceBundleBuilder:
    """The three corner curves of decomposition nodes, kept across calls.

    The curve for a corner runs from the crossing with the edge to the next
    corner (counter-clockwise) to the crossing with the edge to the previous
    corner.  A node's three curves are built together, after the curves of
    the nodes they are made of: children before parents, no recursion.
    """

    def __init__(self, d):
        self.d = d
        self.g = d.graph
        self._memo = {}
        self._regions = {}

    def curve(self, node, corner):
        if node.index not in self._memo:
            todo = [node]
            for nd in todo:
                if nd.index not in self._memo:
                    todo.extend(self._parts(nd))
            for nd in reversed(todo):
                if nd.index not in self._memo:
                    self._memo[nd.index] = self._build(nd)
        return self._memo[node.index][corner]

    def _built(self, node, corner):
        return self._memo[node.index][corner]

    def _parts(self, node):
        """The nodes whose curves the curves of ``node`` are joined from."""
        if node.kind in ('C', 'D'):
            return node.children
        if node.kind == 'B':
            return (self.chain_info(node).tail,)
        return ()

    def _build(self, node):
        if node.kind == 'B':
            raw = self._build_b(node)
        else:
            raw = {c: self._build_one(node, c) for c in node.corners}
        out = {}
        for corner, sts in raw.items():
            first = Xst(corner, node.corner_next(corner))
            last = Xst(corner, node.corner_prev(corner))
            if sts[0] != first:
                sts = sts[::-1]
            if sts[0] != first or sts[-1] != last:
                raise AssertionError(f"bad end-points for corner {corner}")
            out[corner] = tuple(sts)
        return out

    def _region(self, cycle):
        if cycle not in self._regions:
            self._regions[cycle] = _Region(self.g, cycle)
        return self._regions[cycle]

    def _hop(self, cycle, p1, p2):
        return _lemma1_with_region(self.g, self._region(cycle), p1, p2)

    def chain_info(self, node):
        return node.chain if node.chain is not None else _chain_info(node)

    def _build_one(self, node, u):
        # the internal face of a triangle lies left of its counter-clockwise
        # darts
        v = node.corner_next(u)
        z = node.corner_prev(u)
        face = self.g.face_of_dart
        if node.kind == 'empty':
            return [Xst(u, v), Fst(face((u, v))), Xst(u, z)]
        w = node.w
        if node.kind == 'A':
            return [Xst(u, v), Fst(face((u, v))), Vst(w),
                    Fst(face((z, u))), Xst(u, z)]
        g1 = node.child_on_edge(u, v)
        g2 = node.child_on_edge(z, u)
        g3 = node.child_on_edge(v, z)
        return reference_join([self._built(g1, v), self._built(g3, w), self._built(g2, z)])

    def _build_b(self, node):
        """All three corner curves of a type-B node, from its B-chain."""
        info = self.chain_info(node)
        paths, tail = info.paths, info.tail
        u, v, z = node.corners
        singles = [c for c in node.corners if len(paths[c]) == 1]
        lam = {}

        def interior_run(p):
            return [Vst(x) for x in p[1:-1]]

        for ru, rv, rz in ((u, v, z), (v, z, u), (z, u, v)):
            pu, pv, pz = paths[ru], paths[rv], paths[rz]
            # the case analysis sees the single paths in standard position:
            # none, role z single, or roles u and v single
            if singles and (len(pz) == 1) != (len(singles) == 1):
                continue
            u_, v_, z_ = pu[-1], pv[-1], pz[-1]
            c_uv = (ru,) + pv + tuple(reversed(pu[1:]))
            c_uz = (rz,) + pu + tuple(reversed(pz[1:]))
            c_vz = (rv,) + pz + tuple(reversed(pv[1:]))
            if not singles:
                # no single path: the curve of each corner is the one of
                # role u with the roles rotated to put the corner there
                if len(pz) > 2:
                    lam[ru] = reference_join([
                        self._hop(c_uz, Xst(ru, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_vz, Vst(pz[-2]), Xst(v_, z_)),
                        self._built(tail, v_),
                        self._hop(c_uv, Xst(u_, v_), Xst(ru, rv))])
                else:
                    lam[ru] = reference_join([
                        self._hop(c_uz, Xst(ru, rz), Xst(rz, z_)),
                        self._hop(c_vz, Xst(rz, z_), Xst(v_, z_)),
                        self._built(tail, v_),
                        self._hop(c_uv, Xst(u_, v_), Xst(ru, rv))])
            elif len(singles) == 1:
                # role z is the single path (z_ == rz)
                lam[rz] = reference_join([
                    self._hop(c_uz, Xst(ru, rz), Xst(u_, rz)),
                    self._built(tail, rz),
                    self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                if len(pv) > 2:
                    lam[ru] = reference_join([
                        self._hop(c_uv, Xst(ru, rv), Vst(pv[1])),
                        interior_run(pv),
                        self._hop(c_uv, Vst(pv[-2]), Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                else:
                    lam[ru] = reference_join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                if len(pu) > 2:
                    lam[rv] = reference_join([
                        self._hop(c_uv, Xst(ru, rv), Vst(pu[1])),
                        interior_run(pu),
                        self._hop(c_uv, Vst(pu[-2]), Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                else:
                    lam[rv] = reference_join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
            else:
                # roles u and v are single paths (u_ == ru, v_ == rv)
                lam[rz] = reference_join([
                    self._hop(c_uz, Xst(ru, rz), Xst(ru, z_)),
                    self._built(tail, z_),
                    self._hop(c_vz, Xst(rv, z_), Xst(rv, rz))])
                if len(pz) > 2:
                    lam[ru] = reference_join([
                        self._hop(c_uz, Xst(ru, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_vz, Vst(pz[-2]), Xst(rv, z_)),
                        self._built(tail, rv)])
                    lam[rv] = reference_join([
                        self._hop(c_vz, Xst(rv, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_uz, Vst(pz[-2]), Xst(ru, z_)),
                        self._built(tail, ru)])
                else:
                    lam[ru] = reference_join([
                        self._hop(c_uz, Xst(ru, rz), Xst(rz, z_)),
                        self._hop(c_vz, Xst(rz, z_), Xst(rv, z_)),
                        self._built(tail, rv)])
                    lam[rv] = reference_join([
                        self._hop(c_vz, Xst(rv, rz), Xst(rz, z_)),
                        self._hop(c_uz, Xst(rz, z_), Xst(ru, z_)),
                        self._built(tail, ru)])
        return lam

    def node_bundle(self, node):
        curves = [GoodCurve(self.curve(node, c)) for c in node.corners]
        s = sum(c.vertex_count for c in curves)
        on_any = set().union(*(c.vertices for c in curves))
        x = sum(1 for vv in self.d.interior(node)
                if self.d.vertex_type(vv) == 'B' and vv not in on_any)
        return CurveBundle(curves[0], curves[1], curves[2], s, x)


_bundle_inputs = st.one_of(
    st.sampled_from(_CATALOG_UP_TO_5),
    st.builds(random_plane_3tree, st.integers(3, 150), st.integers(0, 10 ** 6)),
    st.builds(deep_stacking, st.integers(3, 150), st.integers(0, 10 ** 6)))


@settings(max_examples=40, deadline=None)
@given(_bundle_inputs)
def test_bundle_matches_reference_at_every_node(g):
    # every node's three curves, emitted from pieces, equal the copied ones;
    # nodes are asked in preorder, so parents come before their children
    d = decompose(g)
    new, old = _BundleBuilder(d), ReferenceBundleBuilder(d)
    for node in d.nodes:
        assert new.node_bundle(node) == old.node_bundle(node)
    assert build_curve_bundle(d) == old.node_bundle(d.root)


# -- DP optimum ----------------------------------------------------------------------


# The dictionary-routed DP the slot DP replaced, kept as its reference: the
# options of each signature are found from the edge and spoke keys of the
# node, the routes are keyed by (node index, signature), and every arc is
# joined from copies of its children's arcs.

def _ref_sigs(tri):
    a, b, c = tri
    e = [edge_key(a, b), edge_key(b, c), edge_key(c, a)]
    out = []
    for i in range(3):
        for j in range(i + 1, 3):
            out.append(('ee',) + tuple(sorted((e[i], e[j]))))
    for v in tri:
        out.append(('ve', v))
    return out


def _ref_dp_node(node, entries, routes):
    u, v, z = node.corners
    ent = {}
    if node.kind == 'empty':
        for sig in _ref_sigs(node.corners):
            ent[sig] = 0
            routes[(node.index, sig)] = ('base',)
        entries[node.index] = ent
        return
    w = node.w
    a1 = node.child_on_edge(u, v)
    a2 = node.child_on_edge(z, u)
    a3 = node.child_on_edge(v, z)
    euv, evz, ezu = edge_key(u, v), edge_key(v, z), edge_key(z, u)
    su, sv, sz = edge_key(u, w), edge_key(v, w), edge_key(z, w)

    def ee(e, f):
        return ('ee',) + tuple(sorted((e, f)))

    def best(sig, options):
        val, route = max(options, key=lambda t: t[0])
        ent[sig] = val
        routes[(node.index, sig)] = route

    for (ea, eb, ca, cb, cc) in ((euv, ezu, a1, a2, a3), (euv, evz, a1, a3, a2),
                                 (evz, ezu, a3, a2, a1)):
        (shared,) = set(ea) & set(eb)
        sa = edge_key(shared, w)
        others = {su, sv, sz} - {sa}
        sb = next(s for s in sorted(others) if (set(s) - {w}) <= set(ea))
        sc = next(s for s in sorted(others) if s != sb)
        ta, tb, tc = entries[ca.index], entries[cb.index], entries[cc.index]
        best(ee(ea, eb), [
            (ta[ee(ea, sa)] + tb[ee(sa, eb)],
             ('seq', (ca, ee(ea, sa)), (cb, ee(sa, eb)))),
            (ta[ee(ea, sb)] + tc[ee(sb, sc)] + tb[ee(sc, eb)],
             ('seq', (ca, ee(ea, sb)), (cc, ee(sb, sc)), (cb, ee(sc, eb)))),
            (ta[('ve', w)] + 1 + tb[('ve', w)],
             ('seq', (ca, ('ve', w)), (cb, ('ve', w)))),
        ])
    for (corner, eopp, ca, cb, cc, sa, sb) in ((u, evz, a1, a2, a3, sv, sz),
                                               (v, ezu, a1, a3, a2, su, sz),
                                               (z, euv, a2, a3, a1, su, sv)):
        ta, tb, tc = entries[ca.index], entries[cb.index], entries[cc.index]
        best(('ve', corner), [
            (ta[('ve', corner)] + tc[ee(sa, eopp)],
             ('seq', (ca, ('ve', corner)), (cc, ee(sa, eopp)))),
            (tb[('ve', corner)] + tc[ee(sb, eopp)],
             ('seq', (cb, ('ve', corner)), (cc, ee(sb, eopp)))),
            (1 + tc[('ve', w)], ('spoke', corner, (cc, ('ve', w)))),
        ])
    entries[node.index] = ent


def _ref_dp_arc(d, routes, sig):
    demand = [(d.root, sig)]
    for node, s in demand:
        route = routes[(node.index, s)]
        demand.extend(route[2:] if route[0] == 'spoke' else route[1:])
    arcs = {}
    for node, s in reversed(demand):
        route = routes[(node.index, s)]
        if route[0] == 'base':
            f = Fst(d.graph.face_of_dart(node.corners[:2]))
            if s[0] == 'ee':
                arc = [Xst(*s[1]), f, Xst(*s[2])]
            else:
                opp = edge_key(node.corner_next(s[1]), node.corner_prev(s[1]))
                arc = [Vst(s[1]), f, Xst(*opp)]
        elif route[0] == 'spoke':
            arc = reference_join([[Vst(route[1]), Vst(node.w)], arcs.pop(route[2][0].index)])
        else:
            arc = reference_join([arcs.pop(child.index) for child, _ in route[1:]])
        arcs[node.index] = arc
    return arcs[d.root.index]


def reference_dp_optimal_collinear(d):
    """(entries, curve, value): per node index the signature -> value dict,
    and the optimum with its curve, as the DP computed them before slots."""
    entries, routes = {}, {}
    for node in reversed(d.nodes):
        _ref_dp_node(node, entries, routes)
    u, v, z = d.root.corners
    ent = entries[d.root.index]
    cands = [(ent[sig] + (sig[0] == 've'), ('arc', sig))
             for sig in _ref_sigs(d.root.corners)]
    cands.append((2, ('edgewalk', edge_key(u, v))))
    val, plan = cands[0]
    for cval, cplan in cands[1:]:
        if cval > val:
            val, plan = cval, cplan
    if plan[0] == 'edgewalk':
        stations = [Vst(plan[1][0]), Vst(plan[1][1])]
    else:
        stations = _ref_dp_arc(d, routes, plan[1])
    return entries, GoodCurve(tuple(stations)), val


_dp_inputs = st.one_of(
    st.sampled_from(_CATALOG_UP_TO_5),
    st.builds(random_plane_3tree, st.integers(3, 300), st.integers(0, 10 ** 6)),
    st.builds(deep_stacking, st.integers(3, 400), st.integers(0, 10 ** 6)))


@settings(max_examples=120, deadline=None)
@given(_dp_inputs)
def test_dp_matches_reference(g):
    d = decompose(g)
    entries, ref_curve, ref_val = reference_dp_optimal_collinear(d)
    table, curve, val = dp_optimal_collinear(d)
    for node in d.nodes:
        assert table.values[node.index] == tuple(
            entries[node.index][sig] for sig in _ref_sigs(node.corners))
    assert table.at(d.root) == entries[d.root.index]
    assert val == ref_val
    assert curve.stations == ref_curve.stations


def test_dp_triangle():
    tri = PlaneGraph({0: (1, 2), 1: (2, 0), 2: (0, 1)}, outer_walk=(0, 1, 2))
    table, curve, val = dp_optimal_collinear(decompose(tri))
    assert val == 2
    assert enumerate_curves(tri).max_vertices == 2


def test_dp_k4():
    table, curve, val = dp_optimal_collinear(decompose(K4))
    assert val == enumerate_curves(K4).max_vertices == 2
    rep = validate_curve(K4, curve)
    assert rep.good and rep.proper and rep.vertex_count_on_curve == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dp_matches_oracle(m):
    for g in catalog_plane_3trees(m):
        d = decompose(g)
        table, curve, val = dp_optimal_collinear(d)
        assert val == enumerate_curves(g).max_vertices
        rep = validate_curve(g, curve)
        assert rep.good and rep.proper
        assert rep.vertex_count_on_curve == val


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dp_internal_minimum(m):
    best = min(max_internal_collinear(decompose(g))
               for g in catalog_plane_3trees(m))
    assert best == math.ceil((m + 2) / 3)


@pytest.mark.parametrize("n,seed", [(30, 0), (120, 4), (500, 8)])
def test_dp_dominates_bundle(n, seed):
    g = random_plane_3tree(n, seed)
    d = decompose(g)
    cb = build_curve_bundle(d)
    table, curve, val = dp_optimal_collinear(d)
    assert val >= cb.best.vertex_count


# -- augmentation --------------------------------------------------------------------


def test_augment_identity_on_3tree():
    g2, added = augment_to_plane_3tree(K4)
    assert g2 is K4 and added == frozenset()


def test_augment_square_to_k4():
    sq = PlaneGraph({0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
                    outer_walk=(0, 3, 2, 1))
    g2, added = augment_to_plane_3tree(sq)
    assert g2.n == 4 and len(g2.edges) == 6
    assert added == {edge_key(0, 2), edge_key(1, 3)}
    assert decompose(g2).root.m == 1


def test_augment_pentagon():
    pent = PlaneGraph({0: (1, 4), 1: (2, 0), 2: (3, 1), 3: (4, 2), 4: (0, 3)},
                      outer_walk=(0, 4, 3, 2, 1))
    g2, added = augment_to_plane_3tree(pent)
    assert g2.is_triangulation()
    d = decompose(g2)
    assert d.root.m == 2
    for e in added:
        assert not pent.has_edge(*e)


def test_augment_rejects_octahedron():
    with pytest.raises(ThreeTreeError):
        augment_to_plane_3tree(OCTAHEDRON)


# -- generator -----------------------------------------------------------------------


def test_random_generator_deterministic():
    g1 = random_plane_3tree(30, 5)
    g2 = random_plane_3tree(30, 5)
    assert g1 == g2
    assert g1 != random_plane_3tree(30, 6)


@pytest.mark.parametrize("n", [3, 4, 10, 77])
def test_random_generator_is_3tree(n):
    g = random_plane_3tree(n, n)
    assert g.n == n
    assert g.is_triangulation()
    decompose(g)


# -- pinned outputs ------------------------------------------------------------------


def test_outputs_pinned():
    # node order, counters and chains, the bundle curves (also of every node
    # of the smaller graphs) and the DP optimum, hashed; the digest comes
    # from the earlier recursive flood-fill decomposition and per-corner
    # bundle, so it pins that the flat rewrite changed no output
    small = catalog_plane_3trees(4) + [random_plane_3tree(20, 0),
                                       random_plane_3tree(100, 1)]
    graphs = small + [random_plane_3tree(400, 2), deep_stacking(600, 3)]
    h = hashlib.sha256()
    for i, g in enumerate(graphs):
        d = decompose(g)
        h.update(format_decomposition(d).encode())
        for lam in build_curve_bundle(d).curves:
            h.update(serialize_curve(g, lam).encode())
        if i < len(small):
            bb = _BundleBuilder(d)
            for node in d.nodes:
                for lam in bb.node_bundle(node).curves:
                    h.update(serialize_curve(g, lam).encode())
        _, curve, val = dp_optimal_collinear(d)
        h.update(serialize_curve(g, curve).encode() + b"value %d\n" % val)
    assert h.hexdigest() == ("a09eef1d2dd17a3f9621ff9beec2245a"
                             "594444c85840f21ffd919478d818788d")


@pytest.mark.parametrize("g, digest", [
    (random_plane_3tree(800, 11),
     "ccc083b4d26b35bb1769b3ba50711ee9cc43309b7abdb26b2b2180e3edecb7ca"),
    (random_plane_3tree(800, 12),
     "44e345ddda9129723da78d5f964795760e0371eef23d1d7d53e0763cfb3b9503"),
    (deep_stacking(1800, 13),
     "a2e55453bc82915a904ba1129e081193840214192b75a2f2046e811a942f13ce"),
], ids=["random-800-11", "random-800-12", "deep-1800-13"])
def test_outputs_pinned_at_benchmark_sizes(g, digest):
    # the three bundle curves and the DP curve and value at the sizes the
    # benchmark runs (random 3-trees of 800 vertices, deep stackings of
    # 1800), hashed as in test_outputs_pinned
    d = decompose(g)
    h = hashlib.sha256()
    for lam in build_curve_bundle(d).curves:
        h.update(serialize_curve(g, lam).encode())
    _, curve, val = dp_optimal_collinear(d)
    h.update(serialize_curve(g, curve).encode() + b"value %d\n" % val)
    assert h.hexdigest() == digest


def test_free_placements_pinned():
    # sha256 of place_free on the DP curve's labeling, re-pinned when ray
    # steps were anchored at the corner (both drawings verify): a mirrored
    # labeling or a changed placement order would change the coordinates
    cases = [
        (random_plane_3tree(400, 2),
         "7a692255f843e32e5916fab082dbe89921d82ccc69302ac1b35224d567414d20"),
        (deep_stacking(400, 3),
         "dbc41d6e896168ff91e3de02bd85a051e51faf84c391575eaeb2980b16eded3c"),
    ]
    for g, digest in cases:
        lab = labeling_from_curve(g, dp_optimal_collinear(decompose(g))[1])
        text = serialize_drawing(place_free(g, lab))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
