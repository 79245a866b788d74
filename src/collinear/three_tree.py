"""Plane 3-tree machinery.

A plane 3-tree (stacked triangulation) is built by repeatedly inserting a
degree-3 vertex into an internal face.  This module provides:

* ``decompose``        -- the central-vertex decomposition (found by peeling
                          degree-3 vertices, stored as a preorder node list)
                          with A/B/C/D vertex types, per-node counters and
                          B-chains;
* ``build_curve_bundle`` -- three proper good curves per node, one ending on
                          each pair of outer edges, that together visit many
                          internal vertices (max of the three visits at least
                          ``ceil(m/8)`` of the ``m`` internal vertices);
* ``lemma1_chord``     -- a good curve between two boundary points of a
                          chord-filled cycle, crossing each inner edge at most
                          once (the combinatorial shadow of a straight segment
                          in a convex drawing);
* ``check_lemma3``     -- the six-counter audit of a bundle;
* ``dp_optimal_collinear`` -- exact maximum over proper good curves via a
                          six-signature dynamic program with reconstruction;
* ``augment_to_plane_3tree`` -- ear-clipping triangulation into a stacked one;
* ``random_plane_3tree``   -- deterministic random stacking generator.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .plane_graph import PlaneGraph, edge_key, reach
from .curves import GoodCurve, Station, Vst, Xst, Fst, validate_curve


class ThreeTreeError(ValueError):
    pass


# -- decomposition -----------------------------------------------------------------


@dataclass
class ChainInfo:
    """A maximal run of type-B vertices hanging off a type-B node.

    vertices: the run ``w1, ..., wi`` (all type B).
    paths:    per corner of the head node, the built-up vertex path from that
              corner to the matching corner of the tail.
    tail:     the first non-B descendant reached through only-nonempty children.
    """
    vertices: Tuple[int, ...]
    paths: Dict[int, Tuple[int, ...]]
    tail: "DecompNode"


@dataclass
class DecompNode:
    corners: Tuple[int, int, int]       # counter-clockwise around the node
    w: Optional[int] = None             # central vertex, None iff empty
    children: Optional[Tuple["DecompNode", "DecompNode", "DecompNode"]] = None
    kind: str = 'empty'                 # 'empty', 'A', 'B', 'C', 'D'
    m: int = 0
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    h: int = 0
    index: int = -1                     # position in preorder
    chain: Optional[ChainInfo] = None   # set on B-chain heads

    def child_on_edge(self, a: int, b: int) -> "DecompNode":
        u, v, z = self.corners
        slots = {edge_key(u, v): 0, edge_key(v, z): 1, edge_key(z, u): 2}
        return self.children[slots[edge_key(a, b)]]

    def corner_next(self, a: int) -> int:
        i = self.corners.index(a)
        return self.corners[(i + 1) % 3]

    def corner_prev(self, a: int) -> int:
        i = self.corners.index(a)
        return self.corners[(i + 2) % 3]


@dataclass
class ThreeTreeDecomp:
    graph: PlaneGraph
    root: DecompNode
    nodes: List[DecompNode]                 # preorder
    center_node: Dict[int, DecompNode]      # internal vertex -> its node

    @property
    def b_chains(self) -> List[Tuple[int, ...]]:
        return [n.chain.vertices for n in self.nodes if n.chain is not None]

    def vertex_type(self, v: int) -> str:
        return self.center_node[v].kind

    def interior(self, node: DecompNode) -> FrozenSet[int]:
        """The vertices inside ``node``: the centres of its subtree, whose
        ``3m + 1`` nodes follow one another in preorder."""
        sub = self.nodes[node.index:node.index + 3 * node.m + 1]
        return frozenset(k.w for k in sub if k.w is not None)


def decompose(g: PlaneGraph) -> ThreeTreeDecomp:
    """Central-vertex decomposition of a plane 3-tree in linear time.

    Internal vertices of degree 3 are peeled off one by one; each is the
    centre of the triangle spanned by its three neighbours left at that
    point.  The graph is a plane 3-tree iff the peeling leaves only the outer
    triangle.  The nodes are listed in preorder from the outer triangle, the
    children of node (u, v, z) with centre w being (u, v, w), (v, z, w),
    (z, u, w); kinds, counters and B-chains are filled in reverse preorder.
    """
    if len(g.outer_walk()) != 3:
        raise ThreeTreeError("outer face is not a triangle")
    if not g.is_triangulation():
        raise ThreeTreeError("not every face is a triangle")
    corners = tuple(reversed(g.outer_walk()))   # counter-clockwise
    deg = {v: len(g.rot[v]) for v in g.vertices}
    todo = [v for v in g.vertices if deg[v] == 3 and v not in corners]
    peeled = set()
    centre: Dict[FrozenSet[int], int] = {}
    while todo:
        w = todo.pop()
        peeled.add(w)
        tri = frozenset(x for x in g.rot[w] if x not in peeled)
        centre[tri] = w
        for x in tri:
            deg[x] -= 1
            if deg[x] == 3 and x not in corners:
                todo.append(x)
    if len(peeled) != g.n - 3:
        raise ThreeTreeError(
            f"peeling degree-3 vertices stalls with {g.n - 3 - len(peeled)} "
            f"internal vertices left: not a stacked triangulation")
    root = DecompNode(corners)
    nodes: List[DecompNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        node.index = len(nodes)
        nodes.append(node)
        w = centre.get(frozenset(node.corners))
        if w is not None:
            ca, cb, cc = node.corners
            node.w = w
            node.children = (DecompNode((ca, cb, w)), DecompNode((cb, cc, w)),
                             DecompNode((cc, ca, w)))
            stack.extend(reversed(node.children))
    center_node: Dict[int, DecompNode] = {}
    for node in reversed(nodes):
        if node.w is None:
            continue
        kids = node.children
        center_node[node.w] = node
        kinds = [k.kind for k in kids]
        node.kind = 'DCBA'[kinds.count('empty')]
        node.m = 1 + sum(k.m for k in kids)
        node.a = sum(k.a for k in kids) + (node.kind == 'A')
        node.b = sum(k.b for k in kids) + (node.kind == 'B')
        node.c = sum(k.c for k in kids) + (node.kind == 'C')
        node.d = sum(k.d for k in kids) + (node.kind == 'D')
        # a type-B vertex over no type-B child starts (and ends) a B-chain
        node.h = sum(k.h for k in kids) + (node.kind == 'B' and 'B' not in kinds)
        if node.kind != 'B':
            for k in kids:
                if k.kind == 'B':
                    k.chain = _chain_info(k)
    if root.kind == 'B':
        root.chain = _chain_info(root)
    return ThreeTreeDecomp(g, root, nodes, center_node)


def _chain_info(head: DecompNode) -> ChainInfo:
    """Follow only-nonempty children through consecutive type-B nodes.

    Each step replaces one triangle corner by the dropped central vertex; the
    replaced corner's path grows by one edge.
    """
    paths = {c: [c] for c in head.corners}
    ends = {c: c for c in head.corners}     # path key -> current endpoint
    chain: List[int] = []
    node = head
    while True:
        nxt = next(k for k in node.children if k.kind != 'empty')
        missing = next(c for c in node.corners if c not in nxt.corners)
        key = next(k for k, e in ends.items() if e == missing)
        paths[key].append(node.w)
        ends[key] = node.w
        chain.append(node.w)
        if nxt.kind != 'B':
            return ChainInfo(tuple(chain),
                             {k: tuple(p) for k, p in paths.items()}, nxt)
        node = nxt


def format_decomposition(d: ThreeTreeDecomp) -> str:
    lines: List[str] = []
    stack = [(d.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = '  ' * depth
        u, v, z = node.corners
        if node.kind == 'empty':
            lines.append(f"{pad}({u},{v},{z}) empty")
            continue
        lines.append(f"{pad}({u},{v},{z}) type={node.kind} w={node.w} "
                     f"m={node.m} a={node.a} b={node.b} c={node.c} "
                     f"d={node.d} h={node.h}")
        stack.extend((k, depth + 1) for k in reversed(node.children))
    for chain in d.b_chains:
        lines.append("b-chain " + ",".join(str(v) for v in chain))
    return "\n".join(lines) + "\n"


# -- good curves inside a chord-filled cycle ---------------------------------------


class _Region:
    """The faces of ``g`` inside a cycle, their chord-dual tree, and lookups."""

    def __init__(self, g: PlaneGraph, cycle: Tuple[int, ...]):
        self.cycle = cycle
        k = len(cycle)
        self.cycle_edges = {edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
        faces = self.faces = set(reach(
            [g.face_of_dart((cycle[0], cycle[1]))],
            lambda f: (g.face_of_dart((b, a)) for (a, b) in g.faces[f]
                       if edge_key(a, b) not in self.cycle_edges)))
        self.adj: Dict[int, List[Tuple[Tuple[int, int], int]]] = {f: [] for f in faces}
        chords = set()
        for f in faces:
            for (a, b) in g.faces[f]:
                e = edge_key(a, b)
                if e in self.cycle_edges or e in chords:
                    continue
                f2 = g.face_of_dart((b, a))
                chords.add(e)
                self.adj[f].append((e, f2))
                self.adj[f2].append((e, f))
        self.chords = chords
        for f in faces:
            self.adj[f].sort()
        if len(faces) != len(chords) + 1:
            raise ThreeTreeError("cycle interior is not chord-filled "
                                 "(contains vertices)")
        self.vertex_faces: Dict[int, List[int]] = {}
        for f in sorted(faces):
            for v in g.face_vertices(f):
                self.vertex_faces.setdefault(v, []).append(f)

    def anchors(self, g: PlaneGraph, p: Station) -> List[int]:
        if p[0] == 'x':
            f1, f2 = g.faces_of_edge(*p[1])
            return sorted(f for f in (f1, f2) if f in self.faces)
        return sorted(self.vertex_faces.get(p[1], []))


def lemma1_chord(g: PlaneGraph, cycle: Sequence[int],
                 p1: Station, p2: Station) -> List[Station]:
    """Good curve between two boundary points of a chord-filled cycle.

    ``cycle`` lists the vertices with the filled side on the left of each
    consecutive dart.  ``p1``/``p2`` are boundary points: either a Vertex
    station for a cycle vertex or a Crossing station for a cycle edge.  The
    returned station list crosses exactly those chords that separate the two
    points around the cycle, once each -- what a straight segment does in a
    convex drawing of the cycle.
    """
    cycle = tuple(cycle)
    region = _Region(g, cycle)
    return _lemma1_with_region(g, region, p1, p2)


def _on_edges(region: _Region, p: Station) -> set:
    if p[0] == 'x':
        return {p[1]}
    v = p[1]
    return {e for e in region.cycle_edges if v in e}


def _lemma1_with_region(g: PlaneGraph, region: _Region,
                        p1: Station, p2: Station) -> List[Station]:
    if p1 == p2:
        raise ThreeTreeError(f"coincident end-points {p1}")
    if _on_edges(region, p1) & _on_edges(region, p2):
        raise ThreeTreeError(f"end-points {p1} and {p2} lie on the same edge")
    a1 = region.anchors(g, p1)
    a2 = region.anchors(g, p2)
    if not a1 or not a2:
        raise ThreeTreeError("end-point not on the cycle")
    dist: Dict[int, int] = {}
    for f, up in reach(a2, lambda f: (f2 for (_, f2) in region.adj[f])).items():
        dist[f] = 0 if up is None else dist[up] + 1
    start = min(a1, key=lambda f: (dist[f], f))
    stations: List[Station] = [p1, Fst(start)]
    f = start
    while dist[f] > 0:
        e, f2 = min(((e, f2) for (e, f2) in region.adj[f] if dist[f2] == dist[f] - 1),
                    key=lambda t: t[1])
        stations.append(Xst(*e))
        stations.append(Fst(f2))
        f = f2
    stations.append(p2)
    return stations


# -- curve bundle ------------------------------------------------------------------


@dataclass
class CurveBundle:
    """Three proper good curves, one per corner of the outer triangle.

    ``lambda_u`` ends on the two outer edges at the first corner, and so on
    around the triangle.  ``s`` is the total vertex-visit count over the three
    curves (with multiplicity); ``x`` counts type-B internal vertices missed by
    all three.
    """
    lambda_u: GoodCurve
    lambda_v: GoodCurve
    lambda_z: GoodCurve

    s: int
    x: int

    @property
    def curves(self) -> Tuple[GoodCurve, GoodCurve, GoodCurve]:
        return (self.lambda_u, self.lambda_v, self.lambda_z)

    @property
    def best(self) -> GoodCurve:
        return max(self.curves, key=lambda c: c.vertex_count)


def _join(pieces: List[List[Station]]) -> List[Station]:
    """Concatenate curve pieces end to end, flipping as needed.

    Consecutive pieces must share an end station; the shared station is kept
    once (a shared Crossing becomes one proper crossing, a shared Vertex one
    visit).
    """
    pieces = [list(p) for p in pieces if p]
    out = pieces[0]
    if len(pieces) > 1 and out[-1] not in (pieces[1][0], pieces[1][-1]):
        out = out[::-1]
    for q in pieces[1:]:
        if out[-1] == q[-1]:
            q = q[::-1]
        if out[-1] != q[0]:
            raise AssertionError(f"pieces do not meet: {out[-1]} vs {q[0]}")
        out.extend(q[1:])
    return out


class _BundleBuilder:
    """The three corner curves of decomposition nodes, kept across calls.

    The curve for a corner runs from the crossing with the edge to the next
    corner (counter-clockwise) to the crossing with the edge to the previous
    corner.  A node's three curves are built together, after the curves of
    the nodes they are made of: children before parents, no recursion.
    """

    def __init__(self, d: ThreeTreeDecomp):
        self.d = d
        self.g = d.graph
        self._memo: Dict[int, Dict[int, Tuple[Station, ...]]] = {}
        self._regions: Dict[Tuple[int, ...], _Region] = {}

    def curve(self, node: DecompNode, corner: int) -> Tuple[Station, ...]:
        if node.index not in self._memo:
            todo = [node]
            for nd in todo:
                if nd.index not in self._memo:
                    todo.extend(self._parts(nd))
            for nd in reversed(todo):
                if nd.index not in self._memo:
                    self._memo[nd.index] = self._build(nd)
        return self._memo[node.index][corner]

    def _built(self, node: DecompNode, corner: int) -> Tuple[Station, ...]:
        return self._memo[node.index][corner]

    def _parts(self, node: DecompNode) -> Tuple[DecompNode, ...]:
        """The nodes whose curves the curves of ``node`` are joined from."""
        if node.kind in ('C', 'D'):
            return node.children
        if node.kind == 'B':
            return (self.chain_info(node).tail,)
        return ()

    def _build(self, node: DecompNode) -> Dict[int, Tuple[Station, ...]]:
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

    def _region(self, cycle: Tuple[int, ...]) -> _Region:
        if cycle not in self._regions:
            self._regions[cycle] = _Region(self.g, cycle)
        return self._regions[cycle]

    def _hop(self, cycle: Tuple[int, ...], p1: Station, p2: Station) -> List[Station]:
        return _lemma1_with_region(self.g, self._region(cycle), p1, p2)

    def chain_info(self, node: DecompNode) -> ChainInfo:
        return node.chain if node.chain is not None else _chain_info(node)

    def _build_one(self, node: DecompNode, u: int) -> List[Station]:
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
        return _join([self._built(g1, v), self._built(g3, w), self._built(g2, z)])

    def _build_b(self, node: DecompNode) -> Dict[int, List[Station]]:
        """All three corner curves of a type-B node, from its B-chain."""
        info = self.chain_info(node)
        paths, tail = info.paths, info.tail
        u, v, z = node.corners
        singles = [c for c in node.corners if len(paths[c]) == 1]
        lam: Dict[int, List[Station]] = {}

        def interior_run(p: Tuple[int, ...]) -> List[Station]:
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
                    lam[ru] = _join([
                        self._hop(c_uz, Xst(ru, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_vz, Vst(pz[-2]), Xst(v_, z_)),
                        self._built(tail, v_),
                        self._hop(c_uv, Xst(u_, v_), Xst(ru, rv))])
                else:
                    lam[ru] = _join([
                        self._hop(c_uz, Xst(ru, rz), Xst(rz, z_)),
                        self._hop(c_vz, Xst(rz, z_), Xst(v_, z_)),
                        self._built(tail, v_),
                        self._hop(c_uv, Xst(u_, v_), Xst(ru, rv))])
            elif len(singles) == 1:
                # role z is the single path (z_ == rz)
                lam[rz] = _join([
                    self._hop(c_uz, Xst(ru, rz), Xst(u_, rz)),
                    self._built(tail, rz),
                    self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                if len(pv) > 2:
                    lam[ru] = _join([
                        self._hop(c_uv, Xst(ru, rv), Vst(pv[1])),
                        interior_run(pv),
                        self._hop(c_uv, Vst(pv[-2]), Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                else:
                    lam[ru] = _join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                if len(pu) > 2:
                    lam[rv] = _join([
                        self._hop(c_uv, Xst(ru, rv), Vst(pu[1])),
                        interior_run(pu),
                        self._hop(c_uv, Vst(pu[-2]), Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                else:
                    lam[rv] = _join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
            else:
                # roles u and v are single paths (u_ == ru, v_ == rv)
                lam[rz] = _join([
                    self._hop(c_uz, Xst(ru, rz), Xst(ru, z_)),
                    self._built(tail, z_),
                    self._hop(c_vz, Xst(rv, z_), Xst(rv, rz))])
                if len(pz) > 2:
                    lam[ru] = _join([
                        self._hop(c_uz, Xst(ru, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_vz, Vst(pz[-2]), Xst(rv, z_)),
                        self._built(tail, rv)])
                    lam[rv] = _join([
                        self._hop(c_vz, Xst(rv, rz), Vst(pz[1])),
                        interior_run(pz),
                        self._hop(c_uz, Vst(pz[-2]), Xst(ru, z_)),
                        self._built(tail, ru)])
                else:
                    lam[ru] = _join([
                        self._hop(c_uz, Xst(ru, rz), Xst(rz, z_)),
                        self._hop(c_vz, Xst(rz, z_), Xst(rv, z_)),
                        self._built(tail, rv)])
                    lam[rv] = _join([
                        self._hop(c_vz, Xst(rv, rz), Xst(rz, z_)),
                        self._hop(c_uz, Xst(rz, z_), Xst(ru, z_)),
                        self._built(tail, ru)])
        return lam

    def node_bundle(self, node: DecompNode) -> CurveBundle:
        curves = [GoodCurve(self.curve(node, c)) for c in node.corners]
        s = sum(c.vertex_count for c in curves)
        on_any = set().union(*(c.vertices for c in curves))
        x = sum(1 for vv in self.d.interior(node)
                if self.d.vertex_type(vv) == 'B' and vv not in on_any)
        return CurveBundle(curves[0], curves[1], curves[2], s, x)


def build_curve_bundle(d: ThreeTreeDecomp) -> CurveBundle:
    """Three validated proper good curves for the whole graph."""
    cb = _BundleBuilder(d).node_bundle(d.root)
    for lam in cb.curves:
        rep = validate_curve(d.graph, lam)
        if not rep.good or not rep.proper:
            raise AssertionError(f"constructed curve is not proper good: "
                                 f"{rep.violations}")
    return cb


@dataclass
class Lemma3Report:
    items: List[Tuple[str, bool, str]]
    ok: bool
    first_violation: Optional[str]


def check_lemma3(d: ThreeTreeDecomp, cb: CurveBundle,
                 node: Optional[DecompNode] = None) -> Lemma3Report:
    """Audit the six counting (in)equalities tying a bundle to its node."""
    n = node if node is not None else d.root
    checks = [("1: a+b+c+d = m", n.a + n.b + n.c + n.d == n.m,
               f"{n.a}+{n.b}+{n.c}+{n.d} vs {n.m}")]
    if n.m >= 1:
        checks.append(("2: a = c+2d+1", n.a == n.c + 2 * n.d + 1,
                       f"{n.a} vs {n.c}+2*{n.d}+1"))
        checks.append(("3: h <= 2c+3d+1", n.h <= 2 * n.c + 3 * n.d + 1,
                       f"{n.h} vs 2*{n.c}+3*{n.d}+1"))
    checks.append(("4: x <= b", cb.x <= n.b, f"{cb.x} vs {n.b}"))
    checks.append(("5: x <= 3h", cb.x <= 3 * n.h, f"{cb.x} vs 3*{n.h}"))
    checks.append(("6: s >= 3a+b-x", cb.s >= 3 * n.a + n.b - cb.x,
                   f"{cb.s} vs 3*{n.a}+{n.b}-{cb.x}"))
    checks.append(("bound: 8s >= 3m", 8 * cb.s >= 3 * n.m,
                   f"8*{cb.s} vs 3*{n.m}"))
    first = next((name for name, ok, _ in checks if not ok), None)
    return Lemma3Report([(nm, ok, det) for nm, ok, det in checks],
                        first is None, first)


# -- six-signature optimum ---------------------------------------------------------

# A proper good curve meets a triangle boundary in one of six ways: crossing
# two of the three edges, or ending at a corner and crossing the opposite
# edge.  Signature keys: ('ee', e1, e2) with e1 < e2, and ('ve', corner).

Sig = Tuple


def _sigs(tri: Tuple[int, int, int]) -> List[Sig]:
    a, b, c = tri
    e = [edge_key(a, b), edge_key(b, c), edge_key(c, a)]
    out: List[Sig] = []
    for i in range(3):
        for j in range(i + 1, 3):
            out.append(('ee',) + tuple(sorted((e[i], e[j]))))
    for v in tri:
        out.append(('ve', v))
    return out


@dataclass
class DpTable:
    entries: Dict[int, Dict[Sig, int]]
    _routes: Dict[Tuple[int, Sig], Tuple] = field(default_factory=dict, repr=False)

    def at(self, node: DecompNode) -> Dict[Sig, int]:
        return self.entries[node.index]


def _dp_node(node: DecompNode, table: DpTable) -> None:
    u, v, z = node.corners
    ent: Dict[Sig, int] = {}
    routes = table._routes
    if node.kind == 'empty':
        for sig in _sigs(node.corners):
            ent[sig] = 0
            routes[(node.index, sig)] = ('base',)
        table.entries[node.index] = ent
        return
    w = node.w
    a1 = node.child_on_edge(u, v)       # triangle (u, v, w)
    a2 = node.child_on_edge(z, u)       # triangle (z, u, w)
    a3 = node.child_on_edge(v, z)       # triangle (v, z, w)
    euv, evz, ezu = edge_key(u, v), edge_key(v, z), edge_key(z, u)
    su, sv, sz = edge_key(u, w), edge_key(v, w), edge_key(z, w)

    def ee(e, f) -> Sig:
        return ('ee',) + tuple(sorted((e, f)))

    def best(sig: Sig, options) -> None:
        val, route = max(options, key=lambda t: t[0])
        ent[sig] = val
        routes[(node.index, sig)] = route

    # two boundary edges sharing a corner: around the corner-side child pair,
    # the long way through all three children, or through the hub vertex.
    for (ea, eb, ca, cb, cc) in (
            (euv, ezu, a1, a2, a3),     # edges at u
            (euv, evz, a1, a3, a2),     # edges at v
            (evz, ezu, a3, a2, a1)):    # edges at z
        sa = edge_key(_shared_corner(ea, eb), w)
        # the spoke between the two other children is the one avoiding
        # the shared corner entirely
        others = {su, sv, sz} - {sa}
        sb = next(s for s in sorted(others) if _touches(s, ea, (u, v, z), w))
        sc = next(s for s in sorted(others) if s != sb)
        ta, tb, tc = table.entries[ca.index], table.entries[cb.index], table.entries[cc.index]
        best(ee(ea, eb), [
            (ta[ee(ea, sa)] + tb[ee(sa, eb)],
             ('seq', (ca, ee(ea, sa)), (cb, ee(sa, eb)))),
            (ta[ee(ea, sb)] + tc[ee(sb, sc)] + tb[ee(sc, eb)],
             ('seq', (ca, ee(ea, sb)), (cc, ee(sb, sc)), (cb, ee(sc, eb)))),
            (ta[('ve', w)] + 1 + tb[('ve', w)],
             ('seq', (ca, ('ve', w)), (cb, ('ve', w)))),
        ])
    # a corner plus the opposite edge: out through either adjacent child and
    # across the far one, or along the contained spoke to the hub.
    for (corner, eopp, ca, cb, cc, sa, sb) in (
            (u, evz, a1, a2, a3, sv, sz),
            (v, ezu, a1, a3, a2, su, sz),
            (z, euv, a2, a3, a1, su, sv)):
        ta, tb, tc = table.entries[ca.index], table.entries[cb.index], table.entries[cc.index]
        best(('ve', corner), [
            (ta[('ve', corner)] + tc[ee(sa, eopp)],
             ('seq', (ca, ('ve', corner)), (cc, ee(sa, eopp)))),
            (tb[('ve', corner)] + tc[ee(sb, eopp)],
             ('seq', (cb, ('ve', corner)), (cc, ee(sb, eopp)))),
            (1 + tc[('ve', w)],
             ('spoke', corner, (cc, ('ve', w)))),
        ])
    table.entries[node.index] = ent


def _shared_corner(ea: Tuple[int, int], eb: Tuple[int, int]) -> int:
    (s,) = set(ea) & set(eb)
    return s


def _touches(spoke, edge, corners, w) -> bool:
    (c,) = set(spoke) - {w}
    return c in edge


def _dp_arc(d: ThreeTreeDecomp, table: DpTable, sig: Sig) -> List[Station]:
    """The arc behind the root's table entry ``sig``, joined bottom-up from
    the arcs its routes take through the children."""
    routes = table._routes
    demand = [(d.root, sig)]
    for node, s in demand:      # a route asks each child for one signature
        route = routes[(node.index, s)]
        demand.extend(route[2:] if route[0] == 'spoke' else route[1:])
    arcs: Dict[int, List[Station]] = {}
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
            arc = _join([[Vst(route[1]), Vst(node.w)],
                         arcs.pop(route[2][0].index)])
        else:
            arc = _join([arcs.pop(child.index) for child, _ in route[1:]])
        arcs[node.index] = arc
    return arcs[d.root.index]


def dp_optimal_collinear(d: ThreeTreeDecomp) -> Tuple[DpTable, GoodCurve, int]:
    """Exact maximum number of vertices on a proper good curve.

    Computes, bottom-up over the decomposition, the best number of interior
    vertices reachable by a curve arc for each of the six ways the arc can
    meet a triangle boundary, then closes the recursion at the outer triangle
    (where a corner end-point adds the corner itself, and walking along one
    outer edge visits two vertices with no arc at all).
    """
    table = DpTable({})
    for node in reversed(d.nodes):
        _dp_node(node, table)
    root = d.root
    u, v, z = root.corners
    ent = table.entries[root.index]
    cands: List[Tuple[int, Tuple]] = []
    for sig in _sigs(root.corners):
        if sig[0] == 'ee':
            cands.append((ent[sig], ('arc', sig)))
        else:
            cands.append((ent[sig] + 1, ('arc', sig)))
    cands.append((2, ('edgewalk', edge_key(u, v))))
    val, plan = cands[0]
    for cval, cplan in cands[1:]:
        if cval > val:
            val, plan = cval, cplan
    if plan[0] == 'edgewalk':
        stations: List[Station] = [Vst(plan[1][0]), Vst(plan[1][1])]
    else:
        stations = _dp_arc(d, table, plan[1])
    curve = GoodCurve(tuple(stations))
    rep = validate_curve(d.graph, curve)
    if not (rep.good and rep.proper and rep.vertex_count_on_curve == val):
        raise AssertionError(
            f"reconstructed optimum failed validation: count "
            f"{rep.vertex_count_on_curve} vs {val}, good={rep.good}, "
            f"proper={rep.proper}, violations={rep.violations}")
    return table, curve, val


def max_internal_collinear(d: ThreeTreeDecomp) -> int:
    """Maximum number of *internal* vertices on a proper good curve."""
    table, _, _ = dp_optimal_collinear(d)
    return max(table.entries[d.root.index].values())


# -- augmentation ------------------------------------------------------------------


def augment_to_plane_3tree(g: PlaneGraph) -> Tuple[PlaneGraph, FrozenSet[Tuple[int, int]]]:
    """Ear-clip every face into triangles, then demand a stacked structure.

    Returns the augmented graph and the set of inserted edges (so drawings can
    drop them again).  Raises ThreeTreeError with the blocking face or the
    failing triangle when the input fits no plane 3-tree with this embedding.
    """
    if g.n < 3:
        raise ThreeTreeError("need at least 3 vertices")
    rot = {vv: list(nbrs) for vv, nbrs in g.rot.items()}
    adj = {vv: set(nbrs) for vv, nbrs in g.rot.items()}
    added: List[Tuple[int, int]] = []

    def clip(walk: List[int]) -> List[int]:
        while len(walk) > 3:
            for j in range(len(walk)):
                x, y = walk[j - 1], walk[(j + 1) % len(walk)]
                if x == y or y in adj[x]:
                    continue
                mid = walk[j]
                rot[x].insert(rot[x].index(mid), y)
                rot[y].insert(rot[y].index(walk[(j + 2) % len(walk)]), x)
                adj[x].add(y)
                adj[y].add(x)
                added.append(edge_key(x, y))
                del walk[j]
                break
            else:
                raise ThreeTreeError(
                    f"face {walk} cannot be triangulated without parallel "
                    f"edges: no plane 3-tree contains this embedding")
        return walk

    order = [g.outer] + sorted(g.internal_faces(), key=g.face_key)
    outer_walk = list(g.outer_walk())
    for i in order:
        walk = list(g.face_vertices(i))
        if len(set(walk)) != len(walk):
            raise ThreeTreeError(
                f"face walk {walk} revisits a vertex (cut vertex): "
                f"no plane 3-tree contains this embedding")
        final = clip(walk)
        if i == g.outer:
            outer_walk = final
    if not added:
        result = g
    else:
        result = PlaneGraph(rot, outer_walk=tuple(outer_walk))
    try:
        decompose(result)
    except ThreeTreeError as exc:
        raise ThreeTreeError(
            f"triangulated embedding is not a stacked triangulation: {exc}")
    return result, frozenset(added)


# -- generation --------------------------------------------------------------------


def random_plane_3tree(n: int, seed: int = 0) -> PlaneGraph:
    """Uniformly random stacking order; deterministic for a given seed."""
    if n < 3:
        raise ThreeTreeError("need at least 3 vertices")
    rng = random.Random(seed)
    rot: Dict[int, List[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces: List[Tuple[int, int, int]] = [(0, 2, 1)]   # ccw internal walks
    for w in range(3, n):
        f0, f1, f2 = faces.pop(rng.randrange(len(faces)))
        rot[w] = [f2, f1, f0]
        for vv, succ in ((f0, f1), (f1, f2), (f2, f0)):
            rot[vv].insert(rot[vv].index(succ), w)
        faces.extend([(f0, f1, w), (f1, f2, w), (f2, f0, w)])
    return PlaneGraph(rot, outer_walk=(0, 1, 2))
