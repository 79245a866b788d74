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
                          ``ceil(m/8)`` of the ``m`` internal vertices); most
                          nodes join their children's curves through one
                          constant corner table, the B-chains by Lemma-1 hops;
* ``lemma1_chord``     -- a good curve between two boundary points of a
                          chord-filled cycle, crossing each inner edge at most
                          once (the combinatorial shadow of a straight segment
                          in a convex drawing);
* ``check_lemma3``     -- the six-counter audit of a bundle;
* ``dp_optimal_collinear`` -- exact maximum over proper good curves via a
                          six-signature dynamic program: six integer slots
                          per node, three options per slot read through one
                          constant table, and the optimal curve rebuilt from
                          the chosen options in O(n);
* ``augment_to_plane_3tree`` -- ear-clipping triangulation into a stacked one;
* ``random_plane_3tree``   -- deterministic random stacking generator.
"""

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

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
        """The child on edge ab either way round (corner pairs 01, 12, 20)."""
        c = self.corners
        if a != b and a in c and b in c:
            return self.children[(1 - c.index(a) - c.index(b)) % 3]
        raise KeyError(edge_key(a, b))

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
        kids = k0, k1, k2 = node.children
        center_node[node.w] = node
        kinds = (k0.kind, k1.kind, k2.kind)
        kind = node.kind = 'DCBA'[kinds.count('empty')]
        node.m = 1 + k0.m + k1.m + k2.m
        node.a = k0.a + k1.a + k2.a + (kind == 'A')
        node.b = k0.b + k1.b + k2.b + (kind == 'B')
        node.c = k0.c + k1.c + k2.c + (kind == 'C')
        node.d = k0.d + k1.d + k2.d + (kind == 'D')
        # a type-B vertex over no type-B child starts (and ends) a B-chain
        node.h = k0.h + k1.h + k2.h + (kind == 'B' and 'B' not in kinds)
        if kind != 'B':
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
    """The faces of ``g`` inside a cycle; per face, its chords as darts and
    the faces across them."""

    def __init__(self, g: PlaneGraph, cycle: Tuple[int, ...]):
        k = len(cycle)
        self.cycle_edges = {edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
        self.head, self.twin, _, region, start, _, _ = g._dart_arrays()
        twin = self.twin
        sides = [g._dart_id((cycle[i], cycle[(i + 1) % k])) for i in range(k)]
        skip = set(sides).union(twin[i] for i in sides)
        self.darts: Dict[int, List[int]] = {}
        self.nbrs: Dict[int, List[int]] = {}

        def across(f: int) -> List[int]:
            ds = self.darts[f] = [i for i in range(start[f], start[f] + len(g.faces[f]))
                                  if i not in skip]
            return self.nbrs.setdefault(f, [region[twin[i]] for i in ds])

        self.faces = reach([region[sides[0]]], across)
        if 2 * len(self.faces) != sum(map(len, self.darts.values())) + 2:
            raise ThreeTreeError("cycle interior is not chord-filled "
                                 "(contains vertices)")

    def anchors(self, g: PlaneGraph, p: Station) -> List[int]:
        if p[0] == 'x':
            f1, f2 = g.faces_of_edge(*p[1])
            return sorted(f for f in (f1, f2) if f in self.faces)
        return sorted(f for f in g.faces_at(p[1]) if f in self.faces)


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
    return _lemma1(g, tuple(cycle), p1, p2, {})


def _lemma1(g: PlaneGraph, cycle: Tuple[int, ...], p1: Station, p2: Station,
            regions: Dict[Tuple[int, ...], _Region]) -> List[Station]:
    """``lemma1_chord``, keeping regions in ``regions``; a 3-cycle around a
    face is crossed through it, ``[p1, face, p2]``, with no region."""
    if len(cycle) == 3:
        a, b, c = cycle
        f = g.face_of_dart((a, b))
        if len(g.faces[f]) == 3 and (b, c) in g.faces[f]:
            edges = {edge_key(a, b), edge_key(b, c), edge_key(c, a)}
            _check_ends(edges, p1, p2)
            if not {p1[1], p2[1]} <= edges.union(cycle):
                raise ThreeTreeError("end-point not on the cycle")
            return [p1, Fst(f), p2]
    if cycle not in regions:
        regions[cycle] = _Region(g, cycle)
    return _lemma1_with_region(g, regions[cycle], p1, p2)


def _check_ends(cycle_edges: set, p1: Station, p2: Station) -> None:
    """Two distinct end-points, not on one edge of the cycle."""
    if p1 == p2:
        raise ThreeTreeError(f"coincident end-points {p1}")
    on1, on2 = ({p[1]} if p[0] == 'x' else {e for e in cycle_edges if p[1] in e}
                for p in (p1, p2))
    if on1 & on2:
        raise ThreeTreeError(f"end-points {p1} and {p2} lie on the same edge")


def _lemma1_with_region(g: PlaneGraph, region: _Region,
                        p1: Station, p2: Station) -> List[Station]:
    _check_ends(region.cycle_edges, p1, p2)
    a1 = region.anchors(g, p1)
    a2 = region.anchors(g, p2)
    if not a1 or not a2:
        raise ThreeTreeError("end-point not on the cycle")
    dist: Dict[int, int] = {}
    for f, up in reach(a2, region.nbrs.__getitem__).items():
        dist[f] = 0 if up is None else dist[up] + 1
    start = min(a1, key=lambda f: (dist[f], f))
    stations: List[Station] = [p1, Fst(start)]
    f = start
    head, twin = region.head, region.twin
    while dist[f] > 0:
        # into the least face one step nearer p2, across the least chord
        f, e = min((f2, edge_key(head[twin[i]], head[i]))
                   for f2, i in zip(region.nbrs[f], region.darts[f])
                   if dist[f2] == dist[f] - 1)
        stations.append(Xst(*e))
        stations.append(Fst(f))
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


def _join_ends(ends: List[Tuple[Station, Station]]) -> Tuple[Station, Station, List[bool]]:
    """Join pieces, given by their (first, last) stations, end to end: the
    joined ends, and which pieces run backwards.  The first piece turns iff
    its last station is not an end of the second; each later one iff its last
    station is where the join so far ends.  Consecutive pieces must meet."""
    first, last = ends[0]
    flips = [len(ends) > 1 and last not in ends[1]]
    if flips[0]:
        first, last = last, first
    for a, b in ends[1:]:
        if last not in (a, b):
            raise AssertionError(f"pieces do not meet: {last} vs {a}")
        flips.append(last == b)
        last = a if last == b else b
    return first, last, flips


Piece = object  # an arc's key (int) or a literal run of stations


def _joined(pieces: Sequence[Piece], ends: Callable[[int], Tuple[Station, Station]]
            ) -> Tuple[List[Tuple[Piece, bool]], Tuple[Station, Station]]:
    """Pieces (arc keys, ends given by ``ends``, or literal station runs;
    empty runs dropped) joined uncopied: each with its flip, and the ends."""
    pieces = [p for p in pieces if type(p) is int or p]
    first, last, flips = _join_ends([ends(p) if type(p) is int else (p[0], p[-1])
                                     for p in pieces])
    return list(zip(pieces, flips)), (first, last)


def _emit(parts: Callable[[int], object], key: int) -> List[Station]:
    """The stations of arc ``key``; ``parts`` gives an arc's pieces and flips
    as a list, or its stations as a tuple.  One pass over an explicit stack:
    an arc read backwards is its pieces backwards, each flipped, and each
    station run after the first drops the station it shares with the one
    before.  Nothing is copied, so arcs nested to depth D cost O(length)."""
    out: List[Station] = []
    stack = [(key, False)]  # (piece, backwards)
    while stack:
        piece, back = stack.pop()
        if type(piece) is int:
            piece = parts(piece)
            if type(piece) is list:
                stack += [(p, flip != back) for p, flip in (piece if back else piece[::-1])]
                continue
        if back:
            piece = piece[::-1]
        out.extend(piece[1:] if out else piece)
    return out


# per piece of the curve at corner k of a node: (child (k + j) % 3, corner of
# that child, backwards), where child i is (corner i, corner i + 1, centre);
# see ``_BundleBuilder``
_CORNER_TABLE = ((0, 1, True), (1, 2, False), (2, 0, True))


class _BundleBuilder:
    """The three corner curves of decomposition nodes, kept across calls.

    The curve at a corner c runs from Xst(c, next corner) to Xst(c, previous
    corner), counter-clockwise, so its ends are known before it is built
    (``_ends``).  Curves are kept as pieces under key 3 * index + k for a
    node's k-th corner, built with the node's other two when ``_emit`` first
    asks for one: O(n) on any stacking, where copying curves up every level
    costs O(n * depth).  Empty and type-A nodes are not stored: their
    corners are the runs (Xst(u, v), face, Xst(u, z)) and (Xst(u, v), face,
    w, face, Xst(u, z)), with v, z the next and previous corner.

    Corner u of a node (u, v, z) with centre w is read off the children
    through ``_CORNER_TABLE``: child (u, v, w) at v backwards, then (v, z, w)
    at w, then (z, u, w) at z backwards.  The flips never change: by the rule
    above the three arcs run Xst(v, w) to Xst(u, v), Xst(v, w) to Xst(z, w)
    and Xst(z, u) to Xst(z, w).  This holds for type-C and D nodes and for a
    type-B node over no type-B child, whose Lemma-1 hops cross its two empty
    children.  A longer B-chain joins Lemma-1 hops to its tail's curves.
    """

    def __init__(self, d: ThreeTreeDecomp):
        self.d = d
        self.g = d.graph
        self._parts: Dict[int, List[Tuple[Piece, bool]]] = {}
        self._regions: Dict[Tuple[int, ...], _Region] = {}

    def _built(self, node: DecompNode, corner: int) -> int:
        return 3 * node.index + node.corners.index(corner)

    def _ends(self, key: int) -> Tuple[Station, Station]:
        # the crossings of the node's edges to the next and previous corner
        c = self.d.nodes[key // 3].corners
        k = key % 3
        return Xst(c[k], c[k - 2]), Xst(c[k], c[k - 1])

    def _pieces(self, key: int) -> object:
        """Arc ``key``'s pieces, built on first use; an empty or A node's run."""
        parts = self._parts.get(key)
        if parts is not None:
            return parts
        node = self.d.nodes[key // 3]
        if node.kind in ('B', 'C', 'D'):
            self._build(node)
            return self._parts[key]
        # the internal face of a triangle lies left of its counter-clockwise
        # darts
        c, k = node.corners, key % 3
        first, last = self._ends(key)
        face = Fst(self.g.face_of_dart((c[k], c[k - 2])))
        if node.w is None:
            return (first, face, last)
        return (first, face, Vst(node.w), Fst(self.g.face_of_dart((c[k - 1], c[k]))), last)

    def _build(self, node: DecompNode) -> None:
        # a type-B node over no type-B child (a one-vertex B-chain) hops
        # through its two empty children, which is what the table reads
        chain = node.kind == 'B' and any(k.kind == 'B' for k in node.children)
        raw = self._build_b(node) if chain else self._from_table(node)
        for k, corner in enumerate(node.corners):
            parts, (a, b) = raw[corner]
            first, last = self._ends(3 * node.index + k)
            if a != first:
                parts, (a, b) = [(p, not f) for p, f in reversed(parts)], (b, a)
            if a != first or b != last:
                raise AssertionError(f"bad end-points for corner {corner}")
            self._parts[3 * node.index + k] = parts

    def _from_table(self, node: DecompNode) -> dict:
        """All three corner curves of a node, from ``_CORNER_TABLE``."""
        kids = node.children
        raw = {}
        for k, corner in enumerate(node.corners):
            parts = [(3 * kids[(k + j) % 3].index + p, back)
                     for j, p, back in _CORNER_TABLE]
            # the joined ends: where the first piece starts, the last ends
            (k0, b0), (k2, b2) = parts[0], parts[2]
            raw[corner] = parts, (self._ends(k0)[b0], self._ends(k2)[not b2])
        return raw

    def _join(self, pieces: Sequence[Piece]) -> tuple:
        return _joined(pieces, self._ends)

    def _hop(self, cycle: Tuple[int, ...], p1: Station, p2: Station) -> List[Station]:
        return _lemma1(self.g, cycle, p1, p2, self._regions)

    def chain_info(self, node: DecompNode) -> ChainInfo:
        return node.chain if node.chain is not None else _chain_info(node)

    def _build_b(self, node: DecompNode) -> dict:
        """All three corner curves of a type-B node, from its B-chain."""
        info = self.chain_info(node)
        paths, tail = info.paths, info.tail
        u, v, z = node.corners
        singles = [c for c in node.corners if len(paths[c]) == 1]
        lam = {}

        def via(c1, a: Station, p: Tuple[int, ...], c2, b: Station) -> List[Piece]:
            # from a in cycle c1 to path p, along p (across it if it is one
            # edge), then in cycle c2 on to b
            if len(p) == 2:
                return [self._hop(c1, a, Xst(*p)), self._hop(c2, Xst(*p), b)]
            return [self._hop(c1, a, Vst(p[1])), [Vst(x) for x in p[1:-1]],
                    self._hop(c2, Vst(p[-2]), b)]

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
                lam[ru] = self._join([
                    *via(c_uz, Xst(ru, rz), pz, c_vz, Xst(v_, z_)),
                    self._built(tail, v_),
                    self._hop(c_uv, Xst(u_, v_), Xst(ru, rv))])
            elif len(singles) == 1:
                # role z is the single path (z_ == rz)
                lam[rz] = self._join([
                    self._hop(c_uz, Xst(ru, rz), Xst(u_, rz)),
                    self._built(tail, rz),
                    self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                if len(pv) > 2:
                    lam[ru] = self._join([
                        *via(c_uv, Xst(ru, rv), pv, c_uv, Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                else:
                    lam[ru] = self._join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, u_),
                        self._hop(c_uz, Xst(u_, rz), Xst(ru, rz))])
                if len(pu) > 2:
                    lam[rv] = self._join([
                        *via(c_uv, Xst(ru, rv), pu, c_uv, Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
                else:
                    lam[rv] = self._join([
                        self._hop(c_uv, Xst(ru, rv), Xst(u_, v_)),
                        self._built(tail, v_),
                        self._hop(c_vz, Xst(v_, rz), Xst(rv, rz))])
            else:
                # roles u and v are single paths (u_ == ru, v_ == rv)
                lam[rz] = self._join([
                    self._hop(c_uz, Xst(ru, rz), Xst(ru, z_)),
                    self._built(tail, z_),
                    self._hop(c_vz, Xst(rv, z_), Xst(rv, rz))])
                lam[ru] = self._join([*via(c_uz, Xst(ru, rz), pz, c_vz, Xst(rv, z_)),
                                      self._built(tail, rv)])
                lam[rv] = self._join([*via(c_vz, Xst(rv, rz), pz, c_uz, Xst(ru, z_)),
                                      self._built(tail, ru)])
        return lam

    def node_bundle(self, node: DecompNode) -> CurveBundle:
        curves = [GoodCurve(tuple(_emit(self._pieces, 3 * node.index + k)))
                  for k in range(3)]
        s = sum(c.vertex_count for c in curves)
        on_any = set().union(*(c.vertices for c in curves))
        x = sum(1 for vv in self.d.interior(node)
                if self.d.vertex_type(vv) == 'B' and vv not in on_any)
        return CurveBundle(curves[0], curves[1], curves[2], s, x)


def build_curve_bundle(d: ThreeTreeDecomp) -> CurveBundle:
    """Three validated proper good curves for the whole graph: built in O(n)
    on any stacking, each validated in O(n) on the graph's dart map."""
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
# edge.  Signature keys: ('ee', e1, e2) with e1 < e2, and ('ve', corner).  A
# node with corners (p, q, r) and edges E0 = pq, E1 = qr, E2 = rp numbers them
# by slot, in ``_sigs`` order: 0 ee(E0, E1), 1 ee(E0, E2), 2 ee(E1, E2),
# 3 ve p, 4 ve q, 5 ve r.

Sig = Tuple
_EE_PAIRS = ((0, 1), (0, 2), (1, 2))    # the edges of slots 0-2


def _sigs(tri: Tuple[int, int, int]) -> List[Sig]:
    e = [edge_key(tri[k], tri[(k + 1) % 3]) for k in range(3)]
    return ([('ee',) + tuple(sorted((e[i], e[j]))) for i, j in _EE_PAIRS]
            + [('ve', v) for v in tri])


# The three options of each slot of a node (u, v, z) with centre w, whose
# children ``decompose`` always builds as 0 = (u, v, w), 1 = (v, z, w) and
# 2 = (z, u, w): the pieces in the order the arc runs through them, as
# (child, child slot, backwards), and the vertices the option adds.  Two edges
# at a corner (slots 0-2): around the corner through its two children, the
# long way through all three, or through w.  A corner and the opposite edge
# (slots 3-5): out through either child at the corner and across the far one,
# or along the spoke from the corner to w and on from w across the far child.
# Every arc runs as ``_slot_ends`` says, so whether a piece is read backwards
# is a constant of the table.
_OPTIONS = (
    ((((0, 0, 0), (1, 1, 1)), 0), (((0, 1, 0), (2, 2, 0), (1, 0, 1)), 0),
     (((0, 5, 1), (1, 5, 0)), 1)),
    ((((0, 1, 0), (2, 0, 1)), 0), (((0, 0, 0), (1, 2, 1), (2, 1, 1)), 0),
     (((0, 5, 1), (2, 5, 0)), 1)),
    ((((1, 0, 0), (2, 1, 1)), 0), (((1, 1, 0), (0, 2, 0), (2, 0, 1)), 0),
     (((1, 5, 1), (2, 5, 0)), 1)),
    ((((0, 3, 0), (1, 1, 1)), 0), (((2, 4, 0), (1, 0, 1)), 0), (((1, 5, 0),), 1)),
    ((((0, 4, 0), (2, 0, 1)), 0), (((1, 3, 0), (2, 1, 1)), 0), (((2, 5, 0),), 1)),
    ((((2, 3, 0), (0, 1, 1)), 0), (((1, 4, 0), (0, 0, 1)), 0), (((0, 5, 0),), 1)),
)
# each option as positions in the concatenated slot values of the children
_FLAT = tuple(tuple((tuple(6 * c + t for c, t, _ in pieces), bonus)
                    for pieces, bonus in options) for options in _OPTIONS)


@dataclass
class DpTable:
    values: List[Tuple[int, ...]]       # per node index, its six slot values
    choice: bytearray                   # per 6 * index + slot, the option taken

    def at(self, node: DecompNode) -> Dict[Sig, int]:
        return dict(zip(_sigs(node.corners), self.values[node.index]))


def _dp_table(d: ThreeTreeDecomp) -> DpTable:
    """Children before parents; the first maximal option wins."""
    values: List[Tuple[int, ...]] = [(0,) * 6] * len(d.nodes)
    choice = bytearray(6 * len(d.nodes))
    for node in reversed(d.nodes):
        if node.w is None:
            continue
        c0, c1, c2 = node.children
        kids = values[c0.index] + values[c1.index] + values[c2.index]
        row = []
        for slot, options in enumerate(_FLAT):
            best = pick = -1
            for o, (pieces, bonus) in enumerate(options):
                val = bonus
                for j in pieces:
                    val += kids[j]
                if val > best:
                    best, pick = val, o
            row.append(best)
            choice[6 * node.index + slot] = pick
        values[node.index] = tuple(row)
    return DpTable(values, choice)


def _slot_ends(c: Tuple[int, int, int], slot: int) -> Tuple[Station, Station]:
    """Where an arc of ``slot`` in the triangle c starts and ends: slot (Ei,
    Ej) runs from Ei to Ej, a corner's slot from the corner to the opposite
    edge."""
    if slot >= 3:
        k = slot - 3
        return Vst(c[k]), Xst(c[(k + 1) % 3], c[(k + 2) % 3])
    i, j = _EE_PAIRS[slot]
    return Xst(c[i], c[(i + 1) % 3]), Xst(c[j], c[(j + 1) % 3])


def _dp_arc(d: ThreeTreeDecomp, table: DpTable, slot: int) -> List[Station]:
    """The arc behind the root's ``slot``, in time linear in its length.  Arc
    6 * index + s gives ``_emit`` its chosen option's pieces, each read
    backwards or not as ``_OPTIONS`` says, or in an empty triangle its
    stations: across its face between the ends that ``_slot_ends`` gives."""
    nodes, choice, face = d.nodes, table.choice, d.graph.face_of_dart

    def parts(key: int) -> object:
        node, s = nodes[key // 6], key % 6
        if node.w is None:
            first, last = _slot_ends(node.corners, s)
            return (first, Fst(face(node.corners[:2])), last)
        kids, o = node.children, choice[key]
        run = [(6 * kids[c].index + t, back) for c, t, back in _OPTIONS[s][o][0]]
        if s >= 3 and o == 2:    # the spoke to the centre
            run.insert(0, ((Vst(node.corners[s - 3]), Vst(node.w)), False))
        return run
    return _emit(parts, 6 * d.root.index + slot)


def dp_optimal_collinear(d: ThreeTreeDecomp) -> Tuple[DpTable, GoodCurve, int]:
    """Exact maximum number of vertices on a proper good curve.

    Computes, bottom-up over the decomposition, the best number of interior
    vertices reachable by a curve arc for each of the six slots (the ways the
    arc can meet a triangle boundary), then closes the recursion at the outer
    triangle (where a corner end-point adds the corner itself, and walking
    along one outer edge visits two vertices with no arc at all).  Each slot
    has three options, read off the children through the constant table
    ``_OPTIONS``; a node costs one 6-tuple of values and six bytes of choices.
    The curve is rebuilt from the choices in O(n) time and memory
    (``_dp_arc``); joining copies of the children's arcs at every level would
    cost O(n * depth), quadratic on deep stackings.  ``validate_curve`` checks
    the curve and its count before it is returned, in O(n) more on the
    graph's dart map.
    """
    table = _dp_table(d)
    cands = [x + (s >= 3) for s, x in enumerate(table.values[d.root.index])]
    val = max(cands)
    if val < 2:
        a, b = edge_key(*d.root.corners[:2])
        val, stations = 2, [Vst(a), Vst(b)]
    else:
        stations = _dp_arc(d, table, cands.index(val))
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
    return max(table.values[d.root.index])


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
