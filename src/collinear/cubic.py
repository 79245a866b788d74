"""Collinear sets in triconnected cubic plane graphs via chain decompositions.

Removing one outer edge (u,v) of a triconnected cubic plane graph leaves a
*well-formed quadruple* (G,u,v,X): a biconnected subcubic plane graph whose
separation pairs all sit on the outer face, together with a sequence X of
degree-2 boundary vertices the curve must dodge.  A recursive construction
produces a proper good curve from u to a point z on the counter-clockwise
boundary path, touching that path in boundary order, avoiding X, and charging
every skipped vertex to an on-curve vertex with charge at most 3 (at most 1 on
u) — hence the curve carries at least a quarter of the vertices.

Curves are built as abstract station lists whose face hops are tagged by a
dart (a,b): the hop travels through whatever face lies left of a->b.  Because
every internal face of every recursive subgraph is a face of the original
graph, the tags resolve uniformly at the very end via ``face_of_dart``, no
matter how deep the recursion that emitted them.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .curves import (CurveError, Fst, GoodCurve, Station, Vst, Xst, _Engine,
                     _augment, check_well_formed, edge_tallies)
from .plane_graph import PlaneGraph, _blocks, edge_key

__all__ = [
    "CubicError", "Quadruple", "ChainDecomposition", "ChargedCurve",
    "make_quadruple", "chain_decompose", "build_cubic_curve", "theorem4",
    "generate_triconnected_cubic", "verify_charged_curve", "charge_lines",
]


class CubicError(ValueError):
    """Raised for malformed quadruples and failed construction invariants."""


# -- domain types -----------------------------------------------------------------


@dataclass(frozen=True)
class Quadruple:
    """Validated (G, u, v, X); build through :func:`make_quadruple`."""
    g: PlaneGraph
    u: int
    v: int
    x_seq: Tuple[int, ...]

    @property
    def beta(self) -> Tuple[int, ...]:
        """Counter-clockwise outer boundary path from u to v."""
        return self.g.boundary_path(self.u, self.v, clockwise=False)

    @property
    def tau(self) -> Tuple[int, ...]:
        """Clockwise outer boundary path from u to v."""
        return self.g.boundary_path(self.u, self.v, clockwise=True)


@dataclass(frozen=True)
class ChainDecomposition:
    """Block chain of the boundary component between two boundary vertices.

    Either a bare path (``is_path``) or an alternation
    ``p0, blocks[0], links[0], blocks[1], ..., blocks[k-1], pk`` where paths
    include their shared endpoints with the neighbouring blocks.
    """
    is_path: bool
    path: Tuple[int, ...] = ()
    p0: Tuple[int, ...] = ()
    blocks: Tuple[Quadruple, ...] = ()
    links: Tuple[Tuple[int, ...], ...] = ()
    pk: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ChargedCurve:
    """A good curve plus the charge map for the vertices it skips."""
    curve: GoodCurve
    charges: Dict[int, int]


# -- well-formed quadruples -----------------------------------------------------------


def make_quadruple(g: PlaneGraph, u: int, v: int,
                   x_seq: Sequence[int]) -> Quadruple:
    """Validate properties (a)-(f) and return the quadruple, else raise."""
    if any(g.degree(w) > 3 for w in g.vertices):
        raise CubicError("(a) graph is not subcubic")
    if not g.is_biconnected():
        raise CubicError("(a) graph is not biconnected")
    outer = g.outer_walk()
    outer_set = set(outer)
    if u == v or u not in outer_set or v not in outer_set:
        raise CubicError("(b) u and v must be distinct external vertices")
    if g.degree(u) != 2 or g.degree(v) != 2:
        raise CubicError("(c) u and v must have degree 2")
    if g.has_edge(u, v):
        tau = g.boundary_path(u, v, clockwise=True)
        if len(tau) != 2:
            raise CubicError("(d) edge (u,v) exists but is not the clockwise "
                             "boundary path from u to v")
    beta = g.boundary_path(u, v, clockwise=False)
    beta_pos = {w: i for i, w in enumerate(beta)}
    for (a, b) in g.separation_pairs():
        if a not in outer_set or b not in outer_set:
            raise CubicError(f"(e) separation pair ({a},{b}) has an internal vertex")
        internal = [w for w in (a, b)
                    if w in beta_pos and 0 < beta_pos[w] < len(beta) - 1]
        if not internal:
            raise CubicError(f"(e) separation pair ({a},{b}) has no vertex "
                             "internal to the counter-clockwise boundary path")
        for comp in g.components_without([a, b]):
            if not (comp & outer_set):
                raise CubicError(f"(e) a nontrivial ({a},{b})-component has no "
                                 "external vertex besides the pair")
    seen_x = set()
    last = 0
    for x in x_seq:
        if x in seen_x:
            raise CubicError(f"(f) duplicate vertex {x} in X")
        seen_x.add(x)
        if g.degree(x) != 2:
            raise CubicError(f"(f) X vertex {x} does not have degree 2")
        pos = beta_pos.get(x)
        if pos is None or pos == 0 or pos == len(beta) - 1:
            raise CubicError(f"(f) X vertex {x} is not internal to the "
                             "counter-clockwise boundary path")
        if pos <= last:
            raise CubicError(f"(f) X vertex {x} out of boundary order")
        last = pos
    return Quadruple(g, u, v, tuple(x_seq))


# -- chain decomposition -----------------------------------------------------------


def _chain_structure(graph: PlaneGraph, a: int, b: int,
                     ambient_x: Sequence[int]) -> ChainDecomposition:
    """Decompose a boundary component into p0 + blocks + links + pk."""
    adj = {v: list(graph.rot[v]) for v in graph.vertices}
    blocks = _blocks(adj)
    nontrivial = [c for c in blocks if len(c) > 2]
    if not nontrivial:
        # bare path from a to b
        path = [a]
        prev = None
        cur = a
        while cur != b:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) != 1:
                raise CubicError("boundary component is neither a path nor a chain")
            prev, cur = cur, nxt[0]
            path.append(cur)
        return ChainDecomposition(is_path=True, path=tuple(path))

    # block-cut tree, walked from a to b
    in_blocks: Dict[int, List[int]] = {}
    for i, c in enumerate(blocks):
        for v in c:
            in_blocks.setdefault(v, []).append(i)
    tree: Dict[Tuple, List[Tuple]] = {}
    for v, bs in in_blocks.items():
        if len(bs) > 1 or v in (a, b):
            for i in bs:
                tree.setdefault(('C', v), []).append(('B', i))
                tree.setdefault(('B', i), []).append(('C', v))
    start, goal = ('C', a), ('C', b)
    prev_node: Dict[Tuple, Tuple] = {start: start}
    queue = [start]
    while queue and goal not in prev_node:
        nxt = []
        for node in queue:
            for w in tree.get(node, ()):
                if w not in prev_node:
                    prev_node[w] = node
                    nxt.append(w)
        queue = nxt
    if goal not in prev_node:
        raise CubicError("boundary component does not connect the pair")
    node_path = [goal]
    while node_path[-1] != start:
        node_path.append(prev_node[node_path[-1]])
    node_path.reverse()

    # linearize: alternating cut vertices and blocks
    segments: List[Tuple[str, object]] = []  # ('path', verts) | ('block', (set, u_i, v_i))
    cur_path: List[int] = [a]
    for k in range(1, len(node_path), 2):
        bi = node_path[k][1]
        entry = node_path[k - 1][1]
        exit_ = node_path[k + 1][1]
        comp = blocks[bi]
        if len(comp) == 2:
            cur_path.append(exit_)
        else:
            segments.append(('path', tuple(cur_path)))
            segments.append(('block', (comp, entry, exit_)))
            cur_path = [exit_]
    segments.append(('path', tuple(cur_path)))

    amb = list(ambient_x)
    quads: List[Quadruple] = []
    links: List[Tuple[int, ...]] = []
    for idx, (kind, payload) in enumerate(segments):
        if kind != 'block':
            continue
        comp, u_i, v_i = payload
        sub = graph.subgraph(comp)
        x_i = tuple(x for x in amb if x in comp and x not in (u_i, v_i))
        quads.append(make_quadruple(sub, u_i, v_i, x_i))
    p0 = segments[0][1]
    pk = segments[-1][1]
    inner_paths = [payload for kind, payload in segments[1:-1] if kind == 'path']
    for lp in inner_paths:
        if len(lp) < 2:
            raise CubicError("chain blocks share a vertex (graph not subcubic?)")
    return ChainDecomposition(is_path=False, p0=tuple(p0), blocks=tuple(quads),
                              links=tuple(tuple(lp) for lp in inner_paths),
                              pk=tuple(pk))


def chain_decompose(q: Quadruple, a: int, b: int) -> ChainDecomposition:
    """Chain structure of the boundary component between a and b.

    ``{a,b}`` must be a separation pair with both vertices on the
    counter-clockwise boundary path of the quadruple, a before b.
    """
    beta = q.beta
    if a not in beta or b not in beta:
        raise CubicError(f"({a},{b}) is not on the counter-clockwise boundary path")
    if beta.index(a) >= beta.index(b):
        raise CubicError(f"{a} must precede {b} on the boundary path")
    if not q.g.is_separation_pair(a, b):
        raise CubicError(f"({a},{b}) is not a separation pair")
    beta_ab = q.g.boundary_path(a, b, clockwise=False)
    if len(beta_ab) == 2:
        return ChainDecomposition(is_path=True, path=tuple(beta_ab))
    comp = next(c for c in q.g.components_without([a, b]) if beta_ab[1] in c)
    sub = q.g.subgraph(set(comp) | {a, b}, drop_edges=[(a, b)])
    return _chain_structure(sub, a, b, q.x_seq)


# -- curve construction -----------------------------------------------------------

# abstract stations: ('v', v) | ('x', (a,b)) | ('hop', dart)
_AStation = Tuple


@dataclass
class _Partial:
    stations: List[_AStation]
    charges: Dict[int, int]
    z: Tuple  # ('v', vertex) | ('x', edge)


def _merge_charges(dst: Dict[int, int], src: Dict[int, int]) -> None:
    for k, tgt in src.items():
        if k in dst:
            raise CubicError(f"vertex {k} charged twice")
        dst[k] = tgt


class _PathWalker:
    """Emits stations along one chain, dodging avoided vertices.

    Path stretches are walked vertex to vertex (contained edges); avoided
    vertices are skirted on the inner side through the face left of
    ``inner`` (the roof face of the chain); the hop from a block's end
    back onto the next path runs on the outer side of the local boundary,
    through the face left of the reversed boundary dart.
    """

    def __init__(self, avoid: Set[int], inner: Tuple[int, int]):
        self.avoid = avoid
        self.inner = inner
        self.stations: List[_AStation] = []
        self.charges: Dict[int, int] = {}
        self.at_vertex = False  # last emitted anchor is a vertex on the path

    def _step(self, w: int, adjacent: bool) -> None:
        if self.at_vertex and adjacent:
            self.stations.append(('v', w))
        else:
            self.stations.append(('hop', self.inner))
            self.stations.append(('v', w))
        self.at_vertex = True

    def pass_path(self, verts: Sequence[int]) -> None:
        """Walk the non-avoided vertices of a path stretch, in order."""
        gap = not self.at_vertex
        for w in verts:
            if w in self.avoid:
                gap = True
                continue
            self._step(w, adjacent=not gap)
            gap = False

    def start(self, s: int) -> None:
        self.stations.append(('v', s))
        self.at_vertex = True

    def block(self, quad: Quadruple) -> Tuple:
        part = _lemma5(quad)
        self.stations.extend(part.stations[1:])
        _merge_charges(self.charges, part.charges)
        self.at_vertex = part.z[0] == 'v'
        return part.z

    def rejoin(self, link: Sequence[int]) -> None:
        """Hop from a block's end z_i over its exit vertex onto the link path."""
        v_i, v_next = link[0], link[1]
        self.stations.append(('hop', (v_next, v_i)))
        if v_next in self.avoid:
            self.stations.append(('x', edge_key(v_i, v_next)))
            self.at_vertex = False
            self.pass_path(link[2:])
        else:
            self.stations.append(('v', v_next))
            self.at_vertex = True
            self.pass_path(link[2:])


def _walk_chain(cd: ChainDecomposition, avoid: Set[int],
                inner: Tuple[int, int], start: int, b: int) -> _Partial:
    """Curve along a chain from ``start`` to just before ``b`` (Case-1 style)."""
    w = _PathWalker(avoid, inner)
    if cd.is_path:
        seq = cd.path
        i = seq.index(start)
        w.start(start)
        w.pass_path(seq[i + 1:-1])
        y = seq[-2]
        if y in avoid:
            w.stations.append(('hop', inner))
            w.stations.append(('x', edge_key(y, b)))
            return _Partial(w.stations, w.charges, ('x', edge_key(y, b)))
        return _Partial(w.stations, w.charges, ('v', y))

    # p0
    if start in cd.p0:
        i = cd.p0.index(start)
        w.start(start)
        w.pass_path(cd.p0[i + 1:])
    elif start == cd.blocks[0].u:
        w.start(start)
    else:
        raise CubicError("chain walk must start on the leading path")

    z = None
    for i, quad in enumerate(cd.blocks):
        if w.stations[-1] != ('v', quad.u):
            raise CubicError("chain walk lost its footing at a block entry")
        z = w.block(quad)
        tail = cd.links[i] if i < len(cd.blocks) - 1 else cd.pk
        if i < len(cd.blocks) - 1:
            w.rejoin(tail)
        else:
            if len(tail) == 2:
                return _Partial(w.stations, w.charges, z)
            v_k, v_next = tail[0], tail[1]
            w.stations.append(('hop', (v_next, v_k)))
            if v_next in avoid:
                w.stations.append(('x', edge_key(v_k, v_next)))
                w.at_vertex = False
            else:
                w.stations.append(('v', v_next))
                w.at_vertex = True
            remainder = tail[2:-1]
            w.pass_path(remainder)
            y = tail[-2]
            if y in avoid:
                w.stations.append(('hop', inner))
                w.stations.append(('x', edge_key(y, b)))
                return _Partial(w.stations, w.charges, ('x', edge_key(y, b)))
            return _Partial(w.stations, w.charges, ('v', y))
    raise CubicError("chain walk fell through")  # pragma: no cover


def _lemma5(q: Quadruple) -> _Partial:
    """The recursive construction; dispatches base case then Cases 1-5."""
    g, u, v, X = q.g, q.u, q.v, q.x_seq
    xset = set(X)
    beta = q.beta

    # base case: a simple cycle (edge (u,v) exists by well-formedness)
    if all(g.degree(w) == 2 for w in g.vertices):
        if not g.has_edge(u, v):
            raise CubicError("cycle quadruple without the closing edge")
        w = _PathWalker(xset, (v, u))
        w.start(u)
        w.pass_path(beta[1:-1])
        vp = beta[-2]
        if vp in xset:
            w.stations.append(('hop', (v, u)))
            w.stations.append(('x', edge_key(vp, v)))
            z = ('x', edge_key(vp, v))
        else:
            z = ('v', vp)
        return _Partial(w.stations, {v: u}, z)

    # Case 1: edge (u,v) exists
    if g.has_edge(u, v):
        gp = g.subgraph(drop_edges=[(u, v)])
        cd = _chain_structure(gp, u, v, X)
        if cd.is_path:
            raise CubicError("cycle escaped the base case")
        part = _walk_chain(cd, xset, (v, u), u, v)
        _merge_charges(part.charges, {v: u})
        return part

    # shared structure for Cases 2-5
    y_1 = q.tau[-2]
    h_adj = {w: [x for x in g.rot[w] if x != v] for w in g.vertices if w != v}
    h_verts = next(c for c in _blocks(h_adj) if u in c)
    if y_1 not in h_verts:
        raise CubicError("boundary neighbour of v fell outside the biconnected core")
    nb2 = next(x for x in g.rot[v] if x != y_1)
    if nb2 in h_verts:
        y_2 = nb2
        b2_verts: Set[int] = {y_2, v}
    else:
        comp = next(c for c in g.components_without(set(h_verts) | {v})
                    if nb2 in c)
        att = {x for w in comp for x in g.rot[w] if x in h_verts}
        if len(att) != 1:
            raise CubicError("dangling component has multiple attachments")
        y_2 = att.pop()
        b2_verts = set(comp) | {y_2, v}
    h = g.subgraph(h_verts)
    beta_h = h.boundary_path(u, y_1, clockwise=False)
    xp = tuple(sorted((set(X) & set(h_verts)) | {y_2}, key=beta_h.index))
    xpset = set(xp)
    vp = beta[-2]  # boundary neighbour of v

    # Case 2: the component hanging off y_2 has substance of its own
    if any(w not in xset | {v, y_2} for w in b2_verts - {v, y_2}):
        hq = make_quadruple(h, u, y_1, xp)
        part = _lemma5(hq)
        u2 = next(w for w in beta[beta.index(y_2) + 1:] if w not in xset)
        part.stations.append(('hop', (v, y_1)))
        part.stations.append(('v', u2))
        b2 = g.subgraph(b2_verts)
        cd = _chain_structure(b2, y_2, v, X)
        tail = _walk_chain(cd, xset, (v, y_1), u2, v)
        part.stations.extend(tail.stations[1:])
        _merge_charges(part.charges, tail.charges)
        _merge_charges(part.charges, {y_2: u2, v: u2})
        return _Partial(part.stations, part.charges, tail.z)

    # Case 3: edge (u, y_1) exists
    if g.has_edge(u, y_1):
        make_quadruple(h, u, y_1, xp)  # machine-check the induction hypothesis
        if set(h_verts) - {u, y_1} <= xpset:
            stations: List[_AStation] = [('v', u), ('v', y_1),
                                         ('hop', (v, y_1)), ('x', edge_key(vp, v))]
            return _Partial(stations, {y_2: y_1, v: y_1}, ('x', edge_key(vp, v)))
        hp = h.subgraph(drop_edges=[(u, y_1)])
        cd = _chain_structure(hp, u, y_1, xp)
        part = _walk_chain(cd, xpset, (y_1, u), u, y_1)
        part.stations.append(('hop', (v, y_1)))
        part.stations.append(('x', edge_key(vp, v)))
        u3 = next(w for w in beta_h[1:] if w not in xpset)
        _merge_charges(part.charges, {v: u, y_1: u3, y_2: u3})
        return _Partial(part.stations, part.charges, ('x', edge_key(vp, v)))

    # Cases 4-5 structure: peel y_1 off the core as well
    w_1 = h.boundary_path(u, y_1, clockwise=True)[-2]
    k_adj = {w: [x for x in h.rot[w] if x != y_1]
             for w in h.vertices if w != y_1}
    k_verts = next(c for c in _blocks(k_adj) if u in c)
    if w_1 not in k_verts:
        raise CubicError("boundary neighbour of y_1 fell outside the inner core")
    nbd = next(x for x in h.rot[y_1] if x != w_1)
    if nbd in k_verts:
        w_2 = nbd
        d2_verts: Set[int] = {w_2, y_1}
    else:
        comp = next(c for c in h.components_without(set(k_verts) | {y_1})
                    if nbd in c)
        att = {x for w in comp for x in h.rot[w] if x in k_verts}
        if len(att) != 1:
            raise CubicError("inner dangling component has multiple attachments")
        w_2 = att.pop()
        d2_verts = set(comp) | {w_2, y_1}
    k = g.subgraph(k_verts)
    beta_k = k.boundary_path(u, w_1, clockwise=False)

    if y_2 in k_verts:
        # Case 4
        if len(d2_verts) != 2:
            raise CubicError("inner bridge should be a single edge here")
        xpp = tuple(sorted((set(X) & set(k_verts)) | {y_2, w_2},
                           key=beta_k.index))
        part = _lemma5(make_quadruple(k, u, w_1, xpp))
        part.stations.extend([('hop', (y_1, w_1)), ('v', y_1),
                              ('hop', (v, y_1)), ('x', edge_key(vp, v))])
        _merge_charges(part.charges, {v: y_1, y_2: y_1, w_2: y_1})
        return _Partial(part.stations, part.charges, ('x', edge_key(vp, v)))

    # Case 5
    xpp = tuple(sorted((set(X) & set(k_verts)) | {w_2}, key=beta_k.index))
    part = _lemma5(make_quadruple(k, u, w_1, xpp))
    if d2_verts - {w_2, y_1} <= xpset:
        part.stations.extend([('hop', (y_1, w_1)), ('v', y_1),
                              ('hop', (v, y_1)), ('x', edge_key(vp, v))])
        _merge_charges(part.charges, {v: y_1, y_2: y_1, w_2: y_1})
        return _Partial(part.stations, part.charges, ('x', edge_key(vp, v)))
    beta_w2y1 = h.boundary_path(w_2, y_1, clockwise=False)
    u5 = next(w for w in beta_w2y1[1:] if w not in xpset)
    part.stations.append(('hop', (y_1, w_1)))
    part.stations.append(('v', u5))
    d2 = h.subgraph(d2_verts)
    cd = _chain_structure(d2, w_2, y_1, xp)
    tail = _walk_chain(cd, xpset, (y_1, w_1), u5, y_1)
    yprime = beta_w2y1[-2]
    if tail.z == ('x', edge_key(yprime, y_1)):
        # reroute the final approach to terminate at y_1 itself
        assert tail.stations[-1] == ('x', edge_key(yprime, y_1))
        tail.stations[-1] = ('v', y_1)
    else:
        tail.stations.extend([('hop', (v, y_1)), ('v', y_1)])
    part.stations.extend(tail.stations[1:])
    _merge_charges(part.charges, tail.charges)
    part.stations.extend([('hop', (v, y_1)), ('x', edge_key(vp, v))])
    _merge_charges(part.charges, {v: y_1, y_2: y_1, w_2: y_1})
    return _Partial(part.stations, part.charges, ('x', edge_key(vp, v)))


def _resolve(g: PlaneGraph, stations: Sequence[_AStation]) -> GoodCurve:
    out: List[Station] = []
    for s in stations:
        if s[0] == 'hop':
            out.append(Fst(g.face_of_dart(s[1])))
        elif s[0] == 'v':
            out.append(Vst(s[1]))
        else:
            out.append(Xst(*s[1]))
    return GoodCurve(tuple(out), closed=False)


# -- public construction + verification ------------------------------------------------


def build_cubic_curve(q: Quadruple) -> ChargedCurve:
    """Proper good curve for a well-formed quadruple, with its charge map."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 40 * q.g.n + 1000))
    try:
        part = _lemma5(q)
    finally:
        sys.setrecursionlimit(old)
    cc = ChargedCurve(_resolve(q.g, part.stations), dict(part.charges))
    verify_charged_curve(q, cc)
    return cc


def verify_charged_curve(q: Quadruple, cc: ChargedCurve) -> None:
    """Machine-check the curve and charge invariants; raise on any failure."""
    g, u, v, X = q.g, q.u, q.v, set(q.x_seq)
    check_well_formed(g, cc.curve)
    bad = sorted((e, t) for e, t in edge_tallies(g, cc.curve).items() if t > 1)
    if bad:
        raise CubicError(f"curve is not good: {bad}")
    aug = _augment(g, cc.curve)
    if not aug.proper:
        raise CubicError("curve is not proper")
    sts = cc.curve.stations
    if sts[0] != Vst(u):
        raise CubicError("curve does not start at u")
    on_curve = set(cc.curve.vertices)
    if v in on_curve:
        raise CubicError("curve passes through v")
    if on_curve & X:
        raise CubicError("curve passes through an X vertex")
    # boundary-order property: every touch of the ccw boundary path advances
    beta = q.beta
    beta_pos = {w: i for i, w in enumerate(beta)}
    beta_edges = {edge_key(beta[i], beta[i + 1]): i for i in range(len(beta) - 1)}
    last = -1
    last_i = -1
    for i, s in enumerate(sts):
        pos = None
        if s[0] == 'v' and s[1] in beta_pos:
            pos = 2 * beta_pos[s[1]]
        elif s[0] == 'x' and s[1] in beta_edges:
            pos = 2 * beta_edges[s[1]] + 1
        if pos is None:
            continue
        if pos <= last:
            raise CubicError("boundary touches out of order along the curve")
        last, last_i = pos, i
    if sts[-1][0] != 'f' and last_i != len(sts) - 1:
        raise CubicError("curve does not end on the boundary path")
    # charge audit
    counts: Dict[int, int] = {}
    for w, tgt in cc.charges.items():
        if w in on_curve or w in X:
            raise CubicError(f"charged vertex {w} is on the curve or in X")
        if tgt not in on_curve:
            raise CubicError(f"charge target {tgt} is not on the curve")
        counts[tgt] = counts.get(tgt, 0) + 1
    missing = set(g.vertices) - X - on_curve - set(cc.charges)
    if missing:
        raise CubicError(f"vertices neither on the curve nor charged: {sorted(missing)}")
    if any(c > 3 for c in counts.values()):
        raise CubicError("a vertex is charged with more than 3 vertices")
    if counts.get(u, 0) > 1:
        raise CubicError("u is charged with more than 1 vertex")
    # X vertices stay incident to the unbounded region of the arrangement
    outer_heads = {d[0] for d in aug.graph.faces[aug.graph.outer]}
    stranded = X - outer_heads
    if stranded:
        raise CubicError(f"X vertices cut off from the outer region: {sorted(stranded)}")


def theorem4(g: PlaneGraph) -> ChargedCurve:
    """Proper good curve through >= n/4 vertices of a triconnected cubic graph."""
    if any(g.degree(w) != 3 for w in g.vertices):
        raise CubicError("graph is not cubic")
    if not g.is_triconnected():
        raise CubicError("graph is not triconnected")
    walk = g.outer_walk()
    u, v = walk[0], walk[1]
    gp = g.subgraph(drop_edges=[(u, v)])
    q = make_quadruple(gp, u, v, ())
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 40 * g.n + 1000))
    try:
        part = _lemma5(q)
    finally:
        sys.setrecursionlimit(old)
    cc = ChargedCurve(_resolve(g, part.stations), dict(part.charges))
    verify_charged_curve(Quadruple(g, u, v, ()), cc)
    need = -(-g.n // 4)
    if cc.curve.vertex_count < need:
        raise CubicError(f"curve carries {cc.curve.vertex_count} < {need} vertices")
    return cc


def charge_lines(cc: ChargedCurve) -> str:
    """Charge-map dump, one ``charge <from> -> <to>`` line per skipped vertex."""
    return "".join(f"charge {w} -> {t}\n" for w, t in sorted(cc.charges.items()))


# -- generator ---------------------------------------------------------------------


def generate_triconnected_cubic(seed: int, target_n: int) -> PlaneGraph:
    """Random triconnected cubic plane graph with ``target_n`` vertices.

    Grows K4 by repeatedly subdividing two distinct edges of a common face
    and joining the midpoints inside that face.  The step keeps the graph
    plane, cubic and 3-edge-connected: an edge cut of the new graph either
    splits old vertices, and then meets a subdivided copy of each of the at
    least three old edges they cut, or cuts off midpoints only, which have
    degree 3.  A cubic graph is 3-connected iff it is 3-edge-connected, so
    every intermediate graph is triconnected and only the final graph is
    audited.
    """
    if target_n < 4 or target_n % 2:
        raise CubicError("target_n must be an even number >= 4")
    rng = random.Random(seed)
    g = PlaneGraph({0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
                   outer_walk=(0, 1, 2))
    while g.n < target_n:
        for _ in range(64):
            cand = _expand(g, rng)
            if cand is not None:
                g = cand
                break
        else:
            raise CubicError("expansion failed 64 times in a row")
    if not g.is_triconnected():
        raise CubicError("generated graph is not triconnected")
    return g


def _expand(g: PlaneGraph, rng: random.Random) -> Optional[PlaneGraph]:
    fi = rng.randrange(len(g.faces))
    walk = g.faces[fi]
    if len(walk) < 2:
        return None
    i, j = rng.sample(range(len(walk)), 2)
    e1, e2 = edge_key(*walk[i]), edge_key(*walk[j])
    if e1 == e2:
        return None
    eng = _Engine(g)
    m1 = eng.subdivide(e1)
    m2 = eng.subdivide(e2)
    try:
        eng.insert_chord(m1, m2, fi)
    except CurveError:
        return None
    regions = [w for tag, w in eng.walks if tag == g.outer]
    pg = PlaneGraph._from_walks(eng.rot, [w for _, w in eng.walks])
    return pg.with_outer(pg.face_of_dart(regions[0][0]))
