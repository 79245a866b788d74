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
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .curves import (CurveError, Fst, GoodCurve, Station, Vst, Xst, _Engine,
                     augment_with_curve)
from .plane_graph import PlaneGraph, PlaneGraphError, edge_key, path_to, reach

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
    """Validate properties (a)-(f) and return the quadruple, else raise.

    Condition (e) goes through the separation pairs in sorted order and
    checks (e1) both vertices external, (e2) one of them internal to the
    counter-clockwise boundary path, (e3) every nontrivial {a,b}-component
    has an external vertex other than a and b.  (e3) needs no component
    search.  The faces a and b share, in their order around a, cut the
    edges at a into sectors, and each sector that holds more than the edge
    ab holds exactly one component of G - {a,b}: two components in one
    sector would leave a face between them that passes b, a shared face
    inside the sector.  Once a and b are external, the outer face is one of
    the shared faces.  The outer boundary runs from a into both sectors
    beside it, so their components have external vertices; a sector between
    two internal faces is sealed off from the outer face.  So (e3) fails
    exactly when two consecutive shared faces are internal and are not the
    two faces of an edge ab.  On a subcubic graph with P separation pairs
    the whole check costs O(n + P), after the O(n + m) face-walk check of
    biconnectivity for (a).
    """
    if any(g.degree(w) > 3 for w in g.vertices):
        raise CubicError("(a) graph is not subcubic")
    try:
        pairs = g.separation_pairs()
    except PlaneGraphError:
        raise CubicError("(a) graph is not biconnected") from None
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
    for (a, b) in pairs:
        if a not in outer_set or b not in outer_set:
            raise CubicError(f"(e) separation pair ({a},{b}) has an internal vertex")
        internal = [w for w in (a, b)
                    if w in beta_pos and 0 < beta_pos[w] < len(beta) - 1]
        if not internal:
            raise CubicError(f"(e) separation pair ({a},{b}) has no vertex "
                             "internal to the counter-clockwise boundary path")
        shared = g.shared_faces(a, b)
        ab_faces = set(g.faces_of_edge(a, b)) if g.has_edge(a, b) else set()
        for f, f2 in zip(shared, shared[1:] + shared[:1]):
            if g.outer not in (f, f2) and {f, f2} != ab_faces:
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
    """Decompose a boundary component into p0 + blocks + links + pk.

    ``graph`` must be subcubic.  Its bridges are the edges whose two darts
    lie on one face, and its blocks with a cycle are the components of more
    than one vertex left without them.  Any path from a to b runs through
    the blocks of the chain in order, entering each at its entry vertex and
    leaving at its exit; its other edges are bridges.  A graph without a
    cycle must be that path.
    """
    path = path_to(reach((a,), graph.rot.__getitem__), b)
    if graph.m == graph.n - 1:
        if len(path) != graph.n:
            raise CubicError("boundary component is neither a path nor a chain")
        return ChainDecomposition(is_path=True, path=tuple(path))
    fod = graph.face_of_dart

    def solid(w):
        return (x for x in graph.rot[w] if fod((w, x)) != fod((x, w)))

    block_of: Dict[int, FrozenSet[int]] = {}
    for w in path:
        if w not in block_of:
            comp = frozenset(reach((w,), solid))
            block_of.update(dict.fromkeys(comp, comp))

    paths: List[List[int]] = [[]]
    quads: List[Quadruple] = []
    for comp, run in groupby(path, block_of.__getitem__):
        run = list(run)
        paths[-1].append(run[0])
        if len(run) > 1:
            u_i, v_i = run[0], run[-1]
            x_i = tuple(x for x in ambient_x if x in comp and x not in (u_i, v_i))
            quads.append(make_quadruple(graph.subgraph(comp), u_i, v_i, x_i))
            paths.append([v_i])
    return ChainDecomposition(is_path=False, p0=tuple(paths[0]), blocks=tuple(quads),
                              links=tuple(map(tuple, paths[1:-1])),
                              pk=tuple(paths[-1]))


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
    comp = reach((beta_ab[1],), lambda w: (x for x in q.g.rot[w] if x not in (a, b)))
    sub = q.g.subgraph({a, b, *comp}, drop_edges=[(a, b)])
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

    def block(self, quad: Quadruple):
        part = yield quad
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
        else:
            self.stations.append(('v', v_next))
            self.at_vertex = True
        self.pass_path(link[2:])

    def finish(self, y: int, b: int) -> _Partial:
        """End at y, the last vertex before b, or, when y is avoided, hop
        through the inner face and cross the edge y-b."""
        z = ('v', y)
        if y in self.avoid:
            z = ('x', edge_key(y, b))
            self.stations.extend([('hop', self.inner), z])
        return _Partial(self.stations, self.charges, z)


def _walk_chain(cd: ChainDecomposition, avoid: Set[int],
                inner: Tuple[int, int], start: int, b: int):
    """Curve along a chain from ``start`` to just before ``b`` (Case-1 style),
    yielding each block's quadruple to ``_lemma5``."""
    w = _PathWalker(avoid, inner)
    w.start(start)
    if cd.is_path:
        w.pass_path(cd.path[cd.path.index(start) + 1:-1])
        return w.finish(cd.path[-2], b)
    if start not in cd.p0:
        raise CubicError("chain walk must start on the leading path")
    w.pass_path(cd.p0[cd.p0.index(start) + 1:])

    for i, quad in enumerate(cd.blocks):
        if w.stations[-1] != ('v', quad.u):
            raise CubicError("chain walk lost its footing at a block entry")
        z = yield from w.block(quad)
        if i < len(cd.blocks) - 1:
            w.rejoin(cd.links[i])
        elif len(cd.pk) == 2:
            return _Partial(w.stations, w.charges, z)
        else:
            w.rejoin(cd.pk[:-1])
            return w.finish(cd.pk[-2], b)
    raise CubicError("chain walk fell through")  # pragma: no cover


def _lemma5(q: Quadruple) -> _Partial:
    """The Lemma 5 construction as a loop over a stack of pending tails: each
    suspended ``_lemma5_steps`` generator waits for the result of the
    quadruple it yielded, then only appends stations and merges charges.
    The interpreter stack stays flat however deep the induction goes."""
    stack, part = [_lemma5_steps(q)], None
    while stack:
        try:
            sub = stack[-1].send(part)
        except StopIteration as done:
            stack.pop()
            part = done.value
        else:
            stack.append(_lemma5_steps(sub))
            part = None
    return part


def _lemma5_steps(q: Quadruple):
    """The construction for one quadruple; dispatches base case then Cases
    1-5, yielding each quadruple it recurses on and receiving its result."""
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
        w.charges[v] = u
        return w.finish(beta[-2], v)

    # Case 1: edge (u,v) exists
    if g.has_edge(u, v):
        gp = g.subgraph(drop_edges=[(u, v)])
        cd = _chain_structure(gp, u, v, X)
        if cd.is_path:
            raise CubicError("cycle escaped the base case")
        part = yield from _walk_chain(cd, xset, (v, u), u, v)
        _merge_charges(part.charges, {v: u})
        return part

    # shared structure for Cases 2-5
    y_1 = q.tau[-2]
    h_verts = _core(g, v, u)
    if y_1 not in h_verts:
        raise CubicError("boundary neighbour of v fell outside the biconnected core")
    y_2, b2_verts = _dangling(g, h_verts, v, y_1)
    h = g.subgraph(h_verts)
    beta_h = h.boundary_path(u, y_1, clockwise=False)
    at_h = {w: i for i, w in enumerate(beta_h)}
    xp = tuple(sorted((xset & h_verts) | {y_2}, key=at_h.__getitem__))
    xpset = set(xp)
    vp = beta[-2]  # boundary neighbour of v

    def cross_out(part: _Partial, charges: Dict[int, int]) -> _Partial:
        """End Cases 3-5: hop through the face left of (v, y_1) and cross
        the edge vp-v, then charge ``charges``."""
        z = ('x', edge_key(vp, v))
        part.stations.extend([('hop', (v, y_1)), z])
        _merge_charges(part.charges, charges)
        return _Partial(part.stations, part.charges, z)

    # Case 2: the component hanging off y_2 has substance of its own
    if any(w not in xset | {v, y_2} for w in b2_verts - {v, y_2}):
        hq = make_quadruple(h, u, y_1, xp)
        part = yield hq
        u2 = next(w for w in beta[beta.index(y_2) + 1:] if w not in xset)
        part.stations.append(('hop', (v, y_1)))
        part.stations.append(('v', u2))
        b2 = g.subgraph(b2_verts)
        cd = _chain_structure(b2, y_2, v, X)
        tail = yield from _walk_chain(cd, xset, (v, y_1), u2, v)
        part.stations.extend(tail.stations[1:])
        _merge_charges(part.charges, tail.charges)
        _merge_charges(part.charges, {y_2: u2, v: u2})
        return _Partial(part.stations, part.charges, tail.z)

    # Case 3: edge (u, y_1) exists
    if g.has_edge(u, y_1):
        make_quadruple(h, u, y_1, xp)  # machine-check the induction hypothesis
        if h_verts - {u, y_1} <= xpset:
            return cross_out(_Partial([('v', u), ('v', y_1)], {}, None),
                             {y_2: y_1, v: y_1})
        hp = h.subgraph(drop_edges=[(u, y_1)])
        cd = _chain_structure(hp, u, y_1, xp)
        part = yield from _walk_chain(cd, xpset, (y_1, u), u, y_1)
        u3 = next(w for w in beta_h[1:] if w not in xpset)
        return cross_out(part, {v: u, y_1: u3, y_2: u3})

    # Cases 4-5 structure: peel y_1 off the core as well
    w_1 = h.boundary_path(u, y_1, clockwise=True)[-2]
    k_verts = _core(h, y_1, u)
    if w_1 not in k_verts:
        raise CubicError("boundary neighbour of y_1 fell outside the inner core")
    w_2, d2_verts = _dangling(h, k_verts, y_1, w_1)
    k = g.subgraph(k_verts)
    at_k = {w: i for i, w in enumerate(k.boundary_path(u, w_1, clockwise=False))}

    # Case 4 when y_2 is in the inner core, else Case 5
    case4 = y_2 in k_verts
    if case4 and len(d2_verts) != 2:
        raise CubicError("inner bridge should be a single edge here")
    xpp = tuple(sorted((xset | {y_2, w_2}) & k_verts, key=at_k.__getitem__))
    part = yield make_quadruple(k, u, w_1, xpp)
    part.stations.append(('hop', (y_1, w_1)))
    if case4 or d2_verts - {w_2, y_1} <= xpset:
        part.stations.append(('v', y_1))
        return cross_out(part, {v: y_1, y_2: y_1, w_2: y_1})
    beta_w2y1 = h.boundary_path(w_2, y_1, clockwise=False)
    u5 = next(w for w in beta_w2y1[1:] if w not in xpset)
    part.stations.append(('v', u5))
    d2 = h.subgraph(d2_verts)
    cd = _chain_structure(d2, w_2, y_1, xp)
    tail = yield from _walk_chain(cd, xpset, (y_1, w_1), u5, y_1)
    yprime = beta_w2y1[-2]
    if tail.z == ('x', edge_key(yprime, y_1)):
        # reroute the final approach to terminate at y_1 itself
        if tail.stations[-1] != tail.z:
            raise CubicError("Case 5 tail does not end by crossing edge "
                             f"{edge_key(yprime, y_1)}")
        tail.stations[-1] = ('v', y_1)
    else:
        tail.stations.extend([('hop', (v, y_1)), ('v', y_1)])
    part.stations.extend(tail.stations[1:])
    _merge_charges(part.charges, tail.charges)
    return cross_out(part, {v: y_1, y_2: y_1, w_2: y_1})


def _core(g: PlaneGraph, x: int, u: int) -> FrozenSet[int]:
    """The vertex set of the block of G - x that holds u, for a biconnected
    subcubic G and a vertex u on a cycle of G - x.

    G has no bridge, and deleting x merges the faces at x into one face and
    keeps the others.  So the bridges of G - x are its edges with both
    darts on faces at x, read in O(size of those faces).  Two blocks with a
    cycle share no vertex in a subcubic graph, so the block is what
    ``reach`` finds from u without crossing x or a bridge.
    """
    at_x = set(g.faces_at(x))
    bridges = {d for f in at_x for d in g.faces[f]
               if x not in d and g.face_of_dart(d[::-1]) in at_x}
    return frozenset(reach((u,), lambda w: (y for y in g.rot[w]
                                            if y != x and (w, y) not in bridges)))


def _dangling(g: PlaneGraph, core: FrozenSet[int], x: int,
              y: int) -> Tuple[int, Set[int]]:
    """(y', B) for the neighbour w of x other than y, x outside ``core``:
    (w, {w, x}) when w is in the core, else y' is the one core vertex next
    to the component C of G - core - x that holds w, and B is C + {y', x}."""
    w = next(z for z in g.rot[x] if z != y)
    if w in core:
        return w, {w, x}
    comp = reach((w,), lambda t: (z for z in g.rot[t] if z != x and z not in core))
    att = {z for t in comp for z in g.rot[t] if z in core}
    if len(att) != 1:
        raise CubicError("dangling component has multiple attachments")
    y_2 = att.pop()
    return y_2, {y_2, x, *comp}


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


def _charged_curve(q: Quadruple, g: PlaneGraph) -> ChargedCurve:
    """Run Lemma 5 on ``q`` and resolve its dart-tagged hops to faces of
    ``g``."""
    part = _lemma5(q)
    return ChargedCurve(_resolve(g, part.stations), dict(part.charges))


# -- public construction + verification ------------------------------------------------


def build_cubic_curve(q: Quadruple) -> ChargedCurve:
    """Proper good curve for a well-formed quadruple, with its charge map."""
    cc = _charged_curve(q, q.g)
    verify_charged_curve(q, cc)
    return cc


def verify_charged_curve(q: Quadruple, cc: ChargedCurve) -> None:
    """Machine-check the curve and charge invariants; raise on any failure."""
    g, u, v, X = q.g, q.u, q.v, set(q.x_seq)
    try:
        aug = augment_with_curve(g, cc.curve)
    except CurveError as exc:
        raise CubicError(str(exc)) from exc
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
    cc = _charged_curve(make_quadruple(gp, u, v, ()), g)
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

    A step cannot fail.  Every face of a simple graph has at least three
    darts, so two distinct positions of its walk can be drawn.  In a
    2-connected plane graph every face is bounded by a simple cycle, so two
    darts of one face walk lie on different edges.  Both midpoints then lie
    on the chosen face, and the chord between them splits it.

    All steps run on one ``_Engine`` and the ``PlaneGraph`` is built once.
    The draws are those of a graph rebuilt after every step: a face index in
    face order, the order of least darts (tail, head), kept in ``faces`` and
    re-keyed only for the regions a step touches, then two positions on the
    walk from that dart; each edge is split on its dart (u, v) with u < v.
    O(n log n) plus O(n) list shifts per step, not a rebuild per step.
    """
    if target_n < 4 or target_n % 2:
        raise CubicError(f"target_n must be an even number >= 4, got {target_n}")
    rng = random.Random(seed)
    eng = _Engine(PlaneGraph({0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
                             outer_walk=(0, 1, 2)))
    region, twin = eng.region, eng.twin
    key = {r: eng.face_key(r) for r in range(len(eng.start))}
    faces = sorted(key.values())
    while len(eng.first) < target_n:
        walk = eng._face(faces[rng.randrange(len(faces))][2])
        p, q = (walk[i] for i in rng.sample(range(len(walk)), 2))
        r = region[p]
        touched = {r, region[twin[p]], region[twin[q]]}
        for t in touched:       # every old key goes before any new one is in
            del faces[bisect_left(faces, key[t])]
        for d in p, q:
            eng.split(min(d, twin[d], key=eng.pair))
        touched.add(eng.chord(twin[p], twin[q], r))
        for t in touched:
            key[t] = eng.face_key(t)
            insort(faces, key[t])
    pg, index = eng.graph()
    g = pg.with_outer(index[eng.g.outer])
    if not g.is_triconnected():
        raise CubicError("generated graph is not triconnected")
    return g
