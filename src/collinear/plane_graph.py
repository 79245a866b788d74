"""Plane graphs as rotation systems with a designated outer face.

A plane graph is a connected simple graph together with, for every vertex, the
cyclic *clockwise* order of its neighbours, plus one traced face designated as
the outer (unbounded) face.  Faces are traced with the convention

    next dart after (u, v) = (v, w)   where w follows u clockwise at v,

which makes internal face walks counter-clockwise and the outer walk clockwise
in any faithful drawing.  Counter-clockwise rotation input is rejected: if the
declared outer walk only matches a traced face in reverse, parsing fails with
an orientation hint.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cmp_to_key
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from .geom import HPoint, direction_h, homogeneous

Dart = Tuple[int, int]
Edge = FrozenSet[int]


class PlaneGraphError(ValueError):
    """Raised for malformed rotation systems, non-planar input, bad walks."""


def edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class PlaneGraph:
    """Immutable rotation-system plane graph.

    Parameters
    ----------
    rot:
        Mapping vertex -> clockwise sequence of neighbours.
    outer_walk:
        Vertex sequence of the outer face boundary walk (any starting point,
        forward orientation).  Exactly one of outer_walk / outer_face must be
        given.
    outer_face:
        Index into the traced face list.
    """

    __slots__ = ("rot", "n", "m", "faces", "outer", "_face_of_dart",
                 "_vertex_list", "_edge_set", "_darts")

    def __init__(self, rot: Mapping[int, Sequence[int]],
                 outer_walk: Optional[Sequence[int]] = None,
                 outer_face: Optional[int] = None):
        self._set_rotation(rot)
        for v, nbrs in self.rot.items():
            for w in nbrs:
                if w not in self.rot or v not in self.rot[w]:
                    raise PlaneGraphError(f"rotation not symmetric at edge ({v},{w})")
        if self.n == 0:
            raise PlaneGraphError("empty graph")
        if len(reach(self._vertex_list[:1], self.rot.__getitem__)) != self.n:
            raise PlaneGraphError("graph is not connected")
        self._set_faces(PlaneGraph._trace_faces(
            self.rot, [(v, w) for v, nbrs in self.rot.items() for w in nbrs]))
        if (outer_walk is None) == (outer_face is None):
            raise PlaneGraphError("exactly one of outer_walk / outer_face required")
        self.outer = (self._check_face(outer_face) if outer_walk is None
                      else self._resolve_outer(tuple(outer_walk)))

    @classmethod
    def _from_walks(cls, rot: Mapping[int, Sequence[int]],
                    walks: Iterable[Sequence[Dart]]) -> "PlaneGraph":
        """The plane graph of ``rot`` whose faces are ``walks``, with face 0
        outer, in O(m + F log F) and without tracing.

        The walks must be the faces of ``rot`` under the tracing convention,
        as an engine that edits an embedding, or ``subgraph``, knows them.  Each walk is
        rotated to start at its least dart and the walks are sorted by that
        dart, which is the order ``_trace_faces`` produces, so the face
        indices are those of ``PlaneGraph(rot, outer_face=0)``.  Raises
        PlaneGraphError unless the walks cover every dart exactly once and
        V - E + F = 2.
        """
        g = object.__new__(cls)
        g._set_rotation(rot)
        faces = []
        for walk in walks:
            k = walk.index(min(walk))
            faces.append(tuple(walk[k:]) + tuple(walk[:k]))
        faces.sort()
        g._set_faces(tuple(faces))
        g.outer = 0
        return g

    # -- construction helpers -------------------------------------------------

    def _set_rotation(self, rot: Mapping[int, Sequence[int]]) -> None:
        self.rot: Dict[int, Tuple[int, ...]] = {int(v): tuple(nbrs)
                                                for v, nbrs in rot.items()}
        for v, nbrs in self.rot.items():
            if v in nbrs:
                raise PlaneGraphError(f"self-loop at vertex {v}")
            if len(set(nbrs)) != len(nbrs):
                raise PlaneGraphError(f"duplicate neighbour in rotation of {v}")
        self._vertex_list = tuple(sorted(self.rot))
        self.n = len(self._vertex_list)
        self.m = sum(len(nbrs) for nbrs in self.rot.values()) // 2
        self._edge_set = frozenset(edge_key(v, w)
                                   for v in self.rot for w in self.rot[v])

    def _set_faces(self, faces: Tuple[Tuple[Dart, ...], ...]) -> None:
        """Install the face walks and the dart-to-face map; check that the
        walks cover every dart exactly once and that V - E + F = 2."""
        self.faces = faces
        self._darts = None
        fod = self._face_of_dart = {}
        for i, walk in enumerate(faces):
            for d in walk:
                fod[d] = i
        if (len(fod) != 2 * self.m or sum(len(walk) for walk in faces) != len(fod)
                or not all((v, w) in fod for v, nbrs in self.rot.items() for w in nbrs)):
            raise PlaneGraphError("face walks do not cover every dart exactly once")
        if self.n - self.m + len(faces) != 2:
            raise PlaneGraphError(
                "rotation system is not planar (Euler check failed: "
                f"V-E+F = {self.n}-{self.m}+{len(faces)} != 2)")

    @staticmethod
    def _trace_faces(rot: Mapping[int, Sequence[int]],
                     darts: Iterable[Dart]) -> Tuple[Tuple[Dart, ...], ...]:
        """The faces of ``rot`` through ``darts``, each walk from its least
        given dart, in order of that dart: given every dart, the faces
        sorted by least dart."""
        nxt_idx = {v: {w: i for i, w in enumerate(nbrs)} for v, nbrs in rot.items()}
        unused = set(darts)
        faces: List[Tuple[Dart, ...]] = []
        for d0 in sorted(unused):
            if d0 not in unused:
                continue
            walk = []
            d = d0
            while True:
                walk.append(d)
                unused.discard(d)
                u, v = d
                nbrs = rot[v]
                i = nxt_idx[v][u]
                d = (v, nbrs[(i + 1) % len(nbrs)])
                if d == d0:
                    break
            faces.append(tuple(walk))
        return tuple(faces)

    def _dart_arrays(self) -> Tuple[array, ...]:
        """``(head, twin, cw, region, start, first, lo)``: per dart its head,
        reverse, clockwise successor round its tail (the walk after d is
        ``cw[twin[d]]``) and face; per face its first dart; per vertex v the
        dart to its first neighbour at ``first[v - lo]`` (-1 if unused).
        Darts are numbered along the face walks in face order.  Built once
        in O(m) as compact C-int arrays, shared with later ``with_outer``."""
        if self._darts is None:
            darts = list(chain.from_iterable(self.faces))
            ids = dict(zip(darts, count()))
            sizes = list(map(len, self.faces))
            start = list(accumulate(sizes[:-1], initial=0))
            fnext = list(range(1, len(darts) + 1))
            for k, size in zip(start, sizes):
                fnext[k + size - 1] = k
            head = list(map(itemgetter(1), darts))
            twin = list(map(ids.__getitem__, zip(head, map(itemgetter(0), darts))))
            lo = self._vertex_list[0]
            first = array('i', [-1]) * (self._vertex_list[-1] - lo + 1)
            for v, nbrs in self.rot.items():
                first[v - lo] = ids[v, nbrs[0]]
            region = chain.from_iterable(map(repeat, count(), sizes))
            self._darts = tuple(array('i', list(x)) for x in (
                head, twin, map(fnext.__getitem__, twin), region, start)) + (first, lo)
        return self._darts

    def _dart_id(self, d: Dart) -> int:
        """The number of dart d in ``_dart_arrays``: O(length of its face)."""
        f = self._face_of_dart[d]
        return self._dart_arrays()[4][f] + self.faces[f].index(d)

    def _check_face(self, face: int) -> int:
        if not 0 <= face < len(self.faces):
            raise PlaneGraphError("outer face index out of range")
        return face

    def _resolve_outer(self, walk: Tuple[int, ...]) -> int:
        """The face whose walk is ``walk`` (``face_by_key``); a walk that
        matches only reversed gets the orientation hint."""
        for reverse in (False, True):
            try:
                face = self.face_by_key(walk[::-1] if reverse else walk)
            except PlaneGraphError:
                continue
            if reverse:
                raise PlaneGraphError(
                    "declared outer walk matches a face only in reverse: "
                    "rotations appear to be counter-clockwise; this parser "
                    "requires clockwise neighbour order")
            return face
        raise PlaneGraphError(f"declared outer-face walk {list(walk)} is not a traced face")

    # -- basic queries ---------------------------------------------------------

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertex_list

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        return self._edge_set

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edge_set

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def face_of_dart(self, d: Dart) -> int:
        return self._face_of_dart[d]

    def faces_at(self, v: int) -> Tuple[int, ...]:
        """The faces of the darts leaving v, in clockwise order of v's
        neighbours; a face that meets v in two angles appears twice."""
        fod = self._face_of_dart
        return tuple(fod[(v, w)] for w in self.rot[v])

    def faces_of_edge(self, u: int, v: int) -> Tuple[int, int]:
        return (self._face_of_dart[(u, v)], self._face_of_dart[(v, u)])

    def face_vertices(self, i: int) -> Tuple[int, ...]:
        return tuple(d[0] for d in self.faces[i])

    def face_key(self, i: int) -> Tuple[int, ...]:
        """Canonical face key: lexicographically least rotation of the vertex walk."""
        return _min_rotation(self.face_vertices(i))

    def face_by_key(self, key: Sequence[int]) -> int:
        """The face whose vertex walk is a rotation of ``key``.  Its first
        two vertices are a dart of that face, so the face of that dart is
        the only candidate: one ``face_key``, not one per face."""
        key = tuple(key)
        i = self._face_of_dart.get(key[:2])
        if i is None or self.face_key(i) != _min_rotation(key):
            raise PlaneGraphError(f"no face with walk {list(key)}")
        return i

    def internal_faces(self) -> Tuple[int, ...]:
        return tuple(i for i in range(len(self.faces)) if i != self.outer)

    def outer_walk(self) -> Tuple[int, ...]:
        """Clockwise vertex walk of the outer face."""
        return self.face_vertices(self.outer)

    def with_outer(self, face: int) -> "PlaneGraph":
        """Same embedding with face index ``face`` as the outer face.

        O(1): the copy shares the rotation system, the faces and the
        dart-to-face map with ``self``; only ``outer`` differs.
        """
        g = object.__new__(PlaneGraph)
        for name in PlaneGraph.__slots__:
            setattr(g, name, getattr(self, name))
        g.outer = self._check_face(face)
        return g

    # -- outer boundary walks --------------------------------------------------

    def boundary_path(self, u: int, v: int, clockwise: bool) -> Tuple[int, ...]:
        """Walk along the outer boundary from u to v.

        ``clockwise=True`` follows the traced outer walk direction; ``False``
        follows it against the tracing (counter-clockwise).  Both u and v must
        occur on the outer walk; the first occurrence of u is used.
        """
        seq = self.outer_walk()
        if not clockwise:
            seq = tuple(reversed(seq))
        if u not in seq or v not in seq:
            raise PlaneGraphError(f"{u} or {v} not on outer boundary")
        i = seq.index(u)
        out = [u]
        j = i
        for _ in range(len(seq)):
            j = (j + 1) % len(seq)
            out.append(seq[j])
            if seq[j] == v:
                return tuple(out)
        raise PlaneGraphError(f"no outer walk from {u} to {v}")

    # -- connectivity ----------------------------------------------------------
    #
    # Biconnectivity, bridges, blocks and separation pairs are read off the
    # faces, and components come from ``reach``.  An edge is a bridge iff
    # both of its darts lie on one face (Diestel, Graph Theory, 4.2).  In a
    # subcubic graph two blocks with a cycle share no vertex, so those
    # blocks are the components of more than one vertex left when the
    # bridges are deleted (``cubic._core`` and ``cubic._chain_structure``).
    #
    # Separation pairs.  In a biconnected plane graph every face is bounded
    # by a simple cycle, so a face meets a vertex in at most one angle.  If
    # a and b share two faces f and f', a closed curve a - f - b - f' - a
    # meets the graph in a and b only and splits the edges at a into the
    # two sectors between f and f'.  A sector that holds more than the edge
    # ab holds a vertex inside the curve, so {a, b} separates unless one
    # sector is the edge ab alone: f and f' are the two faces of ab.
    # Conversely, if G - {a, b} falls apart, each part has an edge at a;
    # the face at an angle of a between two parts (or a part and the edge
    # ab) must pass b to close its cycle, and there are at least two such
    # angles, not both beside ab.  Hence {a, b} separates iff a and b share
    # two faces that are not the two faces of an edge ab.

    def is_biconnected(self) -> bool:
        """n >= 3 and no face walk meets a vertex twice; O(n + m).

        A cut vertex v has two clockwise-consecutive neighbours w, w' in
        different components of G - v.  The face of that angle enters v
        from w and leaves it to w', and must pass v again to get from w'
        back to w.  So a graph whose face walks repeat no vertex has no cut
        vertex, and being connected with n >= 3 it is biconnected.
        Conversely every face of a biconnected plane graph is bounded by a
        cycle (Diestel, Graph Theory, 4.2.6).
        """
        return self.n >= 3 and all(len({v for v, _ in walk}) == len(walk)
                                   for walk in self.faces)

    def is_triconnected(self) -> bool:
        """n >= 4, biconnected and without a separation pair; O(Σ deg² + P)
        as in ``separation_pairs``, after the O(n + m) biconnectivity check."""
        return self.n >= 4 and self.is_biconnected() and not self._face_pairs()

    def separation_pairs(self) -> List[Tuple[int, int]]:
        """All pairs {a,b} whose removal disconnects the graph, sorted.

        The graph must be biconnected; then {a,b} separates iff a and b lie
        together on two faces other than the two faces of an edge ab.  Every
        vertex goes into one bucket per pair of its faces and each bucket
        emits its vertex pairs, which costs O(Σ deg² + P) for P pairs emitted
        (a pair that shares k faces is emitted k(k-1)/2 times; linear on
        subcubic graphs), after the O(n + m) biconnectivity check.
        """
        self._require_biconnected()
        return self._face_pairs()

    def is_separation_pair(self, a: int, b: int) -> bool:
        """Whether removing a and b disconnects the (biconnected) graph: a and
        b share two faces other than the two faces of an edge ab.  The faces
        are intersected through the dart map in O(deg a + deg b), after the
        O(n + m) biconnectivity check."""
        self._require_biconnected()
        return a != b and self._separates(a, b, set(self.shared_faces(a, b)))

    def shared_faces(self, a: int, b: int) -> Tuple[int, ...]:
        """The faces incident to both a and b, in clockwise order of their
        angles at a; O(deg a + deg b).  The face of dart (a, w) holds the
        angle at a just before w."""
        at_b = set(self.faces_at(b))
        return tuple(f for f in self.faces_at(a) if f in at_b)

    def _separates(self, a: int, b: int, shared: Set[int]) -> bool:
        fod = self._face_of_dart
        return len(shared) >= 2 and shared != {fod.get((a, b)), fod.get((b, a))}

    def _face_pairs(self) -> List[Tuple[int, int]]:
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for v in self.rot:
            fs = sorted(self.faces_at(v))
            for i, f in enumerate(fs):
                for f2 in fs[i + 1:]:
                    buckets.setdefault((f, f2), []).append(v)
        pairs = set()
        for (f, f2), verts in buckets.items():
            for i, a in enumerate(verts):
                for b in verts[i + 1:]:
                    if self._separates(a, b, {f, f2}):
                        pairs.add(edge_key(a, b))
        return sorted(pairs)

    def _require_biconnected(self) -> None:
        if not self.is_biconnected():
            raise PlaneGraphError("separation pairs need a biconnected graph")

    # -- subgraphs -------------------------------------------------------------

    def subgraph(self, vertices: Optional[Iterable[int]] = None,
                 drop_edges: Iterable[Tuple[int, int]] = ()) -> "PlaneGraph":
        """Connected subgraph with inherited embedding.

        Keeps the induced rotation order on ``vertices`` (default: all), minus
        ``drop_edges``.  Deleting darts only merges faces: a parent face
        whose darts all survive is a face of the result as it is, and the
        surviving darts of the other faces are traced anew.  The parent's
        outer region grows by the faces it meets across deleted darts, so
        the outer face of the result is the face of a surviving dart of one
        of those.  O(n + m) plus the sort of the faces, with no trace of the
        faces that lost no dart.
        """
        keep = set(self._vertex_list if vertices is None else vertices)
        dropped = {d for a, b in drop_edges for d in ((a, b), (b, a))}
        rot = {v: tuple(w for w in self.rot[v] if w in keep and (v, w) not in dropped)
               for v in sorted(keep)}
        if not rot:
            raise PlaneGraphError("empty graph")
        if len(reach(list(rot)[:1], rot.__getitem__)) != len(rot):
            raise PlaneGraphError("graph is not connected")
        alive = {(v, w) for v, nbrs in rot.items() for w in nbrs}
        intact = [alive.issuperset(walk) for walk in self.faces]
        g = PlaneGraph._from_walks(rot, chain(
            (walk for walk, whole in zip(self.faces, intact) if whole),
            PlaneGraph._trace_faces(rot, [d for walk, whole in zip(self.faces, intact)
                                          if not whole for d in walk if d in alive])))
        fod = self._face_of_dart
        merged = reach((self.outer,), lambda f: (fod[w, v] for v, w in self.faces[f]
                                                 if (v, w) not in alive))
        g.outer = g._face_of_dart[next(d for f in merged for d in self.faces[f]
                                       if d in alive)]
        return g

    # -- misc ------------------------------------------------------------------

    def is_triangulation(self) -> bool:
        return all(len(w) == 3 for i, w in enumerate(self.faces))

    def __repr__(self) -> str:
        return f"PlaneGraph(n={self.n}, m={self.m}, faces={len(self.faces)})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, PlaneGraph) and self.rot == other.rot
                and self.face_key(self.outer) == other.face_key(other.outer))

    def __hash__(self):
        return hash((tuple(sorted(self.rot.items())), self.face_key(self.outer)))


def _min_rotation(seq: Tuple) -> Tuple:
    if not seq:
        return seq
    best = seq
    for i in range(1, len(seq)):
        cand = seq[i:] + seq[:i]
        if cand < best:
            best = cand
    return best


# -- breadth-first search --------------------------------------------------------

def reach(sources: Iterable[Hashable],
          nbrs: Callable[[Hashable], Iterable[Hashable]]) -> Dict[Hashable, Hashable]:
    """Breadth-first search from ``sources``: every reachable node mapped to
    the node it was discovered from, or None for a source.

    The map is in discovery order: the sources first, in the given order
    (a repeat counts once), then each expanded node's undiscovered
    neighbours in the order ``nbrs`` yields them.  So the first key in a
    goal set is a goal nearest to the sources, and following parents from
    any node gives a shortest path back to a source.
    """
    parent: Dict[Hashable, Hashable] = dict.fromkeys(sources)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for w in nbrs(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def path_to(parent: Mapping[Hashable, Hashable], end: Hashable) -> List[Hashable]:
    """The path from a source to ``end`` in a ``reach`` parent map."""
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# -- construction from exact coordinates -----------------------------------------

def angle_cmp(p: Tuple[int, int], q: Tuple[int, int]) -> int:
    """The angular rule of drawn rotations: -1, 0 or +1 as the integer
    direction p has a smaller, the same or a larger counter-clockwise angle
    from (1, 0), in [0, 2*pi), than q; decided by the half plane (dy > 0, or
    dy = 0 < dx, first) and then the sign of the cross product."""
    hp = 0 if p[1] > 0 or (p[1] == 0 and p[0] > 0) else 1
    hq = 0 if q[1] > 0 or (q[1] == 0 and q[0] > 0) else 1
    if hp != hq:
        return hp - hq
    cr = p[0] * q[1] - p[1] * q[0]
    return (cr < 0) - (cr > 0)


def clockwise_order(H: Mapping[int, HPoint], v: int,
                    ws: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """The neighbours ``ws`` of v clockwise by their directions from v in
    the homogeneous points ``H`` (``angle_cmp`` order, reversed), or None
    when two directions coincide: such a pair ends adjacent in the sort."""
    dirs = {w: direction_h(H[v], H[w]) for w in ws}
    order = sorted(ws, key=cmp_to_key(lambda a, b: angle_cmp(dirs[a], dirs[b])))
    if any(angle_cmp(dirs[a], dirs[b]) == 0 for a, b in zip(order, order[1:])):
        return None
    return tuple(reversed(order))


def leftmost_dart(pos: Mapping[int, Tuple], H: Mapping[int, HPoint],
                  adj: Mapping[int, Sequence[int]]) -> Dart:
    """(s, top): s the lexicographically least vertex of the drawing, top
    its neighbour of greatest angle.  Every neighbour of s lies in the
    directions (-90, 90] degrees, so the angle at s clockwise from the
    lowest round to top holds (-1, 0): the face of (s, top) is the outer
    face."""
    s = min(pos, key=pos.__getitem__)
    top, *rest = adj[s]
    dirs = {w: direction_h(H[s], H[w]) for w in adj[s]}
    for w in rest:
        if dirs[top][0] * dirs[w][1] - dirs[top][1] * dirs[w][0] > 0:
            top = w
    return s, top


def graph_from_positions(pos: Mapping[int, Tuple],
                         edges: Iterable[Tuple[int, int]]) -> PlaneGraph:
    """Plane graph induced by an exact straight-line drawing.

    Rotations are the clockwise angular orders around each vertex, sorted on
    integer direction vectors (no floats; ``clockwise_order``).  The outer
    face is the face whose angle at the lexicographically smallest vertex
    contains the direction (-1, 0) (``leftmost_dart``).
    """
    H = {v: homogeneous(p) for v, p in pos.items()}
    adj: Dict[int, List[int]] = {v: [] for v in pos}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    rot = {}
    for v, ws in adj.items():
        rot[v] = clockwise_order(H, v, ws)
        if rot[v] is None:
            raise PlaneGraphError(f"coincident edge directions at vertex {v}")
    g = PlaneGraph(rot, outer_face=0)
    return g.with_outer(g.face_of_dart(leftmost_dart(pos, H, adj)))


def canonical_code(g: PlaneGraph) -> Tuple:
    """Canonical form of the embedded graph with its outer face.

    Two plane graphs get equal codes iff some orientation-preserving,
    outer-face-preserving isomorphism maps one to the other.  The code is the
    minimum, over the outer face's darts as BFS roots, of a rotation-aware
    breadth-first relabelling.
    """
    return min(_rooted_code(g, d) for d in g.faces[g.outer])


def _rooted_code(g: PlaneGraph, root_dart: Dart) -> Tuple:
    u0, v0 = root_dart
    label = {u0: 0}
    order = [u0]
    ref = {u0: v0}
    code = []
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        nbrs = g.rot[v]
        k = nbrs.index(ref[v])
        row = []
        for w in nbrs[k:] + nbrs[:k]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
                ref[w] = v
            row.append(label[w])
        code.append(tuple(row))
    return tuple(code)


# -- interchange format --------------------------------------------------------

def content_lines(text: str) -> Iterator[Tuple[str, str]]:
    """(raw, line) for every line of an input file that holds more than a
    comment: ``#`` starts a comment, ``line`` is ``raw`` without it,
    stripped, and ``raw`` is kept for error messages."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


def read_numbers(raw: str, tokens: Sequence[str], error: type,
                 count: Optional[int] = None, kind: type = int) -> list:
    """The ``tokens`` of input line ``raw`` read as ``kind`` (int or
    Fraction).  A malformed token, or a token count other than ``count``
    when one is given, raises ``error`` naming the line."""
    try:
        vals = [kind(t) for t in tokens]
    except (ValueError, ZeroDivisionError):
        vals = None
    if vals is None or (count is not None and len(vals) != count):
        raise error(f"bad line: {raw!r}")
    return vals


def parse_plane_graph(text: str) -> PlaneGraph:
    """Parse the plane-graph interchange format.

    Format::

        planegraph <n>
        rot <v>: <w1> <w2> ...   # clockwise neighbour order, one line per vertex
        outer: <v1> ... <vk>     # one outer-face boundary walk

    ``#`` starts a comment; blank lines are ignored.  Vertex ids must be the
    dense range 0..n-1.
    """
    n = None
    rot: Dict[int, List[int]] = {}
    outer = None
    for raw, line in content_lines(text):
        head, _, rest = line.partition(":")
        if line.startswith("planegraph"):
            n, = read_numbers(raw, line.split()[1:], PlaneGraphError, 1)
        elif line.startswith("rot"):
            v, = read_numbers(raw, head.split()[1:], PlaneGraphError, 1)
            if v in rot:
                raise PlaneGraphError(f"duplicate rotation line for vertex {v}")
            rot[v] = read_numbers(raw, rest.split(), PlaneGraphError)
        elif line.startswith("outer"):
            if outer is not None:
                raise PlaneGraphError(f"duplicate outer line: {raw!r}")
            outer = read_numbers(raw, rest.split(), PlaneGraphError)
        else:
            raise PlaneGraphError(f"unrecognized line: {raw!r}")
    if n is None:
        raise PlaneGraphError("missing 'planegraph <n>' header")
    if outer is None:
        raise PlaneGraphError("missing 'outer:' line")
    if sorted(rot) != list(range(n)):
        raise PlaneGraphError("vertex ids must be exactly 0..n-1")
    return PlaneGraph(rot, outer_walk=outer)


def serialize_plane_graph(g: PlaneGraph) -> str:
    """Serialize; round-trips bit-exactly through parse_plane_graph."""
    if g.vertices != tuple(range(g.n)):
        raise PlaneGraphError("serialization requires dense vertex ids 0..n-1")
    lines = [f"planegraph {g.n}"]
    for v in g.vertices:
        lines.append(f"rot {v}: " + " ".join(str(w) for w in g.rot[v]))
    walk = g.face_vertices(g.outer)
    walk = _min_rotation(walk)
    lines.append("outer: " + " ".join(str(v) for v in walk))
    return "\n".join(lines) + "\n"
