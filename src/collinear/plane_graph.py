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

from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .geom import direction_h, homogeneous

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
                 "_vertex_list", "_edge_set")

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
        if not self._connected():
            raise PlaneGraphError("graph is not connected")
        self._set_faces(self._trace_faces())
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
        as an engine that edits an embedding keeps them.  Each walk is
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

    def _connected(self) -> bool:
        seen = {self._vertex_list[0]}
        stack = [self._vertex_list[0]]
        while stack:
            v = stack.pop()
            for w in self.rot[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def _trace_faces(self) -> Tuple[Tuple[Dart, ...], ...]:
        nxt_idx = {v: {w: i for i, w in enumerate(nbrs)}
                   for v, nbrs in self.rot.items()}
        unused = {(v, w) for v in self.rot for w in self.rot[v]}
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
                nbrs = self.rot[v]
                i = nxt_idx[v][u]
                d = (v, nbrs[(i + 1) % len(nbrs)])
                if d == d0:
                    break
            faces.append(tuple(walk))
        return tuple(faces)

    def _check_face(self, face: int) -> int:
        if not 0 <= face < len(self.faces):
            raise PlaneGraphError("outer face index out of range")
        return face

    def _resolve_outer(self, walk: Tuple[int, ...]) -> int:
        want = tuple(walk)
        for i, fwalk in enumerate(self.faces):
            seq = tuple(d[0] for d in fwalk)
            if len(seq) == len(want) and _cyclic_eq(seq, want):
                return i
        for i, fwalk in enumerate(self.faces):
            seq = tuple(d[0] for d in fwalk)
            if len(seq) == len(want) and _cyclic_eq(seq, tuple(reversed(want))):
                raise PlaneGraphError(
                    "declared outer walk matches a face only in reverse: "
                    "rotations appear to be counter-clockwise; this parser "
                    "requires clockwise neighbour order")
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

    def faces_of_edge(self, u: int, v: int) -> Tuple[int, int]:
        return (self._face_of_dart[(u, v)], self._face_of_dart[(v, u)])

    def face_vertices(self, i: int) -> Tuple[int, ...]:
        return tuple(d[0] for d in self.faces[i])

    def face_key(self, i: int) -> Tuple[int, ...]:
        """Canonical face key: lexicographically least rotation of the vertex walk."""
        return _min_rotation(self.face_vertices(i))

    def face_by_key(self, key: Sequence[int]) -> int:
        want = _min_rotation(tuple(key))
        for i in range(len(self.faces)):
            if self.face_key(i) == want:
                return i
        raise PlaneGraphError(f"no face with walk {list(key)}")

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

    def is_biconnected(self) -> bool:
        return self.n >= 3 and not _articulation_points(self.rot)

    def is_triconnected(self) -> bool:
        return (self.n >= 4 and self.is_biconnected()
                and not any(self._cut_vertices_without(a) for a in self._vertex_list))

    def separation_pairs(self) -> List[Tuple[int, int]]:
        """All pairs {a,b} whose removal disconnects the graph, sorted.

        The graph must be biconnected; then {a,b} separates iff b is an
        articulation point of G - a, so the cost is O(n*m).
        """
        self._require_biconnected()
        return sorted({edge_key(a, b) for a in self._vertex_list
                       for b in self._cut_vertices_without(a)})

    def is_separation_pair(self, a: int, b: int) -> bool:
        """Whether removing a and b disconnects the (biconnected) graph; O(m)."""
        self._require_biconnected()
        return a != b and b in self._cut_vertices_without(a)

    def _require_biconnected(self) -> None:
        if not self.is_biconnected():
            raise PlaneGraphError("separation pairs need a biconnected graph")

    def _cut_vertices_without(self, a: int) -> Set[int]:
        return _articulation_points({v: [w for w in nbrs if w != a]
                                     for v, nbrs in self.rot.items() if v != a})

    def components_without(self, removed: Iterable[int]) -> List[FrozenSet[int]]:
        removed = set(removed)
        seen = set(removed)
        comps = []
        for s in self._vertex_list:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                for w in self.rot[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps

    # -- subgraphs -------------------------------------------------------------

    def subgraph(self, vertices: Optional[Iterable[int]] = None,
                 drop_edges: Iterable[Tuple[int, int]] = ()) -> "PlaneGraph":
        """Connected subgraph with inherited embedding.

        Keeps the induced rotation order on ``vertices`` (default: all), minus
        ``drop_edges``.  The outer face of the result is the face whose region
        contains the parent's outer region (face-merge union-find); it must be
        unique or a PlaneGraphError is raised.
        """
        keep = set(self._vertex_list if vertices is None else vertices)
        dropped = {edge_key(*e) for e in drop_edges}
        rot = {}
        for v in sorted(keep):
            nbrs = tuple(w for w in self.rot[v]
                         if w in keep and edge_key(v, w) not in dropped)
            rot[v] = nbrs
        # union-find over parent faces
        parent = list(range(len(self.faces)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for (a, b) in self._edge_set:
            gone = (a not in keep or b not in keep or edge_key(a, b) in dropped)
            if gone:
                union(self._face_of_dart[(a, b)], self._face_of_dart[(b, a)])
        outer_class = find(self.outer)
        sub = PlaneGraph(rot, outer_face=0)  # provisional outer, fixed below
        cands = []
        for i, walk in enumerate(sub.faces):
            classes = {find(self._face_of_dart[d]) for d in walk}
            if len(classes) != 1:
                raise PlaneGraphError("inherited embedding is inconsistent")
            if classes.pop() == outer_class:
                cands.append(i)
        if len(cands) != 1:
            raise PlaneGraphError(
                f"outer face of subgraph is ambiguous ({len(cands)} candidates)")
        return sub.with_outer(cands[0])

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


def _cyclic_eq(a: Tuple, b: Tuple) -> bool:
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    doubled = a + a
    for i in range(len(a)):
        if doubled[i:i + len(b)] == b:
            return True
    return False


def _min_rotation(seq: Tuple) -> Tuple:
    if not seq:
        return seq
    best = seq
    for i in range(1, len(seq)):
        cand = seq[i:] + seq[:i]
        if cand < best:
            best = cand
    return best


# -- connectivity (iterative Tarjan) -------------------------------------------

def _articulation_points(adj: Mapping[int, Sequence[int]]) -> Set[int]:
    """Articulation vertices of an undirected graph, iterative Tarjan."""
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    out: Set[int] = set()
    timer = 0
    for root in adj:
        if root in disc:
            continue
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                    continue
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if p == root:
                    root_children += 1
                elif low[v] >= disc[p]:
                    out.add(p)
        if root_children > 1:
            out.add(root)
    return out


def _blocks(adj: Mapping[int, Sequence[int]]) -> List[FrozenSet[int]]:
    """Vertex sets of the biconnected components (edge partition classes)."""
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    timer = 0
    estack: List[Tuple[int, int]] = []
    comps: List[FrozenSet[int]] = []
    for root in adj:
        if root in disc:
            continue
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    if disc[w] < disc[v]:
                        estack.append((v, w))
                        low[v] = min(low[v], disc[w])
                    continue
                disc[w] = low[w] = timer
                timer += 1
                estack.append((v, w))
                stack.append((w, v, iter(adj[w])))
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    comp = set()
                    while True:
                        e = estack.pop()
                        comp.update(e)
                        if e == (p, v):
                            break
                    comps.append(frozenset(comp))
    return comps


# -- construction from exact coordinates -----------------------------------------

def graph_from_positions(pos: Mapping[int, Tuple], edges: Iterable[Tuple[int, int]],
                         outer_vertices: Optional[Iterable[int]] = None) -> PlaneGraph:
    """Plane graph induced by an exact straight-line drawing.

    Rotations are the clockwise angular orders around each vertex, sorted on
    integer direction vectors (no floats).  The outer face is the face whose
    angle at the lexicographically smallest vertex contains the direction
    (-1, 0), or the face with the vertex set ``outer_vertices`` if given.
    """
    from functools import cmp_to_key

    H = {v: homogeneous(p) for v, p in pos.items()}
    adj: Dict[int, List[int]] = {v: [] for v in pos}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)

    rot = {}
    for v, ws in adj.items():
        dirs = {w: direction_h(H[v], H[w]) for w in ws}
        half = {w: 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
                for w, (dx, dy) in dirs.items()}

        def ccw(w1, w2):
            if half[w1] != half[w2]:
                return half[w1] - half[w2]
            (x1, y1), (x2, y2) = dirs[w1], dirs[w2]
            cr = x1 * y2 - y1 * x2
            if cr == 0:
                raise PlaneGraphError(f"coincident edge directions at vertex {v}")
            return -1 if cr > 0 else 1

        rot[v] = tuple(reversed(sorted(ws, key=cmp_to_key(ccw))))
    g = PlaneGraph(rot, outer_face=0)

    if outer_vertices is None:
        # every neighbour of the leftmost-lowest vertex s lies in the half
        # plane of directions (-90, 90] degrees; the angle at s clockwise
        # from the lowest of them round to the topmost holds (-1, 0), and
        # the face of the dart (s, topmost) owns that angle
        s = min(pos, key=pos.__getitem__)
        dirs = {w: direction_h(H[s], H[w]) for w in adj[s]}
        top = adj[s][0]
        for w in adj[s][1:]:
            if dirs[top][0] * dirs[w][1] - dirs[top][1] * dirs[w][0] > 0:
                top = w
        outer = g.face_of_dart((s, top))
    else:
        want = frozenset(outer_vertices)
        cands = [i for i in range(len(g.faces))
                 if frozenset(g.face_vertices(i)) == want]
        if len(cands) > 1:
            cands = [i for i in cands
                     if sum(pos[a][0] * pos[b][1] - pos[a][1] * pos[b][0]
                            for (a, b) in g.faces[i]) < 0]
        if len(cands) != 1:
            raise PlaneGraphError(f"outer face not unique ({len(cands)} candidates)")
        outer = cands[0]
    return g.with_outer(outer)


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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        if line.startswith("planegraph"):
            n, = read_numbers(raw, line.split()[1:], PlaneGraphError, 1)
        elif line.startswith("rot"):
            v, = read_numbers(raw, head.split()[1:], PlaneGraphError, 1)
            if v in rot:
                raise PlaneGraphError(f"duplicate rotation line for vertex {v}")
            rot[v] = read_numbers(raw, rest.split(), PlaneGraphError)
        elif line.startswith("outer"):
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
