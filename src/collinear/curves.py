"""Proper good curves on plane graphs, as combinatorial station sequences.

A curve is encoded purely combinatorially: an ordered sequence of *stations*

* ``('v', v)``    — the curve passes through (or ends at) vertex v,
* ``('x', (a,b))`` — the curve crosses edge a-b at one interior point,
* ``('f', f)``    — the curve passes through the interior of face f,

plus the set of *contained* edges (edges the curve runs along entirely, always
between two consecutive vertex stations).  A curve is *good* when every edge
not contained in it shares at most one point with it: a vertex visit counts
one point against every incident non-contained edge, a crossing counts one
against the crossed edge.  An open curve is *proper* when both endpoints are
incident to the unbounded region of the drawing-with-curve.

This module alone decides whether a curve is well formed, good and proper:
``validate_curve`` gives the verdict and ``augment_with_curve`` the checked
embedding.

The central tool is an augmentation engine that embeds the curve into the
graph (subdividing crossed edges, adding chord edges through face interiors,
and dangling endpoint vertices) on integer dart arrays, tracking how original
faces split into regions.  The augmented graph for the curve-to-drawing
direction is built from the region walks when first read, without tracing
faces.  Properness needs no engine when no face takes two interior hops and
no interior hop goes through the outer face: it is read from the two ends in
O(k) for k stations.  Any other curve is embedded and its properness read
off the regions at the two ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .geom import F, orient
from .plane_graph import (PlaneGraph, PlaneGraphError, content_lines, edge_key,
                          read_numbers)

Station = Tuple  # ('v', int) | ('x', (int,int)) | ('f', int)


class CurveError(ValueError):
    """Raised for malformed or non-embeddable curves."""


def Vst(v: int) -> Station:
    return ('v', v)


def Xst(a: int, b: int) -> Station:
    return ('x', edge_key(a, b))


def Fst(f: int) -> Station:
    return ('f', f)


@dataclass(frozen=True)
class GoodCurve:
    """Station sequence with containment data.

    ``contained`` defaults to the edges spanned by consecutive vertex
    stations, which is the only place a contained edge can sit.
    """
    stations: Tuple[Station, ...]
    closed: bool = False
    contained: FrozenSet[Tuple[int, int]] = field(default=None)  # type: ignore

    def __post_init__(self):
        sts = tuple(self.stations)
        object.__setattr__(self, 'stations', sts)
        if self.contained is None:
            cont = set()
            for s1, s2 in _adjacent_pairs(sts, self.closed):
                if s1[0] == 'v' and s2[0] == 'v':
                    cont.add(edge_key(s1[1], s2[1]))
            object.__setattr__(self, 'contained', frozenset(cont))
        else:
            object.__setattr__(self, 'contained',
                               frozenset(edge_key(*e) for e in self.contained))

    @cached_property
    def vertices(self) -> Tuple[int, ...]:
        """The vertex stations in order, computed once per curve (equality
        and hashing read only the fields)."""
        return tuple(s[1] for s in self.stations if s[0] == 'v')

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def reversed(self) -> "GoodCurve":
        return GoodCurve(tuple(reversed(self.stations)), self.closed, self.contained)

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"GoodCurve({kind}, {list(self.stations)})"


@dataclass
class CurveReport:
    vertex_count_on_curve: int
    vertices_on_curve: FrozenSet[int]
    good: bool
    proper: bool
    violations: List[Tuple[Tuple[int, int], int]]


def _adjacent_pairs(stations, closed):
    """Consecutive stations, and on a closed curve the last with the first."""
    return zip(stations, stations[1:] + stations[:1] if closed and len(stations) > 1
               else stations[1:])


# -- well-formedness and tallies -------------------------------------------------


def check_well_formed(g: PlaneGraph, c: GoodCurve) -> None:
    """Raise CurveError unless the station sequence is structurally valid."""
    if not c.stations:
        raise CurveError("empty station sequence")
    seen_v, seen_x = set(), set()
    for s in c.stations:
        kind = s[0]
        if kind == 'v':
            if s[1] not in g.rot:
                raise CurveError(f"unknown vertex {s[1]}")
            if s[1] in seen_v:
                raise CurveError(f"vertex {s[1]} visited twice")
            seen_v.add(s[1])
        elif kind == 'x':
            if not g.has_edge(*s[1]):
                raise CurveError(f"unknown edge {s[1]}")
            if s[1] in seen_x:
                raise CurveError(f"edge {s[1]} crossed twice")
            if s[1] in c.contained:
                raise CurveError(f"edge {s[1]} both contained and crossed")
            seen_x.add(s[1])
        elif kind == 'f':
            if not (0 <= s[1] < len(g.faces)):
                raise CurveError(f"unknown face {s[1]}")
        else:
            raise CurveError(f"unknown station kind {s!r}")
    cont_seen = set()
    for s1, s2 in _adjacent_pairs(c.stations, c.closed):
        k1, k2 = s1[0], s2[0]
        if k1 == 'f' and k2 == 'f':
            raise CurveError("two consecutive face hops")
        if k1 != 'f' and k2 != 'f':
            if not (k1 == 'v' and k2 == 'v'):
                raise CurveError(f"stations {s1} and {s2} need a face hop between them")
            e = edge_key(s1[1], s2[1])
            if not g.has_edge(*e):
                raise CurveError(f"consecutive vertices {e} are not adjacent")
            if e not in c.contained:
                raise CurveError(f"edge {e} between consecutive vertices not contained")
            cont_seen.add(e)
        if k1 == 'f':
            _check_face_incident(g, s1[1], s2)
        elif k2 == 'f':
            _check_face_incident(g, s2[1], s1)
    if c.contained - cont_seen:
        raise CurveError(f"contained edges {sorted(c.contained - cont_seen)} "
                         "not spanned by consecutive vertex stations")
    if c.closed and len(c.stations) < 2:
        raise CurveError("closed curve needs at least two stations")


def _check_face_incident(g: PlaneGraph, f: int, s: Station) -> None:
    """Face f holds a dart at station s, by the dart-to-face map."""
    fod = g._face_of_dart
    if s[0] == 'v':
        v = s[1]
        if f not in map(fod.__getitem__, zip(repeat(v), g.rot[v])):
            raise CurveError(f"face {f} not incident to vertex {v}")
    elif s[0] == 'x':
        a, b = s[1]
        if fod[a, b] != f and fod[b, a] != f:
            raise CurveError(f"face {f} not incident to edge {s[1]}")


def edge_tallies(g: PlaneGraph, c: GoodCurve) -> Dict[Tuple[int, int], int]:
    """Common-point count of the curve with every non-contained edge."""
    tally: Dict[Tuple[int, int], int] = {}
    contained = c.contained
    for s in c.stations:
        if s[0] == 'v':
            v = s[1]
            for w in g.rot[v]:
                e = (v, w) if v < w else (w, v)
                if e not in contained:
                    tally[e] = tally.get(e, 0) + 1
        elif s[0] == 'x':
            tally[s[1]] = tally.get(s[1], 0) + 1
    return tally


# -- augmentation engine ----------------------------------------------------------


@dataclass
class AugmentedCurve:
    """Result of embedding a curve into its plane graph.

    graph:          the augmented plane graph; its outer face is a region of
                    the old one, touching both ends when the curve is proper.
    station_vertex: vertex realizing each station (None for pass-through hops).
    endpoints:      (a, b) endpoint vertices, None for closed curves.
    path_vertices:  the curve as a vertex path of the augmented graph.
    path_edges:     its edges in order (chords, antennas, contained edges).
    subdivision:    crossed edge -> subdivision vertex.
    walk_tags:      augmented face index -> original face index it descends from.
    proper:         open curve with both ends incident to the outer region.

    ``graph`` and ``walk_tags`` are built from the engine's region walks when
    first read; ``rotation`` and ``outer_corner`` read the engine's darts.
    """
    station_vertex: List[Optional[int]]
    endpoints: Optional[Tuple[int, int]]
    path_vertices: List[int]
    path_edges: List[Tuple[int, int]]
    subdivision: Dict[Tuple[int, int], int]
    proper: bool
    _engine: "_Engine" = field(repr=False, compare=False)
    _outer: int = field(repr=False, compare=False)      # the outer region

    @cached_property
    def _built(self) -> Tuple[PlaneGraph, Dict[int, int]]:
        pg, index = self._engine.graph()
        return pg.with_outer(index[self._outer]), dict(zip(index, self._engine.tag))

    @property
    def graph(self) -> PlaneGraph:
        return self._built[0]

    @property
    def walk_tags(self) -> Dict[int, int]:
        return self._built[1]

    @cached_property
    def _edited(self) -> Set[int]:
        return set(self._engine.edited())

    def rotation(self, v: int) -> Sequence[int]:
        """v's clockwise neighbours in the augmented graph."""
        eng = self._engine
        return eng.rotation(v) if v in self._edited else eng.g.rot[v]

    def outer_corner(self, v: int) -> int:
        """w with (v, w) the dart after the first dart into v on the outer
        walk, read from its least dart as a traced face is."""
        eng = self._engine
        walk = eng._face(eng.face_key(self._outer)[2])
        i = next(i for i, d in enumerate(walk) if eng.head[d] == v)
        return eng.head[walk[(i + 1) % len(walk)]]


def augment_with_curve(g: PlaneGraph, c: GoodCurve) -> AugmentedCurve:
    """Embed the curve into g: the checked embedding.

    Raises CurveError for a curve that is not well formed or not good.
    Crossed edges are subdivided; every face hop becomes a chord (or, at the
    ends of an open curve, a dangling endpoint vertex inside the hop face); a
    terminal crossing dangles an endpoint just past the crossed edge.  Raises
    CurveError when a hop cannot be drawn (no region of its face holds both
    ends, or its chord would parallel an edge).  A crossed bridge (one face
    on both sides) is entered on one side and left on the other.  The dart
    map embeds the curve in O(m + k) for k stations; the graph is built from
    its region walks in O(m) more when first read, without tracing faces.
    """
    check_well_formed(g, c)
    bad = sorted((e, t) for e, t in edge_tallies(g, c).items() if t > 1)
    if bad:
        raise CurveError(f"curve is not good; edges with 2+ common points: {bad}")
    eng, station_vertex, endpoints = _embed(g, c)
    # the curve path: the anchors, plus the endpoints an open curve dangles
    path_v = [v for v in station_vertex if v is not None]
    if endpoints is not None:
        if c.stations[0][0] != 'v':
            path_v.insert(0, endpoints[0])
        if c.stations[-1][0] != 'v':
            path_v.append(endpoints[1])
    path_e = [edge_key(p, q) for p, q in zip(path_v, path_v[1:])]
    if c.closed and len(path_v) > 1:
        path_e.append(edge_key(path_v[-1], path_v[0]))
    # the outer region: a region of the old outer face, one touching both
    # ends if there is one (then the curve is proper); among several, the
    # one with the least dart, which is the first in face order
    touching = eng.touches_both(g.outer, endpoints) if endpoints else []
    cands = touching or [r for r, tag in enumerate(eng.tag) if tag == g.outer]
    outer = min(cands, key=eng.face_key)
    return AugmentedCurve(station_vertex, endpoints, path_v, path_e, dict(eng.sub),
                          bool(touching), eng, outer)


def _embed(g: PlaneGraph, c: GoodCurve):
    """Run the engine on a well-formed good curve: returns the engine, the
    vertex realizing each station and the endpoints (None when closed)."""
    eng, sts = _Engine(g), c.stations
    n = len(sts)
    for s in sts:
        if s[0] == 'x':
            eng.subdivide(s[1])
    station_vertex: List[Optional[int]] = [
        s[1] if s[0] == 'v' else eng.sub[s[1]] if s[0] == 'x' else None for s in sts]
    endpoints = None
    if not c.closed:
        a = _terminal(eng, sts, station_vertex, first=True)
    # interior hops -> chords, in curve order; a chord into a crossing names
    # the anchor of the chord out of it, when there is one
    for i in range(n) if c.closed else range(1, n - 1):
        if sts[i][0] == 'f':
            then = (station_vertex[(i + 3) % n] if sts[(i + 1) % n][0] == 'x'
                    and (c.closed or i + 2 < n - 1) and sts[(i + 2) % n][0] == 'f'
                    else None)
            eng.insert_chord(station_vertex[i - 1], station_vertex[(i + 1) % n],
                             sts[i][1], then)
    if not c.closed:
        endpoints = (a, _terminal(eng, sts, station_vertex, first=False))
    return eng, station_vertex, endpoints


def _terminal(eng: "_Engine", sts, station_vertex, first: bool) -> int:
    """Realize one endpoint of an open curve; returns the endpoint vertex."""
    i = 0 if first else len(sts) - 1
    s = sts[i]
    if s[0] == 'v':
        return s[1]
    if s[0] == 'f':
        j = 1 if first else len(sts) - 2
        if j < 0 or j >= len(sts):
            raise CurveError("single-hop curves have no attachment "
                             "(handle the empty curve separately)")
        anchor = station_vertex[j]
        return eng.insert_antenna(anchor, s[1])
    return eng.insert_antenna(eng.sub[s[1]], _far_face(eng.g, sts, first))


def _far_face(g: PlaneGraph, sts, first: bool) -> int:
    """The face a terminal crossing's end lies in: just past the crossed
    edge, on the other side from the adjacent hop."""
    f1, f2 = g.faces_of_edge(*sts[0 if first else -1][1])
    if len(sts) == 1:
        return f1 if first else f2
    near = sts[1 if first else -2]
    if near[0] != 'f':
        raise CurveError("crossing station must neighbour a face hop")
    return f2 if near[1] == f1 else f1


class _Engine:
    """Mutable embedding on flat integer lists indexed by dart (a doubly-
    connected edge list) copied from ``PlaneGraph._dart_arrays``.  Region r
    descends from face ``tag[r]`` and is read from dart ``start[r]``: face f
    is region f, from its least dart; a chord keeps the side holding its dart
    (a, b) in the split region, from the dart after b's corner, and numbers
    the side holding (b, a) anew, from the dart after a's corner.  Each
    operation is O(1) link updates; a chord also relabels its new region."""

    def __init__(self, g: PlaneGraph):
        self.g = g
        *arrays, self.lo = g._dart_arrays()
        self.head, self.twin, self.cw, self.region, self.start, self.first = map(
            list, arrays)
        self.tag = list(range(len(g.faces)))
        self.sub: Dict[Tuple[int, int], int] = {}
        self.bridge: Dict[int, Tuple[int, int]] = {}    # subdivision vertex -> its ends

    def _around(self, v: int) -> List[int]:
        """The darts leaving v, clockwise from its first one."""
        cw, d0 = self.cw, self.first[v - self.lo]
        out, d = [d0], cw[d0]
        while d != d0:
            out.append(d)
            d = cw[d]
        return out

    def _corners(self, v: int, face: int, other: Optional[int] = None
                 ) -> List[Tuple[int, int]]:
        """(region, incoming dart) of each corner of v in a region of
        ``face``: the corner between darts d and ``cw[d]`` is entered by
        ``twin[d]``.  A chord from v to ``other`` must not parallel an edge.
        On a crossed bridge only the corners between its own two darts
        count, so its second chord or antenna takes the side left free."""
        head, cw, region, tag = self.head, self.cw, self.region, self.tag
        ends = self.bridge.get(v)
        out = []
        d0 = d = self.first[v - self.lo]
        while True:
            if head[d] == other:
                raise CurveError(f"cannot route hop between {v} and {other} through "
                                 f"face {face}: the chord would parallel edge "
                                 f"{edge_key(v, other)}")
            e = cw[d]
            if tag[region[e]] == face and (ends is None or {head[d], head[e]} == set(ends)):
                out.append((region[e], self.twin[d]))
            if e == d0:
                return out
            d = e

    def _corner(self, v: int, r: int, corners: List[Tuple[int, int]]) -> int:
        """v's corner in region r: the only one, or the first from the start."""
        mine = [d for rr, d in corners if rr == r]
        if len(mine) == 1:
            return mine[0]
        twin, cw = self.twin, self.cw
        d = self.start[r]
        while d not in mine:
            d = cw[twin[d]]
        return d

    def _add_edge(self, x: int, y: Optional[int], b: int, r: int) -> None:
        """Darts (a, b) and (b, a) in region r, a the tail of dart x: (a, b)
        right after x clockwise round a, (b, a) after y round b (or alone)."""
        head, twin, cw = self.head, self.twin, self.cw
        ab = len(head)
        head.extend((b, head[twin[x]]))
        twin.extend((ab + 1, ab))
        cw.extend((cw[x], ab + 1 if y is None else cw[y]))
        cw[x] = ab
        if y is not None:
            cw[y] = ab + 1
        self.region.extend((r, r))

    def subdivide(self, e: Tuple[int, int]) -> int:
        """``split`` the original edge e = (u, v) on its dart (u, v)."""
        d = self.g._dart_id(e)
        w = self.sub[e] = self.split(d)
        if self.region[d] == self.region[self.twin[d]]:
            self.bridge[w] = e
        return w

    def split(self, d: int) -> int:
        """Put a new vertex w on dart d = (u, v), whose two darts become (u, w)
        and (v, w) with their numbers and regions; w's rotation is (u, v)."""
        head, twin, region = self.head, self.twin, self.region
        t, k = twin[d], len(head)
        self.first.append(k + 1)    # w's rotation starts with (w, u)
        w = self.lo + len(self.first) - 1
        # d, t become (u, w), (v, w); k is (w, v) and k + 1 is (w, u)
        head.extend((head[d], head[t]))
        head[d] = head[t] = w
        twin[d], twin[t] = k + 1, k
        twin.extend((t, d))
        self.cw.extend((k + 1, k))
        region.extend((region[d], region[t]))
        return w

    def insert_antenna(self, anchor: int, face: int) -> int:
        """Dangle a new degree-1 vertex off ``anchor`` inside ``face``."""
        corners = self._corners(anchor, face)
        if not corners:
            raise CurveError(f"cannot attach endpoint at {anchor} inside face {face}")
        r = min(corners)[0]
        x = self.twin[self._corner(anchor, r, corners)]
        self.first.append(len(self.head) + 1)
        t = self.lo + len(self.first) - 1
        self._add_edge(x, None, t, r)
        return t

    def insert_chord(self, a: int, b: int, face: int, then: Optional[int] = None) -> None:
        """Connect anchors a, b by a new edge through (a region of) ``face``;
        the side holding the new dart (b, a) becomes a new region.  At a
        crossed bridge b with both corners in the region, b's corner is the
        one that leaves the other on a side holding ``then``, the anchor of
        the chord out of b: along the region walk from a's corner, the first
        of the two when ``then`` follows it, else the second."""
        twin, cw = self.twin, self.cw
        ca, cb = self._corners(a, face, b), self._corners(b, face)
        at_b = [r for r, _ in cb]
        common = [r for r, _ in ca if r in at_b] if a != b else ()
        if not common:
            raise CurveError(f"cannot route hop between {a} and {b} through face {face}: "
                             "no region of that face touches both (curve not embeddable)")
        r = min(common)
        xa = twin[ca[0][1] if len(ca) == 1 else self._corner(a, r, ca)]
        mine = [d for rr, d in cb if rr == r]
        if then is not None and b in self.bridge and len(mine) == 2:
            walk = self._face(cw[xa])
            i, k = sorted(map(walk.index, mine))
            xb = twin[walk[i] if then in (self.head[d] for d in walk[i + 1:]) else walk[k]]
        else:
            xb = twin[cb[0][1] if len(cb) == 1 else self._corner(b, r, cb)]
        self.chord(xa, xb, r)

    def chord(self, xa: int, xb: int, r: int) -> int:
        """Split region r by an edge (a, b) right after darts xa, xb leaving a,
        b clockwise; returns the new region, the side holding (b, a)."""
        out_a, out_b = self.cw[xa], self.cw[xb]
        self._add_edge(xa, xb, self.head[self.twin[xb]], r)
        new = len(self.tag)
        self.tag.append(self.tag[r])
        self.start.append(out_a)
        self.start[r] = out_b
        for d in self._face(out_a):
            self.region[d] = new
        return new

    def touches_both(self, tag: int, ends: Tuple[int, int]) -> List[int]:
        """The regions of face ``tag`` at both ends, ascending."""
        region, t = self.region, self.tag
        at_a = {region[d] for d in self._around(ends[0]) if t[region[d]] == tag}
        return sorted(at_a.intersection(region[d] for d in self._around(ends[1])))

    def pair(self, d: int) -> Tuple[int, int]:
        """Dart d as (tail, head)."""
        return self.head[self.twin[d]], self.head[d]

    def face_key(self, r: int) -> Tuple[int, int, int]:
        """Region r's least dart d by ``pair``, as (tail, head, d): faces are
        numbered, and their walks start, in that order."""
        return min((*self.pair(d), d) for d in self._face(self.start[r]))

    def edited(self) -> List[int]:
        """The vertices whose rotation differs from g's, ascending: the heads
        of new darts, then the new vertices."""
        head, top = self.head, self.g.vertices[-1]
        return (sorted({head[d] for d in range(2 * self.g.m, len(head)) if head[d] <= top})
                + list(range(top + 1, self.lo + len(self.first))))

    def rotation(self, v: int) -> List[int]:
        """v's neighbours clockwise, from the head of its first dart."""
        return [self.head[d] for d in self._around(v)]

    def _face(self, d0: int) -> List[int]:
        """The darts of the region walk through d0, from d0."""
        twin, cw = self.twin, self.cw
        out, d = [d0], cw[twin[d0]]
        while d != d0:
            out.append(d)
            d = cw[twin[d]]
        return out

    def graph(self) -> Tuple[PlaneGraph, List[int]]:
        """The graph built from the region walks, and each region's face.
        Rotations and walks are read off the darts only where they changed:
        at heads of new darts, in regions holding one (a chord leaves its
        (a, b) in the region it splits)."""
        g, head = self.g, self.head
        new = range(2 * g.m, len(head))
        rot = {v: g.rot[v] for v in g.vertices}
        for v in self.edited():
            rot[v] = self.rotation(v)
        edited = {self.region[d] for d in new}
        twin = self.twin
        walks = [g.faces[r] if r < len(g.faces) and r not in edited
                 else [(head[twin[d]], head[d]) for d in self._face(d0)]
                 for r, d0 in enumerate(self.start)]
        try:
            pg = PlaneGraph._from_walks(rot, walks)
        except PlaneGraphError as exc:
            raise CurveError(f"curve augmentation is not a plane graph: {exc}") from exc
        return pg, [pg.face_of_dart(walk[0]) for walk in walks]


# -- public validation ops ---------------------------------------------------------


def validate_curve(g: PlaneGraph, c: GoodCurve) -> CurveReport:
    """The verdict on a curve: raises CurveError unless it is well formed,
    then reports goodness (per-edge common-point tallies) and properness.

    Only an open good curve can be proper.  Properness is read from the two
    ends in O(k) for k stations when no face takes two interior hops and no
    interior hop goes through the outer face, else by embedding the curve on
    the dart map in O(m + k) (see ``_proper``).  No graph is built either
    way.
    """
    check_well_formed(g, c)
    violations = sorted((e, t) for e, t in edge_tallies(g, c).items() if t > 1)
    good = not violations
    proper = good and _proper(g, c)
    verts = frozenset(c.vertices)
    return CurveReport(len(verts), verts, good, proper, violations)


def _proper(g: PlaneGraph, c: GoodCurve) -> bool:
    """Whether a curve already known to be well formed and good is open and
    proper.

    The interior hops are the face stations other than the first and the
    last.  When no face takes two of them and none goes through the outer
    face, the verdict is read from the two ends in O(k) for k stations (plus
    the degree of a vertex end): each end must reach the outer face.  A
    vertex end reaches it when one of its darts lies in it, a hop end when
    it hops through it, and a crossing end when the face past the crossed
    edge, away from the adjacent hop, is the outer face.

    This is the engine's verdict.  The engine adds one chord per interior
    hop, inside the hop's face, and no other split.  That face is hopped
    once, so no earlier chord has split it, and well-formedness puts both
    anchors on it: the chord finds its region.  The chord parallels no
    edge, because such an edge would meet the curve twice.  The anchors
    are distinct stations that are not consecutive, so an original edge
    between two vertex stations is not contained and meets the curve at
    both; a subdivision vertex is adjacent only to the ends of its edge,
    which meets the curve at the crossing and at that end; and two chords
    never share both anchors.  So the engine raises nothing, and the outer
    face, which no chord enters, stays one region.  The curve is proper
    exactly when both end vertices have a dart in that region.  A vertex
    end gets new darts only from chords and antennas in faces it already
    touches.  An antenna end has darts only in its antenna's face: the hop
    face, or for a crossing the far face, which ``_terminal`` also takes
    from ``_far_face``.  A one-station curve has no interior hop and is
    covered too; a lone hop, which the engine cannot embed, is proper by
    definition exactly when it lies in the outer face, as the rule reads.
    Any other curve is embedded.
    """
    if c.closed:
        return False
    sts, outer = c.stations, g.outer
    hops = [s[1] for s in sts[1:-1] if s[0] == 'f']
    if outer not in hops and len(set(hops)) == len(hops):
        return _reaches_outer(g, sts, True) and _reaches_outer(g, sts, False)
    eng, _, endpoints = _embed(g, c)
    return bool(eng.touches_both(outer, endpoints))


def _reaches_outer(g: PlaneGraph, sts, first: bool) -> bool:
    """Whether the first (or last) end of a curve that no chord embeds in
    the outer face lies in that face."""
    kind, x = sts[0 if first else -1]
    if kind == 'v':
        return g.outer in g.faces_at(x)
    return (x if kind == 'f' else _far_face(g, sts, first)) == g.outer


def cut_closed_curve(g: PlaneGraph, c: GoodCurve) -> Tuple[PlaneGraph, GoodCurve]:
    """Open a closed curve inside a face it hops through.

    The hop face becomes the graph's outer face, making the opened curve
    proper while keeping every vertex on it.
    """
    if not c.closed:
        raise CurveError("curve is already open")
    hops = [i for i, s in enumerate(c.stations) if s[0] == 'f']
    if not hops:
        raise CurveError("closed curve has no face hop to cut at")
    internal = [i for i in hops if c.stations[i][1] != g.outer]
    i = internal[0] if internal else hops[0]
    f = c.stations[i][1]
    sts = c.stations[i + 1:] + c.stations[:i]
    opened = GoodCurve((Fst(f),) + sts + (Fst(f),), closed=False,
                       contained=c.contained)
    return g.with_outer(f), opened


# -- drawing -> curve (Theorem 1, necessity direction) ------------------------------


def curve_from_drawing(g: PlaneGraph, pos: Dict[int, Tuple[Fraction, Fraction]],
                       line: Tuple[Fraction, Fraction, Fraction]) -> GoodCurve:
    """Station sequence of a line's intersection with an exact drawing.

    ``line`` is (A, B, C) with Ax + By = C.  The result is the open curve
    along the line, clipped so both ends lie in the unbounded face; it is good
    and proper by construction, and its vertex stations are exactly the
    vertices drawn on the line.  The drawing must realize ``g``'s rotation
    system and outer face, as ``realize.verify_drawing`` checks: each hop
    face is read from the rotation system on both sides of the hop, and a
    disagreement, or a line that does not enter and leave through the outer
    face, raises CurveError.  Cost: O(m log m) for sorting the events, O(deg)
    exact signs per event.
    """
    A, B, C = F(line[0]), F(line[1]), F(line[2])
    if A == 0 and B == 0:
        raise CurveError("degenerate line")
    d = (B, -A)  # direction along the line

    def t_of(p):
        return d[0] * p[0] + d[1] * p[1]

    side = {v: A * pos[v][0] + B * pos[v][1] - C for v in g.vertices}
    events = []  # (t, station)
    on_l = {v for v in g.vertices if side[v] == 0}
    for v in on_l:
        events.append((t_of(pos[v]), Vst(v)))
    contained = set()
    for (u, v) in g.edges:
        if u in on_l and v in on_l:
            contained.add(edge_key(u, v))
            continue
        pu, pv = pos[u], pos[v]
        su, sv = side[u], side[v]
        if (su > 0 and sv < 0) or (su < 0 and sv > 0):
            tt = su / (su - sv)
            pt = (pu[0] + tt * (pv[0] - pu[0]), pu[1] + tt * (pv[1] - pu[1]))
            events.append((t_of(pt), Xst(u, v)))
    events.sort(key=lambda e: e[0])
    if not events:
        return GoodCurve((Fst(g.outer),), closed=False)

    def face_towards(s: Station, sense: int) -> int:
        """The face met leaving station s in direction sense * d."""
        # beyond a crossed edge u-v it is the face left of u->v iff
        # orient(u, v, u + d) = side[u] - side[v] > 0, i.e. iff side[u] > 0
        if s[0] == 'x':
            u, v = s[1]
            return g.face_of_dart((u, v) if sense * side[u] > 0 else (v, u))
        # At a vertex v, the corner swept clockwise from ray v->u to ray v->w
        # (w follows u in the rotation) belongs to the face of dart (u, v).
        # The cross product of ray v->y with d is -side[y], so the direction
        # lies clockwise of ray v->y within a half turn iff sense * side[y] > 0.
        v = s[1]
        nbrs = g.rot[v]
        for i, u in enumerate(nbrs):
            w = nbrs[(i + 1) % len(nbrs)]
            after_u, before_w = sense * side[u] > 0, sense * side[w] < 0
            if u == w or (after_u and before_w):
                return g.face_of_dart((u, v))
            if after_u or before_w:  # then inside iff the corner is reflex
                turn = orient(pos[v], pos[u], pos[w])
                if turn > 0 or (turn == 0 and after_u):
                    return g.face_of_dart((u, v))
        raise CurveError(f"drawing does not realize the graph's embedding: "
                         f"no corner at vertex {v} contains the line")

    stations: List[Station] = []
    prev = None  # the previous event; None at both ends of the line
    for s in [e[1] for e in events] + [None]:
        if (prev is not None and s is not None and prev[0] == s[0] == 'v'
                and edge_key(prev[1], s[1]) in contained):
            pass  # travelling along the contained edge, no hop
        else:
            f = g.outer if prev is None else face_towards(prev, 1)
            if f != (g.outer if s is None else face_towards(s, -1)):
                raise CurveError(f"drawing does not realize the graph's embedding: "
                                 f"the faces between {prev} and {s} disagree")
            stations.append(Fst(f))
        if s is not None:
            stations.append(s)
        prev = s
    cont_used = {edge_key(s1[1], s2[1]) for s1, s2 in zip(stations, stations[1:])
                 if s1[0] == s2[0] == 'v'}
    return GoodCurve(tuple(stations), closed=False, contained=frozenset(cont_used))


# -- interchange format --------------------------------------------------------------


def parse_curve(g: PlaneGraph, text: str) -> GoodCurve:
    """Parse the curve interchange format.

    Format::

        curve open|closed
        v <id>
        x <a> <b>
        f <v1> <v2> ...   # face identified by its boundary walk
        e <a> <b>         # contained edge (between the surrounding v lines)
    """
    closed = None
    stations: List[Station] = []
    contained = set()
    for raw, line in content_lines(text):
        parts = line.split()
        if parts[0] == "curve":
            if len(parts) != 2 or parts[1] not in ("open", "closed"):
                raise CurveError(f"bad curve header: {raw!r}")
            closed = parts[1] == "closed"
        elif parts[0] == "v":
            stations.append(Vst(*read_numbers(raw, parts[1:], CurveError, 1)))
        elif parts[0] == "x":
            stations.append(Xst(*read_numbers(raw, parts[1:], CurveError, 2)))
        elif parts[0] == "f":
            try:
                fi = g.face_by_key(read_numbers(raw, parts[1:], CurveError))
            except PlaneGraphError as exc:
                raise CurveError(str(exc)) from exc
            stations.append(Fst(fi))
        elif parts[0] == "e":
            contained.add(edge_key(*read_numbers(raw, parts[1:], CurveError, 2)))
        else:
            raise CurveError(f"unrecognized line: {raw!r}")
    if closed is None:
        raise CurveError("missing 'curve open|closed' header")
    return GoodCurve(tuple(stations), closed=closed, contained=frozenset(contained))


def serialize_curve(g: PlaneGraph, c: GoodCurve) -> str:
    lines = ["curve " + ("closed" if c.closed else "open")]
    prev = None
    for s in c.stations:
        if (prev is not None and prev[0] == 'v' and s[0] == 'v'
                and edge_key(prev[1], s[1]) in c.contained):
            lines.append(f"e {edge_key(prev[1], s[1])[0]} {edge_key(prev[1], s[1])[1]}")
        if s[0] == 'v':
            lines.append(f"v {s[1]}")
        elif s[0] == 'x':
            lines.append(f"x {s[1][0]} {s[1][1]}")
        else:
            lines.append("f " + " ".join(str(v) for v in g.face_key(s[1])))
        prev = s
    if c.closed and len(c.stations) > 1:
        s1, s2 = c.stations[-1], c.stations[0]
        if s1[0] == 'v' and s2[0] == 'v' and edge_key(s1[1], s2[1]) in c.contained:
            e = edge_key(s1[1], s2[1])
            lines.append(f"e {e[0]} {e[1]}")
    return "\n".join(lines) + "\n"
