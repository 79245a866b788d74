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

The central tool is an augmentation engine that embeds the curve into the
graph (subdividing crossed edges, adding chord edges through face interiors,
and dangling endpoint vertices), tracking how original faces split.  Its dart
walks are the faces of the augmented embedding, each tagged with the original
face it descends from.  Properness is read from the walks tagged with the
outer face, and the augmented graph for the curve-to-drawing direction is
built from all of them; both cost O(m) per curve and trace no faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .geom import F, orient
from .plane_graph import PlaneGraph, PlaneGraphError, edge_key, read_numbers

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

    @property
    def vertices(self) -> Tuple[int, ...]:
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
    n = len(stations)
    for i in range(n - 1):
        yield stations[i], stations[i + 1]
    if closed and n > 1:
        yield stations[-1], stations[0]


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
    if s[0] == 'v':
        v = s[1]
        if all(g.face_of_dart((v, w)) != f for w in g.rot[v]):
            raise CurveError(f"face {f} not incident to vertex {v}")
    elif s[0] == 'x':
        if f not in g.faces_of_edge(*s[1]):
            raise CurveError(f"face {f} not incident to edge {s[1]}")


def edge_tallies(g: PlaneGraph, c: GoodCurve) -> Dict[Tuple[int, int], int]:
    """Common-point count of the curve with every non-contained edge."""
    tally: Dict[Tuple[int, int], int] = {}
    for s in c.stations:
        if s[0] == 'v':
            v = s[1]
            for w in g.rot[v]:
                e = edge_key(v, w)
                if e not in c.contained:
                    tally[e] = tally.get(e, 0) + 1
        elif s[0] == 'x':
            tally[s[1]] = tally.get(s[1], 0) + 1
    return tally


# -- augmentation engine ----------------------------------------------------------


@dataclass
class AugmentedCurve:
    """Result of embedding a curve into its plane graph.

    graph:          the augmented plane graph, built from the engine's walks
                    without tracing faces (outer face chosen among the regions
                    the original outer face split into; when the curve is open
                    and proper, the chosen region touches both ends).
    station_vertex: vertex realizing each station (None for pass-through hops).
    endpoints:      (a, b) endpoint vertices, None for closed curves.
    path_vertices:  the curve as a vertex path of the augmented graph.
    path_edges:     its edges in order (chords, antennas, contained edges).
    subdivision:    crossed edge -> subdivision vertex.
    walk_tags:      augmented face index -> original face index it descends from.
    proper:         open curve with both ends incident to the outer region.
    """
    graph: PlaneGraph
    station_vertex: List[Optional[int]]
    endpoints: Optional[Tuple[int, int]]
    path_vertices: List[int]
    path_edges: List[Tuple[int, int]]
    subdivision: Dict[Tuple[int, int], int]
    walk_tags: Dict[int, int]
    proper: bool


def augment_with_curve(g: PlaneGraph, c: GoodCurve) -> AugmentedCurve:
    """Embed the curve into g.

    Crossed edges are subdivided; every face hop becomes a chord (or, at the
    ends of an open curve, a dangling endpoint vertex inside the hop face); a
    terminal crossing dangles an endpoint just past the crossed edge.  Raises
    CurveError when the hops cannot be drawn (the face region required by a
    hop no longer contains both attachment points — i.e. the curve would have
    to cross itself or an edge twice).  The augmented graph is built from the
    engine's face walks in O(m), without tracing faces.
    """
    _require_good(g, c)
    return _augment(g, c)


def _require_good(g: PlaneGraph, c: GoodCurve) -> None:
    check_well_formed(g, c)
    bad = [(e, t) for e, t in edge_tallies(g, c).items() if t > 1]
    if bad:
        raise CurveError(f"curve is not good; edges with 2+ common points: {sorted(bad)}")


def _embed(g: PlaneGraph, c: GoodCurve):
    """Run the engine on a well-formed good curve: returns the engine, the
    vertex realizing each station and the endpoints (None when closed)."""
    eng = _Engine(g)
    sts = c.stations
    n = len(sts)
    for s in sts:
        if s[0] == 'x':
            eng.subdivide(s[1])
    station_vertex: List[Optional[int]] = [
        s[1] if s[0] == 'v' else eng.sub[s[1]] if s[0] == 'x' else None for s in sts]
    endpoints = None
    if not c.closed:
        a = _terminal(eng, sts, station_vertex, first=True)
    # interior hops -> chords, in curve order
    for i in range(n) if c.closed else range(1, n - 1):
        if sts[i][0] == 'f':
            eng.insert_chord(station_vertex[i - 1], station_vertex[(i + 1) % n],
                             sts[i][1])
    if not c.closed:
        endpoints = (a, _terminal(eng, sts, station_vertex, first=False))
    return eng, station_vertex, endpoints


def _augment(g: PlaneGraph, c: GoodCurve) -> AugmentedCurve:
    """augment_with_curve for a curve already known to be well formed and good."""
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
    return eng.finish(g, station_vertex, endpoints, path_v, path_e)


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
    # terminal crossing: the curve ends just past the crossed edge, in the
    # face on the other side from the adjacent hop
    w = eng.sub[s[1]]
    f1, f2 = eng.g.faces_of_edge(*s[1])
    if len(sts) == 1:
        far = f1 if first else f2
    else:
        j = 1 if first else len(sts) - 2
        near = sts[j]
        if near[0] != 'f':
            raise CurveError("crossing station must neighbour a face hop")
        far = f2 if near[1] == f1 else f1
    return eng.insert_antenna(w, far)


class _Engine:
    """Mutable embedding under subdivision / chord insertion.

    Faces are kept as dart walks tagged with the original face they descend
    from; inserting a chord splits one walk into two (both keep the tag), and
    an antenna grows a walk in place.  The walks stay the faces of ``rot``
    under the tracing convention, so ``finish`` builds the graph from them.
    """

    def __init__(self, g: PlaneGraph):
        self.g = g
        self.rot: Dict[int, List[int]] = {v: list(g.rot[v]) for v in g.vertices}
        self.walks: List[Tuple[int, List[Tuple[int, int]]]] = [
            (i, list(w)) for i, w in enumerate(g.faces)]
        # original face tag -> indices into self.walks (regions of that face)
        self.by_tag: Dict[int, List[int]] = {i: [i] for i in range(len(g.faces))}
        self.sub: Dict[Tuple[int, int], int] = {}
        self.next_id = max(g.vertices) + 1

    def _new_vertex(self) -> int:
        v = self.next_id
        self.next_id += 1
        return v

    def subdivide(self, e: Tuple[int, int]) -> int:
        u, v = e
        w = self._new_vertex()
        self.rot[u][self.rot[u].index(v)] = w
        self.rot[v][self.rot[v].index(u)] = w
        self.rot[w] = [u, v]
        self.sub[e] = w
        sides = set(self.g.faces_of_edge(u, v))
        cand = {wi for f in sides for wi in self.by_tag.get(f, ())}
        for wi in cand:
            darts = self.walks[wi][1]
            for i, d in enumerate(darts):
                if d == (u, v):
                    darts[i:i + 1] = [(u, w), (w, v)]
                    break
            for i, d in enumerate(darts):
                if d == (v, u):
                    darts[i:i + 1] = [(v, w), (w, u)]
                    break
        return w

    def _corners(self, darts, v) -> List[int]:
        return [i for i, d in enumerate(darts) if d[1] == v]

    def insert_antenna(self, anchor: int, face: int) -> int:
        """Dangle a new degree-1 vertex off ``anchor`` inside ``face``."""
        for wi in self.by_tag.get(face, ()):
            darts = self.walks[wi][1]
            cs = self._corners(darts, anchor)
            if not cs:
                continue
            i = cs[0]
            x = darts[i][0]
            t = self._new_vertex()
            self.rot[t] = [anchor]
            ra = self.rot[anchor]
            ra.insert(ra.index(x) + 1, t)
            darts[i + 1:i + 1] = [(anchor, t), (t, anchor)]
            return t
        raise CurveError(f"cannot attach endpoint at {anchor} inside face {face}")

    def insert_chord(self, a: int, b: int, face: int) -> None:
        """Connect anchors a, b by a new edge through (a region of) ``face``."""
        for wi in self.by_tag.get(face, ()):
            tag, darts = self.walks[wi]
            ca = self._corners(darts, a)
            cb = self._corners(darts, b)
            if not ca or not cb:
                continue
            i, j = ca[0], cb[0]
            if i == j:
                continue
            x = darts[i][0]
            z = darts[j][0]
            ra, rb = self.rot[a], self.rot[b]
            ra.insert(ra.index(x) + 1, b)
            rb.insert(rb.index(z) + 1, a)
            n = len(darts)

            def cyc(lo, hi):  # darts at positions lo+1 .. hi (cyclic, inclusive)
                out = []
                k = (lo + 1) % n
                while True:
                    out.append(darts[k])
                    if k == hi:
                        return out
                    k = (k + 1) % n

            w1 = cyc(i, j) + [(b, a)]
            w2 = cyc(j, i) + [(a, b)]
            self.walks[wi] = (tag, w2)
            self.by_tag[tag].append(len(self.walks))
            self.walks.append((tag, w1))
            return
        raise CurveError(f"cannot route hop between {a} and {b} through face {face}: "
                         "no region of that face touches both (curve not embeddable)")

    def touches_both(self, tag: int, ends: Tuple[int, int]) -> List[int]:
        """Indices of the walks tagged ``tag`` whose boundary passes both ends."""
        ends = set(ends)
        return [wi for wi in self.by_tag[tag]
                if ends <= {d[1] for d in self.walks[wi][1]}]

    def finish(self, g: PlaneGraph, station_vertex, endpoints,
               path_v, path_e) -> AugmentedCurve:
        try:
            pg = PlaneGraph._from_walks(self.rot, [darts for _, darts in self.walks])
        except PlaneGraphError as exc:
            raise CurveError(f"curve augmentation is not a plane graph: {exc}") from exc
        index = [pg.face_of_dart(darts[0]) for _, darts in self.walks]
        tags = {fi: tag for fi, (tag, _) in zip(index, self.walks)}
        # the outer region: a region of the old outer face, one touching both
        # ends if there is one (then the curve is proper)
        cands = sorted(index[wi] for wi in self.by_tag[g.outer])
        touching = (sorted(index[wi] for wi in self.touches_both(g.outer, endpoints))
                    if endpoints else [])
        return AugmentedCurve(pg.with_outer((touching + cands)[0]), station_vertex,
                              endpoints, path_v, path_e, dict(self.sub), tags,
                              bool(touching))


# -- public validation ops ---------------------------------------------------------


def validate_curve(g: PlaneGraph, c: GoodCurve) -> CurveReport:
    """Check goodness (per-edge common-point tallies) and properness.

    Properness is read from the engine's walks, as in ``is_proper``; the
    curve is checked once and no graph is built.
    """
    check_well_formed(g, c)
    tally = edge_tallies(g, c)
    violations = sorted((e, t) for e, t in tally.items() if t > 1)
    good = not violations
    proper = good and _proper(g, c)
    verts = frozenset(c.vertices)
    return CurveReport(len(verts), verts, good, proper, violations)


def is_proper(g: PlaneGraph, c: GoodCurve) -> bool:
    """Both endpoints of the open curve incident to the unbounded region.

    Raises CurveError for a closed, malformed or non-good curve.  The engine
    embeds the curve, and the curve is proper when one of the walks that
    descend from the outer face passes both endpoints: O(m), with no face
    tracing and no graph built.
    """
    if c.closed:
        raise CurveError("properness is defined for open curves; "
                         "use cut_closed_curve first")
    if not _single_hop(c):
        _require_good(g, c)
    return _proper(g, c)


def _single_hop(c: GoodCurve) -> bool:
    return len(c.stations) == 1 and c.stations[0][0] == 'f'


def _proper(g: PlaneGraph, c: GoodCurve) -> bool:
    """Whether a curve already known to be well formed and good is open and
    proper."""
    if c.closed:
        return False
    if _single_hop(c):
        return c.stations[0][1] == g.outer
    eng, _, endpoints = _embed(g, c)
    return bool(eng.touches_both(g.outer, endpoints))


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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
