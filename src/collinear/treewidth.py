"""Collinear sets from grid-minor models.

Given a plane graph together with a ``side x side`` grid-minor model
(disjoint connected branch sets plus reference edges witnessing the grid
adjacencies), this module builds a closed curve that visits one vertex of
each designated branch set -- quadratically many in the grid side -- and
opens it into a proper good curve.  The curve is assembled from short
sub-curves routed through *cells*, the bounded regions framed by four
branch sets and four reference edges:

* cell traversal: between two opposite reference edges of one cell;
* cell turn: between two adjacent reference edges of one cell;
* vertex getter: a diagonal run that dips through a branch set, picking up
  at least one of its vertices on the way.

The sub-curves are kept in pairwise internally-disjoint regions, so the
assembled curve meets every edge of the host graph at most once.
Extracting a grid-minor model from an arbitrary planar graph is out of
scope; models are inputs, and :func:`identity_grid_model` supplies the
trivial model of the grid graph itself for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .curves import Fst, GoodCurve, Station, Vst, Xst, cut_closed_curve, validate_curve
from .plane_graph import (PlaneGraph, content_lines, edge_key, path_to, reach,
                          read_numbers)

Edge = Tuple[int, int]
Index = Tuple[int, int]


class GridError(ValueError):
    """A grid-minor model or its routing request is invalid."""


# -- model ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridModel:
    """A ``side x side`` grid-minor model of a plane graph.

    ``branch[(i, j)]`` is the branch set standing for grid vertex ``(i, j)``
    (1-based, ``i`` horizontal).  ``ref_h[(i, j)]`` is the reference edge
    for the grid edge ``(i, j)-(i+1, j)`` and ``ref_v[(i, j)]`` the one for
    ``(i, j)-(i, j+1)``.
    """
    side: int
    branch: Mapping[Index, FrozenSet[int]]
    ref_h: Mapping[Index, Edge]
    ref_v: Mapping[Index, Edge]

    def __post_init__(self):
        object.__setattr__(self, 'branch',
                           {k: frozenset(v) for k, v in self.branch.items()})
        object.__setattr__(self, 'ref_h',
                           {k: edge_key(*e) for k, e in self.ref_h.items()})
        object.__setattr__(self, 'ref_v',
                           {k: edge_key(*e) for k, e in self.ref_v.items()})

    @property
    def reference_edges(self) -> FrozenSet[Edge]:
        return frozenset(self.ref_h.values()) | frozenset(self.ref_v.values())


def identity_grid_model(side: int) -> Tuple[PlaneGraph, GridModel]:
    """The ``side x side`` grid graph together with its trivial model."""
    if side < 2:
        raise GridError("grid side must be at least 2")

    def vid(i: int, j: int) -> int:
        return (j - 1) * side + (i - 1)

    rot: Dict[int, Tuple[int, ...]] = {}
    for j in range(1, side + 1):
        for i in range(1, side + 1):
            # clockwise rotation for a y-up drawing at integer points
            nbrs = []
            if j < side:
                nbrs.append(vid(i, j + 1))
            if i < side:
                nbrs.append(vid(i + 1, j))
            if j > 1:
                nbrs.append(vid(i, j - 1))
            if i > 1:
                nbrs.append(vid(i - 1, j))
            rot[vid(i, j)] = tuple(nbrs)
    outer = [vid(i, 1) for i in range(1, side + 1)]
    outer += [vid(side, j) for j in range(2, side + 1)]
    outer += [vid(i, side) for i in range(side - 1, 0, -1)]
    outer += [vid(1, j) for j in range(side - 1, 1, -1)]
    g = PlaneGraph(rot, outer_walk=tuple(reversed(outer)))
    branch = {(i, j): frozenset([vid(i, j)])
              for i in range(1, side + 1) for j in range(1, side + 1)}
    ref_h = {(i, j): edge_key(vid(i, j), vid(i + 1, j))
             for i in range(1, side) for j in range(1, side + 1)}
    ref_v = {(i, j): edge_key(vid(i, j), vid(i, j + 1))
             for i in range(1, side + 1) for j in range(1, side)}
    return g, GridModel(side, branch, ref_h, ref_v)


@dataclass
class ModelReport:
    ok: bool
    problems: Tuple[str, ...]


def validate_model(g: PlaneGraph, m: GridModel) -> ModelReport:
    """Check the grid-minor model invariants against the host graph."""
    problems: List[str] = []
    side = m.side
    owner: Dict[int, Index] = {}
    for idx in ((i, j) for i in range(1, side + 1) for j in range(1, side + 1)):
        vs = m.branch.get(idx)
        if not vs:
            problems.append(f"branch set {idx} is missing or empty")
            continue
        for v in vs:
            if v not in g.rot:
                problems.append(f"branch set {idx} names unknown vertex {v}")
            elif v in owner:
                problems.append(f"branch sets {owner[v]} and {idx} share vertex {v}")
            else:
                owner[v] = idx
        inside = [v for v in vs if v in g.rot]
        spread = reach(inside[:1], lambda v: (w for w in g.rot[v] if w in vs))
        if not inside or len(spread) != len(inside):
            problems.append(f"branch set {idx} is not connected")
    for name, refs, di, dj in (("refh", m.ref_h, 1, 0), ("refv", m.ref_v, 0, 1)):
        hi = side - 1 if di else side
        hj = side - 1 if dj else side
        for i in range(1, hi + 1):
            for j in range(1, hj + 1):
                e = refs.get((i, j))
                if e is None:
                    problems.append(f"{name} {i} {j} is missing")
                    continue
                if not g.has_edge(*e):
                    problems.append(f"{name} {i} {j}: {e} is not an edge")
                    continue
                want = {(i, j), (i + di, j + dj)}
                got = {owner.get(e[0]), owner.get(e[1])}
                if got != want:
                    problems.append(f"{name} {i} {j}: edge {e} joins branch "
                                    f"sets {got}, expected {want}")
    # adjacency locality for interior branch sets
    for (i, j), vs in m.branch.items():
        if not (2 <= i <= side - 1 and 2 <= j <= side - 1):
            continue
        for v in vs:
            if v not in g.rot:
                continue
            for w in g.rot[v]:
                o = owner.get(w)
                if o is None:
                    continue
                if abs(o[0] - i) > 1 or abs(o[1] - j) > 1:
                    problems.append(f"edge ({v},{w}) leaves branch set "
                                    f"({i},{j}) for distant {o}")
    return ModelReport(ok=not problems, problems=tuple(problems))


# -- model text format ---------------------------------------------------------------


def serialize_grid_model(m: GridModel) -> str:
    lines = [f"gridmodel {m.side}"]
    for (i, j) in sorted(m.branch):
        vs = " ".join(str(v) for v in sorted(m.branch[(i, j)]))
        lines.append(f"branch {i} {j}: {vs}")
    for (i, j) in sorted(m.ref_h):
        a, b = m.ref_h[(i, j)]
        lines.append(f"refh {i} {j}: {a} {b}")
    for (i, j) in sorted(m.ref_v):
        a, b = m.ref_v[(i, j)]
        lines.append(f"refv {i} {j}: {a} {b}")
    return "\n".join(lines) + "\n"


def parse_grid_model(text: str) -> GridModel:
    lines = list(content_lines(text))
    if not lines or not lines[0][1].startswith("gridmodel "):
        raise GridError("expected header 'gridmodel <side>'")
    side, = read_numbers(lines[0][0], lines[0][1].split()[1:], GridError, 1)
    branch: Dict[Index, FrozenSet[int]] = {}
    ref_h: Dict[Index, Edge] = {}
    ref_v: Dict[Index, Edge] = {}
    for raw, line in lines[1:]:
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 3:
            raise GridError(f"bad line: {raw!r}")
        kind = parts[0]
        i, j = read_numbers(raw, parts[1:], GridError, 2)
        vals = read_numbers(raw, rest.split(), GridError,
                            None if kind == "branch" else 2)
        if kind == "branch":
            branch[(i, j)] = frozenset(vals)
        elif kind == "refh":
            ref_h[(i, j)] = (vals[0], vals[1])
        elif kind == "refv":
            ref_v[(i, j)] = (vals[0], vals[1])
        else:
            raise GridError(f"unknown record {kind!r}")
    return GridModel(side, branch, ref_h, ref_v)


# -- cells ---------------------------------------------------------------------------


@dataclass
class CellMap:
    """Face sets of the cells, keyed by their lower-left grid index."""
    cells: Dict[Index, FrozenSet[int]]
    blocked: FrozenSet[Edge]


def _face_edges(g: PlaneGraph, f: int) -> List[Edge]:
    return [edge_key(*d) for d in g.faces[f]]


def build_cells(g: PlaneGraph, m: GridModel) -> CellMap:
    """Partition the faces into cell regions and identify each cell.

    Walls are the branch-set edges and the reference edges; flooding the
    dual graph across every other edge splits the faces into regions.  A
    region is the cell at ``(i, j)`` exactly when its boundary carries all
    four of that cell's reference edges.
    """
    blocked = set(m.reference_edges)
    for vs in m.branch.values():
        for v in vs:
            for w in g.rot.get(v, ()):
                if w in vs:
                    blocked.add(edge_key(v, w))
    # flood fill the dual across unblocked edges
    def across(f):
        return (nf for e in _face_edges(g, f) if e not in blocked
                for nf in g.faces_of_edge(*e))
    comp: Dict[int, int] = {}
    regions: List[FrozenSet[int]] = []
    for f0 in range(len(g.faces)):
        if f0 not in comp:
            regions.append(frozenset(reach((f0,), across)))
            comp.update(dict.fromkeys(regions[-1], len(regions) - 1))
    # which reference edges bound each region
    touches: Dict[int, set] = {}
    for e in m.reference_edges:
        for f in g.faces_of_edge(*e):
            touches.setdefault(comp[f], set()).add(e)
    cells: Dict[Index, FrozenSet[int]] = {}
    for i in range(1, m.side):
        for j in range(1, m.side):
            want = {m.ref_h[(i, j)], m.ref_h[(i, j + 1)],
                    m.ref_v[(i, j)], m.ref_v[(i + 1, j)]}
            hits = [c for c, refs in touches.items() if want <= refs]
            if len(hits) != 1:
                raise GridError(f"cell ({i},{j}) is not bounded by its four "
                                f"reference edges ({len(hits)} candidate regions)")
            cells[(i, j)] = regions[hits[0]]
    return CellMap(cells=cells, blocked=frozenset(blocked))


# -- sub-curve routing ---------------------------------------------------------------


def _face_in(g: PlaneGraph, e: Edge, faces: FrozenSet[int], what: str) -> int:
    hits = [f for f in g.faces_of_edge(*e) if f in faces]
    if len(hits) != 1:
        raise GridError(f"{what}: edge {e} does not bound the region exactly once")
    return hits[0]


def _dual_path(g: PlaneGraph, faces: FrozenSet[int], blocked: FrozenSet[Edge],
               start: int, goals: FrozenSet[int]) -> List:
    """Alternating face/edge sequence of a shortest dual path inside a region.

    Faces are reached in order of (face, edge) and the path ends at the
    first goal reached; each step crosses the least unblocked edge that the
    two faces share.
    """
    def steps(f):
        return sorted((nf, e) for e in _face_edges(g, f) if e not in blocked
                      for nf in g.faces_of_edge(*e) if nf != f and nf in faces)
    parent = reach((start,), lambda f: (nf for nf, _ in steps(f)))
    end = next((f for f in parent if f in goals), None)
    if end is None:
        raise GridError("region is not dual-connected (model corruption)")
    path = path_to(parent, end)
    out: List = [start]
    for f, nf in zip(path, path[1:]):
        out += [min(e for mf, e in steps(f) if mf == nf), nf]
    return out


def _route_in_cell(g: PlaneGraph, faces: FrozenSet[int], blocked: FrozenSet[Edge],
                   e_from: Edge, e_to: Edge) -> List[Station]:
    f_p = _face_in(g, e_from, faces, "route start")
    f_q = _face_in(g, e_to, faces, "route end")
    path = _dual_path(g, faces, blocked, f_p, frozenset([f_q]))
    return [Xst(*e_from), *_stations(path), Xst(*e_to)]


def _stations(path: Sequence) -> List[Station]:
    """The stations of a dual path: its faces and the edges it crosses."""
    return [Fst(item) if isinstance(item, int) else Xst(*item) for item in path]


def route_type_c(g: PlaneGraph, cells: CellMap, m: GridModel, i: int, j: int,
                 e_from: Edge, e_to: Edge) -> List[Station]:
    """Vertex getter: a diagonal run through a vertex of branch set (i+1, j).

    The endpoints sit on the vertical reference edges one grid step to each
    side of the branch set, from left to right -- below-left paired with
    above-right, or above-left with below-right.  A reversed pairing (right
    to left) is rejected like any other; the snake reverses the stations of
    its odd rows itself.
    """
    e_from, e_to = edge_key(*e_from), edge_key(*e_to)
    if (e_from, e_to) == (m.ref_v.get((i, j - 1)), m.ref_v.get((i + 2, j))):
        entry, exit_ = (i, j - 1), (i + 1, j)
    elif (e_from, e_to) == (m.ref_v.get((i, j)), m.ref_v.get((i + 2, j - 1))):
        entry, exit_ = (i, j), (i + 1, j - 1)
    else:
        raise GridError(f"({e_from}, {e_to}) is not a vertex-getter endpoint "
                        f"pairing for branch set ({i + 1},{j})")
    return _vertex_getter(g, cells, m, (i + 1, j), entry, e_from, exit_, e_to)


def _vertex_getter(g: PlaneGraph, cells: CellMap, m: GridModel, target: Index,
                   entry: Index, e_from: Edge, exit_: Index, e_to: Edge
                   ) -> List[Station]:
    bset = m.branch[target]
    c_in, c_out = cells.cells[entry], cells.cells[exit_]
    at = {v: g.faces_at(v) for v in bset if v in g.rot}
    near = {v for v, fs in at.items() if not c_in.isdisjoint(fs)}
    far = {v for v, fs in at.items() if not c_out.isdisjoint(fs)}
    if not near or not far:
        raise GridError(f"branch set {target} does not touch both cells "
                        f"{entry} and {exit_}")
    vpath = _branch_path(g, bset, near, far)
    v_p, v_q = vpath[0], vpath[-1]
    f_p = _face_in(g, e_from, c_in, "vertex getter start")
    goals_p = c_in.intersection(g.faces_at(v_p))
    leg1 = _dual_path(g, c_in, cells.blocked, f_p, goals_p)
    f_q = _face_in(g, e_to, c_out, "vertex getter end")
    goals_q = c_out.intersection(g.faces_at(v_q))
    leg3 = _dual_path(g, c_out, cells.blocked, f_q, goals_q)
    return [Xst(*e_from), *_stations(leg1), *map(Vst, vpath),
            *_stations(leg3[::-1]), Xst(*e_to)]


def _branch_path(g: PlaneGraph, bset: FrozenSet[int], near: set, far: set
                 ) -> List[int]:
    """Shortest path in the branch set from the near boundary to the far one.

    Being shortest, it has no internal vertex on either boundary, so the
    surrounding legs cannot collide with it.
    """
    parent = reach(sorted(near), lambda v: (w for w in sorted(g.rot[v]) if w in bset))
    end = next((v for v in parent if v in far), None)
    if end is None:
        raise GridError("branch set boundaries are not connected inside it")
    return path_to(parent, end)


# -- the designated branch sets and the snake ----------------------------------------


def designated_side(side: int) -> int:
    """Largest multiple of four at most ``side - 2``."""
    return (side - 2) // 4 * 4


def designated_count(side: int) -> int:
    """How many branch sets the snake visits on a ``side x side`` model."""
    gp = designated_side(side)
    if gp < 4:
        return 0
    cols = len(range(4, gp + 1, 2))
    rows = len(range(2, gp + 1, 2))
    return cols * rows


@dataclass
class _Sub:
    kind: str                      # 'A' | 'B' | 'C'
    region_cells: Tuple[Index, ...]
    branch: Optional[Index]
    stations: List[Station]


def _snake_subs(g: PlaneGraph, cells: CellMap, m: GridModel) -> List[_Sub]:
    gp = designated_side(m.side)
    rv, rh = m.ref_v, m.ref_h

    def getter(I: int, J: int) -> _Sub:
        # designated column I alternates the two endpoint pairings so that
        # consecutive getters in a row share an endpoint directly
        if I % 4 == 0:
            e_from, e_to = rv[(I - 1, J - 1)], rv[(I + 1, J)]
        else:
            e_from, e_to = rv[(I - 1, J)], rv[(I + 1, J - 1)]
        sts = route_type_c(g, cells, m, I - 1, J, e_from, e_to)
        block = tuple((a, b) for a in (I - 1, I) for b in (J - 1, J))
        return _Sub('C', block, (I, J), sts)

    def in_cell(kind: str, idx: Index, e_from: Edge, e_to: Edge) -> _Sub:
        sts = _route_in_cell(g, cells.cells[idx], cells.blocked, e_from, e_to)
        return _Sub(kind, (idx,), None, sts)
    turn, run = partial(in_cell, 'B'), partial(in_cell, 'A')

    subs: List[_Sub] = []
    rows = list(range(2, gp + 1, 2))
    for r, J in enumerate(rows):
        row = [getter(I, J) for I in range(4, gp + 1, 2)]
        if r % 2 == 1:  # boustrophedon: odd rows run right to left
            row = [_Sub(s.kind, s.region_cells, s.branch,
                        list(reversed(s.stations))) for s in reversed(row)]
        subs.extend(row)
        if J == rows[-1]:
            break
        if r % 2 == 0:  # turn upward along the free column right of the targets
            subs.append(turn((gp + 1, J), rv[(gp + 1, J)], rh[(gp + 1, J + 1)]))
            subs.append(run((gp + 1, J + 1), rh[(gp + 1, J + 1)],
                            rh[(gp + 1, J + 2)]))
            subs.append(turn((gp + 1, J + 2), rh[(gp + 1, J + 2)],
                             rv[(gp + 1, J + 2)]))
        else:           # turn upward along free column 2
            subs.append(turn((2, J - 1), rv[(3, J - 1)], rh[(2, J)]))
            subs.append(run((2, J), rh[(2, J)], rh[(2, J + 1)]))
            subs.append(turn((2, J + 1), rh[(2, J + 1)], rv[(3, J + 1)]))
    # close the snake: down the leftmost free column back to the start
    top = gp - 1
    subs.append(run((2, top), rv[(3, top)], rv[(2, top)]))
    subs.append(turn((1, top), rv[(2, top)], rh[(1, top)]))
    for j in range(top - 1, 1, -1):
        subs.append(run((1, j), rh[(1, j + 1)], rh[(1, j)]))
    subs.append(turn((1, 1), rh[(1, 2)], rv[(2, 1)]))
    subs.append(run((2, 1), rv[(2, 1)], rv[(3, 1)]))
    return subs


def _audit_regions(g: PlaneGraph, m: GridModel, cells: CellMap,
                   subs: Sequence[_Sub]) -> None:
    """Region discipline: sub-curves stay inside pairwise disjoint regions."""
    claimed: Dict[Index, int] = {}
    for k, sub in enumerate(subs):
        for idx in sub.region_cells:
            if idx in claimed:
                raise GridError(f"cell {idx} lies in two sub-curve regions")
            claimed[idx] = k
    for sub in subs:
        region = frozenset().union(*(cells.cells[i] for i in sub.region_cells))
        bset = m.branch[sub.branch] if sub.branch else frozenset()
        boundary = {edge_key(*e) for e in (sub.stations[0][1],
                                           sub.stations[-1][1])}
        for s in sub.stations:
            if s[0] == 'f' and s[1] not in region:
                raise GridError(f"face {s[1]} escapes the region of a "
                                f"{sub.kind} sub-curve")
            if s[0] == 'v' and s[1] not in bset:
                raise GridError(f"vertex {s[1]} escapes its branch set")
            if s[0] == 'x' and s[1] not in boundary:
                if not set(g.faces_of_edge(*s[1])) <= region:
                    raise GridError(f"crossed edge {s[1]} is outside the "
                                    f"region of a {sub.kind} sub-curve")


def snake_curve(g: PlaneGraph, m: GridModel) -> GoodCurve:
    """The closed curve through one vertex of every designated branch set."""
    if designated_side(m.side) < 4:
        raise GridError(f"grid side {m.side} is too small (needs at least 6)")
    cells = build_cells(g, m)
    subs = _snake_subs(g, cells, m)
    _audit_regions(g, m, cells, subs)
    stations: List[Station] = []
    for sub in subs:
        if stations:
            if stations[-1] != sub.stations[0]:
                raise GridError(f"sub-curves do not share endpoint: "
                                f"{stations[-1]} vs {sub.stations[0]}")
            stations.extend(sub.stations[1:])
        else:
            stations.extend(sub.stations)
    if stations[0] != stations[-1]:
        raise GridError("snake does not close up")
    return GoodCurve(tuple(stations[:-1]), closed=True)


def theorem5_curve(g: PlaneGraph, m: GridModel) -> Tuple[PlaneGraph, GoodCurve]:
    """Proper good curve through quadratically many branch-set vertices.

    Builds the closed snake, then opens it inside a face it hops through;
    that face becomes the outer face of the returned re-embedded graph, so
    the opened curve is proper.  The curve passes through at least
    ``designated_count(m.side)`` vertices.
    """
    rep = validate_model(g, m)
    if not rep.ok:
        raise GridError("invalid grid model: " + "; ".join(rep.problems[:3]))
    closed = snake_curve(g, m)
    creport = validate_curve(g, closed)
    if not creport.good:
        raise GridError(f"snake curve is not good: {creport.violations[:3]}")
    g2, opened = cut_closed_curve(g, closed)
    oreport = validate_curve(g2, opened)
    if not (oreport.good and oreport.proper):
        raise GridError("opened snake curve is not a proper good curve")
    need = designated_count(m.side)
    if opened.vertex_count < need:
        raise GridError(f"snake visits {opened.vertex_count} vertices, "
                        f"needs {need}")
    return g2, opened
