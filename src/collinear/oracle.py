"""Brute-force ground truth at tiny scale.

Exhaustively enumerates proper good curves on a small plane graph to find the
maximum number of vertices any of them passes through, and exhaustively
catalogs plane 3-trees by internal-vertex count.  Used to validate the
constructive algorithms and the decomposition DP on everything small enough
to search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .curves import Fst, GoodCurve, Vst, Xst, validate_curve
from .plane_graph import PlaneGraph, canonical_code, edge_key, graph_from_positions

DEFAULT_EDGE_LIMIT = 24


class OracleError(ValueError):
    pass


@dataclass
class OracleResult:
    max_vertices: int
    witness: GoodCurve
    explored: int


def enumerate_curves(g: PlaneGraph,
                     edge_limit: int = DEFAULT_EDGE_LIMIT) -> OracleResult:
    """Maximum vertex count over all proper good open curves, by exhaustive DFS.

    Station sequences are at most 2(n + m) + 1 long; ``edge_limit`` guards
    against accidentally searching a graph too large to enumerate.
    """
    if g.m > edge_limit:
        raise OracleError(f"graph has {g.m} > {edge_limit} edges; "
                          "the oracle is for tiny instances only")
    max_len = 2 * (g.n + g.m) + 1

    faces_at = {v: sorted(set(g.faces_at(v))) for v in g.vertices}
    face_verts = [tuple(dict.fromkeys(g.face_vertices(i)))
                  for i in range(len(g.faces))]
    face_edges = [tuple(sorted({edge_key(*d) for d in g.faces[i]}))
                  for i in range(len(g.faces))]
    edge_faces = {e: g.faces_of_edge(*e) for e in g.edges}

    best = [0, GoodCurve((Fst(g.outer),)), 0]  # count, witness, explored

    tally: Dict[Tuple[int, int], int] = {}
    visited: Set[int] = set()
    contained: Set[Tuple[int, int]] = set()
    crossed: Set[Tuple[int, int]] = set()
    stations: List[Tuple] = []

    def bump_vertex(v: int) -> bool:
        """Tally v's incident edges; False (after full bump) if any edge hits 2."""
        ok = True
        for w in g.rot[v]:
            e = edge_key(v, w)
            if e in contained:
                continue
            t = tally.get(e, 0) + 1
            tally[e] = t
            if t > 1:
                ok = False
        return ok

    def unbump_vertex(v: int) -> None:
        for w in g.rot[v]:
            e = edge_key(v, w)
            if e in contained:
                continue
            tally[e] -= 1

    def complete() -> None:
        best[2] += 1
        nverts = len(visited)
        if nverts <= best[0]:
            return
        c = GoodCurve(tuple(stations), closed=False, contained=frozenset(contained))
        if validate_curve(g, c).proper:
            best[0] = nverts
            best[1] = c

    def reachable_bound() -> int:
        """Upper bound on the final vertex count of any extension.

        An unvisited vertex is forever dead once an incident edge is crossed,
        or once two incident edges carry a tally (at most one can later be
        exempted by entering along it as a contained edge).
        """
        cnt = len(visited)
        for v in g.vertices:
            if v in visited:
                continue
            bumped = 0
            for w in g.rot[v]:
                e = edge_key(v, w)
                if e in crossed:
                    bumped = 2
                    break
                if e not in contained and tally.get(e, 0):
                    bumped += 1
                    if bumped > 1:
                        break
            if bumped <= 1:
                cnt += 1
        return cnt

    def extend(last_kind: str, from_face: Optional[int]) -> None:
        # every prefix whose last station is any kind is a finished open curve
        complete()
        if len(stations) >= max_len:
            return
        if reachable_bound() <= best[0]:
            return
        if last_kind == 'v':
            v = stations[-1][1]
            # travel along a contained edge to an unvisited neighbour
            for w in g.rot[v]:
                e = edge_key(v, w)
                if w in visited or e in contained or e in crossed:
                    continue
                # tally[e] == 1 from v's own visit; containment exempts it
                contained.add(e)
                saved = tally.pop(e)
                stations.append(Vst(w))
                visited.add(w)
                if bump_vertex(w):
                    extend('v', None)
                unbump_vertex(w)
                visited.discard(w)
                stations.pop()
                contained.discard(e)
                tally[e] = saved
            for f in faces_at[v]:
                stations.append(Fst(f))
                extend('f', None)
                stations.pop()
        elif last_kind == 'x':
            e = stations[-1][1]
            f1, f2 = edge_faces[e]
            sides = (f1, f2) if from_face is None else \
                ((f2,) if from_face == f1 else (f1,))
            for f in sides:
                stations.append(Fst(f))
                extend('f', None)
                stations.pop()
        else:  # last_kind == 'f'
            f = stations[-1][1]
            for v in face_verts[f]:
                if v in visited:
                    continue
                stations.append(Vst(v))
                visited.add(v)
                if bump_vertex(v):
                    extend('v', None)
                unbump_vertex(v)
                visited.discard(v)
                stations.pop()
            for e in face_edges[f]:
                if tally.get(e, 0) or e in contained:
                    continue
                tally[e] = 1
                crossed.add(e)
                stations.append(Xst(*e))
                extend('x', f)
                stations.pop()
                crossed.discard(e)
                del tally[e]

    # starts: a vertex, a crossing (either side still open), or a face
    for v in g.vertices:
        stations.append(Vst(v))
        visited.add(v)
        if bump_vertex(v):
            extend('v', None)
        unbump_vertex(v)
        visited.discard(v)
        stations.pop()
    for e in sorted(g.edges):
        tally[e] = 1
        crossed.add(e)
        stations.append(Xst(*e))
        extend('x', None)
        stations.pop()
        crossed.discard(e)
        del tally[e]
    for f in range(len(g.faces)):
        stations.append(Fst(f))
        extend('f', None)
        stations.pop()

    return OracleResult(best[0], best[1], best[2])


# -- plane 3-tree catalog ------------------------------------------------------------


def gen_structures(m: int) -> Iterator:
    """All ordered ternary structures with m internal vertices.

    ``None`` is the empty 3-tree; otherwise a triple of child structures for
    the three corner triangles around the central vertex.
    """
    if m == 0:
        yield None
        return
    for i in range(m):
        for j in range(m - i):
            k = m - 1 - i - j
            for t1 in gen_structures(i):
                for t2 in gen_structures(j):
                    for t3 in gen_structures(k):
                        yield (t1, t2, t3)


def plane_3tree_from_structure(structure) -> PlaneGraph:
    """Plane 3-tree with outer corners 0,1,2 realizing the ternary structure.

    Built from an explicit exact drawing (each central vertex at the centroid
    of its triangle), so the embedding is unambiguous.
    """
    pos = {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0)),
           2: (Fraction(0), Fraction(1))}
    edges = [(0, 1), (1, 2), (0, 2)]
    counter = [3]

    def rec(u, v, z, t):
        if t is None:
            return
        w = counter[0]
        counter[0] += 1
        pos[w] = ((pos[u][0] + pos[v][0] + pos[z][0]) / 3,
                  (pos[u][1] + pos[v][1] + pos[z][1]) / 3)
        edges.extend([(u, w), (v, w), (z, w)])
        t1, t2, t3 = t
        rec(u, v, w, t1)
        rec(u, z, w, t2)
        rec(v, z, w, t3)

    rec(0, 1, 2, structure)
    return graph_from_positions(pos, edges)


def catalog_plane_3trees(m: int) -> List[PlaneGraph]:
    """All plane 3-trees with m internal vertices, up to orientation-preserving
    isomorphism fixing the outer face."""
    seen = {}
    for t in gen_structures(m):
        g = plane_3tree_from_structure(t)
        seen.setdefault(canonical_code(g), g)
    return [seen[k] for k in sorted(seen)]
