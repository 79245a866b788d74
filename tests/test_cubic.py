"""Tests for collinear sets in triconnected cubic plane graphs."""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collinear import cubic
from collinear.cubic import (
    ChainDecomposition,
    CubicError,
    Quadruple,
    build_cubic_curve,
    chain_decompose,
    charge_lines,
    generate_triconnected_cubic,
    make_quadruple,
    theorem4,
    verify_charged_curve,
)
from collinear.curves import serialize_curve
from collinear.plane_graph import (PlaneGraph, PlaneGraphError, edge_key,
                                   graph_from_positions, path_to, reach,
                                   serialize_plane_graph)
from collinear.realize import curve_to_drawing, verify_drawing


def k4():
    return PlaneGraph(
        {0: (1, 3, 2), 1: (2, 3, 0), 2: (0, 3, 1), 3: (0, 1, 2)},
        outer_walk=(0, 1, 2),
    )


def prism():
    pos = {0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (1, 1), 4: (3, 1), 5: (2, 2)}
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    return graph_from_positions(pos, edges)


def cube():
    pos = {0: (0, 0), 1: (6, 0), 2: (6, 6), 3: (0, 6),
           4: (2, 2), 5: (4, 2), 6: (4, 4), 7: (2, 4)}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    return graph_from_positions(pos, edges)


def dodecahedron():
    pos, edges = {}, []
    rings = [
        [(0, 100), (-95, 31), (-59, -81), (59, -81), (95, 31)],
        [(0, 60), (-57, 19), (-35, -49), (35, -49), (57, 19)],
        [(-21, 28), (-33, -11), (0, -35), (33, -11), (21, 28)],
        [(-9, 12), (-14, -5), (0, -15), (14, -5), (9, 12)],
    ]
    for i in range(5):
        for r in range(4):
            pos[5 * r + i] = rings[r][i]
        edges += [(i, (i + 1) % 5), (i, 5 + i),
                  (5 + i, 10 + i), (5 + i, 10 + (i - 1) % 5),
                  (10 + i, 15 + i), (15 + i, 15 + (i + 1) % 5)]
    return graph_from_positions(pos, edges)


def square():
    return PlaneGraph(
        {0: (1, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)},
        outer_walk=(0, 1, 2, 3),
    )


def triangle_chain():
    """Two triangles on a path from 7 to 0, closed by the edge (0, 7)."""
    pos = {0: (0, 0), 1: (1, 2), 2: (2, 4), 3: (3, 2),
           4: (4, 2), 5: (5, 4), 6: (6, 2), 7: (7, 0)}
    edges = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4),
             (4, 5), (4, 6), (5, 6), (6, 7), (0, 7)]
    return graph_from_positions(pos, edges)


# -- well-formed quadruples --------------------------------------------------------


class TestMakeQuadruple:
    def test_cycle_with_incident_poles(self):
        q = make_quadruple(square(), 0, 1, ())
        assert q.u == 0 and q.v == 1 and q.x_seq == ()
        assert q.tau == (0, 1)
        assert q.beta == (0, 3, 2, 1)

    def test_k4_minus_outer_edge(self):
        g = k4().subgraph(drop_edges=[(0, 1)])
        q = make_quadruple(g, 0, 1, ())
        assert q.beta == (0, 2, 1)
        assert q.tau == (0, 3, 1)

    def test_rejects_non_biconnected(self):
        # two triangles joined by a bridge
        pos = {0: (0, 0), 1: (0, 2), 2: (1, 1), 3: (3, 1), 4: (4, 0), 5: (4, 2)}
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        g = graph_from_positions(pos, edges)
        with pytest.raises(CubicError, match=r"\(a\)"):
            make_quadruple(g, 0, 4, ())

    def test_rejects_internal_pole(self):
        with pytest.raises(CubicError, match=r"\(b\)"):
            make_quadruple(k4().subgraph(drop_edges=[(0, 3)]), 0, 3, ())

    def test_rejects_cubic_pole(self):
        with pytest.raises(CubicError, match=r"\(c\)"):
            make_quadruple(k4().subgraph(drop_edges=[(0, 1)]), 0, 3, ())

    def test_pole_edge_must_bound_clockwise(self):
        with pytest.raises(CubicError, match=r"\(d\)"):
            make_quadruple(square(), 1, 0, ())

    def test_rejects_pair_outside_ccw_boundary(self):
        # hexagon with a chord: every pole choice leaves a separation
        # pair with no member strictly inside the ccw boundary path
        pos = {0: (0, 2), 1: (2, 3), 2: (4, 2), 3: (4, 0), 4: (2, -1), 5: (0, 0)}
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
        g = graph_from_positions(pos, edges)
        for u, v in [(0, 3), (3, 0), (2, 5), (5, 2)]:
            with pytest.raises(CubicError, match=r"\(e\)"):
                make_quadruple(g, u, v, ())

    def test_rejects_cubic_skip_vertex(self):
        with pytest.raises(CubicError, match=r"\(f\)"):
            make_quadruple(k4().subgraph(drop_edges=[(0, 1)]), 0, 1, (3,))


# -- reference: Tarjan's block search ----------------------------------------------


def reference_blocks(adj):
    """Vertex sets of the biconnected components (edge partition classes),
    by an iterative Tarjan lowpoint search."""
    disc, low = {}, {}
    timer = 0
    estack, comps = [], []
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


def reference_articulation_points(adj):
    """Articulation vertices: those in two or more blocks."""
    seen, out = set(), set()
    for block in reference_blocks(adj):
        out |= seen & block
        seen |= block
    return out


def reference_core(g, x, u):
    """The Tarjan block of G - x that holds u."""
    adj = {w: [y for y in g.rot[w] if y != x] for w in g.vertices if w != x}
    return next(c for c in reference_blocks(adj) if u in c)


def reference_chain_structure(graph, a, b, ambient_x):
    """``_chain_structure`` by Tarjan's blocks and a walk of the block-cut
    tree from a to b."""
    adj = {v: list(graph.rot[v]) for v in graph.vertices}
    blocks = reference_blocks(adj)
    if not [c for c in blocks if len(c) > 2]:
        path, prev, cur = [a], None, a
        while cur != b:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) != 1:
                raise CubicError("boundary component is neither a path nor a chain")
            prev, cur = cur, nxt[0]
            path.append(cur)
        return ChainDecomposition(is_path=True, path=tuple(path))
    in_blocks = {}
    for i, c in enumerate(blocks):
        for v in c:
            in_blocks.setdefault(v, []).append(i)
    tree = {}
    for v, bs in in_blocks.items():
        if len(bs) > 1 or v in (a, b):
            for i in bs:
                tree.setdefault(('C', v), []).append(('B', i))
                tree.setdefault(('B', i), []).append(('C', v))
    node_path = path_to(reach([('C', a)], lambda node: tree.get(node, ())), ('C', b))
    segments, cur_path = [], [a]
    for k in range(1, len(node_path), 2):
        comp = blocks[node_path[k][1]]
        entry, exit_ = node_path[k - 1][1], node_path[k + 1][1]
        if len(comp) == 2:
            cur_path.append(exit_)
        else:
            segments += [('path', tuple(cur_path)), ('block', (comp, entry, exit_))]
            cur_path = [exit_]
    segments.append(('path', tuple(cur_path)))
    quads = []
    for kind, payload in segments:
        if kind == 'block':
            comp, u_i, v_i = payload
            x_i = tuple(x for x in ambient_x if x in comp and x not in (u_i, v_i))
            quads.append(make_quadruple(graph.subgraph(comp), u_i, v_i, x_i))
    links = tuple(payload for kind, payload in segments[1:-1] if kind == 'path')
    if any(len(lp) < 2 for lp in links):
        raise CubicError("chain blocks share a vertex (graph not subcubic?)")
    return ChainDecomposition(is_path=False, p0=segments[0][1], blocks=tuple(quads),
                              links=links, pk=segments[-1][1])


# -- reference: condition (e) by Tarjan per vertex and a component search ------------


def reference_separation_pairs(g):
    """Every pair {a, b} such that b is an articulation point of G - a."""
    return sorted({edge_key(a, b) for a in g.vertices
                   for b in reference_articulation_points(
                       {v: [w for w in nbrs if w != a]
                        for v, nbrs in g.rot.items() if v != a})})


def components_without(g, removed):
    """The vertex sets of the components of G minus ``removed``."""
    seen, comps = set(removed), []
    for s in g.vertices:
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for w in g.rot[stack.pop()]:
                    if w not in seen and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
    return comps


def reference_make_quadruple(g, u, v, x_seq):
    """``make_quadruple`` with condition (e) checked the O(n*m) way: one
    Tarjan pass of G - a for every vertex a, then a component search of
    G - {a, b} for every separation pair."""
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
    for (a, b) in reference_separation_pairs(g):
        if a not in outer_set or b not in outer_set:
            raise CubicError(f"(e) separation pair ({a},{b}) has an internal vertex")
        internal = [w for w in (a, b)
                    if w in beta_pos and 0 < beta_pos[w] < len(beta) - 1]
        if not internal:
            raise CubicError(f"(e) separation pair ({a},{b}) has no vertex "
                             "internal to the counter-clockwise boundary path")
        for comp in components_without(g, {a, b}):
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


def _verdict(build, g, u, v, x_seq):
    try:
        q = build(g, u, v, x_seq)
    except CubicError as e:
        return str(e)
    assert q.g is g
    return (q.u, q.v, q.x_seq)


def _theorem4_quadruples(monkeypatch, g):
    """Every quadruple ``theorem4(g)`` validates, as (g, u, v, x_seq)."""
    seen = []

    def record(*args):
        seen.append(args)
        return make_quadruple(*args)

    with monkeypatch.context() as m:
        m.setattr(cubic, "make_quadruple", record)
        theorem4(g)
    return seen


def _mutations(rng, g, u, v, x_seq):
    """The quadruple itself, then twice each: the same graph with another
    outer face, with other poles on the outer walk, with one edge dropped."""
    yield g, u, v, x_seq
    others = [f for f in range(len(g.faces)) if f != g.outer]
    walk = g.outer_walk()
    poles = [w for w in walk if g.degree(w) == 2]
    for _ in range(2):
        if others:
            yield g.with_outer(rng.choice(others)), u, v, x_seq
        a, b = rng.sample(poles if len(poles) >= 2 else walk, 2)
        yield g, a, b, ()
        try:
            yield g.subgraph(drop_edges=[rng.choice(sorted(g.edges))]), u, v, x_seq
        except PlaneGraphError:     # the graph fell apart or lost its outer face
            pass


def test_condition_e_matches_reference(monkeypatch):
    # every quadruple theorem4 builds on seeds 0-11, and mutations of each,
    # get the verdict and the message of the O(n*m) reference
    rng = random.Random(2024)
    reached = {"internal vertex": 0, "no vertex internal": 0, "nontrivial": 0}
    verdicts = 0
    for seed in range(12):
        g = generate_triconnected_cubic(seed, 10 + 4 * seed)
        for args in _theorem4_quadruples(monkeypatch, g):
            for mutant in _mutations(rng, *args):
                want = _verdict(reference_make_quadruple, *mutant)
                assert _verdict(make_quadruple, *mutant) == want, mutant[1:]
                verdicts += 1
                for key in reached:
                    if isinstance(want, str) and want.startswith("(e)") and key in want:
                        reached[key] += 1
    assert verdicts > 1000
    assert all(reached.values()), reached


def test_make_quadruple_checks_biconnectivity_once(monkeypatch):
    # condition (e) reads the separation pairs off the faces, so the only
    # whole-graph pass left per quadruple is the face-walk biconnectivity
    # check of (a); one pass per vertex would make Theorem 4 quadratic
    g = generate_triconnected_cubic(1, 200)
    calls = {"biconnected": 0, "quadruples": 0}
    is_biconnected = PlaneGraph.is_biconnected

    def count_biconnected(self):
        calls["biconnected"] += 1
        return is_biconnected(self)

    def count_quadruple(*args):
        calls["quadruples"] += 1
        return make_quadruple(*args)

    monkeypatch.setattr(PlaneGraph, "is_biconnected", count_biconnected)
    monkeypatch.setattr(cubic, "make_quadruple", count_quadruple)
    theorem4(g)
    assert calls["quadruples"] > 10
    assert calls["biconnected"] <= calls["quadruples"] + 2, calls


def _record_connectivity(monkeypatch, run, *args):
    """Every (g, x, u) that ``run(*args)`` passes to ``_core`` and every
    argument tuple of ``_chain_structure``."""
    cores, chains = [], []
    core, chain_structure = cubic._core, cubic._chain_structure

    def record_core(*args):
        cores.append(args)
        return core(*args)

    def record_chain(*args):
        chains.append(args)
        return chain_structure(*args)

    with monkeypatch.context() as m:
        m.setattr(cubic, "_core", record_core)
        m.setattr(cubic, "_chain_structure", record_chain)
        run(*args)
    return cores, chains


def _check_connectivity(monkeypatch, g):
    cores, chains = _record_connectivity(monkeypatch, theorem4, g)
    for h, x, u in cores:
        assert cubic._core(h, x, u) == reference_core(h, x, u), (x, u)
    for args in chains:
        assert cubic._chain_structure(*args) == reference_chain_structure(*args)
    return len(cores), len(chains)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), half=st.integers(2, 100))
def test_blocks_match_tarjan_reference(seed, half):
    # the cores of Lemma 5 and the chain blocks, read off the faces, equal
    # Tarjan's blocks on every call theorem4 makes
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_connectivity(monkeypatch, generate_triconnected_cubic(seed, 2 * half))


def test_chain_decompose_matches_tarjan_reference(monkeypatch):
    # chain_decompose on every separation pair of the boundary path of the
    # quadruples theorem4 builds, bare paths included
    kinds = set()
    for seed in range(6):
        for g, u, v, x_seq in _theorem4_quadruples(
                monkeypatch, generate_triconnected_cubic(seed, 10 + 4 * seed)):
            q = Quadruple(g, u, v, x_seq)
            pos = {w: i for i, w in enumerate(q.beta)}
            for a, b in g.separation_pairs():
                if a in pos and b in pos:
                    a, b = sorted((a, b), key=pos.__getitem__)
                    _, chains = _record_connectivity(monkeypatch, chain_decompose,
                                                     q, a, b)
                    for args in chains:
                        cd = cubic._chain_structure(*args)
                        assert cd == reference_chain_structure(*args)
                        kinds.add(cd.is_path)
    assert kinds == {True, False}


def test_blocks_match_tarjan_reference_on_prism(monkeypatch):
    # the prism C_k x K2 runs Lemma 5 k - 1 quadruples deep
    k = 40
    rot = {}
    for i in range(k):
        rot[i] = (k + i, (i + 1) % k, (i - 1) % k)
        rot[k + i] = (k + (i + 1) % k, i, k + (i - 1) % k)
    g = PlaneGraph(rot, outer_walk=tuple(range(k - 1, -1, -1)))
    cores, chains = _check_connectivity(monkeypatch, g)
    assert cores and chains


def test_lemma5_runs_without_recursion():
    # the Lemma 5 induction on the prism C_k x K2 is k - 1 quadruples deep;
    # at k = 150 it must finish under a recursion limit of 200 without
    # touching the limit
    code = textwrap.dedent("""
        import sys
        from collinear.cubic import theorem4
        from collinear.plane_graph import PlaneGraph

        k = 150
        rot = {}
        for i in range(k):
            rot[i] = (k + i, (i + 1) % k, (i - 1) % k)
            rot[k + i] = (k + (i + 1) % k, i, k + (i - 1) % k)
        g = PlaneGraph(rot, outer_walk=tuple(range(k - 1, -1, -1)))
        sys.setrecursionlimit(200)

        def forbidden(limit):
            raise RuntimeError(f"setrecursionlimit({limit}) called")

        sys.setrecursionlimit = forbidden
        cc = theorem4(g)
        print(g.n, sum(s[0] == 'v' for s in cc.curve.stations))
    """)
    src = Path(cubic.__file__).resolve().parent.parent
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    n, on_curve = map(int, out.stdout.split())
    assert n == 300 and on_curve >= n // 4


# -- chain decomposition -----------------------------------------------------------


class TestChainDecompose:
    def test_path_component(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        cd = chain_decompose(q, 6, 4)
        assert cd.is_path and cd.path == (6, 5, 4)

    def test_single_block(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        cd = chain_decompose(q, 4, 1)
        assert not cd.is_path
        assert cd.p0 == (4, 3) and cd.pk == (1,) and cd.links == ()
        (blk,) = cd.blocks
        assert (blk.u, blk.v) == (3, 1)
        assert sorted(blk.g.vertices) == [1, 2, 3]

    def test_two_blocks_with_link(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        cd = chain_decompose(q, 6, 1)
        assert [sorted(b.g.vertices) for b in cd.blocks] == [[4, 5, 6], [1, 2, 3]]
        assert cd.links == ((4, 3),)
        assert cd.p0 == (6,) and cd.pk == (1,)

    def test_requires_separation_pair(self):
        q = make_quadruple(k4().subgraph(drop_edges=[(0, 1)]), 0, 1, ())
        with pytest.raises(CubicError, match="separation pair"):
            chain_decompose(q, 0, 1)

    def test_requires_boundary_order(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        with pytest.raises(CubicError, match="precede"):
            chain_decompose(q, 1, 4)


# -- curve construction ------------------------------------------------------------


def check(q, cc):
    verify_charged_curve(q, cc)


class TestBuildCubicCurve:
    def test_cycle_base_case(self):
        q = make_quadruple(square(), 0, 1, ())
        cc = build_cubic_curve(q)
        check(q, cc)
        assert cc.curve.stations[0] == ("v", 0)
        assert cc.charges == {1: 0}

    def test_k4_minus_edge(self):
        q = make_quadruple(k4().subgraph(drop_edges=[(0, 1)]), 0, 1, ())
        cc = build_cubic_curve(q)
        check(q, cc)
        assert cc.curve.vertex_count >= 1

    def test_chain_case(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        cc = build_cubic_curve(q)
        check(q, cc)
        # one vertex in four lands on the curve
        assert cc.curve.vertex_count >= 2

    def test_bare_path_chain(self, monkeypatch):
        # Case 2 on a pentagon u=0, y_1=1, v=3, w=4, y_2=2 with the chord
        # y_1-y_2: the part hanging off y_2 is the bare path y_2, w, v, and
        # the walk along it starts at w
        pos = {0: (0, 1), 1: (2, 2), 2: (2, 0), 3: (4, 2), 4: (4, 0)}
        g = graph_from_positions(pos, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)])
        q = make_quadruple(g, 0, 3, ())
        assert q.tau == (0, 1, 3) and q.beta == (0, 2, 4, 3)
        chains, structure = [], cubic._chain_structure
        monkeypatch.setattr(cubic, "_chain_structure",
                            lambda *args: chains.append(structure(*args)) or chains[-1])
        cc = build_cubic_curve(q)
        assert chains == [ChainDecomposition(is_path=True, path=(2, 4, 3))]
        check(q, cc)
        assert cc.curve.vertices == (0, 4) and cc.charges == {1: 0, 2: 4, 3: 4}

    def test_charge_targets_on_curve(self):
        q = make_quadruple(triangle_chain(), 7, 0, ())
        cc = build_cubic_curve(q)
        on_curve = {s[1] for s in cc.curve.stations if s[0] == "v"}
        assert set(cc.charges.values()) <= on_curve

    def test_charge_lines_format(self):
        q = make_quadruple(square(), 0, 1, ())
        cc = build_cubic_curve(q)
        assert charge_lines(cc) == "charge 1 -> 0\n"


# -- the quarter bound -------------------------------------------------------------


class TestTheorem4:
    @pytest.mark.parametrize("graph,n", [
        (k4(), 4), (prism(), 6), (cube(), 8), (dodecahedron(), 20),
    ])
    def test_platonic_bounds(self, graph, n):
        cc = theorem4(graph)
        assert cc.curve.vertex_count >= -(-n // 4)

    def test_k4_curve(self):
        cc = theorem4(k4())
        assert [s for s in cc.curve.stations if s[0] == "v"] == [("v", 0), ("v", 3)]
        assert cc.charges == {1: 3, 2: 3}

    def test_rejects_non_cubic(self):
        g = graph_from_positions(
            {0: (0, 0), 1: (4, 0), 2: (2, 4), 3: (2, 1)},
            [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)],
        )
        with pytest.raises(CubicError, match="cubic"):
            theorem4(g)

    def test_rejects_non_triconnected(self):
        # two diamond blocks in a ring: cubic and planar, but {0, 1}
        # is a separation pair
        pos = {0: (-4, -2), 1: (-4, 2), 2: (-3, 0), 3: (-5, 0),
               4: (4, 2), 5: (4, -2), 6: (3, 0), 7: (5, 0)}
        edges = [(1, 2), (2, 0), (0, 3), (3, 1), (2, 3),
                 (4, 6), (6, 5), (5, 7), (7, 4), (6, 7),
                 (1, 4), (0, 5)]
        g = graph_from_positions(pos, edges)
        with pytest.raises(CubicError, match="triconnected"):
            theorem4(g)

    def test_curve_realizes_to_drawing(self):
        g = cube()
        cc = theorem4(g)
        drawing = curve_to_drawing(g, cc.curve)
        report = verify_drawing(g, drawing)
        assert report.ok
        assert len(drawing.designated) == cc.curve.vertex_count

    def test_generated_instances(self):
        for seed, n in [(0, 10), (1, 24), (2, 50)]:
            g = generate_triconnected_cubic(seed, n)
            cc = theorem4(g)
            assert cc.curve.vertex_count >= -(-len(list(g.vertices)) // 4)


    @pytest.mark.parametrize("seed,n,digest", [
        (1, 30, "5bae16ec90ac7336ed83ca6b5b8aad2f8eafe8fbbee26c6a7af8c33cea3fa0a9"),
        (7, 100, "6cd9bbe7bfad2d0d2bb601f6370019483989dde3b42631885a34d8f59f38e308"),
        (3, 200, "e58c34680dc4988ee8c76e94d675716f8252be2ae9ff60f51e530b6d2122079b"),
        (1, 400, "e1987ea57a85f27576dada7fe2ee7bc68d1cd077a0759cdc9e7980decc3de09c"),
    ])
    def test_output_pinned(self, seed, n, digest):
        # digests of the curves and charges computed while condition (e)
        # ran one Tarjan pass per vertex and a component search per pair
        g = generate_triconnected_cubic(seed, n)
        cc = theorem4(g)
        text = serialize_curve(g, cc.curve) + charge_lines(cc)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- generator ---------------------------------------------------------------------


class TestGenerator:
    def test_smallest_is_k4(self):
        g = generate_triconnected_cubic(0, 4)
        assert sorted(len(f) for f in g.faces) == [3, 3, 3, 3]

    def test_n6_is_prism(self):
        # the prism is the only triconnected cubic plane graph on six vertices
        g = generate_triconnected_cubic(3, 6)
        sizes = sorted(len(f) for f in g.faces)
        assert sizes == [3, 3, 4, 4, 4]

    def test_cubic_and_triconnected(self):
        for seed in range(4):
            g = generate_triconnected_cubic(seed, 12)
            assert all(g.degree(v) == 3 for v in g.vertices)
            assert not g.separation_pairs()

    def test_deterministic(self):
        a = generate_triconnected_cubic(7, 16)
        b = generate_triconnected_cubic(7, 16)
        assert a.rot == b.rot and a.outer == b.outer

    def test_requested_size(self):
        for n in (4, 8, 14, 30):
            g = generate_triconnected_cubic(1, n)
            assert len(list(g.vertices)) == n

    @pytest.mark.parametrize("seed,n,digest", [
        (1, 30, "bbc58e5c3540bb54e78f017173fac5505663d27f1a39e9222b5a81097ffbbe1a"),
        (7, 60, "561665cbcee1cbb1a7c31b36363057278522c9d29db95fb6a7598afd78d06def"),
        (100, 100, "7c2cb335cac23eb71e99769ec9650f5fbf81456009ac25f93c8e6b2175dc08dd"),
    ])
    def test_output_pinned(self, seed, n, digest):
        # digests of the graphs generated while every expansion step was
        # audited; auditing only the final graph must not change a rotation
        text = serialize_plane_graph(generate_triconnected_cubic(seed, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
