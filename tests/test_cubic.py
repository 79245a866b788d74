"""Tests for collinear sets in triconnected cubic plane graphs."""

import hashlib

import pytest

from collinear.cubic import (
    ChainDecomposition,
    CubicError,
    build_cubic_curve,
    chain_decompose,
    charge_lines,
    generate_triconnected_cubic,
    make_quadruple,
    theorem4,
    verify_charged_curve,
)
from collinear.plane_graph import (PlaneGraph, graph_from_positions,
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
