"""Tests for collinear sets built from grid-minor models."""

import pytest

from collinear.curves import validate_curve
from collinear.plane_graph import edge_key
from collinear.realize import curve_to_drawing, verify_drawing
from collinear.treewidth import (
    GridError,
    GridModel,
    build_cells,
    designated_count,
    designated_side,
    identity_grid_model,
    parse_grid_model,
    _route_in_cell,
    route_type_c,
    serialize_grid_model,
    snake_curve,
    theorem5_curve,
    validate_model,
)


def coarse_model(side):
    """A side x side model of the (2*side) x (2*side) grid, 2x2 blocks."""
    host, _ = identity_grid_model(2 * side)

    def vid(i, j):
        return (j - 1) * (2 * side) + (i - 1)

    branch = {(i, j): frozenset(vid(2 * i - 1 + a, 2 * j - 1 + b)
                                for a in (0, 1) for b in (0, 1))
              for i in range(1, side + 1) for j in range(1, side + 1)}
    ref_h = {(i, j): edge_key(vid(2 * i, 2 * j - 1), vid(2 * i + 1, 2 * j - 1))
             for i in range(1, side) for j in range(1, side + 1)}
    ref_v = {(i, j): edge_key(vid(2 * i - 1, 2 * j), vid(2 * i - 1, 2 * j + 1))
             for i in range(1, side + 1) for j in range(1, side)}
    return host, GridModel(side, branch, ref_h, ref_v)


# -- model validation ----------------------------------------------------------------


class TestValidateModel:
    def test_identity_model_is_valid(self):
        g, m = identity_grid_model(6)
        assert validate_model(g, m).ok

    def test_coarse_model_is_valid(self):
        g, m = coarse_model(6)
        assert validate_model(g, m).ok

    def test_disconnected_branch_set(self):
        g, m = identity_grid_model(4)
        branch = dict(m.branch)
        branch[(2, 2)] = branch[(2, 2)] | branch[(3, 3)]
        branch[(3, 3)] = frozenset([next(iter(m.branch[(3, 2)]))])
        bad = GridModel(4, branch, m.ref_h, m.ref_v)
        rep = validate_model(g, bad)
        assert not rep.ok
        assert any("not connected" in p for p in rep.problems)

    def test_reference_edge_joining_wrong_sets(self):
        g, m = identity_grid_model(4)
        ref_h = dict(m.ref_h)
        ref_h[(1, 1)] = m.ref_h[(1, 2)]
        bad = GridModel(4, m.branch, ref_h, m.ref_v)
        rep = validate_model(g, bad)
        assert not rep.ok
        assert any("joins branch sets" in p for p in rep.problems)

    def test_model_roundtrips_through_text(self):
        _, m = coarse_model(4)
        m2 = parse_grid_model(serialize_grid_model(m))
        assert m2.side == m.side
        assert m2.branch == m.branch
        assert m2.ref_h == m.ref_h and m2.ref_v == m.ref_v


# -- cells ---------------------------------------------------------------------------


class TestCells:
    def test_identity_cells_are_single_faces(self):
        g, m = identity_grid_model(5)
        cells = build_cells(g, m)
        assert len(cells.cells) == 16
        assert all(len(fs) == 1 for fs in cells.cells.values())

    def test_coarse_cells_tile_disjointly(self):
        g, m = coarse_model(4)
        cells = build_cells(g, m)
        seen = set()
        for fs in cells.cells.values():
            assert not (fs & seen)
            seen |= fs


# -- sub-curve routing ---------------------------------------------------------------


class TestRouting:
    def test_traversal_of_empty_cell_is_one_face_hop(self):
        g, m = identity_grid_model(5)
        cells = build_cells(g, m)
        sts = _route_in_cell(g, cells.cells[(2, 2)], cells.blocked,
                             m.ref_h[(2, 2)], m.ref_h[(2, 3)])
        assert [s[0] for s in sts] == ['x', 'f', 'x']

    def test_traversal_crosses_interior_edges_once_each(self):
        g, m = coarse_model(4)
        cells = build_cells(g, m)
        sts = _route_in_cell(g, cells.cells[(2, 2)], cells.blocked,
                             m.ref_h[(2, 2)], m.ref_h[(2, 3)])
        inner = [s for s in sts[1:-1] if s[0] == 'x']
        faces = [s for s in sts if s[0] == 'f']
        assert len(inner) == len(faces) - 1 >= 1
        assert len({s[1] for s in inner}) == len(inner)

    def test_turn_between_adjacent_reference_edges(self):
        g, m = identity_grid_model(5)
        cells = build_cells(g, m)
        sts = _route_in_cell(g, cells.cells[(2, 2)], cells.blocked,
                             m.ref_h[(2, 2)], m.ref_v[(2, 2)])
        assert sts[0] == ('x', m.ref_h[(2, 2)])
        assert sts[-1] == ('x', m.ref_v[(2, 2)])

    def test_vertex_getter_on_identity_degenerates(self):
        # singleton branch set: the in-graph leg is a single vertex
        g, m = identity_grid_model(6)
        cells = build_cells(g, m)
        sts = route_type_c(g, cells, m, 3, 2, m.ref_v[(3, 1)], m.ref_v[(5, 2)])
        vs = [s[1] for s in sts if s[0] == 'v']
        assert vs == sorted(m.branch[(4, 2)])

    def test_vertex_getter_visits_distinct_branch_vertices(self):
        g, m = coarse_model(6)
        cells = build_cells(g, m)
        sts = route_type_c(g, cells, m, 3, 2, m.ref_v[(3, 1)], m.ref_v[(5, 2)])
        vs = [s[1] for s in sts if s[0] == 'v']
        assert vs and len(set(vs)) == len(vs)
        assert set(vs) <= m.branch[(4, 2)]

    def test_vertex_getter_rejects_bad_endpoints(self):
        g, m = identity_grid_model(6)
        cells = build_cells(g, m)
        with pytest.raises(GridError, match="pairing"):
            route_type_c(g, cells, m, 3, 2, m.ref_v[(3, 1)], m.ref_v[(5, 3)])
        # the two pairings taken right to left
        for e_from, e_to in (((5, 2), (3, 1)), ((5, 1), (3, 2))):
            with pytest.raises(GridError, match="pairing"):
                route_type_c(g, cells, m, 3, 2, m.ref_v[e_from], m.ref_v[e_to])


# -- the quadratic visiting bound ----------------------------------------------------


class TestSnake:
    def test_designated_count_small_values(self):
        assert designated_side(6) == 4 and designated_count(6) == 2
        assert designated_side(10) == 8 and designated_count(10) == 12

    def test_designated_count_is_quadratic(self):
        for side in range(10, 101):
            assert designated_count(side) >= (side - 6) ** 2 / 16

    def test_closed_snake_is_good(self):
        g, m = identity_grid_model(6)
        c = snake_curve(g, m)
        assert c.closed
        assert validate_curve(g, c).good

    @pytest.mark.parametrize("side", [6, 10, 14])
    def test_identity_grid_bound(self, side):
        g, m = identity_grid_model(side)
        g2, c = theorem5_curve(g, m)
        assert not c.closed
        rep = validate_curve(g2, c)
        assert rep.good and rep.proper
        assert c.vertex_count >= designated_count(side)

    def test_coarse_model_bound(self):
        g, m = coarse_model(6)
        g2, c = theorem5_curve(g, m)
        rep = validate_curve(g2, c)
        assert rep.good and rep.proper
        assert c.vertex_count >= designated_count(6)

    def test_side_too_small(self):
        # the side is checked before the cells are built, so side 2, whose
        # cells build_cells cannot bound, gets the same message as 3 to 5
        for side in (2, 3, 4, 5):
            g, m = identity_grid_model(side)
            with pytest.raises(GridError, match=f"grid side {side} is too small"):
                theorem5_curve(g, m)

    def test_snake_realizes_to_drawing(self):
        g, m = identity_grid_model(6)
        g2, c = theorem5_curve(g, m)
        d = curve_to_drawing(g2, c)
        assert verify_drawing(g2, d).ok
        assert len(d.designated) == c.vertex_count
