"""Tests for universal point subsets and untangling."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from collinear import applications
from collinear.applications import (
    ApplicationError,
    DrawingRejected,
    PointSet,
    collinear_guarantee,
    rotation_for,
    rotate,
    universal_placement,
    unrotate,
    untangle,
)
from collinear.realize import DrawingReport, RealizeError, verify_drawing, Drawing
from collinear.three_tree import random_plane_3tree


frac = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def random_points(rng, k, span=60):
    pts = set()
    while len(pts) < k:
        pts.add((F(rng.randint(-span, span), rng.randint(1, 7)),
                 F(rng.randint(-span, span), rng.randint(1, 7))))
    return tuple(sorted(pts))


def random_positions(g, rng, span=100):
    while True:
        bad = {v: (F(rng.randint(-span, span)), F(rng.randint(-span, span)))
               for v in g.vertices}
        if len(set(bad.values())) == len(bad):
            return bad


class TestRotation:
    def test_identity_when_already_separated(self):
        assert rotation_for([(F(0), F(0)), (F(1), F(5))]) == (F(1), F(0))

    def test_separates_vertical_points(self):
        pts = [(F(0), F(i)) for i in range(4)]
        c, s = rotation_for(pts)
        assert c * c + s * s == 1
        xs = [rotate(p, (c, s))[0] for p in pts]
        assert len(set(xs)) == len(xs)

    def test_roundtrip_is_exact(self):
        cs = rotation_for([(F(0), F(0)), (F(0), F(1))])
        p = (F(22, 7), F(-3, 11))
        assert unrotate(rotate(p, cs), cs) == p

    @given(st.lists(st.tuples(frac, frac), min_size=2, max_size=8, unique=True))
    def test_rational_direction_separates(self, pts):
        c, s = rotation_for(pts)
        assert c * c + s * s == 1
        xs = [rotate(p, (c, s))[0] for p in pts]
        assert len(set(xs)) == len(pts)

    @given(frac, frac)
    def test_rotate_roundtrip(self, x, y):
        cs = (F(3, 5), F(4, 5))
        assert unrotate(rotate((x, y), cs), cs) == (x, y)
        assert rotate(unrotate((x, y), cs), cs) == (x, y)

    def test_point_set_rejects_duplicates(self):
        with pytest.raises(ApplicationError, match="distinct"):
            PointSet(((F(1), F(2)), (F(1), F(2))))


class TestUniversalPlacement:
    def test_guarantee_values(self):
        assert collinear_guarantee(11) == 1
        assert collinear_guarantee(83) == 10
        assert collinear_guarantee(131) == 16

    def test_single_point_lands_exactly(self):
        g = random_plane_3tree(11, seed=1)
        target = (F(7), F(13))
        d = universal_placement(g, PointSet((target,)))
        assert len(d.designated) == 1
        assert d.coords[d.designated[0]] == target

    def test_ten_points_on_large_tree(self):
        g = random_plane_3tree(83, seed=2)
        pts = random_points(random.Random(5), 10)
        d = universal_placement(g, PointSet(pts))
        assert sorted(d.coords[v] for v in d.designated) == sorted(pts)
        assert verify_drawing(g, Drawing(d.coords, ())).ok

    def test_vertical_line_points(self):
        g = random_plane_3tree(30, seed=3)
        pts = tuple((F(0), F(i)) for i in range(3))
        d = universal_placement(g, PointSet(pts))
        assert sorted(d.coords[v] for v in d.designated) == sorted(pts)

    def test_size_bound_enforced(self):
        g = random_plane_3tree(11, seed=1)
        pts = tuple((F(i), F(0)) for i in range(2))
        with pytest.raises(ApplicationError, match="exceed"):
            universal_placement(g, PointSet(pts))

    def test_empty_point_set(self):
        g = random_plane_3tree(12, seed=0)
        d = universal_placement(g, PointSet(()))
        assert d.designated == ()
        assert verify_drawing(g, d).ok


class TestUntangle:
    def test_small_tree_keeps_a_vertex(self):
        g = random_plane_3tree(11, seed=6)
        bad = random_positions(g, random.Random(0), span=10)
        r = untangle(g, bad)
        assert len(r.fixed) >= 1
        assert all(r.drawing.coords[v] == bad[v] for v in r.fixed)

    def test_large_tree_keeps_four(self):
        g = random_plane_3tree(131, seed=4)
        bad = random_positions(g, random.Random(7))
        r = untangle(g, bad)
        assert len(r.fixed) >= 4  # sqrt(ceil(128/8)) = 4
        assert all(r.drawing.coords[v] == bad[v] for v in r.fixed)
        assert verify_drawing(g, Drawing(r.drawing.coords, ())).ok

    def test_several_seeds_meet_bound(self):
        for seed in range(5):
            g = random_plane_3tree(40 + 7 * seed, seed=seed)
            bad = random_positions(g, random.Random(100 + seed))
            r = untangle(g, bad)
            k = collinear_guarantee(g.n)
            need = 1
            while need * need < k:
                need += 1
            assert len(r.fixed) >= need

    def test_planar_input_still_meets_bound(self):
        g = random_plane_3tree(35, seed=9)
        base = untangle(g, random_positions(g, random.Random(1))).drawing
        r = untangle(g, base.coords)
        k = collinear_guarantee(g.n)
        need = 1
        while need * need < k:
            need += 1
        assert len(r.fixed) >= need
        assert all(r.drawing.coords[v] == base.coords[v] for v in r.fixed)

    def test_rejects_coincident_positions(self):
        g = random_plane_3tree(10, seed=2)
        bad = {v: (F(0), F(0)) for v in g.vertices}
        with pytest.raises(ApplicationError, match="distinct"):
            untangle(g, bad)


@pytest.mark.parametrize("feature", ["ups", "untangle"])
def test_own_check_failure_raises_realize_error(monkeypatch, feature):
    monkeypatch.setattr(applications, "verify_drawing",
                        lambda g, d: DrawingReport(False, True, True, True, ["bad"]))
    g = random_plane_3tree(20, seed=1)
    with pytest.raises(DrawingRejected, match="failed") as info:
        if feature == "ups":
            universal_placement(g, PointSet(((F(1), F(2)),)))
        else:
            untangle(g, random_positions(g, random.Random(3)))
    assert isinstance(info.value, RealizeError)       # library callers keep it
