"""Tests for universal point subsets and untangling."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

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
    untangle_guarantee,
)
from collinear.realize import (Drawing, DrawingReport, RealizeError, labeling_from_curve,
                               lift_off_line, serialize_drawing, verify_drawing)
from collinear.three_tree import build_curve_bundle, decompose, random_plane_3tree
from test_three_tree import deep_stacking


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

    def test_deep_stacking_lifts_past_two_to_the_seventy(self):
        # the first magnification that can verify is past 2^70 here, and the
        # lift tries 70 powers from it
        g = deep_stacking(200, 8)
        pts = ((F(0), F(0)), (F(3), F(5)))
        d = universal_placement(g, PointSet(pts))
        assert sorted(d.coords[v] for v in d.designated) == sorted(pts)
        assert verify_drawing(g, Drawing(d.coords, ())).ok

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

    def test_triangle_keeps_nothing_and_verifies(self):
        # ceil((3-3)/8) = 0: the curve puts no vertex on the line, so the
        # free placement is returned unlifted
        g = random_plane_3tree(3, seed=0)
        r = untangle(g, {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))})
        assert untangle_guarantee(3) == 0 and r.fixed == frozenset()
        assert verify_drawing(g, Drawing(r.drawing.coords, ())).ok

    def test_rejects_coincident_positions(self):
        g = random_plane_3tree(10, seed=2)
        bad = {v: (F(0), F(0)) for v in g.vertices}
        with pytest.raises(ApplicationError, match="distinct"):
            untangle(g, bad)

    def test_rejects_missing_positions(self):
        g = random_plane_3tree(10, seed=2)
        bad = random_positions(g, random.Random(3))
        del bad[7]
        with pytest.raises(ApplicationError, match="every vertex"):
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


def test_outputs_pinned():
    # sha256 of one universal placement and one untangling, re-pinned when
    # free placement's ray steps were anchored at the corner; the lift's
    # first magnification read off the faces changes no drawing
    rng = random.Random(40)
    g = random_plane_3tree(40, 40)
    d = universal_placement(g, PointSet(random_points(rng, 5)))
    text = serialize_drawing(d)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0650368c325666c64df9d18b6e8e93bf3041c04ffb9a014163a71a4846af6af2")
    res = untangle(g, random_positions(g, rng))
    text = serialize_drawing(res.drawing) + f"fixed: {sorted(res.fixed)}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "586177382a7af6909f561918d851e2a52e7e22a6cb9b422f90ed83f9053c4915")


# -- the two pinning sequences as they were written, kept as references ----------


def reference_universal_placement(g, p):
    """``universal_placement`` before its pinning sequence was shared with
    ``untangle``."""
    k = collinear_guarantee(g.n)
    if len(p) > k:
        raise ApplicationError(f"{len(p)} points exceed the guarantee of {k} "
                               f"collinear vertices for n={g.n}")
    d = decompose(g)
    if not p.points:
        lab = labeling_from_curve(g, build_curve_bundle(d).best)
        return Drawing(applications._lined_drawing(d, lab, {}).coords, ())
    cs = rotation_for(p.points)
    rpts = sorted(rotate(q, cs) for q in p.points)
    xs = [q[0] for q in rpts]
    lab = labeling_from_curve(g, build_curve_bundle(d).best)
    chosen_pos = [i for i, e in enumerate(lab.order) if e[0] == 'v'][:len(p)]
    flat = applications._lined_drawing(d, lab, dict(zip(chosen_pos, xs)))
    chosen = tuple(lab.order[i][1] for i in chosen_pos)
    heights = {v: F(0) for v in flat.designated}
    heights.update({v: rpts[i][1] for i, v in enumerate(chosen)})
    lifted = lift_off_line(g, flat, heights)
    coords = {v: unrotate(q, cs) for v, q in lifted.coords.items()}
    assert all(coords[v] == unrotate(q, cs) for v, q in zip(chosen, rpts))
    report = verify_drawing(g, Drawing(coords, ()))
    if not report.ok:
        raise DrawingRejected(f"universal placement drawing failed: {report.violations}")
    return Drawing(coords, chosen)


def reference_untangle(g, bad):
    """``untangle`` before its pinning sequence was shared with
    ``universal_placement``."""
    bad = {v: (F(x), F(y)) for v, (x, y) in bad.items()}
    d = decompose(g)
    curve = build_curve_bundle(d).best
    lab = labeling_from_curve(g, curve)
    line = list(lab.on_line)
    cs = rotation_for([bad[v] for v in line])
    seq = [rotate(bad[v], cs)[0] for v in line]
    picked, increasing = applications._longest_monotone(seq)
    if not increasing:
        lab = labeling_from_curve(g, curve.reversed())
        line = list(lab.on_line)
        picked = sorted(len(line) - 1 - i for i in picked)
        seq = [rotate(bad[v], cs)[0] for v in line]
    fixed = [line[i] for i in picked]
    v_positions = [i for i, e in enumerate(lab.order) if e[0] == 'v']
    pos_of = {line[i]: v_positions[i] for i in range(len(line))}
    flat = applications._lined_drawing(d, lab, {pos_of[v]: seq[i]
                                                for v, i in zip(fixed, picked)})
    heights = {v: F(0) for v in flat.designated}
    heights.update({v: rotate(bad[v], cs)[1] for v in fixed})
    lifted = lift_off_line(g, flat, heights) if flat.designated else flat
    coords = {v: unrotate(q, cs) for v, q in lifted.coords.items()}
    assert all(coords[v] == bad[v] for v in fixed)
    report = verify_drawing(g, Drawing(coords, ()))
    if not report.ok:
        raise DrawingRejected(f"untangled drawing failed: {report.violations}")
    return applications.UntangleResult(fixed=frozenset(fixed),
                                       drawing=Drawing(coords, tuple(fixed)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([random_plane_3tree, deep_stacking]), st.integers(3, 70),
       st.integers(0, 30), st.integers(0, 10 ** 6))
def test_pinning_matches_the_references(make, n, seed, draw_seed):
    # both features give their reference's drawing, designated vertices and
    # fixed set, point for point; points and positions may share x's
    g, rng = make(n, seed), random.Random(draw_seed)
    pts = PointSet(random_points(rng, rng.randint(0, collinear_guarantee(n)), span=3))
    assert universal_placement(g, pts) == reference_universal_placement(g, pts)
    bad = random_positions(g, rng, span=2 * n)
    assert untangle(g, bad) == reference_untangle(g, bad)
