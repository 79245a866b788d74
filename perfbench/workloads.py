"""Seeded corpora and the per-graph sequences of public calls they run.

Each workload is a fixed list of graph jobs derived from the seed.  A job
kind has two parts:

* ``prepare`` builds inputs the program does not make itself (the deep
  stackings, the prescribed points, the tangled positions); it is not timed;
* ``run`` makes the program calls, each inside a tracer span named
  ``<module>.<operation>``, and returns the outputs with the problems that
  the cheap exact checks found; its wall time is the graph's time.

``check_exhaustive`` runs the costly crossing test afterwards, untimed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, List, Tuple

from collinear.applications import PointSet, universal_placement, untangle
from collinear.cubic import generate_triconnected_cubic, theorem4
from collinear.curves import curve_from_drawing, validate_curve
from collinear.plane_graph import PlaneGraph
from collinear.realize import (Drawing, curve_to_drawing, labeling_from_curve,
                               place_free, verify_drawing)
from collinear.three_tree import (build_curve_bundle, decompose,
                                  dp_optimal_collinear, random_plane_3tree)
from collinear.treewidth import identity_grid_model, theorem5_curve

import checks
from checks import ceil_div

X_AXIS = (F(0), F(1), F(0))           # the line 0*x + 1*y = 0


@dataclass
class Job:
    gid: str
    kind: str
    size: int                 # n, or the grid side
    seed: int


@dataclass
class Outcome:
    """What a job hands from ``run`` to ``check`` and to the metrics."""
    drawings: List[Tuple[PlaneGraph, Drawing]]
    collinear: int            # vertices on realized lines, placed or kept fixed
    problems: List[str]


# -- inputs the program does not generate ---------------------------------------


def deep_stacking(n: int, seed: int) -> PlaneGraph:
    """Plane 3-tree in which each new vertex goes into one of the three
    newest faces, so the stacking depth grows linearly with n."""
    rng = random.Random(seed)
    rot: Dict[int, List[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces: List[Tuple[int, int, int]] = [(0, 2, 1)]
    for w in range(3, n):
        f0, f1, f2 = faces.pop(rng.randrange(max(0, len(faces) - 3), len(faces)))
        rot[w] = [f2, f1, f0]
        for vv, succ in ((f0, f1), (f1, f2), (f2, f0)):
            rot[vv].insert(rot[vv].index(succ), w)
        faces.extend([(f0, f1, w), (f1, f2, w), (f2, f0, w)])
    return PlaneGraph(rot, outer_walk=(0, 1, 2))


def _points(rng: random.Random, k: int) -> Tuple[Tuple[F, F], ...]:
    pts = set()
    while len(pts) < k:
        pts.add((F(rng.randint(-500, 500), rng.randint(1, 9)),
                 F(rng.randint(-500, 500), rng.randint(1, 9))))
    return tuple(sorted(pts))


# -- shared steps ------------------------------------------------------------------


def _verify(tr, g, d, problems, label):
    rep = tr.call("realize.verify", verify_drawing, g, d)
    tr.count("realize.verify_calls", 1)
    tr.count("realize.verify_edges", len(g.edges))
    if not rep.ok:
        problems.append(f"verify_drawing rejects the {label}: {rep.violations[:2]}")


def _realized(tr, d):
    if tr.on:
        tr.peak("realize.coord_bits", checks.coord_bits(d.coords))


def _read_back(tr, g, d, problems, need):
    back = tr.call("curves.read_back", curve_from_drawing, g, d.coords, X_AXIS)
    tr.count("curves.read_back_stations", len(back.stations))
    tr.count("curves.read_back_vertices", back.vertex_count)
    rep = tr.call("curves.validate", validate_curve, g, back)
    if not (rep.good and rep.proper):
        problems.append("read-back curve is not good and proper")
    if back.vertex_count < need:
        problems.append(f"read-back finds {back.vertex_count} < {need} vertices")
    return back


def _three_tree_curve(tr, g):
    d = tr.call("three_tree.decompose", decompose, g)
    tr.count("three_tree.nodes", len(d.nodes))
    cb = tr.call("three_tree.bundle", build_curve_bundle, d)
    _, curve, val = tr.call("three_tree.dp", dp_optimal_collinear, d)
    tr.count("three_tree.curve_vertices", curve.vertex_count)
    problems = []
    need = ceil_div(g.n - 3, 8)
    if cb.best.vertex_count < need:
        problems.append(f"bundle curve has {cb.best.vertex_count} < {need} vertices")
    if not (val == curve.vertex_count >= cb.best.vertex_count):
        problems.append(f"DP value {val} disagrees with its curve "
                        f"({curve.vertex_count}) or the bundle ({cb.best.vertex_count})")
    if len(set(curve.vertices)) != curve.vertex_count:
        problems.append("DP curve repeats a vertex")
    return curve, problems


def _place(tr, g, curve, problems):
    lab = tr.call("realize.labeling", labeling_from_curve, g, curve)
    d = tr.call("realize.place_free", place_free, g, lab)
    _realized(tr, d)
    _verify(tr, g, d, problems, "free placement")
    return d


# -- jobs ----------------------------------------------------------------------------


def run_stacked(tr, job, _):
    g = tr.call("three_tree.generate", random_plane_3tree, job.size, job.seed)
    curve, problems = _three_tree_curve(tr, g)
    d = _place(tr, g, curve, problems)
    problems += checks.on_line(d.coords, d.designated, curve.vertices,
                               ceil_div(g.n - 3, 8))
    return Outcome([(g, d)], len(d.designated), problems)


def run_deep_curve(tr, job, g):
    curve, problems = _three_tree_curve(tr, g)
    return Outcome([], 0, problems)


def run_deep_realized(tr, job, g):
    curve, problems = _three_tree_curve(tr, g)
    d = _place(tr, g, curve, problems)
    problems += checks.on_line(d.coords, d.designated, curve.vertices,
                               ceil_div(g.n - 3, 8))
    return Outcome([(g, d)], len(d.designated), problems)


def _theorem1(tr, g, curve, need, problems):
    rep = tr.call("curves.validate", validate_curve, g, curve)
    if not (rep.good and rep.proper):
        problems.append("curve is not good and proper")
    d = tr.call("realize.curve_to_drawing", curve_to_drawing, g, curve)
    _realized(tr, d)
    _verify(tr, g, d, problems, "Theorem-1 drawing")
    problems += checks.on_line(d.coords, d.designated, curve.vertices, need)
    _read_back(tr, g, d, problems, curve.vertex_count)
    return d


def run_cubic(tr, job, _):
    g = tr.call("cubic.generate", generate_triconnected_cubic, job.seed, job.size)
    cc = tr.call("cubic.theorem4", theorem4, g)
    tr.count("cubic.curve_vertices", cc.curve.vertex_count)
    problems: List[str] = []
    d = _theorem1(tr, g, cc.curve, ceil_div(g.n, 4), problems)
    return Outcome([(g, d)], len(d.designated), problems)


def run_grid(tr, job, _):
    g, m = tr.call("treewidth.grid_model", identity_grid_model, job.size)
    g2, curve = tr.call("treewidth.theorem5", theorem5_curve, g, m)
    tr.count("treewidth.curve_vertices", curve.vertex_count)
    problems: List[str] = []
    d = _theorem1(tr, g2, curve, checks.grid_bound(job.size), problems)
    return Outcome([(g2, d)], len(d.designated), problems)


def run_readback(tr, job, _):
    g = tr.call("three_tree.generate", random_plane_3tree, job.size, job.seed)
    d3 = tr.call("three_tree.decompose", decompose, g)
    tr.count("three_tree.nodes", len(d3.nodes))
    curve = tr.call("three_tree.bundle", build_curve_bundle, d3).best
    tr.count("three_tree.curve_vertices", curve.vertex_count)
    problems: List[str] = []
    d = tr.call("realize.curve_to_drawing", curve_to_drawing, g, curve)
    _realized(tr, d)
    _verify(tr, g, d, problems, "drawing")
    problems += checks.on_line(d.coords, d.designated, curve.vertices,
                               ceil_div(g.n - 3, 8))
    back = _read_back(tr, g, d, problems, curve.vertex_count)
    return Outcome([(g, d)], back.vertex_count, problems)


def run_ups(tr, job, points):
    g = tr.call("three_tree.generate", random_plane_3tree, job.size, job.seed)
    d = tr.call("applications.ups", universal_placement, g, PointSet(points))
    tr.count("applications.points", len(points))
    problems: List[str] = []
    # the prescribed points are not collinear: verify everything else
    _verify(tr, g, Drawing(d.coords, ()), problems, "point placement")
    if sorted(d.coords[v] for v in d.designated) != sorted(points):
        problems.append("designated vertices miss the prescribed points")
    return Outcome([(g, d)], len(d.designated), problems)


def run_untangle(tr, job, bad):
    g = tr.call("three_tree.generate", random_plane_3tree, job.size, job.seed)
    res = tr.call("applications.untangle", untangle, g, bad)
    tr.count("applications.fixed", len(res.fixed))
    problems: List[str] = []
    _verify(tr, g, Drawing(res.drawing.coords, ()), problems, "untangled drawing")
    need = math.isqrt(ceil_div(g.n - 3, 8) - 1) + 1
    if len(res.fixed) < need:
        problems.append(f"untangle keeps {len(res.fixed)} < {need} positions")
    moved = [v for v in res.fixed if res.drawing.coords[v] != bad[v]]
    if moved:
        problems.append(f"fixed vertex {moved[0]} moved")
    return Outcome([(g, res.drawing)], len(res.fixed), problems)


def _no_input(job):
    return None


def _deep_input(job):
    return deep_stacking(job.size, job.seed)


def _ups_input(job):
    return _points(random.Random(job.seed), ceil_div(job.size - 3, 8))


def _untangle_input(job):
    # random_plane_3tree numbers its vertices 0 .. n-1
    rng = random.Random(job.seed + 1)
    return {v: (F(rng.randint(-999, 999)), F(rng.randint(-999, 999)))
            for v in range(job.size)}


# kind -> (prepare, run)
KINDS: Dict[str, Tuple[Callable, Callable]] = {
    "stacked": (_no_input, run_stacked),
    "deep_curve": (_deep_input, run_deep_curve),
    "deep_realized": (_deep_input, run_deep_realized),
    "cubic": (_no_input, run_cubic),
    "grid": (_no_input, run_grid),
    "readback": (_no_input, run_readback),
    "ups": (_ups_input, run_ups),
    "untangle": (_untangle_input, run_untangle),
}

# workload -> the (kind, size) list of its corpus; why each exists is in
# README.md next to this file.
CORPORA: Dict[str, List[Tuple[str, int]]] = {
    "stacked": [("stacked", 300)] + [("stacked", 800)] * 8,
    "deep": [("deep_curve", 1800)] * 2 + [("deep_realized", 200)]
            + [("deep_realized", 400)] * 4,
    "cubic_grid": [("cubic", 100)] * 4 + [("grid", 10), ("grid", 16)],
    "placement": [("ups", 40)] * 5 + [("untangle", 40)] * 5
                 + [("readback", 100)] * 9,
}


def corpus(workload: str, seed: int) -> List[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return [Job(f"{i}-{kind}-{size}", kind, size, rng.randrange(10 ** 9))
            for i, (kind, size) in enumerate(CORPORA[workload])]


def check_exhaustive(out: Outcome) -> List[str]:
    """The benchmark's own crossing test on each drawing it can afford."""
    problems = []
    for g, d in out.drawings:
        if (len(g.edges) <= checks.EXHAUSTIVE_MAX_EDGES
                and checks.coord_bits(d.coords) <= checks.EXHAUSTIVE_MAX_BITS):
            found = checks.first_crossing(d.coords, g.edges)
            if found:
                problems.append(f"exhaustive test: {found}")
    return problems
