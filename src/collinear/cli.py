"""Command-line interface for the collinear-set toolkit.

Subcommands cover the full workflow: generate test graphs, compute a large
collinear set as a curve, realize it as an exact straight-line drawing,
verify artifacts, and run the placement features.  All output is
deterministic for fixed inputs and ``--seed``.

Exit codes: 0 ok, 1 verification failure (also when a placement command's
own exact check rejects its drawing), 2 input error, 3 guard exceeded,
4 internal error (a failed assertion, recursion overflow, memory exhaustion,
or ``draw`` failing to realize a curve that is good and proper: a bug,
reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction as F
from typing import List, Optional, Sequence

from .applications import (ApplicationError, DrawingRejected, PointSet,
                           collinear_guarantee, universal_placement, untangle)
from .cubic import CubicError, charge_lines, generate_triconnected_cubic, theorem4
from .curves import CurveError, parse_curve, serialize_curve, validate_curve
from .oracle import OracleError, enumerate_curves
from .plane_graph import (PlaneGraphError, parse_plane_graph,
                          serialize_plane_graph)
from .realize import (Drawing, LabelingOrder, RealizeError, curve_to_drawing,
                      drawing_to_svg, labeling_from_curve, parse_drawing,
                      place_free, serialize_drawing, verify_drawing)
from .three_tree import (ThreeTreeError, build_curve_bundle, decompose,
                         dp_optimal_collinear, random_plane_3tree)
from .treewidth import (GridError, identity_grid_model, parse_grid_model,
                        serialize_grid_model, theorem5_curve, validate_model,
                        designated_count)

_INPUT_ERRORS = (PlaneGraphError, CurveError, RealizeError, ThreeTreeError,
                 CubicError, GridError, ApplicationError, OSError, ValueError)


class VerificationFailure(Exception):
    pass


class GuardExceeded(Exception):
    pass


class InternalFailure(Exception):
    """A library error on input that passed the command's own checks."""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_graph(path: str):
    return parse_plane_graph(_read(path))


def _emit_verified(args, g, d: Drawing, collinear: bool = True,
                   broken: Sequence[str] = ()) -> int:
    """Write the drawing (``--out``, ``--svg``) and re-verify it exactly:
    planarity, embedding, outer face, the designated vertices' collinearity
    unless ``collinear`` is false, and no ``broken`` promise of the command."""
    report = verify_drawing(g, d if collinear else Drawing(d.coords, ()))
    print(f"verified {'ok' if report.ok and not broken else 'FAIL'}")
    _write(args.out, serialize_drawing(d))
    if args.svg:
        _write(args.svg, drawing_to_svg(g, d))
    if not report.ok or broken:
        raise VerificationFailure(
            "; ".join(report.violations + list(broken)) or "drawing invalid")
    return 0


# -- subcommands -----------------------------------------------------------------


def _cmd_curve(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "3tree":
        curve = build_curve_bundle(decompose(g)).best
        bound = collinear_guarantee(g.n)
        out_graph = g
        extra = ""
    elif args.method == "cubic":
        cc = theorem4(g)
        curve = cc.curve
        bound = -(-g.n // 4)
        out_graph = g
        extra = charge_lines(cc)
    else:
        if not args.model:
            raise PlaneGraphError("--method grid requires --model")
        m = parse_grid_model(_read(args.model))
        out_graph, curve = theorem5_curve(g, m)
        bound = designated_count(m.side)
        extra = ""
    print(f"method {args.method}")
    print(f"n {g.n}")
    print(f"bound {bound}")
    print(f"vertices_on_curve {curve.vertex_count}")
    if extra:
        sys.stdout.write(extra)
    _write(args.out, serialize_curve(out_graph, curve))
    if args.out_graph:
        _write(args.out_graph, serialize_plane_graph(out_graph))
    if curve.vertex_count < bound:
        raise VerificationFailure(f"curve visits {curve.vertex_count} < {bound}")
    return 0


def _cmd_draw(args) -> int:
    g = _load_graph(args.graph)
    curve = parse_curve(g, _read(args.curve))
    rep = validate_curve(g, curve)
    if not (rep.good and rep.proper):
        raise CurveError("curve is not " + ("proper" if rep.good else "good"))
    try:
        d = curve_to_drawing(g, curve)
    except RealizeError as exc:
        raise InternalFailure(f"{type(exc).__name__}: {exc}") from exc
    print(f"collinear_vertices {len(d.designated)}")
    return _emit_verified(args, g, d)


def _cmd_dp(args) -> int:
    g = _load_graph(args.graph)
    d = decompose(g)
    table, curve, value = dp_optimal_collinear(d)
    print(f"optimal {value}")
    for sig in sorted(table.at(d.root)):
        print(f"root {' '.join(str(t) for t in sig)} -> {table.at(d.root)[sig]}")
    _write(args.out, serialize_curve(g, curve))
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    try:
        res = enumerate_curves(g, edge_limit=args.oracle_limit)
    except OracleError as exc:
        raise GuardExceeded(str(exc))
    print(f"max_vertices {res.max_vertices}")
    print(f"explored {res.explored}")
    _write(args.out, serialize_curve(g, res.witness))
    return 0


def _cmd_place(args) -> int:
    g = _load_graph(args.graph)
    curve = parse_curve(g, _read(args.curve))
    lab = labeling_from_curve(g, curve)
    targets = {}
    for raw in _read(args.targets).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            targets[("v", int(parts[1]))] = F(parts[2])
        elif parts[0] == "e" and len(parts) == 4:
            a, b = sorted((int(parts[1]), int(parts[2])))
            targets[("e", (a, b))] = F(parts[3])
        else:
            raise RealizeError(f"unrecognized targets line: {line!r}")
    missing = [e for e in lab.order if e not in targets]
    if missing:
        raise RealizeError(f"no target for {missing[0]}")
    lab2 = LabelingOrder(labels=lab.labels, order=lab.order, targets=targets)
    d = place_free(g, lab2)
    print(f"placed {len(lab.order)}")
    return _emit_verified(args, g, d)


def _cmd_untangle(args) -> int:
    g = _load_graph(args.graph)
    bad = parse_drawing(_read(args.drawing))
    res = untangle(g, bad.coords)
    need = 1
    while need * need < collinear_guarantee(g.n):
        need += 1
    print(f"fixed {len(res.fixed)}")
    print(f"bound {need}")
    print("fixed_vertices " + " ".join(str(v) for v in sorted(res.fixed)))
    # the fixed positions need not be collinear
    moved = [f"fixed vertex {v} moved" for v in sorted(res.fixed)
             if res.drawing.coords[v] != bad.coords[v]]
    return _emit_verified(args, g, res.drawing, collinear=False, broken=moved)


def _cmd_ups(args) -> int:
    g = _load_graph(args.graph)
    pts = []
    for raw in _read(args.points).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p" and len(parts) == 3:
            pts.append((F(parts[1]), F(parts[2])))
        else:
            raise ApplicationError(f"unrecognized points line: {line!r}")
    d = universal_placement(g, PointSet(tuple(pts)))
    print(f"placed {len(d.designated)}")
    print("at_points " + " ".join(str(v) for v in d.designated))
    # the prescribed points need not be collinear
    hit = sorted(d.coords[v] for v in d.designated) == sorted(pts)
    return _emit_verified(args, g, d, collinear=False, broken=() if hit else (
        "designated vertices do not sit on the given points",))


def _cmd_gen(args) -> int:
    if args.kind == "3tree":
        g = random_plane_3tree(args.n, seed=args.seed)
        model_text = None
    elif args.kind == "cubic":
        g = generate_triconnected_cubic(args.seed, args.n)
        model_text = None
    else:
        g, m = identity_grid_model(args.n)
        model_text = serialize_grid_model(m)
    # with no --out the graph itself goes to stdout, so keep it parseable
    status = sys.stdout if args.out else sys.stderr
    print(f"kind {args.kind}", file=status)
    print(f"n {g.n}", file=status)
    _write(args.out, serialize_plane_graph(g))
    if model_text is not None and args.out_model:
        _write(args.out_model, model_text)
    if not args.out:
        sys.stdout.write(serialize_plane_graph(g))
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    failures: List[str] = []
    if args.curve:
        curve = parse_curve(g, _read(args.curve))
        rep = validate_curve(g, curve)
        print(f"curve good {'ok' if rep.good else 'FAIL'}")
        print(f"curve proper {'ok' if rep.proper else 'FAIL'}")
        print(f"curve vertices {rep.vertex_count_on_curve}")
        if not rep.good:
            failures += [f"edge {e} met {k} times" for (e, k) in rep.violations]
        if not rep.proper:
            failures.append("curve is not proper")
    if args.drawing:
        d = parse_drawing(_read(args.drawing))
        rep = verify_drawing(g, d)
        print(f"drawing {'ok' if rep.ok else 'FAIL'}")
        failures += rep.violations
    if args.model:
        m = parse_grid_model(_read(args.model))
        rep = validate_model(g, m)
        print(f"model {'ok' if rep.ok else 'FAIL'}")
        failures += list(rep.problems)
    if not (args.curve or args.drawing or args.model):
        raise PlaneGraphError("nothing to verify: pass --curve, --drawing "
                              "or --model")
    if failures:
        raise VerificationFailure(failures[0])
    return 0


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="collinear",
        description="collinear vertex sets in plane graphs: curves, "
                    "drawings, placement")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="compute a collinear-set curve")
    c.add_argument("graph")
    c.add_argument("--method", choices=("3tree", "cubic", "grid"),
                   required=True)
    c.add_argument("--model", help="grid-minor model file (grid method)")
    c.add_argument("--out", help="write the curve here")
    c.add_argument("--out-graph", help="write the (possibly re-embedded) graph")
    c.set_defaults(fn=_cmd_curve)

    c = sub.add_parser("draw", help="realize a curve as an exact drawing")
    c.add_argument("graph")
    c.add_argument("curve")
    c.add_argument("--out")
    c.add_argument("--svg")
    c.set_defaults(fn=_cmd_draw)

    c = sub.add_parser("dp", help="optimal collinear set of a plane 3-tree")
    c.add_argument("graph")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_dp)

    c = sub.add_parser("oracle", help="exhaustive curve search (tiny graphs)")
    c.add_argument("graph")
    c.add_argument("--oracle-limit", type=int, default=24)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_oracle)

    c = sub.add_parser("place", help="place curve stations at given x-targets")
    c.add_argument("graph")
    c.add_argument("curve")
    c.add_argument("targets")
    c.add_argument("--out")
    c.add_argument("--svg")
    c.set_defaults(fn=_cmd_place)

    c = sub.add_parser("untangle", help="planarize keeping vertices fixed")
    c.add_argument("graph")
    c.add_argument("drawing")
    c.add_argument("--out")
    c.add_argument("--svg")
    c.set_defaults(fn=_cmd_untangle)

    c = sub.add_parser("ups", help="hit prescribed points with vertices")
    c.add_argument("graph")
    c.add_argument("points")
    c.add_argument("--out")
    c.add_argument("--svg")
    c.set_defaults(fn=_cmd_ups)

    c = sub.add_parser("gen", help="generate test graphs")
    c.add_argument("--kind", choices=("3tree", "cubic", "grid"), required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.add_argument("--out-model")
    c.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("verify", help="validate curves, drawings, models")
    c.add_argument("graph")
    c.add_argument("--curve")
    c.add_argument("--drawing")
    c.add_argument("--model")
    c.set_defaults(fn=_cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (VerificationFailure, DrawingRejected) as exc:
        print(f"error verification {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"error guard {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error input {exc}", file=sys.stderr)
        return 2
    except InternalFailure as exc:
        print(f"error internal {exc}", file=sys.stderr)
        return 4
    except (AssertionError, RecursionError, MemoryError) as exc:
        print(f"error internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
