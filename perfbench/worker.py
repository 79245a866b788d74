"""Run one workload in this process and print its measurements as JSON.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --src SRC --spans FILE

``run.py`` starts it.  The process caps its own address space first, so a
graph that outgrows the cap raises MemoryError and counts as a failure
instead of exhausting the machine.  The loop is closed: one graph at a time,
no threads.  The first pass is untraced and also checks every output; later
passes only time.  With ``--trace 1`` traced and untraced passes alternate,
and the spans of the traced passes are written to FILE at the end.

A graph's time is the time of its program calls.  Before each call the
tracer times a fixed calibration loop.  Times are also reported in reference
seconds: scaled by ``REFERENCE_CALIBRATION_S`` over the pass's mean
calibration time, weighted by call time.  On a shared machine whose speed
drifts by tens of percent over a minute, this ratio stays steady while the
raw seconds do not.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict

AS_CAP_BYTES = 3 << 30
REFERENCE_CALIBRATION_S = 0.015

# per-layer metric -> span name whose total time it reports
SPAN_TIMES = {
    "realize.verify_s": "realize.verify",
    "realize.place_free_s": "realize.place_free",
    "realize.labeling_s": "realize.labeling",
    "realize.curve_to_drawing_s": "realize.curve_to_drawing",
    "three_tree.generate_s": "three_tree.generate",
    "three_tree.decompose_s": "three_tree.decompose",
    "three_tree.bundle_s": "three_tree.bundle",
    "three_tree.dp_s": "three_tree.dp",
    "cubic.generate_s": "cubic.generate",
    "cubic.theorem4_s": "cubic.theorem4",
    "treewidth.grid_model_s": "treewidth.grid_model",
    "treewidth.theorem5_s": "treewidth.theorem5",
    "curves.validate_s": "curves.validate",
    "curves.read_back_s": "curves.read_back",
    "applications.ups_s": "applications.ups",
    "applications.untangle_s": "applications.untangle",
}
COUNTS = ["realize.verify_calls", "realize.verify_edges", "realize.coord_bits",
          "three_tree.nodes", "three_tree.curve_vertices", "cubic.curve_vertices",
          "treewidth.curve_vertices", "curves.read_back_stations",
          "curves.read_back_vertices", "applications.points", "applications.fixed"]
LAYERS = ["bench", "realize", "three_tree", "cubic", "treewidth", "curves",
          "applications"]


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the same kind
    as the program's (rational arithmetic, dicts, sorting); about 0.015 s on
    a 2-core x86 machine at its fast speed.  The cyclic garbage collector is
    off meanwhile: a collection here would scan whatever the program keeps
    alive and measure the program's heap instead of the machine."""
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    rng = random.Random(7)
    acc = Fraction(0)
    for _ in range(800):
        a = Fraction(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 9))
        b = Fraction(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 9))
        acc += a * b - a / b
        if acc.denominator.bit_length() > 400:
            acc = Fraction(acc.numerator % 10 ** 12, 7)
    table = {i: (i * 7) % 13 for i in range(10000)}
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload: str, seed: int):
        import workloads
        self.wl = workloads
        self.jobs = workloads.corpus(workload, seed)
        self.failed = {}
        self.inputs = {}
        for job in self.jobs:
            prepare, _ = workloads.KINDS[job.kind]
            try:
                self.inputs[job.gid] = prepare(job)
            except Exception as exc:       # e.g. MemoryError under the cap
                self._fail(job, exc)
        self.times = {job.gid: [] for job in self.jobs}        # seconds
        self.ref_times = {job.gid: [] for job in self.jobs}    # reference s
        self.calibrations = []
        self.max_bits = 0
        self.bits = self.coords = 0
        self.collinear = 0

    def _fail(self, job, exc) -> None:
        traceback.print_exc(file=sys.stderr)
        self.failed[job.gid] = f"{type(exc).__name__}: {exc}"

    def one_pass(self, tracer, check: bool):
        """Run every graph once; return (seconds, reference seconds)."""
        for job in self.jobs:
            if job.gid in self.failed:
                continue
            _, run = self.wl.KINDS[job.kind]
            tracer.graph = job.gid
            try:
                with tracer.span("bench.graph"):
                    out = run(tracer, job, self.inputs[job.gid])
            except Exception as exc:       # the next graph still runs
                self._fail(job, exc)
                continue
            if check:
                problems = out.problems + self.wl.check_exhaustive(out)
                if problems:
                    print(f"{job.gid}: {problems}", file=sys.stderr)
                    self.failed[job.gid] = "; ".join(problems)
                self.collinear += out.collinear
                for _, d in out.drawings:
                    self.max_bits = max(self.max_bits,
                                        self.wl.checks.coord_bits(d.coords))
                    self.bits += self.wl.checks.total_coord_bits(d.coords)
                    self.coords += 2 * len(d.coords)
            del out
        cals = [c for _, _, c in tracer.calls] + [calibrate()]
        self.calibrations += cals
        # machine speed over the pass: the calibrations around each call,
        # weighted by the call's time
        seconds = [dt for _, dt, _ in tracer.calls]
        weighted = sum(dt * (a + b) / 2 for dt, a, b in zip(seconds, cals, cals[1:]))
        scale = REFERENCE_CALIBRATION_S * sum(seconds) / weighted if weighted else 1.0
        per_graph: Dict[str, float] = {}
        for gid, dt, _ in tracer.calls:
            per_graph[gid] = per_graph.get(gid, 0.0) + dt
        wall = ref = 0.0
        for gid, dt in per_graph.items():
            if gid in self.failed:
                continue
            wall += dt
            ref += dt * scale
            if not tracer.on:
                self.times[gid].append(dt)
                self.ref_times[gid].append(dt * scale)
        return wall, ref


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    sys.path.insert(0, args.src)
    # realize imports numpy and scipy.optimize lazily; load them before timing
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401
    import collinear
    if Path(collinear.__file__).resolve().parent != Path(args.src, "collinear").resolve():
        print(f"error: collinear imported from {collinear.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer

    runner = Runner(args.workload, args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        on = args.trace == 1 and len(untraced) > len(traced)
        tracer = Tracer(on, calibrate)
        t0 = time.perf_counter()
        walls = runner.one_pass(tracer, check=not untraced)
        (traced if on else untraced).append((walls, tracer))
        last = time.perf_counter() - t0
        if args.trace == 1 and not traced:
            continue
        if time.perf_counter() - start + last > args.seconds:
            break

    attempted = len(runner.jobs)
    per_graph = [_median(ts) for ts in runner.times.values() if ts]
    metrics = {
        "wall_ref_s": sum(_median(ts) for ts in runner.ref_times.values() if ts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_coord_bits": runner.bits / max(1, runner.coords),
        "collinear_vertices": runner.collinear,
        "ok_frac": (attempted - len(runner.failed)) / attempted,
    }
    if traced:
        tracers = [t for _, t in traced]
        for key, name in SPAN_TIMES.items():
            metrics[key] = _median([t.time_by_name().get(name, 0.0) for t in tracers])
        for key in COUNTS:
            metrics[key] = tracers[0].counts.get(key, 0)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = _median(
                [t.self_time_by_layer().get(layer, 0.0) for t in tracers])
        metrics["bench.wall_s"] = sum(per_graph)
        metrics["bench.slowest_graph_s"] = max(per_graph, default=0.0)
        metrics["bench.max_coord_bits"] = runner.max_bits
        metrics["bench.calibration_s"] = _median(runner.calibrations)
        metrics["trace.traced_ref_s"] = _median([w[1] for w, _ in traced])
        metrics["trace.untraced_ref_s"] = _median([w[1] for w, _ in untraced])
        metrics["trace.overhead_ref_s"] = (metrics["trace.traced_ref_s"]
                                           - metrics["trace.untraced_ref_s"])
        metrics["trace.spans"] = len(tracers[0].spans)
        Path(args.spans).write_text(json.dumps(
            [{"pass": i, "spans": t.spans} for i, t in enumerate(tracers)]))

    print(json.dumps({
        "attempted": attempted,
        "failed": len(runner.failed),
        "failures": runner.failed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "graph_seconds": runner.times,
        "graph_ref_seconds": runner.ref_times,
        "calibrations_s": runner.calibrations,
        "max_coord_bits": runner.max_bits,
        "metrics": metrics,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
