"""Seeded benchmark of the curve -> drawing -> verify pipeline.

    python3 perfbench/run.py --workload stacked --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy, and the run fails without it.  The
set-up time is measured first, in fresh interpreters; then the workload runs
in its own process (``worker.py``).  Every metric is printed with its unit,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full run record and,
for traced runs, the spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("stacked", "deep", "cubic_grid", "placement")
SETUP_SAMPLES = 3
SETUP_IMPORTS = "import collinear.cli, numpy, scipy.optimize"
DEADLINE_S = 170            # a run must end within 180 s

END_TO_END = {
    "wall_ref_s": "ref_s", "peak_rss_mb": "MB",
    "mean_coord_bits": "bits", "collinear_vertices": "count", "ok_frac": "ratio",
    "setup_s": "s",
}


def per_layer_units(name: str) -> str:
    for suffix, unit in (("_ref_s", "ref_s"), ("_s", "s"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure_setup() -> list:
    """Wall time of fresh interpreters that import the program and the
    numerical libraries it loads, as every command-line call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "collinear" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'collinear'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = OUT / f"spans-{tag}.json"
    try:
        setup = measure_setup()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: importing the program failed: {exc}", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC), "--spans", str(spans_file)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: the workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = res["metrics"]
    measured["setup_s"] = statistics.median(setup)

    if args.trace:
        names = [k for k in measured if k not in END_TO_END]
        metrics = {k: {"value": measured[k], "unit": per_layer_units(k)} for k in names}
    else:
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "versions": res["versions"],
        "setup_samples_s": setup, "passes": res["passes"],
        "failures": res["failures"], "graph_seconds": res["graph_seconds"],
        "graph_ref_seconds": res["graph_ref_seconds"],
        "calibrations_s": res["calibrations_s"],
        "max_coord_bits": res["max_coord_bits"],
        "metrics": measured,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']}  nproc {record['nproc']}  {res['versions']}")
    for name, failure in res["failures"].items():
        print(f"FAILED {name}: {failure}")
    for k, m in metrics.items():
        print(f"{k:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
