#!/usr/bin/env python3
"""Run one benchmark workload of torusns and print its metrics.

    python3 benchmark/run.py --workload pair --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the program is imported from
``src``).  The run repeats whole rounds of the workload's program calls
until ``--seconds`` have passed and it has made at least three rounds.
Each round is timed alone and then verified by the workload's checks,
outside the timed section.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics.  ``wall_s`` is the median round
  time, ``peak_rss_mb`` the process's high-water resident set and
  ``setup_s`` the median, over five fresh processes, of the time from
  process start to the end of input generation.
* ``--trace 1``: the per-layer metrics.  An untimed warm-up round comes
  first, then rounds alternate traced and untraced; each figure is the
  median over the traced rounds, and the spans are written to
  ``benchmark/out``.

The workload names and the metric names and units are read from
``BENCHMARK.json`` at the root of the tree.
"""

from __future__ import annotations

import os

# numpy's transforms are single-threaded; keep any BLAS pool at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: the workloads and metric names and units; printed metrics follow it
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

MIN_ROUNDS = 3
SETUP_SAMPLES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def _import_workloads():
    """Import the workloads, and the program from the checkout's ``src``."""
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(src, "torusns")):
        raise SystemExit(f"no program source under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def measure_setup(args) -> float:
    """Median time for a fresh process to import and generate the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {code})")
        samples.append(t1 - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = _import_workloads()
    os.makedirs(OUT_DIR, exist_ok=True)
    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed, OUT_DIR)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    from spans import Tracer, layer_metrics, max_rss_mb

    walls, traced, ops = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        # traced runs begin with an untimed warm-up round, then alternate
        # traced and untraced rounds, so both medians are of warm rounds
        if args.trace and rounds % 2 == 1:
            with Tracer() as tracer:
                outputs = run(inputs)
            traced.append(tracer)
        else:
            t0 = time.perf_counter()
            outputs = run(inputs)
            if not args.trace or rounds > 0:
                walls.append(time.perf_counter() - t0)
        ops.extend(check(inputs, outputs))
        outputs = None
        rounds += 1
    peak_mb = max_rss_mb()

    failed = [name for name, ok in ops if not ok]
    correct = all(name in workloads.KNOWN_FAULTS for name in failed)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"operations attempted {len(ops)}, failed {len(failed)}")
    for name in sorted(set(failed)):
        print(f"  failed: {name} (x{failed.count(name)})")

    if args.trace:
        per_round = [layer_metrics(t.spans) for t in traced]
        values = {name: statistics.median(r[name] for r in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = (
            statistics.median(t.wall_s for t in traced)
            - statistics.median(walls))
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump([t.spans for t in traced], fh)
    else:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_mb,
                  "setup_s": measure_setup(args)}
    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
