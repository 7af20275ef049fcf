#!/usr/bin/env python3
"""Build both solution branches, run the separation experiment, and
write the run ledger.

Exits 1 when any ledger entry fails. With two or more levels the
``corrector/window`` entry does: the corrector's nonlinear remainder is
not solved (``"solved": "none"``, covered 0), and the branches carry its
linear part, the exact heat-Duhamel integral of the forcing, alone.

It prints the wall time of the build and the separation report, and
the process's own peak RSS (``ru_maxrss``), so no outside timer is
needed.

Example:
    python scripts/run_pair.py --grid 1024 --band 8 --out out/pair
"""

import argparse
import dataclasses
import os
import resource
import time

from torusns import driver


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=1024,
                    help="product grid size (a 5-smooth multiple of 4)")
    ap.add_argument("--band", type=int, default=8,
                    help="concentration profile band budget")
    ap.add_argument("--levels", type=int, default=2)
    ap.add_argument("--out", default="out/pair")
    args = ap.parse_args()

    cfg = driver.RunConfig(levels=args.levels, grid_n=args.grid,
                           profile_band=args.band, out_dir=args.out)
    t0 = time.perf_counter()
    branch = driver.build_solution_pair(cfg)
    report = driver.separation_report(branch)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "ledger.json")
    driver.write_ledger(path, branch)

    print(f"config: {dataclasses.asdict(cfg)}")
    for entry in branch.ledger:
        print(f"  [{entry['status']:>11s}] {entry['name']}")
    print(f"separation: gap/M0 = {report['ratio']:.4f} "
          f"(M0 = {report['M0']:.6e}, t* = {report['t_star']:.3e}, "
          f"assertable = {report['assertable']})")
    print("parts at t* over M0: " + ", ".join(
        f"{k} {v:.4g}" for k, v in report["parts"].items()))
    # this process's own high-water mark (ru_maxrss is in KiB on Linux)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ledger written to {path}; total {elapsed:.1f}s, "
          f"peak RSS {peak:.0f} MB")
    return 0 if all(e["status"] != "fail" for e in branch.ledger) else 1


if __name__ == "__main__":
    raise SystemExit(main())
