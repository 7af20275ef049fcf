"""Command-line front end.

Exit codes: 0 on success, 1 when a verification check fails, 2 for
usage or configuration errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import driver
from .config import load_config
from .geometry import (LAMBDA, decompose_matrix, perp,
                       stationary_flow_identity_check)
from .nsf2 import write_vector
from .spectral import Grid


def _base_config(args) -> driver.RunConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = driver.RunConfig()
    updates = {}
    if args.grid is not None:
        updates["grid_n"] = args.grid
    if args.out:
        updates["out_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def _build_through(config: driver.RunConfig, m: int) -> driver.BranchState:
    if m < 1:
        raise ValueError(f"level {m} does not exist; levels start at 1")
    branch = driver.new_branch(config)
    for level in range(1, m + 1):
        driver.run_level(branch, level)
    return branch


def _finish(branch: driver.BranchState, config: driver.RunConfig,
            entries=None) -> int:
    """Write the ledger, print ``entries`` (default: all of it) and exit
    1 if any of them failed."""
    path = os.path.join(config.out_dir, "ledger.json")
    driver.write_ledger(path, branch)
    entries = branch.ledger if entries is None else entries
    for e in entries:
        print(f"{e['status']:11s} {e['name']} ({e['ref']})")
    print(f"ledger written to {path}")
    return 1 if any(e["status"] == "fail" for e in entries) else 0


def cmd_verify_geometry(args) -> int:
    config = _base_config(args)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(1000):
        sym = rng.standard_normal((2, 2))
        sym = 0.5 * (sym + sym.T)
        mat = np.eye(2) + 5e-4 * sym / max(np.abs(sym).max(), 1.0)
        coeffs = decompose_matrix(mat)
        rebuilt = np.zeros((2, 2))
        for pair, a in coeffs.items():
            kb = np.array([float(x) for x in perp(pair)])
            rebuilt += a * a * np.outer(kb, kb)
        worst = max(worst, float(np.abs(rebuilt - mat).max()))
    grid = Grid(128)
    flow_worst = 0.0
    for _ in range(20):
        b = {pair: float(v) for pair, v in
             zip(LAMBDA.pairs, rng.standard_normal(3))}
        rep = stationary_flow_identity_check(grid, b, mu=5)
        flow_worst = max(flow_worst, max(
            rep["div"], rep["gradient"], rep["tensor"]) / rep["scale"])
    ok = worst <= 1e-12 and flow_worst <= 1e-11
    print(f"decomposition residual (1000 draws): {worst:.3e}")
    print(f"stationary-flow identity residual:   {flow_worst:.3e}")
    print("geometry checks", "passed" if ok else "FAILED")
    return 0 if ok else 1


def cmd_build_level(args) -> int:
    config = _base_config(args)
    branch = _build_through(config, args.m)
    state = branch.levels[args.m]
    print(f"level {args.m}: lam={state.lam}, "
          f"sup w_p(0)={state.w_p.at(0.0).sup_norm():.4e}")
    return _finish(branch, config)


def cmd_check_identities(args) -> int:
    """Report the identity checks ``run_level`` recorded for level m."""
    if args.m < 2:
        raise ValueError("the seed level has no construction identities")
    config = _base_config(args)
    branch = _build_through(config, args.m)
    ref = f"level-{args.m}"
    return _finish(branch, config, [
        e for e in branch.ledger
        if e["name"].startswith("identity/") and e["ref"] == ref])


def cmd_build_pair(args) -> int:
    config = _base_config(args)
    if args.levels is not None:
        config = dataclasses.replace(config, levels=args.levels)
    branch = driver.build_solution_pair(config)
    return _finish(branch, config)


def cmd_separation(args) -> int:
    config = _base_config(args)
    branch = driver.build_solution_pair(config)
    report = driver.separation_report(branch)
    for key, val in sorted(report.items()):
        print(f"{key}: {val}")
    return _finish(branch, config)


def cmd_export(args) -> int:
    config = _base_config(args)
    branch = driver.build_solution_pair(config)
    os.makedirs(config.out_dir, exist_ok=True)
    if args.format == "json":
        path = os.path.join(config.out_dir, "export.json")
        driver.write_ledger(path, branch)
    elif args.format == "csv":
        path = os.path.join(config.out_dir, "export.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "ref", "status", "value", "target"])
            for e in branch.ledger:
                writer.writerow([e["name"], e["ref"], e["status"],
                                 json.dumps(e["value"], sort_keys=True),
                                 json.dumps(e["target"], sort_keys=True)])
    else:
        path = os.path.join(config.out_dir, "branches.nsf2")
        grid = branch.grid
        odd0 = branch.partial_sum("odd", 0.0, grid)
        even0 = branch.partial_sum("even", 0.0, grid)
        write_vector(path, odd0, 0.0)
        write_vector(os.path.join(config.out_dir, "branches_even.nsf2"),
                     even0, 0.0)
    print(f"exported to {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="torusns",
        description="Two-branch shear-seeded flows on the periodic plane")
    ap.add_argument("--config", help="INI file with a [run] section")
    ap.add_argument("--grid", type=int,
                    help="spatial grid size (a 5-smooth multiple of 4)")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--seed", type=int, help="random seed")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-geometry",
                   help="direction-set and stationary-flow checks") \
        .set_defaults(func=cmd_verify_geometry)
    p = sub.add_parser("build-level", help="build one iteration level")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_build_level)
    p = sub.add_parser("check-identities",
                       help="algebraic identities of a built level")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_check_identities)
    p = sub.add_parser("build-pair", help="build both solution branches")
    p.add_argument("--levels", type=int)
    p.set_defaults(func=cmd_build_pair)
    sub.add_parser("separation",
                   help="branch distance at the observation time") \
        .set_defaults(func=cmd_separation)
    p = sub.add_parser("export", help="write ledger or fields to disk")
    p.add_argument("--format", choices=("csv", "json", "nsf2"),
                   default="json")
    p.set_defaults(func=cmd_export)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
