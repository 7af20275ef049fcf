"""Full-size level-2 build with per-phase timings and identity checks.

Runs the perturbation construction at n=2048 with the complete
concentration-profile band, prints every identity residual and the
pressure-absorption contract, and reports wall time plus peak memory.
Each timed phase prints its time and the process's peak RSS
(``ru_maxrss``) so far.  It also prints the grid each series stores each
rate on, the grid the pressure contract runs on, and one sha256 over
every stored term of the level, so two runs show whether the builds are
bit-identical.
"""

import argparse
import hashlib
import resource
import time

import numpy as np

from torusns import construction as cons
from torusns.schedule import toy_schedule
from torusns.spectral import Grid


def series_digest(state) -> str:
    """sha256 over every stored term of w_p, w_s, F1, P1, F2 and R_wp, in
    rate order: its series, rate, grid, band and coefficient bytes."""
    h = hashlib.sha256()
    for name in ("w_p", "w_s", "F1", "P1", "F2", "R_wp"):
        for r, f in sorted(getattr(state, name).terms.items()):
            h.update(repr((name, r, f.grid.n, f.band)).encode())
            h.update(np.ascontiguousarray(f.coef).tobytes())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=2048)
    ap.add_argument("--band", type=int, default=62)
    args = ap.parse_args()

    grid = Grid(args.grid)
    sched = toy_schedule()
    t0 = time.perf_counter()
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed,
                                    profile_band=args.band)

    marks = [t0]

    def peak_gb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6

    def report(seconds, label):
        print(f"[{seconds:7.1f}s {peak_gb():6.2f} GB] {label}", flush=True)

    def mark(label):
        marks.append(time.perf_counter())
        report(marks[-1] - marks[-2], label)

    for name in ("_assemble_wp", "_assemble_ws", "_assemble_f1",
                 "_assemble_f2"):
        orig = getattr(cons.EvenLevelBuilder, name)

        def timed(self, *a, _orig=orig, _name=name, **kw):
            s = time.perf_counter()
            out = _orig(self, *a, **kw)
            report(time.perf_counter() - s, _name)
            return out

        setattr(cons.EvenLevelBuilder, name, timed)

    state = builder.build()
    mark("build total")

    checks = [
        ("div w_p", cons.check_divergence(state.w_p)),
        ("split", cons.check_split(state)),
        ("ws forms", cons.check_ws_forms(state)),
        ("init match", cons.check_initial_match(state, seed)),
        ("lift", cons.check_lift(state)),
    ]
    for label, val in checks:
        print(f"{label:11s}: {val:.3e}", flush=True)
    mark("identity checks")

    for name in ("w_p", "w_s", "F1", "P1", "F2"):
        terms = sorted(getattr(state, name).terms.items())
        print(f"{name} grids: " + ", ".join(
            f"{r:g}: {f.grid.n}" for r, f in terms), flush=True)
    print(f"contract grid: {cons.contract_grid(state, grid).n}", flush=True)
    contract = cons.pressure_contract_residual(state, grid)
    for t, v in contract.items():
        print(f"contract t={t:g}: {v:.3e}", flush=True)
    mark("pressure contract")

    print(f"sup w_p(0) = {state.w_p.at(0.0).sup_norm():.6e}")
    print(f"F1 rates: {sorted(state.F1.terms)}")
    print(f"P1 rates: {sorted(state.P1.terms)}")
    print(f"F2 rates: {sorted(state.F2.terms)}")
    print(f"series sha256: {series_digest(state)}")
    print(f"total {time.perf_counter() - t0:.1f}s, "
          f"peak RSS {peak_gb():.2f} GB")


if __name__ == "__main__":
    main()
