"""Orchestration of the alternating two-branch iteration.

Levels are built bottom-up: odd levels carry the decaying shear seed,
even levels superpose the high-frequency perturbation, its
low-frequency cancellation flow, and the linear part of the forced
corrector, the exact heat-Duhamel integral of the forcing from zero
data; the corrector's nonlinear remainder is not solved, and the ledger
says so.  The odd partial sums form one
solution branch and the even partial sums another; both start from the
same initial velocity up to the single unmatched tail term, yet their
values at the observation time t* = lam_1^{-2} differ by a fixed
fraction of the seed's negative-order Besov size.  Everything measured
lands in a deterministic JSON ledger.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from . import construction as cons
from .geometry import LAMBDA
from .nsf2 import atomic_write
from .profile import build_cutoffs
from .schedule import ParamSchedule, toy_schedule
from .spaces import besov_norm, chemin_lerner_norm
from .spectral import Grid, VectorField, mode_modulus

LEDGER_VERSION = 1
#: largest residual an identity check of a built level may leave
IDENTITY_TOL = 1e-8


@dataclass
class RunConfig:
    """Everything a full run depends on.

    ``lams`` is the frequency schedule, one entry per level and at least
    ``levels`` entries, with ``mu = n_lambda`` at every level as in
    ``schedule.toy_schedule``; the default is the toy schedule, as the
    paper's double-exponential one is out of numerical reach.
    ``schedule()`` checks it.  The corrector's window is not a setting:
    it ends at 3 lam_1^{-2}.
    """

    lams: tuple[int, ...] = toy_schedule().lams
    levels: int = 2
    grid_n: int = 1024
    profile_band: int = 8
    out_dir: str = "out"
    seed: int = 0

    def schedule(self) -> ParamSchedule:
        if self.levels < 1:
            raise ValueError(f"levels={self.levels} must be at least 1")
        if self.levels > len(self.lams):
            raise ValueError(
                f"levels={self.levels} exceeds the schedule's length "
                f"{len(self.lams)} (lams={self.lams})")
        return ParamSchedule(tuple(self.lams),
                             (LAMBDA.n_lambda,) * len(self.lams))


@dataclass
class BranchState:
    """Both partial-sum branches plus the per-level artifacts."""

    config: RunConfig
    schedule: ParamSchedule
    grid: Grid
    levels: dict = dc_field(default_factory=dict)
    ledger: list = dc_field(default_factory=list)

    def record(self, name: str, ref: str, value, target, status: str) -> None:
        self.ledger.append({
            "name": name, "ref": ref, "value": _jsonable(value),
            "target": _jsonable(target), "status": status,
        })

    # -- branch evaluation -------------------------------------------------
    def partial_sum(self, parity: str, t: float, grid: Grid) -> VectorField:
        """u at time t for the odd or even branch on ``grid``."""
        want = 1 if parity == "odd" else 0
        out = VectorField.zero(grid)
        for m, state in self.levels.items():
            if m % 2 == want:
                w_p, *rest = state.parts(t, grid).values()
                out = out + sum(rest, w_p)
        return out


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _series_l1_c0(series) -> float:
    """Bound for the time-integrated sup norm of an exponential series."""
    out = 0.0
    for r, f in series.terms.items():
        out += f.sup_norm() / max(r, 1e-300)
    return out


def new_branch(config: RunConfig) -> BranchState:
    sched = config.schedule()
    return BranchState(config=config, schedule=sched, grid=Grid(config.grid_n))


def run_level(branch: BranchState, m: int) -> "cons.LevelState":
    """Build level m, verify its identities and measure the corrector's
    linear part over its window; its nonlinear remainder is not solved."""
    grid = branch.grid
    sched = branch.schedule
    if m == 1:
        state = cons.seed_level(grid, sched)
        branch.record("seed-shear", "level-1", float(state.lam), None, "pass")
    else:
        prev = branch.levels.get(m - 1)
        if prev is None:
            raise ValueError(f"level {m - 1} must be built before level {m}")
        state = cons.EvenLevelBuilder(
            grid, sched, m, prev,
            profile_band=branch.config.profile_band).build()
        checks = {
            "divergence-free": cons.check_divergence(state.w_p),
            "main-plus-remainder": cons.check_split(state),
            "cancellation-flow-two-forms": cons.check_ws_forms(state),
            "initial-data-match": cons.check_initial_match(state, prev),
            "lift-divergence": cons.check_lift(state),
        }
        contract = cons.pressure_contract_residual(state, grid)
        checks["pressure-absorption"] = max(contract.values())
        failed = {k: v for k, v in checks.items() if v > IDENTITY_TOL}
        for k, v in checks.items():
            branch.record(f"identity/{k}", f"level-{m}", v, IDENTITY_TOL,
                          "pass" if v <= IDENTITY_TOL else "fail")
        if failed:
            raise RuntimeError(
                f"level {m} identity checks failed: "
                + ", ".join(f"{k}={v:.3e}" for k, v in failed.items()))

        fractions = build_cutoffs(sched, m // 2).area_fractions()
        branch.record("cutoff/area-fraction", f"level-{m}",
                      fractions["fattened"], fractions["bound"],
                      "pass" if fractions["within_bound"] else "fail")
        _corrector_reports(branch, state, m)
    branch.levels[m] = state
    _level_norm_reports(branch, state)
    return state


def _corrector_reports(branch: BranchState, state, m: int) -> None:
    """Ledger entries for the corrector of level m over its window."""
    grid = branch.grid
    sched = branch.schedule
    t_end = 3.0 / sched.lam(1) ** 2
    # no step of the nonlinear corrector is taken: at desk scale it is a
    # strongly nonlinear flow that no affordable grid resolves, so the
    # window stays uncovered and the entry fails
    branch.record("corrector/window", f"level-{m}",
                  {"solved": "none", "reached_t": 0.0, "t_end": t_end,
                   "covered": 0.0}, None, "fail")
    times, norm = leading_corrector_norm(state, grid, t_end)
    state.diagnostics["corrector_norm"] = norm
    state.diagnostics["corrector_times"] = times
    state.diagnostics["corrector_measured"] = {
        "part": "linear-duhamel", "window": [0.0, t_end],
        "samples": len(times)}
    branch.record("corrector/smallness", f"level-{m}",
                  {"norm": norm, **state.diagnostics["corrector_measured"]},
                  float(sched.lam(m - 1)) ** -10, "report-only")


def corrector_window_times(lam: float, t_end: float) -> list:
    """t = 0 plus 16 geometric times from lam^{-2}/16 to t_end.

    The corrector's forcing lives on the time scale lam^{-2} of the level
    and its heat tail on the scale of the window, so geometric spacing
    resolves both with a handful of samples.
    """
    first = 1.0 / (16.0 * float(lam) ** 2)
    return [0.0] + [float(t) for t in np.geomspace(first, t_end, 16)]


def leading_corrector_norm(state, grid: Grid, t_end: float):
    """Whole-window norm of the corrector's leading (linear) part.

    The heat-dominated leading term of the corrector is the Duhamel integral
    -int_0^t e^{(t-s) Delta} P (F1 + F2)(s) ds, evaluated exactly at the
    samples of :func:`corrector_window_times` (``LevelState.w_L``).
    Returns the samples and the L~^inf_t B^{-1/2}_{inf,1} norm over
    [0, t_end].
    """
    times = corrector_window_times(state.lam, t_end)
    norm = chemin_lerner_norm(
        times, state.w_L(times, grid),
        -0.5, np.inf, 1.0, np.inf)
    return times, norm


def _sampled_sup(fields) -> dict:
    """The sum of the fields' sups, sampled on their 3/2 grids, and what
    brackets it: the sides of those grids and the sum of |c(xi)|_2, which
    bounds it from above."""
    fields = list(fields)
    return {"measured": sum(f.sup_norm() for f in fields),
            "sampled_on": sorted({(3 * f.grid.n) // 2 for f in fields}),
            "l1_bound": sum(float(mode_modulus(f).sum()) for f in fields)}


def _level_norm_reports(branch: BranchState, state) -> None:
    """Measured-vs-shape entries for every inductive estimate family; each
    sup over t >= 0 is bounded by the triangle inequality at t = 0."""
    m = state.m
    lam = float(state.lam)
    c34 = state.C0 ** 0.75
    wp, ws = (_sampled_sup(s.terms.values() if s else ())
              for s in (state.w_p, state.w_s))
    both = {k: wp[k] + ws[k] for k in wp}
    both["sampled_on"] = sorted(set(both["sampled_on"]))
    entries = [
        ("inductive/velocity-sup", both, state.C0 * lam),
        ("inductive/perturbation-sup", wp, c34 * lam),
        ("inductive/perturbation-l1t",
         {"measured": _series_l1_c0(state.w_p)}, c34 / lam),
        ("inductive/lift-sup", _sampled_sup(state.R_wp.terms.values()), c34),
        ("inductive/perturbation-l2l2",
         {"measured": math.sqrt(sum(f.l2_norm() ** 2 / max(2.0 * r, 1e-300)
                                    for r, f in state.w_p.terms.items()))},
         c34 * 2.0 ** (-m / 2.0)),
    ]
    if state.w_s is not None:
        lam_prev = float(branch.schedule.lam(m - 1))
        entries.append(("inductive/cancellation-sup", ws, c34 * lam_prev))
    for name, report, target in entries:
        ratio = report["measured"] / target if target else None
        branch.record(name, f"level-{m}", {**report, "ratio": ratio},
                      target, "report-only")
    if "corrector_norm" in state.diagnostics:
        target = float(branch.schedule.lam(m - 1)) ** -10
        norm = state.diagnostics["corrector_norm"]
        branch.record("inductive/corrector-norm", f"level-{m}",
                      {"measured": norm, "ratio": norm / target,
                       **state.diagnostics["corrector_measured"]},
                      target, "report-only")
    branch.record("besov/initial-sup", f"level-{m}",
                  _sampled_sup([state.w_p.at(0.0)]), None, "report-only")


def build_levels(config: RunConfig, m: int) -> BranchState:
    """A new branch with levels 1..m built, in order, by ``run_level``."""
    branch = new_branch(config)
    if m < 1:
        raise ValueError(f"level {m} does not exist; levels start at 1")
    for level in range(1, m + 1):
        run_level(branch, level)
    return branch


def build_solution_pair(config: RunConfig) -> BranchState:
    """Build all levels through config.levels and verify branch algebra."""
    branch = build_levels(config, config.levels)
    tail = config.levels
    # initial-data telescoping: the branch gap at t=0 is the single
    # unmatched high-frequency tail term
    g = branch.grid
    gap0 = branch.partial_sum("odd", 0.0, g) - branch.partial_sum(
        "even", 0.0, g)
    sign = -1.0 if tail % 2 == 0 else 1.0
    tail_term = branch.levels[tail].w_p.at(0.0).regrid(g)
    resid = (gap0 - sign * tail_term).sup_norm()
    scale = max(tail_term.sup_norm(), 1e-300)
    branch.record("branches/initial-telescoping", f"levels-1..{tail}",
                  resid / scale, 1e-11,
                  "pass" if resid / scale <= 1e-11 else "fail")
    return branch


def separation_report(branch: BranchState) -> dict:
    """Branch distance at t* = lam_1^{-2} against the seed's Besov size.

    The gap odd - even is summed from the levels' computed parts
    (``LevelState.parts``), so the corrector enters through its linear
    part w_L alone (``"part": "linear-duhamel"``).  ``parts`` holds each
    part's B^{-1}_{inf,inf} norm at t* over M0: ``seed`` for level 1, and
    ``w_p(m)``, ``w_s(m)``, ``w_L(m)`` for level m.  The ratio is
    assertable only when level 2 was built and its decay e^{-lam_2^2 t*}
    is below 1e-6; otherwise the entry is report-only.
    """
    lam1 = float(branch.schedule.lam(1))
    lam2 = float(branch.levels[2].lam) if 2 in branch.levels else lam1
    t_star = 1.0 / lam1 ** 2
    grid = branch.grid
    seed = branch.levels[1]
    m0 = math.exp(-1.0) * besov_norm(
        seed.w_p.at(0.0), -1.0, np.inf, np.inf)
    gap = VectorField.zero(grid)
    sizes = {}
    for m, state in branch.levels.items():
        sign = 1.0 if m % 2 else -1.0
        for name, part in state.parts(t_star, grid).items():
            gap = gap + sign * part
            key = "seed" if m == 1 else f"{name}({m})"
            sizes[key] = besov_norm(part, -1.0, np.inf, np.inf) / m0
    gap_norm = besov_norm(gap, -1.0, np.inf, np.inf)
    decay = math.exp(-lam2 ** 2 * t_star)
    assertable = decay < 1e-6
    ratio = gap_norm / m0 if m0 > 0 else float("inf")
    report = {
        "M0": m0, "gap_norm": gap_norm, "ratio": ratio,
        "t_star": t_star, "fast_branch_decay": decay,
        "assertable": assertable, "part": "linear-duhamel", "parts": sizes,
        "status": "pass" if (not assertable or ratio >= 0.5) else "fail",
    }
    branch.record("separation/gap-ratio", "branches", report, 0.5,
                  report["status"] if assertable else "report-only")
    return report


# ---------------------------------------------------------------------------
# ledger persistence
# ---------------------------------------------------------------------------

def ledger_payload(branch: BranchState) -> dict:
    return {
        "version": LEDGER_VERSION,
        "config": _jsonable(asdict(branch.config)),
        "schedule": {"lams": list(branch.schedule.lams),
                     "mus": list(branch.schedule.mus)},
        "entries": branch.ledger,
    }


def write_ledger(path: str, branch: BranchState) -> None:
    """Deterministic, atomic JSON dump (full-precision floats)."""
    atomic_write(path, json.dumps(ledger_payload(branch), sort_keys=True,
                                  indent=1).encode())
