"""The benchmark's four workloads: pair, level, march and norms.

Each workload has ``prepare(seed, out_dir)``, which generates its inputs
(the set-up), ``run(inputs)``, which makes the program calls of one
timed round and returns their outputs, and ``check(inputs, outputs)``,
which verifies those outputs apart from the program and returns one
``(operation name, passed)`` pair per verified result.  Every round of a
workload verifies the same operations, so the failed share of a run does
not depend on how many rounds it made.

Sizes are chosen so that one round takes seconds on a 2-vCPU machine,
see README.md.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from torusns import construction as cons
from torusns import driver, nsf2, spaces
from torusns import solver as slv
from torusns.profile import build_cutoffs
from torusns.schedule import ParamSchedule
from torusns.spectral import Grid, SpectralField, VectorField
from torusns.timefield import ExpSeries

import spectral_ref as ref

#: the smallest two-level schedule whose level-2 products fit grid 256
LAMS = (5, 10)
MUS = (5, 5)
IDENTITY_TOL = 1e-8          # criterion 5's tolerance
TELESCOPING_TOL = 1e-11      # the ledger's initial-telescoping tolerance
REAL_TOL = 1e-12
DIVERGENCE_TOL = 1e-12


#: the program's source tree; the pair ledger's reference digest is kept
#: per digest of this tree and of this file, so a change to either
#: starts a new reference
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def source_digest() -> str:
    """sha256 over the paths and bytes of the program's Python sources."""
    files = [os.path.abspath(__file__)]
    for root, dirs, names in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files += [os.path.join(root, f) for f in sorted(names)
                  if f.endswith(".py")]
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _relative(resid: list, scale: list) -> float:
    return max(ref.l1(c) for c in resid) / max(
        max(ref.l1(c) for c in scale), 1e-300)


# ---------------------------------------------------------------------------
# pair: the two-branch run end to end
# ---------------------------------------------------------------------------

@dataclass
class PairConfig(driver.RunConfig):
    """A RunConfig whose schedule is given by ``lams`` and ``mus``.

    The acceptance schedule (lam_2 = 125) needs grid 1024 and 150 s a
    run; (5, 10) runs the same pipeline on grid 256.  The two fields are
    dataclass fields, so the ledger's config records them.
    """

    lams: tuple = LAMS
    mus: tuple = MUS

    def schedule(self) -> ParamSchedule:
        return ParamSchedule(tuple(self.lams), tuple(self.mus))


def pair_prepare(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    # the program writes nothing to config.out_dir; a fixed value keeps
    # the ledger's bytes independent of the working directory
    config = PairConfig(levels=2, grid_n=256, profile_band=8,
                        out_dir="benchmark/out")
    # one time inside the corrector window for the Duhamel check,
    # log-uniform between the level's time scale and the window's end
    lam2 = float(LAMS[1])
    t_end = 3.0 / float(LAMS[0]) ** 2
    t = float(np.exp(rng.uniform(math.log(1.0 / (16.0 * lam2 ** 2)),
                                 math.log(t_end))))
    return {"config": config, "out_dir": out_dir, "duhamel_t": t}


def pair_run(inputs: dict) -> dict:
    out_dir = inputs["out_dir"]
    branch = driver.build_solution_pair(inputs["config"])
    driver.separation_report(branch)
    ledger = os.path.join(out_dir, "pair-ledger.json")
    driver.write_ledger(ledger, branch)
    read = {}
    for parity in ("odd", "even"):
        path = os.path.join(out_dir, f"pair-{parity}.nsf2")
        nsf2.write_vector(path, branch.partial_sum(parity, 0.0, branch.grid),
                          0.0)
        read[parity] = nsf2.read_vector(path)
    return {"branch": branch, "ledger": ledger, "read": read}


def _check_determinism(inputs: dict, ledger_path: str) -> bool:
    """The ledger bytes are those of the first round and of the first run.

    Within a process every round is compared with round 0.  Across
    processes the first run on a source tree stores its ledger's digest
    under the tree's digest; every later run on the same tree must
    reproduce it, and a changed tree starts a new reference.
    """
    with open(ledger_path, "rb") as fh:
        data = fh.read()
    first = inputs.setdefault("ledger_bytes", data)
    if "ledger_ref" not in inputs:
        ref_path = os.path.join(
            inputs["out_dir"], f"pair-ledger-{source_digest()[:16]}.sha256")
        if not os.path.exists(ref_path):
            _atomic_write(ref_path, hashlib.sha256(data).hexdigest().encode())
        with open(ref_path) as fh:
            inputs["ledger_ref"] = fh.read().strip()
    return data == first \
        and hashlib.sha256(data).hexdigest() == inputs["ledger_ref"]


def _duhamel_checks(state, grid: Grid, t: float) -> list:
    """D = heat_duhamel(F1 + F2) satisfies D' = Delta D - P F at t.

    D' is the centred difference of two more heat_duhamel values at
    t +- h.  With h = 1e-5 t <= 1.2e-6 and every rate r of F below 500,
    the truncation error (h r)^2 / 6 stays below 6e-8 of each term and
    rounding below 1e-10; the residuals measured over the window are
    1.6e-11 to 1.0e-9, against the tolerance 1e-7.
    """
    forcing = state.F1 + state.F2
    n = grid.n
    h = 1e-5 * t
    d_minus, d_mid, d_plus = (
        [f.u1.coef, f.u2.coef]
        for f in (slv.heat_duhamel(forcing, s, grid)
                  for s in (t - h, t, t + h)))
    pf = ref.leray(*ref.series_at(forcing, t, n))
    lhs = [(p - m) / (2.0 * h) for p, m in zip(d_plus, d_minus)]
    rhs = [ref.laplacian(d) - p for d, p in zip(d_mid, pf)]
    resid = [a - b for a, b in zip(lhs, rhs)]
    eq = _relative(resid, rhs + list(pf))
    div = _divergence_defect(*d_mid)
    # late in the window D is small against the forcing it integrates,
    # so its rounding-level divergence is larger than that of w_p(0)
    return [("pair/duhamel-equation", eq <= 1e-7),
            ("pair/duhamel-divergence", div <= 1e-11)]


def _divergence_defect(c1, c2) -> float:
    """max |k . c| relative to max |k| |c|."""
    k1, k2, ksq = ref.wavenumbers(c1.shape[0])
    scale = np.sqrt(ksq) * np.maximum(np.abs(c1), np.abs(c2))
    return float(np.abs(k1 * c1 + k2 * c2).max()
                 / max(scale.max(), 1e-300))


def pair_check(inputs: dict, outputs: dict) -> list:
    branch = outputs["branch"]
    ops = [(f"ledger {e['name']} {e['ref']}", e["status"] == "pass")
           for e in branch.ledger if e["status"] in ("pass", "fail")]
    ops.append(("pair/ledger-deterministic",
                _check_determinism(inputs, outputs["ledger"])))

    # odd(0) - even(0) = -w_p^(2)(0), from the files read back
    (odd, t_odd), (even, t_even) = (outputs["read"]["odd"],
                                    outputs["read"]["even"])
    n = odd.grid.n
    state = branch.levels[2]
    wp0 = ref.series_at(state.w_p, 0.0, n)
    gap = [o - e + w for o, e, w in
           zip((odd.u1.coef, odd.u2.coef), (even.u1.coef, even.u2.coef), wp0)]
    ops.append(("pair/nsf2-telescoping",
                t_odd == 0.0 and t_even == 0.0
                and _relative(gap, wp0) <= TELESCOPING_TOL))
    ops.append(("pair/wp0-divergence",
                _divergence_defect(*wp0) <= DIVERGENCE_TOL))
    ops.extend(_duhamel_checks(state, branch.grid, inputs["duhamel_t"]))
    return ops


# ---------------------------------------------------------------------------
# level: one even level, construction only
# ---------------------------------------------------------------------------

LEVEL_GRID = 512
LEVEL_BAND = 16


def level_prepare(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    lam2 = float(LAMS[1])
    # two sample times within the level's decay time lam_2^{-2}
    times = sorted(float(t) for t in rng.uniform(0.0, 1.0 / lam2 ** 2, 2))
    return {"schedule": ParamSchedule(LAMS, MUS), "times": times}


def level_run(inputs: dict) -> dict:
    sched = inputs["schedule"]
    grid = Grid(LEVEL_GRID)
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed,
                                    profile_band=LEVEL_BAND)
    state = builder.build(with_forcing=False)
    builder.assemble_forcing(state)
    checks = {
        "check_divergence": cons.check_divergence(state.w_p),
        "check_split": cons.check_split(state),
        "check_ws_forms": cons.check_ws_forms(state),
        "check_initial_match": cons.check_initial_match(state, seed),
        "check_lift": cons.check_lift(state),
    }
    contract = cons.pressure_contract_residual(state, grid)
    fractions = build_cutoffs(sched, 1).area_fractions()
    return {"state": state, "grid": grid, "checks": checks,
            "contract": contract, "fractions": fractions}


def _contract_residual(state, n: int, t: float) -> float:
    """div(w_p (x) w_p) + d_t w_s - F1 - grad P1 at t, own arithmetic."""
    w = ref.series_at(state.w_p, t, n)
    quad = [0.5 * c for c in ref.flux_divergence(w[0], w[1], w[0], w[1])]
    ws_dt = ref.series_at(state.w_s, t, n, deriv=1)
    f1 = ref.series_at(state.F1, t, n)
    gp = ref.gradient(ref.series_at(state.P1, t, n)[0])
    resid = [q + s - f - g for q, s, f, g in zip(quad, ws_dt, f1, gp)]
    scale = max(max(ref.l1(c) for c in x) for x in (quad, f1, gp))
    return max(ref.l1(c) for c in resid) / max(scale, 1e-300)


def level_check(inputs: dict, outputs: dict) -> list:
    state = outputs["state"]
    ops = [(f"level/{k}", v <= IDENTITY_TOL)
           for k, v in outputs["checks"].items()]
    ops.append(("level/pressure_contract_residual",
                max(outputs["contract"].values()) <= IDENTITY_TOL))
    ops.append(("level/area_fractions",
                bool(outputs["fractions"]["within_bound"])))
    n = outputs["grid"].n
    for i, t in enumerate(inputs["times"]):
        ops.append((f"level/contract-sample-{i}",
                    _contract_residual(state, n, t) <= IDENTITY_TOL))
    for name in ("w_p", "w_s", "F1", "F2", "P1"):
        series = getattr(state, name)
        m = max(f.grid.n for f in series.terms.values())
        share = max(ref.imaginary_share(c)
                    for c in ref.series_at(series, 0.0, m))
        ops.append((f"level/real-{name}", share <= REAL_TOL))
    return ops


# ---------------------------------------------------------------------------
# march: the forced solver on a manufactured exact solution
# ---------------------------------------------------------------------------

MARCH_GRID = 64
MARCH_BAND = 12
MARCH_FIELDS = 3
MARCH_STEPS = 200
MARCH_DT = 5e-4
#: the fourth-order scheme's relative error at this dt is 2.0e-8 to
#: 2.1e-8 over seeds; scaling the forcing by 1 + 1e-6 moves it to 1e-6
MARCH_TOL = 2e-7


def march_prepare(seed: int, out_dir: str, n: int = MARCH_GRID,
                  band: int = MARCH_BAND) -> dict:
    """u*(t) = sum_j e^{-rho_j t} V_j and the forcing that makes it exact.

    The solver advances w' = Delta w - P div(w (x) w) - P F, so
    F = sum_j e^{-rho_j t} (rho_j + Delta) V_j
        - sum_{i<=j} e^{-(rho_i + rho_j) t} div(V_i (x) V_j + V_j (x) V_i) c_ij
    with c_ii = 1/2; the products are formed by ``spectral_ref``.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    rhos = [float(r) for r in rng.uniform(1.0, 5.0, MARCH_FIELDS)]
    vs = [ref.random_solenoidal(rng, n, band)
          for _ in range(MARCH_FIELDS)]

    def field(c1, c2):
        return VectorField(SpectralField(grid, c1), SpectralField(grid, c2))

    terms = {}
    for rho, (v1, v2) in zip(rhos, vs):
        terms[rho] = field(rho * v1 + ref.laplacian(v1),
                           rho * v2 + ref.laplacian(v2))
    for i in range(MARCH_FIELDS):
        for j in range(i, MARCH_FIELDS):
            d1, d2 = ref.flux_divergence(*vs[i], *vs[j])
            w = 0.5 if i == j else 1.0
            terms[rhos[i] + rhos[j]] = field(-w * d1, -w * d2)
    u0 = field(sum(v[0] for v in vs), sum(v[1] for v in vs))
    return {"grid": grid, "rhos": rhos, "vs": vs, "u0": u0,
            "forcing": ExpSeries(terms)}


def march_run(inputs: dict) -> dict:
    series = inputs["forcing"]
    cfg = slv.SolverConfig(dt=MARCH_DT, t_end=MARCH_STEPS * MARCH_DT,
                           store_every=MARCH_STEPS)
    traj = slv.solve_forced_ns(inputs["grid"], cfg,
                               forcing=lambda t: series.at(t),
                               u0=inputs["u0"], tag="manufactured")
    return {"traj": traj}


def march_check(inputs: dict, outputs: dict) -> list:
    traj = outputs["traj"]
    t_end = MARCH_STEPS * MARCH_DT
    done = traj.status == "completed" \
        and len(traj.step_times) - 1 == MARCH_STEPS
    exact = [sum(math.exp(-r * t_end) * v[c]
                 for r, v in zip(inputs["rhos"], inputs["vs"]))
             for c in (0, 1)]
    final = traj.states[-1]
    err = [final.u1.coef - exact[0], final.u2.coef - exact[1]]
    return [("march/completed", done),
            ("march/final-state", _relative(err, exact) <= MARCH_TOL)]


# ---------------------------------------------------------------------------
# norms: the Littlewood-Paley norms of the corrector's leading part
# ---------------------------------------------------------------------------

NORMS_GRID = 512
#: bands of the random forcing fields; each field decays at a rate near
#: band^2, so heat_duhamel meets modes near resonance
NORMS_BANDS = (4, 16, 64)
NORMS_LAM = 64.0
NORMS_SAMPLES = 8
NORMS_TOL = 1e-10


def norms_prepare(seed: int, out_dir: str) -> dict:
    """A seeded forcing series and the sample times of its Duhamel norm.

    The times are t = 0 and geometric times from lam^{-2}/16 to
    3 (lam/8)^{-2}, the spacing of the program's corrector window.
    """
    rng = np.random.default_rng(seed)
    n = NORMS_GRID
    grid = Grid(n)
    terms = {}
    for band in NORMS_BANDS:
        rate = float(band * band * rng.uniform(0.5, 2.0))
        terms[rate] = ref.random_solenoidal(rng, n, band)
    series = ExpSeries({r: VectorField(SpectralField(grid, c1),
                                       SpectralField(grid, c2))
                        for r, (c1, c2) in terms.items()})
    first = 1.0 / (16.0 * NORMS_LAM ** 2)
    last = 3.0 / (NORMS_LAM / 8.0) ** 2
    times = [0.0] + [float(t) for t in
                     np.geomspace(first, last, NORMS_SAMPLES - 1)]
    return {"grid": grid, "terms": terms, "series": series, "times": times}


def norms_run(inputs: dict) -> dict:
    """L~^inf_t B^{-1/2}_{inf,1} of the Duhamel samples, as the driver's
    leading_corrector_norm takes it, and B^{-1}_{inf,inf} of the forcing
    at the last time, as separation_report takes its Besov norms."""
    grid, series, times = inputs["grid"], inputs["series"], inputs["times"]
    cl = spaces.chemin_lerner_norm(
        times, (slv.heat_duhamel(series, t, grid) for t in times),
        -0.5, np.inf, 1.0, np.inf)
    besov = spaces.besov_norm(series.at(times[-1]), -1.0, np.inf, np.inf)
    return {"chemin_lerner": cl, "besov": besov}


def _norms_reference(inputs: dict) -> dict:
    """The two norms from the benchmark's own Duhamel formula, dyadic
    partition and block sups; computed once a process."""
    n = NORMS_GRID
    weights = ref.dyadic_weights(n)
    js = np.arange(len(weights))
    per_time = np.array([
        ref.block_sups(*ref.heat_duhamel(inputs["terms"], t, n), weights)
        for t in inputs["times"]])
    cl = float(np.sum(2.0 ** (-0.5 * js) * per_time.max(axis=0)))
    t = inputs["times"][-1]
    f = [sum(math.exp(-r * t) * c[i] for r, c in inputs["terms"].items())
         for i in (0, 1)]
    besov = float(np.max(2.0 ** (-1.0 * js) * ref.block_sups(*f, weights)))
    return {"chemin_lerner": cl, "besov": besov}


def norms_check(inputs: dict, outputs: dict) -> list:
    if "reference" not in inputs:
        inputs["reference"] = _norms_reference(inputs)
    return [(f"norms/{k}", abs(outputs[k] - v) <= NORMS_TOL * abs(v))
            for k, v in inputs["reference"].items()]


WORKLOADS = {
    "pair": (pair_prepare, pair_run, pair_check),
    "level": (level_prepare, level_run, level_check),
    "march": (march_prepare, march_run, march_check),
    "norms": (norms_prepare, norms_run, norms_check),
}

#: failures caused by a known program fault; they do not make a run
#: incorrect, they are counted as failed operations
KNOWN_FAULTS = {"ledger corrector/window level-2"}
