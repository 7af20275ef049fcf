"""Pseudo-spectral time integration on the torus.

One stepper serves forced and plain incompressible Navier-Stokes; it is
verified on exact and manufactured solutions, and the tests also
step the linear transport-diffusion equation on it, as the reference
for ``heat_duhamel``.  The pair run steps nothing: the corrector's
linear part is ``heat_duhamel``, exact in time, and its nonlinear
remainder is not solved.  The heat part is integrated exactly
through multiplication by e^{-|xi|^2 dt}; the projected nonlinearity is
advanced with the classical four-stage Runge-Kutta rule applied in the
integrating-factor frame, which removes the stiffness of the fast decay
rates.  The advection is one call of the spectral core's
``flux_divergences``, which dealiases it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import (Grid, SpectralField, VectorField, fit_grid,
                       flux_divergences, leray_project, weighted_sum)
from .timefield import ExpSeries

#: a run stops as ``blow-up`` once the sup bound exceeds this multiple
#: of its starting value
BLOWUP_FACTOR = 1e6
#: the CFL condition is dt <= CFL_SAFETY * h / max|u|
CFL_SAFETY = 0.5


@dataclass
class SolverConfig:
    """Time-stepping parameters.

    ``dt`` is fixed for the whole run (uniform trajectory times).  With
    ``check_cfl`` the CFL condition dt <= CFL_SAFETY * h / max|u| is
    re-checked every step, max|u| bounded by the state's coefficient sum,
    and a violation aborts with a diagnostic rather than silently
    adapting; without it no CFL check runs.  ``max_steps`` caps runs
    whose step cannot reach the horizon at desk scale; such runs return
    partial trajectories marked accordingly.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    max_steps: int = 100000
    store_every: int = 1
    check_cfl: bool = True


@dataclass
class Trajectory:
    """Uniform-in-time solution record.

    ``times``/``states`` hold the stored subset (every ``store_every``-th
    step).  At every accepted step, at ``step_times``, ``sup_bounds``
    records the sup bound the stepper acts on (the sum of coefficient
    magnitudes, which its CFL and blow-up tests read).  ``status`` is
    ``completed`` or one of the abort markers (``max-steps``, ``cfl``,
    ``blow-up``).
    """

    grid: Grid
    dt: float
    times: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list)
    step_times: list = dc_field(default_factory=list)
    sup_bounds: list = dc_field(default_factory=list)
    status: str = "completed"
    diagnostics: dict = dc_field(default_factory=dict)

    def append(self, t: float, state, sup_bound: float, store: bool) -> None:
        self.step_times.append(t)
        self.sup_bounds.append(sup_bound)
        if store:
            self.times.append(t)
            self.states.append(state)


def _sup_bound(state) -> float:
    """Cheap rigorous sup bound: sum of coefficient magnitudes."""
    return max(float(np.abs(c.coef).sum()) for c in state)


def _lawson_step(state, t, dt, rhs, full, half):
    """One step of the integrating-factor classical Runge-Kutta rule.

    ``full`` and ``half`` are the heat factors e^{-|xi|^2 dt} and
    e^{-|xi|^2 dt/2}, taken once per run instead of by ``heat`` per call.
    """
    k1 = rhs(t, state)
    eu = state.apply_symbol(half)
    k2 = rhs(t + 0.5 * dt, eu + (0.5 * dt) * k1.apply_symbol(half))
    k3 = rhs(t + 0.5 * dt, eu + (0.5 * dt) * k2)
    k4 = rhs(t + dt, state.apply_symbol(full) + dt * k3.apply_symbol(half))
    return state.apply_symbol(full) + (dt / 6.0) * (
        k1.apply_symbol(full) + 2.0 * (k2 + k3).apply_symbol(half) + k4)


def _run(grid, config, state0, rhs) -> Trajectory:
    dt = config.dt
    traj = Trajectory(grid=grid, dt=dt)
    h = 2.0 * math.pi / grid.n
    full = np.exp(-grid.ksq * dt)
    half = np.exp(-grid.ksq * (0.5 * dt))
    state = state0
    sup = _sup_bound(state)
    traj.append(0.0, state, sup, store=True)
    scale0 = max(sup, 1.0)
    t = 0.0
    step = 0
    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
    while step < n_steps:
        if step >= config.max_steps:
            traj.status = "max-steps"
            traj.diagnostics["reached_t"] = t
            break
        if config.check_cfl and dt > CFL_SAFETY * h / max(sup, 1e-300):
            traj.status = "cfl"
            traj.diagnostics["cfl_bound"] = CFL_SAFETY * h / sup
            traj.diagnostics["reached_t"] = t
            break
        if sup > BLOWUP_FACTOR * scale0:
            traj.status = "blow-up"
            traj.diagnostics["sup"] = sup
            traj.diagnostics["reached_t"] = t
            break
        state = _lawson_step(state, t, dt, rhs, full, half)
        step += 1
        t = step * dt
        sup = _sup_bound(state)
        traj.append(t, state, sup, store=(step % config.store_every == 0
                                          or step == n_steps))
    return traj


def _advection(w: VectorField) -> VectorField:
    """-div(w@w), alias-free on the state's own grid."""
    (_, div), = flux_divergences({0: [(w, w)]}, w.grid)
    return -div


def solve_forced_ns(grid: Grid, config: SolverConfig,
                    forcing=None,
                    u0: VectorField | None = None,
                    tag: str = "forced-ns") -> Trajectory:
    """Advance w' = Delta w - P[div(w@w)] - P F.

    ``forcing`` is a callable t -> VectorField on ``grid`` (or None).
    Without it this is plain incompressible Navier-Stokes.  Zero data
    with zero forcing stays bitwise zero: all stage fields are exact
    zero arrays and the heat factor preserves them.  ``tag`` is the
    caller's name for the run; nothing records it.
    """
    state0 = u0 if u0 is not None else VectorField.zero(grid)

    def rhs(t, w):
        out = _advection(w)
        if forcing is not None:
            out = out - forcing(t)
        return leray_project(out)

    return _run(grid, config, state0, rhs)


def heat_duhamel(forcing: ExpSeries, t: float, grid: Grid) -> VectorField:
    """Exact value at time t of w' = Delta w - P F, w(0) = 0.

    For F = sum_r F_r e^{-r t} the Duhamel integral
    -int_0^t e^{(t-s) Delta} P F(s) ds is, mode by mode,
    -P F_r (e^{-r t} - e^{-|xi|^2 t}) / (|xi|^2 - r), and t e^{-r t} on
    resonant modes |xi|^2 = r.  Near resonance the difference is taken
    through expm1, so no time stepping and no cancellation enter.  The
    factors are real radial multipliers, which commute with P, so the
    terms are summed in one array (``weighted_sum``) and projected once.

    Grid rule: each term is fitted to the smallest grid that holds its
    band (``fit_grid``, which drops what lies beyond it; the band is
    cached on the term, so the calls of one norm measure it once), one
    e^{-|xi|^2 t} is formed per distinct term grid, and the terms are
    summed on the finest of those grids, cut to ``grid`` when that is
    smaller, projected, and embedded into ``grid`` last.  The cost
    follows the forcing's band, not the grid it is stored on.

    Known reality: the factors and P are real and even, so when every
    term's samples are real (``real_samples``, cached on the term) the
    output is marked real without a Hermitian test of its own; else it
    tests itself when asked.  At late times its rounding-level
    anti-Hermitian part can exceed 1e-12 of its largest coefficient; the
    real transforms drop it.
    """
    if not forcing.terms:
        return VectorField.zero(grid)
    terms = {r: fit_grid(f) for r, f in forcing.terms.items()}
    heat = {}

    def factor(g, r):
        # the negated factor, so that the sum needs no sign pass
        if g.n not in heat:
            heat[g.n] = np.exp(-g.ksq * t)
        d = g.ksq - r
        near = np.abs(d) * t < 0.1
        out = (heat[g.n] - math.exp(-r * t)) / np.where(near, 1.0, d)
        dn = d[near]
        small = np.full(dn.shape, t)
        nz = dn != 0.0
        small[nz] = -np.expm1(-dn[nz] * t) / dn[nz]
        out[near] = -math.exp(-r * t) * small
        return out

    total = weighted_sum(terms.values(),
                         (factor(f.grid, r) for r, f in terms.items()))
    if total.grid.n > grid.n:
        total = total.regrid(grid)
    w = leray_project(total).regrid(grid)
    real = all(f.real_samples for f in forcing.terms.values())
    return SpectralField(grid, w.coef, band=w.band, real=real or None)


# ---------------------------------------------------------------------------
# verification measurements
# ---------------------------------------------------------------------------

def energy_law_residual(traj: Trajectory) -> float:
    """Relative defect of d/dt ||u||_2^2 + 2 ||grad u||_2^2 = 0.

    Integrated form over the run: |E(T) - E(0) + 2 int ||grad u||^2 dt|
    relative to E(0), with composite Simpson quadrature on the stored
    states, which must be equally spaced and odd in number.
    """
    if len(traj.states) < 3 or len(traj.states) % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of at least "
                         f"3 stored states, not {len(traj.states)}")
    e = [s.l2_norm() ** 2 for s in traj.states]
    d = np.array([sum(g.l2_norm() ** 2 for g in s.gradient())
                  for s in traj.states])
    dt = traj.times[1] - traj.times[0]
    integral = float(np.sum(d[0:-2:2] + 4.0 * d[1:-1:2] + d[2::2])
                     * (dt / 3.0))
    return abs(e[-1] - e[0] + 2.0 * integral) / max(e[0], 1e-300)


# ---------------------------------------------------------------------------
# exact solutions for verification
# ---------------------------------------------------------------------------

def taylor_green(grid: Grid, t: float = 0.0) -> VectorField:
    """e^{-2t} (cos x1 sin x2, -sin x1 cos x2): exact NS solution."""
    a = 0.25 * math.exp(-2.0 * t)
    return VectorField.from_modes(grid, {
        (1, 1): a * np.array([-1j, 1j]), (1, -1): a * np.array([1j, 1j]),
        (-1, 1): a * np.array([-1j, -1j]), (-1, -1): a * np.array([1j, -1j])})


def taylor_green_error(grid: Grid, dt: float, t_end: float = 1.0) -> float:
    """Sup error against the exact Taylor-Green flow at ``t_end``."""
    cfg = SolverConfig(dt=dt, t_end=t_end, store_every=10 ** 9,
                       check_cfl=False)
    traj = solve_forced_ns(grid, cfg, u0=taylor_green(grid))
    return (traj.states[-1] - taylor_green(grid, t_end)).sup_norm()


def manufactured_error(grid: Grid, dt: float, t_end: float = 1.0) -> float:
    """Temporal error on a forced two-shear manufactured solution.

    u*(t) = (a(t) sin x2, b(t) sin x1) with a = 3e^{-t}, b =
    2e^{-t}(1 + sin 5t) has a genuinely non-gradient nonlinearity, so
    this exercises the full Runge-Kutta path (the Taylor-Green
    nonlinearity is a pure gradient, which the projection annihilates,
    so that classic check sits at the error floor for every dt).
    """
    s2 = SpectralField.from_modes(grid, {(0, 1): -0.5j, (0, -1): 0.5j})
    s1 = SpectralField.from_modes(grid, {(1, 0): -0.5j, (-1, 0): 0.5j})

    def a(t):
        return 3.0 * math.exp(-t)

    def b(t):
        return 2.0 * math.exp(-t) * (1.0 + math.sin(5.0 * t))

    def da(t):
        return -3.0 * math.exp(-t)

    def db(t):
        return 2.0 * math.exp(-t) * (5.0 * math.cos(5.0 * t)
                                     - 1.0 - math.sin(5.0 * t))

    def exact(t):
        return VectorField(a(t) * s2, b(t) * s1)

    def forcing(t):
        u = exact(t)
        dudt = VectorField(da(t) * s2, db(t) * s1)
        (_, quad), = flux_divergences({0: [(u, u)]}, grid)
        resid = dudt - u.laplacian() + leray_project(quad)
        # solver subtracts P F, so hand it -resid
        return -1.0 * resid

    cfg = SolverConfig(dt=dt, t_end=t_end, store_every=10 ** 9,
                       check_cfl=False)
    traj = solve_forced_ns(grid, cfg, forcing=forcing, u0=exact(0.0))
    return (traj.states[-1] - exact(t_end)).sup_norm()


def convergence_order(errors: dict) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.array(sorted(errors))
    errs = np.array([errors[d] for d in dts])
    if np.all(errs < 1e-14):
        return float("inf")
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
