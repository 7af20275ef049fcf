"""Pseudo-spectral time integration on the torus.

One stepper serves three jobs: the forced corrector system (Navier-Stokes
linearized around the explicit flows plus its own quadratic term and an
external force), plain unforced Navier-Stokes for verification runs, and
the linear transport-diffusion diagnostic.  The heat part is integrated
exactly through multiplication by e^{-|xi|^2 dt}; the projected
nonlinearity is advanced with the classical four-stage Runge-Kutta rule
applied in the integrating-factor frame, which removes the stiffness of
the fast decay rates.  Products are dealiased by the spectral core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import simpson

from .spectral import (Grid, SpectralField, VectorField, leray_project,
                       padded_physical, padded_spectral)
from .timefield import ExpSeries

#: a run stops as ``blow-up`` once the sup bound exceeds this multiple
#: of its starting value
BLOWUP_FACTOR = 1e6


@dataclass
class SolverConfig:
    """Time-stepping parameters.

    ``dt`` is fixed for the whole run (uniform trajectory times); the
    CFL condition dt <= cfl_safety * h / max|u| is re-checked every step
    and a violation aborts with a diagnostic rather than silently
    adapting.  ``max_steps`` caps runs whose CFL-stable step cannot
    reach the horizon at desk scale; such runs return partial
    trajectories marked accordingly.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    cfl_safety: float = 0.5
    max_steps: int = 100000
    store_every: int = 1
    check_cfl: bool = True


@dataclass
class Trajectory:
    """Uniform-in-time solution record.

    ``times``/``states`` hold the stored subset (every ``store_every``-th
    step); ``sup_norms``/``l2_norms`` are recorded at every accepted
    step at ``step_times``.  ``status`` is ``completed`` or one of the
    abort markers (``max-steps``, ``cfl``, ``blow-up``).
    """

    grid: Grid
    dt: float
    times: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list)
    step_times: list = dc_field(default_factory=list)
    sup_norms: list = dc_field(default_factory=list)
    l2_norms: list = dc_field(default_factory=list)
    status: str = "completed"
    forcing_record: str = "none"
    diagnostics: dict = dc_field(default_factory=dict)

    def append(self, t: float, state, store: bool) -> None:
        self.step_times.append(t)
        self.sup_norms.append(state.sup_norm())
        self.l2_norms.append(state.l2_norm())
        if store:
            self.times.append(t)
            self.states.append(state)

    def _stored(self, t: float):
        """Index of the stored time within 1e-9 of a step of ``t``, or None."""
        gaps = np.abs(np.asarray(self.times) - t)
        i = int(np.argmin(gaps))
        return i if gaps[i] <= 1e-9 * self.dt else None

    def state_at(self, t: float):
        """The state stored at time ``t`` (None on an empty trajectory);
        a time not stored, beyond 1e-9 of a step, raises ValueError."""
        if not self.times:
            return None
        i = self._stored(t)
        if i is None:
            raise ValueError(f"no state stored at t={t!r}")
        return self.states[i]

    def interpolate(self, t: float):
        """The state at a time ``t`` of the stored span: the stored one at a
        stored time, else linear in time between the two stored around t
        (second order in the storage step)."""
        i = self._stored(t)
        if i is not None:
            return self.states[i]
        j = int(np.searchsorted(self.times, t))
        if j == 0 or j == len(self.times):
            raise ValueError(f"t={t!r} is outside the stored span")
        t0, t1 = self.times[j - 1], self.times[j]
        a = (t - t0) / (t1 - t0)
        return (1.0 - a) * self.states[j - 1] + a * self.states[j]

    @property
    def final_time(self) -> float:
        return self.step_times[-1] if self.step_times else 0.0

    def divergence_residual(self) -> float:
        """Largest relative divergence over the stored velocity states."""
        worst = 0.0
        for s in self.states:
            scale = max(s.sup_norm(), 1e-300)
            worst = max(worst, np.abs(s.divergence().coef).max() / scale)
        return worst


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


def _run(grid, config, state0, rhs, tag) -> Trajectory:
    dt = config.dt
    traj = Trajectory(grid=grid, dt=dt, forcing_record=tag)
    h = 2.0 * math.pi / grid.n
    full = np.exp(-grid.ksq * dt)
    half = np.exp(-grid.ksq * (0.5 * dt))
    state = state0
    traj.append(0.0, state, store=True)
    scale0 = max(_sup_bound(state0), 1.0)
    t = 0.0
    step = 0
    n_steps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
    while step < n_steps:
        if step >= config.max_steps:
            traj.status = "max-steps"
            traj.diagnostics["reached_t"] = t
            break
        sup = _sup_bound(state)
        if config.check_cfl and dt > config.cfl_safety * h / max(sup, 1e-300):
            traj.status = "cfl"
            traj.diagnostics["cfl_bound"] = config.cfl_safety * h / sup
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
        traj.append(t, state, store=(step % config.store_every == 0
                                     or step == n_steps))
    return traj


def _fused_advection(w: VectorField, U: VectorField | None) -> VectorField:
    """-div(w@w + w@U + U@w) with one shared 3/2-padded transform set.

    Mathematically identical to composing the dealiased products, but
    each velocity is transformed once per evaluation, in one call for
    both components, and the flux returns in one call, which is what
    makes full-band corrector steps affordable.
    """
    n = w.grid.n
    # the flux is symmetric: t21 = t12, so one transform serves both
    c = padded_spectral(_flux_samples(w, U), n)
    mat = SpectralField(w.grid, c[[0, 1, 1, 2]].reshape(2, 2, n, n))
    return -1.0 * mat.divergence()


def _flux_samples(w: VectorField, U: VectorField | None) -> np.ndarray:
    """(t11, t12, t22) of w@w + w@U + U@w on the 3/2 grid, stacked; the
    velocity samples are freed on return, before the flux goes back."""
    w1, w2 = padded_physical(w)
    if U is None:
        return np.stack((w1 * w1, w1 * w2, w2 * w2))
    u1, u2 = padded_physical(U)
    return np.stack((w1 * (w1 + 2.0 * u1), w1 * w2 + w1 * u2 + u1 * w2,
                     w2 * (w2 + 2.0 * u2)))


def solve_forced_ns(grid: Grid, config: SolverConfig,
                    forcing=None, coupling=None,
                    u0: VectorField | None = None,
                    tag: str = "forced-ns") -> Trajectory:
    """Advance w' = Delta w - P[div(w@w + w@U + U@w)] - P F.

    ``forcing`` and ``coupling`` are callables t -> VectorField on
    ``grid`` (or None).  With both absent this is plain incompressible
    Navier-Stokes.  Zero data with zero forcing stays bitwise zero: all
    stage fields are exact zero arrays and the heat factor preserves
    them.
    """
    state0 = u0 if u0 is not None else VectorField.zero(grid)

    def rhs(t, w):
        u = coupling(t) if coupling is not None else None
        out = _fused_advection(w, u)
        if forcing is not None:
            out = out - forcing(t)
        return leray_project(out)

    traj = _run(grid, config, state0, rhs, tag)
    return traj


def solve_transport_diffusion(grid: Grid, config: SolverConfig,
                              velocity, source,
                              u0: SpectralField,
                              div_tol: float = 1e-10) -> Trajectory:
    """Advance u' = Delta u - v.grad u + g for a scalar u.

    ``velocity`` is a callable t -> solenoidal VectorField (checked at
    t=0), ``source`` a callable t -> SpectralField or None.
    """
    v0 = velocity(0.0) if velocity is not None else None
    if v0 is not None:
        scale = max(v0.sup_norm(), 1e-300)
        if np.abs(v0.divergence().coef).max() > div_tol * scale:
            raise ValueError("transport velocity is not divergence-free")

    def rhs(t, u):
        out = None
        if velocity is not None:
            v = velocity(t)
            g = u.gradient()
            out = -1.0 * (v.u1.product(g.u1) + v.u2.product(g.u2))
        if source is not None:
            s = source(t)
            out = s if out is None else out + s
        return out if out is not None else 0.0 * u

    return _run(grid, config, u0, rhs, "transport-diffusion")


def heat_duhamel(forcing: ExpSeries, t: float, grid: Grid) -> VectorField:
    """Exact value at time t of w' = Delta w - P F, w(0) = 0.

    For F = sum_r F_r e^{-r t} the Duhamel integral
    -int_0^t e^{(t-s) Delta} P F(s) ds is, mode by mode,
    -P F_r (e^{-r t} - e^{-|xi|^2 t}) / (|xi|^2 - r), and t e^{-r t} on
    resonant modes |xi|^2 = r.  Near resonance the difference is taken
    through expm1, so no time stepping and no cancellation enter.
    """
    out = VectorField.zero(grid)
    for r, f in forcing.terms.items():
        g = f.grid
        d = g.ksq - r
        near = np.abs(d) * t < 0.1
        factor = (math.exp(-r * t) - np.exp(-g.ksq * t)) / np.where(
            near, 1.0, d)
        dn = d[near]
        small = np.full(dn.shape, t)
        nz = dn != 0.0
        small[nz] = -np.expm1(-dn[nz] * t) / dn[nz]
        factor[near] = math.exp(-r * t) * small
        out = out - leray_project(f).apply_symbol(factor).regrid(grid)
    return out


# ---------------------------------------------------------------------------
# verification measurements
# ---------------------------------------------------------------------------

def ns_residual(traj: Trajectory, pressure=None) -> float:
    """Normalized interior residual of unforced Navier-Stokes.

    Time derivative by centered 4th-order finite differences on the
    stored uniform states; pressure recovered by Leray projection when
    absent.  Residual is max over interior times of
    ||d_t u - Delta u + P(u.grad u)||_inf, normalized by
    ||u||_C1 ||u||_inf + ||d_t u||_inf.
    """
    if len(traj.states) < 5:
        raise ValueError("need at least 5 uniform samples")
    if len(traj.times) > 1:
        gaps = np.diff(np.asarray(traj.times))
        if np.abs(gaps - gaps[0]).max() > 1e-12 * gaps[0]:
            raise ValueError("stored times are not uniform")
    dt = traj.times[1] - traj.times[0]
    worst = 0.0
    for i in range(2, len(traj.states) - 2):
        u = traj.states[i]
        dudt = (1.0 / (12.0 * dt)) * (
            traj.states[i - 2] - 8.0 * traj.states[i - 1]
            + 8.0 * traj.states[i + 1] - traj.states[i + 2])
        nl = leray_project(u.outer(u).divergence())
        resid = dudt - u.laplacian() + nl
        scale = _c1_norm(u) * max(u.sup_norm(), 1e-300) + dudt.sup_norm()
        worst = max(worst, resid.sup_norm() / max(scale, 1e-300))
    return worst


def _c1_norm(u: VectorField) -> float:
    return max([u.sup_norm()] + [d.sup_norm() for d in u.gradient()])


def energy_law_residual(traj: Trajectory) -> float:
    """Relative defect of d/dt ||u||_2^2 + 2 ||grad u||_2^2 = 0.

    Integrated form over the run: |E(T) - E(0) + 2 int ||grad u||^2 dt|
    relative to E(0), with trapezoid quadrature on the stored states.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least 2 stored states")
    e = [s.l2_norm() ** 2 for s in traj.states]
    diss = [sum(d.l2_norm() ** 2 for d in s.gradient())
            for s in traj.states]
    dt = traj.times[1] - traj.times[0]
    integral = float(simpson(diss, dx=dt))
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
    traj = solve_forced_ns(grid, cfg, u0=taylor_green(grid), tag="taylor-green")
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
        resid = dudt - u.laplacian() + leray_project(
            u.outer(u).divergence())
        # solver subtracts P F, so hand it -resid
        return -1.0 * resid

    cfg = SolverConfig(dt=dt, t_end=t_end, store_every=10 ** 9,
                       check_cfl=False)
    traj = solve_forced_ns(grid, cfg, forcing=forcing, u0=exact(0.0),
                           tag="manufactured")
    return (traj.states[-1] - exact(t_end)).sup_norm()


def convergence_order(errors: dict) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.array(sorted(errors))
    errs = np.array([errors[d] for d in dts])
    if np.all(errs < 1e-14):
        return float("inf")
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
