"""Integrating-factor solver: exactness, convergence, and diagnostics."""

import math

import numpy as np
import pytest

from torusns import solver as slv
from torusns.construction import heat_mode_residual, sin_shear
from torusns.spectral import Grid, SpectralField, VectorField
from torusns.timefield import ExpSeries

GRID = Grid(64)


def test_zero_run_is_bitwise_zero():
    cfg = slv.SolverConfig(dt=1e-3, t_end=1e-2, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg)
    assert traj.status == "completed"
    for s in traj.states:
        assert np.all(s.u1.coef == 0.0) and np.all(s.u2.coef == 0.0)


def test_heat_eigenmode_exact():
    # with zero advection the stepper must reproduce e^{t Delta} to
    # machine precision (the integrating factor is exact)
    u0 = VectorField(SpectralField.zero(GRID),
                     SpectralField.from_modes(GRID, {(3, 0): 0.5,
                                                     (-3, 0): 0.5}))
    cfg = slv.SolverConfig(dt=1e-3, t_end=5e-2, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=u0)
    t = traj.final_time
    expect = math.exp(-9.0 * t)
    got = traj.states[-1].u2.coef[3, 0]
    assert abs(got - 0.5 * expect) <= 1e-13


def test_taylor_green_sits_at_floor():
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        err = slv.taylor_green_error(GRID, dt, t_end=0.1)
        assert err <= 1e-10


def test_manufactured_solution_fourth_order():
    errors = {dt: slv.manufactured_error(GRID, dt, t_end=1.0)
              for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3)}
    order = slv.convergence_order(errors)
    assert order >= 3.8, (errors, order)


def test_convergence_order_floor_convention():
    assert slv.convergence_order({1e-2: 1e-15, 5e-3: 2e-15}) == math.inf


def test_shear_solution_exact_component():
    lam = 25
    grid = Grid(128)
    u0 = VectorField(SpectralField.zero(grid), sin_shear(grid, lam).u2)
    cfg = slv.SolverConfig(dt=2e-5, t_end=2e-3, check_cfl=False)
    traj = slv.solve_forced_ns(grid, cfg, u0=u0)
    final = traj.states[-1]
    t = traj.final_time
    exact = math.exp(-lam * lam * t)
    closed = exact * u0
    assert final.u1.sup_norm() <= 1e-8
    assert (final - closed).sup_norm() <= 1e-8 * closed.sup_norm()
    assert slv.ns_residual(traj) <= 1e-8


def test_energy_law_shear_and_tg():
    lam = 25
    grid = Grid(128)
    u0 = VectorField(SpectralField.zero(grid), sin_shear(grid, lam).u2)
    cfg = slv.SolverConfig(dt=2e-5, t_end=2e-3, check_cfl=False)
    traj = slv.solve_forced_ns(grid, cfg, u0=u0)
    assert slv.energy_law_residual(traj) <= 1e-7

    cfg2 = slv.SolverConfig(dt=1e-3, t_end=0.1, check_cfl=False)
    traj2 = slv.solve_forced_ns(GRID, cfg2, u0=slv.taylor_green(GRID))
    assert slv.energy_law_residual(traj2) <= 1e-7


def test_heat_mode_cancellation():
    grid = Grid(512)
    for lam in (25, 125):
        resid = heat_mode_residual(grid, lam, times=(0.0, 1e-5, 1e-4))
        assert resid <= 1e-10


def test_cfl_abort():
    big = VectorField(SpectralField.from_modes(GRID, {(1, 0): 500.0,
                                                      (-1, 0): 500.0}),
                      SpectralField.zero(GRID))
    cfg = slv.SolverConfig(dt=1e-2, t_end=1.0, check_cfl=True)
    traj = slv.solve_forced_ns(GRID, cfg, u0=big)
    assert traj.status == "cfl"


def test_max_steps_abort():
    u0 = slv.taylor_green(GRID)
    cfg = slv.SolverConfig(dt=1e-4, t_end=1.0, max_steps=5, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=u0)
    assert traj.status == "max-steps"
    assert len(traj.step_times) <= 6


def test_divergence_preserved():
    u0 = slv.taylor_green(GRID)
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.05, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=u0)
    assert traj.divergence_residual() <= 1e-11


def test_state_at_refuses_times_not_stored():
    cfg = slv.SolverConfig(dt=1e-3, t_end=5e-3, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=slv.taylor_green(GRID))
    assert traj.state_at(0.0) is traj.states[0]
    assert traj.state_at(3 * 1e-3) is traj.states[3]
    for t in (0.5e-3, 2.4e-3, 7e-3):
        with pytest.raises(ValueError):
            traj.state_at(t)


def test_interpolate_between_stored_states():
    # Taylor-Green is exact, so the only error left is the linear-in-time
    # reading between stored steps: a(1-a) dt^2/2 |u''| with u'' = 4u
    dt = 1e-3
    cfg = slv.SolverConfig(dt=dt, t_end=5e-3, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=slv.taylor_green(GRID))
    assert traj.interpolate(2 * dt) is traj.states[2]
    scale = slv.taylor_green(GRID).sup_norm()
    for t in (0.5e-3, 2.4e-3, 4.9e-3):
        err = (traj.interpolate(t) - slv.taylor_green(GRID, t)).sup_norm()
        assert err <= 0.5 * dt ** 2 * scale
    for t in (-1e-3, 7e-3):
        with pytest.raises(ValueError):
            traj.interpolate(t)


def test_transport_diffusion_duhamel():
    # zero velocity: u solves the heat equation with source g; constant
    # source on one mode has the closed Duhamel form
    g = SpectralField.from_modes(GRID, {(2, 0): 1.0, (-2, 0): 1.0})
    zero_v = VectorField.zero(GRID)
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.1, check_cfl=False)
    traj = slv.solve_transport_diffusion(
        GRID, cfg, velocity=lambda t: zero_v, source=lambda t: g,
        u0=SpectralField.zero(GRID))
    t = traj.final_time
    expect = (1.0 - math.exp(-4.0 * t)) / 4.0
    got = traj.states[-1].coef[2, 0]
    assert abs(got - expect) <= 1e-8 * expect


def _two_rate_solenoidal_forcing():
    # F = e^{-t} A + e^{-3t} B with A, B divergence-free
    psi_a = SpectralField.from_modes(GRID, {(1, 2): 0.7 - 0.2j,
                                            (-1, -2): 0.7 + 0.2j})
    psi_b = SpectralField.from_modes(GRID, {(3, -1): 0.4j, (-3, 1): -0.4j,
                                            (0, 2): 0.5, (0, -2): 0.5})
    return ExpSeries({1.0: psi_a.perp_gradient(),
                      3.0: psi_b.perp_gradient()})


def test_heat_duhamel_matches_stepped_heat_equation():
    # for divergence-free F the projection is the identity and each
    # component of w' = Delta w - F is a scalar heat equation with source
    forcing = _two_rate_solenoidal_forcing()
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.2, check_cfl=False)
    zero_v = VectorField.zero(GRID)
    finals = []
    for comp in (0, 1):
        traj = slv.solve_transport_diffusion(
            GRID, cfg, velocity=lambda t: zero_v,
            source=lambda t, c=comp: -1.0 * list(forcing.at(t))[c],
            u0=SpectralField.zero(GRID))
        finals.append(traj.states[-1])
    exact = slv.heat_duhamel(forcing, traj.final_time, GRID)
    scale = max(f.sup_norm() for f in finals)
    assert scale > 1e-3
    for got, want in zip(finals, exact):
        assert (got - want).sup_norm() <= 1e-9 * scale


def test_heat_duhamel_resonant_mode_is_t_exp():
    # |xi|^2 = 25 = r: the Duhamel factor degenerates to t e^{-r t}
    psi = SpectralField.from_modes(GRID, {(3, 4): 0.5, (-3, -4): 0.5})
    f = psi.perp_gradient()
    forcing = ExpSeries({25.0: f})
    for t in (1e-3, 0.04, 0.3):
        w = slv.heat_duhamel(forcing, t, GRID)
        want = -t * math.exp(-25.0 * t)
        for got, src in zip(w, f):
            idx = np.abs(src.coef) > 0
            assert np.allclose(got.coef[idx], want * src.coef[idx],
                               rtol=1e-15, atol=0.0)
            assert np.all(got.coef[~idx] == 0.0)


def test_heat_duhamel_near_resonance_is_continuous():
    # rates just off |xi|^2 must agree with the resonant limit, with no
    # cancellation loss in (e^{-rt} - e^{-|xi|^2 t}) / (|xi|^2 - r)
    psi = SpectralField.from_modes(GRID, {(3, 4): 0.5, (-3, -4): 0.5})
    f = psi.perp_gradient()
    t = 0.05
    on = slv.heat_duhamel(ExpSeries({25.0: f}), t, GRID)
    for eps in (1e-9, -1e-9):
        off = slv.heat_duhamel(ExpSeries({25.0 + eps: f}), t, GRID)
        assert (off - on).sup_norm() <= 1e-8 * on.sup_norm()


def test_heat_duhamel_gradient_forcing_is_zero():
    phi = SpectralField.from_modes(GRID, {(2, 5): 1.0 - 0.5j,
                                          (-2, -5): 1.0 + 0.5j,
                                          (7, 0): 0.3, (-7, 0): 0.3})
    forcing = ExpSeries({0.0: phi.gradient(), 40.0: 2.0 * phi.gradient()})
    scale = forcing.at(0.0).sup_norm()
    for t in (0.0, 1e-2, 0.5):
        w = slv.heat_duhamel(forcing, t, GRID)
        assert w.sup_norm() <= 1e-15 * scale
