"""Integrating-factor solver: exactness, convergence, and diagnostics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusns
from torusns import solver as slv
from torusns import spectral
from torusns.construction import heat_mode_residual, sin_shear
from torusns.spaces import LittlewoodPaley, chemin_lerner_norm
from torusns.spectral import Grid, MatrixField, SpectralField, VectorField
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
    t = traj.step_times[-1]
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
    t = traj.step_times[-1]
    exact = math.exp(-lam * lam * t)
    closed = exact * u0
    assert final.u1.sup_norm() <= 1e-8
    assert (final - closed).sup_norm() <= 1e-8 * closed.sup_norm()


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


def _taylor_green_run():
    """101 stored states of the Taylor-Green flow on GRID."""
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.1, check_cfl=False)
    return slv.solve_forced_ns(GRID, cfg, u0=slv.taylor_green(GRID))


def test_energy_law_simpson_is_scipys_bit_for_bit():
    simpson = pytest.importorskip("scipy.integrate").simpson
    traj = _taylor_green_run()
    assert len(traj.states) == 101
    e = [s.l2_norm() ** 2 for s in traj.states]
    diss = [sum(d.l2_norm() ** 2 for d in s.gradient())
            for s in traj.states]
    integral = float(simpson(diss, dx=traj.times[1] - traj.times[0]))
    want = abs(e[-1] - e[0] + 2.0 * integral) / e[0]
    assert slv.energy_law_residual(traj) == want


def test_energy_law_refuses_an_even_number_of_states():
    traj = _taylor_green_run()
    traj.times, traj.states = traj.times[:100], traj.states[:100]
    with pytest.raises(ValueError, match="odd number"):
        slv.energy_law_residual(traj)


def test_steps_record_the_sup_bound_and_take_no_sampled_sup(monkeypatch):
    def refuse(self):
        raise AssertionError("sampled sup norm taken while stepping")

    for cls in (SpectralField, VectorField, MatrixField):
        monkeypatch.setattr(cls, "sup_norm", refuse)
    traj = _taylor_green_run()
    assert traj.status == "completed"
    assert len(traj.sup_bounds) == len(traj.states) == 101
    assert all(b == slv._sup_bound(s)
               for b, s in zip(traj.sup_bounds, traj.states))


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(torusns.__file__).resolve().parents[1])
    code = ("import sys, torusns.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


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


def divergence_residual(traj) -> float:
    """Largest relative divergence over the stored velocity states."""
    worst = 0.0
    for s in traj.states:
        scale = max(s.sup_norm(), 1e-300)
        worst = max(worst, np.abs(s.divergence().coef).max() / scale)
    return worst


def test_divergence_preserved():
    u0 = slv.taylor_green(GRID)
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.05, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=u0)
    assert divergence_residual(traj) <= 1e-11


def _real_velocity(rng, band):
    """grad^perp of a random real stream function of the given band."""
    modes = {}
    for _ in range(12):
        k = tuple(int(x) for x in rng.integers(-band, band + 1, 2))
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[k] = modes.get(k, 0) + c
        modes[(-k[0], -k[1])] = modes.get((-k[0], -k[1]), 0) + np.conj(c)
    modes.pop((0, 0), None)
    return SpectralField.from_modes(GRID, modes).perp_gradient()


@pytest.mark.parametrize("band", [7, 20])
def test_advection_is_minus_the_divergence_of_the_flux(band):
    # band 7: w (x) w fits unpadded on GRID (7 + 7 <= 31); band 20 takes
    # the 3/2 grid
    rng = np.random.default_rng(band)
    w = _real_velocity(rng, band)
    assert (2 * w.band <= GRID.n // 2 - 1) == (band == 7)
    want = (-1.0 * w.outer(w).divergence()).coef
    got = slv._advection(w).coef
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_real_state_with_real_forcing_stays_real():
    # band 20: every product is 3/2-padded, so a truncation that keeps
    # xi = -n/2 without +n/2 would feed the state a non-real part
    rng = np.random.default_rng(3)
    u0 = 0.2 * _real_velocity(rng, 20)
    force = 5.0 * _real_velocity(rng, 20)
    cfg = slv.SolverConfig(dt=1e-4, t_end=5e-3, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, forcing=lambda t: force, u0=u0)
    assert traj.status == "completed" and len(traj.states) == 51
    for s in traj.states:
        # samples of the trigonometric polynomial itself: on a grid of
        # twice the size, xi = -32 is a frequency of its own
        p = s.regrid(Grid(128)).to_physical()
        assert np.abs(p.imag).max() <= 1e-14 * np.abs(p).max()


def interpolate(traj, t):
    """The state of ``traj`` at a time ``t`` of its stored span: the stored
    one at a stored time (within 1e-9 of a step), else linear in time
    between the two stored around t (second order in the storage step)."""
    gaps = np.abs(np.asarray(traj.times) - t)
    i = int(np.argmin(gaps))
    if gaps[i] <= 1e-9 * traj.dt:
        return traj.states[i]
    j = int(np.searchsorted(traj.times, t))
    if j == 0 or j == len(traj.times):
        raise ValueError(f"t={t!r} is outside the stored span")
    t0, t1 = traj.times[j - 1], traj.times[j]
    a = (t - t0) / (t1 - t0)
    return (1.0 - a) * traj.states[j - 1] + a * traj.states[j]


def test_interpolate_between_stored_states():
    # Taylor-Green is exact, so the only error left is the linear-in-time
    # reading between stored steps: a(1-a) dt^2/2 |u''| with u'' = 4u
    dt = 1e-3
    cfg = slv.SolverConfig(dt=dt, t_end=5e-3, check_cfl=False)
    traj = slv.solve_forced_ns(GRID, cfg, u0=slv.taylor_green(GRID))
    assert interpolate(traj, 2 * dt) is traj.states[2]
    scale = slv.taylor_green(GRID).sup_norm()
    for t in (0.5e-3, 2.4e-3, 4.9e-3):
        err = (interpolate(traj, t) - slv.taylor_green(GRID, t)).sup_norm()
        assert err <= 0.5 * dt ** 2 * scale
    for t in (-1e-3, 7e-3):
        with pytest.raises(ValueError):
            interpolate(traj, t)


def solve_transport_diffusion(grid, config, velocity, source, u0,
                              div_tol=1e-10):
    """Advance u' = Delta u - v.grad u + g for a scalar u on the solver's
    stepper: the reference that ``heat_duhamel`` is tested against.

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

    return slv._run(grid, config, u0, rhs)


def test_transport_diffusion_duhamel():
    # zero velocity: u solves the heat equation with source g; constant
    # source on one mode has the closed Duhamel form
    g = SpectralField.from_modes(GRID, {(2, 0): 1.0, (-2, 0): 1.0})
    zero_v = VectorField.zero(GRID)
    cfg = slv.SolverConfig(dt=1e-3, t_end=0.1, check_cfl=False)
    traj = solve_transport_diffusion(
        GRID, cfg, velocity=lambda t: zero_v, source=lambda t: g,
        u0=SpectralField.zero(GRID))
    t = traj.step_times[-1]
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
        traj = solve_transport_diffusion(
            GRID, cfg, velocity=lambda t: zero_v,
            source=lambda t, c=comp: -1.0 * list(forcing.at(t))[c],
            u0=SpectralField.zero(GRID))
        finals.append(traj.states[-1])
    exact = slv.heat_duhamel(forcing, traj.step_times[-1], GRID)
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


def _negated_factor(grid, r, t):
    """-(e^{-rt} - e^{-|xi|^2 t}) / (|xi|^2 - r) over the grid, t e^{-rt}
    negated near resonance, by the same operations as ``heat_duhamel``."""
    d = grid.ksq - r
    near = np.abs(d) * t < 0.1
    out = (np.exp(-grid.ksq * t) - math.exp(-r * t)) / np.where(near, 1.0, d)
    dn = d[near]
    small = np.full(dn.shape, t)
    nz = dn != 0.0
    small[nz] = -np.expm1(-dn[nz] * t) / dn[nz]
    out[near] = -math.exp(-r * t) * small
    return out


def _per_term_duhamel(forcing, t, grid):
    """The Duhamel formula term by term: each term projected, multiplied
    by its factor (through expm1 near resonance) and subtracted."""
    out = VectorField.zero(grid)
    for r, f in forcing.terms.items():
        out = out + slv.leray_project(f).apply_symbol(
            _negated_factor(f.grid, r, t)).regrid(grid)
    return out


def test_heat_duhamel_projects_once():
    # the factors are radial multipliers, so projecting the sum once agrees
    # with projecting each term to rounding; terms on a coarser and on a
    # finer grid, and a resonant rate, included
    rng = np.random.default_rng(9)
    grid = Grid(96)
    terms = {}
    for rate, n in ((2.5, 64), (25.0, 96), (300.5, 128)):
        g = Grid(n)
        box = (np.abs(g.k)[:, None] <= 20) & (np.abs(g.k)[None, :] <= 20)
        c = np.zeros((2, n, n), dtype=complex)
        c[:, box] = rng.standard_normal((2, int(box.sum()))) \
            + 1j * rng.standard_normal((2, int(box.sum())))
        terms[rate] = SpectralField(g, c)
    forcing = ExpSeries(terms)
    for t in (1e-4, 0.01, 0.3):
        want = _per_term_duhamel(forcing, t, grid).coef
        got = slv.heat_duhamel(forcing, t, grid).coef
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _full_grid_duhamel(forcing, t, grid):
    """The one-projection formula over the terms' one storage grid: each
    term times its negated factor, added in order, cut or embedded to
    ``grid``, projected once."""
    total = None
    for r, f in forcing.terms.items():
        term = f.coef * _negated_factor(f.grid, r, t)
        total = term if total is None else total + term
    storage, = {f.grid for f in forcing.terms.values()}
    return slv.leray_project(SpectralField(storage, total).regrid(grid))


def _real_band_field(rng, grid, band):
    """A real vector field with random coefficients at |xi|_inf <= band and
    zeros beyond: the Hermitian part of random complex ones."""
    n = grid.n
    box = (np.abs(grid.k)[:, None] <= band) & (np.abs(grid.k)[None, :] <= band)
    c = np.zeros((2, n, n), dtype=complex)
    c[:, box] = rng.standard_normal((2, int(box.sum()))) \
        + 1j * rng.standard_normal((2, int(box.sum())))
    minus = (-np.arange(n)) % n
    return SpectralField(grid, 0.5 * (c + c[:, minus][:, :, minus].conj()))


@pytest.mark.parametrize("bands, target", [
    ((4, 16, 40), 128), ((4, 16, 40), 256), ((4, 16, 40), 512),
    ((4, 16), 48),
])
def test_heat_duhamel_on_its_terms_grids_is_the_full_grid_formula(
        bands, target):
    # terms stored on grid 256, far wider than their bands, are summed on
    # the smallest grids that hold them (64 and 96 here); target grids
    # coarser, equal and finer than the storage grid, and one coarser
    # than every fitted grid, all give the full-grid formula bit for bit;
    # the rate 25 is resonant on (3, 4), (5, 0) and their images
    rng = np.random.default_rng(17)
    storage, grid = Grid(256), Grid(target)
    rates = (2.5, 25.0, 1700.3)
    forcing = ExpSeries({r: _real_band_field(rng, storage, b)
                         for r, b in zip(rates, bands)})
    for t in (1e-4, 0.01, 0.3):
        got = slv.heat_duhamel(forcing, t, grid)
        want = _full_grid_duhamel(forcing, t, grid)
        assert got.grid == grid
        assert np.array_equal(got.coef, want.coef)


def _late_failing_forcing():
    """(grid, forcing): one real term whose heat-Duhamel samples from
    t = 0.15 on fail their own Hermitian test.  Random noise at 1e-15 of
    the term's largest coefficient on the slowly decaying modes
    |xi|_inf <= 2 outlives the resonant bulk at |xi|^2 = 100: at t = 0.15
    the output's own coefficients fail the 1e-12 test (their
    anti-Hermitian part is 2.6e-10 of the largest), as the acceptance
    run's late corrector samples do."""
    grid = Grid(64)
    psi = SpectralField.from_modes(grid, {(6, 8): 0.5, (-6, -8): 0.5})
    c = psi.perp_gradient().coef
    rng = np.random.default_rng(3)
    low = (np.abs(grid.k)[:, None] <= 2) & (np.abs(grid.k)[None, :] <= 2)
    low[0, 0] = False
    c[:, low] += 1e-15 * np.abs(c).max() * (
        rng.standard_normal((2, int(low.sum())))
        + 1j * rng.standard_normal((2, int(low.sum()))))
    term = SpectralField(grid, c)
    assert term.real_samples
    return grid, ExpSeries({100.0: term})


def test_heat_duhamel_of_real_terms_is_known_real(monkeypatch):
    # the factors and P are real and even, so real terms give a real
    # output, marked so without a Hermitian test
    grid, forcing = _late_failing_forcing()

    def no_test(*args):
        raise AssertionError("Hermitian test run")

    with monkeypatch.context() as m:
        m.setattr(spectral, "_hermitian", no_test)
        early, late = (slv.heat_duhamel(forcing, t, grid)
                       for t in (1e-3, 0.15))
        assert early.real_samples and late.real_samples
    # measured afresh, with the Hermitian test back in place
    assert SpectralField(early.grid, early.coef).real_samples
    assert not SpectralField(late.grid, late.coef).real_samples
    # the real path drops the anti-Hermitian part a, so each block sup
    # moves by at most its l1 size, sum |a(xi)| over the components
    # (measured: by 0.14 of that bound, 1.7e-10 of the largest sup)
    lc = late.coef
    minus = (-np.arange(grid.n)) % grid.n
    l1 = float(np.abs(0.5 * (lc - lc[:, minus][:, :, minus].conj())).sum())
    lp = LittlewoodPaley(grid)
    real = lp.sups(late)
    cplx = lp.sups(SpectralField(grid, lc, real=False))
    assert 0.0 < np.abs(real - cplx).max() <= l1


def test_chemin_lerner_norm_keeps_the_known_reality_of_late_samples():
    # the norm keeps each sample's slab, which must carry the sample's
    # known reality: a re-tested copy of a late sample would take the
    # complex path and move the norm
    grid, forcing = _late_failing_forcing()
    times = np.linspace(0.15, 0.3, 8)
    fs = [slv.heat_duhamel(forcing, t, grid) for t in times]
    assert all(f.real_samples for f in fs)
    assert not SpectralField(grid, fs[0].coef).real_samples
    lp = LittlewoodPaley(grid)
    peak = np.max([lp.sups(f) for f in fs], axis=0)
    per_block = np.array([(2.0 ** (-0.5 * j)) * v for j, v in enumerate(peak)])
    assert chemin_lerner_norm(times, iter(fs), -0.5, np.inf, 1.0,
                              np.inf) == float(np.sum(per_block))


def test_heat_duhamel_gradient_forcing_is_zero():
    phi = SpectralField.from_modes(GRID, {(2, 5): 1.0 - 0.5j,
                                          (-2, -5): 1.0 + 0.5j,
                                          (7, 0): 0.3, (-7, 0): 0.3})
    forcing = ExpSeries({0.0: phi.gradient(), 40.0: 2.0 * phi.gradient()})
    scale = forcing.at(0.0).sup_norm()
    for t in (0.0, 1e-2, 0.5):
        w = slv.heat_duhamel(forcing, t, GRID)
        assert w.sup_norm() <= 1e-15 * scale
