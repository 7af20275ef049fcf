"""Level construction: algebraic identities at a reduced profile band.

The full-band run lives in the acceptance suite; these tests exercise
exactly the same code path at a band that fits a 1024 grid.
"""

import math

import numpy as np
import pytest

from torusns import construction as cons, spectral, timefield
from torusns.schedule import ParamSchedule, toy_schedule
from torusns.spectral import Grid, SpectralField, grid_for, product_sums

GRID = Grid(1024)
SCHED = toy_schedule()


@pytest.fixture(scope="module")
def level_pair():
    seed = cons.seed_level(GRID, SCHED)
    state = cons.EvenLevelBuilder(GRID, SCHED, 2, seed,
                                   profile_band=8).build()
    return seed, state


def test_seed_is_decaying_shear():
    seed = cons.seed_level(GRID, SCHED)
    lam = SCHED.lam(1)
    assert sorted(seed.w_p.terms) == [float(lam * lam)]
    w0 = seed.w_p.at(0.0)
    assert w0.u1.sup_norm() <= 1e-14
    assert abs(w0.u2.sup_norm() - lam) <= 1e-10
    # the lift of the seed divides back to the seed
    r0 = seed.R_wp.at(0.0)
    assert (r0.divergence() - w0).sup_norm() <= 1e-11 * lam


def test_builder_level_validation():
    seed = cons.seed_level(GRID, SCHED)
    with pytest.raises(ValueError):
        cons.EvenLevelBuilder(GRID, SCHED, 1, seed)
    with pytest.raises(ValueError):
        cons.EvenLevelBuilder(GRID, SCHED, 3, seed)  # needs level 2 carry


def test_perturbation_divergence_free(level_pair):
    _, state = level_pair
    assert cons.check_divergence(state.w_p) <= 1e-11


def test_main_plus_remainder_split(level_pair):
    _, state = level_pair
    assert cons.check_split(state) <= 1e-12


def test_cancellation_flow_two_forms(level_pair):
    _, state = level_pair
    assert cons.check_ws_forms(state) <= 1e-11


def test_initial_data_match(level_pair):
    seed, state = level_pair
    assert cons.check_initial_match(state, seed) <= 1e-11


def test_lift_divides_to_perturbation(level_pair):
    _, state = level_pair
    assert cons.check_lift(state) <= 1e-11


def test_pressure_contract(level_pair):
    _, state = level_pair
    resid = cons.pressure_contract_residual(state, GRID)
    assert max(resid.values()) <= 1e-8


def test_fields_are_real(level_pair):
    _, state = level_pair
    for f in state.w_p.terms.values():
        assert SpectralField(f.grid, f.coef).real_samples
    for f in state.F1.terms.values():
        assert SpectralField(f.grid, f.coef).real_samples


def test_amplitudes_stay_in_decomposition_ball(level_pair):
    _, state = level_pair
    assert state.diagnostics["sqrt_truncation"] <= 1e-15


def test_forcing_rates_carry_fast_decay(level_pair):
    _, state = level_pair
    lam2 = float(state.lam) ** 2
    assert min(state.F1.terms) >= 2.0 * lam2 - 1e-9


def test_deferred_forcing_matches_eager(level_pair):
    # the split build path must produce the same forcing
    seed, state = level_pair
    builder = cons.EvenLevelBuilder(GRID, SCHED, 2, seed, profile_band=8)
    lazy = builder.build(with_forcing=False)
    assert lazy.F1 is None
    builder.assemble_forcing(lazy)
    for r, f in state.F1.terms.items():
        d = (f - lazy.F1.terms[r]).sup_norm()
        assert d <= 1e-12 * max(f.sup_norm(), 1.0)


def test_forcing_transform_count(monkeypatch):
    # grid 256, profile band 8, lam = (5, 10): each series product samples
    # each term once and takes one forward transform per rate sum; a real
    # sampling or forward transform is two single-axis calls
    grid = Grid(256)
    sched = ParamSchedule((5, 10), (5, 5))
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed, profile_band=8)
    state = builder.build(with_forcing=False)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name,
            lambda *a, _fn=fn, _name=name, **k: calls.append(_name)
            or _fn(*a, **k))
    builder.assemble_forcing(state)
    assert len(calls) == 212


def test_dropped_envelope_sums_lie_below_rounding():
    # the configuration above: F1 and P1 keep three rates, and every rate
    # sum that the product rule leaves out of an envelope pair, formed in
    # full, has no coefficient above 1e-16 of the kept sums' largest
    grid = Grid(256)
    sched = ParamSchedule((5, 10), (5, 5))
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed, profile_band=8)
    state = builder.build()
    assert len(state.F1.rates) == 3 and len(state.P1.rates) == 3
    envelopes = builder._ingredients[2]
    dropped_any = False
    for a, ea in enumerate(envelopes):
        for eb in envelopes[a:]:
            full: dict = {}
            for r1, f1 in ea.terms.items():
                for r2, f2 in eb.terms.items():
                    full.setdefault(r1 + r2, []).append((f1, f2))
            kept = ea.pairs_by_rate(eb)
            top = {q: np.abs(f.coef).max() for q, f in product_sums(full)}
            dropped = [q for q in full if q not in kept]
            dropped_any = dropped_any or bool(dropped)
            largest = max(top[q] for q in kept)
            for q in dropped:
                assert top[q] <= 1e-16 * largest, (a, q, top[q] / largest)
    assert dropped_any


@pytest.mark.parametrize("n, band", [(256, 8), (512, 16)])
def test_no_level_build_product_is_padded(monkeypatch, n, band):
    # lam = (5, 10): every product the build forms picks a grid no finer
    # than the product grid, where it fits unpadded, so bounding it by
    # the product grid would change nothing
    out = []
    sums = spectral.product_sums

    def recorded(*a, **k):
        for key, f in sums(*a, **k):
            out.append((f.grid.n, f._band))
            yield key, f

    for module in (spectral, timefield, cons):
        monkeypatch.setattr(module, "product_sums", recorded)
    grid = Grid(n)
    sched = ParamSchedule((5, 10), (5, 5))
    seed = cons.seed_level(grid, sched)
    cons.EvenLevelBuilder(grid, sched, 2, seed, profile_band=band).build()
    assert len(out) > 40
    assert all(g <= n and b is not None for g, b in out)


def test_wp_shifts_run_on_the_grid_that_holds_them(monkeypatch):
    # grid 512, profile band 16, lam = (5, 10): the widest envelope (band
    # 80) moved by the largest |lam k|_inf (10) fits on grid 192, the
    # smallest 5-smooth grid holding band 90, where every shift of w_p and
    # its split runs in place of the product grid
    grid = Grid(512)
    sched = ParamSchedule((5, 10), (5, 5))
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed, profile_band=16)
    grids = []
    shift = SpectralField.shift
    monkeypatch.setattr(SpectralField, "shift", lambda self, *s: grids.append(
        self.grid.n) or shift(self, *s))
    builder.build(with_forcing=False)
    assert grids and set(grids) == {192}


def _pair_builder(grid=Grid(256)):
    sched = ParamSchedule((5, 10), (5, 5))
    seed = cons.seed_level(grid, sched)
    builder = cons.EvenLevelBuilder(grid, sched, 2, seed, profile_band=8)
    return builder, builder.build(with_forcing=False)


def _series_band(series):
    return max(f.band for f in series.terms.values())


def test_forcing_accumulates_on_its_own_grid_and_cuts_nothing(monkeypatch):
    # grid 256, profile band 8, lam = (5, 10): F1 and P1 accumulated on
    # grids grown to what is added equal, bit for bit, the same
    # accumulation on the product grid cut to each term's own grid
    grow = cons.EvenLevelBuilder._accumulate
    sizes = []

    def recorded(self, store, *a):
        grow(self, store, *a)
        sizes.extend(c.shape[-1] for c in store.values())

    def on_product_grid(self, store, rate, c, *a):
        store.setdefault(rate, np.zeros(c.shape[:-2] + (256, 256), complex))
        grow(self, store, rate, c, *a)

    builder, state = _pair_builder()
    monkeypatch.setattr(cons.EvenLevelBuilder, "_accumulate", recorded)
    builder.assemble_forcing(state)
    assert sizes and max(sizes) < 256
    wide, wide_state = _pair_builder()
    monkeypatch.setattr(cons.EvenLevelBuilder, "_accumulate",
                        on_product_grid)
    wide.assemble_forcing(wide_state)
    for name in ("F1", "P1"):
        got, ref = getattr(state, name), getattr(wide_state, name)
        assert sorted(got.terms) == sorted(ref.terms)
        for r, f in got.terms.items():
            assert f.grid == ref.terms[r].grid
            assert np.array_equal(f.coef, ref.terms[r].coef), (name, r)
            # each stored term lies on the smallest grid that holds it
            assert f.grid == grid_for(f.band) and f.grid.n <= max(sizes)


def test_forcing_accumulator_grows_to_what_is_added_and_refuses_the_rest():
    # product grid 256: a band-31 term on grid 64 starts an accumulator on
    # 64; a band-27 term moved by 100 reaches 127 = n/2 - 1 and grows it
    # to 256, where the sum equals both added on 256 from the start; band
    # 28 moved as far leaves the grid band and is refused
    builder, _ = _pair_builder()
    small, c = np.random.default_rng(3).standard_normal((2, 2, 64, 64)) + 0j
    k = np.abs(np.fft.fftfreq(64, 1 / 64))
    k = np.maximum(k[:, None], k[None, :])
    small[..., k > 31] = c[..., k > 27] = 0.0
    store = {}
    builder._accumulate(store, 1.0, small)
    assert store[1.0].shape == (2, 64, 64)
    builder._accumulate(store, 1.0, c, 27, (100, -3))
    want = np.zeros((2, 256, 256), complex)
    cons.add_shifted(want, small, (0, 0))
    cons.add_shifted(want, c, (100, -3))
    assert np.array_equal(store[1.0], want)
    with pytest.raises(ValueError, match="leaves the grid band"):
        builder._accumulate(store, 1.0, c, 28, (-3, 100))
    assert np.array_equal(store[1.0], want)


def test_pressure_contract_runs_on_the_grid_that_holds_its_terms(
        monkeypatch):
    builder, state = _pair_builder()
    builder.assemble_forcing(state)
    band = max(2 * _series_band(state.w_p), _series_band(state.F1),
               _series_band(state.P1), _series_band(state.w_s))
    grids = []
    flux = cons.flux_divergences
    monkeypatch.setattr(cons, "flux_divergences", lambda groups, grid: (
        grids.append(grid.n) or flux(groups, grid)))
    resid = cons.pressure_contract_residual(state, builder.grid)
    assert grids and set(grids) == {grid_for(band).n}
    assert grid_for(band).n < 256
    assert max(resid.values()) <= 1e-8
    # never finer than the grid it is given
    assert cons.contract_grid(state, Grid(128)) == Grid(128)


def test_heat_mode_residual_zero():
    assert cons.heat_mode_residual(Grid(512), 125,
                                   times=(0.0, 1e-5)) <= 1e-12
