"""Level construction: algebraic identities at a reduced profile band.

The full-band run lives in the acceptance suite; these tests exercise
exactly the same code path at a band that fits a 1024 grid.
"""

import math

import numpy as np
import pytest

from torusns import construction as cons
from torusns.schedule import toy_schedule
from torusns.spectral import Grid

GRID = Grid(1024)
SCHED = toy_schedule()


@pytest.fixture(scope="module")
def level_pair():
    seed = cons.seed_level(GRID, SCHED)
    state = cons.build_level(GRID, SCHED, 2, seed, profile_band=8)
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
        assert f.u1.is_real() and f.u2.is_real()
    for f in state.F1.terms.values():
        assert f.u1.is_real() and f.u2.is_real()


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


def test_heat_mode_residual_zero():
    assert cons.heat_mode_residual(Grid(512), 125,
                                   times=(0.0, 1e-5)) <= 1e-12
