"""Littlewood-Paley machinery and the norm oracles."""

import numpy as np
import pytest

from torusns.spaces import (LittlewoodPaley, besov_norm, block_lp_norms,
                            chemin_lerner_norm, cn_norm,
                            oscillatory_bound_check, smooth_step)
from torusns.spectral import Grid, SpectralField, VectorField

GRID = Grid(128)


def random_band_limited(rng, grid=GRID, band=20):
    modes = {}
    for _ in range(12):
        k1 = int(rng.integers(-band, band + 1))
        k2 = int(rng.integers(-band, band + 1))
        if (k1, k2) == (0, 0):
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[(k1, k2)] = modes.get((k1, k2), 0) + c
        modes[(-k1, -k2)] = modes.get((-k1, -k2), 0) + np.conj(c)
    return SpectralField.from_modes(grid, modes)


def oracle_block_sup(f, j):
    """Brute-force oracle: weight every mode by the block bump and take
    the sup over the same 3/2-oversampled physical grid the norm uses,
    evaluating the mode sum explicitly (no FFT)."""
    lp = LittlewoodPaley(f.grid)
    w = lp.weight(j)
    n = f.grid.n
    m = (3 * n) // 2
    x = np.arange(m) * (2.0 * np.pi / m)
    x1 = x[:, None]
    x2 = x[None, :]
    total = np.zeros((m, m), dtype=complex)
    idx = np.argwhere(np.abs(f.coef) * w > 0)
    k = f.grid.k
    for i1, i2 in idx:
        amp = f.coef[i1, i2] * w[i1, i2]
        total += amp * np.exp(1j * (k[i1] * x1 + k[i2] * x2))
    return float(np.abs(total).max())


def test_smooth_step_plateaus():
    assert smooth_step(0.25) == 0.0
    assert smooth_step(0.75) == 1.0
    assert 0.0 < smooth_step(0.5) < 1.0


def test_partition_of_unity_reconstruction():
    lp = LittlewoodPaley(GRID)
    total = sum(lp.weight(j) for j in lp.blocks)
    nonzero = GRID.ksq > 0
    assert np.abs(total[nonzero] - 1.0).max() <= 1e-12


def test_partition_of_unity_on_a_five_smooth_grid():
    # n = 180: the top block's index comes from the largest |xi|, not
    # from a power of two
    grid = Grid(180)
    lp = LittlewoodPaley(grid)
    total = sum(lp.weight(j) for j in lp.blocks)
    assert np.abs(total[grid.ksq > 0] - 1.0).max() <= 1e-12
    assert lp.weight(lp.j_top - 1)[grid.ksq > 0].any()


def test_single_mode_block_weight_is_one():
    # a dyadic mode sits on a block plateau with weight exactly 1
    for k in (1, 2, 4, 8, 16, 32):
        f = SpectralField.from_modes(GRID, {(k, 0): 1.0})
        vals = block_lp_norms(f, np.inf)
        assert abs(vals.max() - 1.0) <= 1e-12
        assert abs(vals.sum() - 1.0) <= 1e-12


def test_besov_single_mode_golden():
    f = SpectralField.from_modes(GRID, {(8, 0): 0.5, (-8, 0): 0.5})
    val = besov_norm(f, -1.0, np.inf, np.inf)
    assert abs(val - 1.0 / 8.0) <= 1e-13


def test_besov_oracle_agreement():
    rng = np.random.default_rng(17)
    lp = LittlewoodPaley(GRID)
    for _ in range(50):
        f = random_band_limited(rng)
        vals = block_lp_norms(f, np.inf)
        # compare two representative blocks against the direct mode sum
        active = [j for j in lp.blocks if vals[j] > 1e-8]
        for j in active[:2]:
            oracle = oracle_block_sup(f, j)
            assert abs(vals[j] - oracle) <= 1e-12 * max(oracle, 1.0)


def test_besov_homogeneity():
    rng = np.random.default_rng(23)
    f = random_band_limited(rng)
    a = besov_norm(f, -0.5, np.inf, 1.0)
    b = besov_norm(3.0 * f, -0.5, np.inf, 1.0)
    assert abs(b - 3.0 * a) <= 1e-11 * max(b, 1.0)


def test_chemin_lerner_requires_samples():
    f = SpectralField.from_modes(GRID, {(4, 0): 1.0, (-4, 0): 1.0})
    with pytest.raises(ValueError):
        chemin_lerner_norm([0.0, 1.0], [f, f], -0.5, np.inf, 1.0, np.inf)


def test_chemin_lerner_constant_in_time_matches_besov():
    f = SpectralField.from_modes(GRID, {(4, 0): 1.0, (-4, 0): 1.0})
    times = np.linspace(0.0, 1.0, 9)
    val = chemin_lerner_norm(times, [f] * 9, -0.5, np.inf, 1.0, np.inf)
    ref = besov_norm(f, -0.5, np.inf, 1.0)
    assert abs(val - ref) <= 1e-12 * max(ref, 1.0)


def test_cn_norm_single_mode():
    f = SpectralField.from_modes(GRID, {(3, 0): 0.5, (-3, 0): 0.5})
    # cos(3 x1): C0 = 1, C1 adds 3, C2 adds 9
    assert abs(cn_norm(f, 0) - 1.0) <= 1e-12
    assert abs(cn_norm(f, 1) - 4.0) <= 1e-11
    assert abs(cn_norm(f, 2) - 13.0) <= 1e-10


def test_cn_norm_vector_is_sup_of_modulus():
    # v = (cos x1, sin x1): |v| = 1 everywhere, while the component sups
    # would give hypot(1, 1)
    v = VectorField(SpectralField.from_modes(GRID, {(1, 0): 0.5, (-1, 0): 0.5}),
                    SpectralField.from_modes(GRID, {(1, 0): -0.5j, (-1, 0): 0.5j}))
    assert abs(cn_norm(v, 0) - v.sup_norm()) <= 1e-12
    assert abs(v.sup_norm() - 1.0) <= 1e-12


def test_oscillatory_bound_constant_cos_random():
    rng = np.random.default_rng(31)
    grid = Grid(512)
    envelopes = {
        "one": SpectralField.from_modes(grid, {(0, 0): 1.0}),
        "cos": SpectralField.from_modes(grid, {(0, 1): 0.5, (0, -1): 0.5}),
        "random": random_band_limited(rng, grid, band=6),
    }
    for lam in (32, 64, 128):
        for name, f in envelopes.items():
            lhs, rhs, ratio = oscillatory_bound_check(f, (1, 0), lam)
            assert ratio <= 8.0, (name, lam, ratio)
