"""Littlewood-Paley machinery and the norm oracles."""

import tracemalloc

import numpy as np
import pytest

from torusns import spectral
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


def _random_field(rng, grid, shape, real, band):
    """Random coefficients on |xi|_inf <= band with a random decay; real
    samples when ``real``."""
    k = np.abs(grid.k)
    c = np.zeros(shape + (grid.n, grid.n), dtype=complex)
    box = (k[:, None] <= band) & (k[None, :] <= band)
    c[..., box] = (rng.standard_normal(c[..., box].shape)
                   + 1j * rng.standard_normal(c[..., box].shape))
    c *= np.exp(-rng.uniform(0.0, 0.05) * grid.ksq)
    if real:
        c = np.fft.fft2(np.fft.ifft2(c).real)
    return SpectralField(grid, c)


def _rise_then_fall(grid, f):
    """Nine samples t e^{-(1 + 1e-3 |xi|^2) t} f: zero at t = 0, then at
    geometric t from 1/64 to 64, as the corrector window's are.  Each mode
    rises to its peak and falls again, the low modes in the middle and
    the high ones earlier, as w_L's samples do."""
    return [SpectralField(grid, f.coef * t * np.exp(-(1.0 + 1e-3 * grid.ksq)
                                                    * t))
            for t in np.r_[0.0, np.geomspace(1.0 / 64.0, 64.0, 8)]]


def _skip_cases():
    """(grid, fields) cases on grids 64, 96 and 128: random real and complex
    scalars and vectors decaying in time, a real vector rising then
    falling, and a single mode, each with zero samples."""
    rng = np.random.default_rng(41)
    for n in (64, 96, 128):
        grid = Grid(n)
        for shape, real in (((), True), ((2,), True), ((2,), False),
                            ((), False)):
            f = _random_field(rng, grid, shape, real, n // 2 - 2)
            fs = [SpectralField(grid, f.coef * np.exp(-grid.ksq * 0.02 * i)
                                * (1.0 + 0.3 * np.sin(i)))
                  for i in range(9)]
            fs[0] = 0.0 * f    # a zero sample
            yield grid, fs
            if shape == (2,) and real:
                yield grid, _rise_then_fall(grid, f)
        mode = SpectralField.from_modes(grid, {(5, 3): 1.0, (-5, -3): 1.0})
        # the bound of a single mode is tight, so a larger later sample
        # must be taken
        yield grid, [SpectralField.zero(grid)] * 3 + [
            a * mode for a in (0.5, 1.0, 0.25, 1.2, 0.9, 1.2 + 1e-9)]
        # B^0_{inf,inf} samples block 3 (cos 8x1 + sin 8x1, bound 2, sup
        # about 1.37) first; block 2's tight single mode is larger by 1e-9
        loose = SpectralField.from_modes(grid, {(8, 0): 0.5 - 0.5j,
                                                (-8, 0): 0.5 + 0.5j})
        a = 0.5 * (1.0 + 1e-9) * block_lp_norms(loose, np.inf)[3]
        yield grid, [SpectralField.zero(grid)] * 8 + [
            loose + SpectralField.from_modes(grid, {(4, 0): a, (-4, 0): a})]


def test_skipping_is_exact():
    # the skip rule drops only values below one kept, so every norm equals
    # the one assembled from every block's sampled sup, bit for bit
    for grid, fs in _skip_cases():
        js = np.arange(len(LittlewoodPaley(grid).blocks))
        rows = np.array([block_lp_norms(f, np.inf) for f in fs])
        times = np.arange(len(fs), dtype=float)
        for s in (-0.5, 0.0, 0.5, -1.0):
            per_block = np.array([(2.0 ** (j * s)) * v
                                  for j, v in zip(js, rows.max(axis=0))])
            assert chemin_lerner_norm(times, iter(fs), s, np.inf, 1.0,
                                      np.inf) == float(np.sum(per_block))
            assert chemin_lerner_norm(times, fs, s, np.inf, np.inf,
                                      np.inf) == float(per_block.max())
            for f, row in zip(fs, rows):
                weighted = np.array([(2.0 ** (j * s)) * v
                                     for j, v in zip(js, row)])
                assert besov_norm(f, s, np.inf, np.inf) == float(weighted.max())
                assert besov_norm(f, s, np.inf, 1.0) == float(np.sum(weighted))


def test_block_bound_holds():
    # each block's sampled sup is at most its bound B_j, up to the skip
    # rule's margin, and a block that meets no coefficient reads 0
    for grid, fs in _skip_cases():
        lp = LittlewoodPaley(grid)
        for f in fs:
            bound, live = lp.bounds(f)
            vals = block_lp_norms(f, np.inf)
            assert np.all(vals <= (1.0 + 1e-12) * bound)
            assert np.all(vals[~live] == 0.0) and np.all(bound[~live] == 0.0)


def test_decaying_samples_skip_blocks(monkeypatch):
    # a decaying sequence sets each block's max at its first sample, so
    # the later ones are skipped
    grid = Grid(96)
    rng = np.random.default_rng(3)
    f = _random_field(rng, grid, (2,), True, 40)
    fs = [SpectralField(grid, f.coef * np.exp(-grid.ksq * 0.01 * i))
          for i in range(8)]
    live = LittlewoodPaley(grid).bounds(f)[1].sum()
    calls = []
    sample = spectral._physical
    monkeypatch.setattr(spectral, "_physical",
                        lambda *a, **k: calls.append(1) or sample(*a, **k))
    chemin_lerner_norm(np.arange(8.0), fs, -0.5, np.inf, 1.0, np.inf)
    assert live <= len(calls) < len(fs) * live


def _time_order_samplings(lp, fs):
    """How many blocks a pass in time order samples: block j of a sample
    where its weight meets a nonzero coefficient and (1 + 1e-12) B_j
    reaches block j's largest value so far."""
    peak, count = 0.0, 0
    for f in fs:
        bound, live = lp.bounds(f)
        count += int((live & ((1 + 1e-12) * bound >= peak)).sum())
        peak = np.maximum(peak, lp.sups(f))
    return count


def test_bound_order_samples_fewer_blocks_than_time_order(monkeypatch):
    # while the samples rise, each is a block's largest so far, so a pass
    # in time order samples it again; bound order takes each block's
    # largest bounds first and stops
    grid = Grid(96)
    f = _random_field(np.random.default_rng(3), grid, (2,), True, 40)
    fs = _rise_then_fall(grid, f)
    lp = LittlewoodPaley(grid)
    live = int(lp.bounds(f)[1].sum())
    in_time_order = _time_order_samplings(lp, fs)
    calls = []
    sample = spectral._physical
    monkeypatch.setattr(spectral, "_physical",
                        lambda *a, **k: calls.append(1) or sample(*a, **k))
    chemin_lerner_norm(np.arange(9.0), fs, -0.5, np.inf, 1.0, np.inf)
    assert live <= len(calls) < in_time_order


def test_chemin_lerner_reads_its_fields_once():
    f = SpectralField.from_modes(GRID, {(4, 0): 1.0, (-4, 0): 1.0})
    times = np.arange(9.0)
    pulled = []

    def samples(count):
        for i in range(count):
            pulled.append(i)
            yield (1.0 + i % 4) * f

    want = chemin_lerner_norm(times, list(samples(9)), -0.5, np.inf, 1.0,
                              np.inf)
    pulled.clear()
    assert chemin_lerner_norm(times, samples(9), -0.5, np.inf, 1.0,
                              np.inf) == want
    assert pulled == list(range(9))
    for count in (8, 10):
        with pytest.raises(ValueError):
            chemin_lerner_norm(times, samples(count), -0.5, np.inf, 1.0,
                               np.inf)


def test_chemin_lerner_keeps_slabs_not_whole_samples():
    # 16 real samples of band 20 on grid 256, each made as it is read:
    # the norm keeps their half-spectrum slabs, so its peak stays below
    # the bytes of four whole samples
    grid = Grid(256)
    k = np.abs(grid.k)
    rng = np.random.default_rng(5)
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    box = (k[:, None] <= 20) & (k[None, :] <= 20)
    c[:, box] = rng.standard_normal((2, int(box.sum()))) \
        + 1j * rng.standard_normal((2, int(box.sum())))
    minus = (-np.arange(grid.n)) % grid.n
    c = 0.5 * (c + c[:, minus][:, :, minus].conj())
    assert SpectralField(grid, c).real_samples
    LittlewoodPaley(grid)    # the grid's block tables, cached for good
    samples = (SpectralField(grid, c * (1.0 + np.sin(i)), real=True)
               for i in range(16))
    tracemalloc.start()
    try:
        chemin_lerner_norm(np.arange(16.0), samples, -0.5, np.inf, 1.0,
                           np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * c.nbytes


def test_only_sup_exponents_are_taken():
    f = SpectralField.from_modes(GRID, {(4, 0): 1.0, (-4, 0): 1.0})
    times = np.linspace(0.0, 1.0, 9)
    for call in (lambda: block_lp_norms(f, 2.0),
                 lambda: besov_norm(f, -1.0, 2.0, np.inf),
                 lambda: chemin_lerner_norm(times, [f] * 9, -0.5, 2.0, 1.0,
                                            np.inf),
                 lambda: chemin_lerner_norm(times, [f] * 9, -0.5, np.inf,
                                            1.0, 2.0)):
        with pytest.raises(ValueError):
            call()
