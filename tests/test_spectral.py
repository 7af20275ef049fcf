"""Core transform layer: exactness of derivatives, products, projections."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns import spectral
from torusns.spaces import LittlewoodPaley
from torusns.spectral import (Grid, MatrixField, SpectralField, VectorField,
                              add_shifted, calderon_lift, fit_grid,
                              flux_divergences, grid_for, leray_project,
                              modulus, padded_physical, padded_spectral,
                              product_sums, sym_outer)

GRID = Grid(64)


def random_field(rng, grid=GRID, band=10, real=True):
    modes = {}
    for _ in range(8):
        k1 = int(rng.integers(-band, band + 1))
        k2 = int(rng.integers(-band, band + 1))
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[(k1, k2)] = modes.get((k1, k2), 0) + c
        if real:
            modes[(-k1, -k2)] = modes.get((-k1, -k2), 0) + np.conj(c)
    return SpectralField.from_modes(grid, modes)


def mode_sum(f, m=96):
    """Brute-force samples of f on the m x m grid: the explicit sum of its
    modes, each at the frequency ``Grid.k`` gives its index (no FFT)."""
    x = np.arange(m) * (2 * np.pi / m)
    p = np.zeros((m, m), dtype=complex)
    for (i, j), c in np.ndenumerate(f.coef):
        if c != 0:
            k1, k2 = f.grid.k[i], f.grid.k[j]
            p += c * np.exp(1j * (k1 * x[:, None] + k2 * x[None, :]))
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_single_mode_derivative_exact():
    f = SpectralField.from_modes(GRID, {(3, -2): 1.0, (-3, 2): 1.0})
    d = f.dx(0)
    expect = SpectralField.from_modes(GRID, {(3, -2): 3j, (-3, 2): -3j})
    assert np.abs(d.coef - expect.coef).max() == 0.0


def test_gradient_of_product_leibniz(rng):
    f = random_field(rng)
    g = random_field(rng)
    lhs = f.product(g).gradient()
    rhs_1 = f.dx(0).product(g) + f.product(g.dx(0))
    rhs_2 = f.dx(1).product(g) + f.product(g.dx(1))
    scale = max(lhs.u1.sup_norm(), 1.0)
    assert (lhs.u1 - rhs_1).sup_norm() <= 1e-12 * scale
    assert (lhs.u2 - rhs_2).sup_norm() <= 1e-12 * scale


def test_product_matches_physical_multiplication(rng):
    f = random_field(rng, band=10)
    g = random_field(rng, band=10)
    prod = f.product(g)
    # oracle: multiply on a grid large enough that no aliasing occurs
    big = Grid(256)
    pf = f.regrid(big).to_physical()
    pg = g.regrid(big).to_physical()
    oracle = np.fft.fft2(pf * pg) / big.n ** 2
    got = prod.regrid(big).coef
    assert np.abs(got - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1)


def test_product_unpadded_equals_padded(rng):
    # band sum below the alias-free threshold: both paths must agree
    f = random_field(rng, band=5)
    g = random_field(rng, band=5)
    small = f.regrid(Grid(32)).product(g.regrid(Grid(32)))
    large = f.product(g)
    assert (small.regrid(GRID) - large).sup_norm() <= 1e-12


def test_laplacian_heat_consistency(rng):
    f = random_field(rng)
    t = 1e-3
    heated = f.heat(t)
    # d/dt e^{t Delta} f = Delta e^{t Delta} f via a centred difference
    dt = 1e-6
    fd = (1.0 / (2 * dt)) * (f.heat(t + dt) - f.heat(t - dt))
    lap = heated.laplacian()
    assert (fd - lap).sup_norm() <= 1e-4 * max(lap.sup_norm(), 1.0)


def test_heat_semigroup(rng):
    f = random_field(rng)
    a = f.heat(1e-3).heat(2e-3)
    b = f.heat(3e-3)
    assert (a - b).sup_norm() <= 1e-13 * max(b.sup_norm(), 1.0)


def test_inverse_laplacian_roundtrip(rng):
    # inv_laplacian is (-Delta)^{-1}
    f = random_field(rng)
    f = f - SpectralField.from_modes(GRID, {(0, 0): f.mean()})
    back = (-1.0) * f.inv_laplacian().laplacian()
    assert (back - f).sup_norm() <= 1e-11 * max(f.sup_norm(), 1.0)


def test_shift_is_modulation(rng):
    f = random_field(rng, band=8)
    shifted = f.shift(5, -3)
    big = Grid(256)
    x = big.points()
    oracle = f.regrid(big).to_physical() * np.exp(1j * (5 * x[0] - 3 * x[1]))
    got = shifted.regrid(big).to_physical()
    assert np.abs(got - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1)


def test_shift_band_guard():
    f = SpectralField.from_modes(GRID, {(20, 0): 1.0, (-20, 0): 1.0})
    with pytest.raises(ValueError):
        f.shift(20, 0)


def _corner_pad(coef, m):
    """The n x n coefficients in a new m x m array by four corner copies,
    per component: an embedding for m >= n, else a cut to |xi|_inf < m/2
    with row and column m/2 emptied.  The oracle of the program's
    placement (``spectral._runs``), written without it."""
    n = coef.shape[-1]
    out = np.zeros(coef.shape[:-2] + (m, m), dtype=np.complex128)
    h = min(n, m) // 2
    out[..., :h, :h] = coef[..., :h, :h]
    out[..., :h, m - h:] = coef[..., :h, n - h:]
    out[..., m - h:, :h] = coef[..., n - h:, :h]
    out[..., m - h:, m - h:] = coef[..., n - h:, n - h:]
    if m < n:
        out[..., m // 2, :] = out[..., :, m // 2] = 0.0
    return out


def _shift_by_cut(c, v, n=None):
    """c shifted by v onto an n-grid (n defaults to c's): embedded on grid
    512, where no shift used here wraps, rolled there and cut back to n."""
    n = n or c.shape[-1]
    return _corner_pad(np.roll(_corner_pad(c, 512), v, axis=(-2, -1)), n)


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
@pytest.mark.parametrize("n, m", [(48, 64), (64, 48), (108, 180),
                                  (180, 108), (256, 108), (256, 48),
                                  (64, 64), (180, 180)])
def test_placement_is_the_corner_copy(rng, shape, n, m):
    # embeddings, cuts and same-size copies, and shifts from a finer grid,
    # equal the corner-copy oracle bit for bit
    c = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(
        shape + (n, n))
    assert np.array_equal(spectral._pad(c, m), _corner_pad(c, m))
    # regrid may cut only a field whose band fits the target
    banded = _corner_pad(_corner_pad(c, min(n, m)), n)
    f = SpectralField(Grid(n), banded)
    assert np.array_equal(f.regrid(Grid(m)).coef, _corner_pad(banded, m))
    if n > m:
        for v in ((0, 0), (5, -3), (-m // 2, 7)):
            acc = rng.standard_normal(shape + (m, m)) + 0j
            want = acc + _shift_by_cut(c, v, m)
            add_shifted(acc, c, v)
            assert np.array_equal(acc, want), v


def test_shift_drops_rounding_level_content_that_would_wrap(rng):
    # 1e-16 of the largest coefficient at k1 = +-30 is below the band (5):
    # a roll by 5 would carry the +30 coefficient past Nyquist to k1 = -29
    c = random_field(rng, band=5).coef
    c[30, 0] = c[-30, 0] = 1e-16 * np.abs(c).max()
    f = SpectralField(GRID, c)
    assert f.band == 5
    got = f.shift(5, 0).coef
    assert got[-29, 0] == 0.0
    assert got[-25, 0] == c[-30, 0]
    assert np.array_equal(got, _shift_by_cut(c, (5, 0)))


@pytest.mark.parametrize("s", [(3, -2), (-3, 2), (0, 3), (-1, 0)])
def test_shift_takes_a_product_with_rounding_content_up_to_nyquist(rng, s):
    # a product keeps rounding noise out to its grid's Nyquist; the band
    # guard (26 + 3 <= 31) admits the shift, and the noise that would wrap
    # is dropped
    f, g = (random_field(rng, band=b, real=True) for b in (12, 14))
    p = f.product(g)
    assert p.band == 26
    assert np.abs(p.coef[29:35]).max() > 0.0
    got = p.shift(*s)
    assert got.band == 26 + max(map(abs, s))
    assert np.array_equal(got.coef, _shift_by_cut(p.coef, s))
    x = Grid(256).points()
    oracle = p.regrid(Grid(256)).to_physical() * np.exp(
        1j * (s[0] * x[0] + s[1] * x[1]))
    err = np.abs(got.regrid(Grid(256)).to_physical() - oracle).max()
    assert err <= 1e-14 * np.abs(oracle).max()


def test_regrid_roundtrip_exact(rng):
    f = random_field(rng, band=10)
    back = f.regrid(Grid(256)).regrid(GRID)
    assert np.abs(back.coef - f.coef).max() == 0.0


def test_fit_grid_preserves_field(rng):
    f = random_field(rng, band=10).regrid(Grid(512))
    small = fit_grid(f)
    assert small.grid.n < 512
    assert (small.regrid(Grid(512)) - f).sup_norm() <= 1e-13


def test_fit_grid_vector_and_matrix(rng):
    big = Grid(512)
    a = random_field(rng, grid=Grid(128), band=10)
    b = random_field(rng, grid=Grid(128), band=40)
    v = VectorField(a, b).regrid(big)
    m = MatrixField(a, b, b, a).regrid(big)
    for field in (v, m):
        small = fit_grid(field)
        # the widest component (band 40) sets the grid
        assert small.grid.n == grid_for(40).n
        for got, want in zip(small.regrid(big), field):
            assert np.abs(got.coef - want.coef).max() == 0.0


def _smallest_grids_oracle(bands):
    """The smallest admissible grid from 64 up for each of the ascending
    ``bands``, in one upward sweep that decides each n once, by trial
    division."""
    out, n, admissible = [], 63, False
    for band in bands:
        while not (admissible and band <= n // 2 - 1):
            n += 1
            factors = [p for p in range(2, n + 1) if n % p == 0
                       and all(p % q for q in range(2, p))]
            admissible = n % 4 == 0 and set(factors) <= {2, 3, 5}
        out.append(n)
    return out


def test_grid_for_is_the_smallest_five_smooth_grid():
    assert [grid_for(b).n for b in range(601)] == _smallest_grids_oracle(
        range(601))


@pytest.mark.parametrize("n", [14, 28, 90, 98])
def test_grid_rejects_sizes_that_are_not_five_smooth_multiples_of_4(n):
    with pytest.raises(ValueError):
        Grid(n)


@pytest.mark.parametrize("n", [96, 180, 1536])
def test_grid_accepts_five_smooth_multiples_of_4(n):
    assert Grid(n).n == n and Grid(n).k.shape == (n,)


def test_regrid_through_a_power_of_two_is_exact_on_a_five_smooth_grid(rng):
    f = random_field(rng, grid=Grid(180), band=60)
    back = f.regrid(Grid(256)).regrid(Grid(180))
    assert np.array_equal(back.coef, f.coef)


def test_real_samples_on_a_five_smooth_grid_match_the_complex_path(rng):
    # n = 180, so the 3/2 grid is m = 270
    f = random_field(rng, grid=Grid(180), band=60)
    got = padded_physical(f)
    ref = padded_physical(SpectralField(f.grid, f.coef, real=False))
    assert f.real_samples and got.dtype == np.float64
    assert got.shape == (270, 270)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("band", [20, 50])
def test_product_on_a_five_smooth_grid_is_the_product_on_256_cut(rng, band):
    # band 20: unpadded on 180; band 50: on the 3/2 grid 270
    grid = Grid(180)
    f = random_field(rng, grid=grid, band=band)
    g = random_field(rng, grid=grid, band=band)
    got = f.product(g).coef
    big = Grid(256)
    ref = _corner_pad(f.regrid(big).product(g.regrid(big)).coef, 180)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_is_real_detects_hermitian(rng):
    f = random_field(rng, real=True)
    assert f.is_real()
    g = SpectralField.from_modes(GRID, {(1, 0): 1.0})
    assert not g.is_real()


def test_sup_norm_oversampling():
    # a pure mode's sup norm is its coefficient mass
    f = SpectralField.from_modes(GRID, {(7, 0): 0.5, (-7, 0): 0.5})
    assert abs(f.sup_norm() - 1.0) <= 1e-12


def test_matrix_sup_norm_is_pointwise_modulus(rng):
    m = MatrixField(random_field(rng), random_field(rng, real=False),
                    random_field(rng), random_field(rng, band=20))
    # brute force: each component sampled on the 3/2 grid, 96 x 96 here
    tot = sum(np.abs(mode_sum(comp)) ** 2 for comp in m)
    expect = np.sqrt(tot).max()
    assert abs(m.sup_norm() - expect) <= 1e-12 * expect


def test_modulus_of_a_multiple_is_that_of_the_formed_field(rng):
    # a block weight is real and even: a real field's multiple is sampled
    # without being formed, any other field's is formed and tests its own
    # reality; either way the samples are the formed field's, bit for bit
    w = LittlewoodPaley(GRID).weight(3)
    real = VectorField(random_field(rng), random_field(rng))
    mixed = VectorField(random_field(rng), random_field(rng, real=False))
    for f in (real, mixed, real.u1):
        assert np.array_equal(modulus(f, w), modulus(f.apply_symbol(w)))


def test_modulus_of_float_samples_squares_them_directly(rng):
    v = VectorField(random_field(rng, band=31), random_field(rng, band=20))
    p = padded_physical(v)
    assert p.dtype == np.float64
    want = np.sqrt(np.abs(p[0]) * np.abs(p[0]) + np.abs(p[1]) * np.abs(p[1]))
    assert np.array_equal(modulus(v), want)


def test_real_field_takes_real_samples(rng):
    f = random_field(rng, band=31)
    p = padded_physical(f)
    assert p.dtype == np.float64
    ref = np.fft.ifft2(_corner_pad(f.coef, 96)) * 96 ** 2
    assert np.abs(p - ref.real).max() <= 1e-14 * np.abs(ref).max()


def test_nyquist_content_keeps_complex_samples():
    # Hermitian, but _pad embeds the Nyquist row on one side only, so the
    # samples on the 3/2 grid are not real
    c = SpectralField.from_modes(GRID, {(3, 1): 1 + 1j, (-3, -1): 1 - 1j}).coef
    c[32, 0] = 0.7
    f = SpectralField(GRID, c)
    assert f.is_real()
    assert np.iscomplexobj(padded_physical(f))
    expect = np.abs(mode_sum(f)).max()
    assert abs(f.sup_norm() - expect) <= 1e-12 * expect


@pytest.mark.parametrize("real", [None, False])
def test_padded_product_of_real_fields_is_real(rng, real):
    # band 31 + 31: the product is formed on the 3/2 grid and truncated;
    # real=False sends the same operands through the complex transforms
    f, g = (SpectralField(GRID, random_field(rng, band=31).coef, real=real)
            for _ in range(2))
    p = f.product(g)
    assert not p.coef[32, :].any() and not p.coef[:, 32].any()
    assert p.real_samples


def test_rounding_level_nyquist_content_takes_real_samples(rng):
    c = random_field(rng, band=31).coef
    scale = np.abs(c).max()
    c[32, 5] = 1e-14 * scale
    c[7, 32] = -1e-14 * scale
    f = SpectralField(GRID, c)
    assert f.real_samples
    assert padded_physical(f).dtype == np.float64
    expect = np.abs(mode_sum(f)).max()
    assert abs(f.sup_norm() - expect) <= 1e-12 * expect


def test_one_operand_passed_twice_is_sampled_once(rng, monkeypatch):
    # one sampling, and the product of two equal operands, bit for bit
    f = random_field(rng, band=31)
    v = VectorField(f, random_field(rng, band=20))
    twin_f = SpectralField(GRID, f.coef.copy())
    twin_v = SpectralField(GRID, v.coef.copy())
    want = f.product(twin_f).coef, v.outer(twin_v).coef
    calls = []
    sample = spectral._physical
    monkeypatch.setattr(spectral, "_physical",
                        lambda *a: calls.append(a[0]) or sample(*a))
    got = f.product(f).coef, v.outer(v).coef
    assert len(calls) == 2 and calls[0] is f and calls[1] is v
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _factor(rng, kind, real, band, grid=GRID):
    parts = [random_field(rng, grid=grid, band=band, real=real)
             for _ in range(1 if kind == "scalar" else 2)]
    return parts[0] if kind == "scalar" else VectorField(*parts)


def _pairwise(f, g, op):
    """The pairwise product of f and g on GRID that ``op`` stands for."""
    f, g = f.regrid(GRID), g.regrid(GRID)
    if op is np.multiply:
        return f.product(g)
    if op is sym_outer:
        return 0.5 * (f.outer(g) + g.outer(f))
    return f.outer(g)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("bands", [(6, 8), (20, 14)])
@pytest.mark.parametrize("kind, op", [("scalar", np.multiply),
                                      ("vector", spectral._outer),
                                      ("vector", sym_outer)])
def test_product_sums_equal_the_sums_of_pairwise_products(
        rng, kind, op, real, bands):
    # bands (6, 8) fit unpadded, (20, 14) take the 3/2 grid; h lives on a
    # grid coarser than the product grid
    f, g = (_factor(rng, kind, real, b) for b in bands)
    h = _factor(rng, kind, real, 9, Grid(32))
    groups = {"fg+hg": [(f, g), (h, g)], "ff": [(f, f)], "hf+hh": [(h, f),
                                                                   (h, h)]}
    got = dict(product_sums(groups, GRID, op))
    assert list(got) == list(groups)
    for key, pairs in groups.items():
        want = _pairwise(*pairs[0], op)
        for pair in pairs[1:]:
            want = want + _pairwise(*pair, op)
        want = want.coef  # for sym_outer, t21 is read as t12
        scale = np.abs(want).max()
        assert got[key].grid == GRID and got[key].coef.shape == want.shape
        assert np.abs(got[key].coef - want).max() <= 1e-14 * scale


def test_product_sums_sample_each_field_once_and_transform_each_key_once(
        rng, monkeypatch):
    f, g, h = (random_field(rng, band=b) for b in (12, 20, 7))
    groups = {0: [(f, g), (f, h)], 1: [(g, h), (f, f)], 2: [(h, h)]}
    sampled, forward = [], []
    sample, transform = spectral._physical, spectral.padded_spectral
    monkeypatch.setattr(spectral, "_physical",
                        lambda *a: sampled.append(a[0]) or sample(*a))
    monkeypatch.setattr(spectral, "padded_spectral",
                        lambda *a: forward.append(a[0].shape) or transform(*a))
    out = list(product_sums(groups, GRID))
    assert len(sampled) == 3 and {id(x) for x in sampled} == {
        id(f), id(g), id(h)}
    assert len(forward) == len(out) == 3


def test_product_sums_pick_the_grid_of_the_widest_pair(rng):
    # the pair (f, g) has band sum 30 + 40 = 70, held by 144; the sums lie
    # there unpadded, their bands known, and equal the product formed on
    # a finer grid and cut back
    f = random_field(rng, band=30)
    g = random_field(rng, grid=Grid(96), band=40)
    assert f.band + g.band == 70 and grid_for(70) == Grid(144)
    out = dict(product_sums({"fg": [(f, g)], "ff": [(f, f)]}))
    assert [s.grid for s in out.values()] == [Grid(144)] * 2
    assert out["fg"].band == 70 and out["ff"].band == 2 * f.band
    big = Grid(288)
    want = f.regrid(big).product(g.regrid(big)).coef
    got = out["fg"].coef
    assert np.abs(got - _corner_pad(want, 144)).max() <= \
        1e-14 * np.abs(want).max()
    # a bound the pairs exceed: the sums lie on it, 3/2-padded, band unknown
    (_, cut), = product_sums({0: [(f, g)]}, Grid(128))
    assert cut.grid == Grid(128) and cut._band is None
    assert np.abs(cut.coef - _corner_pad(want, 128)).max() <= \
        1e-14 * np.abs(want).max()


def test_product_sums_never_go_below_the_finest_factor_grid(rng):
    # band sum 2 + 5 fits 64, but g lives on 180, so the sum does too
    f = random_field(rng, band=2)
    g = random_field(rng, grid=Grid(180), band=5)
    (_, p), = product_sums({0: [(f, g)]})
    assert p.grid == Grid(180) and p.band == f.band + g.band


@pytest.mark.parametrize("real", [True, False])
def test_unpadded_product_sums_leave_the_nyquist_lines_empty(rng, real):
    # band 15 + 15 fits GRID unpadded; what the transform leaves on row and
    # column n/2 is aliasing and rounding, and is cleared
    f, g = (random_field(rng, band=15, real=real) for _ in range(2))
    v = VectorField(f, g)
    for p in (f.product(g), v.outer(v), dict(product_sums(
            {0: [(v, VectorField(g, f))]}, op=sym_outer))[0]):
        assert p.grid == GRID and p.band is not None
        assert not p.coef[..., 32, :].any() and not p.coef[..., :, 32].any()


def test_product_and_outer_stay_on_the_field_grid(rng):
    # the rule alone would take 64 for band 10; the bound is self.grid
    f = random_field(rng, grid=Grid(128), band=5)
    g = random_field(rng, band=5)
    v = VectorField(f, f)
    for p in (f.product(g), f.product(f), v.outer(v)):
        assert p.grid == Grid(128) and p.band == 10
    assert dict(product_sums({0: [(f, g)]}))[0].grid == Grid(128)


def test_product_sums_refuse_a_factor_finer_than_the_product_grid(rng):
    f = random_field(rng, grid=Grid(128), band=8)
    with pytest.raises(ValueError):
        list(product_sums({0: [(f, f)]}, GRID))


@pytest.mark.parametrize("ns", [16, 32, 64])
@pytest.mark.parametrize("v", [(0, 0), (5, -3), (-31, 30), (17, 47),
                               (-64, 100)])
def test_add_shifted_is_pad_roll_add(rng, ns, v):
    acc = rng.standard_normal((2, 64, 64)) + 1j * rng.standard_normal(
        (2, 64, 64))
    c = rng.standard_normal((2, ns, ns)) + 1j * rng.standard_normal(
        (2, ns, ns))
    want = acc + _shift_by_cut(c, v, 64)
    add_shifted(acc, c, v)
    assert np.array_equal(acc, want)


def _banded(rng, shape, band):
    """A real stack on GRID: white noise cut to |xi|_inf <= band (band -1
    for the zero field)."""
    c = np.fft.fft2(rng.standard_normal(shape + (64, 64))) / 64 ** 2
    k = np.abs(GRID.k)
    c[..., np.maximum(k[:, None], k[None, :]) > band] = 0.0
    return SpectralField(GRID, c)


def _full_half_samples(f, m, symbol=None):
    """Reference samples: irfftn over both axes of the whole zero-filled
    k2 >= 0 half spectrum of symbol * f."""
    c, h = f.coef if symbol is None else f.coef * symbol, f.grid.nyquist
    half = np.zeros(c.shape[:-2] + (m, m // 2 + 1), dtype=complex)
    half[..., :h, :h] = c[..., :h, :h]
    half[..., m - h + 1:, :h] = c[..., h + 1:, :h]
    p = np.fft.irfftn(half, s=(m, m), axes=(-2, -1))
    p *= m * m
    return p


def _two_axis_coefficients(phys, n):
    """Reference coefficients: rfftn over both axes, the k2 < 0 columns
    (k2 = -m/2 included) mirrored from the half, then cut to n."""
    m = phys.shape[-1]
    r = np.fft.rfftn(phys, axes=(-2, -1))
    r /= m * m
    full = np.empty(phys.shape, dtype=complex)
    full[..., :m // 2] = r[..., :m // 2]
    full[..., m // 2:] = np.conj(r[..., -np.arange(m) % m, m // 2:0:-1])
    return _corner_pad(full, n)


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
@pytest.mark.parametrize("band", [-1, 0, 12, 31])
def test_live_column_transforms_match_the_two_axis_ones(rng, shape, band):
    # the zero field samples one column, band 31 = h - 1 prunes none
    f = _banded(rng, shape, band)
    assert f.real_samples
    weights = [None] + [LittlewoodPaley(GRID).weight(j) for j in (1, 3, 6)]
    for m in (64, 96):
        for w in weights:
            assert np.array_equal(spectral._physical(f, m, w),
                                  _full_half_samples(f, m, w))
        p = spectral._physical(f, m)
        phys = p * p + 1.0
        assert np.array_equal(padded_spectral(phys, 64),
                              _two_axis_coefficients(phys, 64))


def test_rounding_level_last_column_is_sampled(rng):
    # 1e-16 of the largest coefficient is beyond the band, not beyond the
    # nonzero extent: the samples keep it
    c = _banded(rng, (2,), 12).coef
    c[:, 3, 20] = c[:, -3, -20] = 1e-16 * np.abs(c).max()
    f = SpectralField(GRID, c)
    assert f.real_samples and f.band == 12
    got = padded_physical(f)
    assert np.array_equal(got, _full_half_samples(f, 96))
    c[:, 3, 20] = c[:, -3, -20] = 0.0
    assert not np.array_equal(got, padded_physical(SpectralField(GRID, c)))


def test_real_sampling_holds_one_half_spectrum():
    # band 16 on n = 256: the live columns take less than the half
    # spectrum that a two-axis inverse allocates beside the samples
    n, m = 256, 384
    modes = {(k1, k2): np.array([1.0, 0.5])
             for k1 in range(-16, 17) for k2 in range(-16, 17)}
    f = SpectralField.from_modes(Grid(n), modes)
    assert f.real_samples
    half_bytes = 2 * m * (m // 2 + 1) * 16
    tracemalloc.start()
    try:
        p = padded_physical(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.nbytes <= peak < 2 * half_bytes


def test_flux_divergences_of_a_real_vector_with_itself_transform_three_planes(
        rng, monkeypatch):
    v = VectorField(random_field(rng, band=31), random_field(rng, band=20))
    flux = v.outer(v)
    assert np.array_equal(flux.a12.coef, flux.a21.coef)
    want = flux.divergence().coef
    planes = []
    forward = spectral.padded_spectral
    monkeypatch.setattr(spectral, "padded_spectral",
                        lambda p, n: planes.append(p.shape[0]) or forward(p, n))
    (key, got), = flux_divergences({"vv": [(v, v)]}, GRID)
    assert key == "vv" and planes == [3]
    assert np.array_equal(got.coef, want)


def test_anti_hermitian_part_keeps_complex_samples(rng):
    c = random_field(rng).coef
    c[5, 2] += 1e-9 * np.abs(c).max()
    f = SpectralField(GRID, c)
    assert np.iscomplexobj(padded_physical(f))
    expect = np.abs(mode_sum(f)).max()
    assert abs(f.sup_norm() - expect) <= 1e-12 * expect


@pytest.mark.parametrize("m", [64, 96])
def test_padded_spectral_of_float_samples(rng, m):
    phys = rng.standard_normal((m, m))
    ref = _corner_pad(np.fft.fft2(phys) / m ** 2, 64)
    got = padded_spectral(phys, 64)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("band", [15, 31])
def test_real_product_matches_complex_path(rng, band):
    # band 15: the product fits unpadded (m = n); band 31: 3/2 padding
    f, g = random_field(rng, band=band), random_field(rng, band=band)
    got = f.product(g)
    ref = SpectralField(GRID, f.coef, real=False).product(
        SpectralField(GRID, g.coef, real=False))
    assert got.band == ref.band
    assert np.abs(got.coef - ref.coef).max() <= 1e-14 * np.abs(ref.coef).max()


def test_mixed_vector_sup_norm_takes_the_complex_path(rng):
    # one real and one complex component: the stack is sampled on the
    # complex transforms, and its sup is that of the pointwise modulus
    v = VectorField(random_field(rng), random_field(rng, real=False))
    assert v.u1.real_samples and not v.real_samples
    assert np.iscomplexobj(padded_physical(v))
    expect = np.sqrt(sum(np.abs(mode_sum(c)) ** 2 for c in v)).max()
    assert abs(v.sup_norm() - expect) <= 1e-12 * expect


def test_outer_of_unequal_bands_matches_scalar_products(rng):
    # bands 20 and 4: the stack is padded (40 > 31) although the product of
    # the two narrow components would fit unpadded
    a = VectorField(random_field(rng, band=20), random_field(rng, band=4))
    b = VectorField(random_field(rng, band=20), random_field(rng, band=4))
    got = a.outer(b)
    for (i, j), g in zip(np.ndindex(2, 2), got):
        want = list(a)[i].product(list(b)[j])
        scale = np.abs(want.coef).max()
        assert np.abs(g.coef - want.coef).max() <= 1e-15 * scale


def test_l2_norm_parseval(rng):
    f = random_field(rng)
    amp = np.sqrt(np.sum(np.abs(f.coef) ** 2) * (2 * np.pi) ** 2)
    assert abs(f.l2_norm() - amp) <= 1e-10 * amp


def test_leray_removes_divergence(rng):
    v = VectorField(random_field(rng), random_field(rng))
    p = leray_project(v)
    assert p.divergence().sup_norm() <= 1e-11 * max(p.sup_norm(), 1.0)
    # idempotent
    assert (leray_project(p) - p).sup_norm() <= 1e-12 * max(p.sup_norm(), 1)


def test_leray_keeps_solenoidal(rng):
    w = random_field(rng).perp_gradient()
    assert (leray_project(w) - w).sup_norm() <= 1e-12 * max(w.sup_norm(), 1)


def test_calderon_lift_divergence_identity(rng):
    for _ in range(100):
        w = random_field(rng).perp_gradient()
        r = calderon_lift(w)
        resid = (r.divergence() - w).sup_norm()
        assert resid <= 1e-12 * max(w.sup_norm(), 1.0)


def test_calderon_lift_shear_closed_form():
    # w = lam sin(lam x1) e2 lifts to the symbolic closed form with
    # off-diagonal entries -cos(lam x1) / 1 and zero diagonal
    lam = 8
    w2 = SpectralField.from_modes(GRID, {(lam, 0): -0.5j * lam,
                                         (-lam, 0): 0.5j * lam})
    w = VectorField(SpectralField.zero(GRID), w2)
    r = calderon_lift(w)
    cos = SpectralField.from_modes(GRID, {(lam, 0): -0.5, (-lam, 0): -0.5})
    assert (r.a11).sup_norm() <= 1e-13
    assert (r.a22).sup_norm() <= 1e-13
    assert (r.a12 - cos).sup_norm() <= 1e-13
    assert (r.a21 - cos).sup_norm() <= 1e-13


def test_calderon_lift_rejects_divergent(rng):
    v = VectorField(random_field(rng), random_field(rng))
    with pytest.raises(ValueError):
        calderon_lift(v)


def test_matrix_row_divergence_transpose(rng):
    a = random_field(rng)
    m = MatrixField(a, a.dx(0), a.dx(1), a)
    d = m.divergence()
    expect1 = a.dx(0) + a.dx(0).dx(1)
    expect2 = a.dx(1).dx(0) + a.dx(1)
    assert (d.u1 - expect1).sup_norm() <= 1e-11 * max(expect1.sup_norm(), 1)
    assert (d.u2 - expect2).sup_norm() <= 1e-11 * max(expect2.sup_norm(), 1)


@settings(max_examples=25, deadline=None)
@given(k1=st.integers(-20, 20), k2=st.integers(-20, 20),
       t=st.floats(0.0, 1.0))
def test_heat_multiplier_property(k1, k2, t):
    f = SpectralField.from_modes(GRID, {(k1, k2): 1.0})
    h = f.heat(t)
    expect = np.exp(-(k1 * k1 + k2 * k2) * t)
    got = h.coef[k1 % 64, k2 % 64]
    assert abs(got - expect) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 30))
def test_perp_gradient_is_solenoidal(seed):
    rng = np.random.default_rng(seed)
    w = random_field(rng).perp_gradient()
    assert w.divergence().sup_norm() <= 1e-11 * max(w.sup_norm(), 1.0)


#: numpy.fft / scipy.fft transforms; only spectral.py may call them
TRANSFORMS = {f"{lib}.{fn}" for lib in ("numpy.fft", "scipy.fft")
              for fn in ("fft", "ifft", "rfft", "irfft",
                         "fft2", "ifft2", "rfft2", "irfft2",
                         "fftn", "ifftn", "rfftn", "irfftn")}


def _transform_uses(path):
    """(function, dotted name) of every transform or _pad/_runs use."""
    tree = ast.parse(path.read_text())
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[a.asname or a.name.split(".")[0]] = \
                    a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for a in node.names:
                alias[a.asname or a.name] = f"{base}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return alias.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = func or node.name
        name = dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) \
            else None
        if name in TRANSFORMS:
            uses.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    for name in alias.values():
        if name.endswith(("spectral._pad", "spectral._runs")):
            uses.append((None, name))
    return uses


#: the field classes; no module asks a field for its class
FIELD_CLASSES = {"SpectralField", "VectorField", "MatrixField"}


def _field_internals(path):
    """Reads of the private caches ``_band``/``_real``, and isinstance
    calls naming a field class, in one source file."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("_band", "_real"):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") \
                == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node.args[1])}
            if names & FIELD_CLASSES:
                hits.append((node.lineno, "isinstance"))
    return hits


def test_field_internals_are_owned_by_spectral():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusns"
    stray = [(path.name, line, what)
             for path in sorted(src.glob("*.py"))
             for line, what in _field_internals(path)
             if path.name != "spectral.py" or what == "isinstance"]
    assert stray == []
    assert _field_internals(src / "spectral.py")


#: the 3/2 transform pair and the three-plane flux layout
SPECTRAL_ONLY = {"padded_physical", "padded_spectral", "sym_outer"}


def test_transform_pair_and_flux_planes_are_named_only_by_spectral():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusns"
    stray = [(path.name, getattr(node, "lineno", None), name)
             for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          getattr(node, "name", None))
             if name in SPECTRAL_ONLY]
    assert stray == []


def test_transforms_are_owned_by_spectral():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusns"
    assert (src / "spectral.py").is_file()
    stray = [(path.name, func, name)
             for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
             for func, name in _transform_uses(path)]
    assert stray == []
    own = {name for _, name in _transform_uses(src / "spectral.py")}
    assert own
    # one-axis passes use the n-D names with ``axes=``, which the
    # benchmark's per-layer transform counts know
    assert not own & {f"{lib}.{fn}" for lib in ("numpy.fft", "scipy.fft")
                      for fn in ("fft", "ifft", "rfft", "irfft")}
