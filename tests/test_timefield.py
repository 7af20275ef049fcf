"""Exponential-in-time series algebra and the space-time mollifier."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from torusns.spectral import (Grid, SpectralField, VectorField,
                              product_sums)
from torusns.timefield import ExpSeries, mollify_time, time_kernel_factor

GRID = Grid(64)


def mode(a, k=(1, 0)):
    return SpectralField.from_modes(GRID, {k: a, (-k[0], -k[1]): np.conj(a)})


def test_at_matches_closed_form():
    s = ExpSeries({2.0: mode(1.0), 5.0: mode(0.5)})
    t = 0.3
    got = s.at(t)
    expect = math.exp(-2.0 * t) * mode(1.0) + math.exp(-5.0 * t) * mode(0.5)
    assert (got - expect).sup_norm() <= 1e-14


def test_dt_is_exact_derivative():
    s = ExpSeries({3.0: mode(1.0)})
    t = 0.1
    h = 1e-6
    fd = (1.0 / (2 * h)) * (s.at(t + h) - s.at(t - h))
    exact = s.dt().at(t)
    assert (fd - exact).sup_norm() <= 1e-7 * max(exact.sup_norm(), 1.0)


def test_product_adds_rates():
    a = ExpSeries({1.0: mode(1.0)})
    b = ExpSeries({2.0: mode(1.0)})
    c = a.product(b)
    assert list(c.terms) == [3.0]


def test_product_leaves_out_a_faster_sum_below_rounding():
    # ||mode(a)||_1 = 2|a|: rate 0 bounds 4, rate 3 bounds 8e-9 and rate 6
    # 4e-18, below 1e-16 of the top at a larger rate
    a = ExpSeries({0.0: mode(1.0), 3.0: mode(1e-9, (2, 0))})
    c = a.product(a)
    assert sorted(c.terms) == [0.0, 3.0]


def test_product_keeps_a_tiny_sum_slower_than_the_top():
    # the same ladder with the large term at rate 5: the 4e-18 sum at rate
    # 0 decays slower than the top and is kept
    a = ExpSeries({5.0: mode(1.0), 0.0: mode(1e-9, (2, 0))})
    c = a.product(a)
    assert sorted(c.terms) == [0.0, 5.0, 10.0]
    want = mode(1e-9, (2, 0)).product(mode(1e-9, (2, 0)))
    assert np.array_equal(c.terms[0.0].coef, want.coef)


def test_a_dropped_sum_does_not_widen_the_product_grid():
    # band-30 modes: the rate-3 sum has band 31, held by GRID; the rate-6
    # sum (band 60, bound 4e-18 of the top's 4) would need 128, and is
    # left out before the grid is picked
    a = ExpSeries({0.0: mode(1.0), 3.0: mode(1e-9, (30, 0))})
    assert sorted(a.pairs_by_rate(a)) == [0.0, 3.0]
    c = a.product(a)
    assert sorted(c.terms) == [0.0, 3.0]
    assert all(f.grid == GRID for f in c.terms.values())
    assert c.terms[3.0].band == 31
    wide = a.terms[3.0]
    assert dict(product_sums({6.0: [(wide, wide)]}))[6.0].grid == Grid(128)


def test_product_threshold_is_one_part_in_1e16():
    # bounds 4 and 4 eps: eps just above 1e-16 is kept, just below is not
    a = ExpSeries({0.0: mode(1.0)})
    above = ExpSeries({0.0: mode(1.0), 2.0: mode(1.01e-16, (3, 0))})
    below = ExpSeries({0.0: mode(1.0), 2.0: mode(0.99e-16, (3, 0))})
    assert sorted(a.product(above).terms) == [0.0, 2.0]
    assert sorted(a.product(below).terms) == [0.0]


def test_product_skips_a_pair_with_a_zero_factor():
    zero = SpectralField.zero(GRID)
    b = ExpSeries({0.0: mode(0.5, (2, 0)), 1.0: mode(0.25, (0, 3))})
    a = ExpSeries({0.0: mode(1.0), 1.0: zero})
    pairs = a.pairs_by_rate(b)
    assert sorted(pairs) == [0.0, 1.0]  # rate 2 pairs only the zero term
    assert all(f is not zero for p in pairs.values() for f, _ in p)
    got = a.product(b)
    want = ExpSeries({0.0: mode(1.0)}).product(b)
    assert sorted(got.terms) == sorted(want.terms)
    for r, f in want.terms.items():
        assert np.array_equal(got.terms[r].coef, f.coef)


def test_product_of_zero_factors_is_empty():
    zero = SpectralField.zero(GRID)
    a = ExpSeries({0.0: zero, 3.0: zero})
    b = ExpSeries({0.0: mode(1.0), 3.0: mode(0.5)})
    assert a.product(b).terms == {}
    assert b.product(a).terms == {}


def test_scale_rates_shifts_all_rates():
    s = ExpSeries({1.0: mode(1.0), 4.0: mode(2.0)})
    shifted = s.scale_rates(10.0)
    assert sorted(shifted.terms) == [11.0, 14.0]
    t = 0.05
    ref = math.exp(-10.0 * t) * s.at(t)
    assert (shifted.at(t) - ref).sup_norm() <= 1e-13


def test_mixed_grid_accumulation():
    big = SpectralField.from_modes(Grid(128), {(1, 0): 1.0, (-1, 0): 1.0})
    s = ExpSeries({1.0: mode(1.0)}) + ExpSeries({1.0: big})
    out = s.at(0.0)
    assert out.grid.n == 128
    expect = mode(1.0).regrid(Grid(128)) + big
    assert (out - expect).sup_norm() <= 1e-14


def test_at_adds_the_regridded_terms_in_order():
    # vector terms on grids 64, 128, 64 and 128: the value lives on grid
    # 128 and equals, bit for bit, the scaled terms regridded there and
    # added in order; a later term on that grid keeps its Nyquist lines
    big = Grid(128)
    v = VectorField(mode(1.0 + 0.5j, (3, 1)), mode(0.25, (0, 2)))
    w = VectorField(SpectralField.from_modes(big, {(40, -7): 2.0}),
                    SpectralField.from_modes(big, {(5, 50): 1j}))
    nyq = np.zeros((2, 128, 128), dtype=complex)
    nyq[0, 64, 3], nyq[1, 5, 64] = 0.5, 0.25j
    s = ExpSeries({4.0: v, 9.0: w, 1.0: -1.5 * v.dx(0),
                   16.0: SpectralField(big, nyq)})
    for t in (0.0, 0.02):
        got = s.at(t)
        want = None
        for r, f in s.terms.items():
            term = (math.exp(-r * t) * f).regrid(big)
            want = term if want is None else want + term
        assert got.grid == big and got.band == want.band
        assert np.array_equal(got.coef, want.coef)


def test_time_kernel_factor_near_one_for_slow_rates():
    # int of the unit-mass forward bump against e^{-r(s-t)}: for r l << 1
    # the factor is within r l of 1
    ell = 1e-4
    for r in (0.0, 1.0, 100.0):
        f = time_kernel_factor(r, ell)
        assert abs(f - 1.0) <= r * ell + 1e-12


def test_mollify_time_preserves_rates_and_reality():
    s = ExpSeries({0.0: mode(1.0), 625.0: mode(0.5)})
    m = mollify_time(s, 1e-4)
    assert sorted(m.terms) == [0.0, 625.0]
    for f in m.terms.values():
        assert f.is_real()


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 0.1))
def test_series_addition_linear_in_time(r1, r2, t):
    s1 = ExpSeries({r1: mode(1.0)})
    s2 = ExpSeries({r2: mode(0.5)})
    lhs = (s1 + s2).at(t)
    rhs = s1.at(t) + s2.at(t)
    assert (lhs - rhs).sup_norm() <= 1e-12
