"""Concentration profile and the strip cutoff system."""

import math
import tracemalloc

import numpy as np
import pytest

from torusns.profile import (ConcentrationProfile, build_cutoffs)
from torusns.schedule import ParamSchedule, toy_schedule
from torusns.spectral import Grid


def test_profile_support_tails():
    p = ConcentrationProfile()
    s = np.linspace(p.support_half_width * 1.05, 0.5, 200)
    assert np.abs(p(s)).max() <= 1e-10
    assert np.abs(p(-s)).max() <= 1e-10


def test_profile_l2_mass_normalized():
    p = ConcentrationProfile()
    assert abs(p.l2_mass - 1.0) <= 1e-12


def test_realized_profile_band_and_mass():
    p = ConcentrationProfile()
    r = p.realize(62)
    assert abs(r.l2_mass - 1.0) <= 1e-12
    assert abs(r.mean_square - 1.0 / (2.0 * math.pi)) <= 1e-12
    # the band-limited realization is a heavy smoothing of the ideal
    # bump; the discarded-mass diagnostic must be recorded and sane
    assert 0.0 <= r.tail < 1.0
    # the realized field on a grid is band-limited as promised
    grid = Grid(2048)
    f = r.field(grid, (1, 0), 5)
    assert f.band <= 62 * 5
    assert f.is_real()


def test_realized_field_matches_profile_on_axis():
    p = ConcentrationProfile()
    r = p.realize(62)
    grid = Grid(1024)
    f = r.field(grid, (1, 0), 5)
    x1, _ = grid.points()
    vals = f.to_physical()
    # phi(mu k . x) along x2 = 0: the profile evaluated at the wrapped
    # phase theta = mu x1
    line = np.real(vals[:, 0])
    theta = np.mod(5 * x1[:, 0] + math.pi, 2.0 * math.pi) - math.pi
    expect = r(theta)
    assert np.abs(line - expect).max() <= 1e-10 * max(np.abs(expect).max(), 1)


def test_cutoff_plateau_and_support():
    sched = toy_schedule()
    cut = build_cutoffs(sched, 1)
    n = 512
    x = np.arange(n) * (2.0 * np.pi / n)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    chi = cut.chi(x1, x2)
    strips = cut.strip_indicator(x1, x2) > 0
    fat = cut.fattened_indicator(x1, x2) > 0
    assert np.abs(chi[strips] - 1.0).max() <= 1e-12
    assert np.abs(chi[~fat]).max() <= 1e-12
    assert chi.min() >= -1e-12 and chi.max() <= 1.0 + 1e-12


def test_area_fractions_within_bound():
    sched = toy_schedule()
    for q in (1, 2):
        frac = build_cutoffs(sched, q).area_fractions()
        assert frac["within_bound"], frac
        assert frac["strips"] <= frac["fattened"]
        assert frac["bound"] == 2.0 ** (-2 * q + 1)


@pytest.mark.parametrize("sched, q", [
    (toy_schedule(), 1),
    (toy_schedule(), 2),
    (ParamSchedule((5, 10), (5, 5)), 1),
    (ParamSchedule((25, 125, 625), (5, 10, 25)), 2),
])
def test_area_fractions_equal_indicator_means(sched, q):
    # membership from integer residues is the float indicators' membership
    # at every sample point, so the fractions agree exactly
    cut = build_cutoffs(sched, q)
    for n in (500, 1024, 2047):
        x = (2.0 * math.pi / n) * np.arange(n)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        frac = cut.area_fractions(samples=n)
        assert frac["strips"] == float(np.mean(cut.strip_indicator(x1, x2)))
        assert frac["fattened"] == float(
            np.mean(cut.fattened_indicator(x1, x2)))


def test_area_fractions_memory_is_bounded():
    cut = build_cutoffs(toy_schedule(), 2)
    tracemalloc.start()
    try:
        cut.area_fractions()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 4096^2 meshgrid alone is 134 MB
    assert peak < 64e6, peak
