"""Concentration profile and the strip cutoff system."""

import math
import tracemalloc

import numpy as np
import pytest

from torusns.profile import (FATTENED_HALF_WIDTH, STRIP_HALF_WIDTH,
                             ConcentrationProfile, _wrap, build_cutoffs)
from torusns.schedule import ParamSchedule, toy_schedule
from torusns.spaces import smooth_step
from torusns.spectral import Grid


# -- oracles of a cutoff system at arbitrary points ---------------------------

def _level_union(cut, x1, x2, half_width: float) -> np.ndarray:
    """Boolean membership in the intersected union of strips."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return cut._intersect_unions(lambda mu, k: _wrap(
        float(k[0]) * mu * x1 + float(k[1]) * mu * x2) <= half_width)


def strip_indicator(cut, x1, x2) -> np.ndarray:
    return _level_union(cut, x1, x2, STRIP_HALF_WIDTH)


def fattened_indicator(cut, x1, x2) -> np.ndarray:
    return _level_union(cut, x1, x2, FATTENED_HALF_WIDTH)


def chi(cut, x1, x2) -> np.ndarray:
    """Smooth cutoff evaluated at arbitrary points.

    Per level, a direction-wise window rho(mu k . x) equals 1 for
    strip coordinate below 5/400 and 0 above 7/400; the windows are
    combined as 1 - prod(1 - rho) over directions (1 near any strip)
    and multiplied over levels.  Both thresholds sit strictly between
    the strip half-width 4/400 and the fattened half-width 8/400, so
    the plateau and support constraints hold by construction.
    """
    a_in, a_out = 5.0 / 400.0, 7.0 / 400.0
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    out = np.ones(np.broadcast(x1, x2).shape)
    for l in range(1, cut.level + 1):
        mu = cut.schedule.mu(l)
        miss = np.ones_like(out)
        for k in cut.directions:
            theta = float(k[0]) * mu * x1 + float(k[1]) * mu * x2
            v = 0.25 + (_wrap(theta) - a_in) / (2.0 * (a_out - a_in))
            miss *= smooth_step(v)
        out *= 1.0 - miss
    return out


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
    values = chi(cut, x1, x2)
    strips = strip_indicator(cut, x1, x2) > 0
    fat = fattened_indicator(cut, x1, x2) > 0
    assert np.abs(values[strips] - 1.0).max() <= 1e-12
    assert np.abs(values[~fat]).max() <= 1e-12
    assert values.min() >= -1e-12 and values.max() <= 1.0 + 1e-12


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
        assert frac["strips"] == float(np.mean(strip_indicator(cut, x1, x2)))
        assert frac["fattened"] == float(
            np.mean(fattened_indicator(cut, x1, x2)))


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
