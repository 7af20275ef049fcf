"""Concentration profiles and nested strip cutoffs.

A concentration profile is a smooth even 2pi-periodic bump ``phi``
supported near 0 with ``int phi^2 = 1``.  Composed with a direction as
``phi(mu * k . x)`` it produces a shear concentrated on thin periodic
strips orthogonal to ``k`` — the two-dimensional stand-in for a Mikado
flow.  The cutoff system tracks the strip sets of all levels up to a
given one and provides a smooth cutoff that is 1 on the strips and 0
away from a small neighbourhood of them.  Their area fractions are
counted on a sample grid whose membership comes from exact integer
residues of mu k . x; only the area is a Riemann sum.

One frozen type, ``ConcentrationProfile``, holds ``phi`` as a finite
cosine series, in two realizations:

* ``ConcentrationProfile()`` is the *ideal* profile: a sharply mollified
  indicator held as a long series, satisfying the support and
  normalization constraints to near machine precision; and
* ``realize(band)`` returns the *band-limited* one for a frequency
  budget, obtained by Gaussian-tapering the series so that every
  coefficient beyond the budget is below 1e-13.  Tapering necessarily
  widens the bump (a function cannot be confined to width ~1/100 with
  only a few dozen modes); the mass it removes is reported (``tail``),
  and the quadratic normalization ``mean(phi^2)`` is re-imposed exactly
  so that every downstream cancellation identity survives the
  truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial, reduce

import numpy as np

from .geometry import LAMBDA, integer_frequency
from .schedule import ParamSchedule
from .spectral import Grid, SpectralField


#: half-width of the indicator the ideal profile mollifies
HALF_WIDTH = 1.0 / 200.0
#: scale of its Gaussian mollification
SIGMA = 1.0 / 1500.0
#: 1D spectral resolution: cosine coefficients kept for |m| <= RESOLUTION/2
RESOLUTION = 32768


@lru_cache(maxsize=1)
def _cosine_coeffs() -> np.ndarray:
    """Cosine coefficients c[m], m = 0..RESOLUTION/2, of the ideal profile.

    phi(s) = c[0] + sum_{m>=1} 2 c[m] cos(m s), the Gaussian mollification
    (scale SIGMA) of the indicator of [-HALF_WIDTH, HALF_WIDTH],
    rescaled so that int_0^{2pi} phi^2 = 2pi (c0^2 + 2 sum c_m^2) = 1.
    """
    m = np.arange(RESOLUTION // 2 + 1, dtype=np.float64)
    c = np.empty(len(m))
    c[0] = HALF_WIDTH / math.pi
    c[1:] = np.sin(m[1:] * HALF_WIDTH) / (m[1:] * math.pi)
    c *= np.exp(-0.5 * (SIGMA * m) ** 2)
    norm = 2.0 * math.pi * (c[0] ** 2 + 2.0 * np.sum(c[1:] ** 2))
    return c / math.sqrt(norm)


def _eval_cosine(coeffs: np.ndarray, s) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    m = np.arange(1, len(coeffs), dtype=np.float64)
    # block the outer product to keep memory bounded for long series
    out = np.full(s.shape, coeffs[0])
    flat = s.ravel()
    res = np.zeros_like(flat)
    step = max(1, 2 ** 22 // max(1, len(m)))
    for i in range(0, len(flat), step):
        chunk = flat[i : i + step]
        res[i : i + step] = 2.0 * (np.cos(np.outer(chunk, m)) @ coeffs[1:])
    return out + res.reshape(s.shape)


@dataclass(frozen=True)
class ConcentrationProfile:
    """Smooth even periodic bump with unit L^2 mass, held as its cosine
    coefficients (``coeffs[m]``, m = 0..band).  The default is the ideal
    profile of HALF_WIDTH, SIGMA and RESOLUTION; ``tail`` is the relative
    L^2 mass a realization removed from it."""

    coeffs: np.ndarray = dc_field(default_factory=_cosine_coeffs)
    tail: float = 0.0

    @property
    def band(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s) -> np.ndarray:
        return _eval_cosine(self.coeffs, s)

    @property
    def l2_mass(self) -> float:
        """int_0^{2pi} phi^2, equal to 1 by normalization."""
        c = self.coeffs
        return 2.0 * math.pi * float(c[0] ** 2 + 2.0 * np.sum(c[1:] ** 2))

    @property
    def mean_square(self) -> float:
        """Mean of phi^2 over the circle (the 0-mode of phi^2)."""
        return self.l2_mass / (2.0 * math.pi)

    @property
    def support_half_width(self) -> float:
        """Half-width outside which |phi| stays below 1e-10."""
        s = np.linspace(0.0, math.pi, 4096)
        v = np.abs(self(s))
        idx = np.nonzero(v > 1e-10)[0]
        return float(s[idx[-1]]) if len(idx) else 0.0

    def realize(self, band: int) -> "ConcentrationProfile":
        """Band-limited realization with all mass inside |m| <= band.

        The cosine series is multiplied by a Gaussian taper chosen so the
        discarded coefficients are below 1e-13 of the peak, then
        renormalized to unit L^2 mass.  The realization's ``tail`` is the
        relative L^2 mass removed from this profile.
        """
        if band < 8:
            raise ValueError("band must be at least 8")
        full = self.coeffs
        taper_sigma = 7.8 / band
        m = np.arange(len(full), dtype=np.float64)
        tapered = full * np.exp(-0.5 * (taper_sigma * m) ** 2)
        kept = tapered[: band + 1].copy()
        mass_ideal = full[0] ** 2 + 2.0 * np.sum(full[1:] ** 2)
        mass_kept = kept[0] ** 2 + 2.0 * np.sum(kept[1:] ** 2)
        tail = 1.0 - mass_kept / mass_ideal
        kept /= math.sqrt(2.0 * math.pi * mass_kept)
        return ConcentrationProfile(coeffs=kept, tail=float(tail))

    def field(self, grid: Grid, k: tuple, mu: int) -> SpectralField:
        """phi(mu k . x) as a real band-tracked field on ``grid``.

        ``k`` is a direction with entries of denominator dividing ``mu``
        so every mode lands on an integer frequency.
        """
        v1, v2 = integer_frequency(k, mu)
        modes = {(0, 0): complex(self.coeffs[0])}
        for m in range(1, self.band + 1):
            a = complex(self.coeffs[m])
            modes[(m * v1, m * v2)] = a
            modes[(-m * v1, -m * v2)] = a
        return SpectralField.from_modes(grid, modes)


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Distance of theta to 2 pi Z."""
    t = np.mod(theta, 2.0 * math.pi)
    return np.minimum(t, 2.0 * math.pi - t)


#: half-width, in the strip coordinate mu k . x, of the concentration strips
STRIP_HALF_WIDTH = 1.0 / 100.0
#: half-width of the fattened strips (spatial fattening 1/(100 mu))
FATTENED_HALF_WIDTH = 2.0 / 100.0
#: sample points per block of rows in ``CutoffSystem.area_fractions``
_BLOCK_POINTS = 1 << 20


@dataclass(frozen=True)
class CutoffSystem:
    """Nested strip sets of levels 1..level and their area fractions.

    The strip set of level l and direction k is
    ``{x : dist(mu_l k.x, 2 pi Z) <= 1/100}`` — the support of the
    concentration shear — and its fattening enlarges the threshold to
    2/100.  The full set intersects, over the levels, the union over
    directions.  The construction takes the smooth cutoff, 1 on the
    intersected strips and 0 outside the intersected fattened strips, as
    1, so only the sets' areas are computed here.
    """

    schedule: ParamSchedule
    level: int

    def __post_init__(self) -> None:
        if not 1 <= self.level <= self.schedule.levels:
            raise ValueError(f"level {self.level} outside schedule")

    @property
    def directions(self) -> tuple:
        return LAMBDA.pairs

    def _intersect_unions(self, member) -> np.ndarray:
        """Minimum over levels of the maximum over directions of member.

        On boolean members: the intersection over levels of the union over
        directions.  Levels sharing one mu share one strip set.
        """
        out = None
        mus = sorted({self.schedule.mu(l) for l in range(1, self.level + 1)})
        for mu in mus:
            hit = reduce(np.maximum, [member(mu, k) for k in self.directions])
            out = hit if out is None else np.minimum(out, hit)
        return out

    def area_fractions(self, samples: int = 4096) -> dict:
        """Area fractions of the strip sets on a samples^2 grid; their bound.

        At x = 2 pi (i, j) / N the strip coordinate mu_l k . x is 2 pi r / N
        modulo 2 pi, with r = (v1 i + v2 j) mod N for the integer vector
        (v1, v2) = mu_l k.  Membership is therefore exact: it is read from a
        table over the residues, coded 2 in the strip, 1 in the fattened
        strip only and 0 outside.  Only the area is a Riemann sum, the count
        of member points over N^2.  Rows are counted in blocks of about
        ``_BLOCK_POINTS`` points, so memory stays bounded for every N.
        """
        n = samples
        dist = _wrap((2.0 * math.pi / n) * np.arange(n))
        # twice over, so (v1 i mod N) + (v2 j mod N) indexes it directly
        code = np.tile((dist <= STRIP_HALF_WIDTH).astype(np.uint8)
                       + (dist <= FATTENED_HALF_WIDTH), 2)
        idx = np.arange(n)

        def member(rows, mu, k):
            v1, v2 = integer_frequency(k, mu)
            return code[np.add.outer((v1 * rows) % n, (v2 * idx) % n)]

        strips = fattened = 0
        step = max(1, _BLOCK_POINTS // n)
        for start in range(0, n, step):
            point = self._intersect_unions(
                partial(member, idx[start:start + step]))
            strips += np.count_nonzero(point == 2)
            fattened += np.count_nonzero(point)
        frac = float(strips / (n * n))
        frac_fat = float(fattened / (n * n))
        q = (self.level + 1) // 2
        return {
            "strips": frac,
            "fattened": frac_fat,
            "bound": 2.0 ** (-2 * q + 1),
            "within_bound": frac_fat <= 2.0 ** (-2 * q + 1),
        }


def build_cutoffs(schedule: ParamSchedule, q: int) -> CutoffSystem:
    """Cutoff system of odd level 2q-1 for the given schedule."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return CutoffSystem(schedule=schedule, level=2 * q - 1)
