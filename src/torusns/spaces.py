"""Dyadic frequency decomposition and the norms built on it.

The dyadic partition uses telescoping smooth steps: with u = log2|xi| and a
C^inf step S that rises on [1/4, 3/4],

    block j   weight  S(u - j + 1) - S(u - j),     0 <= j < j_top
    block top weight  S(u - j_top + 1)

so the weights sum to exactly 1 for every nonzero integer frequency, each
block is supported in 2^{j-1} <= |xi| <= 2^{j+1}, and the weight is
identically 1 on the plateau 2^{j-1/4} <= |xi| <= 2^{j+1/4} — in particular
a single mode with |xi| = 2^j lands in block j with weight exactly 1.
The mean mode is excluded from every block.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectral import Grid, SpectralField, components, modulus

__all__ = [
    "smooth_step",
    "LittlewoodPaley",
    "besov_norm",
    "chemin_lerner_norm",
    "cn_norm",
    "bmo_inv_norm",
    "oscillatory_bound_check",
]


def smooth_step(v):
    """C^inf step: 0 for v <= 1/4, 1 for v >= 3/4, monotone between."""
    v = np.asarray(v, dtype=np.float64)
    s = np.clip((v - 0.25) * 2.0, 0.0, 1.0)
    out = np.zeros_like(s)
    inner = (s > 0.0) & (s < 1.0)
    si = s[inner]
    e1 = np.exp(-1.0 / si)
    e2 = np.exp(-1.0 / (1.0 - si))
    out[inner] = e1 / (e1 + e2)
    out[s >= 1.0] = 1.0
    return out


class LittlewoodPaley:
    """Dyadic block multipliers for one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        kmax = math.sqrt(2.0) * grid.nyquist
        self.j_top = int(math.ceil(math.log2(kmax))) + 1
        self._weights = _block_weights(grid.n, self.j_top)

    @property
    def blocks(self):
        return range(0, self.j_top + 1)

    def block(self, f: SpectralField, j: int) -> SpectralField:
        if not 0 <= j <= self.j_top:
            raise ValueError(f"block index {j} out of range")
        # the weights are real and even in xi, so a real field's blocks are
        # real; a block of any other field may still be, and tests itself
        return SpectralField(self.grid, f.coef * self._weights[j],
                             real=f.real_samples or None)


@lru_cache(maxsize=8)
def _block_weights(n: int, j_top: int):
    grid = Grid(n)
    ksq = grid.ksq
    u = np.full_like(ksq, -40.0)
    nz = ksq > 0
    u[nz] = 0.5 * np.log2(ksq[nz])
    weights = []
    for j in range(j_top + 1):
        if j < j_top:
            w = smooth_step(u - j + 1) - smooth_step(u - j)
        else:
            w = smooth_step(u - j + 1)
        w[0, 0] = 0.0
        weights.append(w)
    return tuple(weights)


def _as_scalar_blocks(f, lp, j):
    blocks = [lp.block(c, j) for c in components(f)]
    if not any(b.coef.any() for b in blocks):
        return np.zeros((1, 1))
    return modulus(blocks)


def _lp_of_samples(samples: np.ndarray, p: float) -> float:
    if p == np.inf:
        return float(samples.max())
    h2 = (2.0 * np.pi / samples.shape[0]) ** 2
    return float((np.sum(samples ** p) * h2) ** (1.0 / p))


def block_lp_norms(f, p: float) -> np.ndarray:
    """||Delta_j f||_{L^p} for every block j."""
    lp = LittlewoodPaley(f.grid)
    return np.array([_lp_of_samples(_as_scalar_blocks(f, lp, j), p)
                     for j in lp.blocks])


def besov_norm(f, s: float, p: float, q: float) -> float:
    """Inhomogeneous Besov norm B^s_{p,q} (mean mode excluded)."""
    vals = block_lp_norms(f, p)
    lp = LittlewoodPaley(f.grid)
    weighted = np.array([(2.0 ** (j * s)) * v for j, v in zip(lp.blocks, vals)])
    if q == np.inf:
        return float(weighted.max()) if weighted.size else 0.0
    return float(np.sum(weighted ** q) ** (1.0 / q))


def chemin_lerner_norm(times, fields, s: float, p: float, q: float,
                       r: float) -> float:
    """Time-mixed Besov norm: the time L^r norm is taken inside the block
    sum.  `times` must be an increasing uniform-ish grid with >= 8 samples
    spanning the interval; trapezoid quadrature in time for finite r.
    `fields` may be any iterable (a generator keeps one field in memory
    at a time), one field per time sample, all on one grid.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 8:
        raise ValueError("chemin_lerner_norm needs at least 8 time samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time samples must be strictly increasing")
    per_time = np.array([block_lp_norms(f, p) for f in fields])
    if per_time.shape[0] != times.size:
        raise ValueError("need one field per time sample")
    per_block = []
    for j, row in enumerate(per_time.T):
        if r == np.inf:
            tnorm = row.max()
        else:
            tnorm = np.trapezoid(row ** r, times) ** (1.0 / r)
        per_block.append((2.0 ** (j * s)) * tnorm)
    per_block = np.array(per_block)
    if q == np.inf:
        return float(per_block.max())
    return float(np.sum(per_block ** q) ** (1.0 / q))


def cn_norm(f, n_order: int) -> float:
    """C^N norm: sum over orders m <= N of the max over multi-indices
    |sigma| = m of sup |d^sigma f|."""
    total = 0.0
    for m in range(n_order + 1):
        best = 0.0
        for a in range(m + 1):
            d = [_deriv_many(c, a, m - a) for c in components(f)]
            best = max(best, float(modulus(d).max()))
        total += best
    return float(total)


def _deriv_many(f: SpectralField, a1: int, a2: int) -> SpectralField:
    c = f.coef * (1j * f.grid.k1) ** a1 * (1j * f.grid.k2) ** a2
    return SpectralField(f.grid, c, band=f._band)


def bmo_inv_norm(f, centers: int = 16, s_nodes: int = 16,
                 mean_tol: float = 1e-10) -> float:
    """Carleson-measure proxy for the BMO^{-1}-type norm via the heat
    extension:

        sup_{r, x} ( r^{-2} int_0^{r^2} ||e^{s Delta} f||^2_{L^2(B(x,r))} ds )^{1/2}

    over dyadic radii r = 2^{-1} .. 2^{-floor(log2 n / 2)} and all grid
    centers (the ball integral for every center at once is a convolution
    with the disc indicator).  Log-spaced s quadrature.  Exactly
    1-homogeneous by construction.  Requires mean zero.
    """
    comps = components(f)
    grid = f.grid
    scale = max(max(np.abs(c.coef).max() for c in comps), 1e-300)
    for c in comps:
        if abs(c.coef[0, 0]) > mean_tol * scale:
            raise ValueError("bmo_inv_norm requires a mean-zero field")
    n = grid.n
    x1, x2 = grid.points()
    d1 = np.minimum(x1, 2.0 * np.pi - x1)
    d2 = np.minimum(x2, 2.0 * np.pi - x2)
    dist2 = d1 ** 2 + d2 ** 2
    m_top = max(1, int(math.log2(n) // 2))
    best = 0.0
    for m in range(1, m_top + 1):
        r = 2.0 ** (-m)
        mask = (dist2 <= r * r).astype(np.float64)
        mask_hat = np.fft.fft2(mask)
        svals = np.geomspace(r * r * 1e-6, r * r, s_nodes)
        integrand = []
        for s in svals:
            tot = np.zeros((n, n))
            for c in comps:
                u = np.fft.ifft2(np.exp(-grid.ksq * s) * c.coef) * (n * n)
                tot += np.abs(u) ** 2
            h2 = (2.0 * np.pi / n) ** 2
            conv = np.fft.ifft2(np.fft.fft2(tot) * mask_hat).real * h2
            integrand.append(conv)
        integrand = np.array(integrand)
        # trapezoid on the log axis plus the [0, s_min] head (integrand is
        # bounded as s -> 0, so a rectangle head is within quadrature error)
        logs = np.log(svals)
        ball_int = np.trapezoid(integrand * svals[:, None, None], logs, axis=0)
        ball_int += svals[0] * integrand[0]
        val = math.sqrt(max(0.0, ball_int.max()) / (r * r))
        best = max(best, val)
    return float(best)


def oscillatory_bound_check(envelope, k, lam: int, grid: Grid | None = None):
    """Compare ||f e^{i lam k.x}||_{B^{-1}_{inf,inf}} with the modulation
    bound lam^{-1} ||f||_inf + lam^{-2} ||f||_{C^2}.

    `envelope` is a SpectralField f, `k` an integer frequency direction
    (lam k must be an integer vector).  Returns (lhs, rhs, ratio).
    """
    f = envelope
    s1, s2 = int(round(lam * k[0])), int(round(lam * k[1]))
    if abs(lam * k[0] - s1) > 1e-9 or abs(lam * k[1] - s2) > 1e-9:
        raise ValueError("lam * k must be an integer frequency")
    mod = f.shift(s1, s2)
    lhs = besov_norm(mod, -1.0, np.inf, np.inf)
    rhs = (1.0 / lam) * f.sup_norm() + (1.0 / lam ** 2) * cn_norm(f, 2)
    return lhs, rhs, lhs / max(rhs, 1e-300)
