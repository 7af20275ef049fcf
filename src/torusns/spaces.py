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

from .geometry import integer_frequency
from .spectral import Grid, SpectralField, modulus

__all__ = [
    "smooth_step",
    "LittlewoodPaley",
    "besov_norm",
    "chemin_lerner_norm",
    "cn_norm",
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
        self._index, self._tables = _block_weights(grid.n, self.j_top)

    @property
    def blocks(self):
        return range(0, self.j_top + 1)

    def weight(self, j: int) -> np.ndarray:
        """The n x n Fourier weight of block j."""
        if not 0 <= j <= self.j_top:
            raise ValueError(f"block index {j} out of range")
        return self._tables[j][self._index]


@lru_cache(maxsize=8)
def _block_weights(n: int, j_top: int):
    """Each point's index into the distinct |xi|^2 of the grid, and one
    table of weights over them per block (the weights are radial), so the
    cache holds one n x n array per grid, not one per block."""
    ksq, index = np.unique(Grid(n).ksq, return_inverse=True)
    u = np.full_like(ksq, -40.0)
    nz = ksq > 0
    u[nz] = 0.5 * np.log2(ksq[nz])
    tables = []
    for j in range(j_top + 1):
        if j < j_top:
            w = smooth_step(u - j + 1) - smooth_step(u - j)
        else:
            w = smooth_step(u - j + 1)
        w[0] = 0.0    # the mean mode: |xi|^2 = 0 sorts first
        tables.append(w)
    return index.reshape(n, n).astype(np.int32), tuple(tables)


def _lp_of_samples(samples: np.ndarray, p: float) -> float:
    if p == np.inf:
        return float(samples.max())
    h2 = (2.0 * np.pi / samples.shape[0]) ** 2
    return float((np.sum(samples ** p) * h2) ** (1.0 / p))


def block_lp_norms(f, p: float) -> np.ndarray:
    """||Delta_j f||_{L^p} for every block j; 0 for a block whose weight
    misses every nonzero coefficient of f, which is not sampled."""
    lp = LittlewoodPaley(f.grid)
    live = f.coef.reshape((-1,) + f.coef.shape[-2:]).any(axis=0)
    weights = (lp.weight(j) for j in lp.blocks)
    return np.array([_lp_of_samples(modulus(f, w), p) if w[live].any()
                     else 0.0 for w in weights])


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
    sum.  `times` are >= 8 strictly increasing samples spanning the
    interval, at any spacing (the corrector window's samples,
    `corrector_window_times`, are geometric); r = inf takes the largest
    sample of each block, and only a finite r uses the trapezoid rule over
    them.  `fields` may be any iterable (a generator keeps one field in
    memory at a time), one field per time sample, all on one grid.
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
    g = f.grid
    total = 0.0
    for m in range(n_order + 1):
        best = 0.0
        for a in range(m + 1):
            d = f.coef * (1j * g.k1) ** a * (1j * g.k2) ** (m - a)
            best = max(best, float(modulus(SpectralField(g, d)).max()))
        total += best
    return float(total)


def oscillatory_bound_check(envelope, k, lam: int):
    """Compare ||f e^{i lam k.x}||_{B^{-1}_{inf,inf}} with the modulation
    bound lam^{-1} ||f||_inf + lam^{-2} ||f||_{C^2}.

    `envelope` is a SpectralField f, `k` a rational direction with lam k
    an integer vector (else ValueError).  Returns (lhs, rhs, ratio).
    """
    f = envelope
    mod = f.shift(*integer_frequency(k, lam))
    lhs = besov_norm(mod, -1.0, np.inf, np.inf)
    rhs = (1.0 / lam) * f.sup_norm() + (1.0 / lam ** 2) * cn_norm(f, 2)
    return lhs, rhs, lhs / max(rhs, 1e-300)
