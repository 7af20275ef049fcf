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

Only sups are taken (p = inf, and r = inf in time).  Block j's sup has the
bound B_j = sum_xi w_j(xi) |c(xi)|_2 (the triangle inequality over the
modes), for all blocks from one ``bincount`` of |c|_2 over the radial
index.  A norm that keeps the largest of some values takes them in
descending bound order and stops at the first whose (1 + 1e-12) B is below
the largest taken (``_largest``): each value is at most its bound, up to
rounding well inside the margin, so the norm is bit-identical to sampling
every block.  The Chemin-Lerner norm keeps each sample's bounds and its
``sampling_slab`` (the half spectrum its real samples are built from, not
the whole field), then takes each block's samples in bound order.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import integer_frequency
from .spectral import Grid, SpectralField, mode_modulus, modulus

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
        """The n x n Fourier weight of block j, gathered on its support
        square |xi1|, |xi2| <= min(2^{j+1}, n/2) only: it is 0 outside."""
        if not 0 <= j <= self.j_top:
            raise ValueError(f"block index {j} out of range")
        n, s = self.grid.n, min(2 ** (j + 1), self.grid.n // 2)
        rows = np.r_[0:s + 1, max(n - s, s + 1):n]    # |xi_i| <= s
        square = np.ix_(rows, rows)
        w = np.zeros((n, n))
        w[square] = self._tables[j][self._index[square]]
        return w

    def bounds(self, f):
        """(B, live): every block's bound B_j >= sup |Delta_j f| and whether
        its weight meets a nonzero coefficient of f."""
        radial = np.bincount(self._index.ravel(),
                             weights=mode_modulus(f).ravel(),
                             minlength=self._tables.shape[1])
        live = (self._tables[:, radial > 0] > 0).any(axis=1)
        return self._tables @ radial, live

    def sup(self, f, j: int) -> float:
        """sup |Delta_j f| sampled on the 3/2 grid."""
        return float(modulus(f, self.weight(j)).max())

    def sups(self, f) -> np.ndarray:
        """Each block's ``sup`` where it meets a nonzero coef of f, else 0."""
        return np.array([self.sup(f, j) if t else 0.0
                         for j, t in enumerate(self.bounds(f)[1])])


@lru_cache(maxsize=8)
def _block_weights(n: int, j_top: int):
    """Each point's index into the distinct |xi|^2 of the grid, and one
    row of weights over them per block (the weights are radial), so the
    cache holds one n x n array per grid, not one per block."""
    ksq, index = np.unique(Grid(n).ksq, return_inverse=True)
    u = np.full_like(ksq, -40.0)
    nz = ksq > 0
    u[nz] = 0.5 * np.log2(ksq[nz])
    tables = np.empty((j_top + 1, ksq.size))
    for j in range(j_top + 1):
        tables[j] = smooth_step(u - j + 1)
        if j < j_top:
            tables[j] -= smooth_step(u - j)
        tables[j, 0] = 0.0    # the mean mode: |xi|^2 = 0 sorts first
    return index.reshape(n, n).astype(np.int32), tables


def _sups_only(*exponents) -> None:
    if any(e != np.inf for e in exponents):
        raise ValueError(f"only sups (inf exponents) are taken: {exponents}")


def block_lp_norms(f, p: float) -> np.ndarray:
    """||Delta_j f||_{L^p} for every block j (p = inf); 0 for a block
    whose weight misses every nonzero coefficient of f, which is not
    sampled."""
    _sups_only(p)
    return LittlewoodPaley(f.grid).sups(f)


def _largest(bounds: dict, value) -> float:
    """The largest value(k) (0 for none), the keys taken in descending
    ``bounds`` up to the first whose (1 + 1e-12) bound is below it."""
    best = 0.0
    for k in sorted(bounds, key=bounds.get, reverse=True):
        if (1 + 1e-12) * bounds[k] < best:
            break
        best = max(best, value(k))
    return best


def besov_norm(f, s: float, p: float, q: float) -> float:
    """Inhomogeneous Besov norm B^s_{p,q} (p = inf; mean mode excluded).
    For q = inf the blocks are taken by ``_largest`` on 2^{js} B_j."""
    _sups_only(p)
    lp = LittlewoodPaley(f.grid)
    scale = [2.0 ** (j * s) for j in lp.blocks]
    if q != np.inf:
        weighted = np.array(scale) * block_lp_norms(f, p)
        return float(np.sum(weighted ** q) ** (1.0 / q))
    bound, live = lp.bounds(f)
    return _largest({j: scale[j] * bound[j] for j in np.flatnonzero(live)},
                    lambda j: scale[j] * lp.sup(f, j))


def chemin_lerner_norm(times, fields, s: float, p: float, q: float,
                       r: float) -> float:
    """Time-mixed Besov norm: the time L^r norm (r = p = inf) is taken
    inside the block sum, as block j's largest sample.  `times` are >= 8
    strictly increasing samples spanning the interval, at any spacing (the
    corrector window's, `corrector_window_times`, are geometric).  `fields`
    is any iterable, read once, one field per time, all on one grid: each
    one's bounds and ``sampling_slab`` are kept, then ``_largest`` takes
    each block's samples in the order of their B_j."""
    _sups_only(p, r)
    times = np.asarray(times, dtype=np.float64)
    if times.size < 8:
        raise ValueError("chemin_lerner_norm needs at least 8 time samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time samples must be strictly increasing")
    kept = [(LittlewoodPaley(f.grid).bounds(f), f.sampling_slab())
            for f in fields]
    if len(kept) != times.size:
        raise ValueError("need one field per time sample")
    lp = LittlewoodPaley(kept[0][1].grid)
    per_block = np.array([(2.0 ** (j * s)) * _largest(
        {i: b[j] for i, ((b, live), _) in enumerate(kept) if live[j]},
        lambda i: lp.sup(kept[i][1], j)) for j in lp.blocks])
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
