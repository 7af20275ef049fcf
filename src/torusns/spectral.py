"""Pseudo-spectral core on the periodic square [0, 2pi)^2.

Coefficient convention: a field is stored by its DFT coefficients c[xi] in
standard DFT order (numpy fftfreq layout, row-major), with

    f(x) = sum_xi c[xi] exp(i xi . x),        c = fft2(samples) / n^2 .

All derivative operators act diagonally on coefficients.  Quadratic
quantities are computed alias-free: either by 3/2 zero padding, or — when a
conservative band bound shows the product already fits below the Nyquist
frequency — by an unpadded transform (identical result, cheaper).  The
3/2-padded transform pair (``padded_physical``/``padded_spectral``) and the
pointwise modulus built on it (``modulus``) live here only; products, sup
norms, block norms and the solver's advection all go through them.

A field whose samples are real (Hermitian coefficients to ``is_real``'s
tolerance, and an empty Nyquist row and column, which ``_pad`` would embed
on one side only) takes real-to-complex transforms (``irfft2``/``rfft2``);
any other field keeps the complex ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "MatrixField",
    "leray_project",
    "calderon_lift",
    "components",
    "modulus",
    "padded_physical",
    "padded_spectral",
]


@lru_cache(maxsize=None)
def _grid_cache(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    k1 = k[:, None] * np.ones((1, n), dtype=np.int64)
    k2 = np.ones((n, 1), dtype=np.int64) * k[None, :]
    ksq = (k1 * k1 + k2 * k2).astype(np.float64)
    return k, k1, k2, ksq


@dataclass(frozen=True)
class Grid:
    """Uniform n x n grid on the torus, n a power of two >= 16."""

    n: int

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {self.n}")

    @property
    def k(self):
        return _grid_cache(self.n)[0]

    @property
    def k1(self):
        return _grid_cache(self.n)[1]

    @property
    def k2(self):
        return _grid_cache(self.n)[2]

    @property
    def ksq(self):
        return _grid_cache(self.n)[3]

    @property
    def nyquist(self) -> int:
        return self.n // 2

    def points(self):
        """Physical grid coordinates (x1, x2)."""
        n = self.n
        x = np.arange(n) * (2.0 * np.pi / n)
        return x[:, None] * np.ones((1, n)), np.ones((n, 1)) * x[None, :]


def _band_of(coef: np.ndarray, rel_tol: float = 1e-14) -> int:
    """Conservative |xi|_inf band bound: largest |xi|_inf carrying relative
    coefficient mass above rel_tol."""
    n = coef.shape[0]
    k = _grid_cache(n)[0]
    mags = np.abs(coef)
    m = mags.max()
    if m == 0.0:
        return 0
    absk = np.abs(k)
    kinf = np.maximum(absk[:, None], absk[None, :])
    sig = mags > rel_tol * m
    if not sig.any():
        return 0
    return int(kinf[sig].max())


class SpectralField:
    """Scalar field on the torus held as DFT coefficients."""

    __slots__ = ("grid", "coef", "_band", "_real")

    def __init__(self, grid: Grid, coef: np.ndarray, band: int | None = None,
                 real: bool | None = None):
        if coef.shape != (grid.n, grid.n):
            raise ValueError("coefficient array shape mismatch")
        self.grid = grid
        self.coef = np.ascontiguousarray(coef, dtype=np.complex128)
        self._band = band
        self._real = real

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128), band=0)

    @classmethod
    def from_modes(cls, grid: Grid, modes: dict) -> "SpectralField":
        """Build from {(xi1, xi2): amplitude}."""
        c = np.zeros((grid.n, grid.n), dtype=np.complex128)
        ny = grid.nyquist
        b = 0
        for (m1, m2), a in modes.items():
            if max(abs(m1), abs(m2)) >= ny:
                raise ValueError(f"mode {(m1, m2)} beyond grid band")
            c[m1 % grid.n, m2 % grid.n] += a
            b = max(b, abs(m1), abs(m2))
        return cls(grid, c, band=b)

    # -- basic queries ----------------------------------------------------
    @property
    def band(self) -> int:
        if self._band is None:
            self._band = _band_of(self.coef)
        return self._band

    @property
    def real_samples(self) -> bool:
        """True when the samples are real on every grid m >= n: Hermitian
        coefficients (``is_real``) and an empty Nyquist row and column."""
        if self._real is None:
            c, h = self.coef, self.grid.nyquist
            self._real = (not c[h].any() and not c[:, h].any()
                          and self.is_real())
        return self._real

    def to_physical(self) -> np.ndarray:
        return np.fft.ifft2(self.coef) * (self.grid.n * self.grid.n)

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_real(self, tol: float = 1e-12) -> bool:
        """Check Hermitian symmetry c[-xi] = conj(c[xi]) to tol of the
        largest coefficient."""
        c, h = self.coef, self.grid.nyquist
        bound = tol * max(np.abs(c).max(), 1e-300)
        # -xi on strided views: rows i <-> n - i (1 <= i < h), rows 0 and h
        # map to themselves, and likewise for columns
        pairs = ((c[1:h, 1:], c[:h:-1, :0:-1]), (c[1:h, 0], c[:h:-1, 0]),
                 (c[::h, 1:], c[::h, :0:-1]), (c[::h, 0], c[::h, 0]))
        return all(np.abs(a - b.conj()).max() <= bound for a, b in pairs)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return SpectralField(self.grid, self.coef + other.coef,
                             band=_merge_band(self._band, other._band, max))

    def __sub__(self, other):
        return SpectralField(self.grid, self.coef - other.coef,
                             band=_merge_band(self._band, other._band, max))

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coef * scalar, band=self._band)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coef, band=self._band)

    # -- calculus ---------------------------------------------------------
    def dx(self, axis: int) -> "SpectralField":
        kk = self.grid.k1 if axis == 0 else self.grid.k2
        return SpectralField(self.grid, 1j * kk * self.coef, band=self._band)

    def gradient(self) -> "VectorField":
        return VectorField(self.dx(0), self.dx(1))

    def perp_gradient(self) -> "VectorField":
        """grad^perp f = (d2 f, -d1 f)."""
        return VectorField(self.dx(1), -self.dx(0))

    def laplacian(self) -> "SpectralField":
        return SpectralField(self.grid, -self.grid.ksq * self.coef, band=self._band)

    def inv_laplacian(self, mean_tol: float = 1e-10) -> "SpectralField":
        """(-Delta)^{-1} with zero-mean precondition; output mean zero."""
        scale = max(np.abs(self.coef).max(), 1e-300)
        if abs(self.coef[0, 0]) > mean_tol * scale:
            raise ValueError("inv_laplacian requires a mean-zero field")
        ksq = self.grid.ksq.copy()
        ksq[0, 0] = 1.0
        out = self.coef / ksq
        out[0, 0] = 0.0
        return SpectralField(self.grid, out, band=self._band)

    def heat(self, t: float) -> "SpectralField":
        """Heat semigroup e^{t Delta}, t >= 0."""
        if t < 0:
            raise ValueError("heat semigroup needs t >= 0")
        return SpectralField(self.grid, np.exp(-self.grid.ksq * t) * self.coef,
                             band=self._band)

    # -- products ---------------------------------------------------------
    def product(self, other: "SpectralField") -> "SpectralField":
        """Alias-free product (3/2 zero-padding rule, or unpadded when the
        band bounds prove the result already fits)."""
        n = self.grid.n
        band = self.band + other.band
        m = n if band <= n // 2 - 1 else (3 * n) // 2
        phys = _physical(self, m) * _physical(other, m)
        return SpectralField(self.grid, padded_spectral(phys, n),
                             band=band if m == n else None)

    def shift(self, s1: int, s2: int) -> "SpectralField":
        """Multiply by exp(i (s1, s2) . x): an exact frequency shift.

        Requires the shifted band to stay inside the Nyquist square.
        """
        n = self.grid.n
        shift = max(abs(s1), abs(s2))
        if self.band + shift > n // 2 - 1:
            raise ValueError(
                f"shift by {(s1, s2)} pushes band {self.band} beyond grid n={n}"
            )
        c = np.roll(self.coef, (s1, s2), axis=(0, 1))
        return SpectralField(self.grid, c, band=self.band + shift)

    def regrid(self, grid: "Grid") -> "SpectralField":
        """Exact re-representation on another grid.

        Enlarging always preserves every mode; shrinking requires the band
        to fit strictly inside the target Nyquist square.
        """
        if grid.n == self.grid.n:
            return self
        if grid.n < self.grid.n and self.band > grid.n // 2 - 1:
            raise ValueError(
                f"band {self.band} does not fit on grid n={grid.n}"
            )
        fn = _pad if grid.n > self.grid.n else _truncate
        return SpectralField(grid, fn(self.coef, grid.n), band=self._band)

    # -- norms ------------------------------------------------------------
    def l2_norm(self) -> float:
        return float(2.0 * np.pi * np.sqrt(np.sum(np.abs(self.coef) ** 2)))

    def sup_norm(self) -> float:
        """L^inf on the 3/2-oversampled physical grid."""
        return float(modulus((self,)).max())


def _merge_band(b1, b2, op):
    if b1 is None or b2 is None:
        return None
    return op(b1, b2)


def _pad(coef: np.ndarray, m: int) -> np.ndarray:
    """Embed an n-band coefficient array into an m x m array (m >= n)."""
    n = coef.shape[0]
    if m == n:
        return coef
    out = np.zeros((m, m), dtype=np.complex128)
    h = n // 2
    out[:h, :h] = coef[:h, :h]
    out[:h, m - h:] = coef[:h, n - h:]
    out[m - h:, :h] = coef[n - h:, :h]
    out[m - h:, m - h:] = coef[n - h:, n - h:]
    return out


def _truncate(coef: np.ndarray, n: int) -> np.ndarray:
    """Restrict an m x m coefficient array to the n x n band."""
    m = coef.shape[0]
    if m == n:
        return coef
    out = np.zeros((n, n), dtype=np.complex128)
    h = n // 2
    out[:h, :h] = coef[:h, :h]
    out[:h, n - h:] = coef[:h, m - h:]
    out[n - h:, :h] = coef[m - h:, :h]
    out[n - h:, n - h:] = coef[m - h:, m - h:]
    return out


def _physical(f: SpectralField, m: int) -> np.ndarray:
    """Samples of an n x n field on the m x m grid (m >= n): float64 from
    the k2 >= 0 half when the field's samples are real, complex otherwise."""
    c = f.coef
    if not f.real_samples:
        return np.fft.ifft2(_pad(c, m)) * (m * m)
    h = f.grid.nyquist
    half = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    half[:h, :h] = c[:h, :h]
    half[m - h + 1:, :h] = c[h + 1:, :h]
    return np.fft.irfft2(half, s=(m, m)) * (m * m)


def padded_physical(f: SpectralField) -> np.ndarray:
    """Samples of an n-band field on the 3/2-padded m x m grid."""
    return _physical(f, (3 * f.grid.n) // 2)


def padded_spectral(phys: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of m x m samples (m >= n), truncated to the n x n band.

    Float samples take ``rfft2``; the k2 < 0 columns then follow from
    c[xi] = conj(c[-xi]), read on views of the half spectrum.
    """
    m = phys.shape[0]
    if np.iscomplexobj(phys):
        return _truncate(np.fft.fft2(phys) / (m * m), n)
    r = np.fft.rfft2(phys)
    r /= m * m
    h = n // 2
    out = np.empty((n, n), dtype=np.complex128)
    out[:h, :h] = r[:h, :h]
    out[h:, :h] = r[m - h:, :h]
    # column k2 = q - n (h <= q < n) is the conjugate of column n - q at -k1:
    # rows 0, 1..h-1 and h..n-1 mirror rows 0, m-1..m-h+1 and h..1
    np.conj(r[0, h:0:-1], out=out[0, h:])
    np.conj(r[m - 1:m - h:-1, h:0:-1], out=out[1:h, h:])
    np.conj(r[h:0:-1, h:0:-1], out=out[h:, h:])
    return out


def modulus(fields) -> np.ndarray:
    """Pointwise Euclidean modulus of the components on the 3/2 grid."""
    fields = tuple(fields)
    if len(fields) == 1:
        return np.abs(padded_physical(fields[0]))
    tot = None
    for f in fields:
        sq = np.abs(padded_physical(f)) ** 2
        tot = sq if tot is None else tot + sq
    return np.sqrt(tot)


def components(field) -> tuple:
    """The scalar components of a scalar, vector or matrix field."""
    return (field,) if isinstance(field, SpectralField) else tuple(field)


class VectorField:
    """Velocity-type field (2 components)."""

    __slots__ = ("u1", "u2")

    def __init__(self, u1: SpectralField, u2: SpectralField):
        self.u1, self.u2 = u1, u2

    @property
    def grid(self):
        return self.u1.grid

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(SpectralField.zero(grid), SpectralField.zero(grid))

    def __add__(self, o):
        return VectorField(self.u1 + o.u1, self.u2 + o.u2)

    def __sub__(self, o):
        return VectorField(self.u1 - o.u1, self.u2 - o.u2)

    def __mul__(self, s):
        return VectorField(self.u1 * s, self.u2 * s)

    __rmul__ = __mul__

    def __neg__(self):
        return VectorField(-self.u1, -self.u2)

    def __iter__(self):
        return iter((self.u1, self.u2))

    def divergence(self) -> SpectralField:
        return self.u1.dx(0) + self.u2.dx(1)

    def laplacian(self) -> "VectorField":
        return VectorField(self.u1.laplacian(), self.u2.laplacian())

    def heat(self, t: float) -> "VectorField":
        return VectorField(self.u1.heat(t), self.u2.heat(t))

    def outer(self, other: "VectorField") -> "MatrixField":
        """self tensor other, entries (i, j) = self_i * other_j."""
        return MatrixField(self.u1.product(other.u1), self.u1.product(other.u2),
                           self.u2.product(other.u1), self.u2.product(other.u2))

    def dot(self, other: "VectorField") -> SpectralField:
        return self.u1.product(other.u1) + self.u2.product(other.u2)

    def regrid(self, grid: Grid) -> "VectorField":
        return VectorField(self.u1.regrid(grid), self.u2.regrid(grid))

    def sup_norm(self) -> float:
        return float(modulus(self).max())

    def l2_norm(self) -> float:
        return float(np.hypot(self.u1.l2_norm(), self.u2.l2_norm()))


class MatrixField:
    """2x2 tensor field (stress / momentum-flux type)."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @property
    def grid(self):
        return self.a11.grid

    @classmethod
    def zero(cls, grid: Grid) -> "MatrixField":
        z = SpectralField.zero(grid)
        return cls(z, z, z, z)

    def __add__(self, o):
        return MatrixField(self.a11 + o.a11, self.a12 + o.a12,
                           self.a21 + o.a21, self.a22 + o.a22)

    def __sub__(self, o):
        return MatrixField(self.a11 - o.a11, self.a12 - o.a12,
                           self.a21 - o.a21, self.a22 - o.a22)

    def __mul__(self, s):
        return MatrixField(self.a11 * s, self.a12 * s, self.a21 * s, self.a22 * s)

    __rmul__ = __mul__

    def __neg__(self):
        return MatrixField(-self.a11, -self.a12, -self.a21, -self.a22)

    def __iter__(self):
        return iter((self.a11, self.a12, self.a21, self.a22))

    def row_divergence(self) -> VectorField:
        """(div M)_i = sum_j d_j M_ij."""
        return VectorField(self.a11.dx(0) + self.a12.dx(1),
                           self.a21.dx(0) + self.a22.dx(1))

    def transpose(self) -> "MatrixField":
        return MatrixField(self.a11, self.a21, self.a12, self.a22)

    def regrid(self, grid: Grid) -> "MatrixField":
        return MatrixField(self.a11.regrid(grid), self.a12.regrid(grid),
                           self.a21.regrid(grid), self.a22.regrid(grid))

    def sup_norm(self) -> float:
        return float(modulus(self).max())


def fit_grid(field, min_n: int = 64):
    """Re-represent a field on the smallest power-of-two grid holding its band.

    Exact (no information is lost); used to keep long-lived band-limited
    fields compact while products are still evaluated on finer grids.
    """
    band = max(c.band for c in components(field))
    n = min_n
    while n // 2 - 1 < band:
        n *= 2
    if n >= field.grid.n:
        return field
    return field.regrid(Grid(n))


# ---------------------------------------------------------------------------
# Helmholtz/Leray projection and the divergence lift
# ---------------------------------------------------------------------------

def leray_project(v: VectorField) -> VectorField:
    """Projection onto divergence-free fields: v - grad Delta^{-1} div v.

    The mean (xi = 0) component is kept unchanged.
    """
    g = v.grid
    k1, k2, ksq = g.k1, g.k2, g.ksq
    ksafe = ksq.copy()
    ksafe[0, 0] = 1.0
    dotk = (k1 * v.u1.coef + k2 * v.u2.coef) / ksafe
    dotk[0, 0] = 0.0
    b = _merge_band(v.u1._band, v.u2._band, max)
    return VectorField(SpectralField(g, v.u1.coef - k1 * dotk, band=b),
                       SpectralField(g, v.u2.coef - k2 * dotk, band=b))


def calderon_lift(w: VectorField, div_tol: float = 1e-10) -> MatrixField:
    """Symmetric lift R w = -(grad + grad^T)(-Delta)^{-1} w with
    div(R w) = w for solenoidal, mean-zero w.

    Preconditions: div w = 0 and mean(w) = 0 (relative tolerance div_tol).
    """
    g = w.grid
    scale = max(np.abs(w.u1.coef).max(), np.abs(w.u2.coef).max(), 1e-300)
    d = w.divergence()
    if np.abs(d.coef).max() > div_tol * scale * max(1.0, g.nyquist):
        raise ValueError("calderon_lift requires a divergence-free field")
    if max(abs(w.u1.coef[0, 0]), abs(w.u2.coef[0, 0])) > div_tol * scale:
        raise ValueError("calderon_lift requires a mean-zero field")
    v1 = w.u1.inv_laplacian(mean_tol=1e-6)
    v2 = w.u2.inv_laplacian(mean_tol=1e-6)
    # -(grad + grad^T) v, v = (-Delta)^{-1} w
    a11 = -2.0 * v1.dx(0)
    a22 = -2.0 * v2.dx(1)
    a12 = -(v1.dx(1) + v2.dx(0))
    return MatrixField(a11, a12, a12, a22)
