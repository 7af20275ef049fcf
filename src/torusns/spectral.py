"""Pseudo-spectral core on the periodic square [0, 2pi)^2.

Coefficient convention: a field is stored by its DFT coefficients c[xi] in
standard DFT order (numpy fftfreq layout, row-major), with

    f(x) = sum_xi c[xi] exp(i xi . x),        c = fft2(samples) / n^2 .

One type, ``SpectralField``, holds scalars, vectors and 2x2 tensors: its
``coef`` has shape (*components, n, n), with components () for a scalar,
(2,) for a vector and (2, 2) for a matrix, and every operator broadcasts
over the leading axes, so a stack of components takes one transform call.
``VectorField`` and ``MatrixField`` add only a constructor from components
and the named component views.

All derivative operators act diagonally on coefficients.  Quadratic
quantities are computed alias-free: either by 3/2 zero padding, or — when a
conservative band bound shows the product already fits below the Nyquist
frequency — by an unpadded transform (identical result, cheaper).  The
3/2-padded transform pair (``padded_physical``/``padded_spectral``) and the
pointwise modulus built on it (``modulus``) live here only; products, sup
norms, block norms and the solver's advection all go through them.

A field whose samples are real (every component Hermitian to ``is_real``'s
tolerance, with an empty Nyquist row and column, which ``_pad`` would embed
on one side only) takes real-to-complex transforms (``irfft2``/``rfft2``);
any other field, a stack mixing real and complex components included,
keeps the complex ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "MatrixField",
    "leray_project",
    "calderon_lift",
    "modulus",
    "padded_physical",
    "padded_spectral",
]


@lru_cache(maxsize=None)
def _grid_cache(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    # read-only broadcast views: the grid cache keeps one n x n array
    k1 = np.broadcast_to(k[:, None], (n, n))
    k2 = np.broadcast_to(k[None, :], (n, n))
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
    """Conservative |xi|_inf band bound of one component: largest |xi|_inf
    carrying relative coefficient mass above rel_tol."""
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
    """Scalar, vector or matrix field on the torus held as DFT coefficients.

    ``SpectralField(grid, coef)`` returns the kind that the leading axes of
    ``coef`` give.  ``band`` and ``real`` pass on known answers of the
    cached measurements ``band`` and ``real_samples``; a stack's band is the
    largest of its components' bands, and its samples are real when every
    component's are.
    """

    __slots__ = ("grid", "coef", "_band", "_real")

    # arrays defer to the field's own operators, so (const array) * field
    # is the field's __rmul__ rather than an object array
    __array_ufunc__ = None

    def __new__(cls, grid: Grid, coef: np.ndarray, band: int | None = None,
                real: bool | None = None):
        coef = np.asarray(coef, dtype=np.complex128)
        kind = _KINDS.get(coef.shape[:-2]) \
            if coef.shape[-2:] == (grid.n, grid.n) else None
        if kind is None:
            raise ValueError("coefficient array shape mismatch")
        self = object.__new__(kind)
        self.grid, self.coef, self._band, self._real = grid, coef, band, real
        return self

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return SpectralField(grid, np.zeros(_SHAPES[cls] + (grid.n, grid.n)),
                             band=0)

    @classmethod
    def from_modes(cls, grid: Grid, modes: dict) -> "SpectralField":
        """Build from {(xi1, xi2): amplitude}; array amplitudes, all of one
        shape, give the components of each mode."""
        shape = np.shape(next(iter(modes.values()), 0.0))
        c = np.zeros(shape + (grid.n, grid.n), dtype=np.complex128)
        ny = grid.nyquist
        b = 0
        for (m1, m2), a in modes.items():
            if max(abs(m1), abs(m2)) >= ny:
                raise ValueError(f"mode {(m1, m2)} beyond grid band")
            c[..., m1 % grid.n, m2 % grid.n] += a
            b = max(b, abs(m1), abs(m2))
        return SpectralField(grid, c, band=b)

    def _component(self, index) -> "SpectralField":
        # a view; the stack's band bounds it and real samples stay real
        return SpectralField(self.grid, self.coef[index], band=self._band,
                             real=self._real or None)

    def __iter__(self):
        """The scalar components, in row-major order of the component axes."""
        for index in np.ndindex(self.coef.shape[:-2]):
            yield self._component(index)

    # -- basic queries ----------------------------------------------------
    @property
    def band(self) -> int:
        if self._band is None:
            n = self.grid.n
            self._band = max(_band_of(c) for c in self.coef.reshape(-1, n, n))
        return self._band

    @property
    def real_samples(self) -> bool:
        """True when the samples are real on every grid m >= n: Hermitian
        coefficients (``is_real``) and an empty Nyquist row and column."""
        if self._real is None:
            c, h = self.coef, self.grid.nyquist
            self._real = bool(not c[..., h, :].any()
                              and not c[..., :, h].any() and self.is_real())
        return self._real

    def to_physical(self) -> np.ndarray:
        return np.fft.ifft2(self.coef) * (self.grid.n * self.grid.n)

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_real(self, tol: float = 1e-12) -> bool:
        """Check Hermitian symmetry c[-xi] = conj(c[xi]) of every component
        to tol of its own largest coefficient."""
        c, h = self.coef, self.grid.nyquist
        bound = tol * np.maximum(np.abs(c).max(axis=(-2, -1)), 1e-300)
        # -xi on strided views: rows i <-> n - i (1 <= i < h), rows 0 and h
        # map to themselves, and likewise for columns
        pairs = ((c[..., 1:h, 1:], c[..., :h:-1, :0:-1]),
                 (c[..., 1:h, :1], c[..., :h:-1, :1]),
                 (c[..., ::h, 1:], c[..., ::h, :0:-1]),
                 (c[..., ::h, :1], c[..., ::h, :1]))
        return all(bool((np.abs(a - b.conj()).max(axis=(-2, -1))
                         <= bound).all()) for a, b in pairs)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return SpectralField(self.grid, self.coef + other.coef,
                             band=_max_band(self._band, other._band))

    def __sub__(self, other):
        return SpectralField(self.grid, self.coef - other.coef,
                             band=_max_band(self._band, other._band))

    def __mul__(self, a):
        """a f for a number a; for a constant array a, the field with
        components a[i] f_j, indexed (*i, *j)."""
        a = np.asarray(a)
        return SpectralField(
            self.grid, self.coef * a.reshape(a.shape + (1,) * self.coef.ndim),
            band=self._band)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coef, band=self._band)

    def transpose(self) -> "SpectralField":
        """Swap the two component axes of a matrix (a view)."""
        return SpectralField(self.grid, self.coef.swapaxes(-4, -3),
                             band=self._band)

    # -- calculus ---------------------------------------------------------
    def apply_symbol(self, symbol: np.ndarray,
                     real: bool | None = None) -> "SpectralField":
        """The Fourier multiplier ``symbol`` (n x n) on every component.

        It cannot widen the band, which is kept; ``real`` passes on a known
        answer of ``real_samples`` (a real even symbol keeps real samples
        real).
        """
        return SpectralField(self.grid, symbol * self.coef, band=self._band,
                             real=real)

    def dx(self, axis: int) -> "SpectralField":
        kk = self.grid.k1 if axis == 0 else self.grid.k2
        return self.apply_symbol(1j * kk)

    def gradient(self) -> "SpectralField":
        """d_j f on a new last component axis: the gradient of a scalar is a
        vector, that of a vector u the matrix (d_j u_i)."""
        g = self.grid
        out = np.empty(self.coef.shape[:-2] + (2, g.n, g.n),
                       dtype=np.complex128)
        for j, kk in enumerate((g.k1, g.k2)):
            np.multiply(1j * kk, self.coef, out=out[..., j, :, :])
        return SpectralField(g, out, band=self._band)

    def perp_gradient(self) -> "SpectralField":
        """grad^perp f = (d2 f, -d1 f)."""
        return VectorField(self.dx(1), -self.dx(0))

    def divergence(self) -> "SpectralField":
        """sum_j d_j f_{.., j}: div of a vector, row divergence of a matrix."""
        g, c = self.grid, self.coef
        return SpectralField(g, 1j * g.k1 * c[..., 0, :, :]
                             + 1j * g.k2 * c[..., 1, :, :], band=self._band)

    def laplacian(self) -> "SpectralField":
        return self.apply_symbol(-self.grid.ksq)

    def inv_laplacian(self, mean_tol: float = 1e-10) -> "SpectralField":
        """(-Delta)^{-1} with zero-mean precondition on every component;
        output mean zero."""
        c = self.coef
        scale = np.maximum(np.abs(c).max(axis=(-2, -1)), 1e-300)
        if np.any(np.abs(c[..., 0, 0]) > mean_tol * scale):
            raise ValueError("inv_laplacian requires a mean-zero field")
        ksq = self.grid.ksq.copy()
        ksq[0, 0] = 1.0
        out = c / ksq
        out[..., 0, 0] = 0.0
        return SpectralField(self.grid, out, band=self._band)

    def heat(self, t: float) -> "SpectralField":
        """Heat semigroup e^{t Delta}, t >= 0."""
        if t < 0:
            raise ValueError("heat semigroup needs t >= 0")
        return self.apply_symbol(np.exp(-self.grid.ksq * t))

    # -- products ---------------------------------------------------------
    def product(self, other: "SpectralField") -> "SpectralField":
        """Alias-free product (3/2 zero-padding rule, or unpadded when the
        band bounds prove the result already fits)."""
        return _dealiased(self, other, np.multiply)

    def outer(self, other: "SpectralField") -> "SpectralField":
        """self tensor other of two vectors, entries (i, j) = self_i other_j,
        alias-free as ``product``."""
        return _dealiased(self, other, lambda a, b: a[:, None] * b[None])

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
        c = np.roll(self.coef, (s1, s2), axis=(-2, -1))
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
        return SpectralField(grid, _pad(self.coef, grid.n), band=self._band)

    # -- norms ------------------------------------------------------------
    def l2_norm(self) -> float:
        """L^2 norm; the components' norms combine through hypot."""
        return float(np.hypot.reduce(
            [2.0 * np.pi * np.sqrt(np.sum(np.abs(c.coef) ** 2))
             for c in self]))

    def sup_norm(self) -> float:
        """L^inf of the pointwise modulus on the 3/2-oversampled grid."""
        return float(modulus(self).max())


class VectorField(SpectralField):
    """Velocity-type field: components (u1, u2) on one leading axis."""

    __slots__ = ()

    def __new__(cls, u1: SpectralField, u2: SpectralField):
        return _stack((u1, u2), (2,))

    u1 = property(lambda self: self._component(0))
    u2 = property(lambda self: self._component(1))

    # each kind owns its sup_norm entry, which benchmark/spans.py wraps
    sup_norm = SpectralField.sup_norm


class MatrixField(SpectralField):
    """2x2 tensor field (stress / momentum-flux type), entries (i, j)."""

    __slots__ = ()

    def __new__(cls, a11, a12, a21, a22):
        return _stack((a11, a12, a21, a22), (2, 2))

    a11 = property(lambda self: self._component((0, 0)))
    a12 = property(lambda self: self._component((0, 1)))
    a21 = property(lambda self: self._component((1, 0)))
    a22 = property(lambda self: self._component((1, 1)))

    sup_norm = SpectralField.sup_norm


#: component shape of each kind, and the kind of each component shape
_SHAPES = {SpectralField: (), VectorField: (2,), MatrixField: (2, 2)}
_KINDS = {shape: kind for kind, shape in _SHAPES.items()}


def _stack(parts, shape) -> SpectralField:
    """One field from scalar components, with their known bands and reality."""
    grid = parts[0].grid
    coef = np.stack([p.coef for p in parts]).reshape(shape + (grid.n,) * 2)
    band = reduce(_max_band, (p._band for p in parts))
    reals = [p._real for p in parts]
    real = False if False in reals else (True if all(reals) else None)
    return SpectralField(grid, coef, band=band, real=real)


def _max_band(b1, b2):
    if b1 is None or b2 is None:
        return None
    return max(b1, b2)


def _pad(coef: np.ndarray, m: int) -> np.ndarray:
    """The n x n coefficients' band below both Nyquist frequencies in a new
    m x m array, per component: an embedding for m >= n, else a cut."""
    n = coef.shape[-1]
    out = np.zeros(coef.shape[:-2] + (m, m), dtype=np.complex128)
    h = min(n, m) // 2
    out[..., :h, :h] = coef[..., :h, :h]
    out[..., :h, m - h:] = coef[..., :h, n - h:]
    out[..., m - h:, :h] = coef[..., n - h:, :h]
    out[..., m - h:, m - h:] = coef[..., n - h:, n - h:]
    return out


def _truncate(coef: np.ndarray, n: int) -> np.ndarray:
    """Restrict m x m coefficients (m >= n) to the n x n band."""
    return coef if coef.shape[-1] == n else _pad(coef, n)


def _physical(f: SpectralField, m: int, symbol=None) -> np.ndarray:
    """Samples of an n x n field on the m x m grid (m >= n), one transform
    for all components: float64 from the k2 >= 0 half when the field's
    samples are real, complex otherwise.  With ``symbol`` (n x n, real and
    even), the samples of the Fourier multiple symbol * f: formed as a
    field, which tests its own reality, unless f is real, when so is the
    multiple and its coefficients are never formed.

    The complex inverse runs in place on the padded coefficients, the
    real one writes its samples over the half spectrum (consumed by its
    first axis), and the scaling is in place, so no further copy of a
    stack is made.
    """
    if symbol is not None and not f.real_samples:
        f, symbol = f.apply_symbol(symbol), None
    c = f.coef
    if f.real_samples:
        h = f.grid.nyquist
        half = np.zeros(c.shape[:-2] + (m, m // 2 + 1), dtype=np.complex128)
        half[..., :h, :h] = c[..., :h, :h]
        half[..., m - h + 1:, :h] = c[..., h + 1:, :h]
        if symbol is not None:
            half[..., :h, :h] *= symbol[:h, :h]
            half[..., m - h + 1:, :h] *= symbol[h + 1:, :h]
        p = half.view(np.float64)[..., :m]
        np.fft.irfftn(half, s=(m, m), axes=(-2, -1), out=p)
    else:
        p = _pad(c, m)
        np.fft.ifftn(p, axes=(-2, -1), out=p)
    p *= m * m
    return p


def _dealiased(f: SpectralField, g: SpectralField, op) -> SpectralField:
    """op of the samples of f and g, unpadded when the band bounds prove
    that the result fits, on the 3/2 grid otherwise."""
    n = f.grid.n
    band = f.band + g.band
    m = n if band <= n // 2 - 1 else (3 * n) // 2
    phys = op(_physical(f, m), _physical(g, m))
    return SpectralField(f.grid, padded_spectral(phys, n),
                         band=band if m == n else None)


def padded_physical(f: SpectralField) -> np.ndarray:
    """Samples of an n-band field on the 3/2-padded m x m grid."""
    return _physical(f, (3 * f.grid.n) // 2)


def padded_spectral(phys: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of m x m samples (m >= n), truncated to the n x n band;
    leading axes are components, transformed in one call.

    Float samples take ``rfft2``; the k2 < 0 columns then follow from
    c[xi] = conj(c[-xi]), read on views of the half spectrum.
    """
    m = phys.shape[-1]
    # the second axis transforms in place in the output of the first
    if np.iscomplexobj(phys):
        r = np.fft.fftn(phys, axes=(-2, -1), out=np.empty_like(phys))
        r /= m * m
        return _truncate(r, n)
    r = np.fft.rfftn(phys, axes=(-2, -1), out=np.empty(
        phys.shape[:-1] + (m // 2 + 1,), dtype=np.complex128))
    r /= m * m
    h = n // 2
    out = np.empty(phys.shape[:-2] + (n, n), dtype=np.complex128)
    out[..., :h, :h] = r[..., :h, :h]
    out[..., h:, :h] = r[..., m - h:, :h]
    # column k2 = q - n (h <= q < n) is the conjugate of column n - q at -k1:
    # rows 0, 1..h-1 and h..n-1 mirror rows 0, m-1..m-h+1 and h..1
    np.conj(r[..., 0, h:0:-1], out=out[..., 0, h:])
    np.conj(r[..., m - 1:m - h:-1, h:0:-1], out=out[..., 1:h, h:])
    np.conj(r[..., h:0:-1, h:0:-1], out=out[..., h:, h:])
    return out


def modulus(f: SpectralField, symbol=None) -> np.ndarray:
    """Pointwise Euclidean modulus of a field's components on the 3/2 grid,
    or of its Fourier multiple by ``symbol`` (see ``_physical``)."""
    p = _physical(f, (3 * f.grid.n) // 2, symbol)
    if p.ndim == 2:
        return np.abs(p)
    tot = None
    for q in p.reshape((-1,) + p.shape[-2:]):
        sq = np.abs(q)
        sq *= sq
        tot = sq if tot is None else np.add(tot, sq, out=tot)
    return np.sqrt(tot, out=tot)


def fit_grid(field: SpectralField, min_n: int = 64) -> SpectralField:
    """Re-represent a field on the smallest power-of-two grid holding its band.

    Exact (no information is lost); used to keep long-lived band-limited
    fields compact while products are still evaluated on finer grids.
    """
    n = min_n
    while n // 2 - 1 < field.band:
        n *= 2
    if n >= field.grid.n:
        return field
    return field.regrid(Grid(n))


# ---------------------------------------------------------------------------
# Helmholtz/Leray projection and the divergence lift
# ---------------------------------------------------------------------------

def leray_project(v: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields: v - grad Delta^{-1} div v.

    The mean (xi = 0) component is kept unchanged.
    """
    g = v.grid
    ksafe = g.ksq.copy()
    ksafe[0, 0] = 1.0
    dotk = (g.k1 * v.coef[0] + g.k2 * v.coef[1]) / ksafe
    dotk[0, 0] = 0.0
    out = np.array(v.coef)
    for j, kk in enumerate((g.k1, g.k2)):
        out[j] -= kk * dotk
    return SpectralField(g, out, band=v._band)


def calderon_lift(w: SpectralField, div_tol: float = 1e-10) -> SpectralField:
    """Symmetric lift R w = -(grad + grad^T)(-Delta)^{-1} w with
    div(R w) = w for solenoidal, mean-zero w.

    Preconditions: div w = 0 and mean(w) = 0 (relative tolerance div_tol).
    """
    g = w.grid
    scale = max(np.abs(w.coef).max(), 1e-300)
    d = w.divergence()
    if np.abs(d.coef).max() > div_tol * scale * max(1.0, g.nyquist):
        raise ValueError("calderon_lift requires a divergence-free field")
    if np.abs(w.coef[:, 0, 0]).max() > div_tol * scale:
        raise ValueError("calderon_lift requires a mean-zero field")
    grad = w.inv_laplacian(mean_tol=1e-6).gradient()
    return -(grad + grad.transpose())
