"""Pseudo-spectral core on the periodic square [0, 2pi)^2.

Coefficient convention: a field is stored by its DFT coefficients c[xi] in
standard DFT order (numpy fftfreq layout, row-major), with

    f(x) = sum_xi c[xi] exp(i xi . x),        c = fft2(samples) / n^2 .

One type, ``SpectralField``, holds scalars, vectors and 2x2 tensors: its
``coef`` has shape (*components, n, n), with components () for a scalar,
(2,) for a vector and (2, 2) for a matrix, and every operator broadcasts
over the leading axes, so a stack of components is transformed together:
a complex stack in one transform call, a real one in two single-axis
passes, the first over the live columns only.
``VectorField`` and ``MatrixField`` add only a constructor from components
and the named component views.

All derivative operators act diagonally on coefficients.  Quadratic
quantities are computed alias-free: either by 3/2 zero padding, or — when a
conservative band bound shows the product already fits below the Nyquist
frequency — by an unpadded transform (identical result, cheaper).  The
3/2-padded transform pair (``padded_physical``/``padded_spectral``) and the
pointwise modulus built on it (``modulus``, formed in place in the samples'
own planes) live here only; products, sup norms and block norms all go
through them.

Every product is a sum of products: ``product_sums`` takes pairs of fields
grouped by key, samples each distinct field once from its own grid, adds
the products of one key in physical space and makes one forward transform
per key, on the grid it alone picks (see its docstring).  ``product`` and
``outer`` pass one pair, bounded by their own grid; a series product
(``timefield.ExpSeries.product``) passes one key per rate sum, unbounded.
Every quadratic flux divergence, the solver's advection, F1's and F2's
cross terms and the pressure contract's, is a ``flux_divergences`` call,
which reads the three planes (t11, t12, t22) of a symmetric product.
``_runs`` is the one placement rule: the slice blocks that carry the
coefficients of any grid, at a frequency offset, to another, keeping only
what lands at |xi|_inf <= n/2 - 1, as a cut does.  Nothing wraps, so a
shift formed on any grid equals the same shift formed on a finer grid and
cut back.  ``_pad`` (every embedding and cut) places by it, and
``add_shifted`` adds by it for ``SpectralField.shift``, ``weighted_sum``
and the construction's accumulators.
``grid_for`` is the one rule for the smallest grid that holds a band;
``product_sums`` and ``fit_grid`` read it.

A grid size n is a multiple of 4, at least 16, with no prime factor other
than 2, 3 and 5, so the 3/2 grid m = 3n/2 is even and 5-smooth as well;
numpy's transforms are fast on such sizes.  From band 31 up, the grid
``grid_for`` picks is at most 1.18 times the least even size 2 band + 2
that holds the band, where the next power of two can be nearly twice it.
Every layout rule here asks only that n and m be even.

A field whose samples are real (``real_samples``: every component
Hermitian, and its Nyquist row and column, which ``_pad`` would embed on
one side only, no larger than rounding, both to 1e-12 of the component's
largest coefficient) takes real-to-complex transforms (``irfftn``/
``rfftn``, one axis per call), which drop the Nyquist lines; any other
field, a stack mixing real and complex components included, keeps the
complex ones.  Every truncation is symmetric: a cut to a smaller grid and
every product leave the new Nyquist row and column empty (an unpadded
product's are cleared), so the product of real fields is real and a
solver state that starts real stays on the real transforms.
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
    "mode_modulus",
    "padded_physical",
    "padded_spectral",
    "product_sums",
    "flux_divergences",
    "add_shifted",
]


@lru_cache(maxsize=None)
def _grid_cache(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    # read-only broadcast views: the grid cache keeps one n x n array
    k1 = np.broadcast_to(k[:, None], (n, n))
    k2 = np.broadcast_to(k[None, :], (n, n))
    ksq = (k1 * k1 + k2 * k2).astype(np.float64)
    return k, k1, k2, ksq


def _five_smooth(n: int) -> bool:
    """n has no prime factor other than 2, 3 and 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@dataclass(frozen=True)
class Grid:
    """Uniform n x n grid on the torus: n >= 16, a multiple of 4 with no
    prime factor other than 2, 3 and 5, so that the 3/2 grid m = 3n/2 is
    even and 5-smooth too."""

    n: int

    def __post_init__(self):
        if self.n < 16 or self.n % 4 or not _five_smooth(self.n):
            raise ValueError("grid size must be a 5-smooth multiple of 4, "
                             f">= 16, got {self.n}")

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


def _band_of(coef: np.ndarray) -> int:
    """Conservative |xi|_inf band bound of a stack: the largest |xi|_inf
    at which some component carries coefficient mass above 1e-14 of its
    own largest; read off the rows and columns that hold any."""
    n = coef.shape[-1]
    mags = np.abs(coef)
    sig = mags > 1e-14 * mags.max(axis=(-2, -1), keepdims=True)
    sig = sig.reshape(-1, n, n).any(axis=0)
    absk = np.abs(np.fft.fftfreq(n, d=1.0 / n))  # no n x n grid cache
    return int(max(absk[sig.any(axis=1)].max(initial=0),
                   absk[sig.any(axis=0)].max(initial=0)))


#: relative size, per component, below which a defect of Hermitian symmetry
#: or a Nyquist coefficient is rounding and the samples count as real
_REAL_TOL = 1e-12


def _largest(c: np.ndarray) -> np.ndarray:
    """Each component's largest coefficient modulus (1e-300 for a zero)."""
    return np.maximum(np.abs(c).max(axis=(-2, -1)), 1e-300)


def _hermitian(c: np.ndarray, bound: np.ndarray) -> bool:
    """c[-xi] = conj(c[xi]) to ``bound`` (one entry per component)."""
    h = c.shape[-1] // 2
    # -xi on strided views: rows i <-> n - i (1 <= i < h), rows 0 and h
    # map to themselves, and likewise for columns
    pairs = ((c[..., 1:h, 1:], c[..., :h:-1, :0:-1]),
             (c[..., 1:h, :1], c[..., :h:-1, :1]),
             (c[..., ::h, 1:], c[..., ::h, :0:-1]),
             (c[..., ::h, :1], c[..., ::h, :1]))
    return all(bool((np.abs(a - b.conj()).max(axis=(-2, -1))
                     <= bound).all()) for a, b in pairs)


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
            self._band = _band_of(self.coef)
        return self._band

    @property
    def real_samples(self) -> bool:
        """True when the samples are real on every grid m >= n, to 1e-12 of
        each component's largest coefficient: Hermitian coefficients
        (``is_real``) and a Nyquist row and column no larger than that,
        which the real transforms drop (``_pad`` would embed them on one
        side only)."""
        if self._real is None:
            c, h = self.coef, self.grid.nyquist
            bound = _REAL_TOL * _largest(c)
            nyq = np.maximum(np.abs(c[..., h, :]).max(axis=-1),
                             np.abs(c[..., :, h]).max(axis=-1))
            self._real = bool((nyq <= bound).all()) and _hermitian(c, bound)
        return self._real

    def to_physical(self) -> np.ndarray:
        return np.fft.ifft2(self.coef) * (self.grid.n * self.grid.n)

    def mean(self) -> complex:
        return complex(self.coef[0, 0])

    def is_real(self, tol: float = _REAL_TOL) -> bool:
        """Check Hermitian symmetry c[-xi] = conj(c[xi]) of every component
        to tol of its own largest coefficient."""
        return _hermitian(self.coef, tol * _largest(self.coef))

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
    def apply_symbol(self, symbol: np.ndarray) -> "SpectralField":
        """The Fourier multiplier ``symbol`` (n x n) on every component.

        It cannot widen the band, which is kept.
        """
        return SpectralField(self.grid, symbol * self.coef, band=self._band)

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
        if np.any(np.abs(c[..., 0, 0]) > mean_tol * _largest(c)):
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
        """Alias-free product on this field's grid (``product_sums``: 3/2
        padded, or unpadded when the band bounds prove it fits)."""
        (_, p), = product_sums({0: [(self, other)]}, self.grid)
        return p

    def outer(self, other: "SpectralField") -> "SpectralField":
        """self tensor other of two vectors, entries (i, j) = self_i other_j,
        alias-free as ``product``."""
        (_, p), = product_sums({0: [(self, other)]}, self.grid, _outer)
        return p

    def shift(self, s1: int, s2: int) -> "SpectralField":
        """Multiply by exp(i (s1, s2) . x): an exact frequency shift.

        Requires the shifted band to stay inside the Nyquist square.  It is
        ``add_shifted`` into zeros, so content that lands beyond
        |xi|_inf = n/2 - 1 is dropped; it lies beyond ``band``, so below
        1e-14 of the largest coefficient.
        """
        n = self.grid.n
        shift = max(abs(s1), abs(s2))
        if self.band + shift > n // 2 - 1:
            raise ValueError(
                f"shift by {(s1, s2)} pushes band {self.band} beyond grid n={n}"
            )
        c = np.zeros_like(self.coef)
        add_shifted(c, self.coef, (s1, s2))
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
    """The n x n coefficients in a new m x m array, per component, placed
    by ``_runs`` at offset 0: an embedding for m > n, else a cut to
    |xi|_inf <= m/2 - 1, which leaves row and column m/2 empty, so a real
    field's cut stays real.  For m = n it is a copy, Nyquist lines kept."""
    if coef.shape[-1] == m:
        return coef.astype(np.complex128)
    out = np.zeros(coef.shape[:-2] + (m, m), dtype=np.complex128)
    for src, dst in _runs(coef.shape[-1], (0, 0), m):
        out[dst] = coef[src]
    return out


def _physical(f: SpectralField, m: int, symbol=None) -> np.ndarray:
    """Samples of an n x n field on the m x m grid (m >= n), all components
    at once: float64 from the k2 >= 0 half when the field's samples are
    real, complex otherwise.  With ``symbol`` (n x n, real and even), the
    samples of the Fourier multiple symbol * f: formed as a field, which
    tests its own reality, unless f is real, when so is the multiple and
    its coefficients are never formed.

    Real samples take two single-axis passes, the first over the live
    columns only: the k2 >= 0 columns up to the last that holds a nonzero
    coefficient (and a nonzero ``symbol`` entry) are inverted along k1 in
    place, and the real inverse along k2 zero-fills the rest of the half
    spectrum itself.  The complex inverse is one call, in place on the
    padded coefficients.  The scaling is in place.
    """
    if symbol is not None and not f.real_samples:
        f, symbol = f.apply_symbol(symbol), None
    c = f.coef
    if f.real_samples:
        h = f.grid.nyquist
        # the exact nonzero extent: ``band`` drops rounding-level content
        live = np.any(c[..., :h], axis=tuple(range(c.ndim - 1)))
        if symbol is not None:
            live &= symbol[:, :h].any(axis=0)
        b = max(len(np.trim_zeros(live, "b")), 1)
        half = np.zeros(c.shape[:-2] + (m, b), dtype=np.complex128)
        half[..., :h, :] = c[..., :h, :b]
        half[..., m - h + 1:, :] = c[..., h + 1:, :b]
        if symbol is not None:
            half[..., :h, :] *= symbol[:h, :b]
            half[..., m - h + 1:, :] *= symbol[h + 1:, :b]
        np.fft.ifftn(half, axes=(-2,), out=half)
        p = np.fft.irfftn(half, s=(m,), axes=(-1,))
    else:
        p = _pad(c, m)
        np.fft.ifftn(p, axes=(-2, -1), out=p)
    p *= m * m
    return p


def product_sums(groups: dict, grid: Grid | None = None, op=np.multiply):
    """(key, field) for each key in order, computed as each is taken: the
    alias-free sum of op(f, g) over the pairs (f, g) of groups[key], on the
    grid the call picks, with its band (None when unknown).

    The one grid rule of products: the smallest grid (``grid_for``) of the
    largest band sum f.band + g.band over the pairs, never below the finest
    factor's grid, so every sum fits unpadded and its band is known.
    ``grid`` bounds it: no sum lies on a finer grid, and when the pairs do
    not fit there they are formed on its 3/2 grid and truncated, band
    unknown.  A factor finer than ``grid`` is refused.

    Each distinct field is sampled once, from its own grid, and its samples
    go as soon as its last pair is formed; the terms of a key are added in
    physical space and take one forward transform.  Every sum leaves row
    and column n/2 empty: a truncation cuts them, and an unpadded sum's
    are cleared, as the exact product has nothing there.  ``op`` maps
    two sample stacks to one: ``np.multiply``, ``_outer``, or
    ``sym_outer``, whose three planes (t11, t12, t22) come back as a
    symmetric matrix, a read-only view in which t21 is t12.
    """
    pairs = [p for ps in groups.values() for p in ps]
    finest = max((f.grid.n for p in pairs for f in p), default=0)
    band = max((f.band + g.band for f, g in pairs), default=0)
    n = max(grid_for(band).n, finest)
    if grid is not None:
        if finest > grid.n:
            raise ValueError(
                f"a factor's grid is finer than the product grid {grid.n}")
        n = min(n, grid.n)
    m = n if band <= n // 2 - 1 else (3 * n) // 2
    out = Grid(n)
    last = {id(f): i for i, ps in enumerate(groups.values())
            for p in ps for f in p}
    samples: dict = {}

    def sample(f):
        if id(f) not in samples:
            samples[id(f)] = _physical(f, m)
        return samples[id(f)]

    for i, (key, ps) in enumerate(groups.items()):
        phys = None
        for f, g in ps:
            term = op(sample(f), sample(g))
            if phys is None:
                phys = term
            elif phys.dtype == np.result_type(phys, term):
                phys += term
            else:
                phys = phys + term
            del term
        for k in [k for k, j in last.items() if j == i]:
            del samples[k]  # the samples go before the transform
        c = padded_spectral(phys, n)
        del phys
        if m == n:
            c[..., n // 2, :] = c[..., :, n // 2] = 0.0
        if op is sym_outer:
            c = np.lib.stride_tricks.as_strided(
                c, (2, 2) + c.shape[1:], c.strides[:1] + c.strides,
                writeable=False)
        yield key, SpectralField(out, c, band=(
            max(f.band + g.band for f, g in ps) if m == n else None))
        del c  # the caller's sum is its own to let go


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The samples a (x) b of two vectors, entries (i, j) = a_i b_j."""
    return a[:, None] * b[None]


def sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(t11, t12, t22) of the symmetric product t = (a (x) b + b (x) a)/2
    of the samples of two vectors; for b = a, the planes of a (x) a bit
    for bit (t12 = (a1 a2 + a1 a2)/2 exactly)."""
    t = np.empty((3,) + a.shape[1:], dtype=np.result_type(a, b))
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.multiply(a[i], b[j], out=t[k])
    if b is not a:
        t[1] += a[1] * b[0]
        t[1] *= 0.5
    return t


def flux_divergences(groups: dict, grid: Grid | None = None):
    """(key, div t) for each key in order, computed as each is taken: t is
    the sum over the pairs (f, g) of vectors in groups[key] of the
    symmetric products (f (x) g + g (x) f)/2, alias-free as in
    ``product_sums``, on the grid it picks (no finer than ``grid``); a
    pair (f, f) gives f (x) f.  Only the planes (t11, t12, t22) are
    transformed, and the divergence reads them as the matrix with
    t21 = t12."""
    for key, t in product_sums(groups, grid, sym_outer):
        div = t.divergence()
        del t
        yield key, div


def add_shifted(acc: np.ndarray, c: np.ndarray, v) -> None:
    """acc += c shifted in frequency by v = (v1, v2), for coefficients c
    of any grid, by slice-adds over ``_runs``' blocks with no padded or
    rolled copy: what lands at |xi + v|_inf <= n/2 - 1 on acc's n-grid is
    added, the rest dropped, so the shift formed on any grid equals the
    same shift formed on a finer grid and then cut, bit for bit."""
    for src, dst in _runs(c.shape[-1], v, acc.shape[-1]):
        acc[dst] += c[src]


def _runs(ns: int, v, n: int):
    """(source, target) index pairs of the blocks that carry frequency xi
    of an ns-grid (-ns/2 <= xi_j < ns/2) to xi + v on an n-grid, for the
    xi with |xi + v|_inf <= n/2 - 1, cut where a source or target index
    wraps."""
    axes = []
    for vj in v:
        lo = max(-(ns // 2), 1 - n // 2 - vj)
        hi = max(lo, min(ns // 2, n // 2 - vj))
        cuts = sorted({lo, hi} | {k for k in (0, -vj) if lo < k < hi})
        axes.append([(slice(a % ns, a % ns + b - a),
                      slice((a + vj) % n, (a + vj) % n + b - a))
                     for a, b in zip(cuts, cuts[1:])])
    for rs, rt in axes[0]:
        for cs, ct in axes[1]:
            yield (..., rs, cs), (..., rt, ct)


def padded_physical(f: SpectralField) -> np.ndarray:
    """Samples of an n-band field on the 3/2-padded m x m grid."""
    return _physical(f, (3 * f.grid.n) // 2)


def padded_spectral(phys: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of m x m samples (m >= n), truncated to the n x n band;
    leading axes are components, transformed together.

    Float samples take two single-axis passes: ``rfftn`` along the last
    axis, then the first axis in place over the h + 1 = n/2 + 1 columns
    that are kept; the k2 < 0 columns then follow from
    c[xi] = conj(c[-xi]), read on views of the half spectrum.  When m > n
    the truncation is symmetric, as ``_pad``'s cut: row and column n/2
    stay empty, so the product of real fields is real.  When m = n they
    keep the samples' Nyquist content.  Complex samples take one call.
    """
    m = phys.shape[-1]
    if np.iscomplexobj(phys):
        # the second axis transforms in place in the output of the first
        r = np.fft.fftn(phys, axes=(-2, -1), out=np.empty_like(phys))
        r /= m * m
        return r if m == n else _pad(r, n)
    h = n // 2
    r = np.fft.rfftn(phys, axes=(-1,))
    kept = r[..., :h + 1]
    np.fft.fftn(kept, axes=(-2,), out=kept)
    kept /= m * m
    out = np.empty(phys.shape[:-2] + (n, n), dtype=np.complex128)
    out[..., :h, :h] = r[..., :h, :h]
    out[..., h:, :h] = r[..., m - h:, :h]
    # column k2 = q - n (h <= q < n) is the conjugate of column n - q at -k1:
    # rows 0, 1..h-1 and h..n-1 mirror rows 0, m-1..m-h+1 and h..1
    np.conj(r[..., 0, h:0:-1], out=out[..., 0, h:])
    np.conj(r[..., m - 1:m - h:-1, h:0:-1], out=out[..., 1:h, h:])
    np.conj(r[..., h:0:-1, h:0:-1], out=out[..., h:, h:])
    if m > n:
        out[..., h, :] = out[..., :, h] = 0.0
    return out


def modulus(f: SpectralField, symbol=None) -> np.ndarray:
    """Pointwise Euclidean modulus of a field's components on the 3/2 grid,
    or of its Fourier multiple by ``symbol`` (see ``_physical``): squared,
    summed and rooted in place, in the samples' own planes (complex
    samples in one float stack of their moduli)."""
    p = _physical(f, (3 * f.grid.n) // 2, symbol)
    if p.ndim == 2:
        return np.abs(p)
    q = p.reshape((-1,) + p.shape[-2:])
    if np.iscomplexobj(q):
        q = np.abs(q)
    np.multiply(q, q, out=q)  # float samples: |q| |q| = q q bit for bit
    for plane in q[1:]:
        q[0] += plane
    return np.sqrt(q[0], out=q[0])


def mode_modulus(f: SpectralField) -> np.ndarray:
    """|c(xi)|_2, each mode's coefficients' Euclidean norm over the
    components, by abs and hypot, which cannot underflow; its sum bounds
    the sup of the pointwise modulus."""
    c = np.abs(f.coef)
    return np.hypot.reduce(c.reshape((-1,) + c.shape[-2:]), axis=0)


def weighted_sum(fields, weights) -> SpectralField:
    """sum_i weights[i] * fields[i] in one array on the finest of their
    grids, in order: the first term placed there as ``regrid`` would, each
    later one added in place, a coarser one by ``add_shifted`` at offset 0
    (a term of the finest grid whole, Nyquist lines included)."""
    fields = list(fields)
    grid = max((f.grid for f in fields), key=lambda g: g.n)
    out = None
    for f, w in zip(fields, weights):
        # x * 1 is x bit for bit, so a later unit weight makes no copy
        term = f.coef if out is not None and np.isscalar(w) and w == 1 \
            else f.coef * w
        if out is None:
            out = term if f.grid == grid else _pad(term, grid.n)
        elif f.grid == grid:
            out += term
        else:
            add_shifted(out, term, (0, 0))
    return SpectralField(grid, out,
                         band=reduce(_max_band, (f._band for f in fields)))


def grid_for(band: int) -> Grid:
    """The smallest grid, at least 64, that holds ``band`` (band <= n/2 - 1):
    the first 5-smooth multiple of 4 from max(64, 2 band + 2) up."""
    n = max(64, 2 * band + 2)
    n += -n % 4
    while not _five_smooth(n):
        n += 4
    return Grid(n)


def fit_grid(field: SpectralField) -> SpectralField:
    """Re-represent a field on the smallest grid holding its band
    (``grid_for``), when that is smaller than its own.

    It drops what lies beyond ``band``: when the band was measured
    (``_band_of``), coefficients each below 1e-14 of their component's
    largest; when it was passed on as a bound, only zeros.  It keeps
    long-lived band-limited fields compact; products pick their own
    grids (``product_sums``).
    """
    grid = grid_for(field.band)
    return field if grid.n >= field.grid.n else field.regrid(grid)


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


#: relative tolerance of ``calderon_lift``'s divergence and mean checks
_LIFT_TOL = 1e-10


def calderon_lift(w: SpectralField) -> SpectralField:
    """Symmetric lift R w = -(grad + grad^T)(-Delta)^{-1} w with
    div(R w) = w for solenoidal, mean-zero w.

    Preconditions: div w = 0 and mean(w) = 0 (relative tolerance _LIFT_TOL).
    """
    g = w.grid
    scale = max(np.abs(w.coef).max(), 1e-300)
    d = w.divergence()
    if np.abs(d.coef).max() > _LIFT_TOL * scale * max(1.0, g.nyquist):
        raise ValueError("calderon_lift requires a divergence-free field")
    if np.abs(w.coef[:, 0, 0]).max() > _LIFT_TOL * scale:
        raise ValueError("calderon_lift requires a mean-zero field")
    grad = w.inv_laplacian(mean_tol=1e-6).gradient()
    return -(grad + grad.transpose())
