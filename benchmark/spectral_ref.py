"""Independent spectral arithmetic for the benchmark's correctness checks.

Plain numpy on DFT coefficient arrays in the program's convention
(f(x) = sum_xi c[xi] e^{i xi.x}, standard DFT order).  Nothing here calls
the program's spectral module, so a fault there cannot hide itself in a
check that uses its own products or projections.
"""

from __future__ import annotations

import math

import numpy as np


def wavenumbers(n: int):
    """Integer wavenumber arrays k1, k2 and |k|^2 on an n x n grid."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1 = np.repeat(k[:, None], n, axis=1)
    k2 = np.repeat(k[None, :], n, axis=0)
    return k1, k2, k1 * k1 + k2 * k2


def resize(c: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad or crop a coefficient array to n x n (Nyquist row dropped)."""
    m = c.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    h = min(m, n) // 2
    out[:h, :h] = c[:h, :h]
    out[:h, n - h:] = c[:h, m - h:]
    out[n - h:, :h] = c[m - h:, :h]
    out[n - h:, n - h:] = c[m - h:, m - h:]
    return out


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Alias-free product of two n x n coefficient arrays, via a 2n grid."""
    n = a.shape[0]
    m = 2 * n
    pa = np.fft.ifft2(resize(a, m)) * (m * m)
    pb = np.fft.ifft2(resize(b, m)) * (m * m)
    return resize(np.fft.fft2(pa * pb) / (m * m), n)


def divergence(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    k1, k2, _ = wavenumbers(c1.shape[0])
    return 1j * (k1 * c1 + k2 * c2)


def gradient(c: np.ndarray):
    k1, k2, _ = wavenumbers(c.shape[0])
    return 1j * k1 * c, 1j * k2 * c


def laplacian(c: np.ndarray) -> np.ndarray:
    return -wavenumbers(c.shape[0])[2] * c


def leray(c1: np.ndarray, c2: np.ndarray):
    """Divergence-free part; the mean mode is kept."""
    k1, k2, ksq = wavenumbers(c1.shape[0])
    safe = np.where(ksq == 0.0, 1.0, ksq)
    dot = (k1 * c1 + k2 * c2) / safe
    return c1 - k1 * dot, c2 - k2 * dot


def flux_divergence(a1, a2, b1, b2):
    """div(a (x) b + b (x) a), row by row, from the four padded products."""
    t11 = 2.0 * product(a1, b1)
    t22 = 2.0 * product(a2, b2)
    t12 = product(a1, b2) + product(a2, b1)
    return divergence(t11, t12), divergence(t12, t22)


def imaginary_share(c: np.ndarray) -> float:
    """max |Im f| / max |f| over the grid points: 0 for a real field."""
    f = np.fft.ifft2(c)
    return float(np.abs(f.imag).max() / max(np.abs(f).max(), 1e-300))


def components(field) -> list:
    """Coefficient arrays of a program scalar, vector or matrix field."""
    for names in (("u1", "u2"), ("a11", "a12", "a21", "a22")):
        if hasattr(field, names[0]):
            return [getattr(field, x).coef for x in names]
    return [field.coef]


def series_at(series, t: float, n: int, deriv: int = 0) -> list:
    """d^deriv/dt^deriv of sum_r f_r e^{-r t}, per component, on an n grid."""
    out = None
    for r, f in series.terms.items():
        w = (-r) ** deriv * math.exp(-r * t)
        comps = [w * resize(c, n) for c in components(f)]
        out = comps if out is None else [a + b for a, b in zip(out, comps)]
    return out


def l1(c: np.ndarray) -> float:
    """Sum of coefficient magnitudes, an upper bound of the sup norm."""
    return float(np.abs(c).sum())


def heat_duhamel(terms, t: float, n: int):
    """-int_0^t e^{(t-s) Delta} P F(s) ds for F = sum_r f_r e^{-r t}.

    ``terms`` maps each rate r to the coefficient arrays (f1, f2).  Mode
    by mode the integral is -P f_r e^{-r t} (1 - e^{-d t}) / d with
    d = |xi|^2 - r, written through expm1, and -P f_r t e^{-r t} at d = 0.
    """
    ksq = wavenumbers(n)[2]
    out = [np.zeros((n, n), dtype=np.complex128) for _ in range(2)]
    for r, (f1, f2) in terms.items():
        d = ksq - r
        safe = np.where(d == 0.0, 1.0, d)
        factor = np.where(d == 0.0, t, -np.expm1(-d * t) / safe)
        factor *= math.exp(-r * t)
        for o, p in zip(out, leray(resize(f1, n), resize(f2, n))):
            o -= factor * p
    return out


def _smooth_step(v: np.ndarray) -> np.ndarray:
    """exp(-1/s) / (exp(-1/s) + exp(-1/(1-s))), s = 2 (v - 1/4) in [0, 1]."""
    s = np.clip(2.0 * (v - 0.25), 0.0, 1.0)
    out = (s >= 1.0).astype(np.float64)
    inner = (s > 0.0) & (s < 1.0)
    e1 = np.exp(-1.0 / s[inner])
    e2 = np.exp(-1.0 / (1.0 - s[inner]))
    out[inner] = e1 / (e1 + e2)
    return out


def dyadic_weights(n: int) -> list:
    """The smooth dyadic partition of the nonzero modes of an n grid.

    With u = log2|xi|, block j < top has weight S(u - j + 1) - S(u - j)
    and the top block S(u - top + 1), top = ceil(log2(n / sqrt 2)) + 1,
    for the C^inf step S rising on [1/4, 3/4]; the mean mode is in none.
    """
    ksq = wavenumbers(n)[2]
    u = np.where(ksq > 0.0, 0.5 * np.log2(np.where(ksq > 0.0, ksq, 1.0)),
                 -40.0)
    top = int(math.ceil(math.log2(math.sqrt(2.0) * (n // 2)))) + 1
    out = []
    for j in range(top + 1):
        w = _smooth_step(u - j + 1)
        if j < top:
            w = w - _smooth_step(u - j)
        w[0, 0] = 0.0
        out.append(w)
    return out


def block_sups(c1: np.ndarray, c2: np.ndarray, weights: list) -> np.ndarray:
    """max |Delta_j c| of a vector field for every block j.

    The sup is taken over the points of a 3n/2 grid, the sampling on
    which the program defines its L^inf block norms.
    """
    n = c1.shape[0]
    m = 3 * n // 2
    out = []
    for w in weights:
        b1, b2 = w * c1, w * c2
        if not (b1.any() or b2.any()):
            out.append(0.0)
            continue
        p1 = np.fft.ifft2(resize(b1, m)) * (m * m)
        p2 = np.fft.ifft2(resize(b2, m)) * (m * m)
        out.append(float(np.sqrt(np.abs(p1) ** 2 + np.abs(p2) ** 2).max()))
    return np.array(out)


def random_solenoidal(rng, n: int, band: int):
    """A real divergence-free field grad^perp psi with |xi|_inf <= band.

    Scaled so that each component's coefficient magnitudes sum to at most
    1, which bounds its sup norm by 1.
    """
    k1, k2, ksq = wavenumbers(n)
    psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi[(np.maximum(np.abs(k1), np.abs(k2)) > band) | (ksq == 0.0)] = 0.0
    mirror = np.roll(np.flip(psi, axis=(0, 1)), 1, axis=(0, 1))
    psi = 0.5 * (psi + np.conj(mirror))
    v1, v2 = 1j * k2 * psi, -1j * k1 * psi
    scale = max(l1(v1), l1(v2))
    return v1 / scale, v2 / scale
