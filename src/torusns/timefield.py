"""Closed-form time dependence: finite sums of decaying exponentials.

Every field in the construction evolves as a finite sum
``sum_r f_r(x) exp(-r t)`` with nonnegative rates ``r`` and spatial
fields ``f_r`` (scalar, vector, or matrix).  Holding the terms keyed by
rate keeps time derivatives, heat flow factors, products, and time
mollification exact — no time discretization enters until the forced
Navier-Stokes solver.  A product of two series samples each term once and
makes one forward transform per rate of the result.

Every product forms its rate sums in ``ExpSeries.pairs_by_rate``, which
skips a pair with an all-zero factor and leaves out a rate sum whose bound
is below ``NEGLIGIBLE`` (1e-16) of the largest sum's at a larger rate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectral import product_sums, weighted_sum

#: share of a product's largest rate-sum bound below which a faster sum goes
NEGLIGIBLE = 1e-16


def _key(rate: float) -> float:
    """Canonical dict key for a rate (collapses -0.0 and fp dust)."""
    r = float(rate)
    return 0.0 if r == 0.0 else r


class ExpSeries:
    """Finite sum of ``field * exp(-rate * t)`` terms.

    The spatial fields may be any of the spectral container types
    (scalar, vector, matrix) as long as all terms of one series share a
    type; the series only requires them to support ``+``, scalar ``*``,
    and whatever spatial operations are mapped over the terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for r, f in terms.items():
                self._accumulate(_key(r), f)

    def _accumulate(self, r: float, f) -> None:
        old = self.terms.get(r)  # merged as ``at`` merges
        self.terms[r] = f if old is None else weighted_sum((old, f), (1, 1))

    @property
    def rates(self) -> tuple:
        return tuple(sorted(self.terms))

    def at(self, t: float):
        """Evaluate the series at time ``t``: one new array on the finest
        of the terms' grids, the terms added in order."""
        if not self.terms:
            raise ValueError("empty series has no value")
        return weighted_sum(self.terms.values(),
                            [math.exp(-r * t) for r in self.terms])

    def dt(self) -> "ExpSeries":
        """Exact time derivative."""
        return ExpSeries({r: (-r) * f for r, f in self.terms.items()})

    def map(self, op) -> "ExpSeries":
        """Apply a spatial operation to every term."""
        return ExpSeries({r: op(f) for r, f in self.terms.items()})

    def pairs_by_rate(self, other: "ExpSeries") -> dict:
        """{r + s: [(f, g), ...]} over the terms f e^{-rt} of this series
        and g e^{-st} of ``other``, grouped by the key of the rate sum,
        without what lies below rounding.

        A pair with an all-zero factor is skipped.  A rate sum q is left
        out when its bound B_q = sum ||f||_1 ||g||_1 over its pairs (the
        coefficient moduli summed over all components, which bounds every
        coefficient and the sup of the product) is below ``NEGLIGIBLE`` of
        the largest bound B_top, and q exceeds the rate of that sum: then
        B_q e^{-qt} < NEGLIGIBLE B_top e^{-q_top t} for every t >= 0.
        """
        def weighed(series):
            return [(r, f, w) for r, f in series.terms.items()
                    if (w := float(np.abs(f.coef).sum()))]

        out, bound, terms = {}, {}, weighed(other)
        for r1, f1, w1 in weighed(self):
            for r2, f2, w2 in terms:
                q = _key(r1 + r2)
                out.setdefault(q, []).append((f1, f2))
                bound[q] = bound.get(q, 0.0) + w1 * w2
        top = max(bound, key=bound.get, default=None)
        return {q: pairs for q, pairs in out.items()
                if q <= top or bound[q] >= NEGLIGIBLE * bound[top]}

    def product(self, other: "ExpSeries") -> "ExpSeries":
        """Bilinear product; rates add term by term, and the products of one
        rate sum are added before one forward transform, on the grid that
        ``product_sums`` picks for them."""
        return ExpSeries(dict(product_sums(self.pairs_by_rate(other))))

    def scale_rates(self, extra: float) -> "ExpSeries":
        """Multiply the whole series by exp(-extra * t)."""
        return ExpSeries({_key(r + extra): f for r, f in self.terms.items()})

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        out = ExpSeries(dict(self.terms))
        for r, f in other.terms.items():
            out._accumulate(r, f)
        return out

    def __sub__(self, other: "ExpSeries") -> "ExpSeries":
        return self + (-1.0) * other

    def __rmul__(self, a: float) -> "ExpSeries":
        return ExpSeries({r: a * f for r, f in self.terms.items()})

    def __neg__(self) -> "ExpSeries":
        return (-1.0) * self


@lru_cache(maxsize=None)
def _bump_nodes():
    """Composite Gauss-Legendre rule on (0,1) for the normalized time bump.

    The bump is exp(-1/(u(1-u))) on (0,1).  A composite 8-node rule over
    32 panels integrates bump-weighted exponentials to machine precision,
    and normalizing the mass with the same rule makes constants mollify
    to themselves exactly.  The nodes and weights are numpy's
    ``leggauss``.
    """
    panels = 32
    xs, ws = np.polynomial.legendre.leggauss(8)
    u = np.concatenate([(i + 0.5 * (xs + 1.0)) / panels for i in range(panels)])
    w = np.tile(0.5 * ws / panels, panels)
    vals = w * np.exp(-1.0 / (u * (1.0 - u)))
    return u, vals / float(np.sum(vals))


def time_kernel_factor(rate: float, ell: float) -> float:
    """Mollification factor of ``exp(-rate t)`` for window length ``ell``.

    The time kernel averages over the future window (t, t + ell), so
    ``exp(-rate t)`` maps to ``factor * exp(-rate t)`` with
    ``factor = int_0^1 exp(-rate ell u) bump(u) du``.
    """
    if ell < 0:
        raise ValueError("window length must be nonnegative")
    u, w = _bump_nodes()
    return float(np.sum(w * np.exp(-rate * ell * u)))


def mollify_time(series: ExpSeries, ell: float) -> ExpSeries:
    """Exact time mollification of an exponential series."""
    return ExpSeries(
        {r: time_kernel_factor(r, ell) * f for r, f in series.terms.items()}
    )
