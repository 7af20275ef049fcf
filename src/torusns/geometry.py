"""Direction set on the rational unit circle and the algebra built on it.

The working set is

    Lambda = { +-(1,0), +-(3/5,4/5), +-(3/5,-4/5) },

five-adic directions: mu k is an integer vector whenever 5 | mu.  For
k in Lambda, kbar denotes k rotated by +pi/2, kbar = (-k2, k1).

Two exact facts are implemented:

* every symmetric matrix R close to the identity is a positive combination
  R = sum_pairs L_P(R) kbar tensor kbar over the three +- pairs, with the
  L_P given by an exact rational inverse (Id weights 7/16, 25/32, 25/32);

* trigonometric flows W = sum_k b_k (i kbar) e^{i mu k.x} with b_{-k} = b_k
  are real, divergence-free, steady Euler flows: div(W tensor W) is an
  exact gradient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import Grid, SpectralField, VectorField

__all__ = [
    "DirectionSet",
    "LAMBDA",
    "GeometricDecompositionError",
    "decompose_matrix",
    "integer_frequency",
    "pair_weight_functionals",
    "stationary_flow",
    "stationary_flow_identity_check",
]


class GeometricDecompositionError(ValueError):
    """Raised when a matrix leaves the positive-decomposition domain."""


@dataclass(frozen=True)
class DirectionSet:
    """The six rational unit directions, stored exactly."""

    pairs: tuple  # three representatives; negatives are implied

    @property
    def elements(self):
        out = []
        for k in self.pairs:
            out.append(k)
            out.append((-k[0], -k[1]))
        return tuple(out)

    @property
    def n_lambda(self) -> int:
        """Least common denominator of all components."""
        d = 1
        for k in self.elements:
            for c in k:
                d = np.lcm(d, Fraction(c).denominator)
        return int(d)

    def to_json(self) -> str:
        data = {
            "n_lambda": self.n_lambda,
            "directions": [
                [[Fraction(c).numerator, Fraction(c).denominator] for c in k]
                for k in self.elements
            ],
        }
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DirectionSet":
        data = json.loads(text)
        els = [tuple(Fraction(p, q) for p, q in k) for k in data["directions"]]
        reps = []
        seen = set()
        for k in els:
            if k in seen:
                continue
            seen.add(k)
            seen.add((-k[0], -k[1]))
            reps.append(k)
        return cls(pairs=tuple(reps))


LAMBDA = DirectionSet(pairs=(
    (Fraction(1), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(3, 5), Fraction(-4, 5)),
))


def perp(k):
    """kbar: rotation by +pi/2."""
    return (-k[1], k[0])


def integer_frequency(k, mu: int) -> tuple:
    """The integer vector mu k; ``mu`` must clear the denominators of k."""
    v1 = Fraction(k[0]) * mu
    v2 = Fraction(k[1]) * mu
    if v1.denominator != 1 or v2.denominator != 1:
        raise ValueError(f"mu={mu} does not clear the denominators of k={k}")
    return int(v1), int(v2)


def pair_weight_functionals():
    """Exact linear functionals L_P with
    sum_P L_P(R) kbar_P tensor kbar_P = R for symmetric trace-consistent R.

    Returned as a list of (pair, (c11, c12, c22)) acting on (R11, R12, R22):
    L_P(R) = c11 R11 + c12 R12 + c22 R22.
    """
    return [
        (LAMBDA.pairs[0], (Fraction(-9, 16), Fraction(0), Fraction(1))),
        (LAMBDA.pairs[1], (Fraction(25, 32), Fraction(-25, 24), Fraction(0))),
        (LAMBDA.pairs[2], (Fraction(25, 32), Fraction(25, 24), Fraction(0))),
    ]


#: Id decomposition weights per +- pair, in pair order.
ID_WEIGHTS = (Fraction(7, 16), Fraction(25, 32), Fraction(25, 32))

#: Radius of the verified positivity ball around Id (Frobenius norm).
DOMAIN_RADIUS = 1e-3


def decompose_matrix(R: np.ndarray, check_domain: bool = True):
    """Positive decomposition R = sum_P a_P^2 kbar tensor kbar over pairs.

    R is a symmetric 2x2 array (the symmetric part is used).  Returns
    {pair: a_P} with a_P = sqrt(L_P(R)).  Raises
    GeometricDecompositionError if R is outside the Frobenius ball of
    radius 1e-3 around Id (when check_domain) or any coefficient is
    non-positive — the error message carries the offending value.
    """
    R = np.asarray(R, dtype=np.float64)
    r11, r22 = R[0, 0], R[1, 1]
    r12 = 0.5 * (R[0, 1] + R[1, 0])
    if check_domain:
        dev = np.array([[r11 - 1.0, r12], [r12, r22 - 1.0]])
        if np.sqrt((dev ** 2).sum()) > DOMAIN_RADIUS:
            raise GeometricDecompositionError(
                f"matrix outside the radius-{DOMAIN_RADIUS} ball around Id")
    out = {}
    for pair, (c11, c12, c22) in pair_weight_functionals():
        val = float(c11) * r11 + float(c12) * r12 + float(c22) * r22
        if val <= 0.0:
            raise GeometricDecompositionError(
                f"negative coefficient {val:.6g} for direction {pair}")
        out[pair] = np.sqrt(val)
    return out


# ---------------------------------------------------------------------------
# Stationary flows
# ---------------------------------------------------------------------------

def stationary_flow(grid: Grid, b, mu: int) -> VectorField:
    """W = sum_{k in Lambda} b_k (i kbar) e^{i mu k.x}.

    `b` maps pair representatives to real coefficients (shared by -k, which
    makes W real).  mu must clear all denominators (a multiple of 5 for the
    standard set).
    """
    modes = {}
    for pair, bk in b.items():
        for k in (pair, (-pair[0], -pair[1])):
            f = integer_frequency(k, mu)
            kb = np.array(perp(k), dtype=float)
            modes[f] = modes.get(f, 0.0) + 1j * kb * float(bk)
    return VectorField.from_modes(grid, modes)


def stationary_flow_identity_check(grid: Grid, b, mu: int):
    """Verify the three structural identities of the trigonometric flows.

    Returns a dict of absolute residuals (sup norms):
      div      : div W = 0
      gradient : div(W tensor W) - 1/2 grad(|W|^2 + Theta^2), where
                 Theta = sum_k b_k e^{i mu k.x} (real since b_{-k} = b_k;
                 the sign of the Theta^2 term is tied to the i kbar
                 reality convention used here)
      tensor   : W tensor W against its resonant/non-resonant expansion
    together with ||W||_inf^2 for relative scaling.
    """
    W = stationary_flow(grid, b, mu)
    div_res = W.divergence().sup_norm()

    theta_modes = {}
    for pair, bk in b.items():
        for k in (pair, (-pair[0], -pair[1])):
            f = integer_frequency(k, mu)
            theta_modes[f] = theta_modes.get(f, 0.0) + float(bk)
    theta = SpectralField.from_modes(grid, theta_modes)

    WW = W.outer(W)
    lhs = WW.divergence()
    press = 0.5 * (WW.a11 + WW.a22 + theta.product(theta))
    rhs = press.gradient()
    grad_res = (lhs - rhs).sup_norm()

    # expansion: sum over ordered element pairs
    els = []
    for pair, bk in b.items():
        els.append((pair, float(bk)))
        els.append(((-pair[0], -pair[1]), float(bk)))
    modes = {}
    for kj, bj in els:
        for kk, bk_ in els:
            fj = integer_frequency(kj, mu)
            fk = integer_frequency(kk, mu)
            f = (fj[0] + fk[0], fj[1] + fk[1])
            # (i jbar) tensor (i kbar) = - jbar tensor kbar; at resonance
            # j = -k this is +b_k^2 kbar tensor kbar since jbar = -kbar.
            amp = -bj * bk_ * np.outer(np.array(perp(kj), dtype=float),
                                       np.array(perp(kk), dtype=float))
            modes[f] = modes.get(f, 0.0) + amp
    expansion = SpectralField.from_modes(grid, modes)
    tensor_res = (WW - expansion).sup_norm()

    wsq = W.sup_norm() ** 2
    return {"div": div_res, "gradient": grad_res, "tensor": tensor_res,
            "scale": max(wsq, 1e-300)}
