"""Frequency / concentration / mollification parameter schedules.

Each level q of the iteration carries a shear frequency ``lam_q``, an
intermittency frequency ``mu_q`` and a mollification scale ``ell_q``.
Two regimes are supported:

* the *strict* double-exponential schedule ``lam_q = n_lambda**4 * a**(b**q)``
  with ``a, b >= 2**15``, which is what the quantitative estimates require
  but is far outside what any grid can resolve; and
* a *toy* schedule with small hand-picked frequencies, used for every
  numerical experiment in this package.

In both regimes every ``lam_q`` and ``mu_q`` must be divisible by the
direction-set denominator-clearing factor ``n_lambda`` so that all Fourier
phases ``lam * k . x`` land on integer frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import LAMBDA, DirectionSet

STRICT_MIN_BASE = 2 ** 15


@dataclass(frozen=True)
class ParamSchedule:
    """Per-level parameters of the convex-integration-style iteration.

    Attributes
    ----------
    lams:
        Shear frequencies ``lam_1 < lam_2 < ...``, one per level.
    mus:
        Intermittency frequencies, one per level, each dividing the
        corresponding ``lam`` and a multiple of ``directions.n_lambda``.
    ell_exp:
        Mollification exponent: ``ell_q = lam_q ** (-ell_exp)``.
    directions:
        The direction set whose denominators the frequencies must clear.
    """

    lams: tuple[int, ...]
    mus: tuple[int, ...]
    ell_exp: float = 2.0
    directions: DirectionSet = field(default=LAMBDA)

    def __post_init__(self) -> None:
        if len(self.lams) != len(self.mus):
            raise ValueError("lams and mus must have equal length")
        if not self.lams:
            raise ValueError("schedule must have at least one level")
        n_lam = self.directions.n_lambda
        prev = 0
        for lam, mu in zip(self.lams, self.mus):
            if lam <= prev:
                raise ValueError("lams must be strictly increasing")
            prev = lam
            if lam % n_lam != 0:
                raise ValueError(
                    f"lam={lam} is not a multiple of n_lambda={n_lam}"
                )
            if mu % n_lam != 0:
                raise ValueError(
                    f"mu={mu} is not a multiple of n_lambda={n_lam}"
                )
            if mu <= 0 or mu > lam:
                raise ValueError(f"mu={mu} must lie in (0, lam={lam}]")
        if self.ell_exp <= 0:
            raise ValueError("ell_exp must be positive")

    @property
    def levels(self) -> int:
        return len(self.lams)

    def _check(self, q: int) -> None:
        if not 1 <= q <= len(self.lams):
            raise IndexError(f"level index {q} outside 1..{len(self.lams)}")

    def lam(self, q: int) -> int:
        """Shear frequency of level ``q`` (1-based)."""
        self._check(q)
        return self.lams[q - 1]

    def mu(self, q: int) -> int:
        """Intermittency frequency of level ``q`` (1-based)."""
        self._check(q)
        return self.mus[q - 1]

    def ell(self, q: int) -> float:
        """Mollification scale of level ``q`` (1-based).

        Underflows to 0.0 for frequencies beyond float range.
        """
        self._check(q)
        try:
            return float(self.lams[q - 1]) ** (-self.ell_exp)
        except OverflowError:
            return 0.0


def strict_schedule(
    a: int,
    b: int,
    levels: int,
    directions: DirectionSet = LAMBDA,
) -> ParamSchedule:
    """Double-exponential schedule ``lam_q = n_lambda**4 * a**(b**q)``.

    ``mu_q`` is chosen as the smallest multiple of ``n_lambda`` that is at
    least ``lam_q ** (1/4)``.  The bases must satisfy ``a, b >= 2**15``,
    as the quantitative estimates demand.
    """
    if a < STRICT_MIN_BASE or b < STRICT_MIN_BASE:
        raise ValueError(f"strict schedule requires a, b >= {STRICT_MIN_BASE}")
    n_lam = directions.n_lambda
    lams = []
    mus = []
    for q in range(1, levels + 1):
        lam = n_lam ** 4 * a ** (b ** q)
        # integer fourth root (lam is far beyond float range)
        root = math.isqrt(math.isqrt(lam))
        while root ** 4 < lam:
            root += 1
        mu = n_lam * max(1, -(-root // n_lam))
        lams.append(lam)
        mus.append(mu)
    return ParamSchedule(tuple(lams), tuple(mus), directions=directions)


def toy_schedule(
    levels: int = 3, directions: DirectionSet = LAMBDA
) -> ParamSchedule:
    """Small grid-resolvable schedule used throughout the experiments.

    ``lam = (25, 125, 625, ...)`` (powers of 5 times ``n_lambda``) with
    ``mu = n_lambda = 5`` at every level, the nearest multiple of
    ``n_lambda`` to ``lam_1 ** (1/4)``.
    """
    n_lam = directions.n_lambda
    lams = tuple(n_lam * 5 ** q for q in range(1, levels + 1))
    mus = tuple(n_lam for _ in range(levels))
    return ParamSchedule(lams, mus, directions=directions)
