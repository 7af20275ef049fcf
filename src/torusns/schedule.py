"""Frequency / concentration / mollification parameter schedules.

Each level q of the iteration carries a shear frequency ``lam_q``, an
intermittency frequency ``mu_q`` and a mollification scale
``ell_q = lam_q ** -ELL_EXP``.

The paper's quantitative estimates need the double-exponential schedule
``lam_q = n_lambda**4 * a**(b**q)`` with ``a, b >= 2**15`` and ``mu_q``
the smallest multiple of ``n_lambda`` at least ``lam_q ** (1/4)``.  No
run can use it: already ``lam_2`` holds ``a**(b**2) = 2**(15 * 2**30)``,
an integer of about 2 GB, and no grid resolves such a frequency.  Every
numerical experiment in this package therefore runs a small
grid-resolvable schedule, by default the *toy* one below.

Every ``lam_q`` and ``mu_q`` must be divisible by the direction-set
denominator-clearing factor ``n_lambda`` so that all Fourier phases
``lam * k . x`` land on integer frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import LAMBDA

#: mollification exponent: ``ell_q = lam_q ** -ELL_EXP``
ELL_EXP = 2.0


@dataclass(frozen=True)
class ParamSchedule:
    """Per-level parameters of the convex-integration-style iteration.

    Attributes
    ----------
    lams:
        Shear frequencies ``lam_1 < lam_2 < ...``, one per level.
    mus:
        Intermittency frequencies, one per level, each at most the
        corresponding ``lam`` and a multiple of ``LAMBDA.n_lambda``.
    """

    lams: tuple[int, ...]
    mus: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lams) != len(self.mus):
            raise ValueError("lams and mus must have equal length")
        if not self.lams:
            raise ValueError("schedule must have at least one level")
        n_lam = LAMBDA.n_lambda
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
        """Mollification scale of level ``q`` (1-based)."""
        self._check(q)
        return float(self.lams[q - 1]) ** -ELL_EXP


def toy_schedule(levels: int = 3) -> ParamSchedule:
    """Small grid-resolvable schedule used throughout the experiments.

    ``lam = (25, 125, 625, ...)`` (powers of 5 times ``n_lambda``) with
    ``mu = n_lambda = 5`` at every level, the nearest multiple of
    ``n_lambda`` to ``lam_1 ** (1/4)``.
    """
    n_lam = LAMBDA.n_lambda
    lams = tuple(n_lam * 5 ** q for q in range(1, levels + 1))
    mus = tuple(n_lam for _ in range(levels))
    return ParamSchedule(lams, mus)
