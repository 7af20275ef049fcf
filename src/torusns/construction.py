"""Perturbation flows, amplitudes, and error-term assembly.

Levels come in pairs: an odd seed/carry level and an even level built on
top of it.  The even-level perturbation ``w_p`` is a superposition of
heat-decaying shear modes ``e^{-lam^2 t} e^{i lam k.x}`` along the
rational unit directions, weighted by slowly varying envelopes
(amplitude x cutoff x concentration profile).  A companion low-frequency
flow ``w_s`` cancels the resonant part of ``div(w_p o+ w_p)``, and the
remaining interaction splits into an explicit gradient (absorbed into
the pressure) plus error terms ``F1`` (quadratic, with pressure ``P1``)
and ``F2`` (linear heat residual and cross interactions).  Everything is
held as finite sums of decaying exponentials with band-limited spatial
fields, so every identity below is checked by exact spectral arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain

import numpy as np

from .geometry import (ID_WEIGHTS, LAMBDA, integer_frequency,
                       pair_weight_functionals, perp)
from .profile import ConcentrationProfile
from .schedule import ParamSchedule
from .solver import heat_duhamel
from .spectral import (Grid, MatrixField, SpectralField, VectorField,
                       add_shifted, fit_grid, flux_divergences, grid_for,
                       product_sums)
from .timefield import ExpSeries, mollify_time


# ---------------------------------------------------------------------------
# basic helpers
# ---------------------------------------------------------------------------

def sin_shear(grid: Grid, lam: int) -> VectorField:
    """lam sin(lam x1) e2, the seed shear profile."""
    a = np.array([0.0, 0.5j * lam])
    return VectorField.from_modes(grid, {(lam, 0): -a, (-lam, 0): a})


def heat_mode_residual(grid: Grid, lam: int, times=(0.0, 1e-4, 1e-3)) -> float:
    """Max residual of (d_t - Delta)(e^{-lam^2 t} e^{i lam k.x}) over k.

    The mode is an exact heat solution because |k| = 1; the residual is
    evaluated spectrally at the sampled times, normalized by lam^2.
    """
    worst = 0.0
    for k in LAMBDA.elements:
        v = integer_frequency(k, lam)
        f = SpectralField.from_modes(grid, {v: 1.0})
        series = ExpSeries({float(lam) ** 2: f})
        resid = series.dt() + series.map(lambda g: -1.0 * g.laplacian())
        for t in times:
            worst = max(worst, resid.at(t).sup_norm())
    return worst / float(lam) ** 2


# ---------------------------------------------------------------------------
# mollification and amplitudes
# ---------------------------------------------------------------------------

def mollify_spacetime(series: ExpSeries, ell: float) -> ExpSeries:
    """Space-time mollification at scale ell of an exponential series.

    Space: multiplication by the Gaussian symbol e^{-(ell |xi|)^2 / 2}
    (the heat kernel at time ell^2/2, so |symbol - 1| <= (ell |xi|)^2).
    Time: averaging over the future window (t, t + ell) against a smooth
    compactly supported bump, exact on exponentials.
    """
    if ell < 0:
        raise ValueError("mollification scale must be nonnegative")
    spatial = series.map(lambda f: f.heat(0.5 * ell * ell))
    return mollify_time(spatial, ell)


def _sqrt_series(const: float, series: ExpSeries) -> ExpSeries:
    """sqrt(const + series) as an exponential ladder.

    ``series`` collects the strictly decaying part; the square root is
    expanded to second order in series/const, which is exact to machine
    precision whenever ||series/const|| <~ 1e-5 (the decomposition ball
    guarantees ~1e-6 here).
    """
    root = math.sqrt(const)
    v = (1.0 / const) * series
    v2 = v.product(v)
    out = ExpSeries({0.0: SpectralField.from_modes(Grid(64), {(0, 0): root})})
    out = out + (0.5 * root) * v + (-0.125 * root) * v2
    return out


@dataclass
class PairAmplitude:
    """Per direction pair: raw squared coefficient and mollified amplitude.

    ``raw_sq`` is the exact linear functional L_P(Id + R/(1000 C0)) / 2
    (per direction element; both elements of a pair share it).
    ``amp`` is (2000 C0)^{1/2} x the space-time-mollified square root.
    """

    pair: tuple
    raw_sq: ExpSeries
    amp: ExpSeries
    sqrt_truncation: float


def build_amplitudes(
    R_prev: ExpSeries, C0: float, ell: float, grid: Grid
) -> list:
    """Amplitudes for every direction pair from the previous-level lift.

    Raises if the mollified matrix argument leaves the geometric-lemma
    ball (remedy: raise C0).
    """
    scale = 1.0 / (1000.0 * C0)
    ball = sum(m.sup_norm() for m in R_prev.terms.values()) * scale
    if ball > 1.001e-3:
        raise ValueError(
            f"||R w_p_prev||/(1000 C0) = {ball:.3e} leaves the "
            "decomposition ball; raise C0"
        )
    out = []
    for idx, (pair, (c11, c12, c22)) in enumerate(pair_weight_functionals()):
        const = 0.5 * float(ID_WEIGHTS[idx])
        lin = R_prev.map(
            lambda M: 0.5 * scale * (
                float(c11) * M.a11 + float(c12) * M.a12 + float(c22) * M.a22
            )
        )
        # an all-zero term (a direction the previous lift does not see)
        # would only form products and divergences of zeros
        lin = ExpSeries({r: fit_grid(f) for r, f in lin.terms.items()
                         if f.coef.any()})
        raw_sq = ExpSeries({0.0: _const_field(grid, const)}) + lin
        ladder = _sqrt_series(const, lin)
        # truncation error of the order-2 square-root expansion
        v_norm = sum(f.sup_norm() for f in lin.terms.values()) / const
        trunc = math.sqrt(const) * v_norm ** 3 / 16.0
        amp = math.sqrt(2000.0 * C0) * mollify_spacetime(ladder, ell)
        out.append(PairAmplitude(pair=pair, raw_sq=raw_sq, amp=amp,
                                 sqrt_truncation=trunc))
    return out


def _const_field(grid: Grid, c: float) -> SpectralField:
    small = Grid(64) if grid.n > 64 else grid
    return SpectralField.from_modes(small, {(0, 0): c})


# ---------------------------------------------------------------------------
# level state
# ---------------------------------------------------------------------------

@dataclass
class LevelState:
    """All per-level artifacts of the intertwined iteration."""

    m: int
    lam: int
    w_p: ExpSeries
    R_wp: ExpSeries
    C0: float
    w_s: ExpSeries | None = None
    w_s_tensor: ExpSeries | None = None
    F1: ExpSeries | None = None
    P1: ExpSeries | None = None
    F2: ExpSeries | None = None
    w_p_main: ExpSeries | None = None
    w_p_rem: ExpSeries | None = None
    diagnostics: dict = dc_field(default_factory=dict)

    def w_L(self, times, grid: Grid):
        """The corrector's linear part at each of ``times`` on ``grid``: the
        exact heat-Duhamel integral of F1 + F2 from zero data
        (``solver.heat_duhamel``), which is zero at t = 0."""
        forcing = self.F1 + self.F2
        for t in times:
            yield (VectorField.zero(grid) if t == 0.0
                   else heat_duhamel(forcing, t, grid))

    def parts(self, t: float, grid: Grid) -> dict:
        """The computed parts of w_m(t) on ``grid``, by name: ``w_p``,
        ``w_s`` (when the level has one) and ``w_L`` (when it has a
        forcing)."""
        out = {"w_p": self.w_p.at(t).regrid(grid)}
        if self.w_s is not None:
            out["w_s"] = self.w_s.at(t).regrid(grid)
        if self.F1 is not None:
            out["w_L"], = self.w_L([t], grid)
        return out

    def total_w(self, t: float, grid: Grid) -> VectorField:
        """w_m(t) = (w_p + w_s + w_L)(t) on the requested grid.

        Every part is evaluated exactly at t; nothing is extrapolated.
        The corrector enters through its linear part w_L alone: its
        nonlinear remainder is not solved (the driver's
        ``corrector/window`` entry says so).
        """
        w_p, *rest = self.parts(t, grid).values()
        return sum(rest, w_p)


def seed_level(grid: Grid, schedule: ParamSchedule) -> LevelState:
    """Level 1: the decaying shear lam_1 e^{-lam_1^2 t} sin(lam_1 x_1) e_2."""
    lam = schedule.lam(1)
    rate = float(lam) ** 2
    shear = fit_grid(sin_shear(grid, lam))
    cos = SpectralField.from_modes(
        shear.grid, {(lam, 0): -0.5, (-lam, 0): -0.5})
    zero = SpectralField.zero(shear.grid)
    lift = MatrixField(zero, cos, cos, zero)
    state = LevelState(
        m=1, lam=lam, C0=1000.0,
        w_p=ExpSeries({rate: shear}),
        R_wp=ExpSeries({rate: lift}),
        w_s=None,
    )
    return state


# ---------------------------------------------------------------------------
# even-level construction
# ---------------------------------------------------------------------------

def _pair_data(lam: int):
    """Per direction pair: float k, kbar, and integer lam k."""
    out = []
    for pair in LAMBDA.pairs:
        kf = np.array([float(Fraction(pair[0])), float(Fraction(pair[1]))])
        kb = perp(pair)
        kbf = np.array([float(Fraction(kb[0])), float(Fraction(kb[1]))])
        out.append((kf, kbf, integer_frequency(pair, lam)))
    return out


class EvenLevelBuilder:
    """Builds w_p, w_s, F1/P1, F2 of an even level on top of ``prev``.

    ``grid`` is the product grid: every quadratic interaction must fit on
    it alias-free.  Each product lies on the grid ``product_sums`` picks
    for its pairs; a term the product grid does not hold is refused where
    it is shifted or accumulated.  Long-lived fields are stored
    band-cropped.  The cutoff of the carrying odd level is identically 1
    here: at desk scale the seed shear fills the whole torus, so the
    plateau requirement chi w_p_prev = w_p_prev forces the trivial cutoff
    (the strip sets and the real cutoff are still built and measured by
    the cutoff system).
    """

    def __init__(self, grid: Grid, schedule: ParamSchedule, m: int,
                 prev: LevelState, profile_band: int = 62):
        if m < 2 or m > schedule.levels:
            raise ValueError(f"level {m} outside the schedule")
        if prev.m != m - 1:
            raise ValueError("builder needs the carrying level m-1")
        self.grid = grid
        self.schedule = schedule
        self.m = m
        self.prev = prev
        self.lam = schedule.lam(m)
        self.mu = schedule.mu(m)
        self.ell = schedule.ell(m - 1)
        self.realized = ConcentrationProfile().realize(profile_band)
        self.pairs = _pair_data(self.lam)

    # -- building blocks --------------------------------------------------
    def concentration_fields(self) -> list:
        """phi_{k} = phi(mu k.x), rescaled so mean(phi_k^2) = 1 exactly."""
        out = []
        for pair in LAMBDA.pairs:
            f = self.realized.field(self.grid, pair, self.mu)
            f = fit_grid(f)
            ms = float(np.sum(np.abs(f.coef) ** 2))
            out.append((1.0 / math.sqrt(ms)) * f)
        return out

    def build(self, with_forcing: bool = True) -> LevelState:
        """Assemble the level fields; forcing assembly is the slow part
        and can be deferred to :meth:`assemble_forcing`."""
        C0 = max(1000.0, 10.0 * sum(
            m.sup_norm() for m in self.prev.R_wp.terms.values()))
        amps = build_amplitudes(self.prev.R_wp, C0, self.ell, self.grid)
        phis = self.concentration_fields()

        # envelopes G_P = amp_P * phi_P (cutoff of the carry level == 1),
        # each term cropped as it is formed
        envelopes = [ExpSeries({r: fit_grid(f) for r, f in product_sums(
            amp.amp.pairs_by_rate(ExpSeries({0.0: phi})))})
            for amp, phi in zip(amps, phis)]

        state = LevelState(m=self.m, lam=self.lam, C0=C0,
                           w_p=None, R_wp=None)
        state.diagnostics["sqrt_truncation"] = max(
            a.sqrt_truncation for a in amps)
        self._assemble_wp(state, envelopes)
        self._assemble_ws(state, amps)
        self._ingredients = (amps, phis, envelopes, C0)
        if with_forcing:
            self.assemble_forcing(state)
        return state

    def assemble_forcing(self, state: LevelState) -> None:
        """Quadratic-error forcing and pressure (the dominant cost)."""
        if state.F1 is not None:
            return
        amps, phis, envelopes, C0 = self._ingredients
        self._assemble_f1(state, amps, phis, envelopes, C0)
        self._assemble_f2(state)

    # -- w_p: stream form, split, and lift ---------------------------------
    def _assemble_wp(self, state: LevelState, envelopes) -> None:
        lam = float(self.lam)
        # the grid that holds every shifted envelope; when the product grid
        # does not, the shifts there refuse
        grid = Grid(min(grid_for(
            max(_series_band(env) for env in envelopes) +
            max(max(abs(kv[0]), abs(kv[1])) for _, _, kv in self.pairs)).n,
            self.grid.n))
        stream = ExpSeries()
        main = ExpSeries()
        rem = ExpSeries()
        for (kf, kbf, kv), env in zip(self.pairs, envelopes):
            for r, g in env.terms.items():
                gb = g.regrid(grid)
                grad = gb.gradient()
                lap = gb.laplacian()
                pgrad = gb.perp_gradient()
                for s in (1, -1):
                    mod = lambda f: f.shift(s * kv[0], s * kv[1])
                    ikb = 1j * s * kbf
                    gm = mod(gb)
                    main_t = ikb * gm
                    # curl E_k = -lam e^{i lam k.x} for every direction
                    stream_t = (-lam) * gm
                    rem_t = ((-1.0 / lam) * ikb) * mod(lap)
                    # -2i (grad G . k_s) E_{k_s}: the two direction signs
                    # cancel, leaving +2 (grad G . k) kbar per sign
                    dk = kf[0] * grad.u1 + kf[1] * grad.u2
                    rem_t = rem_t + (2.0 * kbf) * mod(dk)
                    rem3 = (-1.0 / lam ** 3) * (
                        (-lam) * mod(pgrad).laplacian())
                    main = main + ExpSeries({r: lam * main_t})
                    rem = rem + ExpSeries({r: rem_t + rem3})
                    stream = stream + ExpSeries({r: stream_t})
        rate_shift = lam * lam
        wp = ExpSeries()
        lift = ExpSeries()
        for r, s_field in stream.terms.items():
            base = (-1.0 / lam ** 3) * s_field
            pg = base.perp_gradient()
            wp = wp + ExpSeries({r: fit_grid(pg.laplacian())})
            g = pg.gradient()
            lift = lift + ExpSeries({r: fit_grid(g + g.transpose())})
        state.w_p = wp.scale_rates(rate_shift)
        state.R_wp = lift.scale_rates(rate_shift)
        state.w_p_main = ExpSeries(
            {r: fit_grid(f) for r, f in main.terms.items()}
        ).scale_rates(rate_shift)
        state.w_p_rem = ExpSeries(
            {r: fit_grid(f) for r, f in rem.terms.items()}
        ).scale_rates(rate_shift)

    # -- w_s: product form and tensor form ---------------------------------
    def _assemble_ws(self, state: LevelState, amps) -> None:
        lam2 = float(self.lam) ** 2
        state.w_s = self.prev.w_p.scale_rates(2.0 * lam2)
        tensor = ExpSeries()
        for (kf, kbf, kv), amp in zip(self.pairs, amps):
            kb_outer = np.outer(kbf, kbf)
            for r, f in amp.raw_sq.terms.items():
                # both elements of the pair carry the same tensor
                tensor = tensor + ExpSeries(
                    {r: (2000.0 * state.C0) * (kb_outer * f).divergence()})
        state.w_s_tensor = ExpSeries(
            {r: fit_grid(f) for r, f in tensor.terms.items()}
        ).scale_rates(2.0 * lam2)

    # -- F1 / P1 -----------------------------------------------------------
    def _accumulate(self, store: dict, rate: float, c: np.ndarray,
                    band: int = 0, v=(0, 0)) -> None:
        """Slice-add c, shifted by v, into store[rate], which first grows,
        by ``add_shifted`` into zeros, to the smallest grid that holds c's
        grid and band + |v|_inf, capped at the product grid."""
        shift = max(abs(v[0]), abs(v[1]))
        n = min(max(c.shape[-1], grid_for(band + shift).n), self.grid.n)
        if band + shift > n // 2 - 1:
            raise ValueError("quadratic interaction leaves the grid band "
                             f"(band {band}, shift {v}, n={n})")
        acc = store.get(rate)
        if acc is None or acc.shape[-1] < n:
            store[rate] = np.zeros(c.shape[:-2] + (n, n), dtype=complex)
            if acc is not None:
                add_shifted(store[rate], acc, (0, 0))
        add_shifted(store[rate], c, v)

    def _assemble_f1(self, state, amps, phis, envelopes, C0) -> None:
        """Assemble the quadratic error and its pressure.

        The hot loops accumulate straight into per-rate coefficient
        arrays, each grown to the smallest grid that holds what is added
        to it (``_accumulate``), which refuses a term whose band the
        product grid does not hold, so no slice-add cuts anything.  Each
        envelope pair's products of one rate sum, less those below
        rounding (``pairs_by_rate``: 3 of the 5 sums of two square-root
        ladders), are summed into one field u, and its modulated
        integrands are slice-added into the accumulators at their
        frequency offset: the peak is the accumulators plus one sum's.
        Every product, the cross terms', u and the gap and oscillation
        parts, lies on the grid ``product_sums`` picks for its pairs, and
        the stored terms are cropped to their bands (``fit_grid``).
        """
        lam = float(self.lam)
        lam2 = lam * lam
        main, rem = state.w_p_main, state.w_p_rem
        f11_acc: dict = {}   # rate -> (2, n, n) vector coefficients
        p11_acc: dict = {}   # rate -> (n, n) scalar coefficients

        # cross interactions of the main/remainder split come first, while
        # the P1 accumulators are not yet there: their samples on the
        # widest grid set the peak; their rates already carry the common
        # e^{-2 lam^2 t} of the two factors
        for r, dv in chain(_sym_flux(main, rem), _sym_flux(rem, None)):
            self._accumulate(f11_acc, r - 2.0 * lam2, dv.coef, dv.band)
            del dv

        npairs = len(self.pairs)
        for a in range(npairs):
            for b in range(a, npairs):
                _, kba, kva = self.pairs[a]
                _, kbb, kvb = self.pairs[b]
                signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)] if a != b \
                    else [(1, 1), (-1, -1)]
                kdot = float(kba @ kbb)
                ka, kb = kba[:, None, None], kbb[:, None, None]
                # u = sum of g_a g_b over the rate pairs of one sum r
                for r, u in product_sums(
                        envelopes[a].pairs_by_rate(envelopes[b])):
                    gu = u.gradient().coef
                    gka = kba[0] * gu[0] + kba[1] * gu[1]
                    gkb = gka if a == b else kbb[0] * gu[0] + kbb[1] * gu[1]
                    # summed over both enumeration orders (jbar and kbar
                    # swapped), the integrand depends on the two signs
                    # only through their product s, so one (pressure,
                    # force) pair per sign product covers all four sign
                    # combinations; the pressure term is order-symmetric,
                    # so off-diagonal combinations pick it up twice
                    parts = {}
                    for s in {sa * sb for sa, sb in signs}:
                        dot = s * kdot
                        if a != b:
                            fi = lam2 * ((dot - 1.0) * gu - s * (
                                ka * gkb + kb * gka))
                        else:
                            fi = lam2 * (0.5 * (dot - 1.0) * gu -
                                         s * ka * gka)
                        parts[s] = (None if dot == 1.0 else -0.5 * lam2 * (
                            dot - 1.0) * (2.0 if a != b else 1.0) * u.coef, fi)
                    del gu, gka, gkb
                    for (sa, sb) in signs:
                        va = (sa * kva[0] + sb * kvb[0],
                              sa * kva[1] + sb * kvb[1])
                        if va == (0, 0):
                            continue
                        pi, fi = parts[sa * sb]
                        if pi is not None:
                            self._accumulate(p11_acc, r, pi, u.band, va)
                        self._accumulate(f11_acc, r, fi, u.band, va)
                    del u, parts, pi, fi

        # mollification gap and profile-oscillation parts go into the
        # same accumulators (their rates are a subset of the above); both
        # parts of one rate take one forward transform
        scale12 = 2.0 * 2000.0 * C0 * lam2
        for (kf, kbf, kv), amp, phi in zip(self.pairs, amps, phis):
            kb_outer = np.outer(kbf, kbf)
            scaled_amp = (1.0 / math.sqrt(2000.0 * C0)) * amp.amp
            mol_sq = scaled_amp.product(scaled_amp)
            gap = mol_sq - amp.raw_sq
            (_, phi_sq), = product_sums({0: [(phi, phi)]})
            osc = phi_sq - SpectralField.from_modes(
                phi_sq.grid, {(0, 0): phi_sq.mean()})
            groups: dict = {}
            for series, weight_field in ((gap, phi_sq), (amp.raw_sq, osc)):
                for r, f in series.terms.items():
                    groups.setdefault(r, []).append((weight_field, f))
            for r, sc in product_sums(groups):
                dv = (kb_outer * sc).divergence()
                self._accumulate(f11_acc, r, scale12 * dv.coef, dv.band)
                del sc, dv
            del phi_sq, osc, mol_sq, gap, groups

        def stored(acc):
            return ExpSeries({r: fit_grid(SpectralField(Grid(c.shape[-1]), c))
                              for r, c in acc.items()})

        prev_dt = self.prev.w_p.dt().scale_rates(2.0 * lam2)
        state.F1 = stored(f11_acc).scale_rates(2.0 * lam2) + prev_dt
        # P1 = P11 + P12;  P12 = 2000 C0 lam^2 chi^2 is spatially constant
        p12 = ExpSeries({0.0: _const_field(self.grid, 2000.0 * C0 * lam2)})
        state.P1 = (stored(p11_acc).scale_rates(2.0 * lam2)
                    + p12.scale_rates(2.0 * lam2))

    # -- F2 ----------------------------------------------------------------
    def _assemble_f2(self, state: LevelState) -> None:
        heat_resid = state.w_p.dt() + state.w_p.map(
            lambda f: -1.0 * f.laplacian())
        ws_lap = state.w_s.map(lambda f: -1.0 * f.laplacian())
        cross = ExpSeries()
        for r, dv in chain(_sym_flux(state.w_p, state.w_s),
                           _sym_flux(state.w_s, None)):
            cross = cross + ExpSeries({r: fit_grid(dv)})
        state.F2 = heat_resid + ws_lap + cross


def _series_band(series: ExpSeries) -> int:
    """The widest band of a series' terms (0 for no terms)."""
    return max((f.band for f in series.terms.values()), default=0)


def _sym_flux(a: ExpSeries, b: ExpSeries | None):
    """(q, div(f (x) g + g (x) f)) summed over the terms f e^{-rt} of ``a``
    and g e^{-st} of ``b`` with r + s = q; with ``b`` None, over the
    unordered pairs of terms of ``a``, a pair of one term giving
    div(f (x) f).  That is the sum of f (x) g over the ordered pairs, so
    either way the symmetric products of one rate sum are one
    ``flux_divergences`` key, on the grid it picks for them."""
    other = a if b is None else b
    for q, dv in flux_divergences(a.pairs_by_rate(other)):
        yield q, dv if b is None else 2.0 * dv


def build_level(grid: Grid, schedule: ParamSchedule, m: int,
                prev: LevelState | None = None, **kw) -> LevelState:
    """Level m of the alternating iteration (seed for m=1)."""
    if m == 1:
        return seed_level(grid, schedule)
    return EvenLevelBuilder(grid, schedule, m, prev, **kw).build()


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _max_coef(fields) -> float:
    """Largest coefficient magnitude over some fields."""
    return max((np.abs(f.coef).max() for f in fields), default=0.0)


def _series_scale(series: ExpSeries) -> float:
    return max(_max_coef(series.terms.values()), 1e-300)


def check_divergence(series: ExpSeries) -> float:
    """Max |div| coefficient over all terms, relative to the field scale."""
    divs = (f.divergence() for f in series.terms.values())
    return _max_coef(divs) / _series_scale(series)


def check_split(state: LevelState) -> float:
    """Relative coefficient residual of main + remainder = w_p."""
    resid = state.w_p_main + state.w_p_rem - state.w_p
    return _max_coef(resid.terms.values()) / _series_scale(state.w_p)


def check_ws_forms(state: LevelState) -> float:
    """Relative residual between the two closed forms of w_s."""
    resid = state.w_s - state.w_s_tensor
    return _max_coef(resid.terms.values()) / _series_scale(state.w_s)


def check_initial_match(state: LevelState, prev: LevelState) -> float:
    """Relative sup mismatch of w_s(0) = w_p_prev(0)."""
    g = Grid(max(f.grid.n for f in prev.w_p.terms.values()))
    a = state.w_s.at(0.0).regrid(g)
    b = prev.w_p.at(0.0).regrid(g)
    return (a - b).sup_norm() / max(b.sup_norm(), 1e-300)


def check_lift(state: LevelState) -> float:
    """Relative residual of div(R w_p) = w_p."""
    resid = (m.divergence() - state.w_p.terms[r].regrid(m.grid)
             for r, m in state.R_wp.terms.items())
    return _max_coef(resid) / _series_scale(state.w_p)


def contract_grid(state: LevelState, grid: Grid) -> Grid:
    """The grid of ``pressure_contract_residual``: the smallest that holds
    div(w_p o+ w_p) (band 2 band(w_p)), F1, grad P1 and d_t w_s, and no
    finer than ``grid``."""
    band = max(2 * _series_band(state.w_p), _series_band(state.F1),
               _series_band(state.P1), _series_band(state.w_s))
    return Grid(min(grid_for(band).n, grid.n))


def pressure_contract_residual(state: LevelState, grid: Grid) -> dict:
    """Residual of div(w_p o+ w_p) + d_t w_s = F1 + grad P1 at the sample
    times t = 0, 1e-5, 5e-5, 1e-4 and 2e-4.

    Every piece is evaluated by exact spectral arithmetic on
    ``contract_grid(state, grid)``; the residual is normalized by the
    largest term magnitude.
    """
    grid = contract_grid(state, grid)
    ws_dt = state.w_s.dt()
    out = {}
    for t in (0.0, 1e-5, 5e-5, 1e-4, 2e-4):
        # w_p(t) is sampled from its own grid, which grid_for makes no
        # finer than the contract's
        w = state.w_p.at(t)
        (_, quad), = flux_divergences({0: [(w, w)]}, grid)
        quad = quad.regrid(grid)
        del w
        # lhs - F1 - grad P1: each term is measured and let go as it is
        # taken, so at most two fields on the grid are held at a time
        scale = quad.sup_norm()
        resid = quad + ws_dt.at(t).regrid(grid)
        del quad
        f1 = state.F1.at(t).regrid(grid)
        scale = max(scale, f1.sup_norm())
        resid = resid - f1
        del f1
        gp = state.P1.at(t).regrid(grid).gradient()
        scale = max(scale, gp.sup_norm(), 1e-300)
        resid = resid - gp
        del gp
        out[t] = resid.sup_norm() / scale
    return out
