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
from .spectral import (Grid, MatrixField, SpectralField, VectorField,
                       fit_grid)
from .timefield import ExpSeries, mollify_time


# ---------------------------------------------------------------------------
# basic helpers
# ---------------------------------------------------------------------------

def sin_shear(grid: Grid, lam: int) -> VectorField:
    """lam sin(lam x1) e2, the seed shear profile."""
    a = np.array([0.0, 0.5j * lam])
    return VectorField.from_modes(grid, {(lam, 0): -a, (-lam, 0): a})


def series_sup(series: ExpSeries) -> float:
    """Sup over t >= 0 bounded by the triangle inequality at t = 0."""
    return sum(f.sup_norm() for f in series.terms.values())


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


def _grid_for(band: int, n: int = 64) -> Grid:
    """Smallest power-of-two grid, at least n, resolving ``band``."""
    while n // 2 - 1 < band:
        n *= 2
    return Grid(n)


def _sqrt_series(const: float, series: ExpSeries) -> ExpSeries:
    """sqrt(const + series) as an exponential ladder.

    ``series`` collects the strictly decaying part; the square root is
    expanded to second order in series/const, which is exact to machine
    precision whenever ||series/const|| <~ 1e-5 (the decomposition ball
    guarantees ~1e-6 here).
    """
    root = math.sqrt(const)
    wide = _grid_for(2 * max(f.band for f in series.terms.values()))
    v = (1.0 / const) * series.map(lambda f: f.regrid(wide))
    v2 = v.combine(v, lambda a, b: a.product(b))
    one = SpectralField.from_modes(wide, {(0, 0): 1.0})
    out = ExpSeries({0.0: root * one})
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
        lin = ExpSeries({r: fit_grid(f) for r, f in lin.terms.items()})
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
    w_ns: object | None = None
    diagnostics: dict = dc_field(default_factory=dict)

    def total_w(self, t: float, grid: Grid) -> VectorField:
        """w_m(t) = (w_p + w_s + w_ns)(t) on the requested grid.

        Inside the computed corrector window the corrector is read from
        its stored steps, linear in time between two of them.  Past the end
        of the window it is extended by the heat flow alone: its forcing
        decays like e^{-2 lam^2 t} and the advecting field like
        e^{-lam_prev^2 t}, so for t far beyond both time scales free decay
        is the dominant behaviour.  The driver ledger records the window.
        """
        out = self.w_p.at(t).regrid(grid)
        if self.w_s is not None:
            out = out + self.w_s.at(t).regrid(grid)
        if self.w_ns is not None and self.w_ns.times:
            t_last = self.w_ns.times[-1]
            if t <= t_last:
                state = self.w_ns.interpolate(t)
            else:
                state = self.w_ns.states[-1].heat(t - t_last)
            out = out + state.regrid(grid)
        return out


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
        w_s=None, diagnostics={"seed": True},
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

    ``grid`` is the product grid on which all quadratic interactions are
    alias-free; long-lived fields are stored band-cropped.  The cutoff of
    the carrying odd level is identically 1 here: at desk scale the seed
    shear fills the whole torus, so the plateau requirement chi w_p_prev
    = w_p_prev forces the trivial cutoff (the strip sets and the real
    cutoff are still built and measured by the cutoff system).
    """

    def __init__(self, grid: Grid, schedule: ParamSchedule, m: int,
                 prev: LevelState,
                 profile: ConcentrationProfile | None = None,
                 profile_band: int = 62):
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
        profile = profile or ConcentrationProfile()
        self.realized = profile.realize(profile_band)
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

        # envelopes G_P = amp_P * phi_P (cutoff of the carry level == 1)
        envelopes = []
        for amp, phi in zip(amps, phis):
            big = phi.regrid(self.grid)
            env = amp.amp.map(lambda f: fit_grid(f.regrid(self.grid).product(big)))
            envelopes.append(env)

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
        grid = self.grid
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
    def _assemble_f1(self, state, amps, phis, envelopes, C0) -> None:
        """Assemble the quadratic error and its pressure.

        The hot loops accumulate straight into per-rate coefficient
        arrays on the product grid; modulations are integer rolls.  This
        keeps the peak footprint at the accumulators plus one transient
        product, which is what fits next to the full-size build.
        """
        lam = float(self.lam)
        lam2 = lam * lam
        grid = self.grid
        n = grid.n
        f11_acc: dict = {}   # rate -> (2, n, n) vector coefficients
        p11_acc: dict = {}   # rate -> (n, n) scalar coefficients

        def acc(store, rate, shape):
            if rate not in store:
                store[rate] = np.zeros(shape + (n, n), dtype=complex)
            return store[rate]

        def roll(c, v):
            return np.roll(c, (v[0], v[1]), axis=(-2, -1))

        npairs = len(self.pairs)
        for a in range(npairs):
            for b in range(a, npairs):
                kfa, kba, kva = self.pairs[a]
                kfb, kbb, kvb = self.pairs[b]
                signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)] if a != b \
                    else [(1, 1), (-1, -1)]
                kdot = float(kba @ kbb)
                ka, kb = kba[:, None, None], kbb[:, None, None]
                for ra, ga in envelopes[a].terms.items():
                    for rb, gb in envelopes[b].terms.items():
                        u = ga.regrid(grid).product(gb.regrid(grid))
                        r = ra + rb
                        gu = u.gradient().coef
                        gu1, gu2 = gu
                        band = u.band
                        gka = kba[0] * gu1 + kba[1] * gu2
                        gkb = gka if a == b else kbb[0] * gu1 + kbb[1] * gu2
                        # summed over both enumeration orders (jbar and
                        # kbar swapped), the integrand depends on the
                        # two signs only through their product s, so two
                        # precomputed variants cover all four sign
                        # combinations and each combination costs one
                        # modulation roll per accumulated component
                        cache: dict = {}

                        def integrand(s, _a=a, _b=b):
                            if s in cache:
                                return cache[s]
                            dot = s * kdot
                            if _a != _b:
                                fi = lam2 * ((dot - 1.0) * gu - s * (
                                    ka * gkb + kb * gka))
                            else:
                                fi = lam2 * (0.5 * (dot - 1.0) * gu -
                                             s * ka * gka)
                            # the pressure term is order-symmetric, so
                            # off-diagonal combinations pick it up twice
                            p_coef = -0.5 * lam2 * (dot - 1.0) * \
                                (2.0 if _a != _b else 1.0)
                            pi = None if dot == 1.0 else p_coef * u.coef
                            cache[s] = (pi, fi)
                            return cache[s]

                        for (sa, sb) in signs:
                            va = (sa * kva[0] + sb * kvb[0],
                                  sa * kva[1] + sb * kvb[1])
                            if va == (0, 0):
                                continue
                            if band + max(abs(va[0]), abs(va[1])) > n // 2 - 1:
                                raise ValueError(
                                    "quadratic interaction leaves the grid "
                                    f"band (band {band}, shift {va}, n={n})")
                            pi, fi = integrand(sa * sb)
                            if pi is not None:
                                pc = acc(p11_acc, r, ())
                                pc += roll(pi, va)
                            fc = acc(f11_acc, r, (2,))
                            fc += roll(fi, va)
                        del u, gu, gu1, gu2, gka, gkb, cache

        # mollification gap and profile-oscillation parts go into the
        # same accumulators (their rates are a subset of the above)
        scale12 = 2.0 * 2000.0 * C0 * lam2
        for (kf, kbf, kv), amp, phi in zip(self.pairs, amps, phis):
            kb_outer = np.outer(kbf, kbf)
            big_phi = phi.regrid(grid)
            phi_sq = big_phi.product(big_phi)
            del big_phi
            scaled_amp = (1.0 / math.sqrt(2000.0 * C0)) * amp.amp
            wide = _grid_for(
                2 * max(f.band for f in scaled_amp.terms.values()))
            scaled_amp = scaled_amp.map(lambda f: f.regrid(wide))
            mol_sq = scaled_amp.combine(
                scaled_amp, lambda f, g: f.product(g))
            gap = mol_sq - amp.raw_sq
            osc = phi_sq - SpectralField.from_modes(
                grid, {(0, 0): phi_sq.mean()})
            pieces = [(gap, phi_sq), (amp.raw_sq, osc)]
            for series, weight_field in pieces:
                for r, f in series.terms.items():
                    sc = weight_field.product(f.regrid(grid))
                    dv = (kb_outer * sc).divergence()
                    fc = acc(f11_acc, r, (2,))
                    fc += scale12 * dv.coef
                    del sc, dv
            del phi_sq, osc, mol_sq, gap

        # cross interactions of the main/remainder split; their rates
        # already carry the common e^{-2 lam^2 t} of the two factors
        main, rem = state.w_p_main, state.w_p_rem
        for r, dv in chain(_sym_flux(main, rem, grid),
                           _sym_flux(rem, None, grid)):
            fc = acc(f11_acc, r - 2.0 * lam2, (2,))
            fc += dv.coef
            del dv

        f1 = ExpSeries({r: SpectralField(grid, c)
                        for r, c in f11_acc.items()})
        prev_dt = self.prev.w_p.dt().scale_rates(2.0 * lam2)
        state.F1 = f1.scale_rates(2.0 * lam2) + prev_dt
        # P1 = P11 + P12;  P12 = 2000 C0 lam^2 chi^2 is spatially constant
        p11 = ExpSeries({r: SpectralField(grid, c)
                         for r, c in p11_acc.items()})
        p12 = ExpSeries({0.0: _const_field(grid, 2000.0 * C0 * lam2)})
        state.P1 = p11.scale_rates(2.0 * lam2) + p12.scale_rates(2.0 * lam2)
        state.diagnostics["f1_rates"] = state.F1.rates

    # -- F2 ----------------------------------------------------------------
    def _assemble_f2(self, state: LevelState) -> None:
        heat_resid = state.w_p.dt() + state.w_p.map(
            lambda f: -1.0 * f.laplacian())
        ws_lap = state.w_s.map(lambda f: -1.0 * f.laplacian())
        cross = ExpSeries()
        for r, dv in chain(_sym_flux(state.w_p, state.w_s),
                           _sym_flux(state.w_s, None)):
            cross = cross + ExpSeries({r: dv})
        state.F2 = heat_resid + ws_lap + cross


def _sym_flux(a: ExpSeries, b: ExpSeries | None, grid: Grid | None = None):
    """(r + s, div(f (x) g + g (x) f)) over the terms f e^{-rt} of ``a`` and
    g e^{-st} of ``b``; with ``b`` None, over the unordered pairs of terms
    of ``a``, a pair of one term giving div(f (x) f).  The products are
    taken on ``grid``, or on the smallest grid that resolves each pair."""
    for r, f in a.terms.items():
        for s, g in (a if b is None else b).terms.items():
            if b is None and s < r:
                continue
            pg = grid or _grid_for(f.band + g.band,
                                   max(f.grid.n, g.grid.n))
            t = f.regrid(pg).outer(g.regrid(pg))
            if b is not None or s != r:
                t = t + t.transpose()
            dv = t.divergence()
            del t
            yield r + s, dv


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


def pressure_contract_residual(state: LevelState, grid: Grid,
                               times=(0.0, 1e-5, 5e-5, 1e-4, 2e-4)) -> dict:
    """Residual of div(w_p o+ w_p) + d_t w_s = F1 + grad P1 at sample times.

    Every piece is evaluated by exact spectral arithmetic on the product
    grid; the residual is normalized by the largest term magnitude.
    """
    ws_dt = state.w_s.dt()
    out = {}
    for t in times:
        w = state.w_p.at(t).regrid(grid)
        quad = w.outer(w).divergence()
        lhs = quad + ws_dt.at(t).regrid(grid)
        f1 = state.F1.at(t).regrid(grid)
        gp = state.P1.at(t).regrid(grid).gradient()
        resid = lhs - f1 - gp
        scale = max(quad.sup_norm(), f1.sup_norm(), gp.sup_norm(), 1e-300)
        out[t] = resid.sup_norm() / scale
    return out
