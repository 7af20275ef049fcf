"""Direction-set algebra: decomposition weights and stationary flows."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns.geometry import (GeometricDecompositionError, ID_WEIGHTS, LAMBDA,
                              decompose_matrix, pair_weight_functionals, perp,
                              stationary_flow, stationary_flow_identity_check)
from torusns.construction import heat_mode_residual
from torusns.profile import ConcentrationProfile
from torusns.spectral import Grid


def rebuild(coeffs):
    r = np.zeros((2, 2))
    for pair, a in coeffs.items():
        kb = np.array([float(x) for x in perp(pair)])
        r += a * a * np.outer(kb, kb)
    return r


def test_directions_are_unit_and_closed_under_negation():
    els = LAMBDA.elements
    assert len(els) == 6
    for k in els:
        assert k[0] * k[0] + k[1] * k[1] == 1
        assert (-k[0], -k[1]) in els


def test_n_lambda_is_five():
    assert LAMBDA.n_lambda == 5


def test_identity_weights_golden():
    coeffs = decompose_matrix(np.eye(2))
    got = [coeffs[p] ** 2 for p in LAMBDA.pairs]
    for val, expect in zip(got, ID_WEIGHTS):
        assert abs(val - float(expect)) <= 1e-14


def test_functionals_are_exact_rational_inverse():
    # L_P applied to kbar_Q tensor kbar_Q must give delta_{PQ}, exactly
    for i, (pair_i, (c11, c12, c22)) in enumerate(pair_weight_functionals()):
        for j, pair_j in enumerate(LAMBDA.pairs):
            kb = perp(pair_j)
            val = c11 * kb[0] * kb[0] + c12 * kb[0] * kb[1] + \
                c22 * kb[1] * kb[1]
            assert val == (Fraction(1) if i == j else Fraction(0))


def test_decomposition_reconstructs_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        sym = rng.standard_normal((2, 2))
        sym = 0.5 * (sym + sym.T)
        r = np.eye(2) + 5e-4 * sym / max(np.abs(sym).max(), 1.0)
        coeffs = decompose_matrix(r)
        assert np.abs(rebuild(coeffs) - r).max() <= 1e-12


def test_degenerate_matrix_rejected():
    with pytest.raises(GeometricDecompositionError):
        decompose_matrix(np.diag([1.0, 0.0]), check_domain=False)


def test_outside_ball_rejected():
    with pytest.raises(GeometricDecompositionError):
        decompose_matrix(np.eye(2) + 2e-3 * np.eye(2))


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_decomposition_property(e11, e12, e22):
    dev = np.array([[e11, e12], [e12, e22]])
    norm = np.sqrt((dev ** 2).sum())
    if norm > 0:
        dev *= 5e-4 / norm
    r = np.eye(2) + dev
    coeffs = decompose_matrix(r)
    assert all(a > 0 for a in coeffs.values())
    assert np.abs(rebuild(coeffs) - r).max() <= 1e-12


def test_stationary_flow_is_real_and_divergence_free():
    grid = Grid(128)
    rng = np.random.default_rng(11)
    b = {p: float(v) for p, v in zip(LAMBDA.pairs, rng.standard_normal(3))}
    w = stationary_flow(grid, b, mu=5)
    assert w.u1.is_real() and w.u2.is_real()
    assert w.divergence().sup_norm() <= 1e-12 * max(w.sup_norm(), 1.0)


def test_stationary_flow_identities_random_sets():
    grid = Grid(128)
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = {p: float(v)
             for p, v in zip(LAMBDA.pairs, rng.standard_normal(3))}
        rep = stationary_flow_identity_check(grid, b, mu=5)
        for key in ("div", "gradient", "tensor"):
            assert rep[key] <= 1e-11 * rep["scale"], (key, rep)


def test_stationary_flow_mu_divisibility_guard():
    grid = Grid(64)
    with pytest.raises(ValueError):
        stationary_flow(grid, {LAMBDA.pairs[1]: 1.0}, mu=3)
    # the concentration profile and the heat modes share the guard
    with pytest.raises(ValueError):
        ConcentrationProfile().realize(8).field(grid, LAMBDA.pairs[1], 3)
    with pytest.raises(ValueError):
        heat_mode_residual(grid, 3)
