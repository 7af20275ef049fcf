"""Frequency/scale schedules and their guards."""

import pytest
from hypothesis import given, settings, strategies as st

from torusns.schedule import toy_schedule


def test_toy_schedule_values():
    s = toy_schedule()
    assert s.lam(1) == 25 and s.lam(2) == 125 and s.lam(3) == 625
    assert s.mu(1) == s.mu(2) == 5
    assert s.ell(1) == 25.0 ** -2


def test_lambda_divisible_by_mu_times_n_lambda():
    s = toy_schedule()
    for q in range(1, s.levels + 1):
        assert s.lam(q) % 5 == 0
        assert s.lam(q) % s.mu(q) == 0


def test_one_based_indexing_guard():
    s = toy_schedule()
    with pytest.raises((IndexError, ValueError)):
        s.lam(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6))
def test_toy_schedule_monotone(levels):
    s = toy_schedule(levels)
    lams = [s.lam(q) for q in range(1, levels + 1)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert all(s.ell(q) == float(s.lam(q)) ** -2.0
               for q in range(1, levels + 1))
