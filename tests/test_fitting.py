"""Simulation and least-squares estimation of VAR models."""

import numpy as np
import pytest

from ssgc import (
    JointPartition,
    PreconditionError,
    TimeSeries,
    fit_var_ols,
    gem_time_domain,
    simulate_var,
    var_to_iss,
)

from support import BAD_MATRICES, stable_matrix


def test_time_series_container():
    ts = TimeSeries(np.arange(10.0))
    assert ts.steps == 10 and ts.channels == 1
    ts2 = TimeSeries(np.ones((5, 3)))
    assert ts2.steps == 5 and ts2.channels == 3
    with pytest.raises(ValueError):
        TimeSeries(np.ones((1, 2)))  # needs at least two steps
    with pytest.raises(ValueError):
        TimeSeries(np.array([[1.0], [np.nan]]))


def test_time_series_is_detached_copy():
    raw = np.zeros((4, 1))
    ts = TimeSeries(raw)
    raw[0, 0] = 7.0
    assert ts.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        ts.values[0, 0] = 1.0


def test_simulated_data_recovers_coefficients():
    rng = np.random.default_rng(70)
    a1 = stable_matrix(rng, 2, radius=0.6)
    a2 = 0.2 * rng.standard_normal((2, 2))
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    vals = simulate_var([a1, a2], sigma, 60000, rng)
    coeffs, sigma_hat = fit_var_ols(vals, order=2)
    assert len(coeffs) == 2
    assert np.abs(coeffs[0] - a1).max() < 0.03
    assert np.abs(coeffs[1] - a2).max() < 0.03
    assert np.abs(sigma_hat - sigma).max() < 0.03


def test_simulation_is_reproducible_and_burned_in():
    a = [np.array([[0.9]])]
    sigma = np.eye(1)
    v1 = simulate_var(a, sigma, 100, np.random.default_rng(4))
    v2 = simulate_var(a, sigma, 100, np.random.default_rng(4))
    assert np.array_equal(v1, v2)
    # stationary variance of an AR(1) with phi=0.9 is 1/(1-0.81); the start of
    # the record must already live at that scale
    big = simulate_var(a, sigma, 50000, np.random.default_rng(5))
    head, tail = big[:25000], big[25000:]
    assert np.var(head) == pytest.approx(np.var(tail), rel=0.1)
    for bad in ({"steps": 2.5}, {"steps": True}, {"steps": 0}, {"burn_in": 2.5},
                {"burn_in": True}, {"burn_in": -1}):
        with pytest.raises(ValueError, match="must be a"):
            simulate_var(a, sigma, rng=np.random.default_rng(6), **{"steps": 10, **bad})
    for bad, message in BAD_MATRICES:
        with pytest.raises(ValueError, match=rf"^coefficients\[0\] {message}"):
            simulate_var([bad], sigma, 10, np.random.default_rng(6))
        with pytest.raises(ValueError, match=f"^sigma {message}"):
            simulate_var(a, bad, 10, np.random.default_rng(6))
    skew = np.array([[1.0, 0.9], [-0.9, 1.0]])  # not read by its lower triangle alone
    with pytest.raises(ValueError, match="^sigma must be symmetric$"):
        simulate_var([np.zeros((2, 2))], skew, 10, np.random.default_rng(6))


def test_fit_rejects_short_records_and_collinearity():
    rng = np.random.default_rng(71)
    with pytest.raises(PreconditionError):
        fit_var_ols(rng.standard_normal((5, 2)), order=2)
    const = np.ones((50, 2))  # lagged regressors perfectly collinear
    with pytest.raises(ValueError):
        fit_var_ols(const, order=2)
    for bad in (0, True, 1.0):
        with pytest.raises(ValueError):
            fit_var_ols(rng.standard_normal((50, 2)), order=bad)
    vals = rng.standard_normal((50, 2))
    (coeff,), sigma = fit_var_ols(vals, order=np.int64(1))  # numpy integers are orders
    (plain,), plain_sigma = fit_var_ols(vals, order=1)
    assert np.array_equal(coeff, plain) and np.array_equal(sigma, plain_sigma)


def test_fitted_model_feeds_the_measure_pipeline():
    """End to end: simulate a one-sided system, fit, convert, measure."""
    rng = np.random.default_rng(72)
    a1 = np.array([[0.5, 0.4], [0.0, 0.3]])  # y drives x only
    sigma = np.eye(2)
    vals = simulate_var([a1], sigma, 40000, rng)
    coeffs, sigma_hat = fit_var_ols(vals, order=1)
    mdl = var_to_iss(coeffs, sigma_hat, partition=JointPartition(1, 1))
    g = gem_time_domain(mdl)
    truth = gem_time_domain(var_to_iss([a1], sigma, partition=JointPartition(1, 1)))
    assert g.fyx == pytest.approx(truth.fyx, abs=0.02)
    assert g.fxy < 1e-3  # absent influence stays near zero
    assert g.fydx < 1e-3
