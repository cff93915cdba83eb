"""Least-squares VAR estimation and simulation.

Estimation is plain OLS on the stacked lag regression; it exists so recorded
data can be pushed through the model pipeline, not as a full identification
toolkit (no order selection, no small-sample corrections beyond the T - order
divisor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .model import _as_matrix, _check_symmetric, _is_int

__all__ = ["TimeSeries", "fit_var_ols", "simulate_var"]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Finite multivariate record, one row per time step (a 1-D array is one
    channel), read by the one matrix rule ``_as_matrix``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        if np.ndim(values) == 1:  # one channel
            values = np.reshape(values, (-1, 1))
        vals = _as_matrix(values, "time series")
        if vals.shape[0] < 2:
            raise ValueError("time series must be a (steps, channels) array with steps >= 2")
        object.__setattr__(self, "values", vals)

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def fit_var_ols(series: TimeSeries | np.ndarray, order: int):
    """Fit a VAR(order) by ordinary least squares.

    Returns the coefficient list (A_1, ..., A_order) and the residual
    covariance with divisor T - order, residuals centered first.  Raises
    PreconditionError when the record is too short (needs steps > channels *
    order + 1) and ValueError when the lag regressors are collinear.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    if not _is_int(order) or order < 1:
        raise ValueError("order must be a positive integer")
    t, p = series.steps, series.channels
    if t <= p * order + 1:
        raise PreconditionError(
            f"record of {t} steps is too short to fit {p} channels at order {order}"
        )

    vals = series.values
    target = vals[order:]
    regressors = np.hstack([vals[order - k : t - k] for k in range(1, order + 1)])
    coeffs_stacked, _, rank, _ = np.linalg.lstsq(regressors, target, rcond=None)
    if rank < p * order:
        raise ValueError("lag regressors are rank deficient; cannot identify coefficients")

    coefficients = [coeffs_stacked[(k - 1) * p : k * p].T.copy() for k in range(1, order + 1)]
    residuals = target - regressors @ coeffs_stacked
    residuals = residuals - residuals.mean(axis=0)
    sigma = residuals.T @ residuals / (t - order)
    return coefficients, 0.5 * (sigma + sigma.T)


def simulate_var(coefficients, sigma, steps: int, rng: np.random.Generator, burn_in: int = 500):
    """Draw a Gaussian VAR sample path, discarding a transient prefix.

    steps must be a positive and burn_in a nonnegative integer, every lag and
    sigma a finite 2-D array (``_as_matrix``) of one square shape, and sigma
    symmetric (ValueError).
    """
    coeffs = [_as_matrix(a, f"coefficients[{i}]") for i, a in enumerate(coefficients)]
    sig = _check_symmetric(_as_matrix(sigma, "sigma"), "sigma")
    p = coeffs[0].shape[0]
    if any(a.shape != (p, p) for a in coeffs) or sig.shape != (p, p):
        raise ValueError("coefficient and covariance matrices must share one square shape")
    if not (_is_int(steps) and _is_int(burn_in)) or steps < 1 or burn_in < 0:
        raise ValueError("steps must be a positive integer and burn_in a nonnegative integer")
    try:
        noise_factor = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("innovation covariance must be positive definite") from exc

    order = len(coeffs)
    total = steps + burn_in
    shocks = rng.standard_normal((total + order, p)) @ noise_factor.T
    out = np.zeros((total + order, p))
    for t in range(order, total + order):
        acc = shocks[t].copy()
        for k, a in enumerate(coeffs, start=1):
            acc += a @ out[t - k]
        out[t] = acc
    return out[order + burn_in :]
