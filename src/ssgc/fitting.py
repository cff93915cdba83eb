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
from .model import _is_int

__all__ = ["TimeSeries", "fit_var_ols", "simulate_var"]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Finite multivariate record, one row per time step."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise ValueError("time series must be a (steps, channels) array with steps >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError("time series contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
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
    """Draw a Gaussian VAR sample path, discarding a transient prefix."""
    coeffs = [np.asarray(a, dtype=float) for a in coefficients]
    sig = np.asarray(sigma, dtype=float)
    p = coeffs[0].shape[0]
    if any(a.shape != (p, p) for a in coeffs) or sig.shape != (p, p):
        raise ValueError("coefficient and covariance matrices must share one square shape")
    if steps < 1 or burn_in < 0:
        raise ValueError("steps must be positive and burn_in nonnegative")
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
