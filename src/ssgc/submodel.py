"""Marginal (block) models of a joint innovations model.

A stationary joint ISS model (A, C, K, V) restricted to one output block is
again an ISS process on the same state: keeping rows `idx` of the output, the
block model solves the DARE of the state-space pair

    (A, C_idx, [K V K^T, V_idx, K V[:, idx]]),

whose innovation covariance is the block's one-step prediction error
covariance given its own past only.
"""

from __future__ import annotations

import numpy as np

from .dare import solve_dare
from .model import (
    ISSModel,
    SpectralCurve,
    SSModel,
    _logdet_pd,
    _periodic_mean,
    require_stationary,
    spectrum_of_iss,
)

__all__ = ["extract_submodel", "submodel_spectrum", "log_det_spectrum_integral"]


def _marginal_model(joint: ISSModel, idx: np.ndarray) -> ISSModel:
    c_sub = joint.C[idx, :]
    r_sub = joint.V[np.ix_(idx, idx)]
    kv = joint.K @ joint.V
    q = kv @ joint.K.T
    ss = SSModel(joint.A, c_sub, 0.5 * (q + q.T), r_sub, kv[:, idx])
    sol = solve_dare(ss)
    return ISSModel(joint.A, c_sub, sol.K, sol.V, partition=None)


def extract_submodel(joint: ISSModel, block: str = "x") -> ISSModel:
    """ISS model of one output block of a stationary joint model.

    Parameters
    ----------
    joint : ISSModel
        Partitioned stationary joint model.
    block : {"x", "y"}
        Which output block to keep.

    Returns
    -------
    ISSModel
        Marginal model (A, C_block, K_block, Omega_block); its V is the
        block's own innovation covariance Omega, with Omega >= V_block in the
        PSD order.
    """
    part = joint.require_partition()
    require_stationary(joint)
    if block == "x":
        idx = np.arange(part.px)
    elif block == "y":
        idx = np.arange(part.px, part.p)
    else:
        raise ValueError("block must be 'x' or 'y'")
    return _marginal_model(joint, idx)


def submodel_spectrum(sub: ISSModel, grid: np.ndarray | None = None) -> SpectralCurve:
    """Spectrum of an extracted block model (plain ISS spectrum)."""
    return spectrum_of_iss(sub, grid)


def log_det_spectrum_integral(curve: SpectralCurve) -> float:
    """Normalized integral of ln det over a periodic spectral curve.

    Computes (1/2pi) * integral of ln det f(lambda) d lambda by the trapezoid
    rule on the periodic grid; for the matrix curve of a regular process this
    equals the log determinant of its innovation covariance.

    Raises
    ------
    PreconditionError
        (a ValueError) if the curve is not positive definite at every grid point.
    """
    values = curve.values[:, None, None] if curve.is_scalar else curve.values
    return _periodic_mean(curve.grid, _logdet_pd(values, "spectral curve"))
