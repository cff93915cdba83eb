"""Marginal (block) models of a joint innovations model.

A stationary joint ISS model (A, C, K, V) restricted to one output block is
again an ISS process: keeping rows `idx` of the output, the block model solves
the DARE of the state-space pair

    (A_o, C_idx,o, [K_o V K_o^T, V_idx, K_o V[:, idx]]),

whose innovation covariance is the block's one-step prediction error
covariance given its own past only.  The subscript o keeps the states the
block reads: those where C_idx, or the row of A of a read state, has a
nonzero.  The other states u have A[o, u] = 0 and C_idx[:, u] = 0, so x_o
evolves on its own and the DARE on o has the same gain rows and innovation
covariance as on the full state.  With o first, A is block triangular, so
the dropped modes are stable modes of the stationary joint A.  When every
state is read, o is the full state and the joint arrays are used as they are.
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


def _read_states(a: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """Mask of the states the output c x reads, or None when it reads all of them.

    A state is read when c has a nonzero in its column, or a read state's row
    of a has one: the fixed point of the sparsity pattern, so every unread
    state is unobservable from (a, c) whatever the values (structural
    observability, the dual of Lin 1974).
    """
    read = c.any(axis=0)
    while not read.all():
        grown = read | a[read].any(axis=0)
        if (grown == read).all():
            return read
        read = grown
    return None


def _marginal_model(joint: ISSModel, idx: slice) -> ISSModel:
    a, c_sub, k = joint.A, joint.C[idx, :], joint.K
    keep = _read_states(a, c_sub)
    if keep is not None:  # a[keep][:, ~keep] = 0 and c_sub[:, ~keep] = 0
        a, c_sub, k = a[np.ix_(keep, keep)], c_sub[:, keep], k[keep]
    kv = k @ joint.V
    ss = SSModel(a, c_sub, kv @ k.T, joint.V[idx, idx], kv[:, idx])
    sol = solve_dare(ss)
    return ISSModel(a, c_sub, sol.K, sol.V, partition=None)


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
        Marginal model (A_o, C_block,o, K_block, Omega_block) on the states o
        the block reads, which may be fewer than the joint model's (an
        FIR-filtered block drops the other block's filter register); its V
        is the block's own innovation covariance Omega, with Omega >= V_block
        in the PSD order.
    """
    part = joint.require_partition()
    require_stationary(joint)
    return _marginal_model(joint, part.block(block))


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
