"""Exact downsampling (skip sampling) of innovations models.

If z is generated by a stationary ISS model (A, C, K, V), the subsampled
process z_bar[k] = z[m k] is again ISS with state matrix A^m; its gain and
innovation covariance solve the DARE of

    (A^m, C, [Q_m, V, S_m]),  S_m = A^{m-1} K V,
    Q_1 = K V K^T,            Q_j = A Q_{j-1} A^T + K V K^T.
"""

from __future__ import annotations

import numpy as np

from .dare import solve_dare
from .model import ISSModel, SSModel, _is_int, require_stationary

__all__ = ["downsample_iss"]


def downsample_iss(model: ISSModel, m: int) -> ISSModel:
    """ISS model of every m-th observation of a stationary model.

    Parameters
    ----------
    model : ISSModel
        Stationary input model; any partition is preserved.
    m : int
        Skip factor, m >= 1.  m = 1 returns the (stationary) input model unchanged.

    Returns
    -------
    ISSModel
        Model of the downsampled process, state matrix A^m.
    """
    if not _is_int(m) or m < 1:
        raise ValueError("m must be an integer >= 1")
    require_stationary(model)
    if m == 1:
        return model

    kv = model.K @ model.V
    w = kv @ model.K.T
    w = 0.5 * (w + w.T)
    q = w.copy()
    for _ in range(m - 1):
        q = model.A @ q @ model.A.T + w
        q = 0.5 * (q + q.T)
    a_m = np.linalg.matrix_power(model.A, m)
    s_m = np.linalg.matrix_power(model.A, m - 1) @ kv

    sol = solve_dare(SSModel(a_m, model.C, q, model.V, s_m))
    return ISSModel(a_m, model.C, sol.K, sol.V, partition=model.partition)
