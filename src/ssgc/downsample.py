"""Exact downsampling (skip sampling) of innovations models.

If z is generated by a stationary ISS model (A, C, K, V), the subsampled
process z_bar[k] = z[m k] is again ISS with state matrix A^m; its gain and
innovation covariance solve the DARE of

    (A^m, C, [Q_m, V, S_m]),  S_m = A^{m-1} K V,
    Q_1 = K V K^T,            Q_j = A Q_{j-1} A^T + K V K^T,

where Q_1 and S_1 = K V are the noise of ``ISSModel.as_ss``.  The triple
(A^m, Q_m, S_m) is one step joined with the triples of b = 2^j steps at the
set bits of m - 1, a steps then b as (A^b A^a, Q_b + A^b Q_a A^b^T, A^b S_a);
A^b comes from the one squaring loop ``model._squarings``, and Q_b doubles
beside it, so any integer m >= 1 is exact in O(log m) matrix products.
"""

from __future__ import annotations

from .dare import solve_dare
from .model import ISSModel, SSModel, _is_int, _squarings, require_stationary

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

    # One step, joined with (a_b, q_b), b = 2^j steps, at the set bits of m - 1.
    noise = model.as_ss()
    a_m, q_m, s_m = model.A, noise.Q, noise.S
    q_b, k = noise.Q, int(m) - 1
    for a_b in _squarings(model.A):
        if k & 1:
            a_m, q_m, s_m = a_b @ a_m, q_b + a_b @ q_m @ a_b.T, a_b @ s_m
        k >>= 1
        if not k:
            break
        q_b = q_b + a_b @ q_b @ a_b.T

    sol = solve_dare(SSModel._build(a_m, model.C, q_m, noise.R, s_m))
    return ISSModel._build(a_m, model.C, sol.K, sol.V, partition=model.partition)
