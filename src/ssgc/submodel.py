"""Marginal (block) models of a joint innovations model.

A stationary joint ISS model (A, C, K, V) restricted to one output block is
again an ISS process: keeping rows `idx` of the output, the block model solves
the DARE of the state-space pair

    (A_o, C_idx,o, [K_o V K_o^T, V_idx, K_o V[:, idx]]),

whose innovation covariance is the block's one-step prediction error
covariance given its own past only.  The subscript o keeps the states the
block reads: those where C_idx, or the row of A of a read state, has a
nonzero.  The other states have A[o, ~o] = 0 and C_idx[:, ~o] = 0, so x_o
evolves on its own and the DARE on o has the same gain rows and innovation
covariance as on the full state.  With o first, A is block triangular, so
the dropped modes are stable modes of the stationary joint A.  When every
state is read, o is the full state and the joint arrays are used as they are.

Of the states o, some are known exactly from the block's own past output
(a reduced-order observer, Luenberger 1971).  With e_idx = z_idx - C_idx x,
the joint model in the block's filter form is

    x[t+1] = F x[t] + K_idx z_idx[t] + K_other e_other[t],   F = A - K_idx C_idx.

A state s is known when K_other[s] = 0 and its row of F reads known states
only (a fixed point): x_s[t+1] = F[s] x[t] + K_idx[s] z_idx[t] is then a
function of the block's past.  A copy state (A[s] = C_idx[i] and
K_idx[s] = e_i, so F[s] = 0) and a shift state (a zero gain row, so
F[s] = A[s]) are special cases; the block's own lags in a companion model
are such states.  The DARE is solved on the unknown states u alone,

    (A_uu, C_idx,u, [K_u V K_u^T, V_idx, K_u V[:, idx]]),

and its solution P_u, padded with zeros on the known states, solves the
DARE on o: known states enter the filter as a known input, so their error
covariance is zero.  On a known row, K[s] V[:, idx] = K_idx[s] V_idx
(K_other[s] = 0) and A[s, u] = K_idx[s] C_u (F[s, u] = 0), so the gain
(A[s, u] P_u C_u^T + K[s] V[:, idx]) Omega^{-1} is K_idx[s], with
Omega = V_idx + C_u P_u C_u^T: the gain rows are the joint K_idx on the
known states and the reduced solve's K_u on u.  In the order of the fixed
point, the known rows of A - K C are those of F, which vanish on u and form
a strictly lower triangular N on the known states, so the padded solution
is the stabilizing one.  The same rows of A_s = A - S V_idx^{-1} C_idx are
those of F too, and those of Q_s = K (V - V[:, idx] V_idx^{-1} V[idx, :]) K^T
are zero, so the reduced solve's named checks pass whenever the full ones
would:

- De: A[known, u] = K_idx[known] C_u, so A[known, u] v = 0 when C_u v = 0,
  and an eigenvector v of A_uu that C_u cannot see lifts to the
  eigenvector [0; v] of A that C_idx cannot see.
- St: with M = A_s[u, known], a left eigenvector w^T A_s,uu = lambda w^T,
  |lambda| >= 1, with w^T Q_s,uu = 0 extends to [y; w], where
  y^T = w^T M (lambda I - N)^{-1}, a left eigenvector of A_s that Q_s
  cannot see.

Conversely N has no eigenvalue on or outside the unit circle, so a failure
of the full pair shows in the reduced one.  Models without known states are
solved on o as before, from the same arrays.
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
)

__all__ = ["extract_submodel", "log_det_spectrum_integral"]


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


def _known_states(
    a: np.ndarray, c: np.ndarray, k_own: np.ndarray, k_other: np.ndarray
) -> np.ndarray | None:
    """Mask of the states the block's own past output fixes, or None when there are none.

    A state is known when its row of k_other is zero and its row of the
    filter-form dynamics a - k_own c reads known states only (module
    docstring).  Each wave of the fixed point adds the free states that read
    no unknown state, so ordered by wave the known rows of a - k_own c are
    strictly lower triangular.
    """
    free = ~k_other.any(axis=1)
    if not free.any():
        return None
    reads = a - k_own @ c != 0
    unknown = np.ones(len(a), dtype=bool)
    while free.any():
        wave = free & ~(reads @ unknown)
        if not wave.any():
            break
        unknown ^= wave
        free ^= wave
    return None if unknown.all() else ~unknown


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
        in the PSD order.  The Riccati equation is solved only on the states
        the block's past leaves unknown (a companion model's other-block
        lags, n/2 of n); K_block is rebuilt exactly on the known states,
        where it is the joint gain from the block's own innovation (module
        docstring).
    """
    part = joint.require_partition()
    require_stationary(joint)
    idx = part.block(block)
    other = part.y if idx == part.x else part.x
    a, c_sub, k = joint.A, joint.C[idx, :], joint.K
    keep = _read_states(a, c_sub)
    if keep is not None:  # a[keep][:, ~keep] = 0 and c_sub[:, ~keep] = 0
        a, c_sub, k = a[np.ix_(keep, keep)], c_sub[:, keep], k[keep]
    gain = k[:, idx].copy()  # exact on the known states
    known = _known_states(a, c_sub, gain, k[:, other])
    u = slice(None) if known is None else ~known  # the states the solve keeps
    sol = solve_dare(SSModel._driven(a[u][:, u], c_sub[:, u], k[u], idx, joint.V))
    gain[u] = sol.K
    return ISSModel._build(a, c_sub, gain, sol.V)


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
