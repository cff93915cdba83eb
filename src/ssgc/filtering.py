"""Causal FIR filtering of innovations models and all-pass analysis.

Filtering a stationary ISS process z by a matrix FIR filter
Phi(L) = Phi_0 + Phi_1 L + ... + Phi_q L^q yields another regular process
whose ISS model is obtained from an augmented state (the original state plus
the last q outputs) followed by a spectral-factorization Riccati solve.  The
solve is the one Riccati core of ``dare``, started from the augmented state
covariance (the classic innovations algorithm, monotone from above): one
Newton-Hewer step from its gain, shifted doubling, then Newton-Hewer
refinement.  That start reaches the stabilizing solution even when Phi_0 is
singular or the filter is non-minimum-phase, situations where the
zero-started recursion either cannot start (singular innovation covariance
at iterate zero) or is drawn to a non-stabilizing fixed point.  The all-pass
split reuses the same solve: its minimum-phase factor is the filtered model
of white noise (FIR filter) or of the identity-filtered model (ISS filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dare import DEFAULT_TOL, riccati_fixed_point
from .errors import ConvergenceError, PreconditionError
from .model import (
    ISSModel,
    JointPartition,
    SSModel,
    _as_matrix,
    _check_grid,
    _check_symmetric,
    _cholesky,
    default_grid,
    require_stationary,
    solve_lyapunov,
    spectral_radius,
)

MIN_PHASE_MARGIN = 1e-9

__all__ = [
    "FirFilter",
    "MinPhaseResult",
    "AllPassDecomposition",
    "apply_fir_filter",
    "min_phase_check",
    "allpass_decompose",
    "hrf_glover",
]


@dataclass(frozen=True, eq=False)
class FirFilter:
    """Matrix FIR filter Phi(L) = sum_k taps[k] L^k, taps shape (q+1, p, p).

    When ``partition`` is set the filter is block diagonal with respect to it
    (off-diagonal blocks of every tap are exactly zero).
    """

    taps: np.ndarray
    partition: JointPartition | None = None

    def __post_init__(self) -> None:
        taps = _as_matrix(self.taps, "taps", None)
        if taps.ndim == 1:
            taps = taps[:, None, None]
        if taps.ndim != 3 or taps.shape[1] != taps.shape[2] or taps.shape[0] < 1:
            raise ValueError("taps must have shape (q + 1, p, p)")
        if self.partition is not None:
            if self.partition.p != taps.shape[1]:
                raise ValueError("partition does not match the filter dimension")
            x, y = self.partition.x, self.partition.y
            if np.any(taps[:, x, y] != 0.0) or np.any(taps[:, y, x] != 0.0):
                raise ValueError("block-diagonal filter has nonzero off-diagonal blocks")
        # Cheap probe that det Phi(z) is not the zero polynomial, at generic
        # points of the unit circle, whose powers neither overflow nor underflow.
        probes = np.exp(1j * np.array([0.8, -2.1, 2.77]))
        powers = probes[:, None] ** np.arange(taps.shape[0])[None, :]
        dets = np.linalg.det(np.einsum("mk,kij->mij", powers, taps.astype(complex)))
        if np.all(np.abs(dets) < 1e-300):
            raise ValueError("filter determinant is identically zero")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def scalar(cls, coeffs) -> "FirFilter":
        return cls(_as_matrix(coeffs, "coeffs", None).reshape(-1, 1, 1))

    @classmethod
    def identity(cls, p: int) -> "FirFilter":
        return cls(np.eye(p)[None, :, :])

    @classmethod
    def block_scalar(cls, coeffs_x, coeffs_y, partition: JointPartition) -> "FirFilter":
        """Block-diagonal filter applying one scalar FIR filter per block."""
        cx = _as_matrix(coeffs_x, "coeffs_x", None).ravel()
        cy = _as_matrix(coeffs_y, "coeffs_y", None).ravel()
        q = max(len(cx), len(cy)) - 1
        taps = np.zeros((q + 1, partition.p, partition.p))
        for k in range(len(cx)):
            taps[k, partition.x, partition.x] = cx[k] * np.eye(partition.px)
        for k in range(len(cy)):
            taps[k, partition.y, partition.y] = cy[k] * np.eye(partition.py)
        return cls(taps, partition)

    @property
    def q(self) -> int:
        return self.taps.shape[0] - 1

    @property
    def p(self) -> int:
        return self.taps.shape[1]

    @property
    def scalar_taps(self) -> np.ndarray:
        if self.p != 1:
            raise ValueError("filter is not scalar")
        return self.taps[:, 0, 0]

    def frequency_response(self, grid: np.ndarray) -> np.ndarray:
        """Phi(e^{-j lambda}) on the grid, shape (N, p, p); the grid is checked
        as in ``ISSModel.frequency_response`` (ValueError)."""
        lam = _check_grid(grid)
        phases = np.exp(-1j * lam[:, None] * np.arange(self.q + 1)[None, :])
        return np.einsum("nk,kij->nij", phases, self.taps.astype(complex))


class MinPhaseResult(NamedTuple):
    zeros: np.ndarray
    is_min_phase: bool


@dataclass(frozen=True, eq=False)
class AllPassDecomposition:
    """Minimum-phase/all-pass split of a filter spectrum G Sigma G*.

    ``minimum_phase_model`` realizes the minimum-phase factor G_o (with
    innovation covariance V_o) such that G_o V_o G_o* matches the input
    spectrum; ``e_values`` samples the all-pass factor E = (G_o J_o)^{-1} G J
    on ``grid``.  ``allpass_check`` is the largest deviation of E E* from the
    identity over the grid and ``reconstruction_check`` the largest deviation
    of the reconstructed spectrum, both in Frobenius norm.
    """

    minimum_phase_model: ISSModel
    grid: np.ndarray
    e_values: np.ndarray
    allpass_check: float
    reconstruction_check: float


def apply_fir_filter(joint: ISSModel, filt: FirFilter) -> ISSModel:
    """ISS model of the FIR-filtered process Phi(L) z.

    Parameters
    ----------
    joint : ISSModel
        Stationary input model; its partition (if any) is preserved.  A model
        with n = 0 states is white noise of covariance V.  K need not be
        stabilizing, so a non-minimum-phase parameterization is accepted and
        re-factored.
    filt : FirFilter
        Filter with the same output dimension as the model.

    Returns
    -------
    ISSModel
        Model of the filtered process on the augmented state (original state
        plus the last q outputs).  Its spectrum equals Phi f Phi*, and its gain
        is the stabilizing (minimum-phase) one.

    Raises
    ------
    PreconditionError
        If the model is not stationary or its V is not positive definite.
    ConvergenceError
        If the filtered process is rank deficient (det Phi with unit-circle
        zeros), so that no full-rank innovations model exists;
        the message ends with the Riccati core's own.  The core's one budget
        of 64 steps (each doubling and each Newton step one) covers 2^63 steps
        of the plain recursion, so a unit-circle zero fails at once.
    """
    require_stationary(joint)
    _cholesky(joint.V, "V must be positive definite")
    if filt.p != joint.p:
        raise ValueError("filter dimension does not match the model output dimension")
    n, p, qp = joint.n, joint.p, filt.q * joint.p

    # The state block, then a register of the last q outputs: C feeds its
    # first block and each block shifts down one (no register when q = 0).
    feed = np.vstack((joint.C, np.zeros((qp, n))))[:qp]
    a = np.block([[joint.A, np.zeros((n, qp))], [feed, np.eye(qp, k=-p)]])
    g = np.vstack((joint.K, np.eye(qp, p)))
    phi0 = filt.taps[0]
    c = np.hstack((phi0 @ joint.C, *filt.taps[1:]))
    augmented = SSModel._driven(a, c, g, phi0, joint.V)  # D = Phi_0, W = V

    pi = solve_lyapunov(a, augmented.Q)
    try:
        sol = riccati_fixed_point(augmented, p0=pi)
    except (PreconditionError, ConvergenceError) as exc:
        raise ConvergenceError(
            "the filtered process is rank deficient (its filter determinant "
            f"may vanish on the unit circle): {exc}"
        ) from exc
    rho = spectral_radius(a - sol.K @ c)
    # Doubling resolves 1 - rho only to about sqrt(eps).
    scale = max(1.0, float(np.linalg.norm(sol.P, "fro")))
    if rho >= 1.0 - 4.0 * np.sqrt(np.finfo(float).eps) or sol.residual > 10.0 * DEFAULT_TOL * scale:
        raise ConvergenceError(
            "no stabilizing factorization of the filtered process found "
            f"(error spectral radius {rho:.6g}, residual {sol.residual:.3g})"
        )
    return ISSModel._build(a, c, sol.K, sol.V, partition=joint.partition)


def min_phase_check(taps) -> MinPhaseResult:
    """Zeros of a scalar FIR filter and whether it is minimum phase.

    The zeros are the roots of sum_k c_k z^{q-k} (companion-matrix
    eigenvalues); minimum phase means every root satisfies |z| < 1 - 1e-9.
    Leading zero taps are dropped, so a filter with one nonzero tap has no
    zeros and is minimum phase.  All-zero taps raise ValueError.
    """
    c = _as_matrix(taps, "taps", None).ravel()
    if not c.any():
        raise ValueError("all taps are zero")
    zeros = np.roots(c)
    return MinPhaseResult(zeros, bool(np.all(np.abs(zeros) < 1.0 - MIN_PHASE_MARGIN)))


def allpass_decompose(
    filter_model: ISSModel | FirFilter,
    sigma: np.ndarray | None = None,
    grid: np.ndarray | None = None,
) -> AllPassDecomposition:
    """Split a filter spectrum G Sigma G* into minimum-phase and all-pass parts.

    Parameters
    ----------
    filter_model : ISSModel or FirFilter
        The filter G.  An ISSModel is read as G(L) = I + C (L^{-1} I - A)^{-1} K
        driven by noise of covariance V (its gain need not be stabilizing, so
        non-minimum-phase parameterizations are accepted).  A FirFilter is
        read as G(L) = sum_k taps[k] L^k driven by noise of covariance
        ``sigma`` (identity when omitted; ValueError unless a finite symmetric
        (p, p) array, read by ``_as_matrix``, and PreconditionError unless it
        is positive definite).
    grid : ndarray, optional
        Evaluation grid for the all-pass factor; defaults to 4096 uniform
        points on [-pi, pi).  It must be 1-D, real, finite, strictly
        increasing and span at most one period (ValueError otherwise).

    Returns
    -------
    AllPassDecomposition
        Minimum-phase model (G_o, V_o), sampled all-pass factor E and the two
        deviation checks.

    Raises
    ------
    PreconditionError
        If ``sigma`` (or the V of an ISSModel) is not positive definite.
    ConvergenceError
        As ``apply_fir_filter``, when the spectrum has no full-rank
        minimum-phase factor.
    """
    grid = default_grid() if grid is None else _check_grid(grid)

    if isinstance(filter_model, ISSModel):
        if sigma is not None:
            raise ValueError("sigma applies to FIR filters only; ISS input carries V")
        source, filt, name = filter_model, FirFilter.identity(filter_model.p), "V"
    elif isinstance(filter_model, FirFilter):
        p = filter_model.p
        sig = np.eye(p) if sigma is None else _check_symmetric(_as_matrix(sigma, "sigma"), "sigma")
        if sig.shape != (p, p):
            raise ValueError("sigma shape does not match the filter dimension")
        # White noise of covariance sigma (no state) passed through the filter.
        source = ISSModel._build(np.zeros((0, 0)), np.zeros((p, 0)), np.zeros((0, p)), sig)
        filt, name = filter_model, "sigma"
    else:
        raise TypeError("filter_model must be an ISSModel or a FirFilter")

    sig = source.V
    j = _cholesky(sig, f"{name} must be positive definite")
    min_phase = apply_fir_filter(source, filt)
    g_eval = filter_model.frequency_response(grid)
    go_eval = min_phase.frequency_response(grid)
    j_o = _cholesky(min_phase.V, "minimum-phase innovation covariance is not positive definite")
    e_values = np.linalg.solve(go_eval @ j_o, g_eval @ j)

    eye = np.eye(min_phase.p)
    ee = e_values @ e_values.conj().transpose(0, 2, 1)
    allpass_check = float(np.linalg.norm(ee - eye, axis=(1, 2)).max())

    recon = np.einsum("nij,jk,nlk->nil", go_eval, min_phase.V, go_eval.conj())
    target = np.einsum("nij,jk,nlk->nil", g_eval, sig, g_eval.conj())
    reconstruction_check = float(np.linalg.norm(recon - target, axis=(1, 2)).max())

    return AllPassDecomposition(min_phase, grid, e_values, allpass_check, reconstruction_check)


def hrf_glover(
    fa: float = 1.0,
    fb: float = 1.0,
    tr: float = 1.0,
    duration: float = 32.0,
) -> FirFilter:
    """Double-gamma hemodynamic response sampled as a scalar FIR filter.

    h(t) = fa (t / (tau_a m))^m e^{-(t/tau_a - m)}
         - fb alpha (t / (tau_b p))^p e^{-(t/tau_b - p)}

    with (tau_a, m) = (1.1, 5), (tau_b, p) = (0.9, 12) and alpha = 0.4; each
    gamma bump is normalized to peak at 1.  Taps are c_k = h(k tr) for
    k = 1..floor(duration / tr); h(0) = 0 is dropped.  Every argument must be
    finite (ValueError).
    """
    if not np.all(np.isfinite([fa, fb, tr, duration])):
        raise ValueError("fa, fb, tr and duration must be finite")
    if tr <= 0 or duration < tr:
        raise ValueError("need tr > 0 and duration >= tr")
    if fa <= 0 or fb < 0:
        raise ValueError("gains must be positive (fb may be zero)")
    tau_a, m = 1.1, 5.0
    tau_b, pp = 0.9, 12.0
    alpha = 0.4
    t = tr * np.arange(1, int(np.floor(duration / tr)) + 1)
    bump = fa * (t / (tau_a * m)) ** m * np.exp(-(t / tau_a - m))
    undershoot = fb * alpha * (t / (tau_b * pp)) ** pp * np.exp(-(t / tau_b - pp))
    return FirFilter.scalar(bump - undershoot)
