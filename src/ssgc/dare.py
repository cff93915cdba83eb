"""Discrete algebraic Riccati equation solver.

The fixed point solved is

    P = A P A^T + Q - K V K^T,   V = R + C P C^T,   K = (A P C^T + S) V^{-1},

by the plain fixed-point recursion started at P0 = 0 (monotone nondecreasing
under the standard admissibility conditions).  The innovations covariance V is
inverted through its Cholesky factor at every iterate; a factorization failure
is a hard error signaling violated preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .model import SSModel, pbh_test

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6

__all__ = ["DareSolution", "solve_dare", "riccati_fixed_point"]


@dataclass(frozen=True, eq=False)
class DareSolution:
    """Stabilizing DARE solution with its gain and innovation covariance.

    Attributes
    ----------
    P : (n, n) ndarray
        Symmetric PSD fixed point.
    K : (n, p) ndarray
        Kalman gain (A P C^T + S) V^{-1}.
    V : (p, p) ndarray
        Innovation covariance R + C P C^T, positive definite.
    iterations : int
        Number of recursion steps performed.
    residual : float
        Frobenius norm of P - (A P A^T + Q - K V K^T) at the returned P.
    history : tuple of ndarray, optional
        Iterates P_0, P_1, ... when requested, else empty.
    """

    P: np.ndarray
    K: np.ndarray
    V: np.ndarray
    iterations: int
    residual: float
    history: tuple = ()


def _chol_solve_t(chol_lower: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Return m @ V^{-1} given the lower Cholesky factor of V."""
    # V^{-1} m^T via two triangular-structured solves, then transpose back.
    y = np.linalg.solve(chol_lower, m.T)
    return np.linalg.solve(chol_lower.T, y).T


def riccati_fixed_point(
    a: np.ndarray,
    c: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p0: np.ndarray | None = None,
    keep_history: bool = False,
):
    """Run the Riccati recursion from p0 (zero by default).

    Returns (P, K, V, iterations, residual, history).  Convergence is declared
    when ||P_{t+1} - P_t||_F <= tol * max(1, ||P_t||_F).  Raises ValueError
    unless tol is finite and positive and max_iter a non-negative integer,
    PreconditionError if some iterate's innovation covariance fails its
    Cholesky factorization and ConvergenceError when the budget is exhausted.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError("max_iter must be a non-negative integer")
    n = a.shape[0]
    p = 0.5 * (p0 + p0.T) if p0 is not None else np.zeros((n, n))
    history: list[np.ndarray] = [p.copy()] if keep_history else []
    iterations = 0
    converged = False
    # Each pass computes the gain at p; the pass after convergence computes it
    # at the returned P and gives the residual instead of a further step.
    while True:
        cp = c @ p
        v = r + cp @ c.T
        v = 0.5 * (v + v.T)
        try:
            chol = np.linalg.cholesky(v)
        except np.linalg.LinAlgError as exc:
            raise PreconditionError(
                "innovation covariance is not positive definite at iterate "
                f"{iterations}; the model violates the solver preconditions"
            ) from exc
        m = a @ cp.T + s
        k = _chol_solve_t(chol, m)
        p_next = a @ p @ a.T + q - m @ k.T
        if converged:
            break
        if iterations == max_iter:
            raise ConvergenceError(f"Riccati recursion did not converge in {max_iter} iterations")
        iterations += 1
        p_next = 0.5 * (p_next + p_next.T)
        delta = np.linalg.norm(p_next - p, "fro")
        p = p_next
        if keep_history:
            history.append(p.copy())
        converged = delta <= tol * max(1.0, np.linalg.norm(p, "fro"))

    residual = float(np.linalg.norm(p - p_next, "fro"))
    return p, k, v, iterations, residual, tuple(history)


def _check_preconditions(model: SSModel) -> None:
    try:
        np.linalg.cholesky(model.R)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("condition N violated: R is not positive definite") from exc

    stacked = np.block([[model.Q, model.S], [model.S.T, model.R]])
    min_eig = float(np.linalg.eigvalsh(0.5 * (stacked + stacked.T)).min())
    scale = max(1.0, float(np.abs(stacked).max()))
    if min_eig < -1e-9 * scale:
        raise PreconditionError(
            f"joint noise covariance [[Q, S], [S^T, R]] is not PSD (min eigenvalue {min_eig:.3g})"
        )

    qs = model.q_s
    eigvals, vecs = np.linalg.eigh(qs)
    eigvals = np.clip(eigvals, 0.0, None)
    qs_half = (vecs * np.sqrt(eigvals)) @ vecs.T
    st = pbh_test(model.a_s, qs_half, "stabilizable")
    if not st.passed:
        raise PreconditionError(
            f"condition St violated: (A_s, Q_s^(1/2)) not stabilizable, eigenvalue {st.witness:.6g}"
        )

    de = pbh_test(model.A, model.C.T, "detectable")
    if not de.passed:
        raise PreconditionError(
            f"condition De violated: (A, C) not detectable, eigenvalue {de.witness:.6g}"
        )


def solve_dare(
    model: SSModel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    keep_history: bool = False,
) -> DareSolution:
    """Solve the DARE for a general-noise state-space model.

    Parameters
    ----------
    model : SSModel
        Model supplying (A, C, [Q, R, S]).  Preconditions: R positive definite,
        (A_s, Q_s^(1/2)) stabilizable and (A, C) detectable; all three are
        checked and reported by name on failure.
    tol : float
        Relative Frobenius convergence tolerance of the recursion, finite and
        positive.
    max_iter : int
        Iteration budget, a non-negative integer.
    keep_history : bool
        Store every iterate in the solution (for diagnostics; memory scales
        with iteration count).

    Returns
    -------
    DareSolution
        Stabilizing solution: spectral_radius(A - K C) < 1 and V > 0.
    """
    _check_preconditions(model)
    p, k, v, iterations, residual, history = riccati_fixed_point(
        model.A, model.C, model.Q, model.R, model.S,
        tol=tol, max_iter=max_iter, keep_history=keep_history,
    )
    return DareSolution(p, k, v, iterations, residual, history)
