"""Discrete algebraic Riccati equation solver.

The fixed point solved is

    P = A P A^T + Q - K V K^T,   V = R + C P C^T,   K = (A P C^T + S) V^{-1}.

Two recursions share one gain pass (V, its Cholesky factor, K and the
Riccati map at an iterate); a Cholesky failure of V is a hard error signaling
violated preconditions.

* ``solve_dare`` starts from P_0 = 0 and runs the structure-preserving
  doubling algorithm (Chu, Fan & Lin 2005; Anderson & Moore 1979) on the
  model with its cross term removed, A_s = A - S R^{-1} C and
  Q_s = Q - S R^{-1} S^T.  From A_0 = A_s^T, G_0 = C^T R^{-1} C, H_0 = Q_s,

      W = I + G_k H_k,
      A_{k+1} = A_k W^{-1} A_k,
      G_{k+1} = G_k + A_k W^{-1} G_k A_k^T,
      H_{k+1} = H_k + A_k^T H_k W^{-1} A_k,

  and H_k is P_{2^k} of the zero-started fixed-point sequence, so k doublings
  reach the iterate the plain recursion reaches in 2^k steps.
* ``riccati_fixed_point`` runs the plain recursion from any PSD start (the
  state covariance, for FIR filtering), monotone nondecreasing from P_0 = 0
  under the standard admissibility conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .model import SSModel, pbh_test

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6
DEFAULT_MAX_DOUBLINGS = 64

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
        Steps performed: P_0 -> P_1 is the first, each doubling one more.
    residual : float
        Frobenius norm of P - (A P A^T + Q - K V K^T) at the returned P.
    history : tuple of ndarray, optional
        Iterates P_0, P_1, P_2, P_4, ... (one per step) when requested, else
        empty.
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


def _check_budget(tol: float, max_iter: int) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError("max_iter must be a non-negative integer")


def _gain_pass(a, c, q, r, s, p, iterations: int):
    """(K, V, Riccati map of p) at the iterate p; PreconditionError if V is not
    positive definite there."""
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
    return k, v, a @ p @ a.T + q - m @ k.T


def _converged(step: np.ndarray, p: np.ndarray, tol: float) -> bool:
    return np.linalg.norm(step) <= tol * max(1.0, np.linalg.norm(p))


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
    when ||P_{t+1} - P_t||_F <= tol * max(1, ||P_{t+1}||_F).  Raises ValueError
    unless tol is finite and positive and max_iter a non-negative integer,
    PreconditionError if some iterate's innovation covariance fails its
    Cholesky factorization and ConvergenceError when the budget is exhausted.
    """
    _check_budget(tol, max_iter)
    n = a.shape[0]
    p = 0.5 * (p0 + p0.T) if p0 is not None else np.zeros((n, n))
    history: list[np.ndarray] = [p.copy()] if keep_history else []
    iterations = 0
    converged = False
    # Each pass computes the gain at p; the pass after convergence computes it
    # at the returned P and gives the residual instead of a further step.
    while True:
        k, v, p_next = _gain_pass(a, c, q, r, s, p, iterations)
        if converged:
            break
        if iterations == max_iter:
            raise ConvergenceError(f"Riccati recursion did not converge in {max_iter} steps")
        iterations += 1
        p_next = 0.5 * (p_next + p_next.T)
        step = p_next - p
        p = p_next
        if keep_history:
            history.append(p.copy())
        converged = _converged(step, p, tol)

    residual = float(np.linalg.norm(p - p_next))
    return p, k, v, iterations, residual, tuple(history)


def _riccati_doubling(model: SSModel, tol: float, max_iter: int, keep_history: bool):
    """Zero-started Riccati solve by doubling; same returns and errors as
    ``riccati_fixed_point``, with max_iter counting steps of P_0, P_1, P_2,
    P_4, ... and convergence tested between consecutive entries."""
    _check_budget(tol, max_iter)
    n = model.n
    a_k = model.a_s.T
    g = model.C.T @ np.linalg.solve(model.R, model.C)
    g = 0.5 * (g + g.T)
    p_next = model.q_s
    p, eye = np.zeros((n, n)), np.eye(n)
    history: list[np.ndarray] = [p.copy()] if keep_history else []
    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            # P_{2^(k+1)} from P_{2^k} = p = H_k; one solve gives W^{-1} [A_k, G_k].
            w_inv = np.linalg.solve(eye + g @ p, np.concatenate((a_k, g), axis=1))
            w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
            p_next = p + a_k.T @ p @ w_inv_a
            p_next = 0.5 * (p_next + p_next.T)
            g = g + a_k @ w_inv_g @ a_k.T
            g = 0.5 * (g + g.T)
            a_k = a_k @ w_inv_a
        step = p_next - p
        p = p_next
        if keep_history:
            history.append(p.copy())
        if _converged(step, p, tol):
            break
    else:
        raise ConvergenceError(f"Riccati doubling did not converge in {max_iter} steps")

    k, v, p_map = _gain_pass(model.A, model.C, model.Q, model.R, model.S, p, iterations)
    return p, k, v, iterations, float(np.linalg.norm(p - p_map)), tuple(history)


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
    max_iter: int = DEFAULT_MAX_DOUBLINGS,
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
        Relative Frobenius convergence tolerance between consecutive entries
        of P_0, P_1, P_2, P_4, ..., finite and positive.
    max_iter : int
        Step budget, a non-negative integer: P_0 -> P_1 is one step and each
        doubling P_{2^k} -> P_{2^(k+1)} one more, so the default of 64 steps
        covers 2^63 steps of the plain recursion and a solve that cannot
        converge fails at once.
    keep_history : bool
        Store the iterates P_0, P_1, P_2, P_4, ... in the solution (for
        diagnostics); ``len(history) == iterations + 1``.

    Returns
    -------
    DareSolution
        Stabilizing solution: spectral_radius(A - K C) < 1 and V > 0; its
        ``iterations`` counts doubling steps.

    Raises
    ------
    PreconditionError
        If a precondition fails.
    ConvergenceError
        If the budget of ``max_iter`` steps runs out.
    """
    _check_preconditions(model)
    p, k, v, iterations, residual, history = _riccati_doubling(
        model, tol, max_iter, keep_history
    )
    return DareSolution(p, k, v, iterations, residual, history)
