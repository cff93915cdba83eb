"""Discrete algebraic Riccati equation solver.

The fixed point solved is

    P = A P A^T + Q - K V K^T,   V = R + C P C^T,   K = (A P C^T + S) V^{-1}.

One core, ``riccati_fixed_point``, serves every solve: ``solve_dare`` starts
it at P_0 = 0, FIR filtering at the state covariance Pi.  X = P - Pi obeys
the same recursion on (A - K(Pi) C, F(Pi) - Pi, V(Pi)) with no cross term,
F being the Riccati map, and the structure-preserving doubling algorithm
(Chu, Fan & Lin 2005) reaches its 2^k-th iterate in k steps.  Newton-Hewer
steps (Hewer 1971), one Stein equation on A - K C each, refine the result.
At Pi = 0 the shifted model is (A_s, Q_s, R) with A_s = A - S R^{-1} C and
Q_s = Q - S R^{-1} S^T, and the iterates are monotone nondecreasing under
the standard admissibility conditions.  A Cholesky failure of V is a hard
error signaling violated preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .model import SSModel, pbh_test, solve_lyapunov

DEFAULT_TOL = 1e-12
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
        Steps performed: P_0 -> P_1 is the first, each doubling and each
        Newton step one more.
    residual : float
        Frobenius norm of P - (A P A^T + Q - K V K^T) at the returned P.
    history : tuple of ndarray, optional
        Iterates P_0, P_1, P_2, P_4, ..., then the Newton iterates (one per
        step) when requested, else empty.
    """

    P: np.ndarray
    K: np.ndarray
    V: np.ndarray
    iterations: int
    residual: float
    history: tuple = ()


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
        np.linalg.cholesky(v)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(
            "innovation covariance is not positive definite at iterate "
            f"{iterations}; the model violates the solver preconditions"
        ) from exc
    m = a @ cp.T + s
    k = np.linalg.solve(v, m.T).T
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
    max_iter: int = DEFAULT_MAX_DOUBLINGS,
    p0: np.ndarray | None = None,
    keep_history: bool = False,
):
    """Riccati fixed point reached from the start Pi = p0 (zero by default).

    Returns (P, K, V, iterations, residual, history).  Doubling stops when
    consecutive entries of Pi, Pi + X_1, Pi + X_2, Pi + X_4, ... differ by at
    most tol * max(1, ||P||_F); Newton-Hewer steps follow while the residual
    ||P - F(P)||_F is above that bound and still falling.  Pi -> Pi + X_1 is
    one step, each doubling and each Newton step one more; ``iterations``
    counts them, max_iter bounds them, and ``history`` (when requested) holds
    Pi and the iterate after each step.  Raises ValueError
    unless tol is finite and positive and max_iter a non-negative integer,
    PreconditionError if V fails its Cholesky factorization at Pi or at an
    iterate, or a Newton step meets an unstable A - K C, and ConvergenceError
    when the doubling exhausts the budget.
    """
    _check_budget(tol, max_iter)
    n = a.shape[0]
    pi = 0.5 * (p0 + p0.T) if p0 is not None else np.zeros((n, n))
    # Doubling on X = P - Pi: W = I + G_k H_k, A_{k+1} = A_k W^{-1} A_k,
    # G_{k+1} = G_k + A_k W^{-1} G_k A_k^T, H_{k+1} = H_k + A_k^T H_k W^{-1} A_k
    # from A_0 = (A - K(Pi) C)^T, G_0 = C^T V(Pi)^{-1} C, H_0 = F(Pi) - Pi
    # gives H_k = X_{2^k}.
    k, v, f_pi = _gain_pass(a, c, q, r, s, pi, 0)
    a_k = (a - k @ c).T
    g = c.T @ np.linalg.solve(v, c)
    g = 0.5 * (g + g.T)
    x_next = 0.5 * (f_pi + f_pi.T) - pi
    x, eye = np.zeros((n, n)), np.eye(n)
    history: list[np.ndarray] = [pi.copy()] if keep_history else []
    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            # X_{2^(k+1)} from X_{2^k} = x = H_k; one solve gives W^{-1} [A_k, G_k].
            w_inv = np.linalg.solve(eye + g @ x, np.concatenate((a_k, g), axis=1))
            w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
            x_next = x + a_k.T @ x @ w_inv_a
            x_next = 0.5 * (x_next + x_next.T)
            g = g + a_k @ w_inv_g @ a_k.T
            g = 0.5 * (g + g.T)
            a_k = a_k @ w_inv_a
        step = x_next - x
        x = x_next
        p = pi + x
        if keep_history:
            history.append(p.copy())
        if _converged(step, p, tol):
            break
    else:
        raise ConvergenceError(f"Riccati doubling did not converge in {max_iter} steps")

    k, v, p_map = _gain_pass(a, c, q, r, s, p, iterations)
    residual = float(np.linalg.norm(p - p_map))
    # Newton-Hewer: P = (A - K C) P (A - K C)^T + [I, -K] [[Q, S], [S^T, R]] [I, -K]^T
    # at the gain K of the previous P.
    while residual > tol * max(1.0, float(np.linalg.norm(p))) and iterations < max_iter:
        ks = k @ s.T
        p_new = solve_lyapunov(a - k @ c, q - ks - ks.T + k @ r @ k.T)
        k_new, v_new, p_map = _gain_pass(a, c, q, r, s, p_new, iterations + 1)
        residual_new = float(np.linalg.norm(p_new - p_map))
        if not residual_new < residual:
            break
        p, k, v, residual = p_new, k_new, v_new, residual_new
        iterations += 1
        if keep_history:
            history.append(p.copy())
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
        Step budget, a non-negative integer: P_0 -> P_1 is one step, each
        doubling P_{2^k} -> P_{2^(k+1)} and each Newton step one more, so the
        default of 64 steps covers 2^63 steps of the plain recursion and a
        solve that cannot converge fails at once.
    keep_history : bool
        Store the iterates P_0, P_1, P_2, P_4, ... and the Newton iterates in
        the solution (for diagnostics); ``len(history) == iterations + 1``.

    Returns
    -------
    DareSolution
        Stabilizing solution: spectral_radius(A - K C) < 1 and V > 0; its
        ``iterations`` counts doubling and Newton steps.

    Raises
    ------
    PreconditionError
        If a precondition fails.
    ConvergenceError
        If the budget of ``max_iter`` steps runs out.
    """
    _check_preconditions(model)
    p, k, v, iterations, residual, history = riccati_fixed_point(
        model.A, model.C, model.Q, model.R, model.S, tol, max_iter, keep_history=keep_history
    )
    return DareSolution(p, k, v, iterations, residual, history)
