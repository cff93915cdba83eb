"""Discrete algebraic Riccati equation solver.

The fixed point solved is

    P = A P A^T + Q - K V K^T,   V = R + C P C^T,   K = (A P C^T + S) V^{-1}.

One core, ``riccati_fixed_point``, serves every solve.  It takes the same
``SSModel`` as ``solve_dare``, whose general noise every transform forms by
the one rule ``SSModel._driven`` (Q = G W G^T, R = D W D^T, S = G W D^T).
``solve_dare`` starts it at Pi = 0, FIR filtering at the Newton-Hewer
iterate (Hewer 1971) of the state covariance's gain.  X = P - Pi obeys the
same recursion on (A - K(Pi) C, F(Pi) - Pi, V(Pi)) with no cross term, F
being the Riccati map, and the structure-preserving doubling algorithm (Chu,
Fan & Lin 2005), the one doubling loop of ``model``, reaches its 2^k-th
iterate in k steps.  Newton-Hewer steps, one Stein equation on A - K C each,
refine the result.  At Pi = 0 the shifted model is (A_s, Q_s, R) with
A_s = A - S R^{-1} C and Q_s = Q - S R^{-1} S^T, and the iterates are
monotone nondecreasing under the standard admissibility conditions.  Both
return a ``DareSolution``; a Cholesky failure of V raises PreconditionError,
divergence ConvergenceError.

``solve_dare`` checks its premises first.  St is decided on the eigen-factor
U diag(sqrt(lambda)) of Q_s = U diag(lambda) U^T that the PSD check computes:
when every eigenvalue is above rounding level and sqrt(lambda_min) exceeds
twice the staircase's first floor PBH_TOL * max(1, sqrt(lambda_max)), that
factor alone spans the state, so (A_s, Q_s^(1/2)) is controllable and St
holds with no PBH test.  Every other case, and De always, runs ``pbh_test``.
The checks and the core's start at Pi = 0 share one P = 0 gain pass per
model, ``_start_pass``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import model as _model
from .errors import PreconditionError
from .model import SSModel, _as_matrix, _cholesky, _doubling, pbh_test, solve_lyapunov

DEFAULT_TOL = 1e-12

__all__ = ["DareSolution", "solve_dare", "riccati_fixed_point"]


class DareSolution(NamedTuple):
    """Riccati fixed point, gain and innovation covariance, as every solve returns them.

    Stabilizing when ``solve_dare`` returns it; a start ``p0`` of
    ``riccati_fixed_point`` can reach the other branch.

    Attributes
    ----------
    P : (n, n) ndarray
        Symmetric PSD fixed point.
    K : (n, p) ndarray
        Kalman gain (A P C^T + S) V^{-1}.
    V : (p, p) ndarray
        Innovation covariance R + C P C^T, positive definite.
    iterations : int
        Steps performed, one each: the Newton-Hewer step from K(p0) when a
        start p0 is given, P_0 -> P_1, each doubling and each Newton step.
    residual : float
        Frobenius norm of P - (A P A^T + Q - K V K^T) at the returned P.
    history : tuple of ndarray, optional
        When requested, p0 (if given) and its Newton-Hewer iterate, the
        iterates P_0, P_1, P_2, P_4, ... from there, then the Newton iterates
        (one per step); else empty.
    """

    P: np.ndarray
    K: np.ndarray
    V: np.ndarray
    iterations: int
    residual: float
    history: tuple = ()


def _gain_pass(a, c, q, r, s, p, iterations: int):
    """(K, V, Riccati map of p) at the iterate p, None standing for P = 0
    (V = R, K = S R^{-1}, F = Q - S K^T); PreconditionError if V is not
    positive definite there."""
    if p is None:
        v, m, f = r, s, q
    else:
        cp = c @ p
        v, m, f = r + cp @ c.T, a @ cp.T + s, a @ p @ a.T + q
    v = 0.5 * (v + v.T)
    _cholesky(v, f"innovation covariance is not positive definite at iterate {iterations}; "
              "the model violates the solver preconditions")
    k = np.linalg.solve(v, m.T).T
    return k, v, f - m @ k.T


def _start_pass(model: SSModel):
    """``_gain_pass`` at P = 0, (K_0, R, Q_s), frozen and remembered for the
    last model object (``model._remembered``): ``_check_preconditions`` and
    the core's start at P = 0 share one pass per ``solve_dare``."""

    def compute():
        values = _gain_pass(model.A, model.C, model.Q, model.R, model.S, None, 0)
        for m in values:
            m.setflags(write=False)
        return values

    return _model._remembered("start pass", model, None, compute)


def _hewer(a, c, q, r, s, k) -> np.ndarray:
    """Newton-Hewer step: the P of the gain K, solving
    P = (A - K C) P (A - K C)^T + [I, -K] [[Q, S], [S^T, R]] [I, -K]^T;
    PreconditionError unless A - K C is stable."""
    ks = k @ s.T
    return solve_lyapunov(a - k @ c, q - ks - ks.T + k @ r @ k.T)


def riccati_fixed_point(model: SSModel, p0=None, keep_history: bool = False) -> DareSolution:
    """Riccati fixed point of the model (A, C, [Q, R, S]) reached from the
    start p0 (zero by default), an (n, n) array read by ``_as_matrix``
    (ValueError naming "p0" unless it is real, finite and of that shape).

    Returns a ``DareSolution``, stabilizing at p0 = 0 under ``solve_dare``'s
    premises.  A start p0 is first replaced by one Newton-Hewer step from its
    gain K(p0), which must be stabilizing; the state covariance's gain is,
    that covariance being Newton's first iterate from K = 0 when A is stable
    (Hewer 1971).  The doubling loop of ``model`` then runs on X = P - Pi
    from the start Pi (zero, or the Newton iterate) and stops when
    consecutive entries of Pi, Pi + X_1, Pi + X_2, Pi + X_4, ... differ by
    at most DEFAULT_TOL * max(1, ||P||_F); Newton-Hewer steps follow while
    the residual ||P - F(P)||_F is above that bound and still falling.
    ``iterations`` counts the steps as ``DareSolution`` does, the loop's
    budget ``model._MAX_DOUBLINGS`` (64 steps, covering 2^63 steps of the
    plain recursion) bounds them, and ``history`` (when requested) holds p0
    and the iterate after each step.  Raises PreconditionError if V fails
    its Cholesky factorization at a start or an iterate, or a Newton step
    (the one from K(p0) included) meets an unstable A - K C, and
    ConvergenceError when the doubling exhausts the budget, overflows or
    meets a singular step ("doubling ..."), or a Newton step's Lyapunov
    solve fails on a stable A - K C ("Lyapunov doubling ...").
    """
    a, c, q, r, s = model.A, model.C, model.Q, model.R, model.S
    history: list[np.ndarray] | None = [] if keep_history else None
    if p0 is None:
        pi, done = np.zeros(a.shape), 0
        k, v, f_pi = _start_pass(model)
    else:
        p0 = _as_matrix(p0, "p0")
        if p0.shape != a.shape:
            raise ValueError(f"p0 must have shape {a.shape}, got {p0.shape}")
        # One Newton-Hewer step from the gain K(p0), which must be stabilizing.
        pi, done = 0.5 * (p0 + p0.T), 1
        if history is not None:
            history.append(pi.copy())
        pi = _hewer(a, c, q, r, s, _gain_pass(a, c, q, r, s, pi, 0)[0])
        k, v, f_pi = _gain_pass(a, c, q, r, s, pi, done)
    if history is not None:
        history.append(pi.copy())
    # Doubling on X = P - Pi from A_0 = (A - K(Pi) C)^T, G_0 = C^T V(Pi)^{-1} C
    # and H_0 = F(Pi) - Pi gives H_k = X_{2^k}.
    g = c.T @ np.linalg.solve(v, c)
    g = 0.5 * (g + g.T)
    p, _, iterations = _doubling(
        (a - k @ c).T, g, 0.5 * (f_pi + f_pi.T) - pi, pi, DEFAULT_TOL, done, history
    )

    k, v, p_map = _gain_pass(a, c, q, r, s, p, iterations)
    residual = float(np.linalg.norm(p - p_map))
    # Newton-Hewer refinement at the gain K of the previous P, within the doubling's budget.
    budget = _model._MAX_DOUBLINGS
    while residual > DEFAULT_TOL * max(1.0, float(np.linalg.norm(p))) and iterations < budget:
        p_new = _hewer(a, c, q, r, s, k)
        k_new, v_new, p_map = _gain_pass(a, c, q, r, s, p_new, iterations + 1)
        residual_new = float(np.linalg.norm(p_new - p_map))
        if not residual_new < residual:
            break
        p, k, v, residual = p_new, k_new, v_new, residual_new
        iterations += 1
        if history is not None:
            history.append(p.copy())
    return DareSolution(p, k, v, iterations, residual, tuple(history or ()))


def _check_preconditions(model: SSModel) -> None:
    _cholesky(model.R, "condition N violated: R is not positive definite")

    # St on the P = 0 pass the core starts from: A_s = A - K_0 C and Q_s = F(0).
    k0, _, q_s = _start_pass(model)
    eigvals, vecs = np.linalg.eigh(q_s)
    # With R > 0, [[Q, S], [S^T, R]] is PSD exactly when its Schur complement Q_s is.
    top = max(float(np.abs(m).max(initial=0.0)) for m in (model.Q, model.S, model.R))
    min_eig = float(eigvals.min(initial=np.inf))
    if min_eig < -1e-9 * max(1.0, top):
        raise PreconditionError(
            "joint noise covariance [[Q, S], [S^T, R]] is not PSD "
            f"(Q - S R^-1 S^T has min eigenvalue {min_eig:.3g})"
        )
    # Eigenvalues at rounding level count as zero: their roots would clear the staircase floor.
    kept = eigvals > (model.n + model.p) * np.finfo(float).eps * top
    roots = np.sqrt(eigvals[kept])
    # The singular values of vecs diag(roots) are roots: clearing the staircase's first
    # floor twice over, a full set spans the state, so St holds with no staircase.
    floor = _model.PBH_TOL * max(1.0, float(roots.max(initial=0.0)))
    if not (kept.all() and roots.min(initial=np.inf) > 2.0 * floor):
        st = pbh_test(model.A - k0 @ model.C, vecs[:, kept] * roots, "stabilizable")
        if not st.passed:
            raise PreconditionError(
                "condition St violated: (A_s, Q_s^(1/2)) not stabilizable, "
                f"eigenvalue {st.witness:.6g}"
            )

    de = pbh_test(model.A, model.C.T, "detectable")
    if not de.passed:
        raise PreconditionError(
            f"condition De violated: (A, C) not detectable, eigenvalue {de.witness:.6g}"
        )


def solve_dare(model: SSModel, keep_history: bool = False) -> DareSolution:
    """Solve the DARE for a general-noise state-space model.

    Parameters
    ----------
    model : SSModel
        Model supplying (A, C, [Q, R, S]).  Preconditions: R positive definite,
        (A_s, Q_s^(1/2)) stabilizable and (A, C) detectable; all three are
        checked and reported by name on failure.  St needs no PBH test when
        Q_s is positive definite with sqrt(lambda_min) above twice
        PBH_TOL * max(1, sqrt(lambda_max)): its root then reaches every state.
    keep_history : bool
        Store the iterates P_0, P_1, P_2, P_4, ... and the Newton iterates in
        the solution (for diagnostics); ``len(history) == iterations + 1``.

    Returns
    -------
    DareSolution
        The core's result unchanged, stabilizing: spectral_radius(A - K C) < 1
        and V > 0; its ``iterations`` counts doubling and Newton steps.
        Consecutive entries of P_0, P_1, P_2, P_4, ... met DEFAULT_TOL in
        relative Frobenius norm within the one 64-step budget: P_0 -> P_1 is
        one step, each doubling P_{2^k} -> P_{2^(k+1)} and each Newton step
        one more, so a solve that cannot converge fails at once.

    Raises
    ------
    PreconditionError
        If a precondition fails.
    ConvergenceError
        If the 64-step budget runs out or the iterates diverge.
    """
    _check_preconditions(model)
    return riccati_fixed_point(model, keep_history=keep_history)
