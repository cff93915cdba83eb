"""Shared models, random-model generators and oracles for the test batteries."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ssgc import (
    FirFilter,
    InfeasibleDesignError,
    ISSModel,
    JointPartition,
    SSModel,
    Var1Design,
    apply_fir_filter,
    design_var1,
    hrf_glover,
    solve_dare,
    spectral_radius,
    var_to_iss,
)
from ssgc.dare import DEFAULT_TOL, _gain_pass
from ssgc.errors import ConvergenceError
from ssgc.model import PBH_TOL, STABILITY_MARGIN, PbhResult, _converged, _is_int


# Matrix arguments every public entry rejects by name (``model._as_matrix``):
# (value, the message after the argument's name).
BAD_MATRICES = (
    ([[np.nan]], "contains non-finite entries"),
    ([[np.inf]], "contains non-finite entries"),
    ([1.0], "must be a 2-D array"),
    ({"a": 1.0}, "is not a numeric array"),
    ([[1.0 + 1.0j]], "contains complex entries"),
)

# Grids every frequency entry rejects by name, before any evaluation
# (``model._check_grid`` through ``model._as_matrix``): (grid, message).
BAD_GRIDS = (
    (np.array([0.0, 1.0 + 1.0j]), "^grid contains complex entries$"),
    ({"a": 0.0}, "^grid is not a numeric array$"),
    ([0.0, np.nan, 1.0], "^grid contains non-finite entries$"),
)


class ReferenceScenario(NamedTuple):
    """Bivariate design with tabulated measures across the acceptance sweep factors.

    The expected rows are regression targets recorded to the digits shown;
    the sweep must land within 0.05 of every entry.
    """

    a: tuple
    rho: float
    fyx: tuple
    fxy: tuple

    def model(self) -> ISSModel:
        sigma = np.array([[1.0, self.rho], [self.rho, 1.0]])
        return var_to_iss([np.array(self.a)], sigma, JointPartition(1, 1))


# y pushes x much harder than the reverse, at every sampling rate.
PUSH_DOMINANT = ReferenceScenario(
    a=((-0.204, -1.24), (0.452, -1.69)),
    rho=0.2,
    fyx=(1.3761, 1.657, 1.408, 1.169, 0.994, 0.864, 0.551, 0.151, 0.001, 0.014),
    fxy=(0.19834, 0.253, 0.287, 0.308, 0.319, 0.322, 0.293, 0.109, 0.001, 0.011),
)

# near-equal strengths at the native rate; slower sampling reverses the picture
PUSH_REVERSAL = ReferenceScenario(
    a=((1.69, -1.24), (0.452, 0.204)),
    rho=0.2,
    fyx=(0.92983, 0.879, 0.766, 0.683, 0.62, 0.57, 0.418, 0.131, 0.001, 0.013),
    fxy=(1.0476, 1.824, 2.006, 1.795, 1.527, 1.3, 0.751, 0.18, 0.002, 0.016),
)

# near one-sided x -> y coupling that equalizes under slower sampling; only
# the ratio pattern is promised for this design.  The matrix is the VAR(1)
# design below rounded to 5e-4.  Its fyx is bounded below by ln(1 + xi_x)
# with xi_x = (1 - rho^2) * 0.408^2 = 0.0599, which caps fxy/fyx at m=1 near
# 47 (the closed form gives 43.4).
NEAR_ONE_SIDED_A = ((1.883, -0.408), (2.236, 0.036))
NEAR_ONE_SIDED_RHO = -0.8
NEAR_ONE_SIDED_DESIGN = Var1Design(
    0.99 * np.exp(0.25j), 0.99 * np.exp(-0.25j),
    xi_x=0.06, xi_y=1.8, rho=NEAR_ONE_SIDED_RHO, sign_gx=-1, root_case=1,
)


def reference_models() -> list[ISSModel]:
    """PUSH_DOMINANT, PUSH_REVERSAL and the NEAR_ONE_SIDED VAR(1), unfiltered (n = 2)."""
    sigma = np.array([[1.0, NEAR_ONE_SIDED_RHO], [NEAR_ONE_SIDED_RHO, 1.0]])
    near_one_sided = var_to_iss([np.array(NEAR_ONE_SIDED_A)], sigma, JointPartition(1, 1))
    return [PUSH_DOMINANT.model(), PUSH_REVERSAL.model(), near_one_sided]


def hrf_filtered_references() -> list[ISSModel]:
    """The three reference designs seen through the hemodynamic response on both blocks.

    The response is sampled from t = 0: a one-step delay in front of the
    ``hrf_glover`` taps, so each model (n = 66) carries a defective shift register.
    """
    taps = np.r_[0.0, hrf_glover().scalar_taps]
    hrf = FirFilter.block_scalar(taps, taps, JointPartition(1, 1))
    return [apply_fir_filter(model, hrf) for model in reference_models()]


def feasible_designs(rng: np.random.Generator, count: int):
    """Rejection-sample feasible parameter tuples, real and conjugate pairs."""
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            lam1 = complex(rng.uniform(-0.95, 0.95))
            lam2 = complex(rng.uniform(-0.95, 0.95))
        else:
            mod = rng.uniform(0.2, 0.97)
            ang = rng.uniform(0.05, np.pi - 0.05)
            lam1 = mod * np.exp(1j * ang)
            lam2 = np.conj(lam1)
        design = Var1Design(
            lam1, lam2,
            xi_x=float(rng.uniform(0.0, 2.0)),
            xi_y=float(rng.uniform(0.0, 2.0)),
            rho=float(rng.uniform(-0.9, 0.9)),
            sign_gx=int(rng.choice([-1, 1])),
            sign_gy=int(rng.choice([-1, 1])),
            root_case=int(rng.choice([1, 2])),
        )
        try:
            out.append((design, design_var1(design)))
        except InfeasibleDesignError:
            continue
    return out


def stable_matrix(rng: np.random.Generator, n: int, radius: float | None = None) -> np.ndarray:
    if radius is None:
        radius = float(rng.uniform(0.3, 0.95))
    a = rng.standard_normal((n, n))
    return a * (radius / max(spectral_radius(a), 1e-12))


def random_ss(
    rng: np.random.Generator,
    n: int | None = None,
    px: int | None = None,
    py: int | None = None,
) -> SSModel:
    """Stable general-noise model whose stacked noise covariance has full rank."""
    if n is None:
        n = int(rng.integers(1, 6))
    if px is None:
        px = int(rng.integers(1, 3))
    if py is None:
        py = int(rng.integers(1, 3))
    p = px + py
    a = stable_matrix(rng, n)
    c = rng.standard_normal((p, n))
    g = rng.standard_normal((n, n + p))
    h = rng.standard_normal((p, n + p))
    return SSModel(a, c, g @ g.T, h @ h.T, g @ h.T, partition=JointPartition(px, py))


def shifted_pair(model: SSModel) -> tuple[np.ndarray, np.ndarray]:
    """(A_s, Q_s) = (A - S R^{-1} C, Q - S R^{-1} S^T): the pair with the
    measurement noise regressed out, on which St is stated."""
    a_s = model.A - model.S @ np.linalg.solve(model.R, model.C)
    q_s = model.Q - model.S @ np.linalg.solve(model.R, model.S.T)
    return a_s, 0.5 * (q_s + q_s.T)


def random_iss(
    rng: np.random.Generator,
    n: int | None = None,
    px: int | None = None,
    py: int | None = None,
) -> ISSModel:
    ss = random_ss(rng, n, px, py)
    sol = solve_dare(ss)
    return ISSModel(ss.A, ss.C, sol.K, sol.V, partition=ss.partition)


def bivariate_var(rng: np.random.Generator, lags: int, one_sided: bool = False) -> ISSModel:
    """Stable bivariate VAR(lags) in companion form (n = 2 lags), spectral radius 0.9.

    With ``one_sided`` the y lags never enter the x equation, so y does not
    cause x.  Scaling lag k by c^k scales every companion eigenvalue by c.
    """
    coeffs = rng.standard_normal((lags, 2, 2)) / np.arange(1, lags + 1)[:, None, None]
    if one_sided:
        coeffs[:, 0, 1] = 0.0
    n = 2 * lags
    companion = np.zeros((n, n))
    companion[:2, :] = np.hstack(list(coeffs))
    companion[2:, :-2] = np.eye(n - 2)
    coeffs *= ((0.9 / spectral_radius(companion)) ** np.arange(1, lags + 1))[:, None, None]
    g = rng.standard_normal((2, 3))
    return var_to_iss(list(coeffs), g @ g.T + 0.1 * np.eye(2), JointPartition(1, 1))


def _block_diag_cov(rng: np.random.Generator, px: int, py: int) -> np.ndarray:
    gx = rng.standard_normal((px, px + 2))
    gy = rng.standard_normal((py, py + 2))
    v = np.zeros((px + py, px + py))
    v[:px, :px] = gx @ gx.T
    v[px:, px:] = gy @ gy.T
    return v


def white_x_unidirectional(
    rng: np.random.Generator,
    n: int | None = None,
    px: int | None = None,
    py: int | None = None,
) -> ISSModel:
    """x block is white noise whose innovations feed y's states.

    x causes y (the gain columns of x enter the shared state) while y never
    causes x, weakly or instantaneously: the x rows of C are zero and the
    innovation covariance is block diagonal.
    """
    if n is None:
        n = int(rng.integers(1, 5))
    if px is None:
        px = int(rng.integers(1, 3))
    if py is None:
        py = int(rng.integers(1, 3))
    p = px + py
    a = stable_matrix(rng, n, radius=float(rng.uniform(0.3, 0.9)))
    c = np.zeros((p, n))
    c[px:] = rng.standard_normal((py, n))
    k = rng.standard_normal((n, p))
    v = _block_diag_cov(rng, px, py)
    while spectral_radius(a - k @ c) >= 0.95:
        k *= 0.5
    return ISSModel(a, c, k, v, partition=JointPartition(px, py))


def triangular_unidirectional(
    rng: np.random.Generator,
    nx: int = 2,
    ny: int = 2,
    px: int = 1,
    py: int = 1,
) -> ISSModel:
    """Block-lower-triangular transition and gain, block-diagonal C and V.

    y never causes x at the model's own rate (no weak or instantaneous
    causality), but x's states feed y's.
    """
    n = nx + ny
    a = np.zeros((n, n))
    a[:nx, :nx] = rng.standard_normal((nx, nx))
    a[nx:, :nx] = rng.standard_normal((ny, nx))
    a[nx:, nx:] = rng.standard_normal((ny, ny))
    a *= float(rng.uniform(0.3, 0.9)) / max(spectral_radius(a), 1e-12)
    c = np.zeros((px + py, n))
    c[:px, :nx] = rng.standard_normal((px, nx))
    c[px:, nx:] = rng.standard_normal((py, ny))
    k = np.zeros((n, px + py))
    k[:nx, :px] = rng.standard_normal((nx, px))
    k[nx:, :px] = rng.standard_normal((ny, px))
    k[nx:, px:] = rng.standard_normal((ny, py))
    v = _block_diag_cov(rng, px, py)
    while spectral_radius(a - k @ c) >= 0.95:
        k *= 0.5
    return ISSModel(a, c, k, v, partition=JointPartition(px, py))


def toeplitz_innovations(model: ISSModel, m: int, n_lags: int = 250) -> np.ndarray:
    """Innovations covariance of the m-subsampled process by dense factorization.

    Builds the block-Toeplitz covariance of n_lags consecutive subsampled
    observations from exact autocovariances and reads the innovations
    covariance off the last diagonal block of its Cholesky factor.  Pure
    linear algebra, no Riccati recursion; the prediction horizon n_lags
    controls the (geometric) truncation error.
    """
    import ssgc

    acov = ssgc.autocovariance_of_iss(model, m * n_lags)
    p = model.p
    big = np.empty((n_lags * p, n_lags * p))
    for i in range(n_lags):
        for j in range(n_lags):
            big[i * p : (i + 1) * p, j * p : (j + 1) * p] = acov[m * (i - j)]
    chol = np.linalg.cholesky(big)
    last = chol[-p:, -p:]
    return last @ last.T


def own_noise_zeros(joint: ISSModel, direction: str = "y->x") -> np.ndarray:
    """Zeros of det H_e, the own-noise transfer that ``gem_frequency`` rotates.

    H_e(z) = I + C_t (zI - A)^{-1} K_e with K_e = K_t + K_o W and
    W = V_ot V_tt^{-1}, so its zeros are the eigenvalues of A - K_e C_t.
    Each zero outside the unit circle lowers the frequency integral below
    the time-domain measure by 2 ln|zero| (Jensen).
    """
    this, other = joint.require_partition().direction(direction)
    w = np.linalg.solve(joint.V[this, this], joint.V[this, other]).T
    k_e = joint.K[:, this] + joint.K[:, other] @ w
    return np.linalg.eigvals(joint.A - k_e @ joint.C[this])


def instantaneous_gem_canonical(sigma: np.ndarray, partition: JointPartition) -> float:
    """Instantaneous measure by canonical correlations, -sum ln(1 - rho_i^2).

    The rho_i^2 are the eigenvalues of V_y^{-1/2} V_yx V_x^{-1} V_xy V_y^{-1/2};
    an oracle for the determinant form ``instantaneous_gem`` evaluates.
    """
    v = np.asarray(sigma, dtype=float)
    vx = v[partition.x, partition.x]
    vy = v[partition.y, partition.y]
    vxy = v[partition.x, partition.y]
    eigvals, vecs = np.linalg.eigh(vy)
    vy_isqrt = (vecs / np.sqrt(eigvals)) @ vecs.T
    cross = vy_isqrt @ vxy.T @ np.linalg.solve(vx, vxy) @ vy_isqrt
    rho2 = np.clip(np.linalg.eigvalsh(0.5 * (cross + cross.T)), 0.0, None)
    return -float(np.sum(np.log1p(-rho2)))


def pbh_eigenvector(a: np.ndarray, b: np.ndarray, unstable_only: bool = False) -> PbhResult:
    """Eigenvector PBH test, an oracle for the staircase in ``pbh_test``.

    Fails iff some left eigenvector q of a has q^T b = 0 up to scale: one full
    SVD of a^T - lam I per eigenvalue, O(n^4) in all.  With ``unstable_only``
    only eigenvalues of modulus >= 1 - STABILITY_MARGIN are inspected, which
    makes it a stabilizability test.
    """
    n = a.shape[0]
    m = b.shape[1]
    threshold = PBH_TOL * max(1.0, float(np.linalg.norm(b, 2))) if b.size else 0.0
    best = np.inf
    for lam in np.linalg.eigvals(a):
        if unstable_only and abs(lam) < 1.0 - STABILITY_MARGIN:
            continue
        # Left-eigenvector space of a at lam is the null space of a^T - lam I.
        _, sing, vh = np.linalg.svd(a.T.astype(complex) - lam * np.eye(n))
        # Generous null threshold: defective eigenvalues are computed with
        # O(sqrt(eps)) error, so their near-null directions must be kept.
        null_rows = np.flatnonzero(sing <= 1e-8 * max(1.0, sing[0]))
        if len(null_rows) == 0:
            null_rows = np.array([n - 1])
        basis = vh[null_rows].conj().T
        if b.size == 0 or basis.shape[1] > m:
            margin = 0.0
        else:
            margin = float(np.linalg.svd(b.T @ basis, compute_uv=False).min())
        if margin <= threshold:
            return PbhResult(False, complex(lam), margin)
        best = min(best, margin)
    return PbhResult(True, None, best)


def transfer_function_pointwise(model: ISSModel, grid: np.ndarray) -> np.ndarray:
    """H = I + C (e^{j lambda} I - A)^{-1} K by one solve per frequency, an
    oracle for ``ISSModel.frequency_response``."""
    eye_n, eye_p = np.eye(model.n), np.eye(model.p)
    return np.array([
        eye_p + model.C @ np.linalg.solve(np.exp(1j * lam) * eye_n - model.A, model.K)
        for lam in grid
    ])


def riccati_loop(
    a: np.ndarray,
    c: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10**6,
    p0: np.ndarray | None = None,
    keep_history: bool = False,
):
    """Run the plain Riccati recursion from p0 (zero by default), one step at
    a time, an oracle for ``riccati_fixed_point``.

    Returns (P, K, V, iterations, residual, history).  Convergence is declared
    when ||P_{t+1} - P_t||_F <= tol * max(1, ||P_{t+1}||_F).  Raises ValueError
    unless tol is finite and positive and max_iter a non-negative integer,
    PreconditionError if some iterate's innovation covariance fails its
    Cholesky factorization and ConvergenceError when the budget is exhausted.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if not _is_int(max_iter) or max_iter < 0:
        raise ValueError("max_iter must be a non-negative integer")
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
