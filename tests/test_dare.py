"""Riccati fixed-point solver: correctness, diagnostics, preconditions."""

import dataclasses
import inspect

import numpy as np
import pytest
import scipy.linalg

import ssgc.dare
import ssgc.model
from ssgc import (
    ConvergenceError,
    DareSolution,
    PreconditionError,
    allpass_decompose,
    apply_fir_filter,
    extract_submodel,
    gc_classify,
    riccati_fixed_point,
    solve_dare,
    spectral_radius,
)
from ssgc.model import SSModel

from support import BAD_MATRICES, hrf_filtered_references, random_ss, riccati_loop, shifted_pair


def scalar_fixed_point(a, c, q, r, s):
    """Stabilizing root of the scalar Riccati quadratic, for oracle use."""
    coeffs = [c * c, r + 2 * a * c * s - a * a * r - q * c * c, s * s - q * r]
    for p in np.roots(coeffs):
        if abs(p.imag) > 1e-12 or p.real < -1e-12:
            continue
        p = float(p.real)
        k = (a * p * c + s) / (c * c * p + r)
        if abs(a - k * c) < 1.0:
            return p
    raise AssertionError("no stabilizing root found")


def test_solve_dare_takes_one_start_pass(monkeypatch):
    """The P = 0 gain pass is formed once per model, for the precondition
    check and the core's start; a pass whose Cholesky fails stores nothing."""
    starts = []
    real = ssgc.dare._gain_pass

    def gain_pass(a, c, q, r, s, p, iterations):
        if p is None:
            starts.append(a)
        return real(a, c, q, r, s, p, iterations)

    monkeypatch.setattr(ssgc.dare, "_gain_pass", gain_pass)
    model = random_ss(np.random.default_rng(16))
    want = riccati_fixed_point(dataclasses.replace(model))
    assert len(starts) == 1
    got = solve_dare(model)
    assert len(starts) == 2
    assert np.array_equal(got.P, want.P) and np.array_equal(got.K, want.K)
    bad = dataclasses.replace(model, R=-model.R)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="innovation covariance"):
            riccati_fixed_point(bad)
    assert len(starts) == 4


def test_matches_scalar_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = float(rng.uniform(-0.9, 0.9))
        c = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        g = rng.standard_normal(3)
        h = rng.standard_normal(3)
        q, r, s = float(g @ g), float(h @ h), float(g @ h)
        sol = solve_dare(SSModel([[a]], [[c]], [[q]], [[r]], [[s]]))
        expected = scalar_fixed_point(a, c, q, r, s)
        assert sol.P[0, 0] == pytest.approx(expected, rel=1e-10)


def test_degenerate_scalar_cases_are_exact():
    # zero state noise: nothing to estimate
    sol = solve_dare(SSModel([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]))
    assert abs(sol.P[0, 0]) <= 1e-14
    assert abs(sol.K[0, 0]) <= 1e-14
    assert sol.V[0, 0] == pytest.approx(1.0, abs=1e-14)

    # A = 0 removes the quadratic term: P = Q, V = R + Q
    q, r = 1.7, 0.4
    sol = solve_dare(SSModel([[0.0]], [[1.0]], [[q]], [[r]], [[0.0]]))
    assert sol.P[0, 0] == pytest.approx(q, abs=1e-14)
    assert abs(sol.K[0, 0]) <= 1e-14
    assert sol.V[0, 0] == pytest.approx(r + q, abs=1e-14)


def test_matches_scipy_dare():
    """The filter-form solution is the control-form solution of the dual."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        mdl = random_ss(rng)
        sol = solve_dare(mdl)
        ref = scipy.linalg.solve_discrete_are(
            mdl.A.T, mdl.C.T, mdl.Q, mdl.R, s=mdl.S
        )
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(sol.P - ref).max() < 1e-8 * scale


def test_solution_is_stabilizing_with_small_residual():
    rng = np.random.default_rng(13)
    for _ in range(30):
        mdl = random_ss(rng)
        sol = solve_dare(mdl)
        assert spectral_radius(mdl.A - sol.K @ mdl.C) < 1.0
        assert sol.residual <= 1e-10
        np.linalg.cholesky(sol.V)  # must be positive definite
        assert np.allclose(sol.P, sol.P.T)
        # gain and covariance are consistent with the returned P
        v_direct = mdl.R + mdl.C @ sol.P @ mdl.C.T
        assert np.abs(sol.V - v_direct).max() < 1e-12 * max(1.0, np.abs(sol.V).max())


def test_iterates_grow_monotonically_from_zero():
    rng = np.random.default_rng(14)
    mdl = random_ss(rng, n=3, px=1, py=1)
    sol = solve_dare(mdl, keep_history=True)
    assert len(sol.history) == sol.iterations + 1
    assert np.allclose(sol.history[0], 0.0)
    scale = max(1.0, np.abs(sol.P).max())
    for prev, nxt in zip(sol.history, sol.history[1:]):
        step_min = np.linalg.eigvalsh(nxt - prev).min()
        assert step_min >= -1e-9 * scale


def test_history_off_by_default():
    rng = np.random.default_rng(15)
    sol = solve_dare(random_ss(rng))
    assert sol.history == ()


def test_rejects_indefinite_r():
    mdl = SSModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(PreconditionError, match="R is not positive definite"):
        solve_dare(mdl)


def test_rejects_indefinite_joint_noise():
    # Q R - S^2 < 0 makes the stacked covariance indefinite.
    mdl = SSModel([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[2.0]])
    with pytest.raises(PreconditionError, match="not PSD"):
        solve_dare(mdl)


def test_rejects_unstabilizable_pair():
    # No state noise and unstable A: the error dynamics cannot be tamed.
    mdl = SSModel([[1.5]], [[0.0]], [[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(PreconditionError, match="St violated"):
        solve_dare(mdl)


@pytest.mark.filterwarnings("error")
def test_rejects_undetectable_pair():
    a = np.diag([1.5, 0.2])
    c = np.array([[0.0, 1.0]])  # unstable mode invisible
    q = np.eye(2)
    mdl = SSModel(a, c, q, [[1.0]], np.zeros((2, 1)))
    with pytest.raises(PreconditionError, match="De violated"):
        solve_dare(mdl)
    # Unchecked, P_{2^k} grows like 1.5^(2^(k+1)) until its norm overflows.
    with pytest.raises(ConvergenceError, match="diverged at step 10"):
        riccati_fixed_point(mdl)


def test_unreachable_unit_root_is_named_at_every_angle():
    """State 0 of A0 is a unit root no noise reaches.  In a rotated basis Q_s
    has a rounding-level eigenvalue (about 1e-17) whose square root would
    clear the staircase floor; St must count it as zero at every angle."""
    a0, c0, q0 = np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 0.3]]), np.diag([0.0, 1.0])
    for deg in range(90):
        cos, sin = np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))
        t = np.array([[cos, -sin], [sin, cos]])
        mdl = SSModel(t @ a0 @ t.T, c0 @ t.T, t @ q0 @ t.T, [[1.0]], np.zeros((2, 1)))
        with pytest.raises(PreconditionError, match="St violated"):
            solve_dare(mdl)


def undriven_model(rng, lam, unseen):
    """Random model whose state 0 is the mode lam, fed by no noise and no other
    state (and, when ``unseen``, not seen by C), in a random orthonormal basis."""
    n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    a = rng.standard_normal((n, n))
    a *= 0.8 / max(spectral_radius(a[1:, 1:]), 1e-3)
    a[0] = 0.0
    a[0, 0] = lam
    c = rng.standard_normal((p, n))
    if unseen:
        c[:, 0] = 0.0
    g = rng.standard_normal((n + p, n + p))
    g[0] = 0.0
    cov = g @ g.T + np.diag(np.r_[np.zeros(n), np.ones(p)])
    t = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return SSModel(t @ a @ t.T, c @ t.T, t @ cov[:n, :n] @ t.T, cov[n:, n:], t @ cov[:n, n:])


def test_planted_undriven_modes_are_named():
    """solve_dare names St for every planted undriven mode of modulus >= 1;
    the core alone returns or fails by name, a singular doubling step too."""
    rng = np.random.default_rng(1)
    singular = 0
    for i in range(1500):
        lam = (1.0, -1.0, 1.0 + 1e-9, 1.2, -1.7)[i % 5]
        mdl = undriven_model(rng, lam, unseen=(i // 5) % 2 == 1)
        with pytest.raises(PreconditionError, match="St violated"):
            solve_dare(mdl)
        try:
            riccati_fixed_point(mdl)
        except PreconditionError:
            pass
        except ConvergenceError as exc:
            singular += isinstance(exc.__cause__, np.linalg.LinAlgError)
    assert singular > 0


def test_iteration_budget_enforced(monkeypatch):
    rng = np.random.default_rng(16)
    monkeypatch.setattr(ssgc.model, "_MAX_DOUBLINGS", 3)
    with pytest.raises(ConvergenceError):
        solve_dare(random_ss(rng, n=4))


def test_budget_is_counted_in_doubling_steps(monkeypatch):
    """Two steps reach P_2 only; a slow scalar solve (about 13 steps) names
    its budget in steps when that is all it gets."""
    mdl = SSModel([[0.9999]], [[1.0]], [[1e-4]], [[1.0]], [[0.005]])
    assert solve_dare(mdl).iterations <= 20
    monkeypatch.setattr(ssgc.model, "_MAX_DOUBLINGS", 2)
    with pytest.raises(ConvergenceError, match="in 2 steps"):
        solve_dare(mdl)


def test_entry_points_take_no_budget_options():
    """The one budget and tolerance are constants of the core: no entry
    point takes a tol or max_iter, so no caller can make a solve run longer;
    gc_classify's threshold is a constant too."""
    entries = (riccati_fixed_point, solve_dare, apply_fir_filter, allpass_decompose, gc_classify)
    for entry in entries:
        params = inspect.signature(entry).parameters
        assert "tol" not in params and "max_iter" not in params


def test_doubling_iterates_are_the_loops_powers_of_two():
    """history[j] of solve_dare is P_{2^(j-1)} of the zero-started recursion."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        mdl = random_ss(rng)
        sol = solve_dare(mdl, keep_history=True)
        *_, loop = riccati_loop(mdl.A, mdl.C, mdl.Q, mdl.R, mdl.S, keep_history=True)
        assert len(sol.history) == sol.iterations + 1
        assert not sol.history[0].any()
        np.testing.assert_allclose(sol.history[1], shifted_pair(mdl)[1], rtol=1e-14, atol=1e-14)
        compared = 0
        for j in range(1, len(sol.history)):
            if 2 ** (j - 1) >= len(loop):
                break
            ref = loop[2 ** (j - 1)]
            assert np.linalg.norm(sol.history[j] - ref) <= 1e-10 * np.linalg.norm(ref)
            compared += 1
        assert compared >= 3


def test_recorded_stall_takes_a_few_doublings():
    """The x-submodel of HRF-filtered NEAR_ONE_SIDED took 4839 fixed-point
    steps, stalling near its tolerance; doubling reaches the same K and V, on
    the full state and on the states x reads (the VAR state and x's register)."""
    joint = hrf_filtered_references()[2]
    sub = extract_submodel(joint, "x")
    kept = np.r_[0:2, 2:66:2]
    assert np.array_equal(sub.A, joint.A[np.ix_(kept, kept)])
    kv = joint.K @ joint.V
    q = kv @ joint.K.T
    marginal = SSModel(joint.A, joint.C[:1], 0.5 * (q + q.T), joint.V[:1, :1], kv[:, :1])
    full = solve_dare(marginal)
    assert full.iterations <= 10
    _, k, v, *_ = riccati_loop(
        marginal.A, marginal.C, marginal.Q, marginal.R, marginal.S
    )
    for got_k, got_v, want_k in ((full.K, full.V, k), (sub.K, sub.V, k[kept])):
        assert np.linalg.norm(got_k - want_k) <= 1e-10 * np.linalg.norm(want_k)
        assert np.linalg.norm(got_v - v) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("a", [0.9999, 1.0 - 1e-7])
@pytest.mark.parametrize(
    "c, q, r, s",
    [(1.0, 1.0, 1.0, 0.0), (1.0, 1e-4, 1.0, 0.005), (0.5, 1e-6, 2.0, 0.0)],
    ids=["fast", "slow", "slowest"],
)
def test_near_unit_root_scalar(a, c, q, r, s):
    """Closed-loop radius up to 0.9996: thousands of fixed-point steps, a
    few more doublings."""
    sol = solve_dare(SSModel([[a]], [[c]], [[q]], [[r]], [[s]]))
    assert sol.P[0, 0] == pytest.approx(scalar_fixed_point(a, c, q, r, s), rel=1e-9)
    assert abs(a - sol.K[0, 0] * c) < 1.0


@pytest.mark.parametrize("r, s_scale", [(1.0, 0.0), (2.0, 0.5)])
def test_defective_shift_register_matches_scipy(r, s_scale):
    """J_6(0.95), one Jordan block, driven at its first state and seen at its
    last, as in an FIR shift register."""
    n = 6
    a = 0.95 * np.eye(n) + np.eye(n, k=-1)
    c = np.zeros((1, n))
    c[0, -1] = 1.0
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    mdl = SSModel(a, c, b @ b.T, [[r]], s_scale * b)
    sol = solve_dare(mdl)
    ref = scipy.linalg.solve_discrete_are(a.T, c.T, mdl.Q, mdl.R, s=mdl.S)
    assert np.abs(sol.P - ref).max() <= 1e-10 * np.abs(ref).max()
    assert spectral_radius(a - sol.K @ c) < 1.0


def test_stable_a_with_unstable_a_s(monkeypatch):
    """A stable, A_s = A - S R^{-1} C unstable: the doubling starts from an
    unstable A_0 and still reaches the stabilizing solution.  Q_s is positive
    definite, so its root alone reaches every state and St needs no PBH
    staircase: the one test solve_dare runs is De's, and P is the core's."""
    modes = []
    pbh = ssgc.dare.pbh_test
    monkeypatch.setattr(ssgc.dare, "pbh_test", lambda a, b, mode: modes.append(mode) or pbh(a, b, mode))
    mdl = SSModel([[0.5]], [[1.0]], [[1.5]], [[1.0]], [[-1.0]])  # A_s = 1.5, Q_s = 0.5
    sol = solve_dare(mdl)
    assert modes == ["detectable"]
    assert np.array_equal(sol.P, riccati_fixed_point(mdl).P)
    assert sol.P[0, 0] == pytest.approx(scalar_fixed_point(0.5, 1.0, 1.5, 1.0, -1.0), rel=1e-12)
    assert abs(0.5 - sol.K[0, 0]) < 1.0

    rng = np.random.default_rng(20)
    unstable = 0
    for _ in range(100):
        mdl = random_ss(rng)
        if spectral_radius(shifted_pair(mdl)[0]) < 1.0:
            continue
        unstable += 1
        modes.clear()
        sol = solve_dare(mdl)
        assert modes == ["detectable"]
        ref = scipy.linalg.solve_discrete_are(mdl.A.T, mdl.C.T, mdl.Q, mdl.R, s=mdl.S)
        assert np.abs(sol.P - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())
        assert spectral_radius(mdl.A - sol.K @ mdl.C) < 1.0
    assert unstable >= 10


def test_core_reads_its_model_and_start_once():
    """The core takes an SSModel, so nested lists enter through its reader
    and a NaN Q is named there, not met as a ConvergenceError; its start p0
    is read by the one array rule and named."""
    mdl = SSModel([[0.0]], [[1.0]], [[4.0]], [[1.0]], [[2.0]])
    assert riccati_fixed_point(mdl, p0=[[4.0]]).P[0, 0] == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError, match="^Q contains non-finite entries"):
        SSModel([[0.5]], [[1.0]], [[np.nan]], [[1.0]], [[0.0]])
    for bad, message in (*BAD_MATRICES, (np.eye(2), r"must have shape \(1, 1\)")):
        with pytest.raises(ValueError, match=f"^p0 {message}"):
            riccati_fixed_point(mdl, p0=bad)


def test_warm_start_reaches_stabilizing_branch():
    """A pure moving-average factorization has two fixed points; starting at
    the state covariance selects the stabilizing one, starting at zero the
    other."""
    # state = 2 e_{t-1}: A = 0, C = 1, Q = 4, R = 1, S = 2
    a, c, q, r, s = (np.zeros((1, 1)), np.ones((1, 1)), np.full((1, 1), 4.0),
                     np.ones((1, 1)), np.full((1, 1), 2.0))
    mdl = SSModel(a, c, q, r, s)

    p0, k0, *_ = riccati_fixed_point(mdl)
    assert p0[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert abs(0.0 - k0[0, 0] * 1.0) > 1.0  # non-stabilizing branch

    sol = riccati_fixed_point(mdl, p0=q)
    fields = ("P", "K", "V", "iterations", "residual", "history")
    assert isinstance(sol, DareSolution) and len(sol) == len(fields)
    assert all(getattr(sol, f) is entry for f, entry in zip(fields, sol))
    p, k, v, _, residual, _ = sol
    assert p[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert k[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert v[0, 0] == pytest.approx(4.0, abs=1e-9)
    assert residual < 1e-9
