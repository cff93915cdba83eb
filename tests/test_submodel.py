"""Marginal-model extraction and its spectral consistency."""

import numpy as np
import pytest

import ssgc.dare
import ssgc.submodel
from ssgc import (
    FirFilter,
    ISSModel,
    JointPartition,
    PreconditionError,
    SpectralCurve,
    SSModel,
    apply_fir_filter,
    default_grid,
    downsample_iss,
    extract_submodel,
    gem_time_domain,
    log_det_spectrum_integral,
    solve_dare,
    spectrum_of_iss,
    validate_iss,
)
from ssgc.model import _logdet_pd

from support import (
    bivariate_var,
    feasible_designs,
    hrf_filtered_references,
    random_iss,
    reference_models,
)


def _full_state_solve(joint, block):
    """The block's marginal Riccati solve on every state of the joint model."""
    idx = joint.require_partition().block(block)
    kv = joint.K @ joint.V
    return solve_dare(SSModel(joint.A, joint.C[idx], kv @ joint.K.T, joint.V[idx, idx], kv[:, idx]))


def _assert_matches_full_state_solve(sub, joint, block, tol):
    want = _full_state_solve(joint, block)
    assert np.abs(sub.K - want.K).max() <= tol * np.abs(want.K).max()
    assert np.abs(sub.V - want.V).max() <= tol * np.abs(want.V).max()


def _solved_state_counts(monkeypatch, joint):
    """State counts of the Riccati solves behind the x and y submodels."""
    counts = []

    def recording_solve(model, *args, **kwargs):
        counts.append(model.A.shape[0])
        return ssgc.dare.solve_dare(model, *args, **kwargs)

    monkeypatch.setattr(ssgc.submodel, "solve_dare", recording_solve)
    subs = [extract_submodel(joint, block) for block in ("x", "y")]
    monkeypatch.undo()
    return counts, subs


def _min_phase_filtered_references():
    filt = FirFilter.block_scalar([1.0, 0.3, -0.2], [1.0, -0.25, 0.1], JointPartition(1, 1))
    return [apply_fir_filter(model, filt) for model in reference_models()]


def test_submodel_spectrum_matches_joint_block():
    """The marginal model's spectrum must equal the corresponding block of the
    joint spectrum: both describe the same scalar-process second moments."""
    rng = np.random.default_rng(20)
    grid = default_grid(512)
    for _ in range(15):
        joint = random_iss(rng)
        part = joint.require_partition()
        joint_curve = spectrum_of_iss(joint, grid)
        for block, sl in (("x", part.x), ("y", part.y)):
            sub = extract_submodel(joint, block)
            sub_curve = spectrum_of_iss(sub, grid)
            ref = joint_curve.values[:, sl, sl]
            scale = np.abs(ref).max()
            assert np.abs(sub_curve.values - ref).max() < 1e-7 * scale


def test_submodel_is_valid_iss():
    rng = np.random.default_rng(21)
    for _ in range(10):
        sub = extract_submodel(random_iss(rng), "x")
        assert validate_iss(sub).passed
        assert sub.partition is None


def test_log_det_integral_recovers_innovation_covariance():
    """Szego/Kolmogorov identity: the mean log determinant of the spectrum
    equals ln det of the innovation covariance."""
    rng = np.random.default_rng(22)
    for _ in range(10):
        joint = random_iss(rng)
        sub = extract_submodel(joint, "y")
        integral = log_det_spectrum_integral(spectrum_of_iss(sub))
        _, expected = np.linalg.slogdet(sub.V)
        assert integral == pytest.approx(expected, abs=1e-8)


def test_log_det_integral_rejects_curves_that_are_not_positive_definite():
    # diag(-1e-12, -1e-12) passes the curve's PSD tolerance and has a
    # positive determinant, yet is negative definite.
    negative = SpectralCurve(np.array([0.0]), np.diag([-1e-12, -1e-12])[None])
    with pytest.raises(ValueError, match="not positive definite"):
        log_det_spectrum_integral(negative)
    scalar = SpectralCurve(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(PreconditionError):
        log_det_spectrum_integral(scalar)
    grid = default_grid(8)
    assert log_det_spectrum_integral(SpectralCurve(grid, np.full(8, 2.0))) == pytest.approx(
        np.log(2.0), abs=1e-15
    )
    # NaN and inf pass numpy's Cholesky: the curve rejects them, and so does the
    # one log-det rule it would reach.
    for bad in (np.nan, np.inf):
        for values in (np.full(8, bad), np.full((8, 1, 1), bad)):
            with pytest.raises(ValueError, match="^values contain non-finite entries$"):
                log_det_spectrum_integral(SpectralCurve(grid, values))
        with pytest.raises(PreconditionError, match="^f is not positive definite"):
            _logdet_pd(np.full((8, 1, 1), bad), "f")


def test_marginal_variance_never_below_joint():
    # One-step prediction from fewer channels cannot be better.
    rng = np.random.default_rng(23)
    for _ in range(10):
        joint = random_iss(rng)
        part = joint.require_partition()
        omega = extract_submodel(joint, "x").V
        vx = joint.V[part.x, part.x]
        assert np.linalg.slogdet(omega)[1] >= np.linalg.slogdet(vx)[1] - 1e-12


def test_extraction_requires_partition_and_known_block():
    rng = np.random.default_rng(24)
    joint = random_iss(rng)
    bare = ISSModel(joint.A, joint.C, joint.K, joint.V)
    with pytest.raises(ValueError):
        extract_submodel(bare, "x")
    with pytest.raises(ValueError, match="block must be 'x' or 'y'"):
        extract_submodel(joint, "z")


def test_white_joint_model_extracts_white_marginal():
    v = np.array([[1.0, 0.5], [0.5, 2.0]])
    joint = ISSModel(np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((1, 2)), v,
                     partition=JointPartition(1, 1))
    sub = extract_submodel(joint, "x")
    assert sub.V[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_indefinite_innovation_covariance_is_a_named_error():
    # symmetric but indefinite V: no process has it as innovation covariance
    joint = ISSModel(np.array([[0.5]]), np.array([[1.0], [0.0]]), np.array([[0.2, 0.1]]),
                     np.array([[1.0, 2.0], [2.0, 1.0]]), partition=JointPartition(1, 1))
    with pytest.raises(PreconditionError):
        extract_submodel(joint, "x")
    with pytest.raises(PreconditionError):
        gem_time_domain(joint)


@pytest.mark.parametrize(
    "models, kept",
    [(hrf_filtered_references, 34), (_min_phase_filtered_references, 4)],
    ids=["hrf", "minimum-phase"],
)
def test_filtered_submodels_drop_the_other_blocks_register(models, kept):
    """A block never reads the other block's filter register: the submodel keeps
    the VAR state and its own register, with the full-state V and the joint
    block spectrum."""
    grid = default_grid(512)
    for joint in models():
        part = joint.require_partition()
        joint_curve = spectrum_of_iss(joint, grid)
        for block in ("x", "y"):
            sub = extract_submodel(joint, block)
            assert sub.n == kept < joint.n
            want = _full_state_solve(joint, block).V
            assert np.abs(sub.V - want).max() <= 1e-12 * np.abs(want).max()
            ref = joint_curve.values[:, part.block(block), part.block(block)]
            got = spectrum_of_iss(sub, grid).values
            assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()


def test_submodels_that_read_every_state_solve_on_the_full_state():
    """Designed VAR(1), companion VAR and downsampled VAR(1) outputs read every
    state: nothing is dropped and V is the full-state solve's, bit for bit."""
    rng = np.random.default_rng(25)
    designs = [model.to_iss() for _, model in feasible_designs(rng, 10)]
    joints = designs + [bivariate_var(rng, lags) for lags in (2, 5)]
    joints += [downsample_iss(joint, m) for joint in designs[:4] for m in (2, 5)]
    for joint in joints:
        for block in ("x", "y"):
            sub = extract_submodel(joint, block)
            assert sub.n == joint.n
            assert np.array_equal(sub.V, _full_state_solve(joint, block).V)


def test_submodel_module_solves_through_the_public_dare_binding():
    # bench/tracing.py times the dare layer by wrapping this name.
    assert ssgc.submodel.solve_dare is ssgc.dare.solve_dare


@pytest.mark.parametrize("lags", [10, 40, 80])
def test_companion_submodels_are_zero_on_the_blocks_own_lags(lags):
    """The full-state Riccati solution of each block has rank n/2: the block's
    own lags are known from its past.  The submodel solves on the other n/2
    states and rebuilds K and Omega of the full-state solve."""
    joint = bivariate_var(np.random.default_rng(26), lags)
    for block in ("x", "y"):
        assert np.linalg.matrix_rank(_full_state_solve(joint, block).P) == joint.n // 2
        sub = extract_submodel(joint, block)
        assert sub.n == joint.n
        _assert_matches_full_state_solve(sub, joint, block, 1e-13)


def test_designed_var1_submodels_match_the_full_state_solve():
    rng = np.random.default_rng(27)
    for _, model in feasible_designs(rng, 200):
        joint = model.to_iss()
        for block in ("x", "y"):
            _assert_matches_full_state_solve(extract_submodel(joint, block), joint, block, 1e-13)


def test_known_states_are_left_out_of_the_solve_only_where_the_past_fixes_them(monkeypatch):
    """Companions solve on n/2 states; downsampled VAR(1) and filtered models
    have no known states and solve on every state they read."""
    rng = np.random.default_rng(28)
    companions = [bivariate_var(rng, lags) for lags in (1, 3, 10)]
    designs = [model.to_iss() for _, model in feasible_designs(rng, 4)]
    for joint in companions + designs:
        assert _solved_state_counts(monkeypatch, joint)[0] == [joint.n // 2] * 2
    for joint in companions[:1] + designs:
        for m in (2, 3):
            down = downsample_iss(joint, m)
            assert _solved_state_counts(monkeypatch, down)[0] == [down.n] * 2
    for joint in _min_phase_filtered_references():
        assert _solved_state_counts(monkeypatch, joint)[0] == [4, 4]
    for joint in hrf_filtered_references():
        assert _solved_state_counts(monkeypatch, joint)[0] == [34, 34]


def test_block_that_no_other_innovation_enters_has_its_own_innovations(monkeypatch):
    # y never enters the x equation: x's lags are all it reads, and all are known.
    joint = bivariate_var(np.random.default_rng(29), 3, one_sided=True)
    counts, (sub_x, _) = _solved_state_counts(monkeypatch, joint)
    assert counts == [0, 3]
    assert np.array_equal(sub_x.V, joint.V[:1, :1])
    assert np.abs(sub_x.V - _full_state_solve(joint, "x").V).max() <= 1e-13 * joint.V[0, 0]


def test_state_permuted_companion_is_still_reduced(monkeypatch):
    joint = bivariate_var(np.random.default_rng(30), 6)
    perm = np.random.default_rng(31).permutation(joint.n)
    permuted = ISSModel(joint.A[np.ix_(perm, perm)], joint.C[:, perm], joint.K[perm], joint.V,
                        partition=joint.partition)
    counts, subs = _solved_state_counts(monkeypatch, permuted)
    assert counts == [joint.n // 2] * 2
    for block, sub in zip(("x", "y"), subs):
        _assert_matches_full_state_solve(sub, permuted, block, 1e-13)


def test_state_with_an_own_block_gain_is_known(monkeypatch):
    """Give x's second lag the own-block gain 0.7 and the row e_0 + 0.7 C_x of
    A: its filter-form row is still e_0, so it and the lag after it are known,
    and the x solve runs on n/2 states with the full-state K and Omega."""
    joint = bivariate_var(np.random.default_rng(33), 3)
    a, k = joint.A.copy(), joint.K.copy()
    a[2] = np.eye(joint.n)[0] + 0.7 * joint.C[0]
    k[2, 0] = 0.7
    changed = ISSModel(a, joint.C, k, joint.V, partition=joint.partition)
    counts, subs = _solved_state_counts(monkeypatch, changed)
    assert counts == [joint.n // 2] * 2
    for block, sub in zip(("x", "y"), subs):
        _assert_matches_full_state_solve(sub, changed, block, 1e-13)


@pytest.mark.parametrize("perturbation", ["A one ulp", "K other block"])
def test_inexact_copy_state_takes_the_full_path(monkeypatch, perturbation):
    """State 0 copies x only when its rows of A and K match exactly: one ulp in
    A, or a gain from y's innovation, leaves the x solve on every state."""
    joint = bivariate_var(np.random.default_rng(32), 4)
    a, k = joint.A.copy(), joint.K.copy()
    if perturbation == "A one ulp":
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
    else:
        k[0, 1] = 1e-3
    changed = ISSModel(a, joint.C, k, joint.V, partition=joint.partition)
    counts, subs = _solved_state_counts(monkeypatch, changed)
    assert counts == [joint.n, joint.n // 2]
    for block, sub in zip(("x", "y"), subs):
        _assert_matches_full_state_solve(sub, changed, block, 1e-12)


def test_downsampled_var_keeps_copies_of_its_last_sample(monkeypatch):
    """A VAR(3) sampled every 2nd step carries its last sample in states 2 and
    3 (the state x[2k + 2] holds z[2k]), whose gain rows are e_x and e_y in
    exact arithmetic.  Set to those values, they are copy states, and each
    submodel still matches the full-state solve."""
    down = downsample_iss(bivariate_var(np.random.default_rng(28), 3), 2)
    assert np.array_equal(down.A[2:4], down.C)
    assert np.abs(down.K[2:4] - np.eye(2)).max() < 1e-12
    k = down.K.copy()
    k[2:4] = np.eye(2)
    joint = ISSModel(down.A, down.C, k, down.V, partition=down.partition)
    counts, subs = _solved_state_counts(monkeypatch, joint)
    assert counts == [5, 5]
    for block, sub in zip(("x", "y"), subs):
        _assert_matches_full_state_solve(sub, joint, block, 1e-13)
