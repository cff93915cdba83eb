"""Marginal-model extraction and its spectral consistency."""

import numpy as np
import pytest

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
    submodel_spectrum,
    validate_iss,
)

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
            sub_curve = submodel_spectrum(sub, grid)
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
        integral = log_det_spectrum_integral(submodel_spectrum(sub))
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
            got = submodel_spectrum(sub, grid).values
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
