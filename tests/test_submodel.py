"""Marginal-model extraction and its spectral consistency."""

import numpy as np
import pytest

from ssgc import (
    ISSModel,
    JointPartition,
    PreconditionError,
    SpectralCurve,
    default_grid,
    extract_submodel,
    gem_time_domain,
    log_det_spectrum_integral,
    spectrum_of_iss,
    submodel_spectrum,
    validate_iss,
)

from support import random_iss


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
