"""Point-sampling of ISS models at rate m."""

import time

import numpy as np
import pytest

from ssgc import autocovariance_of_iss, downsample_iss, validate_iss

from support import (
    bivariate_var,
    random_iss,
    toeplitz_innovations,
    triangular_unidirectional,
    white_x_unidirectional,
)


def test_autocovariance_subsampling_identity():
    """The downsampled model's lag-k autocovariance is the original's lag mk."""
    rng = np.random.default_rng(30)
    for _ in range(10):
        mdl = random_iss(rng)
        acov = autocovariance_of_iss(mdl, 10 * 5)
        for m in (2, 3, 5):
            down = downsample_iss(mdl, m)
            dcov = autocovariance_of_iss(down, 10)
            for k in range(11):
                scale = max(1.0, np.abs(acov[m * k]).max())
                assert np.abs(dcov[k] - acov[m * k]).max() < 1e-8 * scale


def test_unit_factor_returns_model_unchanged():
    rng = np.random.default_rng(31)
    mdl = random_iss(rng)
    assert downsample_iss(mdl, 1) is mdl


def test_huge_factors_reach_the_white_noise_limit_fast():
    """A^m, Q_m and S_m are formed by squaring, so the time grows with log m:
    at m = 2^40 and 10^12 + 7 a stable A^m is 0, and the sampled process is
    white with V = Gamma(0)."""
    mdl = bivariate_var(np.random.default_rng(36), 2)
    gamma0 = autocovariance_of_iss(mdl, 0)[0]
    for m in (2**40, 10**12 + 7):
        started = time.perf_counter()
        down = downsample_iss(mdl, m)
        assert time.perf_counter() - started < 1.0
        assert not down.A.any() and not down.K.any()
        assert np.abs(down.V - gamma0).max() < 1e-12


def test_factor_must_be_positive_integer():
    rng = np.random.default_rng(32)
    mdl = random_iss(rng)
    for bad in (0, -2, 2.5, True):
        with pytest.raises(ValueError):
            downsample_iss(mdl, bad)


def test_downsampled_model_is_valid_and_keeps_partition():
    rng = np.random.default_rng(33)
    mdl = random_iss(rng)
    down = downsample_iss(mdl, 4)
    assert validate_iss(down).passed
    assert down.partition == mdl.partition
    assert down.n == mdl.n and down.p == mdl.p


def test_sampling_composes():
    """Sampling by 2 then by 3 is sampling by 6."""
    rng = np.random.default_rng(34)
    for _ in range(5):
        mdl = random_iss(rng)
        once = downsample_iss(mdl, 6)
        twice = downsample_iss(downsample_iss(mdl, 2), 3)
        assert np.abs(once.A - twice.A).max() < 1e-9
        scale = max(1.0, np.abs(once.V).max())
        assert np.abs(once.V - twice.V).max() < 1e-8 * scale
        assert np.abs(once.K - twice.K).max() < 1e-7


def test_innovation_covariance_matches_dense_factorization():
    """Ground truth without any Riccati machinery: factor the block-Toeplitz
    covariance of the subsampled record and read off the prediction-error
    covariance.  Exercised on a model whose sampled cross block is nonzero,
    so agreement is not a structural accident."""
    rng = np.random.default_rng(35)
    mdl = triangular_unidirectional(rng)
    down = downsample_iss(mdl, 2)
    ref = toeplitz_innovations(mdl, 2)
    assert np.abs(down.V - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())
    # the sampled process really does pick up an instantaneous cross term here
    assert np.abs(down.V[0, 1]) > 1e-3


def test_white_x_cross_block_stays_zero():
    """When the x channels are white and only feed y, sampling cannot create
    feedback into x: the sampled innovation covariance keeps its zero cross
    block and the x block is untouched."""
    rng = np.random.default_rng(36)
    for _ in range(5):
        mdl = white_x_unidirectional(rng)
        px = mdl.partition.px
        for m in (2, 3, 5):
            down = downsample_iss(mdl, m)
            assert np.abs(down.V[:px, px:]).max() <= 1e-10
            assert np.abs(down.V[:px, :px] - mdl.V[:px, :px]).max() <= 1e-10


def test_unstable_model_rejected():
    import ssgc

    mdl = ssgc.ISSModel([[1.05]], [[1.0]], [[0.2]], [[1.0]])
    for m in (1, 2):
        with pytest.raises(ssgc.PreconditionError):
            downsample_iss(mdl, m)
