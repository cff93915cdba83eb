"""Causality measures: time domain, frequency domain, classification, tests."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

import ssgc.model

from ssgc import (
    GemSummary,
    ISSModel,
    JointPartition,
    PreconditionError,
    chi2_test,
    default_grid,
    gc_classify,
    gem_frequency,
    gem_time_domain,
    instantaneous_gem,
    spectrum_of_iss,
)

from support import (
    BAD_GRIDS,
    BAD_MATRICES,
    bivariate_var,
    instantaneous_gem_canonical,
    random_iss,
    transfer_function_pointwise,
    triangular_unidirectional,
    white_x_unidirectional,
)


def test_measures_decompose_and_are_nonnegative():
    rng = np.random.default_rng(40)
    for _ in range(30):
        g = gem_time_domain(random_iss(rng))
        for v in (g.fyx, g.fxy, g.fydx, g.fxoy):
            assert type(v) is float
            assert v >= -1e-12
        assert abs(g.fxoy - (g.fyx + g.fxy + g.fydx)) <= 1e-10


def test_summary_container_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        GemSummary(-0.5, 0.1, 0.1, -0.3)
    with pytest.raises(ValueError):
        GemSummary(0.1, 0.1, 0.1, 0.9)  # parts do not add up
    with pytest.raises(ValueError):
        GemSummary(np.nan, 0.0, 0.0, np.nan)


def test_instantaneous_measure_closed_form():
    part = JointPartition(1, 1)
    for rho in (0.0, 0.3, -0.7, 0.95):
        v = np.array([[1.0, rho], [rho, 1.0]])
        expected = -np.log1p(-(rho**2))
        value = instantaneous_gem(v, part)
        assert type(value) is float
        assert value == pytest.approx(expected, abs=1e-12)


def test_instantaneous_measure_input_checks():
    part = JointPartition(1, 1)
    with pytest.raises(ValueError):
        instantaneous_gem(np.eye(3), part)
    with pytest.raises(PreconditionError):
        instantaneous_gem(np.array([[1.0, 1.0], [1.0, 1.0]]), part)  # singular
    skew = np.array([[1.0, 0.9], [-0.9, 1.0]])  # not averaged to the identity
    for bad, message in BAD_MATRICES + ((skew, "must be symmetric"),):
        with pytest.raises(ValueError, match=f"^sigma {message}"):
            instantaneous_gem(bad, part)


def test_instantaneous_measure_matches_canonical_correlations():
    rng = np.random.default_rng(42)
    for _ in range(24):
        px, py = (int(d) for d in rng.integers(1, 3, size=2))
        g = rng.standard_normal((px + py, px + py + 2))
        v = g @ g.T
        part = JointPartition(px, py)
        assert instantaneous_gem(v, part) == pytest.approx(
            instantaneous_gem_canonical(v, part), abs=1e-10
        )


def test_instantaneous_invariant_to_within_block_mixing():
    """Canonical correlations do not change under invertible transforms of
    each block separately."""
    rng = np.random.default_rng(41)
    part = JointPartition(2, 2)
    g = rng.standard_normal((4, 6))
    v = g @ g.T
    tx = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    ty = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    t = np.block([[tx, np.zeros((2, 2))], [np.zeros((2, 2)), ty]])
    assert instantaneous_gem(t @ v @ t.T, part) == pytest.approx(
        instantaneous_gem(v, part), abs=1e-10
    )


def test_frequency_integral_recovers_time_domain():
    rng = np.random.default_rng(42)
    grid = default_grid(4096)
    for _ in range(8):
        joint = random_iss(rng)
        g = gem_time_domain(joint)
        fyx = gem_frequency(joint, grid, direction="y->x")
        fxy = gem_frequency(joint, grid, direction="x->y")
        assert fyx.integral == pytest.approx(g.fyx, abs=1e-6)
        assert fxy.integral == pytest.approx(g.fxy, abs=1e-6)
        assert fyx.curve.is_scalar
        assert fyx.curve.values.min() >= -1e-10


def test_grid_wider_than_one_period_is_an_error(monkeypatch):
    """A grid wider than one period, empty, or holding a NaN, is rejected by
    both entry points before the transfer function is evaluated; a one-point
    grid is valid."""
    rng = np.random.default_rng(48)
    joint = random_iss(rng, px=1, py=1)
    nan_grid = default_grid(512)
    nan_grid[100] = np.nan
    bad_grids = [
        (np.linspace(-np.pi, 3 * np.pi, 512, endpoint=False), "one period"),
        (np.array([0.0, 10.0]), "one period"),
        (nan_grid, "non-finite"),
        (np.array([]), "grid must not be empty"),
        ([], "grid must not be empty"),
        *BAD_GRIDS,
    ]
    with monkeypatch.context() as patch:

        def refuse(self, grid):
            raise AssertionError("the transfer function was evaluated")

        patch.setattr(ISSModel, "frequency_response", refuse)
        for grid, message in bad_grids:
            for entry in (gem_frequency, spectrum_of_iss):
                with pytest.raises(ValueError, match=message):
                    entry(joint, grid)
    # A closed grid spanning exactly 2 pi is the closed trapezoid rule: with
    # f(-pi) = f(pi) it equals the open rule on its first 512 points.
    closed = gem_frequency(joint, np.linspace(-np.pi, np.pi, 513))
    assert closed.integral == pytest.approx(gem_frequency(joint, default_grid(512)).integral, abs=1e-12)
    # One point: the curve's value there is its mean, and f = H V H*.
    one = gem_frequency(joint, np.array([0.3]))
    assert one.integral == pytest.approx(one.curve.values[0], abs=1e-15)
    on_512 = gem_frequency(joint, default_grid(512) + 0.3).curve.values
    assert one.integral == pytest.approx(on_512[256], abs=1e-12)
    h = transfer_function_pointwise(joint, [0.3])[0]
    assert np.allclose(spectrum_of_iss(joint, [0.3]).values[0], h @ joint.V @ h.conj().T, rtol=1e-12, atol=1e-12)


def test_frequency_direction_validated():
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError, match="direction must be 'y->x' or 'x->y'"):
        gem_frequency(random_iss(rng), direction="x->x")


def test_classification_on_one_sided_models():
    rng = np.random.default_rng(44)
    for make in (triangular_unidirectional, white_x_unidirectional):
        flags = gc_classify(make(rng))
        assert not flags.wgc_y_to_x
        assert not flags.sgc_y_to_x
        assert flags.wgc_x_to_y
        assert flags.sgc_x_to_y


def test_classification_flags_instantaneous_coupling():
    """A diagonal-transfer model with correlated innovations has no dynamic
    influence either way but both strong influences."""
    v = np.array([[1.0, 0.4], [0.4, 1.0]])
    mdl = ISSModel(
        np.diag([0.5, -0.3]), np.eye(2), np.diag([0.7, 0.2]), v,
        partition=JointPartition(1, 1),
    )
    flags = gc_classify(mdl)
    assert not flags.wgc_y_to_x and not flags.wgc_x_to_y
    assert flags.sgc_y_to_x and flags.sgc_x_to_y


def test_classification_matches_measures():
    # absence flags must line up with (near-)zero measures
    rng = np.random.default_rng(45)
    for _ in range(5):
        mdl = white_x_unidirectional(rng)
        g = gem_time_domain(mdl)
        assert g.fyx <= 1e-10 and g.fydx <= 1e-10
        assert g.fxy > 1e-3


def test_weak_flag_is_set_exactly_when_the_measure_is_positive():
    """Random, one-sided and large companion models (n = 200, where powers of
    A overflow any tolerance scaled by ||A||^(n-1)) all agree with the measure."""
    rng = np.random.default_rng(46)
    models = [
        make(rng)
        for _ in range(8)
        for make in (random_iss, white_x_unidirectional, triangular_unidirectional)
    ]
    models += [bivariate_var(rng, 100), bivariate_var(rng, 100, one_sided=True)]
    for mdl in models:
        flags = gc_classify(mdl)
        g = gem_time_domain(mdl)
        assert flags.wgc_y_to_x == (g.fyx > 1e-9)
        assert flags.wgc_x_to_y == (g.fxy > 1e-9)
    assert models[-2].n == models[-1].n == 200


def test_chi2_degrees_of_freedom():
    assert chi2_test(0.1, 100, 2, 1, 1, "weak").df == 4
    assert chi2_test(0.1, 100, 2, 1, 1, "instantaneous").df == 1
    assert chi2_test(0.1, 100, 2, 1, 1, "strong").df == 5
    assert chi2_test(0.1, 100, 3, 2, 2, "weak").df == 24
    sizes = (np.int64(100), np.int32(3), np.int64(2), np.int8(2))
    assert chi2_test(0.1, *sizes, "weak") == chi2_test(0.1, 100, 3, 2, 2, "weak")


def test_chi2_statistic_scales_with_sample_size():
    res = chi2_test(0.25, 400, 1, 1, 1)
    assert res.statistic == pytest.approx(100.0)


def test_chi2_null_value_gives_unit_pvalue():
    assert chi2_test(0.0, 500, 2, 1, 1).pvalue == 1.0


def test_chi2_pvalue_matches_scipy_tail():
    """The exact finite-sum tail against an independent implementation.

    Scalar blocks give odd df (1 instantaneous, 2 n + 1 strong), whose tail
    carries the erfc term; df runs up to 61.
    """
    dfs = set()
    for state_dim, px, py in ((3, 2, 1), (1, 1, 1), (2, 1, 1), (5, 1, 1), (13, 1, 1), (30, 1, 1)):
        for kind in ("weak", "instantaneous", "strong"):
            for fhat in (1e-6, 1e-3, 0.01, 0.05, 0.2, 1.0, 3.0):
                for n_obs in (20, 200, 2000):
                    res = chi2_test(fhat, n_obs, state_dim, px, py, kind)
                    ref = scipy.stats.chi2.sf(res.statistic, res.df)
                    assert res.pvalue == pytest.approx(ref, rel=1e-12, abs=1e-300)
                    dfs.add(res.df)
    assert {1, 3, 5, 11, 27, 61} <= dfs


def test_chi2_rejects_bad_inputs():
    with pytest.raises(ValueError):
        chi2_test(-0.1, 100, 1, 1, 1)
    with pytest.raises(ValueError):
        chi2_test(np.inf, 100, 1, 1, 1)
    with pytest.raises(ValueError):
        chi2_test(0.1, 100, 1, 1, 1, kind="both")
    # fhat: a real, non-bool scalar
    for fhat in (None, 0.5 + 0j, np.complex128(0.5), "0.5", np.array([0.5]), np.array(0.5),
                 True, np.True_):
        with pytest.raises(ValueError, match="fhat must be finite and nonnegative"):
            chi2_test(fhat, 100, 1, 1, 1)
    assert chi2_test(np.float64(0.5), 100, 1, 1, 1) == chi2_test(0.5, 100, 1, 1, 1)
    # n_obs, state_dim, px and py: positive Python or numpy integers, not bools
    for sizes in ((0, 1, 1, 1), (100, 1.5, 1, 1), (100, 1, True, 1), (100.5, 1, 1, 1),
                  (100, 1, 1, 1.0), (100, 1, 1, np.float64(2.0))):
        with pytest.raises(ValueError, match="must be positive integers"):
            chi2_test(1.0, *sizes)


def test_measures_of_one_model_share_its_transfer_and_stationarity(monkeypatch):
    """gem_time_domain decides the joint model's stationarity once, a
    gem_frequency pair evaluates its H once, and both directions equal those
    of a fresh copy of the model, bit for bit."""
    joint = bivariate_var(np.random.default_rng(15), 3)
    grid = default_grid(256)
    transfers, verdicts = [], []
    real_transfer, real_radius = ssgc.model._transfer_uniform, ssgc.model._radius_if_unstable

    def transfer(*args):
        transfers.append(args)
        return real_transfer(*args)

    def radius(a, *rest):
        if a is joint.A:
            verdicts.append(a)
        return real_radius(a, *rest)

    monkeypatch.setattr(ssgc.model, "_transfer_uniform", transfer)
    monkeypatch.setattr(ssgc.model, "_radius_if_unstable", radius)
    gem_time_domain(joint)
    assert len(verdicts) == 1
    pair = [gem_frequency(joint, grid, d) for d in ("y->x", "x->y")]
    assert len(transfers) == 1 and len(verdicts) == 1
    for got, d in zip(pair, ("y->x", "x->y")):
        want = gem_frequency(dataclasses.replace(joint), grid, d)
        assert got.integral == want.integral
        assert np.array_equal(got.curve.values, want.curve.values)
    assert len(transfers) == 3


def test_measures_need_partition_and_stationarity():
    mdl = ISSModel(np.zeros((1, 1)), np.ones((2, 1)), np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError):
        gem_time_domain(mdl)
    unstable = ISSModel(
        np.array([[1.2]]), np.ones((2, 1)), np.array([[0.1, 0.1]]), np.eye(2),
        partition=JointPartition(1, 1),
    )
    with pytest.raises(PreconditionError):
        gem_time_domain(unstable)
