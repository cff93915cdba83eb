"""Causality measures across a grid of sampling rates."""

import numpy as np
import pytest

from ssgc import ISSModel, run_scenario_sweep

from support import random_iss, white_x_unidirectional


def test_sweep_rows_match_pointwise_computation():
    from ssgc import downsample_iss, gem_time_domain

    rng = np.random.default_rng(80)
    mdl = random_iss(rng)
    res = run_scenario_sweep(mdl, (1, 2, 4))
    assert [row.factor for row in res.rows] == [1, 2, 4]
    for m in (1, 2, 4):
        direct = gem_time_domain(downsample_iss(mdl, m))
        assert res.factor(m) == direct


def test_sweep_column_accessor():
    rng = np.random.default_rng(81)
    res = run_scenario_sweep(random_iss(rng), (1, 3))
    col = res.column("fyx")
    assert col == (res.rows[0].measures.fyx, res.rows[1].measures.fyx)
    with pytest.raises(AttributeError):
        res.column("nope")
    with pytest.raises(KeyError):
        res.factor(7)


def test_sweep_validates_factors():
    rng = np.random.default_rng(82)
    mdl = random_iss(rng)
    for bad in ((), (0, 1), (2, 2), (3, 2), (1.5,), (True, 2)):
        with pytest.raises(ValueError):
            run_scenario_sweep(mdl, bad)


def test_sweep_accepts_numpy_integer_factors():
    rng = np.random.default_rng(84)
    mdl = random_iss(rng)
    res = run_scenario_sweep(mdl, np.arange(1, 4))
    assert [row.factor for row in res.rows] == [1, 2, 3]
    assert all(type(row.factor) is int for row in res.rows)
    assert res.rows == run_scenario_sweep(mdl, (1, 2, 3)).rows


def test_sweep_requires_partition():
    mdl = ISSModel(np.zeros((1, 1)), np.ones((2, 1)), np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError):
        run_scenario_sweep(mdl, (1, 2))


def test_one_sided_model_stays_one_sided_along_the_sweep():
    rng = np.random.default_rng(83)
    res = run_scenario_sweep(white_x_unidirectional(rng), (1, 2, 3, 5))
    assert max(res.column("fyx")) <= 1e-10
    assert max(res.column("fydx")) <= 1e-10
    assert min(res.column("fxy")) >= 0.0
