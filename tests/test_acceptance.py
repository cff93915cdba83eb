"""Acceptance battery: one test per shipped numerical guarantee.

Each test states a package-level promise (also listed in the README) and
checks it end to end at the promised tolerance.  Tolerances here are
contractual; loosening one is an interface change, not a test fix.
"""

import time

import numpy as np

from support import (
    NEAR_ONE_SIDED_A,
    NEAR_ONE_SIDED_DESIGN,
    NEAR_ONE_SIDED_RHO,
    PUSH_DOMINANT,
    PUSH_REVERSAL,
    feasible_designs,
    own_noise_zeros,
    random_iss,
    random_ss,
    triangular_unidirectional,
    white_x_unidirectional,
)

from ssgc import (
    FirFilter,
    ISSModel,
    JointPartition,
    SSModel,
    Var1Model,
    apply_fir_filter,
    autocovariance_of_iss,
    chi2_test,
    default_grid,
    design_var1,
    downsample_iss,
    extract_submodel,
    gem_frequency,
    gem_time_domain,
    hrf_glover,
    log_det_spectrum_integral,
    min_phase_check,
    run_scenario_sweep,
    solve_dare,
    spectral_radius,
    spectrum_of_iss,
    var1_fyx_closed_form,
    var_to_iss,
)

SWEEP_FACTORS = (1, 2, 3, 4, 5, 6, 10, 20, 30, 40)


def test_criterion_01_reference_sweeps_match_tabulated_measures():
    started = time.perf_counter()
    dominant = run_scenario_sweep(PUSH_DOMINANT.model(), SWEEP_FACTORS)
    reversal = run_scenario_sweep(PUSH_REVERSAL.model(), SWEEP_FACTORS)
    sigma = np.array([[1.0, NEAR_ONE_SIDED_RHO], [NEAR_ONE_SIDED_RHO, 1.0]])
    near_one_sided = Var1Model(np.array(NEAR_ONE_SIDED_A), sigma)
    one_sided = run_scenario_sweep(near_one_sided.to_iss(), SWEEP_FACTORS)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"reference sweeps took {elapsed:.2f} s, promised < 5 s"

    for scenario, sweep in ((PUSH_DOMINANT, dominant), (PUSH_REVERSAL, reversal)):
        for m, want_yx, want_xy in zip(SWEEP_FACTORS, scenario.fyx, scenario.fxy):
            got = sweep.factor(m)
            assert abs(got.fyx - want_yx) <= 0.05, (
                f"fyx at m={m}: got {got.fyx:.4f}, tabulated {want_yx}"
            )
            assert abs(got.fxy - want_xy) <= 0.05, (
                f"fxy at m={m}: got {got.fxy:.4f}, tabulated {want_xy}"
            )

    # qualitative patterns, exact
    for m in (f for f in SWEEP_FACTORS if f <= 20):
        got = dominant.factor(m)
        assert got.fyx > got.fxy, f"dominant direction lost at m={m}"
    for m in (f for f in SWEEP_FACTORS if 2 <= f <= 10):
        got = reversal.factor(m)
        assert got.fxy > got.fyx, f"reversal pattern lost at m={m}"

    settled = one_sided.factor(10)
    assert settled.fxy / settled.fyx < 2.0, "ratio should settle below 2 by m=10"
    designed = design_var1(NEAR_ONE_SIDED_DESIGN).A
    assert np.abs(designed - np.array(NEAR_ONE_SIDED_A)).max() <= 5e-4
    native = one_sided.factor(1)
    assert abs(native.fyx - var1_fyx_closed_form(near_one_sided, "y->x")) <= 1e-8
    assert abs(native.fxy - var1_fyx_closed_form(near_one_sided, "x->y")) <= 1e-8
    ratio = native.fxy / native.fyx
    assert ratio > 40.0, f"fxy/fyx at m=1 is {ratio:.2f}, not above 40"


def test_criterion_02_closed_form_matches_riccati_pipeline():
    rng = np.random.default_rng(401)
    started = time.perf_counter()
    for _, model in feasible_designs(rng, 100):
        closed_yx = var1_fyx_closed_form(model, "y->x")
        closed_xy = var1_fyx_closed_form(model, "x->y")
        piped = gem_time_domain(model.to_iss())
        assert abs(closed_yx - piped.fyx) <= 1e-8
        assert abs(closed_xy - piped.fxy) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"100 design checks took {elapsed:.2f} s, promised < 10 s"


def test_criterion_03_decomposition_identity_across_battery():
    rng = np.random.default_rng(402)
    battery = [random_iss(rng) for _ in range(120)]
    battery += [white_x_unidirectional(rng) for _ in range(40)]
    battery += [triangular_unidirectional(rng) for _ in range(40)]
    battery += [model.to_iss() for _, model in feasible_designs(rng, 20)]
    battery += [PUSH_DOMINANT.model(), PUSH_REVERSAL.model()]
    sigma = np.array([[1.0, NEAR_ONE_SIDED_RHO], [NEAR_ONE_SIDED_RHO, 1.0]])
    battery.append(var_to_iss([np.array(NEAR_ONE_SIDED_A)], sigma, JointPartition(1, 1)))
    assert len(battery) >= 200
    for joint in battery:
        s = gem_time_domain(joint)
        assert abs(s.fxoy - (s.fyx + s.fxy + s.fydx)) <= 1e-10


def test_criterion_04_frequency_integral_recovers_time_domain():
    rng = np.random.default_rng(403)
    for _ in range(50):
        joint = random_iss(rng)
        expected = gem_time_domain(joint).fyx
        got = gem_frequency(joint, direction="y->x").integral
        assert abs(got - expected) <= 1e-6

    # The first reference design breaks the plain identity in this direction:
    # its rotated own-noise transfer has a det zero at z = -1.442, outside the
    # unit circle, so the integral falls short of the time-domain value by the
    # Jensen term 2 ln 1.442 at any grid size.
    joint = PUSH_DOMINANT.model()
    measures = gem_time_domain(joint)
    expected = measures.fyx
    got = gem_frequency(joint, direction="y->x").integral
    zeros = own_noise_zeros(joint, "y->x")
    jensen = 2.0 * float(np.sum(np.log(np.abs(zeros[np.abs(zeros) > 1.0]))))
    assert jensen > 0.7, f"Jensen term {jensen:.6f}: the shortfall case is gone"
    assert abs(got + jensen - expected) <= 1e-6, (
        f"integral {got:.6f} + Jensen term {jensen:.6f} vs time-domain {expected:.6f}"
    )

    # the x -> y direction of the same model is minimum phase (zero at -0.2944)
    expected = measures.fxy
    got = gem_frequency(joint, direction="x->y").integral
    assert np.abs(own_noise_zeros(joint, "x->y")).max() < 1.0
    assert abs(got - expected) <= 1e-6


def test_criterion_05_submodel_spectrum_matches_joint_block():
    rng = np.random.default_rng(404)
    grid = default_grid(512)
    for _ in range(100):
        joint = random_iss(rng)
        part = joint.require_partition()
        sub = extract_submodel(joint, "x")
        ref = spectrum_of_iss(joint, grid).values[:, part.x, part.x]
        got = spectrum_of_iss(sub, grid).values
        assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()
        integral = log_det_spectrum_integral(spectrum_of_iss(sub))
        assert abs(integral - np.linalg.slogdet(sub.V)[1]) <= 1e-8


def test_criterion_06_downsampled_autocovariance_subsamples_original():
    rng = np.random.default_rng(405)
    for _ in range(50):
        joint = random_iss(rng)
        dense = autocovariance_of_iss(joint, 5 * 10)
        for m in (2, 3, 5):
            coarse = autocovariance_of_iss(downsample_iss(joint, m), 10)
            for k in range(11):
                assert np.abs(coarse[k] - dense[m * k]).max() <= 1e-8


def test_criterion_07_one_sided_models_stay_one_sided_when_downsampled():
    rng = np.random.default_rng(406)
    for _ in range(50):
        joint = white_x_unidirectional(rng)
        for m in (2, 3, 5):
            s = gem_time_domain(downsample_iss(joint, m))
            assert s.fyx + s.fydx <= 1e-8


def test_criterion_08_min_phase_filtering_leaves_measures_unchanged():
    rng = np.random.default_rng(407)
    for _ in range(50):
        joint = random_iss(rng)
        part = joint.require_partition()
        # leading tap 1 and small later taps keep each block minimum phase
        filt = FirFilter.block_scalar(
            np.r_[1.0, rng.uniform(-0.4, 0.4, 2)],
            np.r_[1.0, rng.uniform(-0.4, 0.4, 2)],
            part,
        )
        before = gem_time_domain(joint)
        after = gem_time_domain(apply_fir_filter(joint, filt))
        for name in ("fyx", "fxy", "fydx", "fxoy"):
            assert abs(getattr(after, name) - getattr(before, name)) <= 1e-6

    # non-minimum-phase witness: delaying one channel of an instantaneously
    # coupled white pair manufactures a directed measure out of nothing
    rho = 0.5
    part = JointPartition(1, 1)
    mix = np.array([[1.0, rho], [0.0, 1.0]])
    joint = ISSModel(
        np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((1, 2)), mix @ mix.T,
        partition=part,
    )
    delay_x = FirFilter.block_scalar([0.0, 1.0], [1.0], part)
    after = gem_time_domain(apply_fir_filter(joint, delay_x))
    assert abs(after.fyx - np.log(1.0 + rho**2)) <= 1e-6
    assert abs(after.fydx) <= 1e-9


def test_criterion_09_hrf_has_a_zero_outside_the_unit_circle():
    res = min_phase_check(hrf_glover().scalar_taps)
    assert not res.is_min_phase
    assert np.abs(res.zeros).max() > 1.0


def test_criterion_10_riccati_solver_is_stabilizing_monotone_accurate():
    rng = np.random.default_rng(408)
    for _ in range(200):
        mdl = random_ss(rng)
        sol = solve_dare(mdl, keep_history=True)
        assert sol.residual <= 1e-10
        assert spectral_radius(mdl.A - sol.K @ mdl.C) < 1.0
        steps = np.diff(np.stack(sol.history), axis=0)
        increments = np.linalg.eigvalsh(0.5 * (steps + steps.transpose(0, 2, 1)))
        scale = 1.0 + float(np.linalg.norm(sol.P))
        assert increments.min() >= -1e-9 * scale, "iterates must be nondecreasing"

    # degenerate scalar cases with exact solutions
    sol = solve_dare(SSModel([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]]))
    assert abs(sol.P[0, 0]) <= 1e-14
    assert abs(sol.K[0, 0]) <= 1e-14
    assert abs(sol.V[0, 0] - 1.0) <= 1e-14
    q, r = 1.7, 0.4
    sol = solve_dare(SSModel([[0.0]], [[1.0]], [[q]], [[r]], [[0.0]]))
    assert abs(sol.P[0, 0] - q) <= 1e-14
    assert abs(sol.K[0, 0]) <= 1e-14
    assert abs(sol.V[0, 0] - (r + q)) <= 1e-14


def test_criterion_11_chi2_degrees_of_freedom_and_null_pvalue():
    assert chi2_test(0.1, 500, 2, 1, 1, kind="weak").df == 4
    assert chi2_test(0.1, 500, 2, 1, 1, kind="instantaneous").df == 1
    assert chi2_test(0.1, 500, 2, 1, 1, kind="strong").df == 5
    for kind in ("weak", "instantaneous", "strong"):
        assert chi2_test(0.0, 500, 2, 1, 1, kind=kind).pvalue == 1.0
