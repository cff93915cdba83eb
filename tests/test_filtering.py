"""FIR filtering of ISS models, phase analysis, all-pass splitting, HRF."""

import numpy as np
import pytest

from ssgc import (
    ConvergenceError,
    FirFilter,
    ISSModel,
    JointPartition,
    PreconditionError,
    allpass_decompose,
    apply_fir_filter,
    default_grid,
    gem_time_domain,
    hrf_glover,
    min_phase_check,
    spectrum_of_iss,
    validate_iss,
)
import ssgc.dare
import ssgc.filtering

from support import BAD_GRIDS, BAD_MATRICES, hrf_filtered_references, random_iss, riccati_loop


def make_block_min_phase(rng, part: JointPartition, order: int = 2) -> FirFilter:
    # leading tap 1 and small later taps keep every block zero inside the unit circle
    cx = np.r_[1.0, rng.uniform(-0.4, 0.4, order)]
    cy = np.r_[1.0, rng.uniform(-0.4, 0.4, order)]
    return FirFilter.block_scalar(cx, cy, part)


def test_fir_container_basics():
    f = FirFilter([1.0, -0.5, 0.25])
    assert f.q == 2 and f.p == 1
    assert np.allclose(f.scalar_taps, [1.0, -0.5, 0.25])
    assert FirFilter.identity(3).q == 0

    part = JointPartition(1, 1)
    g = FirFilter.block_scalar([1.0, 0.3], [1.0], part)
    assert g.q == 1 and g.p == 2
    with pytest.raises(ValueError):
        g.scalar_taps  # not a scalar filter


def test_fir_container_validation():
    with pytest.raises(ValueError):
        FirFilter(np.ones((2, 2, 3)))  # taps not square
    with pytest.raises(ValueError):
        FirFilter(np.zeros((2, 1, 1)))  # determinant identically zero
    with pytest.raises(ValueError):
        FirFilter([1.0, np.inf])
    taps = np.zeros((1, 2, 2))
    taps[0] = [[1.0, 0.1], [0.0, 1.0]]
    with pytest.raises(ValueError):
        FirFilter(taps, partition=JointPartition(1, 1))  # off-diagonal block
    with pytest.raises(ValueError):
        FirFilter(np.eye(2)[None], partition=JointPartition(1, 2))
    # One taps reader names ragged, complex and non-finite taps at every entry.
    ragged, complex_taps = [[[1.0]], [[0.5, 0.1]]], np.array([1.0, 0.5j])
    for read, name in ((FirFilter, "taps"), (FirFilter.scalar, "coeffs"),
                       (lambda c: FirFilter.block_scalar(c, [1.0], JointPartition(1, 1)), "coeffs_x"),
                       (lambda c: FirFilter.block_scalar([1.0], c, JointPartition(1, 1)), "coeffs_y"),
                       (min_phase_check, "taps")):
        for bad, message in ((ragged, "is not a numeric array"),
                             (complex_taps, "contains complex entries"),
                             ([1.0, np.inf], "contains non-finite entries")):
            with pytest.raises(ValueError, match=f"^{name} {message}$"):
                read(bad)


def test_fir_frequency_response():
    f = FirFilter([1.0, 0.5])
    grid = np.array([0.0, np.pi / 2])
    h = f.frequency_response(grid)
    assert h[0, 0, 0] == pytest.approx(1.5)
    assert h[1, 0, 0] == pytest.approx(1 + 0.5 * np.exp(-1j * np.pi / 2))
    assert f.frequency_response([np.pi / 2])[0, 0, 0] == pytest.approx(h[1, 0, 0])
    for bad, why in (([0.0, np.nan, 1.0], "non-finite"), ([], "empty"),
                     ([[0.0, 1.0]], "1-D"), *BAD_GRIDS):
        with pytest.raises(ValueError, match=why):
            f.frequency_response(bad)


def test_min_phase_check_classifies_first_order():
    assert min_phase_check([1.0, 0.5]).is_min_phase
    res = min_phase_check([1.0, 2.0])
    assert not res.is_min_phase
    assert res.zeros[0] == pytest.approx(-2.0)


def test_min_phase_check_trims_leading_zeros():
    res = min_phase_check([0.0, 1.0, 0.5])
    assert res.is_min_phase
    assert len(res.zeros) == 1


def test_min_phase_check_input_validation():
    with pytest.raises(ValueError, match="all taps are zero"):
        min_phase_check([0.0, 0.0])
    # one nonzero tap: no zeros, so minimum phase
    for taps in ([1.0], [0.0, -2.5]):
        res = min_phase_check(taps)
        assert res.is_min_phase
        assert res.zeros.shape == (0,)


def test_filtered_spectrum_is_phi_f_phi_star():
    rng = np.random.default_rng(50)
    grid = default_grid(256)
    for _ in range(5):
        joint = random_iss(rng)
        part = joint.require_partition()
        filt = make_block_min_phase(rng, part)
        out = apply_fir_filter(joint, filt)
        assert out.n == joint.n + filt.q * joint.p
        assert validate_iss(out).passed

        f_in = spectrum_of_iss(joint, grid).values
        f_out = spectrum_of_iss(out, grid).values
        phi = filt.frequency_response(grid)
        expected = np.einsum("nij,njk,nlk->nil", phi, f_in, phi.conj())
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(f_out - expected).max() < 1e-7 * scale


def test_identity_filter_preserves_measures():
    rng = np.random.default_rng(51)
    joint = random_iss(rng)
    out = apply_fir_filter(joint, FirFilter.identity(joint.p))
    before = gem_time_domain(joint)
    after = gem_time_domain(out)
    assert after.fyx == pytest.approx(before.fyx, abs=1e-9)
    assert after.fydx == pytest.approx(before.fydx, abs=1e-9)


def test_block_min_phase_filtering_preserves_measures():
    """Invertible causal filtering of each block separately leaves every
    causality measure unchanged."""
    rng = np.random.default_rng(52)
    for _ in range(8):
        joint = random_iss(rng)
        filt = make_block_min_phase(rng, joint.require_partition())
        before = gem_time_domain(joint)
        after = gem_time_domain(apply_fir_filter(joint, filt))
        assert after.fyx == pytest.approx(before.fyx, abs=1e-6)
        assert after.fxy == pytest.approx(before.fxy, abs=1e-6)
        assert after.fydx == pytest.approx(before.fydx, abs=1e-6)
        assert after.fxoy == pytest.approx(before.fxoy, abs=1e-6)


def test_pure_delay_moves_instantaneous_into_dynamic():
    """Delaying one block of an instantaneously coupled white pair converts
    the instantaneous measure into a directed one: the non-minimum-phase
    exception to filtering invariance."""
    rho = 0.5
    part = JointPartition(1, 1)
    mix = np.array([[1.0, rho], [0.0, 1.0]])
    v = mix @ mix.T  # [[1 + rho^2, rho], [rho, 1]]
    joint = ISSModel(np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((1, 2)), v,
                     partition=part)
    before = gem_time_domain(joint)
    assert before.fyx == pytest.approx(0.0, abs=1e-12)
    assert before.fydx == pytest.approx(np.log(1 + rho**2), abs=1e-12)

    delay_x = FirFilter.block_scalar([0.0, 1.0], [1.0], part)
    after = gem_time_domain(apply_fir_filter(joint, delay_x))
    assert after.fyx == pytest.approx(np.log(1 + rho**2), abs=1e-9)
    assert after.fydx == pytest.approx(0.0, abs=1e-9)
    assert after.fxoy == pytest.approx(before.fxoy, abs=1e-9)


def test_filter_dimension_mismatch_rejected():
    rng = np.random.default_rng(53)
    joint = random_iss(rng, px=1, py=1)
    with pytest.raises(ValueError):
        apply_fir_filter(joint, FirFilter.identity(joint.p + 1))


@pytest.mark.parametrize(
    "n, taps",
    [(0, [1.0, -1.0]), (0, [1.0, 1.0]), (1, [1.0, -1.0]), (1, [1.0, 1.0])],
    ids=["zero+1", "zero-1", "n1-zero+1", "n1-zero-1"],
)
def test_unit_circle_zero_fails_fast_at_the_default_budget(n, taps):
    """1 - L or 1 + L annihilates the process at a unit-circle frequency, so
    no full-rank innovations model exists; the factorization only creeps
    toward the boundary, and the one 64-step budget (2^63 plain steps) ends
    it at once, on white noise (n = 0) and on a model with a state."""
    joint = ISSModel(np.zeros((n, n)), np.zeros((1, n)), np.zeros((n, 1)), np.eye(1))
    with pytest.raises(ConvergenceError, match=r"circle\): doubling did not converge in 64 steps"):
        apply_fir_filter(joint, FirFilter.scalar(taps))


NEAR_UNIT = 0.999999


@pytest.mark.parametrize(
    "taps, v_exact",
    [([1.0, -NEAR_UNIT], 1.0), ([-NEAR_UNIT, 1.0], 1.0), ([1.0, -1.0 / NEAR_UNIT], NEAR_UNIT**-2)],
    ids=["inside", "reversed", "outside"],
)
def test_zero_near_the_unit_circle_is_factored_exactly(taps, v_exact):
    """White noise through 1 - b L, -b + L or 1 - L / b with b = 1 - 1e-6:
    the minimum-phase factor is 1 - b L in each case, so the innovation
    variance is 1, 1 or 1 / b^2 and A - K C has its zero at b."""
    white = ISSModel(np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((0, 1)), np.eye(1))
    out = apply_fir_filter(white, FirFilter.scalar(taps))
    assert out.V[0, 0] == pytest.approx(v_exact, rel=1e-9)
    rho = np.abs(np.linalg.eigvals(out.A - out.K @ out.C)).max()
    assert rho == pytest.approx(NEAR_UNIT, abs=1e-9)


def record_filter_solves(monkeypatch) -> list:
    """(args, kwargs, result) of each Riccati solve of the filter from now on."""
    solve = ssgc.filtering.riccati_fixed_point
    calls = []

    def record(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(ssgc.filtering, "riccati_fixed_point", record)
    return calls


def test_filtering_solve_matches_the_step_loop(monkeypatch):
    """K and V of every filtering solve (the three HRF references and a
    minimum-phase block filter) match the plain recursion from the same start."""
    calls = record_filter_solves(monkeypatch)
    hrf_filtered_references()
    rng = np.random.default_rng(56)
    joint = random_iss(rng)
    apply_fir_filter(joint, make_block_min_phase(rng, joint.require_partition()))
    assert len(calls) == 4
    for (mdl,), kwargs, (_, k, v, *_) in calls:
        _, k_loop, v_loop, *_ = riccati_loop(
            mdl.A, mdl.C, mdl.Q, mdl.R, mdl.S, **{**kwargs, "max_iter": 10**6}
        )
        assert np.linalg.norm(k - k_loop) <= 1e-10 * np.linalg.norm(k_loop)
        assert np.linalg.norm(v - v_loop) <= 1e-10 * np.linalg.norm(v_loop)


def test_filtering_solve_holds_under_rounding_of_its_start(monkeypatch):
    """The near-one-sided HRF solve (n = 66, R = 0) from its state covariance
    Pi moved at rounding level.  Doubling straight from Pi breaks its premise
    G, H >= 0 and failed about one such start in five; the Newton-Hewer step
    from K(Pi) makes every start reach the recursion's K and V."""
    calls = record_filter_solves(monkeypatch)
    hrf_filtered_references()
    args, kwargs, _ = calls[2]
    pi, (mdl,) = kwargs["p0"], args
    _, k_loop, v_loop, *_ = riccati_loop(
        mdl.A, mdl.C, mdl.Q, mdl.R, mdl.S, **{**kwargs, "max_iter": 10**6}
    )
    rng = np.random.default_rng(57)
    for _ in range(50):
        delta = rng.standard_normal(pi.shape)
        delta += delta.T
        delta *= 1e-16 * np.linalg.norm(pi) / np.linalg.norm(delta)
        _, k, v, *_ = ssgc.dare.riccati_fixed_point(*args, **{**kwargs, "p0": pi + delta})
        assert np.linalg.norm(k - k_loop) <= 1e-10 * np.linalg.norm(k_loop)
        assert np.linalg.norm(v - v_loop) <= 1e-10 * np.linalg.norm(v_loop)


def test_allpass_split_of_scalar_moving_average():
    """G = 1 + 2L with unit noise re-factors as G_o = 1 + 0.5L with noise 4."""
    dec = allpass_decompose(FirFilter.scalar([1.0, 2.0]))
    mdl = dec.minimum_phase_model
    assert mdl.V[0, 0] == pytest.approx(4.0, abs=1e-9)
    # impulse response of the minimum-phase model: 1, then C A^{k-1} K
    assert mdl.C[0] @ mdl.K[:, 0] == pytest.approx(0.5, abs=1e-9)
    assert dec.allpass_check < 1e-8
    assert dec.reconstruction_check < 1e-8
    assert np.abs(np.abs(dec.e_values[:, 0, 0]) - 1.0).max() < 1e-8


def test_allpass_split_already_min_phase_is_identity_like():
    dec = allpass_decompose(FirFilter.scalar([1.0, 0.5]), sigma=np.array([[2.0]]))
    assert dec.minimum_phase_model.V[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert dec.allpass_check < 1e-8


def test_allpass_split_of_static_filter_has_no_state():
    phi0 = np.array([[1.0, 0.4], [-0.3, 2.0]])
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    dec = allpass_decompose(FirFilter(phi0[None]), sigma=sigma, grid=default_grid(64))
    mdl = dec.minimum_phase_model
    assert mdl.n == 0
    np.testing.assert_allclose(mdl.V, phi0 @ sigma @ phi0.T, rtol=0, atol=1e-14)
    assert dec.allpass_check < 1e-12
    assert dec.reconstruction_check < 1e-12


def test_allpass_split_with_singular_sigma_fails():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    taps = np.array([np.eye(2), [[0.5, 0.0], [0.2, 0.3]]])
    for filt in (FirFilter.identity(2), FirFilter(taps)):
        with pytest.raises(PreconditionError, match="^sigma must be positive definite$"):
            allpass_decompose(filt, sigma=sigma)


def test_allpass_sigma_must_be_positive_definite():
    """J = chol(sigma) needs sigma > 0: a negative or zero noise variance is
    named where sigma is read, not blamed on the filter's unit-circle zeros."""
    for sigma in ([[-1.0]], [[0.0]]):
        with pytest.raises(PreconditionError, match="^sigma must be positive definite$"):
            allpass_decompose(FirFilter.scalar([1.0, 0.5]), sigma=sigma)


def test_filter_names_a_model_v_that_is_not_positive_definite():
    """A model whose V is not positive definite is named where it enters, not
    blamed on the filter's unit-circle zeros."""
    model = ISSModel([[0.5]], [[1.0]], [[0.3]], [[-1.0]])
    for call in (lambda: apply_fir_filter(model, FirFilter.scalar([1.0, 0.5])),
                 lambda: allpass_decompose(model)):
        with pytest.raises(PreconditionError, match="^V must be positive definite$"):
            call()


def test_allpass_split_of_two_lag_matrix_filter():
    taps = np.array([
        [[1.0, 0.3], [-0.2, 0.8]],
        [[1.5, -0.4], [0.7, 2.0]],
        [[0.3, 0.9], [-1.1, 0.4]],
    ])
    # det of sum_k taps[k] z^{q-k} (the convention of min_phase_check); a zero
    # outside the unit circle makes the filter non-minimum-phase
    det_poly = np.polysub(
        np.polymul(taps[:, 0, 0], taps[:, 1, 1]), np.polymul(taps[:, 0, 1], taps[:, 1, 0])
    )
    assert np.abs(np.roots(det_poly)).max() > 1.0
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    dec = allpass_decompose(FirFilter(taps), sigma=sigma, grid=default_grid(512))
    mdl = dec.minimum_phase_model
    assert dec.allpass_check < 1e-7
    assert dec.reconstruction_check < 1e-7
    assert np.abs(np.linalg.eigvals(mdl.A - mdl.K @ mdl.C)).max() < 1.0


def test_allpass_split_of_iss_model():
    rng = np.random.default_rng(54)
    joint = random_iss(rng)
    grid = default_grid(512)
    dec = allpass_decompose(joint, grid=grid)
    assert dec.minimum_phase_model.partition == joint.partition
    assert dec.allpass_check < 1e-7
    assert dec.reconstruction_check < 1e-7
    # an innovations model is already minimum phase, so the split returns it
    f_in = spectrum_of_iss(joint, grid).values
    f_out = spectrum_of_iss(dec.minimum_phase_model, grid).values
    assert np.abs(f_in - f_out).max() < 1e-7 * max(1.0, np.abs(f_in).max())


def test_allpass_split_rejects_a_bad_grid():
    nan_grid = default_grid(64)
    nan_grid[10] = np.nan
    bad_grids = [
        nan_grid,
        default_grid(64)[::-1],
        np.linspace(-np.pi, 3 * np.pi, 128, endpoint=False),
        default_grid(64).reshape(8, 8),
    ]
    for grid in bad_grids:
        with pytest.raises(ValueError, match="grid"):
            allpass_decompose(FirFilter.scalar([1.0, 2.0]), grid=grid)
    for grid, message in BAD_GRIDS:
        with pytest.raises(ValueError, match=message):
            allpass_decompose(FirFilter.scalar([1.0, 2.0]), grid=grid)


def test_allpass_sigma_only_for_fir():
    rng = np.random.default_rng(55)
    with pytest.raises(ValueError):
        allpass_decompose(random_iss(rng), sigma=np.eye(2))
    for bad, message in BAD_MATRICES:
        with pytest.raises(ValueError, match=f"^sigma {message}"):
            allpass_decompose(FirFilter.identity(1), sigma=bad)
    with pytest.raises(ValueError, match="^sigma must be symmetric$"):
        allpass_decompose(FirFilter.identity(2), sigma=np.array([[1.0, 0.9], [-0.9, 1.0]]))


def test_hrf_shape_and_sign_structure():
    filt = hrf_glover()
    taps = filt.scalar_taps
    assert len(taps) == 32
    # positive response peaking near 5.5 s, trough shortly after the 10.8 s
    # undershoot peak (the decaying positive bump shifts it right)
    assert np.argmax(taps) + 1 in (5, 6)
    assert 10 <= np.argmin(taps) + 1 <= 14
    assert taps[11] < 0
    assert taps.max() > 0 > taps.min()
    assert abs(taps[-1]) < 1e-3 * taps.max()  # decayed by the window end


def test_hrf_matches_double_gamma_formula():
    tr, fa, fb = 0.8, 1.3, 0.6
    taps = hrf_glover(fa=fa, fb=fb, tr=tr, duration=20).scalar_taps
    t = tr * np.arange(1, len(taps) + 1)
    bump = fa * (t / 5.5) ** 5 * np.exp(-(t / 1.1 - 5))
    under = fb * 0.4 * (t / 10.8) ** 12 * np.exp(-(t / 0.9 - 12))
    assert np.abs(taps - (bump - under)).max() < 1e-12
    assert len(taps) == int(np.floor(20 / 0.8))


def test_hrf_is_not_minimum_phase_at_default_sampling():
    res = min_phase_check(hrf_glover().scalar_taps)
    assert not res.is_min_phase
    assert np.abs(res.zeros).max() > 1.0


def test_hrf_argument_validation():
    with pytest.raises(ValueError):
        hrf_glover(tr=0.0)
    with pytest.raises(ValueError):
        hrf_glover(tr=2.0, duration=1.0)
    with pytest.raises(ValueError):
        hrf_glover(fa=-1.0)
    for bad in ({"duration": np.inf}, {"tr": np.nan}, {"fa": np.inf}, {"fb": np.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            hrf_glover(**bad)


def test_hrf_without_undershoot_is_positive():
    taps = hrf_glover(fb=0.0).scalar_taps
    assert taps.min() > 0
