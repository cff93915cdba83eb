"""Model containers, structural validation and second-order statistics."""

import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import ssgc.model
from ssgc import (
    AutocovarianceSequence,
    Check,
    ConvergenceError,
    FirFilter,
    ISSModel,
    JointPartition,
    PreconditionError,
    SpectralCurve,
    SSModel,
    ValidationReport,
    Var1Design,
    apply_fir_filter,
    autocovariance_of_iss,
    default_grid,
    design_var1,
    downsample_iss,
    extract_submodel,
    gem_frequency,
    gem_time_domain,
    pbh_test,
    riccati_fixed_point,
    solve_lyapunov,
    spectral_radius,
    spectrum_of_iss,
    validate_iss,
    var_to_iss,
)
from ssgc.model import PBH_TOL, STABILITY_MARGIN, require_stationary

from support import (
    BAD_GRIDS,
    BAD_MATRICES,
    bivariate_var,
    hrf_filtered_references,
    pbh_eigenvector,
    random_iss,
    stable_matrix,
    transfer_function_pointwise,
)


def test_partition_slices():
    part = JointPartition(2, 3)
    assert part.p == 5
    assert part.x == slice(0, 2)
    assert part.y == slice(2, 5)
    assert part.block("x") == part.x
    assert part.block("y") == part.y
    assert part.direction("y->x") == (part.x, part.y)
    assert part.direction("x->y") == (part.y, part.x)
    with pytest.raises(ValueError, match="block must be 'x' or 'y'"):
        part.block("xy")
    with pytest.raises(ValueError, match="direction must be 'y->x' or 'x->y'"):
        part.direction("x<-y")


@pytest.mark.parametrize("px,py", [(0, 1), (1, 0), (-1, 2), (1.0, 1), (1, 2.5), (True, 1)])
def test_partition_rejects_empty_blocks(px, py):
    with pytest.raises(ValueError):
        JointPartition(px, py)


def test_iss_shape_validation():
    a = np.eye(2) * 0.5
    c = np.ones((1, 2))
    with pytest.raises(ValueError):
        ISSModel(a, c, np.ones((3, 1)), np.eye(1))  # K rows != n
    with pytest.raises(ValueError):
        ISSModel(a, np.ones((1, 3)), np.ones((2, 1)), np.eye(1))  # C cols != n
    with pytest.raises(ValueError):
        ISSModel(a, c, np.ones((2, 1)), np.array([[1.0, 0.3], [0.0, 1.0]]))  # V asym
    with pytest.raises(ValueError, match="^V must be symmetric$"):  # not broadcast to 3 x 3
        ISSModel(a, np.ones((3, 2)), np.ones((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        ISSModel(a, c, np.ones((2, 1)), np.eye(1), partition=JointPartition(1, 1))


def test_ss_shape_validation():
    with pytest.raises(ValueError):
        SSModel(np.eye(2), np.ones((1, 2)), np.eye(2), np.eye(1), np.ones((1, 1)))
    with pytest.raises(ValueError):
        SSModel(np.eye(2), np.ones((1, 2)), np.eye(3), np.eye(1), np.ones((2, 1)))


def test_nonfinite_entries_rejected():
    """Both constructors read every matrix field by the one matrix rule, named."""
    eye = np.eye(1)
    fields = {
        ISSModel: dict(A=eye / 2, C=eye, K=eye, V=eye),
        SSModel: dict(A=eye / 2, C=eye, Q=eye, R=eye, S=eye),
    }
    for cls, good in fields.items():
        cls(**good)
        for name in good:
            for bad, message in BAD_MATRICES:
                with pytest.raises(ValueError, match=f"^{name} {message}"):
                    cls(**{**good, name: bad})


def test_model_arrays_are_read_only():
    """Models the package computes are frozen like those a caller builds."""
    rng = np.random.default_rng(0)
    mdl = random_iss(rng, n=3, px=1, py=1)
    with pytest.raises(ValueError):
        mdl.A[0, 0] = 99.0
    var1 = design_var1(Var1Design(0.6, -0.2, 0.1, 0.1, 0.0, sign_gx=-1))
    filt = FirFilter.block_scalar([1.0, 0.3], [1.0], mdl.partition)
    computed = (mdl.as_ss(), extract_submodel(mdl, "x"), extract_submodel(mdl, "y"),
                downsample_iss(mdl, 2), apply_fir_filter(mdl, filt), var1.to_iss())
    for model in computed:
        for field in dataclasses.fields(model)[:-1]:  # every matrix, not the partition
            assert not getattr(model, field.name).flags.writeable, field.name


def test_frozen_fields_are_copies_of_the_callers_arrays():
    """Curves and autocovariance sequences freeze their own copies: the
    caller's arrays stay writable, and writing them changes no frozen field."""
    rng = np.random.default_rng(0)
    mdl = random_iss(rng, n=2, px=1, py=1)
    grid = default_grid(64)
    values = np.ones(64)
    gammas = np.ones((3, 2, 2))
    frozen = [
        (spectrum_of_iss(mdl, grid).grid, grid),
        (gem_frequency(mdl, grid).curve.grid, grid),
        (SpectralCurve(grid, values).values, values),
        (AutocovarianceSequence(gammas).gammas, gammas),
    ]
    for field, source in frozen:
        before = field.copy()
        source[0] = 0.5  # raised "assignment destination is read-only" when frozen in place
        assert not field.flags.writeable
        assert np.array_equal(field, before)


def test_curves_and_autocovariances_read_their_arrays_by_name():
    """A curve's grid and an autocovariance stack are read by the one array
    rule; complex scalar curve values are named, not cut to their real part."""
    values = np.ones(3)
    for grid, message in BAD_GRIDS:
        with pytest.raises(ValueError, match=message):
            SpectralCurve(grid, values)
    with pytest.raises(ValueError, match="^values contain complex entries$"):
        SpectralCurve([0.0, 1.0], [1.0 + 1.0j, 2.0])
    with pytest.raises(ValueError, match=r"^values must be \(N,\) scalars or an \(N, p, p\)"):
        SpectralCurve([0.0], {"a": 1.0})
    for values in ([[1.0], [1.0, 2.0]], ["1", "2"], [b"1", b"2"]):
        with pytest.raises(ValueError, match="^values is not a numeric array$"):
            SpectralCurve([0.0, 1.0], values)
    matrix_curve = SpectralCurve([0.0, 1.0], np.full((2, 1, 1), 1.0 + 0.0j))
    assert matrix_curve.values.dtype == complex
    bad_gammas = (
        (np.full((2, 1, 1), np.nan), "^gammas contains non-finite entries$"),
        (np.full((2, 1, 1), 1.0 + 1.0j), "^gammas contains complex entries$"),
        ({"a": 1.0}, "^gammas is not a numeric array$"),
        (np.ones((2, 2)), r"^gammas must be a 3-D array, got shape \(2, 2\)$"),
        (np.ones((2, 1, 2)), r"^gammas must have shape \(h_max \+ 1, p, p\)$"),
    )
    for gammas, message in bad_gammas:
        with pytest.raises(ValueError, match=message):
            AutocovarianceSequence(gammas)


def test_numeric_text_is_not_a_numeric_array():
    """numpy would parse "1.5" as 1.5; the array rule rejects text by name."""
    model = bivariate_var(np.random.default_rng(3), 1)
    with pytest.raises(ValueError, match="^grid is not a numeric array$"):
        gem_frequency(model, ["-1", "0", "1"])
    with pytest.raises(ValueError, match="^coeffs is not a numeric array$"):
        FirFilter.scalar("1.5")
    with pytest.raises(ValueError, match="^a is not a numeric array$"):
        pbh_test([[b"0.5"]], [[1.0]])


def test_spectral_radius_known_matrix():
    a = np.array([[0.0, 1.0], [-0.25, 0.0]])  # eigenvalues +-0.5j
    assert spectral_radius(a) == pytest.approx(0.5, abs=1e-12)


def test_default_grid_covers_half_open_interval():
    grid = default_grid(8)
    assert grid[0] == pytest.approx(-np.pi)
    assert np.allclose(np.diff(grid), 2 * np.pi / 8)
    assert grid[-1] < np.pi
    assert np.array_equal(default_grid(np.int64(8)), grid)
    for bad in (4.5, 8.0, True, np.float64(8.0)):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            default_grid(bad)
    with pytest.raises(ValueError, match="at least 2 points"):
        default_grid(1)


def test_pbh_controllable_and_not():
    a = np.diag([0.5, 0.3])
    b_full = np.array([[1.0], [1.0]])
    b_blind = np.array([[1.0], [0.0]])  # second mode unreachable
    assert pbh_test(a, b_full, "controllable").passed
    res = pbh_test(a, b_blind, "controllable")
    assert not res.passed
    assert res.witness == pytest.approx(0.3, abs=1e-9)


def _planted_pair(rng):
    """Random orthogonal similarity of [[A11, A12], [0, A22]] with b = T [B1; 0]."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
    r = int(rng.integers(1, n))
    a = rng.standard_normal((n, n))
    a[r:, :r] = 0.0
    b = np.zeros((n, m))
    b[:r] = rng.standard_normal((r, m))
    t, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return t @ a @ t.T, t @ b, np.linalg.eigvals(a[r:, r:])


def _diagonal_pair(rng):
    """Diagonal a with repeated entries and zero rows in b; a mode is unreachable
    when its row is zero or its value repeats more often than b has columns."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
    d = rng.choice([-0.9, -0.3, 0.5, 1.2], n)
    b = rng.standard_normal((n, m))
    zero = rng.random(n) < 0.3
    b[zero] = 0.0
    repeated = np.array([np.count_nonzero(d == x) > m for x in d])
    return np.diag(d), b, d[zero | repeated]


def _jordan_pair(rng):
    """Jordan blocks with distinct eigenvalues; zeroing the last row of a block's
    gain leaves that block's last state, with its eigenvalue, unreachable."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
    lams = rng.permutation([-1.5, -0.9, -0.3, 0.0, 0.5, 1.2])[: len(sizes)]
    a = np.zeros((n, n))
    # Entries bounded away from zero: a last-row entry eps puts a size-k block
    # within about eps^k of an uncontrollable pair, where the two tests may
    # rightly disagree (see the nearly defective test below).
    b = rng.choice([-1.0, 1.0], (n, m)) * rng.uniform(0.5, 2.0, (n, m))
    unreachable = []
    start = 0
    for size, lam in zip(sizes, lams):
        end = start + size
        a[start:end, start:end] = lam * np.eye(size) + np.eye(size, k=1)
        if rng.random() < 0.4:
            b[end - 1] = 0.0
            unreachable.append(lam)
        start = end
    return a, b, np.array(unreachable)


def _random_pair(rng):
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
    return rng.standard_normal((n, n)), rng.standard_normal((n, m)), np.array([])


def _as_mode(a, b, mode):
    """The pair that pbh_test in `mode` reads as (a, b): detectability is
    stabilizability of the transposed pair."""
    return (a.T, b) if mode == "detectable" else (a, b)


@pytest.mark.parametrize(
    "make,mode",
    [
        pytest.param(make, mode, id=make.__name__ + ("" if mode == "controllable" else "-" + mode))
        for mode in ("controllable", "stabilizable", "detectable")
        for make in (_random_pair, _planted_pair, _diagonal_pair, _jordan_pair)
    ],
)
def test_pbh_controllable_matches_the_eigenvector_test(make, mode):
    """The staircase verdict equals the eigenvector test's, restricted to the
    unstable eigenvalues for stabilizability and detectability; a failure names
    an eigenvalue of the unreachable block A22 (an unstable one for those two
    modes) and a finite margin."""
    rng = np.random.default_rng(11)
    unstable_only = mode != "controllable"
    failures = 0
    for _ in range(300):
        a, b, a22 = make(rng)
        res = pbh_test(*_as_mode(a, b, mode), mode)
        assert res.passed == pbh_eigenvector(a, b, unstable_only).passed
        # margin inf exactly on a vacuous pass: a stable a, not controllability
        vacuous = unstable_only and spectral_radius(a) < 1.0 - STABILITY_MARGIN
        assert np.isinf(res.margin) == vacuous
        if not res.passed:
            failures += 1
            assert np.abs(a22 - res.witness).min() < 1e-8
            if unstable_only:
                assert abs(res.witness) >= 1.0 - STABILITY_MARGIN
    if make is _random_pair:
        assert failures == 0
    else:
        assert failures > (100 if mode == "controllable" else 50)


@pytest.mark.parametrize("mode", ["controllable", "stabilizable", "detectable"])
def test_pbh_on_empty_state_and_empty_gain(mode):
    """n = 0 passes every mode with margin inf.  A gain with no columns reaches
    nothing: it fails controllability, and fails stabilizability exactly when
    a has an unstable eigenvalue, which it names as the witness."""
    for b in (np.zeros((0, 0)), np.zeros((0, 2))):
        assert pbh_test(np.zeros((0, 0)), b, mode) == (True, None, np.inf)
    empty = np.zeros((2, 0))
    res = pbh_test(np.diag([0.5, 1.5]), empty, mode)
    assert (res.passed, res.witness, res.margin) == (False, 1.5, 0.0)
    res = pbh_test(np.diag([0.5, 0.3]), empty, mode)
    if mode == "controllable":
        assert (res.passed, res.witness, res.margin) == (False, 0.5, 0.0)
    else:
        assert res == (True, None, np.inf)


def test_pbh_controllable_is_backward_stable_on_a_nearly_defective_pair():
    """J_4(1.2) with gain (1, 1, 1, 1e-3): the Krylov matrix has determinant
    1e-12, so a perturbation of A below the floor makes the pair uncontrollable.
    The staircase says so, and its witness is an eigenvalue of that nearby pair
    (a defective block moves by the fourth root of the perturbation); the
    eigenvector test looks only at the exact eigenvalue, sees a margin of 1e-3
    and passes.  Every eigenvalue is unstable, so the same holds for
    stabilizability, and for detectability on the transposed pair."""
    a = 1.2 * np.eye(4) + np.eye(4, k=1)
    b = np.array([[1.0], [1.0], [1.0], [1e-3]])
    krylov = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(4)])
    assert np.linalg.svd(krylov, compute_uv=False).min() < 1e-9
    for mode in ("controllable", "stabilizable", "detectable"):
        res = pbh_test(*_as_mode(a, b, mode), mode)
        assert not res.passed
        assert 0.0 < res.margin <= PBH_TOL * np.linalg.norm(a, 2)
        assert abs(res.witness - 1.2) < 1e-2
        assert pbh_eigenvector(a, b, unstable_only=mode != "controllable").passed


def _companion_pair(rng):
    """Companion a driven at its first state: n Krylov blocks of one column each."""
    n = int(rng.integers(2, 7))
    a = np.eye(n, k=-1)
    a[0] = rng.standard_normal(n)
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    return a, b, np.array([])


def _staircase_with_both_floors_first(a, b, tol):
    """The staircase computing ||b||_2 and ||a||_2 before its first block and
    orthogonalizing that block against the empty basis, as the oracle of
    ``_reachable_basis``'s shortcuts."""
    basis = np.zeros((a.shape[0], 0))
    block, floor = b, tol * max(1.0, float(np.linalg.norm(b, 2)))
    later_floor, margin = tol * max(1.0, float(np.linalg.norm(a, 2))), np.inf
    while basis.shape[1] < a.shape[0]:
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
        u, sing, _ = np.linalg.svd(block, full_matrices=False)
        keep = sing > floor
        if not keep.any():
            return basis, float(sing.max(initial=0.0))
        basis = np.hstack([basis, u[:, keep]])
        margin = min(margin, float(sing[keep].min()))
        block, floor = a @ u[:, keep], later_floor
    return basis, margin


def _count_svd_and_norm(monkeypatch) -> dict:
    calls = {"svd": 0, "norm": 0}
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", norm))
    return calls


def test_pbh_first_block_spanning_the_state_costs_one_svd(monkeypatch):
    """b of full row rank is the whole staircase: one SVD, whose largest
    singular value is ||b||_2, and no 2-norm of a."""
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 5))
    want = _staircase_with_both_floors_first(a, b, PBH_TOL)[1]
    calls = _count_svd_and_norm(monkeypatch)
    assert pbh_test(a, b) == (True, None, want)
    assert calls == {"svd": 1, "norm": 0}


def test_staircase_takes_one_svd_per_block(monkeypatch):
    """One SVD per Krylov block and ||a||_2 only once a second block is needed,
    with the basis and margin, bit for bit, of the staircase that computes
    both floors first: on n = 0, an empty gain, multi-block companion pairs
    and the pairs of the eigenvector comparison."""
    rng = np.random.default_rng(14)
    pairs = [(np.zeros((0, 0)), np.zeros((0, 2))), (np.diag([0.5, 1.5]), np.zeros((2, 0)))]
    for make in (_random_pair, _planted_pair, _diagonal_pair, _jordan_pair, _companion_pair):
        pairs += [make(rng)[:2] for _ in range(60)]
    calls = _count_svd_and_norm(monkeypatch)
    blocks = []
    for a, b in pairs:
        calls.update(svd=0, norm=0)
        want = _staircase_with_both_floors_first(a, b, PBH_TOL)
        blocks.append(calls["svd"])
        calls.update(svd=0, norm=0)
        basis, margin = ssgc.model._reachable_basis(a, b, PBH_TOL)
        assert np.array_equal(basis, want[0]) and margin == want[1]
        assert calls == {"svd": blocks[-1], "norm": int(blocks[-1] > 1)}
    assert blocks.count(0) == 1 and blocks.count(1) > 20 and max(blocks) >= 5


@pytest.mark.parametrize("mode", ["controllable", "stabilizable", "detectable"])
def test_pbh_rejects_non_finite_and_non_matrix_input(mode):
    for a, b, name in (
        (np.array([[np.nan]]), np.ones((1, 1)), "a"),
        (np.eye(1), np.array([[np.inf]]), "b"),
        (np.ones(2), np.ones((2, 1)), "a"),
        (np.eye(2), np.ones(2), "b"),
    ):
        with pytest.raises(ValueError, match=f"^{name} "):
            pbh_test(a, b, mode)


def test_pbh_stabilizable_ignores_stable_modes():
    a = np.diag([1.5, 0.3])
    b = np.array([[1.0], [0.0]])  # only the unstable mode is reachable
    assert pbh_test(a, b, "stabilizable").passed
    assert not pbh_test(np.diag([0.3, 1.5]), b, "stabilizable").passed


def test_pbh_detectable_is_dual():
    a = np.diag([1.5, 0.3])
    c = np.array([[1.0, 0.0]])
    assert pbh_test(a, c.T, "detectable").passed
    assert not pbh_test(a, np.array([[0.0, 1.0]]).T, "detectable").passed


def test_pbh_rejects_unknown_mode():
    with pytest.raises(ValueError):
        pbh_test(np.eye(2), np.eye(2), "observable")


def test_validate_iss_passes_on_random_models():
    rng = np.random.default_rng(1)
    for _ in range(10):
        report = validate_iss(random_iss(rng))
        assert report.passed, str(report)


def test_validate_iss_flags_each_defect():
    a = np.array([[0.5]])
    c = np.array([[1.0]])
    k = np.array([[0.4]])

    bad_v = validate_iss(ISSModel(a, c, k, np.array([[-1.0]])))
    flags = {ch.name: ch.passed for ch in bad_v.checks}
    assert not flags["V positive definite"]

    # K C overshoots A: A - KC = 0.5 - 3 = -2.5
    bad_gain = validate_iss(ISSModel(a, c, np.array([[3.0]]), np.eye(1)))
    flags = {ch.name: ch.passed for ch in bad_gain.checks}
    assert not flags["A - KC stable"]
    assert flags["V positive definite"]

    unstable = ISSModel(np.array([[1.1]]), c, np.array([[1.1]]), np.eye(1))
    report = validate_iss(unstable)
    flags = {ch.name: ch.passed for ch in report.checks}
    assert not flags["A stable"]
    assert not report.passed
    # instability of A is the only defect of this model
    assert all(ch.passed for ch in report.checks if ch.name != "A stable")


def test_validate_iss_controllability_at_n160():
    """A companion VAR(80) is controllable from K; one appended state that K
    never reaches (diag(A, 0.5), a zero row in K) fails that check alone."""
    rng = np.random.default_rng(12)
    mdl = bivariate_var(rng, 80)
    assert mdl.n == 160
    checks = {c.name: c for c in validate_iss(mdl).checks}
    assert all(c.passed for c in checks.values())

    n = mdl.n
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = mdl.A
    a[n, n] = 0.5
    k = np.vstack([mdl.K, np.zeros((1, mdl.p))])
    c_grown = np.hstack([mdl.C, rng.standard_normal((mdl.p, 1))])
    grown = ISSModel(a, c_grown, k, mdl.V, mdl.partition)
    checks = {c.name: c for c in validate_iss(grown).checks}
    ctr = checks.pop("(A, K) controllable")
    assert not ctr.passed and np.isfinite(ctr.witness)
    assert all(c.passed for c in checks.values())
    res = pbh_test(grown.A, grown.K, "controllable")
    assert res.witness == pytest.approx(0.5, abs=1e-8)
    assert res.margin == ctr.witness


def _report_by_pbh(model):
    """validate_iss's report with detectability always decided by pbh_test,
    as the oracle of its stable-A shortcut."""
    min_eig = float(np.linalg.eigvalsh(model.V).min())
    rho_err = spectral_radius(model.A - model.K @ model.C)
    det = pbh_test(model.A, model.C.T, "detectable")
    ctr = pbh_test(model.A, model.K, "controllable")
    rho_a = spectral_radius(model.A)
    return ValidationReport((
        Check("V positive definite", min_eig > 0.0, min_eig),
        Check("A - KC stable", rho_err < 1.0 - STABILITY_MARGIN, rho_err),
        Check("(A, C) detectable", det.passed, det.margin),
        Check("(A, K) controllable", ctr.passed, ctr.margin),
        Check("A stable", rho_a < 1.0 - STABILITY_MARGIN, rho_a),
    ))


def _validation_models():
    rng = np.random.default_rng(21)
    c, k = np.array([[1.0, 0.0]]), np.array([[1.0], [0.5]])
    return {
        "stable": bivariate_var(rng, 10),
        "stable-n160": bivariate_var(rng, 80),
        "unstable-detectable": ISSModel(np.diag([1.5, 0.3]), [[1.0, 1.0]], k, np.eye(1)),
        "unstable-undetectable": ISSModel(np.diag([0.3, 1.5]), c, k, np.eye(1)),
        "defective-stable": _jordan_block(0.9)[0],
        "defective-unstable": _jordan_block(1.0 + 1e-9)[0],
        "at-the-margin": ISSModel(_jordan_at_the_margin(), np.eye(2), np.eye(2), np.eye(2)),
    }


@pytest.mark.parametrize(
    "name",
    ["stable", "stable-n160", "unstable-detectable", "unstable-undetectable",
     "defective-stable", "defective-unstable", "at-the-margin"],
)
def test_validate_iss_reports_as_the_pbh_detectability_rule(name):
    """Deciding detectability from rho(A) leaves every check, verdict and
    witness as pbh_test gives them, and the stationarity it remembers raises
    the eigenvalue rule's error for an unstable A."""
    mdl = _validation_models()[name]
    report = validate_iss(mdl)
    assert report == _report_by_pbh(mdl)
    rho = spectral_radius(mdl.A)
    if rho < 1.0 - STABILITY_MARGIN:
        require_stationary(mdl)
    else:
        with pytest.raises(PreconditionError, match=f"spectral radius\\(A\\) = {rho:.6g}$"):
            require_stationary(mdl)


def test_validate_iss_decides_stationarity_for_the_analysis(monkeypatch):
    """After validate_iss(m), gem_time_domain(m) and gem_frequency(m) in both
    directions run no squaring certificate on m.A: validate_iss's eigenvalues
    fill the memo's stationarity slot.  A model not validated first is still
    certified."""
    model, other = (bivariate_var(np.random.default_rng(seed), 10) for seed in (22, 23))
    seen = []
    verdict = ssgc.model._squaring_verdict

    def recorded(power, j):
        seen.append(power)
        return verdict(power, j)

    monkeypatch.setattr(ssgc.model, "_squaring_verdict", recorded)
    grid = default_grid(256)
    for mdl, validated in ((model, True), (other, False)):
        if validated:
            assert validate_iss(mdl).passed
        seen.clear()
        gem_time_domain(mdl)
        gem_frequency(mdl, grid, "y->x")
        gem_frequency(mdl, grid, "x->y")
        on_a = [power for power in seen if np.shares_memory(power, mdl.A)]
        assert (on_a == []) == validated


def test_validate_report_renders_one_line_per_check():
    rng = np.random.default_rng(2)
    report = validate_iss(random_iss(rng))
    text = str(report)
    assert len(text.splitlines()) == len(report.checks)
    assert "ok" in text


def test_require_stationary_raises():
    mdl = ISSModel(np.array([[1.0]]), np.eye(1), np.eye(1), np.eye(1))
    with pytest.raises(PreconditionError, match=r"not stationary: spectral radius\(A\) = 1$"):
        require_stationary(mdl)


def test_require_stationary_decides_once_per_model(monkeypatch):
    """The verdict is remembered for the last model object: a second model of
    equal arrays is decided afresh, and an unstable model raises every time."""
    mdl = random_iss(np.random.default_rng(12))
    calls = []
    real = ssgc.model._radius_if_unstable

    def radius(a, *rest):
        calls.append(a)
        return real(a, *rest)

    monkeypatch.setattr(ssgc.model, "_radius_if_unstable", radius)
    require_stationary(mdl)
    require_stationary(mdl)
    assert len(calls) == 1
    require_stationary(dataclasses.replace(mdl))
    assert len(calls) == 2
    unstable = ISSModel(np.array([[1.0]]), np.eye(1), np.eye(1), np.eye(1))
    for _ in range(2):
        with pytest.raises(PreconditionError, match=r"spectral radius\(A\) = 1$"):
            require_stationary(unstable)
    assert len(calls) == 3


def test_var_to_iss_companion_structure():
    rng = np.random.default_rng(3)
    a1 = stable_matrix(rng, 2, radius=0.4)
    a2 = 0.1 * rng.standard_normal((2, 2))
    sigma = np.eye(2)
    mdl = var_to_iss([a1, a2], sigma, partition=JointPartition(1, 1))
    assert mdl.n == 4 and mdl.p == 2
    assert np.allclose(mdl.C, np.hstack([a1, a2]))
    assert np.allclose(mdl.K, np.vstack([np.eye(2), np.zeros((2, 2))]))
    assert np.allclose(mdl.V, sigma)
    assert np.allclose(mdl.A[:2], np.hstack([a1, a2]))
    assert np.allclose(mdl.A[2:], np.hstack([np.eye(2), np.zeros((2, 2))]))


def test_var_to_iss_matches_direct_transfer_function():
    """Companion-form spectrum equals inv(I - A1 L - A2 L^2) Sigma (.)* pointwise."""
    rng = np.random.default_rng(4)
    a1 = stable_matrix(rng, 2, radius=0.4)
    a2 = 0.15 * rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 3))
    sigma = g @ g.T + 0.5 * np.eye(2)
    mdl = var_to_iss([a1, a2], sigma)
    grid = default_grid(64)
    curve = spectrum_of_iss(mdl, grid)
    for lam, f in zip(grid, curve.values):
        el = np.exp(-1j * lam)
        h = np.linalg.inv(np.eye(2) - a1 * el - a2 * el**2)
        assert np.allclose(f, h @ sigma @ h.conj().T, atol=1e-10)


def test_var_to_iss_rejects_unstable_and_indefinite():
    with pytest.raises(PreconditionError, match="companion spectral radius = 1.01$"):
        var_to_iss([np.array([[1.01]])], np.eye(1))
    with pytest.raises(PreconditionError):
        var_to_iss([np.array([[0.5]])], np.array([[0.0]]))
    for bad, message in BAD_MATRICES:
        with pytest.raises(ValueError, match=rf"^coefficients\[1\] {message}"):
            var_to_iss([np.eye(1) / 2, bad], np.eye(1))
        with pytest.raises(ValueError, match=f"^sigma {message}"):
            var_to_iss([np.eye(1) / 2], bad)
    with pytest.raises(ValueError, match="^sigma must be symmetric$"):
        var_to_iss([np.eye(2) / 2], np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^partition does not match the output dimension$"):
        var_to_iss([np.eye(2) / 2], np.eye(2), JointPartition(1, 2))


def test_overflowing_noise_products_are_named():
    """K V K^T overflows for K = 1e200: every entry that forms it names the
    non-finite product instead of solving on it."""
    mdl = ISSModel([[0.3, 0.1], [0.1, 0.3]], np.eye(2), np.full((2, 2), 1e200), np.eye(2),
                   JointPartition(1, 1))
    calls = (lambda: downsample_iss(mdl, 2), lambda: gem_time_domain(mdl), mdl.as_ss,
             lambda: apply_fir_filter(mdl, FirFilter.identity(2)),
             lambda: autocovariance_of_iss(mdl, 1))
    with np.errstate(over="ignore"):
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()


@pytest.mark.parametrize("n, p, k", [(0, 2, 2), (3, 0, 2), (3, 2, 4), (4, 1, 1), (2, 3, 5)])
def test_driven_noise_is_the_joint_covariance_in_blocks(n, p, k):
    """SSModel._driven(A, C, G, D, W) holds [G; D] W [G; D]^T split into
    [[Q, S], [S^T, R]], symmetric and frozen, with A and C as given.  D given
    as a slice of W's rows is read as the selection matrix I[idx]: the same
    Q, R and S, up to the sign of exact zeros."""
    rng = np.random.default_rng(31 + 7 * n + p)
    a, c = rng.standard_normal((n, n)), rng.standard_normal((p, n))
    g, d, h = rng.standard_normal((n, k)), rng.standard_normal((p, k)), rng.standard_normal((k, k))
    w = h @ h.T
    mdl = SSModel._driven(a, c, g, d, w)
    gd = np.vstack((g, d))
    joint = gd @ w @ gd.T
    tol = 1e-13 * max(1.0, np.abs(joint).max(initial=0.0))
    for got, want in ((mdl.Q, joint[:n, :n]), (mdl.R, joint[n:, n:]), (mdl.S, joint[:n, n:])):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
        assert not got.flags.writeable
    assert np.array_equal(mdl.Q, mdl.Q.T) and np.array_equal(mdl.R, mdl.R.T)
    assert mdl.A is a and mdl.C is c and mdl.partition is None
    for idx in (slice(k - p, k), slice(0, p)):
        by_rows = SSModel._driven(a, c, g, idx, w)
        by_matrix = SSModel._driven(a, c, g, np.eye(k)[idx], w)
        for f in ("Q", "R", "S"):
            got, want = getattr(by_rows, f), getattr(by_matrix, f)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable


def test_models_the_package_computes_are_not_read_again(monkeypatch):
    """Arguments are read once, where they enter: no model the package builds
    from its own arrays reads a model field through _as_matrix again."""
    var1 = design_var1(Var1Design(0.6, -0.2, 0.1, 0.1, 0.2, sign_gx=-1))
    joint = var1.to_iss()
    filt = FirFilter.block_scalar([1.0, 0.3], [1.0], joint.partition)
    reads = []
    read = ssgc.model._as_matrix

    def counted(value, name, *ndim):
        reads.append(name)
        return read(value, name, *ndim)

    monkeypatch.setattr(ssgc.model, "_as_matrix", counted)
    calls = {
        "gem_time_domain": lambda: gem_time_domain(joint),
        "downsample_iss": lambda: downsample_iss(joint, 3),
        "apply_fir_filter": lambda: apply_fir_filter(joint, filt),
        "as_ss": joint.as_ss,
        "autocovariance_of_iss": lambda: autocovariance_of_iss(joint, 3),
        "to_iss": var1.to_iss,
    }
    for label, call in calls.items():
        reads.clear()
        call()
        assert [r for r in reads if r in {"A", "C", "K", "V", "Q", "R", "S"}] == [], label
    ISSModel(joint.A, joint.C, joint.K, joint.V)  # the public constructor still reads
    assert reads[-4:] == ["A", "C", "K", "V"]


def test_spectrum_is_hermitian_psd_curve():
    rng = np.random.default_rng(5)
    curve = spectrum_of_iss(random_iss(rng), default_grid(128))
    assert not curve.is_scalar
    assert len(curve) == 128
    vals = np.linalg.eigvalsh(curve.values)
    assert vals.min() > -1e-10


def test_autocovariance_matches_spectrum_quadrature():
    """Gamma(h) = mean over the uniform grid of f(lambda) e^{i lambda h}."""
    rng = np.random.default_rng(6)
    for _ in range(5):
        mdl = random_iss(rng)
        acov = autocovariance_of_iss(mdl, 10)
        curve = spectrum_of_iss(mdl)  # 4096 points
        phases = np.exp(1j * np.outer(np.arange(11), curve.grid))
        for h in range(11):
            quad = (curve.values * phases[h][:, None, None]).mean(axis=0)
            assert np.abs(quad.imag).max() < 1e-6
            assert np.abs(quad.real - acov[h]).max() < 1e-6


def test_autocovariance_negative_lag_transposes():
    rng = np.random.default_rng(7)
    model = random_iss(rng, n=3, px=1, py=2)
    acov = autocovariance_of_iss(model, 4)
    assert acov.h_max == 4
    assert np.array_equal(acov[-3], acov[3].T)
    assert np.array_equal(autocovariance_of_iss(model, np.int64(4)).gammas, acov.gammas)
    for bad in (-1, 2.5, True, 4.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="h_max must be a nonnegative integer"):
            autocovariance_of_iss(model, bad)


def test_autocovariance_zero_lag_is_symmetric_psd():
    rng = np.random.default_rng(8)
    g0 = autocovariance_of_iss(random_iss(rng), 0)[0]
    assert np.allclose(g0, g0.T)
    assert np.linalg.eigvalsh(g0).min() > 0


def test_solve_lyapunov_against_scipy():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = stable_matrix(rng, n)
        g = rng.standard_normal((n, n))
        w = g @ g.T
        mine = solve_lyapunov(a, w)
        ref = scipy.linalg.solve_discrete_lyapunov(a, w)
        assert np.abs(mine - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("n", [40, 160])
def test_solve_lyapunov_is_the_riccati_core_with_no_outputs(n):
    """Smith's iteration is the G = 0 case of the one doubling loop: with no
    outputs the Riccati core solves the same Stein equation."""
    rng = np.random.default_rng(n)
    a = stable_matrix(rng, n)
    g = rng.standard_normal((n, n))
    w = g @ g.T
    p = solve_lyapunov(a, w)
    sol = riccati_fixed_point(SSModel(a, np.zeros((0, n)), w, np.zeros((0, 0)), np.zeros((n, 0))))
    assert np.linalg.norm(p - sol.P) <= 1e-13 * np.linalg.norm(p)


def test_solve_lyapunov_converges_within_its_budget_near_the_margin():
    """A rotation scaled to rho = 1 - 1e-11 and a non-normal Jordan block at
    1 - 1e-9 sum 2^42 and 2^36 Smith terms in 43 and 37 steps; both fit the
    64-step budget and meet their closed forms to the problem's conditioning
    (a rounding of A moves P by about eps / (1 - rho))."""
    rho, angle = 1.0 - 1e-11, 0.3
    rot = rho * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    exact = np.eye(2) / ((1.0 - rho) * (1.0 + rho))
    assert np.linalg.norm(solve_lyapunov(rot, np.eye(2)) - exact) <= 1e-4 * np.linalg.norm(exact)

    # J = lam I + N driven at its second state: P = sum_k A^k e2 e2^T A^kT, in
    # closed form through the sums of k^i r^k, r = lam^2.
    d = 1e-9
    lam, one_minus_r = 1.0 - d, d * (2.0 - d)
    jordan = np.array([[lam, 1.0], [0.0, lam]])
    exact = np.array([
        [(1.0 + lam**2) / one_minus_r**3, lam / one_minus_r**2],
        [lam / one_minus_r**2, 1.0 / one_minus_r],
    ])
    p = solve_lyapunov(jordan, np.diag([0.0, 1.0]))
    assert np.linalg.norm(p - exact) <= 1e-6 * np.linalg.norm(exact)


def test_solve_lyapunov_names_its_own_failure():
    """A stable A whose squares overflow: the loop's failure keeps a Lyapunov
    prefix, so a Newton-Hewer step's solve is told apart from the Riccati
    doubling's own."""
    a = np.array([[0.5, 1e200], [0.0, 0.5]])
    with pytest.raises(ConvergenceError, match="^Lyapunov doubling diverged at step 2$"):
        solve_lyapunov(a, np.eye(2))


def test_solve_lyapunov_needs_stable_a():
    with pytest.raises(PreconditionError, match="needs stable A, spectral radius = 1$"):
        solve_lyapunov(np.array([[1.0]]), np.eye(1))
    # W never reaches the unstable mode, so Smith's sum converges; A is still unstable.
    with pytest.raises(PreconditionError, match="needs stable A, spectral radius = 2$"):
        solve_lyapunov(np.diag([0.5, 2.0]), np.diag([1.0, 0.0]))
    for a, w in ((np.full((2, 3), 0.1), np.eye(2)), (np.eye(2) / 2, np.eye(3))):
        with pytest.raises(ValueError, match="a must be a square matrix and w of the same shape"):
            solve_lyapunov(a, w)
    # The one array rule reads a first, so a 1-D a is named by its rank.
    with pytest.raises(ValueError, match=r"^a must be a 2-D array, got shape \(1,\)$"):
        solve_lyapunov(np.array([0.5]), np.eye(1))


def test_solve_lyapunov_reads_finite_matrices_by_name():
    """NaN or inf in a or w is a named ValueError, not an unnamed LinAlgError
    or a spent budget; a dict or a ragged list is not a numeric array."""
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^a contains non-finite entries$"):
            solve_lyapunov(np.array([[bad]]), np.eye(1))
        with pytest.raises(ValueError, match="^w contains non-finite entries$"):
            solve_lyapunov(np.eye(1) / 2, np.array([[bad]]))
    for a in ({"a": 0.5}, [[0.5], [0.5, 0.1]]):
        with pytest.raises(ValueError, match="^a is not a numeric array$"):
            solve_lyapunov(a, np.eye(1))


def test_frequency_response_identity_at_zero_gain():
    mdl = ISSModel(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.0]]), np.eye(1))
    h = mdl.frequency_response(default_grid(16))
    assert np.allclose(h, np.ones((16, 1, 1)))


def test_frequency_response_checks_its_grid():
    mdl = random_iss(np.random.default_rng(10))
    bad = {
        "non-finite": [0.0, np.nan, 1.0],
        "must not be empty": [],
        "1-D": [[0.0, 1.0]],
        "strictly increasing": [0.0, 1.0, 1.0],
        "one period": [-np.pi, np.pi + 0.1],
    }
    for message, grid in bad.items():
        with pytest.raises(ValueError, match=message):
            mdl.frequency_response(grid)
    for grid, message in BAD_GRIDS:
        with pytest.raises(ValueError, match=message):
            mdl.frequency_response(grid)
    want = transfer_function_pointwise(mdl, np.array([0.3]))
    assert _relative_error(mdl.frequency_response([0.3]), want) < 1e-12
    # a pole on the grid is the caller's model, not an internal error
    pole = ISSModel([[1.0]], [[1.0]], [[0.5]], [[1.0]])
    with pytest.raises(PreconditionError, match="eigenvalue of A"):
        pole.frequency_response([-1.0, 0.0, 1.0])


def test_frequency_response_remembers_one_model_and_grid(monkeypatch):
    """H is evaluated once per model object and grid; a second grid or a
    second model of equal arrays is evaluated afresh, the caller owns every
    returned array, and the grid is checked on every call."""
    mdl = random_iss(np.random.default_rng(13), n=4)
    calls = []
    real = ssgc.model._transfer_uniform

    def transfer(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ssgc.model, "_transfer_uniform", transfer)
    grid = default_grid(64)
    h = mdl.frequency_response(grid)
    again = mdl.frequency_response(list(grid))
    assert len(calls) == 1
    assert again is not h and np.array_equal(again, h)
    h[:] = 0.0
    assert np.array_equal(mdl.frequency_response(grid), again)
    assert len(calls) == 1
    shifted = mdl.frequency_response(grid + 0.01)
    assert len(calls) == 2
    assert _relative_error(shifted, transfer_function_pointwise(mdl, grid + 0.01)) < 1e-12
    assert np.array_equal(mdl.frequency_response(grid), again)
    assert len(calls) == 3
    assert np.array_equal(dataclasses.replace(mdl).frequency_response(grid), again)
    assert len(calls) == 4
    for bad, message in (([0.0, 1.0, 1.0], "strictly increasing"), (grid[::-1], "increasing"),
                         (np.append(grid, np.nan), "non-finite"), *BAD_GRIDS):
        with pytest.raises(ValueError, match=message):
            mdl.frequency_response(bad)
    assert len(calls) == 4


def test_remembered_model_is_not_kept_alive():
    mdl = random_iss(np.random.default_rng(14))
    require_stationary(mdl)
    mdl.frequency_response(default_grid(32))
    extract_submodel(mdl, "x")
    ref = weakref.ref(mdl)
    del mdl
    gc.collect()
    assert ref() is None


def test_remembered_transfer_is_held_off_the_heap():
    """The memo's copy of H lives in pages of its own, so once the caller
    drops its H the package holds no more heap memory than the key grid."""
    mdl = random_iss(np.random.default_rng(17), n=4)
    grid = default_grid(4096)
    tracemalloc.start()
    try:
        h = mdl.frequency_response(grid)
        del h
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * len(grid) * mdl.p**2


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _refuse_dense_rule(monkeypatch):
    """Make the dense transfer rule fail, so a call that returns took the uniform one."""

    def refuse(*args):
        raise AssertionError("the dense transfer rule was called")

    monkeypatch.setattr(ssgc.model, "_transfer_dense", refuse)


@pytest.mark.parametrize(
    "grid",
    [default_grid(512), default_grid(512) + 0.37, default_grid(513)],
    ids=["default", "shifted", "odd"],
)
def test_uniform_transfer_matches_pointwise_solve(monkeypatch, grid):
    _refuse_dense_rule(monkeypatch)
    rng = np.random.default_rng(11)
    for _ in range(10):
        mdl = random_iss(rng)
        want = transfer_function_pointwise(mdl, grid)
        assert _relative_error(mdl.frequency_response(grid), want) < 1e-12


def test_uniform_transfer_on_hrf_filtered_references(monkeypatch):
    """Defective shift registers (n = 66) on the default grid."""
    _refuse_dense_rule(monkeypatch)
    grid = default_grid()
    for mdl in hrf_filtered_references():
        assert mdl.n == 66
        want = transfer_function_pointwise(mdl, grid)
        assert _relative_error(mdl.frequency_response(grid), want) < 1e-12


@pytest.mark.parametrize("n_pts", [1, 2, 3, 5, 63, 65, 4097])
def test_uniform_transfer_on_uneven_and_tiny_grids(monkeypatch, n_pts):
    """Grids where s * ceil(N / s) != N, or N is tiny, from a shifted start: the
    baby-step/giant-step product of Markov parameters is cut to N."""
    _refuse_dense_rule(monkeypatch)
    rng = np.random.default_rng(17)
    grid = -np.pi + 0.37 + 2.0 * np.pi * np.arange(n_pts) / n_pts
    for mdl in [random_iss(rng) for _ in range(3)] + hrf_filtered_references()[:1]:
        want = transfer_function_pointwise(mdl, grid)
        assert _relative_error(mdl.frequency_response(grid), want) < 1e-12


def test_uniform_transfer_memory_stays_below_the_row_stack(monkeypatch):
    """At n = 160 on 4096 points the traced peak stays below the (N p, n) stack
    of every row C A^k, k < N, that the rule no longer builds."""
    _refuse_dense_rule(monkeypatch)
    mdl = bivariate_var(np.random.default_rng(15), 80)
    grid = default_grid(4096)
    tracemalloc.start()
    try:
        mdl.frequency_response(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(grid) * mdl.p * mdl.n * 8


def _coupled_real_root(rho):
    """A real root rho next to the grid point lambda = 0, non-normally coupled
    to a second mode; A^N has barely decayed (rho^4096 = 0.9996 at 1 - 1e-7)."""
    a = np.array([[rho, 0.3], [0.0, -0.6]])
    mdl = ISSModel(a, np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([[1.0, 0.0], [0.3, 1.0]]), np.eye(2))
    return mdl, default_grid(), 1e-11


def _nonnormal_rotation():
    """rho = 0.99999, rho^4096 = 0.96, but ||A^4096||_1 = 21."""
    cos, sin = np.cos(0.3), np.sin(0.3)
    a = 0.99999 * np.array([[cos, -50.0 * sin], [sin / 50.0, cos]])
    mdl = ISSModel(a, np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([[1.0, 0.0], [0.3, 1.0]]), np.eye(2))
    return mdl, default_grid(4096), 1e-12


def _hrf_near_one_sided():
    """The HRF-filtered NEAR_ONE_SIDED design on 512 points: ||A^512||_1 = 2."""
    return hrf_filtered_references()[2], default_grid(512), 1e-12


def _jordan_block(rho):
    """J_6(rho) with superdiagonal 0.5: ||A^512||_1 up to 9e9 at rho = 0.9999."""
    rng = np.random.default_rng(14)
    a = rho * np.eye(6) + 0.5 * np.eye(6, k=1)
    mdl = ISSModel(a, rng.standard_normal((2, 6)), rng.standard_normal((6, 2)), np.eye(2))
    return mdl, default_grid(512), 1e-12


NEAR_UNIT_ROOTS = [
    pytest.param(lambda: _coupled_real_root(0.999), id="0.999"),
    pytest.param(lambda: _coupled_real_root(0.99999), id="0.99999"),
    pytest.param(lambda: _coupled_real_root(1.0 - 1e-7), id="0.9999999"),
    pytest.param(_nonnormal_rotation, id="nonnormal-rotation"),
    pytest.param(_hrf_near_one_sided, id="hrf-near-one-sided"),
    pytest.param(lambda: _jordan_block(0.99), id="jordan-0.99"),
    pytest.param(lambda: _jordan_block(0.999), id="jordan-0.999"),
    pytest.param(lambda: _jordan_block(0.9999), id="jordan-0.9999"),
]


@pytest.mark.parametrize("case", NEAR_UNIT_ROOTS)
def test_uniform_transfer_near_a_unit_root(monkeypatch, case):
    """Stable A whose A^N has not decayed in the 1-norm still takes the uniform
    rule: a later squaring certifies rho(A) < 1."""
    _refuse_dense_rule(monkeypatch)
    mdl, grid, tol = case()
    want = transfer_function_pointwise(mdl, grid)
    assert _relative_error(mdl.frequency_response(grid), want) < tol


def _transfer_with_the_chain_first(a, c, k, grid):
    """The uniform rule that folds A^N - I into its squaring loop and solves
    for (I - w A^N)^{-1} K on every model, as the oracle of the chain branch
    of ``_transfer_uniform``."""
    n_pts, n = len(grid), a.shape[0]
    step = 2.0 * np.pi / n_pts
    eye = np.eye(n)
    squares, ex, excess = [a], a - eye, np.zeros((n, n))
    with np.errstate(all="ignore"):
        for j in range(n_pts.bit_length()):
            if j:
                ex = ex @ (squares[-1] + eye)
                squares.append(squares[-1] @ squares[-1])
            if n_pts >> j & 1:
                excess = excess @ squares[-1] + ex
    shift = int(np.rint(grid[0] / step))
    lam0 = grid[0] - shift * step
    omega = np.exp(-1j * n_pts * lam0)
    gain = np.linalg.solve((1.0 - omega) * eye - omega * excess, k)
    level = (n_pts - 1).bit_length() // 2
    s, p, q = 1 << level, c.shape[0], k.shape[1]
    baby = ssgc.model._power_rows(c, squares[:level], s)
    gain_t = np.concatenate((gain.real, gain.imag), axis=1).T
    giant = ssgc.model._power_rows(gain_t, [sq.T for sq in squares[level:]], -(-n_pts // s))
    products = (baby @ giant.T).reshape(s, p, -1, 2 * q).transpose(2, 0, 1, 3)
    products = products.reshape(-1, p, 2 * q)[:n_pts]
    markov = products[..., :q] + 1j * products[..., q:]
    markov *= np.exp(-1j * lam0 * np.arange(n_pts))[:, None, None]
    h = np.roll(np.fft.fft(markov, axis=0), -shift, axis=0)
    return np.exp(-1j * grid)[:, None, None] * h


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    return calls


@pytest.mark.parametrize("case", NEAR_UNIT_ROOTS)
def test_uniform_transfer_chain_is_the_reference_bit_for_bit(monkeypatch, case):
    """Where A^N has not decayed below rounding, the rule runs the excess chain
    and its one solve, and H equals the reference's bit for bit."""
    mdl, grid, _ = case()
    want = _transfer_with_the_chain_first(mdl.A, mdl.C, mdl.K, grid)
    solves = _count_solves(monkeypatch)
    got = ssgc.model._transfer_uniform(mdl.A, mdl.C, mdl.K, grid)
    assert len(solves) == 1
    assert np.array_equal(got, want)


def _aliasing_at(norm, n_pts):
    """A random n = 4 model rescaled so that ||A^N||_1, by squaring, is norm."""
    mdl = random_iss(np.random.default_rng(19), n=4)
    power = mdl.A
    for _ in range(n_pts.bit_length() - 1):
        power = power @ power
    scale = (norm / np.abs(power).sum(axis=0).max()) ** (1.0 / n_pts)
    return dataclasses.replace(mdl, A=scale * mdl.A)


@pytest.mark.parametrize("factor, solves", [(0.5, 0), (0.99, 0), (1.01, 1), (2.0, 1)])
def test_uniform_transfer_skips_the_aliasing_solve_below_rounding(monkeypatch, factor, solves):
    """||A^N||_1 <= eps makes (I - w A^N)^{-1} the identity to working precision:
    the rule takes G = K with no solve.  Just above eps it runs the chain and
    its solve.  Both branches match the pointwise resolvent solve."""
    n_pts = 512
    eps = np.finfo(float).eps
    mdl = _aliasing_at(factor * eps, n_pts)
    power = mdl.A
    for _ in range(n_pts.bit_length() - 1):
        power = power @ power
    assert (np.abs(power).sum(axis=0).max() <= eps) == (solves == 0)
    _refuse_dense_rule(monkeypatch)
    for grid in (default_grid(n_pts), default_grid(n_pts) + 0.37):
        want = transfer_function_pointwise(mdl, grid)
        calls = _count_solves(monkeypatch)
        got = mdl.frequency_response(grid)
        assert len(calls) == solves
        assert _relative_error(got, want) < 1e-12


def _companion_160(rho):
    """A bivariate VAR(80) companion matrix (n = 160) rescaled to spectral radius rho."""
    a = bivariate_var(np.random.default_rng(15), 80).A.copy()
    a[:2, :] *= np.repeat((rho / spectral_radius(a)) ** np.arange(1, 81), 2)
    return a


def _jordan_at_the_margin():
    """rho = 1 - 1.05e-12, just inside the margin: (1 - 1e-12)^(2^j) underflows
    before ||A^(2^j)||_1 falls below it, so only the eigenvalues decide."""
    r = 1.0 - 1.05e-12
    return np.array([[r, 1.0], [0.0, r]])


@pytest.mark.parametrize(
    "make,certified",
    [
        pytest.param(lambda: _coupled_real_root(0.999)[0].A, True, id="coupled-0.999"),
        pytest.param(lambda: _coupled_real_root(1.0 - 1e-7)[0].A, True, id="coupled-0.9999999"),
        pytest.param(lambda: _nonnormal_rotation()[0].A, True, id="nonnormal-rotation"),
        pytest.param(lambda: _hrf_near_one_sided()[0].A, True, id="hrf-near-one-sided"),
        pytest.param(lambda: _jordan_block(0.99)[0].A, True, id="jordan-0.99"),
        pytest.param(lambda: _jordan_block(0.9999)[0].A, True, id="jordan-0.9999"),
        pytest.param(lambda: _companion_160(1.0 - 1e-9), True, id="companion-1-1e-9"),
        pytest.param(lambda: np.zeros((0, 0)), True, id="empty"),
        pytest.param(lambda: np.zeros((3, 3)), True, id="zero"),
        pytest.param(_jordan_at_the_margin, False, id="jordan-at-the-margin"),
        pytest.param(lambda: _coupled_real_root(1.0)[0].A, False, id="unit-root"),
        pytest.param(lambda: np.array([[0.0, -1.0], [1.0, 0.0]]), False, id="unit-rotation"),
        pytest.param(lambda: _companion_160(1.0 + 1e-9), False, id="companion-1+1e-9"),
        pytest.param(lambda: _companion_160(1.05), False, id="companion-1.05"),
    ],
)
def test_stability_rule_matches_the_spectral_radius(make, certified):
    """The verdict is rho(A) < 1 - STABILITY_MARGIN, without over- or underflow;
    the squaring certificate decides every planted stable matrix but the one
    within 5e-14 of the margin."""
    a = make()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert ssgc.model._is_stable(a) == (spectral_radius(a) < 1.0 - STABILITY_MARGIN)
        assert ssgc.model._certified_stable(a, 0) == certified


class _CountedSquares(np.ndarray):
    """An array that counts the products taken of it."""

    products = 0

    def __matmul__(self, other):
        _CountedSquares.products += 1
        return super().__matmul__(other)


def _complex_pair(radius, angle):
    """Eigenvalues radius e^(+-j angle), in a non-normal basis."""
    c, s = np.cos(angle), np.sin(angle)
    basis = np.array([[1.0, 3.0], [0.0, 1.0]])
    return basis @ (radius * np.array([[c, -s], [s, c]])) @ np.linalg.inv(basis)


@pytest.mark.parametrize(
    "a, most",
    [
        pytest.param(np.diag([1.2, 0.5]), 2, id="real"),
        pytest.param(np.diag([-1.5, 0.3]), 1, id="real-negative"),
        pytest.param(_complex_pair(1.02, 0.7), 2, id="complex-pair"),
        pytest.param(_complex_pair(1.005, 1.0), 4, id="complex-pair-1.005"),
        pytest.param(np.array([[1.01, 1.0, 0.0], [0.0, 1.01, 1.0], [0.0, 0.0, 1.01]]), 0, id="jordan"),
        pytest.param(_jordan_block(1.0 + 1e-9)[0].A, 0, id="jordan-unit"),
    ],
)
def test_failing_certificate_stops_at_the_trace_bound(a, most):
    """|tr A^(2^i)| >= n (1 - STABILITY_MARGIN)^(2^i) proves that no certificate
    exists, so an unstable A is left to its eigenvalues after a few squarings
    instead of squaring until the norm passes 1e100."""
    _CountedSquares.products = 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert not ssgc.model._certified_stable(a.view(_CountedSquares), 0)
        assert ssgc.model._radius_if_unstable(a) == spectral_radius(a)
    assert _CountedSquares.products <= most


def _count_eigvals(monkeypatch) -> list:
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    return calls


@pytest.mark.parametrize(
    "a",
    [
        pytest.param(np.array([[1.2]]), id="scalar"),
        pytest.param(np.array([[-1.5]]), id="scalar-negative"),
        pytest.param(np.diag([1.5, 0.3]), id="real"),
        pytest.param(_complex_pair(1.02, 0.7), id="complex-pair"),
    ],
)
def test_trace_bound_decides_instability_without_eigvals(monkeypatch, a):
    """|tr A^(2^i)| >= n (1 - STABILITY_MARGIN)^(2^i), clear of rounding, is the
    verdict: the detectability premise of an unstable a needs no eigenvalue,
    and a pair whose gain reaches every state passes on its staircase."""
    b = np.ones((len(a), 1))
    calls = _count_eigvals(monkeypatch)
    assert ssgc.model._squaring_verdict(a.T, 0) is False
    res = pbh_test(a, b, "detectable")
    assert res.passed and res.witness is None and np.isfinite(res.margin)
    assert calls == []


def test_pbh_premise_agrees_with_the_eigenvalue_rule(monkeypatch):
    """Every pbh_test result, verdict, witness and margin, on the staircase
    pairs and the stability rule's matrices at and near the margin, equals the
    one whose stable-a premise is decided by the eigenvalues alone."""
    rng = np.random.default_rng(20)
    pairs = [make(rng)[:2] for make in (_random_pair, _planted_pair, _diagonal_pair,
                                        _jordan_pair, _companion_pair) for _ in range(100)]
    for a in (_jordan_at_the_margin(), _coupled_real_root(1.0)[0].A, _jordan_block(1.0 + 1e-9)[0].A,
              _companion_160(1.0 + 1e-9), _companion_160(1.0 - 1e-9), np.array([[1.0 - 1e-12]])):
        pairs += [(a, np.eye(len(a), 1)), (a, np.zeros((len(a), 0)))]
    modes = ("stabilizable", "detectable")
    got = [pbh_test(a, b, mode) for a, b in pairs for mode in modes]
    monkeypatch.setattr(
        ssgc.model, "_is_stable", lambda a: spectral_radius(a) < 1.0 - STABILITY_MARGIN
    )
    assert got == [pbh_test(a, b, mode) for a, b in pairs for mode in modes]


def test_checks_of_a_stable_model_skip_eigvals(monkeypatch):
    """Stationarity and the vacuous PBH premises are certified by squarings;
    validate_iss computes only the two spectral radii it reports."""
    model = bivariate_var(np.random.default_rng(16), 10)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))

    def count(op):
        calls.clear()
        op()
        return len(calls)

    assert count(lambda: gem_time_domain(model)) == 0
    assert count(lambda: gem_frequency(model, default_grid(256), "y->x")) == 0
    assert count(lambda: gem_frequency(model, default_grid(256), "x->y")) == 0
    assert count(lambda: validate_iss(model)) == 2
    assert validate_iss(model).passed


def test_transfer_of_a_stateless_model_is_exactly_identity():
    mdl = ISSModel(np.zeros((0, 0)), np.zeros((2, 0)), np.zeros((0, 2)), np.eye(2))
    irregular = np.sort(np.random.default_rng(12).uniform(-np.pi, np.pi, 20))
    for grid in (default_grid(64), irregular):
        h = mdl.frequency_response(grid)
        assert np.array_equal(h, np.broadcast_to(np.eye(2), (len(grid), 2, 2)))


def test_transfer_falls_back_to_pointwise_solve(monkeypatch):
    """A non-uniform grid and an unstable A take the dense rule, in chunks."""
    calls = []
    dense = ssgc.model._transfer_dense
    monkeypatch.setattr(ssgc.model, "_transfer_dense", lambda *args: calls.append(1) or dense(*args))
    # seven points per chunk, so chunk boundaries fall inside the grids
    monkeypatch.setattr(ssgc.model, "DENSE_CHUNK_BYTES", 7 * 16 * 4 * 4)
    rng = np.random.default_rng(13)
    mdl = random_iss(rng, n=4)
    irregular = np.sort(rng.uniform(-np.pi, np.pi, 300))
    unstable = ISSModel(
        stable_matrix(rng, 4, radius=1.05), rng.standard_normal((2, 4)),
        rng.standard_normal((4, 2)), np.eye(2),
    )
    for model, grid in ((mdl, irregular), (unstable, default_grid(256))):
        want = transfer_function_pointwise(model, grid)
        assert _relative_error(model.frequency_response(grid), want) < 1e-12
    assert len(calls) == 2


def test_gem_frequency_at_n400_keeps_memory_small():
    """No (N, n, n) stack: at n = 400 on 4096 points that stack alone would take
    9.8 GiB.  The child caps its address space at 8 GiB, so a regression fails
    with MemoryError instead of exhausting the host."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ssgc.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    code = (
        "import resource\n"
        "cap, hard = 8 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    cap = min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "import numpy as np\n"
        "from ssgc import default_grid, gem_frequency\n"
        "from support import bivariate_var\n"
        "gem_frequency(bivariate_var(np.random.default_rng(0), 200), default_grid(4096))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    peak_mb = int(out.stdout) / (2**20 if sys.platform == "darwin" else 2**10)  # bytes or KiB
    assert peak_mb < 400


def test_as_ss_round_trips_through_riccati():
    from ssgc import solve_dare

    rng = np.random.default_rng(10)
    mdl = random_iss(rng, n=3, px=1, py=1)
    sol = solve_dare(mdl.as_ss())
    assert np.abs(sol.K - mdl.K).max() < 1e-8
    assert np.abs(sol.V - mdl.V).max() < 1e-8
