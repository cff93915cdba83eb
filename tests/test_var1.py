"""Bivariate VAR(1) designs with prescribed eigenvalues and causality floor."""

import numpy as np
import pytest

from support import BAD_MATRICES, feasible_designs

from ssgc import (
    InfeasibleDesignError,
    Var1Design,
    Var1Model,
    design_var1,
    gem_time_domain,
    var1_fyx_closed_form,
)


def test_designed_matrix_has_requested_eigenvalues():
    rng = np.random.default_rng(60)
    for design, model in feasible_designs(rng, 40):
        eigs = sorted(np.linalg.eigvals(model.A), key=lambda z: (z.real, z.imag))
        want = sorted([design.lambda1, design.lambda2], key=lambda z: (z.real, z.imag))
        assert np.allclose(eigs, want, atol=1e-10)
        assert np.allclose(model.sigma, [[1.0, design.rho], [design.rho, 1.0]])
    # A repeated eigenvalue with nonzero coupling makes A defective, and eigvals
    # of a defective 2x2 is accurate only to about sqrt(eps): check the trace
    # and determinant instead, and the measures against the closed form.
    for lam in (0.5, 0.9, -0.7):
        for xi in (0.01, 0.3, 1.0):
            for signs in ((1, -1), (-1, 1)):
                model = design_var1(Var1Design(lam, lam, xi, xi, 0.0, *signs))
                assert np.trace(model.A) == pytest.approx(2 * lam, abs=1e-15)
                assert np.linalg.det(model.A) == pytest.approx(lam * lam, abs=1e-15)
                g = gem_time_domain(model.to_iss())
                assert var1_fyx_closed_form(model) == pytest.approx(g.fyx, abs=1e-12)
                assert var1_fyx_closed_form(model, "x->y") == pytest.approx(g.fxy, abs=1e-12)


def test_closed_form_matches_model_pipeline():
    rng = np.random.default_rng(61)
    for _, model in feasible_designs(rng, 40):
        g = gem_time_domain(model.to_iss())
        assert var1_fyx_closed_form(model) == pytest.approx(g.fyx, abs=1e-8)
        assert var1_fyx_closed_form(model, "x->y") == pytest.approx(g.fxy, abs=1e-8)


def test_measure_respects_designed_floor():
    """The received dynamic influence is at least ln(1 + xi) by construction."""
    rng = np.random.default_rng(62)
    for design, model in feasible_designs(rng, 40):
        assert var1_fyx_closed_form(model) >= np.log1p(design.xi_x) - 1e-12
        assert var1_fyx_closed_form(model, "x->y") >= np.log1p(design.xi_y) - 1e-12


def test_zero_coupling_forces_zero_measure():
    model = design_var1(Var1Design(0.6, -0.2, 0.0, 0.0, 0.3))
    assert var1_fyx_closed_form(model) == pytest.approx(0.0, abs=1e-14)
    g = gem_time_domain(model.to_iss())
    assert g.fyx == pytest.approx(0.0, abs=1e-10)
    assert g.fxy == pytest.approx(0.0, abs=1e-10)
    assert g.fydx == pytest.approx(-np.log1p(-0.09), abs=1e-12)


def test_root_case_swaps_diagonal_assignment():
    d1 = Var1Design(0.7, 0.1, 0.3, 0.3, 0.0, sign_gx=-1, root_case=1)
    d2 = Var1Design(0.7, 0.1, 0.3, 0.3, 0.0, sign_gx=-1, root_case=2)
    m1, m2 = design_var1(d1), design_var1(d2)
    assert m1.A[0, 0] == pytest.approx(m2.A[1, 1], abs=1e-12)
    assert not np.isclose(m1.A[0, 0], m2.A[0, 0])


def test_sign_choices_flip_couplings():
    # xi small enough that both sign configurations stay feasible
    base = dict(lambda1=0.6, lambda2=-0.2, xi_x=0.08, xi_y=0.08, rho=0.1)
    plus = design_var1(Var1Design(**base, sign_gy=1))
    minus = design_var1(Var1Design(**base, sign_gy=-1))
    assert plus.A[1, 0] > 0
    assert plus.A[1, 0] == pytest.approx(-minus.A[1, 0], abs=1e-12)


def test_infeasible_real_pair_reports_case():
    with pytest.raises(InfeasibleDesignError, match="real-pair"):
        design_var1(Var1Design(0.5, 0.3, 9.0, 9.0, 0.0))


def test_infeasible_complex_pair_reports_case():
    lam = 0.9 * np.exp(1j * 0.3)
    with pytest.raises(InfeasibleDesignError, match="complex-pair"):
        design_var1(Var1Design(lam, np.conj(lam), 1.0, 1.0, 0.0))


def test_complex_eigenvalues_must_conjugate():
    with pytest.raises(InfeasibleDesignError, match="conjugate"):
        design_var1(Var1Design(0.99 * np.exp(1j * 0.25), 0.95 * np.exp(-1j * 0.25),
                               0.1, 3.0, -0.8))


def test_design_container_validation():
    with pytest.raises(ValueError):
        Var1Design(0.5, 0.3, -0.1, 0.0, 0.0)  # negative xi
    with pytest.raises(ValueError):
        Var1Design(0.5, 0.3, 0.1, 0.1, 1.0)  # |rho| must be < 1
    with pytest.raises(ValueError):
        Var1Design(1.01, 0.3, 0.1, 0.1, 0.0)  # eigenvalue outside unit disc
    with pytest.raises(ValueError):
        Var1Design(0.5, 0.3, 0.1, 0.1, 0.0, sign_gx=2)
    with pytest.raises(ValueError):
        Var1Design(0.5, 0.3, 0.1, 0.1, 0.0, root_case=3)
    for bad in (True, 1.0):  # selectors are integers, never a bool or a float
        for field in ("sign_gx", "sign_gy", "root_case"):
            with pytest.raises(ValueError):
                Var1Design(0.5, 0.3, 0.1, 0.1, 0.0, **{field: bad})
    Var1Design(0.5, 0.3, 0.1, 0.1, 0.0, sign_gy=np.int64(-1), root_case=np.int64(2))  # numpy ints
    # NaN passes xi < 0 and |lambda| >= 1, inf passes xi < 0: all are named
    # here, not by a LinAlgError in design_var1.
    base = dict(lambda1=0.5, lambda2=0.3, xi_x=0.1, xi_y=0.1, rho=0.0)
    for xi in (np.nan, np.inf):
        for field in ("xi_x", "xi_y"):
            with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
                Var1Design(**{**base, field: xi})
    for lam in (np.nan, complex(0.5, np.nan)):
        with pytest.raises(ValueError, match="strictly inside the unit circle"):
            Var1Design(0.5, lam, 0.1, 0.1, 0.0)
    for bad, message in BAD_MATRICES:
        with pytest.raises(ValueError, match=f"^A {message}"):
            Var1Model(bad, np.eye(2))
        with pytest.raises(ValueError, match=f"^sigma {message}"):
            Var1Model(np.eye(2) / 2, bad)
    # Named where sigma enters, not later as the V of to_iss.
    with pytest.raises(ValueError, match="^sigma must be symmetric$"):
        Var1Model(np.eye(2) / 2, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_closed_form_direction_validated():
    model = design_var1(Var1Design(0.6, -0.2, 0.1, 0.1, 0.0, sign_gx=-1))
    with pytest.raises(ValueError, match="direction must be 'y->x' or 'x->y'"):
        var1_fyx_closed_form(model, "y->y")
