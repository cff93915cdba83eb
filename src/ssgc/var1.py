"""Bivariate VAR(1) designs with prescribed eigenvalues and causal strengths.

The designed model is

    x[t] = phi_x x[t-1] + gamma_x y[t-1] + a[t]
    y[t] = gamma_y x[t-1] + phi_y y[t-1] + b[t]

with unit innovation variances and correlation rho.  The feedback gains are
fixed by the causal strength parameters, gamma = sign * sqrt(xi) / sqrt(1 -
rho^2), and the diagonal terms are the two roots of a quadratic matching the
requested eigenvalues, selected explicitly by ``root_case`` (no search).  The
closed form for the dynamic measure F_{y->x} follows from the ARMA(1,1)
reduction of the x equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDesignError
from .model import ISSModel, JointPartition, _as_matrix, _check_symmetric, _companion_iss, _is_int

__all__ = ["Var1Design", "Var1Model", "design_var1", "var1_fyx_closed_form"]


@dataclass(frozen=True)
class Var1Design:
    """Design parameters: eigenvalues, causal strengths, correlation, selectors."""

    lambda1: complex
    lambda2: complex
    xi_x: float
    xi_y: float
    rho: float
    sign_gx: int = 1
    sign_gy: int = 1
    root_case: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.xi_x < math.inf and 0.0 <= self.xi_y < math.inf):
            raise ValueError("causal strengths xi must be finite and nonnegative")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if not all(_is_int(s) and s in (-1, 1) for s in (self.sign_gx, self.sign_gy)):
            raise ValueError("sign selectors must be the integers +1 or -1")
        if not (_is_int(self.root_case) and self.root_case in (1, 2)):
            raise ValueError("root_case must be the integer 1 or 2")
        for lam in (self.lambda1, self.lambda2):
            if not abs(lam) < 1.0:  # NaN is not inside either
                raise ValueError("eigenvalues must lie strictly inside the unit circle")


@dataclass(frozen=True, eq=False)
class Var1Model:
    """Designed coefficient matrix and innovation covariance (read symmetric)."""

    A: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        a = _as_matrix(self.A, "A")
        s = _check_symmetric(_as_matrix(self.sigma, "sigma"), "sigma")
        if a.shape != (2, 2) or s.shape != (2, 2):
            raise ValueError("Var1Model matrices must be 2x2")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "sigma", s)

    def to_iss(self) -> ISSModel:
        """``var_to_iss([A], sigma)``, on the matrices this model has already read
        (A is the r = 1 stack of lags)."""
        return _companion_iss(self.A, self.sigma, JointPartition(1, 1))


def design_var1(design: Var1Design) -> Var1Model:
    """Construct the VAR(1) model realizing a feasible design.

    Raises
    ------
    InfeasibleDesignError
        When no real coefficient matrix matches: a complex eigenvalue pair
        needs a strictly negative feedback product with
        gamma_x gamma_y <= -Im(lambda)^2, and a real pair needs
        (lambda1 - lambda2)^2 >= 4 gamma_x gamma_y.
    """
    lam1, lam2 = complex(design.lambda1), complex(design.lambda2)
    complex_pair = abs(lam1.imag) > 1e-14 or abs(lam2.imag) > 1e-14
    if complex_pair and abs(lam2 - lam1.conjugate()) > 1e-12:
        raise InfeasibleDesignError(
            "complex eigenvalues must form a conjugate pair for a real model"
        )

    denom = math.sqrt(1.0 - design.rho**2)
    gamma_x = design.sign_gx * math.sqrt(design.xi_x) / denom
    gamma_y = design.sign_gy * math.sqrt(design.xi_y) / denom

    trace = lam1 + lam2
    prod = lam1 * lam2
    if abs(trace.imag) > 1e-12 or abs(prod.imag) > 1e-12:
        raise InfeasibleDesignError("eigenvalue sum and product must be real")
    s = trace.real
    disc = s * s - 4.0 * (prod.real + gamma_x * gamma_y)

    if disc < 0.0:
        if complex_pair:
            raise InfeasibleDesignError(
                "infeasible complex-pair case: need gamma_x gamma_y <= -Im(lambda)^2, got "
                f"gamma_x gamma_y = {gamma_x * gamma_y:.6g}, Im(lambda)^2 = {lam1.imag**2:.6g}"
            )
        raise InfeasibleDesignError(
            "infeasible real-pair case: need (lambda1 - lambda2)^2 >= 4 gamma_x gamma_y, got "
            f"(lambda1 - lambda2)^2 = {(lam1.real - lam2.real) ** 2:.6g}, "
            f"4 gamma_x gamma_y = {4.0 * gamma_x * gamma_y:.6g}"
        )

    root = math.sqrt(disc)
    if design.root_case == 1:
        phi_x, phi_y = 0.5 * (s + root), 0.5 * (s - root)
    else:
        phi_x, phi_y = 0.5 * (s - root), 0.5 * (s + root)

    a = np.array([[phi_x, gamma_x], [gamma_y, phi_y]])
    sigma = np.array([[1.0, design.rho], [design.rho, 1.0]])
    return Var1Model(a, sigma)


def var1_fyx_closed_form(model: Var1Model, direction: str = "y->x") -> float:
    """Closed-form dynamic measure of a designed bivariate VAR(1).

    For direction "y->x" returns ln of the ratio between the innovation
    variance of x's own ARMA(1,1) reduction and the joint innovation variance;
    the value is bounded below by ln(1 + xi_x).  "x->y" swaps the roles.

    Eliminating the source variable leaves det(I - AL) x[t] = u[t] with u an
    MA(1) whose lag-0/lag-1 covariances are g0 = 1 + xi + d^2 and -d; the
    ratio is the innovation variance of that MA(1), so the target's own phi
    drops out.
    """
    target, source = JointPartition(1, 1).direction(direction)
    rho = float(model.sigma[0, 1])
    gamma = model.A[target, source].item()
    d = model.A[source, source].item() - rho * gamma
    xi = (1.0 - rho * rho) * gamma * gamma
    g0 = 1.0 + xi + d * d
    return math.log(0.5 * (g0 + math.sqrt(g0 * g0 - 4.0 * d * d)))
