"""Geweke causality measures of a partitioned innovations model.

Time-domain measures for a joint process z = (x, y):

    F_{y->x} = ln |Omega_x| / |V_x|          (dynamic, y to x)
    F_{x->y} = ln |Omega_y| / |V_y|          (dynamic, x to y)
    F_{y.x}  = ln |V_x||V_y| / |V|           (instantaneous)
    F_{x,y}  = ln |Omega_x||Omega_y| / |V|   (total interdependence)

where V is the joint innovation covariance and Omega_x, Omega_y are the
single-block innovation covariances from the extracted marginal models.  The
four measures satisfy F_{x,y} = F_{y->x} + F_{x->y} + F_{y.x}.  Frequency
domain curves integrate back to the time-domain measures when the rotated
own-noise transfer H_e = H_xx + H_xy W is minimum phase; each zero of det H_e
outside the unit circle lowers the integral by twice its log modulus (Jensen).
Every log determinant, of a covariance or of a spectrum at a grid point, is
one Cholesky rule that raises a named PreconditionError; chi2_test reports the
exact finite-sum chi-squared tail of its integer degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ISSModel,
    JointPartition,
    SpectralCurve,
    _as_matrix,
    _check_grid,
    _check_symmetric,
    _is_int,
    _logdet_pd,
    _periodic_mean,
    _reachable_basis,
    default_grid,
    require_stationary,
)
from .submodel import extract_submodel

# Relative threshold of gc_classify: C_target on the reachable basis, and V's cross block.
CLASSIFY_TOL = 1e-8

__all__ = [
    "GemSummary",
    "FrequencyGem",
    "GcFlags",
    "Chi2Result",
    "gem_time_domain",
    "instantaneous_gem",
    "gem_frequency",
    "gc_classify",
    "chi2_test",
]


@dataclass(frozen=True)
class GemSummary:
    """The four time-domain measures of one joint model."""

    fyx: float
    fxy: float
    fydx: float
    fxoy: float

    def __post_init__(self) -> None:
        for name in ("fyx", "fxy", "fydx", "fxoy"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} is not finite")
            if v < -1e-12:
                raise ValueError(f"{name} = {v:.3e} is significantly negative")
        if abs(self.fxoy - (self.fyx + self.fxy + self.fydx)) > 1e-10:
            raise ValueError("total measure does not decompose into its three parts")


class FrequencyGem(NamedTuple):
    curve: SpectralCurve
    integral: float


@dataclass(frozen=True)
class GcFlags:
    """Causality classification; True means the named influence is present."""

    wgc_y_to_x: bool
    sgc_y_to_x: bool
    wgc_x_to_y: bool
    sgc_x_to_y: bool


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    df: int
    pvalue: float


def instantaneous_gem(sigma, partition: JointPartition) -> float:
    """Instantaneous measure ln |V_x||V_y| / |V| of a joint covariance.

    ValueError unless sigma is a finite symmetric 2-D array (``_as_matrix``)
    of the partition's size; PreconditionError unless V and both diagonal
    blocks are positive definite.
    """
    v = _check_symmetric(_as_matrix(sigma, "sigma"), "sigma")
    if v.shape != (partition.p, partition.p):
        raise ValueError("covariance shape does not match the partition")
    vx = v[partition.x, partition.x]
    vy = v[partition.y, partition.y]
    return _logdet_pd(vx, "V_x") + _logdet_pd(vy, "V_y") - _logdet_pd(v, "V")


def gem_time_domain(joint: ISSModel) -> GemSummary:
    """All four time-domain measures of a partitioned stationary model.

    Solves one Riccati equation per block to obtain the marginal innovation
    covariances; the instantaneous part comes from the joint innovation
    covariance alone.
    """
    part = joint.require_partition()

    omega_x = extract_submodel(joint, "x").V
    omega_y = extract_submodel(joint, "y").V
    vx = joint.V[part.x, part.x]
    vy = joint.V[part.y, part.y]

    ld_ox = _logdet_pd(omega_x, "Omega_x")
    ld_oy = _logdet_pd(omega_y, "Omega_y")
    ld_vx = _logdet_pd(vx, "V_x")
    ld_vy = _logdet_pd(vy, "V_y")
    ld_v = _logdet_pd(joint.V, "V")

    fyx = ld_ox - ld_vx
    fxy = ld_oy - ld_vy
    fydx = ld_vx + ld_vy - ld_v
    fxoy = ld_ox + ld_oy - ld_v
    return GemSummary(fyx, fxy, fydx, fxoy)


def gem_frequency(
    joint: ISSModel,
    grid: np.ndarray | None = None,
    direction: str = "y->x",
) -> FrequencyGem:
    """Frequency-domain causality curve and its normalized integral.

    For direction "y->x" the curve is ln |f_x(lambda)| / |f_e(lambda)| where
    f_e = H_ex V_x H_ex* is the part of the x spectrum driven by x's own
    innovations, H_ex = H_xx + H_xy W with W = V_yx V_x^{-1}, and
    f_x = f_e + H_xy (V_y - V_yx V_x^{-1} V_xy) H_xy*.  The normalized
    integral of the curve recovers the time-domain measure whenever H_ex is
    minimum phase; each zero of det H_ex outside the unit circle lowers the
    integral below the time-domain value by twice its log modulus (Jensen),
    and strongly coupled models do exhibit such zeros.
    """
    part = joint.require_partition()
    require_stationary(joint)
    grid = default_grid() if grid is None else _check_grid(grid)
    this, other = part.direction(direction)

    v_tt = joint.V[this, this]
    v_oo = joint.V[other, other]
    v_to = joint.V[this, other]

    h = joint.frequency_response(grid)
    h_tt = h[:, this, this]
    h_to = h[:, this, other]

    # W = V_ot V_tt^{-1}; rotate the cross transfer into the own-noise channel.
    w = np.linalg.solve(v_tt, v_to).T
    h_e = h_tt + h_to @ w
    f_e = np.einsum("nij,jk,nlk->nil", h_e, v_tt, h_e.conj())

    v_cond = v_oo - v_to.T @ w.T
    v_cond = 0.5 * (v_cond + v_cond.T)
    f_t = f_e + np.einsum("nij,jk,nlk->nil", h_to, v_cond, h_to.conj())

    vals = _logdet_pd(f_t, "block spectrum") - _logdet_pd(f_e, "intrinsic spectrum")
    curve = SpectralCurve(grid, vals)
    return FrequencyGem(curve, _periodic_mean(curve.grid, vals))


def gc_classify(joint: ISSModel) -> GcFlags:
    """Structural causality classification of a partitioned model.

    The dynamic influence y -> x is declared absent when C_x A^r K_y = 0 for
    every r, that is when C_x vanishes (relative to CLASSIFY_TOL * ||C_x||)
    on an orthonormal basis of the subspace reachable from K_y (``pbh_test``'s
    staircase).  The strong form also requires a block-diagonal joint innovation
    covariance.  Flags are True when the corresponding influence is PRESENT.
    """
    part = joint.require_partition()
    v_scale = CLASSIFY_TOL * max(1.0, float(np.linalg.norm(joint.V, 2)))

    def absent(direction: str) -> bool:
        target, source = part.direction(direction)
        c_target = joint.C[target]
        basis, _ = _reachable_basis(joint.A, joint.K[:, source], CLASSIFY_TOL)
        return bool(np.linalg.norm(c_target @ basis) <= CLASSIFY_TOL * np.linalg.norm(c_target))

    cross_small = float(np.linalg.norm(joint.V[part.x, part.y], 2)) <= v_scale
    yx_absent = absent("y->x")
    xy_absent = absent("x->y")
    return GcFlags(
        wgc_y_to_x=not yx_absent,
        sgc_y_to_x=not (yx_absent and cross_small),
        wgc_x_to_y=not xy_absent,
        sgc_x_to_y=not (xy_absent and cross_small),
    )


def _chi2_sf(statistic: float, df: int) -> float:
    """Exact chi-squared upper tail for integer df (Abramowitz & Stegun 26.4.4-5).

    With x = statistic / 2 the tail is e^{-x} sum_{j < df/2} x^j / j! for even
    df, and erfc(sqrt x) plus the same terms at j = 1/2, 3/2, ... for odd df;
    each term x^j e^{-x} / Gamma(j + 1) is evaluated in log space.
    """
    x = 0.5 * statistic
    if x <= 0.0:
        return 1.0
    half = df % 2 / 2.0
    log_x = math.log(x)
    terms = [
        math.exp((j + half) * log_x - x - math.lgamma(j + half + 1.0)) for j in range(df // 2)
    ]
    head = math.erfc(math.sqrt(x)) if half else 0.0
    return min(math.fsum([head, *terms]), 1.0)


def chi2_test(
    fhat: float,
    n_obs: int,
    state_dim: int,
    px: int,
    py: int,
    kind: str = "weak",
) -> Chi2Result:
    """Large-sample chi-squared test of an estimated causality measure.

    Parameters
    ----------
    fhat : float
        Estimated measure (nonnegative).
    n_obs : int
        Sample size T; the statistic is T * fhat.
    state_dim : int
        State dimension n of the fitted model.
    px, py : int
        Output block dimensions.
    kind : {"weak", "instantaneous", "strong"}
        Which null is tested; degrees of freedom are 2 n px py, px py and
        (2 n + 1) px py respectively.
    """
    if fhat < 0 or not math.isfinite(fhat):
        raise ValueError("fhat must be finite and nonnegative")
    if not all(_is_int(v) and v >= 1 for v in (n_obs, state_dim, px, py)):
        raise ValueError("n_obs, state_dim, px and py must be positive integers")
    if kind == "weak":
        df = 2 * state_dim * px * py
    elif kind == "instantaneous":
        df = px * py
    elif kind == "strong":
        df = (2 * state_dim + 1) * px * py
    else:
        raise ValueError("kind must be 'weak', 'instantaneous' or 'strong'")
    statistic = n_obs * fhat
    return Chi2Result(float(statistic), df, _chi2_sf(statistic, df))
