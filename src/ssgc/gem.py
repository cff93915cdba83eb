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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .model import (
    ISSModel,
    JointPartition,
    SpectralCurve,
    _periodic_mean,
    default_grid,
    require_stationary,
)
from .submodel import extract_submodel

EIG_CLIP = 1e-300

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


def _logdet_pd(mat: np.ndarray, what: str) -> float:
    try:
        chol = np.linalg.cholesky(0.5 * (mat + mat.T))
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"{what} is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def instantaneous_gem(sigma, partition: JointPartition) -> float:
    """Instantaneous measure ln |V_x||V_y| / |V| of a joint covariance.

    Raises PreconditionError unless V and both diagonal blocks are positive
    definite.
    """
    v = np.asarray(sigma, dtype=float)
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
    require_stationary(joint)

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


def _logdet_eigh(f: np.ndarray, what: str) -> np.ndarray:
    """Pointwise ln det of a Hermitian PD matrix stack via eigenvalues."""
    eig = np.linalg.eigvalsh(0.5 * (f + f.conj().transpose(0, 2, 1)))
    if eig.min() <= 0.0:
        raise PreconditionError(f"{what} is not positive definite at some grid point")
    if eig.min() < EIG_CLIP:
        warnings.warn(f"{what} has eigenvalues below {EIG_CLIP}; clipping before log")
        eig = np.clip(eig, EIG_CLIP, None)
    return np.sum(np.log(eig), axis=-1)


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
    if grid is None:
        grid = default_grid()
    if direction == "y->x":
        this, other = part.x, part.y
    elif direction == "x->y":
        this, other = part.y, part.x
    else:
        raise ValueError("direction must be 'y->x' or 'x->y'")

    v_tt = joint.V[this, this]
    v_oo = joint.V[other, other]
    v_to = joint.V[this, other]

    h = joint.frequency_response(np.asarray(grid, dtype=float))
    h_tt = h[:, this, this]
    h_to = h[:, this, other]

    # W = V_ot V_tt^{-1}; rotate the cross transfer into the own-noise channel.
    w = np.linalg.solve(v_tt, v_to).T
    h_e = h_tt + h_to @ w
    f_e = np.einsum("nij,jk,nlk->nil", h_e, v_tt, h_e.conj())

    v_cond = v_oo - v_to.T @ np.linalg.solve(v_tt, v_to)
    v_cond = 0.5 * (v_cond + v_cond.T)
    f_t = f_e + np.einsum("nij,jk,nlk->nil", h_to, v_cond, h_to.conj())

    vals = _logdet_eigh(f_t, "block spectrum") - _logdet_eigh(f_e, "intrinsic spectrum")
    vals = np.asarray(vals, dtype=float)
    curve = SpectralCurve(np.asarray(grid, dtype=float), vals)
    return FrequencyGem(curve, _periodic_mean(curve.grid, vals))


def gc_classify(joint: ISSModel, tol: float = 1e-8) -> GcFlags:
    """Structural causality classification of a partitioned model.

    The dynamic influence y -> x is declared absent when C_x A^r K_y = 0 for
    r = 0..n-1 (up to a scale-aware tolerance); the strong form additionally
    requires the joint innovation covariance to be block diagonal.  Flags are
    True when the corresponding influence is PRESENT.
    """
    part = joint.require_partition()
    a = joint.A
    n = joint.n
    norm_a = float(np.linalg.norm(a, 2)) if n else 0.0
    v_scale = tol * max(1.0, float(np.linalg.norm(joint.V, 2)))

    def absent(c_this: np.ndarray, b_other: np.ndarray) -> bool:
        scale = (
            float(np.linalg.norm(c_this, 2))
            * float(np.linalg.norm(b_other, 2))
            * max(1.0, norm_a) ** max(n - 1, 0)
        )
        worst = 0.0
        x = b_other
        for _ in range(n):
            worst = max(worst, float(np.abs(c_this @ x).max(initial=0.0)))
            x = a @ x
        return worst <= tol * scale

    c_x = joint.C[part.x, :]
    c_y = joint.C[part.y, :]
    b_x = joint.K[:, part.x]
    b_y = joint.K[:, part.y]
    cross_small = float(np.linalg.norm(joint.V[part.x, part.y], 2)) <= v_scale

    yx_absent = absent(c_x, b_y)
    xy_absent = absent(c_y, b_x)
    return GcFlags(
        wgc_y_to_x=not yx_absent,
        sgc_y_to_x=not (yx_absent and cross_small),
        wgc_x_to_y=not xy_absent,
        sgc_x_to_y=not (xy_absent and cross_small),
    )


def _upper_gamma_regularized(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if x <= 0.0:
        return 1.0
    lg = math.lgamma(a)
    # Series for the lower function below the switch point (x = a + 1/2 in
    # gamma coordinates, statistic = df + 1 in chi-squared coordinates),
    # Lentz continued fraction for the upper function above it.
    if x < a + 0.5:
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return min(max(1.0 - p, 0.0), 1.0)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = h * math.exp(-x + a * math.log(x) - lg)
    return min(max(q, 0.0), 1.0)


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
    if n_obs < 1 or state_dim < 1 or px < 1 or py < 1:
        raise ValueError("n_obs, state_dim, px and py must be positive")
    if kind == "weak":
        df = 2 * state_dim * px * py
    elif kind == "instantaneous":
        df = px * py
    elif kind == "strong":
        df = (2 * state_dim + 1) * px * py
    else:
        raise ValueError("kind must be 'weak', 'instantaneous' or 'strong'")
    statistic = n_obs * fhat
    # Series/continued-fraction switch at statistic = df + 1.
    pvalue = _upper_gamma_regularized(df / 2.0, statistic / 2.0)
    return Chi2Result(float(statistic), df, float(pvalue))
