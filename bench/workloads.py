"""Seeded inputs, timed operations and oracles of the three benchmark workloads.

Each workload's build function takes the imported ``ssgc`` package, a seed
and a size, and returns the list of operations one pass runs.  Operations
look up every public function on that package object at call time, so the
tracer can wrap those names.  The oracles compare against expected values
computed in set-up, so checking a result calls nothing that is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Downsampling factors of the reference sweeps (tests/test_acceptance.py).
SWEEP_FACTORS = (1, 2, 3, 4, 5, 6, 10, 20, 30, 40)

# Reference designs of the acceptance battery: (name, A, rho, tabulated fyx,
# tabulated fxy).  The third design has no tabulated rows.
REFERENCE_DESIGNS = (
    (
        "push_dominant",
        ((-0.204, -1.24), (0.452, -1.69)),
        0.2,
        (1.3761, 1.657, 1.408, 1.169, 0.994, 0.864, 0.551, 0.151, 0.001, 0.014),
        (0.19834, 0.253, 0.287, 0.308, 0.319, 0.322, 0.293, 0.109, 0.001, 0.011),
    ),
    (
        "push_reversal",
        ((1.69, -1.24), (0.452, 0.204)),
        0.2,
        (0.92983, 0.879, 0.766, 0.683, 0.62, 0.57, 0.418, 0.131, 0.001, 0.013),
        (1.0476, 1.824, 2.006, 1.795, 1.527, 1.3, 0.751, 0.18, 0.002, 0.016),
    ),
    ("near_one_sided", ((1.883, -0.408), (2.236, 0.036)), -0.8, None, None),
)
TABULATED_TOL = 0.05
CLOSED_FORM_TOL = 1e-8
INVARIANCE_TOL = 1e-6
JENSEN_TOL = 1e-6
FREQUENCY_POINTS = 4096


@dataclass(frozen=True)
class Op:
    """One closed-loop operation of a pass.

    ``run(lap)`` performs the operation, calling each measured function
    through ``lap(label, fn, *args, **kwargs)``, which times that call; the
    operation's latency is the sum of its laps.  ``check(result)`` is the
    oracle: None when the result is right, else what is wrong with it.
    """

    name: str
    kind: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Detail:
    """A workload-specific metric: a percentile of the times of one lap label or op kind."""

    name: str
    unit: str
    source: str  # "lap" or "kind"
    key: str
    quantile: int = 50


def _miss(what: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what} = {got:.12g}, expected {want:.12g} (tolerance {tol:g})"


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m is not None), None)


def _sample_design(api, rng: np.random.Generator):
    """One feasible designed VAR(1): real or conjugate eigenvalue pairs."""
    while True:
        if rng.random() < 0.5:
            lam1 = complex(rng.uniform(-0.95, 0.95))
            lam2 = complex(rng.uniform(-0.95, 0.95))
        else:
            lam1 = complex(rng.uniform(0.2, 0.97) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05)))
            lam2 = lam1.conjugate()
        design = api.Var1Design(
            lam1,
            lam2,
            xi_x=float(rng.uniform(0.0, 2.0)),
            xi_y=float(rng.uniform(0.0, 2.0)),
            rho=float(rng.uniform(-0.9, 0.9)),
            sign_gx=int(rng.choice([-1, 1])),
            sign_gy=int(rng.choice([-1, 1])),
            root_case=int(rng.choice([1, 2])),
        )
        try:
            return api.design_var1(design)
        except api.InfeasibleDesignError:
            continue


def _closed_form_measures(api, a: np.ndarray, sigma: np.ndarray) -> tuple[float, float, float]:
    """(fyx, fxy, fydx) of a bivariate VAR(1) with any innovation covariance.

    Rescaling each channel to unit innovation variance changes no measure and
    brings the model to the form the closed form is stated for.
    """
    d = np.sqrt(np.diag(sigma))
    unit = api.Var1Model(a * d[None, :] / d[:, None], sigma / np.outer(d, d))
    rho = float(unit.sigma[0, 1])
    return (
        api.var1_fyx_closed_form(unit, "y->x"),
        api.var1_fyx_closed_form(unit, "x->y"),
        -math.log1p(-rho * rho),
    )


def _downsampled_closed_form(api, a: np.ndarray, sigma: np.ndarray, m: int):
    """Closed-form measures of every m-th sample of a VAR(1).

    z[m k] = A^m z[m (k - 1)] + sum_{j < m} A^j e[m k - j] is again a VAR(1),
    with coefficient A^m and innovation covariance sum_j A^j Sigma A^j^T, so
    the closed form applies at every factor without any Riccati solve.
    """
    power = np.eye(2)
    cov = np.zeros((2, 2))
    for _ in range(m):
        cov += power @ sigma @ power.T
        power = a @ power
    return _closed_form_measures(api, power, 0.5 * (cov + cov.T))


# -- battery ------------------------------------------------------------------


def build_battery(api, seed: int, count: int = 2000) -> list[Op]:
    """``gem_time_domain`` on ``count`` seeded designed VAR(1) models."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(count):
        var1 = _sample_design(api, rng)
        want_yx = api.var1_fyx_closed_form(var1, "y->x")
        want_xy = api.var1_fyx_closed_form(var1, "x->y")
        ops.append(_battery_op(api, f"design {i}", var1.to_iss(), want_yx, want_xy))
    return ops


def _battery_op(api, name: str, model, want_yx: float, want_xy: float) -> Op:
    def run(lap):
        return lap("gem", api.gem_time_domain, model)

    def check(got):
        return _first(
            _miss("fyx", got.fyx, want_yx, CLOSED_FORM_TOL),
            _miss("fxy", got.fxy, want_xy, CLOSED_FORM_TOL),
        )

    return Op(name, "gem", run, check)


# Printed, not gated: the tail moves with the seed's slowest designs.
BATTERY_DETAIL = (Detail("op_ms_p99", "ms", "kind", "gem", 99),)


# -- transforms ---------------------------------------------------------------


def build_transforms(
    api, seed: int, seeded: int = 29, references=REFERENCE_DESIGNS
) -> list[Op]:
    """Downsampling sweeps and FIR filtering of the reference and seeded designs.

    Each operation takes one design through both transforms: a 10-factor
    ``run_scenario_sweep``, then ``apply_fir_filter`` with the hemodynamic
    response on both blocks and with a seeded minimum-phase filter, each
    followed by ``gem_time_domain``.
    """
    rng = np.random.default_rng(seed)
    part = api.JointPartition(1, 1)
    # The response sampled from t = 0: a one-step delay in front of the
    # hrf_glover taps, so the leading tap is singular and the filter is
    # non-minimum-phase.
    hrf_taps = np.r_[0.0, api.hrf_glover().scalar_taps]
    hrf = api.FirFilter.block_scalar(hrf_taps, hrf_taps, part)

    designs = []
    for name, a, rho, fyx_rows, fxy_rows in references:
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        designs.append((name, api.Var1Model(np.array(a), sigma), fyx_rows, fxy_rows))
    for i in range(seeded):
        designs.append((f"design {i}", _sample_design(api, rng), None, None))

    ops = []
    for name, var1, fyx_rows, fxy_rows in designs:
        # Leading tap 1 and later taps within 0.4 keep each block minimum phase.
        minphase = api.FirFilter.block_scalar(
            np.r_[1.0, rng.uniform(-0.4, 0.4, 2)], np.r_[1.0, rng.uniform(-0.4, 0.4, 2)], part
        )
        ops.append(_transforms_op(api, name, var1, hrf, minphase, fyx_rows, fxy_rows))
    return ops


def _filter_then_gem(api, model, filt):
    return api.gem_time_domain(api.apply_fir_filter(model, filt))


def _transforms_op(api, name, var1, hrf, minphase, fyx_rows, fxy_rows) -> Op:
    model = var1.to_iss()
    a, sigma = np.asarray(var1.A), np.asarray(var1.sigma)
    expected = [_downsampled_closed_form(api, a, sigma, m) for m in SWEEP_FACTORS]

    def run(lap):
        sweep = lap("sweep", api.run_scenario_sweep, model, SWEEP_FACTORS)
        by_hrf = lap("filter.hrf", _filter_then_gem, api, model, hrf)
        by_minphase = lap("filter.minphase", _filter_then_gem, api, model, minphase)
        return sweep, by_hrf, by_minphase

    def check(result):
        sweep, by_hrf, by_minphase = result
        rows = sweep.rows
        if tuple(row.factor for row in rows) != SWEEP_FACTORS:
            return f"sweep factors {[row.factor for row in rows]}"
        for row, (fyx, fxy, fydx) in zip(rows, expected):
            got, m = row.measures, row.factor
            miss = _first(
                _miss(f"sweep fyx at m={m}", got.fyx, fyx, CLOSED_FORM_TOL),
                _miss(f"sweep fxy at m={m}", got.fxy, fxy, CLOSED_FORM_TOL),
                _miss(f"sweep fydx at m={m}", got.fydx, fydx, CLOSED_FORM_TOL),
            )
            if miss:
                return miss
        if fyx_rows is not None:
            for row, fyx, fxy in zip(rows, fyx_rows, fxy_rows):
                got, m = row.measures, row.factor
                miss = _first(
                    _miss(f"tabulated fyx at m={m}", got.fyx, fyx, TABULATED_TOL),
                    _miss(f"tabulated fxy at m={m}", got.fxy, fxy, TABULATED_TOL),
                )
                if miss:
                    return miss
        # A common scalar filter on both blocks, minimum phase or not, and a
        # minimum-phase block-diagonal filter leave all four measures unchanged.
        fyx, fxy, fydx = expected[0]
        for label, got in (("hrf", by_hrf), ("minimum-phase", by_minphase)):
            miss = _first(
                _miss(f"{label} filtered fyx", got.fyx, fyx, INVARIANCE_TOL),
                _miss(f"{label} filtered fxy", got.fxy, fxy, INVARIANCE_TOL),
                _miss(f"{label} filtered fydx", got.fydx, fydx, INVARIANCE_TOL),
                _miss(f"{label} filtered fxoy", got.fxoy, fyx + fxy + fydx, INVARIANCE_TOL),
            )
            if miss:
                return miss
        return None

    return Op(name, "design", run, check)


TRANSFORMS_DETAIL = (
    Detail("sweep_ms_p50", "ms", "lap", "sweep"),
    Detail("filter_ms_p50.hrf", "ms", "lap", "filter.hrf"),
    Detail("filter_ms_p50.minphase", "ms", "lap", "filter.minphase"),
)


# -- large_n ------------------------------------------------------------------


def build_large_n(api, seed: int, dims: tuple[int, ...] = (20, 80, 160)) -> list[Op]:
    """Full analysis of one seeded bivariate companion VAR(n / 2) per state size n."""
    rng = np.random.default_rng(seed)
    grid = api.default_grid(FREQUENCY_POINTS)
    return [_large_n_op(api, _companion_model(api, rng, n), grid) for n in dims]


def _companion_model(api, rng: np.random.Generator, n: int):
    """Stable bivariate VAR(n / 2) with spectral radius drawn from [0.85, 0.95].

    Scaling lag k by c^k scales every companion eigenvalue by c, which places
    the spectral radius exactly.
    """
    lags = n // 2
    coeffs = rng.standard_normal((lags, 2, 2)) / np.arange(1, lags + 1)[:, None, None]
    companion = np.zeros((n, n))
    companion[:2, :] = np.hstack(list(coeffs))
    companion[2:, :-2] = np.eye(n - 2)
    scale = rng.uniform(0.85, 0.95) / api.spectral_radius(companion)
    coeffs = coeffs * (scale ** np.arange(1, lags + 1))[:, None, None]
    g = rng.standard_normal((2, 3))
    sigma = g @ g.T + 0.1 * np.eye(2)
    return api.var_to_iss(list(coeffs), sigma, api.JointPartition(1, 1))


def _large_n_op(api, model, grid) -> Op:
    def run(lap):
        report = lap("validate", api.validate_iss, model)
        measures = lap("gem", api.gem_time_domain, model)
        y_to_x = lap("frequency", api.gem_frequency, model, grid, direction="y->x")
        x_to_y = lap("frequency", api.gem_frequency, model, grid, direction="x->y")
        return report, measures, y_to_x, x_to_y

    def check(result):
        report, measures, y_to_x, x_to_y = result
        if not report.passed:
            return f"validation failed:\n{report}"
        # Jensen: the integral never exceeds the time-domain measure.
        directions = (("y->x", y_to_x, measures.fyx), ("x->y", x_to_y, measures.fxy))
        for label, curve, bound in directions:
            if curve.integral > bound + JENSEN_TOL:
                return f"{label} integral {curve.integral:.12g} exceeds time-domain {bound:.12g}"
        return None

    return Op(f"n{model.n}", f"n{model.n}", run, check)


LARGE_N_DETAIL = tuple(Detail(f"model_s.n{n}", "s", "kind", f"n{n}") for n in (20, 80, 160))


@dataclass(frozen=True)
class Workload:
    build: Callable  # (api, seed, **size) -> list[Op]
    tiny: dict  # size for the self-tests
    details: tuple[Detail, ...]
    host_kernel: str  # the reference kernel in host.py whose speed tracks this workload's


WORKLOADS = {
    "battery": Workload(build_battery, {"count": 6}, BATTERY_DETAIL, "small"),
    "transforms": Workload(
        build_transforms,
        {"seeded": 1, "references": REFERENCE_DESIGNS[:1]},
        TRANSFORMS_DETAIL,
        "small",
    ),
    "large_n": Workload(build_large_n, {"dims": (4, 8)}, LARGE_N_DETAIL, "large"),
}
