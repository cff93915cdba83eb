"""State-space Granger causality: models, Riccati solver, measures, transforms."""

from .dare import DareSolution, riccati_fixed_point, solve_dare
from .downsample import downsample_iss
from .errors import ConvergenceError, InfeasibleDesignError, PreconditionError
from .filtering import (
    AllPassDecomposition,
    FirFilter,
    MinPhaseResult,
    allpass_decompose,
    apply_fir_filter,
    hrf_glover,
    min_phase_check,
)
from .fitting import TimeSeries, fit_var_ols, simulate_var
from .gem import (
    Chi2Result,
    FrequencyGem,
    GcFlags,
    GemSummary,
    chi2_test,
    gc_classify,
    gem_frequency,
    gem_time_domain,
    instantaneous_gem,
)
from .model import (
    AutocovarianceSequence,
    ISSModel,
    JointPartition,
    SpectralCurve,
    SSModel,
    ValidationReport,
    autocovariance_of_iss,
    default_grid,
    pbh_test,
    solve_lyapunov,
    spectral_radius,
    spectrum_of_iss,
    validate_iss,
    var_to_iss,
)
from .submodel import extract_submodel, log_det_spectrum_integral
from .sweep import SweepResult, SweepRow, run_scenario_sweep
from .var1 import Var1Design, Var1Model, design_var1, var1_fyx_closed_form

__version__ = "0.1.0"

__all__ = [
    "AllPassDecomposition",
    "AutocovarianceSequence",
    "Chi2Result",
    "ConvergenceError",
    "DareSolution",
    "FirFilter",
    "FrequencyGem",
    "GcFlags",
    "GemSummary",
    "ISSModel",
    "InfeasibleDesignError",
    "JointPartition",
    "MinPhaseResult",
    "PreconditionError",
    "SSModel",
    "SpectralCurve",
    "SweepResult",
    "SweepRow",
    "TimeSeries",
    "ValidationReport",
    "Var1Design",
    "Var1Model",
    "allpass_decompose",
    "apply_fir_filter",
    "autocovariance_of_iss",
    "chi2_test",
    "default_grid",
    "design_var1",
    "downsample_iss",
    "extract_submodel",
    "fit_var_ols",
    "gc_classify",
    "gem_frequency",
    "gem_time_domain",
    "hrf_glover",
    "instantaneous_gem",
    "log_det_spectrum_integral",
    "min_phase_check",
    "pbh_test",
    "riccati_fixed_point",
    "run_scenario_sweep",
    "simulate_var",
    "solve_dare",
    "solve_lyapunov",
    "spectral_radius",
    "spectrum_of_iss",
    "validate_iss",
    "var1_fyx_closed_form",
    "var_to_iss",
]
