"""The public surface (each module's ``__all__`` is the one list of its
names) and rules that hold across the package's source."""

import ast
import inspect
from pathlib import Path

import ssgc
from ssgc import dare, downsample, errors, filtering, fitting, gem, model, submodel, sweep, var1

MODULES = (dare, downsample, errors, filtering, fitting, gem, model, submodel, sweep, var1)

# The names the package exported before it re-exported the modules' lists.
EARLIER_NAMES = {
    "AllPassDecomposition", "AutocovarianceSequence", "Chi2Result", "ConvergenceError",
    "DareSolution", "FirFilter", "FrequencyGem", "GcFlags", "GemSummary", "ISSModel",
    "InfeasibleDesignError", "JointPartition", "MinPhaseResult", "PreconditionError",
    "SSModel", "SpectralCurve", "SweepResult", "SweepRow", "TimeSeries", "ValidationReport",
    "Var1Design", "Var1Model", "allpass_decompose", "apply_fir_filter",
    "autocovariance_of_iss", "chi2_test", "default_grid", "design_var1", "downsample_iss",
    "extract_submodel", "fit_var_ols", "gc_classify", "gem_frequency", "gem_time_domain",
    "hrf_glover", "instantaneous_gem", "log_det_spectrum_integral", "min_phase_check",
    "pbh_test", "riccati_fixed_point", "run_scenario_sweep", "simulate_var", "solve_dare",
    "solve_lyapunov", "spectral_radius", "spectrum_of_iss", "validate_iss",
    "var1_fyx_closed_form", "var_to_iss",
}


def test_package_exports_the_concatenated_module_lists():
    assert ssgc.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(ssgc.__all__)) == len(ssgc.__all__)


def test_every_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ssgc, name) is getattr(module, name), (module.__name__, name)


def test_earlier_names_are_still_exported():
    assert len(EARLIER_NAMES) == 49
    assert EARLIER_NAMES <= set(ssgc.__all__)
    assert set(ssgc.__all__) - EARLIER_NAMES == {"Check", "PbhResult"}


def _lines_with(text):
    """(file name, line number) of every line of the package's source holding text."""
    return [
        (path.name, number)
        for path in sorted(Path(ssgc.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if text in line
    ]


def _lines_of(fn):
    source, first = inspect.getsourcelines(fn)
    return range(first, first + len(source))


def test_one_cholesky_rule():
    """np.linalg.cholesky is called in one place, model._cholesky, so every
    failed factorization is a named PreconditionError."""
    inside = _lines_of(model._cholesky)
    calls = _lines_with("np.linalg.cholesky(")
    assert [(name, n in inside) for name, n in calls] == [("model.py", True)]


def test_one_var_reader():
    """A VAR(r) argument is read in one place, model._read_var: only it names
    the lags coefficients[i], so var_to_iss and simulate_var share its messages."""
    inside = _lines_of(model._read_var)
    sites = _lines_with("coefficients[")
    assert sites and all(name == "model.py" and n in inside for name, n in sites)


def test_one_memo():
    """Values are remembered in one place, model._remembered: weak references
    and module-level rebinding (a global statement) appear nowhere else, so
    no second cache holds models or their arrays."""
    inside = _lines_of(model._remembered)
    (import_line,) = _lines_with("import weakref")
    rebinds = [site for site in _lines_with("global ") if _line(*site).lstrip().startswith("global ")]
    sites = [site for site in _lines_with("weakref") + rebinds if site != import_line]
    assert sites and all(name == "model.py" and n in inside for name, n in sites)


def _line(name, number):
    return (Path(ssgc.__file__).parent / name).read_text().splitlines()[number - 1]


def test_no_matrix_power():
    """Powers of A are formed by squaring (downsample_iss joins its step
    triples over the bits of m), never by np.linalg.matrix_power."""
    assert _lines_with("np.linalg.matrix_power(") == []


def _nodes():
    """(file name, node) of every node of the package's syntax trees, the
    expressions inside f-strings included."""
    for path in sorted(Path(ssgc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def _calls_of(name):
    """(file name, line number) of every call of name in the package's code:
    a call of the bare name or of an attribute so named (np.linalg.eigvals)."""
    return [
        (file, node.lineno)
        for file, node in _nodes()
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_squaring_loop():
    """Powers of A are squared in one place, model._squarings: the only
    product of an array with itself (x @ x) in the package is there."""
    squares = [
        (file, node.lineno)
        for file, node in _nodes()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and ast.dump(node.left) == ast.dump(node.right)
    ]
    assert len(squares) == 1 and squares[0] in _sites_in(model._squarings)


def test_eigenvalues_only_where_reported():
    """The one stability rule decides by the squaring verdict, and eigenvalues
    are computed only where a value is reported or the verdict decides
    nothing: spectral_radius in _is_stable's fallback, the error messages of
    require_stationary, _companion_iss and solve_lyapunov, validate_iss
    (rho(A) and rho(A - KC)) and apply_fir_filter (rho(A - KC));
    np.linalg.eigvals in spectral_radius and pbh_test's unreachable Kalman
    block."""
    allowed = {
        "spectral_radius": [(model._is_stable, 1), (model.require_stationary, 1),
                            (model._companion_iss, 1), (model.solve_lyapunov, 1),
                            (model.validate_iss, 2), (filtering.apply_fir_filter, 1)],
        "eigvals": [(model.spectral_radius, 1), (model.pbh_test, 1)],
    }
    for name, places in allowed.items():
        sites = _calls_of(name)
        assert [(fn, sum(site in _sites_in(fn) for site in sites)) for fn, _ in places] == places, name
        assert len(sites) == sum(count for _, count in places), name


def _sites_in(fn):
    """(file name, line number) of every line of fn."""
    name = Path(inspect.getfile(fn)).name
    return {(name, n) for n in _lines_of(fn)}
