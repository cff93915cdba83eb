"""Spans around the calls between ssgc's modules, installed from outside the package.

Each target is a name one module looks up to call another, for example
``ssgc.submodel:solve_dare`` (the Riccati solve as the submodel layer calls
it).  Installing replaces that binding with a wrapper that records a span
(name, layer, parent, start, end) and returns the wrapped result unchanged.
A target a later refactor removes is reported as missing, and every metric
that depends on it as unmeasured, instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


def _iterations(args, result) -> dict:
    return {"iterations": result.iterations}


def _tuple_iterations(args, result) -> dict:
    return {"iterations": result[3]}


def _vacuous(args, result) -> dict:
    # A PBH test with no eigenvalue to inspect passes with margin inf.
    return {"vacuous": 1.0 if math.isinf(result.margin) else 0.0}


def _response_bytes(args, result) -> dict:
    # Computed from array shapes (complex128): the (N, n, n) resolvent stack,
    # the broadcast gain and the solution (N, n, p), and the (N, p, p) result.
    count, p, _ = result.shape
    n = args[0].n
    return {"bytes": 16.0 * count * (n * n + 2 * n * p + p * p)}


class Target(NamedTuple):
    path: str  # "module:attribute" or "module:Class.method"
    span: str
    layer: str
    note: Callable | None = None


TARGETS = (
    # entry points the benchmark calls
    Target("ssgc:gem_time_domain", "gem.time_domain", "gem"),
    Target("ssgc:gem_frequency", "gem.frequency", "gem"),
    Target("ssgc:run_scenario_sweep", "sweep", "sweep"),
    Target("ssgc:apply_fir_filter", "filtering", "filtering"),
    Target("ssgc:validate_iss", "model.validate", "model"),
    # calls between modules, under the names the callers look up
    Target("ssgc.sweep:downsample_iss", "downsample", "downsample"),
    Target("ssgc.sweep:gem_time_domain", "gem.time_domain", "gem"),
    Target("ssgc.gem:extract_submodel", "submodel", "submodel"),
    Target("ssgc.submodel:solve_dare", "dare", "dare", _iterations),
    Target("ssgc.downsample:solve_dare", "dare", "dare", _iterations),
    Target("ssgc.dare:_check_preconditions", "dare.preconditions", "dare"),
    Target("ssgc.dare:riccati_fixed_point", "dare.riccati", "dare"),
    Target("ssgc.dare:pbh_test", "dare.pbh", "model", _vacuous),
    Target("ssgc.filtering:riccati_fixed_point", "filtering.riccati", "dare", _tuple_iterations),
    Target("ssgc.filtering:solve_lyapunov", "filtering.lyapunov", "model"),
    Target("ssgc.model:pbh_test", "model.pbh", "model"),
    Target(
        "ssgc.model:ISSModel.frequency_response", "model.frequency_response", "model",
        _response_bytes,
    ),
    Target("ssgc.gem:require_stationary", "model.require_stationary", "model"),
    Target("ssgc.submodel:require_stationary", "model.require_stationary", "model"),
    Target("ssgc.downsample:require_stationary", "model.require_stationary", "model"),
    Target("ssgc.filtering:require_stationary", "model.require_stationary", "model"),
    Target("ssgc.model:require_stationary", "model.require_stationary", "model"),
)


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: "Span | None"
    op: int
    start: float
    end: float = 0.0
    child: float = 0.0  # summed duration of direct children
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Installs wrappers on the targets and keeps the spans they record in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}  # span name -> why it is not recorded
        self.op = 0  # identifier shared by the spans of one operation
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module_name, _, attr_path = target.path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.setdefault(target.span, f"{target.path} not found ({exc})")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(target.span, target.layer, parent, self.op, perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
                if span.parent is not None:
                    span.parent.child += span.duration
                spans.append(span)
            if target.note is not None:
                span.extra = target.note(args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class Metric(NamedTuple):
    name: str
    unit: str
    needs: tuple[str, ...]  # span names the value is computed from
    compute: Callable  # (spans grouped by name) -> value


def _spans(by, names):
    return [s for n in names for s in by.get(n, ())]


def _count(*names):
    return lambda by: float(len(_spans(by, names)))


def _busy(*names):
    return lambda by: sum((s.duration for s in _spans(by, names)), 0.0)


def _self(*names):
    return lambda by: sum((s.self_time for s in _spans(by, names)), 0.0)


def _total(key, *names):
    return lambda by: sum((float(s.extra[key]) for s in _spans(by, names)), 0.0)


def _maximum(key, *names):
    return lambda by: max((float(s.extra[key]) for s in _spans(by, names)), default=0.0)


def _mean(key, *names):
    def compute(by):
        spans = _spans(by, names)
        return sum(s.extra[key] for s in spans) / len(spans) if spans else None

    return compute


# The dare layer is entered through solve_dare (from submodel and downsample)
# and through riccati_fixed_point (from filtering).
_DARE_ENTRIES = ("dare", "filtering.riccati")
_DARE_CODE = _DARE_ENTRIES + ("dare.preconditions", "dare.riccati")

# Self times need every span that can be a child, or child time would be
# silently counted as the parent's own.
METRICS = (
    Metric("dare.calls", "count", _DARE_ENTRIES, _count(*_DARE_ENTRIES)),
    Metric("dare.busy_s", "s", _DARE_ENTRIES, _busy(*_DARE_ENTRIES)),
    Metric("dare.self_s", "s", _DARE_ENTRIES + ("dare.pbh",), _self(*_DARE_CODE)),
    Metric("dare.iterations", "count", _DARE_ENTRIES, _total("iterations", *_DARE_ENTRIES)),
    Metric(
        "dare.iterations_max", "count", _DARE_ENTRIES, _maximum("iterations", *_DARE_ENTRIES)
    ),
    Metric("dare.riccati_s", "s", ("dare.riccati",), _busy("dare.riccati")),
    Metric("dare.preconditions_s", "s", ("dare.preconditions",), _busy("dare.preconditions")),
    Metric("dare.pbh_calls", "count", ("dare.pbh",), _count("dare.pbh")),
    Metric("dare.pbh_s", "s", ("dare.pbh",), _busy("dare.pbh")),
    Metric("dare.pbh_vacuous_ratio", "ratio", ("dare.pbh",), _mean("vacuous", "dare.pbh")),
    Metric(
        "model.require_stationary.calls", "count", ("model.require_stationary",),
        _count("model.require_stationary"),
    ),
    Metric("submodel.calls", "count", ("submodel",), _count("submodel")),
    Metric(
        "submodel.self_s", "s", ("submodel", "dare", "model.require_stationary"), _self("submodel")
    ),
    Metric("downsample.calls", "count", ("downsample",), _count("downsample")),
    Metric(
        "downsample.self_s", "s", ("downsample", "dare", "model.require_stationary"),
        _self("downsample"),
    ),
    Metric("sweep.self_s", "s", ("sweep", "downsample", "gem.time_domain"), _self("sweep")),
    Metric("filtering.calls", "count", ("filtering",), _count("filtering")),
    Metric(
        "filtering.self_s", "s",
        ("filtering", "filtering.riccati", "filtering.lyapunov", "model.require_stationary"),
        _self("filtering"),
    ),
    Metric(
        "filtering.riccati_iterations", "count", ("filtering.riccati",),
        _total("iterations", "filtering.riccati"),
    ),
    Metric("filtering.lyapunov_s", "s", ("filtering.lyapunov",), _busy("filtering.lyapunov")),
    Metric(
        "model.frequency_response.calls", "count", ("model.frequency_response",),
        _count("model.frequency_response"),
    ),
    Metric(
        "model.frequency_response.busy_s", "s", ("model.frequency_response",),
        _busy("model.frequency_response"),
    ),
    Metric(
        "model.frequency_response.bytes", "bytes_computed", ("model.frequency_response",),
        _total("bytes", "model.frequency_response"),
    ),
    Metric(
        "gem.frequency.self_s", "s",
        ("gem.frequency", "model.frequency_response", "model.require_stationary"),
        _self("gem.frequency"),
    ),
    Metric("model.validate.busy_s", "s", ("model.validate",), _busy("model.validate")),
    Metric("model.pbh.calls", "count", ("model.pbh",), _count("model.pbh")),
    Metric("model.pbh.busy_s", "s", ("model.pbh",), _busy("model.pbh")),
    Metric("gem.time_domain.calls", "count", ("gem.time_domain",), _count("gem.time_domain")),
    Metric(
        "gem.time_domain.self_s", "s",
        ("gem.time_domain", "submodel", "model.require_stationary"),
        _self("gem.time_domain"),
    ),
)


def layer_metrics(spans: list[Span], missing: dict[str, str]) -> dict[str, tuple]:
    """Per-layer values of one pass: name -> (value or None, unit, why unmeasured)."""
    by: dict[str, list[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)
    out = {}
    for metric in METRICS:
        absent = [missing[n] for n in metric.needs if n in missing]
        if absent:
            out[metric.name] = (None, metric.unit, "; ".join(absent))
            continue
        value = metric.compute(by)
        out[metric.name] = (value, metric.unit, None if value is not None else "no calls")
    return out
