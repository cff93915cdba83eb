"""Self-tests of the benchmark: tiny workloads, oracles that trip, span accounting.

Run with ``python3 -m pytest bench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _is_ssgc(name: str) -> bool:
    return name == "ssgc" or name.startswith("ssgc.")


@pytest.fixture
def api():
    """A fresh import of the package; the modules other tests hold come back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if _is_ssgc(k)}
    try:
        yield run.fresh_import()
    finally:
        for name in [k for k in sys.modules if _is_ssgc(k)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _tiny_ops(api, workload):
    return WORKLOADS[workload].build(api, 3, **WORKLOADS[workload].tiny)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(api, workload, trace):
    result, lines, failures = run.run_workload(workload, 3, 1e-3, trace, WORKLOADS[workload].tiny)
    assert failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        if not trace or metric["name"].endswith("_s") or metric["name"] == "trace.overhead_s":
            assert isinstance(entry["value"], float)
    assert any(line.split()[0] == "failed_ratio" for line in lines)


PERTURB = {
    "battery": lambda r: dataclasses.replace(r, fyx=r.fyx + 1e-6, fxoy=r.fxoy + 1e-6),
    "transforms": lambda r: (
        r[0], dataclasses.replace(r[1], fxy=r[1].fxy + 1e-5, fxoy=r[1].fxoy + 1e-5), r[2]
    ),
    "large_n": lambda r: (r[0], r[1], r[2]._replace(integral=r[1].fyx + 1e-5), r[3]),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_result_trips_its_oracle(api, workload):
    ops = _tiny_ops(api, workload)
    first = ops[0]
    bad = dataclasses.replace(first, run=lambda lap: PERTURB[workload](first.run(lap)))
    done = run.run_pass([bad] + ops[1:])
    assert done.attempted == len(ops)
    assert len(done.failures) == 1 and done.failures[0].startswith(first.name)
    assert sum(laps is not None for laps in done.laps) == len(ops) - 1


def test_raising_op_counts_as_failed(api):
    ops = _tiny_ops(api, "battery")

    def broken(lap):
        raise api.ConvergenceError("injected")

    done = run.run_pass([dataclasses.replace(ops[0], run=broken)] + ops[1:])
    assert done.attempted == len(ops) and len(done.failures) == 1
    assert "ConvergenceError" in done.failures[0]


def test_self_times_add_up_to_no_more_than_the_root_span(api):
    ops = _tiny_ops(api, "transforms")
    with tracing.Tracer() as tracer:
        run.run_pass(ops, tracer)
    spans = tracer.take()
    roots = [s for s in spans if s.parent is None]
    assert roots and len(roots) < len(spans)
    tree_self = {id(root): 0.0 for root in roots}
    for span in spans:
        assert span.self_time >= 0.0
        root = span
        while root.parent is not None:
            root = root.parent
        assert root.op == span.op
        tree_self[id(root)] += span.self_time
    for root in roots:
        assert tree_self[id(root)] <= root.duration * (1 + 1e-9) + 1e-12


def test_wrappers_are_removed_and_results_unchanged(api):
    import ssgc.submodel

    original = ssgc.submodel.solve_dare
    model = _tiny_ops(api, "battery")[0]
    plain = model.run(lambda label, fn, *a, **k: fn(*a, **k))
    with tracing.Tracer() as tracer:
        assert ssgc.submodel.solve_dare is not original
        traced = model.run(lambda label, fn, *a, **k: fn(*a, **k))
    assert ssgc.submodel.solve_dare is original
    assert traced == plain
    assert len(tracer.spans) > 1


def test_removed_name_is_unmeasured_not_a_crash(api):
    # As if a refactor replaced the recursion filtering calls.
    targets = tuple(
        t._replace(path="ssgc.filtering:riccati_doubling") if t.span == "filtering.riccati" else t
        for t in tracing.TARGETS
    )
    ops = _tiny_ops(api, "transforms")
    with tracing.Tracer(targets) as tracer:
        done = run.run_pass(ops, tracer)
    assert done.failures == []
    layers = tracing.layer_metrics(tracer.take(), tracer.missing)
    for name in ("filtering.riccati_iterations", "filtering.self_s", "dare.calls", "dare.self_s"):
        value, _, why = layers[name]
        assert value is None and "riccati_doubling" in why
    assert layers["submodel.calls"][0] > 0 and layers["filtering.calls"][0] > 0


def test_counts_repeat_exactly(api):
    ops = _tiny_ops(api, "transforms")
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            run.run_pass(ops, tracer)
        layers = tracing.layer_metrics(tracer.take(), tracer.missing)
        counts.append({k: v[0] for k, v in layers.items() if v[1] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["model.require_stationary.calls"] > 0


def test_missing_package_exits_2(api, monkeypatch, tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "battery", "--seed", "1", "--seconds", "1"]) == 2
