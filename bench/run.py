"""Benchmark of the ssgc package: seeded workloads, oracles and per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One workload runs closed-loop, one operation at a time, in this process.
``--workload all`` runs each workload in a child process of its own, one
after the other, so every peak resident size belongs to one workload.  The
package is imported from ``src/`` next to this directory, never from an
installed copy.  With ``--trace 0`` the last line of the output is a JSON
object of the end-to-end metrics; with ``--trace 1`` one of the per-layer
metrics of a traced pass.  The command exits 1 when any operation raised or
missed its oracle, and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
# One BLAS thread: operations run one at a time on small and medium matrices,
# where a second OpenBLAS thread made the large_n analysis slower and noisier
# on a 2-CPU machine (validate_iss at n = 80: 1.2 s against 0.13 s).
BLAS_THREADS = 1
# The keys of workloads.WORKLOADS, known here before numpy is imported.
WORKLOAD_NAMES = ("battery", "transforms", "large_n")
CHILD_TIMEOUT_S = 600


class PackageMissing(RuntimeError):
    pass


def fresh_import():
    """Import ssgc from SRC anew, dropping any copy already imported."""
    if not (SRC / "ssgc" / "__init__.py").is_file():
        raise PackageMissing(f"no ssgc package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ssgc" or m.startswith("ssgc.")]:
        del sys.modules[name]
    api = importlib.import_module("ssgc")
    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise PackageMissing(f"ssgc was imported from {api.__file__}, not from {SRC}")
    return api


def set_up(workload: str, seed: int, size: dict | None = None):
    """Import the package and build the workload's inputs.

    Returns the seconds that took, the package and the operations.
    """
    from workloads import WORKLOADS

    started = time.perf_counter()
    api = fresh_import()
    ops = WORKLOADS[workload].build(api, seed, **(size or {}))
    return time.perf_counter() - started, api, ops


class Pass:
    """Timed calls and failures of one pass over a workload's operations."""

    def __init__(self, size: int):
        # per operation, its (label, seconds) laps, or None when it failed
        self.laps: list[list[tuple[str, float]] | None] = [None] * size
        self.attempted = 0
        self.failures: list[str] = []
        self.layers: dict[str, tuple] = {}


def run_pass(ops, tracer=None, probe=None) -> Pass:
    """Run every operation once; oracles and probes run outside the timed laps."""
    result = Pass(len(ops))
    for index, op in enumerate(ops):
        laps: list[tuple[str, float]] = []

        def lap(label, fn, *args, **kwargs):
            if probe is not None:
                probe.maybe()
            started = time.perf_counter()
            value = fn(*args, **kwargs)
            laps.append((label, time.perf_counter() - started))
            return value

        if tracer is not None:
            tracer.op = index
        result.attempted += 1
        try:
            outcome = op.run(lap)
        except Exception as exc:  # a raising operation is a failed operation
            result.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        miss = op.check(outcome)
        if miss is not None:
            result.failures.append(f"{op.name}: {miss}")
            continue
        result.laps[index] = laps
    return result


class Timings(NamedTuple):
    op_s: list[float]
    by_kind: dict[str, list[float]]
    by_lap: dict[str, list[float]]


def fastest(ops, passes: list[Pass]) -> Timings:
    """Each timed call at its fastest over the passes, summed per operation.

    The host's speed drifts: identical passes of 500 battery designs took
    from 0.87 s to 1.79 s, in episodes of several seconds.  The fastest
    repeat of a call is its cost when the machine is not contended, and the
    repeats of one call are spread over the whole run.  Operations that
    failed in any pass are left out.
    """
    timings = Timings([], {}, {})
    for index, op in enumerate(ops):
        repeats = [p.laps[index] for p in passes]
        if any(r is None for r in repeats):
            continue
        best = [(label, min(r[j][1] for r in repeats)) for j, (label, _) in enumerate(repeats[0])]
        total = sum(t for _, t in best)
        timings.op_s.append(total)
        timings.by_kind.setdefault(op.kind, []).append(total)
        for label, t in best:
            timings.by_lap.setdefault(label, []).append(t)
    return timings


def run_passes(ops, seconds: float, tracer=None, probe=None, between=None) -> list[Pass]:
    """Passes until ``seconds`` have gone by; the last one may run over.

    ``between``, when given, is called before each pass.
    """
    from tracing import layer_metrics

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        if between is not None:
            between()
        done = run_pass(ops, tracer, probe)
        if tracer is not None:
            done.layers = layer_metrics(tracer.take(), tracer.missing)
        passes.append(done)
        if time.perf_counter() - started >= seconds:
            return passes


def percentile(values: list[float], q: int) -> float | None:
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = "unmeasured" if value is None else f"{value:.6g}"
    return f"  {name:<34s} {shown:>14s} {unit:<15s} {note}"


def _scaled(value: float | None, scale: float) -> float | None:
    return None if value is None else scale * value


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size=None):
    """Measure one workload; returns (result object, report lines, failures)."""
    from host import KERNELS, Probe
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    probe = Probe(KERNELS[spec.host_kernel])
    first_setup_s, _, ops = set_up(workload, seed, size)
    setup_times = [first_setup_s]
    run_pass(ops[:1])  # warm-up: lazy imports and first-call costs

    def another_set_up():
        # Set-ups are spread between the passes, so that their median does
        # not hang on one stretch of the host's speed.  The operations keep
        # using the package they were built with.
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(set_up(workload, seed, size)[0])

    lines: list[str] = []
    if trace:
        plain = run_passes(ops, seconds / 2, probe=probe)
        with Tracer() as tracer:
            traced = run_passes(ops, seconds / 2, tracer, probe)
        passes = plain + traced
        scale = probe.scale
        metrics = {}
        for name, (_, unit, why) in traced[0].layers.items():
            value = None if why is not None else min(p.layers[name][0] for p in traced)
            if value is not None and unit == "s":
                value *= scale
            metrics[name] = {"value": value, "unit": unit}
            if why is not None:
                metrics[name]["unmeasured"] = why
            lines.append(_line(name, value, unit, why or f"least of {len(traced)} traced passes"))
        overhead = scale * (sum(fastest(ops, traced).op_s) - sum(fastest(ops, plain).op_s))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(_line("trace.overhead_s", overhead, "s",
                           f"traced minus untraced run_s, {len(traced)} and {len(plain)} passes"))
    else:
        passes = run_passes(ops, seconds, probe=probe, between=another_set_up)
        while len(setup_times) < SETUP_REPEATS:
            another_set_up()
        scale = probe.scale
        timings = fastest(ops, passes)
        repeats = f"fastest of {len(passes)} repeats per call"
        metrics = {
            "setup_s": {"value": scale * statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": scale * sum(timings.op_s), "unit": "s"},
            "op_ms_p50": {
                "value": _scaled(percentile(timings.op_s, 50), 1e3 * scale),
                "unit": "ms",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} imports plus input builds",
            "run_s": f"one pass of {len(timings.op_s)} ops, {repeats}",
            "op_ms_p50": f"{len(timings.op_s)} ops, {repeats}",
            "peak_rss_mb": "this process",
        }
        for name, entry in metrics.items():
            lines.append(_line(name, entry["value"], entry["unit"], notes[name]))
        for detail in spec.details:
            values = getattr(timings, f"by_{detail.source}").get(detail.key, [])
            unit_scale = 1e3 if detail.unit == "ms" else 1.0
            value = _scaled(percentile(values, detail.quantile), unit_scale * scale)
            lines.append(_line(detail.name, value, detail.unit, f"n = {len(values)}"))
    lines.append(_line(
        "host_scale", scale, "ratio",
        f"{spec.host_kernel} kernel: nominal {probe.kernel.nominal_s:g} s / fastest "
        f"{min(probe.times):.4g} s of {len(probe.times)}; times above are scaled by it",
    ))
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    lines.append(_line("failed_ratio", len(failures) / attempted, "ratio",
                       f"{len(failures)} of {attempted} ops"))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines, failures


def _run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return _run_all(args)

    # Before numpy loads its BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        result, lines, failures = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except PackageMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(environment(args)))
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
