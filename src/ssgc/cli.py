"""Command-line front end.

Models travel as single JSON documents, either an innovations form

    {"type": "iss", "A": [[...]], "C": [[...]], "K": [[...]], "V": [[...]], "px": 1}

or a VAR

    {"type": "var", "coeffs": [[[...]], ...], "sigma": [[...]], "px": 1}

with matrices as row-major nested arrays of finite doubles and "px" optional
(it marks the leading block of a two-block partition).  Time series travel as
CSV with a mandatory header row.  Exit codes: 0 on success, 2 when a model,
design, or factorization fails validation, 1 on usage errors (bad flags,
unreadable files, malformed documents).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import sys

import numpy as np

from .errors import ConvergenceError, InfeasibleDesignError, PreconditionError
from .filtering import FirFilter, apply_fir_filter, hrf_glover, min_phase_check
from .fitting import TimeSeries, fit_var_ols
from .gem import gem_frequency, gem_time_domain
from .model import (
    DEFAULT_GRID_SIZE,
    ISSModel,
    JointPartition,
    _as_matrix,
    _is_int,
    default_grid,
    spectrum_of_iss,
    validate_iss,
    var_to_iss,
)
from .sweep import run_scenario_sweep
from .var1 import Var1Design, design_var1, var1_fyx_closed_form

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; code 2 is reserved for validation failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: float, digits: int) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0
    return "%.*g" % (digits, v)


def _cell(value, digits: int) -> str:
    if isinstance(value, str):
        return value
    if _is_int(value):
        return str(int(value))
    return _fmt(value, digits)


def _print_table(headers, rows, digits: int) -> None:
    text = [[_cell(c, digits) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in text)) if text else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in text:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _print_matrix(title: str, mat, digits: int) -> None:
    body = [[_fmt(v, digits) for v in row] for row in mat]
    widths = [max(len(r[j]) for r in body) for j in range(len(body[0]))]
    print(f"{title}:")
    for row in body:
        print("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _write_csv(path: str, headers, rows, digits: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_cell(c, digits) for c in row])


def _doc_matrix(doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"model document is missing {key!r}")
    return _as_matrix(doc[key], f"model entry {key!r}")


def _doc_partition(doc: dict, p: int) -> JointPartition | None:
    if "px" not in doc:
        return None
    px = doc["px"]
    if not _is_int(px) or not 1 <= px < p:
        raise ValueError(f'"px" must be an integer in [1, {p - 1}] for this model')
    return JointPartition(px, p - px)


def _load_model(path: str) -> ISSModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    kind = doc.get("type")
    if kind == "iss":
        a, c, k, v = (_doc_matrix(doc, key) for key in ("A", "C", "K", "V"))
        return ISSModel(a, c, k, v, _doc_partition(doc, c.shape[0]))
    if kind == "var":
        if "coeffs" not in doc or not isinstance(doc["coeffs"], list) or not doc["coeffs"]:
            raise ValueError('VAR document needs a non-empty "coeffs" list')
        sigma = _doc_matrix(doc, "sigma")
        return var_to_iss(doc["coeffs"], sigma, _doc_partition(doc, sigma.shape[0]))
    raise ValueError(f'{path}: "type" must be "iss" or "var"')


def _dump_iss(model: ISSModel, path: str) -> None:
    doc = {
        "type": "iss",
        "A": model.A.tolist(),
        "C": model.C.tolist(),
        "K": model.K.tolist(),
        "V": model.V.tolist(),
    }
    if model.partition is not None:
        doc["px"] = model.partition.px
    _dump_doc(doc, path)


def _dump_doc(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _read_series(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    header = [cell.strip() for cell in rows[0]]
    if all(numeric(cell) for cell in header):
        raise ValueError(f"{path}: a header row with column names is required")
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i} has a non-numeric cell") from exc
    if not data:
        raise ValueError(f"{path}: no data rows below the header")
    return header, data


def _gem_rows(summary) -> list:
    return [[summary.fyx, summary.fxy, summary.fydx, summary.fxoy]]


_GEM_HEADERS = ["fyx", "fxy", "fydx", "fxoy"]


def _cmd_validate(args) -> int:
    model = _load_model(args.model)
    report = validate_iss(model)
    print(report)
    print("result: pass" if report.passed else "result: FAIL")
    return 0 if report.passed else 2


def _cmd_gem(args) -> int:
    grid = default_grid(args.grid)
    model = _load_model(args.model)
    summary = gem_time_domain(model)
    _print_table(_GEM_HEADERS, _gem_rows(summary), args.digits)
    if args.csv:
        _write_csv(args.csv, _GEM_HEADERS, _gem_rows(summary), args.digits)
    if args.freq_curve:
        yx = gem_frequency(model, grid, direction="y->x")
        xy = gem_frequency(model, grid, direction="x->y")
        rows = list(zip(grid, yx.curve.values, xy.curve.values))
        _write_csv(args.freq_curve, ["lambda", "fyx", "fxy"], rows, args.digits)
    return 0


def _cmd_sweep(args) -> int:
    model = _load_model(args.model)
    result = run_scenario_sweep(model, args.factors)
    rows = [[row.factor, *_gem_rows(row.measures)[0]] for row in result.rows]
    _print_table(["m", *_GEM_HEADERS], rows, args.digits)
    if args.csv:
        _write_csv(args.csv, ["m", *_GEM_HEADERS], rows, args.digits)
    return 0


def _cmd_design(args) -> int:
    lam1 = args.lambda1[0] * cmath.exp(1j * args.lambda1[1])
    lam2 = args.lambda2[0] * cmath.exp(1j * args.lambda2[1])
    design = Var1Design(
        lam1,
        lam2,
        xi_x=args.xi_x,
        xi_y=args.xi_y,
        rho=args.rho,
        sign_gx=args.sign_gx,
        sign_gy=args.sign_gy,
        root_case=args.root_case,
    )
    model = design_var1(design)
    _print_matrix("A", model.A, args.digits)
    _print_matrix("sigma", model.sigma, args.digits)
    print(f"closed-form fyx  {_fmt(var1_fyx_closed_form(model, 'y->x'), args.digits)}")
    print(f"closed-form fxy  {_fmt(var1_fyx_closed_form(model, 'x->y'), args.digits)}")
    if args.output:
        _dump_doc(
            {"type": "var", "coeffs": [model.A.tolist()], "sigma": model.sigma.tolist(), "px": 1},
            args.output,
        )
    return 0


def _cmd_spectrum(args) -> int:
    grid = default_grid(args.grid)
    model = _load_model(args.model)
    curve = spectrum_of_iss(model, grid)
    headers = ["lambda"] + [f"s{i + 1}{i + 1}" for i in range(model.p)]
    diag = curve.values[:, np.arange(model.p), np.arange(model.p)].real
    rows = [[lam, *row] for lam, row in zip(curve.grid, diag)]
    if args.csv:
        _write_csv(args.csv, headers, rows, args.digits)
    else:
        _print_table(headers, rows, args.digits)
    return 0


def _cmd_filter(args) -> int:
    model = _load_model(args.model)
    if args.taps is not None:
        coeffs = {"all channels": args.taps}
        taps = np.einsum("k,ij->kij", np.asarray(args.taps, dtype=float), np.eye(model.p))
        filt = FirFilter(taps, model.partition)
    else:
        partition = model.require_partition()
        tx = args.taps_x if args.taps_x is not None else [1.0]
        ty = args.taps_y if args.taps_y is not None else [1.0]
        coeffs = {"x block": tx, "y block": ty}
        filt = FirFilter.block_scalar(tx, ty, partition)
    for label, c in coeffs.items():
        verdict = min_phase_check(c) if len(c) > 1 else None
        phase = "minimum phase" if verdict is None or verdict.is_min_phase else "not minimum phase"
        print(f"{label}: {phase}")
    filtered = apply_fir_filter(model, filt)
    if filtered.partition is not None:
        _print_table(_GEM_HEADERS, _gem_rows(gem_time_domain(filtered)), args.digits)
    if args.output:
        _dump_iss(filtered, args.output)
    return 0


def _cmd_hrf(args) -> int:
    taps = hrf_glover(fa=args.fa, fb=args.fb, tr=args.tr, duration=args.duration).scalar_taps
    verdict = min_phase_check(taps)
    largest = float(np.abs(verdict.zeros).max()) if len(verdict.zeros) else 0.0
    rows = [[k, k * args.tr, h] for k, h in enumerate(taps, start=1)]
    _print_table(["k", "t", "h"], rows, args.digits)
    print(f"minimum phase: {'yes' if verdict.is_min_phase else 'no'} (largest zero modulus {_fmt(largest, args.digits)})")
    if args.csv:
        _write_csv(args.csv, ["k", "t", "h"], rows, args.digits)
    return 0


def _cmd_fit(args) -> int:
    header, data = _read_series(args.data)
    series = TimeSeries(data)
    coefficients, sigma = fit_var_ols(series, args.order)
    print(f"fitted VAR({args.order}) on {series.steps} steps of {series.channels} channels "
          f"({', '.join(header)})")
    for k, a in enumerate(coefficients, start=1):
        _print_matrix(f"A{k}", a, args.digits)
    _print_matrix("sigma", sigma, args.digits)
    if args.output:
        doc = {"type": "var", "coeffs": [a.tolist() for a in coefficients], "sigma": sigma.tolist()}
        if args.px is not None:
            if not 1 <= args.px < series.channels:
                raise ValueError(f"--px must be in [1, {series.channels - 1}] for this data")
            doc["px"] = args.px
        _dump_doc(doc, args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssgc", description="State-space Granger causality toolbox.")
    common = _Parser(add_help=False)
    common.add_argument("--digits", type=int, default=6, metavar="N",
                        help="significant digits for numeric output (default 6)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common], help="run structural checks on a model file")
    p.add_argument("model", help="JSON model file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("gem", parents=[common], help="time-domain causality measures of a model")
    p.add_argument("model", help="JSON model file with a partition")
    p.add_argument("--csv", metavar="PATH", help="also write the measures as CSV")
    p.add_argument("--freq-curve", metavar="PATH",
                   help="write (lambda, fyx, fxy) frequency curves as CSV")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, metavar="N",
                   help="frequency grid size for --freq-curve (default %(default)s)")
    p.set_defaults(handler=_cmd_gem)

    p = sub.add_parser("sweep", parents=[common],
                       help="measures of the model downsampled by each factor")
    p.add_argument("model", help="JSON model file with a partition")
    p.add_argument("--factors", type=_int_list, required=True, metavar="M1,M2,...",
                   help="strictly increasing downsampling factors, e.g. 1,2,3,10")
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("design", parents=[common],
                       help="construct a bivariate VAR(1) from eigenvalues and causal strengths")
    p.add_argument("--lambda1", nargs=2, type=float, required=True, metavar=("MOD", "ANG"),
                   help="first eigenvalue as modulus and angle in radians")
    p.add_argument("--lambda2", nargs=2, type=float, required=True, metavar=("MOD", "ANG"),
                   help="second eigenvalue as modulus and angle in radians")
    p.add_argument("--xi-x", type=float, required=True, help="causal strength onto x")
    p.add_argument("--xi-y", type=float, required=True, help="causal strength onto y")
    p.add_argument("--rho", type=float, default=0.0, help="innovation correlation (default 0)")
    p.add_argument("--sign-gx", type=int, choices=(-1, 1), default=1, help="sign of gamma_x")
    p.add_argument("--sign-gy", type=int, choices=(-1, 1), default=1, help="sign of gamma_y")
    p.add_argument("--root-case", type=int, choices=(1, 2), default=1,
                   help="which quadratic root becomes phi_x (default 1: the '+' root)")
    p.add_argument("--output", metavar="PATH", help="write the designed model as JSON")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("spectrum", parents=[common], help="spectral density diagonal of a model")
    p.add_argument("model", help="JSON model file")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, metavar="N",
                   help="frequency grid size (default %(default)s)")
    p.add_argument("--csv", metavar="PATH",
                   help="write rows to CSV instead of printing them")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("filter", parents=[common], help="apply a causal FIR filter to a model")
    p.add_argument("model", help="JSON model file")
    p.add_argument("--taps", type=_float_list, metavar="C0,C1,...",
                   help="scalar taps applied to every channel")
    p.add_argument("--taps-x", type=_float_list, metavar="C0,C1,...",
                   help="scalar taps for the x block (needs a partition)")
    p.add_argument("--taps-y", type=_float_list, metavar="C0,C1,...",
                   help="scalar taps for the y block (needs a partition)")
    p.add_argument("--output", metavar="PATH", help="write the filtered model as JSON")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("hrf", parents=[common],
                       help="hemodynamic response FIR taps and their phase verdict")
    p.add_argument("--fa", type=float, default=1.0, help="bump amplitude (default 1)")
    p.add_argument("--fb", type=float, default=1.0, help="undershoot weight (default 1)")
    p.add_argument("--tr", type=float, default=1.0, help="sampling interval in seconds (default 1)")
    p.add_argument("--duration", type=float, default=32.0,
                   help="filter length in seconds (default 32)")
    p.add_argument("--csv", metavar="PATH", help="also write the taps as CSV")
    p.set_defaults(handler=_cmd_hrf)

    p = sub.add_parser("fit", parents=[common], help="least-squares VAR fit of a CSV time series")
    p.add_argument("data", help="CSV file with a header row, one column per channel")
    p.add_argument("--order", type=int, required=True, help="VAR order")
    p.add_argument("--px", type=int, help="size of the leading block, stored in --output")
    p.add_argument("--output", metavar="PATH", help="write the fitted model as JSON")
    p.set_defaults(handler=_cmd_fit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "filter" and args.taps is not None and (
        args.taps_x is not None or args.taps_y is not None
    ):
        print("error: --taps cannot be combined with --taps-x/--taps-y", file=sys.stderr)
        return 1
    if args.command == "filter" and args.taps is None and args.taps_x is None and args.taps_y is None:
        print("error: filter needs --taps or --taps-x/--taps-y", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (PreconditionError, ConvergenceError, InfeasibleDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
