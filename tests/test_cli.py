"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ssgc
from ssgc.cli import main

from support import random_iss, white_x_unidirectional


@pytest.fixture
def model_file(tmp_path):
    rng = np.random.default_rng(90)
    mdl = random_iss(rng, n=3, px=1, py=1)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "type": "iss",
        "A": mdl.A.tolist(), "C": mdl.C.tolist(),
        "K": mdl.K.tolist(), "V": mdl.V.tolist(),
        "px": 1,
    }))
    return str(path)


@pytest.fixture
def var_file(tmp_path):
    path = tmp_path / "var.json"
    path.write_text(json.dumps({
        "type": "var",
        "coeffs": [[[0.5, 0.4], [0.0, 0.3]]],
        "sigma": [[1.0, 0.2], [0.2, 1.0]],
        "px": 1,
    }))
    return str(path)


def test_validate_good_model(model_file, capsys):
    assert main(["validate", model_file]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert out.count("ok") >= 5


def test_validate_reports_failure_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "type": "iss", "A": [[1.2]], "C": [[1.0]], "K": [[1.2]], "V": [[1.0]],
    }))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "A stable" in out


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, name", [
    ({"type": "iss", "A": [[float("nan")]], "C": [[1.0]], "K": [[0.5]], "V": [[1.0]]},
     "model entry 'A' contains non-finite entries"),
    ({"type": "iss", "A": [[0.5]], "C": {"c": 1.0}, "K": [[0.5]], "V": [[1.0]]},
     "model entry 'C' is not a numeric array"),
    ({"type": "var", "coeffs": [[[float("nan")]]], "sigma": [[1.0]]},
     "coefficients[0] contains non-finite entries"),
    ({"type": "var", "coeffs": [[[0.5]]], "sigma": {"s": 1.0}},
     "model entry 'sigma' is not a numeric array"),
    ({"type": "iss", "A": [["0.5"]], "C": [[1.0]], "K": [[0.5]], "V": [[1.0]]},
     "model entry 'A' is not a numeric array"),
])
def test_non_finite_or_non_numeric_entry_is_a_usage_error(doc, name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN is written as the literal NaN
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {name}"]


def test_missing_file_is_a_usage_error(capsys):
    assert main(["validate", "no_such_file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_model_type_rejected(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"type": "arma", "A": [[0.5]]}))
    assert main(["validate", str(path)]) == 1


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_gem_table_and_csv(model_file, tmp_path, capsys):
    csv_path = tmp_path / "gem.csv"
    assert main(["gem", model_file, "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["fyx", "fxy", "fydx", "fxoy"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "fyx,fxy,fydx,fxoy"
    values = [float(v) for v in lines[1].split(",")]
    with open(model_file) as fh:
        doc = json.load(fh)
    g = ssgc.gem_time_domain(ssgc.ISSModel(
        **{k: np.array(doc[k]) for k in "ACKV"}, partition=ssgc.JointPartition(1, 1)
    ))
    assert values == pytest.approx([g.fyx, g.fxy, g.fydx, g.fxoy], rel=1e-4)


def test_gem_frequency_curve_export(var_file, tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    assert main(["gem", var_file, "--freq-curve", str(curve_path), "--grid", "64"]) == 0
    capsys.readouterr()
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "lambda,fyx,fxy"
    assert len(lines) == 65
    # the integral of the exported curve reproduces the time-domain number
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    mdl = ssgc.var_to_iss([np.array([[0.5, 0.4], [0.0, 0.3]])],
                          np.array([[1.0, 0.2], [0.2, 1.0]]),
                          partition=ssgc.JointPartition(1, 1))
    g = ssgc.gem_time_domain(mdl)
    assert body[:, 1].mean() == pytest.approx(g.fyx, abs=1e-3)


def test_gem_output_is_deterministic(model_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gem", model_file, "--csv", str(a)]) == 0
    assert main(["gem", model_file, "--csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gem_requires_partition(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "type": "iss", "A": [[0.5]], "C": [[1.0], [0.0]],
        "K": [[0.2, 0.1]], "V": [[1.0, 0.0], [0.0, 1.0]],
    }))
    assert main(["gem", str(path)]) == 1
    assert "partition" in capsys.readouterr().err


def test_gem_indefinite_covariance_exits_2(tmp_path, capsys):
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps({
        "type": "iss", "A": [[0.5]], "C": [[1.0], [0.0]],
        "K": [[0.2, 0.1]], "V": [[1.0, 2.0], [2.0, 1.0]], "px": 1,
    }))
    assert main(["gem", str(path)]) == 2
    assert "not PSD" in capsys.readouterr().err
    # filter names the model's V, not the filter
    assert main(["filter", str(path), "--taps", "1,0.5"]) == 2
    assert "error: V must be positive definite" in capsys.readouterr().err


def test_digits_flag_controls_formatting(model_file, capsys):
    assert main(["gem", model_file, "--digits", "12"]) == 0
    twelve = capsys.readouterr().out
    assert main(["gem", model_file]) == 0
    six = capsys.readouterr().out
    twelve_first = twelve.splitlines()[1].split()[0]
    six_first = six.splitlines()[1].split()[0]
    assert len(twelve_first) > len(six_first)
    assert float(twelve_first) == pytest.approx(float(six_first), rel=1e-5)


@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_below_one_is_a_usage_error(model_file, digits, capsys):
    """"%.*g" would clamp 0 and below to one digit: the flag names them instead."""
    with pytest.raises(SystemExit) as exc:
        main(["gem", model_file, "--digits", digits])
    assert exc.value.code == 1
    assert "--digits" in capsys.readouterr().err


def test_sweep_lists_requested_factors(var_file, capsys):
    assert main(["sweep", var_file, "--factors", "1,2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["m", "fyx"]
    assert [line.split()[0] for line in lines[1:]] == ["1", "2", "4"]


def test_sweep_rejects_bad_factors(var_file, capsys):
    assert main(["sweep", var_file, "--factors", "2,1"]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["sweep", var_file, "--factors", "two"])


def test_design_round_trips_through_gem(tmp_path, capsys):
    out_path = tmp_path / "designed.json"
    code = main([
        "design", "--lambda1", "0.5", "0", "--lambda2", "0.3", "0",
        "--xi-x", "0.4", "--xi-y", "1.2", "--rho", "0.2",
        "--sign-gx", "-1", "--output", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    closed = {
        line.split()[1]: float(line.split()[2])
        for line in out.splitlines() if line.startswith("closed-form")
    }
    assert main(["gem", str(out_path), "--digits", "10"]) == 0
    table = capsys.readouterr().out.splitlines()
    fyx, fxy = (float(v) for v in table[1].split()[:2])
    assert fyx == pytest.approx(closed["fyx"], rel=1e-4)
    assert fxy == pytest.approx(closed["fxy"], rel=1e-4)


def test_design_conjugate_pair_accepted(capsys):
    code = main([
        "design", "--lambda1", "0.9", "0.4", "--lambda2", "0.9", "-0.4",
        "--xi-x", "0.3", "--xi-y", "0.3", "--sign-gx", "-1",
    ])
    assert code == 0
    assert "A:" in capsys.readouterr().out


def test_design_repeated_eigenvalue(capsys):
    """A repeated eigenvalue with nonzero coupling gives a defective A; it is designed."""
    code = main([
        "design", "--lambda1", "0.5", "0", "--lambda2", "0.5", "0",
        "--xi-x", "1", "--xi-y", "1", "--sign-gy", "-1",
    ])
    assert code == 0
    out, err = capsys.readouterr()
    assert "closed-form fyx" in out
    assert err == ""


def test_design_infeasible_exits_2(capsys):
    code = main([
        "design", "--lambda1", "0.5", "0", "--lambda2", "0.3", "0",
        "--xi-x", "9", "--xi-y", "9",
    ])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_spectrum_csv_diagonal(var_file, tmp_path, capsys):
    csv_path = tmp_path / "spectrum.csv"
    assert main(["spectrum", var_file, "--grid", "32", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,s11,s22"
    assert len(lines) == 33
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(-np.pi, abs=1e-5)
    assert first[1] > 0 and first[2] > 0


@pytest.mark.parametrize("command", ["gem", "spectrum"])
def test_grid_below_two_points_fails_before_any_output(command, var_file, tmp_path, capsys):
    csv_path, curve_path = tmp_path / "a.csv", tmp_path / "c.csv"
    args = [command, var_file, "--csv", str(csv_path), "--grid", "1"]
    if command == "gem":
        args += ["--freq-curve", str(curve_path)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid needs at least 2 points\n"
    assert not csv_path.exists() and not curve_path.exists()


def test_filter_block_taps_preserve_measures(model_file, capsys):
    assert main(["gem", model_file]) == 0
    before = capsys.readouterr().out.splitlines()[1]
    assert main(["filter", model_file, "--taps-x", "1,0.4", "--taps-y", "1,-0.3"]) == 0
    out = capsys.readouterr().out
    assert "x block: minimum phase" in out
    assert "y block: minimum phase" in out
    assert out.splitlines()[-1] == before


def test_filter_scalar_taps_on_every_channel(model_file, capsys):
    assert main(["gem", model_file]) == 0
    before = capsys.readouterr().out.splitlines()
    assert main(["filter", model_file, "--taps", "1,0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "all channels: minimum phase"
    # one minimum-phase filter on both blocks keeps the measures
    assert out[1:] == before


def test_filter_flag_conflicts(model_file, capsys):
    assert main(["filter", model_file, "--taps", "1,2", "--taps-x", "1"]) == 1
    assert main(["filter", model_file]) == 1
    err = capsys.readouterr().err
    assert "cannot be combined" in err
    assert "needs --taps" in err


def test_filter_output_is_loadable(model_file, tmp_path, capsys):
    out_path = tmp_path / "filtered.json"
    assert main(["filter", model_file, "--taps-x", "1,0.4", "--taps-y", "1",
                 "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out_path)]) == 0


def test_hrf_table_and_phase_line(capsys):
    assert main(["hrf", "--tr", "2", "--duration", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["k", "t", "h"]
    assert len(lines) == 12  # 10 taps + header + verdict
    assert lines[-1].startswith("minimum phase:")


def _printed_rows(lines):
    return [line.split() for line in lines]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def test_one_tap_filters_are_minimum_phase(model_file, capsys):
    """A filter with one nonzero tap has no zeros, so both commands call it
    minimum phase."""
    assert main(["hrf", "--duration", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header, one tap, verdict
    assert lines[-1] == "minimum phase: yes (largest zero modulus 0)"
    assert main(["filter", model_file, "--taps", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "all channels: minimum phase"


def test_sweep_and_hrf_csv_hold_the_printed_rows(var_file, tmp_path, capsys):
    sweep_csv, hrf_csv = tmp_path / "sweep.csv", tmp_path / "hrf.csv"
    assert main(["sweep", var_file, "--factors", "1,2,5", "--csv", str(sweep_csv)]) == 0
    assert _csv_rows(sweep_csv) == _printed_rows(capsys.readouterr().out.splitlines())
    assert main(["hrf", "--tr", "2", "--duration", "12", "--csv", str(hrf_csv)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("minimum phase:")
    assert _csv_rows(hrf_csv) == _printed_rows(printed[:-1])
    assert len(_csv_rows(hrf_csv)) == 7  # header and 6 taps


def test_model_documents_hold_type_matrices_and_partition(model_file, tmp_path, capsys):
    """--output writes "type", the matrices, and "px" only for a partitioned model."""
    rng = np.random.default_rng(94)
    data = tmp_path / "s.csv"
    rows = rng.standard_normal((60, 2))
    data.write_text("x,y\n" + "\n".join(f"{r[0]:.6g},{r[1]:.6g}" for r in rows) + "\n")
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "type": "iss", "A": [[0.5]], "C": [[1.0], [0.0]],
        "K": [[0.2, 0.1]], "V": [[1.0, 0.0], [0.0, 1.0]],
    }))
    var_keys, iss_keys = {"type", "coeffs", "sigma"}, {"type", "A", "C", "K", "V"}
    runs = [
        (["design", "--lambda1", "0.5", "0", "--lambda2", "0.3", "0",
          "--xi-x", "0.4", "--xi-y", "0.2", "--sign-gx", "-1"], var_keys | {"px"}),
        (["fit", str(data), "--order", "1"], var_keys),
        (["fit", str(data), "--order", "2", "--px", "1"], var_keys | {"px"}),
        (["filter", model_file, "--taps-x", "1,0.4"], iss_keys | {"px"}),
        (["filter", str(flat), "--taps", "1,0.4"], iss_keys),
    ]
    for i, (args, keys) in enumerate(runs):
        out_path = tmp_path / f"doc{i}.json"
        assert main([*args, "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == keys
        assert doc.get("px", 1) == 1
        assert main(["validate", str(out_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command", ["validate", "gem", "sweep", "design", "spectrum", "filter", "hrf", "fit"]
)
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ssgc {command}")


def test_hrf_non_finite_argument_exits_1(capsys):
    assert main(["hrf", "--duration", "inf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_recovers_var_and_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(91)
    a1 = np.array([[0.5, 0.4], [0.0, 0.3]])
    vals = ssgc.simulate_var([a1], np.eye(2), 5000, rng)
    data = tmp_path / "series.csv"
    data.write_text("x,y\n" + "\n".join(f"{r[0]:.8g},{r[1]:.8g}" for r in vals) + "\n")
    out_path = tmp_path / "fitted.json"
    assert main(["fit", str(data), "--order", "1", "--px", "1",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "fitted VAR(1) on 5000 steps of 2 channels (x, y)" in out
    assert main(["gem", str(out_path)]) == 0
    capsys.readouterr()


def test_fit_rejects_headerless_and_ragged_csv(tmp_path, capsys):
    no_header = tmp_path / "nh.csv"
    no_header.write_text("1.0,2.0\n3.0,4.0\n")
    assert main(["fit", str(no_header), "--order", "1"]) == 1
    ragged = tmp_path / "rg.csv"
    ragged.write_text("x,y\n1.0,2.0\n3.0\n")
    assert main(["fit", str(ragged), "--order", "1"]) == 1
    not_num = tmp_path / "nn.csv"
    not_num.write_text("x,y\n1.0,two\n")
    assert main(["fit", str(not_num), "--order", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_fit_px_bounds_checked(tmp_path, capsys):
    rng = np.random.default_rng(92)
    data = tmp_path / "s.csv"
    rows = rng.standard_normal((50, 2))
    data.write_text("x,y\n" + "\n".join(f"{r[0]:.6g},{r[1]:.6g}" for r in rows) + "\n")
    # checked before the fit, whether or not the model is written
    for flags in (["--px", "2", "--output", str(tmp_path / "o.json")], ["--px", "9"]):
        assert main(["fit", str(data), "--order", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--px must be in [1, 1] for this data" in captured.err


def test_short_record_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("x,y\n1.0,2.0\n2.0,1.0\n0.5,0.1\n")
    assert main(["fit", str(data), "--order", "5"]) == 2
    assert "too short" in capsys.readouterr().err


def test_one_sided_model_shows_zero_column(tmp_path, capsys):
    """A model built to carry influence one way only must print zeros for the
    reverse direction."""
    rng = np.random.default_rng(93)
    mdl = white_x_unidirectional(rng, n=3, px=1, py=1)
    path = tmp_path / "oneside.json"
    path.write_text(json.dumps({
        "type": "iss",
        "A": mdl.A.tolist(), "C": mdl.C.tolist(),
        "K": mdl.K.tolist(), "V": mdl.V.tolist(),
        "px": 1,
    }))
    assert main(["sweep", str(path), "--factors", "1,2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:]:
        cells = line.split()
        assert float(cells[1]) == 0.0  # fyx column
        assert float(cells[3]) == 0.0  # fydx column


def test_package_and_cli_load_no_scipy():
    """numpy is the only runtime dependency: importing ssgc and its CLI in a
    fresh interpreter loads no scipy module, although the tests install scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ssgc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, ssgc, ssgc.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
