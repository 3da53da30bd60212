import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonosc
import anyonosc.fock
import anyonosc.spectra
from anyonosc.cli import PARAM_FLAGS, build_parser, main
from anyonosc.output import csv_text, read_csv
from anyonosc.sweeps import GENERATORS, config_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliBasics:
    def test_parser_is_built_once_and_parses_without_state(self):
        parser = build_parser()
        assert build_parser() is parser
        first = parser.parse_args(["fig3", "--t2", "5", "--svg", "--out", "d"])
        assert (first.t2, first.svg) == (5.0, True)
        later = parser.parse_args(["spectrum"])
        assert (later.t2, later.svg, later.out) == (0.0, None, None)
        assert parser.parse_args(["fig3"]).t2 == 0.0

    def test_a_cli_process_never_imports_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a spectrum with t2 > 0 (expm),
        # the closed-form commands and the writers must not pull scipy in
        src = os.path.dirname(os.path.dirname(os.path.abspath(anyonosc.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        grid = str(tmp_path / "grid.csv")
        code = "\n".join([
            "import sys",
            "import anyonosc.cli as cli",
            f"assert cli.main(['spectrum', '--t2', '5', '--grid', '8', '--out', {grid!r},"
            f" '--svg', {grid + '.svg'!r}]) == 0",
            "assert cli.main(['ep-locate', '--xi', '1.0']) == 0",
            "assert cli.main(['dimer-rates', '--grid', '5']) == 0",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_single_rates_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "single-rates", "--grid", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("theta [rad],gamma_stat [omega]")
        assert len(lines) == 6  # header + 5 rows

    def test_data_to_file_diagnostics_to_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, out, err = run_cli(capsys, "single-rates", "--grid", "5",
                                 "--out", str(out_path))
        assert code == 0
        assert out == ""  # nothing on stdout
        assert "wrote" in err
        assert out_path.exists()
        assert (tmp_path / "rates.csv.meta.json").exists()

    def test_validation_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "single-rates", "--beta", "-1")
        assert code == 1
        assert "beta must be positive" in err

    def test_unknown_flag_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "single-rates", "--bogus", "1")
        assert code == 1

    def test_a_subcommand_parse_error_has_the_one_prefix(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--grid", "nan")
        assert (code, out) == (1, "")
        assert err == "anyonosc: error: argument --grid: invalid int value: 'nan'\n"

    def test_ep_locate(self, capsys):
        code, out, err = run_cli(capsys, "ep-locate", "--xi", "1.0")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("theta_star [rad]")
        vals = row.split(",")
        assert 2.0 < float(vals[0]) < math.pi
        assert float(vals[1]) < 1e-7
        assert int(vals[2]) == 1

    def test_ep_locate_no_ep(self, capsys):
        code, out, err = run_cli(capsys, "ep-locate", "--xi", "0.0")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert int(row[2]) == 0

    # at xi = 0 W_eff is diagonal, and where its frequencies cross a multiple
    # of the identity: a zero gap there is a normal degeneracy, not an EP
    @pytest.mark.parametrize("argv, theta_star, gap", [
        (("--convention", "maintext"), "1.5707963267948961", "0"),
        (("--range", "3.0:3.141592653589793"), "3.1415926535897891", "8.8817841970012523e-16"),
    ], ids=["maintext", "bracket-at-pi"])
    def test_ep_locate_scalar_point_is_no_ep(self, capsys, argv, theta_star, gap):
        code, out, err = run_cli(capsys, "ep-locate", *argv)
        assert code == 0, err
        row = out.strip().split("\n")[1].split(",")
        assert row == [theta_star, gap, "0", "9.9999999999999995e-08"]

    def test_fig2_flags_no_scalar_point(self, capsys):
        code, out, err = run_cli(capsys, "fig2")
        assert code == 0, err
        header, *lines = out.strip().split("\n")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        assert header.split(",")[-1] == "ep_flag [bool]"
        scalar = (rows[:, 0] == math.pi) & (rows[:, 1] == 0.0)
        assert np.count_nonzero(scalar) == 1 and rows[scalar, 6] == 0.0
        assert not rows[:, 7].any()


class TestCliNegativeNumbers:
    # argparse's default reads -1e-05 as a flag ("expected one argument")
    @pytest.mark.parametrize("argv, code, message", [
        (("ep-locate", "--xi", "-1e-05"), 0, None),
        (("dimer-rates", "--xi", "-2.5E-1", "--grid", "3"), 0, None),
        (("fig2", "--xi-list", "-.5", "--grid", "3"), 0, None),
        (("fig3", "--xi-list", "-7.4e-05", "--theta-list", "1", "--grid", "4"), 0, None),
        (("spectrum", "--range", "-0.3:0.3", "--grid", "3"), 0, None),
        (("spectrum", "--theta", "-1e-3", "--grid", "3"), 1, "theta must lie in [0, pi]"),
        (("spectrum", "--theta", "-1.", "--grid", "3"), 1, "theta must lie in [0, pi]"),
    ], ids=["ep-locate", "dimer-rates", "fig2", "fig3", "spectrum-range", "theta-exponent",
            "theta-trailing-dot"])
    def test_negative_values_are_not_flags(self, capsys, tmp_path, argv, code, message):
        got, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert got == code, err
        assert "expected one argument" not in err
        if message:
            assert message in err


class TestCliAxisRule:
    # one rule for every sweep axis: count >= 2 and finite endpoints, exit 1;
    # a spectrum axis also needs a finite span and distinct detunings
    @pytest.mark.parametrize("argv", [
        ("single-rates", "--grid", "0"),
        ("single-rates", "--grid", "1"),
        ("dimer-rates", "--grid", "0"),
        ("dimer-rates", "--grid", "1"),
        ("fig1", "--grid", "0"),
        ("fig2", "--grid", "0"),
        ("fig3", "--grid", "0", "--theta-list", "1"),
        ("spectrum", "--range=-inf:0", "--grid", "4"),
        ("dimer-rates", "--range=0:nan"),
        ("ep-locate", "--range=0:inf"),
        ("spectrum", "--grid", "3", "--range=-1e308:1e308"),
        ("spectrum", "--grid", "3", "--range=0:5e-324"),
    ], ids=["single-rates-0", "single-rates-1", "dimer-rates-0", "dimer-rates-1", "fig1-0",
            "fig2-0", "fig3-0", "spectrum-inf", "dimer-rates-nan", "ep-locate-inf",
            "spectrum-span-overflow", "spectrum-equal-detunings"])
    def test_bad_axis_is_a_validation_error(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1, err
        assert "error" in err
        assert not out.is_file() and stdout == ""

    # an empty --range is a malformed range, not the default one
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("argv", [("ep-locate",), ("dimer-rates", "--grid", "3"),
                                      ("single-rates", "--grid", "3")],
                             ids=["ep-locate", "dimer-rates", "single-rates"])
    def test_empty_range_is_refused(self, capsys, tmp_path, argv, to_file):
        out = ("--out", str(tmp_path / "out.csv")) if to_file else ()
        code, stdout, err = run_cli(capsys, *argv, "--range=", *out)
        assert code == 1, err
        assert "--range takes lo:hi, got ''" in err
        assert list(tmp_path.iterdir()) == [] and stdout == ""

    # a bad result refuses itself when it is made: nothing reaches a file or stdout
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("theta, gap, code, message", [
        (math.nan, math.nan, 2, "compute error"),
        ((1.0, 2.0), (0.0, 1.0, 2.0), 1, "cannot be broadcast"),
    ], ids=["non-finite", "unbroadcastable"])
    def test_bad_ep_result_is_refused_before_writing(self, capsys, monkeypatch, tmp_path,
                                                     to_file, theta, gap, code, message):
        import anyonosc.cli
        from anyonosc.dimer import EPResult

        monkeypatch.setattr(anyonosc.sweeps, "find_exceptional_point",
                            lambda *args: EPResult(False, theta, gap, 1e-7))
        argv = ("--out", str(tmp_path / "ep.csv")) if to_file else ()
        got, stdout, err = run_cli(capsys, "ep-locate", *argv)
        assert got == code
        assert message in err
        assert list(tmp_path.iterdir()) == [] and stdout == ""


class TestCliNonFiniteParameters:
    # NaN in any field, +/-inf in omega, gamma and coupling_j: a validation
    # error naming the parameter, before any compute
    @pytest.mark.parametrize("argv, message", [
        (("dimer-rates", "--coupling", "nan"), "coupling_j must be finite, got nan"),
        (("dimer-rates", "--coupling=-inf"), "coupling_j must be finite, got -inf"),
        (("ep-locate", "--gamma", "inf"), "gamma must be non-negative and finite, got inf"),
        (("spectrum", "--gamma", "nan", "--grid", "4"), "gamma must be non-negative and finite"),
        (("dimer-rates", "--omega", "inf"), "omega must be positive and finite, got inf"),
        (("fig2", "--omega", "nan", "--grid", "3"), "omega must be positive and finite, got nan"),
        (("dimer-rates", "--beta", "nan"), "beta must be positive, got nan"),
        (("spectrum", "--coupling", "nan", "--grid", "4"), "coupling_j must be finite, got nan"),
    ], ids=["coupling-nan", "coupling-minus-inf", "gamma-inf", "spectrum-gamma-nan",
            "omega-inf", "fig2-omega-nan", "beta-nan", "spectrum-coupling-nan"])
    def test_non_finite_parameter_is_a_validation_error(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1, err
        assert message in err
        assert not out.exists() and stdout == ""

    # every W_eff entry and both eigenvalues are representable at gamma = 1e300,
    # though (A - D)^2 is not; at 1.7e308 the entries themselves overflow
    @pytest.mark.parametrize("argv", [("dimer-rates", "--grid", "5"), ("fig2", "--grid", "5"),
                                      ("ep-locate",), ("sweep", "--config", "run.json")],
                             ids=["dimer-rates", "fig2", "ep-locate", "sweep"])
    @pytest.mark.parametrize("gamma, code", [(1e300, 0), (1.7e308, 2)], ids=["1e300", "1.7e308"])
    def test_huge_gamma_is_finite_while_the_entries_are(self, capsys, tmp_path, monkeypatch,
                                                        argv, gamma, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(
            {"params": {"gamma": gamma}, "sweep": [{"name": "theta", "start": 0, "stop": 3,
                                                    "count": 5}]}))
        flags = () if argv[0] == "sweep" else ("--gamma", repr(gamma))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, stdout, err = run_cli(capsys, *argv, *flags)
        assert got == code, err
        if code == 0:
            assert err == "" and caught == []
            values = [float(v) for line in stdout.strip().split("\n")[1:]
                      for v in line.split(",")]
            assert values and all(math.isfinite(v) for v in values)
        else:  # one line, no numpy warning naming a library source line before it
            assert err.startswith("anyonosc: compute error: ") and err.count("\n") == 1
            assert caught == [] and stdout == ""

    @pytest.mark.parametrize("argv", [("dimer-rates", "--gamma", "1.7e308", "--grid", "5"),
                                      ("spectrum", "--gamma", "1e308", "--grid", "4",
                                       "--svg", "g.svg")], ids=["dimer-rates", "spectrum"])
    def test_overflow_is_one_compute_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, *argv, "--out", "out.csv")
        assert code == 2 and stdout == "" and caught == []
        assert re.fullmatch(r"anyonosc: compute error: [^\n]+\n", err), err
        assert list(tmp_path.iterdir()) == []

    def test_zero_temperature_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "dimer-rates", "--beta", "inf", "--grid", "3")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_param_arrays_reject_one_non_finite_point(self):
        from anyonosc import AnyonParams, ParameterError
        base = AnyonParams(theta=0.5)
        with pytest.raises(ParameterError, match=r"coupling_j must be finite, got inf"):
            base.with_(coupling_j=np.array([0.1, 0.2, math.inf, math.nan]))
        beta = base.with_(beta=np.array([1.0, math.inf]))
        assert np.all(np.isfinite(beta.z))


# Every term that tells a cold bath from beta = inf carries e^{-beta omega} <=
# e^{-709} ~ 1.2e-308, times rates of order gamma: within this of the beta = inf rows
COLD_BOUND = 1e-300


def _rows_at_zero_temperature(csv_path):
    """The rows of ``csv_path``'s sidecar config rerun at beta = inf."""
    doc = json.loads(csv_path.with_name(csv_path.name + ".meta.json").read_text())
    doc["config"]["params"]["beta"] = math.inf
    return GENERATORS[doc["generator"]](config_from_dict(doc["config"])).rows


def _assert_cold_rows(path, want):
    rows = np.array(read_csv(str(path))[2])
    assert rows.size and np.all(np.isfinite(rows))
    assert rows.shape == np.shape(want)
    assert np.max(np.abs(rows - want)) <= COLD_BOUND


class TestCliColdBath:
    # e^{beta omega} overflows math.exp from beta omega ~ 709.78 on; it is inf
    # there, as at beta = inf, where the occupation is 0
    @pytest.mark.parametrize("beta_omega", [709.0, 710.0, 1e5, 1e300])
    @pytest.mark.parametrize("argv", [
        ["dimer-rates", "--xi", "0.5", "--stat-dephasing", "on", "--grid", "5", "--beta"],
        ["dimer-rates", "--xi", "1.0", "--conjugation", "analytic", "--grid", "5", "--beta"],
        ["single-rates", "--grid", "5", "--beta"],
        ["ep-locate", "--xi", "1.0", "--beta"],
        ["fig2", "--grid", "5", "--xi-list", "0,1", "--omega"],  # --temp low: beta = 1
        ["spectrum", "--grid", "4", "--theta", "1.0", "--xi", "0.5", "--t2", "2", "--beta"],
    ], ids=["dimer-rates", "dimer-rates-analytic", "single-rates", "ep-locate", "fig2",
            "spectrum"])
    def test_cold_bath_is_the_zero_temperature_limit(self, capsys, tmp_path, argv, beta_omega):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, repr(beta_omega), "--out", str(out))
        assert code == 0, err
        _assert_cold_rows(out, _rows_at_zero_temperature(out))

    def test_sweep_across_the_exp_range(self, capsys, tmp_path):
        # beta 709, 711, ..., 719 over three angles: each beta's rows are the
        # beta = inf sweep over the angles
        theta = {"name": "theta", "start": 0.0, "stop": 3.0, "count": 3}
        out = tmp_path / "sweep.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "params": {"xi": 0.5}, "conventions": {"stat_dephasing": True},
            "sweep": [{"name": "beta", "start": 709.0, "stop": 719.0, "count": 6}, theta]}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out))
        assert code == 0, err
        cold = config_from_dict({"params": {"xi": 0.5, "beta": math.inf},
                                 "conventions": {"stat_dephasing": True}, "sweep": [theta]})
        want = np.array(GENERATORS["sweep"](cold).rows)
        got = np.array(read_csv(str(out))[2])
        assert np.array_equal(got[:, 0], np.repeat(np.linspace(709.0, 719.0, 6), 3))
        _assert_cold_rows(out, np.column_stack([got[:, 0], np.tile(want, (6, 1))]))

    # beta * omega itself beyond the float range: the product is inf, as at beta = inf
    @pytest.mark.parametrize("argv", [
        ["dimer-rates", "--beta", "1e200", "--omega", "1e200", "--grid", "3"],
        ["dimer-rates", "--beta", "1e300", "--omega", "1e10", "--grid", "3"],
        ["single-rates", "--beta", "1e200", "--omega", "1e200", "--grid", "3"],
        ["spectrum", "--beta", "1e200", "--omega", "1e200", "--grid", "4"],
    ], ids=["dimer-rates", "dimer-rates-beta", "single-rates", "spectrum"])
    def test_product_beyond_the_float_range(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0, err
        _assert_cold_rows(out, _rows_at_zero_temperature(out))


FILE_COMMANDS = {
    "single-rates": ["single-rates", "--grid", "5"],
    "dimer-rates": ["dimer-rates", "--xi", "0.5", "--grid", "5", "--stat-dephasing", "on"],
    "ep-locate": ["ep-locate", "--xi", "1.0", "--conjugation", "analytic"],
    "spectrum": ["spectrum", "--grid", "4", "--convention", "maintext"],
    "fig1": ["fig1", "--grid", "5"],
    "fig2": ["fig2", "--grid", "5", "--xi-list", "0,1"],
    "fig3": ["fig3", "--grid", "4", "--theta-list", "0,1.5", "--xi-list", "0"],
    "sweep": ["sweep", "--config"],
}


def _assert_regenerates(csvs):
    """Each CSV's bytes are those its sidecar's generator makes from its sidecar's config alone."""
    assert csvs
    for path in csvs:
        doc = json.loads(path.with_name(path.name + ".meta.json").read_text())
        result = GENERATORS[doc["generator"]](config_from_dict(doc["config"]))
        assert path.read_bytes() == csv_text(result).encode(), path


class TestCliProvenance:
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_every_sidecar_comes_from_its_config(self, capsys, tmp_path, command):
        from anyonosc.output import validate_metadata

        argv = list(FILE_COMMANDS[command])
        if command == "sweep":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({
                "conventions": {"jump_basis": "deformed"},
                "sweep": [{"name": "theta", "start": 0.0, "stop": 3.0, "count": 4}]}))
            argv.append(str(cfg_path))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0, err
        csvs = ([out / "fig3_slices.csv", out / "fig3_overlay.csv"] if command == "fig3"
                else [out])
        for path in csvs:
            doc = validate_metadata(json.loads(path.with_name(path.name + ".meta.json").read_text()))
            assert config_from_dict(doc["config"]).sha256() == doc["config_sha256"]
            assert doc["conventions"] == doc["config"]["conventions"]
            assert doc["columns"] == [h.split(" [")[0] for h in
                                      path.read_text().split("\n")[0].split(",")]
            if command == "spectrum":
                assert doc["grid"]["frequency"] == "appendix"
        _assert_regenerates(csvs)

    def test_the_commands_reach_every_generator(self):
        assert sorted(GENERATORS) == sorted({name for names in anyonosc.cli._GENERATED.values()
                                             for name in names})


class TestCliSpectrum:
    def test_spectrum_csv_and_svg(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        out_svg = tmp_path / "grid.svg"
        code, out, err = run_cli(capsys, "spectrum", "--theta", "0.5", "--xi", "0.5",
                                 "--grid", "12", "--out", str(out_csv),
                                 "--svg", str(out_svg))
        assert code == 0
        assert out_csv.exists() and out_svg.exists()
        body = out_csv.read_text()
        assert body.startswith("omega_tau [omega],omega_t [omega],re [arb],im [arb]")
        assert len(body.strip().split("\n")) == 1 + 12 * 12

    def test_spectrum_rejects_cutoff_one(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--cutoff", "1", "--grid", "4")
        assert code == 1
        assert "third-order spectra need the two-excitation manifold: cutoff >= 2" in err

    @pytest.mark.parametrize("out, svg, first, file", [
        ("g", "g", "--out g", "g"),
        ("g.csv", "g.csv.meta.json", "--out g.csv: g.csv.meta.json", "g.csv.meta.json"),
        ("g.csv", "./sub/../g.csv", "--out g.csv", "g.csv")],
        ids=["csv", "sidecar", "same-file"])
    def test_svg_onto_its_own_csv_or_sidecar_is_refused(self, capsys, tmp_path, monkeypatch,
                                                        out, svg, first, file):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", None)  # no compute
        code, stdout, err = run_cli(capsys, "spectrum", "--grid", "4", "--out", out,
                                    "--svg", svg)
        assert code == 1
        real = os.path.join(os.path.realpath(tmp_path), file)
        assert err == f"anyonosc: error: {first} and --svg {svg} both name {real}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"] and stdout == ""

    @pytest.mark.parametrize("svg, message", [
        ("sub", "--svg sub is a directory"),
        ("missing/x.svg", "--svg missing/x.svg: missing is not a directory"),
        ("f/x.svg", "--svg f/x.svg: f is not a directory")],
        ids=["directory", "missing-parent", "file-parent"])
    def test_svg_that_cannot_be_opened_is_refused(self, capsys, tmp_path, monkeypatch,
                                                  svg, message):
        (tmp_path / "sub").mkdir()
        (tmp_path / "f").write_text("")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", None)  # no compute
        code, stdout, err = run_cli(capsys, "spectrum", "--grid", "4", "--out", "g.csv",
                                    "--svg", svg)
        assert code == 1
        assert f"anyonosc: error: {message}" in err and "wrote" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "sub"] and stdout == ""
        assert not any((tmp_path / "sub").iterdir())

    def test_spectrum_odd_grid_is_finite(self, capsys, tmp_path):
        # grid 17 puts detuning 0 on both axes
        out_csv, out_svg = tmp_path / "g.csv", tmp_path / "g.svg"
        code, _, err = run_cli(capsys, "spectrum", "--grid", "17", "--out", str(out_csv),
                               "--svg", str(out_svg))
        assert code == 0, err
        _, _, rows = read_csv(str(out_csv))
        assert np.shape(rows) == (17 * 17, 4)
        assert np.all(np.isfinite(rows))
        svg = out_svg.read_text()
        assert svg.rstrip().endswith("</svg>")
        assert "nan" not in svg.lower()

    @pytest.mark.parametrize("t2", ["-5", "nan"])
    def test_spectrum_rejects_invalid_waiting_time(self, capsys, tmp_path, t2):
        code, out, err = run_cli(capsys, "spectrum", "--grid", "4", "--t2", t2,
                                 "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert "t2" in err
        assert not (tmp_path / "g.csv").exists()

    def test_linear_algebra_failure_is_a_compute_error(self, capsys, monkeypatch):
        import anyonosc.sweeps

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", singular)
        code, out, err = run_cli(capsys, "spectrum", "--grid", "4")
        assert code == 2
        assert "compute error" in err

    # numpy's allocation failure carries a message; a bare MemoryError names itself
    @pytest.mark.parametrize("command,target,error", [
        ("spectrum", "rephasing_response", MemoryError("Unable to allocate 149. GiB")),
        ("sweep", "gamma_full_single", MemoryError())], ids=["spectrum", "sweep"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_out_of_memory_is_a_compute_error(self, capsys, monkeypatch, tmp_path, command,
                                              target, error, to_file):
        import anyonosc.sweeps

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(anyonosc.sweeps, target, exhausted)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": [AXIS]}))
        written = tmp_path / "out"
        written.mkdir()
        argv = (("--config", str(config)) if command == "sweep" else ("--grid", "4"))
        if to_file:
            argv += ("--out", str(written / "t.csv"))
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == 2
        assert f"anyonosc: compute error: {error or 'MemoryError'}" in err
        assert list(written.iterdir()) == [] and stdout == ""

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_non_finite_spectrum_is_a_compute_error(self, capsys, monkeypatch, tmp_path,
                                                    to_file):
        import anyonosc.sweeps
        original = anyonosc.sweeps.rephasing_response

        def with_nan(*args, **kwargs):
            grid = original(*args, **kwargs)
            values = grid.values.copy()
            values[1, 2] = np.nan
            return anyonosc.spectra.SpectrumGrid(grid.axis, values, np.eye(grid.axis.size),
                                                 grid.metadata)

        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", with_nan)
        out_csv, out_svg = tmp_path / "grid.csv", tmp_path / "grid.svg"
        argv = ("--out", str(out_csv)) if to_file else ()
        code, stdout, err = run_cli(capsys, "spectrum", "--grid", "4", *argv,
                                    "--svg", str(out_svg))
        assert code == 2
        assert "compute error" in err
        assert list(tmp_path.iterdir()) == [] and stdout == ""

    def test_non_finite_fig3_panel_creates_no_directory(self, capsys, monkeypatch, tmp_path):
        # the slices check themselves inside run_fig3, before the directory exists
        import anyonosc.sweeps
        original = anyonosc.sweeps.rephasing_response

        def with_nan(*args, **kwargs):
            grid = original(*args, **kwargs)
            values = grid.values.copy()
            values[2, 2] = np.inf
            return anyonosc.spectra.SpectrumGrid(grid.axis, values, np.eye(grid.axis.size),
                                                 grid.metadata)

        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", with_nan)
        code, _, err = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "1",
                               "--svg", "--out", str(tmp_path / "fig3"))
        assert code == 2
        assert "compute error" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["f", "f/sub"], ids=["file", "under-a-file"])
    def test_fig3_out_onto_a_file_is_refused(self, capsys, tmp_path, monkeypatch, out):
        (tmp_path / "f").write_text("")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(anyonosc.sweeps, "rephasing_response", None)  # no compute
        code, stdout, err = run_cli(capsys, "fig3", "--grid", "4", "--svg", "--out", out)
        assert code == 1
        assert f"anyonosc: error: --out {out}: f is not a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["f"] and stdout == ""

    def test_stdout_and_file_csv_are_identical(self, capsys, tmp_path):
        out_csv = tmp_path / "g.csv"
        argv = ("spectrum", "--theta", "0.7", "--xi", "0.3", "--grid", "9")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_bytes() == out.encode("utf-8")

    def test_grid_sidecar_records_the_fock_frequency(self, capsys, tmp_path):
        # the Fock route always uses the appendix splitting, whatever the config
        # says; the spectrum and the fig3 slices say so in one grid block
        out_csv = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--grid", "4", "--convention", "maintext",
                             "--out", str(out_csv))
        assert code == 0
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert meta["config"]["conventions"]["frequency"] == "maintext"
        assert meta["grid"]["frequency"] == "appendix"
        assert set(meta["grid"]) == {"rho_eq", "frequency", "axes", "first_interval_axis",
                                     "prefactor"}
        code, _, _ = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "1",
                             "--convention", "maintext", "--out", str(tmp_path / "fig3"))
        assert code == 0
        slices = json.loads((tmp_path / "fig3" / "fig3_slices.csv.meta.json").read_text())
        overlay = json.loads((tmp_path / "fig3" / "fig3_overlay.csv.meta.json").read_text())
        assert slices["config"]["conventions"]["frequency"] == "maintext"
        assert slices["grid"] == meta["grid"]
        assert "grid" not in overlay

    def test_grid_sidecar_agrees_with_its_config(self, capsys, tmp_path):
        from anyonosc.params import AnyonParams
        from anyonosc.spectra import GridSpec
        from anyonosc.sweeps import Conventions, RunConfig

        out_csv = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--grid", "6", "--convention", "maintext",
                             "--stat-dephasing", "on", "--out", str(out_csv))
        assert code == 0
        meta = json.loads((tmp_path / "g.csv.meta.json").read_text())
        assert meta["conventions"] == meta["config"]["conventions"]
        assert meta["conventions"]["frequency"] == "maintext"
        assert meta["conventions"]["stat_dephasing"] is True
        cfg = RunConfig(params=AnyonParams(theta=0.0, omega=1.0, coupling_j=0.2, gamma=0.1,
                                           beta=1.0, xi=0.0),
                        conventions=Conventions("maintext", "modulus", "site", True),
                        cutoff=2, grid=GridSpec(count=6, lo=-0.5, hi=0.5), t2=0.0,
                        threads=1)
        assert meta["config_sha256"] == cfg.sha256()


class TestCliFigures:
    def test_fig1_deterministic_across_threads(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "fig1", "--grid", "64", "--threads", "1",
                       "--out", str(a))[0] == 0
        assert run_cli(capsys, "fig1", "--grid", "64", "--threads", "8",
                       "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig2_high_temperature_preset(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "fig2", "--temp", "high", "--grid", "32",
                             "--xi-list", "0,1", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "fig2.csv.meta.json").read_text())
        assert meta["config"]["params"]["beta"] == 0.1

    def test_fig3_writes_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "fig3"
        code, _, err = run_cli(capsys, "fig3", "--grid", "12",
                               "--theta-list", "0,1.5", "--xi-list", "0",
                               "--svg", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "fig3_slices.csv").exists()
        assert (out_dir / "fig3_overlay.csv").exists()
        svgs = list(out_dir.glob("*.svg"))
        assert len(svgs) == 2

    def test_fig3_heatmap_files_name_their_panels(self, capsys, tmp_path):
        # each panel's SVG file is named after the (theta, xi) its heatmap's title draws
        out_dir = tmp_path / "fig3"
        code, _, err = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "0.5,1,2.25",
                               "--xi-list", "-0.5,1", "--svg", "--out", str(out_dir))
        assert code == 0, err
        names = sorted(path.name for path in out_dir.glob("*.svg"))
        assert names == sorted(f"fig3_grid_theta{theta}_xi{xi}.svg" for theta in
                               ("0.500", "1.000", "2.250") for xi in ("-0.50", "1.00"))
        for name in names:
            theta, xi = re.fullmatch(r"fig3_grid_theta(.+)_xi(.+)\.svg", name).groups()
            assert f">Re R3, theta={theta}, xi={xi}</text>" in (out_dir / name).read_text()

    @pytest.mark.parametrize("command, svg, grids", [
        ("fig3", False, 0), ("fig3", True, 4), ("spectrum", False, 1), ("spectrum", True, 1)],
        ids=["fig3", "fig3-svg", "spectrum", "spectrum-svg"])
    def test_grids_are_formed_only_where_written(self, capsys, monkeypatch, tmp_path, command,
                                                 svg, grids):
        # a grid's n x n cells come from one einsum of its two factors, made
        # once and only where a command writes them: spectrum's CSV and SVG,
        # and each fig3 panel's SVG
        shapes = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            out = einsum(*args, **kwargs)
            shapes.append(np.shape(out))
            return out

        monkeypatch.setattr(np, "einsum", spy)
        if command == "fig3":
            argv = ["fig3", "--theta-list", "0.5,1.5", "--xi-list", "0,1",
                    "--out", str(tmp_path / "fig3")] + ["--svg"] * svg
        else:
            argv = ["spectrum", "--out", str(tmp_path / "grid.csv")] + \
                ["--svg", str(tmp_path / "grid.svg")] * svg
        code, _, err = run_cli(capsys, *argv, "--grid", "24")
        assert code == 0, err
        assert (24, 2) in shapes  # the spy sees the factors made
        assert shapes.count((24, 24)) == grids

    def test_fig3_odd_grid(self, capsys, tmp_path):
        out_dir = tmp_path / "fig3"
        code, _, err = run_cli(capsys, "fig3", "--grid", "17", "--theta-list", "0.8",
                               "--xi-list", "0.5", "--out", str(out_dir))
        assert code == 0, err
        _, _, rows = read_csv(str(out_dir / "fig3_slices.csv"))
        assert len(rows) == 17
        assert np.all(np.isfinite(rows))

    def test_fig3_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "fig3", "--grid", "8")
        assert code == 1

    @pytest.mark.parametrize("argv", [("--grid", "0"), ("--cutoff", "1")], ids=["grid-0", "cutoff-1"])
    def test_fig3_validation_error_creates_no_directory(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "fig3"
        code, _, err = run_cli(capsys, "fig3", *argv, "--theta-list", "1", "--out", str(out_dir))
        assert code == 1, err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ("fig3", "--grid", "4", "--theta-list", ""),
        ("fig3", "--grid", "4", "--theta-list", "1", "--xi-list", ""),
        ("fig2", "--grid", "5", "--xi-list", ""),
    ], ids=["fig3-theta", "fig3-xi", "fig2-xi"])
    def test_empty_list_is_a_validation_error(self, capsys, tmp_path, argv):
        # an omitted list flag keeps its default; an empty one is no list
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1 and "could not convert string to float: ''" in err
        assert not out.exists() and stdout == ""


def _never(*args, **kwargs):
    raise AssertionError("computed before the path checks")


FIG3 = ("fig3-slices", "fig3-overlay")  # the generators of fig3's two CSVs


def _no_compute(monkeypatch, *names, stub=_never):
    """The generators ``names`` (``sweeps.GENERATORS``, as the CLI reaches them) call ``stub``."""
    for name in names:
        monkeypatch.setitem(GENERATORS, name, stub)


class TestCliPathsBeforeCompute:
    # the generator each command computes with
    COMPUTE = {"single-rates": "fig1", "fig1": "fig1", "dimer-rates": "fig2",
               "fig2": "fig2", "ep-locate": "ep-locate",
               "spectrum": "spectrum-grid", "sweep": "sweep"}

    @pytest.mark.parametrize("command", sorted(COMPUTE))
    @pytest.mark.parametrize("out, message", [
        ("sub", "--out sub is a directory"),
        ("missing/x.csv", "--out missing/x.csv: missing is not a directory"),
        ("f/x.csv", "--out f/x.csv: f is not a directory")],
        ids=["directory", "missing-parent", "file-parent"])
    def test_out_that_cannot_be_opened_is_refused(self, capsys, tmp_path, monkeypatch,
                                                  command, out, message):
        (tmp_path / "sub").mkdir()
        (tmp_path / "f").write_text("")
        (tmp_path / "run.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, self.COMPUTE[command])
        config = ("--config", "run.json") if command == "sweep" else ()
        code, stdout, err = run_cli(capsys, command, *config, "--out", out)
        assert code == 1
        assert err == f"anyonosc: error: {message}\n" and stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "run.json", "sub"]
        assert not any((tmp_path / "sub").iterdir())

    @pytest.mark.parametrize("command", sorted(COMPUTE))
    def test_sidecar_that_is_a_directory_is_refused(self, capsys, tmp_path, monkeypatch, command):
        (tmp_path / "x.csv.meta.json").mkdir()
        (tmp_path / "run.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, self.COMPUTE[command])
        config = ("--config", "run.json") if command == "sweep" else ()
        code, stdout, err = run_cli(capsys, command, *config, "--out", "x.csv")
        assert code == 1
        assert err == "anyonosc: error: --out x.csv: x.csv.meta.json is a directory\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "x.csv.meta.json"]
        assert not any((tmp_path / "x.csv.meta.json").iterdir())

    def test_sweep_output_path_sidecar_from_the_config_is_checked(self, capsys, tmp_path,
                                                                  monkeypatch):
        (tmp_path / "run.json").write_text(json.dumps({"output": {"path": "s.csv"}}))
        (tmp_path / "s.csv.meta.json").mkdir()
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "sweep")
        code, stdout, err = run_cli(capsys, "sweep", "--config", "run.json")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: output.path s.csv: s.csv.meta.json is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "s.csv.meta.json"]

    @pytest.mark.parametrize("name, svg", [
        ("fig3_slices.csv", False), ("fig3_overlay.csv", False),
        ("fig3_slices.csv.meta.json", False), ("fig3_overlay.csv.meta.json", False),
        ("fig3_grid_theta1.000_xi0.50.svg", True), ("fig3_grid_theta2.000_xi0.50.svg", True)])
    def test_fig3_output_that_is_a_directory_is_refused(self, capsys, tmp_path, monkeypatch,
                                                        name, svg):
        out = tmp_path / "d"
        (out / name).mkdir(parents=True)
        calls = []
        _no_compute(monkeypatch, *FIG3, stub=lambda *args: calls.append(args))
        code, stdout, err = run_cli(capsys, "fig3", "--grid", "8", "--theta-list", "1.0,2.0",
                                    "--xi-list", "0.5", *(("--svg",) if svg else ()),
                                    "--out", str(out))
        assert code == 1 and stdout == "" and calls == []
        assert err == f"anyonosc: error: --out {out}: {name} is a directory\n"
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())

    def test_fig3_svg_name_that_is_a_directory_runs_without_svg(self, capsys, tmp_path,
                                                                monkeypatch):
        out = tmp_path / "d"
        (out / "fig3_grid_theta1.000_xi0.50.svg").mkdir(parents=True)
        calls = []

        def spy(*args):
            calls.append(args)
            return run_fig3(*args)

        run_fig3 = GENERATORS["fig3-slices"]
        monkeypatch.setitem(GENERATORS, "fig3-slices", spy)
        code, _, err = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "1.0",
                               "--xi-list", "0.5", "--out", str(out))
        assert code == 0, err
        assert len(calls) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "fig3_grid_theta1.000_xi0.50.svg", "fig3_overlay.csv", "fig3_overlay.csv.meta.json",
            "fig3_slices.csv", "fig3_slices.csv.meta.json"]

    def test_sweep_output_path_from_the_config_is_checked(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "run.json").write_text(json.dumps({"output": {"path": "missing/s.csv"}}))
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "sweep")
        code, stdout, err = run_cli(capsys, "sweep", "--config", "run.json")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: output.path missing/s.csv: missing is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_two_fig3_panels_onto_one_svg_are_refused(self, capsys, tmp_path, monkeypatch):
        _no_compute(monkeypatch, *FIG3)
        code, stdout, err = run_cli(capsys, "fig3", "--grid", "8", "--theta-list",
                                    "1.0001,1.0004", "--xi-list", "0.5", "--svg",
                                    "--out", str(tmp_path / "f3"))
        assert code == 1 and stdout == ""
        real = os.path.join(os.path.realpath(tmp_path), "f3", "fig3_grid_theta1.000_xi0.50.svg")
        assert err == ("anyonosc: error: --svg panel (theta, xi) = (1.0001, 0.5) and "
                       f"--svg panel (theta, xi) = (1.0004, 0.5) both name {real}\n")
        assert list(tmp_path.iterdir()) == []

    def test_panels_that_share_an_svg_name_run_without_svg(self, capsys, tmp_path):
        out = tmp_path / "f3"
        code, _, err = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "1.0001,1.0004",
                               "--xi-list", "0.5", "--out", str(out))
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir() if p.suffix == ".csv") == [
            "fig3_overlay.csv", "fig3_slices.csv"]


    @pytest.mark.parametrize("command", sorted(set(COMPUTE) - {"sweep"}))
    def test_empty_out_is_refused(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, self.COMPUTE[command])
        code, stdout, err = run_cli(capsys, command, "--out", "")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: --out is an empty path\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_svg_is_refused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "spectrum-grid")
        code, stdout, err = run_cli(capsys, "spectrum", "--grid", "4", "--out", "g.csv",
                                    "--svg", "")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: --svg is an empty path\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_sweep_out_does_not_fall_back_to_the_config(self, capsys, tmp_path,
                                                              monkeypatch):
        (tmp_path / "run.json").write_text(json.dumps({"output": {"path": "s.csv"}}))
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "sweep")
        code, stdout, err = run_cli(capsys, "sweep", "--config", "run.json", "--out", "")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: --out is an empty path\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_empty_output_path_in_the_config_is_refused(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "run.json").write_text(json.dumps({"output": {"path": ""}}))
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "sweep")
        code, stdout, err = run_cli(capsys, "sweep", "--config", "run.json")
        assert code == 1 and stdout == ""
        assert err == "anyonosc: error: output.path is an empty path\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", sorted(COMPUTE))
    def test_sidecar_linked_onto_its_csv_is_refused(self, capsys, tmp_path, monkeypatch,
                                                    command):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "g.csv").write_text("kept\n")
        os.symlink("g.csv", tmp_path / "g.csv.meta.json")
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, self.COMPUTE[command])
        config = ("--config", "run.json") if command == "sweep" else ()
        code, stdout, err = run_cli(capsys, command, *config, "--out", "g.csv")
        assert code == 1 and stdout == ""
        real = os.path.join(os.path.realpath(tmp_path), "g.csv")
        assert err == ("anyonosc: error: --out g.csv and --out g.csv: g.csv.meta.json "
                       f"both name {real}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.csv.meta.json",
                                                              "run.json"]
        assert (tmp_path / "g.csv").read_text() == "kept\n"
        assert os.readlink(tmp_path / "g.csv.meta.json") == "g.csv"

    def test_fig3_panel_svg_linked_onto_the_slices_is_refused(self, capsys, tmp_path,
                                                               monkeypatch):
        out = tmp_path / "d"
        out.mkdir()
        (out / "fig3_slices.csv").write_text("kept\n")
        os.symlink("fig3_slices.csv", out / "fig3_grid_theta1.000_xi0.50.svg")
        _no_compute(monkeypatch, *FIG3)
        code, stdout, err = run_cli(capsys, "fig3", "--grid", "4", "--theta-list", "1.0",
                                    "--xi-list", "0.5", "--svg", "--out", str(out))
        assert code == 1 and stdout == ""
        real = os.path.join(os.path.realpath(out), "fig3_slices.csv")
        assert err == (f"anyonosc: error: --out {out}: fig3_slices.csv and "
                       f"--svg panel (theta, xi) = (1.0, 0.5) both name {real}\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "fig3_grid_theta1.000_xi0.50.svg", "fig3_slices.csv"]
        assert (out / "fig3_slices.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("flags, doc, source", [
        (("--out", "run.json"), {}, "--out run.json"),
        (("--out", "./sub/../run.json"), {}, "--out ./sub/../run.json"),
        ((), {"output": {"path": "run.json"}}, "output.path run.json")],
        ids=["out", "out-dotdot", "output-path"])
    def test_sweep_output_onto_its_config_is_refused(self, capsys, tmp_path, monkeypatch,
                                                     flags, doc, source):
        doc = dict(doc, sweep=[{"name": "theta", "start": 0, "stop": 1, "count": 3}])
        text = json.dumps(doc)
        (tmp_path / "run.json").write_text(text)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        _no_compute(monkeypatch, "sweep")
        code, stdout, err = run_cli(capsys, "sweep", "--config", "run.json", *flags)
        assert code == 1 and stdout == ""
        real = os.path.join(os.path.realpath(tmp_path), "run.json")
        assert err == f"anyonosc: error: --config run.json and {source} both name {real}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "sub"]
        assert (tmp_path / "run.json").read_text() == text


# argv of each command with every file it writes, and the generators it computes
# with; run.json is a two-axis sweep config
WRITERS = {
    "single-rates": (("single-rates", "--grid", "5", "--out", "r.csv"), ("fig1",)),
    "dimer-rates": (("dimer-rates", "--grid", "5", "--out", "d.csv"), ("fig2",)),
    "ep-locate": (("ep-locate", "--out", "e.csv"), ("ep-locate",)),
    "spectrum": (("spectrum", "--grid", "4", "--out", "g.csv"), ("spectrum-grid",)),
    "spectrum-svg": (("spectrum", "--grid", "4", "--out", "g.csv", "--svg", "g.svg"),
                     ("spectrum-grid",)),
    "fig1": (("fig1", "--grid", "5", "--out", "f1.csv"), ("fig1",)),
    "fig2": (("fig2", "--grid", "5", "--out", "f2.csv"), ("fig2",)),
    "fig3": (("fig3", "--grid", "4", "--theta-list", "1", "--xi-list", "0.5",
              "--out", "f3/sub"), FIG3),
    "fig3-svg": (("fig3", "--grid", "4", "--theta-list", "1,2", "--xi-list", "0,0.5",
                  "--svg", "--out", "f3"), FIG3),
    "sweep": (("sweep", "--config", "run.json", "--out", "s.csv"), ("sweep",)),
    "sweep-output-path": (("sweep", "--config", "run.json"), ("sweep",)),
}
SWEEP_CONFIG = {"sweep": [{"name": "theta", "start": 0, "stop": 1, "count": 3},
                          {"name": "xi", "start": -1, "stop": 1, "count": 2}]}


def _written(root):
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


class TestCliFileList:
    # every file a command writes is in the one list its path rule checks
    @pytest.mark.parametrize("case", sorted(WRITERS))
    def test_every_written_file_is_listed_and_checked(self, capsys, tmp_path, monkeypatch,
                                                      case):
        argv, compute = WRITERS[case]
        config = dict(SWEEP_CONFIG, output={"path": "s.csv"}) if case.endswith("path") \
            else SWEEP_CONFIG
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text(json.dumps(config))
        monkeypatch.chdir(run)
        listed = []
        check = anyonosc.cli._check

        def spy(files, **kwargs):
            listed.extend(os.path.normpath(f.path) for f in files)
            return check(files, **kwargs)

        monkeypatch.setattr(anyonosc.cli, "_check", spy)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        written = _written(run) - {"run.json"}
        assert written and written == set(listed) - {"run.json"}
        _no_compute(monkeypatch, *compute)
        for k, name in enumerate(sorted(written)):
            fresh = tmp_path / f"fresh{k}"
            (fresh / name).mkdir(parents=True)
            (fresh / "run.json").write_text(json.dumps(config))
            monkeypatch.chdir(fresh)
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 1 and stdout == "", (name, err)
            assert err.startswith("anyonosc: error: ") and err.endswith(" is a directory\n")
            assert _written(fresh) == {"run.json"} and not any((fresh / name).iterdir())


class TestCliRunConfig:
    # every command builds one RunConfig, and RunConfig and Conventions check
    # themselves: a flag and a config key meet the same rule
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--grid", "4", "--threads", "0"),
        ("spectrum", "--grid", "4", "--threads", "-4"),
        ("ep-locate", "--threads", "0"),
        ("fig1", "--grid", "5", "--threads", "0"),
        ("spectrum", "--grid", "4", "--cutoff", "0"),
    ], ids=["spectrum-threads-0", "spectrum-threads-minus-4", "ep-locate-threads-0",
            "fig1-threads-0", "spectrum-cutoff-0"])
    def test_flag_below_one_is_a_validation_error(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1, err
        assert "must be >= 1" in err
        assert list(tmp_path.iterdir()) == [] and stdout == ""

    def test_sweep_threads_override_is_checked(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": [{"name": "xi", "start": -1, "stop": 1,
                                               "count": 3}]}))
        out = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--threads", "0", "--out", str(out))
        assert code == 1, err
        assert "threads must be >= 1, got 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    def test_ep_locate_range_is_recorded(self, capsys, tmp_path):
        docs = {}
        for bracket in ("0:3.1315926535897933", "0.1:1.0"):
            out = tmp_path / f"ep{len(docs)}.csv"
            code, _, err = run_cli(capsys, "ep-locate", "--xi", "1", "--range", bracket,
                                   "--out", str(out))
            assert code == 0, err
            docs[bracket] = json.loads(out.with_name(out.name + ".meta.json").read_text())
        assert len({doc["config_sha256"] for doc in docs.values()}) == 2
        for bracket, doc in docs.items():
            (axis,) = config_from_dict(doc["config"]).sweep
            lo, hi = (float(x) for x in bracket.split(":"))
            assert (axis.name, axis.start, axis.stop, axis.count) == ("theta", lo, hi, 2)

    def test_fig1_takes_no_convention_flags(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, stdout, err = run_cli(capsys, "fig1", "--conjugation", "analytic",
                                    "--out", str(out))
        assert code == 1
        assert "unrecognized arguments" in err
        assert not out.exists() and stdout == ""

    def test_output_svg_key_is_unknown(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"output": {"svg": "out.svg"},
                                    "sweep": [{"name": "xi", "start": -1, "stop": 1,
                                               "count": 3}]}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--out", str(tmp_path / "sweep.csv"))
        assert code == 1
        assert "unknown keys in config.output: ['svg']" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    def test_sweep_axis_span_must_be_finite(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": [{"name": "coupling_j", "start": -1e308,
                                               "stop": 1e308, "count": 3}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                        "--out", str(tmp_path / "sweep.csv"))
        assert code == 1, err
        assert "sweep axis 'coupling_j' needs finite endpoints and span" in err
        assert caught == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""


# a small run of every subcommand but sweep, and a non-default value for
# each parameter flag
FLAG_COMMANDS = {
    "single-rates": ("single-rates", "--grid", "5"),
    "dimer-rates": ("dimer-rates", "--grid", "5", "--xi", "0.5"),
    "ep-locate": ("ep-locate", "--xi", "1.0"),
    "spectrum": ("spectrum", "--grid", "4"),
    "fig1": ("fig1", "--grid", "5"),
    "fig2": ("fig2", "--grid", "5", "--xi-list", "0,1"),
    "fig3": ("fig3", "--grid", "4", "--theta-list", "1.5", "--xi-list", "0.5"),
}
FLAG_VALUES = {"theta": "0.9", "xi": "0.6", "beta": "2.5", "gamma": "0.17",
               "coupling": "0.35", "omega": "1.3"}


def output_bytes(capsys, tmp_path, argv):
    """Exit code and the data bytes of one run: stdout, or fig3's two CSVs."""
    if argv[0] != "fig3":
        code, out, err = run_cli(capsys, *argv)
        return code, out.encode(), err
    out_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    code, _, err = run_cli(capsys, *argv, "--out", str(out_dir))
    data = b"".join((out_dir / name).read_bytes() for name in
                    ("fig3_slices.csv", "fig3_overlay.csv")) if code == 0 else b""
    return code, data, err


class TestCliFlagsSelectSomething:
    def test_table_covers_every_command(self):
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(FLAG_COMMANDS) | {"sweep"}

    @pytest.mark.parametrize("command", sorted(FLAG_COMMANDS))
    def test_every_parameter_flag_changes_the_output(self, capsys, tmp_path, command):
        argv = FLAG_COMMANDS[command]
        defined = sorted(set(PARAM_FLAGS) & set(vars(build_parser().parse_args(argv))))
        assert defined, command
        code, base, err = output_bytes(capsys, tmp_path, argv)
        assert code == 0, err
        for flag in defined:
            code, got, err = output_bytes(capsys, tmp_path,
                                          (*argv, f"--{flag}", FLAG_VALUES[flag]))
            assert code == 0, (flag, err)
            assert got != base, f"{command} --{flag} changes no output byte"

    @pytest.mark.parametrize("command, flag", [
        ("single-rates", "theta"), ("dimer-rates", "theta"), ("fig1", "theta"),
        ("fig2", "theta"), ("ep-locate", "theta"), ("fig3", "theta"),
        ("single-rates", "xi"), ("fig1", "xi"), ("fig2", "xi"), ("fig3", "xi"),
        ("single-rates", "coupling"), ("fig1", "coupling"), ("fig2", "beta"),
    ])
    def test_flag_that_selects_nothing_is_refused(self, capsys, tmp_path, command, flag):
        # fig2 and fig3 have --theta-list/--xi-list: no prefix matching either
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *FLAG_COMMANDS[command], f"--{flag}",
                                    FLAG_VALUES[flag], "--out", str(out))
        assert code == 1
        assert f"unrecognized arguments: --{flag}" in err
        assert not out.exists() and stdout == ""

    def test_fig2_temperature_comes_from_temp(self, capsys):
        # --beta was read and then overwritten by the --temp preset
        low = run_cli(capsys, "fig2", "--grid", "3")[1]
        high = run_cli(capsys, "fig2", "--grid", "3", "--temp", "high")[1]
        assert low != high
        code, stdout, err = run_cli(capsys, "fig2", "--grid", "3", "--beta", "3")
        assert code == 1 and stdout == ""
        assert "unrecognized arguments: --beta 3" in err

    # --range is lo:hi on every command and the count comes from --grid alone
    # (ep-locate's coarse scan has a fixed count): a count in the range would
    # be echoed, or win over --grid, without a word
    @pytest.mark.parametrize("argv, text", [
        (("ep-locate", "--xi", "1", "--range", "0.1:1.0:50"), "0.1:1.0:50"),
        (("single-rates", "--range", "0:1:5", "--grid", "7"), "0:1:5"),
        (("dimer-rates", "--range", "0:1:5"), "0:1:5"),
        (("spectrum", "--range=-0.5:0.5:64", "--grid", "4"), "-0.5:0.5:64"),
        (("spectrum", "--range=0.5"), "0.5"),
    ], ids=["ep-locate", "single-rates", "dimer-rates", "spectrum", "spectrum-one-end"])
    def test_range_takes_lo_hi_only(self, capsys, tmp_path, argv, text):
        out = tmp_path / "out.csv"
        for extra in (("--out", str(out)), ()):
            code, stdout, err = run_cli(capsys, *argv, *extra)
            assert code == 1
            assert f"--range takes lo:hi, got {text!r}" in err
            assert list(tmp_path.iterdir()) == [] and stdout == ""


class TestCliSpectraNeverBuildTheDenseLiouvillian:
    def test_cutoff_six_spectrum_without_kron_sum(self, capsys, monkeypatch, tmp_path):
        # the dense d^2 x d^2 assembly (2401^2 at cutoff 6) is the oracle's
        # only; the spectra gather L and the dipole on 15 pair states
        sizes = []
        kron_block = anyonosc.fock._kron_block

        def dense(terms, dim):
            raise AssertionError(f"a {dim ** 2}-state Liouvillian assembled on the spectra path")

        def spy(terms, kets, bras):
            sizes.append(kets.size)
            return kron_block(terms, kets, bras)

        # the dense assembly build_liouvillian calls, and the gather the spectra call
        monkeypatch.setattr(anyonosc.fock, "_kron_sum", dense)
        monkeypatch.setattr(anyonosc.spectra, "_kron_block", spy)
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "spectrum", "--cutoff", "6", "--grid", "16",
                               "--theta", "1.2", "--xi", "0.5", "--t2", "3", "--out", str(out))
        assert code == 0, err
        assert len(read_csv(str(out))[2]) == 16 * 16
        assert sizes == [15, 15]

    def test_every_cutoff_writes_the_cutoff_two_grid(self, capsys, tmp_path):
        # the spectra build their own cutoff-2 system whatever --cutoff says
        argv = ("spectrum", "--grid", "16", "--theta", "0.9", "--xi", "0.5", "--t2", "3.5")
        texts = []
        for cutoff in ("2", "12"):
            code, out, err = run_cli(capsys, *argv, "--cutoff", cutoff)
            assert code == 0, err
            texts.append(out)
        assert texts[1] == texts[0]
        # the sidecar echoes the cutoff asked for
        out = tmp_path / "grid.csv"
        assert run_cli(capsys, *argv, "--cutoff", "12", "--out", str(out))[0] == 0
        assert out.read_text() == texts[0]
        doc = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert doc["config"]["compute"]["cutoff"] == 12

    @pytest.mark.parametrize("command", ["spectrum", "fig3"])
    def test_cutoff_forty_builds_no_system_above_cutoff_two(self, capsys, monkeypatch,
                                                            tmp_path, command):
        # a cutoff-40 system alone would take gigabytes: the spy refuses it
        # before anything is allocated
        built = []
        init = anyonosc.FockSystem.__init__

        def spy(self, cutoff=2, theta=0.0, modes=2):
            built.append(cutoff)
            assert cutoff <= 2, f"a cutoff-{cutoff} FockSystem on the spectrum path"
            init(self, cutoff, theta, modes)

        monkeypatch.setattr(anyonosc.FockSystem, "__init__", spy)
        extra = (("--theta-list", "0.9", "--xi-list", "0.5", "--out", str(tmp_path))
                 if command == "fig3" else ())
        code, _, err = run_cli(capsys, command, "--cutoff", "40", "--grid", "8", *extra)
        assert code == 0, err
        assert built == [2]


AXIS = {"name": "xi", "start": -1.0, "stop": 1.0, "count": 3}


class TestCliSweepConfig:
    def test_config_file_round(self, capsys, tmp_path):
        cfg = {"params": {"theta": 0.3, "gamma": 0.1},
               "sweep": [{"name": "xi", "start": -1.0, "stop": 1.0, "count": 7}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out_csv))
        assert code == 0
        assert len(out_csv.read_text().strip().split("\n")) == 8

    @pytest.mark.parametrize("grid", [{"count": 0, "lo": 1, "hi": -1}, {"count": 1},
                                      {"lo": 0.5, "hi": -0.5}, {"hi": math.inf},
                                      {"count": 3, "lo": -1e308, "hi": 1e308},
                                      {"count": 3, "lo": 0.0, "hi": 5e-324}],
                             ids=["count-0-reversed", "count-1", "reversed", "infinite",
                                  "span-overflow", "equal-detunings"])
    def test_invalid_grid_block_is_error(self, capsys, tmp_path, grid):
        cfg = {"sweep": [{"name": "xi", "start": -1.0, "stop": 1.0, "count": 3}], "grid": grid}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace("Infinity", "1e999"))
        out_csv = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out_csv))
        assert code == 1, err
        assert "config.grid" in err
        assert not out_csv.exists() and not (tmp_path / "sweep.csv.meta.json").exists()
        assert stdout == ""

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_parameter_swept_twice_is_error(self, capsys, tmp_path, to_file):
        # the first theta axis would be read by nothing: its rows would hold
        # the values at the second axis's angles
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": [
            {"name": "theta", "start": 0.0, "stop": 1.0, "count": 2},
            {"name": "xi", "start": -1.0, "stop": 1.0, "count": 3},
            {"name": "theta", "start": 0.0, "stop": 3.0, "count": 3}]}))
        argv = ("--out", str(tmp_path / "sweep.csv")) if to_file else ()
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path), *argv)
        assert code == 1
        assert "anyonosc: error: sweep axes name parameter 'theta' more than once" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    def test_key_the_sweep_does_not_read_is_error(self, capsys, tmp_path):
        # t2, grid, theta_list, xi_list and compute.cutoff never reach a sweep's
        # bytes: set to other than their defaults they would only move the hash
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "sweep": [{"name": "xi", "start": -1.0, "stop": 1.0, "count": 3}], "t2": 2.0,
            "grid": {"count": 8}, "theta_list": [0.5], "xi_list": [0.1],
            "compute": {"cutoff": 4, "threads": 2}}))
        out_csv = tmp_path / "sweep.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out_csv))
        assert code == 1
        assert ("sweep config sets keys a sweep does not read: "
                "['t2', 'grid', 'theta_list', 'xi_list', 'compute.cutoff']") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    def test_sweep_sidecar_config_replays(self, capsys, tmp_path):
        # the echo holds the defaults of the keys a sweep does not read, so
        # the sidecar's config reruns to the same bytes and the same hash
        out_csv = tmp_path / "sweep.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"theta": 0.3},
                                    "sweep": [{"name": "xi", "start": -1, "stop": 1,
                                               "count": 4}],
                                    "output": {"path": str(out_csv)},
                                    "t2": 0.0, "grid": {"count": 256}}))
        assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
        data = out_csv.read_bytes()
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        path.write_text(json.dumps(meta["config"]))
        assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
        assert out_csv.read_bytes() == data
        replayed = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert replayed["config_sha256"] == meta["config_sha256"]

    @pytest.mark.parametrize("doc, key", [
        ({"params": 5}, "config.params"),
        ({"sweep": [5]}, "config.sweep[0]"),
        ({"theta_list": 5}, "config.theta_list"),
        ({"params": {"theta": None}}, "config.params.theta"),
        ({"conventions": {"stat_dephasing": "false"}}, "config.conventions.stat_dephasing"),
        ({"conventions": {"frequency": 5}}, "config.conventions.frequency"),
        ({"sweep": [dict(AXIS, count=4.7)]}, "config.sweep[0].count"),
        ({"compute": {"threads": 1.9}}, "config.compute.threads"),
        ({"compute": {"cutoff": True}}, "config.compute.cutoff"),
        ({"sweep": [dict(AXIS, start="0")]}, "config.sweep[0].start"),
        ({"sweep": [dict(AXIS, stop=True)]}, "config.sweep[0].stop"),
        ({"output": {"path": 7}}, "config.output.path"),
    ], ids=["params-number", "sweep-item-number", "theta-list-number", "theta-null",
            "stat-dephasing-string", "frequency-number", "count-fraction", "threads-fraction",
            "cutoff-bool", "start-string", "stop-bool", "path-number"])
    def test_value_of_another_json_type_is_error(self, capsys, tmp_path, doc, key):
        # each value must have the JSON type of its default in the echo: no
        # traceback, no truncation (4.7 -> 4) and no truthiness ("false" -> on)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": [AXIS], **doc}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path),
                                    "--out", str(tmp_path / "sweep.csv"))
        assert code == 1
        assert err.startswith(f"anyonosc: error: {key} must be ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    @pytest.mark.parametrize("doc, key", [
        ({"params": {"gamma": 10 ** 400}}, "config.params.gamma"),
        ({"sweep": [dict(AXIS, stop=-10 ** 400)]}, "config.sweep[0].stop"),
        ({"t2": 10 ** 309}, "config.t2"),
    ], ids=["params-gamma", "axis-stop", "t2"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_integer_beyond_the_float_range_is_error(self, capsys, tmp_path, doc, key, to_file):
        # a JSON integer is a number, but float() of this one overflows
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": [AXIS], **doc}))
        out = ("--out", str(tmp_path / "sweep.csv")) if to_file else ()
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path), *out)
        assert code == 1
        assert err.startswith(f"anyonosc: error: {key} must be a number within the float range")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] and stdout == ""

    def test_unknown_config_key_is_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweeep": []}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "unknown keys" in err

    def test_invalid_json_is_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.json"))
        assert code == 1


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_block(heading, lang):
    """The first ``lang`` code block after the README line ``heading``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    rest = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```", rest, re.S | re.M).group(1)


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # every line of the CLI section's shell block, with run.json the schema block
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(_readme_block("### Config schema (`sweep --config`)",
                                                     "json"))
    lines = _readme_block("## CLI", "sh").splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "anyonosc", line
        code, stdout, err = run_cli(capsys, *argv[1:])
        assert code == 0, (line, err)
        named = [argv[k + 1] for k, flag in enumerate(argv[:-1])
                 if flag in ("--out", "--svg") and not argv[k + 1].startswith("--")]
        for name in named:  # a file, or fig3's directory, with something in it
            path = tmp_path / name
            assert (any(path.iterdir()) if path.is_dir() else path.stat().st_size > 0), line
        assert named or stdout.count("\n") >= 2, line  # a header and rows on stdout
    _assert_regenerates(sorted(tmp_path.rglob("*.csv")))


# -- the CLI contract, one property over every command ---------------------------------
#
# Each argv takes some of its command's own flags (read from the parser), each with a
# typical value, and at most one of them an edge value instead; a sweep's run.json is
# drawn the same way. The contract: exit 0, 1 or 2; a refusal is one stderr line and
# writes nothing; a success writes CSVs that re-read finite and sidecars that validate
# and regenerate their CSV.

_EDGES = ("0", "5e-324", "-5e-324", "1e300", "1.7e308", "inf", "-inf", "nan", "")
_JSON_EDGES = (0.0, 5e-324, -5e-324, 1e300, 1.7e308, math.inf, -math.inf, math.nan, "")
# each parameter's typical values
_TYPICAL = {"theta": (0.0, math.pi), "xi": (-1.0, 1.0), "beta": (0.05, 20.0),
            "gamma": (0.0, 1.0), "coupling_j": (-2.0, 2.0), "omega": (0.1, 3.0)}


def _plain(typical, *edges):
    """(typical values, edge values) of a flag, as argv strings."""
    return typical, st.sampled_from(_EDGES + edges)


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _range(lo, hi):
    side = _number(lo, hi)
    return (st.tuples(side, side).map(lambda d: ":".join(sorted(d, key=float))),
            st.one_of(st.sampled_from(_EDGES),
                      st.tuples(st.sampled_from(_EDGES), side).map(":".join),
                      st.tuples(side, st.sampled_from(_EDGES)).map(":".join)))


def _listed(lo, hi):
    """1-3 values; an edge list holds one edge value among typical ones."""
    item = _number(lo, hi)
    return (st.lists(item, min_size=1, max_size=3).map(",".join),
            st.tuples(st.lists(item, max_size=2), st.sampled_from(_EDGES), st.integers(0, 2))
            .map(lambda d: ",".join(d[0][:d[2]] + [d[1]] + d[0][d[2]:])))


_CONTRACT_FLAGS = {
    **{f"--{flag}": _plain(_number(*_TYPICAL[field])) for flag, (field, _) in PARAM_FLAGS.items()},
    "--t2": _plain(_number(0.0, 5.0)),
    "--grid": _plain(st.integers(2, 16).map(str)), "--cutoff": _plain(st.integers(2, 4).map(str)),
    "--threads": _plain(st.integers(1, 4).map(str)),
    "--convention": _plain(st.sampled_from(("appendix", "maintext"))),
    "--conjugation": _plain(st.sampled_from(("modulus", "analytic"))),
    "--jump-basis": _plain(st.sampled_from(("site", "deformed"))),
    "--stat-dephasing": _plain(st.sampled_from(("on", "off"))),
    "--temp": _plain(st.sampled_from(("low", "high"))),
    "--theta-list": _listed(*_TYPICAL["theta"]), "--xi-list": _listed(*_TYPICAL["xi"]),
    "--config": _plain(st.just("run.json"), "missing.json"),
    "--range": _range(*_TYPICAL["theta"]), "--out": _plain(st.just("out.csv"), "missing/out.csv"),
    "--svg": _plain(st.just("g.svg"), "out.csv", "missing/g.svg"),
}
# by command: spectrum's range is a detuning range, fig3's --out a directory
_COMMAND_FLAGS = {"spectrum": {"--range": _range(-5.0, 5.0)},
                  "fig3": {"--out": _plain(st.sampled_from(("fig3", "f3/sub")))}}
# flags every argv of a command passes: a grid of at most 16 points, fig3's lists of
# 1-3 values (its defaults make 18 panels of 256 points) and directory, sweep's config
_ALWAYS = {"fig3": ("--grid", "--theta-list", "--xi-list", "--out")}


def _axis(name):
    return st.tuples(st.floats(*_TYPICAL[name]), st.floats(*_TYPICAL[name]),
                     st.integers(2, 16)).map(lambda d: {"name": name, "start": min(d[:2]),
                                                        "stop": max(d[:2]), "count": d[2]})


_typical_sweep_configs = st.fixed_dictionaries(
    {"sweep": st.lists(st.sampled_from(sorted(_TYPICAL)).flatmap(_axis), min_size=1,
                       max_size=2, unique_by=lambda axis: axis["name"])},
    optional={"params": st.fixed_dictionaries({}, optional={name: st.floats(*bounds)
                                                            for name, bounds in _TYPICAL.items()}),
              "conventions": st.fixed_dictionaries({}, optional={
                  "frequency": st.sampled_from(("appendix", "maintext")),
                  "conjugation": st.sampled_from(("modulus", "analytic")),
                  "jump_basis": st.sampled_from(("site", "deformed")),
                  "stat_dephasing": st.booleans()}),
              "output": st.fixed_dictionaries({"path": st.sampled_from(("s.csv", None))}),
              "compute": st.fixed_dictionaries({"threads": st.integers(1, 4)})})


def _leaves(doc):
    """(container, key) of every value in ``doc`` that is no object or list."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(value, (dict, list)):
            yield from _leaves(value)
        else:
            yield doc, key


@st.composite
def _contract_runs(draw, command):
    """(argv, the sweep config written to run.json or None) of ``command``."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {**_CONTRACT_FLAGS, **_COMMAND_FLAGS.get(command, {})}
    argv, valued = [command], {}
    for action in sub.choices[command]._actions:
        flag = action.option_strings[0]
        if flag == "-h" or not (flag in _ALWAYS.get(command, ("--config", "--grid")) or
                                draw(st.booleans())):
            continue
        if action.nargs == 0:  # a switch
            argv.append(flag)
        else:
            valued[flag] = flags[flag]
    edge = draw(st.sampled_from(sorted(valued))) if valued and draw(st.booleans()) else None
    argv += [f"{flag}={draw(values[flag == edge])}" for flag, values in valued.items()]
    if command != "sweep":
        return argv, None
    config = draw(_typical_sweep_configs)
    if edge is None and draw(st.booleans()):
        container, key = draw(st.sampled_from(list(_leaves(config))))
        container[key] = draw(st.sampled_from(_JSON_EDGES))
    return argv, config


def _assert_csv(path, text):
    """``text``, written to ``path``, re-reads through ``read_csv`` with finite values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    columns, _, rows = read_csv(path)
    assert columns and rows and all(len(row) == len(columns) for row in rows)
    assert np.isfinite(np.array(rows, dtype=float)).all()


def _run_in(root, argv):
    """``main(argv)`` with ``root`` as the working directory: (exit code, stdout, stderr)."""
    here, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    try:
        os.chdir(root)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


class TestCliContract:
    @pytest.mark.parametrize("command", sorted(anyonosc.cli._GENERATED))
    def test_every_argv_keeps_the_cli_contract(self, command):
        from anyonosc.output import validate_metadata

        @settings(derandomize=True, deadline=None, max_examples=60)
        @given(_contract_runs(command))
        def check(run):
            argv, config = run
            with tempfile.TemporaryDirectory() as scratch:
                root = os.path.join(scratch, "run")
                os.mkdir(root)
                if config is not None:
                    with open(os.path.join(root, "run.json"), "w", encoding="utf-8") as fh:
                        json.dump(config, fh)
                before = _written(root)
                code, out, err = _run_in(root, argv)
                assert code in (0, 1, 2), (argv, config, code, err)
                if code:
                    assert err.startswith("anyonosc:") and err.count("\n") == 1, (argv, err)
                    assert err.endswith("\n") and out == "", (argv, err)
                    assert _written(root) == before, argv
                    return
                written = _written(root) - before
                for name in written:
                    path = os.path.join(root, name)
                    if name.endswith(".meta.json"):
                        assert name[:-len(".meta.json")] in written, (argv, name)
                        continue
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                    if text.startswith(("<?xml", "<svg")):
                        assert text.rstrip().endswith("</svg>"), (argv, name)
                        continue
                    _assert_csv(os.path.join(scratch, "reread.csv"), text)
                    with open(path + ".meta.json", encoding="utf-8") as fh:
                        doc = validate_metadata(json.load(fh))
                    result = GENERATORS[doc["generator"]](config_from_dict(doc["config"]))
                    assert text == csv_text(result), (argv, name)
                if out:
                    _assert_csv(os.path.join(scratch, "stdout.csv"), out)
                assert out or any(name.endswith(".meta.json") for name in written), argv

        check()
