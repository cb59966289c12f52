"""Tests for the command-line front end and its report formats."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import frozen_values as fv
from conftest import FIXTURE_CSV
from gscore.cli import main

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args):
    """A fresh interpreter that imports gscore from this checkout."""
    path = os.pathsep.join(filter(None, (os.path.join(PKG_ROOT, "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def analyze_config(tmp_path, **overrides):
    doc = {
        "data": FIXTURE_CSV,
        "schema": {"outcome": "y", "arm": "arm", "covariates": ["w1"]},
        "model": {"family": "bernoulli-logit", "covariates": ["w1"]},
        "measure": "difference",
        "sidedness": "greater",
        "estimator": "I",
    }
    doc.update(overrides)
    return write_yaml(tmp_path / "analyze.yaml", doc)


def scenario_doc():
    b = float(np.sqrt(np.log(2.0) ** 2 / 3))
    return {
        "n": 60,
        "covariates": ["standard-normal"] * 3,
        "beta_W": [b, b, b],
        "beta_A": [-0.9355, -0.2224],
        "scheme": "complete",
    }


def methods_doc():
    return {
        "methods": [
            {"name": "unadj-wald", "test": "wald", "model": "unadjusted"},
            {"name": "gc-score-I", "test": "score",
             "model": {"family": "bernoulli-logit",
                       "covariates": ["W1", "W2", "W3"]}},
        ]
    }


class TestAnalyze:
    """The analyze subcommand."""

    def test_fixture_report_matches_frozen_values(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", analyze_config(tmp_path),
                     "--out", str(out)])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["schema_version"] == 1
        assert report["package"]["name"] == "gscore"
        assert report["data"]["n_used"] == 20
        assert report["data"]["n_dropped"] == 0
        assert report["data"]["arm_sizes"] == [10, 10]
        assert report["fit"]["converged"] is True
        assert report["fit"]["score_norm"] < 1e-10
        beta = report["fit"]["coefficients"]
        assert beta["arm1"] == pytest.approx(fv.BETA[0], abs=1e-10)
        assert beta["arm2"] == pytest.approx(fv.BETA[1], abs=1e-10)
        assert beta["w1"] == pytest.approx(fv.BETA[2], abs=1e-10)
        assert report["arm_means"]["mu1"]["estimate"] == pytest.approx(
            fv.MU[0], abs=1e-10)
        np.testing.assert_allclose(report["variance"]["sigma"], fv.SIGMA_I,
                                   atol=1e-12)
        wald = report["tests"]["wald"]
        assert wald["statistic"] == pytest.approx(fv.WALD_CHI2, abs=1e-10)
        assert wald["p_value"] == pytest.approx(fv.WALD_P1, abs=1e-10)
        np.testing.assert_allclose(wald["ci"], fv.WALD_CI, atol=1e-10)
        score = report["tests"]["score"]
        assert score["statistic"] == pytest.approx(fv.Q_D, abs=1e-10)
        np.testing.assert_allclose(score["ci"], fv.SCORE_CI, atol=1e-10)
        assert report["undefined_intervals"] == {}
        stdout = capsys.readouterr().out
        assert "mu1 = 0.509783" in stdout
        assert "report written" in stdout

    def test_echoed_config_reproduces_report_byte_identically(
            self, tmp_path):
        """The report's config echo, re-fed, is a fixed point."""
        out1 = tmp_path / "r1.json"
        assert main(["analyze", "--config", analyze_config(tmp_path),
                     "--out", str(out1)]) == 0
        with open(out1, encoding="utf-8") as fh:
            echoed = json.load(fh)["config"]
        cfg2 = write_yaml(tmp_path / "echo.yaml", echoed)
        out2 = tmp_path / "r2.json"
        assert main(["analyze", "--config", cfg2, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shipped_example_config_runs(self, tmp_path):
        cfg = os.path.join(PKG_ROOT, "configs", "analyze_example.yaml")
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["schema_version"] == 1

    def test_relative_data_path_resolved_against_config(self, tmp_path):
        datadir = tmp_path / "inputs"
        datadir.mkdir()
        with open(FIXTURE_CSV, "rb") as src:
            (datadir / "trial.csv").write_bytes(src.read())
        cfg = analyze_config(tmp_path, data="inputs/trial.csv")
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0

    def test_missing_column_exits_2(self, tmp_path, capsys):
        cfg = analyze_config(
            tmp_path,
            schema={"outcome": "y", "arm": "arm", "covariates": ["nope"]})
        code = main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, alpha=0.05)
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "r.json")]) == 2
        capsys.readouterr()

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "c.yaml",
                         {"data": FIXTURE_CSV,
                          "schema": {"outcome": "y", "arm": "arm"}})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "model" in capsys.readouterr().err

    def test_bad_estimator_exits_2(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, estimator="IV")
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        capsys.readouterr()

    def test_separated_data_exits_3(self, tmp_path, capsys):
        rows = ["y,arm,w1"]
        w = np.linspace(-1.5, 1.5, 16)
        for i in range(16):
            rows.append(f"{int(w[i] > 0)},{1 + i % 2},{w[i]:.3f}")
        csv_path = tmp_path / "sep.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = analyze_config(tmp_path, data=str(csv_path))
        code = main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "separated" in capsys.readouterr().err

    def test_undefined_interval_exits_4_but_writes_report(
            self, tmp_path, capsys):
        """Three subjects cannot support a score interval at 0.95; the
        report still carries the statistic and the Wald interval."""
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("y,arm,w1\n0.2,1,0\n1.1,2,0\n0.8,2,0\n",
                            encoding="utf-8")
        cfg = analyze_config(
            tmp_path, data=str(csv_path),
            schema={"outcome": "y", "arm": "arm", "covariates": []},
            model={"family": "gaussian-identity", "covariates": []})
        out = tmp_path / "r.json"
        code = main(["analyze", "--config", cfg, "--out", str(out)])
        assert code == 4
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["undefined_intervals"].keys() == {"score"}
        assert report["tests"]["score"]["ci"] is None
        assert np.isfinite(report["tests"]["score"]["statistic"])
        assert report["tests"]["wald"]["ci"] is not None
        assert "interval undefined" in capsys.readouterr().err


class TestSimulate:
    """The simulate subcommand."""

    def test_csv_and_report_written(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        out = tmp_path / "oc.csv"
        code = main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "40", "--seed", "11", "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["name"] == "unadj-wald"
        assert rows[1]["name"] == "gc-score-I"
        for row in rows:
            assert row["seed"] == "11"
            assert row["reps"] == "40"
            assert row["n_failed"] == "0"
            assert 0.0 <= float(row["rejection_rate"]) <= 1.0
            assert 0.0 <= float(row["coverage"]) <= 1.0
        report_path = tmp_path / "oc.json"
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["schema_version"] == 1
        assert report["seed"] == 11
        assert len(report["methods"]) == 2
        assert report["methods"][0]["rejection_rate"] == pytest.approx(
            float(rows[0]["rejection_rate"]))
        stdout = capsys.readouterr().out
        assert "true mu" in stdout

    def test_report_methods_are_the_csv_method_columns(self, tmp_path,
                                                       capsys):
        """Each JSON methods entry is its CSV row's first 16 columns, in
        order; the run-level columns after them sit at the top level."""
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", {"methods": [
            *methods_doc()["methods"],
            {"name": "bad", "test": "score", "measure": "ratio",
             "model": {"family": "bernoulli-logit", "covariates": ["W9"]}}]})
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "20", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        with open(tmp_path / "oc.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert len(report["methods"]) == len(rows) == 3
        for entry, row in zip(report["methods"], rows):
            assert list(entry) == header[:16]
            assert [str(v) for v in entry.values()] == row[:16]
        assert header[16:] == ["true_value", "seed", "level", "n"]

    def test_output_is_deterministic(self, tmp_path, capsys):
        """Same scenario, methods, reps, and seed give byte-identical
        CSV tables on repeated runs."""
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--scenario", scen, "--methods", meth,
                         "--reps", "60", "--seed", "123",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_uses_crlf_line_endings(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = out.read_bytes()
        assert b"\r\n" in raw

    def test_shipped_scenario_and_methods_files_parse(self, tmp_path,
                                                      capsys):
        scen = os.path.join(PKG_ROOT, "configs", "scenario1.yaml")
        meth = os.path.join(PKG_ROOT, "configs", "methods.yaml")
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "4", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml",
                          {**scenario_doc(), "reps": 100})
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        capsys.readouterr()


class TestCalibrate:
    """The calibrate subcommand."""

    def test_published_pair_on_stdout(self, capsys):
        b = float(np.sqrt(np.log(2.0) ** 2 / 3))
        code = main(["calibrate", "--targets", "0.30", "0.45",
                     "--beta-w", str(b), str(b), str(b),
                     "--covariates", "standard-normal", "standard-normal",
                     "standard-normal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "beta_A = (" in out
        b1, b2 = (float(t) for t in
                  out.split("(")[1].split(")")[0].split(","))
        assert b1 == pytest.approx(-0.9355, abs=2e-3)
        assert b2 == pytest.approx(-0.2224, abs=2e-3)

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        code = main(["calibrate", "--targets", "0.5", "0.5",
                     "--beta-w", "0.8", "--covariates", "bernoulli:0.4",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert payload["covariates"] == [{"kind": "bernoulli", "p": 0.4}]
        assert len(payload["beta_A"]) == 2

    def test_length_mismatch_exits_2(self, capsys):
        assert main(["calibrate", "--targets", "0.3", "0.45",
                     "--beta-w", "0.1", "0.2",
                     "--covariates", "standard-normal"]) == 2
        capsys.readouterr()

    def test_bad_covariate_token_exits_2(self, capsys):
        assert main(["calibrate", "--targets", "0.3", "0.45",
                     "--beta-w", "0.1", "--covariates", "uniform"]) == 2
        capsys.readouterr()


class TestEntryPoint:
    """Wiring of the executable."""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gscore" in capsys.readouterr().out

    def test_module_is_runnable(self):
        proc = run_python("-m", "gscore.cli", "--version")
        assert proc.returncode == 0
        assert "gscore" in proc.stdout

    def test_import_leaves_scipy_stats_out(self):
        proc = run_python("-c", "import sys, gscore.cli; "
                          "print('scipy.stats' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
