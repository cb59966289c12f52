"""Tests for the command-line front end and its report formats."""

from __future__ import annotations

import csv
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import frozen_values as fv
from conftest import FIXTURE_CSV
from gscore import cli
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

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n"])
    def test_bad_delimiter_exits_2_naming_it(self, tmp_path, capsys,
                                             delimiter):
        cfg = analyze_config(tmp_path, schema={
            "outcome": "y", "arm": "arm", "covariates": ["w1"],
            "delimiter": delimiter})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert ("delimiter must be one character other than '\"', '\\r' "
                f"and '\\n', got {delimiter!r}") in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, alpha=0.05)
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_schema_key_exits_2(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, schema={"outcome": "y", "arm": "arm",
                                               "weights": "w1"})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "schema" in err and "weights" in err

    def test_stratum_schema_key_exits_2(self, tmp_path, capsys):
        """A schema has no stratum role: strata enter the model as
        covariates, named in schema.covariates."""
        cfg = analyze_config(tmp_path, schema={
            "outcome": "y", "arm": "arm", "covariates": ["w1"],
            "stratum": "site"})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "unknown schema keys: ['stratum']" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("measure, no_effect", [("difference", 0.0),
                                                    ("ratio", 1.0)])
    def test_absent_keys_take_the_defaults(self, tmp_path, capsys, measure,
                                           no_effect):
        """A config without the optional keys gives the report of the
        same config with their defaults spelled out."""
        base = {"data": FIXTURE_CSV,
                "schema": {"outcome": "y", "arm": "arm",
                           "covariates": ["w1"]},
                "model": {"family": "bernoulli-logit",
                          "covariates": ["w1"]}}
        minimal = {**base, "measure": measure} if measure == "ratio" \
            else base
        spelled = {**base, "measure": measure, "null_value": no_effect,
                   "level": 0.95, "sidedness": "two-sided",
                   "estimator": "I", "correction": "HC0", "pi": None}
        reports = []
        for i, doc in enumerate((minimal, spelled)):
            out = tmp_path / f"r{i}.json"
            assert main(["analyze", "--config",
                         write_yaml(tmp_path / f"c{i}.yaml", doc),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

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

    def test_bad_estimator_exits_2_before_reading_data(self, tmp_path,
                                                       capsys):
        cfg = analyze_config(tmp_path, estimator="IV",
                             data=str(tmp_path / "absent.csv"))
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "estimator" in err and "'IV'" in err
        assert "absent.csv" not in err

    def test_non_finite_null_exits_2_naming_it(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, null_value=float("nan"))
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "null_value must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["null_value", "level"])
    def test_boolean_null_or_level_exits_2_naming_it(self, tmp_path, capsys,
                                                     key):
        """YAML's true is not 1: refused with the field named, before
        any data is read."""
        cfg = analyze_config(tmp_path, **{key: True})
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"{key} must be a number, got True" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unquoted_exponent_null_is_read_as_its_number(self, tmp_path,
                                                          capsys):
        """PyYAML reads an unquoted 1e-3 as the string "1e-3" (YAML 1.1
        floats need a dot), so numeric strings stay accepted: the run
        reports a null of 0.001."""
        cfg = analyze_config(tmp_path)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("null_value: 1e-3\n")
        with open(cfg, encoding="utf-8") as fh:
            assert yaml.safe_load(fh)["null_value"] == "1e-3"
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["config"]["null_value"] == 0.001
        assert {t["null_value"] for t in report["tests"].values()} \
            == {0.001}

    def test_scalar_pi_exits_2_naming_pi(self, tmp_path, capsys):
        cfg = analyze_config(tmp_path, estimator="II", pi=0.5)
        assert main(["analyze", "--config", cfg,
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "config: pi must be a list, got 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("pi", [[0.9, 0.9], [0.3, 0.3]])
    def test_pi_not_summing_to_one_exits_2_naming_pi(self, tmp_path, capsys,
                                                     pi):
        """Two arms' allocation probabilities sum to 1; a pair that does
        not is refused before any number is reported."""
        out = tmp_path / "r.json"
        cfg = analyze_config(tmp_path, estimator="II", pi=pi)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        assert ("config: pi must be two shares in (0, 1) summing to 1, "
                f"got {pi!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_string_covariates_exit_2_naming_them(self, tmp_path, capsys):
        """``covariates: ab`` is one name, not the columns a and b."""
        data = tmp_path / "ab.csv"
        rows = ["y,arm,a,b"] + [f"{i % 2},{1 + i // 5 % 2},{i},{i * i % 7}"
                                for i in range(20)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "r.json"
        cfg = analyze_config(tmp_path, data=str(data),
                             schema={"outcome": "y", "arm": "arm",
                                     "covariates": "ab"},
                             model={"family": "bernoulli-logit",
                                    "covariates": "ab"})
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
        assert "covariates must be a list, got 'ab'" \
            in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_cellwise_arm_variance_reports_no_se(
            self, tmp_path, capsys):
        """The cellwise estimator (III) gives arm 2 a negative variance on
        these eight rows: its se is null in the report and n/a on the
        console, and the report is whole strict JSON."""
        csv_path = tmp_path / "neg.csv"
        csv_path.write_text(
            "y,arm,w\n-0.22,1,-0.02\n-0.74,1,0.15\n-2.19,2,0.53\n"
            "-2.99,2,0.73\n-3.69,2,0.9\n5.07,1,-1.28\n2.53,1,-0.62\n"
            "-3.9,2,0.97\n", encoding="utf-8")
        cfg = write_yaml(tmp_path / "neg.yaml", {  # default hypothesis
            "data": str(csv_path),
            "schema": {"outcome": "y", "arm": "arm", "covariates": ["w"]},
            "model": {"family": "gaussian-identity", "covariates": ["w"]},
            "estimator": "III"})
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        with open(out, encoding="utf-8") as fh:
            report = json.loads(fh.read(), parse_constant=refuse)
        assert report["variance"]["sigma"][1][1] < 0.0
        assert report["arm_means"]["mu2"]["se"] is None
        assert report["arm_means"]["mu1"]["se"] == pytest.approx(
            report["variance"]["sigma"][0][0] ** 0.5, rel=1e-15)
        assert "(se n/a)" in capsys.readouterr().out

    def test_unserializable_report_leaves_no_file(self, tmp_path):
        """The report is serialized whole before its file is opened."""
        out = tmp_path / "r.json"
        with pytest.raises(TypeError):
            cli._write_json(str(out), {"fine": 1.0, "bad": 1j})
        assert not out.exists()


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
        scen = write_yaml(tmp_path / "scen.yaml", {
            **scenario_doc(), "n": 40, "scheme": "stratified-block",
            "stratify": {"covariate": 3, "threshold": 0.25}})
        # at n = 40 some score ratio intervals are undefined: that row
        # has failed replications
        meth = write_yaml(tmp_path / "meth.yaml", {"methods": [
            *methods_doc()["methods"],
            {"name": "score-ratio", "test": "score", "measure": "ratio"}]})
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
        assert report["methods"][2]["n_failed"] > 0

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

    @pytest.mark.parametrize("scenario", sorted(
        os.path.basename(p) for p in glob.glob(
            os.path.join(PKG_ROOT, "configs", "scenario*.yaml"))))
    def test_shipped_scenario_and_methods_files_parse(self, tmp_path,
                                                      capsys, scenario):
        scen = os.path.join(PKG_ROOT, "configs", scenario)
        meth = os.path.join(PKG_ROOT, "configs", "methods.yaml")
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "4", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_zero_reps_exits_2(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "0", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert "reps must be at least 1" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "-1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert "seed must be a non-negative integer" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1", "--workers", workers,
                     "--out", str(out)]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_model_covariate_the_scenario_lacks_exits_2(self, tmp_path,
                                                        capsys):
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", {"methods": [
            {"name": "bad", "test": "score",
             "model": {"family": "bernoulli-logit", "covariates": ["W9"]}}]})
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "20", "--seed", "1", "--out", str(out)]) == 2
        assert "method 'bad': model covariates ['W9']" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_more_model_columns_than_subjects_exits_2(self, tmp_path,
                                                      capsys):
        scen = write_yaml(tmp_path / "scen.yaml", {**scenario_doc(), "n": 6})
        meth = write_yaml(tmp_path / "meth.yaml", {"methods": [
            {"name": "wide", "test": "score",
             "model": {"family": "bernoulli-logit", "heterogeneous": True,
                       "covariates": ["W1", "W2", "W3"]}}]})
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "20", "--seed", "1", "--out", str(out)]) == 2
        assert "method 'wide': the model has p=8 columns" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_report_is_strict_json_when_a_method_fails_every_time(
            self, tmp_path, capsys):
        """A method whose every replication fails from the data has no
        rates: the report holds null for them, never a NaN token.  Here
        the stratum S = I(W1 > 50) is 0 for every subject, so a model on
        S is rank deficient in every trial."""
        scen = write_yaml(tmp_path / "scen.yaml", {
            **scenario_doc(), "n": 12, "scheme": "stratified-block",
            "stratify": {"covariate": 1, "threshold": 50.0}})
        meth = write_yaml(tmp_path / "meth.yaml", {"methods": [
            methods_doc()["methods"][0],
            {"name": "on-s", "test": "score",
             "model": {"family": "bernoulli-logit", "covariates": ["S"]}}]})
        out = tmp_path / "oc.csv"
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "20", "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        with open(tmp_path / "oc.json", encoding="utf-8") as fh:
            report = json.loads(fh.read(), parse_constant=refuse)
        assert report["schema_version"] == 1
        ok, failed = report["methods"]
        assert failed["n_failed"] == 20 and failed["n_used"] == 0
        for key in ("rejection_rate", "mc_se_rejection", "coverage",
                    "mc_se_coverage", "mean_estimate"):
            assert failed[key] is None, key
            assert isinstance(ok[key], float), key

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "scen.yaml",
                          {**scenario_doc(), "reps": 100})
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("n", 60.7), ("n", "60"), ("n", True), ("block_size", 4.9),
        ("block_size", "4"), ("covariate", 1.7), ("covariate", "3")],
        ids=["n-float", "n-string", "n-bool", "block_size-float",
             "block_size-string", "covariate-float", "covariate-string"])
    def test_non_integer_scenario_field_exits_2(self, tmp_path, capsys, key,
                                                value):
        """A float, string or bool where a scenario integer belongs is
        refused with its field named, not truncated; writes no table."""
        doc = {**scenario_doc(), "scheme": "stratified-block",
               "block_size": 4, "stratify": {"covariate": 3,
                                             "threshold": 0.25}}
        if key == "covariate":
            doc["stratify"][key] = value
        else:
            doc[key] = value
        scen = write_yaml(tmp_path / "scen.yaml", doc)
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert f"must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("key", ["beta_A", "beta_W", "threshold",
                                     "null_value"])
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, capsys,
                                                key):
        """A NaN coefficient, threshold or null is refused with its field
        named, not run; writes no table."""
        doc = {**scenario_doc(), "scheme": "stratified-block",
               "block_size": 4, "stratify": {"covariate": 3,
                                             "threshold": 0.25}}
        methods = methods_doc()
        if key == "threshold":
            doc["stratify"][key] = float("nan")
        elif key == "null_value":
            methods["methods"][0][key] = float("nan")
        else:
            doc[key] = [*doc[key][:-1], float("nan")]
        scen = write_yaml(tmp_path / "scen.yaml", doc)
        meth = write_yaml(tmp_path / "meth.yaml", methods)
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("measure, null, message", [
        ("difference", float("nan"), "null_value must be finite, got nan"),
        ("difference", float("inf"), "null_value must be finite, got inf"),
        ("ratio", -1.0, "ratio null value must be positive"),
    ], ids=["nan", "inf", "ratio-negative"])
    def test_bad_method_null_exits_2_naming_the_method(
            self, tmp_path, capsys, measure, null, message):
        methods = methods_doc()
        methods["methods"][1].update(measure=measure, null_value=null)
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods)
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert f"method 'gc-score-I': {message}" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("beta_A", True), ("threshold", True), ("null_value", True),
        ("beta_A", "x")],
        ids=["beta_A", "threshold", "null_value", "beta_A-string"])
    def test_boolean_number_exits_2_naming_it(self, tmp_path, capsys, key,
                                              value):
        """YAML's true where a scenario or method number belongs is
        refused with its field (and method) named, not run as 1; so is
        what float() refuses, not with float()'s own message; writes no
        table."""
        doc = {**scenario_doc(), "scheme": "stratified-block",
               "block_size": 4, "stratify": {"covariate": 3,
                                             "threshold": 0.25}}
        methods = methods_doc()
        message = f"{key} must be a number, got {value!r}"
        if key == "threshold":
            doc["stratify"][key] = value
        elif key == "null_value":
            methods["methods"][1][key] = value
            message = f"method 'gc-score-I': {message}"
        else:
            doc[key] = [value, *doc[key][1:]]
        scen = write_yaml(tmp_path / "scen.yaml", doc)
        meth = write_yaml(tmp_path / "meth.yaml", methods)
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("pi", [[0.9, 0.9], [0.3, 0.3]])
    def test_method_pi_not_summing_to_one_exits_2_naming_it(
            self, tmp_path, capsys, pi):
        """A gc-score-II method whose fixed allocation probabilities do not
        sum to 1 is refused before any replication, with the method
        named; it writes no table."""
        methods = methods_doc()
        methods["methods"].append({
            "name": "gc-score-II", "test": "score", "estimator": "II",
            "pi": pi, "model": {"family": "bernoulli-logit",
                                "covariates": ["W1", "W2", "W3"]}})
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", methods)
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert ("method 'gc-score-II': pi must be two shares in (0, 1) "
                f"summing to 1, got {pi!r}") in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"methods": []}, "run_oc needs at least one method, got none"),
        ({}, "methods document is missing the 'methods' key")],
        ids=["empty-list", "no-methods-key"])
    def test_methods_file_with_no_methods_exits_2(self, tmp_path, capsys,
                                                  doc, message):
        """A methods file that names no method is refused with the
        problem named; it writes no table."""
        scen = write_yaml(tmp_path / "scen.yaml", scenario_doc())
        meth = write_yaml(tmp_path / "meth.yaml", doc)
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("key, bad", [
        ("covariates", "standard-normal"), ("beta_A", -0.9355)])
    def test_scalar_or_string_list_field_exits_2_naming_it(
            self, tmp_path, capsys, key, bad):
        scen = write_yaml(tmp_path / "scen.yaml", {**scenario_doc(),
                                                   key: bad})
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert f"scenario {key} must be a list, got {bad!r}" \
            in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    def test_scenario_family_key_exits_2(self, tmp_path, capsys):
        """Generated outcomes are bernoulli-logit only; a scenario has no
        family key."""
        scen = write_yaml(tmp_path / "scen.yaml",
                          {**scenario_doc(), "family": "bernoulli-logit"})
        meth = write_yaml(tmp_path / "meth.yaml", methods_doc())
        assert main(["simulate", "--scenario", scen, "--methods", meth,
                     "--reps", "5", "--seed", "1",
                     "--out", str(tmp_path / "oc.csv")]) == 2
        assert "unknown scenario keys: ['family']" in capsys.readouterr().err


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

    @pytest.mark.parametrize("args, message", [
        (["--beta-w", "nan"], "beta_W must be finite"),
        (["--covariates", "bernoulli:x"],
         "covariate p must be a number, got 'x'")],
        ids=["beta_w-nan", "bernoulli-p-string"])
    def test_bad_number_exits_2_naming_it(self, capsys, args, message):
        """``args`` repeats a flag; argparse keeps the last one."""
        argv = ["calibrate", "--targets", "0.3", "0.45", "--beta-w", "0.4",
                "--covariates", "standard-normal", *args]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_bad_covariate_token_exits_2(self, capsys):
        assert main(["calibrate", "--targets", "0.3", "0.45",
                     "--beta-w", "0.1", "--covariates", "uniform"]) == 2
        capsys.readouterr()


YAML_LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


class TestYamlLoader:
    """Config files are parsed by libyaml's safe loader when PyYAML has
    it, and by the pure-Python one otherwise; both read the same."""

    def test_loader_is_the_fastest_safe_one(self):
        assert cli._YAML_LOADER is (yaml.CSafeLoader
                                    if yaml.__with_libyaml__
                                    else yaml.SafeLoader)

    @pytest.mark.skipif(not yaml.__with_libyaml__,
                        reason="PyYAML built without libyaml")
    def test_every_shipped_config_loads_equal_under_both(self, monkeypatch):
        paths = sorted(glob.glob(os.path.join(PKG_ROOT, "configs", "*.yaml"))
                       + glob.glob(os.path.join(PKG_ROOT, "perfbench",
                                                "configs", "*.yaml")))
        assert len(paths) >= 8
        for path in paths:
            docs = []
            for loader in YAML_LOADERS:
                monkeypatch.setattr(cli, "_YAML_LOADER", loader)
                docs.append(cli._load_document(path))
            assert docs[0] == docs[1], path

    @pytest.mark.parametrize("loader", YAML_LOADERS,
                             ids=lambda lo: lo.__name__)
    def test_malformed_config_exits_2_under_each(self, tmp_path, capsys,
                                                 monkeypatch, loader):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("data: [unclosed\nmodel: {family: x\n")
        assert main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "cannot parse" in capsys.readouterr().err


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

    def test_import_leaves_scipy_special_out(self):
        """Tails, quantiles and the logit link are NumPy and standard
        library code, so no scipy module loads with the package."""
        proc = run_python("-c", "import sys, gscore, gscore.cli; "
                          "print(sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_numpy_polynomial_loads_only_with_the_first_integral(self):
        """The Gauss-Hermite rule is built on first use: the package and
        its command start without numpy.polynomial, and the first truth
        computation loads it."""
        proc = run_python("-c", """
import sys
import gscore, gscore.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy.polynomial" or m.startswith("numpy.polynomial."))
print(loaded() == [])
from gscore import Scenario, true_marginal_means
true_marginal_means(Scenario(n=40, beta_A=(-1.0, 0.0),
                             covariates=("standard-normal",), beta_W=(0.5,)))
print("numpy.polynomial" in loaded())
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    def test_generation_fits_tests_and_analyze_load_no_scipy(self):
        """Calibration, a one-worker run_oc, analyze_trial and the analyze
        command on the shipped configs, in a fresh interpreter, leave no
        scipy module in sys.modules: no fit there takes the pivoted-QR
        step, the only user of scipy."""
        script = f"""
import contextlib, io, os, sys, tempfile
import yaml
from gscore import (ColumnSchema, Hypothesis, ModelSpec, analyze_trial,
                    calibrate_intercepts, load_csv, methods_from_config,
                    run_oc, scenario_from_config)
from gscore.cli import main
root = {PKG_ROOT!r}
def doc(name):
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        return yaml.safe_load(fh)
scen = doc("scenario2_stratified.yaml")
calibrate_intercepts((0.30, 0.45), scen["beta_W"],
                     scen["covariates"])
run_oc(scenario_from_config(scen),
       methods_from_config(doc("methods.yaml")["methods"]), 60, seed=3,
       workers=1)
ex = doc("analyze_example.yaml")
data, _ = load_csv(os.path.join(root, "tests", "data", "fixture20.csv"),
                   ColumnSchema(**ex["schema"]))
analyze_trial(data, ModelSpec(**ex["model"]), Hypothesis(), estimator="III")
with tempfile.TemporaryDirectory() as tmp, \\
        contextlib.redirect_stdout(io.StringIO()):
    code = main(["analyze", "--config",
                 os.path.join(root, "configs", "analyze_example.yaml"),
                 "--out", os.path.join(tmp, "r.json")])
assert code == 0, code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_scipy_linalg_out(self):
        """scipy.linalg serves only the pivoted-QR Newton step, so it is
        imported when a fit first takes that step, not with the package."""
        proc = run_python("-c", "import sys, gscore.cli; "
                          "print('scipy.linalg' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
