"""Workloads: their configs, the inputs made from the seed, and the checks.

Only public gscore functions are called.  Each workload is a YAML file in
``configs/``; ``setup`` turns it into a scenario (solving intercepts for
target marginal means where the file gives them), the exact truth, and
the methods.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from gscore import (
    ColumnSchema,
    Hypothesis,
    ModelSpec,
    analyze_trial,
    calibrate_intercepts,
    covariate_spec_from_config,
    load_csv,
    methods_from_config,
    scenario_from_config,
    true_marginal_means,
)
from gscore.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
LEVEL = 0.95


@dataclass(frozen=True)
class Sizes:
    """Work per timed operation."""

    w1_reps: int = 0       # replications per single-worker run_oc window
    w1_per_cycle: int = 0  # single-worker operations per interleave cycle
    w2_reps: int = 0       # replications per two-worker window (>= 2 chunks)
    w2_calls: int = 0      # analyze calls per two-worker window
    trace_reps: int = 0    # replications per traced block
    rows: int = 0          # analyze CSV rows (0: the config's n)


WORKLOADS = {
    "oc-null-adj3": Sizes(w1_reps=30, w1_per_cycle=8, w2_reps=500,
                          trace_reps=500),
    "oc-mixed-small": Sizes(w1_reps=15, w1_per_cycle=4, w2_reps=500,
                            trace_reps=500),
    "analyze-large": Sizes(w1_per_cycle=3, w2_calls=2),
}


def is_oc(name: str) -> bool:
    return name.startswith("oc-")


def load_config(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, f"{name}.yaml"), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def setup(doc: dict, span=contextlib.nullcontext):
    """(scenario, methods, truth) from a workload document.

    ``span(name)`` wraps the calibration and truth calls when tracing.
    """
    sd = dict(doc["scenario"])
    if "targets" in doc:
        covs = tuple(covariate_spec_from_config(c) for c in sd["covariates"])
        with span("simulation.calibrate_intercepts"):
            sd["beta_A"] = list(calibrate_intercepts(
                doc["targets"], sd["beta_W"], covs))
    scenario = scenario_from_config(sd)
    with span("simulation.true_marginal_means"):
        truth = true_marginal_means(scenario)
    methods = methods_from_config(doc["methods"]) if "methods" in doc else ()
    return scenario, methods, truth


# ------------------------------------------------------------------ #
# analyze-large inputs
# ------------------------------------------------------------------ #


def data_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def write_trial_csv(path: str, data) -> None:
    """Outcome, arm and covariates, floats written round-trip exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "arm", *data.covariate_names])
        for y, a, row in zip(data.outcome, data.arm, data.covariates):
            w.writerow([repr(float(y)), int(a), *(repr(float(v)) for v in row)])


def write_analyze_config(path: str, csv_path: str, doc: dict) -> None:
    cfg = dict(doc["analyze"])
    cfg["data"] = os.path.abspath(csv_path)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)


def analyze_call(config_path: str, out_path: str) -> int:
    """One in-process ``gscore analyze``; its console lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli_main(["analyze", "--config", config_path, "--out", out_path])


def analyze_task(config_path: str, out_path: str):
    """Pool-worker form: exit code and the checked fields of the report."""
    rc = analyze_call(config_path, out_path)
    with open(out_path, encoding="utf-8") as fh:
        return rc, report_fields(json.load(fh))


# ------------------------------------------------------------------ #
# Checks
# ------------------------------------------------------------------ #


def _test_fields(prefix: str, t: dict) -> dict:
    ci = t["ci"] if t["ci"] is not None else [math.nan, math.nan]
    se = t["se"] if t["se"] is not None else math.nan
    return {f"{prefix}.estimate": t["estimate"],
            f"{prefix}.statistic": t["statistic"],
            f"{prefix}.p_value": t["p_value"],
            f"{prefix}.ci_lo": ci[0], f"{prefix}.ci_hi": ci[1],
            f"{prefix}.se": se}


def report_fields(report: dict) -> dict:
    """mu, sigma and test fields of an analyze JSON report."""
    out = {"mu1": report["arm_means"]["mu1"]["estimate"],
           "mu2": report["arm_means"]["mu2"]["estimate"]}
    for i, row in enumerate(report["variance"]["sigma"]):
        for j, v in enumerate(row):
            out[f"sigma{i}{j}"] = v
    for name, t in sorted(report["tests"].items()):
        out.update(_test_fields(name, t))
    return out


def direct_fields(csv_path: str, doc: dict) -> dict:
    """The same fields from load_csv + analyze_trial on the same file."""
    a = doc["analyze"]
    sd, md = a["schema"], a["model"]
    data, _ = load_csv(csv_path, ColumnSchema(
        outcome=sd["outcome"], arm=sd["arm"],
        covariates=tuple(sd["covariates"])))
    h = Hypothesis(measure=a["measure"], null_value=float(a["null_value"]),
                   level=float(a["level"]), sidedness=a["sidedness"])
    res = analyze_trial(
        data, ModelSpec(family=md["family"], covariates=tuple(md["covariates"]),
                        heterogeneous=bool(md.get("heterogeneous", False))),
        h, estimator=a["estimator"], correction=a["correction"])
    out = {"mu1": res.mu.mu1, "mu2": res.mu.mu2}
    for i in range(2):
        for j in range(2):
            out[f"sigma{i}{j}"] = float(res.variance.sigma[i, j])
    for name, t in sorted(res.tests.items()):
        out.update(_test_fields(name, t.to_dict()))
    return out


def _same(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def compare_fields(got: dict, want: dict, tol: float = 1e-12) -> list[str]:
    if set(got) != set(want):
        return [f"report fields differ: {sorted(set(got) ^ set(want))}"]
    return [f"{k}: report {got[k]!r} != direct {want[k]!r}"
            for k in sorted(want) if not _same(got[k], want[k], tol)]


def oc_tally(result) -> list[tuple]:
    """Per method (name, failed, rejections, covered, mean estimate)."""
    out = []
    for m in result.methods:
        used = m.n_total - m.n_failed
        rej = round(m.rejection_rate * used) if used else 0
        cov = round(m.coverage * used) if used else 0
        out.append((m.name, m.n_failed, rej, cov, m.mean_estimate))
    return out


def compare_tallies(got, want, what: str, tol: float = 1e-10) -> list[str]:
    errs = []
    for g, w in zip(got, want):
        if g[:4] != w[:4] or not _same(g[4], w[4], tol):
            errs.append(f"{what}: {g} != {w}")
    if len(got) != len(want):
        errs.append(f"{what}: {len(got)} methods != {len(want)}")
    return errs
