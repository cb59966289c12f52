"""Command-line front end: analyze, simulate, calibrate.

``analyze`` runs one dataset through the full pipeline and writes a
structured JSON report (schema_version 1) whose echoed config can be
re-fed to reproduce the numbers exactly.  ``simulate`` runs a scenario
against a methods file and writes a one-row-per-method CSV plus a JSON
report next to it.  ``calibrate`` solves for the per-arm intercepts
hitting target marginal means.

Exit codes: 0 success; 2 configuration, schema, or data problems;
3 model-fitting failures; 4 from ``analyze`` when a confidence interval
is undefined (the report is still written with every defined part).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import yaml

from . import __version__
from .dataset import ColumnSchema, ModelSpec, load_csv
from .errors import FitError, GScoreError, allocation_shares, check_choices
from .gcomp import CORRECTIONS, ESTIMATORS
from .inference import Hypothesis, analyze_trial
from .simulation import (
    calibrate_intercepts,
    covariate_spec_from_config,
    from_config,
    methods_from_config,
    run_oc,
    scenario_from_config,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_INTERVAL = 4
# libyaml's parser when PyYAML has it: the same documents, ~8x faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    except yaml.YAMLError as err:
        raise ValueError(f"cannot parse {path}: {err}") from None
    if not isinstance(doc, (dict, list)):
        raise ValueError(f"{path}: expected a structured document")
    return doc


def _json_ready(obj):
    """obj with numpy scalars as Python values and every non-finite float
    as None, so that it is strict JSON (null where a number is NaN)."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: str, obj) -> None:
    """obj as strict JSON (no NaN or Infinity tokens), indented, at path;
    serialized whole before the file is opened, so an object that cannot
    be written leaves no file."""
    text = json.dumps(_json_ready(obj), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------------ #
# analyze
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class AnalyzeConfig:
    """An analyze document, apart from its hypothesis: the data file (a
    relative path is read from the config's directory), its columns, the
    working model and the variance choice passed to analyze_trial."""

    data: str
    schema: ColumnSchema
    model: ModelSpec
    estimator: str = "I"
    correction: str = "HC0"
    pi: tuple[float, float] | None = None

    def __post_init__(self):
        check_choices("config", (self.estimator, ESTIMATORS, "estimator"),
                      (self.correction, CORRECTIONS, "correction"))
        object.__setattr__(self, "pi", self.pi if self.pi is None else
                           allocation_shares("config: pi", self.pi))


def _parse_analyze_config(doc: dict, base_dir: str):
    """(AnalyzeConfig, Hypothesis): the document holds the fields of both
    at top level."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    h_keys = {f.name for f in fields(Hypothesis)}
    cfg = from_config(
        AnalyzeConfig, {k: v for k, v in doc.items() if k not in h_keys},
        "config",
        data=lambda p: p if os.path.isabs(p) else os.path.normpath(
            os.path.join(base_dir, p)),
        schema=lambda sd: from_config(ColumnSchema, sd, "schema"),
        model=lambda md: from_config(ModelSpec, md, "model"))
    h = from_config(Hypothesis,
                    {k: v for k, v in doc.items() if k in h_keys}, "config")
    return cfg, h


def _echo_config(cfg: AnalyzeConfig, h: Hypothesis) -> dict:
    """The document that re-creates the run: AnalyzeConfig's fields, the
    hypothesis's after the model (the order of analyze_example.yaml)."""
    items = list(asdict(cfg).items())
    return dict(items[:3] + list(asdict(h).items()) + items[3:])


def cmd_analyze(args) -> int:
    doc = _load_document(args.config)
    cfg, h = _parse_analyze_config(doc, os.path.dirname(
        os.path.abspath(args.config)))
    data, dropped = load_csv(cfg.data, cfg.schema)
    res = analyze_trial(data, cfg.model, h, estimator=cfg.estimator,
                        correction=cfg.correction, pi=cfg.pi)

    sigma = res.variance.sigma
    # the cellwise estimator (III) can give an arm a negative variance
    se = [float(sigma[a, a]) ** 0.5 if sigma[a, a] >= 0.0 else None
          for a in range(2)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "package": {"name": "gscore", "version": __version__},
        "config": _echo_config(cfg, h),
        "data": {"path": cfg.data, "n_used": data.n, "n_dropped": dropped,
                 "arm_sizes": list(data.arm_sizes())},
        "fit": {
            "converged": res.fit.converged,
            "iterations": res.fit.iterations,
            "score_norm": res.fit.score_norm,
            "coefficients": dict(zip(res.fit.column_labels,
                                     res.fit.beta.tolist())),
        },
        "arm_means": {
            "mu1": {"estimate": res.mu.mu1, "se": se[0]},
            "mu2": {"estimate": res.mu.mu2, "se": se[1]},
        },
        "variance": {"estimator": res.variance.estimator,
                     "correction": res.variance.correction,
                     "sigma": sigma.tolist()},
        "tests": {name: t.to_dict() for name, t in res.tests.items()},
        "undefined_intervals": dict(res.undefined_intervals),
    }
    _write_json(args.out, report)

    n1, n2 = data.arm_sizes()
    print(f"n used: {data.n} (dropped {dropped})   arms: {n1}/{n2}")
    print(f"model: {cfg.model.family}   covariates: "
          f"{', '.join(cfg.model.covariates) or '(arm only)'}")
    shown = ["n/a" if x is None else f"{x:.6f}" for x in se]
    print(f"mu1 = {res.mu.mu1:.6f} (se {shown[0]})   "
          f"mu2 = {res.mu.mu2:.6f} (se {shown[1]})")
    print(f"variance: estimator {res.variance.estimator}, "
          f"{res.variance.correction}")
    for name, t in res.tests.items():
        ci = (f"CI{t.level * 100:.0f} ({t.ci[0]:.6f}, {t.ci[1]:.6f})"
              if t.ci is not None else "CI undefined")
        print(f"{name:>5}: {t.measure} = {t.estimate:.6f}  statistic "
              f"{t.statistic:.6f} ({t.distribution})  p[{t.sidedness}] "
              f"{t.p_value:.6f}  {ci}")
    print(f"report written to {args.out}")
    if res.undefined_intervals:
        for name, msg in res.undefined_intervals.items():
            print(f"warning: {name} interval undefined: {msg}",
                  file=sys.stderr)
        return EXIT_INTERVAL
    return EXIT_OK


# ------------------------------------------------------------------ #
# simulate
# ------------------------------------------------------------------ #

# Per-method columns, then the run-level ones that the CSV repeats on
# every row and the JSON report holds once at top level.
_METHOD_COLS = ("name", "measure", "test", "estimator", "correction", "model",
                "null_value", "sidedness", "reps", "n_failed", "n_used",
                "rejection_rate", "mc_se_rejection", "coverage",
                "mc_se_coverage", "mean_estimate")
_CSV_COLS = _METHOD_COLS + ("true_value", "seed", "level", "n")


def _csv_row(result, m) -> list:
    """Method summary ``m``'s values in _CSV_COLS order."""
    truth = result.true_ratio if m.measure == "ratio" else result.true_diff
    return [m.name, m.measure, m.test, m.estimator, m.correction, m.model,
            m.null_value, m.sidedness, m.n_total, m.n_failed, m.n_used,
            m.rejection_rate, m.mc_se_rejection, m.coverage, m.mc_se_coverage,
            m.mean_estimate, truth, result.seed, result.level, result.n]


def cmd_simulate(args) -> int:
    scenario = scenario_from_config(_load_document(args.scenario))
    methods = methods_from_config(_load_document(args.methods))
    result = run_oc(scenario, methods, args.reps, seed=args.seed,
                    level=args.level, workers=args.workers)

    rows = [_csv_row(result, m) for m in result.methods]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLS)
        writer.writerows(rows)

    report_path = os.path.splitext(args.out)[0] + ".json"
    report = {
        "schema_version": SCHEMA_VERSION,
        "package": {"name": "gscore", "version": __version__},
        "scenario_file": os.path.abspath(args.scenario),
        "methods_file": os.path.abspath(args.methods),
        "reps": result.reps, "seed": result.seed, "level": result.level,
        "n": result.n,
        "true_mu": list(result.true_mu),
        "true_difference": result.true_diff,
        "true_ratio": result.true_ratio,
        "methods": [dict(zip(_METHOD_COLS, r)) for r in rows],
    }
    _write_json(report_path, report)

    print(f"scenario: n={result.n}, true mu = ({result.true_mu[0]:.6f}, "
          f"{result.true_mu[1]:.6f}), true diff = {result.true_diff:.6f}")
    print(f"reps: {result.reps}   seed: {result.seed}   level: {result.level}")
    for row in result.methods:
        print(f"{row.name:>24}: reject {row.rejection_rate:.4f} "
              f"(se {row.mc_se_rejection:.4f})  cover {row.coverage:.4f}  "
              f"mean {row.mean_estimate:.4f}  failed {row.n_failed}")
    print(f"table written to {args.out}; report to {report_path}")
    return EXIT_OK


# ------------------------------------------------------------------ #
# calibrate
# ------------------------------------------------------------------ #


def _parse_covariate_token(tok: str):
    kind, colon, p = tok.partition(":")
    return covariate_spec_from_config({kind: p} if colon else tok)


def cmd_calibrate(args) -> int:
    covs = tuple(_parse_covariate_token(t) for t in args.covariates)
    b1, b2 = calibrate_intercepts(args.targets, args.beta_w, covs)
    print(f"beta_A = ({b1:.6f}, {b2:.6f})")
    if args.out:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "targets": list(args.targets),
            "beta_W": list(args.beta_w),
            "covariates": [
                {"kind": c.kind, **({"p": c.p} if c.p is not None else {})}
                for c in covs],
            "beta_A": [b1, b2],
        }
        _write_json(args.out, payload)
        print(f"written to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ #
# entry point
# ------------------------------------------------------------------ #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gscore",
        description="Covariate-adjusted marginal treatment effects in "
                    "two-arm trials")
    parser.add_argument("--version", action="version",
                        version=f"gscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one trial dataset")
    pa.add_argument("--config", required=True, help="YAML/JSON analysis config")
    pa.add_argument("--out", required=True, help="JSON report path")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run operating characteristics")
    ps.add_argument("--scenario", required=True, help="scenario config file")
    ps.add_argument("--methods", required=True, help="methods config file")
    ps.add_argument("--reps", required=True, type=int)
    ps.add_argument("--seed", required=True, type=int)
    ps.add_argument("--out", required=True, help="CSV output path")
    ps.add_argument("--level", type=float, default=0.95)
    ps.add_argument("--workers", type=int, default=1,
                    help="process count (default 1), at most the usable "
                         "CPUs and one per 250 reps; results do not "
                         "depend on it")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("calibrate", help="solve intercepts for target means")
    pc.add_argument("--targets", required=True, type=float, nargs=2,
                    metavar=("MU1", "MU2"))
    pc.add_argument("--beta-w", required=True, type=float, nargs="+",
                    dest="beta_w", metavar="B")
    pc.add_argument("--covariates", required=True, nargs="+", metavar="SPEC",
                    help="per covariate: 'standard-normal' or 'bernoulli:P'")
    pc.add_argument("--out", default=None, help="optional JSON output path")
    pc.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GScoreError, ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FIT if isinstance(err, FitError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
