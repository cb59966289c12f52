"""The public API, pinned: a change to it must be made here on purpose."""

import ast
import glob
import inspect
import os
import pathlib
import re
from dataclasses import fields

import gscore
from gscore import DesignMatrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = [
    "AnalysisResult", "BERNOULLI_LOGIT", "ColumnSchema", "CovariateSpec",
    "DataError", "DegenerateArmError", "DesignMatrix", "EmptyDataError",
    "Family", "FitError", "FittedGLM", "GAUSSIAN_IDENTITY", "GScoreError",
    "Hypothesis", "InfluenceMatrix", "IntervalUndefinedError", "MethodSpec",
    "MethodSummary", "ModelSpec", "MuEstimate", "NonConvergenceError",
    "OCResult", "POISSON_LOG", "RankDeficiencyError", "Scenario",
    "SchemaError", "SeparationError", "StratificationRule", "TestResult",
    "TrialDataset", "VarianceDecomposition", "VarianceEstimate",
    "analyze_trial", "apply_correction", "build_design",
    "calibrate_intercepts", "counterfactual_design",
    "covariate_spec_from_config", "dataset", "errors", "estimate_mu",
    "estimate_variance", "fit", "from_config", "gcomp", "generate_trial",
    "glm", "inference", "influence_aipw", "influence_score", "load_csv",
    "methods_from_config",
    "run_oc", "run_test", "scenario_from_config", "score_test_diff",
    "score_test_ratio",
    "simulation", "true_marginal_means", "unadjusted_analysis",
    "var_from_influence", "var_ye", "variance_decomposition",
    "wald_test_diff", "wald_test_ratio",
]


def test_package_exports():
    """Every public name of the package, its submodules included (the
    package's __all__ is what dir() lists)."""
    assert sorted(gscore.__all__) == PUBLIC_NAMES


def test_demos_use_only_the_public_api():
    """Every name a demo imports from gscore is in gscore.__all__, so a
    cut of the public surface cannot leave a demo importing it."""
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert demos
    imported = {(os.path.basename(path), a.name)
                for path in demos
                for node in ast.walk(ast.parse(pathlib.Path(path).read_text(
                    encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "gscore"
                for a in node.names}
    assert imported
    assert {(demo, name) for demo, name in imported
            if name not in gscore.__all__} == set()


def test_version_is_pyproject_version():
    """One version: the package's equals pyproject.toml's [project]
    version (read by pattern; Python 3.10 has no tomllib)."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        project = fh.read().split("[project]", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert versions == [gscore.__version__]


def test_design_matrix_stores_the_observed_design_only():
    """No counterfactual copies: counterfactual_design builds one when
    asked, and DesignMatrix.covariate_rows gives what the means and the
    gradient need.  The column labels are read from the spec."""
    assert [f.name for f in fields(DesignMatrix)] == ["X", "spec"]
    assert callable(DesignMatrix.covariate_rows)
    assert isinstance(DesignMatrix.column_labels, property)


def test_fit_takes_a_design_and_outcomes_only():
    """The family comes from the design's spec; fit has no override."""
    assert list(inspect.signature(gscore.fit).parameters) == ["design", "y"]
