"""The public API, pinned: a change to it must be made here on purpose."""

import inspect
from dataclasses import fields

import gscore
from gscore import DesignMatrix

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
    "covariate_spec_from_config", "dataset", "effect_diff_variance",
    "errors", "estimate_mu", "estimate_variance", "fit", "from_config",
    "gcomp", "generate_trial", "glm", "inference", "influence_aipw",
    "influence_score", "load_csv", "method_spec_from_config",
    "methods_from_config", "randomize_complete",
    "randomize_stratified_block", "resolve_family", "run_oc", "run_test",
    "scenario_from_config", "score_test_diff", "score_test_ratio",
    "simulation", "true_marginal_means", "unadjusted_analysis",
    "var_from_influence", "var_ye", "variance_decomposition",
    "wald_test_diff", "wald_test_ratio",
]


def test_package_exports():
    """Every public name of the package, its submodules included (the
    package's __all__ is what dir() lists)."""
    assert sorted(gscore.__all__) == PUBLIC_NAMES


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
