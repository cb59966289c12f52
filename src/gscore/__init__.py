"""Covariate-adjusted marginal treatment effects in two-arm trials.

Point estimates by g-computation over canonical GLMs, three
asymptotically equivalent covariance estimators for the pair of arm
means, Wald and generalized score tests with closed-form intervals for
difference and ratio effects, and a Monte Carlo engine for operating
characteristics.
"""

__version__ = "0.5.0"

from .dataset import (
    ColumnSchema,
    DesignMatrix,
    ModelSpec,
    TrialDataset,
    build_design,
    counterfactual_design,
    load_csv,
)
from .errors import (
    DataError,
    DegenerateArmError,
    EmptyDataError,
    FitError,
    GScoreError,
    IntervalUndefinedError,
    NonConvergenceError,
    RankDeficiencyError,
    SchemaError,
    SeparationError,
)
from .gcomp import (
    InfluenceMatrix,
    MuEstimate,
    VarianceDecomposition,
    VarianceEstimate,
    apply_correction,
    estimate_mu,
    estimate_variance,
    influence_aipw,
    influence_score,
    var_from_influence,
    var_ye,
    variance_decomposition,
)
from .glm import (
    BERNOULLI_LOGIT,
    GAUSSIAN_IDENTITY,
    POISSON_LOG,
    Family,
    FittedGLM,
    fit,
)
from .inference import (
    AnalysisResult,
    Hypothesis,
    TestResult,
    analyze_trial,
    run_test,
    score_test_diff,
    score_test_ratio,
    unadjusted_analysis,
    wald_test_diff,
    wald_test_ratio,
)
from .simulation import (
    CovariateSpec,
    MethodSpec,
    MethodSummary,
    OCResult,
    Scenario,
    StratificationRule,
    calibrate_intercepts,
    covariate_spec_from_config,
    from_config,
    generate_trial,
    methods_from_config,
    run_oc,
    scenario_from_config,
    true_marginal_means,
)

__all__ = [name for name in dir() if not name.startswith("_")]
