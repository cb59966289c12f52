"""Hypothesis tests and confidence intervals for marginal effects.

Two effect measures (difference mu_2 - mu_1, ratio mu_2 / mu_1) and two
test constructions:

  wald   statistic against the plug-in variance at the estimate; the
         ratio version works on the log scale (delta method) and says so
         in its metadata
  score  the statistic's denominator adds (estimate - null)^2 / n, so it
         is strictly below the Wald statistic away from the null and its
         closed-form interval strictly contains the Wald interval

Score intervals exist only when n exceeds the chi-square critical value
(difference) and when a quadratic discriminant is positive (ratio);
otherwise an IntervalUndefinedError carries the still-valid test result
and diagnostics.  One-sided p-values come from the signed square root of
the chi-square statistic.

``run_test`` is the one dispatch from a (measure, test) pair to its
function; ``analyze_trial`` composes fit, standardization, the variance
from ``gcomp.estimate_variance`` and the requested tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, gammaincinv, ndtr, ndtri

from . import glm
from .dataset import ModelSpec, TrialDataset, build_design
from .errors import DataError, IntervalUndefinedError
from .gcomp import ESTIMATORS  # noqa: F401  (re-exported)
from .gcomp import MuEstimate, VarianceEstimate, estimate_mu, estimate_variance

MEASURES = ("difference", "ratio")
SIDEDNESS = ("two-sided", "greater", "less")
TESTS = ("wald", "score")


@dataclass(frozen=True)
class Hypothesis:
    """Effect measure, null value, confidence level, and sidedness."""

    measure: str
    null_value: float = 0.0
    level: float = 0.95
    sidedness: str = "two-sided"

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}")
        if self.sidedness not in SIDEDNESS:
            raise ValueError(f"sidedness must be one of {SIDEDNESS}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.measure == "ratio" and self.null_value <= 0.0:
            raise ValueError("ratio null value must be positive")


@dataclass(frozen=True)
class TestResult:
    """One test's output, self-describing enough to serialize."""

    method: str
    measure: str
    estimate: float
    statistic: float
    distribution: str  # "chi-square-1" | "standard-normal"
    p_value: float
    ci: tuple[float, float] | None
    null_value: float
    level: float
    sidedness: str
    variance_tag: tuple[str, str]
    n: int
    se: float | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "measure": self.measure,
            "estimate": self.estimate,
            "statistic": self.statistic,
            "distribution": self.distribution,
            "p_value": self.p_value,
            "ci": list(self.ci) if self.ci is not None else None,
            "null_value": self.null_value,
            "level": self.level,
            "sidedness": self.sidedness,
            "variance": {"estimator": self.variance_tag[0],
                         "correction": self.variance_tag[1]},
            "n": self.n,
            "se": self.se,
            "meta": dict(self.meta),
        }


# Distribution functions come from scipy.special, bit for bit what the
# scipy.stats calls return, without the cost of importing scipy.stats:
# chi-square-1 quantile 2 gammaincinv(1/2, q), normal tails ndtr/ndtri.

def _chi2_sf(x: float) -> float:
    """Upper tail of chi-square-1; 1 below the support, as chi2.sf gives."""
    return float(chdtrc(1, max(x, 0.0)))


def _one_sided_p(z: float, sidedness: str, two_sided: float) -> float:
    if sidedness == "two-sided":
        return two_sided
    if sidedness == "greater":
        return float(ndtr(-z))
    return float(ndtr(z))


def effect_diff_variance(v: VarianceEstimate) -> float:
    """Variance of mu_2 - mu_1: Sigma_22 - 2 Sigma_21 + Sigma_11.

    Influence-based estimators make this nonnegative by construction; the
    cellwise estimator can dip below zero in degenerate samples, in which
    case it is clipped to zero.
    """
    s = v.sigma
    return max(float(s[1, 1] - 2.0 * s[1, 0] + s[0, 0]), 0.0)


def wald_test_diff(mu: MuEstimate, v: VarianceEstimate,
                   h: Hypothesis) -> TestResult:
    """Wald chi-square for the difference, symmetric interval."""
    diff = mu.mu2 - mu.mu1
    sd2 = effect_diff_variance(v)
    sd = np.sqrt(sd2)
    dev = diff - h.null_value
    stat = 0.0 if dev == 0.0 else (np.inf if sd2 == 0.0 else dev ** 2 / sd2)
    z = np.sign(dev) * np.sqrt(stat)
    p = _one_sided_p(z, h.sidedness, _chi2_sf(stat))
    zq = ndtri(0.5 + h.level / 2)
    return TestResult(
        method="wald", measure="difference", estimate=diff,
        statistic=float(stat), distribution="chi-square-1", p_value=p,
        ci=(diff - zq * sd, diff + zq * sd), null_value=h.null_value,
        level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=v.n, se=float(sd))


def score_test_diff(mu: MuEstimate, v: VarianceEstimate,
                    h: Hypothesis) -> TestResult:
    """Generalized score test for the difference.

    Statistic (diff - null)^2 / (sd^2 + (diff - null)^2 / n); interval
    diff +/- sd * sqrt(c / (1 - c/n)) with c the level quantile of
    chi-square-1.  Needs n > c for the interval to exist.
    """
    diff = mu.mu2 - mu.mu1
    n = v.n
    sd2 = effect_diff_variance(v)
    sd = np.sqrt(sd2)
    dev = diff - h.null_value
    denom = sd2 + dev ** 2 / n
    stat = 0.0 if dev == 0.0 else dev ** 2 / denom
    z = np.sign(dev) * np.sqrt(stat)
    p = _one_sided_p(z, h.sidedness, _chi2_sf(stat))
    c = float(2.0 * gammaincinv(0.5, h.level))
    partial = TestResult(
        method="score", measure="difference", estimate=diff,
        statistic=float(stat), distribution="chi-square-1", p_value=p,
        ci=None, null_value=h.null_value, level=h.level,
        sidedness=h.sidedness, variance_tag=(v.estimator, v.correction),
        n=n, se=float(sd))
    if n <= c:
        raise IntervalUndefinedError(
            f"score interval needs n > {c:.4g}, got n={n}",
            result=partial, diagnostics={"n": n, "critical": c})
    half = sd * np.sqrt(c / (1.0 - c / n))
    return TestResult(
        method="score", measure="difference", estimate=diff,
        statistic=float(stat), distribution="chi-square-1", p_value=p,
        ci=(diff - half, diff + half), null_value=h.null_value,
        level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=n, se=float(sd))


def wald_test_ratio(mu: MuEstimate, v: VarianceEstimate,
                    h: Hypothesis) -> TestResult:
    """Delta-method Wald for the ratio, built on the log scale."""
    if mu.mu1 <= 0.0 or mu.mu2 <= 0.0:
        raise DataError("ratio effects need positive arm means, got "
                        f"({mu.mu1:.4g}, {mu.mu2:.4g})")
    s = v.sigma
    ratio = mu.mu2 / mu.mu1
    ls2 = (s[1, 1] / mu.mu2 ** 2 - 2.0 * s[1, 0] / (mu.mu1 * mu.mu2)
           + s[0, 0] / mu.mu1 ** 2)
    ls2 = max(float(ls2), 0.0)
    ls = np.sqrt(ls2)
    dev = np.log(ratio) - np.log(h.null_value)
    z = 0.0 if dev == 0.0 else (np.sign(dev) * np.inf if ls == 0.0 else dev / ls)
    p = _one_sided_p(z, h.sidedness, float(2.0 * ndtr(-abs(z))))
    zq = ndtri(0.5 + h.level / 2)
    return TestResult(
        method="wald", measure="ratio", estimate=float(ratio),
        statistic=float(z), distribution="standard-normal", p_value=p,
        ci=(float(np.exp(np.log(ratio) - zq * ls)),
            float(np.exp(np.log(ratio) + zq * ls))),
        null_value=h.null_value, level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=v.n, se=float(ls),
        meta={"scale": "log"})


def score_test_ratio(mu: MuEstimate, v: VarianceEstimate,
                     h: Hypothesis) -> TestResult:
    """Generalized score test for the ratio, interval from a quadratic.

    Statistic (mu2 - d0 mu1)^2 / (Sigma_22 - 2 d0 Sigma_21 + d0^2
    Sigma_11 + (mu2 - d0 mu1)^2 / n).  Interval endpoints are
    (mu2/mu1) (a -/+ sqrt(a^2 - b)); both exist only when the linear
    coefficient's denominator stays positive and a^2 > b, otherwise the
    error carries the partial result and the failing quantities.
    """
    if mu.mu1 <= 0.0 or mu.mu2 <= 0.0:
        raise DataError("ratio effects need positive arm means, got "
                        f"({mu.mu1:.4g}, {mu.mu2:.4g})")
    s = v.sigma
    n = v.n
    d0 = h.null_value
    ratio = mu.mu2 / mu.mu1
    dev = mu.mu2 - d0 * mu.mu1
    denom = (s[1, 1] - 2.0 * d0 * s[1, 0] + d0 ** 2 * s[0, 0]
             + dev ** 2 / n)
    stat = 0.0 if dev == 0.0 else dev ** 2 / denom
    z = np.sign(dev) * np.sqrt(stat)
    p = _one_sided_p(z, h.sidedness, _chi2_sf(stat))
    partial = TestResult(
        method="score", measure="ratio", estimate=float(ratio),
        statistic=float(stat), distribution="chi-square-1", p_value=p,
        ci=None, null_value=d0, level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=n)
    c = float(2.0 * gammaincinv(0.5, h.level))
    den = 1.0 - c * (s[0, 0] / mu.mu1 ** 2 + 1.0 / n)
    if den <= 0.0:
        raise IntervalUndefinedError(
            "ratio interval undefined: (1 - c/n) mu_1^2 must exceed "
            "c Sigma_11", result=partial,
            diagnostics={"denominator": float(den), "critical": c, "n": n})
    a = (1.0 - c * (s[1, 0] / (mu.mu1 * mu.mu2) + 1.0 / n)) / den
    b = (1.0 - c * (s[1, 1] / mu.mu2 ** 2 + 1.0 / n)) / den
    disc = a ** 2 - b
    if disc <= 0.0:
        raise IntervalUndefinedError(
            "ratio interval undefined: negative discriminant",
            result=partial,
            diagnostics={"a": float(a), "b": float(b),
                         "discriminant": float(disc)})
    root = np.sqrt(disc)
    return TestResult(
        method="score", measure="ratio", estimate=float(ratio),
        statistic=float(stat), distribution="chi-square-1", p_value=p,
        ci=(float(ratio * (a - root)), float(ratio * (a + root))),
        null_value=d0, level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=n,
        meta={"a": float(a), "b": float(b)})


# ------------------------------------------------------------------ #
# Pipeline composition
# ------------------------------------------------------------------ #

_TEST_FUNCS = {
    ("difference", "wald"): wald_test_diff,
    ("difference", "score"): score_test_diff,
    ("ratio", "wald"): wald_test_ratio,
    ("ratio", "score"): score_test_ratio,
}


def run_test(mu: MuEstimate, v: VarianceEstimate, h: Hypothesis,
             test: str) -> TestResult:
    """Run the named test ("wald" or "score") for ``h``'s effect measure."""
    if test not in TESTS:
        raise ValueError(f"test method must be one of {TESTS}")
    return _TEST_FUNCS[(h.measure, test)](mu, v, h)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one model spec + variance choice yields on a dataset."""

    spec: ModelSpec
    mu: MuEstimate
    variance: VarianceEstimate
    fit: glm.FittedGLM
    tests: dict
    undefined_intervals: dict


def analyze_trial(data: TrialDataset, spec: ModelSpec, h: Hypothesis, *,
                  estimator: str = "I", correction: str = "HC0",
                  pi=None, methods: tuple[str, ...] = ("wald", "score"),
                  ) -> AnalysisResult:
    """Fit, standardize, estimate the covariance, and run the tests.

    Undefined score intervals do not abort the analysis: the partial
    result (statistic and p-value, no interval) is kept and the reason
    recorded in ``undefined_intervals``.
    """
    design = build_design(data, spec)
    fit = glm.fit(design, data.outcome)
    mu = estimate_mu(fit, design)
    v = estimate_variance(fit, design, estimator, correction, pi)
    tests, undefined = {}, {}
    for m in methods:
        try:
            tests[m] = run_test(mu, v, h, m)
        except IntervalUndefinedError as err:
            tests[m] = err.result
            undefined[m] = str(err)
    return AnalysisResult(spec=spec, mu=mu, variance=v, fit=fit,
                          tests=tests, undefined_intervals=undefined)


def unadjusted_analysis(data: TrialDataset, h: Hypothesis,
                        method: str = "wald",
                        family: str | None = None) -> TestResult:
    """Arm-means-only analysis, run through the same pipeline.

    Uses an arm-only model spec with the score-equation variance; for
    arm-only designs the influence collapses to the same matrix under
    every canonical family, so the family (auto-chosen by outcome type
    unless given) does not change the numbers.
    """
    if family is None:
        binary = np.isin(data.outcome, (0.0, 1.0)).all()
        family = "bernoulli-logit" if binary else "gaussian-identity"
    res = analyze_trial(data, ModelSpec(family=family), h,
                        estimator="I", methods=(method,))
    return res.tests[method]
