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
otherwise ``run_test`` and the named tests raise an IntervalUndefinedError
carrying the still-valid test result and diagnostics, and
``analyze_trial`` records the reason.  One-sided p-values come from the
signed square root of the chi-square statistic.  Whether a test rejects
at its level is decided from that statistic and the critical value, so
only a single fit's TestResult carries a p-value; ``run_oc`` forms none.

``run_test`` runs a (measure, test) pair's kernel as one row of
``run_test_batch``; ``analyze_trial`` composes fit, standardization, the
variance from ``gcomp.estimate_variance`` and the requested tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import glm
from .dataset import ModelSpec, TrialDataset, build_design
from .errors import (DataError, IntervalUndefinedError, check_choices,
                     refuse_bool)
from .gcomp import MuEstimate, VarianceEstimate, estimate_mu, estimate_variance

MEASURES = ("difference", "ratio")
SIDEDNESS = ("two-sided", "greater", "less")
TESTS = ("wald", "score")


@dataclass(frozen=True)
class Hypothesis:
    """Effect measure, null value (None: no effect), confidence level,
    and sidedness."""

    measure: str = "difference"
    null_value: float | None = None
    level: float = 0.95
    sidedness: str = "two-sided"

    def __post_init__(self):
        check_choices("hypothesis", (self.measure, MEASURES, "measure"),
                      (self.sidedness, SIDEDNESS, "sidedness"))
        null = refuse_bool("null_value", self.null_value)
        if null is None:  # no effect
            null = 1.0 if self.measure == "ratio" else 0.0
        object.__setattr__(self, "null_value", float(null))
        object.__setattr__(self, "level",
                           float(refuse_bool("level", self.level)))
        if not math.isfinite(self.null_value):
            raise ValueError(f"null_value must be finite, got {null!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.measure == "ratio" and self.null_value <= 0.0:
            raise ValueError("ratio null value must be positive")

    @cached_property
    def chi2_quantile(self) -> float:
        """c: the ``level`` quantile of chi-square-1, the square of
        ``z_quantile``."""
        return self.z_quantile * self.z_quantile

    @cached_property
    def z_quantile(self) -> float:
        """The standard normal quantile at 0.5 + level/2 (two-sided)."""
        return NormalDist().inv_cdf(0.5 + self.level / 2)


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
        """Every field in declaration order, variance_tag as "variance"."""
        d = {"variance" if f.name == "variance_tag" else f.name:
             getattr(self, f.name) for f in fields(self)}
        d["ci"] = list(self.ci) if self.ci is not None else None
        d["variance"] = {"estimator": self.variance_tag[0],
                         "correction": self.variance_tag[1]}
        d["meta"] = dict(self.meta)
        return d


# No scipy: the quantiles come from the standard library's NormalDist
# (Wichura's AS241), the chi-square-1 one as its square, within 1e-14
# relative of scipy.stats for levels in [0.8, 0.99].
#
# Each test is written once, as a kernel over any leading shape: arm
# means (..., 2) and covariances (..., 2, 2) from fits of n subjects give
# a dict of arrays of that shape, with masks for the rows where the arm
# means are not positive (ratio) or the score interval does not exist.
# run_test_batch runs a kernel on a batch; a single-fit test is its one
# row with no leading axis, built by _test_row.  x * x, not
# x ** 2: numpy scalars (one fit) compute ** by pow, off by an ulp at times.


def _on_side(dev, sidedness: str):
    """Whether the deviation dev lies on a one-sided alternative's side."""
    return dev > 0.0 if sidedness == "greater" else dev < 0.0


def _p_value(dev: float, chi2: float, sidedness: str) -> float:
    """p-value of a chi-square-1 statistic chi2 = z^2 (0 if below) whose
    normal deviate z has the sign of dev: P(Z^2 > chi2) two-sided, else
    P(Z > z) ("greater") or P(Z < z) ("less"), half of erfc(|z| / sqrt 2)
    on the alternative's side and its complement on the other.

    erfc(a) falls as exp(-a^2), so a^2 is chi2 / 2 itself, not a rounded
    a = sqrt(chi2 / 2) squared: erfc(a) exp(a^2 - chi2 / 2), the exponent
    exact in Fractions.  Within 4e-14 relative of scipy's chdtrc on
    [0, 1e3], where erfc(sqrt(x / 2)) is off by 1e-13."""
    a2 = max(chi2, 0.0) / 2.0  # NaN stays NaN
    a = math.sqrt(a2)
    q = math.erfc(a)
    if q > 0.0:  # neither NaN nor past the underflow (a2 finite)
        q *= math.exp(float(Fraction(a) ** 2 - Fraction(a2)))
    if sidedness == "two-sided":
        return q
    return 0.5 * q if _on_side(dev, sidedness) else 1.0 - 0.5 * q


def _diff_variance(sigma: np.ndarray) -> np.ndarray:
    """Variance of mu_2 - mu_1: Sigma_22 - 2 Sigma_21 + Sigma_11.

    Influence-based estimators make this nonnegative by construction; the
    cellwise estimator can dip below zero in degenerate samples, in which
    case it is clipped to zero.
    """
    return np.maximum(
        sigma[..., 1, 1] - 2.0 * sigma[..., 1, 0] + sigma[..., 0, 0], 0.0)


def _wald_diff(mu, sigma, n: int, h: Hypothesis) -> dict:
    diff = mu[..., 1] - mu[..., 0]
    sd2 = _diff_variance(sigma)
    sd = np.sqrt(sd2)
    dev = diff - h.null_value
    stat = np.where(dev == 0.0, 0.0,
                    np.where(sd2 == 0.0, np.inf, dev * dev / sd2))
    half = h.z_quantile * sd
    return dict(estimate=diff, statistic=stat, dev=dev, chi2=stat,
                lo=diff - half, hi=diff + half, se=sd)


def _score_diff(mu, sigma, n: int, h: Hypothesis) -> dict:
    diff = mu[..., 1] - mu[..., 0]
    sd2 = _diff_variance(sigma)
    sd = np.sqrt(sd2)
    dev = diff - h.null_value
    stat = np.where(dev == 0.0, 0.0, dev * dev / (sd2 + dev * dev / n))
    c = h.chi2_quantile
    half = sd * np.sqrt(c / (1.0 - c / n)) if n > c else np.nan
    return dict(estimate=diff, statistic=stat, dev=dev, chi2=stat,
                lo=diff - half, hi=diff + half, se=sd,
                undefined=np.full(diff.shape, n <= c))


def _wald_ratio(mu, sigma, n: int, h: Hypothesis) -> dict:
    mu1, mu2, s = mu[..., 0], mu[..., 1], sigma
    ratio = mu2 / mu1
    ls = np.sqrt(np.maximum(s[..., 1, 1] / (mu2 * mu2)
                            - 2.0 * s[..., 1, 0] / (mu1 * mu2)
                            + s[..., 0, 0] / (mu1 * mu1), 0.0))
    log_ratio = np.log(ratio)
    dev = log_ratio - np.log(h.null_value)
    z = np.where(dev == 0.0, 0.0,
                 np.where(ls == 0.0, np.sign(dev) * np.inf, dev / ls))
    a = np.minimum(np.abs(z), 40.0)  # past the tail's underflow: z^2 < inf
    half = h.z_quantile * ls
    return dict(estimate=ratio, statistic=z, dev=z, chi2=a * a,
                lo=np.exp(log_ratio - half), hi=np.exp(log_ratio + half),
                se=ls, nonpositive=(mu1 <= 0.0) | (mu2 <= 0.0))


def _score_ratio(mu, sigma, n: int, h: Hypothesis) -> dict:
    mu1, mu2, s = mu[..., 0], mu[..., 1], sigma
    d0 = h.null_value
    ratio = mu2 / mu1
    dev = mu2 - d0 * mu1
    stat = np.where(dev == 0.0, 0.0, dev * dev / (
        s[..., 1, 1] - 2.0 * d0 * s[..., 1, 0] + d0 ** 2 * s[..., 0, 0]
        + dev * dev / n))
    c = h.chi2_quantile
    den = 1.0 - c * (s[..., 0, 0] / (mu1 * mu1) + 1.0 / n)
    a = (1.0 - c * (s[..., 1, 0] / (mu1 * mu2) + 1.0 / n)) / den
    b = (1.0 - c * (s[..., 1, 1] / (mu2 * mu2) + 1.0 / n)) / den
    disc = a * a - b
    root = np.sqrt(disc)
    bad_den = den <= 0.0
    return dict(estimate=ratio, statistic=stat, dev=dev, chi2=stat,
                lo=ratio * (a - root), hi=ratio * (a + root),
                nonpositive=(mu1 <= 0.0) | (mu2 <= 0.0),
                undefined=bad_den | (disc <= 0.0),
                bad_den=bad_den, den=den, a=a, b=b, disc=disc)


# (kernel, distribution) per (measure, test)
_TESTS = {
    ("difference", "wald"): (_wald_diff, "chi-square-1"),
    ("difference", "score"): (_score_diff, "chi-square-1"),
    ("ratio", "wald"): (_wald_ratio, "standard-normal"),
    ("ratio", "score"): (_score_ratio, "chi-square-1"),
}


def run_test_batch(mu: np.ndarray, sigma: np.ndarray, n: int, h: Hypothesis,
                   test: str) -> dict:
    """``run_test`` for a batch: arm means (..., 2) and covariances
    (..., 2, 2) from fits of n subjects each.

    Returns arrays of the leading shape: estimate, statistic, dev and
    chi2 (the signed deviation and the chi-square-1 statistic a p-value
    is formed from), lo and hi (the interval), ``reject``, whether the
    test rejects the null at ``h.level``, and ``failed``, the rows for
    which ``run_test`` raises: non-positive arm means for a ratio, or an
    undefined score interval.  A test rejects when chi2 reaches
    ``h.chi2_quantile``, on the alternative's side if one-sided: a
    p-value of at most 1 - level (half that one-sided), up to rounding
    at the boundary.  No p-value is formed here.
    """
    check_choices("run_test", (test, TESTS, "test"))
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = _TESTS[(h.measure, test)][0](mu, sigma, n, h)
        cols["reject"] = (cols["chi2"] >= h.chi2_quantile) & (
            h.sidedness == "two-sided" or _on_side(cols["dev"], h.sidedness))
    cols["failed"] = (cols.get("nonpositive", False)
                      | cols.get("undefined", False)) \
        & np.ones(mu.shape[:-1], dtype=bool)
    return cols


def _test_row(mu: MuEstimate, v: VarianceEstimate, h: Hypothesis,
              test: str) -> tuple[TestResult, tuple[str, dict] | None]:
    """``run_test_batch`` on one fit: its TestResult (no interval if the
    row failed) and the reason (message, diagnostics) the score interval
    is undefined, or None.  DataError for non-positive ratio arm means."""
    r = {k: float(x) for k, x in
         run_test_batch(mu.mu, v.sigma, v.n, h, test).items()}
    if r.get("nonpositive"):
        raise DataError("ratio effects need positive arm means, got "
                        f"({mu.mu1:.4g}, {mu.mu2:.4g})")
    defined = not r["failed"]
    meta = ({"scale": "log"} if (h.measure, test) == ("ratio", "wald") else
            {"a": r["a"], "b": r["b"]} if "a" in r and defined else {})
    result = TestResult(
        method=test, measure=h.measure, estimate=r["estimate"],
        statistic=r["statistic"], distribution=_TESTS[(h.measure, test)][1],
        p_value=_p_value(r["dev"], r["chi2"], h.sidedness),
        ci=(r["lo"], r["hi"]) if defined else None,
        null_value=h.null_value, level=h.level, sidedness=h.sidedness,
        variance_tag=(v.estimator, v.correction), n=v.n, se=r.get("se"),
        meta=meta)
    if defined:
        return result, None
    c = h.chi2_quantile
    if h.measure == "difference":
        return result, (f"score interval needs n > {c:.4g}, got n={v.n}",
                        {"n": v.n, "critical": c})
    if r["bad_den"]:
        return result, ("ratio interval undefined: (1 - c/n) mu_1^2 must "
                        "exceed c Sigma_11",
                        {"denominator": r["den"], "critical": c, "n": v.n})
    return result, ("ratio interval undefined: negative discriminant",
                    {"a": r["a"], "b": r["b"], "discriminant": r["disc"]})


def run_test(mu: MuEstimate, v: VarianceEstimate, h: Hypothesis,
             test: str) -> TestResult:
    """Run the named test ("wald" or "score") for ``h``'s effect measure;
    IntervalUndefinedError, carrying the result, if no interval exists."""
    result, reason = _test_row(mu, v, h, test)
    if reason is not None:
        raise IntervalUndefinedError(reason[0], result=result,
                                     diagnostics=reason[1])
    return result


def _for_measure(h: Hypothesis, measure: str) -> Hypothesis:
    """``h``; ValueError if it is a hypothesis about the other measure."""
    if h.measure != measure:
        raise ValueError(f"{measure} test given a {h.measure} hypothesis")
    return h


def wald_test_diff(mu: MuEstimate, v: VarianceEstimate,
                   h: Hypothesis) -> TestResult:
    """Wald chi-square for the difference, symmetric interval."""
    return run_test(mu, v, _for_measure(h, "difference"), "wald")


def score_test_diff(mu: MuEstimate, v: VarianceEstimate,
                    h: Hypothesis) -> TestResult:
    """Generalized score test for the difference.

    Statistic (diff - null)^2 / (sd^2 + (diff - null)^2 / n); interval
    diff +/- sd * sqrt(c / (1 - c/n)) with c the level quantile of
    chi-square-1.  Needs n > c for the interval to exist.
    """
    return run_test(mu, v, _for_measure(h, "difference"), "score")


def wald_test_ratio(mu: MuEstimate, v: VarianceEstimate,
                    h: Hypothesis) -> TestResult:
    """Delta-method Wald for the ratio, built on the log scale."""
    return run_test(mu, v, _for_measure(h, "ratio"), "wald")


def score_test_ratio(mu: MuEstimate, v: VarianceEstimate,
                     h: Hypothesis) -> TestResult:
    """Generalized score test for the ratio, interval from a quadratic.

    Statistic (mu2 - d0 mu1)^2 / (Sigma_22 - 2 d0 Sigma_21 + d0^2
    Sigma_11 + (mu2 - d0 mu1)^2 / n).  Interval endpoints are
    (mu2/mu1) (a -/+ sqrt(a^2 - b)); both exist only when the linear
    coefficient's denominator stays positive and a^2 > b, otherwise the
    error carries the partial result and the failing quantities.
    """
    return run_test(mu, v, _for_measure(h, "ratio"), "score")


# ------------------------------------------------------------------ #
# Pipeline composition
# ------------------------------------------------------------------ #

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
        tests[m], reason = _test_row(mu, v, h, m)
        if reason is not None:
            undefined[m] = reason[0]
    return AnalysisResult(spec=spec, mu=mu, variance=v, fit=fit,
                          tests=tests, undefined_intervals=undefined)


def unadjusted_analysis(data: TrialDataset, h: Hypothesis,
                        method: str = "wald") -> TestResult:
    """Arm-means-only analysis, run through the same pipeline.

    Uses an arm-only model spec with the score-equation variance, its
    family chosen by outcome type (logistic for 0/1 outcomes, Gaussian
    otherwise); for arm-only designs the influence collapses to the same
    matrix under every canonical family.
    """
    binary = np.isin(data.outcome, (0.0, 1.0)).all()
    family = "bernoulli-logit" if binary else "gaussian-identity"
    res = analyze_trial(data, ModelSpec(family=family), h,
                        estimator="I", methods=(method,))
    return res.tests[method]
