"""Tests for hypothesis tests, intervals, and the analysis pipeline."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, erfc, ndtr
from scipy.stats import chi2, norm

import frozen_values as fv
from conftest import FIXTURE_SCHEMA, random_trial
from gscore import (
    AnalysisResult,
    DataError,
    Hypothesis,
    IntervalUndefinedError,
    MethodSpec,
    ModelSpec,
    MuEstimate,
    TrialDataset,
    VarianceEstimate,
    analyze_trial,
    run_test,
    score_test_diff,
    score_test_ratio,
    unadjusted_analysis,
    wald_test_diff,
    wald_test_ratio,
)
from gscore import inference
from gscore.inference import TESTS, run_test_batch


def _estimate(mu, sigma, n):
    """Bundle plain numbers into the pipeline's value types."""
    return (MuEstimate(mu=np.asarray(mu, dtype=float)),
            VarianceEstimate(sigma=np.asarray(sigma, dtype=float),
                             estimator="I", correction="HC0", n=n))


class TestHypothesis:
    """Validation of the test specification."""

    def test_defaults(self):
        h = Hypothesis(measure="difference")
        assert h.null_value == 0.0
        assert h.level == 0.95
        assert h.sidedness == "two-sided"

    def test_null_defaults_to_no_effect(self):
        assert Hypothesis(measure="ratio").null_value == 1.0
        assert Hypothesis().measure == "difference"
        assert Hypothesis().null_value == 0.0
        assert MethodSpec(name="m", test="wald",
                          measure="ratio").resolved_null() == 1.0

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Hypothesis(measure="odds-ratio")
        with pytest.raises(ValueError):
            Hypothesis(measure="difference", sidedness="one-sided")
        with pytest.raises(ValueError):
            Hypothesis(measure="difference", level=1.0)
        with pytest.raises(ValueError):
            Hypothesis(measure="difference", level=0.0)
        with pytest.raises(ValueError):
            Hypothesis(measure="ratio", null_value=0.0)
        with pytest.raises(ValueError):
            Hypothesis(measure="ratio", null_value=-1.0)

    @pytest.mark.parametrize("null", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("measure", ["difference", "ratio"])
    def test_non_finite_null_refused(self, measure, null):
        """A NaN null would give a NaN statistic and p-value beside a
        finite interval: refused, with the field named."""
        with pytest.raises(ValueError, match="null_value must be finite"):
            Hypothesis(measure=measure, null_value=null)

    @pytest.mark.parametrize("field, value", [
        ("null_value", True), ("null_value", False),
        ("null_value", np.True_), ("level", True), ("level", np.False_)],
        ids=["null-true", "null-false", "null-numpy", "level-true",
             "level-numpy"])
    @pytest.mark.parametrize("measure", ["difference", "ratio"])
    def test_boolean_null_or_level_refused(self, measure, field, value):
        """float() reads True as 1.0: a bool null or level is a TypeError
        naming the field, not a null of 1 or a level of 0 or 1."""
        with pytest.raises(TypeError, match=re.escape(
                f"{field} must be a number, got {value!r}")):
            Hypothesis(measure=measure, **{field: value})

    def test_numeric_string_null_and_level_are_read(self):
        """PyYAML reads an unquoted 1e-3 as the string "1e-3", so a
        numeric string is taken as the number it spells."""
        h = Hypothesis(null_value="1e-3", level="0.9")
        assert (h.null_value, h.level) == (0.001, 0.9)

    @pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
    def test_critical_values_computed_once(self, level):
        """The quantiles are the chi-square-1 and normal ones, and stay
        on the hypothesis after the first use."""
        h = Hypothesis(measure="difference", level=level)
        assert h.chi2_quantile == pytest.approx(chi2.ppf(level, 1),
                                                rel=1e-14)
        assert h.z_quantile == pytest.approx(norm.ppf(0.5 + level / 2),
                                             rel=1e-14)
        assert {"chi2_quantile", "z_quantile"} <= set(vars(h))


def _diff_variance(sigma, n):
    """Plug-in variance of the difference, as a difference test's se**2."""
    mu, v = _estimate([0.0, 0.0], sigma, n)
    return run_test(mu, v, Hypothesis(), "wald").se ** 2


class TestEffectDiffVariance:
    """Plug-in variance of the difference."""

    def test_matches_frozen_value(self):
        assert abs(_diff_variance(fv.SIGMA_I, 20) - fv.SD2) < 1e-14

    def test_simple_diagonal_case(self):
        """Sigma = 0.01 I gives Var(mu2 - mu1) = 0.02."""
        assert _diff_variance(np.eye(2) * 0.01, 100) == pytest.approx(
            0.02, abs=1e-15)

    def test_negative_value_clipped_to_zero(self):
        """The cellwise estimator can produce a negative quadratic form."""
        assert _diff_variance([[0.01, 0.02], [0.02, 0.01]], 100) == 0.0


@pytest.fixture(scope="module")
def fixture_mu_v():
    return _estimate(fv.MU, fv.SIGMA_I, 20)


class TestFrozenInference:
    """All inference scalars against the brute-force oracle's output."""

    def test_wald_difference(self, fixture_mu_v):
        mu, v = fixture_mu_v
        h = Hypothesis(measure="difference", sidedness="greater",
                       level=fv.LEVEL)
        res = wald_test_diff(mu, v, h)
        assert res.statistic == pytest.approx(fv.WALD_CHI2, abs=1e-12)
        assert res.p_value == pytest.approx(fv.WALD_P1, abs=1e-12)
        np.testing.assert_allclose(res.ci, fv.WALD_CI, atol=1e-12)
        assert res.estimate == pytest.approx(fv.MU[1] - fv.MU[0], abs=1e-15)
        assert res.distribution == "chi-square-1"

    def test_score_difference(self, fixture_mu_v):
        mu, v = fixture_mu_v
        h = Hypothesis(measure="difference", sidedness="greater",
                       level=fv.LEVEL)
        res = score_test_diff(mu, v, h)
        assert res.statistic == pytest.approx(fv.Q_D, abs=1e-12)
        assert res.p_value == pytest.approx(fv.SCORE_P1, abs=1e-12)
        np.testing.assert_allclose(res.ci, fv.SCORE_CI, atol=1e-12)

    def test_wald_ratio(self, fixture_mu_v):
        mu, v = fixture_mu_v
        h = Hypothesis(measure="ratio", null_value=1.0, level=fv.LEVEL)
        res = wald_test_ratio(mu, v, h)
        assert res.estimate == pytest.approx(fv.RATIO, abs=1e-12)
        assert res.statistic == pytest.approx(fv.WALD_RATIO_Z, abs=1e-12)
        np.testing.assert_allclose(res.ci, fv.WALD_RATIO_CI, atol=1e-12)
        assert res.meta["scale"] == "log"
        assert res.distribution == "standard-normal"

    def test_score_ratio(self, fixture_mu_v):
        mu, v = fixture_mu_v
        h = Hypothesis(measure="ratio", null_value=1.0, level=fv.LEVEL)
        res = score_test_ratio(mu, v, h)
        assert res.statistic == pytest.approx(fv.Q_R, abs=1e-12)
        np.testing.assert_allclose(res.ci, fv.RATIO_SCORE_CI, atol=1e-12)

    def test_ratio_statistic_at_one_equals_difference_statistic_at_zero(
            self, fixture_mu_v):
        """At nulls (1, 0) the two score statistics are algebraically the
        same quadratic form, a useful cross-check of both formulas."""
        assert fv.Q_R == pytest.approx(fv.Q_D, abs=1e-12)
        mu, v = fixture_mu_v
        rd = score_test_diff(mu, v, Hypothesis(measure="difference"))
        rr = score_test_ratio(mu, v, Hypothesis(measure="ratio",
                                                null_value=1.0))
        assert rd.statistic == pytest.approx(rr.statistic, abs=1e-12)


class TestWorkedExamples:
    """Hand-checkable numbers from the closed forms."""

    def test_score_statistic_worked_example(self):
        """diff 0.3, variance 0.01, n 100: 0.09 / (0.01 + 0.0009)."""
        mu, v = _estimate([0.2, 0.5], [[0.005, 0.0], [0.0, 0.005]], 100)
        res = score_test_diff(mu, v, Hypothesis(measure="difference"))
        assert res.statistic == pytest.approx(0.09 / 0.0109, abs=1e-12)
        assert res.statistic == pytest.approx(8.256880733944953, abs=1e-10)

    def test_score_halfwidth_inflation_factor(self):
        """At level 0.95, n = 100 the score half-width is the standard
        error times sqrt(c / (1 - c/100)) ~ 1.99873, slightly wider than
        the Wald 1.95996."""
        mu, v = _estimate([0.4, 0.5], [[0.005, 0.0], [0.0, 0.005]], 100)
        res = score_test_diff(mu, v, Hypothesis(measure="difference"))
        c = chi2.ppf(0.95, 1)
        factor = np.sqrt(c / (1 - c / 100))
        assert factor == pytest.approx(1.99873, abs=5e-6)
        half = (res.ci[1] - res.ci[0]) / 2
        assert half == pytest.approx(np.sqrt(0.01) * factor, abs=1e-12)

    def test_wald_ratio_log_variance_worked_example(self):
        """Equal means 0.5 with variances 0.0025 give log-scale variance
        0.0025/0.25 + 0.0025/0.25 = 0.02."""
        mu, v = _estimate([0.5, 0.5], [[0.0025, 0.0], [0.0, 0.0025]], 100)
        res = wald_test_ratio(mu, v, Hypothesis(measure="ratio",
                                                null_value=1.0))
        assert res.se == pytest.approx(np.sqrt(0.02), abs=1e-12)
        assert res.statistic == 0.0


class TestDominance:
    """Score-vs-Wald orderings that hold for every dataset."""

    def test_score_statistic_below_wald_and_interval_contains(self):
        """Away from the null the score statistic is strictly smaller and
        its interval strictly wider, both driven by the extra
        (estimate - null)^2 / n in the denominator."""
        rng = np.random.default_rng(71)
        h = Hypothesis(measure="difference")
        for _ in range(200):
            n = int(rng.integers(10, 500))
            m = rng.uniform(0.05, 0.95, size=2)
            A = rng.normal(size=(2, 2)) * 0.1
            sigma = A @ A.T / n + np.eye(2) * 1e-6
            mu, v = _estimate(m, sigma, n)
            wald = wald_test_diff(mu, v, h)
            if abs(wald.estimate) < 1e-12:
                continue
            try:
                score = score_test_diff(mu, v, h)
            except IntervalUndefinedError:
                continue
            assert score.statistic < wald.statistic
            assert score.ci[0] < wald.ci[0]
            assert score.ci[1] > wald.ci[1]

    def test_score_p_value_never_smaller(self):
        rng = np.random.default_rng(73)
        h = Hypothesis(measure="difference")
        for _ in range(100):
            n = int(rng.integers(10, 300))
            m = rng.uniform(0.1, 0.9, size=2)
            A = rng.normal(size=(2, 2)) * 0.1
            sigma = A @ A.T / n + np.eye(2) * 1e-6
            mu, v = _estimate(m, sigma, n)
            wald = wald_test_diff(mu, v, h)
            try:
                score = score_test_diff(mu, v, h)
            except IntervalUndefinedError as err:
                score = err.result
            assert score.p_value >= wald.p_value


class TestIntervalInversion:
    """Score intervals invert the score test: testing at an endpoint
    gives a two-sided p-value of exactly 1 - level."""

    def test_difference_endpoints(self):
        mu, v = _estimate(fv.MU, fv.SIGMA_I, 20)
        res = score_test_diff(mu, v, Hypothesis(measure="difference"))
        for endpoint in res.ci:
            h = Hypothesis(measure="difference", null_value=endpoint)
            at = score_test_diff(mu, v, h)
            assert at.p_value == pytest.approx(1 - fv.LEVEL, abs=1e-8)
            assert at.statistic == pytest.approx(chi2.ppf(fv.LEVEL, 1),
                                                 abs=1e-8)

    def test_ratio_endpoints(self):
        mu, v = _estimate(fv.MU, fv.SIGMA_I, 20)
        res = score_test_ratio(mu, v, Hypothesis(measure="ratio",
                                                 null_value=1.0))
        for endpoint in res.ci:
            assert endpoint > 0.0
            h = Hypothesis(measure="ratio", null_value=endpoint)
            at = score_test_ratio(mu, v, h)
            assert at.p_value == pytest.approx(1 - fv.LEVEL, abs=1e-8)

    def test_wald_difference_endpoints(self):
        """The Wald interval inverts the Wald test the same way."""
        mu, v = _estimate(fv.MU, fv.SIGMA_I, 20)
        res = wald_test_diff(mu, v, Hypothesis(measure="difference"))
        for endpoint in res.ci:
            h = Hypothesis(measure="difference", null_value=endpoint)
            at = wald_test_diff(mu, v, h)
            assert at.p_value == pytest.approx(1 - fv.LEVEL, abs=1e-8)


class TestDegenerateCases:
    """Zero variance, zero deviation, and too-small samples."""

    def test_zero_deviation_gives_zero_statistic(self):
        mu, v = _estimate([0.4, 0.4], np.eye(2) * 0.001, 100)
        h = Hypothesis(measure="difference")
        assert wald_test_diff(mu, v, h).statistic == 0.0
        assert wald_test_diff(mu, v, h).p_value == 1.0
        assert score_test_diff(mu, v, h).statistic == 0.0
        hr = Hypothesis(measure="ratio", null_value=1.0)
        assert wald_test_ratio(mu, v, hr).statistic == 0.0
        assert score_test_ratio(mu, v, hr).statistic == 0.0

    def test_zero_variance_wald_is_infinite(self):
        mu, v = _estimate([0.3, 0.5], np.zeros((2, 2)), 100)
        res = wald_test_diff(mu, v, Hypothesis(measure="difference"))
        assert np.isinf(res.statistic)
        assert res.p_value == 0.0

    def test_zero_variance_score_statistic_is_n(self):
        """With sigma = 0 the score denominator is dev^2/n, so the
        statistic hits its ceiling n and the interval collapses to a
        point."""
        mu, v = _estimate([0.3, 0.5], np.zeros((2, 2)), 100)
        res = score_test_diff(mu, v, Hypothesis(measure="difference"))
        assert res.statistic == pytest.approx(100.0, abs=1e-9)
        assert res.ci[0] == pytest.approx(res.estimate, abs=1e-15)
        assert res.ci[1] == pytest.approx(res.estimate, abs=1e-15)

    def test_score_statistic_bounded_by_n(self):
        rng = np.random.default_rng(79)
        h = Hypothesis(measure="difference")
        for _ in range(50):
            n = int(rng.integers(5, 200))
            m = rng.uniform(0.05, 0.95, size=2)
            A = rng.normal(size=(2, 2)) * 0.2
            mu, v = _estimate(m, A @ A.T / n, n)
            try:
                res = score_test_diff(mu, v, h)
            except IntervalUndefinedError as err:
                res = err.result
            assert res.statistic <= n + 1e-9

    def test_small_n_difference_interval_undefined(self):
        """n must exceed the chi-square critical value (3.84 at 0.95)."""
        mu, v = _estimate([0.3, 0.6], np.eye(2) * 0.01, 3)
        with pytest.raises(IntervalUndefinedError) as exc:
            score_test_diff(mu, v, Hypothesis(measure="difference"))
        err = exc.value
        assert err.result.ci is None
        assert np.isfinite(err.result.statistic)
        assert 0.0 <= err.result.p_value <= 1.0
        assert err.diagnostics["n"] == 3
        assert err.diagnostics["critical"] == pytest.approx(
            chi2.ppf(0.95, 1), abs=1e-12)

    def test_ratio_zero_variance_degenerates(self):
        """sigma = 0 drives the ratio quadratic to a = b = 1, so the
        discriminant vanishes and no interval exists."""
        mu, v = _estimate([0.3, 0.5], np.zeros((2, 2)), 100)
        with pytest.raises(IntervalUndefinedError) as exc:
            score_test_ratio(mu, v, Hypothesis(measure="ratio",
                                               null_value=1.0))
        d = exc.value.diagnostics
        assert d["a"] == pytest.approx(1.0, abs=1e-12)
        assert d["b"] == pytest.approx(1.0, abs=1e-12)
        assert d["discriminant"] == pytest.approx(0.0, abs=1e-12)

    def test_ratio_interval_assumption_failure(self):
        """When c (Sigma_11/mu_1^2 + 1/n) reaches 1 the quadratic flips
        sign and the error reports the failing denominator."""
        mu, v = _estimate([0.1, 0.5], [[0.01, 0.0], [0.0, 0.01]], 50)
        # c * (0.01 / 0.01 + 1/50) = 3.84 * 1.02 > 1
        with pytest.raises(IntervalUndefinedError) as exc:
            score_test_ratio(mu, v, Hypothesis(measure="ratio",
                                               null_value=1.0))
        assert exc.value.diagnostics["denominator"] <= 0.0
        assert exc.value.result.statistic >= 0.0

    def test_ratio_requires_positive_means(self):
        h = Hypothesis(measure="ratio", null_value=1.0)
        mu, v = _estimate([-0.1, 0.5], np.eye(2) * 0.01, 50)
        with pytest.raises(DataError):
            wald_test_ratio(mu, v, h)
        with pytest.raises(DataError):
            score_test_ratio(mu, v, h)


class TestSidedness:
    """One-sided p-values from the signed root of the statistic."""

    def test_directions_partition_for_positive_deviation(self):
        mu, v = _estimate(fv.MU, fv.SIGMA_I, 20)
        base = dict(measure="difference")
        p2 = wald_test_diff(mu, v, Hypothesis(**base)).p_value
        pg = wald_test_diff(mu, v, Hypothesis(**base,
                                              sidedness="greater")).p_value
        pl = wald_test_diff(mu, v, Hypothesis(**base,
                                              sidedness="less")).p_value
        assert pg + pl == pytest.approx(1.0, abs=1e-12)
        assert pg < 0.5 < pl  # estimate is above the null here
        assert p2 == pytest.approx(2 * pg, abs=1e-12)

    def test_greater_favors_positive_deviation(self):
        mu_up, v = _estimate([0.3, 0.5], np.eye(2) * 0.005, 100)
        mu_dn, _ = _estimate([0.5, 0.3], np.eye(2) * 0.005, 100)
        h = Hypothesis(measure="difference", sidedness="greater")
        assert score_test_diff(mu_up, v, h).p_value < 0.05
        assert score_test_diff(mu_dn, v, h).p_value > 0.95

    def test_ratio_one_sided_sign_follows_mu2_minus_null_times_mu1(self):
        """For the ratio the direction comes from mu_2 - d0 mu_1."""
        mu, v = _estimate([0.5, 0.4], np.eye(2) * 0.002, 100)
        h = Hypothesis(measure="ratio", null_value=1.0,
                       sidedness="greater")
        res = score_test_ratio(mu, v, h)
        assert res.p_value > 0.5  # ratio below the null
        h2 = Hypothesis(measure="ratio", null_value=1.0, sidedness="less")
        res2 = score_test_ratio(mu, v, h2)
        assert res2.p_value < 0.5
        assert res.p_value + res2.p_value == pytest.approx(1.0, abs=1e-12)

    def test_wald_ratio_one_sided_uses_log_scale_sign(self):
        mu, v = _estimate([0.4, 0.6], np.eye(2) * 0.002, 100)
        h = Hypothesis(measure="ratio", null_value=1.0,
                       sidedness="greater")
        res = wald_test_ratio(mu, v, h)
        assert res.p_value == pytest.approx(float(norm.sf(res.statistic)),
                                            abs=1e-14)


class TestResultShape:
    """Serialization and metadata of a single test result."""

    def test_to_dict_round_trip(self):
        mu, v = _estimate(fv.MU, fv.SIGMA_I, 20)
        res = wald_test_diff(mu, v, Hypothesis(measure="difference"))
        d = res.to_dict()
        assert d["method"] == "wald"
        assert d["measure"] == "difference"
        assert d["ci"] == [res.ci[0], res.ci[1]]
        assert d["variance"] == {"estimator": "I", "correction": "HC0"}
        assert d["n"] == 20
        assert isinstance(d["meta"], dict)

    def test_undefined_interval_serializes_with_null_ci(self):
        mu, v = _estimate([0.3, 0.6], np.eye(2) * 0.01, 3)
        with pytest.raises(IntervalUndefinedError) as exc:
            score_test_diff(mu, v, Hypothesis(measure="difference"))
        assert exc.value.result.to_dict()["ci"] is None


class TestAnalyzeTrial:
    """The composed fit -> standardize -> variance -> test pipeline."""

    def test_fixture_end_to_end_matches_frozen_values(self, fixture_data):
        h = Hypothesis(measure="difference", sidedness="greater")
        res = analyze_trial(fixture_data,
                            ModelSpec(family="bernoulli-logit",
                                      covariates=("w1",)), h)
        assert isinstance(res, AnalysisResult)
        np.testing.assert_allclose(res.mu.mu, fv.MU, atol=1e-10)
        np.testing.assert_allclose(res.variance.sigma, fv.SIGMA_I,
                                   atol=1e-12)
        assert res.tests["wald"].statistic == pytest.approx(fv.WALD_CHI2,
                                                            abs=1e-10)
        assert res.tests["score"].statistic == pytest.approx(fv.Q_D,
                                                             abs=1e-10)
        np.testing.assert_allclose(res.tests["score"].ci, fv.SCORE_CI,
                                   atol=1e-10)
        assert res.undefined_intervals == {}

    def test_estimator_selection(self, fixture_data):
        h = Hypothesis(measure="difference")
        spec = ModelSpec(family="bernoulli-logit", covariates=("w1",))
        res2 = analyze_trial(fixture_data, spec, h, estimator="II")
        np.testing.assert_allclose(res2.variance.sigma, fv.SIGMA_II,
                                   atol=1e-12)
        res3 = analyze_trial(fixture_data, spec, h, estimator="III")
        np.testing.assert_allclose(res3.variance.sigma, fv.SIGMA_III,
                                   atol=1e-12)
        with pytest.raises(ValueError):
            analyze_trial(fixture_data, spec, h, estimator="IV")

    def test_correction_flows_through(self, fixture_data):
        h = Hypothesis(measure="difference")
        spec = ModelSpec(family="bernoulli-logit", covariates=("w1",))
        res = analyze_trial(fixture_data, spec, h, correction="HC1")
        np.testing.assert_allclose(res.variance.sigma,
                                   np.asarray(fv.SIGMA_I) * 20 / (20 - 3),
                                   atol=1e-12)
        assert res.tests["wald"].variance_tag == ("I", "HC1")

    def test_bad_method_rejected(self, fixture_data):
        h = Hypothesis(measure="difference")
        spec = ModelSpec(family="bernoulli-logit", covariates=("w1",))
        with pytest.raises(ValueError):
            analyze_trial(fixture_data, spec, h, methods=("wald", "lrt"))

    def test_undefined_interval_recorded_not_raised(self):
        """A 3-subject trial keeps the score statistic but records why
        the interval is missing."""
        data = TrialDataset(outcome=np.array([0.2, 1.1, 0.8]),
                            arm=np.array([1, 2, 2]),
                            covariates=np.empty((3, 0)),
                            covariate_names=())
        h = Hypothesis(measure="difference")
        res = analyze_trial(data, ModelSpec(family="gaussian-identity"), h)
        assert "score" in res.undefined_intervals
        assert res.tests["score"].ci is None
        assert np.isfinite(res.tests["score"].statistic)
        assert res.tests["wald"].ci is not None
        with pytest.raises(IntervalUndefinedError) as exc:
            run_test(res.mu, res.variance, h, "score")
        assert res.undefined_intervals["score"] == str(exc.value)
        assert res.tests["score"] == exc.value.result


class TestRunTest:
    """The single test dispatch."""

    @pytest.mark.parametrize("measure, test, func", [
        ("difference", "wald", wald_test_diff),
        ("difference", "score", score_test_diff),
        ("ratio", "wald", wald_test_ratio),
        ("ratio", "score", score_test_ratio)])
    def test_dispatches_on_measure_and_test(self, fixture_mu_v, measure,
                                            test, func):
        mu, v = fixture_mu_v
        h = Hypothesis(measure=measure,
                       null_value=1.0 if measure == "ratio" else 0.0)
        assert run_test(mu, v, h, test) == func(mu, v, h)

    def test_unknown_test_rejected(self, fixture_mu_v):
        mu, v = fixture_mu_v
        with pytest.raises(ValueError):
            run_test(mu, v, Hypothesis(measure="difference"), "lrt")

    @pytest.mark.parametrize("func, other", [
        (wald_test_diff, "ratio"), (score_test_diff, "ratio"),
        (wald_test_ratio, "difference"), (score_test_ratio, "difference")])
    def test_named_tests_reject_the_other_measure(self, fixture_mu_v, func,
                                                  other):
        """A named test is for one measure: a hypothesis about the other
        is refused, not tested at its null value."""
        mu, v = fixture_mu_v
        with pytest.raises(ValueError) as exc:
            func(mu, v, Hypothesis(measure=other))
        assert "difference" in str(exc.value)
        assert "ratio" in str(exc.value)


class TestUnadjustedAnalysis:
    """Arm-means analysis through the same machinery."""

    def test_matches_arm_only_pipeline(self, fixture_data):
        h = Hypothesis(measure="difference", sidedness="greater")
        short = unadjusted_analysis(fixture_data, h, method="score")
        full = analyze_trial(fixture_data, ModelSpec(family="bernoulli-logit"),
                             h, methods=("score",)).tests["score"]
        assert short.statistic == pytest.approx(full.statistic, abs=1e-14)
        assert short.ci == pytest.approx(full.ci, abs=1e-14)

    def test_estimate_is_raw_difference_of_arm_means(self, fixture_data):
        h = Hypothesis(measure="difference")
        res = unadjusted_analysis(fixture_data, h)
        y, arm = fixture_data.outcome, fixture_data.arm
        raw = y[arm == 2].mean() - y[arm == 1].mean()
        assert res.estimate == pytest.approx(raw, abs=1e-12)

    def test_family_choice_does_not_change_numbers(self, fixture_data):
        """Arm-only designs give identical arm means and influence rows
        under every canonical family."""
        h = Hypothesis(measure="difference")
        a, b = (analyze_trial(fixture_data, ModelSpec(family=f), h,
                              methods=("wald",)).tests["wald"]
                for f in ("bernoulli-logit", "gaussian-identity"))
        assert a.estimate == pytest.approx(b.estimate, abs=1e-12)
        assert a.se == pytest.approx(b.se, abs=1e-12)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-10)

    def test_auto_family_by_outcome_type(self):
        rng = np.random.default_rng(83)
        data = random_trial(rng, n=30, family="gaussian-identity", q=1)
        res = unadjusted_analysis(data, Hypothesis(measure="difference"))
        assert np.isfinite(res.statistic)


@st.composite
def mean_batches(draw):
    """(mu (B, 2), Sigma (B, 2, 2), n): arm means in (0, 1) and positive
    definite covariances of order 1/n, as fits of n subjects give."""
    B = draw(st.integers(1, 12))
    n = draw(st.integers(10, 5000))
    unit = st.floats(0.02, 0.98)
    mu = np.array(draw(st.lists(st.tuples(unit, unit), min_size=B,
                                max_size=B)))
    cells = np.array(draw(st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(-1.0, 1.0),
                  st.floats(0.05, 1.0)), min_size=B, max_size=B)))
    a, c, d = cells.T  # Sigma = L L' / n, L lower triangular [[a, 0], [c, d]]
    sigma = np.stack([np.stack([a * a, a * c], -1),
                      np.stack([a * c, c * c + d * d], -1)], -2) / n
    return mu, sigma, n


@st.composite
def edge_batches(draw):
    """(mu (B, 2), Sigma (B, 2, 2), n) that also reach the rows where a
    test fails: n from 2 (at most the critical value), zero and negative
    arm means, and covariances from zero (a ratio discriminant of 0) to
    wide (a ratio denominator below 0) beside those of order 1/n."""
    B = draw(st.integers(1, 12))
    n = draw(st.one_of(st.integers(2, 12), st.integers(13, 5000)))
    arm = st.one_of(st.floats(0.02, 0.98), st.sampled_from((0.0, -0.3)))
    mu = np.array(draw(st.lists(st.tuples(arm, arm), min_size=B,
                                max_size=B)))
    cells = np.array(draw(st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(-1.0, 1.0),
                  st.floats(0.05, 1.0), st.sampled_from((0.0, 1.0, 30.0))),
        min_size=B, max_size=B)))
    a, c, d, scale = cells.T
    sigma = np.stack([np.stack([a * a, a * c], -1),
                      np.stack([a * c, c * c + d * d], -1)], -2) \
        * scale[:, None, None] / n
    return mu, sigma, n


hypotheses = st.builds(
    Hypothesis, measure=st.sampled_from(("difference", "ratio")),
    level=st.sampled_from((0.8, 0.9, 0.95, 0.99)),
    sidedness=st.sampled_from(("two-sided", "greater", "less")))


class TestBatchKernels:
    """The batch-axis test kernels: the paper's dominance row by row, and
    the scalar tests as their batch-of-one rows."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mean_batches(), st.floats(-0.5, 0.5),
           st.sampled_from((0.8, 0.9, 0.95, 0.99)))
    def test_score_within_wald_row_by_row(self, batch, null, level):
        mu, sigma, n = batch
        h = Hypothesis(measure="difference", null_value=null, level=level)
        wald = run_test_batch(mu, sigma, n, h, "wald")
        score = run_test_batch(mu, sigma, n, h, "score")
        assert not wald["failed"].any() and not score["failed"].any()
        assert (score["statistic"] <= wald["statistic"]).all()
        assert (score["lo"] <= wald["lo"]).all()
        assert (score["hi"] >= wald["hi"]).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edge_batches(), hypotheses)
    def test_scalar_tests_are_batch_rows(self, batch, h):
        """run_test on one fit is its batch row: DataError exactly on the
        non-positive rows, IntervalUndefinedError (a result with no
        interval) exactly on the other undefined ones, and the same
        numbers and interval everywhere else."""
        mu, sigma, n = batch
        none = np.zeros(len(mu), dtype=bool)
        for test in TESTS:
            cols = run_test_batch(mu, sigma, n, h, test)
            nonpositive = cols.get("nonpositive", none)
            undefined = cols.get("undefined", none) & ~nonpositive
            np.testing.assert_array_equal(cols["failed"],
                                          nonpositive | undefined)
            for b in range(len(mu)):
                m, v = _estimate(mu[b], sigma[b], n)
                if nonpositive[b]:
                    with pytest.raises(DataError):
                        run_test(m, v, h, test)
                    continue
                try:
                    r = run_test(m, v, h, test)
                except IntervalUndefinedError as err:
                    assert undefined[b]
                    r = err.result
                    assert r.ci is None
                else:
                    assert not undefined[b]
                    assert r.ci == (cols["lo"][b], cols["hi"][b])
                np.testing.assert_array_equal(
                    (r.estimate, r.statistic, r.p_value),
                    (cols["estimate"][b], cols["statistic"][b],
                     _p_values(cols["dev"][b], cols["chi2"][b],
                               h.sidedness)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edge_batches(), hypotheses)
    def test_reject_is_the_p_value_at_the_level(self, batch, h):
        """``reject`` (what run_oc tallies) is the row's p <= 1 - level,
        half that one-sided."""
        mu, sigma, n = batch
        thr = (1.0 - h.level) / 2.0 if h.sidedness != "two-sided" \
            else 1.0 - h.level
        for test in TESTS:
            cols = run_test_batch(mu, sigma, n, h, test)
            assert "p_value" not in cols
            np.testing.assert_array_equal(
                cols["reject"],
                _p_values(cols["dev"], cols["chi2"], h.sidedness) <= thr)


def _p_values(dev, chi2, sidedness="two-sided"):
    """The scalar ``inference._p_value`` at each (dev, chi2) pair."""
    dev, chi2 = np.broadcast_arrays(dev, chi2)
    return np.array([inference._p_value(d, c, sidedness)
                     for d, c in zip(dev.ravel().tolist(),
                                     chi2.ravel().tolist())]
                    ).reshape(chi2.shape)


def _rel_err(got, want):
    """|got / want - 1| where want is a normal number, else 0."""
    normal = np.abs(want) >= np.finfo(float).tiny
    return np.where(normal, np.abs(got / np.where(normal, want, 1.0) - 1.0),
                    0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTails:
    """The scalar p-value against scipy.special, and its exact edges.

    erfc underflows past a ~ 26.6 (a^2 > 709.78 in cephes); scipy's values
    between 26.55 and 26.64 are subnormal, and the relative error is
    bounded only where scipy's value is a normal number.
    """

    a = np.concatenate([np.linspace(0.0, 27.0, 270_001),
                        np.geomspace(5e-324, 27.0, 20_001)])

    def test_chi_square_tail_matches_chdtrc(self):
        """erfc(sqrt(x / 2)) is chi-square-1's upper tail: within 1e-13
        relative of scipy's chdtrc on [0, 1e3], 1 at and below 0, 0 at
        infinity, NaN for NaN."""
        x = np.concatenate([np.linspace(0.0, 1e3, 100_001),
                            np.geomspace(1e-300, 1e3, 20_001)])
        np.testing.assert_allclose(_p_values(1.0, x), chdtrc(1, x),
                                   rtol=1e-13, atol=0)
        edge = _p_values(1.0, [-np.inf, -1.0, -0.0, 0.0, np.inf, np.nan])
        np.testing.assert_array_equal(edge, [1, 1, 1, 1, 0, np.nan])
        assert inference._p_value(1.0, np.float64(-3.0), "two-sided") == 1.0

    def test_erfc_matches_scipy(self):
        """The two-sided p-value of 2 a^2 is erfc(a), the square taken
        as cephes takes it."""
        a = self.a
        got = _p_values(1.0, 2.0 * (a * a))
        assert _rel_err(got, erfc(a)).max() <= 3e-15
        # wherever scipy's value is not normal, ours is not either
        assert (got[erfc(a) < np.finfo(float).tiny]
                < np.finfo(float).tiny).all()

    def test_erfc_edges(self):
        a = np.array([0.0, -0.0, 5e-324, 1e-17, 27.3, 30.0, 1e10, 1e300,
                      np.inf, np.nan])
        with np.errstate(over="ignore"):
            chi2 = 2.0 * (a * a)
        np.testing.assert_array_equal(_p_values(1.0, chi2),
                                      [1, 1, 1, 1, 0, 0, 0, 0, 0, np.nan])
        assert inference._p_value(1.0, np.float64(0.0), "two-sided") == 1.0

    def test_normal_tail_matches_ndtr(self):
        """The one-sided p-values are ndtr(-z) ("greater") and ndtr(z)
        ("less") of the deviate z, given z^2 as the ratio-Wald kernel forms
        it.  Both sides form exp(-z^2 / 2) from a rounded square, so they
        may differ by a few ulps times z^2."""
        z = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                            np.geomspace(1e-300, 40.0, 10_001),
                            -np.geomspace(1e-300, 40.0, 10_001)])
        chi2 = np.square(np.minimum(np.abs(z), 40.0))
        bound = 4e-15 + 4e-16 * z * z
        for side, want in (("greater", ndtr(-z)), ("less", ndtr(z))):
            got = _p_values(z, chi2, side)
            assert (_rel_err(got, want) <= bound).all(), side

    def test_normal_tail_edges(self):
        z = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf,
                      -np.inf, np.nan])
        chi2 = np.square(np.minimum(np.abs(z), 40.0))
        np.testing.assert_array_equal(
            _p_values(z, chi2, "greater"),
            [0.5, 0.5, 0.5, 0.5, 0, 1, 0, 1, np.nan])
        np.testing.assert_array_equal(
            _p_values(z, chi2, "less"),
            [0.5, 0.5, 0.5, 0.5, 1, 0, 1, 0, np.nan])

    def test_far_ratio_wald_tail_is_silent(self):
        """A near-zero variance puts the ratio Wald deviate past 1e154,
        where its square would overflow: the p-values are 0 and 1, with
        no warning."""
        mu, sigma = np.array([0.30, 0.45]), 1e-312 * np.eye(2)
        for side, p in (("greater", 0.0), ("less", 1.0), ("two-sided", 0.0)):
            h = Hypothesis(measure="ratio", sidedness=side)
            r = run_test(*_estimate(mu, sigma, 50), h, "wald")
            assert r.statistic > 1e155
            assert r.p_value == p
            assert run_test_batch(mu, sigma, 50, h, "wald")["reject"] \
                == (side != "less")

    def test_chi_square_tail_matches_scipy_erfc(self):
        """erfc(sqrt(x / 2)) from scipy rounds the square root first, so it
        may be off by x / 2 ulps; past x ~ 1490 both are 0."""
        x = np.concatenate([np.linspace(0.0, 1500.0, 150_001),
                            np.geomspace(5e-324, 1500.0, 20_001)])
        want = erfc(np.sqrt(x / 2.0))
        got = _p_values(1.0, x)
        assert (_rel_err(got, want) <= 4e-15 + 2.5e-16 * x).all()
        edge = _p_values(1.0, [-1e300, -0.0, 5e-324, 1500.0, 1e300, np.inf,
                               np.nan])
        np.testing.assert_array_equal(edge, [1, 1, 1, 0, 0, 0, np.nan])
