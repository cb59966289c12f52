"""Tests for hypothesis tests, intervals, and the analysis pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2, norm

import frozen_values as fv
from conftest import FIXTURE_SCHEMA, random_trial
from gscore import (
    AnalysisResult,
    DataError,
    Hypothesis,
    IntervalUndefinedError,
    ModelSpec,
    MuEstimate,
    TrialDataset,
    VarianceEstimate,
    analyze_trial,
    effect_diff_variance,
    run_test,
    score_test_diff,
    score_test_ratio,
    unadjusted_analysis,
    wald_test_diff,
    wald_test_ratio,
)


def _estimate(mu, sigma, n):
    """Bundle plain numbers into the pipeline's value types."""
    return (MuEstimate(mu=np.asarray(mu, dtype=float), n=n),
            VarianceEstimate(sigma=np.asarray(sigma, dtype=float),
                             estimator="I", correction="HC0", n=n))


class TestHypothesis:
    """Validation of the test specification."""

    def test_defaults(self):
        h = Hypothesis(measure="difference")
        assert h.null_value == 0.0
        assert h.level == 0.95
        assert h.sidedness == "two-sided"

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


class TestEffectDiffVariance:
    """Plug-in variance of the difference."""

    def test_matches_frozen_value(self):
        _, v = _estimate([0.0, 0.0], fv.SIGMA_I, 20)
        assert abs(effect_diff_variance(v) - fv.SD2) < 1e-14

    def test_simple_diagonal_case(self):
        """Sigma = 0.01 I gives Var(mu2 - mu1) = 0.02."""
        _, v = _estimate([0.0, 0.0], np.eye(2) * 0.01, 100)
        assert effect_diff_variance(v) == pytest.approx(0.02, abs=1e-15)

    def test_negative_value_clipped_to_zero(self):
        """The cellwise estimator can produce a negative quadratic form."""
        _, v = _estimate([0.0, 0.0], [[0.01, 0.02], [0.02, 0.01]], 100)
        assert effect_diff_variance(v) == 0.0


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
        a = unadjusted_analysis(fixture_data, h, family="bernoulli-logit")
        b = unadjusted_analysis(fixture_data, h, family="gaussian-identity")
        assert a.estimate == pytest.approx(b.estimate, abs=1e-12)
        assert a.se == pytest.approx(b.se, abs=1e-12)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-10)

    def test_auto_family_by_outcome_type(self):
        rng = np.random.default_rng(83)
        data = random_trial(rng, n=30, family="gaussian-identity", q=1)
        res = unadjusted_analysis(data, Hypothesis(measure="difference"))
        assert np.isfinite(res.statistic)
