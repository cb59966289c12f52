"""Tests for g-computation point estimates and variance estimators."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_trial
from frozen_values import (
    COMP_BETA,
    COMP_COV,
    COMP_CROSS,
    MU,
    SIGMA_I,
    SIGMA_II,
    SIGMA_III,
    SIGMA_STACKED,
)
from gscore import (
    DataError,
    ModelSpec,
    TrialDataset,
    VarianceEstimate,
    apply_correction,
    build_design,
    estimate_mu,
    estimate_variance,
    fit,
    influence_aipw,
    influence_score,
    var_from_influence,
    var_ye,
    variance_decomposition,
)

FAMILIES = ("bernoulli-logit", "poisson-log", "gaussian-identity")


class TestEstimateMu:
    """Counterfactual-mean point estimates."""

    def test_matches_frozen_oracle(self, fixture_fit, fixture_design):
        mu = estimate_mu(fixture_fit, fixture_design)
        np.testing.assert_allclose(mu.mu, MU, atol=1e-10)
        assert mu.n == fixture_design.n
        assert mu.mu1 == mu.mu[0] and mu.mu2 == mu.mu[1]

    def test_bernoulli_mu_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            data = random_trial(rng, n=40, family="bernoulli-logit", q=2)
            spec = ModelSpec(family="bernoulli-logit",
                             covariates=data.covariate_names)
            design = build_design(data, spec)
            mu = estimate_mu(fit(design, data.outcome), design)
            assert 0.0 < mu.mu1 < 1.0
            assert 0.0 < mu.mu2 < 1.0

    def test_arm_only_mu_equals_raw_arm_means(self, fixture_data):
        spec = ModelSpec(family="bernoulli-logit", covariates=())
        design = build_design(fixture_data, spec)
        mu = estimate_mu(fit(design, fixture_data.outcome), design)
        y, arm = fixture_data.outcome, fixture_data.arm
        np.testing.assert_allclose(mu.mu1, y[arm == 1].mean(), atol=1e-12)
        np.testing.assert_allclose(mu.mu2, y[arm == 2].mean(), atol=1e-12)


class TestInfluence:
    """Influence-function matrices underlying estimators I and II."""

    def test_columns_sum_to_zero(self, fixture_fit, fixture_design):
        psi = influence_score(fixture_fit, fixture_design)
        np.testing.assert_allclose(psi.values.sum(axis=0), [0.0, 0.0],
                                   atol=1e-10)
        psi2 = influence_aipw(fixture_fit, fixture_design)
        np.testing.assert_allclose(psi2.values.sum(axis=0), [0.0, 0.0],
                                   atol=1e-10)

    def test_column_sums_zero_across_families(self):
        """Both influence constructions are exactly centered at the fit."""
        rng = np.random.default_rng(23)
        for i in range(15):
            family = FAMILIES[i % 3]
            data = random_trial(rng, n=50, family=family, q=2)
            spec = ModelSpec(family=family, covariates=data.covariate_names)
            design = build_design(data, spec)
            fit_res = fit(design, data.outcome)
            for infl in (influence_score(fit_res, design),
                         influence_aipw(fit_res, design)):
                np.testing.assert_allclose(infl.values.sum(axis=0), 0.0,
                                           atol=1e-8)

    def test_kind_tags(self, fixture_fit, fixture_design):
        assert influence_score(fixture_fit, fixture_design).kind == "score"
        assert influence_aipw(fixture_fit, fixture_design).kind == "aipw"

    def test_aipw_pi_validation(self, fixture_fit, fixture_design):
        with pytest.raises(DataError):
            influence_aipw(fixture_fit, fixture_design, pi=(0.5,))
        with pytest.raises(DataError):
            influence_aipw(fixture_fit, fixture_design, pi=(0.0, 1.0))
        with pytest.raises(DataError):
            influence_aipw(fixture_fit, fixture_design, pi=(0.5, -0.5))

    def test_aipw_fixed_pi_matches_empirical_when_balanced(
            self, fixture_fit, fixture_design):
        """On the 10/10 fixture the empirical shares are exactly (.5, .5)."""
        emp = influence_aipw(fixture_fit, fixture_design)
        fixed = influence_aipw(fixture_fit, fixture_design, pi=(0.5, 0.5))
        np.testing.assert_allclose(emp.values, fixed.values, atol=1e-14)


class TestVarianceEstimators:
    """The three asymptotically equivalent covariance estimators."""

    def test_estimator_i_matches_frozen_oracle(self, fixture_fit,
                                               fixture_design):
        var = var_from_influence(influence_score(fixture_fit, fixture_design))
        np.testing.assert_allclose(var.sigma, SIGMA_I, atol=1e-12)
        assert var.estimator == "I"
        assert var.correction == "HC0"
        assert var.n == fixture_design.n

    def test_estimator_ii_matches_frozen_oracle(self, fixture_fit,
                                                fixture_design):
        var = var_from_influence(influence_aipw(fixture_fit, fixture_design))
        np.testing.assert_allclose(var.sigma, SIGMA_II, atol=1e-12)
        assert var.estimator == "II"

    def test_estimator_iii_matches_frozen_oracle(self, fixture_fit,
                                                 fixture_design):
        var = var_ye(fixture_fit, fixture_design)
        np.testing.assert_allclose(var.sigma, SIGMA_III, atol=1e-12)
        assert var.estimator == "III"

    def test_estimator_i_matches_stacked_sandwich(self, fixture_fit,
                                                  fixture_design):
        """Estimator I equals the mu-block of the full stacked sandwich.

        The joint estimating function stacks the two counterfactual-mean
        equations on top of the score; its block-triangular sandwich
        collapses analytically to the influence form of estimator I.  The
        stacked construction lives only in the test oracle.
        """
        var = var_from_influence(influence_score(fixture_fit, fixture_design))
        np.testing.assert_allclose(var.sigma, SIGMA_STACKED, atol=1e-12)

    def test_stacked_identity_live_on_random_data(self):
        """Re-derive the stacked sandwich on fresh data and compare."""
        from oracle import oracle_stacked_sigma

        rng = np.random.default_rng(37)
        for _ in range(5):
            data = random_trial(rng, n=60, family="bernoulli-logit", q=2)
            spec = ModelSpec(family="bernoulli-logit",
                             covariates=data.covariate_names)
            design = build_design(data, spec)
            fit_res = fit(design, data.outcome)
            var = var_from_influence(influence_score(fit_res, design))
            ref = oracle_stacked_sigma(design.X.copy(), data.outcome,
                                       fit_res.beta)
            np.testing.assert_allclose(var.sigma, ref, atol=1e-12)

    def test_sigma_symmetric_and_psd(self):
        rng = np.random.default_rng(41)
        for i in range(12):
            family = FAMILIES[i % 3]
            data = random_trial(rng, n=60, family=family, q=2)
            spec = ModelSpec(family=family, covariates=data.covariate_names)
            design = build_design(data, spec)
            fit_res = fit(design, data.outcome)
            for sigma in (
                var_from_influence(influence_score(fit_res, design)).sigma,
                var_from_influence(influence_aipw(fit_res, design)).sigma,
            ):
                np.testing.assert_allclose(sigma, sigma.T, atol=1e-15)
                assert np.all(np.linalg.eigvalsh(sigma) > -1e-12)

    def test_arm_only_estimators_i_and_ii_coincide(self, fixture_data):
        """Without covariates the score and augmentation influences agree."""
        spec = ModelSpec(family="bernoulli-logit", covariates=())
        design = build_design(fixture_data, spec)
        fit_res = fit(design, fixture_data.outcome)
        sig1 = var_from_influence(influence_score(fit_res, design)).sigma
        sig2 = var_from_influence(influence_aipw(fit_res, design)).sigma
        np.testing.assert_allclose(sig1, sig2, atol=1e-12)

    def test_arm_only_estimator_iii_closed_form(self, fixture_data):
        """Arm-only fits make the predictions constant within arm, so the
        conditional-moment cells reduce to diag(Var[Y|a] / (n pi_a)) with
        zero off-diagonal."""
        spec = ModelSpec(family="bernoulli-logit", covariates=())
        design = build_design(fixture_data, spec)
        fit_res = fit(design, fixture_data.outcome)
        sigma = var_ye(fit_res, design).sigma
        y, arm, n = fixture_data.outcome, fixture_data.arm, fixture_data.n
        for idx, a in enumerate((1, 2)):
            ya = y[arm == a]
            expected = np.var(ya, ddof=1) / (n * (ya.size / n))
            np.testing.assert_allclose(sigma[idx, idx], expected, atol=1e-12)
        np.testing.assert_allclose(sigma[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(sigma[1, 0], 0.0, atol=1e-12)

    def test_ye_requires_two_per_arm(self):
        rng = np.random.default_rng(5)
        n = 12
        arm = np.array([1] + [2] * (n - 1))
        w = rng.standard_normal(n)
        y = 0.5 * w + rng.standard_normal(n)
        data = TrialDataset(outcome=y, arm=arm, covariates=w[:, None],
                            covariate_names=("w1",))
        spec = ModelSpec(family="gaussian-identity", covariates=("w1",))
        design = build_design(data, spec)
        fit_res = fit(design, data.outcome)
        with pytest.raises(DataError):
            var_ye(fit_res, design)


class TestEstimateVariance:
    """The single estimator dispatch, ending in the correction."""

    @pytest.mark.parametrize("correction", ["HC0", "HC1"])
    @pytest.mark.parametrize("estimator, expected", [
        ("I", SIGMA_I), ("II", SIGMA_II), ("III", SIGMA_III)])
    def test_matches_frozen_oracle(self, fixture_fit, fixture_design,
                                   estimator, expected, correction):
        n, p = fixture_design.n, fixture_design.p
        scale = n / (n - p) if correction == "HC1" else 1.0
        var = estimate_variance(fixture_fit, fixture_design, estimator,
                                correction)
        np.testing.assert_allclose(var.sigma, np.asarray(expected) * scale,
                                   atol=1e-12)
        assert (var.estimator, var.correction) == (estimator, correction)

    def test_unknown_estimator_rejected(self, fixture_fit, fixture_design):
        with pytest.raises(ValueError):
            estimate_variance(fixture_fit, fixture_design, "IV")


class TestVarianceDecomposition:
    """Split of estimator I into beta, covariate, and cross terms."""

    def test_terms_match_frozen_oracle(self, fixture_fit, fixture_design):
        """The frozen beta term is the delta-method image G Sigma_beta G'
        of the coefficient sandwich; the oracle computes it exactly that
        way, so this doubles as the delta-method cross-check."""
        dec = variance_decomposition(fixture_fit, fixture_design, ddof=0)
        np.testing.assert_allclose(dec.beta_term, COMP_BETA, atol=1e-12)
        np.testing.assert_allclose(dec.covariate_term, COMP_COV, atol=1e-12)
        np.testing.assert_allclose(dec.cross_term, COMP_CROSS, atol=1e-12)

    def test_ddof1_total_equals_estimator_i(self):
        """With ddof=1 the three terms sum exactly to estimator I."""
        rng = np.random.default_rng(53)
        for i in range(9):
            family = FAMILIES[i % 3]
            data = random_trial(rng, n=50, family=family, q=2)
            spec = ModelSpec(family=family, covariates=data.covariate_names)
            design = build_design(data, spec)
            fit_res = fit(design, data.outcome)
            sig = var_from_influence(influence_score(fit_res, design)).sigma
            dec = variance_decomposition(fit_res, design, ddof=1)
            np.testing.assert_allclose(dec.total(), sig, atol=1e-10)

    def test_ddof0_total_is_plain_moment(self, fixture_fit, fixture_design):
        """With ddof=0 the total is the n-divisor second moment of the
        influence rows."""
        psi = influence_score(fixture_fit, fixture_design).values
        n = fixture_design.n
        plain = psi.T @ psi / (n * n)
        dec = variance_decomposition(fixture_fit, fixture_design, ddof=0)
        np.testing.assert_allclose(dec.total(), plain, atol=1e-14)

    def test_component_structure(self, fixture_fit, fixture_design):
        dec = variance_decomposition(fixture_fit, fixture_design, ddof=1)
        for term in (dec.beta_term, dec.covariate_term):
            np.testing.assert_allclose(term, term.T, atol=1e-15)
            assert np.all(np.linalg.eigvalsh(term) > -1e-12)
        assert dec.ddof == 1

    def test_bad_ddof_rejected(self, fixture_fit, fixture_design):
        with pytest.raises(ValueError):
            variance_decomposition(fixture_fit, fixture_design, ddof=2)


class TestCorrections:
    """Small-sample rescaling of a variance estimate."""

    @staticmethod
    def _estimate(n=100):
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        return VarianceEstimate(sigma=sigma, estimator="I",
                                correction="HC0", n=n)

    def test_hc0_is_identity(self):
        v = self._estimate()
        out = apply_correction(v, p=5, kind="HC0")
        np.testing.assert_array_equal(out.sigma, v.sigma)
        assert out.correction == "HC0"

    def test_hc1_scales_by_n_over_n_minus_p(self):
        v = self._estimate(n=100)
        out = apply_correction(v, p=5, kind="HC1")
        np.testing.assert_allclose(out.sigma, v.sigma * (100 / 95),
                                   atol=1e-15)
        assert out.correction == "HC1"
        assert out.estimator == "I"

    def test_hc1_requires_n_greater_than_p(self):
        with pytest.raises(ValueError):
            apply_correction(self._estimate(n=5), p=5, kind="HC1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_correction(self._estimate(), p=5, kind="HC3")
