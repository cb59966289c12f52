"""Tests for g-computation point estimates and variance estimators."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    BERNOULLI_LOGIT,
    DataError,
    GScoreError,
    ModelSpec,
    RankDeficiencyError,
    TrialDataset,
    VarianceEstimate,
    apply_correction,
    build_design,
    counterfactual_design,
    estimate_mu,
    estimate_variance,
    fit,
    influence_aipw,
    influence_score,
    var_from_influence,
    var_ye,
    variance_decomposition,
)
from gscore import gcomp, glm
from gscore.dataset import stack_designs
from gscore.gcomp import _mean_gradient, estimate_variance_batch
from gscore.glm import fit_batch, per_matrix

FAMILIES = ("bernoulli-logit", "poisson-log", "gaussian-identity")


class TestEstimateMu:
    """Counterfactual-mean point estimates."""

    def test_matches_frozen_oracle(self, fixture_fit, fixture_design):
        mu = estimate_mu(fixture_fit, fixture_design)
        np.testing.assert_allclose(mu.mu, MU, atol=1e-10)
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

    def test_fit_predicts_counterfactuals_once(self, fixture_data,
                                               fixture_design, monkeypatch):
        """The fit predicts m(beta' X_i(a)) for both arms; the arm means,
        the three variances and the decomposition read those
        predictions instead of calling the family's mean again."""
        calls = []

        def counting_expit(eta):
            calls.append(eta.shape)
            return BERNOULLI_LOGIT.mean(eta)

        monkeypatch.setitem(glm._FAMILIES, BERNOULLI_LOGIT.name,
                            replace(BERNOULLI_LOGIT, mean=counting_expit))
        f = fit(fixture_design, fixture_data.outcome)
        assert calls
        calls.clear()
        estimate_mu(f, fixture_design)
        for estimator in ("I", "II", "III"):
            estimate_variance(f, fixture_design, estimator)
        variance_decomposition(f, fixture_design)
        assert calls == []

    def test_mu_averages_the_counterfactual_array(self, fixture_fit,
                                                  fixture_design):
        """mu is the row means of the fit's one (2, n) prediction array,
        bit for bit."""
        np.testing.assert_array_equal(
            estimate_mu(fixture_fit, fixture_design).mu,
            fixture_fit.counterfactual_means.mean(-1))


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


def _arm_of(size, n=14, seed=5):
    """Gaussian-identity data of n subjects on one covariate, ``size`` of
    them in arm 1 at shuffled positions, with its W1 design."""
    rng = np.random.default_rng(seed)
    arm = rng.permutation([1] * size + [2] * (n - size))
    w = rng.standard_normal(n)
    y = 0.3 * (arm == 2) + 0.5 * w + rng.standard_normal(n)
    data = TrialDataset(outcome=y, arm=arm, covariates=w[:, None],
                        covariate_names=("W1",))
    return data, build_design(data, ModelSpec("gaussian-identity", ("W1",)))


class TestEstimatorIIISmallArms:
    """Estimator III where its within-arm moments have the fewest
    subjects they can: an arm of two."""

    def test_arm_of_two_matches_the_oracle(self):
        """n = 14, one arm of 2: the cells equal the oracle's np.var and
        np.cov(ddof=1) transcriptions of the formulas."""
        from oracle import design, design_setting, oracle_sigma_iii

        data, X = _arm_of(2)
        fitted = fit(X, data.outcome)
        arm, w = data.arm, data.covariates[:, 0]
        np.testing.assert_array_equal(X.X, design(arm, w))
        ref = oracle_sigma_iii(data.outcome, arm, design(arm, w)
                               @ fitted.beta,
                               *(design_setting(arm, w, a) @ fitted.beta
                                 for a in (1, 2)))
        np.testing.assert_allclose(
            estimate_variance(fitted, X, "III").sigma, ref, rtol=0,
            atol=1e-12)

    def test_batch_fails_only_the_row_with_a_one_subject_arm(self):
        """Arms of 2, 1 and 12 subjects in one batch: only the row with a
        one-subject arm fails, with the conditional-moment DataError, and
        the others equal their single-fit estimates."""
        rows = [_arm_of(size) for size in (2, 1, 12)]
        data = [d for d, _ in rows]
        stacked = stack_designs(np.stack([d.arm for d in data]),
                                np.stack([d.covariates for d in data]),
                                ("W1",), rows[0][1].spec)
        fitted, fit_errors = glm.fit_batch(
            stacked, np.stack([d.outcome for d in data]))
        assert fit_errors == {}
        sigma, errors = estimate_variance_batch(fitted, stacked, "III")
        assert list(errors) == [1]
        assert isinstance(errors[1], DataError)
        assert "at least 2 subjects per arm" in str(errors[1])
        for b in (0, 2):
            d, X = rows[b]
            np.testing.assert_array_equal(
                sigma[b], estimate_variance(fit(X, d.outcome), X,
                                            "III").sigma)


class TestSingularBread:
    """Estimator I and the decomposition solve against the bread; an
    exactly singular one is rank deficiency, never NaNs or a bare
    LinAlgError."""

    @pytest.mark.parametrize("bread", ["zeros", "ones"])
    @pytest.mark.parametrize("call", [
        lambda f, d: estimate_variance(f, d, "I"),
        lambda f, d: influence_score(f, d),
        lambda f, d: variance_decomposition(f, d)])
    def test_raises_rank_deficiency(self, fixture_fit, fixture_design,
                                    bread, call):
        p = fixture_design.p
        singular = replace(fixture_fit, bread=getattr(np, bread)((p, p)))
        with pytest.raises(RankDeficiencyError, match="singular"):
            call(singular, fixture_design)


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
        way, so this doubles as the delta-method cross-check.  The frozen
        terms are n-divisor moments: (n-1)/n times the pieces."""
        n = fixture_design.n
        dec = variance_decomposition(fixture_fit, fixture_design)
        np.testing.assert_allclose(dec.beta_term * (n - 1) / n, COMP_BETA,
                                   atol=1e-12)
        np.testing.assert_allclose(dec.covariate_term * (n - 1) / n,
                                   COMP_COV, atol=1e-12)
        np.testing.assert_allclose(dec.cross_term * (n - 1) / n, COMP_CROSS,
                                   atol=1e-12)

    def test_total_equals_estimator_i(self):
        """The three terms sum exactly to estimator I."""
        rng = np.random.default_rng(53)
        for i in range(9):
            family = FAMILIES[i % 3]
            data = random_trial(rng, n=50, family=family, q=2)
            spec = ModelSpec(family=family, covariates=data.covariate_names)
            design = build_design(data, spec)
            fit_res = fit(design, data.outcome)
            sig = var_from_influence(influence_score(fit_res, design)).sigma
            dec = variance_decomposition(fit_res, design)
            np.testing.assert_allclose(dec.total(), sig, atol=1e-10)

    def test_rescaled_total_is_plain_moment(self, fixture_fit,
                                            fixture_design):
        """(n-1)/n times the total is the n-divisor second moment of the
        influence rows."""
        psi = influence_score(fixture_fit, fixture_design).values
        n = fixture_design.n
        plain = psi.T @ psi / (n * n)
        dec = variance_decomposition(fixture_fit, fixture_design)
        np.testing.assert_allclose(dec.total() * (n - 1) / n, plain,
                                   atol=1e-14)

    def test_component_structure(self, fixture_fit, fixture_design):
        dec = variance_decomposition(fixture_fit, fixture_design)
        for term in (dec.beta_term, dec.covariate_term):
            np.testing.assert_allclose(term, term.T, atol=1e-15)
            assert np.all(np.linalg.eigvalsh(term) > -1e-12)

    def test_one_bread_solve(self, fixture_fit, fixture_design, monkeypatch):
        """The decomposition reads estimator I's two influence parts, so
        it solves against the bread once, as estimator I does."""
        calls = []

        def counted(*args):
            calls.append(1)
            return per_matrix(*args)

        monkeypatch.setattr(gcomp, "per_matrix", counted)
        variance_decomposition(fixture_fit, fixture_design)
        assert len(calls) == 1


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


class TestProperties:
    """Identities of the paper's estimators over random trials in all
    three families."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(FAMILIES),
           n=st.integers(20, 150), q=st.integers(0, 3),
           heterogeneous=st.booleans())
    def test_decomposition_sums_to_influence_covariance(
            self, seed, family, n, q, heterogeneous):
        """The pieces sum to estimator I, and (n-1)/n times them to the
        n-divisor covariance of the influence rows over n."""
        data = random_trial(np.random.default_rng(seed), n, family, q)
        design = build_design(data, ModelSpec(
            family, data.covariate_names, heterogeneous))
        try:
            fitted = fit(design, data.outcome)
        except GScoreError:
            assume(False)
        infl = influence_score(fitted, design)
        psi, sigma = infl.values, var_from_influence(infl).sigma
        atol = 1e-12 * np.abs(sigma).max()
        total = variance_decomposition(fitted, design).total()
        np.testing.assert_allclose(total, sigma, rtol=0, atol=atol)
        np.testing.assert_allclose(total * (n - 1) / n,
                                   np.cov(psi.T, bias=True) / n,
                                   rtol=0, atol=atol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 200),
           rate=st.floats(0.05, 0.95))
    def test_arm_only_collapse_on_binary_outcomes(self, seed, n, rate):
        """Arm-only fits of 0/1 outcomes: mu is the raw arm means,
        estimator I equals II, and bernoulli-logit, poisson-log and
        gaussian-identity give the same mu and covariances."""
        rng = np.random.default_rng(seed)
        arm = rng.permutation(np.repeat([1, 2], [n // 2, n - n // 2]))
        y = (rng.random(n) < rate).astype(float)
        # both outcomes in each arm, else logit and poisson arm means sit
        # on the boundary of the family
        assume(all(0.0 < y[arm == a].mean() < 1.0 for a in (1, 2)))
        data = TrialDataset(outcome=y, arm=arm, covariates=np.empty((n, 0)),
                            covariate_names=())
        means = [y[arm == a].mean() for a in (1, 2)]
        per_family = []
        for family in FAMILIES:
            design = build_design(data, ModelSpec(family))
            fitted = fit(design, y)
            mu = estimate_mu(fitted, design).mu
            sigmas = [estimate_variance(fitted, design, est).sigma
                      for est in ("I", "II", "III")]
            np.testing.assert_allclose(mu, means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sigmas[0], sigmas[1], rtol=0,
                                       atol=1e-12 * np.abs(sigmas[0]).max())
            per_family.append((mu, sigmas))
        for mu, sigmas in per_family[1:]:
            np.testing.assert_allclose(mu, per_family[0][0], rtol=1e-12)
            for sigma, first in zip(sigmas, per_family[0][1]):
                np.testing.assert_allclose(sigma, first, rtol=0,
                                           atol=1e-12 * np.abs(first).max())


def _stacked_fit(family, heterogeneous, B=6, n=40, seed=0):
    """fit_batch on B trials of ``family``: row 1 has a lone arm-1
    subject, and row 2's bread is replaced by zeros (singular)."""
    rng = np.random.default_rng(seed)
    arm = rng.permuted(np.tile(np.repeat([1, 2], n // 2), (B, 1)), axis=1)
    arm[1] = 2
    arm[1, 0] = 1
    x = rng.standard_normal((B, n, 2))
    eta = 0.3 * (arm == 2) + 0.5 * x.sum(axis=-1)
    if family == "bernoulli-logit":
        y = (rng.random((B, n)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family == "poisson-log":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = eta + rng.standard_normal((B, n))
    design = stack_designs(arm, x, ("a", "b"), ModelSpec(
        family, ("a", "b"), heterogeneous))
    fitted, _ = fit_batch(design, y)
    bread = fitted.bread.copy()
    bread[2] = 0.0
    return design, replace(fitted, bread=bread)


def _row_of(fitted, design, b):
    """Row b of a stacked fit and design, as a single fit."""
    return (replace(fitted, beta=fitted.beta[b], bread=fitted.bread[b],
                    fitted=fitted.fitted[b], residuals=fitted.residuals[b],
                    converged=bool(fitted.converged[b]),
                    iterations=int(fitted.iterations[b]),
                    score_norm=float(fitted.score_norm[b]),
                    counterfactual_means=fitted.counterfactual_means[b]),
            replace(design, X=design.X[b]))


class TestBatchKernels:
    """estimate_mu and estimate_variance_batch on stacked fits give, row
    by row, what the single-fit functions give on that row's slice of
    the fit, and fail on the same rows with the same error types."""

    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_single_fit_calls(self, family, heterogeneous):
        design, fitted = _stacked_fit(family, heterogeneous)
        B = len(fitted.beta)
        rows = [_row_of(fitted, design, b) for b in range(B)]
        mu = estimate_mu(fitted, design).mu
        for b, (f, d) in enumerate(rows):
            np.testing.assert_allclose(mu[b], estimate_mu(f, d).mu,
                                       rtol=1e-13, atol=0)
        raised = set()
        for estimator in ("I", "II", "III"):
            for correction in ("HC0", "HC1"):
                for pi in (None, (0.4, 0.6)):
                    sigma, errors = estimate_variance_batch(
                        fitted, design, estimator, correction, pi)
                    assert sigma.shape == (B, 2, 2)
                    for b, (f, d) in enumerate(rows):
                        try:
                            single = estimate_variance(f, d, estimator,
                                                       correction, pi).sigma
                        except GScoreError as err:
                            assert type(errors.get(b)) is type(err)
                            raised.add((b, type(err)))
                            continue
                        assert b not in errors
                        np.testing.assert_allclose(
                            sigma[b], single, rtol=0,
                            atol=1e-13 * np.abs(single).max())
        assert (2, RankDeficiencyError) in raised
        assert (1, DataError) in raised


class TestCounterfactualsFromCovariateRows:
    """The counterfactual means and the mean gradient, formed from X's
    covariate rows and the arm slots, equal the products with the
    counterfactual designs that counterfactual_design builds: bit for
    bit under an arm-only model, and otherwise within 1e-14 relative to
    the sum of the terms' magnitudes, the bound on the rounding of any
    order of summation (an entry near 0 by cancellation has no tighter
    relative one)."""

    @staticmethod
    def _case(family, covariates, heterogeneous, batch, seed=3, n=60):
        rng = np.random.default_rng(seed)
        arm = rng.permuted(np.tile(np.repeat([1, 2], n // 2), batch + (1,)),
                           axis=-1)
        w = rng.standard_normal(batch + (n, 3))
        eta = 0.2 * (arm == 2) + 0.4 * w.sum(axis=-1) - 0.3
        if family == "bernoulli-logit":
            y = (rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))) * 1.0
        elif family == "poisson-log":
            y = rng.poisson(np.exp(eta)).astype(float)
        else:
            y = eta + rng.standard_normal(eta.shape)
        design = stack_designs(arm, w, ("a", "b", "c"), ModelSpec(
            family, covariates, heterogeneous))
        # the counterfactual designs as designs of trials all on arm a
        on_arm = [stack_designs(np.full(arm.shape, a), w, ("a", "b", "c"),
                                design.spec).X for a in (1, 2)]
        if batch:
            fitted, errors = fit_batch(design, y)
            assert not errors
            # fit_batch flattens the batch; give the fit the design's shape
            fitted = replace(fitted, beta=fitted.beta.reshape(batch + (-1,)),
                             counterfactual_means=fitted.counterfactual_means
                             .reshape(batch + (2, n)))
        else:
            fitted = fit(design, y)
        return design, fitted, on_arm

    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)],
                             ids=["single", "B3", "B2x3"])
    @pytest.mark.parametrize("covariates, heterogeneous", [
        ((), False), (("c",), False), (("c", "a"), False),
        (("c",), True), (("c", "a", "b"), True)],
        ids=["arm-only", "q1", "q2", "q1-per-arm", "q3-per-arm"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equal_to_the_counterfactual_design_products(
            self, family, covariates, heterogeneous, batch):
        design, fitted, on_arm = self._case(family, covariates,
                                            heterogeneous, batch)
        fam, n = fitted.family, design.n
        m_ref, m_bound, g_ref, g_bound = [], [], [], []
        for a in (1, 2):
            Xa = counterfactual_design(design, a)
            np.testing.assert_array_equal(Xa, on_arm[a - 1])
            m = fam.mean((Xa @ fitted.beta[..., None])[..., 0])
            d = fam.deriv_mu(m)
            m_ref.append(m)
            # |m'| times the sum of |beta_j X_ij(a)|: eta's bound, carried
            m_bound.append(d * (abs(Xa) @ abs(fitted.beta)[..., None])[..., 0])
            g_ref.append(d[..., None, :] @ Xa / n)
            g_bound.append(abs(d)[..., None, :] @ abs(Xa) / n)
        G = _mean_gradient(fitted, design)
        g_ref = np.concatenate(g_ref, axis=-2)
        assert G.shape == batch + (2, design.p)
        if covariates:
            for a, (want, bound) in enumerate(zip(m_ref, m_bound)):
                got = fitted.counterfactual_means[..., a, :]
                assert (abs(got - want) <= 1e-14 * bound).all()
            assert (abs(G - g_ref)
                    <= 1e-14 * np.concatenate(g_bound, axis=-2)).all()
        else:
            for a, want in enumerate(m_ref):
                np.testing.assert_array_equal(
                    fitted.counterfactual_means[..., a, :], want)
            np.testing.assert_array_equal(G, g_ref)

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_covariate_rows_and_slots(self, heterogeneous):
        """W is the covariates in model order; slot row a - 1 names the
        columns that 1, W_1, ..., W_q fill under arm a, and a view of the
        design's storage under a homogeneous model."""
        w = np.array([[3.0, -1.0, 0.5], [5.0, 2.0, -0.0], [-4.0, 0.0, 7.0]])
        design = stack_designs(np.array([1, 2, 2]), w, ("a", "b", "c"),
                               ModelSpec("gaussian-identity", ("c", "a"),
                                         heterogeneous))
        W, slots = design.covariate_rows()
        np.testing.assert_array_equal(W, w[:, [2, 0]].T)
        assert W.flags.c_contiguous
        assert np.shares_memory(W, design.X) != heterogeneous
        np.testing.assert_array_equal(
            slots, [[0, 2, 3], [1, 4, 5]] if heterogeneous
            else [[0, 2, 3], [1, 2, 3]])
        for a in (1, 2):
            Xa = counterfactual_design(design, a)
            np.testing.assert_array_equal(Xa[:, slots[a - 1]],
                                          np.column_stack([np.ones(3), W.T]))
            rest = np.setdiff1d(np.arange(design.p), slots[a - 1])
            assert (Xa[:, rest] == 0.0).all()
