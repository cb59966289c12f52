"""IRLS fitting: oracle equivalence, score residuals, typed failures."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import frozen_values as fv
from conftest import random_trial
from gscore.dataset import (
    DesignMatrix,
    ModelSpec,
    TrialDataset,
    build_design,
    stack_designs,
)
from gscore.errors import (
    DataError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)
from gscore.glm import (
    BERNOULLI_LOGIT,
    GAUSSIAN_IDENTITY,
    POISSON_LOG,
    fit,
    fit_batch,
    resolve_family,
)


# m'(eta) written as a function of eta: the reference for Family.deriv_mu,
# which gives the same derivative from the mean m(eta).
DERIV_OF_ETA = {
    BERNOULLI_LOGIT.name: lambda eta: expit(eta) * (1.0 - expit(eta)),
    POISSON_LOG.name: np.exp,
    GAUSSIAN_IDENTITY.name: lambda eta: np.ones_like(eta),
}


class TestFamilies:
    def test_mean_and_derivative_values(self):
        eta = np.array([0.0, 1.0, -2.0])
        p = 1 / (1 + np.exp(-eta))
        np.testing.assert_allclose(BERNOULLI_LOGIT.mean(eta), p, rtol=1e-12)
        np.testing.assert_allclose(BERNOULLI_LOGIT.deriv_mu(p), p * (1 - p),
                                   rtol=1e-12)
        np.testing.assert_allclose(POISSON_LOG.mean(eta), np.exp(eta))
        np.testing.assert_allclose(POISSON_LOG.deriv_mu(np.exp(eta)),
                                   np.exp(eta))
        np.testing.assert_allclose(GAUSSIAN_IDENTITY.mean(eta), eta)
        np.testing.assert_allclose(GAUSSIAN_IDENTITY.deriv_mu(eta),
                                   np.ones(3))

    @pytest.mark.parametrize("family", [BERNOULLI_LOGIT, POISSON_LOG,
                                        GAUSSIAN_IDENTITY])
    def test_derivative_from_mean_is_deriv_bit_for_bit(self, family):
        """IRLS weights come from the fitted means; they must be exactly
        the derivative of eta that the fit used to take."""
        eta = np.concatenate([np.linspace(-35.0, 35.0, 7001),
                              np.random.default_rng(8).normal(0, 3, 1000)])
        np.testing.assert_array_equal(family.deriv_mu(family.mean(eta)),
                                      DERIV_OF_ETA[family.name](eta))

    def test_resolve_by_name_and_instance(self):
        assert resolve_family("poisson-log") is POISSON_LOG
        assert resolve_family(POISSON_LOG) is POISSON_LOG
        with pytest.raises(DataError):
            resolve_family("logit")

    def test_outcome_validation(self):
        with pytest.raises(DataError):
            BERNOULLI_LOGIT.validate_outcome(np.array([0.0, 2.0]))
        with pytest.raises(DataError):
            POISSON_LOG.validate_outcome(np.array([1.0, -1.0]))
        GAUSSIAN_IDENTITY.validate_outcome(np.array([-5.0, 5.0]))


class TestFitFixture:
    def test_matches_brute_force_oracle(self, fixture_fit):
        """Frozen values came from an optimizer-plus-dense-inverse refit."""
        np.testing.assert_allclose(fixture_fit.beta, fv.BETA, atol=1e-8)
        np.testing.assert_allclose(fixture_fit.bread, fv.BREAD, atol=1e-8)

    def test_score_residual_at_solution(self, fixture_fit, fixture_design):
        score = fixture_design.X.T @ fixture_fit.residuals
        assert np.max(np.abs(score)) < 1e-8

    def test_reports_convergence_metadata(self, fixture_fit):
        assert fixture_fit.converged
        assert fixture_fit.score_norm <= 1e-10
        assert fixture_fit.column_labels == ("arm1", "arm2", "w1")


class TestFitFamilies:
    def test_gaussian_equals_least_squares(self):
        rng = np.random.default_rng(3)
        data = random_trial(rng, n=80, family="gaussian-identity", q=3)
        design = build_design(data, ModelSpec("gaussian-identity",
                                              ("w1", "w2", "w3")))
        f = fit(design, data.outcome)
        expected, *_ = np.linalg.lstsq(design.X, data.outcome, rcond=None)
        np.testing.assert_allclose(f.beta, expected, atol=1e-10)

    def test_poisson_matches_optimizer(self):
        rng = np.random.default_rng(4)
        data = random_trial(rng, n=200, family="poisson-log", q=2)
        design = build_design(data, ModelSpec("poisson-log", ("w1", "w2")))
        f = fit(design, data.outcome)
        X, y = design.X, data.outcome

        def nll(b):
            eta = X @ b
            return float(np.sum(np.exp(eta) - y * eta))

        res = minimize(nll, np.zeros(design.p),
                       jac=lambda b: X.T @ (np.exp(X @ b) - y),
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        np.testing.assert_allclose(f.beta, res.x, atol=1e-6)

    def test_poisson_on_binary_outcomes_is_permitted(self, fixture_data):
        design = build_design(fixture_data, ModelSpec("poisson-log", ("w1",)))
        f = fit(design, fixture_data.outcome)
        assert f.converged

    def test_arm_only_initialization_is_already_converged(self, fixture_data):
        for family in ("bernoulli-logit", "gaussian-identity", "poisson-log"):
            design = build_design(fixture_data, ModelSpec(family))
            f = fit(design, fixture_data.outcome)
            assert f.iterations == 0


class TestBread:
    def test_bread_is_negative_score_jacobian(self, fixture_fit,
                                              fixture_design):
        """Central finite differences of the mean score around beta-hat."""
        X = fixture_design.X
        y = fixture_fit.fitted + fixture_fit.residuals
        n, p = X.shape

        def mean_score(b):
            return X.T @ (y - fixture_fit.family.mean(X @ b)) / n

        J = np.empty((p, p))
        h = 1e-6
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            J[:, j] = (mean_score(fixture_fit.beta - e)
                       - mean_score(fixture_fit.beta + e)) / (2 * h)
        np.testing.assert_allclose(fixture_fit.bread, J, rtol=1e-5)


class TestFailures:
    def test_non_convergence_carries_last_iterate(self, fixture_data):
        design = build_design(fixture_data,
                              ModelSpec("bernoulli-logit", ("w1",)))
        with pytest.raises(NonConvergenceError) as exc:
            fit(design, fixture_data.outcome, tol=0.0, max_iter=3)
        assert exc.value.beta is not None
        assert exc.value.iterations == 3
        assert np.isfinite(exc.value.score_norm)

    def test_separation_detected(self):
        n = 40
        w = np.linspace(-2, 2, n)
        y = (w > 0).astype(float)
        arm = np.tile([1, 2], n // 2)
        data = TrialDataset(outcome=y, arm=arm, covariates=w[:, None],
                            covariate_names=("w",))
        design = build_design(data, ModelSpec("bernoulli-logit", ("w",)))
        with pytest.raises(SeparationError):
            fit(design, data.outcome)

    def test_rank_deficiency_names_dependent_column(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(30)
        data = TrialDataset(outcome=rng.standard_normal(30),
                            arm=np.tile([1, 2], 15),
                            covariates=np.column_stack([w, 2.0 * w]),
                            covariate_names=("w", "w_twice"))
        design = build_design(data, ModelSpec("gaussian-identity",
                                              ("w", "w_twice")))
        with pytest.raises(RankDeficiencyError) as exc:
            fit(design, data.outcome)
        assert set(exc.value.columns) & {"w", "w_twice"}

    def test_wrong_outcome_domain(self, fixture_design):
        y = np.full(20, 0.5)
        with pytest.raises(DataError):
            fit(fixture_design, y, "bernoulli-logit")

    def test_shape_mismatch(self, fixture_design):
        with pytest.raises(DataError):
            fit(fixture_design, np.zeros(7))


class TestScoreResidualProperty:
    def test_converged_scores_are_tiny_across_families(self):
        """Raw max-abs score at the solution, many random datasets."""
        rng = np.random.default_rng(6)
        for family in ("bernoulli-logit", "poisson-log", "gaussian-identity"):
            for _ in range(10):
                data = random_trial(rng, n=rng.integers(40, 200),
                                    family=family, q=2)
                design = build_design(data, ModelSpec(family, ("w1", "w2")))
                f = fit(design, data.outcome)
                score = design.X.T @ f.residuals
                assert np.max(np.abs(score)) < 1e-8


def _row(design: DesignMatrix, b: int) -> DesignMatrix:
    return DesignMatrix(X=design.X[b], counterfactuals=tuple(
        Xa[b] for Xa in design.counterfactuals),
        column_labels=design.column_labels, spec=design.spec)


class TestFitBatch:
    """The stacked IRLS certifies clean fits and hands the rest to fit."""

    def test_ill_conditioned_bread_is_refit(self):
        """A covariate on a 1e5 scale leaves every fit well defined but
        the bread's condition number near 1e10: those fits come from
        fit; the others agree with it to rounding."""
        rng = np.random.default_rng(17)
        B, n = 6, 80
        arm = rng.permuted(np.tile(np.repeat([1, 2], n // 2), (B, 1)),
                           axis=1)
        x = rng.standard_normal((B, n, 1))
        y = (rng.random((B, n)) < expit(0.8 * x[..., 0])).astype(float)
        x[3:] *= 1e5
        d = stack_designs(arm, x, ("x",), ModelSpec("bernoulli-logit",
                                                    ("x",)))
        fb, errors = fit_batch(d, y)
        assert not errors and fb.converged.all()
        for b in range(B):
            f = fit(_row(d, b), y[b])
            if b >= 3:
                np.testing.assert_array_equal(fb.beta[b], f.beta)
                np.testing.assert_array_equal(fb.bread[b], f.bread)
                assert fb.iterations[b] == f.iterations
            else:
                np.testing.assert_allclose(fb.beta[b], f.beta, rtol=1e-12)
                np.testing.assert_allclose(fb.bread[b], f.bread,
                                           rtol=1e-12)

    def test_steps_fit_would_halve_are_refit(self):
        """Poisson fits whose first full Newton step lowers the
        log-likelihood: fit halves it, so the batch defers to fit."""
        calls = []

        def counted(y, eta):
            calls.append(1)
            return POISSON_LOG.loglik(y, eta)

        family = replace(POISSON_LOG, loglik=counted)
        rng = np.random.default_rng(5)
        B, n = 8, 60
        arm = np.tile(np.repeat([1, 2], n // 2), (B, 1))
        x = rng.standard_normal((B, n, 1))
        y = rng.poisson(np.exp(0.5 + 2.5 * x[..., 0])).astype(float)
        d = stack_designs(arm, x, ("x",), ModelSpec("poisson-log", ("x",)))
        fb, errors = fit_batch(d, y)
        assert not errors
        halved = 0
        for b in range(B):
            calls.clear()
            f = fit(_row(d, b), y[b], family)
            if len(calls) > 1 + f.iterations:  # a step was halved
                halved += 1
                np.testing.assert_array_equal(fb.beta[b], f.beta)
                np.testing.assert_array_equal(
                    fb.counterfactual_means[0][b], f.counterfactual_means[0])
            else:
                np.testing.assert_allclose(fb.beta[b], f.beta, rtol=1e-12)
        assert halved

    def test_typed_errors_come_from_fit(self):
        """Separated and rank-deficient rows fail with fit's own errors
        and hold placeholders; the clean row is unaffected."""
        rng = np.random.default_rng(9)
        n = 40
        arm = np.tile(np.repeat([1, 2], n // 2), (3, 1))
        x = rng.standard_normal((3, n, 2))
        y = (rng.random((3, n)) < 0.4).astype(float)
        y[1] = (x[1, :, 0] > 0.0).astype(float)
        x[2, :, 1] = x[2, :, 0]
        d = stack_designs(arm, x, ("a", "b"), ModelSpec("bernoulli-logit",
                                                        ("a", "b")))
        fb, errors = fit_batch(d, y)
        assert sorted(errors) == [1, 2]
        assert isinstance(errors[1], SeparationError)
        assert isinstance(errors[2], RankDeficiencyError)
        assert errors[2].columns == ("b",)
        assert fb.converged.tolist() == [True, False, False]
        np.testing.assert_array_equal(fb.bread[1], np.eye(4))
        np.testing.assert_allclose(fb.beta[0], fit(_row(d, 0), y[0]).beta,
                                   rtol=1e-12)
