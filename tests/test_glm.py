"""IRLS fitting: oracle equivalence, score residuals, typed failures."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, logit

import frozen_values as fv
from conftest import random_trial
from oracle import fit_logistic
from gscore.dataset import (
    DesignMatrix,
    ModelSpec,
    TrialDataset,
    build_design,
    counterfactual_design,
    stack_designs,
)
from gscore import glm
from gscore.errors import (
    DataError,
    GScoreError,
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


def _logistic(eta):
    """The logit family's mean as its formula: 1 / (1 + exp(-eta))."""
    return 1.0 / (1.0 + np.exp(-eta))


# m'(eta) written as a function of eta: the reference for Family.deriv_mu,
# which gives the same derivative from the mean m(eta).
DERIV_OF_ETA = {
    BERNOULLI_LOGIT.name: lambda eta: _logistic(eta) * (1.0 - _logistic(eta)),
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

    def test_logit_mean_is_expit_to_rounding(self):
        """The logit mean is 1 / (1 + exp(-eta)): within 1e-15 relative
        of scipy's expit wherever both are normal numbers."""
        eta = np.concatenate([np.linspace(-700.0, 700.0, 140001),
                              np.random.default_rng(3).normal(0, 5, 10000)])
        np.testing.assert_allclose(BERNOULLI_LOGIT.mean(eta), expit(eta),
                                   rtol=1e-15, atol=0)

    def test_initial_intercept_is_scipy_logit(self):
        """The logit start takes scipy.special.logit's two branches
        (log1p near 1/2): within an ulp of it, and bit-equal on nearly
        every arm mean k/m, so fits start where they did with scipy."""
        p = np.unique(np.concatenate([np.arange(m + 1) / m
                                      for m in range(1, 201)]))
        got = BERNOULLI_LOGIT.initial_intercept(p)
        want = logit(np.clip(p, 1e-6, 1 - 1e-6))
        np.testing.assert_allclose(got, want, rtol=5e-16, atol=0)
        assert np.mean(got == want) >= 0.97

    def test_logit_mean_saturates_without_warning(self):
        """Where exp(-eta) overflows the mean is exactly 0, and silently;
        at the other end it is exactly 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = BERNOULLI_LOGIT.mean(np.array([-800.0, -1e308, 800.0,
                                               np.inf, -np.inf]))
        assert m.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0]

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
    def test_non_convergence_carries_last_iterate(self, fixture_data,
                                                  monkeypatch):
        design = build_design(fixture_data,
                              ModelSpec("bernoulli-logit", ("w1",)))
        monkeypatch.setattr(glm, "_TOL", 0.0)
        monkeypatch.setattr(glm, "_MAX_ITER", 3)
        with pytest.raises(NonConvergenceError) as exc:
            fit(design, fixture_data.outcome)
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
            fit(fixture_design, y)

    def test_shape_mismatch(self, fixture_design):
        with pytest.raises(DataError):
            fit(fixture_design, np.zeros(7))

    def test_stacked_design_refused(self):
        """fit takes one design: a stack is a DataError, neither a silent
        fit of its first row nor a KeyError when a later row fails."""
        d, y = _mixed_stack("bernoulli-logit")
        for rows in (slice(0, 2), slice(0, 9)):
            with pytest.raises(DataError, match="fit_batch"):
                fit(replace(d, X=d.X[rows]), y[rows])


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
    return DesignMatrix(X=design.X[b], spec=design.spec)


def _mixed_stack(family: str, heterogeneous: bool = False):
    """(design, y) of a stack whose rows meet every rule of the IRLS loop
    (under the homogeneous model on a and b; per-arm on request):
    0-1 clean; 2 a covariate on a 1e5 scale (ill-conditioned normal
    equations); 3-4 heavy-tailed covariates (Poisson steps get halved);
    5 outcomes separated by a covariate; 6 two equal columns (rank
    deficient); 7 no events in arm 1; 8 a non-finite outcome."""
    rng = np.random.default_rng(21)
    B, n = 9, 40
    arm = rng.permuted(np.tile(np.repeat([1, 2], n // 2), (B, 1)), axis=1)
    x = rng.standard_normal((B, n, 2))
    x[3:5] = 3.0 * rng.standard_cauchy((2, n, 2))
    signal = np.tanh(x[..., 0])
    if family == "bernoulli-logit":
        y = (rng.random((B, n)) < expit(1.5 * signal - 1.0)).astype(float)
    elif family == "poisson-log":
        y = rng.poisson(np.exp(0.5 + 2.5 * signal)).astype(float)
    else:
        y = signal + rng.standard_normal((B, n))
    y[5] = (x[5, :, 0] > 0.0).astype(float)
    x[2, :, 1] *= 1e5
    x[6, :, 1] = x[6, :, 0]
    y[7][arm[7] == 1] = 0.0
    y[8, 0] = np.nan
    design = stack_designs(arm, x, ("a", "b"),
                           ModelSpec(family, ("a", "b"), heterogeneous))
    return design, y


def _assert_same_fit(f, g):
    """Every field of two FittedGLMs equal, bit for bit."""
    for name in ("beta", "bread", "fitted", "residuals", "converged",
                 "iterations", "score_norm"):
        np.testing.assert_array_equal(getattr(f, name), getattr(g, name),
                                      err_msg=name)
    np.testing.assert_array_equal(f.counterfactual_means,
                                  g.counterfactual_means)
    assert (f.family, f.column_labels) == (g.family, g.column_labels)


def _heavy_logit_stack():
    """(design, y) of eight logit trials on Cauchy covariates; row 2 takes
    a halved step."""
    rng = np.random.default_rng(9)
    B, n = 8, 30
    arm = rng.permuted(np.tile(np.repeat([1, 2], n // 2), (B, 1)), axis=1)
    x = rng.standard_cauchy((B, n, 2))
    y = (rng.random((B, n)) < expit(1.5 * np.tanh(x[..., 0]) - 1.0)
         ).astype(float)
    design = stack_designs(arm, x, ("a", "b"),
                           ModelSpec("bernoulli-logit", ("a", "b")))
    return design, y


FAMILY_NAMES = ("bernoulli-logit", "poisson-log", "gaussian-identity")
STACKS = {**{f: lambda f=f: _mixed_stack(f) for f in FAMILY_NAMES},
          "heavy-logit": _heavy_logit_stack}
# Rows of _mixed_stack that fail, by family, and how.  Under poisson-log
# the 1e5-scaled row ends within rounding of the solution with a max-abs
# score between 1e-10 and 3e-9, never under the 1e-10 tolerance.
MIXED_ERRORS = {
    "bernoulli-logit": {5: SeparationError, 6: RankDeficiencyError,
                        8: DataError},
    "poisson-log": {2: NonConvergenceError, 6: RankDeficiencyError,
                    8: DataError},
    "gaussian-identity": {6: RankDeficiencyError, 8: DataError},
}


def _loglik_calls(monkeypatch, design, y, family):
    """Halvings in fit of one design, from its family's log-likelihood
    counted: one call at the start and per step, plus one per halving."""
    calls = []
    base = resolve_family(family)

    def counted(y, eta):
        calls.append(1)
        return base.loglik(y, eta)

    with monkeypatch.context() as m:
        m.setitem(glm._FAMILIES, family, replace(base, loglik=counted))
        f = fit(design, y)
    return len(calls) - 1 - f.iterations


class TestFitBatch:
    """fit_batch is the one IRLS loop; fit is that loop on one row."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_each_row_is_the_single_fit(self, stack):
        """Every row of the stack equals fit on that row bit for bit, or
        both fail with the same error type and message."""
        d, y = STACKS[stack]()
        fb, errors = fit_batch(d, y)
        want_errors = MIXED_ERRORS.get(stack, {})
        assert {b: type(e) for b, e in errors.items()} == want_errors
        for b in range(len(y)):
            try:
                f = fit(_row(d, b), y[b])
            except GScoreError as err:
                assert type(errors[b]) is type(err), b
                assert str(errors[b]) == str(err), b
                continue
            assert b not in errors and fb.converged[b], b
            for got, want in ((fb.beta[b], f.beta), (fb.bread[b], f.bread),
                              (fb.fitted[b], f.fitted),
                              (fb.residuals[b], f.residuals),
                              (fb.counterfactual_means[b],
                               f.counterfactual_means)):
                np.testing.assert_array_equal(got, want)
            assert fb.iterations[b] == f.iterations, b
            assert fb.score_norm[b] == f.score_norm, b

    def test_stacks_cover_halved_steps(self, monkeypatch):
        """The row identity above covers step halving: these rows take
        halved steps, the clean ones full steps."""
        mp = monkeypatch
        d, y = _mixed_stack("poisson-log")
        assert _loglik_calls(mp, _row(d, 0), y[0], "poisson-log") == 0
        assert _loglik_calls(mp, _row(d, 4), y[4], "poisson-log") > 0
        d, y = _heavy_logit_stack()
        assert _loglik_calls(mp, _row(d, 0), y[0], "bernoulli-logit") == 0
        assert _loglik_calls(mp, _row(d, 2), y[2], "bernoulli-logit") > 0

    def test_ill_conditioned_rows_take_qr_steps(self, monkeypatch):
        """The 1e5-scaled covariate's row steps by pivoted QR and clean
        rows never do, under every family."""
        calls = []

        def counted(*args):
            calls.append(1)
            return solve_newton(*args)

        solve_newton = glm._solve_newton
        monkeypatch.setattr(glm, "_solve_newton", counted)
        for family in FAMILY_NAMES:
            d, y = _mixed_stack(family)
            fit(_row(d, 0), y[0])
            fit(_row(d, 1), y[1])
            assert not calls, family
            try:
                fit(_row(d, 2), y[2])
            except NonConvergenceError:  # poisson-log: see MIXED_ERRORS
                pass
            assert calls, family
            calls.clear()

    def test_never_calls_fit(self, monkeypatch):
        """No row is handed to a second loop: with fit made to raise,
        fit_batch still fails the same rows the same way."""
        def refuse(*args, **kwargs):
            raise AssertionError("fit_batch called fit")

        monkeypatch.setattr(glm, "fit", refuse)
        for family in FAMILY_NAMES:
            d, y = _mixed_stack(family)
            _, errors = fit_batch(d, y)
            assert {b: type(e) for b, e in errors.items()} == \
                MIXED_ERRORS[family]

    def test_logit_rows_match_the_oracle(self):
        """Clean, ill-conditioned, heavy-tailed and halved logit rows solve
        the score equation as the brute-force optimizer does."""
        for d, y, rows in (_mixed_stack("bernoulli-logit") + (range(5),),
                           _heavy_logit_stack() + (range(8),)):
            fb, errors = fit_batch(d, y)
            assert not set(rows) & set(errors)
            for b in rows:
                np.testing.assert_allclose(fb.beta[b],
                                           fit_logistic(d.X[b], y[b]),
                                           rtol=0, atol=1e-8)

    @pytest.mark.parametrize("heterogeneous", [False, True],
                             ids=["homogeneous", "per-arm"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_fits_do_not_depend_on_the_design_layout(self, family,
                                                     heterogeneous):
        """fit_batch and fit give the same bits on C-contiguous (B, n, p)
        copies of the designs as on stack_designs' own storage, in every
        field and error, failed rows included."""
        d, y = _mixed_stack(family, heterogeneous)
        copy = replace(d, X=np.ascontiguousarray(d.X))
        assert copy.X.flags.c_contiguous and not d.X.flags.c_contiguous
        (f, errors), (g, copy_errors) = fit_batch(d, y), fit_batch(copy, y)
        assert {b: (type(e), str(e)) for b, e in errors.items()} == \
            {b: (type(e), str(e)) for b, e in copy_errors.items()}
        _assert_same_fit(f, g)
        _assert_same_fit(fit(_row(d, 0), y[0]), fit(_row(copy, 0), y[0]))

    def test_counterfactual_means_are_one_array(self):
        """Both arms' predictions live in one (..., 2, n) array: row a - 1
        holds m(beta' X_i(a)), for a single fit and for a stack."""
        d, y = _mixed_stack("gaussian-identity")
        fb, _ = fit_batch(d, y)
        f = fit(_row(d, 0), y[0])
        assert fb.counterfactual_means.shape == (9, 2, 40)
        assert f.counterfactual_means.shape == (2, 40)
        # equal to rounding, as TestCounterfactualsFromCovariateRows pins
        for a in (1, 2):
            np.testing.assert_allclose(
                f.counterfactual_means[a - 1],
                counterfactual_design(_row(d, 0), a) @ f.beta,
                rtol=0, atol=1e-14)

    def test_failed_rows_carry_typed_errors(self):
        """Failed rows hold placeholders and are not converged; the
        rank-deficient row names its dependent column."""
        d, y = _mixed_stack("bernoulli-logit")
        fb, errors = fit_batch(d, y)
        assert errors[6].columns == ("b",)
        assert fb.converged.tolist() == [b not in errors for b in range(9)]
        for b in errors:
            np.testing.assert_array_equal(fb.bread[b], np.eye(4))
            np.testing.assert_array_equal(fb.beta[b], np.zeros(4))
            np.testing.assert_array_equal(fb.residuals[b], np.zeros(40))
            assert fb.counterfactual_means[b, 0].tolist() == [0.5] * 40
