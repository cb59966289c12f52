"""Tests for trial generation, calibration, and the replication engine."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from gscore import (
    CovariateSpec,
    MethodSpec,
    ModelSpec,
    Scenario,
    StratificationRule,
    calibrate_intercepts,
    covariate_spec_from_config,
    generate_trial,
    method_spec_from_config,
    methods_from_config,
    randomize_complete,
    randomize_stratified_block,
    run_oc,
    scenario_from_config,
    true_marginal_means,
)
from gscore.simulation import _marginal_mean, _rep_rng

THREE_NORMALS = (CovariateSpec(kind="standard-normal"),) * 3
BETA_W3 = (np.sqrt(np.log(2.0) ** 2 / 3),) * 3

# Published per-arm intercepts hitting the stated marginal means, for
# one covariate with beta_W = log(k) or three with sqrt(log(k)^2/3)
# (the marginal mean depends on beta_W only through its Euclidean norm).
CALIBRATION_TABLE = [
    (np.log(2.0), (0.30, 0.45), (-0.9355, -0.2224)),
    (np.log(2.0), (0.05, 0.139), (-3.1555, -1.9878)),
    (np.log(2.0), (0.30, 0.60), (-0.9355, 0.4492)),
    (np.log(1.1), (0.30, 0.45), (-0.8491, -0.2011)),
    (np.log(1.1), (0.05, 0.139), (-2.9485, -1.8269)),
    (np.log(1.1), (0.30, 0.60), (-0.8491, 0.4064)),
]


def scenario1(beta_A=(-0.9355, -0.2224), n=326, **kw):
    return Scenario(n=n, covariates=THREE_NORMALS, beta_W=BETA_W3,
                    beta_A=beta_A, **kw)


class TestScenarioValidation:
    """Structural constraints on the data-generating description."""

    def test_valid_scenario_roundtrips_fields(self):
        s = scenario1()
        assert s.n == 326
        assert len(s.covariates) == 3
        assert s.scheme == "complete"

    def test_beta_w_length_must_match_covariates(self):
        with pytest.raises(ValueError):
            Scenario(n=100, covariates=THREE_NORMALS, beta_W=(0.1,),
                     beta_A=(0.0, 0.0))

    def test_allocation_must_be_two_positive_shares(self):
        with pytest.raises(ValueError):
            scenario1(allocation=(0.7, 0.7))
        with pytest.raises(ValueError):
            scenario1(allocation=(1.0, 0.0))

    def test_stratified_scheme_needs_rule(self):
        with pytest.raises(ValueError):
            scenario1(scheme="stratified-block")

    def test_stratify_index_must_name_a_covariate(self):
        with pytest.raises(ValueError):
            scenario1(scheme="stratified-block",
                      stratify=StratificationRule(covariate=4,
                                                  threshold=0.25))

    def test_only_bernoulli_logit_outcomes(self):
        with pytest.raises(ValueError):
            scenario1(family="gaussian-identity")

    def test_covariate_spec_validation(self):
        with pytest.raises(ValueError):
            CovariateSpec(kind="uniform")
        with pytest.raises(ValueError):
            CovariateSpec(kind="bernoulli", p=1.5)
        with pytest.raises(ValueError):
            CovariateSpec(kind="standard-normal", p=0.5)


class TestRandomization:
    """Assignment generators."""

    def test_complete_split_is_exact(self):
        rng = np.random.default_rng(1)
        arm = randomize_complete(10, (0.5, 0.5), rng)
        assert (arm == 1).sum() == 5 and (arm == 2).sum() == 5
        arm = randomize_complete(326, (0.5, 0.5), rng)
        assert (arm == 1).sum() == 163 and (arm == 2).sum() == 163

    def test_complete_odd_n_remainder_goes_to_arm_2(self):
        rng = np.random.default_rng(2)
        arm = randomize_complete(11, (0.5, 0.5), rng)
        assert (arm == 1).sum() == 5 and (arm == 2).sum() == 6

    def test_complete_all_assignments_reachable(self):
        """n=4 at 1:1 has 6 possible assignments; all appear over seeds."""
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            seen.add(tuple(randomize_complete(4, (0.5, 0.5), rng)))
        assert len(seen) == 6

    def test_complete_is_reproducible(self):
        a = randomize_complete(50, (0.5, 0.5), np.random.default_rng(7))
        b = randomize_complete(50, (0.5, 0.5), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_block_two_alternates_within_stratum(self):
        """Block size 2 at 1:1 puts one of each arm in every pair."""
        strata = np.zeros(40, dtype=int)
        arm = randomize_stratified_block(strata, 2, (0.5, 0.5),
                                         np.random.default_rng(3))
        pairs = arm.reshape(-1, 2)
        assert (pairs.sum(axis=1) == 3).all()

    def test_block_balance_bound_per_stratum(self):
        """|n1 - n2| within a stratum is at most block_size/2 (the
        truncated final block is the only source of imbalance)."""
        rng = np.random.default_rng(4)
        for trial in range(50):
            strata = rng.integers(0, 3, size=rng.integers(5, 60))
            arm = randomize_stratified_block(strata, 4, (0.5, 0.5), rng)
            for s in np.unique(strata):
                in_s = strata == s
                n1 = (arm[in_s] == 1).sum()
                n2 = (arm[in_s] == 2).sum()
                assert abs(int(n1) - int(n2)) <= 2

    def test_block_full_blocks_exactly_balanced(self):
        strata = np.zeros(24, dtype=int)
        arm = randomize_stratified_block(strata, 4, (0.5, 0.5),
                                         np.random.default_rng(5))
        blocks = arm.reshape(-1, 4)
        assert ((blocks == 1).sum(axis=1) == 2).all()

    def test_block_incompatible_allocation_rejected(self):
        strata = np.zeros(12, dtype=int)
        with pytest.raises(ValueError):
            randomize_stratified_block(strata, 4, (1 / 3, 2 / 3),
                                       np.random.default_rng(6))

    def test_block_reproducible(self):
        strata = np.tile([0, 1], 20)
        a = randomize_stratified_block(strata, 4, (0.5, 0.5),
                                       np.random.default_rng(8))
        b = randomize_stratified_block(strata, 4, (0.5, 0.5),
                                       np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)


class TestGenerateTrial:
    """Dataset generation from a scenario."""

    def test_shapes_names_and_binary_outcome(self):
        data = generate_trial(scenario1(), np.random.default_rng(9))
        assert data.n == 326
        assert data.covariate_names == ("W1", "W2", "W3")
        assert data.covariates.shape == (326, 3)
        assert set(np.unique(data.outcome)) <= {0.0, 1.0}
        assert (data.arm == 1).sum() == 163
        assert data.stratum is None

    def test_stratified_trial_exposes_stratum_as_covariate(self):
        s = scenario1(scheme="stratified-block", block_size=4,
                      stratify=StratificationRule(covariate=3,
                                                  threshold=0.25))
        data = generate_trial(s, np.random.default_rng(10))
        assert data.covariate_names == ("W1", "W2", "W3", "S")
        expected = (data.covariates[:, 2] > 0.25).astype(float)
        np.testing.assert_array_equal(data.covariates[:, 3], expected)
        np.testing.assert_array_equal(data.stratum, expected.astype(int))
        for lab in (0, 1):
            in_s = data.stratum == lab
            gap = abs(int((data.arm[in_s] == 1).sum())
                      - int((data.arm[in_s] == 2).sum()))
            assert gap <= 2

    def test_null_scenario_rate_near_half(self):
        """beta_W = 0 and beta_A = (0, 0) give marginal rate 1/2."""
        s = Scenario(n=4000, covariates=(), beta_W=(), beta_A=(0.0, 0.0))
        data = generate_trial(s, np.random.default_rng(11))
        assert abs(data.outcome.mean() - 0.5) < 3 * 0.5 / np.sqrt(4000)

    def test_published_intercepts_hit_target_rates(self):
        """The calibrated scenario-1 intercepts reproduce the target
        marginal rates empirically (binomial tolerance)."""
        s = scenario1(n=20000)
        data = generate_trial(s, np.random.default_rng(12))
        for a, target in ((1, 0.30), (2, 0.45)):
            rate = data.outcome[data.arm == a].mean()
            tol = 3 * np.sqrt(target * (1 - target) / 10000)
            assert abs(rate - target) < tol

    def test_fixed_seed_reproduces_dataset(self):
        s = scenario1(n=100)
        d1 = generate_trial(s, np.random.default_rng(13))
        d2 = generate_trial(s, np.random.default_rng(13))
        np.testing.assert_array_equal(d1.outcome, d2.outcome)
        np.testing.assert_array_equal(d1.arm, d2.arm)
        np.testing.assert_array_equal(d1.covariates, d2.covariates)


class TestTrueMarginalMeans:
    """Quadrature / enumeration truth for the generated designs."""

    def test_no_covariates_reduces_to_expit(self):
        s = Scenario(n=10, covariates=(), beta_W=(),
                     beta_A=(-0.5, 0.25))
        mu = true_marginal_means(s)
        assert mu[0] == pytest.approx(expit(-0.5), abs=1e-12)
        assert mu[1] == pytest.approx(expit(0.25), abs=1e-12)

    def test_published_pairs_reproduce_targets(self):
        """All six published intercept pairs hit their stated marginal
        means to a few parts in ten thousand."""
        for beta, targets, intercepts in CALIBRATION_TABLE:
            for t, b0 in zip(targets, intercepts):
                got = _marginal_mean(b0, (beta,),
                                     (CovariateSpec(kind="standard-normal"),))
                assert got == pytest.approx(t, abs=5e-4)

    def test_norm_direction_collapse(self):
        """Three equal-coefficient normals match one covariate with the
        same Euclidean norm."""
        s3 = scenario1()
        s1 = Scenario(n=326,
                      covariates=(CovariateSpec(kind="standard-normal"),),
                      beta_W=(np.log(2.0),), beta_A=(-0.9355, -0.2224))
        np.testing.assert_allclose(true_marginal_means(s3),
                                   true_marginal_means(s1), atol=1e-12)

    def test_single_bernoulli_is_two_point_mixture(self):
        spec = (CovariateSpec(kind="bernoulli", p=0.3),)
        got = _marginal_mean(-0.4, (0.8,), spec)
        expected = 0.7 * expit(-0.4) + 0.3 * expit(0.4)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_quadrature_against_generic_integrator(self):
        """Cross-check the Gauss-Hermite rule with adaptive quadrature."""
        from scipy.integrate import quad
        from scipy.stats import norm as normal

        scale = np.log(2.0)
        val = _marginal_mean(-0.9355, BETA_W3, THREE_NORMALS)
        ref, _ = quad(lambda z: expit(-0.9355 + scale * z) * normal.pdf(z),
                      -12, 12, limit=200)
        assert val == pytest.approx(ref, abs=1e-10)

    def test_mixed_covariates(self):
        """Normal + Bernoulli mix: enumeration times quadrature."""
        from scipy.integrate import quad
        from scipy.stats import norm as normal

        specs = (CovariateSpec(kind="standard-normal"),
                 CovariateSpec(kind="bernoulli", p=0.4))
        got = _marginal_mean(0.1, (0.7, -0.5), specs)
        ref = sum(
            p * quad(lambda z, off=off: expit(0.1 + off + 0.7 * z)
                     * normal.pdf(z), -12, 12, limit=200)[0]
            for p, off in ((0.6, 0.0), (0.4, -0.5))
        )
        assert got == pytest.approx(ref, abs=1e-10)


class TestCalibrateIntercepts:
    """Bisection back from target marginal means to intercepts."""

    def test_reproduces_published_pairs(self):
        for beta, targets, expected in CALIBRATION_TABLE:
            got = calibrate_intercepts(
                targets, (beta,), (CovariateSpec(kind="standard-normal"),))
            assert got[0] == pytest.approx(expected[0], abs=2e-3)
            assert got[1] == pytest.approx(expected[1], abs=2e-3)

    def test_no_covariates_target_half_gives_zero(self):
        got = calibrate_intercepts((0.5, 0.5), (), ())
        assert got[0] == pytest.approx(0.0, abs=1e-9)
        assert got[1] == pytest.approx(0.0, abs=1e-9)

    def test_roundtrip_identity_within_precision(self):
        """true_marginal_means after calibration returns the targets."""
        targets = (0.3, 0.45)
        b0 = calibrate_intercepts(targets, BETA_W3, THREE_NORMALS,
                                  precision=1e-8)
        s = scenario1(beta_A=b0)
        mu = true_marginal_means(s)
        assert mu[0] == pytest.approx(targets[0], abs=1e-8)
        assert mu[1] == pytest.approx(targets[1], abs=1e-8)

    def test_rejects_unreachable_targets(self):
        with pytest.raises(ValueError):
            calibrate_intercepts((0.0, 0.5), BETA_W3, THREE_NORMALS)
        with pytest.raises(ValueError):
            calibrate_intercepts((0.3, 1.0), BETA_W3, THREE_NORMALS)

    def test_requires_a_pair(self):
        with pytest.raises(ValueError):
            calibrate_intercepts((0.3,), BETA_W3, THREE_NORMALS)


ADJUSTED = ModelSpec(family="bernoulli-logit",
                     covariates=("W1", "W2", "W3"))


class TestRepRng:
    """Replication substreams."""

    def test_same_key_same_stream(self):
        a = _rep_rng(99, 5).random(8)
        b = _rep_rng(99, 5).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_reps_different_streams(self):
        a = _rep_rng(99, 5).random(8)
        b = _rep_rng(99, 6).random(8)
        assert not np.array_equal(a, b)


class TestRunOC:
    """The replication engine and its tallies."""

    def test_determinism_and_worker_independence(self):
        s = scenario1(n=60)
        methods = (MethodSpec(name="gc-score", test="score", model=ADJUSTED),)
        a = run_oc(s, methods, reps=300, seed=424, workers=1)
        b = run_oc(s, methods, reps=300, seed=424, workers=1)
        c = run_oc(s, methods, reps=300, seed=424, workers=2)
        assert a == b
        assert a == c

    def test_seed_and_truth_echoed(self):
        s = scenario1(n=60)
        methods = (MethodSpec(name="m", test="wald", model="unadjusted"),)
        res = run_oc(s, methods, reps=5, seed=77)
        assert res.seed == 77
        assert res.reps == 5
        assert res.n == 60
        np.testing.assert_allclose(res.true_mu, true_marginal_means(s),
                                   atol=1e-14)
        assert res.true_diff == pytest.approx(
            res.true_mu[1] - res.true_mu[0], abs=1e-14)
        assert res.true_ratio == pytest.approx(
            res.true_mu[1] / res.true_mu[0], abs=1e-14)

    def test_null_rejection_near_alpha(self):
        """Under the null the one-sided score test rejects at about
        (1 - level)/2; checked within 3 Monte Carlo standard errors."""
        s = scenario1(beta_A=(-0.9355, -0.9355), n=150)
        methods = (MethodSpec(name="score", test="score", model=ADJUSTED),)
        res = run_oc(s, methods, reps=400, seed=2024)
        m = res.methods[0]
        assert m.n_failed == 0
        se = np.sqrt(0.025 * 0.975 / 400)
        assert abs(m.rejection_rate - 0.025) < 3 * se + 1e-12

    def test_dominance_carried_to_rates(self):
        """With the same estimator, score rejects no more often than
        Wald and covers no less often, replication by replication."""
        s = scenario1(n=80)
        methods = (
            MethodSpec(name="wald", test="wald", model=ADJUSTED),
            MethodSpec(name="score", test="score", model=ADJUSTED),
        )
        res = run_oc(s, methods, reps=200, seed=31)
        wald, score = res.methods
        assert wald.n_failed == score.n_failed == 0
        assert score.rejection_rate <= wald.rejection_rate
        assert score.coverage >= wald.coverage

    def test_failures_counted_and_excluded(self):
        """A method naming a covariate the generator never produces
        fails every replication and reports NaN rates."""
        s = scenario1(n=60)
        bad = ModelSpec(family="bernoulli-logit", covariates=("W9",))
        methods = (
            MethodSpec(name="bad", test="score", model=bad),
            MethodSpec(name="ok", test="score", model="unadjusted"),
        )
        res = run_oc(s, methods, reps=10, seed=5)
        assert res.methods[0].n_failed == 10
        assert res.methods[0].n_used == 0
        assert np.isnan(res.methods[0].rejection_rate)
        assert res.methods[1].n_failed == 0
        assert np.isfinite(res.methods[1].rejection_rate)

    def test_mc_se_formula(self):
        s = scenario1(n=60)
        methods = (MethodSpec(name="m", test="wald", model="unadjusted"),)
        res = run_oc(s, methods, reps=50, seed=8)
        m = res.methods[0]
        r = m.rejection_rate
        assert m.mc_se_rejection == pytest.approx(
            np.sqrt(r * (1 - r) / 50), abs=1e-15)
        assert 0.0 <= m.coverage <= 1.0

    def test_duplicate_method_names_rejected(self):
        s = scenario1(n=60)
        methods = (MethodSpec(name="m", test="wald"),
                   MethodSpec(name="m", test="score"))
        with pytest.raises(ValueError):
            run_oc(s, methods, reps=2, seed=1)

    @pytest.mark.parametrize("n, heterogeneous", [(3, False), (4, True)])
    def test_hc1_with_p_not_below_n_rejected_before_any_trial(
            self, monkeypatch, n, heterogeneous):
        """p = 2 + q (2 + 2q per-arm) with q = 1 reaches n: HC1 is
        undefined, so run_oc refuses before generating a trial."""
        def no_trials(*args):
            raise AssertionError("a trial was generated")

        monkeypatch.setattr("gscore.simulation.generate_trial", no_trials)
        s = Scenario(n=n, covariates=(CovariateSpec(kind="standard-normal"),),
                     beta_W=(0.5,), beta_A=(0.0, 0.0))
        model = ModelSpec(family="bernoulli-logit", covariates=("W1",),
                          heterogeneous=heterogeneous)
        methods = (MethodSpec(name="hc1", test="wald", model=model,
                              correction="HC1"),)
        with pytest.raises(ValueError, match="HC1 needs n > p"):
            run_oc(s, methods, reps=2, seed=1)

    def test_ratio_measure_and_model_labels(self):
        s = scenario1(n=120)
        methods = (
            MethodSpec(name="ratio-score", test="score", model=ADJUSTED,
                       measure="ratio"),
            MethodSpec(name="unadj", test="wald", model="unadjusted"),
        )
        res = run_oc(s, methods, reps=30, seed=14)
        m = res.methods[0]
        assert m.measure == "ratio"
        assert m.null_value == 1.0
        assert m.model == "bernoulli-logit:W1+W2+W3"
        assert res.methods[1].model == "unadjusted"
        assert res.methods[1].null_value == 0.0


class TestConfigParsers:
    """Declarative construction from parsed config documents."""

    def test_covariate_spec_variants(self):
        assert covariate_spec_from_config("standard-normal").kind == \
            "standard-normal"
        b = covariate_spec_from_config({"bernoulli": 0.3})
        assert b.kind == "bernoulli" and b.p == 0.3
        c = covariate_spec_from_config({"kind": "bernoulli", "p": 0.7})
        assert c.p == 0.7
        with pytest.raises(ValueError):
            covariate_spec_from_config(42)
        with pytest.raises(ValueError):
            covariate_spec_from_config({"bernoulli": 0.3, "extra": 1})

    def test_scenario_roundtrip(self):
        d = {
            "n": 326,
            "covariates": ["standard-normal"] * 3,
            "beta_W": list(BETA_W3),
            "beta_A": [-0.9355, -0.2224],
            "scheme": "stratified-block",
            "block_size": 4,
            "stratify": {"covariate": 3, "threshold": 0.25},
        }
        s = scenario_from_config(d)
        assert s == scenario1(scheme="stratified-block", block_size=4,
                              stratify=StratificationRule(covariate=3,
                                                          threshold=0.25))

    def test_scenario_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_config({"n": 10, "beta_A": [0, 0], "reps": 100})
        with pytest.raises(ValueError):
            scenario_from_config({"n": 10, "beta_A": [0, 0],
                                  "stratify": {"covariate": 1, "cut": 0}})

    def test_method_roundtrip(self):
        d = {
            "name": "gc-score-II",
            "test": "score",
            "model": {"family": "bernoulli-logit",
                      "covariates": ["W1", "W2"]},
            "estimator": "II",
            "pi": [0.5, 0.5],
        }
        m = method_spec_from_config(d)
        assert m.model == ModelSpec(family="bernoulli-logit",
                                    covariates=("W1", "W2"))
        assert m.estimator == "II"
        assert m.pi == (0.5, 0.5)
        assert m.sidedness == "greater"  # engine default

    def test_method_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            method_spec_from_config({"name": "m", "test": "wald",
                                     "alpha": 0.05})
        with pytest.raises(ValueError):
            method_spec_from_config({"name": "m", "test": "wald",
                                     "model": {"family": "bernoulli-logit",
                                               "link": "logit"}})

    @pytest.mark.parametrize("field, value", [
        ("test", "bogus"), ("measure", "odds"), ("estimator", "IV"),
        ("correction", "HC3"), ("sidedness", "both"), ("model", "adjusted")])
    def test_method_unknown_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            method_spec_from_config({"name": "m", "test": "wald",
                                     field: value})
        with pytest.raises(ValueError, match=field):
            MethodSpec(**{"name": "m", "test": "wald", field: value})

    def test_methods_document_forms(self):
        lst = [{"name": "a", "test": "wald"}, {"name": "b", "test": "score"}]
        assert len(methods_from_config(lst)) == 2
        assert len(methods_from_config({"methods": lst})) == 2
        with pytest.raises(ValueError):
            methods_from_config({"methods": lst, "seed": 1})
