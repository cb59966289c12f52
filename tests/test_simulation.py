"""Tests for trial generation, calibration, and the replication engine."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import re
import time
import types
import warnings

import numpy as np
import pytest
from scipy.special import expit

from gscore import (
    CovariateSpec,
    GScoreError,
    MethodSpec,
    ModelSpec,
    Scenario,
    StratificationRule,
    TrialDataset,
    build_design,
    calibrate_intercepts,
    covariate_spec_from_config,
    estimate_mu,
    estimate_variance,
    fit,
    generate_trial,
    methods_from_config,
    run_oc,
    run_test,
    scenario_from_config,
    true_marginal_means,
)
from gscore import simulation
from gscore.simulation import (
    _BATCH_ROWS,
    _analyze_batch,
    _batches,
    _draw,
    _marginal_mean,
    _plan,
    _rep_keys,
    _rep_rng,
    _rep_rngs,
    _run_chunk,
    _run_shares,
    _shares,
)

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


STRATIFIED40 = scenario1(n=40, scheme="stratified-block", block_size=4,
                         stratify=StratificationRule(covariate=3,
                                                     threshold=0.25))


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

    @pytest.mark.parametrize("key, value", [
        ("beta_A", (0.0, np.nan)), ("beta_A", (np.inf, 0.0)),
        ("beta_W", (0.5, 0.5, np.nan)), ("beta_W", (-np.inf, 0.5, 0.5))],
        ids=["beta_A-nan", "beta_A-inf", "beta_W-nan", "beta_W-inf"])
    def test_non_finite_coefficients_refused(self, key, value):
        """A NaN intercept would give every subject of its arm outcome 0
        (u < nan is false) and run without notice."""
        fields = {"n": 40, "beta_A": (0.0, 0.0), "covariates": THREE_NORMALS,
                  "beta_W": (0.5, 0.5, 0.5), key: value}
        with pytest.raises(ValueError,
                           match=f"scenario {key} must be finite"):
            Scenario(**fields)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_refused(self, threshold):
        """A NaN threshold would put every subject in stratum 0."""
        with pytest.raises(ValueError,
                           match="stratify threshold must be finite"):
            StratificationRule(covariate=1, threshold=threshold)
        with pytest.raises(ValueError,
                           match="stratify threshold must be finite"):
            scenario_from_config({
                "n": 40, "beta_A": [0, 0], "covariates": ["standard-normal"],
                "beta_W": [0.5], "scheme": "stratified-block",
                "stratify": {"covariate": 1, "threshold": threshold}})

    def test_allocation_must_be_two_positive_shares(self):
        with pytest.raises(ValueError):
            scenario1(allocation=(0.7, 0.7))
        with pytest.raises(ValueError):
            scenario1(allocation=(1.0, 0.0))

    @pytest.mark.parametrize("allocation", [
        (0.9, 0.9), (0.3, 0.3), (0.0, 1.0), (-0.5, 1.5), (0.5, 0.5, 0.0),
        (0.5,)])
    def test_allocation_refused_naming_the_field(self, allocation):
        """Two shares in (0, 1) summing to 1 (up to np.isclose), as a
        method's or an analysis's fixed pi; the error names the field."""
        with pytest.raises(ValueError, match=re.escape(
                "scenario allocation must be two shares in (0, 1) summing "
                f"to 1, got {allocation!r}")):
            scenario1(allocation=allocation)

    @pytest.mark.parametrize("allocation", [
        (0.3, 0.7), (1 / 3, 2 / 3), (0.5 + 1e-9, 0.5), ("0.25", 0.75)])
    def test_allocation_accepted(self, allocation):
        """np.isclose's tolerance on the sum, and numbers as
        errors.number reads them, as before."""
        s = scenario1(allocation=allocation)
        assert s.allocation == tuple(map(float, allocation))
        assert all(type(x) is float for x in s.allocation)

    def test_complete_randomization_must_fill_both_arms(self):
        """floor(5 * 0.1) = 0 subjects in arm 1: rejected when the scenario
        is built, not by the first replication of a run."""
        with pytest.raises(ValueError, match="arm empty"):
            Scenario(n=5, beta_A=(0.0, 0.0), allocation=(0.1, 0.9))
        Scenario(n=10, beta_A=(0.0, 0.0), allocation=(0.1, 0.9))

    def test_stratified_blocks_must_fill_both_arms(self):
        """Two strata that each fit in one arm's slots of a block can give
        a trial with an empty arm: n <= 2 max(b1, block_size - b1) is
        rejected when the scenario is built, where run_oc used to abort
        at the first such replication."""
        def stratified(n, allocation=(0.5, 0.5)):
            return Scenario(n=n, beta_A=(0.0, 0.0), beta_W=(0.5,),
                            covariates=(CovariateSpec("standard-normal"),),
                            allocation=allocation, scheme="stratified-block",
                            block_size=4, stratify=StratificationRule(1, 0.0))

        for n, allocation in ((3, (0.5, 0.5)), (4, (0.5, 0.5)),
                              (6, (0.25, 0.75))):
            with pytest.raises(ValueError, match="arm empty"):
                stratified(n, allocation)
        stratified(7, (0.25, 0.75))
        res = run_oc(stratified(5), [MethodSpec(name="u", test="wald")],
                     500, seed=1)
        assert res.reps == 500

    def test_stratified_blocks_need_an_integral_arm1_count(self):
        """Blocks of 3 at 1:1 have no integral arm-1 count: rejected when
        the scenario is built, not when run_oc draws its first trial."""
        with pytest.raises(ValueError, match="integral arm-1 count"):
            scenario1(n=40, scheme="stratified-block", block_size=3,
                      stratify=StratificationRule(1, 0.0))
        scenario1(n=40, scheme="stratified-block", block_size=3,
                  allocation=(1 / 3, 2 / 3),
                  stratify=StratificationRule(1, 0.0))

    def test_covariate_entries_read_when_built(self):
        """Config forms of a covariate become CovariateSpecs, and a bad
        entry fails when the scenario is built, not inside run_oc."""
        s = Scenario(n=40, beta_A=(0, 0), beta_W=(0.5, 0.5),
                     covariates=("standard-normal", {"bernoulli": 0.3}))
        assert s.covariates == (CovariateSpec("standard-normal"),
                                CovariateSpec("bernoulli", 0.3))
        for bad in ("uniform", 42, {"bernoulli": 2.0}):
            with pytest.raises(ValueError):
                Scenario(n=40, beta_A=(0, 0), beta_W=(0.5,),
                         covariates=(bad,))

    def test_stratified_scheme_needs_rule(self):
        with pytest.raises(ValueError):
            scenario1(scheme="stratified-block")

    def test_stratify_index_must_name_a_covariate(self):
        with pytest.raises(ValueError):
            scenario1(scheme="stratified-block",
                      stratify=StratificationRule(covariate=4,
                                                  threshold=0.25))

    def test_only_bernoulli_logit_outcomes(self):
        """Generated outcomes are bernoulli-logit, so a scenario has no
        family to choose: the key is unknown, whatever its value."""
        for family in ("bernoulli-logit", "gaussian-identity"):
            with pytest.raises(ValueError, match="unknown scenario keys: "
                                                 r"\['family'\]"):
                scenario_from_config({"n": 40, "beta_A": [-0.5, 0.5],
                                      "family": family})

    def test_covariate_spec_validation(self):
        with pytest.raises(ValueError):
            CovariateSpec(kind="uniform")
        with pytest.raises(ValueError):
            CovariateSpec(kind="bernoulli", p=1.5)
        with pytest.raises(ValueError):
            CovariateSpec(kind="standard-normal", p=0.5)


def _sequential_blocks(strata, block_size, allocation, rng):
    """Reference permuted blocks: one rng.permutation call per block, each
    stratum's blocks in turn."""
    b1 = round(block_size * allocation[0])
    base = np.array([1] * b1 + [2] * (block_size - b1))
    arms = np.empty(len(strata), dtype=int)
    for label in np.unique(strata):
        idx = np.flatnonzero(strata == label)
        seq = np.concatenate([rng.permutation(base) for _ in
                              range(-(-idx.size // block_size))])
        arms[idx] = seq[: idx.size]
    return arms


def _loop_draw(s, rngs):
    """Reference generator: each trial draws its covariates one at a time,
    then its arms (one permutation, or one stratum at a time), then its
    outcome uniforms; the outcome is formed from the stacked trials, as
    _draw forms it.  The stratum, under either scheme, takes no draw."""
    B, n, q = len(rngs), s.n, len(s.covariates)
    W = np.empty((B, n, q))
    arm = np.empty((B, n), dtype=int)
    u = np.empty((B, n))
    stratum = np.empty((B, n), dtype=int)
    n1 = int(np.floor(n * s.allocation[0]))
    b1 = round(s.block_size * s.allocation[0])
    base = np.array([1] * b1 + [2] * (s.block_size - b1))
    for b, rng in enumerate(rngs):
        for j, spec in enumerate(s.covariates):
            W[b, :, j] = (rng.standard_normal(n)
                          if spec.kind == "standard-normal"
                          else rng.random(n) < spec.p)
        if s.stratify is not None:
            stratum[b] = (W[b, :, s.stratify.covariate - 1]
                          > s.stratify.threshold)
        if s.scheme == "complete":
            arm[b] = rng.permutation([1] * n1 + [2] * (n - n1))
            u[b] = rng.random(n)
            continue
        for label in np.unique(stratum[b]):
            idx = np.flatnonzero(stratum[b] == label)
            blocks = np.tile(base, (-(-idx.size // s.block_size), 1))
            arm[b, idx] = rng.permuted(blocks, axis=1).ravel()[: idx.size]
        u[b] = rng.random(n)
    eta = np.asarray(s.beta_A)[arm - 1] + W @ np.asarray(s.beta_W)
    return (u < expit(eta)).astype(float), arm, W, stratum


def _recording(rngs, states):
    """The generators of ``rngs`` in turn, appending each one's state to
    ``states`` once it is done with: when the next is taken, or at
    close."""
    for rng in rngs:
        try:
            yield rng
        finally:
            states.append(rng.bit_generator.state)


def _sequential_arms(s, rng):
    """Reference arms of one trial of s, drawn as generate_trial draws
    them: its covariates one at a time, then one rng.permutation of the
    complete split or the _sequential_blocks of its strata S = I(W_j > c),
    then its outcome uniforms, so that ``rng`` ends where the trial's
    generator does."""
    W = [rng.standard_normal(s.n) if spec.kind == "standard-normal"
         else rng.random(s.n) < spec.p for spec in s.covariates]
    if s.scheme == "complete":
        n1 = int(np.floor(s.n * s.allocation[0]))
        arm = rng.permutation([1] * n1 + [2] * (s.n - n1))
    else:
        strata = W[s.stratify.covariate - 1] > s.stratify.threshold
        arm = _sequential_blocks(strata, s.block_size, s.allocation, rng)
    rng.random(s.n)
    return arm


def _blocked(n, block_size=4, allocation=(0.5, 0.5), threshold=0.25):
    """Stratified blocks on S = I(W1 > threshold), one normal covariate."""
    return Scenario(n=n, beta_A=(-0.4, 0.3), beta_W=(0.5,),
                    covariates=("standard-normal",), allocation=allocation,
                    scheme="stratified-block", block_size=block_size,
                    stratify=StratificationRule(1, threshold))


class TestRandomization:
    """Assignment by _draw, the one randomization path."""

    @pytest.mark.parametrize("block_size, allocation", [
        (2, (0.5, 0.5)), (4, (0.5, 0.5)), (6, (0.5, 0.5)), (8, (0.5, 0.5)),
        (4, (0.25, 0.75)), (6, (2 / 3, 1 / 3)), (8, (0.375, 0.625)),
    ])
    def test_blocks_draw_as_one_permutation_per_block(self, block_size,
                                                      allocation):
        """The same arms as the sequential reference, bit for bit, and
        each generator left where the reference leaves it, over trials
        of every n modulo the block size (odd n among them) whose
        stratum sizes end in a short block and ones that do not, drawn
        in one batch by default_rng generators or substreams."""
        cases = np.random.default_rng(block_size)
        for seed in range(40):
            n = int(cases.integers(3, 10)) * block_size + seed % block_size
            s = _blocked(n, block_size, allocation,
                         float(cases.uniform(-1.0, 1.0)))
            for make in (np.random.default_rng,
                         lambda r: _rep_rng(seed, r)):
                reps = range(6)
                states = []
                rngs = _recording([make(r) for r in reps], states)
                t = _draw(s, rngs, len(reps))
                rngs.close()
                for arm, state, r in zip(t.arm, states, reps):
                    ref = make(r)
                    np.testing.assert_array_equal(arm,
                                                  _sequential_arms(s, ref))
                    np.testing.assert_equal(state, ref.bit_generator.state)

    def test_complete_split_is_exact(self):
        rng = np.random.default_rng(1)
        arm = generate_trial(Scenario(n=10, beta_A=(0, 0)), rng).arm
        assert (arm == 1).sum() == 5 and (arm == 2).sum() == 5
        arm = generate_trial(Scenario(n=326, beta_A=(0, 0)), rng).arm
        assert (arm == 1).sum() == 163 and (arm == 2).sum() == 163

    def test_complete_odd_n_remainder_goes_to_arm_2(self):
        rng = np.random.default_rng(2)
        arm = generate_trial(Scenario(n=11, beta_A=(0, 0)), rng).arm
        assert (arm == 1).sum() == 5 and (arm == 2).sum() == 6

    def test_complete_all_assignments_reachable(self):
        """n=4 at 1:1 has 6 possible assignments; all appear over seeds."""
        s = Scenario(n=4, beta_A=(0, 0))
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            seen.add(tuple(generate_trial(s, rng).arm))
        assert len(seen) == 6

    def test_complete_is_reproducible(self):
        s = Scenario(n=50, beta_A=(0, 0))
        a = generate_trial(s, np.random.default_rng(7)).arm
        b = generate_trial(s, np.random.default_rng(7)).arm
        np.testing.assert_array_equal(a, b)

    def test_block_two_alternates_within_stratum(self):
        """Block size 2 at 1:1 puts one of each arm in every pair."""
        arm = generate_trial(_blocked(40, 2, threshold=50.0),
                             np.random.default_rng(3)).arm
        pairs = arm.reshape(-1, 2)
        assert (pairs.sum(axis=1) == 3).all()

    def test_block_balance_bound_per_stratum(self):
        """|n1 - n2| within a stratum is at most block_size/2 (the
        truncated final block is the only source of imbalance)."""
        rng = np.random.default_rng(4)
        for trial in range(50):
            s = _blocked(int(rng.integers(5, 60)),
                         threshold=float(rng.uniform(-1.0, 1.0)))
            data = generate_trial(s, rng)
            for lab in (0, 1):
                in_s = data.covariates[:, -1] == lab
                n1 = (data.arm[in_s] == 1).sum()
                n2 = (data.arm[in_s] == 2).sum()
                assert abs(int(n1) - int(n2)) <= 2

    def test_block_full_blocks_exactly_balanced(self):
        arm = generate_trial(_blocked(24, threshold=50.0),
                             np.random.default_rng(5)).arm
        blocks = arm.reshape(-1, 4)
        assert ((blocks == 1).sum(axis=1) == 2).all()

    def test_block_incompatible_allocation_rejected(self):
        with pytest.raises(ValueError, match="integral arm-1 count"):
            _blocked(12, 4, (1 / 3, 2 / 3))

    def test_block_reproducible(self):
        s = _blocked(40)
        a = generate_trial(s, np.random.default_rng(8)).arm
        b = generate_trial(s, np.random.default_rng(8)).arm
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("threshold", [-50.0, 0.25, 50.0],
                             ids=["only-S1", "both", "only-S0"])
    def test_block_one_stratum_or_both(self, threshold):
        """A trial whose subjects all fall in S = 1, or all in S = 0,
        draws like the sequential reference, as one with both strata
        does, and leaves the generator where it leaves it."""
        s = _blocked(37, threshold=threshold)
        for seed in range(30):
            rng, ref = _rep_rng(seed, 0), _rep_rng(seed, 0)
            data = generate_trial(s, rng)
            np.testing.assert_array_equal(data.arm, _sequential_arms(s, ref))
            np.testing.assert_equal(rng.bit_generator.state,
                                    ref.bit_generator.state)
            if threshold != 0.25:
                assert (data.covariates[:, -1] == (threshold < 0)).all()


class TestGenerateTrial:
    """Dataset generation from a scenario."""

    def test_shapes_names_and_binary_outcome(self):
        data = generate_trial(scenario1(), np.random.default_rng(9))
        assert data.n == 326
        assert data.covariate_names == ("W1", "W2", "W3")
        assert data.covariates.shape == (326, 3)
        assert set(np.unique(data.outcome)) <= {0.0, 1.0}
        assert (data.arm == 1).sum() == 163

    def test_stratified_trial_exposes_stratum_as_covariate(self):
        s = scenario1(scheme="stratified-block", block_size=4,
                      stratify=StratificationRule(covariate=3,
                                                  threshold=0.25))
        data = generate_trial(s, np.random.default_rng(10))
        assert data.covariate_names == ("W1", "W2", "W3", "S")
        expected = (data.covariates[:, 2] > 0.25).astype(float)
        np.testing.assert_array_equal(data.covariates[:, 3], expected)
        for lab in (0, 1):
            in_s = data.covariates[:, 3] == lab
            gap = abs(int((data.arm[in_s] == 1).sum())
                      - int((data.arm[in_s] == 2).sum()))
            assert gap <= 2

    def test_complete_trial_keeps_its_stratum(self):
        """Complete randomization with a stratify rule still writes S =
        I(W_j > c) as the "S" column, after other arrays have been made
        and freed."""
        s = scenario1(stratify=StratificationRule(covariate=3,
                                                  threshold=0.25))
        for seed in range(3):
            np.full((1, 4, s.n), 7.5)  # leave non-zero memory behind
            data = generate_trial(s, np.random.default_rng(seed))
            assert data.covariate_names == ("W1", "W2", "W3", "S")
            expected = data.covariates[:, 2] > 0.25
            assert 0 < expected.sum() < s.n
            np.testing.assert_array_equal(data.covariates[:, 3], expected)

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

    @pytest.mark.parametrize("s", [
        Scenario(n=41, beta_A=(-0.4, 0.3), beta_W=(0.5, -0.8, 0.3, 0.2),
                 covariates=("standard-normal", {"bernoulli": 0.3},
                             "standard-normal", "standard-normal"),
                 scheme="stratified-block", block_size=4,
                 stratify=StratificationRule(covariate=2, threshold=0.5)),
        Scenario(n=41, beta_A=(-0.4, 0.3), beta_W=(0.5, -0.8),
                 covariates=("standard-normal", {"bernoulli": 0.4}),
                 allocation=(0.3, 0.7)),
        Scenario(n=43, beta_A=(-0.4, 0.3), beta_W=(0.5, -0.8, 0.2),
                 covariates=("standard-normal", {"bernoulli": 0.3},
                             {"bernoulli": 0.3}),
                 allocation=(0.25, 0.75), scheme="stratified-block",
                 block_size=4,
                 stratify=StratificationRule(covariate=2, threshold=0.5)),
        Scenario(n=40, beta_A=(-0.4, 0.3), beta_W=(0.5, 0.1),
                 covariates=("standard-normal", "standard-normal"),
                 scheme="stratified-block", block_size=4,
                 stratify=StratificationRule(covariate=1, threshold=50.0)),
        Scenario(n=41, beta_A=(-0.4, 0.3), beta_W=(0.5, -0.8, 0.3),
                 covariates=("standard-normal", {"bernoulli": 0.4},
                             "standard-normal"),
                 stratify=StratificationRule(covariate=3, threshold=0.25)),
    ], ids=["stratified-mixed", "complete-0.3-odd-n", "bernoulli-stratum-1:3",
            "one-stratum-empty", "complete-with-stratum"])
    @pytest.mark.parametrize("path", ["substreams", "default_rng",
                                      "re-keyed"])
    def test_draw_matches_the_per_covariate_loop(self, s, path):
        """Runs of equal covariate specs draw in one call, a trial's
        arms in one rng.permuted call, and draws land in
        place; the trials and every generator's state after its trial
        equal those of one draw per covariate and one per stratum, also
        when one generator re-keyed per replication draws the batch."""
        reps = range(1000, 1012)
        make = np.random.default_rng if path == "default_rng" \
            else lambda r: _rep_rng(21, r)
        refs = [make(r) for r in reps]
        states = []
        rngs = _recording(_rep_rngs(21, reps) if path == "re-keyed"
                          else [make(r) for r in reps], states)
        t = _draw(s, rngs, len(reps))
        rngs.close()
        y, arm, W, stratum = _loop_draw(s, refs)
        q = len(s.covariates)
        np.testing.assert_array_equal(t.outcome, y)
        np.testing.assert_array_equal(t.arm, arm)
        np.testing.assert_array_equal(t.covariates[..., :q], W)
        if s.stratify is not None:
            np.testing.assert_array_equal(t.covariates[..., q], stratum)
        assert t.covariates.shape[-1] == len(t.covariate_names)
        assert len(states) == len(refs)
        for state, ref in zip(states, refs):
            np.testing.assert_equal(state, ref.bit_generator.state)

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
        b0 = calibrate_intercepts(targets, BETA_W3, THREE_NORMALS)
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

    def test_checks_the_pair_before_bisecting(self, monkeypatch):
        """Three targets are refused before any marginal mean is
        computed, not after two bisections."""
        calls = []

        def counted(*args):
            calls.append(1)
            return _marginal_mean(*args)

        monkeypatch.setattr(simulation, "_marginal_mean", counted)
        with pytest.raises(ValueError, match="pair"):
            calibrate_intercepts((0.2, 0.3, 0.4), (0.4,),
                                 (CovariateSpec("standard-normal"),))
        assert calls == []

    @pytest.mark.parametrize("slope", [True, np.False_],
                             ids=["bool", "numpy-bool"])
    def test_refuses_boolean_slopes(self, slope):
        with pytest.raises(TypeError, match=re.escape(
                f"beta_W must be a number, got {slope!r}")):
            calibrate_intercepts((0.3, 0.45), (0.4, slope),
                                 ("standard-normal", "standard-normal"))

    @pytest.mark.parametrize("target", ["x", True, None])
    def test_refuses_a_target_that_is_not_a_number(self, target):
        with pytest.raises(TypeError, match=re.escape(
                f"targets must be a number, got {target!r}")):
            calibrate_intercepts((0.3, target), (0.4,), ("standard-normal",))

    @pytest.mark.parametrize("slope", [np.nan, np.inf])
    def test_refuses_non_finite_slopes(self, slope):
        """Not "outside the bracket": the slope is named."""
        with pytest.raises(ValueError, match="beta_W must be finite"):
            calibrate_intercepts((0.3, 0.45), (0.4, slope),
                                 ("standard-normal", "standard-normal"))

    def test_one_slope_per_covariate(self):
        """An extra slope is an error, not silently dropped."""
        with pytest.raises(ValueError, match="2 slopes for 1 covariates"):
            calibrate_intercepts((0.2, 0.3), (0.4, 0.2),
                                 (CovariateSpec("standard-normal"),))

    def test_reads_covariates_as_scenario_does(self):
        """Covariates in any form Scenario accepts give the same
        intercepts as the CovariateSpecs they stand for."""
        want = calibrate_intercepts(
            (0.2, 0.3), (0.4, 0.7),
            (CovariateSpec("standard-normal"), CovariateSpec("bernoulli", 0.3)))
        assert calibrate_intercepts((0.2, 0.3), [0.4, 0.7],
                                    ["standard-normal", {"bernoulli": 0.3}]) \
            == want


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

    # every 32-bit word boundary of the seed, the largest seed that fills
    # the four-word pool (2**128 - 1), and seeds of five words (2**128 + 3;
    # 3**100 has 159 bits, 2**160 - 1 all 160)
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128 + 3,
             3**100, 2**160 - 1]

    @staticmethod
    def _reps(seed):
        sample = np.random.default_rng(seed % 2**32).integers(0, 2**32, 12)
        return [0, 1, 2**31, 2**32 - 1, *sample.tolist()]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_keys_are_numpy_seed_sequence_keys(self, seed):
        """_rep_keys finishes NumPy's SeedSequence hash from its pool;
        each row is the key Philox takes from
        SeedSequence(seed, spawn_key=(r,))."""
        reps = self._reps(seed)
        got = _rep_keys(seed, reps)
        assert got.dtype == np.uint64 and got.shape == (len(reps), 2)
        np.testing.assert_array_equal(got, [
            np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(
                2, np.uint64) for r in reps])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rekeyed_generator_is_each_replications_generator(self, seed):
        """At each yield the one re-keyed generator is in the state of
        _rep_rng(seed, r), also after the replication before it left a
        spare 32-bit half (a 32-bit draw) or shuffled."""
        reps = self._reps(seed)
        rngs = _rep_rngs(seed, reps)
        for i, (r, rng) in enumerate(zip(reps, rngs)):
            np.testing.assert_equal(rng.bit_generator.state,
                                    _rep_rng(seed, r).bit_generator.state)
            if i % 2:
                rng.integers(0, 10, dtype=np.uint32)
                assert rng.bit_generator.state["has_uint32"] == 1
            else:
                rng.shuffle(np.arange(5))
        assert next(rngs, None) is None


class TestRunOC:
    """The replication engine and its tallies."""

    def test_determinism_and_worker_independence(self):
        """Also for a seed of five 32-bit words (2**128 + 3), whose keys
        start the spawn-key hash further along NumPy's chain."""
        s = scenario1(n=60)
        methods = (MethodSpec(name="gc-score", test="score", model=ADJUSTED),)
        for seed in (424, 2**128 + 3):
            a = run_oc(s, methods, reps=300, seed=seed, workers=1)
            b = run_oc(s, methods, reps=300, seed=seed, workers=1)
            c = run_oc(s, methods, reps=300, seed=seed, workers=2)
            assert a == b
            assert a == c
            assert a.seed == seed

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
        """Replications whose score ratio interval is undefined (n = 40)
        fail that method only: they are counted in n_failed and left out
        of its rates, and the other method uses every replication."""
        methods = (
            MethodSpec(name="ratio", test="score", measure="ratio"),
            MethodSpec(name="ok", test="score", model="unadjusted"),
        )
        est, reject, lo, hi, failed = _run_chunk(
            STRATIFIED40, _plan(STRATIFIED40, methods, 0.95), 5, range(60))
        res = run_oc(STRATIFIED40, methods, reps=60, seed=5)
        ratio, ok = res.methods
        used = ~failed[:, 0]
        assert 0 < ratio.n_failed == int(failed[:, 0].sum()) < 60
        assert ratio.n_used == int(used.sum())
        assert not reject[~used, 0].any()
        assert np.isnan(est[~used, 0]).all()
        assert ratio.rejection_rate == reject[used, 0].mean() \
            > reject[:, 0].mean()
        assert ratio.mean_estimate == est[used, 0].mean()
        assert ok.n_failed == 0
        assert ok.rejection_rate == reject[:, 1].mean()

    def test_method_failing_every_replication_gets_nan_silently(self):
        """At n = 3 the score difference interval never exists (n must
        exceed the critical value 3.84), so that method has no clean
        replication: NaN rate, coverage, mean estimate and MC errors,
        with no RuntimeWarning, beside a method that never fails."""
        methods = (MethodSpec(name="score", test="score"),
                   MethodSpec(name="wald", test="wald"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score, wald = run_oc(Scenario(n=3, beta_A=(0.0, 0.0)), methods,
                                 reps=40, seed=1).methods
        assert score.n_failed == 40 and score.n_used == 0
        assert np.isnan([score.rejection_rate, score.coverage,
                         score.mean_estimate, score.mc_se_rejection,
                         score.mc_se_coverage]).all()
        assert wald.n_failed == 0
        assert np.isfinite([wald.rejection_rate, wald.coverage,
                            wald.mean_estimate]).all()

    @pytest.mark.parametrize("s, covariates, unknown", [
        (scenario1(n=60), ("W1", "W9"), ["W9"]),
        # S exists only in stratified scenarios
        (scenario1(n=60), ("S", "W3"), ["S"]),
        (STRATIFIED40, ("W4", "S", "T"), ["W4", "T"]),
    ])
    def test_model_covariates_the_scenario_lacks_rejected_before_any_trial(
            self, monkeypatch, s, covariates, unknown):
        def no_trials(*args):
            raise AssertionError("a trial was generated")

        monkeypatch.setattr("gscore.simulation._draw", no_trials)
        methods = (MethodSpec(name="ok", test="wald"),
                   MethodSpec(name="bad", test="score", model=ModelSpec(
                       family="bernoulli-logit", covariates=covariates)))
        with pytest.raises(ValueError, match=re.escape(
                f"method 'bad': model covariates {unknown}")):
            run_oc(s, methods, reps=2, seed=1)

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

        monkeypatch.setattr("gscore.simulation._draw", no_trials)
        s = Scenario(n=n, covariates=(CovariateSpec(kind="standard-normal"),),
                     beta_W=(0.5,), beta_A=(0.0, 0.0))
        model = ModelSpec(family="bernoulli-logit", covariates=("W1",),
                          heterogeneous=heterogeneous)
        methods = (MethodSpec(name="hc1", test="wald", model=model,
                              correction="HC1"),)
        with pytest.raises(ValueError, match="HC1 needs n > p"):
            run_oc(s, methods, reps=2, seed=1)

    @pytest.mark.parametrize("correction", ["HC0", "HC1"])
    def test_more_columns_than_subjects_rejected_before_any_trial(
            self, monkeypatch, correction):
        """A per-arm model on three covariates has p = 8 columns; with
        n = 6 every fit would be rank deficient, whatever the correction,
        so run_oc refuses before generating a trial."""
        def no_trials(*args):
            raise AssertionError("a trial was generated")

        monkeypatch.setattr("gscore.simulation._draw", no_trials)
        model = ModelSpec(family="bernoulli-logit",
                          covariates=("W1", "W2", "W3"), heterogeneous=True)
        methods = (MethodSpec(name="ok", test="wald"),
                   MethodSpec(name="wide", test="score", model=model,
                              correction=correction))
        with pytest.raises(ValueError, match=re.escape(
                "method 'wide': the model has p=8 columns but a trial has "
                "n=6 subjects")):
            run_oc(scenario1(n=6), methods, reps=2, seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected_before_any_trial(self, monkeypatch,
                                                         workers):
        def no_trials(*args):
            raise AssertionError("a trial was generated")

        monkeypatch.setattr("gscore.simulation._draw", no_trials)
        methods = (MethodSpec(name="m", test="wald"),)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_oc(scenario1(n=60), methods, reps=5, seed=1, workers=workers)

    @staticmethod
    def _refuse_past_the_argument_checks(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_oc went past its argument checks")

        for name in ("_plan", "true_marginal_means", "_draw", "_run_shares"):
            monkeypatch.setattr(f"gscore.simulation.{name}", refuse)

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (np.int64(-3), ValueError), (1.5, TypeError),
        ("7", TypeError), (None, TypeError), (True, TypeError)])
    def test_bad_seed_rejected_before_the_plan_truth_or_pool(
            self, monkeypatch, seed, error):
        """A seed that is not a non-negative integer is refused first,
        before the plan, the truth, any trial or any helper process."""
        self._refuse_past_the_argument_checks(monkeypatch)
        methods = (MethodSpec(name="m", test="wald"),)
        with pytest.raises(error, match="seed must be"):
            run_oc(scenario1(n=60), methods, reps=600, seed=seed, workers=2)

    @pytest.mark.parametrize("name, value", [
        ("workers", 1.5), ("workers", 2.5), ("workers", "2"),
        ("workers", None), ("workers", True), ("reps", 600.0),
        ("reps", "600"), ("reps", True)])
    def test_non_integer_count_rejected_before_the_plan_truth_or_pool(
            self, monkeypatch, name, value):
        self._refuse_past_the_argument_checks(monkeypatch)
        methods = (MethodSpec(name="m", test="wald"),)
        counts = {"reps": 600, "workers": 2, name: value}
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            run_oc(scenario1(n=60), methods, seed=1, **counts)

    def test_no_methods_rejected_before_the_plan_truth_or_pool(
            self, monkeypatch):
        """A run with no method would tally nothing: it is refused before
        the plan, the truth, any trial or any helper process."""
        self._refuse_past_the_argument_checks(monkeypatch)
        for methods in ((), []):
            with pytest.raises(ValueError, match=re.escape(
                    "run_oc needs at least one method, got none")):
                run_oc(scenario1(n=60), methods, reps=600, seed=1,
                       workers=2)

    @pytest.mark.parametrize("level", [True, np.False_])
    def test_boolean_level_rejected(self, level):
        methods = (MethodSpec(name="m", test="wald"),)
        with pytest.raises(TypeError, match=re.escape(
                f"level must be a number, got {level!r}")):
            run_oc(scenario1(n=60), methods, reps=5, seed=1, level=level)

    def test_level_is_read_as_hypothesis_reads_it(self):
        """A numeric string is the level it spells, also in the result;
        a level outside (0, 1) or not a number is refused even with no
        methods."""
        r = run_oc(scenario1(n=60), (MethodSpec(name="m", test="wald"),),
                   reps=5, seed=1, level="0.9")
        assert r.level == 0.9 and type(r.level) is float
        with pytest.raises(ValueError, match=re.escape(
                "level must be in (0, 1), got 5.0")):
            run_oc(scenario1(n=60), (), reps=5, seed=1, level=5)
        with pytest.raises(TypeError, match=re.escape(
                "level must be a number, got 'x'")):
            run_oc(scenario1(n=60), (), reps=5, seed=1, level="x")

    def test_per_arm_run_under_warnings_as_errors(self):
        """A covariate that is constant in most trials (Bernoulli(0.05),
        n = 20) makes most per-arm fits rank deficient: they are counted
        as failed replications, with no warning, so a run under
        warnings-as-errors gives the default filter's tallies."""
        s = Scenario(n=20, beta_A=(-1.0, -1.0), beta_W=(0.0,),
                     covariates=({"bernoulli": 0.05},))
        m = MethodSpec("per-arm-wald", "wald", ModelSpec(
            "bernoulli-logit", ("W1",), heterogeneous=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_oc(s, (m,), reps=300, seed=1)
        assert (r.methods[0].n_total, r.methods[0].n_failed) == (300, 249)

    def test_numpy_integer_workers_and_reps_are_the_same_counts(self):
        methods = (MethodSpec(name="m", test="wald"),)
        s = scenario1(n=60)
        assert run_oc(s, methods, reps=np.int32(600), seed=3,
                      workers=np.int64(2)) \
            == run_oc(s, methods, reps=600, seed=3)

    def test_numpy_integer_seed_is_the_same_seed(self):
        methods = (MethodSpec(name="m", test="wald"),)
        s = scenario1(n=60)
        assert run_oc(s, methods, reps=5, seed=np.uint32(3)) \
            == run_oc(s, methods, reps=5, seed=3)

    @pytest.mark.parametrize("reps", [0, -3, 2**32])
    def test_reps_out_of_range_rejected_before_any_trial(self, monkeypatch,
                                                         reps):
        """Below one, or so many that the last index needs a second
        spawn-key word: refused before the plan, the truth or any helper
        process."""
        self._refuse_past_the_argument_checks(monkeypatch)
        methods = (MethodSpec(name="m", test="wald"),)
        with pytest.raises(ValueError, match="reps must be at least 1"):
            run_oc(scenario1(n=60), methods, reps=reps, seed=1, workers=2)

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


_W123 = ModelSpec("bernoulli-logit", ("W1", "W2", "W3"))
PINNED_METHODS = (
    MethodSpec("unadj-wald", "wald"),
    MethodSpec("unadj-score-ratio", "score", measure="ratio"),
    MethodSpec("I-score-diff", "score", _W123, estimator="I"),
    MethodSpec("II-score-diff", "score", _W123, estimator="II",
               pi=(0.5, 0.5)),
    MethodSpec("III-wald-diff", "wald", _W123, estimator="III",
               correction="HC1", sidedness="two-sided"),
    MethodSpec("I-wald-ratio", "wald", _W123, measure="ratio"),
    MethodSpec("I-score-ratio", "score", _W123, measure="ratio"),
    MethodSpec("II-score-ratio", "score", _W123, measure="ratio",
               estimator="II"),
    MethodSpec("III-score-ratio", "score", _W123, measure="ratio",
               estimator="III"),
    MethodSpec("S-score-III-ratio", "score",
               ModelSpec("bernoulli-logit", ("S",)), measure="ratio",
               estimator="III"),
)
# (name, n_failed, rejections, covered, mean_estimate) over 150 reps of
# the stratified n = 40 scenario below, seed 3.  Every failure here is an
# undefined score ratio interval.  Numerical rewrites of the fit,
# variance or test kernels must leave these tallies exactly as they are.
PINNED_TALLIES = (
    ("unadj-wald", 0, 29, 143, 0.15971826029720768),
    ("unadj-score-ratio", 20, 11, 127, 1.5183470706403037),
    ("I-score-diff", 0, 32, 138, 0.16393880555412058),
    ("II-score-diff", 0, 35, 137, 0.16393880555412058),
    ("III-wald-diff", 0, 31, 139, 0.16393880555412058),
    ("I-wald-ratio", 0, 20, 143, 1.8253175872590244),
    ("I-score-ratio", 19, 16, 123, 1.5551921720138944),
    ("II-score-ratio", 20, 16, 123, 1.5399664040730214),
    ("III-score-ratio", 21, 14, 122, 1.5364118923071552),
    ("S-score-III-ratio", 19, 12, 127, 1.5254827001246012),
)


class TestRunOCPinned:
    """Exact OC tallies on a small stratified scenario covering every
    estimator, both measures and both tests."""

    def test_tallies_pinned(self):
        s = scenario1(n=40, scheme="stratified-block", block_size=4,
                      stratify=StratificationRule(covariate=3,
                                                  threshold=0.25))
        res = run_oc(s, PINNED_METHODS, reps=150, seed=3, workers=1)
        got = []
        for m in res.methods:
            got.append((m.name, m.n_failed,
                        round(m.rejection_rate * m.n_used),
                        round(m.coverage * m.n_used)))
        assert got == [t[:4] for t in PINNED_TALLIES]
        for m, t in zip(res.methods, PINNED_TALLIES):
            assert m.mean_estimate == pytest.approx(t[4], rel=0, abs=1e-10)


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

    def test_minimal_scenario_equals_spelled_out(self):
        """Absent keys take the Scenario defaults."""
        minimal = {"n": 40, "beta_A": [-0.5, 0.5]}
        spelled = {**minimal, "covariates": [], "beta_W": [],
                   "allocation": [0.5, 0.5], "scheme": "complete",
                   "block_size": 4, "stratify": None}
        assert scenario_from_config(minimal) == scenario_from_config(spelled)
        assert scenario_from_config(minimal) == Scenario(n=40,
                                                         beta_A=(-0.5, 0.5))

    def test_missing_required_key_named(self):
        with pytest.raises(ValueError, match="'beta_A'"):
            scenario_from_config({"n": 10})
        with pytest.raises(ValueError, match="'test'"):
            methods_from_config([{"name": "m"}])[0]
        with pytest.raises(ValueError, match="'kind'"):
            covariate_spec_from_config({"p": 0.3})

    def test_python_callers_get_the_config_conversions(self):
        """Values a config file would hold convert the same way when a
        dataclass is built directly; NumPy integers become ints."""
        s = Scenario(n=np.int64(40), beta_A=(0, 0), block_size=np.int32(4),
                     covariates=(CovariateSpec(kind="bernoulli", p="0.5"),),
                     beta_W=(1,), scheme="stratified-block",
                     stratify=StratificationRule(covariate=np.int64(1),
                                                 threshold="0.5"))
        assert (type(s.n), type(s.block_size)) == (int, int)
        assert type(s.stratify.covariate) is int
        assert s.covariates[0].p == 0.5
        assert s.stratify == StratificationRule(covariate=1, threshold=0.5)
        assert ModelSpec(family="bernoulli-logit",
                         heterogeneous=1).heterogeneous is True
        assert MethodSpec(name=7, test="wald").name == "7"

    @pytest.mark.parametrize("key, name", [
        ("n", "scenario n"), ("block_size", "scenario block_size"),
        ("covariate", "stratify covariate")], ids=["n", "block_size",
                                                   "covariate"])
    @pytest.mark.parametrize("bad", [40.7, 4.0, "40", True],
                             ids=["float", "integral-float", "string",
                                  "bool"])
    def test_integer_fields_refuse_floats_and_strings(self, key, name, bad):
        """n, block_size and the stratify covariate are read as integers,
        never truncated: a float, even an integral one, a string or a
        bool is a TypeError naming the field, from Python and from a
        config."""
        d = {"n": 40, "beta_A": [0, 0], "covariates": ["standard-normal"],
             "beta_W": [0.5], "scheme": "stratified-block", "block_size": 4,
             "stratify": {"covariate": 1, "threshold": 0.0}}
        if key == "covariate":
            d["stratify"] = {**d["stratify"], key: bad}
        else:
            d[key] = bad
        message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            scenario_from_config(d)
        with pytest.raises(TypeError, match=re.escape(message)):
            Scenario(**{**d, "stratify": StratificationRule(**d["stratify"])})

    @pytest.mark.parametrize("key, bad, message", [
        ("threshold", True, "stratify threshold must be a number, got True"),
        ("threshold", np.False_,
         "stratify threshold must be a number, got np.False_"),
        ("beta_A", [np.True_, 0.0],
         "scenario beta_A must be a number, got np.True_"),
        ("beta_A", [0.0, False], "scenario beta_A must be a number, "
                                 "got False"),
        ("beta_W", [True], "scenario beta_W must be a number, got True"),
        ("allocation", [0.5, np.True_],
         "scenario allocation must be a number, got np.True_"),
        ("threshold", "x", "stratify threshold must be a number, got 'x'"),
        ("beta_A", ["x", 0.0], "scenario beta_A must be a number, got 'x'"),
        ("beta_W", [None], "scenario beta_W must be a number, got None"),
        ("allocation", [0.5, "1/2"],
         "scenario allocation must be a number, got '1/2'"),
        ("covariates", [{"bernoulli": "x"}],
         "covariate p must be a number, got 'x'")],
        ids=["threshold", "threshold-numpy", "beta_A-numpy", "beta_A",
             "beta_W", "allocation-numpy", "threshold-string",
             "beta_A-string", "beta_W-none", "allocation-string",
             "p-string"])
    def test_float_fields_refuse_booleans(self, key, bad, message):
        """float() reads True as 1.0: a Python or NumPy bool in a
        scenario's coefficient, share, threshold or Bernoulli p is a
        TypeError naming the field, from Python and from a config (YAML's
        true); so is what float() refuses, not with float()'s own
        message."""
        d = {"n": 40, "beta_A": [0, 0], "covariates": ["standard-normal"],
             "beta_W": [0.5], "scheme": "stratified-block", "block_size": 4,
             "stratify": {"covariate": 1, "threshold": 0.0}}
        if key in d["stratify"]:
            d["stratify"] = {**d["stratify"], key: bad}
        else:
            d[key] = bad
        with pytest.raises(TypeError, match=re.escape(message)):
            scenario_from_config(d)
        with pytest.raises(TypeError, match=re.escape(message)):
            Scenario(**{**d, "stratify": StratificationRule(**d["stratify"])})

    @pytest.mark.parametrize("key, bad", [
        ("beta_A", 0.5), ("beta_W", 0.5), ("allocation", 0.5),
        ("covariates", "standard-normal"), ("beta_W", "x"),
        ("covariates", None)])
    def test_list_fields_refuse_a_scalar_or_a_string(self, key, bad):
        """A scalar or a bare string where a list belongs is a TypeError
        naming the field, from Python and from a config: not "'float'
        object is not iterable", nor a string split into characters
        ("unknown covariate kind 's'")."""
        d = {"n": 40, "beta_A": [0, 0], "covariates": ["standard-normal"],
             "beta_W": [0.5], key: bad}
        message = f"scenario {key} must be a list, got {bad!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            scenario_from_config(d)
        with pytest.raises(TypeError, match=re.escape(message)):
            Scenario(**d)

    @pytest.mark.parametrize("kw, message", [
        ({"targets": 0.3}, "targets must be a list, got 0.3"),
        ({"beta_W": 0.4}, "beta_W must be a list, got 0.4"),
        ({"covariates": "standard-normal"},
         "covariates must be a list, got 'standard-normal'")])
    def test_calibrate_list_arguments_refuse_a_scalar_or_a_string(
            self, kw, message):
        args = {"targets": (0.3, 0.45), "beta_W": (0.4,),
                "covariates": ("standard-normal",), **kw}
        with pytest.raises(TypeError, match=re.escape(message)):
            calibrate_intercepts(**args)

    def test_numpy_integer_fields_are_the_same_scenario(self):
        """NumPy integers in the integer fields of a config give the
        scenario that Python integers give."""
        d = {"n": 40, "beta_A": [0, 0], "covariates": ["standard-normal"],
             "beta_W": [0.5], "scheme": "stratified-block", "block_size": 4,
             "stratify": {"covariate": 1, "threshold": 0.0}}
        s = scenario_from_config({**d, "n": np.int64(40),
                                  "block_size": np.int32(4),
                                  "stratify": {"covariate": np.int16(1),
                                               "threshold": 0.0}})
        assert s == scenario_from_config(d)
        assert {type(s.n), type(s.block_size),
                type(s.stratify.covariate)} == {int}

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
        m = methods_from_config([d])[0]
        assert m.model == ModelSpec(family="bernoulli-logit",
                                    covariates=("W1", "W2"))
        assert m.estimator == "II"
        assert m.pi == (0.5, 0.5)
        assert m.sidedness == "greater"  # engine default

    def test_method_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            methods_from_config([{"name": "m", "test": "wald",
                                  "alpha": 0.05}])[0]
        with pytest.raises(ValueError):
            methods_from_config([{"name": "m", "test": "wald",
                                  "model": {"family": "bernoulli-logit",
                                            "link": "logit"}}])[0]

    @pytest.mark.parametrize("field, value", [
        ("test", "bogus"), ("measure", "odds"), ("estimator", "IV"),
        ("correction", "HC3"), ("sidedness", "both"), ("model", "adjusted")])
    def test_method_unknown_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            methods_from_config([{"name": "m", "test": "wald",
                                  field: value}])[0]
        with pytest.raises(ValueError, match=field):
            MethodSpec(**{"name": "m", "test": "wald", field: value})

    @pytest.mark.parametrize("pi, error", [
        ([0.0, 1.0], ValueError), ([0.5, 1.5], ValueError),
        ([0.5], ValueError), ([0.3, 0.3, 0.4], ValueError),
        (["a", "b"], TypeError)], ids=["pi0", "pi1", "pi2", "pi3", "pi4"])
    def test_method_pi_outside_unit_interval_rejected(self, pi, error):
        """A bad allocation pair fails when the method is built, not in
        every replication of the run; a non-number is errors.number's
        TypeError."""
        with pytest.raises(error, match="method 'm': pi must be"):
            methods_from_config([{"name": "m", "test": "score",
                                  "estimator": "II", "pi": pi}])[0]

    @pytest.mark.parametrize("pi", [(0.9, 0.9), (0.3, 0.3)])
    def test_method_pi_must_sum_to_one(self, pi):
        """Allocation probabilities of two arms sum to 1: a pair that does
        not is refused, naming the method, from Python and from a
        config."""
        message = ("method 'gc-score-II': pi must be two shares in (0, 1) "
                   f"summing to 1, got {pi!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            MethodSpec(name="gc-score-II", test="score", estimator="II",
                       pi=pi)
        with pytest.raises(ValueError, match=re.escape(message)):
            methods_from_config([{"name": "gc-score-II", "test": "score",
                                  "estimator": "II", "pi": pi}])
        assert MethodSpec(name="m", test="score", estimator="III",
                          pi=(0.25, 0.75)).pi == (0.25, 0.75)

    @pytest.mark.parametrize("measure, null, message", [
        ("difference", float("nan"), "null_value must be finite, got nan"),
        ("difference", float("inf"), "null_value must be finite, got inf"),
        ("difference", float("-inf"), "null_value must be finite, got -inf"),
        ("ratio", float("nan"), "null_value must be finite, got nan"),
        ("ratio", 0.0, "ratio null value must be positive"),
        ("ratio", -1.0, "ratio null value must be positive"),
    ], ids=["nan", "inf", "-inf", "ratio-nan", "ratio-zero",
            "ratio-negative"])
    def test_method_bad_null_rejected_naming_the_method(self, measure, null,
                                                         message):
        """A null the method's Hypothesis refuses fails when the method is
        built, with the method named; None, and any finite difference or
        positive ratio null, are taken as given."""
        with pytest.raises(ValueError,
                           match=re.escape(f"method 'u': {message}")):
            MethodSpec(name="u", test="wald", measure=measure,
                       null_value=null)
        for ok in (None, -0.5 if measure == "difference" else 0.5):
            m = MethodSpec(name="u", test="wald", measure=measure,
                           null_value=ok)
            assert m.null_value == ok

    @pytest.mark.parametrize("measure", ["difference", "ratio"])
    @pytest.mark.parametrize("null", [True, False, np.True_],
                             ids=["true", "false", "numpy-true"])
    def test_method_boolean_null_rejected_naming_the_method(self, measure,
                                                             null):
        """A null of True is not 1.0: a TypeError when the method is
        built, from Python and from a config, with the method named."""
        message = f"method 'u': null_value must be a number, got {null!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            MethodSpec(name="u", test="wald", measure=measure,
                       null_value=null)
        with pytest.raises(TypeError, match=re.escape(message)):
            methods_from_config([{"name": "u", "test": "wald",
                                  "measure": measure, "null_value": null}])[0]

    def test_methods_document_forms(self):
        lst = [{"name": "a", "test": "wald"}, {"name": "b", "test": "score"}]
        assert len(methods_from_config(lst)) == 2
        assert len(methods_from_config({"methods": lst})) == 2
        with pytest.raises(ValueError):
            methods_from_config({"methods": lst, "seed": 1})
        with pytest.raises(TypeError, match=re.escape(
                "methods must be a list, got 'gc-score-I'")):
            methods_from_config({"methods": "gc-score-I"})

    def test_methods_document_without_the_methods_key(self):
        """A mapping without "methods" is refused in from_config's words,
        not by a bare KeyError."""
        with pytest.raises(ValueError, match=re.escape(
                "methods document is missing the 'methods' key")):
            methods_from_config({})


class TestBatchedEngine:
    """run_oc analyzes a batch of replications per kernel call, sized by
    a budget of _BATCH_ROWS subject-rows; neither the batch size nor the
    worker count may change a result, and every replication gets the
    scalar pipeline's numbers bit for bit."""

    def test_results_independent_of_batch_size_and_workers(
            self, monkeypatch):
        methods = PINNED_METHODS + (
            MethodSpec("I-wald-diff-per-arm", "wald", ModelSpec(
                "bernoulli-logit", ("W1",), heterogeneous=True)),)
        plan = _plan(STRATIFIED40, methods, 0.95)
        results, records = [], []
        # batches of 1, 7 and 64 trials of n = 40
        for rows in (40, 280, 2560):
            monkeypatch.setattr(simulation, "_BATCH_ROWS", rows)
            records.append(_run_chunk(STRATIFIED40, plan, 3, range(260)))
            results.append(run_oc(STRATIFIED40, methods, reps=260, seed=3))
        # two shares of 130: one in a helper process, one in this one
        _cpus(monkeypatch, 2)
        results.append(run_oc(STRATIFIED40, methods, reps=260, seed=3,
                              workers=2))
        assert all(r == results[0] for r in results[1:])
        for other in records[1:]:
            for a, b in zip(records[0], other):
                np.testing.assert_array_equal(a, b)
        # the run covers failed method-replications, so the failure
        # masks are compared too, not only clean numbers
        assert records[0][4].any() and not records[0][4].all()

    def test_fallback_rows_match_the_scalar_pipeline(self):
        """One batch mixes clean replications with a separated, a
        rank-deficient and a zero-event-arm trial and with trials whose
        score ratio interval is undefined; every number equals the
        scalar pipeline's, since one IRLS loop serves both."""
        methods = PINNED_METHODS + (
            MethodSpec("I-wald-diff-W1", "wald",
                       ModelSpec("bernoulli-logit", ("W1",))),
            MethodSpec("III-score-diff-per-arm", "score", ModelSpec(
                "bernoulli-logit", ("W1",), heterogeneous=True),
                estimator="III"),
        )
        plan = _plan(STRATIFIED40, methods, 0.95)
        # one variance serves several test groups, and one group takes
        # variances of several fits, so the (B, K, ...) variance rows are
        # shared and indexed across fits
        ks = [set(k.tolist()) for *_, k in plan.tests]
        assert any(a & b for a, b in itertools.combinations(ks, 2))
        assert max(len({plan.variances[k][0] for k in g}) for g in ks) == 3
        t = _draw(STRATIFIED40, _rep_rngs(3, range(16)), 16)
        W1 = t.covariates[..., 0]
        t.outcome[1] = (W1[1] > 0.0).astype(float)       # separated
        t.covariates[2, :, 1] = t.covariates[2, :, 0]    # W2 == W1
        t.outcome[3][t.arm[3] == 1] = 0.0                # no arm-1 events
        est, reject, lo, hi, failed = _analyze_batch(t, plan)

        for b in range(16):
            data = TrialDataset(outcome=t.outcome[b], arm=t.arm[b],
                                covariates=t.covariates[b],
                                covariate_names=t.covariate_names)
            for j, (m, spec, h) in enumerate(plan.methods):
                thr = (1.0 - h.level) / 2.0 if h.sidedness != "two-sided" \
                    else 1.0 - h.level
                try:
                    design = build_design(data, spec)
                    fitted = fit(design, data.outcome)
                    r = run_test(estimate_mu(fitted, design),
                                 estimate_variance(fitted, design,
                                                   m.estimator,
                                                   m.correction, m.pi),
                                 h, m.test)
                except GScoreError:
                    assert failed[b, j], (b, m.name)
                    assert not reject[b, j]
                    assert np.isnan([est[b, j], lo[b, j], hi[b, j]]).all()
                    continue
                assert not failed[b, j], (b, m.name)
                assert reject[b, j] == (r.p_value <= thr), (b, m.name)
                want = (r.estimate, *r.ci)
                got = (est[b, j], lo[b, j], hi[b, j])
                assert got == want, (b, m.name)

        names = [m.name for m in methods]
        adjusted = [names.index(n) for n in ("I-score-diff", "I-wald-ratio")]
        assert failed[1, adjusted].all()      # separation
        assert failed[2, adjusted].all()      # rank deficiency
        assert not failed[3, adjusted].any()  # zero events: converges
        assert est[3, names.index("I-wald-ratio")] > 1e6
        ratio = names.index("I-score-ratio")
        clean = [b for b in range(16) if b not in (1, 2, 3)]
        assert failed[clean, ratio].any()     # undefined intervals
        assert not failed[clean, ratio].all()

    def test_grouped_test_kernels_never_mix_hypotheses(self):
        """Methods share a test kernel call only when their hypothesis and
        test agree.  Score differences that differ only in null and
        sidedness, score ratios with different nulls and a Wald pair
        that shares one call each get exactly the records, failure masks
        included, that a plan of that method alone gives it."""
        methods = (
            MethodSpec("sd-greater-0", "score", _W123),
            MethodSpec("sd-two-sided-0.1", "score", _W123, null_value=0.1,
                       sidedness="two-sided"),
            MethodSpec("sr-1", "score", _W123, measure="ratio"),
            MethodSpec("sr-1.5", "score", _W123, measure="ratio",
                       null_value=1.5),
            MethodSpec("wald-I", "wald", _W123),
            MethodSpec("wald-III-S", "wald",
                       ModelSpec("bernoulli-logit", ("S",)), estimator="III"),
        )
        plan = _plan(STRATIFIED40, methods, 0.95)
        assert [len(cols) for *_, cols, _ in plan.tests] == [1, 1, 1, 1, 2]
        t = _draw(STRATIFIED40, _rep_rngs(11, range(64)), 64)
        records = _analyze_batch(t, plan)
        for j, m in enumerate(methods):
            alone = _analyze_batch(t, _plan(STRATIFIED40, (m,), 0.95))
            for got, want in zip(records, alone):
                assert got.dtype == want.dtype
                assert got[:, j].tobytes() == want[:, 0].tobytes(), m.name
        failed = records[4]
        assert failed[:, 2:4].any() and not failed[:, 2:4].all()

    def test_plan_computes_each_variance_once(self):
        """The plan lists each (spec, estimator, correction, pi) once, in
        order of first use, and each (hypothesis, test) group indexes its
        methods' columns and their variances in method order."""
        methods = PINNED_METHODS + (
            MethodSpec("I-wald-diff-again", "wald", _W123),
            MethodSpec("II-score-diff-again", "score", _W123,
                       estimator="II", pi=(0.5, 0.5)))
        plan = _plan(STRATIFIED40, methods, 0.95)
        keys = [(spec, m.estimator, m.correction, m.pi)
                for m, spec, _ in plan.methods]
        assert list(plan.variances) == list(dict.fromkeys(keys))
        seen = []
        for h, test, cols, ks in plan.tests:
            assert cols.dtype == ks.dtype == np.intp
            assert all(plan.methods[j][2] == h and methods[j].test == test
                       for j in cols.tolist())
            assert [plan.variances[k] for k in ks.tolist()] == \
                [keys[j] for j in cols.tolist()]
            seen += cols.tolist()
        assert sorted(seen) == list(range(len(methods)))


class TestBatches:
    """A share is cut into the fewest contiguous near-equal batches whose
    mean stays within _BATCH_ROWS subject-rows, so a batch passes the
    budget by less than one trial's rows, and a trial that alone passes
    it is a batch of its own."""

    @pytest.mark.parametrize("share", [range(1), range(15), range(30),
                                       range(250, 500), range(3, 1028),
                                       range(1200)])
    @pytest.mark.parametrize("n", [1, 40, 326, 5000, _BATCH_ROWS,
                                   _BATCH_ROWS + 1, 100_000])
    def test_batches_cover_the_share_within_the_row_budget(self, share, n):
        batches = _batches(share, n)
        assert batches[0].start == share.start
        assert batches[-1].stop == share.stop
        assert all(a.stop == b.start
                   for a, b in itertools.pairwise(batches))
        sizes = [len(batch) for batch in batches]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert all((B - 1) * n < _BATCH_ROWS for B in sizes)
        assert all(B == 1 for B in sizes) or n < _BATCH_ROWS
        assert len(batches) == min(len(share),
                                   -(-len(share) * n // _BATCH_ROWS))
        if len(share) * n <= _BATCH_ROWS:
            assert batches == [share]

    def test_batch_sizes_by_trial_size(self):
        assert [len(b) for b in _batches(range(1024), 40)] == [512, 512]
        assert {len(b) for b in _batches(range(250), 326)} == {62, 63}
        assert [len(b) for b in _batches(range(256), 320)] == [64] * 4
        assert {len(b) for b in _batches(range(200), 5000)} == {4, 5}
        assert _batches(range(3), 30_000) == [range(i, i + 1)
                                             for i in range(3)]

    @pytest.mark.parametrize("s, reps", [(scenario1(), 30),
                                         (STRATIFIED40, 15)])
    def test_a_share_within_the_budget_is_one_kernel_call(
            self, monkeypatch, s, reps):
        real, sizes = simulation._analyze_batch, []

        def analyze(trials, plan):
            sizes.append(len(trials.outcome))
            return real(trials, plan)

        monkeypatch.setattr(simulation, "_analyze_batch", analyze)
        run_oc(s, (MethodSpec(name="m", test="wald"),), reps=reps, seed=4)
        assert sizes == [reps]


class HelperFailure(Exception):
    """Raised on purpose inside a share of replications."""


def _fail_in(monkeypatch, where: str, act) -> None:
    """Make _run_chunk call ``act`` first in this process ("parent") or
    in every helper process ("helper"), and run as usual elsewhere."""
    parent, real = os.getpid(), simulation._run_chunk

    def chunk(*args):
        if (os.getpid() == parent) == (where == "parent"):
            act()
        return real(*args)

    monkeypatch.setattr(simulation, "_run_chunk", chunk)


def _raise_failure():
    raise HelperFailure("failed on purpose")


def _cpus(monkeypatch, k: int) -> None:
    """Let _shares see ``k`` usable CPUs, whatever this host has."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: k)


def _assert_no_helper_left():
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(timeout=10)
    assert not left


class TestShares:
    """run_oc cuts the replications into contiguous near-equal shares,
    one per process; helpers send their records back, and leave no
    process behind however they end."""

    @pytest.mark.parametrize("reps", [1, 249, 250, 251, 499, 500, 501,
                                      777, 1001, 5000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_shares_cover_the_replications_in_near_equal_runs(
            self, monkeypatch, reps, workers):
        _cpus(monkeypatch, 8)
        shares = _shares(reps, workers)
        assert shares[0].start == 0 and shares[-1].stop == reps
        assert all(a.stop == b.start
                   for a, b in itertools.pairwise(shares))
        sizes = [len(share) for share in shares]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        # one process per 250 replications or part of one, up to workers
        assert len(shares) == min(workers, -(-reps // 250))

    def test_no_more_shares_than_usable_cpus(self, monkeypatch):
        """Only _shares runs here: no process is started."""
        assert len(_shares(250_000, 1000)) == min(
            1000, simulation._usable_cpus())
        for cpus in (1, 2, 5):
            _cpus(monkeypatch, cpus)
            assert len(_shares(250_000, 1000)) == cpus
            assert len(_shares(250_000, 3)) == min(3, cpus)

    def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(
            self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert simulation._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert simulation._usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulation._usable_cpus() == 1

    @pytest.mark.parametrize("reps", [1, 250])
    def test_no_helper_for_at_most_250_reps(self, monkeypatch, reps):
        def refuse(*args, **kwargs):
            raise AssertionError("a helper process was started")

        s = scenario1(n=60)
        methods = (MethodSpec(name="m", test="wald"),)
        want = run_oc(s, methods, reps=reps, seed=2)
        monkeypatch.setattr(simulation.multiprocessing, "get_context",
                            lambda: types.SimpleNamespace(Pipe=refuse,
                                                          Process=refuse))
        assert run_oc(s, methods, reps=reps, seed=2, workers=4) == want

    @pytest.mark.parametrize("reps", [777, 1001])
    def test_tallies_equal_for_any_worker_count(self, monkeypatch, reps):
        """Reps that split unevenly into 2 and 3 shares; the methods
        fail on some replications, so failure counts are compared too."""
        _cpus(monkeypatch, 3)
        results = [run_oc(STRATIFIED40, PINNED_METHODS, reps=reps, seed=11,
                          workers=w) for w in (1, 2, 3)]
        assert any(m.n_failed for m in results[0].methods)
        assert results[1] == results[0] and results[2] == results[0]
        _assert_no_helper_left()

    def test_helper_exception_reaches_the_caller_with_its_type(
            self, monkeypatch):
        _cpus(monkeypatch, 3)
        _fail_in(monkeypatch, "helper", _raise_failure)
        with pytest.raises(HelperFailure, match="failed on purpose") as info:
            run_oc(scenario1(n=60), (MethodSpec(name="m", test="wald"),),
                   reps=750, seed=1, workers=3)
        # the helper's traceback rides along as the cause
        assert "HelperFailure" in str(info.value.__cause__)
        _assert_no_helper_left()

    def test_dead_helper_is_an_error_naming_its_exit_code(self, monkeypatch):
        _cpus(monkeypatch, 3)
        _fail_in(monkeypatch, "helper", lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_oc(scenario1(n=60), (MethodSpec(name="m", test="wald"),),
                   reps=750, seed=1, workers=3)
        _assert_no_helper_left()

    def test_dead_helper_is_reported_between_this_process_batches(
            self, monkeypatch):
        """The helper dies at once.  This process's first batch waits
        until it has, so the error must come after that batch or the
        next, not after all 8 batches of this process's share."""
        _cpus(monkeypatch, 2)
        _fail_in(monkeypatch, "helper", lambda: os._exit(3))
        real, sizes = simulation._analyze_batch, []

        def analyze(trials, plan):
            deadline = time.monotonic() + 30
            while (not sizes and multiprocessing.active_children()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            sizes.append(len(trials.outcome))
            return real(trials, plan)

        monkeypatch.setattr(simulation, "_analyze_batch", analyze)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_oc(scenario1(), (MethodSpec(name="m", test="wald"),),
                   reps=1000, seed=1, workers=2)
        assert len(_batches(range(500), 326)) == 8
        assert 1 <= len(sizes) <= 2
        _assert_no_helper_left()

    def test_failure_in_this_process_stops_the_helpers(self, monkeypatch):
        """The helpers would run for a minute; they are stopped, not
        waited for."""
        _cpus(monkeypatch, 3)
        _fail_in(monkeypatch, "helper", lambda: time.sleep(60))
        _fail_in(monkeypatch, "parent", _raise_failure)
        start = time.monotonic()
        with pytest.raises(HelperFailure):
            run_oc(scenario1(n=60), (MethodSpec(name="m", test="wald"),),
                   reps=750, seed=1, workers=3)
        assert time.monotonic() - start < 30
        _assert_no_helper_left()

    def test_spawned_helpers_send_the_same_records(self, monkeypatch):
        """A helper started by spawn, as on macOS and Windows, pickles
        its arguments and records; they come back bit-identical."""
        _cpus(monkeypatch, 2)
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(simulation.multiprocessing, "get_context",
                            lambda: spawn)
        plan = _plan(STRATIFIED40, PINNED_METHODS, 0.95)
        got = _run_shares(STRATIFIED40, plan, 3, _shares(520, 2))
        want = _run_chunk(STRATIFIED40, plan, 3, range(520))
        assert len(got) == len(want) and want[4].any()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        _assert_no_helper_left()

