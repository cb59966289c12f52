"""Monte Carlo engine for operating characteristics of the estimators.

Trials are generated from a logistic outcome model with iid covariates
(standard normal or Bernoulli), under complete randomization or
stratified permuted blocks.  True marginal means come from Gauss-Hermite
quadrature (normal covariates collapse to a single normal direction)
crossed with exact enumeration of Bernoulli covariates, so type I error,
power, and coverage are tallied against exact truth, not a simulated
proxy.

Reproducibility: replication r uses the substream spawned as
SeedSequence(seed, spawn_key=(r,)) feeding a counter-based Philox
generator, so its data never depend on which replications are drawn
beside it.  A run derives the Philox keys of a share of replications at
once (from the pool NumPy's SeedSequence(seed) mixes, with only the
spawn-key step and the output hash written out) and re-keys one
generator per replication; a batch's draws are written in place into
C-contiguous (B, k, n) covariate rows, the stratum last.
``run_oc`` analyzes a batch of replications at a time, sized by a
budget of _BATCH_ROWS (20,480) subject-rows: ~512 trials of n = 40, ~64
of n = 326, one of n >= 20,480.  Per batch, one IRLS fit runs per model
spec on the stacked designs (``glm.fit_batch``, the loop ``glm.fit``
runs on one dataset), one variance per (spec, estimator, correction,
pi), and one test kernel per (hypothesis, test) on its methods stacked.
Kernels take any leading shape; single-fit functions call them with
none.  With more than one worker, the replications are cut into
contiguous shares of near-equal size, no more than the usable CPUs;
this process runs the first, and one helper process per other share
sends its records back through a pipe.  Each replication's numbers
depend on its own data only, so results depend only on (scenario,
methods, seed, reps), never on batch size, worker count or
scheduling.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import operator
import os
import traceback
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .dataset import ModelSpec, TrialDataset, stack_designs
from .errors import check_choices, refuse_bool
from .gcomp import (
    CORRECTIONS,
    ESTIMATORS,
    estimate_mu,
    estimate_variance_batch,
)
from .glm import BERNOULLI_LOGIT, fit_batch
from .inference import MEASURES, SIDEDNESS, TESTS, Hypothesis, run_test_batch

_MAX_BERNOULLI_ENUM = 16
_ARMS = np.array([1, 2])

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# for the steps _rep_keys writes out: the entropy chain's first constant
# and its step, the output chain's, and the pool mix's two multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Subject-rows (replications x n) per kernel call in run_oc, and the least
# run that is worth a process of its own: run_oc starts one per _CHUNK
# replications or part of one, up to its worker count and the usable
# CPUs.  Neither changes any result.
_BATCH_ROWS = 20_480
_CHUNK = 250


# ------------------------------------------------------------------ #
# Scenario configuration
# ------------------------------------------------------------------ #


def _integer(name: str, value) -> int:
    """``value`` as a Python int if it is a Python or NumPy integer;
    otherwise (a bool too) a TypeError naming ``name``."""
    try:
        return operator.index(refuse_bool(name, value))
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _finite(name: str, values) -> tuple[float, ...]:
    """``values`` as floats; a bool, or else a non-finite value, is an
    error naming ``name``."""
    out = tuple(float(refuse_bool(name, v)) for v in values)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class CovariateSpec:
    """One iid covariate: standard normal, or Bernoulli(p)."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", float(self.p))
        if self.kind not in ("standard-normal", "bernoulli"):
            raise ValueError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError(f"bernoulli covariate needs p in (0, 1), "
                                 f"got {self.p!r}")
        elif self.p is not None:
            raise ValueError("standard-normal covariate takes no p")


@dataclass(frozen=True)
class StratificationRule:
    """Binary stratum from thresholding one covariate: S = I(W_j > c)."""

    covariate: int  # 1-based index into the covariate list
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "covariate",
                           _integer("stratify covariate", self.covariate))
        object.__setattr__(self, "threshold", _finite(
            "stratify threshold", (self.threshold,))[0])
        if self.covariate < 1:
            raise ValueError("stratification covariate index is 1-based")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one data-generating process.

    ``covariates`` entries may be CovariateSpecs or any form that
    covariate_spec_from_config reads.
    """

    n: int
    beta_A: tuple[float, float]
    covariates: tuple[CovariateSpec, ...] = ()
    beta_W: tuple[float, ...] = ()
    allocation: tuple[float, float] = (0.5, 0.5)
    scheme: str = "complete"
    block_size: int = 4
    stratify: StratificationRule | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("scenario n", self.n))
        object.__setattr__(self, "block_size",
                           _integer("scenario block_size", self.block_size))
        object.__setattr__(self, "covariates", tuple(
            map(covariate_spec_from_config, self.covariates)))
        for name in ("beta_W", "beta_A", "allocation"):
            object.__setattr__(self, name, _finite(f"scenario {name}",
                                                   getattr(self, name)))
        if self.n < 2:
            raise ValueError(f"scenario n must be >= 2, got {self.n}")
        if len(self.beta_W) != len(self.covariates):
            raise ValueError("beta_W length must match covariates")
        if len(self.beta_A) != 2:
            raise ValueError("beta_A must have one intercept per arm")
        if len(self.allocation) != 2 or not np.isclose(sum(self.allocation), 1.0) \
                or min(self.allocation) <= 0.0:
            raise ValueError("allocation must be two positive shares summing to 1")
        if self.scheme not in ("complete", "stratified-block"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "complete" \
                and not 0 < np.floor(self.n * self.allocation[0]) < self.n:
            raise ValueError("complete randomization leaves an arm empty")
        if self.scheme == "stratified-block":
            if self.stratify is None:
                raise ValueError("stratified-block scheme needs a stratify rule")
            if self.block_size < 2:
                raise ValueError("block size must be >= 2")
            # two strata that each fit in one arm's slots of a block can
            # both fill only that arm
            b1 = _block_arm1_count(self.block_size, self.allocation)
            most = 2 * max(b1, self.block_size - b1)
            if self.n <= most:
                raise ValueError(f"stratified blocks of {self.block_size} "
                                 f"can leave an arm empty at n <= {most}")
        if self.stratify is not None \
                and self.stratify.covariate > len(self.covariates):
            raise ValueError("stratify rule names a covariate beyond the list")


@dataclass(frozen=True)
class MethodSpec:
    """One analysis to run per replication.

    ``model`` is either a ModelSpec or the string "unadjusted".  A null
    of None means no effect, as in Hypothesis.  ``pi`` of None uses
    empirical arm shares for estimators II/III; a pair fixes the
    allocation probabilities.
    """

    name: str
    test: str
    model: ModelSpec | str = "unadjusted"
    measure: str = "difference"
    estimator: str = "I"
    correction: str = "HC0"
    sidedness: str = "greater"
    null_value: float | None = None
    pi: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "name", str(self.name))
        owner = f"method {self.name!r}"
        check_choices(owner, (self.test, TESTS, "test"),
                      (self.measure, MEASURES, "measure"),
                      (self.estimator, ESTIMATORS, "estimator"),
                      (self.correction, CORRECTIONS, "correction"),
                      (self.sidedness, SIDEDNESS, "sidedness"))
        try:
            Hypothesis(self.measure, self.null_value)
        except (TypeError, ValueError) as err:
            raise type(err)(f"{owner}: {err}") from None
        if not isinstance(self.model, ModelSpec) \
                and self.model != "unadjusted":
            raise ValueError(f"{owner}: model must be a ModelSpec or "
                             f"'unadjusted', got {self.model!r}")
        object.__setattr__(self, "pi", allocation_pair(owner, self.pi))

    def resolved_null(self) -> float:
        """The null value as Hypothesis resolves it."""
        return Hypothesis(self.measure, self.null_value).null_value

    def model_label(self) -> str:
        if isinstance(self.model, str):
            return "unadjusted"
        tag = "+".join(self.model.covariates) or "arm-only"
        if self.model.heterogeneous:
            tag += " per-arm"
        return f"{self.model.family}:{tag}"


@dataclass(frozen=True)
class MethodSummary:
    """Tallies for one method over the replications that analyzed cleanly."""

    name: str
    measure: str
    test: str
    estimator: str
    correction: str
    model: str
    null_value: float
    sidedness: str
    n_total: int
    n_failed: int
    rejection_rate: float
    coverage: float
    mean_estimate: float
    mc_se_rejection: float
    mc_se_coverage: float

    @property
    def n_used(self) -> int:
        return self.n_total - self.n_failed


@dataclass(frozen=True)
class OCResult:
    """Operating characteristics for every method, plus the exact truth."""

    seed: int
    reps: int
    level: float
    n: int
    true_mu: tuple[float, float]
    true_diff: float
    true_ratio: float
    methods: tuple[MethodSummary, ...] = field(default_factory=tuple)


# ------------------------------------------------------------------ #
# Randomization
# ------------------------------------------------------------------ #


def _block_arm1_count(block_size: int, allocation) -> int:
    """Arm-1 slots in one permuted block: block_size * share_1, which must
    be integral (within 1e-9) and leave both arms a slot."""
    b1_exact = block_size * float(allocation[0])
    b1 = int(round(b1_exact))
    if abs(b1_exact - b1) > 1e-9 or not 0 < b1 < block_size:
        raise ValueError(
            f"block size {block_size} is incompatible with allocation "
            f"{tuple(allocation)}: blocks need an integral arm-1 count")
    return b1


def _assign_blocks(stratum: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Arms (B, n) of 0/1 strata (B, n) from each trial's permuted blocks
    (B, blocks, block_size): stratum 0 from the first block, stratum 1
    from the block after stratum 0's last, a stratum's subjects in index
    order taking its slots in turn.  A subject's slot is its rank in its
    stratum, plus ceil(m0 / block_size) * block_size in stratum 1, for
    the m0 subjects of stratum 0."""
    B, n = stratum.shape
    size = slots.shape[-1]
    ones = np.cumsum(stratum, axis=-1, dtype=np.intp)  # stratum 1 so far
    m0 = n - ones[:, -1:]
    slot = np.where(stratum, -(-m0 // size) * size + ones - 1,
                    np.arange(n) - ones)
    return np.take_along_axis(slots.reshape(B, -1), slot, axis=-1)


# ------------------------------------------------------------------ #
# Generation and truth
# ------------------------------------------------------------------ #


class _Trials(NamedTuple):
    """B generated trials on a leading axis; made by _draw, not re-validated."""

    outcome: np.ndarray  # (B, n), 0/1
    arm: np.ndarray  # (B, n), labels 1 and 2
    # (B, n, k): the transpose (a view) of C-contiguous covariate rows
    # (B, k, n), W1..Wq then the 0/1 stratum S if there is a stratify rule
    covariates: np.ndarray
    covariate_names: tuple[str, ...]


def _covariate_names(s: Scenario) -> tuple[str, ...]:
    """s's covariate columns: W1..Wq, then S if it has a stratify rule."""
    names = tuple(f"W{j + 1}" for j in range(len(s.covariates)))
    return names if s.stratify is None else names + ("S",)


def _draw(s: Scenario, rngs, B: int) -> _Trials:
    """B trials, trial b drawn by the b-th generator taken from ``rngs``:
    its covariates, then its randomization, then one uniform per subject
    for the outcome, each written in place.  A generator is used up
    before the next is taken, so one re-keyed per trial may be passed.

    Complete randomization shuffles floor(n * share_1) arm-1 labels and
    arm-2 labels for the rest (any rounding remainder included).
    Stratified blocks permute, in one rng.permuted call, the blocks that
    strata S = 0 and then S = 1 fill, each stratum from a new block; this
    draws as one rng.permutation per block would, in block order.  A
    block holds block_size * share_1 arm-1 slots, and a stratum's short
    last block is the truncation of one more permuted block.  Scenario
    validation ensures that no randomization empties an arm."""
    n, q, names = s.n, len(s.covariates), _covariate_names(s)
    rows = np.empty((B, len(names), n))
    u = np.empty((B, n))
    runs = [(spec, len(list(g))) for spec, g in itertools.groupby(s.covariates)]
    if s.scheme == "complete":
        n1 = int(np.floor(n * s.allocation[0]))
        arm = np.tile(np.repeat(_ARMS, (n1, n - n1)), (B, 1))
    else:
        size = s.block_size
        b1 = _block_arm1_count(size, s.allocation)
        # two strata of sizes m, n - m fill at most n // size + 2 blocks
        slots = np.tile(np.repeat(_ARMS, (b1, size - b1)),
                        (B, n // size + 2, 1))
    for b, rng in zip(range(B), rngs):
        j = 0
        for spec, k in runs:  # one (k, n) draw: the stream of k draws of n
            x = rows[b, j:j + k]
            if spec.kind == "standard-normal":
                rng.standard_normal(out=x)
            else:
                np.less(rng.random(out=x), spec.p, out=x)
            j += k
        if s.stratify is not None:  # no draw: S = I(W_j > c)
            m = np.count_nonzero(np.greater(
                rows[b, s.stratify.covariate - 1], s.stratify.threshold,
                out=rows[b, q]))
        if s.scheme == "complete":
            rng.shuffle(arm[b])
        else:  # the ceil((n - m) / size) + ceil(m / size) blocks in use
            blocks = -(-(n - m) // size) - (-m // size)
            used = slots[b, :blocks]
            rng.permuted(used, axis=1, out=used)
        rng.random(out=u[b])
    if s.scheme != "complete":
        arm = _assign_blocks(rows[:, q], slots)

    eta = np.asarray(s.beta_A)[arm - 1] + (rows[:, :q].mT @ np.asarray(
        s.beta_W) if q else 0.0)
    return _Trials(outcome=(u < BERNOULLI_LOGIT.mean(eta)).astype(float),
                   arm=arm, covariates=rows.mT, covariate_names=names)


def generate_trial(s: Scenario, rng: np.random.Generator) -> TrialDataset:
    """One simulated trial; the stratum (if any) is its last covariate,
    the 0/1 column named "S"."""
    t = _draw(s, [rng], 1)
    return TrialDataset(outcome=t.outcome[0], arm=t.arm[0],
                        covariates=t.covariates[0],
                        covariate_names=t.covariate_names)


@functools.cache
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """The 80-node Gauss-Hermite rule for a standard normal: its nodes and
    its weights over sqrt(2 pi).  Built on first use, so that a start
    that never integrates (gscore analyze) imports no numpy.polynomial."""
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(80)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def _marginal_mean(intercept: float, beta_W, specs) -> float:
    """E[m(intercept + beta_W' W)], m the logistic mean, for iid W per
    specs.

    Normal components collapse to one normal direction with scale
    ||beta_normal||_2 (handled by quadrature); Bernoulli components are
    enumerated exactly with their probabilities.
    """
    beta_W = np.asarray(beta_W, dtype=float)
    norm_scale = 0.0
    bern = []
    for b, spec in zip(beta_W, specs):
        if spec.kind == "standard-normal":
            norm_scale += b * b
        else:
            bern.append((b, spec.p))
    norm_scale = float(np.sqrt(norm_scale))
    if len(bern) > _MAX_BERNOULLI_ENUM:
        raise ValueError(f"cannot enumerate more than {_MAX_BERNOULLI_ENUM} "
                         "bernoulli covariates exactly")
    nodes, weights = _gauss_hermite()
    total = 0.0
    for values in itertools.product((0.0, 1.0), repeat=len(bern)):
        prob = 1.0
        offset = 0.0
        for v, (b, p) in zip(values, bern):
            prob *= p if v else 1.0 - p
            offset += b * v
        eta = intercept + offset + norm_scale * nodes
        total += prob * float(BERNOULLI_LOGIT.mean(eta) @ weights)
    return total


def true_marginal_means(s: Scenario) -> tuple[float, float]:
    """Exact (to quadrature accuracy) marginal outcome means per arm."""
    return (_marginal_mean(s.beta_A[0], s.beta_W, s.covariates),
            _marginal_mean(s.beta_A[1], s.beta_W, s.covariates))


def calibrate_intercepts(targets, beta_W, covariates,
                         precision: float = 1e-6) -> tuple[float, float]:
    """Per-arm intercepts hitting a pair of target marginal means, with
    one beta_W slope per covariate, covariates read as Scenario reads them.

    The marginal mean is strictly increasing in the intercept, so plain
    bisection on [-40, 40] is exact to any requested precision.
    """
    targets, beta_W = tuple(targets), _finite("beta_W", beta_W)
    covariates = tuple(map(covariate_spec_from_config, covariates))
    if not 0.0 < refuse_bool("precision", precision) < np.inf:
        raise ValueError(f"precision must be finite and > 0, got {precision}")
    if len(targets) != 2:
        raise ValueError("targets must be a pair of marginal means")
    if len(beta_W) != len(covariates):
        raise ValueError(f"beta_W has {len(beta_W)} slopes for "
                         f"{len(covariates)} covariates")
    out = []
    for t in targets:
        t = float(t)
        if not 0.0 < t < 1.0:
            raise ValueError(f"target marginal means must be in (0, 1), got {t}")
        lo, hi = -40.0, 40.0
        if not _marginal_mean(lo, beta_W, covariates) < t \
                < _marginal_mean(hi, beta_W, covariates):
            raise ValueError(f"target {t} is outside the bracket [-40, 40]")
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _marginal_mean(mid, beta_W, covariates) < t:
                lo = mid
            else:
                hi = mid
        mid = 0.5 * (lo + hi)
        if abs(_marginal_mean(mid, beta_W, covariates) - t) > precision:
            raise ValueError(f"bisection failed to reach precision {precision} "
                             f"for target {t}")
        out.append(mid)
    return out[0], out[1]


# ------------------------------------------------------------------ #
# Replication engine
# ------------------------------------------------------------------ #


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Replication ``rep``'s generator: the substream
    SeedSequence(seed, spawn_key=(rep,)) feeding a Philox.  run_oc makes
    the same generators through _rep_rngs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(ss))


def _hashes(value, init: int, mult: int, start: int = 0):
    """SeedSequence's hashes of uint32 ``value`` along a last axis of 4, the
    i-th by k[start + i], k[start + i + 1] for k[j] = init * mult**j."""
    k = np.array([init * pow(mult, start + i, 2**32) % 2**32
                  for i in range(5)], dtype=np.uint32)
    value = (value ^ k[:-1]) * k[1:]
    return value ^ value >> 16


def _rep_keys(seed: int, reps) -> np.ndarray:
    """(len(reps), 2) uint64 Philox keys, row i equal to
    SeedSequence(seed, spawn_key=(reps[i],)).generate_state(2, np.uint64).

    SeedSequence(seed).pool holds the seed's w = max(4, ceil(bits / 32))
    words mixed by the entropy chain's first 4w constants; the spawn-key
    word's 4 hashes and mixes and the output hash are written out on
    (B, 4) uint32 arrays.  Needs seed >= 0 and each rep in [0, 2**32).
    """
    words = max(4, -(-seed.bit_length() // 32))
    spawn = np.asarray(reps, dtype=np.uint32)[:, None]
    pool = (_MIX_L * np.random.SeedSequence(seed).pool
            - _MIX_R * _hashes(spawn, _INIT_A, _MULT_A, 4 * words))
    state = _hashes(pool ^ pool >> 16, _INIT_B, _MULT_B).astype(np.uint64)
    return state[:, ::2] | state[:, 1::2] << 32  # 4 words, low first


def _rep_rngs(seed: int, reps):
    """_rep_rng(seed, r) for each r of ``reps`` in turn, as one Philox
    generator re-keyed at each yield, so done with before the next."""
    bits = np.random.Philox(0)
    # a fresh state: zero counter, empty buffer, no spare 32-bit half
    state = bits.state
    rng = np.random.Generator(bits)
    for key in _rep_keys(seed, reps):
        state["state"]["key"] = key
        bits.state = state
        yield rng


class _Plan(NamedTuple):
    """Per method (method, model spec, hypothesis); the distinct (spec,
    estimator, correction, pi) variances, in order of first use; and per
    (hypothesis, test) (hypothesis, test, its methods' columns, the
    indices of their variances), both index arrays.  Fixed across
    replications, so built and checked before any trial."""

    methods: tuple
    variances: tuple
    tests: tuple


def _plan(s: Scenario, methods, level: float) -> _Plan:
    rows, variances, groups = [], {}, {}
    names = _covariate_names(s)
    for m in methods:
        spec = m.model if isinstance(m.model, ModelSpec) \
            else ModelSpec(family="bernoulli-logit")
        unknown = [c for c in spec.covariates if c not in names]
        if unknown:
            raise ValueError(f"method {m.name!r}: model covariates {unknown} "
                             f"are not among the scenario's {list(names)}")
        p = len(spec.column_labels)
        if p > s.n:
            raise ValueError(f"method {m.name!r}: the model has p={p} "
                             f"columns but a trial has n={s.n} subjects, so "
                             "every fit is rank deficient")
        if m.correction == "HC1" and p >= s.n:
            raise ValueError(f"method {m.name!r}: HC1 needs n > p, got "
                             f"n={s.n}, p={p}")
        h = Hypothesis(measure=m.measure, null_value=m.null_value,
                       level=level, sidedness=m.sidedness)
        key = spec, m.estimator, m.correction, m.pi
        groups.setdefault((h, m.test), []).append(
            (len(rows), variances.setdefault(key, len(variances))))
        rows.append((m, spec, h))
    return _Plan(tuple(rows), tuple(variances), tuple(
        (*g, *(np.array(a, dtype=np.intp) for a in zip(*members)))
        for g, members in groups.items()))


def _fit_spec(trials: _Trials, spec: ModelSpec):
    """(design, fit, arm means, {row: error}) of ``spec`` on a batch of
    trials; _plan has checked the model's covariates."""
    design = stack_designs(trials.arm, trials.covariates,
                           trials.covariate_names, spec)
    fitted, errors = fit_batch(design, trials.outcome)
    return design, fitted, estimate_mu(fitted, design).mu, errors


def _analyze_batch(trials: _Trials, plan: _Plan):
    """Per-method (estimate, reject, ci_lo, ci_hi, failed) records of a
    batch of trials, each a (B, methods) array.

    A method fails on a replication where the scalar pipeline raises a
    GScoreError for it (fit, variance or test); its estimate and interval
    are then NaN and it does not reject.  One fit runs per model spec, and
    one variance per (spec, estimator, correction, pi), written once into
    arm means (B, K, 2), covariances (B, K, 2, 2) and failure flags
    (B, K) for the plan's K variances; one test kernel runs per
    (hypothesis, test), on its k methods' rows of those (B, k, ...).
    """
    B, n = trials.outcome.shape
    est, lo, hi = (np.empty((B, len(plan.methods))) for _ in range(3))
    reject, failed = (np.empty(est.shape, dtype=bool) for _ in range(2))
    K = len(plan.variances)
    mus, sigmas = np.empty((B, K, 2)), np.empty((B, K, 2, 2))
    var_failed = np.zeros((B, K), dtype=bool)
    fits = {}
    for k, (spec, *kind) in enumerate(plan.variances):
        if spec not in fits:
            fits[spec] = _fit_spec(trials, spec)
        design, fitted, mus[:, k], fit_errors = fits[spec]
        sigmas[:, k], errors = estimate_variance_batch(fitted, design, *kind)
        for rows in (fit_errors, errors):
            if rows:
                var_failed[list(rows), k] = True
    for h, test, cols, ks in plan.tests:
        r = run_test_batch(mus[:, ks], sigmas[:, ks], n, h, test)
        ok = ~(var_failed[:, ks] | r["failed"])
        for out, name in ((est, "estimate"), (lo, "lo"), (hi, "hi")):
            out[:, cols] = np.where(ok, r[name], np.nan)
        reject[:, cols] = ok & r["reject"]
        failed[:, cols] = ~ok
    return est, reject, lo, hi, failed


def _cut(r: range, k: int) -> list[range]:
    """``r`` cut into min(k, len(r)) contiguous runs, in order, whose
    sizes differ by at most one."""
    k = min(k, len(r))
    return [r[len(r) * i // k:len(r) * (i + 1) // k] for i in range(k)]


def _batches(reps: range, n: int) -> list[range]:
    """``reps`` cut into the fewest near-equal batches whose mean is at
    most _BATCH_ROWS subject-rows of trials of ``n``, so a batch passes
    the budget by less than one trial; a trial of more rows is a batch
    of its own."""
    return _cut(reps, -(-len(reps) * n // _BATCH_ROWS))


def _run_chunk(s: Scenario, plan, seed: int, reps: range, helpers=()):
    """Records of replications ``reps``, one kernel call per _batches
    batch, stacked; one generator, re-keyed per replication, draws them
    all.  Between batches, a helper of ``helpers`` that has exited with a
    non-zero code is an error here, not after the last batch."""
    rngs = _rep_rngs(seed, reps)
    parts = []
    for batch in _batches(reps, s.n):
        parts.append(_analyze_batch(_draw(s, rngs, len(batch)), plan))
        for proc in helpers:
            if proc.exitcode:
                raise _died(proc)
    return tuple(np.concatenate(a) for a in zip(*parts))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), at least one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(reps: int, workers: int) -> list[range]:
    """range(reps) cut into contiguous shares whose sizes differ by at
    most one, one per process: as many as ``workers``, but no more than
    the usable CPUs or one per _CHUNK replications or part of one."""
    return _cut(range(reps), min(workers, _usable_cpus(),
                                 -(-reps // _CHUNK)))


def _helper(conn, *args) -> None:
    """A helper process: send _run_chunk(*args)'s records through
    ``conn``, or the exception it raised with its traceback."""
    try:
        out = _run_chunk(*args)
    except Exception as e:
        out = e, traceback.format_exc()
    with conn:
        conn.send(out)


def _died(proc) -> RuntimeError:
    """The error for helper ``proc``, which has exited without sending
    its records."""
    return RuntimeError(f"a helper process exited with code "
                        f"{proc.exitcode} before sending its records")


def _receive(proc, conn):
    """The records a helper sends; its exception, or a RuntimeError if it
    died first, is raised here."""
    try:
        out = conn.recv()
    except EOFError:
        proc.join()
        raise _died(proc) from None
    if isinstance(out[0], Exception):
        raise out[0] from RuntimeError(f"in a helper process:\n{out[1]}")
    return out


def _run_shares(s: Scenario, plan, seed: int, shares) -> tuple:
    """Records of the replications of ``shares``, stacked in order.  This
    process runs the first share; each other share runs in a helper
    process of the default start method, which sends its records back
    through a one-way pipe.  A helper that dies is an error at the end of
    this process's next batch.  Every helper is joined before this
    returns, and stopped first if anything failed."""
    ctx = multiprocessing.get_context()
    helpers = []
    try:
        for share in shares[1:]:
            conn, child_conn = ctx.Pipe(duplex=False)
            with child_conn:  # the helper holds its own end
                proc = ctx.Process(target=_helper,
                                   args=(child_conn, s, plan, seed, share))
                proc.start()
            helpers.append((proc, conn))
        parts = [_run_chunk(s, plan, seed, shares[0],
                            [proc for proc, _ in helpers]),
                 *(_receive(*h) for h in helpers)]
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, conn in helpers:
            conn.close()
            proc.join()
    return tuple(np.concatenate(a) for a in zip(*parts))


def run_oc(s: Scenario, methods, reps: int, *, seed: int,
           level: float = 0.95, workers: int = 1) -> OCResult:
    """Operating characteristics of every method over ``reps`` trials.

    ``level`` drives both the two-sided interval level and the one-sided
    rejection threshold (1 - level)/2, the standard pairing (0.95 gives
    one-sided 0.025).  Failed replications are excluded per method and
    reported in the denominator.  ``workers`` is the process count: the
    replications are cut into up to ``workers`` contiguous shares of
    near-equal size, no more than the CPUs this process may use and at
    most one per _CHUNK (250) replications or part of one; this process
    runs the first share and one helper process runs each other, so a
    run of at most 250 replications, or on one CPU, starts none.
    Results are identical for any value.  ``seed`` is a non-negative
    integer and ``reps`` below 2**32, so each replication's substream
    key is one spawn-key word.
    """
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    reps = _integer("reps", reps)
    if not 1 <= reps < 2**32:
        raise ValueError(f"reps must be at least 1 and below 2**32, "
                         f"got {reps}")
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    methods = tuple(methods)
    if len({m.name for m in methods}) != len(methods):
        raise ValueError("method names must be unique")
    plan = _plan(s, methods, level)
    t1, t2 = true_marginal_means(s)
    truth = {"difference": t2 - t1, "ratio": t2 / t1}
    est, rej, lo, hi, failed = _run_shares(s, plan, seed,
                                           _shares(reps, workers))

    ok = ~failed
    used = ok.sum(axis=0)
    tv = np.array([truth[m.measure] for m in methods])
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN if none used
        rate = rej.sum(axis=0) / used
        cov = (ok & (lo <= tv) & (tv <= hi)).sum(axis=0) / used
        se_rate, se_cov = (np.sqrt(x * (1 - x) / used) for x in (rate, cov))
    # each statistic as Python numbers in one call; a mean is the pairwise
    # sum of the selected column as one vector over its count, .mean()'s bits
    tallies = zip(plan.methods, *(a.tolist() for a in (
        used, rate, cov, se_rate, se_cov)))
    return OCResult(seed=seed, reps=reps, level=level, n=s.n,
                    true_mu=(t1, t2), true_diff=truth["difference"],
                    true_ratio=truth["ratio"], methods=tuple(MethodSummary(
        name=m.name, measure=m.measure, test=m.test, estimator=m.estimator,
        correction=m.correction, model=m.model_label(),
        null_value=h.null_value, sidedness=m.sidedness, n_total=reps,
        n_failed=reps - k, rejection_rate=r, coverage=c, mc_se_rejection=sr,
        mc_se_coverage=sc, mean_estimate=float(
            np.add.reduce(est[ok[:, j], j])) / k if k else np.nan)
        for j, ((m, _, h), k, r, c, sr, sc) in enumerate(tallies)))


# ------------------------------------------------------------------ #
# Declarative construction (config documents)
# ------------------------------------------------------------------ #


def reject_unknown_keys(d: dict, allowed, what: str) -> None:
    """Raise ValueError naming every key of ``d`` not in ``allowed``."""
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def allocation_pair(owner: str, pi) -> tuple[float, float] | None:
    """``pi`` as a pair of floats in (0, 1), or None for empirical arm
    shares; anything else is a ValueError prefixed by ``owner``."""
    try:
        pair = None if pi is None else tuple(map(float, pi))
    except (TypeError, ValueError):
        pair = ()
    if pair is not None and not (
            len(pair) == 2 and all(0.0 < x < 1.0 for x in pair)):
        raise ValueError(f"{owner}: pi must be a pair of floats in (0, 1), "
                         f"got {pi!r}")
    return pair


def from_config(cls, d, what: str, **parse):
    """Dataclass ``cls`` built from the config mapping ``d``.

    The keys of ``d`` are ``cls``'s field names; an absent field takes
    the dataclass default, and a field without one must be present.
    ``parse[key]``, if given, reads the value of ``key`` (a nested
    document) into what the field holds.  Conversion and validation of
    plain values are ``cls.__post_init__``'s, shared with Python callers.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    reject_unknown_keys(d, [f.name for f in fields(cls)], what)
    for f in fields(cls):
        if f.name not in d and f.default is MISSING \
                and f.default_factory is MISSING:
            raise ValueError(f"{what} is missing the {f.name!r} key")
    return cls(**{k: parse[k](v) if k in parse else v for k, v in d.items()})


def covariate_spec_from_config(obj) -> CovariateSpec:
    """"standard-normal" | {"bernoulli": p} | {"kind": ..., "p": ...};
    a CovariateSpec is returned unchanged."""
    if isinstance(obj, CovariateSpec):
        return obj
    if isinstance(obj, str):
        return CovariateSpec(kind=obj)
    if isinstance(obj, dict) and set(obj) == {"bernoulli"}:
        return CovariateSpec(kind="bernoulli", p=obj["bernoulli"])
    return from_config(CovariateSpec, obj, "covariate")


def scenario_from_config(d: dict) -> Scenario:
    """Scenario's fields as keys; covariates as covariate_spec_from_config
    reads them, stratify as a {covariate, threshold} mapping or null."""
    return from_config(
        Scenario, d, "scenario",
        stratify=lambda sd: sd if sd is None else from_config(
            StratificationRule, sd, "stratify"))


def method_spec_from_config(d: dict) -> MethodSpec:
    """MethodSpec's fields as keys; model is "unadjusted" or a model
    mapping."""
    return from_config(MethodSpec, d, "method", model=lambda m: (
        from_config(ModelSpec, m, "model") if isinstance(m, dict) else m))


def methods_from_config(d) -> tuple[MethodSpec, ...]:
    """A list of method mappings, bare or under the one key "methods"."""
    if isinstance(d, dict):
        reject_unknown_keys(d, ("methods",), "methods document")
        d = d["methods"]
    return tuple(method_spec_from_config(m) for m in d)
