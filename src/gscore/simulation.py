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
generator, so results depend only on (scenario, seed, reps), never on
worker count or scheduling.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dataset import ModelSpec, TrialDataset, build_design
from .errors import GScoreError
from .gcomp import CORRECTIONS, ESTIMATORS, estimate_mu, estimate_variance
from .glm import fit as fit_glm
from .inference import MEASURES, SIDEDNESS, TESTS, Hypothesis, run_test

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite_e.hermegauss(80)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(2.0 * np.pi)

_MAX_BERNOULLI_ENUM = 16
WORKERS_ENV = "GSCORE_WORKERS"


# ------------------------------------------------------------------ #
# Scenario configuration
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class CovariateSpec:
    """One iid covariate: standard normal, or Bernoulli(p)."""

    kind: str
    p: float | None = None

    def __post_init__(self):
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
        if self.covariate < 1:
            raise ValueError("stratification covariate index is 1-based")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one data-generating process."""

    n: int
    covariates: tuple[CovariateSpec, ...]
    beta_W: tuple[float, ...]
    beta_A: tuple[float, float]
    allocation: tuple[float, float] = (0.5, 0.5)
    scheme: str = "complete"
    block_size: int = 4
    stratify: StratificationRule | None = None
    family: str = "bernoulli-logit"

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "beta_W", tuple(float(b) for b in self.beta_W))
        object.__setattr__(self, "beta_A", tuple(float(b) for b in self.beta_A))
        object.__setattr__(self, "allocation",
                           tuple(float(a) for a in self.allocation))
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
        if self.scheme == "stratified-block":
            if self.stratify is None:
                raise ValueError("stratified-block scheme needs a stratify rule")
            if self.block_size < 2:
                raise ValueError("block size must be >= 2")
        if self.stratify is not None \
                and self.stratify.covariate > len(self.covariates):
            raise ValueError("stratify rule names a covariate beyond the list")
        if self.family != "bernoulli-logit":
            raise ValueError("generated outcomes are bernoulli-logit only")


@dataclass(frozen=True)
class MethodSpec:
    """One analysis to run per replication.

    ``model`` is either a ModelSpec or the string "unadjusted".  A null
    of None means the no-effect value for the measure (0 difference,
    1 ratio).  ``pi`` of None uses empirical arm shares for estimators
    II/III; a pair fixes the allocation probabilities.
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
        for value, allowed, what in (
                (self.test, TESTS, "test"), (self.measure, MEASURES, "measure"),
                (self.estimator, ESTIMATORS, "estimator"),
                (self.correction, CORRECTIONS, "correction"),
                (self.sidedness, SIDEDNESS, "sidedness")):
            if value not in allowed:
                raise ValueError(f"method {self.name!r}: {what} must be one "
                                 f"of {allowed}, got {value!r}")
        if not isinstance(self.model, ModelSpec) \
                and self.model != "unadjusted":
            raise ValueError(f"method {self.name!r}: model must be a "
                             f"ModelSpec or 'unadjusted', got {self.model!r}")

    def resolved_null(self) -> float:
        if self.null_value is not None:
            return float(self.null_value)
        return 1.0 if self.measure == "ratio" else 0.0

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


def randomize_complete(n: int, allocation, rng: np.random.Generator) -> np.ndarray:
    """Exact-split assignment: floor(n * share_1) subjects to arm 1,
    the rest (including any rounding remainder) to arm 2, positions
    uniformly permuted."""
    n1 = int(np.floor(n * float(allocation[0])))
    arms = np.array([1] * n1 + [2] * (n - n1))
    return rng.permutation(arms)


def randomize_stratified_block(strata, block_size: int, allocation,
                               rng: np.random.Generator) -> np.ndarray:
    """Permuted blocks within each stratum.

    Each full block holds exactly block_size * share_1 arm-1 slots (that
    product must be integral); a final short block is the truncation of
    one more fully permuted block.
    """
    strata = np.asarray(strata)
    b1_exact = block_size * float(allocation[0])
    b1 = int(round(b1_exact))
    if abs(b1_exact - b1) > 1e-9 or not 0 < b1 < block_size:
        raise ValueError(
            f"block size {block_size} is incompatible with allocation "
            f"{tuple(allocation)}: blocks need an integral arm-1 count")
    base = np.array([1] * b1 + [2] * (block_size - b1))
    arms = np.empty(strata.shape[0], dtype=int)
    for label in np.unique(strata):
        idx = np.flatnonzero(strata == label)
        seq = np.concatenate([
            rng.permutation(base)
            for _ in range(-(-idx.size // block_size))
        ])
        arms[idx] = seq[: idx.size]
    return arms


# ------------------------------------------------------------------ #
# Generation and truth
# ------------------------------------------------------------------ #


def generate_trial(s: Scenario, rng: np.random.Generator) -> TrialDataset:
    """One simulated trial; the stratum (if any) is exposed both as the
    dataset's stratum labels and as a 0/1 covariate column named "S"."""
    n = s.n
    cols = []
    for spec in s.covariates:
        if spec.kind == "standard-normal":
            cols.append(rng.standard_normal(n))
        else:
            cols.append((rng.random(n) < spec.p).astype(float))
    W = np.column_stack(cols) if cols else np.empty((n, 0))
    names = [f"W{j + 1}" for j in range(len(s.covariates))]

    stratum = None
    if s.stratify is not None:
        stratum = (W[:, s.stratify.covariate - 1] > s.stratify.threshold
                   ).astype(int)
    if s.scheme == "complete":
        arm = randomize_complete(n, s.allocation, rng)
    else:
        arm = randomize_stratified_block(stratum, s.block_size, s.allocation, rng)

    eta = np.asarray(s.beta_A)[arm - 1] + (W @ np.asarray(s.beta_W)
                                           if names else 0.0)
    y = (rng.random(n) < expit(eta)).astype(float)

    covariates = W
    if stratum is not None:
        covariates = np.column_stack([W, stratum.astype(float)])
        names = names + ["S"]
    return TrialDataset(outcome=y, arm=arm, covariates=covariates,
                        covariate_names=tuple(names),
                        stratum=stratum)


def _marginal_mean(intercept: float, beta_W, specs) -> float:
    """E[expit(intercept + beta_W' W)] for iid W per specs.

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
    total = 0.0
    for values in itertools.product((0.0, 1.0), repeat=len(bern)):
        prob = 1.0
        offset = 0.0
        for v, (b, p) in zip(values, bern):
            prob *= p if v else 1.0 - p
            offset += b * v
        eta = intercept + offset + norm_scale * _GH_NODES
        total += prob * float(expit(eta) @ _GH_WEIGHTS)
    return total


def true_marginal_means(s: Scenario) -> tuple[float, float]:
    """Exact (to quadrature accuracy) marginal outcome means per arm."""
    return (_marginal_mean(s.beta_A[0], s.beta_W, s.covariates),
            _marginal_mean(s.beta_A[1], s.beta_W, s.covariates))


def calibrate_intercepts(targets, beta_W, covariates,
                         precision: float = 1e-6) -> tuple[float, float]:
    """Per-arm intercepts hitting the target marginal means.

    The marginal mean is strictly increasing in the intercept, so plain
    bisection on [-40, 40] is exact to any requested precision.
    """
    covariates = tuple(covariates)
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
    if len(out) != 2:
        raise ValueError("targets must be a pair of marginal means")
    return out[0], out[1]


# ------------------------------------------------------------------ #
# Replication engine
# ------------------------------------------------------------------ #


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(ss))


def _plan(s: Scenario, methods, level: float):
    """Per method (method, model spec, hypothesis, rejection threshold),
    fixed across replications, so built and checked before any trial."""
    plan = []
    for m in methods:
        spec = m.model if isinstance(m.model, ModelSpec) \
            else ModelSpec(family="bernoulli-logit")
        q = len(spec.covariates)
        p = 2 + (2 * q if spec.heterogeneous else q)
        if m.correction == "HC1" and p >= s.n:
            raise ValueError(f"method {m.name!r}: HC1 needs n > p, got "
                             f"n={s.n}, p={p}")
        h = Hypothesis(measure=m.measure, null_value=m.resolved_null(),
                       level=level, sidedness=m.sidedness)
        thr = (1.0 - level) / 2.0 if m.sidedness != "two-sided" \
            else 1.0 - level
        plan.append((m, spec, h, thr))
    return tuple(plan)


def _analyze_rep(data: TrialDataset, plan):
    """Per-method (estimate, reject, cover_lo, cover_hi, failed) records.

    Coverage is recorded as interval endpoints so the caller can compare
    against truth; a method failing to fit or to produce an interval is
    marked failed and contributes nothing else.
    """
    fits = {}
    out = []
    for m, spec, h, thr in plan:
        try:
            if spec not in fits:
                design = build_design(data, spec)
                fits[spec] = (design, fit_glm(design, data.outcome))
            design, fitted = fits[spec]
            mu = estimate_mu(fitted, design)
            v = estimate_variance(fitted, design, m.estimator, m.correction,
                                  m.pi)
            result = run_test(mu, v, h, m.test)
            out.append((result.estimate, result.p_value <= thr,
                        result.ci[0], result.ci[1], False))
        except GScoreError:
            out.append((np.nan, False, np.nan, np.nan, True))
    return out


def _run_chunk(s: Scenario, plan, seed: int, rep_range):
    return [_analyze_rep(generate_trial(s, _rep_rng(seed, rep)), plan)
            for rep in rep_range]


def run_oc(s: Scenario, methods, reps: int, *, seed: int,
           level: float = 0.95, workers: int | None = None) -> OCResult:
    """Operating characteristics of every method over ``reps`` trials.

    ``level`` drives both the two-sided interval level and the one-sided
    rejection threshold (1 - level)/2, the standard pairing (0.95 gives
    one-sided 0.025).  Failed replications are excluded per method and
    reported in the denominator.  Results are identical for any
    ``workers`` value (default: the GSCORE_WORKERS environment variable,
    else serial).
    """
    methods = tuple(methods)
    if len({m.name for m in methods}) != len(methods):
        raise ValueError("method names must be unique")
    plan = _plan(s, methods, level)
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    t1, t2 = true_marginal_means(s)
    truth = {"difference": t2 - t1, "ratio": t2 / t1}

    if workers > 1 and reps > 1:
        chunk = 250  # fixed so the reduction never depends on worker count
        ranges = [range(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map yields chunks in submission order: replication order
            all_records = [rec for recs in pool.map(
                _run_chunk, itertools.repeat(s), itertools.repeat(plan),
                itertools.repeat(seed), ranges) for rec in recs]
    else:
        all_records = _run_chunk(s, plan, seed, range(reps))

    summaries = []
    for j, m in enumerate(methods):
        est = np.array([all_records[r][j][0] for r in range(reps)])
        rej = np.array([all_records[r][j][1] for r in range(reps)])
        lo = np.array([all_records[r][j][2] for r in range(reps)])
        hi = np.array([all_records[r][j][3] for r in range(reps)])
        failed = np.array([all_records[r][j][4] for r in range(reps)])
        ok = ~failed
        n_used = int(ok.sum())
        tv = truth[m.measure]
        if n_used:
            r_rate = float(rej[ok].mean())
            cov = float(((lo[ok] <= tv) & (tv <= hi[ok])).mean())
            mean_est = float(est[ok].mean())
        else:
            r_rate = cov = mean_est = float("nan")
        summaries.append(MethodSummary(
            name=m.name, measure=m.measure, test=m.test,
            estimator=m.estimator, correction=m.correction,
            model=m.model_label(), null_value=m.resolved_null(),
            sidedness=m.sidedness, n_total=reps,
            n_failed=int(failed.sum()), rejection_rate=r_rate, coverage=cov,
            mean_estimate=mean_est,
            mc_se_rejection=float(np.sqrt(r_rate * (1 - r_rate) / n_used))
            if n_used else float("nan"),
            mc_se_coverage=float(np.sqrt(cov * (1 - cov) / n_used))
            if n_used else float("nan")))
    return OCResult(seed=seed, reps=reps, level=level, n=s.n,
                    true_mu=(t1, t2), true_diff=truth["difference"],
                    true_ratio=truth["ratio"], methods=tuple(summaries))


# ------------------------------------------------------------------ #
# Declarative construction (config documents)
# ------------------------------------------------------------------ #


def reject_unknown_keys(d: dict, allowed, what: str) -> None:
    """Raise ValueError naming every key of ``d`` not in ``allowed``."""
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def covariate_spec_from_config(obj) -> CovariateSpec:
    """"standard-normal" | {"bernoulli": p} | {"kind": ..., "p": ...}"""
    if isinstance(obj, str):
        return CovariateSpec(kind=obj)
    if isinstance(obj, dict):
        if set(obj) == {"bernoulli"}:
            return CovariateSpec(kind="bernoulli", p=float(obj["bernoulli"]))
        reject_unknown_keys(obj, ("kind", "p"), "covariate")
        p = obj.get("p")
        return CovariateSpec(kind=obj.get("kind", ""),
                             p=float(p) if p is not None else None)
    raise ValueError(f"cannot parse covariate spec {obj!r}")


def scenario_from_config(d: dict) -> Scenario:
    reject_unknown_keys(d, ("n", "covariates", "beta_W", "beta_A",
                            "allocation", "scheme", "block_size", "stratify",
                            "family"), "scenario")
    strat = None
    if d.get("stratify") is not None:
        sd = d["stratify"]
        reject_unknown_keys(sd, ("covariate", "threshold"), "stratify")
        strat = StratificationRule(covariate=int(sd["covariate"]),
                                   threshold=float(sd["threshold"]))
    return Scenario(
        n=int(d["n"]),
        covariates=tuple(covariate_spec_from_config(c)
                         for c in d.get("covariates", ())),
        beta_W=tuple(d.get("beta_W", ())),
        beta_A=tuple(d["beta_A"]),
        allocation=tuple(d.get("allocation", (0.5, 0.5))),
        scheme=d.get("scheme", "complete"),
        block_size=int(d.get("block_size", 4)),
        stratify=strat,
        family=d.get("family", "bernoulli-logit"),
    )


def model_spec_from_config(d: dict) -> ModelSpec:
    """{"family": ..., "covariates": [...], "heterogeneous": bool}"""
    reject_unknown_keys(d, ("family", "covariates", "heterogeneous"), "model")
    return ModelSpec(family=d["family"],
                     covariates=tuple(d.get("covariates", ())),
                     heterogeneous=bool(d.get("heterogeneous", False)))


def method_spec_from_config(d: dict) -> MethodSpec:
    reject_unknown_keys(d, ("name", "test", "model", "measure", "estimator",
                            "correction", "sidedness", "null_value", "pi"),
                        "method")
    model = d.get("model", "unadjusted")
    if isinstance(model, dict):
        model = model_spec_from_config(model)
    pi = d.get("pi")
    return MethodSpec(
        name=str(d["name"]), test=d["test"], model=model,
        measure=d.get("measure", "difference"),
        estimator=d.get("estimator", "I"),
        correction=d.get("correction", "HC0"),
        sidedness=d.get("sidedness", "greater"),
        null_value=d.get("null_value"),
        pi=tuple(float(x) for x in pi) if pi is not None else None,
    )


def methods_from_config(d) -> tuple[MethodSpec, ...]:
    if isinstance(d, dict):
        reject_unknown_keys(d, ("methods",), "methods document")
        d = d["methods"]
    return tuple(method_spec_from_config(m) for m in d)
