"""Spans recorded from the benchmark's own code around public gscore calls.

A span has a name, start, end, parent and replication id.  Spans are kept
in memory and written out as JSON lines when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.

For the OC workloads ``rebuild`` replays run_oc's replications from public
functions: the documented substream SeedSequence(seed, spawn_key=(r,)) ->
Philox, one fit per distinct model per replication (a failed fit is
retried by the next method that needs it, as run_oc does), and the tests
and variances per method.
"""

from __future__ import annotations

import json
import time

import numpy as np

from gscore import (
    GScoreError,
    Hypothesis,
    IntervalUndefinedError,
    ModelSpec,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
    apply_correction,
    build_design,
    estimate_mu,
    fit,
    generate_trial,
    influence_aipw,
    influence_score,
    score_test_diff,
    score_test_ratio,
    var_from_influence,
    var_ye,
    wald_test_diff,
    wald_test_ratio,
)

LAYERS = (
    "simulation.generate_trial",
    "simulation.true_marginal_means",
    "simulation.calibrate_intercepts",
    "dataset.build_design",
    "dataset.load_csv",
    "glm.fit",
    "gcomp.estimate_mu",
    "gcomp.variance_I",
    "gcomp.variance_II",
    "gcomp.variance_III",
    "gcomp.apply_correction",
    "inference.wald_test_diff",
    "inference.score_test_diff",
    "inference.wald_test_ratio",
    "inference.score_test_ratio",
    "inference.analyze_trial",
)

FAILURE_CAUSES = (
    (SeparationError, "glm.fit.failed.separation"),
    (NonConvergenceError, "glm.fit.failed.nonconvergence"),
    (RankDeficiencyError, "glm.fit.failed.rank_deficient"),
    (IntervalUndefinedError, "inference.interval_undefined"),
)

TESTS = {
    ("difference", "wald"): wald_test_diff,
    ("difference", "score"): score_test_diff,
    ("ratio", "wald"): wald_test_ratio,
    ("ratio", "score"): score_test_ratio,
}


class Tracer:
    """In-memory span store.  ``span(name)`` is a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.rep: list[int] = []
        self.child_ns: list[int] = []
        self._stack: list[int] = []
        self.current_rep = -1

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.current_rep)
        self.child_ns.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        t = time.perf_counter_ns()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_ns[p] += t - self.start[i]

    def durations_us(self, name: str) -> list[float]:
        return [(e - s) / 1e3 for n, s, e in zip(self.names, self.start, self.end)
                if n == name]

    def self_us(self, name: str) -> list[float]:
        return [(e - s - c) / 1e3 for n, s, e, c in zip(
            self.names, self.start, self.end, self.child_ns) if n == name]

    def root_ns(self) -> int:
        """Wall time covered by top-level spans: the traced wall time."""
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end)
                   if p < 0)

    def self_ns(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for n, s, e, c in zip(self.names, self.start, self.end, self.child_ns):
            out[n] = out.get(n, 0) + (e - s - c)
        return out

    def write(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for i, n in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": n, "start_ns": self.start[i],
                    "end_ns": self.end[i], "parent": self.parent[i],
                    "rep": self.rep[i]}) + "\n")
        return len(self.names)


class _Span:
    __slots__ = ("tracer", "name", "i")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.i)
        return False


class Counters:
    """Fit behaviour and failures by cause, as seen by the rebuild."""

    def __init__(self):
        self.iterations: list[int] = []
        self.fits_per_rep: list[int] = []
        self.failures = {name: 0 for _, name in FAILURE_CAUSES}
        self.failures["failed.other"] = 0

    def count_failure(self, err: GScoreError):
        for cls, name in FAILURE_CAUSES:
            if isinstance(err, cls):
                self.failures[name] += 1
                return
        self.failures["failed.other"] += 1


def _model_spec(model) -> ModelSpec:
    return model if isinstance(model, ModelSpec) \
        else ModelSpec(family="bernoulli-logit")


def _variance(tr: Tracer, fitted, design, m):
    with tr.span(f"gcomp.variance_{m.estimator}"):
        if m.estimator == "I":
            v = var_from_influence(influence_score(fitted, design))
        elif m.estimator == "II":
            v = var_from_influence(influence_aipw(fitted, design, m.pi))
        else:
            v = var_ye(fitted, design, m.pi)
    with tr.span("gcomp.apply_correction"):
        return apply_correction(v, design.p, m.correction)


def rebuild(scenario, methods, seed: int, reps: int, tr: Tracer,
            counters: Counters, level: float,
            rep_base: int = 0) -> list[list[tuple]]:
    """Per replication, per method (estimate, reject, ci_lo, ci_hi, failed).

    Spans carry replication id ``rep_base + r``.
    """
    hyps = [Hypothesis(measure=m.measure, null_value=m.resolved_null(),
                       level=level, sidedness=m.sidedness) for m in methods]
    thr = [(1.0 - level) / 2.0 if m.sidedness != "two-sided" else 1.0 - level
           for m in methods]
    records = []
    for r in range(reps):
        tr.current_rep = rep_base + r
        with tr.span("simulation.replication"):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(r,))))
            with tr.span("simulation.generate_trial"):
                data = generate_trial(scenario, rng)
            fits, n_fits, out = {}, 0, []
            for m, h, t in zip(methods, hyps, thr):
                try:
                    spec = _model_spec(m.model)
                    key = (spec.family, spec.covariates, spec.heterogeneous)
                    if key not in fits:
                        with tr.span("dataset.build_design"):
                            design = build_design(data, spec)
                        n_fits += 1
                        with tr.span("glm.fit"):
                            fitted = fit(design, data.outcome)
                        counters.iterations.append(fitted.iterations)
                        fits[key] = (design, fitted)
                    design, fitted = fits[key]
                    with tr.span("gcomp.estimate_mu"):
                        mu = estimate_mu(fitted, design)
                    v = _variance(tr, fitted, design, m)
                    test = TESTS[(m.measure, m.test)]
                    with tr.span(f"inference.{test.__name__}"):
                        res = test(mu, v, h)
                    out.append((res.estimate, res.p_value <= t,
                                res.ci[0], res.ci[1], False))
                except GScoreError as err:
                    counters.count_failure(err)
                    out.append((np.nan, False, np.nan, np.nan, True))
            counters.fits_per_rep.append(n_fits)
        records.append(out)
    tr.current_rep = -1
    return records


def tally(records, methods, truth) -> list[tuple]:
    """Per method (name, failed, rejections, covered, mean estimate)."""
    t1, t2 = truth
    target = {"difference": t2 - t1, "ratio": t2 / t1}
    out = []
    for j, m in enumerate(methods):
        rows = [rec[j] for rec in records]
        ok = [r for r in rows if not r[4]]
        tv = target[m.measure]
        mean = float(np.array([r[0] for r in ok]).mean()) if ok else float("nan")
        out.append((m.name, len(rows) - len(ok), sum(bool(r[1]) for r in ok),
                    sum(bool(r[2] <= tv <= r[3]) for r in ok), mean))
    return out


def layer_metrics(tr: Tracer, wall_ns: int) -> dict:
    """us_p50, us_p90, calls and share of traced wall time per layer.

    A layer that did not run on the workload reads 0 throughout.
    """
    self_ns = tr.self_ns()
    out = {}
    for name in LAYERS:
        d = tr.durations_us(name)
        out[f"{name}.us_p50"] = float(np.percentile(d, 50)) if d else 0.0
        out[f"{name}.us_p90"] = float(np.percentile(d, 90)) if d else 0.0
        out[f"{name}.calls"] = len(d)
        out[f"{name}.share"] = self_ns.get(name, 0) / wall_ns if wall_ns else 0.0
    return out


def counter_metrics(c: Counters) -> dict:
    it = c.iterations
    out = {
        "glm.fit.iterations_mean": float(np.mean(it)) if it else 0.0,
        "glm.fit.iterations_max": max(it) if it else 0,
        "glm.fit.per_rep": (float(np.mean(c.fits_per_rep))
                            if c.fits_per_rep else 0.0),
    }
    out.update(c.failures)
    return out
