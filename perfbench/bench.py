"""Measurement and tracing of the benchmark's workloads; see run.py."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import gscore.cli
from gscore import generate_trial, run_oc

from perfbench import clock, tracing, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5


def _declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------------ #
# End-to-end (untraced) runs
# ------------------------------------------------------------------ #


def _setup_times(tl, name: str, runs: int):
    """Time ``runs`` fresh-interpreter set-ups, each between two reference
    processes; neighbouring set-ups share the one between them."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name]
    before = clock.ref_probe_rate()
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(probe, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = clock.ref_probe_rate()
        tl.add("setup", wall, 0.5 * (before + after))
        before = after


def _order(cycle: int, seed: int) -> tuple[str, str]:
    """One- and two-worker windows are interleaved so that host-speed drift
    reaches both alike; they swap places every cycle, and the first
    cycle's order alternates with the seed."""
    return ("w1", "w2") if (cycle + seed) % 2 == 0 else ("w2", "w1")


def e2e_oc(name, doc, sizes, seed, seconds, setup_runs, work_dir):
    ref = clock.RefKernel()
    with clock.PairedRef(ref) as paired:
        tl = clock.Timeline(ref, paired)
        _setup_times(tl, name, setup_runs)
        scenario, methods, truth = workloads.setup(doc)

        def oc(reps, workers):
            return run_oc(scenario, methods, reps, seed=seed,
                          level=workloads.LEVEL, workers=workers)

        oc(sizes.w1_reps, 1)
        oc(sizes.w2_reps, 2)

        deadline = time.perf_counter() + seconds
        cycle = 0
        while time.perf_counter() < deadline:
            for kind in _order(cycle, seed):
                if kind == "w1":
                    for _ in range(sizes.w1_per_cycle):
                        res1 = tl.time("w1", lambda: oc(sizes.w1_reps, 1))
                else:
                    res2 = tl.time("w2", lambda: oc(sizes.w2_reps, 2),
                                   paired=True)
            cycle += 1

    errors = workloads.compare_tallies(
        workloads.oc_tally(res2), workloads.oc_tally(oc(sizes.w2_reps, 1)),
        "workers=2 vs workers=1")
    records = tracing.rebuild(scenario, methods, seed, sizes.w1_reps,
                              tracing.Tracer(), tracing.Counters(),
                              workloads.LEVEL)
    errors += workloads.compare_tallies(
        tracing.tally(records, methods, truth), workloads.oc_tally(res1),
        "rebuild vs run_oc")

    w1 = tl.ref_walls("w1")
    w2 = tl.ref_walls("w2")
    attempted = len(w1) * sizes.w1_reps + len(w2) * sizes.w2_reps
    return _e2e_result(
        tl, errors, attempted, 0,
        rates_w1=[sizes.w1_reps / w for w in w1],
        rates_w2=[sizes.w2_reps / w for w in w2],
        latency_ms=[1e3 * w / sizes.w1_reps for w in w1], cycles=cycle,
        unit_of_work=f"replications ({sizes.w1_reps} per one-worker window, "
              f"{sizes.w2_reps} per two-worker window, "
              f"{len(methods)} methods, n={scenario.n})",
        failed_methods=sum(m.n_failed for m in res2.methods),
        method_reps=sizes.w2_reps * len(methods))


def e2e_analyze(name, doc, sizes, seed, seconds, setup_runs, work_dir):
    out = os.path.join(work_dir, "report.json")
    w2_outs = [os.path.join(work_dir, f"report-w2-{i}.json")
               for i in range(sizes.w2_calls)]
    errors, codes = [], []
    ref = clock.RefKernel()
    with clock.PairedRef(ref) as paired:
        tl = clock.Timeline(ref, paired)
        _setup_times(tl, name, setup_runs)
        csv_path, cfg = _analyze_inputs(doc, sizes, seed, work_dir)
        want = workloads.direct_fields(csv_path, doc)

        def call():
            rc = workloads.analyze_call(cfg, out)
            codes.append(rc)
            return rc

        def check(rc, fields, what):
            if rc != 0:
                errors.append(f"{what}: exit code {rc}")
            errors.extend(f"{what}: {e}"
                          for e in workloads.compare_fields(fields, want))

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            def w2_window():
                return [f.result() for f in [
                    pool.submit(workloads.analyze_task, cfg, p)
                    for p in w2_outs]]

            call()
            with _one_blas_thread():  # both workers start here
                w2_window()
            codes.clear()

            deadline = time.perf_counter() + seconds
            cycle = 0
            while time.perf_counter() < deadline:
                for kind in _order(cycle, seed):
                    if kind == "w1":
                        for _ in range(sizes.w1_per_cycle):
                            rc = tl.time("w1", call)
                            with open(out, encoding="utf-8") as fh:
                                check(rc, workloads.report_fields(
                                    json.load(fh)), "analyze report")
                    else:
                        for rc, fields in tl.time("w2", w2_window,
                                                  paired=True):
                            codes.append(rc)
                            check(rc, fields, "two-worker analyze report")
                cycle += 1

    w1 = tl.ref_walls("w1")
    w2 = tl.ref_walls("w2")
    failed = sum(rc != 0 for rc in codes)
    return _e2e_result(
        tl, errors, len(codes), failed,
        rates_w1=[1.0 / w for w in w1],
        rates_w2=[sizes.w2_calls / w for w in w2],
        latency_ms=[1e3 * w for w in w1], cycles=cycle,
        unit_of_work=f"analyze calls on a {_rows(doc, sizes)}-row CSV "
              f"({sizes.w2_calls} per two-worker window)",
        failed_methods=failed, method_reps=len(codes))


@contextlib.contextmanager
def _one_blas_thread():
    """Processes started inside inherit a one-thread BLAS setting.

    Two analyze callers on two cores would otherwise run four BLAS threads,
    whose spinning makes the two-worker figures swing with the host.
    """
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {k: os.environ.get(k) for k in names}
    os.environ.update({k: "1" for k in names})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _e2e_result(tl, errors, attempted, failed, *, rates_w1, rates_w2,
                latency_ms, cycles, unit_of_work, failed_methods,
                method_reps):
    setup = tl.ref_walls("setup")
    reps_per_s = statistics.median(rates_w1)
    reps_per_s_w2 = statistics.median(rates_w2)
    metrics = {
        "reps_per_s": reps_per_s,
        "reps_per_s_w2": reps_per_s_w2,
        "scaling_eff_w2": reps_per_s_w2 / (2.0 * reps_per_s),
        "analyze_ms_p50": clock.percentile(latency_ms, 50),
        "analyze_ms_p90": clock.percentile(latency_ms, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": clock.peak_rss_mb(workers=2),
    }
    detail = {
        "unit_of_work": unit_of_work,
        "cycles": cycles,
        "reps_per_s": clock.summary(rates_w1),
        "reps_per_s_w2": clock.summary(rates_w2),
        "analyze_ms": clock.summary(latency_ms),
        "setup_s": clock.summary(setup),
        "raw_wall_s": {k: clock.summary(tl.walls(k))
                       for k in ("w1", "w2", "setup")},
        "ref_units_per_s": {k: clock.summary(tl.refs(k))
                            for k in ("w1", "w2", "setup")},
        "failed_frac": {"failed": failed_methods, "of": method_reps},
    }
    return metrics, detail, errors, attempted, failed


# ------------------------------------------------------------------ #
# Traced runs
# ------------------------------------------------------------------ #


def traced_oc(name, doc, sizes, seed, seconds, work_dir):
    tr = tracing.Tracer()
    counters = tracing.Counters()
    scenario, methods, truth = workloads.setup(doc, span=tr.span)
    reps = sizes.trace_reps

    def oc(block_seed, workers):
        return run_oc(scenario, methods, reps, seed=block_seed,
                      level=workloads.LEVEL, workers=workers)

    tracing.rebuild(scenario, methods, seed, 20, tracing.Tracer(),
                    tracing.Counters(), workloads.LEVEL)
    run_oc(scenario, methods, 20, seed=seed, level=workloads.LEVEL)

    errors = []
    untraced = traced = 0.0
    failed_methods = method_reps = 0
    deadline = time.perf_counter() + seconds
    block = 0
    while block == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        res = oc(seed + block, 1)
        t1 = time.perf_counter()
        records = tracing.rebuild(scenario, methods, seed + block, reps, tr,
                                  counters, workloads.LEVEL,
                                  rep_base=block * reps)
        t2 = time.perf_counter()
        untraced += t1 - t0
        traced += t2 - t1
        errors += workloads.compare_tallies(
            tracing.tally(records, methods, truth), workloads.oc_tally(res),
            f"rebuild vs run_oc (seed {seed + block})")
        failed_methods += sum(m.n_failed for m in res.methods)
        method_reps += reps * len(methods)
        if block == 0:
            first = res
        block += 1
    errors += workloads.compare_tallies(
        workloads.oc_tally(oc(seed, 2)), workloads.oc_tally(first),
        "workers=2 vs workers=1")

    metrics = tracing.layer_metrics(tr, tr.root_ns())
    metrics.update(tracing.counter_metrics(counters))
    metrics.update({
        "cli.analyze.self_ms": 0.0,
        "trace.overhead": traced / untraced,
        "failed_frac": failed_methods / method_reps,
        "failed_frac.attempted": method_reps,
    })
    return tr, metrics, errors, block * reps


def traced_analyze(name, doc, sizes, seed, seconds, work_dir):
    tr = tracing.Tracer()
    counters = tracing.Counters()
    csv_path, cfg = _analyze_inputs(doc, sizes, seed, work_dir,
                                    span=tr.span)
    want = workloads.direct_fields(csv_path, doc)
    out = os.path.join(work_dir, "report.json")
    workloads.analyze_call(cfg, out)

    patched = {"load_csv": tr.wrap("dataset.load_csv", gscore.cli.load_csv),
               "analyze_trial": tr.wrap("inference.analyze_trial",
                                        gscore.cli.analyze_trial)}
    originals = {k: getattr(gscore.cli, k) for k in patched}

    errors, codes = [], []
    untraced = traced = 0.0
    deadline = time.perf_counter() + seconds
    while not codes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        codes.append(workloads.analyze_call(cfg, out))
        t1 = time.perf_counter()
        tr.current_rep = len(codes)
        for k, fn in patched.items():
            setattr(gscore.cli, k, fn)
        try:
            with tr.span("cli.analyze"):
                codes.append(workloads.analyze_call(cfg, out))
        finally:
            for k, fn in originals.items():
                setattr(gscore.cli, k, fn)
        t2 = time.perf_counter()
        untraced += t1 - t0
        traced += t2 - t1
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        counters.iterations.append(report["fit"]["iterations"])
        counters.fits_per_rep.append(1)
        counters.failures["inference.interval_undefined"] += len(
            report["undefined_intervals"])
        errors.extend(workloads.compare_fields(
            workloads.report_fields(report), want))
    errors.extend(f"analyze exit code {rc}" for rc in codes if rc != 0)

    failed = sum(rc != 0 for rc in codes)
    metrics = tracing.layer_metrics(tr, tr.root_ns())
    metrics.update(tracing.counter_metrics(counters))
    metrics.update({
        "cli.analyze.self_ms": statistics.median(tr.self_us("cli.analyze")) / 1e3,
        "trace.overhead": traced / untraced,
        "failed_frac": failed / len(codes),
        "failed_frac.attempted": len(codes),
    })
    return tr, metrics, errors, len(codes)


# ------------------------------------------------------------------ #
# Shared pieces and entry point
# ------------------------------------------------------------------ #


def _rows(doc, sizes) -> int:
    return sizes.rows or int(doc["scenario"]["n"])


def _analyze_inputs(doc, sizes, seed, work_dir, span=None):
    """Write the seed's trial CSV and the analyze config; return their paths."""
    span = span or contextlib.nullcontext
    doc = dict(doc, scenario=dict(doc["scenario"], n=_rows(doc, sizes)))
    scenario, _, _ = workloads.setup(doc, span=span)
    with span("simulation.generate_trial"):
        data = generate_trial(scenario, workloads.data_rng(seed))
    csv_path = os.path.join(work_dir, "trial.csv")
    cfg = os.path.join(work_dir, "analyze.yaml")
    workloads.write_trial_csv(csv_path, data)
    workloads.write_analyze_config(cfg, csv_path, doc)
    return csv_path, cfg


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None, setup_runs: int = SETUP_RUNS) -> tuple[dict, bool]:
    """One benchmark run; returns (result object, all checks passed)."""
    doc = workloads.load_config(workload)
    sizes = sizes or workloads.WORKLOADS[workload]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        if trace:
            fn = traced_oc if workloads.is_oc(workload) else traced_analyze
            tr, values, errors, attempted = fn(
                workload, doc, sizes, seed, seconds, work_dir)
            spans_path = os.path.join(out_dir,
                                      f"spans-{workload}-seed{seed}.jsonl")
            n_spans = tr.write(spans_path)
            failed = 0
            detail = {"spans": os.path.relpath(spans_path, ROOT),
                      "span_count": n_spans}
        else:
            fn = e2e_oc if workloads.is_oc(workload) else e2e_analyze
            values, detail, errors, attempted, failed = fn(
                workload, doc, sizes, seed, seconds, setup_runs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = _declared_metrics(trace)
    if set(declared) != set(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(values))}")
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in declared.items()}
    detail.update(workload=workload, trace=int(trace),
                  sizes=dataclasses.asdict(sizes),
                  environment=clock.environment(seed), errors=errors[:20],
                  error_count=len(errors))
    print(json.dumps({"detail": detail}))
    result = {"correct": not errors, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    return result, not errors
