"""Smoke test of the benchmark: a tiny run of every workload, both modes.

Usage (from the repository root): python3 perfbench/smoke.py

Runs each workload untraced and traced at toy sizes for about a second,
and requires that the output checks pass, that every metric declared in
BENCHMARK.json is printed with its unit, that the traced run wrote its
spans and that no child process outlives a run.  It also feeds the
checks altered outputs and requires them to fail.  Takes about a minute on two cores; exits non-zero on failure.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run  # noqa: E402

TINY = {
    "oc-null-adj3": dict(w1_reps=5, w1_per_cycle=1, w2_reps=260,
                         trace_reps=10),
    "oc-mixed-small": dict(w1_reps=5, w1_per_cycle=1, w2_reps=260,
                           trace_reps=10),
    "analyze-large": dict(w1_per_cycle=1, w2_calls=2, rows=400),
}


def _require(cond: bool, msg: str, failures: list):
    if not cond:
        failures.append(msg)
        print(f"FAIL {msg}", flush=True)


def _check_negative(failures: list):
    """The checks must reject altered outputs."""
    from perfbench import workloads

    row = ("m", 1, 10, 20, 0.125)
    _require(not workloads.compare_tallies([row], [row], "same"),
             "identical tallies compare equal", failures)
    for bad in (("m", 2, 10, 20, 0.125), ("m", 1, 11, 20, 0.125),
                ("m", 1, 10, 21, 0.125), ("m", 1, 10, 20, 0.125 + 1e-9)):
        _require(bool(workloads.compare_tallies([bad], [row], "altered")),
                 f"altered tally {bad} is rejected", failures)
    fields = {"mu1": 0.3, "score.ci_lo": math.nan}
    _require(not workloads.compare_fields(dict(fields), fields),
             "identical report fields compare equal", failures)
    _require(bool(workloads.compare_fields(dict(fields, mu1=0.3 + 1e-9),
                                           fields)),
             "altered report field is rejected", failures)


def main() -> int:
    run._import_package()
    from perfbench import bench, workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    failures: list[str] = []
    _check_negative(failures)
    for name, sizes in TINY.items():
        for trace in (False, True):
            result, ok = bench.run(name, seed=7, seconds=0.5, trace=trace,
                                   sizes=workloads.Sizes(**sizes),
                                   setup_runs=1)
            what = f"{name} trace={int(trace)}"
            _require(not multiprocessing.active_children(),
                     f"{what}: no child process outlives the run", failures)
            _require(ok and result["correct"], f"{what}: output checks pass",
                     failures)
            _require(result["attempted"] >= 1 and result["failed"] == 0,
                     f"{what}: attempted >= 1 and nothing failed", failures)
            declared = spec["per_layer" if trace else "end_to_end"]
            _require([m["name"] for m in declared] == list(result["metrics"]),
                     f"{what}: every declared metric is printed", failures)
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                _require(got.get("unit") == m["unit"]
                         and isinstance(got.get("value"), (int, float)),
                         f"{what}: {m['name']} has a value and unit {m['unit']}",
                         failures)
            if not trace:
                _require(all(result["metrics"][m["name"]]["value"] > 0
                             for m in declared),
                         f"{what}: end-to-end metrics are positive", failures)
                continue
            spans = os.path.join(HERE, "out", f"spans-{name}-seed7.jsonl")
            with open(spans, encoding="utf-8") as fh:
                first = json.loads(fh.readline())
            _require(set(first) == {"id", "name", "start_ns", "end_ns",
                                    "parent", "rep"},
                     f"{what}: spans written with their fields", failures)
            calls = result["metrics"]["dataset.load_csv.calls"]["value"]
            _require((calls > 0) != workloads.is_oc(name),
                     f"{what}: load_csv runs on analyze-large only", failures)
    run._stop_children()
    print(f"smoke: {'FAILED' if failures else 'ok'} "
          f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
