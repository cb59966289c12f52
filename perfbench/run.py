"""Benchmark of gscore: OC-engine throughput and analyze latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload oc-null-adj3 --seed 1 --seconds 15 \\
        --trace 0

Workloads (configs in perfbench/configs/, reasons in BENCHMARK.json):
oc-null-adj3, oc-mixed-small and analyze-large.  All are closed loops with
one caller; inputs are made from --seed.  The unit of work is one run_oc
replication on the OC workloads and one in-process ``gscore analyze``
call (gscore.cli.main) on analyze-large.

--trace 0 measures for --seconds with tracing off and prints the
end-to-end metrics:

  reps_per_s       units per second, one worker: median over windows.
  reps_per_s_w2    the same with two workers (run_oc workers=2, pool
                   start-up included; on analyze-large two pool processes
                   each calling analyze with one BLAS thread, as a caller
                   per core would be deployed).
  scaling_eff_w2   reps_per_s_w2 / (2 x reps_per_s); the windows are
                   interleaved, so host-speed drift cancels.  Two-worker
                   windows are normalized by the reference run on both
                   cores at once, so this is efficiency relative to what
                   the host's two cores give the reference kernel, and a
                   value above 1 is possible.
  analyze_ms_p50   ms per unit, single worker: per analyze call on
  analyze_ms_p90   analyze-large, per replication (window mean) on the
                   OC workloads.
  setup_s          fresh interpreter -> import gscore and gscore.cli,
                   parse the workload config, solve calibration and
                   truth; median of several processes, each bracketed
                   by a reference process (ref_probe.py) instead of the
                   in-process kernel.
  peak_rss_mb      peak RSS of this process plus two times the largest
                   child's (the two-worker pools).

Times are in reference seconds (see clock.py): each operation is
bracketed by a fixed reference kernel so host-speed drift cancels.  Raw
wall-clock figures, window counts and quartiles go to the detail line.

--trace 1 replays the work with spans around every public call (see
tracing.py), writes them to perfbench/out/spans-<workload>-seed<seed>.jsonl
and prints the per-layer metrics.

Every run checks outputs: workers=1 and workers=2 tallies agree, the
spans' rebuild of run_oc reproduces its tallies, and analyze reports
match a direct load_csv + analyze_trial.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "gscore", "__init__.py")):
        sys.exit(f"perfbench: no gscore sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import gscore

    if not os.path.abspath(gscore.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: gscore imported from {gscore.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oc-null-adj3", "oc-mixed-small",
                                 "analyze-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _import_package()
    from perfbench import bench

    try:
        result, ok = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        _stop_children()
    print(json.dumps(result))
    return 0 if ok else 1


def _stop_children():
    """End and wait for every process the run started, so none outlives it.

    That includes multiprocessing's resource tracker, which the spawned
    reference helper and pools start and which would otherwise linger
    until it notices this process is gone.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
