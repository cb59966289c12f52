"""Host-speed reference, statistics and the environment record.

The benchmark host is a shared 2-vCPU machine whose speed drifts by a
third or more over tens of seconds, so raw wall-clock rates taken minutes
apart are not comparable.  Every timed operation is therefore bracketed
by short runs of a fixed reference kernel (numpy, scipy and Python code
that never touches gscore), and its wall time is converted to *reference
seconds*: wall time x (reference units per second around it) /
REF_UNITS_PER_S.  A reference second is the time the host needs for
REF_UNITS_PER_S reference units; on the development host (2 vCPU,
OpenBLAS, Python 3.11) in its faster state that is close to one wall
second.  A change to gscore moves the operation's time but not the
reference, so it shows in full; a change of host speed moves both and
mostly cancels.  Raw wall-clock figures are printed beside every
normalized one.

Set-up runs in fresh interpreters, whose time is mostly process start and
imports and follows the in-process kernel poorly.  Each set-up is
therefore bracketed by a reference process instead (ref_probe.py), and
its reference rate is REF_UNITS_PER_S x REF_PROBE_S / (probe wall time):
a set-up's reference seconds are its wall time x REF_PROBE_S / (probe
wall time).
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import expit
from scipy.stats import chi2, norm

REF_UNITS_PER_S = 2000.0
REF_CHUNK_UNITS = 12
PAIRED_CHUNK_UNITS = 24
REF_PROBE_UNITS = 60
REF_PROBE_S = 1.0
REF_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "ref_probe.py")


class RefKernel:
    """Fixed work of the kind gscore does: a small logistic IRLS through a
    pivoted QR, a covariance, scipy.stats tail probabilities and parsing a
    few CSV rows.  It tracks the host's speed for gscore's instruction mix
    far better than raw wall time does, and no gscore change can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(20250317)
        self.X = np.column_stack([np.ones(64), rng.standard_normal((64, 3))])
        self.y = (rng.random(64) < 0.3).astype(float)
        self.text = "\n".join(",".join(repr(float(v)) for v in row)
                              for row in rng.standard_normal((20, 5)))

    def _unit(self) -> float:
        X, y = self.X, self.y
        beta = np.zeros(X.shape[1])
        for _ in range(3):
            mu = expit(X @ beta)
            w = mu * (1.0 - mu)
            r, piv = qr(np.sqrt(w)[:, None] * X, mode="r", pivoting=True)
            R = r[: X.shape[1]]
            d = solve_triangular(
                R, solve_triangular(R, (X.T @ (y - mu))[piv], trans="T"))
            step = np.empty_like(d)
            step[piv] = d
            beta = beta + step
        c = np.cov(np.column_stack([mu, w]).T, ddof=1)
        p = (float(norm.sf(beta[1])) + float(chi2.sf(abs(beta[2]), 1))
             + float(chi2.ppf(0.95, 1)))
        rows = [{f"k{i}": float(t) for i, t in enumerate(row)}
                for row in csv.reader(io.StringIO(self.text))]
        return p + float(c[0, 0]) + len(rows)

    def rate(self, units: int = REF_CHUNK_UNITS) -> float:
        """Reference units per wall second over ``units`` units."""
        t0 = time.perf_counter()
        for _ in range(units):
            self._unit()
        return units / (time.perf_counter() - t0)


class PairedRef:
    """Reference rate of both cores at once: this process and a helper.

    Two-worker operations are bracketed by it, so that a busy second core
    counts against the host rather than against gscore.
    """

    def __init__(self, ref: RefKernel):
        ctx = multiprocessing.get_context("spawn")
        self.ref = ref
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_ref_helper, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.rate()

    def rate(self) -> float:
        """Reference units per wall second per core, both cores busy.

        Twice the single-core chunk: two processes' samples are noisier.
        """
        self.conn.send(True)
        own = self.ref.rate(PAIRED_CHUNK_UNITS)
        return 0.5 * (own + self.conn.recv())

    def close(self):
        try:
            self.conn.send(False)
        except OSError:  # the helper is gone already
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _ref_helper(conn):
    ref = RefKernel()
    while conn.recv():
        conn.send(ref.rate(PAIRED_CHUNK_UNITS))
    conn.close()


def ref_probe_rate() -> float:
    """Reference units per second from one run of the reference process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, REF_PROBE], check=True, timeout=120)
    return REF_UNITS_PER_S * REF_PROBE_S / (time.perf_counter() - t0)


class Timeline:
    """Timed operations, each bracketed by reference samples.

    The host speed for an operation is the mean of the samples taken just
    before and just after it; ``paired=True`` brackets it with both cores
    busy, for operations that use both.
    """

    def __init__(self, ref: RefKernel, paired: PairedRef | None = None):
        self.ref = ref
        self.paired = paired
        self.ops: list[tuple[str, float, float]] = []  # kind, wall, ref rate

    def time(self, kind: str, fn, paired: bool = False):
        sample = self.paired.rate if paired else self.ref.rate
        before = sample()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.add(kind, wall, 0.5 * (before + sample()))
        return out

    def add(self, kind: str, wall: float, ref_rate: float):
        """Record an operation timed by the caller."""
        self.ops.append((kind, wall, ref_rate))

    def walls(self, kind: str) -> list[float]:
        return [w for k, w, _ in self.ops if k == kind]

    def refs(self, kind: str) -> list[float]:
        return [r for k, _, r in self.ops if k == kind]

    def ref_walls(self, kind: str) -> list[float]:
        """Wall times of ``kind`` converted to reference seconds."""
        return [w * r / REF_UNITS_PER_S for k, w, r in self.ops if k == kind]


def quartiles(values) -> list[float]:
    """[q1, median, q3] as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary(values) -> dict:
    """Median, quartiles and count, for the detail record."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest child's.

    Children are counted once they have been waited for; pool workers are
    assumed to peak together, which makes this an upper estimate.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def environment(seed: int) -> dict:
    import scipy

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "configuration": info.get("openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        pass
    threads = {v: os.environ.get(v, "unset") for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "ref_units_per_s": REF_UNITS_PER_S,
    }
