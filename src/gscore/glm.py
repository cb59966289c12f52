"""Canonical-link GLMs fit by iteratively reweighted least squares.

Three families: bernoulli-logit, poisson-log, gaussian-identity.  The
fit solves the score equation sum_i X_i (Y_i - m(beta' X_i)) = 0 by
Newton steps; each step solves the weighted normal equations through a
column-pivoted QR so rank loss is detected and reported by column name
instead of silently inverted away.  Convergence is declared on the raw
max-abs score component (default 1e-10); step halving on the
log-likelihood guards the rare overshooting step.

Because the left-hand side of the score equation is exactly the
gradient used downstream (bread, influence), no dispersion or variance
function beyond m' appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import expit, logit

from .dataset import DesignMatrix
from .errors import (
    DataError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)

_WEIGHT_FLOOR = 1e-12
_EPS = np.finfo(float).eps

# What scipy.linalg.qr(pivoting=True) and solve_triangular call, called
# directly: at trial sizes their wrappers cost more than the arithmetic.
_GEQP3, _TRTRS = get_lapack_funcs(("geqp3", "trtrs"), (np.empty((1, 1)),))


# ------------------------------------------------------------------ #
# Families
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Family:
    """Canonical family: mean m, its derivative m' as a function of the
    mean (canonical links allow it), and the rules that differ by family:
    outcomes names and tests the valid outcomes (None: any); loglik is up
    to terms free of beta; initial_intercept is link(arm mean), clipped
    to stay finite; a max |beta| above separation_norm is separation.
    """

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    deriv_mu: Callable[[np.ndarray], np.ndarray]
    outcomes: tuple[str, Callable[[np.ndarray], np.ndarray]] | None
    loglik: Callable[[np.ndarray, np.ndarray], float]
    initial_intercept: Callable[[float], float]
    separation_norm: float = np.inf

    def validate_outcome(self, y: np.ndarray) -> None:
        if self.outcomes is not None and not self.outcomes[1](y).all():
            raise DataError(f"{self.name} requires {self.outcomes[0]} outcomes")


BERNOULLI_LOGIT = Family(
    "bernoulli-logit",
    mean=expit,
    deriv_mu=lambda mu: mu * (1.0 - mu),
    outcomes=("0/1", lambda y: (y == 0.0) | (y == 1.0)),
    loglik=lambda y, eta: float((y * eta - np.logaddexp(0.0, eta)).sum()),
    initial_intercept=lambda ybar: float(logit(np.clip(ybar, 1e-6, 1 - 1e-6))),
    separation_norm=30.0,
)
POISSON_LOG = Family(
    "poisson-log", mean=np.exp, deriv_mu=np.asarray,
    outcomes=("nonnegative", lambda y: ~(y < 0)),
    loglik=lambda y, eta: float((y * eta - np.exp(eta)).sum()),
    initial_intercept=lambda ybar: float(np.log(max(ybar, 1e-6))),
)
GAUSSIAN_IDENTITY = Family(
    "gaussian-identity",
    mean=np.asarray,
    deriv_mu=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    outcomes=None,
    loglik=lambda y, eta: float(-0.5 * ((y - eta) ** 2).sum()),
    initial_intercept=float,
)

_FAMILIES = {f.name: f for f in (BERNOULLI_LOGIT, POISSON_LOG, GAUSSIAN_IDENTITY)}


def resolve_family(family: str | Family) -> Family:
    if isinstance(family, Family):
        return family
    if family not in _FAMILIES:
        raise DataError(f"unknown family {family!r}; expected one of "
                        f"{sorted(_FAMILIES)}")
    return _FAMILIES[family]


# ------------------------------------------------------------------ #
# Fitting
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class FittedGLM:
    """Converged fit: coefficients plus everything downstream reuses.

    bread is (1/n) sum_i m'(beta' X_i) X_i X_i', the normalized negative
    score Jacobian; residuals are Y_i - fitted_i on the response scale;
    counterfactual_means are m(beta' X_i(a)) for a = 1, 2.
    """

    beta: np.ndarray
    bread: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int
    score_norm: float
    family: Family
    column_labels: tuple[str, ...]
    counterfactual_means: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=None)
def _geqp3_lwork(p: int) -> int:
    """Optimal geqp3 workspace; LAPACK sizes it from the column count."""
    return int(_GEQP3(np.empty((p, p), order="F"), lwork=-1)[3][0])


def _solve_newton(X, w, score, labels):
    """delta solving (X' diag(w) X) delta = score, via pivoted QR."""
    n, p = X.shape
    A = np.multiply(np.sqrt(w)[:, None], X, order="F")
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    qr, piv, _, _, info = _GEQP3(A, lwork=_geqp3_lwork(p), overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    piv -= 1
    diag = np.abs(qr.diagonal())
    rank_tol = (diag[0] if diag.size else 0.0) * max(n, p) * _EPS
    rank = int(np.count_nonzero(diag > rank_tol))
    if rank < p:
        dependent = tuple(labels[j] for j in piv[rank:])
        raise RankDeficiencyError(
            f"design is rank deficient (rank {rank} of {p}); "
            f"dependent columns: {list(dependent)}", columns=dependent)
    Rt = qr[:p].T  # lower triangle is R'; solve_triangular's two calls:
    u, info_u = _TRTRS(Rt, score[piv], lower=1, trans=0)  # R' u = score
    dp, info_d = _TRTRS(Rt, u, lower=1, trans=1)  # R dp = u
    if info_u or info_d:
        raise np.linalg.LinAlgError("singular triangular factor")
    delta = np.empty_like(dp)
    delta[piv] = dp
    return delta


def fit(design: DesignMatrix, y: np.ndarray,
        family: str | Family | None = None, *, tol: float = 1e-10,
        max_iter: int = 50) -> FittedGLM:
    """Fit the working model by IRLS; raises rather than returning junk.

    Initialization puts each arm indicator at link(its arm's mean
    outcome) and every other coefficient at zero, so arm-only models
    start at their solution.  Non-convergence, rank deficiency, and
    logistic separation raise typed errors carrying diagnostics.
    """
    fam = resolve_family(family if family is not None
                         else design.spec.family)
    X, labels = design.X, design.column_labels
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if y.shape != (n,):
        raise DataError(f"y has shape {y.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise DataError("y contains non-finite values")
    fam.validate_outcome(y)

    beta = np.zeros(p)
    for j in (0, 1):
        if j < p:
            rows = X[:, j] == 1.0
            if rows.any():
                beta[j] = fam.initial_intercept(float(y[rows].mean()))

    eta = X @ beta
    ll = fam.loglik(y, eta)
    snorm = np.inf
    for it in range(max_iter + 1):
        mu = fam.mean(eta)
        resid = y - mu
        score = X.T @ resid
        if not np.isfinite(score).all():
            raise NonConvergenceError(
                "score became non-finite", beta=beta, score_norm=float("nan"),
                iterations=it)
        snorm = float(np.abs(score).max()) if p else 0.0
        if snorm <= tol:
            w = fam.deriv_mu(mu)
            bread = (X * w[:, None]).T @ X / n
            return FittedGLM(
                beta=beta, bread=bread, fitted=mu, residuals=resid,
                converged=True, iterations=it, score_norm=snorm,
                family=fam, column_labels=labels, counterfactual_means=tuple(
                    fam.mean(Xa @ beta) for Xa in design.counterfactuals))
        if it == max_iter:
            break
        w = np.maximum(fam.deriv_mu(mu), _WEIGHT_FLOOR)
        delta = _solve_newton(X, w, score, labels)
        step = 1.0
        for _ in range(30):
            cand = beta + step * delta
            eta_c = X @ cand
            ll_c = fam.loglik(y, eta_c)
            if math.isfinite(ll_c) and ll_c >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        beta, eta, ll = cand, eta_c, ll_c
        if np.abs(beta).max() > fam.separation_norm:
            raise SeparationError(
                f"coefficients diverged (max |beta| > {fam.separation_norm:g}); "
                "data are separated or nearly so")
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (max-abs score {snorm:.3e})",
        beta=beta, score_norm=snorm, iterations=max_iter)
