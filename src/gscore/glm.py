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

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import expit, logit

from .dataset import DesignMatrix
from .errors import (
    DataError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)

_WEIGHT_FLOOR = 1e-12
_SEPARATION_NORM = 30.0


# ------------------------------------------------------------------ #
# Families
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Family:
    """Canonical family: mean function m and its derivative."""

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    def mean_response(self, beta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """m(beta' X_i) for every row of X."""
        return self.mean(np.asarray(X) @ beta)

    def mean_derivative(self, beta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """m'(beta' X_i) for every row of X."""
        return self.deriv(np.asarray(X) @ beta)

    def validate_outcome(self, y: np.ndarray) -> None:
        if self.name == "bernoulli-logit":
            if not np.isin(y, (0.0, 1.0)).all():
                raise DataError("bernoulli-logit requires 0/1 outcomes")
        elif self.name == "poisson-log":
            if (y < 0).any():
                raise DataError("poisson-log requires nonnegative outcomes")

    def loglik(self, y: np.ndarray, eta: np.ndarray) -> float:
        """Log-likelihood up to terms free of beta (enough for monotonicity)."""
        if self.name == "bernoulli-logit":
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        if self.name == "poisson-log":
            return float(np.sum(y * eta - np.exp(eta)))
        return float(-0.5 * np.sum((y - eta) ** 2))

    def initial_intercept(self, ybar: float) -> float:
        """link(arm mean), clipped so the transform is finite."""
        if self.name == "bernoulli-logit":
            return float(logit(np.clip(ybar, 1e-6, 1 - 1e-6)))
        if self.name == "poisson-log":
            return float(np.log(max(ybar, 1e-6)))
        return float(ybar)


BERNOULLI_LOGIT = Family(
    "bernoulli-logit",
    mean=expit,
    deriv=lambda eta: expit(eta) * (1.0 - expit(eta)),
)
POISSON_LOG = Family("poisson-log", mean=np.exp, deriv=np.exp)
GAUSSIAN_IDENTITY = Family(
    "gaussian-identity",
    mean=np.asarray,
    deriv=lambda eta: np.ones_like(np.asarray(eta, dtype=float)),
)

_FAMILIES = {f.name: f for f in (BERNOULLI_LOGIT, POISSON_LOG, GAUSSIAN_IDENTITY)}


def resolve_family(family: str | Family) -> Family:
    if isinstance(family, Family):
        return family
    try:
        return _FAMILIES[family]
    except KeyError:
        raise DataError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}"
        ) from None


# ------------------------------------------------------------------ #
# Fitting
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class FittedGLM:
    """Converged fit: coefficients plus everything downstream reuses.

    bread is (1/n) sum_i m'(beta' X_i) X_i X_i', the normalized negative
    score Jacobian; residuals are Y_i - fitted_i on the response scale.
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

    @property
    def n(self) -> int:
        return self.fitted.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[0]


def _design_parts(design) -> tuple[np.ndarray, tuple[str, ...]]:
    if isinstance(design, DesignMatrix):
        return design.X, design.column_labels()
    X = np.asarray(design, dtype=float)
    return X, tuple(f"x{j}" for j in range(X.shape[1]))


def _solve_newton(X, w, score, labels):
    """delta solving (X' diag(w) X) delta = score, via pivoted QR."""
    A = np.sqrt(w)[:, None] * X
    r_mat, piv = qr(A, mode="r", pivoting=True)
    R = r_mat[: X.shape[1], :]
    diag = np.abs(np.diag(R))
    rank_tol = (diag[0] if diag.size else 0.0) * max(A.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > rank_tol))
    if rank < X.shape[1]:
        dependent = tuple(labels[j] for j in piv[rank:])
        raise RankDeficiencyError(
            f"design is rank deficient (rank {rank} of {X.shape[1]}); "
            f"dependent columns: {list(dependent)}", columns=dependent)
    sp = score[piv]
    u = solve_triangular(R, sp, trans="T", lower=False)
    dp = solve_triangular(R, u, lower=False)
    delta = np.empty_like(dp)
    delta[piv] = dp
    return delta


def fit(design, y: np.ndarray, family: str | Family | None = None, *,
        tol: float = 1e-10, max_iter: int = 50) -> FittedGLM:
    """Fit the working model by IRLS; raises rather than returning junk.

    Initialization puts each arm indicator at link(its arm's mean
    outcome) and every other coefficient at zero, so arm-only models
    start at their solution.  Non-convergence, rank deficiency, and
    logistic separation raise typed errors carrying diagnostics.
    """
    fam = resolve_family(family if family is not None
                         else design.spec.family)
    X, labels = _design_parts(design)
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
        snorm = float(np.max(np.abs(score))) if p else 0.0
        if snorm <= tol:
            w = fam.deriv(eta)
            bread = (X * w[:, None]).T @ X / n
            return FittedGLM(
                beta=beta, bread=bread, fitted=mu, residuals=resid,
                converged=True, iterations=it, score_norm=snorm,
                family=fam, column_labels=labels)
        if it == max_iter:
            break
        w = np.maximum(fam.deriv(eta), _WEIGHT_FLOOR)
        delta = _solve_newton(X, w, score, labels)
        step = 1.0
        for _ in range(30):
            cand = beta + step * delta
            eta_c = X @ cand
            ll_c = fam.loglik(y, eta_c)
            if np.isfinite(ll_c) and ll_c >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        beta, eta, ll = cand, eta_c, ll_c
        if fam.name == "bernoulli-logit" and np.max(np.abs(beta)) > _SEPARATION_NORM:
            raise SeparationError(
                f"coefficients diverged (max |beta| > {_SEPARATION_NORM:g}); "
                "data are separated or nearly so")
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (max-abs score {snorm:.3e})",
        beta=beta, score_norm=snorm, iterations=max_iter)
