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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import expit, logit

from .dataset import DesignMatrix
from .errors import (
    DataError,
    GScoreError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)

_WEIGHT_FLOOR = 1e-12
# Max-abs score tolerance and iteration limit: fit's defaults, fit_batch's
_TOL, _MAX_ITER = 1e-10, 50
_EPS = np.finfo(float).eps
# fit_batch refits a fit by ``fit`` when its bread has a larger 1-norm
# condition number: normal equations then carry too few digits for the
# result to be certified as the reference's.
_COND_MAX = 1e8

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
    to terms free of beta, summed over the last axis; initial_intercept
    is link(arm mean), clipped to stay finite; a max |beta| above
    separation_norm is separation.  All but validate_outcome act
    elementwise, so they also serve a batch of fits.
    """

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    deriv_mu: Callable[[np.ndarray], np.ndarray]
    outcomes: tuple[str, Callable[[np.ndarray], np.ndarray]] | None
    loglik: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_intercept: Callable[[np.ndarray], np.ndarray]
    separation_norm: float = np.inf

    def validate_outcome(self, y: np.ndarray) -> None:
        if self.outcomes is not None and not self.outcomes[1](y).all():
            raise DataError(f"{self.name} requires {self.outcomes[0]} outcomes")


BERNOULLI_LOGIT = Family(
    "bernoulli-logit",
    mean=expit,
    deriv_mu=lambda mu: mu * (1.0 - mu),
    outcomes=("0/1", lambda y: (y == 0.0) | (y == 1.0)),
    # log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|), logaddexp's formula
    loglik=lambda y, eta: (y * eta - np.maximum(eta, 0.0)
                           - np.log1p(np.exp(-np.abs(eta)))).sum(axis=-1),
    initial_intercept=lambda ybar: logit(np.clip(ybar, 1e-6, 1 - 1e-6)),
    separation_norm=30.0,
)
POISSON_LOG = Family(
    "poisson-log", mean=np.exp, deriv_mu=np.asarray,
    outcomes=("nonnegative", lambda y: ~(y < 0)),
    loglik=lambda y, eta: (y * eta - np.exp(eta)).sum(axis=-1),
    initial_intercept=lambda ybar: np.log(np.maximum(ybar, 1e-6)),
)
GAUSSIAN_IDENTITY = Family(
    "gaussian-identity",
    mean=np.asarray,
    deriv_mu=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    outcomes=None,
    loglik=lambda y, eta: -0.5 * ((y - eta) ** 2).sum(axis=-1),
    initial_intercept=np.asarray,
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
    counterfactual_means are m(beta' X_i(a)) for a = 1, 2.  A fit_batch
    result stacks B fits: every array gains a leading batch axis, and
    converged, iterations and score_norm hold one value per fit.
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
        family: str | Family | None = None, *, tol: float = _TOL,
        max_iter: int = _MAX_ITER) -> FittedGLM:
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


# ------------------------------------------------------------------ #
# Batched fitting
# ------------------------------------------------------------------ #


def _matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X_b beta_b for each b: (B, n, p) by (B, p) gives (B, n)."""
    return np.matmul(X, beta[..., None])[..., 0]


def per_matrix(op, *stacks):
    """A numpy.linalg ``op`` on matrices with the same leading shape (none
    included), NaN where a matrix is singular (np.linalg raises for the
    whole stack instead).  The result has the shape of the last stack."""
    try:
        return op(*stacks)
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        for i in np.ndindex(stacks[0].shape[:-2]):
            try:
                out[i] = op(*(a[i] for a in stacks))
            except np.linalg.LinAlgError:
                pass
        return out


def fit_batch(design: DesignMatrix, y: np.ndarray):
    """Fit B working models at once: ``design`` stacks (B, n, p) designs
    and y is (B, n).

    IRLS runs on the stack with full Newton steps from batched normal
    equations, dropping each fit from the active set as it converges, and
    it only ever certifies success: a fit is refit by ``fit``, the
    reference and the only source of typed fit errors, when an arm's
    outcomes are all equal or the outcomes are invalid, once it shows a
    non-finite score, a singular solve, a step that would need halving,
    max |beta| past the family's separation_norm, or no convergence in
    fit's iteration limit, and when its converged bread is ill-conditioned
    (1-norm condition number above 1e8).  Each fit depends only on its own
    row, never on the rest of the batch.

    Returns the stacked FittedGLM and {row: error} for the rows whose
    refit raised; those rows hold zero coefficients, means and residuals,
    counterfactual means 1/2 and an identity bread, and are not converged.
    """
    fam = resolve_family(design.spec.family)
    X = design.X
    y = np.asarray(y, dtype=float)
    B, n, p = X.shape
    valid = np.isfinite(y).all()
    if valid and fam.outcomes is not None:
        valid = fam.outcomes[1](y).all()
    refit = np.full(B, not valid)
    beta = np.zeros((B, p))
    for j in (0, 1):
        if j < p:
            rows = X[..., j] == 1.0
            count = rows.sum(axis=-1)
            has = count > 0
            beta[has, j] = fam.initial_intercept(
                (y * rows).sum(axis=-1)[has] / count[has])
            # an arm of equal outcomes has arm means at the boundary of
            # the family or predictions that only rounding keeps off zero
            refit |= (np.where(rows, y, -np.inf).max(axis=-1)
                      == np.where(rows, y, np.inf).min(axis=-1))

    out_beta, out_mu = np.zeros((B, p)), np.zeros((B, n))
    iterations, score_norm = np.zeros(B, dtype=int), np.full(B, np.nan)
    # the active fits' transposed designs, for X' W X
    idx = np.flatnonzero(~refit)
    XT = np.ascontiguousarray(X[idx].transpose(0, 2, 1))
    ya, beta = y[idx], beta[idx]
    eta = _matvec(XT.transpose(0, 2, 1), beta)
    ll = fam.loglik(ya, eta)
    full_step = np.ones(idx.size, dtype=bool)
    for it in range(_MAX_ITER + 1):
        mu = fam.mean(eta)
        score = _matvec(XT, ya - mu)
        snorm = np.abs(score).max(axis=-1)
        done = full_step & (snorm <= _TOL)
        out_beta[idx[done]], out_mu[idx[done]] = beta[done], mu[done]
        iterations[idx[done]], score_norm[idx[done]] = it, snorm[done]
        go = full_step & ~done & np.isfinite(snorm) & (it < _MAX_ITER)
        refit[idx[~done & ~go]] = True
        if not go.all():
            idx, XT, ya = idx[go], XT[go], ya[go]
            beta, mu, score, ll = beta[go], mu[go], score[go], ll[go]
        if not idx.size:
            break
        Xa = XT.transpose(0, 2, 1)
        w = np.maximum(fam.deriv_mu(mu), _WEIGHT_FLOOR)
        beta = beta + per_matrix(np.linalg.solve,
                                 np.matmul(XT * w[:, None, :], Xa),
                                 score[..., None])[..., 0]
        eta = _matvec(Xa, beta)
        ll_new = fam.loglik(ya, eta)
        # a step that fit would halve, or that diverges, is left to fit
        full_step = (np.isfinite(ll_new)
                     & (ll_new >= ll - 1e-12 * (1.0 + np.abs(ll)))
                     & (np.abs(beta).max(axis=-1) <= fam.separation_norm))
        ll = ll_new

    resid = y - out_mu
    w = fam.deriv_mu(out_mu)
    bread = np.matmul(X.transpose(0, 2, 1) * w[:, None, :], X) / n
    ok = np.flatnonzero(~refit)
    refit[ok[~(np.linalg.cond(bread[ok], 1) <= _COND_MAX)]] = True
    cf = tuple(fam.mean(_matvec(Xc, out_beta)) for Xc in design.counterfactuals)
    errors = {}
    for b in np.flatnonzero(refit):
        row = replace(design, X=X[b], counterfactuals=tuple(
            Xc[b] for Xc in design.counterfactuals))
        try:
            f = fit(row, y[b])
        except GScoreError as err:
            errors[int(b)] = err
            out_beta[b], out_mu[b], resid[b] = 0.0, 0.0, 0.0
            bread[b], cf[0][b], cf[1][b] = np.eye(p), 0.5, 0.5
            continue
        out_beta[b], out_mu[b], resid[b], bread[b] = (
            f.beta, f.fitted, f.residuals, f.bread)
        cf[0][b], cf[1][b] = f.counterfactual_means
        iterations[b], score_norm[b] = f.iterations, f.score_norm
    converged = np.ones(B, dtype=bool)
    converged[list(errors)] = False
    return FittedGLM(
        beta=out_beta, bread=bread, fitted=out_mu, residuals=resid,
        converged=converged, iterations=iterations, score_norm=score_norm,
        family=fam, column_labels=design.column_labels,
        counterfactual_means=cf), errors
