"""Canonical-link GLMs fit by iteratively reweighted least squares.

Three families: bernoulli-logit, poisson-log, gaussian-identity.  The
fit solves the score equation sum_i X_i (Y_i - m(beta' X_i)) = 0 by
Newton steps on the weighted normal equations.  A fit whose first normal
equations are ill-conditioned, or whose solve fails, steps by a
column-pivoted QR instead, so rank loss is detected and reported by
column name instead of silently inverted away.  Convergence is declared
on the raw max-abs score component (1e-10); step halving on the
log-likelihood guards the rare overshooting step.

Because the left-hand side of the score equation is exactly the
gradient used downstream (bread, influence), no dispersion or variance
function beyond m' appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import DesignMatrix
from .errors import (
    DataError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)

_WEIGHT_FLOOR = 1e-12
# Max-abs score tolerance and iteration limit
_TOL, _MAX_ITER = 1e-10, 50
# A fit steps by pivoted QR when a lower bound on the condition number of
# its first normal equations exceeds this: they carry too few digits.
_COND_MAX = 1e8


# ------------------------------------------------------------------ #
# Families
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Family:
    """Canonical family: mean m, its derivative m' as a function of the
    mean (canonical links allow it), and the rules that differ by family:
    outcomes names and tests the valid outcomes; loglik is up to terms
    free of beta, summed over the last axis; initial_intercept is
    link(arm mean), clipped to stay finite; a max |beta| above
    separation_norm is separation.  All but validate_outcome act
    elementwise, so they also serve a batch of fits.
    """

    name: str
    mean: Callable[[np.ndarray], np.ndarray]
    deriv_mu: Callable[[np.ndarray], np.ndarray]
    outcomes: tuple[str, Callable[[np.ndarray], np.ndarray]]
    loglik: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_intercept: Callable[[np.ndarray], np.ndarray]
    separation_norm: float = np.inf

    def validate_outcome(self, y: np.ndarray) -> None:
        if not np.isfinite(y).all():
            raise DataError("y contains non-finite values")
        if not self.outcomes[1](y).all():
            raise DataError(f"{self.name} requires {self.outcomes[0]} outcomes")


def _logit_mean(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) in one temporary; where exp(-eta) overflows
    the mean is exactly 0.  Within 1e-15 relative of the logistic
    function on |eta| <= 700 (the tests check it against scipy's expit),
    and about 3x faster than expit on a (64, 326) batch."""
    with np.errstate(over="ignore"):
        t = np.exp(-eta)
    t += 1.0
    return np.reciprocal(t, out=t)


def _logit(p: np.ndarray) -> np.ndarray:
    """log(p / (1 - p)) for p in (0, 1), by scipy's logit's two branches:
    near 1/2, where that ratio loses digits, log1p(s) - log1p(-s) with
    s = 2 (p - 1/2)."""
    s = 2.0 * (p - 0.5)
    return np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                    np.log1p(s) - np.log1p(-s))


BERNOULLI_LOGIT = Family(
    "bernoulli-logit",
    mean=_logit_mean,
    deriv_mu=lambda mu: mu * (1.0 - mu),
    outcomes=("0/1", lambda y: (y == 0.0) | (y == 1.0)),
    # log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|), logaddexp's formula
    loglik=lambda y, eta: (y * eta - np.maximum(eta, 0.0)
                           - np.log1p(np.exp(-np.abs(eta)))).sum(axis=-1),
    initial_intercept=lambda ybar: _logit(np.clip(ybar, 1e-6, 1 - 1e-6)),
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
    outcomes=("finite", np.isfinite),
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
    counterfactual_means (2, n) holds m(beta' X_i(a)) in row a - 1, from
    X's covariate rows.  A fit_batch result stacks B fits: each array
    gains a batch axis; converged, iterations and score_norm one per fit.
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
    counterfactual_means: np.ndarray


def _solve_newton(X, w, score, labels):
    """delta solving (X' diag(w) X) delta = score, via pivoted QR."""
    from scipy.linalg import qr, solve_triangular  # large; few fits get here
    n, p = X.shape
    _, R, piv = qr(np.sqrt(w)[:, None] * X, mode="raw", pivoting=True)
    diag = np.abs(R.diagonal())
    rank = np.count_nonzero(diag > diag[0] * max(n, p) * np.finfo(float).eps)
    if rank < p:
        dependent = tuple(labels[j] for j in piv[rank:])
        raise RankDeficiencyError(
            f"design is rank deficient (rank {rank} of {p}); "
            f"dependent columns: {list(dependent)}", columns=dependent)
    delta = np.empty_like(score)
    delta[piv] = solve_triangular(R, solve_triangular(R, score[piv],
                                                      trans="T"))
    return delta


def fit(design: DesignMatrix, y: np.ndarray) -> FittedGLM:
    """Fit the working model by IRLS; raises rather than returning junk.

    This is fit_batch on a stack of one, so it equals the fit's row in
    any stack bit for bit, or raises that row's typed error (outcomes,
    non-convergence, rank deficiency, separation).
    """
    if design.X.ndim != 2:
        raise DataError(f"fit takes one (n, p) design, got shape "
                        f"{design.X.shape}; fit_batch fits a stack")
    f, errors = fit_batch(design, y)
    if errors:
        raise errors[0]
    return FittedGLM(
        beta=f.beta[0], bread=f.bread[0], fitted=f.fitted[0],
        residuals=f.residuals[0], converged=True,
        iterations=int(f.iterations[0]), score_norm=float(f.score_norm[0]),
        family=f.family, column_labels=f.column_labels,
        counterfactual_means=f.counterfactual_means[0])


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
    and y is (B, n); one (n, p) design is a stack of one.  This is the
    one IRLS loop; every rule applies per row, so a fit depends only on
    its own row.

    Returns the stacked FittedGLM and {row: typed error} for the rows
    that failed; those rows hold zero coefficients, means and residuals,
    counterfactual means 1/2 and an identity bread, and are not converged.
    """
    fam = resolve_family(design.spec.family)
    X, labels = design.X, design.column_labels
    n, p = X.shape[-2:]
    y = np.asarray(y, dtype=float)
    if y.shape != X.shape[:-1]:
        raise DataError(f"y has shape {y.shape}, expected {X.shape[:-1]}")
    # designs as C-contiguous (B, p, n), stack_designs' storage (no copy);
    # every product reads this form, so no bit depends on X's layout
    XB, y = np.ascontiguousarray(X.mT).reshape(-1, p, n), y.reshape(-1, n)
    B = len(y)
    valid = (np.isfinite(y) & fam.outcomes[1](y)).all(axis=-1)
    errors = {}
    for b in (~valid).nonzero()[0]:
        try:
            fam.validate_outcome(y[b])
        except DataError as err:
            errors[int(b)] = err

    out_beta, out_mu = np.zeros((B, p)), np.zeros((B, n))
    iterations, score_norm = np.zeros(B, dtype=int), np.full(B, np.nan)
    # the active fits' designs, copied only to drop invalid rows
    idx = valid.nonzero()[0]
    XT = XB if idx.size == B else XB[idx]
    ya, beta = y[idx], np.zeros((idx.size, p))
    # arm indicators start at link(arm mean): arm-only models start solved
    rows = XT[:, :2] == 1.0
    count = rows.sum(axis=-1)
    has = count > 0
    beta[:, :2][has] = fam.initial_intercept(
        (ya[:, None] * rows).sum(axis=-1)[has] / count[has])
    eta = _matvec(XT.mT, beta)
    ll = fam.loglik(ya, eta)
    failed, by_qr = np.zeros((2, idx.size), dtype=bool)
    for it in range(_MAX_ITER + 1):
        mu = fam.mean(eta)
        score = _matvec(XT, ya - mu)
        snorm = np.abs(score).max(axis=-1)
        done = ~failed & (snorm <= _TOL)
        if done.any():
            out_beta[idx[done]], out_mu[idx[done]] = beta[done], mu[done]
            iterations[idx[done]], score_norm[idx[done]] = it, snorm[done]
        go = ~failed & ~done
        live = np.isfinite(snorm) & (it < _MAX_ITER)
        for i in (go & ~live).nonzero()[0]:
            errors[int(idx[i])] = NonConvergenceError(
                f"no convergence in {it} iterations (max-abs score "
                f"{snorm[i]:.3e})" if np.isfinite(snorm[i]) else
                "score became non-finite", beta=beta[i].copy(),
                score_norm=float(snorm[i]), iterations=it)
        go &= live
        if not go.all():
            idx, XT, ya = idx[go], XT[go], ya[go]
            beta, mu, score, ll = beta[go], mu[go], score[go], ll[go]
            failed, by_qr = failed[go], by_qr[go]
        if not idx.size:
            break

        w = np.maximum(fam.deriv_mu(mu), _WEIGHT_FLOOR)
        A = np.matmul(XT * w[:, None, :], XT.mT)
        delta = per_matrix(np.linalg.solve, A, score[..., None])[..., 0]
        if it == 0:  # conditioning, judged once, for by_qr: cond(A) >=
            # max_j A_jj / min_j L_jj^2 for A = L L' (NaN: no factor L)
            piv = per_matrix(np.linalg.cholesky, A).diagonal(0, -2, -1)
            by_qr = ~(A.diagonal(0, -2, -1).max(axis=-1)
                      <= _COND_MAX * piv.min(axis=-1) ** 2)
        for i in (by_qr | ~np.isfinite(delta).all(axis=-1)).nonzero()[0]:
            try:
                delta[i] = _solve_newton(XT[i].T, w[i], score[i], labels)
            except RankDeficiencyError as err:
                errors[int(idx[i])], failed[i], delta[i] = err, True, 0.0

        # halve a step while the log-likelihood falls, 29 times at most
        cand = beta + delta
        eta = _matvec(XT.mT, cand)
        ll_new = fam.loglik(ya, eta)
        for _ in range(29):
            short = (~(np.isfinite(ll_new) & (
                ll_new >= ll - 1e-12 * (1.0 + np.abs(ll))))).nonzero()[0]
            if not short.size:
                break
            delta[short] *= 0.5
            cand[short] = beta[short] + delta[short]
            eta[short] = _matvec(XT[short].mT, cand[short])
            ll_new[short] = fam.loglik(ya[short], eta[short])
        beta, ll = cand, ll_new
        for i in (~failed & (np.abs(beta).max(axis=-1)
                             > fam.separation_norm)).nonzero()[0]:
            errors[int(idx[i])], failed[i] = SeparationError(
                f"coefficients diverged (max |beta| > {fam.separation_norm:g}"
                "); data are separated or nearly so"), True

    resid = y - out_mu
    w = fam.deriv_mu(out_mu)
    bread = np.matmul(XB * w[:, None, :], XB.mT) / n
    W, slots = design.covariate_rows()
    coef = out_beta[:, slots]  # (B, 2, 1 + q): eta(a) from (1, W)
    cf = fam.mean(coef[..., :1] + coef[..., 1:] @ W.reshape(B, -1, n))
    for b in errors:
        resid[b], bread[b], cf[b] = 0.0, np.eye(p), 0.5
    return FittedGLM(
        beta=out_beta, bread=bread, fitted=out_mu, residuals=resid,
        converged=~np.isnan(score_norm), iterations=iterations,
        score_norm=score_norm, family=fam, column_labels=labels,
        counterfactual_means=cf), errors
