"""Marginal means by standardization, with three variance estimators.

After one working-model fit, every subject is predicted under each arm
setting and the predictions averaged: mu_a = (1/n) sum_i m(beta' X_i(a)).
The three covariance estimators for (mu_1, mu_2) are asymptotically
equivalent but numerically distinct:

  I   score-equation influence through the fit's bread matrix
  II  augmentation-style influence with inverse allocation weights
  III conditional-moment cells built from within-arm variances and
      covariances of outcomes and predictions

I and II are sample covariances (n-1 divisor) of per-subject influence
rows divided by n; III is assembled cell by cell.  ``estimate_variance``
is the one place that picks an estimator by name and applies the
small-sample correction.  A decomposition splits estimator I into
coefficient-noise, covariate-variation, and misspecification cross terms.

Every formula is written once, as a kernel over any leading shape of
fits: none for one ``glm.fit`` result and its design, (B,) for a
``glm.fit_batch`` result and its stacked design.  ``estimate_mu`` serves
both; ``estimate_variance_batch`` returns the covariances with {row:
error} for the fits that cannot give one.  The single-fit functions call
the kernels with no leading axis and raise that error.  As ``glm.fit``
is fit_batch's loop on one row too, a single fit's numbers equal its
row's in a batch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import DesignMatrix
from .errors import (DataError, RankDeficiencyError, allocation_shares,
                     check_choices)
from .glm import FittedGLM, per_matrix

ESTIMATORS = ("I", "II", "III")
CORRECTIONS = ("HC0", "HC1")


# ------------------------------------------------------------------ #
# Result types
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class MuEstimate:
    """Standardized arm means (..., 2), index 0 for arm 1 and index 1 for
    arm 2; mu1 and mu2 read a single fit's pair."""

    mu: np.ndarray

    @property
    def mu1(self) -> float:
        return float(self.mu[0])

    @property
    def mu2(self) -> float:
        return float(self.mu[1])


@dataclass(frozen=True)
class InfluenceMatrix:
    """Per-subject influence rows for (mu_1, mu_2); columns sum to zero."""

    values: np.ndarray
    kind: str  # "score" | "aipw"


@dataclass(frozen=True)
class VarianceEstimate:
    """2x2 covariance of (mu_1, mu_2) with estimator and correction tags."""

    sigma: np.ndarray
    estimator: str    # "I" | "II" | "III"
    correction: str   # "HC0" | "HC1"
    n: int


@dataclass(frozen=True)
class VarianceDecomposition:
    """Estimator I split into its three additive 2x2 pieces, which sum
    to it exactly."""

    beta_term: np.ndarray
    covariate_term: np.ndarray
    cross_term: np.ndarray

    def total(self) -> np.ndarray:
        return self.beta_term + self.covariate_term + self.cross_term


# ------------------------------------------------------------------ #
# Kernels: arrays carry any leading shape of fits
# ------------------------------------------------------------------ #


def _only(value, errors: dict):
    """A single fit's result, or its error raised."""
    if errors:
        raise errors[0]
    return value


def _mean_gradient(fit: FittedGLM, design: DesignMatrix) -> np.ndarray:
    """G, whose row a averages m'(beta' X_i(a)) X_i(a), X_i(a) being (1, W_i)
    in arm a's slots and 0 elsewhere (summed as products, as with X(a))."""
    W, slots = design.covariate_rows()
    d = fit.family.deriv_mu(fit.counterfactual_means)
    G = np.zeros(d.shape[:-1] + (design.p,))
    G[..., [[0], [1]], slots] = np.concatenate(
        [d @ np.ones((design.n, 1)), d @ W.mT], axis=-1) / design.n
    return G


def _demeaned(u: np.ndarray) -> np.ndarray:
    """Rows of u (..., k, n) minus their means."""
    return u - u.sum(axis=-1, keepdims=True) / u.shape[-1]


def _bread_solve(fit: FittedGLM, rhs: np.ndarray):
    """B^{-1} rhs by one LU solve per fit; a singular bread is rank
    deficiency."""
    if not (np.isfinite(fit.bread).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    out = per_matrix(np.linalg.solve, fit.bread, rhs)
    singular = np.flatnonzero(np.isnan(out).any(axis=(-2, -1)))
    return out, {int(b): RankDeficiencyError("bread matrix is singular")
                 for b in singular}


def _cov(u: np.ndarray) -> np.ndarray:
    """Sample covariance (n-1 divisor) of the rows of u (..., k, n)."""
    du = _demeaned(u)
    return du @ du.mT / (u.shape[-1] - 1)


def _arm_cov(ind: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sample covariance (n-1 divisor) of the rows of u (..., k, n) over
    the subjects whose 0/1 indicator ind (..., n) is 1."""
    ind = ind[..., None, :]
    k = ind.sum(axis=-1, keepdims=True)
    du = (u - (u * ind).sum(axis=-1, keepdims=True) / k) * ind
    return du @ du.mT / (k - 1)


def _resolve_pi(design: DesignMatrix, pi):
    """Allocation shares (..., 2): the fixed pair ``pi``, or each design's
    arm shares with {row: error} for a design that leaves an arm empty."""
    if pi is not None:
        return np.broadcast_to(allocation_shares("pi", pi),
                               design.X.shape[:-2] + (2,)), {}
    out = design.X[..., :2].mT.mean(axis=-1)
    bad = np.flatnonzero(~((out > 0.0) & (out < 1.0)).all(axis=-1))
    return out, {int(b): DataError("allocation probabilities must lie in "
                                   f"(0, 1), got {out.reshape(-1, 2)[b]}")
                 for b in bad}


# The influence kernels give psi as (..., 2, n): row a holds psi_a(i).

def _score_parts(fit: FittedGLM, design: DesignMatrix):
    """((u, v), errors): estimator I's influence psi = u + v in its two
    parts, (..., 2, n) each, from one bread solve:
    u_a(i) = gbar_a' B^{-1} X_i (Y_i - fitted_i), the coefficient noise;
    v_a(i) = m(beta' X_i(a)) - mu_a, the covariate dispersion."""
    G = _mean_gradient(fit, design)
    solved, errors = _bread_solve(fit, G.mT)
    # row a of solved' X' is gbar_a' B^{-1} X_i
    return (solved.mT @ design.X.mT * fit.residuals[..., None, :],
            _demeaned(fit.counterfactual_means)), errors


def _influence_score(fit: FittedGLM, design: DesignMatrix):
    (u, v), errors = _score_parts(fit, design)
    return u + v, errors


def _influence_aipw(fit: FittedGLM, design: DesignMatrix, pi):
    pi, errors = _resolve_pi(design, pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (design.X[..., :2].mT / pi[..., None]
                * fit.residuals[..., None, :]
                + _demeaned(fit.counterfactual_means), errors)


def _var_influence(psi: np.ndarray) -> np.ndarray:
    n = psi.shape[-1]
    if n < 2:
        raise DataError("need at least 2 subjects for a sample covariance")
    return _cov(psi) / n


def _var_ye(fit: FittedGLM, design: DesignMatrix, pi):
    pi, errors = _resolve_pi(design, pi)
    n, cf = design.n, fit.counterfactual_means
    y = fit.fitted + fit.residuals
    r = y - fit.fitted
    in1, in2 = design.X[..., 0], design.X[..., 1]
    for b in np.flatnonzero((in1.sum(axis=-1) < 2) | (in2.sum(axis=-1) < 2)):
        errors.setdefault(int(b), DataError(
            "need at least 2 subjects per arm for conditional moments"))
    full = _cov(cf)
    sigma = np.empty(full.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # rows r, y, fitted, the other arm's predictions; within arm a
        arm = [_arm_cov(ind, np.stack([r, y, fit.fitted, other], axis=-2))
               for ind, other in ((in1, cf[..., 1, :]), (in2, cf[..., 0, :]))]
    for a in (0, 1):
        sigma[..., a, a] = (arm[a][..., 0, 0] / (n * pi[..., a])
                            + 2.0 / n * arm[a][..., 1, 2]
                            - full[..., a, a] / n)
    off = (arm[0][..., 1, 3] / n + arm[1][..., 1, 3] / n
           - full[..., 0, 1] / n)
    sigma[..., 0, 1] = sigma[..., 1, 0] = off
    return sigma, errors


def _corrected(sigma: np.ndarray, n: int, p: int, kind: str) -> np.ndarray:
    check_choices("apply_correction", (kind, CORRECTIONS, "correction"))
    if kind == "HC0":
        return sigma
    if n <= p:
        raise ValueError(f"HC1 needs n > p, got n={n}, p={p}")
    return sigma * (n / (n - p))


# ------------------------------------------------------------------ #
# Operations
# ------------------------------------------------------------------ #


def estimate_mu(fit: FittedGLM, design: DesignMatrix) -> MuEstimate:
    """Average the fit's predictions under both arm settings."""
    return MuEstimate(mu=fit.counterfactual_means.mean(axis=-1))


def influence_score(fit: FittedGLM, design: DesignMatrix) -> InfluenceMatrix:
    """Influence rows from the score-equation expansion of the fit.

    psi_a(i) = gbar_a' B^{-1} X_i (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a
    with gbar_a the average of m'(beta' X_j(a)) X_j(a).  B^{-1} is applied
    through a linear solve, never formed.
    """
    return InfluenceMatrix(values=_only(*_influence_score(fit, design)).T,
                           kind="score")


def influence_aipw(fit: FittedGLM, design: DesignMatrix,
                   pi=None) -> InfluenceMatrix:
    """Influence rows with inverse allocation weights on the residual.

    psi_a(i) = I(A_i=a)/pi_a (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a.
    ``pi`` defaults to the empirical arm proportions; pass a fixed pair,
    two shares in (0, 1) summing to 1, to use design allocation
    probabilities instead.
    """
    return InfluenceMatrix(values=_only(*_influence_aipw(fit, design, pi)).T,
                           kind="aipw")


def var_from_influence(infl: InfluenceMatrix) -> VarianceEstimate:
    """Sample covariance (n-1 divisor) of influence rows, divided by n."""
    return VarianceEstimate(sigma=_var_influence(infl.values.T),
                            n=infl.values.shape[0], correction="HC0",
                            estimator="I" if infl.kind == "score" else "II")


def var_ye(fit: FittedGLM, design: DesignMatrix, pi=None) -> VarianceEstimate:
    """Conditional-moment covariance cells.

    Diagonal (a, a):
        Var[Y - fitted | A=a]/(n pi_a) + (2/n) Cov[Y, fitted | A=a]
        - (1/n) Var[m(beta' X_i(a))]            (variance over all n)
    Off-diagonal (a, b):
        (1/n) Cov[Y, m_b | A=a] + (1/n) Cov[Y, m_a | A=b]
        - (1/n) Cov[m_a, m_b]                   (covariance over all n)

    All moments use the n-1 divisor.  ``pi`` defaults to empirical arm
    proportions; a fixed allocation pair is accepted, as in influence_aipw.
    """
    return VarianceEstimate(sigma=_only(*_var_ye(fit, design, pi)),
                            estimator="III", correction="HC0", n=design.n)


def variance_decomposition(fit: FittedGLM,
                           design: DesignMatrix) -> VarianceDecomposition:
    """Split estimator I into coefficient, covariate, and cross pieces.

    Its influence psi = u + v, from one bread solve, has
    u_a(i) = gbar_a' B^{-1} X_i (Y_i - fitted_i) and
    v_a(i) = m(beta' X_i(a)) - mu_a; with k = n (n - 1):

    beta_term       u u' / k, the delta-method part G Sigma_beta G' n/(n-1)
                    (Sigma_beta the coefficient sandwich B^{-1} M B^{-1}/n)
    covariate_term  v v' / k, the covariance of prediction pairs / n
    cross_term      (u v' + v u') / k

    The n-1 divisor is estimator I's sample-covariance convention, so the
    pieces sum to it exactly; (n-1)/n times each piece is its plain
    n-divisor moment.
    """
    u, v = _only(*_score_parts(fit, design))
    k = design.n * (design.n - 1)
    cross_half = u @ v.mT / k
    return VarianceDecomposition(beta_term=u @ u.mT / k,
                                 covariate_term=v @ v.mT / k,
                                 cross_term=cross_half + cross_half.mT)


def apply_correction(v: VarianceEstimate, p: int, kind: str) -> VarianceEstimate:
    """Degrees-of-freedom rescaling: HC0 is the identity, HC1 is n/(n-p)."""
    return replace(v, sigma=_corrected(v.sigma, v.n, p, kind), correction=kind)


def estimate_variance_batch(fit: FittedGLM, design: DesignMatrix,
                            estimator: str = "I", correction: str = "HC0",
                            pi=None):
    """Covariances of (mu_1, mu_2), (..., 2, 2), for fits of any leading
    shape by one of ESTIMATORS, then one of CORRECTIONS, with {row:
    error}; ``pi`` as in ``influence_aipw``, used by II and III."""
    check_choices("estimate_variance", (estimator, ESTIMATORS, "estimator"))
    if estimator == "III":
        sigma, errors = _var_ye(fit, design, pi)
    else:
        values, errors = (_influence_score(fit, design) if estimator == "I"
                          else _influence_aipw(fit, design, pi))
        sigma = _var_influence(values)
    return _corrected(sigma, design.n, design.p, correction), errors


def estimate_variance(fit: FittedGLM, design: DesignMatrix,
                      estimator: str = "I", correction: str = "HC0",
                      pi=None) -> VarianceEstimate:
    """Covariance of (mu_1, mu_2) by one of ESTIMATORS, then one of
    CORRECTIONS; ``pi`` as in ``influence_aipw``, used by II and III."""
    sigma = _only(*estimate_variance_batch(fit, design, estimator,
                                           correction, pi))
    return VarianceEstimate(sigma=sigma, estimator=estimator,
                            correction=correction, n=design.n)
