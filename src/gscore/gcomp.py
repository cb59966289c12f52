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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import DesignMatrix
from .errors import DataError, RankDeficiencyError, check_choices
from .glm import FittedGLM

ESTIMATORS = ("I", "II", "III")
CORRECTIONS = ("HC0", "HC1")


# ------------------------------------------------------------------ #
# Result types
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class MuEstimate:
    """Standardized arm means, index 0 for arm 1 and index 1 for arm 2."""

    mu: np.ndarray
    n: int

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
    """Estimator I split into its three additive 2x2 pieces.

    With ddof=1 the pieces sum to estimator I exactly; with ddof=0 they
    satisfy the plain n-divisor moment identity instead.
    """

    beta_term: np.ndarray
    covariate_term: np.ndarray
    cross_term: np.ndarray
    ddof: int

    def total(self) -> np.ndarray:
        return self.beta_term + self.covariate_term + self.cross_term


# ------------------------------------------------------------------ #
# Internals
# ------------------------------------------------------------------ #


def _mean_gradient(fit: FittedGLM, design: DesignMatrix) -> np.ndarray:
    """G, whose row a averages m'(beta' X_i(a)) X_i(a); m' from the means."""
    d = fit.family.deriv_mu
    return np.vstack([(X * d(m)[:, None]).mean(axis=0) for X, m in
                      zip(design.counterfactuals, fit.counterfactual_means)])


def _centered(fit: FittedGLM) -> np.ndarray:
    """The fit's (m1 - mean m1, m2 - mean m2) as n x 2 columns."""
    m1, m2 = fit.counterfactual_means
    return np.column_stack([m1 - m1.sum() / m1.size, m2 - m2.sum() / m2.size])


def _bread_solve(fit: FittedGLM, rhs: np.ndarray) -> np.ndarray:
    """B^{-1} rhs by one LU solve; a singular bread is rank deficiency."""
    if not (np.isfinite(fit.bread).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    try:
        return np.linalg.solve(fit.bread, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("bread matrix is singular") from None


def _cov(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample covariance (n-1 divisor) of the columns of u and v."""
    n = u.shape[0]
    du = u - u.sum(axis=0) / n
    dv = du if v is u else v - v.sum(axis=0) / n
    return du.T @ dv / (n - 1)


def _resolve_pi(design: DesignMatrix, pi) -> np.ndarray:
    if pi is None:
        out = design.X[:, :2].mean(axis=0)
    else:
        out = np.asarray(pi, dtype=float)
        if out.shape != (2,):
            raise DataError(f"pi must be a pair, got shape {out.shape}")
    if not ((out > 0.0) & (out < 1.0)).all():
        raise DataError(f"allocation probabilities must lie in (0, 1), got {out}")
    return out


# ------------------------------------------------------------------ #
# Operations
# ------------------------------------------------------------------ #


def estimate_mu(fit: FittedGLM, design: DesignMatrix) -> MuEstimate:
    """Average the fit's predictions under both arm settings."""
    m1, m2 = fit.counterfactual_means
    return MuEstimate(mu=np.array([m1.mean(), m2.mean()]), n=design.n)


def influence_score(fit: FittedGLM, design: DesignMatrix) -> InfluenceMatrix:
    """Influence rows from the score-equation expansion of the fit.

    psi_a(i) = gbar_a' B^{-1} X_i (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a
    with gbar_a the average of m'(beta' X_j(a)) X_j(a).  B^{-1} is applied
    through a linear solve, never formed.
    """
    G = _mean_gradient(fit, design)
    proj = design.X @ _bread_solve(fit, G.T)  # n x 2, column a is gbar_a' B^{-1} X_i
    values = proj * fit.residuals[:, None] + _centered(fit)
    return InfluenceMatrix(values=values, kind="score")


def influence_aipw(fit: FittedGLM, design: DesignMatrix,
                   pi=None) -> InfluenceMatrix:
    """Influence rows with inverse allocation weights on the residual.

    psi_a(i) = I(A_i=a)/pi_a (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a.
    ``pi`` defaults to the empirical arm proportions; pass a fixed pair
    to use design allocation probabilities instead.
    """
    pi = _resolve_pi(design, pi)
    values = design.X[:, :2] / pi * fit.residuals[:, None] + _centered(fit)
    return InfluenceMatrix(values=values, kind="aipw")


def var_from_influence(infl: InfluenceMatrix) -> VarianceEstimate:
    """Sample covariance (n-1 divisor) of influence rows, divided by n."""
    n = infl.values.shape[0]
    if n < 2:
        raise DataError("need at least 2 subjects for a sample covariance")
    sigma = _cov(infl.values, infl.values) / n
    return VarianceEstimate(sigma=sigma, n=n, correction="HC0",
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
    proportions; a fixed allocation pair is accepted.
    """
    m1, m2 = fit.counterfactual_means
    pi = _resolve_pi(design, pi)
    in1, in2 = design.X[:, 0] == 1.0, design.X[:, 1] == 1.0
    if in1.sum() < 2 or in2.sum() < 2:
        raise DataError("need at least 2 subjects per arm for conditional moments")
    y = fit.fitted + fit.residuals
    n = design.n

    sigma = np.empty((2, 2))
    for a, mask, ma in ((0, in1, m1), (1, in2, m2)):
        r = y[mask] - fit.fitted[mask]
        sigma[a, a] = (_cov(r, r) / (n * pi[a])
                       + 2.0 / n * _cov(y[mask], fit.fitted[mask])
                       - _cov(ma, ma) / n)
    off = (_cov(y[in1], m2[in1]) / n + _cov(y[in2], m1[in2]) / n
           - _cov(m1, m2) / n)
    sigma[0, 1] = sigma[1, 0] = off
    return VarianceEstimate(sigma=sigma, estimator="III", correction="HC0", n=n)


def variance_decomposition(fit: FittedGLM, design: DesignMatrix,
                           ddof: int = 1) -> VarianceDecomposition:
    """Split estimator I into coefficient, covariate, and cross pieces.

    beta_term       G Sigma_beta G'   (delta-method part, Sigma_beta the
                    coefficient sandwich B^{-1} M B^{-1}/n)
    covariate_term  covariance of per-subject prediction pairs / n
    cross_term      E[G psi_beta (m - mu)'] / n plus its transpose

    ddof=1 (default) matches the sample-covariance convention of
    estimator I, so the pieces sum to it exactly; ddof=0 gives plain
    n-divisor moments, which satisfy the same identity against the
    n-divisor influence covariance.
    """
    if ddof not in (0, 1):
        raise ValueError(f"ddof must be 0 or 1, got {ddof!r}")
    G = _mean_gradient(fit, design)
    X = design.X
    n = design.n
    M = (X * fit.residuals[:, None] ** 2).T @ X / n
    BinvM = _bread_solve(fit, M)
    sigma_beta = _bread_solve(fit, BinvM.T).T / n
    psi_beta = _bread_solve(fit, (X * fit.residuals[:, None]).T).T
    mt = _centered(fit)
    scale = n / (n - ddof)
    beta_term = G @ sigma_beta @ G.T * scale
    covariate_term = mt.T @ mt / n / n * scale
    cross_half = G @ (psi_beta.T @ mt / n) / n * scale
    return VarianceDecomposition(beta_term=beta_term,
                                 covariate_term=covariate_term,
                                 cross_term=cross_half + cross_half.T,
                                 ddof=ddof)


def apply_correction(v: VarianceEstimate, p: int, kind: str) -> VarianceEstimate:
    """Degrees-of-freedom rescaling: HC0 is the identity, HC1 is n/(n-p)."""
    check_choices("apply_correction", (kind, CORRECTIONS, "correction"))
    if kind == "HC0":
        return replace(v, correction="HC0")
    if v.n <= p:
        raise ValueError(f"HC1 needs n > p, got n={v.n}, p={p}")
    return replace(v, sigma=v.sigma * (v.n / (v.n - p)), correction="HC1")


def estimate_variance(fit: FittedGLM, design: DesignMatrix,
                      estimator: str = "I", correction: str = "HC0",
                      pi=None) -> VarianceEstimate:
    """Covariance of (mu_1, mu_2) by one of ESTIMATORS, then one of
    CORRECTIONS; ``pi`` as in ``influence_aipw``, used by II and III."""
    check_choices("estimate_variance", (estimator, ESTIMATORS, "estimator"))
    if estimator == "I":
        v = var_from_influence(influence_score(fit, design))
    elif estimator == "II":
        v = var_from_influence(influence_aipw(fit, design, pi))
    else:
        v = var_ye(fit, design, pi)
    return apply_correction(v, design.p, correction)
