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
from scipy.linalg import solve

from .dataset import DesignMatrix, counterfactual_design
from .errors import DataError, RankDeficiencyError
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


def _counterfactual_means(fit: FittedGLM, design: DesignMatrix):
    X1 = counterfactual_design(design, 1)
    X2 = counterfactual_design(design, 2)
    m1 = fit.family.mean_response(fit.beta, X1)
    m2 = fit.family.mean_response(fit.beta, X2)
    return X1, X2, m1, m2


def _arm_masks(design: DesignMatrix):
    return design.X[:, 0] == 1.0, design.X[:, 1] == 1.0


def _resolve_pi(design: DesignMatrix, pi) -> np.ndarray:
    if pi is None:
        out = np.array([design.X[:, 0].mean(), design.X[:, 1].mean()])
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
    """Average each subject's predictions under both arm settings."""
    _, _, m1, m2 = _counterfactual_means(fit, design)
    return MuEstimate(mu=np.array([m1.mean(), m2.mean()]), n=design.n)


def influence_score(fit: FittedGLM, design: DesignMatrix) -> InfluenceMatrix:
    """Influence rows from the score-equation expansion of the fit.

    psi_a(i) = gbar_a' B^{-1} X_i (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a
    with gbar_a the average of m'(beta' X_j(a)) X_j(a).  B^{-1} is applied
    through a linear solve, never formed.
    """
    X1, X2, m1, m2 = _counterfactual_means(fit, design)
    w1 = fit.family.mean_derivative(fit.beta, X1)
    w2 = fit.family.mean_derivative(fit.beta, X2)
    G = np.vstack([(X1 * w1[:, None]).mean(axis=0),
                   (X2 * w2[:, None]).mean(axis=0)])
    try:
        C = solve(fit.bread, G.T, assume_a="sym")
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("bread matrix is singular") from None
    proj = design.X @ C  # n x 2, column a is gbar_a' B^{-1} X_i
    values = proj * fit.residuals[:, None] + np.column_stack(
        [m1 - m1.mean(), m2 - m2.mean()])
    return InfluenceMatrix(values=values, kind="score")


def influence_aipw(fit: FittedGLM, design: DesignMatrix,
                   pi=None) -> InfluenceMatrix:
    """Influence rows with inverse allocation weights on the residual.

    psi_a(i) = I(A_i=a)/pi_a (Y_i - fitted_i) + m(beta' X_i(a)) - mu_a.
    ``pi`` defaults to the empirical arm proportions; pass a fixed pair
    to use design allocation probabilities instead.
    """
    _, _, m1, m2 = _counterfactual_means(fit, design)
    pi = _resolve_pi(design, pi)
    values = np.column_stack([
        design.X[:, 0] / pi[0] * fit.residuals + m1 - m1.mean(),
        design.X[:, 1] / pi[1] * fit.residuals + m2 - m2.mean(),
    ])
    return InfluenceMatrix(values=values, kind="aipw")


def var_from_influence(infl: InfluenceMatrix) -> VarianceEstimate:
    """Sample covariance (n-1 divisor) of influence rows, divided by n."""
    n = infl.values.shape[0]
    if n < 2:
        raise DataError("need at least 2 subjects for a sample covariance")
    sigma = np.cov(infl.values.T, ddof=1) / n
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
    _, _, m1, m2 = _counterfactual_means(fit, design)
    pi = _resolve_pi(design, pi)
    in1, in2 = _arm_masks(design)
    if in1.sum() < 2 or in2.sum() < 2:
        raise DataError("need at least 2 subjects per arm for conditional moments")
    y = fit.fitted + fit.residuals
    n = design.n

    def cov(u, v):
        return float(np.cov(u, v, ddof=1)[0, 1])

    sigma = np.empty((2, 2))
    for a, mask, ma in ((0, in1, m1), (1, in2, m2)):
        sigma[a, a] = (np.var(y[mask] - fit.fitted[mask], ddof=1) / (n * pi[a])
                       + 2.0 / n * cov(y[mask], fit.fitted[mask])
                       - np.var(ma, ddof=1) / n)
    off = (cov(y[in1], m2[in1]) / n + cov(y[in2], m1[in2]) / n
           - cov(m1, m2) / n)
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
    X1, X2, m1, m2 = _counterfactual_means(fit, design)
    X = design.X
    n = design.n
    w1 = fit.family.mean_derivative(fit.beta, X1)
    w2 = fit.family.mean_derivative(fit.beta, X2)
    G = np.vstack([(X1 * w1[:, None]).mean(axis=0),
                   (X2 * w2[:, None]).mean(axis=0)])
    M = (X * fit.residuals[:, None] ** 2).T @ X / n
    try:
        BinvM = solve(fit.bread, M, assume_a="sym")
        sigma_beta = solve(fit.bread, BinvM.T, assume_a="sym").T / n
        psi_beta = solve(fit.bread, (X * fit.residuals[:, None]).T,
                         assume_a="sym").T
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("bread matrix is singular") from None
    mt = np.column_stack([m1 - m1.mean(), m2 - m2.mean()])
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
    if kind not in CORRECTIONS:
        raise ValueError(f"unknown correction {kind!r}; expected one of "
                         f"{CORRECTIONS}")
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
    if estimator == "I":
        v = var_from_influence(influence_score(fit, design))
    elif estimator == "II":
        v = var_from_influence(influence_aipw(fit, design, pi))
    elif estimator == "III":
        v = var_ye(fit, design, pi)
    else:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    return apply_correction(v, design.p, correction)
