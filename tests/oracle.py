"""Brute-force reference implementations for freezing expected test values.

Everything here is deliberately plain: the GLM fit goes through a generic
optimizer plus explicit-inverse Newton polish, matrices are inverted densely
with np.linalg.inv, and every estimator is a direct transcription of its
formula.  Nothing is imported from the package, so the two codepaths can
disagree.  Run ``python tests/oracle.py`` to print the frozen-value dict that
tests/frozen_values.py quotes.
"""

from __future__ import annotations

import csv
import os

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import chi2, norm

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "data", "fixture20.csv")


def load_fixture():
    y, arm, w = [], [], []
    with open(FIXTURE, newline="") as fh:
        for row in csv.DictReader(fh):
            y.append(float(row["y"]))
            arm.append(int(row["arm"]))
            w.append(float(row["w1"]))
    return np.array(y), np.array(arm), np.array(w)


def design(arm, w):
    # two complementary arm indicators, no intercept, then the covariate
    return np.column_stack([(arm == 1).astype(float), (arm == 2).astype(float), w])


def design_setting(arm, w, a):
    X = design(arm, w)
    Xa = X.copy()
    Xa[:, 0] = 1.0 if a == 1 else 0.0
    Xa[:, 1] = 1.0 if a == 2 else 0.0
    return Xa


def fit_logistic(X, y):
    def nll(b):
        eta = X @ b
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    def grad(b):
        return -X.T @ (y - expit(X @ b))

    res = minimize(nll, np.zeros(X.shape[1]), jac=grad, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    b = res.x
    # Newton polish with explicit inverses until the score is at round-off
    for _ in range(20):
        mu = expit(X @ b)
        s = X.T @ (y - mu)
        H = X.T @ (X * (mu * (1 - mu))[:, None])
        b = b + np.linalg.inv(H) @ s
    return b


def oracle_stacked_sigma(X, y, beta):
    """Mu-block of the stacked-equation sandwich for a logistic fit.

    theta = (mu1, mu2, beta) solves the stacked estimating equations; the
    block-triangular bread makes the (mu, mu) corner of the full sandwich
    collapse to the influence form of estimator I.  Kept brute force (dense
    inverses) so it can cross-check the package on arbitrary data.
    """
    n = len(y)
    X1 = X.copy()
    X1[:, 0], X1[:, 1] = 1.0, 0.0
    X2 = X.copy()
    X2[:, 0], X2[:, 1] = 0.0, 1.0
    fitted = expit(X @ beta)
    resid = y - fitted
    m1, m2 = expit(X1 @ beta), expit(X2 @ beta)
    mu1, mu2 = m1.mean(), m2.mean()
    B = X.T @ (X * (fitted * (1 - fitted))[:, None]) / n
    g1 = (X1 * (m1 * (1 - m1))[:, None]).mean(axis=0)
    g2 = (X2 * (m2 * (1 - m2))[:, None]).mean(axis=0)
    p = X.shape[1]
    U = np.column_stack([m1 - mu1, m2 - mu2, X * resid[:, None]])
    B_theta = np.zeros((2 + p, 2 + p))
    B_theta[:2, :2] = np.eye(2)
    B_theta[:2, 2:] = -np.vstack([g1, g2])
    B_theta[2:, 2:] = B
    M_theta = U.T @ U / (n - 1)
    Bti = np.linalg.inv(B_theta)
    return (Bti @ M_theta @ Bti.T / n)[:2, :2]


def oracle_sigma_iii(y, arm, fitted, m1, m2):
    """Estimator III's conditional-moment cells, with empirical arm shares,
    from outcomes, arm labels, fitted values and the predictions m1, m2
    under each arm setting."""
    def svar(v):
        return float(np.var(v, ddof=1))

    def scov(u, v):
        return float(np.cov(u, v, ddof=1)[0, 1])

    n = len(y)
    i1, i2 = arm == 1, arm == 2
    sigma = np.empty((2, 2))
    for a, ia, ma in ((0, i1, m1), (1, i2, m2)):
        sigma[a, a] = (svar(y[ia] - fitted[ia]) / (n * float(ia.mean()))
                       + 2.0 / n * scov(y[ia], fitted[ia])
                       - svar(ma) / n)
    sigma[0, 1] = sigma[1, 0] = (scov(y[i1], m2[i1]) / n
                                 + scov(y[i2], m1[i2]) / n
                                 - scov(m1, m2) / n)
    return sigma


def oracle_all(level=0.95):
    y, arm, w = load_fixture()
    n = len(y)
    X = design(arm, w)
    X1 = design_setting(arm, w, 1)
    X2 = design_setting(arm, w, 2)

    b = fit_logistic(X, y)
    fitted = expit(X @ b)
    resid = y - fitted
    m1 = expit(X1 @ b)
    m2 = expit(X2 @ b)
    mu1, mu2 = m1.mean(), m2.mean()

    mp = fitted * (1 - fitted)
    B = (X.T @ (X * mp[:, None])) / n
    Binv = np.linalg.inv(B)
    g1 = (X1 * (m1 * (1 - m1))[:, None]).mean(axis=0)
    g2 = (X2 * (m2 * (1 - m2))[:, None]).mean(axis=0)
    G = np.vstack([g1, g2])

    # estimator I: score-equation influence, sample covariance over n
    psi = np.column_stack([
        (X @ Binv.T @ g1) * resid + m1 - mu1,
        (X @ Binv.T @ g2) * resid + m2 - mu2,
    ])
    sigma_I = np.cov(psi.T, ddof=1) / n

    # estimator II: augmented-weighting influence with empirical arm shares
    pi1 = float((arm == 1).mean())
    pi2 = float((arm == 2).mean())
    psi2 = np.column_stack([
        (arm == 1) / pi1 * resid + m1 - mu1,
        (arm == 2) / pi2 * resid + m2 - mu2,
    ])
    sigma_II = np.cov(psi2.T, ddof=1) / n

    sigma_III = oracle_sigma_iii(y, arm, fitted, m1, m2)

    # stacked-equation sandwich: theta = (mu1, mu2, beta), block bread
    p = X.shape[1]
    U = np.column_stack([m1 - mu1, m2 - mu2, X * resid[:, None]])
    B_theta = np.zeros((2 + p, 2 + p))
    B_theta[:2, :2] = np.eye(2)
    B_theta[:2, 2:] = -G
    B_theta[2:, 2:] = B
    M_theta = U.T @ U / (n - 1)
    Bti = np.linalg.inv(B_theta)
    sigma_stacked = (Bti @ M_theta @ Bti.T / n)[:2, :2]

    # variance decomposition, n-divisor plug-ins
    M_beta = (X * resid[:, None] ** 2).T @ X / n
    comp_beta = G @ (Binv @ M_beta @ Binv.T / n) @ G.T
    mt = np.column_stack([m1 - mu1, m2 - mu2])
    comp_cov = mt.T @ mt / n / n
    psi_beta = (X * resid[:, None]) @ Binv.T
    cross_half = G @ (psi_beta.T @ mt / n) / n
    comp_cross = cross_half + cross_half.T

    # inference scalars from estimator I
    z = norm.ppf(0.5 + level / 2)
    c = chi2.ppf(level, 1)
    S11, S21, S22 = sigma_I[0, 0], sigma_I[1, 0], sigma_I[1, 1]
    diff = mu2 - mu1
    sd2 = S22 - 2 * S21 + S11
    sd = np.sqrt(sd2)
    wald_chi2 = diff ** 2 / sd2
    wald_p1 = float(norm.sf(diff / sd))
    wald_ci = (diff - z * sd, diff + z * sd)
    q_d = diff ** 2 / (sd2 + diff ** 2 / n)
    score_p1 = float(norm.sf(np.sign(diff) * np.sqrt(q_d)))
    half = sd * np.sqrt(c / (1 - c / n))
    score_ci = (diff - half, diff + half)

    ratio = mu2 / mu1
    ls2 = S22 / mu2 ** 2 - 2 * S21 / (mu1 * mu2) + S11 / mu1 ** 2
    wald_ratio_z = np.log(ratio) / np.sqrt(ls2)
    wald_ratio_ci = (np.exp(np.log(ratio) - z * np.sqrt(ls2)),
                     np.exp(np.log(ratio) + z * np.sqrt(ls2)))
    q_r = (mu2 - mu1) ** 2 / (S22 - 2 * S21 + S11 + (mu2 - mu1) ** 2 / n)
    den = 1 - c * (S11 / mu1 ** 2 + 1 / n)
    a_co = (1 - c * (S21 / (mu1 * mu2) + 1 / n)) / den
    b_co = (1 - c * (S22 / mu2 ** 2 + 1 / n)) / den
    root = np.sqrt(a_co ** 2 - b_co)
    ratio_score_ci = (ratio * (a_co - root), ratio * (a_co + root))

    return {
        "beta": b,
        "mu": np.array([mu1, mu2]),
        "bread": B,
        "sigma_I": sigma_I,
        "sigma_II": sigma_II,
        "sigma_III": sigma_III,
        "sigma_stacked": sigma_stacked,
        "comp_beta": comp_beta,
        "comp_cov": comp_cov,
        "comp_cross": comp_cross,
        "sd2": sd2,
        "wald_chi2": wald_chi2,
        "wald_p1": wald_p1,
        "wald_ci": wald_ci,
        "q_d": q_d,
        "score_p1": score_p1,
        "score_ci": score_ci,
        "ratio": ratio,
        "wald_ratio_z": float(wald_ratio_z),
        "wald_ratio_ci": wald_ratio_ci,
        "q_r": q_r,
        "ratio_score_ci": ratio_score_ci,
    }


if __name__ == "__main__":
    vals = oracle_all()
    np.set_printoptions(precision=17, floatmode="maxprec")
    for k, v in vals.items():
        if isinstance(v, np.ndarray):
            print(f"{k} = np.array({v.tolist()!r})")
        else:
            print(f"{k} = {v!r}")
