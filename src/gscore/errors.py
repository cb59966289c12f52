"""Exception taxonomy shared across the package, and two value checks.

The CLI maps these onto exit codes: configuration/data problems (and a
bad choice's ValueError) exit 2, model-fitting failures exit 3.
IntervalUndefinedError never reaches it: run_test and the named tests
raise it, analyze_trial records the reason in its place, and
``gscore analyze`` exits 4 when its report holds an undefined interval.
"""

from __future__ import annotations

import numpy as np


def check_choices(owner: str, *checks) -> None:
    """ValueError, prefixed by ``owner``, for the first (value, allowed,
    what) of ``checks`` whose value is not one of allowed."""
    for value, allowed, what in checks:
        if value not in allowed:
            raise ValueError(f"{owner}: {what} must be one of {allowed}, "
                             f"got {value!r}")


def refuse_bool(name: str, value):
    """``value``, or for a Python or NumPy bool a TypeError naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


class GScoreError(Exception):
    """Base class for all package errors."""


class SchemaError(GScoreError):
    """A required column is missing or the column-role mapping is invalid."""


class DataError(GScoreError):
    """Data values violate the contract (bad arm labels, non-numeric tokens)."""


class EmptyDataError(DataError):
    """No usable rows remain after complete-case filtering."""


class DegenerateArmError(DataError):
    """One of the two arms has no subjects."""


class FitError(GScoreError):
    """Base class for model-fitting failures."""


class NonConvergenceError(FitError):
    """IRLS failed to drive the score to tolerance within the iteration cap.

    Carries the last iterate so callers can inspect where the fit stalled.
    """

    def __init__(self, message: str, beta=None, score_norm: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.beta = beta
        self.score_norm = score_norm
        self.iterations = iterations


class RankDeficiencyError(FitError):
    """The weighted design lost rank; names the dependent columns."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class SeparationError(FitError):
    """Logistic coefficients diverged, the signature of separated data."""


class IntervalUndefinedError(GScoreError):
    """A closed-form confidence interval does not exist for this dataset.

    The test statistic and p-value are still well defined; they travel on
    ``result`` (a TestResult with ``ci=None``) together with a
    ``diagnostics`` dict explaining which condition failed.
    """

    def __init__(self, message: str, result=None, diagnostics: dict | None = None):
        super().__init__(message)
        self.result = result
        self.diagnostics = dict(diagnostics or {})
