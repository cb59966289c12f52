"""Trial data loading and design-matrix construction.

A trial is two-arm by contract: arm labels are canonicalized to {1, 2}
(an explicit relabel map handles anything else).  Designs carry two
complementary arm indicator columns and no separate intercept, so every
row has exactly one of the first two columns set.  Covariates enter
either as shared columns (homogeneous) or as per-arm interaction columns
(heterogeneous).  Only the observed design is stored: a counterfactual
design (every arm set to 1 or 2) is the covariate rows W in that arm's
slots, so its products are read from W (DesignMatrix.covariate_rows).

Covariate transformations (centering, dummies, splines) are out of
scope; callers precompute derived columns and name them in the schema.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    DataError,
    DegenerateArmError,
    EmptyDataError,
    SchemaError,
)

FAMILY_NAMES = ("bernoulli-logit", "poisson-log", "gaussian-identity")

# tokens treated as missing (case-insensitive, after strip); anything else
# non-numeric in a numeric column is a hard error, not a silent drop
_MISSING_TOKENS = frozenset({"", "na", "nan", "n/a", "null"})

# rows load_csv reads and parses at a time
_BLOCK = 256


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ------------------------------------------------------------------ #
# Domain types
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class TrialDataset:
    """Validated two-arm trial data; all arrays are read-only.

    outcome : (n,) float
    arm     : (n,) int, values in {1, 2}, both present
    covariates : (n, q) float, column order matches covariate_names
    """

    outcome: np.ndarray
    arm: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        y = np.asarray(self.outcome, dtype=float)
        arm = np.asarray(self.arm, dtype=int)
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(-1, 1 if self.covariate_names else 0)
        if cov.ndim != 2:
            raise DataError("covariates must be a 2-d array")
        n = y.shape[0]
        if n < 2:
            raise EmptyDataError(f"need at least 2 subjects, got {n}")
        if arm.shape != (n,) or cov.shape[0] != n:
            raise DataError("outcome, arm, and covariates must share length")
        if not np.isfinite(y).all():
            raise DataError("outcome contains non-finite values")
        if not np.isfinite(cov).all():
            raise DataError("covariates contain non-finite values")
        if not ((arm == 1) | (arm == 2)).all():
            bad = [a for a in np.unique(arm).tolist() if a not in (1, 2)]
            raise DataError(f"arm labels outside {{1, 2}}: {bad}")
        for a in (1, 2):
            if not np.any(arm == a):
                raise DegenerateArmError(f"arm {a} has no subjects")
        if len(self.covariate_names) != cov.shape[1]:
            raise SchemaError("covariate_names length does not match columns")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise SchemaError("duplicate covariate names")
        object.__setattr__(self, "outcome", _readonly(y))
        object.__setattr__(self, "arm", _readonly(arm))
        object.__setattr__(self, "covariates", _readonly(cov))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n(self) -> int:
        return self.outcome.shape[0]

    def arm_sizes(self) -> tuple[int, int]:
        return int(np.sum(self.arm == 1)), int(np.sum(self.arm == 2))


@dataclass(frozen=True)
class ModelSpec:
    """Working-model recipe: family name, covariates, effect structure.

    ``heterogeneous=True`` gives every covariate its own slope per arm;
    ``covariates=()`` is the arm-only (unadjusted) model.
    """

    family: str
    covariates: tuple[str, ...] = ()
    heterogeneous: bool = False

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise SchemaError(
                f"unknown family {self.family!r}; expected one of {FAMILY_NAMES}")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if self.heterogeneous not in (True, False):
            raise SchemaError(f"heterogeneous must be true or false, got "
                              f"{self.heterogeneous!r}")
        object.__setattr__(self, "heterogeneous", bool(self.heterogeneous))
        if len(set(self.covariates)) != len(self.covariates):
            raise SchemaError("duplicate covariates in model spec")

    @property
    def column_labels(self) -> tuple[str, ...]:
        """Names of the design columns, in _columns' order."""
        per_arm = [f"{c}:arm{a}" for a in (1, 2) for c in self.covariates]
        return ("arm1", "arm2", *(per_arm if self.heterogeneous
                                  else self.covariates))


@dataclass(frozen=True)
class DesignMatrix:
    """A design as build_design makes it: the observed X, read-only and
    (..., n, p), columns as column_labels, 0 and 1 the arm indicators, and
    a leading batch axis when stack_designs stacks B trials.  X is stored
    as a C-contiguous (..., p, n) array, so X.mT is one column per row
    with no copy; the fit and the variance kernels read it that way."""

    X: np.ndarray
    spec: ModelSpec

    @property
    def column_labels(self) -> tuple[str, ...]:
        return self.spec.column_labels

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def p(self) -> int:
        return self.X.shape[-1]

    def covariate_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, slots): X's covariate rows W (..., q, n), C-contiguous, and
        the columns slots[a - 1] that 1, W_1, ..., W_q fill when every arm
        is set to a (the rest are 0).  A per-arm model's W sums its two
        blocks, exactly: one is W * 1, the other W * 0."""
        XB, p = np.ascontiguousarray(self.X.mT), self.p
        q = (p - 2) // (2 if self.spec.heterogeneous else 1)
        W = (XB[..., 2:2 + q, :] + XB[..., p - q:, :]
             if self.spec.heterogeneous else XB[..., 2:, :])
        return W, np.array([[0, *range(2, 2 + q)], [1, *range(p - q, p)]])


@dataclass(frozen=True)
class ColumnSchema:
    """Column-role mapping for CSV loading.

    ``arm_map`` relabels raw arm values onto {1, 2}; keys may be numbers
    or strings and are matched against the parsed token.  ``delimiter``
    is one character other than '"', "\r" and "\n".
    """

    outcome: str
    arm: str
    covariates: tuple[str, ...] = ()
    arm_map: dict | None = None
    delimiter: str = ","

    def __post_init__(self):
        d = self.delimiter
        if not isinstance(d, str) or len(d) != 1 or d in '"\r\n':
            raise SchemaError("delimiter must be one character other than "
                              f"'\"', '\\r' and '\\n', got {d!r}")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        used = [self.outcome, self.arm, *self.covariates]
        if len(set(used)) != len(used):
            raise SchemaError("schema assigns one column to multiple roles")


# ------------------------------------------------------------------ #
# Loading
# ------------------------------------------------------------------ #


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_number(token: str, column: str, row: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(
            f"non-numeric value {token!r} in column {column!r}, data row {row}"
        ) from None


def _canonical_arm(token: str, arm_map: dict | None, row: int) -> int:
    raw = token.strip()
    value: object = raw
    num = None
    try:
        num = float(raw)
    except ValueError:
        pass
    if num is not None:
        value = int(num) if float(num).is_integer() else num
    if arm_map:
        for key in (value, raw):
            if key in arm_map:
                value = arm_map[key]
                break
        else:
            raise DataError(f"arm value {raw!r} not in relabel map, data row {row}")
    if value in (1, 2, 1.0, 2.0):
        return int(value)
    raise DataError(f"arm value {raw!r} outside {{1, 2}} after mapping, data row {row}")


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return np.nan


def _block_numbers(rows, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, missing, bad) for column j of a block of rows: the tokens
    as float() reads them, the missing tokens, and the tokens float()
    rejects that are not missing.  Only tokens that read as NaN are looked
    at one by one."""
    m = len(rows)
    try:
        values = np.fromiter(map(float, map(itemgetter(j), rows)), float, m)
    except ValueError:
        values = np.fromiter(map(_float_or_nan, map(itemgetter(j), rows)),
                             float, m)
    missing = np.zeros(m, dtype=bool)
    bad = np.zeros(m, dtype=bool)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        token = rows[i][j]
        if _is_missing(token):
            missing[i] = True
            continue
        try:
            float(token)
        except ValueError:
            bad[i] = True
    return values, missing, bad


def _parse_block(rows, first: int, idx: dict, schema: ColumnSchema,
                 arm_code: dict):
    """(outcome, arm, covariates) of the complete rows of a block whose
    rows all have the header's field count.  The first bad row raises,
    numbered from ``first`` (outcome, then arm, then covariates in schema
    order).  arm_code carries each distinct arm token's reading from
    block to block."""
    m = len(rows)
    y, missing, bad = _block_numbers(rows, idx[schema.outcome])
    arms = list(map(itemgetter(idx[schema.arm]), rows))
    for token in set(arms).difference(arm_code):
        # the token's arm, 0 if missing, -1 if bad
        try:
            arm_code[token] = 0 if _is_missing(token) else \
                _canonical_arm(token, schema.arm_map, 0)
        except DataError:
            arm_code[token] = -1
    arm = np.fromiter(map(arm_code.__getitem__, arms), int, m)
    missing |= arm == 0
    bad |= arm == -1
    cov = np.empty((m, len(schema.covariates)))
    for k, c in enumerate(schema.covariates):
        cov[:, k], c_missing, c_bad = _block_numbers(rows, idx[c])
        missing |= c_missing
        bad |= c_bad
    bad &= ~missing
    if bad.any():
        i = int(np.argmax(bad))
        row, rownum = rows[i], first + i
        # the helpers raise for the first bad token in schema order
        _parse_number(row[idx[schema.outcome]], schema.outcome, rownum)
        _canonical_arm(row[idx[schema.arm]], schema.arm_map, rownum)
        for c in schema.covariates:
            _parse_number(row[idx[c]], c, rownum)
    keep = ~missing
    return y[keep], arm[keep], cov[keep]


def _shape_bytes(delimiter: str) -> bytes | None:
    """The ASCII bytes _has_width deletes from a block to see its shape:
    all but the delimiter, "\n" and "\r"; None for a delimiter that is
    not ASCII."""
    if not delimiter.isascii():
        return None
    keep = {ord(delimiter), ord("\n"), ord("\r")}
    return bytes(b for b in range(128) if b not in keep)


def _has_width(lines, text: str, width: int, delimiter: str,
               shape_bytes: bytes | None) -> bool:
    """Whether each of a block's lines, joined in ``text``, holds
    ``width - 1`` delimiters.  First tested on the whole block: with every
    byte but the delimiter, "\n" and "\r" (shape_bytes, from _shape_bytes)
    deleted, an ASCII block must read as ``width - 1`` delimiters and "\n",
    or all with "\r\n", once per line.  A line holds no "\r" or "\n" but
    its ending, so each line then has its own ending and its delimiters.
    Any other block is tested line by line with str.count."""
    if lines and shape_bytes is not None and text.isascii():
        shape = text.encode().translate(None, shape_bytes)
        row = delimiter * (width - 1)
        if (shape == ((row + "\n") * len(lines)).encode()
                or shape == ((row + "\r\n") * len(lines)).encode()):
            return True
    return set(map(str.count, lines, itertools.repeat(delimiter))) \
        == {width - 1}


def _plain_block(lines, usecols, width: int, delimiter: str,
                 shape_bytes: bytes | None):
    """(outcome, arm, covariates) of a block of raw lines, read by
    NumPy's C reader, or None when the token path must read the block.

    A block is *plain*, and taken, when the token path would read it with
    no dropped row and no error:
    - it has lines, and none holds a quote character or a NUL (which csv
      before Python 3.11 rejects), so csv would split each line at every
      delimiter;
    - every line has ``width`` fields (see _has_width: one bytes-level
      test of the block first, the per-line count when it fails);
    - no line is longer than csv's field size limit (NumPy reads an
      oversize field, csv raises); the lines are measured only when the
      whole block is longer;
    - NumPy converts every used field: it rejects missing tokens such as
      "NA" and "", and the tokens only float() reads, such as "1_0";
      what it reads, it reads with CPython's PyOS_string_to_double, as
      float() does;
    - no value is NaN (a missing token, or a value the token path
      reports) and every arm is exactly 1 or 2."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text
            or not _has_width(lines, text, width, delimiter, shape_bytes)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        values = np.loadtxt(lines, delimiter=delimiter, comments=None,
                            quotechar=None, usecols=usecols, dtype=float,
                            ndmin=2)
    except ValueError:
        return None
    arm = values[:, 1]
    # NumPy skips blank lines; row i must be line i
    if (len(values) != len(lines) or np.isnan(values).any()
            or not ((arm == 1) | (arm == 2)).all()):
        return None
    return values[:, 0], arm.astype(int), values[:, 2:]


def _then_raise(lines, exc: Exception):
    """The lines, then exc raised where the next line is asked for, as
    the file that failed to decode raised it."""
    yield from lines
    raise exc


def load_csv(path: str, schema: ColumnSchema) -> tuple[TrialDataset, int]:
    """Read a trial CSV under ``schema``; complete cases only.

    Rows with a missing value in any used column are dropped; the count of
    dropped rows is returned alongside the dataset.  Non-numeric tokens in
    numeric columns are rejected outright rather than coerced.  The file
    is read and parsed in blocks of _BLOCK rows, and only the parsed
    values of a block's complete rows are kept, so the tokens held at once
    are bounded by one block, not the file.  A block's row lists are also
    fewer than the collector's young-generation threshold (700 tracked
    objects) and are freed before the next block is read, so a large file
    sets off no collection passes over them.

    Two readers share the work and give bit-identical results.  Without
    an arm map, the data rows are read as raw lines, and plain blocks
    (see _plain_block) are parsed by NumPy's C text reader.  From the
    first block that is not plain, the rest of the file is split by
    csv.reader and parsed column by column in Python (the token path),
    the only path that drops rows, maps arms and reports errors.

    An error names the first bad row in file order (within a row: a wrong
    field count, then the outcome, arm and covariates in schema order),
    and reading stops at it; an encoding or CSV error is raised only when
    no row before it is bad.  A UTF-8 byte-order mark is skipped, and a
    used column named twice in the header is a SchemaError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        used = [schema.outcome, schema.arm, *schema.covariates]
        missing_cols = [c for c in used if c not in header]
        if missing_cols:
            raise SchemaError(f"{path}: missing columns {missing_cols}")
        repeated = [c for c in used if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path}: columns {repeated} are named more "
                              "than once in the header")
        idx = {c: header.index(c) for c in used}
        width = len(header)
        usecols = [idx[c] for c in used]
        arm_code = {}
        parts = []  # per block: its complete rows' parsed columns
        n = 0  # data rows before the block
        rows = reader  # the token path's rows
        if not schema.arm_map:
            # plain blocks go to NumPy's reader; from the first block
            # that is not plain (at the latest the empty one at the end),
            # the token path reads the rest of the file
            shape_bytes = _shape_bytes(schema.delimiter)
            while True:
                lines, read_error = [], None
                try:
                    lines.extend(itertools.islice(fh, _BLOCK))
                except UnicodeDecodeError as exc:
                    read_error = exc  # the lines read before it are kept
                part = None if read_error is not None else _plain_block(
                    lines, usecols, width, schema.delimiter, shape_bytes)
                if part is None:
                    break
                parts.append(part)
                n += len(lines)
            rows = csv.reader(
                itertools.chain(lines, fh) if read_error is None
                else _then_raise(lines, read_error),
                delimiter=schema.delimiter)
        while True:
            block, read_error = [], None
            try:
                block.extend(itertools.islice(rows, _BLOCK))
            except (csv.Error, UnicodeDecodeError) as exc:
                read_error = exc  # the rows read before it are kept
            lengths = np.fromiter(map(len, block), int, len(block))
            ragged = np.flatnonzero(lengths != width)
            if ragged.size:
                del block[ragged[0]:]
            parts.append(_parse_block(block, n + 1, idx, schema, arm_code))
            n += len(block)
            if ragged.size:
                raise DataError(
                    f"{path}: data row {n + 1} has {lengths[ragged[0]]} "
                    f"fields, header has {width}")
            if read_error is not None:
                raise read_error
            if len(block) < _BLOCK:
                break

    y, arm, cov = zip(*parts)
    kept = sum(map(len, y))
    if not kept:
        raise EmptyDataError(f"{path}: no usable rows after dropping incomplete ones")
    data = TrialDataset(
        outcome=np.concatenate(y),
        arm=np.concatenate(arm),
        covariates=np.concatenate(cov),
        covariate_names=schema.covariates,
    )
    return data, n - kept


# ------------------------------------------------------------------ #
# Designs
# ------------------------------------------------------------------ #


def _columns(a1, W: np.ndarray, rows, heterogeneous: bool) -> np.ndarray:
    """The design, from the arm-1 indicator a1 (..., n), or 1 or 0 for
    every subject, and rows ``rows`` of the covariates W (..., k, n), as
    one C-contiguous array (..., p, n) whose row j is design column j:

    Homogeneous:    [I(A=1), I(A=2), W_1, ..., W_q]
    Heterogeneous:  [I(A=1), I(A=2), W_1*I(A=1), ..., W_q*I(A=1),
                     W_1*I(A=2), ..., W_q*I(A=2)]
    """
    q, n = len(rows), W.shape[-1]
    X = np.empty(W.shape[:-2] + (2 + (2 * q if heterogeneous else q), n))
    X[..., 0, :] = a1
    np.subtract(1.0, X[..., 0, :], out=X[..., 1, :])
    for j, r in enumerate(rows):
        if heterogeneous:  # rows 2 + j and 2 + q + j
            np.multiply(W[..., r, None, :], X[..., :2, :],
                        out=X[..., 2 + j::q, :])
        else:
            X[..., 2 + j, :] = W[..., r, :]
    return X


def stack_designs(arm: np.ndarray, covariates: np.ndarray,
                  covariate_names, spec: ModelSpec) -> DesignMatrix:
    """The working-model design under ``spec`` for arm labels (..., n)
    and covariates (..., n, q) named by ``covariate_names``, as one
    read-only C-contiguous (..., p, n) array.  Any leading axes are a
    batch of trials; the arrays are taken as valid."""
    names = tuple(covariate_names)
    unknown = [c for c in spec.covariates if c not in names]
    if unknown:
        raise SchemaError(f"model covariates not in dataset: {unknown}")
    W = np.asarray(covariates).mT
    rows = [names.index(c) for c in spec.covariates]
    if spec.heterogeneous:
        for name, r in zip(spec.covariates, rows):
            if (np.ptp(W[..., r, :], axis=-1) == 0.0).any():
                warnings.warn(
                    f"covariate {name!r} is constant; its per-arm columns "
                    "duplicate the arm indicators", stacklevel=3)
    X = _readonly(_columns(arm == 1, W, rows, spec.heterogeneous)).mT
    return DesignMatrix(X=X, spec=spec)


def build_design(data: TrialDataset, spec: ModelSpec) -> DesignMatrix:
    """The working-model design for ``data`` under ``spec``."""
    return stack_designs(data.arm, data.covariates, data.covariate_names,
                         spec)


def counterfactual_design(design: DesignMatrix, a: int) -> np.ndarray:
    """Writable (..., n, p) design with every subject's arm set to ``a``;
    covariates untouched.  Built on each call, in X's layout."""
    if a not in (1, 2):
        raise ValueError(f"arm must be 1 or 2, got {a!r}")
    W, _ = design.covariate_rows()
    return _columns(1.0 if a == 1 else 0.0, W, range(W.shape[-2]),
                    design.spec.heterogeneous).mT
