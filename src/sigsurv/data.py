"""Right-censored survival datasets: container, CSV ingestion with
standardization, and the synthetic benchmark generator.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .numkit import RngStream

__all__ = [
    "Dataset",
    "FeatureStats",
    "standardize",
    "load_csv",
    "gen_synthetic",
]

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}
# How many dropped rows the warning names by file line.
_DROPS_NAMED = 5


@dataclass(frozen=True)
class FeatureStats:
    """Per-column standardization statistics from a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.mean.shape[0]:
            raise InputError(
                f"data has {X.shape[-1]} feature columns, the training "
                f"statistics have {self.mean.shape[0]}"
            )
        return (X - self.mean) / self.std


def standardize(X: np.ndarray, stats: FeatureStats | None = None):
    """Zero-mean unit-variance columns; returns (X_std, stats).

    When `stats` is given (test-time), it is applied as-is. Columns
    with zero variance standardize with divisor 1 to stay finite; a
    column whose mean or standard deviation overflows is rejected.
    """
    X = np.asarray(X, dtype=float)
    if stats is None:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
        bad = np.nonzero(~(np.isfinite(mean) & np.isfinite(std)))[0]
        if bad.size:
            raise InputError(
                f"feature columns {bad.tolist()} (0-based, in feature "
                f"order) have a non-finite mean or standard deviation")
        std = np.where(std > 0, std, 1.0)
        stats = FeatureStats(mean=mean, std=std)
    return stats.apply(X), stats


@dataclass(frozen=True)
class Dataset:
    """Covariates X (N, p), observed times y (N,) > 0, event flags
    delta (N,) in {0, 1}, and the time-normalization constant t_max
    (original units).

    `y` is stored in original units; `y_norm` divides by t_max so the
    training span maps into (0, 1] (test times may exceed 1).
    """

    X: np.ndarray
    y: np.ndarray
    delta: np.ndarray
    t_max: float = field(default=0.0)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        delta = np.asarray(self.delta).ravel()
        if X.shape[0] != y.shape[0] or y.shape[0] != delta.shape[0]:
            raise InputError("X, y, delta must have matching row counts")
        if y.size == 0:
            raise InputError("empty dataset")
        if np.any(~np.isfinite(y)):
            raise InputError("non-finite observation times")
        bad = np.nonzero(y <= 0)[0]
        if bad.size:
            raise InputError(
                f"zero/negative-duration rows rejected at ingestion: {bad.tolist()}"
            )
        if not np.all(np.isin(delta, (0, 1))):
            raise InputError("event flags must be 0 or 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta.astype(np.int64))
        t_max = float(self.t_max) if self.t_max else float(y.max())
        if t_max <= 0:
            raise InputError("t_max must be positive")
        object.__setattr__(self, "t_max", t_max)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    @property
    def y_norm(self) -> np.ndarray:
        return self.y / self.t_max


def _parse_cell(text: str, path, line: int, col: str) -> float:
    """The cell's number, NaN for a missing token; an error names the
    cell as path:line:col."""
    token = text.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        value = float(token)
    except ValueError:
        raise InputError(
            f"non-numeric cell {text!r} at {path}:{line}:{col}") from None
    if not math.isfinite(value):
        raise InputError(f"non-finite cell {text!r} at {path}:{line}:{col}")
    return value


def _repeated(names: list) -> list:
    return sorted({c for c in names if names.count(c) > 1})


def load_csv(path, schema: dict, stats: FeatureStats | None = None):
    """Load a headered numeric CSV (UTF-8, a leading byte-order mark
    skipped) into a Dataset.

    schema: {"time_col": str, "event_col": str,
             "feature_cols": list[str] | "rest"}.
    Column names must be unique, feature columns distinct and neither
    the time nor the event column, and errors name a record by its last
    file line. Rows with missing values (empty/NA cells) are dropped
    with one RuntimeWarning that counts them and names the first few by
    file line. Covariates are standardized: with `stats=None` the
    statistics are computed from this file (training); otherwise the
    supplied training stats are applied.
    Returns (dataset, stats).
    """
    time_col = schema["time_col"]
    event_col = schema["event_col"]
    feature_cols = schema["feature_cols"]

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if repeated := _repeated(header):
            raise InputError(f"{path}: repeated column names {repeated}")
        if feature_cols == "rest":
            feature_cols = [c for c in header if c not in (time_col, event_col)]
        if outcome := [c for c in feature_cols if c in (time_col, event_col)]:
            raise InputError(f"{path}: feature columns {outcome} are the "
                             f"time or event column")
        if repeated := _repeated(feature_cols):
            raise InputError(f"{path}: repeated feature columns {repeated}")
        missing = [c for c in [time_col, event_col, *feature_cols]
                   if c not in header]
        if missing:
            raise InputError(f"{path}: missing columns {missing}")
        cols = [(header.index(c), c)
                for c in (time_col, event_col, *feature_cols)]

        parsed, lines = [], []  # the records' cells and last file lines
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise InputError(f"{path}: line {line} has {len(row)} "
                                 f"cells, expected {len(header)}")
            parsed.append([_parse_cell(row[i], path, line, c)
                           for i, c in cols])
            lines.append(line)

    arr = np.asarray(parsed, dtype=float).reshape(-1, len(cols))
    keep = ~np.isnan(arr).any(axis=1)
    if not keep.any():
        raise InputError(f"{path}: no complete rows after dropping missing values")
    if not keep.all():
        lost = np.flatnonzero(~keep)
        named = ", ".join(str(lines[r]) for r in lost[:_DROPS_NAMED])
        more = ", ..." if lost.size > _DROPS_NAMED else ""
        warnings.warn(
            f"{path}: dropped {lost.size} row(s) with a missing cell (file "
            f"lines {named}{more}); subjects are numbered among the "
            f"complete rows", RuntimeWarning, stacklevel=2)
    arr = arr[keep]

    y = arr[:, 0]
    delta = arr[:, 1]
    if not np.all(np.isin(delta, (0.0, 1.0))):
        raise InputError(f"{path}: event column must contain only 0/1")
    X_raw = arr[:, 2:]
    X_std, stats = standardize(X_raw, stats)
    return Dataset(X=X_std, y=y, delta=delta.astype(int)), stats


def gen_synthetic(n: int, rng: RngStream) -> Dataset:
    """Two-group lognormal benchmark with exponential censoring.

    Event times: group 0 ~ logNormal(3, 0.8^2), group 1 ~
    logNormal(3.5, 1.0^2); fair-coin group assignment. Covariates are
    the group indicator plus three standard-normal noise columns
    (returned raw; standardization happens at fit time). Censoring
    times ~ Exponential(rate 0.025); y = min(T, C), delta = 1{T <= C}.
    The long-run censoring fraction of this mechanism is ~0.50.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    g = rng.gen.integers(0, 2, size=n)
    t0 = rng.gen.lognormal(3.0, 0.8, size=n)
    t1 = rng.gen.lognormal(3.5, 1.0, size=n)
    T = np.where(g == 0, t0, t1)
    C = rng.gen.exponential(1.0 / 0.025, size=n)
    y = np.minimum(T, C)
    delta = (T <= C).astype(int)
    noise = rng.gen.standard_normal((n, 3))
    X = np.column_stack([g.astype(float), noise])
    return Dataset(X=X, y=y, delta=delta)

