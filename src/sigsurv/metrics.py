"""Survival model evaluation: time-dependent (Antolini) concordance,
IPCW Brier score and its integrated form, and the Kaplan-Meier
censoring-survival estimator those weights require.

Survival estimates are passed as values on a shared increasing time
grid; evaluation between nodes is linear interpolation, clamped at the
grid endpoints.

Memory is bounded for N subjects and T metric nodes: `c_index` works in
blocks of O(N b) floats (about 1 MB each), `ipcw_ibs` in O(N T), the
size of the curves on its grid, and `km_censor` in O(N). Non-finite
curves raise NumericalError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InputError, NumericalError

__all__ = [
    "SurvivalCurves",
    "KmCensorCurve",
    "km_censor",
    "c_index",
    "ipcw_brier",
    "ipcw_ibs",
]

# c_index scores events in blocks whose (N, b) float64 arrays hold about
# this many values (1 MB)
_BLOCK_FLOATS = 1 << 17


@dataclass(frozen=True)
class SurvivalCurves:
    """Per-subject survival estimates: values (N, T) on a shared strictly
    increasing time grid (original units)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise InputError("time grid must be strictly increasing with >= 2 nodes")
        if values.shape[1] != times.size:
            raise InputError("values must be (n_subjects, n_times)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def at(self, ts) -> np.ndarray:
        """Linear interpolation at query times, clamped to the end
        values outside the grid. Returns (N, len(ts))."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        t = self.times
        idx = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, t.size - 2)
        t0, t1 = t[idx], t[idx + 1]
        w = np.clip((ts - t0) / (t1 - t0), 0.0, 1.0)
        v0 = self.values[:, idx]
        v1 = self.values[:, idx + 1]
        return v0 + w[None, :] * (v1 - v0)


@dataclass(frozen=True)
class KmCensorCurve:
    """Product-limit estimate of the censoring survival function
    (the "events" are censorings, 1 - delta). Right-continuous steps:
    C(t) = prod_{u_j <= t} (1 - d_j / n_j); C(0) = 1."""

    times: np.ndarray  # sorted unique observed times
    surv: np.ndarray   # value of C just after each time

    def eval(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.searchsorted(self.times, ts, side="right") - 1
        out = np.where(idx >= 0, self.surv[np.maximum(idx, 0)], 1.0)
        return out

    def eval_left(self, ts) -> np.ndarray:
        """Left limit C(t-): steps at t itself excluded."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.searchsorted(self.times, ts, side="left") - 1
        return np.where(idx >= 0, self.surv[np.maximum(idx, 0)], 1.0)


def km_censor(dataset: Dataset) -> KmCensorCurve:
    """Censoring survival C from one sort of the observed times: the
    at-risk counts are suffix sums of the tie counts and the censorings
    a bincount, so every factor 1 - d/n is a ratio of integer-valued
    floats. O(N) memory."""
    times, inverse, counts = np.unique(
        dataset.y, return_inverse=True, return_counts=True)
    # at risk just before u_j; censorings exactly at u_j
    n_at_risk = np.cumsum(counts[::-1])[::-1].astype(float)
    d_cens = np.bincount(inverse, weights=1 - dataset.delta,
                         minlength=times.size)
    factors = 1.0 - d_cens / n_at_risk
    return KmCensorCurve(times=times, surv=np.cumprod(factors))


def _check_curves(curves: SurvivalCurves, dataset: Dataset) -> None:
    if curves.n != dataset.n:
        raise InputError("curve count does not match dataset size")
    if not np.isfinite(curves.values).all():
        raise NumericalError("survival curves hold non-finite values")


def c_index(curves: SurvivalCurves, dataset: Dataset) -> float:
    """Time-dependent concordance: over comparable pairs (i, j) with
    delta_i = 1 and y_i < y_j, a pair scores 1 when
    S_i(y_i) < S_j(y_i), 1/2 on ties. Raises InputError when no pair is
    comparable and NumericalError on non-finite curves.

    Event subjects are taken in blocks of b, each one (N, b) array
    S_j(y_i) of about `_BLOCK_FLOATS` floats, so memory is O(N b), not
    O(N^2). Pairs are counted as integers; (2 conc + ties) / 2 is the
    float sum of the 1s and 1/2s exactly, since it stays below 2^53."""
    _check_curves(curves, dataset)
    y, delta = dataset.y, dataset.delta
    events = np.flatnonzero(delta == 1)
    b = max(1, _BLOCK_FLOATS // curves.n)
    n_pairs = conc = ties = 0
    for start in range(0, events.size, b):
        blk = events[start:start + b]
        s_at_yi = curves.at(y[blk])               # [j, k] = S_j(y_blk[k])
        own = s_at_yi[blk, np.arange(blk.size)]   # S_i(y_i)
        comparable = y[:, None] > y[blk]
        n_pairs += np.count_nonzero(comparable)
        conc += np.count_nonzero(comparable & (own < s_at_yi))
        ties += np.count_nonzero(comparable & (own == s_at_yi))
    if n_pairs == 0:
        raise InputError("no comparable pairs (need an event before another time)")
    return float((2 * conc + ties) / 2 / n_pairs)


def _brier_nodes(
    curves: SurvivalCurves, dataset: Dataset, ts: np.ndarray,
    censor: KmCensorCurve,
) -> tuple[np.ndarray, np.ndarray]:
    """IPCW Brier scores at the times `ts` from one interpolation, as
    (scores, dead): dead[k] marks a node whose censor weight is
    undefined (C = 0 where a term needs it); its score is meaningless.
    Both terms are one C-contiguous (T, N) array, so each node's mean
    is the 1-D pairwise sum of its row."""
    _check_curves(curves, dataset)
    y, delta = dataset.y, dataset.delta
    s_t = np.ascontiguousarray(curves.at(ts).T)          # (T, N)
    past_event = (y <= ts[:, None]) & (delta == 1)
    still_at_risk = y > ts[:, None]

    c_left = censor.eval_left(y)
    c_t = censor.eval(ts)
    weighted = past_event & (c_left > 0.0)
    dead = (weighted != past_event).any(axis=1) | (
        still_at_risk.any(axis=1) & (c_t <= 0.0))

    term1 = np.zeros(s_t.shape)
    np.divide(s_t**2, c_left, out=term1, where=weighted)
    term2 = np.where(still_at_risk,
                     (1.0 - s_t) ** 2 / np.maximum(c_t, 1e-300)[:, None], 0.0)
    return (term1 + term2).mean(axis=1), dead


def ipcw_brier(
    curves: SurvivalCurves, dataset: Dataset, t: float, censor: KmCensorCurve
) -> float:
    """Inverse-probability-of-censoring-weighted Brier score at time t:
    (1/N) sum_i [ S_i(t)^2 1{y_i <= t, delta_i = 1} / C(y_i-)
                + (1 - S_i(t))^2 1{y_i > t} / C(t) ].
    Event weights use the left limit C(y_i-) so a subject's own
    censoring step cannot enter its weight. Raises NumericalError where
    a weight is undefined (C = 0) or on non-finite curves."""
    scores, dead = _brier_nodes(curves, dataset, np.array([float(t)]), censor)
    if dead[0]:
        raise NumericalError(f"censor weight undefined (C=0) at t={t}")
    return float(scores[0])


def ipcw_ibs(
    curves: SurvivalCurves, dataset: Dataset, time_grid, censor: KmCensorCurve
) -> float:
    """Trapezoid integral of the IPCW Brier score over the grid,
    normalized by the integrated span. Nodes where the censor curve
    hits zero are skipped with a warning; at least two usable nodes are
    required. One pass over the grid in O(N T) memory, the size of the
    curves on it; every node's score is bit-equal to `ipcw_brier`'s."""
    time_grid = np.asarray(time_grid, dtype=float).ravel()
    if time_grid.size < 2 or np.any(np.diff(time_grid) <= 0):
        raise InputError("time_grid must be strictly increasing with >= 2 nodes")
    scores, dead = _brier_nodes(curves, dataset, time_grid, censor)
    for t in time_grid[dead]:
        warnings.warn(
            f"skipping t={t:g}: censor weight undefined (C=0)",
            RuntimeWarning,
            stacklevel=2,
        )
    kept = time_grid[~dead]
    if kept.size < 2:
        raise NumericalError("fewer than two usable Brier nodes on the grid")
    return float(np.trapezoid(scores[~dead], kept) / (kept[-1] - kept[0]))
