"""Posterior predictive survival curves with credible bands.

Each posterior draw samples phi from its Gamma factor and theta from
the (possibly low-rank) Gaussian factor, evaluates the linearized
hazard on the requested time grid, integrates it cumulatively by
trapezoid from t = 0, and exponentiates the negative. Bands are
equal-tailed pointwise quantiles across draws.

Subjects are processed in chunks: one chunk's (t, x) rows go through
one forward pass and one Jacobian at theta_MAP, and the linearized
hazard of every draw comes from one matrix product with the draws'
offsets from theta_MAP. A chunk is sized so its Jacobian holds about
_CHUNK_FLOATS floats; only per-subject summaries outlive the chunk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .hazard import BaselinePrior, baseline_factor
from .metrics import SurvivalCurves
from .net import MlpModel, forward_batch, jacobian_batch
from .numkit import RngStream, sigmoid

__all__ = [
    "PosteriorSurvival",
    "SurvivalBands",
    "credible_band",
    "sample_survival",
    "mean_survival_matrix",
]

# Jacobian floats per chunk of subjects (2 MB): a chunk holds
# max(1, _CHUNK_FLOATS // (Tq * m)) subjects for a Tq-point grid and m
# network parameters. The draw-sized arrays of a chunk are Tq * S floats
# per subject for S draws.
_CHUNK_FLOATS = 1 << 18


@dataclass(frozen=True)
class PosteriorSurvival:
    """Sampled curves (draws x times) on `times` (original units) with
    pointwise mean, median, and equal-tailed (lo, hi) band at `level`.
    `flagged_extrapolation` marks grids that extend beyond the training
    horizon."""

    times: np.ndarray
    curves: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: float
    flagged_extrapolation: bool

    @property
    def n_draws(self) -> int:
        return self.curves.shape[0]


@dataclass(frozen=True)
class SurvivalBands:
    """Pointwise posterior median and equal-tailed (lo, hi) band at
    `level` for n subjects on a shared grid, each (n, T); below 20
    draws (lo, hi) is the draws' (min, max). `flagged_extrapolation`
    marks grids that extend beyond the training horizon."""

    median: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: float
    flagged_extrapolation: bool


def credible_band(samples: np.ndarray, level: float, axis: int = 0,
                  with_median: bool = False):
    """Equal-tailed pointwise quantile band over draws along `axis`
    (rows by default). `level` must lie strictly inside (0, 1); at
    least 20 draws required. Returns (lo, hi), or (median, lo, hi) from
    the same sort with `with_median`.

    The draws are sorted once and each quantile is read off the order
    statistics by numpy's default `linear` rule: virtual index
    v = (n - 1) q, neighbours floor(v) and floor(v) + 1 (both the last
    when v >= n - 1), and the two-sided lerp of `np.quantile`, so the
    band is bit-equal to it. A slice that holds a NaN reads NaN."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if not 0.0 < level < 1.0:
        raise InputError("level must be strictly between 0 and 1")
    if samples.shape[axis] < 20:
        raise InputError("need at least 20 draws for a quantile band")
    a = 1.0 - level
    q = ([0.5] if with_median else []) + [a / 2.0, 1.0 - a / 2.0]
    srt = np.moveaxis(np.sort(samples, axis=axis), axis, 0)  # NaN last
    n = srt.shape[0]
    nan = np.isnan(srt[-1])
    band = []
    for v in (n - 1) * np.asarray(q):
        i, j = (int(v), int(v) + 1) if v < n - 1 else (-1, -1)
        t = v - i
        d = srt[j] - srt[i]
        val = srt[j] - d * (1 - t) if t >= 0.5 else srt[i] + d * t
        band.append(np.where(nan, srt[-1], val))
    return tuple(band)


def _prep_times(times, t_max: float):
    """Validate the prediction grid, convert to normalized units, and
    prepend t = 0 when absent so cumulative integration starts at the
    origin. Returns (times, tq, prepend_zero, flagged)."""
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 1 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise InputError("times must be nonnegative and strictly increasing")
    t_norm = times / float(t_max)
    flagged = bool(np.any(t_norm > 1.0 + 1e-12))
    if flagged:
        warnings.warn(
            "prediction grid extends beyond the training horizon; "
            "curves there are extrapolations",
            RuntimeWarning,
            stacklevel=2,
        )
    prepend_zero = t_norm[0] > 0.0
    tq = np.concatenate([[0.0], t_norm]) if prepend_zero else t_norm
    return times, tq, prepend_zero, flagged


def _draw_posterior(post, theta_map: np.ndarray, rng: RngStream,
                    n_draws: int):
    """Draw (phi, theta) jointly from the variational factors. phi is
    drawn before theta so the draw stream layout is stable for a given
    seed. Returns phi (S,) and the theta draws' offsets from theta_map,
    (m, S)."""
    alpha, beta = float(post.alpha_tilde), float(post.beta_tilde)
    phi_draws = rng.gen.gamma(alpha, 1.0 / beta, size=n_draws)
    z = rng.gen.standard_normal((theta_map.size, n_draws))
    theta_draws = post.mu_tilde[:, None] + post.sigma.sqrt_matvec(z)  # (m, S)
    return phi_draws, theta_draws - theta_map[:, None]


def _survival_draws(model, prior, theta_map, tq, prepend_zero, X,
                    phi_draws, shift) -> np.ndarray:
    """Survival curves (B, T, S) for the B rows of X under the S draws:
    the linearized hazard on all B * Tq (t, x) rows from one Jacobian
    and one matrix product with the theta offsets `shift`, a cumulative
    trapezoid along time, exponentiate-negate."""
    B, Tq, S = X.shape[0], tq.size, phi_draws.size
    T_rows = np.tile(tq, B)
    X_rows = np.repeat(X, Tq, axis=0)
    base = baseline_factor(model, prior, T_rows, X_rows)          # (B*Tq,)
    g_map = forward_batch(model, T_rows, X_rows, theta_map)       # (B*Tq,)
    J = jacobian_batch(model, T_rows, X_rows, theta_map)          # (B*Tq, m)

    g_lin = g_map[:, None] + J @ shift                            # (B*Tq, S)
    lam = phi_draws[None, :] * base[:, None] * sigmoid(g_lin)
    lam = lam.reshape(B, Tq, S)
    cum = np.zeros_like(lam)
    if Tq > 1:
        cum[:, 1:, :] = np.cumsum(
            0.5 * (lam[:, 1:, :] + lam[:, :-1, :]) * np.diff(tq)[:, None],
            axis=1,
        )
    surv = np.exp(-cum)
    return surv[:, 1:, :] if prepend_zero else surv


def _summarize(surv: np.ndarray, level: float):
    """(mean, median, lo, hi) over the draw axis, the last one; (lo,
    hi) falls back to (min, max) below 20 draws."""
    mean = surv.mean(axis=-1)
    if surv.shape[-1] >= 20:
        median, lo, hi = credible_band(surv, level, axis=-1,
                                       with_median=True)
    else:
        median = np.quantile(surv, 0.5, axis=-1)
        lo, hi = surv.min(axis=-1), surv.max(axis=-1)
    return mean, median, lo, hi


def sample_survival(
    post,
    model: MlpModel,
    prior: BaselinePrior,
    theta_map: np.ndarray,
    t_max: float,
    x,
    times,
    rng: RngStream,
    n_draws: int = 200,
    level: float = 0.9,
) -> PosteriorSurvival:
    """Posterior survival curves for one subject at `times` (original
    units). `post` carries the variational parameters (alpha_tilde,
    beta_tilde, mu_tilde, sigma); `theta_map` is the linearization
    point."""
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    theta_map = np.asarray(theta_map, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    times, tq, prepend_zero, flagged = _prep_times(times, t_max)
    phi_draws, shift = _draw_posterior(post, theta_map, rng, n_draws)
    surv = _survival_draws(model, prior, theta_map, tq, prepend_zero,
                           x[None, :], phi_draws, shift)[0]   # (T, S)
    mean, median, lo, hi = _summarize(surv, level)
    return PosteriorSurvival(
        times=times,
        curves=surv.T,
        mean=mean,
        median=median,
        lo=lo,
        hi=hi,
        level=level,
        flagged_extrapolation=flagged,
    )


def mean_survival_matrix(
    post,
    model: MlpModel,
    prior: BaselinePrior,
    theta_map: np.ndarray,
    t_max: float,
    X,
    times,
    rng: RngStream,
    n_draws: int = 200,
    level: float = 0.9,
):
    """Posterior-mean survival curves for every row of X under one
    shared set of posterior draws (common random numbers across
    subjects, so between-subject curve differences reflect covariates
    rather than Monte-Carlo noise). Returns (SurvivalCurves of the
    means, SurvivalBands of the per-subject median and band)."""
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    theta_map = np.asarray(theta_map, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    times, tq, prepend_zero, flagged = _prep_times(times, t_max)
    phi_draws, shift = _draw_posterior(post, theta_map, rng, n_draws)
    per_chunk = max(1, _CHUNK_FLOATS // (tq.size * theta_map.size))
    out = np.empty((4, X.shape[0], times.size))
    for start in range(0, X.shape[0], per_chunk):
        rows = slice(start, start + per_chunk)
        surv = _survival_draws(model, prior, theta_map, tq, prepend_zero,
                               X[rows], phi_draws, shift)
        out[:, rows] = _summarize(surv, level)
    mean, median, lo, hi = out
    return (SurvivalCurves(times=times, values=mean),
            SurvivalBands(median=median, lo=lo, hi=hi, level=level,
                          flagged_extrapolation=flagged))
