"""Posterior predictive survival curves with credible bands.

`mean_survival_matrix` is the one entry point: for every row of X it
returns the posterior-mean survival curve and the pointwise median and
equal-tailed band. Each posterior draw samples phi from its Gamma
factor and theta from the (possibly low-rank) Gaussian factor,
evaluates the linearized hazard on the requested time grid, integrates
it cumulatively by trapezoid from t = 0, and exponentiates the
negative. Bands are equal-tailed pointwise quantiles across draws.

Subjects are processed in chunks: one chunk's (t, x) rows go through
one forward trace at theta_MAP, which gives both g and the Jacobian,
and the linearized hazard of every draw comes from one matrix product
with the draws' offsets from theta_MAP. A chunk is sized so its
Jacobian holds about _CHUNK_FLOATS floats; only per-subject summaries
outlive the chunk. The draws are made once, before any chunk runs, so
chunks are independent: they run on up to one thread per CPU, the
caller's and a per-call pool's (numpy's GEMM and ufuncs release the
interpreter lock), each thread in its own buffers, allocated once per
call, and each chunk writes only its own rows of the result.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .hazard import BaselinePrior, baseline_factor
from .metrics import SurvivalCurves
# forward_batch is not called here any more; it stays importable from
# this namespace because bench/layers.py wraps it here.
from .net import MlpModel, forward_batch, jacobian_batch  # noqa: F401
from .numkit import RngStream, sigmoid_into

__all__ = [
    "SurvivalBands",
    "credible_band",
    "mean_survival_matrix",
]

# Jacobian floats per chunk of subjects (2 MB): a chunk holds
# max(1, _CHUNK_FLOATS // (Tq * m)) subjects for a Tq-point grid and m
# network parameters. The draw-sized arrays of a chunk are Tq * S floats
# per subject for S draws.
_CHUNK_FLOATS = 1 << 18


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


def credible_band(samples: np.ndarray, level: float):
    """Pointwise median and equal-tailed quantile band over the draws
    on the last axis. `level` must lie strictly inside (0, 1); at least
    20 draws required. Returns (median, lo, hi).

    The draws are sorted once and each quantile is read off the order
    statistics by numpy's default `linear` rule: virtual index
    v = (n - 1) q, neighbours floor(v) and floor(v) + 1 (both the last
    when v >= n - 1), and the two-sided lerp of `np.quantile`, so the
    band is bit-equal to it. A slice that holds a NaN reads NaN."""
    samples = np.asarray(samples, dtype=float)
    if not 0.0 < level < 1.0:
        raise InputError("level must be strictly between 0 and 1")
    if samples.shape[-1] < 20:
        raise InputError("need at least 20 draws for a quantile band")
    a = 1.0 - level
    srt = np.moveaxis(np.sort(samples, axis=-1), -1, 0)  # NaN last
    n = srt.shape[0]
    nan = np.isnan(srt[-1])
    band = []
    for v in (n - 1) * np.array([0.5, a / 2.0, 1.0 - a / 2.0]):
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


class _Workspace:
    """One worker's buffers for chunks of up to `subjects` subjects on a
    Tq-point grid with S draws, allocated once per call: the chunk's
    Jacobian, two (rows, S) draw buffers, the sign mask of the
    linearized network value and the (subjects, Tq, S) survival curves."""

    def __init__(self, subjects: int, tq_size: int, m: int, n_draws: int):
        rows = subjects * tq_size
        self.J = np.empty((rows, m))
        self.z = np.empty((rows, n_draws))
        self.e = np.empty((rows, n_draws))
        self.pos = np.empty((rows, n_draws), dtype=bool)
        self.cum = np.empty((subjects, tq_size, n_draws))


def _survival_draws(ws: _Workspace, model, prior, theta_map, tq,
                    prepend_zero, X, phi_draws, shift) -> np.ndarray:
    """Survival curves (B, T, S) for the B rows of X under the S draws,
    a view of `ws.cum`: the linearized hazard on all B * Tq (t, x) rows
    from one forward trace (g and its Jacobian) and one matrix product
    with the theta offsets `shift`, a cumulative trapezoid along time,
    exponentiate-negate. Every step writes into the workspace in the
    operation order of the allocating expressions, so the curves are
    bit-equal to them."""
    B, Tq = X.shape[0], tq.size
    n = B * Tq
    T_rows = np.tile(tq, B)
    X_rows = np.repeat(X, Tq, axis=0)
    base = baseline_factor(model, prior, T_rows, X_rows)          # (n,)
    J, z, e, pos = ws.J[:n], ws.z[:n], ws.e[:n], ws.pos[:n]
    g_map, _ = jacobian_batch(model, T_rows, X_rows, theta_map, out=J)

    np.matmul(J, shift, out=z)
    z += g_map[:, None]                                # g_lin = g + J shift
    sigmoid_into(z, e, pos)
    np.multiply(phi_draws[None, :], base[:, None], out=e)
    z *= e                                             # lam = (phi base) sig
    lam = z.reshape(B, Tq, -1)
    cum = ws.cum[:B]
    cum[:, 0, :] = 0.0
    if Tq > 1:
        step = e.reshape(B, Tq, -1)[:, 1:, :]
        np.add(lam[:, 1:, :], lam[:, :-1, :], out=step)
        step *= 0.5
        step *= np.diff(tq)[:, None]
        np.cumsum(step, axis=1, out=cum[:, 1:, :])
    np.negative(cum, out=cum)
    np.exp(cum, out=cum)
    return cum[:, 1:, :] if prepend_zero else cum


def _worker_count(workers, n_chunks: int) -> int:
    """Threads for `n_chunks` chunks: the CPUs this process may run on,
    capped by `workers` when given and by the chunk count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    if workers is not None:
        cpus = min(cpus, workers)
    return max(1, min(cpus, n_chunks))


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
    level: float | None = 0.9,
    workers: int | None = None,
):
    """Posterior-mean survival curves for every row of X under one
    shared set of posterior draws (common random numbers across
    subjects, so between-subject curve differences reflect covariates
    rather than Monte-Carlo noise). Returns (SurvivalCurves of the
    means, SurvivalBands of the per-subject median and band); below 20
    draws the band is the draws' (min, max). With level None it returns
    (curves, None) and computes no band.

    The chunks of subjects run on min(CPUs, chunks) threads, at most
    `workers` when given: this one and a pool of the rest, or this one
    alone when the count is 1. The results are bit-identical for any
    count, and an exception in a chunk re-raises here."""
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    if workers is not None and workers < 1:
        raise InputError("workers must be >= 1")
    theta_map = np.asarray(theta_map, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    times, tq, prepend_zero, flagged = _prep_times(times, t_max)
    phi_draws, shift = _draw_posterior(post, theta_map, rng, n_draws)
    n = X.shape[0]
    per_chunk = max(1, _CHUNK_FLOATS // (tq.size * theta_map.size))
    out = np.empty((1 if level is None else 4, n, times.size))

    def score(starts, ws) -> None:
        for start in starts:
            rows = slice(start, start + per_chunk)
            surv = _survival_draws(ws, model, prior, theta_map, tq,
                                   prepend_zero, X[rows], phi_draws, shift)
            out[0, rows] = surv.mean(axis=-1)
            if level is None:
                continue
            if n_draws >= 20:
                out[1:, rows] = credible_band(surv, level)
            else:
                out[1, rows] = np.quantile(surv, 0.5, axis=-1)
                out[2, rows] = surv.min(axis=-1)
                out[3, rows] = surv.max(axis=-1)

    starts = range(0, n, per_chunk)
    k = _worker_count(workers, len(starts))
    # allocated here rather than in the pool's threads, so the memory
    # returns to this thread's heap, not to per-thread malloc arenas;
    # for the same reason this thread scores the first share itself
    spaces = [_Workspace(min(per_chunk, n), tq.size, theta_map.size, n_draws)
              for _ in range(k)]
    if k == 1:
        score(starts, spaces[0])
    else:
        with ThreadPoolExecutor(max_workers=k - 1) as pool:
            jobs = [pool.submit(score, starts[i::k], spaces[i])
                    for i in range(1, k)]
            score(starts[0::k], spaces[0])
            for job in jobs:
                job.result()
    curves = SurvivalCurves(times=times, values=out[0])
    if level is None:
        return curves, None
    return curves, SurvivalBands(median=out[1], lo=out[2], hi=out[3],
                                 level=level, flagged_extrapolation=flagged)
