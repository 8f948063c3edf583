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
with the draws' offsets from theta_MAP. The draws are made once, before
any chunk runs, so chunks are independent: they run on up to one thread
per CPU, the caller's and a per-call pool's (numpy's GEMM and ufuncs
release the interpreter lock), and each chunk writes only its own rows
of the result; only per-subject summaries outlive a chunk.

A chunk's trace rows are subject-major, each subject's times together,
as g at a row depends on the row's place in the batch. Its cumulative
hazard is time-major, a running difference over contiguous (subjects,
draws) slabs, and the mean and band write each subject's row from it
(see `_survival_draws`).

Each thread owns one `_Workspace`, allocated once per call, and every
chunk reuses it in place: its Jacobian, the draws' network values, the
cumulative hazard and the sort for the band all live there, so a chunk
allocates no array the size of its Jacobian or its draws. A chunk holds as many subjects as
keep that workspace within _CHUNK_FLOATS floats (one at least), so the
predictive's memory stays flat in the number of subjects and grows with
the number of draws only through the draws themselves, (m, S) floats.
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

# Workspace floats per worker (3 MiB): a chunk holds
# max(1, _CHUNK_FLOATS // (Tq * (max(m, S) + S))) subjects for a
# Tq-point grid, m network parameters and S draws (see `_Workspace`).
# Fewer subjects a chunk cost time in the per-chunk trace and the
# narrower GEMM; this budget keeps 3 or more at m = 1281, S = 200 and
# Tq = 65.
_CHUNK_FLOATS = 3 << 17


@dataclass(frozen=True)
class SurvivalBands:
    """Pointwise posterior median and equal-tailed (lo, hi) band at
    `level` for n subjects on a shared grid, each (n, T); below 20
    draws (lo, hi) is the draws' (min, max)."""

    median: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: float


def credible_band(samples: np.ndarray, level: float):
    """Pointwise median and equal-tailed quantile band over the draws
    on the last axis. `level` must lie strictly inside (0, 1), and there
    must be at least one draw. Returns (median, lo, hi), read off the
    draws' order statistics by `_sorted_quantiles`, bit-equal to
    `np.quantile`; below 20 draws, too few to place the tails, (lo, hi)
    is the draws' (min, max). A float array passed in comes back sorted
    along its last axis."""
    samples = np.asarray(samples, dtype=float)
    if not 0.0 < level < 1.0:
        raise InputError("level must be strictly between 0 and 1")
    n = samples.shape[-1]
    if n == 0:
        raise InputError("need at least one draw for a band")
    a = 1.0 - level
    qs = (0.5, a / 2.0, 1.0 - a / 2.0) if n >= 20 else (0.5, 0.0, 1.0)
    return _sorted_quantiles(samples, qs)


def _sorted_quantiles(samples: np.ndarray, qs):
    """The quantiles qs of the float array samples along its last axis,
    one array each. The draws are sorted once, in place, so no copy of
    them is made, and each quantile is read off the order statistics by
    numpy's default `linear` rule: virtual index v = (n - 1) q,
    neighbours floor(v) and floor(v) + 1 (both the last when
    v >= n - 1), and the two-sided lerp of `np.quantile`, so each is
    bit-equal to it. At q = 0 and 1 the lerp returns the first and last
    order statistic exactly for finite draws (bar a -0.0, read as +0.0),
    so on curves in [0, 1] they are the min and max. A slice that holds
    a NaN reads NaN."""
    samples.sort(axis=-1)  # NaN last
    srt = np.moveaxis(samples, -1, 0)
    n = srt.shape[0]
    nan = np.isnan(srt[-1])
    out = []
    for v in (n - 1) * np.asarray(qs):
        i, j = (int(v), int(v) + 1) if v < n - 1 else (-1, -1)
        t = v - i
        d = srt[j] - srt[i]
        val = srt[j] - d * (1 - t) if t >= 0.5 else srt[i] + d * t
        out.append(np.where(nan, srt[-1], val))
    return tuple(out)


def _prep_times(times, t_max: float):
    """Validate the prediction grid, convert to normalized units, and
    prepend t = 0 when absent so cumulative integration starts at the
    origin, warning when the grid extends beyond the training horizon.
    Returns (times, tq, prepend_zero). The curves need at least two
    times (`SurvivalCurves`), checked here before any draw is made."""
    times = np.asarray(times, dtype=float).ravel()
    if times.size < 2 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise InputError("times must be at least two nonnegative, strictly "
                         "increasing values")
    t_norm = times / float(t_max)
    if np.any(t_norm > 1.0 + 1e-12):
        warnings.warn(
            "prediction grid extends beyond the training horizon; "
            "curves there are extrapolations",
            RuntimeWarning,
            stacklevel=2,
        )
    prepend_zero = t_norm[0] > 0.0
    tq = np.concatenate([[0.0], t_norm]) if prepend_zero else t_norm
    return times, tq, prepend_zero


def _draw_posterior(post, theta_map: np.ndarray, rng: RngStream,
                    n_draws: int):
    """Draw (phi, theta) jointly from the variational factors. phi is
    drawn before theta so the draw stream layout is stable for a given
    seed. Returns phi (S,) and the theta draws' offsets from theta_map,
    (m, S), built in place in the one array the square root returns."""
    alpha, beta = float(post.alpha_tilde), float(post.beta_tilde)
    phi_draws = rng.gen.gamma(alpha, 1.0 / beta, size=n_draws)
    z = rng.gen.standard_normal((theta_map.size, n_draws))
    shift = post.sigma.sqrt_matvec(z)
    shift += post.mu_tilde[:, None]                    # theta draws
    shift -= theta_map[:, None]
    return phi_draws, shift


class _Workspace:
    """One worker's memory for chunks of up to `subjects` subjects on a
    Tq-point grid with S draws, rows = subjects * Tq: a flat buffer of
    rows * max(m, S) floats and the (rows, S) linearized network values
    z, allocated once per call and reused in place by every chunk. The
    flat buffer holds the chunk's (rows, m) Jacobian, rows subject-major,
    until the product z = g + J shift has read it, then the sigmoid's
    scratch, and then the cumulative hazard, time-major (Tq, subjects,
    S), which becomes the survival curves that the band sorts."""

    def __init__(self, subjects: int, tq_size: int, m: int, n_draws: int):
        rows = subjects * tq_size
        self.flat = np.empty(rows * max(m, n_draws))
        self.z = np.empty((rows, n_draws))


def _survival_draws(ws: _Workspace, model, theta_map, tq, prepend_zero,
                    X, rate, shift) -> np.ndarray:
    """Survival curves (T, B, S), time-major, for the B rows of X under
    the S draws, a view of `ws.flat`: the linearized hazard on all
    B * Tq (t, x) rows from one forward trace (g and its Jacobian) and
    one matrix product with the theta offsets `shift`, scaled by `rate`
    (Tq, S), phi_s times the baseline at t_k; a cumulative trapezoid
    along time, exponentiate-negate.

    The trace's rows stay subject-major, t fastest: the network's last
    layer is a BLAS matrix-vector product whose tail rows sum in another
    order, so a row that moves in the batch can move g in its last bits.
    The trapezoid steps are written time-major, through a transposed
    read of the hazard, so the cumulative sum is a running difference
    over contiguous (B, S) slabs, c_k = c_(k-1) - step_k from c_0 = 0: it
    equals the negated cumulative sum exactly, -(a + b) = (-a) - b
    under round-to-nearest, bar the sign of an exact zero, which exp
    maps to 1 either way. Every other step writes into the workspace in
    the operation order of the allocating expressions, so the curves
    are bit-equal to them."""
    B, Tq = X.shape[0], tq.size
    m, S = shift.shape
    n = B * Tq
    T_rows = np.tile(tq, B)
    X_rows = np.repeat(X, Tq, axis=0)
    J = ws.flat[:n * m].reshape(n, m)
    g_map, _ = jacobian_batch(model, T_rows, X_rows, theta_map, out=J)

    z = ws.z[:n]
    np.matmul(J, shift, out=z)
    z += g_map[:, None]                                # g_lin = g + J shift
    e = ws.flat[:n * S].reshape(n, S)                  # J is spent
    sigmoid_into(z, e)
    lam = z.reshape(B, Tq, S)
    lam *= rate                                        # lam = (phi base) sig
    lam = lam.transpose(1, 0, 2)                       # (Tq, B, S) view
    cum = e.reshape(Tq, B, S)
    step = cum[1:]
    np.add(lam[1:], lam[:-1], out=step)
    step *= 0.5
    step *= np.diff(tq)[:, None, None]
    cum[0] = 0.0
    for k in range(1, Tq):                             # minus the cumsum
        np.subtract(cum[k - 1], cum[k], out=cum[k])
    np.exp(cum, out=cum)
    return step if prepend_zero else cum


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
    `workers` when given: this one and a pool's, which start none when
    the count is 1. The results are bit-identical for any count, and an
    exception in a chunk re-raises here. A bad `level`, `n_draws`,
    `workers` or grid is rejected before any draw is made."""
    if n_draws < 2:
        raise InputError("n_draws must be >= 2")
    if workers is not None and workers < 1:
        raise InputError("workers must be >= 1")
    if level is not None and not 0.0 < level < 1.0:
        raise InputError("level must be strictly between 0 and 1")
    theta_map = np.asarray(theta_map, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    times, tq, prepend_zero = _prep_times(times, t_max)
    phi_draws, shift = _draw_posterior(post, theta_map, rng, n_draws)
    rate = phi_draws[None, :] * baseline_factor(prior, tq)[:, None]  # (Tq, S)
    n = X.shape[0]
    per_chunk = max(1, _CHUNK_FLOATS
                    // (tq.size * (max(theta_map.size, n_draws) + n_draws)))
    out = np.empty((1 if level is None else 4, n, times.size))

    def score(starts, ws) -> None:
        for start in starts:
            rows = slice(start, start + per_chunk)
            surv = _survival_draws(ws, model, theta_map, tq, prepend_zero,
                                   X[rows], rate, shift)
            dst = out[:, rows].transpose(0, 2, 1)  # (T, B) views of out
            dst[0] = surv.mean(axis=-1)  # before the band sorts surv
            if level is not None:
                dst[1:] = credible_band(surv, level)

    starts = range(0, n, per_chunk)
    k = _worker_count(workers, len(starts))
    # allocated here rather than in the pool's threads, so the memory
    # returns to this thread's heap, not to per-thread malloc arenas;
    # for the same reason this thread scores the first share itself
    spaces = [_Workspace(min(per_chunk, n), tq.size, theta_map.size, n_draws)
              for _ in range(k)]
    # the pool starts at most one thread per job, so none when k = 1
    # (max_workers must be positive: k, not k - 1)
    with ThreadPoolExecutor(max_workers=k) as pool:
        jobs = [pool.submit(score, starts[i::k], spaces[i])
                for i in range(1, k)]
        score(starts[0::k], spaces[0])
        for job in jobs:
            job.result()
    curves = SurvivalCurves(times=times, values=out[0])
    if level is None:
        return curves, None
    return curves, SurvivalBands(median=out[1], lo=out[2], hi=out[3],
                                 level=level)
