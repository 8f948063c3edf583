"""Sigmoid-modulated hazard model.

The hazard is lambda(t|x) = phi * t^(rho-1) / Z * sigmoid(g(t, x; theta)),
where g is the network and Z is the prior-predictive mean of sigmoid(g)
under theta ~ N(0, I), linearized at theta = 0, which is exactly 1/2
for this network class (`baseline_factor`). This module holds the
baseline prior and factor, the right-censored log likelihood, and the
augmentation's latent moments (the Polya-Gamma tilts and the marked
Poisson process's thinned rates, which EM's E-step takes at a point
mass and CAVI at the variational factors), and the two augmentation
samplers (Polya-Gamma gamma-series draws; the marked Poisson process
whose exponential functional reproduces the censoring term).

All times here are in normalized units (observed times divided by the
training horizon), matching the network's time input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InputError, NumericalError
# forward_batch and jacobian_batch are not called here any more; they
# stay importable from this namespace because bench/layers.py wraps them
# here.
from .net import (MlpModel, Trace, forward_batch, jacobian_batch,  # noqa: F401
                  row_block, trace)
from .numkit import (QuadratureGrid, RngStream, build_grid, log_gamma, pg_mean,
                     sigmoid)

__all__ = [
    "BaselinePrior",
    "HazardContext",
    "baseline_factor",
    "build_context",
    "pg_tilts",
    "thinned_rates",
    "row_coefficients",
    "log_likelihood",
    "log_prior",
    "log_posterior",
    "sample_pg_series",
    "sample_marked_pp_batch",
]

# Guards t^(rho-1) at the t = 0 grid node when rho < 1 (power would be
# infinite); irrelevant at the default rho = 1, where t^0 is exactly 1.
_T_POWER_FLOOR = 1e-12

# Gamma-series terms drawn per block by `sample_pg_series`.
_PG_CHUNK = 128

# `thinned_rates` clamps its exponent here: e^700 ~ 1e304, near the
# largest float.
_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class BaselinePrior:
    """Gamma(alpha0, beta0) prior on the baseline scale phi together
    with the fixed power-law shape rho of the baseline t^(rho-1)."""

    alpha0: float = 1.0
    beta0: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if not (self.alpha0 > 0 and self.beta0 > 0 and self.rho > 0):
            raise InputError("alpha0, beta0, rho must all be positive")


def baseline_factor(prior: BaselinePrior, T):
    """The phi-free baseline t^(rho-1) / Z = 2 t^(rho-1), one value per
    time in T. Z(t, x) is the prior-predictive mean of sigmoid(g(t, x;
    theta)) under theta ~ N(0, I) with g linearized at theta = 0. A
    fully-connected network with zero weights and biases outputs
    g(., .; 0) = 0, so the linearized g is a zero-mean Gaussian at every
    (t, x) and Z = sigmoid(0) = 1/2 whatever its variance: the baseline
    depends on time alone."""
    t = np.asarray(T, dtype=float)
    return 2.0 * np.maximum(t, _T_POWER_FLOOR) ** (prior.rho - 1.0)


@dataclass(frozen=True)
class HazardContext:
    """Per-dataset caches shared by the likelihood, EM, and CAVI: the
    quadrature grid, the network inputs of the row block, the phi-free
    baseline factor 2 t^(rho-1) on it, and the resulting constant rate
    term phi_rate = beta0 + sum_i int_0^{y_i} 2 t^(rho-1) dt.

    The row block (`net.row_block`) stacks the N event rows (y_i, x_i)
    and then the P live pairs, the (subject, node) pairs with nonzero
    trapezoid weight, packed subject-major (C order of
    `grid.live_mask()`); a pair with zero weight adds nothing to any
    quadrature. `inputs` is the block's read-only network input, one
    (t, x) row each, built once. `w_live` and `base_live` are the live
    pairs' weights and baseline factor, `base_event` the factor at the
    event times."""

    model: MlpModel
    prior: BaselinePrior
    dataset: Dataset
    grid: QuadratureGrid
    inputs: np.ndarray       # (N+P, p+1) (t, x) rows: events, then live pairs
    w_live: np.ndarray       # (P,) trapezoid weights
    base_live: np.ndarray    # (P,) 2 t^(rho-1) at the live pairs
    base_event: np.ndarray   # (N,) 2 t^(rho-1) at the event times
    phi_rate: float
    # [(theta bytes, Trace)] of the last `trace` call, or [None]
    _last: list = field(default_factory=lambda: [None], init=False,
                        repr=False, compare=False)

    def trace(self, theta) -> Trace:
        """The network's forward trace over the row block at theta, its
        g read-only. The context keeps the last trace it made and gives
        it again for a theta of the same bytes, so one pass at an EM
        iterate serves the line search that found it, the log
        posterior, the next E-step and the next M-step's first
        evaluation. It keeps no other: the last is dropped before the
        next is made. Each slot write is one (key, trace) pair, so a
        concurrent call returns its own trace or a consistent kept one."""
        theta = np.array(theta, dtype=float)  # a copy the trace owns
        key = theta.tobytes()
        last = self._last[0]
        if last is not None and last[0] == key:
            return last[1]
        self._last[0] = None
        tr = trace(self.model, self.inputs, theta)
        tr.g.flags.writeable = False
        self._last[0] = (key, tr)
        return tr


def build_context(
    model: MlpModel,
    prior: BaselinePrior,
    dataset: Dataset,
    n_nodes: int = 64,
) -> HazardContext:
    if model.input_dim != dataset.p + 1:
        raise InputError(
            f"network expects {model.input_dim - 1} covariates, data has {dataset.p}"
        )
    bad = np.nonzero(dataset.y_norm == 0)[0]
    if bad.size:
        raise InputError(
            f"observation times of rows {bad.tolist()} underflow to 0 "
            f"when divided by the training horizon {dataset.t_max:g}")
    grid = build_grid(dataset.y_norm, n_nodes)
    t_rows, x_rows = row_block(grid, dataset)
    inputs = np.column_stack([t_rows, x_rows])
    inputs.flags.writeable = False
    base = baseline_factor(prior, t_rows)
    n = dataset.n
    w_live = grid.weights[grid.live_mask()]
    return HazardContext(
        model=model,
        prior=prior,
        dataset=dataset,
        grid=grid,
        inputs=inputs,
        w_live=w_live,
        base_live=base[n:],
        base_event=base[:n],
        phi_rate=prior.beta0 + float((w_live * base[n:]).sum()),
    )


def pg_tilts(ctx: HazardContext, s):
    """The event marks' Polya-Gamma tilts c = delta s and their means
    E[omega] = pg_mean(c), both (N,), from s (N+P,), the square root of
    g's second moment over the row block: |g| at a point mass, s~ under
    the variational factors. A censored row keeps the c = 0 limit 1/4,
    which only ever appears multiplied by delta downstream."""
    c = ctx.dataset.delta * s[:ctx.dataset.n]
    return c, pg_mean(c)


def thinned_rates(ctx: HazardContext, m, s, phi=1.0, log_phi=0.0):
    """The marked-Poisson process's thinned rates at the P live pairs,
    lambda = 2 t^(rho-1) phi sigma(s) exp(-(m + s)/2 + log_phi), from g's
    mean m and the square root s of its second moment over the row block
    (N+P,). At a point mass (m = g, s = |g|, phi) this is the stable form
    of phi 2 t^(rho-1) sigma(-g); under the variational factors it takes
    (m~, s~) and log_phi = E[log phi]. The defaults leave the other form
    exact: phi multiplies the baseline first and log_phi adds inside the
    exponent. An exponent above 700 is clamped there with a
    RuntimeWarning; at a point mass it is at most 0."""
    n = ctx.dataset.n
    m, s = m[n:], s[n:]
    expo = -0.5 * (m + s) + log_phi
    if np.any(expo > _EXP_CLAMP):
        warnings.warn(
            "rate exponent clamped at 700; variational state may be diverging",
            RuntimeWarning,
            stacklevel=3,
        )
        expo = np.minimum(expo, _EXP_CLAMP)
    return ctx.base_live * phi * sigmoid(s) * np.exp(expo)


def row_coefficients(ctx: HazardContext, e_omega, lam, s):
    """Per-row coefficients (a, b) of the quadratic form
    sum_r a_r g_r - b_r g_r^2 / 2 that the Polya-Gamma and marked-Poisson
    augmentations make of the likelihood on the row block:
    a = [delta/2, -w lam/2] and b = [delta E[omega], w lam tau], from
    the event PG means e_omega (N,), the live pairs' thinned rates lam
    (P,) and their marks' PG means tau = pg_mean(s) at the live rows of
    s (N+P,)."""
    delta = ctx.dataset.delta
    vlam = ctx.w_live * lam
    tau = pg_mean(s[ctx.dataset.n:])
    return (np.concatenate([0.5 * delta, -0.5 * vlam]),
            np.concatenate([delta * e_omega, vlam * tau]))


def log_likelihood(ctx: HazardContext, phi: float, theta) -> float:
    """Right-censored log likelihood sum_i [delta_i log lambda(y_i|x_i)
    - int_0^{y_i} lambda dt], the integral by the context's quadrature
    grid. Exact network evaluations (no linearization), g from the
    context's trace at theta (`HazardContext.trace`)."""
    if phi <= 0:
        raise InputError("phi must be positive")
    ds = ctx.dataset

    g = ctx.trace(theta).g
    lam_event = phi * ctx.base_event * sigmoid(g[:ds.n])
    cum = float((ctx.w_live * (phi * ctx.base_live * sigmoid(g[ds.n:]))).sum())

    with np.errstate(divide="ignore"):
        log_lam = np.log(lam_event)
    event_terms = np.where(ds.delta == 1, log_lam, 0.0)
    if not np.all(np.isfinite(event_terms)):
        bad = np.nonzero(~np.isfinite(event_terms))[0]
        raise NumericalError(
            "hazard underflowed to zero at event observation(s) %s"
            % bad.tolist()
        )
    return float(event_terms.sum() - cum)


def log_prior(prior: BaselinePrior, phi: float, theta) -> float:
    """log Gamma(phi; alpha0, beta0) + log N(theta; 0, I)."""
    if phi <= 0:
        raise InputError("phi must be positive")
    theta = np.asarray(theta, dtype=float)
    m = theta.size
    lp_phi = (
        prior.alpha0 * np.log(prior.beta0)
        - log_gamma(prior.alpha0)
        + (prior.alpha0 - 1.0) * np.log(phi)
        - prior.beta0 * phi
    )
    lp_theta = -0.5 * m * np.log(2.0 * np.pi) - 0.5 * float(theta @ theta)
    return float(lp_phi + lp_theta)


def log_posterior(ctx: HazardContext, phi: float, theta) -> float:
    return log_likelihood(ctx, phi, theta) + log_prior(ctx.prior, phi, theta)


def sample_pg_series(rng: RngStream, c: float, size: int, terms: int = 2000):
    """Polya-Gamma PG(1, c) draws via the truncated gamma series
    (1 / (2 pi^2)) sum_k g_k / ((k - 1/2)^2 + c^2 / (4 pi^2)),
    g_k ~ Gamma(1, 1) iid over k = 1..terms. Term blocks of
    _PG_CHUNK keep memory flat for large `size`. Truncation drops the
    tail k > terms, which biases the mean low by about
    1 / (2 pi^2 terms): 2.5e-5 at the default 2000."""
    if terms < 1 or size < 0:
        raise InputError("terms must be >= 1 and size >= 0")
    c = float(c)
    ks = np.arange(1, terms + 1, dtype=float)
    denom = (ks - 0.5) ** 2 + c * c / (4.0 * np.pi**2)
    out = np.zeros(size)
    for start in range(0, terms, _PG_CHUNK):
        d = denom[start : start + _PG_CHUNK]
        g = rng.gen.gamma(1.0, 1.0, size=(size, d.size))
        out += (g / d).sum(axis=1)
    return out / (2.0 * np.pi**2)


def sample_marked_pp_batch(
    prior: BaselinePrior,
    phi: float,
    y: float,
    rng: RngStream,
    n_rep: int,
    n_grid: int = 2048,
    pg_terms: int = 2000,
):
    """`n_rep` independent draws of the marked Poisson process on
    [0, y] x R+ with intensity lambda0(t; phi) * PG(omega | 1, 0),
    lambda0 = phi * baseline_factor(prior, t), the same for every subject.

    Counts are Poisson with mean int_0^y lambda0 dt; locations are iid
    from the normalized intensity via inverse-CDF on an `n_grid`-point
    table; marks are PG(1, 0) series draws. Returns (times, omegas,
    counts): flat arrays of all points, with counts (n_rep,) giving
    each replica's segment length in order.
    """
    if phi <= 0 or y <= 0:
        raise InputError("phi and y must be positive")
    if n_rep < 1 or n_grid < 2:
        raise InputError("n_rep must be >= 1 and n_grid >= 2")
    tg = np.linspace(0.0, float(y), n_grid)
    lam0 = phi * baseline_factor(prior, tg)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (lam0[1:] + lam0[:-1]) * np.diff(tg))]
    )
    total = float(cum[-1])
    if not np.isfinite(total) or total <= 0:
        raise NumericalError("degenerate baseline intensity on [0, y]")

    counts = rng.gen.poisson(total, size=n_rep)
    n_pts = int(counts.sum())
    u = rng.gen.uniform(0.0, total, size=n_pts)
    times = np.interp(u, cum, tg)
    omegas = sample_pg_series(rng, 0.0, size=n_pts, terms=pg_terms)
    return times, omegas, counts

