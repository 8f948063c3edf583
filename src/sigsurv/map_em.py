"""MAP estimation by expectation-maximization in the augmented model.

The E-step refreshes the latent Polya-Gamma moments at event times and
the thinned-process rates/moments at quadrature nodes from the current
(theta, phi); the M-step maximizes the resulting Q-function over
(theta, log phi) with the in-house L-BFGS. Network evaluations here are
exact (no linearization) — the linearized machinery starts only in the
variational stage that consumes this module's MAP estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError
from .hazard import HazardContext, log_posterior, row_coefficients
# grad_weighted_sum is not called here any more; it stays importable
# from this namespace because bench/layers.py wraps it here.
from .net import forward_and_grad, forward_batch, grad_weighted_sum  # noqa: F401
from .numkit import RngStream, pg_mean, sigmoid
from .optim import OptimResult, minimize_lbfgs

__all__ = ["EmState", "EmResult", "em_latent_update", "q_function", "q_grad",
           "em_m_step", "run_em"]


@dataclass(frozen=True)
class EmState:
    """Current parameters plus the latent moments computed from them.

    Latent fields are None until the first em_latent_update. The grid
    fields hold the P live quadrature pairs in the context's packed
    order. a_coef is the coefficient of log phi in Q: alpha0 - 1
    + sum_i delta_i + sum_p w_p lam_grid_p.
    """

    theta: np.ndarray
    phi: float
    c_event: np.ndarray | None = None   # (N,) delta_i |g(y_i; theta)|
    e_omega: np.ndarray | None = None   # (N,) pg_mean(1, c_event)
    lam_grid: np.ndarray | None = None  # (P,) thinned rates at live pairs
    tau_grid: np.ndarray | None = None  # (P,) pg_mean(1, |g|) at live pairs
    a_coef: float | None = None

    def require_latents(self):
        if self.lam_grid is None:
            raise InputError("latent updates have not been run on this state")


@dataclass
class EmResult:
    """q_trace holds the per-iteration maximized Q values (entropy
    constant dropped, so monotonicity across iterations is not
    guaranteed — the latent entropy drifts); objective_trace holds the
    log posterior under the shared quadrature, which full EM iterations
    can never decrease. Convergence is judged on q_trace."""

    theta_map: np.ndarray
    phi_map: float
    q_trace: np.ndarray
    objective_trace: np.ndarray
    records: list[dict]
    converged: bool
    n_iter: int
    message: str


def em_latent_update(ctx: HazardContext, state: EmState) -> EmState:
    """E-step. c = delta |g(y_i)| drives the event PG means; the
    thinned-process rate at node t_k is
    (t^(rho-1)/Z) * phi * sigmoid(|g|) * exp(-(g + |g|)/2)
    (the stable form of lambda0 * sigmoid(-g)), with PG means at |g|."""
    ds = ctx.dataset
    theta, phi = state.theta, state.phi
    if not np.all(np.isfinite(theta)) or not np.isfinite(phi) or phi <= 0:
        raise InputError("state parameters must be finite with phi > 0")

    g = forward_batch(ctx.model, ctx.t_rows, ctx.x_rows, theta)
    c_event = ds.delta * np.abs(g[:ds.n])
    e_omega = pg_mean(1.0, c_event)

    g_grid = g[ds.n:]
    ag = np.abs(g_grid)
    lam_grid = ctx.base_live * phi * sigmoid(ag) * np.exp(-0.5 * (g_grid + ag))
    tau_grid = pg_mean(1.0, ag)

    a_coef = (
        ctx.prior.alpha0 - 1.0 + float(ds.delta.sum())
        + float((ctx.w_live * lam_grid).sum())
    )
    return replace(
        state, c_event=c_event, e_omega=e_omega,
        lam_grid=lam_grid, tau_grid=tau_grid, a_coef=a_coef,
    )


def _coefficients(ctx: HazardContext, state: EmState, phi: float):
    state.require_latents()
    if phi <= 0:
        raise InputError("phi must be positive")
    return row_coefficients(ctx, state.e_omega, state.lam_grid, state.tau_grid)


def _q_value(ctx: HazardContext, state: EmState, theta, phi: float,
             g, a, b) -> float:
    rows = float((a * g - 0.5 * b * g**2).sum())
    prior_theta = -0.5 * float(theta @ theta)
    phi_term = state.a_coef * float(np.log(phi)) - ctx.phi_rate * phi

    total = rows + prior_theta + phi_term
    if not np.isfinite(total):
        parts = {"rows": rows, "theta-prior": prior_theta, "phi": phi_term}
        bad = [k for k, v in parts.items() if not np.isfinite(v)]
        raise NumericalError(f"Q-function non-finite in term(s): {bad}")
    return total


def q_function(ctx: HazardContext, state: EmState, theta, phi: float) -> float:
    """Q(theta, phi | state latents), up to the additive constant the
    entropy terms contribute (dropped, so values compare within a run
    only)."""
    a, b = _coefficients(ctx, state, phi)
    g = forward_batch(ctx.model, ctx.t_rows, ctx.x_rows, theta)
    return _q_value(ctx, state, theta, phi, g, a, b)


def q_grad(ctx: HazardContext, state: EmState, theta, phi: float):
    """(Q, gradient of Q w.r.t. (theta, log phi) of length m + 1), both
    from one network trace over the row block."""
    a, b = _coefficients(ctx, state, phi)
    g, d_rows = forward_and_grad(ctx.model, ctx.t_rows, ctx.x_rows, theta,
                                 lambda g: a - b * g)
    q = _q_value(ctx, state, theta, phi, g, a, b)
    d_logphi = state.a_coef - ctx.phi_rate * phi
    return q, np.concatenate([d_rows - theta, [d_logphi]])


def em_m_step(
    ctx: HazardContext,
    state: EmState,
    max_iter: int = 100,
    gtol: float = 1e-6,
) -> tuple[EmState, float, OptimResult]:
    """Maximize Q over (theta, log phi) from the state's current point.
    Returns (state with new parameters, Q at the new point, optimizer
    diagnostics, whose -f0 is Q at the start point). Latent fields are
    kept (they describe the sweep that produced this Q)."""
    state.require_latents()
    if state.a_coef is None or state.a_coef <= 0:
        raise NumericalError(
            "log-phi coefficient in Q is nonpositive; Q is unbounded as phi -> 0"
        )

    def neg_q(z):
        q, grad = q_grad(ctx, state, z[:-1], float(np.exp(z[-1])))
        return -q, -grad

    z0 = np.concatenate([state.theta, [np.log(state.phi)]])
    res = minimize_lbfgs(neg_q, z0, memory=10, max_iter=max_iter, gtol=gtol)
    theta_new = res.x[:-1]
    phi_new = float(np.exp(res.x[-1]))
    new_state = replace(state, theta=theta_new, phi=phi_new)
    return new_state, -res.f, res


def run_em(
    ctx: HazardContext,
    rng: RngStream,
    init_scale: float = 0.1,
    tol: float = 1e-6,
    max_iter: int = 500,
    m_step_iters: int = 100,
    m_step_gtol: float = 1e-6,
) -> EmResult:
    """Full EM loop to the MAP estimate.

    theta starts at a small seeded N(0, init_scale^2 I) draw (exact
    zeros are a stationary set for ReLU networks: every parameter
    gradient except the output bias vanishes there and stays zero, so
    init_scale = 0 — which reproduces that literal start — trains an
    intercept-only model); phi starts at its prior mean alpha0/beta0.
    Converges when |dQ|/|Q| < tol on two consecutive iterations; the
    returned flag reports convergence vs. iteration cap. The result
    carries the maximized-Q trace and the log-posterior trace (the
    latter is the quantity EM iterations provably never decrease).
    """
    if init_scale < 0:
        raise InputError("init_scale must be >= 0")
    theta0 = (
        ctx.model.random_theta(rng, scale=init_scale)
        if init_scale > 0
        else ctx.model.zero_theta()
    )
    phi0 = ctx.prior.alpha0 / ctx.prior.beta0
    state = EmState(theta=theta0, phi=phi0)

    q_trace: list[float] = []
    objective_trace: list[float] = []
    records: list[dict] = []
    hits = 0
    converged = False
    message = "iteration cap reached"
    it = 0
    for it in range(max_iter):
        state = em_latent_update(ctx, state)
        state, q_val, res = em_m_step(ctx, state, max_iter=m_step_iters,
                                      gtol=m_step_gtol)
        q_trace.append(q_val)
        objective_trace.append(log_posterior(ctx, state.phi, state.theta))
        records.append(
            {
                "iteration": it,
                "q": q_val,
                "q_before_m_step": -res.f0,
                "objective": objective_trace[-1],
                "phi": state.phi,
                "theta_norm": float(np.linalg.norm(state.theta)),
            }
        )
        if len(q_trace) >= 2:
            rel = abs(q_trace[-1] - q_trace[-2]) / (abs(q_trace[-2]) + 1e-12)
            hits = hits + 1 if rel < tol else 0
            if hits >= 2:
                converged = True
                message = "relative Q change below tolerance twice"
                break
    return EmResult(
        theta_map=state.theta,
        phi_map=state.phi,
        q_trace=np.asarray(q_trace),
        objective_trace=np.asarray(objective_trace),
        records=records,
        converged=converged,
        n_iter=it + 1,
        message=message,
    )
