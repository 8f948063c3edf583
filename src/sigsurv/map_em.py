"""MAP estimation by expectation-maximization in the augmented model.

The E-step takes the augmentation's latent moments at a point mass,
the current (theta, phi) (`hazard.pg_tilts`, `hazard.thinned_rates`),
and returns Q's quadratic form in them; the M-step maximizes Q over
(theta, log phi) with the in-house L-BFGS. The loop carries nothing
else between iterations. Network evaluations here are
exact (no linearization) — the linearized machinery starts only in the
variational stage that consumes this module's MAP estimate. The loop
stops on the log posterior, the quantity full EM iterations can never
decrease (Dempster, Laird & Rubin, 1977).

Every evaluation reads g from the context's trace at its theta
(`HazardContext.trace`), which keeps the last trace it made: the trial
point the line search accepts is traced once, and that pass serves the
log posterior, the next E-step and the next M-step's first evaluation.
The M-step's objective takes the gradient lazily, so a trial that
fails sufficient decrease pays for the forward pass alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .hazard import (HazardContext, log_posterior, pg_tilts, row_coefficients,
                     thinned_rates)
# forward_batch and grad_weighted_sum are not called here any more; they
# stay importable from this namespace because bench/layers.py wraps them
# here.
from .net import forward_batch, grad_weighted_sum  # noqa: F401
from .numkit import RngStream
from .optim import OptimResult, minimize_lbfgs

__all__ = ["EmResult", "em_latent_update", "q_function", "q_grad",
           "em_m_step", "run_em"]

# Each M-step's L-BFGS iteration cap and sup-norm gradient tolerance.
_M_STEP_MAX_ITER = 100
_M_STEP_GTOL = 1e-6


@dataclass
class EmResult:
    """q_trace holds the per-iteration maximized Q values (entropy
    constant dropped, so monotonicity across iterations is not
    guaranteed — the latent entropy drifts); objective_trace holds the
    log posterior under the shared quadrature, which full EM iterations
    can never decrease. Convergence is judged on objective_trace. n_fev
    counts the M-steps' objective evaluations and n_grad the gradients
    among them."""

    theta_map: np.ndarray
    phi_map: float
    q_trace: np.ndarray
    objective_trace: np.ndarray
    records: list[dict]
    converged: bool
    n_iter: int
    message: str
    n_fev: int
    n_grad: int


def em_latent_update(ctx: HazardContext, theta, phi: float):
    """E-step: Q's quadratic form (a, b, a_coef) under the latents at
    (theta, phi). The latent moments are the augmentation's at a point
    mass, m = g and s = |g| (`hazard.pg_tilts`, `hazard.thinned_rates`);
    (a, b) are the row block's coefficients (`hazard.row_coefficients`)
    and a_coef, the coefficient of log phi in Q, is
    alpha0 - 1 + sum_i delta_i + sum_p w_p lam_p."""
    if not np.all(np.isfinite(theta)) or not np.isfinite(phi) or phi <= 0:
        raise InputError("parameters must be finite with phi > 0")
    g = ctx.trace(theta).g
    s = np.abs(g)
    _, e_omega = pg_tilts(ctx, s)
    lam = thinned_rates(ctx, g, s, phi)
    a_coef = (
        ctx.prior.alpha0 - 1.0 + float(ctx.dataset.delta.sum())
        + float((ctx.w_live * lam).sum())
    )
    return (*row_coefficients(ctx, e_omega, lam, s), a_coef)


def q_function(ctx: HazardContext, form, theta, phi: float) -> float:
    """Q(theta, phi) under the quadratic form (a, b, a_coef) of an
    E-step, up to the additive constant the entropy terms contribute
    (dropped, so values compare within a run only)."""
    return q_grad(ctx, form, theta, phi)[0]


def q_grad(ctx: HazardContext, form, theta, phi: float):
    """Q at (theta, phi) under the E-step's form (a, b, a_coef), and a
    zero-argument callable for the gradient of Q w.r.t. (theta, log phi),
    length m + 1. Both come from the context's trace at theta; the
    gradient's reverse walk runs only when the callable is called."""
    if phi <= 0:
        raise InputError("phi must be positive")
    a, b, a_coef = form
    g = ctx.trace(theta).g
    rows = float((a * g - 0.5 * b * g**2).sum())
    prior_theta = -0.5 * float(theta @ theta)
    phi_term = a_coef * float(np.log(phi)) - ctx.phi_rate * phi
    q = rows + prior_theta + phi_term
    if not np.isfinite(q):
        parts = {"rows": rows, "theta-prior": prior_theta, "phi": phi_term}
        bad = [k for k, v in parts.items() if not np.isfinite(v)]
        raise NumericalError(f"Q-function non-finite in term(s): {bad}")

    def grad():
        tr = ctx.trace(theta)
        d_logphi = a_coef - ctx.phi_rate * phi
        return np.concatenate([tr.grad(a - b * tr.g) - theta, [d_logphi]])

    return q, grad


def em_m_step(
    ctx: HazardContext,
    form,
    theta,
    phi: float,
) -> tuple[np.ndarray, float, float, OptimResult]:
    """Maximize Q under the E-step's form (a, b, a_coef) over
    (theta, log phi) from (theta, phi). Returns (theta, phi) at the new
    point, Q there, and the optimizer diagnostics, whose -f0 is Q at
    the start point."""
    _, _, a_coef = form
    if a_coef <= 0:
        raise NumericalError(
            "log-phi coefficient in Q is nonpositive; Q is unbounded as phi -> 0"
        )

    def neg_q(z):
        q, grad = q_grad(ctx, form, z[:-1], float(np.exp(z[-1])))
        return -q, lambda: -grad()

    z0 = np.concatenate([theta, [np.log(phi)]])
    res = minimize_lbfgs(neg_q, z0, max_iter=_M_STEP_MAX_ITER,
                         gtol=_M_STEP_GTOL)
    return res.x[:-1], float(np.exp(res.x[-1])), -res.f, res


def run_em(
    ctx: HazardContext,
    rng: RngStream,
    init_scale: float = 0.1,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> EmResult:
    """Full EM loop to the MAP estimate.

    theta starts at a small seeded N(0, init_scale^2 I) draw (exact
    zeros are a stationary set for ReLU networks: every parameter
    gradient except the output bias vanishes there and stays zero, so
    init_scale = 0 — which reproduces that literal start — trains an
    intercept-only model); phi starts at its prior mean alpha0/beta0.
    Converges when the log posterior's relative change |dL|/|L| is
    below tol on two consecutive iterations; the returned flag reports
    convergence vs. iteration cap. The result carries the log-posterior
    trace the stop test reads (the quantity EM iterations provably
    never decrease) and the maximized-Q trace.
    """
    if init_scale < 0:
        raise InputError("init_scale must be >= 0")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    theta = (
        ctx.model.random_theta(rng, scale=init_scale)
        if init_scale > 0
        else ctx.model.zero_theta()
    )
    phi = ctx.prior.alpha0 / ctx.prior.beta0

    q_trace: list[float] = []
    objective_trace: list[float] = []
    records: list[dict] = []
    n_fev = n_grad = 0
    hits = 0
    converged = False
    message = "iteration cap reached"
    it = 0
    for it in range(max_iter):
        form = em_latent_update(ctx, theta, phi)
        theta, phi, q_val, res = em_m_step(ctx, form, theta, phi)
        q_trace.append(q_val)
        objective_trace.append(log_posterior(ctx, phi, theta))
        n_fev += res.n_fev
        n_grad += res.n_grad
        records.append(
            {
                "iteration": it,
                "q": q_val,
                "q_before_m_step": -res.f0,
                "objective": objective_trace[-1],
                "phi": phi,
                "theta_norm": float(np.linalg.norm(theta)),
                "evaluations": res.n_fev,
                "gradients": res.n_grad,
            }
        )
        if len(objective_trace) >= 2:
            prev = objective_trace[-2]
            rel = abs(objective_trace[-1] - prev) / (abs(prev) + 1e-12)
            hits = hits + 1 if rel < tol else 0
            if hits >= 2:
                converged = True
                message = "relative log-posterior change below tolerance twice"
                break
    return EmResult(
        theta_map=theta,
        phi_map=phi,
        q_trace=np.asarray(q_trace),
        objective_trace=np.asarray(objective_trace),
        records=records,
        converged=converged,
        n_iter=it + 1,
        message=message,
        n_fev=n_fev,
        n_grad=n_grad,
    )
