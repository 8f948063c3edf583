"""EM loop for the MAP fit: latent moments, surrogate objective,
M-step, and the full iteration."""

import dataclasses
import math

import numpy as np
import pytest

from sigsurv.data import Dataset
from sigsurv.errors import NumericalError
from sigsurv.hazard import (BaselinePrior, baseline_factor, build_context,
                            log_posterior)
from sigsurv.map_em import (
    EmState,
    em_latent_update,
    em_m_step,
    q_function,
    q_grad,
    run_em,
)
from sigsurv import net
from sigsurv.data import gen_synthetic, standardize
from sigsurv.net import (MlpModel, forward_batch, grad_weighted_sum,
                         unflatten)
from sigsurv.numkit import RngStream, sigmoid

from _oracles import em_full_grid, q_straightline, run_em_eager

ROOT_SEED = 20260814


def _toy_ctx(n_nodes=12, seed=0, layers=(3, 4, 1), n=6, t_max=1.0,
             prior=BaselinePrior()):
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0.1, 1.0, size=n))
    y[-1] = t_max
    delta = (rng.uniform(size=n) < 0.6).astype(int)
    delta[0] = 1
    X = rng.normal(size=(n, layers[0] - 1))
    ds = Dataset(X=X, y=y, delta=delta, t_max=t_max)
    ctx = build_context(MlpModel(layers), prior, ds, n_nodes=n_nodes)
    return ctx


# -------------------------------------------------------- latent update


def test_latents_at_silent_network():
    ctx = _toy_ctx()
    state = em_latent_update(
        ctx, EmState(theta=np.zeros(ctx.model.n_params), phi=1.3)
    )
    # |g| = 0 everywhere: tilts vanish, moments sit at the PG(1,0) mean
    P = int(np.count_nonzero(ctx.grid.live_mask()))
    assert state.lam_grid.shape == state.tau_grid.shape == (P,)
    assert np.array_equal(state.c_event, np.zeros(ctx.dataset.n))
    assert np.allclose(state.e_omega, 0.25, rtol=0, atol=1e-15)
    assert np.allclose(state.tau_grid, 0.25, rtol=0, atol=1e-15)
    assert np.allclose(state.lam_grid, 1.3, rtol=0, atol=1e-14)


def test_latent_c_is_event_gated_magnitude():
    ctx = _toy_ctx(seed=3)
    theta = np.random.default_rng(5).normal(size=ctx.model.n_params) * 0.5
    state = em_latent_update(ctx, EmState(theta=theta, phi=0.9))
    g_event = forward_batch(ctx.model, ctx.dataset.y_norm, ctx.dataset.X, theta)
    want = ctx.dataset.delta * np.abs(g_event)
    assert np.allclose(state.c_event, want, rtol=0, atol=1e-14)
    assert np.all(state.c_event[ctx.dataset.delta == 0] == 0.0)


def test_latent_rate_equals_sign_flipped_hazard():
    # sigma(|g|) exp(-(g+|g|)/2) collapses to sigma(-g) for every sign
    ctx = _toy_ctx(seed=7)
    theta = np.random.default_rng(11).normal(size=ctx.model.n_params)
    phi = 1.7
    state = em_latent_update(ctx, EmState(theta=theta, phi=phi))
    subject, node = np.nonzero(ctx.grid.live_mask())
    T = ctx.grid.nodes[node]
    Xr = ctx.dataset.X[subject]
    g = forward_batch(ctx.model, T, Xr, theta)
    want = baseline_factor(ctx.model, ctx.prior, T, Xr) * phi * sigmoid(-g)
    assert np.allclose(state.lam_grid, want, rtol=1e-13, atol=1e-300)


def test_latent_a_coef_formula():
    ctx = _toy_ctx(seed=9)
    theta = np.random.default_rng(2).normal(size=ctx.model.n_params) * 0.3
    state = em_latent_update(ctx, EmState(theta=theta, phi=1.1))
    # the rates sit at the live pairs: zero elsewhere on the (N, K) grid
    live = ctx.grid.live_mask()
    lam_nk = np.zeros(live.shape)
    lam_nk[live] = state.lam_grid
    want = (1.0 - 1.0 + ctx.dataset.delta.sum()
            + float((ctx.grid.weights * lam_nk).sum()))
    assert abs(state.a_coef - want) < 1e-10


def test_latent_requires_run_before_use():
    ctx = _toy_ctx()
    bare = EmState(theta=np.zeros(ctx.model.n_params), phi=1.0)
    with pytest.raises(Exception):
        bare.require_latents()


def test_latent_c_invariant_under_covariate_permutation():
    ctx = _toy_ctx(seed=13, layers=(4, 5, 1), n=8)
    model, ds = ctx.model, ctx.dataset
    theta = np.random.default_rng(21).normal(size=model.n_params)
    state = em_latent_update(ctx, EmState(theta=theta, phi=1.0))

    perm = [2, 0, 1]                       # covariate columns only
    X_perm = ds.X[:, perm]
    params = [(W.copy(), b.copy()) for W, b in unflatten(model, theta)]
    W1 = params[0][0]
    W1_perm = W1.copy()
    W1_perm[:, 1:] = W1[:, 1 + np.asarray(perm)]
    params[0] = (W1_perm, params[0][1])
    ds_perm = Dataset(X=X_perm, y=ds.y, delta=ds.delta, t_max=ds.t_max)
    ctx_perm = build_context(model, ctx.prior, ds_perm, n_nodes=ctx.grid.n_nodes)
    theta_perm = np.concatenate([np.r_[W.ravel(), b] for W, b in params])
    state_perm = em_latent_update(ctx_perm, EmState(theta=theta_perm, phi=1.0))
    assert np.allclose(state.c_event, state_perm.c_event, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", [1.0, 1.5])
def test_packed_em_matches_full_grid_oracle(rho):
    # the live-pair E-step, Q and grad Q against the same computations
    # over the full (N, K) grid, on a grid with zero-weight pairs
    ctx = _toy_ctx(seed=31, n=7, n_nodes=14, prior=BaselinePrior(rho=rho))
    ds, grid, model = ctx.dataset, ctx.grid, ctx.model
    live = grid.live_mask()
    assert 0 < live.sum() < live.size
    N, K = live.shape
    base_grid = baseline_factor(model, ctx.prior, np.tile(grid.nodes, N),
                                np.repeat(ds.X, K, axis=0)).reshape(N, K)
    rng = np.random.default_rng(19)
    state_theta = rng.normal(size=model.n_params) * 0.8
    theta = rng.normal(size=model.n_params) * 0.8
    state = em_latent_update(ctx, EmState(theta=state_theta, phi=1.4))
    want = em_full_grid(
        lambda T, X, th: forward_batch(model, T, X, th),
        lambda T, X, th, w: grad_weighted_sum(model, T, X, th, w),
        ds.y_norm, ds.delta, ds.X, grid.nodes, grid.weights, base_grid,
        ctx.prior.alpha0, ctx.prior.beta0, state_theta, 1.4, theta, 0.8)
    close = dict(rtol=1e-12, atol=1e-12)
    assert np.allclose(state.lam_grid, want["lam_grid"][live], **close)
    assert np.allclose(state.tau_grid, want["tau_grid"][live], **close)
    assert np.allclose(state.c_event, want["c_event"], **close)
    assert np.allclose(state.e_omega, want["e_omega"], **close)
    assert np.isclose(state.a_coef, want["a_coef"], **close)
    assert np.isclose(ctx.phi_rate, want["phi_rate"], **close)
    assert np.isclose(q_function(ctx, state, theta, 0.8), want["q"], **close)
    q, grad = q_grad(ctx, state, theta, 0.8, state.row_coefficients(ctx))
    assert np.isclose(q, want["q"], **close)
    assert np.allclose(grad(), want["grad"], **close)


# ----------------------------------------------------------- Q function


def test_q_theta_part_is_prior_when_latents_silent():
    # with no events and the integral latents zeroed the theta terms
    # reduce to the Gaussian prior: Q(t1) - Q(t2) = -(|t1|^2 - |t2|^2)/2
    ctx = _toy_ctx(seed=1)
    base = em_latent_update(
        ctx, EmState(theta=np.zeros(ctx.model.n_params), phi=1.0)
    )
    silent = dataclasses.replace(
        base,
        c_event=np.zeros(ctx.dataset.n),
        e_omega=np.full(ctx.dataset.n, 0.25),
        lam_grid=np.zeros_like(base.lam_grid),
        tau_grid=np.full_like(base.tau_grid, 0.25),
        a_coef=2.0,
    )
    ctx_noev = dataclasses.replace(
        ctx, dataset=dataclasses.replace(
            ctx.dataset, delta=np.zeros(ctx.dataset.n, dtype=int)
        )
    )
    rng = np.random.default_rng(17)
    phi = 0.7
    for _ in range(5):
        t1 = rng.normal(size=ctx.model.n_params)
        t2 = rng.normal(size=ctx.model.n_params)
        dq = q_function(ctx_noev, silent, t1, phi) \
            - q_function(ctx_noev, silent, t2, phi)
        want = -0.5 * (t1 @ t1 - t2 @ t2)
        assert abs(dq - want) < 1e-10


def test_q_phi_profile_maximum_is_ratio():
    # Q in phi is a_coef log phi - phi_rate phi: unique max at the ratio
    ctx = _toy_ctx(seed=4)
    theta = np.random.default_rng(3).normal(size=ctx.model.n_params) * 0.2
    state = em_latent_update(ctx, EmState(theta=theta, phi=1.0))
    phi_star = state.a_coef / ctx.phi_rate
    q_star = q_function(ctx, state, theta, phi_star)
    for phi in (0.3, 0.9, 2.0, 7.0):
        assert q_function(ctx, state, theta, phi) <= q_star + 1e-12


def test_q_matches_straight_line_oracle():
    layers = (3, 4, 1)
    ctx = _toy_ctx(n_nodes=8, seed=6, layers=layers, n=4)
    rng = np.random.default_rng(8)
    state_theta = rng.normal(size=ctx.model.n_params) * 0.4
    state = em_latent_update(ctx, EmState(theta=state_theta, phi=1.6))
    theta = rng.normal(size=ctx.model.n_params) * 0.4
    got = q_function(ctx, state, theta, 0.8)
    want = q_straightline(
        ctx.dataset.y_norm, ctx.dataset.delta, ctx.dataset.X,
        ctx.grid.nodes, ctx.grid.weights, layers,
        state_theta, 1.6, theta, 0.8,
        lambda t, x: 0.5, 1.0, 1.0, 1.0,
    )
    assert abs(got - want) < 1e-10


def test_q_grad_matches_finite_differences():
    ctx = _toy_ctx(n_nodes=10, seed=2, layers=(3, 4, 1), n=5)
    rng = np.random.default_rng(12)
    state = em_latent_update(
        ctx, EmState(theta=rng.normal(size=ctx.model.n_params) * 0.3, phi=1.2)
    )
    theta = rng.normal(size=ctx.model.n_params) * 0.3
    q, grad = q_grad(ctx, state, theta, 1.2, state.row_coefficients(ctx))
    assert q == q_function(ctx, state, theta, 1.2)
    g = grad()
    h = 1e-6
    for j in range(0, ctx.model.n_params, 3):
        e = np.zeros(ctx.model.n_params)
        e[j] = h
        fd = (q_function(ctx, state, theta + e, 1.2)
              - q_function(ctx, state, theta - e, 1.2)) / (2 * h)
        assert abs(g[j] - fd) < 1e-5 * max(1.0, abs(fd))


# --------------------------------------------------------------- M-step


def test_m_step_phi_hits_closed_form():
    ctx = _toy_ctx(seed=10)
    rng = RngStream.from_seed(123)
    theta0 = ctx.model.random_theta(rng, scale=0.2)
    state = em_latent_update(ctx, EmState(theta=theta0, phi=1.0))
    new_state, q_val, res = em_m_step(ctx, state)
    want = state.a_coef / ctx.phi_rate
    assert abs(new_state.phi - want) <= 1e-6 * want
    assert new_state.phi > 0
    assert q_val >= q_function(ctx, state, theta0, 1.0) - 1e-10


def test_m_step_second_call_is_fixed_point():
    ctx = _toy_ctx(seed=14)
    rng = RngStream.from_seed(9)
    state = em_latent_update(
        ctx, EmState(theta=ctx.model.random_theta(rng, scale=0.2), phi=1.0)
    )
    s1, q1, _ = em_m_step(ctx, state)
    # keep the same latents, restart the optimizer from the optimum
    s1_latents = dataclasses.replace(
        state, theta=s1.theta, phi=s1.phi
    )
    s2, q2, res2 = em_m_step(ctx, s1_latents)
    assert abs(q2 - q1) < 1e-10
    assert float(np.max(np.abs(s2.theta - s1.theta))) < 1e-4
    assert abs(s2.phi - s1.phi) < 1e-8


def test_m_step_rejects_nonpositive_log_coefficient():
    ctx = _toy_ctx(seed=15)
    state = em_latent_update(
        ctx, EmState(theta=np.zeros(ctx.model.n_params), phi=1.0)
    )
    bad = dataclasses.replace(state, a_coef=-0.1)
    with pytest.raises(NumericalError):
        em_m_step(ctx, bad)


# ------------------------------------------------------------- full EM


def test_run_em_benchmark_small(small_fit):
    em = small_fit.em
    assert em.converged
    assert em.n_iter <= 200
    assert em.phi_map > 0
    q_steps = np.diff(em.q_trace)
    assert q_steps.size > 0 and q_steps.min() >= -1e-8
    obj_steps = np.diff(em.objective_trace)
    assert obj_steps.min() >= -1e-8
    for rec in em.records:
        assert rec["q"] >= rec["q_before_m_step"] - 1e-8
    # reported objective is the exact joint log posterior at the iterate
    final = log_posterior(small_fit.ctx, em.phi_map, em.theta_map)
    assert abs(em.objective_trace[-1] - final) < 1e-9


def test_m_step_reports_q_at_its_start_point():
    # q_before_m_step comes from the optimizer's first evaluation, whose
    # phi passes through exp(log phi): equal to Q there up to rounding
    ctx = _toy_ctx(seed=10)
    theta0 = ctx.model.random_theta(RngStream.from_seed(5), scale=0.2)
    state = em_latent_update(ctx, EmState(theta=theta0, phi=1.3))
    q_start = q_function(ctx, state, theta0, 1.3)
    _, q_new, res = em_m_step(ctx, state, max_iter=5)
    assert abs(-res.f0 - q_start) <= 1e-12 * abs(q_start)
    assert q_new >= -res.f0


def test_run_em_gradient_small_at_map(small_fit):
    # finite-difference gradient of Q at the returned point
    ctx, em = small_fit.ctx, small_fit.em
    state = em_latent_update(ctx, EmState(theta=em.theta_map, phi=em.phi_map))
    state, q_val, _ = em_m_step(ctx, state)
    h = 1e-5
    theta = state.theta
    fd = np.zeros(theta.size)
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = h
        fd[j] = (q_function(ctx, state, theta + e, state.phi)
                 - q_function(ctx, state, theta - e, state.phi)) / (2 * h)
    assert np.linalg.norm(fd) < 1e-4


def test_run_em_deterministic():
    ctx = _toy_ctx(seed=20, n=8, n_nodes=16)
    root = RngStream.from_seed(555)
    a = run_em(ctx, root.child(1), max_iter=40)
    b = run_em(ctx, RngStream.from_seed(555).child(1), max_iter=40)
    assert np.array_equal(a.theta_map, b.theta_map)
    assert a.phi_map == b.phi_map
    assert np.array_equal(a.q_trace, b.q_trace)


def test_run_em_iteration_cap_reports_unconverged():
    ctx = _toy_ctx(seed=21, n=8, n_nodes=16)
    em = run_em(ctx, RngStream.from_seed(1).child(0), max_iter=2)
    assert not em.converged
    assert em.n_iter == 2
    assert "max" in em.message or "iteration" in em.message


def test_run_em_zero_init_scale_starts_at_origin():
    ctx = _toy_ctx(seed=22, n=5, n_nodes=12)
    em = run_em(ctx, RngStream.from_seed(2).child(0), init_scale=0.0,
                max_iter=3)
    assert len(em.q_trace) == len(em.records)
    assert em.records[0]["iteration"] == 0


# ------------------------------------------------- shared network traces


def _gate_ctx(n, key):
    raw = gen_synthetic(n, RngStream.from_seed(ROOT_SEED).child(key))
    X_std, _ = standardize(raw.X)
    ds = Dataset(X=X_std, y=raw.y, delta=raw.delta)
    return build_context(MlpModel((ds.p + 1, 16, 16, 1)), BaselinePrior(),
                         ds, n_nodes=64)


def _assert_equals_eager(ctx, em, want):
    theta, phi, q_trace, objective_trace, records, n_iter = want
    assert em.theta_map.tobytes() == theta.tobytes()
    assert em.phi_map == phi
    assert em.q_trace.tobytes() == q_trace.tobytes()
    assert em.objective_trace.tobytes() == objective_trace.tobytes()
    assert em.records == records
    assert em.n_iter == n_iter
    assert em.n_fev == sum(r["evaluations"] for r in records)
    assert em.n_grad == sum(r["gradients"] for r in records) < em.n_fev


def test_run_em_equals_the_eager_oracle_on_the_gate_set(small_fit):
    # small_fit is the gate's N=25 fit (training key 25, EM stream 26)
    want = run_em_eager(small_fit.ctx,
                        RngStream.from_seed(ROOT_SEED).child(26))
    _assert_equals_eager(small_fit.ctx, small_fit.em, want)


def test_run_em_equals_the_eager_oracle_off_the_collapsed_set():
    # the gate's N=50 set from a wide start: g varies across rows
    ctx = _gate_ctx(50, 50)
    em = run_em(ctx, RngStream.from_seed(ROOT_SEED).child(51),
                init_scale=1.0, max_iter=4)
    g = forward_batch(ctx.model, ctx.inputs[:, 0], ctx.inputs[:, 1:],
                      em.theta_map)
    assert g.max() - g.min() > 1.0
    want = run_em_eager(ctx, RngStream.from_seed(ROOT_SEED).child(51),
                        init_scale=1.0, max_iter=4)
    _assert_equals_eager(ctx, em, want)


@pytest.mark.parametrize("n, key, scale, iters",
                         [(25, 25, 0.1, 500), (50, 50, 1.0, 4)])
def test_run_em_traces_no_theta_more_than_twice(monkeypatch, n, key, scale,
                                                iters):
    ctx = _gate_ctx(n, key)
    passes = {}
    forward = net._forward

    def counted(model, Z, theta):
        key = np.asarray(theta).tobytes()
        passes[key] = passes.get(key, 0) + 1
        return forward(model, Z, theta)

    monkeypatch.setattr(net, "_forward", counted)
    em = run_em(ctx, RngStream.from_seed(ROOT_SEED).child(key + 1),
                init_scale=scale, max_iter=iters)
    assert max(passes.values()) <= 2
    # one pass at the start and one per evaluation but each M-step's
    # first: the E-step, the log posterior and that evaluation reuse the
    # pass that ended the step before, unless the line search ended on
    # an earlier trial (a second pass). An own pass for each took
    # n_fev + 2 n_iter.
    again = sum(count == 2 for count in passes.values())
    assert sum(passes.values()) == em.n_fev - em.n_iter + 1 + again
