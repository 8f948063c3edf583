"""Closed-form coordinate ascent over the variational factors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sigsurv.cavi import (
    LowRankFactor,
    SigmaDense,
    build_factor,
    cavi_sweep,
    init_state,
    run_cavi,
    update_omega,
    update_phi,
    update_psi,
    update_theta,
)
from sigsurv.data import Dataset
from sigsurv.errors import InputError, NumericalError
from sigsurv.hazard import (BaselinePrior, baseline_factor, build_context,
                            row_coefficients)
from sigsurv.net import MlpModel, jacobian_batch, linearize
from sigsurv.numkit import RngStream, digamma, pg_mean

from _oracles import (cavi_sweep_all_pairs, psi_rate_scalar,
                      woodbury_dense_inverse)


def _small_problem(seed=0, n=6, layers=(3, 4, 1), n_nodes=12, theta_scale=0.3):
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0.15, 1.0, size=n))
    y[-1] = 1.0
    delta = (rng.uniform(size=n) < 0.6).astype(int)
    delta[0] = 1
    delta[1] = 0
    X = rng.normal(size=(n, layers[0] - 1))
    ds = Dataset(X=X, y=y, delta=delta, t_max=1.0)
    model = MlpModel(layers)
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=n_nodes)
    theta_map = rng.normal(size=model.n_params) * theta_scale
    lin = linearize(model, theta_map, ctx.grid, ds)
    state = init_state(ctx, lin, theta_map, 1.2)
    return ctx, lin, theta_map, state


# ------------------------------------------------------------ init_state


def test_init_state_starts_at_map():
    ctx, lin, theta_map, state = _small_problem()
    assert state.beta_tilde == ctx.phi_rate
    assert abs(state.alpha_tilde - 1.2 * ctx.phi_rate) < 1e-12
    assert abs(state.alpha_tilde / state.beta_tilde - 1.2) < 1e-12
    assert np.array_equal(state.mu_tilde, theta_map)
    assert np.allclose(state.sigma.diag(), 1.0, rtol=0, atol=1e-15)
    assert np.all(state.c_tilde == 0.0)
    assert np.all(state.e_omega == 0.25)
    assert np.all(state.lam_q == 0.0)
    want = digamma(state.alpha_tilde) - math.log(state.beta_tilde)
    assert abs(state.e_log_phi - want) < 1e-12
    assert state.finite()


def test_init_state_rejects_bad_phi():
    ctx, lin, theta_map, _ = _small_problem()
    with pytest.raises(InputError):
        init_state(ctx, lin, theta_map, 0.0)


def test_init_moments_dominate_means():
    # s~ = sqrt(m~^2 + J Sigma J^T) >= |m~| everywhere
    _, lin, _, state = _small_problem(seed=3)
    assert state.m_tilde.shape == state.s_tilde.shape == lin.g.shape
    assert np.all(state.s_tilde >= np.abs(state.m_tilde) - 1e-12)


# --------------------------------------------------------------- omega


def test_update_omega_event_gating():
    ctx, lin, _, state = _small_problem(seed=1)
    new = update_omega(state, ctx)
    delta = ctx.dataset.delta
    assert np.all(new.c_tilde[delta == 0] == 0.0)
    assert np.all(new.e_omega[delta == 0] == 0.25)
    s_event = state.s_tilde[:ctx.dataset.n]
    assert np.allclose(new.c_tilde[delta == 1], s_event[delta == 1],
                       rtol=0, atol=0)
    assert np.allclose(new.e_omega, pg_mean(new.c_tilde), rtol=0, atol=0)


def test_update_omega_pinned_tilt():
    # s~(y_i) = 2 at an event makes E[omega_i] = tanh(1)/4
    ctx, lin, _, state = _small_problem(seed=1)
    s_tilde = state.s_tilde.copy()
    s_tilde[:ctx.dataset.n] = 2.0
    hacked = replace(state, s_tilde=s_tilde)
    new = update_omega(hacked, ctx)
    i = int(np.nonzero(ctx.dataset.delta)[0][0])
    assert abs(new.e_omega[i] - math.tanh(1.0) / 4.0) < 1e-15


# ----------------------------------------------------------------- psi


def test_update_psi_unit_rate_at_neutral_state():
    ctx, lin, _, state = _small_problem(seed=2)
    neutral = replace(
        state,
        m_tilde=np.zeros_like(state.m_tilde),
        s_tilde=np.zeros_like(state.s_tilde),
        e_log_phi=0.0,
    )
    new = update_psi(neutral, ctx)
    assert np.allclose(new.lam_q, 1.0, rtol=0, atol=1e-14)


def test_update_psi_scales_with_phi_moment():
    ctx, lin, _, state = _small_problem(seed=2)
    a = update_psi(state, ctx)
    b = update_psi(replace(state, e_log_phi=state.e_log_phi + math.log(2.0)),
                   ctx)
    assert np.allclose(b.lam_q, 2.0 * a.lam_q, rtol=1e-13, atol=0)


def test_update_psi_matches_scalar_oracle():
    ctx, lin, _, state = _small_problem(seed=5, n=14, n_nodes=16)
    rng = np.random.default_rng(44)
    N = ctx.dataset.n
    P = state.m_tilde.size - N
    m = rng.normal(scale=1.5, size=P)
    s = np.abs(m) + rng.uniform(0.0, 2.0, size=P)
    elp = 0.37
    new = update_psi(replace(state, m_tilde=np.concatenate([np.zeros(N), m]),
                             s_tilde=np.concatenate([np.zeros(N), s]),
                             e_log_phi=elp),
                     ctx)
    count = 0
    for p, (i, k) in enumerate(zip(*np.nonzero(ctx.grid.weights > 0))):
        base = baseline_factor(ctx.prior, [ctx.grid.nodes[k]])[0]
        want = psi_rate_scalar(m[p], s[p], elp, base)
        assert abs(new.lam_q[p] - want) <= 1e-12 * max(want, 1e-6)
        count += 1
    assert count == P
    assert count >= 100


def test_update_psi_warns_and_clamps_on_runaway():
    ctx, lin, _, state = _small_problem(seed=2)
    runaway = replace(state, e_log_phi=900.0)
    with pytest.warns(RuntimeWarning):
        new = update_psi(runaway, ctx)
    assert np.all(np.isfinite(new.lam_q))


# ----------------------------------------------------------------- phi


def test_update_phi_prior_only_when_no_signal():
    rng = np.random.default_rng(9)
    ds = Dataset(X=rng.normal(size=(3, 2)), y=np.array([0.4, 0.7, 1.0]),
                 delta=np.zeros(3, dtype=int), t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=10)
    lin = linearize(model, np.zeros(model.n_params), ctx.grid, ds)
    state = init_state(ctx, lin, np.zeros(model.n_params), 1.0)
    new = update_phi(replace(state, lam_q=np.zeros_like(state.lam_q)), ctx)
    assert new.alpha_tilde == 1.0
    assert new.beta_tilde == ctx.phi_rate


def test_update_phi_unit_rate_counts_time():
    # lambda^Q = 1: alpha~ = alpha0 + sum_i (delta_i + y_i)
    ctx, lin, _, state = _small_problem(seed=7)
    ds = ctx.dataset
    new = update_phi(replace(state, lam_q=np.ones_like(state.lam_q)), ctx)
    want = 1.0 + float(ds.delta.sum()) + float(ds.y_norm.sum())
    assert abs(new.alpha_tilde - want) < 1e-12


def test_update_phi_pinned_log_moment():
    # single censored subject observed for the whole horizon:
    # alpha~ = 2, beta~ = 3, E[log phi] = psi(2) - log 3
    ds = Dataset(X=np.zeros((1, 2)), y=np.array([1.0]),
                 delta=np.array([0]), t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=12)
    lin = linearize(model, np.zeros(model.n_params), ctx.grid, ds)
    state = init_state(ctx, lin, np.zeros(model.n_params), 1.0)
    assert abs(state.beta_tilde - 3.0) < 1e-12
    new = update_phi(replace(state, lam_q=np.ones_like(state.lam_q)), ctx)
    assert abs(new.alpha_tilde - 2.0) < 1e-12
    assert abs(new.e_log_phi - (-0.6758279535696433)) < 1e-10


def test_update_phi_leaves_beta_untouched():
    ctx, lin, _, state = _small_problem(seed=8)
    new = update_phi(state, ctx)
    assert new.beta_tilde == state.beta_tilde


# --------------------------------------------------------- linear algebra


def test_low_rank_factor_empty_is_prior():
    m = 7
    factor = LowRankFactor(U=np.zeros((m, 0)), C=np.zeros(0))
    assert factor.effective_rank == 0
    assert np.array_equal(factor.assemble_B(), 0.5 * np.eye(m))
    v = np.arange(1.0, 8.0)
    assert np.array_equal(factor.sigma_matvec(v), v)
    assert np.array_equal(factor.dense(), np.eye(m))
    assert np.array_equal(factor.diag(), np.ones(m))
    assert np.array_equal(factor.sqrt_matvec(v), v)


def _orthonormal(a):
    """Q of a thin QR: the orthonormal U that LowRankFactor takes."""
    return np.linalg.qr(a)[0]


def test_low_rank_factor_prunes_zero_weights():
    """Zero-weight columns count for nothing: not in effective_rank,
    not in Sigma~."""
    rng = np.random.default_rng(3)
    U = _orthonormal(rng.normal(size=(5, 4)))
    C = np.array([0.0, 1.3, 0.0, 0.4])
    factor = LowRankFactor(U=U, C=C)
    assert factor.effective_rank == 2
    kept = LowRankFactor(U=U[:, [1, 3]], C=C[[1, 3]])
    assert np.allclose(factor.dense(), kept.dense(), rtol=0, atol=1e-14)


def test_low_rank_factor_validation():
    with pytest.raises(InputError):
        LowRankFactor(U=np.zeros((3, 2)), C=np.zeros(3))
    with pytest.raises(NumericalError):
        LowRankFactor(U=np.zeros((3, 2)), C=np.array([1.0, -0.5]))
    with pytest.raises(NumericalError):
        LowRankFactor(U=np.zeros((3, 2)), C=np.array([1.0, np.nan]))
    with pytest.raises(NumericalError):
        LowRankFactor(U=np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]]),
                      C=np.ones(2))


def test_woodbury_matches_dense_inverse_120_30():
    rng = np.random.default_rng(120)
    U = _orthonormal(rng.normal(size=(120, 30)))
    C = 10.0 ** rng.uniform(-3, 1, size=30)
    factor = LowRankFactor(U=U, C=C)
    want = woodbury_dense_inverse(U, C)
    got = factor.dense()
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-13
    rhs = rng.normal(size=120)
    direct = np.linalg.solve(factor.assemble_B(), rhs)
    assert np.allclose(2.0 * factor.sigma_matvec(rhs), direct, rtol=1e-12,
                       atol=1e-13)


def test_woodbury_quad_diag_sqrt_consistent():
    """Every operation of the closed form against the materialized
    Sigma~, which is checked against the dense inverse to `tol`; the
    root L from sqrt_matvec(I) is symmetric with L L^T = Sigma~. The
    dense inverse of B, not the factor, limits `tol`: at weights
    spanning 1e-8..1e12 B's condition number is ~1e12, and inv(B) is
    good to about 2e-5."""
    rng = np.random.default_rng(7)
    cases = [  # (U, C, tol)
        (_orthonormal(rng.normal(size=(40, 12))),
         rng.uniform(0.1, 2.0, size=12), 1e-14),
        # a zero-weight column: it adds nothing to U C U^T
        (_orthonormal(rng.normal(size=(40, 9))),
         np.r_[rng.uniform(0.5, 2.0, size=8), 0.0], 1e-14),
        (_orthonormal(rng.normal(size=(40, 12))), np.logspace(-8, 12, 12),
         1e-4),
        # a point mass: Sigma~ = 1e-20 I and its root 1e-10 I
        (np.eye(40), np.full(40, 1e20), 1e-15),
    ]
    for U, C, tol in cases:
        factor = LowRankFactor(U=U, C=C)
        S = factor.dense()
        assert np.allclose(S, woodbury_dense_inverse(U, C), rtol=0, atol=tol)
        J = rng.normal(size=(9, 40))
        assert np.allclose(factor.quad_rows(J),
                           np.einsum("nm,nm->n", J @ S, J),
                           rtol=1e-13, atol=1e-14)
        assert np.allclose(factor.diag(), np.diag(S), rtol=1e-13, atol=1e-15)
        V = rng.normal(size=(40, 3))
        assert np.allclose(factor.sigma_matvec(V), S @ V, rtol=0, atol=1e-14)
        assert np.allclose(factor.sigma_matvec(V[:, 0]), S @ V[:, 0],
                           rtol=0, atol=1e-14)
        L = factor.sqrt_matvec(np.eye(40))
        assert np.allclose(L, L.T, rtol=0, atol=1e-15)
        assert np.allclose(factor.sqrt_matvec(V[:, 0]), L @ V[:, 0],
                           rtol=0, atol=1e-14)
        assert np.allclose(L @ L.T, S, rtol=0, atol=1e-14)
    # L of the last case, the point mass
    assert np.allclose(L, 1e-10 * np.eye(40), rtol=1e-6, atol=1e-15)


def test_low_rank_factor_exact_at_extreme_weights():
    """Orthonormal U (385, 119) with weights spanning 1e-8..1e12 against
    a reference built from a completed basis [U U_perp], in which
    Sigma~ has eigenvalues 1/(1+C) on U and 1 on U_perp: every
    operation agrees to rounding, whatever the weights' spread."""
    rng = np.random.default_rng(385)
    m, r = 385, 119
    Q = np.linalg.qr(rng.normal(size=(m, r)), mode="complete")[0]
    U = Q[:, :r]
    C = np.logspace(-8, 12, r)
    ev = np.r_[1.0 / (1.0 + C), np.ones(m - r)]
    S_ref = (Q * ev) @ Q.T
    L_ref = (Q * np.sqrt(ev)) @ Q.T
    factor = LowRankFactor(U=U, C=C)
    tol = 1e-12
    assert np.abs(factor.dense() - S_ref).max() < tol
    assert np.abs(factor.diag() - np.diag(S_ref)).max() < tol
    J = rng.normal(size=(20, m))
    want = np.einsum("nm,nm->n", J @ S_ref, J)
    assert np.all(np.abs(factor.quad_rows(J) - want) < tol * np.abs(want))
    V = rng.normal(size=(m, 3))
    assert np.abs(factor.sigma_matvec(V) - S_ref @ V).max() < tol
    assert np.abs(factor.sqrt_matvec(V) - L_ref @ V).max() < tol
    L = factor.sqrt_matvec(np.eye(m))
    assert np.abs(L - L.T).max() < 1e-15
    assert np.abs(L @ L.T - S_ref).max() < tol


def test_sigma_dense_operations():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(6, 6))
    S = A @ A.T + np.eye(6)
    sd = SigmaDense(S)
    J = rng.normal(size=(4, 6))
    assert np.allclose(sd.quad_rows(J), np.einsum("nm,nm->n", J @ S, J),
                       rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------- theta step


def _swept_weights(seed):
    """A problem one omega/psi step in, with its row weights b."""
    ctx, lin, _, state = _small_problem(seed=seed)
    state = update_psi(update_omega(state, ctx), ctx)
    b = row_coefficients(ctx, state.e_omega, state.lam_q, state.s_tilde)[1]
    return ctx, lin, state, b


def test_build_factor_censoring_partition():
    ctx, lin, state, b = _swept_weights(seed=11)
    ds = ctx.dataset
    # event rows of censored subjects carry exactly zero weight, so the
    # factor is the one of the rows that do
    assert np.all(b[:ds.n][ds.delta == 0] == 0.0)
    keep = b > 0
    Jk = lin.J[keep]
    want = 0.5 * (np.eye(ctx.model.n_params) + (Jk.T * b[keep]) @ Jk)
    assert np.allclose(build_factor(b, lin).assemble_B(), want,
                       rtol=0, atol=1e-12)


def test_build_factor_is_the_exact_inverse_in_the_singular_basis():
    ctx, lin, state, b = _swept_weights(seed=11)
    factor = build_factor(b, lin)
    # the theta update builds its factor from the same row weights
    swept = update_theta(state, lin, ctx).sigma
    assert np.array_equal(swept.U, factor.U)
    assert np.array_equal(swept.C, factor.C)
    m, r = ctx.model.n_params, lin.V.shape[1]
    assert r <= min(lin.J.shape)
    assert factor.U.shape == (m, r) and factor.C.shape == (r,)
    want = np.linalg.inv(np.eye(m) + (lin.J.T * b) @ lin.J)
    assert np.allclose(factor.dense(), want, rtol=0, atol=1e-12)


def test_update_theta_posterior_moments_valid():
    ctx, lin, _, state = _small_problem(seed=13)
    new = cavi_sweep(state, lin, ctx)
    gap = new.s_tilde**2 - new.m_tilde**2
    assert np.all(gap >= -1e-12)
    quad = new.sigma.quad_rows(lin.J)
    assert np.allclose(gap, quad, rtol=1e-8, atol=1e-10)
    eigs = np.linalg.eigvalsh(new.sigma.dense())
    assert eigs.min() > -1e-10


def test_update_theta_prior_recovery_with_zero_weights():
    # all factor weights zero: B = I/2, A = prior pull only
    ctx, lin, theta_map, state = _small_problem(seed=14)
    silent = replace(
        state,
        e_omega=np.zeros_like(state.e_omega),
        lam_q=np.zeros_like(state.lam_q),
    )
    hacked_ds = replace(ctx.dataset, delta=np.zeros(ctx.dataset.n, dtype=int))
    ctx0 = replace(ctx, dataset=hacked_ds)
    new = update_theta(silent, lin, ctx0)
    assert np.allclose(new.mu_tilde, 0.0, rtol=0, atol=1e-12)
    assert np.allclose(new.sigma.diag(), 1.0, rtol=0, atol=1e-12)


def test_cavi_sweep_matches_all_pairs_oracle():
    # the packed sweep against one over the full (N, K) grid, with the
    # network re-linearized at every pair and weight-masked sums; on a
    # net with m below and one with m above N + P, and on the wide net
    # at theta = 0, where J has rank 1 like a collapsed MAP fit
    for layers, scale in (((3, 4, 1), 0.3),     # m = 21
                          ((3, 32, 1), 0.3),    # m = 161
                          ((3, 32, 1), 0.0)):
        ctx, lin, theta_map, state = _small_problem(
            seed=18, layers=layers, theta_scale=scale)
        ds, grid = ctx.dataset, ctx.grid
        N, K = grid.weights.shape
        T_all = np.tile(grid.nodes, N)
        X_all = np.repeat(ds.X, K, axis=0)
        g_all, J_all = jacobian_batch(ctx.model, T_all, X_all, theta_map)
        base_grid = baseline_factor(ctx.prior, T_all)
        want = cavi_sweep_all_pairs(
            J_all.reshape(N, K, -1), g_all.reshape(N, K), lin.J[:N],
            lin.g[:N], theta_map, grid.weights, base_grid.reshape(N, K),
            ds.delta, ctx.prior.alpha0, state.alpha_tilde, state.beta_tilde)
        got = cavi_sweep(state, lin, ctx)
        r = np.linalg.matrix_rank(lin.J)
        assert lin.V.shape[1] == r and (scale > 0.0 or r == 1)
        live = grid.weights > 0
        close = dict(rtol=1e-12, atol=1e-12)
        for name in ("alpha_tilde", "e_log_phi", "mu_tilde", "c_tilde",
                     "e_omega"):
            assert np.allclose(getattr(got, name), want[name], **close), name
        assert np.allclose(got.lam_q, want["lam_q"][live], **close)
        for name in ("m", "s"):
            rows = getattr(got, f"{name}_tilde")
            assert np.allclose(rows[:N], want[f"{name}_event"], **close), name
            assert np.allclose(rows[N:], want[f"{name}_grid"][live],
                               **close), name
        assert np.allclose(got.sigma.dense(), want["sigma"], **close)


# ------------------------------------------------------------- full loop


def test_cavi_small_fit_converges(small_fit):
    cavi = small_fit.cavi
    assert cavi.converged
    assert cavi.n_iter < 1000
    assert cavi.rel_trace[-1] < 1e-6
    assert cavi.state.finite()
    assert cavi.state.alpha_tilde / cavi.state.beta_tilde > 0


def test_run_cavi_rejects_a_zero_iteration_cap():
    ctx, lin, theta_map, _ = _small_problem(seed=9)
    with pytest.raises(InputError, match="max_iter must be >= 1"):
        run_cavi(ctx, lin, theta_map, 1.2, max_iter=0)


def test_cavi_rerun_bit_identical(small_fit):
    a = small_fit.cavi
    b = run_cavi(small_fit.ctx, small_fit.lin, small_fit.em.theta_map,
                 small_fit.em.phi_map)
    assert a.n_iter == b.n_iter
    assert a.state.alpha_tilde == b.state.alpha_tilde
    assert np.array_equal(a.state.mu_tilde, b.state.mu_tilde)
    assert np.array_equal(a.state.c_tilde, b.state.c_tilde)
    assert np.array_equal(a.state.sigma.diag(), b.state.sigma.diag())


def test_cavi_extra_sweep_is_idempotent(small_fit):
    old = small_fit.cavi.state
    new = cavi_sweep(old, small_fit.lin, small_fit.ctx)
    denom = abs(old.alpha_tilde) + 1e-12
    assert abs(new.alpha_tilde - old.alpha_tilde) / denom < 1e-5
    dmu = np.max(np.abs(new.mu_tilde - old.mu_tilde))
    assert dmu / (np.max(np.abs(old.mu_tilde)) + 1e-12) < 1e-5
    dd = np.max(np.abs(new.sigma.diag() - old.sigma.diag()))
    assert dd / (np.max(old.sigma.diag()) + 1e-12) < 1e-5
    dc = np.max(np.abs(new.c_tilde - old.c_tilde))
    assert dc / (np.max(old.c_tilde) + 1e-12) < 1e-5


def test_cavi_beta_constant_across_sweeps():
    ctx, lin, theta_map, state = _small_problem(seed=16)
    betas = [state.beta_tilde]
    for _ in range(5):
        state = cavi_sweep(state, lin, ctx)
        betas.append(state.beta_tilde)
    assert all(b == betas[0] for b in betas)
    assert betas[0] == ctx.phi_rate


def test_run_cavi_trace_and_cap():
    ctx, lin, theta_map, _ = _small_problem(seed=17)
    res = run_cavi(ctx, lin, theta_map, 1.2, max_iter=3, tol=1e-14)
    assert not res.converged
    assert res.n_iter == 3
    assert len(res.rel_trace) == 3
