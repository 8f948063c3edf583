"""Hazard layer: normalizer, baseline, likelihood, prior, and the
marked-point-process sampler behind the augmented model."""

import math

import numpy as np
import pytest

from sigsurv.data import Dataset
from sigsurv.errors import InputError, NumericalError
from sigsurv.hazard import (
    BaselinePrior,
    baseline_factor,
    build_context,
    log_likelihood,
    log_posterior,
    log_prior,
    normalizer_Z,
    sample_marked_pp_batch,
    sample_pg_series,
)
from sigsurv.net import MlpModel
from sigsurv.numkit import RngStream, pg_f, pg_mean, sigmoid

from _oracles import fine_grid_loglik


def _bias_only_theta(model, value):
    theta = np.zeros(model.n_params)
    theta[-1] = value
    return theta


def _toy_ds(y, delta, p=2, t_max=None, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(len(y), p))
    return Dataset(X=X, y=np.asarray(y, dtype=float),
                   delta=np.asarray(delta, dtype=int), t_max=t_max)


# ------------------------------------------------------- BaselinePrior


def test_prior_validation():
    BaselinePrior(alpha0=1.0, beta0=1.0, rho=1.0)
    for bad in [dict(alpha0=0.0), dict(beta0=-1.0), dict(rho=0.0)]:
        with pytest.raises(InputError):
            BaselinePrior(**bad)


# ----------------------------------------------------------- normalizer


def test_normalizer_is_half_at_zero_reference():
    # g(.; 0) = 0 for every architecture, so the closed form gives 1/2
    for layers in [(3, 4, 1), (5, 16, 16, 1), (2, 1)]:
        model = MlpModel(layers)
        T = np.linspace(0.0, 1.0, 9)
        X = np.zeros((9, layers[0] - 1))
        Z = normalizer_Z(model, T, X)
        assert np.array_equal(Z, np.full(9, 0.5))


def test_normalizer_matches_prior_mc_single_unit():
    # (1, 1) network: g = w t + b with (w, b) ~ N(0, I)
    model = MlpModel((2, 1))
    rng = np.random.default_rng(13)
    wb = rng.standard_normal((1_000_000, 2))
    for t in (0.1, 0.5, 1.0):
        mc = sigmoid(wb[:, 0] * t + wb[:, 1]).mean()
        Z = float(normalizer_Z(model, np.array([t]), np.zeros((1, 1)))[0])
        assert abs(Z - mc) < 0.01


def test_baseline_factor_constant_shape():
    model = MlpModel((3, 4, 1))
    T = np.linspace(0.0, 1.0, 6)
    X = np.zeros((6, 2))
    base = baseline_factor(model, BaselinePrior(rho=1.0), T, X)
    assert np.allclose(base, 2.0, rtol=0, atol=1e-14)
    base2 = baseline_factor(model, BaselinePrior(rho=2.0), T, X)
    # t = 0 is floored to 1e-12 before the power, hence the 5e-12 slack
    assert np.allclose(base2, 2.0 * T, rtol=0, atol=5e-12)


# -------------------------------------------------------- build_context


def test_build_context_dimensions_and_constants():
    ds = _toy_ds([0.4, 0.9, 1.0], [1, 0, 1], t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=16)
    assert ctx.grid.n_nodes == 16
    # one row per live (subject, node) pair, subject-major
    subject, node = np.nonzero(ctx.grid.weights > 0)
    assert 0 < subject.size < 3 * 16
    assert np.array_equal(ctx.t_live, ctx.grid.nodes[node])
    assert np.array_equal(ctx.x_live, ds.X[subject])
    assert np.array_equal(ctx.w_live, ctx.grid.weights[subject, node])
    # t^(rho-1) / Z with Z = 1/2 is the constant 2
    assert np.array_equal(ctx.base_live, np.full(subject.size, 2.0))
    assert np.array_equal(ctx.base_event, np.full(3, 2.0))
    # integral of the constant baseline over [0, y_i] is 2 * y_i
    want_rate = 1.0 + float((2.0 * ds.y_norm).sum())
    assert abs(ctx.phi_rate - want_rate) < 1e-12


def test_build_context_rejects_wrong_width():
    ds = _toy_ds([0.5], [1], p=3)
    with pytest.raises(InputError):
        build_context(MlpModel((3, 4, 1)), BaselinePrior(), ds, n_nodes=8)


# ------------------------------------------------------- log likelihood


def test_loglik_all_events_constant_hazard():
    ds = _toy_ds([0.3, 0.6, 1.0], [1, 1, 1], t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=401)
    theta = np.zeros(model.n_params)
    for phi in (0.5, 1.0, 4.0):
        want = sum(math.log(phi) - phi * t for t in [0.3, 0.6, 1.0])
        assert abs(log_likelihood(ctx, phi, theta) - want) < 1e-6


def test_loglik_all_censored_constant_hazard():
    ds = _toy_ds([0.3, 0.6, 1.0], [0, 0, 0], t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=101)
    val = log_likelihood(ctx, 2.0, np.zeros(model.n_params))
    assert abs(val - (-2.0 * 1.9)) < 1e-9


def test_loglik_decreasing_in_phi_when_all_censored():
    ds = _toy_ds([0.2, 0.5, 0.8, 1.0], [0, 0, 0, 0], t_max=1.0, seed=5)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=64)
    theta = np.random.default_rng(7).normal(size=model.n_params)
    vals = [log_likelihood(ctx, phi, theta) for phi in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]


def test_loglik_matches_fine_grid_oracle():
    layers = (2, 2, 1)
    model = MlpModel(layers)
    rng = np.random.default_rng(23)
    y = np.array([0.31, 0.55, 0.72, 0.9, 1.0])
    delta = np.array([1, 0, 1, 1, 0])
    X = rng.normal(size=(5, 1))
    ds = Dataset(X=X, y=y, delta=delta, t_max=1.0)
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=2001)
    theta = rng.normal(size=model.n_params)
    got = log_likelihood(ctx, 1.4, theta)
    want = fine_grid_loglik(layers, theta, 1.4, 1.0, lambda t, x: 0.5,
                            y, delta, X, n_fine=100_000)
    assert abs(got - want) < 1e-5


def test_loglik_reports_underflow_indices():
    ds = _toy_ds([0.4, 0.6, 0.9], [1, 0, 1], t_max=1.0)
    model = MlpModel((3, 4, 1))
    ctx = build_context(model, BaselinePrior(), ds, n_nodes=32)
    theta = _bias_only_theta(model, -800.0)   # sigmoid underflows to 0
    with pytest.raises(NumericalError) as exc:
        log_likelihood(ctx, 1.0, theta)
    assert "0" in str(exc.value) and "2" in str(exc.value)


# --------------------------------------------------- prior and posterior


def test_log_prior_closed_form():
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior(alpha0=2.0, beta0=3.0, rho=1.0)
    theta = np.random.default_rng(3).normal(size=model.n_params)
    phi = 1.7
    m = model.n_params
    want = (2.0 * math.log(3.0) - math.lgamma(2.0)
            + (2.0 - 1.0) * math.log(phi) - 3.0 * phi
            - 0.5 * float(theta @ theta) - 0.5 * m * math.log(2 * math.pi))
    assert abs(log_prior(model, prior, phi, theta) - want) < 1e-12
    with pytest.raises(InputError):
        log_prior(model, prior, 0.0, theta)


def test_log_posterior_is_sum():
    ds = _toy_ds([0.5, 0.8], [1, 0], t_max=1.0)
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior()
    ctx = build_context(model, prior, ds, n_nodes=32)
    theta = np.random.default_rng(4).normal(size=model.n_params) * 0.3
    lp = log_posterior(ctx, 1.2, theta)
    want = log_likelihood(ctx, 1.2, theta) + log_prior(model, prior, 1.2, theta)
    assert abs(lp - want) < 1e-12


# ------------------------------------------------- augmentation sampler


def test_pg_series_sampler_means():
    root = RngStream.from_seed(77)
    d0 = sample_pg_series(root.child(0), 1.0, 0.0, size=40_000, terms=2000)
    se = d0.std(ddof=1) / math.sqrt(d0.size)
    assert abs(d0.mean() - 0.25) < 3 * se + 3e-5
    d1 = sample_pg_series(root.child(1), 2.0, 1.0, size=40_000, terms=2000)
    se = d1.std(ddof=1) / math.sqrt(d1.size)
    assert abs(d1.mean() - pg_mean(2.0, 1.0)) < 3 * se + 3e-5
    assert np.all(d0 > 0)


def test_marked_pp_count_mean():
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior()
    root = RngStream.from_seed(31)
    x = np.array([0.2, -0.4])
    times, omegas, counts = sample_marked_pp_batch(
        model, prior, 1.3, 0.8, x, root.child(0), 10_000,
        n_grid=1024, pg_terms=400,
    )
    want = 2.0 * 1.3 * 0.8      # constant intensity phi * base over [0, y]
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - want) < 3 * se
    assert counts.sum() == times.size == omegas.size


def test_marked_pp_marks_are_pg_one_zero_at_silent_network():
    # theta* = 0 makes every mark PG(1, |g|) = PG(1, 0)
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior()
    root = RngStream.from_seed(32)
    _, omegas, _ = sample_marked_pp_batch(
        model, prior, 2.0, 1.0, np.zeros(2), root.child(0), 8_000,
        n_grid=512, pg_terms=400,
    )
    se = omegas.std(ddof=1) / math.sqrt(omegas.size)
    assert abs(omegas.mean() - 0.25) < 3 * se + 3e-5


def test_marked_pp_exponential_functional_constant_g():
    # E[prod exp f(omega_j, -g)] = exp(-int lambda0 sigma(g)) for g = 0.3
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior()
    theta = _bias_only_theta(model, 0.3)
    phi, y = 0.5, 1.0
    root = RngStream.from_seed(33)
    times, omegas, counts = sample_marked_pp_batch(
        model, prior, phi, y, np.zeros(2), root.child(0), 100_000,
        n_grid=1024, pg_terms=400,
    )
    logf = pg_f(omegas, -0.3)
    ends = np.cumsum(counts)
    starts = ends - counts
    csum = np.concatenate([[0.0], np.cumsum(logf)])
    mc = np.exp(csum[ends] - csum[starts]).mean()
    exact = math.exp(-2.0 * phi * y * sigmoid(0.3))
    assert abs(mc - exact) < 0.01 * exact


def test_marked_pp_single_and_determinism():
    model = MlpModel((3, 4, 1))
    prior = BaselinePrior()
    root = RngStream.from_seed(34)
    t1, om1, n1 = sample_marked_pp_batch(model, prior, 1.0, 0.7, np.zeros(2),
                                         root.child(9), n_rep=1)
    t2, om2, n2 = sample_marked_pp_batch(model, prior, 1.0, 0.7, np.zeros(2),
                                         root.child(9), n_rep=1)
    assert np.array_equal(t1, t2) and np.array_equal(om1, om2)
    assert n1.shape == (1,) and np.array_equal(n1, n2)
    assert t1.shape == om1.shape == (int(n1[0]),)
    assert np.all((t1 >= 0) & (t1 <= 0.7))
