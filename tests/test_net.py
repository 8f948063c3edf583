"""Feedforward network: forward pass, reverse-mode Jacobian, local
linearization, and the flat parameter layout."""

import numpy as np
import pytest

from sigsurv.errors import NumericalError
from sigsurv.net import (
    LinearizedModel,
    MlpModel,
    forward,
    forward_and_grad,
    forward_batch,
    grad_weighted_sum,
    jacobian,
    jacobian_batch,
    linearize,
    unflatten,
)

from _oracles import jacobian_central_fd, mlp_forward_naive


def _rand_point(rng, p):
    return float(rng.uniform(0, 1)), rng.normal(size=p)


# ------------------------------------------------------------ MlpModel


def test_model_param_count():
    model = MlpModel((3, 4, 1))
    assert model.n_params == (3 * 4 + 4) + (4 * 1 + 1)
    model = MlpModel((5, 16, 16, 1))
    assert model.n_params == (5 * 16 + 16) + (16 * 16 + 16) + (16 * 1 + 1)


def test_model_validation():
    with pytest.raises(ValueError):
        MlpModel((4,))
    with pytest.raises(ValueError):
        MlpModel((4, 0, 1))
    with pytest.raises(ValueError):
        MlpModel((4, 8, 2))


def test_random_theta_scale_zero_is_zero():
    from sigsurv.numkit import RngStream

    model = MlpModel((3, 4, 1))
    theta = model.random_theta(RngStream.from_seed(1), scale=0.0)
    assert np.all(theta == 0.0)
    assert theta.shape == (model.n_params,)


# ------------------------------------------------------------- forward


def test_forward_zero_theta_is_zero():
    model = MlpModel((4, 8, 8, 1))
    rng = np.random.default_rng(2)
    T = rng.uniform(0, 1, size=20)
    X = rng.normal(size=(20, 3))
    out = forward_batch(model, T, X, np.zeros(model.n_params))
    assert np.array_equal(out, np.zeros(20))


def test_forward_pinned_value_matches_naive_oracle():
    # frozen from the handwritten loop implementation
    model = MlpModel((3, 4, 1))
    theta = np.random.default_rng(604).normal(size=model.n_params)
    got = forward(model, 0.37, np.array([0.5, -1.2]), theta)
    assert abs(got - (-3.1788544767301854)) < 1e-12


def test_forward_sweep_matches_naive_oracle():
    rng = np.random.default_rng(31)
    for layer_sizes in [(2, 1), (3, 4, 1), (4, 8, 8, 1)]:
        model = MlpModel(layer_sizes)
        p = layer_sizes[0] - 1
        theta = rng.normal(size=model.n_params)
        for _ in range(10):
            t, x = _rand_point(rng, p)
            want = mlp_forward_naive(layer_sizes, theta, t, x)
            assert abs(forward(model, t, x, theta) - want) < 1e-10


def test_forward_batch_consistent_with_single():
    model = MlpModel((3, 5, 1))
    rng = np.random.default_rng(8)
    theta = rng.normal(size=model.n_params)
    T = rng.uniform(0, 1, size=9)
    X = rng.normal(size=(9, 2))
    batch = forward_batch(model, T, X, theta)
    singles = [forward(model, T[i], X[i], theta) for i in range(9)]
    assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def test_forward_linear_in_last_layer():
    # scaling the output layer's weights and bias scales g itself
    model = MlpModel((3, 6, 1))
    rng = np.random.default_rng(12)
    theta = rng.normal(size=model.n_params)
    params = [(W.copy(), b.copy()) for W, b in unflatten(model, theta)]
    params[-1] = (3.0 * params[-1][0], 3.0 * params[-1][1])
    theta_scaled = np.concatenate([np.r_[W.ravel(), b] for W, b in params])
    T = rng.uniform(0, 1, size=15)
    X = rng.normal(size=(15, 2))
    a = forward_batch(model, T, X, theta)
    b = forward_batch(model, T, X, theta_scaled)
    assert np.allclose(b, 3.0 * a, rtol=1e-13, atol=1e-13)


def test_forward_shape_validation():
    model = MlpModel((3, 4, 1))
    theta = np.zeros(model.n_params)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros(3), np.zeros((4, 2)), theta)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros(3), np.zeros((3, 5)), theta)
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros(3), np.zeros((3, 2)), np.zeros(7))


# ------------------------------------------------------------ jacobian


def test_jacobian_zero_theta_hits_only_output_bias():
    # with theta = 0 all hidden activations vanish, so the only nonzero
    # sensitivity is the output bias (last flat slot)
    model = MlpModel((4, 8, 8, 1))
    J = jacobian(model, 0.6, np.array([1.0, -2.0, 0.5]),
                 np.zeros(model.n_params))
    want = np.zeros(model.n_params)
    want[-1] = 1.0
    assert np.array_equal(J, want)
    assert np.linalg.norm(J) == 1.0


def test_jacobian_matches_central_differences():
    # >= 100 random (t, x, theta) triples across two architectures
    rng = np.random.default_rng(77)
    cases = [((4, 8, 8, 1), 60), ((3, 5, 1), 45)]
    checked = 0
    for layer_sizes, n_pts in cases:
        model = MlpModel(layer_sizes)
        p = layer_sizes[0] - 1
        for _ in range(n_pts):
            t, x = _rand_point(rng, p)
            theta = rng.normal(size=model.n_params)
            J = jacobian(model, t, x, theta)
            fd = jacobian_central_fd(
                lambda th: mlp_forward_naive(layer_sizes, th, t, x), theta
            )
            tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
            assert np.all(np.abs(J - fd) <= tol)
            checked += 1
    assert checked >= 100


def test_jacobian_batch_consistent_with_single():
    model = MlpModel((3, 6, 1))
    rng = np.random.default_rng(4)
    theta = rng.normal(size=model.n_params)
    T = rng.uniform(0, 1, size=7)
    X = rng.normal(size=(7, 2))
    g, JB = jacobian_batch(model, T, X, theta)
    assert np.array_equal(g, forward_batch(model, T, X, theta))
    assert JB.shape == (7, model.n_params)
    for i in range(7):
        assert np.allclose(JB[i], jacobian(model, T[i], X[i], theta),
                           rtol=0, atol=1e-13)


def test_jacobian_batch_writes_into_out():
    model = MlpModel((3, 6, 5, 1))
    rng = np.random.default_rng(9)
    theta = rng.normal(size=model.n_params)
    T = rng.uniform(0, 1, size=11)
    X = rng.normal(size=(11, 2))
    g, J = jacobian_batch(model, T, X, theta)
    buf = np.full((11, model.n_params), np.nan)
    g_out, J_out = jacobian_batch(model, T, X, theta, out=buf)
    assert J_out is buf
    assert np.array_equal(g_out, g) and np.array_equal(buf, J)


def test_rectifier_derivative_zero_at_kink():
    # pre-activation exactly zero: the convention relu'(0) = 0 means the
    # whole path through that unit contributes nothing
    model = MlpModel((2, 1, 1))
    # theta = [w_t, b1, v, c] layout: W1 (1x1... input dim 2 -> W1 is (1,2))
    theta = np.array([1.0, 0.0, -0.3, 2.0, 0.5])  # W1=[1,0], b1=-0.3, v=2, c=.5
    t, x = 0.3, np.array([7.7])
    assert forward(model, t, x, theta) == 0.5
    J = jacobian(model, t, x, theta)
    want = np.zeros(5)
    want[-1] = 1.0
    assert np.array_equal(J, want)
    # just above the kink the path is live
    J_up = jacobian(model, t + 1e-3, x, theta)
    assert J_up[0] != 0.0


def test_grad_weighted_sum_matches_contraction():
    model = MlpModel((4, 8, 1))
    rng = np.random.default_rng(19)
    theta = rng.normal(size=model.n_params)
    T = rng.uniform(0, 1, size=30)
    X = rng.normal(size=(30, 3))
    w = rng.normal(size=30)
    got = grad_weighted_sum(model, T, X, theta, w)
    want = jacobian_batch(model, T, X, theta)[1].T @ w
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_and_grad_matches_forward_then_weighted_sum():
    # weights computed from the traced output, as the M-step's
    # w = a - b g, against a separate forward pass and reverse pass
    model = MlpModel((3, 8, 8, 1))
    rng = np.random.default_rng(23)
    theta = rng.normal(size=model.n_params)
    T = rng.uniform(0, 1, size=40)
    X = rng.normal(size=(40, 2))
    a, b = rng.normal(size=40), rng.uniform(0, 1, size=40)
    g, grad = forward_and_grad(model, T, X, theta, lambda g: a - b * g)
    g_want = forward_batch(model, T, X, theta)
    grad_want = grad_weighted_sum(model, T, X, theta, a - b * g_want)
    assert np.allclose(g, g_want, rtol=1e-12, atol=1e-12)
    assert np.allclose(grad, grad_want, rtol=1e-12, atol=1e-12)
    assert np.allclose(grad, jacobian_batch(model, T, X, theta)[1].T
                       @ (a - b * g_want), rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        forward_and_grad(model, T, X, theta, lambda g: g[:-1])


@pytest.mark.parametrize("network_pass", [
    forward_batch,
    lambda *a: jacobian_batch(*a)[0],
    lambda *a: forward_and_grad(*a, lambda g: np.ones_like(g))[0],
], ids=["forward_batch", "jacobian_batch", "forward_and_grad"])
def test_nan_parameter_gives_nan_output_on_every_pass(network_pass):
    # a NaN in the first hidden bias reaches g on every pass: the
    # rectifier passes it through instead of zeroing it
    model = MlpModel((3, 4, 1))
    rng = np.random.default_rng(5)
    theta = rng.normal(size=model.n_params)
    theta[3 * 4] = np.nan
    T, X = rng.uniform(0, 1, size=6), rng.normal(size=(6, 2))
    assert np.all(np.isnan(network_pass(model, T, X, theta)))


# ------------------------------------------------- flat parameter layout


def test_flatten_unflatten_roundtrip_bit_exact():
    model = MlpModel((5, 16, 16, 1))
    theta = np.random.default_rng(3).normal(size=model.n_params)
    again = np.concatenate([np.r_[W.ravel(), b]
                            for W, b in unflatten(model, theta)])
    assert np.array_equal(theta, again)


def test_unflatten_shapes_and_layout():
    model = MlpModel((3, 4, 1))
    theta = np.arange(model.n_params, dtype=float)
    (W1, b1), (W2, b2) = unflatten(model, theta)
    assert W1.shape == (4, 3) and b1.shape == (4,)
    assert W2.shape == (1, 4) and b2.shape == (1,)
    # row-major within each weight block, weights before biases
    assert np.array_equal(W1[0], [0.0, 1.0, 2.0])
    assert np.array_equal(b1, [12.0, 13.0, 14.0, 15.0])


def test_unflatten_length_mismatch():
    model = MlpModel((3, 4, 1))
    with pytest.raises(ValueError):
        unflatten(model, np.zeros(model.n_params + 1))


# -------------------------------------------------------- linearization


def test_linearize_exact_at_reference(small_fit):
    lin = small_fit.lin
    theta_ref = small_fit.em.theta_map
    assert np.array_equal(lin.g_lin(theta_ref), lin.g)


def test_linearize_unit_direction_moves_by_jacobian_column(small_fit):
    lin = small_fit.lin
    theta_ref = small_fit.em.theta_map
    eps = 1e-3
    for j in (0, 17, theta_ref.size - 1):
        theta = theta_ref.copy()
        theta[j] += eps
        moved = lin.g_lin(theta) - lin.g
        want = eps * lin.J[:, j]
        assert np.max(np.abs(moved - want)) < 1e-12


def test_linearize_small_ball_gap(small_fit):
    # fresh network vs linear surrogate at ||dtheta|| = 0.01
    lin = small_fit.lin
    model, ctx = small_fit.model, small_fit.ctx
    theta_ref = small_fit.em.theta_map
    rng = np.random.default_rng(41)
    for _ in range(5):
        d = rng.normal(size=theta_ref.size)
        d *= 0.01 / np.linalg.norm(d)
        exact = forward_batch(model, ctx.inputs[:, 0], ctx.inputs[:, 1:],
                              theta_ref + d)
        gap = np.max(np.abs(lin.g_lin(theta_ref + d) - exact))
        assert gap < 1e-3


def test_linearize_shapes(small_fit):
    lin = small_fit.lin
    ds, ctx = small_fit.ds, small_fit.ctx
    m = small_fit.model.n_params
    n_live = int(np.count_nonzero(ctx.grid.weights > 0))
    assert 0 < n_live < ds.n * ctx.grid.n_nodes
    assert isinstance(lin, LinearizedModel)
    assert lin.n_event == ds.n
    assert lin.g.shape == (ds.n + n_live,)
    assert lin.J.shape == (ds.n + n_live, m)
    assert lin.J_grid.shape == (n_live, m)
    assert np.shares_memory(lin.J_grid, lin.J)


def test_linearize_keeps_the_jacobians_singular_basis(make_ctx):
    # a tall J (R > m), a wide J (m > R) and J at theta = 0, where only
    # the output bias moves g and J has rank 1; each against numpy's SVD
    tall = make_ctx(12, 7, layers=(5, 6, 1), n_nodes=8)
    wide = make_ctx(6, 7, layers=(5, 16, 16, 1), n_nodes=8)
    cases = [
        (tall, tall.model.random_theta(tall.root.child(1), scale=0.5)),
        (wide, wide.model.random_theta(wide.root.child(1), scale=0.5)),
        (wide, wide.model.zero_theta()),
    ]
    for c, theta in cases:
        lin = linearize(c.model, theta, c.ctx.grid, c.ds)
        R, m = lin.J.shape
        assert (R > m) == (c is tall)
        r = lin.V.shape[1]
        assert r == np.linalg.matrix_rank(lin.J)
        assert r == 1 if not theta.any() else r > 1
        _, s, Vt = np.linalg.svd(lin.J, full_matrices=False)
        assert np.allclose(np.linalg.norm(lin.JV, axis=0), s[:r],
                           rtol=0, atol=1e-12)
        assert np.allclose(lin.V @ lin.V.T, Vt[:r].T @ Vt[:r],
                           rtol=0, atol=1e-12)
        assert np.allclose(lin.V.T @ lin.V, np.eye(r), rtol=0, atol=1e-12)
        assert np.allclose(lin.J @ lin.V, lin.JV, rtol=0, atol=1e-12)
        assert np.allclose(lin.JV @ lin.V.T, lin.J, rtol=0, atol=1e-12)
        assert np.allclose(lin.offset + lin.J @ theta, lin.g,
                           rtol=0, atol=1e-12)


def test_linearize_rejects_an_overflowing_jacobian(make_ctx):
    c = make_ctx(6, 7, layers=(5, 4, 4, 1), n_nodes=8)
    with pytest.raises(NumericalError, match="overflows"), \
            np.errstate(over="ignore", invalid="ignore"):
        linearize(c.model, np.full(c.model.n_params, 1e200), c.ctx.grid,
                  c.ds)


def test_linearize_packed_rows_are_the_live_pairs_in_order(small_fit):
    # the first N rows of the caches are the network at (y_i, x_i); row
    # N + p is the network at the p-th pair with nonzero weight,
    # scanning subjects in order and nodes within each
    lin, ctx, ds = small_fit.lin, small_fit.ctx, small_fit.ds
    model, theta_ref = small_fit.model, small_fit.em.theta_map
    weights, nodes = ctx.grid.weights, ctx.grid.nodes
    points = [(ds.y_norm[i], i) for i in range(ds.n)]
    points += [(nodes[k], i) for i in range(ds.n)
               for k in range(ctx.grid.n_nodes) if weights[i, k] != 0.0]
    for r, (t, i) in enumerate(points):
        J = jacobian(model, t, ds.X[i], theta_ref)
        g = forward(model, t, ds.X[i], theta_ref)
        assert np.allclose(lin.J[r], J, rtol=1e-13, atol=1e-13)
        assert abs(lin.g[r] - g) <= 1e-13 * max(1.0, abs(g))
    assert len(points) == lin.J.shape[0]
