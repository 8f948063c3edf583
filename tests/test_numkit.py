"""Scalar kernels, quadrature grids, and seeded sampling utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigsurv.numkit import (
    RngStream,
    build_grid,
    digamma,
    log_gamma,
    pg_f,
    pg_mean,
    sigmoid,
)

from _oracles import digamma_euler_maclaurin, pg_series_draws, sigmoid_masked


# ------------------------------------------------------------- sigmoid


def test_sigmoid_at_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_pinned_values():
    # 50-digit Decimal reference, rounded to float
    assert abs(sigmoid(2.0) - 0.8807970779778824) < 1e-15
    assert abs(sigmoid(-0.7) - 0.3318122278318339) < 1e-15


def test_sigmoid_complement_symmetry():
    z = np.linspace(-40.0, 40.0, 201)
    s = sigmoid(z) + sigmoid(-z)
    assert np.all(np.abs(s - 1.0) < 1e-15)


def test_sigmoid_extreme_arguments_saturate_cleanly():
    with np.errstate(over="raise"):
        hi = sigmoid(np.array([800.0, 1e6]))
        lo = sigmoid(np.array([-800.0, -1e6]))
    assert np.all(hi == 1.0)
    assert np.all(lo == 0.0)


def test_sigmoid_monotone_and_bounded():
    rng = np.random.default_rng(11)
    z = np.sort(rng.normal(scale=8.0, size=500))
    s = sigmoid(z)
    assert np.all(np.diff(s) >= 0)
    assert np.all((s >= 0) & (s <= 1))


def test_sigmoid_vector_shape_and_scalar_type():
    out = sigmoid(np.zeros((3, 4)))
    assert out.shape == (3, 4)
    assert isinstance(sigmoid(1.2), float)


def test_sigmoid_bit_identical_to_masked_formula():
    rng = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 800.0, -800.0, 1e6, -1e6, 36.7, -36.7,
                      745.2, -745.2, 5e-324, -5e-324, np.inf, -np.inf,
                      np.nan, -np.nan])
    for z in (edges, rng.normal(scale=10.0, size=(40, 7)),
              np.linspace(-50.0, 50.0, 1001)):
        got, want = sigmoid(z), sigmoid_masked(z)
        assert got.shape == want.shape
        # compare bit patterns: NaNs and signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for z in (0.0, -0.0, 800.0, -800.0, 3.25, -3.25, np.nan):
        got, want = sigmoid(z), sigmoid_masked(z)
        assert isinstance(got, float)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


# ---------------------------------------------------------------- pg_f


def test_pg_f_at_zero_z_is_minus_log2():
    for omega in (0.0, 0.3, 2.0, 11.0):
        assert abs(pg_f(omega, 0.0) - (-math.log(2.0))) < 1e-15


def test_pg_f_pinned_value():
    # f(omega, z) = z/2 - omega z^2 / 2 - log 2 at omega=0.25, z=2
    want = 1.0 - 0.5 - math.log(2.0)
    assert abs(pg_f(0.25, 2.0) - want) < 1e-15


def test_pg_f_vectorizes():
    om = np.array([0.1, 0.2])
    z = np.array([1.0, -1.0])
    out = pg_f(om, z)
    want = 0.5 * z - 0.5 * om * z**2 - math.log(2.0)
    assert np.allclose(out, want, rtol=0, atol=1e-15)


# -------------------------------------------------------------- pg_mean


def test_pg_mean_at_c_zero():
    assert pg_mean(1.0, 0.0) == 0.25
    assert abs(pg_mean(3.0, 0.0) - 0.75) < 1e-15


def test_pg_mean_even_in_c():
    for c in (0.5, 2.0, 37.0):
        assert pg_mean(1.0, c) == pg_mean(1.0, -c)


def test_pg_mean_tanh_identity_sweep():
    # 2c * E[omega] = b tanh(c/2), checked across 12 decades of c
    rng = np.random.default_rng(5)
    c = 10.0 ** rng.uniform(-6, 3, size=400)
    b = rng.uniform(0.2, 4.0, size=400)
    lhs = 2.0 * c * pg_mean(b, c)
    rhs = b * np.tanh(c / 2.0)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(rhs), 1e-30))


def test_pg_mean_branch_agreement_at_cutoff():
    # Taylor branch (|c| below 1e-4) must meet the exact branch to 1e-10
    for c in (0.9999e-4, 1.0001e-4):
        exact = 1.0 / (2.0 * c) * math.tanh(c / 2.0)
        assert abs(pg_mean(1.0, c) - exact) < 1e-10


def test_pg_mean_matches_series_sampling_mc():
    # independent PG(1, c) sampler built from the infinite gamma series
    rng = np.random.default_rng(20260814)
    for c in (0.1, 1.0, 5.0):
        draws = pg_series_draws(rng, 1.0, c, n_draws=100_000, terms=2000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - pg_mean(1.0, c)) < 3.0 * se + 2e-5


def test_pg_mean_rejects_nonpositive_b():
    with pytest.raises(ValueError):
        pg_mean(0.0, 1.0)
    with pytest.raises(ValueError):
        pg_mean(-1.0, 1.0)


@given(st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_pg_mean_positive(c):
    assert pg_mean(1.0, c) > 0.0


# ------------------------------------------------- digamma / log_gamma


def test_digamma_known_points():
    assert abs(digamma(1.0) - (-0.5772156649015331)) < 1e-12
    assert abs(digamma(0.3) - (-3.5025242222001323)) < 1e-10


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    for x in np.linspace(0.1, 20.0, 120):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10


def test_digamma_matches_euler_maclaurin_oracle():
    for x in (0.5, 1.0, 2.0, 3.5, 11.7, 150.0):
        assert abs(digamma(x) - digamma_euler_maclaurin(x)) < 1e-10


def test_digamma_domain():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-2.5)


def test_log_gamma_factorial_and_oracle():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-12
    for x in (0.4, 1.0, 2.5, 7.0, 40.0):
        assert abs(log_gamma(x) - math.lgamma(x)) < 1e-12


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)


# ------------------------------------------------------ quadrature grid


def test_build_grid_three_node_hand_weights():
    # K=3 on [0, 1]: trapezoid weights (h/2, h, h/2) with h = 1/2
    grid = build_grid(np.array([1.0]), 3)
    assert np.array_equal(grid.nodes, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(grid.weights[0], [0.25, 0.5, 0.25], rtol=0, atol=1e-15)


def test_build_grid_integrates_linear_function():
    grid = build_grid(np.array([1.0]), 201)
    val = float((grid.weights[0] * grid.nodes).sum())
    assert abs(val - 0.5) < 1e-4


def test_build_grid_integrates_exponential():
    grid = build_grid(np.array([1.0]), 401)
    val = float((grid.weights[0] * np.exp(grid.nodes)).sum())
    assert abs(val - (math.e - 1.0)) < 1e-5


def test_build_grid_row_sums_equal_each_time():
    rng = np.random.default_rng(83)
    for _ in range(25):
        y = rng.uniform(0.05, 1.0, size=rng.integers(1, 12))
        K = int(rng.integers(2, 40))
        grid = build_grid(y, K)
        assert np.allclose(grid.weights.sum(axis=1), y, rtol=0, atol=1e-12)
        assert np.all(grid.weights >= 0)


def test_build_grid_weights_vanish_beyond_cutoff():
    y = np.array([0.3, 1.0])
    grid = build_grid(y, 11)
    cutoff = np.searchsorted(grid.nodes, y, side="right")  # K_i, 1-based
    for i in range(2):
        k = cutoff[i]
        assert np.all(grid.weights[i, k + 1:] == 0.0)
        if k + 1 < grid.n_nodes:
            assert grid.nodes[k] <= y[i] + 1e-12


def test_build_grid_node_coincident_time_counts_node():
    # y exactly on a grid node: that node carries weight
    grid = build_grid(np.array([0.5, 1.0]), 5)   # nodes 0, .25, .5, .75, 1
    assert grid.weights[0, 2] > 0.0
    assert grid.weights[0, 3] == 0.0


def test_build_grid_short_duration_first_cell():
    # y smaller than one grid step: all mass lands next to the origin
    grid = build_grid(np.array([0.01, 1.0]), 11)
    assert abs(grid.weights[0].sum() - 0.01) < 1e-15
    assert np.all(grid.weights[0, 2:] == 0.0)


def test_build_grid_integrate_matches_manual_contraction():
    rng = np.random.default_rng(7)
    y = rng.uniform(0.2, 1.0, size=6)
    grid = build_grid(y, 17)
    vals = rng.normal(size=17)
    want = [sum(grid.weights[i, k] * vals[k] for k in range(17))
            for i in range(6)]
    assert np.allclose(grid.weights @ vals, want, rtol=0, atol=1e-15)
    # the packed live pairs carry the same integrals
    subject, node = np.nonzero(grid.live_mask())
    packed = np.bincount(subject, weights=grid.weights[subject, node]
                         * vals[node], minlength=6)
    assert np.allclose(packed, want, rtol=0, atol=1e-15)


def test_build_grid_input_validation():
    with pytest.raises(ValueError):
        build_grid(np.array([]), 8)
    with pytest.raises(ValueError):
        build_grid(np.array([0.0, 1.0]), 8)
    with pytest.raises(ValueError):
        build_grid(np.array([-1.0]), 8)
    with pytest.raises(ValueError):
        build_grid(np.array([1.0]), 1)
    with pytest.raises(ValueError):
        build_grid(np.array([np.nan]), 8)


def test_grid_node_mask():
    # the live pairs are exactly the nodes inside each [0, y_i]
    y = np.array([0.3, 1.0, 0.05])
    grid = build_grid(y, 11)
    mask = grid.live_mask()
    assert mask.shape == (3, 11)
    assert np.array_equal(mask, grid.nodes[None, :] <= y[:, None])


# ------------------------------------------------------------ RngStream


def test_rngstream_same_seed_bit_identical():
    a = RngStream.from_seed(42).gen.normal(size=100)
    b = RngStream.from_seed(42).gen.normal(size=100)
    assert np.array_equal(a, b)


def test_rngstream_child_deterministic_and_disjoint():
    root = RngStream.from_seed(9)
    a = root.child(5).gen.normal(size=50)
    b = root.child(5).gen.normal(size=50)
    c = root.child(6).gen.normal(size=50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rngstream_child_does_not_disturb_parent():
    root = RngStream.from_seed(3)
    first = root.gen.normal()
    root2 = RngStream.from_seed(3)
    root2.child(1)
    root2.child(2)
    assert root2.gen.normal() == first
