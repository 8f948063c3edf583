"""Posterior predictive survival curves and credible bands."""

import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sigsurv import predict
from sigsurv.cavi import LowRankFactor
from sigsurv.errors import InputError, NumericalError
from sigsurv.hazard import BaselinePrior
from sigsurv.net import MlpModel, jacobian_batch
from sigsurv.numkit import RngStream
from sigsurv.predict import credible_band, mean_survival_matrix

from _oracles import predictive_per_subject


def _degenerate_posterior(phi0: float, m: int):
    # Gamma factor concentrated at phi0, Gaussian factor collapsed at 0:
    # Sigma~ = 1e-20 I, whose root is about 1e-10 I
    return SimpleNamespace(
        alpha_tilde=phi0 * 1e10,
        beta_tilde=1e10,
        mu_tilde=np.zeros(m),
        sigma=LowRankFactor(U=np.eye(m), C=np.full(m, 1e20)),
    )


def _fit_args(small_fit):
    return dict(
        post=small_fit.cavi.state,
        model=small_fit.model,
        prior=small_fit.prior,
        theta_map=small_fit.em.theta_map,
        t_max=small_fit.ds.t_max,
    )


# --------------------------------------------------------------- sampling

# Below 20 draws the band is the draws' (min, max), so bounds that hold
# for every sampled curve are checked on the band.


def test_sample_survival_degenerate_exponential():
    # silent network, point-mass phi: S(t) = exp(-phi * t / t_max)
    model = MlpModel((3, 4, 1))
    post = _degenerate_posterior(1.7, model.n_params)
    times = np.linspace(0.0, 1.0, 21)
    curves, band = mean_survival_matrix(
        post, model, BaselinePrior(), np.zeros(model.n_params), 1.0,
        [[0.3, -0.8]], times, RngStream.from_seed(5), n_draws=19)
    want = np.exp(-1.7 * times)
    assert np.allclose(curves.values[0], want, rtol=0, atol=1e-3)
    for arr in (band.lo, band.hi):
        assert np.allclose(arr[0], want, rtol=0, atol=1e-3)


def test_sample_survival_shape_and_monotonicity(small_fit, root):
    times = np.linspace(0.0, small_fit.ds.t_max, 33)
    x = small_fit.ds.X[:1]
    _, span = mean_survival_matrix(X=x, times=times, rng=root.child(4242),
                                   n_draws=19, **_fit_args(small_fit))
    assert np.all(span.lo >= 0.0) and np.all(span.hi <= 1.0)
    assert np.array_equal(span.lo[:, 0], [1.0])
    assert np.array_equal(span.hi[:, 0], [1.0])
    curves, band = mean_survival_matrix(X=x, times=times,
                                        rng=root.child(4242), n_draws=100,
                                        **_fit_args(small_fit))
    assert curves.values.shape == band.lo.shape == (1, 33)
    for arr in (span.lo, span.hi, curves.values, band.median, band.lo,
                band.hi):
        assert np.all(np.diff(arr[0]) <= 1e-12)
    assert np.all(band.lo <= band.median + 1e-12)
    assert np.all(band.median <= band.hi + 1e-12)
    assert band.level == 0.9


def test_sample_survival_grid_offset_consistency(small_fit, root):
    # integration always starts at t = 0 whether or not the grid includes it
    args = _fit_args(small_fit)
    t_hi = small_fit.ds.t_max
    x = small_fit.ds.X[1:2]
    for n_draws in (19, 50):
        full = mean_survival_matrix(X=x, times=[0.0, 0.4 * t_hi, 0.8 * t_hi],
                                    rng=RngStream.from_seed(88),
                                    n_draws=n_draws, **args)
        tail = mean_survival_matrix(X=x, times=[0.4 * t_hi, 0.8 * t_hi],
                                    rng=RngStream.from_seed(88),
                                    n_draws=n_draws, **args)
        for a, b in ((full[0].values, tail[0].values),
                     (full[1].median, tail[1].median),
                     (full[1].lo, tail[1].lo), (full[1].hi, tail[1].hi)):
            assert np.allclose(a[:, 1:], b, rtol=0, atol=1e-12)


def test_sample_survival_extrapolation_flagged(small_fit, root):
    times = [0.0, small_fit.ds.t_max * 1.5]
    with pytest.warns(RuntimeWarning, match="extrapolation"):
        mean_survival_matrix(X=small_fit.ds.X[0], times=times,
                             rng=root.child(1), n_draws=30,
                             **_fit_args(small_fit))


def test_sample_survival_input_validation(small_fit, root, monkeypatch):
    # each bad input is rejected before any chunk is traced; a one-point
    # grid used to fail only after every chunk had run
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(predict, "jacobian_batch", no_chunk)
    args = _fit_args(small_fit)
    X = small_fit.ds.X
    for times in ([0.5, 0.5], [-0.1, 0.5], [], [0.5]):
        with pytest.raises(InputError):
            mean_survival_matrix(X=X, times=times, rng=root.child(1),
                                 n_draws=30, **args)
    with pytest.raises(InputError):
        mean_survival_matrix(X=X, times=[0.1, 0.5], rng=root.child(1),
                             n_draws=1, **args)
    for level in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(InputError, match="level"):
            mean_survival_matrix(X=X, times=[0.1, 0.5], rng=root.child(1),
                                 n_draws=30, level=level, workers=2, **args)


def test_sample_survival_mean_stabilizes_with_draws(small_fit):
    args = _fit_args(small_fit)
    times = np.linspace(0.0, small_fit.ds.t_max, 17)
    x = small_fit.ds.X[2]
    a, _ = mean_survival_matrix(X=x, times=times,
                                rng=RngStream.from_seed(303), n_draws=200,
                                **args)
    b, _ = mean_survival_matrix(X=x, times=times,
                                rng=RngStream.from_seed(909), n_draws=2000,
                                **args)
    assert np.max(np.abs(a.values - b.values)) < 0.05


# ----------------------------------------------------------------- bands


def test_credible_band_degenerate_and_validation():
    curve = np.linspace(1.0, 0.2, 9)
    samples = np.tile(curve[:, None], (1, 25))  # draws on the last axis
    for arr in credible_band(samples, 0.9):
        assert np.array_equal(arr, curve)
    with pytest.raises(InputError):
        credible_band(samples, 1.0)
    with pytest.raises(InputError):
        credible_band(samples, 0.0)
    with pytest.raises(InputError):
        credible_band(samples[:, :0], 0.9)
    # below 20 draws the band is the draws' (min, max)
    draws = np.random.default_rng(19).uniform(size=(9, 19))
    want = np.quantile(draws, [0.5, 0.0, 1.0], axis=-1)
    got = credible_band(draws, 0.9)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_credible_band_coverage():
    rng = np.random.default_rng(1234)
    samples = rng.normal(size=(6, 10000))
    _, lo, hi = credible_band(samples, 0.9)
    inside = np.mean((samples >= lo[:, None]) & (samples <= hi[:, None]))
    assert 0.88 < inside < 0.92


@pytest.mark.parametrize("with_nan", [False, True])
@pytest.mark.parametrize("draw_axis", [0, -1])
def test_credible_band_is_bit_equal_to_numpys_quantile(draw_axis, with_nan):
    # draws rounded to a coarse lattice tie often; a NaN in a slice
    # reads NaN; levels cover both branches of numpy's lerp and the
    # virtual index at the last draw (1 - 1e-16 rounds q up to 1).
    # Draws generated along axis 0 reach the band as a strided view.
    rng = np.random.default_rng(77)
    draws = np.round(rng.normal(size=(4, 37, 23)), 1)
    if draw_axis == 0:
        draws = np.moveaxis(np.moveaxis(draws, -1, 0).copy(), 0, -1)
    if with_nan:
        draws[1, 5, 7] = np.nan
    for level in (0.9, 0.5, 0.37, 1 - 1e-16):
        a = 1.0 - level
        got = credible_band(draws, level)
        want = np.quantile(draws, [0.5, a / 2.0, 1.0 - a / 2.0], axis=-1)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.isnan(got[0]).sum() == int(with_nan)

# ------------------------------------------------------- subject batches

# A BLAS may round the rows of a matrix product differently when the
# product is small: OpenBLAS switches to its small-matrix kernel at
# M * N * K <= 1e6 on some CPUs. The batched core's product has more
# rows than one subject's, so exact equality with the per-subject loop
# holds when one subject's product (Tq * draws * m) is above that size.
_SMALL_GEMM = 10**6


def test_mean_survival_matrix_common_draws(small_fit, root):
    args = _fit_args(small_fit)
    times = np.linspace(0.0, small_fit.ds.t_max, 25)
    X = np.vstack([small_fit.ds.X[0], small_fit.ds.X[3], small_fit.ds.X[0]])
    n_draws = 120  # one subject's product 25 * 120 * 385 > _SMALL_GEMM
    curves, band = mean_survival_matrix(X=X, times=times,
                                        rng=root.child(777),
                                        n_draws=n_draws, **args)
    assert curves.values.shape == (3, 25)
    assert np.array_equal(curves.times, np.asarray(times))
    for arr in (band.median, band.lo, band.hi):
        assert arr.shape == (3, 25)
    assert band.level == 0.9
    # identical covariates under shared draws give bit-identical curves
    assert np.array_equal(curves.values[0], curves.values[2])
    for arr in (band.median, band.lo, band.hi):
        assert np.array_equal(arr[0], arr[2])
    # each row is the one-subject result under the same draws
    for i in range(3):
        one, one_band = mean_survival_matrix(X=X[i:i + 1], times=times,
                                             rng=root.child(777),
                                             n_draws=n_draws, **args)
        assert np.array_equal(curves.values[i], one.values[0])
        assert np.array_equal(band.median[i], one_band.median[0])
        assert np.array_equal(band.lo[i], one_band.lo[0])
        assert np.array_equal(band.hi[i], one_band.hi[0])


def test_mean_survival_matrix_single_row(small_fit, root):
    args = _fit_args(small_fit)
    times = np.linspace(0.0, small_fit.ds.t_max, 9)
    curves, band = mean_survival_matrix(X=small_fit.ds.X[0], times=times,
                                        rng=root.child(7), n_draws=40,
                                        **args)
    assert curves.values.shape == (1, 9)
    assert band.median.shape == band.lo.shape == band.hi.shape == (1, 9)


# ------------------------------------------- batched core vs per subject

# (5, 32, 32, 1) has m = 1281 parameters, so with S <= 60 draws a chunk
# of an 81- or 82-point grid holds 3 subjects (Tq * (m + S) floats each
# of predict._CHUNK_FLOATS), and 7 subjects split 3 + 3 + 1.
_WIDE = (5, 32, 32, 1)
_WIDE_POINTS = 81


def _wide_problem(seed):
    """A network far from silent and a posterior with a low-rank
    covariance (orthonormal U, as CAVI makes it), so every draw moves
    every subject's curve."""
    rng = RngStream.from_seed(seed)
    model = MlpModel(_WIDE)
    theta_map = model.random_theta(rng, scale=0.3)
    m = model.n_params
    post = SimpleNamespace(
        alpha_tilde=40.0, beta_tilde=30.0,
        mu_tilde=theta_map + 0.05 * rng.gen.standard_normal(m),
        sigma=LowRankFactor(
            U=np.linalg.qr(rng.gen.standard_normal((m, 12)))[0],
            C=rng.gen.uniform(0.5, 2.0, size=12)),
    )
    X = rng.gen.standard_normal((7, 4))
    return model, theta_map, post, X


def _assert_matches_oracle(times, n_draws, level=0.9, t_max=2.5):
    model, theta_map, post, X = _wide_problem(31)
    tq_size = times.size + (times[0] > 0)
    per_subject = tq_size * (max(model.n_params, n_draws) + n_draws)
    assert predict._CHUNK_FLOATS // per_subject == 3
    assert tq_size * n_draws * model.n_params > _SMALL_GEMM

    curves, band = mean_survival_matrix(
        post, model, BaselinePrior(), theta_map, t_max, X, times,
        RngStream.from_seed(4), n_draws=n_draws, level=level)

    def g_and_J(tq, X_rep):
        return jacobian_batch(model, tq, X_rep, theta_map)

    mean, median, lo, hi = predictive_per_subject(
        post, g_and_J, 1.0, theta_map, t_max, X, times,
        RngStream.from_seed(4), n_draws, level)
    assert np.array_equal(curves.values, mean)
    assert np.array_equal(band.median, median)
    assert np.array_equal(band.lo, lo)
    assert np.array_equal(band.hi, hi)
    # the curves move between subjects and the band has width
    assert np.ptp(mean[:, -1]) > 1e-3
    assert np.all(hi[:, -1] - lo[:, -1] > 1e-3)
    return curves, band


def test_mean_survival_matrix_matches_per_subject_oracle_across_chunks():
    _assert_matches_oracle(np.linspace(0.0, 2.5, _WIDE_POINTS), n_draws=60)


def test_mean_survival_matrix_matches_per_subject_oracle_few_draws():
    # below 20 draws the band is the draws' (min, max)
    _assert_matches_oracle(np.linspace(0.0, 2.5, _WIDE_POINTS), n_draws=19)


def test_mean_survival_matrix_matches_per_subject_oracle_without_zero():
    # integration starts at t = 0 even when the grid does not hold it
    _assert_matches_oracle(np.linspace(0.1, 2.5, _WIDE_POINTS), n_draws=40,
                           level=0.8)


def test_mean_survival_matrix_matches_per_subject_oracle_more_draws_than_m():
    # S > m: the workspace's flat buffer is sized by the draws, and the
    # sigmoid and cumulative hazard fill more of it than J did; a chunk
    # of a 41-point grid at S = 1300 holds 3 subjects
    _assert_matches_oracle(np.linspace(0.0, 2.5, 41), n_draws=1300)


def test_chunk_trace_rows_are_subject_major(monkeypatch):
    # the network's last layer is a gemv whose tail rows sum in another
    # order, so g at a (t, x) row depends on the row's place in the
    # batch: the trace keeps every subject's times together, t fastest,
    # and time-major rows can move g in its last bits
    model, theta_map, post, X = _wide_problem(31)
    times = np.linspace(0.1, 2.5, _WIDE_POINTS)
    tq = predict._prep_times(times, 2.5)[1]
    real = predict.jacobian_batch
    calls = []

    def spy(model_, T, X_rows, theta, out=None):
        calls.append((T.copy(), X_rows.copy()))
        return real(model_, T, X_rows, theta, out=out)

    monkeypatch.setattr(predict, "jacobian_batch", spy)
    mean_survival_matrix(post, model, BaselinePrior(), theta_map, 2.5, X,
                         times, RngStream.from_seed(4), n_draws=20,
                         workers=1)
    assert [T.size for T, _ in calls] == [3 * tq.size, 3 * tq.size, tq.size]
    for (T, X_rows), start in zip(calls, (0, 3, 6)):
        B = T.size // tq.size
        assert np.array_equal(T, np.tile(tq, B))
        assert np.array_equal(X_rows,
                              np.repeat(X[start:start + B], tq.size, axis=0))


# ------------------------------------------------------------ worker pool

# _wide_problem's 7 subjects split into chunks of 3 + 3 + 1, so up to 3
# workers each get a chunk. The pool is sized from the CPU affinity
# mask; these tests pretend there are 3 CPUs so the threaded path runs
# on any host.


def _three_cpus(monkeypatch):
    monkeypatch.setattr(predict.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)


def _wide_call(times, n_draws, **kw):
    model, theta_map, post, X = _wide_problem(31)
    curves, band = mean_survival_matrix(
        post, model, BaselinePrior(), theta_map, 2.5, X, times,
        RngStream.from_seed(4), n_draws=n_draws, **kw)
    return np.stack([curves.values, band.median, band.lo, band.hi])


@pytest.mark.parametrize("n_draws", [19, 60])
def test_level_none_gives_the_means_alone(monkeypatch, n_draws):
    model, theta_map, post, X = _wide_problem(31)
    times = np.linspace(0.0, 2.5, _WIDE_POINTS)
    want = _wide_call(times, n_draws)

    def no_band(*args, **kwargs):
        raise AssertionError("a band was computed")

    monkeypatch.setattr(predict, "credible_band", no_band)
    monkeypatch.setattr(predict.np, "quantile", no_band)
    curves, band = mean_survival_matrix(
        post, model, BaselinePrior(), theta_map, 2.5, X, times,
        RngStream.from_seed(4), n_draws=n_draws, level=None, workers=2)
    assert band is None
    assert np.array_equal(curves.values, want[0])


def test_worker_count_is_bounded_by_cpus_workers_and_chunks(monkeypatch):
    monkeypatch.setattr(predict.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    assert predict._worker_count(None, 100) == 2
    assert predict._worker_count(3, 100) == 2
    assert predict._worker_count(1, 100) == 1
    assert predict._worker_count(None, 1) == 1
    # no affinity mask: the CPU count stands in for it
    monkeypatch.delattr(predict.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(predict.os, "cpu_count", lambda: 3)
    assert predict._worker_count(None, 2) == 2
    assert predict._worker_count(None, 100) == 3
    monkeypatch.setattr(predict.os, "cpu_count", lambda: None)
    assert predict._worker_count(None, 100) == 1


@pytest.mark.parametrize("n_draws", [19, 60])
@pytest.mark.parametrize("t0", [0.0, 0.1])
def test_mean_survival_matrix_is_invariant_to_worker_count(
        monkeypatch, t0, n_draws):
    _three_cpus(monkeypatch)
    pools = []
    real_pool = predict.ThreadPoolExecutor

    def counting_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(predict, "ThreadPoolExecutor", counting_pool)
    times = np.linspace(t0, 2.5, _WIDE_POINTS)
    want = _wide_call(times, n_draws, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        got = [_wide_call(times, n_draws, workers=k) for k in (2, 3)]
        got.append(_wide_call(times, n_draws))
    finally:
        sys.setswitchinterval(interval)
    # the calling thread is one of the workers, so a pool of k runs k - 1
    assert pools == [1, 2, 3, 3]
    for arr in got:
        assert np.array_equal(arr, want)


def test_one_subject_starts_no_pool(monkeypatch, small_fit, root):
    _three_cpus(monkeypatch)

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk call started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    curves, _ = mean_survival_matrix(
        X=small_fit.ds.X[0], times=np.linspace(0.0, small_fit.ds.t_max, 9),
        rng=root.child(7), n_draws=40, **_fit_args(small_fit))
    assert curves.values.shape == (1, 9)


def test_workers_must_be_positive(small_fit, root):
    with pytest.raises(InputError, match="workers"):
        mean_survival_matrix(X=small_fit.ds.X[0], times=[0.0, 1.0],
                             rng=root.child(1), n_draws=30, workers=0,
                             **_fit_args(small_fit))


def test_worker_exception_reraises_with_its_type(monkeypatch):
    _three_cpus(monkeypatch)
    model, theta_map, post, X = _wide_problem(31)
    real = predict.jacobian_batch

    def failing_on_second_chunk(model_, T, X_rows, theta, out=None):
        if np.array_equal(X_rows[0], X[3]):  # chunk 2 holds subjects 3..5
            raise NumericalError("chunk 2 failed")
        return real(model_, T, X_rows, theta, out=out)

    monkeypatch.setattr(predict, "jacobian_batch", failing_on_second_chunk)
    for workers in (1, 2, 3):
        with pytest.raises(NumericalError, match="chunk 2 failed"):
            mean_survival_matrix(post, model, BaselinePrior(), theta_map,
                                 2.5, X, np.linspace(0.0, 2.5, _WIDE_POINTS),
                                 RngStream.from_seed(4), n_draws=20,
                                 workers=workers)


@pytest.mark.parametrize("n_draws", [60, 4 * 1281])
def test_predictive_peak_is_the_workspaces_and_the_draws(monkeypatch,
                                                         n_draws):
    # two workers' workspaces within their budget, the result, and the
    # draws: the normal variates and the theta offsets, (m, S) each. No
    # chunk-sized array beyond the workspace: at S = 4 m the draws'
    # temporaries and the per-chunk arrays of an allocating chunk loop
    # exceed the bound.
    _three_cpus(monkeypatch)
    model, theta_map, post, X = _wide_problem(31)
    times = np.linspace(0.0, 2.5, 65)
    m = model.n_params
    tracemalloc.start()  # traces what is allocated from here on
    try:
        mean_survival_matrix(post, model, BaselinePrior(), theta_map, 2.5,
                             X, times, RngStream.from_seed(4),
                             n_draws=n_draws, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = 4 * X.shape[0] * times.size * 8
    assert peak < 2 * predict._CHUNK_FLOATS * 8 + out_bytes + 2 * m * n_draws * 8
