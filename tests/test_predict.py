"""Posterior predictive survival curves and credible bands."""

from types import SimpleNamespace

import numpy as np
import pytest

from sigsurv import predict
from sigsurv.cavi import LowRankFactor, SigmaDense
from sigsurv.errors import InputError
from sigsurv.hazard import BaselinePrior
from sigsurv.net import MlpModel, forward_batch, jacobian_batch
from sigsurv.numkit import RngStream
from sigsurv.predict import credible_band, mean_survival_matrix, sample_survival

from _oracles import predictive_per_subject


def _degenerate_posterior(phi0: float, m: int):
    # Gamma factor concentrated at phi0, Gaussian factor collapsed at 0
    return SimpleNamespace(
        alpha_tilde=phi0 * 1e10,
        beta_tilde=1e10,
        mu_tilde=np.zeros(m),
        sigma=SigmaDense(1e-20 * np.eye(m)),
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


def test_sample_survival_degenerate_exponential():
    # silent network, point-mass phi: S(t) = exp(-phi * t / t_max)
    model = MlpModel((3, 4, 1))
    post = _degenerate_posterior(1.7, model.n_params)
    times = np.linspace(0.0, 1.0, 21)
    ps = sample_survival(post, model, BaselinePrior(), np.zeros(model.n_params),
                         1.0, [0.3, -0.8], times, RngStream.from_seed(5),
                         n_draws=64)
    want = np.exp(-1.7 * times)
    assert np.allclose(ps.mean, want, rtol=0, atol=1e-3)
    assert np.allclose(ps.curves, want[None, :], rtol=0, atol=1e-3)


def test_sample_survival_shape_and_monotonicity(small_fit, root):
    times = np.linspace(0.0, small_fit.ds.t_max, 33)
    ps = sample_survival(x=small_fit.ds.X[0], times=times,
                         rng=root.child(4242), n_draws=100,
                         **_fit_args(small_fit))
    assert ps.curves.shape == (100, 33)
    assert ps.n_draws == 100
    assert np.all(ps.curves >= 0.0) and np.all(ps.curves <= 1.0)
    assert np.allclose(ps.curves[:, 0], 1.0, rtol=0, atol=0)
    assert np.all(np.diff(ps.curves, axis=1) <= 1e-12)
    for band in (ps.mean, ps.median, ps.lo, ps.hi):
        assert np.all(np.diff(band) <= 1e-12)
    assert np.all(ps.lo <= ps.median + 1e-12)
    assert np.all(ps.median <= ps.hi + 1e-12)
    assert ps.level == 0.9
    assert not ps.flagged_extrapolation


def test_sample_survival_grid_offset_consistency(small_fit, root):
    # integration always starts at t = 0 whether or not the grid includes it
    args = _fit_args(small_fit)
    t_hi = small_fit.ds.t_max
    full = sample_survival(x=small_fit.ds.X[1],
                           times=[0.0, 0.4 * t_hi, 0.8 * t_hi],
                           rng=RngStream.from_seed(88), n_draws=50, **args)
    tail = sample_survival(x=small_fit.ds.X[1],
                           times=[0.4 * t_hi, 0.8 * t_hi],
                           rng=RngStream.from_seed(88), n_draws=50, **args)
    assert np.allclose(full.curves[:, 1:], tail.curves, rtol=0, atol=1e-12)


def test_sample_survival_extrapolation_flagged(small_fit, root):
    times = [0.0, small_fit.ds.t_max * 1.5]
    with pytest.warns(RuntimeWarning, match="extrapolation"):
        ps = sample_survival(x=small_fit.ds.X[0], times=times,
                             rng=root.child(1), n_draws=30,
                             **_fit_args(small_fit))
    assert ps.flagged_extrapolation


def test_sample_survival_input_validation(small_fit, root):
    args = _fit_args(small_fit)
    x = small_fit.ds.X[0]
    with pytest.raises(InputError):
        sample_survival(x=x, times=[0.5, 0.5], rng=root.child(1),
                        n_draws=30, **args)
    with pytest.raises(InputError):
        sample_survival(x=x, times=[-0.1, 0.5], rng=root.child(1),
                        n_draws=30, **args)
    with pytest.raises(InputError):
        sample_survival(x=x, times=[], rng=root.child(1),
                        n_draws=30, **args)
    with pytest.raises(InputError):
        sample_survival(x=x, times=[0.1, 0.5], rng=root.child(1),
                        n_draws=1, **args)


def test_sample_survival_mean_stabilizes_with_draws(small_fit):
    args = _fit_args(small_fit)
    times = np.linspace(0.0, small_fit.ds.t_max, 17)
    a = sample_survival(x=small_fit.ds.X[2], times=times,
                        rng=RngStream.from_seed(303), n_draws=200, **args)
    b = sample_survival(x=small_fit.ds.X[2], times=times,
                        rng=RngStream.from_seed(909), n_draws=2000, **args)
    assert np.max(np.abs(a.mean - b.mean)) < 0.05


# ----------------------------------------------------------------- bands


def test_credible_band_degenerate_and_validation():
    curve = np.linspace(1.0, 0.2, 9)
    samples = np.tile(curve, (25, 1))
    lo, hi = credible_band(samples, 0.9)
    assert np.allclose(lo, curve, rtol=0, atol=0)
    assert np.allclose(hi, curve, rtol=0, atol=0)
    with pytest.raises(InputError):
        credible_band(samples, 1.0)
    with pytest.raises(InputError):
        credible_band(samples, 0.0)
    with pytest.raises(InputError):
        credible_band(samples[:19], 0.9)


def test_credible_band_coverage():
    rng = np.random.default_rng(1234)
    samples = rng.normal(size=(10000, 6))
    lo, hi = credible_band(samples, 0.9)
    inside = np.mean((samples >= lo[None, :]) & (samples <= hi[None, :]))
    assert 0.88 < inside < 0.92



@pytest.mark.parametrize("with_median", [False, True])
@pytest.mark.parametrize("axis", [0, -1])
def test_credible_band_is_bit_equal_to_numpys_quantile(axis, with_median):
    # draws rounded to a coarse lattice tie often; a NaN in a slice
    # reads NaN; levels cover both branches of numpy's lerp and the
    # virtual index at the last draw (1 - 1e-16 rounds q up to 1)
    rng = np.random.default_rng(77)
    draws = np.round(rng.normal(size=(4, 37, 23)), 1)
    draws[1, 5, 7] = np.nan
    draws = draws if axis == -1 else np.moveaxis(draws, -1, 0)
    for level in (0.9, 0.5, 0.37, 1 - 1e-16):
        a = 1.0 - level
        q = ([0.5] if with_median else []) + [a / 2.0, 1.0 - a / 2.0]
        got = credible_band(draws, level, axis=axis, with_median=with_median)
        want = np.quantile(draws, q, axis=axis)
        assert len(got) == len(q)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert np.isnan(got[0]).sum() == 1

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
    assert band.level == 0.9 and not band.flagged_extrapolation
    # identical covariates under shared draws give bit-identical curves
    assert np.array_equal(curves.values[0], curves.values[2])
    for arr in (band.median, band.lo, band.hi):
        assert np.array_equal(arr[0], arr[2])
    # the means are the one-subject posterior means under the same draws
    for i in range(3):
        ps = sample_survival(x=X[i], times=times, rng=root.child(777),
                             n_draws=n_draws, **args)
        assert np.array_equal(curves.values[i], ps.mean)
        assert np.array_equal(band.median[i], ps.median)
        assert np.array_equal(band.lo[i], ps.lo)
        assert np.array_equal(band.hi[i], ps.hi)


def test_mean_survival_matrix_single_row(small_fit, root):
    args = _fit_args(small_fit)
    times = np.linspace(0.0, small_fit.ds.t_max, 9)
    curves, band = mean_survival_matrix(X=small_fit.ds.X[0], times=times,
                                        rng=root.child(7), n_draws=40,
                                        **args)
    assert curves.values.shape == (1, 9)
    assert band.median.shape == band.lo.shape == band.hi.shape == (1, 9)


# ------------------------------------------- batched core vs per subject

# (5, 32, 32, 1) has m = 1281 parameters, so a chunk of a 65- or
# 66-point grid holds 3 subjects and 7 subjects split 3 + 3 + 1.
_WIDE = (5, 32, 32, 1)


def _wide_problem(seed):
    """A network far from silent and a posterior with a low-rank
    covariance, so every draw moves every subject's curve."""
    rng = RngStream.from_seed(seed)
    model = MlpModel(_WIDE)
    theta_map = model.random_theta(rng, scale=0.3)
    m = model.n_params
    post = SimpleNamespace(
        alpha_tilde=40.0, beta_tilde=30.0,
        mu_tilde=theta_map + 0.05 * rng.gen.standard_normal(m),
        sigma=LowRankFactor(U=rng.gen.standard_normal((m, 12)),
                            C=rng.gen.uniform(0.5, 2.0, size=12)),
    )
    X = rng.gen.standard_normal((7, 4))
    return model, theta_map, post, X


def _assert_matches_oracle(times, n_draws, level=0.9, t_max=2.5):
    model, theta_map, post, X = _wide_problem(31)
    tq_size = times.size + (times[0] > 0)
    assert predict._CHUNK_FLOATS // (tq_size * model.n_params) == 3
    assert tq_size * n_draws * model.n_params > _SMALL_GEMM

    curves, band = mean_survival_matrix(
        post, model, BaselinePrior(), theta_map, t_max, X, times,
        RngStream.from_seed(4), n_draws=n_draws, level=level)

    def g_and_J(tq, X_rep):
        return (forward_batch(model, tq, X_rep, theta_map),
                jacobian_batch(model, tq, X_rep, theta_map))

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
    _assert_matches_oracle(np.linspace(0.0, 2.5, 65), n_draws=60)


def test_mean_survival_matrix_matches_per_subject_oracle_few_draws():
    # below 20 draws the band is the draws' (min, max)
    _assert_matches_oracle(np.linspace(0.0, 2.5, 65), n_draws=19)


def test_mean_survival_matrix_matches_per_subject_oracle_without_zero():
    # integration starts at t = 0 even when the grid does not hold it
    _assert_matches_oracle(np.linspace(0.1, 2.5, 65), n_draws=40,
                           level=0.8)
