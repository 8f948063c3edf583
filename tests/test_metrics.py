"""Concordance, IPCW Brier score, and censoring-survival weights."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sigsurv import metrics
from sigsurv.data import Dataset
from sigsurv.errors import InputError, NumericalError
from sigsurv.metrics import (
    KmCensorCurve,
    SurvivalCurves,
    c_index,
    ipcw_brier,
    ipcw_ibs,
    km_censor,
)

from _oracles import (brier_brute, brier_node, c_index_brute, c_index_dense,
                      ibs_brute, ibs_node_loop, km_censor_loop, km_eval,
                      km_product_limit)


def _dataset(y, delta, p=2, seed=0):
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.normal(size=(y.size, p)), y=y,
                   delta=np.asarray(delta, dtype=int), t_max=float(y.max()))


def _random_curves(n, seed, t_hi=5.0, n_t=12):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, t_hi, n_t)
    vals = np.cumprod(rng.uniform(0.7, 0.999, size=(n, n_t)), axis=1)
    return SurvivalCurves(times=grid, values=vals)


# ---------------------------------------------------------------- curves


def test_survival_curves_interpolation_and_clamp():
    sc = SurvivalCurves(times=[1.0, 2.0, 3.0], values=[[1.0, 0.5, 0.25]])
    assert sc.n == 1
    got = sc.at([0.5, 1.0, 1.5, 2.0, 3.0, 10.0])[0]
    assert np.allclose(got, [1.0, 1.0, 0.75, 0.5, 0.25, 0.25], rtol=0, atol=0)


def test_survival_curves_validation():
    with pytest.raises(InputError):
        SurvivalCurves(times=[1.0], values=[[0.5]])
    with pytest.raises(InputError):
        SurvivalCurves(times=[2.0, 1.0], values=[[1.0, 0.5]])
    with pytest.raises(InputError):
        SurvivalCurves(times=[1.0, 2.0], values=[[1.0, 0.5, 0.2]])


# ------------------------------------------------------------- concordance


def test_c_index_perfectly_ordered():
    y = [1.0, 2.0, 3.0, 4.0]
    ds = _dataset(y, [1, 1, 1, 1])
    grid = np.linspace(0.0, 5.0, 26)
    rates = np.array([2.0, 1.2, 0.7, 0.3])
    sc = SurvivalCurves(times=grid, values=np.exp(-rates[:, None] * grid))
    assert c_index(sc, ds) == 1.0
    # reversing the rate assignment makes every pair discordant
    sc_rev = SurvivalCurves(times=grid,
                            values=np.exp(-rates[::-1, None] * grid))
    assert c_index(sc_rev, ds) == 0.0


def test_c_index_identical_curves_is_half():
    ds = _dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 1, 1, 0])
    grid = np.linspace(0.0, 6.0, 9)
    sc = SurvivalCurves(times=grid,
                        values=np.tile(np.exp(-0.4 * grid), (5, 1)))
    assert c_index(sc, ds) == 0.5


def test_c_index_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(5):
        n = 20
        y = rng.integers(1, 8, size=n).astype(float)  # forces ties in y
        delta = rng.integers(0, 2, size=n)
        delta[0] = 1
        ds = _dataset(y, delta, seed=trial)
        sc = _random_curves(n, seed=100 + trial, t_hi=8.0)
        A = sc.at(y)  # A[j, i] = S_j(y_i)
        want = c_index_brute(A.T, y, delta)
        assert c_index(sc, ds) == want


def _tied_problem(n, seed):
    """n subjects with tied times (censorings among the events at each
    time) and curves rounded to 2 digits, the first fifth identical."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 40, size=n).astype(float)
    delta = rng.integers(0, 2, size=n)
    vals = np.cumprod(rng.uniform(0.8, 1.0, size=(n, 20)), axis=1)
    vals[: n // 5] = vals[0]
    sc = SurvivalCurves(times=np.linspace(0.0, 45.0, 20),
                        values=np.round(vals, 2))
    return _dataset(y, delta, seed=seed), sc


def test_c_index_equals_the_dense_formula():
    ds, sc = _tied_problem(2500, seed=41)
    b = metrics._BLOCK_FLOATS // ds.n
    assert ds.n_events > 10 * b  # many blocks
    assert c_index(sc, ds) == c_index_dense(sc, ds.y, ds.delta)


@pytest.mark.parametrize("b", [1, 7, 40])
def test_c_index_blocks_match_brute_force(monkeypatch, b):
    # b = 7 leaves a partial last block of the 20 events
    monkeypatch.setattr(metrics, "_BLOCK_FLOATS", 40 * b)
    rng = np.random.default_rng(88)
    y = rng.integers(1, 9, size=40).astype(float)
    delta = (np.arange(40) % 9 < 4).astype(int)
    assert delta.sum() == 20
    ds = _dataset(y, delta)
    sc = _random_curves(40, seed=89, t_hi=9.0)
    A = sc.at(y)
    assert c_index(sc, ds) == c_index_brute(A.T, y, delta)


def test_c_index_memory_is_bounded():
    ds, sc = _tied_problem(2000, seed=43)
    tracemalloc.start()
    try:
        c_index(sc, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # the dense formula's (2000, 2000) arrays need ~134 MB


def test_c_index_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    n = 15
    y = rng.uniform(0.5, 4.5, size=n)
    delta = rng.integers(0, 2, size=n)
    delta[:2] = 1
    ds = _dataset(y, delta)
    sc = _random_curves(n, seed=6)
    squared = SurvivalCurves(times=sc.times, values=sc.values**2)
    assert c_index(squared, ds) == c_index(sc, ds)


def test_c_index_rejects_degenerate_input():
    ds = _dataset([1.0, 2.0, 3.0], [0, 0, 0])
    sc = _random_curves(3, seed=1)
    with pytest.raises(InputError):
        c_index(sc, ds)  # no events, no comparable pairs
    ds2 = _dataset([1.0, 2.0], [1, 1])
    with pytest.raises(InputError):
        c_index(sc, ds2)  # three curves, two subjects


# -------------------------------------------------------- censor weights


def test_km_censor_no_censoring_is_one():
    ds = _dataset([1.0, 2.0, 3.0], [1, 1, 1])
    cc = km_censor(ds)
    assert np.all(cc.surv == 1.0)
    assert np.all(cc.eval([0.0, 1.5, 99.0]) == 1.0)


def test_km_censor_single_step():
    ds = _dataset([1.0, 2.0, 3.0], [1, 0, 1])
    cc = km_censor(ds)
    assert np.allclose(cc.eval([1.9, 2.0, 2.5]), [1.0, 0.5, 0.5],
                       rtol=0, atol=0)
    assert cc.eval_left([2.0])[0] == 1.0


def test_km_censor_matches_product_limit_oracle():
    rng = np.random.default_rng(31)
    y = rng.integers(1, 7, size=10).astype(float)
    delta = rng.integers(0, 2, size=10)
    ds = _dataset(y, delta)
    cc = km_censor(ds)
    jt, js = km_product_limit(y, 1 - delta)
    for t in np.linspace(0.0, 7.5, 40):
        assert abs(cc.eval([t])[0] - km_eval(jt, js, t)) < 1e-14
        assert abs(cc.eval_left([t])[0] - km_eval(jt, js, t, left=True)) < 1e-14


def test_km_censor_equals_the_loop():
    ds, _ = _tied_problem(2000, seed=45)
    assert np.any([(ds.delta[ds.y == u] == 0).any()
                   and (ds.delta[ds.y == u] == 1).any()
                   for u in np.unique(ds.y)])  # censorings at event times
    cc = km_censor(ds)
    times, surv = km_censor_loop(ds.y, ds.delta)
    assert np.array_equal(cc.times, times)
    assert np.array_equal(cc.surv, surv)


# ------------------------------------------------------------ Brier score


def test_brier_constant_half_no_censoring():
    ds = _dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
    grid = np.linspace(0.0, 4.0, 5)
    sc = SurvivalCurves(times=grid, values=np.full((4, 5), 0.5))
    cc = km_censor(ds)
    for t in [0.5, 1.0, 2.7, 3.5]:
        assert ipcw_brier(sc, ds, t, cc) == 0.25
    assert ipcw_ibs(sc, ds, np.linspace(0.1, 3.9, 17), cc) == 0.25


def test_brier_rewards_sharp_predictions():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    ds = _dataset(y, [1, 1, 1, 1])
    grid = np.linspace(0.0, 5.0, 101)
    # near-oracle step curves dropping at each subject's own time
    steep = 1.0 / (1.0 + np.exp(25.0 * (grid[None, :] - y[:, None])))
    sharp = SurvivalCurves(times=grid, values=steep)
    flat = SurvivalCurves(times=grid, values=np.full((4, 101), 0.5))
    cc = km_censor(ds)
    t = 2.5
    assert ipcw_brier(sharp, ds, t, cc) < 0.02
    assert ipcw_brier(sharp, ds, t, cc) < ipcw_brier(flat, ds, t, cc)


def test_brier_matches_brute_force():
    rng = np.random.default_rng(17)
    n = 15
    y = np.round(rng.uniform(0.5, 6.0, size=n), 2)
    delta = rng.integers(0, 2, size=n)
    delta[np.argmax(y)] = 1  # keep the censor curve positive on the range
    ds = _dataset(y, delta)
    sc = _random_curves(n, seed=18, t_hi=7.0)
    cc = km_censor(ds)
    for t in [0.8, 2.0, 3.3, 5.0]:
        want = brier_brute(sc.at([t])[:, 0], y, delta, t)
        assert abs(ipcw_brier(sc, ds, t, cc) - want) < 1e-12
    grid = np.linspace(0.3, 5.5, 21)
    want_ibs = ibs_brute(sc.at(grid), grid, y, delta)
    assert abs(ipcw_ibs(sc, ds, grid, cc) - want_ibs) < 1e-10


def test_brier_permutation_invariant():
    rng = np.random.default_rng(9)
    n = 12
    y = rng.uniform(0.5, 5.0, size=n)
    delta = rng.integers(0, 2, size=n)
    delta[np.argmax(y)] = 1
    X = rng.normal(size=(n, 2))
    sc = _random_curves(n, seed=10)
    perm = rng.permutation(n)
    ds = Dataset(X=X, y=y, delta=delta, t_max=float(y.max()))
    dsp = Dataset(X=X[perm], y=y[perm], delta=delta[perm],
                  t_max=float(y.max()))
    scp = SurvivalCurves(times=sc.times, values=sc.values[perm])
    cc, ccp = km_censor(ds), km_censor(dsp)
    assert abs(ipcw_brier(sc, ds, 2.0, cc) - ipcw_brier(scp, dsp, 2.0, ccp)) < 1e-12
    assert abs(c_index(sc, ds) - c_index(scp, dsp)) < 1e-12


def test_ibs_skips_dead_weight_nodes():
    ds = _dataset([1.0, 2.0, 3.0], [1, 1, 1])
    grid = np.linspace(0.0, 3.0, 7)
    sc = SurvivalCurves(times=grid, values=np.full((3, 7), 0.5))
    # hand-built censor curve that dies at t = 2
    cc = KmCensorCurve(times=np.array([2.0]), surv=np.array([0.0]))
    with pytest.warns(RuntimeWarning, match="skipping"):
        got = ipcw_ibs(sc, ds, np.array([0.5, 1.0, 2.5]), cc)
    assert got == 0.25  # integrated over the surviving nodes only
    with pytest.raises(NumericalError):
        with pytest.warns(RuntimeWarning, match="skipping"):
            ipcw_ibs(sc, ds, np.array([2.1, 2.5, 2.9]), cc)


def test_ibs_equals_the_node_loop_with_dead_nodes():
    tied, sc = _tied_problem(300, seed=47)
    # no events from t = 30 on, where C dies with subjects still at risk
    # up to y = 39: the nodes in [30, 39) are dead, and those past the
    # last time live again
    ds = _dataset(tied.y, np.where(tied.y < 30, tied.delta, 0), seed=47)
    censor = KmCensorCurve(times=np.array([10.0, 20.0, 30.0]),
                           surv=np.array([0.9, 0.6, 0.0]))
    grid = np.linspace(0.5, 44.0, 30)
    want, n_dead = ibs_node_loop(sc, ds.y, ds.delta, grid, censor)
    assert n_dead == np.count_nonzero((grid >= 30) & (grid < ds.y.max()))
    assert 0 < n_dead < np.count_nonzero(grid >= 30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = ipcw_ibs(sc, ds, grid, censor)
    assert got == want
    assert len(caught) == n_dead
    assert all("skipping" in str(w.message) for w in caught)
    for t in grid:
        node = brier_node(sc.at([t])[:, 0], ds.y, ds.delta, t, censor)
        if node is None:
            with pytest.raises(NumericalError):
                ipcw_brier(sc, ds, t, censor)
        else:
            assert ipcw_brier(sc, ds, t, censor) == node


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metrics_reject_non_finite_curves(bad):
    rng = np.random.default_rng(49)
    y = rng.uniform(0.5, 4.5, size=20)
    delta = rng.integers(0, 2, size=20)
    delta[np.argmax(y)] = 1
    ds = _dataset(y, delta)
    sc = _random_curves(20, seed=50)
    values = sc.values.copy()
    values[3] = bad
    sc = SurvivalCurves(times=sc.times, values=values)
    cc = km_censor(ds)
    with pytest.raises(NumericalError, match="non-finite"):
        c_index(sc, ds)
    with pytest.raises(NumericalError, match="non-finite"):
        ipcw_ibs(sc, ds, np.linspace(0.5, 4.0, 9), cc)
    with pytest.raises(NumericalError, match="non-finite"):
        ipcw_brier(sc, ds, 2.0, cc)


def test_ibs_grid_validation():
    ds = _dataset([1.0, 2.0], [1, 1])
    sc = SurvivalCurves(times=[0.0, 2.0], values=np.full((2, 2), 0.5))
    cc = km_censor(ds)
    with pytest.raises(InputError):
        ipcw_ibs(sc, ds, [1.0], cc)
    with pytest.raises(InputError):
        ipcw_ibs(sc, ds, [1.0, 0.5], cc)
