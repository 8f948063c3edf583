"""CSV ingestion, standardization, synthetic benchmark, fold splits."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

from sigsurv.data import Dataset, FeatureStats, gen_synthetic, load_csv, standardize
from sigsurv.errors import InputError
from sigsurv.numkit import RngStream

from _oracles import km_eval, km_product_limit

SCHEMA = {"time_col": "time", "event_col": "event", "feature_cols": "rest"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------- csv


def test_load_csv_roundtrip(tmp_path):
    path = _write(tmp_path, "train.csv",
                  "time,event,a,b\n"
                  "2.5,1,0.1,4.0\n"
                  "1.0,0,-1.2,2.0\n"
                  "4.0,1,0.7,0.0\n")
    ds, stats = load_csv(path, SCHEMA)
    assert np.array_equal(ds.y, [2.5, 1.0, 4.0])
    assert np.array_equal(ds.delta, [1, 0, 1])
    raw = np.array([[0.1, 4.0], [-1.2, 2.0], [0.7, 0.0]])
    assert np.allclose(ds.X, stats.apply(raw), rtol=0, atol=0)
    assert ds.t_max == 4.0


def test_load_csv_drops_incomplete_rows(tmp_path):
    path = _write(tmp_path, "holes.csv",
                  "time,event,a\n"
                  "2.5,1,0.1\n"
                  "1.0,0,\n"
                  "3.0,1,NA\n"
                  "4.0,1,0.7\n"
                  "5.0,0,1.1\n")
    ds, _ = load_csv(path, SCHEMA)
    assert ds.n == 3
    assert np.array_equal(ds.y, [2.5, 4.0, 5.0])


def test_load_csv_explicit_feature_subset(tmp_path):
    path = _write(tmp_path, "cols.csv",
                  "id,time,event,a,b\n"
                  "7,2.0,1,0.5,9.9\n"
                  "8,3.0,0,1.5,8.8\n")
    schema = {"time_col": "time", "event_col": "event", "feature_cols": ["a"]}
    ds, _ = load_csv(path, schema)
    assert ds.p == 1


def test_load_csv_reuses_training_stats(tmp_path):
    train = _write(tmp_path, "tr.csv",
                   "time,event,a\n1.0,1,0.0\n2.0,1,2.0\n3.0,0,4.0\n")
    test = _write(tmp_path, "te.csv",
                  "time,event,a\n1.5,1,10.0\n2.5,0,12.0\n")
    _, stats = load_csv(train, SCHEMA)
    ds_te, stats_back = load_csv(test, SCHEMA, stats=stats)
    assert stats_back is stats
    want = (np.array([[10.0], [12.0]]) - 2.0) / np.std([0.0, 2.0, 4.0])
    assert np.allclose(ds_te.X, want, rtol=1e-14, atol=0)
    doc = stats.to_doc()
    again = FeatureStats.from_doc(doc)
    assert np.array_equal(again.mean, stats.mean)
    assert np.array_equal(again.std, stats.std)


def test_load_csv_rejects_malformed_files(tmp_path):
    with pytest.raises(InputError, match="non-numeric"):
        load_csv(_write(tmp_path, "a.csv", "time,event,a\n1.0,1,oops\n"),
                 SCHEMA)
    with pytest.raises(InputError, match="missing columns"):
        load_csv(_write(tmp_path, "b.csv", "t,event,a\n1.0,1,0.5\n"), SCHEMA)
    with pytest.raises(InputError, match="0/1"):
        load_csv(_write(tmp_path, "c.csv", "time,event,a\n1.0,2,0.5\n"),
                 SCHEMA)
    with pytest.raises(InputError, match="cells"):
        load_csv(_write(tmp_path, "d.csv", "time,event,a\n1.0,1\n"), SCHEMA)
    with pytest.raises(InputError, match="empty"):
        load_csv(_write(tmp_path, "e.csv", ""), SCHEMA)
    with pytest.raises(InputError, match="no complete rows"):
        load_csv(_write(tmp_path, "f.csv", "time,event,a\n1.0,1,NA\n"),
                 SCHEMA)


def test_load_csv_rejects_infinite_cells(tmp_path):
    for i, cell in enumerate(("inf", "-inf", "Infinity", "1e400")):
        path = _write(tmp_path, f"inf{i}.csv",
                      f"time,event,a\n2.0,1,0.5\n1.0,0,{cell}\n")
        with pytest.raises(InputError,
                           match=f"non-finite cell '{cell}' at .*:3:a"):
            load_csv(path, SCHEMA)
    path = _write(tmp_path, "inf_time.csv", "time,event,a\ninf,1,0.5\n")
    with pytest.raises(InputError, match="non-finite cell 'inf' at .*:2:time"):
        load_csv(path, SCHEMA)


def test_training_stats_reject_other_feature_count(tmp_path):
    train = _write(tmp_path, "tr.csv",
                   "time,event,a,b\n1.0,1,0.0,1.0\n2.0,0,2.0,3.0\n")
    test = _write(tmp_path, "te.csv", "time,event,a\n1.5,1,10.0\n")
    _, stats = load_csv(train, SCHEMA)
    with pytest.raises(InputError, match="1 feature columns.* have 2"):
        load_csv(test, SCHEMA, stats=stats)


# -------------------------------------------------------- standardization


def test_standardize_training_identities():
    rng = np.random.default_rng(2)
    X = rng.normal(loc=3.0, scale=2.5, size=(200, 4))
    X_std, stats = standardize(X)
    assert np.all(np.abs(X_std.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(X_std.std(axis=0) - 1.0) < 1e-10)
    back, _ = standardize(X, stats=stats)
    assert np.array_equal(back, X_std)


def test_standardize_constant_column_stays_finite():
    X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
    X_std, stats = standardize(X)
    assert np.all(np.isfinite(X_std))
    assert np.all(X_std[:, 0] == 0.0)
    assert stats.std[0] == 1.0


# ---------------------------------------------------------------- dataset


def test_dataset_validation_and_views():
    X = np.arange(8.0).reshape(4, 2)
    ds = Dataset(X=X, y=[1.0, 2.0, 4.0, 3.0], delta=[1, 0, 1, 1])
    assert (ds.n, ds.p, ds.n_events) == (4, 2, 3)
    assert ds.t_max == 4.0
    assert np.allclose(ds.y_norm * ds.t_max, ds.y, rtol=0, atol=1e-12)

    with pytest.raises(InputError, match="rejected at ingestion: \\[1\\]"):
        Dataset(X=X, y=[1.0, 0.0, 2.0, 3.0], delta=[1, 1, 1, 1])
    with pytest.raises(InputError, match="matching row counts"):
        Dataset(X=X, y=[1.0, 2.0], delta=[1, 0])
    with pytest.raises(InputError, match="0 or 1"):
        Dataset(X=X, y=[1.0, 2.0, 3.0, 4.0], delta=[1, 2, 0, 1])
    with pytest.raises(InputError, match="non-finite"):
        Dataset(X=X, y=[1.0, np.nan, 3.0, 4.0], delta=[1, 0, 0, 1])
    with pytest.raises(InputError, match="empty"):
        Dataset(X=np.zeros((0, 2)), y=[], delta=[])


# -------------------------------------------------------------- synthetic


def test_gen_synthetic_shapes_and_flags(root):
    ds = gen_synthetic(500, root.child(1))
    assert ds.X.shape == (500, 4)
    assert set(np.unique(ds.X[:, 0])) <= {0.0, 1.0}
    assert np.all(ds.y > 0)
    assert set(np.unique(ds.delta)) <= {0, 1}
    with pytest.raises(InputError):
        gen_synthetic(0, root.child(2))


def test_gen_synthetic_censoring_fraction(root):
    # P(T > C) for this mechanism, frozen from quadrature: 0.4987933
    ds = gen_synthetic(100_000, root.child(11))
    frac = 1.0 - ds.delta.mean()
    assert abs(frac - 0.49879326125928963) < 0.005


def test_gen_synthetic_group0_median(root):
    # KM of group-0 events should cross 1/2 near the lognormal median e^3
    ds = gen_synthetic(100_000, root.child(12))
    sel = ds.X[:, 0] == 0.0
    jt, js = km_product_limit(ds.y[sel], ds.delta[sel])
    assert abs(km_eval(jt, js, math.exp(3.0)) - 0.5) < 0.02


def test_gen_synthetic_seed_behaviour(root):
    a = gen_synthetic(50, root.child(3))
    b = gen_synthetic(50, RngStream.from_seed(20260814).child(3))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)
    c = gen_synthetic(50, root.child(4))
    assert not np.array_equal(a.y, c.y)


def test_gen_synthetic_distribution_stable_across_seeds(root):
    a = gen_synthetic(10_000, root.child(21))
    b = gen_synthetic(10_000, root.child(22))
    assert spstats.ks_2samp(a.y, b.y).pvalue > 0.001
