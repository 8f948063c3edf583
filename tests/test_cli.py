"""Command-line workflows: synth -> fit -> predict/eval, plus selftest."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigsurv import predict
from sigsurv.checkpoint import (body_bytes, decode_array, encode_array,
                                fit_from_doc, load_checkpoint)
from sigsurv.cli import main
from sigsurv.data import load_csv
from sigsurv.errors import NumericalError
from sigsurv.net import forward_batch, row_block
from sigsurv.numkit import RngStream, build_grid
from sigsurv.predict import mean_survival_matrix

SCHEMA = {"time_col": "time", "event_col": "event", "feature_cols": "rest"}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small end-to-end fit shared by the predict/eval tests."""
    d = tmp_path_factory.mktemp("cli")
    train = d / "train.csv"
    test = d / "test.csv"
    ck = d / "model.json"
    assert main(["synth", "--n", "30", "--out", str(train), "--seed", "5"]) == 0
    assert main(["synth", "--n", "20", "--out", str(test), "--seed", "6"]) == 0
    rc = main(["fit", "--data", str(train), "--out", str(ck),
               "--hidden", "4", "--grid-k", "16", "--seed", "3"])
    assert rc == 0
    return d


# ------------------------------------------------------------------ synth


def test_synth_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["synth", "--n", "40", "--out", str(out), "--seed", "9"]) == 0
    assert "wrote 40 rows" in capsys.readouterr().out
    header, rows = _read_csv(out)
    assert header == ["time", "event", "group", "x1", "x2", "x3"]
    assert len(rows) == 40
    assert all(float(r[0]) > 0 for r in rows)
    assert all(r[1] in ("0", "1") for r in rows)

    again = tmp_path / "s2.csv"
    main(["synth", "--n", "40", "--out", str(again), "--seed", "9"])
    assert out.read_text() == again.read_text()
    other = tmp_path / "s3.csv"
    main(["synth", "--n", "40", "--out", str(other), "--seed", "10"])
    assert out.read_text() != other.read_text()


def test_synth_seed_from_environment(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("SIGSURV_SEED", "9")
    assert main(["synth", "--n", "15", "--out", str(a)]) == 0
    monkeypatch.delenv("SIGSURV_SEED")
    assert main(["synth", "--n", "15", "--out", str(b), "--seed", "9"]) == 0
    assert a.read_text() == b.read_text()


# -------------------------------------------------------------------- fit


def test_fit_summary_and_refit_determinism(workdir, tmp_path, capsys):
    ck2 = tmp_path / "refit.json"
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck2),
               "--hidden", "4", "--grid-k", "16", "--seed", "3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["converged"] is True
    assert summary["phi_map"] > 0
    _, body_a = load_checkpoint(workdir / "model.json")
    _, body_b = load_checkpoint(ck2)
    assert body_bytes(body_a) == body_bytes(body_b)


def test_fit_synth_n_and_trace(tmp_path):
    ck = tmp_path / "m.json"
    trace = tmp_path / "trace.json"
    rc = main(["fit", "--synth-n", "25", "--out", str(ck), "--hidden", "4",
               "--grid-k", "16", "--seed", "2", "--trace", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert "em" in doc and "cavi_rel_change" in doc
    qs = [rec["q"] for rec in doc["em"]]
    assert all(b >= a - 1e-8 for a, b in zip(qs, qs[1:]))


def test_fit_nonconvergence_exit_code(workdir, tmp_path):
    ck = tmp_path / "short.json"
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
               "--hidden", "4", "--grid-k", "16", "--seed", "3",
               "--em-max-iter", "2"])
    assert rc == 4
    assert ck.exists()  # partial fit is still saved for inspection


def test_fit_config_file(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nhidden = 4\ngrid-k = 16\nseed = 3\n")
    ck = tmp_path / "cfg.json"
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
               "--config", str(cfg)])
    assert rc == 0
    capsys.readouterr()
    _, body_a = load_checkpoint(workdir / "model.json")
    _, body_b = load_checkpoint(ck)
    assert body_bytes(body_a) == body_bytes(body_b)

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
               "--config", str(bad)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_fit_writes_cavi_diagnostics(workdir, tmp_path):
    # 30 subjects, 16 nodes and 8 subjects, 3 nodes, both at m = 29
    small = tmp_path / "small.csv"
    assert main(["synth", "--n", "8", "--out", str(small), "--seed", "5"]) == 0
    ck = tmp_path / "small.json"
    assert main(["fit", "--data", str(small), "--out", str(ck),
                 "--hidden", "4", "--grid-k", "3", "--seed", "3"]) == 0
    for path, n, k in ((workdir / "model.json", 30, 16), (ck, 8, 3)):
        _, body = load_checkpoint(path)
        diag = body["diagnostics"]["cavi"]
        assert "covariance" not in diag
        assert 0 < diag["live_pairs"] < n * k
        assert diag["live_pair_frac"] == diag["live_pairs"] / (n * k)
        # r, the Jacobian's numerical rank, is the factor's column count
        m = 29  # (4 + 1) * 4 + 4 + 4 + 1 parameters
        r = diag["effective_rank"]
        assert 1 <= r <= min(n + diag["live_pairs"], m)
        sigma = body["variational"]["sigma"]
        assert sigma["kind"] == "factor"
        assert sigma["U"].shape == (m, r) and sigma["C"].shape == (r,)


def test_fit_reports_g_spread(workdir):
    # the spread of g over the row block at theta_MAP, recomputed from
    # the checkpoint on rows rebuilt from the training CSV
    _, body = load_checkpoint(workdir / "model.json")
    fit = fit_from_doc(body)
    ds, _ = load_csv(workdir / "train.csv", SCHEMA)
    T, X = row_block(build_grid(ds.y_norm, 16), ds)
    g = forward_batch(fit.model, T, X, fit.theta_map)
    got = body["diagnostics"]["em"]["g_spread"]
    assert got >= 0.0
    assert abs(got - float(np.ptp(g))) <= 1e-12 * max(1.0, abs(got))


def test_fit_rejects_non_finite_float_flags(workdir, tmp_path, capsys):
    ck = tmp_path / "nf.json"
    common = ["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
              "--hidden", "4", "--grid-k", "16"]
    for flag, value, key in (("--em-tol", "nan", "em_tol"),
                             ("--cavi-tol", "inf", "cavi_tol"),
                             ("--em-init-scale", "nan", "em_init_scale")):
        assert main([*common, flag, value]) == 2
        err = capsys.readouterr().err
        assert f"input error: {key} must be finite, got {value}" in err
        assert "Traceback" not in err
    assert not ck.exists()


def test_fit_rejects_infinite_covariate(workdir, tmp_path, capsys):
    header, rows = _read_csv(workdir / "train.csv")
    rows[3][2] = "inf"
    bad = tmp_path / "inf.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    rc = main(["fit", "--data", str(bad), "--out", str(tmp_path / "x.json"),
               "--hidden", "4", "--grid-k", "16"])
    assert rc == 2
    assert "non-finite cell 'inf'" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_fit_input_errors(tmp_path, capsys):
    missing = main(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "x.json")])
    assert missing == 2
    corrupt = tmp_path / "bad.csv"
    corrupt.write_text("time,event,a\n1.0,1,oops\n")
    rc = main(["fit", "--data", str(corrupt), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    rc = main(["fit", "--synth-n", "20", "--out", str(tmp_path / "x.json"),
               "--hidden", "0"])
    assert rc == 2


def test_fit_rejects_zero_iteration_caps(workdir, tmp_path, capsys):
    ck = tmp_path / "capped.json"
    common = ["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
              "--hidden", "4", "--grid-k", "16"]
    cfg = tmp_path / "m0.cfg"
    cfg.write_text("m_step_iters = 0\n")
    for extra, key in ((["--em-max-iter", "0"], "em_max_iter"),
                       (["--cavi-max-iter", "-1"], "cavi_max_iter"),
                       (["--config", str(cfg)], "m_step_iters")):
        assert main([*common, *extra]) == 2
        assert f"input error: {key} must be >= 1" in capsys.readouterr().err
    assert not ck.exists()


def test_rejects_grid_sizes_below_two(workdir, tmp_path, capsys):
    ck = tmp_path / "k1.json"
    for k in ("1", "0"):
        assert main(["fit", "--data", str(workdir / "train.csv"), "--out",
                     str(ck), "--hidden", "4", "--grid-k", k]) == 2
        assert f"input error: grid_k must be >= 2, got {k}" in \
            capsys.readouterr().err
    assert not ck.exists()
    common = ["--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv"), "--draws", "20"]
    for points in ("-1", "1"):
        assert main(["predict", *common, "--grid-points", points,
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert main(["eval", *common, "--grid-points", points]) == 2
        err = capsys.readouterr().err
        assert err.count(f"input error: grid_points must be >= 2, "
                         f"got {points}") == 2
        assert "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


# ---------------------------------------------------------------- predict


def test_predict_csv_output(workdir, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--checkpoint", str(workdir / "model.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out),
               "--draws", "40", "--grid-points", "12", "--seed", "1"])
    assert rc == 0
    assert "wrote 240 rows" in capsys.readouterr().out
    header, rows = _read_csv(out)
    assert header == ["subject", "time", "mean", "median", "lo", "hi"]
    assert len(rows) == 20 * 12
    by_subject: dict = {}
    for r in rows:
        by_subject.setdefault(int(r[0]), []).append([float(v) for v in r[1:]])
    assert sorted(by_subject) == list(range(20))
    for recs in by_subject.values():
        arr = np.asarray(recs)
        t, mean, median, lo, hi = arr.T
        assert np.all(np.diff(t) > 0)
        assert t[0] == 0.0 and mean[0] == 1.0
        assert np.all(np.diff(mean) <= 1e-12)
        assert np.all((lo <= median + 1e-12) & (median <= hi + 1e-12))
        assert np.all((mean >= 0.0) & (mean <= 1.0))


def test_predict_csv_is_csv_writer_bytes(workdir, tmp_path, capsys):
    # the rows are the library's means and bands, written as csv.writer
    # writes them
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--checkpoint", str(workdir / "model.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out),
               "--draws", "30", "--grid-points", "7", "--seed", "2"])
    assert rc == 0
    capsys.readouterr()
    fit = fit_from_doc(load_checkpoint(workdir / "model.json")[1])
    ds, _ = load_csv(workdir / "test.csv", SCHEMA, stats=fit.stats)
    times = np.linspace(0.0, fit.t_max, 7)
    curves, band = mean_survival_matrix(
        fit.post, fit.model, fit.prior, fit.theta_map, fit.t_max, ds.X,
        times, RngStream.from_seed(2), n_draws=30, level=0.9)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["subject", "time", "mean", "median", "lo", "hi"])
    for i in range(ds.n):
        for j, t in enumerate(times):
            writer.writerow([i] + [f"{v:.17g}" for v in (
                t, curves.values[i, j], band.median[i, j], band.lo[i, j],
                band.hi[i, j])])
    assert out.read_bytes() == want.getvalue().encode("ascii")


def test_predict_eval_reject_truncated_checkpoint(workdir, tmp_path, capsys):
    ck = tmp_path / "cut.json"
    ck.write_text('{"meta": ')
    common = ["--checkpoint", str(ck), "--data", str(workdir / "test.csv")]
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 2
    assert main(["eval", *common]) == 2
    err = capsys.readouterr().err
    assert err.count("not a checkpoint file") == 2
    assert "Traceback" not in err


def _foreign_dtype(body):
    body["map"]["theta"]["dtype"] = "<f4"


def _zero_feature_scale(body):
    body["normalization"]["stats"]["std"][0] = 0.0


def test_predict_rejects_corrupt_checkpoint_body(workdir, tmp_path, capsys):
    # an array in a foreign dtype used to end in a traceback, and a
    # zero feature scale in NaN curves with exit 0
    for edit in (_foreign_dtype, _zero_feature_scale):
        doc = json.loads((workdir / "model.json").read_text())
        edit(doc["body"])
        ck = tmp_path / "bad.json"
        ck.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--checkpoint", str(ck),
                     "--data", str(workdir / "test.csv"),
                     "--out", str(out), "--draws", "20"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err
        assert not out.exists()


def test_predict_rejects_overflowing_covariance_factor(workdir, tmp_path,
                                                       capsys):
    # `rank` copies of the fitted U's first column times 1e200, so
    # U^T C U overflows: rank 1 used to exit 0 with the draws taken from
    # Sigma~ = I, and rank 2 to end in eigh's LinAlgError traceback
    for rank in (1, 2):
        doc = json.loads((workdir / "model.json").read_text())
        sigma = doc["body"]["variational"]["sigma"]
        U = decode_array(sigma["U"])[:, :1] * 1e200
        sigma["U"] = encode_array(np.tile(U, (1, rank)))
        sigma["C"] = encode_array(np.ones(rank))
        ck = tmp_path / "huge.json"
        ck.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--checkpoint", str(ck),
                     "--data", str(workdir / "test.csv"),
                     "--out", str(out), "--draws", "20"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "Gram matrix" in err
        assert "Traceback" not in err
        assert not out.exists()


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _many_chunks(monkeypatch, workdir):
    """Three subjects per chunk on a 12-point grid of the workdir model,
    and three CPUs, so predict runs its 20 subjects' chunks on a pool."""
    fit = fit_from_doc(load_checkpoint(workdir / "model.json")[1])
    monkeypatch.setattr(predict, "_CHUNK_FLOATS", 3 * 12 * fit.model.n_params)
    monkeypatch.setattr(predict.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    for var in _BLAS_VARS:  # predict sets them; put them back after
        monkeypatch.setenv(var, os.environ.get(var, "1"))


def _clear_blas_vars(monkeypatch):
    """Unset the BLAS variables; monkeypatch restores what was there."""
    for var in _BLAS_VARS:
        monkeypatch.setenv(var, "0")
        monkeypatch.delenv(var)


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_predict_eval_run_one_thread_blas(workdir, tmp_path, monkeypatch,
                                          capsys, command):
    workers = []

    def spy(*args, **kwargs):
        workers.append(kwargs["workers"])
        return mean_survival_matrix(*args, **kwargs)

    monkeypatch.setattr(predict, "mean_survival_matrix", spy)
    argv = [command, "--checkpoint", str(workdir / "model.json"),
            "--data", str(workdir / "test.csv"), "--draws", "10",
            "--out", str(tmp_path / "out")]
    for threads, exported in ((None, None), ("2", None), ("2", "3")):
        _clear_blas_vars(monkeypatch)
        if exported:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", exported)
        extra = ["--threads", threads] if threads else []
        assert main([*argv, *extra]) == 0
        assert {var: os.environ[var] for var in _BLAS_VARS} == {
            var: exported if exported and var == "OPENBLAS_NUM_THREADS"
            else "1" for var in _BLAS_VARS}
        assert workers.pop() == (int(threads) if threads else None)


def test_other_commands_size_blas_by_threads(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "s.csv")
    _clear_blas_vars(monkeypatch)
    assert main(["synth", "--n", "3", "--out", out]) == 0
    assert not any(var in os.environ for var in _BLAS_VARS)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(["synth", "--n", "3", "--out", out, "--threads", "2"]) == 0
    assert all(os.environ[var] == "2" for var in _BLAS_VARS)


def test_predict_threads_1_writes_the_default_bytes(workdir, tmp_path,
                                                     monkeypatch, capsys):
    _many_chunks(monkeypatch, workdir)
    common = ["predict", "--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv"), "--draws", "30",
              "--grid-points", "12", "--seed", "2"]
    one, default = tmp_path / "one.csv", tmp_path / "default.csv"
    assert main([*common, "--threads", "1", "--out", str(one)]) == 0
    assert main([*common, "--out", str(default)]) == 0
    assert one.read_bytes() == default.read_bytes()


def test_predict_worker_failure_exits_3(workdir, tmp_path, monkeypatch,
                                        capsys):
    _many_chunks(monkeypatch, workdir)
    real, calls, lock = predict.jacobian_batch, [], threading.Lock()

    def failing_on_second_chunk(*args, **kwargs):
        with lock:
            calls.append(1)
            second = len(calls) == 2
        if second:
            raise NumericalError("chunk 2 failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(predict, "jacobian_batch", failing_on_second_chunk)
    out = tmp_path / "p.csv"
    assert main(["predict", "--checkpoint", str(workdir / "model.json"),
                 "--data", str(workdir / "test.csv"), "--out", str(out),
                 "--draws", "20", "--grid-points", "12"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: chunk 2 failed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_threads_below_one_exits_2(workdir, tmp_path, capsys):
    for value in ("0", "-2"):
        assert main(["predict", "--checkpoint", str(workdir / "model.json"),
                     "--data", str(workdir / "test.csv"),
                     "--out", str(tmp_path / "p.csv"),
                     "--threads", value]) == 2
        err = capsys.readouterr().err
        assert f"input error: --threads must be >= 1, got {value}" in err
    assert not (tmp_path / "p.csv").exists()


def test_predict_rejects_non_finite_horizon(workdir, tmp_path, capsys):
    out = tmp_path / "p.csv"
    for value in ("nan", "inf", "0"):
        assert main(["predict", "--checkpoint", str(workdir / "model.json"),
                     "--data", str(workdir / "test.csv"), "--out", str(out),
                     "--draws", "20", "--t-hi", value]) == 2
        err = capsys.readouterr().err
        assert "prediction horizon must be finite and positive" in err
    assert not out.exists()


def test_rejects_negative_seed(workdir, tmp_path, capsys):
    common = ["--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv"), "--seed", "-1"]
    assert main(["fit", "--synth-n", "10", "--out", str(tmp_path / "m.json"),
                 "--seed", "-1"]) == 2
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 2
    assert main(["eval", *common]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: seed must be >= 0, got -1") == 3


def test_predict_missing_checkpoint(workdir, tmp_path):
    rc = main(["predict", "--checkpoint", str(tmp_path / "gone.json"),
               "--data", str(workdir / "test.csv"),
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_predict_eval_reject_other_feature_count(workdir, tmp_path, capsys):
    header, rows = _read_csv(workdir / "test.csv")
    narrow = tmp_path / "narrow.csv"
    with open(narrow, "w", newline="") as fh:
        csv.writer(fh).writerows([header[:-1], *(r[:-1] for r in rows)])
    common = ["--checkpoint", str(workdir / "model.json"), "--data",
              str(narrow), "--draws", "20", "--grid-points", "5"]
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 2
    assert main(["eval", *common]) == 2
    err = capsys.readouterr().err
    assert err.count("input error: data has 3 feature columns, the "
                     "training statistics have 4") == 2


# ------------------------------------------------------------------- eval


def test_eval_metrics_json(workdir, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--checkpoint", str(workdir / "model.json"),
               "--data", str(workdir / "test.csv"), "--out", str(out),
               "--draws", "40", "--grid-points", "15", "--seed", "1"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(out.read_text())
    assert printed == saved
    assert set(saved) >= {"c_index", "ipcw_ibs", "n", "n_events", "grid"}
    assert saved["n"] == 20
    assert 0.0 <= saved["c_index"] <= 1.0
    assert 0.0 <= saved["ipcw_ibs"] <= 1.0
    assert saved["grid"]["points"] == 15


def test_eval_constant_half_baseline(workdir, tmp_path, capsys):
    # all-event data: the constant-1/2 predictor scores IBS = 1/4 exactly
    data = tmp_path / "events.csv"
    rows = ["time,event,group,x1,x2,x3"]
    rng = np.random.default_rng(0)
    for i in range(12):
        rows.append(f"{rng.uniform(1, 50):.6f},1,"
                    f"{i % 2},{rng.normal():.4f},{rng.normal():.4f},"
                    f"{rng.normal():.4f}")
    data.write_text("\n".join(rows) + "\n")
    rc = main(["eval", "--checkpoint", str(workdir / "model.json"),
               "--data", str(data), "--constant-half", "--grid-points", "9"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["ipcw_ibs"] == 0.25
    assert metrics["c_index"] == 0.5


# --------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "10/10 checks passed" in out
    assert out.count("[ok]") == 10
    assert "[ok] predict-point-mass" in out


def test_selftest_detects_sabotage(capsys):
    assert main(["selftest", "--sabotage-jacobian"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "jacobian" in out


def test_console_entry_point(tmp_path):
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "sigsurv.cli", "synth", "--n", "5",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_closed_stdout_keeps_the_output_file(workdir, tmp_path, command,
                                             unbuffered):
    # stdout is a pipe whose read end is closed before the process starts,
    # as when `head -c 10` has exited; unbuffered, print itself fails
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sigsurv.cli", command,
             "--checkpoint", str(workdir / "model.json"),
             "--data", str(workdir / "test.csv"), "--draws", "10",
             "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert out.stat().st_size > 0
    if command == "eval":
        assert set(json.loads(out.read_text())) >= {"c_index", "ipcw_ibs"}


def test_eval_non_finite_curves_exit_3(workdir, tmp_path, monkeypatch,
                                       capsys):
    def nan_curves(*args, **kwargs):
        curves, band = mean_survival_matrix(*args, **kwargs)
        curves.values[0, 1:] = np.nan
        return curves, band

    monkeypatch.setattr(predict, "mean_survival_matrix", nan_curves)
    out = tmp_path / "m.json"
    assert main(["eval", "--checkpoint", str(workdir / "model.json"),
                 "--data", str(workdir / "test.csv"), "--draws", "10",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: survival curves hold non-finite" in err
    assert not out.exists()


# ------------------------------------------------------------ fuzzing

# a flag's wild values: in range, at zero, negative and non-finite
_WILD = st.one_of(st.sampled_from([float("nan"), float("inf"),
                                   float("-inf"), 0.0, -1.0]),
                  st.floats(1e-4, 3.0))
_POSITIVE = st.floats(1e-3, 3.0)


def _int_flag(flag, low, high):
    """In range [low, high]; wild values add -1, 0 and 1."""
    return (flag, st.integers(low, high),
            st.one_of(st.sampled_from([-1, 0, 1]), st.integers(low, high)))


_SEED = _int_flag("--seed", 0, 50)
_FUZZ = settings(max_examples=30, deadline=None, database=None,
                 derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def _exit_code(argv):
    """Run the CLI in-process; returns (exit code, stderr text). An
    argparse usage error exits 2 through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@st.composite
def _flags(draw, table):
    """(flag, in-range strategy, wild strategy) rows: one flag takes a
    wild value, each other one is left out or takes an in-range value,
    so the wild value is the one the command has to handle. Flags are
    passed as --flag=value: argparse would take a bare "-inf" for an
    option."""
    wild = draw(st.integers(0, len(table) - 1))
    argv = []
    for i, (flag, ok, wild_values) in enumerate(table):
        value = draw(wild_values if i == wild else st.one_of(st.none(), ok))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


_FIT_FLAGS = (
    _int_flag("--synth-n", 2, 30), _SEED, _int_flag("--grid-k", 2, 64),
    ("--alpha0", _POSITIVE, _WILD), ("--beta0", _POSITIVE, _WILD),
    ("--rho", _POSITIVE, _WILD),
    ("--em-tol", _POSITIVE, _WILD), ("--cavi-tol", _POSITIVE, _WILD),
    ("--em-init-scale", _POSITIVE, _WILD),
    _int_flag("--em-max-iter", 1, 8), _int_flag("--cavi-max-iter", 1, 8),
)
_SCORE_FLAGS = (
    _SEED,
    _int_flag("--draws", 2, 40),
    ("--level", st.floats(0.05, 0.95), _WILD),
    _int_flag("--grid-points", 2, 65),
    ("--t-hi", _POSITIVE, _WILD),
)


@_FUZZ
@given(argv=_flags(_FIT_FLAGS))
def test_fuzz_fit_flags_exit_cleanly(workdir, argv):
    if not any(a.startswith("--synth-n=") for a in argv):
        argv.append("--synth-n=20")
    code, err = _exit_code(["fit", "--hidden", "4", "--out",
                            str(workdir / "fuzz.json"), *argv])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


@_FUZZ
@given(argv=_flags(_SCORE_FLAGS))
def test_fuzz_predict_eval_flags_exit_cleanly(workdir, argv):
    common = ["--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv")]
    scoring = [a for a in argv if not a.startswith("--t-hi=")]
    for cmd in (["predict", "--out", str(workdir / "fuzz.csv"), *argv],
                ["eval", *scoring]):
        code, err = _exit_code([*cmd, *common])
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err


# config-file values and SIGSURV_SEED: numbers, wild numbers and text
_CONFIG_KEYS = ("seed", "grid_k", "alpha0", "beta0", "rho", "em_tol",
                "em_max_iter", "em_init_scale", "m_step_iters", "cavi_tol",
                "cavi_max_iter", "draws", "level", "grid_points")
_SETTING = st.one_of(
    st.integers(-2, 70).map(str), _WILD.map(repr),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))


@contextlib.contextmanager
def _env_seed(value):
    """SIGSURV_SEED set to `value` (unset for None) inside the block."""
    saved = os.environ.pop("SIGSURV_SEED", None)
    if value is not None:
        os.environ["SIGSURV_SEED"] = value
    try:
        yield
    finally:
        os.environ.pop("SIGSURV_SEED", None)
        if saved is not None:
            os.environ["SIGSURV_SEED"] = saved


@_FUZZ
@given(config=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _SETTING,
                              max_size=3),
       env_seed=st.one_of(st.none(), _SETTING))
def test_fuzz_config_file_and_env_seed_exit_cleanly(workdir, config, env_seed):
    path = workdir / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    with _env_seed(env_seed):
        code, err = _exit_code(["fit", "--synth-n=12", "--hidden=4",
                                "--em-max-iter=2", "--cavi-max-iter=2",
                                "--config", str(path),
                                "--out", str(workdir / "fuzz.json")])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


def test_non_numeric_config_value_and_env_seed_exit_2(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    bad = tmp_path / "bad.cfg"
    bad.write_text("# a comment\nseed = abc\n")
    assert main(["synth", "--n", "3", "--out", out, "--config", str(bad)]) == 2
    assert f"{bad}:2: seed" in capsys.readouterr().err
    with _env_seed("abc"):
        assert main(["synth", "--n", "3", "--out", out]) == 2
    assert "SIGSURV_SEED" in capsys.readouterr().err


def test_directory_config_exits_2(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["synth", "--n", "3", "--out", out,
                 "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_directory_data_exits_2(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\xff\n")
    assert main(["synth", "--n", "3", "--out", str(tmp_path / "s.csv"),
                 "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("input error:")
