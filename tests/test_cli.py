"""Command-line workflows: synth -> fit -> predict/eval, plus selftest."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigsurv import cavi, cli, map_em, net, predict
from sigsurv.checkpoint import (body_bytes, decode_array, encode_array,
                                fit_from_doc, load_checkpoint)
from sigsurv.cli import CONFIG_DEFAULTS, build_parser, main
from sigsurv.data import load_csv
from sigsurv.errors import NumericalError
from sigsurv.metrics import SurvivalCurves
from sigsurv.net import forward_batch, jacobian, row_block
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


def test_fit_trace(workdir, tmp_path):
    ck = tmp_path / "m.json"
    trace = tmp_path / "trace.json"
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
               "--hidden", "4", "--grid-k", "16", "--seed", "2",
               "--trace", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    assert "em" in doc and "cavi_rel_change" in doc
    qs = [rec["q"] for rec in doc["em"]]
    assert all(b >= a - 1e-8 for a, b in zip(qs, qs[1:]))
    # each M-step's objective evaluations and the gradients among them,
    # summed in the checkpoint's diagnostics
    assert all(1 <= rec["gradients"] <= rec["evaluations"]
               for rec in doc["em"])
    _, body = load_checkpoint(ck)
    em = body["diagnostics"]["em"]
    assert em["evaluations"] == sum(rec["evaluations"] for rec in doc["em"])
    assert em["gradients"] == sum(rec["gradients"] for rec in doc["em"])
    assert em["gradients"] < em["evaluations"]


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


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("seed = 9\n", encoding="utf-8-sig")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--n", "5", "--out", str(a), "--config",
                 str(cfg)]) == 0
    assert main(["synth", "--n", "5", "--out", str(b), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_every_config_key_is_a_flag():
    # a key no flag sets would be a setting only a config file can vary
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in subs.choices.values() for a in p._actions}
    assert sorted(set(CONFIG_DEFAULTS) - dests) == []


def test_unreadable_data_exits_2(workdir, tmp_path, monkeypatch, capsys):
    # root ignores file modes, so the denial is simulated at open()
    data = str(workdir / "test.csv")
    real_open = open

    def denying_open(path, *args, **kwargs):
        if str(path) == data:
            raise PermissionError(13, "Permission denied", data)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", denying_open)
    assert main(["predict", "--checkpoint", str(workdir / "model.json"),
                 "--data", data, "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Permission denied" in err
    assert "Traceback" not in err


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


def test_fit_reports_final_log_posterior(workdir, tmp_path, monkeypatch):
    runs = []
    run_em = map_em.run_em

    def recorded(*args, **kwargs):
        runs.append(run_em(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(map_em, "run_em", recorded)
    ck = tmp_path / "lp.json"
    assert main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
                 "--hidden", "4", "--grid-k", "16", "--seed", "3"]) == 0
    _, body = load_checkpoint(ck)
    got = body["diagnostics"]["em"]["final_log_posterior"]
    assert got == float(runs[0].objective_trace[-1])


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


def test_fit_input_errors(workdir, tmp_path, capsys):
    missing = main(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "x.json")])
    assert missing == 2
    corrupt = tmp_path / "bad.csv"
    corrupt.write_text("time,event,a\n1.0,1,oops\n")
    rc = main(["fit", "--data", str(corrupt), "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    rc = main(["fit", "--data", str(workdir / "train.csv"),
               "--out", str(tmp_path / "x.json"), "--hidden", "0"])
    assert rc == 2
    capsys.readouterr()
    for flag, value, message in (
            ("--hidden", "16,,16", "bad --hidden value '16,,16'"),
            ("--features", "event,x1", "feature columns ['event'] are the "
                                       "time or event column"),
            ("--features", "time", "feature columns ['time'] are the time "
                                   "or event column"),
            ("--features", "x1,x1", "repeated feature columns ['x1']")):
        rc = main(["fit", "--data", str(workdir / "train.csv"),
                   "--out", str(tmp_path / "x.json"), flag, value])
        assert rc == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
    # --data is the one way in: argparse exits 2 without it
    code, err = _exit_code(["fit", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "the following arguments are required: --data" in err


def test_fit_diverging_cavi_exits_3_without_checkpoint(workdir, tmp_path,
                                                      monkeypatch, capsys):
    # a sweep that leaves alpha~ infinite stands in for a diverging CAVI
    update_phi = cavi.update_phi

    def diverging(state, ctx):
        return dataclasses.replace(update_phi(state, ctx), alpha_tilde=np.inf)

    monkeypatch.setattr(cavi, "update_phi", diverging)
    ck = tmp_path / "diverged.json"
    rc = main(["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
               "--hidden", "4", "--grid-k", "16"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: non-finite variational state" in err
    assert not ck.exists()


@pytest.mark.parametrize("command", ["fit", "predict", "eval"])
def test_out_of_memory_exits_2_naming_the_size_flags(workdir, tmp_path,
                                                     monkeypatch, capsys,
                                                     command):
    # an inner call stands in for an allocation too large for the
    # machine, which numpy reports as a MemoryError
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 18.6 GiB for an array")

    out = tmp_path / "out"
    if command == "fit":
        monkeypatch.setattr(map_em, "run_em", exhausted)
        argv = ["fit", "--data", str(workdir / "train.csv"), "--out",
                str(out), "--hidden", "4", "--grid-k", "16"]
        flags = ("--grid-k", "--hidden")
    else:
        monkeypatch.setattr(predict, "mean_survival_matrix", exhausted)
        argv = [command, "--checkpoint", str(workdir / "model.json"),
                "--data", str(workdir / "test.csv"), "--out", str(out)]
        flags = ("--draws", "--grid-points")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "input error: out of memory: Unable to allocate 18.6 GiB" in err
    assert all(flag in err for flag in flags)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["4", "16,16"])
def test_fit_overflowing_em_gradient_exits_3_without_checkpoint(
        workdir, tmp_path, capsys, hidden):
    # alpha0 = 1e300 overflows the log-phi gradient's directional
    # derivative in the first M-step's line search
    ck = tmp_path / "overflow.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--data", str(workdir / "train.csv"), "--out",
                   str(ck), "--hidden", hidden, "--grid-k", "16",
                   "--alpha0", "1e300"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: directional derivative is not finite" in err
    assert "Traceback" not in err
    assert not ck.exists()


@pytest.mark.parametrize("command", ["fit", "predict", "eval"])
def test_header_only_csv_exits_2(workdir, tmp_path, capsys, command):
    data = tmp_path / "header.csv"
    data.write_text("time,event,group,x1,x2,x3\n")
    out = tmp_path / "out"
    argv = ([command, "--data", str(data), "--out", str(out)]
            + ([] if command == "fit"
               else ["--checkpoint", str(workdir / "model.json")]))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "no complete rows" in err and "Traceback" not in err
    assert not out.exists()


def test_fit_rejects_times_that_underflow_when_normalized(workdir, tmp_path,
                                                         capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("time,event,x1\n1e300,1,0.5\n1e-300,0,0.2\n2,1,0.1\n")
    ck = tmp_path / "x.json"
    assert main(["fit", "--data", str(data), "--out", str(ck),
                 "--hidden", "4", "--grid-k", "16"]) == 2
    err = capsys.readouterr().err
    assert "rows [1] underflow to 0" in err and "Traceback" not in err
    assert not ck.exists()


def test_fit_rejects_feature_column_with_overflowing_statistics(tmp_path,
                                                               capsys):
    data = tmp_path / "huge.csv"
    data.write_text("time,event,x1,x2\n1,1,0.5,1e308\n2,0,0.2,-1e308\n"
                    "3,1,0.1,1e308\n")
    ck = tmp_path / "x.json"
    assert main(["fit", "--data", str(data), "--out", str(ck),
                 "--hidden", "4", "--grid-k", "16"]) == 2
    err = capsys.readouterr().err
    assert "feature columns [1]" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not ck.exists()


def test_fit_rejects_zero_iteration_caps(workdir, tmp_path, capsys):
    ck = tmp_path / "capped.json"
    common = ["fit", "--data", str(workdir / "train.csv"), "--out", str(ck),
              "--hidden", "4", "--grid-k", "16"]
    for extra, key in ((["--em-max-iter", "0"], "em_max_iter"),
                       (["--cavi-max-iter", "-1"], "cavi_max_iter")):
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


@pytest.mark.parametrize("horizons, draws, block_bytes", [
    (1, 30, None),
    (40, 30, None),  # cells below 1e-4 take the '%.17g' fallback
    (1, 5, None),  # the band is the draws' min and max
    (1, 30, 1000),  # blocks of a few rows, the last one short
], ids=["horizon", "40-horizons", "5-draws", "short-blocks"])
def test_predict_csv_is_csv_writer_bytes(workdir, tmp_path, capsys,
                                         monkeypatch, horizons, draws,
                                         block_bytes):
    # the rows are the library's means and bands, written as csv.writer
    # writes them
    if block_bytes is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_BYTES", block_bytes)
    fit = fit_from_doc(load_checkpoint(workdir / "model.json")[1])
    times = np.linspace(0.0, horizons * fit.t_max, 7)
    out = tmp_path / "pred.csv"
    argv = ["predict", "--checkpoint", str(workdir / "model.json"),
            "--data", str(workdir / "test.csv"), "--out", str(out),
            "--draws", str(draws), "--grid-points", "7", "--seed", "2"]
    if horizons > 1:
        argv += ["--t-hi", repr(float(times[-1]))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert any("beyond the training horizon" in str(w.message)
               for w in caught) == (horizons > 1)
    capsys.readouterr()
    ds, _ = load_csv(workdir / "test.csv", SCHEMA, stats=fit.stats)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curves, band = mean_survival_matrix(
            fit.post, fit.model, fit.prior, fit.theta_map, fit.t_max, ds.X,
            times, RngStream.from_seed(2), n_draws=draws, level=0.9)
    if horizons > 1:
        assert (curves.values < 1e-4).any()
    if block_bytes is not None:  # several blocks, the last one short
        width = (len(b"%d," % (ds.n - 1)) + 101
                 + max(len("%.17g," % t) for t in times.tolist()))
        per_block = block_bytes // width
        assert 1 < per_block < ds.n * times.size
        assert ds.n * times.size % per_block != 0
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["subject", "time", "mean", "median", "lo", "hi"])
    for i in range(ds.n):
        for j, t in enumerate(times):
            writer.writerow([i] + [f"{v:.17g}" for v in (
                t, curves.values[i, j], band.median[i, j], band.lo[i, j],
                band.hi[i, j])])
    assert out.read_bytes() == want.getvalue().encode("ascii")


def _g17_oracle_values():
    """Chunks of float64s for the formatter oracle: every odd
    a * 2^-j in [1e-4, 1) for j = 14..22 (the exact ties of 17-digit
    rounding among them), the neighbours of each power of ten 1e-4..1,
    special values, and 10^6 seeded uniforms."""
    for j in range(14, 23):
        for start in range(1, 2 ** j, 1 << 21):
            x = np.arange(start, min(start + (1 << 21), 2 ** j), 2) / 2.0 ** j
            yield x[x >= 1e-4]
    tens = 10.0 ** np.arange(-4, 1)
    yield np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, 2.0),
                          [0.0, -0.0, 1.0, 1e-5, 5e-324, 1.5, np.inf,
                           -np.inf, np.nan]])
    gen = np.random.default_rng(20260814)
    for _ in range(4):
        yield gen.uniform(0.0, 1.0, 250_000)


def test_g17_is_python_percent_format_byte_for_byte():
    for values in _g17_oracle_values():
        text = np.zeros((values.size, 25), np.uint8)
        text[:, :24] = cli._g17(values)
        text[:, 24] = ord("\n")
        got = text[text != 0].tobytes().decode("ascii").splitlines()
        want = ["%.17g" % v for v in values.tolist()]
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise AssertionError(f"{values[i]!r}: {got[i]} != {want[i]}")


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


def _integer_dtype(body):
    # the same 8-byte items read as integers: the data still fits
    body["map"]["theta"]["dtype"] = "<i8"


def _zero_feature_scale(body):
    stats = body["normalization"]["stats"]
    std = decode_array(stats["std"])
    std[0] = 0.0
    stats["std"] = encode_array(std)


def test_predict_rejects_corrupt_checkpoint_body(workdir, tmp_path, capsys):
    # an array in a foreign dtype used to end in a traceback, an
    # integer array to load, and a zero feature scale in NaN curves with
    # exit 0
    for edit in (_foreign_dtype, _integer_dtype, _zero_feature_scale):
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
    # U^T U overflows: rank 1 used to exit 0 with the draws taken from
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
        assert "input error" in err and "orthonormal columns" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_predict_eval_reject_non_finite_checkpoint_numbers(workdir, tmp_path,
                                                          capsys):
    # a layer size of 1e400 or Infinity used to end in an OverflowError
    # traceback (exit 1), and a rho of Infinity or 1e999 in curves of 1
    # with exit 0
    text = (workdir / "model.json").read_text()
    edits = [('"layer_sizes":[5,4,1]', '"layer_sizes":[5,1e400,4,1]'),
             ('"layer_sizes":[5,4,1]', '"layer_sizes":[5,Infinity,4,1]'),
             ('"rho":1.0', '"rho":Infinity'), ('"rho":1.0', '"rho":1e999')]
    for old, new in edits:
        assert old in text
        ck = tmp_path / "inf.json"
        ck.write_text(text.replace(old, new))
        common = ["--checkpoint", str(ck), "--data", str(workdir / "test.csv")]
        out = tmp_path / "p.csv"
        assert main(["predict", *common, "--out", str(out),
                     "--draws", "20"]) == 2
        assert main(["eval", *common, "--draws", "20"]) == 2
        err = capsys.readouterr().err
        assert err.count("non-finite number") == 2
        assert "Traceback" not in err
        assert not out.exists()


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _many_chunks(monkeypatch, workdir, n_draws):
    """Three subjects per chunk on a 12-point grid of the workdir model
    with `n_draws` draws, and three CPUs, so predict runs its 20
    subjects' chunks on a pool."""
    fit = fit_from_doc(load_checkpoint(workdir / "model.json")[1])
    per_subject = 12 * (max(fit.model.n_params, n_draws) + n_draws)
    monkeypatch.setattr(predict, "_CHUNK_FLOATS", 3 * per_subject)
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


def test_every_command_runs_one_thread_blas(workdir, tmp_path, monkeypatch,
                                            capsys):
    synth = ["synth", "--n", "3", "--out", str(tmp_path / "s.csv")]
    fit = ["fit", "--data", str(workdir / "train.csv"), "--hidden", "4",
           "--grid-k", "16", "--out", str(tmp_path / "m.json")]
    for argv in (synth, fit):
        _clear_blas_vars(monkeypatch)
        assert main(argv) == 0
        assert all(os.environ[var] == "1" for var in _BLAS_VARS)
    _clear_blas_vars(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(synth) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    # --threads caps the prediction workers, so only predict and eval
    # take it
    for argv in (synth, fit, ["selftest"]):
        code, err = _exit_code([*argv, "--threads", "2"])
        assert code == 2
        assert "unrecognized arguments: --threads 2" in err


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU runs one BLAS thread either way")
def test_fit_body_does_not_depend_on_the_core_count(workdir, tmp_path):
    # each environment is built here: in-process main() calls have
    # exported the variables into this one
    unset = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    one = {**unset, **dict.fromkeys(_BLAS_VARS, "1")}
    bodies = []
    for name, env in (("unset", unset), ("one", one)):
        out = tmp_path / f"{name}.json"
        # at the default --hidden: --hidden 4's products are too small
        # for BLAS to split over threads
        subprocess.run(
            [sys.executable, "-m", "sigsurv.cli", "fit",
             "--data", str(workdir / "train.csv"), "--out", str(out),
             "--grid-k", "16", "--seed", "3"],
            check=True, capture_output=True, env=env, timeout=120)
        bodies.append(body_bytes(load_checkpoint(out)[1]))
    assert bodies[0] == bodies[1]


def test_predict_threads_1_writes_the_default_bytes(workdir, tmp_path,
                                                     monkeypatch, capsys):
    _many_chunks(monkeypatch, workdir, 30)
    common = ["predict", "--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv"), "--draws", "30",
              "--grid-points", "12", "--seed", "2"]
    one, default = tmp_path / "one.csv", tmp_path / "default.csv"
    assert main([*common, "--threads", "1", "--out", str(one)]) == 0
    assert main([*common, "--out", str(default)]) == 0
    assert one.read_bytes() == default.read_bytes()


def test_predict_worker_failure_exits_3(workdir, tmp_path, monkeypatch,
                                        capsys):
    _many_chunks(monkeypatch, workdir, 20)
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
    assert main(["fit", "--data", str(workdir / "train.csv"),
                 "--out", str(tmp_path / "m.json"), "--seed", "-1"]) == 2
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


def test_eval_has_no_level_flag(workdir):
    # eval scores the posterior mean curves and draws no credible band
    code, err = _exit_code(["eval", "--checkpoint", str(workdir / "model.json"),
                            "--data", str(workdir / "test.csv"),
                            "--level", "0.9"])
    assert code == 2
    assert "unrecognized arguments: --level" in err


def test_eval_constant_half_baseline(workdir, tmp_path, monkeypatch, capsys):
    # all-event data: the constant-1/2 predictor scores IBS = 1/4 exactly
    def constant_half(post, model, prior, theta_map, t_max, X, times, rng,
                      **kwargs):
        return SurvivalCurves(times=times,
                              values=np.full((len(X), times.size), 0.5)), None

    monkeypatch.setattr(predict, "mean_survival_matrix", constant_half)
    data = tmp_path / "events.csv"
    rows = ["time,event,group,x1,x2,x3"]
    rng = np.random.default_rng(0)
    for i in range(12):
        rows.append(f"{rng.uniform(1, 50):.6f},1,"
                    f"{i % 2},{rng.normal():.4f},{rng.normal():.4f},"
                    f"{rng.normal():.4f}")
    data.write_text("\n".join(rows) + "\n")
    rc = main(["eval", "--checkpoint", str(workdir / "model.json"),
               "--data", str(data), "--grid-points", "9"])
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
    assert "[ok] factor-solve-vs-dense" in out


def test_selftest_detects_sabotage(monkeypatch, capsys):
    def sabotaged(*args):
        J = jacobian(*args).copy()
        J[0] += 1.0
        return J

    monkeypatch.setattr(net, "jacobian", sabotaged)
    assert main(["selftest"]) == 3
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
    _SEED, _int_flag("--grid-k", 2, 64),
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
    code, err = _exit_code(["fit", "--data", str(workdir / "train.csv"),
                            "--hidden", "4", "--out",
                            str(workdir / "fuzz.json"), *argv])
    assert code in (0, 2, 3, 4), err
    assert "usage:" not in err  # each case reaches the fit, not argparse
    assert "Traceback" not in err


@_FUZZ
@given(argv=_flags(_SCORE_FLAGS))
def test_fuzz_predict_eval_flags_exit_cleanly(workdir, argv):
    common = ["--checkpoint", str(workdir / "model.json"),
              "--data", str(workdir / "test.csv")]
    scoring = [a for a in argv if not a.startswith(("--t-hi=", "--level="))]
    for cmd in (["predict", "--out", str(workdir / "fuzz.csv"), *argv],
                ["eval", *scoring]):
        code, err = _exit_code([*cmd, *common])
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err


# config-file values and SIGSURV_SEED: numbers, wild numbers and text
_CONFIG_KEYS = ("seed", "grid_k", "alpha0", "beta0", "rho", "em_tol",
                "em_max_iter", "em_init_scale", "cavi_tol",
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
        code, err = _exit_code(["fit", "--data", str(workdir / "train.csv"),
                                "--hidden=4",
                                "--em-max-iter=2", "--cavi-max-iter=2",
                                "--config", str(path),
                                "--out", str(workdir / "fuzz.json")])
    assert code in (0, 2, 3, 4), err
    assert "usage:" not in err
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
