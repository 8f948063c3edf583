"""The two benchmark workloads: a fit and a score-a-cohort run.

fit_lowrank is the only run of CAVI's Woodbury path, and score_cohort
the only one of the CLI read path (checkpoint, CSV in and out, predict,
metrics). Its ``sigsurv fit`` at default settings (m=385 below the
effective rank 505) is a fit dominated by the dense CAVI solve.

Every input comes from the acceptance gate's documented streams (root
seed 20260814, training keys by size, test key 995, prediction key
4242). The run's ``--seed`` permutes the rows of the test set, which
changes no score beyond rounding. Training rows keep the gate's order:
EM follows a different path when only the summation order changes (on
an N=50 fit, 21 to 49 iterations over five row orders), so a permuted
training set would measure a different amount of work on every seed.

``run_fit`` and ``run_cohort`` return ``(Outcome, end_to_end,
per_layer, tracer)``; a traced run fills ``per_layer`` and ``tracer``,
an untraced one ``end_to_end``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg  # noqa: F401  (sigsurv imports it lazily on first use)

from sigsurv import cavi, cli, data, hazard, map_em, metrics, net, predict
from sigsurv.numkit import RngStream

from layers import instrument, layer_metrics
from tracer import Tracer

ROOT_SEED = 20260814
TEST_KEY = 995
PREDICT_KEY = 4242
GRID_K = 64
N_DRAWS = 200
GRID_POINTS = 65
IBS_TOL = 0.005  # absolute slack around each workload's reference ibs
SETUP_BATCH = 20  # input set-ups per batch on the fit workloads
SCORE_PAIRS = 6  # predict+eval pairs after each fit: about as long as the fit
KERNEL_REPS = 32  # loops of the reference kernel in one call
KERNEL_REF_S = 0.04  # nominal seconds of one reference kernel call
clock = time.perf_counter


@dataclass
class Outcome:
    """Operations attempted and failed. An operation fails when it
    raises, exits nonzero, or fails any of its correctness checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def run(self, what, fn, checks=None):
        """Run ``fn``; ``checks(result)`` returns ``{check: ok}``.
        Returns the result, also when a check failed, or None when
        ``fn`` or a check raised."""
        self.attempted += 1
        result = None
        try:
            result = fn()
            bad = [k for k, ok in (checks(result) if checks else {}).items()
                   if not ok]
        except Exception:  # benchmark boundary: a raise is a counted failure
            traceback.print_exc(file=sys.stderr)
            result, bad = None, ["raised"]
        if bad:
            self.failed += 1
            self.problems.append(f"{what}: {', '.join(bad)}")
        return result


def _timed(fn):
    t0 = clock()
    out = fn()
    return clock() - t0, out


def _rounds(seconds: float, round_fn) -> None:
    """Call ``round_fn`` until it returns False or the next round, as
    long as the median one so far, would end past ``seconds``."""
    times, start = [], clock()
    while True:
        t0 = clock()
        if not round_fn():
            return
        times.append(clock() - t0)
        if clock() - start + statistics.median(times) > seconds:
            return


class SetupTimer:
    """Batches of set-up calls spread over a round; a sample is the mean
    seconds of one call over the round. A call takes under a
    millisecond, and the host switches between a fast and a slow state
    several times a second, so the median of single calls jumps between
    the two states from run to run; a mean over a round does not."""

    def __init__(self, fn):
        self.fn = fn
        self.samples: list[float] = []
        self._seconds, self._calls = 0.0, 0

    def batch(self):
        seconds, out = _timed(
            lambda: [self.fn() for _ in range(SETUP_BATCH)][-1])
        self._seconds += seconds
        self._calls += SETUP_BATCH
        return out

    def close_sample(self) -> None:
        if self._calls:
            self.samples.append(self._seconds / self._calls)
        self._seconds, self._calls = 0.0, 0


class HostSpeed:
    """Times a fixed reference kernel between the measured operations.

    The speed of a shared host drifts, by a third over ten minutes, and
    every operation, from a sub-millisecond set-up to a ten-second fit,
    drifts with it. The end-to-end times are therefore reported in
    seconds on a host where one kernel call takes KERNEL_REF_S: each is
    multiplied by ``scale()``, KERNEL_REF_S over the kernel's mean time
    in the same run. The kernel does not call the library, so a change
    to the library moves the scaled times as much as the raw ones; the
    raw samples are printed beside them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 1024))
        self._b = rng.standard_normal((1024, 200))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        """BLAS products, elementwise numpy and interpreted Python, the
        mix the library spends its time in."""
        total = 0.0
        for _ in range(KERNEL_REPS):
            c = self._a @ self._b
            total += float(np.exp(-np.abs(c)).sum())
            total += float(np.cumsum(c, axis=0)[-1, 0])
            for i in range(3000):
                total += i * 1e-9
        return total

    def sample(self) -> None:
        self.samples.append(_timed(self._kernel)[0])

    def scale(self) -> float:
        return KERNEL_REF_S / statistics.fmean(self.samples)

    def note(self) -> str:
        return (f"host scale {self.scale():.4f}: reference kernel "
                f"{statistics.fmean(self.samples):.5f} s mean over "
                f"{len(self.samples)} calls")


def _shuffled(raw: data.Dataset, seed: int) -> data.Dataset:
    perm = np.random.default_rng(seed).permutation(raw.n)
    return data.Dataset(X=raw.X[perm], y=raw.y[perm], delta=raw.delta[perm])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples(**times) -> list[str]:
    return [f"{name} seconds " + " ".join(f"{t:.4f}" for t in ts)
            for name, ts in times.items()]


def _curve_checks(values: np.ndarray) -> dict[str, bool]:
    return {
        "curves finite": bool(np.all(np.isfinite(values))),
        "curves in [0, 1]": bool(np.all((values >= 0.0) & (values <= 1.0))),
        "curves non-increasing": bool(np.all(np.diff(values, axis=1) <= 0.0)),
    }


@contextlib.contextmanager
def _traced(tr: Tracer):
    """Install the wrappers and count the CAVI rate-clamp warnings."""
    instrument(tr)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    finally:
        tr.restore()
    tr.counts["cavi.psi_clamps"] += sum(
        "clamped" in str(w.message) for w in caught)


# ------------------------------------------------------------------ fits


@dataclass(frozen=True)
class FitSpec:
    n: int
    key: int
    hidden: tuple[int, ...]
    ibs_ref: float  # ipcw ibs of the library as first benchmarked


FITS = {
    "fit_lowrank": FitSpec(n=25, key=25, hidden=(32, 32), ibs_ref=0.1800),
}


def _fit_inputs(spec: FitSpec, seed: int):
    root = RngStream.from_seed(ROOT_SEED)
    raw = data.gen_synthetic(spec.n, root.child(spec.key))
    X, stats = data.standardize(raw.X)
    ds = data.Dataset(X=X, y=raw.y, delta=raw.delta)
    raw_te = _shuffled(data.gen_synthetic(100, root.child(TEST_KEY)), seed)
    te = data.Dataset(X=stats.apply(raw_te.X), y=raw_te.y, delta=raw_te.delta)
    model = net.MlpModel((ds.p + 1, *spec.hidden, 1))
    return ds, te, model, hazard.BaselinePrior()


@dataclass
class Posterior:
    seconds: float
    em: map_em.EmResult
    cavi: cavi.CaviResult
    model: net.MlpModel
    prior: hazard.BaselinePrior
    t_max: float

    def fingerprint(self) -> tuple:
        s = self.cavi.state
        return (self.em.n_iter, self.cavi.n_iter, s.alpha_tilde,
                s.mu_tilde.tobytes(), s.sigma.diag().tobytes())


def _fit(spec: FitSpec, inputs) -> Posterior:
    ds, _, model, prior = inputs
    t0 = clock()
    ctx = hazard.build_context(model, prior, ds, n_nodes=GRID_K)
    em = map_em.run_em(ctx, RngStream.from_seed(ROOT_SEED).child(spec.key + 1))
    lin = net.linearize(model, em.theta_map, ctx.grid, ds)
    cv = cavi.run_cavi(ctx, lin, em.theta_map, em.phi_map)
    return Posterior(clock() - t0, em, cv, model, prior, ds.t_max)


def _fit_checks(post: Posterior, reference: tuple | None) -> dict[str, bool]:
    s = post.cavi.state
    checks = {
        "em converged": post.em.converged,
        "cavi converged": post.cavi.converged,
        "variational state finite": s.finite()
        and bool(np.all(np.isfinite(s.sigma.diag()))),
    }
    if reference is not None:
        checks["bit-identical to the reference fit"] = (
            post.fingerprint() == reference)
    return checks


def _predict(post: Posterior, te: data.Dataset, times):
    return predict.mean_survival_matrix(
        post.cavi.state, post.model, post.prior, post.em.theta_map,
        post.t_max, te.X, times,
        RngStream.from_seed(ROOT_SEED).child(PREDICT_KEY), n_draws=N_DRAWS)


def _evaluate(post: Posterior, te: data.Dataset):
    """Gate criterion 1's scoring: curves on [0, min(t_max, last test
    event)], then IPCW integrated Brier and the Antolini C-index."""
    t_hi = min(post.t_max, float(te.y[te.delta == 1].max()))
    grid = np.linspace(0.0, t_hi, GRID_POINTS)
    curves, _ = _predict(post, te, grid)
    ibs = metrics.ipcw_ibs(curves, te, grid, metrics.km_censor(te))
    return curves, float(ibs), float(metrics.c_index(curves, te))


def _score_checks(ref: float, ibs: float, c_index: float) -> dict[str, bool]:
    return {f"ibs within {IBS_TOL} of {ref}": abs(ibs - ref) <= IBS_TOL,
            "c_index in [0, 1]": 0.0 <= c_index <= 1.0}


def _score(spec, post, te, outcome, pairs: int, between=lambda: None):
    """Predict and then evaluate the test set, ``pairs`` times over,
    calling ``between`` after each; returns (predict seconds, eval
    seconds, ibs, c_index)."""
    times = np.linspace(0.0, post.t_max, GRID_POINTS)
    pred_times, eval_times = [], []
    for _ in range(pairs):
        pred = outcome.run(
            "predict", lambda: _timed(lambda: _predict(post, te, times)[0]),
            lambda r: _curve_checks(r[1].values))
        between()
        ev = outcome.run(
            "eval", lambda: _timed(lambda: _evaluate(post, te)),
            lambda r: {**_curve_checks(r[1][0].values),
                       **_score_checks(spec.ibs_ref, *r[1][1:])})
        if pred is None or ev is None:
            return None
        pred_times.append(pred[0])
        eval_times.append(ev[0])
        between()
    return pred_times, eval_times, *ev[1][1:]


def run_fit(name: str, seed: int, seconds: float, traced: bool):
    spec = FITS[name]
    outcome = Outcome()
    setup = SetupTimer(lambda: _fit_inputs(spec, seed))
    inputs = setup.batch()
    te = inputs[1]

    if traced:
        plain = outcome.run("fit", lambda: _fit(spec, inputs),
                            lambda p: _fit_checks(p, None))
        reference = plain.fingerprint() if plain else None
        tr = Tracer()
        with _traced(tr):
            post = outcome.run("traced fit", lambda: _fit(spec, inputs),
                               lambda p: _fit_checks(p, reference))
            if post:
                _score(spec, post, te, outcome, 1)
        layer = layer_metrics(tr)
        if plain and post:
            layer["trace.overhead_s"] = post.seconds - plain.seconds
            layer["trace.identical"] = float(post.fingerprint() == reference)
        return outcome, {}, layer, tr

    # each round sets up, fits and scores, so every timing samples the
    # whole window of the run
    fit_times, pred_times, eval_times, last = [], [], [], {}
    host = HostSpeed()

    def between() -> None:
        setup.batch()
        host.sample()

    def one_round() -> bool:
        last.pop("post", None)  # free the previous fit: memory peaks at one
        between()
        post = outcome.run("fit", lambda: _fit(spec, inputs),
                           lambda p: _fit_checks(p, last.get("reference")))
        scored = post and _score(spec, post, te, outcome, SCORE_PAIRS,
                                 between)
        setup.close_sample()
        if not scored:
            return False
        fit_times.append(post.seconds)
        pred_times.extend(scored[0])
        eval_times.extend(scored[1])
        last.update(post=post, scores=scored[2:])
        last.setdefault("reference", post.fingerprint())
        return True

    _rounds(seconds, one_round)
    scale = host.scale()
    e2e = {"setup_s": statistics.median(setup.samples) * scale}
    outcome.notes.append(host.note())
    if fit_times:
        post = last["post"]
        ibs, c_index = last["scores"]
        e2e.update(fit_s=statistics.median(fit_times) * scale,
                   predict_s=statistics.median(pred_times) * scale,
                   eval_s=statistics.median(eval_times) * scale,
                   ibs=ibs, c_index=c_index)
        outcome.notes.append(
            f"{len(fit_times)} fits of {post.em.n_iter} EM iterations, "
            f"{post.cavi.n_iter} CAVI sweeps, "
            f"{type(post.cavi.state.sigma).__name__}")
        outcome.notes += _samples(fit=fit_times, predict=pred_times,
                                  eval=eval_times)
    e2e["peak_rss_mb"] = _peak_rss_mb()
    return outcome, e2e, {}, None


# ---------------------------------------------------------------- cohort

COHORT_TRAIN_N = 25
COHORT_TEST_N = 1000
COHORT_IBS_REF = 0.2073


def _cli(*argv: str) -> int:
    """``sigsurv <argv>`` in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _shuffle_csv(path: str, seed: int) -> None:
    with open(path) as fh:
        header, *rows = fh.readlines()
    perm = np.random.default_rng(seed).permutation(len(rows))
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(rows[i] for i in perm)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Cohort:
    """The CLI read path on files inside ``work``: ``sigsurv synth`` and
    ``sigsurv fit`` set up, ``sigsurv predict`` and ``sigsurv eval`` are
    timed."""

    def __init__(self, work: str, seed: int, outcome: Outcome,
                 between=lambda: None):
        self.seed, self.outcome, self.between = seed, outcome, between
        self.train, self.test, self.model, self.curves, self.metrics = (
            os.path.join(work, f) for f in ("train.csv", "test.csv",
                                            "model.json", "curves.csv",
                                            "metrics.json"))
        self.first: tuple | None = None  # outputs of the first scoring

    def _cmd(self, what, *argv, checks=None):
        """Run one command, then ``between``; returns (seconds, exit
        code) or None if it raised. A nonzero exit code fails the
        operation."""
        def all_checks(out):
            ok = {"exit code 0": out[1] == 0}
            return {**ok, **checks()} if ok["exit code 0"] and checks else ok
        out = self.outcome.run(what, lambda: _timed(lambda: _cli(*argv)),
                               all_checks)
        self.between()
        return out

    def setup(self) -> tuple[float, float] | None:
        """Write both CSVs and fit the training set at default settings;
        returns (set-up seconds, fit seconds), or None when a command
        raised."""
        train = self._cmd("synth train", "synth", "--n", str(COHORT_TRAIN_N),
                          "--out", self.train, "--seed", "25")
        test = self._cmd("synth test", "synth", "--n", str(COHORT_TEST_N),
                         "--out", self.test, "--seed", str(TEST_KEY))
        shuffle_s = _timed(lambda: _shuffle_csv(self.test, self.seed))[0]
        fit = self._cmd("fit", "fit", "--data", self.train, "--out",
                        self.model, "--seed", str(ROOT_SEED))
        if not (train and test and fit):
            return None
        return train[0] + test[0] + shuffle_s + fit[0], fit[0]

    def _outputs(self) -> tuple[str, str]:
        with open(self.metrics) as fh:
            return _digest(self.curves), fh.read()

    def _predict_checks(self) -> dict[str, bool]:
        if self.first:
            return {"same curves as the first predict":
                    _digest(self.curves) == self.first[0]}
        rows = np.loadtxt(self.curves, delimiter=",", skiprows=1)
        mean = rows[:, 2].reshape(COHORT_TEST_N, GRID_POINTS)
        return {"one row per subject and time":
                rows.shape == (COHORT_TEST_N * GRID_POINTS, 6),
                **_curve_checks(mean)}

    def _eval_checks(self) -> dict[str, bool]:
        with open(self.metrics) as fh:
            text = fh.read()
        if self.first:
            return {"same metrics as the first eval": text == self.first[1]}
        doc = json.loads(text)
        return _score_checks(COHORT_IBS_REF, doc["ipcw_ibs"], doc["c_index"])

    def score(self):
        """Predict then evaluate the test CSV; returns (predict_s,
        eval_s, outputs), or None when a command raised."""
        common = ("--checkpoint", self.model, "--data", self.test,
                  "--seed", str(PREDICT_KEY), "--draws", str(N_DRAWS),
                  "--grid-points", str(GRID_POINTS))
        pred = self._cmd("predict", "predict", *common, "--out", self.curves,
                         checks=self._predict_checks)
        ev = pred and self._cmd("eval", "eval", *common, "--out",
                                self.metrics, checks=self._eval_checks)
        if not ev:
            return None
        outputs = self._outputs()
        self.first = self.first or outputs
        return pred[0], ev[0], outputs


def run_cohort(seed: int, seconds: float, traced: bool, work: str):
    outcome = Outcome()
    os.makedirs(work, exist_ok=True)
    try:
        host = HostSpeed()
        co = Cohort(work, seed, outcome, host.sample)
        if traced:
            tr = Tracer()
            with _traced(tr):
                co.setup()
            plain = co.score()
            with _traced(tr):
                timed = plain and co.score()
            layer = layer_metrics(tr)
            if timed:
                layer["trace.overhead_s"] = sum(timed[:2]) - sum(plain[:2])
                layer["trace.identical"] = float(timed[2] == plain[2])
            return outcome, {}, layer, tr

        # each round sets up (synth, fit) and scores, so every timing
        # samples the whole window of the run
        setup_times, fit_times, runs = [], [], []

        def one_round() -> bool:
            set_up = co.setup()
            got = set_up and co.score()
            if got:
                setup_times.append(set_up[0])
                fit_times.append(set_up[1])
                runs.append(got)
            return bool(got)

        _rounds(seconds, one_round)
        e2e = {}
        if runs:
            doc = json.loads(runs[-1][2][1])
            scale = host.scale()
            e2e.update(setup_s=statistics.median(setup_times) * scale,
                       fit_s=statistics.median(fit_times) * scale,
                       predict_s=statistics.median(r[0] for r in runs) * scale,
                       eval_s=statistics.median(r[1] for r in runs) * scale,
                       ibs=doc["ipcw_ibs"], c_index=doc["c_index"])
            outcome.notes.append(host.note())
            outcome.notes += _samples(setup=setup_times, fit=fit_times,
                                      predict=[r[0] for r in runs],
                                      eval=[r[1] for r in runs])
        e2e["peak_rss_mb"] = _peak_rss_mb()
        return outcome, e2e, {}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
