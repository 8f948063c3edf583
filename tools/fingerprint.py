"""Print hashes of every output sigsurv computes on a fixed set of fits,
so two source trees can be checked for bit-identical results.

Usage:

    python3 tools/fingerprint.py SRC_DIR

SRC_DIR is the directory that holds the ``sigsurv`` package (``src`` in
a checkout). Run it on two trees and diff the outputs: equal lines mean
equal bits. BLAS runs on one thread, so the hashes do not depend on the
host's thread count.

Four fits on the acceptance gate's streams (root seed 20260814, the
training set from child ``key``, EM from child ``key + 1``, the test
set from child 995):

- N=25 key 25, hidden 32,32, init 0.1 (the Woodbury-path benchmark fit);
- N=25 key 25, hidden 16,16, init 0.1;
- N=50 key 50, hidden 16,16, init 1.0;
- N=50 key 50, hidden 32,32, init 1.0.

Each prints the EM result (theta_MAP, phi_MAP, log-posterior and Q
traces), the CAVI state (alpha~, mu~, U, C, c~, E[omega], lambda, m~,
s~ and the relative-change trace), and the survival curves and bands
on the 100-subject test set at 2, 5, 19, 20 and 200 draws with two
workers and at 19 and 20 draws with one, on a grid from 0 and one from
0.1 t_max. A last block runs the
CLI's ``synth``, ``fit``, ``predict`` and ``eval`` on the cohort
benchmark's inputs and hashes the checkpoint (creation time removed),
the curves CSV, the metrics JSON and a second curves CSV on a grid to
40 times the training horizon, where most cells are below 1e-4.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SIGSURV_SEED", None)  # the CLI would read it as a default

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT_SEED = 20260814
TEST_KEY = 995
PREDICT_KEY = 4242
FITS = ((25, 25, (32, 32), 0.1), (25, 25, (16, 16), 0.1),
        (50, 50, (16, 16), 1.0), (50, 50, (32, 32), 1.0))
# (draws, workers) of each predictive run: below and at 20 draws, on
# one worker and on two
RUNS = ((2, 2), (5, 2), (19, 2), (20, 2), (200, 2), (19, 1), (20, 1))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(np.asarray(p, dtype=float)).tobytes()
                 if not isinstance(p, bytes) else p)
    return h.hexdigest()[:16]


def fit_lines(n, key, hidden, scale):
    from sigsurv.cavi import run_cavi
    from sigsurv.data import Dataset, gen_synthetic, standardize
    from sigsurv.hazard import BaselinePrior, build_context
    from sigsurv.map_em import run_em
    from sigsurv.net import MlpModel, linearize
    from sigsurv.numkit import RngStream
    from sigsurv.predict import mean_survival_matrix

    root = RngStream.from_seed(ROOT_SEED)
    raw = gen_synthetic(n, root.child(key))
    X, stats = standardize(raw.X)
    ds = Dataset(X=X, y=raw.y, delta=raw.delta)
    te = gen_synthetic(100, root.child(TEST_KEY))
    model = MlpModel((ds.p + 1, *hidden, 1))
    prior = BaselinePrior()
    ctx = build_context(model, prior, ds, n_nodes=64)
    em = run_em(ctx, root.child(key + 1), init_scale=scale)
    lin = linearize(model, em.theta_map, ctx.grid, ds)
    cv = run_cavi(ctx, lin, em.theta_map, em.phi_map)
    s = cv.state
    name = f"N={n} key={key} hidden={','.join(map(str, hidden))} init={scale}"
    yield (f"{name}: {em.n_iter} EM iterations, {cv.n_iter} sweeps, "
           f"r = {s.sigma.effective_rank}")
    yield "  em     " + digest(em.theta_map, em.phi_map, em.objective_trace,
                               em.q_trace)
    yield "  cavi   " + digest(s.alpha_tilde, s.mu_tilde, s.sigma.U,
                               s.sigma.C, s.c_tilde, s.e_omega, s.lam_q,
                               s.m_tilde, s.s_tilde, cv.rel_trace)
    X_te = stats.apply(te.X)
    for start in (0.0, 0.1 * ds.t_max):
        times = np.linspace(start, ds.t_max, 33)
        for draws, workers in RUNS:
            curves, band = mean_survival_matrix(
                s, model, prior, em.theta_map, ds.t_max, X_te, times,
                RngStream.from_seed(ROOT_SEED).child(PREDICT_KEY),
                n_draws=draws, workers=workers)
            yield (f"  curves from {start:.3g} S={draws:<3d} k={workers} "
                   + digest(curves.values, band.median, band.lo, band.hi))


def run_cli(*argv) -> None:
    from sigsurv import cli

    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the extrapolation warning
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"sigsurv {argv[0]} exited {code}")


def cli_lines():
    from sigsurv.checkpoint import fit_from_doc, load_checkpoint

    with tempfile.TemporaryDirectory() as work:
        train, test, model, curves, far, metrics = (
            os.path.join(work, f) for f in ("train.csv", "test.csv",
                                            "model.json", "curves.csv",
                                            "far.csv", "metrics.json"))
        common = ("--checkpoint", model, "--data", test, "--seed",
                  str(PREDICT_KEY), "--draws", "200", "--grid-points", "65")
        run_cli("synth", "--n", "25", "--out", train, "--seed", "25")
        run_cli("synth", "--n", "1000", "--out", test, "--seed",
                str(TEST_KEY))
        run_cli("fit", "--data", train, "--out", model, "--seed",
                str(ROOT_SEED))
        run_cli("predict", *common, "--out", curves)
        run_cli("eval", *common, "--out", metrics)
        # 40 horizons out, most cells fall below 1e-4
        t_hi = 40 * fit_from_doc(load_checkpoint(model)[1]).t_max
        run_cli("predict", *common, "--t-hi", repr(t_hi), "--out", far)
        with open(model, "rb") as fh:
            body = re.sub(rb'"created": *"[^"]*"', b"", fh.read())
        for what, path in (("predict", curves), ("eval", metrics),
                           ("predict 40 horizons", far)):
            with open(path, "rb") as fh:
                yield f"  cli {what:<7s} " + digest(fh.read())
        yield "  cli fit     " + digest(body)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/fingerprint.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[1]))
    for fit in FITS:
        for line in fit_lines(*fit):
            print(line, flush=True)
    print("cli: score_cohort inputs", flush=True)
    for line in cli_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
