"""Command-line pipeline: synthesize data, fit (EM then CAVI), predict
survival curves, evaluate metrics, and self-test the numerical core.

Exit codes: 0 success, 2 input error, 3 numerical failure,
4 finished-but-not-converged (outputs are still written), 1 standard
output closed before everything was printed, e.g. piped into `head`
(output files are written before anything is printed).

numpy is imported lazily inside the command handlers so that the BLAS
thread pools can be sized before they initialize: `predict` and `eval`
run one-thread BLAS in each prediction worker, and for the other
commands --threads caps the BLAS pools.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import ConvergenceError, InputError, NumericalError

__all__ = ["main"]

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NONCONV = 4

# Model/algorithm knobs a config file may set; paths are flag-only.
CONFIG_DEFAULTS: dict = {
    "seed": 0,
    "grid_k": 64,
    "hidden": "16,16",
    "alpha0": 1.0,
    "beta0": 1.0,
    "rho": 1.0,
    "em_tol": 1e-6,
    "em_max_iter": 500,
    "em_init_scale": 0.1,
    "m_step_iters": 100,
    "cavi_tol": 1e-6,
    "cavi_max_iter": 1000,
    "draws": 200,
    "level": 0.9,
    "grid_points": 65,
    "time_col": "time",
    "event_col": "event",
    "features": "rest",
}

_PATH_KEYS = ("data", "out", "checkpoint", "trace", "config")


_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _size_blas_pools(command: str, threads: int | None) -> None:
    """Set the BLAS/OpenMP thread counts before numpy loads. predict and
    eval parallelize over prediction workers, so each gets one-thread
    BLAS unless the variable is already exported; elsewhere --threads
    caps the pools."""
    for var in _BLAS_VARS:
        if command in ("predict", "eval"):
            os.environ.setdefault(var, "1")
        elif threads is not None:
            os.environ[var] = str(threads)


def _coerce(key: str, text: str, where: str):
    """`text` as the type of `key`'s default; a malformed number is an
    InputError that names `where` it came from."""
    default = CONFIG_DEFAULTS[key]
    if not isinstance(default, (int, float)):
        return text.strip()
    try:
        return type(default)(text)
    except ValueError:
        raise InputError(f"{where}: {key} must be {type(default).__name__}, "
                         f"got {text!r}") from None


def _load_config_file(path: str) -> dict:
    """Flat `key = value` lines of UTF-8 text; '#' starts a comment."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_DEFAULTS:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, value, f"{path}:{lineno}")
    return out


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    env_seed = os.environ.get("SIGSURV_SEED")
    if env_seed is not None:
        cfg["seed"] = _coerce("seed", env_seed, "SIGSURV_SEED")
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in CONFIG_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, val in cfg.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise InputError(f"{key} must be finite, got {val}")
    if cfg["em_tol"] <= 0 or cfg["cavi_tol"] <= 0:
        raise InputError("tolerances must be positive")
    if not 0.0 < cfg["level"] < 1.0:
        raise InputError("level must be in (0, 1)")
    for key, low in (("seed", 0), ("em_max_iter", 1), ("m_step_iters", 1),
                     ("cavi_max_iter", 1), ("grid_k", 2), ("grid_points", 2)):
        if cfg[key] < low:
            raise InputError(f"{key} must be >= {low}, got {cfg[key]}")
    return cfg


def _hash_of(cfg: dict) -> str:
    from .checkpoint import config_hash

    return config_hash({k: v for k, v in cfg.items() if k not in _PATH_KEYS})


def _schema(cfg: dict) -> dict:
    feats = cfg["features"]
    return {
        "time_col": cfg["time_col"],
        "event_col": cfg["event_col"],
        "feature_cols": "rest" if feats == "rest" else [
            c.strip() for c in feats.split(",") if c.strip()
        ],
    }


def _hidden_sizes(cfg: dict) -> tuple:
    try:
        sizes = tuple(int(s) for s in str(cfg["hidden"]).split(",") if s.strip())
    except ValueError:
        raise InputError(f"bad --hidden value {cfg['hidden']!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("--hidden needs positive comma-separated sizes")
    return sizes


# ---------------------------------------------------------------- commands


def cmd_synth(args: argparse.Namespace) -> int:
    import csv

    from .data import gen_synthetic
    from .numkit import RngStream

    cfg = _merge_config(args)
    if args.n < 1:
        raise InputError("--n must be >= 1")
    ds = gen_synthetic(args.n, RngStream.from_seed(cfg["seed"]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "group", "x1", "x2", "x3"])
        for i in range(ds.n):
            writer.writerow(
                [f"{ds.y[i]:.17g}", int(ds.delta[i])]
                + [f"{v:.17g}" for v in ds.X[i]]
            )
    print(f"wrote {ds.n} rows to {args.out} "
          f"(events: {ds.n_events}, censored: {ds.n - ds.n_events})")
    return EXIT_OK


def _load_training_data(args, cfg):
    from .data import Dataset, gen_synthetic, load_csv, standardize
    from .numkit import RngStream

    if args.data and args.synth_n:
        raise InputError("give either --data or --synth-n, not both")
    if args.data:
        return load_csv(args.data, _schema(cfg))
    if args.synth_n:
        raw = gen_synthetic(args.synth_n, RngStream.from_seed(cfg["seed"]).child(0))
        X_std, stats = standardize(raw.X)
        return Dataset(X=X_std, y=raw.y, delta=raw.delta), stats
    raise InputError("fit needs --data CSV or --synth-n")


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)

    from .cavi import run_cavi
    from .checkpoint import fit_to_doc, save_checkpoint
    from .hazard import BaselinePrior, build_context
    from .map_em import run_em
    from .net import MlpModel, linearize
    from .numkit import RngStream

    ds, stats = _load_training_data(args, cfg)
    prior = BaselinePrior(alpha0=cfg["alpha0"], beta0=cfg["beta0"], rho=cfg["rho"])
    model = MlpModel((ds.p + 1, *_hidden_sizes(cfg), 1))
    ctx = build_context(model, prior, ds, n_nodes=cfg["grid_k"])
    rng = RngStream.from_seed(cfg["seed"])

    em = run_em(
        ctx,
        rng.child(1),
        init_scale=cfg["em_init_scale"],
        tol=cfg["em_tol"],
        max_iter=cfg["em_max_iter"],
        m_step_iters=cfg["m_step_iters"],
    )
    lin = linearize(model, em.theta_map, ctx.grid, ds)
    cavi = run_cavi(
        ctx, lin, em.theta_map, em.phi_map,
        tol=cfg["cavi_tol"], max_iter=cfg["cavi_max_iter"],
    )

    diagnostics = {
        "em": {
            "iterations": em.n_iter,
            "converged": bool(em.converged),
            "final_q": float(em.q_trace[-1]),
            "message": em.message,
            # 0.0: the MAP network ignores time and covariates
            "g_spread": float(lin.g.max() - lin.g.min()),
        },
        "cavi": {
            "iterations": cavi.n_iter,
            "converged": bool(cavi.converged),
            "final_rel_change": float(cavi.rel_trace[-1]),
            "message": cavi.message,
            # the numerical rank of the row block's Jacobian
            "effective_rank": lin.V.shape[1],
            "live_pairs": int(ctx.w_live.size),
            "live_pair_frac": ctx.w_live.size / ctx.grid.weights.size,
        },
        "data": {"n": ds.n, "n_events": ds.n_events, "p": ds.p},
    }
    body = fit_to_doc(
        model, prior, stats, ds.t_max, em.theta_map, em.phi_map,
        cavi.state, _hash_of(cfg), diagnostics,
    )
    save_checkpoint(args.out, body)
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(
                {"em": em.records, "cavi_rel_change": cavi.rel_trace.tolist()},
                fh, indent=1,
            )
    summary = {
        "checkpoint": args.out,
        "phi_map": em.phi_map,
        "em_iterations": em.n_iter,
        "cavi_iterations": cavi.n_iter,
        "converged": bool(em.converged and cavi.converged),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if (em.converged and cavi.converged) else EXIT_NONCONV


def _load_fitted(path):
    from .checkpoint import fit_from_doc, load_checkpoint

    _, body = load_checkpoint(path)
    return fit_from_doc(body)


def _prediction_times(fit, cfg, t_hi=None):
    import numpy as np

    hi = fit.t_max if t_hi is None else float(t_hi)
    if not (math.isfinite(hi) and hi > 0):
        raise InputError(f"prediction horizon must be finite and positive, "
                         f"got {hi}")
    return np.linspace(0.0, hi, int(cfg["grid_points"]))


def cmd_predict(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .numkit import RngStream
    from .predict import mean_survival_matrix

    cfg = _merge_config(args)
    fit = _load_fitted(args.checkpoint)
    ds, _ = load_csv(args.data, _schema(cfg), stats=fit.stats)
    times = _prediction_times(fit, cfg, args.t_hi)
    rng = RngStream.from_seed(cfg["seed"])
    curves, band = mean_survival_matrix(
        fit.post, fit.model, fit.prior, fit.theta_map, fit.t_max,
        ds.X, times, rng, n_draws=cfg["draws"], level=cfg["level"],
        workers=args.threads,
    )
    # the bytes csv.writer would write for these rows (no cell needs
    # quoting): one format for a subject's rows, the times formatted once
    rows = "".join("%%d,%.17g,%%.17g,%%.17g,%%.17g,%%.17g\r\n" % t
                   for t in times.tolist())
    cells = [0] * (5 * times.size)
    columns = (curves.values, band.median, band.lo, band.hi)
    with open(args.out, "w", newline="") as fh:
        fh.write("subject,time,mean,median,lo,hi\r\n")
        for i in range(curves.n):
            cells[0::5] = [i] * times.size
            for k, col in enumerate(columns, 1):
                cells[k::5] = col[i].tolist()
            fh.write(rows % tuple(cells))
    print(f"wrote {curves.n * times.size} rows to {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    import numpy as np

    from .data import load_csv
    from .metrics import SurvivalCurves, c_index, ipcw_ibs, km_censor
    from .numkit import RngStream
    from .predict import mean_survival_matrix

    cfg = _merge_config(args)
    fit = _load_fitted(args.checkpoint)
    ds, _ = load_csv(args.data, _schema(cfg), stats=fit.stats)

    # truncate the metric grid at the last event time (keeps the censor
    # weights strictly positive) and at the training horizon
    if ds.n_events == 0:
        raise InputError("evaluation set has no events")
    t_hi = min(fit.t_max, float(ds.y[ds.delta == 1].max()))
    grid = np.linspace(0.0, t_hi, int(cfg["grid_points"]))

    if args.constant_half:
        curves = SurvivalCurves(
            times=grid, values=np.full((ds.n, grid.size), 0.5)
        )
    else:
        rng = RngStream.from_seed(cfg["seed"])
        curves, _ = mean_survival_matrix(
            fit.post, fit.model, fit.prior, fit.theta_map, fit.t_max,
            ds.X, grid, rng, n_draws=cfg["draws"], level=cfg["level"],
            workers=args.threads,
        )

    censor = km_censor(ds)
    try:
        c_val, c_reason = float(c_index(curves, ds)), None
    except InputError as exc:
        c_val, c_reason = None, str(exc)
    ibs = float(ipcw_ibs(curves, ds, grid, censor))

    metrics = {
        "c_index": c_val,
        "ipcw_ibs": ibs,
        "n": ds.n,
        "n_events": ds.n_events,
        "grid": {"lo": 0.0, "hi": t_hi, "points": int(grid.size)},
    }
    if c_reason:
        metrics["c_index_reason"] = c_reason
    text = json.dumps(metrics, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    import numpy as np

    from .cavi import LowRankFactor, SigmaDense
    from .checkpoint import PosteriorParams
    from .data import gen_synthetic, standardize, Dataset
    from .hazard import (BaselinePrior, build_context, sample_marked_pp_batch,
                         sample_pg_series)
    from .map_em import run_em
    from .net import MlpModel, forward, forward_batch, jacobian
    from .numkit import RngStream, build_grid, pg_f, pg_mean
    from .predict import mean_survival_matrix

    cfg = _merge_config(args)
    rng = RngStream.from_seed(cfg["seed"])
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # 1. Polya-Gamma mean vs truncated-series Monte Carlo
    for c in (0.1, 1.0, 5.0):
        draws = sample_pg_series(rng.child(10 + int(10 * c)), 1.0, c, 20000,
                                 terms=800)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        err = abs(draws.mean() - pg_mean(1.0, c))
        record(f"pg-mean c={c}", err < 3.5 * se + 2e-4,
               f"|err|={err:.2e} tol={3.5 * se + 2e-4:.2e}")

    # 2. Jacobian vs central finite differences
    model = MlpModel((4, 8, 8, 1))
    r2 = rng.child(2)
    theta = model.random_theta(r2, scale=0.6)
    worst = 0.0
    for _ in range(20):
        t = float(r2.gen.uniform(0, 1))
        x = r2.gen.standard_normal(3)
        J = jacobian(model, t, x, theta)
        if args.sabotage_jacobian:
            J = J.copy()
            J[0] += 1.0
        h = 1e-6
        fd = np.empty_like(J)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = h
            fd[k] = (forward(model, t, x, theta + e)
                     - forward(model, t, x, theta - e)) / (2 * h)
        tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
        worst = max(worst, float(np.max(np.abs(J - fd) - tol)))
    record("jacobian-fd", worst <= 0.0, f"worst excess={worst:.2e} tol=0")

    # 3. Woodbury solve vs dense solve
    r3 = rng.child(3)
    m, r = 80, 20
    U = r3.gen.standard_normal((m, r))
    C = r3.gen.uniform(0.1, 2.0, size=r)
    fac = LowRankFactor(U=U, C=C)
    rhs = r3.gen.standard_normal(m)
    dense = np.linalg.solve(fac.assemble_B(), rhs)
    err = np.linalg.norm(fac.solve_B(rhs) - dense) / np.linalg.norm(dense)
    record("woodbury-vs-dense", err < 1e-8, f"rel err={err:.2e} tol=1e-8")

    # 4. Marked-process exponential functional vs censoring term
    r4 = rng.child(4)
    prior = BaselinePrior()
    model4 = MlpModel((3, 6, 1))
    theta4 = model4.random_theta(r4, scale=0.5)
    x4 = r4.gen.standard_normal(2)
    y4 = 0.8
    n_rep = 20000
    times, omegas, counts = sample_marked_pp_batch(
        model4, prior, 1.3, y4, x4, r4, n_rep, n_grid=1024, pg_terms=800
    )
    g_at = forward_batch(model4, times, np.tile(x4, (times.size, 1)), theta4) \
        if times.size else np.zeros(0)
    logf = pg_f(omegas, -g_at)
    ends = np.cumsum(counts)
    starts = ends - counts
    csum = np.concatenate([[0.0], np.cumsum(logf)])
    prod = np.exp(csum[ends] - csum[starts])
    from .hazard import baseline_factor
    from .numkit import sigmoid

    tg = np.linspace(0, y4, 4097)
    lam = 1.3 * baseline_factor(model4, prior, tg, np.tile(x4, (tg.size, 1)))
    gg = forward_batch(model4, tg, np.tile(x4, (tg.size, 1)), theta4)
    rhs_exact = np.exp(-np.trapezoid(lam * sigmoid(gg), tg))
    mc = prod.mean()
    se = prod.std(ddof=1) / np.sqrt(n_rep)
    err = abs(mc - rhs_exact)
    record("marked-process-functional", err < max(4 * se, 0.01 * rhs_exact),
           f"mc={mc:.5f} exact={rhs_exact:.5f} err={err:.2e}")

    # 5. EM ascent on a small synthetic fit: the log-posterior trace must
    # be non-decreasing, and each M-step must not lower its own surrogate.
    r5 = rng.child(5)
    raw = gen_synthetic(12, r5)
    X_std, _ = standardize(raw.X)
    ds = Dataset(X=X_std, y=raw.y, delta=raw.delta)
    ctx = build_context(MlpModel((5, 8, 1)), prior, ds, n_nodes=24)
    em = run_em(ctx, r5, max_iter=25)
    drops = np.diff(em.objective_trace)
    worst_drop = float(drops.min()) if drops.size else 0.0
    m_steps = [rec["q"] - rec["q_before_m_step"] for rec in em.records]
    worst_m = float(min(m_steps)) if m_steps else 0.0
    record("em-ascent", worst_drop >= -1e-8 and worst_m >= -1e-8,
           f"worst objective step={worst_drop:.2e} "
           f"worst m-step={worst_m:.2e} tol=-1e-8")

    # 6. Quadrature exactness
    g64 = build_grid(np.array([1.0]), 201)
    integral = float((g64.weights[0] * g64.nodes).sum())
    err = abs(integral - 0.5)
    record("quadrature-linear", err < 1e-4, f"err={err:.2e} tol=1e-4")
    wsum = abs(float(g64.weights[0].sum()) - 1.0)
    record("quadrature-weight-sum", wsum < 1e-12, f"err={wsum:.2e} tol=1e-12")

    # 7. Batched posterior predictive: a point-mass posterior at phi0
    # over a silent network (theta = 0, so sigmoid(g) = 1/2 = Z) gives
    # the hazard phi0 and every subject's curve exp(-phi0 t)
    r7 = rng.child(7)
    model7 = MlpModel((4, 8, 1))
    m7 = model7.n_params
    phi0 = 1.7
    point_mass = PosteriorParams(alpha_tilde=phi0 * 1e10, beta_tilde=1e10,
                                 e_log_phi=float(np.log(phi0)),
                                 mu_tilde=np.zeros(m7),
                                 sigma=SigmaDense(1e-20 * np.eye(m7)))
    t7 = np.linspace(0.0, 1.0, 21)
    curves7, band7 = mean_survival_matrix(
        point_mass, model7, prior, np.zeros(m7), 1.0,
        r7.gen.standard_normal((5, 3)), t7, r7, n_draws=64)
    err = max(float(np.max(np.abs(v - np.exp(-phi0 * t7))))
              for v in (curves7.values, band7.lo, band7.hi))
    record("predict-point-mass", err < 1e-3, f"max err={err:.2e} tol=1e-3")

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_NUMERIC


# ---------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $SIGSURV_SEED or 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="predict/eval: cap the prediction workers (default: "
                        "one per CPU, each with one-thread BLAS); other "
                        "commands: cap the BLAS/OpenMP thread pools")
    p.add_argument("--config", default=None,
                   help="key = value config file; flags override it")


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-col", dest="time_col", default=None)
    p.add_argument("--event-col", dest="event_col", default=None)
    p.add_argument("--features", default=None,
                   help="comma-separated feature columns, or 'rest'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigsurv",
        description="Bayesian survival curves from a sigmoid-modulated "
                    "network hazard",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic benchmark CSV")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit MAP (EM) then the variational posterior")
    _add_common(p)
    _add_schema_flags(p)
    p.add_argument("--data", default=None, help="training CSV")
    p.add_argument("--synth-n", dest="synth_n", type=int, default=None,
                   help="generate a synthetic training set instead of --data")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", default=None, help="optional JSON trace path")
    p.add_argument("--grid-k", dest="grid_k", type=int, default=None)
    p.add_argument("--hidden", default=None)
    p.add_argument("--alpha0", type=float, default=None)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--em-tol", dest="em_tol", type=float, default=None)
    p.add_argument("--em-max-iter", dest="em_max_iter", type=int, default=None)
    p.add_argument("--em-init-scale", dest="em_init_scale", type=float,
                   default=None)
    p.add_argument("--cavi-tol", dest="cavi_tol", type=float, default=None)
    p.add_argument("--cavi-max-iter", dest="cavi_max_iter", type=int,
                   default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior survival curves to CSV")
    _add_common(p)
    _add_schema_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--t-hi", dest="t_hi", type=float, default=None,
                   help="grid upper end (default: training horizon)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="C-index and integrated Brier score")
    _add_common(p)
    _add_schema_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--constant-half", dest="constant_half",
                   action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the numerical oracle checks")
    _add_common(p)
    p.add_argument("--sabotage-jacobian", dest="sabotage_jacobian",
                   action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise InputError(f"--threads must be >= 1, got {args.threads}")
        _size_blas_pools(args.command, args.threads)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except BrokenPipeError:
        # the recipe of Python's `signal` docs: the interpreter flushes
        # stdout again at exit, so point it at devnull first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    except (InputError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
