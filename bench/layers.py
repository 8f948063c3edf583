"""Which sigsurv functions the traced run wraps, and how its spans and
counts become the per-layer metrics named in BENCHMARK.json.

The layers are the modules of ``src/sigsurv``. A function is wrapped in
its own module and in every module that imports it by name, so calls
are caught whichever namespace they resolve through. Functions that
``cli`` imports inside its command bodies are looked up on their home
module at call time, so wrapping the home module covers the CLI too.
"""

from __future__ import annotations

import os

from sigsurv import (checkpoint, cavi, cli, data, hazard, map_em, metrics,
                     net, optim, predict)

from tracer import Tracer


def _rows(counter):
    def hook(tr, args, kwargs, result):
        tr.counts[counter] += len(args[1])  # T, the per-row times
    return hook


def _lbfgs(tr, args, kwargs, res):
    tr.counts["optim.minimize_lbfgs.iterations"] += res.n_iter
    tr.counts["optim.minimize_lbfgs.fevals"] += res.n_fev
    tr.counts["optim.cap_hits"] += res.message == "iteration cap reached"
    tr.counts["optim.linesearch_failures"] += res.message.startswith(
        "line search failed")


def _em(tr, args, kwargs, res):
    tr.counts["map_em.em_iterations"] += res.n_iter


def _cavi(tr, args, kwargs, res):
    tr.counts["cavi.sweeps"] += res.n_iter


def _factor(tr, args, kwargs, factor):
    tr.gauges["cavi.effective_rank"] = factor.effective_rank


def _theta(tr, args, kwargs, state):
    tr.gauges["cavi.path_woodbury"] = float(
        isinstance(state.sigma, cavi.LowRankFactor))


def _linearize(tr, args, kwargs, lin):
    tr.gauges["net.j_grid_bytes"] = lin.J_grid.nbytes


def _context(tr, args, kwargs, ctx):
    tr.gauges["hazard.live_pair_frac"] = float((ctx.grid.weights > 0).mean())


def _saved(tr, args, kwargs, result):
    tr.gauges["checkpoint.save_checkpoint.bytes"] = os.path.getsize(args[0])


def _loaded_csv(tr, args, kwargs, result):
    with open(args[0]) as fh:
        rows = sum(1 for line in fh if line.strip()) - 1  # minus the header
    tr.counts["data.load_csv.rows_dropped"] += rows - result[0].n


def instrument(tr: Tracer) -> None:
    w = tr.wrap
    w([data], "load_csv", "data.load_csv", _loaded_csv)
    w([hazard], "build_context", "hazard.build_context", _context)
    w([map_em], "log_posterior", "hazard.log_posterior")
    w([net, hazard, map_em, predict], "forward_batch", "net.forward_batch",
      _rows("net.forward_batch.rows"))
    w([net, map_em], "grad_weighted_sum", "net.grad_weighted_sum",
      _rows("net.grad_weighted_sum.rows"))
    w([net, hazard, predict], "jacobian_batch", "net.jacobian_batch",
      _rows("net.jacobian_batch.rows"))
    w([net], "linearize", "net.linearize", _linearize)
    w([optim, map_em], "minimize_lbfgs", "optim.minimize_lbfgs", _lbfgs)
    w([map_em], "run_em", "map_em.run_em", _em)
    for fn in ("em_latent_update", "em_m_step", "q_function", "q_grad"):
        w([map_em], fn, f"map_em.{fn}")
    w([cavi], "run_cavi", "cavi.run_cavi", _cavi)
    w([cavi], "cavi_sweep", "cavi.cavi_sweep")
    w([cavi], "update_theta", "cavi.update_theta", _theta)
    w([cavi], "build_factor", "cavi.build_factor", _factor)
    for fn in ("update_omega", "update_psi", "update_phi"):
        w([cavi], fn, f"cavi.{fn}")
    w([cavi.SigmaDense, cavi.LowRankFactor], "quad_rows", "cavi.quad_rows")
    w([cavi.LowRankFactor], "sigma_matvec", "cavi.sigma_matvec")
    w([cavi.LowRankFactor], "assemble_B", "cavi.assemble_B")
    w([predict], "mean_survival_matrix", "predict.mean_survival_matrix")
    w([predict], "credible_band", "predict.credible_band")
    for fn in ("c_index", "ipcw_ibs", "km_censor"):
        w([metrics], fn, f"metrics.{fn}")
    w([checkpoint], "save_checkpoint", "checkpoint.save_checkpoint", _saved)
    w([checkpoint], "load_checkpoint", "checkpoint.load_checkpoint")
    for fn in ("cmd_fit", "cmd_predict", "cmd_eval"):
        w([cli], fn, f"cli.{fn}")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Flatten spans, counts and gauges into per-layer metric values.
    Span names give ``<name>.s``, ``<name>.self_s`` and ``<name>.calls``;
    a metric that names a span never entered reads 0."""
    out: dict[str, float] = {}
    for name, agg in tr.summary().items():
        for key, val in agg.items():
            out[f"{name}.{key}"] = float(val)
    out.update({k: float(v) for k, v in tr.counts.items()})
    out.update({k: float(v) for k, v in tr.gauges.items()})
    iters = out.get("optim.minimize_lbfgs.iterations", 0.0)
    if iters:
        out["optim.fevals_per_iter"] = out["optim.minimize_lbfgs.fevals"] / iters
    return out
