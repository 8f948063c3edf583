"""End-to-end acceptance gate.

One test per shipped criterion, each printing a single [PASS]/[FAIL]
line (visible under `pytest -s`) and asserting the same condition, so
`pytest -v` reports exactly one outcome per criterion.

The benchmark uses documented seeds: every stream is a child of root
seed 20260814 (training keys 25/50/3100/5150 by size, test key 995,
prediction key 4242, band key 777).
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sigsurv.cavi import LowRankFactor, cavi_sweep, init_state, run_cavi
from sigsurv.data import Dataset, gen_synthetic, standardize
from sigsurv.hazard import (
    BaselinePrior,
    baseline_factor,
    build_context,
    sample_marked_pp_batch,
)
from sigsurv.map_em import run_em
from sigsurv.metrics import SurvivalCurves, c_index, ipcw_brier, ipcw_ibs, km_censor
from sigsurv.net import MlpModel, forward, forward_batch, jacobian, linearize
from sigsurv.numkit import RngStream, digamma, pg_f, pg_mean, sigmoid
from sigsurv.predict import mean_survival_matrix

from _oracles import (
    brier_brute,
    c_index_brute,
    jacobian_central_fd,
    pg_series_draws,
    woodbury_dense_inverse,
)

ROOT_SEED = 20260814
TRAIN_KEYS = {25: 25, 50: 50, 100: 3100, 150: 5150}
SIZES = (25, 50, 100, 150)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fit_one(n, key):
    root = RngStream.from_seed(ROOT_SEED)
    raw = gen_synthetic(n, root.child(key))
    X_std, stats = standardize(raw.X)
    ds = Dataset(X=X_std, y=raw.y, delta=raw.delta)
    model = MlpModel((ds.p + 1, 16, 16, 1))
    prior = BaselinePrior()
    ctx = build_context(model, prior, ds, n_nodes=64)
    t0 = time.perf_counter()
    em = run_em(ctx, root.child(key + 1))
    lin = linearize(model, em.theta_map, ctx.grid, ds)
    cavi = run_cavi(ctx, lin, em.theta_map, em.phi_map)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(n=n, raw=raw, stats=stats, ds=ds, model=model,
                           prior=prior, ctx=ctx, em=em, lin=lin, cavi=cavi,
                           seconds=seconds)


@pytest.fixture(scope="module")
def bench():
    fits = {n: _fit_one(n, key) for n, key in TRAIN_KEYS.items()}
    raw_test = gen_synthetic(100, RngStream.from_seed(ROOT_SEED).child(995))
    return SimpleNamespace(fits=fits, raw_test=raw_test)


def test_criterion_1_integrated_brier(bench):
    ibs = {}
    for n in SIZES:
        f = bench.fits[n]
        t_hi = min(f.ds.t_max,
                   float(bench.raw_test.y[bench.raw_test.delta == 1].max()))
        grid = np.linspace(0.0, t_hi, 65)
        X_te = f.stats.apply(bench.raw_test.X)
        te = Dataset(X=X_te, y=bench.raw_test.y, delta=bench.raw_test.delta)
        curves, _ = mean_survival_matrix(
            f.cavi.state, f.model, f.prior, f.em.theta_map, f.ds.t_max,
            X_te, grid, RngStream.from_seed(ROOT_SEED).child(4242),
            n_draws=200)
        ibs[n] = float(ipcw_ibs(curves, te, grid, km_censor(te)))
    steps = [ibs[b] - ibs[a] for a, b in zip(SIZES, SIZES[1:])]
    slowest = max(f.seconds for f in bench.fits.values())
    ok = (ibs[100] <= 0.18 and ibs[150] <= 0.16
          and all(s <= 0.02 for s in steps) and slowest <= 900.0)
    _report(1, ok,
            "ipcw ibs on the shared 100-subject test set "
            + " ".join(f"N={n}:{ibs[n]:.4f}" for n in SIZES)
            + f" (bars 0.18@100 / 0.16@150, worst step {max(steps):+.4f}"
            f" <= 0.02, slowest fit {slowest:.0f}s <= 900s)")


def test_criterion_2_band_narrowing(bench):
    widths = {}
    for n in SIZES:
        f = bench.fits[n]
        x0 = f.stats.apply(np.zeros((1, 4)))[0]  # group-0 profile
        times = np.linspace(0.0, f.ds.t_max, 65)
        _, band = mean_survival_matrix(
            f.cavi.state, f.model, f.prior, f.em.theta_map, f.ds.t_max,
            x0[None, :], times, RngStream.from_seed(ROOT_SEED).child(777),
            n_draws=200, level=0.9)
        widths[n] = float(np.median(band.hi[0] - band.lo[0]))
    ok = all(widths[b] < widths[a] for a, b in zip(SIZES, SIZES[1:]))
    _report(2, ok,
            "median 90% band width for the group-0 curve "
            + " > ".join(f"{widths[n]:.4f}" for n in SIZES)
            + " strictly decreasing in N")


def test_criterion_3_em_ascent(bench):
    worst_q = math.inf
    worst_obj = math.inf
    worst_m = math.inf
    for f in bench.fits.values():
        worst_q = min(worst_q, float(np.diff(f.em.q_trace).min()))
        worst_obj = min(worst_obj, float(np.diff(f.em.objective_trace).min()))
        worst_m = min(worst_m, min(r["q"] - r["q_before_m_step"]
                                   for r in f.em.records))
    small = bench.fits[25]
    ok = (worst_q >= -1e-8 and worst_obj >= -1e-8 and worst_m >= -1e-8
          and small.em.converged and small.em.n_iter <= 500)
    _report(3, ok,
            f"Q-trace non-decreasing on all four fits (worst step "
            f"{worst_q:+.2e}), log-posterior trace too (worst "
            f"{worst_obj:+.2e}), every m-step ascends (worst "
            f"{worst_m:+.2e}, slack -1e-8); N=25 converged in "
            f"{small.em.n_iter} <= 500 iterations")


def test_criterion_4_cavi_determinism(bench):
    identical = True
    worst_rel = 0.0
    for f in bench.fits.values():
        a = f.cavi
        b = run_cavi(f.ctx, f.lin, f.em.theta_map, f.em.phi_map)
        identical &= (
            a.n_iter == b.n_iter
            and a.state.alpha_tilde == b.state.alpha_tilde
            and np.array_equal(a.state.mu_tilde, b.state.mu_tilde)
            and np.array_equal(a.state.c_tilde, b.state.c_tilde)
            and np.array_equal(a.state.sigma.diag(), b.state.sigma.diag())
        )
        new = cavi_sweep(a.state, f.lin, f.ctx)
        worst_rel = max(
            worst_rel,
            abs(new.alpha_tilde - a.state.alpha_tilde) / abs(a.state.alpha_tilde),
            np.max(np.abs(new.mu_tilde - a.state.mu_tilde))
            / (np.max(np.abs(a.state.mu_tilde)) + 1e-12),
            np.max(np.abs(new.sigma.diag() - a.state.sigma.diag()))
            / np.max(a.state.sigma.diag()),
            np.max(np.abs(new.c_tilde - a.state.c_tilde))
            / (np.max(a.state.c_tilde) + 1e-12),
        )
    f = bench.fits[25]
    state = init_state(f.ctx, f.lin, f.em.theta_map, f.em.phi_map)
    betas = {state.beta_tilde}
    for _ in range(30):
        state = cavi_sweep(state, f.lin, f.ctx)
        betas.add(state.beta_tilde)
    beta_fixed = betas == {f.ctx.phi_rate}
    ok = identical and worst_rel < 1e-5 and beta_fixed
    _report(4, ok,
            f"reruns bit-identical on all four fits: {identical}; extra "
            f"sweep changes state by {worst_rel:.2e} < 1e-5 relative; "
            f"beta_tilde constant across 30 sweeps: {beta_fixed}")


def test_criterion_5_woodbury_scaling():
    rng = np.random.default_rng(5)
    worst = 0.0
    for m, R in [(120, 30), (300, 50)]:
        U = rng.normal(size=(m, R))
        C = 10.0 ** rng.uniform(-3, 1, size=R)
        fac = LowRankFactor(U=U, C=C)
        want = woodbury_dense_inverse(U, C)
        worst = max(worst,
                    np.linalg.norm(fac.dense() - want) / np.linalg.norm(want))
    sizes = [1_000, 10_000, 100_000]
    best = []
    for m in sizes:
        U = rng.normal(size=(m, 50))
        C = rng.uniform(0.1, 2.0, size=50)
        v = rng.normal(size=m)
        t_min = math.inf
        for _ in range(7):
            t0 = time.perf_counter()
            fac = LowRankFactor(U=U, C=C)
            fac.sigma_matvec(v)
            t_min = min(t_min, time.perf_counter() - t0)
        best.append(t_min)
    slope = float(np.polyfit(np.log(sizes), np.log(best), 1)[0])
    ok = worst < 1e-8 and slope <= 1.2
    _report(5, ok,
            f"factor-form inverse matches dense to {worst:.2e} < 1e-8 "
            f"rel Frobenius at (120,30) and (300,50); theta-update wall "
            f"time log-log slope {slope:.3f} <= 1.2 over m in 1e3..1e5 "
            f"at R=50 ({', '.join(f'{t * 1e3:.2f}ms' for t in best)})")


def test_criterion_6_marked_process_identity():
    worst = 0.0
    details = []
    croot = RngStream.from_seed(4600)
    for cfg in range(5):
        r = croot.child(cfg)
        layers = (3, 6, 1) if cfg % 2 == 0 else (4, 5, 1)
        model = MlpModel(layers)
        prior = BaselinePrior()
        theta = model.random_theta(r, scale=0.5)
        x = r.gen.standard_normal(layers[0] - 1)
        phi = float(r.gen.uniform(0.5, 1.5))
        y = float(r.gen.uniform(0.4, 0.9))
        times, omegas, counts = sample_marked_pp_batch(
            model, prior, phi, y, x, r, 100_000, n_grid=1024, pg_terms=400)
        g_at = (forward_batch(model, times, np.tile(x, (times.size, 1)), theta)
                if times.size else np.zeros(0))
        logf = pg_f(omegas, -g_at)
        ends = np.cumsum(counts)
        csum = np.concatenate([[0.0], np.cumsum(logf)])
        mc = float(np.exp(csum[ends] - csum[ends - counts]).mean())
        tg = np.linspace(0.0, y, 4097)
        X_rep = np.tile(x, (tg.size, 1))
        lam = phi * baseline_factor(model, prior, tg, X_rep)
        gg = forward_batch(model, tg, X_rep, theta)
        exact = float(np.exp(-np.trapezoid(lam * sigmoid(gg), tg)))
        rel = abs(mc - exact) / exact
        worst = max(worst, rel)
        details.append(f"{rel:.2%}")
    _report(6, worst < 0.01,
            "monte-carlo marked-process expectation at 1e5 replicas vs "
            "exp(-int lambda0*sigmoid) on 5 random configurations, rel "
            "errors " + " ".join(details) + " all < 1%")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7007)
    worst_brier = 0.0
    c_exact = True
    for trial in range(50):
        n = 20
        y = np.round(rng.uniform(0.5, 6.0, size=n), 2)
        delta = rng.integers(0, 2, size=n)
        delta[rng.integers(n)] = 1
        delta[np.argmax(y)] = 1
        ds = Dataset(X=rng.normal(size=(n, 2)), y=y, delta=delta)
        grid = np.linspace(0.0, 7.0, 10)
        vals = np.cumprod(rng.uniform(0.7, 0.999, size=(n, 10)), axis=1)
        sc = SurvivalCurves(times=grid, values=vals)
        A = sc.at(y)
        c_exact &= c_index(sc, ds) == c_index_brute(A.T, y, delta)
        cc = km_censor(ds)
        for t in rng.uniform(0.6, 5.5, size=3):
            worst_brier = max(
                worst_brier,
                abs(ipcw_brier(sc, ds, float(t), cc)
                    - brier_brute(sc.at([t])[:, 0], y, delta, float(t))))
    no_cens = Dataset(X=np.zeros((6, 1)), y=np.linspace(1, 6, 6),
                      delta=np.ones(6, dtype=int))
    half = SurvivalCurves(times=np.linspace(0.0, 6.0, 8),
                          values=np.full((6, 8), 0.5))
    ibs_half = ipcw_ibs(half, no_cens, np.linspace(0.2, 5.8, 12),
                        km_censor(no_cens))
    ok = c_exact and worst_brier < 1e-12 and ibs_half == 0.25
    _report(7, ok,
            f"c-index equals the double-loop oracle exactly on 50 random "
            f"N=20 instances; ipcw brier within {worst_brier:.1e} < 1e-12; "
            f"constant-1/2 predictor scores ibs = {ibs_half} under zero "
            f"censoring")


def test_criterion_8_numerical_kernels():
    rng = np.random.default_rng(88)
    n_pts = 0
    fd_ok = True
    for layers, reps in [((4, 8, 8, 1), 60), ((3, 5, 1), 45)]:
        model = MlpModel(layers)
        for _ in range(reps):
            theta = rng.normal(size=model.n_params)
            t = float(rng.uniform(0.05, 1.0))
            x = rng.normal(size=layers[0] - 1)
            J = jacobian(model, t, x, theta)
            fd = jacobian_central_fd(
                lambda th: forward(model, t, x, th), theta)
            tol = np.maximum(1e-6, 1e-4 * np.abs(fd))
            fd_ok &= bool(np.all(np.abs(J - fd) <= tol))
            n_pts += 1

    pg_ok = True
    pg_detail = []
    for i, c in enumerate((0.1, 1.0, 5.0)):
        draws = pg_series_draws(np.random.default_rng(900 + i), 1.0, c,
                                100_000, 2000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        gap = abs(draws.mean() - pg_mean(1.0, c))
        # truncated-series draws carry a tiny deterministic deficit on
        # top of monte-carlo noise; budget it alongside the 3 SE
        pg_ok &= gap < 3.0 * se + 3e-5
        pg_detail.append(f"c={c}:{gap / se:.2f}se")

    xs = np.concatenate([10.0 ** np.linspace(-2, 3, 40),
                         rng.uniform(0.1, 50.0, 40)])
    dig_err = float(np.max(np.abs(digamma(xs + 1.0) - digamma(xs) - 1.0 / xs)))

    ok = fd_ok and n_pts >= 100 and pg_ok and dig_err < 1e-10
    _report(8, ok,
            f"jacobian vs central differences on {n_pts} >= 100 points "
            f"within max(1e-6, 1e-4 rel): {fd_ok}; pg_mean vs series "
            f"monte-carlo within 3 SE ({' '.join(pg_detail)}); digamma "
            f"recurrence error {dig_err:.1e} < 1e-10")


def test_phi_moment_brackets_map(bench):
    # the Gamma factor's mean should stay commensurate with the MAP rate
    f = bench.fits[100]
    ratio = (f.cavi.state.alpha_tilde / f.cavi.state.beta_tilde) / f.em.phi_map
    assert 1.0 / 3.0 < ratio < 3.0
