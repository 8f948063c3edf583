"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the straightforward way (plain
loops, textbook formulas, high-precision arithmetic) and kept separate
from the package so a bug in the library cannot silently cancel out in
its own tests.  Scalar expected values frozen into the test files were
produced by these functions; the provenance comment next to each frozen
literal names the oracle call that generated it.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np


# ----------------------------------------------------------------- special fns

def sigmoid_decimal(z, digits: int = 50) -> Decimal:
    """1/(1+exp(-z)) in arbitrary-precision decimal arithmetic."""
    getcontext().prec = digits
    zd = Decimal(repr(float(z)))
    return Decimal(1) / (Decimal(1) + (-zd).exp())


def sigmoid_masked(z):
    """The logistic function by boolean-mask indexing: 1/(1+exp(-z))
    on z >= 0 and exp(z)/(1+exp(z)) elsewhere, each branch exp'ing
    only its own entries. Scalars give a float."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


# Bernoulli numbers B_2..B_12 over their indices, for the asymptotic tail.
_BERN = (
    (2, 1.0 / 6.0),
    (4, -1.0 / 30.0),
    (6, 1.0 / 42.0),
    (8, -1.0 / 30.0),
    (10, 5.0 / 66.0),
    (12, -691.0 / 2730.0),
)


def digamma_euler_maclaurin(x: float) -> float:
    """psi(x) by recurrence up past 15 plus the Euler-Maclaurin series."""
    if x <= 0:
        raise ValueError("x must be positive")
    acc = 0.0
    while x < 15.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for idx, b in _BERN:
        tail += b / idx * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def pg_mean_closed(b: float, c: float) -> float:
    """(b/2c) tanh(c/2) with the small-c limit, written independently."""
    if abs(c) < 1e-8:
        return b / 4.0
    return (b / (2.0 * c)) * math.tanh(c / 2.0)


def pg_series_draws(rng, b: float, c: float, n_draws: int, terms: int) -> np.ndarray:
    """Draws from the Polya-Gamma(b, c) infinite gamma series, truncated.

    omega = (1/(2 pi^2)) * sum_k g_k / ((k - 1/2)^2 + c^2/(4 pi^2)),
    g_k ~ Gamma(b, 1) independent.
    """
    k = np.arange(1, terms + 1, dtype=float)
    denom = (k - 0.5) ** 2 + c * c / (4.0 * math.pi**2)
    out = np.zeros(n_draws)
    chunk = 200
    for lo in range(0, terms, chunk):
        hi = min(lo + chunk, terms)
        g = rng.standard_gamma(b, size=(n_draws, hi - lo))
        out += (g / denom[lo:hi]).sum(axis=1)
    return out / (2.0 * math.pi**2)


# ------------------------------------------------------------------- network

def mlp_forward_naive(layer_sizes, theta, t, x):
    """Forward pass with explicit Python loops over units.

    `theta` is the flat vector in the library's documented layout: per
    layer, the (fan_out x fan_in) weight matrix flattened row-major
    (unit j's incoming weights are contiguous), then the fan_out
    biases.  Hidden activations are max(0, .), output is linear.
    """
    inputs = [float(t)] + [float(v) for v in x]
    pos = 0
    acts = inputs
    n_layers = len(layer_sizes) - 1
    for layer in range(n_layers):
        fan_in, fan_out = layer_sizes[layer], layer_sizes[layer + 1]
        w = []
        for j in range(fan_out):
            w.append([float(theta[pos + j * fan_in + i]) for i in range(fan_in)])
        pos += fan_in * fan_out
        bias = [float(theta[pos + j]) for j in range(fan_out)]
        pos += fan_out
        nxt = []
        for j in range(fan_out):
            s = bias[j]
            for i in range(fan_in):
                s += acts[i] * w[j][i]
            if layer < n_layers - 1:
                s = s if s > 0.0 else 0.0
            nxt.append(s)
        acts = nxt
    assert pos == len(theta)
    return acts[0]


def jacobian_central_fd(fwd, theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (fwd(up) - fwd(dn)) / (2.0 * h)
    return out


# ---------------------------------------------------------------- likelihood

def fine_grid_loglik(layer_sizes, theta, phi, rho, z_of, y, delta, X,
                     n_fine: int = 100_000) -> float:
    """Right-censored log-likelihood with a dense per-subject trapezoid.

    z_of(t, x) must return the hazard normalizer Z(t, x).  Times are in
    the same (normalized) units the model sees.
    """
    total = 0.0
    for i in range(len(y)):
        yi, di, xi = float(y[i]), int(delta[i]), X[i]
        if di:
            g = mlp_forward_naive(layer_sizes, theta, yi, xi)
            lam = phi * yi ** (rho - 1.0) / z_of(yi, xi) / (1.0 + math.exp(-g))
            total += math.log(lam)
        ts = np.linspace(0.0, yi, n_fine)
        vals = np.empty(n_fine)
        for k, t in enumerate(ts):
            g = mlp_forward_naive(layer_sizes, theta, t, xi)
            tp = t ** (rho - 1.0) if rho != 1.0 else 1.0
            vals[k] = phi * tp / z_of(t, xi) / (1.0 + math.exp(-g))
        total -= float(np.trapezoid(vals, ts))
    return total


# ------------------------------------------------------------------- metrics

def km_product_limit(times, indicators):
    """Product-limit estimator treating `indicators`==1 as the event of
    interest.  Returns (jump_times, curve_values_right_of_jump)."""
    times = np.asarray(times, dtype=float)
    indicators = np.asarray(indicators, dtype=int)
    uniq = np.unique(times)
    surv = 1.0
    out_t, out_s = [], []
    for u in uniq:
        at_risk = int((times >= u).sum())
        d = int(((times == u) & (indicators == 1)).sum())
        if d > 0:
            surv *= 1.0 - d / at_risk
        out_t.append(float(u))
        out_s.append(surv)
    return np.asarray(out_t), np.asarray(out_s)


def km_eval(jump_t, jump_s, t, left: bool = False) -> float:
    """Evaluate the right-continuous step curve; `left` gives C(t-)."""
    s = 1.0
    for jt, js in zip(jump_t, jump_s):
        if (jt < t) if left else (jt <= t):
            s = js
        else:
            break
    return s


def c_index_brute(surv_at_own_time, y, delta) -> float:
    """Antolini concordance by explicit double loop.

    surv_at_own_time[i][j] = subject j's predicted survival evaluated
    at y_i.  Comparable pairs: delta_i = 1 and y_i < y_j.
    """
    n = len(y)
    conc = 0.0
    total = 0
    for i in range(n):
        if not delta[i]:
            continue
        for j in range(n):
            if y[i] < y[j]:
                total += 1
                si = surv_at_own_time[i][i]
                sj = surv_at_own_time[i][j]
                if si < sj:
                    conc += 1.0
                elif si == sj:
                    conc += 0.5
    if total == 0:
        raise ZeroDivisionError("no comparable pairs")
    return conc / total


def brier_brute(surv_at_t, y, delta, t) -> float:
    """IPCW Brier score at time t by explicit loop, with its own
    product-limit censoring curve (left limits at event times)."""
    jump_t, jump_s = km_product_limit(y, 1 - np.asarray(delta, dtype=int))
    n = len(y)
    total = 0.0
    for i in range(n):
        if y[i] <= t and delta[i]:
            c = km_eval(jump_t, jump_s, y[i], left=True)
            total += (0.0 - surv_at_t[i]) ** 2 / c
        elif y[i] > t:
            c = km_eval(jump_t, jump_s, t, left=False)
            total += (1.0 - surv_at_t[i]) ** 2 / c
    return total / n


def ibs_brute(surv_matrix, grid, y, delta) -> float:
    """Trapezoid average of the brute Brier score over `grid`."""
    scores = [brier_brute(surv_matrix[:, k], y, delta, t)
              for k, t in enumerate(grid)]
    return float(np.trapezoid(scores, grid) / (grid[-1] - grid[0]))


def c_index_dense(curves, y, delta) -> float:
    """The all-pairs vectorized concordance the blocked `c_index`
    replaced: several (N, N) float arrays, one float sum of the pair
    scores. `curves` needs only `.at`."""
    A = curves.at(y)          # A[j, i] = S_j(y_i)
    own = np.diag(A)          # S_i(y_i)
    s_j_at_yi = A.T           # (i, j)
    comparable = (delta[:, None] == 1) & (y[:, None] < y[None, :])
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise ZeroDivisionError("no comparable pairs")
    conc = (own[:, None] < s_j_at_yi).astype(float)
    ties = (own[:, None] == s_j_at_yi).astype(float)
    score = float((comparable * (conc + 0.5 * ties)).sum())
    return score / n_pairs


def km_censor_loop(y, delta):
    """The censoring product-limit curve by one pass over the unique
    times, as (times, surv): the loop the sorted `km_censor` replaced."""
    cens = 1 - delta
    times = np.unique(y)
    n_at_risk = np.array([(y >= u).sum() for u in times], dtype=float)
    d_cens = np.array([cens[y == u].sum() for u in times], dtype=float)
    factors = 1.0 - d_cens / n_at_risk
    return times, np.cumprod(factors)


def brier_node(s_t, y, delta, t, censor):
    """One node of the IPCW Brier score, formed the way the per-node
    `ipcw_brier` did before `ipcw_ibs` scored the grid in one pass;
    None where a censor weight is undefined (C = 0)."""
    past_event = (y <= t) & (delta == 1)
    still_at_risk = y > t
    c_left = censor.eval_left(y)
    c_t = float(censor.eval([float(t)])[0])
    if np.any(past_event & (c_left <= 0.0)):
        return None
    if still_at_risk.any() and c_t <= 0.0:
        return None
    term1 = np.zeros(y.size)
    np.divide(s_t**2, c_left, out=term1, where=past_event)
    term1[~past_event] = 0.0
    term2 = np.where(still_at_risk, (1.0 - s_t) ** 2 / max(c_t, 1e-300), 0.0)
    return float((term1 + term2).mean())


def ibs_node_loop(curves, y, delta, grid, censor):
    """The integrated Brier score by one `brier_node` call per grid
    node, skipping dead nodes; returns (ibs, number skipped)."""
    vals, kept = [], []
    for t in grid:
        v = brier_node(curves.at([float(t)])[:, 0], y, delta, float(t), censor)
        if v is not None:
            vals.append(v)
            kept.append(float(t))
    kept_arr = np.asarray(kept)
    ibs = float(np.trapezoid(np.asarray(vals), kept_arr)
                / (kept_arr[-1] - kept_arr[0]))
    return ibs, len(grid) - len(kept)


# ---------------------------------------------------------------- Q function

def q_straightline(y_norm, delta, X, nodes, weights, layer_sizes,
                   state_theta, state_phi, theta, phi, z_of,
                   alpha0, beta0, rho) -> float:
    """The EM objective transcribed term by term, scalar loops only.

    Latents are refreshed at (state_theta, state_phi) exactly as during
    the expectation step, then the objective is evaluated at (theta,
    phi).  Integrals use the same trapezoid weights the library uses so
    the comparison isolates the formula, not the quadrature.
    """
    n = len(y_norm)
    total = 0.0
    for i in range(n):
        xi = X[i]
        if delta[i]:
            g_state = mlp_forward_naive(layer_sizes, state_theta, y_norm[i], xi)
            c = abs(g_state)
            e_om = (math.tanh(c / 2.0) / (2.0 * c)) if c > 1e-8 else 0.25
            g_new = mlp_forward_naive(layer_sizes, theta, y_norm[i], xi)
            total += 0.5 * g_new - 0.5 * e_om * g_new * g_new
        for k, t in enumerate(nodes):
            v = weights[i][k]
            if v == 0.0:
                continue
            g_state = mlp_forward_naive(layer_sizes, state_theta, t, xi)
            tp = t ** (rho - 1.0) if rho != 1.0 else 1.0
            lam = (tp / z_of(t, xi)) * state_phi \
                / (1.0 + math.exp(-abs(g_state))) \
                * math.exp(-0.5 * (g_state + abs(g_state)))
            a = abs(g_state)
            tau = (math.tanh(a / 2.0) / (2.0 * a)) if a > 1e-8 else 0.25
            g_new = mlp_forward_naive(layer_sizes, theta, t, xi)
            total -= v * lam * (0.5 * g_new + 0.5 * tau * g_new * g_new)
    # log phi coefficient: prior shape-1 plus events plus expected counts
    a_coef = alpha0 - 1.0 + float(np.sum(delta))
    phi_rate = beta0
    for i in range(n):
        for k, t in enumerate(nodes):
            v = weights[i][k]
            if v == 0.0:
                continue
            g_state = mlp_forward_naive(layer_sizes, state_theta, t, X[i])
            tp = t ** (rho - 1.0) if rho != 1.0 else 1.0
            lam = (tp / z_of(t, X[i])) * state_phi \
                / (1.0 + math.exp(-abs(g_state))) \
                * math.exp(-0.5 * (g_state + abs(g_state)))
            a_coef += v * lam
            phi_rate += v * tp / z_of(t, X[i])
    total += a_coef * math.log(phi) - phi_rate * phi
    for th in theta:
        total -= 0.5 * float(th) * float(th)
    return total


def _pg1(c):
    """E[PG(1, c)] = tanh(c/2) / (2c), elementwise, 1/4 at c = 0."""
    c = np.asarray(c, dtype=float)
    safe = np.where(np.abs(c) < 1e-8, 1.0, c)
    return np.where(np.abs(c) < 1e-8, 0.25, np.tanh(safe / 2.0) / (2.0 * safe))


def em_full_grid(forward, grad_sum, y_norm, delta, X, nodes, weights,
                 base_grid, alpha0, beta0, state_theta, state_phi, theta, phi):
    """EM's latents, Q and gradient over every (subject, node) pair of
    the full grid, as EM computed them before it ran on the live pairs
    only: (N, K) per-pair arrays and weight-masked sums. The E-step
    latents come from (state_theta, state_phi); Q and its gradient in
    (theta, log phi) are taken at (theta, phi), with the entropy
    constant dropped. `forward(T, X, theta)` evaluates the network row
    by row, `grad_sum(T, X, theta, w)` is the gradient of
    sum_j w_j g(t_j, x_j; theta), and base_grid (N, K) is the baseline
    factor at the nodes. Returns a dict of c_event, e_omega, lam_grid,
    tau_grid (both (N, K)), a_coef, phi_rate, q and grad."""
    delta = np.asarray(delta, dtype=float)
    N, K = weights.shape
    T_tile = np.tile(nodes, N)
    X_rep = np.repeat(X, K, axis=0)

    g_event = forward(y_norm, X, state_theta)
    c_event = delta * np.abs(g_event)
    e_omega = _pg1(c_event)
    g_grid = forward(T_tile, X_rep, state_theta).reshape(N, K)
    ag = np.abs(g_grid)
    lam_grid = (base_grid * state_phi * sigmoid_masked(ag)
                * np.exp(-0.5 * (g_grid + ag)))
    tau_grid = _pg1(ag)
    a_coef = alpha0 - 1.0 + delta.sum() + float((weights * lam_grid).sum())
    phi_rate = beta0 + float(np.einsum("nk,nk->n", weights, base_grid).sum())

    g_event = forward(y_norm, X, theta)
    g_grid = forward(T_tile, X_rep, theta).reshape(N, K)
    vlam = weights * lam_grid
    q = (float((delta * (0.5 * g_event - 0.5 * e_omega * g_event**2)).sum())
         - float((vlam * (0.5 * g_grid + 0.5 * tau_grid * g_grid**2)).sum())
         - 0.5 * float(theta @ theta)
         + a_coef * math.log(phi) - phi_rate * phi)
    w_event = delta * (0.5 - e_omega * g_event)
    w_grid = -vlam * (0.5 + tau_grid * g_grid)
    d_theta = grad_sum(np.concatenate([y_norm, T_tile]), np.vstack([X, X_rep]),
                       theta, np.concatenate([w_event, w_grid.ravel()])) - theta
    return {
        "c_event": c_event, "e_omega": e_omega,
        "lam_grid": lam_grid, "tau_grid": tau_grid,
        "a_coef": a_coef, "phi_rate": phi_rate, "q": q,
        "grad": np.concatenate([d_theta, [a_coef - phi_rate * phi]]),
    }


def run_em_eager(ctx, rng, init_scale=0.1, tol=1e-6, max_iter=500):
    """`map_em.run_em` as it ran before its evaluations shared network
    traces: every network value is a fresh `forward_batch` over the row
    block's (t, x) rows, every M-step evaluation takes its gradient at
    once from its own forward trace and hands the optimizer a callable
    returning it, and the latents, (a, b), Q, its gradient and the log
    posterior are written out in full in the library's operation
    order. Each M-step runs at most 100 L-BFGS iterations to a
    gradient tolerance of 1e-6. Unlike the oracles above it calls the
    package's network, Polya-Gamma mean and optimizer: what it checks
    is that sharing traces and deferring gradients changes no bit of
    the fit. Like run_em it stops when the log posterior's relative
    change is below tol twice in a row. Returns
    (theta, phi, q_trace, objective_trace, records, n_iter)."""
    from sigsurv.hazard import log_prior
    from sigsurv.net import forward_batch, trace
    from sigsurv.numkit import pg_mean, sigmoid
    from sigsurv.optim import minimize_lbfgs

    model, ds = ctx.model, ctx.dataset
    T, X, n, delta = ctx.inputs[:, 0], ctx.inputs[:, 1:], ds.n, ds.delta
    theta = (model.random_theta(rng, scale=init_scale) if init_scale > 0
             else model.zero_theta())
    phi = ctx.prior.alpha0 / ctx.prior.beta0

    def log_post(phi, theta):
        g = forward_batch(model, T, X, theta)
        lam_event = phi * ctx.base_event * sigmoid(g[:n])
        cum = float((ctx.w_live * (phi * ctx.base_live * sigmoid(g[n:]))).sum())
        with np.errstate(divide="ignore"):
            log_lam = np.log(lam_event)
        event_terms = np.where(delta == 1, log_lam, 0.0)
        return float(event_terms.sum() - cum) + log_prior(
            ctx.prior, phi, theta)

    q_trace, objective_trace, records = [], [], []
    hits = 0
    it = 0
    for it in range(max_iter):
        g = forward_batch(model, T, X, theta)
        e_omega = pg_mean(delta * np.abs(g[:n]))
        ag = np.abs(g[n:])
        lam = ctx.base_live * phi * sigmoid(ag) * np.exp(-0.5 * (g[n:] + ag))
        tau = pg_mean(ag)
        a_coef = (ctx.prior.alpha0 - 1.0 + float(delta.sum())
                  + float((ctx.w_live * lam).sum()))
        vlam = ctx.w_live * lam
        a = np.concatenate([0.5 * delta, -0.5 * vlam])
        b = np.concatenate([delta * e_omega, vlam * tau])

        def neg_q(z):
            th, ph = z[:-1], float(np.exp(z[-1]))
            tr = trace(model, np.column_stack([T, X]), th)
            g, d_rows = tr.g, tr.grad(a - b * tr.g)
            q = (float((a * g - 0.5 * b * g**2).sum())
                 + -0.5 * float(th @ th)
                 + (a_coef * float(np.log(ph)) - ctx.phi_rate * ph))
            grad = np.concatenate([d_rows - th,
                                   [a_coef - ctx.phi_rate * ph]])
            return -q, lambda: -grad

        res = minimize_lbfgs(neg_q, np.concatenate([theta, [np.log(phi)]]),
                             max_iter=100, gtol=1e-6)
        theta, phi = res.x[:-1], float(np.exp(res.x[-1]))
        q_trace.append(-res.f)
        objective_trace.append(log_post(phi, theta))
        records.append({
            "iteration": it, "q": -res.f, "q_before_m_step": -res.f0,
            "objective": objective_trace[-1], "phi": phi,
            "theta_norm": float(np.linalg.norm(theta)),
            "evaluations": res.n_fev, "gradients": res.n_grad,
        })
        if len(objective_trace) >= 2:
            prev = objective_trace[-2]
            rel = abs(objective_trace[-1] - prev) / (abs(prev) + 1e-12)
            hits = hits + 1 if rel < tol else 0
            if hits >= 2:
                break
    return (theta, phi, np.asarray(q_trace), np.asarray(objective_trace),
            records, it + 1)


# ------------------------------------------------------------ linearization

def rsvd_singular_basis(J):
    """J's singular basis at its numerical rank the R-SVD way, with no
    truncation before the SVD: an economic QR of J's tall orientation
    (J^T when R <= m), Q formed explicitly, then gesdd of the whole
    square triangular factor. Returns (V (m, r), JV (R, r), s), s all
    min(R, m) singular values; r counts s > s[0] * max(R, m) * eps."""
    from scipy.linalg import qr, svd

    wide = J.shape[0] <= J.shape[1]
    Q, F = qr(J.T if wide else J, mode="economic")
    U, s, Wt = svd(F, lapack_driver="gesdd")
    r = int(np.count_nonzero(s > s[0] * max(J.shape) * np.finfo(float).eps))
    if wide:  # J = Wt^T S (Q U)^T
        return Q @ U[:, :r], Wt[:r].T * s[:r], s
    return Wt[:r].T, (Q @ U[:, :r]) * s[:r], s


# ----------------------------------------------------------------- CAVI bits

def psi_rate_scalar(m_t, s_t, e_log_phi, base) -> float:
    """The thinned-process rate formula re-derived one scalar at a time:
    base * sigma(s) * exp(-(m+s)/2 + E[log phi])."""
    sig = 1.0 / (1.0 + math.exp(-s_t))
    return base * sig * math.exp(-0.5 * (m_t + s_t) + e_log_phi)


def woodbury_dense_inverse(U, C) -> np.ndarray:
    """(1/2) B^{-1} for B = (1/2)(I + U diag(C) U^T), by dense inversion."""
    m = U.shape[0]
    B = 0.5 * (np.eye(m) + (U * C) @ U.T)
    return 0.5 * np.linalg.inv(B)


def cavi_sweep_all_pairs(J_grid, g_grid, J_event, g_event, theta_ref,
                         weights, base_grid, delta, alpha0, alpha, beta):
    """One CAVI sweep (omega, psi, phi, theta) from the MAP-matched start
    (mu = theta_ref, Sigma = I, E[log phi] = psi(alpha) - log beta),
    evaluated at every (subject, node) pair of the full grid: J_grid is
    (N, K, m) and g_grid (N, K). Integrals are weight-masked sums over
    all N*K pairs, so pairs with zero weight drop out by multiplication
    rather than by being skipped. The Gaussian factor is a dense
    inverse. Returns a dict of the swept quantities; per-pair ones are
    (N, K)."""
    delta = np.asarray(delta, dtype=float)
    m = theta_ref.size

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def moments(mu, Sigma):
        shift = mu - theta_ref
        mg = g_grid + np.einsum("nkm,m->nk", J_grid, shift)
        sg = np.sqrt(mg**2 + np.einsum("nkm,ml,nkl->nk", J_grid, Sigma, J_grid))
        me = g_event + J_event @ shift
        se = np.sqrt(me**2 + np.einsum("nm,ml,nl->n", J_event, Sigma, J_event))
        return mg, sg, me, se

    e_log_phi0 = digamma_euler_maclaurin(alpha) - math.log(beta)
    m_grid, s_grid, _, s_event = moments(theta_ref, np.eye(m))

    c = delta * s_event
    e_omega = _pg1(c)
    lam = base_grid * sig(s_grid) * np.exp(-0.5 * (m_grid + s_grid) + e_log_phi0)
    new_alpha = alpha0 + delta.sum() + float((weights * lam).sum())
    e_log_phi = digamma_euler_maclaurin(new_alpha) - math.log(beta)

    tau = _pg1(s_grid)
    vlam = weights * lam
    off_event = g_event - J_event @ theta_ref
    off_grid = g_grid - np.einsum("nkm,m->nk", J_grid, theta_ref)
    B = 0.5 * (np.eye(m)
               + np.einsum("n,nm,nl->ml", delta * e_omega, J_event, J_event)
               + np.einsum("nk,nkm,nkl->ml", vlam * tau, J_grid, J_grid))
    A = (np.einsum("n,nm->m", 0.5 * delta * (1.0 - 2.0 * e_omega * off_event),
                   J_event)
         - np.einsum("nk,nkm->m", 0.5 * vlam * (1.0 + 2.0 * tau * off_grid),
                     J_grid))
    Sigma = 0.5 * np.linalg.inv(B)
    mu = Sigma @ A
    m_grid, s_grid, m_event, s_event = moments(mu, Sigma)
    return {
        "c_tilde": c, "e_omega": e_omega, "lam_q": lam,
        "alpha_tilde": new_alpha, "e_log_phi": e_log_phi,
        "mu_tilde": mu, "sigma": Sigma,
        "m_grid": m_grid, "s_grid": s_grid,
        "m_event": m_event, "s_event": s_event,
    }


# ----------------------------------------------------------------- predict

def predictive_per_subject(post, g_and_J, rho, theta_map, t_max, X, times,
                           rng, n_draws, level):
    """Posterior predictive survival one subject at a time: the draws
    (phi from its Gamma factor, then theta = mu + Sigma^(1/2) z), then
    per subject the linearized hazard on the grid (t = 0 prepended when
    absent), a cumulative trapezoid along time and exp(-.), reduced over
    draws to the mean, the median and an equal-tailed band (min/max
    below 20 draws). `g_and_J(t_norm, X_rep)` returns the network value
    and Jacobian at theta_map on those rows; the baseline is
    t^(rho-1) / (1/2). Returns (mean, median, lo, hi), each (n, T)."""
    theta_map = np.asarray(theta_map, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t_norm = np.asarray(times, dtype=float) / float(t_max)
    prepend_zero = t_norm[0] > 0.0
    tq = np.concatenate([[0.0], t_norm]) if prepend_zero else t_norm

    phi = rng.gen.gamma(float(post.alpha_tilde), 1.0 / float(post.beta_tilde),
                        size=n_draws)
    z = rng.gen.standard_normal((theta_map.size, n_draws))
    theta = post.mu_tilde[:, None] + post.sigma.sqrt_matvec(z)

    t_pow = (np.ones_like(tq) if rho == 1.0
             else np.maximum(tq, 1e-12) ** (rho - 1.0))
    base = t_pow / 0.5
    out = {"mean": [], "median": [], "lo": [], "hi": []}
    for x in X:
        g, J = g_and_J(tq, np.tile(x, (tq.size, 1)))
        g_lin = g[:, None] + J @ (theta - theta_map[:, None])
        lam = phi[None, :] * base[:, None] * sigmoid_masked(g_lin)
        cum = np.zeros_like(lam)
        if tq.size > 1:
            cum[1:, :] = np.cumsum(
                0.5 * (lam[1:, :] + lam[:-1, :]) * np.diff(tq)[:, None],
                axis=0)
        surv = np.exp(-cum)
        curves = (surv[1:, :] if prepend_zero else surv).T  # (S, T)
        if n_draws >= 20:
            a = 1.0 - level
            lo = np.quantile(curves, a / 2.0, axis=0)
            hi = np.quantile(curves, 1.0 - a / 2.0, axis=0)
        else:
            lo, hi = curves.min(axis=0), curves.max(axis=0)
        out["mean"].append(curves.mean(axis=0))
        out["median"].append(np.quantile(curves, 0.5, axis=0))
        out["lo"].append(lo)
        out["hi"].append(hi)
    return tuple(np.vstack(out[k]) for k in ("mean", "median", "lo", "hi"))
