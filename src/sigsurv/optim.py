"""Limited-memory BFGS with a strong-Wolfe line search.

Implemented from scratch (two-loop recursion, bracket + zoom line
search) rather than bound from a library; the maximization step of the
EM loop runs this on the negated objective. Memory defaults to 10 pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["OptimResult", "minimize_lbfgs"]


@dataclass
class OptimResult:
    """The final iterate x, f and grad there, and f0 = f(x0); n_fev
    objective evaluations, n_grad of them with the gradient taken."""

    x: np.ndarray
    f: float
    f0: float
    grad: np.ndarray
    n_iter: int
    n_fev: int
    n_grad: int
    converged: bool
    message: str


def _two_loop(g, s_list, y_list, rho_list):
    """H @ g via the standard two-loop recursion, with the gamma
    = s'y / y'y initial scaling from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        gamma = (s_list[-1] @ y_list[-1]) / (y_list[-1] @ y_list[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _quad_interp(a_lo, f_lo, dg_lo, a_hi, f_hi):
    """Minimizer of the quadratic through (a_lo, f_lo, dg_lo) and
    (a_hi, f_hi); None when degenerate."""
    denom = 2.0 * (f_hi - f_lo - dg_lo * (a_hi - a_lo))
    if denom == 0 or not np.isfinite(denom):
        return None
    a = a_lo - dg_lo * (a_hi - a_lo) ** 2 / denom
    return a if np.isfinite(a) else None


def _zoom(fg, x, d, f0, dg0, a_lo, f_lo, g_lo, dg_lo, a_hi, f_hi, c1, c2, max_iter):
    """Strong-Wolfe zoom phase; returns (alpha, f, g) or a fallback
    Armijo point when the interval collapses. A trial's gradient is
    taken only when it passes sufficient decrease and lowers f_lo."""
    for _ in range(max_iter):
        lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
        width = hi - lo
        a = _quad_interp(a_lo, f_lo, dg_lo, a_hi, f_hi)
        if a is None or not (lo + 0.1 * width <= a <= hi - 0.1 * width):
            a = 0.5 * (a_lo + a_hi)
        f_a, grad_a = fg(x + a * d)
        if not np.isfinite(f_a) or f_a > f0 + c1 * a * dg0 or f_a >= f_lo:
            a_hi, f_hi = a, f_a
        else:
            g_a = grad_a()
            dg_a = float(g_a @ d)
            if abs(dg_a) <= -c2 * dg0:
                return a, f_a, g_a
            if dg_a * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, g_lo, dg_lo = a, f_a, g_a, dg_a
        if abs(a_hi - a_lo) <= 1e-16 * max(1.0, abs(a_lo)):
            break
    if a_lo > 0 and f_lo <= f0 + c1 * a_lo * dg0:
        return a_lo, f_lo, g_lo  # Armijo-only fallback
    return None, None, None


def _wolfe_search(fg, x, f0, g0, d, a_first, c1, c2, max_iter):
    """Bracketing phase of the strong-Wolfe search (doubling steps). A
    trial's gradient is taken only when it passes sufficient decrease
    and lowers f below the previous trial's."""
    dg0 = float(g0 @ d)
    a_prev, f_prev, g_prev, dg_prev = 0.0, f0, g0, dg0
    a = a_first
    for i in range(max_iter):
        f_a, grad_a = fg(x + a * d)
        if not np.isfinite(f_a) or f_a > f0 + c1 * a * dg0 or (i > 0 and f_a >= f_prev):
            return _zoom(
                fg, x, d, f0, dg0, a_prev, f_prev, g_prev, dg_prev, a, f_a, c1, c2,
                max_iter,
            )
        g_a = grad_a()
        dg_a = float(g_a @ d)
        if abs(dg_a) <= -c2 * dg0:
            return a, f_a, g_a
        if dg_a >= 0:
            return _zoom(
                fg, x, d, f0, dg0, a, f_a, g_a, dg_a, a_prev, f_prev, c1, c2, max_iter
            )
        a_prev, f_prev, g_prev, dg_prev = a, f_a, g_a, dg_a
        a = 2.0 * a
    return None, None, None


class _Counted:
    """The objective, counting its evaluations and the gradients taken."""

    def __init__(self, fun):
        self.fun = fun
        self.n_fev = 0
        self.n_grad = 0

    def __call__(self, x):
        self.n_fev += 1
        f, grad = self.fun(x)

        def counted_grad():
            self.n_grad += 1
            return np.asarray(grad(), dtype=float)

        return f, counted_grad


def minimize_lbfgs(
    fun,
    x0,
    memory: int = 10,
    max_iter: int = 100,
    gtol: float = 1e-8,
    c1: float = 1e-4,
    c2: float = 0.9,
    max_ls: int = 30,
) -> OptimResult:
    """Minimize f over R^n given `fun(x) -> (f, grad)`, where grad is a
    zero-argument callable returning the gradient at x.

    The gradient is taken at x0 and, during the line search, only at
    trials that pass sufficient decrease: the strong-Wolfe search
    (Nocedal & Wright, 2006, Alg. 3.5-3.6) never reads it elsewhere.
    `n_fev` counts evaluations and `n_grad` gradients. Stops on
    sup-norm gradient <= gtol, iteration cap, or an irrecoverable
    line-search failure (the best iterate so far is returned either
    way; `converged` reports which exit fired).
    """
    if memory < 1 or max_iter < 1:
        raise InputError("memory and max_iter must be >= 1")
    fg = _Counted(fun)
    x = np.array(x0, dtype=float).ravel().copy()
    f0, grad0 = fg(x)
    f = f0
    g = grad0().copy()
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise InputError("objective not finite at the starting point")
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    message = "iteration cap reached"
    converged = False

    it = 0
    for it in range(max_iter):
        if np.max(np.abs(g)) <= gtol:
            converged, message = True, "gradient tolerance reached"
            break
        d = -_two_loop(g, s_list, y_list, rho_list)
        if not np.all(np.isfinite(d)) or float(g @ d) >= 0.0:
            s_list, y_list, rho_list = [], [], []
            d = -g
        a_first = 1.0 if s_list else min(1.0, 1.0 / max(1.0, float(np.abs(g).max())))
        a, f_new, g_new = _wolfe_search(fg, x, f, g, d, a_first, c1, c2, max_ls)
        if a is None:
            message = "line search failed to make progress"
            break
        x_new = x + a * d
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, f, g = x_new, f_new, g_new
    else:
        it = max_iter - 1
    if not converged and np.max(np.abs(g)) <= gtol:
        converged, message = True, "gradient tolerance reached"
    return OptimResult(
        x=x, f=float(f), f0=float(f0), grad=g, n_iter=it + 1, n_fev=fg.n_fev,
        n_grad=fg.n_grad, converged=converged, message=message,
    )
