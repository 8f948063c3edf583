"""Coordinate-ascent variational inference in the augmented, linearized
model.

The variational family factorizes as Gamma(alpha~, beta~) over phi,
N(mu~, Sigma~) over theta, per-observation Polya-Gamma factors over the
event marks, and a marked-Poisson factor over the thinned points. One
sweep cyclically applies the four closed-form updates in the fixed
order omega -> psi -> phi -> theta; beta~ is a data-only constant.

The theta update solves mu~ = Sigma~ A, Sigma~ = (I + J^T diag(b) J)^(-1)
over the row block (the N event rows, then the P live (subject, node)
pairs with nonzero trapezoid weight, packed subject-major; see
HazardContext), with b the nonnegative row weights of the quadratic
form (`hazard.row_coefficients`). J is fixed for the whole run, so it
works in J's thin singular basis J = P S V^T of rank r, computed once
by `net.linearize`: with JV = P S, each sweep takes the eigenvalues c
and eigenvectors Q of the r x r matrix M = (JV)^T diag(b) JV, and
Sigma~ = (I + U diag(c) U^T)^(-1) with orthonormal U = V Q. Every
product a sweep forms is (R, r) or (m, r), so it costs
O((R + m) r^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, InputError, NumericalError
from .hazard import HazardContext, row_coefficients
from .net import LinearizedModel
from .numkit import digamma, pg_mean, sigmoid

__all__ = [
    "LowRankFactor",
    "SigmaDense",
    "VariationalState",
    "CaviResult",
    "build_factor",
    "update_omega",
    "update_psi",
    "update_phi",
    "update_theta",
    "cavi_sweep",
    "run_cavi",
]

_EXP_CLAMP = 700.0


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor; a matrix that is not positive definite is
    a NumericalError."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"{what}: matrix not positive definite "
            "(quadrature weights may be corrupted)"
        ) from None


def _tri_solve(L: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    from scipy.linalg import solve_triangular

    return solve_triangular(L, b, lower=lower, check_finite=False)


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return _tri_solve(L.T, _tri_solve(L, rhs, lower=True), lower=False)


class SigmaDense:
    """Dense covariance of a posterior stated directly (e.g. a point
    mass): row-wise quadratic forms J Sigma J^T and a Cholesky square
    root for sampling. CAVI never produces one."""

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=float)
        self.mat = 0.5 * (mat + mat.T)
        self._chol: np.ndarray | None = None

    def quad_rows(self, J: np.ndarray) -> np.ndarray:
        J2 = np.atleast_2d(J)
        return np.maximum(np.einsum("nm,nm->n", J2 @ self.mat, J2), 0.0)

    def sqrt_matvec(self, z: np.ndarray) -> np.ndarray:
        if self._chol is None:
            self._chol = _cholesky(self.mat, "covariance square root")
        return self._chol @ z


@dataclass
class LowRankFactor:
    """Factor form of B = (1/2)(I_m + U C U^T) for any U (m, R) and R
    nonnegative diagonal weights C; CAVI's has orthonormal U = V Q (see
    `build_factor`). Zero-weight columns are dropped internally before
    any solve: they contribute nothing to U C U^T."""

    U: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.C = np.asarray(self.C, dtype=float).ravel()
        if self.U.ndim != 2 or self.U.shape[1] != self.C.shape[0]:
            raise InputError("U must be (m, R) with C of length R")
        if np.any(self.C < 0) or not np.all(np.isfinite(self.C)):
            raise NumericalError(
                "negative or non-finite factor weights (quadrature corruption)"
            )
        if not np.all(np.isfinite(self.U)):
            raise NumericalError("non-finite factor columns U")
        keep = self.C > 0.0
        self._Uw = self.U[:, keep] * np.sqrt(self.C[keep])  # U C^(1/2), pruned
        self._chol: np.ndarray | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def effective_rank(self) -> int:
        return self._Uw.shape[1]

    def assemble_B(self) -> np.ndarray:
        """Dense B = (1/2)(I + U C U^T); for tests."""
        m = self.dim
        return 0.5 * (np.eye(m) + (self.U * self.C) @ self.U.T)

    def gram(self) -> np.ndarray:
        """U'^T U' for the weighted, pruned columns U' = U C^(1/2)."""
        return self._Uw.T @ self._Uw

    def _prep(self) -> np.ndarray:
        if self._chol is None:
            r = self.effective_rank
            M = np.eye(r) + self.gram()
            self._chol = _cholesky(M, "Woodbury small matrix")
        return self._chol

    def sigma_matvec(self, v: np.ndarray) -> np.ndarray:
        """Sigma~ v with Sigma~ = (I + U C U^T)^(-1)."""
        if self.effective_rank == 0:
            return np.asarray(v, dtype=float).copy()
        L = self._prep()
        return v - self._Uw @ _cho_solve(L, self._Uw.T @ v)

    def solve_B(self, rhs: np.ndarray) -> np.ndarray:
        """B^(-1) rhs = 2 Sigma~ rhs."""
        return 2.0 * self.sigma_matvec(rhs)

    def quad_rows(self, J: np.ndarray) -> np.ndarray:
        """Row-wise J_n Sigma~ J_n^T for J (n, m)."""
        J2 = np.atleast_2d(J)
        base = np.einsum("nm,nm->n", J2, J2)
        if self.effective_rank == 0:
            return base
        L = self._prep()
        P = J2 @ self._Uw  # (n, r)
        W = _tri_solve(L, P.T, lower=True)  # (r, n)
        return np.maximum(base - np.einsum("rn,rn->n", W, W), 0.0)

    def diag(self) -> np.ndarray:
        if self.effective_rank == 0:
            return np.ones(self.dim)
        L = self._prep()
        W = _tri_solve(L, self._Uw.T, lower=True)  # (r, m)
        return np.maximum(1.0 - np.einsum("rm,rm->m", W, W), 0.0)

    def dense(self) -> np.ndarray:
        """Materialized Sigma~ (small m only)."""
        m = self.dim
        if self.effective_rank == 0:
            return np.eye(m)
        L = self._prep()
        W = _tri_solve(L, self._Uw.T, lower=True)
        return np.eye(m) - W.T @ W

    def sqrt_matvec(self, z: np.ndarray) -> np.ndarray:
        """L z with L L^T = Sigma~, exact in O(m R) per vector:
        L = I - U' Q diag(s) Q^T U'^T, where U'^T U' = Q diag(g) Q^T and
        s = (1 - 1/sqrt(1 + g)) / g (limit 1/2 at g -> 0)."""
        if self.effective_rank == 0:
            return np.asarray(z, dtype=float).copy()
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.gram())
            vals = np.maximum(vals, 0.0)
            s = np.where(
                vals > 1e-12, (1.0 - 1.0 / np.sqrt(1.0 + vals)) / np.maximum(vals, 1e-300), 0.5
            )
            self._eig = (s, vecs)
        s, Q = self._eig
        e = Q.T @ (self._Uw.T @ z)
        if e.ndim == 1:
            return z - self._Uw @ (Q @ (s * e))
        return z - self._Uw @ (Q @ (s[:, None] * e))


@dataclass(frozen=True)
class VariationalState:
    """All variational parameters plus the cached linearized moments:
    m~ and s~ are the posterior mean of g and the square root of its
    posterior second moment on the LinearizedModel's row block (N event
    rows, then the P live grid pairs); lam_q holds the live pairs."""

    alpha_tilde: float
    beta_tilde: float
    mu_tilde: np.ndarray
    sigma: LowRankFactor
    c_tilde: np.ndarray      # (N,)
    e_omega: np.ndarray      # (N,)
    lam_q: np.ndarray        # (P,)
    e_log_phi: float
    m_tilde: np.ndarray      # (N+P,)
    s_tilde: np.ndarray      # (N+P,)

    def finite(self) -> bool:
        scalars = np.array(
            [self.alpha_tilde, self.beta_tilde, self.e_log_phi], dtype=float
        )
        arrays = (self.mu_tilde, self.c_tilde, self.e_omega, self.lam_q,
                  self.m_tilde, self.s_tilde)
        return bool(
            np.all(np.isfinite(scalars))
            and all(np.all(np.isfinite(a)) for a in arrays)
        )


@dataclass
class CaviResult:
    state: VariationalState
    rel_trace: np.ndarray
    converged: bool
    n_iter: int
    message: str


def init_state(
    ctx: HazardContext, lin: LinearizedModel, theta_map, phi_map: float
) -> VariationalState:
    """Start from the MAP estimate: alpha~ = phi_MAP * beta~ (so
    E[phi] = phi_MAP), mu~ = theta_MAP, Sigma~ = I (the empty factor)."""
    if phi_map <= 0:
        raise InputError("phi_map must be positive")
    theta_map = np.asarray(theta_map, dtype=float)
    beta_tilde = ctx.phi_rate
    alpha_tilde = phi_map * beta_tilde
    sigma = LowRankFactor(U=np.zeros((theta_map.size, 0)), C=np.zeros(0))
    m_tilde = lin.g_lin(theta_map)
    N = lin.n_event
    return VariationalState(
        alpha_tilde=alpha_tilde,
        beta_tilde=beta_tilde,
        mu_tilde=theta_map.copy(),
        sigma=sigma,
        c_tilde=np.zeros(N),
        e_omega=np.full(N, 0.25),
        lam_q=np.zeros_like(ctx.w_live),
        e_log_phi=float(digamma(alpha_tilde) - np.log(beta_tilde)),
        m_tilde=m_tilde,
        s_tilde=np.sqrt(m_tilde**2 + sigma.quad_rows(lin.J)),
    )


def update_omega(state: VariationalState, lin: LinearizedModel,
                 ctx: HazardContext) -> VariationalState:
    """c~_i = delta_i s~_i(y_i); E[omega_i] = tanh(c/2)/(2c) with the
    1/4 limit at c = 0 (censored rows keep the limit value, which only
    ever appears multiplied by delta_i downstream)."""
    c_tilde = ctx.dataset.delta * state.s_tilde[:lin.n_event]
    return replace(state, c_tilde=c_tilde, e_omega=pg_mean(1.0, c_tilde))


def update_psi(state: VariationalState, lin: LinearizedModel,
               ctx: HazardContext) -> VariationalState:
    """Thinned-process rates at the live grid pairs:
    lambda_i(t) = (t^(rho-1)/Z) sigma(s~) exp(-(m~+s~)/2 + E[log phi]),
    using the moments and E[log phi] cached by the previous sweep."""
    m_grid, s_grid = state.m_tilde[lin.n_event:], state.s_tilde[lin.n_event:]
    expo = -0.5 * (m_grid + s_grid) + state.e_log_phi
    if np.any(expo > _EXP_CLAMP):
        warnings.warn(
            "rate exponent clamped at 700; variational state may be diverging",
            RuntimeWarning,
            stacklevel=2,
        )
        expo = np.minimum(expo, _EXP_CLAMP)
    lam_q = ctx.base_live * sigmoid(s_grid) * np.exp(expo)
    return replace(state, lam_q=lam_q)


def update_phi(state: VariationalState, ctx: HazardContext) -> VariationalState:
    """alpha~ = alpha0 + sum_i (delta_i + int lambda_i); beta~ is the
    data-only constant fixed at initialization. E[log phi] refreshes
    immediately from the new alpha~."""
    ds = ctx.dataset
    alpha = ctx.prior.alpha0 + float(ds.delta.sum()) + float(
        (ctx.w_live * state.lam_q).sum()
    )
    e_log_phi = float(digamma(alpha) - np.log(state.beta_tilde))
    return replace(state, alpha_tilde=alpha, e_log_phi=e_log_phi)


def _row_coefficients(state: VariationalState, lin: LinearizedModel,
                      ctx: HazardContext):
    """(a, b) of the row block with tau = pg_mean(1, s~) at the live
    pairs."""
    tau = pg_mean(1.0, state.s_tilde[lin.n_event:])
    return row_coefficients(ctx, state.e_omega, state.lam_q, tau)


def build_factor(
    state: VariationalState, lin: LinearizedModel, ctx: HazardContext
) -> LowRankFactor:
    """Sigma~'s factor: M = (JV)^T diag(b) JV = Q diag(c) Q^T (c clamped
    at 0 against rounding), U = V Q and C = c, so that
    U C U^T = J^T diag(b) J on J's row space. b carries delta_i
    E[omega_i] on the event rows and the folded quadrature weight
    v_ik lambda_ik tau_ik, tau = pg_mean(1, s~), on the live pairs."""
    _, b = _row_coefficients(state, lin, ctx)
    c, Q = np.linalg.eigh((lin.JV * b[:, None]).T @ lin.JV)
    return LowRankFactor(U=lin.V @ Q, C=np.maximum(c, 0.0))


def update_theta(
    state: VariationalState,
    lin: LinearizedModel,
    ctx: HazardContext,
) -> VariationalState:
    """mu~ = (1/2) B^(-1) A and Sigma~ = (1/2) B^(-1), with
    A = J^T (a - b off) over the row block and off = g_map - J theta_map
    the linearization offset, then the cached moments on the whole row
    block: m~ = off + J mu~ and s~ = sqrt(m~^2 + rows of J Sigma~ J^T).
    In the factor's basis, with w = diag(1/(1+c)) (JV Q)^T (a - b off),
    mu~ = U w and J mu~ = JV Q w (mu~ lies in J's row space), and the
    rows of J Sigma~ J^T are the squared row norms of
    JV Q diag((1+c)^(-1/2))."""
    factor = build_factor(state, lin, ctx)
    a, b = _row_coefficients(state, lin, ctx)
    JVQ = lin.JV @ (lin.V.T @ factor.U)  # Q = V^T U
    shrink = 1.0 / (1.0 + factor.C)
    w = shrink * (JVQ.T @ (a - b * lin.offset))
    m_tilde = lin.offset + JVQ @ w
    s_tilde = np.sqrt(m_tilde**2 + np.einsum("nr,nr->n", JVQ * shrink, JVQ))
    return replace(state, mu_tilde=factor.U @ w, sigma=factor,
                   m_tilde=m_tilde, s_tilde=s_tilde)


def cavi_sweep(
    state: VariationalState,
    lin: LinearizedModel,
    ctx: HazardContext,
) -> VariationalState:
    """One full coordinate sweep in the fixed order omega, psi, phi,
    theta."""
    state = update_omega(state, lin, ctx)
    state = update_psi(state, lin, ctx)
    state = update_phi(state, ctx)
    state = update_theta(state, lin, ctx)
    return state


def _blocks(state: VariationalState):
    return (
        np.atleast_1d(state.alpha_tilde),
        state.mu_tilde,
        state.sigma.diag(),
        state.c_tilde,
    )


def _max_rel_change(old_blocks, new_blocks) -> float:
    rel = 0.0
    for old, new in zip(old_blocks, new_blocks):
        num = float(np.max(np.abs(new - old))) if new.size else 0.0
        den = float(np.max(np.abs(old))) + 1e-12 if old.size else 1e-12
        rel = max(rel, num / den)
    return rel


def run_cavi(
    ctx: HazardContext,
    lin: LinearizedModel,
    theta_map,
    phi_map: float,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> CaviResult:
    """Iterate sweeps from the MAP-matched initialization until the
    largest blockwise relative change across (alpha~, mu~, diag Sigma~,
    c~) falls below tol, or the iteration cap. A non-finite state
    aborts with ConvergenceError carrying the last finite state."""
    state = init_state(ctx, lin, theta_map, phi_map)
    rel_trace: list[float] = []
    converged = False
    message = "iteration cap reached"
    it = 0
    blocks = _blocks(state)  # carried over: one sigma.diag() per sweep
    for it in range(max_iter):
        new_state = cavi_sweep(state, lin, ctx)
        if not new_state.finite():
            raise ConvergenceError(
                f"non-finite variational state at sweep {it + 1}",
                result=CaviResult(
                    state=state,
                    rel_trace=np.asarray(rel_trace),
                    converged=False,
                    n_iter=it,
                    message="aborted on non-finite state",
                ),
            )
        state = new_state
        new_blocks = _blocks(state)
        rel = _max_rel_change(blocks, new_blocks)
        blocks = new_blocks
        rel_trace.append(rel)
        if rel < tol:
            converged = True
            message = "blockwise relative change below tolerance"
            break
    return CaviResult(
        state=state,
        rel_trace=np.asarray(rel_trace),
        converged=converged,
        n_iter=it + 1,
        message=message,
    )
