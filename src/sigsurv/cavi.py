"""Coordinate-ascent variational inference in the augmented, linearized
model.

The variational family factorizes as Gamma(alpha~, beta~) over phi,
N(mu~, Sigma~) over theta, per-observation Polya-Gamma factors over the
event marks, and a marked-Poisson factor over the thinned points. One
sweep cyclically applies the four closed-form updates in the fixed
order omega -> psi -> phi -> theta; beta~ is a data-only constant.

The theta update solves mu~ = Sigma~ A, Sigma~ = (I + U C U^T)^(-1)
where U stacks event-time and grid-node Jacobian columns and C is a
nonnegative diagonal of weights. Every grid quantity lives on the P
live (subject, node) pairs only, those with nonzero trapezoid weight,
packed subject-major (see HazardContext); a pair with zero weight adds
nothing to any integral or to U C U^T. When the parameter count m exceeds the
effective rank, the solve runs through the Woodbury identity on the
R x R system (with U' = U C^(1/2), the small matrix I + U'^T U' has
eigenvalues >= 1); otherwise a dense m x m Cholesky is used. Both paths
are exact and agree to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, InputError, NumericalError
from .hazard import HazardContext
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
_JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _chol_with_jitter(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter from 1e-12 to
    1e-6 before giving up."""
    for jit in _JITTERS:
        try:
            if jit == 0.0:
                return np.linalg.cholesky(mat)
            return np.linalg.cholesky(mat + jit * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"{what}: matrix not positive definite even with 1e-6 jitter "
        "(quadrature weights may be corrupted)"
    )


def _tri_solve(L: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    from scipy.linalg import solve_triangular

    return solve_triangular(L, b, lower=lower, check_finite=False)


def _cho_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return _tri_solve(L.T, _tri_solve(L, rhs, lower=True), lower=False)


class SigmaDense:
    """Dense covariance with the operations the sweep and the predictor
    need: quadratic forms J Sigma J^T row-wise, matvec, diagonal, and a
    Cholesky square root for sampling. `effective_rank` is the number
    of nonzero-weight columns of the factor it was solved from, when it
    came from one (None otherwise)."""

    def __init__(self, mat: np.ndarray, effective_rank: int | None = None):
        mat = np.asarray(mat, dtype=float)
        self.mat = 0.5 * (mat + mat.T)
        self.effective_rank = effective_rank
        self._chol: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def quad_rows(self, J: np.ndarray) -> np.ndarray:
        J2 = np.atleast_2d(J)
        return np.maximum(np.einsum("nm,nm->n", J2 @ self.mat, J2), 0.0)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def diag(self) -> np.ndarray:
        return np.diag(self.mat).copy()

    def dense(self) -> np.ndarray:
        return self.mat

    def sqrt_matvec(self, z: np.ndarray) -> np.ndarray:
        if self._chol is None:
            self._chol = _chol_with_jitter(self.mat, "covariance square root")
        return self._chol @ z


@dataclass
class LowRankFactor:
    """Factor form of B = (1/2)(I_m + U C U^T): U (m, R) stacks the
    event-time Jacobian columns (first N, one per subject) then the
    grid columns (P live pairs, subject-major, node-ascending within a
    subject), so R = N + P; C holds the R nonnegative diagonal weights.
    Zero-weight columns (censored events) are dropped internally before
    any solve — they contribute nothing to U C U^T, which is the
    censoring partition at the linear-algebra level."""

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
        """Dense B = (1/2)(I + U C U^T); for tests and the dense path."""
        m = self.dim
        return 0.5 * (np.eye(m) + (self.U * self.C) @ self.U.T)

    def _prep(self) -> np.ndarray:
        if self._chol is None:
            r = self.effective_rank
            M = np.eye(r) + self._Uw.T @ self._Uw
            self._chol = _chol_with_jitter(M, "Woodbury small matrix")
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
            G = self._Uw.T @ self._Uw
            vals, vecs = np.linalg.eigh(G)
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
    posterior second moment at the live grid pairs / event times. The
    per-pair arrays (lam_q, m_grid, s_grid) are packed in the live-pair
    order of the LinearizedModel."""

    alpha_tilde: float
    beta_tilde: float
    mu_tilde: np.ndarray
    sigma: SigmaDense | LowRankFactor
    c_tilde: np.ndarray      # (N,)
    e_omega: np.ndarray      # (N,)
    lam_q: np.ndarray        # (P,)
    e_log_phi: float
    m_grid: np.ndarray       # (P,)
    s_grid: np.ndarray       # (P,)
    m_event: np.ndarray      # (N,)
    s_event: np.ndarray      # (N,)

    @property
    def e_phi(self) -> float:
        return self.alpha_tilde / self.beta_tilde

    def finite(self) -> bool:
        scalars = np.array(
            [self.alpha_tilde, self.beta_tilde, self.e_log_phi], dtype=float
        )
        arrays = (self.mu_tilde, self.c_tilde, self.e_omega, self.lam_q,
                  self.m_grid, self.s_grid, self.m_event, self.s_event)
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


def _moments(lin: LinearizedModel, mu, sigma):
    """m~ = g_map + J^T (mu~ - theta_map) and s~ = sqrt(m~^2 + J Sigma J^T)
    at all cached live grid pairs and event times."""
    m_grid = lin.g_lin_grid(mu)
    s_grid = np.sqrt(m_grid**2 + sigma.quad_rows(lin.J_grid))
    m_event = lin.g_lin_event(mu)
    s_event = np.sqrt(m_event**2 + sigma.quad_rows(lin.J_event))
    return m_grid, s_grid, m_event, s_event


def init_state(
    ctx: HazardContext, lin: LinearizedModel, theta_map, phi_map: float
) -> VariationalState:
    """Start from the MAP estimate: alpha~ = phi_MAP * beta~ (so
    E[phi] = phi_MAP), mu~ = theta_MAP, Sigma~ = I."""
    if phi_map <= 0:
        raise InputError("phi_map must be positive")
    theta_map = np.asarray(theta_map, dtype=float)
    beta_tilde = ctx.phi_rate
    alpha_tilde = phi_map * beta_tilde
    sigma = SigmaDense(np.eye(theta_map.size))
    m_grid, s_grid, m_event, s_event = _moments(lin, theta_map, sigma)
    N = ctx.n_obs
    return VariationalState(
        alpha_tilde=alpha_tilde,
        beta_tilde=beta_tilde,
        mu_tilde=theta_map.copy(),
        sigma=sigma,
        c_tilde=np.zeros(N),
        e_omega=np.full(N, 0.25),
        lam_q=np.zeros_like(m_grid),
        e_log_phi=float(digamma(alpha_tilde) - np.log(beta_tilde)),
        m_grid=m_grid,
        s_grid=s_grid,
        m_event=m_event,
        s_event=s_event,
    )


def update_omega(state: VariationalState, lin: LinearizedModel,
                 ctx: HazardContext) -> VariationalState:
    """c~_i = delta_i s~_i(y_i); E[omega_i] = tanh(c/2)/(2c) with the
    1/4 limit at c = 0 (censored rows keep the limit value, which only
    ever appears multiplied by delta_i downstream)."""
    c_tilde = ctx.dataset.delta * state.s_event
    return replace(state, c_tilde=c_tilde, e_omega=pg_mean(1.0, c_tilde))


def update_psi(state: VariationalState, lin: LinearizedModel,
               ctx: HazardContext) -> VariationalState:
    """Thinned-process rates at the live grid pairs:
    lambda_i(t) = (t^(rho-1)/Z) sigma(s~) exp(-(m~+s~)/2 + E[log phi]),
    using the moments and E[log phi] cached by the previous sweep."""
    expo = -0.5 * (state.m_grid + state.s_grid) + state.e_log_phi
    if np.any(expo > _EXP_CLAMP):
        warnings.warn(
            "rate exponent clamped at 700; variational state may be diverging",
            RuntimeWarning,
            stacklevel=2,
        )
        expo = np.minimum(expo, _EXP_CLAMP)
    lam_q = ctx.base_live * sigmoid(state.s_grid) * np.exp(expo)
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


def build_factor(
    state: VariationalState, lin: LinearizedModel, ctx: HazardContext
) -> LowRankFactor:
    """U and C for B = (1/2)(I + U C U^T): event columns carry
    delta_i E[omega_i]; grid columns carry the folded quadrature weight
    v_ik lambda_ik tau_ik with tau = pg_mean(1, s~), one per live pair."""
    tau = pg_mean(1.0, state.s_grid)
    c_event = ctx.dataset.delta * state.e_omega
    c_grid = ctx.w_live * state.lam_q * tau
    U = np.concatenate([lin.J_event, lin.J_grid], axis=0).T
    C = np.concatenate([c_event, c_grid])
    return LowRankFactor(U=U, C=C)


def _assemble_A(state: VariationalState, lin: LinearizedModel,
                ctx: HazardContext) -> np.ndarray:
    """A = sum_i (1/2)[ delta_i (1 - 2 E[omega_i] r_i(y_i)) J_i(y_i)
    - (I1_i + 2 (I2_i - I3_i theta_map)) ], with r = g_map - J^T theta_map
    the linearization offset; I1 integrates lambda J, I2/I3 integrate the
    PG-weighted lambda g J and lambda J J^T."""
    off_event = lin.g_event - lin.J_event @ lin.theta_ref
    off_grid = lin.g_grid - lin.J_grid @ lin.theta_ref
    tau = pg_mean(1.0, state.s_grid)
    vlam = ctx.w_live * state.lam_q
    w_event = 0.5 * ctx.dataset.delta * (1.0 - 2.0 * state.e_omega * off_event)
    w_grid = -0.5 * (vlam + 2.0 * vlam * tau * off_grid)
    return lin.J_event.T @ w_event + lin.J_grid.T @ w_grid


def update_theta(
    state: VariationalState,
    lin: LinearizedModel,
    ctx: HazardContext,
) -> VariationalState:
    """mu~ = (1/2) B^(-1) A and Sigma~ = (1/2) B^(-1); afterwards the
    cached moments m~, s~ are recomputed everywhere. The solve runs
    through the factor's R x R Woodbury system when the parameter count
    m exceeds the effective rank, and through a dense m x m Cholesky
    otherwise."""
    factor = build_factor(state, lin, ctx)
    A = _assemble_A(state, lin, ctx)
    m = factor.dim
    if m > factor.effective_rank:
        sigma: SigmaDense | LowRankFactor = factor
        mu = factor.sigma_matvec(A)  # = (1/2) B^(-1) A
    else:
        B = factor.assemble_B()
        L = _chol_with_jitter(B, "dense B")
        inv = _cho_solve(L, np.eye(m))
        sigma = SigmaDense(0.5 * inv, effective_rank=factor.effective_rank)
        mu = 0.5 * _cho_solve(L, A)
    m_grid, s_grid, m_event, s_event = _moments(lin, mu, sigma)
    return replace(
        state, mu_tilde=mu, sigma=sigma,
        m_grid=m_grid, s_grid=s_grid, m_event=m_event, s_event=s_event,
    )


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
