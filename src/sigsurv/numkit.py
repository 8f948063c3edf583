"""Numerical primitives: special functions, Polya-Gamma moments,
trapezoid quadrature grids, and seeded random streams.

Everything here is pure given its inputs; `RngStream` is single-owner
and split by seed derivation rather than shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _special

__all__ = [
    "LOG2",
    "sigmoid",
    "pg_f",
    "pg_mean",
    "digamma",
    "log_gamma",
    "QuadratureGrid",
    "build_grid",
    "RngStream",
]

LOG2 = float(np.log(2.0))

# Taylor branch threshold for pg_mean; below this |c| the closed form
# tanh(c/2)/(2c) loses digits to cancellation while the quartic term of
# the expansion is ~c^4/480 < 1e-18.
_PG_MEAN_TAYLOR_CUTOFF = 1e-4


def sigmoid(z):
    """Logistic function 1/(1 + exp(-z)), numerically stable.

    Evaluates exp only on the non-growing branch, e = exp(-|z|), so |z|
    up to the float64 exponent range saturates gracefully to 0 or 1
    instead of overflowing: 1/(1 + e) for z >= 0, e/(1 + e) below.
    -|z| is taken as min(z, -z), which passes a NaN through with its
    sign.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def pg_f(omega, z):
    """Tilting exponent f(omega, z) = z/2 - (z^2/2)*omega - log 2.

    This is the integrand of the Polya-Gamma sigmoid representation
    sigma(z) = E_{omega~PG(1,0)}[exp(f(omega, z))].
    """
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    out = 0.5 * z - 0.5 * (z * z) * omega - LOG2
    if out.ndim == 0:
        return float(out)
    return out


def pg_mean(b, c):
    """Mean of a Polya-Gamma PG(b, c) variable: (b/(2c)) * tanh(c/2).

    Continuous at c = 0 with limit b/4; a Taylor branch
    b/4 - b*c^2/48 handles |c| < 1e-4 to avoid 0/0 while agreeing with
    the closed form to ~1e-12 at the switch point. Symmetric in c.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0):
        raise ValueError("pg_mean requires b > 0")
    c = np.asarray(c, dtype=float)
    small = np.abs(c) < _PG_MEAN_TAYLOR_CUTOFF
    c_safe = np.where(small, 1.0, c)
    exact = (b / (2.0 * c_safe)) * np.tanh(c_safe / 2.0)
    taylor = b / 4.0 - b * (c * c) / 48.0
    out = np.where(small, taylor, exact)
    if out.ndim == 0:
        return float(out)
    return out


def digamma(x):
    """Digamma psi(x) for x > 0 (domain-checked)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("digamma requires x > 0")
    out = _special.digamma(x)
    if out.ndim == 0:
        return float(out)
    return out


def log_gamma(x):
    """log Gamma(x) for x > 0 (domain-checked)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = _special.gammaln(x)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class QuadratureGrid:
    """Shared uniform time grid with per-observation trapezoid weights.

    Attributes
    ----------
    nodes : (K,) strictly increasing times, nodes[0] = 0, nodes[-1] = max y.
    weights : (N, K) nonnegative; row i integrates functions over
        [0, y_i]: integral ~= sum_k weights[i, k] * f(nodes[k]).
        Rows telescope exactly: weights[i].sum() == y[i], and
        weights[i, k] == 0 beyond the last node t_k <= y_i.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def live_mask(self) -> np.ndarray:
        """(N, K) boolean mask of the pairs with nonzero weight. Taken
        in C order (subject-major), the mask gives the packed layout of
        every per-pair array in the linearized model and in CAVI."""
        return self.weights > 0.0


def build_grid(times, K: int) -> QuadratureGrid:
    """Uniform grid t_1 = 0 .. t_K = max(times) with per-observation
    trapezoid weights over [0, y_i].

    The cutoff index is K_i = max{k : t_k <= y_i}. Weights are the
    standard trapezoid rule over [t_1, t_{K_i}] plus a rectangle
    correction (y_i - t_{K_i}) on node K_i for the partial last panel,
    so each row sums to y_i exactly.
    """
    y = np.asarray(times, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("build_grid requires a nonempty list of times")
    if np.any(~np.isfinite(y)) or np.any(y <= 0):
        raise ValueError("build_grid requires finite times > 0")
    if K < 2:
        raise ValueError("build_grid requires K >= 2")

    t_max = float(y.max())
    nodes = np.linspace(0.0, t_max, K)
    h = nodes[1] - nodes[0]
    N = y.shape[0]

    # K_i: count of nodes <= y_i (1-based index of the last such node).
    cutoff = np.searchsorted(nodes, y, side="right")
    cutoff = np.clip(cutoff, 1, K).astype(np.int64)

    weights = np.zeros((N, K))
    ar = np.arange(K)[None, :]
    last = cutoff[:, None] - 1  # 0-based index of node K_i
    interior = (ar > 0) & (ar < last)
    weights[interior] = h
    first_covered = last[:, 0] >= 1  # at least one full panel
    weights[first_covered, 0] = 0.5 * h
    weights[first_covered, last[first_covered, 0]] += 0.5 * h
    # partial panel [t_{K_i}, y_i] as a rectangle on node K_i
    partial = y - nodes[last[:, 0]]
    weights[np.arange(N), last[:, 0]] += partial

    return QuadratureGrid(nodes=nodes, weights=weights)


@dataclass
class RngStream:
    """Deterministic random stream: a seed plus a PCG64 generator.

    Same seed => bit-identical sample sequence on the same build.
    Streams are single-owner; derive independent children with
    ``child(key)`` instead of sharing one stream across components.
    """

    seed: int
    gen: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStream":
        seed = int(seed)
        return cls(seed=seed, gen=np.random.Generator(np.random.PCG64(seed)))

    def child(self, key: int) -> "RngStream":
        """Independent stream derived deterministically from (seed, key)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(key),))
        return RngStream(seed=self.seed, gen=np.random.Generator(np.random.PCG64(ss)))

