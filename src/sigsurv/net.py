"""Feedforward network g(t, x; theta): forward pass, reverse-mode
Jacobian w.r.t. the flat parameter vector, and local linearization.

Parameter layout (fixed, documented): for each layer in order, the
weight matrix W (fan_out x fan_in) flattened row-major, followed by the
bias vector b (fan_out). All layers concatenated give the flat theta of
length m = sum(fan_in*fan_out + fan_out).

Hidden activations are rectified-linear with subgradient 0 at the kink
(relu'(0) = 0). The time input t is concatenated raw with the covariates,
so the network input dimension is p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "MlpModel",
    "forward",
    "forward_batch",
    "jacobian",
    "jacobian_batch",
    "forward_and_grad",
    "grad_weighted_sum",
    "Trace",
    "trace",
    "row_block",
    "unflatten",
    "LinearizedModel",
    "linearize",
]


@dataclass(frozen=True)
class MlpModel:
    """Architecture metadata: layer sizes (input p+1, hidden..., output 1).

    The model holds no parameters; theta is always passed explicitly.
    """

    layer_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be >= 1")
        if sizes[-1] != 1:
            raise ValueError("output layer must be scalar")

    @property
    def n_params(self) -> int:
        s = self.layer_sizes
        return sum(s[i] * s[i + 1] + s[i + 1] for i in range(len(s) - 1))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def zero_theta(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def random_theta(self, rng, scale: float = 0.1) -> np.ndarray:
        """Seeded N(0, scale^2) initialization of the full flat vector."""
        return scale * rng.gen.standard_normal(self.n_params)


def _layer_slices(model: MlpModel):
    """Yield (W_slice, b_slice, fan_in, fan_out) per layer in layout order."""
    pos = 0
    s = model.layer_sizes
    for i in range(len(s) - 1):
        fi, fo = s[i], s[i + 1]
        w = slice(pos, pos + fi * fo)
        pos += fi * fo
        b = slice(pos, pos + fo)
        pos += fo
        yield w, b, fi, fo


def unflatten(model: MlpModel, theta):
    """Flat theta -> list of (W, b) per layer (views where possible)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_params,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({model.n_params},)"
        )
    out = []
    for w, b, fi, fo in _layer_slices(model):
        out.append((theta[w].reshape(fo, fi), theta[b]))
    return out


def _as_batch(model: MlpModel, T, X):
    T = np.asarray(T, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = np.broadcast_to(X, (T.shape[0], X.shape[0]))
    if X.shape[0] != T.shape[0]:
        raise ValueError("T and X row counts differ")
    Z = np.column_stack([T, X])
    if Z.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {Z.shape[1]} != model input dim {model.input_dim}"
        )
    return Z


def _forward(model: MlpModel, Z, theta):
    """The one forward pass, over a built (n, p+1) input Z of (t, x)
    rows: (layers, g (n,), acts), where layers are theta's (W, b) per
    layer and acts[i] is layer i's input, Z first, then each hidden
    activation. Each layer's bias and rectifier act in place on its
    product, which gives the bits of h @ W.T + b and np.maximum."""
    layers = unflatten(model, theta)
    acts = [Z]
    h = Z
    for W, b in layers[:-1]:
        h = h @ W.T
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    W, b = layers[-1]
    out = h @ W.T
    out += b
    return layers, out[:, 0], acts


def _reverse(model: MlpModel, layers, acts, S):
    """Walk the layers from last to first, starting from the output
    sensitivity S (n, 1). Yields (W_slice, b_slice, fan_in, fan_out, S,
    A) per layer, S the (n, fan_out) sensitivity of the seeded output
    to the layer's pre-activations and A its (n, fan_in) input. The
    rectifier's subgradient is 0 at the kink: act > 0 exactly when
    pre > 0."""
    slices = list(_layer_slices(model))
    for li in range(len(layers) - 1, -1, -1):
        yield (*slices[li], S, acts[li])
        if li > 0:
            S = S @ layers[li][0]
            S *= acts[li] > 0.0


@dataclass(frozen=True)
class Trace:
    """A finished forward pass of the network over n input rows at one
    theta: theta's (W, b) per layer, the output g (n,) and each layer's
    input. `grad(w)` walks it back once for a weight vector w."""

    model: MlpModel
    layers: list
    g: np.ndarray
    acts: list

    def grad(self, w) -> np.ndarray:
        """Gradient of sum_j w_j g(t_j, x_j; theta) w.r.t. theta, w (n,)
        held fixed: one reverse pass seeded with w, the (n, m) Jacobian
        never materialized."""
        w = np.asarray(w, dtype=float).ravel()
        if w.shape[0] != self.g.shape[0]:
            raise ValueError("weight vector length mismatch")
        grad = np.empty(self.model.n_params)
        for w_sl, b_sl, fi, fo, S, A in _reverse(self.model, self.layers,
                                                 self.acts, w[:, None]):
            grad[w_sl] = (S.T @ A).ravel()
            grad[b_sl] = S.sum(axis=0)
        return grad


def trace(model: MlpModel, Z, theta) -> Trace:
    """The forward pass over a built (n, p+1) input Z whose rows are
    (t, x), as `Trace`. Z is read, never written."""
    return Trace(model, *_forward(model, Z, theta))


def forward_batch(model: MlpModel, T, X, theta) -> np.ndarray:
    """g(t_j, x_j; theta) for all rows: T (n,), X (n, p) -> (n,)."""
    return _forward(model, _as_batch(model, T, X), theta)[1]


def forward(model: MlpModel, t, x, theta) -> float:
    """Scalar network output at a single (t, x)."""
    return float(forward_batch(model, [t], np.asarray(x)[None, :], theta)[0])


def jacobian_batch(model: MlpModel, T, X, theta, out=None):
    """Network output and its per-row gradient w.r.t. theta from one
    forward trace: (g (n,), J (n, m)). J is written into `out`, a
    C-contiguous (n, m) float array, when one is given."""
    layers, g, acts = _forward(model, _as_batch(model, T, X), theta)
    n = g.shape[0]
    J = np.empty((n, model.n_params)) if out is None else out
    for w_sl, b_sl, fi, fo, S, A in _reverse(model, layers, acts,
                                             np.ones((n, 1))):
        # (n, fo, fi) view of J's weight columns: splitting the
        # contiguous last axis never copies
        np.multiply(S[:, :, None], A[:, None, :],
                    out=J[:, w_sl].reshape(n, fo, fi))
        J[:, b_sl] = S
    return g, J


def jacobian(model: MlpModel, t, x, theta) -> np.ndarray:
    """Gradient of g(t, x; theta) w.r.t. theta at a single point: (m,)."""
    return jacobian_batch(model, [t], np.asarray(x)[None, :], theta)[1][0]


def forward_and_grad(model: MlpModel, T, X, theta, weights):
    """g(t_j, x_j; theta) for all rows together with the gradient of
    sum_j w_j g(t_j, x_j; theta) w.r.t. theta, where w = weights(g) is
    computed from the output of the same forward trace and held fixed
    under the derivative. Returns (g (n,), grad (m,)): one forward
    trace and one reverse pass with seed w (`Trace.grad`).
    """
    tr = trace(model, _as_batch(model, T, X), theta)
    return tr.g, tr.grad(weights(tr.g))


def grad_weighted_sum(model: MlpModel, T, X, theta, w) -> np.ndarray:
    """Gradient of sum_j w_j * g(t_j, x_j; theta) w.r.t. theta for
    constant weights w: (m,)."""
    return forward_and_grad(model, T, X, theta, lambda g: w)[1]


def row_block(grid, dataset):
    """Network inputs (T (N+P,), X (N+P, p)) of the augmented model's
    row block: the N observation rows (y_i, x_i) first, then the P live
    quadrature pairs (t_k, x_i), those with nonzero trapezoid weight,
    packed subject-major in the C order of `grid.live_mask()`. Every
    row enters EM's Q and CAVI's bound through the same quadratic form
    in g; pairs with zero weight add nothing and are left out."""
    subject, node = np.nonzero(grid.live_mask())
    T = np.concatenate([dataset.y_norm, grid.nodes[node]])
    X = np.vstack([dataset.X, dataset.X[subject]])
    return T, X


@dataclass
class LinearizedModel:
    """First-order expansion of the network around theta_ref.

    g_lin(t, x; theta) = g(t, x; theta_ref) + J(t, x)^T (theta - theta_ref)

    Caches g and J on the row block of `row_block`: the first n_event
    rows are the (y_i, x_i), the rest the P live grid pairs (t_k, x_i).
    offset = g - J theta_ref, so that g_lin(theta) = offset + J theta.
    V and JV come from J's thin SVD J = P S V^T truncated to its
    numerical rank r: V (m, r) holds J's leading r right singular
    vectors, an orthonormal basis of its row space, and JV = J V = P S
    (N+P, r) its scaled left singular vectors.
    """

    model: MlpModel
    theta_ref: np.ndarray
    g: np.ndarray  # (N+P,)
    J: np.ndarray  # (N+P, m)
    n_event: int
    offset: np.ndarray  # (N+P,)
    V: np.ndarray  # (m, r)
    JV: np.ndarray  # (N+P, r)

    @property
    def J_grid(self) -> np.ndarray:
        """(P, m) view of the Jacobian rows at the live grid pairs."""
        return self.J[self.n_event:]

    def g_lin(self, theta) -> np.ndarray:
        """(N+P,) linearized values on the cached row block."""
        d = np.asarray(theta, dtype=float) - self.theta_ref
        return self.g + self.J @ d


def linearize(model: MlpModel, theta_map, grid, dataset) -> LinearizedModel:
    """Build the expansion around theta_map on the row block of the
    QuadratureGrid `grid` over `dataset`'s (normalized) times.

    J's thin SVD is taken the R-SVD way (Chan, ACM TOMS 1982): a
    Householder QR of J's tall orientation, A = J^T when R <= m and
    A = J otherwise, gives A = Q F with F square and triangular of side
    min(R, m); the divide-and-conquer gesdd then factors only F, and Q
    meets only F's leading r singular vectors. J's singular values are
    F's; those above s_max * max(R, m) * eps (numpy's `matrix_rank`
    rule) set its rank r.
    """
    from scipy.linalg import qr, svd

    theta_map = np.asarray(theta_map, dtype=float)
    if not np.all(np.isfinite(theta_map)):
        raise ValueError("theta_map must be finite")
    T, X = row_block(grid, dataset)
    g, J = jacobian_batch(model, T, X, theta_map)
    if not np.all(np.isfinite(J)):  # LAPACK's SVD fails on NaN
        raise NumericalError("Jacobian at theta_map overflows")
    wide = J.shape[0] <= J.shape[1]
    Q, F = qr(J.T if wide else J, mode="economic", check_finite=False)
    U, s, Wt = svd(F, lapack_driver="gesdd", check_finite=False)
    r = int(np.count_nonzero(s > s[0] * max(J.shape) * np.finfo(float).eps))
    if wide:  # J = Wt^T S (Q U)^T
        V, JV = Q @ U[:, :r], Wt[:r].T * s[:r]
    else:  # J = (Q U) S Wt
        V, JV = np.ascontiguousarray(Wt[:r].T), (Q @ U[:, :r]) * s[:r]
    return LinearizedModel(
        model=model,
        theta_ref=theta_map.copy(),
        g=g,
        J=J,
        n_event=dataset.n,
        offset=g - J @ theta_map,
        V=V,
        JV=JV,
    )
