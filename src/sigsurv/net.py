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

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "MlpModel",
    "forward",
    "forward_batch",
    "jacobian",
    "jacobian_batch",
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
    n_params, the length m of the flat theta, is summed once here.
    """

    layer_sizes: tuple
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be >= 1")
        if sizes[-1] != 1:
            raise ValueError("output layer must be scalar")
        object.__setattr__(self, "n_params", sum(
            a * b + b for a, b in zip(sizes[:-1], sizes[1:])))

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
    forward trace: (g (n,), J (n, m)). J is written into `out`, a C- or
    F-contiguous (n, m) float array, when one is given; either layout
    holds the same products, bit for bit."""
    layers, g, acts = _forward(model, _as_batch(model, T, X), theta)
    n = g.shape[0]
    J = np.empty((n, model.n_params)) if out is None else out
    for w_sl, b_sl, fi, fo, S, A in _reverse(model, layers, acts,
                                             np.ones((n, 1))):
        # (n, fo, fi) view of J's weight columns, or (fo, fi, n) of its
        # transpose's rows when J is column-major: splitting one axis
        # never copies, and the einsum writes along the contiguous one
        if J.flags.c_contiguous:
            np.einsum("nj,nk->njk", S, A, out=J[:, w_sl].reshape(n, fo, fi))
        else:
            np.einsum("nj,nk->jkn", S, A, out=J.T[w_sl].reshape(fo, fi, n))
        J[:, b_sl] = S
    return g, J


def jacobian(model: MlpModel, t, x, theta) -> np.ndarray:
    """Gradient of g(t, x; theta) w.r.t. theta at a single point: (m,)."""
    return jacobian_batch(model, [t], np.asarray(x)[None, :], theta)[1][0]


def grad_weighted_sum(model: MlpModel, T, X, theta, w) -> np.ndarray:
    """Gradient of sum_j w_j * g(t_j, x_j; theta) w.r.t. theta for
    constant weights w: (m,)."""
    return trace(model, _as_batch(model, T, X), theta).grad(w)


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
    """First-order expansion of the network around theta_MAP.

    g_lin(t, x; theta) = g(t, x; theta_MAP) + J(t, x)^T (theta - theta_MAP)

    Caches g and J on the row block of `row_block`: the first n_event
    rows are the (y_i, x_i), the rest the P live grid pairs (t_k, x_i).
    J is C-contiguous, from `linearize`'s second trace of the network.
    offset = g - J theta_MAP, so that g_lin(theta) = offset + J theta.
    V and JV come from J's thin SVD J = P S V^T truncated to its
    numerical rank r: V (m, r) holds J's leading r right singular
    vectors, an orthonormal basis of its row space, and JV = J V = P S
    (N+P, r) its scaled left singular vectors.
    """

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


# The rank-revealing cut's bound on the dropped block, as a fraction of
# the rank threshold's lower bound: no kept singular value moves by more.
_TRUNCATE = 1e-2

# Rows of the triangular factor squared at a time by `_triu_row_sumsq`.
_SUMSQ_BLOCK = 64


def linearize(model: MlpModel, theta_map, grid, dataset) -> LinearizedModel:
    """Build the expansion around theta_map on the row block of the
    QuadratureGrid `grid` over `dataset`'s (normalized) times.

    J (R, m) is traced once into a buffer laid out as the column-major
    tall orientation A its QR needs: C-order when R <= m, so that
    A = J^T is F-contiguous, and F-order when R > m, where A = J. J's
    thin SVD is taken at its numerical rank from A, with no orthogonal
    factor ever formed and every factorization written over its input:
    1. a Householder QR of A in the buffer itself gives A = Q F, F
       square and upper triangular of side n = min(R, m), Q kept as
       LAPACK's reflectors;
    2. a column-pivoted QR (Businger & Golub 1965) in F's own column-
       major array, F P = Q2 R2, reveals the rank: R2 is cut to its
       leading k rows, k the smallest index whose trailing block
       ||R2[k:, k:]||_F is below _TRUNCATE * |R2[0, 0]| * max(R, m) *
       eps;
    3. the divide-and-conquer gesdd factors the k x n block
       B = R2[:k] P^T (the R-SVD of Chan, ACM TOMS 1982). J's singular
       values are B's; those above s_max * max(R, m) * eps (numpy's
       `matrix_rank` rule) set its rank r;
    4. Q2 and then Q are applied to B's r leading left singular
       vectors only (LAPACK ormqr).
    |R2[0, 0]| <= s_max, so the cut moves every singular value by less
    than _TRUNCATE of the rank threshold and drops none above it. The
    worst case is a full-rank J (k = n): there steps 2 and 4 add work
    to the plain R-SVD, 11-28 ms on a random J of side n = 385, 1 BLAS
    thread, against its 47-56 ms. Every fit measured has r far below n.
    Once V and JV exist the factored buffer is dropped, and J is traced
    again, C-ordered, for `LinearizedModel.J`, g and the offset. With
    k far below n the peak is about R m + 2 n^2 floats: J, F and B's
    n x n right singular vectors. The square arrays are gone before the
    (max(R, m), r) singular vectors are formed, which take two copies'
    room; where r (R + m) nears n^2 they set the peak instead.
    """
    theta_map = np.asarray(theta_map, dtype=float)
    if not np.all(np.isfinite(theta_map)):
        raise ValueError("theta_map must be finite")
    T, X = row_block(grid, dataset)
    R, m = T.shape[0], model.n_params
    wide = R <= m
    J = np.empty((R, m), order="C" if wide else "F")
    jacobian_batch(model, T, X, theta_map, out=J)
    if not np.all(np.isfinite(J)):  # LAPACK's SVD fails on NaN
        raise NumericalError("Jacobian at theta_map overflows")
    UA, s, W = _rank_svd(J.T if wide else J)
    # J = W S UA^T when wide, UA S W^T when tall
    V, JV = (UA, W) if wide else (W, UA)
    JV *= s
    del J  # the factored buffer goes before J is traced again
    g, J = jacobian_batch(model, T, X, theta_map)
    return LinearizedModel(
        g=g,
        J=J,
        n_event=dataset.n,
        offset=g - J @ theta_map,
        V=V,
        JV=JV,
    )


def _rank_svd(A):
    """The thin SVD of the F-contiguous tall A (M, n), M >= n, at its
    numerical rank r, by steps 1-4 of `linearize`: (UA (M, r), s (r,),
    W (n, r)) with A = UA diag(s) W^T. A is overwritten with its QR's
    reflectors."""
    from scipy.linalg import svd
    from scipy.linalg.lapack import dgeqp3, dgeqrf

    eps_max = max(A.shape) * np.finfo(float).eps
    H, tau = _lapack(dgeqrf, A, overwrite_a=1)
    n = H.shape[1]
    # F = triu(H[:n]), built F-contiguous so that geqp3 writes over it
    H2, piv, tau2 = _lapack(dgeqp3, np.tril(H[:n].T).T, overwrite_a=1)
    piv -= 1  # LAPACK's pivots count from 1
    # trailing[k] = ||R2[k:, k:]||_F, R2 = triu(H2)
    trailing = np.sqrt(np.cumsum(_triu_row_sumsq(H2)[::-1])[::-1])
    k = int(np.count_nonzero(
        trailing >= _TRUNCATE * abs(H2[0, 0]) * eps_max))
    B = np.empty((k, n), order="F")
    B[:, piv] = np.triu(H2[:k])
    U, s, Wt = svd(B, overwrite_a=True, lapack_driver="gesdd",
                   check_finite=False)
    r = int(np.count_nonzero(s > s[0] * eps_max))
    W = np.ascontiguousarray(Wt[:r].T)
    del B, Wt  # gesdd wrote over B; each square array goes once used
    # A's r leading left singular vectors, Q Q2 [U_r; 0]
    Q2U = _apply_reflectors(H2, tau2, U[:, :r])
    del H2, U
    return _apply_reflectors(H, tau, Q2U), s[:r], W


def _triu_row_sumsq(H):
    """(R * R).sum(axis=1) of the C-ordered R = np.triu(H), H square,
    bit for bit, with no n x n temporary: each row of R is squared and
    summed whole, its zeros included, so that numpy's pairwise sum
    groups it as it groups R's rows, _SUMSQ_BLOCK rows at a time."""
    out = np.empty(H.shape[0])
    for i in range(0, H.shape[0], _SUMSQ_BLOCK):
        Rb = np.triu(H[i:i + _SUMSQ_BLOCK], i)
        out[i:i + _SUMSQ_BLOCK] = np.multiply(Rb, Rb, order="C").sum(axis=1)
    return out


def _lapack(routine, *args, **kwargs):
    """routine(*args, **kwargs) with the workspace it asks for, sized as
    scipy.linalg sizes it, less its trailing (work, info) outputs."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"{routine.__name__}: illegal argument {-info}")
    return out


def _apply_reflectors(H, tau, C):
    """Q @ [C; 0] for the (M, M) orthogonal Q whose Householder
    reflectors are LAPACK's compact (H (M, n), tau) from a QR, with C
    (rows <= M, r): (M, r). Q itself is never formed."""
    from scipy.linalg.lapack import dormqr

    out = np.zeros((H.shape[0], C.shape[1]), order="F")
    out[:C.shape[0]] = C
    out, = _lapack(dormqr, "L", "N", H, tau, out, overwrite_c=1)
    return np.ascontiguousarray(out)
