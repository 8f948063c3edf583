"""Fit-to-predict handoff: one JSON file holding {"meta", "body"}.

`meta` carries the creation timestamp and tool version (the only
non-deterministic part); `body` holds everything a later predict/eval
needs — architecture, prior, normalization statistics, the MAP point,
and the variational state — with every float array embedded as a
base64 little-endian float64 buffer. Same seed + same config produce a
byte-identical body from `sigsurv fit` whatever the core count, unless
a BLAS thread variable is exported; file paths are never part of the
hashed config.
"""

from __future__ import annotations

import base64
import datetime
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .cavi import LowRankFactor, VariationalState
from .data import FeatureStats
from .errors import InputError, NumericalError
from .hazard import BaselinePrior
from .net import MlpModel

__all__ = [
    "encode_array",
    "decode_array",
    "body_bytes",
    "config_hash",
    "save_checkpoint",
    "load_checkpoint",
    "fit_to_doc",
    "fit_from_doc",
    "PosteriorParams",
    "FittedModel",
]

_TOOL = "sigsurv"
_FORMAT_VERSION = 1
# Bound on max |U^T U - I| for a stored covariance factor; CAVI's
# U = V Q reads ~3e-15 at r = 119.
_ORTHONORMAL_TOL = 1e-8


def encode_array(arr: np.ndarray) -> dict:
    """A float array as {"__array__", "shape", "dtype": "<f8", "data"};
    every array of a body is float."""
    arr = np.asarray(arr)
    if arr.dtype.kind != "f":
        raise InputError(f"unsupported array dtype {arr.dtype}")
    buf = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "__array__": True,
        "shape": list(arr.shape),
        "dtype": "<f8",
        "data": base64.b64encode(buf.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    if doc["dtype"] != "<f8":
        raise ValueError(f"unsupported array dtype {doc['dtype']!r}")
    raw = base64.b64decode(doc["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).astype(float)


def _encode(obj):
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    if isinstance(obj, dict):
        if obj.get("__array__"):
            return decode_array(obj)
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def _dumps(doc: dict) -> str:
    """Canonical JSON text of a document, arrays encoded (sorted keys,
    no whitespace, non-finite floats rejected)."""
    return json.dumps(
        _encode(doc), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def body_bytes(body: dict) -> bytes:
    """Canonical serialization of a body document (`_dumps`)."""
    return _dumps(body).encode("utf-8")


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical config document. Callers must exclude
    file paths before hashing so refits into different files compare
    equal."""
    return hashlib.sha256(body_bytes(cfg)).hexdigest()


def save_checkpoint(path, body: dict) -> None:
    """Write {"meta", "body"} as canonical JSON (`_dumps`). The text is
    made in full before the file is opened, so a body that cannot be
    written (a non-finite float) leaves no file behind."""
    meta = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool": _TOOL,
        "format": _FORMAT_VERSION,
    }
    text = _dumps({"meta": meta, "body": body})
    with open(path, "w") as fh:
        fh.write(text)


def _finite_number(text: str, kind=float):
    """json's hook for number literals and NaN/Infinity: finite only."""
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text!r}")
    return kind(text)


def load_checkpoint(path):
    """Returns (meta, body) with arrays decoded. Only files written in
    this version's format (`meta.format`) are accepted; a number that is
    not finite as a float (NaN, Infinity, or a literal such as 1e400
    or 10**400 written out), which `save_checkpoint` never writes, is
    an InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number,
                            parse_int=lambda text: _finite_number(text, int))
    except ValueError as exc:  # truncated, not JSON, not UTF-8, non-finite
        raise InputError(f"{path}: not a checkpoint file ({exc})") from exc
    if not isinstance(doc, dict) or "body" not in doc or "meta" not in doc:
        raise InputError(f"{path}: not a checkpoint file")
    fmt = doc["meta"].get("format") if isinstance(doc["meta"], dict) else None
    if fmt != _FORMAT_VERSION:
        raise InputError(
            f"{path}: checkpoint format {fmt!r}, expected {_FORMAT_VERSION}"
        )
    try:
        return doc["meta"], _decode(doc["body"])
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error too
        raise InputError(f"{path}: malformed array ({exc})") from exc


@dataclass
class PosteriorParams:
    """The slice of the variational state prediction needs."""

    alpha_tilde: float
    beta_tilde: float
    mu_tilde: np.ndarray
    sigma: LowRankFactor


@dataclass
class FittedModel:
    model: MlpModel
    prior: BaselinePrior
    stats: FeatureStats
    t_max: float
    theta_map: np.ndarray
    phi_map: float
    post: PosteriorParams
    config_hash: str


def fit_to_doc(
    model: MlpModel,
    prior: BaselinePrior,
    stats: FeatureStats,
    t_max: float,
    theta_map: np.ndarray,
    phi_map: float,
    state: VariationalState,
    cfg_hash: str,
    diagnostics: dict | None = None,
) -> dict:
    return {
        "config_hash": cfg_hash,
        "architecture": {"layer_sizes": list(model.layer_sizes)},
        "prior": {"alpha0": prior.alpha0, "beta0": prior.beta0, "rho": prior.rho},
        "normalization": {"stats": {"mean": stats.mean, "std": stats.std},
                          "t_max": float(t_max)},
        "map": {"theta": np.asarray(theta_map), "phi": float(phi_map)},
        "variational": {
            "alpha_tilde": float(state.alpha_tilde),
            "beta_tilde": float(state.beta_tilde),
            "mu_tilde": state.mu_tilde,
            "sigma": {"kind": "factor", "U": state.sigma.U,
                      "C": state.sigma.C},
        },
        "diagnostics": diagnostics or {},
    }


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InputError(f"malformed checkpoint body: {what}")


def fit_from_doc(body: dict) -> FittedModel:
    """The fitted model a checkpoint body describes. Arrays must be
    finite and sized for the architecture, the covariance factor's U
    orthonormal (max |U^T U - I| <= 1e-8, the precondition of
    `LowRankFactor`), and the Gamma factor, the horizon and the feature
    scales positive; anything else is an InputError, so a corrupt body
    never reaches prediction. A `variational.e_log_phi`, which earlier
    versions wrote, is ignored."""
    try:
        model = MlpModel(tuple(int(s) for s in body["architecture"]["layer_sizes"]))
        prior = BaselinePrior(**body["prior"])
        doc = body["normalization"]["stats"]  # arrays, or older files' lists
        stats = FeatureStats(mean=np.asarray(doc["mean"], dtype=float),
                             std=np.asarray(doc["std"], dtype=float))
        var = body["variational"]
        sigma = var["sigma"]
        if sigma["kind"] != "factor":
            raise InputError(f"unknown covariance kind {sigma['kind']!r}")
        post = PosteriorParams(
            alpha_tilde=float(var["alpha_tilde"]),
            beta_tilde=float(var["beta_tilde"]),
            mu_tilde=np.asarray(var["mu_tilde"], dtype=float),
            sigma=LowRankFactor(U=sigma["U"], C=sigma["C"]),
        )
        fit = FittedModel(
            model=model,
            prior=prior,
            stats=stats,
            t_max=float(body["normalization"]["t_max"]),
            theta_map=np.asarray(body["map"]["theta"], dtype=float),
            phi_map=float(body["map"]["phi"]),
            post=post,
            config_hash=str(body.get("config_hash", "")),
        )
    except (KeyError, TypeError, ValueError, NumericalError) as exc:
        raise InputError(f"malformed checkpoint body: {exc}") from exc
    m = model.n_params
    for name, arr in (("map.theta", fit.theta_map), ("mu_tilde", post.mu_tilde)):
        _require(arr.shape == (m,) and np.isfinite(arr).all(),
                 f"{name} must hold {m} finite values")
    _require(post.sigma.dim == m, f"sigma.U must have {m} rows")
    U = post.sigma.U
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0)
    _require(gap <= _ORTHONORMAL_TOL, "sigma.U must have orthonormal "
             f"columns (max |U^T U - I| = {gap:.3g} > {_ORTHONORMAL_TOL:g})")
    for name, val in (("alpha_tilde", post.alpha_tilde),
                      ("beta_tilde", post.beta_tilde), ("t_max", fit.t_max)):
        _require(math.isfinite(val) and val > 0,
                 f"{name} must be finite and positive, got {val}")
    mean, std = stats.mean, stats.std
    _require(mean.ndim == 1 and std.shape == mean.shape
             and np.isfinite(mean).all()
             and (np.isfinite(std) & (std > 0)).all(),
             "stats.mean and stats.std must be finite vectors of one "
             "length with std > 0")
    _require(model.input_dim == mean.size + 1,
             f"layer_sizes[0] must be {mean.size + 1}, one more than the "
             "feature count")
    return fit
