"""Fit-to-predict handoff: one JSON file holding {"meta", "body"}.

`meta` carries the creation timestamp and tool version (the only
non-deterministic part); `body` holds everything a later predict/eval
needs — architecture, prior, normalization statistics, the MAP point,
and the variational state — with every float array embedded as a
base64 little-endian float64 buffer. Same seed + same config produce a
byte-identical body; file paths are never part of the hashed config.
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


def encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        buf = np.ascontiguousarray(arr, dtype="<f8")
        dtype = "<f8"
    elif arr.dtype.kind in "iub":
        buf = np.ascontiguousarray(arr, dtype="<i8")
        dtype = "<i8"
    else:
        raise InputError(f"unsupported array dtype {arr.dtype}")
    return {
        "__array__": True,
        "shape": list(arr.shape),
        "dtype": dtype,
        "data": base64.b64encode(buf.tobytes()).decode("ascii"),
    }


def decode_array(doc: dict) -> np.ndarray:
    if doc["dtype"] not in ("<f8", "<i8"):
        raise ValueError(f"unsupported array dtype {doc['dtype']!r}")
    raw = base64.b64decode(doc["data"], validate=True)
    arr = np.frombuffer(raw, dtype=doc["dtype"]).reshape(doc["shape"])
    return arr.astype(float) if doc["dtype"] == "<f8" else arr.astype(np.int64)


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


def body_bytes(body: dict) -> bytes:
    """Canonical serialization of a body document (sorted keys, no
    whitespace, non-finite floats rejected)."""
    return json.dumps(
        _encode(body), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical config document. Callers must exclude
    file paths before hashing so refits into different files compare
    equal."""
    return hashlib.sha256(body_bytes(cfg)).hexdigest()


def save_checkpoint(path, body: dict, meta: dict | None = None) -> None:
    doc = {
        "meta": {
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool": _TOOL,
            "format": _FORMAT_VERSION,
            **(meta or {}),
        },
        "body": json.loads(body_bytes(body).decode("utf-8")),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path):
    """Returns (meta, body) with arrays decoded. Only files written in
    this version's format (`meta.format`) are accepted."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # truncated, not JSON, or not UTF-8 text
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
    e_log_phi: float
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


def _sigma_to_doc(sigma) -> dict:
    if isinstance(sigma, LowRankFactor):
        return {"kind": "factor", "U": sigma.U, "C": sigma.C}
    raise InputError(f"unknown covariance representation {type(sigma)!r}")


def _sigma_from_doc(doc: dict):
    if doc["kind"] == "factor":
        return LowRankFactor(U=doc["U"], C=doc["C"])
    raise InputError(f"unknown covariance kind {doc['kind']!r}")


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
        "normalization": {"stats": stats.to_doc(), "t_max": float(t_max)},
        "map": {"theta": np.asarray(theta_map), "phi": float(phi_map)},
        "variational": {
            "alpha_tilde": float(state.alpha_tilde),
            "beta_tilde": float(state.beta_tilde),
            "e_log_phi": float(state.e_log_phi),
            "mu_tilde": state.mu_tilde,
            "sigma": _sigma_to_doc(state.sigma),
        },
        "diagnostics": diagnostics or {},
    }


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InputError(f"malformed checkpoint body: {what}")


def fit_from_doc(body: dict) -> FittedModel:
    """The fitted model a checkpoint body describes. Arrays must be
    finite and sized for the architecture, the covariance factor's Gram
    matrix finite, and the Gamma factor, the horizon and the feature
    scales positive; anything else is an InputError, so a corrupt body
    never reaches prediction."""
    try:
        model = MlpModel(tuple(int(s) for s in body["architecture"]["layer_sizes"]))
        prior = BaselinePrior(**body["prior"])
        stats = FeatureStats.from_doc(body["normalization"]["stats"])
        var = body["variational"]
        post = PosteriorParams(
            alpha_tilde=float(var["alpha_tilde"]),
            beta_tilde=float(var["beta_tilde"]),
            e_log_phi=float(var["e_log_phi"]),
            mu_tilde=np.asarray(var["mu_tilde"], dtype=float),
            sigma=_sigma_from_doc(var["sigma"]),
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
    with np.errstate(over="ignore", invalid="ignore"):
        gram = post.sigma.gram()
    _require(np.isfinite(gram).all(),
             "sigma.U's weighted Gram matrix must be finite")
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
