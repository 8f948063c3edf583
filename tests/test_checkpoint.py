"""Checkpoint serialization: canonical bodies, hashing, fit roundtrips."""

import json

import numpy as np
import pytest

from sigsurv.cavi import LowRankFactor
from sigsurv.checkpoint import (
    body_bytes,
    config_hash,
    decode_array,
    encode_array,
    fit_from_doc,
    fit_to_doc,
    load_checkpoint,
    save_checkpoint,
)
from sigsurv.data import FeatureStats
from sigsurv.errors import InputError


def test_array_roundtrip_float_and_int():
    rng = np.random.default_rng(4)
    for arr in (rng.normal(size=(3, 5)), np.arange(7),
                np.array([[True, False]]), np.array(2.5),
                np.zeros((0, 4))):
        doc = encode_array(arr)
        back = decode_array(doc)
        assert back.shape == arr.shape
        assert np.array_equal(back, np.asarray(arr, dtype=back.dtype))
    with pytest.raises(InputError, match="dtype"):
        encode_array(np.array(["a", "b"]))


def test_body_bytes_canonical():
    a = {"b": np.array([1.0, 2.0]), "a": 3, "nested": {"z": 1, "y": [2, 3]}}
    b = {"nested": {"y": [2, 3], "z": 1}, "a": 3, "b": np.array([1.0, 2.0])}
    assert body_bytes(a) == body_bytes(b)
    assert config_hash(a) == config_hash(b)
    assert config_hash({"a": 3}) != config_hash({"a": 4})
    with pytest.raises(ValueError):
        body_bytes({"x": float("nan")})


def test_save_load_checkpoint(tmp_path):
    path = tmp_path / "fit.json"
    body = {"theta": np.linspace(0, 1, 6), "phi": 2.0}
    save_checkpoint(path, body, meta={"note": "unit"})
    meta, back = load_checkpoint(path)
    assert meta["tool"] == "sigsurv"
    assert meta["format"] == 1
    assert meta["note"] == "unit"
    assert "created" in meta
    assert np.array_equal(back["theta"], body["theta"])
    assert back["phi"] == 2.0

    bad = tmp_path / "other.json"
    bad.write_text(json.dumps({"stuff": 1}))
    with pytest.raises(InputError, match="not a checkpoint"):
        load_checkpoint(bad)


def test_load_checkpoint_rejects_other_format(tmp_path):
    path = tmp_path / "fit.json"
    save_checkpoint(path, {"phi": 2.0})
    doc = json.loads(path.read_text())
    for fmt in (99, None, "1"):
        doc["meta"]["format"] = fmt
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=f"checkpoint format {fmt!r}"):
            load_checkpoint(path)
    del doc["meta"]["format"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="checkpoint format None"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_truncated_or_non_json(tmp_path):
    path = tmp_path / "fit.json"
    save_checkpoint(path, {"phi": 2.0})
    whole = path.read_bytes()
    for raw in (b'{"meta": ', whole[: len(whole) // 2], b"", b"\xff\xfe{}",
                b"not json"):
        path.write_bytes(raw)
        with pytest.raises(InputError, match="not a checkpoint file"):
            load_checkpoint(path)


def test_fit_doc_roundtrip_dense(small_fit):
    cfg = config_hash({"layers": list(small_fit.model.layer_sizes)})
    body = fit_to_doc(small_fit.model, small_fit.prior, small_fit.stats,
                      small_fit.ds.t_max, small_fit.em.theta_map,
                      small_fit.em.phi_map, small_fit.cavi.state, cfg,
                      diagnostics={"n_iter": small_fit.cavi.n_iter})
    fitted = fit_from_doc(body)
    assert fitted.model.layer_sizes == small_fit.model.layer_sizes
    assert fitted.prior == small_fit.prior
    assert np.array_equal(fitted.theta_map, small_fit.em.theta_map)
    assert fitted.phi_map == small_fit.em.phi_map
    assert fitted.t_max == small_fit.ds.t_max
    assert fitted.config_hash == cfg
    st = small_fit.cavi.state
    assert fitted.post.alpha_tilde == st.alpha_tilde
    assert fitted.post.beta_tilde == st.beta_tilde
    assert np.array_equal(fitted.post.mu_tilde, st.mu_tilde)
    assert isinstance(fitted.post.sigma, LowRankFactor)
    assert np.array_equal(fitted.post.sigma.U, st.sigma.U)
    assert np.array_equal(fitted.post.sigma.C, st.sigma.C)
    # so the dense Sigma~ the factor stands for comes back bit for bit
    assert np.array_equal(fitted.post.sigma.dense(), st.sigma.dense())
    # body serialization is deterministic, so refits compare by bytes
    body2 = fit_to_doc(small_fit.model, small_fit.prior, small_fit.stats,
                       small_fit.ds.t_max, small_fit.em.theta_map,
                       small_fit.em.phi_map, small_fit.cavi.state, cfg,
                       diagnostics={"n_iter": small_fit.cavi.n_iter})
    assert body_bytes(body) == body_bytes(body2)


def test_fit_doc_roundtrip_low_rank(small_fit):
    rng = np.random.default_rng(8)
    factor = LowRankFactor(U=rng.normal(size=(small_fit.model.n_params, 4)),
                           C=rng.uniform(0.1, 1.0, size=4))
    import dataclasses
    state = dataclasses.replace(small_fit.cavi.state, sigma=factor)
    body = fit_to_doc(small_fit.model, small_fit.prior, small_fit.stats,
                      small_fit.ds.t_max, small_fit.em.theta_map,
                      small_fit.em.phi_map, state, "h")
    fitted = fit_from_doc(body)
    assert isinstance(fitted.post.sigma, LowRankFactor)
    assert np.allclose(fitted.post.sigma.dense(), factor.dense(),
                       rtol=0, atol=1e-14)


def test_fit_doc_survives_file_roundtrip(tmp_path, small_fit):
    body = fit_to_doc(small_fit.model, small_fit.prior, small_fit.stats,
                      small_fit.ds.t_max, small_fit.em.theta_map,
                      small_fit.em.phi_map, small_fit.cavi.state, "h")
    path = tmp_path / "m.json"
    save_checkpoint(path, body)
    _, back = load_checkpoint(path)
    fitted = fit_from_doc(back)
    assert np.array_equal(fitted.theta_map, small_fit.em.theta_map)
    assert fitted.post.alpha_tilde == small_fit.cavi.state.alpha_tilde
    assert body_bytes(back) == body_bytes(body)


def _small_body():
    """A well-formed body for layer sizes (3, 1): m = 4, two features."""
    return {
        "architecture": {"layer_sizes": [3, 1]},
        "prior": {"alpha0": 1.0, "beta0": 1.0, "rho": 1.0},
        "normalization": {"stats": {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
                          "t_max": 1.0},
        "map": {"theta": np.zeros(4), "phi": 1.0},
        "variational": {
            "alpha_tilde": 2.0, "beta_tilde": 3.0, "e_log_phi": 0.0,
            "mu_tilde": np.zeros(4),
            "sigma": {"kind": "factor", "U": np.eye(4)[:, :2],
                      "C": np.ones(2)},
        },
    }


def _corrupt(body, keys, value):
    doc = body
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value
    return body


def test_fit_from_doc_rejects_malformed(tmp_path):
    with pytest.raises(InputError, match="malformed"):
        fit_from_doc({"architecture": {"layer_sizes": [3, 1]}})
    fit_from_doc(_small_body())  # the unedited body loads
    body = _corrupt(_small_body(), ("prior", "bogus"), 9)
    body["variational"] = {}
    with pytest.raises(InputError, match="malformed"):
        fit_from_doc(body)
    # "dense" was a kind of an earlier format; only "factor" is read
    for sigma in ({"kind": "sparse"}, {"kind": "dense", "mat": np.eye(4)}):
        with pytest.raises(InputError, match="unknown covariance kind"):
            fit_from_doc(_corrupt(_small_body(), ("variational", "sigma"),
                                  sigma))
    # wrong sizes, non-finite arrays and non-positive scales, each of
    # which would otherwise end in a traceback or in NaN curves
    var, stats = ("variational",), ("normalization", "stats")
    for keys, value in (
        (var + ("sigma", "U"), np.eye(4)[:3, :2]),          # m - 1 rows
        (var + ("sigma", "U"), np.full((4, 2), np.nan)),
        (var + ("sigma", "U"), np.full((4, 2), np.inf)),
        (var + ("sigma", "C"), np.array([1.0, -1.0])),
        (var + ("mu_tilde",), np.zeros(3)),
        (var + ("mu_tilde",), np.array([0.0, np.nan, 0.0, 0.0])),
        (("map", "theta"), np.zeros(3)),
        (("architecture", "layer_sizes"), [3, 2, 1]),
        (stats, {"mean": [0.0] * 3, "std": [1.0] * 3}),  # needs 4 inputs
        (var + ("alpha_tilde",), -1.0),
        (var + ("beta_tilde",), 0.0),
        (("normalization", "t_max"), float("inf")),
        (stats + ("std",), [1.0, 0.0]),
        (stats + ("std",), [1.0]),
        (stats + ("mean",), [0.0, float("nan")]),
    ):
        with pytest.raises(InputError, match="malformed"):
            fit_from_doc(_corrupt(_small_body(), keys, value))
    # arrays that do not decode: a foreign dtype, data that is not
    # base64, a shape that disagrees with the data
    path = tmp_path / "ck.json"
    for field, value in (("dtype", "<f4"), ("data", "not base64!"),
                         ("shape", [5])):
        save_checkpoint(path, _small_body())
        doc = json.loads(path.read_text())
        doc["body"]["map"]["theta"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="malformed array"):
            load_checkpoint(path)


def test_fit_from_doc_rejects_overflowing_factor():
    # a finite factor whose Gram matrix U^T C U overflows: rank 1 used
    # to draw from Sigma~ = I, rank 2 to end in eigh's LinAlgError
    for U in (np.full((4, 1), 1e200), np.eye(4)[:, :2] * 1e200):
        body = _small_body()
        body["variational"]["sigma"] = {"kind": "factor", "U": U,
                                        "C": np.ones(U.shape[1])}
        with pytest.raises(InputError, match="Gram matrix"):
            fit_from_doc(body)
    # a large factor whose Gram matrix stays finite loads and draws
    body = _small_body()
    body["variational"]["sigma"]["U"] = np.eye(4)[:, :2] * 1e150
    fit = fit_from_doc(body)
    assert np.isfinite(fit.post.sigma.sqrt_matvec(np.ones((4, 3)))).all()
