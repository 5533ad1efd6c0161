"""From-scratch multilayer perceptron for adhesion-condition classification.

Dense ReLU hidden layers, softmax output, sparse categorical cross-entropy,
Adam updates. A model bundles the feature scaler, label map, and extraction
settings so a saved file is sufficient for end-to-end inference. Everything
is float64 and deterministic for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset, Scaler, scale_rows
from .dsp import StftConfig
from .errors import (CorruptModelError, NonFiniteError, SchemaMismatchError,
                     VersionMismatchError)
from .features import SCHEMA_VERSION, FeatureConfig, FeatureVector

MODEL_FORMAT = "wrice-model"
MODEL_VERSION = 2

# Two supported readings of the reference topology: four dense layers with
# every non-output layer 512 wide, or a compact variant with two hidden layers.
ARCHITECTURES = {
    "paper4": (512, 512, 512),
    "compact3": (512, 512),
}

_CE_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class AdamState:
    """Bias-corrected first/second moment accumulators, one per parameter tensor."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[np.ndarray]       # per layer, (out, in)
    biases: list[np.ndarray]        # per layer, (out,)
    scaler: Scaler | None = None
    label_map: list[str] | None = None
    stft_config: StftConfig | None = None
    feature_config: FeatureConfig | None = None
    sample_rate: int | None = None
    segment_seconds: float | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not chain with dims {dims}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")
        self.layer_dims = dims

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> list[np.ndarray]:
        """Weights then biases, layer by layer; the canonical tensor order."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "MlpModel":
        return replace(self, weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases],
                       layer_dims=list(self.layer_dims))


def layer_dims_for(arch: str, n_inputs: int, n_outputs: int) -> list[int]:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}, expected one of {sorted(ARCHITECTURES)}")
    return [n_inputs, *ARCHITECTURES[arch], n_outputs]


def init_model(layer_dims, seed: int = 0, **bundle) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, **bundle)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _as_batch(x, n_inputs: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != n_inputs:
        raise ValueError(f"input width {arr.shape[-1]} does not match model input {n_inputs}")
    return arr, single


def _forward_cached(model: MlpModel, batch: np.ndarray):
    """Returns (probs, activations, preacts); activations[0] is the input."""
    activations = [batch]
    preacts = []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = activations[-1] @ w.T + b
        preacts.append(z)
        activations.append(np.maximum(z, 0.0))
    logits = activations[-1] @ model.weights[-1].T + model.biases[-1]
    preacts.append(logits)
    return softmax(logits), activations, preacts


def forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one scaled vector or a batch of them."""
    batch, single = _as_batch(x, model.n_inputs)
    probs, _, _ = _forward_cached(model, batch)
    return probs[0] if single else probs


def loss_sparse_ce(probs: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true class, clamped at 1e-12."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"label outside [0, {probs.shape[1]})")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, _CE_CLAMP)).mean())


def _gradients_from_cache(model: MlpModel, activations, probs, labels):
    batch_size = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch_size), labels] = 1.0
    delta = (probs - onehot) / batch_size  # d(mean CE)/d(logits)
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (activations[layer] > 0)
    return grad_w, grad_b


def backward(model: MlpModel, inputs, labels) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of the mean batch loss w.r.t. weights and biases."""
    batch, _ = _as_batch(inputs, model.n_inputs)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    if labels.shape[0] != batch.shape[0]:
        raise ValueError("batch and label counts differ")
    probs, activations, _ = _forward_cached(model, batch)
    return _gradients_from_cache(model, activations, probs, labels)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, cfg: TrainConfig) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update, in place on `params`."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state tensor counts differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.t += 1
    correction1 = 1.0 - cfg.beta1**state.t
    correction2 = 1.0 - cfg.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + cfg.epsilon)
    return params, state


def train(model: MlpModel, train_set: LabeledDataset,
          cfg: TrainConfig = TrainConfig()) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch training on an already-scaled dataset.

    Shuffles per epoch with a generator seeded from cfg.seed; the final
    partial batch is trained on. The input model is not modified. History
    holds the per-epoch mean training loss and accuracy. Raises
    NonFiniteError if a batch loss becomes NaN or infinite (a learning rate
    too large for the data can diverge).
    """
    if train_set.n == 0:
        raise ValueError("training set is empty")
    if train_set.features.shape[1] != model.n_inputs:
        raise SchemaMismatchError(
            f"feature width {train_set.features.shape[1]} does not match "
            f"model input {model.n_inputs}")
    trained = model.copy()
    params = trained.parameters()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    x_all = train_set.features
    y_all = train_set.labels
    history = TrainHistory()
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(train_set.n)
        total_loss = 0.0
        total_correct = 0
        for start in range(0, train_set.n, cfg.batch_size):
            picked = perm[start : start + cfg.batch_size]
            xb = x_all[picked]
            yb = y_all[picked]
            probs, activations, _ = _forward_cached(trained, xb)
            loss = loss_sparse_ce(probs, yb)
            if not math.isfinite(loss):
                raise NonFiniteError(f"training loss became {loss} in epoch {epoch}; "
                                     f"the learning rate {cfg.learning_rate} may be too large")
            total_loss += loss * len(picked)
            total_correct += int((probs.argmax(axis=1) == yb).sum())
            grad_w, grad_b = _gradients_from_cache(trained, activations, probs, yb)
            grads = []
            for gw, gb in zip(grad_w, grad_b):
                grads.extend((gw, gb))
            adam_step(params, grads, state, cfg)
        history.loss.append(total_loss / train_set.n)
        history.accuracy.append(total_correct / train_set.n)
    return trained, history


def predict(model: MlpModel, fv: FeatureVector | np.ndarray) -> tuple[str, np.ndarray]:
    """Scale raw features with the bundled scaler and classify them.

    `fv` is one feature vector, or an (n_segments, d) matrix of one file's
    segment rows, classified by the mean of the per-segment probabilities.
    Returns (label name, class probabilities); ties break to the lowest id.
    """
    if model.scaler is None or model.label_map is None:
        raise ValueError("model has no bundled scaler/label map; train before predicting")
    values = fv.values if isinstance(fv, FeatureVector) else fv
    probs = forward(model, scale_rows(model.scaler, np.atleast_2d(values))).mean(axis=0)
    return model.label_map[int(np.argmax(probs))], probs


def _header(model: MlpModel) -> dict:
    """The model file's header, without its checksum; also what the checksum
    covers, re-derived from the parsed model when a file is loaded."""
    tensors = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        tensors.append({"name": f"w{i}", "shape": list(w.shape)})
        tensors.append({"name": f"b{i}", "shape": list(b.shape)})
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": model.layer_dims,
        "label_map": model.label_map,
        "scaler": None if model.scaler is None else
                  {"mean": model.scaler.mean.tolist(), "std": model.scaler.std.tolist()},
        "stft": None if model.stft_config is None else
                {"frame_len": model.stft_config.frame_len,
                 "hop": model.stft_config.hop,
                 "window": model.stft_config.window},
        "features": None if model.feature_config is None else
                    {"n_mfcc": model.feature_config.n_mfcc,
                     "n_mels": model.feature_config.n_mels,
                     "rolloff_pct": model.feature_config.rolloff_pct,
                     "bandwidth_order": model.feature_config.bandwidth_order,
                     "fmin": model.feature_config.fmin,
                     "fmax": model.feature_config.fmax,
                     "log_floor": model.feature_config.log_floor},
        "audio": {"sample_rate": model.sample_rate,
                  "segment_seconds": model.segment_seconds},
        "schema_version": model.schema_version,
        "tensors": tensors,
    }


def _checksum(header: dict, body: bytes) -> str:
    """sha256 over the canonical JSON of the header, a newline, and the body."""
    canonical = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(canonical + b"\n" + body).hexdigest()


def save_model(model: MlpModel, path) -> None:
    """Write the versioned model file: a JSON header line, then every
    parameter tensor as raw little-endian float64 in `parameters()` order.
    The header's checksum covers the header and the body. Raises
    NonFiniteError, and writes nothing, if a parameter is NaN or infinite."""
    if not all(np.isfinite(t).all() for t in model.parameters()):
        raise NonFiniteError(f"{path}: model has non-finite parameters; not saved")
    body = b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes()
                    for t in model.parameters())
    header = _header(model)
    header["checksum"] = _checksum(header, body)
    Path(path).write_bytes((json.dumps(header) + "\n").encode() + body)


def load_model(path) -> MlpModel:
    """Read a model file back; restores parameters bit-exactly.

    Raises VersionMismatchError on a wrong version field (files of an older
    version must be written again by `wrice train`), SchemaMismatchError on
    another feature schema, and CorruptModelError on structural damage or
    checksum failure.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise CorruptModelError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptModelError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise CorruptModelError(f"{path}: not a {MODEL_FORMAT} file")
    if header.get("version") != MODEL_VERSION:
        raise VersionMismatchError(
            f"{path}: model version {header.get('version')!r}, expected {MODEL_VERSION}; "
            "re-run `wrice train` to write a current model file")
    version = header.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{path}: feature schema version {version!r}, expected {SCHEMA_VERSION}")
    body = raw[newline + 1 :]
    # a missing key or a bad value is damage, not a caller error; parsing
    # comes first so such damage is named, and the checksum then catches any
    # edited value that still parses
    try:
        model = _model_from(header, body, path)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptModelError(
            f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
    expected = _header(model)
    unknown = sorted(set(header) - set(expected) - {"checksum"})
    if unknown:
        raise CorruptModelError(f"{path}: malformed model file (unknown fields {unknown})")
    if _checksum(expected, body) != header.get("checksum"):
        raise CorruptModelError(f"{path}: checksum mismatch (file truncated or edited)")
    return model


def _model_from(header: dict, body: bytes, path) -> MlpModel:
    shapes = [tuple(entry["shape"]) for entry in header["tensors"]]
    counts = [math.prod(shape) for shape in shapes]
    if 8 * sum(counts) != len(body):
        raise CorruptModelError(
            f"{path}: body has {len(body)} bytes, its tensors need {8 * sum(counts)}")
    arrays = []
    offset = 0
    for shape, count in zip(shapes, counts):
        # frombuffer on bytes is read-only; astype copies into an owning,
        # writable array
        arrays.append(np.frombuffer(body, "<f8", count, offset)
                      .reshape(shape).astype(np.float64))
        offset += 8 * count
    weights = arrays[0::2]
    biases = arrays[1::2]

    scaler = None
    if header.get("scaler"):
        scaler = Scaler(mean=np.array(header["scaler"]["mean"]),
                        std=np.array(header["scaler"]["std"]))
    stft_cfg = None
    if header.get("stft"):
        stft_cfg = StftConfig(**header["stft"])
    feat_cfg = None
    if header.get("features"):
        feat_cfg = FeatureConfig(**header["features"])
    audio = header.get("audio") or {}
    return MlpModel(layer_dims=header["layer_dims"], weights=weights, biases=biases,
                    scaler=scaler, label_map=header.get("label_map"),
                    stft_config=stft_cfg, feature_config=feat_cfg,
                    sample_rate=audio.get("sample_rate"),
                    segment_seconds=audio.get("segment_seconds"))
