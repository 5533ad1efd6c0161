"""From-scratch multilayer perceptron for adhesion-condition classification.

Dense ReLU hidden layers, softmax output, sparse categorical cross-entropy,
Adam updates. Every model carries its feature scaler, label map and
extraction settings, so `train`, `predict` and evaluation all scale raw rows
with its own scaler and a saved file suffices for end-to-end inference.
Everything is float64 and deterministic for a fixed seed.

Memory: a model's `params`, and Adam's two moments while `train` runs, each
live in an anonymous shared mapping of their own (`_mapped_zeros`), not in
the heap. A pool worker forked while a model is loaded (`wrice eval`'s
extraction pools) holds none of its pages unless it reads them, and freeing
the model unmaps them. Forked workers share those pages, writes included,
so no pool job may write a model; none receives one. Under the spawn or
forkserver start methods a worker inherits nothing of the parent's memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import json
import math
import mmap
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import Extraction, LabeledDataset, Scaler, check_seed, scale_rows
from .dsp import WINDOW, StftConfig
from .errors import (CorruptModelError, NonFiniteError, SchemaMismatchError,
                     VersionMismatchError)
from .features import (BANDWIDTH_ORDER, LOG_FLOOR, MEL_FMIN, N_MFCC, ROLLOFF_PCT,
                       SCHEMA_VERSION)

MODEL_FORMAT = "wrice-model"
MODEL_VERSION = 2

# Two supported readings of the reference topology: four dense layers with
# every non-output layer 512 wide, or a compact variant with two hidden layers.
ARCHITECTURES = {
    "paper4": (512, 512, 512),
    "compact3": (512, 512),
}

_CE_CLAMP = 1e-12

# Adam's published defaults (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# elements per Adam block: the step's scratch, and each block of whole rows
# of a weight gradient, stay about this long, whatever the model's size
_ADAM_BLOCK = 32768

# the fixed settings that a header's `stft` and `features` sections hold
_FIXED_STFT = {"window": WINDOW}
_FIXED_FEATURES = {"rolloff_pct": ROLLOFF_PCT, "bandwidth_order": BANDWIDTH_ORDER,
                   "fmin": MEL_FMIN, "fmax": None, "log_floor": LOG_FLOOR}  # None: Nyquist


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        check_seed(self.seed)


@dataclass
class AdamState:
    """Adam's state over one flat parameter array (all of `MlpModel.params`
    in `train`): the bias-corrected first/second moments, the step count,
    and one scratch buffer of at most `_ADAM_BLOCK` elements."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        """The state before the first step of the flat array `params`."""
        return cls(m=_mapped_zeros(params.size), v=_mapped_zeros(params.size),
                   scratch=np.empty(min(params.size, _ADAM_BLOCK)))


def _mapped_zeros(n: int) -> np.ndarray:
    """`n` float64 zeros in an anonymous mapping of their own: the store of
    a model's `params` and of Adam's moments.

    The mapping is `mmap`'s default, MAP_SHARED, and its pages start as
    zeros. `fork` copies no page-table entries of a shared mapping, so a
    process forked while the array lives holds none of its pages until it
    reads them; and freeing the array unmaps them, so they do not stay
    behind as heap that the next pool inherits. The rule that comes with
    it: a forked process shares these pages for writing too, so no pool job
    may write a model or Adam's state, or the parent would see the write.
    No job receives one.
    """
    # 8 bytes at least: `mmap` refuses an empty mapping
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=np.float64, count=n)


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


def _tensor_shapes(layer_dims) -> list[tuple[int, ...]]:
    """The parameter layout: w0, b0, w1, b1, ..., each weight (out, in) and
    each bias (out,). This is the order of `MlpModel.params` and of the
    model file's body."""
    return [shape for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
            for shape in ((fan_out, fan_in), (fan_out,))]


def _tensor_starts(layer_dims) -> list[int]:
    """Each tensor's first element in `params`, in `_tensor_shapes` order,
    then the length of `params`."""
    return list(itertools.accumulate(map(math.prod, _tensor_shapes(layer_dims)), initial=0))


def _views(flat: np.ndarray, layer_dims) -> list[np.ndarray]:
    """`flat` cut into the tensors of `_tensor_shapes`, as views of it;
    ValueError unless its length is theirs."""
    starts = _tensor_starts(layer_dims)
    if flat.shape != (starts[-1],):
        raise ValueError(f"params shape {flat.shape}; layer_dims {layer_dims} need {starts[-1]}")
    return [flat[start:end].reshape(shape)
            for start, end, shape in zip(starts, starts[1:], _tensor_shapes(layer_dims))]


@dataclass
class MlpModel:
    """A dense ReLU network and the settings that inference needs.

    `params` holds every parameter in one 1-D float64 array, in the model
    file's body order (w0, b0, w1, b1, ...); `init_model`, `load_model` and
    `copy` put it in a mapping of its own (`_mapped_zeros`). `weights` and
    `biases` are views into it, so a write through them changes `params`,
    and rebinding `params` would leave them stale. The scaler is as wide as
    the input layer; the label map is a list of distinct names, one per
    output.
    """

    layer_dims: list[int]
    params: np.ndarray
    scaler: Scaler
    label_map: list[str]
    extraction: Extraction
    weights: list[np.ndarray] = field(init=False, repr=False)  # per layer, (out, in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # per layer, (out,)

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
        self.layer_dims = dims
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        if not _all_finite(self.params):
            raise ValueError("params holds non-finite values")
        if self.scaler.mean.shape != (dims[0],) or len(self.label_map) != dims[-1]:
            raise ValueError(f"layer_dims {dims} need a {dims[0]}-wide scaler and {dims[-1]} "
                             f"labels, got {self.scaler.mean.size} and {len(self.label_map)}")
        if (not isinstance(self.label_map, list)
                or not all(isinstance(name, str) for name in self.label_map)
                or len(set(self.label_map)) != len(self.label_map)):
            raise ValueError(f"label map must be a list of distinct names, got {self.label_map!r}")
        tensors = _views(self.params, dims)
        self.weights, self.biases = tensors[0::2], tensors[1::2]

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    def copy(self) -> "MlpModel":
        """A model with its own `params`, in a mapping of their own."""
        params = _mapped_zeros(self.params.size)
        params[:] = self.params
        return replace(self, params=params, layer_dims=list(self.layer_dims))


def layer_dims_for(arch: str, n_inputs: int, n_outputs: int) -> list[int]:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}, expected one of {sorted(ARCHITECTURES)}")
    return [n_inputs, *ARCHITECTURES[arch], n_outputs]


def init_model(layer_dims, seed: int = 0, *, scaler: Scaler, label_map: list[str],
               extraction: Extraction) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic per seed (at least 0)."""
    check_seed(seed)
    dims = [int(d) for d in layer_dims]
    model = MlpModel(dims, _mapped_zeros(_tensor_starts(dims)[-1]), scaler, label_map,
                     extraction)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        rng.random(out=w)  # uniform(-limit, limit) drawn in place, no temporary
        w *= 2 * limit
        w -= limit
    return model


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
    """Returns (probs, activations); activations[0] is the input."""
    activations = [batch]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.maximum(activations[-1] @ w.T + b, 0.0))
    logits = activations[-1] @ model.weights[-1].T + model.biases[-1]
    return softmax(logits), activations


def forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one scaled vector or a batch of them."""
    batch, single = _as_batch(x, model.n_inputs)
    probs, _ = _forward_cached(model, batch)
    return probs[0] if single else probs


def loss_sparse_ce(probs: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true class, clamped at 1e-12."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"label outside [0, {probs.shape[1]})")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, _CE_CLAMP)).mean())


def _block_rows(fan_in: int, fan_out: int) -> int:
    """Rows in each block of a (fan_out, fan_in) weight gradient: the
    multiple of 8 rows that `_ADAM_BLOCK` elements hold, at least 8 and at
    most all of them; all of them when fan_in is not a multiple of 8.

    These are the blocks whose products are bit-equal to the whole-tensor
    product under OpenBLAS's Haswell, SkylakeX, Sandybridge, Nehalem,
    Prescott and Zen kernels, for batches of 1 to 39. A one-row block goes
    to BLAS's matrix-vector routine, and under SkylakeX a block of another
    row count, or of a fan_in that is not a multiple of 8, rounds some
    elements differently from the whole product."""
    if fan_in % 8:
        return fan_out
    return min(fan_out, max(8, _ADAM_BLOCK // fan_in // 8 * 8))


def _layer_gradients(model: MlpModel, activations, probs, labels,
                     buffer: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Backpropagation of the mean batch loss, from the output layer down, as
    the (offset in `params`, flat block) pairs that `adam_step` takes: a
    weight's gradient in blocks of `_block_rows` whole rows, one `matmul`
    each, then its bias's as one block. Each block is written into the
    front of `buffer`, so it must be used before the next is drawn. A
    layer's delta for the layer below is taken before its blocks are
    yielded, so the caller may update the layer as it draws them."""
    starts = _tensor_starts(model.layer_dims)
    batch_size = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch_size), labels] = 1.0
    delta = (probs - onehot) / batch_size  # d(mean CE)/d(logits)
    for layer in range(len(model.weights) - 1, -1, -1):
        w, act = model.weights[layer], activations[layer]
        below = (delta @ w) * (act > 0) if layer > 0 else None
        fan_out, fan_in = w.shape
        rows = _block_rows(fan_in, fan_out)
        for r0 in range(0, fan_out, rows):
            block = buffer[:(min(r0 + rows, fan_out) - r0) * fan_in]
            np.matmul(delta.T[r0 : r0 + rows], act, out=block.reshape(-1, fan_in))
            yield starts[2 * layer] + r0 * fan_in, block
        yield starts[2 * layer + 1], np.sum(delta, axis=0, out=buffer[:fan_out])
        delta = below


def _gradient_buffer(layer_dims) -> np.ndarray:
    """The one buffer that `_layer_gradients` writes every block into: as
    long as a weight gradient's largest row block (`_block_rows`;
    `_ADAM_BLOCK` elements for paper4's 512 x 512 weights) or bias."""
    return np.empty(max(max(_block_rows(fan_in, fan_out) * fan_in, fan_out)
                        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])))


def adam_step(params: np.ndarray, grad: Iterable[tuple[int, np.ndarray]],
              state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update, in place on the flat `params` and on `state`.

    `grad` is the gradient of `params` as (element offset, 1-D block) pairs
    whose blocks cover `params` exactly once, in any order; a whole gradient
    `g` is passed as `[(0, g)]`. Each block is overwritten with its step,
    and the next pair is drawn only after that, so a generator may write
    every block into one buffer (`train` passes `_layer_gradients`, which
    runs from the last tensor down). ValueError if `params` and the state
    are not flat and of one shape, or if a block overruns `params`; and,
    after the blocks have been stepped, if they overlap or leave a gap.

    Per element, in this order: m = m*b1 + (1-b1)*g; v = v*b2 + ((1-b2)*g)*g;
    p -= (lr * (m/c1)) / (sqrt(v/c2) + eps), with c = 1 - b**t, b1, b2 and
    eps the ADAM_* constants and lr the config's. It runs over at most
    `_ADAM_BLOCK` elements at a time, every intermediate in the state's
    block-long scratch buffer or in the gradient block itself; each element
    sees the same operations as in one pass over the whole array, so the
    result is bit-identical to it.
    """
    if isinstance(grad, np.ndarray):
        raise TypeError("grad is an iterable of (offset, block) pairs; "
                        "pass a whole gradient g as [(0, g)]")
    if not params.shape == state.m.shape == (params.size,):
        raise ValueError(f"params {params.shape} and state {state.m.shape} differ or are not flat")
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1**state.t
    correction2 = 1.0 - ADAM_BETA2**state.t
    spans = []
    for start, block in grad:
        if block.ndim != 1 or not 0 <= start <= params.size - block.size:
            raise ValueError(f"gradient block {block.shape} at element {start} overruns "
                             f"params {params.shape}")
        for lo in range(0, block.size, _ADAM_BLOCK):
            g = block[lo : lo + _ADAM_BLOCK]
            p, m, v = (arr[start + lo : start + lo + g.size]
                       for arr in (params, state.m, state.v))
            a = state.scratch[:g.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v += a
            # m and v hold this block's gradient now, so g holds the step
            np.divide(m, correction1, out=a)
            a *= cfg.learning_rate
            np.divide(v, correction2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPSILON
            a /= g
            p -= a
        spans.append((start, start + block.size))
    edges = [0, *itertools.chain(*sorted(spans)), params.size]
    if edges[0::2] != edges[1::2]:  # each block stops where the next starts
        raise ValueError(f"gradient blocks overlap or leave a gap in params {params.shape}")


def _openblas_setters() -> list:
    """The thread-local thread-count setter, `openblas_set_num_threads_local`,
    of each OpenBLAS mapped into this process (numpy's, and scipy's once it
    is loaded), found through `/proc/self/maps` and driven through `ctypes`;
    none where `/proc` is absent or no OpenBLAS exports it."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                            if len(fields) == 6 and "openblas" in os.path.basename(fields[5])})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return setters


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread for this thread inside the block, so a product
    is never split between threads; each count the setter returned is
    restored after it. Without an OpenBLAS that has the setter, nothing
    changes."""
    setters = _openblas_setters()
    before = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, before):
            setter(count)


@_one_blas_thread()
def train(model: MlpModel, train_set: LabeledDataset,
          cfg: TrainConfig = TrainConfig()) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch training on raw feature rows, scaled once by `model.scaler`.

    Rows scaled beforehand would be scaled twice. Shuffles per epoch with a
    generator seeded from cfg.seed; the final partial batch is trained on.
    Trains `model` in place and returns it with the history, which holds
    the per-epoch mean training loss and accuracy; train `model.copy()` to
    keep the original. Each batch is one `adam_step` of one `AdamState`
    over `params`, fed `_layer_gradients`' blocks as they are made, so
    beside `params` training holds Adam's two moments, one gradient block
    and one scratch block, each about `_ADAM_BLOCK` elements. The matrix
    products run on one OpenBLAS thread (`_one_blas_thread`), so the model
    does not depend on how many threads OpenBLAS would split them over.
    Raises NonFiniteError if a batch loss becomes NaN or infinite (a
    learning rate too large for the data can diverge); the model is then
    left as the steps before it made it.
    """
    if train_set.n == 0:
        raise ValueError("training set is empty")
    x_all = scale_rows(model.scaler, train_set.features)
    state = AdamState.for_params(model.params)
    buffer = _gradient_buffer(model.layer_dims)
    rng = np.random.default_rng(cfg.seed)
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
            probs, activations = _forward_cached(model, xb)
            loss = loss_sparse_ce(probs, yb)
            if not math.isfinite(loss):
                raise NonFiniteError(f"training loss became {loss} in epoch {epoch}; "
                                     f"the learning rate {cfg.learning_rate} may be too large")
            total_loss += loss * len(picked)
            total_correct += int((probs.argmax(axis=1) == yb).sum())
            adam_step(model.params, _layer_gradients(model, activations, probs, yb, buffer),
                      state, cfg)
        history.loss.append(total_loss / train_set.n)
        history.accuracy.append(total_correct / train_set.n)
    return model, history


def predict(model: MlpModel, rows: np.ndarray) -> tuple[str, np.ndarray]:
    """Scale raw features with the bundled scaler and classify them.

    `rows` is one raw feature row, or an (n_segments, d) matrix of one
    file's segment rows (`dataset.file_rows`), classified by the mean of
    the per-segment probabilities. Returns (label name, class
    probabilities); ties break to the lowest id.
    """
    probs = forward(model, scale_rows(model.scaler, np.atleast_2d(rows))).mean(axis=0)
    return model.label_map[int(np.argmax(probs))], probs


def _header(model: MlpModel) -> dict:
    """The model file's header, without its checksum: what the checksum
    covers."""
    tensors = [{"name": f"{'wb'[i % 2]}{i // 2}", "shape": list(shape)}
               for i, shape in enumerate(_tensor_shapes(model.layer_dims))]
    ex = model.extraction
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_dims": model.layer_dims,
        "label_map": model.label_map,
        "scaler": {"mean": model.scaler.mean.tolist(), "std": model.scaler.std.tolist()},
        "stft": {**asdict(ex.stft), **_FIXED_STFT},
        "features": {"n_mfcc": N_MFCC, "n_mels": ex.n_mels, **_FIXED_FEATURES},
        "audio": {"sample_rate": ex.sample_rate, "segment_seconds": ex.segment_seconds},
        "schema_version": SCHEMA_VERSION,
        "tensors": tensors,
    }


def _all_finite(params: np.ndarray) -> bool:
    """Whether every parameter is finite, checked `_ADAM_BLOCK` elements at
    a time, so no array of one bool per parameter is built."""
    return all(np.isfinite(params[start : start + _ADAM_BLOCK]).all()
               for start in range(0, params.size, _ADAM_BLOCK))


def _header_line(model: MlpModel, checksum) -> bytes:
    """The header line that `save_model` writes for `model` with `checksum`,
    and the only one that `load_model` accepts for the model it parses."""
    return (json.dumps({**_header(model), "checksum": checksum}) + "\n").encode()


def _checksum(header: dict, body) -> str:
    """sha256 over the canonical JSON of the header, a newline, and the body
    (any bytes-like object, hashed in place)."""
    canonical = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(canonical + b"\n")
    digest.update(body)
    return "sha256:" + digest.hexdigest()


def save_model(model: MlpModel, path) -> None:
    """Write the versioned model file: a JSON header line, then `params` as
    raw little-endian float64. The header's checksum covers the header and
    the body. The body is hashed and written from a view of `params`, never
    copied. Raises NonFiniteError, and writes nothing, if a parameter is
    NaN or infinite."""
    if not _all_finite(model.params):
        raise NonFiniteError(f"{path}: model has non-finite parameters; not saved")
    body = _body(model)
    with open(path, "wb") as fh:
        fh.write(_header_line(model, _checksum(_header(model), body)))
        fh.write(body)


def load_model(path) -> MlpModel:
    """Read a model file back; restores parameters bit-exactly.

    The header line is parsed first, then the body is read straight into
    the one float64 array that becomes `params`, so loading holds one copy
    of the parameters. The header line must be, byte for byte, the one
    `save_model` writes for the model it parses to (with the file's own
    checksum field), and the checksum must then match. Raises
    VersionMismatchError on a wrong version field (files of an older version
    must be written again by `wrice train`), SchemaMismatchError on another
    feature schema, and CorruptModelError on any other header or on a
    checksum failure.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise CorruptModelError(f"{path}: missing header line")
        try:
            header = json.loads(line[:-1].decode())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CorruptModelError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise CorruptModelError(f"{path}: not a {MODEL_FORMAT} file")
        if header.get("version") != MODEL_VERSION:
            raise VersionMismatchError(
                f"{path}: model version {header.get('version')!r}, expected {MODEL_VERSION}; "
                "re-run `wrice train` to write a current model file")
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"{path}: feature schema version {version!r}, expected {SCHEMA_VERSION}")
        # a missing key or a bad value is damage, not a caller error; the
        # checksum last catches any edited value that still renders as written
        try:
            model = _model_from(header, fh, os.fstat(fh.fileno()).st_size - len(line), path)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise CorruptModelError(
                f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
    if line != _header_line(model, header.get("checksum")):
        raise CorruptModelError(f"{path}: malformed model file (the header is not the one "
                                "wrice writes for the model it describes)")
    if _checksum(_header(model), _body(model)) != header["checksum"]:
        raise CorruptModelError(f"{path}: checksum mismatch (file truncated or edited)")
    return model


def _body(model: MlpModel) -> memoryview:
    """The model file's body: the bytes of `params` as little-endian float64,
    a view of them, not a copy, on a little-endian machine."""
    return memoryview(model.params.astype("<f8", copy=False)).cast("B")


def _model_from(header: dict, fh, body_size: int, path) -> MlpModel:
    dims = [int(d) for d in header["layer_dims"]]
    size = 8 * _tensor_starts(dims)[-1]
    if body_size != size:
        raise CorruptModelError(f"{path}: body has {body_size} bytes, its tensors need {size}")
    # the body is read into the mapping that the model then owns, not copied
    params = _mapped_zeros(size // 8).view("<f8")
    got = fh.readinto(memoryview(params).cast("B"))
    if got != size:
        raise CorruptModelError(f"{path}: body has {got} bytes, its tensors need {size}")
    params = params.astype(np.float64, copy=False)
    # a null section is a TypeError here, so the file is named malformed
    scaler, stft, features, audio = (header[k] for k in ("scaler", "stft", "features", "audio"))
    extraction = Extraction(int(audio["sample_rate"]), float(audio["segment_seconds"]),
                            StftConfig(int(stft["frame_len"]), int(stft["hop"])),
                            int(features["n_mels"]))
    return MlpModel(dims, params, Scaler(np.array(scaler["mean"]), np.array(scaler["std"])),
                    header["label_map"], extraction)
