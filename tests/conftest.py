"""Shared oracles and fixtures.

Two transform oracles that share no code with `numpy.fft`, which the package
uses: `naive_dft`, a deliberate O(n^2) matrix product, and an iterative
radix-2 FFT (`fft`, and `rfft`, which packs real frames into a half-length
complex FFT), checked against it. `frame_zcr` counts sign changes frame by
frame, independently of `features.zcr`'s one pass over the signal, and
`sequential_rolloffs` takes one running sum over every bin, the arithmetic
that `features.rolloffs`' two-level search must reproduce bit for bit.
`family_means` applies the package's per-frame family functions (with
`frame_zcr` and `sequential_rolloffs` for theirs) to whole frame and
magnitude arrays, so feature tests can pin degenerate spectra directly and
compare `extract_features`, which reduces block by block, against one pass
over everything.
`interp_resample` is `WavReader.read_resampled` done on a whole buffer, and
`whole_file_rows` is `dataset.file_rows` done on whole buffers, the oracles
for their range-by-range and block-by-block streaming.
`full_array_adam_step` is the Adam update in one pass over the whole
parameter array, the oracle for `mlp.adam_step`, which runs in blocks.
`whole_tensor_layer_gradients` is backpropagation as it ran before weight
gradients were made in row blocks, each tensor's gradient whole in a buffer
the size of the largest tensor, the oracle for `mlp._layer_gradients`.
Gradients pass between them as `mlp.adam_step` takes them: (element offset
in `params`, flat block) pairs, which `assembled_gradient` joins into one
array, checking that they cover it exactly once.
`magnitudes` stacks the package's `BlockSpectra` blocks into a whole
spectrogram, `whole_block_magnitudes` is one block's transform in one stage
(the oracle for `BlockSpectra`'s stages), and `layer_gradients` joins the
gradient blocks of `mlp._layer_gradients` into the model's tensors, so tests check the
spectrum and the backpropagation that extraction and `train` run.
`whole_recording_synth_sample` and `per_block_sinusoid` are the
synthesis as it ran before it was fused into one chunked pass: each
operation over the whole recording in turn, and one sinusoid call per
_SINE_BLOCK block. `whole_buffer_write_wav` is the 16-bit encoder with one
full-length conversion. They are the byte-identity oracles of
`synth.synth_sample`, `synth._sinusoid` and `write_wav`.
`write_pcm` writes 16-bit files with `write_wav` and 24- and 32-bit ones,
which wrice reads but does not write, with `wav_bytes`.
`traced_peak` is the tracemalloc peak of a call plus the peak of the
parameter-length mappings it holds, which tracemalloc cannot see, for the
memory tests.
`fresh_python` runs a command in a new interpreter that imports this
checkout's wrice, for what one process cannot show of another: which
modules a verb loads, and the bytes a shell run writes.
"""

import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import wrice
from wrice.audio_io import _WAVE_FORMAT_PCM, AudioBuffer, read_wav, write_wav
from wrice.dataset import Extraction, Scaler
from wrice.dsp import BlockSpectra, StftConfig, block_spans, frame_signal, hann_window
from wrice.features import (N_MELS, ROLLOFF_PCT, bandwidths, centroids, chroma_projector,
                            chromas, extract_features, mel_projector, mfccs, rms)
from wrice.synth import (_BASE_LEVEL, _HARMONIC_LEVEL, _JITTER_PCT, _MOD_DEPTH, _N_HARMONICS,
                         _REFERENCE_RPM, _SINE_BLOCK, _SPEED_CUTOFF_EXP, _SPEED_LEVEL_EXP,
                         DRY_LEVEL_BOOST, ConditionSpec, _n_samples, _one_pole_lowpass)


def fresh_python(*args, env=None, timeout=300) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports wrice from this
    checkout, its output captured as text. `env` maps variable names to the
    values this call sets, or to None for the ones it removes."""
    src = str(Path(wrice.__file__).parents[1])
    full = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *map(str, args)], env=full, capture_output=True,
                          text=True, timeout=timeout)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Brute-force DFT: X[k] = sum_n x[n] e^{-2pi i k n / N}."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ basis.T


@lru_cache(maxsize=32)
def _bit_reverse_indices(n: int) -> np.ndarray:
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(n.bit_length() - 1):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


@lru_cache(maxsize=32)
def _twiddles(half: int) -> np.ndarray:
    twiddles = np.exp(-1j * np.pi * np.arange(half) / half)
    twiddles.setflags(write=False)
    return twiddles


def fft(x: np.ndarray) -> np.ndarray:
    """Radix-2 decimation-in-time FFT along the last axis.

    Accepts real or complex input of power-of-two length; batches over any
    leading axes.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    cur = np.ascontiguousarray(x[..., _bit_reverse_indices(n)], dtype=np.complex128)
    if n == 1:
        return cur
    nxt = np.empty_like(cur)
    half = 1
    while half < n:
        grouped = cur.reshape(cur.shape[:-1] + (n // (2 * half), 2, half))
        merged = nxt.reshape(cur.shape[:-1] + (n // (2 * half), 2 * half))
        odd = grouped[..., 1, :] * _twiddles(half)
        np.add(grouped[..., 0, :], odd, out=merged[..., :half])
        np.subtract(grouped[..., 0, :], odd, out=merged[..., half:])
        cur, nxt = nxt, cur
        half *= 2
    return cur.reshape(x.shape)


def rfft(x: np.ndarray) -> np.ndarray:
    """One-sided spectrum of real input: bins 0..n/2 of the length-n FFT.

    Packs even/odd samples into a half-length complex FFT and untangles the
    result; identical (to rounding) to fft(x)[..., :n//2 + 1].
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 2 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two >= 2, got {n}")
    m = n // 2
    z = x[..., 0::2] + 1j * x[..., 1::2]
    zf = fft(z)
    k = np.arange(m + 1)
    zk = zf[..., k % m]
    zmk = np.conj(zf[..., (m - k) % m])
    even_part = 0.5 * (zk + zmk)
    odd_part = -0.5j * (zk - zmk)
    return even_part + np.exp(-2j * np.pi * k / n) * odd_part




def assembled_gradient(grad, size: int) -> np.ndarray:
    """The flat gradient of `size` elements that the (offset, block) pairs of
    `grad` cover, each block copied before the next is drawn, which may
    overwrite it; ValueError unless every element is covered exactly once,
    counted element by element."""
    full, covered = np.zeros(size), np.zeros(size, dtype=int)
    for start, block in grad:
        if block.ndim != 1 or start < 0 or start + block.size > size:
            raise ValueError(f"block {block.shape} at {start} is outside {size} elements")
        full[start : start + block.size] = block
        covered[start : start + block.size] += 1
    if not (covered == 1).all():
        raise ValueError(f"{np.count_nonzero(covered != 1)} elements not covered exactly once")
    return full


def full_array_adam_step(params, grad, state, cfg) -> None:
    """`mlp.adam_step` in one pass over the whole array: the same per-element
    operations in the same order, on the gradient assembled in full from
    its (offset, block) pairs, through two parameter-length temporaries in
    place of the state's block-long scratch."""
    from wrice.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

    grad = assembled_gradient(grad, params.size)
    if not params.shape == grad.shape == state.m.shape:
        raise ValueError(f"params {params.shape}, grad {grad.shape}, state {state.m.shape} differ")
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1**state.t
    correction2 = 1.0 - ADAM_BETA2**state.t
    m, v, a, b = state.m, state.v, np.empty_like(params), np.empty_like(params)
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v += a
    np.divide(m, correction1, out=a)
    a *= cfg.learning_rate
    np.divide(v, correction2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    params -= a


def traced_peak(fn) -> int:
    """The peak bytes of a second call of `fn` (the first fills any cache
    before tracing): tracemalloc's peak, plus the peak bytes of the
    mappings that `mlp._mapped_zeros` made in the call and that were still
    live, which tracemalloc cannot see. The two peaks are added, so where
    they fall at different moments of the call the sum is an upper bound."""
    from wrice import mlp

    mapped = {"live": 0, "peak": 0}

    def unmapped(nbytes):
        mapped["live"] -= nbytes

    def recorded(n):
        arr = made(n)
        mapped["live"] += arr.nbytes
        mapped["peak"] = max(mapped["peak"], mapped["live"])
        weakref.finalize(arr.base.obj, unmapped, arr.nbytes)  # the mmap, freed with its views
        return arr

    made = mlp._mapped_zeros
    fn()
    mlp._mapped_zeros = recorded
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] + mapped["peak"]
    finally:
        tracemalloc.stop()
        mlp._mapped_zeros = made


def finite_difference_grads(model, x, y, h=1e-5):
    """Central differences of the mean batch loss over every parameter."""
    from wrice.mlp import forward, loss_sparse_ce

    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for tensor, grad in list(zip(model.weights, grads_w)) + list(zip(model.biases, grads_b)):
        flat = tensor.ravel()
        out = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            hi = loss_sparse_ce(forward(model, x), y)
            flat[i] = original - h
            lo = loss_sparse_ce(forward(model, x), y)
            flat[i] = original
            out[i] = (hi - lo) / (2 * h)
    return grads_w, grads_b


def layer_gradients(model, x, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the mean batch loss w.r.t. the weights and the biases, by
    the routine `train` runs: `_forward_cached`, then `_layer_gradients`,
    its blocks assembled into one flat gradient and cut into the shapes of
    the model's tensors at their own offsets in `params`."""
    from wrice.mlp import _forward_cached, _gradient_buffer, _layer_gradients

    probs, activations = _forward_cached(model, np.atleast_2d(x))
    blocks = _layer_gradients(model, activations, probs, np.atleast_1d(y),
                              _gradient_buffer(model.layer_dims))
    flat = assembled_gradient(blocks, model.params.size)
    grads = [flat[start : start + t.size].reshape(t.shape)
             for t, start in zip(tensors_in_order(model), tensor_offsets(model))]
    return grads[0::2], grads[1::2]


def tensors_in_order(model) -> list[np.ndarray]:
    """The weight and bias views in the model file's order: w0, b0, w1, b1, ..."""
    return [t for pair in zip(model.weights, model.biases) for t in pair]


def tensor_offsets(model) -> list[int]:
    """Each tensor's first element in `params`, in `tensors_in_order` order,
    from the sizes of the tensors themselves."""
    return np.cumsum([0] + [t.size for t in tensors_in_order(model)])[:-1].tolist()


def whole_tensor_layer_gradients(model, activations, probs, labels, buffer):
    """`mlp._layer_gradients` with each tensor's gradient made whole, by one
    product per weight, in a buffer the size of the largest tensor (the
    `buffer` argument is not used): yields (offset in `params`, flat
    gradient) per tensor, the step `train` ran before weight gradients came
    in row blocks."""
    offsets = tensor_offsets(model)
    own = np.empty(max(w.size for w in model.weights))
    batch_size = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch_size), labels] = 1.0
    delta = (probs - onehot) / batch_size
    for layer in range(len(model.weights) - 1, -1, -1):
        w = model.weights[layer]
        below = (delta @ w) * (activations[layer] > 0) if layer > 0 else None
        yield offsets[2 * layer], np.matmul(delta.T, activations[layer],
                                            out=own[:w.size].reshape(w.shape)).reshape(-1)
        yield offsets[2 * layer + 1], np.sum(delta, axis=0, out=own[:w.shape[0]])
        delta = below


def identity_bundle(layer_dims) -> dict:
    """The scaler, label map and extraction that every `MlpModel` carries:
    an identity scaler (mean 0, std 1, so a scaled row equals the raw one
    exactly), labels c0, c1, ... and the default extraction."""
    return {"scaler": Scaler(mean=np.zeros(layer_dims[0]), std=np.ones(layer_dims[0])),
            "label_map": [f"c{i}" for i in range(layer_dims[-1])],
            "extraction": Extraction()}


def edit_model_header(source, target, edit, rehash=False):
    """Copy the model file `source` to `target` with `edit` applied to its
    parsed header; with `rehash`, the checksum is recomputed to match, so
    only the loader's own checks can refuse the edit."""
    from wrice.mlp import _checksum

    head, _, body = Path(source).read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    if rehash:
        del header["checksum"]
        header["checksum"] = _checksum(header, body)
    Path(target).write_bytes(json.dumps(header).encode() + b"\n" + body)
    return target


# `tests/data/model_v2.wrice`, written by an earlier release; it must keep
# loading and re-saving byte-identically
MODEL_V2 = Path(__file__).parent / "data" / "model_v2.wrice"

# header edits of MODEL_V2 that parse to a model it could hold but are not
# the bytes `save_model` writes for it: with `rehash`, only the loader's
# rule that the header line is those bytes can refuse them
RESPELT_HEADERS = [
    pytest.param(lambda h: h["stft"].update(hop=256.0), id="hop-float"),
    pytest.param(lambda h: h["features"].update(n_mels=40.0), id="n-mels-float"),
    pytest.param(lambda h: h["audio"].update(sample_rate=11025.0), id="sample-rate-float"),
    pytest.param(lambda h: h["audio"].update(segment_seconds=2), id="segment-seconds-int"),
    pytest.param(lambda h: h["stft"].update(hop=True), id="hop-true"),
    pytest.param(lambda h: h["stft"].update(hop="256"), id="hop-string"),
    pytest.param(lambda h: h.update(format=h.pop("format")), id="keys-reordered"),
]


def gradient_check_instance(layer_dims, seed, batch=3, kink_margin=1e-3):
    """A random (model, inputs, labels) triple safe for finite differencing.

    Central differences only estimate the derivative where the network is
    smooth around the operating point, so biases are randomized (zero biases
    park dead samples exactly on the ReLU kink) and inputs are redrawn until
    every hidden pre-activation clears the kink by a wide multiple of h.
    """
    from wrice.mlp import _forward_cached, init_model

    rng = np.random.default_rng(seed)
    model = init_model(layer_dims, seed=seed, **identity_bundle(layer_dims))
    for b in model.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    for _ in range(100):
        x = rng.normal(size=(batch, layer_dims[0]))
        y = rng.integers(0, layer_dims[-1], size=batch)
        _, activations = _forward_cached(model, x)
        hidden = [a @ w.T + b for a, w, b in
                  zip(activations, model.weights[:-1], model.biases[:-1])]
        if min(np.abs(z).min() for z in hidden) > kink_margin:
            return model, x, y
    raise RuntimeError("could not find a kink-free draw")


def per_block_sinusoid(step: float, phase: float, out: np.ndarray) -> np.ndarray:
    """Fill out[i] = sin(step * i + phase), one _SINE_BLOCK samples at a time.

    The block starting at sample s is sin(a + step * k) = sin(a) * cos(step * k)
    + cos(a) * sin(step * k) with a = step * s + phase, so one block of offset
    cosines and sines serves every block, and sin/cos run n / _SINE_BLOCK +
    2 * _SINE_BLOCK times instead of n. Elementwise ufuncs only: no BLAS call.
    """
    offsets = np.arange(min(len(out), _SINE_BLOCK)) * step
    cos_b = np.cos(offsets)
    sin_b = np.sin(offsets, out=offsets)
    scratch = np.empty_like(cos_b)
    for start in range(0, len(out), _SINE_BLOCK):
        a = start * step + phase
        blk = out[start:start + _SINE_BLOCK]
        m = len(blk)
        np.multiply(cos_b[:m], math.sin(a), out=blk)
        np.multiply(sin_b[:m], math.cos(a), out=scratch[:m])
        blk += scratch[:m]
    return out


def whole_recording_synth_sample(spec: ConditionSpec, sample_rate: int, seed) -> AudioBuffer:
    """One synthetic recording; deterministic per seed.

    All shaping parameters are jittered uniformly within +/-_JITTER_PCT
    (10%) so samples of one condition form a cloud rather than a point.
    """
    n = _n_samples(spec, sample_rate)
    cutoff = spec.cutoff_hz
    rng = np.random.default_rng(seed)

    def jittered(value: float) -> float:
        return value * rng.uniform(1.0 - _JITTER_PCT, 1.0 + _JITTER_PCT)

    speed_ratio = spec.speed_rpm / _REFERENCE_RPM
    level = jittered(_BASE_LEVEL
                     * (DRY_LEVEL_BOOST if spec.friction == "dry" else 1.0)
                     * speed_ratio**_SPEED_LEVEL_EXP)
    cutoff = min(jittered(cutoff * speed_ratio**_SPEED_CUTOFF_EXP), 0.49 * sample_rate)
    rotation_hz = jittered(spec.speed_rpm / 60.0)
    depth = jittered(_MOD_DEPTH)

    samples = _one_pole_lowpass(rng.standard_normal(n), cutoff, sample_rate)
    samples /= np.sqrt(np.mean(samples**2))
    # One scratch array holds the modulation, then each harmonic in turn, so
    # a pool worker's peak memory stays two sample-length arrays.
    wave = per_block_sinusoid(2.0 * np.pi * rotation_hz / sample_rate,
                              rng.uniform(0, 2 * np.pi), np.empty(n))
    wave *= depth
    wave += 1.0
    samples *= level
    samples *= wave
    for harmonic in range(1, _N_HARMONICS + 1):
        amp = jittered(level * _HARMONIC_LEVEL / harmonic)
        phase = rng.uniform(0, 2 * np.pi)
        per_block_sinusoid(2.0 * np.pi * harmonic * rotation_hz / sample_rate, phase, wave)
        wave *= amp
        samples += wave
    return AudioBuffer(samples, sample_rate)


def whole_buffer_write_wav(path, buf: AudioBuffer) -> None:
    """Encode a mono buffer as little-endian 16-bit PCM.

    Values outside [-1, 1] are clipped to the int16 range. Decoded 16-bit
    PCM re-encoded round-trips exactly.
    """
    scale = 2**15
    # rounded and clipped in place, so the only full-length temporaries are
    # this float64 array and its one integer cast
    ints = np.multiply(buf.samples, scale)
    np.rint(ints, out=ints)
    np.clip(ints, -scale, scale - 1, out=ints)
    ints = ints.astype("<i2")
    frames = ints.tobytes()

    fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, 1, buf.sample_rate,
                      buf.sample_rate * 2, 2, 16)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames)
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    Path(path).write_bytes(blob)


def wav_bytes(payload: bytes, format_tag=1, channels=1, sample_rate=44100,
              bits=16, data_id=b"data") -> bytes:
    """A RIFF/WAVE file with one fmt chunk and one data chunk around `payload`."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + data_id + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _pcm_bytes(vals: np.ndarray, bits: int) -> bytes:
    """Little-endian PCM bytes of integer samples (int16, or int32 for 24 and
    32 bits), for `wav_bytes`: wrice decodes 24- and 32-bit PCM but writes
    only 16-bit."""
    raw = vals.tobytes()
    if bits == 24:  # the low three bytes of each little-endian int32
        raw = np.frombuffer(raw, np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return raw


def write_pcm(path, samples, sample_rate: int, bits: int) -> None:
    """`samples` as a mono `bits`-bit PCM file: by `write_wav` at 16 bits,
    and at 24 and 32 bits, which wrice decodes but does not write, by
    `wav_bytes` around the samples rounded and clipped to the integer range."""
    if bits == 16:
        write_wav(path, AudioBuffer(samples, sample_rate))
        return
    scale = 2 ** (bits - 1)
    ints = np.clip(np.rint(np.multiply(samples, scale)), -scale, scale - 1).astype("<i4")
    path.write_bytes(wav_bytes(_pcm_bytes(ints, bits), sample_rate=sample_rate, bits=bits))


def sine_buffer(freq_hz: float, sample_rate: int = 22050, seconds: float = 1.0,
                amplitude: float = 1.0, phase: float = 0.0) -> AudioBuffer:
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), sample_rate)


def noise_buffer(seconds: float = 1.0, sample_rate: int = 22050,
                 amplitude: float = 0.5, seed: int = 0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    return AudioBuffer(amplitude * rng.standard_normal(n), sample_rate)


def bin_freqs(frame_len: int = 2048, sample_rate: int = 22050) -> np.ndarray:
    """Centre frequencies (Hz) of the one-sided FFT bins of a frame."""
    return np.arange(frame_len // 2 + 1) * (sample_rate / frame_len)


def magnitudes(buf: AudioBuffer, cfg: StftConfig) -> np.ndarray:
    """Every frame's Hann-windowed magnitudes: the `BlockSpectra` blocks of
    `block_spans`, each copied out of the buffer the next one reuses, stacked."""
    spectra = BlockSpectra(cfg)
    return np.concatenate([spectra(buf.samples[start:stop])[1].copy()
                           for start, stop in block_spans(len(buf), cfg)])


def whole_block_magnitudes(span: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """The oracle for `BlockSpectra`, which runs a block in stages of
    STAGE_FRAMES frames: one window multiply, one `rfft` and one `abs` over
    every frame of the block `span`."""
    frames = frame_signal(span, cfg)
    return np.abs(np.fft.rfft(frames * hann_window(cfg.frame_len), axis=-1))


def frame_zcr(frames: np.ndarray) -> np.ndarray:
    """Zero-crossing rate of each row of a frame matrix, counted row by row
    (zero counts as non-negative): the oracle for `features.zcr`, which
    counts each sign change of the signal once."""
    nonneg = frames >= 0
    return np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / frames.shape[1]


def sequential_rolloffs(power: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The oracle for `features.rolloffs`: the lowest frequency at or below
    which `ROLLOFF_PCT` of each row's energy lies (a silent row gives 0),
    from one sequential running sum over every bin of the row."""
    cumulative = np.cumsum(power, axis=1)
    totals = cumulative[:, -1]
    first = np.argmax(cumulative >= ROLLOFF_PCT * totals[:, None], axis=1)
    return np.where(totals > 0, freqs[first], 0.0)


def family_means(frames, mags, sample_rate: int = 22050, n_mels: int = N_MELS) -> np.ndarray:
    """The feature vector in schema order: each per-frame family function
    (for ZCR and roll-off, the `frame_zcr` and `sequential_rolloffs`
    oracles) applied once to all of `frames` (raw) and `mags` (their
    magnitudes), then averaged over the frames."""
    frame_len = 2 * (mags.shape[1] - 1)
    freqs = bin_freqs(frame_len, sample_rate)
    power = np.square(mags)
    centers = centroids(mags, freqs)
    return np.concatenate([
        [frame_zcr(frames).mean(), centers.mean(), bandwidths(mags, freqs, centers).mean(),
         sequential_rolloffs(power, freqs).mean(), rms(frames).mean(),
         chromas(power, chroma_projector(frame_len, sample_rate)).mean()],
        mfccs(power, mel_projector(n_mels, frame_len, sample_rate)).mean(axis=0),
    ])


def interp_resample(samples: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """The oracle for `WavReader.read_resampled`, which reads a range at a
    time: `samples` at `rate` resampled to `target_rate` by one `np.interp`
    over all of them, at every output instant i * rate / target_rate."""
    if rate == target_rate:
        return samples
    n_out = len(samples) * target_rate // rate
    return np.interp(np.arange(n_out) * (rate / target_rate), np.arange(len(samples)), samples)


def whole_file_rows(path, ex: Extraction, scales, seed: int, file_idx: int) -> list:
    """The oracle for `dataset.file_rows`, which streams a file block by
    block: the whole file decoded, resampled by `np.interp` at every output
    instant, noised by one draw of its full length per scale, cut into
    segments, and each segment extracted whole."""
    buf = read_wav(path)
    samples = interp_resample(buf.samples, buf.sample_rate, ex.sample_rate)
    window = int(ex.segment_seconds * ex.sample_rate)
    per_scale = []
    for scale_idx, scale in enumerate(scales):
        signal = samples
        if scale:
            rng = np.random.default_rng(np.random.SeedSequence([seed, scale_idx, file_idx]))
            signal = rng.standard_normal(len(samples)) * scale + samples
        pieces = ([signal[i * window : (i + 1) * window] for i in range(len(signal) // window)]
                  or [signal])
        per_scale.append(np.array([
            extract_features(AudioBuffer(piece, ex.sample_rate), ex.stft, ex.n_mels).values
            for piece in pieces]))
    return per_scale


# Small corpus settings shared by dataset/eval/cli tests: cheap but large
# enough for one STFT frame per file and a non-degenerate split.
TINY_SR = 11025
TINY_SECONDS = 1.5
TINY_STFT = StftConfig(frame_len=1024, hop=256)
TINY_EX = Extraction(TINY_SR, TINY_SECONDS, TINY_STFT)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory) -> Path:
    from wrice.synth import CATEGORIES, synth_corpus

    root = tmp_path_factory.mktemp("corpus") / "tiny"
    synth_corpus(root, counts={c: 4 for c in CATEGORIES}, sample_rate=TINY_SR,
                 seed=1234, duration_s=TINY_SECONDS)
    return root


@pytest.fixture(scope="session")
def tiny_dataset(tiny_corpus):
    from wrice.dataset import ingest_corpus

    return ingest_corpus(tiny_corpus, TINY_EX)


@pytest.fixture(scope="session")
def realistic_corpus(tmp_path_factory) -> Path:
    """Four 30 s, 22050 Hz files, one per category, for the default 2048/512 STFT.

    This is the size users and the benchmark run: 1,288 frames per file,
    reduced in 21 blocks of up to 64 frames into running sums, so anything
    that made the sums depend on the worker count would show in the last
    bits of the features.
    """
    from wrice.synth import CATEGORIES, synth_corpus

    root = tmp_path_factory.mktemp("corpus") / "realistic"
    synth_corpus(root, counts={c: 1 for c in CATEGORIES}, seed=4321, duration_s=30.0)
    return root
