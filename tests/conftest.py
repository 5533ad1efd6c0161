"""Shared oracles and fixtures.

The DFT oracle is a deliberate O(n^2) matrix product, independent of the
radix-2 transform it checks. Spectrogram construction helpers let feature
tests pin degenerate spectra directly instead of going through the STFT.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from wrice.audio_io import AudioBuffer
from wrice.dataset import Extraction
from wrice.dsp import Spectrogram, StftConfig


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Brute-force DFT: X[k] = sum_n x[n] e^{-2pi i k n / N}."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ basis.T


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


def gradient_check_instance(layer_dims, seed, batch=3, kink_margin=1e-3):
    """A random (model, inputs, labels) triple safe for finite differencing.

    Central differences only estimate the derivative where the network is
    smooth around the operating point, so biases are randomized (zero biases
    park dead samples exactly on the ReLU kink) and inputs are redrawn until
    every hidden pre-activation clears the kink by a wide multiple of h.
    """
    from wrice.mlp import _forward_cached, init_model

    rng = np.random.default_rng(seed)
    model = init_model(layer_dims, seed=seed)
    for b in model.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    for _ in range(100):
        x = rng.normal(size=(batch, layer_dims[0]))
        y = rng.integers(0, layer_dims[-1], size=batch)
        _, _, preacts = _forward_cached(model, x)
        if min(np.abs(z).min() for z in preacts[:-1]) > kink_margin:
            return model, x, y
    raise RuntimeError("could not find a kink-free draw")


def wav_bytes(payload: bytes, format_tag=1, channels=1, sample_rate=44100,
              bits=16, data_id=b"data") -> bytes:
    """A RIFF/WAVE file with one fmt chunk and one data chunk around `payload`."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + data_id + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def sine_buffer(freq_hz: float, sample_rate: int = 22050, seconds: float = 1.0,
                amplitude: float = 1.0, phase: float = 0.0) -> AudioBuffer:
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), sample_rate)


def noise_buffer(seconds: float = 1.0, sample_rate: int = 22050,
                 amplitude: float = 0.5, seed: int = 0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    return AudioBuffer(amplitude * rng.standard_normal(n), sample_rate)


def spectrogram_from(magnitudes, sample_rate: int = 22050,
                     frame_len: int = 2048) -> Spectrogram:
    """Wrap a handcrafted magnitude matrix in a Spectrogram with the usual axes."""
    magnitudes = np.atleast_2d(np.asarray(magnitudes, dtype=np.float64))
    n_bins = magnitudes.shape[1]
    assert n_bins == frame_len // 2 + 1, "magnitude width must be frame_len/2 + 1"
    cfg = StftConfig(frame_len=frame_len, hop=frame_len // 4)
    bin_freqs = np.arange(n_bins) * (sample_rate / frame_len)
    return Spectrogram(magnitudes=magnitudes, bin_freqs=bin_freqs,
                       config=cfg, sample_rate=sample_rate)


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
