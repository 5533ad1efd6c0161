"""Framing, windowing, and short-time Fourier analysis.

`spectrum_blocks` windows frames and takes `numpy.fft.rfft` magnitudes one
block of frames at a time (frame lengths must be powers of two); `stft`
stacks its blocks. The module also keeps its own iterative radix-2 FFT,
vectorized over a batch of frames, as the checked reference the tests compare
against: `fft`, and `rfft`, which packs real frames into a half-length complex
FFT to halve the work without changing the result.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

WINDOW_KINDS = ("hann", "rectangular")


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 2048
    hop: int = 512
    window: str = "hann"

    def __post_init__(self):
        if self.frame_len < 2:
            raise ValueError(f"frame_len must be >= 2, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise ValueError(f"hop must be in (0, frame_len], got {self.hop}")
        if self.window not in WINDOW_KINDS:
            raise ValueError(f"unknown window {self.window!r}, expected one of {WINDOW_KINDS}")


@dataclass(frozen=True)
class Spectrogram:
    """One-sided magnitude spectra, one row per frame."""

    magnitudes: np.ndarray  # (n_frames, n_bins), non-negative
    bin_freqs: np.ndarray   # (n_bins,) Hz, ascending
    config: StftConfig
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[1]


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window, w[i] = 0.5 - 0.5*cos(2*pi*i/n)."""
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=8)
def _cached_hann(n: int) -> np.ndarray:
    window = hann_window(n)
    window.setflags(write=False)
    return window


def frame_signal(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Slice a signal into fully contained frames of frame_len every hop samples.

    Returns a read-only (n_frames, frame_len) view; no padding, so a signal
    shorter than one frame yields zero frames.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < cfg.frame_len:
        return np.empty((0, cfg.frame_len), dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(samples, cfg.frame_len)
    return frames[:: cfg.hop]


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


# Frames per transform block: a block's windowed copy and complex spectrum
# stay cache-sized, and no caller that reduces blocks holds every frame's.
BLOCK_FRAMES = 64


def spectrum_blocks(samples, cfg: StftConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (raw frames, magnitudes of their windowed one-sided FFT) for
    consecutive blocks of up to BLOCK_FRAMES frames. Raises ValueError if the
    signal is shorter than one frame or frame_len is not a power of two."""
    n = cfg.frame_len
    if n & (n - 1):
        raise ValueError(f"frame_len must be a power of two, got {n}")
    if len(samples) < n:
        raise ValueError(f"buffer too short for one frame ({len(samples)} < {n})")
    frames = frame_signal(samples, cfg)
    window = _cached_hann(n) if cfg.window == "hann" else None
    for i in range(0, frames.shape[0], BLOCK_FRAMES):
        block = frames[i : i + BLOCK_FRAMES]
        windowed = block if window is None else block * window
        yield block, np.abs(np.fft.rfft(windowed, axis=-1))


def stft(buf, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Window each frame and keep one-sided FFT magnitudes (raises as
    `spectrum_blocks` does)."""
    magnitudes = np.concatenate([mags for _, mags in spectrum_blocks(buf.samples, cfg)])
    bin_freqs = np.arange(cfg.frame_len // 2 + 1) * (buf.sample_rate / cfg.frame_len)
    return Spectrogram(magnitudes=magnitudes, bin_freqs=bin_freqs,
                       config=cfg, sample_rate=buf.sample_rate)
