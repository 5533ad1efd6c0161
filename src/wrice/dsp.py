"""Framing, windowing, and short-time Fourier analysis.

`BlockSpectra` is the one spectrum path: it applies a periodic Hann window
(the only window, `WINDOW`) to one block of frames and takes `numpy.fft.rfft`
magnitudes, in buffers reused from block to block. `block_spans` bounds the
blocks of a signal, so no caller holds a whole spectrogram unless it stacks
the blocks itself. `StftConfig` admits power-of-two frame lengths only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The analysis window, by the name that feature CSV and model file meta record.
WINDOW = "hann"


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 2048
    hop: int = 512

    def __post_init__(self):
        if self.frame_len < 2 or self.frame_len & (self.frame_len - 1):
            raise ValueError(f"frame_len must be a power of two >= 2, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise ValueError(f"hop must be in (0, frame_len], got {self.hop}")

    def n_frames(self, n_samples: int) -> int:
        """The frames, frame_len long every hop samples, that lie wholly inside
        n_samples samples: 0 below one frame."""
        return max((n_samples - self.frame_len) // self.hop + 1, 0)


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
    step = samples.strides[0]
    return np.lib.stride_tricks.as_strided(samples, (cfg.n_frames(len(samples)), cfg.frame_len),
                                           (cfg.hop * step, step), writeable=False)


# Frames per transform block: a block's windowed copy and complex spectrum
# stay cache-sized, and no caller that reduces blocks holds every frame's.
BLOCK_FRAMES = 64


def block_spans(n_samples: int, cfg: StftConfig) -> list[tuple[int, int]]:
    """[start, stop) of the samples that each block of up to BLOCK_FRAMES
    consecutive frames of an n_samples-long signal covers, in order. Raises
    ValueError if the signal is shorter than one frame."""
    n, hop, n_frames = cfg.frame_len, cfg.hop, cfg.n_frames(n_samples)
    if not n_frames:
        raise ValueError(f"buffer too short for one frame ({n_samples} < {n})")
    return [(first * hop, (min(first + BLOCK_FRAMES, n_frames) - 1) * hop + n)
            for first in range(0, n_frames, BLOCK_FRAMES)]


class BlockSpectra:
    """Hann-windowed one-sided FFT magnitudes of blocks of up to BLOCK_FRAMES
    frames. The windowed frames, their complex spectrum and the magnitudes
    are computed in buffers that every block reuses, so a long signal costs
    no allocation per block."""

    def __init__(self, cfg: StftConfig):
        bins = cfg.frame_len // 2 + 1
        self.cfg = cfg
        self._window = _cached_hann(cfg.frame_len)
        self._windowed = np.empty((BLOCK_FRAMES, cfg.frame_len))
        self._spectrum = np.empty((BLOCK_FRAMES, bins), dtype=np.complex128)
        self._mags = np.empty((BLOCK_FRAMES, bins))

    def __call__(self, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw frames, magnitudes) of the frames of `span`, one block's
        samples as `block_spans` bounds them. The magnitudes are a view of
        a buffer that the next call overwrites."""
        frames = frame_signal(span, self.cfg)
        k = frames.shape[0]
        windowed = np.multiply(frames, self._window, out=self._windowed[:k])
        spectrum = np.fft.rfft(windowed, axis=-1, out=self._spectrum[:k])
        return frames, np.abs(spectrum, out=self._mags[:k])

