"""Framing, windowing, and short-time Fourier analysis.

`spectrum_blocks` is the one spectrum path: it cuts a signal into frames,
applies a periodic Hann window (the only window, `WINDOW`) and takes
`numpy.fft.rfft` magnitudes one block of frames at a time, so no caller
holds a whole spectrogram unless it stacks the blocks itself. `StftConfig`
admits power-of-two frame lengths only.
"""

from __future__ import annotations

from collections.abc import Iterator
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


# Frames per transform block: a block's windowed copy and complex spectrum
# stay cache-sized, and no caller that reduces blocks holds every frame's.
BLOCK_FRAMES = 64


def spectrum_blocks(samples, cfg: StftConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (raw frames, magnitudes of their Hann-windowed one-sided FFT) for
    consecutive blocks of up to BLOCK_FRAMES frames. Raises ValueError if the
    signal is shorter than one frame."""
    n = cfg.frame_len
    if len(samples) < n:
        raise ValueError(f"buffer too short for one frame ({len(samples)} < {n})")
    frames = frame_signal(samples, cfg)
    window = _cached_hann(n)
    for i in range(0, frames.shape[0], BLOCK_FRAMES):
        block = frames[i : i + BLOCK_FRAMES]
        yield block, np.abs(np.fft.rfft(block * window, axis=-1))

