"""The seven rolling-noise feature families and the 26-value summary vector.

Per sample: zero-crossing rate, spectral centroid, spectral bandwidth,
spectral roll-off, RMS energy, chroma, and 20 MFCCs, each averaged over a
shared frame grid. ZCR and RMS read raw frames; everything else reads the
one-sided magnitude spectrogram of the same frames, or its power spectrum
(`Spectrogram.power`), which is squared once and shared.

Weighting conventions: centroid and bandwidth use magnitude weights,
roll-off and chroma use energy (squared magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import Spectrogram, StftConfig, frame_signal, stft

SCHEMA_VERSION = 1

_BASE_NAMES = ("zcr_mean", "centroid_mean", "bandwidth_mean",
               "rolloff_mean", "rms_mean", "chroma_mean")

N_BASE_FEATURES = len(_BASE_NAMES)


def feature_names(n_mfcc: int = 20) -> list[str]:
    """Column names of the fixed feature schema, in vector order."""
    return list(_BASE_NAMES) + [f"mfcc_mean_{i}" for i in range(1, n_mfcc + 1)]


@dataclass(frozen=True)
class FeatureConfig:
    n_mfcc: int = 20
    n_mels: int = 128
    rolloff_pct: float = 0.85
    bandwidth_order: int = 2
    fmin: float = 0.0
    fmax: float | None = None  # None -> sample_rate / 2
    log_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rolloff_pct <= 1:
            raise ValueError(f"rolloff_pct must be in (0, 1], got {self.rolloff_pct}")
        if self.n_mfcc < 1 or self.n_mfcc > self.n_mels:
            raise ValueError(f"need 1 <= n_mfcc <= n_mels, got {self.n_mfcc}/{self.n_mels}")
        if self.bandwidth_order < 1:
            raise ValueError(f"bandwidth_order must be >= 1, got {self.bandwidth_order}")
        if self.fmax is not None and self.fmin >= self.fmax:
            raise ValueError(f"fmin must be below fmax, got {self.fmin} >= {self.fmax}")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def n_features(self) -> int:
        return len(_BASE_NAMES) + self.n_mfcc


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-order per-sample feature summary (26 values with defaults)."""

    values: np.ndarray
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"feature values must be 1-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("feature values contain NaN or Inf")

    def __len__(self) -> int:
        return self.values.shape[0]


def _require_frames(count: int) -> None:
    if count == 0:
        raise ValueError("no frames to aggregate")


def zcr_mean(frames: np.ndarray) -> float:
    """Mean per-frame zero-crossing rate; zero counts as non-negative."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    _require_frames(frames.shape[0])
    nonneg = frames >= 0
    flips = np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1)
    return float(np.mean(flips / frames.shape[1]))


def rms_mean(frames: np.ndarray) -> float:
    """Mean per-frame root-mean-square amplitude, on raw (unwindowed) frames."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    _require_frames(frames.shape[0])
    power = np.einsum("ij,ij->i", frames, frames) / frames.shape[1]
    return float(np.mean(np.sqrt(power)))


def spectral_centroid_mean(spec: Spectrogram) -> float:
    """Mean magnitude-weighted mean frequency (Hz); silent frames contribute 0."""
    _require_frames(spec.n_frames)
    return float(_frame_centroids(spec).mean())


def _frame_centroids(spec: Spectrogram) -> np.ndarray:
    weights = spec.magnitudes
    totals = weights.sum(axis=1)
    raw = weights @ spec.bin_freqs
    return np.divide(raw, totals, out=np.zeros_like(raw), where=totals > 0)


def spectral_bandwidth_mean(spec: Spectrogram, p: int = 2) -> float:
    """Mean p-th order magnitude-weighted spread about the per-frame centroid."""
    _require_frames(spec.n_frames)
    if p < 1:
        raise ValueError(f"bandwidth order must be >= 1, got {p}")
    weights = spec.magnitudes
    totals = weights.sum(axis=1)
    # built in place: no full-size temporaries beyond `deviations` itself
    deviations = np.subtract(spec.bin_freqs[None, :], _frame_centroids(spec)[:, None])
    np.abs(deviations, out=deviations)
    deviations **= p
    moments = np.einsum("fb,fb->f", weights, deviations)
    normed = np.divide(moments, totals, out=np.zeros_like(moments), where=totals > 0)
    return float(np.mean(normed ** (1.0 / p)))


def spectral_rolloff_mean(spec: Spectrogram, pct: float = 0.85) -> float:
    """Mean frequency below which `pct` of the spectral energy lies per frame."""
    _require_frames(spec.n_frames)
    if not 0 < pct <= 1:
        raise ValueError(f"rolloff fraction must be in (0, 1], got {pct}")
    cumulative = np.cumsum(spec.power, axis=1)
    totals = cumulative[:, -1]
    first = np.argmax(cumulative >= pct * totals[:, None], axis=1)
    freqs = spec.bin_freqs[first]
    return float(np.where(totals > 0, freqs, 0.0).mean())


def hz_to_mel(freq_hz) -> np.ndarray:
    """HTK mel scale, m(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig, frame_len: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters with unit peak, evaluated on FFT bins.

    Centers are equally spaced on the mel scale between fmin and fmax and
    snapped to the bin grid; filter i rises from the previous center to its
    own and falls to the next. Returns an (n_mels, frame_len/2 + 1) matrix.
    """
    fmax = sample_rate / 2 if cfg.fmax is None else cfg.fmax
    if not 0 <= cfg.fmin < fmax <= sample_rate / 2:
        raise ValueError(f"need 0 <= fmin < fmax <= sr/2, got {cfg.fmin}..{fmax} at {sample_rate} Hz")
    n_bins = frame_len // 2 + 1
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(fmax), cfg.n_mels + 2)
    centers = np.floor((frame_len + 1) * mel_to_hz(mels) / sample_rate).astype(int)
    centers = np.minimum(centers, n_bins - 1)
    bank = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for j in range(cfg.n_mels):
        lo, mid, hi = centers[j : j + 3]
        for k in range(lo, mid):
            bank[j, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            bank[j, k] = (hi - k) / (hi - mid)
        bank[j, mid] = 1.0  # keeps the peak when adjacent centers collapse
    return bank


def dct_ortho_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II matrix; row k left-multiplies to give coefficient k."""
    k = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * k / (2 * size)) * np.sqrt(2.0 / size)
    mat[0] /= np.sqrt(2.0)
    return mat


@lru_cache(maxsize=8)
def _cached_dct(size: int) -> np.ndarray:
    mat = dct_ortho_matrix(size)
    mat.setflags(write=False)
    return mat


def mfccs_from_mel_energies(energies: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Log (with floor) then orthonormal DCT-II; keeps the first n_mfcc coefficients."""
    energies = np.atleast_2d(np.asarray(energies, dtype=np.float64))
    logs = np.log(np.maximum(energies, cfg.log_floor))
    return logs @ _cached_dct(energies.shape[1]).T[:, : cfg.n_mfcc]


@lru_cache(maxsize=8)
def _cached_filterbank(cfg: FeatureConfig, frame_len: int, sample_rate: int) -> np.ndarray:
    bank = mel_filterbank(cfg, frame_len, sample_rate)
    bank.setflags(write=False)
    return bank


def mfcc_means(spec: Spectrogram, cfg: FeatureConfig) -> np.ndarray:
    """Per-coefficient mean of the first n_mfcc cepstral coefficients."""
    _require_frames(spec.n_frames)
    bank = _cached_filterbank(cfg, spec.config.frame_len, spec.sample_rate)
    energies = spec.power @ bank.T
    return mfccs_from_mel_energies(energies, cfg).mean(axis=0)


def _pitch_classes(bin_freqs: np.ndarray) -> np.ndarray:
    # class 0 is aligned to A4 = 440 Hz; DC is excluded by the caller
    return (np.round(12.0 * np.log2(bin_freqs / 440.0)).astype(int)) % 12


@lru_cache(maxsize=8)
def _chroma_projector(frame_len: int, sample_rate: int) -> np.ndarray:
    """(n_bins, 12) 0/1 map of FFT bins onto pitch classes; the DC row is zero."""
    positive = np.arange(1, frame_len // 2 + 1)
    projector = np.zeros((frame_len // 2 + 1, 12), dtype=np.float64)
    projector[positive, _pitch_classes(positive * (sample_rate / frame_len))] = 1.0
    projector.setflags(write=False)
    return projector


def chroma_mean(spec: Spectrogram) -> float:
    """Mean of the per-frame max-normalized 12-bin pitch-class energy profile."""
    _require_frames(spec.n_frames)
    profile = spec.power @ _chroma_projector(spec.config.frame_len, spec.sample_rate)
    peaks = profile.max(axis=1, keepdims=True)
    normalized = np.divide(profile, peaks, out=np.zeros_like(profile), where=peaks > 0)
    return float(normalized.mean())


def extract_features(buf, stft_cfg: StftConfig | None = None,
                     feat_cfg: FeatureConfig | None = None) -> FeatureVector:
    """Compute all feature families on one shared frame grid.

    Raises ValueError if the buffer is too short for a single frame.
    """
    stft_cfg = stft_cfg or StftConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    frames = frame_signal(buf.samples, stft_cfg)
    if frames.shape[0] == 0:
        raise ValueError(f"buffer too short for one frame "
                         f"({len(buf.samples)} < {stft_cfg.frame_len} samples)")
    spec = stft(buf, stft_cfg)
    values = np.concatenate([
        [zcr_mean(frames),
         spectral_centroid_mean(spec),
         spectral_bandwidth_mean(spec, feat_cfg.bandwidth_order),
         spectral_rolloff_mean(spec, feat_cfg.rolloff_pct),
         rms_mean(frames),
         chroma_mean(spec)],
        mfcc_means(spec, feat_cfg),
    ])
    return FeatureVector(values=values, schema_version=SCHEMA_VERSION)
