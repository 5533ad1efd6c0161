"""The seven rolling-noise feature families and the 26-value summary vector.

Per sample: zero-crossing rate, spectral centroid, spectral bandwidth,
spectral roll-off, RMS energy, chroma, and 20 MFCCs, each averaged over a
shared frame grid. Each family has one per-frame function: ZCR and RMS read
raw frames, centroid and bandwidth one-sided magnitudes, roll-off, chroma
and MFCC the power (squared magnitudes, with sparse mel and chroma
projections). `extract_features` sums them over the blocks of
`dsp.spectrum_blocks`, so no full spectrogram is held; each public family
function is their mean over a whole `Spectrogram`.

Weighting conventions: centroid and bandwidth use magnitude weights,
roll-off and chroma use energy (squared magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_array

from .dsp import Spectrogram, StftConfig, spectrum_blocks

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


def _frame_mean(values: np.ndarray):
    if values.shape[0] == 0:
        raise ValueError("no frames to aggregate")
    return values.mean(axis=0)


def _zcr(frames: np.ndarray) -> np.ndarray:
    nonneg = frames >= 0
    return np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / frames.shape[1]


def _rms(frames: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", frames, frames) / frames.shape[1])


def _centroids(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    totals = mags.sum(axis=1)
    raw = mags @ freqs
    return np.divide(raw, totals, out=np.zeros_like(raw), where=totals > 0)


def _bandwidths(mags, freqs, centroids, p: int) -> np.ndarray:
    totals = mags.sum(axis=1)
    # built in place: no temporaries of the block's size beyond `deviations`
    deviations = np.subtract(freqs[None, :], centroids[:, None])
    np.abs(deviations, out=deviations)
    deviations **= p
    moments = np.einsum("fb,fb->f", mags, deviations)
    normed = np.divide(moments, totals, out=np.zeros_like(moments), where=totals > 0)
    return normed ** (1.0 / p)


def _rolloffs(power: np.ndarray, freqs: np.ndarray, pct: float) -> np.ndarray:
    cumulative = np.cumsum(power, axis=1)
    totals = cumulative[:, -1]
    first = np.argmax(cumulative >= pct * totals[:, None], axis=1)
    return np.where(totals > 0, freqs[first], 0.0)


def _chromas(power: np.ndarray, projector: csr_array) -> np.ndarray:
    profile = (projector @ power.T).T
    peaks = profile.max(axis=1, keepdims=True)
    normalized = np.divide(profile, peaks, out=np.zeros_like(profile), where=peaks > 0)
    return normalized.mean(axis=1)


def _mfccs(power: np.ndarray, bank: csr_array, cfg: FeatureConfig) -> np.ndarray:
    return mfccs_from_mel_energies((bank @ power.T).T, cfg)


def zcr_mean(frames: np.ndarray) -> float:
    """Mean per-frame zero-crossing rate; zero counts as non-negative."""
    return float(_frame_mean(_zcr(np.atleast_2d(np.asarray(frames, dtype=np.float64)))))


def rms_mean(frames: np.ndarray) -> float:
    """Mean per-frame root-mean-square amplitude, on raw (unwindowed) frames."""
    return float(_frame_mean(_rms(np.atleast_2d(np.asarray(frames, dtype=np.float64)))))


def spectral_centroid_mean(spec: Spectrogram) -> float:
    """Mean magnitude-weighted mean frequency (Hz); silent frames contribute 0."""
    return float(_frame_mean(_centroids(spec.magnitudes, spec.bin_freqs)))


def spectral_bandwidth_mean(spec: Spectrogram, p: int = 2) -> float:
    """Mean p-th order magnitude-weighted spread about the per-frame centroid."""
    if p < 1:
        raise ValueError(f"bandwidth order must be >= 1, got {p}")
    centroids = _centroids(spec.magnitudes, spec.bin_freqs)
    return float(_frame_mean(_bandwidths(spec.magnitudes, spec.bin_freqs, centroids, p)))


def spectral_rolloff_mean(spec: Spectrogram, pct: float = 0.85) -> float:
    """Mean frequency below which `pct` of the spectral energy lies per frame."""
    if not 0 < pct <= 1:
        raise ValueError(f"rolloff fraction must be in (0, 1], got {pct}")
    return float(_frame_mean(_rolloffs(np.square(spec.magnitudes), spec.bin_freqs, pct)))


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


@lru_cache(maxsize=8)
def dct_ortho_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (read-only, cached); row k left-multiplies to
    give coefficient k."""
    k = np.arange(size)[:, None]
    m = np.arange(size)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * k / (2 * size)) * np.sqrt(2.0 / size)
    mat[0] /= np.sqrt(2.0)
    mat.setflags(write=False)
    return mat


def mfccs_from_mel_energies(energies: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Log (with floor) then orthonormal DCT-II; keeps the first n_mfcc coefficients."""
    energies = np.atleast_2d(np.asarray(energies, dtype=np.float64))
    logs = np.log(np.maximum(energies, cfg.log_floor))
    return logs @ dct_ortho_matrix(energies.shape[1]).T[:, : cfg.n_mfcc]


@lru_cache(maxsize=8)
def _mel_projector(cfg: FeatureConfig, frame_len: int, sample_rate: int) -> csr_array:
    bank = csr_array(mel_filterbank(cfg, frame_len, sample_rate))
    bank.data.setflags(write=False)
    return bank


def mfcc_means(spec: Spectrogram, cfg: FeatureConfig) -> np.ndarray:
    """Per-coefficient mean of the first n_mfcc cepstral coefficients."""
    bank = _mel_projector(cfg, spec.config.frame_len, spec.sample_rate)
    return _frame_mean(_mfccs(np.square(spec.magnitudes), bank, cfg))


@lru_cache(maxsize=8)
def _chroma_projector(frame_len: int, sample_rate: int) -> csr_array:
    """(12, n_bins) 0/1 map of FFT bins onto pitch classes; DC maps to none."""
    positive = np.arange(1, frame_len // 2 + 1)
    freqs = positive * (sample_rate / frame_len)
    classes = np.round(12.0 * np.log2(freqs / 440.0)).astype(int) % 12  # 0 is A4 = 440 Hz
    projector = csr_array((np.ones(positive.size), (classes, positive)),
                          shape=(12, frame_len // 2 + 1))
    projector.data.setflags(write=False)
    return projector


def chroma_mean(spec: Spectrogram) -> float:
    """Mean of the per-frame max-normalized 12-bin pitch-class energy profile."""
    projector = _chroma_projector(spec.config.frame_len, spec.sample_rate)
    return float(_frame_mean(_chromas(np.square(spec.magnitudes), projector)))


def extract_features(buf, stft_cfg: StftConfig | None = None,
                     feat_cfg: FeatureConfig | None = None) -> FeatureVector:
    """Compute all feature families on one shared frame grid, one block of
    frames at a time: a block is squared once and each family's per-frame
    values go into running sums. Raises ValueError as `spectrum_blocks` does."""
    stft_cfg = stft_cfg or StftConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    freqs = np.arange(stft_cfg.frame_len // 2 + 1) * (buf.sample_rate / stft_cfg.frame_len)
    bank = _mel_projector(feat_cfg, stft_cfg.frame_len, buf.sample_rate)
    chroma = _chroma_projector(stft_cfg.frame_len, buf.sample_rate)
    sums = np.zeros(feat_cfg.n_features)
    n_frames = 0
    for frames, mags in spectrum_blocks(buf.samples, stft_cfg):
        power = np.square(mags)
        centroids = _centroids(mags, freqs)
        sums += np.column_stack([
            _zcr(frames), centroids,
            _bandwidths(mags, freqs, centroids, feat_cfg.bandwidth_order),
            _rolloffs(power, freqs, feat_cfg.rolloff_pct), _rms(frames),
            _chromas(power, chroma), _mfccs(power, bank, feat_cfg),
        ]).sum(axis=0)
        n_frames += frames.shape[0]
    return FeatureVector(values=sums / n_frames, schema_version=SCHEMA_VERSION)
