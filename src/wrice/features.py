"""The seven rolling-noise feature families and the 26-value summary vector.

Per sample: zero-crossing rate, spectral centroid, spectral bandwidth,
spectral roll-off, RMS energy, chroma, and 20 MFCCs, each averaged over a
shared frame grid. Each family is one public per-frame function, which
returns one value (MFCC: one row) per frame: `zcr` reads the whole
signal (one pass, not one per overlapping frame), `rms` raw frames,
`centroids` and `bandwidths` one-sided magnitudes, `rolloffs`,
`chromas` and `mfccs` the power (squared magnitudes, with sparse mel and
chroma projections). `extract_features` sums them over the blocks of
`dsp.spectrum_blocks`, so no full spectrogram is held.

Weighting conventions: centroid and bandwidth use magnitude weights,
roll-off and chroma use energy (squared magnitude).

The family settings are librosa's and fixed, since no feature CSV records
them: `ROLLOFF_PCT` (85% roll-off), `BANDWIDTH_ORDER` (second-order
bandwidth), `MEL_FMIN` (mel bands from 0 Hz to Nyquist) and `LOG_FLOOR`
(the mel-energy floor before the MFCC log).

Extraction calls no BLAS routine: the transform is pocketfft, the mel and
chroma projections are scipy sparse products, and the dense products are
`np.einsum`, whose default `optimize=False` never dispatches to BLAS. So a
pool worker starts no BLAS helper threads and the result does not depend
on a BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_array

from .dsp import StftConfig, spectrum_blocks

SCHEMA_VERSION = 1

_BASE_NAMES = ("zcr_mean", "centroid_mean", "bandwidth_mean",
               "rolloff_mean", "rms_mean", "chroma_mean")

N_BASE_FEATURES = len(_BASE_NAMES)

ROLLOFF_PCT = 0.85
BANDWIDTH_ORDER = 2
MEL_FMIN = 0.0
LOG_FLOOR = 1e-10


def feature_names(n_mfcc: int = 20) -> list[str]:
    """Column names of the fixed feature schema, in vector order."""
    return list(_BASE_NAMES) + [f"mfcc_mean_{i}" for i in range(1, n_mfcc + 1)]


@dataclass(frozen=True)
class FeatureConfig:
    """The MFCC settings that a feature CSV and a model file record."""

    n_mfcc: int = 20
    n_mels: int = 128

    def __post_init__(self):
        if self.n_mfcc < 1 or self.n_mfcc > self.n_mels:
            raise ValueError(f"need 1 <= n_mfcc <= n_mels, got {self.n_mfcc}/{self.n_mels}")

    @property
    def n_features(self) -> int:
        return len(_BASE_NAMES) + self.n_mfcc


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-order per-sample feature summary (26 values with defaults)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"feature values must be 1-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("feature values contain NaN or Inf")

    def __len__(self) -> int:
        return self.values.shape[0]


def zcr(samples: np.ndarray, stft_cfg: StftConfig) -> np.ndarray:
    """Zero-crossing rate of each frame of `frame_signal(samples, stft_cfg)`:
    the sign changes between adjacent samples of the frame over its length,
    zero counting as non-negative. A signal shorter than one frame gives
    none.

    The changes are found once over the whole signal, as the sorted
    indices i of the samples whose sign differs from sample i + 1's. A
    frame of n samples from sample s holds the changes with s <= i < s + n - 1,
    so two binary searches count them. The counts are integers, so the
    rates equal those of counting each frame on its own, bit for bit."""
    samples = np.asarray(samples, dtype=np.float64)
    n, hop = stft_cfg.frame_len, stft_cfg.hop
    if len(samples) < n:
        return np.empty(0)
    starts = np.arange((len(samples) - n) // hop + 1) * hop
    nonneg = samples[: starts[-1] + n] >= 0  # the samples the frames cover
    changes = np.flatnonzero(nonneg[1:] != nonneg[:-1])
    counts = np.searchsorted(changes, starts + n - 1) - np.searchsorted(changes, starts)
    return counts / n


def rms(frames: np.ndarray) -> np.ndarray:
    """Root-mean-square amplitude of each raw (unwindowed) frame."""
    return np.sqrt(np.einsum("ij,ij->i", frames, frames) / frames.shape[1])


def centroids(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Magnitude-weighted mean frequency (Hz) of each row of `mags`, whose
    columns sit at `freqs`; a silent row gives 0."""
    totals = mags.sum(axis=1)
    raw = np.einsum("fb,b->f", mags, freqs)
    return np.divide(raw, totals, out=np.zeros_like(raw), where=totals > 0)


def bandwidths(mags, freqs, centroids) -> np.ndarray:
    """`BANDWIDTH_ORDER`-th order magnitude-weighted spread of each row about
    its centroid; a silent row gives 0."""
    totals = mags.sum(axis=1)
    # built in place: no temporaries of the block's size beyond `deviations`;
    # squaring stands for |d| ** BANDWIDTH_ORDER, exactly, because the order is 2
    deviations = np.subtract(freqs[None, :], centroids[:, None])
    np.square(deviations, out=deviations)
    moments = np.einsum("fb,fb->f", mags, deviations)
    normed = np.divide(moments, totals, out=np.zeros_like(moments), where=totals > 0)
    return normed ** (1.0 / BANDWIDTH_ORDER)


def rolloffs(power: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Lowest frequency at or below which `ROLLOFF_PCT` of each row's energy
    lies; a silent row gives 0."""
    cumulative = np.cumsum(power, axis=1)
    totals = cumulative[:, -1]
    first = np.argmax(cumulative >= ROLLOFF_PCT * totals[:, None], axis=1)
    return np.where(totals > 0, freqs[first], 0.0)


def chromas(power: np.ndarray, projector: csr_array) -> np.ndarray:
    """Mean of each row's 12-bin pitch-class energy profile, normalized by
    its peak; `projector` maps the bins onto the 12 classes."""
    profile = (projector @ power.T).T
    peaks = profile.max(axis=1, keepdims=True)
    normalized = np.divide(profile, peaks, out=np.zeros_like(profile), where=peaks > 0)
    return normalized.mean(axis=1)


def mfccs(power: np.ndarray, bank: csr_array, cfg: FeatureConfig) -> np.ndarray:
    """The first n_mfcc cepstral coefficients of each row, after the mel
    filter `bank`."""
    return mfccs_from_mel_energies((bank @ power.T).T, cfg)


def hz_to_mel(freq_hz) -> np.ndarray:
    """HTK mel scale, m(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig, frame_len: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters with unit peak, evaluated on FFT bins.

    Centers are equally spaced on the mel scale between `MEL_FMIN` and the
    Nyquist frequency and snapped to the bin grid; filter i rises from the
    previous center to its own and falls to the next. Returns an
    (n_mels, frame_len/2 + 1) matrix.
    """
    n_bins = frame_len // 2 + 1
    mels = np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(sample_rate / 2), cfg.n_mels + 2)
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
    """Log (floored at `LOG_FLOOR`) then orthonormal DCT-II; keeps the first
    n_mfcc coefficients."""
    energies = np.atleast_2d(np.asarray(energies, dtype=np.float64))
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    dct = dct_ortho_matrix(energies.shape[1])
    return np.einsum("fm,km->fk", logs, dct[: cfg.n_mfcc])


@lru_cache(maxsize=8)
def mel_projector(cfg: FeatureConfig, frame_len: int, sample_rate: int) -> csr_array:
    """`mel_filterbank` as a read-only sparse matrix (cached), the `bank`
    that `mfccs` takes."""
    bank = csr_array(mel_filterbank(cfg, frame_len, sample_rate))
    bank.data.setflags(write=False)
    return bank


@lru_cache(maxsize=8)
def chroma_projector(frame_len: int, sample_rate: int) -> csr_array:
    """(12, n_bins) read-only 0/1 map of FFT bins onto pitch classes (cached),
    the `projector` that `chromas` takes; DC maps to none."""
    positive = np.arange(1, frame_len // 2 + 1)
    freqs = positive * (sample_rate / frame_len)
    classes = np.round(12.0 * np.log2(freqs / 440.0)).astype(int) % 12  # 0 is A4 = 440 Hz
    projector = csr_array((np.ones(positive.size), (classes, positive)),
                          shape=(12, frame_len // 2 + 1))
    projector.data.setflags(write=False)
    return projector


def extract_features(buf, stft_cfg: StftConfig | None = None,
                     feat_cfg: FeatureConfig | None = None) -> FeatureVector:
    """Compute all feature families on one shared frame grid, one block of
    frames at a time: a block is squared once and each family's per-frame
    values go into running sums (the zero-crossing rates are taken in one
    pass over the signal first, then summed block by block). Raises
    ValueError as `spectrum_blocks` does."""
    stft_cfg = stft_cfg or StftConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    freqs = np.arange(stft_cfg.frame_len // 2 + 1) * (buf.sample_rate / stft_cfg.frame_len)
    bank = mel_projector(feat_cfg, stft_cfg.frame_len, buf.sample_rate)
    chroma = chroma_projector(stft_cfg.frame_len, buf.sample_rate)
    sums = np.zeros(feat_cfg.n_features)
    n_frames = 0
    rates = zcr(buf.samples, stft_cfg)
    for frames, mags in spectrum_blocks(buf.samples, stft_cfg):
        power = np.square(mags)
        centers = centroids(mags, freqs)
        sums += np.column_stack([
            rates[n_frames : n_frames + frames.shape[0]], centers,
            bandwidths(mags, freqs, centers), rolloffs(power, freqs), rms(frames),
            chromas(power, chroma), mfccs(power, bank, feat_cfg),
        ]).sum(axis=0)
        n_frames += frames.shape[0]
    return FeatureVector(values=sums / n_frames)
