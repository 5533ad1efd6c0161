"""The seven rolling-noise feature families and the 26-value summary vector.

Per sample: zero-crossing rate, spectral centroid, spectral bandwidth,
spectral roll-off, RMS energy, chroma, and `N_MFCC` (20) MFCCs, each
averaged over a shared frame grid: `N_FEATURES` (26) values in the fixed
order of `feature_names()`. The one setting that may vary is the number of
mel bands the MFCCs are taken from (`N_MELS` by default, at least
`N_MFCC`). Each family is one public per-frame function, which
returns one value (MFCC: one row) per frame: `zcr` reads the signal
(one pass, not one per overlapping frame), `rms` raw frames,
`centroids` and `bandwidths` one-sided magnitudes, `rolloffs`,
`chromas` and `mfccs` the power (squared magnitudes, with sparse mel and
chroma projections). `BlockFeatures` sums them over one block of frames
at a time, and `extract_features` over the blocks of a buffer, so no full
spectrogram is held.

Weighting conventions: centroid and bandwidth use magnitude weights,
roll-off and chroma use energy (squared magnitude).

`rolloffs` finds each row's roll-off bin by a two-level search: sums of
chunks of 32 bins, run through to the chunk where the threshold is
crossed, then that chunk bin by bin. A row keeps the bin only when its
approximate prefix sums clear the threshold by 4·n·u·total, the bound on
how far any summation order of n non-negative terms can stray from the
sequential one; every other row (ties, zero, subnormal or non-finite
totals) takes the sequential running sum over all its bins. So the
roll-offs equal those of that running sum, bit for bit.

The family settings are librosa's and fixed, since no feature CSV records
them: `ROLLOFF_PCT` (85% roll-off), `BANDWIDTH_ORDER` (second-order
bandwidth), `MEL_FMIN` (mel bands from 0 Hz to Nyquist) and `LOG_FLOOR`
(the mel-energy floor before the MFCC log).

Extraction calls no BLAS routine: the transform is pocketfft, the mel and
chroma projections are scipy sparse products, and the dense products are
`np.einsum`, whose default `optimize=False` never dispatches to BLAS. So a
pool worker starts no BLAS helper threads and the result does not depend
on a BLAS thread count.

Importing this module does not import scipy: `mel_projector` and
`chroma_projector` import `scipy.sparse` when they first build, so a
process that never extracts (`synth`, `train`) never loads it.
`dataset.corpus_rows` builds both before its pool forks, so its workers
inherit the module and the cached projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .dsp import BLOCK_FRAMES, BlockSpectra, StftConfig, block_spans

if TYPE_CHECKING:
    from scipy.sparse import csr_array

SCHEMA_VERSION = 1

_BASE_NAMES = ("zcr_mean", "centroid_mean", "bandwidth_mean",
               "rolloff_mean", "rms_mean", "chroma_mean")

N_MFCC = 20
N_FEATURES = len(_BASE_NAMES) + N_MFCC
N_MELS = 128

ROLLOFF_PCT = 0.85
BANDWIDTH_ORDER = 2
MEL_FMIN = 0.0
LOG_FLOOR = 1e-10

# bins per chunk of `rolloffs`' first level: about the square root of the
# 1025 bins of a 2048-sample frame, so both levels run through ~32 sums
_ROLLOFF_CHUNK = 32
_FLOAT = np.finfo(np.float64)
_UNIT_ROUNDOFF = _FLOAT.eps / 2


def feature_names() -> list[str]:
    """Column names of the fixed feature schema, in vector order."""
    return list(_BASE_NAMES) + [f"mfcc_mean_{i}" for i in range(1, N_MFCC + 1)]


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-order per-sample feature summary (`N_FEATURES` values)."""

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
    n = stft_cfg.frame_len
    starts = np.arange(stft_cfg.n_frames(len(samples))) * stft_cfg.hop
    nonneg = samples >= 0
    changes = (nonneg[1:] != nonneg[:-1]).nonzero()[0]
    counts = changes.searchsorted(starts + (n - 1)) - changes.searchsorted(starts)
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
    lies; a silent row gives 0.

    The answer is, bit for bit, that of the sequential running sum
    C_k = C_(k-1) + p_k over a row's n bins: the first k with
    C_k >= T = `ROLLOFF_PCT` * C_(n-1). Most rows skip that chain of n
    dependent additions. Each row is summed in chunks of `_ROLLOFF_CHUNK`
    bins, the chunk sums are run through, and only the chunk in which they
    cross the threshold is run through bin by bin, giving approximate
    prefix sums A_k, total A and threshold T' = `ROLLOFF_PCT` * A.

    Every A_k and C_k sums its non-negative terms in some order, so each is
    within gP_k of their exact sum P_k <= P, where g = (n-1)u / (1 - (n-1)u)
    and u = 2^-53 is the unit roundoff (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 4.2). So |C_k - A_k| <= 2gP,
    and T and T' differ by at most 1.7(g + u)P: together less than 4nuA
    for any n below 10^14. A row keeps its candidate bin k only when
    A_k - T' >= 4nuA and T' - A_(k-1) > 4nuA, which proves
    C_k >= T > C_(k-1). Every other row takes the sequential running sum
    itself: an exact or near tie, and a total A that is zero, not finite,
    below twice the smallest normal float (where T' may be subnormal and
    lose its relative accuracy) or above half the largest (where C may
    overflow). So does a whole block that is not float64 or holds a
    negative value, to which the bound does not apply."""
    if power.dtype != np.float64 or power.min(initial=0.0) < 0:
        return _sequential_rolloffs(power, freqs)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are not proven
        bins, proven = _searched_rolloff_bins(power)
    out = freqs[bins]
    redo = np.flatnonzero(~proven)
    if redo.size:
        out[redo] = _sequential_rolloffs(power[redo], freqs)
    return out


def _searched_rolloff_bins(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate roll-off bin from the two-level search of
    `rolloffs`, and whether the margin proves it that of the sequential sum."""
    rows, n = power.shape
    whole = n // _ROLLOFF_CHUNK
    sums = np.empty((rows, -(-n // _ROLLOFF_CHUNK)))
    np.einsum("fcb->fc", power[:, : whole * _ROLLOFF_CHUNK].reshape(rows, whole, _ROLLOFF_CHUNK),
              out=sums[:, :whole])
    if sums.shape[1] > whole:
        np.sum(power[:, whole * _ROLLOFF_CHUNK :], axis=1, out=sums[:, whole])
    np.cumsum(sums, axis=1, out=sums)
    totals = sums[:, -1]
    thresholds = ROLLOFF_PCT * totals
    chunk = np.argmax(sums >= thresholds[:, None], axis=1)
    row = np.arange(rows)
    below_chunk = np.where(chunk > 0, sums[row, chunk - 1], 0.0)
    bins = chunk[:, None] * _ROLLOFF_CHUNK + np.arange(_ROLLOFF_CHUNK)
    prefix = power[row[:, None], np.minimum(bins, n - 1)]
    prefix[bins >= n] = 0.0  # past the last bin of a short final chunk
    np.cumsum(prefix, axis=1, out=prefix)
    prefix += below_chunk[:, None]
    step = np.argmax(prefix >= thresholds[:, None], axis=1)
    below = np.where(step > 0, prefix[row, step - 1], below_chunk)
    margin = 4 * n * _UNIT_ROUNDOFF * totals
    proven = ((totals >= 2 * _FLOAT.tiny) & (totals <= _FLOAT.max / 2)
              & (prefix[row, step] - thresholds >= margin) & (thresholds - below > margin))
    return chunk * _ROLLOFF_CHUNK + step, proven


def _sequential_rolloffs(power: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """`rolloffs` by the sequential running sum over every bin of each row."""
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


def mfccs(power: np.ndarray, bank: csr_array) -> np.ndarray:
    """The first `N_MFCC` cepstral coefficients of each row, after the mel
    filter `bank`."""
    return mfccs_from_mel_energies((bank @ power.T).T)


def hz_to_mel(freq_hz) -> np.ndarray:
    """HTK mel scale, m(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, frame_len: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters with unit peak, evaluated on FFT bins.

    Centers are equally spaced on the mel scale between `MEL_FMIN` and the
    Nyquist frequency and snapped to the bin grid; filter i rises from the
    previous center to its own and falls to the next. Returns an
    (n_mels, frame_len/2 + 1) matrix.
    """
    n_bins = frame_len // 2 + 1
    mels = np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(sample_rate / 2), n_mels + 2)
    centers = np.floor((frame_len + 1) * mel_to_hz(mels) / sample_rate).astype(int)
    centers = np.minimum(centers, n_bins - 1)
    bank = np.zeros((n_mels, n_bins), dtype=np.float64)
    for j in range(n_mels):
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


def mfccs_from_mel_energies(energies: np.ndarray) -> np.ndarray:
    """Log (floored at `LOG_FLOOR`) then orthonormal DCT-II; keeps the first
    `N_MFCC` coefficients."""
    energies = np.atleast_2d(np.asarray(energies, dtype=np.float64))
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    dct = dct_ortho_matrix(energies.shape[1])
    return np.einsum("fm,km->fk", logs, dct[:N_MFCC])


@lru_cache(maxsize=8)
def mel_projector(n_mels: int, frame_len: int, sample_rate: int) -> csr_array:
    """`mel_filterbank` as a read-only sparse matrix (cached), the `bank`
    that `mfccs` takes. Callers pass all three arguments by position, so
    they share one cache entry."""
    from scipy.sparse import csr_array

    bank = csr_array(mel_filterbank(n_mels, frame_len, sample_rate))
    bank.data.setflags(write=False)
    return bank


@lru_cache(maxsize=8)
def chroma_projector(frame_len: int, sample_rate: int) -> csr_array:
    """(12, n_bins) read-only 0/1 map of FFT bins onto pitch classes (cached),
    the `projector` that `chromas` takes; DC maps to none."""
    from scipy.sparse import csr_array

    positive = np.arange(1, frame_len // 2 + 1)
    freqs = positive * (sample_rate / frame_len)
    classes = np.round(12.0 * np.log2(freqs / 440.0)).astype(int) % 12  # 0 is A4 = 440 Hz
    projector = csr_array((np.ones(positive.size), (classes, positive)),
                          shape=(12, frame_len // 2 + 1))
    projector.data.setflags(write=False)
    return projector


class BlockFeatures:
    """The per-block feature code: the seven families on one block of
    frames, summed over its frames. The spectrum (one `dsp.STAGE_FRAMES`
    stage at a time), the block's magnitudes and their squares are computed
    in buffers that every block reuses."""

    def __init__(self, stft_cfg: StftConfig, n_mels: int, sample_rate: int):
        n = stft_cfg.frame_len
        self.stft_cfg = stft_cfg
        self._freqs = np.arange(n // 2 + 1) * (sample_rate / n)
        self._bank = mel_projector(n_mels, n, sample_rate)
        self._chroma = chroma_projector(n, sample_rate)
        self._spectra = BlockSpectra(stft_cfg)
        self._power = np.empty((BLOCK_FRAMES, n // 2 + 1))

    def add(self, span: np.ndarray, sums: np.ndarray) -> int:
        """Add to `sums` each feature's per-frame values summed over the
        frames of `span`, one block's samples as `dsp.block_spans` bounds
        them; returns the number of frames. The block's magnitudes are
        squared once, and its zero-crossing rates taken in one pass over
        `span`."""
        frames, mags = self._spectra(span)
        power = np.square(mags, out=self._power[: frames.shape[0]])
        centers = centroids(mags, self._freqs)
        sums += np.column_stack([
            zcr(span, self.stft_cfg), centers, bandwidths(mags, self._freqs, centers),
            rolloffs(power, self._freqs), rms(frames), chromas(power, self._chroma),
            mfccs(power, self._bank),
        ]).sum(axis=0)
        return frames.shape[0]


def extract_features(buf, stft_cfg: StftConfig | None = None,
                     n_mels: int = N_MELS) -> FeatureVector:
    """Compute all feature families on one shared frame grid, one block of
    frames at a time: each family's per-frame values go into running sums
    through `BlockFeatures`, and the vector is their mean over every frame.
    Raises ValueError if the buffer is shorter than one frame."""
    stft_cfg = stft_cfg or StftConfig()
    spans = block_spans(len(buf), stft_cfg)
    blocks = BlockFeatures(stft_cfg, n_mels, buf.sample_rate)
    sums = np.zeros(N_FEATURES)
    n_frames = sum(blocks.add(buf.samples[start:stop], sums) for start, stop in spans)
    return FeatureVector(values=sums / n_frames)
