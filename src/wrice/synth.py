"""Synthetic rolling-noise corpus generation and additive-noise augmentation.

The recordings the classifier was designed around are not public, so this
module fabricates a stand-in corpus: band-limited Gaussian noise shaped by a
one-pole low-pass, amplitude-modulated at the wheel rotation rate, with a
small stack of rotation harmonics underneath. Wet contact gets a lower
cutoff and less level than dry; higher speed raises both. The point is a
corpus whose four classes are cleanly separable in feature space, not an
acoustic model of the contact patch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, write_wav

FRICTIONS = ("dry", "wet")
DEFAULT_CUTOFF_HZ = {"dry": 4000.0, "wet": 1200.0}
DRY_LEVEL_BOOST = 1.25

# Speed scaling, relative to 40 rpm: louder and slightly brighter when faster.
# Tuned so same-friction classes separate by well over 3x the within-class
# spread that the +/-10% parameter jitter induces.
_REFERENCE_RPM = 40.0
_SPEED_LEVEL_EXP = 0.75
_SPEED_CUTOFF_EXP = 0.25

_BASE_LEVEL = 0.3
_JITTER_PCT = 0.1
_MOD_DEPTH = 0.3
_N_HARMONICS = 5
_HARMONIC_LEVEL = 0.15

_LOWPASS_BLOCK = 128
_SINE_BLOCK = 4096

DEFAULT_DURATION_S = 30.0
DEFAULT_COUNTS = {"dry_40": 52, "dry_60": 61, "wet_40": 51, "wet_60": 64}
CATEGORIES = tuple(sorted(DEFAULT_COUNTS))


@dataclass(frozen=True)
class ConditionSpec:
    friction: str                       # "dry" | "wet"
    speed_rpm: float                    # nominally 40 or 60
    duration_s: float = DEFAULT_DURATION_S

    def __post_init__(self):
        if self.friction not in FRICTIONS:
            raise ValueError(f"friction must be one of {FRICTIONS}, got {self.friction!r}")
        if not 0 < self.speed_rpm < math.inf:
            raise ValueError(f"speed_rpm must be positive and finite, got {self.speed_rpm}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")

    @property
    def cutoff_hz(self) -> float:
        return DEFAULT_CUTOFF_HZ[self.friction]


def spec_for_category(category: str, duration_s: float = DEFAULT_DURATION_S) -> ConditionSpec:
    """Build the ConditionSpec for a `<friction>_<rpm>` category name."""
    friction, _, rpm = category.partition("_")
    try:
        spec = ConditionSpec(friction=friction, speed_rpm=float(rpm))
    except ValueError as exc:
        raise ValueError(f"bad category name {category!r}: {exc}") from exc
    # the duration is checked outside the `try`, so it is not named a bad category
    return ConditionSpec(spec.friction, spec.speed_rpm, duration_s)


def check_noise_scale(scale: float) -> None:
    """ValueError unless `scale` is a finite noise scale >= 0."""
    if not 0 <= scale < math.inf:
        raise ValueError(f"noise scale must be finite and >= 0, got {scale}")


def add_noise_into(out: np.ndarray, clean: np.ndarray, scale: float, rng) -> None:
    """out = clean + scale * the next len(out) standard-normal draws of the
    generator `rng`. Draws come in sample order, so filling consecutive
    pieces of a signal draws what one call over all of it would."""
    rng.standard_normal(out=out)
    out *= scale
    out += clean


def _one_pole_lowpass(x: np.ndarray, cutoff_hz: float, sample_rate: int) -> np.ndarray:
    """y[n] = alpha * x[n] + r * y[n-1] from y[-1] = 0, where r = 1 - alpha.

    Runs in blocks of _LOWPASS_BLOCK samples. Within a block the zero-state
    response at offset k is r^k * cumsum(alpha * x * r^-k), and its last value
    feeds a scalar carry from block to block, e_b = end_b + r^_LOWPASS_BLOCK *
    e_(b-1); the output at offset k of block b adds r^(k+1) * e_(b-1).
    r^-(_LOWPASS_BLOCK - 1) stays finite for cutoffs up to 0.49 * sample_rate,
    where synth_sample caps them. Elementwise ops and cumsum only: no BLAS
    call, so the output cannot depend on BLAS threads.
    """
    alpha = float(1.0 - np.exp(-2.0 * np.pi * cutoff_hz / sample_rate))
    r = 1.0 - alpha
    powers = r ** np.arange(_LOWPASS_BLOCK)
    n_blocks = -(-len(x) // _LOWPASS_BLOCK)
    y = np.zeros(n_blocks * _LOWPASS_BLOCK)
    y[:len(x)] = x
    blocks = y.reshape(n_blocks, _LOWPASS_BLOCK)
    blocks *= alpha / powers
    np.cumsum(blocks, axis=1, out=blocks)
    r_block = r ** _LOWPASS_BLOCK
    ends = (blocks[:, -1] * powers[-1]).tolist()
    carries = accumulate(ends[:-1], lambda e, end: end + r_block * e, initial=0.0)
    # r^k * (cumsum + r * e_(b-1)) is the zero-state response plus r^(k+1) * e_(b-1)
    blocks += np.multiply(list(carries), r)[:, None]
    blocks *= powers
    return y[:len(x)]


def _sinusoid(step: float, phase: float, out: np.ndarray) -> np.ndarray:
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


def _n_samples(spec: ConditionSpec, sample_rate: int) -> int:
    """Check the spec against the sample rate; return the recording's length."""
    if not 0 < spec.cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"noise cutoff {spec.cutoff_hz} Hz outside (0, {sample_rate / 2}) Hz")
    # round(x) >= 1 exactly when x > 0.5
    if not 0.5 < spec.duration_s * sample_rate < math.inf:
        raise ValueError(f"duration {spec.duration_s} s at {sample_rate} Hz does not "
                         "round to a positive, finite number of samples")
    return round(spec.duration_s * sample_rate)


def synth_sample(spec: ConditionSpec, sample_rate: int, seed) -> AudioBuffer:
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
    wave = _sinusoid(2.0 * np.pi * rotation_hz / sample_rate, rng.uniform(0, 2 * np.pi),
                     np.empty(n))
    wave *= depth
    wave += 1.0
    samples *= level
    samples *= wave
    for harmonic in range(1, _N_HARMONICS + 1):
        amp = jittered(level * _HARMONIC_LEVEL / harmonic)
        phase = rng.uniform(0, 2 * np.pi)
        _sinusoid(2.0 * np.pi * harmonic * rotation_hz / sample_rate, phase, wave)
        wave *= amp
        samples += wave
    return AudioBuffer(samples, sample_rate)


def _synth_file(job) -> None:
    """One corpus file: synthesise it from its own seed and write it as 16-bit PCM."""
    path, spec, sample_rate, seed_key = job
    buf = synth_sample(spec, sample_rate, np.random.SeedSequence(seed_key))
    write_wav(path, buf)


def synth_corpus(root, counts: dict[str, int] | None = None,
                 sample_rate: int = 22050, seed: int = 0, *,
                 workers: int | None = None,
                 duration_s: float = DEFAULT_DURATION_S) -> list[tuple[str, str]]:
    """Write a labeled corpus of 16-bit WAVs under `root/<category>/`.

    Default per-category counts are 52/61/51/64, each file `duration_s`
    seconds long. Every file gets its own seed derived from (seed, category
    index, file index), so the corpus is reproducible while samples stay
    independent, and its bytes do not depend on `workers` (parallel
    processes, default: CPU count). The counts, each category's
    ConditionSpec, its cutoff against the Nyquist rate and its length (at
    least one sample) are checked before anything is written. Returns the
    (path, category) manifest, which is also written to `root/manifest.csv`.
    """
    # imported here because dataset imports add_noise_into and check_noise_scale
    # from this module
    from . import dataset

    counts = DEFAULT_COUNTS if counts is None else counts
    root = Path(root)
    planned = []
    for cat_idx, category in enumerate(sorted(counts)):
        if counts[category] < 0:
            raise ValueError(f"negative count for category {category!r}")
        if counts[category] > 0:
            spec = spec_for_category(category, duration_s)
            _n_samples(spec, sample_rate)
            planned.append((cat_idx, category, spec))
    jobs = []
    manifest: list[tuple[str, str]] = []
    for cat_idx, category, spec in planned:
        cat_dir = root / category
        cat_dir.mkdir(parents=True, exist_ok=True)
        for file_idx in range(counts[category]):
            path = cat_dir / f"{category}_{file_idx:03d}.wav"
            jobs.append((path, spec, sample_rate, (seed, cat_idx, file_idx)))
            manifest.append((str(path), category))
    dataset.map_per_file(_synth_file, jobs, workers)
    manifest.sort()
    if manifest:
        with open(root / "manifest.csv", "w", newline="") as fh:
            fh.write(f"# wrice-manifest seed={seed} sample_rate={sample_rate}\n")
            writer = csv.writer(fh)
            writer.writerow(["path", "category"])
            writer.writerows(manifest)
    return manifest
