"""Synthetic rolling-noise corpus generation.

The recordings the classifier was designed around are not public, so this
module fabricates a stand-in corpus: band-limited Gaussian noise shaped by a
one-pole low-pass, amplitude-modulated at the wheel rotation rate, with a
small stack of rotation harmonics underneath. Wet contact gets a lower
cutoff and less level than dry; higher speed raises both. The point is a
corpus whose four classes are cleanly separable in feature space, not an
acoustic model of the contact patch. After the low-pass and the RMS, each
recording is normalised, modulated and summed with its harmonics in one
pass over cache-sized chunks, its sinusoids built by angle addition from
per-block tables, so a file costs one noise draw, one filter pass and one
chunked pass. The additive-noise kernel of noise validation and `augment`
is `dataset.add_noise_into`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dataset
from .audio_io import AudioBuffer, check_wav_size, write_wav

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
# synth_sample's per-sample pass runs this many samples at a time, a whole
# number of _SINE_BLOCK blocks: the chunk and two tone buffers, 768 KiB
_CHUNK = 8 * _SINE_BLOCK

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


class _Tone(NamedTuple):
    """The tables of sin(step * i + phase) over the samples i of one
    recording: the cosines and sines of the offsets step * k within a
    _SINE_BLOCK block, and math.sin and math.cos of each block's start
    angle a = step * s + phase."""

    step: float
    phase: float
    cos_b: np.ndarray
    sin_b: np.ndarray
    sin_a: np.ndarray
    cos_a: np.ndarray


def _tone(step: float, phase: float, n: int) -> _Tone:
    """The `_Tone` tables of an n-sample recording, built once per tone."""
    offsets = np.arange(min(n, _SINE_BLOCK)) * step
    cos_b = np.cos(offsets)
    starts = [start * step + phase for start in range(0, n, _SINE_BLOCK)]
    return _Tone(step, phase, cos_b, np.sin(offsets, out=offsets),
                 np.array([math.sin(a) for a in starts]), np.array([math.cos(a) for a in starts]))


def _sinusoid(tone: _Tone, start: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill out[k] = sin(tone.step * (start + k) + tone.phase), where `start`
    is a multiple of _SINE_BLOCK; `scratch` is at least as long as `out`.

    The block starting at sample s is sin(a + step * k) = sin(a) * cos(step * k)
    + cos(a) * sin(step * k) with a = step * s + phase, so one block of offset
    cosines and sines serves every block, and sin/cos run n / _SINE_BLOCK +
    2 * _SINE_BLOCK times per recording instead of n. All the whole blocks
    of `out` take one ufunc call per term, and a partial last block one
    more. Elementwise ufuncs only: no BLAS call.
    """
    whole, rest = divmod(len(out), _SINE_BLOCK)
    cut = whole * _SINE_BLOCK
    # the whole blocks as (whole, _SINE_BLOCK) views, then a partial last
    # block as a (1, rest) view
    for lo, hi, width in ((0, cut, _SINE_BLOCK), (cut, len(out), rest)):
        if hi > lo:
            rows = (hi - lo) // width
            block = (start + lo) // _SINE_BLOCK
            blocks = out[lo:hi].reshape(rows, width)
            terms = scratch[:hi - lo].reshape(rows, width)
            np.multiply(tone.cos_b[:width], tone.sin_a[block:block + rows, None], out=blocks)
            np.multiply(tone.sin_b[:width], tone.cos_a[block:block + rows, None], out=terms)
            blocks += terms
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
    The noise and every scalar are drawn before the per-sample pass, in the
    order: jitters, noise, modulation phase, then each harmonic's amplitude
    and phase.
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
    rms = np.sqrt(np.mean(samples**2))
    modulation = _tone(2.0 * np.pi * rotation_hz / sample_rate, rng.uniform(0, 2 * np.pi), n)
    harmonics = []
    for harmonic in range(1, _N_HARMONICS + 1):
        amp = jittered(level * _HARMONIC_LEVEL / harmonic)
        phase = rng.uniform(0, 2 * np.pi)
        harmonics.append((amp, _tone(2.0 * np.pi * harmonic * rotation_hz / sample_rate,
                                     phase, n)))
    # One pass over _CHUNK samples at a time, so the chunk, its tone and
    # the tone's scratch stay in cache; each sample gets the operations, in
    # the order, that one pass of each over the whole recording gives it.
    waves, scratch = np.empty((2, min(n, _CHUNK)))
    for start in range(0, n, _CHUNK):
        chunk = samples[start:start + _CHUNK]
        wave = waves[:len(chunk)]
        chunk /= rms
        _sinusoid(modulation, start, wave, scratch)
        wave *= depth
        wave += 1.0
        chunk *= level
        chunk *= wave
        for amp, tone in harmonics:
            _sinusoid(tone, start, wave, scratch)
            wave *= amp
            chunk += wave
    return AudioBuffer(samples, sample_rate)


def _synth_file(job) -> None:
    """One corpus file: synthesise it from its own seed and write it as 16-bit PCM."""
    path, spec, sample_rate, seed = job
    write_wav(path, synth_sample(spec, sample_rate, seed))


def synth_corpus(root, counts: dict[str, int] | None = None,
                 sample_rate: int = dataset.DEFAULT_SAMPLE_RATE, seed: int = 0, *,
                 workers: int | None = None,
                 duration_s: float = DEFAULT_DURATION_S) -> list[tuple[str, str]]:
    """Write a labeled corpus of 16-bit WAVs under `root/<category>/`.

    Default per-category counts are 52/61/51/64, each file `duration_s`
    seconds long. Every file gets its own seed derived from (seed, category
    index, file index), so the corpus is reproducible while samples stay
    independent, and its bytes do not depend on `workers` (parallel
    processes, default: the CPUs this process may use). The seed (at least
    0), the counts, each category's ConditionSpec, its cutoff against the
    Nyquist rate, its length (at least one sample) and the rate and length
    against what a 16-bit WAV holds (`check_wav_size`), `workers`, and each
    category directory, those of the categories counted 0 too, against WAVs
    that the run would not overwrite (`dataset.check_no_stale_wavs`) are
    checked before anything is written; counts that are all 0 are refused.
    Returns the (path, category) manifest, which is also written to
    `root/manifest.csv`.
    """
    dataset.check_seed(seed)
    counts = DEFAULT_COUNTS if counts is None else counts
    root = Path(root)
    planned = []
    for cat_idx, category in enumerate(sorted(counts)):
        if counts[category] < 0:
            raise ValueError(f"negative count for category {category!r}")
        if counts[category] > 0:
            spec = spec_for_category(category, duration_s)
            check_wav_size(_n_samples(spec, sample_rate), sample_rate)
            planned.append((cat_idx, category, spec))
    if not planned:
        raise ValueError("every category count is 0, so there is nothing to write")
    workers = dataset.pool_size(workers)
    jobs = []
    manifest: list[tuple[str, str]] = []
    for cat_idx, category, spec in planned:
        for file_idx in range(counts[category]):
            path = root / category / f"{category}_{file_idx:03d}.wav"
            # a SeedSequence made here loads numpy.random before the pool
            # forks, so the workers inherit it rather than each importing it
            jobs.append((path, spec, sample_rate,
                         np.random.SeedSequence((seed, cat_idx, file_idx))))
            manifest.append((str(path), category))
    dataset.check_no_stale_wavs((path for path, *_ in jobs),
                                folders=[root / category for category in counts])
    for _, category, _ in planned:
        (root / category).mkdir(parents=True, exist_ok=True)
    dataset.map_per_file(_synth_file, jobs, workers)
    manifest.sort()
    with open(root / "manifest.csv", "w", newline="") as fh:
        fh.write(f"# wrice-manifest seed={seed} sample_rate={sample_rate}\n")
        writer = csv.writer(fh)
        writer.writerow(["path", "category"])
        writer.writerows(manifest)
    return manifest
