"""Corpus ingestion, train/test splitting, standardization, CSV persistence.

A corpus is a directory with one subdirectory per category, each holding WAV
files (`root/<category>/<file>.wav`). Features are stored raw; standardization
is fitted on the training partition only and applied downstream. Every
`LabeledDataset` carries the `Extraction` that made its rows, which a
feature CSV's meta line records. The additive-noise kernel lives here,
beside `noise_rng`, the per-file seed rule of noise validation and `augment`.
"""

from __future__ import annotations

import csv
import importlib
import io
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# `read_wav` stays bound here: perfbench's tracer test reads `dataset.read_wav`
from .audio_io import WavReader, read_wav, resampled_length  # noqa: F401
from .dsp import BLOCK_FRAMES, WINDOW, StftConfig, block_spans
from .errors import (ClassTooSmallError, DuplicateLabelError, EmptyCorpusError,
                     NonFiniteError, SchemaMismatchError, WriceError)
from .features import (N_FEATURES, N_MELS, N_MFCC, SCHEMA_VERSION, BlockFeatures,
                       chroma_projector, feature_names, mel_projector)

logger = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_SEGMENT_SECONDS = 30.0

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Extraction:
    """The analysis rate, segment length, STFT and mel band count that turn
    audio into feature rows; a model scores audio only through its own. A
    segment holds at least one STFT frame, and the bands number at least
    `N_MFCC`."""

    sample_rate: int = DEFAULT_SAMPLE_RATE
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS
    stft: StftConfig = StftConfig()
    n_mels: int = N_MELS

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.segment_seconds < math.inf:
            raise ValueError(f"segment_seconds must be positive, got {self.segment_seconds}")
        if not self.stft.n_frames(int(self.segment_seconds * self.sample_rate)):
            raise ValueError(f"segment_seconds {self.segment_seconds} at {self.sample_rate} Hz "
                             f"is shorter than one {self.stft.frame_len}-sample frame")
        if self.n_mels < N_MFCC:
            raise ValueError(f"n_mels must be at least n_mfcc={N_MFCC}, got {self.n_mels}")

    def meta(self) -> dict:
        """The feature CSV's `#` meta keys of these settings, in file order."""
        return {"sr": self.sample_rate, "frame": self.stft.frame_len, "hop": self.stft.hop,
                "window": WINDOW, "segment_seconds": self.segment_seconds,
                "n_mfcc": N_MFCC, "n_mels": self.n_mels}


@dataclass
class LabeledDataset:
    """Feature rows with integer labels, per-row file provenance, and the
    extraction that made the rows."""

    features: np.ndarray          # (n, d) float64, raw (unscaled)
    labels: np.ndarray            # (n,) int
    label_map: list[str]          # id -> category name
    source_paths: list[str]
    extraction: Extraction

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("row count mismatch between features and labels")
        if len(self.source_paths) != self.features.shape[0]:
            raise ValueError("row count mismatch between features and source paths")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise NonFiniteError(f"{bad.size} feature row(s) hold NaN or Inf, first row "
                                 f"{bad[0]} ({self.source_paths[bad[0]]})")
        if len(set(self.label_map)) != len(self.label_map):
            raise DuplicateLabelError(f"duplicate category names in {self.label_map}")
        if self.labels.size and not (0 <= self.labels.min() and
                                     self.labels.max() < len(self.label_map)):
            raise ValueError("label id outside label map range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.label_map))

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(features=self.features[indices],
                              labels=self.labels[indices],
                              label_map=list(self.label_map),
                              source_paths=[self.source_paths[i] for i in indices],
                              extraction=self.extraction)


@dataclass(frozen=True)
class Scaler:
    """Per-column standardization parameters (std floored at 1e-12)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("scaler mean/std must be 1-D and the same length")
        if np.any(self.std < STD_FLOOR):
            raise ValueError(f"scaler std below floor {STD_FLOOR}")


def corpus_labels(root) -> list[str]:
    """The label map of a corpus: its category subdirectory names, sorted, so
    a name's index is its id."""
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"{root}: not a directory")
    categories = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not categories:
        raise EmptyCorpusError(f"{root}: no category subdirectories")
    return categories


def corpus_files(root) -> tuple[list[str], list[tuple[Path, str]]]:
    """Walk `root/<category>/*.wav`; returns (label_map, sorted (path, category) pairs).

    Non-WAV files are skipped with a warning; a category without WAVs is an
    error so silently empty classes cannot slip through.
    """
    root = Path(root)
    label_map = corpus_labels(root)
    pairs: list[tuple[Path, str]] = []
    for category in label_map:
        wavs = sorted(p for p in (root / category).iterdir()
                      if p.is_file() and p.suffix.lower() == ".wav")
        for other in sorted(p for p in (root / category).iterdir()
                            if p.is_file() and p.suffix.lower() != ".wav"):
            logger.warning("skipping non-WAV file %s", other)
        if not wavs:
            raise EmptyCorpusError(f"category {category!r} contains no WAV files")
        pairs.extend((p, category) for p in wavs)
    return label_map, pairs


def check_no_stale_wavs(targets, folders=()) -> None:
    """ValueError, naming the first, if a directory that the WAV paths
    `targets` lie in, or one of `folders`, already holds a WAV (any case,
    as `corpus_files` reads them) that is not one of them: a corpus read
    afterwards would mix it with the new files. Call it before writing any
    of `targets`."""
    targets = {Path(t) for t in targets}
    for folder in sorted({t.parent for t in targets} | {Path(f) for f in folders}):
        if not folder.is_dir():
            continue
        for p in sorted(folder.iterdir()):
            if p.suffix.lower() == ".wav" and p not in targets and p.is_file():
                raise ValueError(f"{p}: a WAV that this run would not overwrite, "
                                 "so the corpus would mix it with the new files")


def check_noise_scale(scale: float | None) -> None:
    """ValueError unless `scale` is the clean `None` or a finite noise scale >= 0."""
    if scale is not None and not 0 <= scale < math.inf:
        raise ValueError(f"noise scale must be finite and >= 0, got {scale}")


def check_seed(seed: int) -> None:
    """ValueError unless `seed` is at least 0, as `numpy.random` requires."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")


def noise_rng(seed: int, scale_index: int, file_idx: int) -> np.random.Generator:
    """The generator of the noise that the scale at `scale_index` adds to
    file `file_idx` of a run seeded `seed`: `SeedSequence([seed,
    scale_index, file_idx])`, so a file's noise depends on its index, never
    on processing order or worker count."""
    return np.random.default_rng(np.random.SeedSequence([seed, scale_index, file_idx]))


def add_noise_into(out: np.ndarray, clean: np.ndarray, scale: float, rng) -> None:
    """out = clean + scale * the next len(out) standard-normal draws of the
    generator `rng`. Draws come in sample order, so filling consecutive
    pieces of a signal draws what one call over all of it would."""
    rng.standard_normal(out=out)
    out *= scale
    out += clean


def file_rows(path, ex: Extraction, scales=(None,), seed: int = 0,
              file_idx: int = 0) -> list[np.ndarray]:
    """One file read once, a block of frames at a time: for each entry of
    `scales`, the (n_segments, n_features) raw feature matrix of its
    analysis segments.

    Segments are `ex.segment_seconds` long (trailing partial dropped); a file
    shorter than one segment is one whole-file segment. A `None` scale is the
    clean audio; a float scale adds the draws of `noise_rng(seed, scale
    index, file_idx)`. A bad scale, a negative seed or a negative `file_idx`
    is refused before the file is opened; other errors name the path once.
    A segment's row is the mean of its frames' values: the sums that
    `BlockFeatures.add` takes over its blocks, over the frames it reports.

    The rows are those of `extract_features` on each segment of the whole
    file resampled at once (`WavReader.read_resampled` over all of it) and
    noised at once (`add_noise_into` over all of it), bit for bit, but
    the file is read, resampled, noised and analysed one `dsp.block_spans`
    block at a time. Each scale's noise is drawn in sample order: samples
    that two blocks share keep their draws, and samples that no frame covers
    are drawn too. So a call holds one block of samples per scale and the
    buffers of one `BlockFeatures`, whatever the file's length.
    """
    scales = tuple(scales)
    for scale in scales:
        check_noise_scale(scale)
    check_seed(seed)
    if file_idx < 0:
        raise ValueError(f"file_idx must be at least 0, got {file_idx}")
    with WavReader(path) as wav:  # its errors name the path already
        try:
            return _streamed_rows(wav, ex, scales, seed, file_idx)
        except (WriceError, ValueError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _streamed_rows(wav: WavReader, ex: Extraction, scales: tuple, seed: int,
                   file_idx: int) -> list[np.ndarray]:
    n = resampled_length(wav.frames, wav.sample_rate, ex.sample_rate)
    window = int(ex.segment_seconds * ex.sample_rate)
    segments = [(i * window, (i + 1) * window) for i in range(n // window)] or [(0, n)]
    rngs = [noise_rng(seed, i, file_idx) if scale else None
            for i, scale in enumerate(scales)]  # a 0 scale draws nothing
    blocks = BlockFeatures(ex.stft, ex.n_mels, ex.sample_rate)
    longest = (BLOCK_FRAMES - 1) * ex.stft.hop + ex.stft.frame_len
    clean = np.empty(longest)
    noisy = {i: np.empty(longest) for i, rng in enumerate(rngs) if rng is not None}
    rows = np.empty((len(scales), len(segments), N_FEATURES))
    for k, (first, last) in enumerate(segments):
        sums, frames = np.zeros((len(scales), N_FEATURES)), np.zeros((len(scales), 1))
        done = held = 0  # samples of the segment read so far, and in the last block
        for start, stop in block_spans(last - first, ex.stft):
            keep = done - start  # samples the previous block covers too
            for signal in (clean, *noisy.values()):
                signal[:keep] = signal[held - keep : held]
            fresh = slice(keep, stop - start)
            clean[fresh] = wav.read_resampled(ex.sample_rate, first + done, first + stop)
            for i, (scale, rng) in enumerate(zip(scales, rngs)):
                signal = clean
                if rng is not None:
                    signal = noisy[i]
                    add_noise_into(signal[fresh], clean[fresh], scale, rng)
                frames[i] += blocks.add(signal[: stop - start], sums[i])
            done, held = stop, stop - start
        for rng in rngs:
            if rng is not None:
                rng.standard_normal(last - first - done)  # samples after the last frame
        rows[:, k] = sums / frames
        if not np.isfinite(rows[:, k]).all():
            raise ValueError("feature values contain NaN or Inf")
    return list(rows)


def _file_rows_job(job) -> list[np.ndarray]:
    """`file_rows` of a (path, ex, scales, seed, file_idx) job tuple, for the pool."""
    return file_rows(*job)


def _load_for_jobs(ex: Extraction, scales: tuple) -> None:
    """Load in this process what `file_rows` jobs of `ex` at `scales` load on
    first use: the cached mel and chroma projectors with `scipy.sparse`,
    `numpy.fft`, and `numpy.random` when a scale draws noise. Workers forked
    afterwards inherit them, so no job imports a module or builds a
    projector. `mel_projector` takes the arguments of `BlockFeatures`' call,
    by position, so the two share one cache entry."""
    mel_projector(ex.n_mels, ex.stft.frame_len, ex.sample_rate)
    chroma_projector(ex.stft.frame_len, ex.sample_rate)
    importlib.import_module("numpy.fft")
    if any(scales):  # as in `_streamed_rows`, a 0 scale draws nothing
        importlib.import_module("numpy.random")


def pool_size(workers: int | None) -> int:
    """`workers`, or by default the number of CPUs this process may run on
    (its affinity mask, or the CPU count where the platform has none).
    ValueError below 1."""
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return workers


def map_per_file(fn, jobs, workers: int | None):
    """Run a per-file job list, optionally on a process pool, preserving order.

    Results are assembled in job order, so the outcome is identical for any
    worker count. `workers` goes through `pool_size`.
    """
    jobs = list(jobs)
    workers = pool_size(workers)
    if workers == 1 or len(jobs) < 2:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs, chunksize=max(len(jobs) // (workers * 8), 1)))


def corpus_rows(paths, ex: Extraction, scales=(None,), seed: int = 0,
                workers: int | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """`file_rows` of every path, stacked in path order: one raw feature
    matrix per entry of `scales`, and the index in `paths` of each row's file.

    File i's noise is drawn from `noise_rng(seed, scale index, i)`, and
    files run on `workers` processes (default: the CPUs this process may
    use) but are stacked in path order, so the matrices are identical for
    any worker count. The scales and the seed are checked before any file
    is opened.
    """
    scales = tuple(scales)
    jobs = [(path, ex, scales, seed, file_idx) for file_idx, path in enumerate(paths)]
    if not scales or not jobs:
        raise ValueError(f"need a scale and a path, got {len(scales)} and {len(jobs)}")
    for scale in scales:
        check_noise_scale(scale)
    check_seed(seed)
    _load_for_jobs(ex, scales)
    per_file = map_per_file(_file_rows_job, jobs, workers)
    owner = np.repeat(np.arange(len(per_file)), [len(rows[0]) for rows in per_file])
    return [np.vstack([rows[i] for rows in per_file]) for i in range(len(scales))], owner


def ingest_corpus(root, ex: Extraction = Extraction(), *,
                  workers: int | None = None) -> LabeledDataset:
    """Extract one feature row per analysis segment of every corpus WAV.

    Files longer than the segment length contribute one row per segment
    (trailing partial dropped); shorter files contribute a single whole-file
    row. Files are processed in parallel (one per worker); the dataset is
    assembled in path order regardless of worker count.
    """
    label_map, pairs = corpus_files(root)
    file_labels = np.array([label_map.index(category) for _, category in pairs])
    [rows], owner = corpus_rows([path for path, _ in pairs], ex, workers=workers)
    return LabeledDataset(features=rows, labels=file_labels[owner], label_map=label_map,
                          source_paths=[str(pairs[i][0]) for i in owner], extraction=ex)


def stratified_split(ds: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Per-category shuffled partition; ceil(test_fraction * n_c) rows go to test.

    Rows are sorted by source path first, so the outcome depends only on the
    corpus contents and the seed (at least 0), not on ingestion order.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    check_seed(seed)
    order = sorted(range(ds.n), key=lambda i: (ds.source_paths[i], i))
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label_id in range(len(ds.label_map)):
        members = [i for i in order if ds.labels[i] == label_id]
        if len(members) < 2:
            raise ClassTooSmallError(
                f"category {ds.label_map[label_id]!r} has {len(members)} row(s), need >= 2")
        perm = rng.permutation(len(members))
        n_test = math.ceil(test_fraction * len(members) - 1e-9)
        n_test = min(max(n_test, 1), len(members) - 1)
        test_idx.extend(members[j] for j in perm[:n_test])
        train_idx.extend(members[j] for j in perm[n_test:])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


def fit_scaler(train: LabeledDataset) -> Scaler:
    """Per-column mean and population standard deviation of the training rows."""
    if train.n < 2:
        raise ValueError(f"need at least 2 rows to fit a scaler, got {train.n}")
    mean = train.features.mean(axis=0)
    std = np.maximum(train.features.std(axis=0), STD_FLOOR)
    return Scaler(mean=mean, std=std)


def scale_rows(scaler: Scaler, features: np.ndarray) -> np.ndarray:
    """z-score a feature matrix row-wise."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != scaler.mean.shape[0]:
        raise SchemaMismatchError(
            f"feature width {features.shape[1]} does not match scaler width "
            f"{scaler.mean.shape[0]}")
    return (features - scaler.mean) / scaler.std


def check_csv_labels(label_map, path) -> None:
    """ValueError unless the meta line of the feature CSV `path` can carry every label."""
    for label in label_map:
        if "|" in label or any(ch.isspace() for ch in label):
            raise ValueError(f"{path}: label {label!r} holds whitespace or '|', "
                             "which the feature CSV's meta line cannot carry")


def _meta_line(label_map, ex: Extraction) -> str:
    """A feature CSV's first line: its schema version, label map and `ex.meta()`."""
    meta = {"schema_version": SCHEMA_VERSION, "label_map": "|".join(label_map), **ex.meta()}
    return "# wrice-features " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"


def write_features_csv(ds: LabeledDataset, path) -> None:
    """Write `path,label,<26 feature columns>` rows at full float precision.

    The first line is the `_meta_line` of `ds.extraction`, so
    `read_features_csv` reads back the rows and the settings that made
    them. Raises
    ValueError, and writes nothing, if the width is not `N_FEATURES` or a
    label holds whitespace or `|`, which the meta line cannot carry.
    """
    if ds.features.shape[1] != N_FEATURES:
        raise ValueError(f"{path}: {ds.features.shape[1]} feature columns, "
                         f"the schema has {N_FEATURES}")
    check_csv_labels(ds.label_map, path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_meta_line(ds.label_map, ds.extraction))
        writer = csv.writer(fh)
        writer.writerow(["path", "label", *feature_names()])
        for i in range(ds.n):
            writer.writerow([ds.source_paths[i], ds.label_map[ds.labels[i]],
                             *(format(v, ".17g") for v in ds.features[i])])


def _feature_csv_text(path) -> io.StringIO:
    """A feature CSV's text, to be read with `csv`; a byte that is not UTF-8
    is a SchemaMismatchError naming its line."""
    raw = Path(path).read_bytes()
    try:
        return io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaMismatchError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc


def _read_meta(fh, path) -> tuple[list[str], Extraction]:
    """The label map and extraction of a feature CSV's first line, read from
    `fh`. The line must be exactly the `_meta_line` of what it parses to, so
    a key that is missing, added, repeated, reordered or spelt otherwise is a
    SchemaMismatchError naming the path."""
    line = fh.readline()
    prefix = "# wrice-features "
    if not line.startswith(prefix):
        raise SchemaMismatchError(f"{path}: line 1 is not a `{prefix.strip()}` meta line")
    tokens = dict(token.partition("=")[::2] for token in line[len(prefix):].split())
    parsers = {"schema_version": int, "label_map": str, "sr": int, "frame": int, "hop": int,
               "window": str, "segment_seconds": float, "n_mfcc": int, "n_mels": int}
    values = {}
    for key, parse in parsers.items():
        if key not in tokens:
            raise SchemaMismatchError(f"{path}: meta line has no {key}=")
        try:
            values[key] = parse(tokens[key])
        except ValueError as exc:
            raise SchemaMismatchError(f"{path}: meta {key}={tokens[key]}: {exc}") from None
    if values["schema_version"] != SCHEMA_VERSION:
        raise SchemaMismatchError(f"{path}: feature schema version "
                                  f"{values['schema_version']}, expected {SCHEMA_VERSION}")
    for key, fixed in (("window", WINDOW), ("n_mfcc", N_MFCC)):
        if values[key] != fixed:
            raise SchemaMismatchError(f"{path}: meta {key}={values[key]}: "
                                      f"the only {key} is {fixed}")
    try:
        ex = Extraction(values["sr"], values["segment_seconds"],
                        StftConfig(values["frame"], values["hop"]), values["n_mels"])
    except ValueError as exc:
        raise SchemaMismatchError(f"{path}: meta out of range: {exc}") from exc
    label_map = values["label_map"].split("|")
    written = _meta_line(label_map, ex)
    if line != written:
        raise SchemaMismatchError(f"{path}: line 1 is not the meta line that wrice writes "
                                  f"for its values: {written.strip()}")
    return label_map, ex


def read_features_csv(path) -> LabeledDataset:
    """Read a feature CSV produced by write_features_csv, once; the dataset's
    extraction is the one its meta line records.

    Line 1 is the meta line, line 2 the header, whose columns are
    `feature_names()`. Raises SchemaMismatchError if the meta line or header
    is not the one wrice writes, if a meta value does not parse or is out
    of range, or if a line is not UTF-8 or CSV or holds a row of the wrong
    width, a value that is not a number or a label that the label map lacks
    (the message names the path and the line), and NonFiniteError if a
    feature value is NaN or infinite.
    """
    fh = _feature_csv_text(path)
    label_map, ex = _read_meta(fh, path)
    expected_header = ["path", "label", *feature_names()]
    ids = {name: i for i, name in enumerate(label_map)}
    paths, labels, rows = [], [], []
    reader = csv.reader(fh)
    try:
        if next(reader, None) != expected_header:
            raise SchemaMismatchError(
                f"{path}: line 2: header does not match the {N_FEATURES}-column "
                "feature schema")
        for row in reader:
            line = 1 + reader.line_num
            if len(row) != len(expected_header):
                raise SchemaMismatchError(f"{path}: line {line}: row with {len(row)} columns")
            if row[1] not in ids:
                raise SchemaMismatchError(f"{path}: line {line}: label {row[1]!r} "
                                          "not in label map")
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise SchemaMismatchError(f"{path}: line {line}: {exc}") from exc
            paths.append(row[0])
            labels.append(ids[row[1]])
    except csv.Error as exc:
        raise SchemaMismatchError(f"{path}: line {1 + reader.line_num}: {exc}") from exc
    if not rows:
        raise SchemaMismatchError(f"{path}: no feature rows")
    try:
        return LabeledDataset(features=np.array(rows), labels=np.array(labels),
                              label_map=label_map, source_paths=paths, extraction=ex)
    except WriceError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
