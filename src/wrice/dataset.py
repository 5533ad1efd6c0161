"""Corpus ingestion, train/test splitting, standardization, CSV persistence.

A corpus is a directory with one subdirectory per category, each holding WAV
files (`root/<category>/<file>.wav`). Features are stored raw; standardization
is fitted on the training partition only and applied downstream.
"""

from __future__ import annotations

import csv
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
from .features import (SCHEMA_VERSION, BlockFeatures, FeatureConfig, FeatureVector,
                       feature_names)
from .synth import add_noise_into, check_noise_scale

logger = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_SEGMENT_SECONDS = 30.0

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Extraction:
    """The analysis rate, segment length, STFT and feature settings that turn
    audio into feature rows; a model scores audio only through its own. A
    segment holds at least one STFT frame."""

    sample_rate: int = DEFAULT_SAMPLE_RATE
    segment_seconds: float = DEFAULT_SEGMENT_SECONDS
    stft: StftConfig = StftConfig()
    features: FeatureConfig = FeatureConfig()

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 < self.segment_seconds < math.inf:
            raise ValueError(f"segment_seconds must be positive, got {self.segment_seconds}")
        if int(self.segment_seconds * self.sample_rate) < self.stft.frame_len:
            raise ValueError(f"segment_seconds {self.segment_seconds} at {self.sample_rate} Hz "
                             f"is shorter than one {self.stft.frame_len}-sample frame")

    def meta(self) -> dict:
        """The feature CSV's `#` meta keys of these settings, in file order."""
        return {"sr": self.sample_rate, "frame": self.stft.frame_len, "hop": self.stft.hop,
                "window": WINDOW, "segment_seconds": self.segment_seconds,
                "n_mfcc": self.features.n_mfcc, "n_mels": self.features.n_mels}


@dataclass
class LabeledDataset:
    """Feature rows with integer labels and per-row file provenance."""

    features: np.ndarray          # (n, d) float64, raw (unscaled)
    labels: np.ndarray            # (n,) int
    label_map: list[str]          # id -> category name
    source_paths: list[str]

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
                              source_paths=[self.source_paths[i] for i in indices])


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


def file_rows(path, ex: Extraction, scales=(None,), seed: int = 0,
              file_idx: int = 0) -> list[np.ndarray]:
    """One file read once, a block of frames at a time: for each entry of
    `scales`, the (n_segments, n_features) raw feature matrix of its
    analysis segments.

    Segments are `ex.segment_seconds` long (trailing partial dropped); a file
    shorter than one segment is one whole-file segment. A `None` scale is the
    clean audio; a float scale adds the noise realization seeded by
    `SeedSequence([seed, scale index, file_idx])`, so a file's rows depend on
    its index, never on processing order or worker count. Errors name the
    path once.

    The rows are those of `extract_features` on each segment of the whole
    file resampled at once (`WavReader.read_resampled` over all of it) and
    noised at once (`synth.add_noise_into` over all of it), bit for bit, but
    the file is read, resampled, noised and analysed one `dsp.block_spans`
    block at a time. Each scale's noise is drawn in sample order: samples
    that two blocks share keep their draws, and samples that no frame covers
    are drawn too. So a call holds one block of samples per scale and the
    buffers of one `BlockFeatures`, whatever the file's length.
    """
    with WavReader(path) as wav:  # its errors name the path already
        try:
            return _streamed_rows(wav, ex, tuple(scales), seed, file_idx)
        except (WriceError, ValueError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _streamed_rows(wav: WavReader, ex: Extraction, scales: tuple, seed: int,
                   file_idx: int) -> list[np.ndarray]:
    for scale in scales:
        if scale is not None:
            check_noise_scale(scale)
    n = resampled_length(wav.frames, wav.sample_rate, ex.sample_rate)
    window = int(ex.segment_seconds * ex.sample_rate)
    segments = [(i * window, (i + 1) * window) for i in range(n // window)] or [(0, n)]
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i, file_idx])) if scale
            else None for i, scale in enumerate(scales)]  # a 0 scale draws nothing
    blocks = BlockFeatures(ex.stft, ex.features, ex.sample_rate)
    longest = (BLOCK_FRAMES - 1) * ex.stft.hop + ex.stft.frame_len
    clean = np.empty(longest)
    noisy = {i: np.empty(longest) for i, rng in enumerate(rngs) if rng is not None}
    rows = np.empty((len(scales), len(segments), ex.features.n_features))
    for k, (first, last) in enumerate(segments):
        sums = np.zeros((len(scales), ex.features.n_features))
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
                blocks.add(signal[: stop - start], sums[i])
            done, held = stop, stop - start
        for rng in rngs:
            if rng is not None:
                rng.standard_normal(last - first - done)  # samples after the last frame
        n_frames = (last - first - ex.stft.frame_len) // ex.stft.hop + 1
        for i in range(len(scales)):
            rows[i, k] = FeatureVector(values=sums[i] / n_frames).values
    return list(rows)


def _file_rows_job(job) -> list[np.ndarray]:
    """`file_rows` of a (path, ex, scales, seed, file_idx) job tuple, for the pool."""
    return file_rows(*job)


def map_per_file(fn, jobs, workers: int | None):
    """Run a per-file job list, optionally on a process pool, preserving order.

    Results are assembled in job order, so the outcome is identical for any
    worker count.
    """
    jobs = list(jobs)
    workers = max((os.cpu_count() or 1) if workers is None else workers, 1)
    if workers == 1 or len(jobs) < 2:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs, chunksize=max(len(jobs) // (workers * 8), 1)))


def corpus_rows(paths, ex: Extraction, scales=(None,), seed: int = 0,
                workers: int | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """`file_rows` of every path, stacked in path order: one raw feature
    matrix per entry of `scales`, and the index in `paths` of each row's file.

    File i's noise is seeded by `SeedSequence([seed, scale index, i])`, and
    files run on `workers` processes (default: CPU count) but are stacked in
    path order, so the matrices are identical for any worker count.
    """
    scales = tuple(scales)
    jobs = [(path, ex, scales, seed, file_idx) for file_idx, path in enumerate(paths)]
    if not scales or not jobs:
        raise ValueError(f"need a scale and a path, got {len(scales)} and {len(jobs)}")
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
                          source_paths=[str(pairs[i][0]) for i in owner])


def stratified_split(ds: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Per-category shuffled partition; ceil(test_fraction * n_c) rows go to test.

    Rows are sorted by source path first, so the outcome depends only on the
    corpus contents and the seed, not on ingestion order.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
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


def write_features_csv(ds: LabeledDataset, path, ex: Extraction) -> None:
    """Write `path,label,<26 feature columns>` rows at full float precision.

    The first line is `_meta_line`, so `read_features_csv` reads the rows
    back and `read_extraction` the settings that made them. Raises
    ValueError, and writes nothing, if the width is not
    `ex.features.n_features` or a label holds whitespace or `|`, which the
    meta line cannot carry.
    """
    if ds.features.shape[1] != ex.features.n_features:
        raise ValueError(f"{path}: {ds.features.shape[1]} feature columns, but n_mfcc="
                         f"{ex.features.n_mfcc} makes {ex.features.n_features}")
    check_csv_labels(ds.label_map, path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_meta_line(ds.label_map, ex))
        writer = csv.writer(fh)
        writer.writerow(["path", "label", *feature_names(ex.features.n_mfcc)])
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
    if values["window"] != WINDOW:
        raise SchemaMismatchError(f"{path}: meta window={values['window']}: "
                                  f"the only window is {WINDOW}")
    try:
        ex = Extraction(values["sr"], values["segment_seconds"],
                        StftConfig(values["frame"], values["hop"]),
                        FeatureConfig(n_mfcc=values["n_mfcc"], n_mels=values["n_mels"]))
    except ValueError as exc:
        raise SchemaMismatchError(f"{path}: meta out of range: {exc}") from exc
    label_map = values["label_map"].split("|")
    written = _meta_line(label_map, ex)
    if line != written:
        raise SchemaMismatchError(f"{path}: line 1 is not the meta line that wrice writes "
                                  f"for its values: {written.strip()}")
    return label_map, ex


def read_extraction(path) -> Extraction:
    """The extraction that a feature CSV's meta line records. A meta line
    that is not the one `write_features_csv` writes, or a value that does
    not parse or is out of range, is a SchemaMismatchError naming the path."""
    return _read_meta(_feature_csv_text(path), path)[1]


def read_features_csv(path) -> LabeledDataset:
    """Read a feature CSV produced by write_features_csv.

    Line 1 is the meta line, checked as by `read_extraction`; line 2 is the
    header, whose columns are the schema's base features plus the meta's
    `n_mfcc` MFCCs. Raises SchemaMismatchError if the meta line or header
    is not the one wrice writes, or if a line is not UTF-8 or CSV or holds
    a row of the wrong width, a value that is not a number or a label that
    the label map lacks (the message names the path and the line), and
    NonFiniteError if a feature value is NaN or infinite.
    """
    fh = _feature_csv_text(path)
    label_map, ex = _read_meta(fh, path)
    expected_header = ["path", "label", *feature_names(ex.features.n_mfcc)]
    ids = {name: i for i, name in enumerate(label_map)}
    paths, labels, rows = [], [], []
    reader = csv.reader(fh)
    try:
        if next(reader, None) != expected_header:
            raise SchemaMismatchError(
                f"{path}: line 2: header does not match the {len(expected_header) - 2}-column "
                f"feature schema of n_mfcc={ex.features.n_mfcc}")
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
                              label_map=label_map, source_paths=paths)
    except WriceError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
