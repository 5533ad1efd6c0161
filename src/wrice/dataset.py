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

from . import blas
from .audio_io import read_wav, resample_linear, segment, to_mono
from .dsp import StftConfig
from .errors import (ClassTooSmallError, DuplicateLabelError, EmptyCorpusError,
                     NonFiniteError, SchemaMismatchError, WriceError)
from .features import (N_BASE_FEATURES, SCHEMA_VERSION, FeatureConfig,
                       FeatureVector, extract_features, feature_names)
from .synth import add_noise

logger = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_SEGMENT_SECONDS = 30.0

STD_FLOOR = 1e-12


@dataclass
class LabeledDataset:
    """Feature rows with integer labels and per-row file provenance."""

    features: np.ndarray          # (n, d) float64, raw (unscaled)
    labels: np.ndarray            # (n,) int
    label_map: list[str]          # id -> category name
    source_paths: list[str]
    schema_version: int = SCHEMA_VERSION

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
                              schema_version=self.schema_version)


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


def encode_labels(names) -> list[str]:
    """Lexicographically sorted category names; a name's index is its id."""
    names = list(names)
    if not names:
        raise ValueError("no category names to encode")
    if len(set(names)) != len(names):
        raise DuplicateLabelError(f"duplicate category names in {sorted(names)}")
    return sorted(names)


def corpus_files(root) -> tuple[list[str], list[tuple[Path, str]]]:
    """Walk `root/<category>/*.wav`; returns (label_map, sorted (path, category) pairs).

    Non-WAV files are skipped with a warning; a category without WAVs is an
    error so silently empty classes cannot slip through.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"{root}: not a directory")
    categories = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not categories:
        raise EmptyCorpusError(f"{root}: no category subdirectories")
    label_map = encode_labels(categories)
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


def load_audio(path, sample_rate: int = DEFAULT_SAMPLE_RATE):
    """Read a WAV, mix to mono, and resample to the analysis rate."""
    _, channels = read_wav(path)
    return resample_linear(to_mono(channels), sample_rate)


def file_segments(buf, segment_seconds: float):
    """Analysis segments of a buffer; a too-short file is one whole-file segment."""
    return segment(buf, segment_seconds) or [buf]


def default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def _file_rows(job) -> list[list[np.ndarray]]:
    """One file decoded once: its segment feature rows for each entry of `scales`.

    A `None` scale is the clean buffer; a float scale adds the file's noise
    realization for (seed, scale index, file index), so rows do not depend
    on processing order or worker count.
    """
    path, file_idx, scales, seed, sample_rate, segment_seconds, stft_cfg, feat_cfg = job
    try:
        clean = load_audio(path, sample_rate)
        per_scale = []
        for scale_idx, scale in enumerate(scales):
            buf = clean if scale is None else add_noise(
                clean, scale, np.random.SeedSequence([seed, scale_idx, file_idx]))
            per_scale.append([extract_features(piece, stft_cfg, feat_cfg).values
                              for piece in file_segments(buf, segment_seconds)])
        return per_scale
    except (WriceError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _log_blas_limit(processes: str, read_threads) -> None:
    """Debug line: who runs the jobs, and each OpenBLAS's thread count read back there."""
    if not logger.isEnabledFor(logging.DEBUG):
        return
    counts = read_threads()
    if counts:
        logger.debug("%s; BLAS thread limit of 1 per process: %s", processes,
                     ", ".join(f"{name} reads back {n} thread(s)"
                               for name, n in counts.items()))
    else:
        logger.debug("%s; BLAS thread limit not applied: no OpenBLAS found; "
                     "threads not limited", processes)


def map_per_file(fn, jobs, workers: int | None):
    """Run a per-file job list, optionally on a process pool, preserving order.

    Results are assembled in job order, and every job runs with one BLAS
    thread, in the pool workers and in-process alike, so the outcome is
    identical for any worker count. The in-process path restores the
    caller's BLAS thread count afterwards.
    """
    jobs = list(jobs)
    workers = default_workers() if workers is None else max(workers, 1)
    if workers == 1 or len(jobs) < 2:
        with blas.one_thread():
            _log_blas_limit("1 process (in-process)", blas.thread_counts)
            return [fn(job) for job in jobs]
    pool_size = min(workers, len(jobs))
    # one BLAS thread per worker: pool_size x the default (one per core)
    # would oversubscribe the cores
    with ProcessPoolExecutor(max_workers=pool_size,
                             initializer=blas.limit_to_one_thread) as pool:
        _log_blas_limit(f"{pool_size} worker processes",
                        lambda: pool.submit(blas.thread_counts).result())
        return list(pool.map(fn, jobs, chunksize=max(len(jobs) // (workers * 8), 1)))


def _map_file_rows(paths, scales, seed, sample_rate: int, segment_seconds: float,
                   stft_cfg: StftConfig, feat_cfg: FeatureConfig,
                   workers: int | None) -> list[list[list[np.ndarray]]]:
    """`_file_rows` of each file in path order (the order fixes each file's noise)."""
    jobs = [(str(path), file_idx, scales, seed, sample_rate, segment_seconds,
             stft_cfg, feat_cfg) for file_idx, path in enumerate(paths)]
    return map_per_file(_file_rows, jobs, workers)


def ingest_corpus(root, stft_cfg: StftConfig | None = None,
                  feat_cfg: FeatureConfig | None = None, *,
                  sample_rate: int = DEFAULT_SAMPLE_RATE,
                  segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
                  workers: int | None = None) -> LabeledDataset:
    """Extract one feature row per analysis segment of every corpus WAV.

    Files longer than the segment length contribute one row per segment
    (trailing partial dropped); shorter files contribute a single whole-file
    row. Files are processed in parallel (one per worker); the dataset is
    assembled in path order regardless of worker count.
    """
    stft_cfg = stft_cfg or StftConfig()
    feat_cfg = feat_cfg or FeatureConfig()
    label_map, pairs = corpus_files(root)
    ids = {name: i for i, name in enumerate(label_map)}

    per_file = _map_file_rows([path for path, _ in pairs], [None], None, sample_rate,
                              segment_seconds, stft_cfg, feat_cfg, workers)

    rows: list[np.ndarray] = []
    labels: list[int] = []
    paths: list[str] = []
    for (path, category), (vectors,) in zip(pairs, per_file):
        for values in vectors:
            rows.append(values)
            labels.append(ids[category])
            paths.append(str(path))

    return LabeledDataset(features=np.vstack(rows), labels=np.array(labels),
                          label_map=label_map, source_paths=paths)


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


def apply_scaler(scaler: Scaler, fv: FeatureVector) -> FeatureVector:
    """z-score a single feature vector."""
    if len(fv) != scaler.mean.shape[0]:
        raise SchemaMismatchError(
            f"feature width {len(fv)} does not match scaler width {scaler.mean.shape[0]}")
    return FeatureVector(values=(fv.values - scaler.mean) / scaler.std,
                         schema_version=fv.schema_version)


def scale_rows(scaler: Scaler, features: np.ndarray) -> np.ndarray:
    """z-score a feature matrix row-wise."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != scaler.mean.shape[0]:
        raise SchemaMismatchError(
            f"feature width {features.shape[1]} does not match scaler width "
            f"{scaler.mean.shape[0]}")
    return (features - scaler.mean) / scaler.std


def write_features_csv(ds: LabeledDataset, path, metadata: dict | None = None) -> None:
    """Write `path,label,<26 feature columns>` rows at full float precision.

    A leading `#` line records the label map, schema version, and any
    extraction settings passed in `metadata`.
    """
    names = feature_names(ds.features.shape[1] - N_BASE_FEATURES)
    meta = {"schema_version": ds.schema_version,
            "label_map": "|".join(ds.label_map)}
    meta.update(metadata or {})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# wrice-features " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["path", "label", *names])
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


def _read_meta(fh) -> tuple[dict[str, str], str, int]:
    """Key=value tokens of the leading `#` lines, then the first other line
    and its line number."""
    meta: dict[str, str] = {}
    line, number = fh.readline(), 1
    while line.startswith("#"):
        for token in line[1:].split():
            if "=" in token:
                key, _, value = token.partition("=")
                meta[key] = value
        line, number = fh.readline(), number + 1
    return meta, line, number


def read_features_meta(path) -> dict[str, str]:
    """Key=value tokens from the leading comment line of a feature CSV."""
    return _read_meta(_feature_csv_text(path))[0]


def read_features_csv(path, n_features: int = 26) -> LabeledDataset:
    """Read a feature CSV produced by write_features_csv.

    Raises SchemaMismatchError if the header does not match the expected
    schema width exactly, if the `#` meta names another schema version, or
    if a line is not UTF-8 or holds a row of the wrong width or a value that
    is not a number (the message names the path and the line), and
    NonFiniteError if a feature value is NaN or infinite.
    """
    expected_header = ["path", "label", *feature_names(n_features - N_BASE_FEATURES)]
    fh = _feature_csv_text(path)
    meta, first, header_line = _read_meta(fh)
    version = meta.get("schema_version", str(SCHEMA_VERSION))
    if version != str(SCHEMA_VERSION):
        raise SchemaMismatchError(
            f"{path}: feature schema version {version!r}, expected {SCHEMA_VERSION}")
    header = next(csv.reader([first]), None)
    if header != expected_header:
        raise SchemaMismatchError(
            f"{path}: header does not match the {n_features}-column feature schema")
    paths, names, rows = [], [], []
    reader = csv.reader(fh)
    for row in reader:
        line = header_line + reader.line_num
        if len(row) != len(expected_header):
            raise SchemaMismatchError(f"{path}: line {line}: row with {len(row)} columns")
        try:
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise SchemaMismatchError(f"{path}: line {line}: {exc}") from exc
        paths.append(row[0])
        names.append(row[1])
    if not rows:
        raise SchemaMismatchError(f"{path}: no feature rows")
    if "label_map" in meta:
        label_map = meta["label_map"].split("|")
    else:
        label_map = encode_labels(set(names))
    ids = {name: i for i, name in enumerate(label_map)}
    try:
        labels = np.array([ids[name] for name in names])
    except KeyError as exc:
        raise SchemaMismatchError(f"{path}: label {exc} not in label map") from exc
    try:
        return LabeledDataset(features=np.array(rows), labels=labels, label_map=label_map,
                              source_paths=paths)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{path}: {exc}") from exc
