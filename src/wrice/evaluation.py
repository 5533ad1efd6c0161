"""Accuracy/confusion reporting and the additive-noise validation protocol."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import LabeledDataset, corpus_files, corpus_rows, scale_rows
from .errors import SchemaMismatchError
from .mlp import MlpModel, forward

DEFAULT_NOISE_SCALES = (0.5, 0.05, 0.005)

REPORT_FORMAT = "wrice-eval"
REPORT_VERSION = 1


@dataclass
class EvalReport:
    """One scoring run; its sample count and accuracy are read off the
    confusion matrix."""

    confusion: np.ndarray       # (n_labels, n_labels); rows true, cols predicted
    label_map: list[str]
    noise_scale: float | None = None
    seed: int | None = None

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.confusion)) / self.n

    def to_dict(self) -> dict:
        entry = {"accuracy": self.accuracy, "n": self.n,
                 "label_map": list(self.label_map),
                 "confusion": self.confusion.tolist()}
        if self.noise_scale is not None:
            entry["noise_scale"] = self.noise_scale
        if self.seed is not None:
            entry["seed"] = self.seed
        return entry


def _report(true_labels: np.ndarray, predicted: np.ndarray, label_map,
            noise_scale=None, seed=None) -> EvalReport:
    n_labels = len(label_map)
    confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(confusion, (true_labels, predicted), 1)
    return EvalReport(confusion=confusion, label_map=list(label_map),
                      noise_scale=noise_scale, seed=seed)


def _label_ids(model: MlpModel, label_map) -> np.ndarray:
    """Model label id of each category; every category must be a model label."""
    unknown = sorted(set(label_map) - set(model.label_map))
    if unknown:
        raise SchemaMismatchError(
            f"categories {unknown} not in model labels {model.label_map}")
    return np.array([model.label_map.index(name) for name in label_map], dtype=np.intp)


def _score(model: MlpModel, features, true_ids, noise_scale=None, seed=None) -> EvalReport:
    """Classify raw feature rows with the model's bundled scaler and report."""
    predicted = forward(model, scale_rows(model.scaler, features)).argmax(axis=1)
    return _report(true_ids, predicted, model.label_map, noise_scale, seed)


def evaluate(model: MlpModel, test: LabeledDataset) -> EvalReport:
    """Classify every raw feature row with the model's bundled scaler."""
    if test.n == 0:
        raise ValueError("evaluation set is empty")
    return _score(model, test.features, _label_ids(model, test.label_map)[test.labels])


def noise_validation(model: MlpModel, root, scales=DEFAULT_NOISE_SCALES,
                     seed: int = 0, workers: int | None = None) -> list[EvalReport]:
    """Re-extract the corpus under additive standard-normal noise per scale.

    Each file is decoded once and gets one independent noise realization per
    scale, derived from (seed, scale index, file index in path order), so
    results do not depend on processing order or worker count. A `None`
    scale scores the clean corpus (its report has no noise scale and no
    seed). A scale that is negative or not finite, or a negative seed, is
    refused before any file is decoded. The model's bundled scaler is reused without refitting.
    """
    scales = list(scales)
    if not scales:
        raise ValueError("no noise scales given")
    _, pairs = corpus_files(root)
    file_ids = _label_ids(model, [category for _, category in pairs])
    per_scale, owner = corpus_rows([path for path, _ in pairs], model.extraction, scales,
                                   seed, workers)
    return [_score(model, rows, file_ids[owner], scale, None if scale is None else seed)
            for scale, rows in zip(scales, per_scale)]


def report_document(clean: EvalReport, noisy: list[EvalReport], seed: int,
                    configs: dict) -> dict:
    """Machine-readable evaluation document combining clean and noisy runs."""
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "seed": seed,
        "clean": clean.to_dict(),
        "noise": [r.to_dict() for r in noisy],
        "configs": configs,
    }


def write_report(document: dict, path) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def format_report(report: EvalReport) -> str:
    """Human-readable accuracy plus confusion matrix (rows true, cols predicted),
    every column as wide as the widest label or count."""
    tag = "clean" if report.noise_scale is None else f"noise {report.noise_scale:g}"
    width = max(max(len(name) for name in report.label_map),
                len(str(report.confusion.max())))
    lines = [f"{tag}: accuracy {report.accuracy:.4f} ({np.trace(report.confusion)}/{report.n})"]
    header = " " * (width + 3) + " ".join(f"{name:>{width}}" for name in report.label_map)
    lines.append(header)
    for i, name in enumerate(report.label_map):
        cells = " ".join(f"{v:>{width}}" for v in report.confusion[i])
        lines.append(f"  {name:>{width}} {cells}")
    return "\n".join(lines)
