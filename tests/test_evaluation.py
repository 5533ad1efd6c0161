"""Accuracy/confusion bookkeeping and the noise-validation protocol."""

import numpy as np
import pytest

from conftest import TINY_EX, identity_bundle
from wrice import evaluation
from wrice.dataset import (Extraction, LabeledDataset, Scaler, fit_scaler, scale_rows,
                           stratified_split)
from wrice.errors import SchemaMismatchError
from wrice.evaluation import (EvalReport, evaluate, format_report, noise_validation,
                              report_document)
from wrice.mlp import MlpModel, TrainConfig, init_model, layer_dims_for, train
from wrice.synth import CATEGORIES


def passthrough_model(n_classes=4):
    """Logits = first n_classes raw features; identity scaler; no hidden layer."""
    eye = np.zeros((n_classes, n_classes))
    np.fill_diagonal(eye, 10.0)
    return MlpModel(layer_dims=[n_classes, n_classes],
                    params=np.concatenate([eye.ravel(), np.zeros(n_classes)]),
                    **identity_bundle([n_classes, n_classes]))


def one_hot_rows(label_ids, n_classes=4):
    rows = np.zeros((len(label_ids), n_classes))
    rows[np.arange(len(label_ids)), label_ids] = 1.0
    return rows


def crafted_dataset(true_labels, feature_labels, n_classes=4):
    return LabeledDataset(features=one_hot_rows(feature_labels, n_classes),
                          labels=np.array(true_labels),
                          label_map=[f"c{i}" for i in range(n_classes)],
                          source_paths=[f"c{t}/{i}.wav" for i, t in enumerate(true_labels)])


class TestEvaluate:
    def test_all_correct_is_diagonal(self):
        ds = crafted_dataset([0, 1, 2, 3, 1], [0, 1, 2, 3, 1])
        report = evaluate(passthrough_model(), ds)
        assert report.accuracy == 1.0
        assert np.trace(report.confusion) == 5
        assert report.confusion.sum() == 5

    def test_all_wrong_is_zero_diagonal(self):
        ds = crafted_dataset([0, 1, 2, 3], [1, 2, 3, 0])
        report = evaluate(passthrough_model(), ds)
        assert report.accuracy == 0.0
        assert np.trace(report.confusion) == 0

    def test_three_of_four(self):
        ds = crafted_dataset([0, 1, 2, 3], [0, 1, 2, 0])
        report = evaluate(passthrough_model(), ds)
        assert report.accuracy == 0.75
        assert report.confusion[3, 0] == 1

    def test_row_sums_are_class_counts(self):
        ds = crafted_dataset([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2])
        report = evaluate(passthrough_model(), ds)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [2, 1, 3, 0])
        assert report.accuracy == pytest.approx(np.trace(report.confusion) / report.n)

    def test_label_map_mismatch(self):
        ds = crafted_dataset([0, 1], [0, 1])
        ds.label_map = ["x0", "x1", "x2", "x3"]
        with pytest.raises(SchemaMismatchError):
            evaluate(passthrough_model(), ds)

    def test_labels_are_mapped_to_model_ids(self):
        ds = LabeledDataset(features=one_hot_rows([2, 0, 2]), labels=np.array([0, 1, 0]),
                            label_map=["c2", "c0"], source_paths=["a", "b", "c"])
        report = evaluate(passthrough_model(), ds)
        assert report.label_map == ["c0", "c1", "c2", "c3"]
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(np.diag(report.confusion), [1, 0, 2, 0])

    def test_empty_set(self):
        ds = crafted_dataset([0], [0]).subset([])
        with pytest.raises(ValueError):
            evaluate(passthrough_model(), ds)

    def test_report_validates_totals(self):
        with pytest.raises(ValueError):
            EvalReport(accuracy=1.0, confusion=np.ones((2, 2), dtype=int), n=3,
                       label_map=["a", "b"])


@pytest.fixture(scope="module")
def trained_tiny(tiny_corpus, tiny_dataset):
    train_set, test_set = stratified_split(tiny_dataset, 0.25, seed=0)
    model = init_model([26, 32, 32, 4], seed=0, scaler=fit_scaler(train_set),
                       label_map=tiny_dataset.label_map, extraction=TINY_EX)
    model, _ = train(model, train_set, TrainConfig(epochs=25, batch_size=8, seed=0))
    return model, test_set


class TestNoiseValidation:
    def test_scale_zero_matches_clean_evaluation(self, tiny_corpus, tiny_dataset,
                                                 trained_tiny):
        model, _ = trained_tiny
        clean = evaluate(model, tiny_dataset)
        reports = noise_validation(model, tiny_corpus, [0.0], seed=5)
        assert reports[0].accuracy == clean.accuracy
        np.testing.assert_array_equal(reports[0].confusion, clean.confusion)

    def test_none_scale_is_the_clean_evaluation(self, tiny_corpus, tiny_dataset,
                                                trained_tiny):
        model, _ = trained_tiny
        noisy, clean = noise_validation(model, tiny_corpus, [0.05, None], seed=5)
        assert clean.to_dict() == evaluate(model, tiny_dataset).to_dict()
        assert (clean.noise_scale, clean.seed) == (None, None)
        assert noisy.to_dict() == noise_validation(model, tiny_corpus, [0.05],
                                                   seed=5)[0].to_dict()

    def test_seeded_reproducibility(self, tiny_corpus, trained_tiny):
        model, _ = trained_tiny
        first = noise_validation(model, tiny_corpus, [0.05], seed=7)
        second = noise_validation(model, tiny_corpus, [0.05], seed=7)
        np.testing.assert_array_equal(first[0].confusion, second[0].confusion)
        assert first[0].accuracy == second[0].accuracy

    def test_reports_keep_scale_order(self, tiny_corpus, trained_tiny):
        model, _ = trained_tiny
        reports = noise_validation(model, tiny_corpus, [0.5, 0.005], seed=1)
        assert [r.noise_scale for r in reports] == [0.5, 0.005]
        assert all(r.n == 16 for r in reports)

    def test_empty_scales(self, tiny_corpus, trained_tiny):
        model, _ = trained_tiny
        with pytest.raises(ValueError):
            noise_validation(model, tiny_corpus, [], seed=0)

    def test_default_scales(self):
        from wrice.evaluation import DEFAULT_NOISE_SCALES

        assert DEFAULT_NOISE_SCALES == (0.5, 0.05, 0.005)

    def test_worker_count_does_not_change_results(self, tiny_corpus, trained_tiny):
        model, _ = trained_tiny
        serial = noise_validation(model, tiny_corpus, [0.05], seed=2, workers=1)
        parallel = noise_validation(model, tiny_corpus, [0.05], seed=2, workers=2)
        np.testing.assert_array_equal(serial[0].confusion, parallel[0].confusion)

    def test_worker_count_does_not_change_realistic_size_rows(self, realistic_corpus,
                                                              monkeypatch):
        model = init_model(layer_dims_for("compact3", 26, 4), seed=0,
                           scaler=Scaler(mean=np.zeros(26), std=np.ones(26)),
                           label_map=list(CATEGORIES), extraction=Extraction())
        classified = []

        def recording_scale_rows(scaler, features):
            classified.append(features)
            return scale_rows(scaler, features)

        monkeypatch.setattr(evaluation, "scale_rows", recording_scale_rows)
        reports = [noise_validation(model, realistic_corpus, [0.5, 0.005], seed=3,
                                    workers=workers)
                   for workers in (1, 2)]
        assert len(classified) == 4
        serial, pooled = classified[:2], classified[2:]
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
        for a, b in zip(*reports):
            assert np.array_equal(a.confusion, b.confusion)


class TestReportOutput:
    def test_document_shape(self):
        ds = crafted_dataset([0, 1], [0, 1])
        clean = evaluate(passthrough_model(), ds)
        doc = report_document(clean, [], seed=3, configs={"sr": 22050})
        assert doc["format"] == "wrice-eval"
        assert doc["clean"]["accuracy"] == 1.0
        assert doc["seed"] == 3
        assert doc["noise"] == []

    def test_format_report_mentions_labels(self):
        ds = crafted_dataset([0, 1, 2, 3], [0, 1, 2, 3])
        text = format_report(evaluate(passthrough_model(), ds))
        assert "accuracy 1.0000" in text
        assert "c0" in text and "c3" in text

    def test_format_report_widens_columns_to_the_widest_count(self):
        report = EvalReport(accuracy=220 / 228, confusion=[[120, 3], [5, 100]], n=228,
                            label_map=["a", "b"])
        assert format_report(report).splitlines() == [
            "clean: accuracy 0.9649 (220/228)",
            "        a   b",
            "    a 120   3",
            "    b   5 100",
        ]

    def test_format_report_of_the_default_labels_is_unchanged(self):
        confusion = [[52, 1, 0, 0], [0, 61, 0, 0], [2, 0, 49, 0], [0, 0, 3, 61]]
        report = EvalReport(accuracy=223 / 229, confusion=confusion, n=229,
                            label_map=["dry_40", "dry_60", "wet_40", "wet_60"],
                            noise_scale=0.05, seed=3)
        assert format_report(report) == (
            "noise 0.05: accuracy 0.9738 (223/229)\n"
            "         dry_40 dry_60 wet_40 wet_60\n"
            "  dry_40     52      1      0      0\n"
            "  dry_60      0     61      0      0\n"
            "  wet_40      2      0     49      0\n"
            "  wet_60      0      0      3     61")
