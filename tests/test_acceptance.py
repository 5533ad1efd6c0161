"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The pipeline criteria share
one session-scoped full-size run (default 228-sample corpus, reference
hyperparameters); the numeric criteria run standalone against independent
oracles.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import (bin_freqs, finite_difference_grads, layer_gradients, magnitudes,
                      naive_dft, sine_buffer)
from wrice import dataset as ds_mod
from wrice import evaluation, mlp, synth
from wrice.audio_io import AudioBuffer
from wrice.cli import run
from wrice.dsp import StftConfig, frame_signal, hann_window
from wrice.features import (FeatureConfig, bandwidths, centroids, dct_ortho_matrix,
                            extract_features, feature_names, mel_filterbank, mfccs,
                            mfccs_from_mel_energies, rolloffs)

SEED = 42


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


@dataclass
class FullRun:
    corpus: Path
    data: "ds_mod.LabeledDataset"
    train_set: "ds_mod.LabeledDataset"
    test_set: "ds_mod.LabeledDataset"
    scaler: "ds_mod.Scaler"
    model: "mlp.MlpModel"
    history: "mlp.TrainHistory"
    clean: "evaluation.EvalReport"
    noisy: list
    elapsed_s: float


@pytest.fixture(scope="session")
def full_run(tmp_path_factory) -> FullRun:
    """Default corpus at reference scale: 228 files, 30 s each, 22050 Hz,
    four dense layers, 60 epochs / batch 32 / lr 0.01, noise 0.5/0.05/0.005."""
    root = tmp_path_factory.mktemp("acceptance") / "corpus"
    ex = ds_mod.Extraction()
    started = time.perf_counter()

    synth.synth_corpus(root, seed=SEED)
    data = ds_mod.ingest_corpus(root, ex)
    train_set, test_set = ds_mod.stratified_split(data, 0.2, seed=SEED)
    scaler = ds_mod.fit_scaler(train_set)
    model = mlp.init_model(mlp.layer_dims_for("paper4", 26, 4), seed=SEED,
                           scaler=scaler, label_map=data.label_map, extraction=ex)
    model, history = mlp.train(model, train_set, mlp.TrainConfig(seed=SEED))
    clean = evaluation.evaluate(model, test_set)
    noisy = evaluation.noise_validation(model, root, [0.5, 0.05, 0.005], seed=SEED)

    elapsed = time.perf_counter() - started
    return FullRun(corpus=root, data=data, train_set=train_set, test_set=test_set,
                   scaler=scaler, model=model, history=history, clean=clean,
                   noisy=noisy, elapsed_s=elapsed)


def test_dsp_oracle_equivalence():
    with criterion("DSP oracle equivalence: BlockSpectra magnitudes vs |naive DFT| "
                   "of the Hann-windowed frames, 1e-9 relative, 100 frames of 256..4096, "
                   "< 30 s"):
        rng = np.random.default_rng(SEED)
        started = time.perf_counter()
        checked = 0
        for size in (256, 512, 1024, 2048, 4096):
            cfg = StftConfig(frame_len=size, hop=size)
            buf = AudioBuffer(rng.standard_normal(20 * size), 22050)
            windowed = frame_signal(buf.samples, cfg) * hann_window(size)
            reference = np.abs(naive_dft(windowed))[:, : size // 2 + 1]
            got = magnitudes(buf, cfg)
            assert got.shape == reference.shape
            for ref_row, got_row in zip(reference, got):
                rel = np.abs(got_row - ref_row).max() / np.abs(ref_row).max()
                assert rel <= 1e-9, f"size {size}: relative error {rel:.2e}"
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 100
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_feature_closed_form_suite():
    with criterion("Feature closed forms: sine targets, degenerate spectra, "
                   "scale invariance, < 10 s"):
        from conftest import noise_buffer

        started = time.perf_counter()
        sr = 22050
        cfg = StftConfig()
        names = feature_names()

        for freq in (250, 1000, 4000):
            got = dict(zip(names, extract_features(sine_buffer(freq, sr, seconds=0.5),
                                                   cfg, FeatureConfig()).values))
            assert abs(got["centroid_mean"] - freq) / freq < 0.02
            assert abs(got["zcr_mean"] - 2 * freq / sr) / (2 * freq / sr) < 0.05
            expected_rms = 1 / np.sqrt(2)
            assert abs(got["rms_mean"] - expected_rms) / expected_rms < 0.01

        single = np.zeros((1, 1025))
        single[0, 123] = 2.0
        freqs = bin_freqs(cfg.frame_len, sr)
        center = centroids(single, freqs)
        assert center[0] == freqs[123]
        assert bandwidths(single, freqs, center)[0] == 0.0
        assert rolloffs(np.square(single), freqs)[0] == freqs[123]

        base_buf = noise_buffer(0.4, sr, seed=SEED)
        scaled_buf = AudioBuffer(base_buf.samples * 2.0, sr)
        base = extract_features(base_buf, cfg, FeatureConfig()).values
        scaled = extract_features(scaled_buf, cfg, FeatureConfig()).values
        for name in ("zcr_mean", "centroid_mean", "bandwidth_mean",
                     "rolloff_mean", "chroma_mean"):
            i = names.index(name)
            assert abs(scaled[i] - base[i]) <= 1e-9 * max(abs(base[i]), 1.0), name
        i = names.index("rms_mean")
        assert scaled[i] == pytest.approx(2.0 * base[i], rel=1e-12)

        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_mfcc_dct_correctness():
    with criterion("MFCC/DCT: orthonormal round-trip 1e-9, constant energies -> "
                   "zero coefficients, exactly 20 coefficients, < 5 s"):
        from conftest import noise_buffer

        started = time.perf_counter()
        rng = np.random.default_rng(SEED)

        mat = dct_ortho_matrix(128)
        vec = rng.standard_normal(128)
        recovered = mat.T @ (mat @ vec)
        assert np.abs(recovered - vec).max() <= 1e-9
        assert np.abs(mat @ mat.T - np.eye(128)).max() <= 1e-12

        constant = mfccs_from_mel_energies(np.ones((5, 128)), FeatureConfig())
        assert np.abs(constant).max() <= 1e-12

        power = np.square(magnitudes(noise_buffer(0.3, 22050, seed=SEED), StftConfig()))
        coeffs = mfccs(power, mel_filterbank(FeatureConfig(), 2048, 22050), FeatureConfig())
        assert coeffs.shape == (power.shape[0], 20)

        elapsed = time.perf_counter() - started
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_gradient_check():
    with criterion("Gradient check: backprop vs central differences on [3,5,4,2], "
                   "20 trials, rel err < 1e-4, < 10 s"):
        from conftest import gradient_check_instance

        started = time.perf_counter()
        for trial in range(20):
            model, x, y = gradient_check_instance([3, 5, 4, 2], seed=trial)
            grad_w, grad_b = layer_gradients(model, x, y)
            num_w, num_b = finite_difference_grads(model, x, y, h=1e-5)
            for got, ref in list(zip(grad_w, num_w)) + list(zip(grad_b, num_b)):
                scale = np.maximum(np.abs(ref), 1e-8)
                worst = (np.abs(got - ref) / scale).max()
                assert worst < 1e-4, f"trial {trial}: relative error {worst:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_pipeline_determinism(tmp_path):
    with criterion("Determinism: two identical pipeline runs give identical "
                   "model files and EvalReports"):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats.csv"
        model = tmp_path / "model.wrice"
        report = tmp_path / "report.json"
        # a reduced corpus keeps the double run cheap; determinism is a
        # property of the stages, not of the corpus size
        small = ["--sr", "11025", "--frame", "1024", "--hop", "256",
                 "--segment-seconds", "2.0"]

        def pipeline():
            assert run(["synth", "--out", str(corpus), "--seed", str(SEED),
                        "--sr", "11025", "--duration", "2.0",
                        "--counts", "4,4,4,4"]) == 0
            assert run(["extract", "--in", str(corpus), "--out", str(feats),
                        *small]) == 0
            assert run(["train", "--features", str(feats), "--out", str(model),
                        "--epochs", "10", "--batch", "8", "--seed", str(SEED)]) == 0
            assert run(["eval", "--model", str(model), "--in", str(corpus),
                        "--noise", "0.5,0.05,0.005", "--seed", str(SEED),
                        "--json", str(report)]) == 0
            return model.read_bytes(), report.read_bytes()

        model_a, report_a = pipeline()
        model_b, report_b = pipeline()
        assert model_a == model_b, "model files differ between identical runs"
        assert report_a == report_b, "eval reports differ between identical runs"


def test_synthetic_corpus_class_separability(full_run):
    with criterion("Synthetic corpus: every class pair separated by > 3x the "
                   "mean within-class std on some coordinate"):
        feats = full_run.data.features
        labels = full_run.data.labels
        n_classes = len(full_run.data.label_map)
        for a in range(n_classes):
            for b in range(a + 1, n_classes):
                fa, fb = feats[labels == a], feats[labels == b]
                gap = np.abs(fa.mean(axis=0) - fb.mean(axis=0))
                spread = np.maximum((fa.std(axis=0) + fb.std(axis=0)) / 2, 1e-12)
                best = (gap / spread).max()
                pair = (full_run.data.label_map[a], full_run.data.label_map[b])
                assert best > 3.0, f"{pair}: best separation {best:.2f}x"


def test_end_to_end_scaled_analog(full_run):
    with criterion("End-to-end: clean test accuracy >= 0.95; noise accuracies "
                   "ordered with acc(0.005) >= 0.90 and a >= 0.10 drop at 0.5; "
                   "< 5 min"):
        assert full_run.clean.accuracy >= 0.95, \
            f"clean test accuracy {full_run.clean.accuracy:.4f}"
        by_scale = {r.noise_scale: r.accuracy for r in full_run.noisy}
        acc_small, acc_mid, acc_big = by_scale[0.005], by_scale[0.05], by_scale[0.5]
        print(f"  clean {full_run.clean.accuracy:.4f} | "
              f"noise 0.005 {acc_small:.4f}, 0.05 {acc_mid:.4f}, 0.5 {acc_big:.4f} | "
              f"{full_run.elapsed_s:.0f}s")
        assert acc_small >= acc_mid >= acc_big, "degradation ordering violated"
        assert acc_small >= 0.90
        assert acc_small - acc_big >= 0.10
        assert full_run.elapsed_s < 300, f"pipeline took {full_run.elapsed_s:.0f}s"


def test_dataset_bookkeeping(full_run):
    with criterion("Dataset bookkeeping: 228 rows, ceil-rule split counts, "
                   "scaler mean 0 / std 1 on train within 1e-9"):
        assert full_run.data.n == 228
        assert list(full_run.data.class_counts()) == [52, 61, 51, 64]
        assert list(full_run.test_set.class_counts()) == [11, 13, 11, 13]
        assert full_run.train_set.n == 180 and full_run.test_set.n == 48

        scaled = ds_mod.scale_rows(full_run.scaler, full_run.train_set.features)
        nondegenerate = full_run.scaler.std > 1e-11
        assert np.abs(scaled.mean(axis=0)).max() < 1e-9
        assert np.abs(scaled[:, nondegenerate].std(axis=0) - 1.0).max() < 1e-9


def test_persistence_round_trips(full_run, tmp_path):
    with criterion("Persistence: feature CSV and model file round-trip to "
                   "bit-identical values and predictions"):
        csv_path = tmp_path / "features.csv"
        ds_mod.write_features_csv(full_run.data, csv_path, full_run.model.extraction)
        back = ds_mod.read_features_csv(csv_path)
        np.testing.assert_array_equal(back.features, full_run.data.features)
        np.testing.assert_array_equal(back.labels, full_run.data.labels)
        assert back.label_map == full_run.data.label_map

        model_path = tmp_path / "model.wrice"
        mlp.save_model(full_run.model, model_path)
        restored = mlp.load_model(model_path)
        scaled = ds_mod.scale_rows(full_run.scaler, full_run.test_set.features)
        np.testing.assert_array_equal(mlp.forward(restored, scaled),
                                      mlp.forward(full_run.model, scaled))
