"""Corpus ingestion, splitting, scaling, and CSV persistence."""

import numpy as np
import pytest

from conftest import TINY_SECONDS, TINY_SR, TINY_STFT
from wrice import blas
from wrice.audio_io import AudioBuffer, write_wav
from wrice.dataset import (LabeledDataset, Scaler, apply_scaler, encode_labels,
                           fit_scaler, ingest_corpus, map_per_file, read_features_csv,
                           read_features_meta, scale_rows, stratified_split,
                           write_features_csv)
from wrice.errors import (ClassTooSmallError, DuplicateLabelError,
                          EmptyCorpusError, NonFiniteError, SchemaMismatchError)
from wrice.features import SCHEMA_VERSION, FeatureConfig, FeatureVector


def make_dataset(counts, d=26, seed=0):
    rng = np.random.default_rng(seed)
    features, labels, paths = [], [], []
    names = sorted(counts)
    for label_id, name in enumerate(names):
        for i in range(counts[name]):
            features.append(rng.normal(size=d))
            labels.append(label_id)
            paths.append(f"{name}/{name}_{i:03d}.wav")
    return LabeledDataset(features=np.array(features), labels=np.array(labels),
                          label_map=names, source_paths=paths)


class TestEncodeLabels:
    def test_sorted_ids(self):
        out = encode_labels({"wet_60", "dry_40", "wet_40", "dry_60"})
        assert out == ["dry_40", "dry_60", "wet_40", "wet_60"]
        assert out.index("dry_40") == 0 and out.index("wet_60") == 3

    def test_single(self):
        assert encode_labels(["only"]) == ["only"]

    def test_duplicate(self):
        with pytest.raises(DuplicateLabelError):
            encode_labels(["a", "a"])

    def test_empty(self):
        with pytest.raises(ValueError):
            encode_labels([])


class TestStratifiedSplit:
    def test_ceil_rule_ten_rows(self):
        ds = make_dataset({"a": 10, "b": 10})
        train, test = stratified_split(ds, 0.2, seed=0)
        assert train.n == 16 and test.n == 4
        assert list(test.class_counts()) == [2, 2]

    def test_reference_counts(self):
        ds = make_dataset({"dry_40": 52, "dry_60": 61, "wet_40": 51, "wet_60": 64})
        train, test = stratified_split(ds, 0.2, seed=0)
        assert list(test.class_counts()) == [11, 13, 11, 13]
        assert test.n == 48 and train.n == 180

    def test_deterministic_per_seed(self):
        ds = make_dataset({"a": 9, "b": 7})
        first = stratified_split(ds, 0.3, seed=42)
        second = stratified_split(ds, 0.3, seed=42)
        assert first[1].source_paths == second[1].source_paths
        different = stratified_split(ds, 0.3, seed=43)
        assert first[1].source_paths != different[1].source_paths

    def test_partition_exact(self):
        ds = make_dataset({"a": 11, "b": 6, "c": 5})
        train, test = stratified_split(ds, 0.25, seed=3)
        together = sorted(train.source_paths + test.source_paths)
        assert together == sorted(ds.source_paths)
        assert train.n + test.n == ds.n

    def test_ingestion_order_does_not_matter(self):
        ds = make_dataset({"a": 8, "b": 8})
        reversed_ds = ds.subset(list(range(ds.n - 1, -1, -1)))
        a = stratified_split(ds, 0.25, seed=9)
        b = stratified_split(reversed_ds, 0.25, seed=9)
        assert sorted(a[1].source_paths) == sorted(b[1].source_paths)

    def test_class_too_small(self):
        ds = make_dataset({"a": 1, "b": 5})
        with pytest.raises(ClassTooSmallError):
            stratified_split(ds, 0.2, seed=0)

    def test_bad_fraction(self):
        ds = make_dataset({"a": 4, "b": 4})
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                stratified_split(ds, bad, seed=0)


class TestScaler:
    def test_train_statistics_after_scaling(self):
        ds = make_dataset({"a": 30, "b": 30}, seed=5)
        scaler = fit_scaler(ds)
        scaled = scale_rows(scaler, ds.features)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_floors_std(self):
        features = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        ds = LabeledDataset(features=features, labels=np.zeros(10, dtype=int),
                            label_map=["x"], source_paths=[f"x/{i}.wav" for i in range(10)])
        scaler = fit_scaler(ds)
        assert scaler.mean[0] == 5.0
        assert scaler.std[0] == pytest.approx(1e-12)
        assert scale_rows(scaler, features)[:, 0] == pytest.approx(0.0)

    def test_apply_closed_forms(self):
        scaler = Scaler(mean=np.array([1.0, 2.0]), std=np.array([2.0, 4.0]))
        at_mean = apply_scaler(scaler, FeatureVector(values=np.array([1.0, 2.0])))
        np.testing.assert_array_equal(at_mean.values, [0.0, 0.0])
        plus_std = apply_scaler(scaler, FeatureVector(values=np.array([3.0, 6.0])))
        np.testing.assert_array_equal(plus_std.values, [1.0, 1.0])

    def test_not_idempotent(self):
        scaler = Scaler(mean=np.array([1.0]), std=np.array([2.0]))
        once = apply_scaler(scaler, FeatureVector(values=np.array([5.0])))
        twice = apply_scaler(scaler, once)
        assert once.values[0] != twice.values[0]

    def test_width_mismatch(self):
        scaler = Scaler(mean=np.zeros(26), std=np.ones(26))
        with pytest.raises(SchemaMismatchError):
            apply_scaler(scaler, FeatureVector(values=np.zeros(25)))

    def test_too_few_rows(self):
        ds = make_dataset({"a": 2, "b": 2}).subset([0])
        with pytest.raises(ValueError):
            fit_scaler(ds)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = make_dataset({"a": 5, "b": 4}, seed=11)
        path = tmp_path / "feats.csv"
        write_features_csv(ds, path, metadata={"sr": 22050})
        back = read_features_csv(path)
        assert back.label_map == ds.label_map
        assert back.source_paths == ds.source_paths
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)
        assert read_features_meta(path)["sr"] == "22050"

    def test_header_row(self, tmp_path):
        ds = make_dataset({"a": 2, "b": 2})
        path = tmp_path / "feats.csv"
        write_features_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header[:2] == ["path", "label"]
        assert len(header) == 28
        assert header[2] == "zcr_mean" and header[-1] == "mfcc_mean_20"

    def test_wrong_column_count_rejected(self, tmp_path):
        ds = make_dataset({"a": 3, "b": 3}, d=25)
        path = tmp_path / "short.csv"
        write_features_csv(ds, path)
        with pytest.raises(SchemaMismatchError):
            read_features_csv(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(SchemaMismatchError):
            read_features_csv(path)

    def test_other_schema_version_rejected(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        text = path.read_text()
        path.write_text(text.replace(f"schema_version={SCHEMA_VERSION}",
                                     f"schema_version={SCHEMA_VERSION + 1}", 1))
        with pytest.raises(SchemaMismatchError, match="schema version"):
            read_features_csv(path)

    # line 1 is the `#` meta line, line 2 the header, line 3 the first row
    @pytest.mark.parametrize("bad,match", [
        (b"x1.5", r"line 4: could not convert string to float: 'x1.5'"),
        (b"1.5\xff", r"line 4: not UTF-8 text"),
    ])
    def test_bad_cell_names_path_and_line(self, tmp_path, bad, match):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        lines = path.read_bytes().split(b"\n")
        cells = lines[3].split(b",")
        cells[4] = bad
        lines[3] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SchemaMismatchError, match=match) as info:
            read_features_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        ds = make_dataset({"a": 2, "b": 2})
        features = ds.features.copy()
        features[1, 3] = bad
        with pytest.raises(NonFiniteError, match=r"first row 1 \(a/a_001.wav\)"):
            LabeledDataset(features=features, labels=ds.labels, label_map=ds.label_map,
                           source_paths=ds.source_paths)
        path = tmp_path / "feats.csv"
        write_features_csv(ds, path)
        path.write_text(path.read_text().replace(format(ds.features[1, 3], ".17g"),
                                                 str(bad), 1))
        with pytest.raises(NonFiniteError, match="NaN or Inf") as info:
            read_features_csv(path)
        assert str(path) in str(info.value)


class TestIngest:
    def test_tiny_corpus_row_per_file(self, tiny_corpus, tiny_dataset):
        assert tiny_dataset.n == 16
        assert tiny_dataset.label_map == ["dry_40", "dry_60", "wet_40", "wet_60"]
        assert list(tiny_dataset.class_counts()) == [4, 4, 4, 4]
        assert all(p.endswith(".wav") for p in tiny_dataset.source_paths)

    def test_worker_count_does_not_change_the_dataset(self, tiny_corpus):
        serial, pooled = (ingest_corpus(tiny_corpus, TINY_STFT, FeatureConfig(),
                                        sample_rate=TINY_SR, segment_seconds=TINY_SECONDS,
                                        workers=workers)
                          for workers in (1, 2))
        assert np.array_equal(serial.features, pooled.features)
        assert np.array_equal(serial.labels, pooled.labels)
        assert serial.source_paths == pooled.source_paths

    def test_worker_count_does_not_change_realistic_size_features(self, realistic_corpus):
        serial, pooled = (ingest_corpus(realistic_corpus, workers=workers)
                          for workers in (1, 2))
        assert np.array_equal(serial.features, pooled.features)

    def test_long_file_contributes_row_per_segment(self, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(0)
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "long.wav",
                      AudioBuffer(rng.uniform(-0.5, 0.5, TINY_SR * 3), TINY_SR))
        ds = ingest_corpus(root, TINY_STFT, FeatureConfig(),
                           sample_rate=TINY_SR, segment_seconds=1.0)
        assert ds.n == 6
        assert ds.source_paths[0] == ds.source_paths[1] == ds.source_paths[2]

    def test_short_file_contributes_whole_file_row(self, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(0)
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "short.wav",
                      AudioBuffer(rng.uniform(-0.5, 0.5, TINY_SR // 2), TINY_SR))
        ds = ingest_corpus(root, TINY_STFT, FeatureConfig(),
                           sample_rate=TINY_SR, segment_seconds=30.0)
        assert ds.n == 2

    def test_empty_category_named_in_error(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "full").mkdir(parents=True)
        write_wav(root / "full" / "a.wav", AudioBuffer(np.zeros(TINY_SR), TINY_SR))
        (root / "hollow").mkdir()
        with pytest.raises(EmptyCorpusError, match="hollow"):
            ingest_corpus(root, TINY_STFT, sample_rate=TINY_SR)

    def test_no_categories(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        with pytest.raises(EmptyCorpusError):
            ingest_corpus(root)

    def test_non_wav_skipped_with_warning(self, tmp_path, caplog):
        root = tmp_path / "corpus"
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "a.wav",
                      AudioBuffer(np.zeros(TINY_SR), TINY_SR))
        (root / "one" / "notes.txt").write_text("not audio")
        with caplog.at_level("WARNING"):
            ds = ingest_corpus(root, TINY_STFT, sample_rate=TINY_SR,
                               segment_seconds=TINY_SECONDS)
        assert ds.n == 2
        assert any("notes.txt" in r.message for r in caplog.records)

    def test_error_carries_file_context(self, tmp_path):
        root = tmp_path / "corpus"
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "a.wav", AudioBuffer(np.zeros(TINY_SR), TINY_SR))
        (root / "one" / "broken.wav").write_bytes(b"RIFX garbage")
        with pytest.raises(Exception, match="broken.wav"):
            ingest_corpus(root, TINY_STFT, sample_rate=TINY_SR)


def _blas_thread_counts(_job) -> list[int]:
    return list(blas.thread_counts().values())


needs_openblas = pytest.mark.skipif(
    not blas.loaded_openblas(),
    reason="no OpenBLAS loaded in this process, so there is no thread count to pin")


@pytest.fixture
def two_blas_threads():
    """The caller's BLAS at two threads (whatever the core count), restored after."""
    libs = blas.loaded_openblas()
    before = [lib.threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    yield libs
    for lib, n in zip(libs, before):
        lib.set_threads(n)


class TestMapPerFile:
    def test_pool_logs_whether_blas_thread_limit_applies(self, caplog):
        with caplog.at_level("DEBUG", logger="wrice.dataset"):
            assert map_per_file(abs, [-1, -2], workers=2) == [1, 2]
        assert any("BLAS thread limit" in r.getMessage() for r in caplog.records)

    @needs_openblas
    @pytest.mark.parametrize("workers", [1, 2])
    def test_log_reads_back_one_thread(self, workers, caplog):
        with caplog.at_level("DEBUG", logger="wrice.dataset"):
            map_per_file(abs, [-1, -2], workers=workers)
        line = next(r.getMessage() for r in caplog.records
                    if "BLAS thread limit" in r.getMessage())
        assert "reads back 1 thread(s)" in line
        assert "reads back 2" not in line

    @needs_openblas
    def test_pool_workers_run_with_one_blas_thread(self, two_blas_threads):
        per_job = map_per_file(_blas_thread_counts, range(4), workers=2)
        assert per_job == [[1] * len(two_blas_threads)] * 4

    @needs_openblas
    def test_in_process_run_pins_then_restores_the_callers_threads(self, two_blas_threads):
        per_job = map_per_file(_blas_thread_counts, range(2), workers=1)
        assert per_job == [[1] * len(two_blas_threads)] * 2
        assert [lib.threads() for lib in two_blas_threads] == [2] * len(two_blas_threads)
