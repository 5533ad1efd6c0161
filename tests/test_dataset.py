"""Corpus ingestion, splitting, scaling, and CSV persistence."""

import json
import os
import pickle
import re
import tracemalloc
import wave
from dataclasses import replace

import numpy as np
import pytest

from conftest import TINY_EX, TINY_SR, fresh_python, noise_buffer, wav_bytes, whole_file_rows
from wrice import dataset
from wrice.audio_io import AudioBuffer, read_wav, write_wav
from wrice.dataset import (Extraction, LabeledDataset, Scaler, add_noise_into,
                           check_noise_scale, check_no_stale_wavs, corpus_labels,
                           corpus_rows, file_rows, fit_scaler, ingest_corpus, map_per_file,
                           noise_rng, pool_size, read_features_csv, scale_rows,
                           stratified_split, write_features_csv)
from wrice.errors import (ClassTooSmallError, DuplicateLabelError, EmptyCorpusError,
                          MalformedWavError, NonFiniteError, SchemaMismatchError)
from wrice.dsp import BLOCK_FRAMES, StftConfig
from wrice.features import N_FEATURES, N_MELS, SCHEMA_VERSION, extract_features


def make_dataset(counts, d=26, seed=0, extraction=Extraction()):
    rng = np.random.default_rng(seed)
    features, labels, paths = [], [], []
    names = sorted(counts)
    for label_id, name in enumerate(names):
        for i in range(counts[name]):
            features.append(rng.normal(size=d))
            labels.append(label_id)
            paths.append(f"{name}/{name}_{i:03d}.wav")
    return LabeledDataset(features=np.array(features), labels=np.array(labels),
                          label_map=names, source_paths=paths, extraction=extraction)


class TestCorpusLabels:
    def test_sorted_ids(self, tmp_path):
        for name in ("wet_60", "dry_40", "wet_40", "dry_60"):
            (tmp_path / name).mkdir()
        (tmp_path / "notes.txt").write_text("a file is not a category")
        out = corpus_labels(tmp_path)
        assert out == ["dry_40", "dry_60", "wet_40", "wet_60"]
        assert out.index("dry_40") == 0 and out.index("wet_60") == 3

    def test_empty(self, tmp_path):
        with pytest.raises(EmptyCorpusError, match="no category subdirectories"):
            corpus_labels(tmp_path)


class TestCheckNoStaleWavs:
    def test_a_wav_the_run_would_not_overwrite_is_named(self, tmp_path):
        # in any case of its suffix, as `corpus_files` reads it; the first in
        # sorted order is named, and nothing is deleted
        (tmp_path / "a").mkdir()
        for name in ("a_000.wav", "a_002.WAV", "a_003.wav", "notes.txt"):
            (tmp_path / "a" / name).write_bytes(b"old")
        targets = [tmp_path / "a" / "a_000.wav", tmp_path / "a" / "a_001.wav"]
        stale = re.escape(str(tmp_path / "a" / "a_002.WAV"))
        with pytest.raises(ValueError, match=f"^{stale}: a WAV that this run would not "
                                             "overwrite"):
            check_no_stale_wavs(targets)
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "a_000.wav", "a_002.WAV", "a_003.wav", "notes.txt"]

    def test_targets_others_and_new_directories_pass(self, tmp_path):
        # a directory the run does not write into is not looked at
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
        (tmp_path / "a" / "a_000.wav").write_bytes(b"old")
        (tmp_path / "a" / "notes.txt").write_bytes(b"old")
        (tmp_path / "b" / "b_000.wav").write_bytes(b"old")
        check_no_stale_wavs([tmp_path / "a" / "a_000.wav", tmp_path / "c" / "c_000.wav"])
        check_no_stale_wavs([])

    def test_folders_the_run_writes_nothing_into_are_looked_at(self, tmp_path):
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
        (tmp_path / "a" / "notes.txt").write_bytes(b"old")
        (tmp_path / "b" / "b_000.wav").write_bytes(b"old")
        check_no_stale_wavs([], folders=[tmp_path / "a", tmp_path / "c"])
        stale = re.escape(str(tmp_path / "b" / "b_000.wav"))
        with pytest.raises(ValueError, match=f"^{stale}: a WAV"):
            check_no_stale_wavs([tmp_path / "a" / "a_000.wav"], folders=[tmp_path / "b"])


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

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            stratified_split(make_dataset({"a": 4, "b": 4}), 0.25, seed=-1)

    def test_both_halves_keep_the_extraction(self):
        ex = Extraction(11025, 1.5, StftConfig(frame_len=1024, hop=256), n_mels=40)
        train, test = stratified_split(make_dataset({"a": 5, "b": 5}, extraction=ex),
                                       0.2, seed=0)
        assert train.extraction == ex and test.extraction == ex


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
                            label_map=["x"], source_paths=[f"x/{i}.wav" for i in range(10)],
                            extraction=Extraction())
        scaler = fit_scaler(ds)
        assert scaler.mean[0] == 5.0
        assert scaler.std[0] == pytest.approx(1e-12)
        assert scale_rows(scaler, features)[:, 0] == pytest.approx(0.0)

    def test_apply_closed_forms(self):
        scaler = Scaler(mean=np.array([1.0, 2.0]), std=np.array([2.0, 4.0]))
        scaled = scale_rows(scaler, np.array([[1.0, 2.0], [3.0, 6.0]]))
        np.testing.assert_array_equal(scaled, [[0.0, 0.0], [1.0, 1.0]])

    def test_not_idempotent(self):
        scaler = Scaler(mean=np.array([1.0]), std=np.array([2.0]))
        once = scale_rows(scaler, np.array([[5.0]]))
        twice = scale_rows(scaler, once)
        assert once[0, 0] != twice[0, 0]

    def test_width_mismatch(self):
        scaler = Scaler(mean=np.zeros(26), std=np.ones(26))
        with pytest.raises(SchemaMismatchError):
            scale_rows(scaler, np.zeros((3, 25)))

    def test_too_few_rows(self):
        ds = make_dataset({"a": 2, "b": 2}).subset([0])
        with pytest.raises(ValueError):
            fit_scaler(ds)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = make_dataset({"a": 5, "b": 4}, seed=11)
        path = tmp_path / "feats.csv"
        write_features_csv(ds, path)
        back = read_features_csv(path)
        assert back.label_map == ds.label_map
        assert back.source_paths == ds.source_paths
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)
        assert back.extraction == Extraction()

    def test_the_extraction_is_a_required_field(self):
        ds = make_dataset({"a": 2, "b": 2})
        with pytest.raises(TypeError, match="extraction"):
            LabeledDataset(features=ds.features, labels=ds.labels, label_map=ds.label_map,
                           source_paths=ds.source_paths)

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
        path = tmp_path / "short.csv"
        write_features_csv(make_dataset({"a": 3, "b": 3}), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rpartition(",")[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaMismatchError, match="line 3: row with 27 columns"):
            read_features_csv(path)

    def test_row_label_missing_from_the_label_map_names_path_and_line(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        path.write_text(path.read_text().replace("\nb/b_000.wav,b,", "\nb/b_000.wav,c,", 1))
        with pytest.raises(SchemaMismatchError, match="line 5: label 'c' not in label map"):
            read_features_csv(path)

    def test_duplicate_label_map_names_the_csv(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        path.write_text(path.read_text().replace(" label_map=a|b ", " label_map=a|b|a ", 1))
        with pytest.raises(DuplicateLabelError, match="duplicate category names") as info:
            read_features_csv(path)
        assert str(path) in str(info.value)

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
                           source_paths=ds.source_paths, extraction=ds.extraction)
        path = tmp_path / "feats.csv"
        write_features_csv(ds, path)
        path.write_text(path.read_text().replace(format(ds.features[1, 3], ".17g"),
                                                 str(bad), 1))
        with pytest.raises(NonFiniteError, match="NaN or Inf") as info:
            read_features_csv(path)
        assert str(path) in str(info.value)


class TestExtraction:
    def test_defaults(self):
        assert Extraction() == Extraction(22050, 30.0, StftConfig(), 128)

    def test_meta_keys_in_file_order(self):
        ex = Extraction(11025, 1.5, StftConfig(frame_len=1024, hop=256), n_mels=40)
        assert list(ex.meta().items()) == [
            ("sr", 11025), ("frame", 1024), ("hop", 256), ("window", "hann"),
            ("segment_seconds", 1.5), ("n_mfcc", 20), ("n_mels", 40)]

    def test_picklable(self):
        assert pickle.loads(pickle.dumps(TINY_EX)) == TINY_EX

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 0}, {"sample_rate": -22050},
        {"segment_seconds": 0.0}, {"segment_seconds": -1.5},
        {"segment_seconds": float("nan")}, {"segment_seconds": float("inf")},
        {"segment_seconds": 0.05},
        {"segment_seconds": 1.0, "sample_rate": 1023, "stft": StftConfig(1024, 256)},
        {"n_mels": 19},
    ], ids=["rate-zero", "rate-negative", "segment-zero", "segment-negative",
            "segment-nan", "segment-inf", "segment-shorter-than-a-frame",
            "segment-one-sample-short-of-a-frame", "fewer-mels-than-mfccs"])
    def test_non_positive_rate_or_segment_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            Extraction(**kwargs)

    def test_a_segment_of_exactly_one_frame_is_accepted(self):
        assert Extraction(1024, 1.0, StftConfig(frame_len=1024, hop=256)).sample_rate == 1024

    # the settings that the meta does not record are constants of `features`,
    # so no extraction can carry another value of them into a CSV
    @pytest.mark.parametrize("field,value", [
        ("rolloff_pct", 0.9), ("bandwidth_order", 3), ("fmin", 20.0), ("fmax", 8000.0),
        ("log_floor", 1e-8),
    ])
    def test_csv_refuses_settings_its_meta_cannot_record(self, tmp_path, field, value):
        with pytest.raises(TypeError, match=field):
            Extraction(**{field: value})
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        assert f" {field}=" not in path.read_text().partition("\n")[0]

    # a 6-column dataset once wrote a meta `n_mfcc=0` that its reader refused
    @pytest.mark.parametrize("d", [6, 19, 27])
    def test_csv_refuses_a_width_other_than_the_schemas(self, tmp_path, d):
        path = tmp_path / "feats.csv"
        with pytest.raises(ValueError, match=f": {d} feature columns, the schema has 26"):
            write_features_csv(make_dataset({"a": 2, "b": 2}, d=d), path)
        assert not path.exists()

    def test_read_back_from_the_csv(self, tmp_path):
        ex = Extraction(11025, 1.5, StftConfig(frame_len=1024, hop=256), n_mels=40)
        path = tmp_path / "feats.csv"
        ds = make_dataset({"a": 2, "b": 2}, extraction=ex)
        write_features_csv(ds, path)
        back = read_features_csv(path)
        assert back.extraction == ex
        assert path.read_text().partition("\n")[0] == (
            f"# wrice-features schema_version={SCHEMA_VERSION} label_map=a|b sr=11025 "
            "frame=1024 hop=256 "
            "window=hann segment_seconds=1.5 n_mfcc=20 n_mels=40")
        np.testing.assert_array_equal(back.features, ds.features)

    # each edit leaves every value that the meta line records parseable and
    # in range, so only the comparison with the line wrice writes refuses it
    @pytest.mark.parametrize("edit,match", [
        *[pytest.param(lambda line, key=key: re.sub(rf" {key}=\S+", "", line),
                       f"meta line has no {key}=", id=f"no-{key}")
          for key in ("schema_version", "label_map", "sr", "frame", "hop", "window",
                      "segment_seconds", "n_mfcc", "n_mels")],
        pytest.param(lambda line: line.replace(" n_mfcc=", " extra=1 n_mfcc=", 1),
                     "not the meta line that wrice writes", id="extra-key"),
        pytest.param(lambda line: line.replace(" hop=512", " hop=512 hop=512", 1),
                     "not the meta line that wrice writes", id="repeated-key"),
        pytest.param(lambda line: line.replace(" frame=2048 hop=512", " hop=512 frame=2048", 1),
                     "not the meta line that wrice writes", id="reordered-keys"),
        pytest.param(lambda line: line.replace(" frame=2048", " frame=02048", 1),
                     "not the meta line that wrice writes", id="leading-zero"),
        pytest.param(lambda line: line.replace("# wrice-features", "#wrice-features", 1),
                     "line 1 is not a `# wrice-features` meta line", id="no-prefix"),
    ])
    def test_meta_line_other_than_wrices_is_refused(self, tmp_path, edit, match):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        meta, _, rest = path.read_text().partition("\n")
        edited = edit(meta)
        assert edited != meta
        path.write_text(edited + "\n" + rest)
        with pytest.raises(SchemaMismatchError, match=match) as info:
            read_features_csv(path)
        assert str(path) in str(info.value)

    def test_a_second_meta_line_is_refused(self, tmp_path):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        meta, _, rest = path.read_text().partition("\n")
        path.write_text(f"{meta}\n{meta}\n{rest}")
        with pytest.raises(SchemaMismatchError, match="line 2: header does not match") as info:
            read_features_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("token,match", [
        ("sr=abc", "meta sr=abc: invalid literal"),
        ("n_mels=x", "meta n_mels=x: invalid literal"),
        ("n_mels=19", "meta out of range: n_mels must be at least n_mfcc=20, got 19"),
        ("n_mfcc=13", "meta n_mfcc=13: the only n_mfcc is 20"),
        ("n_mfcc=twenty", "meta n_mfcc=twenty: invalid literal"),
        ("segment_seconds=0", "meta out of range: segment_seconds must be positive"),
        ("hop=0", r"meta out of range: hop must be in \(0, frame_len\]"),
        ("frame=1000", "meta out of range: frame_len must be a power of two >= 2, got 1000"),
        ("window=rectangular", "meta window=rectangular: the only window is hann"),
    ], ids=["sr-not-a-number", "n-mels-not-a-number", "n-mels-below-n-mfcc", "n-mfcc-not-20",
            "n-mfcc-not-a-number", "segment-zero", "hop-zero",
            "frame-not-a-power-of-two", "window-not-hann"])
    def test_bad_meta_value_names_the_csv(self, tmp_path, token, match):
        path = tmp_path / "feats.csv"
        write_features_csv(make_dataset({"a": 2, "b": 2}), path)
        key = token.partition("=")[0]
        path.write_text(re.sub(rf" {key}=\S+", f" {token}", path.read_text(), count=1))
        with pytest.raises(SchemaMismatchError, match=match) as info:
            read_features_csv(path)
        assert str(path) in str(info.value)

    # the label map is one `|`-joined token of a whitespace-split meta line
    @pytest.mark.parametrize("label", ["dry 40", "dry\t40", "dry|40"])
    def test_csv_refuses_a_label_its_meta_cannot_carry(self, tmp_path, label):
        path = tmp_path / "feats.csv"
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_features_csv(make_dataset({"a": 2, label: 2}), path)
        assert not path.exists()


class TestIngest:
    def test_tiny_corpus_row_per_file(self, tiny_corpus, tiny_dataset):
        assert tiny_dataset.n == 16
        assert tiny_dataset.label_map == ["dry_40", "dry_60", "wet_40", "wet_60"]
        assert list(tiny_dataset.class_counts()) == [4, 4, 4, 4]
        assert all(p.endswith(".wav") for p in tiny_dataset.source_paths)

    def test_worker_count_does_not_change_the_dataset(self, tiny_corpus):
        serial, pooled = (ingest_corpus(tiny_corpus, TINY_EX, workers=workers)
                          for workers in (1, 2))
        assert np.array_equal(serial.features, pooled.features)
        assert np.array_equal(serial.labels, pooled.labels)
        assert serial.source_paths == pooled.source_paths

    def test_worker_count_does_not_change_realistic_size_features(self, realistic_corpus):
        serial, pooled = (ingest_corpus(realistic_corpus, workers=workers)
                          for workers in (1, 2))
        assert np.array_equal(serial.features, pooled.features)

    def test_a_stereo_24bit_copy_gives_the_same_rows(self, tiny_corpus, tiny_dataset,
                                                     tmp_path):
        # both channels of each frame are the 16-bit source sample times 256:
        # (a + a) / 2 = a and v * 256 / 2^23 = v / 2^15 exactly, so the mixdown
        # is the source's mono buffer bit for bit. The copy is written with the
        # standard library, not with wrice's own writer
        copy = tmp_path / "stereo24"
        for src in sorted(tiny_corpus.rglob("*.wav")):
            with wave.open(str(src), "rb") as fh:
                assert (fh.getnchannels(), fh.getsampwidth()) == (1, 2)
                rate = fh.getframerate()
                vals = np.frombuffer(fh.readframes(fh.getnframes()), "<i2")
            ints = np.repeat(vals.astype("<i4") * 256, 2)
            frames = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
            target = copy / src.relative_to(tiny_corpus)
            target.parent.mkdir(parents=True, exist_ok=True)
            with wave.open(str(target), "wb") as fh:
                fh.setnchannels(2)
                fh.setsampwidth(3)
                fh.setframerate(rate)
                fh.writeframes(frames)
        stereo = ingest_corpus(copy, TINY_EX)
        assert stereo.n == tiny_dataset.n
        assert np.array_equal(stereo.features, tiny_dataset.features)
        assert np.array_equal(stereo.labels, tiny_dataset.labels)

    def test_long_file_contributes_row_per_segment(self, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(0)
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "long.wav",
                      AudioBuffer(rng.uniform(-0.5, 0.5, TINY_SR * 3), TINY_SR))
        ds = ingest_corpus(root, replace(TINY_EX, segment_seconds=1.0))
        assert ds.n == 6
        assert ds.source_paths[0] == ds.source_paths[1] == ds.source_paths[2]

    def test_short_file_contributes_whole_file_row(self, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(0)
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "short.wav",
                      AudioBuffer(rng.uniform(-0.5, 0.5, TINY_SR // 2), TINY_SR))
        ds = ingest_corpus(root, replace(TINY_EX, segment_seconds=30.0))
        assert ds.n == 2

    @pytest.mark.parametrize("seconds,n_rows", [(3.0, 3), (2.05, 2), (0.5, 1)],
                             ids=["three-whole-segments", "trailing-partial-dropped",
                                  "shorter-than-a-segment"])
    def test_a_file_gives_one_row_per_whole_segment(self, tmp_path, seconds, n_rows):
        path = tmp_path / "a.wav"
        rng = np.random.default_rng(0)
        write_wav(path, AudioBuffer(rng.uniform(-0.5, 0.5, int(seconds * TINY_SR)), TINY_SR))
        [rows] = file_rows(path, replace(TINY_EX, segment_seconds=1.0))
        assert rows.shape == (n_rows, N_FEATURES)

    def test_empty_category_named_in_error(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "full").mkdir(parents=True)
        write_wav(root / "full" / "a.wav", AudioBuffer(np.zeros(TINY_SR), TINY_SR))
        (root / "hollow").mkdir()
        with pytest.raises(EmptyCorpusError, match="hollow"):
            ingest_corpus(root, TINY_EX)

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
            ds = ingest_corpus(root, TINY_EX)
        assert ds.n == 2
        assert any("notes.txt" in r.message for r in caplog.records)

    def test_error_carries_file_context(self, tmp_path):
        root = tmp_path / "corpus"
        for cat in ("one", "two"):
            (root / cat).mkdir(parents=True)
            write_wav(root / cat / "a.wav", AudioBuffer(np.zeros(TINY_SR), TINY_SR))
        (root / "one" / "broken.wav").write_bytes(b"RIFX garbage")
        with pytest.raises(Exception, match="broken.wav"):
            ingest_corpus(root, TINY_EX)


@pytest.fixture(scope="module")
def two_and_one(tmp_path_factory):
    """A corpus of a 3.2 s file (two 1.5 s segments) and a 1 s file (one
    whole-file row), in path order."""
    root = tmp_path_factory.mktemp("rows") / "corpus"
    rng = np.random.default_rng(8)
    paths = []
    for cat, seconds in (("one", 3.2), ("two", 1.0)):
        (root / cat).mkdir(parents=True)
        paths.append(root / cat / f"{cat}.wav")
        write_wav(paths[-1], AudioBuffer(rng.uniform(-0.5, 0.5, int(TINY_SR * seconds)),
                                         TINY_SR))
    return root, paths


def noised(samples, scale: float, seed) -> np.ndarray:
    """`samples` plus `scale` times the draws of `default_rng(seed)`, by the
    kernel that `file_rows` and `augment` run, after the scale check they
    make first."""
    check_noise_scale(scale)
    out = np.empty(len(samples))
    add_noise_into(out, samples, scale, np.random.default_rng(seed))
    return out


class TestAddNoise:
    def test_scale_zero_is_identity(self):
        samples = np.linspace(-0.5, 0.5, 100)
        np.testing.assert_array_equal(noised(samples, 0.0, seed=1), samples)

    def test_sample_std_tracks_scale(self):
        out = noised(np.zeros(1_000_000), 0.5, seed=2)
        assert abs(out.std() - 0.5) / 0.5 < 0.01

    def test_same_seed_same_noise(self):
        a = noised(np.zeros(64), 0.1, seed=3)
        b = noised(np.zeros(64), 0.1, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_additive_linearity(self):
        signal = np.sin(np.arange(128))
        only_noise = noised(np.zeros(128), 0.2, seed=4)
        noisy = noised(signal, 0.2, seed=4)
        np.testing.assert_allclose(noisy - signal, only_noise, atol=1e-15)

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            check_noise_scale(-0.1)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            check_noise_scale(scale)

    def test_equals_samples_plus_scaled_normal_draws(self):
        # the noisy samples are built in place from the draws; IEEE addition
        # and multiplication commute, so they equal the plain expression bit
        # for bit
        samples = np.random.default_rng(5).uniform(-1, 1, 4096)
        seed = np.random.SeedSequence([5, 1, 2])
        want = samples + 0.05 * np.random.default_rng(seed).standard_normal(samples.size)
        assert np.array_equal(noised(samples, 0.05, seed), want)
        assert np.array_equal(samples, np.random.default_rng(5).uniform(-1, 1, 4096))


class TestFileRows:
    def test_rows_are_the_ingested_rows_of_the_file(self, two_and_one):
        root, paths = two_and_one
        ds = ingest_corpus(root, TINY_EX, workers=1)
        for path, n_rows in zip(paths, (2, 1)):
            [rows] = file_rows(path, TINY_EX)
            assert rows.shape == (n_rows, N_FEATURES)
            mine = [p == str(path) for p in ds.source_paths]
            assert np.array_equal(rows, ds.features[mine])

    def test_corpus_rows_owner_is_the_path_index_of_each_row(self, two_and_one):
        _, paths = two_and_one
        [rows], owner = corpus_rows(paths, TINY_EX, workers=1)
        assert owner.tolist() == [0, 0, 1]
        assert rows.shape == (3, N_FEATURES)

    @pytest.mark.parametrize("scales,n_paths", [((), 2), ((None,), 0)])
    def test_corpus_rows_needs_a_scale_and_a_path(self, two_and_one, scales, n_paths):
        _, paths = two_and_one
        with pytest.raises(ValueError, match="need a scale and a path"):
            corpus_rows(paths[:n_paths], TINY_EX, scales, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_file_of_each_scale_is_its_file_rows(self, two_and_one, workers):
        _, paths = two_and_one
        scales = (None, 0.5, 0.05)
        per_scale, owner = corpus_rows(paths, TINY_EX, scales, seed=9, workers=workers)
        assert len(per_scale) == len(scales)
        for i, path in enumerate(paths):
            want = file_rows(path, TINY_EX, scales, seed=9, file_idx=i)
            for got, rows in zip(per_scale, want):
                assert np.array_equal(got[owner == i], rows)
        assert not np.array_equal(per_scale[0], per_scale[1])

    # refused before the (missing) file is opened or a pool starts, naming
    # the seed rather than blaming a WAV with numpy's message
    @pytest.mark.parametrize("entry", ["file_rows", "corpus_rows"])
    def test_a_negative_seed_is_refused_before_any_file_is_opened(self, tmp_path, entry):
        missing = tmp_path / "missing.wav"
        call = {"file_rows": lambda: file_rows(missing, TINY_EX, (0.5,), seed=-1),
                "corpus_rows": lambda: corpus_rows([missing], TINY_EX, (0.5,), seed=-1,
                                                   workers=2)}[entry]
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            call()

    # refused before the (missing) file is opened, naming the index rather
    # than blaming a WAV with numpy's message
    def test_a_negative_file_index_is_refused_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(ValueError, match="^file_idx must be at least 0, got -1$"):
            file_rows(tmp_path / "missing.wav", TINY_EX, (0.5,), 0, -1)

    @pytest.mark.parametrize("seed,scale_index,file_idx", [(0, 0, 0), (9, 1, 3), (42, 3, 7),
                                                           (2**40, 0, 227)])
    def test_noise_rng_is_the_seed_sequence_of_the_three(self, seed, scale_index, file_idx):
        want = np.random.default_rng(np.random.SeedSequence([seed, scale_index, file_idx]))
        assert np.array_equal(noise_rng(seed, scale_index, file_idx).standard_normal(1000),
                              want.standard_normal(1000))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_a_segment_of_non_finite_features_names_the_file(self, two_and_one):
        # a noise scale so large that the power overflows
        _, paths = two_and_one
        with pytest.raises(ValueError, match=f"^{re.escape(str(paths[1]))}: feature values "
                                             "contain NaN or Inf$"):
            file_rows(paths[1], TINY_EX, (None, 1e300))

    def test_noise_is_seeded_by_the_file_index(self, two_and_one):
        _, paths = two_and_one
        first, other = (file_rows(paths[0], TINY_EX, (0.5,), seed=9, file_idx=i)[0]
                        for i in (0, 1))
        assert not np.array_equal(first, other)

    def test_peak_memory_at_four_scales_of_a_thirty_second_file(self, realistic_corpus):
        path = sorted(realistic_corpus.glob("*/*.wav"))[0]
        assert_streamed_peak(path)

    def test_peak_memory_at_four_scales_of_a_five_minute_file(self, realistic_corpus,
                                                              tmp_path):
        # the 30 s file's samples (after write_wav's 44-byte header) ten times
        # over: one bound for both lengths
        source = sorted(realistic_corpus.glob("*/*.wav"))[0]
        path = tmp_path / "five_minutes.wav"
        path.write_bytes(wav_bytes(source.read_bytes()[44:] * 10, sample_rate=22050))
        assert_streamed_peak(path)


def assert_streamed_peak(path):
    """The tracemalloc peak of `file_rows` at four scales is a constant
    number of block-sized buffers, whatever the file's length: twice the
    spectrum buffers of one block (windowed frames, complex spectrum,
    magnitudes, power) and one block of samples per scale and for the clean
    signal. Decoding, resampling and noising a whole file first needed 13.9
    MiB at 30 s and 107 MiB at 300 s."""
    ex = Extraction()
    scales = (None, 0.5, 0.05, 0.005)
    n = ex.stft.frame_len
    spectra = BLOCK_FRAMES * (8 * n + (16 + 8 + 8) * (n // 2 + 1))
    samples = 8 * ((BLOCK_FRAMES - 1) * ex.stft.hop + n)
    bound = 2 * spectra + (len(scales) + 1) * samples
    file_rows(path, ex, scales)  # caches filled before tracing
    tracemalloc.start()
    try:
        file_rows(path, ex, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


# analysis segments of 2.5 s at 11025 Hz hold 104 frames of 1024 at hop 256,
# so each is two blocks that share samples
STREAM_EX = Extraction(TINY_SR, 2.5, StftConfig(frame_len=1024, hop=256))
STREAM_SCALES = (None, 0.0, 0.5, 0.005)
ENCODINGS = {"int16": (1, 16), "int24": (1, 24), "int32": (1, 32), "float32": (3, 32)}


def write_encoded(path, samples, encoding, sample_rate):
    """A WAV of the (frames, channels) `samples` in one of ENCODINGS."""
    format_tag, bits = ENCODINGS[encoding]
    if format_tag == 3:
        payload = samples.astype("<f4").tobytes()
    else:
        scale = 2 ** (bits - 1)
        ints = np.clip(np.rint(samples * scale), -scale, scale - 1).astype("<i4")
        payload = (ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes() if bits == 24
                   else ints.astype(f"<i{bits // 8}").tobytes())
    path.write_bytes(wav_bytes(payload, format_tag, samples.shape[1], sample_rate, bits))
    return path


def tone_and_noise(seconds, sample_rate, channels, seed=0):
    """Noise over a tone, so that every feature family has something to see."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    tone = 0.3 * np.sin(2 * np.pi * 440.0 * np.arange(n) / sample_rate)
    return tone[:, None] + rng.uniform(-0.4, 0.4, (n, channels))


class TestStreamedRows:
    """`file_rows` streams each file one block of frames at a time; its rows
    must equal `whole_file_rows`, the whole-buffer oracle, bit for bit."""

    @pytest.mark.parametrize("rate", [44100, 48000, 16000, TINY_SR])
    @pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    @pytest.mark.parametrize("seconds,n_rows", [(1.2, 1), (6.0, 2)],
                             ids=["shorter-than-a-segment", "segments-and-a-partial"])
    def test_rows_equal_the_whole_file_oracle(self, tmp_path, seconds, n_rows, encoding,
                                              channels, rate):
        path = write_encoded(tmp_path / "in.wav", tone_and_noise(seconds, rate, channels),
                             encoding, rate)
        got = file_rows(path, STREAM_EX, STREAM_SCALES, seed=9, file_idx=3)
        want = whole_file_rows(path, STREAM_EX, STREAM_SCALES, 9, 3)
        assert len(got) == len(want) == len(STREAM_SCALES)
        for rows, oracle in zip(got, want):
            assert rows.shape == (n_rows, N_FEATURES)
            assert np.array_equal(rows, oracle)
        assert np.array_equal(got[0], got[1])  # a 0 scale is the clean audio
        assert not np.array_equal(got[0], got[2])

    @pytest.mark.parametrize("hop", [300, 1024], ids=["hop-300", "hop-equals-frame"])
    def test_hops_that_do_not_divide_the_frame_or_share_no_samples(self, tmp_path, hop):
        ex = replace(STREAM_EX, stft=StftConfig(frame_len=1024, hop=hop))
        path = write_encoded(tmp_path / "in.wav", tone_and_noise(9.0, 22050, 2), "int24", 22050)
        got = file_rows(path, ex, STREAM_SCALES, seed=2, file_idx=0)
        for rows, oracle in zip(got, whole_file_rows(path, ex, STREAM_SCALES, 2, 0)):
            assert rows.shape[0] == 3 and np.array_equal(rows, oracle)

    def test_default_extraction_of_a_thirty_second_file(self, realistic_corpus):
        # 1,288 frames in 21 blocks
        path = sorted(realistic_corpus.glob("*/*.wav"))[1]
        scales = (None, 0.5, 0.05, 0.005)
        got = file_rows(path, Extraction(), scales, seed=42, file_idx=7)
        for rows, oracle in zip(got, whole_file_rows(path, Extraction(), scales, 42, 7)):
            assert np.array_equal(rows, oracle)

    @pytest.mark.parametrize("damage,error,message", [
        ("not-riff", MalformedWavError, "not a RIFF/WAVE file"),
        ("truncated", MalformedWavError, "chunk b'data' truncated"),
        ("nan-in-the-second-segment", NonFiniteError, "samples contain NaN or Inf"),
        ("nan-after-the-last-segment", NonFiniteError, "samples contain NaN or Inf"),
        ("shorter-than-a-frame", ValueError, "buffer too short for one frame (500 < 1024)"),
    ])
    def test_bad_files_fail_as_the_whole_file_decoder_does(self, tmp_path, damage, error,
                                                           message):
        samples = tone_and_noise(6.0, TINY_SR, 1)
        if damage.startswith("nan"):
            samples[int((3.0 if "second" in damage else 5.5) * TINY_SR), 0] = np.nan
        if damage == "shorter-than-a-frame":
            samples = samples[:500]
        path = write_encoded(tmp_path / "bad.wav", samples, "float32", TINY_SR)
        raw = path.read_bytes()
        if damage == "not-riff":
            path.write_bytes(b"RIFX" + raw[4:])
        elif damage == "truncated":
            path.write_bytes(raw[:-100])
        with pytest.raises(error) as info:
            file_rows(path, STREAM_EX, STREAM_SCALES)
        assert str(info.value) == f"{path}: {message}"
        if error is not ValueError:  # the decoder's own error, raised as it is
            with pytest.raises(error, match=re.escape(str(info.value))):
                read_wav(path)


_THREAD_MODEL_CONFIGS = [
    (StftConfig(), N_MELS),
    (StftConfig(frame_len=16384, hop=4096), 512),
]


def _threads_after_extraction(_job) -> list[int]:
    """This process's thread count after extracting a 30 s buffer at each config."""
    buf = noise_buffer(seconds=30.0)
    counts = []
    for stft_cfg, n_mels in _THREAD_MODEL_CONFIGS:
        extract_features(buf, stft_cfg, n_mels)
        counts.append(len(os.listdir("/proc/self/task")))
    return counts


class TestMapPerFile:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task to count this process's threads")
    def test_pool_workers_extract_on_one_thread(self):
        per_job = map_per_file(_threads_after_extraction, range(4), workers=2)
        assert per_job == [[1] * len(_THREAD_MODEL_CONFIGS)] * 4

    def test_the_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        # the affinity mask, not the machine's CPU count: under `taskset -c 0`
        # on two CPUs a pool of two would share one CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started on one CPU")

        monkeypatch.setattr(dataset, "ProcessPoolExecutor", no_pool)
        assert pool_size(None) == 1
        assert map_per_file(abs, [-1, 2, -3], None) == [1, 2, 3]

    def test_the_default_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pool_size(None) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(None) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            map_per_file(abs, [-1, 2], workers)


# A script prefix: `dataset.map_per_file` runs each job through `checked`,
# which returns the job's result with the worker's pid and the modules the
# job added to `sys.modules`, plus "projector" if it built a mel or chroma
# projector; the script prints its own pid, then those
_IMPORTS_PER_JOB = """\
import functools, json, os, sys
from wrice import dataset, features

def builds():
    return [f.cache_info().misses for f in (features.mel_projector, features.chroma_projector)]

def checked(fn, job):
    before, built = set(sys.modules), builds()
    result = fn(job)
    added = sorted(set(sys.modules) - before) + ["projector"] * (builds() != built)
    return result, os.getpid(), added

def recorded(fn, jobs, workers):
    out = run(functools.partial(checked, fn), jobs, workers)
    print(json.dumps([[pid, added] for _, pid, added in out]))
    return [result for result, _, _ in out]

run, dataset.map_per_file = dataset.map_per_file, recorded
print(os.getpid())
"""


def test_pool_jobs_import_nothing(tmp_path):
    # each fork worker inherits what its jobs use from the parent, which
    # loads it before the pool starts: scipy.sparse and the projectors for
    # extraction, numpy.fft, and numpy.random for synthesis and noise. Each
    # step runs in a fresh interpreter, so nothing is loaded beforehand; a
    # projector cached under other arguments than the jobs' would be rebuilt
    steps = [
        "from wrice.synth import synth_corpus; synth_corpus(sys.argv[1], "
        "counts={'dry_40': 2, 'wet_60': 2}, sample_rate=11025, seed=1, duration_s=1.5, "
        "workers=2)",
        "from wrice.dsp import StftConfig; "
        "dataset.corpus_rows([p for p, _ in dataset.corpus_files(sys.argv[1])[1]], "
        "dataset.Extraction(11025, 1.5, StftConfig(1024, 256)), (None, 0.05), workers=2)",
    ]
    for step in steps:
        done = fresh_python("-c", _IMPORTS_PER_JOB + step, tmp_path / "corpus")
        assert done.returncode == 0, done.stderr
        parent, per_job = map(json.loads, done.stdout.splitlines())
        assert len(per_job) == 4
        assert all(pid != parent for pid, _ in per_job)  # the jobs ran in workers
        assert [added for _, added in per_job] == [[]] * 4, step
