"""End-to-end CLI behavior: workflow, exit codes, artifact determinism."""

import inspect
import json
import shutil
import struct
import textwrap
import wave
from pathlib import Path

import numpy as np
import pytest

from conftest import (MODEL_V2, RESPELT_HEADERS, edit_model_header, fresh_python,
                      interp_resample, magnitudes, traced_peak, wav_bytes, whole_file_rows)
from wrice import audio_io, cli, dataset, mlp, synth
from wrice.audio_io import MAX_WAV_RATE, AudioBuffer, WavReader, read_wav, write_wav
from wrice.cli import run
from wrice.dataset import (Extraction, LabeledDataset, ingest_corpus, read_features_csv,
                           scale_rows, write_features_csv)
from wrice.dsp import StftConfig
from wrice.evaluation import evaluate, noise_validation
from wrice.features import SCHEMA_VERSION
from wrice.mlp import forward, layer_dims_for, load_model

SMALL = ["--sr", "11025", "--frame", "1024", "--hop", "256",
         "--segment-seconds", "1.5"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> extract -> train once; several tests read the artifacts."""
    ws = tmp_path_factory.mktemp("cli")
    corpus = ws / "corpus"
    feats = ws / "feats.csv"
    model = ws / "model.wrice"
    assert run(["synth", "--out", str(corpus), "--seed", "7", "--sr", "11025",
                "--duration", "1.5", "--counts", "4,4,4,4"]) == 0
    assert run(["extract", "--in", str(corpus), "--out", str(feats), *SMALL]) == 0
    assert run(["train", "--features", str(feats), "--out", str(model),
                "--epochs", "20", "--batch", "8", "--seed", "7",
                "--arch", "compact3"]) == 0
    return ws


class TestWorkflow:
    def test_extract_writes_all_rows(self, workspace):
        ds = read_features_csv(workspace / "feats.csv")
        assert ds.n == 16
        assert ds.features.shape == (16, 26)

    def test_eval_prints_noise_accuracies(self, workspace, capsys):
        code = run(["eval", "--model", str(workspace / "model.wrice"),
                    "--in", str(workspace / "corpus"),
                    "--noise", "0.5,0.05,0.005", "--seed", "3",
                    "--json", str(workspace / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean: accuracy" in out
        assert "noise 0.5:" in out and "noise 0.05:" in out and "noise 0.005:" in out

        doc = json.loads((workspace / "report.json").read_text())
        assert doc["format"] == "wrice-eval"
        assert [entry["noise_scale"] for entry in doc["noise"]] == [0.5, 0.05, 0.005]
        for entry in doc["noise"]:
            assert 0.0 <= entry["accuracy"] <= 1.0

    def test_predict_prints_label_and_probabilities(self, workspace, capsys):
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        code = run(["predict", "--model", str(workspace / "model.wrice"), str(wav)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] in ("dry_40", "dry_60", "wet_40", "wet_60")
        probs = [float(line.split(":")[1]) for line in lines[1:]]
        assert len(probs) == 4
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)

    def test_eval_decodes_each_file_once(self, workspace, tmp_path, monkeypatch):
        corpus = workspace / "corpus"
        model_path = workspace / "model.wrice"
        report = tmp_path / "report.json"
        opened, ranges = [], {}

        class CountingReader(WavReader):
            def __init__(self, path):
                opened.append(str(path))
                super().__init__(path)

            def read(self, start, count):
                ranges.setdefault(str(self.path), []).append((start, start + count))
                return super().read(start, count)

        monkeypatch.setattr(dataset, "WavReader", CountingReader)
        assert run(["eval", "--model", str(model_path), "--in", str(corpus),
                    "--noise", "0.5,0.005", "--seed", "4", "--json", str(report),
                    "--workers", "1"]) == 0
        assert sorted(opened) == sorted(str(p) for p in corpus.rglob("*.wav"))
        assert len(opened) == 16
        # the corpus is at the model's rate, so no frame is read twice: each
        # file's ranges follow one another, and all three scales share them
        for path in opened:
            starts, stops = zip(*ranges[path])
            assert starts[0] == 0 and list(starts[1:]) == list(stops[:-1])
            assert stops[-1] <= 1.5 * 11025

        doc = json.loads(report.read_text())
        model = load_model(model_path)
        data = ingest_corpus(corpus, model.extraction, workers=1)
        assert doc["clean"] == evaluate(model, data).to_dict()
        noisy = noise_validation(model, corpus, [0.5, 0.005], seed=4, workers=1)
        assert doc["noise"] == [r.to_dict() for r in noisy]

    def test_eval_corpus_with_a_subset_of_the_model_labels(self, workspace, tmp_path,
                                                           capsys):
        corpus = tmp_path / "three"
        for category in ("dry_40", "dry_60", "wet_40"):
            shutil.copytree(workspace / "corpus" / category, corpus / category)
        assert run(["eval", "--model", str(workspace / "model.wrice"),
                    "--in", str(corpus), "--noise", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "/12)" in out.splitlines()[0]
        assert "wet_60" in out  # the confusion matrix keeps the model's four labels

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_eval_refuses_a_bad_noise_scale_before_decoding(self, workspace, capsys,
                                                            monkeypatch, scale):
        decoded = []
        monkeypatch.setattr(dataset, "WavReader", decoded.append)
        assert run(["eval", "--model", str(workspace / "model.wrice"),
                    "--in", str(workspace / "corpus"), "--noise", scale,
                    "--workers", "1"]) == 1
        [err] = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("error: noise scale") and ".wav" not in err
        assert decoded == []

    def test_eval_unknown_category_is_domain_error(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "extra"
        shutil.copytree(workspace / "corpus", corpus)
        (corpus / "icy_40").mkdir()
        shutil.copy(next((corpus / "dry_40").glob("*.wav")), corpus / "icy_40" / "a.wav")
        assert run(["eval", "--model", str(workspace / "model.wrice"),
                    "--in", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "icy_40" in err
        assert "Traceback" not in err

    def test_predict_averages_the_segments_of_a_long_file(self, workspace, tmp_path,
                                                          capsys):
        parts = [next((workspace / "corpus" / c).glob("*.wav")) for c in ("dry_40", "wet_60")]
        wav = tmp_path / "long.wav"  # two 1.5 s analysis segments
        write_wav(wav, AudioBuffer(np.concatenate([read_wav(p).samples for p in parts]),
                                   11025))
        model_path = workspace / "model.wrice"
        assert run(["predict", "--model", str(model_path), str(wav)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()

        model = load_model(model_path)
        [rows] = whole_file_rows(wav, model.extraction, (None,), 0, 0)
        assert rows.shape[0] == 2
        per_segment = forward(model, scale_rows(model.scaler, rows))
        mean = per_segment.mean(axis=0)
        assert lines[0] == model.label_map[int(np.argmax(mean))]
        assert [line.split(":")[0].strip() for line in lines[1:5]] == model.label_map
        np.testing.assert_allclose([float(line.split(":")[1]) for line in lines[1:5]],
                                   mean, atol=1e-6)
        assert len(lines) == 7
        for i, line in enumerate(lines[5:]):
            head, _, probs = line.partition(": ")
            assert head == f"segment {i}"
            assert probs.split()[0] == model.label_map[int(np.argmax(per_segment[i]))]
            np.testing.assert_allclose([float(p.split("=")[1]) for p in probs.split()[1:]],
                                       per_segment[i], atol=1e-6)

    def test_train_bundles_the_feature_settings_of_the_csv(self, workspace, tmp_path):
        ex = Extraction(11025, 1.5, StftConfig(frame_len=1024, hop=256), n_mels=40)
        data = ingest_corpus(workspace / "corpus", ex, workers=1)
        feats, model = tmp_path / "mel40.csv", tmp_path / "mel40.wrice"
        write_features_csv(data, feats)
        assert run(["train", "--features", str(feats), "--out", str(model),
                    "--epochs", "2", "--arch", "compact3"]) == 0
        back = load_model(model)
        assert back.extraction == ex
        assert back.extraction.n_mels == 40

    def test_train_reads_its_csv_once(self, workspace, tmp_path, monkeypatch):
        feats = workspace / "feats.csv"
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert run(["train", "--features", str(feats), "--out", str(tmp_path / "m.wrice"),
                    "--epochs", "1", "--arch", "compact3"]) == 0
        assert reads.count(feats) == 1

    # a model bundles the extraction that its CSV's meta line records, so a
    # meta line that is not the one `extract` writes trains no model
    @pytest.mark.parametrize("old,new", [
        (" frame=1024 ", " "), (" hop=256 ", " hop=256 extra=1 "),
        (" frame=1024 hop=256 ", " hop=256 frame=1024 "),
        (" label_map=dry_40|dry_60|wet_40|wet_60 ", " "),
        (f"schema_version={SCHEMA_VERSION} ", ""),
        ("\n", "\n# wrice-features\n"),
    ], ids=["no-frame", "extra-key", "reordered-keys", "no-label-map", "no-schema-version",
            "second-meta-line"])
    def test_train_refuses_a_meta_line_other_than_extracts(
            self, workspace, tmp_path, capsys, old, new):
        text = (workspace / "feats.csv").read_text()
        assert old in text.splitlines(keepends=True)[0]
        feats, model = tmp_path / "feats.csv", tmp_path / "m.wrice"
        feats.write_text(text.replace(old, new, 1))
        assert run(["train", "--features", str(feats), "--out", str(model),
                    "--epochs", "1", "--arch", "compact3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {feats}: ")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not model.exists()

    def test_train_refuses_an_unclosed_quote(self, workspace, tmp_path, capsys):
        # a quote that opens a field and swallows more than csv's 128 KiB limit
        meta, header, *rows = (workspace / "feats.csv").read_text().splitlines()
        rows = rows * 30
        rows[0] = '"' + rows[0]
        feats, model = tmp_path / "feats.csv", tmp_path / "m.wrice"
        feats.write_text("\n".join([meta, header, *rows]) + "\n")
        assert feats.stat().st_size > 131072
        assert run(["train", "--features", str(feats), "--out", str(model),
                    "--epochs", "1", "--arch", "compact3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {feats}: line ") and "field larger than" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not model.exists()

    @pytest.mark.parametrize("flag", [["--in", "corpus"], ["--sr", "8000"], ["--workers", "3"]],
                             ids=["in", "sr", "workers"])
    def test_train_refuses_extraction_flags(self, workspace, tmp_path, capsys, flag):
        model = tmp_path / "m.wrice"
        assert run(["train", "--features", str(workspace / "feats.csv"), "--out", str(model),
                    "--epochs", "1", "--arch", "compact3", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("key,bad", [("sr", "abc"), ("n_mels", "x"),
                                         ("segment_seconds", "0"), ("frame", "1000"),
                                         ("n_mfcc", "13")])
    def test_train_rejects_a_bad_meta_value(self, workspace, tmp_path, capsys, key, bad):
        text = (workspace / "feats.csv").read_text()
        good = next(t for t in text.splitlines()[0].split() if t.startswith(f"{key}="))
        feats, model = tmp_path / "feats.csv", tmp_path / "m.wrice"
        feats.write_text(text.replace(f" {good}", f" {key}={bad}", 1))
        assert run(["train", "--features", str(feats), "--out", str(model),
                    "--epochs", "1", "--arch", "compact3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and str(feats) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not model.exists()

    def test_predict_needs_bundled_extraction_settings(self, workspace, tmp_path, capsys):
        bare = edit_model_header(
            workspace / "model.wrice", tmp_path / "bare.wrice", rehash=True,
            edit=lambda h: h.update(stft=None, features=None,
                                    audio={"sample_rate": None, "segment_seconds": None}))
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        assert run(["predict", "--model", str(bare), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed model file" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_predict_refuses_a_label_map_shorter_than_the_outputs(self, workspace, tmp_path,
                                                                  capsys):
        short = edit_model_header(workspace / "model.wrice", tmp_path / "short.wrice",
                                  lambda h: h.update(label_map=h["label_map"][:1]),
                                  rehash=True)
        wav = next((workspace / "corpus" / "wet_60").glob("*.wav"))
        assert run(["predict", "--model", str(short), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed model file" in err
        assert "need a 26-wide scaler and 4 labels, got 26 and 1" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_augment_corpus(self, workspace, tmp_path, capsys):
        out = tmp_path / "noisy"
        code = run(["augment", "--in", str(workspace / "corpus"), "--out", str(out),
                    "--scale", "0.05", "--seed", "2"])
        assert code == 0
        assert len(list(out.rglob("*.wav"))) == 16
        assert (out / "manifest.csv").exists()

    def test_augment_single_file(self, workspace, tmp_path):
        wav = next((workspace / "corpus" / "wet_60").glob("*.wav"))
        out = tmp_path / "noisy.wav"
        assert run(["augment", "--in", str(wav), "--out", str(out),
                    "--scale", "0.01", "--seed", "2"]) == 0
        assert out.exists()

    def test_augment_adds_the_seeded_draws_to_each_file(self, workspace, tmp_path):
        # corpus file i gets the draws of SeedSequence([seed, 0, i]), a single
        # file those of --seed, added to its decoded samples and written as
        # 16-bit PCM at the source rate
        def quantised(samples):
            return np.clip(np.rint(samples * 2**15), -2**15, 2**15 - 1) / 2**15

        corpus = workspace / "corpus"
        _, pairs = dataset.corpus_files(corpus)
        out = tmp_path / "noisy"
        assert run(["augment", "--in", str(corpus), "--out", str(out),
                    "--scale", "0.05", "--seed", "4"]) == 0
        for i, (src, category) in enumerate(pairs):
            clean = read_wav(src)
            draws = np.random.default_rng(np.random.SeedSequence([4, 0, i])).standard_normal(
                len(clean))
            got = read_wav(out / category / src.name)
            assert got.sample_rate == clean.sample_rate
            np.testing.assert_array_equal(got.samples, quantised(clean.samples + 0.05 * draws))
        src, one = pairs[0][0], tmp_path / "one.wav"
        assert run(["augment", "--in", str(src), "--out", str(one),
                    "--scale", "0.5", "--seed", "4"]) == 0
        clean = read_wav(src).samples
        draws = np.random.default_rng(4).standard_normal(clean.size)
        np.testing.assert_array_equal(read_wav(one).samples, quantised(clean + 0.5 * draws))

    @pytest.mark.parametrize("scale", ["0.05", "0"])
    def test_augment_is_deterministic_and_scale_zero_writes_the_source(self, workspace,
                                                                       tmp_path, scale):
        corpus = workspace / "corpus"
        trees = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(["augment", "--in", str(corpus), "--out", str(out),
                        "--scale", scale, "--seed", "3"]) == 0
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in out.rglob("*.wav")})
        assert trees[0] == trees[1] and len(trees[0]) == 16
        if scale == "0":
            assert trees[0] == {path.relative_to(corpus): path.read_bytes()
                                for path in corpus.rglob("*.wav")}

    @pytest.mark.parametrize("out,message", [
        ("corpus", "--out {out} is --in {src}: augment would overwrite its input"),
        ("corpus/../corpus", "--out {out} is --in {src}: augment would overwrite its input"),
        ("corpus/noisy", "--out {out} lies inside the --in corpus {src}: "
                         "augment would write into its input"),
    ], ids=["same", "same-spelled-otherwise", "inside"])
    def test_augment_refuses_to_write_into_its_source_corpus(self, workspace, tmp_path,
                                                              capsys, out, message):
        src = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", src)
        tree = lambda: {path: path.read_bytes() for path in src.rglob("*") if path.is_file()}
        before = tree()
        assert run(["augment", "--in", str(src), "--out", str(tmp_path / out),
                    "--scale", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(out=tmp_path / out, src=src)}\n"
        assert tree() == before and not (src / "noisy").exists()

    def test_augment_refuses_to_overwrite_its_source_file(self, workspace, tmp_path, capsys):
        wav = tmp_path / "in.wav"
        shutil.copy(next((workspace / "corpus" / "wet_60").glob("*.wav")), wav)
        before = wav.read_bytes()
        assert run(["augment", "--in", str(wav), "--out", str(wav), "--scale", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {wav} is --in {wav}: augment would overwrite its input\n"
        assert wav.read_bytes() == before
        assert list(tmp_path.iterdir()) == [wav]

    def test_augment_into_an_augment_of_a_larger_corpus_is_refused(self, workspace, tmp_path,
                                                                     capsys):
        # the corpus lacks dry_40_003.wav, which an earlier augment of the
        # whole corpus wrote to --out: left there, later verbs would read it
        small, out = tmp_path / "small", tmp_path / "noisy"
        shutil.copytree(workspace / "corpus", small)
        (small / "dry_40" / "dry_40_003.wav").unlink()
        whole = ["augment", "--in", str(workspace / "corpus"), "--out", str(out),
                 "--scale", "0.05", "--seed", "2"]
        assert run(whole) == 0
        tree = lambda: {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        before = tree()
        assert run(["augment", "--in", str(small), "--out", str(out),
                    "--scale", "0.05", "--seed", "2"]) == 1
        stale = out / "dry_40" / "dry_40_003.wav"
        assert capsys.readouterr().err == (f"error: {stale}: a WAV that this run would not "
                                           "overwrite, so the corpus would mix it with the "
                                           "new files\n")
        assert tree() == before
        assert run(whole) == 0 and tree() == before
        assert run([*whole[:-1], "3"]) == 0

    def test_stereo_input_gives_the_outputs_of_its_mono_mean(self, workspace, tmp_path):
        # channels k + d and k - d average to the 16-bit mono samples k
        # exactly, so `augment` and `spectrogram` must write the same bytes
        # for the stereo file as for the mono one, read from the same path
        src = next((workspace / "corpus" / "wet_40").glob("*.wav"))
        with wave.open(str(src), "rb") as fh:
            rate = fh.getframerate()
            k = np.frombuffer(fh.readframes(fh.getnframes()), "<i2").astype(np.int32)
        headroom = np.maximum(32767 - np.abs(k), 0)  # 0 where k = -32768
        d = np.minimum(np.random.default_rng(5).integers(0, 4096, k.size), headroom)
        stereo = np.stack([k + d, k - d], axis=1).astype("<i2")
        assert not np.array_equal(stereo[:, 0], stereo[:, 1])
        wav = tmp_path / "in.wav"
        outputs = []
        for write in (lambda: shutil.copy(src, wav), lambda: _write_stereo16(wav, stereo, rate)):
            write()
            aug, spec = tmp_path / "aug.wav", tmp_path / "spec.csv"
            assert run(["augment", "--in", str(wav), "--out", str(aug),
                        "--scale", "0.05", "--seed", "2"]) == 0
            assert run(["spectrogram", "--in", str(wav), "--out", str(spec),
                        "--sr", "11025", "--frame", "1024", "--hop", "256"]) == 0
            outputs.append((aug.read_bytes(), spec.read_bytes()))
        assert outputs[0] == outputs[1]


def _write_stereo16(path, frames, rate):
    """A two-channel 16-bit WAV from an (n, 2) int16 array, by the standard library."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(frames.tobytes())


def test_importing_the_cli_does_not_load_scipy_signal(tmp_path):
    # no verb needs scipy.signal, and only extraction needs scipy.sparse (the
    # mel and chroma projectors): importing either would be most of the
    # start-up time and memory of every verb. One fresh interpreter imports
    # the package and the CLI, trains in process, then extracts
    rng = np.random.default_rng(0)
    rows = LabeledDataset(features=rng.normal(size=(12, 26)), labels=np.arange(12) % 4,
                          label_map=["dry_40", "dry_60", "wet_40", "wet_60"],
                          source_paths=[f"f{i}.wav" for i in range(12)],
                          extraction=Extraction())
    write_features_csv(rows, tmp_path / "f.csv")
    write_wav(tmp_path / "a.wav", AudioBuffer(rng.standard_normal(22050), 22050))
    code = textwrap.dedent("""\
        import json, sys
        seen = {}
        def check(stage):
            seen[stage] = [m for m in ("scipy.signal", "scipy.sparse") if m in sys.modules]
        import wrice
        check("import wrice")
        import wrice.cli
        check("import wrice.cli")
        assert wrice.cli.run(["train", "--features", sys.argv[1], "--out", sys.argv[2],
                              "--epochs", "2"]) == 0
        check("train")
        wrice.dataset.corpus_rows([sys.argv[3]], wrice.dataset.Extraction(), workers=1)
        check("corpus_rows")
        print(json.dumps(seen))
        """)
    done = fresh_python("-c", code, tmp_path / "f.csv", tmp_path / "m.wrice", tmp_path / "a.wav")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import wrice": [], "import wrice.cli": [], "train": [], "corpus_rows": ["scipy.sparse"]}


class TestSpectrogramDump:
    def test_csv_output(self, workspace, tmp_path):
        wav = next((workspace / "corpus" / "dry_60").glob("*.wav"))
        out = tmp_path / "spec.csv"
        assert run(["spectrogram", "--in", str(wav), "--out", str(out),
                    "--sr", "11025", "--frame", "1024", "--hop", "256"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# wrice-spectrogram")
        freqs = [float(v) for v in lines[1].split(",")]
        assert len(freqs) == 513 and freqs[0] == 0.0
        first_row = [float(v) for v in lines[2].split(",")]
        assert all(v >= 0 for v in first_row)

    def test_pgm_output(self, workspace, tmp_path):
        wav = next((workspace / "corpus" / "dry_60").glob("*.wav"))
        out = tmp_path / "spec.pgm"
        assert run(["spectrogram", "--in", str(wav), "--out", str(out),
                    "--sr", "11025", "--frame", "1024", "--hop", "256"]) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n")
        header, _, rest = blob.partition(b"255\n")
        dims = header.splitlines()[-1].split()
        width, height = int(dims[0]), int(dims[1])
        assert height == 513
        assert len(rest) == width * height

    def test_the_out_suffix_alone_sets_the_format(self, workspace, tmp_path, capsys):
        wav = next((workspace / "corpus" / "dry_60").glob("*.wav"))
        upper = tmp_path / "spec.PGM"
        assert run(["spectrogram", "--in", str(wav), "--out", str(upper)]) == 0
        assert upper.read_bytes().startswith(b"P5\n")
        out = tmp_path / "spec.pgm"
        assert run(["spectrogram", "--in", str(wav), "--out", str(out),
                    "--format", "csv"]) == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("sr", [22050, 16000])
    def test_the_blocks_give_the_whole_file_spectrogram(self, tmp_path, sr):
        # 6 s at 22050 Hz: several blocks of 64 frames at either rate
        wav = tmp_path / "in.wav"
        write_wav(wav, AudioBuffer(0.5 * np.sin(np.arange(6 * 22050) * 0.05)
                                   + np.random.default_rng(2).normal(scale=0.05, size=6 * 22050),
                                   22050))
        decoded = read_wav(wav)
        want = magnitudes(AudioBuffer(interp_resample(decoded.samples, 22050, sr), sr),
                          StftConfig())
        assert len(want) > 2 * 64
        args = ["spectrogram", "--in", str(wav), "--sr", str(sr)]
        assert run([*args, "--out", str(tmp_path / "s.csv")]) == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()[2:]
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(got, want)  # .17g round-trips float64
        assert run([*args, "--out", str(tmp_path / "s.pgm")]) == 0
        pixels = (tmp_path / "s.pgm").read_bytes().partition(b"\n255\n")[2]
        # the whole-array form of the -80 dB floor scaling
        db = 20.0 * np.log10(np.maximum(want / want.max(), 10.0 ** (-80.0 / 20.0)))
        image = np.rint((db + 80.0) / 80.0 * 255).astype(np.uint8).T[::-1]
        assert pixels == image.tobytes()


class TestPeakMemory:
    """tracemalloc peaks of whole verbs, on inputs large enough that holding
    a second copy of what they work on would show."""

    def test_train_holds_the_model_and_its_moments(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
        rows = LabeledDataset(features=rng.normal(size=(n, 26)), labels=np.arange(n) % 4,
                              label_map=[f"c{i}" for i in range(4)],
                              source_paths=[f"rows/{i}.wav" for i in range(n)],
                              extraction=Extraction())
        feats = tmp_path / "feats.csv"
        write_features_csv(rows, feats)
        argv = ["train", "--features", str(feats), "--out", str(tmp_path / "model.wrice"),
                "--epochs", "1"]
        peak = traced_peak(lambda: run(argv))
        # paper4: the model (541,188 parameters, 4.1 MiB), Adam's two
        # moments, and slack for the gradient block and Adam's scratch block
        # (0.25 MiB each) and a 32-row batch's activations; the gradient of
        # a whole 512 x 512 tensor (2 MiB more), a copy of the model or a
        # parameter-length gradient would exceed it
        dims = layer_dims_for("paper4", 26, 4)
        params = 8 * sum(a * b + b for a, b in zip(dims, dims[1:]))
        bound = 3 * params + 3 * 2**20
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    def test_spectrogram_holds_one_block_and_the_image(self, tmp_path, fmt):
        wav = tmp_path / "long.wav"
        write_wav(wav, AudioBuffer(np.random.default_rng(1).normal(scale=0.1, size=24 * 22050),
                                   22050))
        out = tmp_path / f"spec.{fmt}"
        peak = traced_peak(lambda: run(["spectrogram", "--in", str(wav), "--out", str(out)]))
        # 1030 frames of 1025 bins: one block's buffers (2.5 MiB) and the
        # arithmetic on it, and for a PGM its one byte per pixel; the file's
        # samples (4.0 MiB) or every frame's magnitudes (8.1 MiB) would
        # exceed it
        image = 1030 * 1025 if fmt == "pgm" else 0
        bound = image + 6 * 2**20
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out
        for sub in ("synth", "extract", "train", "eval", "predict",
                    "augment", "spectrogram"):
            assert run([sub, "--help"]) == 0
            assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("verb", [
        ["synth", "--out", "{tmp}/corpus"],
        ["extract", "--in", "{tmp}/corpus", "--out", "{tmp}/f.csv"],
        ["eval", "--model", "{tmp}/m.wrice", "--in", "{tmp}/corpus"],
    ], ids=["synth", "extract", "eval"])
    def test_fewer_than_one_worker_is_usage_error(self, tmp_path, capsys, verb, workers):
        # refused by the parser, before anything is read or written; it was
        # once raised to one worker silently
        argv = [arg.format(tmp=tmp_path) for arg in verb] + ["--workers", workers]
        assert run(argv) == 2
        assert f"argument --workers: must be at least 1, got {workers}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", [
        ["synth", "--out", "{tmp}/corpus"],
        ["train", "--features", "{tmp}/f.csv", "--out", "{tmp}/m.wrice"],
        ["eval", "--model", "{tmp}/m.wrice", "--in", "{tmp}/corpus"],
        ["augment", "--in", "{tmp}/corpus", "--out", "{tmp}/noisy", "--scale", "0.1"],
    ], ids=["synth", "train", "eval", "augment"])
    def test_a_negative_seed_is_usage_error(self, tmp_path, capsys, verb):
        # refused by the parser, before anything is read or written; numpy
        # once refused it mid-run, naming no flag (synth after making its
        # first category directory, eval blaming the first WAV)
        argv = [arg.format(tmp=tmp_path) for arg in verb] + ["--seed", "-1"]
        assert run(argv) == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        assert run(["predict", "--model", str(tmp_path / "no.wrice"),
                    str(tmp_path / "no.wav")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_extract_refuses_a_non_power_of_two_frame_before_reading(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["extract", "--in", str(tmp_path), "--out", str(out),
                    "--frame", "1000"]) == 1
        err = capsys.readouterr().err
        assert err == "error: frame_len must be a power of two >= 2, got 1000\n"
        assert not out.exists()

    def test_spectrogram_refuses_a_non_power_of_two_frame_before_reading(self, tmp_path,
                                                                        capsys):
        out = tmp_path / "x.csv"
        assert run(["spectrogram", "--in", str(tmp_path / "missing.wav"), "--out", str(out),
                    "--frame", "1000"]) == 1
        err = capsys.readouterr().err
        assert err == "error: frame_len must be a power of two >= 2, got 1000\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["extract", "--segment-seconds", "0.05"],
         "segment_seconds 0.05 at 22050 Hz is shorter than one 2048-sample frame"),
        (["extract", "--sr", "0"], "sample_rate must be positive, got 0"),
        (["spectrogram", "--sr", "0"], "--sr must be a positive sample rate, got 0"),
        (["spectrogram", "--sr", "-3"], "--sr must be a positive sample rate, got -3"),
        (["augment", "--scale", "nan"], "noise scale must be finite and >= 0, got nan"),
        (["augment", "--scale", "-1"], "noise scale must be finite and >= 0, got -1.0"),
        (["eval", "--noise", "-1"], "noise scale must be finite and >= 0, got -1.0"),
    ], ids=["extract-segment-shorter-than-a-frame", "extract-sr-0", "spectrogram-sr-0",
            "spectrogram-sr-negative", "augment-scale-nan", "augment-scale-negative",
            "eval-noise-negative"])
    def test_a_bad_setting_is_refused_before_any_wav_is_opened(self, workspace, tmp_path,
                                                               capsys, monkeypatch, argv,
                                                               message):
        def refuse(path):
            pytest.fail(f"opened {path} although the settings cannot work")

        for module in (audio_io, dataset, cli):  # every binding of the reader in wrice
            if hasattr(module, "WavReader"):
                monkeypatch.setattr(module, "WavReader", refuse)
        corpus = workspace / "corpus"
        verb, *flags = argv
        source = {"extract": corpus, "eval": corpus,
                  "spectrogram": next(corpus.glob("dry_40/*.wav")),
                  "augment": next(corpus.glob("dry_40/*.wav"))}[verb]
        io_args = {"extract": ["--out", str(tmp_path / "x.csv"), "--workers", "1"],
                   "eval": ["--model", str(workspace / "model.wrice"), "--workers", "1"],
                   "spectrogram": ["--out", str(tmp_path / "x.csv")],
                   "augment": ["--out", str(tmp_path / "x.wav")]}[verb]
        assert run([verb, "--in", str(source), *io_args, *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--noise", "0.5,"], "--noise '0.5,': entry '' is not a number"),
        (["eval", "--noise", ""], "--noise '': entry '' is not a number"),
        (["eval", "--noise", "0.5,x,0.05"], "--noise '0.5,x,0.05': entry 'x' is not a number"),
        (["synth", "--counts", "1,2,x,1"], "--counts '1,2,x,1': entry 'x' is not an integer"),
        (["synth", "--counts", "1,2,1.5,1"],
         "--counts '1,2,1.5,1': entry '1.5' is not an integer"),
        (["synth", "--counts", ""], "--counts '': entry '' is not an integer"),
    ], ids=["noise-trailing-comma", "noise-empty", "noise-word", "counts-word",
            "counts-fraction", "counts-empty"])
    def test_a_list_entry_that_does_not_parse_names_its_flag(self, workspace, tmp_path,
                                                             capsys, argv, message):
        verb, *flags = argv
        io_args = {"eval": ["--model", str(workspace / "model.wrice"),
                            "--in", str(workspace / "corpus"), "--workers", "1"],
                   "synth": ["--out", str(tmp_path / "corpus"), "--workers", "1"]}[verb]
        assert run([verb, *io_args, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_corpus_is_domain_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run(["extract", "--in", str(tmp_path / "empty"),
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_extract_refuses_a_category_its_csv_cannot_name(self, tmp_path, capsys,
                                                            monkeypatch):
        wav = tmp_path / "corpus" / "dry 40" / "dry_40_000.wav"
        wav.parent.mkdir(parents=True)
        write_wav(wav, AudioBuffer(np.zeros(2048), 22050))
        decoded = []
        monkeypatch.setattr(dataset, "WavReader", decoded.append)
        out = tmp_path / "x.csv"
        assert run(["extract", "--in", str(tmp_path / "corpus"), "--out", str(out),
                    "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label 'dry 40'" in err
        assert decoded == []  # refused before any file is decoded
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["spectrogram"], ["augment", "--scale", "0.1"]],
                             ids=["spectrogram", "augment"])
    def test_non_finite_wav_sample_names_the_file(self, tmp_path, capsys, verb):
        wav = tmp_path / "nan.wav"
        wav.write_bytes(wav_bytes(struct.pack("<3f", 0.25, float("nan"), 1.0),
                                  format_tag=3, bits=32))
        assert run([*verb, "--in", str(wav), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(wav) in err and "NaN or Inf" in err
        assert len(err.strip().splitlines()) == 1

    def test_spectrogram_of_a_wav_shorter_than_a_frame_names_the_file(self, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        wav.write_bytes(wav_bytes(bytes(2000), sample_rate=22050))
        out = tmp_path / "x.csv"
        assert run(["spectrogram", "--in", str(wav), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {wav}: buffer too short for one frame (1000 < 2048)\n"
        assert not out.exists()

    def test_synth_worker_error_is_domain_error(self, tmp_path, capsys):
        # a directory where a WAV should go: the pool worker's write fails
        blocked = tmp_path / "corpus" / "wet_40" / "wet_40_000.wav"
        blocked.mkdir(parents=True)
        assert run(["synth", "--out", str(tmp_path / "corpus"), "--duration", "0.2",
                    "--counts", "1,1,1,1", "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocked) in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_synth_into_a_larger_corpus_is_refused(self, tmp_path, capsys):
        # seed 1's dry_40_002.wav would stay beside seed 2's files, and
        # `extract` would read all twelve
        root = tmp_path / "c"
        first = ["synth", "--out", str(root), "--counts", "3,3,3,3", "--duration", "0.2",
                 "--seed", "1", "--workers", "1"]
        assert run(first) == 0
        tree = lambda: {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        before = tree()
        assert run(["synth", "--out", str(root), "--counts", "2,2,2,2", "--duration", "0.2",
                    "--seed", "2", "--workers", "1"]) == 1
        stale = root / "dry_40" / "dry_40_002.wav"
        assert capsys.readouterr().err == (f"error: {stale}: a WAV that this run would not "
                                           "overwrite, so the corpus would mix it with the "
                                           "new files\n")
        assert tree() == before
        assert run(first) == 0 and tree() == before
        assert run([*first[:-3], "2", "--workers", "1"]) == 0

    @pytest.mark.parametrize("counts,err", [
        ("0,2,2,2", "{root}/dry_40/dry_40_000.wav: a WAV that this run would not overwrite, "
                    "so the corpus would mix it with the new files"),
        ("0,0,0,0", "every category count is 0, so there is nothing to write"),
    ], ids=["one-category-counted-0", "all-counted-0"])
    def test_synth_that_would_leave_a_stale_corpus_is_refused(self, tmp_path, capsys, counts,
                                                              err):
        # seed 1's dry_40 WAVs, or its whole corpus and manifest, would stay
        # and be read as the new run's
        root = tmp_path / "c"
        args = ["synth", "--out", str(root), "--duration", "0.2", "--workers", "1"]
        assert run([*args, "--counts", "2,2,2,2", "--seed", "1"]) == 0
        tree = lambda: {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        before = tree()
        capsys.readouterr()
        assert run([*args, "--counts", counts, "--seed", "2"]) == 1
        assert capsys.readouterr().err == f"error: {err.format(root=root)}\n"
        assert tree() == before

    # durations that give no audio, or more than a 16-bit WAV holds: each is
    # refused before the category directories are made, with no traceback
    # and no numpy warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("duration,match", [
        ("inf", "duration_s must be positive and finite, got inf"),
        ("nan", "duration_s must be positive and finite, got nan"),
        ("0.00001", "duration 1e-05 s at 22050 Hz does not round to a positive"),
        ("1e305", "duration 1e+305 s at 22050 Hz does not round to a positive"),
        ("1e6", "22050000000 samples exceed the 2147483629 that a 16-bit WAV file holds"),
    ], ids=["inf", "nan", "under-one-sample", "overflowing-length", "beyond-a-wav-file"])
    def test_synth_duration_without_audio_writes_nothing(self, tmp_path, capsys,
                                                         duration, match):
        root = tmp_path / "corpus"
        assert run(["synth", "--out", str(root), "--duration", duration,
                    "--counts", "1,1,1,1", "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {match}")
        assert len(err.strip().splitlines()) == 1
        assert not root.exists()

    def test_synth_rate_beyond_a_wav_header_writes_nothing(self, tmp_path, capsys):
        # 2 bytes a sample at this rate overflow the header's 32-bit byte rate
        root = tmp_path / "corpus"
        assert run(["synth", "--out", str(root), "--sr", "3000000000", "--duration", "1e-9",
                    "--counts", "1,0,0,0", "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: sample rate 3000000000 Hz exceeds the {MAX_WAV_RATE} Hz "
                       "that a 16-bit WAV header holds\n")
        assert not root.exists()

    def test_augment_of_a_rate_beyond_a_wav_header_is_domain_error(self, tmp_path, capsys):
        wav = tmp_path / "fast.wav"
        blob = bytearray(wav_bytes(struct.pack("<2h", 1000, -1000), sample_rate=8000))
        blob[24:28] = struct.pack("<I", 3_000_000_000)  # the fmt chunk's rate field
        wav.write_bytes(blob)
        out = tmp_path / "noisy.wav"
        assert run(["augment", "--in", str(wav), "--out", str(out), "--scale", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample rate 3000000000 Hz exceeds")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    # header damage that the parser sees is named before the checksum is
    # compared; a `rehash` edit also gets a checksum that matches it
    @pytest.mark.parametrize("edit,rehash", [
        pytest.param(lambda h: h.pop("tensors"), False, id="no-tensors"),
        pytest.param(lambda h: h.pop("layer_dims"), False, id="no-layer-dims"),
        pytest.param(lambda h: h["tensors"][0].pop("shape"), False, id="no-shape"),
        pytest.param(lambda h: h["tensors"][0]["shape"].reverse(), False,
                     id="shape-not-layer-dims"),
        pytest.param(lambda h: h["stft"].update(bogus=1), False, id="bad-stft-kwargs"),
        pytest.param(lambda h: h["features"].update(bogus=1), False,
                     id="bad-features-kwargs"),
        pytest.param(lambda h: h.update(hidden_activation="tanh"), False,
                     id="tanh-activation"),
        # the fixed extraction settings are not the model's to choose
        pytest.param(lambda h: h["features"].update(rolloff_pct=0.9), True,
                     id="rolloff-pct-0.9"),
        pytest.param(lambda h: h["stft"].update(window="rectangular"), True,
                     id="rectangular-window"),
        pytest.param(lambda h: h["features"].update(n_mfcc=13), True, id="n-mfcc-13"),
        # JSON reads 1e400 as an infinite float, which int() cannot convert
        pytest.param(lambda h: h["layer_dims"].__setitem__(0, 1e400), False,
                     id="layer-dims-overflow"),
    ])
    def test_malformed_model_header_is_domain_error(self, workspace, tmp_path, capsys,
                                                    edit, rehash):
        model = edit_model_header(workspace / "model.wrice", tmp_path / "broken.wrice",
                                  edit, rehash)
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        assert run(["predict", "--model", str(model), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed model file" in err
        assert "Traceback" not in err

    # each parses to a model that `predict` could run, or crash on: a float
    # `hop` once loaded and then died in extraction with a TypeError traceback
    @pytest.mark.parametrize("edit", RESPELT_HEADERS)
    def test_a_model_header_other_than_the_bytes_wrice_writes_is_domain_error(
            self, workspace, tmp_path, capsys, edit):
        model = edit_model_header(MODEL_V2, tmp_path / "respelt.wrice", edit, rehash=True)
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        assert run(["predict", "--model", str(model), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: malformed model file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["predict", "extract", "eval"])
    def test_a_bad_wav_is_named_once(self, workspace, tmp_path, capsys, verb):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        bad = corpus / "dry_40" / "bad.wav"
        bad.write_bytes(b"not a wav file")
        model = str(workspace / "model.wrice")
        argv = {"predict": ["predict", "--model", model, str(bad)],
                "extract": ["extract", "--in", str(corpus), "--out", str(tmp_path / "x.csv"),
                            "--workers", "1"],
                "eval": ["eval", "--model", model, "--in", str(corpus), "--workers", "1"]}
        assert run(argv[verb]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not a RIFF/WAVE file\n"

    def test_edited_model_header_is_domain_error(self, workspace, tmp_path, capsys):
        def nudge_scaler(header):
            header["scaler"]["mean"][0] += 1.0

        model = edit_model_header(workspace / "model.wrice", tmp_path / "edited.wrice",
                                  nudge_scaler)
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        assert run(["predict", "--model", str(model), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checksum mismatch" in err
        assert "Traceback" not in err

    # a NaN row lands in the training or the test partition depending on the seed
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_non_finite_feature_is_domain_error(self, workspace, tmp_path, capsys, seed):
        lines = (workspace / "feats.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "nan"
        lines[2] = ",".join(cells)
        feats = tmp_path / "nan.csv"
        feats.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.wrice"
        assert run(["train", "--features", str(feats), "--out", str(model),
                    "--epochs", "5", "--seed", str(seed), "--arch", "compact3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN or Inf" in err and str(feats) in err
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_diverging_training_is_domain_error(self, workspace, tmp_path, capsys):
        model = tmp_path / "model.wrice"
        assert run(["train", "--features", str(workspace / "feats.csv"), "--out", str(model),
                    "--epochs", "5", "--seed", "3", "--arch", "compact3",
                    "--lr", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "training loss became nan" in err
        assert "Traceback" not in err
        assert not model.exists()

    # refused before the first epoch, with no numpy warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_domain_error(self, workspace, tmp_path, capsys, lr):
        model = tmp_path / "model.wrice"
        assert run(["train", "--features", str(workspace / "feats.csv"), "--out", str(model),
                    "--epochs", "5", "--seed", "3", "--arch", "compact3", "--lr", lr]) == 1
        err = capsys.readouterr().err
        assert err == f"error: learning_rate must be positive and finite, got {lr}\n"
        assert not model.exists()


class TestDefaults:
    """Each verb's defaults are the library values they stand for, read off
    its minimal command line."""

    @pytest.mark.parametrize("argv,want", [
        (["synth", "--out", "c"],
         {"seed": inspect.signature(synth.synth_corpus).parameters["seed"].default,
          "sr": inspect.signature(synth.synth_corpus).parameters["sample_rate"].default,
          "duration": synth.DEFAULT_DURATION_S, "counts": None, "workers": None}),
        (["extract", "--in", "c", "--out", "f.csv"],
         {"sr": Extraction().sample_rate, "frame": Extraction().stft.frame_len,
          "hop": Extraction().stft.hop, "segment_seconds": Extraction().segment_seconds,
          "workers": None}),
        (["train", "--features", "f.csv", "--out", "m.wrice"],
         {"epochs": mlp.TrainConfig().epochs, "batch": mlp.TrainConfig().batch_size,
          "lr": mlp.TrainConfig().learning_rate, "seed": mlp.TrainConfig().seed}),
        (["eval", "--model", "m.wrice", "--in", "c"],
         {"seed": inspect.signature(noise_validation).parameters["seed"].default,
          "workers": inspect.signature(noise_validation).parameters["workers"].default}),
        (["spectrogram", "--in", "a.wav", "--out", "s.csv"],
         {"sr": Extraction().sample_rate, "frame": Extraction().stft.frame_len,
          "hop": Extraction().stft.hop}),
    ], ids=["synth", "extract", "train", "eval", "spectrogram"])
    def test_each_default_is_the_library_value(self, argv, want):
        args = vars(cli.build_parser().parse_args(argv))
        assert {key: args[key] for key in want} == want

    def test_the_library_values_are_the_documented_ones(self):
        # no default changed when the CLI began to read them from the library
        assert synth.synth_corpus.__defaults__[:3] == (None, dataset.DEFAULT_SAMPLE_RATE, 0)
        assert (dataset.DEFAULT_SAMPLE_RATE, synth.DEFAULT_DURATION_S) == (22050, 30.0)
        assert mlp.TrainConfig() == mlp.TrainConfig(60, 32, 0.01, 0)

    def test_synth_counts_help_names_the_default_counts(self, capsys):
        # --counts defaults to None, which `synth_corpus` reads as DEFAULT_COUNTS
        assert inspect.signature(synth.synth_corpus).parameters["counts"].default is None
        assert run(["synth", "--help"]) == 0
        counts = ",".join(str(synth.DEFAULT_COUNTS[c]) for c in synth.CATEGORIES)
        assert counts == "52,61,51,64"
        assert f"(default {counts})" in " ".join(capsys.readouterr().out.split())


class TestDeterminism:
    def test_identical_command_lines_identical_artifacts(self, tmp_path):
        corpus = tmp_path / "corpus"
        feats = tmp_path / "feats.csv"
        model = tmp_path / "model.wrice"
        report = tmp_path / "report.json"

        def pipeline():
            assert run(["synth", "--out", str(corpus), "--seed", "5",
                        "--sr", "11025", "--duration", "1.5",
                        "--counts", "3,3,3,3"]) == 0
            assert run(["extract", "--in", str(corpus), "--out", str(feats),
                        *SMALL]) == 0
            assert run(["train", "--features", str(feats), "--out", str(model),
                        "--epochs", "5", "--batch", "8", "--seed", "5",
                        "--arch", "compact3"]) == 0
            assert run(["eval", "--model", str(model), "--in", str(corpus),
                        "--noise", "0.5,0.005", "--seed", "5",
                        "--json", str(report)]) == 0
            return {
                "wavs": b"".join(p.read_bytes() for p in sorted(corpus.rglob("*.wav"))),
                "feats": feats.read_bytes(),
                "model": model.read_bytes(),
                "report": report.read_bytes(),
            }

        first = pipeline()
        second = pipeline()
        for key in first:
            assert first[key] == second[key], f"{key} differs between identical runs"
