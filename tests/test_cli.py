"""End-to-end CLI behavior: workflow, exit codes, artifact determinism."""

import json
import shutil

import numpy as np
import pytest

from wrice import dataset
from wrice.audio_io import AudioBuffer, read_wav, write_wav
from wrice.cli import run
from wrice.dataset import (file_segments, ingest_corpus, load_audio, read_features_csv,
                           scale_rows)
from wrice.evaluation import evaluate, noise_validation
from wrice.features import extract_features
from wrice.mlp import forward, load_model

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
        decoded = []

        def counting_read_wav(path):
            decoded.append(str(path))
            return read_wav(path)

        monkeypatch.setattr(dataset, "read_wav", counting_read_wav)
        assert run(["eval", "--model", str(model_path), "--in", str(corpus),
                    "--noise", "0.5,0.005", "--seed", "4", "--json", str(report),
                    "--workers", "1"]) == 0
        assert sorted(decoded) == sorted(str(p) for p in corpus.rglob("*.wav"))
        assert len(decoded) == 16

        doc = json.loads(report.read_text())
        model = load_model(model_path)
        data = ingest_corpus(corpus, model.stft_config, model.feature_config,
                             sample_rate=model.sample_rate,
                             segment_seconds=model.segment_seconds, workers=1)
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
        write_wav(wav, AudioBuffer(np.concatenate([read_wav(p)[1][0].samples for p in parts]),
                                   11025))
        model_path = workspace / "model.wrice"
        assert run(["predict", "--model", str(model_path), str(wav)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()

        model = load_model(model_path)
        rows = np.vstack([extract_features(piece, model.stft_config,
                                           model.feature_config).values
                          for piece in file_segments(load_audio(wav, model.sample_rate),
                                                     model.segment_seconds)])
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

    def test_train_from_corpus_directly(self, workspace, tmp_path):
        model = tmp_path / "direct.wrice"
        code = run(["train", "--in", str(workspace / "corpus"), "--out", str(model),
                    "--epochs", "2", "--batch", "8", "--seed", "1", *SMALL])
        assert code == 0
        assert model.exists()

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

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        assert run(["predict", "--model", str(tmp_path / "no.wrice"),
                    str(tmp_path / "no.wav")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_corpus_is_domain_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run(["extract", "--in", str(tmp_path / "empty"),
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    # header damage that the parser sees is named before the checksum is compared
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.pop("tensors"), id="no-tensors"),
        pytest.param(lambda h: h.pop("layer_dims"), id="no-layer-dims"),
        pytest.param(lambda h: h["tensors"][0].pop("shape"), id="no-shape"),
        pytest.param(lambda h: h["stft"].update(bogus=1), id="bad-stft-kwargs"),
        pytest.param(lambda h: h["features"].update(bogus=1), id="bad-features-kwargs"),
        pytest.param(lambda h: h.update(hidden_activation="tanh"), id="tanh-activation"),
    ])
    def test_malformed_model_header_is_domain_error(self, workspace, tmp_path, capsys,
                                                    edit):
        head, _, body = (workspace / "model.wrice").read_bytes().partition(b"\n")
        header = json.loads(head)
        edit(header)
        model = tmp_path / "broken.wrice"
        model.write_bytes(json.dumps(header).encode() + b"\n" + body)
        wav = next((workspace / "corpus" / "dry_40").glob("*.wav"))
        assert run(["predict", "--model", str(model), str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed model file" in err
        assert "Traceback" not in err


    def test_edited_model_header_is_domain_error(self, workspace, tmp_path, capsys):
        head, _, body = (workspace / "model.wrice").read_bytes().partition(b"\n")
        header = json.loads(head)
        header["scaler"]["mean"][0] += 1.0
        model = tmp_path / "edited.wrice"
        model.write_bytes(json.dumps(header).encode() + b"\n" + body)
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
