"""The workflow as a shell runs it: each `wrice` verb in a fresh process,
with outputs compared byte for byte or counted.

A corpus extracted and trained on with OpenBLAS limited to one thread and
with its default thread count must give the same CSV and the same model.

`rt` is the round trip of a small corpus at 11025 Hz: 8 files of 3 s,
extracted at frame 1024, hop 256, in 1.5 s segments, and a compact3 model
trained on the CSV alone. The tests check that the model and `spectrogram`
keep those settings (16 eval rows, two segments per file, 126 frames of 513
bins), and that the streamed per-file path gives the same bytes for a
24-bit stereo copy of a file, at a hop that does not divide the frame, and
in a pooled noisy eval at any worker count.
"""

import json
import wave

import pytest

from conftest import fresh_python


def wrice_cli(*args, env=None) -> str:
    """Run `python -m wrice.cli` on `args` in a new process; its stdout.
    `env` is `fresh_python`'s."""
    done = fresh_python("-m", "wrice.cli", *args, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # extraction calls no BLAS routine, and training writes its gradients
    # through `matmul(out=)` into views of one flat buffer, so the CSVs of
    # two workers and the models must be byte-identical with BLAS limited to
    # one thread and at its default count. Training needs >= 2 rows per class
    wrice_cli("synth", "--out", tmp_path / "corpus", "--seed", 2, "--counts", "2,2,2,2",
              env={"OMP_NUM_THREADS": None})
    limits = {"one": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
              "default": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}}
    for name, env in limits.items():
        wrice_cli("extract", "--in", tmp_path / "corpus", "--out", tmp_path / f"{name}.csv",
                  "--workers", 2, env=env)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    for name, env in limits.items():
        wrice_cli("train", "--features", tmp_path / "one.csv", "--out", tmp_path / f"{name}.wrice",
                  env=env)
    assert (tmp_path / "one.wrice").read_bytes() == (tmp_path / "default.wrice").read_bytes()


@pytest.fixture(scope="module")
def rt(tmp_path_factory):
    ws = tmp_path_factory.mktemp("rt")
    wrice_cli("synth", "--out", ws / "rt", "--seed", 4, "--sr", 11025, "--duration", 3,
              "--counts", "2,2,2,2")
    wrice_cli("extract", "--in", ws / "rt", "--out", ws / "rt.csv", "--sr", 11025,
              "--frame", 1024, "--hop", 256, "--segment-seconds", 1.5)
    wrice_cli("train", "--features", ws / "rt.csv", "--out", ws / "rt.wrice",
              "--epochs", 5, "--seed", 4, "--arch", "compact3")
    return ws


def test_the_model_scores_at_the_settings_of_its_csv(rt):
    # trained from the CSV alone, the model scores the corpus at 11025 Hz in
    # 1.5 s segments, so its 8 files of 3 s give 16 rows
    wrice_cli("eval", "--model", rt / "rt.wrice", "--in", rt / "rt", "--json", rt / "r.json")
    report = json.loads((rt / "r.json").read_text())
    assert (report["clean"]["n"], report["configs"]["sample_rate"]) == (16, 11025)


def test_spectrogram_stacks_the_frames_of_extraction(rt):
    # the same Hann-windowed blocks: one 3 s file gives 513 bins of
    # (33075 - 1024) // 256 + 1 = 126 frames
    wrice_cli("spectrogram", "--in", rt / "rt" / "dry_40" / "dry_40_000.wav",
              "--out", rt / "rt_spec.csv", "--sr", 11025, "--frame", 1024, "--hop", 256)
    meta, freqs, *rows = (rt / "rt_spec.csv").read_text().splitlines()
    assert " window=hann " in meta
    assert (len(freqs.split(",")), len(rows)) == (513, 126)


def test_a_stereo_24bit_copy_predicts_the_bytes_of_its_mono_source(rt):
    # each channel is the 16-bit source sample times 256, written by the
    # standard library, so the mixdown on decode is the source's mono buffer
    # bit for bit
    source = rt / "rt" / "dry_40" / "dry_40_000.wav"
    with wave.open(str(source), "rb") as src:
        assert (src.getnchannels(), src.getsampwidth()) == (1, 2)
        rate, raw = src.getframerate(), src.readframes(src.getnframes())
    frames = bytearray()
    for i in range(0, len(raw), 2):
        frames += (b"\x00" + raw[i : i + 2]) * 2
    stereo = rt / "stereo24.wav"
    with wave.open(str(stereo), "wb") as dst:
        dst.setnchannels(2)
        dst.setsampwidth(3)
        dst.setframerate(rate)
        dst.writeframes(bytes(frames))
    mono_out = wrice_cli("predict", "--model", rt / "rt.wrice", source)
    assert mono_out.count("\nsegment ") == 2
    assert wrice_cli("predict", "--model", rt / "rt.wrice", stereo) == mono_out


def test_zcr_at_a_hop_that_does_not_divide_the_frame(rt):
    # ZCR frames start mid-hop; the CSVs of one worker and of two must match
    for workers in (1, 2):
        wrice_cli("extract", "--in", rt / "rt", "--out", rt / f"hop300_{workers}.csv",
                  "--sr", 11025, "--frame", 1024, "--hop", 300, "--workers", workers)
    assert (rt / "hop300_1.csv").read_bytes() == (rt / "hop300_2.csv").read_bytes()


def test_eval_reports_do_not_depend_on_the_worker_count(rt):
    # each file's noise is seeded by (seed, scale index, path index)
    for workers in (1, 2):
        wrice_cli("eval", "--model", rt / "rt.wrice", "--in", rt / "rt",
                  "--noise", "0.5,0.005", "--seed", 4, "--json", rt / f"eval_{workers}.json",
                  "--workers", workers)
    assert (rt / "eval_1.json").read_bytes() == (rt / "eval_2.json").read_bytes()
