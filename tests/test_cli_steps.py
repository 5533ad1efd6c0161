"""The workflow as a shell runs it: each `wrice` verb in a fresh process,
with outputs compared byte for byte.

`rt` is the round trip of a small corpus at 11025 Hz: 8 files of 3 s,
extracted at frame 1024, hop 256, in 1.5 s segments, and a compact3 model
trained on the CSV alone. The tests read it in three ways that exercise the
streamed per-file path: a 24-bit stereo copy of a file, a hop that does not
divide the frame, and a pooled noisy eval.
"""

import os
import subprocess
import sys
import wave
from pathlib import Path

import pytest

import wrice


def wrice_cli(*args) -> str:
    """Run `python -m wrice.cli` on `args` in a new process; its stdout."""
    src = str(Path(wrice.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "wrice.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
