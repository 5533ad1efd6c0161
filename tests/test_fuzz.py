"""Damaged files: every reader loads them or raises a WriceError, nothing else.

Each target is a small file that wrice's own writer made (the 24-bit WAV,
which wrice reads but does not write, is built by `conftest.write_pcm`); the
damage is a few byte flips or a truncation of it (MacIver et al.,
"Hypothesis: A new approach to property-based testing", JOSS 2019).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_SR, write_pcm
from wrice.audio_io import read_wav
from wrice.dataset import (Extraction, LabeledDataset, Scaler, read_extraction,
                           read_features_csv, write_features_csv)
from wrice.errors import WriceError
from wrice.mlp import init_model, load_model, save_model

# one flip of (position, xor mask), positions taken modulo the file length
flips = st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)),
                 min_size=1, max_size=3)
damage = st.one_of(st.tuples(st.just("flip"), flips),
                   st.tuples(st.just("cut"), st.integers(min_value=0)))


def _damaged(raw: bytes, how) -> bytes:
    kind, arg = how
    if kind == "cut":
        return raw[: arg % len(raw)]
    out = bytearray(raw)
    for pos, mask in arg:
        out[pos % len(out)] ^= mask
    return bytes(out)


def _wav_writer(bits):
    samples = np.random.default_rng(bits).uniform(-0.9, 0.9, 300)
    return lambda path: write_pcm(path, samples, TINY_SR, bits)


def _write_csv(path):
    rng = np.random.default_rng(3)
    ds = LabeledDataset(features=rng.normal(size=(4, 26)), labels=np.array([0, 0, 1, 1]),
                        label_map=["dry_40", "wet_60"],
                        source_paths=[f"c/{i}.wav" for i in range(4)])
    write_features_csv(ds, path, Extraction())


def _write_model(path):
    scaler = Scaler(np.zeros(4), np.ones(4))
    save_model(init_model([4, 5, 3], seed=4, scaler=scaler, label_map=["p", "q", "r"],
                          extraction=Extraction()), path)


def _read_csv(path):
    read_extraction(path)
    read_features_csv(path)


TARGETS = {
    "wav16": (_wav_writer(16), read_wav),
    "wav24": (_wav_writer(24), read_wav),
    "csv": (_write_csv, _read_csv),
    "model": (_write_model, load_model),
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_damaged_file_loads_or_raises_a_domain_error(tmp_path_factory, target):
    write, read = TARGETS[target]
    folder = tmp_path_factory.mktemp(target)
    pristine = folder / "pristine"
    write(pristine)
    read(pristine)
    raw = pristine.read_bytes()
    path = folder / "damaged"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(damage)
    def check(how):
        path.write_bytes(_damaged(raw, how))
        try:
            read(path)
        except WriceError:
            pass

    check()
