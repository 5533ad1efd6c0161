"""Synthetic corpus generator and additive-noise augmentation."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import (TINY_SR, bin_freqs, fresh_python, magnitudes, per_block_sinusoid,
                      whole_recording_synth_sample)
from wrice import synth
from wrice.audio_io import AudioBuffer, write_wav
from wrice.dsp import StftConfig, frame_signal
from wrice.features import centroids, rms
from wrice.synth import (_CHUNK, _SINE_BLOCK, CATEGORIES, ConditionSpec, _one_pole_lowpass,
                         _sinusoid, _tone, spec_for_category, synth_corpus, synth_sample)

CFG = StftConfig(frame_len=1024, hop=256)


def mean_centroid(buf: AudioBuffer) -> float:
    return centroids(magnitudes(buf, CFG), bin_freqs(CFG.frame_len, buf.sample_rate)).mean()


def mean_rms(buf: AudioBuffer) -> float:
    return rms(frame_signal(buf.samples, CFG)).mean()


def lfilter_lowpass(x, cutoff_hz, sample_rate):
    """The one-pole low-pass by `scipy.signal.lfilter`: the oracle for the
    block recurrence."""
    alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz / sample_rate)
    return lfilter([alpha], [1.0, alpha - 1.0], x)


def sin_oracle(tone, start, out, scratch):
    """Every angle of the sinusoid through one `np.sin` over the chunk: the
    oracle for the block kernel, with its signature."""
    return np.sin(np.arange(start, start + out.size) * tone.step + tone.phase, out=out)


def assert_wav_bytes_match(tmp_path, monkeypatch, category, seed, kernel, oracle):
    """The 16-bit WAV of one 30 s recording is byte-identical with the synth
    kernel named `kernel` and with `oracle` patched in for it."""
    spec = spec_for_category(category)
    write_wav(tmp_path / "block.wav", synth_sample(spec, 22050, seed))
    monkeypatch.setattr(synth, kernel, oracle)
    write_wav(tmp_path / "oracle.wav", synth_sample(spec, 22050, seed))
    assert (tmp_path / "block.wav").read_bytes() == (tmp_path / "oracle.wav").read_bytes()


class TestOnePoleLowpass:
    # 1080 Hz is the lowest class cutoff (wet_40, -10% jitter); synth_sample
    # caps cutoffs at 0.49 * sr, where r^-127 is largest; 5 Hz keeps r near 1
    @pytest.mark.parametrize("cutoff", [1080.0, 4000.0, 0.49 * 22050, 5.0])
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 30 * 22050])
    def test_matches_lfilter(self, cutoff, n):
        x = np.random.default_rng(n).standard_normal(n)
        want = lfilter_lowpass(x, cutoff, 22050)
        got = _one_pole_lowpass(x, cutoff, 22050)
        assert got.shape == want.shape
        if n:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_wav_bytes_match_the_oracle(self, tmp_path, monkeypatch, category, seed):
        assert_wav_bytes_match(tmp_path, monkeypatch, category, seed,
                               "_one_pole_lowpass", lfilter_lowpass)


def fill_by_chunks(tone, n, chunk):
    """The n samples of `tone` filled by one `_sinusoid` call per `chunk`
    samples, each into a fresh buffer."""
    return np.concatenate([_sinusoid(tone, start, np.full(min(chunk, n - start), np.nan),
                                     np.empty(chunk))
                           for start in range(0, n, chunk)])


# lengths on both sides of one sine block and of one chunk, and 30 s
LENGTHS = [1, _SINE_BLOCK - 1, _SINE_BLOCK, _SINE_BLOCK + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]


class TestSinusoid:
    # harmonics 1 and 5 of a 1.1 Hz rotation (the fastest wheel, 60 rpm, at
    # +10% jitter); n on both sides of one 4096-sample block, and 30 s, from
    # the recording's start and from later chunk starts
    @pytest.mark.parametrize("harmonic", [1, 5])
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, pytest.param(None, id="30s")])
    @pytest.mark.parametrize("sample_rate", [8000, 22050, 48000])
    def test_matches_np_sin(self, sample_rate, n, harmonic):
        n = 30 * sample_rate if n is None else n
        omega = 2.0 * np.pi * harmonic * 1.1
        phase = 5.0
        for start in (0, _CHUNK, 3 * _CHUNK):
            want = np.sin(np.arange(start, start + n) / sample_rate * omega + phase)
            tone = _tone(omega / sample_rate, phase, start + n)
            got = _sinusoid(tone, start, np.full(n, np.nan), np.empty(n))
            assert got.shape == want.shape
            if n:
                largest_angle = (start + n - 1) / sample_rate * omega + phase
                assert np.max(np.abs(got - want)) <= 1e-15 * (1 + largest_angle)

    @pytest.mark.parametrize("n", [*LENGTHS, pytest.param(30 * 22050, id="30s")])
    def test_chunk_by_chunk_is_one_call_and_the_per_block_oracle(self, n):
        step, phase = 2.0 * np.pi * 5 * 1.1 / 22050, 5.0
        tone = _tone(step, phase, n)
        whole = _sinusoid(tone, 0, np.full(n, np.nan), np.empty(n))
        assert np.array_equal(whole, per_block_sinusoid(step, phase, np.empty(n)))
        for chunk in (_SINE_BLOCK, _CHUNK):
            assert np.array_equal(fill_by_chunks(tone, n, chunk), whole)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_wav_bytes_match_the_oracle(self, tmp_path, monkeypatch, category, seed):
        assert_wav_bytes_match(tmp_path, monkeypatch, category, seed, "_sinusoid", sin_oracle)


class TestConditionSpec:
    def test_category_parsing(self):
        spec = spec_for_category("wet_60")
        assert spec.friction == "wet" and spec.speed_rpm == 60
        assert spec.cutoff_hz == 1200.0
        assert spec_for_category("dry_40").cutoff_hz == 4000.0

    def test_bad_category(self):
        with pytest.raises(ValueError):
            spec_for_category("damp_50")

    def test_validation(self):
        with pytest.raises(ValueError):
            ConditionSpec(friction="dry", speed_rpm=40, duration_s=0)
        for duration in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ConditionSpec(friction="dry", speed_rpm=40, duration_s=duration)
        # a bad override is not reported as a bad category name
        with pytest.raises(ValueError, match="^duration_s must be positive and finite"):
            spec_for_category("dry_40", duration_s=math.inf)

    def test_cutoff_must_fit_below_nyquist(self):
        spec = ConditionSpec(friction="dry", speed_rpm=40, duration_s=0.5)
        with pytest.raises(ValueError):
            synth_sample(spec, 8000, seed=0)  # default dry cutoff = 4000 = Nyquist


class TestSynthSample:
    # every class at three rates, seeds 0-2; dry cutoffs sit at the Nyquist
    # rate of 8000 Hz, so there both must refuse the spec alike
    @pytest.mark.parametrize("category", CATEGORIES)
    @pytest.mark.parametrize("n", [*LENGTHS, pytest.param(7.3, id="7.3s"),
                                   pytest.param(30.0, id="30s")])
    @pytest.mark.parametrize("sample_rate", [8000, 22050, 48000])
    def test_matches_the_whole_recording_oracle(self, sample_rate, n, category):
        duration = n if isinstance(n, float) else n / sample_rate
        spec = spec_for_category(category, duration)
        for seed in range(3):
            try:
                want = whole_recording_synth_sample(spec, sample_rate, seed)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    synth_sample(spec, sample_rate, seed)
                continue
            got = synth_sample(spec, sample_rate, seed)
            assert got.sample_rate == want.sample_rate
            assert np.array_equal(got.samples, want.samples)

    def test_exact_duration(self):
        spec = ConditionSpec(friction="wet", speed_rpm=40, duration_s=30.0)
        buf = synth_sample(spec, 22050, seed=0)
        assert len(buf) == 661500
        assert buf.sample_rate == 22050

    def test_peak_memory_of_a_thirty_second_file(self):
        spec = spec_for_category("dry_60")
        synth_sample(spec, 22050, seed=0)
        tracemalloc.start()
        try:
            synth_sample(spec, 22050, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the recording and one scratch array for the low-pass and the RMS;
        # the chunked pass adds two 256 KiB buffers and the tone tables
        bound = 2 * 8 * 30 * 22050 + 2**20
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"

    def test_deterministic(self):
        spec = spec_for_category("dry_60", duration_s=0.5)
        a = synth_sample(spec, TINY_SR, seed=11)
        b = synth_sample(spec, TINY_SR, seed=11)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_dry_brighter_than_wet(self):
        for seed in (0, 1, 2):
            dry = synth_sample(spec_for_category("dry_60", duration_s=1.0), TINY_SR, seed)
            wet = synth_sample(spec_for_category("wet_60", duration_s=1.0), TINY_SR, seed)
            assert mean_centroid(dry) > mean_centroid(wet)

    def test_dry_louder_than_wet(self):
        for seed in (0, 1, 2):
            dry = synth_sample(spec_for_category("dry_40", duration_s=1.0), TINY_SR, seed)
            wet = synth_sample(spec_for_category("wet_40", duration_s=1.0), TINY_SR, seed)
            assert mean_rms(dry) > mean_rms(wet)

    def test_faster_louder_at_same_friction(self):
        for seed in (0, 1, 2):
            slow = synth_sample(spec_for_category("wet_40", duration_s=1.0), TINY_SR, seed)
            fast = synth_sample(spec_for_category("wet_60", duration_s=1.0), TINY_SR, seed)
            assert mean_rms(fast) > mean_rms(slow)


class TestSynthCorpus:
    def test_worker_count_does_not_change_the_corpus(self, tmp_path):
        counts = {"dry_40": 2, "dry_60": 1, "wet_40": 0, "wet_60": 2}
        roots = [tmp_path / f"w{workers}" for workers in (1, 2)]
        manifests = [synth_corpus(root, counts=counts, sample_rate=TINY_SR, seed=4,
                                  workers=workers, duration_s=0.3)
                     for root, workers in zip(roots, (1, 2))]
        wavs = [sorted(p.relative_to(root) for p in root.rglob("*.wav")) for root in roots]
        assert wavs[0] == wavs[1] and len(wavs[0]) == 5
        for wav in wavs[0]:
            assert (roots[0] / wav).read_bytes() == (roots[1] / wav).read_bytes()
        relative = [[(Path(path).relative_to(root), cat) for path, cat in manifest]
                    for root, manifest in zip(roots, manifests)]
        assert relative[0] == relative[1]
        texts = [(root / "manifest.csv").read_text().replace(str(root), "<root>")
                 for root in roots]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("counts,sample_rate,workers,seed,match", [
        ({"dry_40": 1, "dry_60": 1, "wet_40": -1, "wet_60": 1}, TINY_SR, 2, 0,
         "negative count for category 'wet_40'"),
        ({c: 1 for c in CATEGORIES}, 4000, 2, 0,
         r"noise cutoff 4000.0 Hz outside \(0, 2000.0\)"),
        ({"dry_nan": 1}, TINY_SR, 2, 0,
         "^bad category name 'dry_nan': speed_rpm must be positive and finite, got nan$"),
        ({"dry_inf": 1}, TINY_SR, 2, 0,
         "^bad category name 'dry_inf': speed_rpm must be positive and finite, got inf$"),
        ({c: 1 for c in CATEGORIES}, TINY_SR, 0, 0, "^workers must be at least 1, got 0$"),
        ({c: 1 for c in CATEGORIES}, TINY_SR, 2, -1, "^seed must be at least 0, got -1$"),
    ], ids=["negative-count", "dry-cutoff-above-nyquist", "nan-speed", "inf-speed",
            "zero-workers", "negative-seed"])
    @pytest.mark.filterwarnings("error")
    def test_bad_settings_write_nothing(self, tmp_path, counts, sample_rate, workers, seed,
                                        match):
        root = tmp_path / "corpus"
        with pytest.raises(ValueError, match=match):
            synth_corpus(root, counts=counts, sample_rate=sample_rate, seed=seed,
                         duration_s=0.3, workers=workers)
        assert not root.exists()

    def test_zero_counts_create_nothing(self, tmp_path):
        root = tmp_path / "corpus"
        with pytest.raises(ValueError, match="^every category count is 0, so there is nothing "
                                             "to write$"):
            synth_corpus(root, counts={c: 0 for c in CATEGORIES}, sample_rate=TINY_SR, seed=0)
        assert not root.exists()

    def test_a_category_counted_0_may_be_an_empty_directory(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "dry_40").mkdir(parents=True)
        manifest = synth_corpus(root, counts={**{c: 1 for c in CATEGORIES}, "dry_40": 0},
                                sample_rate=TINY_SR, seed=2, duration_s=0.3)
        assert sorted({cat for _, cat in manifest}) == ["dry_60", "wet_40", "wet_60"]

    def test_counts_and_manifest(self, tmp_path):
        root = tmp_path / "corpus"
        manifest = synth_corpus(root, counts={"dry_40": 2, "dry_60": 1,
                                              "wet_40": 2, "wet_60": 1},
                                sample_rate=TINY_SR, seed=5, duration_s=0.3)
        assert len(manifest) == 6
        assert sorted({cat for _, cat in manifest}) == sorted(CATEGORIES)
        assert len(list((root / "dry_40").glob("*.wav"))) == 2
        manifest_file = (root / "manifest.csv").read_text()
        assert manifest_file.startswith("#")
        assert "path,category" in manifest_file

    def test_same_seed_same_bytes(self, tmp_path):
        counts = {c: 1 for c in CATEGORIES}
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_corpus(a, counts=counts, sample_rate=TINY_SR, seed=9, duration_s=0.3)
        synth_corpus(b, counts=counts, sample_rate=TINY_SR, seed=9, duration_s=0.3)
        for wav in sorted(p.relative_to(a) for p in a.rglob("*.wav")):
            assert (a / wav).read_bytes() == (b / wav).read_bytes()

    def test_files_are_independent(self, tmp_path):
        root = tmp_path / "corpus"
        synth_corpus(root, counts={"dry_40": 2, "dry_60": 1, "wet_40": 1, "wet_60": 1},
                     sample_rate=TINY_SR, seed=3, duration_s=0.3)
        files = sorted((root / "dry_40").glob("*.wav"))
        assert files[0].read_bytes() != files[1].read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_synth_corpus_does_not_load_scipy_signal(tmp_path, workers):
    # nor scipy.sparse, which only extraction needs; one worker filters in
    # this process, two fork workers from it
    code = ("import sys; from wrice.synth import synth_corpus; "
            "synth_corpus(sys.argv[1], counts={'dry_40': 2, 'wet_60': 1}, "
            f"sample_rate={TINY_SR}, seed=1, duration_s=0.3, workers={workers}); "
            "print([m for m in ('scipy.signal', 'scipy.sparse') if m in sys.modules])")
    done = fresh_python("-c", code, tmp_path / "corpus")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert len(list((tmp_path / "corpus").rglob("*.wav"))) == 3
