"""Synthetic corpus generator and additive-noise augmentation."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import wrice
from conftest import TINY_SR, bin_freqs, magnitudes
from wrice import synth
from wrice.audio_io import AudioBuffer, write_wav
from wrice.dsp import StftConfig, frame_signal
from wrice.features import centroids, rms
from wrice.synth import (CATEGORIES, ConditionSpec, _one_pole_lowpass, _sinusoid,
                         add_noise_into, check_noise_scale, spec_for_category, synth_corpus,
                         synth_sample)

CFG = StftConfig(frame_len=1024, hop=256)


def mean_centroid(buf: AudioBuffer) -> float:
    return centroids(magnitudes(buf, CFG), bin_freqs(CFG.frame_len, buf.sample_rate)).mean()


def mean_rms(buf: AudioBuffer) -> float:
    return rms(frame_signal(buf.samples, CFG)).mean()


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


def lfilter_lowpass(x, cutoff_hz, sample_rate):
    """The one-pole low-pass by `scipy.signal.lfilter`: the oracle for the
    block recurrence."""
    alpha = 1.0 - np.exp(-2.0 * np.pi * cutoff_hz / sample_rate)
    return lfilter([alpha], [1.0, alpha - 1.0], x)


def sin_oracle(step, phase, out):
    """Every angle of the sinusoid through one full-length `np.sin`: the
    oracle for the block kernel."""
    return np.sin(np.arange(out.size) * step + phase, out=out)


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


class TestSinusoid:
    # harmonics 1 and 5 of a 1.1 Hz rotation (the fastest wheel, 60 rpm, at
    # +10% jitter); n on both sides of one 4096-sample block, and 30 s
    @pytest.mark.parametrize("harmonic", [1, 5])
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, pytest.param(None, id="30s")])
    @pytest.mark.parametrize("sample_rate", [8000, 22050, 48000])
    def test_matches_np_sin(self, sample_rate, n, harmonic):
        n = 30 * sample_rate if n is None else n
        omega = 2.0 * np.pi * harmonic * 1.1
        phase = 5.0
        want = np.sin(np.arange(n) / sample_rate * omega + phase)
        got = _sinusoid(omega / sample_rate, phase, np.full(n, np.nan))
        assert got.shape == want.shape
        if n:
            largest_angle = (n - 1) / sample_rate * omega + phase
            assert np.max(np.abs(got - want)) <= 1e-15 * (1 + largest_angle)

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
        # the recording and one scratch array for the low-pass, the RMS and
        # the sinusoids; the sinusoid blocks are 4 x 32 KiB
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

    @pytest.mark.parametrize("counts,sample_rate,match", [
        ({"dry_40": 1, "dry_60": 1, "wet_40": -1, "wet_60": 1}, TINY_SR,
         "negative count for category 'wet_40'"),
        ({c: 1 for c in CATEGORIES}, 4000, r"noise cutoff 4000.0 Hz outside \(0, 2000.0\)"),
        ({"dry_nan": 1}, TINY_SR,
         "^bad category name 'dry_nan': speed_rpm must be positive and finite, got nan$"),
        ({"dry_inf": 1}, TINY_SR,
         "^bad category name 'dry_inf': speed_rpm must be positive and finite, got inf$"),
    ], ids=["negative-count", "dry-cutoff-above-nyquist", "nan-speed", "inf-speed"])
    @pytest.mark.filterwarnings("error")
    def test_bad_settings_write_nothing(self, tmp_path, counts, sample_rate, match):
        root = tmp_path / "corpus"
        with pytest.raises(ValueError, match=match):
            synth_corpus(root, counts=counts, sample_rate=sample_rate, seed=0,
                         duration_s=0.3, workers=2)
        assert not root.exists()

    def test_zero_counts_create_nothing(self, tmp_path):
        root = tmp_path / "corpus"
        manifest = synth_corpus(root, counts={c: 0 for c in CATEGORIES},
                                sample_rate=TINY_SR, seed=0)
        assert manifest == []
        assert not root.exists()

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
    # one worker filters in this process; two fork workers from it
    src = str(Path(wrice.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from wrice.synth import synth_corpus; "
            "synth_corpus(sys.argv[1], counts={'dry_40': 2, 'wet_60': 1}, "
            f"sample_rate={TINY_SR}, seed=1, duration_s=0.3, workers={workers}); "
            "print('scipy.signal' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "corpus")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
    assert len(list((tmp_path / "corpus").rglob("*.wav"))) == 3
