"""Feature families: closed forms, independent oracles, and invariants."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.fft

from conftest import (bin_freqs, family_means, frame_zcr, magnitudes, naive_dft, noise_buffer,
                      rfft, sequential_rolloffs, sine_buffer)
from wrice.audio_io import AudioBuffer
from wrice.dsp import BLOCK_FRAMES, StftConfig, frame_signal, hann_window
from wrice.features import (BANDWIDTH_ORDER, N_MELS, ROLLOFF_PCT, FeatureVector, bandwidths,
                            centroids, chroma_projector, chromas, dct_ortho_matrix,
                            extract_features, feature_names, hz_to_mel, mel_filterbank, mfccs,
                            mfccs_from_mel_energies, rms, rolloffs, zcr)
from wrice.synth import spec_for_category, synth_sample

SR = 22050
CFG = StftConfig()
FREQS = bin_freqs(CFG.frame_len, SR)


def feature(buf, name: str) -> float:
    """One column of `extract_features` at the default settings."""
    return extract_features(buf, CFG).values[feature_names().index(name)]


def one_bin(index: int, value: float = 1.0) -> np.ndarray:
    """A one-frame magnitude (or power) row with energy in a single bin."""
    mags = np.zeros((1, FREQS.size))
    mags[0, index] = value
    return mags


class TestZcr:
    def test_constant_signal_never_crosses(self):
        np.testing.assert_array_equal(zcr(np.ones(3 * 64), StftConfig(64, 64)), [0.0, 0.0, 0.0])

    def test_alternating_signal(self):
        n = 64
        frame = np.tile([1.0, -1.0], n // 2)
        assert zcr(frame, StftConfig(n, n)) == pytest.approx([(n - 1) / n])

    def test_zero_counts_as_nonnegative(self):
        # 0 -> -1 flips, -1 -> 0 flips, 0 -> 1 does not
        frame = np.array([0.0, -1.0, 0.0, 1.0])
        assert zcr(frame, StftConfig(4, 4)) == pytest.approx([2 / 4])

    def test_takes_any_sequence_of_samples(self):
        np.testing.assert_array_equal(zcr([0, -1, 0, 1], StftConfig(4, 4)), [2 / 4])

    def test_sine_rate_approximates_2f_over_sr(self):
        freq = 500
        buf = sine_buffer(freq, SR, seconds=1.0)
        got = feature(buf, "zcr_mean")
        # independent oracle: count flips over the whole signal
        signs = buf.samples >= 0
        whole = np.count_nonzero(signs[1:] != signs[:-1]) / len(buf)
        assert got == pytest.approx(whole, rel=0.02)
        assert got == pytest.approx(2 * freq / SR, rel=0.05)

    def test_no_frames(self):
        # one value per frame, so none for no frames
        assert zcr(np.zeros(15), StftConfig(16, 4)).shape == (0,)

    @pytest.fixture(scope="class")
    def with_zeros(self):
        """2 s of rolling noise with exact zeros: a silent stretch, lone zero
        samples, and from sample 20000 a stretch quantised coarsely enough
        to hold runs of zeros between sign changes."""
        samples = synth_sample(spec_for_category("wet_40"), SR, 21).samples[: 2 * SR].copy()
        samples[3000:7000] = 0.0
        samples[9000::997] = 0.0
        samples[20000:30000] = np.round(4 * samples[20000:30000]) / 4
        return samples

    @pytest.mark.parametrize("frame_len,hop", [(2048, 512), (1024, 256), (2048, 500),
                                               (256, 256), (512, 3)])
    def test_one_pass_equals_counting_each_frame(self, with_zeros, frame_len, hop):
        cfg = StftConfig(frame_len, hop)
        # the whole signal, then one frame (exactly, and with hop - 1 samples
        # left over) and too few samples for a frame, cut across the
        # quantised stretch's start
        cuts = [(with_zeros, None), (with_zeros[19900 : 19900 + frame_len], 1),
                (with_zeros[19900 : 19899 + frame_len + hop], 1),
                (with_zeros[19900 : 19899 + frame_len], 0)]
        for samples, n_frames in cuts:
            want = frame_zcr(frame_signal(samples, cfg))
            got = zcr(samples, cfg)
            assert np.array_equal(got, want), (len(samples), got, want)
            assert n_frames is None or got.shape == (n_frames,)


class TestRms:
    def test_silence(self):
        np.testing.assert_array_equal(rms(np.zeros((2, 32))), [0.0, 0.0])

    def test_constant_amplitude(self):
        assert rms(np.full((2, 32), 0.3)) == pytest.approx([0.3, 0.3])

    def test_unit_sine_is_inverse_sqrt2(self):
        buf = sine_buffer(300, SR, seconds=1.0)
        assert feature(buf, "rms_mean") == pytest.approx(1 / np.sqrt(2), rel=0.01)

    def test_no_frames(self):
        # one value per frame, so none for no frames
        assert rms(np.empty((0, 16))).shape == (0,)


class TestCentroid:
    def test_single_bin_is_that_frequency(self):
        np.testing.assert_array_equal(centroids(one_bin(200, 3.0), FREQS), [FREQS[200]])

    def test_flat_spectrum_is_mean_bin_freq(self):
        assert centroids(np.ones((1, FREQS.size)), FREQS) == pytest.approx([FREQS.mean()])

    def test_silent_frame_contributes_zero(self):
        mags = np.zeros((2, FREQS.size))
        mags[0, 100] = 1.0
        assert centroids(mags, FREQS) == pytest.approx([FREQS[100], 0.0])

    def test_sine_tracks_frequency_and_matches_dft_oracle(self):
        buf = sine_buffer(1000, SR, seconds=0.5)
        got = feature(buf, "centroid_mean")
        assert got == pytest.approx(1000, rel=0.02)
        # recompute from brute-force DFT magnitudes of the same frames
        frames = frame_signal(buf.samples, CFG) * hann_window(CFG.frame_len)
        per_frame = []
        for frame in frames:
            mags = np.abs(naive_dft(frame))[:1025]
            per_frame.append(np.sum(mags * FREQS) / np.sum(mags))
        assert got == pytest.approx(np.mean(per_frame), rel=1e-9)


class TestBandwidth:
    def test_single_bin_has_zero_spread(self):
        mags = one_bin(321, 2.0)
        np.testing.assert_array_equal(bandwidths(mags, FREQS, centroids(mags, FREQS)), [0.0])

    def test_symmetric_pair_gives_delta(self):
        mags = one_bin(400) + one_bin(500)
        delta = (FREQS[500] - FREQS[400]) / 2
        assert bandwidths(mags, FREQS, centroids(mags, FREQS)) == pytest.approx([delta])

    def test_matches_per_frame_formula_on_noise(self):
        buf = noise_buffer(0.3, SR, seed=8)
        got = feature(buf, "bandwidth_mean")
        per_frame = []
        for mags in magnitudes(buf, CFG):
            total = mags.sum()
            centroid = np.sum(mags * FREQS) / total
            per_frame.append(np.sqrt(np.sum(mags * (FREQS - centroid) ** 2) / total))
        assert got == pytest.approx(np.mean(per_frame), rel=1e-9)

    def test_order_is_the_square_it_computes(self):
        # `bandwidths` squares the deviations and model headers record
        # `BANDWIDTH_ORDER`: the two must not drift apart
        assert BANDWIDTH_ORDER == 2


ROLLOFF_ROWS = ("noise", "sparse", "tie", "zero", "one-bin", "subnormal", "overflow",
                "not-finite", "rounds-up", "rounds-down")


def rolloff_row(kind: str, n: int, rng) -> np.ndarray:
    """One row of `n` power bins of the named kind, for the roll-off property test.

    "tie": non-negative integers, scaled by a power of two, whose prefix sum
    at a random bin equals the threshold exactly. "rounds-up" and
    "rounds-down": a pair of bins summing to 1 at a random place, followed by
    bins of just over (up) or just under (down) half an ulp of 1, which the
    sequential sum rounds up to a whole ulp or drops, so that its threshold
    strays from the exact one by up to about 0.85·n·u (u = 2^-53); the first
    bin of the pair is placed a random fraction of the way between the two
    thresholds, so that only a margin of at least that size keeps the
    answer."""
    row = np.zeros(n)
    place = int(rng.integers(0, n - 1))
    if kind == "noise":
        row = rng.standard_normal(n) ** 2 * 10.0 ** rng.uniform(-30, 30)
    elif kind == "sparse":
        row = rng.standard_normal(n) ** 2 * (rng.random(n) < 0.05)
    elif kind == "tie":
        left = rng.integers(0, 8, place + 1)
        right = rng.integers(0, 8, n - place - 1)
        left[-1] += 1
        right[rng.integers(0, right.size)] += 1
        row = np.concatenate([left * 17 * right.sum(), right * 3 * left.sum()])
        row = np.ldexp(row.astype(float), int(rng.integers(-40, 40)))
        assert ROLLOFF_PCT * np.cumsum(row)[-1] == np.cumsum(row)[place]
    elif kind == "one-bin":
        row[place] = 10.0 ** rng.uniform(-300, 300)
    elif kind == "subnormal":
        row = rng.integers(0, 1000, n) * 5e-324
    elif kind == "overflow":
        row = rng.uniform(0.6, 1.0, n) * np.finfo(np.float64).max
    elif kind == "not-finite":
        row = rng.standard_normal(n) ** 2
        row[place] = rng.choice([np.inf, np.nan])
    elif kind in ("rounds-up", "rounds-down"):
        half_ulp = 2.0**-53 * (1 + 2.0**-10 if kind == "rounds-up" else 1 - 2.0**-10)
        row[place + 2 :] = half_ulp
        row[place : place + 2] = 0.5
        sequential = ROLLOFF_PCT * np.cumsum(row)[-1]
        exact = ROLLOFF_PCT * math.fsum(row)
        row[place] = exact + rng.random() * (sequential - exact)
        row[place + 1] = 1.0 - row[place]
    return row


class TestRolloff:
    def test_single_bin_any_pct(self):
        np.testing.assert_array_equal(rolloffs(one_bin(77), FREQS), [FREQS[77]])

    def test_flat_energy_counting(self):
        expected = FREQS[int(np.ceil(0.85 * 1025)) - 1]
        assert rolloffs(np.ones((1, FREQS.size)), FREQS) == pytest.approx([expected])

    def test_silent_frame_contributes_zero(self):
        np.testing.assert_array_equal(rolloffs(np.zeros((1, FREQS.size)), FREQS), [0.0])

    @pytest.mark.parametrize("log2_frame", range(1, 13))  # frames of 2 to 4096 samples
    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(kinds=st.lists(st.sampled_from(ROLLOFF_ROWS), min_size=1, max_size=64),
           layout=st.sampled_from(("C", "F", "strided")), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_sequential_running_sum(self, log2_frame, kinds, layout, seed):
        rng = np.random.default_rng(seed)
        n = 2**log2_frame // 2 + 1
        block = np.array([rolloff_row(kind, n, rng) for kind in kinds])
        if layout == "F":
            block = np.asfortranarray(block)
        elif layout == "strided":
            wide = np.zeros((len(kinds), 2 * n))
            wide[:, 1::2] = block
            block = wide[:, 1::2]
        freqs = np.arange(n) * (SR / 2**log2_frame)
        with np.errstate(over="ignore"):  # "overflow" rows overflow the sequential sum
            want = sequential_rolloffs(block, freqs)
            got = rolloffs(block, freqs)
        assert np.array_equal(got, want)

    def test_a_block_with_a_negative_value_takes_the_sequential_sum(self):
        # +4 and -4 cancel inside one chunk, so chunk sums would put the
        # roll-off in the last bin, while the running sum crosses at bin 3
        block = np.random.default_rng(2).random((3, FREQS.size)) * 1e-3
        block[1, 3:5] = 4.0, -4.0
        block[1, -1] = 1.0
        assert rolloffs(block, FREQS)[1] == FREQS[3]
        assert np.array_equal(rolloffs(block, FREQS), sequential_rolloffs(block, FREQS))

    def test_equals_the_sequential_running_sum_on_extraction_blocks(self):
        buf = synth_sample(spec_for_category("dry_60"), SR, 31)
        for noise in (0.0, 0.005, 0.05, 0.5):
            samples = buf.samples + noise * np.random.default_rng(1).standard_normal(len(buf))
            power = np.square(magnitudes(AudioBuffer(samples, SR), CFG))
            assert np.array_equal(rolloffs(power, FREQS), sequential_rolloffs(power, FREQS))


class TestMelFilterbank:
    def test_scale_closed_form(self):
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), abs=1e-9)
        assert hz_to_mel(0.0) == 0.0

    def test_default_shape(self):
        bank = mel_filterbank(N_MELS, 2048, SR)
        assert bank.shape == (128, 1025)

    def test_rows_have_unit_peak_and_positive_mass(self):
        bank = mel_filterbank(N_MELS, 2048, SR)
        np.testing.assert_array_equal(bank.max(axis=1), np.ones(128))
        assert (bank.sum(axis=1) > 0).all()
        assert (bank >= 0).all() and (bank <= 1).all()


class TestMfcc:
    def test_dct_round_trip_against_scipy(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(128)
        mat = dct_ortho_matrix(128)
        coeffs = mat @ x
        np.testing.assert_allclose(coeffs, scipy.fft.dct(x, type=2, norm="ortho"),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(mat.T @ coeffs, x, atol=1e-9)

    def test_constant_mel_energies_give_zero_coefficients(self):
        out = mfccs_from_mel_energies(np.ones((3, 128)))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_exactly_twenty_coefficients(self):
        power = np.square(magnitudes(noise_buffer(0.2, SR, seed=1), CFG))
        bank = mel_filterbank(N_MELS, CFG.frame_len, SR)
        assert mfccs(power, bank).shape == (power.shape[0], 20)

    def test_half_amplitude_moves_only_coefficient_zero(self):
        buf = noise_buffer(0.4, SR, amplitude=0.5, seed=3)
        half = AudioBuffer(buf.samples / 2, SR)
        full_c = extract_features(buf, CFG).values[6:]
        half_c = extract_features(half, CFG).values[6:]
        assert abs(full_c[0] - half_c[0]) > 0.1
        np.testing.assert_allclose(full_c[1:], half_c[1:], atol=1e-6)

    def test_silence_stays_finite(self):
        bank = mel_filterbank(N_MELS, CFG.frame_len, SR)
        out = mfccs(np.zeros((2, FREQS.size)), bank)
        assert np.isfinite(out).all()


def class_profile(mags: np.ndarray) -> np.ndarray:
    """Pitch-class energy summed over frames, by explicit bin mapping."""
    positive = FREQS > 0
    classes = (np.round(12 * np.log2(FREQS[positive] / 440.0)).astype(int)) % 12
    profile = np.zeros(12)
    np.add.at(profile, classes, (mags[:, positive] ** 2).sum(axis=0))
    return profile


class TestChroma:
    def test_silence_is_zero(self):
        projector = chroma_projector(CFG.frame_len, SR)
        np.testing.assert_array_equal(chromas(np.zeros((2, FREQS.size)), projector), [0, 0])

    def test_octaves_share_a_pitch_class(self):
        mags = magnitudes(sine_buffer(440, SR, 0.5), CFG)
        mags_octave = magnitudes(sine_buffer(880, SR, 0.5), CFG)
        assert class_profile(mags).argmax() == class_profile(mags_octave).argmax() == 0

    def test_pure_tone_concentrates_energy(self):
        # direct bin-mapping oracle: compare against explicit accumulation
        buf = sine_buffer(440, SR, 0.5)
        mags = magnitudes(buf, CFG)
        assert class_profile(mags).argmax() == 0

        got = feature(buf, "chroma_mean")
        # oracle recomputation of the scalar
        positive = FREQS > 0
        classes = (np.round(12 * np.log2(FREQS[positive] / 440.0)).astype(int)) % 12
        frames = mags[:, positive] ** 2
        acc = np.zeros((mags.shape[0], 12))
        for c in range(12):
            acc[:, c] = frames[:, classes == c].sum(axis=1)
        peaks = acc.max(axis=1, keepdims=True)
        normalized = np.where(peaks > 0, acc / np.where(peaks > 0, peaks, 1), 0)
        assert got == pytest.approx(normalized.mean(), rel=1e-12)

    def test_values_in_unit_interval(self):
        assert 0.0 < feature(noise_buffer(0.3, SR, seed=5), "chroma_mean") <= 1.0


class TestExtractFeatures:
    def test_vector_has_26_values_in_schema_order(self):
        fv = extract_features(noise_buffer(0.2, SR, seed=2), CFG)
        assert len(fv) == 26
        assert len(feature_names()) == 26
        assert feature_names()[:6] == ["zcr_mean", "centroid_mean", "bandwidth_mean",
                                       "rolloff_mean", "rms_mean", "chroma_mean"]
        assert feature_names()[-1] == "mfcc_mean_20"

    def test_deterministic_bitwise(self):
        buf = noise_buffer(0.2, SR, seed=4)
        a = extract_features(buf, CFG)
        b = extract_features(buf, CFG)
        np.testing.assert_array_equal(a.values, b.values)

    def test_digital_silence_is_finite_with_zero_rates(self):
        fv = extract_features(AudioBuffer(np.zeros(4096), SR), CFG)
        names = feature_names()
        got = dict(zip(names, fv.values))
        assert got["zcr_mean"] == 0.0
        assert got["rms_mean"] == 0.0
        assert got["centroid_mean"] == 0.0
        assert got["rolloff_mean"] == 0.0
        assert got["chroma_mean"] == 0.0
        assert np.isfinite(fv.values).all()

    def test_too_short_buffer(self):
        with pytest.raises(ValueError):
            extract_features(AudioBuffer(np.zeros(100), SR), CFG)

    def test_amplitude_scaling_invariance(self):
        buf = noise_buffer(0.3, SR, seed=6)
        doubled = AudioBuffer(buf.samples * 2.0, SR)
        base = extract_features(buf, CFG).values
        scaled = extract_features(doubled, CFG).values
        names = feature_names()
        scale_free = [names.index(n) for n in
                      ("zcr_mean", "centroid_mean", "bandwidth_mean",
                       "rolloff_mean", "chroma_mean")]
        np.testing.assert_allclose(scaled[scale_free], base[scale_free],
                                   rtol=1e-9, atol=1e-12)
        assert scaled[names.index("rms_mean")] == pytest.approx(
            2.0 * base[names.index("rms_mean")], rel=1e-12)

    @pytest.mark.parametrize("freq", [100, 441, 1000, 2500, 5000])
    def test_pure_tone_feature_locations(self, freq):
        got = dict(zip(feature_names(), extract_features(sine_buffer(freq, SR, 0.6), CFG).values))
        bin_width = SR / CFG.frame_len
        assert got["centroid_mean"] == pytest.approx(freq, rel=0.02)
        assert abs(got["rolloff_mean"] - freq) <= 2 * bin_width
        assert got["bandwidth_mean"] <= 4 * bin_width
        assert got["zcr_mean"] == pytest.approx(2 * freq / SR, rel=0.05)


def radix2_magnitudes(buf, cfg: StftConfig) -> np.ndarray:
    """Hann-windowed magnitudes on the STFT frame grid, via the radix-2 rfft."""
    frames = frame_signal(buf.samples, cfg) * hann_window(cfg.frame_len)
    return np.vstack([np.abs(rfft(frames[i : i + 256]))
                      for i in range(0, frames.shape[0], 256)])


class TestGoldenAgainstRadix2:
    """extract_features pinned to the seven families on radix-2 magnitudes."""

    @pytest.mark.parametrize("category,seed", [("dry_40", 11), ("wet_60", 12),
                                               ("dry_60", 13)])
    def test_thirty_second_buffers_agree(self, category, seed):
        buf = synth_sample(spec_for_category(category), SR, seed)
        assert len(buf) == 30 * SR
        want = family_means(frame_signal(buf.samples, CFG), radix2_magnitudes(buf, CFG), SR)
        got = extract_features(buf, CFG).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def assert_matches_families(buf, stft_cfg: StftConfig, n_mels: int = N_MELS):
    """extract_features, reduced block by block, against the seven per-frame
    family functions applied once to every frame."""
    want = family_means(frame_signal(buf.samples, stft_cfg), magnitudes(buf, stft_cfg),
                        buf.sample_rate, n_mels)
    got = extract_features(buf, stft_cfg, n_mels).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestBlockEdges:
    @pytest.fixture(scope="class")
    def rolling(self):
        return synth_sample(spec_for_category("wet_40"), SR, 21).samples

    @pytest.mark.parametrize("n_frames", [1, BLOCK_FRAMES - 1, BLOCK_FRAMES,
                                          BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1])
    def test_frame_counts_around_the_block_size(self, rolling, n_frames):
        buf = AudioBuffer(rolling[: CFG.frame_len + (n_frames - 1) * CFG.hop], SR)
        assert frame_signal(buf.samples, CFG).shape[0] == n_frames
        assert_matches_families(buf, CFG)

    def test_silence_across_a_block_boundary(self, rolling):
        samples = rolling[: CFG.frame_len + 199 * CFG.hop].copy()
        samples[40 * CFG.hop : 90 * CFG.hop] = 0.0  # frames 40..86 hold only zeros
        buf = AudioBuffer(samples, SR)
        mags = magnitudes(buf, CFG)
        loud_rows = mags.max(axis=1) > 0
        silent = np.flatnonzero(~loud_rows)
        assert silent.min() < BLOCK_FRAMES < silent.max()
        assert_matches_families(buf, CFG)
        # silent frames count in the frame total but add 0
        share = np.count_nonzero(loud_rows) / loud_rows.size
        loud = family_means(frame_signal(samples, CFG)[loud_rows], mags[loud_rows], SR)
        got = extract_features(buf, CFG).values
        for name in ("centroid_mean", "rolloff_mean", "chroma_mean"):
            i = feature_names().index(name)
            assert got[i] == pytest.approx(share * loud[i], rel=1e-12), name

    @pytest.mark.parametrize("stft_cfg,n_mels", [
        pytest.param(CFG, 40, id="40-mels"),
        pytest.param(StftConfig(frame_len=1024, hop=256), N_MELS, id="frame-1024-hop-256"),
    ])
    def test_non_default_configs(self, rolling, stft_cfg, n_mels):
        assert_matches_families(AudioBuffer(rolling[: 5 * SR], SR), stft_cfg, n_mels)

    def test_peak_memory_of_a_thirty_second_buffer(self, rolling):
        buf = AudioBuffer(rolling, SR)
        assert len(buf) == 30 * SR
        extract_features(buf, CFG)  # caches filled before tracing
        tracemalloc.start()
        try:
            extract_features(buf, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestFeatureVectorType:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.array([1.0, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros((2, 2)))


REPO = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((REPO / "perfbench" / "reference.json").read_text())["golden"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[f"seed-{e['seed']}" for e in GOLDEN])
def test_benchmark_golden_vectors(monkeypatch, entry):
    # the benchmark's golden check, on each of its stored 26-vectors
    monkeypatch.syspath_prepend(str(REPO))
    from perfbench import inputs
    from perfbench.workloads import GOLDEN_RTOL

    got = extract_features(AudioBuffer(inputs.golden_buffer(entry["seed"]), 22050)).values
    want = np.array(entry["values"])
    assert got.shape == want.shape
    worst = float(np.max(np.abs(got - want) / np.abs(want)))
    assert worst <= GOLDEN_RTOL, f"max relative difference {worst:.3g}"
