"""Feature families: closed forms, independent oracles, and invariants."""

import tracemalloc

import numpy as np
import pytest

import scipy.fft

from conftest import naive_dft, noise_buffer, sine_buffer, spectrogram_from
from wrice.audio_io import AudioBuffer
from wrice.dsp import (BLOCK_FRAMES, Spectrogram, StftConfig, frame_signal, hann_window,
                       rfft, stft)
from wrice.features import (FeatureConfig, FeatureVector, chroma_mean,
                            dct_ortho_matrix, extract_features, feature_names,
                            hz_to_mel, mel_filterbank, mfcc_means,
                            mfccs_from_mel_energies, rms_mean,
                            spectral_bandwidth_mean, spectral_centroid_mean,
                            spectral_rolloff_mean, zcr_mean)
from wrice.synth import spec_for_category, synth_sample

SR = 22050
CFG = StftConfig()


class TestZcr:
    def test_constant_signal_never_crosses(self):
        assert zcr_mean(np.ones((3, 64))) == 0.0

    def test_alternating_signal(self):
        n = 64
        frame = np.tile([1.0, -1.0], n // 2)
        assert zcr_mean(frame[None, :]) == pytest.approx((n - 1) / n)

    def test_zero_counts_as_nonnegative(self):
        # 0 -> -1 flips, -1 -> 0 flips, 0 -> 1 does not
        frame = np.array([[0.0, -1.0, 0.0, 1.0]])
        assert zcr_mean(frame) == pytest.approx(2 / 4)

    def test_sine_rate_approximates_2f_over_sr(self):
        freq = 500
        buf = sine_buffer(freq, SR, seconds=1.0)
        frames = frame_signal(buf.samples, CFG)
        got = zcr_mean(frames)
        # independent oracle: count flips over the whole signal
        signs = buf.samples >= 0
        whole = np.count_nonzero(signs[1:] != signs[:-1]) / len(buf)
        assert got == pytest.approx(whole, rel=0.02)
        assert got == pytest.approx(2 * freq / SR, rel=0.05)

    def test_no_frames(self):
        with pytest.raises(ValueError):
            zcr_mean(np.empty((0, 16)))


class TestRms:
    def test_silence(self):
        assert rms_mean(np.zeros((2, 32))) == 0.0

    def test_constant_amplitude(self):
        assert rms_mean(np.full((2, 32), 0.3)) == pytest.approx(0.3)

    def test_unit_sine_is_inverse_sqrt2(self):
        buf = sine_buffer(300, SR, seconds=1.0)
        frames = frame_signal(buf.samples, CFG)
        assert rms_mean(frames) == pytest.approx(1 / np.sqrt(2), rel=0.01)

    def test_no_frames(self):
        with pytest.raises(ValueError):
            rms_mean(np.empty((0, 16)))


class TestCentroid:
    def test_single_bin_is_that_frequency(self):
        mags = np.zeros(1025)
        mags[200] = 3.0
        spec = spectrogram_from(mags)
        assert spectral_centroid_mean(spec) == spec.bin_freqs[200]

    def test_flat_spectrum_is_mean_bin_freq(self):
        spec = spectrogram_from(np.ones(1025))
        assert spectral_centroid_mean(spec) == pytest.approx(spec.bin_freqs.mean())

    def test_silent_frame_contributes_zero(self):
        mags = np.zeros((2, 1025))
        mags[0, 100] = 1.0
        spec = spectrogram_from(mags)
        expected = spec.bin_freqs[100] / 2
        assert spectral_centroid_mean(spec) == pytest.approx(expected)

    def test_sine_tracks_frequency_and_matches_dft_oracle(self):
        buf = sine_buffer(1000, SR, seconds=0.5)
        spec = stft(buf, CFG)
        got = spectral_centroid_mean(spec)
        assert got == pytest.approx(1000, rel=0.02)
        # recompute from brute-force DFT magnitudes of the same frames
        frames = frame_signal(buf.samples, CFG) * hann_window(CFG.frame_len)
        centroids = []
        for frame in frames:
            mags = np.abs(naive_dft(frame))[:1025]
            centroids.append(np.sum(mags * spec.bin_freqs) / np.sum(mags))
        assert got == pytest.approx(np.mean(centroids), rel=1e-9)


class TestBandwidth:
    def test_single_bin_has_zero_spread(self):
        mags = np.zeros(1025)
        mags[321] = 2.0
        assert spectral_bandwidth_mean(spectrogram_from(mags)) == 0.0

    def test_symmetric_pair_gives_delta(self):
        mags = np.zeros(1025)
        mags[400] = 1.0
        mags[500] = 1.0
        spec = spectrogram_from(mags)
        delta = (spec.bin_freqs[500] - spec.bin_freqs[400]) / 2
        assert spectral_bandwidth_mean(spec) == pytest.approx(delta)

    def test_matches_per_frame_formula_on_noise(self):
        spec = stft(noise_buffer(0.3, SR, seed=8), CFG)
        got = spectral_bandwidth_mean(spec)
        per_frame = []
        for mags in spec.magnitudes:
            total = mags.sum()
            centroid = np.sum(mags * spec.bin_freqs) / total
            per_frame.append(np.sqrt(np.sum(mags * (spec.bin_freqs - centroid) ** 2) / total))
        assert got == pytest.approx(np.mean(per_frame), rel=1e-9)


class TestRolloff:
    def test_single_bin_any_pct(self):
        mags = np.zeros(1025)
        mags[77] = 1.0
        spec = spectrogram_from(mags)
        assert spectral_rolloff_mean(spec) == spec.bin_freqs[77]

    def test_flat_energy_counting(self):
        spec = spectrogram_from(np.ones(1025))
        expected = spec.bin_freqs[int(np.ceil(0.85 * 1025)) - 1]
        assert spectral_rolloff_mean(spec) == pytest.approx(expected)

    def test_silent_frame_contributes_zero(self):
        spec = spectrogram_from(np.zeros((1, 1025)))
        assert spectral_rolloff_mean(spec) == 0.0


class TestMelFilterbank:
    def test_scale_closed_form(self):
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), abs=1e-9)
        assert hz_to_mel(0.0) == 0.0

    def test_default_shape(self):
        bank = mel_filterbank(FeatureConfig(), 2048, SR)
        assert bank.shape == (128, 1025)

    def test_rows_have_unit_peak_and_positive_mass(self):
        bank = mel_filterbank(FeatureConfig(), 2048, SR)
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
        out = mfccs_from_mel_energies(np.ones((3, 128)), FeatureConfig())
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_exactly_twenty_coefficients(self):
        spec = stft(noise_buffer(0.2, SR, seed=1), CFG)
        assert mfcc_means(spec, FeatureConfig()).shape == (20,)

    def test_half_amplitude_moves_only_coefficient_zero(self):
        buf = noise_buffer(0.4, SR, amplitude=0.5, seed=3)
        half = AudioBuffer(buf.samples / 2, SR)
        full_c = mfcc_means(stft(buf, CFG), FeatureConfig())
        half_c = mfcc_means(stft(half, CFG), FeatureConfig())
        assert abs(full_c[0] - half_c[0]) > 0.1
        np.testing.assert_allclose(full_c[1:], half_c[1:], atol=1e-6)

    def test_silence_stays_finite(self):
        spec = spectrogram_from(np.zeros((2, 1025)))
        out = mfcc_means(spec, FeatureConfig())
        assert np.isfinite(out).all()


class TestChroma:
    def test_silence_is_zero(self):
        assert chroma_mean(spectrogram_from(np.zeros((2, 1025)))) == 0.0

    def test_octaves_share_a_pitch_class(self):
        spec = stft(sine_buffer(440, SR, 0.5), CFG)
        spec_octave = stft(sine_buffer(880, SR, 0.5), CFG)

        def class_profile(s):
            positive = s.bin_freqs > 0
            classes = (np.round(12 * np.log2(s.bin_freqs[positive] / 440.0)).astype(int)) % 12
            profile = np.zeros(12)
            np.add.at(profile, classes, (s.magnitudes[:, positive] ** 2).sum(axis=0))
            return profile

        assert class_profile(spec).argmax() == class_profile(spec_octave).argmax() == 0

    def test_pure_tone_concentrates_energy(self):
        # direct bin-mapping oracle: compare against explicit accumulation
        spec = stft(sine_buffer(440, SR, 0.5), CFG)
        positive = spec.bin_freqs > 0
        classes = (np.round(12 * np.log2(spec.bin_freqs[positive] / 440.0)).astype(int)) % 12
        profile = np.zeros(12)
        np.add.at(profile, classes, (spec.magnitudes[:, positive] ** 2).sum(axis=0))
        assert profile.argmax() == 0

        got = chroma_mean(spec)
        # oracle recomputation of the scalar
        frames = spec.magnitudes[:, positive] ** 2
        acc = np.zeros((spec.n_frames, 12))
        for c in range(12):
            acc[:, c] = frames[:, classes == c].sum(axis=1)
        peaks = acc.max(axis=1, keepdims=True)
        normalized = np.where(peaks > 0, acc / np.where(peaks > 0, peaks, 1), 0)
        assert got == pytest.approx(normalized.mean(), rel=1e-12)

    def test_values_in_unit_interval(self):
        spec = stft(noise_buffer(0.3, SR, seed=5), CFG)
        assert 0.0 < chroma_mean(spec) <= 1.0


class TestExtractFeatures:
    def test_vector_has_26_values_in_schema_order(self):
        fv = extract_features(noise_buffer(0.2, SR, seed=2), CFG, FeatureConfig())
        assert len(fv) == 26
        assert len(feature_names()) == 26
        assert feature_names()[:6] == ["zcr_mean", "centroid_mean", "bandwidth_mean",
                                       "rolloff_mean", "rms_mean", "chroma_mean"]
        assert feature_names()[-1] == "mfcc_mean_20"

    def test_deterministic_bitwise(self):
        buf = noise_buffer(0.2, SR, seed=4)
        a = extract_features(buf, CFG, FeatureConfig())
        b = extract_features(buf, CFG, FeatureConfig())
        np.testing.assert_array_equal(a.values, b.values)

    def test_digital_silence_is_finite_with_zero_rates(self):
        fv = extract_features(AudioBuffer(np.zeros(4096), SR), CFG, FeatureConfig())
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
            extract_features(AudioBuffer(np.zeros(100), SR), CFG, FeatureConfig())

    def test_amplitude_scaling_invariance(self):
        buf = noise_buffer(0.3, SR, seed=6)
        doubled = AudioBuffer(buf.samples * 2.0, SR)
        base = extract_features(buf, CFG, FeatureConfig()).values
        scaled = extract_features(doubled, CFG, FeatureConfig()).values
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
        buf = sine_buffer(freq, SR, seconds=0.6)
        spec = stft(buf, CFG)
        frames = frame_signal(buf.samples, CFG)
        bin_width = SR / CFG.frame_len
        assert spectral_centroid_mean(spec) == pytest.approx(freq, rel=0.02)
        rolloff = spectral_rolloff_mean(spec)
        assert abs(rolloff - freq) <= 2 * bin_width
        assert spectral_bandwidth_mean(spec) <= 4 * bin_width
        assert zcr_mean(frames) == pytest.approx(2 * freq / SR, rel=0.05)


def radix2_spectrogram(buf, cfg: StftConfig) -> Spectrogram:
    """Hann-windowed magnitudes on the STFT frame grid, via the radix-2 rfft."""
    frames = frame_signal(buf.samples, cfg) * hann_window(cfg.frame_len)
    magnitudes = np.vstack([np.abs(rfft(frames[i : i + 256]))
                            for i in range(0, frames.shape[0], 256)])
    bin_freqs = np.arange(cfg.frame_len // 2 + 1) * (buf.sample_rate / cfg.frame_len)
    return Spectrogram(magnitudes=magnitudes, bin_freqs=bin_freqs,
                       config=cfg, sample_rate=buf.sample_rate)


class TestGoldenAgainstRadix2:
    """extract_features pinned to the seven families on a radix-2 spectrogram."""

    @pytest.mark.parametrize("category,seed", [("dry_40", 11), ("wet_60", 12),
                                               ("dry_60", 13)])
    def test_thirty_second_buffers_agree(self, category, seed):
        buf = synth_sample(spec_for_category(category), SR, seed)
        assert len(buf) == 30 * SR
        feat_cfg = FeatureConfig()
        frames = frame_signal(buf.samples, CFG)
        spec = radix2_spectrogram(buf, CFG)
        want = np.concatenate([
            [zcr_mean(frames),
             spectral_centroid_mean(spec),
             spectral_bandwidth_mean(spec),
             spectral_rolloff_mean(spec),
             rms_mean(frames),
             chroma_mean(spec)],
            mfcc_means(spec, feat_cfg),
        ])
        got = extract_features(buf, CFG, feat_cfg).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def assert_matches_families(buf, stft_cfg: StftConfig, feat_cfg: FeatureConfig):
    """extract_features, reduced block by block, against the seven public
    family functions on the whole `stft` spectrogram."""
    frames = frame_signal(buf.samples, stft_cfg)
    spec = stft(buf, stft_cfg)
    want = np.concatenate([
        [zcr_mean(frames),
         spectral_centroid_mean(spec),
         spectral_bandwidth_mean(spec),
         spectral_rolloff_mean(spec),
         rms_mean(frames),
         chroma_mean(spec)],
        mfcc_means(spec, feat_cfg),
    ])
    got = extract_features(buf, stft_cfg, feat_cfg).values
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
        assert_matches_families(buf, CFG, FeatureConfig())

    def test_silence_across_a_block_boundary(self, rolling):
        samples = rolling[: CFG.frame_len + 199 * CFG.hop].copy()
        samples[40 * CFG.hop : 90 * CFG.hop] = 0.0  # frames 40..86 hold only zeros
        buf = AudioBuffer(samples, SR)
        spec = stft(buf, CFG)
        loud_rows = spec.magnitudes.max(axis=1) > 0
        silent = np.flatnonzero(~loud_rows)
        assert silent.min() < BLOCK_FRAMES < silent.max()
        assert_matches_families(buf, CFG, FeatureConfig())
        # silent frames count in the frame total but add 0
        loud = Spectrogram(magnitudes=spec.magnitudes[loud_rows], bin_freqs=spec.bin_freqs,
                           config=CFG, sample_rate=SR)
        share = loud.n_frames / spec.n_frames
        got = dict(zip(feature_names(), extract_features(buf, CFG, FeatureConfig()).values))
        for name, family in [("centroid_mean", spectral_centroid_mean),
                             ("rolloff_mean", spectral_rolloff_mean),
                             ("chroma_mean", chroma_mean)]:
            assert got[name] == pytest.approx(share * family(loud), rel=1e-12), name

    @pytest.mark.parametrize("stft_cfg,feat_cfg", [
        pytest.param(StftConfig(window="rectangular"), FeatureConfig(), id="rectangular"),
        pytest.param(CFG, FeatureConfig(n_mels=40, n_mfcc=13), id="40-mels-13-mfccs"),
        pytest.param(StftConfig(frame_len=1024, hop=256), FeatureConfig(), id="frame-1024-hop-256"),
    ])
    def test_non_default_configs(self, rolling, stft_cfg, feat_cfg):
        assert_matches_families(AudioBuffer(rolling[: 5 * SR], SR), stft_cfg, feat_cfg)

    def test_peak_memory_of_a_thirty_second_buffer(self, rolling):
        buf = AudioBuffer(rolling, SR)
        assert len(buf) == 30 * SR
        extract_features(buf, CFG, FeatureConfig())  # caches filled before tracing
        tracemalloc.start()
        try:
            extract_features(buf, CFG, FeatureConfig())
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
