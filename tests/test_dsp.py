"""Window, framing, the spectrum path and the FFT oracle against the brute-force DFT."""

import numpy as np
import pytest

from conftest import fft, magnitudes, naive_dft, rfft, sine_buffer, whole_block_magnitudes
from wrice.audio_io import AudioBuffer, write_wav
from wrice.cli import run
from wrice.dsp import (BLOCK_FRAMES, STAGE_FRAMES, BlockSpectra, StftConfig, block_spans,
                       frame_signal, hann_window)
from wrice.features import zcr

# (frame_len, hop) settings: the default, hop equal to the frame, a hop that
# does not divide the frame, and the smallest frame
FRAME_SETTINGS = [(2048, 512), (2048, 2048), (256, 100), (2, 1)]


class TestHann:
    def test_length_four_closed_form(self):
        np.testing.assert_allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 33, 2048])
    def test_first_coefficient_is_zero(self, n):
        assert hann_window(n)[0] == 0.0

    @pytest.mark.parametrize("n", [4, 16, 256, 2048])
    def test_even_length_sums_to_half_n(self, n):
        assert abs(hann_window(n).sum() - n / 2) < 1e-9

    def test_too_short(self):
        with pytest.raises(ValueError):
            hann_window(1)


class TestFrameSignal:
    def test_two_offsets(self):
        cfg = StftConfig(frame_len=4, hop=2)
        frames = frame_signal(np.arange(6.0), cfg)
        np.testing.assert_array_equal(frames, [[0, 1, 2, 3], [2, 3, 4, 5]])

    @pytest.mark.parametrize("frame_len,hop", FRAME_SETTINGS)
    def test_short_signal_gives_no_frames(self, frame_len, hop):
        cfg = StftConfig(frame_len, hop)
        for n_samples in (0, frame_len - 1):
            assert cfg.n_frames(n_samples) == 0
            assert frame_signal(np.zeros(n_samples), cfg).shape == (0, frame_len)
            assert zcr(np.zeros(n_samples), cfg).shape == (0,)
            with pytest.raises(ValueError, match="too short for one frame"):
                block_spans(n_samples, cfg)

    @pytest.mark.parametrize("frame_len,hop", FRAME_SETTINGS)
    def test_count_formula(self, frame_len, hop):
        # `StftConfig.n_frames` is the count that framing, blocking and the
        # zero-crossing rate each give, and that of the frame starts
        # 0, hop, 2 hop, ... whose frame ends inside the signal
        cfg = StftConfig(frame_len, hop)
        for n_samples in (frame_len - 1, frame_len, frame_len + hop - 1, frame_len + hop,
                          30 * 22050):
            want = len(range(0, n_samples - frame_len + 1, hop))
            signal = np.zeros(n_samples)
            assert cfg.n_frames(n_samples) == want, n_samples
            assert frame_signal(signal, cfg).shape == (want, frame_len), n_samples
            assert len(zcr(signal, cfg)) == want, n_samples
            if want:
                spans = block_spans(n_samples, cfg)
                assert sum(len(range(start, stop - frame_len + 1, hop))
                           for start, stop in spans) == want, n_samples

    def test_frames_cover_hop_grid(self):
        cfg = StftConfig(frame_len=4, hop=3)
        sig = np.arange(12.0)
        frames = frame_signal(sig, cfg)
        for i, frame in enumerate(frames):
            np.testing.assert_array_equal(frame, sig[i * 3 : i * 3 + 4])


class TestFftAgainstNaiveDft:
    @pytest.mark.parametrize("n", [2, 4, 64, 256, 1024])
    def test_real_random_frames(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        ref = naive_dft(x)
        scale = np.abs(ref).max()
        assert np.abs(fft(x) - ref).max() / scale < 1e-9
        assert np.abs(rfft(x) - ref[: n // 2 + 1]).max() / scale < 1e-9

    def test_complex_input(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        ref = naive_dft(x)
        assert np.abs(fft(x) - ref).max() / np.abs(ref).max() < 1e-9

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 256))
        batched = fft(x)
        for row, out in zip(x, batched):
            np.testing.assert_array_equal(fft(row), out)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft(np.zeros(96))
        with pytest.raises(ValueError):
            rfft(np.zeros(96))


class TestStft:
    """`BlockSpectra` over `block_spans`, stacked: the one transform that the features use."""

    def test_sine_at_bin_center_peaks_in_that_bin(self):
        sr, frame_len = 22050, 2048
        k = 93
        buf = sine_buffer(k * sr / frame_len, sr, seconds=0.5)
        mags = magnitudes(buf, StftConfig())
        np.testing.assert_array_equal(mags.argmax(axis=1), np.full(mags.shape[0], k))

    def test_constant_signal_dc_magnitude_is_window_sum(self):
        cfg = StftConfig(frame_len=256, hop=256)
        buf = AudioBuffer(np.ones(1024), 8000)
        np.testing.assert_allclose(magnitudes(buf, cfg)[:, 0], 256 / 2, rtol=1e-12)

    def test_magnitudes_match_naive_dft(self):
        rng = np.random.default_rng(2)
        sr, frame_len = 8000, 1024
        cfg = StftConfig(frame_len=frame_len, hop=512)
        buf = AudioBuffer(rng.standard_normal(frame_len * 3), sr)
        frames = frame_signal(buf.samples, cfg) * hann_window(frame_len)
        for row, frame in zip(magnitudes(buf, cfg), frames, strict=True):
            ref = np.abs(naive_dft(frame))[: frame_len // 2 + 1]
            assert np.abs(row - ref).max() / ref.max() < 1e-9

    def test_bin_freqs_axis(self, tmp_path):
        # the `spectrogram` verb writes the bin axis above the magnitude rows
        wav, out = tmp_path / "zeros.wav", tmp_path / "spec.csv"
        write_wav(wav, AudioBuffer(np.zeros(2048), 22050))
        assert run(["spectrogram", "--in", str(wav), "--out", str(out)]) == 0
        _, freqs, *rows = out.read_text().splitlines()
        np.testing.assert_array_equal([float(v) for v in freqs.split(",")],
                                      np.arange(1025) * 22050 / 2048)
        assert [len(row.split(",")) for row in rows] == [1025]

    def test_too_short_buffer(self):
        with pytest.raises(ValueError):
            magnitudes(AudioBuffer(np.zeros(100), 8000), StftConfig(frame_len=256, hop=64))

    def test_non_power_of_two_frame(self):
        with pytest.raises(ValueError):
            magnitudes(AudioBuffer(np.zeros(4000), 8000), StftConfig(frame_len=1000, hop=100))

    def test_parseval_on_windowed_frames(self):
        rng = np.random.default_rng(4)
        cfg = StftConfig(frame_len=512, hop=512)
        buf = AudioBuffer(rng.standard_normal(2048), 8000)
        frames = frame_signal(buf.samples, cfg) * hann_window(cfg.frame_len)
        for row, frame in zip(magnitudes(buf, cfg), frames, strict=True):
            time_energy = np.sum(frame**2)
            two_sided = row[0] ** 2 + row[-1] ** 2 + 2 * np.sum(row[1:-1] ** 2)
            assert abs(time_energy - two_sided / cfg.frame_len) / time_energy < 1e-6

    def test_shift_by_hop_shifts_rows(self):
        rng = np.random.default_rng(6)
        cfg = StftConfig(frame_len=256, hop=64)
        sig = rng.standard_normal(1024)
        mags = magnitudes(AudioBuffer(sig, 8000), cfg)
        shifted = magnitudes(AudioBuffer(sig[64:], 8000), cfg)
        np.testing.assert_array_equal(mags[1 : shifted.shape[0] + 1], shifted)


class TestBlockSpectraStages:
    """A block is transformed STAGE_FRAMES frames at a time, with the bits of
    one transform over the whole block."""

    @pytest.mark.parametrize("cfg", [StftConfig(), StftConfig(1024, 256)])
    def test_every_span_around_a_stage_boundary_matches_one_whole_block_pass(self, cfg):
        rng = np.random.default_rng(cfg.frame_len)
        spectra = BlockSpectra(cfg)  # one instance, as the blocks of a file reuse it
        for n_frames in (1, STAGE_FRAMES - 1, STAGE_FRAMES, STAGE_FRAMES + 1,
                         BLOCK_FRAMES - 1, BLOCK_FRAMES):
            span = rng.standard_normal((n_frames - 1) * cfg.hop + cfg.frame_len)
            frames, mags = spectra(span)
            assert frames.shape[0] == mags.shape[0] == n_frames
            np.testing.assert_array_equal(frames, frame_signal(span, cfg))
            np.testing.assert_array_equal(mags, whole_block_magnitudes(span, cfg),
                                          f"{n_frames} frames")


class TestStftConfig:
    def test_rejects_bad_hop(self):
        with pytest.raises(ValueError):
            StftConfig(frame_len=256, hop=0)
        with pytest.raises(ValueError):
            StftConfig(frame_len=256, hop=257)

    @pytest.mark.parametrize("frame_len", [0, 1, 3, 1000])
    def test_rejects_a_frame_that_is_not_a_power_of_two(self, frame_len):
        with pytest.raises(ValueError, match=f"power of two >= 2, got {frame_len}"):
            StftConfig(frame_len=frame_len, hop=1)
