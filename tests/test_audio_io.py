"""WAV decode (with mixdown to mono), by range and resampled, and encode."""

import struct
import tracemalloc

import numpy as np
import pytest

from conftest import _pcm_bytes, interp_resample, wav_bytes, whole_buffer_write_wav, write_pcm
from wrice.audio_io import (_SCAN_SAMPLES, MAX_WAV_RATE, MAX_WAV_SAMPLES, AudioBuffer,
                            WavReader, read_wav, resampled_length, write_wav)
from wrice.errors import MalformedWavError, NonFiniteError, UnsupportedEncodingError


def write_blob(tmp_path, blob: bytes):
    path = tmp_path / "clip.wav"
    path.write_bytes(blob)
    return path


class TestReadWav:
    def test_16bit_pcm_scaling(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        buf = read_wav(write_blob(tmp_path, wav_bytes(payload)))
        assert buf.sample_rate == 44100
        assert len(buf) == 3
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])

    def test_sample_rate_from_fmt_chunk(self, tmp_path):
        payload = struct.pack("<2h", 0, 0)
        blob = wav_bytes(payload, sample_rate=192000)
        buf = read_wav(write_blob(tmp_path, blob))
        assert buf.sample_rate == 192000
        assert len(buf) == 2

    def test_bad_magic_rejected(self, tmp_path):
        blob = b"RIFX" + wav_bytes(struct.pack("<2h", 0, 0))[4:]
        with pytest.raises(MalformedWavError):
            read_wav(write_blob(tmp_path, blob))

    def test_truncated_data_chunk(self, tmp_path):
        blob = wav_bytes(struct.pack("<4h", 1, 2, 3, 4))
        with pytest.raises(MalformedWavError):
            read_wav(write_blob(tmp_path, blob[:-3]))

    def test_missing_data_chunk(self, tmp_path):
        blob = wav_bytes(struct.pack("<2h", 0, 0), data_id=b"daat")
        with pytest.raises(MalformedWavError):
            read_wav(write_blob(tmp_path, blob))

    def test_compressed_format_rejected(self, tmp_path):
        blob = wav_bytes(b"\x00" * 8, format_tag=0x11)  # IMA ADPCM
        with pytest.raises(UnsupportedEncodingError):
            read_wav(write_blob(tmp_path, blob))

    def test_8bit_pcm_rejected(self, tmp_path):
        blob = wav_bytes(b"\x80\x80", bits=8)
        with pytest.raises(UnsupportedEncodingError):
            read_wav(write_blob(tmp_path, blob))

    def test_float32_payload(self, tmp_path):
        payload = struct.pack("<3f", 0.25, -0.75, 1.0)
        blob = wav_bytes(payload, format_tag=3, bits=32)
        buf = read_wav(write_blob(tmp_path, blob))
        np.testing.assert_allclose(buf.samples, [0.25, -0.75, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float32_names_the_file(self, tmp_path, bad):
        blob = wav_bytes(struct.pack("<3f", 0.25, bad, 1.0), format_tag=3, bits=32)
        path = write_blob(tmp_path, blob)
        with pytest.raises(NonFiniteError, match=str(path)):
            read_wav(path)

    def test_24bit_pcm(self, tmp_path):
        # +2^22 then -2^22 as little-endian 3-byte two's complement
        payload = b"\x00\x00\x40" + b"\x00\x00\xc0"
        blob = wav_bytes(payload, bits=24)
        buf = read_wav(write_blob(tmp_path, blob))
        np.testing.assert_array_equal(buf.samples, [0.5, -0.5])

    def test_mono_file_is_a_view_of_the_decoded_array(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -16384)
        buf = read_wav(write_blob(tmp_path, wav_bytes(payload)))
        assert buf.samples.base is not None and buf.samples.flags.c_contiguous

    def test_stereo_mean(self, tmp_path):
        # frames (1 - 2^-15, 0) and (0.5, 0.5)
        payload = struct.pack("<4h", 32767, 0, 16384, 16384)
        buf = read_wav(write_blob(tmp_path, wav_bytes(payload, channels=2, sample_rate=8000)))
        assert buf.sample_rate == 8000 and len(buf) == 2
        np.testing.assert_array_equal(buf.samples, [32767 / 2**16, 0.5])

    def test_stereo_deinterleave(self, tmp_path):
        # left (0.5, 0.25), right (-0.25, 0.5): each frame's own pair is averaged
        payload = struct.pack("<4h", 16384, -8192, 8192, 16384)
        buf = read_wav(write_blob(tmp_path, wav_bytes(payload, channels=2)))
        np.testing.assert_array_equal(buf.samples, [0.125, 0.375])

    def test_a_partial_trailing_frame_is_dropped(self, tmp_path):
        payload = struct.pack("<5h", 16384, -16384, 8192, 8192, 4096)
        buf = read_wav(write_blob(tmp_path, wav_bytes(payload, channels=2)))
        np.testing.assert_array_equal(buf.samples, [0.0, 0.25])

    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("fmt,bits", [("<i2", 16), ("<i4", 24), ("<f4", 32)])
    def test_mixdown_is_the_sequential_mean_bit_for_bit(self, tmp_path, channels, fmt, bits):
        rng = np.random.default_rng(10 * channels + bits)
        if fmt == "<f4":
            vals = rng.uniform(-1, 1, size=(257, channels)).astype(fmt)
            cols, blob = vals.astype(np.float64), wav_bytes(vals.tobytes(), format_tag=3,
                                                            channels=channels, bits=32)
        else:
            vals = rng.integers(-2 ** (bits - 1), 2 ** (bits - 1),
                                size=(257, channels)).astype(fmt)
            cols = vals.astype(np.float64) / 2 ** (bits - 1)
            blob = wav_bytes(_pcm_bytes(vals, bits), channels=channels, bits=bits)
        want = cols[:, 0].copy()
        for c in range(1, channels):
            want += cols[:, c]
        want /= channels
        buf = read_wav(write_blob(tmp_path, blob))
        assert buf.samples.flags.c_contiguous
        np.testing.assert_array_equal(buf.samples, want)

    def test_mixdown_never_exceeds_the_channel_peak(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1, 1, size=(64, 3)).astype("<f4")
        blob = wav_bytes(vals.tobytes(), format_tag=3, channels=3, bits=32)
        buf = read_wav(write_blob(tmp_path, blob))
        assert np.abs(buf.samples).max() <= np.abs(vals).max()

    @pytest.mark.parametrize("fmt,bits", [("<i2", 16), ("<i4", 24), ("<i4", 32), ("<f4", 32)])
    def test_decodes_to_the_scaled_values_bit_for_bit(self, tmp_path, fmt, bits):
        rng = np.random.default_rng(bits)
        if fmt == "<f4":
            vals = rng.uniform(-1, 1, size=999).astype(fmt)
            want, blob = vals.astype(np.float64), wav_bytes(vals.tobytes(), format_tag=3, bits=32)
        else:
            vals = rng.integers(-2 ** (bits - 1), 2 ** (bits - 1), size=999).astype(fmt)
            want = vals.astype(np.float64) / 2 ** (bits - 1)
            blob = wav_bytes(_pcm_bytes(vals, bits), bits=bits)
        buf = read_wav(write_blob(tmp_path, blob))
        np.testing.assert_array_equal(buf.samples, want)

    @pytest.mark.parametrize("bits", [16, 24, 32])
    def test_peak_memory_of_a_thirty_second_mono_file(self, tmp_path, bits):
        n = 30 * 22050
        path = tmp_path / "long.wav"
        write_pcm(path, 0.5 * np.sin(0.01 * np.arange(n)), 22050, bits)
        read_wav(path)
        tracemalloc.start()
        try:
            read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes, one float64 array (and at 24 bits the samples
        # padded to 4 bytes each) and slack (the finiteness check's n bools);
        # the payload is never copied and the mono channel never copied out
        # of the decoded array
        bound = path.stat().st_size + (12 if bits == 24 else 8) * n + 2**20
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_integer_pcm_roundtrip_exact(tmp_path, bits):
    rng = np.random.default_rng(9)
    scale = 2 ** (bits - 1)
    ints = rng.integers(-scale, scale, size=300)
    path = tmp_path / f"rt{bits}.wav"
    write_pcm(path, ints / scale, 48000, bits)
    decoded = read_wav(path)
    assert decoded.sample_rate == 48000
    assert path.stat().st_size == 44 + bits // 8 * 300
    np.testing.assert_array_equal(decoded.samples, ints / scale)

    # and a second encode produces identical bytes
    path2 = tmp_path / f"rt{bits}_again.wav"
    write_pcm(path2, decoded.samples, 48000, bits)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_out_of_range_samples_clip_to_the_integer_range(tmp_path, bits):
    scale = 2 ** (bits - 1)
    path = tmp_path / f"clip{bits}.wav"
    write_pcm(path, [-3.0, -1.0, 1.0, 3.0, -0.5 / scale, 1.5 / scale], 8000, bits)
    want = np.array([-scale, -scale, scale - 1, scale - 1, 0, 2]) / scale
    np.testing.assert_array_equal(read_wav(path).samples, want)


def test_peak_memory_of_a_thirty_second_16bit_write(tmp_path):
    n = 30 * 22050
    buf = AudioBuffer(0.5 * np.sin(0.01 * np.arange(n)), 22050)
    write_wav(tmp_path / "warm.wav", buf)
    tracemalloc.start()
    try:
        write_wav(tmp_path / "long.wav", buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 16-bit array and one chunk of float64 scratch, within the slack
    bound = 2 * n + 2**20
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


class TestWriteWav:
    @pytest.mark.parametrize("n", [0, 1, _SCAN_SAMPLES - 1, _SCAN_SAMPLES, _SCAN_SAMPLES + 1,
                                   pytest.param(30 * 22050, id="30s")])
    def test_writes_the_bytes_of_the_whole_buffer_oracle(self, tmp_path, n):
        samples = np.random.default_rng(n).uniform(-1.5, 1.5, n)
        # exact half-LSB ties, which round to even, and the clip limits
        ties = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 32766.5, -32767.5,
                         32767, 32768, -32768, -32769]) / 2**15
        samples[:len(ties)] = ties[:n]
        buf = AudioBuffer(samples, 22050)
        write_wav(tmp_path / "chunked.wav", buf)
        whole_buffer_write_wav(tmp_path / "whole.wav", buf)
        assert (tmp_path / "chunked.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()

    def test_an_empty_buffer_is_a_44_byte_file_of_no_frames(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, AudioBuffer(np.empty(0), 8000))
        assert path.stat().st_size == 44
        with WavReader(path) as wav:
            assert (wav.frames, wav.sample_rate) == (0, 8000)
        assert len(read_wav(path)) == 0

    def test_the_largest_rate_round_trips(self, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(path, AudioBuffer([0.25, -0.5], MAX_WAV_RATE))
        decoded = read_wav(path)
        assert decoded.sample_rate == MAX_WAV_RATE
        np.testing.assert_array_equal(decoded.samples, [0.25, -0.5])

    def test_a_rate_whose_byte_rate_overflows_is_refused(self, tmp_path):
        path = tmp_path / "too_fast.wav"
        with pytest.raises(ValueError, match=f"sample rate {MAX_WAV_RATE + 1} Hz exceeds"):
            write_wav(path, AudioBuffer([0.25], MAX_WAV_RATE + 1))
        assert not path.exists()

    def test_a_length_whose_riff_size_overflows_is_refused(self, tmp_path):
        class Huge:  # an AudioBuffer would scan 2 GiB of flags for NaN first
            samples = np.broadcast_to(0.0, (MAX_WAV_SAMPLES + 1,))
            sample_rate = 8000

        assert 36 + 2 * MAX_WAV_SAMPLES < 2**32 <= 36 + 2 * (MAX_WAV_SAMPLES + 1)
        path = tmp_path / "too_long.wav"
        with pytest.raises(ValueError, match=f"^{MAX_WAV_SAMPLES + 1} samples exceed"):
            write_wav(path, Huge())
        assert not path.exists()


def float_wav(tmp_path, samples, sample_rate):
    """A mono 32-bit float WAV of `samples`, which decode exactly if float32 holds them."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    return write_blob(tmp_path, wav_bytes(payload, format_tag=3, sample_rate=sample_rate,
                                          bits=32))


class TestResample:
    def test_equal_rates_give_read(self, tmp_path):
        path = float_wav(tmp_path, [0.0, 0.25, 0.5], 8000)
        with WavReader(path) as wav:
            assert np.array_equal(wav.read_resampled(8000, 0, 3), wav.read(0, 3))

    def test_halving_picks_every_other_instant(self, tmp_path):
        path = float_wav(tmp_path, [0.0, 0.125, 0.25, 0.375], 4)
        with WavReader(path) as wav:
            assert resampled_length(wav.frames, wav.sample_rate, 2) == 2
            np.testing.assert_array_equal(wav.read_resampled(2, 0, 2), [0.0, 0.25])

    @pytest.mark.parametrize("n,source,target,length", [
        (7001, 44100, 22050, 3500), (7001, 44100, 44100, 7001), (3, 44100, 8000, 0),
        (100, 8000, 22050, 275)])
    def test_output_length_is_floored(self, n, source, target, length):
        assert resampled_length(n, source, target) == length

    def test_sine_rms_preserved(self, tmp_path):
        rate = 192000
        t = np.arange(rate) / rate
        path = float_wav(tmp_path, np.sin(2 * np.pi * 1000 * t), rate)
        with WavReader(path) as wav:
            n = resampled_length(wav.frames, wav.sample_rate, 22050)
            out = wav.read_resampled(22050, 0, n)
        assert n == len(out) == 22050
        rms = np.sqrt(np.mean(out**2))
        assert abs(rms - 1 / np.sqrt(2)) / (1 / np.sqrt(2)) < 0.01


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer([0.0, np.nan], 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer([0.0], 0)


class TestWavReader:
    """Ranges of a file, read or resampled one at a time, against the whole file."""

    @pytest.fixture(scope="class")
    def stereo24(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        vals = rng.integers(-2**23, 2**23, size=2 * 7001, dtype=np.int32)
        path = tmp_path_factory.mktemp("reader") / "stereo24.wav"
        path.write_bytes(wav_bytes(_pcm_bytes(vals, 24), channels=2, sample_rate=44100,
                                   bits=24))
        return path

    def test_ranges_are_slices_of_the_whole_file(self, stereo24):
        whole = read_wav(stereo24).samples
        with WavReader(stereo24) as wav:
            assert (wav.frames, wav.sample_rate, wav.channels) == (7001, 44100, 2)
            for start, stop in [(0, 1), (0, 7001), (3, 3), (100, 4096), (6990, 7001)]:
                assert np.array_equal(wav.read(start, stop - start), whole[start:stop])

    @pytest.mark.parametrize("start,count", [(-1, 2), (7000, 2)])
    def test_a_range_outside_the_file_is_refused(self, stereo24, start, count):
        with WavReader(stereo24) as wav, pytest.raises(ValueError, match="outside"):
            wav.read(start, count)

    @pytest.mark.parametrize("rate", [22050, 16000, 48000, 8000])
    def test_resampled_ranges_join_to_the_whole_file_resampled(self, stereo24, rate):
        want = interp_resample(read_wav(stereo24).samples, 44100, rate)
        cuts = np.unique(np.random.default_rng(rate).integers(1, len(want), 9))
        bounds = [0, *cuts.tolist(), len(want)]
        with WavReader(stereo24) as wav:
            got = np.concatenate([wav.read_resampled(rate, a, b)
                                  for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(got, want)

    def test_opening_checks_every_float_sample(self, tmp_path):
        # a NaN far past the first chunk that opening scans
        vals = np.zeros(3 * 2**16, dtype="<f4")
        vals[-1] = np.nan
        path = write_blob(tmp_path, wav_bytes(vals.tobytes(), format_tag=3, bits=32))
        with pytest.raises(NonFiniteError, match="samples contain NaN or Inf"):
            WavReader(path)
