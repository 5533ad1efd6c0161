"""WAV decoding to mono, mono WAV encoding, resampling, and fixed-length segmentation.

Decodes little-endian RIFF/WAVE with uncompressed PCM (16/24/32-bit integer)
or 32-bit IEEE-float data, any channel count, mixed to mono on decode by the
sample-wise mean of the channels. Encodes one mono buffer as integer PCM.
Everything downstream works on mono float buffers in nominal [-1, 1] range.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MalformedWavError, NonFiniteError, UnsupportedEncodingError

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

_PCM_DTYPES = {16: "<i2", 32: "<i4"}


@dataclass(frozen=True)
class AudioBuffer:
    """Mono samples (dimensionless amplitude, nominal [-1, 1]) at a fixed rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("samples contain NaN or Inf")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


def read_wav(path) -> AudioBuffer:
    """Decode a WAV file into the mono buffer that is analysed.

    Integer PCM is scaled by 1 / 2^(bits-1); 32-bit float data is taken as-is.
    A file of more than one channel is mixed down to the sample-wise mean of
    its channels.

    Raises:
        MalformedWavError: bad magic bytes or chunk structure.
        UnsupportedEncodingError: compressed codecs or unhandled sample formats.
        NonFiniteError: float samples that are NaN or infinite.
        OSError: the file cannot be read.
    """
    data = Path(path).read_bytes()
    view = memoryview(data)  # chunk bodies are slices of it, not copies
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(f"{path}: chunk {chunk_id!r} truncated")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(body, path)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")

    format_tag, channels, sample_rate, bits = fmt
    if channels < 1:
        raise MalformedWavError(f"{path}: channel count {channels}")
    if sample_rate <= 0:
        raise MalformedWavError(f"{path}: sample rate {sample_rate}")

    samples = _decode_samples(payload, format_tag, bits, path)
    frame_count = len(samples) // channels
    samples = samples[: frame_count * channels].reshape(frame_count, channels)
    # a mono file's (n, 1) column is a contiguous view, so it is not copied
    mono = samples[:, 0] if channels == 1 else samples.mean(axis=1)
    return AudioBuffer(mono, sample_rate)


def _parse_fmt(body: memoryview, path) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise MalformedWavError(f"{path}: fmt chunk too short")
    format_tag, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
    if format_tag == _WAVE_FORMAT_EXTENSIBLE:
        # actual format code lives in the first two bytes of the SubFormat GUID
        if len(body) < 26:
            raise MalformedWavError(f"{path}: extensible fmt chunk too short")
        (format_tag,) = struct.unpack_from("<H", body, 24)
    return format_tag, channels, sample_rate, bits


def _decode_samples(payload: memoryview, format_tag: int, bits: int,
                    path) -> np.ndarray:
    """The payload's samples as one new float64 array, scaled in place."""
    if format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncodingError(f"{path}: {bits}-bit float WAV not supported")
        n = len(payload) // 4
        vals = np.frombuffer(payload, dtype="<f4", count=n)
        if not np.isfinite(vals).all():
            raise NonFiniteError(f"{path}: samples contain NaN or Inf")
        return vals.astype(np.float64)
    if format_tag != _WAVE_FORMAT_PCM:
        raise UnsupportedEncodingError(f"{path}: compressed WAV (format tag 0x{format_tag:04x})")
    if bits == 24:
        # each sample's three bytes go to the high bytes of an int32, and an
        # arithmetic shift brings them down with the sign extended
        n = len(payload) // 3
        padded = np.zeros((n, 4), dtype=np.uint8)
        padded[:, 1:] = np.frombuffer(payload, dtype=np.uint8, count=3 * n).reshape(n, 3)
        ints = padded.view("<i4").reshape(n)
        ints >>= 8
    elif bits in _PCM_DTYPES:
        n = len(payload) // (bits // 8)
        ints = np.frombuffer(payload, dtype=_PCM_DTYPES[bits], count=n)
    else:
        raise UnsupportedEncodingError(f"{path}: {bits}-bit PCM not supported")
    out = ints.astype(np.float64)
    out /= float(2 ** (bits - 1))
    return out


def write_wav(path, buf: AudioBuffer, bits_per_sample: int = 16) -> None:
    """Encode a mono buffer as little-endian integer PCM.

    Values outside [-1, 1] are clipped to the integer range. Decoded integer
    PCM re-encoded at the same bit depth round-trips exactly.
    """
    if bits_per_sample not in (16, 24, 32):
        raise ValueError(f"unsupported PCM bit depth {bits_per_sample}")
    scale = 2 ** (bits_per_sample - 1)
    # rounded and clipped in place, so the only full-length temporaries are
    # this float64 array and its one integer cast
    ints = np.multiply(buf.samples, scale)
    np.rint(ints, out=ints)
    np.clip(ints, -scale, scale - 1, out=ints)
    ints = ints.astype("<i2" if bits_per_sample == 16 else "<i4")
    if bits_per_sample == 24:
        frames = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        frames = ints.tobytes()

    block_align = bits_per_sample // 8
    fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, 1, buf.sample_rate,
                      buf.sample_rate * block_align, block_align, bits_per_sample)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames)
    if len(frames) & 1:
        body += b"\x00"
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    Path(path).write_bytes(blob)


def resample_linear(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation at the new sample instants.

    Output length is floor(len * target / source). Not band-limited; fine for
    downsampling broadband noise, known to alias on spectrally dense content.
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if target_rate == buf.sample_rate:
        return buf
    n = len(buf)
    out_len = n * int(target_rate) // buf.sample_rate
    positions = np.arange(out_len) * (buf.sample_rate / target_rate)
    resampled = np.interp(positions, np.arange(n), buf.samples)
    return AudioBuffer(resampled, target_rate)


def segment(buf: AudioBuffer, seconds: float) -> list[AudioBuffer]:
    """Cut consecutive non-overlapping windows of floor(seconds * rate) samples.

    The trailing partial window is dropped so every segment has identical length.
    """
    if seconds <= 0:
        raise ValueError(f"segment duration must be positive, got {seconds}")
    window = int(seconds * buf.sample_rate)
    if window < 1:
        raise ValueError(f"segment duration {seconds}s is shorter than one sample")
    count = len(buf) // window
    return [AudioBuffer(buf.samples[i * window : (i + 1) * window], buf.sample_rate)
            for i in range(count)]
