"""WAV decoding to mono, by frame range and at any rate, and mono WAV encoding.

Decodes little-endian RIFF/WAVE with uncompressed PCM (16/24/32-bit integer)
or 32-bit IEEE-float data, any channel count, mixed to mono on decode by the
sample-wise mean of the channels. `WavReader` decodes any range of a file's
frames, or of the file resampled to another rate, so a long file can be
analysed a block at a time; `read_wav` is that reader over the whole file at
its own rate. Nothing here resamples or segments a decoded buffer: the
analysis rate and segments of a file are `WavReader.read_resampled` ranges,
cut by `dataset.file_rows`. Encodes one mono buffer as 16-bit PCM.
Everything downstream works on mono float samples in nominal [-1, 1] range.
"""

from __future__ import annotations

import os
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


def read_wav(path) -> AudioBuffer:
    """Decode a WAV file into the mono buffer that is analysed: a
    `WavReader` read over all of its frames.

    Raises:
        MalformedWavError: bad magic bytes or chunk structure.
        UnsupportedEncodingError: compressed codecs or unhandled sample formats.
        NonFiniteError: float samples that are NaN or infinite.
        OSError: the file cannot be read.
    """
    with WavReader(path) as wav:
        return AudioBuffer(wav.read(0, wav.frames), wav.sample_rate)


# float data is checked for NaN and Inf this many samples at a time
_SCAN_SAMPLES = 1 << 16


class WavReader:
    """A WAV file open for decoding by frame range.

    Opening parses the header once and checks 32-bit float data for NaN and
    Inf, a chunk at a time, so every error that decoding the whole file
    would raise is raised here, naming the path. `read` then returns the
    mono samples of any range of the file's `frames` frames: integer PCM is
    scaled by 1 / 2^(bits-1), float data is taken as-is, and a file of more
    than one channel is mixed down to the sample-wise mean of its channels.
    A trailing partial frame is not read.

    Raises:
        MalformedWavError: bad magic bytes or chunk structure.
        UnsupportedEncodingError: compressed codecs or unhandled sample formats.
        NonFiniteError: float samples that are NaN or infinite.
        OSError: the file cannot be read.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._open()
        except BaseException:
            self._fh.close()
            raise

    def _open(self) -> None:
        path, fh = self.path, self._fh
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedWavError(f"{path}: not a RIFF/WAVE file")
        fmt = data = None
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + chunk_size > size:
                raise MalformedWavError(f"{path}: chunk {chunk_id!r} truncated")
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(fh.read(chunk_size), path)
            elif chunk_id == b"data":
                data = (pos + 8, chunk_size)
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
        if fmt is None or data is None:
            raise MalformedWavError(f"{path}: missing fmt or data chunk")

        self._format_tag, self.channels, self.sample_rate, self._bits = fmt
        if self.channels < 1:
            raise MalformedWavError(f"{path}: channel count {self.channels}")
        if self.sample_rate <= 0:
            raise MalformedWavError(f"{path}: sample rate {self.sample_rate}")
        self._dtype = _sample_dtype(self._format_tag, self._bits, path)
        self._offset, data_size = data
        n_samples = data_size // (self._bits // 8)
        self.frames = n_samples // self.channels
        if self._format_tag == _WAVE_FORMAT_IEEE_FLOAT:
            fh.seek(self._offset)
            for start in range(0, n_samples, _SCAN_SAMPLES):
                count = min(_SCAN_SAMPLES, n_samples - start)
                if not np.isfinite(np.frombuffer(fh.read(4 * count), "<f4")).all():
                    raise NonFiniteError(f"{path}: samples contain NaN or Inf")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, start: int, count: int) -> np.ndarray:
        """The mono samples of frames [start, start + count), as one new
        float64 array."""
        if not 0 <= start <= start + count <= self.frames:
            raise ValueError(f"frames [{start}, {start + count}) outside [0, {self.frames})")
        width = self._bits // 8
        self._fh.seek(self._offset + start * self.channels * width)
        raw = self._fh.read(count * self.channels * width)
        if len(raw) < count * self.channels * width:
            raise OSError(f"{self.path}: data chunk shorter than when the file was opened")
        if self._bits == 24:
            # each sample's three bytes go to the high bytes of an int32, and an
            # arithmetic shift brings them down with the sign extended
            n = len(raw) // 3
            padded = np.zeros((n, 4), dtype=np.uint8)
            padded[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(n, 3)
            values = padded.view("<i4").reshape(n)
            values >>= 8
        else:
            values = np.frombuffer(raw, dtype=self._dtype)
        if self._format_tag == _WAVE_FORMAT_IEEE_FLOAT:
            samples = values.astype(np.float64)
        else:
            samples = np.divide(values, float(2 ** (self._bits - 1)))
        # a mono file's (n, 1) column is a contiguous view, so it is not copied
        samples = samples.reshape(count, self.channels)
        return samples[:, 0] if self.channels == 1 else samples.mean(axis=1)

    def read_resampled(self, rate: int, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) of this file resampled to `rate`, of the
        `resampled_length(frames, sample_rate, rate)` that the whole file
        makes; reads only the source frames that they span.

        Sample i is the linear interpolation of the file at source instant
        i * sample_rate / rate, so ranges read one at a time join to the
        whole file resampled, bit for bit. Not band-limited: fine for
        downsampling broadband noise, known to alias on spectrally dense
        content. At the file's own rate this is `read`."""
        if rate == self.sample_rate:
            return self.read(start, stop - start)
        if start == stop:
            return np.empty(0)
        positions, lo, hi = _source_span(start, stop, self.frames, self.sample_rate, rate)
        return np.interp(positions, np.arange(lo, hi), self.read(lo, hi - lo))


def _parse_fmt(body, path) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise MalformedWavError(f"{path}: fmt chunk too short")
    format_tag, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
    if format_tag == _WAVE_FORMAT_EXTENSIBLE:
        # actual format code lives in the first two bytes of the SubFormat GUID
        if len(body) < 26:
            raise MalformedWavError(f"{path}: extensible fmt chunk too short")
        (format_tag,) = struct.unpack_from("<H", body, 24)
    return format_tag, channels, sample_rate, bits


def _sample_dtype(format_tag: int, bits: int, path) -> str | None:
    """The numpy dtype of one stored sample (None for 24-bit PCM, which has
    none), or UnsupportedEncodingError."""
    if format_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncodingError(f"{path}: {bits}-bit float WAV not supported")
        return "<f4"
    if format_tag != _WAVE_FORMAT_PCM:
        raise UnsupportedEncodingError(f"{path}: compressed WAV (format tag 0x{format_tag:04x})")
    if bits != 24 and bits not in _PCM_DTYPES:
        raise UnsupportedEncodingError(f"{path}: {bits}-bit PCM not supported")
    return _PCM_DTYPES.get(bits)


def write_wav(path, buf: AudioBuffer) -> None:
    """Encode a mono buffer as little-endian 16-bit PCM.

    Values outside [-1, 1] are clipped to the int16 range. Decoded 16-bit
    PCM re-encoded round-trips exactly.
    """
    scale = 2**15
    # rounded and clipped in place, so the only full-length temporaries are
    # this float64 array and its one integer cast
    ints = np.multiply(buf.samples, scale)
    np.rint(ints, out=ints)
    np.clip(ints, -scale, scale - 1, out=ints)
    ints = ints.astype("<i2")
    frames = ints.tobytes()

    fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, 1, buf.sample_rate,
                      buf.sample_rate * 2, 2, 16)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(frames)) + frames)
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    Path(path).write_bytes(blob)


def resampled_length(n: int, source_rate: int, target_rate: int) -> int:
    """The length of n samples at source_rate resampled to target_rate."""
    return n if target_rate == source_rate else n * int(target_rate) // source_rate


def _source_span(start: int, stop: int, n: int, source_rate: int,
                 target_rate: int) -> tuple[np.ndarray, int, int]:
    """The instants, in source samples, of output samples [start, stop), and
    the source range [lo, hi) that interpolating at them reads. Each output
    sample is interpolated from its two neighbours alone, so interpolating
    over that range gives the values of interpolating over all n samples,
    bit for bit."""
    positions = np.arange(start, stop) * (source_rate / target_rate)
    return positions, int(positions[0]), min(n, int(positions[-1]) + 2)
