"""Exception types shared across the package.

Bad-argument conditions (negative rates, empty inputs, shape mismatches, ...)
raise plain ValueError; the classes below mark conditions a caller may want
to catch and handle specifically. I/O failures propagate as OSError.
"""


class WriceError(Exception):
    """Base class for domain errors raised by this package."""


class MalformedWavError(WriceError):
    """The file is not a structurally valid RIFF/WAVE container."""


class UnsupportedEncodingError(WriceError):
    """The WAV file uses a codec or sample format this package does not decode."""


class EmptyCorpusError(WriceError):
    """A corpus directory has no categories, or a category has no WAV files."""


class DuplicateLabelError(WriceError):
    """Two categories share the same name."""


class ClassTooSmallError(WriceError):
    """A category has too few rows to be split."""


class SchemaMismatchError(WriceError):
    """Feature columns, label maps, or vector widths do not line up."""


class VersionMismatchError(WriceError):
    """A model file was written by an incompatible format version."""


class CorruptModelError(WriceError):
    """A model file is truncated, tampered with, or otherwise unreadable."""


class NonFiniteError(WriceError):
    """A feature value, training loss or model parameter is NaN or infinite."""
