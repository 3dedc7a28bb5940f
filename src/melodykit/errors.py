"""Exception types raised across the package.

Every error the library raises deliberately subclasses MelodyKitError so
callers (and the CLI) can catch one base class.
"""


class MelodyKitError(Exception):
    """Base class for all melodykit errors."""


class SongTooShort(MelodyKitError):
    """A song has fewer notes than the operation requires."""


class PitchOutOfRange(MelodyKitError):
    """A note left the MIDI range [0, 127]."""


class EmptyCorpus(MelodyKitError):
    """No usable songs or tokens to work with."""


class EmptyInput(MelodyKitError):
    """An aggregate was asked for over zero elements."""


class ShapeMismatch(MelodyKitError):
    """Operand shapes do not conform."""


class BadToken(MelodyKitError):
    """A token id lies outside the vocabulary."""


class CorpusTooSmall(MelodyKitError):
    """The token stream cannot fill one batched window."""


class UnknownSeedToken(MelodyKitError):
    """A sampling seed contains a token the model never saw."""


class MalformedFile(MelodyKitError):
    """An input file breaks its format: a MIDI file, or JSON input that is not strict UTF-8 of the expected shape."""


class PolyphonyDetected(MelodyKitError):
    """Two notes sound at the same time in a file expected to be monophonic."""


class TrainingDiverged(MelodyKitError):
    """Training reached a window whose loss is not finite, or a step left a weight past 2**56, float32's safe range."""
