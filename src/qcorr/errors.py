"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QcorrError",
    "ChannelTypeError",
    "ManifestError",
    "MemoryCapError",
    "NotPrimitiveError",
]


class QcorrError(Exception):
    """Base class for semantic failures raised by this package."""


class ChannelTypeError(QcorrError):
    """An operation required a measure-and-prepare channel and got something else."""


class NotPrimitiveError(QcorrError):
    """Ergodic limits exist only for primitive transition matrices.

    ``reason`` distinguishes an irreducible but periodic matrix from a
    reducible one.
    """

    def __init__(self, message: str, *, reason: str):
        super().__init__(message)
        self.reason = reason


class MemoryCapError(QcorrError):
    """A dense multi-copy object would exceed the configured size cap.

    ``required`` is ``max(d_out ** copies, copies)``, with the power
    stopped at ``cap.bit_length()`` factors, where it already exceeds ``cap``.
    """

    def __init__(self, message: str, *, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


class ManifestError(QcorrError):
    """A JSON manifest failed to parse or validate."""
