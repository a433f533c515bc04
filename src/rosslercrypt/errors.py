"""Exception types shared across the package."""

from __future__ import annotations


class DivergenceError(ArithmeticError):
    """Integration produced a non-finite component.

    Attributes:
        step: 1-based index of the first step whose result went non-finite.
        entry: index of the failing entry when the failure happened inside
            a batch run (the plaintext byte, for codebook builds).
    """

    def __init__(self, message: str, *, step: int, entry: int | None = None):
        super().__init__(message)
        self.step = step
        self.entry = entry


class FormatError(ValueError):
    """A serialized key, ciphertext, or digest does not match its format."""


class NoMatchError(ValueError):
    """A ciphertext value matches no codebook entry (wrong key or corruption)."""

    def __init__(self, position: int):
        super().__init__(f"no codebook entry matches value at position {position}")
        self.position = position


class AmbiguousError(ValueError):
    """Tolerant decryption found two codebook entries within tolerance."""

    def __init__(self, position: int):
        super().__init__(f"ambiguous codebook match at position {position}")
        self.position = position


class KeygenExhausted(RuntimeError):
    """Key generation failed to find a valid key after many candidates."""
