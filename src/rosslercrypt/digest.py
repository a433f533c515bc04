"""Keyed message digests from machine trajectory endpoints.

The message is reduced to a positionally weighted sum, folded into [0, 1),
and used as the machine's initial x. The final x after N steps is the
digest. Anyone holding the key can recompute it; a bit-exact match attests
the message was not altered.

The digest is 64 bits wide (one binary64 value), so collision and preimage
resistance are not claimed; it is a keyed integrity check, not a
cryptographic hash.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import cipher, rossler
from .errors import FormatError
from .keys import RosslerKey

#: binary64 value nearest to (sqrt(5) - 1) / 2.
GOLDEN_RATIO_CONJUGATE = 0.6180339887498949

_HEX16 = re.compile(r"[0-9a-fA-F]{16}")

# Bytes per chunk of weighted_sum; bounds its temporaries to ~1.5 MiB.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Digest:
    """A keyed digest: the x component of the machine endpoint."""

    value: float

    def hex(self) -> str:
        """16 lowercase hex digits: the big-endian binary64 bytes of value."""
        return struct.pack(">d", self.value).hex()

    @classmethod
    def from_hex(cls, text: str) -> Digest:
        if not _HEX16.fullmatch(text):
            raise FormatError("digest must be exactly 16 hex digits")
        (value,) = struct.unpack(">d", bytes.fromhex(text))
        return cls(value)


def weighted_sum(message: bytes) -> float:
    """Sum of i * map_byte(m_i) over 1-based positions, left to right.

    Every partial sum is an integer multiple of 1/1024. For messages
    shorter than 2^23 bytes those integers stay below 2^53, so the sum is
    exact in binary64 and changing one byte, or transposing two adjacent
    distinct bytes, changes it. Longer messages can round. Other edits can
    keep the sum, and with it the digest under every key: b"\x0a\x14" and
    b"\x0c\x13" both sum to 53/1024.

    The sum is formed in chunks of _CHUNK bytes with np.add.accumulate,
    which adds strictly left to right, carrying the running sum into each
    chunk's first term. So every addition is the per-byte loop's, and the
    result has its bits at every length, rounding included. np.sum and
    math.fsum add in other orders and would change them.
    """
    data = np.frombuffer(message, np.uint8)
    s = 0.0
    for start in range(0, data.size, _CHUNK):
        block = data[start : start + _CHUNK]
        terms = np.arange(start + 1, start + 1 + block.size, dtype=np.float64)
        terms *= cipher._BYTE_X0S[block]
        terms[0] += s
        s = float(np.add.accumulate(terms)[-1])
    return s


def fold_to_unit(s: float) -> float:
    """Fold a non-negative sum into [0, 1) as frac(s * g), g the golden
    ratio conjugate.

    The raw sum grows quadratically with message length and would diverge
    the machine. Plain frac(s) would collapse the input space to multiples
    of 1/1024; multiplying by g first spreads distinct sums across [0, 1),
    but only on multiples of ulp(s * g): 2^-17 for a 1 MiB message.
    """
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"weighted sum must be finite and non-negative, got {s!r}")
    u = s * GOLDEN_RATIO_CONJUGATE
    return u - math.floor(u)


def compute_digest(message: bytes, key: RosslerKey) -> Digest:
    """Run the machine from (fold(weighted_sum(message)), y0, z0)."""
    x0 = fold_to_unit(weighted_sum(message))
    final = rossler.run_machine(
        rossler.SystemParams(key.a, key.b, key.c),
        rossler.StateVector(x0, key.y0, key.z0),
        key.n_steps,
        key.h,
    )
    return Digest(final.x)


def verify_digest(message: bytes, key: RosslerKey, claimed: Digest) -> bool:
    """True iff the recomputed digest matches claimed bit-for-bit."""
    actual = compute_digest(message, key)
    return struct.pack(">d", actual.value) == struct.pack(">d", claimed.value)
