"""Byte-substitution encryption from machine trajectory endpoints.

Each plaintext byte is mapped to an initial x value, the machine is run for
N steps, and the final x is the ciphertext value for that byte. The receiver
builds the same 256-entry codebook from the shared key and inverts by exact
bit match. build_codebook keeps the codebook of the last key it was asked
for, looked up by the key's bits, so a process that uses one key at a time
builds each key's codebook once.

This is a deterministic substitution cipher at the byte level: equal bytes
produce equal ciphertext values, so frequency analysis and known-plaintext
attacks apply. It is an educational construction, not a secure cipher.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rossler
from .errors import AmbiguousError, DivergenceError, FormatError, NoMatchError

if TYPE_CHECKING:
    from .keys import RosslerKey

CIPHERTEXT_MAGIC = b"RCT1"
CIPHERTEXT_VERSION = 1


def map_byte(b: int) -> float:
    """Initial x value for byte b: (b + 1) / 1024.

    Exactly representable in binary64, injective, range (0, 0.25].
    """
    if not 0 <= b <= 255:
        raise ValueError(f"byte out of range: {b}")
    return (b + 1) / 1024.0


_BYTE_X0S = np.array([map_byte(b) for b in range(256)])

# Values per block of tolerant decrypt; bounds its temporaries (~100 B/value).
_TOLERANT_BLOCK = 1 << 15


@dataclass(frozen=True)
class Codebook:
    """Machine endpoint (x component) per plaintext byte."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (256,):
            raise ValueError("codebook must have exactly 256 entries")

    def first_byte_of(self, values) -> np.ndarray:
        """For each value, the lowest byte whose entry has the same bits, or -1.

        Bits, not float equality, decide: +0.0 and -0.0 are different values.
        """
        bits = self.entries.view(np.uint64)
        query = np.asarray(values, dtype=np.float64).view(np.uint64)
        # Equal bits sort by byte (stable), and searchsorted finds the first.
        order = np.argsort(bits, kind="stable")
        first = np.searchsorted(bits[order], query)
        np.minimum(first, 255, out=first)
        np.take(order, first, out=first)
        first[bits[first] != query] = -1
        return first

    def nearest_bytes(self, values: np.ndarray, tolerance: float) -> bytes:
        """For each value, the byte of the one entry within tolerance, as
        tolerant decrypt defines it.

        No entry within is NoMatchError, two or more is AmbiguousError, at
        the first failing position.
        """
        # |fl(e - v)| falls then rises along the sorted entries e, so the two
        # nearest entries are among the two on each side of v's insertion
        # point, and counting there tells none, one and more within apart.
        # The infinite pads stand in for neighbours past either end.
        order = np.argsort(self.entries)
        table = np.concatenate(([-np.inf] * 2, self.entries[order], [np.inf] * 2))
        out = np.empty(values.size, dtype=np.uint8)
        for start in range(0, values.size, _TOLERANT_BLOCK):
            block = values[start : start + _TOLERANT_BLOCK]
            near = np.searchsorted(table[2:-2], block)[:, None] + np.arange(4)
            # An infinite value minus the pad of its sign is NaN, never
            # within; that subtraction alone may warn, so it alone is silenced.
            with np.errstate(invalid="ignore"):
                gap = table[near] - block[:, None]
            within = np.abs(gap) <= tolerance
            count = within.sum(axis=1)
            bad = np.flatnonzero(count != 1)
            if bad.size:
                i = int(bad[0])
                error = NoMatchError if count[i] == 0 else AmbiguousError
                raise error(start + i)
            out[start : start + block.size] = order[near[within] - 2]
        return out.tobytes()


def _refuse_nonfinite(values: np.ndarray) -> None:
    """FormatError naming the first non-finite ciphertext value, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        pos = int(np.flatnonzero(~finite)[0])
        raise FormatError(f"non-finite ciphertext value at position {pos}")


@dataclass(frozen=True)
class Ciphertext:
    """Ordered endpoint values, one per plaintext byte."""

    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]


def build_codebook(key: RosslerKey) -> Codebook:
    """Run the machine once per byte value and collect the final x values.

    Raises DivergenceError (with .entry = the byte and .step) if any run
    goes non-finite; validated keys never do.

    The codebook of the last key is kept and shared, so the returned
    entries are read-only. It is looked up by the key's bits, not by
    RosslerKey equality, under which y0 = 0.0 and y0 = -0.0 are one key. A
    key with a field not of the type keys come with (float, and int for
    n_steps) is built afresh on every call. Errors are never kept.
    """
    fields = (key.a, key.b, key.c, key.y0, key.z0, key.h)
    if all(type(v) is float for v in fields) and type(key.n_steps) is int:
        return _memo_build(struct.pack(">6d", *fields), key.n_steps)
    return _build(*fields, key.n_steps)


# The codebook kept by build_codebook (about 2 KiB). The active kernel
# backend is fixed at import, so the bits alone identify the codebook.
@functools.lru_cache(maxsize=1)
def _memo_build(bits: bytes, n_steps: int) -> Codebook:
    return _build(*struct.unpack(">6d", bits), n_steps)


def _build(a, b, c, y0, z0, h, n_steps) -> Codebook:
    finals = rossler.run_machine_batch(
        rossler.SystemParams(a, b, c), _BYTE_X0S, y0, z0, n_steps, h
    )
    entries = finals[:, 0].copy()
    entries.flags.writeable = False
    return Codebook(entries=entries)


def encrypt(plaintext: bytes, key: RosslerKey) -> Ciphertext:
    """Substitute each plaintext byte with its codebook endpoint."""
    codebook = build_codebook(key)
    indices = np.frombuffer(plaintext, dtype=np.uint8)
    return Ciphertext(values=codebook.entries[indices])


def decrypt(
    ct: Ciphertext,
    key: RosslerKey,
    *,
    tolerance: float | None = None,
) -> bytes:
    """Invert the codebook substitution.

    Exact mode (tolerance None, the default): each value must bit-match a
    codebook entry. Sound because both sides run identical deterministic
    arithmetic. If entries repeat (only a key that validate_key rejects
    gives such a codebook), a shared value decrypts to the lowest byte.

    Tolerant mode (tolerance = eps): exactly one entry must be within eps,
    and its byte is the plaintext byte. Meant only for ciphertext that
    crossed a lossy decimal re-encoding; unreliable for large step counts.
    """
    if tolerance is not None and not tolerance > 0:
        raise ValueError("tolerance must be positive")
    values = ct.values
    _refuse_nonfinite(values)
    codebook = build_codebook(key)
    if tolerance is None:
        first = codebook.first_byte_of(values)
        misses = np.flatnonzero(first < 0)
        if misses.size:
            raise NoMatchError(int(misses[0]))
        return first.astype(np.uint8).tobytes()
    return codebook.nearest_bytes(values, tolerance)


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """RCT1 wire form: magic, version byte, u64 count, count big-endian doubles."""
    header = CIPHERTEXT_MAGIC + struct.pack(">BQ", CIPHERTEXT_VERSION, len(ct))
    return header + ct.values.astype(">f8").tobytes()


def deserialize_ciphertext(data: bytes) -> Ciphertext:
    """Parse the RCT1 form; FormatError on any structural mismatch."""
    if len(data) < 13:
        raise FormatError(f"ciphertext too short: {len(data)} bytes")
    if data[:4] != CIPHERTEXT_MAGIC:
        raise FormatError("bad ciphertext magic")
    version, count = struct.unpack(">BQ", data[4:13])
    if version != CIPHERTEXT_VERSION:
        raise FormatError(f"unsupported ciphertext version {version}")
    if len(data) != 13 + 8 * count:
        raise FormatError(
            f"ciphertext length {len(data)} does not match count {count}"
        )
    values = np.frombuffer(data, dtype=">f8", offset=13).astype(np.float64)
    _refuse_nonfinite(values)
    return Ciphertext(values=values)
