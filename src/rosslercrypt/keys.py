"""Shared-secret keys: generation, validation, and bit-exact serialization.

A key holds everything both parties need to reproduce each other's machine
runs: the system parameters (a, b, c), the fixed initial values y0 and z0
(the x slot carries the data), the step size h, and the step count N. That
is 7 components; with n-bit encodings the keyspace has 2^(7n) members.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .cipher import build_codebook
from .errors import DivergenceError, FormatError, KeygenExhausted

KEY_MAGIC = b"RKEY"
KEY_VERSION = 1
KEY_SIZE = 61

_MASK64 = (1 << 64) - 1

#: Largest usable step count N: a 16-bit key component. The codebook costs
#: 256 * N RK4 steps, so this bounds the work one key file can ask for.
MAX_STEPS = 65535


@dataclass(frozen=True)
class RosslerKey:
    """The 7-component shared secret."""

    a: float
    b: float
    c: float
    y0: float
    z0: float
    h: float
    n_steps: int


@dataclass(frozen=True)
class KeyValidationReport:
    """Outcome of validate_key.

    reason is one of "nonfinite_parameter", "out_of_range", "divergent",
    "collision", or None when valid. detail carries (byte, step) for
    divergent and (byte1, byte2) for collision.
    """

    valid: bool
    reason: str | None = None
    detail: tuple[int, ...] = ()


def keyspace_bits(n_bits_per_component: int) -> int:
    """Exponent of the keyspace size 2^(7n) for n-bit key components."""
    if n_bits_per_component < 1:
        raise ValueError("bits per component must be >= 1")
    return 7 * n_bits_per_component


def _splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 output and the advanced state."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def _candidate_key(seed: int) -> RosslerKey:
    """Candidate key for one seed.

    Six SplitMix64 outputs z are drawn in order and mapped through
    u = z / 2^64 (binary64 division) to:

        a  = 0.1 + u * 0.2        b  = 0.1 + u * 0.2
        c  = 4.0 + u * 3.0        y0 = -1.0 + u * 2.0
        z0 = -1.0 + u * 2.0       N  = 100 + floor(u * 901.0)

    h is fixed at 0.1, the regime the canonical parameters are known to
    behave in. Ranges hug the chaotic region; far-off parameters tend to
    diverge or fall onto non-chaotic behavior.
    """
    state = seed & _MASK64
    u = []
    for _ in range(6):
        z, state = _splitmix64(state)
        u.append(z / 2**64)
    return RosslerKey(
        a=0.1 + u[0] * 0.2,
        b=0.1 + u[1] * 0.2,
        c=4.0 + u[2] * 3.0,
        y0=-1.0 + u[3] * 2.0,
        z0=-1.0 + u[4] * 2.0,
        h=0.1,
        n_steps=100 + int(u[5] * 901.0),
    )


def generate_key(seed: int) -> RosslerKey:
    """Derive a valid key deterministically from a 64-bit seed.

    The candidate for the seed is validated; invalid candidates (rare) are
    replaced by the candidate for the successor seed, and so on. The same
    seed always yields the same key, on any machine.
    """
    base = seed & _MASK64
    for attempt in range(1000):
        key = _candidate_key((base + attempt) & _MASK64)
        if validate_key(key).valid:
            return key
    raise KeygenExhausted("no valid key among 1000 consecutive candidate seeds")


def _unusable(key: RosslerKey) -> str | None:
    """Why the key cannot drive the machine, or None: "nonfinite_parameter"
    (a field is NaN or infinite) or "out_of_range" (h <= 0, or N outside
    1..MAX_STEPS)."""
    if not all(map(math.isfinite, (key.a, key.b, key.c, key.y0, key.z0, key.h))):
        return "nonfinite_parameter"
    if key.h <= 0 or not 1 <= key.n_steps <= MAX_STEPS:
        return "out_of_range"
    return None


def validate_key(key: RosslerKey) -> KeyValidationReport:
    """Check that the key yields a usable codebook.

    Valid means: all fields finite, h > 0, 1 <= N <= MAX_STEPS, all 256
    codebook entries finite, and all entries pairwise bit-distinct. The
    full codebook is built because collision freedom is exactly what
    exact-mode decryption rests on. build_codebook keeps it, so encrypt
    and decrypt with this key reuse it until another key's codebook is
    built.
    """
    if reason := _unusable(key):
        return KeyValidationReport(False, reason)
    try:
        codebook = build_codebook(key)
    except DivergenceError as err:
        return KeyValidationReport(
            False, "divergent", (int(err.entry), int(err.step))
        )
    first = codebook.first_byte_of(codebook.entries)
    repeats = (first != range(256)).nonzero()[0]
    if repeats.size:
        b2 = int(repeats[0])
        return KeyValidationReport(False, "collision", (int(first[b2]), b2))
    return KeyValidationReport(True)


def serialize_key(key: RosslerKey) -> bytes:
    """61-byte wire form: "RKEY", version 0x01, six big-endian binary64
    values (a, b, c, y0, z0, h), then N as big-endian u64."""
    if reason := _unusable(key):
        raise ValueError(f"cannot serialize an unusable key: {reason}")
    return KEY_MAGIC + struct.pack(
        ">B6dQ", KEY_VERSION, key.a, key.b, key.c, key.y0, key.z0, key.h, key.n_steps
    )


def deserialize_key(data: bytes) -> RosslerKey:
    """Inverse of serialize_key, bit-exact.

    FormatError on wrong length, magic, or version; ValueError if the
    decoded fields are not a usable key (non-finite, h <= 0, N outside
    1..MAX_STEPS).
    """
    if len(data) != KEY_SIZE:
        raise FormatError(f"key file must be {KEY_SIZE} bytes, got {len(data)}")
    if data[:4] != KEY_MAGIC:
        raise FormatError("bad key magic")
    version, a, b, c, y0, z0, h, n_steps = struct.unpack(">B6dQ", data[4:])
    if version != KEY_VERSION:
        raise FormatError(f"unsupported key version {version}")
    key = RosslerKey(a=a, b=b, c=c, y0=y0, z0=z0, h=h, n_steps=int(n_steps))
    if reason := _unusable(key):
        raise ValueError(f"unusable key: {reason}")
    return key
