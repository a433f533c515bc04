"""Independent pure-Python reference for the benchmark's output checks.

Written from the protocol contracts (the README and the package
docstrings), not from the package code, and it imports nothing from
``rosslercrypt``. A bit-equal match between package output and these
functions therefore checks two separate code paths. A reordered RK4 step
still round-trips through encrypt and decrypt, so round trips alone prove
nothing; these values do.
"""

from __future__ import annotations

import math
import struct

MASK64 = (1 << 64) - 1
GOLDEN_RATIO_CONJUGATE = 0.6180339887498949
CANONICAL = (0.2, 0.2, 5.7)


def endpoint(a, b, c, x, y, z, h, n):
    """State after n RK4 steps of the Rossler field, in the contracted order.

    Every stage is evaluated left to right as written in the contract, with
    h/2 and h/6 formed once per run. Returns None if a component goes
    non-finite.
    """
    half_h = h / 2.0
    sixth_h = h / 6.0
    for _ in range(n):
        k1 = (-y - z, x + a * y, b + z * (x - c))
        px, py, pz = x + half_h * k1[0], y + half_h * k1[1], z + half_h * k1[2]
        k2 = (-py - pz, px + a * py, b + pz * (px - c))
        px, py, pz = x + half_h * k2[0], y + half_h * k2[1], z + half_h * k2[2]
        k3 = (-py - pz, px + a * py, b + pz * (px - c))
        px, py, pz = x + h * k3[0], y + h * k3[1], z + h * k3[2]
        k4 = (-py - pz, px + a * py, b + pz * (px - c))
        x = x + sixth_h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y = y + sixth_h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        z = z + sixth_h * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        return None
    return x, y, z


def splitmix64(seed, count):
    """The first `count` SplitMix64 outputs for a seed."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def candidate_key(seed):
    """(a, b, c, y0, z0, h, N) of the keygen candidate for one seed."""
    u = [v / 2**64 for v in splitmix64(seed, 6)]
    return (
        0.1 + u[0] * 0.2,
        0.1 + u[1] * 0.2,
        4.0 + u[2] * 3.0,
        -1.0 + u[3] * 2.0,
        -1.0 + u[4] * 2.0,
        0.1,
        100 + int(u[5] * 901.0),
    )


def key_bytes(fields):
    """61-byte key file: RKEY, version 1, six big-endian doubles, u64 N."""
    return b"RKEY" + struct.pack(">B6dQ", 1, *fields)


def codebook_entry(fields, byte):
    """Ciphertext value of one plaintext byte under a key: final x."""
    a, b, c, y0, z0, h, n = fields
    final = endpoint(a, b, c, (byte + 1) / 1024.0, y0, z0, h, n)
    return None if final is None else final[0]


def codebook(fields):
    """All 256 entries, or None if any run diverges."""
    entries = [codebook_entry(fields, b) for b in range(256)]
    return None if None in entries else entries


def key_is_valid(fields):
    """Keygen's acceptance rule: finite codebook, entries bit-distinct."""
    entries = codebook(fields)
    if entries is None:
        return False
    return len({struct.pack("<d", v) for v in entries}) == 256


def weighted_sum(message):
    """Sum of i * (m_i + 1) / 1024 over 1-based positions, left to right."""
    s = 0.0
    for i, byte in enumerate(message, start=1):
        s += i * ((byte + 1) / 1024.0)
    return s


def digest_hex(message, fields, wsum=None):
    """16 hex digits of the keyed digest; wsum may be passed precomputed."""
    a, b, c, y0, z0, h, n = fields
    s = weighted_sum(message) if wsum is None else wsum
    u = s * GOLDEN_RATIO_CONJUGATE
    x0 = u - math.floor(u)
    final = endpoint(a, b, c, x0, y0, z0, h, n)
    return struct.pack(">d", final[0]).hex()


def rct1(values_be: bytes, count: int) -> bytes:
    """RCT1 ciphertext file from big-endian doubles."""
    return b"RCT1" + struct.pack(">BQ", 1, count) + values_be
