"""Independent reference implementations used only by the tests.

Everything here is written directly from the protocol contracts, without
importing package code, so that bit-for-bit comparisons between package
output and oracle output actually check two separate code paths.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MASK64 = (1 << 64) - 1


def rk4_step_lists(f, x, h):
    """One RK4 step on plain Python lists, in the contracted order."""
    m = len(x)
    half_h = h / 2.0
    a = f(x)
    b = f([x[i] + half_h * a[i] for i in range(m)])
    c = f([x[i] + half_h * b[i] for i in range(m)])
    d = f([x[i] + h * c[i] for i in range(m)])
    sixth_h = h / 6.0
    return [
        x[i] + sixth_h * (a[i] + 2.0 * b[i] + 2.0 * c[i] + d[i]) for i in range(m)
    ]


def rk4_run_lists(f, x, h, n):
    """n RK4 steps; returns the list of all n+1 sampled states."""
    samples = [list(x)]
    for _ in range(n):
        x = rk4_step_lists(f, x, h)
        samples.append(x)
    return samples


def rossler_rhs(a, b, c):
    def f(s):
        x, y, z = s
        return [-y - z, x + a * y, b + z * (x - c)]

    return f


def rossler_endpoint(a, b, c, x0, y0, z0, h, n):
    """Machine endpoint via the generic list-based stepper."""
    state = [float(x0), float(y0), float(z0)]
    for _ in range(n):
        state = rk4_step_lists(rossler_rhs(a, b, c), state, h)
    return tuple(state)


def rossler_first_bad_step(a, b, c, x0, y0, z0, h, n):
    """1-based index of the first step whose result goes non-finite, else 0."""
    state = [float(x0), float(y0), float(z0)]
    for k in range(1, n + 1):
        state = rk4_step_lists(rossler_rhs(a, b, c), state, h)
        if not all(math.isfinite(v) for v in state):
            return k
    return 0


def splitmix64_draws(seed, count):
    """The first `count` SplitMix64 outputs for the given seed."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def candidate_key_fields(seed):
    """(a, b, c, y0, z0, h, N) for one keygen candidate seed."""
    u = [z / 2**64 for z in splitmix64_draws(seed, 6)]
    return (
        0.1 + u[0] * 0.2,
        0.1 + u[1] * 0.2,
        4.0 + u[2] * 3.0,
        -1.0 + u[3] * 2.0,
        -1.0 + u[4] * 2.0,
        0.1,
        100 + int(u[5] * 901.0),
    )


def byte_x0(b):
    return (b + 1) / 1024.0


def exact_decrypt(values, entries):
    """Exact-mode inverse of the codebook substitution.

    A value decrypts to the lowest byte whose entry has the same binary64
    bits. Returns the recovered bytes, or the index of the first value that
    matches no entry.
    """
    by_bits = {}
    for b, entry in enumerate(entries):
        by_bits.setdefault(struct.pack("<d", entry), b)
    out = bytearray()
    for i, v in enumerate(values):
        b = by_bits.get(struct.pack("<d", v))
        if b is None:
            return i
        out.append(b)
    return bytes(out)


def tolerant_decrypt(values, entries, tolerance):
    """Tolerant-mode inverse of the codebook substitution, one value at a time.

    The nearest entry wins if it is within tolerance and the second-nearest
    is more than tolerance away. Returns the recovered bytes, or
    ("no match" | "ambiguous", index) for the first value that fails (no
    match is checked first).
    """
    entries = np.asarray(entries, dtype=np.float64)
    out = bytearray(len(values))
    for i, v in enumerate(values):
        dist = np.abs(entries - v)
        nearest = int(np.argmin(dist))
        d_sorted = np.partition(dist, 1)
        if d_sorted[0] > tolerance:
            return ("no match", i)
        if d_sorted[1] <= tolerance:
            return ("ambiguous", i)
        out[i] = nearest
    return bytes(out)


def weighted_sum(message):
    s = 0.0
    for i, byte in enumerate(message, start=1):
        s += i * ((byte + 1) / 1024.0)
    return s
