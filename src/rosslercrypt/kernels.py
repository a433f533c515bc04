"""Stepping kernels for the Rossler system, in two interchangeable backends.

The scalar step loops (single runs, sampled trajectories, and whole batches
of runs sharing parameters) are defined once, below, as plain Python:

* ``numba``: those loops compiled with ``numba.njit``. Active whenever
  numba imports.
* ``numpy``: the same loops run as plain Python, except that a batch runs
  _endpoint's own code once on arrays, stepping all entries together; the
  entries that diverged are then rerun alone by the scalar loop.

Both backends must produce bit-identical binary64 results; the test suite
enforces this, and the protocol relies on it (sender and receiver reproduce
each other's bits).

The step body below is a wire contract, not a style choice: every operation
is binary64, in exactly the written order, with h/2 and h/6 formed once per
run. Do not reassociate, fuse, or reorder.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _endpoint(a, b, c, x, y, z, h, n):
    """Advance (x, y, z) through n RK4 steps of the Rossler field.

    Returns (x, y, z, fail_step). fail_step is the 1-based index of the
    first step whose result contains a non-finite component, 0 if none;
    on failure the returned state is the offending one.
    """
    half_h = h / 2.0
    sixth_h = h / 6.0
    for k in range(1, n + 1):
        ax = -y - z
        ay = x + a * y
        az = b + z * (x - c)
        x1 = x + half_h * ax
        y1 = y + half_h * ay
        z1 = z + half_h * az
        bx = -y1 - z1
        by = x1 + a * y1
        bz = b + z1 * (x1 - c)
        x2 = x + half_h * bx
        y2 = y + half_h * by
        z2 = z + half_h * bz
        cx = -y2 - z2
        cy = x2 + a * y2
        cz = b + z2 * (x2 - c)
        x3 = x + h * cx
        y3 = y + h * cy
        z3 = z + h * cz
        dx = -y3 - z3
        dy = x3 + a * y3
        dz = b + z3 * (x3 - c)
        x = x + sixth_h * (ax + 2.0 * bx + 2.0 * cx + dx)
        y = y + sixth_h * (ay + 2.0 * by + 2.0 * cy + dy)
        z = z + sixth_h * (az + 2.0 * bz + 2.0 * cz + dz)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            return x, y, z, k
    return x, y, z, 0


def _trajectory(a, b, c, x, y, z, h, n, out):
    """Fill out[k] with the state after k steps, k = 0..n.

    Returns the fail step as in _endpoint; rows past a failure are left
    untouched except the failing row itself.
    """
    out[0, 0] = x
    out[0, 1] = y
    out[0, 2] = z
    for k in range(1, n + 1):
        x, y, z, fail = _endpoint(a, b, c, x, y, z, h, 1)
        out[k, 0] = x
        out[k, 1] = y
        out[k, 2] = z
        if fail != 0:
            return k
    return 0


def _batch(a, b, c, x0s, y0, z0, h, n, finals, fail_steps):
    """Run one endpoint per initial x in x0s; fill finals and fail_steps."""
    for i in range(x0s.shape[0]):
        x, y, z, fail = _endpoint(a, b, c, x0s[i], y0, z0, h, n)
        finals[i, 0] = x
        finals[i, 1] = y
        finals[i, 2] = z
        fail_steps[i] = fail


def _rebind(fn: Callable, **names) -> Callable:
    """A copy of fn that finds the given names in place of its module globals."""
    return types.FunctionType(fn.__code__, {**fn.__globals__, **names}, fn.__name__)


# _endpoint's code with a finiteness check that always passes, so that it
# runs on arrays: each numpy op is the same binary64 operation per entry.
_endpoint_unchecked = _rebind(
    _endpoint, math=types.SimpleNamespace(isfinite=lambda v: True)
)


def _batch_numpy(a, b, c, x0s, y0, z0, h, n, finals, fail_steps):
    """_batch with all entries stepped together by _endpoint's code on arrays.

    The array pass does not stop at a failure, but it need not: once a
    component is +-inf or NaN it stays so (x + t is non-finite for every t),
    so the entries whose finals are non-finite are exactly those that
    diverged. Each is rerun alone by the scalar loop, which stops at its
    fail step, so finals and fail_steps equal _batch's.
    """
    with np.errstate(all="ignore"):
        finals[:, 0], finals[:, 1], finals[:, 2], _ = _endpoint_unchecked(
            a, b, c, x0s, y0, z0, h, n
        )
        for i in np.flatnonzero(~np.isfinite(finals).all(axis=1)):
            x, y, z, fail_steps[i] = _endpoint(a, b, c, x0s[i], y0, z0, h, n)
            finals[i] = x, y, z


@dataclass(frozen=True)
class Backend:
    """One implementation of the stepping kernels."""

    name: str
    endpoint: Callable
    trajectory: Callable
    batch: Callable

    def run_endpoint(self, a, b, c, x, y, z, h, n):
        return self.endpoint(a, b, c, x, y, z, h, n)

    def run_trajectory(self, a, b, c, x, y, z, h, n) -> tuple[np.ndarray, int]:
        out = np.empty((n + 1, 3), dtype=np.float64)
        fail = self.trajectory(a, b, c, x, y, z, h, n, out)
        return out, fail

    def run_batch(self, a, b, c, x0s, y0, z0, h, n) -> tuple[np.ndarray, np.ndarray]:
        x0s = np.ascontiguousarray(x0s, dtype=np.float64)
        finals = np.empty((x0s.shape[0], 3), dtype=np.float64)
        fail_steps = np.zeros(x0s.shape[0], dtype=np.int64)
        self.batch(a, b, c, x0s, y0, z0, h, n, finals, fail_steps)
        return finals, fail_steps


def _compiled_backend(name: str, compile_fn: Callable) -> Backend:
    """A backend whose kernels are compile_fn applied to the loops above.

    _trajectory and _batch find _endpoint as a global, so each is cloned
    with that global bound to the compiled endpoint before it is compiled:
    the compiled loops then call compiled code, from one source per loop.
    """
    endpoint = compile_fn(_endpoint)
    return Backend(
        name,
        endpoint,
        compile_fn(_rebind(_trajectory, _endpoint=endpoint)),
        compile_fn(_rebind(_batch, _endpoint=endpoint)),
    )


# The backends that import, fastest first.
_BACKENDS: dict[str, Backend] = {}
try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    pass
else:
    _BACKENDS["numba"] = _compiled_backend("numba", njit(cache=True))
_BACKENDS["numpy"] = Backend("numpy", _endpoint, _trajectory, _batch_numpy)


def available_backends() -> tuple[str, ...]:
    return tuple(_BACKENDS)


def get_backend(name: str) -> Backend:
    """The backend called name; ValueError if it is unknown or unavailable."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown or unavailable backend {name!r}")
    return _BACKENDS[name]


_ACTIVE = next(iter(_BACKENDS.values()))


def active_backend() -> Backend:
    """numba if it imports, else numpy: chosen at import, the same instance
    on every call."""
    return _ACTIVE
