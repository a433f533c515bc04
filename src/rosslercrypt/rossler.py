"""The Rossler system and the machine that runs it.

    x' = -y - z
    y' = x + a*y
    z' = b + z*(x - c)

The system is chaotic near (a, b, c) = (0.2, 0.2, 5.7): nearby initial
states diverge exponentially while trajectories stay on a bounded attractor.

The "machine" maps (system parameters, initial state, step count, step
size) to the state after N fixed RK4 steps. Its output is reproducible
bit-for-bit, which is what the encryption and digest schemes built on top
of it require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DivergenceError


@dataclass(frozen=True)
class SystemParams:
    """The parameter triple (a, b, c)."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class StateVector:
    """One point (x, y, z) of the phase space."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class Trajectory:
    """States sampled every h time units; states[k] is the state at k*h."""

    h: float
    states: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1


#: Parameters in the classic chaotic regime; the simulation default.
CANONICAL_PARAMS = SystemParams(0.2, 0.2, 5.7)


def _check_machine_args(
    params: SystemParams, start, n_steps: int, h: float, least_n: int = 1
) -> None:
    """The machine's rule for its inputs: ValueError unless the parameters,
    every start coordinate in start and h are finite, h > 0 and
    n_steps >= least_n."""
    if not all(map(math.isfinite, (params.a, params.b, params.c))):
        raise ValueError("system parameters must be finite")
    if not all(map(math.isfinite, start)):
        raise ValueError("initial state must be finite")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and positive, got {h!r}")
    if n_steps < least_n:
        raise ValueError(f"step count must be >= {least_n}, got {n_steps}")


def run_machine(
    params: SystemParams, init: StateVector, n_steps: int, h: float
) -> StateVector:
    """State after n_steps RK4 steps of size h from init (kernels._endpoint)."""
    _check_machine_args(params, (init.x, init.y, init.z), n_steps, h)
    be = kernels.active_backend()
    x, y, z, fail = be.run_endpoint(
        params.a, params.b, params.c, init.x, init.y, init.z, h, n_steps
    )
    if fail != 0:
        raise DivergenceError(f"machine run diverged at step {fail}", step=fail)
    return StateVector(x, y, z)


def run_machine_trajectory(
    params: SystemParams, init: StateVector, n_steps: int, h: float
) -> Trajectory:
    """Full sampled trajectory; the last state equals run_machine's output.

    n_steps may also be 0: the trajectory is then the start alone.
    """
    _check_machine_args(params, (init.x, init.y, init.z), n_steps, h, least_n=0)
    be = kernels.active_backend()
    states, fail = be.run_trajectory(
        params.a, params.b, params.c, init.x, init.y, init.z, h, n_steps
    )
    if fail != 0:
        raise DivergenceError(f"machine run diverged at step {fail}", step=fail)
    return Trajectory(h=h, states=states)


def run_machine_batch(
    params: SystemParams,
    x0_values,
    y0: float,
    z0: float,
    n_steps: int,
    h: float,
) -> np.ndarray:
    """Endpoints of one machine run per entry of x0_values, sharing y0, z0.

    Raises DivergenceError for the lowest-indexed diverging entry.
    """
    start = (*np.ravel(x0_values).tolist(), y0, z0)
    _check_machine_args(params, start, n_steps, h)
    finals, fail_steps = kernels.active_backend().run_batch(
        params.a, params.b, params.c, x0_values, y0, z0, h, n_steps
    )
    failing = np.flatnonzero(fail_steps)
    if failing.size:
        entry = int(failing[0])
        step = int(fail_steps[entry])
        raise DivergenceError(
            f"machine run for entry {entry} diverged at step {step}",
            step=step,
            entry=entry,
        )
    return finals
