"""The package's one RK4 step (kernels._endpoint), through the machine entry
points: examples, error handling, and contract properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from rosslercrypt import (
    CANONICAL_PARAMS,
    DivergenceError,
    StateVector,
    SystemParams,
    run_machine,
    run_machine_batch,
    run_machine_trajectory,
)

SIM_INIT = StateVector(0.0001, 0.0001, 0.0001)


def bits(arr) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


def entry_points(params, init, n_steps, h):
    """Every public way of running the machine, each bound to the same arguments."""
    return [
        lambda: run_machine(params, init, n_steps, h),
        lambda: run_machine_trajectory(params, init, n_steps, h),
        lambda: run_machine_batch(params, [init.x], init.y, init.z, n_steps, h),
    ]


def assert_each_refuses(runs):
    for run in runs:
        with pytest.raises(ValueError):
            run()


class TestRk4Step:
    def test_zero_field_returns_state_unchanged(self):
        # With b = 0, (c, -c/a, c/a) is an equilibrium; for a = 0.5, c = 1
        # every stage is exactly zero, so the step adds +0.0 to each part.
        params = SystemParams(0.5, 0.0, 1.0)
        state = StateVector(1.0, -2.0, 2.0)
        out = run_machine(params, state, 1, 0.1)
        assert bits([out.x, out.y, out.z]) == bits([state.x, state.y, state.z])

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
    def test_invalid_step_size_rejected(self, h):
        assert_each_refuses(entry_points(CANONICAL_PARAMS, SIM_INIT, 10, h))

    @pytest.mark.parametrize(
        "init",
        [
            StateVector(math.nan, 0.0001, 0.0001),
            StateVector(0.0001, math.inf, 0.0001),
            StateVector(0.0001, 0.0001, -math.inf),
        ],
        ids=["x0-nan", "y0-inf", "z0--inf"],
    )
    def test_nonfinite_start_rejected(self, init):
        # Refused as an argument, not reported as a divergence at step 1:
        # by the trajectory also at 0 steps, by a batch for any one entry.
        runs = entry_points(CANONICAL_PARAMS, init, 10, 0.1)
        runs.append(lambda: run_machine_trajectory(CANONICAL_PARAMS, init, 0, 0.1))
        x0s = np.array([0.25, init.x, 0.5])
        runs.append(
            lambda: run_machine_batch(CANONICAL_PARAMS, x0s, init.y, init.z, 10, 0.1)
        )
        assert_each_refuses(runs)

    def test_nonfinite_stage_raises_divergence(self):
        # z * (x - c) overflows in the first stage.
        init = StateVector(1e308, 0.0, 1e308)
        assert oracles.rossler_first_bad_step(0.2, 0.2, 5.7, 1e308, 0.0, 1e308, 0.1, 5) == 1
        with pytest.raises(DivergenceError) as exc_info:
            run_machine(CANONICAL_PARAMS, init, 5, 0.1)
        assert exc_info.value.step == 1


class TestRk4Stages:
    def test_step_combines_the_stages(self):
        # The four stages come from the list oracle's field, not the
        # kernel; the kernel's single step must combine them with weights
        # 1, 2, 2, 1 in the contracted order.
        h = 0.1
        half_h = h / 2.0
        sixth_h = h / 6.0
        f = oracles.rossler_rhs(0.2, 0.2, 5.7)
        s = [SIM_INIT.x, SIM_INIT.y, SIM_INIT.z]

        def shifted(k, scale):
            return [v + scale * kv for v, kv in zip(s, k)]

        a = f(s)
        b = f(shifted(a, half_h))
        c = f(shifted(b, half_h))
        d = f(shifted(c, h))
        expected = [
            v + sixth_h * (ka + 2.0 * kb + 2.0 * kc + kd)
            for v, ka, kb, kc, kd in zip(s, a, b, c, d)
        ]
        out = run_machine(CANONICAL_PARAMS, SIM_INIT, 1, h)
        assert bits([out.x, out.y, out.z]) == bits(expected)


class TestStepCountAndSamples:
    def test_negative_step_count_rejected(self):
        assert_each_refuses(entry_points(CANONICAL_PARAMS, SIM_INIT, -1, 0.1))

    def test_matches_list_oracle_bit_for_bit(self):
        # Every sampled state, not only the endpoint, equals the list oracle.
        samples = oracles.rk4_run_lists(
            oracles.rossler_rhs(0.2, 0.2, 5.7), [0.0001, 0.0001, 0.0001], 0.1, 50
        )
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 50, 0.1)
        assert bits(traj) == bits(samples)


class TestTrajectorySamples:
    def test_prefix_property(self):
        long = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 12, 0.1)
        short = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 5, 0.1)
        assert bits(long[:6]) == bits(short)

    def test_each_sample_matches_run_machine(self):
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 10, 0.1)
        for k in range(1, 11):
            direct = run_machine(CANONICAL_PARAMS, SIM_INIT, k, 0.1)
            assert bits(traj[k]) == bits([direct.x, direct.y, direct.z])


class TestProperties:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_integration_composes_bit_exactly(self, split, rest):
        # N steps from the start equal split steps, then N - split more.
        whole = run_machine(CANONICAL_PARAMS, SIM_INIT, split + rest, 0.1)
        middle = run_machine(CANONICAL_PARAMS, SIM_INIT, split, 0.1)
        tail = run_machine(CANONICAL_PARAMS, middle, rest, 0.1)
        assert bits([whole.x, whole.y, whole.z]) == bits([tail.x, tail.y, tail.z])

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=20),
    )
    def test_zero_field_is_fixed_point(self, a, c, n_steps):
        # With b = 0 the origin is an equilibrium for every a and c.
        out = run_machine(SystemParams(a, 0.0, c), StateVector(0.0, 0.0, 0.0), n_steps, 0.1)
        assert bits([out.x, out.y, out.z]) == bits(np.zeros(3))
