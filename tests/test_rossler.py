"""The Rossler field, the machine, and backend equivalence."""

from __future__ import annotations

import collections
import importlib.util
import math
import random
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
from rosslercrypt import (
    CANONICAL_PARAMS,
    DivergenceError,
    StateVector,
    SystemParams,
    kernels,
    run_machine,
    run_machine_batch,
    run_machine_trajectory,
)

SIM_INIT = StateVector(0.0001, 0.0001, 0.0001)


def bits(arr) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


class TestField:
    # The list oracle's field, which every bit-for-bit test here relies on,
    # against substitution by hand.
    def test_origin(self):
        assert oracles.rossler_rhs(0.2, 0.2, 5.7)([0.0, 0.0, 0.0]) == [0.0, 0.0, 0.2]

    @pytest.mark.parametrize(
        "state, expected",
        [
            (StateVector(1.0, 1.0, 1.0), (-2.0, 1.2, -4.5)),
            (StateVector(0.0, -1.0, 1.0), (0.0, -0.2, -5.5)),
        ],
    )
    def test_hand_substitution(self, state, expected):
        out = oracles.rossler_rhs(0.2, 0.2, 5.7)([state.x, state.y, state.z])
        assert tuple(out) == expected


class TestRunMachine:
    def test_default_sim_config_is_finite(self):
        out = run_machine(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        assert all(math.isfinite(v) for v in (out.x, out.y, out.z))

    def test_default_sim_config_matches_independent_oracle_bits(self):
        out = run_machine(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        expected = oracles.rossler_endpoint(0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 0.1, 500)
        assert (out.x, out.y, out.z) == expected

    def test_single_step_from_origin_hand_stages(self):
        # First stage at the origin is (0, 0, 0.2); the remaining stages
        # are spelled out with plain scalars.
        a, b, c = 0.2, 0.2, 5.7
        h = 0.1
        half_h = h / 2.0
        s1 = (-0.0 - 0.0, 0.0 + a * 0.0, b + 0.0 * (0.0 - c))
        assert s1 == (0.0, 0.0, 0.2)
        p1 = (0.0 + half_h * s1[0], 0.0 + half_h * s1[1], 0.0 + half_h * s1[2])
        s2 = (-p1[1] - p1[2], p1[0] + a * p1[1], b + p1[2] * (p1[0] - c))
        p2 = (0.0 + half_h * s2[0], 0.0 + half_h * s2[1], 0.0 + half_h * s2[2])
        s3 = (-p2[1] - p2[2], p2[0] + a * p2[1], b + p2[2] * (p2[0] - c))
        p3 = (0.0 + h * s3[0], 0.0 + h * s3[1], 0.0 + h * s3[2])
        s4 = (-p3[1] - p3[2], p3[0] + a * p3[1], b + p3[2] * (p3[0] - c))
        sixth_h = h / 6.0
        expected = tuple(
            0.0 + sixth_h * (s1[i] + 2.0 * s2[i] + 2.0 * s3[i] + s4[i])
            for i in range(3)
        )
        out = run_machine(CANONICAL_PARAMS, StateVector(0.0, 0.0, 0.0), 1, 0.1)
        assert (out.x, out.y, out.z) == expected

    def test_deterministic(self):
        first = run_machine(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        second = run_machine(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        assert (first.x, first.y, first.z) == (second.x, second.y, second.z)

    def test_random_configs_match_oracle_bit_for_bit(self):
        rng = random.Random(2024)
        for _ in range(25):
            params = SystemParams(
                rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3), rng.uniform(4, 7)
            )
            init = StateVector(
                rng.uniform(0, 0.25), rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            n = rng.randint(1, 400)
            fast = run_machine(params, init, n, 0.1)
            expected = oracles.rossler_endpoint(
                params.a, params.b, params.c, init.x, init.y, init.z, 0.1, n
            )
            assert (fast.x, fast.y, fast.z) == expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_steps=0, h=0.1),
            dict(n_steps=-3, h=0.1),
            dict(n_steps=10, h=0.0),
            dict(n_steps=10, h=-1.0),
            dict(n_steps=10, h=math.inf),
        ],
    )
    def test_preconditions(self, kwargs):
        with pytest.raises(ValueError):
            run_machine(CANONICAL_PARAMS, SIM_INIT, **kwargs)

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            run_machine(SystemParams(math.nan, 0.2, 5.7), SIM_INIT, 10, 0.1)

    def test_divergence_step_matches_oracle(self):
        expected = oracles.rossler_first_bad_step(
            0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 10.0, 100
        )
        assert expected > 0
        with pytest.raises(DivergenceError) as exc_info:
            run_machine(CANONICAL_PARAMS, SIM_INIT, 100, 10.0)
        assert exc_info.value.step == expected


class TestTrajectory:
    def test_default_sim_config_shape_and_finiteness(self):
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        assert isinstance(traj, np.ndarray) and traj.dtype == np.float64
        assert traj.shape == (501, 3)
        assert np.isfinite(traj).all()

    def test_first_state_is_initial_state(self):
        start = bits([SIM_INIT.x, SIM_INIT.y, SIM_INIT.z])
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 20, 0.1)
        assert bits(traj[0]) == start
        # Zero steps: the trajectory is the start alone.
        alone = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 0, 0.1)
        assert alone.shape == (1, 3)
        assert bits(alone) == start

    def test_last_state_matches_run_machine(self):
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 137, 0.1)
        end = run_machine(CANONICAL_PARAMS, SIM_INIT, 137, 0.1)
        assert tuple(traj[-1]) == (end.x, end.y, end.z)

    def test_short_horizon_accuracy_against_fine_reference(self):
        # First 200 coarse states vs a list-oracle run at h/8, sampled
        # every 8th state.
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 200, 0.1)
        reference = oracles.rk4_run_lists(
            oracles.rossler_rhs(0.2, 0.2, 5.7),
            [SIM_INIT.x, SIM_INIT.y, SIM_INIT.z],
            0.0125,
            1600,
        )
        gap = np.abs(traj - np.array(reference[::8])).max()
        assert gap < 1e-4

    def test_default_sim_run_stays_bounded(self):
        traj = run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 500, 0.1)
        assert np.abs(traj).max() < 100

    def test_divergence_step_matches_oracle(self):
        expected = oracles.rossler_first_bad_step(
            0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 10.0, 100
        )
        with pytest.raises(DivergenceError) as exc_info:
            run_machine_trajectory(CANONICAL_PARAMS, SIM_INIT, 100, 10.0)
        assert exc_info.value.step == expected

    def test_sensitive_dependence_on_attractor(self):
        # Settle onto the attractor first, then perturb x by 1e-8; the
        # copies must drift more than 1e-2 apart within 2000 steps.
        base = run_machine(CANONICAL_PARAMS, SIM_INIT, 3000, 0.1)
        nearby = StateVector(base.x + 1e-8, base.y, base.z)
        ref = run_machine_trajectory(CANONICAL_PARAMS, base, 2000, 0.1)
        per = run_machine_trajectory(CANONICAL_PARAMS, nearby, 2000, 0.1)
        separation = np.linalg.norm(ref - per, axis=1)
        assert separation.max() > 1e-2


class TestBatch:
    def test_matches_single_runs_bit_for_bit(self):
        x0s = np.array([(b + 1) / 1024.0 for b in range(64)])
        finals = run_machine_batch(CANONICAL_PARAMS, x0s, 0.0001, 0.0001, 200, 0.1)
        for i, x0 in enumerate(x0s):
            single = run_machine(
                CANONICAL_PARAMS, StateVector(float(x0), 0.0001, 0.0001), 200, 0.1
            )
            assert tuple(finals[i]) == (single.x, single.y, single.z)

    def test_divergence_reports_lowest_entry_and_step(self):
        # Every entry fails at step 3.
        x0s = np.array([(b + 1) / 1024.0 for b in range(16)])
        steps = assert_batch_matches_oracle(
            (0.2, 0.2, 5.7), x0s, 0.0001, 0.0001, 10.0, 50
        )
        assert set(steps) == {3}
        # A mix: 158 entries stay finite, 98 diverge at 14 distinct steps
        # from 205 to 243, one of them at the last step.
        x0s = np.array([(b + 1) / 1024.0 for b in range(256)])
        steps = assert_batch_matches_oracle(
            (0.064, 0.098, 4.962), x0s, -0.079, 0.241, 0.5, 243
        )
        assert steps.count(0) == 158
        assert sorted(set(steps) - {0}) == [
            205, 206, 215, 216, 217, 218, 219, 228, 229, 230, 233, 241, 242, 243
        ]
        assert steps.count(243) == 1


def assert_batch_matches_oracle(abc, x0s, y0, z0, h, n) -> list[int]:
    """Check a diverging batch on every backend against the oracle: fail
    steps, finals (the state at the fail step, if any) and the entry and
    step run_machine_batch reports. Returns the oracle's fail steps."""
    steps = [oracles.rossler_first_bad_step(*abc, x0, y0, z0, h, n) for x0 in x0s]
    lowest = next(i for i, s in enumerate(steps) if s > 0)
    with pytest.raises(DivergenceError) as exc_info:
        run_machine_batch(SystemParams(*abc), x0s, y0, z0, n, h)
    assert exc_info.value.entry == lowest
    assert exc_info.value.step == steps[lowest]
    expected = np.array(
        [
            oracles.rossler_endpoint(*abc, x0, y0, z0, h, s or n)
            for x0, s in zip(x0s, steps)
        ]
    )
    finite = np.array(steps) == 0
    for name in kernels.available_backends():
        be = kernels.get_backend(name)
        finals, fail_steps = be.run_batch(*abc, x0s, y0, z0, h, n)
        assert fail_steps.tolist() == steps
        assert bits(finals[finite]) == bits(expected[finite])
        assert np.array_equal(finals, expected, equal_nan=True)
    return steps


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.get_backend("fortran")

    def test_active_backend_is_chosen_once(self):
        assert kernels.active_backend() is kernels.active_backend()
        assert kernels.active_backend().name in kernels.available_backends()


def stand_in_backend():
    """A backend built like the numba one, by a compiler that only counts
    the calls of each function it compiled."""
    calls = collections.Counter()

    def compile_fn(fn):
        def compiled(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return compiled

    return kernels._compiled_backend("stand-in", compile_fn), calls


class TestCompiledBackend:
    """The compiled backend's wiring, checked with a stand-in compiler
    (numba need not be importable)."""

    def test_bits_match_numpy_backend(self):
        compiled, _ = stand_in_backend()
        numpy_be = kernels.get_backend("numpy")
        args = (0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 0.1, 500)
        assert compiled.run_endpoint(*args) == numpy_be.run_endpoint(*args)
        states_c, fail_c = compiled.run_trajectory(*args)
        states_np, fail_np = numpy_be.run_trajectory(*args)
        assert fail_c == fail_np == 0
        assert bits(states_c) == bits(states_np)

        x0s = np.array([(b + 1) / 1024.0 for b in range(256)])
        args = (0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 0.1, 400)
        finals_c, fails_c = compiled.run_batch(*args)
        finals_np, fails_np = numpy_be.run_batch(*args)
        assert bits(finals_c) == bits(finals_np)
        assert fails_c.tolist() == fails_np.tolist() == [0] * 256

    def test_divergence_steps_match_numpy_backend(self):
        compiled, _ = stand_in_backend()
        numpy_be = kernels.get_backend("numpy")
        x0s = np.array([(b + 1) / 1024.0 for b in range(32)])
        args = (0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 10.0, 60)
        with np.errstate(all="ignore"):  # the scalar loop steps numpy scalars
            finals_c, fails_c = compiled.run_batch(*args)
        finals_np, fails_np = numpy_be.run_batch(*args)
        assert (fails_c > 0).any()
        assert fails_c.tolist() == fails_np.tolist()
        assert bits(finals_c) == bits(finals_np)

        args = (0.2, 0.2, 5.7, 0.25, 0.0001, 0.0001, 10.0, 60)
        states_c, fail_c = compiled.run_trajectory(*args)
        states_np, fail_np = numpy_be.run_trajectory(*args)
        assert fail_c == fail_np > 0
        assert bits(states_c[: fail_c + 1]) == bits(states_np[: fail_np + 1])

    def test_loops_call_the_compiled_endpoint(self):
        compiled, calls = stand_in_backend()
        compiled.run_trajectory(0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 0.1, 50)
        assert calls == {"_trajectory": 1, "_endpoint": 50}
        x0s = np.array([(b + 1) / 1024.0 for b in range(16)])
        compiled.run_batch(0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 0.1, 30)
        assert calls == {"_trajectory": 1, "_batch": 1, "_endpoint": 66}

    def test_module_endpoint_stays_the_python_source(self):
        stand_in_backend()
        assert isinstance(kernels._endpoint, types.FunctionType)
        assert kernels._endpoint.__module__ == "rosslercrypt.kernels"
        assert kernels.get_backend("numpy").endpoint is kernels._endpoint
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        # Operators in one RK4 step of the step loop, read from its source.
        assert tracer.step_op_count() == 67

    def test_step_body_is_written_once(self):
        # Every backend runs _endpoint's code; a second copy could drift.
        source = Path(kernels.__file__).read_text()
        update = "x = x + sixth_h * (ax + 2.0 * bx + 2.0 * cx + dx)"
        assert source.count(update) == 1
        # No other module of the package writes an RK4 step of its own.
        package = Path(kernels.__file__).parent
        with_step = [p.name for p in package.glob("*.py") if "/ 6.0" in p.read_text()]
        assert with_step == ["kernels.py"]


@pytest.mark.skipif(
    len(kernels.available_backends()) < 2, reason="numba backend unavailable"
)
class TestBackendEquivalence:
    def test_endpoint_bits_match_across_backends(self):
        numba_be = kernels.get_backend("numba")
        numpy_be = kernels.get_backend("numpy")
        rng = random.Random(7)
        for _ in range(40):
            args = (
                rng.uniform(0.1, 0.3),
                rng.uniform(0.1, 0.3),
                rng.uniform(4, 7),
                rng.uniform(0, 0.25),
                rng.uniform(-1, 1),
                rng.uniform(-1, 1),
                0.1,
                rng.randint(1, 1500),
            )
            assert numba_be.run_endpoint(*args) == numpy_be.run_endpoint(*args)

    def test_trajectory_bits_match_across_backends(self):
        numba_be = kernels.get_backend("numba")
        numpy_be = kernels.get_backend("numpy")
        args = (0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 0.1, 500)
        states_nb, fail_nb = numba_be.run_trajectory(*args)
        states_np, fail_np = numpy_be.run_trajectory(*args)
        assert fail_nb == fail_np == 0
        assert bits(states_nb) == bits(states_np)

    def test_batch_bits_match_across_backends(self):
        numba_be = kernels.get_backend("numba")
        numpy_be = kernels.get_backend("numpy")
        x0s = np.array([(b + 1) / 1024.0 for b in range(256)])
        args = (0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 0.1, 400)
        finals_nb, fails_nb = numba_be.run_batch(*args)
        finals_np, fails_np = numpy_be.run_batch(*args)
        assert bits(finals_nb) == bits(finals_np)
        assert fails_nb.tolist() == fails_np.tolist()

    def test_batch_divergence_steps_match_across_backends(self):
        numba_be = kernels.get_backend("numba")
        numpy_be = kernels.get_backend("numpy")
        x0s = np.array([(b + 1) / 1024.0 for b in range(32)])
        args = (0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 10.0, 60)
        finals_nb, fails_nb = numba_be.run_batch(*args)
        finals_np, fails_np = numpy_be.run_batch(*args)
        assert (fails_nb > 0).any()
        assert fails_nb.tolist() == fails_np.tolist()
        assert bits(finals_nb) == bits(finals_np)
