from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from rosslercrypt import RosslerKey, kernels

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_report_header(config):
    names = kernels.available_backends()
    active = kernels.active_backend().name
    lines = [f"rosslercrypt backends: available {', '.join(names)}; active {active}"]
    if "numba" not in names:
        lines.append(
            "numba does not import: the numba-vs-numpy equality tests are skipped"
        )
    return lines


@pytest.fixture(scope="session", autouse=True)
def warm_backends():
    # Compile the numba kernels (and touch the numpy path) before any test
    # that measures wall time.
    for name in kernels.available_backends():
        be = kernels.get_backend(name)
        be.run_endpoint(0.2, 0.2, 5.7, 0.001, 0.001, 0.001, 0.1, 2)
        be.run_trajectory(0.2, 0.2, 5.7, 0.001, 0.001, 0.001, 0.1, 2)
        be.run_batch(0.2, 0.2, 5.7, [0.001, 0.002], 0.001, 0.001, 0.1, 2)


@pytest.fixture(scope="session")
def reference_key() -> RosslerKey:
    # Canonical chaotic parameters, the simulation initial values, and the
    # simulation step configuration, reused as a fixed test key.
    return RosslerKey(a=0.2, b=0.2, c=5.7, y0=0.0001, z0=0.0001, h=0.1, n_steps=500)
