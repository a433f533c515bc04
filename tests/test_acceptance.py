"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.
Wall-clock limits are measured around the library operations; one-time JIT
compilation is excluded by the session-wide warmup fixture.
"""

from __future__ import annotations

import random
import struct
import time

import numpy as np

import pytest

import oracles
from rosslercrypt import (
    CANONICAL_PARAMS,
    RosslerKey,
    StateVector,
    build_codebook,
    compute_digest,
    decrypt,
    encrypt,
    generate_key,
    keyspace_bits,
    kernels,
    run_machine,
    run_machine_trajectory,
    serialize_ciphertext,
    serialize_key,
    weighted_sum,
)
from rosslercrypt.cli import main as cli_main

SIM_INIT = StateVector(0.0001, 0.0001, 0.0001)

REFERENCE_KEY = RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, 0.1, 500)

REFERENCE_KEY_HEX = (
    "524b455901"
    "3fc999999999999a"
    "3fc999999999999a"
    "4016cccccccccccd"
    "3f1a36e2eb1c432d"
    "3f1a36e2eb1c432d"
    "3fb999999999999a"
    "00000000000001f4"
)

AB_CIPHERTEXT_HEX = "5243543101000000000000000240221af630c43389402248015277e93b"


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}")


def run_simulate_csv(capsys, *extra: str) -> tuple[float, str]:
    start = time.perf_counter()
    code = cli_main(["simulate", *extra])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    return elapsed, out


def parse_csv(text: str) -> np.ndarray:
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,z"
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


def first_escape_time(h: float, n: int, level: float) -> float | None:
    """Time at which the list-based oracle run from SIM_INIT first has |x| >= level."""
    samples = oracles.rk4_run_lists(
        oracles.rossler_rhs(0.2, 0.2, 5.7), [SIM_INIT.x, SIM_INIT.y, SIM_INIT.z], h, n
    )
    for k, (x, _, _) in enumerate(samples):
        if abs(x) >= level:
            return k * h
    return None


def test_criterion_1_default_simulation(capsys):
    # The default start lies 0.050 from the inner fixed point
    # (0.00703, -0.0351, 0.0351), an unstable focus with Re(lambda) = 0.0970:
    # the spiral needs about 50 time units to grow 100-fold, so the 500-step
    # default run (t = 50) ends just before the escape onto the attractor
    # (|x| first reaches 5 at t = 51.81). The transient is pinned on the
    # default run; the attractor amplitude is checked on the same trajectory
    # continued to t = 100.
    elapsed, out = run_simulate_csv(capsys)
    rows = parse_csv(out)

    finite_ok = rows.shape == (501, 4) and bool(np.isfinite(rows).all())
    max_abs_x = float(np.abs(rows[:, 1]).max())

    reference = oracles.rk4_run_lists(
        oracles.rossler_rhs(0.2, 0.2, 5.7),
        [SIM_INIT.x, SIM_INIT.y, SIM_INIT.z],
        0.0125,
        1600,
    )
    gap = float(np.abs(rows[:201, 1:] - np.array(reference[::8])).max())
    agreement_ok = gap < 1e-4

    time_ok = elapsed < 1.0

    escape_t = first_escape_time(0.0125, 8000, 5.0)
    transient_ok = max_abs_x < 5 and escape_t is not None and escape_t > 50

    _, continued_out = run_simulate_csv(capsys, "--steps", "1000")
    continued_ok = continued_out.splitlines()[:502] == out.splitlines()
    continued_max_abs_x = float(np.abs(parse_csv(continued_out)[:, 1]).max())
    amplitude_ok = continued_ok and 5 <= continued_max_abs_x <= 25

    ok = finite_ok and transient_ok and amplitude_ok and agreement_ok and time_ok
    report(
        1,
        ok,
        "default simulation: "
        f"{rows.shape[0]} finite rows ({'ok' if finite_ok else 'BAD'}), "
        f"transient max|x|={max_abs_x:.4f} (<5), oracle |x|>=5 first at "
        f"t={escape_t} (>50); continued to t=100 "
        f"({'same prefix' if continued_ok else 'PREFIX DIFFERS'}): "
        f"max|x|={continued_max_abs_x:.4f} (required [5, 25]), "
        f"h/8 reference gap={gap:.3g} (<1e-4), "
        f"{elapsed * 1000:.0f} ms (<1 s)",
    )
    assert ok, (
        f"finite={finite_ok} max|x|={max_abs_x} (required < 5) "
        f"oracle_escape_t={escape_t} (required > 50) "
        f"continued_prefix_same={continued_ok} "
        f"continued_max|x|={continued_max_abs_x} (required in [5, 25]) "
        f"reference_gap={gap} elapsed={elapsed}"
    )


def test_criterion_2_rk4_order():
    # The package's own kernel: the global error at t = 10 from the default
    # start, against the list oracle at h = 0.1/64, shrinks ~16x per halving.
    fine = np.array(
        oracles.rossler_endpoint(
            0.2, 0.2, 5.7, SIM_INIT.x, SIM_INIT.y, SIM_INIT.z, 0.1 / 64, 6400
        )
    )
    start = time.perf_counter()
    errors = []
    for h, n in [(0.1, 100), (0.05, 200), (0.025, 400)]:
        out = run_machine(CANONICAL_PARAMS, SIM_INIT, n, h)
        errors.append(float(np.abs(np.array([out.x, out.y, out.z]) - fine).max()))
    elapsed = time.perf_counter() - start
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(14 <= r <= 18 for r in ratios) and elapsed < 1.0
    report(
        2,
        ok,
        f"run_machine error shrink factors per halving: {ratios[0]:.2f}, "
        f"{ratios[1]:.2f} (required [14, 18]), {elapsed * 1000:.1f} ms (<1 s)",
    )
    assert ok, f"ratios={ratios} elapsed={elapsed}"


def test_criterion_3_sensitive_dependence():
    # Settle onto the attractor first; the divergence claim is about the
    # chaotic regime, and the plain simulation start spends its first 500
    # steps spiraling out of a near-fixed-point transient.
    base = run_machine(CANONICAL_PARAMS, SIM_INIT, 3000, 0.1)
    nearby = StateVector(base.x + 1e-8, base.y, base.z)
    start = time.perf_counter()
    traj_a = run_machine_trajectory(CANONICAL_PARAMS, base, 2000, 0.1)
    traj_b = run_machine_trajectory(CANONICAL_PARAMS, nearby, 2000, 0.1)
    elapsed = time.perf_counter() - start
    separation = np.linalg.norm(traj_a - traj_b, axis=1)
    crossing = int(np.argmax(separation > 1e-2)) if (separation > 1e-2).any() else -1
    ok = crossing >= 0 and elapsed < 1.0
    report(
        3,
        ok,
        f"x offset 1e-8 on-attractor: separation exceeds 1e-2 at step {crossing} "
        f"(required within 2000), max {separation.max():.3g}, "
        f"{elapsed * 1000:.1f} ms (<1 s)",
    )
    assert ok, f"crossing={crossing} max_separation={separation.max()} elapsed={elapsed}"


def test_criterion_4_cipher_round_trip_100_keys():
    rng = random.Random(20260809)
    start = time.perf_counter()
    successes = 0
    for seed in range(100):
        key = generate_key(seed)
        message = rng.randbytes(1024)
        recovered = decrypt(encrypt(message, key), key)
        successes += recovered == message
    elapsed = time.perf_counter() - start
    ok = successes == 100 and elapsed < 120
    report(
        4,
        ok,
        f"1 KiB round trips: {successes}/100 exact, {elapsed:.1f} s (<120 s)",
    )
    assert ok, f"successes={successes} elapsed={elapsed}"


def test_criterion_5_codebook_validity_100_keys():
    good = 0
    for seed in range(200, 300):
        entries = build_codebook(generate_key(seed)).entries
        finite = bool(np.isfinite(entries).all())
        distinct = len({struct.pack(">d", v) for v in entries}) == 256
        good += finite and distinct
    ok = good == 100
    report(5, ok, f"codebooks with 256 finite pairwise-distinct entries: {good}/100")
    assert ok, f"good={good}"


def test_criterion_6_digest_sensitivity():
    rng = random.Random(987654321)
    key = generate_key(7)

    sub_digest_diff = 0
    sub_sum_diff = 0
    for _ in range(1000):
        length = rng.randint(1, 64)
        message = bytearray(rng.randbytes(length))
        position = rng.randrange(length)
        replacement = rng.randrange(256)
        if replacement == message[position]:
            replacement = (replacement + 1) % 256
        edited = bytearray(message)
        edited[position] = replacement
        sub_sum_diff += weighted_sum(bytes(message)) != weighted_sum(bytes(edited))
        a = compute_digest(bytes(message), key)
        b = compute_digest(bytes(edited), key)
        sub_digest_diff += a.hex() != b.hex()

    tr_digest_diff = 0
    tr_sum_diff = 0
    done = 0
    while done < 1000:
        length = rng.randint(2, 64)
        message = bytearray(rng.randbytes(length))
        position = rng.randrange(length - 1)
        if message[position] == message[position + 1]:
            continue
        done += 1
        swapped = bytearray(message)
        swapped[position], swapped[position + 1] = (
            swapped[position + 1],
            swapped[position],
        )
        tr_sum_diff += weighted_sum(bytes(message)) != weighted_sum(bytes(swapped))
        a = compute_digest(bytes(message), key)
        b = compute_digest(bytes(swapped), key)
        tr_digest_diff += a.hex() != b.hex()

    ok = (
        sub_digest_diff >= 999
        and tr_digest_diff >= 999
        and sub_sum_diff == 1000
        and tr_sum_diff == 1000
    )
    report(
        6,
        ok,
        f"distinct digests: substitutions {sub_digest_diff}/1000, "
        f"transpositions {tr_digest_diff}/1000 (required >=999); "
        f"exact weighted-sum changes: {sub_sum_diff}/1000 and {tr_sum_diff}/1000",
    )
    assert ok, (
        f"sub_digest={sub_digest_diff} tr_digest={tr_digest_diff} "
        f"sub_sum={sub_sum_diff} tr_sum={tr_sum_diff}"
    )


def test_criterion_7_determinism_and_goldens(capsys):
    _, first_csv = run_simulate_csv(capsys)
    _, second_csv = run_simulate_csv(capsys)
    simulate_ok = first_csv == second_csv

    key = generate_key(77)
    message = random.Random(77).randbytes(1024)
    ciphertexts = [encrypt(message, key).values.tobytes() for _ in range(3)]
    repeat_ct_ok = len(set(ciphertexts)) == 1
    round_trip_ok = decrypt(encrypt(message, key), key) == message

    key_golden_ok = serialize_key(REFERENCE_KEY).hex() == REFERENCE_KEY_HEX
    ct_golden_ok = (
        serialize_ciphertext(encrypt(b"AB", REFERENCE_KEY)).hex() == AB_CIPHERTEXT_HEX
    )

    ok = simulate_ok and repeat_ct_ok and round_trip_ok and key_golden_ok and ct_golden_ok
    report(
        7,
        ok,
        f"repeat simulation identical: {simulate_ok}; "
        f"repeat ciphertext bits identical: {repeat_ct_ok}; "
        f"round trip: {round_trip_ok}; "
        f"key golden: {key_golden_ok}; ciphertext golden: {ct_golden_ok}",
    )
    assert ok


@pytest.mark.skipif(
    len(kernels.available_backends()) < 2, reason="numba backend unavailable"
)
def test_criterion_7b_backends_bit_identical():
    # Same determinism bar across the two kernel implementations.
    numba_be = kernels.get_backend("numba")
    numpy_be = kernels.get_backend("numpy")
    traj_args = (0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0001, 0.1, 500)
    states_nb, _ = numba_be.run_trajectory(*traj_args)
    states_np, _ = numpy_be.run_trajectory(*traj_args)
    x0s = np.array([(b + 1) / 1024.0 for b in range(256)])
    batch_args = (0.2, 0.2, 5.7, x0s, 0.0001, 0.0001, 0.1, 500)
    finals_nb, _ = numba_be.run_batch(*batch_args)
    finals_np, _ = numpy_be.run_batch(*batch_args)
    ok = (
        states_nb.tobytes() == states_np.tobytes()
        and finals_nb.tobytes() == finals_np.tobytes()
    )
    report(7, ok, "numba and numpy backends produce bit-identical trajectories and codebooks")
    assert ok


def test_criterion_8_keyspace_formula():
    value = keyspace_bits(16)
    ok = value == 112
    report(8, ok, f"keyspace_bits(16) = {value} (required 112, i.e. 2^(7*16))")
    assert ok
