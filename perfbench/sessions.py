"""`sessions`: library calls in one process, one closed-loop client.

A session derives a key with generate_key(seed), then round-trips short
messages: encrypt, serialize_ciphertext, deserialize_ciphertext, exact
decrypt, compute_digest, verify_digest. Every call rebuilds the codebook,
so codebook building dominates and its cost follows the key's step count N.

Inputs are stratified so that runs with different seeds do the same amount
of work: a cycle holds one session per eighth of the N range 100..1000 and
32 messages whose sizes cover 32 equal slices of log(16 B)..log(4 KiB).
The run ends at a cycle boundary once the timed work reaches --seconds.
"""

from __future__ import annotations

import statistics
import struct
import sys
import time

import numpy as np

import common
import reference
import tracer

STRATA = 8  # sessions per cycle, one per slice of the N range
MESSAGES = 4  # messages per session
SAMPLE_ENTRIES = 16  # lowest byte values whose codebook entries are checked
N_LO, N_HI = 100, 1001


def seed_with_n(rng, lo: int, hi: int) -> int:
    """A 64-bit seed whose keygen candidate has lo <= N < hi."""
    while True:
        seed = rng.getrandbits(64)
        if lo <= reference.candidate_key(seed)[6] < hi:
            return seed


def make_cycle(rng) -> list[tuple[int, int, list[bytes]]]:
    """One cycle: (stratum, seed, messages) for each of the STRATA sessions."""
    slices = list(range(STRATA * MESSAGES))
    rng.shuffle(slices)
    order = list(range(STRATA))
    rng.shuffle(order)
    cycle = []
    for i, stratum in enumerate(order):
        lo = N_LO + (N_HI - N_LO) * stratum // STRATA
        hi = N_LO + (N_HI - N_LO) * (stratum + 1) // STRATA
        seed = seed_with_n(rng, lo, hi)
        sizes = [
            min(4096, int(16 * 256 ** ((k + rng.random()) / (STRATA * MESSAGES))))
            for k in slices[i * MESSAGES:(i + 1) * MESSAGES]
        ]
        cycle.append((stratum, seed, [rng.randbytes(n) for n in sizes]))
    return cycle


def _key_fields(key):
    return (key.a, key.b, key.c, key.y0, key.z0, key.h, key.n_steps)


def check_key(key, seed: int) -> bool:
    """The key is the first candidate from seed on that the reference accepts."""
    fields = _key_fields(key)
    for attempt in range(1000):
        candidate = reference.candidate_key(seed + attempt)
        if candidate == fields:
            return True
        # Skipping a candidate is only right if the reference rejects it too.
        if reference.key_is_valid(candidate):
            return False
    return False


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def check_message(msg, ct, blob, ct2, pt, dig, verified, fields, book, samples) -> str:
    """'' if every output of one round trip is right, else what was wrong.

    book maps byte -> ciphertext bits seen so far under this key, so the
    substitution must be one consistent bijection across the session, and
    samples maps byte -> the reference codebook entry.
    """
    if pt != msg:
        return "decrypt did not return the plaintext"
    if verified is not True:
        return "verify_digest rejected the digest just computed"
    bits = _bits(ct.values)
    data = np.frombuffer(msg, dtype=np.uint8)
    if bits.shape != data.shape:
        return "ciphertext length differs from the plaintext"
    for byte, value in zip(data.tolist(), bits.tolist()):
        if book.setdefault(byte, value) != value:
            return f"byte {byte} encrypted to two different values"
        want = samples.get(byte)
        if want is not None and want != value:
            return f"codebook entry for byte {byte} differs from the reference"
    if len(set(book.values())) != len(book):
        return "two bytes share a ciphertext value"
    be = np.ascontiguousarray(ct.values, dtype=np.float64).astype(">f8").tobytes()
    if blob != reference.rct1(be, len(data)):
        return "serialized ciphertext differs from the RCT1 layout"
    if _bits(ct2.values).tobytes() != bits.tobytes():
        return "deserialize_ciphertext changed the values"
    if dig.hex() != reference.digest_hex(msg, fields):
        return "digest differs from the reference"
    return ""


def run_cycle(outcome: common.Outcome, cycle, traced: bool) -> float:
    """Run one cycle; returns its timed seconds. Checks run outside timing."""
    import rosslercrypt as rc

    timed = 0.0
    for _stratum, seed, msgs in cycle:
        start = time.perf_counter()
        try:
            key = rc.generate_key(seed)
        except Exception as exc:  # a failure of the program under test
            key, error = None, f"generate_key({seed}) raised {exc!r}"
        elapsed = time.perf_counter() - start
        timed += elapsed
        if key is not None:
            error = ("" if check_key(key, seed)
                     else f"generate_key({seed}) differs from the reference")
        if not traced:
            outcome.sample("keygen", elapsed)
        outcome.op(not error, error)
        if key is None:
            continue
        fields = _key_fields(key)
        # The first byte of every message plus the lowest byte values.
        present = {m[0] for m in msgs} | set(sorted(set(b"".join(msgs)))[:SAMPLE_ENTRIES])
        samples = {
            b: struct.unpack("<Q", struct.pack("<d", reference.codebook_entry(fields, b)))[0]
            for b in present
        }
        book: dict[int, int] = {}
        for msg in msgs:
            start = time.perf_counter()
            try:
                ct = rc.encrypt(msg, key)
                blob = rc.serialize_ciphertext(ct)
                ct2 = rc.deserialize_ciphertext(blob)
                pt = rc.decrypt(ct2, key)
                dig = rc.compute_digest(msg, key)
                verified = rc.verify_digest(msg, key, dig)
                elapsed = time.perf_counter() - start
                error = check_message(msg, ct, blob, ct2, pt, dig, verified, fields,
                                      book, samples)
            except Exception as exc:  # a failure of the program under test
                elapsed = time.perf_counter() - start
                error = f"round trip of {len(msg)} B raised {exc!r}"
            timed += elapsed
            if not traced:
                outcome.sample("roundtrip", elapsed)
                outcome.add("payload_bytes", len(msg))
                outcome.add("messages", 1)
            outcome.op(not error, error)
    return timed


def run(ctx: common.Context, outcome: common.Outcome) -> dict:
    """Measure the workload; returns the end-to-end and detail metrics."""
    setup_seed = seed_with_n(ctx.rng, 500, 550)
    setup_argv = [sys.executable, "-c",
                  f"import rosslercrypt as rc; rc.generate_key({setup_seed})"]
    import rosslercrypt as rc

    rc.generate_key(setup_seed)  # warm this process too, outside timing

    def run_one(cycle, traced):
        if not traced:
            # One probe pair per session, which takes a few tenths of a
            # second; a probe per message would cost as much as the message.
            # Round trips at the reference speed are kept per stratum of N.
            spent = 0.0
            for session in cycle:
                start = len(outcome.samples.get("roundtrip", ()))
                ctx.speed.begin()
                elapsed = run_cycle(outcome, [session], traced=False)
                factor = ctx.speed.end()
                for value in outcome.samples.get("roundtrip", [])[start:]:
                    outcome.sample(f"roundtrip.ref.{session[0]}", value * factor)
                outcome.add("timed_ref_s", elapsed * factor)
                spent += elapsed
            return spent
        tr = tracer.Tracer()
        tr.install()
        try:
            spent = run_cycle(outcome, cycle, traced=True)
        finally:
            tr.uninstall()
        tracer.aggregate(tr.spans, outcome.agg)
        outcome.spans_out.append({"cycle": len(outcome.spans_out), "spans": tr.spans})
        return spent

    untraced = common.measure(ctx, outcome, lambda: make_cycle(ctx.rng), run_one, setup_argv)
    messages = outcome.totals["messages"]
    rt = outcome.samples["roundtrip"]
    detail = {
        "msgs_per_s": {"value": messages / untraced, "unit": "1/s", "n": int(messages)},
        "roundtrip_p50_ms": common.timing(rt, 1e3, "ms"),
        "roundtrip_p95_ms": {"value": common.percentile(rt, 95) * 1e3, "unit": "ms",
                             "n": len(rt)},
        "keygen_p50_ms": common.timing(outcome.samples["keygen"], 1e3, "ms"),
        **common.speed_detail(ctx, outcome),
    }
    # Times and rates at the reference host speed (common.HostSpeed). op_ms
    # is the mean over the strata of N of each stratum's median round trip.
    # Round trips cost ~10x more at N = 1000 than at N = 100, so the median
    # of all of them falls wherever the run's N values happen to put it;
    # each stratum's median moves much less with the seed.
    ref_s = outcome.totals["timed_ref_s"]
    e2e = {
        "setup_s": statistics.median(outcome.samples["setup.ref"]),
        "ops_per_s": messages / ref_s,
        "op_ms": statistics.fmean(statistics.median(outcome.samples[f"roundtrip.ref.{i}"])
                                  for i in range(STRATA)) * 1e3,
        "payload_MiBps": outcome.totals["payload_bytes"] / common.MiB / ref_s,
        "peak_rss_MiB": common.self_rss_mib(),
    }
    return {"e2e": e2e, "detail": detail}
