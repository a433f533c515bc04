"""`bulk` and `simulate`: rosslercrypt CLI commands, one child at a time.

One closed-loop client runs each command to completion before starting the
next. Each run builds its inputs once from the seed and repeats a fixed
cycle of commands on them until the timed work reaches --seconds, so runs
with different seeds do the same work. Expected outputs come from the
independent reference in reference.py and are computed before timing.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import common
import reference
import sessions

# Just past 2^23 bytes, where the left-to-right float weighted sum stops
# being exact. The file is 2^23 bytes of 0xFF (the largest weights, so the
# partial sums pass 2^43, where binary64 can no longer hold multiples of
# 1/1024) followed by 1024 seeded random bytes whose additions then round.
# An exact integer sum gives a different digest on this file.
BIG = 2**23 + 1024
SMALL = (2**20, 2**20 + 1536)
TOLERANT = 32 * 1024
TOLERANCE = 1e-9
# Bulk keys have N in a narrow band so that the codebook share of each
# command is the same from seed to seed; the spread of N is the sessions
# workload's job.
BULK_N = (500, 550)
SIM_STEPS = 200_000
SIM_CONFIGS = 3


def _sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _io_bytes(args) -> int:
    """Bytes of the files a command names: read and written (computed)."""
    paths = [args[i + 1] for i, a in enumerate(args) if a in ("--key", "--in", "--out")]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


@dataclass
class Op:
    """One CLI command of a cycle and how to judge its result.

    check(proc) returns '' if the output is right, else what was wrong.
    payload is the plaintext bytes (or CSV rows) the command handles.
    """

    kind: str
    args: list[str]
    check: Callable
    payload: int = 0
    expect_rc: int = 0


def run_ops(ctx, outcome, ops, traced: bool) -> float:
    """Run a cycle of commands; returns their wall seconds.

    Untraced commands are each bracketed by host-speed probes, and their
    wall times are also recorded at the reference speed ("*.ref").
    """
    timed = 0.0
    for i, op in enumerate(ops):
        if not traced:
            ctx.speed.begin()
        proc = common.run_cli(ctx, op.args, traced, tag=f"op{i}")
        factor = 1.0 if traced else ctx.speed.end()
        timed += proc.wall_s
        if proc.rc != op.expect_rc:
            error = f"{op.kind}: exit {proc.rc}, expected {op.expect_rc}: {proc.stderr[-300:]}"
        elif "Traceback" in proc.stderr:
            error = f"{op.kind}: traceback on stderr"
        else:
            error = op.check(proc)
        outcome.op(not error, error)
        if traced:
            common.record_traced_proc(outcome, op.args[0], proc, _io_bytes(op.args))
        else:
            outcome.sample("op", proc.wall_s)
            outcome.sample("op.ref", proc.wall_s * factor)
            outcome.sample(f"{op.kind}.wall", proc.wall_s)
            outcome.sample(f"{op.kind}.ref", proc.wall_s * factor)
            outcome.add(f"{op.kind}.payload", op.payload)
            if op.kind == "simulate":
                outcome.add("csv_bytes", _io_bytes(op.args))
            outcome.totals["rss_kib"] = max(outcome.totals.get("rss_kib", 0), proc.maxrss_kib)
    return timed


# A CLI call that does no work: its wall time is the set-up every command pays.
SETUP_ARGV = [sys.executable, "-m", "rosslercrypt", "keyspace", "--bits", "16"]


def _rate(outcome, kind, scale):
    wall = sum(outcome.samples.get(f"{kind}.wall", ()))
    return outcome.totals.get(f"{kind}.payload", 0.0) * scale / wall


def _common_e2e(outcome, per_cycle, payload_MiB, payload_kinds):
    """The end-to-end metrics, at the reference host speed (common.HostSpeed).

    per_cycle is the number of commands in a cycle. payload_MiB is what the
    commands of payload_kinds move, and payload_MiBps divides it by their
    time. op_ms is the mean over the cycle's commands of each command's
    median time. A bulk cycle mixes commands whose times differ tenfold, so
    the median of all samples falls between clusters and jumps from run to
    run; the median of each command does not.
    """
    ops = outcome.samples["op.ref"]
    payload_s = sum(sum(outcome.samples.get(f"{k}.ref", ())) for k in payload_kinds)
    return {
        "setup_s": statistics.median(outcome.samples["setup.ref"]),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms": statistics.fmean(statistics.median(ops[i::per_cycle])
                                  for i in range(per_cycle)) * 1e3,
        "payload_MiBps": payload_MiB / payload_s,
        "peak_rss_MiB": outcome.totals["rss_kib"] / 1024,
    }


def bulk_inputs(ctx):
    """Key, files and expected outputs for a bulk run, all from the seed."""
    rng, tmp = ctx.rng, ctx.tmp
    while True:
        seed = sessions.seed_with_n(rng, *BULK_N)
        fields = reference.candidate_key(seed)
        book = reference.codebook(fields)
        if book is None or len({np.float64(v).tobytes() for v in book}) != 256:
            continue
        # Tolerant decrypt refuses a value with two entries within the
        # tolerance, so keep keys whose entries are far apart.
        if float(np.min(np.diff(np.sort(book)))) > 1e3 * TOLERANCE:
            break
    wrong = reference.candidate_key(sessions.seed_with_n(rng, *BULK_N))
    (tmp / "wrong.key").write_bytes(reference.key_bytes(wrong))
    table = np.array(book, dtype=np.float64)
    files = []
    for name, size in (("big", BIG), ("small0", SMALL[0]), ("small1", SMALL[1])):
        data = b"\xff" * 2**23 + rng.randbytes(1024) if size == BIG else rng.randbytes(size)
        path = tmp / f"{name}.bin"
        path.write_bytes(data)
        ct_sha = hashlib.sha256(reference.rct1(b"", size))
        ct_sha.update(table[np.frombuffer(data, dtype=np.uint8)].astype(">f8").tobytes())
        files.append({
            "name": name, "path": path, "size": size,
            "data_sha": hashlib.sha256(data).hexdigest(), "ct_sha": ct_sha.hexdigest(),
            "digest": reference.digest_hex(data, fields),
        })
    tol_data = rng.randbytes(TOLERANT)
    lossy = np.array([float(f"{v:.15g}") for v in table[np.frombuffer(tol_data, np.uint8)]])
    (tmp / "tolerant.rct").write_bytes(reference.rct1(lossy.astype(">f8").tobytes(), TOLERANT))
    return seed, fields, files, tol_data


def bulk_ops(ctx, seed, fields, files, tol_data) -> list[Op]:
    tmp = ctx.tmp
    key = str(tmp / "key.key")
    key_blob = reference.key_bytes(fields)

    def keygen_ok(proc):
        if proc.stdout.strip() != hashlib.sha256(key_blob).hexdigest()[:8]:
            return "keygen: wrong fingerprint"
        with open(key, "rb") as f:
            return "" if f.read() == key_blob else "keygen: key differs from the reference"

    def prints(kind, text):
        def check(proc):
            got = proc.stdout.strip()
            return "" if got == text else f"{kind}: printed {got!r}"
        return check

    def file_sha(kind, path, sha, count):
        def check(proc):
            if proc.stdout.strip() != str(count):
                return f"{kind}: printed {proc.stdout.strip()!r}"
            return "" if _sha(path) == sha else f"{kind}: output differs from the reference"
        return check

    ops = [Op("keygen", ["keygen", "--seed", str(seed), "--out", key], keygen_ok)]
    for f in files:
        ct, out = str(tmp / f"{f['name']}.rct"), str(tmp / f"{f['name']}.out")
        src, size = str(f["path"]), f["size"]
        ops += [
            Op("encrypt", ["encrypt", "--key", key, "--in", src, "--out", ct],
               file_sha("encrypt", ct, f["ct_sha"], size), size),
            Op("decrypt", ["decrypt", "--key", key, "--in", ct, "--out", out],
               file_sha("decrypt", out, f["data_sha"], size), size),
            Op("digest", ["digest", "--key", key, "--in", src],
               prints("digest", f["digest"]), size),
            Op("verify", ["verify", "--key", key, "--in", src, "--digest", f["digest"]],
               prints("verify", "ok"), size),
        ]
    tol_out = str(tmp / "tolerant.out")
    ops.append(Op(
        "decrypt_tolerant",
        ["decrypt", "--key", key, "--in", str(tmp / "tolerant.rct"), "--out", tol_out,
         "--tolerance", repr(TOLERANCE)],
        file_sha("decrypt_tolerant", tol_out, hashlib.sha256(tol_data).hexdigest(), TOLERANT),
        TOLERANT,
    ))
    # Requests that must be refused: success is getting the promised refusal.
    small = files[1]
    wrong_digest = small["digest"][:-1] + ("0" if small["digest"][-1] != "0" else "1")
    ops += [
        Op("refuse_wrong_key",
           ["decrypt", "--key", str(tmp / "wrong.key"), "--in", str(tmp / "small0.rct"),
            "--out", str(tmp / "refused.out")], lambda proc: "", expect_rc=1),
        Op("refuse_wrong_digest",
           ["verify", "--key", key, "--in", str(small["path"]), "--digest", wrong_digest],
           prints("refuse_wrong_digest", "mismatch"), expect_rc=1),
    ]
    return ops


def run_bulk(ctx, outcome) -> dict:
    seed, fields, files, tol_data = bulk_inputs(ctx)
    ops = bulk_ops(ctx, seed, fields, files, tol_data)
    common.measure(ctx, outcome, lambda: ops,
                   lambda ops, traced: run_ops(ctx, outcome, ops, traced), SETUP_ARGV)
    data_kinds = ("encrypt", "decrypt", "digest", "verify", "decrypt_tolerant")
    data_payload = sum(outcome.totals.get(f"{k}.payload", 0.0) for k in data_kinds)
    detail = {
        "encrypt_MiBps": {"value": _rate(outcome, "encrypt", 1 / common.MiB), "unit": "MiB/s"},
        "decrypt_MiBps": {"value": _rate(outcome, "decrypt", 1 / common.MiB), "unit": "MiB/s"},
        "digest_MiBps": {"value": _rate(outcome, "digest", 1 / common.MiB), "unit": "MiB/s"},
        "verify_MiBps": {"value": _rate(outcome, "verify", 1 / common.MiB), "unit": "MiB/s"},
        "tolerant_decrypt_KiBps": {"value": _rate(outcome, "decrypt_tolerant", 1 / 1024),
                                   "unit": "KiB/s"},
        "keygen_p50_ms": common.timing(outcome.samples["keygen.wall"], 1e3, "ms"),
        "command_p50_ms": common.timing(outcome.samples["op"], 1e3, "ms"),
        **common.speed_detail(ctx, outcome),
    }
    # Payload rate over the commands that move data, not over refusals.
    e2e = _common_e2e(outcome, len(ops), data_payload / common.MiB, data_kinds)
    return {"e2e": e2e, "detail": detail}


def simulate_inputs(ctx):
    """Seeded starts and step sizes that stay on the attractor."""
    from rosslercrypt import rossler

    configs = []
    rng = ctx.rng
    while len(configs) < SIM_CONFIGS:
        start = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 0.5))
        h = rng.uniform(0.01, 0.1)
        final = reference.endpoint(*reference.CANONICAL, *start, h, SIM_STEPS)
        if final is None:
            continue
        try:
            m = rossler.run_machine(rossler.CANONICAL_PARAMS, rossler.StateVector(*start),
                                    SIM_STEPS, h)
            machine = (m.x, m.y, m.z)
        except Exception as exc:  # a failure of the program; every op reports it
            machine = exc
        configs.append({"start": start, "h": h, "reference": final, "machine": machine})
    return configs


def _last_line(path) -> bytes:
    with open(path, "rb") as f:
        f.seek(-200, os.SEEK_END)
        return f.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]


def simulate_ops(ctx, configs) -> list[Op]:
    ops = []
    for i, cfg in enumerate(configs):
        out = str(ctx.tmp / f"sim{i}.csv")
        x0, y0, z0 = cfg["start"]
        t = 0.0 + SIM_STEPS * cfg["h"]
        first_sha = {}

        def check(proc, out=out, cfg=cfg, t=t, first_sha=first_sha):
            last = _last_line(out).decode()
            if isinstance(cfg["machine"], Exception):
                return f"simulate: run_machine raised {cfg['machine']!r}"
            for name in ("reference", "machine"):
                x, y, z = cfg[name]
                if last != f"{t!r},{x!r},{y!r},{z!r}":
                    return f"simulate: last row {last!r} differs from {name}"
            with open(out, "rb") as f:
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
            if rows != SIM_STEPS + 2:
                return f"simulate: {rows} lines, expected {SIM_STEPS + 2}"
            sha = _sha(out)
            if first_sha.setdefault("sha", sha) != sha:
                return "simulate: output differs from an earlier run of the same input"
            return ""

        args = ["simulate", "--x0", repr(x0), "--y0", repr(y0), "--z0", repr(z0),
                "--h", repr(cfg["h"]), "--steps", str(SIM_STEPS), "--out", out]
        ops.append(Op("simulate", args, check, SIM_STEPS + 1))
    return ops


def run_simulate(ctx, outcome) -> dict:
    configs = simulate_inputs(ctx)
    ops = simulate_ops(ctx, configs)
    common.measure(ctx, outcome, lambda: ops,
                   lambda ops, traced: run_ops(ctx, outcome, ops, traced), SETUP_ARGV)
    rows = outcome.totals["simulate.payload"]
    detail = {
        "simulate_rows_per_s": {"value": rows / sum(outcome.samples["simulate.wall"]),
                                "unit": "rows/s"},
        "simulate_p50_ms": common.timing(outcome.samples["simulate.wall"], 1e3, "ms"),
        **common.speed_detail(ctx, outcome),
    }
    e2e = _common_e2e(outcome, len(ops), outcome.totals["csv_bytes"] / common.MiB,
                      ("simulate",))
    return {"e2e": e2e, "detail": detail}
