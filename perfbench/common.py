"""Shared pieces of the workloads: run context, CLI children, statistics."""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracer

BENCH_DIR = Path(__file__).resolve().parent
SHIM = BENCH_DIR / "cli_shim.py"
MiB = 2**20
SETUP_SAMPLES = 12  # set-up timings per run; setup_s is their median
# Median seconds of one probe() on the host the bounds were measured on
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
PROBE_REF_S = 0.032
# The probe for set-up timings, and its median seconds on that host.
SETUP_PROBE_ARGV = [sys.executable, "-c", "import numpy"]
SETUP_PROBE_REF_S = 0.25


def probe() -> float:
    """Wall seconds of a fixed piece of work that never touches the program.

    Pure-Python RK4 steps and small-array numpy arithmetic, the two kinds of
    work the program's numpy backend does. The host's speed drifts by up to
    2x over minutes; the probe slows down with it, the program's code does
    not change it.
    """
    import numpy as np

    start = time.perf_counter()
    reference.endpoint(0.2, 0.2, 5.7, 1.0, 1.0, 0.1, 0.01, 20_000)
    x, y, z = np.linspace(0.1, 1.0, 256), np.zeros(256), np.zeros(256)
    for _ in range(400):
        kx, ky, kz = -y - z, x + 0.2 * y, 0.2 + z * (x - 5.7)
        px, py, pz = x + 0.005 * kx, y + 0.005 * ky, z + 0.005 * kz
        x = x + 0.005 * (kx - py - pz)
        y = y + 0.005 * (ky + px + 0.2 * py)
        z = z + 0.005 * (kz + 0.2 + pz * (px - 5.7))
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall times to the speed of the host the bounds were set on.

    Timed work is bracketed by probes: begin() before it, end() after it.
    end() returns PROBE_REF_S over the mean of the two probes, and a wall
    time times that factor is what the work would have taken at the
    reference speed. The end probe is reused as the next begin probe until
    stale() says that other work ran in between.
    """

    def __init__(self):
        self.before: float | None = None
        self.probes: list[float] = []

    def _probe(self) -> float:
        value = probe()
        self.probes.append(value)
        return value

    def begin(self) -> None:
        if self.before is None:
            self.before = self._probe()

    def end(self) -> float:
        after = self._probe()
        factor = 2 * PROBE_REF_S / (self.before + after)
        self.before = after
        return factor

    def stale(self) -> None:
        self.before = None


@dataclass
class Context:
    """One benchmark run: where the program is, its seed, budget and scratch."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    rng: random.Random = field(init=False)
    speed: HostSpeed = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        self.speed = HostSpeed()

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class Outcome:
    """Operations attempted and failed, timing samples, counters."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    timed_s: float = 0.0
    traced_s: float = 0.0
    traced_cycles: int = 0
    untraced_paired_s: float = 0.0
    agg: dict = field(default_factory=dict)
    cli_procs: list[dict] = field(default_factory=list)
    spans_out: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; `what` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value


@dataclass
class Proc:
    """A finished CLI child."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int
    spawned: float  # time.monotonic() just before the spawn
    spans: dict | None


def run_cli(ctx: Context, args: list[str], traced: bool, tag: str) -> Proc:
    """Run one CLI command to completion; reap it with wait4 for its RSS.

    Untraced children run ``python -m rosslercrypt``; traced ones go through
    the shim. Output goes to files, so no pipe can fill while we wait.
    """
    out_path, err_path = ctx.tmp / f"{tag}.stdout", ctx.tmp / f"{tag}.stderr"
    spans_path = ctx.tmp / f"{tag}.spans.json"
    if traced:
        argv = [sys.executable, str(SHIM), str(spans_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "rosslercrypt", *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.child_env(),
                                cwd=ctx.root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if traced and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    result = Proc(proc.returncode, out_path.read_text(errors="replace"),
                  err_path.read_text(errors="replace"), wall, usage.ru_maxrss, spawned,
                  spans)
    out_path.unlink()
    err_path.unlink()
    return result


def measure(ctx: Context, outcome: Outcome, next_cycle, run, setup_argv) -> float:
    """Repeat whole cycles for about --seconds of timed work; untraced seconds.

    run(cycle, traced) runs one cycle and returns its timed seconds. Runs
    stop at the cycle boundary nearest to --seconds, and always after at
    least one cycle. A traced run follows each untraced cycle with a traced
    one on the same inputs; the ratio of the two is the tracing overhead.

    Between cycles, setup_argv is timed in a fresh process, SETUP_SAMPLES
    times in all, spread evenly over the timed work. Runners scale their
    untraced timings with ctx.speed; work in between (traced cycles,
    set-up timings) marks its probe stale.
    """
    _run_setup(ctx, setup_argv)  # compiles bytecode and warms the file cache
    untraced = last = 0.0
    while outcome.timed_s == 0.0 or outcome.timed_s + last / 2 < ctx.seconds:
        cycle = next_cycle()
        spent = run(cycle, False)
        outcome.sample("cycle_s", spent)
        untraced += spent
        last = spent
        if ctx.trace:
            ctx.speed.stale()
            spent_traced = run(cycle, True)
            ctx.speed.stale()
            outcome.traced_s += spent_traced
            outcome.traced_cycles += 1
            outcome.untraced_paired_s += spent
            last += spent_traced
        outcome.timed_s += last
        due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * outcome.timed_s / ctx.seconds))
        while len(outcome.samples.get("setup", ())) < due:
            time_setup(ctx, outcome, setup_argv)
    while len(outcome.samples.get("setup", ())) < SETUP_SAMPLES:
        time_setup(ctx, outcome, setup_argv)
    return untraced


def record_traced_proc(outcome: Outcome, command: str, proc: Proc, io_bytes: int) -> None:
    """Fold a traced child's spans into the run's per-layer aggregate."""
    data = proc.spans or {"spans": [], "entry_monotonic": None}
    spans = data["spans"]
    tracer.aggregate(spans, outcome.agg)
    main = tracer.aggregate(spans).get("cli.main", {})
    # time.monotonic() reads CLOCK_MONOTONIC, which is system-wide, so the
    # child's entry time is comparable with our spawn time. The tracer's own
    # import and install time is not the program's start-up.
    entry = data["entry_monotonic"]
    startup = 0.0 if entry is None else entry - proc.spawned - data["tracer_setup_s"]
    outcome.cli_procs.append({
        "command": command, "process_s": proc.wall_s, "startup_s": startup,
        "main.self_s": main.get("self_s", 0.0), "io_bytes": io_bytes,
    })
    outcome.spans_out.append({"command": command, "spans": spans})


def _run_setup(ctx: Context, argv: list[str]) -> float:
    """Wall time of one fresh process running argv."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=ctx.child_env(), cwd=ctx.root,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up command failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def time_setup(ctx: Context, outcome: Outcome, argv: list[str]) -> None:
    """One set-up sample: wall time ("setup") and at reference speed ("setup.ref").

    Set-up is mostly interpreter start and imports, which track the host's
    speed differently from the compute probe. So its probe is a fresh
    interpreter importing numpy, run just before it, scaled to
    SETUP_PROBE_REF_S.
    """
    probe_s = _run_setup(ctx, SETUP_PROBE_ARGV)
    elapsed = _run_setup(ctx, argv)
    outcome.sample("setup_probe", probe_s)
    outcome.sample("setup", elapsed)
    outcome.sample("setup.ref", elapsed * SETUP_PROBE_REF_S / probe_s)
    ctx.speed.stale()


def speed_detail(ctx: Context, outcome: Outcome) -> dict:
    """Wall-time set-up and the probes' medians, for the report."""
    median = statistics.median(ctx.speed.probes)
    return {
        "setup_wall_s": timing(outcome.samples["setup"], 1, "s"),
        "probe_ms": {"value": median * 1e3, "unit": "ms", "n": len(ctx.speed.probes),
                     "reference_ms": PROBE_REF_S * 1e3, "factor": PROBE_REF_S / median},
        "setup_probe_ms": {**timing(outcome.samples["setup_probe"], 1e3, "ms"),
                           "reference_ms": SETUP_PROBE_REF_S * 1e3},
    }


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest of p99.9..p50 with >= 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, percentile(values, p)
    return None


def timing(values, scale: float, unit: str) -> dict:
    """Median plus the tail percentile of a timing sample, with its count."""
    entry = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
    t = tail(values)
    if t is not None:
        entry[f"p{t[0]:g}"] = t[1] * scale
    return entry


def self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _imports(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def backend_equality(fields) -> dict:
    """Compare every backend's kernels bit for bit on one key's inputs.

    With a single backend present there is nothing to compare; the result
    says so instead of claiming a pass.
    """
    import numpy as np

    from rosslercrypt import kernels

    names = kernels.available_backends()
    if len(names) < 2:
        return {"status": "skipped",
                "reason": f"only {', '.join(names)} available (numba not importable)"}
    a, b, c, y0, z0, h, n = fields
    x0s = np.array([(i + 1) / 1024.0 for i in range(256)])
    outputs = []
    for name in names:
        be = kernels.get_backend(name)
        finals, fails = be.run_batch(a, b, c, x0s, y0, z0, h, n)
        traj, tfail = be.run_trajectory(a, b, c, 0.25, y0, z0, h, n)
        end = be.run_endpoint(a, b, c, 0.25, y0, z0, h, n)
        outputs.append((finals.tobytes(), fails.tobytes(), traj.tobytes(), tfail,
                        np.array(end[:3]).tobytes(), end[3]))
    same = all(o == outputs[0] for o in outputs[1:])
    return {"status": "passed" if same else "FAILED", "backends": list(names)}


def environment(ctx: Context) -> dict:
    """Which backend ran, what else was available, versions and hardware."""
    import numpy

    from rosslercrypt import kernels

    child = subprocess.run(
        [sys.executable, "-c",
         "from rosslercrypt import kernels; print(kernels.active_backend().name)"],
        env=ctx.child_env(), cwd=ctx.root, capture_output=True, text=True,
    )
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "backend": kernels.active_backend().name,
        "cli_backend": child.stdout.strip() or f"unknown (exit {child.returncode})",
        "available_backends": list(kernels.available_backends()),
        "numba_importable": _imports("numba"),
        "ROSSLERCRYPT_BACKEND": os.environ.get("ROSSLERCRYPT_BACKEND"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }
