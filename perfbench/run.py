#!/usr/bin/env python3
"""rosslercrypt benchmark: end-to-end and per-layer metrics per workload.

Run from the root of a rosslercrypt checkout:

    python3 perfbench/run.py --workload sessions --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --compare BASE.json NEW.json

Workloads: sessions (library round trips), bulk (CLI on MiB-sized files),
simulate (CLI trajectory export), or all three. --seconds defaults to
run_seconds in BENCHMARK.json. --trace 0 measures the
end-to-end metrics; --trace 1 runs the same inputs untraced and traced and
reports the per-layer metrics and the tracing overhead. End-to-end times
and rates are scaled to a reference host speed with a probe run before and
after each piece of timed work (common.HostSpeed). The report goes to
stdout; its last line is one JSON object with the metrics that
BENCHMARK.json lists. The full result, with the environment and every
metric, is written to .perfbench_out/ (or --out).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sessions", "bulk", "simulate")
# A key every test suite knows (canonical parameters, N = 500), used for the
# cross-backend bit-equality check.
EQUALITY_KEY = (0.2, 0.2, 5.7, 0.0001, 0.0001, 0.1, 500)


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and insist on using it."""
    package = ROOT / "src" / "rosslercrypt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no rosslercrypt sources at {package}; "
                         "run from the root of a rosslercrypt checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import rosslercrypt

    if Path(rosslercrypt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported rosslercrypt from {rosslercrypt.__file__}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"== rosslercrypt benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])}")
    print(f"environment: backend={env['backend']} (CLI children: {env['cli_backend']}) "
          f"available={','.join(env['available_backends'])} "
          f"numba_importable={env['numba_importable']} "
          f"ROSSLERCRYPT_BACKEND={env['ROSSLERCRYPT_BACKEND']}")
    print(f"             python={env['python']} numpy={env['numpy']} cores={env['cores']} "
          f"(usable {env['cores_usable']}) cpu={env['cpu_model']}")
    eq = result["backend_equality"]
    print(f"backend bit-equality: {eq['status']}"
          + (f" ({eq['reason']})" if "reason" in eq else ""))
    print(f"operations: attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={_fmt(result['failed_ratio'])}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("end-to-end (untraced):")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}")
    for name, m in result["detail"].items():
        extra = "".join(f" {k}={_fmt(v)}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}{extra}")
    if result.get("per_layer"):
        print("per-layer (traced run; 0 where the workload does not reach the layer):")
        for name, m in result["per_layer"].items():
            print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
        tr = result["tracing"]
        print(f"tracing overhead: traced {tr['traced_s']:.3f} s vs untraced "
              f"{tr['untraced_s']:.3f} s on the same inputs = {tr['overhead_pct']:+.2f}%")
        rows = kernel_rows(result["per_layer"])
        if rows:
            print("benchmarks/bench_backends.py rows, from kernels.*.Msteps_per_s:")
            for label, ms in rows:
                print(f"  {label:<34} {ms:>10.2f}ms")


def kernel_rows(per_layer: dict) -> list[tuple[str, float]]:
    """bench_backends.py's three rows at its defaults, from measured rates."""
    rows = []
    for kernel, label, steps in (
        ("endpoint", "endpoint, 100000 steps", 100_000),
        ("trajectory", "trajectory, 100000 steps", 100_000),
        ("batch", "batch 256 x 1000 steps", 256 * 1000),
    ):
        rate = per_layer[f"kernels.{kernel}.Msteps_per_s"]["value"]
        if rate > 0:
            rows.append((label, steps / (rate * 1e6) * 1e3))
    return rows


def run_one(args, spec) -> dict:
    import cli_workloads
    import common
    import sessions
    import tracer

    runners = {
        "sessions": sessions.run,
        "bulk": cli_workloads.run_bulk,
        "simulate": cli_workloads.run_simulate,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT_DIR))
    ctx = common.Context(ROOT, args.seed, args.seconds, bool(args.trace), tmp)
    outcome = common.Outcome()
    try:
        measured = runners[args.workload](ctx, outcome)
        environment = common.environment(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    equality = common.backend_equality(EQUALITY_KEY)
    if equality["status"] == "FAILED":
        outcome.op(False, "backends disagree bit for bit")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_ratio": outcome.failed / max(outcome.attempted, 1),
        "failures": outcome.failures,
        "environment": environment, "backend_equality": equality,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in measured["e2e"].items()},
        "detail": measured["detail"],
        "samples": outcome.samples,
    }
    if args.trace:
        per_layer = tracer.layer_metrics(outcome.agg, outcome.cli_procs, outcome.traced_cycles)
        overhead = (outcome.traced_s / outcome.untraced_paired_s - 1) * 100
        per_layer["trace.overhead_pct"] = (overhead, "%")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        result["tracing"] = {"traced_s": outcome.traced_s,
                             "untraced_s": outcome.untraced_paired_s,
                             "overhead_pct": overhead}
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(outcome.spans_out))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def last_line(result: dict, spec: dict) -> dict:
    """The result line: the metrics BENCHMARK.json lists for this mode."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = result[section][m["name"]]
        metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args, spec) -> int:
    """Each workload in its own process, so RSS and imports stay separate."""
    results = []
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(path)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results.append(json.loads(path.read_text()))
    out = Path(args.out) if args.out else OUT_DIR / f"all-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"results": results}, indent=1))
    print(f"results: {out}")
    merged = {f"{r['workload']}.{k}": v for r in results
              for k, v in last_line(r, spec)["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))
    return 0


def _results(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    results = data["results"] if "results" in data else [data]
    return {(r["workload"], r["trace"]): r for r in results}


def compare(base_path: str, new_path: str) -> int:
    """Every metric of every workload in both files: base, new, new/base."""
    base, new = _results(base_path), _results(new_path)
    print(f"ratio = new / base; base = {base_path}, new = {new_path}")
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        print(f"== {key[0]} (trace={int(key[1])}); backend base={b['environment']['backend']} "
              f"new={n['environment']['backend']}")
        print(f"  {'metric':<44} {'unit':>14} {'base':>14} {'new':>14} {'new/base':>9}")
        for section in ("end_to_end", "detail", "per_layer"):
            for name, bm in (b.get(section) or {}).items():
                nm = (n.get(section) or {}).get(name)
                if nm is None:
                    continue
                ratio = f"{nm['value'] / bm['value']:.3f}" if bm["value"] else "n/a"
                print(f"  {name:<44} {bm['unit']:>14} {_fmt(bm['value']):>14} "
                      f"{_fmt(nm['value']):>14} {ratio:>9}")
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        print(f"in only one file: {missing}")
    return 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: under .perfbench_out/)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print both values and new/base for every metric")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    import_program()
    if args.workload == "all":
        return run_all(args, spec)
    result = run_one(args, spec)
    out = Path(args.out) if args.out else (
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1))
    print_report(result)
    print(f"result: {out}")
    print(json.dumps(last_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
