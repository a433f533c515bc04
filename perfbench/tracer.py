"""Span tracing of rosslercrypt's layers from outside the package.

The tracer wraps public functions of the package modules and records one
span per call: name, parent span, start, end, work done and outcome. Spans
stay in memory; callers write them out when the run ends. Nothing under
``src/`` is edited: every wrapper is installed by rebinding module
attributes, and uninstall() puts the originals back.

Each name is patched where it is looked up: every module attribute that
refers to a wrapped function is rebound, so ``keys.build_codebook`` (bound
by ``from .cipher import``) is traced as well as ``cipher.build_codebook``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time


def _steps(args, n_index, batch_index=None):
    n = int(args[n_index])
    if batch_index is not None:
        n *= len(args[batch_index])
    return n


# (module, function, span name, work of one call from its positional args).
# Work units: kernel and machine spans count RK4 steps (batch: entries x
# steps); byte layers count bytes; decrypt counts ciphertext values.
_TARGETS = [
    ("rossler", "run_machine", "rossler.run_machine", lambda a, k: _steps(a, 2)),
    ("rossler", "run_machine_batch", "rossler.run_machine_batch",
     lambda a, k: _steps(a, 4, 1)),
    ("rossler", "run_machine_trajectory", "rossler.run_machine_trajectory",
     lambda a, k: _steps(a, 2)),
    ("cipher", "build_codebook", "cipher.build_codebook", lambda a, k: 256),
    ("cipher", "encrypt", "cipher.encrypt", lambda a, k: len(a[0])),
    ("cipher", "decrypt", None, lambda a, k: len(a[0])),
    ("cipher", "serialize_ciphertext", "cipher.serialize_ciphertext",
     lambda a, k: 13 + 8 * len(a[0])),
    ("cipher", "deserialize_ciphertext", "cipher.deserialize_ciphertext",
     lambda a, k: len(a[0])),
    ("digest", "weighted_sum", "digest.weighted_sum", lambda a, k: len(a[0])),
    ("digest", "compute_digest", "digest.compute_digest", lambda a, k: len(a[0])),
    ("keys", "generate_key", "keys.generate_key", lambda a, k: 1),
    ("keys", "validate_key", "keys.validate_key", lambda a, k: 1),
    ("keys", "deserialize_key", "keys.deserialize_key", lambda a, k: len(a[0])),
    ("cli", "main", "cli.main", lambda a, k: 0),
]

# Backend methods on kernels.active_backend(); args exclude self.
_KERNELS = [
    ("run_endpoint", "kernels.endpoint", lambda a, k: _steps(a, 7)),
    ("run_trajectory", "kernels.trajectory", lambda a, k: _steps(a, 7)),
    ("run_batch", "kernels.batch", lambda a, k: _steps(a, 7, 3)),
]

MODULES = ("rossler", "cipher", "digest", "keys", "cli")
CLI_COMMANDS = ("keygen", "encrypt", "decrypt", "digest", "verify", "simulate")


def _decrypt_name(args, kwargs):
    if kwargs.get("tolerance") is None:
        return "cipher.decrypt"
    return "cipher.decrypt_tolerant"


class Tracer:
    """Records spans while installed; spans are plain lists, kept in memory.

    A span is [name, parent_index, start_ns, end_ns, work, ok, key], where
    key identifies the RosslerKey of a codebook build (for the useful-build
    ratio) and ok is False if the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if name is not None else _decrypt_name(args, kwargs)
            key = None
            if label == "cipher.build_codebook":
                k = args[0]
                key = repr((k.a, k.b, k.c, k.y0, k.z0, k.h, k.n_steps))
            span = [label, stack[-1] if stack else -1, 0, 0, work(args, kwargs),
                    False, key]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        import rosslercrypt
        from rosslercrypt import kernels

        mods = {m: importlib.import_module(f"rosslercrypt.{m}") for m in MODULES}
        namespaces = [rosslercrypt, *mods.values()]
        for mod_name, attr, name, work in _TARGETS:
            original = getattr(mods[mod_name], attr)
            wrapper = self._wrap(original, name, work)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)
        backend = kernels.active_backend()
        for attr, name, work in _KERNELS:
            wrapper = self._wrap(getattr(backend, attr), name, work)
            # Backend is a frozen dataclass: shadow the method on the instance.
            object.__setattr__(backend, attr, wrapper)
            self._undo.append((backend, attr, None))

    def uninstall(self) -> None:
        while self._undo:
            ns, key, value = self._undo.pop()
            if value is None:
                object.__delattr__(ns, key)
            else:
                setattr(ns, key, value)


def aggregate(spans, into=None) -> dict:
    """Per span name: calls, busy_s, self_s, work, ok, distinct keys.

    Self time is a span's duration minus the durations of its direct
    children. Calls are synchronous (no worker threads), so children never
    overlap.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_ns[span[1]] += span[3] - span[2]
    agg = {} if into is None else into
    for i, (name, _parent, start, end, work, ok, key) in enumerate(spans):
        a = agg.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "ok": 0,
                   "keys": set()}
        )
        a["calls"] += 1
        a["busy_s"] += (end - start) / 1e9
        a["self_s"] += (end - start - child_ns[i]) / 1e9
        a["work"] += work
        a["ok"] += bool(ok)
        if key is not None:
            a["keys"].add(key)
    return agg


def step_op_count() -> int:
    """Floating-point operations in one RK4 step of kernels._endpoint.

    Counted from the source: binary and unary operators on the right-hand
    sides of the assignments in the step loop (the finiteness check is not
    counted). Computed, not measured. 0 if the function is gone.
    """
    from rosslercrypt import kernels

    fn = getattr(kernels, "_endpoint", None)
    if fn is None:
        return 0
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    count = 0
    for loop in (n for n in tree.body if isinstance(n, ast.For)):
        for stmt in loop.body:
            if isinstance(stmt, ast.Assign):
                count += sum(
                    isinstance(n, (ast.BinOp, ast.UnaryOp))
                    for n in ast.walk(stmt.value)
                )
    return count


def _get(agg, name, field):
    return agg.get(name, {}).get(field, 0)


def _rate(num, den, scale=1.0):
    return num / den * scale if den > 0 else 0.0


def layer_metrics(agg: dict, cli_procs: list[dict], cycles: int) -> dict:
    """Per-layer metrics {name: (value, unit)} from aggregated spans.

    cli_procs holds one record per traced CLI child: command, process_s,
    startup_s, main.self_s and io_bytes. Times, counts, bytes and operations
    are per traced cycle, so they do not grow when a faster program fits
    more cycles into the run. A layer the workload never reaches reads 0.
    """
    m: dict[str, tuple[float, str]] = {}
    total_steps = 0
    for kernel in ("endpoint", "trajectory", "batch"):
        name = f"kernels.{kernel}"
        busy, steps = _get(agg, name, "busy_s"), _get(agg, name, "work")
        total_steps += steps
        m[f"{name}.calls"] = (_get(agg, name, "calls"), "count")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.Msteps_per_s"] = (_rate(steps, busy, 1e-6), "Msteps/s")
    m["kernels.ops"] = (total_steps * step_op_count(), "flop")
    for fn in ("run_machine", "run_machine_batch", "run_machine_trajectory"):
        m[f"rossler.{fn}.self_s"] = (_get(agg, f"rossler.{fn}", "self_s"), "s")

    builds = _get(agg, "cipher.build_codebook", "calls")
    m["cipher.build_codebook.calls"] = (builds, "count")
    m["cipher.build_codebook.busy_s"] = (_get(agg, "cipher.build_codebook", "busy_s"), "s")
    distinct = len(agg.get("cipher.build_codebook", {}).get("keys", ()))
    m["cipher.codebook_useful_ratio"] = (_rate(distinct, builds), "ratio")
    for fn, per in (("encrypt", "byte"), ("decrypt", "value"),
                    ("decrypt_tolerant", "value")):
        name = f"cipher.{fn}"
        self_s = _get(agg, name, "self_s")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.ns_per_{per}"] = (_rate(self_s, _get(agg, name, "work"), 1e9),
                                     f"ns/{per}")
    for fn in ("serialize_ciphertext", "deserialize_ciphertext"):
        name = f"cipher.{fn}"
        busy = _get(agg, name, "busy_s")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.MiBps"] = (_rate(_get(agg, name, "work"), busy, 2**-20), "MiB/s")

    ws_busy = _get(agg, "digest.weighted_sum", "busy_s")
    m["digest.weighted_sum.busy_s"] = (ws_busy, "s")
    m["digest.weighted_sum.ns_per_byte"] = (
        _rate(ws_busy, _get(agg, "digest.weighted_sum", "work"), 1e9), "ns/byte")
    m["digest.compute_digest.self_s"] = (_get(agg, "digest.compute_digest", "self_s"), "s")

    m["keys.generate_key.busy_s"] = (_get(agg, "keys.generate_key", "busy_s"), "s")
    m["keys.validate_key.calls"] = (_get(agg, "keys.validate_key", "calls"), "count")
    m["keys.validate_key.self_s"] = (_get(agg, "keys.validate_key", "self_s"), "s")
    m["keys.deserialize_key.busy_s"] = (_get(agg, "keys.deserialize_key", "busy_s"), "s")
    m["keys.key_accept_ratio"] = (
        _rate(_get(agg, "keys.generate_key", "ok"), _get(agg, "keys.validate_key", "calls")),
        "ratio")

    for cmd in CLI_COMMANDS:
        procs = [p for p in cli_procs if p["command"] == cmd]
        m[f"cli.{cmd}.calls"] = (len(procs), "count")
        for field in ("process_s", "startup_s", "main.self_s"):
            m[f"cli.{cmd}.{field}"] = (sum(p[field] for p in procs), "s")
        m[f"cli.{cmd}.io_bytes"] = (sum(p["io_bytes"] for p in procs), "B")

    return {name: (value / cycles if unit in ("s", "count", "B", "flop") else value, unit)
            for name, (value, unit) in m.items()}
