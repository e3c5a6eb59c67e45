"""Span tracing installed from outside the library.

``install`` wraps every public function of each ``qcorr`` layer module
(its ``__all__``) and the constructors of ``QuantumState``,
``MeasurementMap`` and ``ChoiChannel``, then rebinds the wrappers wherever
another qcorr module imported the name directly, so nested calls become
child spans. Nothing under ``src/`` is edited; ``uninstall`` restores the
originals. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = (
    "linalg",
    "states",
    "channels",
    "measurement",
    "structure",
    "markov",
    "broadcast",
    "manifest",
    "cli",
    "claims",
)
CONSTRUCTED = {"states": ("QuantumState",), "measurement": ("MeasurementMap",), "channels": ("ChoiChannel",)}
ROOT = "bench.op"

# span tuple fields
NAME, LAYER, START, END, PARENT, OP, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = -1
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, name: str, layer: str, t0: float, failed: bool) -> None:
        t1 = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, layer, t0, t1, parent, self.op, failed)

    def wrap(self, layer: str, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter()
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(idx, name, layer, t0, failed)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        return self.wrap("bench", ROOT, call)()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "markov.ergodic_limit": lambda r: self.count("markov.ergodic_limit.powers", r.r_converged)
        }
        replacement: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qcorr.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replacement[obj] = self.wrap(layer, name, obj, hooks.get(name))
            for cls_name in CONSTRUCTED.get(layer, ()):
                cls = getattr(mod, cls_name)
                original = cls.__dict__["__post_init__"]
                cls.__post_init__ = self.wrap(layer, f"{layer}.{cls_name}", original)
                self._restore.append((cls, "__post_init__", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcorr" and not mod_name.startswith("qcorr."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacement:
                    setattr(mod, attr, replacement[value])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, value = self._restore.pop()
            setattr(target, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "op", "failed"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


def summarize(spans: list) -> dict:
    """Per-layer calls, self time and failures, plus per-name aggregates.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the benchmark is single-threaded.
    A layer failure is a span that raised while none of its children did,
    so an exception is counted once, in the layer where it started.
    ``inclusive`` sums each name's outermost spans only.
    """
    n = len(spans)
    child_time = [0.0] * n
    child_failed = [False] * n
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            if s[FAILED]:
                child_failed[p] = True
    layers: dict[str, dict] = {}
    names: dict[str, dict] = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        lay = layers.setdefault(s[LAYER], {"calls": 0, "self_s": 0.0, "fail": 0})
        lay["calls"] += 1
        lay["self_s"] += dur - child_time[i]
        if s[FAILED] and not child_failed[i]:
            lay["fail"] += 1
        agg = names.setdefault(s[NAME], {"calls": 0, "inclusive_s": 0.0, "fail": 0})
        agg["calls"] += 1
        if s[FAILED]:
            agg["fail"] += 1
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            agg["inclusive_s"] += dur
    return {"layers": layers, "names": names}


FUNCTION_TIMES = (
    "linalg.simultaneous_diagonalize",
    "linalg.hermitian_eig",
    "structure.classical_side_basis",
    "structure.qc_type_extract",
    "structure.cc_type_extract",
    "structure.classify_state",
    "channels.apply_one_sided",
    "channels.kraus_from_choi",
    "channels.channel_power",
    "markov.transition_matrix",
    "markov.is_primitive",
    "markov.is_irreducible",
    "markov.block_decompose",
    "markov.perron_vector",
    "markov.ergodic_limit",
    "markov.birkhoff_decompose",
    "broadcast.broadcastable_states",
    "broadcast.verify_full_broadcast",
    "broadcast.verify_spectrum_broadcast",
    "broadcast.verify_local_broadcast",
    "cli.main",
    "manifest.load_manifest",
    "manifest.validate_manifest",
    "manifest.realize",
    "manifest.dumps_document",
    "claims.run_claims",
)
CONSTRUCTIONS = ("states.QuantumState", "measurement.MeasurementMap", "channels.ChoiChannel")


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, by the names ``BENCHMARK.json`` lists."""
    summary = summarize(tracer.spans)
    layers, names = summary["layers"], summary["names"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        agg = layers.get(layer, {"calls": 0, "self_s": 0.0, "fail": 0})
        out[f"{layer}.calls"] = agg["calls"]
        out[f"{layer}.self_s"] = agg["self_s"]
        out[f"{layer}.fail"] = agg["fail"]
    out["bench.self_s"] = layers.get("bench", {}).get("self_s", 0.0)
    for name in FUNCTION_TIMES:
        out[f"{name}.s"] = names.get(name, {}).get("inclusive_s", 0.0)
    for name in CONSTRUCTIONS:
        out[f"{name}.count"] = names.get(name, {}).get("calls", 0)
    out["linalg.frobenius.calls"] = names.get("linalg.frobenius", {}).get("calls", 0)
    out["markov.perron_vector.fail"] = names.get("markov.perron_vector", {}).get("fail", 0)
    out["markov.ergodic_limit.powers"] = tracer.counters.get("markov.ergodic_limit.powers", 0)
    return out


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".count", ".fail", ".powers", ".spans")):
        return "count"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name == "trace.overhead":
        return "ratio"
    return "s"
