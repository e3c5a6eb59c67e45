"""Timed loop, metric computation and the cold-start measurements."""

from __future__ import annotations

import math
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from workloads import KNOWN_DEFECT, OK, RAISED, WRONG, Op

SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3
IMPORT_STATEMENT = "import qcorr, qcorr.cli"
ROUND_ORDER_SEED = 0  # fixed: the timed order never depends on --seed


@dataclass
class Record:
    op: Op
    latency: float
    status: str
    reason: str
    child_rss_kb: int  # peak RSS of a CLI child, 0 for in-process operations


def run_op(op: Op, tracer=None, op_id: int = 0) -> Record:
    """Time one operation, then judge it with its oracle (outside the timing)."""
    t0 = perf_counter()
    try:
        result = tracer.run_op(op_id, op.call) if tracer else op.call()
        exc = None
    except Exception as err:  # judged by the op's oracle below
        result, exc = None, err
    latency = perf_counter() - t0
    status, reason = op.check(result, exc)
    return Record(op, latency, status, reason, getattr(result, "maxrss_kb", 0))


def timed_loop(round_ops: list[Op], seconds: float, min_samples: int,
               tracer=None) -> tuple[list[Record], float]:
    """Run whole rounds for about ``seconds`` of operation time.

    The timed section is the sum of operation latencies; oracle checks run
    between operations and are not timed. The loop stops only between
    rounds, so every run times the same mix: it starts another round while
    one more mean-length round still fits in ``seconds`` or fewer than
    ``min_samples`` operations have run. At least one round always runs,
    even when it takes longer than ``seconds``.

    Each round runs in one fixed shuffled order, the same for every seed,
    so like operations are spread over the whole timed section instead of
    being timed together in one short stretch of it, where a brief
    slowdown of the machine would move the percentile they fall on.
    """
    order = list(round_ops)
    random.Random(ROUND_ORDER_SEED).shuffle(order)
    records: list[Record] = []
    busy = 0.0
    rounds = 0
    while True:
        for op in order:
            rec = run_op(op, tracer, len(records))
            records.append(rec)
            busy += rec.latency
        rounds += 1
        if len(records) >= min_samples and busy * (1 + 1 / rounds) > seconds:
            return records, busy


def min_samples_for(tail_pct: float) -> int:
    """Smallest sample count that leaves at least 10 samples above the tail rank."""
    n = 11
    while n - math.ceil(tail_pct / 100.0 * n) < 10:
        n += 1
    return n


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(records: list[Record], busy: float, tail_pct: float, setup: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics (keys of ``E2E_UNITS``) and the counts behind them."""
    lat = sorted(r.latency for r in records)
    n = len(lat)
    beyond = n - math.ceil(tail_pct / 100.0 * n)
    ok = sum(r.status == OK for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / busy,
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": nearest_rank(lat, tail_pct) * 1000.0,
        "peak_rss_mb": rss_mb,
    }
    counts = {
        "samples": n,
        "beyond_tail": beyond,
        "failed": n - ok,
        "known_defect": sum(r.status == KNOWN_DEFECT for r in records),
        "raised": sum(r.status == RAISED for r in records),
        "wrong": sum(r.status == WRONG for r in records),
    }
    return metrics, counts


def correct(records: list[Record]) -> bool:
    """No operation returned a wrong result or failed outside the documented defect."""
    return all(r.status in (OK, KNOWN_DEFECT) for r in records)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(env: dict, root) -> list[float]:
    """Wall time from a fresh interpreter to ``import qcorr, qcorr.cli`` done."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STATEMENT], cwd=root, env=env, check=True,
                       timeout=120)
        times.append(perf_counter() - t0)
    return times


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(env: dict, root) -> dict:
    """Median import cost of qcorr + qcorr.cli and of scipy, from ``-X importtime``."""
    totals, scipy = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT],
                              cwd=root, env=env, check=True, capture_output=True, text=True,
                              timeout=120)
        total = scipy_self = 0
        for m in _IMPORTTIME.finditer(proc.stderr):
            self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
            if len(indent) == 1 and name in ("qcorr", "qcorr.cli"):
                total += cum_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
        totals.append(total / 1e6)
        scipy.append(scipy_self / 1e6)
    return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipy)}
