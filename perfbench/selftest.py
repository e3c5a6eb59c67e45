"""Self-test of the benchmark on a tiny slice of every workload.

    python3 perfbench/selftest.py

For each workload it times one operation per kind at its smallest size
(three cold commands for cli-corpus), prints every end-to-end metric with
its unit, runs the same slice traced, and checks that

* every metric named in BENCHMARK.json is produced, with its unit;
* every operation passes its oracle (or fails only as documented);
* the traced self times of all layers, ``bench`` included, add up to the
  traced wall time within ``SELF_TIME_BOUND``;
* every layer and every traced function that a per-layer metric names
  records at least one span on the workload that ``REACHES`` (the map in
  README.md) assigns it to. This catches a wrapper that is not installed
  or not rebound where another module imported the name, which the sum of
  self times cannot: the missing time only moves to the caller's span.

Exits 1 when a check fails. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before numpy is imported

SELF_TIME_BOUND = 0.05

# layers and span names each workload's slice must reach
REACHES = {
    "cli-corpus": (
        "cli", "manifest", "claims",
        "cli.main", "manifest.load_manifest", "manifest.validate_manifest", "manifest.realize",
        "manifest.dumps_document", "claims.run_claims",
    ),
    "small-pipeline": (
        "linalg", "states", "channels", "measurement", "structure", "markov", "broadcast",
        "linalg.frobenius", "linalg.hermitian_eig", "states.QuantumState",
        "measurement.MeasurementMap", "channels.ChoiChannel", "channels.apply_one_sided",
        "channels.kraus_from_choi", "channels.channel_power", "markov.transition_matrix",
        "markov.birkhoff_decompose", "broadcast.broadcastable_states",
        "broadcast.verify_full_broadcast", "broadcast.verify_spectrum_broadcast",
        "broadcast.verify_local_broadcast",
    ),
    "classify-large": (
        "linalg", "states", "structure",
        "linalg.simultaneous_diagonalize", "structure.classical_side_basis",
        "structure.qc_type_extract", "structure.cc_type_extract", "structure.classify_state",
    ),
    "markov-tables": (
        "markov",
        "markov.is_primitive", "markov.is_irreducible", "markov.block_decompose",
        "markov.perron_vector", "markov.ergodic_limit",
    ),
}


def main() -> int:
    run.require_checkout()
    import harness as hs
    import tracing as tr
    import workloads as wl

    qc = run.load_qcorr()
    spec_file = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec_file["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec_file["per_layer"]}
    env = wl.cli_env(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    problems: list[str] = []
    reached = {n for names in REACHES.values() for n in names}
    named = {*tr.LAYERS, *tr.FUNCTION_TIMES, *tr.CONSTRUCTIONS, "linalg.frobenius"}
    problems += [f"REACHES assigns no workload to {n}" for n in sorted(named - reached)]
    try:
        for name, spec in wl.WORKLOADS.items():
            if name == "cli-corpus":
                cold = wl.build_round(name, 1, qc, run.ROOT, work, "subprocess")[:3]
            else:
                cold = run.warmup(wl.build_round(name, 1, qc, run.ROOT, work, "in-process"))
            metrics, counts, records = run.untraced_run(spec, cold, 0.0, 0, env, hs)
            print(f"{name}: {counts['samples']} ops untraced")
            for key, value in metrics.items():
                print(f"  {key:12s} {value:12.4f} {hs.E2E_UNITS[key]}")
            problems += [f"{name}: metric {k} missing" for k in e2e if k not in metrics]
            problems += [f"{name}: {k} unit {hs.E2E_UNITS.get(k)} != {u}"
                         for k, u in e2e.items() if hs.E2E_UNITS.get(k) != u]

            warm = run.warmup(wl.build_round(name, 1, qc, run.ROOT, work, "in-process"))
            layer, plain, traced, tracer = run.traced_run(spec, warm, 0.0, env, hs, tr)
            problems += [f"{name}: per-layer metric {k} missing" for k in per_layer if k not in layer]
            problems += [f"{name}: {k} unit {tr.unit_of(k)} != {u}"
                         for k, u in per_layer.items() if tr.unit_of(k) != u]
            problems += [f"{name}: {r.op.kind} [{r.op.label}] {r.status}: {r.reason}"
                         for r in records + plain + traced if not hs.correct([r])]
            self_total = sum(layer[f"{lay}.self_s"] for lay in tr.LAYERS) + layer["bench.self_s"]
            wall = layer["trace.wall_s"]
            gap = abs(self_total - wall) / wall
            print(f"  traced: {len(tracer.spans)} spans, self times {self_total:.6f} s,"
                  f" wall {wall:.6f} s, gap {gap:.2e} (bound {SELF_TIME_BOUND})")
            if gap > SELF_TIME_BOUND:
                problems.append(f"{name}: self times miss the traced wall time by {gap:.2%}")
            summary = tr.summarize(tracer.spans)
            seen = {**summary["layers"], **summary["names"]}
            problems += [f"{name}: no traced span for {n}" for n in REACHES[name]
                         if seen.get(n, {}).get("calls", 0) == 0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
