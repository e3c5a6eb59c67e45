"""qcorr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload markov-tables --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the library is imported from its ``src/``. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def require_checkout() -> None:
    """Refuse to run without the library sources next to the benchmark."""
    src = ROOT / "src" / "qcorr" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: no qcorr sources at {src.parent}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def load_qcorr():
    import qcorr
    import qcorr.cli

    if Path(qcorr.__file__).resolve().parent != ROOT / "src" / "qcorr":
        print(f"perfbench: imported qcorr from {qcorr.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)
    return qcorr


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "qcorr").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_qcorr_lines": lines,
    }


def print_kinds(records) -> None:
    kinds: dict[str, list] = {}
    for rec in records:
        kinds.setdefault(rec.op.kind, []).append(rec)
    print(f"  {'kind':32s} {'n':>5s} {'ok':>5s} {'median_ms':>10s} {'max_ms':>10s}")
    for kind, recs in kinds.items():
        lat = [r.latency * 1000 for r in recs]
        ok = sum(r.status == "ok" for r in recs)
        print(f"  {kind:32s} {len(recs):5d} {ok:5d} {statistics.median(lat):10.2f} {max(lat):10.2f}")
    for rec in [r for r in records if r.status != "ok"][:20]:
        print(f"  {rec.status:12s} {rec.op.kind} [{rec.op.label}]: {rec.reason[:160]}")


def warmup(round_ops):
    """One call per operation kind before timing: the first (smallest) of each."""
    seen: dict = {}
    for op in round_ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def untraced_run(spec, round_ops, seconds, min_samples, env, hs):
    """End-to-end metrics of one untraced run; returns (metrics, counts, records)."""
    setup = hs.setup_seconds(env, ROOT)
    if spec.name != "cli-corpus":
        for op in warmup(round_ops):
            hs.run_op(op)
    records, busy = hs.timed_loop(round_ops, seconds, min_samples)
    if spec.name == "cli-corpus":  # the largest CLI child, not this process
        rss = max(r.child_rss_kb for r in records) / 1024.0
    else:
        rss = hs.peak_rss_mb()
    metrics, counts = hs.end_to_end(records, busy, spec.tail_pct, setup, rss)
    counts["busy_s"] = busy
    counts["setup_launches"] = len(setup)
    return metrics, counts, records


def traced_run(spec, round_ops, seconds, env, hs, tr):
    """Half the time untraced, half traced; returns (metrics, plain, traced, tracer)."""
    if spec.name != "cli-corpus":
        for op in warmup(round_ops):
            hs.run_op(op)
    plain, plain_busy = hs.timed_loop(round_ops, seconds / 2.0, 0)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, traced_busy = hs.timed_loop(round_ops, seconds / 2.0, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tr.per_layer_metrics(tracer)
    metrics.update(hs.import_breakdown(env, ROOT))
    plain_rate = sum(r.status == "ok" for r in plain) / plain_busy
    traced_rate = sum(r.status == "ok" for r in traced) / traced_busy
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.overhead"] = plain_rate / traced_rate if traced_rate else 0.0
    metrics["trace.wall_s"] = traced_busy
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, plain, traced, tracer


def main(argv=None) -> int:
    require_checkout()
    import harness as hs
    import tracing as tr
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qc = load_qcorr()
    spec = wl.WORKLOADS[args.workload]
    env = wl.cli_env(ROOT)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            round_ops = wl.build_round(spec.name, args.seed, qc, ROOT, work, "in-process")
            metrics, plain, traced, tracer = traced_run(spec, round_ops, args.seconds, env, hs, tr)
            tracer.write(OUT / f"spans-{spec.name}-seed{args.seed}.json.gz")
            print_kinds(traced)
            units = {k: tr.unit_of(k) for k in metrics}
            result = {
                "correct": hs.correct(plain) and hs.correct(traced),
                "attempted": len(traced),
                "failed": sum(r.status != "ok" for r in traced),
            }
        else:
            mode = "subprocess" if spec.name == "cli-corpus" else "in-process"
            round_ops = wl.build_round(spec.name, args.seed, qc, ROOT, work, mode)
            metrics, counts, records = untraced_run(spec, round_ops, args.seconds,
                                                     hs.min_samples_for(spec.tail_pct), env, hs)
            print_kinds(records)
            units = hs.E2E_UNITS
            n = counts["samples"]
            print(f"  timed {counts['busy_s']:.3f} s of operations, {n} ops in {len(round_ops)}-op rounds")
            print(f"  op_tail_ms is p{spec.tail_pct:g} of {n} samples ({counts['beyond_tail']} beyond);"
                  f" setup_s is the median of {counts['setup_launches']} launches")
            print(f"  {'fail_ratio':42s} {counts['failed'] / n:16.6f} ratio ({counts['failed']} of {n}:"
                  f" {counts['known_defect']} known defect, {counts['raised']} raised,"
                  f" {counts['wrong']} wrong)")
            result = {"correct": hs.correct(records), "attempted": n, "failed": counts["failed"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in metrics.items():
        print(f"  {key:42s} {value:16.6f} {units[key]}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
