#!/usr/bin/env python3
"""Time the classical-side test over dimension, on one or more source trees.

    python3 tools/sweep.py [LABEL=]SRC_DIR [[LABEL=]SRC_DIR ...] --out FILE
    python3 tools/sweep.py --compare FILE[#LABEL] FILE[#LABEL]

Each point calls one public function of ``qcorr`` on one input:

* ``simultaneous_diagonalize`` on a side family, reading its basis only,
  and again reading its ``.witness`` too;
* ``classical_side_basis`` on one side, and ``classify_state``.

The inputs are a state classical on B (``sum_k p_k sigma_k (x) |u_k><u_k|``
with a Haar basis ``u``) and a random state, both drawn with
``numpy.random.default_rng`` from numpy alone, so every tree sees the same
arrays; both sides of each, at d x d for d in 2, 3, 4, 8, 12, 16, 24.

A point records the per-call median of ``REPEATS`` timed repeats with
their quartiles, and the tracemalloc peak of one further call made first,
which also warms the point up. A repeat makes enough calls in a row to
take about ``TARGET_S``, at most ``MAX_NUMBER``, as many for every tree.
With several trees the repeats of a point alternate between them, so a
change in the host's load reaches every tree alike. A tree that spends
more than ``CAP_S`` seconds on a point records ``null`` for it with the
reason, and a call that raises records the exception; no point is
dropped. BLAS threads are pinned to 1
unless the environment sets them, and the environment is recorded: Python,
numpy, its BLAS, the thread variables and the malloc settings.

``--out`` (a ``BENCH_<n>.json`` at the repository root) receives
``{"environment": ..., "trees": [{"label", "points"}, ...]}``. ``--compare``
prints, per point, the two medians and their ratio B / A; a file holding
several trees needs ``#LABEL``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIMS = (2, 3, 4, 8, 12, 16, 24)
SEED = 26
TARGET_S = 0.005  # a repeat of a point runs its call often enough to take about this long
MAX_NUMBER = 200  # ... but at most this many times
REPEATS = 15  # timed repeats per point and tree
CAP_S = 30.0  # seconds a tree may spend on one point before it records null


def load(src: pathlib.Path) -> dict:
    """The public functions a point calls, from the tree ``src``; any
    ``qcorr`` modules imported from another tree are dropped first, and the
    ones imported here stay bound to the returned functions."""
    for name in [n for n in sys.modules if n == "qcorr" or n.startswith("qcorr.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import qcorr
    finally:
        sys.path.pop(0)
    return {
        name: getattr(qcorr, name)
        for name in ("QuantumState", "simultaneous_diagonalize", "classical_side_basis", "classify_state")
    }


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def density(rng, d: int) -> np.ndarray:
    g = ginibre(rng, d, d)
    m = g @ np.conj(g).T
    return m / np.trace(m).real


def qc_state(rng, d: int) -> np.ndarray:
    """A d x d state classical on B: conditional states on A in a Haar basis of B."""
    q, r = np.linalg.qr(ginibre(rng, d, d))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    p = rng.dirichlet(np.ones(d))
    m = sum(p[k] * np.kron(density(rng, d), np.outer(u[:, k], np.conj(u[:, k]))) for k in range(d))
    return (m + np.conj(m).T) / 2.0


def side_family(rho: np.ndarray, d: int, side: str) -> np.ndarray:
    """The blocks ``<m| rho |n>`` on the other side, as operators on ``side``."""
    r4 = rho.reshape(d, d, d, d)
    axes = (0, 2, 1, 3) if side == "B" else (1, 3, 0, 2)
    return np.ascontiguousarray(r4.transpose(axes).reshape(d * d, d, d))


def on_family(family: np.ndarray, read: str):
    """``make`` of a point that reads ``read`` of ``simultaneous_diagonalize``."""
    return lambda api: lambda: getattr(api["simultaneous_diagonalize"](family), read)


def on_state(function: str, rho: np.ndarray, d: int, *args):
    """``make`` of a point that calls ``function`` on the checked state ``rho``,
    constructed once per tree and outside the timed call."""

    def make(api):
        state = api["QuantumState"](rho, (d, d))
        return lambda: api[function](state, *args)

    return make


def points(dims) -> list[tuple[str, callable]]:
    """``(name, make)`` per point; ``make(api)`` returns the call to time."""
    out = []
    for d in dims:
        rng = np.random.default_rng([SEED, d])
        for kind, rho in (("qc", qc_state(rng, d)), ("random", density(rng, d * d))):
            for side in "AB":
                family = side_family(rho, d, side)
                out += [
                    (f"simultaneous_diagonalize/{kind}/{side}/d={d}", on_family(family, "basis")),
                    (f"simultaneous_diagonalize+witness/{kind}/{side}/d={d}", on_family(family, "witness")),
                    (f"classical_side_basis/{kind}/{side}/d={d}", on_state("classical_side_basis", rho, d, side)),
                ]
            out.append((f"classify_state/{kind}/d={d}", on_state("classify_state", rho, d)))
    return out


def peak_bytes(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep(trees: dict, dims) -> dict:
    results = {label: {} for label in trees}
    for name, make in points(dims):
        calls, spent, times = {}, dict.fromkeys(trees, 0.0), {label: [] for label in trees}
        for label, api in trees.items():
            try:
                call = make(api)
                results[label][name] = {"peak_bytes": peak_bytes(call)}
                start = time.perf_counter()
                call()
                spent[label] = time.perf_counter() - start
                calls[label] = call
            except Exception as exc:  # noqa: BLE001 - a point that raises is recorded, not dropped
                results[label][name] = {"median_s": None, "reason": f"raised {type(exc).__name__}: {exc}"}
        # one repeat times `number` calls in a row, at least TARGET_S of the slowest tree's first call
        number = max(1, min(MAX_NUMBER, int(TARGET_S / max(spent.values(), default=TARGET_S))))
        gc.collect()
        for _ in range(REPEATS):
            for label, call in list(calls.items()):
                start = time.perf_counter()
                for _ in range(number):
                    call()
                elapsed = time.perf_counter() - start
                times[label].append(elapsed / number)
                spent[label] += elapsed
                if spent[label] > CAP_S and len(times[label]) < REPEATS:
                    del calls[label]
                    reason = f"cap of {CAP_S:g} s reached after {len(times[label])} of {REPEATS} repeats"
                    results[label][name].update(median_s=None, reason=reason)
        for label in calls:
            q1, median, q3 = statistics.quantiles(times[label], n=4)
            results[label][name].update(median_s=median, quartiles_s=[q1, q3], repeats=REPEATS, number=number)
        summary = "  ".join(
            f"{label} {r['median_s'] * 1e3:.4g} ms" if r.get("median_s") is not None else f"{label} null"
            for label, r in ((label, results[label][name]) for label in trees)
        )
        print(f"{name}: {summary}", file=sys.stderr, flush=True)
    return results


def environment() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {key: config.get(key) for key in ("name", "version", "openblas configuration")},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
    }


def read_tree(spec: str) -> tuple[str, dict]:
    """The label and points of ``FILE[#LABEL]``."""
    path, _, label = spec.partition("#")
    trees = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["trees"]
    if not label and len(trees) != 1:
        sys.exit(f"{path} holds trees {[t['label'] for t in trees]}; name one as {path}#LABEL")
    matches = [t for t in trees if not label or t["label"] == label]
    if not matches:
        sys.exit(f"{path} holds no tree labelled {label!r}")
    return matches[0]["label"], matches[0]["points"]


def compare(a_spec: str, b_spec: str) -> None:
    (a_label, a), (b_label, b) = read_tree(a_spec), read_tree(b_spec)
    print(f"point\t{a_label} ms\t{b_label} ms\t{b_label} / {a_label}")
    for name in [*a, *(n for n in b if n not in a)]:
        x, y = (a.get(name) or {}).get("median_s"), (b.get(name) or {}).get("median_s")
        ratio = f"{y / x:.3f}" if x and y is not None else "-"
        cells = ["null" if v is None else f"{v * 1e3:.4g}" for v in (x, y)]
        print(f"{name}\t{cells[0]}\t{cells[1]}\t{ratio}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="[LABEL=]SRC_DIR, default: this checkout's src")
    parser.add_argument("--out", type=pathlib.Path, help="the JSON file to write, e.g. BENCH_<n>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.out is None and not args.compare:
        parser.error("--out is required to sweep")
    if args.compare:
        compare(*args.compare)
        return
    specs = args.trees or [f"src={ROOT / 'src'}"]
    trees = {}
    for spec in specs:
        label, _, path = spec.rpartition("=")
        src = pathlib.Path(path).resolve()
        trees[label or src.name] = load(src)
    results = sweep(trees, DIMS)
    record = {
        "environment": environment(),
        "repeats": REPEATS,
        "cap_s": CAP_S,
        "trees": [{"label": label, "points": points_} for label, points_ in results.items()],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
