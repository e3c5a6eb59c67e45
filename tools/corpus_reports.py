#!/usr/bin/env python3
"""Run the CLI corpus in-process and fingerprint every report.

The corpus is each of validate/classify/markov/broadcast on each bundled
fixture, ``markov --limit`` and ``markov --power 3 --limit`` on each
fixture, ``paper-check``, ``classify --side A`` and ``--side B`` on
``cq_witness_state.json``, and on ``vn_d2_channel.json``: ``broadcast
--copies 3``, ``--copies 9``, ``--mode spectrum``, ``--pi`` and the
two-channel case, alone and with ``--pi``, ``--seed 5`` without a second
channel (refused) and ``--copies 15000`` (over the cap), ``classify
--tol nan`` and ``--tol -1`` on ``cq_witness_state.json``, ``classify``,
``markov`` and ``broadcast`` on a channel negative by 0.6 of ``PSD_TOL``
(inside the bound), ``broadcast --copies 257`` on a channel of dimension
one, ``validate`` and ``markov`` on a stochastic table whose ``recorded``
block holds ``{"perron": 5}`` (refused), ``validate fixture:p1.json
--out missing/r.json`` (an unwritable report path, refused), and
``validate`` and ``classify`` on three generated documents, and
``markov`` on the two channels among them: a d = 6 measure-and-prepare
channel (``mp6.json``, whose verdicts the basis certificate settles
without the all-pairs commutator pass), a d = 2 channel 1e-9 away from
one (``near_tol.json``, within a decade of the default tolerance, so the
all-pairs pass decides its QC verdict), and a 6 x 6 state classical on B
(``qc6.json``, classified through the exact witness of
``classical_side_basis``); and ``validate`` and ``markov`` on a generated
nearly decomposable 100-state table (``near_decomposable.json``, two
dense blocks coupled by 1e-6, whose stationary vector is ill-conditioned
for a null-vector solver). The ``--pi`` table and every document are
written to a temporary directory (``pi.json``, ``psd.json``, ``d1.json``,
``recorded.json`` and the four above), which the run works in, so
reports record the same input paths on every run; the generated ones
come from fixed seeds.
One tab-separated line per command: exit code, sha256 of stdout, the
command, and the first stderr line; an exception that escapes ``main``
gives the code ``exc`` and the exception's last line instead. Diff the
output of two source trees to compare them, or name both trees:

    python3 tools/corpus_reports.py [SRC_DIR] > reports.tsv
    python3 tools/corpus_reports.py SRC_DIR OTHER_SRC_DIR

``SRC_DIR`` defaults to this checkout's ``src``. Given ``OTHER_SRC_DIR``,
the corpus runs on both trees and, for each command whose exit code,
report or first stderr line differs, prints the command, the largest
absolute difference between numbers at the same JSON path, and one
indented line per differing path with both values. The comparison exits
1 when any report differs and 0 when none does, so byte-identity of the
two trees' reports is the command's exit status.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import traceback

import numpy as np

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHANNEL = "fixture:vn_d2_channel.json"
STATE = "fixture:cq_witness_state.json"
PSD_EPS = 6e-11  # 0.6 of PSD_TOL: the Choi state passes validate
FILES = {
    "pi.json": [[0.3, 0.2], [0.1, 0.4]],  # one row and column per stationary state of CHANNEL
    "psd.json": {
        "schema": "qcorr/1",
        "kind": "channel",
        "dims": [2, 2],
        "data": [[0.5 + PSD_EPS, 0, 0, 0], [0, -PSD_EPS, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]],
    },
    "d1.json": {"schema": "qcorr/1", "kind": "channel", "dims": [1, 1], "data": [[1.0]]},
    "recorded.json": {
        "schema": "qcorr/1",
        "kind": "stochastic",
        "data": [[0.5, 0.5], [0.5, 0.5]],
        "recorded": {"perron": 5},
    },
}


NEAR_TOL_EPS = 1e-9  # distance of near_tol.json from a measure-and-prepare channel
COUPLING_EPS = 1e-6  # probability that near_decomposable.json leaves a block per step


def _complex_rows(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def _document(kind: str, dims: list[int], m: np.ndarray) -> dict:
    m = (m + np.conj(m).T) / 2.0
    return {"schema": "qcorr/1", "kind": kind, "dims": dims, "data": _complex_rows(m / np.trace(m).real)}


def nearly_decomposable(h: int, eps: float) -> np.ndarray:
    """Two dense ``h``-state blocks of uniform draws (first block first),
    columns normalized and scaled by ``1 - eps``, every cross entry ``eps / h``."""
    rng = np.random.default_rng(0)
    chain = np.full((2 * h, 2 * h), eps / h)
    for block in (slice(0, h), slice(h, 2 * h)):
        draws = rng.uniform(size=(h, h))
        chain[block, block] = draws / draws.sum(axis=0) * (1.0 - eps)
    return chain


def generated_files() -> dict:
    """``mp6.json``, ``near_tol.json``, ``qc6.json`` and ``near_decomposable.json``,
    from fixed seeds."""
    rng = np.random.default_rng(6)
    # Choi state sum_k E_k^T / d (x) |u_k><u_k| of non-commuting effects
    # E_k = S^(-1/2) G_k S^(-1/2), S = sum_k G_k, for random full-rank G_k
    g = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    grams = g @ np.conj(g).transpose(0, 2, 1)
    w, v = np.linalg.eigh(grams.sum(axis=0))
    root = (v / np.sqrt(w)) @ np.conj(v).T
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    pointer = np.einsum("ak,bk->kab", u, np.conj(u))
    mp6 = sum(np.kron((root @ m @ root).T / 6, p) for m, p in zip(grams, pointer))
    # measure Z, prepare Z, mixed with (1/2) (x) |+><+|
    near = (1 - NEAR_TOL_EPS) * np.diag([0.5, 0.0, 0.0, 0.5]) + NEAR_TOL_EPS * np.kron(np.eye(2) / 2, np.full((2, 2), 0.5))
    # sum_k p_k sigma_k (x) |u_k><u_k| with full-rank sigma_k
    qc6 = sum(np.kron(m, p) for m, p in zip(grams[::-1], pointer))
    return {
        "mp6.json": _document("channel", [6, 6], mp6),
        "near_tol.json": _document("channel", [2, 2], near),
        "qc6.json": _document("state", [6, 6], qc6),
        "near_decomposable.json": {
            "schema": "qcorr/1",
            "kind": "stochastic",
            "data": nearly_decomposable(50, COUPLING_EPS).tolist(),
        },
    }


def load(src: pathlib.Path):
    """``qcorr.cli.main`` and ``fixture_names`` imported from the tree ``src``,
    dropping any ``qcorr`` modules imported before from another tree."""
    for name in [n for n in sys.modules if n == "qcorr" or n.startswith("qcorr.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from qcorr.cli import main
        from qcorr.fixtures import fixture_names
    finally:
        sys.path.pop(0)
    return main, fixture_names


def corpus(fixture_names) -> list[list[str]]:
    names = fixture_names()
    subcommands = ("validate", "classify", "markov", "broadcast")
    commands = [[sub, f"fixture:{name}"] for sub in subcommands for name in names]
    commands += [["markov", f"fixture:{name}", "--limit"] for name in names]
    commands += [["markov", f"fixture:{name}", "--power", "3", "--limit"] for name in names]
    commands += [
        ["paper-check"],
        ["broadcast", CHANNEL, "--copies", "3"],
        ["broadcast", CHANNEL, "--copies", "9"],
        ["broadcast", CHANNEL, "--mode", "spectrum"],
        ["broadcast", CHANNEL, "--second-channel", CHANNEL],
        ["broadcast", CHANNEL, "--pi", "pi.json"],
        ["broadcast", CHANNEL, "--second-channel", CHANNEL, "--pi", "pi.json"],
        ["classify", STATE, "--side", "A"],
        ["classify", STATE, "--side", "B"],
        ["broadcast", CHANNEL, "--seed", "5"],
        ["classify", "psd.json"],
        ["markov", "psd.json"],
        ["broadcast", "psd.json"],
        ["classify", STATE, "--tol", "nan"],
        ["classify", STATE, "--tol=-1"],
        ["broadcast", CHANNEL, "--copies", "15000"],
        ["broadcast", "d1.json", "--copies", "257"],
        ["validate", "recorded.json"],
        ["markov", "recorded.json"],
        ["validate", "fixture:p1.json", "--out", "missing/r.json"],
    ]
    commands += [[sub, name] for name in ("mp6.json", "near_tol.json") for sub in ("validate", "classify", "markov")]
    commands += [["validate", "qc6.json"], ["classify", "qc6.json"]]
    commands += [["validate", "near_decomposable.json"], ["markov", "near_decomposable.json"]]
    return commands


def run(main, argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # one line of the corpus, not the end of the run
            lines = traceback.format_exception_only(exc)
            return "exc", out.getvalue(), lines[-1].strip()
    return code, out.getvalue(), err.getvalue()


def reports(src: pathlib.Path) -> list[tuple[list[str], int | str, str, str]]:
    """(argv, exit code, stdout, first stderr line) of every corpus command."""
    main, fixture_names = load(src)
    out = []
    for argv in corpus(fixture_names):
        code, stdout, err = run(main, argv)
        first = err.strip().splitlines()[0] if err.strip() else ""
        out.append((argv, code, stdout, first))
    return out


def leaves(value, path: str = "$") -> dict[str, object]:
    """Every scalar of a parsed JSON document keyed by its path."""
    if isinstance(value, dict):
        return {p: v for k, item in value.items() for p, v in leaves(item, f"{path}.{k}").items()}
    if isinstance(value, list):
        return {p: v for i, item in enumerate(value) for p, v in leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def differences(old: str, new: str) -> tuple[list[tuple[str, object, object]], float | None]:
    """Paths whose values differ between two reports, and the largest
    absolute difference between numbers at one path (None if no number
    pair differs). A report that is not JSON compares as one value."""
    try:
        a, b = leaves(json.loads(old)), leaves(json.loads(new))
    except json.JSONDecodeError:
        a, b = {"$": old}, {"$": new}
    missing = object()
    rows, largest = [], None
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path, missing), b.get(path, missing)
        if x == y and type(x) is type(y):
            continue
        rows.append((path, "(absent)" if x is missing else x, "(absent)" if y is missing else y))
        numbers = [v for v in (x, y) if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(numbers) == 2:
            gap = abs(numbers[0] - numbers[1])
            largest = gap if largest is None else max(largest, gap)
    return rows, largest


def compare(src: pathlib.Path, other: pathlib.Path) -> int:
    """Print every report that differs between the two trees; return their count."""
    base, changed = reports(src), reports(other)
    count = 0
    for (argv, code, out, err), (_, code2, out2, err2) in zip(base, changed):
        if (code, out, err) == (code2, out2, err2):
            continue
        count += 1
        rows, largest = differences(out, out2)
        if code != code2:
            rows.insert(0, ("exit code", code, code2))
        if err != err2:
            rows.append(("stderr", err, err2))
        gap = "no number differs" if largest is None else f"max |diff| {largest:.3g}"
        print(f"{' '.join(argv)}\t{gap}")
        for path, x, y in rows:
            print(f"  {path}\t{x!r}\t{y!r}")
    print(f"{count} of {len(base)} reports differ")
    return count


if __name__ == "__main__":
    trees = [pathlib.Path(a).resolve() for a in sys.argv[1:3]] or [DEFAULT_SRC]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, content in {**FILES, **generated_files()}.items():
            pathlib.Path(name).write_text(json.dumps(content), encoding="utf-8")
        if len(trees) == 2:
            sys.exit(1 if compare(*trees) else 0)
        else:
            for argv, code, out, first in reports(trees[0]):
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                print(f"{code}\t{digest}\t{' '.join(argv)}\t{first}")
