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
(inside the bound), and ``broadcast --copies 257`` on a channel of
dimension one. The ``--pi`` table and the two channels are written as
``pi.json``, ``psd.json`` and ``d1.json`` to a temporary directory, which
the run works in, so reports record the same input paths on every run.
One tab-separated line per command: exit code, sha256 of stdout, the
command, and the first stderr line; an exception that escapes ``main``
gives the code ``exc`` and the exception's last line instead. Diff the
output of two source trees to compare them:

    python3 tools/corpus_reports.py [SRC_DIR] > reports.tsv

``SRC_DIR`` defaults to this checkout's ``src``.
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

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SRC = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SRC
sys.path.insert(0, str(SRC.resolve()))

from qcorr.cli import main
from qcorr.fixtures import fixture_names

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
}


def corpus() -> list[list[str]]:
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
    ]
    return commands


def run(argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # one line of the corpus, not the end of the run
            lines = traceback.format_exception_only(exc)
            return "exc", out.getvalue(), lines[-1].strip()
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, content in FILES.items():
            pathlib.Path(name).write_text(json.dumps(content), encoding="utf-8")
        for argv in corpus():
            code, out, err = run(argv)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            first = err.strip().splitlines()[0] if err.strip() else ""
            print(f"{code}\t{digest}\t{' '.join(argv)}\t{first}")
