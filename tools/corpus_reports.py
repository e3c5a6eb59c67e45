#!/usr/bin/env python3
"""Run the CLI corpus in-process and fingerprint every report.

The corpus is each of validate/classify/markov/broadcast on each bundled
fixture, ``markov --limit`` and ``markov --power 3 --limit`` on each
fixture, ``paper-check``, ``classify --side A`` and ``--side B`` on
``cq_witness_state.json``, and on ``vn_d2_channel.json``: ``broadcast
--copies 3``, ``--copies 9``, ``--mode spectrum``, ``--pi`` and the
two-channel case, alone and with ``--pi``, and ``--seed 5`` without a
second channel (refused). The ``--pi`` table is written to a temporary
file, shown as ``pi.json`` in the output. One tab-separated line per
command: exit code, sha256 of stdout, the command, and the first stderr
line. Diff the output of two source trees to compare them:

    python3 tools/corpus_reports.py [SRC_DIR] > reports.tsv

``SRC_DIR`` defaults to this checkout's ``src``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SRC = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SRC
sys.path.insert(0, str(SRC.resolve()))

from qcorr.cli import main
from qcorr.fixtures import fixture_names

CHANNEL = "fixture:vn_d2_channel.json"
PI = "[[0.3, 0.2], [0.1, 0.4]]"  # one row and column per stationary state of CHANNEL


def corpus(pi_path: str) -> list[list[str]]:
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
        ["broadcast", CHANNEL, "--pi", pi_path],
        ["broadcast", CHANNEL, "--second-channel", CHANNEL, "--pi", pi_path],
        ["classify", "fixture:cq_witness_state.json", "--side", "A"],
        ["classify", "fixture:cq_witness_state.json", "--side", "B"],
        ["broadcast", CHANNEL, "--seed", "5"],
    ]
    return commands


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pi_path = str(pathlib.Path(tmp) / "pi.json")
        pathlib.Path(pi_path).write_text(PI, encoding="utf-8")
        for argv in corpus(pi_path):
            code, out, err = run(argv)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            first = err.strip().splitlines()[0] if err.strip() else ""
            command = " ".join(argv).replace(pi_path, "pi.json")
            print(f"{code}\t{digest}\t{command}\t{first}")
