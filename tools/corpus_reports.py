#!/usr/bin/env python3
"""Run the CLI corpus in-process and fingerprint every report.

The corpus is each of validate/classify/markov/broadcast on each bundled
fixture, ``markov --limit`` and ``markov --power 3 --limit`` on each
fixture, ``paper-check``, and on ``vn_d2_channel.json``: ``broadcast
--copies 3``, ``--copies 9``, ``--mode spectrum`` and the two-channel case.
One tab-separated line per command: exit code, sha256 of stdout, the
command, and the first stderr line. Diff the output of two source trees to
compare them:

    python3 tools/corpus_reports.py [SRC_DIR] > reports.tsv

``SRC_DIR`` defaults to this checkout's ``src``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SRC = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SRC
sys.path.insert(0, str(SRC.resolve()))

from qcorr.cli import main
from qcorr.fixtures import fixture_names

CHANNEL = "fixture:vn_d2_channel.json"


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
    ]
    return commands


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    for argv in corpus():
        code, out, err = run(argv)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        first = err.strip().splitlines()[0] if err.strip() else ""
        print(f"{code}\t{digest}\t{' '.join(argv)}\t{first}")
