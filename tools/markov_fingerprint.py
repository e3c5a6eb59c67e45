#!/usr/bin/env python3
"""Fingerprint the Markov-table results of a source tree.

A seeded sweep over n <= 1000 builds dense tables, chorded rings (a
directed ring with three half-weight chords and one lazy state), lazy
directed rings ``0.1 I + 0.9 C`` (step 0.9, stay 0.1), reducible tables
(two dense closed blocks fed by transient states), block-cyclic tables of
period 3, nearly decomposable tables (two dense blocks coupled by 1e-4),
upper-triangular DAG chains (n singleton classes, about half of them with
a self-loop) and random sparse tables (about three successors per state),
every one but the lazy ring and the DAG relabelled by a seeded
permutation. Inputs come from numpy alone, with a fixed seed, so every
tree sees the same arrays. Each case records the class labels and the
recurrent and primitive flags of ``block_decompose``, the bytes of its
Perron vectors, the period of every class, ``is_irreducible``,
``is_primitive``, the bytes of ``perron_vector`` on the table (or on its
first recurrent class when it is reducible), and ``ergodic_limit``'s
``r_converged`` with the bytes of its limit and Perron vector, or the type
and reason of its refusal (and ``r_converged`` or the refusal again on its
own, so that a change of the power shows apart from a change of the
bytes). ``ergodic_limit`` runs on every table that is not primitive,
which it refuses at once, and on the primitive ones where the scan is
short enough to sweep: the chorded and lazy rings and the random sparse
tables need thousands of powers and run it up to n = 30, the nearly
decomposable tables up to n = 4, the others at every n. Three 2-state
chains ``[[1 - e, 2e], [e, 1 - 2e]]`` close the sweep: e = 1e-2 and 1e-3
converge after 743 and 7,529 powers, and e = 1e-7 is refused at
``MAX_POWER``.

    python3 tools/markov_fingerprint.py [SRC_DIR] > fingerprints.tsv
    python3 tools/markov_fingerprint.py SRC_DIR OTHER_SRC_DIR

With one tree (default: this checkout's ``src``) it prints one line per
case: the sha256 of its record and the case name. With two it runs the
sweep on both, prints the first case whose record differs with the fields
that differ, then one line per record field with the number of cases that
differ in it, and exits 1; it exits 0 when every case agrees. For the
vector fields (``perron_vectors``, ``perron_vector`` and the limit and
Perron vector of ``ergodic_limit``) that line also gives the largest
entrywise relative difference ``|a - b| / max(|a|, |b|)`` over the cases
that differ in it, so a change that only moves roundoff reads near
``1e-16`` and a wrong vector near one; the line leaves it out when a
case has a vector on one tree only, a refusal on the other. A class's
period is read through the tree's private ``_period``: on the bit-set
levels of ``_bfs`` where the tree has them, else on the boolean support.
"""
from __future__ import annotations

import hashlib
import pathlib
import sys

import numpy as np

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SIZES = (1, 2, 3, 4, 7, 10, 25, 30, 60, 100, 200, 400, 1000)
FAMILIES = ("dense", "ring", "lazy-ring", "reducible", "periodic", "near-decomposable", "dag", "sparse")
LIMIT_MAX_N = {"ring": 30, "lazy-ring": 30, "sparse": 30, "near-decomposable": 4}  # others: every n
COUPLING = 1e-4  # of the nearly decomposable blocks


def load(src: pathlib.Path):
    """``markov`` and ``NotPrimitiveError`` of the tree ``src``, dropping any
    ``qcorr`` modules imported from another tree."""
    for name in [n for n in sys.modules if n == "qcorr" or n.startswith("qcorr.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from qcorr import markov
        from qcorr.errors import NotPrimitiveError
    finally:
        sys.path.pop(0)
    return markov, NotPrimitiveError


def dirichlet(rng, rows: int, cols: int) -> np.ndarray:
    return rng.dirichlet(np.ones(rows), size=cols).T


def relabel(rng, p: np.ndarray) -> np.ndarray:
    perm = rng.permutation(len(p))
    return p[np.ix_(perm, perm)]


def table(family: str, n: int, rng) -> np.ndarray:
    """A column-stochastic ``n x n`` table of ``family``."""
    if family == "dense":
        return dirichlet(rng, n, n)
    if family == "ring":
        p = np.zeros((n, n))
        p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
        for j in sorted({0, n // 3, 2 * n // 3}):
            p[:, j] *= 0.5
            p[(j + n // 2) % n, j] += 0.5
        p[:, n - 1] *= 0.5
        p[n - 1, n - 1] += 0.5
        return relabel(rng, p)
    if family == "lazy-ring":
        return 0.1 * np.eye(n) + 0.9 * np.roll(np.eye(n), 1, axis=0)
    if family == "reducible":
        size = max(1, int(0.4 * n))
        p = np.zeros((n, n))
        for start in (0, size):
            block = slice(start, min(start + size, n))
            width = block.stop - block.start
            p[block, block] = dirichlet(rng, width, width)
        p[:, 2 * size :] = dirichlet(rng, n, max(n - 2 * size, 0))
        return relabel(rng, p)
    if family == "periodic":
        period = min(3, n)
        bounds = np.linspace(0, n, period + 1).astype(int)
        p = np.zeros((n, n))
        for k in range(period):
            src, nxt = slice(bounds[k], bounds[k + 1]), (k + 1) % period
            dst = slice(bounds[nxt], bounds[nxt + 1])
            p[dst, src] = dirichlet(rng, dst.stop - dst.start, src.stop - src.start)
        return relabel(rng, p)
    if family == "near-decomposable":
        half = max(1, n // 2)
        p = np.zeros((n, n))
        for block, other in ((slice(0, half), slice(half, n)), (slice(half, n), slice(0, half))):
            width, rest = block.stop - block.start, other.stop - other.start
            if not width:
                continue
            p[block, block] = dirichlet(rng, width, width) * (1.0 - COUPLING if rest else 1.0)
            if rest:
                p[other, block] = COUPLING / rest
        return relabel(rng, p)
    if family == "dag":
        support = np.triu(rng.random((n, n)) < 0.3, k=1)
        support[np.maximum(np.arange(n) - 1, 0), np.arange(n)] = True  # j -> j - 1
        np.fill_diagonal(support, rng.random(n) < 0.5)
        support[0, 0] = True
        weights = rng.uniform(0.1, 1.0, (n, n)) * support
        return weights / weights.sum(axis=0)
    support = rng.random((n, n)) < min(1.0, 3.0 / n)
    support[rng.integers(0, n, n), np.arange(n)] = True
    weights = rng.uniform(0.1, 1.0, (n, n)) * support
    return relabel(rng, weights / weights.sum(axis=0))


def field(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def period(markov, m: np.ndarray, indices) -> int:
    """The tree's ``_period`` of the class on ``indices``."""
    sub = m[np.ix_(indices, indices)]
    if hasattr(markov, "_bfs"):
        succ, _ = markov._digraph(sub)
        return markov._period(markov._bfs(succ, 0, (1 << len(sub)) - 1)[1])
    return markov._period(sub > markov.ZERO_TOL)


def refusal(exc: Exception) -> str:
    return f"{type(exc).__name__}: {getattr(exc, 'reason', None)}: {exc}"


def record(markov, NotPrimitiveError, family: str, p: np.ndarray) -> tuple[dict[str, str], dict[str, list]]:
    """The case's record and, per vector field of it, the arrays it hashes."""
    n = len(p)
    analysis = markov.block_decompose(p)
    out = {
        "classes": repr([c.indices for c in analysis.classes]),
        "flags": repr([(c.recurrent, c.primitive) for c in analysis.classes]),
        "perron_vectors": repr([field(v) for v in analysis.perron_vectors]),
        "periods": repr([period(markov, p, c.indices) for c in analysis.classes]),
        "is_irreducible": repr(markov.is_irreducible(p)),
        "is_primitive": repr(markov.is_primitive(p)),
    }
    vectors = {"perron_vectors": list(analysis.perron_vectors)}
    block = None if analysis.irreducible else next(c.indices for c in analysis.classes if c.recurrent)
    vectors["perron_vector"] = [markov.perron_vector(p, block)]
    out["perron_vector"] = field(vectors["perron_vector"][0])
    if not analysis.primitive or n <= LIMIT_MAX_N.get(family, n):
        try:
            lim = markov.ergodic_limit(p)
        except (NotPrimitiveError, ValueError) as exc:
            out["ergodic_limit"] = out["r_converged"] = refusal(exc)
        else:
            out["ergodic_limit"] = f"r={lim.r_converged} {field(lim.matrix)} {field(lim.perron)}"
            out["r_converged"] = repr(lim.r_converged)
            vectors["ergodic_limit"] = [lim.matrix, lim.perron]
    return out, vectors


def cases(src: pathlib.Path) -> list[tuple[str, dict[str, str], dict[str, list]]]:
    """(case name, record, record's arrays) for every case of the sweep on
    the tree ``src``."""
    markov, NotPrimitiveError = load(src)
    rng = np.random.default_rng(20122)
    out = []
    for n in SIZES:
        for family in FAMILIES:
            p = table(family, n, rng)
            out.append((f"{family} n={n}", *record(markov, NotPrimitiveError, family, p)))
    for eps in (1e-2, 1e-3, 1e-7):
        p = np.array([[1.0 - eps, 2.0 * eps], [eps, 1.0 - 2.0 * eps]])
        out.append((f"eps-chain eps={eps:g}", *record(markov, NotPrimitiveError, "eps-chain", p)))
    return out


def relative_difference(arrays: list, others: list) -> float:
    """Largest ``|a - b| / max(|a|, |b|)`` over the entries of two lists of
    arrays (0 where both entries are 0); inf when their shapes differ."""
    if [np.shape(a) for a in arrays] != [np.shape(b) for b in others]:
        return float("inf")
    worst = 0.0
    for a, b in zip(arrays, others):
        scale = np.maximum(np.abs(a), np.abs(b))
        gap = np.abs(a - b)
        worst = max(worst, float(np.max(gap[scale > 0] / scale[scale > 0], initial=0.0)))
    return worst


def digest(record: dict[str, str]) -> str:
    return hashlib.sha256(repr(sorted(record.items())).encode("utf-8")).hexdigest()


def compare(src: pathlib.Path, other: pathlib.Path) -> int:
    """Print the first case whose record differs between the trees and, for
    every record field, how many cases differ in it, with the largest
    entrywise relative difference of a differing vector field; return the
    number of differing cases."""
    base, changed = cases(src), cases(other)
    differing = [(name, a, b, va, vb) for (name, a, va), (_, b, vb) in zip(base, changed) if a != b]
    if differing:
        name, a, b, _, _ = differing[0]
        print(f"first differing case: {name}")
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                print(f"  {key}\t{a.get(key)}\t{b.get(key)}")
    keys = sorted({key for _, rec, _ in base + changed for key in rec})
    for key in keys:
        moved = [(va, vb) for _, a, b, va, vb in differing if a.get(key) != b.get(key)]
        line = f"{len(moved)}\tcases differ in {key}"
        if moved and all(key in va and key in vb for va, vb in moved):
            worst = max(relative_difference(va[key], vb[key]) for va, vb in moved)
            line += f"\tmax relative difference {worst:.2e}"
        print(line)
    print(f"{len(differing)} of {len(base)} cases differ")
    return len(differing)


if __name__ == "__main__":
    trees = [pathlib.Path(a).resolve() for a in sys.argv[1:3]] or [DEFAULT_SRC]
    if len(trees) == 2:
        sys.exit(1 if compare(*trees) else 0)
    for name, rec, _ in cases(trees[0]):
        print(f"{digest(rec)}\t{name}")
