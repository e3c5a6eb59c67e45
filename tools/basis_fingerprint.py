#!/usr/bin/env python3
"""Fingerprint the joint-diagonalization results of a source tree.

A seeded sweep calls ``simultaneous_diagonalize`` and ``joint_basis`` on
stacked families up to d = 12 (planted with degenerate spectra, planted
normal, generic non-normal, diagonal with exact and signed zeros, powers
of a signed permutation, and a planted family perturbed by 1e-8 so that
the two tolerances decide differently), ``classical_side_basis`` and
``classify_state`` on bipartite states up to 12 x 12 (classical on B, on A,
on both, and generic) on both sides, and ``qc_type_extract`` on
measure-and-prepare and generic channels, each with ``tol`` None and 1e-6.
Inputs come from numpy alone, with a fixed seed, so every tree sees the
same arrays. Each case records the bytes of every basis, effect and
probability vector, of every conditional block of ``classical_side_basis``
(a zero-probability block marked None), every witness as ``float.hex`` and
every verdict.

    python3 tools/basis_fingerprint.py [SRC_DIR] > fingerprints.tsv
    python3 tools/basis_fingerprint.py SRC_DIR OTHER_SRC_DIR

With one tree (default: this checkout's ``src``) it prints one line per
case: the sha256 of its record and the case name. With two it runs the
sweep on both, prints the first case whose record differs with the fields
that differ, then one line per record field with the number of cases that
differ in it, and exits 1; it exits 0 when every case agrees. For a
float field (a basis, probability vector, block, pointer, POVM or witness)
that line also gives the largest absolute difference ``|a - b|`` and the
largest relative difference ``|a - b| / max(|a|, |b|)`` over the cases
that differ in it, so a change that only moves roundoff reads near
``1e-16``; the line leaves them out when a case has an array on one tree
only, a refusal on the other, and reads inf when the shapes differ. The
``joint_basis`` field is the basis a verdict reads without its witness: a
tree's public ``joint_basis``, else its private ``_joint_basis``, else
``simultaneous_diagonalize(family, tol).basis`` read before any witness.
"""
from __future__ import annotations

import hashlib
import pathlib
import sys

import numpy as np

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TOLS = (None, 1e-6)
FAMILY_KINDS = ("degenerate", "normal", "generic", "zero-diagonal", "signed-permutation", "near-commuting")
STATE_DIMS = ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (6, 6), (8, 8), (10, 10), (12, 12))
STATE_KINDS = ("classical-b", "classical-a", "classical-both", "generic")
CHANNEL_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4), (6, 6), (8, 8), (12, 12))
NEAR_EPS = 1e-8  # perturbation of the near-commuting families: refused at 1e-9, accepted at 1e-6


def load(src: pathlib.Path):
    """``linalg``, ``structure``, ``QuantumState`` and ``ChoiChannel`` of the
    tree ``src``, dropping any ``qcorr`` modules imported from another tree."""
    for name in [n for n in sys.modules if n == "qcorr" or n.startswith("qcorr.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from qcorr import linalg, structure
        from qcorr.channels import ChoiChannel
        from qcorr.states import QuantumState
    finally:
        sys.path.pop(0)
    return linalg, structure, QuantumState, ChoiChannel


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density(rng, d: int) -> np.ndarray:
    g = ginibre(rng, d, d)
    m = g @ np.conj(g).T
    return m / np.trace(m).real


def family(kind: str, n: int, d: int, rng) -> np.ndarray:
    if kind == "generic":
        return np.stack([ginibre(rng, d, d) for _ in range(n)])
    if kind == "zero-diagonal":
        spectra = rng.integers(-1, 2, (n, d)).astype(np.complex128)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None, None]
        return signs * (spectra[:, :, None] * np.eye(d))
    if kind == "signed-permutation":
        p = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        return np.stack([np.linalg.matrix_power(p, j + 1) for j in range(n)]).astype(np.complex128)
    u = haar(rng, d)
    if kind == "normal":
        spectra = ginibre(rng, n, d)
    else:
        spectra = rng.integers(0, 3, (n, d)).astype(np.complex128)
    stack = np.stack([(u * s) @ np.conj(u).T for s in spectra])
    if kind == "near-commuting":
        stack = stack + NEAR_EPS * ginibre(rng, d, d)
    return stack


def bipartite(kind: str, d_a: int, d_b: int, rng) -> np.ndarray:
    """A trace-one state on ``(d_a, d_b)``."""
    if kind == "generic":
        return density(rng, d_a * d_b)
    if kind == "classical-both":
        ua, ub, p = haar(rng, d_a), haar(rng, d_b), rng.dirichlet(np.ones(d_a * d_b))
        return sum(
            p[i * d_b + j] * np.kron(np.outer(ua[:, i], np.conj(ua[:, i])), np.outer(ub[:, j], np.conj(ub[:, j])))
            for i in range(d_a)
            for j in range(d_b)
        )
    if kind == "classical-a":
        swapped = bipartite("classical-b", d_b, d_a, rng).reshape(d_b, d_a, d_b, d_a)
        return swapped.transpose(1, 0, 3, 2).reshape(d_a * d_b, d_a * d_b)
    u, p = haar(rng, d_b), rng.dirichlet(np.ones(d_b))
    return sum(p[k] * np.kron(density(rng, d_a), np.outer(u[:, k], np.conj(u[:, k]))) for k in range(d_b))


def measure_prepare_choi(d_in: int, d_out: int, rng) -> np.ndarray:
    """``sum_k E_k^T / d_in (x) |u_k><u_k|`` for a full-rank POVM of ``d_out``
    effects and a Haar pointer basis."""
    grams = [g @ np.conj(g).T for g in (ginibre(rng, d_in, d_in) for _ in range(d_out))]
    w, v = np.linalg.eigh(sum(grams))
    root = (v / np.sqrt(w)) @ np.conj(v).T
    u = haar(rng, d_out)
    return sum(
        np.kron((root @ g @ root).T / d_in, np.outer(u[:, k], np.conj(u[:, k]))) for k, g in enumerate(grams)
    )


def generic_choi(d_in: int, d_out: int, rng) -> np.ndarray:
    """Choi state of a random channel with ``d_in * d_out`` Kraus operators."""
    stacked = ginibre(rng, d_in * d_out * d_out, d_in)
    q = np.linalg.qr(stacked)[0]  # isometry: sum_m K_m^dag K_m = 1
    kraus = q.reshape(d_in * d_out, d_out, d_in)
    v = np.stack([k.T.reshape(-1) for k in kraus], axis=1) / np.sqrt(d_in)
    return v @ np.conj(v).T


def basis_field(basis) -> str:
    return "None" if basis is None else hashlib.sha256(np.ascontiguousarray(basis).tobytes()).hexdigest()


def blocks_field(blocks) -> str:
    """sha256 of each block's matrix bytes in order, a None block marked as such."""
    if blocks is None:
        return "None"
    h = hashlib.sha256()
    for block in blocks:
        h.update(b"None;" if block is None else np.ascontiguousarray(block.matrix).tobytes() + b";")
    return h.hexdigest()


def block_arrays(blocks) -> list[np.ndarray] | None:
    """Each block's matrix, a None block as an empty array."""
    return None if blocks is None else [np.zeros(0) if b is None else b.matrix for b in blocks]


class Record:
    """One case's fields, each a string, and the floats behind each numeric
    field (a list of arrays; None where the tree has no array, a refusal)."""

    def __init__(self):
        self.fields: dict[str, str] = {}
        self.values: dict[str, list[np.ndarray] | None] = {}

    def array(self, name: str, array) -> None:
        self.fields[name] = basis_field(array)
        self.values[name] = None if array is None else [np.asarray(array)]

    def witness(self, name: str, value: float) -> None:
        self.fields[name] = float(value).hex()
        self.values[name] = [np.asarray(float(value))]

    def blocks(self, name: str, blocks) -> None:
        self.fields[name] = blocks_field(blocks)
        self.values[name] = block_arrays(blocks)


def cases(src: pathlib.Path) -> list[tuple[str, Record]]:
    """(case name, record) for every case of the sweep on the tree ``src``."""
    linalg, structure, QuantumState, ChoiChannel = load(src)
    joint_basis = (
        getattr(linalg, "joint_basis", None)
        or getattr(linalg, "_joint_basis", None)
        or (lambda stack, tol: linalg.simultaneous_diagonalize(stack, tol).basis)
    )
    rng = np.random.default_rng(20121)
    out = []
    for d in range(1, 13):
        for kind in FAMILY_KINDS:
            for n in (1, 3, 6):
                stack = family(kind, n, d, rng)
                for tol in TOLS:
                    result = linalg.simultaneous_diagonalize(stack, tol)
                    record = Record()
                    record.array("simultaneous_diagonalize.basis", result.basis)
                    record.witness("simultaneous_diagonalize.witness", result.witness)
                    record.array("joint_basis", joint_basis(stack, tol))
                    out.append((f"family {kind} n={n} d={d} tol={tol}", record))
    for d_a, d_b in STATE_DIMS:
        for kind in STATE_KINDS:
            rho = QuantumState(bipartite(kind, d_a, d_b, rng), (d_a, d_b))
            for tol in TOLS:
                record = Record()
                record.fields["classify_state"] = structure.classify_state(rho, tol)
                for side in "AB":
                    found = structure.classical_side_basis(rho, side, tol)
                    record.array(f"side {side}.basis", found.basis)
                    record.witness(f"side {side}.witness", found.witness)
                    record.array(f"side {side}.probabilities", found.probabilities)
                    record.blocks(f"side {side}.blocks", found.blocks)
                out.append((f"state {kind} dims=({d_a}, {d_b}) tol={tol}", record))
    for d_in, d_out in CHANNEL_DIMS:
        for kind, make in (("measure-prepare", measure_prepare_choi), ("generic", generic_choi)):
            channel = ChoiChannel(QuantumState(make(d_in, d_out, rng), (d_in, d_out)))
            for tol in TOLS:
                mm = structure.qc_type_extract(channel, tol)
                record = Record()
                record.array("qc_type_extract.pointer", None if mm is None else mm.pointer_basis)
                record.array("qc_type_extract.povm", None if mm is None else np.stack(mm.povm))
                out.append((f"channel {kind} dims=({d_in}, {d_out}) tol={tol}", record))
    return out


def digest(record: dict[str, str]) -> str:
    return hashlib.sha256(repr(sorted(record.items())).encode("utf-8")).hexdigest()


def differences(arrays: list, others: list) -> tuple[float, float]:
    """Largest ``|a - b|`` and largest ``|a - b| / max(|a|, |b|)`` over the
    entries of two lists of arrays (0 where both entries are 0); inf when
    their shapes differ."""
    if [np.shape(a) for a in arrays] != [np.shape(b) for b in others]:
        return float("inf"), float("inf")
    absolute = relative = 0.0
    for a, b in zip(arrays, others):
        scale = np.maximum(np.abs(a), np.abs(b))
        gap = np.abs(a - b)
        absolute = max(absolute, float(np.max(gap, initial=0.0)))
        relative = max(relative, float(np.max(gap[scale > 0] / scale[scale > 0], initial=0.0)))
    return absolute, relative


def compare(src: pathlib.Path, other: pathlib.Path) -> int:
    """Print the first case whose record differs between the trees and, for
    every record field, how many cases differ in it, with the largest
    absolute and relative difference of a differing float field; return
    the number of differing cases."""
    base, changed = cases(src), cases(other)
    differing = [(name, a, b) for (name, a), (_, b) in zip(base, changed) if a.fields != b.fields]
    if differing:
        name, a, b = differing[0]
        print(f"first differing case: {name}")
        for field in sorted(a.fields.keys() | b.fields.keys()):
            if a.fields.get(field) != b.fields.get(field):
                print(f"  {field}\t{a.fields.get(field)}\t{b.fields.get(field)}")
    fields = sorted({field for _, record in base + changed for field in record.fields})
    for field in fields:
        moved = [(a, b) for _, a, b in differing if a.fields.get(field) != b.fields.get(field)]
        line = f"{len(moved)}\tcases differ in {field}"
        if moved and all(a.values.get(field) is not None and b.values.get(field) is not None for a, b in moved):
            worst = [differences(a.values[field], b.values[field]) for a, b in moved]
            line += f"\tmax absolute difference {max(w[0] for w in worst):.2e}"
            line += f"\tmax relative difference {max(w[1] for w in worst):.2e}"
        print(line)
    print(f"{len(differing)} of {len(base)} cases differ")
    return len(differing)


if __name__ == "__main__":
    trees = [pathlib.Path(a).resolve() for a in sys.argv[1:3]] or [DEFAULT_SRC]
    if len(trees) == 2:
        sys.exit(1 if compare(*trees) else 0)
    for name, record in cases(trees[0]):
        print(f"{digest(record.fields)}\t{name}")
