"""The four benchmark workloads.

Each workload turns a seed into raw numpy inputs (before any timing) and
returns one *round*: a fixed list of operations, each with the call into
qcorr and the oracle that judges its outcome afterwards. The seed changes
input contents only, never the composition or order of a round, so runs
with different seeds time the same mix of work.

Why these four: every open ROADMAP item does most of its work in one of
them and almost none in another.

* ``cli-corpus`` - cold start of every CLI subcommand; bypasses the
  numeric layers (ROADMAP item 2's scipy import shows here).
* ``small-pipeline`` - acceptance-shaped library work at d <= 4, where
  Python overhead and per-object validation dominate (item 4).
* ``classify-large`` - classification and extraction at d = 6..12, where
  the all-pairs commutator tensor dominates (item 3).
* ``markov-tables`` - transition tables up to n = 400 and nearly
  decomposable chains, where boolean matrix powers and the power
  iteration dominate (item 2).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc

OK = "ok"
KNOWN_DEFECT = "known-defect"  # a documented defect of the library at this commit
RAISED = "raised"  # raised where a result was expected
WRONG = "wrong"  # returned a result the oracle rejects, or an unexpected exit code


@dataclass
class Op:
    kind: str  # what is timed, e.g. "markov/dense"
    label: str  # input description, e.g. "dense n=400"
    call: Callable[[], Any]
    check: Callable[[Any, BaseException | None], tuple[str, str]]


def expect(verify: Callable[[Any], str | None], known_defect=None):
    """Check for an op that must return: ``verify`` gives None or a reason."""

    def check(result, exc):
        if exc is not None:
            if known_defect is not None and known_defect(exc):
                return KNOWN_DEFECT, str(exc)
            return RAISED, f"{type(exc).__name__}: {exc}"
        reason = verify(result)
        return (OK, "") if reason is None else (WRONG, reason)

    return check


def expect_refusal(exc_name: str, reason: str):
    """Check for an op whose documented outcome is a refusal."""

    def check(result, exc):
        if exc is None:
            return WRONG, "returned where a refusal was expected"
        if type(exc).__name__ != exc_name or getattr(exc, "reason", None) != reason:
            return RAISED, f"{type(exc).__name__}: {exc}"
        return OK, ""

    return check


def first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


# -- random inputs (numpy only) ------------------------------------------------


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def density(rng, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    m = g @ np.conj(g).T
    return m / np.real(np.trace(m))


def rank_one_povm(rng, d: int, n: int) -> list[np.ndarray]:
    """``n`` weighted rank-one effects, normalized by ``S^(-1/2)`` to sum to 1.

    Draws with an ill-conditioned ``S`` are redrawn, so the effects sum to
    the identity to roundoff and every derived state has unit trace.
    """
    while True:
        weights = rng.dirichlet(np.ones(n)) * d
        vecs = ginibre(rng, d, n)
        vecs /= np.linalg.norm(vecs, axis=0)
        s = (vecs * weights) @ np.conj(vecs).T
        w, v = np.linalg.eigh(s)
        if w[0] > 1e-3 * w[-1]:
            break
    inv_sqrt = (v / np.sqrt(w)) @ np.conj(v).T
    out = []
    for k in range(n):
        u = inv_sqrt @ vecs[:, k]
        out.append(weights[k] * np.outer(u, np.conj(u)))
    return out


def diagonal_povm(table: np.ndarray, basis: np.ndarray) -> list[np.ndarray]:
    """Commuting effects ``E_j = sum_i T[j, i] |v_i><v_i|``."""
    return [(basis * row) @ np.conj(basis).T for row in table]


def dirichlet_table(rng, rows: int, cols: int) -> np.ndarray:
    return rng.dirichlet(np.ones(rows), size=cols).T


# -- classify-large -------------------------------------------------------------

CLASSIFY_DIMS = (6, 8, 10, 12)
CLASSIFY_COPIES = {6: 2, 8: 4, 10: 2, 12: 1}


def _classify_inputs(rng, d: int) -> dict:
    dims = (d, d)
    # QC-type output: a measure-and-prepare map applied to side B
    rho = density(rng, d * d)
    povm = rank_one_povm(rng, d, d)
    pointer = haar(rng, d)
    qc_out = orc.apply_map_on_b(povm, pointer, rho, dims)
    qc_out = (qc_out + np.conj(qc_out).T) / 2.0
    # measure-and-prepare channel with d + 1 non-commuting outcomes
    mp_povm = rank_one_povm(rng, d, d + 1)
    mp_pointer = haar(rng, d + 1)
    mp_choi = orc.choi_from_map(mp_povm, mp_pointer)
    # fully classical channel: commuting effects on a random eigenbasis
    cc_choi = orc.choi_from_map(diagonal_povm(dirichlet_table(rng, d, d), haar(rng, d)), haar(rng, d))
    generic_state = density(rng, d * d)
    cert = {
        "qc-output A": orc.noncommuting_certificate(orc.side_family(qc_out, dims, "A")),
        "generic A": orc.noncommuting_certificate(orc.side_family(generic_state, dims, "A")),
        "generic B": orc.noncommuting_certificate(orc.side_family(generic_state, dims, "B")),
    }
    for name, value in cert.items():
        if value < 1e-6:
            raise RuntimeError(f"input generator produced a commuting {name} family")
    if orc.effects_commute(mp_povm):
        raise RuntimeError("input generator produced commuting effects")
    return {
        "d": d,
        "qc_out": qc_out,
        "mp_choi": mp_choi,
        "cc_choi": cc_choi,
        "generic_state": generic_state,
        "generic_witness": cert["generic B"],
    }


def _classify_ops(inp: dict, qc) -> list[Op]:
    d = inp["d"]
    dims = (d, d)
    label = f"d={d}"
    qc_out = inp["qc_out"]
    mp_choi = inp["mp_choi"]
    cc_choi = inp["cc_choi"]
    generic_state = inp["generic_state"]
    fam_b = orc.side_family(qc_out, dims, "B")

    def label_is(expected):
        return lambda r: None if r == expected else f"label {r!r}, expected {expected!r}"

    def csb_ok(s):
        if not s:
            return "side B rejected"
        return orc.check_diagonalizes(s.basis, fam_b)

    def mp_ok(mm):
        if mm is None:
            return "extraction rejected a measure-and-prepare channel"
        return orc.check_rebuilds_choi(mm, mp_choi)

    def cc_ok(data):
        if data is None:
            return "rejected a fully classical channel"
        mm = data.measurement
        fam = np.stack([np.asarray(e) for e in mm.povm])
        table = np.real(np.einsum("ai,jab,bi->ji", np.conj(data.eigenbasis), fam, data.eigenbasis))
        return first_failure(
            orc.check_rebuilds_choi(mm, cc_choi),
            orc.check_diagonalizes(data.eigenbasis, fam),
            None
            if float(np.max(np.abs(table - data.transition.matrix))) <= 1e-9
            else "transition table does not match the effects",
        )

    def is_none(what):
        return lambda r: None if r is None else f"accepted {what}"

    def rejected_with_witness(s):
        # the library reports the largest commutator over all pairs, so it
        # is at least the one-row certificate computed at generation time
        if s:
            return "side B accepted for a generic state"
        if s.witness < inp["generic_witness"] - 1e-9:
            return f"witness {s.witness:.3e} below the certificate {inp['generic_witness']:.3e}"
        return None

    ops = [
        Op(
            "classify/qc-output",
            label,
            lambda: qc.classify_state(qc.QuantumState(qc_out, dims)),
            expect(label_is("QC-only")),
        ),
        Op(
            "qc_type_extract/accept",
            label,
            lambda: qc.qc_type_extract(qc.ChoiChannel(qc.QuantumState(mp_choi, (d, d + 1)))),
            expect(mp_ok),
        ),
        Op(
            "cc_type_extract/accept",
            label,
            lambda: qc.cc_type_extract(qc.ChoiChannel(qc.QuantumState(cc_choi, dims))),
            expect(cc_ok),
        ),
        Op(
            "classify/generic",
            label,
            lambda: qc.classify_state(qc.QuantumState(generic_state, dims)),
            expect(label_is("neither")),
        ),
    ]
    if d <= 10:
        ops += [
            Op(
                "classical_side_basis/accept",
                label,
                lambda: qc.classical_side_basis(qc.QuantumState(qc_out, dims), "B"),
                expect(csb_ok),
            ),
            Op(
                "classical_side_basis/reject",
                label,
                lambda: qc.classical_side_basis(qc.QuantumState(generic_state, dims), "B"),
                expect(rejected_with_witness),
            ),
            Op(
                "cc_type_extract/reject",
                label,
                lambda: qc.cc_type_extract(qc.ChoiChannel(qc.QuantumState(mp_choi, (d, d + 1)))),
                expect(is_none("non-commuting effects")),
            ),
        ]
    return ops


# -- markov-tables ----------------------------------------------------------------

MARKOV_SIZES = (25, 50, 100, 200)
MARKOV_COPIES = 12
EPSILONS = (1e-3, 1e-4, 1e-5, 1e-7, 1e-9)


def _markov_kinds(family: str, n: int) -> tuple[str, ...]:
    """Functions run per table. At n = 200 only block_decompose (and the dense
    Perron vector). The slowly mixing ring skips ergodic_limit: it needs
    thousands of powers (over a second at n = 100), and its cost varies
    enough to blur the median; primitive limits are covered by the dense
    tables and the eps = 1e-3 chain."""
    if n >= 200:
        return ("block_decompose", "perron_vector") if family == "dense" else ("block_decompose",)
    return {
        "dense": ("block_decompose", "perron_vector", "ergodic_limit", "is_primitive", "is_irreducible"),
        "ring": ("block_decompose", "perron_vector", "is_primitive", "is_irreducible"),
        "reducible": ("block_decompose", "perron_vector", "ergodic_limit", "is_irreducible"),
        "periodic": ("block_decompose", "perron_vector", "ergodic_limit", "is_primitive"),
    }[family]


def ring_table(rng, n: int) -> np.ndarray:
    """Directed ring with three half-weight chords and one lazy node (primitive).

    Only the labelling is random: the chain is the same up to a seeded
    permutation, so its mixing time, and with it the cost of the power
    iteration, does not depend on the seed.
    """
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    for j in (0, n // 3, 2 * n // 3):
        p[:, j] *= 0.5
        p[(j + n // 2) % n, j] += 0.5
    p[:, n - 1] *= 0.5
    p[n - 1, n - 1] += 0.5
    perm = rng.permutation(n)
    return p[np.ix_(perm, perm)]


def reducible_table(rng, n: int) -> np.ndarray:
    """Two dense recurrent blocks plus transient states leaking into them."""
    sizes = (int(0.4 * n), int(0.4 * n))
    p = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        p[block, block] = dirichlet_table(rng, size, size)
        start += size
    p[:, start:] = dirichlet_table(rng, n, n - start)
    perm = rng.permutation(n)
    return p[np.ix_(perm, perm)]


def periodic_table(rng, n: int, period: int = 3) -> np.ndarray:
    """Block-cyclic table: class k moves only to class k + 1 (period 3)."""
    bounds = np.linspace(0, n, period + 1).astype(int)
    p = np.zeros((n, n))
    for k in range(period):
        src = slice(bounds[k], bounds[k + 1])
        nxt = (k + 1) % period
        dst = slice(bounds[nxt], bounds[nxt + 1])
        p[dst, src] = dirichlet_table(rng, bounds[nxt + 1] - bounds[nxt], bounds[k + 1] - bounds[k])
    perm = rng.permutation(n)
    return p[np.ix_(perm, perm)]


def eps_chain(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, 2.0 * eps], [eps, 1.0 - 2.0 * eps]])


def _solvers_disagree(exc) -> bool:
    return isinstance(exc, ValueError) and "stationary solvers disagree" in str(exc)


def _table_op(p: np.ndarray, family: str, n: int, qc, which: tuple[str, ...]) -> Op:
    """One operation: analyze a table with each function in ``which``, as
    ``qcorr markov --limit`` does. ``ergodic_limit`` refuses non-primitive
    tables with NotPrimitiveError; that refusal is part of the result."""
    truth = orc.markov_structure(p)
    recurrent = [c for c in truth["classes"] if c["recurrent"]]
    block = None if truth["irreducible"] else recurrent[0]["indices"]

    def bd_ok(a):
        if [tuple(c.indices) for c in a.classes] != [c["indices"] for c in truth["classes"]]:
            return "communicating classes differ"
        for c, t in zip(a.classes, truth["classes"]):
            if c.recurrent != t["recurrent"] or c.primitive != t["primitive"]:
                return f"class {c.indices[:4]}... flags differ"
        if len(a.perron_vectors) != len(recurrent):
            return "one Perron vector per recurrent class expected"
        return first_failure(
            *(orc.check_stationary(p, v, c["indices"]) for v, c in zip(a.perron_vectors, recurrent))
        )

    def lim_ok(lim):
        v = np.asarray(lim.perron)
        return first_failure(
            orc.check_stationary(p, v),
            None
            if float(np.max(np.abs(lim.matrix - np.outer(v, np.ones(n))))) <= 1e-12
            else "limit columns differ from the Perron vector",
            None
            if orc.first_power(p, lim.matrix, 1e-10, 200000) == lim.r_converged
            else "r_converged is not the first power meeting the threshold",
        )

    def flag_is(name, want):
        return expect(lambda r: None if r == want else f"{name} {r}, expected {want}")

    if truth["primitive"]:
        limit_check = expect(lim_ok)
    else:
        limit_check = expect_refusal("NotPrimitiveError", "periodic" if truth["irreducible"] else "reducible")
    parts = {
        "block_decompose": (lambda: qc.block_decompose(p), expect(bd_ok)),
        "perron_vector": (
            lambda: qc.perron_vector(p, block),
            expect(lambda v: orc.check_stationary(p, v, block)),
        ),
        "ergodic_limit": (lambda: qc.ergodic_limit(p), limit_check),
        "is_primitive": (lambda: qc.is_primitive(p), flag_is("is_primitive", truth["primitive"])),
        "is_irreducible": (lambda: qc.is_irreducible(p), flag_is("is_irreducible", truth["irreducible"])),
    }

    def call():
        out = []
        for name in which:
            try:
                out.append((parts[name][0](), None))
            except qc.NotPrimitiveError as exc:  # judged against the expected refusal below
                out.append((None, exc))
        return out

    def verify(results):
        for name, (result, exc) in zip(which, results):
            status, reason = parts[name][1](result, exc)
            if status != OK:
                return f"{name}: {reason}"
        return None

    return Op(f"markov/{family}", f"n={n} " + "+".join(which), call, expect(verify))


def _eps_ops(eps: float, qc) -> list[Op]:
    p = eps_chain(eps)
    exact = np.array([2.0 / 3.0, 1.0 / 3.0])

    def verify(v):
        return first_failure(
            orc.check_stationary(p, v),
            None
            if float(np.abs(np.asarray(v) - exact).sum()) <= 1e-10
            else f"stationary vector {list(v)} is not (2/3, 1/3)",
        )

    # the library raises "stationary solvers disagree" on these chains at
    # this commit (ROADMAP item 2); each raise counts as a failed operation
    known = _solvers_disagree if eps <= 1e-4 else None
    ops = [Op("markov/eps", f"eps={eps:g} perron_vector", lambda: qc.perron_vector(p), expect(verify, known))]
    if eps >= 1e-3:
        ops.append(_table_op(p, "eps", 2, qc, ("ergodic_limit",)))
    return ops


# -- small-pipeline ---------------------------------------------------------------

SMALL_DIMS = (2, 3, 4)
SMALL_COPIES = 3
FIXTURE_DIR = Path("src") / "qcorr" / "data" / "fixtures"


def read_fixture(root: Path, name: str) -> dict:
    with open(root / FIXTURE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def decode_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(*x) if isinstance(x, list) else complex(x) for x in row] for row in rows],
        dtype=np.complex128,
    )


def stochastic_table(doc: dict) -> np.ndarray:
    """Column-oriented table of a stochastic document."""
    m = np.real(decode_matrix(doc["data"]))
    if doc.get("convention", {}).get("orientation", "column") == "row":
        m = m.T.copy()
    return m


def _extract_apply_op(rng, d: int, shape: str, qc) -> Op:
    """Criterion-1 shape: extract a sampled map, apply it to 10 states."""
    n = d if shape == "square" else d * d
    povm = rank_one_povm(rng, d, n)
    pointer = haar(rng, n)
    choi = orc.choi_from_map(povm, pointer)
    states = [(density(rng, d_a * d), (d_a, d)) for d_a in (2, 3) * 5]
    commuting = orc.effects_commute(povm)

    def call():
        mm = qc.MeasurementMap(povm, pointer)
        channel = qc.ChoiChannel.from_measurement_map(mm)
        extracted = qc.qc_type_extract(channel)
        cc = qc.cc_type_extract(channel)
        outs = []
        for raw, dims in states:
            out = qc.apply_one_sided(channel, qc.QuantumState(raw, dims), side="B")
            outs.append((out, qc.classical_side_basis(out, side="B")))
        return extracted, cc, outs

    def verify(result):
        extracted, cc, outs = result
        if extracted is None:
            return "qc_type_extract rejected a measure-and-prepare channel"
        reason = orc.check_rebuilds_choi(extracted, choi)
        if reason:
            return reason
        if not orc.bases_match(extracted.pointer_basis, pointer):
            return "extracted pointer basis differs from the sampled one"
        if commuting != (cc is not None):
            return f"cc_type_extract gave {cc is not None}, effects commute: {commuting}"
        if cc is not None:
            reason = orc.check_rebuilds_choi(cc.measurement, choi)
            if reason:
                return reason
        for (raw, dims), (out, structure) in zip(states, outs):
            want = orc.apply_map_on_b(povm, pointer, raw, dims)
            if orc.fro(out.matrix - want) > 1e-9:
                return "apply_one_sided output differs from the direct formula"
            if not structure or structure.witness > 1e-8:
                return "one-sided output not classical on B"
            reason = orc.check_diagonalizes(
                structure.basis, orc.side_family(np.asarray(out.matrix), tuple(out.dims), "B")
            )
            if reason:
                return reason
        return None

    return Op(f"extract-apply/{shape}", f"d={d}", call, expect(verify))


def _broadcast_op(rng, d: int, qc) -> Op:
    """Criterion-5 shape: stationary states in a random basis and the channel basis."""
    povm = rank_one_povm(rng, d, d)
    pointer = haar(rng, d)
    u = haar(rng, d)

    def call():
        mm = qc.MeasurementMap(povm, pointer)
        rotated = qc.broadcastable_states(mm, u)
        spectrum = [
            (s, qc.verify_spectrum_broadcast(mm, copies, s, tol=1e-9))
            for s in rotated.states
            for copies in (2, 3)
        ]
        own = qc.broadcastable_states(mm)
        full = [
            (s, qc.verify_full_broadcast(mm, copies, s, tol=1e-9))
            for s in own.states
            for copies in (2, 3)
        ]
        return rotated, spectrum, own, full

    def family_ok(states, basis):
        table = np.real(np.einsum("ai,jab,bi->ji", np.conj(basis), np.stack(povm), basis))
        recurrent = [c for c in orc.markov_structure(table)["classes"] if c["recurrent"]]
        if len(states) != len(recurrent):
            return f"{len(states)} stationary states for {len(recurrent)} recurrent classes"
        for s in states:
            rotated = np.conj(basis).T @ np.asarray(s.matrix) @ basis
            v = np.real(np.diag(rotated))
            if orc.fro(rotated - np.diag(v)) > 1e-9:
                return "stationary state is not diagonal in its basis"
            reason = orc.check_stationary(table, np.clip(v, 0.0, None))
            if reason:
                return reason
        return None

    def verify(result):
        rotated, spectrum, own, full = result
        reason = first_failure(family_ok(rotated.states, u), family_ok(own.states, pointer))
        if reason:
            return reason
        for s, rep in spectrum:
            rho = np.asarray(s.matrix)
            out = orc.apply_map(povm, pointer, rho)
            gap = 0.5 * float(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).sum())
            if not rep.passed or gap > 1e-9:
                return f"spectrum broadcast failed (recomputed gap {gap:.3e})"
        for s, rep in full:
            rho = np.asarray(s.matrix)
            residual = orc.fro(orc.apply_map(povm, pointer, rho) - rho)
            if not rep.passed or residual > 1e-9:
                return f"full broadcast failed (recomputed residual {residual:.3e})"
            if abs(residual - rep.fixed_point_residual) > 1e-12:
                return "reported fixed-point residual differs from the recomputed one"
        return None

    return Op("broadcast", f"d={d}", call, expect(verify))


def _power_limit_op(rng, d: int, qc) -> Op:
    """Criterion-6 shape: channel powers and the ergodic channel limit."""
    table = dirichlet_table(rng, d, d)
    u = haar(rng, d)
    povm = diagonal_povm(table, u)
    probes = [density(rng, d) for _ in range(2)]
    v = orc.stationary(table)
    fixed = (u * v) @ np.conj(u).T

    def call():
        mm = qc.MeasurementMap(povm, u)
        return qc.ergodic_channel_limit(mm), qc.channel_power(mm, 3)

    def verify(result):
        lim, power = result
        if orc.fro(np.asarray(lim.fixed_state.matrix) - fixed) > 1e-9:
            return "ergodic fixed state differs from the stationary preparation"
        # the library's table differs from `table` only by roundoff in the
        # recomputed overlaps; allow the first-r test that one step of slack
        r = orc.first_power(table, lim.transition_limit, 1e-10, 200000)
        if r is None or abs(r - lim.r_converged) > 1:
            return f"r_converged {lim.r_converged}, recomputed {r}"
        w = np.asarray(power.choi.matrix)
        for a in probes:
            want = a
            for _ in range(3):
                want = orc.apply_map(povm, u, want)
            if orc.fro(orc.apply_choi(w, (d, d), a) - want) > 1e-9:
                return "channel_power(3) differs from three applications"
        return None

    return Op("power-limit", f"d={d}", call, expect(verify))


def _birkhoff_op(rng, d: int, qc) -> Op:
    target = np.abs(haar(rng, d)) ** 2
    return Op(
        "markov.birkhoff_decompose",
        f"|U|^2 d={d}",
        lambda: qc.birkhoff_decompose(target),
        expect(lambda bd: orc.check_birkhoff(bd, target)),
    )


def _local_broadcast_op(rng, root: Path, seed: int, qc) -> Op:
    """Criterion-8 shape on the repaired PA/PB fixture tables."""
    pa = stochastic_table(read_fixture(root, "pa_repaired.json"))
    pb = stochastic_table(read_fixture(root, "pb_repaired.json"))
    eye = np.eye(3, dtype=np.complex128)
    povm_a = diagonal_povm(pa, eye)
    povm_b = diagonal_povm(pb, eye)
    pi = rng.dirichlet(np.ones(4)).reshape(2, 2)

    def stationary_states(p):
        out = []
        for c in orc.markov_structure(p)["classes"]:
            if c["recurrent"]:
                idx = list(c["indices"])
                v = np.zeros(3)
                v[idx] = orc.stationary(p[np.ix_(idx, idx)])
                out.append(np.diag(v))
        return out

    expected = sum(
        pi[m, k] * np.kron(a, b)
        for m, a in enumerate(stationary_states(pa))
        for k, b in enumerate(stationary_states(pb))
    )

    def call():
        mm_a = qc.MeasurementMap(povm_a, eye)
        mm_b = qc.MeasurementMap(povm_b, eye)
        family = qc.correlation_family(
            qc.broadcastable_states(mm_a).states, qc.broadcastable_states(mm_b).states, pi
        )
        local = qc.verify_local_broadcast(mm_a, mm_b, 2, family, mode="full", tol=1e-9)
        corollary = qc.two_channel_cc_corollary_check(
            qc.ChoiChannel.from_measurement_map(mm_a),
            qc.ChoiChannel.from_measurement_map(mm_b),
            samples=5,
            seed=seed,
        )
        return family, local, corollary

    def verify(result):
        family, local, corollary = result
        rho = np.asarray(family.matrix)
        if orc.fro(rho - expected) > 1e-9:
            return "correlation family differs from the stationary mixture"
        r4 = rho.reshape(3, 3, 3, 3)
        q = np.real(np.einsum("abcd,ica,jdb->ij", r4, np.stack(povm_a), np.stack(povm_b)))
        paired = np.diag(q.reshape(-1)).astype(np.complex128)
        residual = orc.fro(paired - rho)
        if not local.passed or residual > 1e-9 or abs(residual - local.fixed_point_residual) > 1e-12:
            return f"local broadcast failed (recomputed residual {residual:.3e})"
        if not (corollary.passed and corollary.all_cc):
            return "two-channel corollary failed"
        return None

    return Op("local-broadcast", "PA/PB repaired", call, expect(verify))


# -- cli-corpus -------------------------------------------------------------------

CLI_SUBCOMMANDS = ("validate", "classify", "markov", "broadcast")
CLASSIFY_LABELS = {
    "cq_witness_state.json": ("label", "QC-only"),
    "nonclosure_input.json": ("label", "neither"),
    "p_plus_d2.json": ("label", "neither"),
    "trine_channel.json": ("channel_type", "QC-type"),
    "vn_d2_channel.json": ("channel_type", "CC-type"),
}
PAPER_CHECK_VERDICTS = {
    "p1-irreducible": "CONFIRMED",
    "p1-perron": "CONTRADICTED",
    "p2-column-stochastic": "CONTRADICTED",
    "pa-reducible": "CONTRADICTED",
    "pb-reducible": "CONTRADICTED",
    "pa-repaired-perron": "REPAIRED",
    "pb-repaired-perron": "REPAIRED",
    "p2-repaired": "REPAIRED",
    "repaired-local-broadcast": "CONFIRMED",
    "cq-counterexample-commutator": "CONFIRMED",
}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


def _cli_check(expected_code: int, verify=None):
    def check(result, exc):
        if exc is not None:
            return RAISED, f"{type(exc).__name__}: {exc}"
        if result.code != expected_code:
            return WRONG, f"exit {result.code}, expected {expected_code}: {result.stderr.strip()[:120]}"
        if expected_code in (2, 3):
            return (OK, "") if not result.stdout else (WRONG, "report printed on refusal")
        try:
            report = json.loads(result.stdout)
        except json.JSONDecodeError as err:
            return WRONG, f"stdout is not a JSON report: {err}"
        if report.get("passed") != (expected_code == 0):
            return WRONG, "report 'passed' disagrees with the exit code"
        reason = verify(report) if verify else None
        return (OK, "") if reason is None else (WRONG, reason)

    return check


def _cli_corpus(root: Path, work: Path, seed: int, rng) -> list[tuple[list[str], Callable]]:
    names = sorted(p.name for p in (root / FIXTURE_DIR).iterdir() if p.suffix == ".json")
    docs = {name: read_fixture(root, name) for name in names}
    corpus = []
    for sub in CLI_SUBCOMMANDS:
        for name in names:
            kind = docs[name]["kind"]
            argv = [sub, f"fixture:{name}"]
            corpus.append((argv, _corpus_expectation(sub, name, kind, docs[name])))
    pi = rng.dirichlet(np.ones(4)).reshape(2, 2)
    pi_path = work / "pi.json"
    pi_path.write_text(json.dumps(pi.tolist()), encoding="utf-8")
    p1 = stochastic_table(docs["p1.json"])
    vn_choi = decode_matrix(docs["vn_d2_channel.json"]["data"])

    def power_limit_ok(report):
        f = report["findings"]
        lim = np.array(f["limit"]["matrix"])
        return first_failure(
            None
            if float(np.max(np.abs(np.array(f["power"]) - np.linalg.matrix_power(p1, 3)))) <= 1e-12
            else "reported P^3 is wrong",
            orc.check_stationary(p1, f["limit"]["perron"]),
            None
            if orc.first_power(p1, lim, 1e-10, 200000) == f["limit"]["r_converged"]
            else "r_converged is not the first power meeting the threshold",
        )

    def two_channel_ok(report):
        f = report["findings"]
        family = decode_matrix(f["family"]["data"])
        want = np.diag(pi.reshape(-1)).astype(np.complex128)
        if f["degeneracy"] != [2, 2] or orc.fro(family - want) > 1e-9:
            return "correlated family differs from sum pi_mn |mn><mn|"
        if f["local_broadcast"]["fixed_point_residual"] > 1e-9 or not f["corollary"]["all_cc"]:
            return "local broadcast or corollary failed"
        return None

    def paper_ok(report):
        got = {c["id"]: c["verdict"] for c in report["findings"]["claims"]}
        return None if got == PAPER_CHECK_VERDICTS else f"verdicts {got}"

    corpus += [
        (["paper-check"], _cli_check(0, paper_ok)),
        (["markov", "fixture:p1.json", "--power", "3", "--limit"], _cli_check(0, power_limit_ok)),
        (
            ["broadcast", "fixture:vn_d2_channel.json", "--copies", "3"],
            _cli_check(0, lambda r: _broadcast_fixed_points(r, vn_choi, 3)),
        ),
        (
            [
                "broadcast",
                "fixture:vn_d2_channel.json",
                "--second-channel",
                "fixture:vn_d2_channel.json",
                "--pi",
                str(pi_path),
                "--seed",
                str(seed % 100000),
            ],
            _cli_check(0, two_channel_ok),
        ),
        (["broadcast", "fixture:vn_d2_channel.json", "--copies", "9"], _cli_check(3)),
    ]
    return corpus


def _broadcast_fixed_points(report, choi: np.ndarray, copies: int) -> str | None:
    f = report["findings"]
    if f["degeneracy"] != 2 or len(f["verifications"]) != 2:
        return "expected two broadcastable states"
    for doc, row in zip(f["broadcastable_states"], f["verifications"]):
        rho = decode_matrix(doc["data"])
        residual = orc.fro(orc.apply_choi(choi, (2, 2), rho) - rho)
        if residual > 1e-9 or row["copies"] != copies or not row["passed"]:
            return f"stationary state is not a fixed point (residual {residual:.3e})"
    return None


def _corpus_expectation(sub: str, name: str, kind: str, doc: dict):
    if sub == "validate":
        code = 1 if name == "p2_printed.json" else 0
        return _cli_check(code, lambda r: None if r["findings"]["kind"] == kind else "wrong kind")
    if sub == "classify":
        if kind not in ("state", "channel"):
            return _cli_check(2)
        key, want = CLASSIFY_LABELS[name]

        def verify(report):
            f = report["findings"]
            if f.get(key) != want:
                return f"{key} {f.get(key)!r}, expected {want!r}"
            if kind == "state":
                rho = decode_matrix(doc["data"])
                dims = tuple(doc["dims"])
                for side, rec in f["sides"].items():
                    family = orc.side_family(rho, dims, side)
                    if rec["classical"]:
                        reason = orc.check_diagonalizes(decode_matrix(rec["basis"]["data"]), family)
                        if reason:
                            return f"side {side}: {reason}"
                    elif orc.noncommuting_certificate(family) < 1e-6:
                        return f"side {side} rejected although its family commutes"
            return None

        return _cli_check(0, verify)
    if sub == "markov":
        if kind == "state" or name == "p2_printed.json":
            return _cli_check(2)
        if kind == "stochastic":
            m = stochastic_table(doc)
            truth = orc.markov_structure(m)

            def verify(report):
                f = report["findings"]
                recurrent = [c for c in truth["classes"] if c["recurrent"]]
                if f["irreducible"] != truth["irreducible"] or f["primitive"] != truth["primitive"]:
                    return "irreducible/primitive flags differ"
                if f["degeneracy"] != len(recurrent) or len(f["perron_vectors"]) != len(recurrent):
                    return "degeneracy differs from the recurrent class count"
                for v, c in zip(f["perron_vectors"], recurrent):
                    reason = orc.check_stationary(m, v, c["indices"])
                    if reason:
                        return reason
                return None

            return _cli_check(0, verify)
        square = name != "trine_channel.json"
        return _cli_check(0, lambda r: None if r["findings"]["square"] == square else "square flag")
    # broadcast: only the square measure-and-prepare channel is accepted
    if name == "vn_d2_channel.json":
        choi = decode_matrix(doc["data"])
        return _cli_check(0, lambda r: _broadcast_fixed_points(r, choi, 2))
    return _cli_check(2)


def run_cli_subprocess(argv: list[str], root: Path, env: dict, work: Path) -> CliResult:
    """Run ``python -m qcorr.cli`` and collect its exit code and peak RSS."""
    out_path = work / "stdout.txt"
    err_path = work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcorr.cli", *argv], cwd=root, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(150.0, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
        maxrss_kb=usage.ru_maxrss,
    )


def run_cli_in_process(argv: list[str], qc) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qc.cli.main(argv)
    return CliResult(code=code, stdout=out.getvalue(), stderr=err.getvalue())


# -- assembly -------------------------------------------------------------------


@dataclass
class Workload:
    """How one workload is timed; why each exists is in the module docstring."""

    name: str
    tail_pct: float  # fixed per workload so runs with more rounds stay comparable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-corpus", tail_pct=70.0),
        Workload("small-pipeline", tail_pct=95.0),
        Workload("classify-large", tail_pct=85.0),
        Workload("markov-tables", tail_pct=92.0),
    )
}


def build_round(name: str, seed: int, qc, root: Path, work: Path, mode: str) -> list[Op]:
    """Generate the inputs for ``seed`` and return one round of operations.

    ``mode`` matters for cli-corpus only: ``subprocess`` runs each command
    cold in a fresh interpreter, ``in-process`` calls ``qcorr.cli.main``.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    if name == "classify-large":
        ops = []
        for d in CLASSIFY_DIMS:
            # as many ops at d = 6 as at d >= 10 put the median inside the
            # d = 8 group, and the tail inside the d = 10 group; several
            # inputs per group keep both groups dense
            for _ in range(CLASSIFY_COPIES[d]):
                ops += _classify_ops(_classify_inputs(rng, d), qc)
        return ops
    if name == "markov-tables":
        ops = []
        for n in MARKOV_SIZES:
            # a dozen tables per family below n = 200 put the median inside
            # the group of n = 50 dense and periodic tables rather than on
            # the edge between two groups; the slow tables run once per round
            for _ in range(1 if n == 200 else MARKOV_COPIES):
                ops.append(_table_op(dirichlet_table(rng, n, n), "dense", n, qc, _markov_kinds("dense", n)))
                ops.append(_table_op(ring_table(rng, n), "ring", n, qc, _markov_kinds("ring", n)))
                ops.append(_table_op(reducible_table(rng, n), "reducible", n, qc, _markov_kinds("reducible", n)))
                ops.append(_table_op(periodic_table(rng, n), "periodic", n, qc, _markov_kinds("periodic", n)))
        ops.append(_table_op(dirichlet_table(rng, 400, 400), "dense", 400, qc, ("block_decompose",)))
        for eps in EPSILONS:
            ops += _eps_ops(eps, qc)
        return ops
    if name == "small-pipeline":
        ops = []
        for d in SMALL_DIMS:
            # several sampled instances per round average out how much a
            # single draw costs, so runs with different seeds stay comparable
            for _ in range(SMALL_COPIES):
                ops += [
                    _extract_apply_op(rng, d, "square", qc),
                    _extract_apply_op(rng, d, "rectangular", qc),
                    _broadcast_op(rng, d, qc),
                    _power_limit_op(rng, d, qc),
                    _birkhoff_op(rng, d, qc),
                ]
        ops.append(_local_broadcast_op(rng, root, seed, qc))
        return ops
    if name == "cli-corpus":
        env = cli_env(root)
        ops = []
        for argv, check in _cli_corpus(root, work, seed, rng):
            if mode == "subprocess":
                call = lambda a=argv: run_cli_subprocess(a, root, env, work)  # noqa: E731
            else:
                call = lambda a=argv: run_cli_in_process(a, qc)  # noqa: E731
            ops.append(Op(f"cli.{argv[0]}", " ".join(argv[1:2]), call, check))
        return ops
    raise KeyError(name)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
