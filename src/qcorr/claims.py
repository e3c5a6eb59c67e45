"""Re-derivation of the recorded claims bundled with the fixture corpus.

Each claim pairs a recorded statement about a fixture with an expected
verdict and a judge that recomputes, from scratch, whether the statement
holds and what it measured. One rule gives every verdict: CONTRADICTED
when the statement fails, otherwise REPAIRED for a claim about a repaired
fixture (the claims expected REPAIRED) and CONFIRMED for the rest. The
``paper-check`` command reports mismatches against the expectations, so a
regression in any underlying engine shows up here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .broadcast import broadcastable_states, correlation_family, verify_local_broadcast
from .linalg import commutator_norm
from .markov import _recorded_matches, block_decompose, is_irreducible, stochastic_checks
from .structure import classify_state

__all__ = ["ClaimResult", "run_claims"]

CONFIRMED = "CONFIRMED"
CONTRADICTED = "CONTRADICTED"
REPAIRED = "REPAIRED"
COMMUTATOR_MATCH_TOL = 1e-10  # recorded vs derived commutator norm


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    expected: str
    verdict: str
    detail: str

    @property
    def matches(self) -> bool:
        return self.verdict == self.expected


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{x:.6g}" for x in v) + ")"


def _strongly_connected(matrix) -> tuple[bool, str]:
    ok = is_irreducible(matrix)
    return ok, "support digraph strongly connected" if ok else "support digraph not strongly connected"


def _reducible(matrix) -> tuple[bool, str]:
    irreducible = is_irreducible(matrix)
    return not irreducible, "matrix is irreducible" if irreducible else "matrix is reducible"


def _column_stochastic(matrix) -> tuple[bool, str]:
    column_sums = stochastic_checks(matrix)[1]
    return column_sums.passed, column_sums.detail


def _realizes(analysis, recorded) -> bool:
    """Whether ``recorded`` lists the Perron vectors of ``analysis``, one per
    recurrent block, in any order."""
    matches = _recorded_matches(recorded, analysis.perron_vectors)
    return None not in matches and sorted(matches) == list(range(analysis.degeneracy))


def _perrons(matrix, recorded) -> tuple[bool, str]:
    analysis = block_decompose(matrix)
    return _realizes(analysis, recorded), "derived " + "; ".join(_fmt_vec(v) for v in analysis.perron_vectors)


def _p1_perron() -> tuple[bool, str]:
    analysis = block_decompose(fixtures.P1)
    recorded = fixtures.P1_PERRON_RECORDED
    return (
        _realizes(analysis, [recorded]),
        f"derived {_fmt_vec(analysis.perron_vectors[0])}; recorded {_fmt_vec(recorded)}",
    )


def _p2_repaired() -> tuple[bool, str]:
    p = fixtures.P2_REPAIRED
    doubly = stochastic_checks(p)[1].passed and stochastic_checks(p.T)[1].passed
    analysis = block_decompose(p)
    irreducible = analysis.irreducible
    ok = doubly and irreducible and _realizes(analysis, [fixtures.P2_PERRON_RECORDED])
    return ok, f"doubly={doubly} irreducible={irreducible} perron={_fmt_vec(analysis.perron_vectors[0])}"


def _local_broadcast() -> tuple[bool, str]:
    pi = np.diag([0.5, 0.5])
    # Single 6-level channel: direct sum of P1 and repaired P2.
    mm6 = fixtures.measurement_from_stochastic(fixtures.p1_p2_block())
    bs6 = broadcastable_states(mm6)
    fam6 = correlation_family(bs6.states, bs6.states, pi)
    rep6 = verify_local_broadcast(mm6, mm6, 2, fam6, mode="full")
    # Two different channels built from the repaired block-diagonal tables.
    mm_a = fixtures.measurement_from_stochastic(fixtures.PA_REPAIRED)
    mm_b = fixtures.measurement_from_stochastic(fixtures.PB_REPAIRED)
    fam2 = correlation_family(
        broadcastable_states(mm_a).states, broadcastable_states(mm_b).states, pi
    )
    rep2 = verify_local_broadcast(mm_a, mm_b, 2, fam2, mode="full")
    ok = rep6.passed and rep2.passed and bs6.degeneracy == 2
    return ok, (
        f"single-channel distance {max(rep6.distances):.3e}; "
        f"two-channel distance {max(rep2.distances):.3e}"
    )


def _cq_commutator() -> tuple[bool, str]:
    rho0, rho1 = fixtures.cq_residual_states()
    norm = commutator_norm(rho0.matrix, rho1.matrix)
    label = classify_state(fixtures.cq_witness_state())
    ok = abs(norm - fixtures.CQ_RESIDUAL_COMMUTATOR) <= COMMUTATOR_MATCH_TOL and label == "QC-only"
    return ok, f"commutator norm {norm:.12g}; classification {label}"


def run_claims() -> list[ClaimResult]:
    """Recompute all verdicts, in the fixed claim order."""
    claims = [
        ("p1-irreducible", "P1 is irreducible", CONFIRMED, lambda: _strongly_connected(fixtures.P1)),
        (
            "p1-perron",
            f"stationary vector of P1 is {_fmt_vec(fixtures.P1_PERRON_RECORDED)}",
            CONTRADICTED,
            _p1_perron,
        ),
        (
            "p2-column-stochastic",
            "P2 as printed is a (bi)stochastic matrix",
            CONTRADICTED,
            lambda: _column_stochastic(fixtures.P2_PRINTED),
        ),
        ("pa-reducible", "PA as printed is reducible", CONTRADICTED, lambda: _reducible(fixtures.PA_PRINTED)),
        ("pb-reducible", "PB as printed is reducible", CONTRADICTED, lambda: _reducible(fixtures.PB_PRINTED)),
        (
            "pa-repaired-perron",
            "repaired PA realizes the recorded stationary vectors",
            REPAIRED,
            lambda: _perrons(fixtures.PA_REPAIRED, fixtures.PA_PERRONS_RECORDED),
        ),
        (
            "pb-repaired-perron",
            "repaired PB realizes the recorded stationary vectors",
            REPAIRED,
            lambda: _perrons(fixtures.PB_REPAIRED, fixtures.PB_PERRONS_RECORDED),
        ),
        (
            "p2-repaired",
            "repaired P2 is doubly stochastic and irreducible with uniform stationary vector",
            REPAIRED,
            _p2_repaired,
        ),
        (
            "repaired-local-broadcast",
            "correlation families on the repaired fixtures admit full local broadcasting",
            CONFIRMED,
            _local_broadcast,
        ),
        (
            "cq-counterexample-commutator",
            "the recorded residual pair has commutator norm sqrt(2)/4 and the state is QC-only",
            CONFIRMED,
            _cq_commutator,
        ),
    ]
    results = []
    for claim_id, statement, expected, judge in claims:
        holds, detail = judge()
        verdict = CONTRADICTED if not holds else REPAIRED if expected == REPAIRED else CONFIRMED
        results.append(ClaimResult(claim_id, statement, expected, verdict, detail))
    return results
