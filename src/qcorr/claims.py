"""Re-derivation of the recorded claims bundled with the fixture corpus.

Each claim pairs a recorded statement about a fixture with an expected
verdict: CONFIRMED when the statement holds as recorded, CONTRADICTED when
it fails as recorded, REPAIRED when it fails as recorded but holds on the
documented repaired fixture. ``run_claims`` recomputes every verdict from
scratch; the ``paper-check`` command reports mismatches against the
expectations, so a regression in any underlying engine shows up here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .broadcast import broadcastable_states, correlation_family, verify_local_broadcast
from .linalg import RECORDED_TOL, commutator_norm
from .markov import StochasticMatrix, block_decompose, is_irreducible, stochastic_checks
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


def _claim_p1_irreducible() -> ClaimResult:
    ok = is_irreducible(StochasticMatrix(fixtures.P1))
    return ClaimResult(
        claim_id="p1-irreducible",
        statement="P1 is irreducible",
        expected=CONFIRMED,
        verdict=CONFIRMED if ok else CONTRADICTED,
        detail="support digraph strongly connected" if ok else "support digraph not strongly connected",
    )


def _claim_p1_perron() -> ClaimResult:
    analysis = block_decompose(StochasticMatrix(fixtures.P1))
    derived = analysis.perron_vectors[0]
    recorded = np.array(fixtures.P1_PERRON_RECORDED)
    ok = float(np.max(np.abs(derived - recorded))) <= RECORDED_TOL
    return ClaimResult(
        claim_id="p1-perron",
        statement=f"stationary vector of P1 is {_fmt_vec(recorded)}",
        expected=CONTRADICTED,
        verdict=CONFIRMED if ok else CONTRADICTED,
        detail=f"derived {_fmt_vec(derived)}; recorded {_fmt_vec(recorded)}",
    )


def _claim_p2_stochastic() -> ClaimResult:
    column_sums = stochastic_checks(fixtures.P2_PRINTED)[1]
    return ClaimResult(
        claim_id="p2-column-stochastic",
        statement="P2 as printed is a (bi)stochastic matrix",
        expected=CONTRADICTED,
        verdict=CONFIRMED if column_sums.passed else CONTRADICTED,
        detail=column_sums.detail,
    )


def _claim_reducible(claim_id: str, statement: str, printed: np.ndarray) -> ClaimResult:
    irreducible = is_irreducible(StochasticMatrix(printed))
    return ClaimResult(
        claim_id=claim_id,
        statement=statement,
        expected=CONTRADICTED,
        verdict=CONTRADICTED if irreducible else CONFIRMED,
        detail="matrix is irreducible" if irreducible else "matrix is reducible",
    )


def _perron_set_matches(matrix: np.ndarray, recorded: tuple) -> tuple[bool, str]:
    analysis = block_decompose(StochasticMatrix(matrix))
    derived = [np.asarray(v) for v in analysis.perron_vectors]
    remaining = list(derived)
    for target in recorded:
        t = np.array(target)
        hit = next(
            (i for i, v in enumerate(remaining) if float(np.max(np.abs(v - t))) <= RECORDED_TOL), None
        )
        if hit is None:
            return False, "derived " + "; ".join(_fmt_vec(v) for v in derived)
        remaining.pop(hit)
    ok = not remaining
    return ok, "derived " + "; ".join(_fmt_vec(v) for v in derived)


def _claim_repaired_perrons(claim_id: str, statement: str, repaired, recorded) -> ClaimResult:
    ok, detail = _perron_set_matches(repaired, recorded)
    return ClaimResult(
        claim_id=claim_id,
        statement=statement,
        expected=REPAIRED,
        verdict=REPAIRED if ok else CONTRADICTED,
        detail=detail,
    )


def _claim_p2_repaired() -> ClaimResult:
    p = fixtures.P2_REPAIRED
    doubly = stochastic_checks(p)[1].passed and stochastic_checks(p.T)[1].passed
    analysis = block_decompose(StochasticMatrix(p))
    irreducible = analysis.irreducible
    perron = analysis.perron_vectors[0]
    uniform = float(np.max(np.abs(perron - np.array(fixtures.P2_PERRON_RECORDED)))) <= RECORDED_TOL
    ok = doubly and irreducible and uniform
    return ClaimResult(
        claim_id="p2-repaired",
        statement="repaired P2 is doubly stochastic and irreducible with uniform stationary vector",
        expected=REPAIRED,
        verdict=REPAIRED if ok else CONTRADICTED,
        detail=f"doubly={doubly} irreducible={irreducible} perron={_fmt_vec(perron)}",
    )


def _claim_local_broadcast() -> ClaimResult:
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
    return ClaimResult(
        claim_id="repaired-local-broadcast",
        statement="correlation families on the repaired fixtures admit full local broadcasting",
        expected=CONFIRMED,
        verdict=CONFIRMED if ok else CONTRADICTED,
        detail=(
            f"single-channel distance {max(rep6.distances):.3e}; "
            f"two-channel distance {max(rep2.distances):.3e}"
        ),
    )


def _claim_cq_commutator() -> ClaimResult:
    rho0, rho1 = fixtures.cq_residual_states()
    norm = commutator_norm(rho0.matrix, rho1.matrix)
    target = fixtures.CQ_RESIDUAL_COMMUTATOR
    label = classify_state(fixtures.cq_witness_state())
    ok = abs(norm - target) <= COMMUTATOR_MATCH_TOL and label == "QC-only"
    return ClaimResult(
        claim_id="cq-counterexample-commutator",
        statement="the recorded residual pair has commutator norm sqrt(2)/4 and the state is QC-only",
        expected=CONFIRMED,
        verdict=CONFIRMED if ok else CONTRADICTED,
        detail=f"commutator norm {norm:.12g}; classification {label}",
    )


def run_claims() -> list[ClaimResult]:
    """Recompute all verdicts, in the fixed claim order."""
    return [
        _claim_p1_irreducible(),
        _claim_p1_perron(),
        _claim_p2_stochastic(),
        _claim_reducible("pa-reducible", "PA as printed is reducible", fixtures.PA_PRINTED),
        _claim_reducible("pb-reducible", "PB as printed is reducible", fixtures.PB_PRINTED),
        _claim_repaired_perrons(
            "pa-repaired-perron",
            "repaired PA realizes the recorded stationary vectors",
            fixtures.PA_REPAIRED,
            fixtures.PA_PERRONS_RECORDED,
        ),
        _claim_repaired_perrons(
            "pb-repaired-perron",
            "repaired PB realizes the recorded stationary vectors",
            fixtures.PB_REPAIRED,
            fixtures.PB_PERRONS_RECORDED,
        ),
        _claim_p2_repaired(),
        _claim_local_broadcast(),
        _claim_cq_commutator(),
    ]

