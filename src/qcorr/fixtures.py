"""Built-in fixture corpus.

Transition matrices, states, and channels shipped with the package, together
with the recorded claim values the ``paper-check`` command re-derives. Some
matrices are labeled "as-printed": they are kept verbatim even where they
fail the properties recorded for them (the claims engine reports each
discrepancy). Each repaired variant is the minimal completion documented in
its note.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .channels import ChoiChannel
from .linalg import _block_mixture
from .measurement import MeasurementMap
from .states import QuantumState

__all__ = [
    "P1",
    "P1_PERRON_DERIVED",
    "P1_PERRON_RECORDED",
    "P2_PERRON_RECORDED",
    "P2_PRINTED",
    "P2_REPAIRED",
    "PA_PERRONS_RECORDED",
    "PA_PRINTED",
    "PA_REPAIRED",
    "PB_PERRONS_RECORDED",
    "PB_PRINTED",
    "PB_REPAIRED",
    "CQ_RESIDUAL_COMMUTATOR",
    "NONCLOSURE_WITNESS",
    "block_direct_sum",
    "cq_residual_states",
    "cq_witness_state",
    "fixture_names",
    "fixture_path",
    "fourier_basis",
    "measurement_from_stochastic",
    "nonclosure_channel",
    "nonclosure_input",
    "p1_p2_block",
    "stochastic_channel",
    "trine_map",
    "trine_povm",
    "von_neumann_map",
]

# Column-stochastic 3x3; its unique stationary vector is derived below and
# disagrees with the recorded one in the ordering of the last two entries.
P1 = np.array(
    [
        [0.0, 0.5, 0.5],
        [0.5, 0.5, 0.5],
        [0.5, 0.0, 0.0],
    ]
)
P1_PERRON_RECORDED = (1.0 / 3.0, 1.0 / 6.0, 1.0 / 2.0)
P1_PERRON_DERIVED = (1.0 / 3.0, 1.0 / 2.0, 1.0 / 6.0)

# As-printed: recorded as bistochastic, but the third column sums to 9/8.
P2_PRINTED = np.array(
    [
        [1.0 / 8.0, 3.0 / 8.0, 1.0 / 2.0],
        [3.0 / 8.0, 0.0, 5.0 / 8.0],
        [1.0 / 2.0, 5.0 / 8.0, 0.0],
    ]
)
# Minimal doubly stochastic completion keeping the first row and column.
P2_REPAIRED = np.array(
    [
        [1.0 / 8.0, 3.0 / 8.0, 1.0 / 2.0],
        [3.0 / 8.0, 1.0 / 8.0, 1.0 / 2.0],
        [1.0 / 2.0, 1.0 / 2.0, 0.0],
    ]
)
P2_PERRON_RECORDED = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# As-printed: recorded as reducible, but the support digraph is strongly
# connected. The repaired variants realize the recorded stationary vectors.
PA_PRINTED = np.array(
    [
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
        [1.0, 0.0, 0.0],
    ]
)
PA_REPAIRED = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
    ]
)
PA_PERRONS_RECORDED = ((0.0, 0.5, 0.5), (1.0, 0.0, 0.0))

PB_PRINTED = np.array(
    [
        [2.0 / 3.0, 0.0, 1.0 / 3.0],
        [1.0 / 3.0, 0.0, 2.0 / 3.0],
        [0.0, 1.0, 0.0],
    ]
)
PB_REPAIRED = np.array(
    [
        [0.5, 0.0, 0.5],
        [0.0, 1.0, 0.0],
        [0.5, 0.0, 0.5],
    ]
)
PB_PERRONS_RECORDED = ((0.5, 0.0, 0.5), (0.0, 1.0, 0.0))

# Frobenius norm of the commutator of the recorded residual pair below.
CQ_RESIDUAL_COMMUTATOR = np.sqrt(2.0) / 4.0

# Frozen output of the detection oracle on nonclosure_input() against the
# P2_REPAIRED channel: max pairwise commutator norm of the steered
# residuals, cross-checked against direct C (V* E_j V)^T C arithmetic.
NONCLOSURE_WITNESS = 0.13994418530256988


def block_direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """Direct sum of square matrices along the diagonal."""
    sizes = [b.shape[0] for b in blocks]
    total = sum(sizes)
    out = np.zeros((total, total), dtype=np.result_type(*blocks))
    offset = 0
    for b, size in zip(blocks, sizes):
        if b.shape != (size, size):
            raise ValueError("direct sum requires square blocks")
        out[offset : offset + size, offset : offset + size] = b
        offset += size
    return out


def p1_p2_block() -> np.ndarray:
    """The 6x6 direct sum of P1 and the repaired P2."""
    return block_direct_sum(P1, P2_REPAIRED)


def von_neumann_map(d: int) -> MeasurementMap:
    """Projective measurement in the computational basis of dimension d."""
    eye = np.eye(d, dtype=np.complex128)
    povm = [np.outer(eye[:, i], eye[:, i]) for i in range(d)]
    return MeasurementMap(povm, eye)


def trine_povm() -> list[np.ndarray]:
    """Three rank-1 qubit effects (2/3)|psi_k><psi_k| at 120-degree spacing."""
    effects = []
    for k in range(3):
        angle = 2.0 * np.pi * k / 3.0
        ket = np.array([np.cos(angle / 2.0), np.sin(angle / 2.0)], dtype=np.complex128)
        effects.append((2.0 / 3.0) * np.outer(ket, np.conj(ket)))
    return effects


def trine_map() -> MeasurementMap:
    """Trine POVM written into a three-dimensional register."""
    return MeasurementMap(trine_povm(), np.eye(3, dtype=np.complex128))


def measurement_from_stochastic(p: np.ndarray, basis=None) -> MeasurementMap:
    """Measurement map whose pointer transition equals the given table."""
    return MeasurementMap.from_stochastic(p, eigenbasis=basis)


def stochastic_channel(p: np.ndarray, basis=None) -> ChoiChannel:
    return ChoiChannel.from_measurement_map(measurement_from_stochastic(p, basis))


def cq_residual_states() -> tuple[QuantumState, QuantumState]:
    """The recorded non-commuting qubit residual pair.

    rho_0 = (|+><+| + |0><0|)/2 and rho_1 = |1><1|; their commutator norm is
    sqrt(2)/4, which rules out classicality on the steered side.
    """
    plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    rho0 = 0.5 * (np.outer(plus, np.conj(plus)) + np.diag([1.0, 0.0]))
    rho1 = np.diag([0.0, 1.0]).astype(np.complex128)
    return QuantumState(rho0, (2,)), QuantumState(rho1, (2,))


def cq_witness_state() -> QuantumState:
    """Two-qubit state (1/2) sum_i rho_i (x) |i><i| from the residual pair.

    Classical on side B by construction; the non-commuting A-side residuals
    make it QC-only.
    """
    rho0, rho1 = cq_residual_states()
    return QuantumState(_block_mixture([0.5 * rho0.matrix, 0.5 * rho1.matrix], np.eye(2)), (2, 2))


def fourier_basis(d: int) -> np.ndarray:
    """Unitary with columns V|j>[a] = exp(2 pi i a j / d)/sqrt(d)."""
    a = np.arange(d)
    return np.exp(2j * np.pi * np.outer(a, a) / d) / np.sqrt(d)


def nonclosure_input() -> QuantumState:
    """Rank-one 3x3-bipartite input steering non-commuting residuals.

    psi = sum_j c_j |j> (x) V|j> with c = (sqrt(.5), sqrt(.3), sqrt(.2)) and V
    the Fourier unitary; against the P2_REPAIRED channel the steered residuals
    fail to commute, so the (always QC) output is not CC.
    """
    c = np.sqrt(np.array([0.5, 0.3, 0.2]))
    v = fourier_basis(3)
    psi = np.zeros(9, dtype=np.complex128)
    eye = np.eye(3)
    for j in range(3):
        psi += c[j] * np.kron(eye[:, j], v[:, j])
    return QuantumState.from_vector(psi, (3, 3))


def nonclosure_channel() -> ChoiChannel:
    """CC-type channel with overlapping effects, built from P2_REPAIRED."""
    return stochastic_channel(P2_REPAIRED)


_FIXTURE_PACKAGE = "qcorr.data.fixtures"


def fixture_names() -> list[str]:
    """Names of the bundled manifest documents."""
    root = resources.files(_FIXTURE_PACKAGE)
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled manifest document."""
    path = resources.files(_FIXTURE_PACKAGE) / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return str(path)
