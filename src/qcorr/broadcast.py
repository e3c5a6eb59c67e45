"""Multi-copy behavior of measure-and-prepare channels.

The N-copy extension of ``L(rho) = sum_i Tr(rho E_i) |e_i><e_i|`` prepares
``|e_i><e_i|^(x N)`` instead of a single pointer state. States diagonal in
a preparation basis with stationary weights of the associated transition
table survive this map in every single-copy reduction; whether they also
equal the reduction exactly (full broadcast) or only in spectrum depends
on the basis being the channel's own pointer basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ChoiChannel, apply_one_sided
from .errors import ChannelTypeError, MemoryCapError
from .linalg import DEFAULT_TOL, _kron_sum, as_cmatrix, frobenius, mixture, require, unit_columns
from .markov import (
    StationaryAnalysis,
    block_decompose,
    ergodic_limit,
    stochastic_checks,
    transition_matrix,
)
from .measurement import MeasurementMap
from .states import QuantumState
from .structure import classify_state, qc_type_extract

__all__ = [
    "BroadcastReport",
    "BroadcastableStates",
    "ErgodicChannelLimit",
    "LocalBroadcastReport",
    "TwoChannelReport",
    "broadcastable_states",
    "correlation_family",
    "ergodic_channel_limit",
    "two_channel_cc_corollary_check",
    "verify_full_broadcast",
    "verify_local_broadcast",
    "verify_spectrum_broadcast",
]

DEFAULT_MEMORY_CAP = 256


def _check_cap(d_out: int, copies: int) -> None:
    """Refuse ``copies`` when ``max(d_out ** copies, copies)`` exceeds
    ``DEFAULT_MEMORY_CAP``.

    For ``d_out >= 2`` the power exceeds the cap from its ``bit_length()``
    factors on, so it is formed only up to there: no big integer is built.
    """
    copies = int(copies)
    if copies < 1:
        raise ValueError("copies must be a positive integer")
    required = max(d_out ** min(copies, DEFAULT_MEMORY_CAP.bit_length()), copies)
    if required > DEFAULT_MEMORY_CAP:
        raise MemoryCapError(
            f"{copies} copies of dimension {d_out} need max({d_out}^{copies}, {copies})"
            f" > cap {DEFAULT_MEMORY_CAP}",
            required=required,
            cap=DEFAULT_MEMORY_CAP,
        )


@dataclass(frozen=True)
class BroadcastableStates:
    """Stationary preparation-diagonal states of a square map in one basis.

    One state per recurrent block of the transition table; every convex
    combination is again stationary, so the family is a simplex of
    dimension ``degeneracy - 1``.
    """

    analysis: StationaryAnalysis
    basis: np.ndarray
    states: tuple[QuantumState, ...]

    @property
    def degeneracy(self) -> int:
        return self.analysis.degeneracy


def _diagonal_state(weights: np.ndarray, basis: np.ndarray) -> QuantumState:
    return QuantumState._derived(mixture(basis, weights), (basis.shape[0],))


def broadcastable_states(mm: MeasurementMap, basis=None) -> BroadcastableStates:
    """Stationary states of a square map, diagonal in the given basis.

    ``basis`` defaults to the channel's pointer basis. The transition table
    ``P[i, j] = <phi_j| E_i |phi_j>`` must be square (one outcome per basis
    vector); each recurrent block contributes the state
    ``sum_j v_j |phi_j><phi_j|`` built from its stationary vector.
    """
    if not mm.is_square:
        raise ValueError("broadcastable states require d_out == d_in")
    if basis is None:
        basis = mm.pointer_basis
    basis = as_cmatrix(basis, name="basis")
    if basis.shape[0] != mm.d_in:
        raise ValueError("basis does not act on the channel input space")
    table = transition_matrix(mm.povm, basis)
    basis = unit_columns(basis)
    if not table.is_square:
        raise ValueError("transition table is not square; outcome count must match basis size")
    analysis = block_decompose(table)
    states = tuple(_diagonal_state(v, basis) for v in analysis.perron_vectors)
    return BroadcastableStates(analysis=analysis, basis=basis, states=states)


@dataclass(frozen=True)
class BroadcastReport:
    """Per-copy reduction distances for one input state.

    Every single-copy reduction of the N-copy output is the one-copy output
    ``reduction``, so ``distances`` repeats one number ``copies`` times.
    """

    mode: str
    copies: int
    state: QuantumState
    reduction: QuantumState
    distances: tuple[float, ...]
    fixed_point_residual: float
    tolerance: float
    passed: bool


def _spectral_distance(a: QuantumState, b: QuantumState) -> float:
    return 0.5 * float(np.abs(a.spectrum() - b.spectrum()).sum())


def _assemble(
    kind, mode: str, copies: int, state: QuantumState, output: QuantumState, tol: float, **extra
):
    """Report of type ``kind`` comparing the single-copy ``output`` with ``state``."""
    residual = frobenius(output.matrix - state.matrix)
    dist = _spectral_distance(output, state) if mode == "spectrum" else residual
    return kind(
        mode=mode,
        copies=int(copies),
        state=state,
        reduction=output,
        distances=(dist,) * int(copies),
        fixed_point_residual=residual,
        tolerance=tol,
        passed=bool(dist <= tol),
        **extra,
    )


def _verify_broadcast(
    mm: MeasurementMap, copies: int, state: QuantumState, mode: str, tol: float
) -> BroadcastReport:
    if not mm.is_square:
        raise ValueError("broadcast verification requires d_out == d_in")
    if state.dim != mm.d_in:
        raise ValueError("state does not live on the channel input space")
    _check_cap(mm.d_out, copies)
    return _assemble(BroadcastReport, mode, copies, state, mm.apply(state), tol)


def verify_spectrum_broadcast(
    mm: MeasurementMap,
    copies: int,
    state: QuantumState,
    tol: float = DEFAULT_TOL,
) -> BroadcastReport:
    """Check that every single-copy reduction matches the input's spectrum."""
    return _verify_broadcast(mm, copies, state, "spectrum", tol)


def verify_full_broadcast(
    mm: MeasurementMap,
    copies: int,
    state: QuantumState,
    tol: float = DEFAULT_TOL,
) -> BroadcastReport:
    """Check that every single-copy reduction equals the input state, which
    then must also be a fixed point of the one-copy map."""
    return _verify_broadcast(mm, copies, state, "full", tol)


@dataclass(frozen=True)
class ErgodicChannelLimit:
    """Constant channel reached by iterating a primitive square map."""

    channel: ChoiChannel
    fixed_state: QuantumState
    transition_limit: np.ndarray
    r_converged: int


def ergodic_channel_limit(mm: MeasurementMap) -> ErgodicChannelLimit:
    """Limit of channel powers when the pointer transition is primitive.

    The limit sends every input to the unique stationary pointer-diagonal
    state; its Choi state is ``(1/d) (x) rho_*``. Raises NotPrimitiveError
    (reason ``"periodic"`` or ``"reducible"``) when no limit exists.
    """
    if not mm.is_square:
        raise ValueError("ergodic limits require d_out == d_in")
    lim = ergodic_limit(mm.pointer_transition())
    fixed = _diagonal_state(lim.perron, mm.pointer_basis)
    d = mm.d_in
    w = np.kron(np.eye(d) / d, fixed.matrix)
    channel = ChoiChannel(QuantumState._derived(w, (d, d)))
    return ErgodicChannelLimit(
        channel=channel,
        fixed_state=fixed,
        transition_limit=lim.matrix,
        r_converged=lim.r_converged,
    )


def correlation_family(
    states_a: Sequence[QuantumState], states_b: Sequence[QuantumState], pi
) -> QuantumState:
    """Mixture ``sum_mn pi[m, n] a_m (x) b_n`` over two stationary families.

    ``pi`` must be a joint probability table with one row per A-state and
    one column per B-state.
    """
    p = np.asarray(pi, dtype=float)
    if p.ndim != 2 or p.shape != (len(states_a), len(states_b)):
        raise ValueError("pi shape must be (len(states_a), len(states_b))")
    require(stochastic_checks(p.reshape(-1, 1)))
    a = np.stack([s.matrix for s in states_a])
    b = np.stack([s.matrix for s in states_b])
    return QuantumState._derived(_kron_sum(a, np.tensordot(p, b, axes=1)), (a.shape[1], b.shape[1]))


@dataclass(frozen=True)
class LocalBroadcastReport(BroadcastReport):
    """Paired-reduction distances for the two-sided N-copy extension:
    ``reduction`` is the paired single-copy output and ``joint_distribution``
    the outcome table ``q_ij`` it is built from."""

    joint_distribution: np.ndarray


def _joint_distribution(
    mm_a: MeasurementMap, mm_b: MeasurementMap, rho_ab: QuantumState
) -> np.ndarray:
    d_a, d_b = rho_ab.dims
    r4 = rho_ab.matrix.reshape(d_a, d_b, d_a, d_b)
    ea = np.stack(mm_a.povm)
    eb = np.stack(mm_b.povm)
    q = np.einsum("abcd,ica,jdb->ij", r4, ea, eb)
    return np.real(q)


def _paired_output(mm_a: MeasurementMap, mm_b: MeasurementMap, q: np.ndarray) -> np.ndarray:
    """``sum_ij q_ij |e_i f_j><e_i f_j|`` over the two pointer bases, with
    ``q`` divided by its sum as ``MeasurementMap.apply`` does."""
    return mixture(np.kron(mm_a.pointer_basis, mm_b.pointer_basis), q.reshape(-1) / q.sum())


def verify_local_broadcast(
    mm_a: MeasurementMap,
    mm_b: MeasurementMap,
    copies: int,
    rho_ab: QuantumState,
    mode: str = "full",
    tol: float = DEFAULT_TOL,
) -> LocalBroadcastReport:
    """Check paired reductions of ``(L_A (x) L_B)^(N copies each)`` against the input.

    Every paired single-copy reduction ``(A_r, B_r)`` of the two-sided
    N-copy output equals ``sum_ij q_ij |e_i f_j><e_i f_j|`` with
    ``q_ij = Tr[rho (E_i (x) F_j)]``; full mode compares it to the input in
    Frobenius distance, spectrum mode compares eigenvalue lists.
    """
    if mode not in ("full", "spectrum"):
        raise ValueError(f"mode must be 'full' or 'spectrum', got {mode!r}")
    if not (mm_a.is_square and mm_b.is_square):
        raise ValueError("local broadcast verification requires square maps")
    if rho_ab.n_factors != 2 or rho_ab.dims != (mm_a.d_in, mm_b.d_in):
        raise ValueError("state dims do not match the channel pair")
    _check_cap(mm_a.d_out, copies)
    _check_cap(mm_b.d_out, copies)
    q = _joint_distribution(mm_a, mm_b, rho_ab)
    paired = QuantumState._derived(_paired_output(mm_a, mm_b, q), (mm_a.d_out, mm_b.d_out))
    return _assemble(LocalBroadcastReport, mode, copies, rho_ab, paired, tol, joint_distribution=q)


@dataclass(frozen=True)
class TwoChannelReport:
    """Outcome of the always-classical check for a product of two maps."""

    samples: int
    max_deviation: float
    all_cc: bool
    tolerance: float
    passed: bool


def two_channel_cc_corollary_check(
    ch_a: ChoiChannel, ch_b: ChoiChannel, samples: int = 50, seed: int = 0
) -> TwoChannelReport:
    """Verify that two one-sided measure-and-prepare maps always produce a
    fully classical joint output.

    For random bipartite inputs the direct two-sided application must match
    ``sum_ij Tr[rho (E_i (x) F_j)] |e_i f_j><e_i f_j|`` within ``DEFAULT_TOL``
    and classify as CC. Raises ChannelTypeError when either channel is not of
    measure-and-prepare type.
    """
    mm_a, mm_b = require_map(ch_a, "channel A"), require_map(ch_b, "channel B")
    return corollary_check(ch_a, mm_a, ch_b, mm_b, samples, seed, DEFAULT_TOL)


def require_map(channel: ChoiChannel, label: str) -> MeasurementMap:
    """Measure-and-prepare map of ``channel``, or ChannelTypeError naming ``label``."""
    mm = qc_type_extract(channel)
    if mm is None:
        raise ChannelTypeError(f"{label} is not of measure-and-prepare type")
    return mm


def corollary_check(
    ch_a, mm_a: MeasurementMap, ch_b, mm_b: MeasurementMap, samples: int, seed: int, tol: float
) -> TwoChannelReport:
    """The two-channel check on channels with their extracted maps, held to ``tol``."""
    from .sampling import random_state
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    all_cc = True
    for _ in range(int(samples)):
        rho = random_state((mm_a.d_in, mm_b.d_in), rng)
        half = apply_one_sided(ch_a, rho, side="A")
        direct = apply_one_sided(ch_b, half, side="B")
        built = _paired_output(mm_a, mm_b, _joint_distribution(mm_a, mm_b, rho))
        max_dev = max(max_dev, frobenius(direct.matrix - built))
        if classify_state(direct) != "CC":
            all_cc = False
    passed = all_cc and max_dev <= tol
    return TwoChannelReport(
        samples=int(samples),
        max_deviation=max_dev,
        all_cc=all_cc,
        tolerance=tol,
        passed=bool(passed),
    )
