"""Quantum channels in the Choi form, applied by contraction with the Choi tensor.

The Choi state of a channel ``L`` from dimension ``d_in`` to ``d_out`` is
``W = (1 (x) L)(P_+)`` where ``P_+`` is the maximally entangled state on
``d_in (x) d_in``; it is normalized to unit trace and carries the factor
structure ``(d_in, d_out)``. Channel action is recovered entrywise by

    L(A)[x, y] = d_in * sum_ik A[i, k] W[i x, k y]

in the computational basis. Every channel enters as its Choi state, read
from a document or built from a measure-and-prepare map; there is no Kraus
input. Outputs are divided by their trace, which differs from one by at
most the trace-preservation slack a channel is accepted with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import Check, _kron_sum, dagger, frobenius, partial_trace, require
from .measurement import COMPLETENESS_TOL, MeasurementMap
from .states import QuantumState, state_checks

__all__ = [
    "ChoiChannel",
    "apply",
    "apply_one_sided",
    "channel_checks",
    "channel_power",
    "trace_preserving_check",
]


def trace_preserving_check(marginal: np.ndarray) -> Check:
    """``Tr_out W = 1/d_in`` for the input marginal of a trace-one Choi state.

    The bound is ``COMPLETENESS_TOL / sqrt(d_in)``: the marginal equals
    ``(sum_m K_m^dag K_m)^T / d_in``, and the effects extracted from a
    measure-and-prepare Choi state sum to ``d_in`` times its transpose, so
    a channel passes exactly when those sums pass POVM completeness.
    """
    d = marginal.shape[0]
    dev = frobenius(marginal - np.eye(d) / d)
    bound = COMPLETENESS_TOL / np.sqrt(d)
    return Check("trace-preserving", dev, bound, "input-marginal deviation {:.3e}", (dev,))


def channel_checks(matrix: np.ndarray, dims: Sequence[int]) -> list[Check]:
    """Invariants of a trace-one Choi matrix on ``(d_in, d_out)``: the
    ``QuantumState`` checks, then ``trace_preserving_check``."""
    h, checks = state_checks(matrix)
    return checks + [trace_preserving_check(partial_trace(h, dims, keep=(0,)))]


@dataclass(frozen=True)
class ChoiChannel:
    """A channel represented by its trace-one Choi state on ``(d_in, d_out)``."""

    choi: QuantumState

    def __post_init__(self):
        if not isinstance(self.choi, QuantumState):
            raise TypeError("choi must be a QuantumState")
        if self.choi.n_factors != 2:
            raise ValueError("Choi state must be bipartite with dims (d_in, d_out)")
        marginal = partial_trace(self.choi.matrix, self.choi.dims, keep=(0,))
        require([trace_preserving_check(marginal)])

    @property
    def d_in(self) -> int:
        return self.choi.dims[0]

    @property
    def d_out(self) -> int:
        return self.choi.dims[1]

    @classmethod
    def from_measurement_map(cls, mm: MeasurementMap) -> "ChoiChannel":
        return cls(QuantumState._derived(mm.choi_matrix(), (mm.d_in, mm.d_out)))


def _contract(channel: ChoiChannel, mat: np.ndarray, side: str, d_other: int) -> np.ndarray:
    """The channel on one factor of ``mat``: ``out[a x, a' y] = d_in sum_ik rho[a i, a' k]
    W[i x, k y]`` on side B, ``out[x b, y b'] = d_in sum_ik rho[i b, k b'] W[i x, k y]``
    on side A, as one ``_kron_sum`` over ``(i, k)``, O(d_other^2 d_in^2 d_out^2).
    Hermitized and divided by its trace, which absorbs the factor ``d_in``."""
    d_in, d_out = channel.d_in, channel.d_out
    w = channel.choi.matrix.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(-1, d_out, d_out)
    if side == "A":
        r = mat.reshape(d_in, d_other, d_in, d_other).transpose(0, 2, 1, 3)
        out = _kron_sum(w, r.reshape(-1, d_other, d_other))
    else:
        r = mat.reshape(d_other, d_in, d_other, d_in).transpose(1, 3, 0, 2)
        out = _kron_sum(r.reshape(-1, d_other, d_other), w)
    return (out + dagger(out)) / (2.0 * np.trace(out).real)


def apply(channel: ChoiChannel, rho) -> QuantumState:
    """Apply the channel to a state on its input space (a raw density matrix
    is checked as a ``QuantumState`` first)."""
    mat = (rho if isinstance(rho, QuantumState) else QuantumState(rho, channel.d_in)).matrix
    if mat.shape != (channel.d_in, channel.d_in):
        raise ValueError(f"input shape {mat.shape} does not match d_in={channel.d_in}")
    return QuantumState._derived(_contract(channel, mat, "B", 1), (channel.d_out,))


def apply_one_sided(channel: ChoiChannel, rho_ab: QuantumState, side: str = "B") -> QuantumState:
    """Apply the channel to one factor of a bipartite state by one contraction
    with the Choi tensor, O(d_other^2 d_in^2 d_out^2): ``side='B'`` computes
    ``(1 (x) L)(rho)``, ``side='A'`` computes ``(L (x) 1)(rho)``."""
    if not isinstance(rho_ab, QuantumState) or rho_ab.n_factors != 2:
        raise ValueError("expected a bipartite QuantumState")
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    d_a, d_b = rho_ab.dims
    target, d_other = (d_a, d_b) if side == "A" else (d_b, d_a)
    if target != channel.d_in:
        raise ValueError(f"factor {side} has dimension {target}, channel expects {channel.d_in}")
    out_dims = (channel.d_out, d_b) if side == "A" else (d_a, channel.d_out)
    return QuantumState._derived(_contract(channel, rho_ab.matrix, side, d_other), out_dims)


def channel_power(mm: MeasurementMap, r: int) -> ChoiChannel:
    """Choi state of the r-fold composition of a square measure-and-prepare map.

    Composition acts on outcome distributions through the pointer
    transition matrix: the r-th power measures the POVM
    ``F_i = sum_j (P^(r-1))[i, j] E_j`` and prepares the same pointer states.
    """
    r = int(r)
    if r < 1:
        raise ValueError("power must be a positive integer")
    if not mm.is_square:
        raise ValueError("channel powers require d_out == d_in")
    q = np.linalg.matrix_power(mm.pointer_transition(), r - 1)
    effects = tuple(np.tensordot(q, np.stack(mm.povm), axes=1))
    return ChoiChannel.from_measurement_map(MeasurementMap._derived(effects, mm.pointer_basis))
