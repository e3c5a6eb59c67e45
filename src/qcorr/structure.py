"""Correlation structure of bipartite states and of channels via their Choi
states: one-sided classicality, measure-and-prepare extraction, commuting
(fully classical) channel data, and membership of the CC set.

A state is *classical on side B* when it can be written
``sum_k p_k sigma_k (x) |u_k><u_k|`` for an orthonormal basis ``{u_k}``;
equivalently, the operator family ``{<m|_A rho |n>_A}`` obtained by
sandwiching the *other* side with computational bras has a common
eigenbasis. Classicality on A is the mirror statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .channels import ChoiChannel
from .linalg import (
    DEFAULT_TOL,
    ZERO_TOL,
    as_cmatrix,
    max_commutator_norm,
    simultaneous_diagonalize,
)
from .markov import StochasticMatrix, transition_matrix
from .measurement import MeasurementMap
from .states import QuantumState

__all__ = [
    "CCChannelData",
    "CcMembership",
    "ClassicalStructure",
    "MultipartiteReport",
    "cc_from_measurement",
    "cc_type_extract",
    "classical_side_basis",
    "classify_state",
    "correlation_label",
    "in_cc_set",
    "multipartite_qc_check",
    "qc_type_extract",
    "schmidt_ranks",
]

SCHMIDT_TOL = 1e-10  # singular values above it count toward a Schmidt rank


@dataclass(frozen=True)
class ClassicalStructure:
    """Outcome of a one-sided classicality test.

    On success ``basis`` holds the pointer basis of the tested side and
    ``probabilities``/``blocks`` give the ensemble on the other side, with
    ``None`` marking zero-probability blocks; on a refusal all three are
    None. The ensemble is built on the first read of either, by one call of
    ``ensemble`` returning ``(probabilities, blocks)``, and at most once, so
    a caller that reads only the verdict, the basis or the witness never
    builds it. ``witness`` is the
    witness of the side family's ``SimultaneousDiagonalization``.
    """

    side: str
    basis: np.ndarray | None
    witness: float
    ensemble: Callable[[], tuple] = field(repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.basis is not None

    @cached_property
    def _built(self) -> tuple:
        return self.ensemble()

    @property
    def probabilities(self) -> np.ndarray | None:
        return self._built[0]

    @property
    def blocks(self) -> tuple[QuantumState | None, ...] | None:
        return self._built[1]


def _block_family(rho: QuantumState, side: str) -> tuple[np.ndarray, int, int]:
    if rho.n_factors != 2:
        raise ValueError("classicality tests need a bipartite state")
    side = side.upper()
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    d_a, d_b = rho.dims
    r4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        # operators on B, indexed by bras/kets on A
        family = r4.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b, d_b)
        return family, d_b, d_a
    family = r4.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a, d_a)
    return family, d_a, d_b


def _conditional_states(blocks, probs, d: int) -> tuple[QuantumState | None, ...]:
    """Normalized blocks ``M_k / p_k``, None where ``p_k`` vanishes."""
    return tuple(
        QuantumState._derived(m / p, (d,)) if p > ZERO_TOL else None for m, p in zip(blocks, probs)
    )


def classical_side_basis(
    rho: QuantumState, side: str = "B", tol: float | None = None
) -> ClassicalStructure:
    """Test whether ``rho`` is classical on one side and extract the ensemble.

    Returns the pointer basis on the tested side together with the block
    decomposition ``(p_k, sigma_k)`` on the other side, built when first
    read, and the witness of ``simultaneous_diagonalize`` on the side
    family (see ``SimultaneousDiagonalization``).
    """
    family, _, d_other = _block_family(rho, side)
    result = simultaneous_diagonalize(family, tol=tol)
    u = result.basis

    def ensemble():
        return (None, None) if u is None else _ensemble(family, u, d_other)

    return ClassicalStructure(side.upper(), u, result.witness, ensemble)


def _ensemble(family: np.ndarray, u: np.ndarray, d_other: int):
    """Probabilities ``p_k`` and conditional states on the other side of a
    side family diagonalized by ``u``."""
    # block k on the other side: M_k[m, n] = <u_k| D_(m,n) |u_k>
    grid = family.reshape(d_other, d_other, *u.shape)
    blocks_raw = np.einsum("mnbc,bk,ck->kmn", grid, np.conj(u), u)
    probs = np.real(np.einsum("kmm->k", blocks_raw))
    return probs, _conditional_states(blocks_raw, probs, d_other)


def correlation_label(on_a: ClassicalStructure | bool, on_b: ClassicalStructure | bool) -> str:
    """Correlation class from the two one-sided tests (or verdicts) of one state.

    Returns one of ``"CC"`` (classical on both sides), ``"QC-only"``
    (classical on B only), ``"CQ-only"`` (classical on A only), or
    ``"neither"``.
    """
    if on_a and on_b:
        return "CC"
    if on_b:
        return "QC-only"
    if on_a:
        return "CQ-only"
    return "neither"


def classify_state(rho: QuantumState, tol: float | None = None) -> str:
    """``correlation_label`` of both one-sided verdicts of a bipartite
    state, those of ``classical_side_basis`` read without their witness."""
    families = (_block_family(rho, side)[0] for side in "AB")
    on_a, on_b = (simultaneous_diagonalize(f, tol).basis is not None for f in families)
    return correlation_label(on_a, on_b)


def qc_type_extract(channel: ChoiChannel, tol: float | None = None) -> MeasurementMap | None:
    """Recover the measure-and-prepare form of a channel, if it has one.

    A channel is of measure-and-prepare type exactly when its Choi state is
    classical on the output side; the pointer basis becomes the prepared
    basis and the effects are ``E_k = d_in * M_k^T`` from the Choi blocks.
    Returns None when the Choi state is not classical on B, the verdict of
    ``classical_side_basis`` read without its witness (see
    ``SimultaneousDiagonalization``).
    """
    family, _, d_in = _block_family(channel.choi, "B")
    u = simultaneous_diagonalize(family, tol).basis
    if u is None:
        return None
    effects = []
    for p_k, sigma in zip(*_ensemble(family, u, d_in)):
        if sigma is None:
            effects.append(np.zeros((d_in, d_in), dtype=np.complex128))
        else:
            block = p_k * sigma.matrix
            effects.append(d_in * block.T)
    return MeasurementMap._derived(effects, u)


@dataclass(frozen=True)
class CCChannelData:
    """Fully classical channel: commuting effects over a shared eigenbasis.

    ``eigenbasis`` columns diagonalize every effect; ``transition`` is the
    column-stochastic table ``P[j, i] = <v_i| E_j |v_i>`` (outcome ``j``
    given preparation ``v_i``); ``joint_probs[i, j] = P[j, i] / d`` is the
    associated joint distribution, whose rows each sum to ``1/d``.
    """

    measurement: MeasurementMap
    eigenbasis: np.ndarray
    transition: StochasticMatrix
    joint_probs: np.ndarray

    def __post_init__(self):
        d = self.measurement.d_in
        n = self.measurement.n_outcomes
        if self.eigenbasis.shape != (d, d):
            raise ValueError("eigenbasis shape does not match the input dimension")
        if self.transition.matrix.shape != (n, d):
            raise ValueError("transition shape does not match outcomes by dimension")
        if self.joint_probs.shape != (d, n):
            raise ValueError("joint probability shape must be dimension by outcomes")


def cc_type_extract(channel: ChoiChannel, tol: float | None = None) -> CCChannelData | None:
    """Recover commuting-channel data, or None when the channel is not CC.

    Requires the Choi state to be classical on both sides; equivalently the
    extracted effects must commute pairwise so a shared eigenbasis exists.
    """
    mm = qc_type_extract(channel, tol)
    return None if mm is None else cc_from_measurement(mm, tol)


def cc_from_measurement(mm: MeasurementMap, tol: float | None = None) -> CCChannelData | None:
    """Commuting-channel data of an extracted measure-and-prepare map, or
    None when its effects share no eigenbasis: the basis of
    ``simultaneous_diagonalize`` under ``tol``, read without its witness
    (see ``SimultaneousDiagonalization``)."""
    basis = simultaneous_diagonalize(np.stack(mm.povm), tol).basis
    if basis is None:
        return None
    table = transition_matrix(mm.povm, basis)
    return CCChannelData(
        measurement=mm,
        eigenbasis=basis,
        transition=table,
        joint_probs=table.matrix.T / mm.d_in,
    )


def _residual_states(mm: MeasurementMap, rho_ab: QuantumState) -> tuple[QuantumState | None, ...]:
    """Residuals on A steered by measuring B: the blocks
    ``Tr_B[rho (1 (x) E_k)]`` divided by their traces, None where the trace
    vanishes. With the pointer states they make up the output
    ``(1 (x) L)(rho) = sum_k Tr_B[rho (1 (x) E_k)] (x) |e_k><e_k|``."""
    if rho_ab.n_factors != 2:
        raise ValueError("expected a bipartite state")
    d_a, d_b = rho_ab.dims
    if d_b != mm.d_in:
        raise ValueError(f"factor B has dimension {d_b}, the map expects {mm.d_in}")
    r4 = rho_ab.matrix.reshape(d_a, d_b, d_a, d_b)
    raw = np.einsum("mbnc,kcb->kmn", r4, np.stack(mm.povm))
    raw = (raw + np.conj(raw).transpose(0, 2, 1)) / 2.0
    return _conditional_states(raw, np.real(np.einsum("kmm->k", raw)), d_a)


@dataclass(frozen=True)
class CcMembership:
    """Whether a state's steered residuals pairwise commute, with witness."""

    member: bool
    witness: float

    def __bool__(self) -> bool:
        return self.member


def in_cc_set(mm: MeasurementMap, rho_ab: QuantumState, tol: float | None = None) -> CcMembership:
    """Membership of ``rho_ab`` in the set of states whose output under
    ``1 (x) L`` is fully classical: all normalized residuals must commute."""
    if tol is None:
        tol = DEFAULT_TOL
    states = _residual_states(mm, rho_ab)
    witness = max_commutator_norm([s.matrix for s in states if s is not None])
    return CcMembership(member=witness <= tol, witness=witness)


def schmidt_ranks(basis, dims: tuple[int, int]) -> tuple[int, ...]:
    """Schmidt rank (singular values above ``SCHMIDT_TOL``) of each column across ``dims``."""
    b = as_cmatrix(basis, name="basis")
    d_a, d_b = dims
    if b.shape[0] != d_a * d_b:
        raise ValueError("basis does not act on the product space")
    svals = np.linalg.svd(b.T.reshape(-1, d_a, d_b), compute_uv=False)
    return tuple(int(r) for r in (svals > SCHMIDT_TOL).sum(axis=1))


@dataclass(frozen=True)
class MultipartiteReport:
    """Joint-versus-marginal classicality of a tripartite ``(A, B, B')`` state."""

    joint_classical: bool
    joint_basis: np.ndarray | None
    schmidt_ranks: tuple[int, ...] | None
    joint_basis_product: bool | None
    reduction_ab: str
    reduction_abp: str


def multipartite_qc_check(rho: QuantumState, tol: float | None = None) -> MultipartiteReport:
    """Check classicality of ``rho`` on the joint ``BB'`` side and on each
    single-B reduction, reporting the Schmidt ranks of the joint pointer
    basis (a rank above one on every vector certifies a non-product basis).
    The joint verdict is that of ``classical_side_basis`` read without its
    witness, as ``classify_state`` reads both of its own.
    """
    if rho.n_factors != 3:
        raise ValueError("expected a tripartite state with dims (A, B, B')")
    d_a, d_b, d_bp = rho.dims
    joint_view = QuantumState._derived(rho.matrix, (d_a, d_b * d_bp))
    basis = simultaneous_diagonalize(_block_family(joint_view, "B")[0], tol).basis
    ranks: tuple[int, ...] | None = None
    product: bool | None = None
    if basis is not None:
        ranks = schmidt_ranks(basis, (d_b, d_bp))
        product = all(r == 1 for r in ranks)
    return MultipartiteReport(
        joint_classical=basis is not None,
        joint_basis=basis,
        schmidt_ranks=ranks,
        joint_basis_product=product,
        reduction_ab=classify_state(rho.marginal((0, 1)), tol),
        reduction_abp=classify_state(rho.marginal((0, 2)), tol),
    )
