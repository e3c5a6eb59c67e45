"""Measure-and-prepare channels: a POVM feeding an orthonormal pointer basis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    Check,
    _block_mixture,
    as_cmatrix,
    frobenius,
    mixture,
    orthonormal_check,
    require,
)
from .markov import StochasticMatrix, transition_matrix
from .states import HERMITIAN_TOL, PSD_TOL, QuantumState, _cholesky_positive, hermitian_part

__all__ = ["COMPLETENESS_TOL", "MeasurementMap", "povm_checks"]

COMPLETENESS_TOL = 1e-9  # ||sum_i E_i - 1||_F, scaled by sqrt(d)


def povm_checks(
    effects: Sequence[np.ndarray], pointer: np.ndarray | None = None, *, certify: bool = False
) -> list[Check]:
    """Invariants of POVM effects (and of a pointer basis, when given), in
    the order ``MeasurementMap`` enforces them; ``certify`` as in
    ``state_checks``, with one batched ``_cholesky_positive`` call."""
    d = effects[0].shape[0]
    parts = [hermitian_part(e) for e in effects]
    herm = max(dev for _, dev in parts)
    dev = frobenius(sum(effects) - np.eye(d))
    checks = [Check("effects-hermitian", herm, HERMITIAN_TOL, "worst deviation {:.3e}", (herm,))]
    if not (certify and _cholesky_positive(np.stack([h for h, _ in parts]))):
        low = min(float(np.linalg.eigvalsh(h)[0]) for h, _ in parts)
        checks.append(Check("effects-positive", -low, PSD_TOL, "minimum eigenvalue {:.3e}", (low,)))
    checks.append(Check("completeness", dev, COMPLETENESS_TOL * np.sqrt(d), "sum deviates by {:.3e}", (dev,)))
    if pointer is not None:
        checks.append(orthonormal_check(pointer, "pointer-orthonormal"))
    return checks


@dataclass(frozen=True)
class MeasurementMap:
    """The channel ``rho -> sum_i Tr(rho E_i) |e_i><e_i|``.

    ``povm`` holds the effects ``E_i`` on the input space; ``pointer_basis``
    is a ``d_out x n`` matrix whose orthonormal columns receive the outcome
    probabilities. The map is completely positive and trace preserving by
    construction once the effects are positive and sum to the identity;
    outputs use the unit-normalized pointer columns.
    """

    povm: tuple[np.ndarray, ...]
    pointer_basis: np.ndarray

    def __post_init__(self):
        effects = tuple(as_cmatrix(e, name="POVM element") for e in self.povm)
        if not effects:
            raise ValueError("POVM must have at least one element")
        d = effects[0].shape[0]
        if any(e.shape != (d, d) for e in effects):
            raise ValueError("POVM elements must be square matrices of equal dimension")
        pointer = as_cmatrix(self.pointer_basis, name="pointer basis")
        if pointer.shape[1] != len(effects):
            raise ValueError(
                f"pointer basis has {pointer.shape[1]} columns for {len(effects)} outcomes"
            )
        require(povm_checks(effects, pointer, certify=True))
        self._store(effects, pointer)

    def _store(self, effects: Sequence[np.ndarray], pointer: np.ndarray) -> None:
        effects = tuple(np.array(e, dtype=np.complex128) for e in effects)
        pointer = np.array(pointer, dtype=np.complex128)
        for a in effects + (pointer,):
            a.setflags(write=False)
        object.__setattr__(self, "povm", effects)
        object.__setattr__(self, "pointer_basis", pointer)

    @classmethod
    def _derived(cls, effects: Sequence[np.ndarray], pointer: np.ndarray) -> "MeasurementMap":
        """Map computed from accepted objects, stored as the constructor
        stores it, without ``povm_checks``."""
        mm = object.__new__(cls)
        mm._store(effects, pointer)
        return mm

    # -- geometry -----------------------------------------------------------

    @property
    def d_in(self) -> int:
        return self.povm[0].shape[0]

    @property
    def d_out(self) -> int:
        return self.pointer_basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.povm)

    @property
    def is_square(self) -> bool:
        return self.d_in == self.d_out

    @property
    def weights(self) -> np.ndarray:
        """Choi block weights ``p_i = Tr(E_i) / d_in``."""
        return np.array([float(np.real(np.trace(e))) / self.d_in for e in self.povm])

    # -- action -------------------------------------------------------------

    def probabilities(self, rho) -> np.ndarray:
        """Outcome distribution ``Tr(rho E_i)`` for a state, or a raw density
        matrix, which is checked as a ``QuantumState`` first."""
        mat = (rho if isinstance(rho, QuantumState) else QuantumState(rho, self.d_in)).matrix
        if mat.shape != (self.d_in, self.d_in):
            raise ValueError(f"input shape {mat.shape} does not match d_in={self.d_in}")
        return np.array([float(np.real(np.trace(mat @ e))) for e in self.povm])

    def apply(self, rho) -> QuantumState:
        """Output state. The outcome distribution is divided by its sum,
        which differs from one by at most the completeness slack, as each
        column of a transition table is."""
        q = self.probabilities(rho)
        return QuantumState._derived(mixture(self.pointer_basis, q / q.sum()), (self.d_out,))

    def choi_matrix(self) -> np.ndarray:
        """Choi state ``(1/d_in) sum_i E_i^T (x) |e_i><e_i|`` as a raw matrix,
        divided by its trace as channel outputs are (the trace is one up to
        the completeness slack)."""
        w = _block_mixture(np.stack(self.povm).transpose(0, 2, 1), self.pointer_basis)
        return w / np.trace(w).real

    def pointer_transition(self) -> np.ndarray:
        """Column-stochastic ``P[i, j] = <e_j| E_i |e_j>``.

        Defined when the pointer vectors live on the input space, i.e.
        ``d_out == d_in``.
        """
        if not self.is_square:
            raise ValueError("pointer transition requires d_out == d_in")
        return transition_matrix(self.povm, self.pointer_basis).matrix

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_stochastic(
        cls,
        transition,
        eigenbasis: np.ndarray | None = None,
        pointer_basis: np.ndarray | None = None,
    ) -> "MeasurementMap":
        """Commuting-POVM map realizing a column-stochastic matrix.

        Row ``j`` of ``transition`` defines the effect
        ``E_j = sum_i P[j, i] |v_i><v_i|`` where ``{v_i}`` are the columns
        of ``eigenbasis`` (computational by default), so every effect is
        diagonal in that basis. With the default bases the pointer
        transition of the result is exactly ``transition``.
        """
        p = StochasticMatrix(transition).matrix
        n, d = p.shape
        if eigenbasis is None:
            eigenbasis = np.eye(d, dtype=np.complex128)
        basis = as_cmatrix(eigenbasis, name="eigenbasis")
        if basis.shape != (d, d):
            raise ValueError(f"eigenbasis shape {basis.shape} does not match transition width {d}")
        effects = tuple(mixture(basis, row) for row in p)
        if pointer_basis is None:
            pointer_basis = np.eye(n, dtype=np.complex128)
        return cls(effects, pointer_basis)
