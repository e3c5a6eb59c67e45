"""Density operators on finite tensor-product spaces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import Check, as_cmatrix, dagger, frobenius, partial_trace, require

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "QuantumState",
    "hermitian_part",
    "maximally_entangled",
    "state_checks",
]

HERMITIAN_TOL = 1e-10  # ||m - m^dag||_F relative to max(1, ||m||_F)
PSD_TOL = 1e-10  # most negative eigenvalue of the Hermitian part, absolute
TRACE_TOL = 1e-10  # |Tr m - 1|, absolute
_PSD_SHIFT = 0.5  # share of PSD_TOL added to the diagonal before the Cholesky positivity test


def hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(m + m^dag) / 2`` and ``||m - m^dag||_F / max(1, ||m||_F)``."""
    adjoint = dagger(m)
    return (m + adjoint) / 2.0, frobenius(m - adjoint) / max(1.0, frobenius(m))


def _cholesky_positive(hermitian: np.ndarray) -> bool:
    """True when each Hermitian matrix of ``hermitian`` plus ``_PSD_SHIFT * PSD_TOL``
    on its diagonal has a Cholesky factor, so that its smallest eigenvalue is
    at least ``-PSD_TOL / 2`` up to O(d u) roundoff; False decides nothing."""
    try:
        np.linalg.cholesky(hermitian + _PSD_SHIFT * PSD_TOL * np.eye(hermitian.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def state_checks(matrix: np.ndarray, *, certify: bool = False) -> tuple[np.ndarray, list[Check]]:
    """Hermitian part of a density matrix and its invariants, in the order
    ``QuantumState`` enforces them: hermitian, unit-trace,
    positive-semidefinite. With ``certify`` (the constructor) a positivity
    ``_cholesky_positive`` settles is left out instead of measured."""
    h, dev = hermitian_part(matrix)
    trace = float(np.trace(h).real)
    checks = [
        Check("hermitian", dev, HERMITIAN_TOL, "relative deviation {:.3e}", (dev,)),
        Check("unit-trace", abs(trace - 1.0), TRACE_TOL, "trace {:.12g}", (trace,)),
    ]
    if not (certify and _cholesky_positive(h)):
        low = float(np.linalg.eigvalsh(h)[0])
        checks.append(Check("positive-semidefinite", -low, PSD_TOL, "minimum eigenvalue {:.3e}", (low,)))
    return h, checks


@dataclass(frozen=True)
class QuantumState:
    """Trace-one positive semidefinite operator with a factor structure.

    ``dims`` records the tensor factorization ``(d_1, ..., d_k)``; the
    matrix acts on the product space in row-major order (factor 0 is the
    slowest index). Construction enforces ``state_checks`` (positivity
    settled by a Cholesky factor where one exists), then stores
    the Hermitized read-only copy. States the package computes from
    accepted objects are stored the same way by ``_derived``, unchecked.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dims_in = self.dims if isinstance(self.dims, (tuple, list)) else (self.dims,)
        dims = tuple(int(d) for d in dims_in)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        m = as_cmatrix(self.matrix, name="state matrix")
        total = int(np.prod(dims))
        if m.shape != (total, total):
            raise ValueError(f"state matrix shape {m.shape} does not match dims {dims}")
        m, checks = state_checks(m, certify=True)
        require(checks)
        self._store(m, dims)

    def _store(self, hermitian: np.ndarray, dims: Sequence[int]) -> None:
        hermitian.setflags(write=False)
        object.__setattr__(self, "matrix", hermitian)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    @classmethod
    def _derived(cls, matrix: np.ndarray, dims: Sequence[int]) -> "QuantumState":
        """State computed from accepted objects, without ``state_checks``:
        its slack is what the accepted inputs allowed, so re-checking it
        against the absolute bounds could only refuse valid inputs."""
        m = np.asarray(matrix, dtype=np.complex128)
        state = object.__new__(cls)
        state._store((m + dagger(m)) / 2.0, dims)
        return state

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def marginal(self, keep: Iterable[int]) -> "QuantumState":
        """Reduced state on the factors listed in ``keep``."""
        keep = tuple(sorted(set(int(i) for i in keep)))
        reduced = partial_trace(self.matrix, self.dims, keep)
        return QuantumState._derived(reduced, tuple(self.dims[i] for i in keep))

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.matrix)[::-1]

    @classmethod
    def from_vector(cls, vec, dims: Sequence[int] | int) -> "QuantumState":
        """Projector onto ``vec``; its unit-trace check is the unit-norm check."""
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        dims = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
        return cls(np.outer(v, np.conj(v)), dims)


def maximally_entangled(d: int) -> QuantumState:
    """Projector onto ``sum_i |ii> / sqrt(d)`` with dims ``(d, d)``."""
    d = int(d)
    if d <= 0:
        raise ValueError("dimension must be positive")
    psi = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)
    return QuantumState.from_vector(psi, (d, d))
