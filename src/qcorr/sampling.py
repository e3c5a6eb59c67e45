"""Seeded random generators for states, POVMs, and channels.

Every function takes an explicit ``numpy.random.Generator`` so callers
control reproducibility; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .channels import ChoiChannel
from .linalg import ZERO_TOL, mixture, unit_columns
from .measurement import MeasurementMap
from .states import QuantumState

__all__ = [
    "haar_unitary",
    "random_kraus_channel",
    "random_measurement_map",
    "random_povm",
    "random_state",
    "random_stochastic",
]


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(d, d, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_state(dims, rng: np.random.Generator) -> QuantumState:
    """Hilbert-Schmidt random density operator with the given factor dims."""
    dims = (dims,) if isinstance(dims, (int, np.integer)) else tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    g = _ginibre(total, total, rng)
    m = g @ np.conj(g).T
    return QuantumState(m / np.trace(m), dims)


def random_povm(d: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """POVM of ``n`` rank-one effects, symmetrically normalized to resolve identity.

    Draws ``n`` Haar-random pure states with Dirichlet weights and applies
    ``S^(-1/2) . S^(-1/2)`` with ``S`` the weighted sum, so the effects sum
    to the identity exactly (up to roundoff). Requires ``n >= d`` so the
    vectors can span the space.
    """
    if n < d:
        raise ValueError("need at least d outcomes to resolve the identity")
    weights = rng.dirichlet(np.ones(n)) * d
    vectors = np.stack([_ginibre(d, 1, rng).reshape(-1) for _ in range(n)], axis=1)
    vectors = unit_columns(vectors)
    s = mixture(vectors, weights)
    evals, evecs = np.linalg.eigh(s)
    if evals[0] <= ZERO_TOL:
        # pathological draw; retry with fresh randomness
        return random_povm(d, n, rng)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ np.conj(evecs).T
    return tuple(w * np.outer(u, np.conj(u)) for w, u in zip(weights, (inv_sqrt @ vectors).T))


def random_measurement_map(
    d_in: int,
    rng: np.random.Generator,
    n_outcomes: int | None = None,
    d_out: int | None = None,
) -> MeasurementMap:
    """Random measure-and-prepare map.

    Defaults give an informationally rich POVM (``n = d_in**2`` outcomes)
    with a Haar-random pointer basis on a space of matching dimension; pass
    ``n_outcomes=d_in, d_out=d_in`` for a square map.
    """
    n = n_outcomes or d_in * d_in
    d_out = d_out or n
    if d_out < n:
        raise ValueError("pointer space must hold n orthonormal vectors")
    povm = random_povm(d_in, n, rng)
    return MeasurementMap(povm, haar_unitary(d_out, rng)[:, :n])


def random_kraus_channel(
    d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator
) -> ChoiChannel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    if n_kraus * d_out < d_in:
        raise ValueError("environment too small for an isometry")
    g = _ginibre(n_kraus * d_out, d_in, rng)
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return ChoiChannel.from_kraus([q[m * d_out : (m + 1) * d_out, :] for m in range(n_kraus)])


def random_stochastic(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic matrix with Dirichlet-distributed columns."""
    return rng.dirichlet(np.ones(n_rows), size=n_cols).T
