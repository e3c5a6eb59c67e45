"""Column-stochastic matrix analysis: irreducibility, stationary structure,
ergodic limits, and Birkhoff decompositions.

Orientation: ``P[i, j]`` is the probability of moving *to* ``i`` *from*
``j``, so columns sum to one and distributions evolve as ``p -> P p``.
The support digraph has an edge ``j -> i`` whenever ``P[i, j] > ZERO_TOL``.

Irreducibility, primitivity and the communicating classes are read off
that digraph, whose successor and predecessor rows are held as bit sets
(Python ints): strong connectivity as two breadth-first reaches from state
0, classes by Kosaraju's two passes, periods from the breadth-first levels.
A stationary vector is solved by GTH elimination, left-looking inside
panels of 64, and certified by its residual under the generator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotPrimitiveError
from .linalg import (
    DEFAULT_TOL,
    ORTHONORMAL_TOL,
    ZERO_TOL,
    Check,
    as_cmatrix,
    expectation_table,
    has_orthonormal_columns,
    require,
)

__all__ = [
    "COLUMN_SUM_TOL",
    "NEGATIVE_TOL",
    "RECORDED_TOL",
    "BirkhoffDecomposition",
    "CommunicatingClass",
    "ErgodicLimit",
    "StationaryAnalysis",
    "StochasticMatrix",
    "basis_change_transition",
    "birkhoff_decompose",
    "block_decompose",
    "ergodic_limit",
    "is_irreducible",
    "is_primitive",
    "perron_vector",
    "stochastic_checks",
    "transition_matrix",
]

NEGATIVE_TOL = 1e-12  # most negative entry, absolute
COLUMN_SUM_TOL = 1e-10  # largest |column sum - 1|, absolute
_RESIDUAL_TOL = 1e-12  # largest ||G v||_1 of a certified stationary vector v
RECORDED_TOL = 1e-9  # recorded vs derived stationary vector, far above a GTH vector's roundoff
LIMIT_TOL = 1e-10  # max |P^r - P^inf| at which the ergodic limit is reached
MAX_POWER = 200000  # powers scanned before the ergodic limit gives up
_POWER_BATCH_ENTRIES = 1 << 12  # most power entries tested at once; from n = 46 a product outweighs its test
_GTH_PANEL = 64  # states eliminated left-looking per update of the leading block; fastest of 16-96 at n = 25-1000


def stochastic_checks(m: np.ndarray) -> list[Check]:
    """Invariants of a real column-stochastic table, in the order
    ``StochasticMatrix`` enforces them: nonnegative, column-stochastic."""
    low = float(np.min(m))
    sums = m.sum(axis=0)
    off = np.abs(sums - 1.0)
    bad = int(np.argmax(off))
    return [
        Check("nonnegative", -low, NEGATIVE_TOL, "minimum entry {:.3e}", (low,)),
        Check(
            "column-stochastic",
            float(off[bad]),
            COLUMN_SUM_TOL,
            "column {} sums to {:.12g}",
            (bad + 1, float(sums[bad])),
        ),
    ]


@dataclass(frozen=True)
class StochasticMatrix:
    """Validated column-stochastic matrix (rectangular allowed).

    Construction enforces ``stochastic_checks``; negative roundoff within
    ``NEGATIVE_TOL`` is clipped to zero.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.iscomplexobj(m):
            if np.max(np.abs(m.imag)) > ZERO_TOL:
                raise ValueError("stochastic matrix must be real")
            m = m.real
        m = np.asarray(m, dtype=float)
        if m.ndim != 2:
            raise ValueError("stochastic matrix must be two dimensional")
        if m.size == 0:
            raise ValueError("stochastic matrix must be non-empty")
        require(stochastic_checks(m))
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols


def _coerce(p) -> np.ndarray:
    if isinstance(p, StochasticMatrix):
        return p.matrix
    return StochasticMatrix(p).matrix


def _square(p) -> np.ndarray:
    m = _coerce(p)
    if m.shape[0] != m.shape[1]:
        raise ValueError("operation requires a square stochastic matrix")
    return m


def transition_matrix(povm: Sequence[np.ndarray], basis) -> StochasticMatrix:
    """Outcome-versus-preparation table ``P[i, j] = <phi_j| E_i |phi_j>``.

    ``basis`` must have orthonormal columns spanning preparations; the
    result is column-stochastic with one row per POVM outcome (and is
    rectangular when the outcome count differs from the column count).
    The effects must form a POVM, and the table absorbs the slack its
    invariants allow: entries that effects positive only within the PSD
    bound make negative are clipped to zero, and each column is divided by
    its own sum, so neither a basis column whose norm is off by as much as
    the orthonormality test allows nor effects that sum to the identity
    only within the completeness bound move the column sums off one.
    """
    b = as_cmatrix(basis, name="basis")
    if not has_orthonormal_columns(b):
        raise ValueError(f"basis columns are not orthonormal within {ORTHONORMAL_TOL:g}")
    effects = [as_cmatrix(e, name="POVM element") for e in povm]
    if any(e.shape != (b.shape[0], b.shape[0]) for e in effects):
        raise ValueError("POVM elements must act on the basis space")
    table = np.clip(expectation_table(effects, b), 0.0, None)
    return StochasticMatrix(table / table.sum(axis=0))


# -- support digraph -----------------------------------------------------------


def _bit_rows(b: np.ndarray) -> list[int]:
    """Each row of the boolean matrix ``b`` as an int whose bit ``k`` is
    ``b[row, k]``."""
    raw = np.packbits(np.ascontiguousarray(b), axis=1, bitorder="little").tobytes()
    width = len(raw) // len(b)
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


def _digraph(m: np.ndarray) -> tuple[list[int], list[int]]:
    """Successors and predecessors of every state as bit sets: bit ``i`` of
    ``succ[j]`` and bit ``j`` of ``pred[i]`` are the edge ``j -> i``."""
    support = m > ZERO_TOL
    return _bit_rows(support.T), _bit_rows(support)


def _states(bits: int):
    """The states of a bit set, smallest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _bfs(rows: list[int], root: int, within: int) -> tuple[int, list[tuple[int, int]]]:
    """Breadth-first search from ``root`` along the bit-set ``rows``, inside
    the bit set ``within``: the states reached and, level by level, the
    level's states with the union of their rows inside ``within``."""
    reached = frontier = 1 << root
    levels = []
    while frontier:
        union = 0
        for v in _states(frontier):
            union |= rows[v]
        union &= within
        levels.append((frontier, union))
        frontier = union & ~reached
        reached |= frontier
    return reached, levels


def _class_labels(succ: list[int], pred: list[int]) -> np.ndarray:
    """Communicating class of every state, by Kosaraju's two passes.

    A depth-first pass steps to each state's lowest unvisited successor and
    records the order in which states finish. Breadth-first sweeps of the
    reversed digraph, started from the unassigned state that finished last
    and kept to unassigned states, then collect one class each. Classes are
    numbered in the order of their smallest member.
    """
    n = len(succ)
    unvisited = (1 << n) - 1
    finished = []
    while unvisited:
        path = [(unvisited & -unvisited).bit_length() - 1]
        unvisited ^= 1 << path[0]
        while path:
            ahead = succ[path[-1]] & unvisited
            if ahead:
                low = ahead & -ahead
                unvisited ^= low
                path.append(low.bit_length() - 1)
            else:
                finished.append(path.pop())
    found = [0] * n  # the state each state's class was collected from
    unassigned = (1 << n) - 1
    for root in reversed(finished):
        if unassigned >> root & 1:
            members = _bfs(pred, root, unassigned)[0]
            unassigned ^= members
            for v in _states(members):
                found[v] = root
    renumber: dict[int, int] = {}
    return np.array([renumber.setdefault(c, len(renumber)) for c in found])


def _irreducible_levels(succ: list[int], pred: list[int]) -> list[tuple[int, int]] | None:
    """Breadth-first levels from state 0 when the digraph is strongly
    connected, that is when state 0 reaches every state and every state
    reaches state 0; None otherwise."""
    everything = (1 << len(succ)) - 1
    reached, levels = _bfs(succ, 0, everything)
    return levels if reached == everything == _bfs(pred, 0, everything)[0] else None


def _period(levels: list[tuple[int, int]]) -> int:
    """Period of a strongly connected digraph from its breadth-first
    ``levels``; 0 when it has no edge.

    The period is the gcd of ``level[j] + 1 - level[i]`` over the edges
    ``j -> i`` (Denardo 1977). Edges out of level ``d`` land in the union of
    its rows; only those landing outside the residue class of ``d + 1``
    modulo the gcd so far lower it, each time at least by half.
    """
    layers = [states for states, _ in levels] + [0]
    g = 0
    home = layers  # home[r]: the states whose level is r modulo g (exactly r while g is 0)
    for d, (_, union) in enumerate(levels):
        stray = union & ~home[(d + 1) % g if g else d + 1]
        if stray:
            g = math.gcd(g, *(d + 1 - k for k, layer in enumerate(layers) if stray & layer))
            if g == 1:
                return 1
            home = [functools.reduce(operator.or_, layers[r::g], 0) for r in range(g)]
    return g


def is_irreducible(p) -> bool:
    """True when the support digraph is strongly connected (one class)."""
    return _irreducible_levels(*_digraph(_square(p))) is not None


def is_primitive(p) -> bool:
    """True when the table is irreducible with period 1.

    By Perron-Frobenius this is the same as some power ``P^r`` being
    entrywise positive; the test reads it off the support digraph.
    """
    levels = _irreducible_levels(*_digraph(_square(p)))
    return levels is not None and _period(levels) == 1


@dataclass(frozen=True)
class CommunicatingClass:
    """One communicating class of the support digraph."""

    indices: tuple[int, ...]
    recurrent: bool
    primitive: bool


@dataclass(frozen=True)
class StationaryAnalysis:
    """Block structure of a square column-stochastic matrix.

    ``classes`` lists every communicating class (ordered by smallest
    member); ``perron_vectors`` holds one unit-sum nonnegative vector per
    *recurrent* class, embedded in the full dimension; ``degeneracy`` is
    the count of recurrent classes, i.e. the dimension of the simplex of
    stationary distributions. ``irreducible`` and ``primitive`` read
    ``is_irreducible`` and ``is_primitive`` off the classes.
    """

    matrix: StochasticMatrix
    classes: tuple[CommunicatingClass, ...]
    perron_vectors: tuple[np.ndarray, ...]
    degeneracy: int

    @property
    def irreducible(self) -> bool:
        return len(self.classes) == 1

    @property
    def primitive(self) -> bool:
        return self.irreducible and self.classes[0].primitive


def _gth(sub: np.ndarray) -> np.ndarray:
    """Stationary vector by Grassmann-Taksar-Heyman elimination.

    States are censored out last first. Each pivot, the probability of
    leaving a state, is summed from off-diagonal entries instead of taken
    as ``1 - B[n, n]``, so no step subtracts. The elimination is
    left-looking inside panels of 64 states (``_GTH_PANEL``). A state's
    diagonal entry, which nothing else reads, is set to one, so that its
    row is one product, of its entries on the panel's states from itself
    on with their rows, and its column is one product, of their columns
    with their entries in its column, divided by the pivot. The update of
    the leading block is deferred over the panel and applied as one
    product, as in blocked LU.
    """
    a = sub.T.copy()  # row-stochastic: a[j, i] is the probability of j -> i
    k = a.shape[0]
    hi = k
    while hi > 1:
        lo = max(hi - _GTH_PANEL, 1)
        for n in range(hi - 1, lo - 1, -1):
            a[n, n] = 1.0
            a[n, :n] = a[n, n:hi] @ a[n:hi, :n]
            a[:n, n] = a[:n, n:hi] @ a[n:hi, n] / a[n, :n].sum()
        a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
        hi = lo
    x = np.zeros(k)
    x[0] = 1.0
    for n in range(1, k):
        x[n] = x[:n] @ a[:n, n]
    return x / x.sum()


def _stationary(sub: np.ndarray, block: Sequence[int], d: int) -> np.ndarray:
    """GTH vector of ``sub``, the closed communicating class on ``block``,
    embedded in dimension ``d`` once its residual ``||G v||_1`` is within
    ``_RESIDUAL_TOL``. ``G`` is ``sub`` with its diagonal set to minus each
    column's off-diagonal sum, the generator GTH solves, so neither a
    diagonal rounded in ``1 - eps`` nor the column-sum slack enters it."""
    v = _gth(sub)
    gen = sub.copy()
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=0))
    residual = float(np.abs(gen @ v).sum())
    if residual > _RESIDUAL_TOL:
        raise ValueError(
            f"stationary vector not certified: residual ||G v||_1 = {residual:.3e} exceeds {_RESIDUAL_TOL:g}"
        )
    out = np.zeros(d)
    out[list(block)] = v
    return out


def perron_vector(p, block: Sequence[int] | None = None) -> np.ndarray:
    """Stationary distribution supported on one recurrent block.

    The block must be closed (no probability escapes it) and a single
    communicating class. Its stationary vector comes from GTH elimination,
    which never subtracts and so stays entrywise accurate on nearly
    decomposable chains, and is certified by its residual under the
    generator ``B - I`` (diagonal minus each column's off-diagonal sum),
    at most ``_RESIDUAL_TOL`` in the 1-norm. It is returned embedded in the
    full dimension, nonnegative, and summing to one.
    """
    m = _square(p)
    d = m.shape[0]
    if block is None:
        block = tuple(range(d))
    block = tuple(sorted(set(int(i) for i in block)))
    if not block or any(i < 0 or i >= d for i in block):
        raise ValueError(f"invalid block {block} for dimension {d}")
    inside = np.zeros(d, dtype=bool)
    inside[list(block)] = True
    columns = m[:, block]
    if float(np.max(columns[~inside], initial=0.0)) > ZERO_TOL:
        raise ValueError("block is not recurrent: probability escapes it")
    sub = columns[inside]
    if _irreducible_levels(*_digraph(sub)) is None:
        raise ValueError("block is not a single communicating class")
    return _stationary(sub, block, d)


def block_decompose(p) -> StationaryAnalysis:
    """Communicating classes, recurrence, primitivity, and Perron vectors.

    A class is recurrent when the union of its members' successors stays
    inside it, and primitive when its period is 1.
    """
    sm = p if isinstance(p, StochasticMatrix) else StochasticMatrix(p)
    m = _square(sm)
    succ, pred = _digraph(m)
    labels = _class_labels(succ, pred)
    classes = []
    vectors = []
    for label in range(int(labels.max()) + 1):
        mask = labels == label
        idx = np.flatnonzero(mask)
        block = tuple(idx.tolist())
        members = _bit_rows(mask[None])[0]
        recurrent = not functools.reduce(operator.or_, (succ[i] for i in block)) & ~members
        classes.append(
            CommunicatingClass(
                indices=block,
                recurrent=recurrent,
                primitive=_period(_bfs(succ, block[0], members)[1]) == 1,
            )
        )
        if recurrent:
            vectors.append(_stationary(m[np.ix_(idx, idx)], block, m.shape[0]))
    return StationaryAnalysis(
        matrix=sm,
        classes=tuple(classes),
        perron_vectors=tuple(vectors),
        degeneracy=len(vectors),
    )


def _recorded_matches(recorded, perron_vectors) -> list[int | None]:
    """Per recorded stationary vector, the index of the first Perron vector
    within ``RECORDED_TOL`` of it in every entry, or None. Perron vectors
    have disjoint supports and unit sums, so no recorded vector is that
    close to two."""
    return [
        next(
            (i for i, v in enumerate(perron_vectors) if float(np.max(np.abs(v - target))) <= RECORDED_TOL),
            None,
        )
        for target in recorded
    ]


@dataclass(frozen=True)
class ErgodicLimit:
    """Rank-one limit ``P^inf`` together with the convergence power."""

    matrix: np.ndarray
    perron: np.ndarray
    r_converged: int


def ergodic_limit(p) -> ErgodicLimit:
    """Limit of matrix powers of a primitive column-stochastic matrix.

    ``p`` is a table or the ``StationaryAnalysis`` that ``block_decompose``
    returned for one, whose primitivity and Perron vector are then reused.
    Every column of the limit equals the Perron vector. ``r_converged`` is
    the first power with ``max |P^r - P^inf| <= LIMIT_TOL``, scanning at
    most ``MAX_POWER`` powers. Non-primitive input raises NotPrimitiveError
    whose ``reason`` says whether the matrix is reducible or merely periodic.

    Each power is formed as ``P @ P^(r-1)`` and tested in a batch of powers
    that doubles from one up to ``_POWER_BATCH_ENTRIES`` entries, so at most
    one batch of powers past ``r_converged`` is formed.
    """
    if isinstance(p, StationaryAnalysis):
        _require_primitive(p.irreducible, p.primitive)
        m, v = p.matrix.matrix, p.perron_vectors[0]
    else:
        m = _square(p)
        levels = _irreducible_levels(*_digraph(m))
        _require_primitive(levels is not None, levels is not None and _period(levels) == 1)
        v = _stationary(m, range(len(m)), len(m))
    limit = np.outer(v, np.ones(len(m)))
    most = max(1, _POWER_BATCH_ENTRIES // m.size)
    batch = m[None].copy()  # P^r, ..., P^(r + len(batch) - 1)
    r = 1
    while True:
        far = np.abs(batch - limit).max(axis=(1, 2)) > LIMIT_TOL
        if not far.all():
            return ErgodicLimit(matrix=limit, perron=v, r_converged=r + int(np.argmin(far)))
        r += len(batch)
        if r > MAX_POWER:
            raise ValueError(f"no convergence within {MAX_POWER} powers")
        last, batch = batch[-1], np.empty((min(2 * len(batch), most, MAX_POWER - r + 1),) + m.shape)
        for power in batch:
            last = np.matmul(m, last, out=power)


def _require_primitive(irreducible: bool, primitive: bool) -> None:
    if not irreducible:
        raise NotPrimitiveError(
            "matrix is reducible; the stationary distribution is not unique",
            reason="reducible",
        )
    if not primitive:
        raise NotPrimitiveError(
            "matrix is irreducible but periodic; powers oscillate", reason="periodic"
        )


# -- Birkhoff decomposition ----------------------------------------------------


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Convex decomposition of a doubly stochastic matrix into permutations.

    ``permutations[t]`` maps column ``j`` to row ``permutations[t][j]``.
    """

    weights: tuple[float, ...]
    permutations: tuple[tuple[int, ...], ...]

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def reconstruction(self) -> np.ndarray:
        d = len(self.permutations[0])
        out = np.zeros((d, d))
        for w, perm in zip(self.weights, self.permutations):
            out[list(perm), range(d)] += w
        return out


def _perfect_matching(mask: np.ndarray) -> list[int] | None:
    """Column-to-row perfect matching on a boolean support, or None.

    Columns are processed in ascending order and augmenting paths prefer
    lower row indices, so the outcome is deterministic.
    """
    d = mask.shape[0]
    row_owner = [-1] * d  # row -> column currently matched to it

    def augment(col: int, visited: list[bool]) -> bool:
        for row in range(d):
            if mask[row, col] and not visited[row]:
                visited[row] = True
                if row_owner[row] < 0 or augment(row_owner[row], visited):
                    row_owner[row] = col
                    return True
        return False

    for col in range(d):
        if not augment(col, [False] * d):
            return None
    perm = [-1] * d
    for row, col in enumerate(row_owner):
        perm[col] = row
    return perm


def birkhoff_decompose(matrix) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into at most ``(d-1)^2 + 1``
    permutation matrices.

    Greedy extraction peels off a perfect matching on the remaining
    support (ties broken toward low column and row indices), weighted by
    its smallest entry, until the residual is dust, and rescales the
    weights to sum to one. Each step zeroes the entry that set its weight
    exactly, moving the rescaled residual onto a proper face of the
    Birkhoff polytope (faces are support patterns), whose dimension is
    ``(d-1)^2``; so at most that many steps leave a vertex, one
    permutation, which the last step takes whole.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    d = m.shape[0]
    if float(np.min(m)) < -DEFAULT_TOL:
        raise ValueError("matrix has negative entries")
    sums = np.concatenate([m.sum(axis=0), m.sum(axis=1)])
    if np.max(np.abs(sums - 1.0)) > DEFAULT_TOL:
        raise ValueError("matrix is not doubly stochastic within tolerance")

    residual = np.clip(m, 0.0, None)
    weights: list[float] = []
    perms: list[tuple[int, ...]] = []
    for _ in range(d * d + d):
        mask = residual > ZERO_TOL
        if not mask.any():
            break
        perm = _perfect_matching(mask)
        if perm is None:
            if float(residual.max()) <= 10 * DEFAULT_TOL:
                break
            raise ValueError("support lost a perfect matching; matrix is not doubly stochastic")
        w = float(min(residual[perm[j], j] for j in range(d)))
        weights.append(w)
        perms.append(tuple(perm))
        for j in range(d):
            residual[perm[j], j] -= w
    if not weights:
        raise ValueError("matrix has empty support")

    total = sum(weights)
    weights = [w / total for w in weights]
    return BirkhoffDecomposition(weights=tuple(weights), permutations=tuple(perms))


def basis_change_transition(source, u, basis=None) -> StochasticMatrix:
    """Transition table ``P[i, j] = <u phi_j| E_i |u phi_j>`` after rotating
    the preparation basis ``phi`` by ``u``.

    ``source`` is a measurement map plus its current preparation ``basis``
    (defaulting to the pointer basis of a square map), or commuting-channel
    data (anything with ``transition``, ``eigenbasis`` and ``measurement``
    attributes), which stands for its measurement map in its eigenbasis;
    ``basis`` must then be omitted. With ``W[k, j] = <phi_k| u |phi_j>``
    and the doubly stochastic ``B = |W|^2``, the result equals the
    permutation mixture ``P_phi @ B`` (``P_phi`` the table in ``phi``, ``B``
    the mixture ``birkhoff_decompose`` finds) plus a coherent cross-term
    part, which vanishes when the effects are diagonal in ``phi`` as
    commuting data's are.
    """
    u_mat = as_cmatrix(u, name="basis change")
    d = u_mat.shape[0]
    if u_mat.shape[1] != d:
        raise ValueError("basis change must be square")
    if not has_orthonormal_columns(u_mat):
        raise ValueError("basis change must be unitary")
    if hasattr(source, "transition") and hasattr(source, "eigenbasis"):
        if basis is not None:
            raise ValueError("basis is implied by the commuting channel's eigenbasis")
        source, basis = source.measurement, source.eigenbasis

    effects = [as_cmatrix(e, name="POVM element") for e in source.povm]
    if basis is None:
        pointer = as_cmatrix(source.pointer_basis)
        if pointer.shape != (d, d) or effects[0].shape != (d, d):
            raise ValueError("a preparation basis is required for non-square maps")
        basis = pointer
    phi = as_cmatrix(basis, name="basis")
    if phi.shape != (d, d) or effects[0].shape != (d, d):
        raise ValueError("basis change dimension does not match the preparation basis")
    return transition_matrix(effects, u_mat @ phi)
