"""Dense complex linear algebra shared by every other module.

Conventions used throughout the package:

* Matrices are dense numpy arrays with complex128 entries, row-major.
* Composite systems are indexed row-major: ``A (x) B`` sends the basis
  pair ``(i, j)`` to the single index ``i * dim_B + j``, which is exactly
  what ``numpy.kron`` produces.
* Eigenbases are unitary matrices whose *columns* are the basis vectors.
* Structural zero tests use the absolute tolerance ``DEFAULT_TOL`` scaled
  by the Frobenius norm of the input (never below 1).
* Every document invariant is measured by one function and compared with
  one named bound; a ``Check`` records the measured value, the bound and
  the failure detail. Constructors ``require`` their checks and manifest
  validation reports the same ones. Objects derived from accepted ones
  take the private ``_derived`` path of ``QuantumState`` and
  ``MeasurementMap``, which stores them without re-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ORTHONORMAL_TOL",
    "ROUNDOFF_TOL",
    "ZERO_TOL",
    "Check",
    "SimultaneousDiagonalization",
    "as_cmatrix",
    "bases_match",
    "commutator_norm",
    "dagger",
    "expectation_table",
    "frobenius",
    "gram_deviation",
    "has_orthonormal_columns",
    "max_commutator_norm",
    "mixture",
    "orthonormal_check",
    "partial_trace",
    "require",
    "simultaneous_diagonalize",
    "unit_columns",
]

DEFAULT_TOL = 1e-9
ORTHONORMAL_TOL = 1e-9  # Gram deviation, unscaled whatever the column count
ZERO_TOL = 1e-12  # a probability, eigenvalue, entry or sum at most this is zero
ROUNDOFF_TOL = 1e-13  # what an exactly vanishing quantity leaves behind
BASES_MATCH_TOL = 1e-8  # |<u_i|v_j>| within this of 1 pairs two columns
_SIGNIFICANT_TOL = 1e-8  # smallest modulus of the component a phase is fixed on
_KEY_DIGITS = 9  # sort keys of canonical columns round to a 1e-9 grid
_KEY_ULP_SLACK = 4  # ulps of x * 10**_KEY_DIGITS within which a key may sit on a rounding tie
_KEY_EXACT_LIMIT = 2.0**50 / 10**_KEY_DIGITS  # |x| from which x * 10**_KEY_DIGITS may be inexact
_PAIR_BLOCK_ENTRIES = 1 << 16  # complex entries per GEMM output of one commutator row block
_CERTIFICATE_MARGIN = 0.5  # share of the commutation bound the certificate's commutator bound may reach
_REFINE_SEED = 0x51D1A6  # the refinement draws default_rng(_REFINE_SEED).standard_normal from its start
_REFINE_PREFIX = 4096  # normals of that stream drawn once, on the first refinement


class Check(NamedTuple):
    """One invariant measured on one object; it holds when ``value <= bound``.

    ``detail`` formats ``template`` with ``args`` only when read, so a
    constructor whose checks all hold formats nothing.
    """

    name: str
    value: float
    bound: float
    template: str
    args: tuple = ()

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    @property
    def detail(self) -> str:
        return self.template.format(*self.args)


def require(checks: Iterable[Check]) -> None:
    """Raise ValueError naming the first check that does not hold."""
    for c in checks:
        if not c.passed:
            raise ValueError(f"{c.name} check failed: {c.detail} (bound {c.bound:.3g})")


def as_cmatrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite two dimensional complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor whose index is not listed in ``keep``.

    Parameters
    ----------
    m : array_like
        Square operator on the product space ``prod(dims)``.
    dims : sequence of int
        Dimension of each tensor factor, slowest index first.
    keep : iterable of int
        Factor indices (0-based) that survive; they keep their original
        relative order. An empty ``keep`` yields the full trace as a
        ``1 x 1`` matrix.
    """
    mat = as_cmatrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if mat.shape != (total, total):
        raise ValueError(f"operator shape {mat.shape} does not match dims {dims}")
    k = len(dims)
    keep = tuple(sorted(set(int(i) for i in keep)))
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {k} factors")
    t = mat.reshape(dims + dims)
    row_labels = list(range(k))
    # traced factors share a label between row and column axes
    col_labels = [i + k if i in keep else i for i in range(k)]
    out_labels = [i for i in keep] + [i + k for i in keep]
    reduced = np.einsum(t, row_labels + col_labels, out_labels)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``[a, b] = ab - ba``."""
    x = as_cmatrix(a)
    y = as_cmatrix(b)
    return frobenius(x @ y - y @ x)


def _exact_keys(stack: np.ndarray) -> list[bytes]:
    """The bytes of each member of ``stack`` with ``-0.0`` read as ``0.0``:
    two members are equal entry for entry exactly when their keys are.
    One copy of the stack's bytes, sliced per member."""
    flat, step = (stack + 0.0).tobytes(), stack.itemsize * math.prod(stack.shape[1:])
    return [flat[i : i + step] for i in range(0, len(flat), step)]


def _checked_stack(family) -> np.ndarray:
    """``family`` as one finite complex128 ``(n, d, d)`` stack with ``n >= 1``."""
    stack = np.asarray(family, dtype=np.complex128)
    if stack.ndim != 3 or stack.size == 0 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"family must be a non-empty stack of square matrices, got {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("family contains non-finite entries")
    return stack


def _orbit_pairs(stack: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """The members of ``stack`` in the order R, U, H, L, and the segments of
    pairs of that order whose commutators ``max_commutator_norm`` evaluates.

    Each member is paired once with a later member equal to its adjoint
    (``_exact_keys``). R holds the unpaired members that are not exactly
    Hermitian, U the first member of each pair in member order, H the
    exactly Hermitian members and L the partners of U in U's order. Since
    ``[x^dag, y^dag] = -[x, y]^dag``, one pair per adjoint orbit suffices:
    R against every later member; U_a against later U, all of H and L_b for
    ``b >= a``; H against later H. A segment ``(first, stop, offset, end)``
    pairs each row ``i`` in ``first:stop`` with the columns ``i + offset:end``.
    """
    keys, adjoint_keys = _exact_keys(stack), _exact_keys(np.conj(stack).transpose(0, 2, 1))
    hermitian, pairs, waiting = [], [], {}
    for i, (key, adjoint_key) in enumerate(zip(keys, adjoint_keys)):
        if key == adjoint_key:
            hermitian.append(i)
        elif waiting.get(adjoint_key):
            pairs.append((waiting[adjoint_key].pop(0), i))
        else:
            waiting.setdefault(key, []).append(i)
    rest = sorted(i for queue in waiting.values() for i in queue)
    pairs.sort()
    n, r, u = len(stack), len(rest), len(pairs)
    closed = n - u  # R, U and H end here and L starts
    segments = [(0, min(r, n - 1), 1, n), (r, closed - 1, 1, closed), (r, r + u, closed - r, n)]
    order = rest + [a for a, _ in pairs] + hermitian + [b for _, b in pairs]
    return np.array(order, dtype=np.intp), segments


def max_commutator_norm(family: Sequence[np.ndarray]) -> float:
    """Largest ``commutator_norm`` over all pairs of ``family`` (0 for fewer
    than two members).

    ``family`` is coerced once to a finite complex128 ``(n, d, d)`` stack,
    with the refusals of ``simultaneous_diagonalize``; an empty sequence has
    no pairs. One pair per adjoint orbit is evaluated (``_orbit_pairs``),
    about ``n^2 / 4`` for an adjoint-closed family and every unordered pair
    for a family without adjoint pairs. Each segment's rows are taken in
    blocks of two GEMMs, ``F_I F_J`` and ``F_J F_I`` over the segment's
    columns ``J``, whose outputs hold at most ``_PAIR_BLOCK_ENTRIES`` complex
    entries each, or one row of ``n d^2`` entries when a single row is
    larger; every block writes them into the same two buffers.
    """
    stack = np.asarray(family, dtype=np.complex128)
    if stack.shape[:1] == (0,):
        return 0.0
    stack = _checked_stack(stack)
    n, d = stack.shape[:2]
    if n < 2:
        return 0.0
    order, segments = _orbit_pairs(stack)
    ordered = stack[order]
    tall = ordered.reshape(n * d, d)  # member i of the order in rows i*d:(i+1)*d
    wide = ordered.transpose(1, 0, 2).reshape(d, n * d)  # member j in columns j*d:(j+1)*d
    rows = max(1, _PAIR_BLOCK_ENTRIES // (n * d * d))
    # every block writes its two products into the same two buffers, sized
    # for the widest block (a segment's first): a fresh pair per block would
    # fault its pages in anew each time
    widest = max(
        min(rows, stop - first) * (end - first - offset) for first, stop, offset, end in segments if stop > first
    )
    spaces = np.empty((2, widest * d * d), dtype=np.complex128)
    best = 0.0
    for first, stop, offset, end in segments:
        for i0 in range(first, stop, rows):
            i1 = min(i0 + rows, stop)
            j0 = i0 + offset
            b, m = i1 - i0, end - j0
            forward, backward = spaces[:, : b * d * m * d]
            # forward[r, a, c, e] = (F_(i0+r) F_(j0+c))[a, e]; backward the reverse product
            np.matmul(tall[i0 * d : i1 * d], wide[:, j0 * d : end * d], out=forward.reshape(b * d, m * d))
            np.matmul(tall[j0 * d : end * d], wide[:, i0 * d : i1 * d], out=backward.reshape(m * d, b * d))
            forward, backward = forward.reshape(b, d, m, d), backward.reshape(m, d, b, d)
            np.subtract(forward, backward.transpose(2, 1, 0, 3), out=forward)
            squares = forward.view(np.float64)
            np.multiply(squares, squares, out=squares)
            # row i0 + r is paired with column j0 + c only for c >= r
            best = max(best, float(np.max(np.triu(squares.sum(axis=(1, 3))))))
    return float(np.sqrt(best))


def gram_deviation(u) -> float:
    """Frobenius distance of ``u^dag u`` from the identity."""
    m = as_cmatrix(u)
    return frobenius(dagger(m) @ m - np.eye(m.shape[1]))


def orthonormal_check(u, name: str = "orthonormal-columns") -> Check:
    dev = gram_deviation(u)
    return Check(name, dev, ORTHONORMAL_TOL, "gram deviation {:.3e}", (dev,))


def has_orthonormal_columns(u) -> bool:
    """Orthonormality test for every basis the package accepts."""
    return orthonormal_check(u).passed


def unit_columns(b: np.ndarray) -> np.ndarray:
    """``b`` with every column scaled to unit norm."""
    return b / np.linalg.norm(b, axis=0)


def mixture(basis: np.ndarray, weights) -> np.ndarray:
    """``sum_i w_i |b_i><b_i|`` over the unit-normalized columns of ``basis``,
    so the trace is ``sum_i w_i`` even for columns orthonormal only within
    ``ORTHONORMAL_TOL``."""
    b = unit_columns(basis)
    return (b * np.asarray(weights)) @ dagger(b)


def _kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_k a[k] (x) b[k]`` for stacks of square matrices: one matrix
    product over ``k`` of the flattened members, no Kronecker product formed."""
    (k, m, _), n = a.shape, b.shape[1]
    out = a.reshape(k, m * m).T @ b.reshape(k, n * n)
    return out.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


def _block_mixture(blocks, basis: np.ndarray) -> np.ndarray:
    """``sum_k M_k (x) |b_k><b_k|`` over the unit-normalized columns of
    ``basis``: ``mixture`` with a matrix in place of each weight."""
    b = unit_columns(basis)
    return _kron_sum(np.asarray(blocks), np.einsum("xk,yk->kxy", b, np.conj(b)))


def _diagonals(family, basis: np.ndarray) -> np.ndarray:
    """Complex table ``D[i, j] = <b_j| F_i |b_j>`` for square ``F_i`` and the
    columns ``b_j`` of ``basis``: one batched product ``F @ B`` and one
    column-wise dot product, O(n d^2 m) for n members and m columns."""
    return np.einsum("aj,iaj->ij", np.conj(basis), np.asarray(family) @ basis)


def expectation_table(family, basis: np.ndarray) -> np.ndarray:
    """Real part of ``_diagonals``: the expectation values ``<b_j| F_i |b_j>``
    when every ``F_i`` is Hermitian."""
    return np.real(_diagonals(family, basis))


def bases_match(u, v) -> bool:
    """True when the columns of ``u`` and ``v`` agree up to permutation and phase.

    Both arguments must have orthonormal columns of equal count; the test
    asks that the overlap matrix ``|u^dag v|`` be a permutation matrix.
    """
    a = as_cmatrix(u)
    b = as_cmatrix(v)
    if a.shape != b.shape:
        return False
    overlap = np.abs(dagger(a) @ b)
    big = overlap >= 1.0 - BASES_MATCH_TOL
    return bool(np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1))


def _phase_fix(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive
    (the first component when none is significant; a zero one is left alone)."""
    out = np.array(u, dtype=np.complex128)
    m = out.shape[1]
    pivots = out.ravel()[(np.abs(out) > _SIGNIFICANT_TOL).argmax(axis=0) * m + np.arange(m)]
    moduli = np.hypot(pivots.real, pivots.imag)  # bit for bit the scalar abs()
    live = moduli > 0
    np.multiply(out, pivots.conj() / np.where(live, moduli, 1.0), out=out, where=live)
    return out


def _eigen_clusters(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group ascending eigenvalues into clusters of width ``tol``: indices
    whose value is within ``tol`` of the first value of their cluster."""
    values, starts = values.tolist(), [0]
    for i in range(1, len(values)):
        if values[i] - values[starts[-1]] > tol:
            starts.append(i)
    indices = np.arange(len(values))
    return [indices[a:b] for a, b in zip(starts, starts[1:] + [len(values)])]


def _grid_keys(x: np.ndarray) -> np.ndarray:
    """``round(v, _KEY_DIGITS)`` of every entry ``v`` of ``x``, bit for bit: ``rint(v 10^9) / 10^9``
    except where ``v 10^9`` may be inexact or its rounding may have crossed a half-integer."""
    large = np.abs(x) >= _KEY_EXACT_LIMIT
    scaled = np.where(large, 0.0, x) * 10.0**_KEY_DIGITS
    nearest = np.rint(scaled)
    keys = nearest / 10.0**_KEY_DIGITS
    tie = np.abs(np.abs(scaled - nearest) - 0.5) <= _KEY_ULP_SLACK * np.spacing(np.abs(scaled))
    for i in (tie | large).ravel().nonzero()[0]:
        keys.flat[i] = round(float(x.flat[i]), _KEY_DIGITS)
    return keys


@dataclass(frozen=True)
class SimultaneousDiagonalization:
    """Result of a joint diagonalization attempt.

    ``basis`` is a unitary whose columns diagonalize every family member,
    or None when the family fails to commute or the refined basis leaves an
    off-diagonal residual ``r`` above the bound (``tol`` times the largest
    member Frobenius norm ``s``, at least 1). ``witness`` is computed on
    first read, so the all-pairs commutator pass runs only for a verdict
    that needs it or for a read witness, and at most once:

    * an accept the certificate settles: the commutator bound
      ``4 s r + 2 r^2``, at most half the bound; no pass runs;
    * a verdict the pass decided: the largest commutator norm ``w`` of the
      adjoint-closed family;
    * a refusal by the residual alone: ``w`` when it exceeds the bound,
      else ``r``.
    """

    basis: np.ndarray | None
    measure: Callable[[], float] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> float:
        return self.measure()


def _adjoint_closure(family: np.ndarray, scale: float) -> np.ndarray:
    """``family`` followed by each adjoint that is not Hermitian within
    ``ROUNDOFF_TOL * scale`` and equals no member or earlier adjoint entry
    for entry (``_exact_keys``), in member order; an adjoint equal to a
    Hermitian one is Hermitian, so only the others are keyed."""
    adjoints = np.conj(family).transpose(0, 2, 1)
    skew = np.flatnonzero(np.linalg.norm(family - adjoints, axis=(1, 2)) > ROUNDOFF_TOL * scale)
    seen, keep = set(_exact_keys(family)), []
    for i, key in zip(skew, _exact_keys(adjoints[skew])):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return np.concatenate([family, adjoints[keep]])


@cache
def _drawn_prefix() -> np.ndarray:
    """The first ``_REFINE_PREFIX`` normals of the refinement's stream, read-only.
    Drawn on first use, not at import, which would import ``numpy.random``."""
    prefix = np.random.default_rng(_REFINE_SEED).standard_normal(_REFINE_PREFIX)
    prefix.flags.writeable = False
    return prefix


class _RefinementDraws:
    """``default_rng(_REFINE_SEED).standard_normal`` read from its start in
    chunks. The stream does not depend on how it is chunked, so a chunk
    within the first ``_REFINE_PREFIX`` normals is a slice of one prefix
    drawn once per process; the first chunk past it seeds a generator,
    advances it over what was read and serves the rest. A fresh reader per
    call replays the stream of a fresh ``default_rng(_REFINE_SEED)``,
    mostly without seeding one."""

    __slots__ = ("_drawn", "_rest")

    def __init__(self):
        self._drawn, self._rest = 0, None

    def standard_normal(self, size: int) -> np.ndarray:
        start = self._drawn
        self._drawn += size
        if self._drawn <= _REFINE_PREFIX:
            return _drawn_prefix()[start : self._drawn]
        if self._rest is None:
            self._rest = np.random.default_rng(_REFINE_SEED)
            self._rest.standard_normal(start)
        return self._rest.standard_normal(size)


def _row_norms(flat: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous ``(n, k k)`` array: bit
    for bit ``numpy.linalg.norm(m, axis=(1, 2))`` of the ``(n, k, k)`` stack
    ``m`` it is a view of, whose two reduced axes numpy walks as one."""
    return np.sqrt((flat.conj() * flat).real.sum(axis=1))


def _refine_blocks(
    family: np.ndarray, isometry: np.ndarray, rng, norms: np.ndarray | None = None
) -> list[np.ndarray]:
    """Split the range of ``isometry`` into joint eigenspaces of ``family``
    by the eigenvectors of the Hermitian part of random combinations
    ``sum_i z_i F_i`` restricted to it, recursing on each cluster of more
    than one eigenvalue. Only the root's isometry is square: the identity,
    and the root is handed the member Frobenius ``norms`` already taken.
    ``rng`` supplies the draws through its ``standard_normal``: a
    ``numpy.random.Generator`` or a ``_RefinementDraws``."""
    n, k = len(family), isometry.shape[1]
    root = k == len(isometry)
    restricted = np.ascontiguousarray(family) if root else dagger(isometry) @ family @ isometry
    # the members as rows; [:, :: k + 1] is each member's diagonal
    flat = restricted.reshape(n, k * k)
    spread = flat.copy()
    spread[:, :: k + 1] -= flat[:, :: k + 1].sum(axis=1)[:, None] / k
    if norms is None:
        norms = _row_norms(flat)
    if (_row_norms(spread) <= ZERO_TOL * np.maximum(1.0, norms)).all():
        return [isometry]
    for _ in range(8):
        c = rng.standard_normal(2 * n)
        # the (1, n) by (n, k k) product numpy.tensordot forms for sum_i z_i F_i
        combo = np.dot((c[0::2] - 1j * c[1::2])[None], flat).reshape(k, k)
        w, q = np.linalg.eigh((combo + dagger(combo)) / 2.0)
        clusters = _eigen_clusters(w, DEFAULT_TOL * max(1.0, abs(w[0]), abs(w[-1])))
        if len(clusters) > 1:
            blocks: list[np.ndarray] = []
            for cluster in clusters:
                part = isometry @ q[:, cluster]
                blocks.extend(_refine_blocks(family, part, rng) if len(cluster) > 1 else [part])
            return blocks
    # no random combination split this subspace; hand it back and let the
    # final verification decide
    return [isometry]


def _max_offdiagonal(family: np.ndarray, u: np.ndarray) -> float:
    """Largest Frobenius norm of the off-diagonal part of ``u^dag F u``."""
    k = u.shape[1]
    rotated = (dagger(u) @ family @ u).reshape(len(family), k * k)
    rotated[:, :: k + 1] = 0.0
    return math.sqrt(float((np.abs(rotated) ** 2).sum(axis=1).max()))


def _canonical_joint_basis(u: np.ndarray, family) -> np.ndarray:
    """Columns of ``u``, phase-fixed, in descending order of the real and
    imaginary parts of their diagonal values under each member of
    ``family``; columns whose diagonal keys tie are ordered by their
    components."""
    u = _phase_fix(u)
    keys = -_grid_keys(np.ascontiguousarray(_diagonals(family, u).T).view(np.float64))
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).all(axis=1).any():
        components = _grid_keys(np.ascontiguousarray(u.T).view(np.float64))
        order = np.lexsort(np.concatenate([keys, components], axis=1).T[::-1])
    return u[:, order]


def simultaneous_diagonalize(family, tol: float | None = None) -> SimultaneousDiagonalization:
    """Find a common eigenbasis for a commuting family of matrices.

    ``family`` is one ``(n, d, d)`` stack (or anything ``numpy.asarray``
    makes one of); its shape and finiteness are checked once. A basis ``u``
    is built from the Hermitian part of a random complex combination of the
    family (coefficients from ``_RefinementDraws``), refined recursively on
    degenerate clusters (the randomized joint diagonalization of He &
    Kressner, arXiv:2212.07248), and certified once by the off-diagonal
    residual ``r`` of ``u^dag F u`` (``u^dag F^dag u`` has the same). The
    bound is ``tol`` (default ``DEFAULT_TOL``) times the family's largest
    Frobenius norm ``s``, at least 1. With ``r`` within the bound no commutator of the adjoint-closed
    family exceeds ``4 s r + 2 r^2``; below ``_CERTIFICATE_MARGIN`` of the
    bound (room for roundoff in ``r`` and in ``u``'s unitarity) that accepts
    ``u``. Otherwise a residual within the bound leaves the verdict to the
    largest commutator norm of the adjoint closure, and a residual above it
    refuses. The witness is measured as ``SimultaneousDiagonalization``
    states.
    """
    stack = _checked_stack(family)
    norms = np.linalg.norm(stack, axis=(1, 2))
    largest = float(norms.max())
    scale = max(1.0, largest)
    bound = (DEFAULT_TOL if tol is None else tol) * scale
    root = np.eye(stack.shape[1], dtype=np.complex128)
    u = np.concatenate(_refine_blocks(stack, root, _RefinementDraws(), norms), axis=1)
    r = _max_offdiagonal(stack, u)
    certificate = 4.0 * largest * r + 2.0 * r * r
    if r <= bound and certificate < _CERTIFICATE_MARGIN * bound:  # strict: a zero bound settles nothing
        return SimultaneousDiagonalization(_canonical_joint_basis(u, stack), lambda: certificate)

    def measured() -> float:
        return max_commutator_norm(_adjoint_closure(stack, scale))

    if r > bound:
        return SimultaneousDiagonalization(None, lambda: w if (w := measured()) > bound else r)
    w = measured()
    return SimultaneousDiagonalization(_canonical_joint_basis(u, stack) if w <= bound else None, lambda: w)
