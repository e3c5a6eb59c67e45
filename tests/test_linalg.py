"""Dense linear-algebra layer: partial traces, canonical phases, joint diagonalization."""
from __future__ import annotations

import ast
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr
from qcorr import linalg
from qcorr.linalg import (
    bases_match,
    commutator_norm,
    dagger,
    expectation_table,
    frobenius,
    has_orthonormal_columns,
    max_commutator_norm,
    partial_trace,
    simultaneous_diagonalize,
)
from qcorr.sampling import haar_unitary, random_state
from qcorr.structure import _block_family

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + dagger(g)) / 2.0


# -- partial trace ----------------------------------------------------------------


def test_partial_trace_splits_kron_products():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = _random_hermitian(2, rng)
        b = _random_hermitian(3, rng)
        m = np.kron(a, b)
        assert np.allclose(partial_trace(m, (2, 3), keep=(0,)), a * np.trace(b), atol=1e-12)
        assert np.allclose(partial_trace(m, (2, 3), keep=(1,)), b * np.trace(a), atol=1e-12)
        assert np.allclose(partial_trace(m, (2, 3), keep=()), [[np.trace(a) * np.trace(b)]])


def test_partial_trace_three_factors_keeps_relative_order():
    rng = np.random.default_rng(8)
    a = _random_hermitian(2, rng)
    b = _random_hermitian(2, rng)
    c = _random_hermitian(3, rng)
    m = np.kron(np.kron(a, b), c)
    kept = partial_trace(m, (2, 2, 3), keep=(0, 2))
    assert np.allclose(kept, np.kron(a, c) * np.trace(b), atol=1e-12)


def test_partial_trace_rejects_bad_shapes():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), keep=(0,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), keep=(2,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, -3), keep=(0,))


# -- elementary norms --------------------------------------------------------------


def test_commutator_norm_of_pauli_pair():
    # [X, Z] = -2iY, whose Frobenius norm is 2 sqrt(2)
    assert commutator_norm(PAULI_X, PAULI_Z) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)
    assert commutator_norm(PAULI_X, PAULI_X) == 0.0


def _commutator_family(kind: str, n: int, d: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    if kind == "hermitian":
        return [(m + dagger(m)) / 2.0 for m in g]
    if kind == "adjoint-closed":
        half = list(g[: n // 2])
        return half + [dagger(m) for m in half] + [(m + dagger(m)) / 2.0 for m in g[2 * (n // 2) :]]
    return list(g)  # non-normal


@pytest.mark.parametrize("rows", [None, 1, 3])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["hermitian", "non-normal", "adjoint-closed"]),
    n=st.integers(0, 40),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_commutator_norm_matches_every_ordered_pair(rows, kind, n, d, seed):
    # rows=None keeps the module's block size; 1 and 3 force that many rows
    # per block, so several blocks and the triangle edges inside them run
    family = _commutator_family(kind, n, d, seed)
    oracle = max((commutator_norm(a, b) for a in family for b in family), default=0.0)
    block = linalg._PAIR_BLOCK_ENTRIES if rows is None else rows * max(1, n) * d * d
    with mock.patch.object(linalg, "_PAIR_BLOCK_ENTRIES", block):
        got = max_commutator_norm(family)
    scale = max([1.0] + [frobenius(m) ** 2 for m in family])
    assert abs(got - oracle) <= 1e-15 * scale


def test_frobenius_and_dagger():
    m = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert frobenius(m) == pytest.approx(np.sqrt(6.0))
    assert np.array_equal(dagger(m), np.conj(m).T)


def test_has_orthonormal_columns():
    assert has_orthonormal_columns(np.eye(4)[:, :2])
    assert not has_orthonormal_columns(np.ones((3, 2)))


# -- bases_match --------------------------------------------------------------------


def test_bases_match_up_to_permutation_and_phase():
    rng = np.random.default_rng(11)
    u = haar_unitary(4, rng)
    perm = u[:, [2, 0, 3, 1]] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    assert bases_match(u, perm)
    assert not bases_match(u, haar_unitary(4, rng))
    assert not bases_match(u, u[:, :3])


def _phase_fix_by_columns(u: np.ndarray) -> np.ndarray:
    """The column loop ``_phase_fix`` replaced, kept as its reference."""
    out = np.array(u, dtype=np.complex128, copy=True)
    for c in range(out.shape[1]):
        col = out[:, c]
        idx = int(np.argmax(np.abs(col) > linalg._SIGNIFICANT_TOL))
        z = col[idx]
        if abs(z) > 0:
            out[:, c] = col * (np.conj(z) / abs(z))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 8), split=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_phase_fix_matches_the_column_loop_bit_for_bit(d, split, seed):
    # eigenvectors of a Hermitian matrix with an exact zero block have exact
    # zero components, so pivots fall on later rows too
    rng = np.random.default_rng(seed)
    h = _random_hermitian(d, rng)
    k = min(split, d)
    h[:k, k:] = 0.0
    h[k:, :k] = 0.0
    bases = [np.linalg.eigh(h)[1]]
    # a Haar unitary with a zero column and one with no significant
    # component; skipped at d = 1, where numpy rounds a one-element product
    # by another path and the package only ever passes [[1]]
    if d > 1:
        w = haar_unitary(d, rng)
        w[:, 0] = 0.0
        w[:, -1] *= linalg._SIGNIFICANT_TOL / 4.0
        bases.append(w)
    for v in bases:
        assert _phase_fix_by_columns(v).tobytes() == linalg._phase_fix(v).tobytes()


def _canonical_by_full_keys(u: np.ndarray, gens: list[np.ndarray]) -> np.ndarray:
    """The sort ``_canonical_joint_basis`` replaced: one key per column, the
    diagonal values and then every component, each rounded to the grid."""

    def lexicographic(col):
        return tuple(
            (round(float(z.real), linalg._KEY_DIGITS), round(float(z.imag), linalg._KEY_DIGITS))
            for z in col
        )

    u = linalg._phase_fix(u)
    diag = expectation_table(gens, u)
    keys = [
        (tuple(-round(float(x), linalg._KEY_DIGITS) for x in diag[:, c]), lexicographic(u[:, c]))
        for c in range(u.shape[1])
    ]
    return u[:, sorted(range(u.shape[1]), key=lambda c: keys[c])]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 7),
    n_gens=st.integers(1, 3),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_joint_basis_keeps_the_full_key_order(d, n_gens, levels, seed):
    # few distinct eigenvalues per generator leave clusters of equal
    # diagonal keys, which only the component keys order
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    gens = [(u * rng.integers(0, levels, d).astype(float)) @ dagger(u) for _ in range(n_gens)]
    v = u[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
    assert linalg._canonical_joint_basis(v, gens).tobytes() == _canonical_by_full_keys(v, gens).tobytes()


def _key_floats():
    """Floats that stress ``_grid_keys``: any finite float, points on and next
    to the half grid (k + 1/2) 1e-9, signed zeros, subnormals, and values
    next to the magnitude from which the scaled product may be inexact."""
    half = st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) * 1e-9)
    ulp = float(np.spacing(linalg._KEY_EXACT_LIMIT))
    limit = st.integers(-64, 64).map(lambda k: linalg._KEY_EXACT_LIMIT + k * ulp)
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e3, 1e3),
        half,
        half.map(lambda x: float(np.nextafter(x, np.inf))),
        half.map(lambda x: float(np.nextafter(x, -np.inf))),
        st.integers(-(10**6), 10**6).map(lambda k: k / 2**10),  # exact halves of the grid
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
        st.floats(-2.2250738585072009e-308, 2.2250738585072009e-308),
        limit,
        limit.map(lambda x: -x),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_key_floats(), min_size=1, max_size=24))
def test_grid_keys_equal_builtin_round_bit_for_bit(values):
    # builtin round of a Python float: numpy's own round of np.float64 scales and rints
    want = np.array([round(float(v), linalg._KEY_DIGITS) for v in values])
    assert linalg._grid_keys(np.array(values)).tobytes() == want.tobytes()


def _eigen_clusters_by_lists(values, tol):
    """The clustering ``_eigen_clusters`` replaced, kept as its reference."""
    clusters = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[clusters[-1][0]]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [np.asarray(c) for c in clusters]


def _refine_blocks_by_recursion(family, isometry, rng):
    """The refinement ``_refine_blocks`` replaced, kept as its reference: it
    restricts at the root too, forms the trace times identity tensor, and
    recurses into every cluster."""
    k = isometry.shape[1]
    if k == 1:
        return [isometry]
    restricted = dagger(isometry) @ family @ isometry
    spread = restricted - np.trace(restricted, axis1=1, axis2=2)[:, None, None] / k * np.eye(k)
    norms = np.linalg.norm(restricted, axis=(1, 2))
    if np.all(np.linalg.norm(spread, axis=(1, 2)) <= linalg.ZERO_TOL * np.maximum(1.0, norms)):
        return [isometry]
    for _ in range(8):
        c = rng.standard_normal(2 * len(family))
        combo = np.tensordot(c[0::2] - 1j * c[1::2], restricted, axes=1)
        w, q = np.linalg.eigh((combo + dagger(combo)) / 2.0)
        clusters = _eigen_clusters_by_lists(w, linalg.DEFAULT_TOL * max(1.0, float(np.max(np.abs(w)))))
        if len(clusters) > 1:
            blocks = []
            for cluster in clusters:
                blocks.extend(_refine_blocks_by_recursion(family, isometry @ q[:, cluster], rng))
            return blocks
    return [isometry]


def _adjoint_closure_by_unique(family, scale):
    """The closure ``_adjoint_closure`` replaced, kept as its reference: one
    ``numpy.unique`` over the byte keys of every member and adjoint."""
    n = len(family)
    adjoints = np.conj(family).transpose(0, 2, 1)
    rows = (np.concatenate([family, adjoints]) + 0.0).reshape(2 * n, -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    _, first = np.unique(keys, return_index=True)
    unseen = np.zeros(2 * n, dtype=bool)
    unseen[first] = True
    keep = unseen[n:] & (np.linalg.norm(family - adjoints, axis=(1, 2)) > linalg.ROUNDOFF_TOL * scale)
    return np.concatenate([family, adjoints[keep]])


def _bookkeeping_family(kind: str, d: int, seed: int) -> np.ndarray:
    """A stack whose refinement meets degenerate clusters, exact and signed
    zeros, or no common basis at all."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 4
    if kind == "planted-degenerate":
        return np.stack(_planted_family("planted-hermitian", n, d, seed))
    if kind == "normal":
        return np.stack(_planted_family("planted-normal", n, d, seed))
    if kind == "generic":
        return np.stack(_commutator_family("non-normal", n, d, seed))
    if kind == "exact-zero-diagonal":
        # diagonal members with exact zeros; negated ones carry -0.0 off the diagonal
        spectra = rng.integers(-1, 2, (n, d)).astype(np.complex128)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None, None]
        return signs * (spectra[:, :, None] * np.eye(d))
    # powers of one signed permutation: commuting, normal, entries 0 and +-1
    p = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
    return np.stack([np.linalg.matrix_power(p, j + 1) for j in range(n)]).astype(np.complex128)


@pytest.mark.parametrize(
    "kind", ["planted-degenerate", "exact-zero-diagonal", "signed-permutation", "normal", "generic"]
)
def test_bookkeeping_matches_the_references_bit_for_bit(kind):
    for d in range(1, 13):
        for seed in range(4):
            stack = _bookkeeping_family(kind, d, seed)
            eye = np.eye(d, dtype=np.complex128)
            got = linalg._refine_blocks(stack, eye, np.random.default_rng(seed))
            want = _refine_blocks_by_recursion(stack, eye, np.random.default_rng(seed))
            assert np.concatenate(got, axis=1).tobytes() == np.concatenate(want, axis=1).tobytes()
            # repeated members and an adjoint that is already a member exercise the deduplication
            padded = np.concatenate([stack, np.conj(stack[:1]).transpose(0, 2, 1), stack[-1:]])
            scale = max(1.0, float(np.max(np.linalg.norm(padded, axis=(1, 2)))))
            closure = linalg._adjoint_closure(padded, scale)
            assert closure.tobytes() == _adjoint_closure_by_unique(padded, scale).tobytes()


# -- simultaneous diagonalization ----------------------------------------------------


def test_simdiag_recovers_planted_common_basis():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 5):
        u = haar_unitary(d, rng)
        family = [(u * rng.standard_normal(d)) @ dagger(u) for _ in range(3)]
        result = simultaneous_diagonalize(family)
        assert result.basis is not None
        assert result.witness <= 1e-9
        for m in family:
            rotated = dagger(result.basis) @ m @ result.basis
            off = rotated - np.diag(np.diag(rotated))
            assert frobenius(off) <= 1e-8
        assert bases_match(result.basis, u)


def test_simdiag_reports_noncommuting_witness():
    result = simultaneous_diagonalize([PAULI_X, PAULI_Z])
    assert result.basis is None
    assert result.witness == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_simdiag_diagonal_family_returns_computational_basis():
    family = [np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.5, -1.0])]
    result = simultaneous_diagonalize(family)
    assert result.basis is not None
    assert bases_match(result.basis, np.eye(3))


def test_simdiag_splits_degenerate_clusters():
    rng = np.random.default_rng(41)
    u = haar_unitary(3, rng)
    first = (u * np.array([1.0, 1.0, 2.0])) @ dagger(u)
    second = (u * np.array([3.0, 4.0, 5.0])) @ dagger(u)
    result = simultaneous_diagonalize([first, second])
    assert result.basis is not None
    assert bases_match(result.basis, u)


def test_simdiag_closes_family_under_adjoints():
    # a normal but non-Hermitian matrix exercises the adjoint closure path
    rng = np.random.default_rng(43)
    u = haar_unitary(3, rng)
    normal = (u * (rng.standard_normal(3) + 1j * rng.standard_normal(3))) @ dagger(u)
    result = simultaneous_diagonalize([normal])
    assert result.basis is not None
    assert bases_match(result.basis, u)


def test_simdiag_zero_family_and_validation():
    result = simultaneous_diagonalize([np.zeros((3, 3))])
    assert result.basis is not None
    with pytest.raises(ValueError):
        simultaneous_diagonalize([])
    with pytest.raises(ValueError):
        simultaneous_diagonalize([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        simultaneous_diagonalize(np.full((2, 3, 3), np.nan))
    # a stack of 0 x 0 matrices is refused before any arithmetic warns
    message = "family must be a non-empty stack of square matrices, got (2, 0, 0)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            simultaneous_diagonalize(np.ones((2, 0, 0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chunks=st.lists(st.integers(0, 1500), max_size=12))
@example(chunks=[linalg._REFINE_PREFIX, 1])
@example(chunks=[linalg._REFINE_PREFIX - 1, 2, 0, 3])
@example(chunks=[2 * linalg._REFINE_PREFIX + 5, 7])
def test_refinement_draws_are_the_seeded_stream_in_any_chunks(chunks):
    draws, generator = linalg._RefinementDraws(), np.random.default_rng(linalg._REFINE_SEED)
    for size in chunks:
        assert draws.standard_normal(size).tobytes() == generator.standard_normal(size).tobytes()


def test_refinement_reads_a_generator_and_the_draws_alike_across_the_prefix():
    # both sources stop 100 normals short of the prefix; the first combination
    # of 120 members draws 240, so the refinement reads across it
    stack = np.stack(_planted_family("planted-hermitian", 120, 6, 5))
    eye = np.eye(6, dtype=np.complex128)
    draws, generator = linalg._RefinementDraws(), np.random.default_rng(linalg._REFINE_SEED)
    for source in (draws, generator):
        source.standard_normal(linalg._REFINE_PREFIX - 100)
    got = np.concatenate(linalg._refine_blocks(stack, eye, draws), axis=1)
    want = np.concatenate(linalg._refine_blocks(stack, eye, generator), axis=1)
    assert got.shape == (6, 6) and got.tobytes() == want.tobytes()
    assert draws.standard_normal(5).tobytes() == generator.standard_normal(5).tobytes()


def _planted_family(kind: str, n: int, d: int, seed: int) -> list[np.ndarray]:
    """``n`` matrices diagonal in one Haar basis: Hermitian with eigenvalues
    from {0, 1, 2} (so joint eigenspaces stay degenerate), or normal with
    complex Gaussian eigenvalues."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    if kind == "planted-hermitian":
        spectra = rng.integers(0, 3, (n, d)).astype(np.complex128)
    else:
        spectra = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return [(u * s) @ dagger(u) for s in spectra]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["hermitian", "non-normal", "adjoint-closed", "planted-hermitian", "planted-normal"]
    ),
    n=st.integers(1, 8),
    d=st.integers(1, 6),
    tol=st.sampled_from([None, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simdiag_list_and_stack_agree_and_every_basis_is_certified(kind, n, d, tol, seed):
    make = _planted_family if kind.startswith("planted") else _commutator_family
    family = make(kind, n, d, seed)
    from_list = simultaneous_diagonalize(family, tol)
    from_stack = simultaneous_diagonalize(np.stack(family), tol)
    assert float(from_list.witness).hex() == float(from_stack.witness).hex()
    if kind.startswith("planted"):
        assert from_list.basis is not None
    if from_list.basis is None:
        assert from_stack.basis is None
        return
    assert from_list.basis.tobytes() == from_stack.basis.tobytes()
    u = from_list.basis
    assert has_orthonormal_columns(u)
    scale = max([1.0] + [frobenius(m) for m in family])
    bound = (linalg.DEFAULT_TOL if tol is None else tol) * scale
    for m in family:
        rotated = dagger(u) @ m @ u
        assert frobenius(rotated - np.diag(np.diag(rotated))) <= bound


def _simdiag_all_pairs_first(family: np.ndarray, tol):
    """The all-pairs-first ``simultaneous_diagonalize`` the certificate-first
    one replaced, kept as its reference: ``(basis, witness)``, with the
    refined basis's residual and the largest member norm."""
    norms = np.linalg.norm(family, axis=(1, 2))
    largest = float(np.max(norms))
    scale = max(1.0, largest)
    bound = (linalg.DEFAULT_TOL if tol is None else tol) * scale
    witness = max_commutator_norm(linalg._adjoint_closure(family, scale))
    if witness > bound:
        return None, witness, None, largest
    root = np.eye(family.shape[1], dtype=np.complex128)
    u = np.concatenate(linalg._refine_blocks(family, root, np.random.default_rng(0x51D1A6), norms), axis=1)
    r = linalg._max_offdiagonal(family, u)
    if r > bound:
        return None, max(witness, r), r, largest
    return linalg._canonical_joint_basis(u, family), witness, r, largest


def test_certificate_first_simdiag_matches_the_all_pairs_reference():
    # a certified accept reports 4 s r + 2 r^2, which bounds the all-pairs
    # value up to the roundoff of the commutator GEMMs; all else is bit for bit
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["planted", "generic", "band"]),
        n=st.integers(1, 6),
        d=st.integers(1, 6),
        tol=st.sampled_from([None, 1e-6]),
        decades=st.floats(-1.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def agree(kind, n, d, tol, decades, seed):
        if kind == "generic":
            family = np.stack(_commutator_family("non-normal", n, d, seed))
        else:
            family = np.stack(_planted_family("planted-hermitian" if seed % 2 else "planted-normal", n, d, seed))
        if kind == "band":
            eps = (linalg.DEFAULT_TOL if tol is None else tol) * 10.0**decades
            family = family + eps * np.stack(_commutator_family("non-normal", n, d, seed + 1))
        got = simultaneous_diagonalize(family, tol)
        basis, witness, r, largest = _simdiag_all_pairs_first(family, tol)
        assert (got.basis is None) == (basis is None)
        if basis is None:
            outcomes.add("refused")
            assert float(got.witness).hex() == float(witness).hex()
            return
        assert got.basis.tobytes() == basis.tobytes()
        scale = max(1.0, largest)
        certificate = 4.0 * largest * r + 2.0 * r * r
        if certificate < linalg._CERTIFICATE_MARGIN * (linalg.DEFAULT_TOL if tol is None else tol) * scale:
            outcomes.add("certified")
            assert float(got.witness).hex() == float(certificate).hex()
            assert got.witness >= witness - 16 * d * np.finfo(float).eps * scale**2
        else:
            outcomes.add("measured")
            assert float(got.witness).hex() == float(witness).hex()

    agree()
    assert outcomes == {"refused", "certified", "measured"}


def test_witness_is_measured_only_when_read(monkeypatch):
    # a generic side family is refused by its residual alone; the all-pairs
    # pass runs on the first witness read and never again
    family = _block_family(random_state((3, 3), np.random.default_rng(19)), "B")[0]
    passes = []
    kernel = linalg.max_commutator_norm
    monkeypatch.setattr(linalg, "max_commutator_norm", lambda f: passes.append(1) or kernel(f))
    result = simultaneous_diagonalize(family)
    assert result.basis is None and passes == []
    first, second = result.witness, result.witness
    assert len(passes) == 1
    reference = _simdiag_all_pairs_first(family, None)[1]
    assert float(first).hex() == float(second).hex() == float(reference).hex()


# -- tolerance policy ---------------------------------------------------------------

_CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _unnamed_thresholds(path: Path) -> list[str]:
    """``file:line`` of every float literal in (0, 1e-6) that is not inside a
    module-level ``UPPER_CASE = ...`` assignment, and of every ``round`` call
    given its digit count as a literal (a 1e-digits grid)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
            isinstance(t, ast.Name) and _CONSTANT_NAME.fullmatch(t.id) for t in node.targets
        ):
            named.update(id(n) for n in ast.walk(node.value))
    lines = sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant)
        and isinstance(n.value, float)
        and 0.0 < n.value < 1e-6
        and id(n) not in named
        or isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "round"
        and any(isinstance(a, ast.Constant) for a in n.args[1:] + [k.value for k in n.keywords])
    )
    return [f"{path.name}:{line}" for line in lines]


def test_every_threshold_literal_is_a_named_constant():
    package = Path(qcorr.__file__).parent
    hits = [hit for path in sorted(package.glob("*.py")) for hit in _unnamed_thresholds(path)]
    assert hits == [], f"unnamed thresholds: {', '.join(hits)}"
