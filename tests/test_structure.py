"""One-sided classicality, channel-type extraction, and steered residuals."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import linalg, structure
from qcorr.channels import ChoiChannel, apply_one_sided
from qcorr.fixtures import (
    CQ_RESIDUAL_COMMUTATOR,
    NONCLOSURE_WITNESS,
    P1,
    P2_REPAIRED,
    cq_input_mixture,
    cq_residual_states,
    cq_witness_state,
    fourier_basis,
    measurement_from_stochastic,
    nonclosure_channel,
    nonclosure_input,
    stochastic_channel,
    trine_map,
    von_neumann_map,
)
from qcorr.linalg import (
    ORTHONORMAL_TOL,
    ZERO_TOL,
    _block_mixture,
    as_cmatrix,
    bases_match,
    commutator_norm,
    dagger,
    frobenius,
    has_orthonormal_columns,
    unit_columns,
)
from qcorr.sampling import haar_unitary, random_kraus_channel, random_measurement_map, random_state
from qcorr.states import QuantumState, maximally_entangled
from qcorr.structure import (
    _block_family,
    cc_type_extract,
    classical_side_basis,
    classify_state,
    correlation_label,
    in_cc_set,
    multipartite_qc_check,
    qc_type_extract,
    residual_decomposition,
)


def _identity_channel(d: int) -> ChoiChannel:
    return ChoiChannel(maximally_entangled(d))


def _maximally_mixed(dims) -> QuantumState:
    return QuantumState(np.eye(int(np.prod(dims))) / np.prod(dims), dims)


def _output_state(decomp) -> QuantumState:
    """``(1 (x) L)(rho)`` reassembled from the raw blocks of a residual decomposition."""
    out = _block_mixture(decomp.raw_blocks, decomp.pointer_basis)
    return QuantumState._derived(out, (decomp.raw_blocks[0].shape[0], decomp.pointer_basis.shape[0]))


def _star_mix(rho_ab: QuantumState, lam: float) -> QuantumState:
    """Convex path ``lam * rho + (1 - lam) * 1/D`` toward the maximally mixed state."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    mixed = _maximally_mixed(rho_ab.dims)
    return QuantumState._derived(lam * rho_ab.matrix + (1.0 - lam) * mixed.matrix, rho_ab.dims)


def _schmidt_state(coefficients, basis_a, basis_b) -> QuantumState:
    """Pure state ``sum_i c_i |a_i>|b_i>`` from matched orthonormal columns.

    Coefficients must be nonnegative reals with unit square sum (the
    state's unit-trace check); the bases must have one column per
    coefficient and are used with unit-normalized columns.
    """
    c = np.asarray(coefficients, dtype=float).reshape(-1)
    if float(np.min(c)) < -ZERO_TOL:
        raise ValueError("Schmidt coefficients must be nonnegative")
    a = as_cmatrix(basis_a, name="basis_a")
    b = as_cmatrix(basis_b, name="basis_b")
    if a.shape[1] != len(c) or b.shape[1] != len(c):
        raise ValueError("need one basis column per coefficient")
    for m, label in ((a, "basis_a"), (b, "basis_b")):
        if not has_orthonormal_columns(m):
            raise ValueError(f"{label} columns are not orthonormal within {ORTHONORMAL_TOL:g}")
    psi = np.einsum("i,ai,bi->ab", c, unit_columns(a), unit_columns(b)).reshape(-1)
    return QuantumState.from_vector(psi, (a.shape[0], b.shape[0]))


def _basis_permutation(basis: np.ndarray) -> list[int]:
    """Map each column of a (phase-rotated) computational basis to its index."""
    perm = []
    for col in np.asarray(basis).T:
        idx = int(np.argmax(np.abs(col)))
        assert abs(abs(col[idx]) - 1.0) <= 1e-8, "column is not a computational vector"
        perm.append(idx)
    return perm


def _aligned_transition(cc) -> np.ndarray:
    """Undo the extraction's outcome and preparation relabeling."""
    out_perm = _basis_permutation(cc.measurement.pointer_basis)
    in_perm = _basis_permutation(cc.eigenbasis)
    t = cc.transition.matrix
    aligned = np.zeros_like(t)
    for k in range(t.shape[0]):
        for i in range(t.shape[1]):
            aligned[out_perm[k], in_perm[i]] = t[k, i]
    return aligned


def _bell_basis() -> np.ndarray:
    b = np.zeros((4, 4), dtype=np.complex128)
    s = 1.0 / np.sqrt(2.0)
    b[:, 0] = [s, 0, 0, s]
    b[:, 1] = [s, 0, 0, -s]
    b[:, 2] = [0, s, s, 0]
    b[:, 3] = [0, s, -s, 0]
    return b


# -- classify_state ----------------------------------------------------------------


def test_classify_product_state_is_cc():
    rng = np.random.default_rng(3)
    a = random_state(2, rng)
    b = random_state(3, rng)
    joint = QuantumState(np.kron(a.matrix, b.matrix), (2, 3))
    assert classify_state(joint) == "CC"


def test_classify_entangled_state_is_neither():
    assert classify_state(maximally_entangled(2)) == "neither"
    assert classify_state(maximally_entangled(3)) == "neither"


def test_classify_one_sided_states():
    rho = cq_witness_state()
    assert classify_state(rho) == "QC-only"
    # swapping the factors turns QC into CQ
    swap = rho.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert classify_state(QuantumState(swap, (2, 2))) == "CQ-only"


def test_classical_side_basis_extracts_the_ensemble():
    rho = cq_witness_state()
    on_b = classical_side_basis(rho, "B")
    assert on_b
    assert bases_match(on_b.basis, np.eye(2))
    perm = _basis_permutation(on_b.basis)
    probs = np.empty(2)
    probs[perm] = on_b.probabilities
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    rho0, rho1 = cq_residual_states()
    blocks = [on_b.blocks[perm.index(0)], on_b.blocks[perm.index(1)]]
    assert frobenius(blocks[0].matrix - rho0.matrix) <= 1e-10
    assert frobenius(blocks[1].matrix - rho1.matrix) <= 1e-10
    on_a = classical_side_basis(rho, "A")
    assert not on_a
    assert on_a.witness > 1e-3


def test_classical_side_basis_builds_its_ensemble_on_first_read_once(monkeypatch):
    built = []
    build = structure._ensemble
    monkeypatch.setattr(structure, "_ensemble", lambda *args: built.append(build(*args)) or built[-1])
    rho = cq_witness_state()
    on_a, on_b = classical_side_basis(rho, "A"), classical_side_basis(rho, "B")
    assert not on_a and on_b
    assert on_a.basis is None and on_b.basis is not None
    assert on_a.witness > 1e-3 and on_b.witness <= 1e-9
    assert built == []
    assert on_a.probabilities is None and on_a.blocks is None and built == []
    for order in (("probabilities", "blocks"), ("blocks", "probabilities")):
        built.clear()
        found = classical_side_basis(rho, "B")
        reads = [(name, getattr(found, name)) for name in order * 2]
        assert len(built) == 1
        probs, blocks = built[0]
        assert all(value is (probs if name == "probabilities" else blocks) for name, value in reads)


def test_classical_side_basis_rejects_non_bipartite():
    with pytest.raises(ValueError):
        classical_side_basis(_maximally_mixed(4), "B")
    with pytest.raises(ValueError):
        classical_side_basis(maximally_entangled(2), "C")


def test_side_family_reaches_the_commutator_kernel_once_per_member(monkeypatch):
    # the (m, n) and (n, m) blocks of a stored state are exact adjoints, so
    # the closure of the 9-member side-B family of a 3x3 state adds nothing
    sizes = []
    kernel = linalg._orbit_max

    def spy(family, *keys):
        sizes.append(len(family))
        return kernel(family, *keys)

    monkeypatch.setattr(linalg, "_orbit_max", spy)
    assert not classical_side_basis(random_state((3, 3), np.random.default_rng(5)), "B")
    assert sizes == [9]


def _side_test_state(kind: str, dims: tuple[int, int], side: str, eps: float, rng) -> QuantumState:
    """A generic state, or one classical on ``side`` ("planted"), or that
    one mixed with a fraction ``eps`` of a generic state ("band")."""
    if kind == "generic":
        return random_state(dims, rng)
    d_side = dims[1] if side == "B" else dims[0]
    d_other = dims[0] if side == "B" else dims[1]
    u = haar_unitary(d_side, rng)
    m = 0.0
    for k, p in enumerate(rng.dirichlet(np.ones(d_side))):
        pair = (random_state(d_other, rng).matrix, np.outer(u[:, k], np.conj(u[:, k])))
        m = m + p * np.kron(*(pair if side == "B" else pair[::-1]))
    if kind == "band":
        m = (1.0 - eps) * m + eps * random_state(dims, rng).matrix
    return QuantumState((m + dagger(m)) / 2.0, dims)


def test_certificate_first_verdicts_match_the_witness_route(monkeypatch):
    # a verdict read without its witness accepts on the certificate alone
    # unless its commutator bound nears tol; the fallback branch must run on the band
    fallbacks = []
    kernel = linalg._orbit_max
    passes = []
    monkeypatch.setattr(linalg, "_orbit_max", lambda *keyed: passes.append(1) or kernel(*keyed))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["planted", "generic", "band"]),
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        side=st.sampled_from("AB"),
        tol=st.sampled_from([1e-11, 1e-9, 1e-6]),
        decades=st.floats(-1.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def agree(kind, dims, side, tol, decades, seed):
        rho = _side_test_state(kind, dims, side, tol * 10.0**decades, np.random.default_rng(seed))
        sides = []
        for tested in "AB":
            before = len(passes)
            basis = linalg.simultaneous_diagonalize(_block_family(rho, tested)[0], tol).basis
            fallbacks.append(len(passes) > before)
            sides.append(classical_side_basis(rho, tested, tol))
            assert (basis is None) == (sides[-1].basis is None)
            if basis is not None:
                assert basis.tobytes() == sides[-1].basis.tobytes()
        assert classify_state(rho, tol) == correlation_label(*sides)

    agree()
    assert any(fallbacks) and not all(fallbacks)


def test_certified_verdicts_skip_the_commutator_pass_at_d6(monkeypatch):
    calls = []
    kernel = linalg._orbit_max
    monkeypatch.setattr(linalg, "_orbit_max", lambda f, *keys: calls.append(len(f)) or kernel(f, *keys))
    rng = np.random.default_rng(6)
    mm = random_measurement_map(6, rng, n_outcomes=7, d_out=7)
    channel = ChoiChannel.from_measurement_map(mm)
    qc_output = apply_one_sided(channel, random_state((6, 6), rng), "B")
    assert classify_state(qc_output) == "QC-only"
    assert qc_type_extract(channel) is not None
    assert cc_type_extract(channel) is None
    assert calls == []


def _accepted_side_peak(d: int) -> float:
    """Peak traced bytes of ``classical_side_basis`` on side B of a d x d
    state classical on B, after checking that it recovers the planted basis."""
    rng = np.random.default_rng(d)
    u = haar_unitary(d, rng)
    probs = rng.dirichlet(np.ones(d))
    m = sum(
        p * np.kron(random_state(d, rng).matrix, np.outer(u[:, k], np.conj(u[:, k])))
        for k, p in enumerate(probs)
    )
    rho = QuantumState((m + dagger(m)) / 2.0, (d, d))
    tracemalloc.start()
    try:
        result = classical_side_basis(rho, "B")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result and bases_match(result.basis, u)
    return peak


def test_classical_side_basis_memory_is_bounded_at_d16():
    assert _accepted_side_peak(16) < 200 * 2**20


def test_accepted_side_skips_the_all_pairs_memory_at_d24():
    # the certificate accepts with no commutator pass: about 15 MB, where
    # the all-pairs pass over the 576-member family peaks at about 35 MB
    assert _accepted_side_peak(24) < 25 * 2**20


# -- qc_type_extract ----------------------------------------------------------------


def test_qc_extract_recovers_random_measurement_maps():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        mm = random_measurement_map(d, rng, n_outcomes=d, d_out=d)
        ch = ChoiChannel.from_measurement_map(mm)
        got = qc_type_extract(ch)
        assert got is not None
        assert bases_match(got.pointer_basis, mm.pointer_basis)
        rebuilt = ChoiChannel.from_measurement_map(got)
        assert frobenius(rebuilt.choi.matrix - ch.choi.matrix) <= 1e-9


def test_qc_extract_effects_from_choi_blocks():
    # effects are d_in times the transposed Choi blocks; cross-check the
    # probabilities they produce against the channel's own action
    rng = np.random.default_rng(13)
    mm = trine_map()
    ch = ChoiChannel.from_measurement_map(mm)
    got = qc_type_extract(ch)
    assert got is not None
    for _ in range(5):
        rho = random_state(2, rng)
        assert np.allclose(
            sorted(got.probabilities(rho)), sorted(mm.probabilities(rho)), atol=1e-10
        )


def test_qc_extract_rejects_generic_and_unitary_channels():
    rng = np.random.default_rng(17)
    assert qc_type_extract(random_kraus_channel(2, 2, 2, rng)) is None
    assert qc_type_extract(_identity_channel(3)) is None
    u = haar_unitary(2, rng)
    assert qc_type_extract(ChoiChannel.from_kraus([u])) is None


# -- cc_type_extract ----------------------------------------------------------------


def test_cc_extract_recovers_table_up_to_relabeling():
    cc = cc_type_extract(stochastic_channel(P2_REPAIRED))
    assert cc is not None
    assert frobenius(_aligned_transition(cc) - P2_REPAIRED) <= 1e-9
    # joint distribution rows each sum to 1/d
    assert np.allclose(cc.joint_probs.sum(axis=1), np.full(3, 1.0 / 3.0), atol=1e-12)
    assert np.allclose(cc.joint_probs, cc.transition.matrix.T / 3.0, atol=1e-15)


def test_cc_extract_with_rotated_eigenbasis():
    # P2_REPAIRED has pairwise-distinct columns, so the common eigenbasis
    # is unique up to permutation and phase (P1 would leave a degenerate
    # two-dimensional block free to rotate).
    v = fourier_basis(3)
    cc = cc_type_extract(stochastic_channel(P2_REPAIRED, basis=v))
    assert cc is not None
    assert bases_match(cc.eigenbasis, v)
    # compare via the effects themselves to stay permutation-agnostic
    expected = [(v * P2_REPAIRED[j, :]) @ dagger(v) for j in range(3)]
    for e in cc.measurement.povm:
        assert min(frobenius(e - x) for x in expected) <= 1e-9


def test_cc_extract_rejects_noncommuting_povm():
    assert cc_type_extract(ChoiChannel.from_measurement_map(trine_map())) is None


def test_vn_channel_is_cc_with_identity_table():
    cc = cc_type_extract(ChoiChannel.from_measurement_map(von_neumann_map(3)))
    assert cc is not None
    assert frobenius(_aligned_transition(cc) - np.eye(3)) <= 1e-12


# -- residual decompositions ---------------------------------------------------------


def test_residual_decomposition_reassembles_the_output():
    rng = np.random.default_rng(19)
    mm = trine_map()
    ch = ChoiChannel.from_measurement_map(mm)
    rho = random_state((3, 2), rng)
    decomp = residual_decomposition(mm, rho)
    assert decomp.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    direct = apply_one_sided(ch, rho, side="B")
    assert frobenius(_output_state(decomp).matrix - direct.matrix) <= 1e-10


def test_cq_counterexample_numbers():
    mm = von_neumann_map(2)
    rho = cq_witness_state()
    decomp = residual_decomposition(mm, rho)
    assert np.allclose(decomp.probabilities, [0.5, 0.5], atol=1e-12)
    rho0, rho1 = cq_residual_states()
    assert frobenius(decomp.states[0].matrix - rho0.matrix) <= 1e-12
    assert frobenius(decomp.states[1].matrix - rho1.matrix) <= 1e-12
    membership = in_cc_set(mm, rho)
    assert not membership
    assert membership.witness == pytest.approx(CQ_RESIDUAL_COMMUTATOR, abs=1e-10)
    assert commutator_norm(rho0.matrix, rho1.matrix) == pytest.approx(
        np.sqrt(2.0) / 4.0, abs=1e-12
    )


def test_cq_true_mixture_variant():
    # the same construction applied to the plain mixture of P+ and |+0>
    mm = von_neumann_map(2)
    rho = cq_input_mixture()
    decomp = residual_decomposition(mm, rho)
    assert np.allclose(decomp.probabilities, [0.75, 0.25], atol=1e-12)
    expected0 = np.array([[2.0, 1.0], [1.0, 1.0]]) / 3.0
    assert frobenius(decomp.states[0].matrix - expected0) <= 1e-12
    assert in_cc_set(mm, rho).witness == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-10)
    out = apply_one_sided(ChoiChannel.from_measurement_map(mm), rho, side="B")
    assert classify_state(out) == "QC-only"


def test_nonclosure_witness_frozen_value():
    mm = measurement_from_stochastic(P2_REPAIRED)
    rho = nonclosure_input()
    membership = in_cc_set(mm, rho)
    assert not membership
    assert membership.witness == pytest.approx(NONCLOSURE_WITNESS, abs=1e-9)
    # independent recomputation from the Schmidt data of the pure input:
    # residual_j is proportional to C (V* E_j V)^T C in the A-side basis
    c = np.diag(np.sqrt([0.5, 0.3, 0.2]))
    v = fourier_basis(3)
    residuals = []
    for e in mm.povm:
        x = dagger(v) @ e @ v
        block = c @ x.T @ c
        residuals.append(block / np.trace(block))
    witness = max(
        commutator_norm(residuals[i], residuals[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert witness == pytest.approx(membership.witness, abs=1e-12)


def test_in_cc_set_accepts_matched_schmidt_states():
    # Schmidt vectors on B drawn from the common eigenbasis give commuting residuals
    mm = measurement_from_stochastic(P2_REPAIRED)
    rng = np.random.default_rng(23)
    a = haar_unitary(3, rng)
    rho = _schmidt_state(np.sqrt([0.5, 0.3, 0.2]), a, np.eye(3))
    assert in_cc_set(mm, rho)


# -- star mixing ---------------------------------------------------------------------


def test_star_mix_endpoints_and_scaling():
    rho = nonclosure_input()
    assert frobenius(_star_mix(rho, 0.0).matrix - np.eye(9) / 9.0) == 0.0
    assert frobenius(_star_mix(rho, 1.0).matrix - rho.matrix) == 0.0
    with pytest.raises(ValueError):
        _star_mix(rho, 1.5)
    # raw steered blocks are affine in the state, so their commutators scale as lam^2
    mm = measurement_from_stochastic(P2_REPAIRED)
    full = residual_decomposition(mm, rho).raw_blocks
    half = residual_decomposition(mm, _star_mix(rho, 0.5)).raw_blocks
    for i in range(3):
        for j in range(i + 1, 3):
            c_full = full[i] @ full[j] - full[j] @ full[i]
            c_half = half[i] @ half[j] - half[j] @ half[i]
            assert frobenius(c_half - 0.25 * c_full) <= 1e-12
    assert in_cc_set(mm, _star_mix(rho, 0.0))


# -- schmidt_state -----------------------------------------------------------------


def test_schmidt_state_construction_and_validation():
    state = _schmidt_state([1.0], np.eye(2)[:, :1], np.eye(2)[:, 1:])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert frobenius(state.matrix - expected) == 0.0
    with pytest.raises(ValueError):
        _schmidt_state([0.5, 0.5], np.eye(2), np.eye(2))  # squares sum to 1/2
    with pytest.raises(ValueError):
        _schmidt_state(np.sqrt([0.5, 0.5]), np.ones((2, 2)), np.eye(2))


# -- multipartite ------------------------------------------------------------------


def test_multipartite_bell_fixture():
    rng = np.random.default_rng(29)
    bell = _bell_basis()
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    sigmas = [random_state(2, rng) for _ in range(4)]
    dim = 2 * 4
    m = np.zeros((dim, dim), dtype=np.complex128)
    for p, sigma, col in zip(probs, sigmas, bell.T):
        m += p * np.kron(sigma.matrix, np.outer(col, np.conj(col)))
    rho = QuantumState(m, (2, 2, 2))
    report = multipartite_qc_check(rho)
    assert report.joint_classical
    assert bases_match(report.joint_basis, bell)
    assert report.schmidt_ranks == (2, 2, 2, 2)
    assert report.joint_basis_product is False
    assert report.reduction_ab == "CC"
    assert report.reduction_abp == "CC"
    # both single-copy reductions are in fact product states
    for keep in ((0, 1), (0, 2)):
        red = rho.marginal(keep)
        rebuilt = np.kron(red.marginal((0,)).matrix, red.marginal((1,)).matrix)
        assert frobenius(red.matrix - rebuilt) <= 1e-12


def test_multipartite_product_pointer_contrast():
    rng = np.random.default_rng(31)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    sigmas = [random_state(2, rng) for _ in range(4)]
    eye4 = np.eye(4, dtype=np.complex128)
    m = np.zeros((8, 8), dtype=np.complex128)
    for p, sigma, col in zip(probs, sigmas, eye4.T):
        m += p * np.kron(sigma.matrix, np.outer(col, np.conj(col)))
    report = multipartite_qc_check(QuantumState(m, (2, 2, 2)))
    assert report.joint_classical
    assert report.joint_basis_product is True
    assert report.schmidt_ranks == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        multipartite_qc_check(maximally_entangled(2))
