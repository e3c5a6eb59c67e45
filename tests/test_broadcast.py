"""N-copy extensions, stationary families, local correlation broadcasting."""
from __future__ import annotations

import numpy as np
import pytest

from qcorr.broadcast import (
    broadcast_channel,
    broadcastable_states,
    correlation_family,
    ergodic_channel_limit,
    is_product_basis,
    product_transition,
    two_channel_cc_corollary_check,
    verify_full_broadcast,
    verify_local_broadcast,
    verify_spectrum_broadcast,
)
from qcorr.channels import apply
from qcorr.errors import ChannelTypeError, MemoryCapError, NotPrimitiveError
from qcorr.fixtures import (
    P1,
    P1_PERRON_DERIVED,
    PA_REPAIRED,
    PB_REPAIRED,
    fourier_basis,
    measurement_from_stochastic,
    p1_p2_block,
    stochastic_channel,
    trine_map,
    von_neumann_map,
)
from qcorr.linalg import frobenius, partial_trace
from qcorr.markov import ergodic_limit
from qcorr.sampling import haar_unitary, random_state
from qcorr.states import QuantumState, maximally_entangled, maximally_mixed

CYCLE3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# -- BroadcastChannel ----------------------------------------------------------------


def test_broadcast_channel_dense_output():
    mm = von_neumann_map(2)
    bc = broadcast_channel(mm, 3)
    rho = QuantumState(np.array([[0.75, 0.25], [0.25, 0.25]]), (2,))
    out = bc.apply(rho)
    assert out.dims == (2, 2, 2)
    expected = np.zeros((8, 8))
    expected[0, 0] = 0.75  # |000>
    expected[7, 7] = 0.25  # |111>
    assert frobenius(out.matrix - expected) <= 1e-12


def test_broadcast_reduction_matches_dense_marginal():
    rng = np.random.default_rng(3)
    mm = measurement_from_stochastic(P1)
    bc = broadcast_channel(mm, 3)
    for _ in range(5):
        rho = random_state(3, rng)
        dense = bc.apply(rho)
        for copy_index in range(3):
            streamed = bc.reduction(rho, copy_index)
            marginal = partial_trace(dense.matrix, (3, 3, 3), keep=(copy_index,))
            assert frobenius(streamed.matrix - marginal) <= 1e-12
    with pytest.raises(ValueError):
        bc.reduction(maximally_mixed(3), copy_index=3)


def test_broadcast_channel_cap_and_validation():
    mm = von_neumann_map(2)
    with pytest.raises(MemoryCapError) as exc:
        broadcast_channel(mm, 9)
    assert exc.value.required == 512 and exc.value.cap == 256
    with pytest.raises(ValueError):
        broadcast_channel(mm, 0)


def test_broadcast_choi_reduces_to_single_copy():
    mm = measurement_from_stochastic(P1)
    single = broadcast_channel(mm, 1)
    assert frobenius(single.choi().choi.matrix - mm.choi_matrix()) <= 1e-12


# -- broadcastable states -------------------------------------------------------------


def test_broadcastable_states_of_vn_map():
    bs = broadcastable_states(von_neumann_map(2))
    assert bs.degeneracy == 2
    mats = sorted(tuple(np.round(np.real(np.diag(s.matrix)), 12)) for s in bs.states)
    assert mats == [(0.0, 1.0), (1.0, 0.0)]


def test_broadcastable_states_mix_is_stationary():
    mm = measurement_from_stochastic(p1_p2_block())
    bs = broadcastable_states(mm)
    assert bs.degeneracy == 2
    mixed = bs.mix([0.3, 0.7])
    assert frobenius(mm.apply(mixed).matrix - mixed.matrix) <= 1e-10
    with pytest.raises(ValueError):
        broadcastable_states(trine_map())  # not square
    with pytest.raises(ValueError):
        broadcastable_states(mm, basis=np.eye(5))


# -- spectrum versus full verification ------------------------------------------------


def test_full_broadcast_passes_in_the_channel_basis():
    mm = measurement_from_stochastic(p1_p2_block())
    for state in broadcastable_states(mm).states:
        for copies in (2, 3):
            report = verify_full_broadcast(mm, copies, state)
            assert report.passed
            assert max(report.distances) <= 1e-12
            assert report.fixed_point_residual <= 1e-12


def test_rotated_basis_passes_spectrum_but_not_full():
    mm = measurement_from_stochastic(P1)
    bs = broadcastable_states(mm, basis=fourier_basis(3))
    assert bs.degeneracy == 1
    state = bs.states[0]
    # stationary weights survive, but in the wrong eigenbasis
    assert np.allclose(sorted(state.spectrum()), sorted(P1_PERRON_DERIVED), atol=1e-10)
    for copies in (2, 3):
        spectrum = verify_spectrum_broadcast(mm, copies, state)
        assert spectrum.passed
        assert max(spectrum.distances) <= 1e-12
        full = verify_full_broadcast(mm, copies, state)
        assert not full.passed
        assert full.fixed_point_residual > 0.1


def test_spectrum_broadcast_fails_for_non_stationary_input():
    mm = measurement_from_stochastic(P1)
    report = verify_spectrum_broadcast(mm, 2, maximally_mixed(3))
    assert not report.passed
    with pytest.raises(ValueError):
        verify_full_broadcast(mm, 2, maximally_mixed(4))


# -- ergodic channel limit ------------------------------------------------------------


def test_ergodic_channel_limit_matches_transition_limit():
    mm = measurement_from_stochastic(P1)
    lim = ergodic_channel_limit(mm)
    assert lim.r_converged == ergodic_limit(P1).r_converged
    assert np.allclose(np.real(np.diag(lim.fixed_state.matrix)), P1_PERRON_DERIVED, atol=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = random_state(3, rng)
        assert frobenius(apply(lim.channel, rho).matrix - lim.fixed_state.matrix) <= 1e-10
    with pytest.raises(NotPrimitiveError):
        ergodic_channel_limit(measurement_from_stochastic(CYCLE3))


# -- correlation families -------------------------------------------------------------


def test_correlation_family_builds_the_mixture():
    bs = broadcastable_states(measurement_from_stochastic(p1_p2_block()))
    pi = np.array([[0.3, 0.2], [0.1, 0.4]])
    family = correlation_family(bs.states, bs.states, pi)
    manual = np.zeros((36, 36), dtype=np.complex128)
    for m in range(2):
        for n in range(2):
            manual += pi[m, n] * np.kron(bs.states[m].matrix, bs.states[n].matrix)
    assert frobenius(family.matrix - manual) <= 1e-12
    with pytest.raises(ValueError):
        correlation_family(bs.states, bs.states, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        correlation_family(bs.states, bs.states, np.array([[0.9, 0.3], [-0.1, -0.1]]))


def test_local_broadcast_single_channel_family():
    mm = measurement_from_stochastic(p1_p2_block())
    bs = broadcastable_states(mm)
    family = correlation_family(bs.states, bs.states, np.array([[0.3, 0.2], [0.1, 0.4]]))
    report = verify_local_broadcast(mm, mm, 2, family)
    assert report.passed
    assert max(report.distances) <= 1e-12
    # the joint distribution reproduces the diagonal of the input
    diag = np.real(np.diag(family.matrix)).reshape(6, 6)
    assert frobenius(report.joint_distribution - diag) <= 1e-12


def test_local_broadcast_rejects_maximally_entangled_input():
    mm_a = measurement_from_stochastic(PA_REPAIRED)
    mm_b = measurement_from_stochastic(PB_REPAIRED)
    report = verify_local_broadcast(mm_a, mm_b, 2, maximally_entangled(3))
    assert not report.passed
    assert max(report.distances) >= 0.1


def test_local_broadcast_validation():
    mm = measurement_from_stochastic(P1)
    with pytest.raises(ValueError):
        verify_local_broadcast(mm, mm, 2, maximally_entangled(3), mode="fast")
    with pytest.raises(ValueError):
        verify_local_broadcast(mm, mm, 0, maximally_entangled(3))
    with pytest.raises(ValueError):
        verify_local_broadcast(mm, mm, 2, maximally_entangled(2))
    with pytest.raises(MemoryCapError):
        verify_local_broadcast(mm, mm, 9, maximally_entangled(3))


# -- two-channel corollary ------------------------------------------------------------


def test_two_channel_corollary_check():
    ch_a = stochastic_channel(PA_REPAIRED)
    ch_b = stochastic_channel(PB_REPAIRED)
    report = two_channel_cc_corollary_check(ch_a, ch_b, samples=20, seed=1)
    assert report.passed and report.all_cc
    assert report.max_deviation <= 1e-10
    from qcorr.channels import ChoiChannel

    with pytest.raises(ChannelTypeError):
        two_channel_cc_corollary_check(ChoiChannel.identity(2), ch_b, samples=1)


# -- product bases ---------------------------------------------------------------------


def _bell_basis() -> np.ndarray:
    b = np.zeros((4, 4), dtype=np.complex128)
    s = 1.0 / np.sqrt(2.0)
    b[:, 0] = [s, 0, 0, s]
    b[:, 1] = [s, 0, 0, -s]
    b[:, 2] = [0, s, s, 0]
    b[:, 3] = [0, s, -s, 0]
    return b


def test_is_product_basis():
    assert is_product_basis(np.eye(4), (2, 2))
    rng = np.random.default_rng(11)
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    assert is_product_basis(u, (2, 2))
    assert not is_product_basis(_bell_basis(), (2, 2))
    with pytest.raises(ValueError):
        is_product_basis(np.eye(4), (2, 3))


def test_product_transition_factorizes_on_product_bases():
    mm_a = measurement_from_stochastic(PA_REPAIRED)
    mm_b = measurement_from_stochastic(PB_REPAIRED)
    rng = np.random.default_rng(13)
    u_a = haar_unitary(3, rng)
    u_b = haar_unitary(3, rng)
    table = product_transition(mm_a, mm_b, np.kron(u_a, u_b))
    from qcorr.markov import transition_matrix

    left = transition_matrix(mm_a.povm, u_a).matrix
    right = transition_matrix(mm_b.povm, u_b).matrix
    assert frobenius(table.matrix - np.kron(left, right)) <= 1e-10
