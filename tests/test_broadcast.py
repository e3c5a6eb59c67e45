"""N-copy extensions, stationary families, local correlation broadcasting."""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest

from qcorr.broadcast import (
    broadcastable_states,
    correlation_family,
    ergodic_channel_limit,
    two_channel_cc_corollary_check,
    verify_full_broadcast,
    verify_local_broadcast,
    verify_spectrum_broadcast,
)
from qcorr.channels import ChoiChannel, apply, apply_one_sided
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
from qcorr.linalg import frobenius, mixture, partial_trace, unit_columns
from qcorr.markov import StochasticMatrix, ergodic_limit, transition_matrix
from qcorr.measurement import MeasurementMap
from qcorr.sampling import haar_unitary, random_state, random_stochastic
from qcorr.states import QuantumState, maximally_entangled
from qcorr.structure import schmidt_ranks

CYCLE3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# -- the dense N-copy extension --------------------------------------------------------


def _maximally_mixed(dims) -> QuantumState:
    return QuantumState(np.eye(int(np.prod(dims))) / np.prod(dims), dims)


@dataclass(frozen=True)
class _BroadcastChannel:
    """The N-copy extension of a measure-and-prepare map, built densely.

    ``apply`` materializes the ``d_out ** copies`` dimensional output
    ``sum_i q_i |e_i><e_i|^(x copies)``; every single-copy marginal of it is
    the one-copy output ``base.apply``. The verifiers never build it, so
    these tests use it as their oracle.
    """

    base: MeasurementMap
    copies: int

    @property
    def output_dims(self) -> tuple[int, ...]:
        return (self.base.d_out,) * self.copies

    def _copied_kets(self) -> np.ndarray:
        """Columns ``|e_i>^(x copies)`` of the unit-normalized pointer basis."""
        cols = unit_columns(self.base.pointer_basis).T
        return np.stack([reduce(np.kron, [col] * self.copies) for col in cols], axis=1)

    def apply(self, rho) -> QuantumState:
        q = self.base.probabilities(rho)
        return QuantumState._derived(mixture(self._copied_kets(), q / q.sum()), self.output_dims)

    def reduction(self, rho, copy_index: int = 0) -> QuantumState:
        """Single-copy marginal of the N-copy output (identical for every copy)."""
        if not 0 <= int(copy_index) < self.copies:
            raise ValueError(f"copy index {copy_index} out of range")
        return self.base.apply(rho)

    def choi(self) -> ChoiChannel:
        copied = MeasurementMap._derived(self.base.povm, self._copied_kets())
        return ChoiChannel.from_measurement_map(copied)


def test_broadcast_channel_dense_output():
    mm = von_neumann_map(2)
    bc = _BroadcastChannel(mm, 3)
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
    bc = _BroadcastChannel(mm, 3)
    for _ in range(5):
        rho = random_state(3, rng)
        dense = bc.apply(rho)
        for copy_index in range(3):
            streamed = bc.reduction(rho, copy_index)
            marginal = partial_trace(dense.matrix, (3, 3, 3), keep=(copy_index,))
            assert frobenius(streamed.matrix - marginal) <= 1e-12
    with pytest.raises(ValueError):
        bc.reduction(_maximally_mixed(3), copy_index=3)


def test_broadcast_channel_cap_and_validation():
    mm = von_neumann_map(2)
    rho = _maximally_mixed(2)
    with pytest.raises(MemoryCapError) as exc:
        verify_full_broadcast(mm, 9, rho)
    assert exc.value.required == 512 and exc.value.cap == 256
    with pytest.raises(ValueError):
        verify_full_broadcast(mm, 0, rho)


def test_broadcast_choi_reduces_to_single_copy():
    mm = measurement_from_stochastic(P1)
    single = _BroadcastChannel(mm, 1)
    assert frobenius(single.choi().choi.matrix - mm.choi_matrix()) <= 1e-12


# -- broadcastable states -------------------------------------------------------------


def test_broadcastable_states_of_vn_map():
    bs = broadcastable_states(von_neumann_map(2))
    assert bs.degeneracy == 2
    mats = sorted(tuple(np.round(np.real(np.diag(s.matrix)), 12)) for s in bs.states)
    assert mats == [(0.0, 1.0), (1.0, 0.0)]


def _mix(bs, weights) -> QuantumState:
    """The convex combination of ``bs``'s stationary states with ``weights``."""
    v = np.asarray(weights, dtype=float) @ np.array(bs.analysis.perron_vectors)
    return QuantumState(mixture(bs.basis, v), (len(v),))


def test_broadcastable_states_mix_is_stationary():
    mm = measurement_from_stochastic(p1_p2_block())
    bs = broadcastable_states(mm)
    assert bs.degeneracy == 2
    mixed = _mix(bs, [0.3, 0.7])
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
    report = verify_spectrum_broadcast(mm, 2, _maximally_mixed(3))
    assert not report.passed
    with pytest.raises(ValueError):
        verify_full_broadcast(mm, 2, _maximally_mixed(4))


# -- the verifiers against the dense N-copy output ----------------------------------


def _frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return frobenius(a - b)


def _spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the 1-norm between the sorted spectra of two Hermitian matrices."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b)).sum())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reported_distances_match_the_dense_n_copy_output(d):
    rng = np.random.default_rng(40 + d)
    mm = measurement_from_stochastic(random_stochastic(d, d, rng), haar_unitary(d, rng))
    stationary = broadcastable_states(mm).states[0]
    rotated = broadcastable_states(mm, basis=haar_unitary(d, rng)).states[0]
    for state in (stationary, rotated, random_state(d, rng)):
        for copies in range(1, 5):
            dense = _BroadcastChannel(mm, copies).apply(state)
            marginals = [partial_trace(dense.matrix, dense.dims, keep=(k,)) for k in range(copies)]
            for verify, distance in (
                (verify_full_broadcast, _frobenius_distance),
                (verify_spectrum_broadcast, _spectral_distance),
            ):
                report = verify(mm, copies, state)
                expected = [distance(m, state.matrix) for m in marginals]
                assert report.distances == pytest.approx(expected, abs=1e-12)
                assert report.passed == (max(expected) <= report.tolerance)


def test_local_distances_match_the_dense_two_sided_output():
    rng = np.random.default_rng(47)
    mm_a, mm_b = (
        measurement_from_stochastic(random_stochastic(2, 2, rng), haar_unitary(2, rng)) for _ in range(2)
    )
    family = correlation_family(
        broadcastable_states(mm_a).states, broadcastable_states(mm_b).states, np.ones((1, 1))
    )
    for rho in (family, random_state((2, 2), rng)):
        for copies in range(1, 4):
            half = apply_one_sided(_BroadcastChannel(mm_a, copies).choi(), rho, side="A")
            dense = apply_one_sided(_BroadcastChannel(mm_b, copies).choi(), half, side="B")
            dims = (2,) * (2 * copies)
            pairs = [partial_trace(dense.matrix, dims, keep=(r, copies + r)) for r in range(copies)]
            for mode, distance in (("full", _frobenius_distance), ("spectrum", _spectral_distance)):
                report = verify_local_broadcast(mm_a, mm_b, copies, rho, mode=mode)
                expected = [distance(p, rho.matrix) for p in pairs]
                assert report.distances == pytest.approx(expected, abs=1e-12)
                assert report.passed == (max(expected) <= report.tolerance)


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


def _is_product_basis(basis, dims: tuple[int, int]) -> bool:
    """True when every column factorizes across ``dims`` (Schmidt rank one)."""
    return all(r == 1 for r in schmidt_ranks(basis, dims))


def _product_transition(mm_a: MeasurementMap, mm_b: MeasurementMap, basis_ab) -> StochasticMatrix:
    """Transition table of ``L_A (x) L_B`` in a basis of the joint input space,
    rows the outcome pairs ``(i, j)`` flattened row-major."""
    effects = [np.kron(e_a, e_b) for e_a in mm_a.povm for e_b in mm_b.povm]
    return transition_matrix(effects, basis_ab)


def test_is_product_basis():
    assert _is_product_basis(np.eye(4), (2, 2))
    rng = np.random.default_rng(11)
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    assert _is_product_basis(u, (2, 2))
    assert not _is_product_basis(_bell_basis(), (2, 2))
    with pytest.raises(ValueError):
        _is_product_basis(np.eye(4), (2, 3))


def test_product_transition_factorizes_on_product_bases():
    mm_a = measurement_from_stochastic(PA_REPAIRED)
    mm_b = measurement_from_stochastic(PB_REPAIRED)
    rng = np.random.default_rng(13)
    u_a = haar_unitary(3, rng)
    u_b = haar_unitary(3, rng)
    table = _product_transition(mm_a, mm_b, np.kron(u_a, u_b))
    left = transition_matrix(mm_a.povm, u_a).matrix
    right = transition_matrix(mm_b.povm, u_b).matrix
    assert frobenius(table.matrix - np.kron(left, right)) <= 1e-10
