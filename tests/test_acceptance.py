"""Acceptance suite: one test per shipped guarantee, at full scale.

Each test re-derives its expected values independently of the library
internals it exercises: channel families are sampled fresh, identities are
assembled from first principles, and the recorded-claim matrix is frozen
here as a literal.
"""
from __future__ import annotations

import os

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
from qcorr.channels import ChoiChannel, apply, apply_one_sided, channel_power
from qcorr.claims import run_claims
from qcorr.cli import main
from qcorr.errors import NotPrimitiveError
from qcorr.fixtures import (
    CQ_RESIDUAL_COMMUTATOR,
    NONCLOSURE_WITNESS,
    P1,
    P1_PERRON_DERIVED,
    P1_PERRON_RECORDED,
    P2_PRINTED,
    PA_REPAIRED,
    PB_REPAIRED,
    cq_witness_state,
    measurement_from_stochastic,
    nonclosure_channel,
    nonclosure_input,
    p1_p2_block,
    stochastic_channel,
)
from qcorr.linalg import bases_match, commutator_norm, dagger, frobenius
from qcorr.markov import (
    StochasticMatrix,
    basis_change_transition,
    birkhoff_decompose,
    block_decompose,
    ergodic_limit,
    perron_vector,
    transition_matrix,
)
from qcorr.measurement import MeasurementMap
from qcorr.sampling import (
    haar_unitary,
    random_measurement_map,
    random_povm,
    random_state,
    random_stochastic,
)
from qcorr.states import QuantumState, maximally_entangled
from qcorr.structure import (
    cc_type_extract,
    classical_side_basis,
    classify_state,
    in_cc_set,
    multipartite_qc_check,
    qc_type_extract,
)

CYCLE3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_criterion_1_measured_channels_give_pointer_classical_outputs():
    """100 random measure-and-prepare channels (d in {2, 3}), 10 states each:
    every one-sided output is classical on the measured side, and the map is
    recovered from the Choi state."""
    rng = np.random.default_rng(101)
    for index in range(100):
        d = 2 + index % 2
        if index % 4 < 2:
            mm_true = random_measurement_map(d, rng, n_outcomes=d, d_out=d)
        else:
            mm_true = random_measurement_map(d, rng)  # d*d outcomes, rectangular
        channel = ChoiChannel.from_measurement_map(mm_true)
        mm_ext = qc_type_extract(channel)
        assert mm_ext is not None
        assert bases_match(mm_ext.pointer_basis, mm_true.pointer_basis)
        rebuilt = ChoiChannel.from_measurement_map(mm_ext)
        assert frobenius(rebuilt.choi.matrix - channel.choi.matrix) <= 1e-9
        for _ in range(10):
            d_a = int(rng.integers(2, 4))
            rho = random_state((d_a, d), rng)
            out = apply_one_sided(channel, rho, side="B")
            structure = classical_side_basis(out, side="B")
            assert structure
            assert structure.witness <= 1e-8


def test_criterion_2_classicality_is_one_sided():
    """The recorded two-qubit construction is classical on B only; its steered
    residuals fail to commute by exactly sqrt(2)/4."""
    rho = cq_witness_state()
    structure = classical_side_basis(rho, side="B")
    assert structure
    res = [b.matrix for b in structure.blocks]
    norm = commutator_norm(res[0], res[1])
    assert abs(norm - np.sqrt(2.0) / 4.0) <= 1e-10
    assert abs(norm - CQ_RESIDUAL_COMMUTATOR) <= 1e-10
    assert classify_state(rho) == "QC-only"
    assert not classical_side_basis(rho, side="A")


def test_criterion_3_classical_channel_outputs_can_leave_the_cc_set():
    """A fully classical channel fed one half of a correlated input yields a
    state that is pointer-classical but not two-sided classical."""
    channel = nonclosure_channel()
    assert cc_type_extract(channel) is not None
    mm = qc_type_extract(channel)
    rho = nonclosure_input()
    membership = in_cc_set(mm, rho)
    assert not membership.member
    assert membership.witness >= 0.05
    assert abs(membership.witness - NONCLOSURE_WITNESS) <= 1e-9
    out = apply_one_sided(channel, rho, side="B")
    assert classical_side_basis(out, side="B")
    assert classify_state(out) == "QC-only"


def test_criterion_4_recorded_claim_verdicts():
    """The bundled claim checks reproduce the frozen verdict matrix, and the
    paper-check command exits cleanly."""
    expected = {
        "p1-irreducible": "CONFIRMED",
        "p1-perron": "CONTRADICTED",
        "p2-column-stochastic": "CONTRADICTED",
        "pa-reducible": "CONTRADICTED",
        "pb-reducible": "CONTRADICTED",
        "pa-repaired-perron": "REPAIRED",
        "pb-repaired-perron": "REPAIRED",
        "p2-repaired": "REPAIRED",
        "repaired-local-broadcast": "CONFIRMED",
        "cq-counterexample-commutator": "CONFIRMED",
    }
    results = run_claims()
    assert {r.claim_id: r.verdict for r in results} == expected
    assert all(r.matches for r in results)
    # the individual numbers behind the contradicted rows
    assert np.allclose(perron_vector(P1), P1_PERRON_DERIVED, atol=1e-12)
    assert not np.allclose(P1_PERRON_DERIVED, P1_PERRON_RECORDED)
    assert float(P2_PRINTED.sum(axis=0)[2]) == pytest.approx(9.0 / 8.0, abs=1e-15)
    # the repaired block tables realize their recorded stationary vectors exactly
    pa = {tuple(np.round(v, 12)) for v in block_decompose(StochasticMatrix(PA_REPAIRED)).perron_vectors}
    assert pa == {(1.0, 0.0, 0.0), (0.0, 0.5, 0.5)}
    pb = {tuple(np.round(v, 12)) for v in block_decompose(StochasticMatrix(PB_REPAIRED)).perron_vectors}
    assert pb == {(0.5, 0.0, 0.5), (0.0, 1.0, 0.0)}
    assert main(["paper-check", "--out", os.devnull]) == 0


def test_criterion_5_stationary_states_admit_spectrum_broadcast():
    """50 random square maps, 5 random bases each: every stationary state
    broadcasts its spectrum for N = 2, 3; in the channel basis the full-state
    broadcast holds with a vanishing fixed-point residual."""
    rng = np.random.default_rng(505)
    for index in range(50):
        d = 2 + index % 2
        mm = random_measurement_map(d, rng, n_outcomes=d, d_out=d)
        for _ in range(5):
            u = haar_unitary(d, rng)
            bs = broadcastable_states(mm, u)
            assert len(bs.states) >= 1
            for state in bs.states:
                for copies in (2, 3):
                    assert verify_spectrum_broadcast(mm, copies, state, tol=1e-9).passed
        for state in broadcastable_states(mm).states:
            for copies in (2, 3):
                report = verify_full_broadcast(mm, copies, state, tol=1e-9)
                assert report.passed
                assert report.fixed_point_residual <= 1e-9


def test_criterion_6_primitive_maps_converge_to_their_fixed_point():
    """20 random primitive maps: iterating the channel reaches the stationary
    preparation exactly when the transition powers reach their limit; periodic
    and reducible tables are rejected with the matching diagnostic."""
    rng = np.random.default_rng(606)
    for index in range(20):
        d = 2 + index % 2
        p = random_stochastic(d, d, rng)  # strictly positive, hence primitive
        u = haar_unitary(d, rng)
        mm = MeasurementMap.from_stochastic(p, eigenbasis=u, pointer_basis=u)
        lim = ergodic_limit(p)
        r = lim.r_converged
        assert float(np.max(np.abs(np.linalg.matrix_power(p, r) - lim.matrix))) <= 1e-10
        assert np.allclose(lim.matrix, np.outer(lim.perron, np.ones(d)), atol=1e-10)
        channel_limit = ergodic_channel_limit(mm)
        assert channel_limit.r_converged == r
        power = channel_power(mm, r)
        for _ in range(3):
            rho = random_state(d, rng)
            out = apply(power, rho)
            assert frobenius(out.matrix - channel_limit.fixed_state.matrix) <= 1e-8
    with pytest.raises(NotPrimitiveError) as periodic:
        ergodic_limit(CYCLE3)
    assert periodic.value.reason == "periodic"
    with pytest.raises(NotPrimitiveError) as reducible:
        ergodic_limit(p1_p2_block())
    assert reducible.value.reason == "reducible"


def test_criterion_7_doubly_stochastic_mixtures_and_basis_changes():
    """50 random unitaries (d = 3, 4): |U|^2 decomposes into at most
    d^2 - 2d + 2 permutations; commuting channels compose with the overlap
    table; general maps obey the mixture-plus-coherent-part identity."""
    rng = np.random.default_rng(707)
    for index in range(50):
        d = 3 + index % 2
        u = haar_unitary(d, rng)
        doubly = np.abs(u) ** 2
        bd = birkhoff_decompose(doubly)
        assert frobenius(bd.reconstruction() - doubly) <= 1e-10
        assert bd.n_terms <= d * d - 2 * d + 2
    for seed in range(5):
        rng2 = np.random.default_rng(7100 + seed)
        cc = cc_type_extract(stochastic_channel(random_stochastic(3, 3, rng2)))
        u = haar_unitary(3, rng2)
        result = basis_change_transition(cc, u)
        phi = cc.eigenbasis
        overlap = np.abs(dagger(phi) @ u @ phi) ** 2
        assert frobenius(result.matrix - cc.transition.matrix @ overlap) <= 1e-10
    for seed in range(5):
        rng3 = np.random.default_rng(7200 + seed)
        povm = random_povm(3, 3, rng3)
        mm = MeasurementMap(povm, np.eye(3, dtype=np.complex128))
        u = haar_unitary(3, rng3)
        result = basis_change_transition(mm, u).matrix
        table = transition_matrix(povm, np.eye(3)).matrix
        mixture = table @ birkhoff_decompose(np.abs(u) ** 2).reconstruction()
        coherent = np.zeros((3, 3))
        for i, e in enumerate(povm):
            for j in range(3):
                col = u[:, j]
                full = float(np.real(np.vdot(col, e @ col)))
                diag_part = float(np.real(np.sum(np.abs(col) ** 2 * np.diag(e))))
                coherent[i, j] = full - diag_part
                assert abs(result[i, j] - full) <= 1e-12
        assert frobenius(result - (mixture + coherent)) <= 1e-9


def test_criterion_8_correlated_stationary_families_broadcast_locally():
    """Correlated mixtures over stationary families pass the paired-reduction
    check for both channel arrangements; a maximally entangled input fails by
    a wide margin; products of two classical channels stay classical."""
    pi = np.array([[0.3, 0.2], [0.1, 0.4]])
    mm6 = measurement_from_stochastic(p1_p2_block())
    fam6 = correlation_family(broadcastable_states(mm6).states, broadcastable_states(mm6).states, pi)
    assert verify_local_broadcast(mm6, mm6, 2, fam6, tol=1e-9).passed
    mm_a = measurement_from_stochastic(PA_REPAIRED)
    mm_b = measurement_from_stochastic(PB_REPAIRED)
    fam2 = correlation_family(
        broadcastable_states(mm_a).states, broadcastable_states(mm_b).states, pi
    )
    assert verify_local_broadcast(mm_a, mm_b, 2, fam2, tol=1e-9).passed
    entangled = verify_local_broadcast(mm_a, mm_b, 2, maximally_entangled(3))
    assert not entangled.passed
    assert max(entangled.distances) >= 0.1
    report = two_channel_cc_corollary_check(
        stochastic_channel(PA_REPAIRED), stochastic_channel(PB_REPAIRED), samples=50, seed=8
    )
    assert report.passed and report.samples == 50


def test_criterion_9_pairwise_classical_states_with_entangled_pointer():
    """A mixture over maximally entangled pointer projectors is classical in
    every pairwise reduction while the joint pointer basis is non-product."""
    bell = np.zeros((4, 4), dtype=np.complex128)
    s = 1.0 / np.sqrt(2.0)
    bell[:, 0] = [s, 0, 0, s]
    bell[:, 1] = [s, 0, 0, -s]
    bell[:, 2] = [0, s, s, 0]
    bell[:, 3] = [0, s, -s, 0]
    rng = np.random.default_rng(909)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    m = np.zeros((8, 8), dtype=np.complex128)
    for p, col in zip(probs, bell.T):
        m += p * np.kron(random_state(2, rng).matrix, np.outer(col, np.conj(col)))
    report = multipartite_qc_check(QuantumState(m, (2, 2, 2)))
    assert report.joint_classical
    assert bases_match(report.joint_basis, bell)
    assert report.joint_basis_product is False
    assert report.schmidt_ranks == (2, 2, 2, 2)
    assert report.reduction_ab == "CC"
    assert report.reduction_abp == "CC"
