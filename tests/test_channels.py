"""States, measurement maps, and Choi-form channels."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.channels
from qcorr.channels import (
    ChoiChannel,
    apply,
    apply_one_sided,
    channel_power,
)
from qcorr.fixtures import P2_REPAIRED, trine_map, trine_povm, von_neumann_map
from qcorr.linalg import dagger, frobenius, partial_trace
from qcorr.measurement import MeasurementMap
from qcorr.sampling import haar_unitary, random_measurement_map, random_state
from qcorr.states import QuantumState, maximally_entangled


def _identity_channel(d: int) -> ChoiChannel:
    return ChoiChannel(maximally_entangled(d))


def _kraus_channel(ops) -> ChoiChannel:
    """Channel of the Kraus operators ``K_m`` (each ``d_out x d_in``): the
    Choi state ``sum_m (1 (x) K_m) P_+ (1 (x) K_m)^dag``, with column ``m`` of
    ``v`` the vector ``(1 (x) K_m)|psi_+>``, components ``(i, a) -> K_m[a, i] / sqrt(d_in)``.
    Their completeness is the constructor's ``trace_preserving_check``."""
    d_out, d_in = ops[0].shape
    v = np.stack([np.asarray(k).T.reshape(-1) for k in ops], axis=1) / np.sqrt(d_in)
    return ChoiChannel(QuantumState._derived(v @ dagger(v), (d_in, d_out)))


def _random_kraus_channel(d_in: int, d_out: int, n_kraus: int, rng) -> ChoiChannel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    shape = (n_kraus * d_out, d_in)
    q, r = np.linalg.qr((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return _kraus_channel([q[m * d_out : (m + 1) * d_out, :] for m in range(n_kraus)])


def _maximally_mixed(dims) -> QuantumState:
    return QuantumState(np.eye(int(np.prod(dims))) / np.prod(dims), dims)


# -- QuantumState ------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.diag([1.0, 1.0]), (2,))  # trace 2
    with pytest.raises(ValueError):
        QuantumState(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
    with pytest.raises(ValueError):
        QuantumState(np.array([[0.0, 1.0], [0.0, 1.0]]), (2,))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState(np.eye(4) / 4.0, (2, 3))  # dims mismatch
    with pytest.raises(ValueError):
        QuantumState.from_vector(np.array([1.0, 1.0]), (2,))  # norm sqrt(2)


def test_state_marginal_and_spectrum():
    rng = np.random.default_rng(5)
    a = random_state(2, rng)
    b = random_state(3, rng)
    joint = QuantumState(np.kron(a.matrix, b.matrix), (2, 3))
    assert frobenius(joint.marginal((0,)).matrix - a.matrix) <= 1e-12
    assert frobenius(joint.marginal((1,)).matrix - b.matrix) <= 1e-12
    spec = joint.spectrum()
    assert np.all(np.diff(spec) <= 1e-12)
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-12)


def test_maximally_entangled_marginals():
    p_plus = maximally_entangled(3)
    assert p_plus.spectrum()[0] == pytest.approx(1.0, abs=1e-12)
    for side in ((0,), (1,)):
        reduced = p_plus.marginal(side)
        assert frobenius(reduced.matrix - np.eye(3) / 3.0) <= 1e-12
    assert _maximally_mixed((2, 2)).dim == 4


# -- MeasurementMap ----------------------------------------------------------------


def test_measurement_map_validation():
    eye = np.eye(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        MeasurementMap((np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])), eye)
    with pytest.raises(ValueError):
        MeasurementMap((np.diag([0.5, 0.5]),), eye)  # one column per effect
    with pytest.raises(ValueError):
        MeasurementMap((np.diag([0.4, 0.4]), np.diag([0.4, 0.4])), eye)  # incomplete
    with pytest.raises(ValueError):
        MeasurementMap(tuple(np.eye(2) / 2 for _ in range(2)), np.ones((2, 2)))


def test_measurement_map_apply_and_probabilities():
    mm = trine_map()
    rho = _maximally_mixed(2)
    probs = mm.probabilities(rho)
    assert np.allclose(probs, np.full(3, 1.0 / 3.0), atol=1e-12)
    out = mm.apply(rho)
    assert out.dims == (3,)
    assert np.allclose(out.matrix, np.eye(3) / 3.0, atol=1e-12)
    # outputs are trusted, so a raw input is checked where it enters
    for apply_to in (mm.apply, lambda m: apply(ChoiChannel.from_measurement_map(mm), m)):
        assert np.allclose(apply_to(rho.matrix).matrix, out.matrix, atol=1e-12)
        with pytest.raises(ValueError, match="unit-trace"):
            apply_to(np.zeros((2, 2)))
    # the Choi block weights Tr(E_i) / d_in of the trine are uniform
    assert [np.trace(e).real / mm.d_in for e in mm.povm] == pytest.approx([1.0 / 3.0] * 3, abs=1e-12)


def test_from_stochastic_round_trips_the_table():
    mm = MeasurementMap.from_stochastic(P2_REPAIRED)
    # dyadic entries and computational bases make the round trip exact
    assert np.array_equal(mm.pointer_transition(), P2_REPAIRED)
    with pytest.raises(ValueError):
        MeasurementMap.from_stochastic(np.array([[0.5, 0.5], [0.6, 0.5]]))


def test_from_stochastic_rotated_eigenbasis():
    rng = np.random.default_rng(17)
    u = haar_unitary(3, rng)
    mm = MeasurementMap.from_stochastic(P2_REPAIRED, eigenbasis=u)
    for j, e in enumerate(mm.povm):
        rebuilt = (u * P2_REPAIRED[j, :]) @ dagger(u)
        assert frobenius(e - rebuilt) <= 1e-12


# -- ChoiChannel -------------------------------------------------------------------


def test_kraus_choi_round_trip():
    """Kraus operators in, Choi state, and its action back out: ``_kraus_channel``
    gives the Choi state ``sum_m (1 (x) K_m) P_+ (1 (x) K_m)^dag`` and ``apply``
    gives ``sum_m K_m rho K_m^dag``, for operators drawn here from a Haar
    Stinespring isometry."""
    rng = np.random.default_rng(23)
    for d_in, d_out, n_kraus in ((2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 2)):
        shape = (n_kraus * d_out, d_in)
        isometry = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        ops = [isometry[m * d_out : (m + 1) * d_out] for m in range(n_kraus)]
        ch = _kraus_channel(ops)
        assert (ch.d_in, ch.d_out) == (d_in, d_out)
        p_plus = maximally_entangled(d_in).matrix
        lifted = [np.kron(np.eye(d_in), k) for k in ops]
        choi = sum(x @ p_plus @ dagger(x) for x in lifted)
        assert frobenius(ch.choi.matrix - choi) <= 1e-12
        for _ in range(5):
            rho = random_state(d_in, rng)
            direct = sum(k @ rho.matrix @ dagger(k) for k in ops)
            assert frobenius(apply(ch, rho).matrix - direct) <= 1e-12


def test_apply_matches_inversion_formula():
    rng = np.random.default_rng(29)
    ch = _random_kraus_channel(3, 2, 2, rng)
    rho = random_state(3, rng)
    sandwich = ch.choi.matrix @ np.kron(rho.matrix.T, np.eye(2))
    expected = 3.0 * partial_trace(sandwich, (3, 2), keep=(1,))
    assert frobenius(apply(ch, rho).matrix - expected) <= 1e-12


def test_identity_channel():
    ch = _identity_channel(3)
    assert frobenius(ch.choi.matrix - maximally_entangled(3).matrix) == 0.0
    rho = random_state(3, np.random.default_rng(1))
    assert frobenius(apply(ch, rho).matrix - rho.matrix) <= 1e-12


def test_choi_channel_validation():
    with pytest.raises(ValueError):
        ChoiChannel(QuantumState(np.eye(4) / 4.0, (4,)))  # not bipartite
    # trace preserving fails: output marginal must be 1/d_in
    bad = np.diag([0.5, 0.0, 0.0, 0.5])
    bad = bad.astype(np.complex128)
    bad[0, 0] = 0.9
    bad[3, 3] = 0.1
    with pytest.raises(ValueError):
        ChoiChannel(QuantumState(bad, (2, 2)))
    with pytest.raises(ValueError, match="^trace-preserving check failed: input-marginal deviation 5.303e-01"):
        _kraus_channel([np.eye(2) * 0.5])


def test_from_measurement_map_matches_direct_sum():
    mm = trine_map()
    ch = ChoiChannel.from_measurement_map(mm)
    w = np.zeros((6, 6), dtype=np.complex128)
    eye3 = np.eye(3)
    for k, e in enumerate(trine_povm()):
        w += np.kron(e.T, np.outer(eye3[:, k], eye3[:, k]))
    assert frobenius(ch.choi.matrix - w / 2.0) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        rho = random_state(2, rng)
        assert frobenius(apply(ch, rho).matrix - mm.apply(rho).matrix) <= 1e-12


def test_apply_one_sided_on_product_inputs():
    rng = np.random.default_rng(37)
    ch = _random_kraus_channel(2, 2, 2, rng)
    a = random_state(3, rng)
    b = random_state(2, rng)
    joint = QuantumState(np.kron(a.matrix, b.matrix), (3, 2))
    out_b = apply_one_sided(ch, joint, side="B")
    assert frobenius(out_b.matrix - np.kron(a.matrix, apply(ch, b).matrix)) <= 1e-12
    flipped = QuantumState(np.kron(b.matrix, a.matrix), (2, 3))
    out_a = apply_one_sided(ch, flipped, side="A")
    assert frobenius(out_a.matrix - np.kron(apply(ch, b).matrix, a.matrix)) <= 1e-12
    with pytest.raises(ValueError):
        apply_one_sided(ch, joint, side="A")  # dimension mismatch
    with pytest.raises(ValueError):
        apply_one_sided(ch, joint, side="C")


def test_channel_power_matches_repeated_application():
    rng = np.random.default_rng(41)
    mm = von_neumann_map(3)
    base = ChoiChannel.from_measurement_map(mm)
    assert frobenius(channel_power(mm, 1).choi.matrix - base.choi.matrix) <= 1e-12
    mm2 = MeasurementMap.from_stochastic(P2_REPAIRED)
    ch2 = ChoiChannel.from_measurement_map(mm2)
    squared = channel_power(mm2, 2)
    cubed = channel_power(mm2, 3)
    for _ in range(5):
        rho = random_state(3, rng)
        once = apply(ch2, rho)
        twice = apply(ch2, once)
        assert frobenius(apply(squared, rho).matrix - twice.matrix) <= 1e-12
        assert frobenius(apply(cubed, rho).matrix - apply(ch2, twice).matrix) <= 1e-12
    with pytest.raises(ValueError):
        channel_power(trine_map(), 2)  # not square
    with pytest.raises(ValueError):
        channel_power(mm2, 0)


# -- the Choi contraction against the Kraus route ------------------------------------


def _kraus_route(channel: ChoiChannel, rho_ab: QuantumState, side: str) -> np.ndarray:
    """One-sided application through Kraus operators lifted by ``np.kron``,
    Hermitized and divided by the trace: the reference for the contraction.
    The operators are the eigenvectors of ``d_in W`` scaled by the square
    roots of their eigenvalues, reshaped by the inverse of ``_kraus_channel``'s
    vectorization."""
    d_a, d_b = rho_ab.dims
    d_in, d_out = channel.d_in, channel.d_out
    values, vectors = np.linalg.eigh(d_in * channel.choi.matrix)
    out = 0
    for value, vec in zip(values, vectors.T):
        if value <= 1e-12:
            continue
        k = np.sqrt(value) * vec.reshape(d_in, d_out).T
        lifted = np.kron(k, np.eye(d_b)) if side == "A" else np.kron(np.eye(d_a), k)
        out = out + lifted @ rho_ab.matrix @ dagger(lifted)
    return (out + dagger(out)) / (2.0 * np.trace(out).real)


@st.composite
def _channels(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_in = draw(st.integers(1, 6))
    if draw(st.booleans()):
        d_out = draw(st.integers(1, 6))
        n_kraus = draw(st.integers(-(-d_in // d_out), d_in * d_out))
        return _random_kraus_channel(d_in, d_out, n_kraus, rng), rng
    n = draw(st.integers(d_in, 6))
    mm = random_measurement_map(d_in, rng, n_outcomes=n, d_out=draw(st.integers(n, 6)))
    return ChoiChannel.from_measurement_map(mm), rng


def _direct_sum(channel: ChoiChannel, rho_ab: QuantumState, side: str) -> np.ndarray:
    """The defining sum, ``d_in sum_ik rho[a i, a' k] W[i x, k y]`` on side B and
    ``d_in sum_ik rho[i b, k b'] W[i x, k y]`` on side A, as a plain einsum loop."""
    d_in, d_out = channel.d_in, channel.d_out
    w = channel.choi.matrix.reshape(d_in, d_out, d_in, d_out)
    r = rho_ab.matrix.reshape(rho_ab.dims * 2)
    spec = "ibkc,ixky->xbyc" if side == "A" else "aibk,ixky->axby"
    n = rho_ab.dim // d_in * d_out
    out = d_in * np.einsum(spec, r, w, optimize=False).reshape(n, n)
    return (out + dagger(out)) / (2.0 * np.trace(out).real)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(drawn=_channels(), side=st.sampled_from("AB"), d_other=st.integers(1, 3))
def test_contraction_matches_the_kraus_route(drawn, side, d_other):
    ch, rng = drawn
    # the Kraus route carries the backward error of the eigendecomposition of
    # d_in W, about n eps ||d_in W|| for n = d_in d_out: up to 3.5e-14 on von
    # Neumann measurement channels at d = 6, where the spectrum is degenerate
    kraus_tol = max(1e-14, 1e-15 * ch.d_in**2 * ch.d_out)
    dims = (ch.d_in, d_other) if side == "A" else (d_other, ch.d_in)
    rho = random_state(dims, rng)
    out = apply_one_sided(ch, rho, side=side)
    assert out.dims == ((ch.d_out, d_other) if side == "A" else (d_other, ch.d_out))
    assert np.max(np.abs(out.matrix - _direct_sum(ch, rho, side))) <= 1e-15
    assert np.max(np.abs(out.matrix - _kraus_route(ch, rho, side))) <= kraus_tol
    rho1 = random_state(ch.d_in, rng)
    lifted = QuantumState(rho1.matrix, (1, ch.d_in))
    assert np.max(np.abs(apply(ch, rho1).matrix - _direct_sum(ch, lifted, "B"))) <= 1e-15
    assert np.max(np.abs(apply(ch, rho1).matrix - _kraus_route(ch, lifted, "B"))) <= kraus_tol


def test_application_never_extracts_kraus_operators():
    assert not hasattr(qcorr.channels, "kraus_from_choi")
    rng = np.random.default_rng(43)
    ch = _random_kraus_channel(2, 3, 4, rng)
    apply(ch, random_state(2, rng))
    apply_one_sided(ch, random_state((2, 3), rng), side="A")
    apply_one_sided(ch, random_state((3, 2), rng), side="B")
    assert not hasattr(ch, "_kraus")


def test_apply_one_sided_at_d16_is_side_symmetric_and_small():
    # d^2 Kraus operators: the Kraus route would lift 256 operators to 256 x 256
    d = 16
    rng = np.random.default_rng(16)
    ch = _random_kraus_channel(d, d, d * d, rng)
    rho = random_state((d, d), rng)

    def swap(m):
        return m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)

    tracemalloc.start()
    try:
        on_b = apply_one_sided(ch, rho, side="B")
        on_a = apply_one_sided(ch, QuantumState(swap(rho.matrix), (d, d)), side="A")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(swap(on_a.matrix) - on_b.matrix)) <= 1e-15
    assert peak < 50 * 2**20
