import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_forge.channels import (
    Channel,
    ChannelError,
    choi_fidelity,
    random_channel,
    random_density_matrix,
    validate_cptp,
)
from channel_forge.circuits import extract_channel, shift_operator
from channel_forge.dilation import (
    NOT_MIXED_UNITARY,
    NotMixedUnitary,
    POVMSpec,
    QuditRoutine,
    mixed_unitary_decompose,
    extended_qudit_routine,
    povm_to_routine,
    projective_channel_routine,
    routine_to_dict,
    stinespring_dilate,
)
from channel_forge.linalg import dagger
from channel_forge.noise import (
    PAULI_X,
    GateModel,
    apply_noise_model,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing,
)

RNG = np.random.default_rng(99)


def ad_kraus(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


# -- ancilla-assisted ------------------------------------------------------------


def test_stinespring_identity():
    dil = stinespring_dilate([np.eye(2, dtype=complex)])
    assert dil.ancilla_dim == 1
    assert np.allclose(dil.unitary, np.eye(2))
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(dil.execute(rho) - rho)) < 1e-12


def test_stinespring_block_condition():
    ops = ad_kraus(0.3)
    dil = stinespring_dilate(ops)
    d = 2
    for i, k in enumerate(ops):
        assert np.max(np.abs(dil.unitary[i * d:(i + 1) * d, :d] - k)) < 1e-14


def test_stinespring_ad_round_trip():
    gamma = 0.42
    dil = stinespring_dilate(ad_kraus(gamma))
    assert dil.ancilla_dim == 2
    assert abs(choi_fidelity(dil.channel(), amplitude_damping(gamma)) - 1) < 1e-10


def test_stinespring_rank4_overhead():
    ch = random_channel(2, 4, RNG)
    dil = stinespring_dilate(ch.kraus())
    assert dil.unitary.shape == (8, 8)
    assert abs(dil.overhead() - 2.0) < 1e-12


def test_stinespring_execute_examples():
    dil = stinespring_dilate(ad_kraus(0.3))
    out = dil.execute(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(np.diag(out).real, [0.3, 0.7])
    dil2 = stinespring_dilate(dephasing(0.6).kraus())
    plus = np.ones((2, 2), dtype=complex) / 2
    out2 = dil2.execute(plus)
    assert abs(out2[0, 1] - 0.5 * (2 * 0.6 - 1)) < 1e-10


def test_stinespring_rejects_incomplete_kraus():
    with pytest.raises(ChannelError):
        stinespring_dilate([0.9 * np.eye(2, dtype=complex)])


# -- extended qudit ---------------------------------------------------------------


def test_qudit_ad_example_matches_printed_construction():
    gamma = 0.3
    routine = extended_qudit_routine(ad_kraus(gamma))
    assert routine.total_dim == 3
    assert routine.branch_ranks == (2, 1)
    printed = np.array([
        [1, 0, 0],
        [0, np.sqrt(1 - gamma), -np.sqrt(gamma)],
        [0, np.sqrt(gamma), np.sqrt(1 - gamma)],
    ])
    for j in range(3):
        overlap = abs(np.vdot(printed[:, j], routine.unitary[:, j]))
        assert abs(overlap - 1) < 1e-12, f"column {j} differs beyond a phase"
    assert routine.boundaries == (0, 2, 3)
    assert np.allclose(routine.corrections[0], np.eye(3))
    assert np.allclose(routine.corrections[1], dagger(shift_operator(3)))
    assert abs(routine.overhead() - (np.log2(3) - 1)) < 1e-12


def test_qudit_unitary_channel_is_trivial():
    routine = extended_qudit_routine([PAULI_X.astype(complex)])
    assert routine.total_dim == 2
    assert routine.n_branches == 1
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(routine.execute(rho) - PAULI_X @ rho @ PAULI_X)) < 1e-12


def test_qudit_rank_deficient_saves_levels():
    k0 = np.array([[1, 0], [0, np.sqrt(0.6)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(0.4)], [0, 0]], dtype=complex)
    routine = extended_qudit_routine([k0, k1])
    assert routine.total_dim == 3 < 4  # sum kappa_i < r*d
    assert abs(choi_fidelity(routine.channel(), Channel.from_kraus([k0, k1])) - 1) < 1e-10


def test_qudit_branch_probabilities_sum_to_one():
    for _ in range(5):
        ch = random_channel(3, 4, RNG)
        routine = extended_qudit_routine(ch.kraus())
        rho = random_density_matrix(3, RNG)
        probs = routine.branch_probabilities(rho)
        assert abs(probs.sum() - 1) < 1e-10
        assert np.all(probs > -1e-12)


def test_qudit_execute_matches_channel_action():
    ch = random_channel(2, 3, RNG)
    routine = extended_qudit_routine(ch.kraus())
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(routine.execute(rho) - ch.apply(rho))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_qudit_routine_on_the_engine_matches_the_channel(data):
    d = data.draw(st.sampled_from([2, 3]))
    rank = data.draw(st.integers(1, d * d))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ch = random_channel(d, rank, rng)
    routine = extended_qudit_routine(ch.kraus())
    rho = random_density_matrix(d, rng)
    assert np.max(np.abs(routine.execute(rho) - ch.apply(rho))) < 1e-10
    born = [np.trace(k @ rho @ dagger(k)).real for k in routine.channel().kraus()]
    assert np.max(np.abs(routine.branch_probabilities(rho) - born)) < 1e-10


def test_qudit_routine_over_the_engine_cap_raises():
    # 65 levels x 64 branches = 4160 > 4096, refused before the range readout is built
    routine = QuditRoutine(total_dim=65, data_dim=2, unitary=np.eye(65, dtype=complex),
                           boundaries=(0, *range(2, 66)),
                           corrections=(np.eye(65, dtype=complex),) * 64,
                           branch_ranks=(2,) + (1,) * 63)
    with pytest.raises(ChannelError, match="4096"):
        routine.execute(np.eye(2, dtype=complex) / 2)


def test_qudit_skips_zero_kraus_operators():
    routine = extended_qudit_routine(ad_kraus(0.0))
    assert routine.total_dim == 2
    assert abs(choi_fidelity(routine.channel(), Channel.identity(2)) - 1) < 1e-12


def test_round_trip_sweep_small():
    for d in (2, 3):
        for r in range(1, d * d + 1):
            ch = random_channel(d, r, RNG)
            dil = stinespring_dilate(ch.kraus())
            assert np.max(np.abs(dil.channel().choi - ch.choi)) < 1e-9
            u = dil.unitary
            assert np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) < 1e-10
            routine = extended_qudit_routine(ch.kraus())
            assert np.max(np.abs(routine.channel().choi - ch.choi)) < 1e-9
            assert sum(routine.branch_ranks) <= r * d
            lam = routine.unitary
            assert np.max(np.abs(dagger(lam) @ lam - np.eye(lam.shape[0]))) < 1e-10


def test_routine_export_dict():
    routine = extended_qudit_routine(ad_kraus(0.2))
    data = routine_to_dict(routine)
    assert data["total_dim"] == 3
    assert data["projector_ranges"] == [[0, 2], [2, 3]]
    assert abs(data["overhead_qubits"] - (np.log2(3) - 1)) < 1e-12


# -- mixed unitary ----------------------------------------------------------------


def test_mixed_unitary_bit_flip():
    us, probs = mixed_unitary_decompose(bit_flip(0.73))
    assert len(us) == 2
    assert np.allclose(sorted(probs), [0.27, 0.73])


def test_mixed_unitary_depolarizing():
    us, probs = mixed_unitary_decompose(depolarizing(0.4))
    assert len(us) == 4
    assert np.allclose(sorted(probs), sorted([0.4, 0.2, 0.2, 0.2]))


def test_mixed_unitary_rejects_amplitude_damping():
    res = mixed_unitary_decompose(amplitude_damping(0.5))
    assert isinstance(res, NotMixedUnitary)
    assert res is NOT_MIXED_UNITARY or isinstance(res, NotMixedUnitary)


def test_mixed_unitary_mixture_reproduces_channel():
    ch = bit_flip(0.6)
    us, probs = mixed_unitary_decompose(ch)
    rho = random_density_matrix(2, RNG)
    avg = sum(p * (u @ rho @ dagger(u)) for p, u in zip(probs, us))
    assert np.max(np.abs(avg - ch.apply(rho))) < 1e-12


# -- POVM -------------------------------------------------------------------------


def test_povm_projective_outcomes_are_populations():
    spec = POVMSpec(elements=(np.diag([1.0, 0.0]).astype(complex),
                              np.diag([0.0, 1.0]).astype(complex)))
    routine = povm_to_routine(spec)
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(routine.outcome_probabilities(rho) - np.diag(rho).real)) < 1e-10


def test_povm_trine_born_rule():
    kets = [np.array([np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)], dtype=complex)
            for k in range(3)]
    spec = POVMSpec(elements=tuple((2 / 3) * np.outer(k, k.conj()) for k in kets))
    routine = povm_to_routine(spec)
    zero = np.diag([1.0, 0.0]).astype(complex)
    born = np.array([float(np.trace(o @ zero).real) for o in spec.elements])
    assert np.max(np.abs(routine.outcome_probabilities(zero) - born)) < 1e-10


def test_povm_identity_single_branch():
    spec = POVMSpec(elements=(np.eye(2, dtype=complex),))
    routine = povm_to_routine(spec)
    rho = random_density_matrix(2, RNG)
    assert abs(routine.outcome_probabilities(rho)[0] - 1) < 1e-12
    assert np.max(np.abs(routine.post_measurement_state(rho, 0) - rho)) < 1e-10


def test_povm_post_measurement_update():
    spec = POVMSpec(elements=(0.7 * np.eye(2, dtype=complex),
                              0.3 * np.eye(2, dtype=complex)))
    routine = povm_to_routine(spec)
    rho = random_density_matrix(2, RNG)
    probs = routine.outcome_probabilities(rho)
    assert np.allclose(probs, [0.7, 0.3])
    post = routine.post_measurement_state(rho, 1)
    assert np.max(np.abs(post - rho)) < 1e-10  # sqrt(0.3 I) update renormalizes away


def test_povm_validation():
    with pytest.raises(ChannelError):
        POVMSpec(elements=(np.diag([1.0, 0.5]).astype(complex),))
    with pytest.raises(ChannelError):
        POVMSpec(elements=(np.diag([1.0, -0.2]).astype(complex),
                           np.diag([0.0, 1.2]).astype(complex)))
    o1 = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=complex)  # PSD Hermitian part, complete
    with pytest.raises(ChannelError, match="not Hermitian"):
        POVMSpec(elements=(o1, np.eye(2) - o1))


def test_povm_random_born_sweep():
    for _ in range(50):
        g = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        o1 = g @ dagger(g)
        o1 = o1 / (np.linalg.eigvalsh(o1)[-1] * 1.5)
        o2 = np.eye(2) - o1
        spec = POVMSpec(elements=(o1.astype(complex), o2.astype(complex)))
        routine = povm_to_routine(spec)
        rho = random_density_matrix(2, RNG)
        born = np.array([float(np.trace(o @ rho).real) for o in spec.elements])
        assert np.max(np.abs(routine.outcome_probabilities(rho) - born)) < 1e-10


# -- projective routines -----------------------------------------------------------


def test_projective_reset_channel():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    routine = projective_channel_routine([p0, p1], [np.eye(2, dtype=complex), PAULI_X.astype(complex)])
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(routine.execute(rho) - np.diag([1.0, 0.0]))) < 1e-12


def test_projective_reset_circuit_on_the_engine_and_noisy_hardware():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    routine = projective_channel_routine([p0, p1], [np.eye(2, dtype=complex), PAULI_X.astype(complex)])
    ideal = extract_channel(routine.circuit()).channel
    assert np.max(np.abs(ideal.choi - routine.channel().choi)) < 1e-12
    noisy = extract_channel(apply_noise_model(routine.circuit(), GateModel(depolarizing(0.9))))
    assert validate_cptp(noisy.channel).passed
    assert choi_fidelity(noisy.channel, routine.channel()) < 1


def test_projective_trivial_identity():
    routine = projective_channel_routine([np.eye(2, dtype=complex)], [np.eye(2, dtype=complex)])
    assert abs(choi_fidelity(routine.channel(), Channel.identity(2)) - 1) < 1e-12


def test_projective_parity_two_qubits():
    even = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    flip = np.kron(np.eye(2), PAULI_X).astype(complex)
    routine = projective_channel_routine([even, odd], [np.eye(4, dtype=complex), flip])
    ch = routine.channel()
    oracle = Channel.from_kraus([even, flip @ odd])
    assert np.max(np.abs(ch.choi - oracle.choi)) < 1e-12
    rho = random_density_matrix(4, RNG)
    assert np.max(np.abs(routine.execute(rho) - oracle.apply(rho))) < 1e-12


def test_projective_routine_in_a_rotated_basis():
    # non-diagonal projectors of ranks 1 and 3: the routine's unitary is their eigenbasis
    w, _ = np.linalg.qr(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    p0 = w @ np.diag([1.0, 0.0, 0.0, 0.0]) @ dagger(w)
    p1 = np.eye(4) - p0
    flip = np.kron(PAULI_X, np.eye(2)).astype(complex)
    routine = projective_channel_routine([p0, p1], [flip, np.eye(4, dtype=complex)])
    assert routine.total_dim == routine.data_dim == 4 and routine.boundaries == (0, 1, 4)
    oracle = Channel.from_kraus([flip @ p0, p1])
    assert np.max(np.abs(routine.channel().choi - oracle.choi)) < 1e-12
    rho = random_density_matrix(4, RNG)
    assert np.max(np.abs(routine.execute(rho) - oracle.apply(rho))) < 1e-12


def test_projective_validation():
    with pytest.raises(ChannelError):
        projective_channel_routine([np.diag([1.0, 0.5]).astype(complex)],
                                   [np.eye(2, dtype=complex)])
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ChannelError):
        projective_channel_routine([p0], [np.eye(2, dtype=complex)])  # not resolving identity
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ChannelError):
        projective_channel_routine([p0, p1], [np.eye(2, dtype=complex), 2 * PAULI_X])
    # idempotent and resolving the identity, but oblique (not Hermitian)
    oblique = [np.array([[1, 1], [0, 0]], dtype=complex),
               np.array([[0, -1], [0, 1]], dtype=complex)]
    with pytest.raises(ChannelError, match="orthogonal projector"):
        projective_channel_routine(oblique, [np.eye(2, dtype=complex)] * 2)
