import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_forge.channels import (
    Channel,
    ChannelError,
    channel_from_json,
    channel_to_json,
    choi_fidelity,
    compose,
    kraus_to_superop,
    mix,
    random_channel,
    random_density_matrix,
    validate_cptp,
    validate_density,
)
from channel_forge.linalg import (dagger, kron, max_entangled_ket, reshuffle, unvectorize,
                                  vectorize)
from channel_forge.noise import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing,
    depolarizing_white,
    erasure,
    pauli_conjugations,
)

RNG = np.random.default_rng(2024)


def brute_force_choi(kraus, dim):
    """Independent Choi oracle: apply the channel entry-wise to |i><j| blocks."""
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            eij = np.zeros((dim, dim), dtype=complex)
            eij[i, j] = 1.0
            out = sum(k @ eij @ dagger(k) for k in kraus)
            # (E (x) id)(|Phi><Phi|) block at (out, i),(out', j)
            for a in range(dim):
                for b in range(dim):
                    choi[a * dim + i, b * dim + j] += out[a, b] / dim
    return choi


def test_identity_choi_is_max_entangled_projector():
    ch = Channel.identity(2)
    phi = max_entangled_ket(2)
    assert np.max(np.abs(ch.choi - np.outer(phi, phi.conj()))) < 1e-12
    assert ch.kraus_rank == 1


def test_amplitude_damping_zero_is_identity():
    assert np.max(np.abs(amplitude_damping(0).choi - Channel.identity(2).choi)) < 1e-12


def test_kraus_to_choi_matches_brute_force_oracle():
    ch = amplitude_damping(0.25)
    oracle = brute_force_choi(ch.kraus(), 2)
    assert np.max(np.abs(ch.choi - oracle)) < 1e-12
    ours = np.sort(np.linalg.eigvalsh(ch.choi))
    theirs = np.sort(np.linalg.eigvalsh(oracle))
    assert np.max(np.abs(ours - theirs)) < 1e-12


def test_kraus_completeness_violation_reports_norm():
    with pytest.raises(ChannelError, match="completeness"):
        Channel.from_kraus([0.5 * np.eye(2)])


def test_choi_to_kraus_identity_single_operator():
    ops = Channel.identity(3).kraus()
    assert len(ops) == 1
    phase = ops[0][0, 0]
    assert np.max(np.abs(ops[0] - phase * np.eye(3))) < 1e-12


def test_choi_to_kraus_dephasing_weights():
    # eigen-decomposition oracle: operator norms follow the Choi eigenvalues
    ch = Channel.from_choi(dephasing(0.75).choi, 2, 2)
    ops = ch.kraus()
    norms = sorted(float(np.trace(dagger(k) @ k).real) for k in ops)
    assert np.allclose(norms, [2 * 0.25, 2 * 0.75])


def test_choi_to_kraus_round_trip_rank3():
    ch = random_channel(2, 3, RNG)
    rebuilt = Channel.from_kraus(Channel.from_choi(ch.choi, 2, 2).kraus())
    assert choi_fidelity(rebuilt, ch) > 1 - 1e-10
    assert np.max(np.abs(rebuilt.choi - ch.choi)) < 1e-10


def planted_zeros(shape, rng):
    """Random complex entries, about a quarter of the real and of the imaginary
    parts replaced by -0.0 and as many by +0.0."""
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (a.real, a.imag):
        u = rng.random(shape)
        part[u < 0.25] = -0.0
        part[(u >= 0.25) & (u < 0.5)] = 0.0
    return a


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


SIDES = st.integers(1, 4)


@settings(max_examples=100, deadline=None)
@given(SIDES, SIDES, SIDES, SIDES, st.integers(0, 2**32 - 1))
def test_kron_is_np_kron_bit_for_bit(ra, ca, rb, cb, seed):
    """Matrices, and vectors as one-column matrices (the engine's ket padding)."""
    rng = np.random.default_rng(seed)
    a, b = planted_zeros((ra, ca), rng), planted_zeros((rb, cb), rng)
    assert_same_bits(kron(a, b), np.kron(a, b))
    assert_same_bits(kron(a[:, :1], b[:, :1]).reshape(-1), np.kron(a[:, 0], b[:, 0]))


@settings(max_examples=100, deadline=None)
@given(SIDES, SIDES, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_kraus_to_superop_is_the_np_kron_sum_bit_for_bit(dim_out, dim_in, count, seed):
    rng = np.random.default_rng(seed)
    ops = [planted_zeros((dim_out, dim_in), rng) for _ in range(count)]
    reference = np.zeros((dim_out**2, dim_in**2), dtype=np.complex128)
    for k in ops:
        reference += np.kron(k, k.conj())
    assert_same_bits(kraus_to_superop(ops), reference)


def test_kraus_to_superop_identity():
    assert np.allclose(kraus_to_superop([np.eye(2)]), np.eye(4))


def test_superop_action_matches_kraus_action_on_basis():
    p = 0.65
    ch = bit_flip(p)
    s = ch.superop()
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            direct = p * eij + (1 - p) * PAULI_X @ eij @ PAULI_X
            assert np.max(np.abs(unvectorize(s @ vectorize(eij)) - direct)) < 1e-12


def test_superop_composition_homomorphism():
    for _ in range(5):
        a = random_channel(2, 2, RNG)
        b = random_channel(2, 3, RNG)
        comp = compose(b, a)
        assert np.max(np.abs(comp.superop() - b.superop() @ a.superop())) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_rectangular_superop_matches_kraus(p):
    ch = erasure(p)
    s = ch.superop()
    assert s.shape == (9, 4)
    assert np.max(np.abs(s - kraus_to_superop(ch.kraus()))) < 1e-12


def test_compose_rectangular_after_square():
    rho = random_density_matrix(2, RNG)
    er, ad = erasure(0.1), amplitude_damping(0.1)
    both = compose(er, ad)
    assert (both.dim_in, both.dim_out) == (2, 3)
    assert np.max(np.abs(both.apply(rho) - er.apply(ad.apply(rho)))) < 1e-12
    assert validate_cptp(both).passed


def test_reshuffle_involution_and_identity_form():
    m = RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16))
    assert np.allclose(reshuffle(reshuffle(m)), m)
    phi = max_entangled_ket(2)
    assert np.allclose(reshuffle(Channel.identity(2).superop()),
                       2 * np.outer(phi, phi.conj()))


def test_reshuffle_depolarizing_eigenvalues_match_kraus_weights():
    p = 0.8
    ch = depolarizing(p)
    vals = np.sort(np.linalg.eigvalsh(reshuffle(ch.superop()).real / 2))
    assert np.allclose(vals, sorted([(1 - p) / 3] * 3 + [p]), atol=1e-12)


def test_compose_identity_with_unitary():
    x_conj = Channel.from_unitary(PAULI_X)
    comp = compose(Channel.identity(2), x_conj)
    assert np.max(np.abs(comp.choi - x_conj.choi)) < 1e-12


def test_compose_amplitude_damping_law():
    p1, p2 = 0.35, 0.6
    lhs = compose(amplitude_damping(p1), amplitude_damping(p2))
    rhs = amplitude_damping(p1 + p2 - p1 * p2)
    assert np.max(np.abs(lhs.choi - rhs.choi)) < 1e-12


def test_compose_dephasing_law():
    p, q = 0.8, 0.3
    lhs = compose(dephasing(p), dephasing(q))
    rhs = dephasing(p * q + (1 - p) * (1 - q))
    assert np.max(np.abs(lhs.choi - rhs.choi)) < 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ChannelError):
        compose(Channel.identity(3), Channel.identity(2))


def test_mix_single_channel_is_identity_operation():
    ch = random_channel(2, 2, RNG)
    assert np.max(np.abs(mix([ch], [1.0]).choi - ch.choi)) < 1e-12


def test_mix_reproduces_bit_flip():
    p = 0.3
    mixed = mix([Channel.identity(2), Channel.from_unitary(PAULI_X)], [p, 1 - p])
    assert np.max(np.abs(mixed.choi - bit_flip(p).choi)) < 1e-12


def test_mix_four_paulis_fully_depolarizes():
    mixed = mix(pauli_conjugations(), [0.25] * 4)
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(mixed.apply(rho) - np.eye(2) / 2)) < 1e-12


def test_mix_rejects_bad_probabilities():
    with pytest.raises(ChannelError):
        mix([Channel.identity(2)], [0.9])
    with pytest.raises(ChannelError):
        mix([Channel.identity(2), Channel.identity(2)], [1.5, -0.5])


def test_apply_identity_and_full_decay():
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(Channel.identity(2).apply(rho) - rho)) < 1e-12
    out = amplitude_damping(1.0).apply(rho)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12


def test_apply_white_noise_limit():
    rho = random_density_matrix(2, RNG)
    out = depolarizing(0.25).apply(rho)  # p' = 0
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12


def test_choi_fidelity_self_is_one():
    for r in (1, 2, 4):
        ch = random_channel(2, r, RNG)
        assert abs(choi_fidelity(ch, ch) - 1) < 1e-10


def test_choi_fidelity_identity_vs_white_noise():
    for q in (0.2, 0.5, 0.9):
        f = choi_fidelity(Channel.identity(2), depolarizing_white(q))
        assert abs(f - (q + (1 - q) / 4)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_choi_fidelity_of_a_sequence_is_each_float_bit_for_bit(dim, ranks, seed):
    rng = np.random.default_rng(seed)
    target = random_channel(dim, 2, rng)
    members = [random_channel(dim, r, rng) for r in ranks]
    together = choi_fidelity(members, target)
    assert together.shape == (len(members),)
    assert [float(f) for f in together] == [choi_fidelity(m, target) for m in members]
    with pytest.raises(ChannelError, match="equal dimensions"):
        choi_fidelity([*members, Channel.identity(dim + 1)], target)


def test_choi_fidelity_symmetry():
    a = random_channel(2, 3, RNG)
    b = random_channel(2, 2, RNG)
    assert abs(choi_fidelity(a, b) - choi_fidelity(b, a)) < 1e-10


def test_choi_fidelity_monotone_under_mixing_toward_target():
    t = random_channel(2, 2, RNG)
    x = random_channel(2, 3, RNG)
    values = [choi_fidelity(mix([t, x], [lam, 1 - lam]), t)
              for lam in np.linspace(0, 1, 11)]
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_choi_fidelity_rejects_invalid_channel():
    bad = Channel(dim_in=2, dim_out=2, choi=np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
    with pytest.raises(ChannelError):
        choi_fidelity(bad, Channel.identity(2))


def test_choi_fidelity_refuses_a_non_hermitian_choi_state():
    choi = np.eye(4) / 4
    choi[0, 3] = 0.1  # no Hermitian partner at [3, 0]
    bad = Channel(dim_in=2, dim_out=2, choi=choi.astype(complex))
    with pytest.raises(ChannelError, match="not Hermitian"):
        choi_fidelity(Channel.identity(2), bad)


def test_unitary_conjugation_choi_is_pure():
    for u in (PAULI_X, PAULI_Y, PAULI_Z):
        ch = Channel.from_unitary(u)
        purity = float(np.trace(ch.choi @ ch.choi).real)
        assert abs(purity - 1) < 1e-10


def test_mix_linearity_of_choi():
    chans = [random_channel(2, r, RNG) for r in (1, 2, 3)]
    probs = [0.5, 0.3, 0.2]
    mixed = mix(chans, probs)
    expected = sum(p * c.choi for p, c in zip(probs, chans))
    assert np.max(np.abs(mixed.choi - expected)) < 1e-14


def test_validate_cptp_pass_and_fail():
    assert validate_cptp(Channel.identity(2)).passed
    # inject an explicit -1e-3 eigenvalue on a direction orthogonal to |Phi>
    phi = max_entangled_ket(2)
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    choi = 1.001 * np.outer(phi, phi.conj()) - 1e-3 * np.outer(v, v.conj())
    bad = Channel(dim_in=2, dim_out=2, choi=choi)
    report = validate_cptp(bad)
    assert not report.passed
    assert abs(report.min_choi_eigenvalue - (-1e-3)) < 1e-12


def test_validate_cptp_factory_sweep():
    grid = np.linspace(0, 1, 5)
    for p in grid:
        for factory in (dephasing, depolarizing, amplitude_damping, bit_flip):
            assert validate_cptp(factory(p)).passed, (factory.__name__, p)


def test_round_trip_fixed_point():
    ch = random_channel(3, 4, RNG)
    once = Channel.from_kraus(ch.kraus())
    twice = Channel.from_kraus(once.kraus())
    assert np.max(np.abs(once.choi - twice.choi)) < 1e-10


def test_serialization_round_trip():
    ch = random_channel(2, 3, RNG)
    back = channel_from_json(channel_to_json(ch))
    assert np.max(np.abs(back.choi - ch.choi)) < 1e-12
    assert (back.dim_in, back.dim_out) == (2, 2)


def test_serialization_rejects_unknown_normalization():
    data = {"dim_in": 2, "dim_out": 2, "choi_re": np.eye(4).tolist(),
            "choi_im": np.zeros((4, 4)).tolist(), "normalization": "traced"}
    with pytest.raises(ChannelError):
        import json

        channel_from_json(json.dumps(data))


def test_apply_consistency_with_superop():
    ch = random_channel(2, 4, RNG)
    rho = random_density_matrix(2, RNG)
    via_superop = unvectorize(ch.superop() @ vectorize(rho))
    assert np.max(np.abs(ch.apply(rho) - via_superop)) < 1e-10


def test_validate_density():
    validate_density(np.eye(2) / 2)
    with pytest.raises(ChannelError):
        validate_density(np.diag([1.2, -0.2]))
    with pytest.raises(ChannelError):
        validate_density(np.array([[0.5, 0.6], [0.4, 0.5]]))


def test_erasure_channel_is_rectangular_and_valid():
    from channel_forge.noise import erasure

    ch = erasure(0.5, 2)
    assert (ch.dim_in, ch.dim_out) == (2, 3)
    assert validate_cptp(ch).passed
    plus = np.ones((2, 2), dtype=complex) / 2
    out = ch.apply(plus)
    assert abs(out[2, 2] - 0.5) < 1e-12
    assert np.max(np.abs(out[:2, :2] - 0.5 * plus)) < 1e-12
