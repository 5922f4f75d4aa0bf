import numpy as np
import pytest

from channel_forge.channels import (
    Channel,
    ChannelError,
    choi_fidelity,
    compose,
    mix,
    random_density_matrix,
    validate_cptp,
)
from channel_forge.circuits import ChannelOp, Circuit, cnot, ry
from channel_forge.noise import (
    BlockModel,
    GateModel,
    PauliDiagonalSpec,
    amplitude_damping,
    apply_noise_model,
    bell_diagonal_weights,
    bit_flip,
    channel_by_name,
    compose_pauli_specs,
    dephasing,
    depolarizing,
    depolarizing_white,
    erasure,
    is_unital,
    noise_model_from_config,
    pauli_conjugations,
    pauli_diagonal,
    pauli_operators,
    pauli_product_table,
    rotation_noise_b,
)

RNG = np.random.default_rng(7)


def test_dephasing_endpoints_and_action():
    assert np.max(np.abs(dephasing(1.0).choi - Channel.identity(2).choi)) < 1e-12
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = dephasing(0.5).apply(rho)
    assert abs(out[0, 1]) < 1e-12 and abs(out[1, 0]) < 1e-12
    vals = np.sort(np.linalg.eigvalsh(dephasing(0.75).choi))
    assert np.allclose(vals, [0, 0, 0.25, 0.75], atol=1e-12)


def test_depolarizing_forms():
    assert np.max(np.abs(depolarizing(1.0).choi - Channel.identity(2).choi)) < 1e-12
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(depolarizing(0.25).apply(rho) - np.eye(2) / 2)) < 1e-12
    mixed = mix(pauli_conjugations(), [0.925, 0.025, 0.025, 0.025])
    assert np.max(np.abs(depolarizing(0.925).choi - mixed.choi)) < 1e-12
    # white-noise parameterization: q maps to kraus-weight (3q+1)/4
    assert np.max(np.abs(depolarizing_white(0.9).choi - depolarizing(0.925).choi)) < 1e-12


def test_amplitude_damping_examples():
    assert np.max(np.abs(amplitude_damping(0).choi - Channel.identity(2).choi)) < 1e-12
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    assert np.max(np.abs(amplitude_damping(1.0).apply(rho1) - np.diag([1.0, 0.0]))) < 1e-12
    out = amplitude_damping(0.1).apply(rho1)
    assert np.allclose(np.diag(out).real, [0.1, 0.9])


def test_bit_flip_endpoints():
    assert np.max(np.abs(bit_flip(1.0).choi - Channel.identity(2).choi)) < 1e-12
    x_conj = Channel.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.max(np.abs(bit_flip(0.0).choi - x_conj.choi)) < 1e-12
    assert validate_cptp(bit_flip(0.95)).passed


def test_pauli_diagonal_factory():
    assert np.max(np.abs(pauli_diagonal(PauliDiagonalSpec.identity()).choi
                         - Channel.identity(2).choi)) < 1e-12
    uniform = pauli_diagonal(PauliDiagonalSpec((0.25, 0.25, 0.25, 0.25)))
    assert np.max(np.abs(uniform.choi - depolarizing(0.25).choi)) < 1e-12


def test_pauli_diagonal_closed_under_composition():
    a = PauliDiagonalSpec((0.7, 0.1, 0.1, 0.1))
    b = PauliDiagonalSpec((0.85, 0.05, 0.05, 0.05))
    composed = compose(pauli_diagonal(b), pauli_diagonal(a))
    weights = bell_diagonal_weights(composed, atol=1e-12)
    assert weights is not None
    expected = compose_pauli_specs(a, b).as_array()
    assert np.max(np.abs(np.sort(weights) - np.sort(expected))) < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_pauli_product_table_matches_operator_products(n_qubits):
    ops = pauli_operators(n_qubits)
    table = pauli_product_table(n_qubits)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            product, expected = a @ b, ops[table[i, j]]
            # equal up to a phase: |tr(P^dag Q)| = d exactly when Q = phase * P
            assert abs(abs(np.trace(expected.conj().T @ product)) - len(a)) < 1e-12


def test_pauli_diagonal_closed_under_mixing():
    a = pauli_diagonal(PauliDiagonalSpec((0.7, 0.1, 0.1, 0.1)))
    b = pauli_diagonal(PauliDiagonalSpec((0.4, 0.2, 0.2, 0.2)))
    mixed = mix([a, b], [0.5, 0.5])
    assert bell_diagonal_weights(mixed, atol=1e-12) is not None


def test_rotation_noise_b():
    assert np.max(np.abs(rotation_noise_b(1.0).choi - Channel.identity(2).choi)) < 1e-12
    # q=0: equal mixture of the three 90-degree rotations
    rotations = [Channel.from_unitary((np.eye(2) + 1j * sigma) / np.sqrt(2))
                 for sigma in (np.array([[0, 1], [1, 0]]),
                               np.array([[0, -1j], [1j, 0]]),
                               np.array([[1, 0], [0, -1]]))]
    mixture = mix(rotations, [1 / 3] * 3)
    assert np.max(np.abs(rotation_noise_b(0.0).choi - mixture.choi)) < 1e-12
    assert validate_cptp(rotation_noise_b(0.37)).passed
    # non-Pauli-diagonal in the Bell basis away from the identity point
    assert bell_diagonal_weights(rotation_noise_b(0.5), atol=1e-6) is None


def test_erasure_endpoints():
    embed = erasure(1.0, 2)
    rho = random_density_matrix(2, RNG)
    out = embed.apply(rho)
    assert np.max(np.abs(out[:2, :2] - rho)) < 1e-12
    assert abs(out[2, 2]) < 1e-12
    lost = erasure(0.0, 2).apply(rho)
    assert abs(lost[2, 2] - 1) < 1e-12


def test_factories_all_cptp():
    for p in np.linspace(0, 1, 6):
        for factory in (dephasing, depolarizing, depolarizing_white,
                        amplitude_damping, bit_flip, rotation_noise_b):
            assert validate_cptp(factory(p)).passed, (factory.__name__, p)
        assert validate_cptp(erasure(p, 2)).passed


def test_unitality():
    for factory in (dephasing, depolarizing, bit_flip):
        assert is_unital(factory(0.7))
    assert not is_unital(amplitude_damping(0.3))
    mixed = np.eye(2) / 2
    moved = amplitude_damping(0.3).apply(mixed)
    assert np.max(np.abs(moved - mixed)) > 1e-3  # strictly not a fixed point


def test_depolarizing_commutes_with_unitaries():
    d = depolarizing(0.8)
    for _ in range(3):
        h = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        from scipy.linalg import expm

        u = Channel.from_unitary(expm(1j * h))
        assert abs(choi_fidelity(compose(u, d), compose(d, u)) - 1) < 1e-10


def test_pauli_spec_validation():
    with pytest.raises(ChannelError):
        PauliDiagonalSpec((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ChannelError):
        PauliDiagonalSpec((0.5, 0.2))


# -- noise models ------------------------------------------------------------


def _count_noise_ops(circuit):
    return sum(1 for el in circuit.elements
               if isinstance(el, ChannelOp) and el.is_noise)


def test_block_model_on_empty_circuit():
    c = Circuit(wires=[("q0", 2)], data_wires=(0,))
    noisy = apply_noise_model(c, BlockModel(dephasing(0.9)))
    assert _count_noise_ops(noisy) == 1
    assert len(c.elements) == 0  # original untouched


def test_gate_model_insertion_counts_and_order():
    c = Circuit(wires=[("q0", 2), ("q1", 2)], data_wires=(0,))
    c.gate(ry(0.3), [1], name="ry")
    c.gate(cnot(), [1, 0], name="cnot")
    c.measure(1, "m")
    c.trace_out(1)
    noisy = apply_noise_model(c, GateModel(depolarizing(0.9)))
    # 1 (ry) + 2 (cnot) + 1 (pre-measure) insertions
    assert _count_noise_ops(noisy) == 4
    kinds = [type(el).__name__ + (":noise" if isinstance(el, ChannelOp) and el.is_noise else "")
             for el in noisy.elements]
    assert kinds == ["Gate", "ChannelOp:noise", "Gate", "ChannelOp:noise",
                     "ChannelOp:noise", "ChannelOp:noise", "Measure", "TraceOut"]
    # cnot noise wires ascending
    cnot_noise = [el for el in noisy.elements if isinstance(el, ChannelOp)][1:3]
    assert cnot_noise[0].wires == (0,) and cnot_noise[1].wires == (1,)


def test_gate_model_is_deterministic_and_skips_noise_ops():
    c = Circuit(wires=[("q0", 2)], data_wires=(0,))
    c.gate(ry(1.0), [0], name="ry")
    nm = GateModel(dephasing(0.95))
    once = apply_noise_model(c, nm)
    again = apply_noise_model(c, nm)
    assert [type(e).__name__ for e in once.elements] == [type(e).__name__ for e in again.elements]
    # decorating the decorated circuit only touches the original gate
    twice = apply_noise_model(once, nm)
    assert _count_noise_ops(twice) == _count_noise_ops(once) + 1


def test_gate_model_channel_insertions_get_noise():
    from channel_forge.circuits import build_bitflip_circuit_a

    noisy = apply_noise_model(build_bitflip_circuit_a(0.5), GateModel(depolarizing_white(0.8)))
    assert _count_noise_ops(noisy) == 1


def test_noise_model_config_parsing():
    nm = noise_model_from_config(
        {"kind": "gate", "channels": [{"name": "depolarizing", "q": 0.925},
                                      {"name": "dephasing", "q": 0.925}]})
    assert isinstance(nm, GateModel)
    expected = compose(dephasing(0.925), depolarizing(0.925))
    assert np.max(np.abs(nm.per_wire.choi - expected.choi)) < 1e-12
    blk = noise_model_from_config(
        {"kind": "block", "channels": [{"name": "amplitude_damping", "gamma": 0.2}]})
    assert isinstance(blk, BlockModel)
    with pytest.raises(ChannelError):
        noise_model_from_config({"kind": "nope", "channels": []})
    with pytest.raises(ChannelError):
        channel_by_name("unknown_channel", q=0.5)


@pytest.mark.parametrize("element", ["conditional_gate", "conditioned_channel"])
def test_conditional_gate_noise_is_conditioned(element):
    c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
    c.gate(ry(np.pi / 2), [1], name="ry")
    c.measure(1, "m")
    if element == "conditional_gate":
        c.conditional_gate(np.array([[0, 1], [1, 0]], dtype=complex), [0], "m", 1, name="x")
    else:
        c.channel(bit_flip(0.0), [0], condition=("m", 1))
    c.trace_out(1)
    noise = amplitude_damping(0.5)
    noisy = apply_noise_model(c, GateModel(noise))
    conds = [el for el in noisy.elements
             if isinstance(el, ChannelOp) and el.is_noise and el.condition is not None]
    assert len(conds) == 1 and conds[0].condition == ("m", 1)
    assert conds[0].wires == (0,) and conds[0].channel is noise
    # the noise follows its element directly
    k = next(i for i, el in enumerate(noisy.elements) if el is conds[0])
    assert noisy.elements[k - 1] is c.elements[-2]
