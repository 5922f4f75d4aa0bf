import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from channel_forge import engine as engine_module
from channel_forge.channels import (
    Channel,
    ChannelError,
    choi_fidelity,
    random_channel,
    random_density_matrix,
    validate_cptp,
)
from channel_forge.circuits import (
    Circuit,
    build_ad_circuit,
    build_bitflip_circuit_a,
    build_bitflip_circuit_b,
    circuit_from_dict,
    circuit_to_dict,
    cnot,
    controlled_ry,
    extract_channel,
    hadamard,
    ry,
    shift_operator,
    simulate,
    simulate_detailed,
)
from channel_forge.noise import (
    GateModel,
    PAULI_X,
    amplitude_damping,
    apply_noise_model,
    bit_flip,
    dephasing,
    depolarizing_white,
)

RNG = np.random.default_rng(31)


def test_gate_constructors():
    assert np.allclose(ry(0.0), np.eye(2))
    theta = 1.1
    r = ry(theta)
    assert abs(r[1, 0] - np.sin(theta / 2)) < 1e-12
    c = cnot()
    # control 1 flips target: |10> -> |11>
    v = np.zeros(4)
    v[2] = 1
    assert np.allclose(c @ v, [0, 0, 0, 1])
    s = shift_operator(3)
    v = np.zeros(3)
    v[1] = 1
    assert np.allclose(s @ v, [1, 0, 0])  # X_D|1> = |0>
    assert np.allclose(np.linalg.matrix_power(s, 3), np.eye(3))


def test_simulate_empty_circuit():
    c = Circuit(wires=[("q0", 2)])
    rho = random_density_matrix(2, RNG)
    assert np.max(np.abs(simulate(c, rho) - rho)) < 1e-14


def test_simulate_ad_circuit_on_excited_state():
    gamma = 0.37
    theta = 2 * np.arcsin(np.sqrt(gamma))
    c = build_ad_circuit(theta)
    out = simulate(c, np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(np.diag(out).real, [gamma, 1 - gamma], atol=1e-12)


def test_simulate_bitflip_b_on_plus_state():
    p = 0.7
    c = build_bitflip_circuit_b(p)
    plus = np.ones((2, 2), dtype=complex) / 2
    expected = bit_flip(p).apply(plus)
    assert np.max(np.abs(simulate(c, plus) - expected)) < 1e-12


def test_simulate_preserves_trace_and_psd_under_noise():
    gamma = 0.3
    c = build_ad_circuit(2 * np.arcsin(np.sqrt(gamma)), "measure-feedback")
    noisy = apply_noise_model(c, GateModel(depolarizing_white(0.9)))
    rho = random_density_matrix(2, RNG)
    out = simulate(noisy, rho)
    assert abs(np.trace(out).real - 1) < 1e-10
    assert np.linalg.eigvalsh(out)[0] > -1e-10


def test_simulate_interleaved_data_wires():
    # data wires (0, 2) with an ancilla in the middle: permutation correctness
    c = Circuit(wires=[("a", 2), ("anc", 2), ("b", 2)], data_wires=(0, 2))
    c.gate(cnot(), [0, 2], name="cnot")
    c.trace_out(1)
    phi = np.zeros(4, dtype=complex)
    phi[0] = 1.0  # |00> on (a, b)
    rho_in = np.outer(phi, phi.conj())
    out = simulate(c, rho_in)
    assert np.max(np.abs(out - rho_in)) < 1e-12
    one = np.zeros(4, dtype=complex)
    one[2] = 1.0  # |10> -> cnot -> |11>
    out = simulate(c, np.outer(one, one.conj()))
    expect = np.zeros(4, dtype=complex)
    expect[3] = 1.0
    assert np.max(np.abs(out - np.outer(expect, expect.conj()))) < 1e-12


def _reorder(dims, order):
    """Permutation matrix taking a ket over factors of ``dims`` to the ket whose
    factor j is factor ``order[j]``."""
    p = np.zeros((math.prod(dims),) * 2)
    new_dims = [dims[a] for a in order]
    for idx in np.ndindex(*dims):
        p[np.ravel_multi_index([idx[a] for a in order], new_dims),
          np.ravel_multi_index(idx, dims)] = 1.0
    return p


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wire_order_matches_dense_kron_reference(data):
    # data wires in any order with ancillas between them, one gate on any
    # ordered wire subset: simulate and extract_channel against np.kron
    n = data.draw(st.integers(2, 4))
    dims = data.draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n - 1))
    data_wires, ancillas = tuple(order[:k]), sorted(order[k:])
    gate_wires = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    d_data = math.prod(dims[w] for w in data_wires)
    d_anc = math.prod(dims[w] for w in ancillas)
    assume(math.prod(dims) * d_data <= 400)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d_gate = math.prod(dims[w] for w in gate_wires)
    q, r = np.linalg.qr(rng.standard_normal((d_gate, d_gate))
                        + 1j * rng.standard_normal((d_gate, d_gate)))
    u = q * np.sign(np.diag(r).real)
    c = Circuit(wires=[(f"w{i}", d) for i, d in enumerate(dims)], data_wires=data_wires)
    c.gate(u, gate_wires)
    for w in ancillas:
        c.trace_out(w)

    # dense reference, in factor order (data wires..., ancillas...)
    rest = [w for w in range(n) if w not in gate_wires]
    to_gate = _reorder(dims, list(gate_wires) + rest)
    to_input = _reorder(dims, list(data_wires) + ancillas)
    gate_u = to_gate.T @ np.kron(u, np.eye(math.prod(dims) // d_gate)) @ to_gate
    full_u = to_input @ gate_u @ to_input.T
    zero = np.zeros((d_anc, d_anc))
    zero[0, 0] = 1.0

    def reference(rho):
        out = full_u @ np.kron(rho, zero) @ full_u.conj().T
        return np.trace(out.reshape(d_data, d_anc, d_data, d_anc), axis1=1, axis2=3)

    rho = random_density_matrix(d_data, rng)
    ascending = _reorder([dims[w] for w in data_wires], sorted(range(k), key=data_wires.__getitem__))
    assert np.max(np.abs(simulate(c, rho) - ascending @ reference(rho) @ ascending.T)) < 1e-12
    units = np.eye(d_data * d_data).reshape(d_data * d_data, d_data, d_data)
    choi = sum(np.kron(reference(e), e) for e in units) / d_data
    assert np.max(np.abs(extract_channel(c).channel.choi - choi)) < 1e-12


def test_extract_identity_circuit():
    c = Circuit(wires=[("q0", 2)])
    res = extract_channel(c)
    assert abs(choi_fidelity(res.channel, Channel.identity(2)) - 1) < 1e-12


def test_extract_ad_circuit_both_variants():
    gamma = 0.41
    theta = 2 * np.arcsin(np.sqrt(gamma))
    target = amplitude_damping(gamma)
    res_a = extract_channel(build_ad_circuit(theta, "unitary-cnot"))
    res_b = extract_channel(build_ad_circuit(theta, "measure-feedback"))
    assert abs(choi_fidelity(res_a.channel, target) - 1) < 1e-10
    assert abs(choi_fidelity(res_b.channel, target) - 1) < 1e-10
    # deferred-measurement equivalence
    assert np.max(np.abs(res_a.channel.choi - res_b.channel.choi)) < 1e-10


def test_bitflip_builders_ideal():
    for p in (0.0, 0.6, 1.0):
        res = extract_channel(build_bitflip_circuit_a(p))
        assert abs(choi_fidelity(res.channel, bit_flip(p)) - 1) < 1e-10
    res = extract_channel(build_bitflip_circuit_b(0.7))
    assert abs(choi_fidelity(res.channel, bit_flip(0.7)) - 1) < 1e-10


def test_branch_log_probabilities():
    theta = 2 * np.arcsin(np.sqrt(0.3))
    c = build_ad_circuit(theta, "measure-feedback")
    rho, branches = simulate_detailed(c, np.diag([0.0, 1.0]).astype(complex))
    total = sum(p for _, p in branches)
    assert abs(total - 1) < 1e-10
    assert {rec["m"] for rec, _ in branches} == {0, 1}


def test_measure_then_conditional_requires_prior_measurement():
    c = Circuit(wires=[("q0", 2), ("anc", 2)])
    with pytest.raises(ChannelError):
        c.conditional_gate(PAULI_X, [0], "m", 1)


def test_extract_refuses_untraced_ancilla():
    c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
    c.gate(controlled_ry(1.0), [0, 1], name="cry")
    with pytest.raises(ChannelError, match="anc"):
        extract_channel(c)


def test_extract_refuses_traced_data_wire():
    c = Circuit(wires=[("q0", 2)], data_wires=(0,))
    c.trace_out(0)
    with pytest.raises(ChannelError):
        extract_channel(c)


def test_extract_refuses_over_the_cap_before_building_its_input():
    # 6 data qubits and 1 ancilla: a Choi input of dimension 64 x 128 = 8192
    c = Circuit(wires=[(f"q{i}", 2) for i in range(7)], data_wires=tuple(range(6)))
    c.trace_out(6)
    tracemalloc.start()
    try:
        with pytest.raises(ChannelError, match="exceeds engine cap"):
            extract_channel(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def assert_same_bits(a, b):
    """Equal values and equal signs of zero, real and imaginary parts alike."""
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def _random_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r).real)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_members_equal_their_batch_of_one_bit_for_bit(data):
    # same-skeleton circuits: per-member gates on any ordered wire subset,
    # shared noise channels, ancilla resets, ancillas traced out, data wires in
    # any order; each member of the batch against its own run
    n = data.draw(st.integers(2, 4))
    dims = data.draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n - 1))
    data_wires, ancillas = tuple(order[:k]), sorted(order[k:])
    assume(math.prod(dims) * math.prod(dims[w] for w in data_wires) <= 400)
    batch = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    circuits = [Circuit(wires=[(f"w{i}", d) for i, d in enumerate(dims)], data_wires=data_wires)
                for _ in range(batch)]
    for step in data.draw(st.lists(st.sampled_from(["gate", "channel", "reset"]),
                                   min_size=1, max_size=4)):
        if step == "reset":
            w = data.draw(st.sampled_from(ancillas))
            for c in circuits:
                c.reset(w)
            continue
        wires = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, min(n, 3)))]
        d = math.prod(dims[w] for w in wires)
        if step == "channel" and d <= 9:
            ch = random_channel(d, data.draw(st.integers(1, 3)), rng)
            for c in circuits:
                c.channel(ch, wires, is_noise=True)
        else:
            for c in circuits:
                c.gate(_random_unitary(d, rng), wires)
    for c in circuits:
        for w in ancillas:
            c.trace_out(w)
    results = extract_channel(circuits)
    assert len(results) == batch
    for c, res in zip(circuits, results):
        (alone,) = extract_channel([c])
        assert_same_bits(res.channel.choi, alone.channel.choi)
        assert_same_bits(alone.channel.choi, extract_channel(c).channel.choi)


def test_a_batch_refuses_a_skeleton_mismatch_by_element():
    def circuit(gate_wire, ch=None):
        c = Circuit(wires=[("a", 2), ("b", 2)])
        c.gate(hadamard(), [0])
        c.gate(ry(0.3), [gate_wire])
        if ch is not None:
            c.channel(ch, [1])
        return c

    with pytest.raises(ChannelError, match=r"elements\[1\]: element differs"):
        extract_channel([circuit(0), circuit(1)])
    # a noise channel is shared by identity, not by value
    with pytest.raises(ChannelError, match=r"elements\[2\]: element differs"):
        extract_channel([circuit(0, bit_flip(0.9)), circuit(0, bit_flip(0.9))])
    shared = bit_flip(0.9)
    assert len(extract_channel([circuit(0, shared), circuit(0, shared)])) == 2
    longer = circuit(0).gate(ry(0.1), [1])
    with pytest.raises(ChannelError, match="element count"):
        extract_channel([circuit(0), longer])
    with pytest.raises(ChannelError, match="measure a batch"):
        extract_channel([build_ad_circuit(0.3, "measure-feedback")] * 2)


def test_a_batch_refuses_over_the_budget_before_building_its_input(monkeypatch):
    # 3 data qubits: a 64 x 64 Choi input per member, 64 KiB; 1,000 members
    # would take 64 MiB, and a 1 MiB budget holds 16
    c = Circuit(wires=[(f"q{i}", 2) for i in range(3)])
    c.gate(hadamard(), [0])
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", 2**20)
    assert len(extract_channel([c] * 16)) == 16
    tracemalloc.start()
    try:
        with pytest.raises(ChannelError, match="1000 state"):
            extract_channel([c] * 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_reset_reinitializes_wire():
    c = Circuit(wires=[("q0", 2)])
    c.reset(0)
    rho = random_density_matrix(2, RNG)
    out = simulate(c, rho)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12


def test_fig7a_noisy_matches_closed_form_point():
    target_p, p, q = 0.35, 0.6, 0.8
    noisy = apply_noise_model(build_bitflip_circuit_a(p), GateModel(depolarizing_white(q)))
    f = choi_fidelity(extract_channel(noisy).channel, bit_flip(target_p))
    expected = 0.25 * (np.sqrt(target_p * ((4 * p - 1) * q + 1))
                       + np.sqrt((1 - target_p) * ((3 - 4 * p) * q + 1))) ** 2
    assert abs(f - expected) < 1e-12


def test_fig8b_gate_noise_insertion():
    theta = 1.0
    noisy = apply_noise_model(build_ad_circuit(theta), GateModel(depolarizing_white(0.9)))
    res = extract_channel(noisy)
    assert validate_cptp(res.channel).passed
    ideal = extract_channel(build_ad_circuit(theta))
    assert choi_fidelity(res.channel, ideal.channel) < 1


def test_noisy_ad_variants_differ():
    theta = 2 * np.arcsin(np.sqrt(0.4))
    gm = GateModel(depolarizing_white(0.85))
    a = extract_channel(apply_noise_model(build_ad_circuit(theta, "unitary-cnot"), gm))
    b = extract_channel(apply_noise_model(build_ad_circuit(theta, "measure-feedback"), gm))
    assert np.max(np.abs(a.channel.choi - b.channel.choi)) > 1e-4


def test_circuit_json_round_trip():
    theta = 1.234
    c = build_ad_circuit(theta, "measure-feedback")
    c2 = circuit_from_dict(circuit_to_dict(c))
    r1 = extract_channel(c)
    r2 = extract_channel(c2)
    assert np.max(np.abs(r1.channel.choi - r2.channel.choi)) < 1e-14


def test_circuit_json_named_gates():
    data = {
        "wires": [{"label": "q0", "dim": 2}, {"label": "anc", "dim": 2}],
        "data_wires": [0],
        "elements": [
            {"type": "gate", "name": "ry", "theta": 1.234, "wires": [1]},
            {"type": "gate", "name": "cnot", "wires": [1, 0]},
            {"type": "trace_out", "wire": 1},
        ],
    }
    c = circuit_from_dict(data)
    res = extract_channel(c)
    p = 1 - np.sin(1.234 / 2) ** 2
    assert abs(choi_fidelity(res.channel, bit_flip(p)) - 1) < 1e-10


def test_circuit_json_named_channel():
    data = {
        "wires": [{"label": "q0", "dim": 2}],
        "elements": [{"type": "channel", "name": "dephasing", "q": 0.75, "wires": [0]}],
    }
    c = circuit_from_dict(data)
    res = extract_channel(c)
    assert abs(choi_fidelity(res.channel, dephasing(0.75)) - 1) < 1e-12


def test_circuit_json_unknown_element():
    with pytest.raises(ChannelError):
        circuit_from_dict({"wires": [{"label": "q", "dim": 2}],
                           "elements": [{"type": "teleport"}]})


def test_circuit_wire_validation():
    c = Circuit(wires=[("q0", 2)])
    with pytest.raises(ChannelError):
        c.gate(np.eye(2), [1])
    with pytest.raises(ChannelError):
        c.gate(np.eye(2), [0, 0])
    with pytest.raises(ChannelError):
        c.gate(np.eye(4), [0])


def test_qudit_wire_simulation():
    c = Circuit(wires=[("qutrit", 3)])
    c.gate(shift_operator(3), [0], name="shift")
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    out = simulate(c, rho)
    assert np.allclose(np.diag(out).real, [0, 0, 1])  # X_D|0> = |2>


def test_hadamard_plus_state():
    c = Circuit(wires=[("q0", 2)])
    c.gate(hadamard(), [0], name="h")
    out = simulate(c, np.diag([1.0, 0.0]).astype(complex))
    assert np.max(np.abs(out - np.ones((2, 2)) / 2)) < 1e-12
