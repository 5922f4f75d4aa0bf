import numpy as np
import pytest

from channel_forge.channels import ChannelError, random_density_matrix
from channel_forge.circuits import (Circuit, ChannelOp, ConditionalGate, Gate, Measure, TraceOut,
                                    cnot, hadamard, simulate_detailed)
from channel_forge.linalg import state_fidelity
from channel_forge.netsim import (
    AddRegisters,
    FidelityReport,
    NetworkScenario,
    StateReport,
    resource_estimate,
    run_scenario,
    scenario_from_dict,
)
from channel_forge.noise import PAULI_X, PAULI_Z, dephasing, depolarizing

RNG = np.random.default_rng(55)

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
BELL_STATE = np.outer(BELL, BELL.conj())


def bell_pair_events(a="a", b="b"):
    return [Gate(hadamard(), (a,)), Gate(cnot(), (a, b))]


def test_empty_scenario_gives_empty_report():
    report = run_scenario(NetworkScenario())
    assert report.fidelities == {} and report.states == {}
    assert abs(report.final_trace - 1) < 1e-12


def test_bell_plus_memory_dephasing_fidelity():
    p = 0.7
    scenario = NetworkScenario(
        initial_registers=[("a", 2), ("b", 2)],
        nodes={"alice": ["a"], "bob": ["b"]},
        events=bell_pair_events() + [ChannelOp(dephasing(p), ("b",))],
        reports=[FidelityReport("bell", ("a", "b"), BELL_STATE)],
    )
    report = run_scenario(scenario)
    # oracle: direct density-matrix computation
    rho = BELL_STATE.copy()
    z = np.kron(np.eye(2), PAULI_Z)
    oracle = p * rho + (1 - p) * z @ rho @ z
    assert abs(report.fidelities["bell"] - state_fidelity(oracle, BELL_STATE)) < 1e-12
    assert abs(report.fidelities["bell"] - p) < 1e-10


def test_teleportation_over_depolarizing_link():
    psi = random_density_matrix(2, RNG, rank=1)
    link = depolarizing(0.8)
    scenario = NetworkScenario(
        initial_registers=[("msg", 2), ("a", 2), ("b", 2)],
        events=[],
        reports=[StateReport("out", ("b",))],
    )
    scenario.events.extend(bell_pair_events("a", "b"))
    scenario.events.append(ChannelOp(link, ("b",)))  # noisy distribution of the pair
    # Bell measurement on (msg, a) with classical feedback to b
    scenario.events.append(Gate(cnot(), ("msg", "a")))
    scenario.events.append(Gate(hadamard(), ("msg",)))
    scenario.events.append(Measure("a", "m_x"))
    scenario.events.append(Measure("msg", "m_z"))
    scenario.events.append(ConditionalGate(PAULI_X, ("b",), "m_x", 1))
    scenario.events.append(ConditionalGate(PAULI_Z, ("b",), "m_z", 1))
    scenario.events.extend([TraceOut("msg"), TraceOut("a")])
    # teleported state must equal the link channel applied to psi; prepare psi
    scenario.events.insert(0, Gate(_prep_unitary(psi), ("msg",)))
    report = run_scenario(scenario)
    expected = link.apply(psi)
    assert np.max(np.abs(report.states["out"] - expected)) < 1e-10


def _prep_unitary(psi_rho):
    """Unitary taking |0> to the pure state of a rank-1 density matrix."""
    vals, vecs = np.linalg.eigh(psi_rho)
    ket = vecs[:, -1]
    u = np.zeros((2, 2), dtype=complex)
    u[:, 0] = ket
    u[:, 1] = np.array([-ket[1].conj(), ket[0].conj()])
    return u


def test_memory_wait_collapsing():
    p1, p2 = 0.9, 0.8
    base = NetworkScenario(
        initial_registers=[("a", 2), ("b", 2)],
        events=bell_pair_events(),
        reports=[StateReport("s", ("a", "b"))],
    )
    two = NetworkScenario(
        initial_registers=base.initial_registers,
        events=base.events + [ChannelOp(dephasing(p1), ("b",)),
                              ChannelOp(dephasing(p2), ("b",))],
        reports=base.reports,
    )
    from channel_forge.channels import compose

    one = NetworkScenario(
        initial_registers=base.initial_registers,
        events=base.events + [ChannelOp(compose(dephasing(p2), dephasing(p1)), ("b",))],
        reports=base.reports,
    )
    s_two = run_scenario(two).states["s"]
    s_one = run_scenario(one).states["s"]
    assert np.max(np.abs(s_two - s_one)) < 1e-10


def test_event_order_determinism():
    scenario = NetworkScenario(
        initial_registers=[("a", 2), ("b", 2)],
        events=bell_pair_events() + [Measure("a", "m"),
                                     ConditionalGate(PAULI_X, ("b",), "m", 1)],
        reports=[StateReport("s", ("b",))],
    )
    r1 = run_scenario(scenario)
    r2 = run_scenario(scenario)
    assert np.array_equal(r1.states["s"], r2.states["s"])
    assert r1.branch_log == r2.branch_log


def test_global_trace_preserved():
    scenario = NetworkScenario(
        initial_registers=[("a", 2), ("b", 2), ("c", 2)],
        events=bell_pair_events() + [
            ChannelOp(depolarizing(0.7), ("c",)),
            Measure("c", "m"),
            ConditionalGate(PAULI_Z, ("a",), "m", 0),
            TraceOut("c"),
            AddRegisters((("d", 2),)),
            Gate(cnot(), ("b", "d")),
        ],
        reports=[],
    )
    report = run_scenario(scenario)
    assert abs(report.final_trace - 1) < 1e-10


def _protocol(w):
    """A gate, a channel, a measurement, a conditional gate, a conditional
    channel and a trace-out over the wires ``w[0..2]``."""
    return [Gate(hadamard(), (w[0],)), Gate(cnot(), (w[0], w[1])),
            ChannelOp(depolarizing(0.8), (w[1],)),
            Measure(w[0], "m"),
            ConditionalGate(PAULI_X, (w[2],), "m", 1),
            ChannelOp(dephasing(0.7), (w[1],), condition=("m", 0)),
            TraceOut(w[0])]


def test_circuit_and_scenario_run_through_one_interpreter():
    names = ("a", "b", "c")
    circuit = Circuit(wires=[(n, 2) for n in names], elements=_protocol((0, 1, 2)))
    zero = np.zeros((8, 8), dtype=complex)
    zero[0, 0] = 1.0
    state, branches = simulate_detailed(circuit, zero)
    scenario = NetworkScenario(initial_registers=[(n, 2) for n in names],
                               events=_protocol(names), reports=[StateReport("s", ("b", "c"))])
    report = run_scenario(scenario)
    assert np.array_equal(state, report.states["s"])
    assert branches == report.branch_log


def test_dangling_condition_raises():
    scenario = NetworkScenario(
        initial_registers=[("a", 2)],
        events=[ConditionalGate(PAULI_X, ("a",), "ghost", 1)],
    )
    with pytest.raises(ChannelError):
        run_scenario(scenario)


def test_dead_register_raises():
    scenario = NetworkScenario(
        initial_registers=[("a", 2), ("b", 2)],
        events=[TraceOut("a"), Gate(PAULI_X, ("a",))],
    )
    with pytest.raises(ChannelError):
        run_scenario(scenario)


def test_dimension_cap():
    scenario = NetworkScenario(
        initial_registers=[(f"q{i}", 2) for i in range(13)],
    )
    with pytest.raises(ChannelError):
        run_scenario(scenario)


def test_erasure_changes_register_dimension():
    from channel_forge.noise import erasure

    scenario = NetworkScenario(
        initial_registers=[("a", 2)],
        events=[Gate(hadamard(), ("a",)), ChannelOp(erasure(0.5, 2), ("a",))],
        reports=[StateReport("s", ("a",))],
    )
    report = run_scenario(scenario)
    assert report.states["s"].shape == (3, 3)
    assert abs(report.states["s"][2, 2] - 0.5) < 1e-12


def test_resource_estimate_examples():
    r = resource_estimate(10, 3, 1)
    assert r.active_qubits == 30
    assert r.qubits_required == 60
    assert resource_estimate(1, 1, 1).qubits_required == 2
    assert resource_estimate(2, 2, 3).qubits_required == 24
    with pytest.raises(ChannelError):
        resource_estimate(0, 1, 1)


def test_scenario_from_dict_round_trip():
    data = {
        "registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}],
        "nodes": {"alice": ["a"], "bob": ["b"]},
        "events": [
            {"type": "apply_gate", "name": "h", "registers": ["a"]},
            {"type": "apply_gate", "name": "cnot", "registers": ["a", "b"]},
            {"type": "apply_channel", "name": "dephasing", "q": 0.7, "registers": ["b"]},
            {"type": "measure", "register": "a", "message": "m"},
            {"type": "conditional_gate", "name": "x", "registers": ["b"],
             "message": "m", "value": 1},
        ],
        "reports": [
            {"type": "fidelity", "name": "bell", "registers": ["a", "b"],
             "target_re": BELL_STATE.real.tolist()},
            {"type": "state", "name": "final", "registers": ["b"]},
        ],
    }
    scenario = scenario_from_dict(data)
    report = run_scenario(scenario)
    assert set(report.fidelities) == {"bell"}
    assert report.states["final"].shape == (2, 2)


def test_scenario_from_dict_validates_nodes():
    with pytest.raises(ChannelError):
        scenario_from_dict({"registers": [{"name": "a", "dim": 2}],
                            "nodes": {"alice": ["zz"]}})
