import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from channel_forge import engine as engine_module
from channel_forge.channels import Channel, channel_to_dict, channel_to_json
from channel_forge.cli import _emit_json, main, rows_to_csv
from channel_forge.linalg import max_entangled_ket
from channel_forge.noise import amplitude_damping


def run_cli(args):
    return main(args)


def test_channel_fidelity_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(channel_to_json(Channel.identity(2)))
    code = run_cli(["channel", "fidelity", str(path), str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["fidelity"] - 1.0) < 1e-12


def test_channel_build_amplitude_damping(tmp_path):
    out = tmp_path / "ad.json"
    code = run_cli(["--out", str(out), "channel", "build",
                    "--name", "amplitude_damping", "--gamma", "0.1"])
    assert code == 0
    data = json.loads(out.read_text())
    expected = channel_to_dict(amplitude_damping(0.1))
    assert np.max(np.abs(np.asarray(data["choi_re"]) - np.asarray(expected["choi_re"]))) < 1e-12


def test_channel_validate_bad_choi(tmp_path, capsys):
    phi = max_entangled_ket(2)
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    choi = 1.001 * np.outer(phi, phi.conj()) - 1e-3 * np.outer(v, v.conj())
    bad = Channel(dim_in=2, dim_out=2, choi=choi)
    path = tmp_path / "bad.json"
    path.write_text(channel_to_json(bad))
    code = run_cli(["channel", "validate", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not out["passed"]
    assert out["min_choi_eigenvalue"] < -5e-4


def test_channel_convert_to_kraus(tmp_path, capsys):
    path = tmp_path / "deph.json"
    from channel_forge.noise import dephasing

    path.write_text(channel_to_json(dephasing(0.75)))
    code = run_cli(["channel", "convert", "--in", str(path), "--to", "kraus"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["kraus_re"]) == 2


def test_channel_inline_spec(capsys):
    code = run_cli(["channel", "fidelity", "dephasing:q=0.75", "dephasing:q=0.75"])
    assert code == 0
    assert abs(json.loads(capsys.readouterr().out)["fidelity"] - 1.0) < 1e-12


def test_dilate_qudit_ad(tmp_path, capsys):
    path = tmp_path / "ad.json"
    path.write_text(channel_to_json(amplitude_damping(0.3)))
    code = run_cli(["dilate", "--in", str(path), "--mode", "qudit"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["overhead_qubits"] - (np.log2(3) - 1)) < 1e-9


def test_dilate_identity_zero_overhead(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(channel_to_json(Channel.identity(2)))
    code = run_cli(["dilate", "--in", str(path), "--mode", "ancilla"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["overhead_qubits"]) < 1e-12


def test_dilate_random_rank4(capsys):
    code = run_cli(["--seed", "5", "dilate", "--random-rank", "4", "--mode", "ancilla"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["overhead_qubits"] - 2.0) < 1e-12


def test_figures_fig7c_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = run_cli(["--out", str(out), "figures", "fig7c", "--grid", "5"])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("target_p,q")
    ia = header.index("best_fidelity_stochastic")
    ib = header.index("best_fidelity_ancilla")
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == len(header)  # full parameter tuple on every row
        assert float(cols[ib]) <= float(cols[ia]) + 1e-9


def test_figures_fig6c_budget_flags_leave_the_pauli_stage_alone(capsys):
    args = ["--format", "json", "figures", "fig6c", "--grid", "3", "--restarts", "1",
            "--evals", "60"]
    outputs = []
    for _ in range(2):
        assert run_cli(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    row = next(r for r in json.loads(outputs[0]) if r["target_strength"] == 0.5)
    assert row["fidelity_pauli_probs"] >= 0.9846889225862964 - 1e-9


def test_netsim_empty_scenario(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"registers": [], "events": [], "reports": []}))
    code = run_cli(["netsim", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["fidelities"] == {}


def test_netsim_bell_scenario(tmp_path, capsys):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    scenario = {
        "registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}],
        "events": [
            {"type": "apply_gate", "name": "h", "registers": ["a"]},
            {"type": "apply_gate", "name": "cnot", "registers": ["a", "b"]},
            {"type": "apply_channel", "name": "dephasing", "q": 0.8, "registers": ["b"]},
        ],
        "reports": [{"type": "fidelity", "name": "bell", "registers": ["a", "b"],
                     "target_re": bell.tolist()}],
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(scenario))
    code = run_cli(["netsim", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(data["fidelities"]["bell"] - 0.8) < 1e-10


def test_netsim_malformed_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"registers": [{"name": "a", "dim": 2}],
                                "events": [{"type": "warp", "registers": ["a"]}]}))
    code = run_cli(["netsim", str(path)])
    capsys.readouterr()
    assert code == 2


def test_bad_channel_spec_exits_2(capsys):
    code = run_cli(["channel", "fidelity", "nope-this-is-not-a-file", "also-not"])
    capsys.readouterr()
    assert code == 2


def test_rows_to_csv_formatting():
    rows = [{"a": 0.123456789012345, "b": 1}]
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "a,b"
    assert "0.123456789012" in text


def test_tailor_job_ad_repeat(tmp_path, capsys):
    job = {"method": "ad-repeat", "hw_p": 0.25, "target_p": 1 - 0.75**3, "n_max": 10}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = run_cli(["tailor", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["n"] == 3
    assert abs(out["achieved_fidelity"] - 1) < 1e-10
    assert out["settings"] == {**job, "seed": 0}  # effective seed recorded


def test_tailor_job_pauli_infeasible_exit_code(tmp_path, capsys):
    job = {"method": "pauli", "hw": [0.925, 0.025, 0.025, 0.025],
           "base": [0.925, 0.025, 0.025, 0.025],
           "target": [0.99, 0.005, 0.0025, 0.0025]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = run_cli(["tailor", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["feasible"] is False


def test_tailor_job_unknown_method(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"method": "wish"}))
    code = run_cli(["tailor", "--config", str(path)])
    capsys.readouterr()
    assert code == 2


def test_simulate_with_sampling_is_seeded(tmp_path, capsys):
    from channel_forge.circuits import build_ad_circuit, circuit_to_dict

    c = build_ad_circuit(2 * np.arcsin(np.sqrt(0.3)), "measure-feedback")
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circuit_to_dict(c)))
    outs = []
    for _ in range(2):
        code = run_cli(["--seed", "7", "simulate", str(path),
                        "--state", "1", "--samples", "200"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]  # seeded sampling is reproducible
    data = json.loads(outs[0])
    assert sum(data["sampled_counts"].values()) == 200
    probs = {json.dumps(b["records"], sort_keys=True): b["prob"] for b in data["branches"]}
    assert abs(sum(probs.values()) - 1) < 1e-10


# -- the JSON writer ----------------------------------------------------------------

FLOAT = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), FLOAT, st.text(),
                   st.characters(max_codepoint=0x1F), FLOAT.map(np.float64),
                   st.integers(-2**63, 2**63 - 1).map(np.int64))
ROW = st.lists(FLOAT, max_size=5) | st.lists(FLOAT | st.booleans() | st.integers(), max_size=4)
# quiet NaNs of both signs with other payloads, and a signalling one
NANS = np.array([0x7FF8000000000001, 0xFFF8000000000ABC, 0x7FF0000000000001],
                dtype=np.uint64).view(np.float64).tolist()
# float64 arrays of 0 to 3 axes, empty ones included, each entry drawn from a
# pool of at most four values, so that values repeat
SHAPE = (array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)
         | array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=2))
ARRAY = st.tuples(st.lists(FLOAT | st.sampled_from(NANS), min_size=1, max_size=4),
                  SHAPE).flatmap(
    lambda pool_shape: arrays(np.intp, pool_shape[1],
                              elements=st.integers(0, len(pool_shape[0]) - 1)).map(
        lambda picks: np.array(pool_shape[0], dtype=np.float64)[picks]))
KEY = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
TREE = st.recursive(
    SCALAR | ROW | ROW.map(tuple) | ARRAY,
    lambda kids: (st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(KEY, kids, max_size=3)),
    max_leaves=12,
)


def listed(value):
    """``value`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [listed(item) for item in value]
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    return value


@settings(max_examples=300, deadline=None)
@given(payload=TREE)
@example(payload={"re": np.array([[0.0, -0.0, 5e-324], [NANS[0], NANS[1], -math.inf]])})
def test_emit_json_writes_exactly_what_json_dumps_writes(payload):
    for indent in (None, 2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _emit_json(payload, None, indent)
        assert buf.getvalue() == json.dumps(listed(payload), indent=indent, default=float) + "\n"


def _assert_dumps_text(out: str) -> None:
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_tailor_theta_job_output_is_json_dumps_text(tmp_path, capsys):
    """The theta recipe's details["range"] is a tuple, written as a list."""
    job = {"method": "theta", "target": {"name": "amplitude_damping", "gamma": 0.4}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run_cli(["tailor", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert isinstance(json.loads(out)["details"]["range"], list)
    _assert_dumps_text(out)


def test_simulate_with_samples_output_is_json_dumps_text(tmp_path, capsys):
    """The sampled_counts keys are JSON texts, quotes escaped."""
    from channel_forge.circuits import build_ad_circuit, circuit_to_dict

    c = build_ad_circuit(2 * np.arcsin(np.sqrt(0.3)), "measure-feedback")
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circuit_to_dict(c)))
    assert run_cli(["simulate", str(path), "--state", "1", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert '\\"' in out
    _assert_dumps_text(out)


def pinned_circuit(n: int, seed: int, feedback: bool) -> dict:
    """A seeded ``n``-qubit noisy circuit: two layers of single-qubit gates, a
    cnot on each of a random pairing of the wires and a depolarizing or
    damping channel on every wire, then a reset. With ``feedback``, two
    measurements follow, and their outcomes condition an x gate and a channel."""
    rng = np.random.default_rng(seed)
    elements = []
    for _ in range(2):
        for w in rng.permutation(n).tolist():
            elements.append({"type": "gate", "name": "rx", "wires": [w],
                             "theta": float(rng.uniform(0.2, 3.0))} if rng.random() < 0.6
                            else {"type": "gate", "name": "h", "wires": [w]})
        order = rng.permutation(n).tolist()
        for a, b in zip(order[::2], order[1::2]):
            elements.append({"type": "gate", "name": "cnot", "wires": [a, b]})
        for w in rng.permutation(n).tolist():
            elements.append({"type": "channel", "name": "depolarizing", "wires": [w],
                             "p": float(rng.uniform(0.9, 0.99))} if rng.random() < 0.5
                            else {"type": "channel", "name": "amplitude_damping", "wires": [w],
                                  "gamma": float(rng.uniform(0.01, 0.1))})
    elements.append({"type": "reset", "wire": int(rng.integers(n))})
    if feedback:
        m1, m2, t1, t2 = rng.permutation(n)[:4].tolist()
        elements += [
            {"type": "measure", "wire": m1, "register": "a"},
            {"type": "conditional_gate", "name": "x", "wires": [t1], "register": "a", "value": 1},
            {"type": "measure", "wire": m2, "register": "b"},
            {"type": "channel", "name": "dephasing", "q": 0.7, "wires": [t2],
             "condition": {"register": "b", "value": 0}},
        ]
    return {"wires": [{"label": f"q{w}", "dim": 2} for w in range(n)], "elements": elements}


# (qubits, seed, feedback) -> sha256 of ``simulate`` stdout: the engine and the writer
# may change how they work, never a byte of what they print
PINNED_SIMULATE = {
    (6, 1, False):
        "48f4bbb38d79d5719858ab0a8370415034323d2873500e7f5a5e7e87f84aaef5",
    (7, 2, False):
        "749fc7d65bc5feb273d30a79e576e9c3d3db5fce74dbaafa749f97751d383d6d",
    (8, 3, False):
        "a3761916151928ab2f0e005bb2c38fe71caa3f0d3bd0003f5842ca2daac95862",
    (7, 4, True):
        "8e7068c11602ca46e627e1ae1cb6cbd9ea6485787fed5caa5efdd0bcfb45b4d8",
}


@pytest.mark.parametrize("n, seed, feedback", sorted(PINNED_SIMULATE))
def test_simulate_stdout_is_pinned(tmp_path, capsys, n, seed, feedback):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(pinned_circuit(n, seed, feedback)))
    assert run_cli(["simulate", str(path)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_SIMULATE[n, seed, feedback]


@pytest.mark.parametrize("n, seed, feedback", sorted(PINNED_SIMULATE))
def test_simulate_stdout_in_panels_is_pinned(tmp_path, capsys, monkeypatch, n, seed, feedback):
    """With 1 KiB panels every state of 6 to 8 qubits is contracted in
    panels, measurement projectors, conditional operations and the reset
    included: not one printed byte moves."""
    monkeypatch.setattr(engine_module, "PANEL_BYTES", 1024)
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(pinned_circuit(n, seed, feedback)))
    assert run_cli(["simulate", str(path)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_SIMULATE[n, seed, feedback]


def test_netsim_state_report_output_is_json_dumps_text(tmp_path, capsys):
    scenario = {
        "registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}],
        "events": [
            {"type": "apply_gate", "name": "h", "registers": ["a"]},
            {"type": "apply_gate", "name": "cnot", "registers": ["a", "b"]},
            {"type": "apply_channel", "name": "dephasing", "q": 0.8, "registers": ["b"]},
            {"type": "measure", "register": "a", "message": "m"},
        ],
        "reports": [{"type": "state", "name": "b", "registers": ["b"]}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli(["netsim", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["states"]["b"]["re"]
    _assert_dumps_text(out)


@pytest.mark.parametrize("value", ["basic_format", "bogus"])
def test_log_level_that_is_no_level_name_is_one_error_line_and_exit_2(monkeypatch, capsys,
                                                                      value):
    """``basic_format`` is a logging attribute but no level; ``bogus`` is neither."""
    monkeypatch.setenv("CHANNEL_FORGE_LOG", value)
    assert run_cli(["channel", "build", "--name", "bit_flip", "--p", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: CHANNEL_FORGE_LOG={value!r} is not a logging level name "
                            "(DEBUG, INFO, WARNING, ERROR or CRITICAL)\n")
