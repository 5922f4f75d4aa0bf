"""The JSON boundary: one complex-matrix codec and one error path.

Every malformed circuit, scenario, tailoring job or channel file raises
ChannelError from the library and exits 2 from the CLI, never a traceback.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_forge.channels import (
    Channel,
    ChannelError,
    channel_from_dict,
    channel_to_dict,
    mix,
    random_channel,
    random_density_matrix,
    validate_cptp,
)
from channel_forge.circuits import (
    Circuit,
    build_ad_circuit,
    circuit_from_dict,
    circuit_to_dict,
    cnot,
    extract_channel,
    simulate_detailed,
)
from channel_forge.cli import main
from channel_forge.linalg import decode_complex, encode_complex, max_entangled_ket
from channel_forge.netsim import run_scenario, scenario_from_dict
from channel_forge.noise import GateModel, amplitude_damping, apply_noise_model, depolarizing_white
from bench.inputs import make_round
from channel_forge import tailor
from channel_forge.tailor import run_tailoring_job

SETTINGS = settings(max_examples=60, deadline=None)

ZEROS4 = np.zeros((4, 4)).tolist()
BELL = [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]

# Every key of these documents is strictly typed, and all but the OPTIONAL
# ones below are required: putting a value of another type anywhere, or
# dropping a required key, makes the file malformed.
CIRCUIT = {
    "wires": [{"label": "q0", "dim": 2}, {"label": "q1", "dim": 2}],
    "elements": [
        {"type": "gate", "name": "ry", "theta": 0.4, "wires": [1]},
        {"type": "gate", "wires": [0, 1], "matrix_re": cnot().real.tolist(), "matrix_im": ZEROS4},
        {"type": "channel", "name": "depolarizing", "p": 0.9, "wires": [0]},
        {"type": "channel", "wires": [1], "channel": {
            k: v for k, v in channel_to_dict(amplitude_damping(0.2)).items()
            if k != "normalization"}},
        {"type": "measure", "wire": 1, "register": "m"},
        {"type": "conditional_gate", "name": "x", "wires": [0], "register": "m", "value": 1},
        {"type": "channel", "name": "dephasing", "q": 0.9, "wires": [0],
         "condition": {"register": "m", "value": 0}},
        {"type": "reset", "wire": 1},
    ],
}

SCENARIO = {
    "registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}],
    "events": [
        {"type": "apply_gate", "name": "h", "registers": ["a"]},
        {"type": "apply_gate", "registers": ["a", "b"], "matrix_re": cnot().real.tolist()},
        {"type": "apply_channel", "name": "dephasing", "q": 0.8, "registers": ["b"]},
        {"type": "add_registers", "registers": [{"name": "c", "dim": 2}],
         "state_re": [[1, 0], [0, 0]], "state_im": [[0, 0], [0, 0]]},
        {"type": "measure", "register": "c", "message": "mc"},
        {"type": "conditional_gate", "name": "x", "registers": ["b"], "message": "mc", "value": 1},
        {"type": "remove_registers", "names": ["c"]},
    ],
    "reports": [{"type": "fidelity", "name": "bell", "registers": ["a", "b"], "target_re": BELL},
                {"type": "state", "name": "s", "registers": ["b"]}],
}

JOBS = [
    {"method": "ad-repeat", "hw_p": 0.25, "target_p": 0.5, "n_max": 4, "n_min": 1},
    {"method": "pauli", "hw": [0.925, 0.025, 0.025, 0.025],
     "base": [0.925, 0.025, 0.025, 0.025], "target": [0.9, 0.05, 0.025, 0.025]},
    {"method": "building-block", "target": {"name": "dephasing", "q": 0.9},
     "input": {"channel": channel_to_dict(amplitude_damping(0.1))},
     "hardware": {"kind": "block", "channels": [{"name": "rotation_noise_b", "q": 0.9}]},
     "budgets": {"restarts": 1, "max_evals": 5}, "placement": "post", "mixture_size": 1},
]

CHANNEL = {k: v for k, v in channel_to_dict(amplitude_damping(0.3)).items()
           if k != "normalization"}

# Keys whose loss leaves a valid file: top-level lists default to empty, an
# imaginary part to zero, a register state to |0...0>, and settings have
# defaults. (Matching by name also spares add_registers' required "registers".)
OPTIONAL = {"elements", "events", "reports", "registers", "matrix_im", "state_re", "state_im",
            "choi_im", "normalization", "n_min", "n_max", "budgets", "placement",
            "mixture_size", "input", "restarts", "max_evals", "condition", "hardware"}


def _paths(doc, prefix=()):
    """Every (path, is_dict_key) position in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,), isinstance(doc, dict)
        yield from _paths(v, prefix + (k,))


def _objects(doc, prefix=()):
    """The path of every JSON object in ``doc``, ``doc`` itself included."""
    if isinstance(doc, dict):
        yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _objects(v, prefix + (k,))


def _mutate(doc, path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# Values that are wrong for every position of the documents above.
WRONG = st.one_of(
    st.none(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.just([[1.0, 2.0], [3.0]]),  # ragged
    st.just({"?": None}),
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def malformed(draw, base):
    """``base`` with one required key dropped, or any position set to a wrong value."""
    paths = list(_paths(base))
    if draw(st.booleans()):
        droppable = [p for p, is_key in paths if is_key and p[-1] not in OPTIONAL]
        return _mutate(base, draw(st.sampled_from(droppable)), drop=True)
    path, _ = draw(st.sampled_from(paths))
    return _mutate(base, path, draw(WRONG))


def run_circuit(doc):
    c = circuit_from_dict(doc)
    d = int(np.prod([c.wires[w][1] for w in c.data()]))
    return simulate_detailed(c, np.eye(d) / d)


def run_doc(doc):
    return run_scenario(scenario_from_dict(doc))


def cli_exit(tmp_path, argv_of, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return main(argv_of(str(path)))


KINDS = {
    "circuit": (CIRCUIT, run_circuit, lambda p: ["simulate", p]),
    "scenario": (SCENARIO, run_doc, lambda p: ["netsim", p]),
    "channel": (CHANNEL, channel_from_dict, lambda p: ["channel", "fidelity", p, p]),
}


def test_base_documents_are_valid(tmp_path, capsys):
    for base, run, argv_of in KINDS.values():
        run(base)
        assert cli_exit(tmp_path, argv_of, base) == 0
    for job in JOBS:
        run_tailoring_job(job)
    capsys.readouterr()


@pytest.mark.parametrize("kind", sorted(KINDS))
@SETTINGS
@given(data=st.data())
def test_malformed_document_raises_channel_error(kind, data, tmp_path_factory):
    base, run, argv_of = KINDS[kind]
    doc = data.draw(malformed(base))
    with pytest.raises(ChannelError):
        run(doc)
    assert cli_exit(tmp_path_factory.mktemp("doc"), argv_of, doc) == 2


@SETTINGS
@given(data=st.data())
def test_malformed_tailoring_job_raises_channel_error(data, tmp_path_factory):
    doc = data.draw(malformed(data.draw(st.sampled_from(JOBS))))
    with pytest.raises(ChannelError):
        run_tailoring_job(doc)
    argv_of = lambda p: ["tailor", "--config", p]  # noqa: E731
    assert cli_exit(tmp_path_factory.mktemp("job"), argv_of, doc) == 2


@pytest.mark.parametrize("kind", sorted(KINDS) + ["tailor"])
@SETTINGS
@given(doc=JSON)
def test_any_json_value_is_refused_or_run(kind, doc, tmp_path_factory):
    """Arbitrary JSON raises nothing but ChannelError, and exits 0 or 2."""
    run, argv_of = ((run_tailoring_job, lambda p: ["tailor", "--config", p]) if kind == "tailor"
                    else KINDS[kind][1:])
    try:
        run(doc)
    except ChannelError:
        pass
    assert cli_exit(tmp_path_factory.mktemp("any"), argv_of, doc) in (0, 2)


# Every key name that some reader accepts somewhere; any other key is unknown everywhere.
KNOWN_KEYS = {p[-1] for doc in [CIRCUIT, SCENARIO, CHANNEL, *JOBS] for p, is_key in _paths(doc)
              if is_key} | OPTIONAL | {
    "data_wires", "is_noise", "nodes", "target_im", "channel", "choi_re", "dim_in", "dim_out",
    "matrix_re", "q", "p", "gamma", "p_prime", "theta", "dim", "seed", "theta0", "ancilla_dim",
    "noisy_blocks", "kind", "channels", "hw", "base", "target", "hw_p", "target_p"}


@pytest.mark.parametrize("kind", sorted(KINDS) + ["tailor"])
@SETTINGS
@given(data=st.data())
def test_unknown_key_on_any_entry_exits_2(kind, data, tmp_path_factory):
    """One extra key on any object of a valid document is refused: the top level, a
    wire, register, element, condition, event, report, serialized or named channel,
    tailoring job, its budgets, noise model or noise channel."""
    if kind == "tailor":
        base = data.draw(st.sampled_from(JOBS))
        run, argv_of = run_tailoring_job, lambda p: ["tailor", "--config", p]
    else:
        base, run, argv_of = KINDS[kind]
    path = data.draw(st.sampled_from(list(_objects(base))))
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in KNOWN_KEYS))
    doc = _mutate(base, path + (key,), data.draw(JSON))
    with pytest.raises(ChannelError, match="unknown key"):
        run(doc)
    assert cli_exit(tmp_path_factory.mktemp("key"), argv_of, doc) == 2


@pytest.mark.parametrize("spec", ["dephasing:q=x", "dephasing:", "dephasing:q=nan",
                                  "dephasing:q=0.5,p=0.5", "warp:p=0.5", "dephasing:q=inf"])
def test_bad_inline_channel_spec_exits_2(spec, capsys):
    assert main(["channel", "fidelity", spec, spec]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--seed", "-1", "dilate", "--random-rank", "2"],
                                  ["figures", "fig7c", "--grid", "0"],
                                  ["dilate", "--random-rank", "2", "--random-dim", "0"],
                                  ["simulate", "c.json", "--samples", "-3"]])
def test_bad_integer_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@SETTINGS
@given(spec=st.text(max_size=12).filter(lambda s: not s.startswith("-")))
def test_any_inline_channel_spec_is_refused_or_run(spec):
    assert main(["channel", "validate", spec]) in (0, 2)


# -- codec round trips ----------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(shape=st.lists(st.integers(1, 3), max_size=3), data=st.data())
def test_complex_codec_round_trip_is_bit_exact(shape, data):
    """Signed zeros included; nested lists cannot tell (0, 0) from (0,), so no empty axes."""
    n = int(np.prod(shape))
    re = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n))).reshape(shape)
    im = np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n))).reshape(shape)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = re, im
    text = json.dumps(encode_complex(m, "m"))
    back = decode_complex(json.loads(text), "m", tuple(shape))
    assert back.dtype == np.complex128 and back.tobytes() == m.tobytes()


def test_codec_missing_imaginary_part_is_zero_and_keys():
    assert set(encode_complex(np.eye(2), "")) == {"re", "im"}
    out = decode_complex({"x_re": [[1, 2], [3, 4]]}, "x", (2, 2))
    assert np.array_equal(out, [[1, 2], [3, 4]]) and not np.any(out.imag)


@pytest.mark.parametrize("data", [
    {}, {"x_im": [1.0]}, {"x_re": [[1.0, 2.0], [3.0]]}, {"x_re": "ab"}, {"x_re": [1.0, "2"]},
    {"x_re": [1.0, True]}, {"x_re": [math.nan]}, {"x_re": [1.0], "x_im": [1.0, 2.0]},
    {"x_re": [10**400]}, [1.0],
])
def test_codec_rejects(data):
    with pytest.raises(ChannelError):
        decode_complex(data, "x")
    with pytest.raises(ChannelError):
        decode_complex({"x_re": [1.0, 2.0]}, "x", (2, 2))


@SETTINGS
@given(dim=st.integers(1, 4), rank=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_channel_json_round_trip_and_cptp(dim, rank, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(dim, min(rank, dim * dim), rng)
    assert validate_cptp(ch).passed
    rho = random_density_matrix(dim, rng)
    assert abs(np.trace(ch.apply(rho)) - 1) < 1e-10
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(ch))))
    assert back.choi.tobytes() == ch.choi.tobytes()


@SETTINGS
@given(theta=st.floats(0, 2 * np.pi), variant=st.sampled_from(["unitary-cnot", "measure-feedback"]),
       q=st.floats(0.5, 1.0), index=st.integers(0, 1))
def test_circuit_json_round_trip_simulates_identically(theta, variant, q, index):
    c = apply_noise_model(build_ad_circuit(theta, variant), GateModel(depolarizing_white(q)))
    c2 = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(c))))
    rho = np.zeros((2, 2), dtype=complex)
    rho[index, index] = 1
    out1, log1 = simulate_detailed(c, rho)
    out2, log2 = simulate_detailed(c2, rho)
    assert out1.tobytes() == out2.tobytes() and log1 == log2


# -- defects, one by one ------------------------------------------------------------


def test_mix_rejects_non_finite_weights():
    for bad in ([math.nan, 1.0], [math.inf, -math.inf], [0.5, math.nan]):
        with pytest.raises(ChannelError):
            mix([Channel.identity(2), amplitude_damping(0.1)], bad)


def test_from_choi_rejects_non_finite():
    choi = np.full((4, 4), np.nan)
    for validate in (True, False):
        with pytest.raises(ChannelError):
            Channel.from_choi(choi, 2, 2, validate=validate)


def _circuit_with(*elements, wires=2):
    return {"wires": [{"label": f"q{i}", "dim": 2} for i in range(wires)],
            "elements": list(elements)}


NON_UNITARY = {"matrix_re": [[1.0, 1.0], [0.0, 1.0]]}
NAN_MATRIX = {"matrix_re": [[1.0, 0.0], [0.0, math.nan]]}
# a well-formed element on a wire an earlier trace-out removed: refused when run
DEAD_WIRE = [_circuit_with({"type": "trace_out", "wire": 1}, element) for element in (
    {"type": "gate", "name": "x", "wires": [1]},
    {"type": "reset", "wire": 1},
    {"type": "trace_out", "wire": 1},
)]
# a condition value that no outcome of the measured qubit takes: refused when run
IMPOSSIBLE_CONDITION = [_circuit_with({"type": "measure", "wire": 1, "register": "m"}, element)
                        for value in (7, -1) for element in (
    {"type": "conditional_gate", "name": "x", "wires": [0], "register": "m", "value": value},
    {"type": "channel", "name": "dephasing", "q": 0.5, "wires": [0],
     "condition": {"register": "m", "value": value}},
)]


@pytest.mark.parametrize("doc", [
    _circuit_with({"type": "channel", "name": "dephasing", "q": 0.5, "wires": [0, 0]}),
    _circuit_with({"type": "channel", "name": "dephasing", "q": 0.5, "wires": [5]}),
    _circuit_with({"type": "gate", "name": "x", "wires": ["a"]}),
    _circuit_with({"type": "gate", "name": "x", "wires": [True]}),
    _circuit_with({"type": "gate", "name": "x", "wires": [0.0]}),
    _circuit_with({"name": "x", "wires": [0]}),
    _circuit_with({"type": "gate", "wires": [0], **NON_UNITARY}),
    _circuit_with({"type": "gate", "wires": [0], **NAN_MATRIX}),
    _circuit_with({"type": "gate", "name": "rx", "theta": math.nan, "wires": [0]}),
    _circuit_with({"type": "channel", "wires": [0], "channel": {
        "dim_in": 2, "dim_out": 2, "choi_re": [[1.0, 0.0], [0.0]]}}),
    _circuit_with({"type": "channel", "wires": [0], "channel": {
        "dim_in": 2, "dim_out": 2, "choi_re": "identity"}}),
    {"wires": [{"label": "q", "dim": 0}]},
    {"wires": [{"label": f"q{i}", "dim": 2} for i in range(13)]},
] + DEAD_WIRE + IMPOSSIBLE_CONDITION)
def test_malformed_circuit_defects(doc, tmp_path, capsys):
    match = ("not live" if doc in DEAD_WIRE else "not an outcome" if doc in IMPOSSIBLE_CONDITION
             else r"elements\[0\]" if doc.get("elements") else None)
    with pytest.raises(ChannelError, match=match):
        run_circuit(doc)
    assert cli_exit(tmp_path, lambda p: ["simulate", p], doc) == 2
    assert "Traceback" not in capsys.readouterr().err


def _scenario_with(event=None, report=None):
    doc = {"registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}], "events": [],
           "reports": []}
    if event:
        doc["events"].append({"registers": ["a"], **event})
    if report:
        doc["reports"].append({"name": "r", "registers": ["a", "b"], **report})
    return doc


@pytest.mark.parametrize("doc", [
    _scenario_with({"type": "apply_gate", **NON_UNITARY}),
    _scenario_with({"type": "apply_gate", **NAN_MATRIX}),
    _scenario_with({"type": "conditional_gate", "message": "m", "value": 1, **NON_UNITARY}),
    _scenario_with(report={"type": "fidelity", "target_re": [[1.0, 0.0], [0.0, 0.0]]}),
    _scenario_with(report={"type": "fidelity", "target_re": [[0.5, 0.5], [0.5, 0.5]] * 2}),
    _scenario_with(report={"type": "fidelity", "target_re": np.eye(4).tolist()}),
    _scenario_with({"type": "apply_channel", "channel": {
        "dim_in": 2, "dim_out": 2, "choi_re": [[0.5] * 4] * 3 + [[0.5] * 3]}}),
    _scenario_with({"type": "add_registers", "registers": [{"name": "c", "dim": 2}],
                    "state_re": [[2.0, 0.0], [0.0, 0.0]]}),
    _scenario_with(report={"type": "state", "registers": ["a", "a"]}),
    {"registers": [{"name": "a", "dim": 2}],
     "reports": [{"type": "state", "name": "r", "registers": ["a"]}] * 2},
] + [{"registers": [{"name": "a", "dim": 2}, {"name": "b", "dim": 2}], "events": [
    {"type": "measure", "register": "a", "message": "m"},
    {"type": "conditional_gate", "name": "x", "registers": ["b"], "message": "m", "value": value},
]} for value in (7, -1)])
def test_malformed_scenario_defects(doc, tmp_path, capsys):
    with pytest.raises(ChannelError):
        run_scenario(scenario_from_dict(doc))
    assert cli_exit(tmp_path, lambda p: ["netsim", p], doc) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_circuit_run_time_error_names_its_element(tmp_path, capsys):
    doc = {**_circuit_with({"type": "trace_out", "wire": 1}, {"type": "reset", "wire": 1}),
           "data_wires": [0]}
    for run in (run_circuit, lambda d: extract_channel(circuit_from_dict(d))):
        with pytest.raises(ChannelError, match=r"^elements\[1\]: wire 1 is not live$"):
            run(doc)
    assert cli_exit(tmp_path, lambda p: ["simulate", p], doc) == 2
    assert "error: elements[1]: wire 1 is not live" in capsys.readouterr().err


def test_scenario_run_time_error_names_its_json_event(tmp_path, capsys):
    # events[i] counts JSON entries: the two-name removal is one event
    doc = {"registers": [{"name": "a", "dim": 2}], "events": [
        {"type": "add_registers", "registers": [{"name": "b", "dim": 2}, {"name": "c", "dim": 2}]},
        {"type": "remove_registers", "names": ["b", "c"]},
        {"type": "apply_gate", "name": "x", "registers": ["c"]},
    ]}
    with pytest.raises(ChannelError, match=r"^events\[2\]: wire 'c' is not live$"):
        run_doc(doc)
    assert cli_exit(tmp_path, lambda p: ["netsim", p], doc) == 2
    assert "error: events[2]: wire 'c' is not live" in capsys.readouterr().err


def test_tailoring_job_without_target(tmp_path, capsys):
    job = {"method": "theta"}
    with pytest.raises(ChannelError, match="target"):
        run_tailoring_job(job)
    assert cli_exit(tmp_path, lambda p: ["tailor", "--config", p], job) == 2
    capsys.readouterr()


BIT_FLIP = {"name": "bit_flip", "p": 0.95}
DAMPING = {"name": "amplitude_damping", "gamma": 0.5}
GATE_NOISE = {"kind": "gate", "channels": [{"name": "depolarizing", "p": 0.9}]}


@pytest.mark.parametrize("job", [
    {"method": "building-block", "target": BIT_FLIP, "budgets": {"restart": 5}},
    {"method": "building-block", "target": BIT_FLIP, "mixture": 2},
    {"method": "black-box-theta", "target": DAMPING, "optimizer": "nelder-mead"},
    {"method": "black-box-theta", "target": DAMPING, "budgets": {"restarts": 2}},
    {"method": "theta", "target": DAMPING, "budgets": {"max_evals": 5}},
    {"method": "ad-repeat", "hw_p": 0.25, "target_p": 0.5, "hardware": GATE_NOISE},
])
def test_tailoring_job_unknown_keys_exit_2(job, tmp_path, capsys):
    with pytest.raises(ChannelError, match="unknown key"):
        run_tailoring_job(job)
    assert cli_exit(tmp_path, lambda p: ["tailor", "--config", p], job) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["tailor-sweep", "circuit-tailor", "dense-sim",
                                      "netsim-repeater"])
def test_benchmark_inputs_read_only_known_keys(workload, monkeypatch):
    """Every benchmark input file parses (tailoring searches stubbed) under the key checks."""
    def stub(*args, **kwargs):
        return tailor.TailoringRecipe(method="stub", achieved_fidelity=1.0)

    monkeypatch.setattr(tailor, "building_block_optimize", stub)
    monkeypatch.setattr(tailor, "blackbox_optimize", stub)
    files = [(name, json.loads(data)) for seed in (0, 1, 2) for index in (0, 1)
             for item in make_round(workload, seed, index) for name, data in item.files.items()]
    assert files
    for name, doc in files:
        if name == "job.json":
            assert run_tailoring_job(doc)["method"] == "stub"
        else:
            {"circuit.json": circuit_from_dict, "scenario.json": scenario_from_dict}[name](doc)


def test_channel_files_load_validated_except_for_validate(tmp_path, capsys):
    phi = max_entangled_ket(2)
    bad = Channel(dim_in=2, dim_out=2, choi=np.outer(phi, phi.conj()) * 1.5)  # trace 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(channel_to_dict(bad)))
    assert main(["channel", "fidelity", str(path), str(path)]) == 2
    assert main(["channel", "convert", "--in", str(path), "--to", "kraus"]) == 2
    assert main(["dilate", "--in", str(path)]) == 2
    capsys.readouterr()
    assert main(["channel", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("text", ["{", "[1, 2]", "\xff", "3"])
def test_unreadable_files_exit_2(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("latin-1"))
    for argv in (["simulate", str(path)], ["netsim", str(path)], ["tailor", "--config", str(path)],
                 ["channel", "validate", str(path)]):
        assert main(argv) == 2
    capsys.readouterr()


def test_simulate_state_file_and_index_are_checked(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit_to_dict(Circuit(wires=[("q", 2)]))))
    state = tmp_path / "s.json"
    for bad in ({"re": [[1.0]]}, {"re": [[0.5, 0.5], [0.5, 0.4]]}, {"im": [[0, 0], [0, 0]]}):
        state.write_text(json.dumps(bad))
        assert main(["simulate", str(path), "--state", str(state)]) == 2
    assert main(["simulate", str(path), "--state", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["\u00b2", "\u0661", "1\u00b2"])
def test_simulate_state_that_is_no_ascii_index_is_read_as_a_file(tmp_path, capsys, text):
    """``str.isdigit`` accepts a superscript two, which ``int`` refuses, and
    ``int`` reads an Arabic-Indic one: only ASCII digits are a basis index,
    other text names a state file, here a missing one."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit_to_dict(Circuit(wires=[("q", 2)]))))
    assert main(["simulate", str(path), "--state", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file" in err
