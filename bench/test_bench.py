"""Tests of the benchmark harness itself: tracing, checks, inputs, contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import checks, inputs, run, spans
from channel_forge import channels, linalg, tailor
from channel_forge.channels import Channel
from channel_forge.circuits import build_ad_circuit
from channel_forge.figures import fig6a_noise_model
from channel_forge.noise import amplitude_damping, depolarizing

ROOT = Path(__file__).resolve().parents[1]


def _snapshot():
    return [(owner, attr, raw) for _, module, path in spans.TARGETS
            for owner, attr, raw in spans.lookup_sites(module, path)]


def test_tracer_wraps_every_lookup_site_and_restores_it():
    before = _snapshot()
    sites = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in before}
    for module in ("channel_forge.tailor", "channel_forge.channels", "channel_forge.linalg"):
        assert (module, "uhlmann_fidelity") in sites
    for module in ("channel_forge.tailor", "channel_forge.figures", "channel_forge.channels"):
        assert (module, "compose") in sites
        assert (module, "choi_fidelity") in sites

    original = linalg.uhlmann_fidelity
    with spans.Tracer():
        assert tailor.uhlmann_fidelity.__wrapped__ is original
        assert channels.uhlmann_fidelity is tailor.uhlmann_fidelity is linalg.uhlmann_fidelity
        assert hasattr(tailor.compose, "__wrapped__")
        assert isinstance(Channel.__dict__["from_kraus"], classmethod)
        assert hasattr(Channel.__dict__["from_kraus"].__func__, "__wrapped__")
    for owner, attr, raw in before:
        assert vars(owner)[attr] is raw, f"{owner}.{attr} not restored"


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(channels.ChannelError):
        with spans.Tracer():
            channels.compose(Channel.identity(2), Channel.identity(3))
    for owner, attr, raw in before:
        assert vars(owner)[attr] is raw


def test_self_time_and_nested_counts_are_exact():
    a, b = depolarizing(0.9), amplitude_damping(0.2)
    tracer = spans.Tracer()
    with tracer:
        channels.choi_fidelity(a, b)
        rec = tailor.theta_tailor(amplitude_damping(0.5), lambda th: build_ad_circuit(th),
                                  fig6a_noise_model(), grid=5)
    metrics = tracer.metrics()
    choi_calls = metrics["channels.choi_fidelity.calls"][0]
    assert choi_calls >= 1
    incl = metrics["channels.choi_fidelity.s"][0]
    self_s = metrics["channels.choi_fidelity.self_s"][0]
    assert incl - self_s == pytest.approx(metrics["linalg.uhlmann_fidelity.s"][0], abs=1e-9)
    assert metrics["linalg.uhlmann_fidelity.calls"][0] == choi_calls
    extracts = metrics["circuits.extract_channel.calls"][0]
    assert extracts > 5
    assert metrics["tailor.theta_tailor.evals_counted"][0] == extracts
    assert metrics["tailor.theta_tailor.evals_reported"][0] == rec.evaluations


def test_perturbed_dense_state_fails():
    circuit = inputs.dense_circuit(3, 0)
    state = checks.dense_reference(circuit)
    payload = {"state": {"re": state.real, "im": state.imag},
               "branches": [{"records": {}, "prob": 1.0}]}
    assert 0 < checks.check_simulate(circuit, payload) < 1
    state = state.copy()
    state[5, 7] += 1e-6
    payload["state"] = {"re": state.real, "im": state.imag}
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate(circuit, payload)


def test_repeater_closed_form_and_perturbed_fidelity_fails():
    uniform = {"events": [{"type": "apply_channel", "name": "depolarizing", "p": 0.98}] * 10}
    assert checks.repeater_fidelity(uniform) == pytest.approx(0.8223704849, abs=1e-10)
    scenario = inputs.repeater_scenario(3, 0)
    fidelity = checks.repeater_fidelity(scenario)
    payload = {"fidelities": {"bell": fidelity}, "final_trace": 1.0,
               "branches": [{"records": {}, "prob": 1 / 256}] * 256}
    assert checks.check_netsim(scenario, payload) == pytest.approx(1 - fidelity)
    payload["fidelities"]["bell"] = fidelity + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_netsim(scenario, payload)


def test_violated_tailoring_inequalities_fail():
    row = {"q": 0.8, "direct_infidelity": 0.07, "interleaved_noisy_infidelity": 0.07,
           "interleaved_noiseless_infidelity": 0.06}
    params = {"q": 0.8, "pinned": False}
    assert checks.check_fig5a(params, [row]) == 0.07
    with pytest.raises(checks.CheckFailed):
        checks.check_fig5a(params, [{**row, "interleaved_noisy_infidelity": 0.0700001}])
    with pytest.raises(checks.CheckFailed):
        checks.check_fig5a(params, [{**row, "interleaved_noiseless_infidelity": 0.0700001}])
    rows6b = [{"gamma": 0.5, "fidelity_theta_only": 0.77, "fidelity_full_circuit": 0.7699}]
    with pytest.raises(checks.CheckFailed):
        checks.check_fig6b({"gamma": 0.5, "pinned": False}, rows6b)
    assert checks.folded_angle_gap(-1.6, 1.6) < 1e-12
    assert checks.folded_angle_gap(1.6 + 4 * np.pi, 1.6) < 1e-12
    assert checks.folded_angle_gap(1.602, 1.6) > 1e-3


def test_raising_item_is_counted_as_failed(tmp_path):
    tally = run.Tally()
    bad = inputs.Item("fig5a", {"q": 2.0, "seed": 0, "pinned": False})
    run.measure([bad], tmp_path, tally)
    assert tally.attempted == 1 and tally.failed == 1 and not tally.infidelities


def test_item_latency_is_the_per_kind_median():
    tally = run.Tally(kinds=["a", "a", "a", "b"], latencies=[1.0, 3.0, 9.0, 12.0])
    assert run.item_s_p50(tally) == pytest.approx(6.0)
    assert run.item_s_p50(run.Tally(kinds=["a"] * 3, latencies=[1.0, 2.0, 5.0])) == 2.0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic(workload):
    first = inputs.round_bytes(workload, 5, 1)
    assert first == inputs.round_bytes(workload, 5, 1)
    assert first != inputs.round_bytes(workload, 6, 1)
    assert first != inputs.round_bytes(workload, 5, 2)


def test_inputs_are_the_same_in_a_fresh_process():
    code = ("import sys; from bench import inputs; sys.stdout.buffer.write(b''.join("
            "inputs.round_bytes(w, 5, 1) for w in inputs.WORKLOADS))")
    fresh = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           check=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": "123"})
    assert fresh.stdout == b"".join(inputs.round_bytes(w, 5, 1) for w in inputs.WORKLOADS)


def test_seed_zero_reproduces_the_regression_inputs():
    fig5a, fig5b, _ = inputs.tailor_sweep_round(0, 0)
    assert fig5a.params == {"q": 0.8, "seed": 0, "pinned": True}
    assert fig5b.params == {"s": 0.5, "seed": 0, "pinned": True}
    assert not inputs.tailor_sweep_round(1, 0)[0].params["pinned"]


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    per_layer = set(spans.Tracer().metrics())
    per_layer |= {f"engine.element_ms.q{q}" for q in run.ELEMENT_REPEATS}
    per_layer |= {"cli.output_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


def test_end_to_end_run_prints_the_contract_result():
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "netsim-repeater", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "netsim-repeater", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
