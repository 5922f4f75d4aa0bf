"""Correctness checks for every benchmark item.

Each check takes the item and the program's output and either returns the
item's infidelity (1 - achieved fidelity; for the simulation workloads, the
infidelity of the delivered state to the noiseless one) or raises
:class:`CheckFailed`. The references are computed independently of the
timed call: closed forms, small exact simulations through ``Channel.apply``,
or the acceptance inequalities of the tailoring methods.
"""

from __future__ import annotations

import json
import math
from functools import reduce

import numpy as np

from channel_forge.channels import Channel, choi_fidelity, compose
from channel_forge.circuits import build_ad_circuit
from channel_forge.linalg import partial_trace, state_fidelity
from channel_forge.noise import (
    amplitude_damping,
    bit_flip,
    channel_by_name,
    depolarizing_white,
    noise_model_from_config,
)
from channel_forge.tailor import theta_tailor

from .inputs import DENSE_PAIRS, NETSIM_LINKS

STATE_ATOL = 1e-10
INEQUALITY_SLACK = 1e-12
ANGLE_GAP = 1e-3  # acceptance criterion 8

# Pinned values of tests/test_regression.py, checked on round 0 of seed 0.
FIG5A_PIN = {"direct": 0.07139290888048644, "noiseless": 0.07062488343907547}
FIG5B_PIN = {"direct": 0.10360966909825009, "noisy": 1.5694292387902209e-06,
             "noiseless": 1.8683388487428232e-06}
FIG6A_PIN = {"theta_opt": 1.5997313886803373, "fidelity_opt": 0.8032866005173487}
FIG6B_PIN = {"theta_only": 0.7651186870395607}


class CheckFailed(Exception):
    """An output that does not match its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _single_row(rows: list[dict], key: str, value: float) -> dict:
    require(isinstance(rows, list) and len(rows) == 1, f"expected one row, got {rows!r}")
    row = rows[0]
    require(abs(row[key] - value) < 1e-15, f"row {key}={row[key]!r}, asked for {value!r}")
    return row


def _method1_inequalities(row: dict, noiseless_bound: float) -> None:
    """Tailoring never does worse than its own untailored input: noisy <=
    direct, and noiseless <= ``noiseless_bound`` (acceptance criterion 7)."""
    direct = row["direct_infidelity"]
    noisy = row["interleaved_noisy_infidelity"]
    noiseless = row["interleaved_noiseless_infidelity"]
    for name, v in (("direct", direct), ("noisy", noisy), ("noiseless", noiseless)):
        require(math.isfinite(v) and -1e-12 <= v <= 1 + 1e-12, f"{name} infidelity {v!r}")
    require(noisy <= direct + INEQUALITY_SLACK, f"noisy {noisy!r} > direct {direct!r}")
    require(noiseless <= noiseless_bound + INEQUALITY_SLACK,
            f"noiseless {noiseless!r} > {noiseless_bound!r}")


def check_fig5a(params: dict, rows: list[dict]) -> float:
    row = _single_row(rows, "q", params["q"])
    # the noiseless search starts from the same noisy input plus the noisy optimum
    _method1_inequalities(row, row["interleaved_noisy_infidelity"])
    if params["pinned"]:
        require(abs(row["direct_infidelity"] - FIG5A_PIN["direct"]) < 1e-9, "fig5a pinned direct")
        require(row["interleaved_noisy_infidelity"] <= FIG5A_PIN["direct"] + 1e-9,
                "fig5a pinned noisy ratchet")
        require(row["interleaved_noiseless_infidelity"] <= FIG5A_PIN["noiseless"] + 1e-6,
                "fig5a pinned noiseless ratchet")
    return row["interleaved_noisy_infidelity"]


def check_fig5b(params: dict, rows: list[dict]) -> float:
    row = _single_row(rows, "target_strength", params["s"])
    # fig5b's noiseless column tailors the bare damping channel, not the noisy
    # input, so it is bounded by that channel's own direct infidelity
    target = depolarizing_white(row["target_strength"])
    _method1_inequalities(row, 1 - choi_fidelity(amplitude_damping(row["gamma"]), target))
    if params["pinned"]:
        require(abs(row["direct_infidelity"] - FIG5B_PIN["direct"]) < 1e-9, "fig5b pinned direct")
        require(row["interleaved_noisy_infidelity"] <= FIG5B_PIN["noisy"] + 1e-6,
                "fig5b pinned noisy ratchet")
        require(row["interleaved_noiseless_infidelity"] <= FIG5B_PIN["noiseless"] + 1e-6,
                "fig5b pinned noiseless ratchet")
    return row["interleaved_noisy_infidelity"]


def check_tailor_job(params: dict, payload: dict) -> float:
    """The building-block recipe can only improve on the direct channel."""
    config = params["config"]
    target = bit_flip(config["target"]["p"])
    noise = noise_model_from_config(config["hardware"]).trailing
    direct = choi_fidelity(compose(noise, target), target)
    achieved = payload["achieved_fidelity"]
    require(payload["method"] == "building-block", f"method {payload['method']!r}")
    require(math.isfinite(achieved) and achieved <= 1 + 1e-12, f"fidelity {achieved!r}")
    require(achieved >= direct - INEQUALITY_SLACK, f"job fidelity {achieved!r} < direct {direct!r}")
    mixture = np.asarray(payload["mixture"], dtype=float)
    require(mixture.min() >= -1e-12 and abs(mixture.sum() - 1) < 1e-9,
            "mixture is not a distribution")
    return 1 - achieved


def check_fig6a(params: dict, rows: list[dict]) -> float:
    row = _single_row(rows, "gamma", params["gamma"])
    require(row["fidelity_opt"] >= row["fidelity_naive"],
            f"fidelity_opt {row['fidelity_opt']!r} < fidelity_naive {row['fidelity_naive']!r}")
    if params["pinned"]:
        require(abs(row["theta_opt"] - FIG6A_PIN["theta_opt"]) < 1e-4, "fig6a pinned theta_opt")
        require(row["fidelity_opt"] >= FIG6A_PIN["fidelity_opt"] - 1e-6, "fig6a pinned fidelity")
    return 1 - row["fidelity_opt"]


def check_fig6b(params: dict, rows: list[dict]) -> float:
    row = _single_row(rows, "gamma", params["gamma"])
    full, theta_only = row["fidelity_full_circuit"], row["fidelity_theta_only"]
    require(full >= theta_only - INEQUALITY_SLACK, f"full {full!r} < theta-only {theta_only!r}")
    if params["pinned"]:
        require(theta_only >= FIG6B_PIN["theta_only"] - 1e-6, "fig6b pinned theta-only fidelity")
    return 1 - full


def folded_angle_gap(theta: float, reference: float) -> float:
    """Gap between two damping-circuit angles that give the same channel.

    The circuit's channel is invariant under theta -> -theta (the Ry sign
    flip is a Z on the ancilla, which starts in |0> and only controls) and
    has period 4 pi, so an optimizer may return any of those images.
    """
    return abs(abs(math.remainder(theta, 4 * math.pi)) - reference)


def check_blackbox_job(params: dict, payload: dict) -> float:
    """Black box and theta_tailor agree on the angle (acceptance 8)."""
    config = params["config"]
    target = amplitude_damping(config["target"]["gamma"])
    hardware = noise_model_from_config(config["hardware"])
    reference = theta_tailor(target, lambda th: build_ad_circuit(th), hardware)
    theta = payload["circuit_params"]["params"][0]
    gap = folded_angle_gap(theta, reference.circuit_params["theta"])
    require(gap < ANGLE_GAP, f"black-box angle {theta!r} is {gap:.3e} from theta_tailor")
    achieved = payload["achieved_fidelity"]
    require(math.isfinite(achieved) and 0 <= achieved <= 1 + 1e-12, f"fidelity {achieved!r}")
    return 1 - achieved


# -- dense-sim ---------------------------------------------------------------------

_I2 = np.eye(2, dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_CNOT_01 = np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]  # control on the pair's first wire
_CNOT_10 = np.eye(4, dtype=np.complex128)[[0, 3, 2, 1]]  # control on the pair's second wire


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _on_member(op: np.ndarray, member: int) -> np.ndarray:
    return np.kron(op, _I2) if member == 0 else np.kron(_I2, op)


def dense_pairs(circuit: dict) -> list[tuple[int, int]]:
    """The (low, high) wire pairs that the circuit's cnots couple."""
    pairs = sorted({tuple(sorted(el["wires"])) for el in circuit["elements"]
                    if el.get("name") == "cnot"})
    wires = sorted(w for pair in pairs for w in pair)
    require(wires == list(range(2 * DENSE_PAIRS)), f"cnots pair the wires as {pairs}")
    return pairs


def dense_pair_states(circuit: dict, noisy: bool = True) -> list[np.ndarray]:
    """Exact 2-qubit state of every pair of :func:`dense_pairs`, element by
    element through ``Channel.apply``; ``noisy=False`` skips the noise."""
    pairs = dense_pairs(circuit)
    where = {w: (k, member) for k, pair in enumerate(pairs) for member, w in enumerate(pair)}
    zero = np.zeros((4, 4), dtype=np.complex128)
    zero[0, 0] = 1.0
    states = [zero.copy() for _ in pairs]
    for el in circuit["elements"]:
        wire = el["wire"] if el["type"] == "reset" else el["wires"][0]
        k, member = where[wire]
        if el["type"] == "gate" and el["name"] == "cnot":
            require(where[el["wires"][1]][0] == k, f"cnot across pairs: {el}")
            ch = Channel.from_unitary(_CNOT_01 if member == 0 else _CNOT_10)
        elif el["type"] == "gate":
            u = _H if el["name"] == "h" else _rx(el["theta"])
            ch = Channel.from_unitary(_on_member(u, member))
        elif el["type"] == "channel":
            if not noisy:
                continue
            params = {key: v for key, v in el.items() if key not in ("type", "name", "wires")}
            kraus = channel_by_name(el["name"], **params).kraus()
            ch = Channel.from_kraus([_on_member(op, member) for op in kraus])
        elif el["type"] == "reset":
            ch = Channel.from_kraus([_on_member(np.outer(_I2[0], _I2[j]), member)
                                     for j in range(2)])
        else:
            raise CheckFailed(f"unexpected circuit element {el['type']!r}")
        states[k] = ch.apply(states[k])
    return states


def dense_reference(circuit: dict) -> np.ndarray:
    """Full 10-qubit state: the Kronecker product of the pair states,
    reordered from pair order into wire order."""
    factor_wires = [w for pair in dense_pairs(circuit) for w in pair]
    n = len(factor_wires)
    t = reduce(np.kron, dense_pair_states(circuit)).reshape([2] * (2 * n))
    order = [int(i) for i in np.argsort(factor_wires)]
    return t.transpose(order + [n + i for i in order]).reshape(2**n, 2**n)


def check_simulate(circuit: dict, payload: dict) -> float:
    """The 1024-dim output equals the pair-product reference."""
    require(len(payload["branches"]) == 1, f"{len(payload['branches'])} branches, expected 1")
    branch = payload["branches"][0]
    require(branch["records"] == {} and abs(branch["prob"] - 1) < 1e-12, f"branch {branch!r}")
    state = np.asarray(payload["state"]["re"]) + 1j * np.asarray(payload["state"]["im"])
    d = 4**DENSE_PAIRS
    require(state.shape == (d, d), f"state shape {state.shape}")
    err = float(np.max(np.abs(state - dense_reference(circuit))))
    require(err <= STATE_ATOL, f"state differs from the pair-product reference by {err:.3e}")
    ideal = dense_pair_states(circuit, noisy=False)
    dims = [2] * (2 * DENSE_PAIRS)
    infidelities = [1 - state_fidelity(partial_trace(state, dims, pair), ideal[k])
                    for k, pair in enumerate(dense_pairs(circuit))]
    return float(np.mean(infidelities))


# -- netsim-repeater ---------------------------------------------------------------


def repeater_fidelity(scenario: dict) -> float:
    """Closed form F = (1 + 3 prod lambda_i) / 4 of the swapped chain.

    Depolarizing with keep-weight p shrinks the Bell-pair Werner parameter
    by lambda = 1 - 4(1-p)/3, on either half and through ideal swaps, so
    with equal p on all 2L halves this is (1 + 3 lambda^(2L)) / 4.
    """
    ps = [ev["p"] for ev in scenario["events"]
          if ev["type"] == "apply_channel" and ev["name"] == "depolarizing"]
    require(len(ps) == 2 * NETSIM_LINKS, f"{len(ps)} link-noise channels")
    w = math.prod(1 - 4 * (1 - p) / 3 for p in ps)
    return (1 + 3 * w) / 4


def check_netsim(scenario: dict, payload: dict) -> float:
    expected = repeater_fidelity(scenario)
    got = payload["fidelities"]["bell"]
    require(abs(got - expected) <= STATE_ATOL, f"Bell fidelity {got!r}, closed form {expected!r}")
    final_trace = payload["final_trace"]
    require(abs(final_trace - 1) <= STATE_ATOL, f"final trace {final_trace!r}")
    n_branches = 4 ** (NETSIM_LINKS - 1)
    require(len(payload["branches"]) == n_branches,
            f"{len(payload['branches'])} branches, expected {n_branches}")
    total = sum(b["prob"] for b in payload["branches"])
    require(abs(total - 1) <= STATE_ATOL, f"branch probabilities sum to {total!r}")
    return 1 - got


# -- dispatch ----------------------------------------------------------------------


def _cli_payload(output) -> dict:
    code, text = output
    require(code == 0, f"exit code {code}")
    return json.loads(text)


def check(item, output) -> float:
    """Check one item's output; returns its infidelity or raises CheckFailed."""
    kind = item.kind
    if kind == "fig5a":
        return check_fig5a(item.params, output)
    if kind == "fig5b":
        return check_fig5b(item.params, output)
    if kind == "fig6a":
        return check_fig6a(item.params, output)
    if kind == "fig6b":
        return check_fig6b(item.params, output)
    payload = _cli_payload(output)
    if kind == "tailor-job":
        return check_tailor_job(item.params, payload)
    if kind == "blackbox-job":
        return check_blackbox_job(item.params, payload)
    if kind == "simulate":
        return check_simulate(json.loads(item.files["circuit.json"]), payload)
    if kind == "netsim":
        return check_netsim(json.loads(item.files["scenario.json"]), payload)
    raise CheckFailed(f"no check for item kind {kind!r}")
