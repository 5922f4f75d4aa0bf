"""Seeded input generators for the benchmark workloads.

Every input is a pure function of (workload, seed, round index): the same
triple yields byte-identical JSON files and parameters in any process. The
generators never import channel_forge, so nothing here can depend on the
code being measured; the program receives only the generated files and
arguments.

A round is the unit a run repeats: one item of each kind the workload mixes,
so every run executes the same composition of work whatever its length.
Each seed gives different inputs, while the per-item cost and the physics
stay comparable from seed to seed: tailoring points and link noise are
jittered narrowly around fixed centres, the repeaters swap in a seeded
order, and the dense circuit runs a fixed pool of pair programs under a
seeded wire layout and element order. Round 0 of seed 0 reproduces the
pinned inputs of ``tests/test_regression.py`` exactly, so their values can
be checked there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("tailor-sweep", "circuit-tailor", "dense-sim", "netsim-repeater")

DENSE_PAIRS = 5  # 10 qubits, entangled only within disjoint wire pairs
DENSE_LAYERS = 2
NETSIM_LINKS = 5  # 10 registers, 4 repeaters


@dataclass(frozen=True)
class Item:
    """One unit of work handed to the program.

    ``kind`` selects the call and its correctness check, ``params`` holds the
    generated arguments, ``files`` maps file names to their bytes, and an
    ``argv`` entry equal to a file name stands for that file's path.
    """

    kind: str
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    argv: tuple = ()


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


class _Draws:
    """Seeded draws; round 0 of seed 0 pins every jitter to zero and every
    optimizer seed to the regression tests' value."""

    def __init__(self, seed: int, index: int):
        self.rng = np.random.default_rng([seed, index])
        self.pinned = seed == 0 and index == 0

    def near(self, centre: float, width: float) -> float:
        value = float(self.rng.uniform(-width, width))
        return centre if self.pinned else centre + value

    def opt_seed(self, pinned_value: int = 0) -> int:
        value = int(self.rng.integers(0, 2**31 - 1))
        return pinned_value if self.pinned else value


def tailor_sweep_round(seed: int, index: int) -> list[Item]:
    """A fig5a point, a fig5b point and a building-block CLI job, all with
    the default optimizer budgets (the job's ancilla defaults to d^2).

    The job places its blocks after the channel only, which halves its cost:
    with interleaved blocks it takes about as long as the fig5a point, and
    the round's median item latency flipped between the two from run to run.
    """
    draw = _Draws(seed, index)
    job = {
        "method": "building-block",
        "placement": "post",
        "target": {"name": "bit_flip", "p": draw.near(0.95, 0.002)},
        "hardware": {"kind": "block",
                     "channels": [{"name": "rotation_noise_b", "q": draw.near(0.8, 0.002)}]},
        "seed": draw.opt_seed(),
    }
    return [
        Item("fig5a", {"q": draw.near(0.8, 0.002), "seed": draw.opt_seed(),
                       "pinned": draw.pinned}),
        Item("fig5b", {"s": draw.near(0.5, 0.002), "seed": draw.opt_seed(),
                       "pinned": draw.pinned}),
        Item("tailor-job", {"config": job}, files={"job.json": _dumps(job)},
             argv=("tailor", "--config", "job.json")),
    ]


FIG6A_GATE_NOISE = 0.925  # figures.fig6a_noise_model default


def circuit_tailor_round(seed: int, index: int) -> list[Item]:
    """A fig6a point (theta_tailor), a fig6b point (full_circuit_tailor) and
    a black-box-theta CLI job under the fig6a gate noise."""
    draw = _Draws(seed, index)
    gamma_bb = draw.near(0.5, 0.01)
    job = {
        "method": "black-box-theta",
        "target": {"name": "amplitude_damping", "gamma": gamma_bb},
        # listed channels act in order: depolarizing first, as in fig6a
        "hardware": {"kind": "gate",
                     "channels": [{"name": "depolarizing", "p": FIG6A_GATE_NOISE},
                                  {"name": "dephasing", "p": FIG6A_GATE_NOISE}]},
        "theta0": 2 * math.asin(math.sqrt(gamma_bb)),
        "seed": draw.opt_seed(42),
    }
    return [
        Item("fig6a", {"gamma": draw.near(0.5, 0.01), "pinned": draw.pinned}),
        Item("fig6b", {"gamma": draw.near(0.5, 0.01), "seed": draw.opt_seed(),
                       "pinned": draw.pinned}),
        Item("blackbox-job", {"config": job}, files={"job.json": _dumps(job)},
             argv=("tailor", "--config", "job.json")),
    ]


def _pair_programs() -> list[dict]:
    """The fixed pool of DENSE_PAIRS two-qubit programs, one per wire pair.

    Per layer a program puts an h or rx gate on one member and a cnot on
    the pair, then depolarizing (p = 0.98) on one member and amplitude
    damping (gamma = 0.02) on the other; the first program ends with a
    reset. Every seed runs this same pool, only laid out differently, so
    the per-item cost and the delivered infidelity do not depend on the
    seed. Members are 0 and 1; an angle of None means h.
    """
    rng = np.random.default_rng(20250611)
    programs = []
    for k in range(DENSE_PAIRS):
        layers = []
        for _ in range(DENSE_LAYERS):
            layers.append({
                "gate_member": int(rng.integers(2)),
                "rx_theta": None if rng.random() < 0.5 else float(rng.uniform(0.3, 2.8)),
                "control_member": int(rng.integers(2)),
                "depolarized_member": int(rng.integers(2)),
            })
        programs.append({"layers": layers, "reset_member": 0 if k == 0 else None})
    return programs


def dense_circuit(seed: int, index: int) -> dict:
    """10-qubit circuit whose gates never couple different wire pairs.

    The seed picks which wires form the pairs, which pool program runs on
    each pair, and the order of the elements within every layer; each
    layer's gates come before its per-wire noise channels.
    """
    rng = np.random.default_rng([seed, index])
    n = 2 * DENSE_PAIRS
    wires = [int(w) for w in rng.permutation(n)]
    pairs = [(wires[2 * k], wires[2 * k + 1]) for k in range(DENSE_PAIRS)]
    programs = [_pair_programs()[int(i)] for i in rng.permutation(DENSE_PAIRS)]
    elements = []
    for layer in range(DENSE_LAYERS):
        steps = {k: [] for k in range(DENSE_PAIRS)}
        noise = []
        for k, (pair, program) in enumerate(zip(pairs, programs)):
            spec = program["layers"][layer]
            wire = pair[spec["gate_member"]]
            if spec["rx_theta"] is None:
                steps[k].append({"type": "gate", "name": "h", "wires": [wire]})
            else:
                steps[k].append({"type": "gate", "name": "rx", "wires": [wire],
                                 "theta": spec["rx_theta"]})
            control = spec["control_member"]
            steps[k].append({"type": "gate", "name": "cnot",
                             "wires": [pair[control], pair[1 - control]]})
            depolarized = spec["depolarized_member"]
            noise.append({"type": "channel", "name": "depolarizing", "p": 0.98,
                          "wires": [pair[depolarized]]})
            noise.append({"type": "channel", "name": "amplitude_damping", "gamma": 0.02,
                          "wires": [pair[1 - depolarized]]})
        # interleave the pairs' gate sequences, keeping each pair's own order
        for k in rng.permutation(np.repeat(np.arange(DENSE_PAIRS), 2)):
            elements.append(steps[int(k)].pop(0))
        elements.extend(noise[int(i)] for i in rng.permutation(len(noise)))
    for pair, program in zip(pairs, programs):
        if program["reset_member"] is not None:
            elements.append({"type": "reset", "wire": pair[program["reset_member"]]})
    return {"wires": [{"label": f"q{w}", "dim": 2} for w in range(n)],
            "elements": elements}


def dense_sim_round(seed: int, index: int) -> list[Item]:
    return [Item("simulate", files={"circuit.json": _dumps(dense_circuit(seed, index))},
                 argv=("simulate", "circuit.json"))]


PHI_PLUS = [[0.5, 0.0, 0.0, 0.5], [0.0] * 4, [0.0] * 4, [0.5, 0.0, 0.0, 0.5]]


def repeater_scenario(seed: int, index: int) -> dict:
    """Entanglement-swapping chain over NETSIM_LINKS links, each link made
    when a swap first needs it.

    Link i is the Bell pair (a_i, b_i): its registers are added, prepared by
    h + cnot, and each half gets its own seeded depolarizing noise. The
    repeaters swap in a seeded order: the Bell measurement of
    (b_{i-1}, a_i) is followed by conditional X/Z on the far end of the
    joined segment and removal of both registers. Making links on demand
    keeps the link noise on small states, so measurement, conditional gates
    and trace-out over the growing branch set carry the cost.
    """
    draw = _Draws(seed, index)
    links = NETSIM_LINKS
    noise = [(draw.near(0.98, 0.002), draw.near(0.98, 0.002)) for _ in range(links)]
    order = [int(x) for x in draw.rng.permutation(np.arange(1, links))]
    events = []
    made = set()

    def make_link(i: int) -> None:
        if i in made:
            return
        made.add(i)
        a, b = f"a{i}", f"b{i}"
        events.extend([
            {"type": "add_registers", "registers": [{"name": a, "dim": 2},
                                                    {"name": b, "dim": 2}]},
            {"type": "apply_gate", "name": "h", "registers": [a]},
            {"type": "apply_gate", "name": "cnot", "registers": [a, b]},
            {"type": "apply_channel", "name": "depolarizing", "p": noise[i][0],
             "registers": [a]},
            {"type": "apply_channel", "name": "depolarizing", "p": noise[i][1],
             "registers": [b]},
        ])

    right_end = {i: f"b{i}" for i in range(links)}  # segment starting at a_i -> its far end
    left_start = {i: i for i in range(links)}  # segment ending at b_i -> index of its a
    for node in order:
        make_link(node - 1)
        make_link(node)
        left, right = f"b{node - 1}", f"a{node}"
        end = right_end[node]
        events += [
            {"type": "apply_gate", "name": "cnot", "registers": [left, right]},
            {"type": "apply_gate", "name": "h", "registers": [left]},
            {"type": "measure", "register": left, "message": f"z{node}"},
            {"type": "measure", "register": right, "message": f"x{node}"},
            {"type": "conditional_gate", "name": "x", "message": f"x{node}", "value": 1,
             "registers": [end]},
            {"type": "conditional_gate", "name": "z", "message": f"z{node}", "value": 1,
             "registers": [end]},
            {"type": "remove_registers", "names": [left, right]},
        ]
        start = left_start[node - 1]
        end_index = int(end[1:])
        right_end[start] = end
        left_start[end_index] = start
    return {
        "events": events,
        "reports": [{"type": "fidelity", "name": "bell",
                     "registers": ["a0", f"b{links - 1}"], "target_re": PHI_PLUS}],
    }


def netsim_round(seed: int, index: int) -> list[Item]:
    return [Item("netsim", files={"scenario.json": _dumps(repeater_scenario(seed, index))},
                 argv=("netsim", "scenario.json"))]


ROUNDS = {
    "tailor-sweep": tailor_sweep_round,
    "circuit-tailor": circuit_tailor_round,
    "dense-sim": dense_sim_round,
    "netsim-repeater": netsim_round,
}


def make_round(workload: str, seed: int, index: int) -> list[Item]:
    """Items of round ``index`` of ``workload`` under ``seed``."""
    return ROUNDS[workload](seed, index)


def round_bytes(workload: str, seed: int, index: int) -> bytes:
    """Canonical serialization of a round, for determinism checks."""
    items = make_round(workload, seed, index)
    return _dumps([{"kind": it.kind, "params": it.params, "argv": list(it.argv),
                    "files": {k: v.decode("utf-8") for k, v in it.files.items()}}
                   for it in items])
