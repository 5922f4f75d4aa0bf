"""Event-driven application of channels and measurements to a network state.

A scenario lists named registers grouped into nodes and a time-ordered
event sequence. A network protocol is a circuit over its registers: every
event but ``add_registers`` (:class:`AddRegisters`) is a circuit element with
register names as wires, run by :func:`channel_forge.circuits.run_element`.
``apply_gate`` is a :class:`Gate`, ``apply_channel`` a :class:`ChannelOp`,
``conditional_gate`` a :class:`ConditionalGate`, ``remove_registers`` a
tuple of one :class:`TraceOut` per name, and ``measure`` is
``Measure(wire=register, register=message)``: the element's ``register`` is
the name of the classical message it publishes. A conditional channel is
``ChannelOp(condition=(message, value))``.

Time is logical (event order); waiting in a memory or a channel is modeled
as a single pre-composed channel supplied by the scenario author, so no
continuous-time stepping is ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelError, validate_density
from .circuits import (ChannelOp, ConditionalGate, Gate, Measure, TraceOut, gate_from_entry,
                       live_handles, run_element)
from .engine import StateEngine
from .linalg import (as_complex, decode_complex, parse_each, read_field, refuse_unknown_keys,
                     state_fidelity)
from .noise import channel_from_entry


@dataclass(frozen=True)
class AddRegisters:
    registers: tuple[tuple[str, int], ...]  # (name, dim) pairs
    state: np.ndarray | None = None  # joint initial state, default |0...0>


@dataclass(frozen=True)
class FidelityReport:
    name: str
    registers: tuple[str, ...]
    target_state: np.ndarray


@dataclass(frozen=True)
class StateReport:
    name: str
    registers: tuple[str, ...]


@dataclass
class NetworkScenario:
    """Named-register network scenario.

    ``nodes`` groups register names per node (documentation and validation
    only; dynamics are global). Registers listed in ``initial_registers``
    exist from the start in |0>. ``events`` holds circuit elements over
    register names, :class:`AddRegisters`, and tuples of elements run in order
    as one event.
    """

    initial_registers: list[tuple[str, int]] = field(default_factory=list)
    nodes: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    reports: list = field(default_factory=list)


@dataclass
class ScenarioReport:
    fidelities: dict
    states: dict
    branch_log: list
    final_trace: float


def run_scenario(scenario: NetworkScenario) -> ScenarioReport:
    """Execute a scenario deterministically and collect its reports.

    Measurements keep exact branches; conditional operations act per
    branch on the recorded messages; reported states and fidelities use
    the exact branch mixture. A ChannelError raised while running names the
    event, ``events[i]``, as parsing does.
    """
    engine = StateEngine()
    handle_of: dict[str, int] = {}

    def run_event(ev) -> None:
        if isinstance(ev, AddRegisters):
            handles = engine.add_wires([d for _, d in ev.registers], ev.state)
            for (name, _), h in zip(ev.registers, handles):
                if name in handle_of:
                    raise ChannelError(f"register {name!r} already exists")
                handle_of[name] = h
        else:
            for el in ev if isinstance(ev, tuple) else [ev]:
                run_element(engine, el, handle_of)

    run_event(AddRegisters(tuple(scenario.initial_registers)))
    parse_each(scenario.events, run_event, "events")

    fidelities, states = {}, {}
    for rep in scenario.reports:
        rho = engine.reduced_state(live_handles(handle_of, rep.registers))
        if isinstance(rep, FidelityReport):
            if rep.target_state.shape != rho.shape:
                raise ChannelError(f"fidelity target {rep.name!r} has shape "
                                   f"{rep.target_state.shape}, its registers {rho.shape}")
            fidelities[rep.name] = state_fidelity(rho, as_complex(rep.target_state))
        elif isinstance(rep, StateReport):
            states[rep.name] = rho
        else:
            raise ChannelError(f"unknown report {rep!r}")
    final_trace = float(np.trace(engine.mixed_state()).real) if engine.dims else 1.0
    return ScenarioReport(fidelities=fidelities, states=states,
                         branch_log=engine.branch_summary(), final_trace=final_trace)


@dataclass(frozen=True)
class ResourceEstimate:
    """Qubit accounting for m -> 1 purification over n-qubit states.

    One round consumes m copies of an n-qubit state and stages the output
    while the next batch is produced, so a single step runs on n*m active
    qubits and k rounds require 2*k*n*m in total.
    """

    n: int
    m: int
    k: int

    @property
    def active_qubits(self) -> int:
        return self.n * self.m

    @property
    def qubits_required(self) -> int:
        return 2 * self.k * self.n * self.m


def resource_estimate(n: int, m: int, k: int) -> ResourceEstimate:
    """Resource count for k purification rounds on m copies of n-qubit states."""
    if min(n, m, k) < 1:
        raise ChannelError("n, m, k must be positive integers")
    return ResourceEstimate(n=int(n), m=int(m), k=int(k))


# -- scenario files -------------------------------------------------------------


def _register(entry: dict) -> tuple[str, int]:
    name, dim = read_field(entry, "name", str), read_field(entry, "dim", int)
    refuse_unknown_keys(entry, {"name", "dim"}, "register")
    if dim < 1:
        raise ChannelError(f"register {name!r} needs a positive dim, got {dim}")
    return name, dim


def _names(entry: dict, key: str) -> tuple[str, ...]:
    names = read_field(entry, key, list)
    if not all(isinstance(n, str) for n in names):
        raise ChannelError(f"{key} must list register names, got {names!r:.40}")
    return tuple(names)


def _density(entry: dict, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    rho = decode_complex(entry, name, shape)
    validate_density(rho)
    return rho


# event or report type -> the keys it reads besides those of its gate or channel
_EVENT_KEYS = {
    "add_registers": {"type", "registers", "state_re", "state_im"},
    "remove_registers": {"type", "names"},
    "apply_gate": {"type", "registers"},
    "apply_channel": {"type", "registers"},
    "measure": {"type", "register", "message"},
    "conditional_gate": {"type", "message", "value", "registers"},
}
_REPORT_KEYS = {
    "fidelity": {"type", "name", "registers", "target_re", "target_im"},
    "state": {"type", "name", "registers"},
}


def _event_from_dict(entry: dict):
    """The event of one entry: an element, AddRegisters, or a tuple of one
    TraceOut per removed name."""
    etype = read_field(entry, "type", str)
    if etype not in _EVENT_KEYS:
        raise ChannelError(f"unknown event type {etype!r}")
    keys = _EVENT_KEYS[etype]
    if etype == "apply_gate":
        return Gate(gate_from_entry(entry, keys), _names(entry, "registers"))
    if etype == "apply_channel":
        return ChannelOp(channel_from_entry(entry, keys), _names(entry, "registers"))
    if etype == "conditional_gate":
        return ConditionalGate(register=read_field(entry, "message", str),
                               value=read_field(entry, "value", int),
                               unitary=gate_from_entry(entry, keys),
                               wires=_names(entry, "registers"))
    refuse_unknown_keys(entry, keys, f"{etype} event")
    if etype == "add_registers":
        regs = tuple(parse_each(read_field(entry, "registers", list), _register, "registers"))
        dim = math.prod(d for _, d in regs)
        state = _density(entry, "state", (dim, dim)) if "state_re" in entry else None
        return AddRegisters(registers=regs, state=state)
    if etype == "remove_registers":
        return tuple(TraceOut(wire=name) for name in _names(entry, "names"))
    return Measure(wire=read_field(entry, "register", str),
                   register=read_field(entry, "message", str))


def _report_from_dict(entry: dict):
    etype = read_field(entry, "type", str)
    if etype not in _REPORT_KEYS:
        raise ChannelError(f"unknown report type {etype!r}")
    refuse_unknown_keys(entry, _REPORT_KEYS[etype], f"{etype} report")
    name, registers = read_field(entry, "name", str), _names(entry, "registers")
    if etype == "fidelity":
        return FidelityReport(name=name, registers=registers,
                              target_state=_density(entry, "target"))
    return StateReport(name=name, registers=registers)


def scenario_from_dict(data: dict) -> NetworkScenario:
    """Build a scenario from its JSON/TOML dictionary form; malformed input
    raises ChannelError, naming ``events[i]`` or ``reports[i]``; so does an
    unknown key."""
    initial = parse_each(read_field(data, "registers", list, []), _register, "registers")
    refuse_unknown_keys(data, {"registers", "nodes", "events", "reports"}, "scenario")
    nodes_in = read_field(data, "nodes", dict, {})
    nodes = {node: list(_names(nodes_in, node)) for node in nodes_in}
    events = parse_each(read_field(data, "events", list, []), _event_from_dict, "events")
    reports = parse_each(read_field(data, "reports", list, []), _report_from_dict, "reports")
    report_names = [rep.name for rep in reports]
    if len(set(report_names)) != len(report_names):
        raise ChannelError(f"report names repeat: {report_names}")
    declared = {name for name, _ in initial}
    for ev in events:
        if isinstance(ev, AddRegisters):
            declared.update(name for name, _ in ev.registers)
    for node, names in nodes.items():
        unknown = [n for n in names if n not in declared]
        if unknown:
            raise ChannelError(f"node {node!r} lists unknown registers {unknown}")
    return NetworkScenario(initial_registers=initial, nodes=nodes,
                           events=events, reports=reports)
