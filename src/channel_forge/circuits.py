"""Small-circuit density-matrix simulation and effective-channel extraction.

A :class:`Circuit` is an ordered list of elements over labelled qubit/qudit
wires: unitary gates, channel insertions, projective measurements writing to
classical registers, classically conditioned gates, resets, and trace-outs.
Measurements branch the state exactly; erased outcomes are exact convex
mixtures, so there is no sampling anywhere in the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .channels import Channel, ChannelError, channel_to_dict, check_unitary, mix
from .engine import MAX_TOTAL_DIMENSION, StateEngine, _check_memory
from .linalg import (as_complex, decode_complex, encode_complex, max_entangled_ket,
                     parse_each, read_field, refuse_unknown_keys)
from .noise import PAULI_X, PAULI_Y, PAULI_Z, channel_from_entry

# -- named gates --------------------------------------------------------------


def ry(theta: float) -> np.ndarray:
    """Rotation exp(-i theta Y / 2)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=np.complex128)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def cnot() -> np.ndarray:
    """CNOT in (control, target) factor order."""
    m = np.eye(4, dtype=np.complex128)
    m[2:, 2:] = PAULI_X
    return m


def controlled_ry(theta: float) -> np.ndarray:
    """Controlled R_y in (control, target) factor order."""
    m = np.eye(4, dtype=np.complex128)
    m[2:, 2:] = ry(theta)
    return m


def shift_operator(dim: int) -> np.ndarray:
    """Cyclic lowering shift X_D with X_D |j> = |(j-1) mod D>."""
    if not 1 <= dim <= MAX_TOTAL_DIMENSION:
        raise ChannelError(f"shift dimension {dim} is outside [1, {MAX_TOTAL_DIMENSION}]")
    m = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        m[(j - 1) % dim, j] = 1.0
    return m


# name -> (builder, the (parameter, type) pairs it takes)
GATE_BUILDERS = {
    "ry": (ry, (("theta", float),)),
    "rx": (rx, (("theta", float),)),
    "rz": (rz, (("theta", float),)),
    "x": (lambda: PAULI_X, ()),
    "y": (lambda: PAULI_Y, ()),
    "z": (lambda: PAULI_Z, ()),
    "h": (hadamard, ()),
    "cnot": (cnot, ()),
    "cry": (controlled_ry, (("theta", float),)),
    "shift": (shift_operator, (("dim", int),)),
}


def gate_from_entry(entry: dict, other_keys=frozenset()) -> np.ndarray:
    """The unitary of a JSON gate entry: an explicit ``matrix_re``/``matrix_im``
    (unitary within 1e-10) or a known ``name`` with its parameters. ChannelError
    for a key that neither this gate nor ``other_keys`` (the keys the caller
    reads from the same entry) names."""
    if "matrix_re" in entry:
        u, keys = check_unitary(decode_complex(entry, "matrix")), {"matrix_re", "matrix_im"}
    else:
        name = read_field(entry, "name", str, "")
        if name not in GATE_BUILDERS:
            raise ChannelError(f"gate entry needs a known name or an explicit matrix, got {name!r}")
        builder, params = GATE_BUILDERS[name]
        u = as_complex(builder(*[read_field(entry, key, kind) for key, kind in params]))
        keys = {"name", *(key for key, _ in params)}
    refuse_unknown_keys(entry, keys | other_keys, "gate entry")
    return u


# -- circuit elements ---------------------------------------------------------

# A wire is an integer index in a Circuit and a register name in a network
# scenario; the same elements, run by run_element, serve both.
Wire = int | str


@dataclass(frozen=True)
class Gate:
    unitary: np.ndarray
    wires: tuple[Wire, ...]
    name: str = ""


@dataclass(frozen=True)
class ChannelOp:
    channel: Channel
    wires: tuple[Wire, ...]
    is_noise: bool = False
    condition: tuple[str, int] | None = None
    name: str = ""


@dataclass(frozen=True)
class Measure:
    wire: Wire
    register: str


@dataclass(frozen=True)
class ConditionalGate:
    unitary: np.ndarray
    wires: tuple[Wire, ...]
    register: str
    value: int
    name: str = ""


@dataclass(frozen=True)
class Reset:
    wire: Wire


@dataclass(frozen=True)
class TraceOut:
    wire: Wire


Element = Gate | ChannelOp | Measure | ConditionalGate | Reset | TraceOut


@dataclass
class Circuit:
    """Ordered element list over labelled wires.

    ``data_wires`` marks the wires carrying the simulated channel's data;
    the rest are ancillas implicitly initialized to |0>. Defaults to all
    wires when unset.
    """

    wires: list[tuple[str, int]]
    elements: list = field(default_factory=list)
    data_wires: tuple[int, ...] | None = None

    def __post_init__(self):
        if any(d < 1 for _, d in self.wires) or math.prod(self.wire_dims()) > MAX_TOTAL_DIMENSION:
            raise ChannelError(f"wire dims must be positive with a product of at most "
                               f"{MAX_TOTAL_DIMENSION}, got {self.wire_dims()}")

    def wire_dims(self) -> list[int]:
        return [d for _, d in self.wires]

    def data(self) -> tuple[int, ...]:
        return self.data_wires if self.data_wires is not None else tuple(range(len(self.wires)))

    def _check_wires(self, wires: Sequence[int]) -> tuple[int, ...]:
        n = len(self.wires)
        for w in wires:
            if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or not 0 <= w < n:
                raise ChannelError(f"wire {w!r} is not an index in [0, {n})")
        if len(set(wires)) != len(wires):
            raise ChannelError(f"repeated wire in {wires}")
        return tuple(wires)

    # chainable construction helpers

    def gate(self, unitary: np.ndarray, wires: Sequence[int], name: str = "") -> "Circuit":
        wires = self._check_wires(wires)
        unitary = as_complex(unitary)
        d = math.prod(self.wires[w][1] for w in wires)
        if unitary.shape != (d, d):
            raise ChannelError(f"gate shape {unitary.shape} does not match wires {wires}")
        self.elements.append(Gate(unitary=unitary, wires=wires, name=name))
        return self

    def channel(self, ch: Channel, wires: Sequence[int], name: str = "", is_noise: bool = False,
                condition: tuple[str, int] | None = None) -> "Circuit":
        wires = self._check_wires(wires)
        d = math.prod(self.wires[w][1] for w in wires)
        if ch.dim_in != d or ch.dim_out != d:
            raise ChannelError(f"channel dims ({ch.dim_in},{ch.dim_out}) do not match wires {wires}")
        self.elements.append(ChannelOp(channel=ch, wires=wires, is_noise=is_noise,
                                       condition=condition, name=name))
        return self

    def measure(self, wire: int, register: str) -> "Circuit":
        (wire,) = self._check_wires([wire])
        self.elements.append(Measure(wire=wire, register=register))
        return self

    def conditional_gate(self, unitary: np.ndarray, wires: Sequence[int],
                         register: str, value: int, name: str = "") -> "Circuit":
        wires = self._check_wires(wires)
        if not any(isinstance(el, Measure) and el.register == register for el in self.elements):
            raise ChannelError(f"condition on register {register!r} precedes any measurement of it")
        self.elements.append(ConditionalGate(unitary=as_complex(unitary), wires=wires,
                                             register=register, value=value, name=name))
        return self

    def reset(self, wire: int) -> "Circuit":
        (wire,) = self._check_wires([wire])
        self.elements.append(Reset(wire=wire))
        return self

    def trace_out(self, wire: int) -> "Circuit":
        (wire,) = self._check_wires([wire])
        self.elements.append(TraceOut(wire=wire))
        return self

    def copy(self) -> "Circuit":
        return Circuit(wires=list(self.wires), elements=list(self.elements),
                       data_wires=self.data_wires)


@dataclass
class ProcessResult:
    """Effective channel of a circuit plus the measurement branch log."""

    channel: Channel
    branch_log: list[tuple[dict, float]]


def live_handles(handle_of: dict, wires) -> list[int]:
    """Engine handles of live wires; ChannelError names the first that is not live."""
    try:
        return [handle_of[w] for w in wires]
    except KeyError as exc:
        raise ChannelError(f"wire {exc.args[0]!r} is not live") from None


def run_element(engine: StateEngine, el: Element, handle_of: dict) -> None:
    """Apply one element to the engine. A wire is a key of ``handle_of``: an
    integer index in a circuit, a register name in a network scenario."""
    if isinstance(el, Gate):
        engine.apply_unitary(el.unitary, live_handles(handle_of, el.wires))
    elif isinstance(el, ChannelOp):
        handles = live_handles(handle_of, el.wires)
        if el.condition is None:
            engine.apply_channel(el.channel, handles)
        else:
            engine.apply_conditional_channel(el.channel, handles, *el.condition)
    elif isinstance(el, Measure):
        engine.measure(*live_handles(handle_of, [el.wire]), el.register)
    elif isinstance(el, ConditionalGate):
        engine.apply_conditional_unitary(el.unitary, live_handles(handle_of, el.wires),
                                         el.register, el.value)
    elif isinstance(el, Reset):
        engine.reset(*live_handles(handle_of, [el.wire]))
    elif isinstance(el, TraceOut):
        engine.trace_out(*live_handles(handle_of, [el.wire]))
        handle_of.pop(el.wire)
    else:
        raise ChannelError(f"unknown circuit element {el!r}")


def _skeleton(el: Element):
    """What every member of a batch shares at one position: every field but a
    gate's unitary and the names, a channel by identity."""
    if isinstance(el, (Gate, ConditionalGate)):
        return type(el), el.wires, getattr(el, "register", None), getattr(el, "value", None)
    if isinstance(el, ChannelOp):
        return ChannelOp, id(el.channel), el.wires, el.is_noise, el.condition
    return el  # Measure, Reset, TraceOut: plain fields, compared by value


def _batch_elements(circuits: Sequence[Circuit]) -> list:
    """The elements that run ``circuits`` as one batch: each position's element
    with the members' gate unitaries stacked. ChannelError unless the circuits
    share wires, data wires and one skeleton, naming ``elements[i]`` at the
    first position that differs."""
    first = circuits[0]
    if len(circuits) == 1:
        return first.elements
    for c in circuits[1:]:
        if (c.wires, c.data(), len(c.elements)) != (first.wires, first.data(), len(first.elements)):
            raise ChannelError("batched circuits differ in wires, data wires or element count")

    def stack(column: tuple) -> Element:
        el = column[0]
        if any(_skeleton(other) != _skeleton(el) for other in column[1:]):
            raise ChannelError("element differs across the batch beyond its gate unitary")
        if isinstance(el, (Gate, ConditionalGate)):
            return replace(el, unitary=np.stack([other.unitary for other in column]))
        return el

    return parse_each(list(zip(*(c.elements for c in circuits))), stack, "elements")


def _run(circuits: Sequence[Circuit], state: np.ndarray, ref_dims: Sequence[int] = ()):
    """Run circuits that share one skeleton (see :func:`_batch_elements`) on an
    engine holding ``state`` over the data wires, then ``ref_dims`` reference
    wires, with every other wire an ancilla in |0>. One circuit runs unbatched;
    more run as one batch, from ``state`` stacked ``(B, D, D)``. Returns the
    engine, the handle of each live wire and the reference handles."""
    elements = _batch_elements(circuits)
    data = circuits[0].data()
    dims = circuits[0].wire_dims()
    ancillas = [w for w in range(len(dims)) if w not in data]
    engine = StateEngine()
    handles = engine.add_wires([dims[w] for w in data] + list(ref_dims), state=state)
    handle_of = dict(zip(data, handles))
    handle_of.update(zip(ancillas, engine.add_wires([dims[w] for w in ancillas])))
    parse_each(elements, lambda el: run_element(engine, el, handle_of), "elements")
    return engine, handle_of, handles[len(data):]


def simulate(circuit: Circuit, rho_in: np.ndarray) -> np.ndarray:
    """Run the circuit on rho_in (over the data wires; ancillas start |0>).

    Returns the exact mixed state over the wires still live at the end, in
    ascending wire order.
    """
    return simulate_detailed(circuit, rho_in)[0]


def simulate_detailed(circuit: Circuit, rho_in: np.ndarray):
    """Like :func:`simulate` but also returns the branch log. A ChannelError
    raised while running names the element, ``elements[i]``, as parsing does."""
    engine, handle_of, _ = _run([circuit], rho_in)
    live = sorted(handle_of)
    return engine.reduced_state([handle_of[w] for w in live]), engine.branch_summary()


def extract_channel(circuit: Circuit | Sequence[Circuit]) -> ProcessResult | list[ProcessResult]:
    """Effective channel of the circuit on its data wires.

    One half of a maximally entangled state over the data wires is fed
    through the circuit while reference copies stay untouched; the final
    joint state is the (trace-1) Choi state of the effective map. Every
    non-data wire must be traced out by the end of the circuit. A ChannelError
    raised while running names the element, ``elements[i]``.

    A sequence of circuits that differ only in their gate unitaries runs as
    one batch, every state stacked on a leading axis, and gives one result
    per circuit, each equal to that circuit's own result bit for bit. A
    batch cannot measure, since each member would branch differently.
    """
    circuits = [circuit] if isinstance(circuit, Circuit) else list(circuit)
    if not circuits:
        raise ChannelError("extract_channel needs at least one circuit")
    data = circuits[0].data()
    dims = circuits[0].wire_dims()
    data_dims = [dims[w] for w in data]
    d = math.prod(data_dims)
    total = d * math.prod(dims)  # checked before the d^2 x d^2 input is built
    if total > MAX_TOTAL_DIMENSION:
        raise ChannelError(f"total dimension {total} exceeds engine cap {MAX_TOTAL_DIMENSION}")
    _check_memory(len(circuits), total)  # likewise for a batch's (B, d^2, d^2) input
    ket = max_entangled_ket(d)
    state = np.outer(ket, ket.conj())
    if len(circuits) > 1:
        state = np.broadcast_to(state, (len(circuits), *state.shape))
    engine, handle_of, ref_handles = _run(circuits, state, data_dims)
    expected = {w: handle_of[w] for w in data if w in handle_of}
    if len(expected) != len(data):
        raise ChannelError("a data wire was traced out; cannot extract a channel on it")
    extra = [w for w in handle_of if w not in data]
    if extra:
        labels = [circuit.wires[w][0] for w in extra]
        raise ChannelError(
            f"ancilla wires {labels} are still live at circuit end; "
            "trace them out before extracting a channel"
        )
    order = [handle_of[w] for w in data] + list(ref_handles)
    chois = engine.reduced_state(order)
    out_dim = chois.shape[-1] // d
    results = [ProcessResult(channel=Channel.from_choi(choi, dim_in=d, dim_out=out_dim),
                             branch_log=engine.branch_summary())
               for choi in chois.reshape(-1, *chois.shape[-2:])]
    return results[0] if isinstance(circuit, Circuit) else results


# -- circuit library -----------------------------------------------------------


def build_bitflip_circuit_a(p: float) -> Circuit:
    """Stochastic-X implementation: keep with probability p, flip otherwise.

    The stochastic gate is realized as an exact two-unitary mixture inserted
    as one channel element.
    """
    stochastic_x = mix([Channel.identity(2), Channel.from_unitary(PAULI_X)], [p, 1 - p])
    c = Circuit(wires=[("q0", 2)], data_wires=(0,))
    c.channel(stochastic_x, [0], name="stochastic_x")
    return c


def build_bitflip_circuit_b(p: float) -> Circuit:
    """Ancilla implementation: R_y on the ancilla with sin^2(theta/2) = 1-p,
    then CNOT from ancilla onto the data wire, ancilla traced out."""
    theta = 2 * np.arcsin(np.sqrt(np.clip(1 - p, 0.0, 1.0)))
    c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
    c.gate(ry(theta), [1], name="ry")
    c.gate(cnot(), [1, 0], name="cnot")
    c.trace_out(1)
    return c


def build_ad_circuit(theta: float, variant: str = "unitary-cnot") -> Circuit:
    """Amplitude-damping circuit with decay sin^2(theta/2).

    "unitary-cnot": controlled-R_y from data onto the ancilla, then CNOT from
    the ancilla back onto the data wire, ancilla traced out. "measure-feedback"
    replaces the CNOT by a measurement of the ancilla and a classically
    conditioned X on the data wire.
    """
    c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
    c.gate(controlled_ry(theta), [0, 1], name="cry")
    if variant == "unitary-cnot":
        c.gate(cnot(), [1, 0], name="cnot")
    elif variant == "measure-feedback":
        c.measure(1, "m")
        c.conditional_gate(PAULI_X, [0], "m", 1, name="x")
    else:
        raise ChannelError(f"unknown amplitude-damping circuit variant {variant!r}")
    c.trace_out(1)
    return c


# -- serialization --------------------------------------------------------------


def circuit_to_dict(circuit: Circuit) -> dict:
    elements = []
    for el in circuit.elements:
        if isinstance(el, Gate):
            elements.append({"type": "gate", "name": el.name or "matrix",
                             "wires": list(el.wires), **encode_complex(el.unitary, "matrix")})
        elif isinstance(el, ChannelOp):
            entry = {"type": "channel", "wires": list(el.wires),
                     "channel": channel_to_dict(el.channel), "is_noise": el.is_noise}
            if el.name:
                entry["name"] = el.name
            if el.condition is not None:
                entry["condition"] = {"register": el.condition[0], "value": el.condition[1]}
            elements.append(entry)
        elif isinstance(el, Measure):
            elements.append({"type": "measure", "wire": el.wire, "register": el.register})
        elif isinstance(el, ConditionalGate):
            elements.append({"type": "conditional_gate", "name": el.name or "matrix",
                             "wires": list(el.wires), "register": el.register,
                             "value": el.value, **encode_complex(el.unitary, "matrix")})
        elif isinstance(el, Reset):
            elements.append({"type": "reset", "wire": el.wire})
        elif isinstance(el, TraceOut):
            elements.append({"type": "trace_out", "wire": el.wire})
    return {
        "wires": [{"label": lbl, "dim": dim} for lbl, dim in circuit.wires],
        "data_wires": list(circuit.data()),
        "elements": elements,
    }


# element type -> the keys it reads besides those of its gate or channel
_ELEMENT_KEYS = {
    "gate": {"type", "name", "wires"},
    "channel": {"type", "name", "wires", "is_noise", "condition"},
    "measure": {"type", "wire", "register"},
    "conditional_gate": {"type", "name", "wires", "register", "value"},
    "reset": {"type", "wire"},
    "trace_out": {"type", "wire"},
}


def _add_element(c: Circuit, entry: dict) -> None:
    etype = read_field(entry, "type", str)
    if etype not in _ELEMENT_KEYS:
        raise ChannelError(f"unknown circuit element type {etype!r}")
    keys = _ELEMENT_KEYS[etype]
    name = read_field(entry, "name", str, "")
    if etype == "gate":
        c.gate(gate_from_entry(entry, keys), read_field(entry, "wires", list), name=name)
    elif etype == "channel":
        cond = read_field(entry, "condition", dict, None)
        if cond is not None:
            refuse_unknown_keys(cond, {"register", "value"}, "condition")
        c.channel(channel_from_entry(entry, keys), read_field(entry, "wires", list), name=name,
                  is_noise=read_field(entry, "is_noise", bool, False),
                  condition=None if cond is None else (read_field(cond, "register", str),
                                                       read_field(cond, "value", int)))
    elif etype == "conditional_gate":
        c.conditional_gate(gate_from_entry(entry, keys), read_field(entry, "wires", list),
                           read_field(entry, "register", str), read_field(entry, "value", int),
                           name=name)
    else:
        refuse_unknown_keys(entry, keys, f"{etype} element")
        if etype == "measure":
            c.measure(read_field(entry, "wire", int), read_field(entry, "register", str))
        else:
            (c.reset if etype == "reset" else c.trace_out)(read_field(entry, "wire", int))


def _wire(entry: dict) -> tuple[str, int]:
    label, dim = read_field(entry, "label", str), read_field(entry, "dim", int)
    refuse_unknown_keys(entry, {"label", "dim"}, "wire")
    return label, dim


def circuit_from_dict(data: dict) -> Circuit:
    """Inverse of :func:`circuit_to_dict`; named gates and channels are also
    accepted. Malformed input, an unknown key included, raises ChannelError,
    naming ``elements[i]``."""
    wires = parse_each(read_field(data, "wires", list), _wire, "wires")
    refuse_unknown_keys(data, {"wires", "data_wires", "elements"}, "circuit")
    c = Circuit(wires=wires)
    if "data_wires" in data:
        c.data_wires = c._check_wires(read_field(data, "data_wires", list))
    parse_each(read_field(data, "elements", list, []), lambda e: _add_element(c, e), "elements")
    return c
