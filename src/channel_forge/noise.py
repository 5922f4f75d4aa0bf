"""Named noise channels and hardware-noise models for circuits.

Factories cover the single-qubit channels used throughout the toolkit
(dephasing, depolarizing in both parameterizations, amplitude damping, bit
flip, general Pauli-diagonal channels, the non-Pauli rotation mixture, and
the dimension-growing erasure channel) plus the two circuit noise models:
per-gate insertion and one trailing block channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (CHANNEL_KEYS, Channel, ChannelError, channel_from_dict, check_probabilities,
                       compose_all, validate_cptp)
from .linalg import max_entangled_ket, read_field, refuse_unknown_keys

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_PAULIS_1Q = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

# symplectic label 2x + z of each of {I, X, Y, Z}; products compose by XOR
_SYMPLECTIC = np.array([0, 2, 3, 1])


def _check_prob(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def pauli_operators(n_qubits: int) -> list[np.ndarray]:
    """The 4^n Pauli-group representatives, qubit 0 as the leftmost factor.

    Index digits are base-4 most-significant-first, so for one qubit the
    order is [I, X, Y, Z] and for two qubits index 4*a+b maps to P_a (x) P_b.
    """
    ops = list(_PAULIS_1Q)
    for _ in range(n_qubits - 1):
        ops = [np.kron(a, b) for a in ops for b in _PAULIS_1Q]
    return ops


def pauli_product_table(n_qubits: int) -> np.ndarray:
    """(4^n, 4^n) table whose entry (i, j) is the index of P_i P_j up to phase.

    Each index maps to its symplectic label, digit by digit; labels of a
    product are the XOR of the factors' labels, mapped back to an index.
    """
    labels = _SYMPLECTIC
    for _ in range(n_qubits - 1):
        labels = (4 * labels[:, None] + _SYMPLECTIC).ravel()
    return np.argsort(labels)[labels[:, None] ^ labels]


@dataclass(frozen=True)
class PauliDiagonalSpec:
    """Probability distribution over the n-qubit Pauli group."""

    probs: tuple[float, ...]

    def __post_init__(self):
        n = check_probabilities(self.probs, "Pauli").size
        if n < 4 or (n & (n - 1)) or int(np.log2(n)) % 2:
            raise ChannelError(f"Pauli spec length {n} is not a power of 4")

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(len(self.probs)) / 2))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def depolarizing(cls, p: float, n_qubits: int = 1) -> "PauliDiagonalSpec":
        """Weight p on identity, the rest spread uniformly."""
        _check_prob(p)
        size = 4**n_qubits
        probs = np.full(size, (1.0 - p) / (size - 1))
        probs[0] = p
        return cls(tuple(probs))

    @classmethod
    def identity(cls, n_qubits: int = 1) -> "PauliDiagonalSpec":
        probs = np.zeros(4**n_qubits)
        probs[0] = 1.0
        return cls(tuple(probs))


def dephasing(p: float) -> Channel:
    """Phase noise: rho -> p rho + (1-p) Z rho Z."""
    p = _check_prob(p)
    return Channel.from_kraus([np.sqrt(p) * PAULI_I, np.sqrt(1 - p) * PAULI_Z])


def depolarizing(p: float) -> Channel:
    """White noise in Kraus-weight form: identity with weight p, each Pauli (1-p)/3.

    Equivalently rho -> p' rho + (1-p') 1/2 with p' = (4p-1)/3.
    """
    p = _check_prob(p)
    w = np.sqrt((1 - p) / 3)
    return Channel.from_kraus(
        [np.sqrt(p) * PAULI_I, w * PAULI_X, w * PAULI_Y, w * PAULI_Z]
    )


def depolarizing_white(p_prime: float) -> Channel:
    """White noise parameterized directly: rho -> q rho + (1-q) 1/2."""
    p_prime = _check_prob(p_prime, "p_prime")
    return depolarizing((3 * p_prime + 1) / 4)


def amplitude_damping(gamma: float) -> Channel:
    """Decay toward |0>: K0 = |0><0| + sqrt(1-g)|1><1|, K1 = sqrt(g)|0><1|."""
    gamma = _check_prob(gamma, "gamma")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return Channel.from_kraus([k0, k1])


def bit_flip(p: float) -> Channel:
    """rho -> p rho + (1-p) X rho X."""
    p = _check_prob(p)
    return Channel.from_kraus([np.sqrt(p) * PAULI_I, np.sqrt(1 - p) * PAULI_X])


def pauli_diagonal(spec: PauliDiagonalSpec) -> Channel:
    """Channel sum_i p_i P_i rho P_i from a Pauli distribution."""
    ops = pauli_operators(spec.n_qubits)
    kraus = [np.sqrt(p) * op for p, op in zip(spec.probs, ops) if p > 0]
    if not kraus:
        raise ChannelError("Pauli spec has no positive weight")
    return Channel.from_kraus(kraus)


def rotation_noise_b(q: float) -> Channel:
    """Mixture of identity and the three 90-degree rotations (1 + i sigma_k)/sqrt(2).

    Kraus operators are sqrt(q) 1 and sqrt((1-q)/3) (1 + i sigma_k)/sqrt(2)
    for k in {x, y, z}; the coefficients are read as probabilities so the set
    is trace preserving while keeping the non-Pauli-diagonal character.
    """
    q = _check_prob(q, "q")
    kraus = [np.sqrt(q) * PAULI_I]
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        kraus.append(np.sqrt((1 - q) / 3) * (PAULI_I + 1j * sigma) / np.sqrt(2))
    return Channel.from_kraus(kraus)


def erasure(p: float, d: int = 2) -> Channel:
    """Particle loss: rho -> p (rho + 0) + (1-p) |e><e| on a (d+1)-level space.

    The output space appends one flag level |e> = |d>; with probability p the
    input is embedded unchanged, otherwise it is replaced by the flag state.
    """
    p = _check_prob(p)
    if d < 1:
        raise ChannelError("erasure needs d >= 1")
    embed = np.zeros((d + 1, d), dtype=np.complex128)
    embed[:d, :] = np.eye(d)
    kraus = [np.sqrt(p) * embed]
    for j in range(d):
        k = np.zeros((d + 1, d), dtype=np.complex128)
        k[d, j] = np.sqrt(1 - p)
        kraus.append(k)
    return Channel.from_kraus(kraus)


def pauli_conjugations() -> list[Channel]:
    """The four single-qubit Pauli conjugation channels [id, X, Y, Z]."""
    return [Channel.from_unitary(p) for p in _PAULIS_1Q]


# -- hardware noise models ---------------------------------------------------


def _check_model_channel(ch: Channel, kind: str) -> None:
    if ch.dim_in != ch.dim_out:
        raise ChannelError(f"{kind}-model noise must preserve wire dimension")
    if not validate_cptp(ch).passed:
        raise ChannelError(f"{kind}-model noise channel is not CPTP")


@dataclass(frozen=True)
class GateModel:
    """Per-gate noise: the single-wire channel ``per_wire`` on every wire an
    operation touches, in ascending wire order (see :func:`apply_noise_model`)."""

    per_wire: Channel

    def __post_init__(self):
        _check_model_channel(self.per_wire, "gate")


@dataclass(frozen=True)
class BlockModel:
    """Block noise: one trailing channel per data wire after the full circuit."""

    trailing: Channel

    def __post_init__(self):
        _check_model_channel(self.trailing, "block")


NoiseModel = GateModel | BlockModel


CHANNEL_PARAMS = ("q", "p", "gamma", "p_prime")

_CHANNEL_BUILDERS = {f.__name__: f for f in (dephasing, depolarizing, depolarizing_white,
                                                amplitude_damping, bit_flip, rotation_noise_b)}


def channel_by_name(name: str, **params) -> Channel:
    """Look up a named factory; its one parameter is given as q, p, gamma or p_prime."""
    if name not in _CHANNEL_BUILDERS:
        raise ChannelError(f"unknown channel name {name!r}; known: {sorted(_CHANNEL_BUILDERS)}")
    refuse_unknown_keys(params, CHANNEL_PARAMS, f"channel {name!r}")
    if len(params) != 1:
        raise ChannelError(f"channel {name!r} takes exactly one of q/p/gamma/p_prime, got {params}")
    (key,) = params
    return _CHANNEL_BUILDERS[name](read_field(params, key, float))


def channel_from_entry(entry: dict, other_keys=frozenset()) -> Channel:
    """The channel of a JSON entry: a serialized ``channel`` object, an inline
    serialized channel (``CHANNEL_KEYS``), or a ``name`` with its parameter.
    ChannelError for a key that neither this channel nor ``other_keys`` (the
    keys the caller reads from the same entry) names."""
    serialized = read_field(entry, "channel", dict, None)
    if serialized is not None:
        ch, keys = channel_from_dict(serialized), {"channel"}
    elif "choi_re" in entry:
        ch = channel_from_dict({k: v for k, v in entry.items() if k in CHANNEL_KEYS})
        keys = CHANNEL_KEYS
    else:
        ch = channel_by_name(read_field(entry, "name", str),
                             **{k: v for k, v in entry.items() if k in CHANNEL_PARAMS})
        keys = {"name", *CHANNEL_PARAMS}
    refuse_unknown_keys(entry, keys | other_keys, "channel entry")
    return ch


def noise_model_from_config(config: dict) -> NoiseModel:
    """Build a noise model from {"kind": "gate"|"block", "channels": [...]}.

    Listed channels compose in order (first listed acts first) into the
    single per-wire channel of the model. ChannelError for any other key.
    """
    kind = read_field(config, "kind", str, None)
    specs = read_field(config, "channels", list, [])
    refuse_unknown_keys(config, {"kind", "channels"}, "noise model")
    if kind not in ("gate", "block"):
        raise ChannelError(f'noise model "kind" must be "gate" or "block", got {kind!r}')
    if not specs:
        raise ChannelError("noise model config lists no channels")
    combined = compose_all([channel_by_name(read_field(spec, "name", str),
                                            **{k: v for k, v in spec.items() if k != "name"})
                            for spec in specs])
    return GateModel(combined) if kind == "gate" else BlockModel(combined)


def apply_noise_model(circuit, nm: NoiseModel):
    """Decorate a circuit with hardware noise; the input is left untouched.

    Gate model: after every gate, conditional gate or (non-noise) channel
    insertion, the per-wire channel goes on every wire it touches, in
    ascending wire order, under the element's condition; projective
    measurements are preceded by the channel on the measured wire. Block
    model: the trailing channel is appended on every data wire after the
    full circuit.

    Inserted operations are flagged ``is_noise`` and are never decorated
    again on a second pass.
    """
    from .circuits import ChannelOp, ConditionalGate, Gate, Measure

    out = circuit.copy()
    dims = out.wire_dims()

    def noise_op(wire: int, channel: Channel, condition=None) -> ChannelOp:
        if channel.dim_in != dims[wire]:
            raise ChannelError(
                f"noise channel dim {channel.dim_in} does not fit wire {wire} (dim {dims[wire]})"
            )
        return ChannelOp(channel=channel, wires=(wire,), is_noise=True, condition=condition)

    if isinstance(nm, GateModel):
        new_elements = []
        for el in out.elements:
            if isinstance(el, Measure):
                new_elements.append(noise_op(el.wire, nm.per_wire))
            new_elements.append(el)
            if isinstance(el, Gate):
                condition = None
            elif isinstance(el, ConditionalGate):
                condition = (el.register, el.value)
            elif isinstance(el, ChannelOp) and not el.is_noise:
                condition = el.condition
            else:
                continue
            new_elements += [noise_op(w, nm.per_wire, condition) for w in sorted(el.wires)]
        out.elements = new_elements
        return out

    for w in out.data():
        out.elements.append(noise_op(w, nm.trailing))
    return out


def is_unital(ch: Channel) -> bool:
    """Whether the channel fixes the maximally mixed state within 1e-12."""
    if ch.dim_in != ch.dim_out:
        return False
    mixed = np.eye(ch.dim_in, dtype=np.complex128) / ch.dim_in
    return bool(np.max(np.abs(ch.apply(mixed) - mixed)) <= 1e-12)


def bell_basis(n_qubits: int = 1) -> np.ndarray:
    """Columns (P_i (x) 1)|Phi>: the Bell-type basis diagonalizing Pauli channels."""
    d = 2**n_qubits
    phi = max_entangled_ket(d)
    cols = []
    for p in pauli_operators(n_qubits):
        cols.append(np.kron(p, np.eye(d)) @ phi)
    return np.column_stack(cols)


def bell_diagonal_weights(ch: Channel, atol: float = 1e-9):
    """Pauli weights of a Pauli-diagonal channel, or None if off-diagonals remain.

    Transforms the Choi state into the Bell-type basis; returns the diagonal
    when all off-diagonal magnitudes fall below ``atol``.
    """
    if ch.dim_in != ch.dim_out:
        return None
    n = int(round(np.log2(ch.dim_in)))
    if 2**n != ch.dim_in:
        return None
    w = bell_basis(n)
    m = w.conj().T @ ch.choi @ w
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) > atol:
        return None
    return np.clip(np.diag(m).real, 0.0, None)


def compose_pauli_specs(first: PauliDiagonalSpec, second: PauliDiagonalSpec) -> PauliDiagonalSpec:
    """Distribution of the composition of two Pauli-diagonal channels.

    Pauli labels compose by symplectic XOR, so the composite distribution is
    the XOR-convolution of the two.
    """
    if first.n_qubits != second.n_qubits:
        raise ChannelError("Pauli specs act on different qubit counts")
    table = pauli_product_table(first.n_qubits)
    weights = np.outer(first.as_array(), second.as_array())
    return PauliDiagonalSpec(tuple(np.bincount(table.ravel(), weights.ravel())))
