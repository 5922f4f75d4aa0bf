"""Quantum channels in four interchangeable representations.

The canonical stored form is the Choi state with trace normalization 1,
ordered (output factor, input factor):

    choi = (E (x) id)(|Phi><Phi|),   |Phi> = sum_i |i,i> / sqrt(d_in)

Kraus sets and Liouville superoperators are derived views; Stinespring
dilations are built from a Kraus set by
:func:`channel_forge.dilation.stinespring_dilate`. Vectorization is
row-major, so the superoperator of a Kraus set is ``sum_i K_i (x) conj(K_i)``
and the Choi/superoperator reshuffle is the middle-index swap of
:func:`channel_forge.linalg.reshuffle` (an involution for square channels)
together with an explicit factor ``d_in``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    PSD_EIGENVALUE_FLOOR,
    RANK_CUTOFF,
    ChannelError,
    as_complex,
    dagger,
    decode_complex,
    decode_real,
    encode_complex,
    hermitian_eigensystem,
    is_hermitian,
    kron,
    matrix_rank_by_cutoff,
    min_eigenvalue,
    partial_trace,
    read_field,
    refuse_unknown_keys,
    reshuffle,
    uhlmann_fidelity,
)

TRACE_ATOL = 1e-10

MAX_DIMENSION = 256


def _check_dims(dim_in: int, dim_out: int) -> None:
    if dim_in < 1 or dim_out < 1:
        raise ChannelError(f"dimensions must be positive, got ({dim_in}, {dim_out})")
    if dim_in > MAX_DIMENSION or dim_out > MAX_DIMENSION:
        raise ChannelError(
            f"dimension {max(dim_in, dim_out)} exceeds the dense-matrix cap {MAX_DIMENSION}"
        )


@dataclass
class Channel:
    """A completely positive trace-preserving map, stored as a Choi state.

    Attributes:
        dim_in: input Hilbert dimension d_A.
        dim_out: output Hilbert dimension d_B.
        choi: (d_out*d_in) x (d_out*d_in) Choi state, trace 1.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    _kraus_cache: list | None = field(default=None, repr=False, compare=False)
    _superop_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_choi(cls, choi, dim_in: int, dim_out: int, validate: bool = True) -> "Channel":
        """Build from a trace-1 Choi state; validates CPTP unless told not to."""
        _check_dims(dim_in, dim_out)
        choi = as_complex(choi)
        expected = dim_in * dim_out
        if choi.shape != (expected, expected):
            raise ChannelError(f"choi shape {choi.shape} does not match dims ({dim_out}*{dim_in})^2")
        if not np.all(np.isfinite(choi)):
            raise ChannelError("choi matrix has non-finite entries")
        ch = cls(dim_in=dim_in, dim_out=dim_out, choi=choi)
        if validate:
            report = validate_cptp(ch)
            if not report.passed:
                raise ChannelError(f"choi matrix is not CPTP: {report}")
        return ch

    @classmethod
    def from_kraus(cls, operators: Iterable[np.ndarray]) -> "Channel":
        """Build from Kraus operators {K_i}; checks sum K^dag K = 1."""
        ops = check_kraus(operators)
        dim_out, dim_in = ops[0].shape
        choi = np.zeros((dim_out * dim_in,) * 2, dtype=np.complex128)
        for k in ops:
            v = k.reshape(-1)
            choi += np.outer(v, v.conj())
        choi /= dim_in
        ch = cls(dim_in=dim_in, dim_out=dim_out, choi=choi)
        ch._kraus_cache = ops
        return ch

    @classmethod
    def from_unitary(cls, u) -> "Channel":
        """Conjugation channel rho -> U rho U^dag."""
        return cls.from_kraus([check_unitary(u)])

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        """Identity channel on dimension dim."""
        return cls.from_kraus([np.eye(dim, dtype=np.complex128)])

    # -- derived views -----------------------------------------------------

    @property
    def kraus_rank(self) -> int:
        """Numerical rank of the Choi state (cutoff 1e-12)."""
        return matrix_rank_by_cutoff(self.choi)

    def kraus(self) -> list[np.ndarray]:
        """Minimal Kraus set from the Choi eigendecomposition (cached).

        Eigenvalues p_i of the Choi state with p_i > cutoff give operators
        K_i = sqrt(d_in * p_i) * unvec(v_i), which satisfy the completeness
        relation and reproduce the stored Choi state.
        """
        if self._kraus_cache is None:
            vals, vecs = hermitian_eigensystem(self.choi)
            ops = []
            for p, v in zip(vals, vecs.T):
                if p > RANK_CUTOFF:
                    ops.append(np.sqrt(self.dim_in * p) * v.reshape(self.dim_out, self.dim_in))
            if not ops:
                raise ChannelError("choi matrix has no positive eigenvalues")
            self._kraus_cache = ops
        return list(self._kraus_cache)

    def superop(self) -> np.ndarray:
        """Liouville superoperator acting on row-major vectorized states (cached)."""
        if self._superop_cache is None:
            # choi[(a,b),(c,d)] with a, c output and b, d input -> S[(a,c),(b,d)]
            do, di = self.dim_out, self.dim_in
            t = self.choi.reshape(do, di, do, di).transpose(0, 2, 1, 3)
            self._superop_cache = t.reshape(do * do, di * di) * di
        return self._superop_cache

    # -- actions -----------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix: sum_i K_i rho K_i^dag."""
        rho = as_complex(rho)
        if rho.shape != (self.dim_in, self.dim_in):
            raise ChannelError(f"state shape {rho.shape} does not match dim_in {self.dim_in}")
        out = np.zeros((self.dim_out, self.dim_out), dtype=np.complex128)
        for k in self.kraus():
            out += k @ rho @ dagger(k)
        return out


@dataclass
class CPTPReport:
    """Result of a CPTP validation pass."""

    min_choi_eigenvalue: float
    trace_preservation_residual: float
    choi_trace_residual: float
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: min eig {self.min_choi_eigenvalue:.3e}, "
            f"TP residual {self.trace_preservation_residual:.3e}, "
            f"trace residual {self.choi_trace_residual:.3e}"
        )


def kraus_to_superop(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Liouville superoperator sum_i K_i (x) conj(K_i) (row-major vectorization);
    operators stacked ``(B, d_out, d_in)`` give the stack of B superoperators."""
    ops = [as_complex(k) for k in operators]
    dim_out, dim_in = ops[0].shape[-2:]
    s = np.zeros(ops[0].shape[:-2] + (dim_out * dim_out, dim_in * dim_in), dtype=np.complex128)
    for k in ops:
        s += kron(k, k.conj())
    return s


def check_kraus(operators: Iterable[np.ndarray]) -> list[np.ndarray]:
    """The operators as complex matrices; ChannelError unless they are a
    non-empty set of one shape with ``sum K^dag K = 1`` within ``TRACE_ATOL``."""
    ops = [as_complex(k) for k in operators]
    if not ops:
        raise ChannelError("empty Kraus set")
    dim_out, dim_in = ops[0].shape
    _check_dims(dim_in, dim_out)
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise ChannelError(f"inconsistent Kraus shapes: {k.shape} vs {(dim_out, dim_in)}")
    dev = float(np.max(np.abs(sum(dagger(k) @ k for k in ops) - np.eye(dim_in))))
    if not dev <= TRACE_ATOL:  # NaN fails too
        raise ChannelError(f"Kraus completeness violated: ||sum K^dag K - 1||_max = {dev:.3e}")
    return ops


def check_unitary(u) -> np.ndarray:
    """``u`` as a complex matrix; ChannelError unless it is square and unitary within 1e-10."""
    u = as_complex(u)
    square = u.ndim == 2 and u.size and u.shape[0] == u.shape[1]
    if not (square and np.max(np.abs(dagger(u) @ u - np.eye(len(u)))) <= 1e-10):
        raise ChannelError(f"matrix of shape {u.shape} is not a square unitary within 1e-10")
    return u


def check_probabilities(probs, what: str) -> np.ndarray:
    """``probs`` as a float array; ChannelError unless every entry is finite and
    >= -1e-12 and they sum to 1 within 1e-12."""
    probs = decode_real(probs, f"{what} probabilities")
    if np.any(probs < -1e-12):
        raise ChannelError(f"negative {what} probability: {probs.min():.3e}")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ChannelError(f"{what} probabilities sum to {probs.sum()!r}, expected 1")
    return probs


def compose(second: Channel, first: Channel) -> Channel:
    """Composite channel second(first(rho)).

    Uses the superoperator product; the Choi of the composite is the
    reshuffle of that product divided by d_in.
    """
    if first.dim_out != second.dim_in:
        raise ChannelError(
            f"cannot compose: first.dim_out {first.dim_out} != second.dim_in {second.dim_in}"
        )
    s = second.superop() @ first.superop()
    choi = reshuffle(s, second.dim_out, first.dim_in) / first.dim_in
    return Channel(dim_in=first.dim_in, dim_out=second.dim_out, choi=choi)


def compose_all(channels: Sequence[Channel]) -> Channel:
    """Compose a sequence applied left-to-right: channels[0] first."""
    if not channels:
        raise ChannelError("cannot compose an empty sequence")
    out = channels[0]
    for ch in channels[1:]:
        out = compose(ch, out)
    return out


def mix(channels: Sequence[Channel], probs: Sequence[float]) -> Channel:
    """Convex mixture sum_k p_k E_k of same-shaped channels."""
    if len(channels) != len(probs):
        raise ChannelError("channels and probs length mismatch")
    if not channels:
        raise ChannelError("cannot mix an empty list")
    probs = check_probabilities(probs, "mixture")
    dim_in, dim_out = channels[0].dim_in, channels[0].dim_out
    choi = np.zeros_like(channels[0].choi)
    for p, ch in zip(probs, channels):
        if (ch.dim_in, ch.dim_out) != (dim_in, dim_out):
            raise ChannelError("all mixed channels must share dimensions")
        choi += p * ch.choi
    return Channel(dim_in=dim_in, dim_out=dim_out, choi=choi)


def choi_fidelity(a: Channel | Sequence[Channel], b: Channel):
    """Uhlmann fidelity of the normalized Choi states of two channels.

    Symmetric, in [0, 1], and 1 exactly when the channels coincide. Raises
    when either Choi state fails PSD beyond the roundoff floor. A sequence of
    channels as ``a`` is scored against ``b`` in one stacked Uhlmann call,
    giving an array whose entries equal the single-channel floats bit for bit.
    """
    many = not isinstance(a, Channel)
    members = list(a) if many else [a]
    if any((m.dim_in, m.dim_out) != (b.dim_in, b.dim_out) for m in members):
        raise ChannelError("choi_fidelity requires channels of equal dimensions")
    try:
        return uhlmann_fidelity(np.stack([m.choi for m in members]) if many else a.choi, b.choi)
    except ValueError as exc:
        raise ChannelError(f"invalid channel in fidelity: {exc}") from exc


def validate_cptp(ch: Channel) -> CPTPReport:
    """Check complete positivity and trace preservation of a channel.

    Trace preservation in the trace-1 Choi convention means the partial
    trace of the Choi state over the output factor equals 1/d_in.
    """
    min_eig = min_eigenvalue(ch.choi)
    reduced = partial_trace(ch.choi, [ch.dim_out, ch.dim_in], keep=[1])
    tp_residual = float(np.max(np.abs(reduced - np.eye(ch.dim_in) / ch.dim_in)))
    trace_residual = abs(float(np.trace(ch.choi).real) - 1.0)
    hermitian_ok = is_hermitian(ch.choi, atol=1e-10)
    passed = (
        hermitian_ok
        and min_eig >= PSD_EIGENVALUE_FLOOR
        and tp_residual <= TRACE_ATOL
        and trace_residual <= TRACE_ATOL
    )
    return CPTPReport(
        min_choi_eigenvalue=min_eig,
        trace_preservation_residual=tp_residual,
        choi_trace_residual=trace_residual,
        passed=passed,
    )


def random_channel(dim: int, kraus_rank: int, rng: np.random.Generator) -> Channel:
    """Random CPTP channel of the given Kraus rank via a random isometry.

    A Gaussian (rank*dim x dim) matrix is orthonormalized by QR; its dim x dim
    blocks form a Kraus set with sum K^dag K = 1 exactly.
    """
    if not 1 <= kraus_rank <= dim * dim:
        raise ChannelError(f"kraus_rank must lie in [1, {dim * dim}]")
    g = rng.standard_normal((kraus_rank * dim, dim)) + 1j * rng.standard_normal((kraus_rank * dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r).real)  # fix QR sign gauge for reproducibility
    ops = [q[i * dim : (i + 1) * dim, :] for i in range(kraus_rank)]
    return Channel.from_kraus(ops)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a normalized Wishart draw."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def validate_density(rho: np.ndarray) -> None:
    """Raise unless rho is Hermitian, unit trace, and PSD within tolerances."""
    rho = as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise ChannelError(f"density matrix of shape {rho.shape} is not a non-empty square matrix")
    if not is_hermitian(rho):
        raise ChannelError("density matrix is not Hermitian within 1e-12")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ChannelError(f"density matrix trace {tr!r} deviates from 1")
    lo = min_eigenvalue(rho)
    if lo < PSD_EIGENVALUE_FLOOR:
        raise ChannelError(f"density matrix not PSD: min eigenvalue {lo:.3e}")


# -- serialization ----------------------------------------------------------


def channel_to_dict(ch: Channel) -> dict:
    """JSON-friendly channel representation (row-major real/imag parts)."""
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out, **encode_complex(ch.choi, "choi"),
            "normalization": "trace1"}


CHANNEL_KEYS = frozenset({"dim_in", "dim_out", "choi_re", "choi_im", "normalization"})


def channel_from_dict(data: dict, validate: bool = True) -> Channel:
    """Inverse of :func:`channel_to_dict`; ChannelError for a key outside ``CHANNEL_KEYS``."""
    norm = read_field(data, "normalization", str, "trace1")
    refuse_unknown_keys(data, CHANNEL_KEYS, "channel")
    if norm != "trace1":
        raise ChannelError(f"unsupported Choi normalization {norm!r}")
    return Channel.from_choi(decode_complex(data, "choi"), read_field(data, "dim_in", int),
                             read_field(data, "dim_out", int), validate=validate)


def channel_to_json(ch: Channel) -> str:
    return json.dumps(channel_to_dict(ch))


def channel_from_json(text: str) -> Channel:
    return channel_from_dict(json.loads(text))
