"""Exact density-matrix engine with measurement branching.

The engine holds an ensemble of branches, each a (probability, state,
classical-record) triple over the currently live wires. Measurements split
branches exactly; erasing an outcome is just mixing branches back together.
Wires are addressed through stable integer handles that survive trace-outs.
Branch states may carry a leading batch axis, ``(B, D, D)``: B independent
runs of one circuit skeleton, evolved together by every operation except a
measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, ChannelError, kraus_to_superop
from .linalg import as_complex, kron, partial_trace

BRANCH_PROB_FLOOR = 1e-15

MAX_TOTAL_DIMENSION = 4096  # 12 qubits

MAX_STATE_BYTES = 2 * 1024**3  # all states together: batch x branches x D^2 x 16 bytes

SUPEROP_MAX_DIM = 8  # single operators on more local dimensions skip their superoperator

PANEL_BYTES = 256 * 1024  # a gathered state larger than this is contracted panel by panel

PANEL_ALIGN = 64  # a panel's column count stays a multiple of this


@dataclass
class Branch:
    """One branch. ``state`` is kept as the last operation left it: the tensor
    view ``batch + dims + dims`` of a contraction, in that contraction's axis
    order, or a matrix; ``rho`` reads it as the ``shape`` matrix, copying it
    into matrix order on the first read after an operation."""

    prob: float
    state: np.ndarray
    shape: tuple[int, ...]  # batch + (D, D)
    records: dict = field(default_factory=dict)

    @property
    def rho(self) -> np.ndarray:
        if self.state.shape != self.shape:
            self.state = self.state.reshape(self.shape)
        return self.state

    @rho.setter
    def rho(self, value: np.ndarray) -> None:
        self.state, self.shape = value, value.shape


def _check_memory(states: int, dim: int) -> None:
    """Raise before the engine would hold more than MAX_STATE_BYTES of states;
    ``states`` counts every branch of every batch member."""
    if states * dim * dim * 16 > MAX_STATE_BYTES:
        raise ChannelError(f"{states} state(s) of dimension {dim} exceed the engine "
                           f"budget of {MAX_STATE_BYTES} bytes")


def _contract(t: np.ndarray, m: np.ndarray, axes: list[int], out_dims: list[int],
              batched: bool = False, gather: bool = False) -> np.ndarray:
    """Contract the row-major ``d_out x d_in`` matrix ``m`` into the given axes of
    the tensor ``t``; the output axes, of ``out_dims``, take their place. If
    ``batched``, axis 0 of ``t`` is a batch axis: a 2-D ``m`` acts on every
    member, a stack ``(B, d_out, d_in)`` member by member.

    The contracted axes are transposed behind the batch axes and the rest
    flattened, so the contraction is one product of ``m`` with that
    ``d_in``-row matrix; its rows are split into ``out_dims`` and one
    transpose by the inverse permutation puts them back. Unbatched, the
    product is one ``np.dot``: the operands and BLAS call of numpy's
    tensor-dot contraction followed by an axis move, so the same bits. A
    batch takes one ``np.matmul``, which makes the same BLAS call per member
    on C-contiguous operands, except for ``d_in == 1``: there matmul's own
    loop rounds differently, so each member takes its own ``np.dot``.

    With ``gather``, the unbatched ``d_in``-row matrix is always a C-ordered
    copy, as it is from a tensor in matrix order: a tensor left in another
    contraction's axis order can otherwise reshape into a column-major view,
    which ``np.dot`` hands BLAS transposed (for a one-row ``m``, another gemv
    kernel with other bits). A copy of more than PANEL_BYTES is made and
    contracted in column panels, one per index of the leading rest axes (a
    panel the tensor already holds in C order is used in place), so each
    panel and BLAS's packed copy of it stay in cache: the output is laid out
    as ``[leading rest axes, out axes, other rest axes]``. A panel keeps a
    multiple of PANEL_ALIGN columns, so BLAS tiles every panel as it tiles the
    whole matrix and each column gets the same bits.
    """
    rest = [a for a in range(batched, t.ndim) if a not in axes]
    perm = [0, *axes, *rest] if batched else list(axes) + rest
    rest_dims = [t.shape[a] for a in rest]
    if batched:
        cols = np.ascontiguousarray(t.transpose(perm).reshape(len(t), m.shape[-1], -1))
        if m.shape[-1] > 1:
            out = np.matmul(m, cols)
        else:
            ms = np.broadcast_to(m, (len(t), *m.shape[-2:]))
            out = np.array([np.dot(a, b) for a, b in zip(ms, cols)])
        out = out.reshape([len(t), *out_dims, *rest_dims])
    else:
        d_in, width, lead = m.shape[1], math.prod(rest_dims), 0
        while (gather and d_in * width * t.itemsize > PANEL_BYTES and lead < len(rest)
               and width // rest_dims[lead] % PANEL_ALIGN == 0):
            width //= rest_dims[lead]
            lead += 1
        if lead:
            perm = rest[:lead] + list(axes) + rest[lead:]
            src = t.transpose(perm)
            panel = np.empty(src.shape[lead:], t.dtype)
            out = np.empty((math.prod(rest_dims[:lead]), m.shape[0], width), np.result_type(m, t))
            for i, index in enumerate(np.ndindex(*rest_dims[:lead])):
                block = src[index]
                if not block.flags.c_contiguous:
                    np.copyto(panel, block)
                    block = panel
                np.dot(m, block.reshape(d_in, width), out=out[i])
            out = out.reshape(rest_dims[:lead] + list(out_dims) + rest_dims[lead:])
        else:
            cols = t.transpose(perm).reshape(d_in, width)
            if gather:
                cols = np.ascontiguousarray(cols)
            out = np.dot(m, cols).reshape(list(out_dims) + rest_dims)
    return out.transpose(sorted(range(len(perm)), key=perm.__getitem__))


def _operator_form(k: np.ndarray) -> tuple[np.ndarray, bool]:
    """(matrix, single) for one operator K, or a stack of them: its superoperator
    K (x) conj(K) up to SUPEROP_MAX_DIM local dims, where one contraction beats
    two; K itself above, where that d^4 array costs more memory and flops than
    K rho K^dagger."""
    k = as_complex(k)
    single = k.shape[-1] > SUPEROP_MAX_DIM
    return (k, True) if single else (kraus_to_superop([k]), False)


class StateEngine:
    """Branching density-matrix simulator over dynamically managed wires.

    Every operation goes through one kernel, ``_contract``; channels as their
    local row-major superoperator ``sum_i K_i (x) conj(K_i)``.
    """

    def __init__(self):
        self.dims: list[int] = []
        self.handles: list[int] = []
        self._next_handle = 0
        self.branches: list[Branch] = [Branch(1.0, np.ones((1, 1), dtype=np.complex128), (1, 1))]
        self.batch: tuple[int, ...] = ()  # leading axes of every state: () or (B,)
        self.measurement_log: list[tuple[str, int, float]] = []

    # -- wire management ---------------------------------------------------

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis_of(self, handle: int) -> int:
        try:
            return self.handles.index(handle)
        except ValueError:
            raise ChannelError(f"wire handle {handle} is not live") from None

    def _axes(self, wires: list[int]) -> list[int]:
        axes = [self.axis_of(h) for h in wires]
        if len(set(axes)) != len(axes):
            raise ChannelError(f"wires {list(wires)} repeat a wire")
        return axes

    def add_wires(self, dims: list[int], state: np.ndarray | None = None) -> list[int]:
        """Append wires (joint initial state defaults to |0...0>). A ``state``
        stacked ``(B, d, d)`` on an unbatched engine makes it a batch of B."""
        if not dims and state is None:  # nothing to add: skip the copy of every branch
            return []
        d_new = math.prod(dims)
        if self.total_dim * d_new > MAX_TOTAL_DIMENSION:
            raise ChannelError(
                f"total dimension {self.total_dim * d_new} exceeds engine cap {MAX_TOTAL_DIMENSION}"
            )
        if state is None:
            state = np.zeros((d_new, d_new), dtype=np.complex128)
            state[0, 0] = 1.0
        else:
            state = as_complex(state)
            lead = state.shape[:-2]
            if (state.shape[-2:] != (d_new, d_new) or len(lead) > 1
                    or lead and self.batch not in ((), lead)):
                raise ChannelError(f"initial state shape {state.shape} does not match dims {dims}")
        self.batch = self.batch or state.shape[:-2]
        _check_memory(len(self.branches) * math.prod(self.batch), self.total_dim * d_new)
        new_handles = []
        for d in dims:
            self.dims.append(int(d))
            self.handles.append(self._next_handle)
            new_handles.append(self._next_handle)
            self._next_handle += 1
        for b in self.branches:
            b.rho = kron(b.rho, state)
        return new_handles

    def trace_out(self, handle: int) -> None:
        ax = self.axis_of(handle)
        n, k = len(self.dims), len(self.batch)
        d = self.total_dim // self.dims[ax]
        for b in self.branches:
            t = b.rho.reshape(list(self.batch) + self.dims + self.dims)
            t = np.trace(t, axis1=k + ax, axis2=k + ax + n)
            b.rho = t.reshape(self.batch + (d, d))
        del self.dims[ax]
        del self.handles[ax]

    # -- operations ---------------------------------------------------------

    def _evolve(self, state: np.ndarray, op: np.ndarray, single: bool,
                axes: list[int], out_dims: list[int]) -> np.ndarray:
        """Image of a branch state, or of each member of a batch, as the tensor
        view its last contraction returns: a superoperator contracts into the
        wires' row and column axes at once, a single operator K into the rows
        and conj(K) into the columns."""
        n, k = len(self.dims), len(self.batch)
        t = state.reshape([*self.batch, *self.dims, *self.dims])
        rows = [k + a for a in axes] if k else axes
        cols = [k + n + a for a in axes]
        if single:
            t = _contract(t, op, rows, out_dims, k, gather=True)
            return _contract(t, op.conj(), cols, out_dims, k)
        return _contract(t, op, rows + cols, out_dims * 2, k, gather=True)

    def _apply(self, op: np.ndarray, single: bool, wires: list[int],
               out_dims: list[int] | None = None,
               condition: tuple[str, int] | None = None) -> None:
        """Apply a superoperator, or one operator if ``single``, to every branch
        (matching ``condition``, if given). A stack of them, one per batch
        member, applies member by member."""
        axes = self._axes(wires)
        in_dims = [self.dims[a] for a in axes]
        out_dims = in_dims if out_dims is None else list(out_dims)
        d_in, d_out = math.prod(in_dims), math.prod(out_dims)
        expected = (d_out, d_in) if single else (d_out**2, d_in**2)
        if op.shape[-2:] != expected or op.ndim > 2 and op.shape[:-2] != self.batch:
            raise ChannelError(f"operation of shape {op.shape} does not map wire dims "
                               f"{in_dims} to {out_dims} on a batch of {self.batch}")
        branches = self.branches
        if condition is not None:
            register, value = condition
            outcomes = {o for r, o, _ in self.measurement_log if r == register}
            if not outcomes:
                raise ChannelError(f"condition references unmeasured register {register!r}")
            if value not in outcomes:
                raise ChannelError(f"condition value {value} is not an outcome of register "
                                   f"{register!r}")
            branches = [b for b in branches if b.records.get(register) == value]
        new_dims = list(self.dims)
        for a, d in zip(axes, out_dims):
            new_dims[a] = d
        side = math.prod(new_dims)
        _check_memory(len(self.branches) * math.prod(self.batch), side)
        for b in branches:
            b.state = self._evolve(b.state, op, single, axes, out_dims)
            b.shape = self.batch + (side, side)
        self.dims = new_dims

    def apply_unitary(self, u: np.ndarray, wires: list[int]) -> None:
        self._apply(*_operator_form(u), wires)

    def apply_channel(self, ch: Channel, wires: list[int]) -> None:
        if ch.dim_out != ch.dim_in and len(wires) != 1:
            raise ChannelError("dimension-changing channels are limited to a single wire")
        self._apply(ch.superop(), False, wires, [ch.dim_out] if len(wires) == 1 else None)

    def measure(self, wire: int, register: str) -> None:
        """Computational-basis measurement; branches split per outcome, records updated.

        Outcomes run in the outer loop, so only one projector form is held at a
        time; the new branches are then listed branch-major. The memory check
        counts the old branches too: they are held until the end. A batched
        state is refused: each member would split differently.
        """
        if self.batch:
            raise ChannelError("cannot measure a batch: each member would split differently")
        ax = self.axis_of(wire)
        d = self.dims[ax]
        # the matrix diagonal (i, i) as indices of the dims + dims tensor axes
        diagonal = 2 * np.unravel_index(np.arange(self.total_dim), self.dims)
        total = np.zeros(d)
        split = [[] for _ in self.branches]
        created = 0
        for outcome in range(d):
            op, single = _operator_form(np.diag((np.arange(d) == outcome).astype(np.complex128)))
            for b, children in zip(self.branches, split):
                _check_memory(len(self.branches) + created + 1, self.total_dim)
                rho_o = self._evolve(b.state, op, single, [ax], [d])
                p = float(rho_o[diagonal].sum().real)  # np.trace's sum, in the same order
                total[outcome] += b.prob * p
                if b.prob * p > BRANCH_PROB_FLOOR:
                    records = dict(b.records)
                    records[register] = outcome
                    children.append(Branch(b.prob * p, rho_o / p, b.shape, records))
                    created += 1
        self.branches = [child for children in split for child in children]
        for outcome, p in enumerate(total):
            self.measurement_log.append((register, outcome, float(p)))

    def apply_conditional_unitary(self, u: np.ndarray, wires: list[int],
                                  register: str, value: int) -> None:
        self._apply(*_operator_form(u), wires, condition=(register, value))

    def apply_conditional_channel(self, ch: Channel, wires: list[int],
                                  register: str, value: int) -> None:
        self._apply(ch.superop(), False, wires, condition=(register, value))

    def reset(self, wire: int) -> None:
        """Reinitialize a wire to |0>: trace it out to dimension 1, then prepare |0><0|."""
        d = self.dims[self.axis_of(wire)]
        prepare = np.zeros((d * d, 1), dtype=np.complex128)
        prepare[0, 0] = 1.0
        self._apply(np.eye(d, dtype=np.complex128).reshape(1, d * d), False, [wire], [1])
        self._apply(prepare, False, [wire], [d])

    # -- readout -------------------------------------------------------------

    def mixed_state(self) -> np.ndarray:
        """Exact ensemble average over branches (outcome erasure)."""
        rho = np.zeros_like(self.branches[0].rho)
        for b in self.branches:
            rho += b.prob * b.rho
        return rho

    def branch_summary(self) -> list[tuple[dict, float]]:
        return [(dict(b.records), b.prob) for b in self.branches]

    def reduced_state(self, wires: list[int]) -> np.ndarray:
        """Mixed state reduced to the given wires, in the given order (one per
        batch member, stacked, on a batch)."""
        axes = self._axes(wires)
        keep = sorted(axes)
        kept_dims = [self.dims[a] for a in keep]
        t = partial_trace(self.mixed_state(), self.dims, keep=keep)
        t = t.reshape(list(self.batch) + kept_dims * 2)
        # reorder the kept factors, row and column axes alike, to the requested order
        k = len(self.batch)
        order = [k + keep.index(a) for a in axes]
        d = math.prod(kept_dims)
        t = t.transpose(list(range(k)) + order + [len(keep) + i for i in order])
        return t.reshape(self.batch + (d, d))
