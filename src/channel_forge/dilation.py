"""Executable routines realizing arbitrary channels, each one a circuit.

Two constructions are provided. The ancilla-assisted route embeds the Kraus
operators as the first block-column of a unitary on ancilla (x) system and
traces the ancilla afterwards. The extended-qudit route packs the channel
branches into orthogonal level ranges of one larger qudit: a unitary built
from the SVD factors of the Kraus operators, a readout of the level range
(its index is added coherently into an ancilla, which is measured), and
per-outcome correction unitaries, after which the outcome is erased by exact
mixing. POVMs ride on the same machinery with the outcome kept instead of
erased, and a measure-then-correct channel is an extended-qudit routine with
no extra levels. Every routine runs as its ``circuit()`` on the one engine,
so a hardware noise model can decorate it like any other circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, ChannelError, check_kraus, check_unitary
from .circuits import Circuit, _run, shift_operator, simulate
from .linalg import (
    RANK_CUTOFF,
    as_complex,
    complete_orthonormal_columns,
    dagger,
    encode_complex,
    hermitian_eigensystem,
    hermitian_sqrt,
)
from .noise import bell_diagonal_weights, pauli_operators


@dataclass(frozen=True)
class StinespringDilation:
    """Unitary on ancilla (x) system whose partial trace realizes a channel.

    The ancilla starts in |0>; the block <i,k| U |0,l> equals <k| K_i |l>,
    so the first d columns stack the Kraus operators.
    """

    unitary: np.ndarray
    ancilla_dim: int
    system_dim: int

    def circuit(self) -> Circuit:
        """Wires (ancilla, system): the gate ``unitary``, then the ancilla traced out."""
        c = Circuit(wires=[("ancilla", self.ancilla_dim), ("system", self.system_dim)],
                    data_wires=(1,))
        return c.gate(self.unitary, [0, 1]).trace_out(0)

    def execute(self, rho: np.ndarray) -> np.ndarray:
        """tr_ancilla[ U (|0><0| (x) rho) U^dag ], simulated as a circuit."""
        return simulate(self.circuit(), rho)

    def channel(self) -> Channel:
        """Effective channel realized by the dilation."""
        d = self.system_dim
        kraus = [self.unitary[i * d : (i + 1) * d, :d] for i in range(self.ancilla_dim)]
        return Channel.from_kraus(kraus)

    def overhead(self) -> float:
        """Ancilla cost in qubits: log2 of the ancilla dimension."""
        return float(np.log2(self.ancilla_dim))


def stinespring_dilate(kraus_ops: list[np.ndarray]) -> StinespringDilation:
    """Ancilla-assisted dilation of a Kraus set {K_i}.

    The supplied operators (r of them, including any redundant ones) fix the
    first d columns of an (r*d x r*d) unitary; the rest are completed by
    pivoted Gram-Schmidt, so the construction is deterministic.
    """
    ops = check_kraus(kraus_ops)
    d_out, d = ops[0].shape
    if d_out != d:
        raise ChannelError("stinespring_dilate supports square channels only")
    r = len(ops)
    first_cols = np.vstack(ops)  # (r*d, d); row (i*d + k), col l holds <k|K_i|l>
    unitary = complete_orthonormal_columns(first_cols, r * d)
    return StinespringDilation(unitary=unitary, ancilla_dim=r, system_dim=d)


@dataclass(frozen=True)
class QuditRoutine:
    """Channel realization inside one extended qudit.

    Data lives in the first ``data_dim`` levels of a ``total_dim``-level
    system. The routine applies ``unitary``, reads out which of the
    consecutive level ranges [boundaries[i], boundaries[i+1]) holds the
    state, applies the branch correction ``corrections[i]``, and finally
    erases the outcome.
    """

    total_dim: int
    data_dim: int
    unitary: np.ndarray
    boundaries: tuple[int, ...]  # cumulative block edges, boundaries[0] == 0
    corrections: tuple[np.ndarray, ...]
    branch_ranks: tuple[int, ...]

    @property
    def n_branches(self) -> int:
        return len(self.branch_ranks)

    def circuit(self) -> Circuit:
        """Wires (qudit, range), the range an ancilla of ``n_branches`` levels.

        ``unitary`` acts on the qudit; the permutation |j, a> -> |j, a + r(j)
        mod n>, r(j) the range holding level j, copies the range index into
        the ancilla, which is measured into register ``branch`` and traced
        out (each branch keeps a qudit state, not a (qudit, range) one); each
        outcome's correction follows. Only the range index is read, so
        coherence inside a range is kept.
        """
        dim, n = self.total_dim, self.n_branches
        c = Circuit(wires=[("qudit", dim), ("range", n)], data_wires=(0,))
        level_range = np.repeat(np.arange(n), np.diff(self.boundaries))
        images = np.arange(dim)[:, None] * n + (np.arange(n) + level_range[:, None]) % n
        readout = np.zeros((dim * n, dim * n), dtype=np.complex128)
        readout[images.ravel(), np.arange(dim * n)] = 1.0
        c.gate(self.unitary, [0]).gate(readout, [0, 1])
        c.measure(1, "branch").trace_out(1)
        for i, correction in enumerate(self.corrections):
            c.conditional_gate(correction, [0], "branch", i)
        return c

    def embed(self, rho: np.ndarray) -> np.ndarray:
        """rho (+) 0 on the full qudit space."""
        rho = as_complex(rho)
        if rho.shape != (self.data_dim, self.data_dim):
            raise ChannelError(f"state shape {rho.shape} does not match data dim {self.data_dim}")
        big = np.zeros((self.total_dim, self.total_dim), dtype=np.complex128)
        big[: self.data_dim, : self.data_dim] = rho
        return big

    def _engine(self, rho: np.ndarray):
        """The engine after the circuit on rho: one branch per outcome above
        the engine's probability floor, its state normalized."""
        return _run([self.circuit()], self.embed(rho))[0]

    def branch_probabilities(self, rho: np.ndarray) -> np.ndarray:
        return np.array([p for _, _, p in self._engine(rho).measurement_log])

    def execute(self, rho: np.ndarray) -> np.ndarray:
        """Run the routine with outcome erasure; returns the data-subspace state."""
        total = simulate(self.circuit(), self.embed(rho))
        if self.total_dim > self.data_dim:
            residual = float(np.max(np.abs(total[self.data_dim:, :])))
            if residual > 1e-9:
                raise ChannelError(f"routine leaked {residual:.3e} outside the data subspace")
        return total[: self.data_dim, : self.data_dim]

    def channel(self) -> Channel:
        """Effective channel on the data subspace."""
        d = self.data_dim
        kraus = []
        for i in range(self.n_branches):
            lo, hi = self.boundaries[i], self.boundaries[i + 1]
            # branch flow (correction . projector . unitary) restricted to the
            # data subspace on both sides
            proj_rows = self.unitary[lo:hi, :d]
            corr_cols = self.corrections[i][:d, lo:hi]
            kraus.append(corr_cols @ proj_rows)
        return Channel.from_kraus(kraus)

    def overhead(self) -> float:
        """Level cost in qubits: log2(D) - log2(d)."""
        return float(np.log2(self.total_dim) - np.log2(self.data_dim))


def extended_qudit_routine(kraus_ops: list[np.ndarray]) -> QuditRoutine:
    """Extended-qudit realization of a Kraus set {K_i}.

    Each K_i = W_i S_i V_i^dag (singular values descending) contributes its
    rank-k_i reduced factor, the nonzero rows of S_i V_i^dag, as a block of
    the first d columns of the routine unitary. Branch i is corrected by
    (W_i (+) 1) X_D^{c_{i-1}}, with X_D the cyclic lowering shift. Zero Kraus
    operators contribute nothing and are skipped.
    """
    ops = check_kraus(kraus_ops)
    d_out, d = ops[0].shape
    if d_out != d:
        raise ChannelError("extended_qudit_routine supports square channels only")

    reduced = []  # (W_i, Ktilde_i, kappa_i)
    for k in ops:
        w, s, vh = np.linalg.svd(k)
        kappa = int(np.sum(s > RANK_CUTOFF))
        if kappa == 0:
            continue
        ktilde = (s[:kappa, None] * vh[:kappa, :])
        reduced.append((w, ktilde, kappa))
    if not reduced:
        raise ChannelError("all Kraus operators are zero")

    ranks = [kappa for _, _, kappa in reduced]
    total = int(sum(ranks))
    first_cols = np.vstack([ktilde for _, ktilde, _ in reduced])  # (D, d)
    unitary = complete_orthonormal_columns(first_cols, total)

    boundaries = [0]
    for kappa in ranks:
        boundaries.append(boundaries[-1] + kappa)
    shift = shift_operator(total)
    corrections = []
    for (w, _, _), lo in zip(reduced, boundaries[:-1]):
        w_big = np.eye(total, dtype=np.complex128)
        w_big[:d, :d] = w
        corrections.append(w_big @ np.linalg.matrix_power(shift, lo))
    return QuditRoutine(
        total_dim=total,
        data_dim=d,
        unitary=unitary,
        boundaries=tuple(boundaries),
        corrections=tuple(corrections),
        branch_ranks=tuple(ranks),
    )


class NotMixedUnitary:
    """Marker returned when a channel is not recognized as mixed-unitary."""

    def __repr__(self) -> str:
        return "NotMixedUnitary"


NOT_MIXED_UNITARY = NotMixedUnitary()


def mixed_unitary_decompose(ch: Channel):
    """Pauli mixture (unitaries, probabilities) of a Pauli-diagonal channel.

    Diagonalizes the Choi state in the Bell-type basis; if off-diagonal
    weight above 1e-9 remains, the channel is not Pauli-diagonal and the
    :data:`NOT_MIXED_UNITARY` marker is returned (general mixed-unitary
    detection is out of scope).
    """
    if ch.dim_in != ch.dim_out:
        return NOT_MIXED_UNITARY
    weights = bell_diagonal_weights(ch, atol=1e-9)
    if weights is None:
        return NOT_MIXED_UNITARY
    n = int(round(np.log2(ch.dim_in)))
    ops = pauli_operators(n)
    unitaries, probs = [], []
    for w, op in zip(weights, ops):
        if w > RANK_CUTOFF:
            unitaries.append(op)
            probs.append(float(w))
    return unitaries, np.array(probs)


@dataclass(frozen=True)
class POVMSpec:
    """Generalized measurement {O_i >= 0} with sum O_i = 1."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.elements:
            raise ChannelError("POVM needs at least one element")
        d = self.elements[0].shape[0]
        acc = np.zeros((d, d), dtype=np.complex128)
        for o in self.elements:
            if o.shape != (d, d):
                raise ChannelError("POVM elements must share one square shape")
            if np.max(np.abs(o - dagger(o))) > 1e-10:
                raise ChannelError("POVM element is not Hermitian")
            lo = float(np.linalg.eigvalsh((o + dagger(o)) / 2)[0])
            if lo < -1e-10:
                raise ChannelError(f"POVM element not PSD: min eigenvalue {lo:.3e}")
            acc += o
        dev = float(np.max(np.abs(acc - np.eye(d))))
        if dev > 1e-10:
            raise ChannelError(f"POVM completeness violated: residual {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class POVMRoutine:
    """Qudit routine for a POVM; the measurement outcome is kept, not erased.

    ``branch_of_outcome[i]`` is the routine branch realizing POVM element i,
    or None when the element is zero (its probability is always 0).
    """

    povm: POVMSpec
    routine: QuditRoutine
    branch_of_outcome: tuple[int | None, ...]

    def outcome_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Born probabilities tr(O_i rho) as realized by the routine."""
        branch_probs = self.routine.branch_probabilities(rho)
        out = np.zeros(len(self.povm.elements))
        for i, b in enumerate(self.branch_of_outcome):
            if b is not None:
                out[i] = branch_probs[b]
        return out

    def post_measurement_state(self, rho: np.ndarray, outcome: int) -> np.ndarray:
        """Normalized data-subspace state after observing ``outcome``."""
        b = self.branch_of_outcome[outcome]
        if b is None:
            raise ChannelError(f"outcome {outcome} has zero POVM element")
        found = [br for br in self.routine._engine(rho).branches if br.records["branch"] == b]
        if not found:
            raise ChannelError(f"outcome {outcome} has zero probability on this state")
        d = self.routine.data_dim
        return found[0].rho[:d, :d]


def povm_to_routine(povm: POVMSpec) -> POVMRoutine:
    """Realize a POVM as the channel {sqrt(O_i)} on an extended qudit.

    Branch i of the routine occurs with probability tr(O_i rho) and leaves
    the data subspace in sqrt(O_i) rho sqrt(O_i) / p_i; the outcome is
    learned rather than erased.
    """
    roots = [hermitian_sqrt(o) for o in povm.elements]
    branch_of_outcome: list[int | None] = []
    kept = []
    for root in roots:
        if np.max(np.abs(root)) <= RANK_CUTOFF:
            branch_of_outcome.append(None)
        else:
            branch_of_outcome.append(len(kept))
            kept.append(root)
    routine = extended_qudit_routine(kept)
    return POVMRoutine(povm=povm, routine=routine, branch_of_outcome=tuple(branch_of_outcome))


def projective_channel_routine(projectors: list[np.ndarray],
                               corrections: list[np.ndarray]) -> QuditRoutine:
    """Ancilla-free routine for a caller-supplied {(P_i, U_i)} factorization.

    Checks that each P_i is an orthogonal projector (P^2 = P = P^dag), that
    they resolve the identity, and that each correction is unitary. With V
    the eigenvectors of the P_i side by side, the routine is a qudit routine
    with no extra levels: unitary V^dag, level ranges of the ranks of the P_i
    and corrections U_i V, so its Kraus operators are U_i P_i.
    """
    if len(projectors) != len(corrections):
        raise ChannelError("projectors and corrections must pair up")
    if not projectors:
        raise ChannelError("empty projective decomposition")
    projs = [as_complex(p) for p in projectors]
    corrs = [as_complex(u) for u in corrections]
    d = projs[0].shape[0]
    acc = np.zeros((d, d), dtype=np.complex128)
    for p in projs:
        if max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - dagger(p)))) > 1e-10:
            raise ChannelError("supplied operator is not an orthogonal projector "
                               "(P^2 != P or P != P^dag)")
        acc += p
    if np.max(np.abs(acc - np.eye(d))) > 1e-10:
        raise ChannelError("projectors do not resolve the identity")
    if any(check_unitary(u).shape != (d, d) for u in corrs):
        raise ChannelError("corrections must act on the projectors' space")
    vecs = [v[:, vals > 0.5] for vals, v in map(hermitian_eigensystem, projs)]
    ranks = [v.shape[1] for v in vecs]
    v = np.hstack(vecs)
    return QuditRoutine(total_dim=d, data_dim=d, unitary=dagger(v),
                        boundaries=tuple(np.cumsum([0, *ranks]).tolist()),
                        corrections=tuple(u @ v for u in corrs), branch_ranks=tuple(ranks))


def routine_to_dict(routine: QuditRoutine) -> dict:
    """JSON-friendly export: unitary, projector ranges, corrections."""
    return {
        "total_dim": routine.total_dim,
        "data_dim": routine.data_dim,
        **encode_complex(routine.unitary, "unitary"),
        "projector_ranges": [
            [routine.boundaries[i], routine.boundaries[i + 1]]
            for i in range(routine.n_branches)
        ],
        **encode_complex(routine.corrections, "corrections"),
        "branch_ranks": list(routine.branch_ranks),
        "overhead_qubits": routine.overhead(),
    }
