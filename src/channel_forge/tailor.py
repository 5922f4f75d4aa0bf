"""Noise tailoring: reshape what the hardware gives into what the target needs.

Three strategies. Building-block optimization wraps a fixed noisy channel
with optimized correction channels applied before/after/both, mixed with
optimized probabilities (each correction itself decorated by hardware
noise). Tailored circuits adjust circuit parameters analytically or
numerically: Pauli-diagonal post-processing has a closed-form solution,
amplitude-damping repeats a discrete one, a rotation angle a 1-D search and
a full circuit template multi-start L-BFGS-B. The black-box route optimizes
any parameter-to-fidelity oracle with a gradient-free method and no
knowledge of the underlying noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar

from .channels import (
    Channel,
    ChannelError,
    channel_to_dict,
    choi_fidelity,
    compose,
    mix,
)
from .circuits import Measure, build_ad_circuit, extract_channel
from .linalg import (
    dagger,
    hermitian_sqrt,
    read_field,
    refuse_unknown_keys,
    reshuffle,
    uhlmann_fidelity,
    uhlmann_gradient,
)
from .noise import (
    BlockModel,
    NoiseModel,
    PauliDiagonalSpec,
    amplitude_damping,
    apply_noise_model,
    channel_from_entry,
    noise_model_from_config,
    pauli_operators,
    pauli_product_table,
)


@dataclass
class TailoringRecipe:
    """Outcome of a tailoring run.

    ``pre_channels``/``post_channels`` hold the ideal (undecorated)
    correction blocks; ``mixture`` is the joint probability table over
    (post choice, pre choice) with index 0 meaning "skip" on that side.
    ``circuit_params`` carries parameter-style recipes instead.
    """

    method: str
    achieved_fidelity: float
    pre_channels: list = field(default_factory=list)
    post_channels: list = field(default_factory=list)
    mixture: np.ndarray | None = None
    circuit_params: dict | None = None
    converged: bool = True
    evaluations: int = 0
    details: dict = field(default_factory=dict)


# -- CPTP parameterization ----------------------------------------------------


@dataclass(frozen=True)
class CPTPParameterization:
    """Channels encoded by a Stinespring unitary on system (x) ancilla; Method 1
    draws its random stage-two starts through :meth:`decode`.

    The unitary is exp(iH) for a Hermitian generator H parameterized by
    ``n_params`` reals: the diagonal first, then (re, im) pairs of the upper
    triangle in row-major order. The decoded channel's Kraus operators are
    the ancilla blocks of the unitary's first block column; CPTP holds by
    construction for every parameter vector.
    """

    dim: int
    ancilla_dim: int

    @property
    def n_params(self) -> int:
        return (self.dim * self.ancilla_dim) ** 2

    def decode(self, params: np.ndarray) -> Channel:
        """The channel of one parameter vector (``Channel.from_kraus`` checks it)."""
        n, d = self.dim * self.ancilla_dim, self.dim
        v = np.asarray(params, dtype=float)
        rows, cols = np.triu_indices(n, k=1)
        h = np.diag(v[:n]).astype(np.complex128)
        h[rows, cols] = v[n::2] + 1j * v[n + 1::2]
        h[cols, rows] = v[n::2] - 1j * v[n + 1::2]
        return Channel.from_kraus(expm(1j * h)[:, :d].reshape(self.ancilla_dim, d, d))


# -- multi-start search budgets ------------------------------------------------


# spread of the random starts around zero
_START_SCALE = 0.5


@dataclass
class OptimizerConfig:
    """Budget and seed of the multi-start searches: Method 1's random seesaw
    starts, or the full-circuit L-BFGS-B restarts, and the evaluation cap of each."""

    restarts: int = 8
    max_evals_per_restart: int = 2000
    seed: int = 0


# -- Method 1: building blocks --------------------------------------------------


@dataclass
class BuildingBlockConfig:
    """Configuration for Method-1 optimization."""

    placement: str = "interleaved"  # pre | post | interleaved
    mixture_size: int = 2
    ancilla_dim: int | None = None  # default d^2
    noisy_blocks: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


def _tensor_power(ch: Channel, n: int) -> Channel:
    out = ch
    for _ in range(n - 1):
        kraus = [np.kron(a, b) for a in out.kraus() for b in ch.kraus()]
        out = Channel.from_kraus(kraus)
    return out


def _block_decorator(hw: NoiseModel | None, dim: int) -> Channel | None:
    """Noise channel appended after a building block of the given dimension."""
    if hw is None:
        return None
    noise = hw.trailing if isinstance(hw, BlockModel) else hw.per_wire
    if noise.dim_in != dim:
        n_factors = int(round(np.log(dim) / np.log(noise.dim_in)))
        if noise.dim_in**n_factors != dim:
            raise ChannelError(
                f"hw noise dim {noise.dim_in} does not tile block dim {dim}"
            )
        noise = _tensor_power(noise, n_factors)
    return noise


def _block_superops(blocks: Sequence[Channel], decorator: Channel | None,
                    dim: int) -> np.ndarray:
    """Superoperators ``(len(blocks), dim**2, dim**2)`` of the blocks, each
    decorated by ``decorator`` when one is given."""
    sups = [(compose(decorator, b) if decorator is not None else b).superop() for b in blocks]
    return np.reshape(np.array(sups, dtype=np.complex128), (-1, dim * dim, dim * dim))


def _kraus_superops(kraus: np.ndarray, decorator: Channel | None) -> np.ndarray:
    """:func:`_block_superops` of the channels of a Kraus stack, bit for bit,
    without building a Channel per block."""
    blocks, n_kraus, d, _ = kraus.shape
    vecs = kraus.reshape(blocks, n_kraus, d * d)
    choi = np.zeros((blocks, d * d, d * d), dtype=np.complex128)
    for i in range(n_kraus):  # Channel.from_kraus, stacked
        choi += vecs[:, i, :, None] * vecs[:, i, None, :].conj()
    choi /= d
    sups = reshuffle(choi, d, d) * d
    if decorator is None:
        return sups
    # compose() keeps the product as a Choi state (/ d) and superop() scales it back
    return (decorator.superop() @ sups / d) * d


def _pair_products(input_superop: np.ndarray, post_superops: np.ndarray,
                   pre_superops: np.ndarray) -> np.ndarray:
    """Superoperators post_i . input . pre_j as ``(..., n_post + 1, n_pre + 1, D, D)``,
    where index 0 on either side is skip; block stacks ``(..., n, D, D)`` may carry
    leading axes ``...`` (one per start of a stacked search)."""
    lead = post_superops.shape[:-3]
    skip = np.broadcast_to(input_superop, lead + (1,) + input_superop.shape)
    lefts = np.concatenate([skip, post_superops @ input_superop], axis=-3)[..., None, :, :]
    return np.concatenate([lefts, lefts @ pre_superops[..., None, :, :, :]], axis=-3)


def _weighted_sum(tables: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_ij tables[..., i, j] * terms[..., i, j] without the product array; einsum
    adds the terms from zero in row-major (i, j) order, as a loop of ``+=`` would."""
    return np.einsum("...ij,...ijpq->...pq", tables, terms)


def _fidelities(chois: np.ndarray, target_choi: np.ndarray):
    """Uhlmann fidelity of each Choi state (one, or a stack) to the target; a
    state that fails the kernel's Hermitian or PSD check scores 0.0 on its own."""
    try:
        return uhlmann_fidelity(chois, target_choi)
    except ValueError:
        if chois.ndim == 2:
            return 0.0
        return np.array([_fidelities(c, target_choi) for c in chois])


def _mixture_chois(input_superop: np.ndarray, post_superops: np.ndarray,
                   pre_superops: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Choi state of sum_ij p_ij post_i . input . pre_j (index 0 = skip) from stacks
    of the decorated block superoperators; leading axes are starts, as in
    :func:`_pair_products`."""
    d = math.isqrt(input_superop.shape[0])
    return reshuffle(_weighted_sum(probs, _pair_products(input_superop, post_superops,
                                                         pre_superops)), d, d) / d


def _mixture_fidelity(input_superop: np.ndarray, post_superops: np.ndarray,
                      pre_superops: np.ndarray, probs: np.ndarray, target_choi: np.ndarray):
    """F of the mixture of :func:`_mixture_chois` to the target, per start of a
    stack; 0.0 where the fidelity is undefined."""
    return _fidelities(_mixture_chois(input_superop, post_superops, pre_superops, probs),
                       target_choi)


def standard_block_dictionary(dim: int) -> list[Channel]:
    """Stage-one blocks for n-qubit hardware, ``dim = 2**n``: the Pauli conjugations,
    then the inverse 90-degree rotations (1 - iP)/sqrt(2) about each non-identity
    Pauli P, in :func:`pauli_operators` order (for one qubit: id, X, Y, Z, then the
    rotations about X, Y, Z). Empty for any other dimension."""
    n = dim.bit_length() - 1
    if dim < 2 or dim != 2**n:
        return []
    paulis = pauli_operators(n)
    rotations = [(np.eye(dim) - 1j * sigma) / np.sqrt(2) for sigma in paulis[1:]]
    return [Channel.from_unitary(u) for u in paulis + rotations]


# Mixture search: the probe length of the directional rates, the gain a step must
# beat, the step cap, and the pairwise step grid as fractions of the moved mass
_PROBE = 1e-6
_STEP_GAIN = 1e-14
_MAX_STEPS = 120
_STEP_FRACTIONS = 2.0 ** -np.arange(30)


def maximize_mixture_fidelity(chois: np.ndarray, target_choi: np.ndarray):
    """Maximize F(sum_v p_v chois[v], target) over distributions p on a stack
    ``(n, D, D)`` of Choi states; F is concave in p, so a local maximum is global.

    Pairwise Frank-Wolfe (Lacoste-Julien & Jaggi, NeurIPS 2015) from the best
    vertex. Each step scores the probes p + 1e-6 (e_v - p) toward every vertex
    in one stacked call and stops, converged, when none gains more than 1e-14.
    Otherwise it scores moving p[away] * 2**-j, j = 0..29, from the used vertex
    of lowest gain to the vertex of highest gain in one more stacked call, and
    goes to the best point scored in the step, probes included, so every step
    gains. Moving all of p[away] drops that vertex exactly, so the search
    reaches faces. At most 120 steps. Returns (probs, fidelity, evaluations,
    converged), every scored mixture counted once.
    """
    vertices = np.eye(len(chois))
    evaluations = 0

    def fidelities(tables: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(tables)
        return _fidelities(np.einsum("mv,vpq->mpq", tables, chois), target_choi)

    vertex_f = fidelities(vertices)
    k = int(np.argmax(vertex_f))
    probs, f = vertices[k], float(vertex_f[k])
    for _ in range(_MAX_STEPS):
        probes = probs + _PROBE * (vertices - probs)
        probe_f = fidelities(probes)
        toward = int(np.argmax(probe_f))
        if probe_f[toward] <= f + _STEP_GAIN:
            return probs, f, evaluations, True
        away = int(np.argmin(np.where(probs > 0, probe_f, np.inf)))
        trials = probs + np.outer(probs[away] * _STEP_FRACTIONS, vertices[toward] - vertices[away])
        points = np.concatenate([probes, trials])
        values = np.concatenate([probe_f, fidelities(trials)])
        k = int(np.argmax(values))
        probs, f = points[k], float(values[k])
    return probs, f, evaluations, False


def optimize_block_pair_mixture(target: Channel, input_impl: Channel,
                                blocks: Sequence[Channel],
                                decorator: Channel | None = None,
                                placement: str = "interleaved") -> TailoringRecipe:
    """Stage one of Method 1: the best correlated mixture over a fixed dictionary.

    Maximizes F(sum_ij p_ij post_i . input . pre_j, target) over the joint
    distribution only, with index 0 meaning skip and every block of ``blocks``
    (decorated by ``decorator`` when given) offered on each side that
    ``placement`` uses; the (0, 0) corner is the direct implementation. The
    pair-product Choi states are built once and handed to
    :func:`maximize_mixture_fidelity`. The recipe keeps the blocks that carry
    weight, with ``converged`` False when the step cap stopped the search and
    ``evaluations`` counting fidelities, each stacked member once.
    """
    d = target.dim_in
    blocks = list(blocks)
    sups = _block_superops(blocks, decorator, d)
    pair_chois = reshuffle(_pair_products(input_impl.superop(),
                                          sups if placement != "pre" else sups[:0],
                                          sups if placement != "post" else sups[:0]),
                           d, d) / d
    flat, f, evaluations, converged = maximize_mixture_fidelity(
        pair_chois.reshape(-1, d * d, d * d), target.choi)
    probs = flat.reshape(pair_chois.shape[:2])
    # a row or column never stepped towards, or emptied by a pairwise step, is exactly zero
    posts, pres = np.flatnonzero(probs[1:].any(axis=1)), np.flatnonzero(probs[:, 1:].any(axis=0))
    return TailoringRecipe(
        method="building-block", achieved_fidelity=f,
        post_channels=[blocks[i] for i in posts], pre_channels=[blocks[j] for j in pres],
        mixture=probs[np.ix_([0, *posts + 1], [0, *pres + 1])], converged=converged,
        evaluations=evaluations, details={"placement": placement},
    )


# Stage two: sufficient-increase fraction of the first-order gain (Armijo), the
# gain below which a sweep stops its start, and the step at which backtracking gives up
_ARMIJO = 1e-4
_GAIN_TOL = 1e-12
_MIN_STEP = 1e-10


def _retract(v: np.ndarray) -> np.ndarray:
    """QR retraction onto the Stiefel manifold: the Q factor of each matrix of
    the stack, with the phases that make R's diagonal real and positive."""
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _kraus_isometry(ch: Channel, n_kraus: int) -> np.ndarray:
    """The Kraus operators of ``ch`` stacked into an ``(n_kraus * d_out, d_in)``
    isometry, padded with zero operators."""
    ops = ch.kraus()
    v = np.zeros((n_kraus, ch.dim_out, ch.dim_in), dtype=np.complex128)
    v[: len(ops)] = ops
    return v.reshape(-1, ch.dim_in)


def _stack_superops(kraus: np.ndarray, decorator: Channel | None) -> np.ndarray:
    """Decorated superoperators ``(starts, blocks, D, D)`` of a stack of Kraus
    isometries ``(starts, blocks, r * d, d)``."""
    n_starts, n_blocks, rd, d = kraus.shape
    sups = _kraus_superops(kraus.reshape(-1, rd // d, d, d), decorator)
    return sups.reshape(n_starts, n_blocks, d * d, d * d)


def _block_gradient(input_superop: np.ndarray, decorator: Channel | None, n_post: int,
                    sups: np.ndarray, probs: np.ndarray, grad: np.ndarray,
                    k: int, v: np.ndarray) -> np.ndarray:
    """Euclidean gradient of F in the isometry ``v`` ``(starts, r * d, d)`` of block k.

    ``grad`` is dF/drho of each start's mixture Choi state, ``sups`` and
    ``probs`` the starts' decorated block superoperators and tables. F depends
    on the block's Choi state J through rho = R(outer R(J) inner) + const, R the
    reshuffle; J = sum_a |K_a>><<K_a| / d, so dF = (2/d) Re <M K_a, dK_a> for each
    Kraus operator, with M = R(outer^dag R(grad) inner^dag).
    """
    n_starts, rd, d = v.shape
    dd = d * d
    eye = np.eye(dd)
    skip = np.broadcast_to(eye, (n_starts, 1, dd, dd))
    deco = decorator.superop() if decorator is not None else eye
    if k < n_post:
        rights = np.concatenate([skip, sups[:, n_post:]], axis=1)
        outer, inner = deco, input_superop @ np.einsum("sj,sjpq->spq", probs[:, k + 1], rights)
    else:
        lefts = np.concatenate([skip, sups[:, :n_post]], axis=1)
        outer = np.einsum("si,sipq->spq", probs[:, :, k - n_post + 1], lefts) @ input_superop @ deco
        inner = eye
    m = reshuffle(dagger(outer) @ reshuffle(grad, d, d) @ dagger(inner), d, d)
    m = (m + dagger(m)) / 2
    return (2 / d) * (v.reshape(n_starts, -1, dd) @ m.swapaxes(-1, -2)).reshape(v.shape)


def _seesaw(input_impl: Channel, target: Channel, decorator: Channel | None, n_post: int,
            kraus: np.ndarray, probs: np.ndarray, max_evals: int):
    """Stage two of Method 1: block-wise ascent from a stack of starts.

    ``kraus`` is ``(starts, blocks, r * d, d)``: each block's r Kraus operators
    stacked into an isometry, the first ``n_post`` blocks after the input and
    the rest before it; ``probs`` is ``(starts, n_post + 1, n_pre + 1)``. A sweep
    takes, for one block at a time, the analytic Uhlmann-gradient step on the
    Stiefel manifold of isometries, retracted by QR and accepted on an Armijo
    increase (the step halves until it is), then takes one pairwise
    Frank-Wolfe step on the mixture with the blocks fixed, by the analytic
    gradient of F in the table. All starts move in the same stacked kernel
    calls, and every step size is remembered per start and doubled after it
    is accepted. A start stops when a sweep gains less than
    ``_GAIN_TOL`` (it converged) or when it has spent ``max_evals`` fidelity
    evaluations (value or gradient, checked after each sweep).
    Returns (kraus, probs, fidelities, evaluations, converged), per start.
    """
    n_starts, n_blocks, _, d = kraus.shape
    input_sup, target_choi = input_impl.superop(), target.choi
    root = hermitian_sqrt(target_choi)
    kraus, probs = kraus.copy(), probs.astype(float)
    evals = np.zeros(n_starts, dtype=int)

    def score(idx, kr, pr):
        evals[idx] += 1
        sups = _stack_superops(kr, decorator)
        return _mixture_fidelity(input_sup, sups[:, :n_post], sups[:, n_post:], pr, target_choi)

    def gradient(idx, kr, pr):
        """dF/drho of the mixtures' Choi states, and the decorated block superoperators."""
        evals[idx] += 1
        sups = _stack_superops(kr, decorator)
        rho = _mixture_chois(input_sup, sups[:, :n_post], sups[:, n_post:], pr)
        return uhlmann_gradient(rho, root), sups

    def line_search(idx, kr, pr, f, slope, step, trial):
        """Armijo backtracking from ``step`` along ``trial(sel, t) -> (kr, pr)`` for
        each start with ``slope > 0``; accepted points are written into kr, pr and
        f. Returns the accepted steps, 0 where none was."""
        todo, t = np.flatnonzero(slope > 0), step.copy()
        accepted = np.zeros(len(f))
        while todo.size:
            cand_kr, cand_pr = trial(todo, t[todo])
            f_new = score(idx[todo], cand_kr, cand_pr)
            ok = f_new >= f[todo] + _ARMIJO * t[todo] * slope[todo]
            done = todo[ok]
            kr[done], pr[done], f[done] = cand_kr[ok], cand_pr[ok], f_new[ok]
            accepted[done] = t[done]
            todo = todo[~ok]
            t[todo] /= 2
            todo = todo[t[todo] >= _MIN_STEP]
        return accepted

    def block_step(idx, kr, pr, f, steps, k):
        grad, sups = gradient(idx, kr, pr)
        v = kr[:, k].copy()
        euclid = _block_gradient(input_sup, decorator, n_post, sups, pr, grad, k, v)
        vg = dagger(v) @ euclid
        xi = euclid - v @ (vg + dagger(vg)) / 2  # projection onto the tangent space

        def trial(sel, t):
            cand = kr[sel]
            cand[:, k] = _retract(v[sel] + t[:, None, None] * xi[sel])
            return cand, pr[sel]

        slope = np.sum(np.abs(xi) ** 2, axis=(-2, -1))
        t = line_search(idx, kr, pr, f, slope, steps[:, k], trial)
        steps[:, k] = np.where(t > 0, 2 * t, steps[:, k])

    def mixture_step(idx, kr, pr, f, steps):
        grad, sups = gradient(idx, kr, pr)
        pairs = reshuffle(_pair_products(input_sup, sups[:, :n_post], sups[:, n_post:]), d, d) / d
        rates = np.einsum("sxy,sabyx->sab", grad, pairs).real.reshape(len(kr), -1)
        flat = pr.reshape(len(kr), -1)
        rows = np.arange(len(kr))
        toward = np.argmax(rates, axis=1)
        away = np.argmin(np.where(flat > 0, rates, np.inf), axis=1)

        def trial(sel, t):
            cand = flat[sel]
            cand[np.arange(len(sel)), toward[sel]] += t
            cand[np.arange(len(sel)), away[sel]] -= t
            return kr[sel], cand.reshape(-1, *pr.shape[1:])

        # pairwise: move mass from the worst used pair to the best pair, at most all of it
        t = line_search(idx, kr, pr, f, rates[rows, toward] - rates[rows, away],
                        np.minimum(steps[:, -1], flat[rows, away]), trial)
        steps[:, -1] = np.where(t > 0, 2 * t, steps[:, -1])

    f = score(np.arange(n_starts), kraus, probs)
    steps = np.ones((n_starts, n_blocks + 1))  # the last column is the mixture's
    active, converged = np.ones(n_starts, dtype=bool), np.zeros(n_starts, dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        kr, pr, fs, st = kraus[idx], probs[idx], f[idx], steps[idx]
        for k in range(n_blocks):
            block_step(idx, kr, pr, fs, st, k)
        mixture_step(idx, kr, pr, fs, st)
        converged[idx] = fs - f[idx] < _GAIN_TOL
        kraus[idx], probs[idx], f[idx], steps[idx] = kr, pr, fs, st
        active[idx] = ~converged[idx] & (evals[idx] < max_evals)
    return kraus, probs, f, evals, converged


def building_block_optimize(target: Channel, input_impl: Channel,
                            hw: NoiseModel | None = None,
                            config: BuildingBlockConfig | None = None) -> TailoringRecipe:
    """Method 1: wrap a fixed noisy channel in optimized correction blocks.

    Maximizes F(sum_ij p_ij post'_i . input . pre'_j, target) over CPTP
    corrections and the joint mixture, where primes mean the block is itself
    decorated by ``hw`` noise. Index 0 on each side is "skip" (no block, hence
    no decoration), so the plain input channel, the direct corner, is always
    feasible and the result can only improve on it. Two stages:

    1. :func:`optimize_block_pair_mixture` over :func:`standard_block_dictionary`,
       whose vertices include the direct corner;
    2. :func:`_seesaw` over ``mixture_size`` free blocks per side of
       ``ancilla_dim`` Kraus operators each, from the stage-one mixture cut to
       the blocks with the most weight (padded with identities) and from
       ``restarts`` random starts (:class:`CPTPParameterization` draws, each
       mixed uniformly), ``max_evals_per_restart`` evaluations per start.

    A later candidate replaces an earlier one only when strictly better;
    ``details["candidate"]`` is ``"direct"`` or ``"dictionary"`` when one of
    those is returned. ``details`` counts the fidelity evaluations of each
    stage (``dictionary_evaluations`` + ``search_evaluations`` =
    ``evaluations``) and records whether Frank-Wolfe stopped on its step cap
    (``dictionary_capped``); ``converged`` means the gain test stopped every
    start of the seesaw.
    """
    config = config or BuildingBlockConfig()
    if target.dim_in != target.dim_out or input_impl.dim_in != input_impl.dim_out:
        raise ChannelError("building-block tailoring expects square channels")
    if input_impl.dim_in != target.dim_in:
        raise ChannelError("input and target dimensions differ")
    if config.placement not in ("pre", "post", "interleaved"):
        raise ChannelError(f"unknown placement {config.placement!r}")
    d = target.dim_in
    n_post = config.mixture_size if config.placement != "pre" else 0
    n_pre = config.mixture_size if config.placement != "post" else 0
    n_kraus = config.ancilla_dim or d * d
    decorator = _block_decorator(hw, d) if config.noisy_blocks else None
    opt = config.optimizer

    stage_one = optimize_block_pair_mixture(target, input_impl, standard_block_dictionary(d),
                                            decorator, config.placement)
    # the stage-one mixture cut to the blocks with the most weight on each side
    table = stage_one.mixture
    posts = np.argsort(-table[1:].sum(axis=1), kind="stable")[:n_post]
    pres = np.argsort(-table[:, 1:].sum(axis=0), kind="stable")[:n_pre]
    cut = np.zeros((n_post + 1, n_pre + 1))
    cut[: len(posts) + 1, : len(pres) + 1] = table[np.ix_([0, *posts + 1], [0, *pres + 1])]
    if not cut.any():  # all the weight sat on pairs the cut drops
        cut[0, 0] = 1.0
    identity = Channel.identity(d)
    first = ([stage_one.post_channels[i] for i in posts] + [identity] * (n_post - len(posts))
             + [stage_one.pre_channels[j] for j in pres] + [identity] * (n_pre - len(pres)))
    param = CPTPParameterization(dim=d, ancilla_dim=n_kraus)
    rng = np.random.default_rng(opt.seed)
    draws = _START_SCALE * rng.standard_normal((opt.restarts, n_post + n_pre, param.n_params))
    starts = [first] + [[param.decode(x) for x in start] for start in draws]
    kraus = np.array([[_kraus_isometry(b, n_kraus) for b in blocks] for blocks in starts])
    probs = np.array([cut / cut.sum()] + [np.full(cut.shape, 1 / cut.size)] * opt.restarts)
    kraus, probs, f, evals, converged = _seesaw(input_impl, target, decorator, n_post, kraus,
                                                probs, opt.max_evals_per_restart)

    details = {"placement": config.placement, "noisy_blocks": config.noisy_blocks,
               "dictionary_evaluations": stage_one.evaluations,
               "search_evaluations": int(evals.sum()),
               "dictionary_capped": not stage_one.converged}
    recipe = replace(stage_one, converged=bool(converged.all()),
                     evaluations=stage_one.evaluations + int(evals.sum()), details=details)
    best = int(np.argmax(f))
    if f[best] > recipe.achieved_fidelity:
        blocks = [Channel.from_kraus(b.reshape(n_kraus, d, d)) for b in kraus[best]]
        return replace(recipe, achieved_fidelity=float(f[best]), post_channels=blocks[:n_post],
                       pre_channels=blocks[n_post:], mixture=probs[best])
    used = stage_one.post_channels or stage_one.pre_channels
    details["candidate"] = "dictionary" if used else "direct"
    return recipe


# -- Method 2: analytic/parametric tailoring -------------------------------------


@dataclass(frozen=True)
class Infeasible:
    """No probability distribution solves the tailoring system."""

    residual: float

    def __repr__(self) -> str:
        return f"Infeasible(residual={self.residual:.3e})"


@dataclass
class PauliTailorResult:
    """Mixing distribution over Pauli corrections plus solve diagnostics."""

    lam: np.ndarray
    residual: float
    unique: bool


def _is_depolarizing_spec(spec: PauliDiagonalSpec) -> bool:
    p = spec.as_array()
    rest = p[1:]
    return bool(p.size == 4 and np.max(np.abs(rest - rest.mean())) < 1e-14)


# largest residual, or excursion of a probability outside [0, 1], of a feasible Pauli solve
_PAULI_ATOL = 1e-9


def pauli_tailor(hw_pauli: PauliDiagonalSpec, base: PauliDiagonalSpec,
                 target: PauliDiagonalSpec):
    """Pick Pauli-correction probabilities turning base noise into target noise.

    The composite channel is hw . (sum_j lam_j P_j . P_j) . base; its Pauli
    distribution is linear in lam through the group convolution, so lam
    solves M lam = target with M built from the XOR-convolution of the
    hardware and base distributions. For single-qubit depolarizing hardware
    and base the closed form lam_i = (4 t_i + PQ - 1) / (4 PQ) applies, with
    P, Q the white-noise weights; targets outside the feasibility window
    [(1-PQ)/4, PQ + (1-PQ)/4] are Infeasible.
    """
    n = hw_pauli.n_qubits
    if base.n_qubits != n or target.n_qubits != n:
        raise ChannelError("Pauli specs act on different qubit counts")
    size = 4**n
    q, p, t = hw_pauli.as_array(), base.as_array(), target.as_array()

    if n == 1 and _is_depolarizing_spec(hw_pauli) and _is_depolarizing_spec(base):
        big_p = (4 * p[0] - 1) / 3
        big_q = (4 * q[0] - 1) / 3
        pq = big_p * big_q
        if abs(pq) < 1e-14:
            # everything maps to the uniform distribution
            resid = float(np.max(np.abs(t - 0.25)))
            if resid <= _PAULI_ATOL:
                return PauliTailorResult(lam=np.full(4, 0.25), residual=resid, unique=False)
            return Infeasible(residual=resid)
        lam = (4 * t + pq - 1) / (4 * pq)
        if lam.min() < -_PAULI_ATOL or lam.max() > 1 + _PAULI_ATOL:
            return Infeasible(residual=float(max(-lam.min(), lam.max() - 1, 0.0)))
        lam = np.clip(lam, 0.0, 1.0)
        lam = lam / lam.sum()
        return PauliTailorResult(lam=lam, residual=0.0, unique=True)

    table = pauli_product_table(n)
    conv = np.bincount(table.ravel(), np.outer(q, p).ravel())
    m_mat = conv[table]

    lam, *_ = np.linalg.lstsq(m_mat, t, rcond=None)
    rank = np.linalg.matrix_rank(m_mat, tol=1e-12)
    unique = rank == size
    in_simplex = lam.min() >= -1e-12 and abs(lam.sum() - 1) <= 1e-9
    if not in_simplex:
        cons = ({"type": "eq", "fun": lambda x: x.sum() - 1.0},)
        res = minimize(lambda x: float(np.sum((m_mat @ x - t) ** 2)),
                       np.full(size, 1.0 / size), method="SLSQP",
                       bounds=[(0.0, 1.0)] * size, constraints=cons,
                       options={"maxiter": 500, "ftol": 1e-16})
        lam = res.x
    lam = np.clip(lam, 0.0, None)
    s = lam.sum()
    if s > 0:
        lam = lam / s
    residual = float(np.max(np.abs(m_mat @ lam - t)))
    if residual > _PAULI_ATOL:
        return Infeasible(residual=residual)
    return PauliTailorResult(lam=lam, residual=residual, unique=unique)


@dataclass
class ADRepeatResult:
    """Best discrete repeat count for amplitude-damping tailoring."""

    n: int
    fidelity: float
    effective_p: float


def ad_repeat_tailor(hw_p: float, target_p: float, n_max: int,
                     n_min: int = 1) -> ADRepeatResult:
    """Best n in [n_min, n_max] applications of AD(hw_p) approximating AD(target_p).

    n applications compose to AD(1 - (1-hw_p)^n); ties within 1e-12 go to
    the smallest n (less device time).
    """
    if not 0.0 < hw_p < 1.0:
        raise ChannelError("hw_p must lie strictly inside (0, 1)")
    if n_max < n_min or n_min < 1:
        raise ChannelError("need 1 <= n_min <= n_max")
    target = amplitude_damping(target_p)
    best: ADRepeatResult | None = None
    for n in range(n_min, n_max + 1):
        eff = 1.0 - (1.0 - hw_p) ** n
        f = choi_fidelity(amplitude_damping(eff), target)
        if best is None or f > best.fidelity + 1e-12:
            best = ADRepeatResult(n=n, fidelity=f, effective_p=eff)
    return best


def circuit_fidelity(circuit, target: Channel, hw: NoiseModel | None = None) -> float:
    """Method 2's objective: the Choi fidelity to ``target`` of the channel the
    circuit realizes, decorated by the noise model ``hw`` when given."""
    if hw is not None:
        circuit = apply_noise_model(circuit, hw)
    return choi_fidelity(extract_channel(circuit).channel, target)


def _batch_fidelities(circuits: list, target: Channel, hw: NoiseModel | None) -> list:
    """:func:`circuit_fidelity` of each circuit: one batched ``extract_channel``
    and one stacked ``choi_fidelity`` when they share a skeleton. A skeleton
    that measures (a batch cannot branch) or a batch that raises ChannelError
    is scored one circuit at a time, and a circuit that raises gets its
    ChannelError in place of its fidelity. Each fidelity equals the circuit's
    own score bit for bit. A noise model that misfits the wires raises."""
    if hw is not None:
        circuits = [apply_noise_model(c, hw) for c in circuits]
    if len(circuits) > 1 and not any(isinstance(el, Measure) for el in circuits[0].elements):
        try:
            channels = [res.channel for res in extract_channel(circuits)]
            return [float(f) for f in choi_fidelity(channels, target)]
        except ChannelError:
            pass
    scores = []
    for c in circuits:
        try:
            scores.append(circuit_fidelity(c, target))
        except ChannelError as exc:
            scores.append(exc)
    return scores


def theta_tailor(target: Channel, circuit_builder: Callable[[float], "object"],
                 hw: NoiseModel | None = None, grid: int = 49) -> TailoringRecipe:
    """1-D tailoring of a rotation angle in [0, pi] against a noisy circuit.

    The objective is the Choi fidelity of the (noise-decorated) circuit's
    extracted channel to the target; a coarse grid scan, scored as one batch,
    locates the basin and a bounded scalar minimization refines it to 1e-8.
    ``evaluations`` counts every angle scored, each grid point included.
    """
    evaluations = 0

    def fidelities(thetas) -> list[float]:
        nonlocal evaluations
        evaluations += len(thetas)
        scores = _batch_fidelities([circuit_builder(t) for t in thetas], target, hw)
        for f in scores:
            if isinstance(f, ChannelError):
                raise f
        return scores

    lo, hi = 0.0, np.pi
    thetas = np.linspace(lo, hi, grid)
    values = fidelities(thetas)
    i = int(np.argmax(values))
    step = (hi - lo) / (grid - 1)
    b_lo, b_hi = max(lo, thetas[i] - step), min(hi, thetas[i] + step)
    res = minimize_scalar(lambda t: -fidelities([t])[0], bounds=(b_lo, b_hi),
                          method="bounded", options={"xatol": 1e-8})
    best_theta, best_f = (float(res.x), -float(res.fun))
    if values[i] > best_f:
        best_theta, best_f = float(thetas[i]), float(values[i])
    return TailoringRecipe(
        method="tailored-circuit", achieved_fidelity=best_f,
        circuit_params={"theta": best_theta},
        evaluations=evaluations,
        details={"grid": grid, "range": (lo, hi)},
    )


@dataclass(frozen=True)
class ParametricCircuit:
    """A circuit family with k free real parameters."""

    n_params: int
    build: Callable[[np.ndarray], "object"]
    name: str = ""


def full_circuit_tailor(target: Channel, template: ParametricCircuit,
                        hw: NoiseModel | None = None,
                        optimizer: OptimizerConfig | None = None,
                        seeds: Sequence[np.ndarray] = ()) -> TailoringRecipe:
    """Method 2 with full circuit flexibility: optimize all template parameters.

    Multi-start L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16,
    1190 (1995)) with scipy's finite-difference gradient, from each of
    ``seeds`` and then from ``restarts`` random points, with
    ``max_evals_per_restart`` as each start's ``maxfun``. Scipy hands the
    probes of each gradient to its ``workers`` map, which scores them as one
    batch; scipy still picks the steps and counts against ``maxfun``, and
    ``evaluations`` counts every point scored. Seeding with a
    restricted-parameterization optimum guarantees the result is at least as
    good as any restricted tailoring on the same template. A point whose
    circuit raises ChannelError scores 0.0, in a batch too; when every
    evaluation raises, the template cannot run at all, and ChannelError names
    it and the last error.
    """
    optimizer = optimizer or OptimizerConfig(restarts=4, max_evals_per_restart=400)
    evals, failed, last_error = 0, 0, None

    def negs(points) -> list[float]:
        nonlocal evals, failed, last_error
        evals += len(points)
        circuits = [template.build(np.asarray(p, dtype=float)) for p in points]
        out = []
        for f in _batch_fidelities(circuits, target, hw):
            if isinstance(f, ChannelError):
                failed, last_error = failed + 1, f
            out.append(0.0 if isinstance(f, ChannelError) else -f)
        return out

    def probes(fun, points) -> list[float]:  # fun wraps the objective; score the batch directly
        return negs(list(points))

    rng = np.random.default_rng(optimizer.seed)
    draws = _START_SCALE * rng.standard_normal((optimizer.restarts, template.n_params))
    best = min((minimize(lambda p: negs([p])[0], np.asarray(x0, dtype=float), method="L-BFGS-B",
                         options={"maxfun": optimizer.max_evals_per_restart, "workers": probes})
                for x0 in [*seeds, *draws]), key=lambda res: res.fun)
    if failed == evals:
        raise ChannelError(f"template {template.name!r} failed at every evaluation: {last_error}")
    return TailoringRecipe(
        method="tailored-circuit", achieved_fidelity=-float(best.fun),
        circuit_params={"params": best.x},
        converged=bool(best.success), evaluations=evals,
        details={"template": template.name},
    )


# -- Method 3: variational black box ---------------------------------------------


def blackbox_optimize(oracle: Callable[[np.ndarray], float], dim: int,
                      budget: int = 2000, seed: int = 0,
                      x0: np.ndarray | None = None) -> TailoringRecipe:
    """Method 3: maximize a parameters-to-fidelity oracle within a budget.

    The oracle is the only interface to the simulation; no noise knowledge
    is used. Nelder-Mead restarts from standard-normal points drawn from the
    seeded generator until the evaluation budget runs out; the best point
    found is returned with a flag when the budget was exhausted before
    convergence.
    """
    rng = np.random.default_rng(seed)
    evals = 0
    budget_hit = False

    def neg(x):
        nonlocal evals, budget_hit
        evals += 1
        if evals >= budget:
            budget_hit = True
        return -float(oracle(np.asarray(x, dtype=float)))

    best_x, best_f = None, -np.inf
    converged = False
    while evals < budget:
        start = (np.asarray(x0, dtype=float) if (x0 is not None and best_x is None)
                 else rng.standard_normal(dim))
        res = minimize(neg, start, method="Nelder-Mead",
                       options={"maxfev": budget - evals, "xatol": 1e-9, "fatol": 1e-13})
        if -res.fun > best_f:
            best_x, best_f, converged = res.x, -res.fun, bool(res.success)
    return TailoringRecipe(
        method="black-box", achieved_fidelity=best_f,
        circuit_params={"params": np.asarray(best_x)},
        converged=converged and not budget_hit,
        evaluations=evals,
        details={"budget": budget, "budget_exhausted": budget_hit},
    )


def pauli_mixture_channel(probs: np.ndarray) -> Channel:
    """Channel sum_i probs_i P_i . P_i."""
    probs = np.asarray(probs, dtype=float)
    n = int(round(np.log2(probs.size) / 2))
    return mix([Channel.from_unitary(op) for op in pauli_operators(n)], probs / probs.sum())


# -- tailoring jobs ---------------------------------------------------------------


def recipe_to_dict(rec: TailoringRecipe) -> dict:
    """Serialized recipe: achieved fidelity plus the full correction payload."""
    out = {
        "method": rec.method,
        "achieved_fidelity": rec.achieved_fidelity,
        "converged": rec.converged,
        "evaluations": rec.evaluations,
        "details": {k: (v if not isinstance(v, np.ndarray) else v.tolist())
                    for k, v in rec.details.items()},
    }
    if rec.mixture is not None:
        out["mixture"] = np.asarray(rec.mixture).tolist()
    if rec.pre_channels:
        out["pre_channels"] = [channel_to_dict(c) for c in rec.pre_channels]
    if rec.post_channels:
        out["post_channels"] = [channel_to_dict(c) for c in rec.post_channels]
    if rec.circuit_params is not None:
        out["circuit_params"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else float(v))
            for k, v in rec.circuit_params.items()
        }
    return out


# Keys each job method reads besides "method" and "seed", and the keys it
# reads inside "budgets"; any other key is refused.
_JOB_KEYS = {
    "building-block": ({"target", "input", "hardware", "placement", "mixture_size",
                        "ancilla_dim", "noisy_blocks", "budgets"}, {"restarts", "max_evals"}),
    "theta": ({"target", "hardware"}, set()),
    "black-box-theta": ({"target", "hardware", "theta0", "budgets"}, {"max_evals"}),
    "ad-repeat": ({"hw_p", "target_p", "n_max", "n_min"}, set()),
    "pauli": ({"hw", "base", "target"}, set()),
}


def run_tailoring_job(config: dict) -> dict:
    """Execute a tailoring job described by a config dictionary.

    Fields: ``method`` (building-block | theta | ad-repeat | pauli |
    black-box-theta), ``target`` (named or serialized channel),
    ``hardware`` (noise-model config, optional), method-specific settings,
    ``budgets`` ({restarts, max_evals}), and ``seed``; ``_JOB_KEYS`` lists
    the keys each method reads. The returned dict carries the serialized
    recipe plus the full config as provenance. A missing, mistyped or
    unknown field raises ChannelError.
    """
    method = read_field(config, "method", str)
    if method not in _JOB_KEYS:
        raise ChannelError(f"unknown tailoring method {method!r}")
    keys, budget_keys = _JOB_KEYS[method]
    refuse_unknown_keys(config, keys | {"method", "seed"}, f"{method} job")
    seed = read_field(config, "seed", int, 0)
    budgets = read_field(config, "budgets", dict, {})
    refuse_unknown_keys(budgets, budget_keys, "budgets")
    restarts = read_field(budgets, "restarts", int, 3)
    max_evals = read_field(budgets, "max_evals", int, None)
    if seed < 0 or restarts < 1 or max_evals is not None and max_evals < 1:
        raise ChannelError("seed must be >= 0 and budgets >= 1")
    opt = OptimizerConfig(restarts=restarts, max_evals_per_restart=max_evals or 1200, seed=seed)
    hw = (noise_model_from_config(read_field(config, "hardware", dict))
          if "hardware" in config else None)

    if method == "building-block":
        target = channel_from_entry(read_field(config, "target", dict))
        if "input" in config:
            input_impl = channel_from_entry(read_field(config, "input", dict))
        else:
            deco = _block_decorator(hw, target.dim_in) if hw is not None else None
            input_impl = compose(deco, target) if deco is not None else target
        cfg = BuildingBlockConfig(
            placement=read_field(config, "placement", str, "interleaved"),
            mixture_size=read_field(config, "mixture_size", int, 2),
            ancilla_dim=read_field(config, "ancilla_dim", int, None),
            noisy_blocks=read_field(config, "noisy_blocks", bool, True),
            optimizer=opt,
        )
        if cfg.mixture_size < 1 or cfg.ancilla_dim is not None and cfg.ancilla_dim < 1:
            raise ChannelError("mixture_size and ancilla_dim must be >= 1")
        rec = building_block_optimize(target, input_impl, hw, cfg)
    elif method == "theta":
        target = channel_from_entry(read_field(config, "target", dict))
        rec = theta_tailor(target, lambda th: build_ad_circuit(th), hw)
    elif method == "black-box-theta":
        target = channel_from_entry(read_field(config, "target", dict))

        def oracle(params):
            return circuit_fidelity(build_ad_circuit(float(params[0])), target, hw)

        x0 = np.array([read_field(config, "theta0", float, np.pi / 2)])
        rec = blackbox_optimize(oracle, 1, budget=max_evals or 300, seed=seed, x0=x0)
    elif method == "ad-repeat":
        res = ad_repeat_tailor(read_field(config, "hw_p", float),
                               read_field(config, "target_p", float),
                               read_field(config, "n_max", int, 20),
                               n_min=read_field(config, "n_min", int, 1))
        return {"method": "ad-repeat", "n": res.n, "achieved_fidelity": res.fidelity,
                "effective_p": res.effective_p, "settings": config}
    else:  # pauli
        res = pauli_tailor(*(PauliDiagonalSpec(tuple(read_field(config, key, list)))
                             for key in ("hw", "base", "target")))
        if isinstance(res, Infeasible):
            return {"method": "pauli", "feasible": False,
                    "residual": res.residual, "settings": config}
        return {"method": "pauli", "feasible": True, "lambda": res.lam.tolist(),
                "residual": res.residual, "unique": res.unique, "settings": config}
    payload = recipe_to_dict(rec)
    payload["settings"] = config
    return payload
