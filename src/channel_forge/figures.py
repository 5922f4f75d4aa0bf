"""Parameter sweeps reproducing the toolkit's reference experiments.

Each ``fig*_rows`` function returns a list of row dicts (full parameter
tuple plus metrics, no positional ambiguity) ready for CSV/JSON emission.
The bit-flip closed forms used as acceptance oracles live here as well.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import minimize_scalar

from .channels import Channel, choi_fidelity, compose
from .circuits import Circuit, build_ad_circuit, cnot, controlled_ry, ry, rz
from .noise import (
    BlockModel,
    GateModel,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing,
    depolarizing_white,
    pauli_operators,
    rotation_noise_b,
)
from .tailor import (
    BuildingBlockConfig,
    OptimizerConfig,
    ParametricCircuit,
    building_block_optimize,
    circuit_fidelity,
    full_circuit_tailor,
    maximize_mixture_fidelity,
    pauli_mixture_channel,
    theta_tailor,
)

# -- bit-flip circuit closed forms ------------------------------------------------


def bitflip_stochastic_fidelity(target_p: float, p: float, q: float) -> float:
    """Choi fidelity of the stochastic-X circuit under white gate noise q
    against the bit-flip target with keep-probability ``target_p``."""
    a = target_p * ((4 * p - 1) * q + 1)
    b = (1 - target_p) * ((3 - 4 * p) * q + 1)
    return 0.25 * (np.sqrt(max(a, 0.0)) + np.sqrt(max(b, 0.0))) ** 2


def bitflip_ancilla_fidelity(target_p: float, p: float, q: float) -> float:
    """Same as :func:`bitflip_stochastic_fidelity` for the ancilla circuit
    (rotation + CNOT), where the CNOT contributes noise on both wires."""
    a = target_p * ((4 * p - 2) * q**2 + q + 1)
    b = (1 - target_p) * ((2 - 4 * p) * q**2 + q + 1)
    return 0.25 * (np.sqrt(max(a, 0.0)) + np.sqrt(max(b, 0.0))) ** 2


def _best_p(fidelity, target_p: float, q: float, xatol: float = 1e-8):
    res = minimize_scalar(lambda p: -fidelity(target_p, p, q), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": xatol})
    # guard the interval ends; the bounded method never samples them exactly
    cands = [(float(res.x), -float(res.fun)),
             (0.0, fidelity(target_p, 0.0, q)), (1.0, fidelity(target_p, 1.0, q))]
    return max(cands, key=lambda t: t[1])


def fig7c_rows(grid: int = 20, xatol: float = 1e-8) -> list[dict]:
    """Best-tuned fidelity of both bit-flip circuits over a (target_p, q) grid."""
    rows = []
    for target_p in np.linspace(0.0, 1.0, grid):
        for q in np.linspace(0.0, 1.0, grid):
            pa, fa = _best_p(bitflip_stochastic_fidelity, target_p, q, xatol)
            pb, fb = _best_p(bitflip_ancilla_fidelity, target_p, q, xatol)
            rows.append({
                "target_p": target_p, "q": q,
                "best_p_stochastic": pa, "best_fidelity_stochastic": fa,
                "best_p_ancilla": pb, "best_fidelity_ancilla": fb,
            })
    return rows


# -- Method 1 sweeps ---------------------------------------------------------------


def _interleaved_fidelity(target: Channel, input_impl: Channel, noise: Channel | None,
                          seed: int, opt: OptimizerConfig) -> float:
    """Method 1 with two interleaved blocks per side of two Kraus operators each,
    decorated by ``noise`` (noiseless blocks when None)."""
    cfg = BuildingBlockConfig(placement="interleaved", mixture_size=2, ancilla_dim=2,
                              noisy_blocks=noise is not None,
                              optimizer=replace(opt, seed=seed))
    hw = BlockModel(noise) if noise is not None else None
    return building_block_optimize(target, input_impl, hw, cfg).achieved_fidelity


def fig5a_rows(q_values=None, seed: int = 0,
               optimizer: OptimizerConfig | None = None) -> list[dict]:
    """Bit-flip(0.95) simulation under the non-Pauli rotation-mixture block
    noise: direct vs interleaved-optimized (noisy and noiseless blocks)."""
    if q_values is None:
        q_values = np.linspace(0.80, 1.00, 11)
    target = bit_flip(0.95)
    opt = optimizer or OptimizerConfig(restarts=3, max_evals_per_restart=1200, seed=seed)
    rows = []
    for q in q_values:
        noise = rotation_noise_b(float(q))
        noisy_input = compose(noise, target)
        noisy_f = _interleaved_fidelity(target, noisy_input, noise, opt.seed + int(q * 1000), opt)
        free_f = _interleaved_fidelity(target, noisy_input, None,
                                       opt.seed + 77 + int(q * 1000), opt)
        rows.append({
            "q": float(q),
            "direct_infidelity": 1 - choi_fidelity(noisy_input, target),
            "interleaved_noisy_infidelity": 1 - noisy_f,
            # a noisy block is a channel too, so noiseless blocks do at least as well
            "interleaved_noiseless_infidelity": 1 - max(free_f, noisy_f),
        })
    return rows


# keep-probabilities of the experiments' hardware noise, and fig5b's damping
FIG5B_Q, FIG5B_GAMMA = 0.9, 0.1
FIG6A_Q = 0.925
FIG6B_Q = FIG6C_Q = 0.8


def fig5b_rows(strengths=None, seed: int = 0,
               optimizer: OptimizerConfig | None = None) -> list[dict]:
    """Transforming amplitude damping (gamma FIG5B_GAMMA) into depolarizing of
    swept strength with interleaved blocks, under white block noise of
    strength FIG5B_Q."""
    if strengths is None:
        strengths = np.linspace(0.0, 1.0, 11)
    opt = optimizer or OptimizerConfig(restarts=3, max_evals_per_restart=1200, seed=seed)
    q, gamma = FIG5B_Q, FIG5B_GAMMA
    noise = depolarizing_white(q)
    base = amplitude_damping(gamma)
    noisy_input = compose(noise, base)
    rows = []
    for s in strengths:
        target = depolarizing_white(float(s))
        noisy_f = _interleaved_fidelity(target, noisy_input, noise, opt.seed + int(s * 1000), opt)
        # perfect-hardware comparison: ideal input channel, ideal blocks
        free_f = _interleaved_fidelity(target, base, None, opt.seed + 77 + int(s * 1000), opt)
        rows.append({
            "target_strength": float(s), "q": q, "gamma": gamma,
            "direct_infidelity": 1 - choi_fidelity(noisy_input, target),
            "interleaved_noisy_infidelity": 1 - noisy_f,
            "interleaved_noiseless_infidelity": 1 - free_f,
        })
    return rows


# -- Method 2 sweeps ---------------------------------------------------------------


def fig6a_noise_model() -> GateModel:
    """Gate noise of the controlled-rotation experiment: white-style
    depolarizing followed by dephasing, keep-probability FIG6A_Q each."""
    return GateModel(compose(dephasing(FIG6A_Q), depolarizing(FIG6A_Q)))


def fig6b_noise_model() -> BlockModel:
    return BlockModel(compose(dephasing(FIG6B_Q), depolarizing(FIG6B_Q)))


def fig6a_rows(gammas=None) -> list[dict]:
    """Optimal rotation angle vs damping strength under gate noise."""
    if gammas is None:
        gammas = np.linspace(0.05, 0.95, 10)
    hw = fig6a_noise_model()
    rows = []
    for g in gammas:
        target = amplitude_damping(float(g))
        ideal_theta = 2 * np.arcsin(np.sqrt(float(g)))
        rec = theta_tailor(target, lambda th: build_ad_circuit(th), hw)
        naive_f = circuit_fidelity(build_ad_circuit(ideal_theta), target, hw)
        rows.append({
            "gamma": float(g), "q": FIG6A_Q,
            "theta_ideal": ideal_theta,
            "theta_opt": rec.circuit_params["theta"],
            "fidelity_naive": naive_f,
            "fidelity_opt": rec.achieved_fidelity,
        })
    return rows


def _ad_full_template() -> ParametricCircuit:
    """Damping circuit with tunable rotation plus pre/post data rotations.

    Parameters: (theta, pre z-y-z angles, post z-y-z angles); all-zero
    extras reduce to the plain circuit, so theta-only tailoring embeds.
    """

    def build(params: np.ndarray) -> Circuit:
        th, a1, b1, c1, a2, b2, c2 = params
        c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
        c.gate(rz(a1) @ ry(b1) @ rz(c1), [0], name="pre")
        c.gate(controlled_ry(th), [0, 1], name="cry")
        c.gate(cnot(), [1, 0], name="cnot")
        c.gate(rz(a2) @ ry(b2) @ rz(c2), [0], name="post")
        c.trace_out(1)
        return c

    return ParametricCircuit(n_params=7, build=build, name="ad-full")


def fig6b_rows(gammas=None, seed: int = 0,
               optimizer: OptimizerConfig | None = None) -> list[dict]:
    """Theta-only vs full-circuit tailoring under block noise."""
    if gammas is None:
        gammas = np.linspace(0.05, 0.95, 10)
    hw = fig6b_noise_model()
    opt = optimizer or OptimizerConfig(restarts=3, max_evals_per_restart=500, seed=seed)
    template = _ad_full_template()
    rows = []
    for g in gammas:
        target = amplitude_damping(float(g))
        theta_rec = theta_tailor(target, lambda th: build_ad_circuit(th), hw)
        seed_vec = np.zeros(7)
        seed_vec[0] = theta_rec.circuit_params["theta"]
        full_rec = full_circuit_tailor(target, template, hw, optimizer=opt,
                                       seeds=[seed_vec])
        rows.append({
            "gamma": float(g), "q": FIG6B_Q,
            "fidelity_theta_only": theta_rec.achieved_fidelity,
            "fidelity_full_circuit": max(full_rec.achieved_fidelity,
                                         theta_rec.achieved_fidelity),
        })
    return rows


def fig6c_noise() -> Channel:
    """Block noise of the depolarizing-target experiment: dephasing followed
    by amplitude damping, keep-probability FIG6C_Q each."""
    return compose(amplitude_damping(1 - FIG6C_Q), dephasing(FIG6C_Q))


def fig6c_rows(strengths=None, seed: int = 0,
               optimizer: OptimizerConfig | None = None) -> list[dict]:
    """Depolarizing-target tailoring: direct Pauli mixture, optimized Pauli
    probabilities, and a mixture of four tunable unitaries before the noise
    (Method 1 with one-Kraus blocks)."""
    if strengths is None:
        strengths = np.linspace(0.0, 1.0, 11)
    noise = fig6c_noise()
    opt = optimizer or OptimizerConfig(restarts=3, max_evals_per_restart=600, seed=seed)
    pauli_chois = np.array([compose(noise, Channel.from_unitary(p)).choi
                            for p in pauli_operators(1)])
    rows = []
    for s in strengths:
        target = depolarizing_white(float(s))
        target_probs = np.array([float(s) + (1 - float(s)) / 4] + [(1 - float(s)) / 4] * 3)
        direct = compose(noise, pauli_mixture_channel(target_probs))
        direct_f = choi_fidelity(direct, target)
        pauli_f = max(maximize_mixture_fidelity(pauli_chois, target.choi)[1], direct_f)
        cfg = BuildingBlockConfig(placement="pre", mixture_size=4, ancilla_dim=1,
                                  noisy_blocks=False,
                                  optimizer=replace(opt, seed=opt.seed + 31 + int(s * 997)))
        full_f = building_block_optimize(target, noise, None, cfg).achieved_fidelity
        rows.append({
            "target_strength": float(s), "q": FIG6C_Q,
            "fidelity_direct": direct_f,
            "fidelity_pauli_probs": pauli_f,
            "fidelity_full_circuit": max(full_f, pauli_f),
        })
    return rows


FIGURES = {
    "fig5a": fig5a_rows,
    "fig5b": fig5b_rows,
    "fig6a": fig6a_rows,
    "fig6b": fig6b_rows,
    "fig6c": fig6c_rows,
    "fig7c": fig7c_rows,
}
