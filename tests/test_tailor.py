import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_forge.channels import (
    Channel,
    ChannelError,
    channel_to_dict,
    choi_fidelity,
    compose,
    random_channel,
    validate_cptp,
)
from channel_forge.circuits import Circuit, build_ad_circuit, extract_channel, rx, ry
from channel_forge.cli import main
from channel_forge.figures import _ad_full_template, fig6b_noise_model, fig6c_noise
from channel_forge.linalg import hermitian_sqrt, reshuffle, uhlmann_gradient
from channel_forge.noise import (
    BlockModel,
    PauliDiagonalSpec,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing_white,
    pauli_conjugations,
    pauli_diagonal,
    pauli_operators,
    rotation_noise_b,
)
from channel_forge import tailor
from channel_forge.tailor import (
    ADRepeatResult,
    BuildingBlockConfig,
    CPTPParameterization,
    Infeasible,
    OptimizerConfig,
    ParametricCircuit,
    PauliTailorResult,
    ad_repeat_tailor,
    blackbox_optimize,
    building_block_optimize,
    full_circuit_tailor,
    optimize_block_pair_mixture,
    pauli_mixture_channel,
    pauli_tailor,
    standard_block_dictionary,
    theta_tailor,
)

RNG = np.random.default_rng(17)

WHITE = 0.9
KRAUS_WEIGHT = (3 * WHITE + 1) / 4  # white-noise 0.9 in Kraus-weight form


def depolarizing_spec():
    return PauliDiagonalSpec.depolarizing(KRAUS_WEIGHT)


def test_cptp_parameterization_decodes_valid_channels():
    param = CPTPParameterization(dim=2, ancilla_dim=2)
    for _ in range(5):
        v = RNG.standard_normal(param.n_params)
        ch = param.decode(v)
        assert validate_cptp(ch).passed


def random_kraus_stack(blocks, ancilla_dim, dim):
    """Kraus operators ``(blocks, ancilla_dim, dim, dim)``: QR-retracted Gaussian isometries."""
    shape = (blocks, ancilla_dim * dim, dim)
    gauss = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    return tailor._retract(gauss).reshape(blocks, ancilla_dim, dim, dim)


@pytest.mark.parametrize("dim, ancilla_dim", [(2, 2), (2, 4), (3, 2)])
def test_decode_is_the_channel_of_the_kraus_stack(dim, ancilla_dim):
    param = CPTPParameterization(dim=dim, ancilla_dim=ancilla_dim)
    stack = random_kraus_stack(3, ancilla_dim, dim)
    channels = [Channel.from_kraus(k) for k in stack]
    decoded = param.decode(RNG.standard_normal(param.n_params))
    assert len(decoded.kraus()) == ancilla_dim
    # the objective's stacked superoperators are those of the Kraus channels, bit for bit
    for deco in (None, decoded):
        assert np.array_equal(tailor._kraus_superops(stack, deco),
                              tailor._block_superops(channels, deco, dim))


def loop_mixture(input_sup, post_sups, pre_sups, probs):
    """The mixture's superoperator term by term, zero weights skipped: the
    reference for the stacked products and weighted sum."""
    s = np.zeros_like(input_sup)
    for i, sp in enumerate([None, *post_sups]):
        left = sp @ input_sup if sp is not None else input_sup
        for j, sq in enumerate([None, *pre_sups]):
            if probs[i, j] != 0.0:
                s += probs[i, j] * (left @ sq if sq is not None else left)
    return s


@pytest.mark.parametrize("n_post, n_pre", [(2, 2), (0, 3), (3, 0), (1, 4)])
def test_stacked_mixture_matches_the_term_by_term_loop(n_post, n_pre):
    param = CPTPParameterization(dim=2, ancilla_dim=2)
    decorator = param.decode(0.3 * RNG.standard_normal(param.n_params))
    sups = tailor._kraus_superops(random_kraus_stack(n_post + n_pre, 2, 2), decorator)
    posts, pres = sups[:n_post], sups[n_post:]
    input_sup = compose(decorator, amplitude_damping(0.2)).superop()
    tables = RNG.dirichlet(np.ones((n_post + 1) * (n_pre + 1)), size=5)
    tables[0, ::2] = 0.0
    tables = tables.reshape(5, n_post + 1, n_pre + 1)
    terms = tailor._pair_products(input_sup, posts, pres)
    stacked = tailor._weighted_sum(tables, terms)
    for k, probs in enumerate(tables):
        reference = loop_mixture(input_sup, posts, pres, probs)
        assert np.array_equal(tailor._weighted_sum(probs, terms), reference)
        assert np.array_equal(stacked[k], reference)


def test_kraus_stack_that_is_not_an_isometry_raises():
    param = CPTPParameterization(dim=2, ancilla_dim=2)
    with pytest.raises(ChannelError, match="completeness"), np.errstate(invalid="ignore"):
        param.decode(np.full(param.n_params, np.nan))
    stack = random_kraus_stack(1, 2, 2)[0]
    Channel.from_kraus(stack)
    with pytest.raises(ChannelError, match="completeness"):
        Channel.from_kraus(stack * 1.001)


def test_a_state_failing_the_check_scores_zero_on_its_own():
    target = bit_flip(0.9).choi
    good = [depolarizing_white(q).choi for q in (0.5, 0.9)]
    not_psd = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    not_a_number = good[1].copy()
    not_a_number[0, 3] = np.nan  # a failed trial point of a search
    stack = np.array([good[0], not_psd, good[1], not_a_number])
    scores = tailor._fidelities(stack, target)
    assert scores.tolist() == [choi_fidelity(depolarizing_white(0.5), bit_flip(0.9)), 0.0,
                               choi_fidelity(depolarizing_white(0.9), bit_flip(0.9)), 0.0]
    assert tailor._fidelities(not_psd, target) == 0.0
    assert tailor._fidelities(not_a_number, target) == 0.0
    # a mixture whose Choi state is not PSD scores 0.0 instead of raising
    not_cp = reshuffle(not_psd * 2, 2, 2)
    probs = np.array([[0.0, 1.0]])
    assert tailor._mixture_fidelity(bit_flip(0.9).superop(), np.empty((0, 4, 4)),
                                    not_cp[None], probs, target) == 0.0


# -- pauli tailoring -----------------------------------------------------------


def test_pauli_tailor_identity_specs_return_target():
    ident = PauliDiagonalSpec.identity()
    target = PauliDiagonalSpec((0.6, 0.2, 0.1, 0.1))
    res = pauli_tailor(ident, ident, target)
    assert isinstance(res, PauliTailorResult)
    assert np.allclose(res.lam, target.probs, atol=1e-12)


def test_pauli_tailor_depolarizing_closed_form():
    spec = depolarizing_spec()
    target = PauliDiagonalSpec((0.85, 0.05, 0.05, 0.05))
    res = pauli_tailor(spec, spec, target)
    lam_expected = (4 * np.asarray(target.probs) + WHITE**2 - 1) / (4 * WHITE**2)
    assert np.max(np.abs(res.lam - lam_expected)) < 1e-12
    composed = compose(pauli_diagonal(spec),
                       compose(pauli_mixture_channel(res.lam), pauli_diagonal(spec)))
    assert np.max(np.abs(composed.choi - pauli_diagonal(target).choi)) < 1e-10


def test_pauli_tailor_infeasible_outside_window():
    spec = depolarizing_spec()
    pq = WHITE**2
    hi = pq + (1 - pq) / 4
    bad_top = hi + 0.02
    rest = (1 - bad_top) / 3
    res = pauli_tailor(spec, spec, PauliDiagonalSpec((bad_top, rest, rest, rest)))
    assert isinstance(res, Infeasible)
    assert res.residual > 0


def test_pauli_tailor_general_path_non_depolarizing():
    # dephasing-style hardware noise: solve the linear system and verify by composition
    hw = PauliDiagonalSpec((0.9, 0.0, 0.0, 0.1))
    base = PauliDiagonalSpec((0.8, 0.05, 0.05, 0.1))
    lam_true = np.array([0.7, 0.1, 0.1, 0.1])
    composed = compose(pauli_diagonal(hw),
                       compose(pauli_mixture_channel(lam_true), pauli_diagonal(base)))
    from channel_forge.noise import bell_diagonal_weights

    target_probs = bell_diagonal_weights(composed, atol=1e-12)
    res = pauli_tailor(hw, base, PauliDiagonalSpec(tuple(target_probs)))
    assert isinstance(res, PauliTailorResult)
    check = compose(pauli_diagonal(hw),
                    compose(pauli_mixture_channel(res.lam), pauli_diagonal(base)))
    assert np.max(np.abs(check.choi - composed.choi)) < 1e-9


def test_pauli_tailor_general_infeasible():
    hw = PauliDiagonalSpec((0.6, 0.4, 0.0, 0.0))
    base = PauliDiagonalSpec((0.6, 0.4, 0.0, 0.0))
    res = pauli_tailor(hw, base, PauliDiagonalSpec((1.0, 0.0, 0.0, 0.0)))
    assert isinstance(res, Infeasible)


# -- amplitude-damping repeats ---------------------------------------------------


def test_ad_repeat_exact_hit():
    hw = 0.25
    target = 1 - (1 - hw) ** 3
    res = ad_repeat_tailor(hw, target, 10)
    assert res.n == 3
    assert abs(res.fidelity - 1) < 1e-10


def test_ad_repeat_nmax_one():
    res = ad_repeat_tailor(0.4, 0.45, 1)
    assert res.n == 1
    assert isinstance(res, ADRepeatResult)


def test_ad_repeat_tie_prefers_smaller_n():
    res = ad_repeat_tailor(0.5, 0.75, 5)
    assert res.n == 2  # exact hit at n=2; later n are worse, not tied, but n stays minimal
    assert abs(res.effective_p - 0.75) < 1e-12


def test_ad_repeat_validates_input():
    with pytest.raises(ChannelError):
        ad_repeat_tailor(0.0, 0.5, 3)
    with pytest.raises(ChannelError):
        ad_repeat_tailor(0.3, 0.5, 2, n_min=3)


def test_ad_composition_grid():
    grid = np.linspace(0.05, 0.95, 10)
    for p1 in grid:
        for p2 in grid:
            lhs = compose(amplitude_damping(p1), amplitude_damping(p2))
            rhs = amplitude_damping(p1 + p2 - p1 * p2)
            assert np.max(np.abs(lhs.choi - rhs.choi)) < 1e-12


# -- theta tailoring --------------------------------------------------------------


def test_theta_tailor_ideal_matches_arcsin():
    gamma = 0.36
    rec = theta_tailor(amplitude_damping(gamma), lambda th: build_ad_circuit(th))
    assert abs(rec.circuit_params["theta"] - 2 * np.arcsin(0.6)) < 1e-6
    assert rec.achieved_fidelity > 1 - 1e-10


def test_theta_tailor_with_noise_beats_naive():
    from channel_forge.figures import fig6a_noise_model
    from channel_forge.circuits import extract_channel
    from channel_forge.noise import apply_noise_model

    gamma = 0.5
    hw = fig6a_noise_model()
    target = amplitude_damping(gamma)
    rec = theta_tailor(target, lambda th: build_ad_circuit(th), hw)
    naive = apply_noise_model(build_ad_circuit(2 * np.arcsin(np.sqrt(gamma))), hw)
    naive_f = choi_fidelity(extract_channel(naive).channel, target)
    assert rec.achieved_fidelity >= naive_f - 1e-12


def test_theta_tailor_reports_counted_evaluations():
    calls = []

    def builder(theta):
        calls.append(theta)
        return build_ad_circuit(theta)

    rec = theta_tailor(amplitude_damping(0.3), builder, grid=7)
    assert rec.evaluations == len(calls) > 7


def test_full_circuit_tailor_scores_only_the_failing_member_of_a_batch_zero(monkeypatch):
    # the gate grows past unitary once params[1] > 0, and that circuit's Choi
    # state is not trace preserving: the probe along params[1] fails, the
    # probe along params[0] in the same batch does not
    def build(params):
        return Circuit(wires=[("q0", 2)]).gate(ry(params[0]) * (1 + max(params[1], 0.0)), [0])

    target = amplitude_damping(0.3)
    batches = []
    real_minimize = tailor.minimize

    def recording_minimize(fun, x0, **kwargs):
        probes = kwargs["options"]["workers"]

        def record(f, points):
            points = list(points)
            batches.append((points, probes(f, points)))
            return batches[-1][1]

        kwargs["options"] = {**kwargs["options"], "workers": record}
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(tailor, "minimize", recording_minimize)
    full_circuit_tailor(target, ParametricCircuit(2, build),
                        optimizer=OptimizerConfig(restarts=0, max_evals_per_restart=20),
                        seeds=[np.array([0.4, 0.0])])
    (p0, p1), (s0, s1) = batches[0]
    assert p0[1] == 0.0 < p1[1]
    with pytest.raises(ChannelError, match="not CPTP"):
        extract_channel(build(p1))
    assert s1 == 0.0
    assert s0 == -tailor.circuit_fidelity(build(p0), target) < 0.0


def test_theta_tailor_scores_a_measuring_circuit_one_at_a_time():
    # a batch cannot measure; the grid falls back to one circuit at a time
    target, hw = amplitude_damping(0.4), fig6b_noise_model()
    feedback = theta_tailor(target, lambda th: build_ad_circuit(th, "measure-feedback"), hw,
                            grid=9)
    coherent = theta_tailor(target, lambda th: build_ad_circuit(th), hw, grid=9)
    assert abs(feedback.achieved_fidelity - coherent.achieved_fidelity) < 1e-9
    assert abs(feedback.circuit_params["theta"] - coherent.circuit_params["theta"]) < 1e-6


def test_search_methods_report_counted_evaluations(monkeypatch):
    calls = []

    def oracle(x):
        calls.append(x)
        return 1 - (x[0] - 1) ** 2

    for budget in (40, 500):
        calls.clear()
        rec = blackbox_optimize(oracle, 1, budget=budget, seed=3)
        assert rec.evaluations == len(calls) > 0

    calls.clear()

    def build(params):
        calls.append(params)
        return build_ad_circuit(params[0])

    rec = full_circuit_tailor(amplitude_damping(0.3), ParametricCircuit(1, build),
                              optimizer=OptimizerConfig(restarts=2, max_evals_per_restart=30,
                                                        seed=5),
                              seeds=[np.array([0.7])])
    assert rec.evaluations == len(calls) > 0
    # every start is run and counted: the seed, then each seeded random draw
    starts = [np.array([0.7]), *0.5 * np.random.default_rng(5).standard_normal((2, 1))]
    assert all(any(np.array_equal(x, c) for c in calls) for x in starts)

    # every fidelity of both stages, value or gradient, each stacked member once
    counted = [0]
    members = {}

    def counting(name):
        original = getattr(tailor, name)

        def scorer(states, *args):
            counted[0] += len(states) if states.ndim == 3 else 1
            return original(states, *args)
        return scorer

    for name in ("_fidelities", "uhlmann_gradient"):
        monkeypatch.setattr(tailor, name, counting(name))
    stage_one = tailor.optimize_block_pair_mixture

    def first_stage(*args):
        members["dictionary"] = -counted[0]
        rec = stage_one(*args)
        members["dictionary"] += counted[0]
        return rec

    monkeypatch.setattr(tailor, "optimize_block_pair_mixture", first_stage)
    cfg = BuildingBlockConfig(placement="interleaved", mixture_size=1, ancilla_dim=2,
                              noisy_blocks=False,
                              optimizer=OptimizerConfig(restarts=2, max_evals_per_restart=40))
    rec = building_block_optimize(bit_flip(0.95), compose(rotation_noise_b(0.8), bit_flip(0.95)),
                                  None, cfg)
    assert rec.evaluations == counted[0]
    assert rec.details["dictionary_evaluations"] == members["dictionary"] > 0
    # the start from the dictionary mixture stops on its 40-evaluation cap
    assert rec.details["search_evaluations"] == counted[0] - members["dictionary"] > 40
    assert not rec.converged
    assert rec.details["dictionary_capped"] is False


# -- full-circuit tailoring --------------------------------------------------------


def test_full_circuit_degenerate_recovers_default():
    theta0 = 1.1

    def build(params):
        return build_ad_circuit(params[0])

    template = ParametricCircuit(n_params=1, build=build)
    from channel_forge.circuits import extract_channel

    target = extract_channel(build_ad_circuit(theta0)).channel
    rec = full_circuit_tailor(target, template,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=150),
                              seeds=[np.array([theta0])])
    assert rec.achieved_fidelity > 1 - 1e-9


@pytest.mark.parametrize("case", ["one-angle", "fig6b"])
def test_full_circuit_k1_matches_theta_tailor(case):
    """Seeded with the theta-only optimum, the full template does at least as
    well: the one-angle template, and fig6b's seven angles without its max()."""
    if case == "one-angle":
        gamma, hw, tol = 0.3, BlockModel(depolarizing_white(0.85)), 1e-9
        template = ParametricCircuit(n_params=1, build=lambda params: build_ad_circuit(params[0]))
        optimizer = OptimizerConfig(restarts=1, max_evals_per_restart=120)
    else:
        gamma, hw, tol = 0.5, fig6b_noise_model(), 1e-12
        template = _ad_full_template()
        optimizer = OptimizerConfig(restarts=3, max_evals_per_restart=500)
    target = amplitude_damping(gamma)
    theta_rec = theta_tailor(target, lambda th: build_ad_circuit(th), hw)
    seed = np.zeros(template.n_params)
    seed[0] = theta_rec.circuit_params["theta"]
    rec = full_circuit_tailor(target, template, hw, optimizer=optimizer, seeds=[seed])
    assert rec.achieved_fidelity >= theta_rec.achieved_fidelity - tol


def test_full_circuit_tailor_refuses_a_template_that_never_runs():
    # 7 data qubits: a Choi state of dimension 16384, over the engine cap at every point
    def build(params):
        return Circuit(wires=[(f"q{i}", 2) for i in range(7)]).gate(rx(params[0]), [0])

    template = ParametricCircuit(1, build, name="seven-qubit")
    with pytest.raises(ChannelError, match="seven-qubit.*exceeds engine cap"):
        full_circuit_tailor(Channel.identity(2), template,
                            optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=5))


# -- building blocks ----------------------------------------------------------------


def test_building_block_trivial_no_noise():
    target = bit_flip(0.9)
    cfg = BuildingBlockConfig(mixture_size=1, ancilla_dim=2,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=100))
    rec = building_block_optimize(target, target, None, cfg)
    assert rec.achieved_fidelity > 1 - 1e-12  # the skip corner reaches the target exactly


def test_building_block_never_below_direct():
    q = 0.9
    noise = rotation_noise_b(q)
    target = bit_flip(0.95)
    noisy_input = compose(noise, target)
    direct = choi_fidelity(noisy_input, target)
    cfg = BuildingBlockConfig(placement="interleaved", mixture_size=1, ancilla_dim=2,
                              noisy_blocks=True,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=150))
    rec = building_block_optimize(target, noisy_input, BlockModel(noise), cfg)
    assert rec.achieved_fidelity >= direct - 1e-9


def test_building_block_placements():
    target = dephasing(0.8)
    noisy_input = compose(depolarizing_white(0.95), target)
    for placement in ("pre", "post", "interleaved"):
        cfg = BuildingBlockConfig(placement=placement, mixture_size=1, ancilla_dim=2,
                                  optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=80))
        rec = building_block_optimize(target, noisy_input,
                                      BlockModel(depolarizing_white(0.95)), cfg)
        assert rec.achieved_fidelity >= choi_fidelity(noisy_input, target) - 1e-9
    with pytest.raises(ChannelError):
        building_block_optimize(target, noisy_input, None,
                                BuildingBlockConfig(placement="middle"))


def test_optimize_block_pair_mixture_twirl_beats_direct():
    q = 0.8
    noise = rotation_noise_b(q)
    target = bit_flip(0.95)
    noisy_input = compose(noise, target)
    direct = choi_fidelity(noisy_input, target)
    rec = optimize_block_pair_mixture(target, noisy_input, standard_block_dictionary(2),
                                      decorator=None)
    assert rec.achieved_fidelity > direct + 1e-4
    assert abs(rec.mixture.sum() - 1) < 1e-9


# fig6c's Pauli-probability optimum as multi-start Nelder-Mead over softmax logits found it
PAULI_NELDER_MEAD = {0.5: 0.9846889225862964, 0.8: 0.9311954518970529, 0.9: 0.8836318341983064}


@pytest.mark.parametrize("s", sorted(PAULI_NELDER_MEAD))
def test_mixture_solver_reaches_the_rank_deficient_pauli_optimum(s):
    noise = fig6c_noise()
    chois = np.array([compose(noise, Channel.from_unitary(p)).choi for p in pauli_operators(1)])
    probs, f, _, converged = tailor.maximize_mixture_fidelity(chois, depolarizing_white(s).choi)
    assert f >= PAULI_NELDER_MEAD[s] - 1e-9
    assert converged
    if s == 0.5:
        assert probs[3] == 0.0  # the optimum lies on the face p_Z = 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), dim=st.sampled_from([2, 3]))
def test_mixture_solver_returns_a_scored_distribution_at_least_its_best_vertex(seed, n, dim):
    rng = np.random.default_rng(seed)
    chois = np.array([random_channel(dim, int(rng.integers(1, dim * dim + 1)), rng).choi
                      for _ in range(n)])
    target = random_channel(dim, int(rng.integers(1, dim * dim + 1)), rng).choi
    counted = [0]
    original = tailor._fidelities

    def scorer(states, target_choi):
        counted[0] += len(states) if states.ndim == 3 else 1
        return original(states, target_choi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tailor, "_fidelities", scorer)
        probs, f, evaluations, converged = tailor.maximize_mixture_fidelity(chois, target)
    assert evaluations == counted[0]
    assert f >= np.max(tailor._fidelities(chois, target))
    assert probs.min() >= 0.0 and abs(probs.sum() - 1) <= 1e-12
    assert f == tailor._fidelities(np.einsum("v,vpq->pq", probs, chois), target)
    if converged:
        probes = probs + 1e-6 * (np.eye(n) - probs)
        gains = tailor._fidelities(np.einsum("mv,vpq->mpq", probes, chois), target) - f
        assert gains.max() <= 1e-14


def test_recipe_mixture_is_distribution():
    target = bit_flip(0.9)
    cfg = BuildingBlockConfig(mixture_size=2, ancilla_dim=2,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=100))
    rec = building_block_optimize(target, compose(dephasing(0.9), target),
                                  BlockModel(dephasing(0.9)), cfg)
    assert rec.mixture is not None
    assert np.all(rec.mixture >= -1e-9)
    assert abs(rec.mixture.sum() - 1) < 1e-9
    for ch in rec.pre_channels + rec.post_channels:
        assert validate_cptp(ch).passed


def test_standard_block_dictionary_is_pauli_conjugations_and_rotations():
    rotations = [Channel.from_unitary((np.eye(2) - 1j * p) / np.sqrt(2))
                 for p in pauli_operators(1)[1:]]
    one_qubit = standard_block_dictionary(2)
    assert [ch.choi.tobytes() for ch in one_qubit] == [
        ch.choi.tobytes() for ch in pauli_conjugations() + rotations]
    two_qubit = standard_block_dictionary(4)
    assert len(two_qubit) == 16 + 15
    for ch, p in zip(two_qubit, pauli_operators(2)):
        assert np.array_equal(ch.kraus()[0], p)
    assert standard_block_dictionary(3) == []


@pytest.mark.parametrize("decorated", [False, True])
@pytest.mark.parametrize("placement", ["pre", "post", "interleaved"])
def test_block_gradient_matches_central_differences(placement, decorated):
    rng = np.random.default_rng(5)
    d, n_kraus, starts = 2, 2, 3
    n_post = 2 if placement != "pre" else 0
    n_pre = 2 if placement != "post" else 0
    decorator = random_channel(d, 2, rng) if decorated else None
    input_sup = random_channel(d, 3, rng).superop()
    target = random_channel(d, 4, rng).choi  # full rank, so F is smooth everywhere
    kraus = np.array([[tailor._kraus_isometry(random_channel(d, n_kraus, rng), n_kraus)
                       for _ in range(n_post + n_pre)] for _ in range(starts)])
    probs = rng.dirichlet(np.ones((n_post + 1) * (n_pre + 1)), size=starts)
    probs = probs.reshape(starts, n_post + 1, n_pre + 1)

    def fidelity(kr):
        sups = tailor._stack_superops(kr, decorator)
        return tailor._mixture_fidelity(input_sup, sups[:, :n_post], sups[:, n_post:], probs,
                                        target)

    sups = tailor._stack_superops(kraus, decorator)
    rho = tailor._mixture_chois(input_sup, sups[:, :n_post], sups[:, n_post:], probs)
    grad = uhlmann_gradient(rho, hermitian_sqrt(target))
    h = 1e-5
    for k in range(n_post + n_pre):
        euclid = tailor._block_gradient(input_sup, decorator, n_post, sups, probs, grad, k,
                                        kraus[:, k])
        z = rng.standard_normal(euclid.shape) + 1j * rng.standard_normal(euclid.shape)
        plus, minus = kraus.copy(), kraus.copy()
        plus[:, k] += h * z
        minus[:, k] -= h * z
        numeric = (fidelity(plus) - fidelity(minus)) / (2 * h)
        analytic = np.sum((euclid.conj() * z).real, axis=(-2, -1))
        assert np.all(np.abs(numeric - analytic) <= 1e-6 * np.abs(analytic))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), placement=st.sampled_from(["pre", "post", "interleaved"]),
       noisy=st.booleans())
def test_building_block_result_bounds_its_stages_and_is_a_valid_recipe(seed, placement, noisy):
    rng = np.random.default_rng(seed)
    target = random_channel(2, int(rng.integers(1, 5)), rng)
    noise = random_channel(2, 2, rng)
    input_impl = compose(noise, target)
    cfg = BuildingBlockConfig(placement=placement, mixture_size=1, ancilla_dim=2,
                              noisy_blocks=noisy,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=40,
                                                        seed=seed % 1000))
    rec = building_block_optimize(target, input_impl, BlockModel(noise), cfg)
    decorator = noise if noisy else None
    stage_one = optimize_block_pair_mixture(target, input_impl, standard_block_dictionary(2),
                                            decorator, placement)
    direct = choi_fidelity(input_impl, target)
    assert rec.achieved_fidelity >= max(direct, stage_one.achieved_fidelity) - 1e-12
    for ch in rec.pre_channels + rec.post_channels:
        assert validate_cptp(ch).passed
    probs = rec.mixture
    assert probs.shape == (len(rec.post_channels) + 1, len(rec.pre_channels) + 1)
    assert probs.min() >= 0.0 and abs(probs.sum() - 1) < 1e-12
    # the reported fidelity is that of the returned recipe
    rescored = tailor._mixture_fidelity(
        input_impl.superop(), tailor._block_superops(rec.post_channels, decorator, 2),
        tailor._block_superops(rec.pre_channels, decorator, 2), probs, target.choi)
    assert abs(rescored - rec.achieved_fidelity) < 1e-12


def test_building_block_names_the_candidate_it_returns():
    # blocks after a rotation-noise bit flip only add noise: the direct corner wins
    noise = rotation_noise_b(0.8)
    target = bit_flip(0.95)
    cfg = BuildingBlockConfig(placement="post", mixture_size=2, ancilla_dim=2,
                              optimizer=OptimizerConfig(restarts=2, max_evals_per_restart=200))
    rec = building_block_optimize(target, compose(noise, target), BlockModel(noise), cfg)
    assert rec.details["candidate"] == "direct"
    assert rec.achieved_fidelity == choi_fidelity(compose(noise, target), target)
    assert not rec.post_channels and rec.mixture.tolist() == [[1.0]]
    # noiseless interleaved blocks: the seesaw beats the dictionary mixture
    cfg = BuildingBlockConfig(placement="interleaved", mixture_size=2, ancilla_dim=2,
                              noisy_blocks=False,
                              optimizer=OptimizerConfig(restarts=1, max_evals_per_restart=300))
    rec = building_block_optimize(target, compose(noise, target), BlockModel(noise), cfg)
    stage_one = optimize_block_pair_mixture(target, compose(noise, target),
                                            standard_block_dictionary(2), None)
    assert "candidate" not in rec.details
    assert rec.achieved_fidelity > stage_one.achieved_fidelity + 1e-4
    assert len(rec.post_channels) == len(rec.pre_channels) == 2


def test_two_qubit_building_block_job_runs_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(3)
    target = random_channel(4, 2, rng)
    job = {"method": "building-block", "placement": "post", "mixture_size": 1,
           "ancilla_dim": 2, "target": channel_to_dict(target),
           "hardware": {"kind": "block", "channels": [{"name": "dephasing", "p": 0.9}]},
           "budgets": {"restarts": 1, "max_evals": 30}, "seed": 4}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["tailor", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    details = out["details"]
    assert out["evaluations"] == details["dictionary_evaluations"] + details["search_evaluations"]
    assert details["dictionary_evaluations"] > 32  # the 32 vertices: skip and 31 blocks
    direct = choi_fidelity(compose(tailor._block_decorator(BlockModel(dephasing(0.9)), 4),
                                   target), target)
    assert out["achieved_fidelity"] >= direct - 1e-12
    mixture = np.array(out["mixture"])
    assert mixture.min() >= 0.0 and abs(mixture.sum() - 1) < 1e-12
    for entry in out.get("post_channels", []):
        assert entry["dim_in"] == 4


# -- black box ---------------------------------------------------------------------


def test_blackbox_quadratic():
    rec = blackbox_optimize(lambda x: 1 - (x[0] - 1) ** 2, 1, budget=500, seed=3)
    assert abs(rec.circuit_params["params"][0] - 1) < 1e-6


def test_blackbox_budget_flag():
    rec = blackbox_optimize(lambda x: -float(np.sum(x**2)), 6, budget=40, seed=1)
    assert rec.evaluations <= 41
    assert rec.details["budget_exhausted"]
    assert not rec.converged


def test_blackbox_matches_pauli_closed_form():
    spec = depolarizing_spec()
    target = PauliDiagonalSpec((0.85, 0.05, 0.05, 0.05))
    lam_closed = pauli_tailor(spec, spec, target).lam
    hw_channel = pauli_diagonal(spec)
    target_channel = pauli_diagonal(target)

    def oracle(logits):
        z = np.exp(logits - logits.max())
        probs = z / z.sum()
        ch = compose(hw_channel, compose(pauli_mixture_channel(probs), hw_channel))
        return choi_fidelity(ch, target_channel)

    rec = blackbox_optimize(oracle, 4, budget=1500, seed=11,
                            x0=np.log(np.clip(lam_closed, 1e-6, None)))
    z = np.exp(rec.circuit_params["params"] - rec.circuit_params["params"].max())
    lam_found = z / z.sum()
    assert np.max(np.abs(lam_found - lam_closed)) < 1e-3


def test_ordering_instance_f3_f1_f2():
    # hw 0.4, target 0.45: optimized circuit > multiple repeats > naive circuit
    hw_p, target_p = 0.4, 0.45
    target = amplitude_damping(target_p)
    f1 = ad_repeat_tailor(hw_p, target_p, 40, n_min=2).fidelity

    def noisy_builder(theta):
        from channel_forge.circuits import Circuit, cnot, controlled_ry

        c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
        c.gate(controlled_ry(theta), [0, 1], name="cry")
        c.channel(amplitude_damping(hw_p), [0])
        c.channel(amplitude_damping(hw_p), [1])
        c.gate(cnot(), [1, 0], name="cnot")
        c.trace_out(1)
        return c

    from channel_forge.circuits import extract_channel

    theta_naive = 2 * np.arcsin(np.sqrt(target_p))
    f2 = choi_fidelity(extract_channel(noisy_builder(theta_naive)).channel, target)
    f3 = theta_tailor(target, noisy_builder).achieved_fidelity
    assert f3 > f1 > f2
