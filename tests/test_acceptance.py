"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines including elapsed times.
"""

import time

import numpy as np

from channel_forge.channels import (
    Channel,
    choi_fidelity,
    compose,
    random_channel,
    random_density_matrix,
    validate_cptp,
)
from channel_forge.circuits import (
    Circuit,
    build_ad_circuit,
    build_bitflip_circuit_a,
    build_bitflip_circuit_b,
    cnot,
    controlled_ry,
    extract_channel,
    shift_operator,
    simulate,
)
from channel_forge.dilation import extended_qudit_routine, stinespring_dilate
from channel_forge.figures import (
    bitflip_ancilla_fidelity,
    bitflip_stochastic_fidelity,
    fig5a_rows,
    fig6a_noise_model,
    fig7c_rows,
)
from channel_forge.linalg import dagger, unvectorize, vectorize
from channel_forge.netsim import resource_estimate
from channel_forge.noise import (
    GateModel,
    PauliDiagonalSpec,
    amplitude_damping,
    apply_noise_model,
    bit_flip,
    dephasing,
    depolarizing,
    depolarizing_white,
    is_unital,
    pauli_diagonal,
)
from channel_forge.tailor import (
    Infeasible,
    ad_repeat_tailor,
    blackbox_optimize,
    pauli_mixture_channel,
    pauli_tailor,
    theta_tailor,
)

RNG = np.random.default_rng(123456)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(criterion: str, ok: bool, elapsed: float, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line


def test_criterion_01_bitflip_closed_forms():
    """Simulated Fig 7a/7b circuits match the closed forms within 1e-9."""
    with Timer() as t:
        target_grid = np.linspace(0.0, 1.0, 20)
        q_grid = np.linspace(0.0, 1.0, 20)
        p_values = [0.0, 0.25, 0.5, 0.75, 1.0]
        targets = [bit_flip(P) for P in target_grid]
        worst = 0.0
        for q in q_grid:
            gm = GateModel(depolarizing_white(q))
            for p in p_values:
                ch_a = extract_channel(apply_noise_model(build_bitflip_circuit_a(p), gm)).channel
                ch_b = extract_channel(apply_noise_model(build_bitflip_circuit_b(p), gm)).channel
                for P, target in zip(target_grid, targets):
                    fa = choi_fidelity(ch_a, target)
                    fb = choi_fidelity(ch_b, target)
                    worst = max(worst,
                                abs(fa - bitflip_stochastic_fidelity(P, p, q)),
                                abs(fb - bitflip_ancilla_fidelity(P, p, q)))
    report("1 (Appendix C closed forms)", worst < 1e-9 and t.elapsed < 10.0,
           t.elapsed, f"max |sim - formula| = {worst:.2e}")


def test_criterion_02_fig7c_ordering():
    """max_p F_b <= max_p F_a + 1e-9 over the full grid."""
    with Timer() as t:
        rows = fig7c_rows(grid=20, xatol=1e-8)
        margin = max(r["best_fidelity_ancilla"] - r["best_fidelity_stochastic"] for r in rows)
    report("2 (Fig 7c ordering)", margin <= 1e-9 and t.elapsed < 30.0,
           t.elapsed, f"max (F*_b - F*_a) = {margin:.2e} over {len(rows)} grid points")


def test_criterion_03_extended_qudit_ad_example():
    """Synthesized routine matches the printed 3x3 construction and is exact."""
    with Timer() as t:
        ok = True
        # printed-matrix match (generic gamma, D = 3)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
            k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
            routine = extended_qudit_routine([k0, k1])
            printed = np.array([
                [1, 0, 0],
                [0, np.sqrt(1 - gamma), -np.sqrt(gamma)],
                [0, np.sqrt(gamma), np.sqrt(1 - gamma)],
            ])
            ok &= routine.total_dim == 3
            for j in range(3):
                ok &= abs(abs(np.vdot(printed[:, j], routine.unitary[:, j])) - 1) < 1e-12
            ok &= np.allclose(routine.corrections[1], dagger(shift_operator(3)))
            ok &= abs(routine.overhead() - (np.log2(3) - 1)) < 1e-12
        # exactness across the full gamma sweep including endpoints
        for gamma in np.arange(0.0, 1.0001, 0.1):
            k0 = np.array([[1, 0], [0, np.sqrt(max(1 - gamma, 0.0))]], dtype=complex)
            k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
            routine = extended_qudit_routine([k0, k1])
            f = choi_fidelity(routine.channel(), amplitude_damping(gamma))
            ok &= abs(f - 1) < 1e-10
    report("3 (extended-qudit AD example)", ok and t.elapsed < 1.0, t.elapsed,
           "overhead log2(3)-1 = 0.585")


def test_criterion_04_dilation_round_trips():
    """200 random channels, both constructions, residual < 1e-9, unitarity < 1e-10."""
    with Timer() as t:
        worst_choi, worst_unitary = 0.0, 0.0
        count = 0
        i = 0
        while count < 200:
            d = (2, 3, 4)[i % 3]
            r = (i // 3) % (d * d) + 1
            i += 1
            ch = random_channel(d, r, RNG)
            dil = stinespring_dilate(ch.kraus())
            u = dil.unitary
            worst_unitary = max(worst_unitary,
                                float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))))
            worst_choi = max(worst_choi, float(np.max(np.abs(dil.channel().choi - ch.choi))))
            routine = extended_qudit_routine(ch.kraus())
            lam = routine.unitary
            worst_unitary = max(worst_unitary,
                                float(np.max(np.abs(dagger(lam) @ lam - np.eye(lam.shape[0])))))
            worst_choi = max(worst_choi,
                             float(np.max(np.abs(routine.channel().choi - ch.choi))))
            assert sum(routine.branch_ranks) <= r * d
            count += 1
    report("4 (dilation round-trips)",
           worst_choi < 1e-9 and worst_unitary < 1e-10 and t.elapsed < 60.0,
           t.elapsed, f"choi residual {worst_choi:.2e}, unitarity {worst_unitary:.2e}")


def test_criterion_05_pauli_tailoring_exactness():
    """Depolarizing P=Q=0.9: 50 feasible targets exact, 20 infeasible flagged."""
    with Timer() as t:
        white = 0.9
        spec = PauliDiagonalSpec.depolarizing((3 * white + 1) / 4)
        hw_channel = pauli_diagonal(spec)
        pq = white * white
        lo, hi = (1 - pq) / 4, pq + (1 - pq) / 4
        worst = 0.0
        for _ in range(50):
            lam = RNG.dirichlet(np.ones(4))
            target_probs = pq * lam + (1 - pq) / 4
            target = PauliDiagonalSpec(tuple(target_probs))
            res = pauli_tailor(spec, spec, target)
            assert not isinstance(res, Infeasible)
            composed = compose(hw_channel,
                               compose(pauli_mixture_channel(res.lam), hw_channel))
            worst = max(worst, float(np.max(np.abs(composed.choi
                                                   - pauli_diagonal(target).choi))))
        infeasible_count = 0
        for k in range(20):
            if k % 2 == 0:
                top = hi + 0.01 + 0.02 * RNG.random()
                rest = RNG.dirichlet(np.ones(3)) * (1 - top)
                probs = np.concatenate([[top], rest])
            else:
                low = max(lo - 0.01 - 0.02 * RNG.random(), 0.0)
                rest = RNG.dirichlet(np.ones(3)) * (1 - low)
                probs = np.concatenate([[low], rest])
                # ensure at least one coordinate leaves the window
                if np.all((probs >= lo - 1e-12) & (probs <= hi + 1e-12)):
                    probs[1] = hi + 0.02
                    probs[2:] *= (1 - probs[0] - probs[1]) / probs[2:].sum()
            res = pauli_tailor(spec, spec, PauliDiagonalSpec(tuple(probs)))
            infeasible_count += isinstance(res, Infeasible)
        ok = worst < 1e-10 and infeasible_count == 20
    report("5 (Pauli tailoring exactness)", ok and t.elapsed < 10.0, t.elapsed,
           f"worst residual {worst:.2e}, {infeasible_count}/20 infeasible detected")


def test_criterion_06_ad_algebra_and_ordering():
    """Composition law at 1e-12 plus the F3 > F1 > F2 instance."""
    with Timer() as t:
        worst = 0.0
        for p1 in np.linspace(0.05, 0.95, 10):
            for p2 in np.linspace(0.05, 0.95, 10):
                lhs = compose(amplitude_damping(p1), amplitude_damping(p2))
                rhs = amplitude_damping(p1 + p2 - p1 * p2)
                worst = max(worst, float(np.max(np.abs(lhs.choi - rhs.choi))))
        hw_p, target_p = 0.4, 0.45
        target = amplitude_damping(target_p)
        # F1: repeated applications of the hardware damping (genuinely multiple)
        f1 = ad_repeat_tailor(hw_p, target_p, 40, n_min=2).fidelity

        def noisy_builder(theta):
            c = Circuit(wires=[("q0", 2), ("anc", 2)], data_wires=(0,))
            c.gate(controlled_ry(theta), [0, 1], name="cry")
            c.channel(amplitude_damping(hw_p), [0])
            c.channel(amplitude_damping(hw_p), [1])
            c.gate(cnot(), [1, 0], name="cnot")
            c.trace_out(1)
            return c

        theta_naive = 2 * np.arcsin(np.sqrt(target_p))
        f2 = choi_fidelity(extract_channel(noisy_builder(theta_naive)).channel, target)
        f3 = theta_tailor(target, noisy_builder).achieved_fidelity
        ok = worst < 1e-12 and (f3 > f1 > f2)
    report("6 (AD algebra + ordering)", ok and t.elapsed < 5.0, t.elapsed,
           f"grid residual {worst:.2e}; F3={f3:.6f} > F1={f1:.6f} > F2={f2:.6f}")


def test_criterion_07_method1_improvement():
    """Fig 5a inequalities at every q in {0.80, ..., 1.00} step 0.02."""
    with Timer() as t:
        rows = fig5a_rows(seed=0)
        ok = True
        for r in rows:
            ok &= r["interleaved_noisy_infidelity"] <= r["direct_infidelity"] + 1e-12
            ok &= (r["interleaved_noiseless_infidelity"]
                   <= r["interleaved_noisy_infidelity"] + 1e-12)
    report("7 (Method-1 improvement)", ok and t.elapsed < 600.0, t.elapsed,
           f"{len(rows)} q points")


def test_criterion_08_method2_method3_agreement():
    """Black box recovers the tailored rotation angle within 1e-3."""
    with Timer() as t:
        hw = fig6a_noise_model()
        ok = True
        details = []
        for gamma in (0.1, 0.5, 0.9):
            target = amplitude_damping(gamma)
            rec2 = theta_tailor(target, lambda th: build_ad_circuit(th), hw)

            def oracle(params):
                c = apply_noise_model(build_ad_circuit(float(params[0])), hw)
                return choi_fidelity(extract_channel(c).channel, target)

            rec3 = blackbox_optimize(oracle, 1, budget=250, seed=42,
                                     x0=np.array([2 * np.arcsin(np.sqrt(gamma))]))
            gap = abs(rec3.circuit_params["params"][0] - rec2.circuit_params["theta"])
            details.append(f"gamma={gamma}: gap {gap:.2e}")
            ok &= gap < 1e-3
    report("8 (Method-2/3 agreement)", ok and t.elapsed < 120.0, t.elapsed,
           "; ".join(details))


def test_criterion_09_invariant_suites():
    """Cross-module invariants with zero failures."""
    with Timer() as t:
        ok = True
        # channel-core round trips and composition homomorphism, 100 pairs
        for _ in range(100):
            d = int(RNG.integers(2, 4))
            a = random_channel(d, int(RNG.integers(1, d * d + 1)), RNG)
            b = random_channel(d, int(RNG.integers(1, d * d + 1)), RNG)
            comp = compose(b, a)
            ok &= float(np.max(np.abs(comp.superop() - b.superop() @ a.superop()))) < 1e-10
        for _ in range(30):
            ch = random_channel(2, int(RNG.integers(1, 5)), RNG)
            once = Channel.from_kraus(ch.kraus())
            twice = Channel.from_kraus(once.kraus())
            ok &= float(np.max(np.abs(once.choi - twice.choi))) < 1e-10
            rho = random_density_matrix(2, RNG)
            via = unvectorize(ch.superop() @ vectorize(rho))
            ok &= float(np.max(np.abs(ch.apply(rho) - via))) < 1e-10
        # CPTP validation across factory grid
        for p in np.linspace(0, 1, 11):
            for factory in (dephasing, depolarizing, amplitude_damping, bit_flip):
                ok &= validate_cptp(factory(p)).passed
        # unitality
        ok &= all(is_unital(f(0.85)) for f in (dephasing, depolarizing, bit_flip))
        ok &= not is_unital(amplitude_damping(0.85))
        # deferred-measurement equivalence (noiseless)
        for gamma in (0.2, 0.6):
            theta = 2 * np.arcsin(np.sqrt(gamma))
            ca = extract_channel(build_ad_circuit(theta, "unitary-cnot")).channel
            cb = extract_channel(build_ad_circuit(theta, "measure-feedback")).channel
            ok &= float(np.max(np.abs(ca.choi - cb.choi))) < 1e-10
        # circuit-sim trace preservation under noise
        gm = GateModel(depolarizing_white(0.9))
        noisy = apply_noise_model(build_ad_circuit(1.2, "measure-feedback"), gm)
        out = simulate(noisy, random_density_matrix(2, RNG))
        ok &= abs(float(np.trace(out).real) - 1) < 1e-10
        # netsim trace preservation
        from channel_forge.circuits import (ChannelOp, ConditionalGate, Gate, Measure, TraceOut,
                                            hadamard)
        from channel_forge.netsim import NetworkScenario, run_scenario

        scenario = NetworkScenario(
            initial_registers=[("a", 2), ("b", 2)],
            events=[Gate(hadamard(), ("a",)),
                    Gate(cnot(), ("a", "b")),
                    ChannelOp(dephasing(0.8), ("b",)),
                    Measure("a", "m"),
                    ConditionalGate(np.array([[0, 1], [1, 0]], dtype=complex), ("b",), "m", 1),
                    TraceOut("a")],
        )
        rep = run_scenario(scenario)
        ok &= abs(rep.final_trace - 1) < 1e-10
    report("9 (invariant suites)", ok and t.elapsed < 120.0, t.elapsed)


def test_criterion_10_resource_arithmetic():
    """Purification resource counts match the quoted sizes."""
    with Timer() as t:
        est = resource_estimate(10, 3, 1)
        ok = est.active_qubits == 30 and est.qubits_required == 60
    report("10 (resource arithmetic)", ok and t.elapsed < 1.0, t.elapsed,
           f"active={est.active_qubits}, total={est.qubits_required}")
