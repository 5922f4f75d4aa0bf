"""StateEngine against a full-space reference.

The reference embeds each local operator into the whole register by a
Kronecker product with the identity on the other wires, then undoes the
wire permutation, and applies ``sum_i K rho K^dag`` on the full matrix.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from channel_forge import engine as engine_module
from channel_forge.channels import (ChannelError, kraus_to_superop, random_channel,
                                    random_density_matrix)
from channel_forge.circuits import build_ad_circuit, circuit_to_dict
from channel_forge.cli import main
from channel_forge.engine import StateEngine, _contract
from channel_forge.noise import amplitude_damping, erasure

ATOL = 1e-12

SETTINGS = settings(max_examples=40, deadline=None)


def embed(op, dims, axes, out_dims=None):
    """Full-register matrix of ``op`` acting on ``axes`` (in that order)."""
    n = len(dims)
    in_dims = [dims[a] for a in axes]
    out_dims = in_dims if out_dims is None else out_dims
    rest = [a for a in range(n) if a not in axes]
    rest_dims = [dims[a] for a in rest]
    full = np.kron(op, np.eye(int(np.prod(rest_dims)), dtype=complex))
    order = list(axes) + rest  # factor j of ``full`` is register axis order[j]
    t = full.reshape(list(out_dims) + rest_dims + in_dims + rest_dims)
    perm = [order.index(i) for i in range(n)]
    t = t.transpose(perm + [n + p for p in perm])
    new_dims = list(dims)
    for a, d in zip(axes, out_dims):
        new_dims[a] = d
    return t.reshape(int(np.prod(new_dims)), int(np.prod(dims)))


def apply_reference(rho, kraus, dims, axes, out_dims=None):
    ops = [embed(k, dims, axes, out_dims) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in ops)


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r).real)


@st.composite
def registers(draw, max_wires=3, max_k=2, wire_dims=(2, 3)):
    """(dims, wire positions acted on, rng) over a mixed register, qubits and qutrits by default."""
    dims = draw(st.lists(st.sampled_from(wire_dims), min_size=1, max_size=max_wires))
    k = draw(st.integers(1, min(max_k, len(dims))))
    axes = draw(st.permutations(range(len(dims))))[:k]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dims, list(axes), rng


def fresh_engine(dims, rng):
    eng = StateEngine()
    rho = random_density_matrix(int(np.prod(dims)), rng)
    handles = eng.add_wires(dims, state=rho)
    return eng, handles, rho


def assert_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) < ATOL


def contract_reference(t, m, axes, out_dims):
    """The engine kernel as it was first written: one tensordot, one moveaxis."""
    k = len(axes)
    in_dims = [t.shape[a] for a in axes]
    m = m.reshape(list(out_dims) + in_dims)
    t = np.tensordot(m, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(t, list(range(k)), list(axes))


def planted_zeros(shape, rng):
    """Random complex entries, about a quarter of the real and of the imaginary
    parts replaced by -0.0 and as many by +0.0."""
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (a.real, a.imag):
        u = rng.random(shape)
        part[u < 0.25] = -0.0
        part[(u >= 0.25) & (u < 0.5)] = 0.0
    return a


def assert_same_bits(a, b):
    """Equal values, equal signs of zero, and the same memory layout."""
    assert a.shape == b.shape and a.strides == b.strides
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.booleans(), st.booleans(),
       st.data())
def test_contract_is_tensordot_and_moveaxis_bit_for_bit(dims, superop, strided, data):
    """On a density-matrix tensor, as the engine calls it: a superoperator into
    the row and column axes at once, or one operator into the rows, optionally
    on a transposed view, as the second half of ``K rho K^dagger`` gets it."""
    n = len(dims)
    k = data.draw(st.integers(1, min(3, n)))
    axes = data.draw(st.permutations(range(n)))[:k]
    out_dims = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = dims + dims
    if strided:
        order = data.draw(st.permutations(range(2 * n)))
        t = planted_zeros([shape[i] for i in order], rng).transpose(np.argsort(order))
    else:
        t = planted_zeros(shape, rng)
    if superop:
        axes, out_dims = axes + [n + a for a in axes], out_dims * 2
    d_in = int(np.prod([shape[a] for a in axes]))
    m = planted_zeros((int(np.prod(out_dims)), d_in), rng)
    assert_same_bits(_contract(t, m, axes, out_dims), contract_reference(t, m, axes, out_dims))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.booleans(), st.booleans(),
       st.integers(1, 3), st.data())
def test_batched_contract_is_the_unbatched_contract_per_member(dims, superop, stacked, batch,
                                                               data):
    """Each member of a batched contraction has the bits of its own unbatched
    one, under one operator shared by the batch or one operator per member."""
    n = len(dims)
    k = data.draw(st.integers(1, min(3, n)))
    axes = data.draw(st.permutations(range(n)))[:k]
    out_dims = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = dims + dims
    t = planted_zeros([batch] + shape, rng)
    if superop:
        axes, out_dims = axes + [n + a for a in axes], out_dims * 2
    d_in = int(np.prod([shape[a] for a in axes]))
    m = planted_zeros(([batch] if stacked else []) + [int(np.prod(out_dims)), d_in], rng)
    out = _contract(t, m, [1 + a for a in axes], out_dims, batched=True)
    for i in range(batch):
        alone = _contract(t[i], m[i] if stacked else m, axes, out_dims)
        assert np.array_equal(out[i], alone)
        assert np.array_equal(np.signbit(out[i].real), np.signbit(alone.real))
        assert np.array_equal(np.signbit(out[i].imag), np.signbit(alone.imag))


def test_measure_refuses_a_batch(monkeypatch):
    eng = StateEngine()
    eng.add_wires([2], state=np.stack([random_density_matrix(2, np.random.default_rng(i))
                                       for i in range(3)]))
    assert eng.batch == (3,)
    with pytest.raises(ChannelError, match="cannot measure a batch"):
        eng.measure(0, "m")
    # the budget counts every member: 3 states of dimension 4 take 768 bytes
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", 767)
    with pytest.raises(ChannelError, match="3 state"):
        eng.add_wires([2])


@SETTINGS
@given(registers(), st.integers(1, 3))
def test_channel_matches_reference(reg, rank):
    dims, axes, rng = reg
    d = int(np.prod([dims[a] for a in axes]))
    ch = random_channel(d, min(rank, d * d), rng)
    eng, handles, rho = fresh_engine(dims, rng)
    eng.apply_channel(ch, [handles[a] for a in axes])
    assert_close(eng.mixed_state(), apply_reference(rho, ch.kraus(), dims, axes))


@SETTINGS
@given(registers())
def test_unitary_matches_reference(reg):
    dims, axes, rng = reg
    u = random_unitary(int(np.prod([dims[a] for a in axes])), rng)
    eng, handles, rho = fresh_engine(dims, rng)
    eng.apply_unitary(u, [handles[a] for a in axes])
    assert_close(eng.mixed_state(), apply_reference(rho, [u], dims, axes))


@SETTINGS
@given(registers(max_wires=5, max_k=5))
def test_wide_unitary_matches_reference(reg):
    """Above SUPEROP_MAX_DIM local dimensions a unitary is applied as U rho U^dag."""
    dims, axes, rng = reg
    u = random_unitary(int(np.prod([dims[a] for a in axes])), rng)
    eng, handles, rho = fresh_engine(dims, rng)
    eng.apply_unitary(u, [handles[a] for a in axes])
    assert_close(eng.mixed_state(), apply_reference(rho, [u], dims, axes))


def test_eight_qubit_gate_builds_no_superoperator(monkeypatch):
    """Its superoperator would be 256^4 x 16 bytes = 64 GiB."""
    built = []

    def recording(ops):
        built.append(ops[0].shape)
        return kraus_to_superop(ops)

    monkeypatch.setattr(engine_module, "kraus_to_superop", recording)
    rng = np.random.default_rng(3)
    dims = [2] * 8
    axes = [7, 0, 3, 1, 6, 2, 5, 4]
    u = random_unitary(256, rng)
    eng, handles, rho = fresh_engine(dims, rng)
    eng.apply_unitary(u, [handles[a] for a in axes])
    assert built == []
    assert_close(eng.mixed_state(), apply_reference(rho, [u], dims, axes))
    eng.apply_unitary(np.eye(8), handles[:3])
    assert built == [(8, 8)]


@SETTINGS
@given(registers(max_k=1, wire_dims=(2, 3, 9)))
def test_reset_matches_reference(reg):
    dims, (ax,), rng = reg
    d = dims[ax]
    kraus = [np.outer(np.eye(d)[0], np.eye(d)[k]) for k in range(d)]
    eng, handles, rho = fresh_engine(dims, rng)
    eng.reset(handles[ax])
    assert_close(eng.mixed_state(), apply_reference(rho, kraus, dims, [ax]))


@SETTINGS
@given(registers(max_k=1), st.floats(0.0, 1.0))
def test_erasure_changes_dimension(reg, p):
    dims, (ax,), rng = reg
    ch = erasure(p, dims[ax])
    eng, handles, rho = fresh_engine(dims, rng)
    eng.apply_channel(ch, [handles[ax]])
    new_dims = list(dims)
    new_dims[ax] += 1
    assert eng.dims == new_dims
    expected = apply_reference(rho, ch.kraus(), dims, [ax], [dims[ax] + 1])
    assert_close(eng.mixed_state(), expected)


def projectors(d):
    return [np.diag((np.arange(d) == k).astype(complex)) for k in range(d)]


@SETTINGS
@given(registers(max_k=1, wire_dims=(2, 3, 9)))
def test_measure_splits_by_born_rule(reg):
    dims, (ax,), rng = reg
    eng, handles, rho = fresh_engine(dims, rng)
    eng.measure(handles[ax], "m")
    probs = {}
    for b in eng.branches:
        proj = embed(projectors(dims[ax])[b.records["m"]], dims, [ax])
        p = float(np.trace(proj @ rho).real)
        assert abs(b.prob - p) < ATOL
        assert_close(b.rho, proj @ rho @ proj / p)
        probs[b.records["m"]] = b.prob
    assert abs(sum(probs.values()) - 1) < ATOL
    logged = {o: p for r, o, p in eng.measurement_log if r == "m"}
    assert sum(logged.values()) == pytest.approx(1.0, abs=ATOL)


@SETTINGS
@given(registers(max_wires=3, max_k=2), st.integers(0, 2), st.booleans())
def test_conditional_ops_touch_only_matching_branches(reg, value, as_channel):
    dims, axes, rng = reg
    dims = [2] + dims  # wire 0 is measured, the op acts on the others
    axes = [a + 1 for a in axes]
    eng, handles, rho = fresh_engine(dims, rng)
    eng.measure(handles[0], "m")
    before = {b.records["m"]: b.rho.copy() for b in eng.branches}
    wires = [handles[a] for a in axes]
    d = int(np.prod([dims[a] for a in axes]))
    if as_channel:
        op = random_channel(d, 2, rng)
        kraus, apply = op.kraus(), eng.apply_conditional_channel
    else:
        kraus = [random_unitary(d, rng)]
        op, apply = kraus[0], eng.apply_conditional_unitary
    if value >= dims[0]:  # not an outcome of the measured qubit: refused, nothing touched
        with pytest.raises(ChannelError, match="not an outcome"):
            apply(op, wires, "m", value)
    else:
        apply(op, wires, "m", value)
    for b in eng.branches:
        outcome = b.records["m"]
        if outcome == value:
            expected = apply_reference(before[outcome], kraus, dims, axes)
        else:
            expected = before[outcome]
        assert_close(b.rho, expected)


def test_conditional_on_unmeasured_register_raises():
    eng = StateEngine()
    h = eng.add_wires([2])
    with pytest.raises(ChannelError, match="unmeasured"):
        eng.apply_conditional_unitary(np.eye(2), h, "m", 0)


@pytest.mark.parametrize("op", [
    lambda eng, h: eng.apply_unitary(np.eye(4), [h[0], h[0]]),
    lambda eng, h: eng.apply_unitary(np.eye(2), [h[1]]),
    lambda eng, h: eng.apply_unitary(np.eye(6), [h[0]]),
    lambda eng, h: eng.apply_channel(amplitude_damping(0.1), [h[1]]),
    lambda eng, h: eng.apply_channel(erasure(0.1, 6), [h[0], h[1]]),
    lambda eng, h: eng.apply_conditional_channel(erasure(0.1), [h[0]], "m", 0),
    lambda eng, h: eng.apply_conditional_unitary(np.eye(3), [h[0]], "m", 0),
])
def test_mismatched_operation_raises_and_leaves_state(op):
    eng = StateEngine()
    h = eng.add_wires([2, 3], state=np.eye(6) / 6)
    eng.measure(h[0], "m")
    before = [b.rho.copy() for b in eng.branches]
    with pytest.raises(ChannelError):
        op(eng, h)
    assert eng.dims == [2, 3]
    for b, rho in zip(eng.branches, before):
        assert_close(b.rho, rho)


# -- memory budget -----------------------------------------------------------


def state_bytes(dim, branches=1):
    return branches * dim * dim * 16


def test_add_wires_checks_budget(monkeypatch):
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", state_bytes(4))
    eng = StateEngine()
    eng.add_wires([2, 2])
    with pytest.raises(ChannelError, match="budget"):
        eng.add_wires([2])
    assert eng.dims == [2, 2]


def test_adding_no_wires_keeps_every_branch_state():
    eng = StateEngine()
    eng.add_wires([2, 2])
    rho = eng.branches[0].rho
    assert eng.add_wires([]) == []
    assert eng.branches[0].rho is rho and eng.dims == [2, 2]


def test_measure_checks_budget(monkeypatch):
    """Measuring holds the old branches, the new ones and the outcome being formed."""
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", state_bytes(4, branches=4))
    eng = StateEngine()
    h = eng.add_wires([2, 2], state=np.eye(4) / 4)
    eng.measure(h[0], "a")
    assert len(eng.branches) == 2
    before = [b.rho.copy() for b in eng.branches]
    with pytest.raises(ChannelError, match="budget"):
        eng.measure(h[1], "b")
    assert len(eng.branches) == 2
    for b, rho in zip(eng.branches, before):
        assert_close(b.rho, rho)


def test_measure_holds_one_projector_at_a_time():
    """A 128-level wire in a basis state: one projector and a few 0.25 MB
    states are held at once, not all 128 projectors (33 MB)."""
    d = 128
    state = np.zeros((d, d), dtype=complex)
    state[5, 5] = 1.0
    eng = StateEngine()
    h = eng.add_wires([d], state=state)
    tracemalloc.start()
    try:
        eng.measure(h[0], "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [b.records for b in eng.branches] == [{"m": 5}]
    assert peak < 2 * 1024**2


def test_measure_lists_new_branches_branch_major():
    eng = StateEngine()
    h = eng.add_wires([2, 3], state=np.eye(6) / 6)
    eng.measure(h[0], "a")
    eng.measure(h[1], "b")
    assert [(b.records["a"], b.records["b"]) for b in eng.branches] == [
        (a, b) for a in range(2) for b in range(3)]


def test_dimension_change_checks_budget(monkeypatch):
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", state_bytes(4))
    eng = StateEngine()
    h = eng.add_wires([2, 2])
    with pytest.raises(ChannelError, match="budget"):
        eng.apply_channel(erasure(0.5), [h[0]])
    assert eng.dims == [2, 2]
    eng.apply_channel(amplitude_damping(0.5), [h[0]])


def test_cli_exits_2_over_budget(tmp_path, monkeypatch, capsys):
    circuit = build_ad_circuit(1.0, "measure-feedback")
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circuit_to_dict(circuit)))
    assert main(["simulate", str(path), "--state", "1"]) == 0
    dim = int(np.prod(circuit.wire_dims()))
    monkeypatch.setattr(engine_module, "MAX_STATE_BYTES", state_bytes(dim))
    capsys.readouterr()
    assert main(["simulate", str(path), "--state", "1"]) == 2
    assert "budget" in capsys.readouterr().err


def run_program(dims, program, rng_seed, read_every_state):
    """Run ``program`` (see the test below) on an engine seeded with a random
    state; with ``read_every_state``, read each branch's ``rho`` after every
    operation, which copies it into matrix order."""
    rng = np.random.default_rng(rng_seed)
    eng = StateEngine()
    h = eng.add_wires(dims, state=random_density_matrix(int(np.prod(dims)), rng))
    for i, (kind, wires) in enumerate(program):
        local = int(np.prod([eng.dims[eng.axis_of(h[w])] for w in wires]))
        if kind == "unitary":
            eng.apply_unitary(random_unitary(local, rng), [h[w] for w in wires])
        elif kind == "channel":
            eng.apply_channel(random_channel(local, 2, rng), [h[w] for w in wires])
        elif kind == "reset":
            eng.reset(h[wires[0]])
        elif kind == "measure":
            eng.measure(h[wires[0]], f"m{i}")
        elif kind == "conditional" and eng.measurement_log:
            register, value, _ = eng.measurement_log[-1]
            eng.apply_conditional_unitary(random_unitary(local, rng), [h[w] for w in wires],
                                          register, value)
        if read_every_state:
            for b in eng.branches:
                b.rho
    return eng


def programs(n):
    """Up to six steps of ``run_program`` on ``n`` wires; channels, resets and
    measurements take one wire."""
    step = st.tuples(st.sampled_from(["unitary", "channel", "reset", "measure", "conditional"]),
                     st.permutations(range(n)).flatmap(
                         lambda p: st.integers(1, n).map(lambda k: p[:k])))
    return st.lists(step, min_size=1, max_size=6).map(lambda program: [
        (kind, wires[:1] if kind in ("channel", "reset", "measure") else wires)
        for kind, wires in program])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3), st.data())
def test_states_kept_in_contraction_order_evolve_bit_for_bit(dims, data):
    """Branch states stay in the axis order of their last contraction until
    read. An engine whose states are all copied into matrix order after every
    operation must reach the same bits: wide operators (applied as
    K rho K^dagger), measurements, conditional gates and resets included."""
    program = data.draw(programs(len(dims)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    lazy, eager = (run_program(dims, program, seed, read) for read in (False, True))
    assert lazy.measurement_log == eager.measurement_log
    assert [b.prob for b in lazy.branches] == [b.prob for b in eager.branches]
    a, b = (np.ascontiguousarray(e.mixed_state()) for e in (lazy, eager))
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("dims", [[4, 4], [2, 6], [3, 2, 4]])
def test_reset_after_the_other_wires_keeps_the_bits_of_matrix_order(dims):
    """After an operation on every other wire, the reset wire's row and column
    axes are the innermost ones, so its one-row trace operator meets a state
    that reshapes into a column-major view. Summing the diagonal of a 4- or
    6-level wire, the gemv kernel BLAS takes for that view rounds differently."""
    program = [("unitary", tuple(range(len(dims) - 1))), ("reset", (len(dims) - 1,))]
    lazy, eager = (run_program(dims, program, 7, read) for read in (False, True))
    a, b = (np.ascontiguousarray(e.mixed_state()) for e in (lazy, eager))
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def panel_registers(draw):
    """Wire dims: one or two wires of 2 to 5 levels among qubits and ququarts
    of 16 levels or more, in any order, so that most contractions are wide
    enough to split into aligned panels."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=2))
    dims += draw(st.sampled_from([[4, 4], [2, 2, 4], [2, 4, 2], [2, 2, 2, 2]]))
    return list(draw(st.permutations(dims)))


@settings(max_examples=200, deadline=None)
@given(panel_registers(), st.sampled_from(["superop", "single", "trace", "prepare"]),
       st.booleans(), st.sampled_from([16, 1024, 4096]), st.data())
def test_panel_contraction_is_the_single_dot_bit_for_bit(dims, form, lazy, panel_bytes, data):
    """A gathered contraction run panel by panel has the bits of the one
    ``np.dot`` over the whole gathered matrix: superoperators and single
    operators, the one-row trace and one-column preparation of a reset, on
    states in matrix order or left in another contraction's axis order."""
    n = len(dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    wires = data.draw(st.permutations(range(n)))[:1 if form in ("trace", "prepare") else
                                                   data.draw(st.integers(1, min(2, n)))]
    in_dims = [dims[a] for a in wires]
    if form == "prepare":  # the traced-out wire has dimension 1 until it is prepared
        out_dims, dims = in_dims * 2, [1 if a in wires else d for a, d in enumerate(dims)]
    elif form == "trace":
        out_dims = [1, 1]
    else:
        out_dims = in_dims if form == "single" else in_dims * 2
    axes = list(wires) if form == "single" else list(wires) + [n + a for a in wires]
    shape = dims + dims
    if lazy:
        order = data.draw(st.permutations(range(2 * n)))
        t = planted_zeros([shape[i] for i in order], rng).transpose(np.argsort(order))
    else:
        t = planted_zeros(shape, rng)
    m = planted_zeros((int(np.prod(out_dims)), int(np.prod([shape[a] for a in axes]))), rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_module, "PANEL_BYTES", 2**62)
        whole = _contract(t, m, axes, out_dims, gather=True)
        mp.setattr(engine_module, "PANEL_BYTES", panel_bytes)
        panels = _contract(t, m, axes, out_dims, gather=True)
    event("in panels" if panels.strides != whole.strides else "one np.dot")
    assert panels.shape == whole.shape
    assert np.array_equal(np.ascontiguousarray(panels).view(np.int64),
                          np.ascontiguousarray(whole).view(np.int64))


def test_large_gathered_contraction_runs_in_aligned_panels(monkeypatch):
    """Over PANEL_BYTES, the output is laid out leading rest axes first, and
    the panels stop at the last split that keeps a multiple of PANEL_ALIGN
    columns: 2 x 4 x 48 columns split into two panels of 192, not 48."""
    t = planted_zeros([2, 2, 4, 48], np.random.default_rng(0))
    m = planted_zeros((2, 2), np.random.default_rng(1))
    monkeypatch.setattr(engine_module, "PANEL_BYTES", 16)
    out = _contract(t, m, [0], [2], gather=True)
    assert out.base.shape == (2, 2, 4 * 48)
    whole = contract_reference(t, m, [0], [2])
    assert np.array_equal(np.ascontiguousarray(out).view(np.int64),
                          np.ascontiguousarray(whole).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(panel_registers(), st.data())
def test_engine_in_panels_evolves_bit_for_bit(dims, data):
    """Whole programs (wide operators, measurements, conditional gates and
    resets) reach the same bits with states contracted in panels."""
    program = data.draw(programs(len(dims)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for panel_bytes in (2**62, 1024):
            mp.setattr(engine_module, "PANEL_BYTES", panel_bytes)
            runs.append(run_program(dims, program, seed, False))
    whole, panels = runs
    assert panels.measurement_log == whole.measurement_log
    assert [b.prob for b in panels.branches] == [b.prob for b in whole.branches]
    a, b = (np.ascontiguousarray(e.mixed_state()) for e in (panels, whole))
    assert np.array_equal(a.view(np.int64), b.view(np.int64))
