import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_forge.channels import choi_fidelity, compose
from channel_forge.linalg import (
    complete_orthonormal_columns,
    dagger,
    hermitian_eigensystem,
    hermitian_sqrt,
    max_entangled_ket,
    partial_trace,
    reshuffle,
    uhlmann_fidelity,
    unvectorize,
    vectorize,
)


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ dagger(g)


def test_hermitian_sqrt_identity():
    s = hermitian_sqrt(np.eye(3))
    assert np.allclose(s, np.eye(3))


def test_hermitian_sqrt_diagonal():
    s = hermitian_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([2.0, 3.0]))


def test_hermitian_sqrt_reconstructs_random_psd():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 5, 8):
        m = random_psd(dim, rng)
        s = hermitian_sqrt(m)
        assert np.max(np.abs(s @ s - m)) < 1e-8


def test_hermitian_sqrt_clamps_roundoff_negatives():
    m = np.diag([1.0, -1e-12])
    s = hermitian_sqrt(m)
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-6)


def test_hermitian_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_vectorize_row_major():
    rho = np.arange(4).reshape(2, 2).astype(complex)
    v = vectorize(rho)
    assert np.allclose(v, [0, 1, 2, 3])
    assert np.allclose(unvectorize(v), rho)


def test_reshuffle_is_involution():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.allclose(reshuffle(reshuffle(m)), m)


def test_reshuffle_rejects_bad_shape():
    with pytest.raises(ValueError):
        reshuffle(np.zeros((3, 3)))


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(2)
    a = random_psd(2, rng)
    b = random_psd(3, rng)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, [2, 3], keep=[0]), a * np.trace(b))
    assert np.allclose(partial_trace(joint, [2, 3], keep=[1]), b * np.trace(a))


def test_uhlmann_fidelity_pure_state_overlap():
    v = np.array([1.0, 0.0], dtype=complex)
    w = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    f = uhlmann_fidelity(np.outer(v, v.conj()), np.outer(w, w.conj()))
    assert abs(f - 0.3) < 1e-12


def test_uhlmann_fidelity_symmetric():
    rng = np.random.default_rng(3)
    a = random_psd(4, rng)
    a /= np.trace(a).real
    b = random_psd(4, rng)
    b /= np.trace(b).real
    assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-10


def test_uhlmann_fidelity_rejects_genuinely_negative():
    with pytest.raises(ValueError):
        uhlmann_fidelity(np.diag([1.1, -0.1]), np.eye(2) / 2)


@pytest.mark.parametrize("b", [
    [[0.5, 0.1], [0.0, 0.5]],  # the Hermitian part is PSD; b itself is not Hermitian
    np.eye(2) / 2 + 2e-10j * np.array([[0, 1], [1, 0]]),  # just past the 1e-10 tolerance
])
def test_uhlmann_fidelity_refuses_a_non_hermitian_second_state(b):
    with pytest.raises(ValueError, match="second state is not Hermitian"):
        uhlmann_fidelity(np.eye(2) / 2, b)


def test_uhlmann_fidelity_takes_a_second_state_hermitian_within_tolerance():
    b = np.eye(2) / 2 + 5e-11j * np.array([[0, 1], [1, 0]])
    assert abs(uhlmann_fidelity(np.eye(2) / 2, b) - 1.0) < 1e-12


@pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
@pytest.mark.parametrize("position", ["first", "second"])
def test_uhlmann_fidelity_refuses_nan_in_either_state(position, entry):
    bad = np.eye(2, dtype=complex) / 2
    bad[entry] = np.nan
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="not Hermitian"):
        uhlmann_fidelity(*((bad, good) if position == "first" else (good, bad)))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigensystem(bad)


def random_state(dim, rank, rng):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 9), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_uhlmann_fidelity_stack_matches_single_calls_bit_for_bit(dim, size, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([random_state(dim, rng.integers(1, dim + 1), rng) for _ in range(size)])
    # a degenerate member: equal eigenvalues and exact zeros
    stack[0] = np.diag(np.repeat([1.0, 0.0], [dim - dim // 2, dim // 2])) / (dim - dim // 2)
    b = random_state(dim, rng.integers(1, dim + 1), rng)
    fs = uhlmann_fidelity(stack, b)
    assert fs.shape == (size,)
    for k in range(size):
        single = uhlmann_fidelity(stack[k], b)
        assert isinstance(single, float)
        assert fs[k] == single
    assert np.array_equal(uhlmann_fidelity(stack.reshape(1, size, dim, dim), b), fs[None])


def test_uhlmann_fidelity_large_stack_matches_single_calls():
    # enough members that the final squaring rounds differently from np.square in some
    rng = np.random.default_rng(8)
    stack = np.array([random_state(4, 1 + k % 4, rng) for k in range(2000)])
    b = random_state(4, 3, rng)
    assert uhlmann_fidelity(stack, b).tolist() == [uhlmann_fidelity(m, b) for m in stack]


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
    np.diag([1.1, -0.1]),  # not PSD
])
def test_uhlmann_fidelity_stack_with_one_bad_member_raises(bad):
    rng = np.random.default_rng(6)
    stack = np.array([random_state(2, 2, rng), bad, random_state(2, 1, rng)])
    with pytest.raises(ValueError):
        uhlmann_fidelity(stack, np.eye(2) / 2)


def test_choi_fidelity_pins_at_the_fig5_direct_points():
    from channel_forge.figures import FIG5B_GAMMA, FIG5B_Q
    from channel_forge.noise import amplitude_damping, bit_flip, depolarizing_white, rotation_noise_b

    target = bit_flip(0.95)
    assert 1 - choi_fidelity(compose(rotation_noise_b(0.8), target), target) \
        == 0.07139290888048644
    noisy_input = compose(depolarizing_white(FIG5B_Q), amplitude_damping(FIG5B_GAMMA))
    assert 1 - choi_fidelity(noisy_input, depolarizing_white(0.5)) == 0.10360966909825009


def test_reshuffle_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2, 3, 4, 9)) + 1j * rng.standard_normal((2, 3, 4, 9))
    out = reshuffle(m, 2, 3)
    assert out.shape == (2, 3, 6, 6)
    assert all(np.array_equal(out[i, j], reshuffle(m[i, j], 2, 3))
               for i in range(2) for j in range(3))


def test_complete_orthonormal_columns_unitary():
    rng = np.random.default_rng(4)
    for dim, k in ((4, 2), (6, 3), (8, 1)):
        g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, _ = np.linalg.qr(g)
        u = complete_orthonormal_columns(q, dim)
        assert np.max(np.abs(dagger(u) @ u - np.eye(dim))) < 1e-10
        assert np.allclose(u[:, :k], q)


def test_complete_orthonormal_columns_deterministic():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    q, _ = np.linalg.qr(g)
    assert np.array_equal(complete_orthonormal_columns(q, 5),
                          complete_orthonormal_columns(q, 5))


def test_complete_orthonormal_columns_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        complete_orthonormal_columns(np.ones((3, 2), dtype=complex), 3)


def test_max_entangled_ket_normalized():
    for d in (2, 3, 4):
        v = max_entangled_ket(d)
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(v[0] - 1 / np.sqrt(d)) < 1e-12
