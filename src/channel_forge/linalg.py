"""Dense complex-matrix kernels shared by the channel machinery, and the
checked readers (:func:`read_field`, :func:`refuse_unknown_keys`,
:func:`decode_complex`) that every JSON input goes through.

All matrices are plain ``numpy.ndarray`` with dtype complex128 and row-major
(C-order) semantics. Vectorization is row-major throughout the package:
``vectorize(rho)[i*d + j] == rho[i, j]``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
RANK_CUTOFF = 1e-12


class ChannelError(ValueError):
    """Invalid channel data (CP or TP violations, bad dims) or a malformed input file."""


# -- JSON boundary ------------------------------------------------------------

_REQUIRED = object()


def read_field(data, key: str, kind: type, default=_REQUIRED):
    """``data[key]`` checked to be a ``kind`` (bool, int, float: any finite number, str,
    list or dict; a bool is only a bool), or ``default`` when missing; ChannelError
    for a wrong type, a missing key without default, or ``data`` not an object."""
    if not isinstance(data, dict):
        raise ChannelError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise ChannelError(f"missing field {key!r}")
        return default
    v = data[key]
    if (not isinstance(v, (int, float) if kind is float else kind)
            or isinstance(v, bool) != (kind is bool) or kind is float and not math.isfinite(v)):
        raise ChannelError(f"field {key!r} must be a {kind.__name__}, got {v!r:.40}")
    return float(v) if kind is float else v


def refuse_unknown_keys(data: dict, allowed, where: str) -> None:
    """ChannelError naming every key of ``data`` outside ``allowed``."""
    unknown = sorted(set(data) - set(allowed), key=str)
    if unknown:
        raise ChannelError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def parse_each(entries: list, parse, where: str) -> list:
    """``[parse(e) for e in entries]``, a ChannelError naming ``where[i]``."""
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(parse(entry))
        except ChannelError as exc:
            raise ChannelError(f"{where}[{i}]: {exc}") from None
    return out


def decode_real(value, name: str) -> np.ndarray:
    """``value`` (nested lists or an array) as a float array; ChannelError for
    ragged, non-numeric (bools included) or non-finite entries."""
    a = np.asarray(value, dtype=object)
    numeric = (int, float, np.integer, np.floating)
    if not all(issubclass(t, numeric) and t is not bool for t in set(map(type, a.flat))):
        raise ChannelError(f"{name} must be a regular array of numbers")
    try:
        a = a.astype(float)
    except OverflowError:
        raise ChannelError(f"{name} has entries beyond the float range") from None
    if not np.all(np.isfinite(a)):
        raise ChannelError(f"{name} has non-finite entries")
    return a


def encode_complex(m, name: str) -> dict:
    """``{"<name>_re": real part, "<name>_im": imaginary part}`` as nested
    lists (``re``/``im`` for an empty name)."""
    m = np.asarray(m)
    return {f"{name}_re" if name else "re": m.real.tolist(),
            f"{name}_im" if name else "im": m.imag.tolist()}


def decode_complex(data, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Inverse of :func:`encode_complex`, bit-exact; a missing imaginary part is zero.
    ChannelError for a missing real part, ragged, non-numeric or non-finite entries,
    parts of different shapes, or a shape other than ``shape`` when one is given."""
    key_re, key_im = (f"{name}_re", f"{name}_im") if name else ("re", "im")
    if not isinstance(data, dict) or key_re not in data:
        raise ChannelError(f"missing {key_re}")
    re = decode_real(data[key_re], key_re)
    im = decode_real(data[key_im], key_im) if key_im in data else np.zeros_like(re)
    if im.shape != re.shape or shape is not None and re.shape != tuple(shape):
        raise ChannelError(f"{key_re}/{key_im} shapes {re.shape}/{im.shape} do not match "
                           f"{tuple(shape) if shape is not None else 'each other'}")
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def as_complex(m) -> np.ndarray:
    """Coerce input to a C-contiguous complex128 array."""
    return np.ascontiguousarray(np.asarray(m, dtype=np.complex128))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast multiply: the element
    products ``np.kron`` forms, so the same bits, without its per-call wrappers.
    Stacks ``(..., r, c)`` broadcast over their leading axes, pair by pair."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (ra * rb, ca * cb))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack ``(..., r, c)``."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    """Check ||M - M^dag||_max <= atol."""
    return bool(np.max(np.abs(m - dagger(m))) <= atol)


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization |rho>> with component rho[i, j] at index i*d+j."""
    return rho.reshape(-1)


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` for a square matrix."""
    rows = int(round(np.sqrt(v.size)))
    if rows * rows != v.size:
        raise ValueError(f"vector of length {v.size} is not square-unvectorizable")
    return v.reshape(rows, rows)


def _hermitian_part(m, name: str) -> np.ndarray:
    """(M + M^dag) / 2 of a matrix or stack; ValueError naming ``name`` unless
    ||M - M^dag||_max <= 1e-10."""
    m = as_complex(m)
    m_dag = dagger(m)
    dev = float(np.max(np.abs(m - m_dag)))
    if not dev <= 1e-10:  # NaN fails too
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} > 1.0e-10")
    return (m + m_dag) / 2


def hermitian_eigensystem(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack
    ``(..., n, n)``, eigenvalues descending (eigenvectors are the columns).

    Raises ValueError when the input (any member of a stack) is not Hermitian
    within 1e-10.
    """
    vals, vecs = np.linalg.eigh(_hermitian_part(m, "matrix"))
    # eigh's eigenvalues ascend, so reversing orders them descending (ties in eigh's order)
    return vals[..., ::-1], vecs[..., ::-1]


def hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues below zero are clamped to zero before taking the root, so
    roundoff-negative inputs are handled gracefully. The result S satisfies
    S @ S ~= M for genuinely PSD input.
    """
    vals, vecs = hermitian_eigensystem(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of m."""
    vals = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return float(vals[0])


def matrix_rank_by_cutoff(m: np.ndarray) -> int:
    """Rank of a Hermitian matrix counting eigenvalues above ``RANK_CUTOFF``."""
    vals = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return int(np.sum(np.abs(vals) > RANK_CUTOFF))


_EPS = np.finfo(float).eps


def _floored_sqrt_eigs(vals: np.ndarray) -> np.ndarray:
    """Square roots of eigenvalues (the last axis), zeroing the numerical-noise floor.

    Eigenvalues below n * eps * max(vals) are roundoff artifacts of exact
    zeros; their square roots (~1e-8) would otherwise dominate the fidelity
    error budget.
    """
    vals = np.maximum(vals, 0.0)
    tol = vals.shape[-1] * _EPS * vals.max(axis=-1, keepdims=True, initial=0.0)
    return np.sqrt(np.where(vals < tol, 0.0, vals))


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray):
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 of density matrices.

    ``a`` is one matrix, giving a float, or a stack ``(..., n, n)``, giving an
    array of shape ``a.shape[:-2]`` whose entries equal the single-matrix
    results bit for bit. ``b`` is checked once per call; each member of ``a``
    is checked through the eigendecomposition that also gives its square
    root. Inputs must be Hermitian within 1e-10 with eigenvalues >= -1e-10;
    roundoff-negative eigenvalues are clamped to zero, and anything more
    negative, or a non-Hermitian input, in any member of a stack, raises
    ValueError.
    """
    b = as_complex(b)
    lo = float(np.linalg.eigvalsh(_hermitian_part(b, "second state"))[0])
    if lo < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"second state is not PSD: min eigenvalue {lo:.3e}")
    vals, vecs = hermitian_eigensystem(a)
    lo = float(vals[..., -1].min())
    if lo < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"first state is not PSD: min eigenvalue {lo:.3e}")
    sa = (vecs * _floored_sqrt_eigs(vals)[..., None, :]) @ dagger(vecs)
    inner = sa @ b @ sa
    inner_vals = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
    # float_power squares with libm pow for one matrix and for a stack alike, as a
    # float scalar's ** 2 does. np.square (an array's ** 2) rounds differently in
    # about 1 case in 1,000, and tests pin single-matrix values bit for bit. A
    # square is >= 0, so only roundoff above 1 needs clipping.
    f = np.minimum(np.float_power(np.sum(_floored_sqrt_eigs(inner_vals), axis=-1), 2), 1.0)
    return float(f) if f.ndim == 0 else f


def uhlmann_gradient(a: np.ndarray, b_sqrt: np.ndarray) -> np.ndarray:
    """Gradient in ``a`` of the Uhlmann fidelity F(a, b), given ``b_sqrt`` = sqrt(b).

    G = sqrt(F) sqrt(b) (sqrt(b) a sqrt(b))^(-1/2) sqrt(b), the inverse root
    taken on the support (eigenvalues at the noise floor count as zero), so that
    F(a + da) = F(a) + tr(G da) to first order while the support holds. ``a`` is
    one matrix or a stack ``(..., n, n)``; it is not checked.
    """
    x = b_sqrt @ a @ b_sqrt
    vals, vecs = np.linalg.eigh((x + dagger(x)) / 2)
    roots = _floored_sqrt_eigs(vals)
    inv = np.divide(1.0, roots, out=np.zeros_like(roots), where=roots > 0)
    g = b_sqrt @ (vecs * inv[..., None, :]) @ dagger(vecs) @ b_sqrt
    return g * roots.sum(axis=-1)[..., None, None]


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity between two states (alias with state-flavoured name)."""
    return uhlmann_fidelity(rho, sigma)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``m`` is a square matrix over the tensor product of factors with the given
    ``dims`` (factor 0 leftmost), or a stack of them ``(..., D, D)``. The kept
    factors stay in their original relative order.
    """
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    lead = m.shape[:-2]
    t = m.reshape(lead + tuple(dims + dims))
    for ax in sorted(traced, reverse=True):
        half = (t.ndim - len(lead)) // 2
        t = np.trace(t, axis1=len(lead) + ax, axis2=len(lead) + ax + half)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d_keep, d_keep))


def reshuffle(m: np.ndarray, dim_out: int | None = None, dim_in: int | None = None) -> np.ndarray:
    """Row-major reshuffling connecting Liouville and Choi index layouts.

    Viewing the matrix as a 4-tensor ``m[(a,b),(c,d)]``, the reshuffled matrix
    is ``r[(a,c),(b,d)]`` (swap of the middle indices). For square channels
    this permutation is an involution. No normalization factor is applied. A
    stack ``(..., dim_out**2, dim_in**2)`` is reshuffled matrix by matrix.
    """
    m = as_complex(m)
    lead = m.shape[:-2]
    if dim_out is None:
        dim_out = int(round(np.sqrt(m.shape[-2])))
    if dim_in is None:
        dim_in = int(round(np.sqrt(m.shape[-1])))
    if (dim_out * dim_out, dim_in * dim_in) != m.shape[-2:]:
        raise ValueError(
            f"shape {m.shape} is incompatible with bipartite dims "
            f"(out={dim_out}, in={dim_in})"
        )
    t = m.reshape(lead + (dim_out, dim_out, dim_in, dim_in))
    return t.swapaxes(-3, -2).reshape(lead + (dim_out * dim_in, dim_out * dim_in))


def complete_orthonormal_columns(cols: np.ndarray, total: int) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis of C^total.

    Remaining columns are seeded from identity columns. At each step the seed
    with the largest residual norm against the current basis is picked, then
    orthogonalized twice for stability. Deterministic for a given input.
    """
    cols = as_complex(cols)
    dim, k = cols.shape
    if dim != total:
        raise ValueError(f"columns live in dim {dim}, expected {total}")
    if k > total:
        raise ValueError(f"{k} columns cannot be orthonormal in dim {total}")
    gram = dagger(cols) @ cols
    if np.max(np.abs(gram - np.eye(k))) > 1e-9:
        raise ValueError("seed columns are not orthonormal")
    basis = [cols[:, i] for i in range(k)]
    candidates = list(np.eye(total, dtype=np.complex128).T)
    while len(basis) < total:
        best_idx, best_norm, best_res = -1, -1.0, None
        bmat = np.column_stack(basis)
        for idx, cand in enumerate(candidates):
            res = cand - bmat @ (dagger(bmat) @ cand)
            nrm = float(np.linalg.norm(res))
            if nrm > best_norm:
                best_idx, best_norm, best_res = idx, nrm, res
        if best_norm < 1e-8:
            raise ValueError("ran out of independent completion candidates")
        v = best_res / np.linalg.norm(best_res)
        v = v - bmat @ (dagger(bmat) @ v)
        v = v / np.linalg.norm(v)
        basis.append(v)
        candidates.pop(best_idx)
    return np.column_stack(basis)


def max_entangled_ket(d: int) -> np.ndarray:
    """|Phi> = sum_i |i,i> / sqrt(d) over a d x d bipartite space."""
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v
