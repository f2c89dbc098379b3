"""Dense complex linear algebra primitives.

Matrices and vectors are plain ``numpy.ndarray`` objects with dtype
complex128; matrices are row-major.  Vectorization follows the row-stacking
convention ``res(|phi><psi|) = |phi>|psi>``, under which
``res(A rho B) = (A kron B^T) res(rho)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels

__all__ = [
    "kron",
    "expm",
    "res",
    "unres",
    "partial_trace",
    "dagger",
    "is_hermitian",
]


def _as_complex_matrix(m, name="m"):
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    return m


def _as_square(m, name="m"):
    m = _as_complex_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def dagger(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def is_hermitian(m, tol=1e-10):
    m = _as_square(m)
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def kron(a, b):
    """Kronecker product ``(a kron b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]``."""
    a = _as_complex_matrix(a, "a")
    b = _as_complex_matrix(b, "b")
    return np.kron(a, b)


def expm(m):
    """Matrix exponential through the selected kernel backend.

    The compiled core uses Pade order-13 scaling and squaring, safe up to
    1-norms of about 1e4, which covers every generator built in this
    package; the fallback calls ``scipy.linalg.expm``.
    """
    return _kernels.expm(_as_square(m))


def res(m):
    """Row-major vectorization: stacks the rows of ``m`` into one vector."""
    return _as_square(m).reshape(-1)


def unres(v):
    """Inverse of :func:`res`; the vector length must be a perfect square."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    d = math.isqrt(v.shape[0])
    if d * d != v.shape[0]:
        raise ValueError(f"vector of length {v.shape[0]} is not a square matrix")
    return v.reshape(d, d)


def partial_trace(m, dims, keep):
    """Reduced matrix after tracing out every subsystem not in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; the kept
    subsystems retain their original relative order.
    """
    m = _as_square(m)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if total != m.shape[0]:
        raise ValueError(
            f"subsystem dims {dims} give dimension {total}, matrix is {m.shape[0]}"
        )
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    tensor = m.reshape(dims + dims)
    in_idx = list(range(n)) + [
        (i if i not in keep else n + i) for i in range(n)
    ]
    out_idx = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, in_idx, out_idx)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(d_keep, d_keep)
