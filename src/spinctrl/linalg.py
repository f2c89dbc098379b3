"""Dense complex linear algebra primitives.

Matrices are plain complex128 ``numpy.ndarray`` objects, row-major.  A
density matrix is vectorized by stacking its rows: the vector of
``|phi><psi|`` is ``|phi> kron |psi>``, so the map ``rho -> A rho B`` acts
on the vector as ``A kron B^T``, and ``rho -> U rho U^dag`` as ``U kron
conj(U)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kron", "dagger"]


def _as_complex_matrix(m, name):
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    return m


def dagger(m):
    """Conjugate transpose of a matrix, or of each matrix in a stack: the
    last two axes are swapped."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def kron(a, b):
    """Kronecker product ``(a kron b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]``."""
    a = _as_complex_matrix(a, "a")
    b = _as_complex_matrix(b, "b")
    return np.kron(a, b)
