"""NumPy and SciPy implementations of the propagation hot kernels.

This module mirrors the functions of the compiled core (``_cykernels``)
that the package calls, and is used as a fallback when the extension is not
built.  ``expm`` is SciPy's scaling and squaring (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 970 (2009)).  All matrices are dense complex128 and
row-major.
"""

import numpy as np
import scipy.linalg


def expm(a):
    """Matrix exponential of a square matrix; the input is not modified."""
    return scipy.linalg.expm(np.asarray(a, dtype=np.complex128))


def piecewise_steps(base, kx, ky, hx, hy, dt):
    """Per-interval propagators ``expm(dt * (base + hx[k] kx + hy[k] ky))``.

    Returns an (M, n, n) stack, one propagator per pulse interval, from one
    ``expm`` call on the stack of generators.
    """
    hx = np.asarray(hx, dtype=np.float64)[:, None, None]
    hy = np.asarray(hy, dtype=np.float64)[:, None, None]
    return expm(dt * (base + hx * kx + hy * ky))
