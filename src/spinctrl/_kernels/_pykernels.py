"""NumPy and SciPy implementations of the propagation hot kernels.

This module mirrors the functions of the compiled core (``_cykernels``)
that the package calls, and is used as a fallback when the extension is not
built.  ``expm`` is SciPy's scaling and squaring (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 970 (2009)).  Both return dense complex128,
row-major; ``piecewise_steps`` exponentiates real generators as real.
"""

import numpy as np
import scipy.linalg


def expm(a):
    """Matrix exponential of a square matrix; the input is not modified."""
    return scipy.linalg.expm(np.asarray(a, dtype=np.complex128))


def piecewise_steps(base, kx, ky, hx, hy, dt):
    """Per-interval propagators ``expm(dt * (base + hx[k] kx + hy[k] ky))``.

    Returns a complex128 (M, n, n) stack, one propagator per pulse interval,
    from one ``scipy.linalg.expm`` call on the stack of generators.  Real
    generators are exponentiated as real and only the result is cast, so its
    imaginary part is exactly 0.
    """
    hx = np.asarray(hx, dtype=np.float64)[:, None, None]
    hy = np.asarray(hy, dtype=np.float64)[:, None, None]
    return scipy.linalg.expm(dt * (base + hx * kx + hy * ky)).astype(np.complex128, copy=False)
