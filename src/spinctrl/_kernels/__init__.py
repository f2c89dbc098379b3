"""Hot-path kernels with a compiled core and a NumPy/SciPy fallback.

The Cython extension is used when it can be imported, the fallback
otherwise; ``BACKEND`` names the one in use.  The fallback's exponentials
are ``scipy.linalg.expm``; the compiled core is the package's only
hand-written numerical kernel.  ``piecewise_steps`` takes any square
generators, but the package passes it only the d x d ``-iH``, for the
interval unitaries ``exp(-i dt H_k)`` of the split propagator and the
noiseless first-order gradient.  ``piecewise_total`` serves exact
propagation only for d^2 <= 16.  Every other dense step is a real
``scipy.linalg.expm`` in the Hermitian basis (``lindblad._real_parts``).

``python setup.py build_ext --inplace`` compiles the committed
``_cykernels.c`` in place, with a C compiler and the Python headers but
neither Cython nor a network.  After an edit to ``_cykernels.pyx``,
regenerate the C with Cython 3 (untested: Cython is not a dependency)::

    cython -3 src/spinctrl/_kernels/_cykernels.pyx -o src/spinctrl/_kernels/_cykernels.c
"""

try:
    from . import _cykernels as _impl

    BACKEND = "cython"
except ImportError:
    from . import _pykernels as _impl

    BACKEND = "numpy"

piecewise_steps = _impl.piecewise_steps
piecewise_total = _impl.piecewise_total

__all__ = ["BACKEND", "piecewise_steps", "piecewise_total"]
