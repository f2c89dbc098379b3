"""Hot-path kernels with a compiled core and a NumPy/SciPy fallback.

The Cython extension is used when it can be imported, the fallback
otherwise; ``BACKEND`` names the one in use.  The fallback's exponentials
are ``scipy.linalg.expm``; the compiled core is the package's only
hand-written numerical kernel.  ``piecewise_steps`` takes any square
generators.  The package passes it the d x d ``-iH``, for the interval
unitaries ``exp(-i dt H_k)`` of the split propagator and the noiseless
first-order gradient, and the real parts of each symmetry sector of at
most 16 columns of the generator's real form in the Hermitian basis
(``lindblad.Generator.sectors``), for the exact steps that
``lindblad._memo_steps`` has not stored yet.  The compiled core works in
complex arithmetic; the fallback exponentiates real inputs as real, in
one ``scipy.linalg.expm`` call on the stack, and casts only the result.
On both, the complex128 result of real inputs has an imaginary part of
exactly 0.  Every larger sector's step is a real ``scipy.linalg.expm``
(``lindblad._real_steps``).  The compiled core's ``piecewise_total`` and
``chain_product`` have no caller and stay in ``_cykernels.pyx`` until
Cython is available to regenerate the C.

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

__all__ = ["BACKEND", "piecewise_steps"]
