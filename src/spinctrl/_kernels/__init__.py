"""Hot-path kernels with a compiled core and a NumPy/SciPy fallback.

The Cython extension is used when it can be imported, the fallback
otherwise; ``BACKEND`` names the one in use.  The fallback's ``expm`` is
``scipy.linalg.expm``; the compiled core is the package's only hand-written
numerical kernel.

Build the compiled core in place with ``python setup.py build_ext --inplace``.
This needs a C compiler and the Python headers but neither Cython nor a
network: without Cython the committed ``_cykernels.c`` is compiled.
"""

try:
    from . import _cykernels as _impl

    BACKEND = "cython"
except ImportError:
    from . import _pykernels as _impl

    BACKEND = "numpy"

expm = _impl.expm
piecewise_steps = _impl.piecewise_steps
piecewise_total = _impl.piecewise_total

__all__ = [
    "BACKEND",
    "expm",
    "piecewise_steps",
    "piecewise_total",
]
