"""Hot-path kernels with a compiled core and a NumPy fallback.

The Cython extension is used when it can be imported, the NumPy kernels
otherwise; ``BACKEND`` names the one in use.

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
chain_product = _impl.chain_product
piecewise_steps = _impl.piecewise_steps
piecewise_total = _impl.piecewise_total

__all__ = [
    "BACKEND",
    "expm",
    "chain_product",
    "piecewise_steps",
    "piecewise_total",
]
