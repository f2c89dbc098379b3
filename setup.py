import numpy
from setuptools import Extension, setup

# The committed, pre-generated _cykernels.c is compiled as is, so the
# compiled core builds offline from a plain checkout; the docstring of
# spinctrl._kernels gives the command that regenerates it from the .pyx.
extension = Extension(
    "spinctrl._kernels._cykernels",
    ["src/spinctrl/_kernels/_cykernels.c"],
    include_dirs=[numpy.get_include()],
    define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    extra_compile_args=["-O3"],
    # the package falls back to the NumPy kernels when the
    # compiled core is unavailable
    optional=True,
)

setup(ext_modules=[extension])
