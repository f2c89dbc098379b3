import numpy
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

# With Cython installed the .pyx is the source and is re-cythonized on each
# build; without it the committed, pre-generated _cykernels.c is compiled
# as is, so the compiled core builds offline from a plain checkout.
_source = "src/spinctrl/_kernels/_cykernels." + ("pyx" if cythonize else "c")
extension = Extension(
    "spinctrl._kernels._cykernels",
    [_source],
    include_dirs=[numpy.get_include()],
    define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    extra_compile_args=["-O3"],
    # the package falls back to the NumPy kernels when the
    # compiled core is unavailable
    optional=True,
)

if cythonize is not None:
    # generate the C under build/ so that a build never rewrites the
    # committed _cykernels.c
    ext_modules = cythonize([extension], language_level=3, build_dir="build")
else:
    ext_modules = [extension]

setup(ext_modules=ext_modules)
