import os

# One BLAS thread, set before NumPy loads: the suite's small dense products
# run about twice as fast as with OpenBLAS's default threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _missing_build_tool():
    """Name the C compiler or Python header a build needs but cannot find."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        return f"C compiler {cc!r} not on PATH"
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not header.is_file():
        return f"{header} not found"
    return None


@pytest.fixture(scope="session")
def cykernels(tmp_path_factory):
    """The compiled kernel module, built from ``setup.py`` if not importable.

    A build that fails is a test failure carrying the build log; only a
    missing compiler or Python header skips.
    """
    try:
        from spinctrl._kernels import _cykernels

        return _cykernels
    except ImportError:
        pass
    missing = _missing_build_tool()
    if missing:
        pytest.skip(f"cannot build the compiled kernels: {missing}")
    out = tmp_path_factory.mktemp("cykernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    # the extension is optional=True, so a failed compile still exits 0
    built = (out / "lib" / "spinctrl" / "_kernels"
             / ("_cykernels" + sysconfig.get_config_var("EXT_SUFFIX")))
    if not built.is_file():
        pytest.fail(
            "setup.py build_ext produced no compiled kernels\n"
            f"{build.stdout}\n{build.stderr}",
            pytrace=False,
        )
    spec = importlib.util.spec_from_file_location(
        "spinctrl._kernels._cykernels", built
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
