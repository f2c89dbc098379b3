import os

# One BLAS thread, set before NumPy loads: the suite's small dense products
# run about twice as fast as with OpenBLAS's default threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
import math
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


@pytest.fixture(autouse=True)
def cold_step_memo():
    """Empty the exact chains' step memo, so that every test starts cold
    and none depends on the order the tests run in."""
    from spinctrl import lindblad

    with lindblad._MEMO_LOCK:
        lindblad._STEP_MEMOS.clear()


def loaded_by_import(module):
    """Whether ``import spinctrl`` in a fresh interpreter loads ``module``."""
    code = (
        f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'src')!r}); import spinctrl; "
        f"print({module!r} in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def res(m):
    """Row-stacking vectorization, the convention of ``spinctrl.linalg``."""
    return np.asarray(m, dtype=np.complex128).reshape(-1)


def unres(v):
    """Inverse of :func:`res`; the vector length must be a perfect square."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    d = math.isqrt(v.shape[0])
    if d * d != v.shape[0]:
        raise ValueError(f"vector of length {v.shape[0]} is not a square matrix")
    return v.reshape(d, d)


def partial_trace(m, dims, keep):
    """Reduced matrix after tracing out every subsystem not in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; the kept
    subsystems retain their original relative order.
    """
    m = np.asarray(m, dtype=np.complex128)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"subsystem dims {dims} give dimension {total}, matrix is {m.shape}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    in_idx = list(range(n)) + [(i if i not in keep else n + i) for i in range(n)]
    out_idx = keep + [n + i for i in keep]
    reduced = np.einsum(m.reshape(dims + dims), in_idx, out_idx)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(d_keep, d_keep)


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
