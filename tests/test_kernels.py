"""Backend parity: the compiled kernels must match the NumPy fallback."""

import os
import re
import sys
import sysconfig
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import random_complex
from spinctrl import _kernels
from spinctrl._kernels import _pykernels

KERNEL_API = ("expm", "piecewise_steps")
KERNELS = Path(_kernels.__file__).parent
SX = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture(params=["pykernels", "cykernels"])
def backend(request):
    if request.param == "pykernels":
        return _pykernels
    return request.getfixturevalue("cykernels")


def test_compiled_backend_is_built(cykernels):
    # the repo ships a compiled core that builds and mirrors the NumPy API
    assert cykernels.__file__.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    for name in KERNEL_API:
        assert callable(getattr(cykernels, name)), name


def test_public_names():
    # the package's other exponentials call scipy.linalg.expm directly, and
    # exact chains multiply the steps of piecewise_steps themselves
    assert _kernels.__all__ == ["BACKEND", "piecewise_steps"]
    assert not hasattr(_pykernels, "piecewise_total")


def test_compiled_c_matches_pyx():
    # the committed C quotes each .pyx line it was generated from, so an
    # edit to the .pyx without regenerating the C shows up as a mismatch
    pyx = (KERNELS / "_cykernels.pyx").read_text().splitlines()
    c = (KERNELS / "_cykernels.c").read_text()
    marker = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(r'/\* "spinctrl/_kernels/_cykernels\.pyx":(\d+)\n(.*?)\*/', c, re.S)
    assert len(blocks) > 100
    for line, body in blocks:
        quoted = [row[3:-len(marker)] for row in body.splitlines() if row.endswith(marker)]
        assert quoted == [pyx[int(line) - 1]], f"_cykernels.pyx:{line}"


class TestExpm:
    def test_against_scipy(self, backend, rng):
        for n in (2, 5, 16, 64):
            a = random_complex(rng, (n, n))
            a *= 4.0 / np.max(np.sum(np.abs(a), axis=0))
            got = backend.expm(a)
            ref = scipy.linalg.expm(a)
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_scaling_branch(self, backend, rng):
        # 1-norm far above theta_13 exercises the squaring phase
        a = random_complex(rng, (6, 6))
        a *= 200.0 / np.max(np.sum(np.abs(a), axis=0))
        a = a - np.trace(a) / 6 * np.eye(6)  # keep the result representable
        ref = scipy.linalg.expm(a)
        got = backend.expm(a)
        assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_input_not_mutated(self, backend):
        a = np.full((3, 3), 0.5 + 0.25j)
        snapshot = a.copy()
        backend.expm(a)
        assert np.array_equal(a, snapshot)

    def test_zero_matrix(self, backend):
        assert np.allclose(backend.expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_pauli_rotation(self, backend):
        # cos(pi/2) I - i sin(pi/2) sigma_x
        got = backend.expm(-1j * (np.pi / 2) * SX)
        assert np.allclose(got, -1j * SX, atol=1e-13)

    def test_diagonal_scalar_oracle(self, backend, rng):
        for _ in range(10):
            a, b = random_complex(rng, 2)
            got = backend.expm(np.diag([a, b]))
            assert np.allclose(got, np.diag([np.exp(a), np.exp(b)]), atol=1e-12)

    def test_inverse(self, backend, rng):
        for _ in range(5):
            m = random_complex(rng, (6, 6))
            m *= 10.0 / np.max(np.sum(np.abs(m), axis=0))
            prod = backend.expm(m) @ backend.expm(-m)
            assert np.max(np.abs(prod - np.eye(6))) < 1e-10

    def test_semigroup(self, backend, rng):
        for _ in range(5):
            m = random_complex(rng, (5, 5))
            s, t = rng.uniform(0.1, 2.0, size=2)
            lhs = backend.expm((s + t) * m)
            rhs = backend.expm(s * m) @ backend.expm(t * m)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_large_norm_unitary(self, backend, rng):
        # anti-Hermitian input with 1-norm near 1e4: compare against the
        # eigendecomposition oracle
        h = random_complex(rng, (8, 8))
        h = (h + h.conj().T) / 2
        m = -1j * h * (1e4 / np.max(np.sum(np.abs(-1j * h), axis=0)))
        w, v = np.linalg.eigh(1j * m)
        oracle = (v * np.exp(-1j * w)) @ v.conj().T
        assert np.max(np.abs(backend.expm(m) - oracle)) < 1e-10

    def test_rejects_non_square(self, backend):
        with pytest.raises(ValueError):
            backend.expm(np.zeros((2, 3)))


class TestChains:
    def _problem(self, rng, n, m):
        mk = lambda: random_complex(rng, (n, n))
        return mk(), mk(), mk(), rng.normal(size=m), rng.normal(size=m)

    def test_steps_match_one_expm_each(self, backend, rng):
        base, kx, ky, hx, hy = self._problem(rng, 9, 7)
        steps = backend.piecewise_steps(base, kx, ky, hx, hy, 0.05)
        for step, x, y in zip(steps, hx, hy, strict=True):
            want = scipy.linalg.expm(0.05 * (base + x * kx + y * ky))
            assert np.allclose(step, want, atol=1e-12)

    def test_real_generators_stay_real(self, backend, rng):
        # complex128 steps of SciPy's expm of the real stack, imaginary part exactly 0
        base, kx, ky = rng.normal(size=(3, 16, 16))
        hx, hy = rng.uniform(-5.0, 5.0, (2, 12))
        steps = backend.piecewise_steps(base, kx, ky, hx, hy, 0.05)
        want = scipy.linalg.expm(0.05 * (base + hx[:, None, None] * kx + hy[:, None, None] * ky))
        assert want.dtype == np.float64
        assert steps.dtype == np.complex128 and not np.any(steps.imag)
        assert np.linalg.norm(steps.real - want) <= 1e-12 * np.linalg.norm(want)

    def test_fallback_exponentiates_real_stack_once(self, monkeypatch, rng):
        expm, seen = scipy.linalg.expm, []

        def spy(a):
            seen.append((a.shape, a.dtype))
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", spy)
        base, kx, ky = rng.normal(size=(3, 16, 16))
        _pykernels.piecewise_steps(base, kx, ky, *rng.normal(size=(2, 12)), 0.05)
        assert seen == [((12, 16, 16), np.float64)]

    def test_empty_sequence_is_identity(self, backend, rng):
        # no interval, no step: the chains start from the identity
        base, kx, ky, _, _ = self._problem(rng, 4, 1)
        assert backend.piecewise_steps(base, kx, ky, [], [], 0.1).shape == (0, 4, 4)

    def test_order_is_first_interval_first(self, backend, rng):
        base = np.zeros((3, 3), dtype=complex)
        kx = random_complex(rng, (3, 3))
        ky = random_complex(rng, (3, 3))
        steps = backend.piecewise_steps(base, kx, ky, [1.0, 0.0], [0.0, 1.0], 0.3)
        assert np.allclose(steps[0], backend.expm(0.3 * kx), atol=1e-12)
        assert np.allclose(steps[1], backend.expm(0.3 * ky), atol=1e-12)


class TestBackendParity:
    def test_expm(self, cykernels, rng):
        for n in (2, 16, 64):
            a = random_complex(rng, (n, n))
            a *= 5.0 / np.max(np.sum(np.abs(a), axis=0))
            got = cykernels.expm(a)
            ref = _pykernels.expm(a)
            assert np.max(np.abs(got - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_chains(self, cykernels, rng):
        n, m = 16, 24
        base = random_complex(rng, (n, n))
        kx = random_complex(rng, (n, n))
        ky = random_complex(rng, (n, n))
        hx = rng.normal(size=m)
        hy = rng.normal(size=m)
        a = cykernels.piecewise_steps(base, kx, ky, hx, hy, 0.02)
        b = _pykernels.piecewise_steps(base, kx, ky, hx, hy, 0.02)
        assert np.allclose(a, b, atol=1e-12)


def test_concurrent_calls_match_serial(backend, rng):
    # the GA scores genomes on several threads at once, so the kernels'
    # scratch buffers and BLAS must be safe to share between threads
    n, m, dt = 16, 32, 0.05
    base, kx, ky, a = (random_complex(rng, (n, n)) for _ in range(4))
    hx, hy = rng.normal(size=(2, m))
    calls = {
        "expm": lambda: backend.expm(a),
        "piecewise_steps": lambda: backend.piecewise_steps(base, kx, ky, hx, hy, dt),
    }
    serial = {name: call() for name, call in calls.items()}
    # more threads than cores, switching as often as the interpreter allows
    threads = (os.cpu_count() or 1) + 1
    start = threading.Barrier(threads)

    def mismatches():
        start.wait(timeout=30)
        return [name for _ in range(10) for name, call in calls.items()
                if not np.array_equal(call(), serial[name])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(mismatches) for _ in range(threads)]
            found = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert found == [[]] * threads
