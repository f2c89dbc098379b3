import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_trace, random_complex, res, unres
from spinctrl import linalg
from spinctrl._kernels import _pykernels

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def kron_oracle(a, b):
    """Element-wise Kronecker product straight from the definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_x_embedding(self):
        got = linalg.kron(SX, np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 2:4] = np.eye(2)
        expected[2:4, 0:2] = np.eye(2)
        assert np.array_equal(got, expected)

    def test_matches_elementwise_definition(self, rng):
        a = random_complex(rng, (2, 3))
        b = random_complex(rng, (3, 2))
        assert np.allclose(linalg.kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_mixed_product(self, rng):
        for _ in range(5):
            a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
            lhs = linalg.kron(a, b) @ linalg.kron(c, d)
            rhs = linalg.kron(a @ c, b @ d)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_associative_and_bilinear(self, rng):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        c = random_complex(rng, (2, 2))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.allclose(left, right, atol=1e-12)
        s, t = 0.7 - 0.2j, -1.3 + 0.5j
        assert np.allclose(
            linalg.kron(s * a + t * b, c),
            s * linalg.kron(a, c) + t * linalg.kron(b, c),
            atol=1e-12,
        )


@pytest.fixture
def backends(request):
    """Both kernel backends: the NumPy/SciPy fallback and the compiled core."""
    return [_pykernels, request.getfixturevalue("cykernels")]


class TestExpm:
    """``_kernels.expm`` on each backend."""

    def test_zero_matrix(self, backends):
        for backend in backends:
            assert np.allclose(backend.expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_pauli_rotation(self, backends):
        # cos(pi/2) I - i sin(pi/2) sigma_x
        for backend in backends:
            got = backend.expm(-1j * (np.pi / 2) * SX)
            assert np.allclose(got, -1j * SX, atol=1e-13)

    def test_diagonal_scalar_oracle(self, backends, rng):
        for _ in range(10):
            a, b = random_complex(rng, 2)
            for backend in backends:
                got = backend.expm(np.diag([a, b]))
                assert np.allclose(got, np.diag([np.exp(a), np.exp(b)]), atol=1e-12)

    def test_inverse(self, backends, rng):
        for _ in range(5):
            m = random_complex(rng, (6, 6))
            m *= 10.0 / np.max(np.sum(np.abs(m), axis=0))
            for backend in backends:
                prod = backend.expm(m) @ backend.expm(-m)
                assert np.max(np.abs(prod - np.eye(6))) < 1e-10

    def test_semigroup(self, backends, rng):
        for _ in range(5):
            m = random_complex(rng, (5, 5))
            s, t = rng.uniform(0.1, 2.0, size=2)
            for backend in backends:
                lhs = backend.expm((s + t) * m)
                rhs = backend.expm(s * m) @ backend.expm(t * m)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_large_norm_unitary(self, backends, rng):
        # anti-Hermitian input with 1-norm near 1e4: compare against the
        # eigendecomposition oracle
        h = random_complex(rng, (8, 8))
        h = (h + h.conj().T) / 2
        m = -1j * h * (1e4 / np.max(np.sum(np.abs(-1j * h), axis=0)))
        w, v = np.linalg.eigh(1j * m)
        oracle = (v * np.exp(-1j * w)) @ v.conj().T
        for backend in backends:
            assert np.max(np.abs(backend.expm(m) - oracle)) < 1e-10

    def test_rejects_non_square(self, backends):
        for backend in backends:
            with pytest.raises(ValueError):
                backend.expm(np.zeros((2, 3)))


class TestRes:
    """The row-stacking convention, on the test suite's own ``res``."""

    def test_matrix_unit(self):
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1
        assert np.array_equal(res(e01), [0, 1, 0, 0])

    def test_identity(self):
        assert np.array_equal(res(np.eye(2)), [1, 0, 0, 1])

    def test_sandwich_identity(self, rng):
        # res(A rho B) = (A kron B^T) res(rho)
        for _ in range(5):
            a, b, rho = (random_complex(rng, (2, 2)) for _ in range(3))
            lhs = res(a @ rho @ b)
            rhs = linalg.kron(a, b.T) @ res(rho)
            assert np.allclose(lhs, rhs, atol=1e-13)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_unres_roundtrip(self, d, seed):
        m = random_complex(np.random.default_rng(seed), (d, d))
        assert np.array_equal(unres(res(m)), m)

    def test_unres_rejects_bad_length(self):
        with pytest.raises(ValueError):
            unres(np.arange(3))


class TestPartialTrace:
    """The test suite's partial trace, the oracle of the state fitness."""

    def test_maximally_mixed(self):
        got = partial_trace(np.eye(4) / 4, [2, 2], keep={0})
        assert np.allclose(got, np.eye(2) / 2, atol=1e-15)

    def test_product_state(self):
        psi = np.zeros(4)
        psi[0b01] = 1.0
        got = partial_trace(np.outer(psi, psi), [2, 2], keep={0})
        assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_marginal(self):
        phi = np.zeros(4)
        phi[0b00] = phi[0b11] = 1 / np.sqrt(2)
        got = partial_trace(np.outer(phi, phi), [2, 2], keep={1})
        assert np.allclose(got, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self, rng):
        for dims, keep in [([2, 2], {1}), ([2, 2, 2], {0, 2}), ([2, 4], {0})]:
            d = int(np.prod(dims))
            m = random_complex(rng, (d, d))
            reduced = partial_trace(m, dims, keep)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_tensor_order_preserved(self, rng):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (2, 2))
        c = random_complex(rng, (2, 2))
        m = linalg.kron(linalg.kron(a, b), c)
        got = partial_trace(m, [2, 2, 2], keep={0, 2})
        assert np.allclose(got, np.trace(b) * linalg.kron(a, c), atol=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], keep={0})


class TestHermitian:
    def test_adjoint_involution(self, rng):
        m = random_complex(rng, (4, 4))
        assert np.array_equal(linalg.dagger(linalg.dagger(m)), m)
        # a stack is conjugate-transposed matrix by matrix
        stack = random_complex(rng, (2, 3, 3))
        got = linalg.dagger(stack)
        assert got.shape == (2, 3, 3)
        for a, b in zip(got, stack):
            assert np.array_equal(a, b.conj().T)
        assert np.array_equal(linalg.dagger(got), stack)
