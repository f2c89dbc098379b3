"""Fast tests of the benchmark's reference computations and span arithmetic.

Run with ``python3 -m pytest -q bench``.  They need NumPy and SciPy only.
"""

import numpy as np
import pytest

import reference as R
from spans import Tracer


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def vec(m):
    return m.reshape(-1, order="F")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_superoperators_act_on_column_stacked_matrices(rng):
    system = R.heisenberg_chain(2, 1, "amplitude_damping", 0.3)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = system.h0 + 0.7 * system.hx
    want = -1j * (h @ rho - rho @ h)
    for op, gamma in system.collapse:
        gram = op.conj().T @ op
        want += gamma * (op @ rho @ op.conj().T - 0.5 * (gram @ rho + rho @ gram))
    decay, jump = R.noise_supers(system)
    got = (R.commutator_super(h) + decay + jump) @ vec(rho)
    np.testing.assert_allclose(got, vec(want), atol=1e-13)


def test_partial_trace_of_a_product(rng):
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    full = np.kron(np.kron(a, b), c)
    np.testing.assert_allclose(R.partial_trace(full, 3, (0, 2)), np.trace(a) * np.trace(c) * b)
    np.testing.assert_allclose(R.partial_trace(full, 3, (1,)), np.trace(b) * np.kron(a, c))


@pytest.mark.parametrize("n, ancilla, target", [
    (2, (0,), R.NOT),
    (3, (0,), np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
])
def test_state_fitness_scores_the_target_channel_one(rng, n, ancilla, target):
    # target on the last qubits, any unitary on the ancilla (qubit 0)
    w = random_unitary(rng, 2)
    channel = R.unitary_super(np.kron(w, target))
    assert R.state_fitness(channel, n, target, ancilla) == pytest.approx(1.0, abs=1e-12)
    identity = np.eye(4**n)
    assert R.state_fitness(identity, n, target, ancilla) < 0.9


def test_noiseless_channels_agree_with_unitary_propagation(rng):
    system = R.heisenberg_chain(2, 1)
    hx, hy = rng.uniform(-5, 5, (2, 6))
    target = np.kron(R.NOT, np.eye(2))
    u = R.unitary_propagator(system, hx, hy, 0.1)
    split = R.split_channel(system, hx, hy, 0.1)
    np.testing.assert_allclose(split, R.unitary_super(u), atol=1e-12)
    np.testing.assert_allclose(R.exact_channel(system, hx, hy, 0.1), split, atol=1e-12)
    assert R.channel_fidelity(split, target) == pytest.approx(R.unitary_fidelity(u, target), abs=1e-14)
    assert R.unitary_fidelity(target, target) == pytest.approx(1.0)


def test_exact_channel_preserves_trace_and_split_converges_to_it(rng):
    system = R.heisenberg_chain(2, 0, "amplitude_damping", 0.5)
    hx, hy = rng.uniform(-3, 3, (2, 4))
    errors = []
    for refine in (1, 2, 4):
        args = (np.repeat(hx, refine), np.repeat(hy, refine), 0.1 / refine)
        exact = R.exact_channel(system, *args)
        assert R.trace_preservation_defect(exact) < 1e-13
        errors.append(np.max(np.abs(R.split_channel(system, *args) - exact)))
    # first-order splitting: halving dt about halves the error
    assert 1.6 < errors[0] / errors[1] < 2.5 and 1.6 < errors[1] / errors[2] < 2.5


def test_gradient_error_tells_a_gradient_from_its_negative(rng):
    a = rng.normal(size=5)
    f = lambda x: float(np.sin(a @ x))
    x = rng.normal(size=5)
    grad = np.cos(a @ x) * a
    directions = R.unit_directions(rng, 5, 4)
    assert R.gradient_error(grad, f, x, directions, 1e-5) < 1e-8
    assert R.gradient_error(-grad, f, x, directions, 1e-5) == pytest.approx(2.0, abs=1e-8)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    outer_span = summary["outer"]
    assert outer_span["self_s"] == pytest.approx(
        outer_span["total_s"] - summary["inner"]["total_s"], abs=1e-12)
    assert summary["inner"]["self_s"] == summary["inner"]["total_s"]
