"""Reference computations for the benchmark's checks.

Built apart from ``spinctrl``, from the physics alone, with
``scipy.linalg.expm`` and plain NumPy.  Superoperators here use column
stacking, ``vec(A X B) = (B^T kron A) vec(X)``, where ``spinctrl`` stacks
rows, so a vectorisation error in the program cannot cancel against the same
error here.  Fidelities are traces and do not depend on the convention.

Qubit 0 is the leftmost Kronecker factor.  The chain is Heisenberg with
J = 1, the controls are the Pauli X and Y on one site, and noise is one
collapse operator per site: ``|0><1|`` for amplitude damping and Z for phase
damping, each at rate gamma.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)
NOT = PAULI["x"]
COLLAPSE = {"amplitude_damping": LOWERING, "phase_damping": PAULI["z"]}


def site_operator(op, site, n_qubits):
    """``op`` on qubit ``site`` and the identity on the other qubits."""
    out = np.eye(1, dtype=complex)
    for k in range(n_qubits):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


@dataclass(frozen=True, eq=False)
class System:
    """Drift, the two control Hamiltonians and the ``(L, gamma)`` pairs."""

    n_qubits: int
    h0: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    collapse: tuple

    @property
    def dim(self):
        return 2**self.n_qubits


def heisenberg_chain(n_qubits, control_site, noise=None, gamma=0.0):
    """Open Heisenberg chain with X/Y control on ``control_site`` and
    ``noise`` (a kind, or None) at rate ``gamma`` on every site."""
    d = 2**n_qubits
    h0 = np.zeros((d, d), dtype=complex)
    for i in range(n_qubits - 1):
        for p in PAULI.values():
            h0 += site_operator(p, i, n_qubits) @ site_operator(p, i + 1, n_qubits)
    collapse = ()
    if noise is not None:
        op = COLLAPSE[noise]
        collapse = tuple(
            (site_operator(op, s, n_qubits), gamma) for s in range(n_qubits)
        )
    return System(
        n_qubits,
        h0,
        site_operator(PAULI["x"], control_site, n_qubits),
        site_operator(PAULI["y"], control_site, n_qubits),
        collapse,
    )


def commutator_super(h):
    """Column-stacked generator of ``-i [h, rho]``."""
    ident = np.eye(h.shape[0])
    return -1j * (np.kron(ident, h) - np.kron(h.T, ident))


def noise_supers(system):
    """Column-stacked ``(decay, jump)`` parts of the dissipator."""
    d2 = system.dim**2
    ident = np.eye(system.dim)
    decay = np.zeros((d2, d2), dtype=complex)
    jump = np.zeros((d2, d2), dtype=complex)
    for op, gamma in system.collapse:
        gram = op.conj().T @ op
        jump += gamma * np.kron(op.conj(), op)
        decay -= 0.5 * gamma * (np.kron(ident, gram) + np.kron(gram.T, ident))
    return decay, jump


def unitary_super(u):
    """Column-stacked ``rho -> u rho u^dag``."""
    return np.kron(u.conj(), u)


def _hamiltonian(system, a, b):
    return system.h0 + a * system.hx + b * system.hy


def split_channel(system, hx, hy, dt):
    """Product over intervals of ``expm(dt decay) expm(dt jump)
    expm(dt coherent)``, interval 0 acting first."""
    decay, jump = noise_supers(system)
    noise = expm(dt * decay) @ expm(dt * jump)
    x = np.eye(system.dim**2, dtype=complex)
    for a, b in zip(hx, hy):
        x = noise @ expm(dt * commutator_super(_hamiltonian(system, a, b))) @ x
    return x


def exact_channel(system, hx, hy, dt):
    """Product over intervals of ``expm(dt F)``, interval 0 acting first."""
    decay, jump = noise_supers(system)
    x = np.eye(system.dim**2, dtype=complex)
    for a, b in zip(hx, hy):
        f = commutator_super(_hamiltonian(system, a, b)) + decay + jump
        x = expm(dt * f) @ x
    return x


def unitary_propagator(system, hx, hy, dt):
    """d x d propagator of the noiseless system, interval 0 acting first."""
    u = np.eye(system.dim, dtype=complex)
    for a, b in zip(hx, hy):
        u = expm(-1j * dt * _hamiltonian(system, a, b)) @ u
    return u


def channel_fidelity(channel, target):
    """``Re Tr(T^dag X) / d^2`` for the target unitary's superoperator T."""
    d2 = channel.shape[0]
    return float(np.vdot(unitary_super(target), channel).real) / d2


def unitary_fidelity(u, target):
    """``|Tr(T^dag U)|^2 / d^2`` from d x d propagation."""
    d = u.shape[0]
    return float(abs(np.vdot(target, u)) ** 2) / d**2


def trace_preservation_defect(channel):
    """``max |vec(I)^T X - vec(I)^T|``; 0 for a trace-preserving channel."""
    d = int(round(np.sqrt(channel.shape[0])))
    vec_ident = np.eye(d).reshape(-1)
    return float(np.max(np.abs(vec_ident @ channel - vec_ident)))


def partial_trace(rho, n_qubits, traced_sites):
    """Trace the qubits in ``traced_sites`` out of an n-qubit matrix."""
    t = np.asarray(rho).reshape((2,) * (2 * n_qubits))
    n = n_qubits
    for site in sorted(traced_sites, reverse=True):
        t = np.trace(t, axis1=site, axis2=site + n)
        n -= 1
    d = 2**n
    return t.reshape(d, d)


def state_fitness(channel, n_qubits, target, ancilla_sites):
    """Mean overlap of the evolved and the target state over every matrix
    unit ``|i><j|`` of the register, the ancilla traced out of both.

    Normalised by the number of matrix units whose reduced image is
    nonzero, ``d_target^2 * d_ancilla``, so the target channel scores 1.
    """
    d = 2**n_qubits
    d_ancilla = 2 ** len(ancilla_sites)
    d_target = d // d_ancilla
    total = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            image = channel[:, j * d + i].reshape(d, d, order="F")
            reduced = partial_trace(image, n_qubits, ancilla_sites)
            reduced_in = partial_trace(unit, n_qubits, ancilla_sites)
            expected = target @ reduced_in @ target.conj().T
            total += float(np.vdot(expected, reduced).real)
    return total / (d_target**2 * d_ancilla)


def unit_directions(rng, size, count):
    """``count`` random unit vectors of length ``size``."""
    v = rng.normal(size=(count, size))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def gradient_error(grad, f, x, directions, eps):
    """``||V g - d|| / ||d||`` with ``d`` the central differences
    ``(f(x + eps v) - f(x - eps v)) / (2 eps)`` along the rows v of V."""
    fd = np.array([(f(x + eps * v) - f(x - eps * v)) / (2 * eps) for v in directions])
    return float(np.linalg.norm(directions @ grad - fd) / np.linalg.norm(fd))
