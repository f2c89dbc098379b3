"""Lindbladian superoperators, propagators, fidelities and their gradients.

Everything acts on row-major vectorized density matrices (see
:mod:`spinctrl.linalg`): the master equation becomes

    d res(rho)/dt = F res(rho),     F = K(H) + D,

with the commutator part ``K(H) = -i (H kron I - I kron conj(H))`` and the
dissipator ``D = sum_j gamma_j (L_j kron conj(L_j)
- 1/2 ((L_j^dag L_j) kron I + I kron conj(L_j^dag L_j)))``.

Superoperators and propagators are plain complex128 ``(d^2, d^2)`` arrays.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import dagger, kron, res, unres
from .model import build_collapse_ops, build_controls, build_drift

__all__ = [
    "PulseSequence",
    "Generator",
    "assemble_dissipator",
    "assemble_hamiltonian_super",
    "build_generator",
    "unitary_superoperator",
    "target_superoperator",
    "step_propagator_exact",
    "total_propagator_exact",
    "split_factors",
    "split_propagator",
    "split_gradient",
    "machnes_gradient",
    "dt_validity_check",
    "superop_fidelity",
    "fitness_target",
    "state_fitness",
    "propagate_state",
]


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Piecewise-constant control amplitudes: M intervals of length dt.

    Empty sequences are allowed and act as the identity propagator.  The
    amplitudes and dt must be finite.
    """

    hx: np.ndarray
    hy: np.ndarray
    dt: float

    def __post_init__(self):
        hx = np.atleast_1d(np.asarray(self.hx, dtype=np.float64))
        hy = np.atleast_1d(np.asarray(self.hy, dtype=np.float64))
        if hx.ndim != 1 or hy.ndim != 1 or hx.shape != hy.shape:
            raise ValueError("hx and hy must be 1-D arrays of equal length")
        # a NaN or an infinity anywhere makes the dot product non-finite;
        # only then is each field checked, which also lets a finite overflow pass
        if not math.isfinite(hx @ hy):
            for name, h in (("hx", hx), ("hy", hy)):
                if not np.isfinite(h).all():
                    raise ValueError(f"{name} must be finite")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hy", hy)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def num_pulses(self):
        return self.hx.shape[0]

    @property
    def duration(self):
        return self.num_pulses * self.dt

    @classmethod
    def from_genome(cls, genome, dt):
        """Split a flat parameter vector (hx's then hy's) into a sequence."""
        genome = np.asarray(genome, dtype=np.float64).reshape(-1)
        if genome.size % 2:
            raise ValueError("genome length must be even (hx block then hy block)")
        m = genome.size // 2
        return cls(genome[:m], genome[m:], dt)

    def genome(self):
        return np.concatenate([self.hx, self.hy])


@dataclass(frozen=True, eq=False)
class Generator:
    """Assembled Lindbladian pieces for one system + noise configuration.

    ``drift`` and ``controls`` are the d x d Hamiltonians, ``drift_comm``
    and ``control_comms`` their commutator superoperators ``K(H)``.  The
    dissipator is kept as its two split-method exponents: the jump part
    ``sum gamma L kron conj(L)`` and the decay part, the anticommutator half.
    """

    drift_comm: np.ndarray
    control_comms: tuple
    dim: int
    jump_part: np.ndarray
    decay_part: np.ndarray
    drift: np.ndarray
    controls: tuple

    @property
    def base(self):
        """Control-independent generator: drift commutator plus dissipator."""
        return self.drift_comm + self.jump_part + self.decay_part

    def at(self, hx, hy):
        """Full generator F(hx, hy)."""
        return self.base + hx * self.control_comms[0] + hy * self.control_comms[1]


def _dissipator_parts(collapse_ops, dim):
    d2 = dim * dim
    jump = np.zeros((d2, d2), dtype=np.complex128)
    decay = np.zeros((d2, d2), dtype=np.complex128)
    ident = np.eye(dim, dtype=np.complex128)
    for op, gamma in collapse_ops:
        op = np.asarray(op, dtype=np.complex128)
        if op.shape != (dim, dim):
            raise ValueError(
                f"collapse operator has shape {op.shape}, expected {(dim, dim)}"
            )
        gram = dagger(op) @ op
        jump += gamma * kron(op, np.conj(op))
        decay += -0.5 * gamma * (kron(gram, ident) + kron(ident, np.conj(gram)))
    return jump, decay


def assemble_dissipator(collapse_ops):
    """Dissipative superoperator for a list of ``(L, gamma)`` pairs."""
    ops = list(collapse_ops)
    if not ops:
        raise ValueError("assemble_dissipator needs at least one collapse operator")
    dim = np.asarray(ops[0][0]).shape[0]
    jump, decay = _dissipator_parts(ops, dim)
    return jump + decay


def assemble_hamiltonian_super(h, tol=1e-10):
    """Commutator superoperator K(H) generating ``-i [H, rho]``."""
    h = np.asarray(h, dtype=np.complex128)
    defect = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if defect > tol:
        warnings.warn(
            f"Hamiltonian is not Hermitian (defect {defect:.3e})", stacklevel=2
        )
    ident = np.eye(h.shape[0], dtype=np.complex128)
    return -1j * (kron(h, ident) - kron(ident, np.conj(h)))


def build_generator(system, control_site, noise=None):
    """Assemble the Generator for a spin system, control site and noise."""
    h0 = build_drift(system)
    sx, sy = build_controls(system, control_site)
    collapse = build_collapse_ops(system, noise) if noise is not None else []
    jump, decay = _dissipator_parts(collapse, system.dim)
    return Generator(
        drift_comm=assemble_hamiltonian_super(h0),
        control_comms=(
            assemble_hamiltonian_super(sx),
            assemble_hamiltonian_super(sy),
        ),
        dim=system.dim,
        jump_part=jump,
        decay_part=decay,
        drift=h0,
        controls=(sx, sy),
    )


def unitary_superoperator(u):
    """Conjugation superoperator ``rho -> U rho U^dag`` as ``U kron conj(U)``."""
    u = np.asarray(u, dtype=np.complex128)
    return kron(u, np.conj(u))


def target_superoperator(scenario):
    """Full-register target map: the target unitary extended by identity on
    the ancilla, turned into a conjugation superoperator."""
    return unitary_superoperator(scenario.full_target_unitary())


def step_propagator_exact(gen, hx, hy, dt):
    """One interval of exact evolution: ``expm(dt F(hx, hy))``."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    return _kernels.expm(dt * gen.at(hx, hy))


def total_propagator_exact(gen, pulses):
    """Exact propagator of the whole sequence; interval 0 acts first."""
    return _kernels.piecewise_total(
        gen.base, gen.control_comms[0], gen.control_comms[1],
        pulses.hx, pulses.hy, pulses.dt,
    )


def _noise_factors(gen, dt):
    """Control-independent split factors ``(expm(dt decay), expm(dt jump))``.

    An all-zero part (no collapse operators) gives exactly the identity:
    the Pade solve leaves ``1 - 1.1e-16`` on the diagonal of ``expm(0)``.
    """
    ident = np.eye(gen.dim * gen.dim, dtype=np.complex128)
    return tuple(
        _kernels.expm(dt * part) if np.any(part) else ident
        for part in (gen.decay_part, gen.jump_part)
    )


def _noise_step(gen, dt):
    """The control-independent split factor ``A B``, or None for a
    noiseless generator, whose ``A B`` is exactly the identity."""
    if not (np.any(gen.decay_part) or np.any(gen.jump_part)):
        return None
    a, b = _noise_factors(gen, dt)
    return a @ b


def split_factors(gen, hx, hy, dt):
    """Per-interval splitting factors (decay, jump, coherent).

    The product ``A @ B @ C`` approximates the exact step to O(dt^2); only
    the coherent factor C depends on the controls.  This is the dense
    per-interval reference: C is the kernels' Pade ``expm`` of the
    ``(d^2, d^2)`` commutator generator, so it is bit for bit the kernel
    backend's ``expm(dt F)`` of a noiseless generator.  :func:`split_propagator`
    and :func:`split_gradient` instead apply C as ``U kron conj(U)``, from
    the d x d unitary ``U = exp(-i dt H)``, without forming it.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    a, b = _noise_factors(gen, dt)
    c = _kernels.expm(
        dt * (gen.drift_comm + hx * gen.control_comms[0] + hy * gen.control_comms[1])
    )
    return a, b, c


def _coherent_unitaries(gen, pulses):
    """Interval unitaries ``U_k = exp(-i dt H_k)`` from one batched ``eigh``
    of the ``(M, d, d)`` stack of Hamiltonians.

    Returns ``(U, w, V, V^dag)``: ``H_k = V_k diag(w_k) V_k^dag`` and ``U_k =
    V_k exp(-i dt w_k) V_k^dag``.
    """
    hx = pulses.hx[:, None, None]
    hy = pulses.hy[:, None, None]
    w, v = np.linalg.eigh(gen.drift + hx * gen.controls[0] + hy * gen.controls[1])
    vh = np.conj(v).swapaxes(-1, -2)
    return (v * np.exp(-1j * pulses.dt * w)[:, None, :]) @ vh, w, v, vh


def _kron_conj_left(u, x):
    """``(u kron conj(u)) @ x`` as two d x d contractions, O(d^5)."""
    d = u.shape[0]
    y = (u @ x.reshape(d, -1)).reshape(d, d, -1)
    return (np.conj(u) @ y).reshape(x.shape)


def _kron_conj_right(x, u):
    """``x @ (u kron conj(u))``, the transpose of :func:`_kron_conj_left`."""
    return _kron_conj_left(u.T, x.T).T


def split_propagator(gen, pulses):
    """Product of per-interval splitting factors, interval 0 first.

    Step k is ``A B (U_k kron conj(U_k))``; the coherent factor is applied
    by contraction and never formed, and ``A B`` is skipped without noise.
    """
    ab = _noise_step(gen, pulses.dt)
    total = np.eye(gen.dim * gen.dim, dtype=np.complex128)
    for u in _coherent_unitaries(gen, pulses)[0]:
        total = _kron_conj_left(u, total)
        if ab is not None:
            total = ab @ total
    return total


def _sweep(target, num_steps, fixed, left, right, contract):
    """Trace fidelity of the chain ``S_{M-1} ... S_0`` and its gradient.

    Step k is ``S_k = fixed @ P_k``: ``fixed`` is a control-independent
    factor, or None for none, and ``left(k, x)`` and ``right(k, x)`` return
    ``P_k @ x`` and ``x @ P_k``.  With ``fwd_k`` the product of the steps
    before interval k and ``back_k`` the product ``target^dag`` times the
    steps after it, the fidelity is ``Re Tr(env P_k) / d^2`` for ``env =
    fwd_k @ back_k @ fixed``.  ``contract(k, env)`` returns ``Re Tr(env
    dP_k/dhx)`` and ``Re Tr(env dP_k/dhy)``.  The forward products are
    stored; the backward product, ``fixed`` folded in, is one running
    matrix.  Returns ``(f, grad)`` with ``grad[:M]`` the hx derivatives and
    ``grad[M:]`` the hy derivatives.
    """
    target = np.asarray(target, dtype=np.complex128)
    m, d2 = num_steps, target.shape[-1]
    norm = 1.0 / d2
    fwd = np.empty((m, d2, d2), dtype=np.complex128)
    total = np.eye(d2, dtype=np.complex128)
    for k in range(m):
        fwd[k] = total
        total = left(k, total)
        if fixed is not None:
            total = fixed @ total
    fidelity = float(np.vdot(target, total).real) * norm

    grad = np.empty(2 * m, dtype=np.float64)
    back = dagger(target)
    if fixed is not None:
        back = back @ fixed
    for k in range(m - 1, -1, -1):
        grad[k], grad[m + k] = contract(k, fwd[k] @ back)
        if k:
            back = right(k, back)
            if fixed is not None:
                back = back @ fixed
    return fidelity, grad * norm


def _expm_divided_differences(theta):
    """Divided-difference tables of exp at the points ``i * theta``.

    ``theta`` is (..., n); entry (..., p, q) is ``(e^{i theta_p} - e^{i
    theta_q}) / (i (theta_p - theta_q))`` with the diagonal limit, evaluated
    in the stable product form ``e^{i mean} sinc(delta / 2)``.
    """
    mean = 0.5 * (theta[..., :, None] + theta[..., None, :])
    delta = 0.5 * (theta[..., :, None] - theta[..., None, :])
    return np.exp(1j * mean) * np.sinc(delta / np.pi)


def split_gradient(gen, pulses, target):
    """Fidelity of the split propagator and its exact gradient.

    Returns ``(f, grad)`` with ``grad[:M]`` the hx derivatives and
    ``grad[M:]`` the hy derivatives.  The only approximation relative to
    exact evolution is the splitting itself: the coherent factor ``U_k kron
    conj(U_k)`` is differentiated exactly through the eigendecomposition of
    the d x d Hamiltonian ``H_k``.
    """
    d, dt = gen.dim, pulses.dt
    m, d2 = pulses.num_pulses, d * d
    u, w, v, vh = _coherent_unitaries(gen, pulses)
    # dU_k = V ((V^dag dH V) * phi) V^dag, phi the divided differences of
    # exp(-i dt x) at the eigenvalues of H_k
    phi = -1j * dt * _expm_divided_differences(-dt * w)
    du = np.stack([v @ ((vh @ h @ v) * phi) @ vh for h in gen.controls])
    u_vec = u.reshape(m, d2)
    u_bar_t = np.conj(u).swapaxes(-1, -2).reshape(m, d2)
    du_vec = du.reshape(2, m, d2)
    du_bar_t = np.conj(du).swapaxes(-1, -2).reshape(2, m, d2)

    def contract(k, env):
        # Tr(env dC) for dC = dU kron conj(U) + U kron conj(dU), with
        # e[(c, a), (b, d)] = env[(a, b), (c, d)]: the first half is
        # sum(dU * P), vec(P) = e @ vec(conj(U)^T), the second
        # sum(conj(dU)^T * Q), vec(Q) = vec(U) @ e.
        e = env.reshape(d, d, d, d).transpose(2, 0, 1, 3).reshape(d2, d2)
        return (du_vec[:, k] @ (e @ u_bar_t[k]) + du_bar_t[:, k] @ (u_vec[k] @ e)).real

    return _sweep(
        target,
        m,
        _noise_step(gen, dt),
        lambda k, x: _kron_conj_left(u[k], x),
        lambda k, x: _kron_conj_right(x, u[k]),
        contract,
    )


def machnes_gradient(gen, pulses, target):
    """Trace fidelity under exact evolution with the first-order gradient.

    The step derivative is approximated by ``+dt K(dH/dh) X_k``, which is
    valid for ``dt`` well below the inverse generator norm; a warning is
    emitted when the sequence sits outside that regime.
    """
    dt = pulses.dt
    if pulses.num_pulses:
        h_peak = float(np.max(np.abs(pulses.genome())))
        ok, bound = dt_validity_check(gen, h_peak, dt)
        if not ok:
            warnings.warn(
                f"dt = {dt:.3e} exceeds a tenth of the validity bound {bound:.3e}; "
                "the approximate gradient may be inaccurate",
                stacklevel=2,
            )

    steps = _kernels.piecewise_steps(
        gen.base, gen.control_comms[0], gen.control_comms[1],
        pulses.hx, pulses.hy, dt,
    )
    control_ts = [k.T for k in gen.control_comms]

    def contract(k, env):
        # Tr(env dt K X_k) = dt sum(K^T * (X_k env))
        y = steps[k] @ env
        return [dt * np.sum(kt * y).real for kt in control_ts]

    return _sweep(
        target,
        pulses.num_pulses,
        None,
        lambda k, x: steps[k] @ x,
        lambda k, x: x @ steps[k],
        contract,
    )


def dt_validity_check(gen, h_max, dt):
    """Check ``dt`` against the approximate-gradient validity bound.

    The bound is the inverse of the exact spectral norm (largest singular
    value) of the generator at full control amplitude; the check passes
    when ``dt`` is at most a tenth of it.
    """
    norm = float(np.linalg.norm(gen.at(h_max, h_max), 2))
    bound = math.inf if norm == 0.0 else 1.0 / norm
    return dt <= bound / 10.0, bound


def superop_fidelity(a, target, n_qubits):
    """Trace fidelity ``Re Tr(target^dag a) / 2^(2N)`` of two superoperators."""
    a = np.asarray(a, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    d2 = 4**n_qubits
    if a.shape != (d2, d2) or target.shape != (d2, d2):
        raise ValueError(
            f"expected {(d2, d2)} superoperators, got {a.shape} and {target.shape}"
        )
    return float(np.vdot(target, a).real) / d2


def _ancilla_trace_map(n_qubits, ancilla_sites):
    """Superoperator R of the partial trace over the ancilla, ``(d_t^2, d^2)``.

    Column i is ``res`` of the reduced matrix unit ``Tr_anc unres(e_i)``.
    """
    d = 2**n_qubits
    ancilla = set(ancilla_sites)
    keep = [s for s in range(n_qubits) if s not in ancilla]
    units = np.eye(d * d).reshape((d * d,) + (2,) * (2 * n_qubits))
    batch = 2 * n_qubits
    row_idx = list(range(n_qubits))
    col_idx = [s if s in ancilla else n_qubits + s for s in range(n_qubits)]
    out_idx = [batch] + keep + [n_qubits + s for s in keep]
    reduced = np.einsum(units, [batch] + row_idx + col_idx, out_idx)
    return reduced.reshape(d * d, 4 ** len(keep)).T


_FITNESS_TARGETS = weakref.WeakKeyDictionary()


def fitness_target(scenario):
    """Target ``W`` with ``state_fitness(X) = superop_fidelity(X, W)``.

    The state fitness sums ``Re Tr((U R e_i U^dag)^dag R X e_i)`` over all
    matrix units, i.e. ``Re <R^dag (U kron conj(U)) R, X>``, normalized by
    ``z`` instead of ``d^2``.  Without an ancilla ``W`` is the target
    superoperator.  ``W`` is built once per scenario and returned
    read-only; a scenario is immutable and hashes by identity.
    """
    w = _FITNESS_TARGETS.get(scenario)
    if w is None:
        r = _ancilla_trace_map(scenario.num_qubits, scenario.ancilla_sites)
        z = 2 ** (2 * len(scenario.target_sites) + len(scenario.ancilla_sites))
        w = r.T @ unitary_superoperator(scenario.target_unitary) @ r
        w *= scenario.dim**2 / z
        w.flags.writeable = False
        _FITNESS_TARGETS[scenario] = w
    return w


def state_fitness(channel, scenario):
    """Average overlap between evolved and target states over all matrix
    units of the full register, the ancilla traced out after evolution.

    Normalized so any channel of the form ``rho -> (U_T kron W) rho
    (U_T kron W)^dag`` with unitary W on the ancilla scores exactly 1.  The
    fitness is linear in the channel: see :func:`fitness_target`.
    """
    return superop_fidelity(channel, fitness_target(scenario), scenario.num_qubits)


def propagate_state(propagator, rho):
    """Apply a superoperator to a density matrix."""
    return unres(np.asarray(propagator) @ res(rho))
