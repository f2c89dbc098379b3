"""Lindbladian superoperators, propagators, fidelities and their gradients.

Everything acts on density matrices vectorized by stacking their rows (see
:mod:`spinctrl.linalg`): the master equation becomes

    d vec(rho)/dt = F vec(rho),     F = K(H) + D,

with the commutator part ``K(H) = -i (H kron I - I kron conj(H))`` and the
dissipator ``D = sum_j gamma_j (L_j kron conj(L_j)
- 1/2 ((L_j^dag L_j) kron I + I kron conj(L_j^dag L_j)))``.

Superoperators and propagators are plain complex128 ``(d^2, d^2)`` arrays.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _kernels
from .linalg import dagger, kron
from .model import build_collapse_ops, build_controls, build_drift

__all__ = [
    "PulseSequence",
    "Generator",
    "assemble_hamiltonian_super",
    "build_generator",
    "unitary_superoperator",
    "target_superoperator",
    "total_propagator_exact",
    "split_propagator",
    "split_gradient",
    "machnes_gradient",
    "dt_validity_check",
    "superop_fidelity",
    "fitness_target",
    "state_fitness",
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

    ``base`` is the control-independent ``(d^2, d^2)`` generator, the drift
    commutator ``K(H0)`` plus the dissipator, and ``control_comms`` the
    commutators ``K(H)`` of the two controls.  Dense ``(d^2, d^2)`` steps
    are exponentials of their real forms in :func:`_real_parts`, memoised
    per generator, but for d <= 4 exact propagation runs ``piecewise_total``.
    ``drift`` and ``controls`` are the d x d Hamiltonians.  The split method
    exponentiates the dissipator's two parts apart: ``jump_part`` is the
    ``(d^2, d^2)`` ``sum gamma L kron conj(L)``, and ``decay`` is the d x d
    ``K = -1/2 sum gamma L^dag L``, whose ``K kron I + I kron conj(K)`` is
    the rest.  The arrays are made read-only, so the split noise factors memoised per
    generator cannot go stale.
    """

    base: np.ndarray
    control_comms: tuple
    dim: int
    jump_part: np.ndarray
    drift: np.ndarray
    controls: tuple
    decay: np.ndarray

    def __post_init__(self):
        for name in ("base", "jump_part", "drift", "decay"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        for name in ("control_comms", "controls"):
            object.__setattr__(self, name, tuple(map(_read_only, getattr(self, name))))

    def at(self, hx, hy):
        """Full generator F(hx, hy)."""
        return self.base + hx * self.control_comms[0] + hy * self.control_comms[1]


def _read_only(a):
    a = np.asarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def assemble_hamiltonian_super(h):
    """Commutator superoperator K(H) generating ``-i [H, rho]``.  Raises
    ``ValueError`` when H is more than 1e-10 away from Hermitian: for such
    an H, ``H kron I - I kron conj(H)`` is not the commutator."""
    h = np.asarray(h, dtype=np.complex128)
    defect = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if defect > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
    ident = np.eye(h.shape[0], dtype=np.complex128)
    return -1j * (kron(h, ident) - kron(ident, np.conj(h)))


def build_generator(system, control_site, noise=None):
    """Assemble the Generator for a spin system, control site and noise."""
    h0 = build_drift(system)
    sx, sy = build_controls(system, control_site)
    collapse = build_collapse_ops(system, noise) if noise is not None else []
    dim, d2 = system.dim, system.dim**2
    jump = np.zeros((d2, d2), dtype=np.complex128)
    decay_part = np.zeros((d2, d2), dtype=np.complex128)
    ident = np.eye(dim, dtype=np.complex128)
    k = np.zeros((dim, dim), dtype=np.complex128)
    for op, gamma in collapse:
        gram = dagger(op) @ op
        jump += gamma * kron(op, np.conj(op))
        decay_part += -0.5 * gamma * (kron(gram, ident) + kron(ident, np.conj(gram)))
        k += -0.5 * gamma * gram
    return Generator(
        base=assemble_hamiltonian_super(h0) + jump + decay_part,
        control_comms=(
            assemble_hamiltonian_super(sx),
            assemble_hamiltonian_super(sy),
        ),
        dim=dim,
        jump_part=jump,
        drift=h0,
        controls=(sx, sy),
        decay=k,
    )


def unitary_superoperator(u):
    """Conjugation superoperator ``rho -> U rho U^dag`` as ``U kron conj(U)``."""
    u = np.asarray(u, dtype=np.complex128)
    return kron(u, np.conj(u))


def target_superoperator(scenario):
    """Full-register target map: the target unitary extended by identity on
    the ancilla, turned into a conjugation superoperator."""
    return unitary_superoperator(scenario.full_target_unitary())


def total_propagator_exact(gen, pulses):
    """Exact propagator of the whole sequence; interval 0 acts first.

    For d <= 4 this is one ``_kernels.piecewise_total`` call.  For d >= 8
    the chain runs on the real generators of :func:`_real_parts`: one
    ``scipy.linalg.expm`` per interval of the real ``dt (R_base + hx R_x +
    hy R_y)``, multiplied onto a running real product, and the result is
    ``S total S^dag``.  With one BLAS thread on a 2-core Xeon, on scenario
    (d) with 128 intervals, that takes 27 ms against 70 ms for the
    compiled kernel (best of 15).  At d^2 = 16 it is no faster (0.94
    against 0.75 ms on (a)), and SciPy's loop holds the interpreter lock
    that the compiled one releases, so the GA's worker threads would no
    longer overlap.  An empty sequence gives exactly the identity.
    """
    if gen.dim <= 4:
        return _kernels.piecewise_total(
            gen.base, gen.control_comms[0], gen.control_comms[1],
            pulses.hx, pulses.hy, pulses.dt,
        )
    d2 = gen.dim * gen.dim
    if not pulses.num_pulses:
        return np.eye(d2, dtype=np.complex128)
    s, r_base, r_x, r_y = _real_parts(gen)
    dt, total = pulses.dt, np.eye(d2)
    for hx, hy in zip(pulses.hx, pulses.hy):
        total = scipy.linalg.expm(dt * (r_base + hx * r_x + hy * r_y)) @ total
    return s @ total @ dagger(s)


_REAL_PARTS = weakref.WeakKeyDictionary()


def _real_parts(gen):
    """The Hermitian basis S and the real generators ``S^dag X S`` of
    ``base`` and both ``control_comms``, built once per generator.

    The columns of the unitary ``(d^2, d^2)`` S are ``vec E_cc`` and, for
    the pairs c < e, ``(E_ce + E_ec) / sqrt 2`` and ``i (E_ce - E_ec) /
    sqrt 2``: an orthonormal basis of Hermitian matrices.  A map that
    takes Hermitian matrices to Hermitian ones, as every Lindbladian does,
    is a real matrix in it (Havel, J. Math. Phys. 44, 534 (2003)).  Raises
    ``ValueError`` when a part's imaginary component exceeds 1e-12 of its
    norm, rather than drop it.  The parts are read-only.
    """
    parts = _REAL_PARTS.get(gen)
    if parts is None:
        d, half = gen.dim, math.sqrt(0.5)
        rows, cols = np.triu_indices(d, 1)
        ce, ec = rows * d + cols, cols * d + rows
        sym = np.arange(d, d + rows.size)
        s = np.zeros((d * d, d * d), dtype=np.complex128)
        s[np.arange(d) * (d + 1), np.arange(d)] = 1.0
        s[ce, sym] = s[ec, sym] = half
        s[ce, sym + rows.size], s[ec, sym + rows.size] = 1j * half, -1j * half
        parts = [s]
        for name, x in zip(("base", "hx control", "hy control"), (gen.base, *gen.control_comms)):
            r = dagger(s) @ x @ s
            if np.linalg.norm(r.imag) > 1e-12 * np.linalg.norm(r):
                raise ValueError(
                    f"the {name} generator does not map Hermitian matrices to Hermitian ones"
                )
            r = np.ascontiguousarray(r.real)
            r.flags.writeable = False
            parts.append(r)
        s.flags.writeable = False
        parts = _REAL_PARTS[gen] = tuple(parts)
    return parts


_NOISE_FACTORS = weakref.WeakKeyDictionary()


def _noise_factors(gen, dt):
    """Control-independent split factors ``(E, B, B^T)``, built once per
    generator and dt.

    The decay factor, the exponential of ``dt (K kron I + I kron
    conj(K))``, is ``A = E kron conj(E)`` with the d x d ``E = expm(dt K)``,
    returned read-only; the jump factor ``B = expm(dt jump_part)`` and its
    transpose are ``scipy.sparse.csr_array`` (125 of 4096 entries are
    nonzero on a 3-qubit chain with amplitude damping, and B is diagonal
    with phase damping).  Both exponentials are ``scipy.linalg.expm``, whose
    ``expm(0)`` is exactly the identity, so a generator without collapse
    operators gets exact identity factors.  A generator is immutable and
    hashes by identity.
    """
    by_dt = _NOISE_FACTORS.setdefault(gen, {})
    factors = by_dt.get(dt)
    if factors is None:
        import scipy.sparse

        e, b = (scipy.linalg.expm(dt * part) for part in (gen.decay, gen.jump_part))
        e.flags.writeable = False
        b = scipy.sparse.csr_array(b)
        factors = by_dt[dt] = (e, b, b.T.tocsr())
    return factors


def _noiseless(gen):
    """Whether the generator has no collapse operators."""
    return not (np.any(gen.decay) or np.any(gen.jump_part))


def _interval_unitaries(gen, pulses):
    """The (M, d, d) stack of interval unitaries ``U_k = exp(-i dt H_k)``,
    from one ``_kernels.piecewise_steps`` call on the d x d ``-iH``."""
    return _kernels.piecewise_steps(
        -1j * gen.drift, -1j * gen.controls[0], -1j * gen.controls[1],
        pulses.hx, pulses.hy, pulses.dt,
    )


def _kron_conj_left(u, x):
    """``(u kron conj(u)) @ x`` as two d x d contractions, O(d^5)."""
    d = u.shape[0]
    y = (u @ x.reshape(d, -1)).reshape(d, d, -1)
    return (np.conj(u) @ y).reshape(x.shape)


def _fold_decay(u, e):
    """``W_0 = U_0`` and ``W_k = U_k E`` for k >= 1, on the interval axis
    third from the end; ``u`` is a stack of ``U_k`` or of their derivatives.

    The split chain ``A B C_{M-1} ... A B C_0``, with ``C_k = U_k kron
    conj(U_k)`` and ``A = E kron conj(E)``, regroups as ``A [B (W_{M-1}
    kron conj(W_{M-1}))] ... [B (W_0 kron conj(W_0))]``.
    """
    w = u.copy()
    w[..., 1:, :, :] = u[..., 1:, :, :] @ e
    return w


def split_propagator(gen, pulses):
    """Product of per-interval splitting factors ``A B C_k``, interval 0
    first.

    The chain runs regrouped as in :func:`_fold_decay`: per interval one
    contraction applies ``W_k kron conj(W_k)`` and one sparse product B,
    and a last contraction applies A.  The unitaries ``U_k`` come from
    :func:`_interval_unitaries`.  An empty sequence gives the identity.
    """
    total = np.eye(gen.dim * gen.dim, dtype=np.complex128)
    if not pulses.num_pulses:
        return total
    u = _interval_unitaries(gen, pulses)
    e, b, _ = _noise_factors(gen, pulses.dt)
    for w in _fold_decay(u, e):
        total = b @ _kron_conj_left(w, total)
    return _kron_conj_left(e, total)


def _unitary_close(target, u):
    """Trace fidelity of ``U kron conj(U)`` against the ``(d^2, d^2)``
    target, and the matrix G with ``Re Tr(G dU)`` its derivative.

    The derivative is ``Re Tr(Z1^dag dU) + Re Tr(Z2 dU)``: Z1 is the target
    contracted with U in the conj(U) slot, Z2 with conj(U) in the U slot.
    Both terms are kept, so G is exact for any target, not only one that
    maps Hermitian matrices to Hermitian matrices.  Contractions are
    O(d^4).
    """
    d = u.shape[-1]
    t4 = target.reshape(d, d, d, d)
    u_bar = np.conj(u)
    z1 = np.einsum("abce,be->ac", t4, u)
    z2 = np.einsum("abce,ac->eb", t4, u_bar)
    return float(np.vdot(target, kron(u, u_bar)).real) / d**2, (dagger(z1) + z2) / d**2


def _unitary_gradient(u, gens, target):
    """Noiseless fidelity and gradient on the d x d interval unitaries.

    ``u`` is the (M, d, d) stack of ``U_k``, and ``gens`` the step
    generators ``dU_k U_k^dag`` along hx and hy: a (2, M, d, d) stack, or
    (2, 1, d, d) when they do not depend on k.  The step ``U_k kron
    conj(U_k)`` is never formed.  With ``fwd_k = U_{k-1} ... U_0`` and
    ``total = fwd_M``, the chain is unitary, so the product after interval
    k is ``U_{M-1} ... U_{k+1} = total fwd_{k+1}^dag`` and there is no
    backward sweep.  The derivative along ``dU_k`` is the GRAPE conjugation
    form ``Re Tr(P_k gens_k)`` with ``P_k = fwd_{k+1} G total
    fwd_{k+1}^dag``, all M at once (Khaneja et al., J. Magn. Reson. 172,
    296 (2005)).
    """
    m, d = u.shape[0], u.shape[-1]
    fwd = np.empty((m + 1, d, d), dtype=np.complex128)
    fwd[0] = np.eye(d, dtype=np.complex128)
    for k in range(m):
        np.matmul(u[k], fwd[k], out=fwd[k + 1])
    fidelity, g = _unitary_close(target, fwd[m])
    p = fwd[1:] @ (g @ fwd[m]) @ dagger(fwd[1:])
    # Re Tr(P gens) = Re sum(P^T * gens)
    return fidelity, np.einsum("...ij,...ji->...", p, gens).real.reshape(-1)


def _expm_divided_differences(theta):
    """Divided-difference tables of exp at the points ``i * theta``.

    ``theta`` is (..., n); entry (..., p, q) is ``(e^{i theta_p} - e^{i
    theta_q}) / (i (theta_p - theta_q))`` with the diagonal limit, evaluated
    in the stable product form ``e^{i mean} sinc(delta / 2)``.
    """
    mean = 0.5 * (theta[..., :, None] + theta[..., None, :])
    delta = 0.5 * (theta[..., :, None] - theta[..., None, :])
    return np.exp(1j * mean) * np.sinc(delta / np.pi)


def _checked_target(gen, target):
    """The target as a complex array, which must be finite and ``(d^2, d^2)``."""
    target = np.asarray(target, dtype=np.complex128)
    d2 = gen.dim * gen.dim
    if target.shape != (d2, d2):
        raise ValueError(f"expected a {(d2, d2)} target superoperator, got {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError("the target superoperator must be finite")
    return target


def _hermitian_half(target, m):
    """Forward stack and target of a noisy chain on half its input columns.

    Noisy steps and step derivatives map Hermitian matrices to Hermitian
    ones: they commute with ``sigma(X) = P conj(X) P``, P the swap of the
    tensor factors.  Against ``T_h = (T + sigma(T)) / 2``, which leaves
    ``Re Tr(T^dag Y)`` unchanged for such Y, column (e, c) of the overlap
    is the conjugate of column (c, e), so only the d(d+1)/2 input columns
    (c, e), c <= e, are kept (Schulte-Herbrueggen et al., J. Phys. B 44,
    154013 (2011)).  Returns the (m + 1, d^2, d(d+1)/2) forward stack with
    its identity columns filled, and ``th = conj(T_h) / d^2`` on the kept
    columns weighted 1 on the diagonal and 2 off it.
    """
    d2, d = target.shape[-1], math.isqrt(target.shape[-1])
    rows, cols = np.triu_indices(d)
    kept = rows * d + cols
    fwd = np.empty((m + 1, d2, kept.size), dtype=np.complex128)
    fwd[0] = np.eye(d2, dtype=np.complex128)[:, kept]
    # conj(T) + P T P is 2 conj(T_h)
    t_swap = target.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d2, d2)
    return fwd, (np.conj(target) + t_swap)[:, kept] * (np.where(rows == cols, 0.5, 1.0) / d2)


def split_gradient(gen, pulses, target):
    """Fidelity of the split propagator and its exact gradient.

    Returns ``(f, grad)`` with ``grad[:M]`` the hx derivatives and
    ``grad[M:]`` the hy derivatives.  The only approximation relative to
    exact evolution is the splitting itself: the coherent factor ``U_k kron
    conj(U_k)`` is differentiated exactly through one batched ``eigh`` of
    the (M, d, d) stack of Hamiltonians, ``H_k = V_k diag(w_k) V_k^dag`` and
    ``U_k = V_k exp(-i dt w_k) V_k^dag``.  Without collapse operators the
    split propagator is exact, and the chain runs on the d x d unitaries
    ``U_k`` (GRAPE), so the gradient is also the exact one.

    With collapse operators the chain is regrouped as in
    :func:`_fold_decay`, ``dW_k = dU_k E``, the leading A moves into the
    target as ``A^dag T``, and both sweeps run on the columns of
    :func:`_hermitian_half`.  The halves ``dW kron conj(W)`` and ``W kron
    conj(dW)`` of a step derivative are each other's images under sigma,
    so neither alone is sigma-invariant and on a column subset both are
    needed: the gradient is ``Re sum(dW_k * (q_k + conj(p_k)))`` with the
    d x d ``q_k`` (dW on the ket factor) and ``p_k`` (conj(dW) on the bra
    factor), each one contraction of the stored forward product with the
    backward one.  The backward product is carried transposed so that
    every W acts from the left.  Per interval that is a few d x d by d x
    d(d+1)/2 products and one sparse product with B.
    """
    target = _checked_target(gen, target)
    d, dt, m = gen.dim, pulses.dt, pulses.num_pulses
    hx, hy = pulses.hx[:, None, None], pulses.hy[:, None, None]
    w, v = np.linalg.eigh(gen.drift + hx * gen.controls[0] + hy * gen.controls[1])
    vh = dagger(v)
    u = (v * np.exp(-1j * dt * w)[:, None, :]) @ vh
    # dU_k = V ((V^dag dH V) * phi) V^dag, phi the divided differences of
    # exp(-i dt x) at the eigenvalues of H_k
    phi = -1j * dt * _expm_divided_differences(-dt * w)
    du = np.stack([v @ ((vh @ h @ v) * phi) @ vh for h in gen.controls])
    if _noiseless(gen) or not m:
        return _unitary_gradient(u, du @ dagger(u), target)
    e, b, b_t = _noise_factors(gen, dt)
    w, dw = _fold_decay(u, e), _fold_decay(du, e)
    fwd, th = _hermitian_half(_kron_conj_left(dagger(e), target), m)
    n = fwd.shape[-1]
    for k in range(m):
        fwd[k + 1] = b @ _kron_conj_left(w[k], fwd[k])
    fidelity = float(np.sum(th * fwd[m]).real)
    # bt[(a, b), x] is the transposed product of the weighted T_h^dag / d^2
    # and the steps after interval k, B included
    bt = b_t @ th
    q = np.empty((m, d, d), dtype=np.complex128)
    for k in range(m - 1, -1, -1):
        f = fwd[k].reshape(d, d, n)
        # h[a, e, x] = sum_b conj(W)[b, e] bt[(a, b), x], and q_k[a, c] =
        # sum_(e, x) h[a, e, x] fwd_k[(c, e), x]
        h = (np.conj(w[k]).T @ bt.reshape(d, d, n)).reshape(d, d * n)
        q[k] = h @ f.reshape(d, d * n).T
        # g[c, b, x] = sum_a W[a, c] bt[(a, b), x], and p_k[b, e] =
        # sum_(c, x) g[c, b, x] fwd_k[(c, e), x]
        g = (w[k].T @ bt.reshape(d, d * n)).reshape(d, d, n)
        q[k] += np.conj(np.matmul(g, f.transpose(0, 2, 1)).sum(0))
        if k:
            bt = b_t @ (w[k].T @ h).reshape(-1, n)
    return fidelity, np.einsum("ckij,kij->ck", dw, q).real.reshape(-1)


def machnes_gradient(gen, pulses, target):
    """Trace fidelity under exact evolution with the first-order gradient.

    The step derivative is approximated by ``+dt K(dH/dh) X_k``, which is
    valid for ``dt`` well below the inverse generator norm.  That is a
    property of the run's discretisation, so nothing is checked or warned
    here: call :func:`dt_validity_check` once per run.  Without collapse
    operators the exact step is ``U_k kron conj(U_k)``, the unitaries come
    from :func:`_interval_unitaries`, and the gradient runs on them with the
    step generator ``dU_k U_k^dag = -i dt dH/dh``, the same for every k
    (Machnes et al., PRA 84, 022305 (2011)), and no backward sweep
    (:func:`_unitary_gradient`).

    With collapse operators the step ``X_k = S R_k S^dag`` is taken, for
    every d, as the real ``R_k = expm(dt (R_base + hx R_x + hy R_y))`` of
    :func:`_real_parts`, and its derivative as ``dt R_c R_k``.  The chain
    runs on all d^2 columns of the Hermitian basis S and scores against
    ``Re(S^dag T S) / d^2``, exact for any complex target as the chain is
    real.  The forward products ``fwd_k = R_{k-1} ... R_0`` are stored;
    ``bt`` is the transposed product of that score and the later steps.
    Returns ``(f, grad)``: ``grad[:M]`` along hx, ``grad[M:]`` along hy.
    """
    target = _checked_target(gen, target)
    dt, m = pulses.dt, pulses.num_pulses
    if _noiseless(gen) or not m:
        u = _interval_unitaries(gen, pulses)
        return _unitary_gradient(u, -1j * dt * np.stack(gen.controls)[:, None], target)

    s, r_base, r_x, r_y = _real_parts(gen)
    steps, fwd = np.empty((m,) + s.shape), np.empty((m + 1,) + s.shape)
    fwd[0] = np.eye(len(s))
    for k, (hx, hy) in enumerate(zip(pulses.hx, pulses.hy)):
        steps[k] = scipy.linalg.expm(dt * (r_base + hx * r_x + hy * r_y))
        np.matmul(steps[k], fwd[k], out=fwd[k + 1])
    bt = (dagger(s) @ target @ s).real / len(s)
    fidelity = float(np.sum(bt * fwd[m]))

    grad = np.empty(2 * m, dtype=np.float64)
    for k in range(m - 1, -1, -1):
        # sum(bt * dt R_c R_k fwd_k) = dt sum(R_c^T * (fwd_{k+1} bt^T))
        y = fwd[k + 1] @ bt.T
        grad[k], grad[m + k] = (dt * np.sum(rc.T * y) for rc in (r_x, r_y))
        if k:
            bt = steps[k].T @ bt
    return fidelity, grad


def dt_validity_check(gen, h_max, dt):
    """Check ``dt`` against the approximate-gradient validity bound.

    The bound is the inverse of the exact spectral norm (largest singular
    value) of the ``(d^2, d^2)`` generator at full control amplitude; the
    check passes when ``dt`` is at most a tenth of it.  The verdict belongs
    to a run's discretisation, so call it once per run, not per gradient.
    Returns ``(ok, bound)``.
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

    Column i is the vectorized partial trace of the i-th matrix unit, the
    one whose vector is ``e_i``.
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
