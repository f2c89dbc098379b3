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

import collections
import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _kernels
from .linalg import dagger, kron
from .model import _index, build_collapse_ops, build_controls, build_drift, embed

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
    amplitudes must be real and finite, and dt finite and > 0.
    """

    hx: np.ndarray
    hy: np.ndarray
    dt: float

    def __post_init__(self):
        for name in ("hx", "hy"):
            h = getattr(self, name)
            if np.iscomplexobj(h):
                raise ValueError(f"{name} must be real, got a complex array")
            h = np.atleast_1d(np.asarray(h, dtype=np.float64))
            if not np.isfinite(h).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, h)
        if self.hx.ndim != 1 or self.hy.ndim != 1 or self.hx.shape != self.hy.shape:
            raise ValueError("hx and hy must be 1-D arrays of equal length")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def num_pulses(self):
        return self.hx.shape[0]

    @classmethod
    def from_genome(cls, genome, dt):
        """Split a 1-D parameter vector (hx's then hy's) into a sequence."""
        genome = np.asarray(genome)
        if genome.ndim != 1 or genome.size % 2:
            raise ValueError(f"genome must be 1-D of even length (hx's, hy's), got {genome.shape}")
        m = genome.size // 2
        return cls(genome[:m], genome[m:], dt)


@dataclass(frozen=True, eq=False)
class Generator:
    """The Lindblad model of one system and noise configuration, with every
    superoperator the propagators read derived from it.

    The inputs are ``drift``, the d x d Hamiltonian H0, which sets d;
    ``controls``, the two d x d Hamiltonians of hx and hy; and ``collapse``,
    the ``(L, gamma)`` pairs of :func:`spinctrl.model.build_collapse_ops`.
    Arrays and rates must be finite, rates >= 0 and Hamiltonians Hermitian,
    else ``ValueError``.  The arrays are made read-only in place, not copied.

    Every other field is derived and read-only.  The split method takes the
    dissipator in two parts: ``jump_part``, the ``(d^2, d^2)`` ``sum gamma L
    kron conj(L)`` (see :func:`_noise_factors`), and ``decay``, the d x d ``K
    = -1/2 sum gamma L^dag L`` of ``K kron I + I kron conj(K)``.
    ``noiseless`` says whether ``jump_part`` and ``decay`` are 0.

    ``reflection`` is the bit-reversal permutation pi of the basis states
    (site i to n - 1 - i) if its matrix Pi commutes with the drift, both
    controls and ``decay`` and ``Pi kron Pi`` with ``jump_part``, to 1e-12
    relative; else the identity.  ``sectors`` is the one dense form of the
    generator ``F(hx, hy) = F_0 + hx K(H_x) + hy K(H_y)``, ``F_0`` being
    ``K(H0)`` plus the dissipator.  Let S be the unitary ``(d^2, d^2)``
    basis with columns ``vec E_cc`` and, for c < e, ``(E_ce + E_ec) / sqrt
    2`` and ``i (E_ce - E_ec) / sqrt 2``.  F maps Hermitian matrices to
    Hermitian ones (Lindblad, Commun. Math. Phys. 48, 119 (1976)), so ``S^dag
    X S`` is real for X each of its three terms (Havel, J. Math. Phys. 44,
    534 (2003)).  ``S^dag (Pi kron Pi) S`` is a signed permutation, and each
    sector is a tuple ``(Q, R_base, R_x, R_y)`` of ``Q = S V`` and the three
    real ``V^T S^dag X S V``, for V the real basis of its +1 or -1
    eigenspace (Buca & Prosen, New J. Phys. 14, 073007 (2012)).  On scenario
    (d) the sectors have 40 and 24 columns.  Without a reflection the -1
    eigenspace is empty, and the one sector has ``Q = S``.  Exact
    propagation takes the steps of a sector of at most 16 columns from its
    one memo ring of ``MEMO_STEPS`` steps, shared by every dt and filled by
    the compiled ``_kernels.piecewise_steps`` (:func:`_memo_steps`), those
    of a larger one from :func:`_real_steps`.

    The Hamiltonian ``H(hx, hy) = H0 + hx H_x + hy H_y`` commutes with Pi
    too, so it splits the same way on the d x d level: ``blocks`` holds one
    ``(V, V^T H0 V, V^T H_x V, V^T H_y V)`` per non-empty +1 or -1
    eigenspace of Pi, V its real orthonormal (d, n) basis, picked as for the
    sectors (:func:`_eigenbases`).  On scenario (d) the blocks have 6 and 2
    columns; without a reflection the one block has ``V = I``, exactly.
    The interval unitaries of the split method and of the noiseless
    propagator and gradients come per block (:func:`_interval_unitaries`).
    """

    drift: np.ndarray
    controls: tuple
    collapse: tuple = ()
    dim: int = field(init=False)
    jump_part: np.ndarray = field(init=False, repr=False)
    decay: np.ndarray = field(init=False, repr=False)
    noiseless: bool = field(init=False, repr=False)
    reflection: np.ndarray = field(init=False, repr=False)
    sectors: tuple = field(init=False, repr=False)
    blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        h0 = np.asarray(self.drift, dtype=np.complex128)
        if h0.ndim != 2 or not 0 < len(h0) == h0.shape[1]:
            raise ValueError(f"drift must be a non-empty square matrix, got shape {h0.shape}")
        d, half = len(h0), math.sqrt(0.5)
        controls = tuple(_checked(h, "controls", d) for h in self.controls)
        if len(controls) != 2:
            raise ValueError(f"controls must hold 2 arrays, got {len(controls)}")
        collapse = tuple((_checked(op, "collapse", d), float(gamma)) for op, gamma in self.collapse)
        if not all(0 <= gamma < math.inf for _, gamma in collapse):
            raise ValueError("collapse rates must be finite and >= 0")
        jump, decay_part = (np.zeros((d * d, d * d), dtype=np.complex128) for _ in range(2))
        ident, k = np.eye(d, dtype=np.complex128), np.zeros((d, d), dtype=np.complex128)
        for op, gamma in collapse:
            gram = dagger(op) @ op
            jump += gamma * kron(op, np.conj(op))
            decay_part += -0.5 * gamma * (kron(gram, ident) + kron(ident, np.conj(gram)))
            k += -0.5 * gamma * gram
        base = assemble_hamiltonian_super(h0) + jump + decay_part
        comms = tuple(assemble_hamiltonian_super(h) for h in controls)
        rows, cols = np.triu_indices(d, 1)
        ce, ec = rows * d + cols, cols * d + rows
        sym = np.arange(d, d + rows.size)
        s = np.zeros((d * d, d * d), dtype=np.complex128)
        s[np.arange(d) * (d + 1), np.arange(d)] = 1.0
        s[ce, sym] = s[ec, sym] = half
        s[ce, sym + rows.size], s[ec, sym + rows.size] = 1j * half, -1j * half
        parts = tuple(np.ascontiguousarray((dagger(s) @ x @ s).real) for x in (base, *comms))
        flip = _reflection(d, (h0, *controls, k), jump)
        pair = (flip[:, None] * d + flip).reshape(-1)  # Pi kron Pi on the index (c, e)
        q = np.rint((dagger(s) @ s[pair]).real)  # a signed permutation
        sectors = tuple((s @ v, *(np.ascontiguousarray(v.T @ r @ v) for r in parts))
                        for v in _eigenbases(q))
        blocks = tuple((v, *(v.T @ h @ v for h in (h0, *controls)))
                       for v in _eigenbases(np.eye(d)[flip]))
        for a in (h0, *controls, *(op for op, _ in collapse), jump, k, flip,
                  *sum(sectors, ()), *sum(blocks, ())):
            a.flags.writeable = False
        self.__dict__.update(drift=h0, controls=controls, collapse=collapse, dim=d, jump_part=jump,
                             decay=k, noiseless=not (np.any(k) or np.any(jump)),
                             reflection=flip, sectors=sectors, blocks=blocks)


def _eigenbases(q):
    """Real orthonormal bases of the +1 and -1 eigenspaces of the real
    signed permutation q, an involution, each as an (n, k) array; an empty
    one is left out, as the -1 eigenspace of q = I.  Column j of ``I +- q``
    is ``e_j +- q e_j``, and one column per pair {j, q j} is kept,
    normalised, so q = I gives exactly the identity."""
    n, bases = len(q), ()
    for x in (np.eye(n) + q, np.eye(n) - q):
        v = x[:, (np.abs(x).argmax(0) == np.arange(n)) & x.any(0)]
        if v.size:
            bases += (v / np.linalg.norm(v, axis=0),)
    return bases


def _reflection(d, ops, jump):
    """The bit-reversal permutation pi of ``range(d)``, d = 2^n, if Pi
    commutes with each d x d op and ``Pi kron Pi`` with jump; else the
    identity."""
    n, idx = d.bit_length() - 1, np.arange(d)
    flip = sum((((idx >> b) & 1) << (n - 1 - b) for b in range(n)), 0 * idx)
    pair = (flip[:, None] * d + flip).reshape(-1)
    fixed = [np.abs(x[p][:, p] - x).max() <= 1e-12 * np.abs(x).max()
             for x, p in ((jump, pair), *((x, flip) for x in ops))]
    return flip if d == 1 << n and all(fixed) else idx


def _checked(a, name, d):
    """``a`` as a complex array, which must be d x d and finite."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (d, d):
        raise ValueError(f"{name} must have shape {(d, d)}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def assemble_hamiltonian_super(h):
    """Commutator superoperator K(H) generating ``-i [H, rho]``.  Raises
    ``ValueError`` when H is not finite, or more than 1e-10 away from
    Hermitian: for such an H, ``H kron I - I kron conj(H)`` is not the
    commutator."""
    h = np.asarray(h, dtype=np.complex128)
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian must be finite")
    defect = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if defect > 1e-10:
        raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
    ident = np.eye(h.shape[0], dtype=np.complex128)
    return -1j * (kron(h, ident) - kron(ident, np.conj(h)))


def build_generator(system, control_site, noise=None):
    """The :class:`Generator` of a spin system: its Heisenberg drift, the
    Zeeman control pair at ``control_site`` and, unless ``noise`` is None,
    the collapse operators of that channel on its sites."""
    collapse = build_collapse_ops(system, noise) if noise is not None else ()
    return Generator(build_drift(system), build_controls(system, control_site), collapse)


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

    Each ``(Q, R_base, R_x, R_y)`` of the generator's ``sectors`` multiplies
    its real steps into a sector total, and the result is the sum of ``Q
    total Q^dag``.  A sector of at most 16 columns takes its steps from the
    memo of :func:`_memo_steps` and multiplies them by :func:`_product`.  A
    larger one multiplies the SciPy steps of :func:`_real_steps` onto a
    running product, never holding them all: one 40-column step is 12.8
    kB.  With one BLAS thread on a 2-core Xeon, on scenario (d) with 128
    intervals, its sectors' 40 x 40 and 24 x 24 chains take 19 ms, one 64 x
    64 chain 31 ms and the compiled kernel 70 ms (best of 15-20).  At 16
    columns the SciPy loop is no faster than the compiled kernel (0.94
    against 0.75 ms for 32 steps on (a)), and it holds the interpreter lock
    that the kernel releases, so the GA's worker threads would no longer
    overlap.  Without collapse operators the channel is ``U kron conj(U)``
    of the d x d product U of :func:`_interval_unitaries`, rotated back from
    the blocks' basis once: on scenario (a) at +-100 that takes 0.11 ms a
    call against 0.82 ms for the sector chain with a cold memo.  An empty
    sequence gives exactly the identity.
    """
    d2 = gen.dim * gen.dim
    if not pulses.num_pulses:
        return np.eye(d2, dtype=np.complex128)
    if gen.noiseless:
        basis, u = _interval_unitaries(gen, pulses)
        return unitary_superoperator(basis @ _product(u) @ basis.T)
    channel = 0
    for sector, (q, *parts) in enumerate(gen.sectors):
        if q.shape[1] <= 16:
            total = _product(_memo_steps(gen, sector, pulses))
        else:
            total = np.eye(q.shape[1])
            for step in _real_steps(parts, pulses):
                total = step @ total
        channel = channel + q @ total @ dagger(q)
    return channel


def _product(steps):
    """``steps[M-1] @ ... @ steps[0]`` of an (M, n, n) stack, M >= 1, in
    about log2(M) batched products of neighbouring pairs."""
    while len(steps) > 1:
        pairs = steps[1::2] @ steps[:-1:2]
        steps = np.concatenate([pairs, steps[-1:]]) if len(steps) % 2 else pairs
    return steps[0]


def _real_steps(parts, pulses):
    """Yield the real step ``expm(dt (R_base + hx R_x + hy R_y))`` of each
    interval, interval 0 first, from the ``(R_base, R_x, R_y)`` of one of
    ``Generator.sectors``: the step is ``Q^dag expm(dt F(hx, hy)) Q`` for
    that sector's Q."""
    (r_base, r_x, r_y), dt = parts, pulses.dt
    for hx, hy in zip(pulses.hx, pulses.hy):
        yield scipy.linalg.expm(dt * (r_base + hx * r_x + hy * r_y))


MEMO_STEPS = 2048  # steps kept per generator and sector of at most 16 columns
_STEP_MEMOS = weakref.WeakKeyDictionary()
_MEMO_LOCK = threading.Lock()


class _StepRing:
    """The ``MEMO_STEPS`` most recently used real steps of one sector, in a
    preallocated (MEMO_STEPS, n, n) ring: 4 MiB at 16 columns, the 64 x 32
    steps of one default GA population on scenario (a).  ``slots`` maps the
    bits of a step's (dt, hx, hy) to its slot, least recently used first."""

    def __init__(self, n):
        self.steps = np.empty((MEMO_STEPS, n, n))
        self.slots = collections.OrderedDict()

    def take(self, keys, out):
        """Copy the stored steps of ``keys`` into ``out`` and mark them
        used; return the positions of the others."""
        hits, slots, miss = [], [], []
        for k, key in enumerate(keys):
            slot = self.slots.get(key)
            if slot is None:
                miss.append(k)
            else:
                self.slots.move_to_end(key)
                hits.append(k)
                slots.append(slot)
        out[hits] = self.steps[slots]
        return miss

    def put(self, keys, steps):
        """Store the steps of the distinct ``keys``, evicting the least
        recently used; a key another thread stored first is skipped."""
        size, slots, rows = len(self.steps), [], []
        keys, steps = keys[-size:], steps[-size:]  # more would evict each other
        for row, key in enumerate(keys):
            if key not in self.slots:
                if len(self.slots) < size:
                    slot = len(self.slots)
                else:
                    slot = self.slots.popitem(last=False)[1]
                self.slots[key] = slot
                slots.append(slot)
                rows.append(row)
        self.steps[slots] = steps[rows]


def _memo_steps(gen, sector, pulses):
    """The (M, n, n) real steps of one of ``Generator.sectors``, n <= 16,
    each exponentiated once while it stays among the ``MEMO_STEPS`` most
    recently used of its generator and sector, whatever their dt.

    A GA copies genes bit for bit, so about 70% of the steps of a GA run
    on scenario (a) repeat a (dt, hx, hy) exponentiated earlier in it, and
    a ring of one population's steps computes 28-33% of them.  Each
    interval's exact (dt, hx, hy) is looked up; the distinct missing ones
    run through one ``_kernels.piecewise_steps`` call on the sector's real
    ``(R_base, R_x, R_y)``, whose imaginary part is then exactly 0, and
    their real part is stored.  One ring per sector serves every dt, so a
    dt sweep holds no more than one.  One lock guards the lookups, the copy
    of the hits and the stores, but not the kernel, which releases the
    interpreter lock, so the GA's worker threads still overlap.  The rings
    are held weakly per generator, like :func:`_noise_factors`.
    """
    _, *parts = gen.sectors[sector]
    n, m, dt = len(parts[0]), pulses.num_pulses, pulses.dt
    # the 24 bytes of each interval's (dt, hx, hy): equal keys, bit-identical steps
    keys = np.stack((np.full(m, dt), pulses.hx, pulses.hy), axis=1).view("V24")[:, 0].tolist()
    steps = np.empty((m, n, n))
    with _MEMO_LOCK:
        rings = _STEP_MEMOS.setdefault(gen, {})
        ring = rings.get(sector)
        if ring is None:
            ring = rings[sector] = _StepRing(n)
        miss = ring.take(keys, steps)
    if miss:
        new = {}  # each missing key's row in fresh
        rows = [new.setdefault(keys[k], len(new)) for k in miss]
        _, hx, hy = np.frombuffer(b"".join(new), dtype=np.float64).reshape(-1, 3).T
        fresh = _kernels.piecewise_steps(*parts, hx, hy, dt).real
        steps[miss] = fresh[rows]
        with _MEMO_LOCK:
            ring.put(list(new), fresh)
    return steps


_NOISE_FACTORS = weakref.WeakKeyDictionary()


def _noise_factors(gen, dt):
    """Control-independent split factors ``(E, B, B^T)``, built once per
    generator and dt.

    The decay factor, the exponential of ``dt (K kron I + I kron
    conj(K))``, is ``A = E kron conj(E)`` with the d x d ``E = expm(dt K)``,
    returned read-only.  The jump factor ``B = expm(dt jump_part)`` is the
    real ``Re B kron I_2 + Im B kron J`` on rows (a, p, e) (see
    :func:`split_gradient`), imaginary entries kept, and it and its
    transpose are read-only ``scipy.sparse.csr_array`` (250 of 16384
    entries are nonzero on a 3-qubit chain with amplitude damping).  Both
    exponentials are ``scipy.linalg.expm``, whose ``expm(0)`` is exactly
    the identity, so a generator without collapse operators gets exact
    identity factors.  A generator is immutable and hashes by identity.
    """
    by_dt = _NOISE_FACTORS.setdefault(gen, {})
    factors = by_dt.get(dt)
    if factors is None:
        import scipy.sparse

        d = gen.dim
        e, b = (scipy.linalg.expm(dt * part) for part in (gen.decay, gen.jump_part))
        e.flags.writeable = False
        # the planes of B on rows ((a, e), p), with p moved between a and e
        b = _ket_planes(b).reshape((d, d, 2) * 2).transpose(0, 2, 1, 3, 5, 4)
        b = scipy.sparse.csr_array(b.reshape(2 * d * d, -1))
        b_t = b.T.tocsr()
        for a in (b.data, b.indices, b.indptr, b_t.data, b_t.indices, b_t.indptr):
            a.flags.writeable = False
        factors = by_dt[dt] = (e, b, b_t)
    return factors


def _interval_unitaries(gen, pulses):
    """The interval unitaries ``U_k = exp(-i dt H_k)`` in the basis of the
    generator's ``blocks``: returns the real orthogonal (d, d) ``W``, the
    blocks' bases side by side, and the (M, d, d) block-diagonal stack
    ``W^T U_k W``.  Each diagonal block of the stack comes from one
    ``_kernels.piecewise_steps`` call on that block's ``-i V^T H V``; on
    scenario (d) a 6 x 6 and a 2 x 2 call take about 0.34 and 0.09 ms for
    128 intervals, one 8 x 8 call 0.57 ms (one BLAS thread, 2-core Xeon).
    Without a reflection W = I and the stack is the one d x d call's, bit
    for bit."""
    u, start = np.zeros((pulses.num_pulses, gen.dim, gen.dim), dtype=np.complex128), 0
    for v, *hams in gen.blocks:
        end = start + v.shape[1]
        u[:, start:end, start:end] = _kernels.piecewise_steps(
            *(-1j * h for h in hams), pulses.hx, pulses.hy, pulses.dt)
        start = end
    return np.hstack([v for v, *_ in gen.blocks]), u


def _ket_planes(w):
    """``kron(Re W, I_2) + kron(Im W, J)`` for a (..., d, d) stack: W on the
    ket index a of rows (a, p, e)."""
    d = w.shape[-1]
    x = np.empty(w.shape[:-2] + (d, 2, d, 2))
    x[..., :, 0, :, 0] = x[..., :, 1, :, 1] = w.real
    x[..., :, 1, :, 0] = w.imag
    x[..., :, 0, :, 1] = -w.imag
    return x.reshape(w.shape[:-2] + (2 * d, 2 * d))


def _bra_planes(w):
    """``[[Re W, Im W], [-Im W, Re W]]`` for a (..., d, d) stack: conj(W) on
    the bra index e of rows (a, p, e)."""
    return np.block([[w.real, w.imag], [-w.imag, w.real]])


def _coherent(ket, bra, f, out=None):
    """The (2d, 2d) planes ``ket`` and ``bra`` applied to the real (2 d^2,
    n) columns f: one GEMM on f as (2d, d n), then one product batched
    over the ket index, into ``out`` as (d, 2d, n) if given."""
    y = (ket @ f.reshape(len(ket), -1)).reshape(-1, len(bra), f.shape[-1])
    return np.matmul(bra, y, out=out).reshape(f.shape)


def _planes(x):
    """The complex (d^2, n) columns x as real (2 d^2, n) ones on rows (a, p,
    e): plane p = 0 holds ``Re x[(a, e)]`` and p = 1 holds ``Im x[(a, e)]``."""
    d = math.isqrt(len(x))
    x = x.reshape(d, 1, d, -1)
    return np.concatenate([x.real, x.imag], axis=1).reshape(2 * d * d, -1)


def _fold_decay(u, e):
    """``W_0 = U_0`` and ``W_k = U_k E`` for k >= 1, from the (M, d, d)
    stack of ``U_k``.

    The split chain ``A B C_{M-1} ... A B C_0``, with ``C_k = U_k kron
    conj(U_k)`` and ``A = E kron conj(E)``, regroups as ``A [B (W_{M-1}
    kron conj(W_{M-1}))] ... [B (W_0 kron conj(W_0))]``.
    """
    w = u.copy()
    w[1:] = u[1:] @ e
    return w


def split_propagator(gen, pulses):
    """Product of per-interval splitting factors ``A B C_k``, interval 0
    first.

    The chain runs regrouped as in :func:`_fold_decay`, on the real planes
    of all d^2 input columns (see :func:`split_gradient`): per interval
    :func:`_coherent` applies ``W_k kron conj(W_k)`` and one sparse product
    B, and a last step applies A.  The unitaries ``U_k`` come from
    :func:`_interval_unitaries`, rotated back from the blocks' basis once.
    An empty sequence gives the identity.
    """
    d2 = gen.dim * gen.dim
    if not pulses.num_pulses:
        return np.eye(d2, dtype=np.complex128)
    e, b, _ = _noise_factors(gen, pulses.dt)
    basis, u = _interval_unitaries(gen, pulses)
    w = _fold_decay(basis @ u @ basis.T, e)
    total = _planes(np.eye(d2))
    for ket, bra in zip(_ket_planes(w), _bra_planes(w)):
        total = b @ _coherent(ket, bra, total)
    total = _coherent(_ket_planes(e), _bra_planes(e), total).reshape(gen.dim, 2, -1)
    return (total[:, 0] + 1j * total[:, 1]).reshape(d2, d2)


def _unitary_close(target, u):
    """Trace fidelity of ``U kron conj(U)`` against the ``(d^2, d^2)``
    target, and the matrix G with ``Re Tr(G dU)`` its derivative.

    The derivative is ``Re Tr(Z1^dag dU) + Re Tr(Z2 dU)``: Z1 is the target
    contracted with U in the conj(U) slot, Z2 with conj(U) in the U slot.
    Both terms are kept, so G is exact for any target, not only one that
    maps Hermitian matrices to Hermitian matrices.  With the target's
    indices regrouped as ``((a, c), (b, e))``, each is one matrix-vector
    product, O(d^4).
    """
    d = u.shape[-1]
    t = target.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    z1 = (t @ u.reshape(-1)).reshape(d, d)
    z2 = (np.conj(u).reshape(-1) @ t).reshape(d, d).T
    # Tr(T^dag (U kron conj(U))) is conj(Tr(U^dag Z1)): no (d^2, d^2) kron
    return float(np.vdot(u, z1).real) / d**2, (dagger(z1) + z2) / d**2


def _prefix_products(u):
    """The (M, d, d) ``fwd_k = U_k ... U_0`` in about 2 sqrt(M) NumPy calls:
    the running products inside blocks of about sqrt(M) (the last padded with
    identities), batched over blocks, then one pass carrying each block on."""
    m, d = u.shape[0], u.shape[-1]
    size = max(1, math.isqrt(m))
    blocks = np.empty((-(-m // size), size, d, d), dtype=np.complex128)
    fwd = blocks.reshape(-1, d, d)
    fwd[:m], fwd[m:] = u, np.eye(d)
    for j in range(1, size):
        np.matmul(blocks[:, j], blocks[:, j - 1], out=blocks[:, j])
    for i in range(1, len(blocks)):  # one (size d, d) by (d, d) GEMM each
        np.matmul(blocks[i].reshape(-1, d), blocks[i - 1, -1], out=blocks[i].reshape(-1, d))
    return fwd[:m]


def _unitary_gradient(basis, u, target):
    """Noiseless fidelity on the (M, d, d) interval unitaries ``U_k``, never
    forming ``U_k kron conj(U_k)``, and the (M, d, d) P with ``Re Tr(P_k dU_k
    U_k^dag)`` the derivative.  ``u`` is given in a real orthogonal
    ``basis`` W, as ``W^T U_k W``, and P comes in the same basis: only the
    product ``total`` is rotated back for :func:`_unitary_close`, and its G
    into W, so a block-diagonal ``u`` (:func:`_interval_unitaries`) is
    never reassembled.  With ``fwd_k = U_k ... U_0`` and ``total =
    fwd_{M-1}`` the chain is unitary, so the product after interval k is
    ``total fwd_k^dag``, and ``P_k = fwd_k G total fwd_k^dag`` is one (M d,
    d) by (d, d) GEMM and one batched product (Khaneja et al., J. Magn.
    Reson. 172, 296 (2005))."""
    m, d = u.shape[0], u.shape[-1]
    fwd = _prefix_products(u)
    total = fwd[-1] if m else np.eye(d, dtype=np.complex128)
    fidelity, g = _unitary_close(target, basis @ total @ basis.T)
    p = (fwd.reshape(-1, d) @ (basis.T @ g @ basis @ total)).reshape(fwd.shape)
    return fidelity, p @ dagger(fwd)


def _traces(p, ops):
    """Op-major ``Re Tr(P_k op_c)``, P real or complex, from one (M, d^2) by (d^2, c) GEMM."""
    ops = np.stack(ops).swapaxes(-1, -2).reshape(len(ops), -1)
    return (p.reshape(-1, ops.shape[-1]) @ ops.T).real.T.reshape(-1)


def _checked_target(gen, target):
    """The target as a complex array, which must be finite and ``(d^2, d^2)``."""
    target = np.asarray(target, dtype=np.complex128)
    d2 = gen.dim * gen.dim
    if target.shape != (d2, d2):
        raise ValueError(f"expected a {(d2, d2)} target superoperator, got {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError("the target superoperator must be finite")
    return target


_ORBITS = weakref.WeakKeyDictionary()


def _hermitian_half(gen, target):
    """Kept input columns and target of a noisy chain, one column per orbit.

    Noisy steps and step derivatives commute with ``sigma(X) = P conj(X)
    P``, P the swap of the tensor factors (they map Hermitian matrices to
    Hermitian ones), and with ``Pi kron Pi`` of the generator's
    ``reflection`` pi.  Against ``T_g``, the target averaged over the group
    of 1, sigma, ``Pi kron Pi`` and their product, which leaves ``Re
    Tr(T^dag Y)`` unchanged for such Y, the overlap's columns (c, e), (e,
    c), (pi c, pi e) and (pi e, pi c) are equal or conjugate, so only the
    smallest of each orbit is kept: (c, e), c <= e, without a reflection,
    24 of 64 on scenario (d) (Schulte-Herbrueggen et al., J. Phys. B 44,
    154013 (2011); Albert & Jiang, PRA 89, 022118 (2014)).  Returns the kept
    identity columns and ``th``, ``T_g / d^2`` on them weighted by orbit
    size, as real (2 d^2, n) :func:`_planes`: the fidelity is ``sum(th * Y)``.
    The orbits depend only on the generator, so the kept columns, their
    weights and the index of ``Pi kron Pi`` are built once per generator and
    held weakly, as in :func:`_noise_factors`; the target is averaged per
    call.
    """
    d2, d = target.shape[-1], gen.dim
    orbits = _ORBITS.get(gen)
    if orbits is None:
        index = np.arange(d2).reshape(d, d)
        pair = index[gen.reflection][:, gen.reflection]
        kept, size = np.unique(np.minimum.reduce([index, index.T, pair, pair.T]),
                               return_counts=True)
        orbits = (kept, size / 4 / d2, pair.reshape(-1), _planes(np.eye(d2)[:, kept]))
        for a in orbits:
            a.flags.writeable = False
        _ORBITS[gen] = orbits
    kept, weight, pair, columns = orbits
    # T + (Pi kron Pi) T (Pi kron Pi), plus its image under sigma, is 4 T_g
    t = target + target[pair][:, pair]
    t_swap = t.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d2, d2)
    return columns, _planes((t + np.conj(t_swap))[:, kept] * weight)


def split_gradient(gen, pulses, target):
    """Fidelity of the split propagator and its exact gradient.

    Returns ``(f, grad)``, ``grad[:M]`` along hx and ``grad[M:]`` along hy.
    Only the splitting is approximate: ``U_k kron conj(U_k)`` is
    differentiated exactly through its eigenbasis, ``H_k = V_k diag(w_k)
    V_k^dag``, from one batched ``eigh`` per block of the generator's
    ``blocks``: the eigenvalues w_b and eigenvectors ``V_b v_b`` of the
    blocks, V_b the block's basis, side by side.  On scenario (d) at M = 128
    the (M, 6, 6) and (M, 2, 2) stacks take 0.93 ms, bases included, and
    the (M, 8, 8) stack 1.09 ms (one BLAS thread, 2-core Xeon).  The chain
    gives P with ``Re Tr(P_k dU_k U_k^dag)`` the derivative; without
    collapse operators, where the split is exact, from the d x d unitaries
    (GRAPE, :func:`_unitary_gradient`).  In the eigenbasis ``dU_k U_k^dag
    = V_k ((V_k^dag H_c V_k) * phi_k) V_k^dag``, so the derivative is ``Re
    Tr(H_c Z_k)``, ``Z_k = V_k (phi_k^T * (V_k^dag P_k V_k)) V_k^dag``: one
    GEMM for both controls (:func:`_traces`), and no ``dU_k U_k^dag`` is
    formed.  Z does not depend on the eigenvectors ``eigh`` picks in a
    degenerate block of ``w_k``, as phi is constant there.

    With collapse operators the chain is regrouped as in
    :func:`_fold_decay`, the leading A moves into the target as ``A^T th``,
    and both sweeps run on the n columns of :func:`_hermitian_half`, one per
    orbit of the generator's symmetries (24 on (d)), as real (2 d^2, n)
    planes with rows (a, p, e): the ket index a, the plane p = re/im and
    the bra index e.  So W_k on the ket index is one real (2d,
    2d) GEMM, conj(W_k) on the bra index one real product batched over a
    (:func:`_coherent`), and B one real sparse product.  With one BLAS
    thread on a 2-core Xeon, an 8 x 8 by 8 x 288 complex GEMM takes 6.6-7.4
    us, the same product as a real 16 x 16 by 16 x 288 GEMM 3.3-3.5 us.

    The forward sweep stores each step before its B, ``x_k``; ``bt``, the
    real transpose of the score and the steps after interval k, runs back
    through the transposed maps.  As ``dW_k = G_k W_k`` with ``G_k = dU_k
    U_k^dag``, a step derivative is ``Ket(G_k) x_k + Bra(G_k) x_k``.  Its
    halves are each other's images under sigma, so on a column subset both
    are needed; each pairs ``bt`` with ``x_k``, over (e, column) or over (a,
    column), into real (2d, 2d) terms, the planes of the d x d ``P_k^T``.
    """
    target = _checked_target(gen, target)
    d, dt, m = gen.dim, pulses.dt, pulses.num_pulses
    hx, hy = pulses.hx[:, None, None], pulses.hy[:, None, None]
    w, v = [], []
    for basis, h0, h_x, h_y in gen.blocks:
        w_b, v_b = np.linalg.eigh(h0 + hx * h_x + hy * h_y)
        w.append(w_b)
        v.append(basis @ v_b)
    w, v = np.concatenate(w, axis=-1), np.concatenate(v, axis=-1)
    vh = dagger(v)
    u = (v * np.exp(-1j * dt * w)[:, None, :]) @ vh
    if gen.noiseless or not m:
        fidelity, p = _unitary_gradient(np.eye(d), u, target)
    else:
        e, b, b_t = _noise_factors(gen, dt)
        folded = _fold_decay(u, e)
        kets, bras = _ket_planes(folded), _bra_planes(folded)
        f, th = _hermitian_half(gen, target)
        th = _coherent(_ket_planes(e).T, _bra_planes(e).T, th)
        x = np.empty((m, d, 2 * d, f.shape[-1]))
        for k in range(m):
            f = b @ _coherent(kets[k], bras[k], f, out=x[k])
        fidelity = float(np.sum(th * f))
        bt = b_t @ th
        ket_terms, bra_terms = np.empty((2, m, 2 * d, 2 * d))
        for k in range(m - 1, -1, -1):
            np.matmul(bt.reshape(2 * d, -1), x[k].reshape(2 * d, -1).T, out=ket_terms[k])
            by_a = np.matmul(bt.reshape(x[k].shape), x[k].transpose(0, 2, 1))
            np.add.reduce(by_a, 0, out=bra_terms[k])
            if k:
                bt = b_t @ _coherent(kets[k].T, bras[k].T, bt)
        del x  # 3 MiB on (d), freed before P is built
        ket = ket_terms.reshape(m, d, 2, d, 2).transpose(2, 4, 0, 1, 3)
        bra = bra_terms.reshape(m, 2, d, 2, d).transpose(1, 3, 0, 2, 4)
        # Re P^T: planes (0, 0) + (1, 1) of both; Im P^T: ket (0, 1) - (1, 0), bra (1, 0) - (0, 1)
        re = ket[0, 0] + ket[1, 1] + bra[0, 0] + bra[1, 1]
        p = (re + 1j * (ket[0, 1] - ket[1, 0] - bra[0, 1] + bra[1, 0])).swapaxes(-1, -2)
    # phi[p, q] = -i dt (e^{2i delta} - 1) / (2i delta), delta = dt (w_q -
    # w_p) / 2, as e^{i delta} sinc(delta); its transpose phi_t swaps p, q
    delta = 0.5 * dt * (w[:, :, None] - w[:, None, :])
    phi_t = -1j * dt * np.exp(1j * delta) * np.sinc(delta / np.pi)
    return fidelity, _traces(v @ (phi_t * (vh @ p @ v)) @ vh, gen.controls)


def machnes_gradient(gen, pulses, target):
    """Trace fidelity under exact evolution with the first-order gradient.

    The step derivative is approximated by ``+dt K(dH/dh) X_k``, which is
    valid for ``dt`` well below the inverse generator norm.  That is a
    property of the run's discretisation, so nothing is checked or warned
    here: call :func:`dt_validity_check` once per run.  Without collapse
    operators the unitaries come from :func:`_interval_unitaries`, and the
    step generator ``dU_k U_k^dag = -i dt H_c`` is the same for every k
    (Machnes et al., PRA 84, 022305 (2011)), so the gradient is one (M,
    d^2) by (d^2, 2) GEMM (:func:`_traces`) on the P of
    :func:`_unitary_gradient`, all in the blocks' basis W: P is read
    against ``W^T H_c W``, and no d x d unitary is rotated back.

    With collapse operators, for every d, each ``(Q, R_base, R_x, R_y)`` of
    the generator's ``sectors`` runs its own real chain: the step ``Q^dag X_k
    Q`` is the ``R_k`` of :func:`_real_steps`, its derivative ``dt R_c R_k``,
    and the chain scores against ``Re(Q^dag T Q) / d^2``, exact for any
    complex target as the chain is real; the fidelity and gradient are the
    sums over sectors.  The steps and the forward products ``fwd_k = R_{k-1}
    ... R_0`` are stored.  Once the backward sweep has used step k it stores
    ``P_k = fwd_{k+1} bt_k^T`` there, bt_k the transposed product of the score
    and the later steps, and one :func:`_traces` call reads P.
    Returns ``(f, grad)``: ``grad[:M]`` along hx, ``grad[M:]`` along hy.
    """
    target = _checked_target(gen, target)
    dt, m = pulses.dt, pulses.num_pulses
    if gen.noiseless or not m:
        basis, u = _interval_unitaries(gen, pulses)
        fidelity, p = _unitary_gradient(basis, u, target)
        return fidelity, _traces(p, [-1j * dt * basis.T @ h @ basis for h in gen.controls])

    fidelity, grad = 0.0, np.zeros(2 * m)
    for q, *parts in gen.sectors:
        n = q.shape[1]
        steps, fwd = np.empty((m, n, n)), np.empty((m + 1, n, n))
        fwd[0] = np.eye(n)
        for k, step in enumerate(_real_steps(parts, pulses)):
            steps[k] = step
            np.matmul(steps[k], fwd[k], out=fwd[k + 1])
        bt = (dagger(q) @ target @ q).real / len(q)
        fidelity += float(np.sum(bt * fwd[m]))
        for k in range(m - 1, -1, -1):
            bt, steps[k] = steps[k].T @ bt, fwd[k + 1] @ bt.T
        grad += dt * _traces(steps, parts[1:])  # dt Tr(R_c P_k) = sum(bt_k * dt R_c R_k fwd_k)
    return fidelity, grad


def dt_validity_check(gen, h_max, dt):
    """Check ``dt`` against the approximate-gradient validity bound.

    The bound is the inverse of the largest exact spectral norm (largest
    singular value) of the ``(d^2, d^2)`` generator over the control box
    ``|hx|, |hy| <= h_max``.  The norm is convex in ``(hx, hy)``, so its
    maximum sits at one of the box's four corners; at each corner it is the
    largest of the sectors' ``R_base + hx R_x + hy R_y``, as F is block
    diagonal in the unitary basis of the sectors' Q.  The check passes when
    ``dt`` is at most a tenth of it.  The verdict belongs to a run's
    discretisation, so call it once per run, not per gradient.
    Returns ``(ok, bound)``.  Raises ``ValueError`` unless ``h_max`` is
    finite and >= 0 and ``dt`` finite and > 0.
    """
    if not 0 <= h_max < math.inf:
        raise ValueError("h_max must be finite and >= 0")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    norm = max(float(np.linalg.norm(r_base + hx * r_x + hy * r_y, 2))
               for _, r_base, r_x, r_y in gen.sectors
               for hx in (h_max, -h_max) for hy in (h_max, -h_max))
    bound = math.inf if norm == 0.0 else 1.0 / norm
    return dt <= bound / 10.0, bound


def superop_fidelity(a, target, n_qubits):
    """Trace fidelity ``Re Tr(target^dag a) / 2^(2N)`` of two superoperators."""
    if _index(n_qubits, "n_qubits") < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    a = np.asarray(a, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    d2 = 4**n_qubits
    if a.shape != (d2, d2) or target.shape != (d2, d2):
        raise ValueError(
            f"expected {(d2, d2)} superoperators, got {a.shape} and {target.shape}"
        )
    return float(np.vdot(target, a).real) / d2


_FITNESS_TARGETS = weakref.WeakKeyDictionary()


def fitness_target(scenario):
    """Target ``W`` with ``state_fitness(X) = superop_fidelity(X, W)``.

    The state fitness sums ``Re Tr((U R(e_i) U^dag)^dag R(X e_i))`` over
    all matrix units ``e_i``, with R the partial trace over the ancilla and
    U the target unitary, normalized by ``z`` instead of ``d^2``.  It is
    linear in X, so ``W`` is ``d^2 / z`` times the superoperator of the
    channel ``rho -> U Tr_a(rho) U^dag kron I_a``, whose Kraus operators
    are ``K_ij = U kron |i><j|`` over ancilla basis states i, j (target
    sites first, then the ancilla).  Without an ancilla ``W`` is the
    target superoperator.  ``W`` is built once per scenario and returned
    read-only; a scenario is immutable and hashes by identity.
    """
    w = _FITNESS_TARGETS.get(scenario)
    if w is None:
        u, n_a = scenario.target_unitary, len(scenario.ancilla_sites)
        sites = scenario.target_sites + scenario.ancilla_sites
        units = np.eye(2**n_a)
        w = sum(
            unitary_superoperator(embed(kron(u, np.outer(i, j)), sites, scenario.num_qubits))
            for i in units
            for j in units
        )
        w *= scenario.dim**2 / 2 ** (2 * len(scenario.target_sites) + n_a)
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
