import dataclasses
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    partial_trace,
    random_complex,
    random_density,
    random_unitary,
    res,
    unres,
)
from spinctrl import _kernels, lindblad
from spinctrl.lindblad import (
    PulseSequence,
    assemble_hamiltonian_super,
    build_generator,
    dt_validity_check,
    fitness_target,
    machnes_gradient,
    split_gradient,
    split_propagator,
    state_fitness,
    superop_fidelity,
    target_superoperator,
    total_propagator_exact,
    unitary_superoperator,
)
from spinctrl.linalg import dagger, kron
from spinctrl.model import (
    NoiseSpec,
    Scenario,
    SpinSystem,
    build_collapse_ops,
    build_controls,
    pauli,
    scenario_catalog,
)
from spinctrl.optim import Bounds, Objective, lbfgs_b_maximize

E01 = np.array([[0, 1], [0, 0]], dtype=complex)
E11 = np.diag([0.0, 1.0]).astype(complex)


def lindblad_rhs(rho, h, collapse_ops):
    """Brute-force master-equation right hand side."""
    out = -1j * (h @ rho - rho @ h)
    for op, gamma in collapse_ops:
        gram = op.conj().T @ op
        out += gamma * (op @ rho @ op.conj().T - 0.5 * (gram @ rho + rho @ gram))
    return out


def random_pulses(rng, m, dt, h_scale=2.0):
    return PulseSequence(
        rng.uniform(-h_scale, h_scale, m), rng.uniform(-h_scale, h_scale, m), dt
    )


def exact_step(gen, hx, hy, dt):
    """One interval of exact evolution, ``expm(dt F(hx, hy))``, from SciPy."""
    return scipy.linalg.expm(dt * gen.at(hx, hy))


def exact_interval(gen, hx, hy, dt):
    """One interval of exact evolution through the library's chain."""
    return total_propagator_exact(gen, PulseSequence([hx], [hy], dt))


def split_factors(gen, hx, hy, dt):
    """Dense split factors (decay, jump, coherent) of one interval.

    A and B are the library's memoised noise factors, ``E kron conj(E)``
    and the jump factor; C is SciPy's ``expm`` of the ``(d^2, d^2)``
    commutator generator, so ``A @ B @ C`` is the split step without the
    library's d x d contractions.
    """
    e, b, _ = lindblad._noise_factors(gen, dt)
    coherent = dt * (
        assemble_hamiltonian_super(gen.drift)
        + hx * gen.control_comms[0] + hy * gen.control_comms[1]
    )
    return kron(e, np.conj(e)), b.toarray(), scipy.linalg.expm(coherent)


def forbid_lindblad_expm(monkeypatch, message):
    """Make the library's own calls of ``scipy.linalg.expm`` raise; the calls
    of the NumPy kernel backend still run."""
    expm = scipy.linalg.expm

    def guarded(a):
        if sys._getframe(1).f_globals["__name__"] == lindblad.__name__:
            raise AssertionError(message)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", guarded)


def propagate_state(propagator, rho):
    """Apply a superoperator to a density matrix."""
    return unres(np.asarray(propagator) @ res(rho))


def dissipator(noise):
    """One qubit's dissipator: the generator's base less ``K(H0)``."""
    gen = single_qubit_generator(noise)
    return gen.base - assemble_hamiltonian_super(gen.drift)


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseSequence([1.0], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            PulseSequence([1.0], [1.0], 0.0)

    def test_genome_roundtrip(self, rng):
        p = random_pulses(rng, 5, 0.1)
        q = PulseSequence.from_genome(p.genome(), p.dt)
        assert np.array_equal(q.hx, p.hx) and np.array_equal(q.hy, p.hy)

    def test_empty_sequence_allowed(self):
        p = PulseSequence(np.empty(0), np.empty(0), 0.1)
        assert p.num_pulses == 0

    @pytest.mark.parametrize("field", ["hx", "hy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitudes(self, field, value):
        h = {"hx": [1.0, 2.0], "hy": [3.0, 4.0]}
        h[field][0] = value
        with pytest.raises(ValueError, match=field):
            PulseSequence(h["hx"], h["hy"], 0.1)
        with pytest.raises(ValueError, match=field):
            PulseSequence.from_genome(h["hx"] + h["hy"], 0.1)

    def test_accepts_finite_amplitudes_whose_product_overflows(self):
        p = PulseSequence([1e200, 0.0], [1e200, 1.0], 0.1)
        assert p.hx[0] == 1e200

    @pytest.mark.parametrize("dt", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            PulseSequence([1.0], [1.0], dt)


class TestDissipator:
    def test_zero_rate_is_zero_matrix(self):
        d = dissipator(NoiseSpec("amplitude_damping", 0.0, (0,)))
        assert np.array_equal(d, np.zeros((4, 4)))

    def test_amplitude_damping_population_rate(self):
        # analytic single-qubit decay: d rho_11 / dt = -gamma
        gamma = 0.7
        d = dissipator(NoiseSpec("amplitude_damping", gamma, (0,)))
        drho = unres(d @ res(E11))
        assert abs(drho[1, 1] - (-gamma)) < 1e-14
        assert abs(drho[0, 0] - gamma) < 1e-14

    def test_dephasing_coherence_eigenvalue(self):
        gamma = 0.35
        d = dissipator(NoiseSpec("phase_damping", gamma, (0,)))
        out = d @ res(E01)
        assert np.allclose(out, -2.0 * gamma * res(E01), atol=1e-14)

    def test_matches_bruteforce_rhs(self, rng):
        # the whole generator F(hx, hy) of a coupled chain, against the
        # master equation written out
        system = SpinSystem.chain(2)
        sx, sy = build_controls(system, 1)
        for noise in (
            NoiseSpec("amplitude_damping", 0.4, (0,)),
            NoiseSpec.on_all_sites("phase_damping", 0.9, 2),
        ):
            gen = build_generator(system, 1, noise)
            ops = build_collapse_ops(system, noise)
            for _ in range(5):
                hx, hy = rng.normal(size=2)
                rho = random_complex(rng, (4, 4))
                got = unres(gen.at(hx, hy) @ res(rho))
                want = lindblad_rhs(rho, gen.drift + hx * sx + hy * sy, ops)
                assert np.allclose(got, want, atol=1e-13)


class TestHamiltonianSuper:
    def test_zero(self):
        assert np.array_equal(
            assemble_hamiltonian_super(np.zeros((2, 2))), np.zeros((4, 4))
        )

    def test_sigma_z_coherence_rotation(self):
        k = assemble_hamiltonian_super(pauli("z"))
        for t in (0.3, 1.1):
            evolved = scipy.linalg.expm(t * k) @ res(E01)
            assert np.allclose(evolved, np.exp(-2j * t) * res(E01), atol=1e-12)

    def test_conjugation_oracle(self, rng):
        for _ in range(5):
            h = random_complex(rng, (2, 2))
            h = h + dagger(h)
            rho = random_density(rng, 2)
            t = rng.uniform(0.1, 1.5)
            k = assemble_hamiltonian_super(h)
            got = unres(scipy.linalg.expm(t * k) @ res(rho))
            u = scipy.linalg.expm(-1j * t * h)
            assert np.allclose(got, u @ rho @ dagger(u), atol=1e-12)

    def test_rejects_non_hermitian(self):
        # H kron I - I kron conj(H) is -i (H rho - rho H^dag), which is not
        # the commutator when H is not Hermitian
        with pytest.raises(ValueError, match="not Hermitian"):
            assemble_hamiltonian_super(np.array([[0, 1], [0, 0]], dtype=complex))


def single_qubit_generator(noise=None, coupling_free=True):
    system = SpinSystem(1)
    return build_generator(system, 0, noise)


class TestExactPropagation:
    def test_zero_generator_is_identity(self):
        gen = single_qubit_generator()
        step = exact_interval(gen, 0.0, 0.0, 1.0)
        assert np.allclose(step, np.eye(4), atol=1e-15)

    def test_amplitude_damping_half_life(self):
        gen = single_qubit_generator(NoiseSpec("amplitude_damping", 1.0, (0,)))
        step = exact_interval(gen, 0.0, 0.0, np.log(2))
        rho = propagate_state(step, E11)
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)

    def test_phase_damping_coherence_decay(self):
        gamma, dt = 0.8, 0.6
        gen = single_qubit_generator(NoiseSpec("phase_damping", gamma, (0,)))
        step = exact_interval(gen, 0.0, 0.0, dt)
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho = propagate_state(step, rho0)
        assert abs(abs(rho[0, 1]) - 0.5 * np.exp(-2 * gamma * dt)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_interval_matches_step(self, n, rng):
        gen = build_generator(
            SpinSystem.chain(n), 0, NoiseSpec.on_all_sites("phase_damping", 0.2, n)
        )
        total = total_propagator_exact(gen, PulseSequence([1.3], [-0.4], 0.25))
        step = exact_step(gen, 1.3, -0.4, 0.25)
        assert np.allclose(total, step, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_noiseless_matches_unitary_conjugation(self, n, rng):
        # independent oracle: Hilbert-space evolution via scipy expm
        system = SpinSystem.chain(n)
        gen = build_generator(system, 1, None)
        pulses = random_pulses(rng, 6, 0.15)
        got = total_propagator_exact(gen, pulses)

        from spinctrl.model import build_drift

        h0 = build_drift(system)
        sx, sy = build_controls(system, 1)
        u = np.eye(system.dim, dtype=complex)
        for k in range(pulses.num_pulses):
            h = h0 + pulses.hx[k] * sx + pulses.hy[k] * sy
            u = scipy.linalg.expm(-1j * pulses.dt * h) @ u
        assert np.max(np.abs(got - kron(u, np.conj(u)))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_composition(self, n, rng):
        gen = build_generator(
            SpinSystem.chain(n), 0, NoiseSpec.on_all_sites("amplitude_damping", 0.1, n)
        )
        p1 = random_pulses(rng, 3, 0.2)
        p2 = random_pulses(rng, 4, 0.2)
        whole = PulseSequence(
            np.concatenate([p1.hx, p2.hx]), np.concatenate([p1.hy, p2.hy]), 0.2
        )
        lhs = total_propagator_exact(gen, whole)
        rhs = total_propagator_exact(gen, p2) @ total_propagator_exact(gen, p1)
        assert np.allclose(lhs, rhs, atol=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_sequence_is_exact_identity(self, n):
        gen = build_generator(
            SpinSystem.chain(n), 0, NoiseSpec.on_all_sites("amplitude_damping", 0.1, n)
        )
        got = total_propagator_exact(gen, PulseSequence([], [], 0.1))
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.eye(gen.dim**2))

    @pytest.mark.parametrize("kind", [None, "amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario_id", list("def"))
    def test_real_basis_chain_matches_compiled_kernel(self, scenario_id, kind, rng):
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = kind and NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        dt = scenario.total_time / scenario.num_pulses
        for h_max in (5.0, scenario.h_max):
            pulses = random_pulses(rng, scenario.num_pulses, dt, h_max)
            want = _kernels.piecewise_total(
                gen.base, *gen.control_comms, pulses.hx, pulses.hy, dt
            )
            got = total_propagator_exact(gen, pulses)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_two_qubits_run_the_compiled_kernel(self, rng):
        gen = build_generator(
            SpinSystem.chain(2), 1, NoiseSpec.on_all_sites("phase_damping", 0.1, 2)
        )
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        want = _kernels.piecewise_total(
            gen.base, *gen.control_comms, pulses.hx, pulses.hy, pulses.dt
        )
        assert np.array_equal(total_propagator_exact(gen, pulses), want)

    def test_rejects_generator_that_breaks_hermiticity(self, rng):
        # the commutator -i [H, rho] of a non-Hermitian H is not real in the
        # Hermitian basis: its imaginary part must not be dropped, neither by
        # exact propagation nor by the noisy first-order gradient
        gen = build_generator(
            SpinSystem.chain(3), 1, NoiseSpec.on_all_sites("amplitude_damping", 0.1, 3)
        )
        h, ident = random_complex(rng, (8, 8)), np.eye(8)
        gen = dataclasses.replace(gen, base=-1j * (kron(h, ident) - kron(ident, h.T)))
        pulses = random_pulses(rng, 4, 0.05)
        with pytest.raises(ValueError, match="base generator does not map Hermitian"):
            total_propagator_exact(gen, pulses)
        with pytest.raises(ValueError, match="base generator does not map Hermitian"):
            machnes_gradient(gen, pulses, random_complex(rng, (64, 64)))

    def test_memory(self, rng):
        # scenario (d), M = 128: the real chain holds a few 64 x 64 arrays;
        # an (M, d^2, d^2) stack of steps would be 8 MiB
        scenario = scenario_catalog()[3]
        gen = build_generator(
            scenario.system,
            scenario.control_site,
            NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits),
        )
        dt = scenario.total_time / scenario.num_pulses
        pulses = random_pulses(rng, scenario.num_pulses, dt, scenario.h_max)
        total_propagator_exact(gen, pulses)
        tracemalloc.start()
        try:
            total_propagator_exact(gen, pulses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGeneratorInvariants:
    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    def test_trace_preservation_of_generator(self, kind, rng):
        n = 2
        gen = build_generator(
            SpinSystem.chain(n), 0, NoiseSpec.on_all_sites(kind, 0.6, n)
        )
        full = gen.at(1.7, -0.9)
        left = res(np.eye(gen.dim)) @ full
        assert np.max(np.abs(left)) < 1e-12

    def test_propagator_preserves_trace_and_hermiticity(self, rng):
        for kind in ("amplitude_damping", "phase_damping"):
            gen = build_generator(
                SpinSystem.chain(3), 1, NoiseSpec.on_all_sites(kind, 0.4, 3)
            )
            x = total_propagator_exact(gen, random_pulses(rng, 4, 0.1))
            assert np.max(np.abs(res(np.eye(8)) @ x - res(np.eye(8)))) < 1e-10
            rho = random_density(rng, 8)
            out = propagate_state(x, rho)
            assert abs(np.trace(out) - 1) < 1e-10
            assert np.max(np.abs(out - dagger(out))) < 1e-10

    def test_positivity_spot_check(self, rng):
        gen = build_generator(
            SpinSystem.chain(2), 0, NoiseSpec.on_all_sites("amplitude_damping", 0.7, 2)
        )
        x = total_propagator_exact(gen, random_pulses(rng, 8, 0.26, h_scale=5))
        for _ in range(10):
            out = propagate_state(x, random_density(rng, 4))
            assert np.min(np.linalg.eigvalsh((out + dagger(out)) / 2)) > -1e-9


class TestSplit:
    def test_noiseless_factors_are_identity(self):
        gen = build_generator(SpinSystem.chain(2), 0, None)
        a, b, _ = split_factors(gen, 1.0, 2.0, 0.3)
        assert np.array_equal(a, np.eye(16))
        assert np.array_equal(b, np.eye(16))

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    def test_decay_factor_from_d_by_d_exponential(self, kind):
        # A, the exponential of dt (K kron I + I kron conj(K)), is E kron
        # conj(E) with E = expm(dt K)
        scenario = scenario_catalog()[3]
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        dt = scenario.total_time / scenario.num_pulses
        e = lindblad._noise_factors(gen, dt)[0]
        ident = np.eye(gen.dim)
        decay_part = kron(gen.decay, ident) + kron(ident, np.conj(gen.decay))
        dense = scipy.linalg.expm(dt * decay_part)
        assert np.max(np.abs(kron(e, np.conj(e)) - dense)) < 1e-14

    def test_noise_factors_built_once_per_generator_and_dt(self, rng, monkeypatch):
        scenario = scenario_catalog()[0]
        noise = NoiseSpec.on_all_sites("amplitude_damping", 0.3, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = random_pulses(rng, 6, 0.1)
        target = target_superoperator(scenario)
        fidelity, grad = split_gradient(gen, pulses, target)
        total = split_propagator(gen, pulses)
        factors = lindblad._noise_factors(gen, pulses.dt)

        # the noise factors are the split path's only exponentials outside
        # the kernels
        forbid_lindblad_expm(monkeypatch, "noise factors rebuilt")
        assert lindblad._noise_factors(gen, pulses.dt) is factors
        again = split_gradient(gen, pulses, target)
        assert again[0] == fidelity and np.array_equal(again[1], grad)
        assert np.array_equal(split_propagator(gen, pulses), total)
        with pytest.raises(ValueError):
            factors[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            gen.jump_part[0, 0] = 1.0
        with pytest.raises(ValueError):
            gen.controls[0][0, 0] = 1.0

    def test_dephasing_factors_diagonal(self):
        gen = single_qubit_generator(NoiseSpec("phase_damping", 0.5, (0,)))
        a, b, _ = split_factors(gen, 0.2, 0.1, 0.4)
        assert np.max(np.abs(a - np.diag(np.diag(a)))) < 1e-14
        assert np.max(np.abs(b - np.diag(np.diag(b)))) < 1e-14

    def test_local_error_second_order(self, rng):
        gen = build_generator(
            SpinSystem.chain(2), 1, NoiseSpec.on_all_sites("amplitude_damping", 0.5, 2)
        )
        errs = []
        for dt in (0.1, 0.05, 0.025):
            a, b, c = split_factors(gen, 1.4, -0.8, dt)
            exact = exact_step(gen, 1.4, -0.8, dt)
            errs.append(np.linalg.norm(a @ b @ c - exact))
        assert 3.3 < errs[0] / errs[1] < 4.7
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_noiseless_split_equals_exact(self, rng):
        gen = build_generator(SpinSystem.chain(2), 0, None)
        pulses = random_pulses(rng, 5, 0.2)
        assert np.allclose(
            split_propagator(gen, pulses),
            total_propagator_exact(gen, pulses),
            atol=1e-13,
        )

    def test_single_interval_matches_factors(self):
        gen = build_generator(
            SpinSystem.chain(2), 0, NoiseSpec.on_all_sites("phase_damping", 0.3, 2)
        )
        pulses = PulseSequence([0.9], [-1.2], 0.15)
        a, b, c = split_factors(gen, 0.9, -1.2, 0.15)
        assert np.allclose(split_propagator(gen, pulses), a @ b @ c, atol=1e-14)

    def test_global_error_first_order(self, rng):
        # halving dt at fixed total time halves the gap to the exact
        # propagator (the splitting is locally second order, globally first)
        gen = build_generator(
            SpinSystem.chain(2), 1, NoiseSpec.on_all_sites("phase_damping", 0.3, 2)
        )
        base_hx = rng.uniform(-2, 2, 4)
        base_hy = rng.uniform(-2, 2, 4)
        errs = []
        for refine in (1, 2, 4):
            hx = np.repeat(base_hx, refine)
            hy = np.repeat(base_hy, refine)
            pulses = PulseSequence(hx, hy, 0.4 / len(hx))
            errs.append(
                np.linalg.norm(
                    split_propagator(gen, pulses) - total_propagator_exact(gen, pulses)
                )
            )
        assert 1.7 < errs[0] / errs[1] < 2.4
        assert 1.7 < errs[1] / errs[2] < 2.4


def chain(steps, d2):
    """Product of dense steps, the first one acting first."""
    total = np.eye(d2, dtype=complex)
    for s in steps:
        total = s @ total
    return total


def overlap(target, x):
    """``Re Tr(target^dag x) / d^2`` for one target or a stack of them."""
    return np.sum(np.conj(target) * x, axis=(-2, -1)).real / x.shape[-1]


def dense_split_chain(gen, pulses, target):
    """Propagator, fidelity and gradient of the split chain from the dense
    per-interval factors, each coherent derivative from SciPy's Frechet
    derivative of expm.  ``target`` may be a stack of targets."""
    dt, m = pulses.dt, pulses.num_pulses
    d2 = gen.dim * gen.dim
    steps, dsteps = [], []
    for hx, hy in zip(pulses.hx, pulses.hy):
        a, b, c = split_factors(gen, hx, hy, dt)
        coherent = dt * (
            assemble_hamiltonian_super(gen.drift)
            + hx * gen.control_comms[0] + hy * gen.control_comms[1]
        )
        steps.append(a @ b @ c)
        dsteps.append(
            [a @ b @ scipy.linalg.expm_frechet(coherent, dt * k, compute_expm=False)
             for k in gen.control_comms]
        )
    grad = np.empty((2 * m,) + np.shape(target)[:-2])
    for k in range(m):
        for c, ds in enumerate(dsteps[k]):
            step_derivative = chain(steps[k + 1:], d2) @ ds @ chain(steps[:k], d2)
            grad[c * m + k] = overlap(target, step_derivative)
    total = chain(steps, d2)
    return total, overlap(target, total), grad


def dense_first_order_chain(gen, pulses, target):
    """Fidelity of the exact chain of dense steps ``X_k = expm(dt F_k)`` and
    its first-order gradient, each step derivative ``dt K(dH/dh) X_k``.
    ``target`` may be a stack of targets."""
    dt, m = pulses.dt, pulses.num_pulses
    d2 = gen.dim * gen.dim
    steps = [exact_step(gen, hx, hy, dt) for hx, hy in zip(pulses.hx, pulses.hy)]
    grad = np.empty((2 * m,) + np.shape(target)[:-2])
    for k in range(m):
        for c, comm in enumerate(gen.control_comms):
            step_derivative = (
                chain(steps[k + 1:], d2) @ (dt * comm @ steps[k]) @ chain(steps[:k], d2)
            )
            grad[c * m + k] = overlap(target, step_derivative)
    return overlap(target, chain(steps, d2)), grad


def catalog_generator_and_pulses(scenario, rng, num_pulses=None):
    """Noiseless generator and pulses uniform in +-h_max at the scenario's dt."""
    gen = build_generator(scenario.system, scenario.control_site, None)
    dt = scenario.total_time / scenario.num_pulses
    return gen, random_pulses(rng, num_pulses or scenario.num_pulses, dt, scenario.h_max)


class TestSplitKronecker:
    """The split path applies ``U kron conj(U)`` by contraction, and the
    noiseless gradients run on the d x d unitaries; checked against the
    dense chains of :func:`split_factors` and :func:`exact_step`."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_contraction_helpers(self, d, rng):
        u = random_unitary(rng, d)
        x = random_complex(rng, (d * d, d * d))
        c = kron(u, np.conj(u))
        assert np.max(np.abs(lindblad._kron_conj_left(u, x) - c @ x)) < 1e-12

    def check_against_dense(self, gen, pulses, target):
        total, f, grad = dense_split_chain(gen, pulses, target)
        assert np.max(np.abs(split_propagator(gen, pulses) - total)) < 1e-12
        oracles = [
            (split_gradient, (f, grad)),
            (machnes_gradient, dense_first_order_chain(gen, pulses, target)),
        ]
        for gradient, (want_f, want_grad) in oracles:
            got_f, got_grad = gradient(gen, pulses, target)
            assert abs(got_f - want_f) < 1e-12
            assert np.max(np.abs(got_grad - want_grad)) < 1e-12 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("h_max", [5.0, 100.0])
    def test_three_qubit_chain_with_amplitude_damping(self, h_max, rng):
        gen = build_generator(
            SpinSystem.chain(3), 1, NoiseSpec.on_all_sites("amplitude_damping", 0.1, 3)
        )
        target = unitary_superoperator(random_unitary(rng, 8))
        self.check_against_dense(gen, random_pulses(rng, 6, 2.1 / 128, h_max), target)

    @pytest.mark.parametrize("kind", [None, "amplitude_damping", "phase_damping"])
    def test_scenario_a_state_fitness(self, kind, rng):
        # without noise the split path skips the identity factor A B
        scenario = scenario_catalog()[0]
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits) if kind else None
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = random_pulses(
            rng,
            scenario.num_pulses,
            scenario.total_time / scenario.num_pulses,
            scenario.h_max,
        )
        self.check_against_dense(gen, pulses, fitness_target(scenario))

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario_id, num_pulses", [("d", 16), ("a", None)])
    def test_noisy_random_target(self, scenario_id, num_pulses, kind, rng):
        # a random complex target is not unchanged by sigma(X) = P conj(X) P,
        # so the gradient is right only with the target projected onto the
        # sigma-invariant part before the columns (c, e), c > e, are dropped
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = random_pulses(
            rng,
            num_pulses or scenario.num_pulses,
            scenario.total_time / scenario.num_pulses,
            scenario.h_max,
        )
        d2 = scenario.dim**2
        self.check_against_dense(gen, pulses, random_complex(rng, (d2, d2)))

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("num_qubits, control_site, num_pulses", [(3, 1, 1), (1, 0, 12)])
    def test_half_columns_edge_cases(self, num_qubits, control_site, num_pulses, kind, rng):
        # M = 1 runs only k = 0 of the backward loop; one qubit keeps 3 of
        # the 4 input columns, so the weight-2 column (0, 1) is alone
        noise = NoiseSpec.on_all_sites(kind, 0.1, num_qubits)
        gen = build_generator(SpinSystem.chain(num_qubits), control_site, noise)
        d2 = gen.dim**2
        pulses = random_pulses(rng, num_pulses, 2.1 / 32, 5.0)
        self.check_against_dense(gen, pulses, random_complex(rng, (d2, d2)))

    @pytest.mark.parametrize("scenario_id", list("abcdef"))
    def test_noiseless_gradients_match_dense_chains(self, scenario_id, rng):
        # the random target does not map Hermitian matrices to Hermitian
        # ones, so the gradient needs both halves of the closing contraction
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        gen, pulses = catalog_generator_and_pulses(scenario, rng, num_pulses=8)
        d2 = scenario.dim**2
        targets = np.stack([
            target_superoperator(scenario),
            fitness_target(scenario),
            random_complex(rng, (d2, d2)),
        ])
        oracles = [
            (split_gradient, dense_split_chain(gen, pulses, targets)[1:]),
            (machnes_gradient, dense_first_order_chain(gen, pulses, targets)),
        ]
        for gradient, (fs, grads) in oracles:
            for i, target in enumerate(targets):
                got_f, got_grad = gradient(gen, pulses, target)
                assert abs(got_f - fs[i]) < 1e-12
                grad = grads[:, i]
                assert np.max(np.abs(got_grad - grad)) < 1e-12 * np.max(np.abs(grad))

    def test_noiseless_gradients_skip_dense_kernels(self, rng, monkeypatch):
        # the only exponentials are the d x d unitaries of noiseless
        # machnes_gradient, from one piecewise_steps call
        scenario = scenario_catalog()[3]
        gen, pulses = catalog_generator_and_pulses(scenario, rng)
        unitary_steps = lindblad._kernels.piecewise_steps
        calls = []

        def steps(base, *args):
            if np.shape(base) != (gen.dim, gen.dim):
                raise AssertionError("dense kernel called on a noiseless chain")
            calls.append(np.shape(base))
            return unitary_steps(base, *args)

        monkeypatch.setattr(lindblad._kernels, "piecewise_steps", steps)
        forbid_lindblad_expm(monkeypatch, "dense kernel called on a noiseless chain")
        target = target_superoperator(scenario)
        split_gradient(gen, pulses, target)
        assert calls == []
        machnes_gradient(gen, pulses, target)
        assert calls == [(gen.dim, gen.dim)]

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario_id", ["a", "d"])
    def test_noisy_machnes_gradient_skips_dense_kernel(self, scenario_id, kind, rng, monkeypatch):
        # the dense steps are real exponentials in the Hermitian basis, so
        # piecewise_steps never sees a (d^2, d^2) generator
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = catalog_generator_and_pulses(scenario, rng)[1]

        def steps(base, *args):
            raise AssertionError(f"piecewise_steps called on a {np.shape(base)} generator")

        monkeypatch.setattr(lindblad._kernels, "piecewise_steps", steps)
        machnes_gradient(gen, pulses, target_superoperator(scenario))

    def test_split_propagator_takes_unitaries_from_one_kernel_call(self, rng, monkeypatch):
        # the interval unitaries come from one piecewise_steps call on the
        # d x d -iH, not from an eigendecomposition
        scenario = scenario_catalog()[3]
        noise = NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = catalog_generator_and_pulses(scenario, rng)[1]
        unitary_steps = lindblad._kernels.piecewise_steps
        calls = []

        def steps(base, *args):
            calls.append(np.shape(base))
            return unitary_steps(base, *args)

        def eigh(*args):
            raise AssertionError("split_propagator called np.linalg.eigh")

        monkeypatch.setattr(lindblad._kernels, "piecewise_steps", steps)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        split_propagator(gen, pulses)
        assert calls == [(gen.dim, gen.dim)]

    @pytest.mark.parametrize("noise", [None, "amplitude_damping"])
    def test_machnes_gradient_does_not_warn_at_catalog_dt(self, noise, rng):
        # catalog (d) at +-h_max sits far outside the first-order regime;
        # that verdict is the run's (dt_validity_check), not each call's
        scenario = scenario_catalog()[3]
        if noise is not None:
            noise = NoiseSpec.on_all_sites(noise, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = catalog_generator_and_pulses(scenario, rng)[1]
        pulses = PulseSequence(np.sign(pulses.hx) * scenario.h_max,
                               np.sign(pulses.hy) * scenario.h_max, pulses.dt)
        assert not dt_validity_check(gen, scenario.h_max, pulses.dt)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            machnes_gradient(gen, pulses, target_superoperator(scenario))

    def test_noiseless_gradients_match_backward_loop(self, rng):
        # scenario (d) at the catalog M = 128 and +-h_max: the oracle walks
        # the product after each interval by an explicit backward loop, so
        # it does not rely on fwd_{k+1}^dag being the inverse of fwd_{k+1}
        scenario = scenario_catalog()[3]
        gen, pulses = catalog_generator_and_pulses(scenario, rng)
        d, dt, m = gen.dim, pulses.dt, pulses.num_pulses
        hams = [gen.drift + hx * gen.controls[0] + hy * gen.controls[1]
                for hx, hy in zip(pulses.hx, pulses.hy)]
        u = [scipy.linalg.expm(-1j * dt * h) for h in hams]
        exact_du = [[scipy.linalg.expm_frechet(-1j * dt * h, -1j * dt * c, compute_expm=False)
                     for h in hams] for c in gen.controls]
        first_order_du = [[-1j * dt * c @ uk for uk in u] for c in gen.controls]
        fwd = [np.eye(d, dtype=complex)]
        for uk in u:
            fwd.append(uk @ fwd[-1])
        back, running = [None] * m, np.eye(d, dtype=complex)
        for k in range(m - 1, -1, -1):
            back[k] = running
            running = running @ u[k]

        def oracle(du, target):
            total = fwd[m]
            grad = []
            for c in range(2):
                for k in range(m):
                    dtotal = back[k] @ du[c][k] @ fwd[k]
                    step = kron(dtotal, np.conj(total)) + kron(total, np.conj(dtotal))
                    grad.append(overlap(target, step))
            return overlap(target, unitary_superoperator(total)), np.array(grad)

        targets = [target_superoperator(scenario), random_complex(rng, (d * d, d * d))]
        for gradient, du in ((split_gradient, exact_du), (machnes_gradient, first_order_du)):
            for target in targets:
                f, grad = oracle(du, target)
                got_f, got_grad = gradient(gen, pulses, target)
                assert abs(got_f - f) < 1e-12
                assert np.max(np.abs(got_grad - grad)) < 1e-12 * np.max(np.abs(grad))

    def test_noiseless_gradient_memory(self, rng):
        # scenario (d), M = 128: one (M, d^2, d^2) array of dense steps is
        # 8 MiB; the d x d chain needs under 1 MiB
        scenario = scenario_catalog()[3]
        gen, pulses = catalog_generator_and_pulses(scenario, rng)
        target = target_superoperator(scenario)
        machnes_gradient(gen, pulses, target)
        tracemalloc.start()
        try:
            machnes_gradient(gen, pulses, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("gradient, mib", [(split_gradient, 8), (machnes_gradient, 10)])
    def test_gradient_memory(self, gradient, mib, rng):
        # scenario (d), M = 128: split_gradient's complex forward products
        # on the 36 kept input columns are one (M + 1, d^2, 36) array, 4.5
        # MiB.  machnes_gradient holds its real (M, d^2, d^2) steps, 4 MiB,
        # and its real (M + 1, d^2, d^2) forward products, 4.1 MiB
        scenario = scenario_catalog()[3]
        gen = build_generator(
            scenario.system,
            scenario.control_site,
            NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits),
        )
        pulses = random_pulses(
            rng,
            scenario.num_pulses,
            scenario.total_time / scenario.num_pulses,
            scenario.h_max,
        )
        target = target_superoperator(scenario)
        gradient(gen, pulses, target)
        tracemalloc.start()
        try:
            gradient(gen, pulses, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


class TestValidityCheck:
    def test_zero_generator_unbounded(self):
        gen = single_qubit_generator()
        ok, bound = dt_validity_check(gen, 0.0, 123.0)
        assert ok and bound == np.inf

    def test_catalog_scenario_violates_bound(self):
        scenario = scenario_catalog()[0]
        gen = build_generator(scenario.system, scenario.control_site, None)
        dt = scenario.total_time / scenario.num_pulses
        ok, bound = dt_validity_check(gen, scenario.h_max, dt)
        assert not ok
        assert bound < 5e-3

    def test_bound_halves_when_control_dominates(self):
        gen = build_generator(SpinSystem.chain(2), 0, None)
        _, b1 = dt_validity_check(gen, 200.0, 0.1)
        _, b2 = dt_validity_check(gen, 400.0, 0.1)
        assert 1.8 < b1 / b2 < 2.2

    @pytest.mark.parametrize("h", [5.0, 100.0])
    def test_bound_is_inverse_largest_singular_value(self, h):
        # with and without noise the norm is that of the d^2 x d^2 generator
        scenario = scenario_catalog()[0]
        for noise in (
            NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits),
            None,
        ):
            gen = build_generator(scenario.system, scenario.control_site, noise)
            _, bound = dt_validity_check(gen, h, 0.01)
            sigma_max = np.linalg.svd(gen.at(h, h), compute_uv=False)[0]
            assert abs(bound * sigma_max - 1.0) < 1e-12


class TestSuperopFidelity:
    def test_self_fidelity_of_unitary_channel(self, rng):
        u = random_unitary(rng, 4)
        a = unitary_superoperator(u)
        assert abs(superop_fidelity(a, a, 2) - 1.0) < 1e-12

    def test_identity_vs_not(self):
        a = unitary_superoperator(np.eye(2))
        t = unitary_superoperator(pauli("x"))
        assert abs(superop_fidelity(a, t, 1)) < 1e-14

    def test_phase_damped_identity(self):
        # diagonal superoperator diag(1, e^-2gt, e^-2gt, 1) against identity
        gamma_t = 0.1
        gen = single_qubit_generator(NoiseSpec("phase_damping", 1.0, (0,)))
        a = exact_interval(gen, 0.0, 0.0, gamma_t)
        expected = (2 + 2 * np.exp(-2 * gamma_t)) / 4
        assert abs(superop_fidelity(a, np.eye(4), 1) - expected) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            superop_fidelity(np.eye(4), np.eye(16), 2)

    def test_relabeling_invariance(self, rng):
        # simultaneous tensor-slot relabeling of both arguments
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        f1 = superop_fidelity(unitary_superoperator(u), unitary_superoperator(v), 2)
        us = swap @ u @ swap
        vs = swap @ v @ swap
        f2 = superop_fidelity(unitary_superoperator(us), unitary_superoperator(vs), 2)
        assert abs(f1 - f2) < 1e-12


def fitness_oracle(channel, scenario):
    """Direct summation over all matrix units, the definition made literal."""
    d = scenario.dim
    n = scenario.num_qubits
    dims = [2] * n
    keep = scenario.target_sites
    u = scenario.target_unitary
    z = 2 ** (2 * len(scenario.target_sites) + len(scenario.ancilla_sites))
    acc = 0.0
    for i in range(d * d):
        e = np.zeros(d * d, dtype=complex)
        e[i] = 1.0
        basis = unres(e)
        evolved = partial_trace(unres(channel @ res(basis)), dims, keep)
        target = u @ partial_trace(basis, dims, keep) @ dagger(u)
        acc += np.trace(dagger(target) @ evolved).real
    return acc / z


def tiny_scenario(system, control, target, ancilla):
    return Scenario(
        "t", system, control, target, ancilla, num_pulses=4, total_time=1.0, h_max=5.0
    )


class TestStateFitness:
    def test_perfect_channel_no_ancilla(self):
        scenario = tiny_scenario(SpinSystem.chain(2), 0, kron(pauli("x"), np.eye(2)), ())
        channel = target_superoperator(scenario)
        assert abs(state_fitness(channel, scenario) - 1.0) < 1e-12

    def test_perfect_with_any_ancilla_unitary(self, rng):
        scenario = tiny_scenario(SpinSystem.chain(2), 1, pauli("x"), (0,))
        for _ in range(5):
            w = random_unitary(rng, 2)
            channel = unitary_superoperator(kron(w, pauli("x")))
            assert abs(state_fitness(channel, scenario) - 1.0) < 1e-12

    def test_depolarizing_channel(self):
        scenario = tiny_scenario(SpinSystem(1), 0, pauli("x"), ())
        channel = np.outer(res(np.eye(2) / 2), res(np.eye(2)))
        assert abs(state_fitness(channel, scenario) - 0.25) < 1e-14

    def test_matches_bruteforce_oracle(self, rng):
        cases = [
            tiny_scenario(SpinSystem.chain(2), 1, pauli("x"), (0,)),
            tiny_scenario(SpinSystem.chain(3), 0, kron(np.eye(2), pauli("x")), (0,)),
            tiny_scenario(SpinSystem.chain(2), 0, kron(pauli("y"), pauli("x")), ()),
        ]
        for scenario in cases:
            gen = build_generator(
                scenario.system,
                scenario.control_site,
                NoiseSpec.on_all_sites("amplitude_damping", 0.3, scenario.num_qubits),
            )
            channel = total_propagator_exact(gen, random_pulses(rng, 3, 0.2))
            assert abs(
                state_fitness(channel, scenario) - fitness_oracle(channel, scenario)
            ) < 1e-11

    def test_ancilla_in_middle_slot(self, rng):
        scenario = Scenario(
            "m",
            SpinSystem.chain(3),
            1,
            kron(pauli("x"), np.eye(2)),
            ancilla_sites=(1,),
            num_pulses=4,
            total_time=1.0,
            h_max=5.0,
        )
        gen = build_generator(scenario.system, 1, None)
        channel = total_propagator_exact(gen, random_pulses(rng, 3, 0.3))
        assert abs(
            state_fitness(channel, scenario) - fitness_oracle(channel, scenario)
        ) < 1e-11

    def test_dim_mismatch(self):
        scenario = tiny_scenario(SpinSystem(1), 0, pauli("x"), ())
        with pytest.raises(ValueError):
            state_fitness(np.eye(16), scenario)


class TestTargetSuperoperator:
    def test_scenario_a_extends_with_identity(self):
        scenario = scenario_catalog()[0]
        a_t = target_superoperator(scenario)
        u_full = kron(np.eye(2), pauli("x"))
        assert np.allclose(a_t, kron(u_full, np.conj(u_full)), atol=1e-14)

    def test_fidelity_one_for_full_target(self):
        for scenario in scenario_catalog():
            a_t = target_superoperator(scenario)
            assert abs(superop_fidelity(a_t, a_t, scenario.num_qubits) - 1) < 1e-12


class TestFitnessTarget:
    def test_equals_target_superoperator_without_ancilla(self):
        for scenario in scenario_catalog():
            if not scenario.ancilla_sites:
                assert np.array_equal(
                    fitness_target(scenario), target_superoperator(scenario)
                )

    def test_built_once_per_scenario_and_read_only(self):
        scenario = scenario_catalog()[0]
        w = fitness_target(scenario)
        assert fitness_target(scenario) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        # an equal but distinct scenario gets its own, equal W
        other = scenario_catalog()[0]
        assert fitness_target(other) is not w
        assert np.array_equal(fitness_target(other), w)


def scenario_b():
    return next(s for s in scenario_catalog() if s.id == "b")


def central_differences(f, x, eps=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        grad[i] = (f(x + step) - f(x - step)) / (2 * eps)
    return grad


def relative_error(grad, reference):
    return np.linalg.norm(grad - reference) / np.linalg.norm(reference)


class TestGradients:
    """Both gradients against central differences of the fidelity they
    approximate, on a 2-qubit chain with amplitude damping on every site."""

    DT = 0.005

    @pytest.fixture
    def problem(self, rng):
        gen = build_generator(
            SpinSystem.chain(2), 0, NoiseSpec.on_all_sites("amplitude_damping", 0.05, 2)
        )
        return gen, rng.uniform(-1, 1, 2 * 64), target_superoperator(scenario_b())

    def pulses(self, x):
        return PulseSequence.from_genome(x, self.DT)

    def test_split_gradient(self, problem):
        gen, x, target = problem
        f, grad = split_gradient(gen, self.pulses(x), target)
        fidelity = lambda y: superop_fidelity(
            split_propagator(gen, self.pulses(y)), target, 2
        )
        assert f == pytest.approx(fidelity(x), abs=1e-14)
        assert relative_error(grad, central_differences(fidelity, x)) < 1e-6

    def test_machnes_gradient_first_order(self, problem):
        gen, x, target = problem
        assert dt_validity_check(gen, np.max(np.abs(x)), self.DT)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, grad = machnes_gradient(gen, self.pulses(x), target)
        fidelity = lambda y: superop_fidelity(
            total_propagator_exact(gen, self.pulses(y)), target, 2
        )
        assert f == pytest.approx(fidelity(x), abs=1e-14)
        # first order in dt: 2e-3 here, 2.0 with the sign of the derivative flipped
        assert relative_error(grad, central_differences(fidelity, x)) < 1e-2

    def check_state_fitness_gradient(self, kind, rng):
        scenario = scenario_catalog()[0]
        gen = build_generator(
            scenario.system,
            scenario.control_site,
            NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits),
        )
        dt = scenario.total_time / scenario.num_pulses
        x = rng.uniform(-5, 5, 2 * scenario.num_pulses)
        fitness = lambda y: state_fitness(
            split_propagator(gen, PulseSequence.from_genome(y, dt)), scenario
        )
        f, grad = split_gradient(
            gen, PulseSequence.from_genome(x, dt), fitness_target(scenario)
        )
        assert f == pytest.approx(fitness(x), abs=1e-14)
        assert relative_error(grad, central_differences(fitness, x)) < 1e-6

    def test_split_gradient_of_state_fitness(self, rng):
        self.check_state_fitness_gradient("phase_damping", rng)

    def test_split_gradient_of_state_fitness_with_amplitude_damping(self, rng):
        self.check_state_fitness_gradient("amplitude_damping", rng)

    @pytest.mark.parametrize("kind", [None, "amplitude_damping"])
    @pytest.mark.parametrize("gradient", [split_gradient, machnes_gradient])
    def test_rejects_target_of_wrong_shape(self, gradient, kind, rng):
        scenario = scenario_catalog()[3]
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits) if kind else None
        gen = build_generator(scenario.system, scenario.control_site, noise)
        pulses = random_pulses(rng, 4, 0.01)
        wrong_shapes = (
            scenario.full_target_unitary(),
            unitary_superoperator(random_unitary(rng, 4)),
            np.array([]),
        )
        cases = [(t, f"expected a (64, 64) target superoperator, got {t.shape}")
                 for t in wrong_shapes]
        not_finite = target_superoperator(scenario)
        not_finite[5, 7] = np.nan
        cases.append((not_finite, "the target superoperator must be finite"))
        for target, expected in cases:
            with pytest.raises(ValueError, match=re.escape(expected)):
                gradient(gen, pulses, target)

    @pytest.mark.parametrize("kind", [None, "amplitude_damping"])
    @pytest.mark.parametrize("gradient", [split_gradient, machnes_gradient])
    def test_empty_sequence(self, gradient, kind, rng):
        # no interval, so no decay factor either: the split chain regroups
        # A B C_k with one A left over only when there is a first interval
        noise = NoiseSpec.on_all_sites(kind, 0.1, 2) if kind else None
        gen = build_generator(SpinSystem.chain(2), 0, noise)
        target = unitary_superoperator(random_unitary(rng, 4))
        empty = PulseSequence([], [], 0.1)
        f, grad = gradient(gen, empty, target)
        assert f == superop_fidelity(np.eye(16), target, 2) != 0
        assert grad.shape == (0,)
        assert np.array_equal(split_propagator(gen, empty), np.eye(16))

    def test_lbfgs_reaches_state_fitness_floor(self, rng):
        # noiseless (a): split propagation is exact, and the state fitness
        # leaves the ancilla free
        scenario = scenario_catalog()[0]
        gen = build_generator(scenario.system, scenario.control_site, None)
        dt = scenario.total_time / scenario.num_pulses
        target = fitness_target(scenario)

        def with_gradient(x):
            return split_gradient(gen, PulseSequence.from_genome(x, dt), target)

        objective = Objective(
            evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
        )
        start = rng.uniform(-10, 10, 2 * scenario.num_pulses)
        _, score, _ = lbfgs_b_maximize(
            objective, Bounds(-scenario.h_max, scenario.h_max), start, max_iters=40
        )
        assert objective.evaluate(start) < 0.5
        assert score > 0.95
