import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

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
from spinctrl._kernels import _pykernels
from spinctrl.lindblad import (
    Generator,
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
    build_drift,
    embed,
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


def dense_generator(gen, hx, hy):
    """The ``(d^2, d^2)`` generator ``F(hx, hy)`` written out from the
    generator's inputs alone: ``K(H0) + hx K(H_x) + hy K(H_y)`` plus the
    dissipator of its collapse operators, never its sectors."""
    ident = np.eye(gen.dim)
    f = assemble_hamiltonian_super(gen.drift)
    for h, control in zip((hx, hy), gen.controls, strict=True):
        f = f + h * assemble_hamiltonian_super(control)
    for op, gamma in gen.collapse:
        gram = dagger(op) @ op
        f = f + gamma * (kron(op, np.conj(op))
                         - 0.5 * (kron(gram, ident) + kron(ident, np.conj(gram))))
    return f


def exact_step(gen, hx, hy, dt):
    """One interval of exact evolution, ``expm(dt F(hx, hy))``, from SciPy."""
    return scipy.linalg.expm(dt * dense_generator(gen, hx, hy))


def exact_interval(gen, hx, hy, dt):
    """One interval of exact evolution through the library's chain."""
    return total_propagator_exact(gen, PulseSequence([hx], [hy], dt))


def split_factors(gen, hx, hy, dt):
    """Dense split factors (decay, jump, coherent) of one interval.

    All three come from SciPy's ``expm``, not from the library's memoised
    noise factors: A is ``E kron conj(E)`` with the d x d ``E = expm(dt
    K)``, B the ``(d^2, d^2)`` exponential of ``dt jump_part``, and C that
    of the commutator generator, so ``A @ B @ C`` is the split step without
    the library's plane forms and contractions.
    """
    e = scipy.linalg.expm(dt * gen.decay)
    coherent = dt * assemble_hamiltonian_super(
        gen.drift + hx * gen.controls[0] + hy * gen.controls[1]
    )
    return (kron(e, np.conj(e)), scipy.linalg.expm(dt * gen.jump_part),
            scipy.linalg.expm(coherent))


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
    """One qubit's dissipator: the dense generator at zero amplitude less
    ``K(H0)``."""
    gen = single_qubit_generator(noise)
    return dense_generator(gen, 0.0, 0.0) - assemble_hamiltonian_super(gen.drift)


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseSequence([1.0], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            PulseSequence([1.0], [1.0], 0.0)

    def test_genome_roundtrip(self, rng):
        p = random_pulses(rng, 5, 0.1)
        q = PulseSequence.from_genome(np.concatenate([p.hx, p.hy]), p.dt)
        assert np.array_equal(q.hx, p.hx) and np.array_equal(q.hy, p.hy)

    @pytest.mark.parametrize("genome", [
        [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]],  # (hx, hy) rows, not hx's then hy's
        np.zeros((2, 2, 2)),
    ])
    def test_from_genome_rejects_genome_not_1d(self, genome):
        with pytest.raises(ValueError, match="genome must be 1-D"):
            PulseSequence.from_genome(genome, 0.1)

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

    def test_rejects_complex_amplitudes(self):
        # a complex amplitude is refused, not cut to its real part
        with pytest.raises(ValueError, match="hx must be real"):
            PulseSequence(np.array([1 + 2j, 0]), [0.0, 0.0], 0.1)
        with pytest.raises(ValueError, match="hy must be real"):
            PulseSequence([1.0, 0.0], [1 + 2j, 0], 0.1)
        with pytest.raises(ValueError, match="hx must be real"):
            PulseSequence.from_genome(np.array([1 + 2j, 0]), 0.1)

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
                got = unres(dense_generator(gen, hx, hy) @ res(rho))
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        # the Hermiticity defect of a non-finite H is NaN, which no bound
        # rejects; a generator must not take such a drift either
        h = np.diag([value, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="^Hamiltonian must be finite"):
            assemble_hamiltonian_super(h)
        with pytest.raises(ValueError, match="^Hamiltonian must be finite"):
            dataclasses.replace(single_qubit_generator(), drift=h)


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

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario_id", list("def"))
    def test_real_basis_chain_matches_compiled_kernel(self, scenario_id, kind, rng, monkeypatch):
        # every sector at d = 8 has more than 16 columns, so none runs the kernel
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = kind and NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        dt = scenario.total_time / scenario.num_pulses
        base = dense_generator(gen, 0.0, 0.0)
        comms = [assemble_hamiltonian_super(h) for h in gen.controls]
        kernel = _kernels.piecewise_steps

        def steps(*args):
            raise AssertionError("a sector of more than 16 columns ran the compiled kernel")

        monkeypatch.setattr(_kernels, "piecewise_steps", steps)
        for h_max in (5.0, scenario.h_max):
            pulses = random_pulses(rng, scenario.num_pulses, dt, h_max)
            want = chain(kernel(base, *comms, pulses.hx, pulses.hy, dt), gen.dim**2)
            got = total_propagator_exact(gen, pulses)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_two_qubits_run_the_compiled_kernel(self, rng, monkeypatch):
        # the one 16-column sector runs the compiled kernel, not SciPy's expm
        gen = build_generator(
            SpinSystem.chain(2), 1, NoiseSpec.on_all_sites("phase_damping", 0.1, 2)
        )
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        forbid_lindblad_expm(monkeypatch, "a 16-column sector ran SciPy's expm")
        assert_close_to_oracle(gen, pulses, total_propagator_exact(gen, pulses))

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    def test_two_qubit_sectors_of_ten_and_six(self, kind, rng, monkeypatch):
        # driving both sites of a 2-qubit chain keeps the reflection, so the
        # 16 columns split into two sectors, each run by the compiled kernel
        gen = both_sites_generator(kind)
        assert [q.shape[1] for q, *_ in gen.sectors] == [10, 6]
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        forbid_lindblad_expm(monkeypatch, "a sector of 10 or 6 columns ran SciPy's expm")
        assert_close_to_oracle(gen, pulses, total_propagator_exact(gen, pulses))
        assert_bound_is_inverse_norm(gen)

    @pytest.mark.parametrize("case", [*"abcdef", "both-sites"])
    def test_noiseless_chain_is_unitary_conjugation(self, case, rng, monkeypatch):
        # without collapse operators the channel is U kron conj(U) of the
        # d x d product: one piecewise_steps call per reflection block and no
        # sector chain, on the catalog scenarios and on a 2-qubit chain
        # driven on both sites (blocks of 3 and 1)
        if case == "both-sites":
            gen, dt, h_max = both_sites_generator(None), 0.065, 100.0
        else:
            scenario = next(s for s in scenario_catalog() if s.id == case)
            gen = build_generator(scenario.system, scenario.control_site, None)
            dt, h_max = scenario.total_time / scenario.num_pulses, scenario.h_max
        kernel, calls = _kernels.piecewise_steps, []

        def steps(base, *args):
            calls.append(np.shape(base))
            return kernel(base, *args)

        monkeypatch.setattr(_kernels, "piecewise_steps", steps)
        forbid_lindblad_expm(monkeypatch, "a noiseless chain ran SciPy's expm")
        for h in (5.0, h_max):
            pulses = random_pulses(rng, 32, dt, h)
            assert_close_to_oracle(gen, pulses, total_propagator_exact(gen, pulses))
        assert calls == 2 * [(v.shape[1],) * 2 for v, *_ in gen.blocks]
        got = total_propagator_exact(gen, PulseSequence([], [], dt))
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.eye(gen.dim**2))
        if case == "both-sites":
            assert_bound_is_inverse_norm(gen)

    def test_rejects_generator_that_breaks_hermiticity(self, rng):
        # the commutator -i [H, rho] of a non-Hermitian H is not real in the
        # Hermitian basis: construction rejects such a drift or control for
        # every d, rather than leave exact propagation to drop its imaginary
        # part (d >= 8) or propagate it (d <= 4)
        for n in (2, 3):
            gen = build_generator(
                SpinSystem.chain(n), 1, NoiseSpec.on_all_sites("amplitude_damping", 0.1, n)
            )
            h = random_complex(rng, (gen.dim, gen.dim))
            for drift, controls in ((h, gen.controls), (gen.drift, (h, gen.controls[1]))):
                with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
                    Generator(drift, controls, gen.collapse)

    def test_concurrent_first_use_matches_serial(self, rng):
        # nothing mutable is shared: a fresh generator's first calls from
        # four threads at once give the serial results bit for bit
        scenario = scenario_catalog()[3]
        noise = NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        target = target_superoperator(scenario)
        dt = scenario.total_time / scenario.num_pulses
        inputs = [random_pulses(rng, 8, dt, scenario.h_max) for _ in range(4)]
        barrier = threading.Barrier(len(inputs))

        def run(pulses):
            return total_propagator_exact(gen, pulses), *machnes_gradient(gen, pulses, target)

        def run_together(pulses):
            barrier.wait()
            return run(pulses)

        with ThreadPoolExecutor(len(inputs)) as pool:
            concurrent = list(pool.map(run_together, inputs))
        for pulses, got in zip(inputs, concurrent):
            want = run(pulses)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], want[2])

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


def scenario_a_generator():
    """Catalog scenario (a) with phase damping on both sites: one sector of
    16 columns."""
    scenario = next(s for s in scenario_catalog() if s.id == "a")
    noise = NoiseSpec.on_all_sites("phase_damping", 0.1, scenario.num_qubits)
    return build_generator(scenario.system, scenario.control_site, noise)


def both_sites_generator(kind="phase_damping"):
    """A 2-qubit chain driven on both sites, with ``kind`` at rate 0.1 on
    both sites, or no noise when None: sectors of 10 and 6 columns, blocks
    of 3 and 1."""
    system = SpinSystem.chain(2)
    x, y = (kron(pauli(a), np.eye(2)) + kron(np.eye(2), pauli(a)) for a in "xy")
    collapse = build_collapse_ops(system, NoiseSpec.on_all_sites(kind, 0.1, 2)) if kind else ()
    return Generator(build_drift(system), (x, y), collapse)


def assert_bound_is_inverse_norm(gen):
    """``dt_validity_check``'s bound is the inverse of the dense
    generator's largest singular value at |h| = 5 and 100."""
    for h in (5.0, 100.0):
        _, bound = dt_validity_check(gen, h, 0.01)
        sigma_max = np.linalg.svd(dense_generator(gen, h, h), compute_uv=False)[0]
        assert abs(bound * sigma_max - 1.0) < 1e-12


def assert_close_to_oracle(gen, pulses, got):
    """``got`` is the product of SciPy's dense steps to 1e-12 relative."""
    want = chain([exact_step(gen, hx, hy, pulses.dt)
                  for hx, hy in zip(pulses.hx, pulses.hy)], gen.dim**2)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture
def counted_steps(monkeypatch):
    """``counted_steps(impl)`` makes ``_kernels.piecewise_steps`` run impl,
    by default the package's kernel, and returns a dict that counts its
    calls and the steps they exponentiate."""

    def install(impl=_kernels.piecewise_steps):
        counts = {"calls": 0, "steps": 0}

        def steps(base, kx, ky, hx, hy, dt):
            counts["calls"] += 1
            counts["steps"] += len(hx)
            return impl(base, kx, ky, hx, hy, dt)

        monkeypatch.setattr(_kernels, "piecewise_steps", steps)
        return counts

    return install


@pytest.fixture(params=["pykernels", "cykernels"])
def kernel_backend(request):
    if request.param == "pykernels":
        return _pykernels
    return request.getfixturevalue("cykernels")


class TestStepMemo:
    """Exact chains of sectors of at most 16 columns take each distinct
    step from the compiled kernel once, then from a bounded memo."""

    def test_repeat_call_runs_no_kernel(self, counted_steps, rng):
        gen = scenario_a_generator()
        counts = counted_steps()
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        first = total_propagator_exact(gen, pulses)
        assert counts == {"calls": 1, "steps": 32}
        again = total_propagator_exact(gen, pulses)
        assert counts["calls"] == 1
        assert np.array_equal(first, again)

    @pytest.mark.parametrize("build", [scenario_a_generator, both_sites_generator])
    def test_cold_memo_matches_oracle(self, build, kernel_backend, counted_steps, rng):
        gen = build()
        counts = counted_steps(kernel_backend.piecewise_steps)
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        assert_close_to_oracle(gen, pulses, total_propagator_exact(gen, pulses))
        assert counts["steps"] == 32 * len(gen.sectors)

    def test_repeats_within_a_sequence_run_once(self, counted_steps, rng):
        gen = scenario_a_generator()
        counts = counted_steps()
        hx, hy = rng.uniform(-100.0, 100.0, (2, 4))
        pulses = PulseSequence(np.tile(hx, 5), np.tile(hy, 5), 0.065)
        assert_close_to_oracle(gen, pulses, total_propagator_exact(gen, pulses))
        assert counts["steps"] == 4

    def test_small_memo_evicts_and_matches(self, counted_steps, monkeypatch, rng):
        monkeypatch.setattr(lindblad, "MEMO_STEPS", 8)
        gen = scenario_a_generator()
        counts = counted_steps()
        pulses = random_pulses(rng, 40, 0.065, 100.0)
        first = total_propagator_exact(gen, pulses)
        second = total_propagator_exact(gen, pulses)
        assert_close_to_oracle(gen, pulses, first)
        assert np.array_equal(first, second)
        # the 8 most recent steps survive the first pass, the 32 others are evicted
        assert counts["steps"] == 40 + 32

    def test_least_recently_used_step_is_evicted(self, counted_steps, monkeypatch, rng):
        monkeypatch.setattr(lindblad, "MEMO_STEPS", 8)
        gen = scenario_a_generator()
        counts = counted_steps()
        hx, hy = rng.uniform(-100.0, 100.0, (2, 10))
        for k in (range(8), [0], [8], [0], [1]):  # the new pair 8 evicts pair 1, not 0
            total_propagator_exact(gen, PulseSequence(hx[k], hy[k], 0.065))
        assert counts["steps"] == 8 + 1 + 1

    @pytest.mark.parametrize("build", [scenario_a_generator, both_sites_generator])
    def test_real_sector_steps_have_no_imaginary_part(self, build, kernel_backend, rng):
        # the memo stores only the real part of the kernel's steps
        for _, *parts in build().sectors:
            hx, hy = rng.uniform(-100.0, 100.0, (2, 32))
            steps = kernel_backend.piecewise_steps(*parts, hx, hy, 0.065)
            assert steps.dtype == np.complex128
            assert not np.any(steps.imag)

    def test_concurrent_overlapping_sequences_match_serial(self, monkeypatch, rng):
        # a small memo evicts while two threads look up, copy and store the
        # same pairs; every channel is the serial one bit for bit
        monkeypatch.setattr(lindblad, "MEMO_STEPS", 16)
        gen = scenario_a_generator()
        pool = rng.uniform(-100.0, 100.0, (2, 24))
        inputs = [PulseSequence(*pool[:, rng.choice(24, 32)], 0.065) for _ in range(12)]
        serial = [total_propagator_exact(gen, pulses) for pulses in inputs]
        lindblad._STEP_MEMOS.clear()
        barrier = threading.Barrier(2)

        def run(order):
            barrier.wait(timeout=30)
            return [(k, total_propagator_exact(gen, inputs[k])) for _ in range(3) for k in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as workers:
                orders = [range(len(inputs)), range(len(inputs) - 1, -1, -1)]
                found = [f.result(timeout=60) for f in [workers.submit(run, o) for o in orders]]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(got, serial[k]) for results in found for k, got in results)

    def test_population_scored_twice_runs_kernel_once(self, counted_steps, rng):
        # the ring holds one default GA population's 64 x 32 steps on (a)
        gen = scenario_a_generator()
        population = [random_pulses(rng, 32, 0.065, 100.0) for _ in range(64)]
        counts = counted_steps()
        first = [total_propagator_exact(gen, pulses) for pulses in population]
        assert counts["steps"] == 64 * 32
        again = [total_propagator_exact(gen, pulses) for pulses in population]
        assert counts["steps"] == 64 * 32
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_dt_sweep_holds_one_ring(self, counted_steps, rng):
        # the same pulses at 10 values of dt: 10 distinct steps per interval,
        # all in the sector's one ring of 4 MiB
        gen = scenario_a_generator()
        pulses = random_pulses(rng, 32, 0.065, 100.0)
        sweep = [PulseSequence(pulses.hx, pulses.hy, dt) for dt in np.linspace(0.01, 0.1, 10)]
        counts = counted_steps()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            channels = [total_propagator_exact(gen, p) for p in sweep]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert counts["steps"] == 10 * 32
        assert len(lindblad._STEP_MEMOS[gen]) == 1
        assert 4 * 2**20 <= held <= 4.5 * 2**20
        for p, channel in zip(sweep, channels):
            assert_close_to_oracle(gen, p, channel)

    def test_memory_is_bounded(self, counted_steps, rng):
        # 5,000 distinct steps: the (2048, 16, 16) ring of 4 MiB and its
        # index of 2,048 keys are all the memo holds
        gen = scenario_a_generator()
        inputs = [random_pulses(rng, 100, 0.065, 100.0) for _ in range(50)]
        counts = counted_steps()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for pulses in inputs:
                total_propagator_exact(gen, pulses)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert counts["steps"] == 5000
        assert 4 * 2**20 <= held <= 4.75 * 2**20
        total_propagator_exact(gen, inputs[-1])  # still stored
        assert counts["steps"] == 5000


WRONG_SHAPES = [("drift", None), ("controls", 0), ("controls", 1), ("collapse", 0)]
DERIVED_FIELDS = [f.name for f in dataclasses.fields(Generator) if not f.init]


def flat(value):
    """The arrays of a field: itself, or those of a (nested) tuple."""
    return [a for v in value for a in flat(v)] if isinstance(value, tuple) else [value]


def phase_damped_pair():
    """A 2-qubit chain's generator with phase damping on both sites."""
    return build_generator(SpinSystem.chain(2), 1, NoiseSpec.on_all_sites("phase_damping", 0.1, 2))


class TestGeneratorInvariants:
    @pytest.mark.parametrize("name, index", WRONG_SHAPES)
    def test_rejects_field_of_wrong_shape(self, name, index):
        # d = 4: a (4, 3) drift is not square, and a (3, 3) control or
        # collapse operator is not d x d
        gen, wrong = phase_damped_pair(), np.zeros((3, 3))
        changes, expected = {
            "drift": ({"drift": np.zeros((4, 3))}, "drift must be a non-empty square matrix"),
            "controls": (
                {"controls": [wrong if i == index else h for i, h in enumerate(gen.controls)]},
                "controls must have shape (4, 4), got (3, 3)",
            ),
            "collapse": (
                {"collapse": ((wrong, 0.1),)}, "collapse must have shape (4, 4), got (3, 3)"
            ),
        }[name]
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}"):
            dataclasses.replace(gen, **changes)

    @pytest.mark.parametrize(
        "case", ["3 controls", "rate -0.1", "rate nan", "rate inf", "control nan", "collapse inf"]
    )
    def test_rejects_bad_input(self, case):
        gen = phase_damped_pair()
        (hx, hy), op = gen.controls, gen.collapse[0][0]
        rate_error = "collapse rates must be finite and >= 0"
        changes, expected = {
            "3 controls": ({"controls": (hx, hy, hx)}, "controls must hold 2 arrays, got 3"),
            "rate -0.1": ({"collapse": ((op, -0.1),)}, rate_error),
            "rate nan": ({"collapse": ((op, np.nan),)}, rate_error),
            "rate inf": ({"collapse": ((op, np.inf),)}, rate_error),
            "control nan": ({"controls": (np.where(hx != 0, np.nan, hx), hy)},
                            "controls must be finite"),
            "collapse inf": ({"collapse": ((np.where(op != 0, np.inf, op), 0.1),)},
                             "collapse must be finite"),
        }[case]
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}"):
            dataclasses.replace(gen, **changes)

    def test_derived_fields(self):
        assert DERIVED_FIELDS == [
            "dim", "jump_part", "decay", "noiseless", "reflection", "sectors", "blocks"
        ]

    @pytest.mark.parametrize("name", DERIVED_FIELDS)
    def test_derived_fields_are_read_only(self, name):
        # every field but the three inputs is built by construction, so none
        # can disagree with the drift's d or with another field
        gen = phase_damped_pair()
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(gen, **{name: getattr(gen, name)})
        with pytest.raises(TypeError):
            Generator(gen.drift, gen.controls, gen.collapse, **{name: getattr(gen, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gen, name, getattr(gen, name))
        for a in flat(getattr(gen, name)):
            assert isinstance(a, int) or not a.flags.writeable

    def test_inputs_are_frozen_in_place(self):
        # the caller's complex128 arrays are made read-only, not copied
        gen = phase_damped_pair()
        drift = np.array(gen.drift)
        controls = tuple(np.array(h) for h in gen.controls)
        op = np.array(gen.collapse[0][0])
        again = Generator(drift, controls, ((op, 0.1),))
        assert again.drift is drift and again.controls[0] is controls[0]
        assert again.collapse[0][0] is op
        assert not (drift.flags.writeable or controls[1].flags.writeable or op.flags.writeable)

    @pytest.mark.parametrize("kind", [None, "amplitude_damping", "phase_damping"])
    def test_replaced_collapse_matches_fresh_generator(self, kind):
        # swapping the noise re-derives every field, bit for bit as
        # build_generator builds them from scratch; gamma = 0 included
        scenario = scenario_catalog()[3]
        n = scenario.num_qubits
        gen = build_generator(scenario.system, scenario.control_site, None)
        for gamma in (0.0, 0.1):
            noise = kind and NoiseSpec.on_all_sites(kind, gamma, n)
            fresh = build_generator(scenario.system, scenario.control_site, noise)
            swapped = dataclasses.replace(gen, collapse=fresh.collapse)
            for name in ["drift", "controls", *DERIVED_FIELDS]:
                # the sectors of (d) are arrays of several shapes
                got, want = flat(getattr(swapped, name)), flat(getattr(fresh, name))
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize("kind", [None, "amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda s: s.id)
    def test_sectors_are_the_real_form(self, scenario, kind):
        noise = kind and NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        q = np.hstack([sector[0] for sector in gen.sectors])
        assert np.max(np.abs(dagger(q) @ q - np.eye(gen.dim**2))) < 1e-14
        for q, *blocks in gen.sectors:
            assert not q.flags.writeable
            for r in blocks:
                assert r.dtype == np.float64 and r.flags.c_contiguous and not r.flags.writeable
        # the sector blocks rebuild the control-independent generator and
        # both control commutators
        base = dense_generator(gen, 0.0, 0.0)
        parts = (base, *(assemble_hamiltonian_super(h) for h in gen.controls))
        for i, x in enumerate(parts, 1):
            rebuilt = sum(sector[0] @ sector[i] @ dagger(sector[0]) for sector in gen.sectors)
            assert np.max(np.abs(rebuilt - x)) < 1e-13 * np.max(np.abs(x))
        if np.array_equal(gen.reflection, np.arange(gen.dim)):
            [(q, *blocks)] = gen.sectors
            assert q.shape == (gen.dim**2,) * 2

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    def test_trace_preservation_of_generator(self, kind, rng):
        n = 2
        gen = build_generator(
            SpinSystem.chain(n), 0, NoiseSpec.on_all_sites(kind, 0.6, n)
        )
        full = dense_generator(gen, 1.7, -0.9)
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
        # the jump factor's real plane form and its transpose, both sparse
        _, b, b_t = factors
        assert b.shape == b_t.shape == (2 * gen.dim**2,) * 2
        assert np.array_equal(b_t.toarray(), b.toarray().T)
        for planes in (b, b_t):
            for a in (planes.data, planes.indices, planes.indptr):
                with pytest.raises(ValueError):
                    a[0] = 0
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
        coherent = dt * assemble_hamiltonian_super(
            gen.drift + hx * gen.controls[0] + hy * gen.controls[1]
        )
        steps.append(a @ b @ c)
        dsteps.append(
            [a @ b @ scipy.linalg.expm_frechet(
                coherent, dt * assemble_hamiltonian_super(h), compute_expm=False
            ) for h in gen.controls]
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
    comms = [assemble_hamiltonian_super(h) for h in gen.controls]
    for k in range(m):
        for c, comm in enumerate(comms):
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
        # a folded step W = U E is not unitary; the real transposes of its
        # planes are the planes of W^dag
        w = random_complex(rng, (d, d))
        x = random_complex(rng, (d * d, 5))
        planes = lindblad._planes(x)
        assert planes.shape == (2 * d * d, 5)
        for ket, bra, z in (
            (lindblad._ket_planes(w), lindblad._bra_planes(w), w),
            (lindblad._ket_planes(w).T, lindblad._bra_planes(w).T, dagger(w)),
        ):
            want = lindblad._planes(kron(z, np.conj(z)) @ x)
            assert np.max(np.abs(lindblad._coherent(ket, bra, planes) - want)) < 1e-12

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

    @pytest.mark.parametrize("scenario_id", ["a", "d"])
    def test_complex_jump_factor(self, scenario_id, rng):
        # catalog noise has only sigma_minus and sigma_z, so B is real; the
        # collapse operator sigma_x + i sigma_z on one site makes L kron
        # conj(L), and B, complex, so B enters the real chain through its
        # J-coupled entries
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        op = embed(pauli("x") + 1j * pauli("z"), (0,), scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, None)
        gen = dataclasses.replace(gen, collapse=((op, 0.2),))
        jump = 0.2 * kron(op, np.conj(op))
        assert np.array_equal(gen.jump_part, jump)
        pulses = random_pulses(
            rng, 8, scenario.total_time / scenario.num_pulses, scenario.h_max
        )
        b = scipy.linalg.expm(pulses.dt * jump)
        assert np.max(np.abs(b.imag)) > 1e-3
        planes = lindblad._noise_factors(gen, pulses.dt)[1]
        x = random_complex(rng, (gen.dim**2, 3))
        assert np.max(np.abs(planes @ lindblad._planes(x) - lindblad._planes(b @ x))) < 1e-14
        d2 = gen.dim**2
        for target in (target_superoperator(scenario), random_complex(rng, (d2, d2))):
            self.check_against_dense(gen, pulses, target)

    @pytest.mark.parametrize("kind", ["amplitude_damping", "phase_damping"])
    @pytest.mark.parametrize("scenario_id", ["a", "d"])
    def test_zero_rate_matches_noiseless(self, scenario_id, kind, rng):
        # collapse operators at gamma = 0 leave every entry point on its
        # noiseless branch, bit for bit
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        gen, pulses = catalog_generator_and_pulses(scenario, rng)
        noise = NoiseSpec.on_all_sites(kind, 0.0, scenario.num_qubits)
        zero = build_generator(scenario.system, scenario.control_site, noise)
        assert len(zero.collapse) == scenario.num_qubits
        target = target_superoperator(scenario)
        for propagator in (total_propagator_exact, split_propagator):
            assert np.array_equal(propagator(zero, pulses), propagator(gen, pulses))
        for gradient in (split_gradient, machnes_gradient):
            (f, grad), want = gradient(zero, pulses, target), gradient(gen, pulses, target)
            assert f == want[0] and np.array_equal(grad, want[1])

    @pytest.mark.parametrize("scenario_id, num_pulses", [
        pytest.param(s, m, id=s if m == 8 else f"{s}-{m}")
        for m in (8, 1, 9, 17)
        for s in "abcdef"
    ])
    def test_noiseless_gradients_match_dense_chains(self, scenario_id, num_pulses, rng):
        # the random target does not map Hermitian matrices to Hermitian
        # ones, so the gradient needs both halves of the closing contraction;
        # M = 17 leaves the prefix scan's last block of isqrt(M) = 4 partial.
        # At M = 1 the only interval is the last: with the control on the
        # ancilla (c, e), its first-order derivative is traced out of the
        # state fitness, which then has a zero machnes gradient and a split
        # gradient of about 1e-6, all second order: a relative check there
        # reads only rounding, so that target is left out
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        gen, pulses = catalog_generator_and_pulses(scenario, rng, num_pulses)
        d2 = scenario.dim**2
        targets = [target_superoperator(scenario), fitness_target(scenario),
                   random_complex(rng, (d2, d2))]
        if num_pulses == 1 and scenario.control_site in scenario.ancilla_sites:
            del targets[1]
        targets = np.stack(targets)
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

    @pytest.mark.parametrize("m", [0, 1, 10, 11, 12, 25, 128])
    def test_prefix_products_match_sequential_loop(self, m, rng):
        # blocks of isqrt(M): the last one holds 1 of 3 at M = 10, 2 of 3 at
        # M = 11 and 7 of 11 at M = 128; M = 12 and 25 fill every block
        u = np.array([random_unitary(rng, 4) for _ in range(m)]).reshape(m, 4, 4)
        got = lindblad._prefix_products(u)
        want, running = np.empty_like(u), np.eye(4, dtype=complex)
        for k in range(m):
            running = want[k] = u[k] @ running
        assert got.shape == (m, 4, 4)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-13

    @pytest.mark.parametrize("kind", [None, "amplitude_damping"])
    @pytest.mark.parametrize("scenario_id", ["a", "d"])
    def test_split_gradient_on_degenerate_spectrum(self, scenario_id, kind, rng):
        # with every pulse at 0, H_k is the Heisenberg drift, whose spectrum
        # has repeated levels (a triplet on 2 qubits): eigh's V is not unique
        # there, and the eigenbasis contraction is right only because phi is
        # constant on each degenerate block
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits) if kind else None
        gen = build_generator(scenario.system, scenario.control_site, noise)
        w = np.linalg.eigvalsh(gen.drift)
        assert np.sum(np.abs(np.diff(w)) < 1e-12) >= 2
        pulses = PulseSequence(np.zeros(6), np.zeros(6), scenario.total_time / scenario.num_pulses)
        # the catalog targets' gradients vanish at zero pulses
        d2 = gen.dim**2
        for target in (unitary_superoperator(random_unitary(rng, gen.dim)),
                       random_complex(rng, (d2, d2))):
            _, want_f, want_grad = dense_split_chain(gen, pulses, target)
            got_f, got_grad = split_gradient(gen, pulses, target)
            assert abs(got_f - want_f) < 1e-12
            assert np.max(np.abs(got_grad - want_grad)) < 1e-12 * np.max(np.abs(want_grad))

    def test_noiseless_gradients_skip_dense_kernels(self, rng, monkeypatch):
        # the only exponentials are the unitaries of noiseless
        # machnes_gradient, from one piecewise_steps call per reflection
        # block: 6 x 6 and 2 x 2 on (d)
        scenario = scenario_catalog()[3]
        gen, pulses = catalog_generator_and_pulses(scenario, rng)
        unitary_steps = lindblad._kernels.piecewise_steps
        calls = []

        def steps(base, *args):
            if np.shape(base) not in [(6, 6), (2, 2)]:
                raise AssertionError("dense kernel called on a noiseless chain")
            calls.append(np.shape(base))
            return unitary_steps(base, *args)

        monkeypatch.setattr(lindblad._kernels, "piecewise_steps", steps)
        forbid_lindblad_expm(monkeypatch, "dense kernel called on a noiseless chain")
        target = target_superoperator(scenario)
        split_gradient(gen, pulses, target)
        assert calls == []
        machnes_gradient(gen, pulses, target)
        assert calls == [(6, 6), (2, 2)]

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

    @pytest.mark.parametrize("scenario_id, sectors", [("a", 1), ("d", 2)])
    def test_noisy_gradients_read_p_by_one_contraction(self, scenario_id, sectors, rng, monkeypatch):
        # machnes_gradient stores P_k over its used steps and reads them by
        # one _traces call per sector; split_gradient forms P from plane
        # slices, without einsum
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = NoiseSpec.on_all_sites("amplitude_damping", 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        assert len(gen.sectors) == sectors
        pulses = catalog_generator_and_pulses(scenario, rng)[1]
        target = target_superoperator(scenario)
        traces = lindblad._traces
        calls = []

        def counted(p, ops):
            calls.append(p.shape)
            return traces(p, ops)

        def einsum(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(lindblad, "_traces", counted)
        monkeypatch.setattr(np, "einsum", einsum)
        machnes_gradient(gen, pulses, target)
        assert calls == [(pulses.num_pulses, q.shape[1], q.shape[1]) for q, *_ in gen.sectors]
        split_gradient(gen, pulses, target)

    def test_split_propagator_takes_unitaries_from_one_kernel_call(self, rng, monkeypatch):
        # the interval unitaries come from one piecewise_steps call per
        # reflection block of the d x d -iH, not from an eigendecomposition
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
        assert calls == [(6, 6), (2, 2)]

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

    @pytest.mark.parametrize("gradient, mib, scenario_id", [
        pytest.param(split_gradient, 8, "d", id="split_gradient-8"),
        pytest.param(machnes_gradient, 10, "d", id="machnes_gradient-10"),
        pytest.param(machnes_gradient, 10, "f", id="machnes_gradient-10-f"),
    ])
    def test_gradient_memory(self, gradient, mib, scenario_id, rng):
        # scenario (d), M = 128: split_gradient keeps its real-plane steps
        # before B on the 24 kept input columns, one per orbit of the
        # Hermitian swap and the reflection, one (M, 2 d^2, 24) array, 3 MiB,
        # and no complex forward stack or transposed copies of the (2d, 2d)
        # plane blocks.  machnes_gradient holds, per sector, its real (M, n,
        # n) steps and (M + 1, n, n) forward products: 3.3 MiB for n = 40,
        # then 1.2 MiB for n = 24; the step stack ends up holding P_k, so
        # there is no third stack.  On (f), one 64-column sector at M = 128,
        # the two stacks are 8 MiB, and a separate P stack would add 4 MiB
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
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

    @pytest.mark.parametrize("h_max, dt, name", [
        (100.0, -1.0, "dt"), (100.0, 0.0, "dt"), (100.0, np.nan, "dt"), (100.0, np.inf, "dt"),
        (-1.0, 0.01, "h_max"), (np.nan, 0.01, "h_max"), (np.inf, 0.01, "h_max"),
    ])
    def test_rejects_bad_input(self, h_max, dt, name):
        gen = build_generator(SpinSystem.chain(2), 0, None)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dt_validity_check(gen, h_max, dt)

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

    def test_norm_in_the_odd_sector(self):
        # with the swap as collapse operator and no Hamiltonian, F is 0 on
        # reflection-symmetric matrices and -2 on antisymmetric ones, so the
        # whole norm sits in the -1 sector
        swap = np.eye(4)[[0, 2, 1, 3]]
        x, y = (kron(pauli(a), np.eye(2)) + kron(np.eye(2), pauli(a)) for a in "xy")
        gen = Generator(np.zeros((4, 4)), (x, y), ((swap, 1.0),))
        assert [q.shape[1] for q, *_ in gen.sectors] == [10, 6]
        assert abs(dt_validity_check(gen, 0.0, 0.01)[1] - 0.5) < 1e-14

    def test_norm_at_an_off_diagonal_corner(self):
        # with controls sigma_x and -sigma_x, H vanishes at (h, h) and
        # (-h, -h) and is 2 h sigma_x at (h, -h) and (-h, h): norm 4 h there
        x = pauli("x")
        gen = Generator(np.zeros((2, 2)), (x, -x))
        ok, bound = dt_validity_check(gen, 1.0, 1000.0)
        assert not ok and abs(bound - 0.25) < 1e-14
        sigma_max = max(np.linalg.svd(dense_generator(gen, hx, hy), compute_uv=False)[0]
                        for hx in (1.0, -1.0) for hy in (1.0, -1.0))
        assert abs(bound * sigma_max - 1.0) < 1e-14

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
            sigma_max = np.linalg.svd(dense_generator(gen, h, h), compute_uv=False)[0]
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

    @pytest.mark.parametrize("n_qubits", [-1, 0, 2.0, "2"])
    def test_rejects_bad_n_qubits(self, n_qubits):
        with pytest.raises(ValueError, match="n_qubits"):
            superop_fidelity(np.eye(16), np.eye(16), n_qubits)

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
            # two ancilla slots around the target: the 16-term Kraus sum
            tiny_scenario(SpinSystem.chain(3), 1, random_unitary(rng, 2), (0, 2)),
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
        # equal up to the order of summation of Tr(T^dag)
        assert f == pytest.approx(superop_fidelity(np.eye(16), target, 2), rel=0, abs=1e-15)
        assert f != 0
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


def reflection_generator(scenario_id, kind, sites=None):
    """The catalog scenario and its generator with ``kind`` at rate 0.1 on
    ``sites``, every site when None."""
    scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
    sites = range(scenario.num_qubits) if sites is None else sites
    noise = NoiseSpec(kind, 0.1, tuple(sites))
    return scenario, build_generator(scenario.system, scenario.control_site, noise)


def without_reflection(monkeypatch, gen):
    """The generator of the same model with its reflection dropped: one
    sector of all d^2 columns, and d(d+1)/2 split columns."""
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_reflection", lambda d, ops, jump: np.arange(d))
        full = Generator(gen.drift, gen.controls, gen.collapse)
    assert len(full.sectors) == 1
    return full


class TestReflectionSectors:
    """Scenario (d)'s chain reflection, which swaps qubits 0 and 2, is kept
    only when it commutes with the whole generator.  Then the noisy split
    gradient runs one input column per orbit, the dense real chains run per
    sector and the d x d unitaries per block, checked against the same model
    without the reflection."""

    KINDS = ["amplitude_damping", "phase_damping"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_kept_on_d_with_noise_on_every_site(self, kind):
        _, gen = reflection_generator("d", kind)
        assert np.array_equal(gen.reflection, [0, 4, 2, 6, 1, 5, 3, 7])
        assert [q.shape for q, *_ in gen.sectors] == [(64, 40), (64, 24)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scenario_id, sites", [
        ("d", (0,)), ("a", None), ("b", None), ("c", None), ("e", None), ("f", None)
    ])
    def test_dropped_without_the_symmetry(self, scenario_id, sites, kind):
        _, gen = reflection_generator(scenario_id, kind, sites)
        assert np.array_equal(gen.reflection, np.arange(gen.dim))
        assert len(gen.sectors) == 1

    @pytest.mark.parametrize("kind", [None, *KINDS])
    def test_blocks_of_six_and_two_on_d(self, kind):
        # H commutes with the reflection whatever the noise, but the blocks
        # follow the kept reflection: (d) noiseless or noisy on every site
        scenario = next(s for s in scenario_catalog() if s.id == "d")
        noise = kind and NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        assert [v.shape for v, *_ in gen.blocks] == [(8, 6), (8, 2)]

    @pytest.mark.parametrize("kind", [None, *KINDS])
    @pytest.mark.parametrize("scenario_id", list("abcef"))
    def test_one_identity_block_elsewhere(self, scenario_id, kind):
        scenario = next(s for s in scenario_catalog() if s.id == scenario_id)
        noise = kind and NoiseSpec.on_all_sites(kind, 0.1, scenario.num_qubits)
        gen = build_generator(scenario.system, scenario.control_site, noise)
        [(v, *hams)] = gen.blocks
        assert np.array_equal(v, np.eye(gen.dim))
        assert all(np.array_equal(h, x) for h, x in zip(hams, (gen.drift, *gen.controls)))

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: reflection_generator("d", "amplitude_damping")[1], id="d"),
        pytest.param(lambda: both_sites_generator(None), id="both-sites"),
    ])
    def test_blocks_are_orthonormal_and_do_not_leak(self, build):
        # W, the blocks' bases side by side, is orthogonal, and W^T H W is
        # block diagonal with the blocks' own Hamiltonians on its diagonal
        gen = build()
        w = np.hstack([v for v, *_ in gen.blocks])
        assert np.max(np.abs(w.T @ w - np.eye(gen.dim))) < 1e-15
        ends = np.cumsum([v.shape[1] for v, *_ in gen.blocks])
        for i, h in enumerate((gen.drift, *gen.controls), 1):
            rotated = w.T @ h @ w
            for (start, end), block in zip(zip([0, *ends[:-1]], ends), gen.blocks):
                assert np.max(np.abs(rotated[start:end, start:end] - block[i])) < 1e-15
                rotated[start:end, start:end] = 0
            assert np.max(np.abs(rotated)) < 1e-15

    def test_block_unitaries_match_full_kernel(self, monkeypatch, rng):
        scenario, gen = reflection_generator("d", "amplitude_damping")
        pulses = random_pulses(
            rng, scenario.num_pulses, scenario.total_time / scenario.num_pulses, scenario.h_max
        )
        hams = [-1j * h for h in (gen.drift, *gen.controls)]
        want = _kernels.piecewise_steps(*hams, pulses.hx, pulses.hy, pulses.dt)
        w, u = lindblad._interval_unitaries(gen, pulses)
        assert np.max(np.abs(w @ u @ w.T - want)) < 1e-13
        # without the reflection the one block is the d x d kernel call's
        w, u = lindblad._interval_unitaries(without_reflection(monkeypatch, gen), pulses)
        assert np.array_equal(w, np.eye(gen.dim)) and np.array_equal(u, want)

    def test_orbits_built_once_per_generator(self, monkeypatch, rng):
        # the kept columns, weights and reflection index of a generator are
        # built by the first call; every call averages its own target
        scenario, gen = reflection_generator("d", "amplitude_damping")
        pulses = random_pulses(rng, 16, scenario.total_time / scenario.num_pulses, 5.0)
        unique, calls = np.unique, []

        def counted(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        target = target_superoperator(scenario)
        first = lindblad._hermitian_half(gen, target)
        second = lindblad._hermitian_half(gen, target)
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))
        f, grad = split_gradient(gen, pulses, target)
        again = split_gradient(gen, pulses, target)
        assert len(calls) == 1
        assert f == again[0] and np.array_equal(grad, again[1])

    @pytest.mark.parametrize("scenario_id, kept", [("d", 24), ("f", 36), ("a", 10)])
    def test_orbit_weights(self, scenario_id, kept):
        # against the identity superoperator, which the group leaves as it
        # is, each kept column scores its orbit's size / d^2
        _, gen = reflection_generator(scenario_id, "amplitude_damping")
        d2 = gen.dim**2
        f, th = lindblad._hermitian_half(gen, np.eye(d2))
        assert f.shape == th.shape == (2 * d2, kept)
        sizes = np.sum(th * f, axis=0) * d2
        assert set(sizes) <= {1.0, 2.0, 4.0}
        assert sizes.sum() == d2

    @pytest.mark.parametrize("kind", KINDS)
    def test_split_gradient_matches_hermitian_columns(self, kind, monkeypatch, rng):
        scenario, gen = reflection_generator("d", kind)
        full = without_reflection(monkeypatch, gen)
        pulses = random_pulses(
            rng, 32, scenario.total_time / scenario.num_pulses, scenario.h_max
        )
        d2 = gen.dim**2
        for target in (target_superoperator(scenario), fitness_target(scenario),
                       random_complex(rng, (d2, d2))):
            (f, grad), (want_f, want_grad) = (
                split_gradient(g, pulses, target) for g in (gen, full)
            )
            assert abs(f - want_f) < 1e-13
            assert np.max(np.abs(grad - want_grad)) < 1e-13 * np.max(np.abs(want_grad))

    def test_split_gradient_matches_central_differences(self, rng):
        # a random complex target is not unchanged by the reflection, so the
        # gradient is right only with the target averaged over the group
        scenario, gen = reflection_generator("d", "amplitude_damping")
        dt = scenario.total_time / scenario.num_pulses
        target = random_complex(rng, (gen.dim**2,) * 2)
        x = rng.uniform(-20, 20, 2 * 8)
        fidelity = lambda y: superop_fidelity(
            split_propagator(gen, PulseSequence.from_genome(y, dt)), target, 3
        )
        f, grad = split_gradient(gen, PulseSequence.from_genome(x, dt), target)
        assert f == pytest.approx(fidelity(x), abs=1e-14)
        assert relative_error(grad, central_differences(fidelity, x)) < 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_sector_chains_match_single_sector(self, kind, monkeypatch, rng):
        scenario, gen = reflection_generator("d", kind)
        full = without_reflection(monkeypatch, gen)
        pulses = random_pulses(
            rng, 32, scenario.total_time / scenario.num_pulses, scenario.h_max
        )
        want = total_propagator_exact(full, pulses)
        assert np.max(np.abs(total_propagator_exact(gen, pulses) - want)) < 1e-13
        d2 = gen.dim**2
        for target in (target_superoperator(scenario), random_complex(rng, (d2, d2))):
            (f, grad), (want_f, want_grad) = (
                machnes_gradient(g, pulses, target) for g in (gen, full)
            )
            assert abs(f - want_f) < 1e-13
            assert np.max(np.abs(grad - want_grad)) < 1e-13 * np.max(np.abs(want_grad))
