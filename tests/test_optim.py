import itertools
import re
import sys
import threading

import numpy as np
import pytest

from conftest import loaded_by_import
from spinctrl import optim
from spinctrl.lindblad import PulseSequence, build_generator, state_fitness, total_propagator_exact
from spinctrl.model import NoiseSpec, scenario_catalog
from spinctrl.optim import (
    Bounds,
    GaConfig,
    Objective,
    ga_maximize,
    lbfgs_b_maximize,
)


def quadratic_objective(weights, center):
    def with_gradient(x):
        diff = x - center
        return -float(np.sum(weights * diff**2)), -2.0 * weights * diff

    return Objective(
        evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
    )


def sphere(x):
    return -float(np.sum(np.asarray(x) ** 2))


class TestLbfgs:
    def test_concave_quadratic_with_active_bound(self, rng):
        weights = rng.uniform(0.5, 5.0, 6)
        center = np.array([0.3, -0.7, 2.5, -4.0, 0.0, 1.5])
        bounds = Bounds(-1.0, 1.0)
        x, score, _ = lbfgs_b_maximize(
            quadratic_objective(weights, center), bounds, rng.uniform(-1, 1, 6)
        )
        optimum = bounds.clip(center)
        assert np.max(np.abs(x - optimum)) < 1e-6
        assert score == pytest.approx(-np.sum(weights * (optimum - center) ** 2))
        assert np.all(np.abs(x) <= 1.0)

    def test_badly_scaled_ascent_reaches_far_optimum(self):
        # a Huber ascent: the gradient is 1e-3 long and constant up to 5
        # from the optimum, which is 50 away, so raw gradient steps would
        # move 1e-3 per iteration and find no curvature to rescale them
        center = np.array([50.0, -30.0, 20.0])

        def with_gradient(x):
            r = x - center
            huber = np.where(np.abs(r) <= 5.0, r * r / 2, 5.0 * np.abs(r) - 12.5)
            return -2e-4 * float(np.sum(huber)), -2e-4 * np.clip(r, -5.0, 5.0)

        objective = Objective(
            evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
        )
        x, _, _ = lbfgs_b_maximize(objective, Bounds(-100.0, 100.0), np.zeros(3), max_iters=100)
        assert np.max(np.abs(x - center)) < 1e-4

    def test_tiny_curvature_pair_gives_a_direction_within_the_box(self):
        # after the first step tanh of the third coordinate barely leaves
        # -1, so the curvature pair's y is tiny and the quasi-Newton
        # direction about 1e16 long: uncapped, every clipped trial lands on
        # the same corner, the line search fails and the run stops 48 from
        # the optimum
        center = np.array([50.0, -30.0, 20.0])

        def with_gradient(x):
            r = x - center
            return -1e-3 * float(np.sum(np.logaddexp(r, -r))), -1e-3 * np.tanh(r)

        objective = Objective(
            evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
        )
        x, _, _ = lbfgs_b_maximize(objective, Bounds(-100.0, 100.0), np.zeros(3), max_iters=100)
        assert np.max(np.abs(x - center)) < 1e-4

    @pytest.mark.parametrize("start", [(0.0, 0.0), (0.5, 0.9), (-0.9, -0.9), (1.0, 1.0)])
    def test_coupled_quadratic_with_direction_leaving_box(self, start):
        # the unconstrained optimum (3, -2) lies outside the box, and the
        # quasi-Newton direction leaves the box in x0 as well as x1; only
        # x0 is active at the box optimum (1, -0.2)
        hessian = np.array([[1.0, 0.9], [0.9, 1.0]])
        center = np.array([3.0, -2.0])

        def with_gradient(x):
            r = x - center
            return -float(r @ hessian @ r), -2.0 * hessian @ r

        objective = Objective(
            evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
        )
        x, _, _ = lbfgs_b_maximize(objective, Bounds(-1.0, 1.0), np.array(start))
        assert np.max(np.abs(x - [1.0, -0.2])) < 1e-5

    def test_failed_line_search_stops_after_twenty_trials(self):
        # the gradient has the wrong sign, so no trial step ascends
        calls = []

        def wrong_sign(x):
            calls.append(x)
            return sphere(x), 2.0 * x

        objective = Objective(evaluate=sphere, evaluate_with_gradient=wrong_sign)
        start = np.array([0.5, -0.3, 0.2])
        x, score, _ = lbfgs_b_maximize(objective, Bounds(-2.0, 2.0), start)
        assert len(calls) <= 21
        assert np.array_equal(x, start) and score == sphere(start)

    def test_accepts_non_finite_bounds(self, rng):
        # unlike the GA, which draws its genomes in the bounds
        center = np.array([0.3, -0.7])
        objective = quadratic_objective(np.ones(2), center)
        x, _, _ = lbfgs_b_maximize(objective, Bounds(-np.inf, np.inf), rng.uniform(-1, 1, 2))
        assert np.max(np.abs(x - center)) < 1e-6

    @pytest.mark.parametrize("max_iters", [1.5, -3])
    def test_rejects_bad_max_iters(self, max_iters):
        objective = quadratic_objective(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="max_iters"):
            lbfgs_b_maximize(objective, Bounds(-1.0, 1.0), np.zeros(2), max_iters=max_iters)

    @pytest.mark.parametrize("shape", [(), (4, 1), (3,)], ids=["scalar", "column", "short"])
    def test_rejects_gradient_of_wrong_shape(self, shape):
        objective = Objective(
            evaluate=sphere, evaluate_with_gradient=lambda x: (sphere(x), np.ones(shape))
        )
        message = re.escape(f"gradient of shape {shape}, expected (4,)")
        with pytest.raises(ValueError, match=message):
            lbfgs_b_maximize(objective, Bounds(-1.0, 1.0), np.full(4, 0.5))

    @pytest.mark.parametrize(
        "start", [[np.nan, 0.5], [0.5, np.inf], np.full((2, 2), 0.5)], ids=["nan", "inf", "2-d"]
    )
    def test_rejects_bad_start(self, start):
        # checked before the objective runs, so the objective is not blamed
        objective = Objective(evaluate=sphere, evaluate_with_gradient=lambda x: 1 / 0)
        with pytest.raises(ValueError, match="start must be a finite 1-D array"):
            lbfgs_b_maximize(objective, Bounds(-1.0, 1.0), start)

    def test_rejects_complex_start(self):
        # refused, not cut to its real part
        objective = Objective(evaluate=sphere, evaluate_with_gradient=lambda x: 1 / 0)
        with pytest.raises(ValueError, match="start must be real"):
            lbfgs_b_maximize(objective, Bounds(-1.0, 1.0), np.array([0.5 + 1j]))

    def test_zero_max_iters_returns_clipped_start(self):
        calls = []

        def with_gradient(x):
            calls.append(x)
            return sphere(x), -2.0 * x

        objective = Objective(evaluate=sphere, evaluate_with_gradient=with_gradient)
        x, score, iterations = lbfgs_b_maximize(
            objective, Bounds(-1.0, 1.0), np.array([3.0, -0.5]), max_iters=np.int64(0)
        )
        assert np.array_equal(x, [1.0, -0.5])
        assert score == sphere([1.0, -0.5]) and iterations == 0 and len(calls) == 1


@pytest.mark.parametrize("module", ["scipy.optimize", "concurrent.futures.thread", "scipy.sparse"])
def test_import_leaves_module_unloaded(module):
    # scipy.optimize would add about a quarter second and 20 MB of resident
    # memory to every process that imports the package; the GA imports its
    # thread pool on first use, and the sparse jump factor of the split
    # method imports scipy.sparse on first use (about 1 MB and 11-18 ms)
    assert not loaded_by_import(module)


def run_ga(cfg, calls=None, num_pulses=3):
    def evaluate(x):
        if calls is not None:
            calls.append(np.array(x))
        return sphere(x)

    return ga_maximize(Objective(evaluate=evaluate), Bounds(-2.0, 2.0), num_pulses, cfg)


def state_fitness_ga(cfg):
    """A GA run on the exact state fitness of catalog scenario (a) with
    phase damping, as a function of no arguments."""
    scenario = next(s for s in scenario_catalog() if s.id == "a")
    noise = NoiseSpec.on_all_sites("phase_damping", 0.1, scenario.num_qubits)
    gen = build_generator(scenario.system, scenario.control_site, noise)
    dt = scenario.total_time / scenario.num_pulses

    def evaluate(x):
        channel = total_propagator_exact(gen, PulseSequence.from_genome(x, dt))
        return state_fitness(channel, scenario)

    bounds = Bounds(-scenario.h_max, scenario.h_max)
    return lambda: ga_maximize(Objective(evaluate=evaluate), bounds, scenario.num_pulses, cfg)


class TestGa:
    CONFIG = GaConfig(population_size=8, generations=4, seed=7)

    def test_pure_function_of_seed(self):
        genome, score, history = run_ga(self.CONFIG)
        again = run_ga(self.CONFIG)
        assert np.array_equal(genome, again[0])
        assert score == again[1] and history == again[2]
        other = run_ga(GaConfig(population_size=8, generations=4, seed=8))
        assert not np.array_equal(genome, other[0])

    def test_elites_survive_unchanged(self):
        # survivors keep their fitness, so after the first generation only
        # the P - ELITES new genomes are scored, and the best genome of the
        # run is never lost
        calls = []
        genome, score, history = run_ga(self.CONFIG, calls)
        size, generations = self.CONFIG.population_size, self.CONFIG.generations
        assert len(calls) == size + (generations - 1) * (size - optim.ELITES) == 26
        assert history == sorted(history)
        scores = [sphere(x) for x in calls]
        assert score == max(scores) == history[-1]
        assert any(np.array_equal(genome, x) for x, f in zip(calls, scores) if f == score)

    def test_every_child_gene_is_a_parent_gene_or_a_draw(self):
        # a child gene is bit for bit its parent's gene at the same position,
        # which is what lets the step memo find repeated pulse steps, or a
        # fresh draw in the bounds, which matches no gene of the parents
        cfg = GaConfig(population_size=64, generations=5, seed=3)
        calls = []
        run_ga(cfg, calls)
        size = cfg.population_size
        population, fresh, children = np.array(calls[:size]), 0, 0
        for g in range(1, cfg.generations):
            fits = np.array([sphere(x) for x in population])
            order = np.argsort(-fits, kind="stable")
            start = size + (g - 1) * (size - optim.ELITES)
            bred = np.array(calls[start:start + size - optim.ELITES])
            for child in bred:
                for i, gene in enumerate(child):
                    if gene not in population[:, i]:
                        assert -2.0 <= gene <= 2.0 and gene not in population
                        fresh += 1
                    children += 1
            population = np.concatenate([population[order[:optim.ELITES]], bred])
        assert len(calls) == start + size - optim.ELITES
        # each gene is redrawn with probability 1 - KEEP_PROBABILITY = 0.05
        assert 0.025 < fresh / children < 0.1

    def test_smallest_ga(self):
        # population 4 of two genes, whose only cut pair (0, 1) has an empty
        # interior (TestBreed.test_two_genes_copy_the_parents)
        cfg = GaConfig(population_size=4, generations=6, seed=5)
        calls = []
        genome, score, history = run_ga(cfg, calls, num_pulses=1)
        assert len(calls) == 4 + (cfg.generations - 1) * (4 - optim.ELITES) == 14
        assert all(x.shape == (2,) and np.all(np.abs(x) <= 2.0) for x in calls)
        assert genome.shape == (2,) and history == sorted(history) and score == history[-1]


    def test_raises_when_no_fitness_is_finite(self):
        objective = Objective(evaluate=lambda x: np.nan)
        with pytest.warns(UserWarning, match="non-finite fitness nan"):
            with pytest.raises(RuntimeError, match="no genome had a finite fitness in 4 generations"):
                ga_maximize(objective, Bounds(-2.0, 2.0), 3, self.CONFIG)

    @pytest.mark.parametrize("name", ["population_size", "generations"])
    def test_config_rejects_non_integer_counts(self, name):
        fields = dict(population_size=8, generations=4)
        fields[name] += 0.5
        with pytest.raises(ValueError, match=name):
            GaConfig(**fields)
        fields[name] = np.int64(fields[name] - 0.5)  # NumPy integers pass
        assert type(getattr(GaConfig(**fields), name)) is int

    def test_rejects_non_integer_num_pulses(self):
        with pytest.raises(ValueError, match="num_pulses"):
            ga_maximize(Objective(evaluate=sphere), Bounds(-2.0, 2.0), 2.5, self.CONFIG)

    @pytest.mark.parametrize("num_pulses", [0, -2])
    def test_rejects_num_pulses_below_one(self, num_pulses):
        with pytest.raises(ValueError, match="num_pulses"):
            ga_maximize(Objective(evaluate=sphere), Bounds(-2.0, 2.0), num_pulses, self.CONFIG)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_config_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GaConfig(population_size=8, generations=4, seed=seed)
        assert type(GaConfig(seed=np.int64(3)).seed) is int

    @pytest.mark.parametrize("bounds", [(-np.inf, np.inf), (-1.0, np.inf), (-np.inf, 1.0)])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="finite bounds"):
            ga_maximize(Objective(evaluate=sphere), Bounds(*bounds), 3, self.CONFIG)


class TestBreed:
    BOUNDS = Bounds(-1.0, 1.0)

    @staticmethod
    def population(size, n):
        """Genome j holds 100 j + i at position i, outside the bounds, so
        every gene names its genome and its position."""
        return 100.0 * np.arange(size)[:, None] + np.arange(n)

    @staticmethod
    def breed(population, fits, rng):
        order = np.argsort(-np.asarray(fits, dtype=float), kind="stable")
        return optim._breed(population, order, rng, TestBreed.BOUNDS)

    def test_stream_advance_independent_of_fitness(self):
        states = []
        for fits in (np.arange(8.0), np.zeros(8)):
            rng = np.random.default_rng(4)
            self.breed(self.population(8, 6), fits, rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    def test_elites_lead_in_rank_order(self):
        fits = [3.0, 9.0, 1.0, 9.0, 5.0, 0.0, 2.0, 4.0]
        child = self.breed(self.population(8, 6), fits, np.random.default_rng(0))
        assert child.shape == (8, 6)
        assert np.array_equal(child[:optim.ELITES], self.population(8, 6)[[1, 3]])

    def test_crossover_swaps_one_strict_interior_run(self, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROBABILITY", 1.0)
        size, n = 16, 6
        population, lengths = self.population(size, n), set()
        for seed in range(100):
            child = self.breed(population, np.arange(size), np.random.default_rng(seed))[optim.ELITES:]
            assert np.array_equal(child % 100, np.broadcast_to(np.arange(n), child.shape))
            source = child // 100
            for first, second in zip(source[0::2], source[1::2]):
                mom, dad = first[0], second[0]  # position 0 is never swapped
                swapped = np.flatnonzero(first != mom)
                assert np.all(first[swapped] == dad)
                assert np.array_equal(second, np.where(first == mom, dad, mom))
                if mom == dad:
                    continue
                if swapped.size:
                    # one contiguous run that never reaches either end
                    assert np.array_equal(swapped, np.arange(swapped[0], swapped[-1] + 1))
                    assert swapped[0] >= 1 and swapped[-1] <= n - 2
                lengths.add(swapped.size)
        assert lengths == set(range(n - 1))

    def test_two_genes_copy_the_parents(self, monkeypatch):
        # the only cut pair of two genes is (0, 1), with an empty interior
        monkeypatch.setattr(optim, "KEEP_PROBABILITY", 1.0)
        population = self.population(4, 2)
        for seed in range(10):
            child = self.breed(population, np.arange(4), np.random.default_rng(seed))
            assert all(any(np.array_equal(c, p) for p in population) for c in child)

    def test_every_gene_redrawn_without_keeping(self, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROBABILITY", 0.0)
        population = self.population(8, 6)
        child = self.breed(population, np.arange(8), np.random.default_rng(2))[optim.ELITES:]
        assert np.all((child >= -1.0) & (child <= 1.0))
        assert not np.isin(child, population).any()
        assert len(np.unique(child)) == child.size

    def test_tournament_winner_is_best_draw_lower_index_on_ties(self, monkeypatch):
        monkeypatch.setattr(optim, "KEEP_PROBABILITY", 1.0)
        size = 10
        fits = np.random.default_rng(1).integers(0, 3, size).astype(float)
        for seed in range(20):
            child = self.breed(self.population(size, 4), fits, np.random.default_rng(seed))[optim.ELITES:]
            draws = np.random.default_rng(seed).integers(
                0, size, (size - optim.ELITES, optim.TOURNAMENT_SIZE))
            winners = [min(row, key=lambda i: (-fits[i], i)) for row in draws]
            assert np.array_equal(child[:, 0] // 100, winners)  # position 0 is never swapped


class TestGaWorkers:
    CONFIG = GaConfig(population_size=8, generations=5, seed=11)

    @pytest.fixture
    def cores(self, monkeypatch):
        def set_cores(count):
            monkeypatch.setattr(optim, "_usable_cores", lambda: count)

        return set_cores

    @pytest.mark.parametrize("count", [2, 3, 8, 64])
    def test_result_independent_of_worker_count(self, cores, count):
        # the exact state fitness also runs the step memo of the exact
        # chains under the pool: warm on the second run, shared by workers
        for run in (lambda: run_ga(self.CONFIG), state_fitness_ga(self.CONFIG)):
            cores(1)
            genome, score, history = run()
            cores(count)
            baseline = threading.active_count()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave the workers' calls
            try:
                again = run()
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == baseline
            assert np.array_equal(genome, again[0])
            assert score == again[1] and history == again[2]

    @pytest.mark.parametrize("count", [1, 2, 3, 64])
    def test_each_genome_scored_once(self, cores, count, monkeypatch):
        # one task per worker and generation takes the genomes' indices from
        # one shared iterator: no genome is skipped or scored twice
        from concurrent.futures import ThreadPoolExecutor

        submit, tasks = ThreadPoolExecutor.submit, []

        def counted_submit(pool, *args):
            tasks.append(args)
            return submit(pool, *args)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted_submit)
        size, generations = self.CONFIG.population_size, self.CONFIG.generations
        runs = []
        for workers in (1, count):  # the serial run, then count workers
            cores(workers)
            calls, tasks[:] = [], []
            run_ga(self.CONFIG, calls)
            assert len(calls) == size + (generations - 1) * (size - optim.ELITES)
            assert len(tasks) == generations * min(workers, size)
            runs.append(sorted(x.tobytes() for x in calls))
        assert runs[0] == runs[1]

    def test_objective_error_propagates(self, cores):
        cores(2)
        error = np.linalg.LinAlgError("Pade solve failed")
        calls = itertools.count()  # next() is atomic, unlike len() after append

        def evaluate(x):
            if next(calls) == 4:
                raise error
            return sphere(x)

        baseline = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as raised:
            ga_maximize(Objective(evaluate=evaluate), Bounds(-2.0, 2.0), 3, self.CONFIG)
        assert raised.value is error
        assert threading.active_count() == baseline
