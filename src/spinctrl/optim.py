"""Search engines: bound-constrained quasi-Newton ascent and a real-valued
genetic algorithm.

Both maximize.  The quasi-Newton routine is a limited-memory BFGS (10
curvature pairs) with gradient projection onto the box and an Armijo
backtracking line search clipped to the bounds, of at most 20 trials.  The
GA follows the classic generational loop: two parents by tournament
selection, two-point crossover, per-gene reset mutation, repeat until the
next population is full, with optional elitism.

The GA scores each generation on every core the process may run on, one
worker thread per core and at most one per genome (master-worker fitness
evaluation; Cantu-Paz, *Efficient and Accurate Parallel Genetic
Algorithms*, Kluwer 2000).  Its objective may therefore be called from
several threads at once.  Every objective built from this package is a
pure function of its genome, and the compiled kernels release the
interpreter lock, so the workers overlap.  Keep BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``): workers times BLAS threads would oversubscribe
the cores on the d^2 = 64 scenarios.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Objective",
    "Bounds",
    "GaConfig",
    "lbfgs_b_maximize",
    "mutate",
    "crossover_two_point",
    "select",
    "ga_maximize",
]


@dataclass(frozen=True)
class Objective:
    """A score to maximize, optionally with an analytic gradient."""

    evaluate: Callable[[np.ndarray], float]
    evaluate_with_gradient: Optional[Callable] = None


@dataclass(frozen=True)
class Bounds:
    """Symmetric box applied elementwise to every parameter."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("lower bound must be strictly below upper bound")

    def clip(self, x):
        return np.clip(x, self.lower, self.upper)

    def uniform(self, rng, size):
        return rng.uniform(self.lower, self.upper, size)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 64
    generations: int = 300
    keep_probability: float = 0.95
    tournament_k: int = 3
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 4")
        if not 0.0 <= self.keep_probability <= 1.0:
            raise ValueError("keep_probability must be in [0, 1]")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be < population_size")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")


def _two_loop_direction(grad, s_hist, y_hist):
    """Inverse-Hessian product of standard two-loop recursion."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(np.dot(y, s)) for s, y in zip(s_hist, y_hist)]
    for (s, y), rho in zip(reversed(list(zip(s_hist, y_hist))), reversed(rhos)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y), rho, a in zip(zip(s_hist, y_hist), rhos, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def lbfgs_b_maximize(obj, bounds, start, max_iters=500):
    """Maximize within a box using projected limited-memory BFGS.

    Terminates when the projected-gradient infinity norm drops to 1e-8, on
    a relative score change below 1e-12, when a line search fails, or after
    ``max_iters`` iterations.  Returns ``(point, score, iterations)``.
    """
    if obj.evaluate_with_gradient is None:
        raise ValueError("lbfgs_b_maximize requires an objective with gradients")

    def eval_neg(x):
        score, grad = obj.evaluate_with_gradient(x)
        if not np.isfinite(score) or not np.all(np.isfinite(grad)):
            raise RuntimeError(
                f"objective returned non-finite value at x = {np.asarray(x)!r}"
            )
        return -float(score), -np.asarray(grad, dtype=np.float64)

    x = bounds.clip(np.asarray(start, dtype=np.float64).copy())
    phi, gphi = eval_neg(x)
    s_hist, y_hist = [], []
    iters = 0

    for _ in range(max_iters):
        iters += 1
        d = -_two_loop_direction(gphi, s_hist, y_hist)
        if float(np.dot(d, gphi)) >= 0.0:
            d = -gphi  # recovered steepest ascent when curvature is unusable

        # Armijo backtracking along the projected path
        alpha, accepted = 1.0, False
        xn, phin, gn = x, phi, gphi
        for _ in range(20):
            xn = bounds.clip(x + alpha * d)
            step = xn - x
            if not np.any(step):
                break
            phin, gn = eval_neg(xn)
            if phin <= phi + 1e-4 * float(np.dot(gphi, step)):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break

        s = xn - x
        y = gn - gphi
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > 10:
                s_hist.pop(0)
                y_hist.pop(0)

        prev_phi = phi
        x, phi, gphi = xn, phin, gn

        projected = x - bounds.clip(x - gphi)
        if float(np.max(np.abs(projected))) <= 1e-8:
            break
        if abs(prev_phi - phi) <= 1e-12 * max(1.0, abs(phi)):
            break

    return x, -phi, iters


def mutate(genome, p, rng, bounds):
    """Keep each gene with probability ``p``, else redraw uniformly in the
    bounds.  Consumes exactly two rng draws per gene (one keep decision,
    one replacement value), so the stream advance is input-independent.
    """
    genome = np.asarray(genome, dtype=np.float64)
    keep = rng.random(genome.size) < p
    replacement = bounds.uniform(rng, genome.size)
    return np.where(keep, genome, replacement)


def crossover_two_point(x, y, rng):
    """Two-point crossover: the strict interior ``c1 < i < c2`` is swapped.

    ``c1 < c2`` are drawn uniformly over distinct positions; an adjacent
    pair leaves both children equal to their parents.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("parents must have equal length")
    n = x.size
    if n < 2:
        return x.copy(), y.copy()
    c1, c2 = np.sort(rng.choice(n, size=2, replace=False))
    idx = np.arange(n)
    outer = (idx <= c1) | (idx >= c2)
    return np.where(outer, x, y), np.where(outer, y, x)


def select(population, cfg, rng):
    """Pick one parent genome from ``(genome, fitness)`` pairs: the best of
    ``tournament_k`` uniform draws, fitness ties broken toward the lower
    population index.
    """
    size = len(population)
    if size == 0:
        raise ValueError("cannot select from an empty population")
    draws = rng.integers(0, size, size=cfg.tournament_k)
    best = min(draws, key=lambda i: (-population[i][1], i))
    return population[best][0]


def _usable_cores():
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _fitnesses(evaluate, population, pool, edges):
    """Objective values of the genomes, stored by genome index: the chunks
    ``edges[w]:edges[w + 1]`` run on ``pool``."""
    fits = np.empty(len(population))

    def score(start, stop):
        for i in range(start, stop):
            fits[i] = float(evaluate(population[i]))

    futures = [pool.submit(score, *chunk) for chunk in zip(edges[:-1], edges[1:])]
    for future in futures:
        future.result()
    return fits


def ga_maximize(obj, bounds, num_pulses, cfg):
    """Generational GA over genomes of ``2 * num_pulses`` reals.

    Every generation is evaluated in full; elites survive unchanged and the
    rest of the next population comes from select / crossover / mutate
    pairs.  With a deterministic objective the run is a pure function of
    ``cfg.seed``.  Returns ``(best genome, best score, per-generation best
    scores)``.  Raises ``RuntimeError`` when no genome of any generation has
    a finite fitness.

    Each generation is scored in one contiguous chunk per worker thread,
    with one worker per core the process may run on and at most one per
    genome, so a one-core machine gets a pool of one.  So ``obj.evaluate``
    must be safe to call from several threads at once.
    Each fitness is stored by genome index, so the result does not depend
    on the worker count, and an exception raised by the objective
    propagates unchanged.  Keep BLAS pinned to one thread, or the workers'
    BLAS threads oversubscribe the cores.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_genes = 2 * num_pulses
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    population = bounds.uniform(rng, (cfg.population_size, n_genes))
    workers = min(_usable_cores(), cfg.population_size)
    edges = [cfg.population_size * w // workers for w in range(workers + 1)]

    best_genome = None
    best_score = -np.inf
    history = []

    with ThreadPoolExecutor(workers) as pool:
        for generation in range(cfg.generations):
            fits = _fitnesses(obj.evaluate, population, pool, edges)
            for i in np.flatnonzero(~np.isfinite(fits)):
                warnings.warn(
                    f"discarding genome {i} with non-finite fitness {float(fits[i])}",
                    stacklevel=2,
                )
                fits[i] = -np.inf

            gen_best = int(min(range(cfg.population_size), key=lambda i: (-fits[i], i)))
            history.append(float(fits[gen_best]))
            if fits[gen_best] > best_score:
                best_score = float(fits[gen_best])
                best_genome = population[gen_best].copy()

            if generation == cfg.generations - 1:
                break

            order = sorted(range(cfg.population_size), key=lambda i: (-fits[i], i))
            scored = list(zip(population, fits))
            offspring = [population[i].copy() for i in order[: cfg.elitism]]
            while len(offspring) < cfg.population_size:
                mom = select(scored, cfg, rng)
                dad = select(scored, cfg, rng)
                sister, brother = crossover_two_point(mom, dad, rng)
                offspring.append(mutate(sister, cfg.keep_probability, rng, bounds))
                if len(offspring) < cfg.population_size:
                    offspring.append(mutate(brother, cfg.keep_probability, rng, bounds))
            population = np.array(offspring)

    if best_genome is None:
        raise RuntimeError(
            f"no genome had a finite fitness in {len(history)} generations"
        )
    return best_genome, best_score, history
