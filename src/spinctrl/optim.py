"""Search engines: bound-constrained quasi-Newton ascent and a real-valued
genetic algorithm.

Both maximize.  The quasi-Newton routine is a limited-memory BFGS (10
curvature pairs) with gradient projection onto the box and an Armijo
backtracking line search clipped to the bounds, of at most 20 trials.  The
GA is generational and breeds each generation in one array step: every
parent by tournament selection at once, two-point crossover of each pair of
parents, per-gene reset mutation of every child.  The two best genomes of
each generation survive unchanged with their fitness (elitism), so every
genome is scored once.

The GA scores each generation on every core the process may run on, with
a pool of one worker thread per core, at most one per genome, and one task
per worker that takes genomes from a shared queue until none is left
(master-worker fitness evaluation, dispatched per worker rather than per
genome; Cantu-Paz, *Efficient and Accurate Parallel Genetic Algorithms*,
Kluwer 2000).  Its objective may therefore be called from several threads
at once.  Every objective built from this package is a pure function of
its genome, and the compiled kernels release the interpreter lock, so the
workers overlap.  Keep BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``): workers times BLAS threads would
oversubscribe the cores on the d^2 = 64 scenarios.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import _index

__all__ = [
    "Objective",
    "Bounds",
    "GaConfig",
    "lbfgs_b_maximize",
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


KEEP_PROBABILITY = 0.95  # per gene, in the mutation step of _breed
TOURNAMENT_SIZE = 3
ELITES = 2


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 64
    generations: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "generations", "seed"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _two_loop_direction(grad, pairs):
    """Inverse-Hessian product by two-loop recursion over ``(s, y)`` pairs, oldest first."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(np.dot(y, s)) for s, y in pairs]
    for (s, y), rho in zip(reversed(pairs), reversed(rhos)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y = pairs[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y), rho, a in zip(pairs, rhos, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def lbfgs_b_maximize(obj, bounds, start, max_iters=500):
    """Maximize within a box using projected limited-memory BFGS.

    A variable at a bound whose gradient points out of the box is held: it
    is zeroed in the gradient the two-loop recursion sees and in the
    direction, the free-variable step of L-BFGS-B (Byrd, Lu, Nocedal & Zhu,
    SIAM J. Sci. Comput. 16, 1190 (1995)).  With no curvature pair yet, or
    a direction that does not ascend, the step is steepest ascent on the
    free variables, scaled so that its largest component is 1% of the box
    width; in an unbounded box it is the raw gradient.  A quasi-Newton
    direction whose largest component exceeds the box width is scaled down
    to it: a curvature pair with a tiny ``y`` would otherwise give a
    direction whose clipped trials all land on one corner of the box.

    Terminates when the projected-gradient infinity norm drops to 1e-8, on
    a relative score change below 1e-12, when a line search fails, or after
    ``max_iters`` iterations; with ``max_iters=0`` it returns the clipped
    start.  Returns ``(point, score, iterations)``.  Raises ``ValueError``
    unless ``start`` is a finite real 1-D array.
    """
    if obj.evaluate_with_gradient is None:
        raise ValueError("lbfgs_b_maximize requires an objective with gradients")
    max_iters = _index(max_iters, "max_iters")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    def eval_neg(x):
        score, grad = obj.evaluate_with_gradient(x)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != x.shape:
            raise ValueError(
                f"objective returned a gradient of shape {grad.shape}, expected {x.shape}"
            )
        if not np.isfinite(score) or not np.all(np.isfinite(grad)):
            raise RuntimeError(
                f"objective returned non-finite value at x = {np.asarray(x)!r}"
            )
        return -float(score), -grad

    if np.iscomplexobj(start):
        raise ValueError(f"start must be real, got {start!r}")
    x = np.asarray(start, dtype=np.float64)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(f"start must be a finite 1-D array, got {x!r}")
    x = bounds.clip(x)
    phi, gphi = eval_neg(x)
    pairs = deque(maxlen=10)  # the oldest pair drops out first
    width = bounds.upper - bounds.lower
    iters = 0

    for iters in range(1, max_iters + 1):
        held = ((x <= bounds.lower) & (gphi > 0)) | ((x >= bounds.upper) & (gphi < 0))
        free = np.where(held, 0.0, gphi)
        d = -_two_loop_direction(free, pairs)
        d[held] = 0.0
        if not pairs or float(np.dot(d, free)) >= 0.0:
            d, top = -free, float(np.max(np.abs(free), initial=0.0))
            if top and np.isfinite(width):
                d *= 0.01 * width / top
        else:
            top = float(np.max(np.abs(d)))
            if top > width:
                d *= width / top

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

        s, y = step, gn - gphi
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            pairs.append((s, y))

        prev_phi = phi
        x, phi, gphi = xn, phin, gn

        projected = x - bounds.clip(x - gphi)
        if float(np.max(np.abs(projected))) <= 1e-8:
            break
        if abs(prev_phi - phi) <= 1e-12 * max(1.0, abs(phi)):
            break

    return x, -phi, iters


def _breed(population, order, rng, bounds):
    """The next generation of ``population``, whose genomes rank best first
    in ``order``: its ``ELITES`` best genomes, then P - ``ELITES`` children,
    bred in three array steps.  Every draw has a fixed shape, so the stream
    advance does not depend on the fitnesses."""
    size, n = population.shape
    count = size - ELITES
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    # tournament: each parent is the best of TOURNAMENT_SIZE uniform draws,
    # the one of lowest rank, so fitness ties go to the lower index
    draws = rng.integers(0, size, (count, TOURNAMENT_SIZE))
    parents = population[order[rank[draws].min(axis=1)]].reshape(count // 2, 2, n)
    # two-point crossover: the two smallest of n uniforms place two distinct
    # cuts c1 < c2 uniformly, and the pair swaps its strict interior
    cuts = np.sort(np.argpartition(rng.random((count // 2, n)), 1, axis=1)[:, :2], axis=1)
    genes = np.arange(n)
    inner = (genes > cuts[:, :1]) & (genes < cuts[:, 1:])
    children = np.where(inner[:, None], parents[:, ::-1], parents).reshape(count, n)
    # mutation: each gene is kept with probability KEEP_PROBABILITY, else
    # redrawn uniformly in the bounds
    keep = rng.random(children.shape) < KEEP_PROBABILITY
    children = np.where(keep, children, bounds.uniform(rng, children.shape))
    return np.concatenate([population[order[:ELITES]], children])


def _usable_cores():
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _score(evaluate, genomes, todo, out):
    """Write ``evaluate(genomes[i])`` into ``out[i]`` for each index ``i``
    this thread takes from ``todo``, an iterator shared by every worker;
    its ``next`` never releases the interpreter lock, so each index is
    taken once.  On an error the indices left are dropped, so the other
    workers stop after their current genome."""
    try:
        for i in todo:
            out[i] = evaluate(genomes[i])
    finally:
        for _ in todo:
            pass


def ga_maximize(obj, bounds, num_pulses, cfg):
    """Generational GA over genomes of ``2 * num_pulses`` reals.

    The ``ELITES`` best genomes of a generation survive unchanged, with
    their fitness, at the head of the next; the rest of it is bred by
    :func:`_breed` and is the only part scored, so the objective is called
    ``P + (G - 1) (P - ELITES)`` times for population P and G generations.
    The best genome of the last generation is thus the best of the run.
    With a deterministic objective the run is a pure function of
    ``cfg.seed``.  Returns ``(best genome, best score, per-generation best
    scores)``.  Raises ``RuntimeError`` when no genome of any generation
    has a finite fitness.

    A generation is scored on a thread pool of one worker per core the
    process may run on, at most one per genome, so ``obj.evaluate`` must be
    safe to call from several threads at once.  Each worker runs one task
    per generation, which takes the next genome index from one shared
    iterator and writes its fitness at that index of a preallocated array
    (:func:`_score`).  So the fitnesses stay in genome order, the result
    does not depend on the worker count, and an exception raised by the
    objective propagates unchanged.  Keep BLAS pinned to one thread, or
    the workers' BLAS threads oversubscribe the cores.  The bounds must be
    finite.
    """
    from concurrent.futures import ThreadPoolExecutor

    if not np.isfinite([bounds.lower, bounds.upper]).all():
        raise ValueError("ga_maximize needs finite bounds")
    num_pulses = _index(num_pulses, "num_pulses")
    if num_pulses < 1:
        raise ValueError("num_pulses must be >= 1")
    size = cfg.population_size
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    population = bounds.uniform(rng, (size, 2 * num_pulses))
    fits = np.empty(0)  # of the survivors at the head of the population
    history = []

    workers = min(_usable_cores(), size)
    with ThreadPoolExecutor(workers) as pool:
        for generation in range(cfg.generations):
            kept = len(fits)
            new, todo = np.empty(size - kept), iter(range(size - kept))
            tasks = [pool.submit(_score, obj.evaluate, population[kept:], todo, new)
                     for _ in range(workers)]
            for task in tasks:
                task.result()
            for i in np.flatnonzero(~np.isfinite(new)):
                warnings.warn(
                    f"discarding genome {kept + i} with non-finite fitness {float(new[i])}",
                    stacklevel=2,
                )
                new[i] = -np.inf
            fits = np.concatenate([fits, new])
            order = np.argsort(-fits, kind="stable")  # ties toward the lower index
            history.append(float(fits[order[0]]))

            if generation == cfg.generations - 1:
                break

            population, fits = _breed(population, order, rng, bounds), fits[order[:ELITES]]

    if history[-1] == -np.inf:
        raise RuntimeError(
            f"no genome had a finite fitness in {len(history)} generations"
        )
    return population[order[0]].copy(), history[-1], history
