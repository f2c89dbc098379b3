"""One benchmark workload, measured in a process of its own.

``run.py`` starts this script with BLAS pinned to one thread and the built
package on ``PYTHONPATH``; see README.md.  The process imports spinctrl,
builds the scenario, generator, target and seeded inputs (its set-up), then
repeats whole rounds of the same operations for ``--seconds``.  With
``--trace 1`` it builds the set-up again under the spans of ``spans.py``
and then alternates untraced and traced rounds for twice ``--seconds``.
The outputs of the first round are checked against ``reference.py`` after
the timed rounds; every later round must reproduce them bit for bit.  The
last line of standard output is a JSON record.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
import warnings

import numpy as np


def _scenario(model, scenario_id):
    return next(s for s in model.scenario_catalog() if s.id == scenario_id)


class SplitLbfgs:
    """Approximate evolution method: projected L-BFGS on the split fidelity.

    Scenario (d): 3-qubit chain, target NOT x I x I, control on qubit 1,
    128 intervals, amplitude damping at gamma = 0.1 on every site.  One
    operation is one L-BFGS run of ITERATIONS iterations from a start drawn
    uniformly in +-h_max, whose final pulses are then scored under exact
    evolution.
    """

    SCENARIO, NOISE, GAMMA = "d", "amplitude_damping", 0.1
    ITERATIONS = 10
    OPS_PER_ROUND = 1

    def setup(self, spinctrl, rng):
        self.lindblad, self.optim = spinctrl.lindblad, spinctrl.optim
        model = spinctrl.model
        self.scenario = s = _scenario(model, self.SCENARIO)
        noise = model.NoiseSpec.on_all_sites(self.NOISE, self.GAMMA, s.num_qubits)
        self.gen = self.lindblad.build_generator(s.system, s.control_site, noise)
        self.target = self.lindblad.target_superoperator(s)
        self.dt = s.total_time / s.num_pulses
        self.bounds = self.optim.Bounds(-s.h_max, s.h_max)
        self.start = rng.uniform(-s.h_max, s.h_max, 2 * s.num_pulses)

    def evaluate(self, x):
        pulses = self.lindblad.PulseSequence.from_genome(x, self.dt)
        return self.lindblad.split_gradient(self.gen, pulses, self.target)

    def run_round(self):
        evaluations = 0

        def with_gradient(x):
            nonlocal evaluations
            evaluations += 1
            return self.evaluate(x)

        objective = self.optim.Objective(
            evaluate=lambda x: with_gradient(x)[0], evaluate_with_gradient=with_gradient
        )
        x, score, iterations = self.optim.lbfgs_b_maximize(
            objective, self.bounds, self.start, max_iters=self.ITERATIONS
        )
        channel = self.lindblad.total_propagator_exact(
            self.gen, self.lindblad.PulseSequence.from_genome(x, self.dt)
        )
        exact = self.lindblad.superop_fidelity(channel, self.target, self.scenario.num_qubits)
        return {"x": x, "score": score, "iterations": iterations,
                "evaluations": evaluations, "exact": exact, "channel": channel}

    @staticmethod
    def fingerprint(out):
        return (out["x"].tobytes(), out["score"], out["iterations"],
                out["evaluations"], out["exact"])

    def probe(self, out):
        return self.start

    def summary(self, out):
        return {"work": out["evaluations"],
                "optim.iterations": out["iterations"],
                "optim.evaluations": out["evaluations"],
                "optim.evals_per_iteration": out["evaluations"] / out["iterations"],
                "fidelity_split": out["score"], "fidelity_exact": out["exact"]}

    def check(self, reference, out, rng):
        """Problems found, and per operation whether the known fault showed."""
        s, dt, m = self.scenario, self.dt, self.scenario.num_pulses
        system = reference.heisenberg_chain(3, control_site=1, noise=self.NOISE, gamma=self.GAMMA)
        target = np.kron(reference.NOT, np.eye(4))

        def split_fidelity(x):
            channel = reference.split_channel(system, x[:m], x[m:], dt)
            return reference.channel_fidelity(channel, target)

        problems = []
        f_start, g_start = self.evaluate(self.start)
        for label, got, x in (("start", f_start, self.start), ("final", out["score"], out["x"])):
            want = split_fidelity(x)
            if abs(got - want) > 1e-10:
                problems.append(f"split fidelity at {label} {got!r} != reference {want!r}")
        directions = reference.unit_directions(rng, 2 * m, 3)
        err = reference.gradient_error(g_start, split_fidelity, self.start, directions, 1e-4)
        if not err <= 1e-5:
            problems.append(f"split gradient off central differences by {err:.3g}")
        if np.max(np.abs(out["x"])) > s.h_max:
            problems.append("final pulses leave the +-h_max box")
        if not out["score"] >= f_start:
            problems.append(f"final score {out['score']!r} below start {f_start!r}")
        exact_channel = reference.exact_channel(system, out["x"][:m], out["x"][m:], dt)
        want = reference.channel_fidelity(exact_channel, target)
        if abs(out["exact"] - want) > 1e-10:
            problems.append(f"exact fidelity {out['exact']!r} != reference {want!r}")
        defect = reference.trace_preservation_defect(out["channel"])
        if defect > 1e-10:
            problems.append(f"exact channel not trace preserving: {defect:.3g}")
        return problems, [False]


class ExactGa:
    """Genetic method on the ancilla-traced state fitness, exact evolution.

    Scenario (a): 2-qubit chain, NOT on qubit 1, qubit 0 the ancilla,
    control on qubit 1, 32 intervals, phase damping at gamma = 0.1 on every
    site.  One operation is one GA run at the default configuration
    (population 64) for GENERATIONS generations; the GA seed is drawn from
    the workload seed.
    """

    SCENARIO, NOISE, GAMMA = "a", "phase_damping", 0.1
    GENERATIONS = 20
    OPS_PER_ROUND = 1

    def setup(self, spinctrl, rng):
        self.lindblad, self.optim = spinctrl.lindblad, spinctrl.optim
        model = spinctrl.model
        self.scenario = s = _scenario(model, self.SCENARIO)
        noise = model.NoiseSpec.on_all_sites(self.NOISE, self.GAMMA, s.num_qubits)
        self.gen = self.lindblad.build_generator(s.system, s.control_site, noise)
        self.dt = s.total_time / s.num_pulses
        self.bounds = self.optim.Bounds(-s.h_max, s.h_max)
        self.config = self.optim.GaConfig(
            generations=self.GENERATIONS, seed=int(rng.integers(2**31))
        )

    def evaluate(self, x):
        pulses = self.lindblad.PulseSequence.from_genome(x, self.dt)
        channel = self.lindblad.total_propagator_exact(self.gen, pulses)
        return self.lindblad.state_fitness(channel, self.scenario)

    def run_round(self):
        evaluations, seen = 0, set()

        def fitness(x):
            nonlocal evaluations
            evaluations += 1
            seen.add(x.tobytes())
            return self.evaluate(x)

        genome, score, history = self.optim.ga_maximize(
            self.optim.Objective(evaluate=fitness), self.bounds,
            self.scenario.num_pulses, self.config,
        )
        return {"genome": genome, "score": score, "history": history,
                "evaluations": evaluations, "repeats": evaluations - len(seen)}

    @staticmethod
    def fingerprint(out):
        return (out["genome"].tobytes(), out["score"], tuple(out["history"]),
                out["evaluations"], out["repeats"])

    def probe(self, out):
        return out["genome"]

    def summary(self, out):
        generations = len(out["history"])
        return {"work": generations * self.config.population_size,
                "optim.evaluations": out["evaluations"],
                "optim.ga.generations": generations,
                "optim.ga.repeat_eval_ratio": out["repeats"] / out["evaluations"],
                "state_fitness_best": out["score"]}

    def check(self, reference, out, rng):
        s, m = self.scenario, self.scenario.num_pulses
        system = reference.heisenberg_chain(2, control_site=1, noise=self.NOISE, gamma=self.GAMMA)
        genome = out["genome"]
        channel = reference.exact_channel(system, genome[:m], genome[m:], self.dt)
        want = reference.state_fitness(channel, 2, reference.NOT, ancilla_sites=(0,))
        problems = []
        if abs(out["score"] - want) > 1e-10:
            problems.append(f"best score {out['score']!r} != reference {want!r}")
        if np.any(np.diff(out["history"]) < 0):
            problems.append("per-generation best decreased")
        if np.max(np.abs(genome)) > s.h_max:
            problems.append("best genome leaves the +-h_max box")
        return problems, [False]


class ExactMachnes:
    """Approximate gradient method: exact fidelity, first-order gradient.

    Scenario (d) without noise.  A round is one machnes_gradient call on
    each of POOL pulse sequences drawn uniformly in +-AMPLITUDE; one call is
    one operation.  Its gradient is checked against central differences of
    the reference |Tr(T^dag U)|^2 / d^2 along random directions.  Today the
    gradient has the wrong sign, so the check fails on every call and the
    call counts as failed (see README.md).
    """

    SCENARIO = "d"
    POOL, AMPLITUDE = 8, 5.0
    OPS_PER_ROUND = POOL
    # today's relative error is 1.9-2.1 and a sign-corrected gradient's
    # 0.01-0.21 on these inputs
    GRADIENT_TOLERANCE = 1.0

    def setup(self, spinctrl, rng):
        self.lindblad = spinctrl.lindblad
        self.scenario = s = _scenario(spinctrl.model, self.SCENARIO)
        self.gen = self.lindblad.build_generator(s.system, s.control_site, None)
        self.target = self.lindblad.target_superoperator(s)
        self.dt = s.total_time / s.num_pulses
        self.pool = [rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, 2 * s.num_pulses)
                     for _ in range(self.POOL)]

    def evaluate(self, x):
        pulses = self.lindblad.PulseSequence.from_genome(x, self.dt)
        return self.lindblad.machnes_gradient(self.gen, pulses, self.target)

    def run_round(self):
        return {"calls": [self.evaluate(x) for x in self.pool]}

    @staticmethod
    def fingerprint(out):
        return tuple((f, g.tobytes()) for f, g in out["calls"])

    def probe(self, out):
        return self.pool[0]

    def summary(self, out):
        return {"work": len(out["calls"])}

    def check(self, reference, out, rng):
        m = self.scenario.num_pulses
        system = reference.heisenberg_chain(3, control_site=1)
        target = np.kron(reference.NOT, np.eye(4))

        def fidelity(x):
            u = reference.unitary_propagator(system, x[:m], x[m:], self.dt)
            return reference.unitary_fidelity(u, target)

        problems, faulty = [], []
        for x, (f, g) in zip(self.pool, out["calls"]):
            want = fidelity(x)
            if abs(f - want) > 1e-12:
                problems.append(f"fidelity {f!r} != reference {want!r}")
            directions = reference.unit_directions(rng, 2 * m, 8)
            err = reference.gradient_error(g, fidelity, x, directions, 1e-4)
            faulty.append(not err <= self.GRADIENT_TOLERANCE)
        return problems, faulty


WORKLOADS = {"split-lbfgs": SplitLbfgs, "exact-ga": ExactGa, "exact-machnes": ExactMachnes}


def measure(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    With a tracer, untraced and traced rounds alternate, so that the
    machine's speed drifts alike under both.  Returns the wall times of the
    untraced and of the traced rounds, the first round's output, and how
    many later rounds did not reproduce it.
    """
    modes = (False,) if tracer is None else (False, True)
    walls = {traced: [] for traced in modes}
    first, mismatches = None, 0
    began = time.perf_counter()
    while not walls[modes[-1]] or time.perf_counter() - began < seconds:
        for traced in modes:
            if traced:
                tracer.round = len(walls[True])
                tracer.install()
            t = time.perf_counter()
            out = workload.run_round()
            walls[traced].append(time.perf_counter() - t)
            if traced:
                tracer.uninstall()
            if first is None:
                first = out
            elif workload.fingerprint(out) != workload.fingerprint(first):
                mismatches += 1
    return walls[False], walls.get(True, []), first, mismatches


# per-operation call counts and self times of these spans
COUNTED_SPANS = (
    "kernels.piecewise_total", "kernels.piecewise_steps", "kernels.expm",
    "lindblad.split_gradient", "lindblad.machnes_gradient", "lindblad.state_fitness",
    "lindblad.dt_validity_check", "linalg.spectral_norm_upper",
)
TIMED_SPANS = ("lindblad.total_propagator_exact", "optim.lbfgs_b_maximize", "optim.ga_maximize")
# results of one operation, from the workloads' summaries; 0 where a
# workload has no such result
RESULTS = (
    "optim.iterations", "optim.evaluations", "optim.evals_per_iteration",
    "optim.ga.generations", "optim.ga.repeat_eval_ratio",
    "fidelity_split", "fidelity_exact", "state_fitness_best",
)


def traced_run(workload, spinctrl, args):
    """Per-layer metrics from a traced set-up and ``2 * --seconds`` of
    alternating untraced and traced rounds."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    workload.setup(spinctrl, np.random.default_rng(args.seed))
    tracer.uninstall()
    setup = tracer.summary()
    since = len(tracer.spans)
    untraced, traced, out, mismatches = measure(workload, 2 * args.seconds, tracer)
    phase = tracer.summary(since)
    if args.spans_out:
        tracer.write(args.spans_out)

    tracemalloc.start()
    workload.evaluate(workload.probe(out))
    stack_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    per_round = workload.OPS_PER_ROUND
    ops = len(traced) * per_round
    metrics = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = phase.get(name, {}).get("calls", 0) / ops
    for name in COUNTED_SPANS + TIMED_SPANS:
        metrics[f"{name}.self_s"] = phase.get(name, {}).get("self_s", 0.0) / ops
    metrics["lindblad.build_generator.s"] = setup["lindblad.build_generator"]["total_s"]
    metrics["lindblad.gradient_stack_mb"] = stack_bytes / 2**20
    metrics["model.self_s"] = sum(v["self_s"] for k, v in setup.items() if k.startswith("model."))

    summary = workload.summary(out)
    for name in RESULTS:
        metrics[name] = summary.get(name, 0)
    metrics["wall_s"] = statistics.median(untraced) / per_round
    metrics["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(untraced, traced)) / per_round
    return metrics, untraced + traced, out, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    import spinctrl
    import spinctrl.lindblad
    import spinctrl.model
    import spinctrl.optim

    workload = WORKLOADS[args.workload]()
    workload.setup(spinctrl, np.random.default_rng(args.seed))
    setup_s = time.monotonic() - args.started
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "backend": spinctrl.KERNEL_BACKEND, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    # machnes_gradient warns on every call outside its validity regime
    warnings.filterwarnings("ignore", message=r"dt = .* exceeds")
    if args.trace:
        metrics, walls, out, mismatches = traced_run(workload, spinctrl, args)
    else:
        walls, _, out, mismatches = measure(workload, args.seconds)
        # Every round does the same work.  The CPU here runs at a steady
        # speed and, while other load comes and goes, in bursts of up to 2x
        # faster, so the 95th-percentile round reads the steady state.
        metrics = {"evals_per_s": workload.summary(out)["work"] / np.quantile(walls, 0.95)}
    # the checks import scipy, so the peak is read before them
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import reference

    problems, faulty = workload.check(reference, out, np.random.default_rng([args.seed, 1]))
    if mismatches:
        problems.append(f"{mismatches} rounds did not reproduce the first round")
    record.update(
        round_walls_s=walls,
        attempted=len(walls) * workload.OPS_PER_ROUND,
        failed=len(walls) * sum(faulty),
        problems=problems,
        metrics=metrics,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
