"""Control pulse synthesis for Heisenberg spin chains with Lindblad noise."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .lindblad import (
    Generator,
    PulseSequence,
    build_generator,
    fitness_target,
    machnes_gradient,
    split_gradient,
    split_propagator,
    state_fitness,
    superop_fidelity,
    target_superoperator,
    total_propagator_exact,
)
from .model import NoiseSpec, Scenario, SpinSystem, scenario_catalog
from .optim import Bounds, GaConfig, Objective, ga_maximize, lbfgs_b_maximize

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "Generator",
    "PulseSequence",
    "build_generator",
    "fitness_target",
    "machnes_gradient",
    "split_gradient",
    "split_propagator",
    "state_fitness",
    "superop_fidelity",
    "target_superoperator",
    "total_propagator_exact",
    "NoiseSpec",
    "Scenario",
    "SpinSystem",
    "scenario_catalog",
    "Bounds",
    "GaConfig",
    "Objective",
    "ga_maximize",
    "lbfgs_b_maximize",
    "__version__",
]
