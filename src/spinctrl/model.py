"""Spin systems, noise models and the benchmark scenario catalog.

Qubits occupy tensor slots left to right: slot 0 is the leftmost Kronecker
factor.  Spin operators are full Pauli matrices and the chain coupling is
J = 1, so amplitudes are in units of J and times in units of 1/J.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron

__all__ = [
    "SpinSystem",
    "NoiseSpec",
    "Scenario",
    "pauli",
    "embed",
    "build_drift",
    "build_controls",
    "build_collapse_ops",
    "scenario_catalog",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "NOT_GATE",
    "SWAP_GATE",
]

NOT_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SWAP_GATE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)

NOISE_KINDS = ("amplitude_damping", "phase_damping")


def pauli(axis):
    """Pauli matrix for ``axis`` in {'x','y','z'}, or the lowering operator
    ``sigma_minus = |0><1|`` for ``axis='minus'``."""
    if axis == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if axis == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if axis == "z":
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if axis == "minus":
        return np.array([[0, 1], [0, 0]], dtype=np.complex128)
    raise ValueError(f"unknown Pauli axis {axis!r}")


def embed(op, site, n_qubits):
    """Single-qubit operator acting on tensor slot ``site`` of ``n_qubits``."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got {op.shape}")
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    out = np.eye(1, dtype=np.complex128)
    for k in range(n_qubits):
        out = kron(out, op if k == site else np.eye(2, dtype=np.complex128))
    return out


@dataclass(frozen=True)
class SpinSystem:
    """A register of qubits with isotropic Heisenberg couplings."""

    num_qubits: int
    couplings: tuple = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        seen = set()
        normalized = []
        for c in self.couplings:
            i, j, strength = int(c[0]), int(c[1]), float(c[2])
            if not (0 <= i < j < self.num_qubits):
                raise ValueError(f"invalid coupling pair ({i}, {j})")
            if not math.isfinite(strength):
                raise ValueError(f"couplings: strength of ({i}, {j}) must be finite")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling pair ({i}, {j})")
            seen.add((i, j))
            normalized.append((i, j, strength))
        object.__setattr__(self, "couplings", tuple(normalized))

    @property
    def dim(self):
        return 2**self.num_qubits

    @classmethod
    def chain(cls, n_qubits, strength=1.0):
        """Open chain with nearest-neighbour couplings (i, i+1)."""
        return cls(n_qubits, tuple((i, i + 1, strength) for i in range(n_qubits - 1)))


@dataclass(frozen=True)
class NoiseSpec:
    """One Lindblad channel: kind, rate gamma (units of J) and target sites."""

    kind: str
    gamma: float
    sites: tuple = ()

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        object.__setattr__(self, "sites", tuple(sorted(int(s) for s in set(self.sites))))

    @classmethod
    def on_all_sites(cls, kind, gamma, n_qubits):
        return cls(kind, gamma, tuple(range(n_qubits)))

    def collapse_operator(self):
        """The single-qubit Lindblad operator for this channel."""
        return pauli("minus") if self.kind == "amplitude_damping" else pauli("z")


def build_drift(system):
    """Heisenberg drift Hamiltonian: sum of J (XX + YY + ZZ) over couplings."""
    d = system.dim
    h = np.zeros((d, d), dtype=np.complex128)
    for i, j, strength in system.couplings:
        for axis in "xyz":
            h += strength * (
                embed(pauli(axis), i, system.num_qubits)
                @ embed(pauli(axis), j, system.num_qubits)
            )
    return h


def build_controls(system, control_site):
    """Zeeman-like control pair (S_x, S_y) embedded at ``control_site``.

    The control Hamiltonian at time t is ``hx(t) * first + hy(t) * second``.
    """
    if not 0 <= control_site < system.num_qubits:
        raise ValueError(f"control site {control_site} out of range")
    return (
        embed(pauli("x"), control_site, system.num_qubits),
        embed(pauli("y"), control_site, system.num_qubits),
    )


def build_collapse_ops(system, noise):
    """Embedded collapse operators, one ``(L, gamma)`` pair per noisy site."""
    bad = [s for s in noise.sites if s >= system.num_qubits]
    if bad:
        raise ValueError(f"noise sites {bad} out of range for {system.num_qubits} qubits")
    op = noise.collapse_operator()
    return [
        (embed(op, site, system.num_qubits), noise.gamma) for site in noise.sites
    ]


@dataclass(frozen=True, eq=False)
class Scenario:
    """One benchmark configuration: system, control site, target and split
    into target and ancilla subsystems.

    The target sites are every site outside ``ancilla_sites``, ascending;
    ``target_unitary`` acts on them in that order.

    ``target_unitary`` is kept as a read-only copy, so values derived from a
    scenario, such as :func:`spinctrl.lindblad.fitness_target`, can be
    cached on it.
    """

    id: str
    system: SpinSystem
    control_site: int
    target_unitary: np.ndarray
    ancilla_sites: tuple
    num_pulses: int
    total_time: float
    h_max: float

    def __post_init__(self):
        n = self.system.num_qubits
        ancilla = tuple(sorted(int(s) for s in set(self.ancilla_sites)))
        object.__setattr__(self, "ancilla_sites", ancilla)
        bad = [s for s in ancilla if not 0 <= s < n]
        if bad:
            raise ValueError(f"ancilla sites {bad} out of range for {n} qubits")
        if not 0 <= self.control_site < n:
            raise ValueError("control site out of range")

        u = np.array(self.target_unitary, dtype=np.complex128)
        u.flags.writeable = False
        object.__setattr__(self, "target_unitary", u)
        d_target = 2 ** len(self.target_sites)
        if u.shape != (d_target, d_target):
            raise ValueError(
                f"target unitary is {u.shape}, expected {(d_target, d_target)}"
            )
        if np.max(np.abs(u @ np.conj(u).T - np.eye(d_target))) > 1e-12:
            raise ValueError("target is not unitary")
        if self.num_pulses < 1:
            raise ValueError("num_pulses must be >= 1")
        for name in ("total_time", "h_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def target_sites(self):
        return tuple(s for s in range(self.num_qubits) if s not in self.ancilla_sites)

    @property
    def num_qubits(self):
        return self.system.num_qubits

    @property
    def dim(self):
        return self.system.dim

    def full_target_unitary(self):
        """Target extended to the whole register, identity on the ancilla.

        Target-subsystem basis order follows the ascending ``target_sites``.
        """
        n = self.num_qubits
        if not self.ancilla_sites:
            return self.target_unitary
        # permute (target_sites..., ancilla_sites...) order back to slot order
        u = kron(self.target_unitary, np.eye(2 ** len(self.ancilla_sites)))
        order = list(self.target_sites) + list(self.ancilla_sites)
        perm = np.argsort(order)
        t = u.reshape((2,) * (2 * n))
        t = np.transpose(t, list(perm) + [n + p for p in perm])
        return t.reshape(2**n, 2**n)


def scenario_catalog():
    """The six benchmark scenarios (a) to (f), all on open chains.

    Two-qubit systems use 32 pulses, three-qubit systems 128; every scenario
    runs for total time 2.1 with amplitude bound 100.
    """
    sys2, sys3 = SpinSystem.chain(2), SpinSystem.chain(3)
    common = dict(total_time=2.1, h_max=100.0)

    return [
        # NOT on qubit 1, ancilla qubit 0, control on the target qubit
        Scenario("a", sys2, 1, NOT_GATE.copy(), (0,), num_pulses=32, **common),
        # NOT tensor identity on the full two-qubit register
        Scenario("b", sys2, 0, kron(NOT_GATE, np.eye(2)), (), num_pulses=32, **common),
        # same split as (a) but controlling the ancilla
        Scenario("c", sys2, 0, NOT_GATE.copy(), (0,), num_pulses=32, **common),
        # NOT tensor identity tensor identity, no ancilla, control mid-chain
        Scenario(
            "d", sys3, 1, kron(NOT_GATE, np.eye(4)), (), num_pulses=128, **common
        ),
        # SWAP on qubits 1 and 2, ancilla qubit 0, control on the ancilla
        Scenario("e", sys3, 0, SWAP_GATE.copy(), (0,), num_pulses=128, **common),
        # identity tensor SWAP, no ancilla, control on qubit 0
        Scenario(
            "f", sys3, 0, kron(np.eye(2), SWAP_GATE), (), num_pulses=128, **common
        ),
    ]


def _matrix_to_lists(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _matrix_from_lists(rows):
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows],
        dtype=np.complex128,
    )


def scenario_to_dict(scenario, noise=None):
    doc = {
        "id": scenario.id,
        "num_qubits": scenario.num_qubits,
        "couplings": [list(c) for c in scenario.system.couplings],
        "control_site": scenario.control_site,
        "target": _matrix_to_lists(scenario.target_unitary),
        "ancilla_sites": list(scenario.ancilla_sites),
        "num_pulses": scenario.num_pulses,
        "total_time": scenario.total_time,
        "h_max": scenario.h_max,
    }
    if noise is not None:
        doc["noise"] = {
            "kind": noise.kind,
            "gamma": noise.gamma,
            "sites": list(noise.sites),
        }
    return doc


def scenario_from_dict(doc):
    """Rebuild ``(Scenario, NoiseSpec or None)`` from its dict form."""
    system = SpinSystem(
        int(doc["num_qubits"]), tuple(tuple(c) for c in doc.get("couplings", ()))
    )
    scenario = Scenario(
        id=str(doc["id"]),
        system=system,
        control_site=int(doc["control_site"]),
        target_unitary=_matrix_from_lists(doc["target"]),
        ancilla_sites=tuple(doc.get("ancilla_sites", ())),
        num_pulses=int(doc["num_pulses"]),
        total_time=float(doc["total_time"]),
        h_max=float(doc["h_max"]),
    )
    noise = None
    if "noise" in doc:
        nd = doc["noise"]
        noise = NoiseSpec(str(nd["kind"]), float(nd["gamma"]), tuple(nd.get("sites", ())))
    return scenario, noise


def save_scenario(scenario, path, noise=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario, noise), fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
