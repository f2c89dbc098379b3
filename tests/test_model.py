import json

import numpy as np
import pytest

from spinctrl import linalg, model
from spinctrl.model import NoiseSpec, Scenario, SpinSystem


class TestPauli:
    def test_z(self):
        assert np.array_equal(model.pauli("z"), np.diag([1.0, -1.0]))

    def test_x_involution(self):
        assert np.array_equal(model.pauli("x") @ model.pauli("x"), np.eye(2))

    def test_minus_is_e01(self):
        expected = np.zeros((2, 2))
        expected[0, 1] = 1
        assert np.array_equal(model.pauli("minus"), expected)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            model.pauli("w")


class TestEmbed:
    def test_slot_zero(self):
        got = model.embed(model.pauli("x"), (0,), 2)
        assert np.array_equal(got, linalg.kron(model.pauli("x"), np.eye(2)))

    def test_slot_one(self):
        got = model.embed(model.pauli("z"), (1,), 2)
        assert np.array_equal(got, linalg.kron(np.eye(2), model.pauli("z")))

    def test_distinct_sites_commute(self):
        a = model.embed(model.pauli("y"), (1,), 3)
        b = model.embed(model.pauli("x"), (0,), 3)
        assert np.max(np.abs(a @ b - b @ a)) == 0.0

    def test_norm_preserved(self, rng):
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        target = np.linalg.svd(op, compute_uv=False)[0]
        embedded = model.embed(op, (2,), 3)
        assert abs(np.linalg.svd(embedded, compute_uv=False)[0] - target) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="sites"):
            model.embed(np.eye(2), (2,), 2)

    def test_rejects_non_integer_site(self):
        # a site of 0.5 would match no slot and embed the identity
        with pytest.raises(ValueError, match="site"):
            model.embed(model.pauli("x"), (0.5,), 2)

    def test_rejects_negative_qubit_count(self):
        with pytest.raises(ValueError, match="n_qubits must be >= 0, got -1"):
            model.embed(np.eye(1), (), -1)

    def test_rejects_non_integer_qubit_count(self):
        with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.0"):
            model.embed(model.pauli("x"), (0,), 2.0)

    def test_two_slots_unsorted_and_apart(self, rng):
        # kron(a, b) on slots (2, 0) of 3: a acts on slot 2, b on slot 0
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        op = linalg.kron(a, b)
        # oracle, with xs the bit of slot s (slot 0 leftmost):
        # <x0 x1 x2| E |y0 y1 y2> = op[(x2, x0), (y2, y0)] delta(x1, y1)
        expected = np.zeros((8, 8), dtype=complex)
        for x in range(8):
            for y in range(8):
                x0, x1, x2 = x >> 2, (x >> 1) & 1, x & 1
                y0, y1, y2 = y >> 2, (y >> 1) & 1, y & 1
                if x1 == y1:
                    expected[x, y] = op[2 * x2 + x0, 2 * y2 + y0]
        assert np.array_equal(model.embed(op, (2, 0), 3), expected)

    @pytest.mark.parametrize(
        "op, sites",
        [
            (np.eye(4), (1, 1)),
            (np.eye(2), (-1,)),
            (np.eye(2), 1),
            (np.eye(2), (0, 1)),
            (np.eye(4), (0,)),
        ],
        ids=["repeated", "negative", "bare-int", "op-too-small", "op-too-large"],
    )
    def test_rejects_bad_sites(self, op, sites):
        with pytest.raises(ValueError, match="sites"):
            model.embed(op, sites, 3)


class TestSpinSystem:
    def test_chain_default_couplings(self):
        assert SpinSystem.chain(3).couplings == ((0, 1, 1.0), (1, 2, 1.0))

    def test_rejects_duplicates_and_bad_pairs(self):
        with pytest.raises(ValueError):
            SpinSystem(2, ((0, 1, 1.0), (0, 1, 2.0)))
        with pytest.raises(ValueError):
            SpinSystem(2, ((1, 0, 1.0),))
        with pytest.raises(ValueError):
            SpinSystem(2, ((0, 2, 1.0),))

    def test_rejects_non_integer_coupling_sites(self):
        with pytest.raises(ValueError, match="couplings"):
            SpinSystem(3, ((0.2, 1.9, 1.0),))

    def test_rejects_non_integer_num_qubits(self):
        with pytest.raises(ValueError, match="num_qubits"):
            SpinSystem(2.5)

    @pytest.mark.parametrize("strength", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_strength(self, strength):
        with pytest.raises(ValueError, match="couplings"):
            SpinSystem(2, ((0, 1, strength),))


class TestDrift:
    def test_two_qubit_spectrum(self):
        # oracle: direct diagonalization of XX + YY + ZZ
        h = model.build_drift(SpinSystem.chain(2))
        oracle = sum(
            linalg.kron(model.pauli(a), model.pauli(a)) for a in "xyz"
        )
        assert np.allclose(h, oracle, atol=1e-15)
        eig = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eig, [-3, 1, 1, 1], atol=1e-12)

    def test_single_qubit_empty_sum(self):
        assert np.array_equal(model.build_drift(SpinSystem(1)), np.zeros((2, 2)))

    def test_traceless_three_qubits(self):
        assert abs(np.trace(model.build_drift(SpinSystem.chain(3)))) < 1e-14

    def test_hermitian(self):
        triangle = SpinSystem(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        for system in (SpinSystem.chain(2), SpinSystem.chain(3), triangle):
            h = model.build_drift(system)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14


class TestControls:
    def test_two_qubit_site_zero(self):
        cx, cy = model.build_controls(SpinSystem.chain(2), 0)
        assert np.array_equal(cx, linalg.kron(model.pauli("x"), np.eye(2)))
        assert np.array_equal(cy, linalg.kron(model.pauli("y"), np.eye(2)))

    def test_hermitian(self):
        for op in model.build_controls(SpinSystem.chain(3), 2):
            assert np.max(np.abs(op - op.conj().T)) == 0.0

    def test_middle_site(self):
        cx, _ = model.build_controls(SpinSystem.chain(3), 1)
        expected = linalg.kron(np.eye(2), linalg.kron(model.pauli("x"), np.eye(2)))
        assert np.array_equal(cx, expected)


class TestNoiseSpec:
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            NoiseSpec("amplitude_damping", gamma, (0,))


    def test_rejects_non_integer_sites(self):
        with pytest.raises(ValueError, match="sites"):
            NoiseSpec("phase_damping", 0.1, (0.7, 1))

    def test_rejects_negative_sites(self):
        with pytest.raises(ValueError, match="^sites must be >= 0, got -1"):
            NoiseSpec("phase_damping", 0.1, (1, -1))


class TestCollapseOps:
    def test_amplitude_damping_single_qubit(self):
        ops = model.build_collapse_ops(
            SpinSystem(1), NoiseSpec("amplitude_damping", 0.5, (0,))
        )
        assert len(ops) == 1
        op, gamma = ops[0]
        assert gamma == 0.5
        assert np.array_equal(op, model.pauli("minus"))

    def test_phase_damping_both_sites(self):
        ops = model.build_collapse_ops(
            SpinSystem.chain(2), NoiseSpec("phase_damping", 1.0, (0, 1))
        )
        assert len(ops) == 2
        assert np.array_equal(ops[0][0], linalg.kron(model.pauli("z"), np.eye(2)))
        assert np.array_equal(ops[1][0], linalg.kron(np.eye(2), model.pauli("z")))

    def test_zero_rate(self):
        ops = model.build_collapse_ops(
            SpinSystem(1), NoiseSpec("amplitude_damping", 0.0, (0,))
        )
        assert ops[0][1] == 0.0

    def test_site_validation(self):
        with pytest.raises(ValueError):
            model.build_collapse_ops(
                SpinSystem(1), NoiseSpec("phase_damping", 1.0, (0, 1))
            )
        # a negative site set past the constructor's check is caught too
        noise = NoiseSpec("phase_damping", 1.0, (0,))
        object.__setattr__(noise, "sites", (-1,))
        with pytest.raises(ValueError, match=r"noise sites \[-1\] out of range"):
            model.build_collapse_ops(SpinSystem(1), noise)


def swap_oracle():
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            ket = np.zeros(2)
            bra = np.zeros(2)
            ket[i] = 1
            bra[j] = 1
            out += linalg.kron(np.outer(ket, bra), np.outer(bra, ket))
    return out


class TestCatalog:
    def test_six_scenarios(self):
        catalog = model.scenario_catalog()
        assert [s.id for s in catalog] == list("abcdef")

    def test_scenario_b_target(self):
        b = model.scenario_catalog()[1]
        assert np.array_equal(b.target_unitary, linalg.kron(model.pauli("x"), np.eye(2)))

    def test_scenario_a_time_grid(self):
        a = model.scenario_catalog()[0]
        assert a.num_pulses == 32
        assert a.total_time == 2.1
        assert abs(a.num_pulses * (a.total_time / a.num_pulses) - 2.1) < 1e-12
        assert abs(a.total_time / a.num_pulses - 0.065625) < 1e-15

    def test_scenario_f_target_is_swap(self):
        f = model.scenario_catalog()[5]
        assert np.array_equal(f.target_unitary, linalg.kron(np.eye(2), swap_oracle()))

    def test_all_unitary_and_timed(self):
        for s in model.scenario_catalog():
            u = s.target_unitary
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-14
            assert s.total_time == 2.1
            assert s.h_max == 100.0
            assert s.num_pulses == (32 if s.num_qubits == 2 else 128)

    def test_control_and_ancilla_layout(self):
        by_id = {s.id: s for s in model.scenario_catalog()}
        assert by_id["a"].control_site == 1 and by_id["a"].ancilla_sites == (0,)
        assert by_id["b"].control_site == 0 and by_id["b"].ancilla_sites == ()
        assert by_id["c"].control_site == 0 and by_id["c"].ancilla_sites == (0,)
        assert by_id["d"].control_site == 1
        assert by_id["e"].control_site == 0 and by_id["e"].target_sites == (1, 2)
        assert by_id["f"].ancilla_sites == ()


class TestFullTarget:
    def test_no_ancilla_is_identity_extension(self):
        b = model.scenario_catalog()[1]
        assert np.array_equal(b.full_target_unitary(), b.target_unitary)

    def test_ancilla_slot_zero(self):
        a = model.scenario_catalog()[0]
        expected = linalg.kron(np.eye(2), model.pauli("x"))
        assert np.allclose(a.full_target_unitary(), expected, atol=1e-15)

    def test_swap_with_ancilla(self):
        e = model.scenario_catalog()[4]
        expected = linalg.kron(np.eye(2), swap_oracle())
        assert np.allclose(e.full_target_unitary(), expected, atol=1e-15)

    def test_interleaved_ancilla(self):
        # ancilla in the middle slot: embedding must respect slot order
        scenario = Scenario(
            "x",
            SpinSystem.chain(3),
            0,
            swap_oracle(),
            ancilla_sites=(1,),
            num_pulses=4,
            total_time=1.0,
            h_max=1.0,
        )
        full = scenario.full_target_unitary()
        # oracle: permute I kron SWAP_(0,2) explicitly over basis states
        expected = np.zeros((8, 8))
        for b0 in range(2):
            for b1 in range(2):
                for b2 in range(2):
                    src = (b0 << 2) | (b1 << 1) | b2
                    dst = (b2 << 2) | (b1 << 1) | b0
                    expected[dst, src] = 1.0
        assert np.allclose(full, expected, atol=1e-15)


class TestScenarioValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("name", ["total_time", "h_max"])
    def test_rejects_non_finite_time_and_bound(self, name, value):
        fields = dict(num_pulses=1, total_time=1.0, h_max=1.0)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            Scenario("x", SpinSystem.chain(2), 0, np.eye(2), ancilla_sites=(0,), **fields)

    @pytest.mark.parametrize("name, value", [
        ("control_site", 0.5), ("num_pulses", 32.5), ("ancilla_sites", (0.6,)),
    ])
    def test_rejects_non_integer_sites_and_counts(self, name, value):
        fields = dict(control_site=1, ancilla_sites=(0,), num_pulses=1)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            Scenario("x", SpinSystem.chain(2), target_unitary=np.eye(2),
                     total_time=1.0, h_max=1.0, **fields)

    def test_numpy_integers_pass(self):
        scenario = Scenario("x", SpinSystem.chain(2), np.int64(1), np.eye(2),
                            (np.int32(0),), num_pulses=np.int64(3), total_time=1.0, h_max=1.0)
        assert scenario.control_site == 1 and type(scenario.control_site) is int
        assert scenario.ancilla_sites == (0,) and scenario.num_pulses == 3

    def test_ancilla_site_out_of_range(self):
        with pytest.raises(ValueError, match=r"ancilla sites \[2\] out of range"):
            Scenario(
                "x",
                SpinSystem.chain(2),
                0,
                np.eye(2),
                ancilla_sites=(2,),
                num_pulses=1,
                total_time=1.0,
                h_max=1.0,
            )

    def test_wrong_target_dimension(self):
        with pytest.raises(ValueError):
            Scenario(
                "x",
                SpinSystem.chain(2),
                0,
                np.eye(4),
                ancilla_sites=(0,),
                num_pulses=1,
                total_time=1.0,
                h_max=1.0,
            )

    def test_non_unitary_target(self):
        with pytest.raises(ValueError):
            Scenario(
                "x",
                SpinSystem.chain(2),
                0,
                np.diag([1.0, 2.0]),
                ancilla_sites=(0,),
                num_pulses=1,
                total_time=1.0,
                h_max=1.0,
            )

    def test_target_is_a_read_only_copy(self):
        u = model.pauli("x")
        scenario = Scenario(
            "x",
            SpinSystem.chain(2),
            0,
            u,
            ancilla_sites=(0,),
            num_pulses=1,
            total_time=1.0,
            h_max=1.0,
        )
        u[0, 0] = 1.0
        assert np.array_equal(scenario.target_unitary, model.pauli("x"))
        with pytest.raises(ValueError):
            scenario.target_unitary[0, 0] = 1.0


class TestSerialization:
    def test_roundtrip(self):
        # the dict survives a JSON round trip with every field of the scenario
        scenario = model.scenario_catalog()[4]
        noise = NoiseSpec("amplitude_damping", 0.25, (0, 1, 2))
        doc = json.loads(json.dumps(model.scenario_to_dict(scenario, noise)))
        assert doc["id"] == scenario.id
        assert doc["num_qubits"] == scenario.num_qubits
        assert SpinSystem(doc["num_qubits"], tuple(map(tuple, doc["couplings"]))) == scenario.system
        assert doc["control_site"] == scenario.control_site
        assert tuple(doc["ancilla_sites"]) == scenario.ancilla_sites
        assert doc["num_pulses"] == scenario.num_pulses
        assert doc["total_time"] == scenario.total_time
        assert doc["h_max"] == scenario.h_max
        target = np.array([[complex(*entry) for entry in row] for row in doc["target"]])
        assert np.array_equal(target, scenario.target_unitary)
        assert doc["noise"] == {"kind": noise.kind, "gamma": noise.gamma, "sites": [0, 1, 2]}

    def test_field_names(self):
        doc = model.scenario_to_dict(
            model.scenario_catalog()[0], NoiseSpec("phase_damping", 0.1, (0, 1))
        )
        assert set(doc) == {
            "id",
            "num_qubits",
            "couplings",
            "control_site",
            "target",
            "ancilla_sites",
            "num_pulses",
            "total_time",
            "h_max",
            "noise",
        }
        assert set(doc["noise"]) == {"kind", "gamma", "sites"}

    def test_noise_optional(self):
        assert "noise" not in model.scenario_to_dict(model.scenario_catalog()[1])
