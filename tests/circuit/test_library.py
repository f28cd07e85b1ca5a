"""Unit tests for the benchmark circuit generators (Table 2)."""

from __future__ import annotations

import pytest

from repro.circuit.library import (
    PAPER_BENCHMARKS,
    adder_two_qubit_gate_count,
    alt_two_qubit_gate_count,
    alternating_layered_ansatz,
    benchmark_spec,
    bernstein_vazirani_circuit,
    build_benchmark,
    build_family,
    cuccaro_adder_circuit,
    ghz_circuit,
    heisenberg_circuit,
    heisenberg_two_qubit_gate_count,
    paper_benchmark_suite,
    qaoa_circuit,
    qaoa_two_qubit_gate_count,
    qft_circuit,
    qft_two_qubit_gate_count,
    random_circuit,
    ring_edges,
)
from repro.exceptions import CircuitError


class TestQFT:
    def test_gate_count_matches_paper_24(self):
        assert qft_circuit(24).num_two_qubit_gates == 552

    def test_gate_count_matches_paper_64(self):
        assert qft_two_qubit_gate_count(64) == 4032

    def test_closed_form_matches_generator(self):
        for n in (2, 5, 9):
            assert qft_circuit(n).num_two_qubit_gates == qft_two_qubit_gate_count(n)

    def test_undeciomposed_uses_cp(self):
        circuit = qft_circuit(4, decompose=False)
        assert "cp" in circuit.count_ops()
        assert circuit.num_two_qubit_gates == qft_two_qubit_gate_count(4, decompose=False)

    def test_include_swaps_adds_reversal_network(self):
        with_swaps = qft_circuit(6, include_swaps=True)
        without = qft_circuit(6)
        assert with_swaps.num_two_qubit_gates == without.num_two_qubit_gates + 3

    def test_every_qubit_used(self):
        assert qft_circuit(7).used_qubits() == set(range(7))

    def test_rejects_zero_qubits(self):
        with pytest.raises(CircuitError):
            qft_circuit(0)


class TestAdder:
    def test_width_is_2n_plus_2(self):
        assert cuccaro_adder_circuit(32).num_qubits == 66

    def test_gate_count_closed_form(self):
        for n in (1, 4, 8):
            circuit = cuccaro_adder_circuit(n)
            assert circuit.num_two_qubit_gates == adder_two_qubit_gate_count(n)

    def test_paper_scale_count_is_close_to_reported(self):
        # Paper reports 545 with its Toffoli expansion; ours gives 513.
        count = cuccaro_adder_circuit(32).num_two_qubit_gates
        assert 500 <= count <= 560

    def test_undecomposed_toffoli_kept_as_ccx(self):
        circuit = cuccaro_adder_circuit(2, decompose_toffoli=False)
        assert "ccx" in circuit.count_ops()

    def test_communication_is_short_distance(self):
        circuit = cuccaro_adder_circuit(6)
        max_span = max(abs(g.qubits[0] - g.qubits[1]) for g in circuit.two_qubit_gates())
        assert max_span <= 3

    def test_rejects_zero_bits(self):
        with pytest.raises(CircuitError):
            cuccaro_adder_circuit(0)


class TestBV:
    def test_width_and_gate_count(self):
        circuit = bernstein_vazirani_circuit(64)
        assert circuit.num_qubits == 65
        assert circuit.num_two_qubit_gates == 64

    def test_secret_controls_cx_count(self):
        circuit = bernstein_vazirani_circuit(6, secret=[1, 0, 1, 0, 0, 1])
        assert circuit.num_two_qubit_gates == 3

    def test_all_cx_target_ancilla(self):
        circuit = bernstein_vazirani_circuit(5)
        targets = {g.qubits[1] for g in circuit.two_qubit_gates()}
        assert targets == {5}

    def test_bad_secret_length_rejected(self):
        with pytest.raises(CircuitError):
            bernstein_vazirani_circuit(4, secret=[1, 0])

    def test_non_binary_secret_rejected(self):
        with pytest.raises(CircuitError):
            bernstein_vazirani_circuit(2, secret=[1, 2])


class TestQAOA:
    def test_default_ring_gate_count(self):
        circuit = qaoa_circuit(16, layers=4)
        assert circuit.num_two_qubit_gates == qaoa_two_qubit_gate_count(16, layers=4)

    def test_nearest_neighbour_communication(self):
        circuit = qaoa_circuit(10, layers=1)
        spans = {
            min(abs(a - b), 10 - abs(a - b))
            for a, b in (g.qubits for g in circuit.two_qubit_gates())
        }
        assert spans == {1}

    def test_custom_edges(self):
        circuit = qaoa_circuit(4, layers=2, edges=[(0, 2), (1, 3)])
        assert circuit.num_two_qubit_gates == 2 * 2 * 2

    def test_native_rzz_option(self):
        circuit = qaoa_circuit(6, layers=1, decompose_zz=False)
        assert "rzz" in circuit.count_ops()
        assert circuit.num_two_qubit_gates == 6

    def test_invalid_edge_rejected(self):
        with pytest.raises(CircuitError):
            qaoa_circuit(4, edges=[(0, 0)])
        with pytest.raises(CircuitError):
            qaoa_circuit(4, edges=[(0, 9)])

    def test_angle_length_mismatch_rejected(self):
        with pytest.raises(CircuitError):
            qaoa_circuit(4, layers=2, gammas=[0.1], betas=[0.2, 0.3])

    def test_ring_edges_helper(self):
        assert len(ring_edges(8)) == 8
        with pytest.raises(CircuitError):
            ring_edges(2)


class TestALT:
    def test_gate_count_closed_form(self):
        for n, layers in ((8, 5), (9, 6), (12, 20)):
            circuit = alternating_layered_ansatz(n, layers=layers)
            assert circuit.num_two_qubit_gates == alt_two_qubit_gate_count(n, layers)

    def test_alternating_offsets(self):
        circuit = alternating_layered_ansatz(6, layers=2, rotations_per_layer=0)
        pairs = [g.qubits for g in circuit.two_qubit_gates()]
        assert (0, 1) in pairs and (1, 2) in pairs

    def test_cz_entangler(self):
        circuit = alternating_layered_ansatz(4, layers=1, entangler="cz")
        assert "cz" in circuit.count_ops()

    def test_invalid_entangler_rejected(self):
        with pytest.raises(CircuitError):
            alternating_layered_ansatz(4, entangler="cnotty")


class TestHeisenberg:
    def test_paper_gate_count(self):
        assert heisenberg_two_qubit_gate_count(48) == 13536

    def test_generator_matches_closed_form(self):
        circuit = heisenberg_circuit(6, trotter_steps=3)
        assert circuit.num_two_qubit_gates == heisenberg_two_qubit_gate_count(6, 3)

    def test_native_rotations_option(self):
        circuit = heisenberg_circuit(4, trotter_steps=1, decompose=False)
        ops = circuit.count_ops()
        assert {"rxx", "ryy", "rzz"} <= set(ops)

    def test_rejects_one_spin(self):
        with pytest.raises(CircuitError):
            heisenberg_circuit(1)


class TestMisc:
    def test_ghz_ladder_vs_star(self):
        ladder = ghz_circuit(6)
        star = ghz_circuit(6, ladder=False)
        assert ladder.num_two_qubit_gates == star.num_two_qubit_gates == 5
        assert {g.qubits[0] for g in star.two_qubit_gates()} == {0}

    def test_random_circuit_is_seeded(self):
        a = random_circuit(8, 20, seed=3)
        b = random_circuit(8, 20, seed=3)
        c = random_circuit(8, 20, seed=4)
        assert a == b
        assert a != c

    def test_random_circuit_two_qubit_budget(self):
        circuit = random_circuit(6, 15, seed=1)
        assert circuit.num_two_qubit_gates == 15

    def test_random_circuit_locality(self):
        circuit = random_circuit(20, 50, seed=2, locality=2)
        assert all(abs(a - b) <= 2 for a, b in (g.qubits for g in circuit.two_qubit_gates()))

    def test_random_circuit_validation(self):
        with pytest.raises(CircuitError):
            random_circuit(1, 5)
        with pytest.raises(CircuitError):
            random_circuit(4, -1)
        with pytest.raises(CircuitError):
            random_circuit(4, 5, locality=0)


class TestSuite:
    def test_build_benchmark_names(self):
        circuit = build_benchmark("qft_12")
        assert circuit.num_qubits == 12
        adder = build_benchmark("adder_4")
        assert adder.num_qubits == 10

    def test_build_family_unknown_rejected(self):
        with pytest.raises(CircuitError):
            build_family("grover", 8)

    def test_build_benchmark_bad_name_rejected(self):
        with pytest.raises(CircuitError):
            build_benchmark("qft")

    def test_paper_suite_metadata_consistent(self):
        for spec in PAPER_BENCHMARKS:
            assert benchmark_spec(spec.name) is spec
            circuit = build_benchmark(spec.name)
            assert circuit.num_qubits == spec.num_qubits

    def test_benchmark_spec_unknown_rejected(self):
        with pytest.raises(CircuitError):
            benchmark_spec("qft_128")

    def test_full_paper_suite_gate_counts_close(self):
        suite = paper_benchmark_suite()
        for spec in PAPER_BENCHMARKS:
            actual = suite[spec.name].num_two_qubit_gates
            # Within 10% of the paper's reported counts (decomposition details differ).
            assert abs(actual - spec.paper_two_qubit_gates) <= 0.1 * spec.paper_two_qubit_gates
