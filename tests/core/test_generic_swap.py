"""Unit tests for generic swap candidates and generation rules."""

from __future__ import annotations

import pytest

from repro.core.generic_swap import GenericSwap, GenericSwapKind, GenericSwapRules
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.graph import GraphWeights
from repro.hardware.topologies import grid_device, linear_device


def swap_candidate(qubit_a=0, qubit_b=1, weight=0.001):
    return GenericSwap(
        GenericSwapKind.SWAP_GATE,
        qubit_a=qubit_a,
        qubit_b=qubit_b,
        trap=0,
        target_trap=None,
        weight=weight,
    )


def shuttle_candidate(qubit=0, trap=0, target=1, weight=1.0):
    return GenericSwap(
        GenericSwapKind.SHUTTLE,
        qubit_a=qubit,
        qubit_b=None,
        trap=trap,
        target_trap=target,
        weight=weight,
    )


class TestGenericSwapRecord:
    def test_swap_gate_validation(self):
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SWAP_GATE, 0, None, 0, None, 0.1)
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SWAP_GATE, 0, 0, 0, None, 0.1)
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SWAP_GATE, 0, 1, 0, 1, 0.1)

    def test_shuttle_validation(self):
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SHUTTLE, 0, 1, 0, 1, 0.1)
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SHUTTLE, 0, None, 0, None, 0.1)
        with pytest.raises(SchedulingError):
            GenericSwap(GenericSwapKind.SHUTTLE, 0, None, 2, 2, 0.1)

    def test_weight_must_be_positive(self):
        with pytest.raises(SchedulingError):
            swap_candidate(weight=0.0)

    def test_moved_qubits(self):
        assert swap_candidate(3, 5).moved_qubits == (3, 5)
        assert shuttle_candidate(qubit=4).moved_qubits == (4,)

    def test_reverses_swap_gate(self):
        assert swap_candidate(0, 1).reverses(swap_candidate(1, 0))
        assert not swap_candidate(0, 2).reverses(swap_candidate(0, 1))
        assert not swap_candidate(0, 1).reverses(None)

    def test_reverses_shuttle(self):
        forward = shuttle_candidate(qubit=2, trap=0, target=1)
        backward = shuttle_candidate(qubit=2, trap=1, target=0)
        assert backward.reverses(forward)
        assert not forward.reverses(forward)
        assert not forward.reverses(swap_candidate())


class TestWeights:
    def test_swap_gate_weight_scales_with_distance(self):
        rules = GenericSwapRules(GraphWeights())
        assert rules.swap_gate_weight(1) == pytest.approx(0.001)
        assert rules.swap_gate_weight(4) == pytest.approx(0.004)
        with pytest.raises(SchedulingError):
            rules.swap_gate_weight(0)

    def test_shuttle_weight_is_junctions_plus_one(self):
        rules = GenericSwapRules(GraphWeights())
        assert rules.shuttle_weight(0) == pytest.approx(1.0)
        assert rules.shuttle_weight(2) == pytest.approx(3.0)
        with pytest.raises(SchedulingError):
            rules.shuttle_weight(-1)


class TestCandidateGeneration:
    def _linear_state(self):
        device = linear_device(2, 4)
        state = DeviceState.from_mapping(device, {0: [0, 1, 2], 1: [3]})
        return state

    def test_interior_qubit_gets_swap_candidates(self):
        state = self._linear_state()
        rules = GenericSwapRules()
        candidates = rules.candidates_for_qubit(state, 0, goal_trap=1)
        kinds = {c.kind for c in candidates}
        assert kinds == {GenericSwapKind.SWAP_GATE}
        # Swap with the end ion (qubit 2) must be among them.
        assert any(c.qubit_b == 2 for c in candidates)

    def test_edge_qubit_gets_shuttle_candidate(self):
        state = self._linear_state()
        rules = GenericSwapRules()
        candidates = rules.candidates_for_qubit(state, 2, goal_trap=1)
        assert any(c.kind is GenericSwapKind.SHUTTLE and c.target_trap == 1 for c in candidates)

    def test_qubit_already_at_goal_has_no_candidates(self):
        state = self._linear_state()
        rules = GenericSwapRules()
        assert rules.candidates_for_qubit(state, 3, goal_trap=1) == []

    def test_full_destination_yields_evictions(self):
        device = linear_device(3, 2)
        state = DeviceState.from_mapping(device, {0: [0, 1], 1: [2, 3], 2: [4]})
        rules = GenericSwapRules()
        candidates = rules.candidates_for_qubit(state, 1, goal_trap=2)
        evictions = [
            c for c in candidates if c.kind is GenericSwapKind.SHUTTLE and c.trap == 1
        ]
        assert evictions
        assert all(c.qubit_a in (2, 3) for c in evictions)

    def test_eviction_candidates_respect_exclusions(self):
        device = linear_device(2, 2)
        state = DeviceState.from_mapping(device, {0: [0], 1: [1, 2]})
        rules = GenericSwapRules()
        evictions = rules.eviction_candidates(state, full_trap=1, exclude=(1,))
        assert all(c.qubit_a != 1 for c in evictions)

    def test_candidates_for_gates_deduplicates(self):
        state = self._linear_state()
        rules = GenericSwapRules()
        pairs = [(2, 3), (2, 3)]
        candidates = rules.candidates_for_gates(state, pairs)
        keys = [(c.kind, c.qubit_a, c.qubit_b, c.trap, c.target_trap) for c in candidates]
        assert len(keys) == len(set(keys))

    def test_candidates_for_gates_skips_colocated_pairs(self):
        state = self._linear_state()
        rules = GenericSwapRules()
        assert rules.candidates_for_gates(state, [(0, 1)]) == []

    def test_grid_junction_weight_in_shuttle_candidate(self):
        device = grid_device(1, 2, 3)
        state = DeviceState.from_mapping(device, {0: [0, 1], 1: [2]})
        rules = GenericSwapRules()
        candidates = rules.candidates_for_qubit(state, 1, goal_trap=1)
        shuttle = next(c for c in candidates if c.kind is GenericSwapKind.SHUTTLE)
        assert shuttle.weight == pytest.approx(2.0)

