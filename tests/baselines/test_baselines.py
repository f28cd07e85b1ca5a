"""Unit tests for the Murali-style and Dai-style baseline compilers."""

from __future__ import annotations

import pytest

from repro.baselines import BASELINE_REGISTRY, DaiCompiler, MuraliCompiler
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library import bernstein_vazirani_circuit, ghz_circuit, qft_circuit
from repro.exceptions import MappingError
from repro.hardware.topologies import grid_device, linear_device, star_device
from repro.noise.evaluator import ScheduleEvaluator
from repro.runtime.cache import CachedCompilation
from repro.schedule.operations import (
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.verify import verify_schedule

RECORD_TYPES = (GateOperation, SwapOperation, ShuttleOperation, SpaceShiftOperation)


class TestRegistry:
    def test_both_baselines_registered(self):
        assert set(BASELINE_REGISTRY) == {"murali", "dai"}
        assert BASELINE_REGISTRY["murali"] is MuraliCompiler
        assert BASELINE_REGISTRY["dai"] is DaiCompiler


class TestMuraliMapping:
    def test_qubits_packed_by_first_use(self):
        device = linear_device(3, 6)
        circuit = QuantumCircuit(6)
        # Qubit 5 is used first, so it should land in trap 0.
        circuit.cx(5, 0).cx(1, 2)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.trap_of(5) == 0
        assert state.chain(0)[0] == 5

    def test_two_slots_reserved_per_trap(self):
        device = linear_device(3, 6)
        circuit = qft_circuit(8)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert max(state.chain_length(t.trap_id) for t in device.traps) <= 4

    def test_reservation_relaxed_when_tight(self):
        device = linear_device(2, 5)
        circuit = qft_circuit(9)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.all_qubits() == set(range(9))

    def test_device_too_small_rejected(self):
        device = linear_device(2, 3)
        with pytest.raises(MappingError):
            MuraliCompiler(device).build_initial_state(qft_circuit(7))

    def test_idle_qubits_still_placed(self):
        device = linear_device(2, 6)
        circuit = QuantumCircuit(6)
        circuit.cx(0, 1)
        state = MuraliCompiler(device).build_initial_state(circuit)
        assert state.all_qubits() == set(range(6))


class TestDaiMapping:
    def test_interacting_qubits_clustered(self):
        device = linear_device(2, 8)
        circuit = QuantumCircuit(8)
        for a in range(4):
            for b in range(a + 1, 4):
                circuit.cx(a, b)
                circuit.cx(a + 4, b + 4)
        state = DaiCompiler(device).build_initial_state(circuit)
        assert len({state.trap_of(q) for q in range(4)}) == 1
        assert len({state.trap_of(q) for q in range(4, 8)}) == 1

    def test_device_too_small_rejected(self):
        device = linear_device(1, 4)
        with pytest.raises(MappingError):
            DaiCompiler(device).build_initial_state(qft_circuit(6))


@pytest.mark.parametrize("compiler_cls", [MuraliCompiler, DaiCompiler], ids=["murali", "dai"])
class TestBaselineCompilation:
    def test_schedules_are_valid(self, compiler_cls):
        device = grid_device(2, 2, 5)
        circuit = qft_circuit(12)
        result = compiler_cls(device).compile(circuit)
        report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
        assert report.two_qubit_gates == circuit.num_two_qubit_gates

    def test_result_metadata(self, compiler_cls):
        device = linear_device(3, 5)
        circuit = ghz_circuit(9, ladder=False)
        result = compiler_cls(device).compile(circuit)
        assert result.compiler_name == compiler_cls.name
        assert result.compile_time_s >= 0
        assert result.two_qubit_gate_count == circuit.num_two_qubit_gates

    def test_single_trap_needs_no_shuttles(self, compiler_cls):
        device = linear_device(1, 12)
        circuit = qft_circuit(8)
        result = compiler_cls(device).compile(circuit)
        assert result.shuttle_count == 0
        assert result.swap_count == 0

    def test_star_topology(self, compiler_cls):
        device = star_device(3, 6)
        circuit = bernstein_vazirani_circuit(10)
        result = compiler_cls(device).compile(circuit)
        verify_schedule(result.schedule, result.initial_state, circuit=circuit)

    def test_cross_trap_work_produces_shuttles(self, compiler_cls):
        device = linear_device(3, 5)
        circuit = qft_circuit(10)
        result = compiler_cls(device).compile(circuit)
        assert result.shuttle_count > 0


class TestRelativeBehaviour:
    def test_murali_inserts_more_swaps_than_dai_on_long_range_circuits(self):
        device = grid_device(2, 3, 6)
        circuit = qft_circuit(20)
        murali = MuraliCompiler(device).compile(circuit)
        dai = DaiCompiler(device).compile(circuit)
        assert murali.swap_count > dai.swap_count

    def test_dai_moves_cheaper_endpoint(self):
        # With one qubit already at a trap edge and the other buried, Dai
        # should not need more shuttles than gates.
        device = linear_device(2, 6)
        circuit = QuantumCircuit(10)
        circuit.cx(0, 9)
        result = DaiCompiler(device).compile(circuit)
        assert result.shuttle_count <= 2


@pytest.mark.parametrize("compiler_cls", [MuraliCompiler, DaiCompiler], ids=["murali", "dai"])
def test_compile_encode_and_evaluate_build_no_record(compiler_cls, monkeypatch):
    """The baselines emit plain scalars into the slab: no record object exists
    between the router, the cache-entry encoder and the evaluator."""
    device = grid_device(2, 2, 5)
    circuit = qft_circuit(12)

    def no_record(*args, **kwargs):
        raise AssertionError("a ScheduledOperation was constructed")

    for record_type in RECORD_TYPES:
        monkeypatch.setattr(record_type, "__init__", no_record)
        monkeypatch.setattr(record_type, "unchecked", no_record)
    result = compiler_cls(device).compile(circuit)
    blob = CachedCompilation.from_result(result).to_bytes()
    evaluation = ScheduleEvaluator().evaluate(result.schedule)
    assert result.schedule._records == []
    monkeypatch.undo()

    assert result.swap_count > 0 and result.shuttle_count > 0
    assert CachedCompilation.from_bytes(blob).schedule().operations == result.schedule.operations
    assert repr(evaluation) == repr(ScheduleEvaluator()._evaluate_records(result.schedule))
