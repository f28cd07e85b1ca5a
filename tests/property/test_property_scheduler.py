"""Property-based tests: every routable circuit compiles to a valid schedule.

The central soundness property of the whole library: for any random
circuit and any device with at least one spare slot, every compiler
produces a schedule that (a) replays legally on the device, (b) executes
exactly the circuit's two-qubit gates in a dependency-respecting order,
and (c) reports metadata the noise model can trust.  Evaluating such a
schedule always yields a success rate in [0, 1] and a positive makespan.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DaiCompiler, MuraliCompiler
from repro.circuit.library import random_circuit
from repro.core.compiler import SSyncCompiler, SSyncConfig
from repro.core.scheduler import SCHEDULER_BACKENDS, SchedulerConfig
from repro.hardware.topologies import grid_device, linear_device, star_device
from repro.noise.evaluator import evaluate_schedule
from repro.schedule.serialize import schedule_to_bytes
from repro.schedule.verify import verify_schedule


@st.composite
def compile_cases(draw):
    """(device, circuit) pairs that are guaranteed to fit."""
    kind = draw(st.sampled_from(["linear", "grid", "star"]))
    capacity = draw(st.integers(min_value=3, max_value=7))
    if kind == "linear":
        device = linear_device(draw(st.integers(2, 4)), capacity)
    elif kind == "grid":
        device = grid_device(2, draw(st.integers(2, 3)), capacity)
    else:
        device = star_device(draw(st.integers(3, 5)), capacity)
    max_qubits = min(device.total_capacity - 2, 16)
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    local = draw(st.booleans())
    circuit = random_circuit(
        num_qubits, num_gates, seed=seed, locality=2 if local else None
    )
    return device, circuit


class TestSchedulerSoundness:
    @given(compile_cases())
    @settings(max_examples=40, deadline=None)
    def test_ssync_schedules_are_valid_and_complete(self, case):
        device, circuit = case
        result = SSyncCompiler(device).compile(circuit)
        report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
        assert report.two_qubit_gates == circuit.num_two_qubit_gates
        assert report.final_state.occupancy() == result.final_state.occupancy()

    @given(compile_cases())
    @settings(max_examples=20, deadline=None)
    def test_murali_schedules_are_valid_and_complete(self, case):
        device, circuit = case
        result = MuraliCompiler(device).compile(circuit)
        report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
        assert report.two_qubit_gates == circuit.num_two_qubit_gates

    @given(compile_cases())
    @settings(max_examples=20, deadline=None)
    def test_dai_schedules_are_valid_and_complete(self, case):
        device, circuit = case
        result = DaiCompiler(device).compile(circuit)
        report = verify_schedule(result.schedule, result.initial_state, circuit=circuit)
        assert report.two_qubit_gates == circuit.num_two_qubit_gates

    @given(compile_cases())
    @settings(max_examples=25, deadline=None)
    def test_all_backends_agree_bit_for_bit(self, case):
        """Backend parity: naive and flat are one scheduler.

        The same invariant the fuzzing oracle (:mod:`repro.fuzz.oracle`)
        enforces on generated scenarios, here driven by hypothesis:
        every backend must emit byte-identical schedules, identical
        scheduler statistics and identical placements.
        """
        device, circuit = case
        results = {}
        for backend in SCHEDULER_BACKENDS:
            config = SSyncConfig(scheduler=SchedulerConfig(backend=backend))
            results[backend] = SSyncCompiler(device, config).compile(circuit)
        reference = results["naive"]
        reference_bytes = schedule_to_bytes(reference.schedule)
        for backend in SCHEDULER_BACKENDS:
            result = results[backend]
            assert schedule_to_bytes(result.schedule) == reference_bytes, backend
            assert result.statistics == reference.statistics, backend
            assert result.initial_state.occupancy() == reference.initial_state.occupancy()
            assert result.final_state.occupancy() == reference.final_state.occupancy()

    @given(compile_cases())
    @settings(max_examples=25, deadline=None)
    def test_evaluation_is_well_formed(self, case):
        device, circuit = case
        result = SSyncCompiler(device).compile(circuit)
        for implementation in ("fm", "am2"):
            evaluation = evaluate_schedule(result.schedule, gate_implementation=implementation)
            assert 0.0 <= evaluation.success_rate <= 1.0
            assert evaluation.execution_time_us >= 0.0
            assert evaluation.gate_count_2q == circuit.num_two_qubit_gates
            assert evaluation.total_gate_time_us >= 0.0

    @given(compile_cases())
    @settings(max_examples=25, deadline=None)
    def test_idealised_bounds_dominate_real_success_rate(self, case):
        device, circuit = case
        result = SSyncCompiler(device).compile(circuit)
        real = evaluate_schedule(result.schedule).success_rate
        ideal = evaluate_schedule(
            result.schedule, ignore_shuttle_cost=True, ignore_swap_cost=True
        ).success_rate
        assert ideal >= real

    @given(compile_cases(), st.sampled_from(["gathering", "even-divided", "sta"]))
    @settings(max_examples=25, deadline=None)
    def test_all_initial_mappings_route_successfully(self, case, mapping):
        device, circuit = case
        result = SSyncCompiler(device).compile(circuit, initial_mapping=mapping)
        verify_schedule(result.schedule, result.initial_state, circuit=circuit)
