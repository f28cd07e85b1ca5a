"""Schedule evaluator: execution time and application success rate.

This is the "Real Noise Simulator" box of Fig. 1.  It walks a compiled
:class:`~repro.schedule.Schedule` in order, maintains per-trap clocks and
per-trap thermal state, and produces:

* the estimated **execution time** (the makespan over trap clocks — traps
  operate in parallel, an operation advances only the clocks of the traps
  it touches);
* the **success rate** — the product of all gate fidelities under the
  Eq.-(4) model, with SWAPs counted as three two-qubit gates and
  single-qubit gates at 99.9999 %.

The evaluator can also selectively ignore shuttle or SWAP costs, which is
how the Fig. 16 optimality bounds ("perfect shuttle", "perfect SWAP",
"ideal") are computed without a brute-force search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import NoiseModelError, SchedulingError
from repro.noise.fidelity import (
    SWAP_TWO_QUBIT_GATE_COUNT,
    FidelityModel,
    SuccessRateAccumulator,
)
from repro.noise.gate_times import (
    GateImplementation,
    single_qubit_gate_time,
    two_qubit_gate_time,
)
from repro.noise.heating import HeatingParameters, ThermalLedger
from repro.noise.operation_times import OperationTimes
from repro.schedule.operations import (
    KIND_CODE_GATE_2Q,
    KIND_CODE_SHUTTLE,
    KIND_CODE_SWAP,
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one schedule under one noise configuration."""

    success_rate: float
    log_success_rate: float
    execution_time_us: float
    total_gate_time_us: float
    total_shuttle_time_us: float
    gate_count_2q: int
    gate_count_1q: int
    swap_count: int
    shuttle_count: int
    gate_implementation: GateImplementation
    details: dict[str, float] = field(default_factory=dict)

    @property
    def execution_time_s(self) -> float:
        """Execution time in seconds."""
        return self.execution_time_us / 1.0e6


@dataclass(frozen=True)
class EvaluatorConfig:
    """Knobs of the evaluator.

    ``ignore_shuttle_cost`` and ``ignore_swap_cost`` implement the
    Fig. 16 idealised scenarios; both default to off.
    """

    gate_implementation: GateImplementation | str = GateImplementation.FM
    heating: HeatingParameters = HeatingParameters()
    operation_times: OperationTimes = OperationTimes()
    ignore_shuttle_cost: bool = False
    ignore_swap_cost: bool = False
    include_single_qubit_gates: bool = True


class _Memo(dict):
    """A dict that fills a missing key from ``fill(key)`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Any], float]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: Any) -> float:
        value = self[key] = self.fill(key)
        return value


class ScheduleEvaluator:
    """Evaluates schedules for execution time and success rate."""

    def __init__(self, config: EvaluatorConfig | None = None) -> None:
        self.config = config or EvaluatorConfig()
        self._implementation = GateImplementation.from_name(self.config.gate_implementation)
        self._fidelity = FidelityModel(heating=self.config.heating)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(self, schedule: Schedule) -> EvaluationResult:
        """Walk ``schedule`` and return timing and success-rate estimates.

        The walk reads the schedule's :class:`OperationSlab` columns
        directly (a record-backed schedule is columnarised first), so no
        per-operation record object is built, and it tells one- from
        two-qubit gates by kind code, so a decoded schedule builds no
        :class:`~repro.circuit.gate.Gate` either (every producer sets
        ``GATE_2Q`` exactly when ``gate.is_two_qubit``; the fuzz oracle
        checks this).  Gate durations are
        memoised per (chain length, ion separation), amplitude factors
        per chain length and shuttle durations per (segments,
        junctions), all within this call.  The arithmetic is the Eq.-(4)
        arithmetic of :class:`FidelityModel` term for term, traps get
        their thermal state in the same first-touch order as in
        :class:`ThermalLedger`, and the log fidelities are summed in
        schedule order, so the result is bit-identical to walking the
        record objects one by one (:meth:`_evaluate_records`).
        """
        try:
            slab = schedule.to_slab()
        except SchedulingError as exc:  # a record type the slab cannot hold
            raise NoiseModelError(str(exc)) from exc
        config = self.config
        heating = config.heating
        implementation = self._implementation
        ignore_shuttles = config.ignore_shuttle_cost
        ignore_swaps = config.ignore_swap_cost
        k1 = heating.k1
        k2 = heating.k2
        gamma = heating.background_rate_per_s
        fidelity_model = self._fidelity
        floor = fidelity_model.minimum_fidelity
        # The single-qubit fidelity lies in (0, 1] (FidelityModel checks),
        # so its log is the same every time it is folded in.
        log_1q = math.log(fidelity_model.single_qubit_gate_fidelity_value())
        include_1q = config.include_single_qubit_gates
        gate_time_1q = single_qubit_gate_time()
        move_us = config.operation_times.move_us
        log = math.log

        # Per-call memos; a miss computes through the shared gate-time,
        # heating and transport models, so invalid inputs raise the same
        # NoiseModelError at the same operation as the reference walk.
        durations = _Memo(
            lambda key: two_qubit_gate_time(implementation, max(key[0], 2), key[1])
        )
        amplitudes = _Memo(lambda chain_length: heating.amplitude_factor(max(chain_length, 2)))
        shuttle_durations = _Memo(
            lambda key: config.operation_times.shuttle_us(segments=key[0], junctions=key[1])
        )

        clocks: dict[int, float] = {trap.trap_id: 0.0 for trap in schedule.device.traps}
        # Per-trap thermal state, keyed in first-touch order (the order
        # the phonon total is summed in).  ``idle`` holds the transport
        # time charged to a trap since its previous gate.
        phonon: dict[int, float] = {}
        idle: dict[int, float] = {}
        log_sum = 0.0
        fidelity_count = 0
        total_gate_time = 0.0
        total_shuttle_time = 0.0

        next_gate = zip(
            slab.gate_traps, slab.gate_chain_lengths, slab.gate_ion_separations
        ).__next__
        next_swap = zip(
            slab.swap_traps, slab.swap_chain_lengths, slab.swap_ion_separations
        ).__next__
        next_shuttle = zip(
            slab.shuttle_source_traps,
            slab.shuttle_target_traps,
            slab.shuttle_segments,
            slab.shuttle_junctions,
        ).__next__
        next_shift = zip(
            slab.shift_traps, slab.shift_from_positions, slab.shift_to_positions
        ).__next__

        for code in slab.kinds:
            if code <= KIND_CODE_GATE_2Q:
                trap, chain_length, ion_separation = next_gate()
                mean_phonon = phonon.setdefault(trap, 0.0)
                if code == KIND_CODE_GATE_2Q:
                    duration = durations[chain_length, ion_separation]
                    pending = idle.pop(trap, 0.0)
                    # Eq. (4).  It never exceeds 1 and the floor keeps it
                    # positive, so SuccessRateAccumulator's failure and
                    # "exceeds 1" branches cannot fire here.
                    fidelity = (
                        1.0
                        - gamma * ((duration + pending) / 1.0e6)
                        - amplitudes[chain_length] * (2.0 * mean_phonon + 1.0)
                    )
                    if floor > fidelity:
                        fidelity = floor
                    log_sum += log(fidelity)
                    fidelity_count += 1
                else:
                    duration = gate_time_1q
                    if include_1q:
                        log_sum += log_1q
                        fidelity_count += 1
                clocks[trap] = clocks.get(trap, 0.0) + duration
                total_gate_time += duration
            elif code == KIND_CODE_SWAP:
                trap, chain_length, ion_separation = next_swap()
                base_time = durations[chain_length, ion_separation]
                if ignore_swaps:
                    continue
                duration = 3.0 * base_time
                mean_phonon = phonon.setdefault(trap, 0.0)
                pending = idle.pop(trap, 0.0)
                fidelity = (
                    1.0
                    - gamma * ((base_time + pending) / 1.0e6)
                    - amplitudes[chain_length] * (2.0 * mean_phonon + 1.0)
                )
                if floor > fidelity:
                    fidelity = floor
                log_sum += log(fidelity**SWAP_TWO_QUBIT_GATE_COUNT)
                fidelity_count += 1
                clocks[trap] = clocks.get(trap, 0.0) + duration
                total_gate_time += duration
            elif code == KIND_CODE_SHUTTLE:
                source, target, segments, junctions = next_shuttle()
                if ignore_shuttles:
                    continue
                duration = shuttle_durations[segments, junctions]
                # Split heats the source, merge and transport the target.
                phonon[source] = phonon.get(source, 0.0) + k1
                phonon[target] = phonon.get(target, 0.0) + k1
                phonon[target] += k2 * (segments + junctions)
                idle[source] = idle.get(source, 0.0) + duration
                idle[target] = idle.get(target, 0.0) + duration
                # Both traps are busy for the whole split/move/merge
                # sequence, and a shuttle cannot start before either
                # endpoint is free.
                start = max(clocks.get(source, 0.0), clocks.get(target, 0.0))
                clocks[source] = start + duration
                clocks[target] = start + duration
                total_shuttle_time += duration
            else:
                trap, from_position, to_position = next_shift()
                if ignore_shuttles:
                    continue
                duration = move_us * abs(to_position - from_position)
                phonon.setdefault(trap, 0.0)
                idle[trap] = idle.get(trap, 0.0) + duration
                clocks[trap] = clocks.get(trap, 0.0) + duration
                total_shuttle_time += duration

        return EvaluationResult(
            success_rate=math.exp(log_sum),
            log_success_rate=log_sum,
            execution_time_us=max(clocks.values(), default=0.0),
            total_gate_time_us=total_gate_time,
            total_shuttle_time_us=total_shuttle_time,
            gate_count_2q=schedule.two_qubit_gate_count,
            gate_count_1q=schedule.single_qubit_gate_count,
            swap_count=schedule.swap_count,
            shuttle_count=schedule.shuttle_count,
            gate_implementation=implementation,
            details={
                "mean_phonon_total": sum(phonon.values()),
                "evaluated_gate_fidelities": float(fidelity_count),
            },
        )

    # ------------------------------------------------------------------
    # reference walk (tests and the fuzz oracle only)
    # ------------------------------------------------------------------
    def _evaluate_records(self, schedule: Schedule) -> EvaluationResult:
        """The per-record reference for :meth:`evaluate`.

        Walks the materialised operation records through
        :class:`ThermalLedger`, :class:`FidelityModel` and
        :class:`SuccessRateAccumulator` one handler call at a time.  It
        is kept, like the naive scheduler core, only so the parity tests
        and the fuzz oracle can check that :meth:`evaluate` returns an
        identical :class:`EvaluationResult`; no production path calls it.
        """
        clocks: dict[int, float] = {trap.trap_id: 0.0 for trap in schedule.device.traps}
        thermal = ThermalLedger(params=self.config.heating)
        accumulator = SuccessRateAccumulator()
        total_gate_time = 0.0
        total_shuttle_time = 0.0

        for operation in schedule:
            if isinstance(operation, GateOperation):
                duration = self._apply_gate(operation, clocks, thermal, accumulator)
                total_gate_time += duration
            elif isinstance(operation, SwapOperation):
                duration = self._apply_swap(operation, clocks, thermal, accumulator)
                total_gate_time += duration
            elif isinstance(operation, ShuttleOperation):
                duration = self._apply_shuttle(operation, clocks, thermal)
                total_shuttle_time += duration
            elif isinstance(operation, SpaceShiftOperation):
                duration = self._apply_space_shift(operation, clocks, thermal)
                total_shuttle_time += duration
            else:  # pragma: no cover - defensive
                raise NoiseModelError(f"unknown operation type {type(operation).__name__}")

        execution_time = max(clocks.values(), default=0.0)
        return EvaluationResult(
            success_rate=accumulator.success_rate,
            log_success_rate=accumulator.log_success_rate,
            execution_time_us=execution_time,
            total_gate_time_us=total_gate_time,
            total_shuttle_time_us=total_shuttle_time,
            gate_count_2q=schedule.two_qubit_gate_count,
            gate_count_1q=schedule.single_qubit_gate_count,
            swap_count=schedule.swap_count,
            shuttle_count=schedule.shuttle_count,
            gate_implementation=self._implementation,
            details={
                "mean_phonon_total": thermal.total_phonon(),
                "evaluated_gate_fidelities": float(accumulator.gate_count),
            },
        )

    # ------------------------------------------------------------------
    # per-operation handlers
    # ------------------------------------------------------------------
    def _two_qubit_time(self, chain_length: int, ion_separation: int) -> float:
        return two_qubit_gate_time(self._implementation, max(chain_length, 2), ion_separation)

    def _apply_gate(
        self,
        operation: GateOperation,
        clocks: dict[int, float],
        thermal: ThermalLedger,
        accumulator: SuccessRateAccumulator,
    ) -> float:
        trap_state = thermal.trap(operation.trap)
        if operation.gate.is_two_qubit:
            duration = self._two_qubit_time(operation.chain_length, operation.ion_separation)
            pending = trap_state.consume_accumulated_time()
            fidelity = self._fidelity.two_qubit_gate_fidelity(
                duration, operation.chain_length, trap_state.mean_phonon, pending
            )
            accumulator.multiply(fidelity)
        else:
            duration = single_qubit_gate_time()
            if self.config.include_single_qubit_gates:
                accumulator.multiply(self._fidelity.single_qubit_gate_fidelity_value())
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration

    def _apply_swap(
        self,
        operation: SwapOperation,
        clocks: dict[int, float],
        thermal: ThermalLedger,
        accumulator: SuccessRateAccumulator,
    ) -> float:
        base_time = self._two_qubit_time(operation.chain_length, operation.ion_separation)
        duration = 3.0 * base_time
        if self.config.ignore_swap_cost:
            return 0.0
        trap_state = thermal.trap(operation.trap)
        pending = trap_state.consume_accumulated_time()
        fidelity = self._fidelity.swap_gate_fidelity(
            base_time, operation.chain_length, trap_state.mean_phonon, pending
        )
        accumulator.multiply(fidelity)
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration

    def _apply_shuttle(
        self,
        operation: ShuttleOperation,
        clocks: dict[int, float],
        thermal: ThermalLedger,
    ) -> float:
        if self.config.ignore_shuttle_cost:
            return 0.0
        duration = self.config.operation_times.shuttle_us(
            segments=operation.segments, junctions=operation.junctions
        )
        thermal.record_shuttle(
            operation.source_trap, operation.target_trap, operation.segments, operation.junctions
        )
        thermal.trap(operation.source_trap).record_idle(duration)
        thermal.trap(operation.target_trap).record_idle(duration)
        # Both traps are busy for the whole split/move/merge sequence, and a
        # shuttle cannot start before either endpoint is free.
        start = max(clocks.get(operation.source_trap, 0.0), clocks.get(operation.target_trap, 0.0))
        clocks[operation.source_trap] = start + duration
        clocks[operation.target_trap] = start + duration
        return duration

    def _apply_space_shift(
        self,
        operation: SpaceShiftOperation,
        clocks: dict[int, float],
        thermal: ThermalLedger,
    ) -> float:
        if self.config.ignore_shuttle_cost:
            return 0.0
        duration = self.config.operation_times.move_us * operation.distance
        thermal.trap(operation.trap).record_idle(duration)
        clocks[operation.trap] = clocks.get(operation.trap, 0.0) + duration
        return duration


def evaluate_schedule(
    schedule: Schedule,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    heating: HeatingParameters | None = None,
    operation_times: OperationTimes | None = None,
    ignore_shuttle_cost: bool = False,
    ignore_swap_cost: bool = False,
) -> EvaluationResult:
    """One-call convenience wrapper around :class:`ScheduleEvaluator`."""
    config = EvaluatorConfig(
        gate_implementation=gate_implementation,
        heating=heating or HeatingParameters(),
        operation_times=operation_times or OperationTimes(),
        ignore_shuttle_cost=ignore_shuttle_cost,
        ignore_swap_cost=ignore_swap_cost,
    )
    return ScheduleEvaluator(config).evaluate(schedule)
