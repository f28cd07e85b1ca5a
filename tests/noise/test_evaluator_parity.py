"""The column-walking evaluator matches the per-record reference walk.

:meth:`ScheduleEvaluator.evaluate` reads the schedule's slab columns and
memoises durations and amplitude factors; ``_evaluate_records`` is the
original walk over record objects, kept only as the reference.  Whole
:class:`EvaluationResult` objects must agree bit for bit (compared via
``repr``, which spells every float exactly and tells ``0`` from
``0.0``), over the fuzz corpus and the ``paper-sweep`` benchmark
schedules, all four gate implementations, both idealisation flags and a
heating model extreme enough to pin every two-qubit fidelity to the
floor.  Invalid inputs must raise the same :class:`NoiseModelError`.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from repro.circuit.gate import Gate
from repro.exceptions import NoiseModelError
from repro.fuzz import load_scenario
from repro.hardware.topologies import linear_device
from repro.noise.evaluator import EvaluatorConfig, ScheduleEvaluator
from repro.noise.gate_times import GateImplementation
from repro.noise.heating import HeatingParameters
from repro.registry import make_pipeline
from repro.runtime.jobs import CompileJob, compile_job
from repro.schedule.operations import (
    KIND_CODE_GATE_2Q,
    GateOperation,
    OperationSlab,
    ScheduledOperation,
)
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import schedule_from_bytes, schedule_to_bytes

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
from bench_common import SCALED_WORKLOADS  # noqa: E402

CORPUS = sorted((ROOT / "tests" / "fuzz" / "corpus").glob("*.json"))
PAPER_SWEEP_COMPILERS = ("s-sync", "murali", "dai")
IMPLEMENTATIONS = tuple(member.value for member in GateImplementation)

#: Every two-qubit fidelity of a real schedule lands on the 1e-12 floor,
#: and the log-sum of a few dozen of them underflows the success rate to 0.
EXTREME_HEATING = HeatingParameters(
    k1=5.0, k2=1.0, background_rate_per_s=1.0e5, amplitude_scale=0.5
)
HEATINGS = {"paper": HeatingParameters(), "extreme": EXTREME_HEATING}


def _configs(implementation: str) -> list[EvaluatorConfig]:
    return [
        EvaluatorConfig(
            gate_implementation=implementation,
            heating=heating,
            ignore_shuttle_cost=ignore_shuttles,
            ignore_swap_cost=ignore_swaps,
        )
        for heating in HEATINGS.values()
        for ignore_shuttles in (False, True)
        for ignore_swaps in (False, True)
    ]


def _assert_parity(schedules: list[Schedule], implementation: str) -> int:
    compared = 0
    for config in _configs(implementation):
        evaluator = ScheduleEvaluator(config)
        for schedule in schedules:
            columnar = evaluator.evaluate(schedule)
            reference = evaluator._evaluate_records(schedule)
            assert repr(columnar) == repr(reference), (schedule, config)
            assert columnar == reference
            compared += 1
    return compared


@pytest.fixture(scope="module")
def corpus_schedules() -> list[Schedule]:
    """S-SYNC (slab-backed, plus a decoded copy) and baseline (record-backed)
    schedules of every corpus scenario."""
    schedules = []
    for path in CORPUS:
        scenario = load_scenario(path)
        circuit, device = scenario.build_circuit(), scenario.build_device()
        for compiler in PAPER_SWEEP_COMPILERS:
            schedules.append(make_pipeline(compiler, device).compile(circuit).schedule)
        schedules.append(schedule_from_bytes(schedule_to_bytes(schedules[-3])))
    return schedules


@pytest.fixture(scope="module")
def paper_sweep_schedules() -> list[Schedule]:
    """The 75 distinct schedules of the ``paper-sweep`` benchmark, decoded
    from their binary form as the batch engine sees them."""
    schedules = []
    for circuit, devices in SCALED_WORKLOADS.items():
        for device in devices:
            for compiler in PAPER_SWEEP_COMPILERS:
                result = compile_job(CompileJob(circuit=circuit, device=device, compiler=compiler))
                schedules.append(schedule_from_bytes(schedule_to_bytes(result.schedule)))
    return schedules


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_corpus_parity(corpus_schedules, implementation):
    assert any(schedule.slab is None for schedule in corpus_schedules)
    assert any(schedule.slab is not None for schedule in corpus_schedules)
    assert _assert_parity(corpus_schedules, implementation) == 8 * len(corpus_schedules)


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_paper_sweep_parity(paper_sweep_schedules, implementation):
    assert len(paper_sweep_schedules) == 75
    assert _assert_parity(paper_sweep_schedules, implementation) == 8 * 75


def test_extreme_heating_hits_the_floor_and_zeroes_the_success_rate(paper_sweep_schedules):
    schedule = paper_sweep_schedules[0]
    result = ScheduleEvaluator(EvaluatorConfig(heating=EXTREME_HEATING)).evaluate(schedule)
    # A SWAP is three two-qubit gates, each on the floor.
    floored = schedule.two_qubit_gate_count + 3 * schedule.swap_count
    expected_log = floored * math.log(1.0e-12) + (
        schedule.single_qubit_gate_count * math.log(0.999999)
    )
    assert result.log_success_rate == pytest.approx(expected_log)
    assert result.success_rate == 0.0


def _raises_alike(schedule: Schedule, config: EvaluatorConfig) -> None:
    evaluator = ScheduleEvaluator(config)
    with pytest.raises(NoiseModelError) as columnar:
        evaluator.evaluate(schedule)
    with pytest.raises(NoiseModelError) as reference:
        evaluator._evaluate_records(schedule)
    assert str(columnar.value) == str(reference.value)


def _slab_schedule(fill) -> Schedule:
    slab = OperationSlab()
    fill(slab)
    return Schedule.from_slab(linear_device(2, 6), "crafted", slab)


class TestInvalidInputs:
    def test_negative_separation_raises_for_separation_models(self):
        schedule = _slab_schedule(
            lambda slab: slab.append_gate(KIND_CODE_GATE_2Q, Gate("cx", (0, 1)), 0, 4, -1)
        )
        for implementation in ("pm", "am1", "am2"):
            _raises_alike(schedule, EvaluatorConfig(gate_implementation=implementation))
        # FM ignores the separation, in both walks.
        evaluator = ScheduleEvaluator(EvaluatorConfig(gate_implementation="fm"))
        assert repr(evaluator.evaluate(schedule)) == repr(evaluator._evaluate_records(schedule))

    def test_negative_swap_separation_raises_even_when_swaps_are_ignored(self):
        schedule = _slab_schedule(lambda slab: slab.append_swap(0, 0, 1, 4, -2))
        _raises_alike(schedule, EvaluatorConfig(gate_implementation="pm", ignore_swap_cost=True))

    def test_degenerate_shuttles_raise(self):
        for segments, junctions in ((0, 0), (2, -1)):
            schedule = _slab_schedule(
                lambda slab: slab.append_shuttle(0, 0, 1, segments, junctions, 3, 3)
            )
            _raises_alike(schedule, EvaluatorConfig())
            # Ignored shuttles are never timed, in both walks.
            evaluator = ScheduleEvaluator(EvaluatorConfig(ignore_shuttle_cost=True))
            assert repr(evaluator.evaluate(schedule)) == repr(
                evaluator._evaluate_records(schedule)
            )

    def test_unknown_record_type_raises(self):
        class Foreign(ScheduledOperation):
            __slots__ = ()

        schedule = Schedule(linear_device(2, 6), "foreign")
        schedule.append(GateOperation(Gate("cx", (0, 1)), trap=0, chain_length=4))
        schedule.appender()(Foreign())
        with pytest.raises(NoiseModelError):
            ScheduleEvaluator().evaluate(schedule)
        with pytest.raises(NoiseModelError):
            ScheduleEvaluator()._evaluate_records(schedule)


def test_evaluate_builds_no_record_objects(paper_sweep_schedules):
    schedule = schedule_from_bytes(schedule_to_bytes(paper_sweep_schedules[-1]))
    ScheduleEvaluator().evaluate(schedule)
    assert schedule._operations == []
