"""Comparison metrics: run several compilers on one workload and tabulate.

This is the machinery behind Figs. 8–10: for a (circuit, device) pair it
compiles with S-SYNC and the baselines, evaluates every schedule under
the same noise configuration, and returns one record per compiler with
the paper's metrics (shuttles, SWAPs, success rate, execution time,
compile time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.circuit import QuantumCircuit
from repro.core.compiler import SSyncConfig
from repro.core.result import CompilationResult
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.noise.evaluator import EvaluationResult
from repro.noise.gate_times import GateImplementation
from repro.noise.heating import HeatingParameters
from repro.runtime.api import run_batch
from repro.runtime.cache import ScheduleCache
from repro.runtime.jobs import CompileJob, compile_job


@dataclass(frozen=True)
class ComparisonRecord:
    """One compiler's results on one (circuit, device) pair."""

    circuit: str
    device: str
    compiler: str
    shuttles: int
    swaps: int
    two_qubit_gates: int
    success_rate: float
    log_success_rate: float
    execution_time_us: float
    compile_time_s: float

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary for reporting."""
        return {
            "circuit": self.circuit,
            "device": self.device,
            "compiler": self.compiler,
            "shuttles": self.shuttles,
            "swaps": self.swaps,
            "two_qubit_gates": self.two_qubit_gates,
            "success_rate": self.success_rate,
            "log_success_rate": self.log_success_rate,
            "execution_time_us": self.execution_time_us,
            "compile_time_s": self.compile_time_s,
        }


#: The compiler line-up of Figs. 8–10, in the paper's plotting order.
DEFAULT_COMPILER_NAMES = ("murali", "dai", "s-sync")


def compile_with(
    name: str,
    circuit: QuantumCircuit,
    device: QCCDDevice,
    ssync_config: SSyncConfig | None = None,
    initial_mapping: str | None = None,
) -> CompilationResult:
    """Compile ``circuit`` with any registered compiler by name.

    The name dispatch (including aliases) lives in :mod:`repro.registry`
    so every entry point — including compilers added via
    :func:`repro.registry.register_compiler` — accepts the same names.
    """
    return compile_job(
        CompileJob(
            circuit=circuit,
            device=device,
            compiler=name,
            initial_mapping=initial_mapping,
            config=ssync_config,
        )
    )


def record_from_result(
    result: CompilationResult, evaluation: EvaluationResult
) -> ComparisonRecord:
    """Fuse a compilation result and its evaluation into one record."""
    return ComparisonRecord(
        circuit=result.schedule.circuit_name,
        device=result.schedule.device.name,
        compiler=result.compiler_name,
        shuttles=result.shuttle_count,
        swaps=result.swap_count,
        two_qubit_gates=result.two_qubit_gate_count,
        success_rate=evaluation.success_rate,
        log_success_rate=evaluation.log_success_rate,
        execution_time_us=evaluation.execution_time_us,
        compile_time_s=result.compile_time_s,
    )


def compare_compilers(
    circuit: QuantumCircuit,
    device: QCCDDevice,
    compilers: tuple[str, ...] = DEFAULT_COMPILER_NAMES,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
    heating: HeatingParameters | None = None,
    ssync_config: SSyncConfig | None = None,
    initial_mapping: str | None = None,
    workers: int | None = 1,
    cache: "ScheduleCache | None" = None,
) -> list[ComparisonRecord]:
    """Compile and evaluate ``circuit`` on ``device`` with every compiler.

    Runs through the batch runtime: with ``workers > 1`` the compilers
    compile in parallel processes, and a shared ``cache`` lets repeated
    comparisons skip compilation entirely.
    """
    jobs = [
        CompileJob(
            circuit=circuit,
            device=device,
            compiler=name,
            initial_mapping=initial_mapping,
            config=ssync_config,
            gate_implementation=gate_implementation,
            heating=heating,
            label=name,
        )
        for name in compilers
    ]
    result = run_batch(jobs, workers=workers, cache=cache)
    return [
        ComparisonRecord(
            circuit=str(row["circuit"]),
            device=str(row["device"]),
            compiler=str(row["compiler"]),
            shuttles=int(row["shuttles"]),  # type: ignore[arg-type]
            swaps=int(row["swaps"]),  # type: ignore[arg-type]
            two_qubit_gates=int(row["two_qubit_gates"]),  # type: ignore[arg-type]
            success_rate=float(row["success_rate"]),  # type: ignore[arg-type]
            log_success_rate=float(row["log_success_rate"]),  # type: ignore[arg-type]
            execution_time_us=float(row["execution_time_us"]),  # type: ignore[arg-type]
            compile_time_s=float(row["compile_time_s"]),  # type: ignore[arg-type]
        )
        for row in result.as_dicts()
    ]


def improvement_factors(records: list[ComparisonRecord]) -> dict[str, float]:
    """Headline ratios of the paper: baseline-vs-S-SYNC shuttle and success-rate factors.

    Returns ``shuttle_reduction`` (average baseline shuttles / S-SYNC
    shuttles) and ``success_rate_gain`` (average S-SYNC success rate /
    baseline success rate), computed against the best baseline record in
    the list for each metric.
    """
    ssync = [r for r in records if r.compiler == "s-sync"]
    baselines = [r for r in records if r.compiler != "s-sync"]
    if not ssync or not baselines:
        raise ReproError("improvement factors need both an S-SYNC record and a baseline record")
    ours = ssync[0]
    shuttle_ratios = [
        r.shuttles / ours.shuttles for r in baselines if ours.shuttles > 0
    ]
    success_ratios = [
        ours.success_rate / r.success_rate for r in baselines if r.success_rate > 0
    ]
    return {
        "shuttle_reduction": (sum(shuttle_ratios) / len(shuttle_ratios)) if shuttle_ratios else float("inf"),
        "success_rate_gain": (sum(success_ratios) / len(success_ratios)) if success_ratios else float("inf"),
    }
