"""The pass-pipeline compilation architecture.

Every compiler in this library — S-SYNC, the Murali/Dai baselines, and
any third-party backend registered through
:func:`repro.registry.register_compiler` — is assembled from the same
shape: a :class:`CompilerPipeline` running an ordered list of
:class:`Pass` stages over a shared :class:`PassContext`:

1. a **mapping pass** places the program qubits
   (:class:`InitialMappingPass` for S-SYNC's pluggable first-level
   mappers, a baseline's own mapping pass otherwise);
2. a **routing pass** produces the operation log (the generic-swap
   scheduler via :class:`SchedulingPass`, or a greedy baseline router);
3. an optional :class:`VerifySchedulePass` replays the log and checks
   physical legality;
4. a :class:`MetricsPass` cross-checks the executed gate count and
   records the headline counters.

The pipeline times every pass (:class:`~repro.core.result.PassTiming`)
and assembles the :class:`~repro.core.result.CompilationResult`, so all
compilers get per-pass profiling and identical result semantics for
free.  Pipelines are one-shot per ``compile`` call context-wise but hold
no per-circuit state themselves, so one pipeline instance can compile
any number of circuits.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.circuit.circuit import QuantumCircuit
from repro.core.mapping import InitialMapper
from repro.core.result import CompilationResult, PassTiming
from repro.core.scheduler import SCHEDULER_BACKENDS, SchedulerStatistics
from repro.core.state import DeviceState
from repro.exceptions import CircuitError, SchedulingError
from repro.hardware.device import QCCDDevice
from repro.schedule.schedule import Schedule
from repro.schedule.verify import verify_schedule


@dataclass
class PassContext:
    """Mutable state threaded through the passes of one compilation.

    A pass reads the fields earlier passes populated and writes the ones
    it owns: mapping passes set ``initial_state``/``state`` and
    ``mapping_name``, routing passes consume ``state`` and set
    ``schedule``/``final_state``/``statistics``, verification and metrics
    passes only read.  ``metadata`` is a free-form scratch area for
    custom passes.
    """

    circuit: QuantumCircuit
    device: QCCDDevice
    compiler_name: str
    requested_mapping: "str | InitialMapper | None" = None
    mapping_name: str = ""
    initial_state: DeviceState | None = None
    state: DeviceState | None = None
    schedule: Schedule | None = None
    final_state: DeviceState | None = None
    statistics: SchedulerStatistics = field(default_factory=SchedulerStatistics)
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Two-qubit gates in ``circuit``: :meth:`CompilerPipeline.compile`
    #: counts them while checking every gate's width, and the metrics
    #: pass checks the schedule against the count.
    two_qubit_gates: int = 0

    def require_state(self) -> DeviceState:
        """The working placement (raises if no mapping pass ran yet)."""
        if self.state is None:
            raise SchedulingError(
                "no qubit placement available: a mapping pass must run before "
                "the routing pass"
            )
        return self.state

    def require_schedule(self) -> Schedule:
        """The compiled schedule (raises if no routing pass ran yet)."""
        if self.schedule is None:
            raise SchedulingError(
                "no schedule available: a routing pass must run before "
                "verification/metrics passes"
            )
        return self.schedule


class Pass:
    """One pipeline stage.

    Subclasses implement :meth:`run` (mutating the context) and may
    override :meth:`statistics` to report counters into the pass's
    :class:`~repro.core.result.PassTiming` record.
    """

    #: Stable pass name used in timings and pipeline surgery.
    name: str = "pass"

    def run(self, context: PassContext) -> None:
        """Execute this stage on ``context``."""
        raise NotImplementedError

    def statistics(self, context: PassContext) -> dict[str, Any]:
        """Counters to record alongside this pass's wall time."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# built-in passes
# ----------------------------------------------------------------------
class InitialMappingPass(Pass):
    """Resolve and run a first-level initial mapper.

    The resolver callable turns the caller's ``initial_mapping`` request
    (a strategy name, an :class:`InitialMapper` instance, or ``None`` for
    the compiler's default) into a mapper — for S-SYNC that is
    :meth:`SSyncCompiler._resolve_mapper`, which carries the config's
    reserve/lookahead knobs.  When the caller supplied a pre-built
    ``initial_state`` the pipeline has already populated the context and
    this pass is a no-op.
    """

    name = "initial-mapping"

    def __init__(self, resolver) -> None:
        self._resolver = resolver

    def run(self, context: PassContext) -> None:
        if context.state is not None:  # caller-supplied starting occupancy
            return
        mapper = self._resolver(context.requested_mapping)
        mapped = mapper.map(context.circuit, context.device)
        context.initial_state = mapped
        context.state = mapped.copy()
        context.mapping_name = mapper.name

    def statistics(self, context: PassContext) -> dict[str, Any]:
        return {"mapping": context.mapping_name}


@runtime_checkable
class SchedulerLike(Protocol):
    """Anything that can route a circuit from a starting occupancy."""

    def run(
        self, circuit: QuantumCircuit, initial_state: DeviceState
    ) -> "tuple[Schedule, DeviceState, SchedulerStatistics]":
        ...


class SchedulingPass(Pass):
    """Run a scheduler (the generic-swap loop) as the routing stage."""

    name = "routing"

    def __init__(self, scheduler: SchedulerLike) -> None:
        self.scheduler = scheduler

    def run(self, context: PassContext) -> None:
        schedule, final_state, statistics = self.scheduler.run(
            context.circuit, context.require_state()
        )
        context.schedule = schedule
        context.final_state = final_state
        context.statistics = statistics

    def statistics(self, context: PassContext) -> dict[str, Any]:
        stats = context.statistics
        data = {
            "generic_swap_iterations": stats.generic_swap_iterations,
            "forced_routes": stats.forced_routes,
            "candidate_evaluations": stats.candidate_evaluations,
            "executed_two_qubit_gates": stats.executed_two_qubit_gates,
        }
        config = getattr(self.scheduler, "config", None)
        backend = getattr(config, "backend", None)
        if backend is not None:
            # Surface which scheduler core routed this circuit, so the
            # compile-time benchmarks and batch records can attribute
            # timings end-to-end.  SchedulerConfig.__post_init__ resolved
            # the backend exactly once; anything else here means a config
            # bypassed that resolution.
            assert backend in SCHEDULER_BACKENDS, f"unresolved scheduler backend {backend!r}"
            data["scheduler_core"] = backend
        return data


class VerifySchedulePass(Pass):
    """Replay the schedule and check physical legality (optional stage)."""

    name = "verify"

    def __init__(self, check_context: bool = True) -> None:
        self.check_context = check_context

    def run(self, context: PassContext) -> None:
        if context.initial_state is None:
            raise SchedulingError("cannot verify a schedule without its initial state")
        report = verify_schedule(
            context.require_schedule(),
            context.initial_state,
            circuit=context.circuit,
            check_context=self.check_context,
        )
        context.metadata["verification"] = {
            "operations_checked": report.operations_checked,
            "two_qubit_gates": report.two_qubit_gates,
            "swaps": report.swaps,
            "shuttles": report.shuttles,
        }

    def statistics(self, context: PassContext) -> dict[str, Any]:
        return dict(context.metadata.get("verification", {}))


class MetricsPass(Pass):
    """Cross-check gate counts and record the headline schedule metrics."""

    name = "metrics"

    def run(self, context: PassContext) -> None:
        schedule = context.require_schedule()
        schedule.validate_against(context.two_qubit_gates)
        context.metadata["metrics"] = {
            "operations": len(schedule),
            "shuttles": schedule.shuttle_count,
            "swaps": schedule.swap_count,
            "two_qubit_gates": schedule.two_qubit_gate_count,
        }

    def statistics(self, context: PassContext) -> dict[str, Any]:
        return dict(context.metadata.get("metrics", {}))


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def _count_two_qubit_gates(circuit: QuantumCircuit) -> int:
    """The circuit's two-qubit gate count; rejects gates on three or more qubits.

    Every router executes one- and two-qubit gates only, so a wider gate
    (an undecomposed ``ccx``, say) would drop out of the schedule without
    a trace.
    """
    count = 0
    for index, gate in enumerate(circuit):
        if gate.is_two_qubit:
            count += 1
        elif not gate.is_single_qubit:
            raise CircuitError(
                f"gate #{index} ({gate}) acts on {len(gate.qubits)} qubits; the compilers "
                "route one- and two-qubit gates only, so decompose it first"
            )
    return count


class CompilerPipeline:
    """An ordered list of passes that compiles circuits on one device.

    This is the single compilation engine behind every compiler:
    :class:`~repro.core.compiler.SSyncCompiler` and the baselines are
    thin assemblies that pick the passes, and the registry
    (:mod:`repro.registry`) hands pipelines to the batch runtime, the
    sweeps and the CLI.
    """

    def __init__(self, name: str, device: QCCDDevice, passes: Sequence[Pass]) -> None:
        if not passes:
            raise SchedulingError("a compiler pipeline needs at least one pass")
        self.name = name
        self.device = device
        self.passes: tuple[Pass, ...] = tuple(passes)

    # ------------------------------------------------------------------
    # assembly helpers
    # ------------------------------------------------------------------
    def pass_names(self) -> tuple[str, ...]:
        """The ordered pass names (for introspection and CLI listings)."""
        return tuple(p.name for p in self.passes)

    def with_pass(self, new_pass: Pass, before: str | None = None) -> "CompilerPipeline":
        """A new pipeline with ``new_pass`` inserted.

        ``before`` names the pass to insert in front of; ``None`` appends.
        Raises :class:`SchedulingError` when ``before`` names no pass.
        """
        if before is None:
            return CompilerPipeline(self.name, self.device, (*self.passes, new_pass))
        for index, existing in enumerate(self.passes):
            if existing.name == before:
                passes = (*self.passes[:index], new_pass, *self.passes[index:])
                return CompilerPipeline(self.name, self.device, passes)
        raise SchedulingError(
            f"pipeline {self.name!r} has no pass named {before!r} "
            f"(passes: {', '.join(self.pass_names())})"
        )

    def with_verification(self, check_context: bool = True) -> "CompilerPipeline":
        """A new pipeline with a :class:`VerifySchedulePass` before metrics.

        When the pipeline has no metrics pass the verification stage is
        appended; an existing verify pass is kept as-is.
        """
        if "verify" in self.pass_names():
            return self
        verify = VerifySchedulePass(check_context=check_context)
        if "metrics" in self.pass_names():
            return self.with_pass(verify, before="metrics")
        return self.with_pass(verify)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        circuit: QuantumCircuit,
        initial_mapping: "str | InitialMapper | None" = None,
        initial_state: DeviceState | None = None,
    ) -> CompilationResult:
        """Run every pass in order and assemble the result.

        ``initial_mapping`` and ``initial_state`` follow the established
        compiler semantics: a pre-built state wins over a named mapping
        (with a :class:`UserWarning`, recording the requested mapping
        name), and the state is never mutated.
        """
        start = time.perf_counter()
        context = PassContext(
            circuit=circuit,
            device=self.device,
            compiler_name=self.name,
            two_qubit_gates=_count_two_qubit_gates(circuit),
            requested_mapping=initial_mapping,
        )
        if initial_state is not None:
            context.initial_state = initial_state.copy()
            context.state = context.initial_state.copy()
            context.mapping_name = self._conflicting_mapping_name(initial_mapping)

        timings: list[PassTiming] = []
        for stage in self.passes:
            stage_start = time.perf_counter()
            stage.run(context)
            elapsed = time.perf_counter() - stage_start
            timings.append(PassTiming(stage.name, elapsed, stage.statistics(context)))

        if context.schedule is None or context.initial_state is None:
            raise SchedulingError(
                f"pipeline {self.name!r} produced no schedule; it needs a mapping "
                "pass and a routing pass"
            )
        final_state = context.final_state if context.final_state is not None else context.state
        assert final_state is not None
        return CompilationResult(
            schedule=context.schedule,
            initial_state=context.initial_state,
            final_state=final_state,
            compiler_name=self.name,
            mapping_name=context.mapping_name,
            compile_time_s=time.perf_counter() - start,
            statistics=context.statistics,
            pass_timings=tuple(timings),
        )

    @staticmethod
    def _conflicting_mapping_name(initial_mapping: "str | InitialMapper | None") -> str:
        """Mapping name to record when a pre-built state was supplied."""
        if initial_mapping is None:
            return "custom"
        mapping_name = (
            initial_mapping.name
            if isinstance(initial_mapping, InitialMapper)
            else str(initial_mapping)
        )
        warnings.warn(
            f"both initial_mapping={mapping_name!r} and initial_state were "
            "supplied; the explicit initial_state takes precedence and the "
            "mapper is not run",
            stacklevel=4,
        )
        return mapping_name

    def __repr__(self) -> str:
        return (
            f"CompilerPipeline(name={self.name!r}, device={self.device.name!r}, "
            f"passes=[{', '.join(self.pass_names())}])"
        )
