"""Ablation studies of S-SYNC's design choices.

The scheduler combines several ingredients on top of the plain
distance heuristic: the decay penalty (§3.3), the blocked-trap penalty
(Eq. 2), the two-level initial mapping with intra-trap mountain ordering
(Eq. 3), and — in this reproduction — a shallow DAG lookahead.  The
functions here compile the same workload with individual ingredients
switched off, so their contribution to shuttle/SWAP counts and success
rate can be quantified (the "ablation benches" called out in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.core.compiler import SSyncCompiler, SSyncConfig
from repro.core.mapping import GatheringMapper, InitialMapper
from repro.core.mapping.base import check_fit
from repro.core.scheduler import SchedulerConfig
from repro.core.state import DeviceState
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.noise.evaluator import evaluate_schedule
from repro.noise.gate_times import GateImplementation


@dataclass(frozen=True)
class AblationRecord:
    """Metrics of one compiler variant on one workload."""

    variant: str
    circuit: str
    device: str
    shuttles: int
    swaps: int
    success_rate: float
    execution_time_us: float
    compile_time_s: float

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary for reporting."""
        return {
            "variant": self.variant,
            "circuit": self.circuit,
            "device": self.device,
            "shuttles": self.shuttles,
            "swaps": self.swaps,
            "success_rate": self.success_rate,
            "execution_time_us": self.execution_time_us,
            "compile_time_s": self.compile_time_s,
        }


class _FirstFitMapper(InitialMapper):
    """Gathering trap assignment without the Eq.-3 mountain ordering.

    Used by the ``no-mountain-order`` ablation variant: qubits keep their
    program order inside each trap, so the contribution of the intra-trap
    second-level mapping can be isolated.
    """

    name = "gathering-no-mountain"

    def assign_traps(self, circuit: QuantumCircuit, device: QCCDDevice) -> dict[int, list[int]]:
        return GatheringMapper(
            reserve_per_trap=self.reserve_per_trap,
            intra_trap_lookahead=self.intra_trap_lookahead,
        ).assign_traps(circuit, device)

    def map(self, circuit: QuantumCircuit, device: QCCDDevice) -> DeviceState:
        check_fit(circuit, device)
        assignment = self.assign_traps(circuit, device)
        self._check_assignment(circuit, device, assignment)
        # Skip the mountain ordering: chains keep ascending program order.
        return DeviceState.from_mapping(device, {t: sorted(qs) for t, qs in assignment.items()})


def default_variants(base: SSyncConfig | None = None) -> dict[str, SSyncConfig | tuple[SSyncConfig, InitialMapper]]:
    """The standard ablation variants keyed by name.

    ``full``             — the default configuration;
    ``no-lookahead``     — the paper-faithful frontier-only heuristic;
    ``no-decay``         — decay penalty disabled (δ = 0);
    ``no-mountain-order``— gathering mapping without Eq.-3 intra-trap ordering;
    ``greedy-weights``   — shuttle and SWAP weights equalised, removing the
                           co-optimization pressure between the two.
    """
    base = base or SSyncConfig()
    equal_weights = base.scheduler.weights
    equal_weights = replace(
        equal_weights, inner_weight=equal_weights.shuttle_weight / 2.0,
        threshold=equal_weights.shuttle_weight * 0.75,
    )
    return {
        "full": base,
        "no-lookahead": replace(base, scheduler=replace(base.scheduler, lookahead_depth=0)),
        "no-decay": base.with_decay(0.0),
        "no-mountain-order": (base, _FirstFitMapper()),
        "greedy-weights": replace(base, scheduler=replace(base.scheduler, weights=equal_weights)),
    }


def run_ablation(
    circuit: QuantumCircuit,
    device: QCCDDevice,
    variants: dict[str, SSyncConfig | tuple[SSyncConfig, InitialMapper]] | None = None,
    gate_implementation: GateImplementation | str = GateImplementation.FM,
) -> list[AblationRecord]:
    """Compile ``circuit`` once per variant and collect the paper's metrics."""
    variants = variants if variants is not None else default_variants()
    if not variants:
        raise ReproError("run_ablation needs at least one variant")
    records: list[AblationRecord] = []
    for name, spec in variants.items():
        if isinstance(spec, tuple):
            config, mapper = spec
        else:
            config, mapper = spec, None
        compiler = SSyncCompiler(device, config)
        result = compiler.compile(circuit, initial_mapping=mapper)
        evaluation = evaluate_schedule(result.schedule, gate_implementation=gate_implementation)
        records.append(
            AblationRecord(
                variant=name,
                circuit=circuit.name,
                device=device.name,
                shuttles=result.shuttle_count,
                swaps=result.swap_count,
                success_rate=evaluation.success_rate,
                execution_time_us=evaluation.execution_time_us,
                compile_time_s=result.compile_time_s,
            )
        )
    return records


def ablation_summary(records: Sequence[AblationRecord]) -> dict[str, float]:
    """Relative shuttle overhead of every variant versus the ``full`` variant."""
    by_variant = {record.variant: record for record in records}
    if "full" not in by_variant:
        raise ReproError("ablation_summary expects a 'full' variant record")
    full = by_variant["full"]
    baseline = max(full.shuttles, 1)
    return {
        name: record.shuttles / baseline for name, record in by_variant.items()
    }
