"""The S-SYNC compiler facade — the library's primary public entry point.

Typical use::

    from repro import SSyncCompiler, paper_device, qft_circuit

    device = paper_device("G-2x3")
    compiler = SSyncCompiler(device)
    result = compiler.compile(qft_circuit(16), initial_mapping="gathering")
    print(result.shuttle_count, result.swap_count)

The compiler is a thin assembly over the pass pipeline
(:mod:`repro.pipeline`): an
:class:`~repro.pipeline.InitialMappingPass` carrying the config's
mapping knobs (§3.4), a :class:`~repro.pipeline.SchedulingPass` wrapping
the generic-swap scheduler (§3.2–3.3) and a
:class:`~repro.pipeline.MetricsPass`.  The pipeline measures per-pass
wall time and assembles the result.  Evaluation (success rate, execution
time) is a separate step via :func:`repro.noise.evaluate_schedule`, so
one compiled schedule can be scored under several gate implementations
or heating assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.circuit.circuit import QuantumCircuit
from repro.core.mapping import InitialMapper, get_mapper
from repro.core.result import CompilationResult
from repro.core.scheduler import GenericSwapScheduler, SchedulerConfig
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.device import QCCDDevice
from repro.hardware.graph import GraphWeights
from repro.pipeline import CompilerPipeline, InitialMappingPass, MetricsPass, SchedulingPass


@dataclass(frozen=True)
class SSyncConfig:
    """Complete S-SYNC configuration: scheduler knobs plus mapping defaults."""

    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    default_mapping: str = "gathering"
    mapping_reserve_per_trap: int = 1
    mapping_lookahead_layers: int = 8

    def __post_init__(self) -> None:
        # Manifests build configs from untyped JSON: reject ill-typed
        # values here, as a SchedulingError, before any compile reads them.
        if not isinstance(self.default_mapping, str):
            raise SchedulingError(
                f"default_mapping must be a str, not {type(self.default_mapping).__name__}"
            )
        for name, minimum in (("mapping_reserve_per_trap", 0), ("mapping_lookahead_layers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchedulingError(f"{name} must be an int, not {type(value).__name__}")
            if value < minimum:
                raise SchedulingError(f"{name} must be at least {minimum}, not {value}")

    def with_weight_ratio(self, ratio: float) -> "SSyncConfig":
        """Return a config whose shuttle/inner weight ratio is ``ratio`` (Fig. 14)."""
        new_weights = self.scheduler.weights.with_ratio(ratio)
        return replace(self, scheduler=replace(self.scheduler, weights=new_weights))

    def with_decay(self, delta: float) -> "SSyncConfig":
        """Return a config with a different decay δ (Fig. 14)."""
        return replace(self, scheduler=replace(self.scheduler, decay_delta=delta))

    def with_weights(self, weights: GraphWeights) -> "SSyncConfig":
        """Return a config with explicit graph weights."""
        return replace(self, scheduler=replace(self.scheduler, weights=weights))


class SSyncCompiler:
    """Shuttle/SWAP co-optimizing compiler for QCCD devices."""

    name = "s-sync"

    def __init__(self, device: QCCDDevice, config: SSyncConfig | None = None) -> None:
        self.device = device
        self.config = config or SSyncConfig()
        self._scheduler = GenericSwapScheduler(device, self.config.scheduler)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def pipeline(self) -> CompilerPipeline:
        """The pass pipeline this compiler assembles.

        Mapping resolution, routing and metrics — callers can extend it
        (e.g. ``.with_verification()``) before compiling.
        """
        return CompilerPipeline(
            self.name,
            self.device,
            (
                InitialMappingPass(self._resolve_mapper),
                SchedulingPass(self._scheduler),
                MetricsPass(),
            ),
        )

    def build_initial_state(
        self, circuit: QuantumCircuit, initial_mapping: "str | InitialMapper | None" = None
    ) -> DeviceState:
        """Run only the initial-mapping stage and return the starting occupancy."""
        mapper = self._resolve_mapper(initial_mapping)
        return mapper.map(circuit, self.device)

    def compile(
        self,
        circuit: QuantumCircuit,
        initial_mapping: "str | InitialMapper | None" = None,
        initial_state: DeviceState | None = None,
    ) -> CompilationResult:
        """Compile ``circuit`` onto this compiler's device.

        Parameters
        ----------
        circuit:
            The program to schedule.
        initial_mapping:
            First-level mapping strategy name (``"gathering"``,
            ``"even-divided"``, ``"sta"``) or an :class:`InitialMapper`
            instance.
        initial_state:
            A pre-built starting occupancy (e.g. to chain circuits or to
            study hand-crafted placements).  Supplying both arguments is
            contradictory: the state wins, a :class:`UserWarning` is
            emitted, and the result records the named mapping it was
            asked for rather than silently reporting ``"custom"``.
        """
        return self.pipeline().compile(
            circuit, initial_mapping=initial_mapping, initial_state=initial_state
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_mapper(self, initial_mapping: "str | InitialMapper | None") -> InitialMapper:
        if isinstance(initial_mapping, InitialMapper):
            return initial_mapping
        name = initial_mapping or self.config.default_mapping
        try:
            return get_mapper(
                name,
                reserve_per_trap=self.config.mapping_reserve_per_trap,
                intra_trap_lookahead=self.config.mapping_lookahead_layers,
            )
        except TypeError as exc:  # pragma: no cover - defensive
            raise SchedulingError(f"could not instantiate mapper {name!r}") from exc


def compile_circuit(
    circuit: QuantumCircuit,
    device: QCCDDevice,
    initial_mapping: str = "gathering",
    config: SSyncConfig | None = None,
) -> CompilationResult:
    """One-call convenience wrapper: build the compiler and compile."""
    return SSyncCompiler(device, config).compile(circuit, initial_mapping=initial_mapping)
