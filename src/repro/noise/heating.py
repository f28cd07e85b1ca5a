"""Motional heating model for QCCD transport (paper §4.1, "Success Rate").

Transport operations heat the ion chain: splitting or merging a chain
adds ``k1`` quanta of motional energy and every shuttled segment adds
``k2`` quanta, increasing the mean phonon occupation ``n̄`` of the traps
involved.  Subsequent two-qubit gates in a hot trap are less faithful —
the fidelity model multiplies the occupation by a chain-length-dependent
scale factor ``A ∝ N / ln N`` (thermal laser-beam instability).

The paper uses ``k1 = 0.1``, ``k2 = 0.01`` and a constant background
heating rate ``Γ = 1`` (per second), matching Murali et al. [48].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import NoiseModelError
from repro.schema import check_fields, rule


@dataclass(frozen=True)
class HeatingParameters:
    """Constants of the heating model (paper defaults)."""

    #: Quanta added to n̄ by one split or one merge operation.
    k1: float = field(default=0.1, metadata=rule("number", minimum=0))
    #: Quanta added to n̄ per shuttled segment (and per junction crossing).
    k2: float = field(default=0.01, metadata=rule("number", minimum=0))
    #: Background heating rate Γ in s⁻¹.
    background_rate_per_s: float = field(default=1.0, metadata=rule("number", minimum=0))
    #: Calibration constant A₀ of A = A₀ · N / ln N.
    amplitude_scale: float = field(default=1.0e-4, metadata=rule("number", above=0))

    def __post_init__(self) -> None:
        check_fields(self, NoiseModelError)

    def amplitude_factor(self, chain_length: int) -> float:
        """The scale factor A = A₀ · N / ln N for a chain of N ions."""
        if chain_length < 1:
            raise NoiseModelError("chain length must be at least 1")
        if chain_length == 1:
            return self.amplitude_scale
        return self.amplitude_scale * chain_length / math.log(chain_length)


#: Module-level default using the paper's constants.
PAPER_HEATING = HeatingParameters()


@dataclass
class TrapThermalState:
    """Mutable thermal record of one trap during schedule evaluation."""

    mean_phonon: float = 0.0
    #: Accumulated transport/idle time (µs) since the last gate on this trap.
    accumulated_time_us: float = 0.0
    total_splits: int = 0
    total_merges: int = 0
    total_segments: int = 0

    def record_split(self, params: HeatingParameters) -> None:
        """Apply the heating of one chain split."""
        self.mean_phonon += params.k1
        self.total_splits += 1

    def record_merge(self, params: HeatingParameters) -> None:
        """Apply the heating of one chain merge."""
        self.mean_phonon += params.k1
        self.total_merges += 1

    def record_transport(self, params: HeatingParameters, segments: int, junctions: int = 0) -> None:
        """Apply the heating of moving through segments and junctions."""
        if segments < 0 or junctions < 0:
            raise NoiseModelError("segments and junctions cannot be negative")
        self.mean_phonon += params.k2 * (segments + junctions)
        self.total_segments += segments

    def record_idle(self, duration_us: float) -> None:
        """Accumulate transport / waiting time attributed to this trap."""
        if duration_us < 0:
            raise NoiseModelError("durations cannot be negative")
        self.accumulated_time_us += duration_us

    def consume_accumulated_time(self) -> float:
        """Return and reset the accumulated transport time (used at gate time)."""
        value = self.accumulated_time_us
        self.accumulated_time_us = 0.0
        return value


@dataclass
class ThermalLedger:
    """Per-trap thermal state for a whole device."""

    params: HeatingParameters = field(default_factory=HeatingParameters)
    _traps: dict[int, TrapThermalState] = field(default_factory=dict)

    def trap(self, trap_id: int) -> TrapThermalState:
        """The thermal state of one trap (created on first access)."""
        if trap_id not in self._traps:
            self._traps[trap_id] = TrapThermalState()
        return self._traps[trap_id]

    def record_shuttle(self, source_trap: int, target_trap: int, segments: int, junctions: int) -> None:
        """Apply the full heating of one shuttle: split at source, transport, merge at target."""
        self.trap(source_trap).record_split(self.params)
        self.trap(target_trap).record_merge(self.params)
        # The ion being moved carries its motional energy into the target chain.
        self.trap(target_trap).record_transport(self.params, segments, junctions)

    def mean_phonon(self, trap_id: int) -> float:
        """Current n̄ of a trap."""
        return self.trap(trap_id).mean_phonon

    def total_phonon(self) -> float:
        """Sum of n̄ over all traps (diagnostic)."""
        return sum(state.mean_phonon for state in self._traps.values())
