"""The compiled schedule: an ordered operation log plus summary counters.

A :class:`Schedule` is what every compiler in this library (S-SYNC and the
baselines) produces and what the noise evaluator, the metrics extraction
and the optimality analysis consume.  It is append-only during
compilation and immutable in spirit afterwards.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.exceptions import SchedulingError
from repro.hardware.device import QCCDDevice
from repro.schedule.operations import (
    GateOperation,
    OperationKind,
    OperationSlab,
    ScheduledOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)


class Schedule:
    """Ordered log of scheduled operations for one compiled circuit.

    The log is stored only as an
    :class:`~repro.schedule.operations.OperationSlab` of columnar arrays:
    every compiler appends plain integers into :attr:`slab`, and the
    binary codec serialises it wholesale, so no per-operation record
    object exists until somebody iterates the schedule.  The
    :class:`ScheduledOperation` records are then materialised from the
    columns and cached.  :meth:`append` takes a record and decomposes it
    into the columns (the JSON decoder and the naive scheduler core
    build records).
    """

    __slots__ = ("device", "circuit_name", "slab", "_records")

    def __init__(
        self,
        device: QCCDDevice,
        circuit_name: str = "circuit",
        slab: OperationSlab | None = None,
    ) -> None:
        self.device = device
        self.circuit_name = circuit_name
        #: The columnar operation log: producers append into it directly,
        #: and the binary decoder passes in the slab it filled.
        self.slab = OperationSlab() if slab is None else slab
        self._records: list[ScheduledOperation] = []

    def _materialized(self) -> list[ScheduledOperation]:
        """The record-object log, rebuilt from the slab after appends."""
        records = self._records
        if len(records) != len(self.slab):
            records = self._records = self.slab.materialize()
        return records

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, operation: ScheduledOperation) -> None:
        """Append one operation record to the log.

        Raises :class:`SchedulingError` for anything that is not one of
        the four record kinds the slab stores.
        """
        self.slab.append_operation(operation)

    def extend(self, operations: Iterator[ScheduledOperation] | list[ScheduledOperation]) -> None:
        """Append several operations in order."""
        for operation in operations:
            self.append(operation)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def operations(self) -> tuple[ScheduledOperation, ...]:
        """The full operation log in execution order."""
        return tuple(self._materialized())

    def __len__(self) -> int:
        return len(self.slab)

    def __iter__(self) -> Iterator[ScheduledOperation]:
        return iter(self._materialized())

    def __getitem__(self, index: int) -> ScheduledOperation:
        return self._materialized()[index]

    def operations_of_kind(self, kind: OperationKind) -> list[ScheduledOperation]:
        """All operations of one kind, in order."""
        return [op for op in self._materialized() if op.kind == kind]

    # ------------------------------------------------------------------
    # summary counters (the paper's primary metrics)
    # ------------------------------------------------------------------
    @property
    def _counts(self) -> "Counter[OperationKind]":
        """Per-kind operation counts, recounted off the kinds column.

        A C-speed byte count per kind, so it is not cached (and is immune
        to appends that write into the slab directly).
        """
        return self.slab.counts()

    @property
    def shuttle_count(self) -> int:
        """Number of inter-trap shuttles (the Fig. 8 metric)."""
        return self._counts[OperationKind.SHUTTLE]

    @property
    def swap_count(self) -> int:
        """Number of inserted SWAP gates (the Fig. 9 metric)."""
        return self._counts[OperationKind.SWAP]

    @property
    def two_qubit_gate_count(self) -> int:
        """Number of program two-qubit gates executed."""
        return self._counts[OperationKind.GATE_2Q]

    @property
    def single_qubit_gate_count(self) -> int:
        """Number of program single-qubit gates executed."""
        return self._counts[OperationKind.GATE_1Q]

    @property
    def space_shift_count(self) -> int:
        """Number of intra-trap ion/space reorderings."""
        return self._counts[OperationKind.SPACE_SHIFT]

    @property
    def junction_crossings(self) -> int:
        """Total junctions crossed by all shuttles."""
        return self.slab.junction_total()

    @property
    def shuttle_segments(self) -> int:
        """Total straight segments traversed by all shuttles."""
        return self.slab.segment_total()

    def count_summary(self) -> dict[str, int]:
        """All counters as a plain dictionary (for reporting)."""
        return {
            "two_qubit_gates": self.two_qubit_gate_count,
            "single_qubit_gates": self.single_qubit_gate_count,
            "swaps": self.swap_count,
            "shuttles": self.shuttle_count,
            "space_shifts": self.space_shift_count,
            "junction_crossings": self.junction_crossings,
            "shuttle_segments": self.shuttle_segments,
        }

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def executed_two_qubit_gates(self) -> list[GateOperation]:
        """The program two-qubit gates in execution order."""
        return [
            op
            for op in self._materialized()
            if isinstance(op, GateOperation) and op.kind == OperationKind.GATE_2Q
        ]

    def validate_against(self, expected_two_qubit_gates: int) -> None:
        """Check that every program two-qubit gate was scheduled exactly once."""
        actual = self.two_qubit_gate_count
        if actual != expected_two_qubit_gates:
            raise SchedulingError(
                f"schedule executes {actual} two-qubit gates but the circuit has "
                f"{expected_two_qubit_gates}"
            )

    def __repr__(self) -> str:
        return (
            f"Schedule(circuit={self.circuit_name!r}, device={self.device.name!r}, "
            f"gates2q={self.two_qubit_gate_count}, swaps={self.swap_count}, "
            f"shuttles={self.shuttle_count})"
        )


__all__ = [
    "GateOperation",
    "OperationKind",
    "OperationSlab",
    "Schedule",
    "ScheduledOperation",
    "ShuttleOperation",
    "SpaceShiftOperation",
    "SwapOperation",
]
