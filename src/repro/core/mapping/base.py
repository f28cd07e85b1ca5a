"""Initial mapping interfaces (paper §3.4, first level of the hierarchy).

An initial mapping assigns every program qubit of a circuit to a trap and
to a position inside that trap's chain.  The paper splits this into two
levels: a *first level* that distributes qubits over traps (even-divided,
gathering, or STA) and a *second level* that orders the qubits inside
each trap (the "mountain" arrangement of Eq. 3, implemented in
:mod:`repro.core.mapping.intra_trap`).

Every strategy produces a :class:`repro.core.state.DeviceState`, which is
the scheduler's starting occupancy.
"""

from __future__ import annotations

import abc

from repro.circuit.circuit import QuantumCircuit
from repro.core.mapping.intra_trap import mountain_order
from repro.core.state import DeviceState
from repro.exceptions import MappingError
from repro.hardware.device import QCCDDevice


def check_fit(circuit: QuantumCircuit, device: QCCDDevice) -> None:
    """Raise :class:`MappingError` unless ``circuit`` can run on ``device``.

    Every compiler checks this before it builds an initial mapping: the
    qubits must leave at least one slot free for routing, and a circuit
    with two-qubit gates needs a trap that can hold two ions.
    """
    if circuit.num_qubits > device.total_capacity:
        raise MappingError(
            f"circuit needs {circuit.num_qubits} qubits but the device only has "
            f"{device.total_capacity} slots"
        )
    if circuit.num_qubits >= device.total_capacity:
        raise MappingError(
            "the device needs at least one free slot for routing; "
            f"{circuit.num_qubits} qubits fill all {device.total_capacity} slots"
        )
    # Note: the per-trap reservation is a soft preference — strategies may
    # spill into reserved slots when the circuit would not otherwise fit,
    # as long as at least one slot in the whole device stays free.
    if max(trap.capacity for trap in device.traps) < 2 and circuit.num_two_qubit_gates:
        raise MappingError(
            "no trap of the device holds two ions, so the circuit's two-qubit gates cannot run"
        )


class InitialMapper(abc.ABC):
    """Base class for first-level trap-assignment strategies."""

    #: Human-readable strategy name used in reports and sweeps.
    name: str = "base"

    def __init__(self, reserve_per_trap: int = 1, intra_trap_lookahead: int = 8) -> None:
        if reserve_per_trap < 0:
            raise MappingError("reserve_per_trap cannot be negative")
        if intra_trap_lookahead < 1:
            raise MappingError("intra_trap_lookahead must be at least 1")
        self.reserve_per_trap = reserve_per_trap
        self.intra_trap_lookahead = intra_trap_lookahead

    # ------------------------------------------------------------------
    # template method
    # ------------------------------------------------------------------
    def map(self, circuit: QuantumCircuit, device: QCCDDevice) -> DeviceState:
        """Produce the initial occupancy for ``circuit`` on ``device``."""
        check_fit(circuit, device)
        assignment = self.assign_traps(circuit, device)
        self._check_assignment(circuit, device, assignment)
        ordered = {
            trap_id: mountain_order(circuit, qubits, set(qubits), self.intra_trap_lookahead)
            for trap_id, qubits in assignment.items()
        }
        return DeviceState.from_mapping(device, ordered)

    @abc.abstractmethod
    def assign_traps(self, circuit: QuantumCircuit, device: QCCDDevice) -> dict[int, list[int]]:
        """First level: return a trap → program-qubit-list assignment."""

    # ------------------------------------------------------------------
    # shared validation
    # ------------------------------------------------------------------
    def usable_capacity(self, device: QCCDDevice, trap_id: int) -> int:
        """Capacity of a trap after reserving slots for incoming ions."""
        return max(device.capacity(trap_id) - self.reserve_per_trap, 0)

    def _check_assignment(
        self, circuit: QuantumCircuit, device: QCCDDevice, assignment: dict[int, list[int]]
    ) -> None:
        placed: list[int] = []
        for trap_id, qubits in assignment.items():
            if len(qubits) > device.capacity(trap_id):
                raise MappingError(
                    f"strategy {self.name!r} assigned {len(qubits)} qubits to trap {trap_id} "
                    f"(capacity {device.capacity(trap_id)})"
                )
            placed.extend(qubits)
        if len(placed) != len(set(placed)):
            raise MappingError(f"strategy {self.name!r} assigned some qubit twice")
        expected = set(range(circuit.num_qubits))
        if set(placed) != expected:
            missing = sorted(expected - set(placed))
            raise MappingError(f"strategy {self.name!r} left qubits unplaced: {missing[:10]}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(reserve_per_trap={self.reserve_per_trap})"
