"""Scheduled operation records — the compiler's output vocabulary.

A compiled program is a time-ordered list of these records.  Each record
captures the *context* the noise model needs (trap occupancy, ion
separation, path length) at the moment the operation fires, so the
schedule can be re-evaluated under different gate implementations or
heating parameters without recompiling.

The records are plain ``__slots__`` classes with hand-written
constructors rather than frozen dataclasses: the scheduler creates one
per emitted operation (thousands per compile), and the dataclass
machinery dominated the emission path.  They keep value semantics —
field-wise ``__eq__``/``__hash__`` and a dataclass-style ``repr`` — and
are immutable by convention (never mutate a record after creation).
"""

from __future__ import annotations

from array import array
from collections import Counter
from enum import Enum
from typing import NamedTuple

from repro.circuit.gate import Gate
from repro.exceptions import SchedulingError


class OperationKind(str, Enum):
    """Discriminator for the scheduled operation records."""

    GATE_1Q = "gate_1q"
    GATE_2Q = "gate_2q"
    SWAP = "swap"
    SHUTTLE = "shuttle"
    SPACE_SHIFT = "space_shift"


#: Stable one-byte codes for the operation kinds.  They order the
#: columnar slab sections and appear verbatim in the binary schedule
#: encoding (:mod:`repro.schedule.serialize`), so they must never be
#: renumbered — append new kinds at the end instead.
KIND_CODE_GATE_1Q = 0
KIND_CODE_GATE_2Q = 1
KIND_CODE_SWAP = 2
KIND_CODE_SHUTTLE = 3
KIND_CODE_SPACE_SHIFT = 4

KIND_BY_CODE: "tuple[OperationKind, ...]" = (
    OperationKind.GATE_1Q,
    OperationKind.GATE_2Q,
    OperationKind.SWAP,
    OperationKind.SHUTTLE,
    OperationKind.SPACE_SHIFT,
)

CODE_BY_KIND: "dict[OperationKind, int]" = {
    kind: code for code, kind in enumerate(KIND_BY_CODE)
}


class ScheduledOperation:
    """Base record; concrete kinds are the subclasses below."""

    __slots__ = ("kind",)

    kind: OperationKind

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._fields()))

    def __repr__(self) -> str:
        names = [slot for cls in reversed(type(self).__mro__) for slot in getattr(cls, "__slots__", ()) if slot != "kind"]
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({inner})"


class GateOperation(ScheduledOperation):
    """A program gate executed inside one trap.

    Attributes
    ----------
    gate:
        The original program gate.
    trap:
        Trap the gate executes in.
    chain_length:
        Number of ions in that trap at execution time (FM-gate input).
    ion_separation:
        Number of ions between the two operands (0 for adjacent ions,
        irrelevant for single-qubit gates).
    """

    __slots__ = ("gate", "trap", "chain_length", "ion_separation")

    def __init__(self, gate: Gate, trap: int, chain_length: int, ion_separation: int = 0) -> None:
        if chain_length < 1:
            raise SchedulingError("a gate needs at least one ion in the trap")
        if ion_separation < 0:
            raise SchedulingError("ion separation cannot be negative")
        self.kind = OperationKind.GATE_2Q if gate.is_two_qubit else OperationKind.GATE_1Q
        self.gate = gate
        self.trap = trap
        self.chain_length = chain_length
        self.ion_separation = ion_separation

    @classmethod
    def unchecked(
        cls, kind: OperationKind, gate: Gate, trap: int, chain_length: int, ion_separation: int
    ) -> "GateOperation":
        """Construct without field validation (scheduler hot-path emitter).

        The caller asserts the invariants ``__init__`` would check and
        passes the operation kind directly — the scheduler knows
        statically whether it is emitting a 1q or a 2q gate.
        """
        self = object.__new__(cls)
        self.kind = kind
        self.gate = gate
        self.trap = trap
        self.chain_length = chain_length
        self.ion_separation = ion_separation
        return self

    def _fields(self) -> tuple:
        return (self.gate, self.trap, self.chain_length, self.ion_separation)


class SwapOperation(ScheduledOperation):
    """An inserted SWAP gate between two ions in the same trap."""

    __slots__ = ("trap", "qubit_a", "qubit_b", "chain_length", "ion_separation")

    def __init__(
        self, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int = 0
    ) -> None:
        if qubit_a == qubit_b:
            raise SchedulingError("a SWAP needs two distinct qubits")
        if chain_length < 2:
            raise SchedulingError("a SWAP needs at least two ions in the trap")
        if ion_separation < 0:
            raise SchedulingError("ion separation cannot be negative")
        self.kind = OperationKind.SWAP
        self.trap = trap
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.chain_length = chain_length
        self.ion_separation = ion_separation

    @classmethod
    def unchecked(
        cls, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int
    ) -> "SwapOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SWAP
        self.trap = trap
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.chain_length = chain_length
        self.ion_separation = ion_separation
        return self

    def _fields(self) -> tuple:
        return (self.trap, self.qubit_a, self.qubit_b, self.chain_length, self.ion_separation)


class ShuttleOperation(ScheduledOperation):
    """A split / move / merge transfer of one ion between two traps.

    Attributes
    ----------
    qubit:
        The program qubit being moved.
    source_trap, target_trap:
        Endpoints of the transfer.
    segments:
        Straight electrode segments traversed (Table-1 "move" count).
    junctions:
        Junctions crossed along the way.
    source_chain_length:
        Ions in the source trap *before* the split.
    target_chain_length:
        Ions in the target trap *after* the merge.
    """

    __slots__ = (
        "qubit",
        "source_trap",
        "target_trap",
        "segments",
        "junctions",
        "source_chain_length",
        "target_chain_length",
    )

    def __init__(
        self,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> None:
        if source_trap == target_trap:
            raise SchedulingError("a shuttle must change traps")
        if segments < 1:
            raise SchedulingError("a shuttle traverses at least one segment")
        if junctions < 0:
            raise SchedulingError("junction count cannot be negative")
        if source_chain_length < 1 or target_chain_length < 1:
            raise SchedulingError("chain lengths must be at least 1")
        self.kind = OperationKind.SHUTTLE
        self.qubit = qubit
        self.source_trap = source_trap
        self.target_trap = target_trap
        self.segments = segments
        self.junctions = junctions
        self.source_chain_length = source_chain_length
        self.target_chain_length = target_chain_length

    @classmethod
    def unchecked(
        cls,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> "ShuttleOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SHUTTLE
        self.qubit = qubit
        self.source_trap = source_trap
        self.target_trap = target_trap
        self.segments = segments
        self.junctions = junctions
        self.source_chain_length = source_chain_length
        self.target_chain_length = target_chain_length
        return self

    def _fields(self) -> tuple:
        return (
            self.qubit,
            self.source_trap,
            self.target_trap,
            self.segments,
            self.junctions,
            self.source_chain_length,
            self.target_chain_length,
        )


class SpaceShiftOperation(ScheduledOperation):
    """Intra-trap reordering of one ion into an adjacent empty slot.

    This is a physical move of the ion within its own trap (no SWAP gate
    and no split/merge), used to bring an ion to the trap edge or to
    clear the receiving slot for an incoming ion.
    """

    __slots__ = ("trap", "qubit", "from_position", "to_position")

    def __init__(self, trap: int, qubit: int, from_position: int, to_position: int) -> None:
        if from_position == to_position:
            raise SchedulingError("a space shift must change the ion's position")
        if from_position < 0 or to_position < 0:
            raise SchedulingError("positions cannot be negative")
        self.kind = OperationKind.SPACE_SHIFT
        self.trap = trap
        self.qubit = qubit
        self.from_position = from_position
        self.to_position = to_position

    @classmethod
    def unchecked(
        cls, trap: int, qubit: int, from_position: int, to_position: int
    ) -> "SpaceShiftOperation":
        """Construct without field validation (trusted bulk producers)."""
        self = object.__new__(cls)
        self.kind = OperationKind.SPACE_SHIFT
        self.trap = trap
        self.qubit = qubit
        self.from_position = from_position
        self.to_position = to_position
        return self

    def _fields(self) -> tuple:
        return (self.trap, self.qubit, self.from_position, self.to_position)

    @property
    def distance(self) -> int:
        """Number of slots the ion moves by."""
        return abs(self.to_position - self.from_position)


class GateOperands(NamedTuple):
    """The program gates of a slab as flat columns (the codec's wire image).

    ``names`` is the gate-name table, interned in first-appearance order;
    ``name_ids``, ``qubit_counts`` and ``param_counts`` hold one int32 per
    gate; ``qubits`` (int32) and ``params`` (float64) concatenate every
    gate's operands in gate order, so their lengths are the sums of the
    count columns.
    """

    names: "tuple[str, ...]"
    name_ids: "array[int]"
    qubit_counts: "array[int]"
    param_counts: "array[int]"
    qubits: "array[int]"
    params: "array[float]"

    @classmethod
    def from_gates(cls, gates: "list[Gate]") -> "GateOperands":
        """Columnarise a gate list (the encoder's path for emitted slabs)."""
        table: "dict[str, int]" = {}
        intern = table.setdefault
        name_ids = array("i", [intern(gate.name, len(table)) for gate in gates])
        return cls(
            names=tuple(table),  # insertion order == id order
            name_ids=name_ids,
            qubit_counts=array("i", [len(gate.qubits) for gate in gates]),
            param_counts=array("i", [len(gate.params) for gate in gates]),
            qubits=array("i", [qubit for gate in gates for qubit in gate.qubits]),
            params=array("d", [param for gate in gates for param in gate.params]),
        )

    def build(self) -> "list[Gate]":
        """Rebuild the :class:`Gate` list without re-running validation.

        The columns come from a decoded document whose counts and name
        ids were range-checked at decode time, and every gate was valid
        when it was encoded.
        """
        names = self.names
        qubits = tuple(self.qubits)
        params = tuple(self.params)
        new = object.__new__
        set_attr = object.__setattr__
        gates: "list[Gate]" = []
        append = gates.append
        q = p = 0
        for name_id, n_qubits, n_params in zip(
            self.name_ids, self.qubit_counts, self.param_counts
        ):
            gate = new(Gate)
            set_attr(gate, "name", names[name_id])
            set_attr(gate, "qubits", qubits[q : q + n_qubits])
            set_attr(gate, "params", params[p : p + n_params])
            set_attr(gate, "is_single_qubit", n_qubits == 1)
            set_attr(gate, "is_two_qubit", n_qubits == 2)
            append(gate)
            q += n_qubits
            p += n_params
        return gates


class OperationSlab:
    """Columnar storage for an operation log: one array per field.

    The slab is the single-pass materialisation target of the flat
    scheduler backend and the direct input/output of the binary schedule
    codec: the winning-candidate path appends plain integers into these
    arrays, and the encoder serialises the arrays wholesale — no
    per-operation record objects exist on that path at all.  ``kinds``
    holds one :data:`KIND_CODE_* <KIND_CODE_GATE_1Q>` byte per operation
    in schedule order; each kind's fields live in dedicated typed arrays
    appended in the same order, so walking ``kinds`` with per-kind
    cursors reconstructs the interleaved log exactly.

    :meth:`materialize` builds the classic :class:`ScheduledOperation`
    objects on demand (through the validation-free constructors — slab
    producers assert the invariants), which is what keeps slab-backed
    and object-backed schedules field-for-field identical.

    A slab emitted by a scheduler holds its program gates as a
    :class:`Gate` list in ``gates``.  A decoded slab
    (:meth:`from_gate_operands`) holds them as :class:`GateOperands`
    columns in ``gate_operands`` instead and leaves the ``gates`` slot
    unset: the first read of ``slab.gates`` builds the list once and
    drops the columns.  Kind codes and the per-kind integer columns are
    all the noise evaluator reads, so evaluating a decoded schedule
    builds no gate.
    """

    __slots__ = (
        "kinds",
        "gates",
        "gate_operands",
        "gate_traps",
        "gate_chain_lengths",
        "gate_ion_separations",
        "swap_traps",
        "swap_qubits_a",
        "swap_qubits_b",
        "swap_chain_lengths",
        "swap_ion_separations",
        "shuttle_qubits",
        "shuttle_source_traps",
        "shuttle_target_traps",
        "shuttle_segments",
        "shuttle_junctions",
        "shuttle_source_chain_lengths",
        "shuttle_target_chain_lengths",
        "shift_traps",
        "shift_qubits",
        "shift_from_positions",
        "shift_to_positions",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.gates: list[Gate] = []
        self.gate_operands: GateOperands | None = None
        self.gate_traps = array("i")
        self.gate_chain_lengths = array("i")
        self.gate_ion_separations = array("i")
        self.swap_traps = array("i")
        self.swap_qubits_a = array("i")
        self.swap_qubits_b = array("i")
        self.swap_chain_lengths = array("i")
        self.swap_ion_separations = array("i")
        self.shuttle_qubits = array("i")
        self.shuttle_source_traps = array("i")
        self.shuttle_target_traps = array("i")
        self.shuttle_segments = array("i")
        self.shuttle_junctions = array("i")
        self.shuttle_source_chain_lengths = array("i")
        self.shuttle_target_chain_lengths = array("i")
        self.shift_traps = array("i")
        self.shift_qubits = array("i")
        self.shift_from_positions = array("i")
        self.shift_to_positions = array("i")

    def __len__(self) -> int:
        return len(self.kinds)

    # ------------------------------------------------------------------
    # gates on demand (decoded slabs)
    # ------------------------------------------------------------------
    @classmethod
    def from_gate_operands(cls, operands: GateOperands) -> "OperationSlab":
        """An empty slab whose gates are built from ``operands`` on first read.

        The caller fills the kinds and the integer columns; the gate
        count of ``kinds`` must match the operand columns.
        """
        slab = cls()
        del slab.gates
        slab.gate_operands = operands
        return slab

    def __getattr__(self, name: str) -> "list[Gate]":
        # Normal lookup failed, so this is an unset slot.  Only ``gates``
        # is ever left unset (by from_gate_operands); everything else is a
        # genuine missing attribute.  Slots that are set never get here,
        # so the emission path pays nothing for the laziness.
        if name != "gates":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        operands = self.gate_operands
        if operands is None:  # another thread built the list after our lookup failed
            return object.__getattribute__(self, "gates")
        gates = self.gates = operands.build()
        self.gate_operands = None  # appends now go to the list; drop the stale columns
        return gates

    def operand_columns(self) -> GateOperands:
        """The program gates as columns: a decoded slab's own, else from ``gates``."""
        operands = self.gate_operands
        return operands if operands is not None else GateOperands.from_gates(self.gates)

    # ------------------------------------------------------------------
    # typed appends (the scheduler hot path)
    # ------------------------------------------------------------------
    def append_gate(
        self, code: int, gate: Gate, trap: int, chain_length: int, ion_separation: int
    ) -> None:
        """Append a program gate (``code`` is GATE_1Q or GATE_2Q)."""
        self.kinds.append(code)
        self.gates.append(gate)
        self.gate_traps.append(trap)
        self.gate_chain_lengths.append(chain_length)
        self.gate_ion_separations.append(ion_separation)

    def append_swap(
        self, trap: int, qubit_a: int, qubit_b: int, chain_length: int, ion_separation: int
    ) -> None:
        self.kinds.append(KIND_CODE_SWAP)
        self.swap_traps.append(trap)
        self.swap_qubits_a.append(qubit_a)
        self.swap_qubits_b.append(qubit_b)
        self.swap_chain_lengths.append(chain_length)
        self.swap_ion_separations.append(ion_separation)

    def append_shuttle(
        self,
        qubit: int,
        source_trap: int,
        target_trap: int,
        segments: int,
        junctions: int,
        source_chain_length: int,
        target_chain_length: int,
    ) -> None:
        self.kinds.append(KIND_CODE_SHUTTLE)
        self.shuttle_qubits.append(qubit)
        self.shuttle_source_traps.append(source_trap)
        self.shuttle_target_traps.append(target_trap)
        self.shuttle_segments.append(segments)
        self.shuttle_junctions.append(junctions)
        self.shuttle_source_chain_lengths.append(source_chain_length)
        self.shuttle_target_chain_lengths.append(target_chain_length)

    def append_space_shift(
        self, trap: int, qubit: int, from_position: int, to_position: int
    ) -> None:
        self.kinds.append(KIND_CODE_SPACE_SHIFT)
        self.shift_traps.append(trap)
        self.shift_qubits.append(qubit)
        self.shift_from_positions.append(from_position)
        self.shift_to_positions.append(to_position)

    # ------------------------------------------------------------------
    # record-object interoperability
    # ------------------------------------------------------------------
    def append_operation(self, operation: ScheduledOperation) -> None:
        """Decompose one record object into the columns (cold path)."""
        if isinstance(operation, GateOperation):
            code = (
                KIND_CODE_GATE_2Q
                if operation.kind is OperationKind.GATE_2Q
                else KIND_CODE_GATE_1Q
            )
            self.append_gate(
                code,
                operation.gate,
                operation.trap,
                operation.chain_length,
                operation.ion_separation,
            )
        elif isinstance(operation, SwapOperation):
            self.append_swap(
                operation.trap,
                operation.qubit_a,
                operation.qubit_b,
                operation.chain_length,
                operation.ion_separation,
            )
        elif isinstance(operation, ShuttleOperation):
            self.append_shuttle(
                operation.qubit,
                operation.source_trap,
                operation.target_trap,
                operation.segments,
                operation.junctions,
                operation.source_chain_length,
                operation.target_chain_length,
            )
        elif isinstance(operation, SpaceShiftOperation):
            self.append_space_shift(
                operation.trap,
                operation.qubit,
                operation.from_position,
                operation.to_position,
            )
        else:
            raise SchedulingError(
                f"cannot store operation type {type(operation).__name__} in a slab"
            )

    @classmethod
    def from_operations(cls, operations: "list[ScheduledOperation] | tuple") -> "OperationSlab":
        """Columnarise an existing operation log."""
        slab = cls()
        for operation in operations:
            slab.append_operation(operation)
        return slab

    def materialize(self) -> "list[ScheduledOperation]":
        """Rebuild the interleaved record-object log from the columns."""
        ops: "list[ScheduledOperation]" = []
        append = ops.append
        gi = si = hi = pi = 0
        kind_1q = OperationKind.GATE_1Q
        kind_2q = OperationKind.GATE_2Q
        gate_op = GateOperation.unchecked
        swap_op = SwapOperation.unchecked
        shuttle_op = ShuttleOperation.unchecked
        shift_op = SpaceShiftOperation.unchecked
        for code in self.kinds:
            if code <= KIND_CODE_GATE_2Q:
                append(
                    gate_op(
                        kind_2q if code == KIND_CODE_GATE_2Q else kind_1q,
                        self.gates[gi],
                        self.gate_traps[gi],
                        self.gate_chain_lengths[gi],
                        self.gate_ion_separations[gi],
                    )
                )
                gi += 1
            elif code == KIND_CODE_SWAP:
                append(
                    swap_op(
                        self.swap_traps[si],
                        self.swap_qubits_a[si],
                        self.swap_qubits_b[si],
                        self.swap_chain_lengths[si],
                        self.swap_ion_separations[si],
                    )
                )
                si += 1
            elif code == KIND_CODE_SHUTTLE:
                append(
                    shuttle_op(
                        self.shuttle_qubits[hi],
                        self.shuttle_source_traps[hi],
                        self.shuttle_target_traps[hi],
                        self.shuttle_segments[hi],
                        self.shuttle_junctions[hi],
                        self.shuttle_source_chain_lengths[hi],
                        self.shuttle_target_chain_lengths[hi],
                    )
                )
                hi += 1
            else:
                append(
                    shift_op(
                        self.shift_traps[pi],
                        self.shift_qubits[pi],
                        self.shift_from_positions[pi],
                        self.shift_to_positions[pi],
                    )
                )
                pi += 1
        return ops

    # ------------------------------------------------------------------
    # summary counters without materialisation
    # ------------------------------------------------------------------
    def counts(self) -> "Counter[OperationKind]":
        """Per-kind operation counts straight off the kinds column."""
        counts: "Counter[OperationKind]" = Counter()
        kinds = self.kinds
        for code, kind in enumerate(KIND_BY_CODE):
            n = kinds.count(code)
            if n:
                counts[kind] = n
        return counts

    def junction_total(self) -> int:
        """Total junctions crossed by all shuttles."""
        return sum(self.shuttle_junctions)

    def segment_total(self) -> int:
        """Total straight segments traversed by all shuttles."""
        return sum(self.shuttle_segments)
