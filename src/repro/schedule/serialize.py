"""Schedule serialisation: a JSON document format and a binary codec.

Compilation can be the expensive step of a workflow, so downstream users
often want to persist a schedule and re-evaluate it later (e.g. under a
different gate implementation, or on another machine).  These helpers
round-trip a :class:`~repro.schedule.Schedule` — together with enough
device metadata to rebuild an identical :class:`QCCDDevice` — through
either a plain JSON document (:func:`schedule_to_json`, human-readable,
stable since format version 1) or a **columnar binary encoding**
(:func:`schedule_to_bytes`, the schedule cache's on-disk format):

* a 4-byte magic + 1-byte version header;
* the circuit name and the device description (varint-framed strings,
  a float64 junction weight, varint trap/connection fields);
* an interned gate-name string table in first-appearance order;
* one *kind code* byte per operation in schedule order
  (:data:`~repro.schedule.operations.KIND_CODE_GATE_1Q` ...), followed
  by fixed-width little-endian columns — the wire image of an
  :class:`~repro.schedule.operations.OperationSlab`:

  - per gate, ``int32`` name id, trap, chain length, ion separation,
    qubit count and parameter count;
  - every gate's qubits as ``int32`` and every parameter as ``float64``
    (the two column lengths are the sums of the count columns);
  - the ``int32`` swap, shuttle and space-shift columns.

Decoding reads every column wholesale with ``array.frombytes`` and
range-checks it with C-level ``min``/``max``/``sum``; no loop runs per
operation or per gate.  The decoded slab keeps the gate operands as
columns and builds :class:`~repro.circuit.gate.Gate` objects only if a
caller reads its gates, so evaluating a cached schedule builds no gate
and re-encoding one writes its columns straight back.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any

from repro.circuit.gate import Gate
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.trap import Connection, Trap
from repro.schedule.operations import (
    KIND_CODE_GATE_1Q,
    KIND_CODE_GATE_2Q,
    KIND_CODE_SHUTTLE,
    KIND_CODE_SPACE_SHIFT,
    KIND_CODE_SWAP,
    GateOperands,
    GateOperation,
    OperationKind,
    OperationSlab,
    ScheduledOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule

#: Format marker stored in every document (bump on incompatible changes).
SCHEDULE_FORMAT_VERSION = 1

#: Magic prefix of the binary schedule encoding ("Repro SChedule Binary").
SCHEDULE_MAGIC = b"RSCB"

#: Version byte following the magic (bump on incompatible changes).
#: Version 2 stores gate operands as fixed-width columns; version 1
#: stored them as per-gate varints and is no longer read.
SCHEDULE_BINARY_VERSION = 2


# ----------------------------------------------------------------------
# device
# ----------------------------------------------------------------------
def device_to_dict(device: QCCDDevice) -> dict[str, Any]:
    """Serialise a device description to plain data."""
    return {
        "name": device.name,
        "junction_weight": device.junction_weight,
        "traps": [
            {"trap_id": trap.trap_id, "capacity": trap.capacity, "name": trap.name}
            for trap in device.traps
        ],
        "connections": [
            {
                "trap_a": connection.trap_a,
                "trap_b": connection.trap_b,
                "junctions": connection.junctions,
                "segments": connection.segments,
            }
            for connection in device.connections
        ],
    }


def device_from_dict(data: dict[str, Any]) -> QCCDDevice:
    """Rebuild a device from :func:`device_to_dict` output."""
    try:
        traps = [Trap(t["trap_id"], t["capacity"], t.get("name", "")) for t in data["traps"]]
        connections = [
            Connection(c["trap_a"], c["trap_b"], c.get("junctions", 0), c.get("segments", 1))
            for c in data["connections"]
        ]
        return QCCDDevice(
            traps,
            connections,
            name=data.get("name", "qccd"),
            junction_weight=data.get("junction_weight", 1.0),
        )
    except KeyError as exc:
        raise ReproError(f"device document is missing the {exc.args[0]!r} field") from exc


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def _operation_to_dict(operation: ScheduledOperation) -> dict[str, Any]:
    if isinstance(operation, GateOperation):
        return {
            "kind": operation.kind.value,
            "gate": {
                "name": operation.gate.name,
                "qubits": list(operation.gate.qubits),
                "params": list(operation.gate.params),
            },
            "trap": operation.trap,
            "chain_length": operation.chain_length,
            "ion_separation": operation.ion_separation,
        }
    if isinstance(operation, SwapOperation):
        return {
            "kind": operation.kind.value,
            "trap": operation.trap,
            "qubit_a": operation.qubit_a,
            "qubit_b": operation.qubit_b,
            "chain_length": operation.chain_length,
            "ion_separation": operation.ion_separation,
        }
    if isinstance(operation, ShuttleOperation):
        return {
            "kind": operation.kind.value,
            "qubit": operation.qubit,
            "source_trap": operation.source_trap,
            "target_trap": operation.target_trap,
            "segments": operation.segments,
            "junctions": operation.junctions,
            "source_chain_length": operation.source_chain_length,
            "target_chain_length": operation.target_chain_length,
        }
    if isinstance(operation, SpaceShiftOperation):
        return {
            "kind": operation.kind.value,
            "trap": operation.trap,
            "qubit": operation.qubit,
            "from_position": operation.from_position,
            "to_position": operation.to_position,
        }
    raise ReproError(f"cannot serialise operation type {type(operation).__name__}")


def _operation_from_dict(data: dict[str, Any]) -> ScheduledOperation:
    try:
        kind = OperationKind(data["kind"])
    except (KeyError, ValueError) as exc:
        raise ReproError(f"operation document has an invalid kind: {data.get('kind')!r}") from exc
    if kind in (OperationKind.GATE_1Q, OperationKind.GATE_2Q):
        gate_data = data["gate"]
        gate = Gate(gate_data["name"], tuple(gate_data["qubits"]), tuple(gate_data.get("params", ())))
        return GateOperation(
            gate=gate,
            trap=data["trap"],
            chain_length=data["chain_length"],
            ion_separation=data.get("ion_separation", 0),
        )
    if kind is OperationKind.SWAP:
        return SwapOperation(
            trap=data["trap"],
            qubit_a=data["qubit_a"],
            qubit_b=data["qubit_b"],
            chain_length=data["chain_length"],
            ion_separation=data.get("ion_separation", 0),
        )
    if kind is OperationKind.SHUTTLE:
        return ShuttleOperation(
            qubit=data["qubit"],
            source_trap=data["source_trap"],
            target_trap=data["target_trap"],
            segments=data["segments"],
            junctions=data["junctions"],
            source_chain_length=data["source_chain_length"],
            target_chain_length=data["target_chain_length"],
        )
    return SpaceShiftOperation(
        trap=data["trap"],
        qubit=data["qubit"],
        from_position=data["from_position"],
        to_position=data["to_position"],
    )


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialise a schedule (device + operation log) to plain data."""
    return {
        "format_version": SCHEDULE_FORMAT_VERSION,
        "circuit_name": schedule.circuit_name,
        "device": device_to_dict(schedule.device),
        "operations": [_operation_to_dict(op) for op in schedule],
        "summary": schedule.count_summary(),
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    version = data.get("format_version")
    if version != SCHEDULE_FORMAT_VERSION:
        raise ReproError(
            f"unsupported schedule format version {version!r} "
            f"(this library writes version {SCHEDULE_FORMAT_VERSION})"
        )
    device = device_from_dict(data["device"])
    schedule = Schedule(device, data.get("circuit_name", "circuit"))
    for op_data in data.get("operations", []):
        schedule.append(_operation_from_dict(op_data))
    return schedule


def schedule_to_json(schedule: Schedule, indent: int | None = None) -> str:
    """Serialise a schedule to a JSON string."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> Schedule:
    """Parse a schedule from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError("a schedule document must be a JSON object")
    return schedule_from_dict(data)


# ----------------------------------------------------------------------
# binary codec primitives
# ----------------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(buf: bytes, pos: int) -> "tuple[int, int]":
    """Read one unsigned LEB128 varint; returns ``(value, new_pos)``."""
    value = 0
    shift = 0
    try:
        while True:
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value, pos
            shift += 7
    except IndexError:
        raise ReproError("truncated binary schedule document") from None


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    write_varint(out, len(data))
    out += data


def _read_str(buf: bytes, pos: int) -> "tuple[str, int]":
    length, pos = read_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise ReproError("truncated binary schedule document")
    return buf[pos:end].decode("utf-8"), end


def _write_column(out: bytearray, column: array) -> None:
    """Append one fixed-width column, always little-endian on the wire."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column = array(column.typecode, column)
        column.byteswap()
    out += column.tobytes()


def _read_column(buf: bytes, pos: int, typecode: str, count: int) -> "tuple[array, int]":
    """Read ``count`` little-endian items of ``typecode`` at ``pos``."""
    column = array(typecode)
    end = pos + column.itemsize * count
    if end > len(buf):
        raise ReproError("truncated binary schedule document")
    column.frombytes(buf[pos:end])
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column, end


# ----------------------------------------------------------------------
# binary codec
# ----------------------------------------------------------------------
def schedule_to_bytes(schedule: Schedule) -> bytes:
    """Encode a schedule (device + operation log) to the binary format.

    Slab-backed schedules (the flat backend's output, or anything
    decoded by :func:`schedule_from_bytes`) are encoded straight off
    their columns — a decoded slab whose gates were never read writes
    its operand columns back verbatim; classic schedules are
    columnarised on the fly.  The encoding is deterministic: the same
    schedule always produces the same bytes (the gate-name table is
    interned in first-appearance order).
    """
    slab = schedule.to_slab()
    out = bytearray(SCHEDULE_MAGIC)
    out.append(SCHEDULE_BINARY_VERSION)
    _write_str(out, schedule.circuit_name)

    device = schedule.device
    _write_str(out, device.name)
    out += struct.pack("<d", device.junction_weight)
    write_varint(out, len(device.traps))
    for trap in device.traps:
        write_varint(out, trap.trap_id)
        write_varint(out, trap.capacity)
        _write_str(out, trap.name)
    write_varint(out, len(device.connections))
    for connection in device.connections:
        write_varint(out, connection.trap_a)
        write_varint(out, connection.trap_b)
        write_varint(out, connection.junctions)
        write_varint(out, connection.segments)

    operands = slab.operand_columns()
    write_varint(out, len(operands.names))
    for name in operands.names:
        _write_str(out, name)

    write_varint(out, len(slab.kinds))
    out += slab.kinds
    for column in (
        operands.name_ids,
        slab.gate_traps,
        slab.gate_chain_lengths,
        slab.gate_ion_separations,
        operands.qubit_counts,
        operands.param_counts,
        operands.qubits,
        operands.params,
        slab.swap_traps,
        slab.swap_qubits_a,
        slab.swap_qubits_b,
        slab.swap_chain_lengths,
        slab.swap_ion_separations,
        slab.shuttle_qubits,
        slab.shuttle_source_traps,
        slab.shuttle_target_traps,
        slab.shuttle_segments,
        slab.shuttle_junctions,
        slab.shuttle_source_chain_lengths,
        slab.shuttle_target_chain_lengths,
        slab.shift_traps,
        slab.shift_qubits,
        slab.shift_from_positions,
        slab.shift_to_positions,
    ):
        _write_column(out, column)
    return bytes(out)


def schedule_from_bytes(data: bytes) -> Schedule:
    """Decode a schedule from :func:`schedule_to_bytes` output.

    The returned schedule is slab-backed: every column is read wholesale,
    gate objects are built only if a caller reads the slab's gates, and
    per-operation record objects only if it iterates the schedule.
    Raises :class:`~repro.exceptions.ReproError` on a bad magic, an
    unsupported version, truncation, bytes after the last column, an
    unknown kind code or gate-name id, a negative operand count or a
    negative qubit index — all at decode time.
    """
    if data[: len(SCHEDULE_MAGIC)] != SCHEDULE_MAGIC:
        raise ReproError("not a binary schedule document (bad magic)")
    if len(data) < len(SCHEDULE_MAGIC) + 1:
        raise ReproError("truncated binary schedule document")
    version = data[len(SCHEDULE_MAGIC)]
    if version != SCHEDULE_BINARY_VERSION:
        raise ReproError(
            f"unsupported binary schedule version {version} "
            f"(this library writes version {SCHEDULE_BINARY_VERSION})"
        )
    pos = len(SCHEDULE_MAGIC) + 1
    circuit_name, pos = _read_str(data, pos)

    device_name, pos = _read_str(data, pos)
    if pos + 8 > len(data):
        raise ReproError("truncated binary schedule document")
    (junction_weight,) = struct.unpack_from("<d", data, pos)
    pos += 8
    n_traps, pos = read_varint(data, pos)
    traps = []
    for _ in range(n_traps):
        trap_id, pos = read_varint(data, pos)
        capacity, pos = read_varint(data, pos)
        trap_name, pos = _read_str(data, pos)
        traps.append(Trap(trap_id, capacity, trap_name))
    n_connections, pos = read_varint(data, pos)
    connections = []
    for _ in range(n_connections):
        trap_a, pos = read_varint(data, pos)
        trap_b, pos = read_varint(data, pos)
        junctions, pos = read_varint(data, pos)
        segments, pos = read_varint(data, pos)
        connections.append(Connection(trap_a, trap_b, junctions, segments))
    device = QCCDDevice(
        traps, connections, name=device_name, junction_weight=junction_weight
    )

    n_names, pos = read_varint(data, pos)
    names = []
    for _ in range(n_names):
        name, pos = _read_str(data, pos)
        names.append(name)

    n_ops, pos = read_varint(data, pos)
    end = pos + n_ops
    if end > len(data):
        raise ReproError("truncated binary schedule document")
    kinds = bytearray(data[pos:end])
    pos = end
    n_gates = kinds.count(KIND_CODE_GATE_1Q) + kinds.count(KIND_CODE_GATE_2Q)
    n_swaps = kinds.count(KIND_CODE_SWAP)
    n_shuttles = kinds.count(KIND_CODE_SHUTTLE)
    n_shifts = kinds.count(KIND_CODE_SPACE_SHIFT)
    if n_gates + n_swaps + n_shuttles + n_shifts != n_ops:
        raise ReproError("binary schedule document has an unknown operation kind code")

    name_ids, pos = _read_column(data, pos, "i", n_gates)
    gate_traps, pos = _read_column(data, pos, "i", n_gates)
    gate_chain_lengths, pos = _read_column(data, pos, "i", n_gates)
    gate_ion_separations, pos = _read_column(data, pos, "i", n_gates)
    qubit_counts, pos = _read_column(data, pos, "i", n_gates)
    param_counts, pos = _read_column(data, pos, "i", n_gates)
    if n_gates:
        if min(name_ids) < 0 or max(name_ids) >= n_names:
            raise ReproError("binary schedule document references an unknown gate name")
        if min(qubit_counts) < 0 or min(param_counts) < 0:
            raise ReproError("binary schedule document has a negative operand count")
    qubits, pos = _read_column(data, pos, "i", sum(qubit_counts))
    if qubits and min(qubits) < 0:
        raise ReproError("binary schedule document has a negative qubit index")
    params, pos = _read_column(data, pos, "d", sum(param_counts))

    slab = OperationSlab.from_gate_operands(
        GateOperands(tuple(names), name_ids, qubit_counts, param_counts, qubits, params)
    )
    slab.kinds = kinds
    slab.gate_traps = gate_traps
    slab.gate_chain_lengths = gate_chain_lengths
    slab.gate_ion_separations = gate_ion_separations
    slab.swap_traps, pos = _read_column(data, pos, "i", n_swaps)
    slab.swap_qubits_a, pos = _read_column(data, pos, "i", n_swaps)
    slab.swap_qubits_b, pos = _read_column(data, pos, "i", n_swaps)
    slab.swap_chain_lengths, pos = _read_column(data, pos, "i", n_swaps)
    slab.swap_ion_separations, pos = _read_column(data, pos, "i", n_swaps)
    slab.shuttle_qubits, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_source_traps, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_target_traps, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_segments, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_junctions, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_source_chain_lengths, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shuttle_target_chain_lengths, pos = _read_column(data, pos, "i", n_shuttles)
    slab.shift_traps, pos = _read_column(data, pos, "i", n_shifts)
    slab.shift_qubits, pos = _read_column(data, pos, "i", n_shifts)
    slab.shift_from_positions, pos = _read_column(data, pos, "i", n_shifts)
    slab.shift_to_positions, pos = _read_column(data, pos, "i", n_shifts)
    if pos != len(data):
        raise ReproError("binary schedule document has trailing bytes after its last column")
    return Schedule.from_slab(device, circuit_name, slab)
