"""Unit tests for the columnar binary schedule codec.

Covers exact round-trips for every operation kind (hand-built and
compiler-produced), a randomized fuzz over mixed-capacity devices, the
checked-in golden blobs that pin the wire format (the current version 2
and the retired version 1), the corrupt-input error paths, and the
decoded slab's gates-on-demand contract.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from array import array
from pathlib import Path

import pytest

from repro.circuit.gate import Gate
from repro.circuit.library import qft_circuit
from repro.core.compiler import SSyncCompiler
from repro.exceptions import ReproError
from repro.hardware.device import QCCDDevice
from repro.hardware.topologies import grid_device, star_device
from repro.hardware.trap import Connection, Trap
from repro.noise.evaluator import ScheduleEvaluator
from repro.runtime.api import run_batch
from repro.runtime.cache import CACHE_FORMAT_VERSION, ENTRY_MAGIC
from repro.runtime.jobs import CompileJob
from repro.schedule.operations import (
    KIND_CODE_GATE_2Q,
    GateOperands,
    GateOperation,
    ShuttleOperation,
    SpaceShiftOperation,
    SwapOperation,
)
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import (
    SCHEDULE_BINARY_VERSION,
    SCHEDULE_MAGIC,
    schedule_from_bytes,
    schedule_to_bytes,
    schedule_to_dict,
    write_varint,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_schedule.sched"
#: The same schedule in the retired version-1 encoding (per-gate varints).
GOLDEN_V1_PATH = Path(__file__).parent / "data" / "golden_schedule_v1.sched"


def mixed_capacity_device() -> QCCDDevice:
    """A small device whose traps have different capacities."""
    traps = [Trap(0, 4), Trap(1, 2), Trap(2, 6, name="big"), Trap(3, 3)]
    connections = [
        Connection(0, 1, junctions=0, segments=1),
        Connection(1, 2, junctions=1, segments=2),
        Connection(2, 3, junctions=2, segments=3),
        Connection(0, 3, junctions=1, segments=4),
    ]
    return QCCDDevice(traps, connections, name="mixed-4", junction_weight=1.5)


def every_kind_schedule() -> Schedule:
    """A hand-built schedule containing each operation kind at least once."""
    schedule = Schedule(mixed_capacity_device(), circuit_name="all-kinds")
    schedule.append(GateOperation(Gate("rz", (0,), (0.25,)), trap=0, chain_length=3))
    schedule.append(
        GateOperation(Gate("cx", (0, 1)), trap=0, chain_length=4, ion_separation=2)
    )
    schedule.append(
        SwapOperation(trap=1, qubit_a=2, qubit_b=3, chain_length=2, ion_separation=1)
    )
    schedule.append(
        ShuttleOperation(
            qubit=2,
            source_trap=1,
            target_trap=2,
            segments=2,
            junctions=1,
            source_chain_length=2,
            target_chain_length=4,
        )
    )
    schedule.append(SpaceShiftOperation(trap=2, qubit=2, from_position=3, to_position=0))
    schedule.append(GateOperation(Gate("h", (5,)), trap=3, chain_length=1))
    return schedule


def assert_same_schedule(rebuilt: Schedule, original: Schedule) -> None:
    """Exact operation-level equality plus device metadata."""
    assert schedule_to_dict(rebuilt) == schedule_to_dict(original)
    assert list(rebuilt) == list(original)
    assert rebuilt.circuit_name == original.circuit_name
    assert rebuilt.device.name == original.device.name
    assert rebuilt.device.junction_weight == original.device.junction_weight
    assert rebuilt.count_summary() == original.count_summary()


class TestRoundTrip:
    def test_every_kind_exact(self):
        original = every_kind_schedule()
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        assert_same_schedule(rebuilt, original)

    def test_empty_schedule(self):
        original = Schedule(star_device(3, 4), circuit_name="empty")
        rebuilt = schedule_from_bytes(schedule_to_bytes(original))
        assert len(rebuilt) == 0
        assert rebuilt.circuit_name == "empty"
        assert rebuilt.device.num_traps == original.device.num_traps

    def test_compiled_schedule_exact(self):
        device = grid_device(2, 2, 6)
        result = SSyncCompiler(device).compile(qft_circuit(12))
        rebuilt = schedule_from_bytes(schedule_to_bytes(result.schedule))
        assert_same_schedule(rebuilt, result.schedule)

    def test_gate_params_preserved_exactly(self):
        schedule = Schedule(star_device(3, 4), circuit_name="params")
        values = (0.1, -2.5, 3.141592653589793, 1e-300, -0.0)
        schedule.append(GateOperation(Gate("u3", (0,), values), trap=0, chain_length=1))
        rebuilt = schedule_from_bytes(schedule_to_bytes(schedule))
        assert rebuilt[0].gate.params == values

    def test_encode_is_deterministic(self):
        original = every_kind_schedule()
        blob = schedule_to_bytes(original)
        assert schedule_to_bytes(original) == blob
        assert schedule_to_bytes(schedule_from_bytes(blob)) == blob


class TestFuzz:
    def random_device(self, rng: random.Random) -> QCCDDevice:
        num_traps = rng.randint(2, 6)
        traps = [Trap(i, rng.randint(2, 8)) for i in range(num_traps)]
        connections = [
            Connection(
                i,
                i + 1,
                junctions=rng.randint(0, 3),
                segments=rng.randint(1, 4),
            )
            for i in range(num_traps - 1)
        ]
        return QCCDDevice(
            traps,
            connections,
            name=f"fuzz-{num_traps}",
            junction_weight=rng.choice([0.5, 1.0, 2.0]),
        )

    def random_operation(self, rng: random.Random, device: QCCDDevice):
        kind = rng.randrange(5)
        trap = rng.randrange(device.num_traps)
        capacity = device.trap(trap).capacity
        if kind == 0:
            gate = Gate(
                rng.choice(["h", "x", "rz", "t"]),
                (rng.randrange(32),),
                tuple(rng.uniform(-3.2, 3.2) for _ in range(rng.randint(0, 2))),
            )
            return GateOperation(gate, trap=trap, chain_length=rng.randint(1, capacity))
        if kind == 1:
            a = rng.randrange(32)
            gate = Gate(rng.choice(["cx", "cz"]), (a, a + 1 + rng.randrange(8)))
            return GateOperation(
                gate,
                trap=trap,
                chain_length=rng.randint(2, max(capacity, 2)),
                ion_separation=rng.randint(0, 3),
            )
        if kind == 2:
            a = rng.randrange(32)
            return SwapOperation(
                trap=trap,
                qubit_a=a,
                qubit_b=a + 1 + rng.randrange(8),
                chain_length=rng.randint(2, max(capacity, 2)),
                ion_separation=rng.randint(0, 3),
            )
        if kind == 3:
            source = rng.randrange(device.num_traps)
            target = (source + 1 + rng.randrange(device.num_traps - 1)) % device.num_traps
            return ShuttleOperation(
                qubit=rng.randrange(32),
                source_trap=source,
                target_trap=target,
                segments=rng.randint(1, 4),
                junctions=rng.randint(0, 3),
                source_chain_length=rng.randint(1, 5),
                target_chain_length=rng.randint(1, 6),
            )
        position = rng.randrange(capacity)
        other = (position + 1 + rng.randrange(max(capacity - 1, 1))) % capacity
        if other == position:
            other = (position + 1) % capacity
        return SpaceShiftOperation(
            trap=trap, qubit=rng.randrange(32), from_position=position, to_position=other
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_round_trip(self, seed):
        rng = random.Random(seed)
        device = self.random_device(rng)
        schedule = Schedule(device, circuit_name=f"fuzz-{seed}")
        for _ in range(rng.randint(0, 120)):
            schedule.append(self.random_operation(rng, device))
        rebuilt = schedule_from_bytes(schedule_to_bytes(schedule))
        assert_same_schedule(rebuilt, schedule)


class TestGoldenBlob:
    """The checked-in blobs pin the wire format: the current and the retired one."""

    def test_golden_blob_decodes(self):
        rebuilt = schedule_from_bytes(GOLDEN_PATH.read_bytes())
        assert_same_schedule(rebuilt, every_kind_schedule())

    def test_golden_blob_is_current_encoding(self):
        assert schedule_to_bytes(every_kind_schedule()) == GOLDEN_PATH.read_bytes()

    def test_version_1_blob_is_rejected_by_version(self):
        with pytest.raises(ReproError, match="version 1"):
            schedule_from_bytes(GOLDEN_V1_PATH.read_bytes())

    def test_format_3_cache_entry_is_a_miss(self, tmp_path):
        """A cache entry of the version-1 era recompiles into a format-4 entry."""
        job = CompileJob(circuit="qft_6", device="G-2x2")
        meta = json.dumps(
            {"compiler_name": "s-sync", "mapping_name": "sta", "compile_time_s": 0.0},
            sort_keys=True,
        ).encode("utf-8")
        stale = bytearray(ENTRY_MAGIC)
        stale.append(3)
        write_varint(stale, len(meta))
        stale += meta + GOLDEN_V1_PATH.read_bytes()
        path = tmp_path / f"{job.compile_fingerprint()}.sched"
        path.write_bytes(bytes(stale))

        result = run_batch([job], cache_dir=tmp_path)
        assert result.compilations == 1
        assert result.cache_stats.hits == 0
        raw = path.read_bytes()
        assert raw[len(ENTRY_MAGIC)] == CACHE_FORMAT_VERSION == 4
        assert run_batch([job], cache_dir=tmp_path).compilations == 0


class TestErrors:
    def test_bad_magic(self):
        blob = schedule_to_bytes(every_kind_schedule())
        with pytest.raises(ReproError, match="magic"):
            schedule_from_bytes(b"XXXX" + blob[4:])

    def test_unsupported_version(self):
        blob = bytearray(schedule_to_bytes(every_kind_schedule()))
        blob[len(SCHEDULE_MAGIC)] = SCHEDULE_BINARY_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            schedule_from_bytes(bytes(blob))

    def test_truncated_document(self):
        blob = schedule_to_bytes(every_kind_schedule())
        for cut in range(len(blob)):
            with pytest.raises(ReproError):
                schedule_from_bytes(blob[:cut])

    def test_empty_input(self):
        with pytest.raises(ReproError):
            schedule_from_bytes(b"")

    def test_trailing_byte(self):
        blob = schedule_to_bytes(every_kind_schedule())
        with pytest.raises(ReproError, match="trailing"):
            schedule_from_bytes(blob + b"\x00")

    def test_unknown_kind_code(self):
        schedule = schedule_from_bytes(schedule_to_bytes(every_kind_schedule()))
        schedule.slab.kinds[2] = 9
        with pytest.raises(ReproError, match="kind code"):
            schedule_from_bytes(schedule_to_bytes(schedule))

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_out_of_range_name_id(self, bad_id):
        blob = tampered_operands(name_ids=[0, bad_id, 2])
        with pytest.raises(ReproError, match="unknown gate name"):
            schedule_from_bytes(blob)

    @pytest.mark.parametrize("column", ["qubit_counts", "param_counts"])
    def test_negative_operand_count(self, column):
        blob = tampered_operands(**{column: [-1, 2, 1]})
        with pytest.raises(ReproError, match="negative operand count"):
            schedule_from_bytes(blob)

    def test_negative_qubit_index(self):
        blob = tampered_operands(qubits=[0, 0, -1, 5])
        with pytest.raises(ReproError, match="negative qubit index"):
            schedule_from_bytes(blob)

    @pytest.mark.parametrize(
        "counts",
        [
            {"qubit_counts": [1, 3, 1]},  # one qubit more than the qubit column holds
            {"qubit_counts": [1, 1, 1]},  # one qubit fewer
            {"param_counts": [2, 0, 0]},  # one parameter more than the column holds
            {"param_counts": [0, 0, 0]},  # one parameter fewer
        ],
    )
    def test_count_sum_disagrees_with_its_column(self, counts):
        with pytest.raises(ReproError):
            schedule_from_bytes(tampered_operands(**counts))


def tampered_operands(**columns: "list[int]") -> bytes:
    """The every-kind blob with some gate operand columns replaced.

    A decoded slab writes its operand columns back verbatim, so swapping
    a column on the decoded copy yields exactly the corrupt document to
    test.  The schedule's three gates are ``rz(0.25) 0``, ``cx 0, 1`` and
    ``h 5``, so every column has three entries.
    """
    schedule = schedule_from_bytes(schedule_to_bytes(every_kind_schedule()))
    slab = schedule.slab
    replaced = {name: array("i", values) for name, values in columns.items()}
    slab.gate_operands = slab.gate_operands._replace(**replaced)
    return schedule_to_bytes(schedule)


class TestLazyGates:
    """A decoded slab builds gates only when its ``gates`` are read."""

    @pytest.fixture()
    def compiled(self) -> Schedule:
        return SSyncCompiler(grid_device(2, 2, 6)).compile(qft_circuit(12)).schedule

    def test_evaluate_and_re_encode_build_no_gate(self, compiled, monkeypatch):
        blob = schedule_to_bytes(compiled)
        decoded = schedule_from_bytes(blob)

        def no_gates(self):
            raise AssertionError("a Gate list was built")

        monkeypatch.setattr(GateOperands, "build", no_gates)
        evaluation = ScheduleEvaluator().evaluate(decoded)
        assert schedule_to_bytes(decoded) == blob
        monkeypatch.undo()
        assert repr(evaluation) == repr(ScheduleEvaluator()._evaluate_records(compiled))

    def test_gates_are_built_once_and_equal_the_originals(self, compiled):
        decoded = schedule_from_bytes(schedule_to_bytes(compiled)).slab
        gates = decoded.gates
        assert decoded.gates is gates
        assert decoded.gate_operands is None
        originals = compiled.slab.gates
        assert gates == originals
        assert [(g.is_single_qubit, g.is_two_qubit) for g in gates] == [
            (g.is_single_qubit, g.is_two_qubit) for g in originals
        ]

    def test_concurrent_first_reads(self):
        """Threads racing on the first read all get the gates, none an error.

        A small schedule keeps each build short, so the racing threads
        often meet between one thread storing the list and dropping the
        columns.
        """
        blob = schedule_to_bytes(every_kind_schedule())
        expected = every_kind_schedule().to_slab().gates
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3000):
                slab = schedule_from_bytes(blob).slab
                start = threading.Barrier(4)
                results: list = []
                errors: list[BaseException] = []

                def read() -> None:
                    start.wait(10.0)
                    try:
                        results.append(slab.gates)
                    except BaseException as exc:  # noqa: BLE001 - the regression signal
                        errors.append(exc)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_append_gate_on_a_decoded_slab(self, compiled):
        decoded = schedule_from_bytes(schedule_to_bytes(compiled))
        extra = Gate("cz", (0, 1))
        decoded.slab.append_gate(KIND_CODE_GATE_2Q, extra, 0, 2, 0)
        compiled.slab.append_gate(KIND_CODE_GATE_2Q, extra, 0, 2, 0)
        assert decoded.slab.gates[-1] is extra
        assert schedule_to_bytes(decoded) == schedule_to_bytes(compiled)
