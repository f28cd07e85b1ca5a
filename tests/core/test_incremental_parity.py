"""Randomized parity suite: both scheduler backends are bit-identical.

The fast core (``"flat"``: batched candidate scoring on integer slot
vectors) must be *bit-for-bit* behaviour-preserving: for any circuit,
topology and lookahead depth, the schedule it emits — serialised
byte-for-byte — and the scheduler statistics must equal those of the
naive reference scorer (``SchedulerConfig(backend="naive")``: a fresh
state copy and a full rescore per candidate, the seed implementation's
strategy).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.mapping import get_mapper
from repro.core.scheduler import SCHEDULER_BACKENDS, GenericSwapScheduler, SchedulerConfig
from repro.hardware.device import QCCDDevice
from repro.hardware.presets import paper_device
from repro.hardware.trap import Connection, Trap
from repro.schedule.serialize import schedule_to_dict

TOPOLOGIES = ("G-2x2", "G-2x3", "L-4")
LOOKAHEAD_DEPTHS = (0, 4)
SEEDS = (7, 23, 101)


def random_circuit(rng: random.Random, num_qubits: int, num_gates: int) -> QuantumCircuit:
    """A random mix of single- and two-qubit gates over ``num_qubits``."""
    circuit = QuantumCircuit(num_qubits, name=f"random-{num_qubits}q-{num_gates}g")
    for _ in range(num_gates):
        if rng.random() < 0.35:
            circuit.add_gate(rng.choice(("h", "x", "rz")), rng.randrange(num_qubits))
        else:
            qubit_a, qubit_b = rng.sample(range(num_qubits), 2)
            circuit.add_gate(rng.choice(("cx", "cz", "ms")), qubit_a, qubit_b)
    return circuit


def serialized(schedule) -> str:
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def run_backends(circuit: QuantumCircuit, device, lookahead_depth: int):
    """Schedule with every backend, in :data:`SCHEDULER_BACKENDS` order."""
    state = get_mapper("gathering").map(circuit, device)
    results = []
    for backend in SCHEDULER_BACKENDS:
        config = SchedulerConfig(lookahead_depth=lookahead_depth, backend=backend)
        scheduler = GenericSwapScheduler(device, config)
        schedule, final_state, stats = scheduler.run(circuit, state)
        final_state.validate()
        results.append((schedule, final_state, stats))
    return results


def assert_parity(results) -> None:
    """Schedules, statistics and final occupancy equal across backends."""
    (ref_schedule, ref_state, ref_stats) = results[-1]  # the naive reference
    reference = serialized(ref_schedule)
    for schedule, final_state, stats in results[:-1]:
        assert serialized(schedule) == reference
        assert stats == ref_stats
        assert final_state.occupancy() == ref_state.occupancy()


class TestRandomizedParity:
    """Byte-identical schedules across topologies, seeds and lookaheads."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("lookahead_depth", LOOKAHEAD_DEPTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_circuits(self, topology: str, lookahead_depth: int, seed: int) -> None:
        rng = random.Random((hash(topology) & 0xFFFF) * 1000 + lookahead_depth * 100 + seed)
        num_qubits = rng.randrange(6, 15)
        num_gates = rng.randrange(20, 70)
        # A small capacity forces evictions and congested routing.
        device = paper_device(topology, capacity=max(3, num_qubits // 2))
        circuit = random_circuit(rng, num_qubits, num_gates)
        assert_parity(run_backends(circuit, device, lookahead_depth))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_library_circuits(self, topology: str) -> None:
        from repro.circuit.library import build_family

        device = paper_device(topology, capacity=8)
        for family, size in (("qft", 12), ("alt", 12), ("adder", 5)):
            circuit = build_family(family, size)
            assert_parity(run_backends(circuit, device, 4))

    def test_congested_device_with_forced_routes(self) -> None:
        """Parity must survive the stall/force-route fallback path."""
        rng = random.Random(1234)
        device = paper_device("G-2x2", capacity=4)
        circuit = random_circuit(rng, 12, 80)
        assert_parity(run_backends(circuit, device, 4))


class TestLargeDeviceParity:
    """Parity at benchmark scale: 48/64 qubits, tight slack."""

    @pytest.mark.parametrize(
        ("topology", "capacity", "num_qubits"),
        (("G-2x4", 10, 48), ("G-3x3", 8, 64)),
    )
    def test_random_circuits_at_scale(
        self, topology: str, capacity: int, num_qubits: int
    ) -> None:
        rng = random.Random(num_qubits * 31 + capacity)
        device = paper_device(topology, capacity=capacity)
        circuit = random_circuit(rng, num_qubits, 120)
        assert_parity(run_backends(circuit, device, 4))

    def test_library_circuits_at_scale(self) -> None:
        from repro.circuit.library import build_family

        device = paper_device("G-3x3", capacity=8)
        for family in ("qft", "alt"):
            circuit = build_family(family, 48)
            assert_parity(run_backends(circuit, device, 4))


def _heterogeneous_linear_device(capacities: tuple[int, ...]) -> QCCDDevice:
    """A linear device whose traps have *different* capacities."""
    traps = [Trap(i, capacity, name=f"H{i}") for i, capacity in enumerate(capacities)]
    connections = [
        Connection(i, i + 1, junctions=0, segments=1) for i in range(len(capacities) - 1)
    ]
    return QCCDDevice(traps, connections, name=f"L-{len(capacities)}-hetero")


def _heterogeneous_grid_device(rows: int, cols: int, capacities: tuple[int, ...]) -> QCCDDevice:
    """A grid device whose traps have *different* capacities."""
    assert len(capacities) == rows * cols
    traps = [Trap(i, capacity, name=f"HG{i}") for i, capacity in enumerate(capacities)]
    connections = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                connections.append(Connection(r * cols + c, r * cols + c + 1, junctions=1, segments=2))
            if r + 1 < rows:
                connections.append(Connection(r * cols + c, (r + 1) * cols + c, junctions=1, segments=2))
    return QCCDDevice(traps, connections, name=f"G-{rows}x{cols}-hetero")


class TestHeterogeneousCapacityParity:
    """Parity when per-trap capacities differ.

    The flat mirror stores capacity per trap (the slab bases are
    prefix sums of the capacity vector) and the full-trap penalty
    counts per-trap fullness, so nothing may assume a uniform cap.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_mixed_capacities(self, seed: int) -> None:
        rng = random.Random(seed * 7919)
        device = _heterogeneous_linear_device((4, 9, 3, 7))
        circuit = random_circuit(rng, 14, 70)
        for depth in LOOKAHEAD_DEPTHS:
            assert_parity(run_backends(circuit, device, depth))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grid_mixed_capacities(self, seed: int) -> None:
        rng = random.Random(seed * 104729)
        device = _heterogeneous_grid_device(2, 3, (3, 8, 4, 6, 3, 5))
        circuit = random_circuit(rng, 16, 80)
        assert_parity(run_backends(circuit, device, 4))
