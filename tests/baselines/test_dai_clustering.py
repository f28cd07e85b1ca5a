"""Dai's incremental interaction clustering matches the quadratic original.

:meth:`DaiCompiler.build_initial_state` keeps every qubit's weight to the
growing cluster as a running sum.  The reference below is the original
formulation, which rescans each candidate's edges to every cluster member
on every growth step.  Both must place every qubit in the same trap at
the same chain position (or both raise), on the fuzz corpus circuits and
the paper's Table 2 circuits, across every paper device.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import DaiCompiler
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.library.suite import PAPER_BENCHMARKS, build_benchmark
from repro.core.state import DeviceState
from repro.exceptions import MappingError
from repro.fuzz import load_scenario
from repro.hardware.device import QCCDDevice
from repro.hardware.presets import paper_device_catalog

CORPUS = sorted((Path(__file__).resolve().parents[1] / "fuzz" / "corpus").glob("*.json"))
PAPER_DEVICES = paper_device_catalog()


def reference_initial_state(device: QCCDDevice, circuit: QuantumCircuit) -> DeviceState:
    """The original quadratic clustering over the networkx interaction graph."""
    interaction = circuit.interaction_graph()
    unassigned = set(range(circuit.num_qubits))
    state = DeviceState(device)
    for trap in device.traps:
        if not unassigned:
            break
        quota = max(trap.capacity - DaiCompiler.reserved_slots, 1)
        cluster: list[int] = []
        seed = max(
            unassigned,
            key=lambda q: (sum(d["weight"] for _, _, d in interaction.edges(q, data=True)), -q),
        )
        cluster.append(seed)
        unassigned.discard(seed)
        while len(cluster) < quota and unassigned:
            best = max(
                unassigned,
                key=lambda q: (
                    sum(interaction[q][m]["weight"] for m in cluster if interaction.has_edge(q, m)),
                    -q,
                ),
            )
            best_weight = sum(
                interaction[best][m]["weight"] for m in cluster if interaction.has_edge(best, m)
            )
            if best_weight <= 0.0:
                break
            cluster.append(best)
            unassigned.discard(best)
        for qubit in cluster:
            state.place(qubit, trap.trap_id)
    if unassigned:
        for trap in device.traps:
            while unassigned and state.has_space(trap.trap_id):
                qubit = min(unassigned)
                state.place(qubit, trap.trap_id)
                unassigned.discard(qubit)
        if unassigned:
            raise MappingError(f"device {device.name} cannot hold {circuit.num_qubits} qubits")
    return state


def _assert_same_chains(device: QCCDDevice, circuit: QuantumCircuit) -> bool:
    """Compare both clusterings; returns whether the circuit fit the device."""
    try:
        expected = reference_initial_state(device, circuit).occupancy()
    except MappingError:
        with pytest.raises(MappingError):
            DaiCompiler(device).build_initial_state(circuit)
        return False
    assert DaiCompiler(device).build_initial_state(circuit).occupancy() == expected
    return True


@pytest.mark.parametrize("path", CORPUS, ids=[path.stem for path in CORPUS])
def test_corpus_circuits(path: Path):
    scenario = load_scenario(path)
    circuit = scenario.build_circuit()
    assert _assert_same_chains(scenario.build_device(), circuit)
    for device in PAPER_DEVICES.values():
        _assert_same_chains(device, circuit)


@pytest.mark.parametrize("name", [spec.name for spec in PAPER_BENCHMARKS])
def test_paper_table_circuits(name: str):
    circuit = build_benchmark(name)
    fitted = [_assert_same_chains(device, circuit) for device in PAPER_DEVICES.values()]
    assert any(fitted), f"{name} fits no paper device"
