"""Quantum circuit container used throughout the S-SYNC reproduction.

:class:`QuantumCircuit` is a deliberately small, append-only gate list.  It
offers the constructors the benchmark generators need (``h``, ``cx``,
``rzz``...), a few structural queries used by the compiler (two-qubit gate
extraction, interaction graph, depth) and nothing else.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Iterator

import networkx as nx

from repro.circuit.gate import Gate
from repro.exceptions import CircuitError


class QuantumCircuit:
    """An ordered list of gates over ``num_qubits`` program qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: list[Gate] = []
        self.name = name
        # Memoised dependency structure (owned by repro.circuit.dag) and
        # content digest (owned by repro.runtime.jobs); both invalidated
        # whenever a gate is appended.
        self._dag_template = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of program qubits addressable by this circuit."""
        return self._num_qubits

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self._num_qubits}, "
            f"gates={len(self._gates)}, two_qubit={self.num_two_qubit_gates})"
        )

    # ------------------------------------------------------------------
    # gate appending
    # ------------------------------------------------------------------
    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append ``gate``, validating its qubit indices against this circuit."""
        if any(q >= self._num_qubits for q in gate.qubits):
            raise CircuitError(
                f"gate {gate} addresses a qubit outside range 0..{self._num_qubits - 1}"
            )
        self._gates.append(gate)
        self._dag_template = None
        self._fingerprint = None
        return self

    def add_gate(self, name: str, *qubits: int, params: Iterable[float] = ()) -> "QuantumCircuit":
        """Append a gate by name; convenience wrapper around :meth:`append`."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append every gate from ``gates`` in order."""
        for gate in gates:
            self.append(gate)
        return self

    # Named constructors for the gate set the benchmark circuits use.
    def h(self, q: int) -> "QuantumCircuit":
        return self.add_gate("h", q)

    def x(self, q: int) -> "QuantumCircuit":
        return self.add_gate("x", q)

    def y(self, q: int) -> "QuantumCircuit":
        return self.add_gate("y", q)

    def z(self, q: int) -> "QuantumCircuit":
        return self.add_gate("z", q)

    def t(self, q: int) -> "QuantumCircuit":
        return self.add_gate("t", q)

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add_gate("tdg", q)

    def s(self, q: int) -> "QuantumCircuit":
        return self.add_gate("s", q)

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate("rx", q, params=(theta,))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate("ry", q, params=(theta,))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate("rz", q, params=(theta,))

    def measure(self, q: int) -> "QuantumCircuit":
        return self.add_gate("measure", q)

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate("cx", control, target)

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate("cz", control, target)

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate("cp", control, target, params=(theta,))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("swap", a, b)

    def ms(self, a: int, b: int, theta: float = 0.0) -> "QuantumCircuit":
        return self.add_gate("ms", a, b, params=(theta,))

    def rxx(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("rxx", a, b, params=(theta,))

    def ryy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("ryy", a, b, params=(theta,))

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("rzz", a, b, params=(theta,))

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates in the circuit."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit gates in the circuit."""
        return sum(1 for g in self._gates if g.is_single_qubit)

    def two_qubit_gates(self) -> list[Gate]:
        """Return the two-qubit gates in program order."""
        return [g for g in self._gates if g.is_two_qubit]

    def count_ops(self) -> dict[str, int]:
        """Return a histogram of gate names."""
        return dict(Counter(g.name for g in self._gates))

    def used_qubits(self) -> set[int]:
        """Return the set of qubit indices touched by at least one gate."""
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return used

    def depth(self, two_qubit_only: bool = False) -> int:
        """Circuit depth: length of the longest qubit-dependency chain."""
        level: dict[int, int] = defaultdict(int)
        depth = 0
        for gate in self._gates:
            if two_qubit_only and not gate.is_two_qubit:
                continue
            start = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def interaction_graph(self) -> nx.Graph:
        """Weighted graph of qubit pairs; edge weight = #two-qubit gates."""
        graph: nx.Graph = nx.Graph()
        graph.add_nodes_from(range(self._num_qubits))
        for gate in self._gates:
            if not gate.is_two_qubit:
                continue
            a, b = gate.qubits
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
            else:
                graph.add_edge(a, b, weight=1)
        return graph

    def two_qubit_layers(self) -> list[list[Gate]]:
        """Greedy partition of the two-qubit gates into dependency layers."""
        layers: list[list[Gate]] = []
        level: dict[int, int] = defaultdict(int)
        for gate in self._gates:
            if not gate.is_two_qubit:
                continue
            start = max(level[q] for q in gate.qubits)
            for q in gate.qubits:
                level[q] = start + 1
            while len(layers) <= start:
                layers.append([])
            layers[start].append(gate)
        return layers

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Return a shallow copy (gates are immutable, so this is safe)."""
        clone = QuantumCircuit(self._num_qubits, name or self.name)
        clone._gates = list(self._gates)
        return clone

    def remap_qubits(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a copy with every qubit index translated through ``mapping``."""
        target = num_qubits if num_qubits is not None else self._num_qubits
        clone = QuantumCircuit(target, self.name)
        for gate in self._gates:
            clone.append(gate.remap(mapping))
        return clone

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit equal to ``self`` followed by ``other``."""
        if other.num_qubits > self._num_qubits:
            raise CircuitError(
                "cannot compose a wider circuit onto a narrower one "
                f"({other.num_qubits} > {self._num_qubits})"
            )
        combined = self.copy()
        combined.extend(other.gates)
        return combined
