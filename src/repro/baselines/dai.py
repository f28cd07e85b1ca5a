"""Dai-et-al.-style baseline compiler (IEEE TQE 2024, advanced shuttle strategies).

A stronger baseline than :class:`~repro.baselines.murali.MuraliCompiler`:
it still routes gates greedily in program order, but

* the **initial mapping** clusters interacting qubits (interaction-graph
  greedy packing) instead of first-use order,
* when the operands of a gate are separated, it moves the endpoint with
  the **cheaper** move (fewer hops to travel, closer to its chain edge,
  and fewer upcoming partners left behind in its current trap),
* the moving ion reaches the chain edge with a single **long-range SWAP**
  rather than a chain of adjacent SWAPs.

It does not perform S-SYNC's joint shuttle/SWAP cost search, so it
typically lands between Murali et al. and S-SYNC on both metrics —
matching its position in the paper's Figs. 8–10.
"""

from __future__ import annotations

from repro.baselines.base import BaselineRouter
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.core.state import DeviceState
from repro.exceptions import MappingError
from repro.schedule.schedule import Schedule


class DaiCompiler(BaselineRouter):
    """Lookahead greedy router with interaction-aware initial mapping."""

    name = "dai"

    #: One slot per trap is kept free for incoming ions.
    reserved_slots = 1

    # ------------------------------------------------------------------
    # initial mapping: greedy interaction clustering
    # ------------------------------------------------------------------
    def build_initial_state(self, circuit: QuantumCircuit) -> DeviceState:
        # Interaction weights: number of two-qubit gates per qubit pair.
        neighbours: list[dict[int, int]] = [{} for _ in range(circuit.num_qubits)]
        for gate in circuit:
            if gate.is_two_qubit:
                a, b = gate.qubits
                neighbours[a][b] = neighbours[a].get(b, 0) + 1
                neighbours[b][a] = neighbours[b].get(a, 0) + 1
        degree = [sum(weights.values()) for weights in neighbours]
        unassigned = set(range(circuit.num_qubits))
        state = DeviceState(self.device)
        for trap in self.device.traps:
            if not unassigned:
                break
            quota = max(trap.capacity - self.reserved_slots, 1)
            seed = max(unassigned, key=lambda q: (degree[q], -q))
            cluster = [seed]
            unassigned.discard(seed)
            # Every qubit's interaction weight to the growing cluster,
            # updated as members join instead of rescanned per candidate.
            to_cluster = [0] * circuit.num_qubits
            for other, weight in neighbours[seed].items():
                to_cluster[other] += weight
            while len(cluster) < quota and unassigned:
                best = max(unassigned, key=lambda q: (to_cluster[q], -q))
                if to_cluster[best] <= 0:
                    # No remaining qubit interacts with this cluster; start a
                    # fresh cluster in the next trap instead of padding.
                    break
                cluster.append(best)
                unassigned.discard(best)
                for other, weight in neighbours[best].items():
                    to_cluster[other] += weight
            for qubit in cluster:
                state.place(qubit, trap.trap_id)
        if unassigned:
            for trap in self.device.traps:
                while unassigned and state.has_space(trap.trap_id):
                    qubit = min(unassigned)
                    state.place(qubit, trap.trap_id)
                    unassigned.discard(qubit)
            if unassigned:
                raise MappingError(
                    f"device {self.device.name} cannot hold {circuit.num_qubits} qubits"
                )
        return state

    # ------------------------------------------------------------------
    # routing: move the cheaper endpoint, long-range SWAP to the edge
    # ------------------------------------------------------------------
    def _move_cost(self, state: DeviceState, qubit: int, partner: int, upcoming: dict[int, list[int]]) -> float:
        """Estimated cost of moving ``qubit`` into ``partner``'s trap."""
        source = state.trap_of(qubit)
        target = state.trap_of(partner)
        departing_end = state.facing_end(source, state.device.next_hop(source, target))
        edge_distance = state.distance_to_end(qubit, departing_end)
        hop_cost = state.device.trap_distance(source, target)
        # Leaving behind qubits it will soon interact with is penalised.
        future = upcoming.get(qubit, [])
        local_partners = sum(
            1 for other in future[:4] if state.is_placed(other) and state.trap_of(other) == source
        )
        congestion = 0.0 if state.has_space(target) else 1.0
        return hop_cost + 0.1 * edge_distance + 0.3 * local_partners + 0.5 * congestion

    def route_gate(
        self, schedule: Schedule, state: DeviceState, gate: Gate, upcoming: dict[int, list[int]]
    ) -> None:
        qubit_a, qubit_b = gate.qubits
        cost_a = self._move_cost(state, qubit_a, qubit_b, upcoming)
        cost_b = self._move_cost(state, qubit_b, qubit_a, upcoming)
        if cost_a <= cost_b:
            mover, anchor = qubit_a, qubit_b
        else:
            mover, anchor = qubit_b, qubit_a
        self.shuttle_along_path(
            schedule,
            state,
            mover,
            state.trap_of(anchor),
            stepwise_swaps=False,
            protected=(anchor,),
            reserve_at_target=1,
        )
