"""Shared machinery for the baseline QCCD compilers.

The two baselines (Murali et al. ISCA'20 and Dai et al. TQE'24) are
greedy routers that process two-qubit gates in dependency order and move
one operand to the other's trap whenever they are separated.  They share
the routing primitives in :class:`BaselineRouter`:

* ``bring_to_end`` — SWAP an ion to the chain end facing the next trap;
  the *step-wise* variant swaps with adjacent ions one position at a
  time (Murali-style, ignores intra-trap full connectivity), the
  *direct* variant uses a single long-range SWAP (Dai-style);
* ``ensure_space`` — evict an ion from a full destination trap to a
  neighbouring trap with room;
* ``shuttle`` — emit the split/move/merge operation and update the state.

The baselines emit straight into the schedule's columnar slab, as the
flat S-SYNC core does: each operation is a few plain integer appends,
read off the state's live ``locations``/``chains``/``positions`` views,
and no per-operation record object is built.

Like S-SYNC, the baselines compile through the pass pipeline
(:mod:`repro.pipeline`): :class:`BaselineMappingPass` runs the
subclass's fixed initial mapping and :class:`BaselineRoutingPass` runs
the greedy gate loop, so baseline results carry the same per-pass
timings as every other compiler.

Neither baseline reasons about the joint cost of SWAPs and shuttles —
that co-optimization is exactly what S-SYNC adds — so both insert more
of at least one of the two on most workloads.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.core.mapping.base import check_fit
from repro.core.result import CompilationResult
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.device import QCCDDevice
from repro.pipeline import CompilerPipeline, MetricsPass, Pass, PassContext
from repro.schedule.operations import KIND_CODE_GATE_1Q, KIND_CODE_GATE_2Q
from repro.schedule.schedule import Schedule


class BaselineMappingPass(Pass):
    """Run a baseline's fixed initial mapping as the pipeline's first stage."""

    name = "initial-mapping"

    def __init__(self, router: "BaselineRouter") -> None:
        self.router = router

    def run(self, context: PassContext) -> None:
        if context.requested_mapping is not None and context.state is None:
            raise SchedulingError(
                f"the {self.router.name!r} compiler brings its own initial mapping "
                "and does not accept an initial_mapping argument"
            )
        if context.state is not None:  # caller-supplied starting occupancy
            return
        check_fit(context.circuit, self.router.device)
        mapped = self.router.build_initial_state(context.circuit)
        context.initial_state = mapped
        context.state = mapped.copy()
        context.mapping_name = f"{self.router.name}-default"

    def statistics(self, context: PassContext) -> dict[str, Any]:
        return {"mapping": context.mapping_name}


class BaselineRoutingPass(Pass):
    """The greedy in-order gate loop shared by both baselines."""

    name = "routing"

    def __init__(self, router: "BaselineRouter") -> None:
        self.router = router

    def run(self, context: PassContext) -> None:
        router = self.router
        circuit = context.circuit
        state = context.require_state()
        missing = [q for q in range(circuit.num_qubits) if not state.is_placed(q)]
        if missing:
            raise SchedulingError(
                f"initial state does not place qubits {missing[:10]} (and possibly more)"
            )
        schedule = Schedule(router.device, circuit.name)
        append_gate = schedule.slab.append_gate
        # Live views: routing mutates the state, the views follow it.
        locations = state.locations
        chains = state.chains
        positions = state.positions
        upcoming = router._upcoming_partners(circuit)
        pending_1q, trailing_1q = router._partition_single_qubit_gates(circuit)
        code_1q = KIND_CODE_GATE_1Q
        executed = 0

        for index, gate in enumerate(circuit.gates):
            if not gate.is_two_qubit:
                continue
            for single in pending_1q.pop(index, ()):
                trap = locations[single.qubits[0]]
                append_gate(code_1q, single, trap, len(chains[trap]), 0)
            qubit_a, qubit_b = gate.qubits
            if locations[qubit_a] != locations[qubit_b]:
                router.route_gate(schedule, state, gate, upcoming)
            trap = locations[qubit_a]
            separation = positions[qubit_a] - positions[qubit_b]
            if separation < 0:
                separation = -separation
            append_gate(
                KIND_CODE_GATE_2Q,
                gate,
                trap,
                len(chains[trap]),
                separation - 1 if separation > 1 else 0,
            )
            executed += 1
            router._consume_upcoming(upcoming, gate)
        for single in trailing_1q:
            trap = locations[single.qubits[0]]
            append_gate(code_1q, single, trap, len(chains[trap]), 0)

        context.statistics.executed_two_qubit_gates += executed
        context.schedule = schedule
        context.final_state = state

    def statistics(self, context: PassContext) -> dict[str, Any]:
        return {
            "executed_two_qubit_gates": context.statistics.executed_two_qubit_gates,
        }


class BaselineRouter:
    """Greedy routing primitives shared by the baseline compilers."""

    name = "baseline"

    def __init__(self, device: QCCDDevice) -> None:
        self.device = device

    # ------------------------------------------------------------------
    # template: subclasses provide mapping + per-gate routing policy
    # ------------------------------------------------------------------
    def build_initial_state(self, circuit: QuantumCircuit) -> DeviceState:
        """Construct this baseline's initial mapping."""
        raise NotImplementedError

    def route_gate(
        self, schedule: Schedule, state: DeviceState, gate: Gate, upcoming: dict[int, list[int]]
    ) -> None:
        """Bring the two operands of ``gate`` into one trap."""
        raise NotImplementedError

    def pipeline(self) -> CompilerPipeline:
        """The pass pipeline this baseline assembles."""
        return CompilerPipeline(
            self.name,
            self.device,
            (BaselineMappingPass(self), BaselineRoutingPass(self), MetricsPass()),
        )

    def compile(
        self,
        circuit: QuantumCircuit,
        initial_state: DeviceState | None = None,
    ) -> CompilationResult:
        """Compile ``circuit`` with this baseline's policy."""
        return self.pipeline().compile(circuit, initial_state=initial_state)

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _upcoming_partners(circuit: QuantumCircuit) -> dict[int, list[int]]:
        """For every qubit, the ordered list of its future two-qubit partners."""
        partners: dict[int, list[int]] = defaultdict(list)
        for gate in circuit.gates:
            if not gate.is_two_qubit:
                continue
            a, b = gate.qubits
            partners[a].append(b)
            partners[b].append(a)
        return dict(partners)

    @staticmethod
    def _consume_upcoming(upcoming: dict[int, list[int]], gate: Gate) -> None:
        a, b = gate.qubits
        if upcoming.get(a):
            upcoming[a].pop(0)
        if upcoming.get(b):
            upcoming[b].pop(0)

    @staticmethod
    def _partition_single_qubit_gates(
        circuit: QuantumCircuit,
    ) -> tuple[dict[int, list[Gate]], list[Gate]]:
        pending: dict[int, list[Gate]] = defaultdict(list)
        waiting: dict[int, list[Gate]] = defaultdict(list)
        for index, gate in enumerate(circuit.gates):
            if gate.is_two_qubit:
                for q in gate.qubits:
                    if waiting[q]:
                        pending[index].extend(waiting[q])
                        waiting[q] = []
            elif gate.is_single_qubit:
                waiting[gate.qubits[0]].append(gate)
        trailing = [gate for q in sorted(waiting) for gate in waiting[q]]
        return dict(pending), trailing

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------
    def emit_swap(self, schedule: Schedule, state: DeviceState, qubit_a: int, qubit_b: int) -> None:
        """Record and apply one SWAP gate."""
        trap = state.locations[qubit_a]
        positions = state.positions
        separation = positions[qubit_a] - positions[qubit_b]
        if separation < 0:
            separation = -separation
        schedule.slab.append_swap(
            trap,
            qubit_a,
            qubit_b,
            len(state.chains[trap]),
            separation - 1 if separation > 1 else 0,
        )
        # The checked SWAP rejects operands in different traps.
        state.swap_qubits(qubit_a, qubit_b)

    def emit_shuttle(
        self, schedule: Schedule, state: DeviceState, qubit: int, target_trap: int
    ) -> None:
        """Record and apply one shuttle of ``qubit`` to an adjacent trap."""
        source_trap = state.locations[qubit]
        connection = self.device.connection_between(source_trap, target_trap)
        chains = state.chains
        source_before = len(chains[source_trap])
        # The checked shuttle validates adjacency, end position and room.
        state.shuttle(qubit, target_trap)
        schedule.slab.append_shuttle(
            qubit,
            source_trap,
            target_trap,
            connection.segments,
            connection.junctions,
            source_before,
            len(chains[target_trap]),
        )

    # ------------------------------------------------------------------
    # routing primitives
    # ------------------------------------------------------------------
    def bring_to_end(
        self,
        schedule: Schedule,
        state: DeviceState,
        qubit: int,
        end: str,
        stepwise: bool,
    ) -> None:
        """SWAP ``qubit`` to one chain end, one hop at a time or directly."""
        if state.is_at_end(qubit, end):
            return
        if stepwise:
            guard = state.chain_length(state.trap_of(qubit)) + 1
            while not state.is_at_end(qubit, end) and guard > 0:
                guard -= 1
                trap = state.trap_of(qubit)
                chain = state.chain(trap)
                index = chain.index(qubit)
                neighbour_index = index - 1 if end == "left" else index + 1
                self.emit_swap(schedule, state, qubit, chain[neighbour_index])
            if not state.is_at_end(qubit, end):  # pragma: no cover - defensive
                raise SchedulingError(f"failed to bring qubit {qubit} to the {end} end")
        else:
            trap = state.trap_of(qubit)
            end_qubit = state.end_qubit(trap, end)
            assert end_qubit is not None and end_qubit != qubit
            self.emit_swap(schedule, state, qubit, end_qubit)

    def ensure_space(
        self,
        schedule: Schedule,
        state: DeviceState,
        trap_id: int,
        protected: tuple[int, ...] = (),
        min_free: int = 1,
    ) -> None:
        """Evict ions from ``trap_id`` until it has ``min_free`` free slots.

        When every neighbour is also full, a free slot is located by
        breadth-first search and the eviction cascades hop by hop along
        that path (each trap pushes one ion into the next, starting from
        the trap adjacent to the free slot).  The BFS keeps the search
        from ping-ponging between two mutually-full neighbours, which the
        previous recursive formulation could do until the stack overflowed.
        """
        guard = self.device.num_traps * max(t.capacity for t in self.device.traps) + 8
        while state.free_slots(trap_id) < min_free:
            guard -= 1
            if guard < 0:
                raise SchedulingError(f"could not free a slot in trap {trap_id}")
            # An intermediate trap may hold only protected ions and refuse to
            # give one up; exclude it and look for a detour before giving up.
            excluded: set[int] = set()
            while True:
                path = self._path_to_free_slot(state, trap_id, excluded)
                if path is None:
                    raise SchedulingError(
                        f"could not free a slot in trap {trap_id}: every route to a "
                        "free slot is blocked"
                    )
                blocked = self._cascade_evictions(schedule, state, path, protected)
                if blocked is None:
                    break
                if blocked == trap_id:
                    raise SchedulingError(
                        f"could not free a slot in trap {trap_id}: it holds only "
                        "protected ions"
                    )
                excluded.add(blocked)

    def _cascade_evictions(
        self,
        schedule: Schedule,
        state: DeviceState,
        path: list[int],
        protected: tuple[int, ...],
    ) -> int | None:
        """Push one ion along ``path`` toward its free-slot end.

        The path is walked backwards so each hop's destination has a free
        slot by the time its ion arrives.  Returns ``None`` on success, or
        the id of a trap whose ions are all protected (so the caller can
        route around it).  Hops already performed are toward free space
        and leave the state legal, so a partial cascade is harmless.
        """
        for source, target in reversed(list(zip(path, path[1:]))):
            end = state.facing_end(source, target)
            victim = state.end_qubit(source, end)
            if victim is None:
                continue  # the source trap is empty — nothing to push on
            if victim in protected:
                # A protected ion blocks the departing end; SWAP it away
                # before evicting, if any other ion is available.
                replacement = next(
                    (q for q in state.chain(source) if q not in protected), None
                )
                if replacement is None:
                    return source
                self.emit_swap(schedule, state, victim, replacement)
                victim = state.end_qubit(source, end)
                assert victim is not None
            self.emit_shuttle(schedule, state, victim, target)
        return None

    def _path_to_free_slot(
        self, state: DeviceState, trap_id: int, excluded: set[int] | None = None
    ) -> list[int] | None:
        """Shortest trap path from ``trap_id`` to the nearest trap with space."""
        excluded = excluded or set()
        parents: dict[int, int] = {trap_id: trap_id}
        queue = [trap_id]
        while queue:
            current = queue.pop(0)
            for neighbour in self.device.neighbors(current):
                if neighbour in parents or neighbour in excluded:
                    continue
                parents[neighbour] = current
                if state.has_space(neighbour):
                    path = [neighbour]
                    while path[-1] != trap_id:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(neighbour)
        return None

    def shuttle_along_path(
        self,
        schedule: Schedule,
        state: DeviceState,
        qubit: int,
        target_trap: int,
        stepwise_swaps: bool,
        protected: tuple[int, ...] = (),
        reserve_at_target: int = 1,
    ) -> None:
        """Move ``qubit`` hop by hop to ``target_trap`` along the cheapest route."""
        guard = 4 * self.device.num_traps + 8
        while state.trap_of(qubit) != target_trap:
            guard -= 1
            if guard < 0:
                raise SchedulingError(f"routing qubit {qubit} to trap {target_trap} did not converge")
            source = state.trap_of(qubit)
            next_trap = self.device.next_hop(source, target_trap)
            departing_end = state.facing_end(source, next_trap)
            min_free = reserve_at_target if next_trap == target_trap else 1
            # Free the destination first: an eviction may merge an ion into
            # the source trap's departing end, which would displace ``qubit``
            # if it had already been brought there.
            self.ensure_space(
                schedule, state, next_trap, protected=protected + (qubit,), min_free=min_free
            )
            self.bring_to_end(schedule, state, qubit, departing_end, stepwise_swaps)
            self.emit_shuttle(schedule, state, qubit, next_trap)
