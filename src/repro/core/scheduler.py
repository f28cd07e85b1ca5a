"""The S-SYNC generic-swap scheduling loop (Algorithm 1 of the paper).

The scheduler walks the dependency DAG of two-qubit gates.  Whenever a
frontier gate's operands share a trap, the gate executes immediately;
otherwise the scheduler enumerates candidate *generic swaps* (intra-trap
SWAP gates and inter-trap shuttles, §3.2), scores each with the heuristic
``H`` of Eq. 1 on a hypothetical placement, applies the cheapest one, and
repeats.

Two engineering safeguards complement the paper's description:

* a candidate that exactly reverses the previously applied generic swap
  is discarded (unless it is the only option), and
* if no frontier gate has executed for ``stall_limit`` consecutive
  generic swaps, the oldest frontier gate is *force-routed* along the
  shortest trap path, which guarantees termination on adversarial
  inputs.

The hot path is selectable via ``SchedulerConfig.backend`` and ships in
two implementations that produce bit-identical schedules and statistics
(asserted by the randomized parity suite):

* ``"flat"`` (default) — candidate generation and batched scoring on
  flat integer arrays (:mod:`repro.core.flatstate`); every candidate of
  an iteration is evaluated in one pass with hypothetical placements
  costing a few array writes.
* ``"naive"`` — the reference implementation: a fresh ``state.copy()``
  and a full rescore per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import DependencyDAG
from repro.circuit.gate import Gate
from repro.core.flatstate import FlatCandidateBatch, FlatRun, FlatState
from repro.core.generic_swap import GenericSwap, GenericSwapKind, GenericSwapRules
from repro.core.heuristic import DecayTracker, HeuristicCost
from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.device import QCCDDevice
from repro.hardware.graph import GraphWeights
from repro.schedule.operations import KIND_CODE_GATE_1Q, KIND_CODE_GATE_2Q, GateOperation
from repro.schedule.schedule import Schedule
from repro.schema import check_fields, rule

#: The selectable scheduler cores, fastest first.  Both produce
#: bit-identical schedules and statistics; see the module docstring.
SCHEDULER_BACKENDS = ("flat", "naive")


def _check_backend(name: object) -> None:
    if name not in SCHEDULER_BACKENDS:
        message = f"unknown scheduler backend {name!r}; expected one of {SCHEDULER_BACKENDS}"
        raise SchedulingError(message)


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable parameters of the generic-swap scheduler.

    The defaults follow §4.4 of the paper: inner weight 0.001, shuttle
    weight 1, decay δ = 0.001 reset after 5 iterations.  ``lookahead``
    parameters extend the heuristic beyond the frontier (0 = paper
    faithful).  Each field's rule is in its metadata (:mod:`repro.schema`).
    """

    weights: GraphWeights = field(
        default_factory=GraphWeights,
        metadata=rule(GraphWeights, wording="a GraphWeights (set it through weight_ratio)"),
    )
    decay_delta: float = field(default=0.001, metadata=rule("number", minimum=0))
    decay_reset_interval: int = field(default=5, metadata=rule("int", minimum=1))
    #: Number of dependency layers beyond the frontier considered by the
    #: heuristic.  The paper's Eq. 1 only looks at the frontier
    #: (``lookahead_depth = 0``); a shallow lookahead is an extension that
    #: markedly reduces shuttle counts on serial circuits such as the
    #: Cuccaro adder and is therefore the default here.
    lookahead_depth: int = field(default=4, metadata=rule("int", minimum=0))
    lookahead_weight: float = field(default=0.5, metadata=rule("number", minimum=0))
    stall_limit: int = field(default=64, metadata=rule("int", minimum=1))
    max_generic_swaps: int = field(default=2_000_000, metadata=rule("int", minimum=1))
    #: Which scheduler core scores candidates — one of
    #: :data:`SCHEDULER_BACKENDS`.  ``None`` resolves to ``"flat"``.
    #: Both backends produce bit-identical schedules and statistics
    #: (asserted by the randomized parity suite); ``"naive"`` exists as
    #: the reference and for benchmarking the speedup.
    backend: "str | None" = field(
        default=None, metadata=rule(resolve=_check_backend, optional=True)
    )

    def __post_init__(self) -> None:
        check_fields(self, SchedulingError)
        # Resolve the backend exactly once, here, so every consumer
        # (run(), pipeline statistics, benchmarks) reads one field and
        # the naive candidate loop can never be reached by accident.
        if self.backend is None:
            object.__setattr__(self, "backend", "flat")


@dataclass
class SchedulerStatistics:
    """Counters describing one scheduling run (for analysis and tests)."""

    generic_swap_iterations: int = 0
    forced_routes: int = 0
    executed_two_qubit_gates: int = 0
    candidate_evaluations: int = 0


class GenericSwapScheduler:
    """Algorithm 1: generic-swap based shuttling schedule."""

    def __init__(self, device: QCCDDevice, config: SchedulerConfig | None = None) -> None:
        self.device = device
        self.config = config or SchedulerConfig()
        self.rules = GenericSwapRules(self.config.weights)
        self.cost = HeuristicCost(self.config.weights)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self, circuit: QuantumCircuit, initial_state: DeviceState
    ) -> tuple[Schedule, DeviceState, SchedulerStatistics]:
        """Schedule ``circuit`` starting from ``initial_state``.

        Returns the operation log, the final occupancy and run statistics.
        The initial state is not mutated.
        """
        self._check_initial_state(circuit, initial_state)
        state = initial_state.copy()
        schedule = Schedule(self.device, circuit.name)
        stats = SchedulerStatistics()
        dag = DependencyDAG(circuit, attach_single_qubit_gates=True)
        pending_1q = dag.pending_single_qubit
        trailing_1q = dag.trailing_single_qubit
        decay = DecayTracker(self.config.decay_delta, self.config.decay_reset_interval)
        backend = self.config.backend
        caches: "FlatRun | None"
        if backend == "flat":
            caches = FlatRun(state, self.device, self.rules, self.cost)
            generate_candidates = caches.generator.candidates_for_gates
            flat_mirror = caches.flat

            def execute_ready(ready: "list[tuple[int, Gate]] | None" = None) -> bool:
                return self._execute_ready_gates_flat(
                    dag, flat_mirror, schedule, pending_1q, stats, ready
                )

        elif backend == "naive":
            caches = None
            generate_candidates = self.rules.candidates_for_gates

            def execute_ready(ready: "list[tuple[int, Gate]] | None" = None) -> bool:
                return self._execute_ready_gates(dag, state, schedule, pending_1q, stats, ready)

        else:  # pragma: no cover - __post_init__ validates the field
            raise SchedulingError(f"unknown scheduler backend {backend!r}")

        last_swap: GenericSwap | None = None
        swaps_since_progress = 0
        # The frontier (and its lookahead slice) only changes when a gate
        # executes; between executions the scheduler may apply many
        # generic swaps against the same frontier, so both are cached
        # under the DAG's revision counter.
        frontier: list[tuple[int, Gate]] = []
        frontier_pairs: list[tuple[int, int]] = []
        lookahead_pairs: list[tuple[int, int]] | None = None
        lookahead_stale = False
        frontier_revision = -1

        execute_ready()
        while not dag.is_done:
            if frontier_revision != dag.revision:
                frontier = dag.frontier_items()
                frontier_pairs = [(gate.qubits[0], gate.qubits[1]) for _, gate in frontier]
                lookahead_pairs = None
                lookahead_stale = self.config.lookahead_depth > 0
                frontier_revision = dag.revision
            candidates = generate_candidates(state, frontier_pairs)
            if last_swap is not None:
                if isinstance(candidates, FlatCandidateBatch):
                    candidates.drop_reversing(last_swap)
                else:
                    non_reversing = [c for c in candidates if not c.reverses(last_swap)]
                    if non_reversing:
                        candidates = non_reversing

            if not candidates or swaps_since_progress >= self.config.stall_limit:
                self._force_route(schedule, state, frontier[0][1], stats, caches)
                stats.forced_routes += 1
                swaps_since_progress = 0
                last_swap = None
                execute_ready(frontier)
            else:
                # The lookahead slice is only consumed when candidates are
                # actually scored; singleton iterations skip the BFS.
                if lookahead_stale and len(candidates) > 1:
                    lookahead_pairs = dag.lookahead_pairs(
                        self.config.lookahead_depth, skip_frontier=True
                    )
                    lookahead_stale = False
                best = self._select_candidate(
                    state,
                    candidates,
                    frontier_pairs,
                    lookahead_pairs,
                    decay,
                    stats,
                    caches,
                    frontier_revision,
                )
                self._apply_candidate(schedule, state, best, caches)
                decay.advance()
                decay.record(best.moved_qubits)
                last_swap = best
                swaps_since_progress += 1
                stats.generic_swap_iterations += 1
                if stats.generic_swap_iterations > self.config.max_generic_swaps:
                    raise SchedulingError(
                        "scheduler exceeded the generic-swap budget "
                        f"({self.config.max_generic_swaps}); the circuit/device combination "
                        "appears unroutable"
                    )
                # An intra-trap SWAP cannot co-locate a waiting gate (trap
                # membership is unchanged), and a shuttle can only
                # co-locate gates acting on the one ion it moved.
                if best.kind is not GenericSwapKind.SWAP_GATE:
                    moved = best.qubit_a
                    affected = [item for item in frontier if moved in item[1].qubits]
                    if affected and execute_ready(affected):
                        swaps_since_progress = 0

        for gate in trailing_1q:
            self._emit_single_qubit_gate(schedule, state, gate)
        schedule.validate_against(dag.num_nodes)
        return schedule, state, stats

    # ------------------------------------------------------------------
    # gate execution
    # ------------------------------------------------------------------
    def _check_initial_state(self, circuit: QuantumCircuit, state: DeviceState) -> None:
        missing = [q for q in range(circuit.num_qubits) if not state.is_placed(q)]
        if missing:
            raise SchedulingError(
                f"initial mapping does not place qubits {missing[:10]} (and possibly more)"
            )
        if state.device is not self.device and state.device.name != self.device.name:
            raise SchedulingError("the initial state was built for a different device")

    def _execute_ready_gates(
        self,
        dag: DependencyDAG,
        state: DeviceState,
        schedule: Schedule,
        pending_1q: dict[int, list[Gate]],
        stats: SchedulerStatistics,
        ready: "list[tuple[int, Gate]] | None" = None,
    ) -> bool:
        """Execute every frontier gate whose operands share a trap.

        Executing a gate never moves an ion, so a gate found split across
        traps stays split for the whole call: each round only the gates
        that became ready in the previous round need a co-location check,
        instead of rescanning the entire frontier after every execution.
        Execution order (ready gates in program order, round by round) is
        unchanged from the full-rescan formulation.

        ``ready`` lets the caller pass its revision-cached frontier list
        (skipping a rebuild), or a prefiltered slice of it — after a
        shuttle only the gates acting on the moved ion can have become
        co-located, and the caller skips the call entirely when that
        slice is empty.
        """
        executed_any = False
        locations = state.locations
        positions = state.positions
        chains = state.chains
        append = schedule.append
        pop_pending = pending_1q.pop
        make_gate_op = GateOperation
        executed = 0
        if ready is None:
            ready = dag.frontier_items()
        retire = dag.retire
        while ready:
            if len(ready) == 1:
                # The overwhelmingly common round on serial circuits: one
                # ready gate whose execution enables the next.  Same
                # semantics as the general round below, minus the batch
                # machinery.
                index, gate = ready[0]
                qubit_a, qubit_b = gate.qubits
                trap = locations[qubit_a]
                if trap != locations[qubit_b]:
                    break
                previous_qubit = -1
                for gate_1q in pop_pending(index, ()):
                    qubit_1q = gate_1q.qubits[0]
                    if qubit_1q != previous_qubit:
                        trap_1q = locations[qubit_1q]
                        chain_length_1q = len(chains[trap_1q])
                        previous_qubit = qubit_1q
                    append(make_gate_op(gate_1q, trap_1q, chain_length_1q))
                separation = positions[qubit_a] - positions[qubit_b]
                if separation < 0:
                    separation = -separation
                append(
                    make_gate_op(
                        gate, trap, len(chains[trap]), separation - 1 if separation > 1 else 0
                    )
                )
                executed += 1
                executed_any = True
                ready = retire(index)
                if len(ready) > 1:
                    # (index, gate) pairs sort by the unique index.
                    ready.sort()
                continue
            retired: list[int] = []
            for index, gate in ready:
                qubit_a, qubit_b = gate.qubits
                trap = locations[qubit_a]
                if trap != locations[qubit_b]:
                    continue
                previous_qubit = -1
                for gate_1q in pop_pending(index, ()):
                    qubit_1q = gate_1q.qubits[0]
                    if qubit_1q != previous_qubit:
                        trap_1q = locations[qubit_1q]
                        chain_length_1q = len(chains[trap_1q])
                        previous_qubit = qubit_1q
                    append(make_gate_op(gate_1q, trap_1q, chain_length_1q))
                separation = positions[qubit_a] - positions[qubit_b]
                if separation < 0:
                    separation = -separation
                append(
                    make_gate_op(
                        gate, trap, len(chains[trap]), separation - 1 if separation > 1 else 0
                    )
                )
                retired.append(index)
                executed_any = True
            if not retired:
                break
            executed += len(retired)
            # Retiring after the round's emissions is equivalent: gate
            # execution never moves an ion, so later co-location checks
            # in the same round are unaffected.
            newly_ready = dag.retire_many(retired)
            # (index, gate) pairs sort by the unique index — no key needed.
            newly_ready.sort()
            ready = newly_ready
        stats.executed_two_qubit_gates += executed
        return executed_any

    def _execute_ready_gates_flat(
        self,
        dag: DependencyDAG,
        flat: FlatState,
        schedule: Schedule,
        pending_1q: dict[int, list[Gate]],
        stats: SchedulerStatistics,
        ready: "list[tuple[int, Gate]] | None" = None,
    ) -> bool:
        """:meth:`_execute_ready_gates` off the flat-array mirror.

        Gate execution never moves an ion, so this path only *reads* —
        trap membership, chain length and ion separation come straight
        off the ``qubit_trap`` / ``qubit_pos`` / ``length`` vectors
        instead of the canonical state's dict-of-list bookkeeping.
        Emission goes straight into the schedule's columnar slab — plain
        integer appends, no :class:`GateOperation` objects.  Emission
        order and every operation field are identical to the reference
        method (the mirror tracks the state move-for-move).
        """
        executed_any = False
        qtrap = flat.qubit_trap
        qpos = flat.qubit_pos
        length = flat.length
        append_gate = schedule.slab.append_gate
        pop_pending = pending_1q.pop
        code_1q = KIND_CODE_GATE_1Q
        code_2q = KIND_CODE_GATE_2Q
        executed = 0
        if ready is None:
            ready = dag.frontier_items()
        retire = dag.retire
        while ready:
            if len(ready) == 1:
                index, gate = ready[0]
                qubit_a, qubit_b = gate.qubits
                trap = qtrap[qubit_a]
                if trap != qtrap[qubit_b]:
                    break
                previous_qubit = -1
                for gate_1q in pop_pending(index, ()):
                    qubit_1q = gate_1q.qubits[0]
                    if qubit_1q != previous_qubit:
                        trap_1q = qtrap[qubit_1q]
                        chain_length_1q = length[trap_1q]
                        previous_qubit = qubit_1q
                    append_gate(code_1q, gate_1q, trap_1q, chain_length_1q, 0)
                separation = qpos[qubit_a] - qpos[qubit_b]
                if separation < 0:
                    separation = -separation
                append_gate(
                    code_2q, gate, trap, length[trap], separation - 1 if separation > 1 else 0
                )
                executed += 1
                executed_any = True
                ready = retire(index)
                if len(ready) > 1:
                    ready.sort()
                continue
            retired: list[int] = []
            for index, gate in ready:
                qubit_a, qubit_b = gate.qubits
                trap = qtrap[qubit_a]
                if trap != qtrap[qubit_b]:
                    continue
                previous_qubit = -1
                for gate_1q in pop_pending(index, ()):
                    qubit_1q = gate_1q.qubits[0]
                    if qubit_1q != previous_qubit:
                        trap_1q = qtrap[qubit_1q]
                        chain_length_1q = length[trap_1q]
                        previous_qubit = qubit_1q
                    append_gate(code_1q, gate_1q, trap_1q, chain_length_1q, 0)
                separation = qpos[qubit_a] - qpos[qubit_b]
                if separation < 0:
                    separation = -separation
                append_gate(
                    code_2q, gate, trap, length[trap], separation - 1 if separation > 1 else 0
                )
                retired.append(index)
                executed_any = True
            if not retired:
                break
            executed += len(retired)
            newly_ready = dag.retire_many(retired)
            newly_ready.sort()
            ready = newly_ready
        stats.executed_two_qubit_gates += executed
        return executed_any

    def _emit_single_qubit_gate(self, schedule: Schedule, state: DeviceState, gate: Gate) -> None:
        trap = state.locations[gate.qubits[0]]
        chain_length = max(len(state.chains[trap]), 1)
        schedule.slab.append_gate(KIND_CODE_GATE_1Q, gate, trap, chain_length, 0)

    # ------------------------------------------------------------------
    # candidate selection and application
    # ------------------------------------------------------------------
    def _select_candidate(
        self,
        state: DeviceState,
        candidates: "list[GenericSwap] | FlatCandidateBatch",
        frontier_pairs: list[tuple[int, int]],
        lookahead_pairs: list[tuple[int, int]] | None,
        decay: DecayTracker,
        stats: SchedulerStatistics,
        caches: "FlatRun | None",
        revision: int = -1,
    ) -> GenericSwap:
        if isinstance(caches, FlatRun):
            if len(candidates) == 1:
                # Argmin of a singleton: same shortcut as below, but the
                # flat batch materialises the one candidate on demand.
                stats.candidate_evaluations += 1
                return candidates.build(0)
            scorer = caches.scorer
            scorer.begin_iteration(
                frontier_pairs,
                decay,
                lookahead_pairs,
                self.config.lookahead_weight,
                revision,
            )
            return scorer.select(candidates, stats)
        best_candidate = candidates[0]
        if len(candidates) == 1:
            # The argmin of a singleton needs no H evaluation; the
            # reference loop also selects candidates[0] and counts one
            # evaluation, so statistics stay identical.
            stats.candidate_evaluations += 1
            return best_candidate
        best_score = float("inf")
        for candidate in candidates:
            score = self.cost.swap_score(
                state,
                candidate,
                frontier_pairs,
                decay,
                lookahead_pairs=lookahead_pairs,
                lookahead_weight=self.config.lookahead_weight,
            )
            stats.candidate_evaluations += 1
            if score < best_score - 1e-12:
                best_score = score
                best_candidate = candidate
        return best_candidate

    def _apply_candidate(
        self,
        schedule: Schedule,
        state: DeviceState,
        candidate: GenericSwap,
        caches: "FlatRun | None" = None,
    ) -> None:
        locations = state.locations
        chains = state.chains
        slab = schedule.slab
        if candidate.kind is GenericSwapKind.SWAP_GATE:
            assert candidate.qubit_b is not None
            trap = locations[candidate.qubit_a]
            positions = state.positions
            separation = positions[candidate.qubit_a] - positions[candidate.qubit_b]
            if separation < 0:
                separation = -separation
            slab.append_swap(
                trap,
                candidate.qubit_a,
                candidate.qubit_b,
                len(chains[trap]),
                separation - 1 if separation > 1 else 0,
            )
            state.unchecked_swap(candidate.qubit_a, candidate.qubit_b)
        else:
            assert candidate.target_trap is not None
            source_trap = locations[candidate.qubit_a]
            connection = self.device.connection_between(source_trap, candidate.target_trap)
            source_before = len(chains[source_trap])
            # The checked shuttle validates end position and capacity; a
            # selected candidate was generated legal against this state.
            state.unchecked_shuttle(candidate.qubit_a, source_trap, candidate.target_trap)
            slab.append_shuttle(
                candidate.qubit_a,
                source_trap,
                candidate.target_trap,
                connection.segments,
                connection.junctions,
                source_before,
                len(chains[candidate.target_trap]),
            )
        if caches is not None:
            caches.notify_applied(candidate)

    # ------------------------------------------------------------------
    # stall-breaking fallback
    # ------------------------------------------------------------------
    def _force_route(
        self,
        schedule: Schedule,
        state: DeviceState,
        gate: Gate,
        stats: SchedulerStatistics,
        caches: "FlatRun | None" = None,
    ) -> None:
        """Deterministically co-locate the operands of ``gate``."""
        qubit_a, qubit_b = gate.qubits
        safety = 4 * self.device.num_traps * max(t.capacity for t in self.device.traps) + 16
        steps = 0
        while not state.same_trap(qubit_a, qubit_b):
            steps += 1
            if steps > safety:
                raise SchedulingError(
                    f"force-routing gate {gate} did not converge; the device appears "
                    "too congested to route"
                )
            source = state.trap_of(qubit_a)
            target = state.trap_of(qubit_b)
            next_trap = self.device.next_hop(source, target)
            departing_end = state.facing_end(source, next_trap)
            # Free the destination before positioning the qubit: an eviction
            # may merge an ion into this trap's departing end and displace it.
            if not state.has_space(next_trap):
                self._make_space(schedule, state, next_trap, protected=(qubit_a,), caches=caches)
            if not state.is_at_end(qubit_a, departing_end):
                end_qubit = state.end_qubit(source, departing_end)
                assert end_qubit is not None and end_qubit != qubit_a
                self._apply_candidate(
                    schedule,
                    state,
                    GenericSwap(
                        GenericSwapKind.SWAP_GATE,
                        qubit_a=qubit_a,
                        qubit_b=end_qubit,
                        trap=source,
                        target_trap=None,
                        weight=self.rules.swap_gate_weight(
                            max(state.ion_separation(qubit_a, end_qubit) + 1, 1)
                        ),
                    ),
                    caches,
                )
            connection = self.device.connection_between(source, next_trap)
            self._apply_candidate(
                schedule,
                state,
                GenericSwap(
                    GenericSwapKind.SHUTTLE,
                    qubit_a=qubit_a,
                    qubit_b=None,
                    trap=source,
                    target_trap=next_trap,
                    weight=self.rules.shuttle_weight(connection.junctions),
                ),
                caches,
            )

    def _make_space(
        self,
        schedule: Schedule,
        state: DeviceState,
        trap_id: int,
        protected: tuple[int, ...],
        caches: "FlatRun | None" = None,
    ) -> None:
        """Free one slot in ``trap_id`` by pushing ions towards the nearest trap with room."""
        path = self._path_to_free_slot(state, trap_id)
        # Push ions backwards along the path: the last hop moves first.
        for source, target in reversed(list(zip(path, path[1:]))):
            end = state.facing_end(source, target)
            victim = state.end_qubit(source, end)
            if victim is None:
                continue
            if victim in protected:
                # Move the protected qubit away from the departing end first.
                chain = state.chain(source)
                replacement = next((q for q in chain if q not in protected), None)
                if replacement is None:
                    raise SchedulingError(
                        f"cannot free a slot in trap {source}: every ion is protected"
                    )
                self._apply_candidate(
                    schedule,
                    state,
                    GenericSwap(
                        GenericSwapKind.SWAP_GATE,
                        qubit_a=victim,
                        qubit_b=replacement,
                        trap=source,
                        target_trap=None,
                        weight=self.rules.swap_gate_weight(1),
                    ),
                    caches,
                )
                victim = state.end_qubit(source, end)
                assert victim is not None
            connection = self.device.connection_between(source, target)
            self._apply_candidate(
                schedule,
                state,
                GenericSwap(
                    GenericSwapKind.SHUTTLE,
                    qubit_a=victim,
                    qubit_b=None,
                    trap=source,
                    target_trap=target,
                    weight=self.rules.shuttle_weight(connection.junctions),
                ),
                caches,
            )

    def _path_to_free_slot(self, state: DeviceState, trap_id: int) -> list[int]:
        """Shortest hop path from ``trap_id`` to the nearest trap with a free slot."""
        if state.has_space(trap_id):
            return [trap_id]
        visited = {trap_id}
        frontier = [[trap_id]]
        while frontier:
            next_frontier: list[list[int]] = []
            for path in frontier:
                for neighbour in self.device.neighbors(path[-1]):
                    if neighbour in visited:
                        continue
                    visited.add(neighbour)
                    new_path = path + [neighbour]
                    if state.has_space(neighbour):
                        return new_path
                    next_frontier.append(new_path)
            frontier = next_frontier
        raise SchedulingError(
            "every trap on the device is full; at least one free slot is required for routing"
        )
