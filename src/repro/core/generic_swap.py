"""Generic swap operations — the paper's unified node-interchange primitive.

Section 3.2 folds every QCCD-specific operation (SWAP gate, intra-trap
reordering, split/move/merge shuttling) into a single *generic swap*: an
interchange of two nodes of the static topology graph.  In the chain
occupancy model used by this implementation, a generic swap is one of:

* ``SWAP_GATE`` — exchange two ions inside one trap (one SWAP gate =
  three two-qubit gates).  Graph weight: ``inner_weight * distance``.
* ``SHUTTLE`` — move an ion sitting at the chain end facing a connected
  trap into that trap (split + move + merge).  Graph weight:
  ``shuttle_weight * (junctions + 1)``.

The candidate generator also proposes *eviction* shuttles (moving an
unrelated ion out of a full destination trap) because a blocked trap
would otherwise deadlock the router — this corresponds to the paper's
Pen term discouraging fully occupied traps.
"""

from __future__ import annotations

from enum import Enum

from repro.core.state import DeviceState
from repro.exceptions import SchedulingError
from repro.hardware.graph import GraphWeights


class GenericSwapKind(str, Enum):
    """The two concrete interchange families of the chain model."""

    SWAP_GATE = "swap_gate"
    SHUTTLE = "shuttle"


class GenericSwap:
    """One candidate node interchange.

    ``qubit_a`` is always a program qubit.  For ``SWAP_GATE`` candidates
    ``qubit_b`` is the other ion; for ``SHUTTLE`` candidates ``qubit_b``
    is ``None`` and ``target_trap`` names the receiving trap.

    A plain ``__slots__`` value class (the candidate generator creates a
    few per scheduler iteration, so construction stays cheap); equality
    and hashing are field-wise, as with the frozen dataclass it
    replaces, and instances are immutable by convention.
    """

    __slots__ = ("kind", "qubit_a", "qubit_b", "trap", "target_trap", "weight")

    def __init__(
        self,
        kind: GenericSwapKind,
        qubit_a: int,
        qubit_b: "int | None",
        trap: int,
        target_trap: "int | None",
        weight: float,
    ) -> None:
        if kind is GenericSwapKind.SWAP_GATE:
            if qubit_b is None or target_trap is not None:
                raise SchedulingError("a SWAP_GATE candidate needs two qubits and no target trap")
            if qubit_a == qubit_b:
                raise SchedulingError("a SWAP_GATE candidate needs two distinct qubits")
        else:
            if qubit_b is not None or target_trap is None:
                raise SchedulingError("a SHUTTLE candidate needs one qubit and a target trap")
            if trap == target_trap:
                raise SchedulingError("a SHUTTLE candidate must change traps")
        if weight <= 0:
            raise SchedulingError("generic swap weights must be positive")
        self.kind = kind
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.trap = trap
        self.target_trap = target_trap
        self.weight = weight

    @classmethod
    def unchecked(
        cls,
        kind: GenericSwapKind,
        qubit_a: int,
        qubit_b: "int | None",
        trap: int,
        target_trap: "int | None",
        weight: float,
    ) -> "GenericSwap":
        """Construct without field validation (hot-path fast constructor).

        The flat candidate generator emits only shapes that the checked
        ``__init__`` would accept (it replays the rule set of
        :meth:`GenericSwapRules.candidates_for_qubit`), so the argument
        validation is skipped entirely.
        """
        self = object.__new__(cls)
        self.kind = kind
        self.qubit_a = qubit_a
        self.qubit_b = qubit_b
        self.trap = trap
        self.target_trap = target_trap
        self.weight = weight
        return self

    def _fields(self) -> tuple:
        return (self.kind, self.qubit_a, self.qubit_b, self.trap, self.target_trap, self.weight)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GenericSwap:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"GenericSwap(kind={self.kind!r}, qubit_a={self.qubit_a!r}, "
            f"qubit_b={self.qubit_b!r}, trap={self.trap!r}, "
            f"target_trap={self.target_trap!r}, weight={self.weight!r})"
        )

    @property
    def moved_qubits(self) -> tuple[int, ...]:
        """The program qubits whose position changes if this swap is applied."""
        if self.qubit_b is None:
            return (self.qubit_a,)
        return (self.qubit_a, self.qubit_b)

    def reverses(self, other: "GenericSwap | None") -> bool:
        """True when applying this swap right after ``other`` undoes it."""
        if other is None or self.kind != other.kind:
            return False
        if self.kind is GenericSwapKind.SWAP_GATE:
            return {self.qubit_a, self.qubit_b} == {other.qubit_a, other.qubit_b}
        return (
            self.qubit_a == other.qubit_a
            and self.trap == other.target_trap
            and self.target_trap == other.trap
        )


class GenericSwapRules:
    """Candidate generation and weights for generic swaps (§3.1 rules 1–4)."""

    def __init__(self, weights: GraphWeights | None = None) -> None:
        self.weights = weights or GraphWeights()
        self._tables_device: "object | None" = None
        self._next_hop: list[list[int]] = []
        self._connections: list = []

    def _tables(self, device) -> "tuple[list[list[int]], list]":
        """Per-device memo of the next-hop and connection tables.

        ``device.routing_tables``/``connection_matrix`` build a fresh
        tuple per access; the candidate generator runs per scheduler
        iteration, so the rows are bound once per device.
        """
        if self._tables_device is not device:
            self._tables_device = device
            self._next_hop = device.routing_tables[1]
            self._connections = device.connection_matrix
        return self._next_hop, self._connections

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def swap_gate_weight(self, chain_distance: int) -> float:
        """Weight of an intra-trap SWAP across ``chain_distance`` positions."""
        if chain_distance < 1:
            raise SchedulingError("a SWAP candidate needs a positive chain distance")
        return self.weights.inner_weight * chain_distance

    def shuttle_weight(self, junctions: int) -> float:
        """Weight of a shuttle crossing ``junctions`` junctions (paper: j+1)."""
        if junctions < 0:
            raise SchedulingError("junction counts cannot be negative")
        return self.weights.shuttle_weight * (1 + junctions)

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------
    def candidates_for_qubit(
        self, state: DeviceState, qubit: int, goal_trap: int
    ) -> list[GenericSwap]:
        """Generic swaps that move ``qubit`` towards ``goal_trap``.

        The set contains:

        * a SWAP with the ion at the departing chain end (brings the
          qubit to the edge in one long-range SWAP),
        * SWAPs with the ions adjacent to the qubit (finer-grained moves
          the heuristic can prefer when the long-range SWAP is costly),
        * a SHUTTLE to the next trap on the cheapest route when the
          qubit already sits at the departing end and the next trap has
          room,
        * eviction SHUTTLEs that free up the next trap when it is full.
        """
        source_trap = state.locations[qubit]
        if source_trap == goal_trap:
            return []
        next_hop, connection_matrix = self._tables(state.device)
        next_trap = next_hop[source_trap][goal_trap]
        # Departing chain end: the right end (last index) faces larger
        # trap ids, per the DeviceState.facing_end convention.
        towards_right = next_trap > source_trap
        candidates: list[GenericSwap] = []

        chain = state.chains[source_trap]
        length = len(chain)
        index = state.positions[qubit]
        inner_weight = self.weights.inner_weight
        # SWAP with the ion at the departing end.
        end_index = length - 1 if towards_right else 0
        end_qubit = chain[end_index] if length else None
        if end_qubit is not None and end_qubit != qubit:
            distance = end_index - index if towards_right else index
            candidates.append(
                GenericSwap(
                    GenericSwapKind.SWAP_GATE,
                    qubit_a=qubit,
                    qubit_b=end_qubit,
                    trap=source_trap,
                    target_trap=None,
                    weight=inner_weight * distance,
                )
            )
        # SWAP with the immediate neighbour towards the departing end.  Moves
        # away from that end never shorten the route for this qubit, so they
        # are not proposed here (another waiting gate proposes them if they
        # help it instead), which keeps the search from shuffling ions back
        # and forth without progress.
        neighbour_index = index + 1 if towards_right else index - 1
        if 0 <= neighbour_index < length:
            other = chain[neighbour_index]
            if other != qubit and (end_qubit is None or other != end_qubit):
                candidates.append(
                    GenericSwap(
                        GenericSwapKind.SWAP_GATE,
                        qubit_a=qubit,
                        qubit_b=other,
                        trap=source_trap,
                        target_trap=None,
                        weight=inner_weight,
                    )
                )
        # SHUTTLE toward the next trap on the route.
        if index == end_index:
            connection = connection_matrix[source_trap][next_trap]
            assert connection is not None  # next_hop implies a direct edge
            if state.has_space(next_trap):
                candidates.append(
                    GenericSwap(
                        GenericSwapKind.SHUTTLE,
                        qubit_a=qubit,
                        qubit_b=None,
                        trap=source_trap,
                        target_trap=next_trap,
                        weight=self.weights.shuttle_weight * (1 + connection.junctions),
                    )
                )
            else:
                candidates.extend(self.eviction_candidates(state, next_trap, exclude=(qubit,)))
        return candidates

    def eviction_candidates(
        self, state: DeviceState, full_trap: int, exclude: tuple[int, ...] = ()
    ) -> list[GenericSwap]:
        """Shuttles that move an end ion of ``full_trap`` to a neighbour with room."""
        device = state.device
        chain = state.chains[full_trap]
        connections = self._tables(device)[1][full_trap]
        candidates: list[GenericSwap] = []
        for neighbour in device.neighbors(full_trap):
            if not state.has_space(neighbour):
                continue
            # The victim sits at the end facing the neighbour (right end
            # faces larger trap ids).
            victim = (chain[-1] if neighbour > full_trap else chain[0]) if chain else None
            if victim is None or victim in exclude:
                continue
            connection = connections[neighbour]
            assert connection is not None
            candidates.append(
                GenericSwap(
                    GenericSwapKind.SHUTTLE,
                    qubit_a=victim,
                    qubit_b=None,
                    trap=full_trap,
                    target_trap=neighbour,
                    weight=self.shuttle_weight(connection.junctions),
                )
            )
        return candidates

    def candidates_for_gates(
        self, state: DeviceState, gate_qubit_pairs: list[tuple[int, int]]
    ) -> list[GenericSwap]:
        """The candidate set ``S`` of Algorithm 1 for the waiting gates."""
        seen: set[tuple] = set()
        candidates: list[GenericSwap] = []
        for qubit_a, qubit_b in gate_qubit_pairs:
            trap_a = state.trap_of(qubit_a)
            trap_b = state.trap_of(qubit_b)
            if trap_a == trap_b:
                continue
            for qubit, goal in ((qubit_a, trap_b), (qubit_b, trap_a)):
                for candidate in self.candidates_for_qubit(state, qubit, goal):
                    key = (
                        candidate.kind,
                        candidate.qubit_a,
                        candidate.qubit_b,
                        candidate.trap,
                        candidate.target_trap,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(candidate)
        return candidates
