"""Mutable device occupancy state used during scheduling.

Each trap holds an ordered *chain* of program qubits (at most
``capacity`` of them).  Ions keep their chain order unless an explicit
SWAP gate exchanges two of them; they may only leave the chain from one
of its two ends (Observation 2 of the paper) and an incoming ion merges
at the end facing the connection it arrived through.

The chain end facing a neighbouring trap (:meth:`DeviceState.facing_end`)
follows one orientation convention, which the generic-swap rules
(:class:`repro.core.generic_swap.GenericSwapRules`) and the flat state
(:mod:`repro.core.flatstate`) share: the *right* end (last chain index)
faces neighbours with a larger trap id, the *left* end (index 0) faces
neighbours with a smaller id.

The state is the scheduler's innermost data structure, so it maintains
three derived indices incrementally instead of recomputing them per
query: a qubit → chain-index table (``position``/``ion_separation``/
``distance_to_end`` are O(1)), a per-trap capacity snapshot, and a
count of completely full traps (the Pen term of Eq. 2, O(1) via
:meth:`full_trap_count`).  Mutations keep all three in sync; the
unchecked fast paths (:meth:`unchecked_swap`, :meth:`unchecked_shuttle`)
skip the legality checks for callers that apply *known-legal* moves —
the scheduler applies each selected candidate through them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.exceptions import StateError
from repro.hardware.device import QCCDDevice

#: Symbolic ends of a trap's ion chain.
LEFT = "left"
RIGHT = "right"


class DeviceState:
    """Occupancy of a QCCD device: which qubit sits where in which trap."""

    __slots__ = (
        "device",
        "_chains",
        "_locations",
        "_positions",
        "_capacities",
        "_full_traps",
        "chains",
        "locations",
        "positions",
        "capacities",
    )

    def __init__(self, device: QCCDDevice) -> None:
        self.device = device
        self._chains: dict[int, list[int]] = {trap.trap_id: [] for trap in device.traps}
        self._locations: dict[int, int] = {}
        self._positions: dict[int, int] = {}
        self._capacities: dict[int, int] = {
            trap.trap_id: trap.capacity for trap in device.traps
        }
        self._full_traps = sum(1 for cap in self._capacities.values() if cap == 0)
        self._bind_views()

    def _bind_views(self) -> None:
        """Re-export the working dicts as read-only hot-path views.

        Plain attribute aliases rather than properties: the scheduler
        reads them millions of times.  Callers must never mutate them —
        use :meth:`chain`/:meth:`occupancy` for snapshots.
        """
        #: Live qubit -> trap mapping (read-only view).
        self.locations: Mapping[int, int] = self._locations
        #: Live qubit -> chain-index mapping (read-only view).
        self.positions: Mapping[int, int] = self._positions
        #: Live trap -> chain mapping (read-only view).
        self.chains: Mapping[int, list[int]] = self._chains
        #: Trap -> capacity snapshot (read-only view).
        self.capacities: Mapping[int, int] = self._capacities

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, device: QCCDDevice, trap_assignment: Mapping[int, Iterable[int]]) -> "DeviceState":
        """Build a state from a trap → ordered-qubit-list assignment."""
        state = cls(device)
        for trap_id, qubits in trap_assignment.items():
            for qubit in qubits:
                state.place(qubit, trap_id)
        return state

    def place(self, qubit: int, trap_id: int, end: str = RIGHT) -> None:
        """Append ``qubit`` to a trap's chain (used while building mappings)."""
        self._require_trap(trap_id)
        if qubit in self._locations:
            raise StateError(f"qubit {qubit} is already placed")
        chain = self._chains[trap_id]
        if len(chain) >= self._capacities[trap_id]:
            raise StateError(f"trap {trap_id} is full (capacity {self._capacities[trap_id]})")
        if end == RIGHT:
            self._positions[qubit] = len(chain)
            chain.append(qubit)
        elif end == LEFT:
            for other in chain:
                self._positions[other] += 1
            self._positions[qubit] = 0
            chain.insert(0, qubit)
        else:
            raise StateError(f"unknown chain end {end!r}")
        self._locations[qubit] = trap_id
        if len(chain) == self._capacities[trap_id]:
            self._full_traps += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require_trap(self, trap_id: int) -> None:
        if trap_id not in self._chains:
            raise StateError(f"unknown trap id {trap_id}")

    def trap_of(self, qubit: int) -> int:
        """The trap currently holding ``qubit``."""
        try:
            return self._locations[qubit]
        except KeyError as exc:
            raise StateError(f"qubit {qubit} has not been placed on the device") from exc

    def is_placed(self, qubit: int) -> bool:
        """True when the qubit has a location."""
        return qubit in self._locations

    def chain(self, trap_id: int) -> tuple[int, ...]:
        """The ordered ion chain of one trap."""
        self._require_trap(trap_id)
        return tuple(self._chains[trap_id])

    def chain_length(self, trap_id: int) -> int:
        """Number of ions currently in one trap."""
        self._require_trap(trap_id)
        return len(self._chains[trap_id])

    def free_slots(self, trap_id: int) -> int:
        """Remaining capacity of one trap."""
        self._require_trap(trap_id)
        return self._capacities[trap_id] - len(self._chains[trap_id])

    def has_space(self, trap_id: int) -> bool:
        """True when the trap can accept another ion."""
        try:
            return len(self._chains[trap_id]) < self._capacities[trap_id]
        except KeyError:
            raise StateError(f"unknown trap id {trap_id}") from None

    def full_trap_count(self) -> int:
        """Number of traps with no free slot (the Pen term of Eq. 2).

        Maintained incrementally by every mutation, so this is O(1)
        rather than a recount over all traps.
        """
        return self._full_traps

    def position(self, qubit: int) -> int:
        """Index of ``qubit`` within its trap's chain."""
        self.trap_of(qubit)
        return self._positions[qubit]

    def ion_separation(self, qubit_a: int, qubit_b: int) -> int:
        """Number of ions strictly between two qubits in the same chain."""
        trap_a = self.trap_of(qubit_a)
        trap_b = self.trap_of(qubit_b)
        if trap_a != trap_b:
            raise StateError(
                f"qubits {qubit_a} and {qubit_b} are in different traps ({trap_a} vs {trap_b})"
            )
        distance = self._positions[qubit_a] - self._positions[qubit_b]
        if distance < 0:
            distance = -distance
        return distance - 1 if distance > 1 else 0

    def same_trap(self, qubit_a: int, qubit_b: int) -> bool:
        """True when both qubits currently share a trap."""
        return self.trap_of(qubit_a) == self.trap_of(qubit_b)

    # ------------------------------------------------------------------
    # chain-end geometry
    # ------------------------------------------------------------------
    def facing_end(self, trap_id: int, neighbour_trap: int) -> str:
        """Which chain end of ``trap_id`` faces ``neighbour_trap``."""
        self._require_trap(trap_id)
        self._require_trap(neighbour_trap)
        if trap_id == neighbour_trap:
            raise StateError("a trap does not face itself")
        return RIGHT if neighbour_trap > trap_id else LEFT

    def end_qubit(self, trap_id: int, end: str) -> int | None:
        """The qubit at one end of a trap's chain (``None`` if empty)."""
        chain = self._chains[trap_id]
        if not chain:
            return None
        if end == RIGHT:
            return chain[-1]
        if end == LEFT:
            return chain[0]
        raise StateError(f"unknown chain end {end!r}")

    def is_at_end(self, qubit: int, end: str | None = None) -> bool:
        """True when the qubit sits at a chain end (optionally a specific one)."""
        trap_id = self.trap_of(qubit)
        index = self._positions[qubit]
        at_left = index == 0
        at_right = index == len(self._chains[trap_id]) - 1
        if end is None:
            return at_left or at_right
        if end == LEFT:
            return at_left
        if end == RIGHT:
            return at_right
        raise StateError(f"unknown chain end {end!r}")

    def distance_to_end(self, qubit: int, end: str) -> int:
        """Number of ions between the qubit and the given chain end."""
        trap_id = self.trap_of(qubit)
        index = self._positions[qubit]
        if end == LEFT:
            return index
        if end == RIGHT:
            return len(self._chains[trap_id]) - 1 - index
        raise StateError(f"unknown chain end {end!r}")

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def swap_qubits(self, qubit_a: int, qubit_b: int) -> None:
        """Exchange the chain positions of two qubits in the same trap."""
        trap_a = self.trap_of(qubit_a)
        trap_b = self.trap_of(qubit_b)
        if trap_a != trap_b:
            raise StateError("SWAP gates only act within a single trap")
        if qubit_a == qubit_b:
            raise StateError("cannot SWAP a qubit with itself")
        self.unchecked_swap(qubit_a, qubit_b)

    def unchecked_swap(self, qubit_a: int, qubit_b: int) -> None:
        """SWAP fast path: the caller guarantees both qubits share a trap.

        A SWAP is its own inverse, so reverting a hypothetical SWAP is
        simply applying it again.
        """
        positions = self._positions
        i, j = positions[qubit_a], positions[qubit_b]
        positions[qubit_a], positions[qubit_b] = j, i
        chain = self._chains[self._locations[qubit_a]]
        chain[i], chain[j] = chain[j], chain[i]

    def shuttle(self, qubit: int, target_trap: int) -> None:
        """Move ``qubit`` from the end of its chain into ``target_trap``.

        The qubit must sit at the chain end facing ``target_trap`` along
        the direct connection, and the target trap must have a free
        slot.  The qubit merges at the target's end facing the source.
        """
        source_trap = self.trap_of(qubit)
        self._require_trap(target_trap)
        if source_trap == target_trap:
            raise StateError("shuttle source and target traps must differ")
        if not self.device.are_connected(source_trap, target_trap):
            raise StateError(f"traps {source_trap} and {target_trap} are not directly connected")
        if not self.has_space(target_trap):
            raise StateError(f"trap {target_trap} has no free slot for an incoming ion")
        departing_end = self.facing_end(source_trap, target_trap)
        if not self.is_at_end(qubit, departing_end):
            raise StateError(
                f"qubit {qubit} is not at the {departing_end} end of trap {source_trap}; "
                "it cannot be split from the chain"
            )
        self.unchecked_shuttle(qubit, source_trap, target_trap)

    def unchecked_shuttle(self, qubit: int, source_trap: int, target_trap: int) -> None:
        """Shuttle fast path: the caller guarantees the move is legal.

        The qubit leaves ``source_trap`` from the end facing
        ``target_trap`` and merges into ``target_trap`` at the end facing
        ``source_trap``.  Because both ends face each other, a shuttle is
        its own inverse: ``unchecked_shuttle(q, target, source)`` exactly
        restores the previous chains, positions and fullness counters.
        """
        chains = self._chains
        positions = self._positions
        source_chain = chains[source_trap]
        if len(source_chain) == self._capacities[source_trap]:
            self._full_traps -= 1
        # Leave from the end facing the target (right = larger trap id).
        if target_trap > source_trap:
            source_chain.pop()
        else:
            source_chain.pop(0)
            for other in source_chain:
                positions[other] -= 1
        target_chain = chains[target_trap]
        # Merge at the target's end facing the source.
        if source_trap > target_trap:
            positions[qubit] = len(target_chain)
            target_chain.append(qubit)
        else:
            for other in target_chain:
                positions[other] += 1
            positions[qubit] = 0
            target_chain.insert(0, qubit)
        self._locations[qubit] = target_trap
        if len(target_chain) == self._capacities[target_trap]:
            self._full_traps += 1

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def occupancy(self) -> dict[int, tuple[int, ...]]:
        """A snapshot of every trap's chain."""
        return {trap_id: tuple(chain) for trap_id, chain in self._chains.items()}

    def flat_snapshot(self) -> tuple[list[list[int]], list[int], int]:
        """Chains and capacities in trap-id order plus the qubit-id bound.

        Export used to seed the flat-array mirror
        (:class:`repro.core.flatstate.FlatState`): trap ids are dense
        (``0..num_traps-1``), so positional lists are enough, and the
        bound is one past the largest placed qubit id (qubit ids index
        the mirror's position/location vectors).
        """
        num_traps = self.device.num_traps
        chains = [list(self._chains[trap_id]) for trap_id in range(num_traps)]
        capacities = [self._capacities[trap_id] for trap_id in range(num_traps)]
        qubit_bound = max(self._locations, default=-1) + 1
        return chains, capacities, qubit_bound

    def all_qubits(self) -> set[int]:
        """All placed program qubits."""
        return set(self._locations)

    def copy(self) -> "DeviceState":
        """An independent copy of this state."""
        clone = DeviceState(self.device)
        clone._chains = {trap_id: list(chain) for trap_id, chain in self._chains.items()}
        clone._locations = dict(self._locations)
        clone._positions = dict(self._positions)
        clone._full_traps = self._full_traps
        clone._bind_views()
        return clone

    def validate(self) -> None:
        """Check internal consistency (chains, locations, derived indices)."""
        seen: set[int] = set()
        full = 0
        for trap_id, chain in self._chains.items():
            if len(chain) > self._capacities[trap_id]:
                raise StateError(f"trap {trap_id} exceeds its capacity")
            if len(chain) == self._capacities[trap_id]:
                full += 1
            for index, qubit in enumerate(chain):
                if qubit in seen:
                    raise StateError(f"qubit {qubit} appears in more than one trap")
                seen.add(qubit)
                if self._locations.get(qubit) != trap_id:
                    raise StateError(f"location table disagrees with chain for qubit {qubit}")
                if self._positions.get(qubit) != index:
                    raise StateError(f"position index disagrees with chain for qubit {qubit}")
        if seen != set(self._locations):
            raise StateError("location table and chains disagree on the set of placed qubits")
        if full != self._full_traps:
            raise StateError(
                f"full-trap counter ({self._full_traps}) disagrees with a recount ({full})"
            )

    def __repr__(self) -> str:
        occupancy = ", ".join(
            f"{trap_id}:{list(chain)}" for trap_id, chain in sorted(self._chains.items())
        )
        return f"DeviceState({occupancy})"
