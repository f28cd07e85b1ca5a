"""Weights of the paper's static slot graph (§3.1, §4.4).

The key idea of S-SYNC is to model the device as a graph whose vertices
are *slots* (a slot either holds a qubit or is an empty "space") rather
than qubits, so that shuttling an ion is just an interchange of two node
labels and the graph itself never changes shape.  Slots are
``(trap_id, position)`` pairs, and edges are weighted as in the paper's
example (Fig. 5 and §4.4):

* intra-trap edge between slots at chain distance ``d``:
  weight ``inner_weight * d`` (``w1 = 0.001`` for adjacent ions,
  ``w2 = 0.002`` for distance 2, ...);
* inter-trap edge between the *edge* slots of two connected traps:
  weight ``shuttle_weight * (junctions + 1)`` (``w3 = 2`` for one
  junction, ``w4 = 3`` for two, with ``shuttle_weight = 1``).

The graph is never materialised.  The interchange rules of §3.1 (which
slot pairs may be swapped, and what each interchange costs physically)
are :class:`repro.core.generic_swap.GenericSwapRules`, and the scheduler
scores them over the flat occupancy state of :mod:`repro.core.flatstate`
with these weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DeviceError


@dataclass(frozen=True)
class GraphWeights:
    """Weight configuration of the static slot graph (paper §4.4 defaults)."""

    inner_weight: float = 0.001
    shuttle_weight: float = 1.0
    #: Two slots are "in the same trap" for gate purposes when the edge
    #: weight between them does not exceed this threshold.
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.inner_weight <= 0:
            raise DeviceError("inner_weight must be positive")
        if self.shuttle_weight <= 0:
            raise DeviceError("shuttle_weight must be positive")
        if not (self.inner_weight < self.threshold < self.shuttle_weight):
            raise DeviceError(
                "threshold must separate intra-trap weights from shuttle weights: "
                f"need {self.inner_weight} < threshold < {self.shuttle_weight}"
            )

    @property
    def ratio(self) -> float:
        """Shuttle-to-inner weight ratio (the ``r`` of the Fig. 14 sweep)."""
        return self.shuttle_weight / self.inner_weight

    def with_ratio(self, ratio: float) -> "GraphWeights":
        """Return weights with the same inner weight and a new shuttle/inner ratio."""
        if ratio <= 0:
            raise DeviceError("the weight ratio must be positive")
        return GraphWeights(
            inner_weight=self.inner_weight,
            shuttle_weight=self.inner_weight * ratio,
            threshold=min(self.threshold, self.inner_weight * ratio / 2.0),
        )
