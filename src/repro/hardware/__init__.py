"""QCCD hardware model: traps, devices, topologies, presets, slot-graph weights."""

from repro.hardware.device import QCCDDevice
from repro.hardware.graph import GraphWeights
from repro.hardware.presets import (
    PAPER_PRESETS,
    DevicePreset,
    device_for_circuit,
    paper_device,
    paper_device_catalog,
    paper_preset,
    preset_names,
)
from repro.hardware.topologies import (
    build_topology,
    grid_device,
    hex_device,
    linear_device,
    ring_device,
    star_device,
    trap_capacities,
)
from repro.hardware.trap import Connection, JunctionCrossing, Trap

__all__ = [
    "Connection",
    "DevicePreset",
    "GraphWeights",
    "JunctionCrossing",
    "PAPER_PRESETS",
    "QCCDDevice",
    "Trap",
    "build_topology",
    "device_for_circuit",
    "grid_device",
    "hex_device",
    "linear_device",
    "paper_device",
    "paper_device_catalog",
    "paper_preset",
    "preset_names",
    "ring_device",
    "star_device",
    "trap_capacities",
]
