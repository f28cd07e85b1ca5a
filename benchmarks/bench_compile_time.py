"""Tracked compile-time benchmark (``benchmarks/results/BENCH_compile_time.json``).

Compile time is a result of the paper (Fig. 15).  One run of this script
measures three sections and rewrites the whole tracked file:

* the **gate point** — ``alt_40`` on G-3x3 at capacity 8, routed by the
  flat scheduler core (``s-sync``) and by the naive reference core it is
  parity-locked to (``s-sync-naive``), repeats interleaved between the
  two so both see the same slice of host noise;
* the **shoot-out** — the flat core on ``qft`` and ``alt`` at 64, 96 and
  128 qubits on routing-bound devices (tracked, not gated);
* the **serialization section** — the ``alt_64`` schedule on G-3x3:
  binary-codec and JSON encode/decode times, document and cache-entry
  sizes, and the latency of a disk hit through a real ``ScheduleCache``.

Three gates, each a ratio taken within the run, so none depends on the
host or on committed numbers, and none skips:

* compiler pass — flat routing at least 6x faster than naive routing;
* artifact — binary decode at least 3x faster than JSON parse;
* artifact — a binary cache entry at least 2x smaller than its JSON form.

The file records each gate as a row (``name``, ``layer``, ``value``,
``floor``, ``ok``) beside a ``machine`` block (``cpu_count``, ``python``,
``platform``).  It is written before the exit code is decided, so a run
whose gate fails still leaves its numbers behind; the exit code is 1 if
any gate failed.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile_time.py            # rewrite the tracked file
    PYTHONPATH=src python benchmarks/bench_compile_time.py --output /tmp/BENCH_compile_time.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.circuit.library import build_family
from repro.core.compiler import SSyncCompiler, SSyncConfig
from repro.core.scheduler import SchedulerConfig
from repro.hardware.presets import paper_device
from repro.runtime.cache import CachedCompilation, ScheduleCache
from repro.schedule.serialize import (
    schedule_from_bytes,
    schedule_from_dict,
    schedule_to_bytes,
    schedule_to_dict,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_compile_time.json"

FORMAT_VERSION = 3

#: The S-SYNC compilers the harness measures, by scheduler core.
SSYNC_BACKENDS = {"s-sync": "flat", "s-sync-naive": "naive"}

#: The gate point.  Small enough that naive routes it in seconds
#: (``alt_32`` reads only 5.5x, too close to the floor; ``alt_48`` reads
#: 14x but naive takes 43 s on a 2-core host).
GATE_CIRCUIT = "alt"
GATE_SIZE = 40
GATE_DEVICE = ("G-3x3", 8)
#: Flat routing must be at least this many times faster than naive.
GATE_FLOOR = 6.0
#: Best of three interleaved repeats: one sample slowed by host load
#: cannot fail the gate, and naive's ~10 s per repeat bounds the cost.
GATE_REPEATS = 3

#: Shoot-out points: size -> (device, capacity).  Routing-bound on
#: purpose: many traps and tight slack maximise candidates per iteration,
#: the regime the flat batched scorer optimises.
SHOOTOUT_DEVICES: dict[int, tuple[str, int]] = {
    64: ("G-3x3", 8),
    96: ("G-2x4", 14),
    128: ("G-2x4", 18),
}
SHOOTOUT_FAMILIES = ("qft", "alt")
#: Best of three: the rows are read as diffs in review, and one pass of a
#: 128-qubit point can take twice its best time on a loaded 2-core host.
SHOOTOUT_REPEATS = 3

#: The serialization workload: the ``alt_64`` shoot-out schedule.
SERIALIZATION_CIRCUIT = "alt"
SERIALIZATION_SIZE = 64
SERIALIZATION_DEVICE = ("G-3x3", 8)
#: Binary decode must be at least this many times faster than JSON parse.
DECODE_FLOOR = 3.0
#: A binary cache entry must be at least this many times smaller than JSON.
ENTRY_SIZE_FLOOR = 2.0
#: Seven interleaved pairs: each sample takes tens of milliseconds, so the
#: best of seven costs seconds and rides out a host-load spike that a
#: shorter run would take into one side of the ratio.
SERIALIZATION_REPEATS = 7


def _measure_point(
    names, family: str, size: int, device_name: str, capacity: int, repeats: int
) -> list[dict[str, Any]]:
    """Best-of-``repeats`` rows, one per named core, repeats interleaved across them."""
    device = paper_device(device_name, capacity)
    compilers = {
        name: SSyncCompiler(
            device, SSyncConfig(scheduler=SchedulerConfig(backend=SSYNC_BACKENDS[name]))
        ).compile
        for name in names
    }
    circuit = build_family(family, size)
    best_total = dict.fromkeys(compilers, float("inf"))
    best_routing = dict(best_total)
    last_result: dict[str, Any] = {}
    for _ in range(repeats):
        for name, compile_fn in compilers.items():
            result = compile_fn(circuit)
            last_result[name] = result
            best_total[name] = min(best_total[name], result.compile_time_s)
            best_routing[name] = min(
                best_routing[name],
                sum(t.wall_time_s for t in result.pass_timings if t.name == "routing"),
            )
    rows = []
    for name, result in last_result.items():
        rows.append(
            {
                "compiler": name,
                "circuit": family,
                "size": size,
                "device": device_name,
                "capacity": capacity,
                "seconds": round(best_total[name], 6),
                "routing_seconds": round(best_routing[name], 6),
                "generic_swap_iterations": result.statistics.generic_swap_iterations,
                "candidate_evaluations": result.statistics.candidate_evaluations,
            }
        )
        print(
            f"{name:>14}  {family}_{size:<3} on {device_name}  "
            f"total {best_total[name]:.4f}s  routing {best_routing[name]:.4f}s",
            flush=True,
        )
    return rows


def measure_gate_point() -> list[dict[str, Any]]:
    """The gate point: one flat row and one naive row."""
    device_name, capacity = GATE_DEVICE
    return _measure_point(
        SSYNC_BACKENDS, GATE_CIRCUIT, GATE_SIZE, device_name, capacity, GATE_REPEATS
    )


def measure_shootout() -> list[dict[str, Any]]:
    """The 64/96/128-qubit shoot-out rows, measured on the flat core."""
    rows: list[dict[str, Any]] = []
    for size, (device_name, capacity) in SHOOTOUT_DEVICES.items():
        for family in SHOOTOUT_FAMILIES:
            rows.extend(
                _measure_point(("s-sync",), family, size, device_name, capacity, SHOOTOUT_REPEATS)
            )
    return rows


def _timed(fn) -> float:
    """Wall time of one call to ``fn`` with the garbage collector paused.

    A full collection runs first, so no sample pays for garbage an earlier
    one left, and none is interrupted by a collection it did not cause.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


def _interleaved_best(pair: dict[str, Callable[[], Any]], repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` wall time per callable, sampled in interleaved pairs.

    Each repeat times both callables back to back and alternates which
    runs first, so host load that comes and goes falls on both sides of
    their ratio alike.
    """
    order = list(pair)
    best = dict.fromkeys(order, float("inf"))
    for _ in range(repeats):
        for name in order:
            best[name] = min(best[name], _timed(pair[name]))
        order.reverse()
    return best


def _time_disk_hit(entry: CachedCompilation, repeats: int) -> float:
    """Best-of-N cold disk-hit latency of a binary ``.sched`` entry.

    Each sample builds a fresh :class:`ScheduleCache` (empty memory
    tier), hits the on-disk entry, and fully materialises the cached
    schedule — the complete price a worker pays to reuse a compilation
    after a restart.
    """
    best = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        ScheduleCache(directory=tmp).put("fp", entry)
        for _ in range(repeats):
            cache = ScheduleCache(directory=tmp)
            best = min(best, _timed(lambda: list(cache.get("fp").schedule())))
    return best


def measure_serialization() -> dict[str, Any]:
    """The artifact-path section: codec times, sizes, disk-hit latency.

    One compilation of the serialization workload, then interleaved
    best-of-N timings of the JSON and binary codec in each direction on
    its schedule.  Decode timings include full operation materialisation
    so the binary path cannot win by laziness alone.
    """
    device_name, capacity = SERIALIZATION_DEVICE
    result = SSyncCompiler(paper_device(device_name, capacity)).compile(
        build_family(SERIALIZATION_CIRCUIT, SERIALIZATION_SIZE)
    )
    schedule = result.schedule
    json_text = json.dumps(schedule_to_dict(schedule), sort_keys=True)
    blob = schedule_to_bytes(schedule)
    entry = CachedCompilation.from_result(result)
    entry_binary_bytes = len(entry.to_bytes())
    entry_json_bytes = len(json.dumps(entry.to_dict(), sort_keys=True))

    encode = _interleaved_best(
        {
            "json": lambda: json.dumps(schedule_to_dict(schedule), sort_keys=True),
            "binary": lambda: schedule_to_bytes(schedule),
        },
        SERIALIZATION_REPEATS,
    )
    decode = _interleaved_best(
        {
            "json": lambda: list(schedule_from_dict(json.loads(json_text))),
            "binary": lambda: list(schedule_from_bytes(blob)),
        },
        SERIALIZATION_REPEATS,
    )
    disk_hit_binary_s = _time_disk_hit(entry, SERIALIZATION_REPEATS)

    section = {
        "circuit": SERIALIZATION_CIRCUIT,
        "size": SERIALIZATION_SIZE,
        "device": device_name,
        "capacity": capacity,
        "operations": len(schedule),
        "json_encode_seconds": round(encode["json"], 6),
        "binary_encode_seconds": round(encode["binary"], 6),
        "json_parse_seconds": round(decode["json"], 6),
        "binary_decode_seconds": round(decode["binary"], 6),
        "decode_speedup": round(decode["json"] / max(decode["binary"], 1e-9), 2),
        "encode_speedup": round(encode["json"] / max(encode["binary"], 1e-9), 2),
        "schedule_json_bytes": len(json_text),
        "schedule_binary_bytes": len(blob),
        "entry_json_bytes": entry_json_bytes,
        "entry_binary_bytes": entry_binary_bytes,
        "entry_size_ratio": round(entry_json_bytes / max(entry_binary_bytes, 1), 2),
        "disk_hit_binary_seconds": round(disk_hit_binary_s, 6),
    }
    print(
        f"{'serialization':>14}  {SERIALIZATION_CIRCUIT}_{SERIALIZATION_SIZE} on {device_name}  "
        f"decode {section['decode_speedup']}x  "
        f"entry size {section['entry_size_ratio']}x  "
        f"disk hit {disk_hit_binary_s:.4f}s",
        flush=True,
    )
    return section


def _gate(name: str, layer: str, value: float, floor: float) -> dict[str, Any]:
    value = round(value, 2)
    return {"name": name, "layer": layer, "value": value, "floor": floor, "ok": value >= floor}


def gates(gate_point: list[dict[str, Any]], serialization: dict[str, Any]) -> list[dict[str, Any]]:
    """The three gate rows, each a ratio of two numbers from this run."""
    routing = {row["compiler"]: row["routing_seconds"] for row in gate_point}
    return [
        _gate(
            "flat_routing_speedup",
            "compiler pass",
            routing["s-sync-naive"] / max(routing["s-sync"], 1e-9),
            GATE_FLOOR,
        ),
        _gate("binary_decode_speedup", "artifact", serialization["decode_speedup"], DECODE_FLOOR),
        _gate("entry_size_ratio", "artifact", serialization["entry_size_ratio"], ENTRY_SIZE_FLOOR),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_PATH,
        help="where to write the JSON (default: the tracked results file)",
    )
    args = parser.parse_args(argv)

    gate_point = measure_gate_point()
    shootout = measure_shootout()
    serialization = measure_serialization()
    document = {
        "format_version": FORMAT_VERSION,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "gate_point": gate_point,
        "shootout": shootout,
        "serialization": serialization,
        "gates": gates(gate_point, serialization),
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    for gate in document["gates"]:
        print(
            f"  {gate['layer']:>13}  {gate['name']}: {gate['value']}x "
            f"(floor {gate['floor']}x)  {'ok' if gate['ok'] else 'FAILED'}"
        )
    return 0 if all(gate["ok"] for gate in document["gates"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
