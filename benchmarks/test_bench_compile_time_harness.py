"""The compile-time harness rewrites only the sections a run measured.

Every measurement function is stubbed, so these tests take milliseconds:
they pin the write path of ``bench_compile_time.main``, not timings.
"""

from __future__ import annotations

import json

import pytest

import bench_compile_time as harness

UNTOUCHED_BY_GATE_ONLY = ("points", "speedups", "baseline", "serialization")


def _row(compiler: str, routing_seconds: float) -> dict:
    device, capacity = harness.GATE_DEVICE
    return {
        "candidate_evaluations": 1000,
        "capacity": capacity,
        "circuit": harness.GATE_CIRCUIT,
        "compiler": compiler,
        "device": device,
        "generic_swap_iterations": 100,
        "metric_compile_seconds_delta": routing_seconds,
        "routing_seconds": routing_seconds,
        "seconds": routing_seconds,
        "size": harness.GATE_SIZE,
    }


def _unmeasured(*args, **kwargs):
    raise AssertionError("this run must not measure that section")


@pytest.fixture
def results_file(tmp_path, monkeypatch):
    """A copy of the tracked results file, with every measurement stubbed out."""
    for name in (
        "measure_points",
        "measure_backend_points",
        "measure_gate_point",
        "measure_serialization",
    ):
        monkeypatch.setattr(harness, name, _unmeasured)
    path = tmp_path / "BENCH_compile_time.json"
    path.write_text(harness.RESULTS_PATH.read_text())
    return path


def _sections(path) -> dict[str, str]:
    document = json.loads(path.read_text())
    return {key: json.dumps(value, indent=2, sort_keys=True) for key, value in document.items()}


def test_gate_only_write_keeps_unmeasured_sections_byte_identical(results_file, monkeypatch):
    monkeypatch.setattr(
        harness,
        "measure_gate_point",
        lambda repeats: [_row("s-sync", 0.8), _row("s-sync-naive", 9.6)],
    )
    before = _sections(results_file)
    assert harness.main(["--gate-only", "--repeats", "1", "--output", str(results_file)]) == 0
    after = _sections(results_file)

    for section in UNTOUCHED_BY_GATE_ONLY:
        assert after[section] == before[section], section
    document = json.loads(results_file.read_text())
    gate = [
        speedup
        for speedup in document["backend_speedups"]
        if (speedup["circuit"], speedup["size"]) == (harness.GATE_CIRCUIT, harness.GATE_SIZE)
    ]
    assert [speedup["speedup_routing"] for speedup in gate] == [12.0]


def test_gate_rows_merge_by_key(results_file, monkeypatch):
    """A second gate-only run replaces its rows and keeps every other row."""
    committed_rows = json.loads(results_file.read_text())["backend_points"]
    for naive_seconds in (9.6, 7.2):
        monkeypatch.setattr(
            harness,
            "measure_gate_point",
            lambda repeats, naive_seconds=naive_seconds: [
                _row("s-sync", 0.8),
                _row("s-sync-naive", naive_seconds),
            ],
        )
        assert harness.main(["--gate-only", "--output", str(results_file)]) == 0
    rows = json.loads(results_file.read_text())["backend_points"]
    keys = [harness._point_key(row) for row in rows]
    assert len(keys) == len(set(keys))
    for row in committed_rows:
        if row["size"] != harness.GATE_SIZE:
            assert row in rows
    naive = [
        row
        for row in rows
        if row["compiler"] == "s-sync-naive" and row["size"] == harness.GATE_SIZE
    ]
    assert [row["routing_seconds"] for row in naive] == [7.2]


def test_skip_backend_keeps_backend_sections(results_file, monkeypatch):
    document = json.loads(results_file.read_text())
    monkeypatch.setattr(harness, "measure_points", lambda repeats, full: document["points"])
    monkeypatch.setattr(harness, "measure_serialization", lambda repeats: document["serialization"])
    before = _sections(results_file)
    assert harness.main(["--skip-backend", "--output", str(results_file)]) == 0
    after = _sections(results_file)
    assert after["backend_points"] == before["backend_points"]
    assert after["backend_speedups"] == before["backend_speedups"]
