"""One run of the compile-time harness writes every section and its gates.

Every measurement function is stubbed, so these tests take milliseconds:
they pin the document ``bench_compile_time.main`` writes and its exit
code, not timings.
"""

from __future__ import annotations

import json
import re

import pytest

import bench_compile_time as harness


def _row(compiler: str, routing_seconds: float, circuit: str, size: int) -> dict:
    return {
        "compiler": compiler,
        "circuit": circuit,
        "size": size,
        "routing_seconds": routing_seconds,
        "seconds": routing_seconds,
    }


def _stub(monkeypatch, naive_seconds=9.6, decode_speedup=5.0, entry_size_ratio=4.3) -> None:
    monkeypatch.setattr(
        harness,
        "measure_gate_point",
        lambda: [_row("s-sync", 0.8, "alt", 40), _row("s-sync-naive", naive_seconds, "alt", 40)],
    )
    monkeypatch.setattr(harness, "measure_shootout", lambda: [_row("s-sync", 2.5, "qft", 64)])
    monkeypatch.setattr(
        harness,
        "measure_serialization",
        lambda: {"decode_speedup": decode_speedup, "entry_size_ratio": entry_size_ratio},
    )


def test_one_run_writes_every_section_and_three_layered_gates(tmp_path, monkeypatch):
    _stub(monkeypatch)
    path = tmp_path / "BENCH_compile_time.json"
    assert harness.main(["--output", str(path)]) == 0

    document = json.loads(path.read_text())
    assert set(document) == {
        "format_version", "machine", "gate_point", "shootout", "serialization", "gates"
    }
    assert document["format_version"] == 3
    assert set(document["machine"]) == {"cpu_count", "python", "platform"}
    assert [row["compiler"] for row in document["gate_point"]] == ["s-sync", "s-sync-naive"]
    assert [row["circuit"] for row in document["shootout"]] == ["qft"]
    assert document["gates"] == [
        {"name": "flat_routing_speedup", "layer": "compiler pass",
         "value": 12.0, "floor": 6.0, "ok": True},
        {"name": "binary_decode_speedup", "layer": "artifact",
         "value": 5.0, "floor": 3.0, "ok": True},
        {"name": "entry_size_ratio", "layer": "artifact",
         "value": 4.3, "floor": 2.0, "ok": True},
    ]


@pytest.mark.parametrize(
    "ratios, failing",
    [
        ({"naive_seconds": 4.0}, "flat_routing_speedup"),
        ({"decode_speedup": 2.99}, "binary_decode_speedup"),
        ({"entry_size_ratio": 1.9}, "entry_size_ratio"),
    ],
)
def test_a_ratio_below_its_floor_fails_the_run_after_writing(
    tmp_path, monkeypatch, ratios, failing
):
    _stub(monkeypatch, **ratios)
    path = tmp_path / "BENCH_compile_time.json"
    assert harness.main(["--output", str(path)]) == 1

    gates = {gate["name"]: gate["ok"] for gate in json.loads(path.read_text())["gates"]}
    assert [name for name, ok in gates.items() if not ok] == [failing]


def test_output_is_the_only_option(capsys):
    with pytest.raises(SystemExit):
        harness.main(["--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--output"}
