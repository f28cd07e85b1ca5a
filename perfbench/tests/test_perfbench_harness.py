"""Unit tests of the benchmark harness (not of the program it measures)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src"), str(ROOT / "benchmarks")]

import batch  # noqa: E402
import service  # noqa: E402
from harness import (  # noqa: E402
    OUT_DIR,
    REFERENCE_S,
    HostClock,
    make_tmpdir,
    nearest_rank,
    remove_tmpdir,
)
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from spans import Span, Tracer, covered_length, self_times, summarize  # noqa: E402


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def test_service_plan_is_a_pure_function_of_workload_and_seed():
    first = service.make_plan("service-mix", 7)
    again = service.make_plan("service-mix", 7)
    assert service.plan_digest(*first) == service.plan_digest(*again)
    assert service.plan_digest(*first) != service.plan_digest(*service.make_plan("service-mix", 8))


def test_service_plan_mix_and_repeat_targets():
    open_ops, closed_ops = service.make_plan("service-mix", 3)
    assert len(open_ops) == service.OPEN_REQUESTS
    kinds = {op.kind for op in open_ops}
    assert kinds == {"new", "resubmit", "refetch"}
    by_index = {op.index: op for op in open_ops}
    for op in open_ops:
        if op.kind == "new":
            assert op.target == -1
            continue
        target = by_index[op.target]
        assert target.kind == "new"
        assert target.due_s <= op.due_s - service.REPEAT_MIN_AGE_S
        if op.kind == "resubmit":
            assert op.body == target.body
    new_bodies = [op.body for op in open_ops if op.kind == "new"]
    assert len(set(new_bodies)) == len(new_bodies)  # distinct labels
    open_new = {op.index for op in open_ops if op.kind == "new"}
    assert all(op.target in open_new for op in closed_ops if op.kind != "new")


def test_batch_plan_is_fixed():
    sweep = batch.make_plan()
    assert sweep == batch.make_plan()
    assert len(sweep) == 300
    assert len({(r["circuit"], r["device"]) for r in sweep}) == 25


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_and_samples_beyond():
    values = list(range(1, 1001))
    assert nearest_rank(values, 99) == (990, 10)
    assert nearest_rank(values, 50) == (500, 500)
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == (2.0, 2)
    assert nearest_rank([5.0], 99) == (5.0, 0)
    assert nearest_rank(list(range(1, 1101)), 99)[1] == 11
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_host_clock_scales_each_stretch_by_its_samples():
    clock = HostClock(every=2)
    assert [clock.tick() >= 0 for _ in range(4)] == [True] * 4
    clock.stop()
    assert len(clock.samples) == 4  # start, ticks 2 and 4, stop
    # One second at the reference speed, then two seconds at two thirds of it.
    clock.samples = [(0.0, REFERENCE_S), (1.0, REFERENCE_S), (3.0, 2 * REFERENCE_S)]
    assert clock.factor() == pytest.approx((1.0 + 2.0 / 1.5) / 3.0)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(3, 3), (6, 4)], 0, 10) == 0


def test_self_times_subtract_children_only():
    spans = [
        Span("pool.run", 0.0, 10.0),
        Span("cache.lookup", 1.0, 3.0, parent=0),
        Span("schedule.decode", 1.5, 2.5, parent=1),
        Span("noise.evaluate", 4.0, 9.0, parent=0),
        Span("noise.evaluate", 12.0, 13.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 5.0, 1.0])
    summary = summarize(spans)
    assert summary["noise.evaluate"] == pytest.approx({"self_s": 6.0, "total_s": 6.0, "count": 2})
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(11.0)


def test_nested_same_name_spans_count_once():
    spans = [Span("circuit.build", 0.0, 4.0), Span("circuit.build", 1.0, 3.0, parent=0)]
    summary = summarize(spans)["circuit.build"]
    assert summary == pytest.approx({"self_s": 4.0, "total_s": 4.0, "count": 1})


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class _Layer:
    def work(self, n):
        return helper(n) + 1

    @classmethod
    def make(cls, n):
        return n * 2


def helper(n):
    return n


def test_tracer_wraps_methods_and_function_aliases_then_restores():
    original_work, original_helper = _Layer.__dict__["work"], helper
    tracer = Tracer()
    tracer.patch_method(_Layer, "work", "layer.work")
    tracer.patch_method(_Layer, "make", "layer.make")
    assert tracer.patch_function(helper, "layer.helper") >= 1
    try:
        assert _Layer().work(3) == 4
        assert _Layer.make(3) == 6
    finally:
        tracer.restore()
    assert [s.name for s in tracer.spans] == ["layer.work", "layer.helper", "layer.make"]
    assert tracer.spans[1].parent == 0
    assert _Layer.__dict__["work"] is original_work
    assert helper is original_helper


# ----------------------------------------------------------------------
# the contract file and hygiene
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document["paths"] == ["perfbench"]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in document["end_to_end"]} == {
        name: (unit, better) for name, (unit, better, _) in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in document["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()
    }
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"]) <= 0.25


def test_scratch_dirs_live_under_the_output_location():
    path = make_tmpdir("test-")
    try:
        assert OUT_DIR in path.parents
    finally:
        remove_tmpdir(path)
    assert not path.exists()


def _copy_checkout(tmp_path: Path, with_program: bool) -> Path:
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, checkout / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    if with_program:
        shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (checkout / "benchmarks").mkdir()
        shutil.copy(ROOT / "benchmarks" / "bench_common.py", checkout / "benchmarks")
    return checkout


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = _copy_checkout(tmp_path, with_program=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_run_writes_only_under_the_output_location(tmp_path):
    checkout = _copy_checkout(tmp_path, with_program=True)
    before = _files(checkout)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--setup-probe"],
        cwd=checkout, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    added = _files(checkout) - before
    assert added, "the probe should have cached bytecode"
    assert all(name.startswith("perfbench/out/") for name in added), sorted(added)[:5]
