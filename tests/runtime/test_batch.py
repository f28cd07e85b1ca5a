"""Batch-engine tests: determinism, dedup, caching, parallel equivalence,
and re-entrancy of ``run`` under concurrent callers."""

from __future__ import annotations

import json
import threading

from repro.analysis.metrics import compare_compilers
from repro.analysis.sweeps import (
    gate_implementation_jobs,
    topology_capacity_jobs,
    topology_capacity_sweep,
)
from repro.circuit.library import qft_circuit
from repro.hardware.topologies import grid_device
from repro.runtime.api import run_batch, run_sweep
from repro.runtime.cache import CachedCompilation, ScheduleCache
from repro.runtime.jobs import CompileJob
from repro.runtime.pool import BatchCompiler
from repro.schedule.schedule import Schedule


def _sweep_jobs():
    """A multi-point Fig. 11 sweep (the acceptance workload)."""
    return topology_capacity_jobs(
        qft_circuit, 12, topology_names=("L-4", "G-2x2"), capacities=(5, 8)
    )


def _record_bytes(result) -> bytes:
    return json.dumps(result.records(), sort_keys=True).encode()


class TestParallelEquivalence:
    def test_parallel_records_byte_identical_to_serial(self):
        jobs = _sweep_jobs()
        assert len(jobs) > 2
        serial = run_batch(jobs, workers=1)
        parallel = run_batch(jobs, workers=3)
        assert _record_bytes(serial) == _record_bytes(parallel)

    def test_sweep_function_agrees_across_worker_counts(self):
        kwargs = dict(topology_names=("L-4", "G-2x2"), capacities=(5, 8))
        serial = topology_capacity_sweep(qft_circuit, 12, workers=1, **kwargs)
        parallel = topology_capacity_sweep(qft_circuit, 12, workers=2, **kwargs)
        strip = lambda r: {k: v for k, v in r.as_dict().items() if k != "compile_time_s"}
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    def test_compare_compilers_agrees_across_worker_counts(self):
        device = grid_device(2, 2, 6)
        circuit = qft_circuit(10)
        strip = lambda r: {k: v for k, v in r.as_dict().items() if k != "compile_time_s"}
        serial = compare_compilers(circuit, device, workers=1)
        parallel = compare_compilers(circuit, device, workers=3)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]


class TestCaching:
    def test_warm_disk_cache_compiles_nothing(self, tmp_path):
        jobs = _sweep_jobs()
        cold = run_batch(jobs, workers=1, cache=ScheduleCache(directory=tmp_path))
        assert cold.compilations == len(jobs)
        assert cold.cache_stats.misses == len(jobs)

        warm = run_batch(jobs, workers=2, cache=ScheduleCache(directory=tmp_path))
        assert warm.compilations == 0
        assert warm.cache_stats.hits == len(jobs)
        assert warm.cache_stats.misses == 0
        assert all(outcome.from_cache for outcome in warm)
        assert _record_bytes(cold) == _record_bytes(warm)

    def test_engine_owned_cache_spans_runs(self):
        engine = BatchCompiler(workers=1)
        jobs = [CompileJob(circuit="qft_10", device="G-2x2")]
        assert engine.run(jobs).compilations == 1
        assert engine.run(jobs).compilations == 0

    def test_identical_jobs_deduplicate_within_a_batch(self):
        job = CompileJob(circuit="qft_10", device="G-2x2")
        result = run_batch([job, job, job], workers=1)
        assert result.compilations == 1
        assert len(result.outcomes) == 3
        assert result.records()[0] == result.records()[2]

    def test_dedup_keeps_each_jobs_own_circuit_name(self):
        """Two same-content circuits with different names dedup to one
        compile, but each record must report its own circuit name."""
        a = qft_circuit(10)
        b = qft_circuit(10).copy(name="renamed_qft")
        result = run_batch(
            [CompileJob(circuit=a, device="G-2x2"), CompileJob(circuit=b, device="G-2x2")],
            workers=1,
        )
        assert result.compilations == 1
        assert [row["circuit"] for row in result.records()] == [a.name, "renamed_qft"]

    def test_gate_implementation_jobs_share_one_compile(self):
        device = grid_device(2, 2, 6)
        jobs = gate_implementation_jobs([qft_circuit(10)], device)
        result = run_batch(jobs, workers=1)
        assert len(jobs) == 4
        assert result.compilations == 1
        success_rates = {row["success_rate"] for row in result.records()}
        assert len(success_rates) > 1  # evaluations really differ per implementation


class TestConcurrentRuns:
    """``BatchCompiler.run`` is re-entrant: overlapping calls on one
    engine must neither corrupt records nor duplicate compilations."""

    def _run_concurrently(self, engine, job_lists):
        results = [None] * len(job_lists)
        errors = []

        def call(index, jobs):
            try:
                results[index] = engine.run(jobs)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(index, jobs))
            for index, jobs in enumerate(job_lists)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors, errors
        assert all(result is not None for result in results)
        return results

    def test_overlapping_runs_match_serial_records(self):
        lists = [
            [CompileJob(circuit="qft_10", device="G-2x2")],
            [CompileJob(circuit="bv_12", device="L-4")],
        ]
        serial = [run_batch(jobs, workers=1).records() for jobs in lists]
        engine = BatchCompiler(workers=1)
        concurrent = self._run_concurrently(engine, lists)
        assert [r.records() for r in concurrent] == serial

    def test_identical_overlapping_runs_compile_once(self):
        # Both runs carry the same compile fingerprint: the loser of the
        # in-flight claim must wait for the winner, not compile a copy.
        lists = [
            [CompileJob(circuit="qft_10", device="G-2x2", label="first")],
            [CompileJob(circuit="qft_10", device="G-2x2", label="second")],
        ]
        engine = BatchCompiler(workers=1)
        results = self._run_concurrently(engine, lists)
        assert sum(result.compilations for result in results) == 1
        waiter = next(r for r in results if r.compilations == 0)
        assert waiter.cache_stats.hits == 1
        assert waiter.outcomes[0].from_cache is True
        records = [result.records()[0] for result in results]
        strip = lambda r: {k: v for k, v in r.items() if k != "label"}
        assert strip(records[0]) == strip(records[1])

    def test_per_run_stats_are_isolated(self):
        # Two disjoint concurrent runs: each must report exactly its own
        # misses/stores, not a slice of the interleaved global deltas.
        lists = [
            [CompileJob(circuit="qft_10", device="G-2x2")],
            [CompileJob(circuit="bv_12", device="L-4")],
        ]
        engine = BatchCompiler(workers=1)
        results = self._run_concurrently(engine, lists)
        for result in results:
            assert result.compilations == 1
            assert result.cache_stats.misses == 1
            assert result.cache_stats.stores == 1
            assert result.cache_stats.hits == 0


class TestBatchResult:
    def test_outcomes_keep_job_order_and_metadata(self):
        jobs = [
            CompileJob(circuit="qft_10", device="G-2x2", label="first"),
            CompileJob(circuit="bv_12", device="L-4", compiler="murali", label="second"),
        ]
        result = run_batch(jobs, workers=1)
        assert [o.record["label"] for o in result] == ["first", "second"]
        assert result.records()[1]["compiler"] == "murali"
        summary = result.summary()
        assert summary["jobs"] == 2
        assert summary["compilations"] == 2

    def test_run_sweep_rows_carry_timing(self):
        rows = run_sweep([CompileJob(circuit="qft_10", device="G-2x2")], workers=1)
        assert rows[0]["compile_time_s"] > 0
        assert rows[0]["from_cache"] is False


class TestDecodeOncePerRun:
    def test_each_distinct_schedule_is_decoded_once_per_run(self, monkeypatch):
        # Interleaved, so a schedule's uses are not adjacent in job order.
        jobs = [
            CompileJob(circuit=circuit, device="G-2x2", gate_implementation=gate)
            for gate in ("fm", "pm", "am1", "am2")
            for circuit in ("qft_6", "bv_7")
        ]
        engine = BatchCompiler(workers=1)
        cold = engine.run(jobs)
        decodes = []
        original = CachedCompilation.schedule

        def counting(entry):
            decodes.append(entry)
            return original(entry)

        monkeypatch.setattr(CachedCompilation, "schedule", counting)
        warm = engine.run(jobs)
        assert len(decodes) == 2
        assert warm.records() == cold.records()
        # Nothing decoded is carried over: the next run decodes again, and
        # the cached entries hold blobs, not schedules.
        engine.run(jobs)
        assert len(decodes) == 4
        for entry in decodes:
            assert not any(isinstance(value, Schedule) for value in vars(entry).values())
