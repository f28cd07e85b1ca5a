"""Scheduler, cancellation and journal tests: the concurrency surface.

Deterministic concurrency tests drive the real
:class:`CompilationService`/:class:`ServiceScheduler` stack with **stub
engines** whose compilations are gated on events and barriers, so
interleavings are forced rather than hoped for; the journal/restart
tests use the real engine against a disk cache directory.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.cache import CacheStats, ScheduleCache
from repro.runtime.pool import BatchResult, JobOutcome
from repro.service import CompilationService, JobJournal, make_server, replay_journal
from repro.service.jobs import JobStore, ServiceJob

SMOKE_MANIFEST = Path(__file__).resolve().parents[2] / "examples" / "manifests" / "smoke.json"

WAIT = 30.0  # generous upper bound; every wait is event-driven


def manifest(circuit: str, label: str = "") -> dict:
    return {"jobs": [{"circuit": circuit, "device": "G-2x2", "label": label}]}


def wait_until(predicate, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def _outcome(job, index: int) -> JobOutcome:
    return JobOutcome(
        job=job,
        fingerprint=f"{index:064x}",
        compile_fingerprint=f"{index:064x}",
        record={"index": index},
        compile_time_s=0.0,
        from_cache=False,
    )


class StubEngine:
    """An engine whose 'compilations' are synchronisation points.

    ``gates`` maps an outcome index to a :class:`threading.Event` (or
    :class:`threading.Barrier`) every run waits on before delivering that
    outcome; ``outcomes_per_run`` controls how many it delivers.
    """

    workers = 1
    warm = False

    def __init__(self, outcomes_per_run: int = 2, gates: dict | None = None) -> None:
        self.cache = ScheduleCache()
        self.outcomes_per_run = outcomes_per_run
        self.gates = gates or {}
        self.started: list[str] = []
        self.finished: list[str] = []
        self._lock = threading.Lock()

    def run(self, jobs, on_outcome=None):
        label = jobs[0].label if jobs else ""
        with self._lock:
            self.started.append(label)
        for index in range(self.outcomes_per_run):
            gate = self.gates.get(index)
            if isinstance(gate, threading.Barrier):
                gate.wait(timeout=WAIT)
            elif gate is not None:
                assert gate.wait(timeout=WAIT)
            if on_outcome is not None:
                on_outcome(_outcome(jobs[0] if jobs else None, index))
        with self._lock:
            self.finished.append(label)
        return BatchResult(
            outcomes=[], cache_stats=CacheStats(), compilations=0, workers=1
        )

    def close(self) -> None:
        pass


@pytest.fixture
def stub_service():
    """Factory for services over stub engines; closes them afterwards."""
    services = []

    def build(engine, slots: int = 2) -> CompilationService:
        service = CompilationService(engine=engine, slots=slots)
        services.append(service)
        return service

    yield build
    for service in services:
        service.close(drain_timeout=0.5)


class TestConcurrentExecution:
    def test_two_jobs_make_interleaved_progress(self, stub_service):
        # Every outcome is gated on a two-party barrier: the test can
        # only complete if both jobs are inside engine.run at the same
        # time — a serial executor would deadlock (and trip the barrier
        # timeout) instead.
        gates = {0: threading.Barrier(2), 1: threading.Barrier(2)}
        engine = StubEngine(outcomes_per_run=2, gates=gates)
        service = stub_service(engine, slots=2)
        job_a, _ = service.submit_document(manifest("qft_8", "a"))
        job_b, _ = service.submit_document(manifest("bv_12", "b"))
        wait_until(lambda: job_a.finished and job_b.finished)
        assert job_a.status == job_b.status == "done"
        # Running intervals overlap...
        assert job_a.started_at < job_b.finished_at
        assert job_b.started_at < job_a.finished_at
        # ...and the outcome *timestamps* interleave: each job's first
        # outcome lands before the other job's second.
        assert job_a.outcome_times[0] < job_b.outcome_times[1]
        assert job_b.outcome_times[0] < job_a.outcome_times[1]

    def test_single_slot_runs_strictly_serially(self, stub_service):
        engine = StubEngine(outcomes_per_run=1)
        service = stub_service(engine, slots=1)
        job_a, _ = service.submit_document(manifest("qft_8", "a"))
        job_b, _ = service.submit_document(manifest("bv_12", "b"))
        wait_until(lambda: job_a.finished and job_b.finished)
        # The second run starts only after the first finished.
        assert engine.started.index("b") > 0
        assert engine.finished.index("a") == 0

    def test_priority_orders_queue_fifo_within_priority(self, stub_service):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = stub_service(engine, slots=1)
        blocker, _ = service.submit_document(manifest("qft_8", "blocker"))
        wait_until(lambda: blocker.status == "running")
        low_a, _ = service.submit_document(manifest("bv_12", "low-a"), priority=0)
        low_b, _ = service.submit_document(manifest("bv_16", "low-b"), priority=0)
        high, _ = service.submit_document(manifest("qft_12", "high"), priority=5)
        hold.set()
        wait_until(lambda: all(j.finished for j in (blocker, low_a, low_b, high)))
        assert engine.started == ["blocker", "high", "low-a", "low-b"]


class TestCancellation:
    def test_cancel_while_running_stops_between_compilations(self, stub_service):
        first_done = threading.Event()
        resume = threading.Event()

        class Engine(StubEngine):
            def run(self, jobs, on_outcome=None):
                on_outcome(_outcome(jobs[0], 0))
                first_done.set()
                assert resume.wait(timeout=WAIT)
                on_outcome(_outcome(jobs[0], 1))  # the cancellation point
                raise AssertionError("the second outcome must be refused")

        service = stub_service(Engine(), slots=1)
        job, _ = service.submit_document(manifest("qft_8", "victim"))
        assert first_done.wait(timeout=WAIT)
        cancelled, accepted = service.cancel(job.job_id)
        assert accepted and cancelled is job and job.cancel_requested
        resume.set()
        wait_until(lambda: job.finished)
        assert job.status == "cancelled"
        # The outcome that landed before the cancel stays streamed.
        lines = list(service.stream_lines(job.job_id, timeout=WAIT))
        assert [line["type"] for line in lines] == ["outcome", "end"]
        assert lines[-1]["status"] == "cancelled"

    def test_cancel_of_queued_job_never_runs(self, stub_service):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = stub_service(engine, slots=1)
        blocker, _ = service.submit_document(manifest("qft_8", "blocker"))
        wait_until(lambda: blocker.status == "running")
        queued, _ = service.submit_document(manifest("bv_12", "queued"))
        job, accepted = service.cancel(queued.job_id)
        assert accepted and job.status == "cancelled"
        assert job.started_at is None
        hold.set()
        wait_until(lambda: blocker.finished)
        assert "queued" not in engine.started
        # A cancelled id is retryable, like a failed one.
        retried, resubmitted = service.submit_document(manifest("bv_12", "queued"))
        assert not resubmitted and retried is not queued
        wait_until(lambda: retried.finished)
        assert retried.status == "done"

    def test_duplicate_resubmission_during_execution_is_idempotent(self, stub_service):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = stub_service(engine, slots=1)
        job, resubmitted = service.submit_document(manifest("qft_8", "dup"))
        assert not resubmitted
        wait_until(lambda: job.status == "running")
        again, resubmitted = service.submit_document(manifest("qft_8", "dup"))
        assert resubmitted and again is job
        assert service.scheduler.stats()["queued"] == 0  # no second queue entry
        hold.set()
        wait_until(lambda: job.finished)
        assert engine.started == ["dup"]


class TestGracefulShutdown:
    def test_close_drains_running_and_cancels_queued(self):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = CompilationService(engine=engine, slots=1)
        running, _ = service.submit_document(manifest("qft_8", "running"))
        wait_until(lambda: running.status == "running")
        queued, _ = service.submit_document(manifest("bv_12", "queued"))
        # Let the running batch finish shortly after the drain begins.
        threading.Timer(0.2, hold.set).start()
        service.close(drain_timeout=WAIT)
        assert running.status == "done"
        assert queued.status == "cancelled"

    def test_close_past_drain_deadline_requests_cancellation(self):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=2, gates={1: hold})
        service = CompilationService(engine=engine, slots=1)
        job, _ = service.submit_document(manifest("qft_8", "slow"))
        wait_until(lambda: len(job.encoded_lines) == 1)
        service.close(drain_timeout=0.1)  # far shorter than the block
        assert job.cancel_requested
        hold.set()  # the daemon slot hits the cancellation point next
        wait_until(lambda: job.finished)
        assert job.status == "cancelled"


class TestJournalReplay:
    def test_finished_jobs_survive_restart(self, tmp_path):
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            job, _ = service.submit_document(manifest("qft_8", "persist"))
            wait_until(lambda: job.finished)
            assert job.status == "done"
            job_id = job.job_id

        restarted = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            replayed = restarted.store.get(job_id)
            assert replayed is not None and replayed.replayed
            assert replayed.status == "done"
            assert replayed.summary is not None
            payload = replayed.status_payload()
            assert payload["replayed"] is True
            assert payload["jobs"] == 1
            assert payload["job_specs"][0]["circuit"] == "qft_8"
            # The durable result store kept the full original stream, so
            # resubmitting the same manifest deduplicates against the
            # replayed record — its results are servable as stored
            # bytes, no re-run needed.
            assert replayed.stored_lines is not None
            again, resubmitted = restarted.submit_document(manifest("qft_8", "persist"))
            assert resubmitted and again is replayed
            lines = list(restarted.stream_lines(job_id))
            assert lines[-1]["type"] == "end" and lines[-1]["status"] == "done"
            assert len(lines) == 2  # one outcome + the end line
        finally:
            restarted.close(drain_timeout=WAIT)

    def test_restart_without_result_store_reruns_from_schedule_cache(self, tmp_path):
        """A replayed terminal job whose stored stream is gone re-runs on
        resubmission (served from the disk schedule cache, compilations=0)."""
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            job, _ = service.submit_document(manifest("qft_8", "persist"))
            wait_until(lambda: job.finished)
            job_id = job.job_id
        (tmp_path / "results" / f"{job_id}.results").unlink()

        restarted = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            replayed = restarted.store.get(job_id)
            assert replayed is not None and replayed.stored_lines is None
            again, resubmitted = restarted.submit_document(manifest("qft_8", "persist"))
            assert not resubmitted and again is not replayed
            assert again.job_id == job_id
            wait_until(lambda: again.finished)
            assert again.status == "done"
            assert again.summary["compilations"] == 0
            assert len(again.encoded_lines) == 1
            assert json.loads(again.encoded_lines[0])["from_cache"]
        finally:
            restarted.close(drain_timeout=WAIT)

    def test_interrupted_job_is_resubmitted_and_served_from_cache(self, tmp_path):
        # First service compiles the schedules into the disk cache.
        document = manifest("qft_8", "warm-restart")
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            job, _ = service.submit_document(document)
            wait_until(lambda: job.finished)
            journal_path = service.journal.path

        # Simulate a submission the dead process never finished: journal
        # 'submitted' + 'running' with no terminal event.
        relabelled = manifest("qft_8", "interrupted")
        with JobJournal(journal_path) as journal:
            journal.append(
                "submitted",
                "fedcba9876543210",
                created_at=time.time(),
                priority=0,
                jobs=1,
                specs=[{"circuit": "qft_8"}],
                manifest=relabelled,
            )
            journal.append("running", "fedcba9876543210")

        restarted = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            job = restarted.store.get("fedcba9876543210")
            assert job is not None and job.replayed
            wait_until(lambda: job.finished)
            assert job.status == "done"
            # The compile fingerprints were cached by the first service:
            # recovery re-runs the batch without recompiling anything.
            assert job.summary["compilations"] == 0
            assert all(json.loads(line)["from_cache"] for line in job.encoded_lines)
            # The re-run's stream is stored like any submission's, so the
            # next restart serves it instead of an empty stream.
            stream = list(restarted.stream_encoded("fedcba9876543210"))
            wait_until(lambda: restarted.results.load("fedcba9876543210") == stream)
        finally:
            restarted.close(drain_timeout=WAIT)

    def test_interrupted_job_without_manifest_fails_with_restart_error(self, tmp_path):
        journal_path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(journal_path) as journal:
            journal.append(
                "submitted",
                "0123456789abcdef",
                created_at=time.time(),
                priority=0,
                jobs=2,
                specs=[],
                manifest=None,
            )
        for _ in range(2):  # the failure marker must itself be durable
            service = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
            try:
                job = service.store.get("0123456789abcdef")
                assert job is not None
                assert job.status == "failed"
                assert job.error["type"] == "ServiceRestart"
                assert "restart" in job.error["message"]
            finally:
                service.close(drain_timeout=WAIT)

    def test_interrupted_job_the_schema_now_rejects_fails_with_restart_error(self, tmp_path):
        """A journaled manifest that older rules accepted must not stop a restart."""
        journal_path = tmp_path / "jobs.journal.jsonl"
        stale = {
            "jobs": [
                {"circuit": "qft_8", "device": "G-2x2", "config": {"decay_reset_interval": 0}}
            ]
        }
        with JobJournal(journal_path) as journal:
            journal.append(
                "submitted",
                "0a1b2c3d4e5f6a7b",
                created_at=time.time(),
                priority=0,
                jobs=1,
                specs=[{"circuit": "qft_8"}],
                manifest=stale,
            )
            journal.append("running", "0a1b2c3d4e5f6a7b")
        service = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            job = service.store.get("0a1b2c3d4e5f6a7b")
            assert job is not None and job.status == "failed"
            assert job.error["type"] == "ServiceRestart"
            fresh, _ = service.submit_document(manifest("qft_8", "after-restart"))
            wait_until(lambda: fresh.finished)
            assert fresh.status == "done"
        finally:
            service.close(drain_timeout=WAIT)

    def test_close_journals_queued_cancellations(self, tmp_path):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = CompilationService(engine=engine, slots=1, cache_dir=tmp_path)
        running, _ = service.submit_document(manifest("qft_8", "running"))
        wait_until(lambda: running.status == "running")
        queued, _ = service.submit_document(manifest("bv_12", "queued"))
        threading.Timer(0.2, hold.set).start()
        service.close(drain_timeout=WAIT)
        states = {s["job_id"]: s["status"] for s in replay_journal(service.journal.path)}
        assert states[running.job_id] == "done"
        assert states[queued.job_id] == "cancelled"

    def test_close_past_deadline_journals_forced_cancellation(self, tmp_path):
        # The journal must record the shutdown-forced cancellation even
        # though the slot thread never gets to finish the transition —
        # otherwise a restart would resurrect deliberately-stopped work.
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=2, gates={1: hold})
        service = CompilationService(engine=engine, slots=1, cache_dir=tmp_path)
        job, _ = service.submit_document(manifest("qft_8", "slow"))
        wait_until(lambda: len(job.encoded_lines) == 1)
        service.close(drain_timeout=0.1)
        states = {s["job_id"]: s["status"] for s in replay_journal(service.journal.path)}
        assert states[job.job_id] == "cancelled"
        hold.set()  # release the daemon slot thread

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(path) as journal:
            journal.append(
                "submitted", "aa" * 8, created_at=1.0, jobs=1, specs=[], manifest=None
            )
            journal.append("running", "aa" * 8)
        with path.open("a") as handle:
            handle.write('{"v": 1, "event": "done", "job_id": "aa')  # torn write
        states = replay_journal(path)
        assert len(states) == 1
        assert states[0]["status"] == "running"  # the torn terminal never landed


class TestTryStartCancelAtomicity:
    """The queued→running and queued→cancelled transitions share one
    lock: whichever happens first wins, the loser backs off."""

    def test_cancel_then_try_start_refuses_to_run(self):
        job = ServiceJob("a" * 16, [])
        assert job.cancel() and job.status == "cancelled"
        assert not job.try_start()
        assert job.status == "cancelled" and job.started_at is None

    def test_try_start_then_cancel_goes_cooperative(self):
        job = ServiceJob("b" * 16, [])
        assert job.try_start() and job.status == "running"
        assert job.cancel()  # accepted, but only as a request flag
        assert job.status == "running" and job.cancel_requested

    def test_try_start_is_single_shot(self):
        job = ServiceJob("c" * 16, [])
        assert job.try_start()
        assert not job.try_start()


class TestJobStoreSnapshots:
    def test_all_and_counts_return_stable_snapshots(self):
        store = JobStore()
        store.put(ServiceJob("a" * 16, []))
        snapshot = store.all()
        counts = store.counts()
        store.put(ServiceJob("b" * 16, []))
        assert len(snapshot) == 1  # unaffected by the later put
        assert counts == {
            "queued": 1, "running": 0, "done": 0, "failed": 0, "cancelled": 0,
        }
        assert len(store.all()) == 2

    def test_iteration_survives_concurrent_puts(self):
        store = JobStore()
        passes, keys_per_pass = 300, 8  # bounds the table at 2400 jobs
        pass_started = threading.Semaphore(0)
        errors: list[BaseException] = []

        def writer():
            # A few new keys per reader pass, put while that pass
            # snapshots and sorts the table.
            for i in range(passes * keys_per_pass):
                if i % keys_per_pass == 0 and not pass_started.acquire(timeout=WAIT):
                    return
                store.put(ServiceJob(f"{i:016x}", []))

        def reader():
            try:
                for _ in range(passes):
                    pass_started.release()
                    store.all()
                    store.counts()
            except BaseException as exc:  # noqa: BLE001 - the regression signal
                errors.append(exc)
            finally:
                pass_started.release(passes)  # never leave the writer waiting

        writer_thread = threading.Thread(target=writer, daemon=True)
        reader_thread = threading.Thread(target=reader)
        # Switch threads often, so the puts land inside the reader's passes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer_thread.start()
            reader_thread.start()
            reader_thread.join(WAIT)
            writer_thread.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not reader_thread.is_alive()
        assert not writer_thread.is_alive()
        assert not errors
        assert len(store) == passes * keys_per_pass


class TestCancelOverHTTP:
    def test_delete_cancels_a_queued_job(self):
        hold = threading.Event()
        engine = StubEngine(outcomes_per_run=1, gates={0: hold})
        service = CompilationService(engine=engine, slots=1)
        server = make_server(service=service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        from repro.service import ServiceClient

        client = ServiceClient(server.url, timeout=WAIT)
        try:
            running = client.submit(manifest("qft_8", "running"))
            wait_until(
                lambda: client.job(running["job_id"])["status"] == "running"
            )
            queued = client.submit(manifest("bv_12", "queued"))
            payload = client.cancel(queued["job_id"])
            assert payload["status"] == "cancelled"
            hold.set()
            # The cancelled job still streams: zero outcomes, then an
            # 'end' line carrying the terminal state.
            lines = list(client.stream_results(queued["job_id"]))
            assert [line["type"] for line in lines] == ["end"]
            assert lines[0]["status"] == "cancelled"
            assert client.job(queued["job_id"])["status"] == "cancelled"
        finally:
            server.shutdown()
            server.server_close()
            service.close(drain_timeout=WAIT)
            thread.join(timeout=5)


class TestStreamedParityUnderConcurrency:
    def test_overlapping_submissions_stay_byte_identical(self, tmp_path):
        """Two real batches running concurrently over one warm engine
        must stream exactly the records a direct run_batch produces."""
        from repro.runtime.api import run_batch
        from repro.runtime.manifest import jobs_from_manifest

        documents = [
            json.loads(SMOKE_MANIFEST.read_text()),
            json.loads(SMOKE_MANIFEST.read_text()),
        ]
        documents[1]["defaults"]["gate_implementation"] = "pm"
        direct = [
            run_batch(jobs_from_manifest(document)).records()
            for document in documents
        ]
        with CompilationService(workers=2, cache_dir=tmp_path, slots=2) as service:
            jobs = [service.submit_document(document)[0] for document in documents]
            wait_until(lambda: all(job.finished for job in jobs))
            assert [job.status for job in jobs] == ["done", "done"]
            streamed = [
                [
                    line["record"]
                    for line in service.stream_lines(job.job_id, timeout=WAIT)
                    if line["type"] == "outcome"
                ]
                for job in jobs
            ]
        for streamed_records, direct_records in zip(streamed, direct):
            assert json.dumps(streamed_records, sort_keys=True) == json.dumps(
                direct_records, sort_keys=True
            )
