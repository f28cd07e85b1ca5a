"""Journal compaction tests: the rewrite, the replay parity, the startup.

``compact_journal`` rewrites the append-only event log into the minimal
events replay needs; the invariant under test throughout is that
**replaying the compacted file yields exactly the folded states of the
original** — compaction must never change what a restart rebuilds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.service import (
    CompilationService,
    JobJournal,
    compact_journal,
    replay_journal,
)

WAIT = 30.0


def wait_until(predicate, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def manifest(circuit: str, label: str = "") -> dict:
    return {"jobs": [{"circuit": circuit, "device": "G-2x2", "label": label}]}


def append_full_lifecycle(journal: JobJournal, job_id: str, extra_events: int = 0) -> None:
    """One job's submitted/running/done trail plus redundant noise."""
    journal.append(
        "submitted",
        job_id,
        created_at=time.time(),
        priority=1,
        jobs=1,
        specs=[{"circuit": "qft_8"}],
        manifest=manifest("qft_8", job_id),
    )
    journal.append("running", job_id)
    # Redundant re-submissions of the same id: replay keeps only the
    # last fold, compaction must drop the superseded trail entirely.
    for _ in range(extra_events):
        journal.append(
            "submitted",
            job_id,
            created_at=time.time(),
            priority=1,
            jobs=1,
            specs=[{"circuit": "qft_8"}],
            manifest=manifest("qft_8", job_id),
        )
        journal.append("running", job_id)
    journal.append("done", job_id, summary={"jobs": 1, "compilations": 1})


class TestCompactJournal:
    def test_compaction_preserves_replay_exactly(self, tmp_path):
        path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(path) as journal:
            append_full_lifecycle(journal, "aa" * 8, extra_events=3)
            append_full_lifecycle(journal, "bb" * 8)
            # A queued-only job and a running-only job survive too.
            journal.append(
                "submitted",
                "cc" * 8,
                created_at=time.time(),
                priority=0,
                jobs=2,
                specs=[{"circuit": "bv_8"}],
                manifest=None,
            )
            journal.append(
                "submitted",
                "dd" * 8,
                created_at=time.time(),
                priority=5,
                jobs=1,
                specs=[],
                manifest=manifest("bv_8"),
            )
            journal.append("running", "dd" * 8)

        before = replay_journal(path)
        events_before, events_after = compact_journal(path)
        after = replay_journal(path)

        assert after == before
        assert events_after < events_before
        # Minimality: submitted per job, running where started, terminal
        # where finished = 3 + 3 + 1 + 2 for the four jobs above.
        assert events_after == 9

    def test_compaction_drops_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(path) as journal:
            append_full_lifecycle(journal, "aa" * 8)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 99, "event": "future", "job_id": "x"}) + "\n")
            handle.write('{"torn": ')  # crashed mid-write
        before = replay_journal(path)
        compact_journal(path)
        assert replay_journal(path) == before
        for line in path.read_text().splitlines():
            assert json.loads(line)["v"] == 1

    def test_missing_file_is_a_noop(self, tmp_path):
        assert compact_journal(tmp_path / "absent.jsonl") == (0, 0)

    def test_error_and_summary_survive_compaction(self, tmp_path):
        path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(path) as journal:
            journal.append(
                "submitted",
                "ee" * 8,
                created_at=123.0,
                priority=0,
                jobs=1,
                specs=[],
                manifest=None,
            )
            journal.append("running", "ee" * 8)
            journal.append(
                "failed", "ee" * 8, error={"type": "ReproError", "message": "boom"}
            )
        compact_journal(path)
        (state,) = replay_journal(path)
        assert state["status"] == "failed"
        assert state["error"] == {"type": "ReproError", "message": "boom"}


class TestServiceStartupCompaction:
    def test_restart_compacts_and_preserves_the_job_table(self, tmp_path):
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            job, _ = service.submit_document(manifest("qft_8", "compact-me"))
            wait_until(lambda: job.finished)
            journal_path = service.journal.path
            job_id = job.job_id

        # Pad the journal with a superseded lifecycle for the same job,
        # as a long-lived service would accumulate across resubmissions.
        with JobJournal(journal_path) as journal:
            append_full_lifecycle(journal, job_id, extra_events=5)
        size_before = journal_path.stat().st_size
        folded_before = replay_journal(journal_path)

        restarted = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            assert journal_path.stat().st_size < size_before
            replayed = restarted.store.get(job_id)
            assert replayed is not None and replayed.status == "done"
            # The compacted file folds to the same states the service
            # actually recovered from.
            assert replay_journal(journal_path) == folded_before
        finally:
            restarted.close(drain_timeout=WAIT)

    def test_new_events_append_after_compaction(self, tmp_path):
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            job, _ = service.submit_document(manifest("qft_8", "first"))
            wait_until(lambda: job.finished)

        restarted = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        try:
            second, _ = restarted.submit_document(manifest("bv_8", "second"))
            wait_until(lambda: second.finished)
            journal_path = restarted.journal.path
        finally:
            restarted.close(drain_timeout=WAIT)
        states = {s["job_id"]: s["status"] for s in replay_journal(journal_path)}
        assert len(states) == 2
        assert set(states.values()) == {"done"}


class TestJournalAppend:
    def test_appends_never_rewrite_the_file(self, tmp_path):
        path = tmp_path / "jobs.journal.jsonl"
        with JobJournal(path) as journal:
            for index in range(4):
                append_full_lifecycle(journal, f"{index:016x}", extra_events=6)
            # Append-only: every byte written is still on disk.
            assert journal.size_bytes() == journal.bytes_written
