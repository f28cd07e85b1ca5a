"""A durable JSON-lines journal of service-job state transitions.

The :class:`JobJournal` is the persistence layer behind
:class:`~repro.service.app.CompilationService`: every job transition
(``submitted`` → ``running`` → ``done``/``failed``/``cancelled``) is
appended as one JSON object per line to a file under the service's cache
directory.  On startup the service replays the journal
(:func:`replay_journal` folds the event log into one final state per job
id) and rebuilds its job table:

* jobs whose last event is **terminal** are restored as finished records
  (status, summary, error and timestamps survive; the streamed outcome
  buffers do not);
* jobs that were **queued or running** when the process died are either
  resubmitted from their journaled manifest document — recompilation is
  then typically free, because the schedule cache lives in the same
  directory — or marked ``failed("restart")`` when the manifest was not
  journalable (submissions carrying live Python objects) or no longer
  parses.

The format is append-only and crash-tolerant: a torn final line (the
process died mid-write) is ignored on replay, and every line carries a
``"v"`` format marker so future versions can skip records they do not
understand instead of refusing the whole file.  While the service runs
the file only grows; the service **compacts** it right after replay on
every startup (:func:`compact_journal`): the event log is rewritten to
only the live/terminal state replay actually needs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator

#: Format marker written on every journal line.
JOURNAL_VERSION = 1

#: Events that leave a job in a terminal state.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class JobJournal:
    """Append-only, thread-safe JSON-lines journal at ``path``.

    Lines are flushed on every append — a service killed between
    submissions loses at most the line being written, never an
    acknowledged transition.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = self.path.open("a", encoding="utf-8")
        # Per-instance write accounting (monotonic while the journal is
        # open) — the health endpoint and the metrics collector read
        # these instead of re-scanning the file.
        self.events_appended = 0
        self.bytes_written = 0

    def size_bytes(self) -> int:
        """Current on-disk size of the journal file (0 when missing)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def append(self, event: str, job_id: str, **fields: Any) -> None:
        """Record one transition; unserialisable extras are dropped."""
        record: dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "event": event,
            "job_id": job_id,
            "at": time.time(),
        }
        record.update(fields)
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError):
            # A field (e.g. a manifest holding live objects) resists JSON:
            # journal the transition without it rather than not at all.
            record = {
                key: value
                for key, value in record.items()
                if _json_safe(value)
            }
            line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()
            self.events_appended += 1
            self.bytes_written += len(line) + 1

    def flush(self) -> None:
        with self._lock:
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _json_safe(value: Any) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def iter_journal(path: "Path | str") -> Iterator[dict[str, Any]]:
    """Yield parsed journal records, skipping torn or foreign lines."""
    path = Path(path)
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn trailing line from a crashed writer — or garbage.
                # Either way the records before it are intact; skip it.
                continue
            if not isinstance(record, dict) or "event" not in record:
                continue
            if record.get("v") != JOURNAL_VERSION:
                continue
            yield record


def replay_journal(path: "Path | str") -> "list[dict[str, Any]]":
    """Fold the event log into one final state per job, submission order.

    Each returned dict has the shape::

        {"job_id", "status", "created_at", "priority", "total_jobs",
         "spec_rows", "manifest", "started_at", "finished_at",
         "summary", "error"}

    ``status`` is the last journaled state (``queued`` when only the
    submission made it to disk).  ``manifest`` is the document journaled
    at submission time, or ``None`` when it was not JSON-serialisable.
    """
    states: "dict[str, dict[str, Any]]" = {}
    order: list[str] = []
    for record in iter_journal(path):
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            continue
        event = record["event"]
        if event == "submitted":
            if job_id not in states:
                order.append(job_id)
            # A resubmission after a failure re-journals "submitted":
            # reset the folded state so a stale error does not stick.
            states[job_id] = {
                "job_id": job_id,
                "status": "queued",
                "created_at": record.get("created_at", record.get("at")),
                "priority": int(record.get("priority", 0)),
                "total_jobs": int(record.get("jobs", 0)),
                "spec_rows": record.get("specs") or [],
                "manifest": record.get("manifest"),
                "started_at": None,
                "finished_at": None,
                "summary": None,
                "error": None,
            }
            continue
        state = states.get(job_id)
        if state is None:
            # A transition without its submission (a journal truncated
            # at the head): nothing to rebuild from.
            continue
        if event == "running":
            state["status"] = "running"
            state["started_at"] = record.get("at")
        elif event in _TERMINAL_EVENTS:
            state["status"] = event
            state["finished_at"] = record.get("at")
            if record.get("summary") is not None:
                state["summary"] = record["summary"]
            if record.get("error") is not None:
                state["error"] = record["error"]
    return [states[job_id] for job_id in order]


def compact_journal(
    path: "Path | str", states: "list[dict[str, Any]] | None" = None
) -> "tuple[int, int]":
    """Rewrite the journal to the minimal events reproducing its replay.

    The journal is append-only, so a long-lived service accumulates one
    line per transition — including every superseded resubmission —
    forever.  Compaction folds the log (:func:`replay_journal`, unless
    the caller already has the ``states``) and rewrites the file with
    only what replay needs per job: its ``submitted`` event, a
    ``running`` event when it had started, and its terminal event with
    the surviving summary/error.  Torn lines and foreign-version records
    disappear with the rewrite.

    The rewrite is atomic (temp file + replace), so a crash mid-compact
    leaves the original journal intact.  Returns ``(events_before,
    events_after)``; a missing file is a no-op ``(0, 0)``.

    Only safe while no :class:`JobJournal` has the file open for append
    — the service compacts between replaying and reopening on startup.
    """
    path = Path(path)
    if not path.exists():
        return 0, 0
    events_before = sum(1 for _ in iter_journal(path))
    if states is None:
        states = replay_journal(path)
    lines: list[str] = []
    for state in states:
        submitted: dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "event": "submitted",
            "job_id": state["job_id"],
            "at": state["created_at"],
            "created_at": state["created_at"],
            "priority": state["priority"],
            "jobs": state["total_jobs"],
            "specs": state["spec_rows"],
            "manifest": state["manifest"],
        }
        lines.append(json.dumps(submitted, sort_keys=True))
        if state["started_at"] is not None:
            running = {
                "v": JOURNAL_VERSION,
                "event": "running",
                "job_id": state["job_id"],
                "at": state["started_at"],
            }
            lines.append(json.dumps(running, sort_keys=True))
        if state["status"] in _TERMINAL_EVENTS:
            terminal: dict[str, Any] = {
                "v": JOURNAL_VERSION,
                "event": state["status"],
                "job_id": state["job_id"],
                "at": state["finished_at"],
            }
            if state["summary"] is not None:
                terminal["summary"] = state["summary"]
            if state["error"] is not None:
                terminal["error"] = state["error"]
            lines.append(json.dumps(terminal, sort_keys=True))
    tmp = path.with_suffix(f".compact.{os.getpid()}.tmp")
    tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    tmp.replace(path)
    return events_before, len(lines)
