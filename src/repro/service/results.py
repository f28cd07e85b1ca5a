"""Durable, content-addressed storage of streamed job results.

The service streams each job's results as pre-encoded JSON lines
(:meth:`ServiceJob.add_outcome` builds every outcome line exactly once).
:class:`ResultStore` makes that stream **durable**: the same bytes are
appended to ``<job_id>.part`` as they land, and when the job completes
the terminal ``end`` line is appended and the file atomically renamed to
``<job_id>.results``.  After a restart, ``GET /v1/jobs/<id>/results``
for a finished job replays the stored file verbatim — byte-identical to
the original stream, with **zero** recompilation — and any node holding
the file can serve it.

Files are keyed by the job's fingerprint-derived id, so the store is
content-addressed the same way the schedule cache is: a byte-identical
resubmission maps to the same file.  The store keeps every finished
stream; like the schedule cache's ``.sched`` files, nothing is evicted.
Stale ``.part`` files from a previous process are removed at startup —
their jobs are resubmitted from the journal anyway.

Failed and cancelled jobs are *abandoned*, not stored: their ids are
retryable, so keeping a partial stream would shadow the retry's fresh
results.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

__all__ = ["ResultStore", "ResultWriter"]

#: Suffix of a finalised (complete, servable) result file.
RESULT_SUFFIX = ".results"

#: Suffix of an in-flight stream (never served).
PART_SUFFIX = ".part"


class ResultWriter:
    """Append-as-they-stream writer for one job's result lines.

    Owned by a :class:`ResultStore`; not constructed directly.  Appends
    are flushed per line, so the ``.part`` file always holds every line
    already streamed to clients — a crash loses at most the not-yet-
    terminal tail, and the journal resubmits such jobs anyway.
    """

    def __init__(self, store: "ResultStore", job_id: str) -> None:
        self._store = store
        self.job_id = job_id
        self.path = store.directory / f"{job_id}{PART_SUFFIX}"
        self._file: "Any | None" = open(self.path, "wb")
        self._lock = threading.Lock()
        self.lines_written = 0

    def append(self, line: bytes) -> None:
        """Persist one encoded result line (with its newline)."""
        with self._lock:
            if self._file is None:  # finished/abandoned already
                return
            self._file.write(line + b"\n")
            self._file.flush()
            self.lines_written += 1
            self._store._bytes_written += len(line) + 1

    def finish(self, end_line: bytes) -> "Path | None":
        """Append the terminal line and promote ``.part`` → ``.results``."""
        with self._lock:
            if self._file is None:
                return None
            self._file.write(end_line + b"\n")
            self._file.flush()
            self._file.close()
            self._file = None
            self._store._bytes_written += len(end_line) + 1
        final = self.path.with_suffix(RESULT_SUFFIX)
        self.path.replace(final)
        return final

    def abandon(self) -> None:
        """Close and delete the partial file (failed/cancelled jobs)."""
        with self._lock:
            if self._file is None:
                return
            self._file.close()
            self._file = None
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


class ResultStore:
    """Content-addressed result files under one directory.

    ``directory`` is where the ``<job_id>.results`` files live (created
    if missing).
    """

    def __init__(self, directory: "Path | str") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._writers: dict[str, ResultWriter] = {}
        # Counters mirrored into metrics by the scrape-time collector.
        self._bytes_written = 0
        self.stores = 0
        self.replays = 0
        self.abandoned = 0
        # A previous process's in-flight streams are unfinishable.
        for stale in self.directory.glob(f"*{PART_SUFFIX}"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # ------------------------------------------------------------------
    # writer lifecycle (scheduler side)
    # ------------------------------------------------------------------
    def open_writer(self, job_id: str) -> ResultWriter:
        """Start (or restart, truncating) the stream file for a job."""
        writer = ResultWriter(self, job_id)
        with self._lock:
            previous = self._writers.get(job_id)
            self._writers[job_id] = writer
        if previous is not None:  # a retry superseded the old attempt
            previous.abandon()
        return writer

    def finalize(self, job_id: str, end_line: bytes) -> None:
        """Seal a finished job's stream."""
        with self._lock:
            writer = self._writers.pop(job_id, None)
        if writer is not None and writer.finish(end_line) is not None:
            self.stores += 1

    def abandon(self, job_id: str) -> None:
        """Drop the partial stream of a failed/cancelled job."""
        with self._lock:
            writer = self._writers.pop(job_id, None)
        if writer is not None:
            writer.abandon()
            self.abandoned += 1

    def close(self) -> None:
        """Abandon every still-open writer (service shutdown)."""
        with self._lock:
            writers = list(self._writers.values())
            self._writers.clear()
        for writer in writers:
            writer.abandon()

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def result_path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}{RESULT_SUFFIX}"

    def load(self, job_id: str) -> "list[bytes] | None":
        """The stored stream as its original lines, or ``None``.

        The returned lines include the terminal ``end`` line and carry
        no trailing newlines — exactly what the streaming transport
        appends per line.
        """
        try:
            raw = self.result_path(job_id).read_bytes()
        except OSError:
            return None
        if not raw.endswith(b"\n"):  # torn finalisation; unservable
            return None
        with self._lock:
            self.replays += 1
        return raw[:-1].split(b"\n")

    def entries(self) -> int:
        """How many finalised result files the store holds."""
        return len(list(self.directory.glob(f"*{RESULT_SUFFIX}")))

    def disk_bytes(self) -> int:
        """Total size of the finalised result files."""
        total = 0
        for path in self.directory.glob(f"*{RESULT_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - removed while listing
                continue
        return total

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def bind_metrics(self, registry: "Any") -> None:
        """Register a scrape-time collector for the store's counters."""
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> "list[Any]":
        from repro.obs.metrics import Counter, Gauge

        events = Counter(
            "repro_result_store_events_total",
            "Result-store lifecycle events, by kind.",
            ("kind",),
        )
        events.labels(kind="store").inc(self.stores)
        events.labels(kind="replay").inc(self.replays)
        events.labels(kind="abandon").inc(self.abandoned)
        written = Counter(
            "repro_result_store_bytes_written_total",
            "Result-line bytes appended to the store (including .part).",
        )
        written.inc(self._bytes_written)
        files = Gauge(
            "repro_result_store_entries", "Finalised result files on disk."
        )
        files.set(self.entries())
        size = Gauge(
            "repro_result_store_disk_bytes", "Bytes used by finalised result files."
        )
        size.set(self.disk_bytes())
        return [events, written, files, size]
