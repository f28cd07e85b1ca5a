"""Service-side job bookkeeping: submissions, states, streamed outcomes.

A :class:`ServiceJob` tracks one submitted manifest through its life
cycle (``queued`` → ``running`` → ``done``/``failed``/``cancelled``) and
buffers the streamed ndjson line of each
:class:`~repro.runtime.pool.JobOutcome` the batch engine delivers via
its completion callback — the encoded line is the job's only outcome
buffer.  All mutation happens under one condition variable, so any
number of HTTP handler threads can stream outcomes while a scheduler
slot thread appends them.

Job ids are **derived from the compile-job fingerprints** (not from a
counter or a clock): the same manifest always maps to the same id, which
makes submission idempotent — a client retrying a POST neither duplicates
work nor loses track of the original run.

Cancellation is cooperative: :meth:`ServiceJob.cancel` flips a queued job
straight to ``cancelled``, while a running job only gets a request flag —
the scheduler checks it between compilations and finishes the transition
(:meth:`ServiceJob.mark_cancelled`).  Jobs restored from the on-disk
journal after a restart (:mod:`repro.service.journal`) carry
``replayed=True`` and keep their terminal state and summary even though
their in-memory outcome buffers are gone.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Iterator, Sequence

from repro.runtime.jobs import CompileJob
from repro.runtime.pool import BatchResult, JobOutcome

#: The five states a submitted job moves through.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


def job_batch_id(jobs: Sequence[CompileJob]) -> str:
    """Deterministic id of a submission: a digest over its job fingerprints.

    Built from :meth:`CompileJob.fingerprint` (compile inputs *and*
    evaluation settings) **plus** the presentation metadata
    (``label``/``parameter``/``value``) — metadata never enters the
    compile fingerprints, but it does appear in result records, so two
    manifests that would produce different records must never share an
    id.  A byte-for-byte resubmission always does.
    """
    payload = "\n".join(
        f"{job.fingerprint()}|{job.label}|{job.parameter}|{job.value!r}"
        for job in jobs
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ServiceJob:
    """One submitted batch: its compile jobs, state and streamed outcomes.

    ``priority`` orders jobs in the scheduler queue — larger values run
    earlier, equal values run in submission order (FIFO within priority).
    """

    def __init__(
        self, job_id: str, jobs: Sequence[CompileJob], priority: int = 0
    ) -> None:
        self.job_id = job_id
        self.jobs: list[CompileJob] = list(jobs)
        self.priority = int(priority)
        self.status = "queued"
        self.outcome_times: list[float] = []
        # Pre-encoded ndjson "outcome" lines, one per outcome, built once
        # when the outcome lands.  Every client replaying this job's
        # stream gets these bytes verbatim — no per-reader JSON encode.
        self.encoded_lines: list[bytes] = []
        self.error: "dict[str, str] | None" = None
        self.summary: "dict[str, object] | None" = None
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cancel_requested = False
        self.replayed = False
        # Optional per-line sink (the durable result store's writer):
        # called with each encoded outcome line right after it lands.
        self.on_encoded_line: "Any | None" = None
        # A finished stream restored from the result store after a
        # restart: every line (outcomes + the terminal end line), served
        # verbatim instead of the in-memory buffers.
        self.stored_lines: "list[bytes] | None" = None
        # Monotonic queue-entry time, stamped by ServiceScheduler.submit;
        # the queue-latency histogram is measured from it.
        self.enqueued_at: float | None = None
        self._total_jobs = len(self.jobs)
        self._spec_rows: "list[dict[str, object]] | None" = None
        self._cond = threading.Condition()

    @classmethod
    def from_journal(
        cls,
        job_id: str,
        status: str,
        created_at: float,
        priority: int = 0,
        total_jobs: int = 0,
        spec_rows: "Sequence[dict[str, object]] | None" = None,
        summary: "dict[str, object] | None" = None,
        error: "dict[str, str] | None" = None,
        started_at: float | None = None,
        finished_at: float | None = None,
    ) -> "ServiceJob":
        """Rebuild a terminal job from replayed journal events.

        The compile jobs themselves are gone with the old process, so the
        record keeps the journaled spec rows and counts instead; streamed
        results are no longer available, but status, summary and error
        survive the restart.
        """
        job = cls(job_id, [], priority=priority)
        job.status = status
        job.created_at = created_at
        job.started_at = started_at
        job.finished_at = finished_at
        job.summary = dict(summary) if summary is not None else None
        job.error = dict(error) if error is not None else None
        job.replayed = True
        job._total_jobs = int(total_jobs)
        job._spec_rows = [dict(row) for row in spec_rows] if spec_rows else None
        return job

    # ------------------------------------------------------------------
    # executor-side transitions
    # ------------------------------------------------------------------
    def add_outcome(self, outcome: JobOutcome) -> None:
        """Record one completed outcome (the engine's ``on_outcome`` hook).

        The outcome's streamed ndjson line is encoded here, exactly once:
        the record bytes come from :meth:`JobOutcome.encoded_record` (the
        engine side encodes each record a single time no matter how many
        jobs share it) and are spliced into the sorted-key envelope, so
        the stored line is byte-identical to JSON-encoding the equivalent
        ``{"type": "outcome", ...}`` dict with sorted keys.
        """
        with self._cond:
            index = len(self.encoded_lines)
            self.outcome_times.append(time.monotonic())
            # Sorted key order of the full line dict is: compile_fingerprint,
            # compile_time_s, fingerprint, from_cache, index, job_id,
            # record, type — so the record bytes and the constant type tail
            # splice onto the head's closing brace.
            head = json.dumps(
                {
                    "compile_fingerprint": outcome.compile_fingerprint,
                    "compile_time_s": outcome.compile_time_s,
                    "fingerprint": outcome.fingerprint,
                    "from_cache": outcome.from_cache,
                    "index": index,
                    "job_id": self.job_id,
                },
                sort_keys=True,
            ).encode("utf-8")
            line = (
                head[:-1]
                + b', "record": '
                + outcome.encoded_record()
                + b', "type": "outcome"}'
            )
            self.encoded_lines.append(line)
            self._cond.notify_all()
        sink = self.on_encoded_line
        if sink is not None:
            # Outside the condition: the durable store's file append must
            # not block readers waiting on the next outcome.  Outcomes
            # for one job arrive from a single slot thread, so the
            # append order matches the stream order.
            try:
                sink(line)
            except Exception:  # noqa: BLE001 - durability is best-effort
                pass

    def try_start(self) -> bool:
        """Atomically move ``queued`` → ``running``; ``False`` otherwise.

        The check-and-transition happens under the job's own lock, the
        same one :meth:`cancel` takes — so a job can be started or
        cancelled, never both: whichever gets the lock first wins, and a
        scheduler slot that loses simply drops the job.
        """
        with self._cond:
            if self.status != "queued" or self.cancel_requested:
                return False
            self.status = "running"
            self.started_at = time.time()
            self._cond.notify_all()
            return True

    def mark_done(self, result: BatchResult) -> None:
        with self._cond:
            self.status = "done"
            self.summary = result.summary()
            self.finished_at = time.time()
            self._cond.notify_all()

    def mark_failed(self, exc: BaseException) -> None:
        with self._cond:
            self.status = "failed"
            self.error = {"type": type(exc).__name__, "message": str(exc)}
            self.finished_at = time.time()
            self._cond.notify_all()

    def mark_cancelled(self) -> None:
        """Finish the transition to ``cancelled`` (scheduler side)."""
        with self._cond:
            self.status = "cancelled"
            self.finished_at = time.time()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; ``False`` when the job is already terminal.

        A queued job transitions to ``cancelled`` immediately (the
        scheduler discards it when popped); a running one is flagged and
        lands in ``cancelled`` cooperatively, at the next outcome
        boundary — outcomes already streamed stay streamed.
        """
        with self._cond:
            if self.status in TERMINAL_STATUSES:
                return False
            self.cancel_requested = True
            if self.status == "queued":
                self.status = "cancelled"
                self.finished_at = time.time()
            self._cond.notify_all()
            return True

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def iter_encoded_lines(self, timeout: float | None = None) -> Iterator[bytes]:
        """Yield the pre-encoded outcome lines in job order, blocking until
        each is available.

        These are the bytes :meth:`add_outcome` built when each outcome
        landed — the streaming transport writes them to the wire without
        any re-serialisation.  The iterator ends when every buffered line
        has been yielded and the job has reached a terminal state; a job
        that fails (or is cancelled) mid-batch still yields the lines that
        landed before the interruption.  ``timeout`` bounds the *total*
        wait; exceeding it raises :class:`TimeoutError`.
        """
        index = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while len(self.encoded_lines) <= index and not self.finished:
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            if len(self.encoded_lines) <= index and not self.finished:
                                raise TimeoutError(
                                    f"timed out streaming job {self.job_id!r}"
                                )
                if len(self.encoded_lines) <= index:
                    return
                line = self.encoded_lines[index]
                index += 1
            yield line

    def spec_rows(self) -> list[dict[str, object]]:
        """Human-readable job specs (journaled rows for replayed jobs)."""
        if self._spec_rows is not None:
            return [dict(row) for row in self._spec_rows]
        return [job.describe() for job in self.jobs]

    def status_payload(self) -> dict[str, object]:
        """The job's public JSON representation (the status endpoint)."""
        with self._cond:
            payload: dict[str, object] = {
                "job_id": self.job_id,
                "status": self.status,
                "priority": self.priority,
                "jobs": self._total_jobs,
                "completed": (
                    len(self.stored_lines) - 1
                    if self.stored_lines is not None and not self.encoded_lines
                    else len(self.encoded_lines)
                ),
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "cancel_requested": self.cancel_requested,
                "job_specs": self.spec_rows(),
            }
            if self.replayed:
                payload["replayed"] = True
            if self.summary is not None:
                payload["summary"] = dict(self.summary)
            if self.error is not None:
                payload["error"] = dict(self.error)
        return payload


class JobStore:
    """Thread-safe id → :class:`ServiceJob` table.

    Readers get **snapshots**: :meth:`all` and :meth:`counts` copy the
    table contents under the lock before iterating, so a streaming
    handler enumerating jobs never races a concurrent ``put`` mutating
    the underlying dict (a ``RuntimeError: dictionary changed size
    during iteration`` under the old in-place iteration).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, ServiceJob] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def get(self, job_id: str) -> ServiceJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def put(self, job: ServiceJob) -> None:
        with self._lock:
            self._jobs[job.job_id] = job

    def snapshot(self) -> list[ServiceJob]:
        """A point-in-time copy of the table's values (unordered)."""
        with self._lock:
            return list(self._jobs.values())

    def all(self) -> list[ServiceJob]:
        """Every known job, oldest submission first (a stable snapshot)."""
        # Sort outside the lock: the snapshot list is private to this
        # call, and created_at/job_id are immutable after construction.
        return sorted(self.snapshot(), key=lambda job: (job.created_at, job.job_id))

    def counts(self) -> dict[str, int]:
        """How many jobs sit in each state (for the health endpoint)."""
        counts = {status: 0 for status in JOB_STATUSES}
        for job in self.snapshot():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts
