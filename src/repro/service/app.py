"""The compilation service core, independent of any transport.

:class:`CompilationService` owns the long-lived pieces the HTTP
front-end (and any embedding application) shares:

* a **warm** :class:`~repro.runtime.pool.BatchCompiler` whose worker
  processes survive across submissions, so small jobs do not pay the
  pool-spawn cost per request;
* a :class:`~repro.runtime.cache.ScheduleCache` (optionally disk-backed)
  that serves repeated submissions without recompiling;
* a :class:`~repro.service.jobs.JobStore` of every submission, keyed by
  the fingerprint-derived job id;
* a :class:`~repro.service.scheduler.ServiceScheduler` running up to
  ``slots`` submitted batches **concurrently** over the shared engine
  (priority order, FIFO within priority).

What the service keeps on disk has one policy, set by ``cache_dir``.
With a cache directory it always keeps a
:class:`~repro.service.journal.JobJournal` (``jobs.journal.jsonl``),
compacted once at startup, so finished jobs survive restarts and
interrupted ones are resubmitted from their journaled manifests (or
marked ``failed`` with a restart error when they cannot be), and a
:class:`~repro.service.results.ResultStore` (``results/``) that replays
finished streams byte-identically.  Without one it keeps nothing on disk.

Outcomes stream through :meth:`ServiceJob.add_outcome` as each
compilation lands, which is what makes incremental result delivery
possible before a batch finishes; cancellation
(:meth:`CompilationService.cancel`) is cooperative, taking effect
between compilations.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.hardware.presets import paper_device
from repro.obs.metrics import MetricsRegistry
from repro.obs.service import ServiceMetrics
from repro.registry import available_compilers, make_pipeline
from repro.runtime.cache import ScheduleCache
from repro.runtime.manifest import (
    jobs_from_manifest,
    manifest_document_from_text,
)
from repro.runtime.pool import BatchCompiler
from repro.service.jobs import (
    TERMINAL_STATUSES,
    JobStore,
    ServiceJob,
    job_batch_id,
)
from repro.service.journal import JobJournal, compact_journal, replay_journal
from repro.service.results import ResultStore
from repro.service.scheduler import ServiceScheduler

#: File name of the job journal inside the service's cache directory.
JOURNAL_FILENAME = "jobs.journal.jsonl"

#: Subdirectory of the cache directory holding the durable result store.
RESULTS_DIRNAME = "results"


class CompilationService:
    """Concurrent, durable compilation jobs over a warm batch engine.

    Parameters
    ----------
    workers:
        Worker-process count of the underlying engine.
    cache:
        An existing :class:`ScheduleCache` to serve and populate.
    cache_dir:
        The directory that makes the service durable.  It holds the
        schedule cache's ``.sched`` entries (unless ``cache`` or
        ``engine`` supplies the cache), the job journal
        (``jobs.journal.jsonl``) and the result store (``results/``).
        On construction the journal is replayed, compacted, and every
        job it left queued or running is resubmitted.  ``None`` keeps
        everything in memory.
    warm:
        Keep the engine's worker pool alive across submissions (the
        default; disable only for tests of the cold path).
    slots:
        How many submitted batches may run concurrently (``1`` restores
        the old strictly-serial executor behaviour).
    engine:
        An existing engine to run on instead of building one —
        ``workers``/``cache``/``warm`` are then ignored.  Tests inject
        controllable engines here.
    cache_tier:
        A shared network cache to consult behind the local tiers: either
        a base URL (``http://host:port`` — wrapped in an
        :class:`~repro.runtime.cache_tier.HttpCacheTier`) or any object
        satisfying the :class:`~repro.runtime.cache_tier.CacheTier`
        protocol.  Attached to the engine's schedule cache, so fleet
        workers pointed at one tier share every compilation.
    drain_timeout:
        Default bound, in seconds, on how long :meth:`close` waits for
        running batches to finish before cooperatively cancelling them.
    metrics_registry:
        An existing :class:`~repro.obs.MetricsRegistry` to expose the
        service's metrics through (embedding applications merge them
        into their own exposition); a private registry is created by
        default.  Either way :attr:`metrics` holds the
        :class:`~repro.obs.ServiceMetrics` binding behind
        ``GET /v1/metrics``.
    """

    def __init__(
        self,
        workers: int | None = 2,
        cache: ScheduleCache | None = None,
        cache_dir: "Path | str | None" = None,
        max_cache_entries: int = 256,
        warm: bool = True,
        slots: int = 2,
        engine: BatchCompiler | None = None,
        cache_tier: "str | Any | None" = None,
        drain_timeout: float | None = 10.0,
        metrics_registry: MetricsRegistry | None = None,
    ) -> None:
        if engine is None:
            if cache is None:
                cache = ScheduleCache(
                    max_entries=max_cache_entries, directory=cache_dir
                )
            engine = BatchCompiler(workers=workers, cache=cache, warm=warm)
        self.engine = engine
        if cache_tier is not None:
            if isinstance(cache_tier, str):
                from repro.runtime.cache_tier import HttpCacheTier

                cache_tier = HttpCacheTier(cache_tier)
            self.engine.cache.tiers = self.engine.cache.tiers + (cache_tier,)
        self.store = JobStore()
        self.started_at = time.time()
        self.started_monotonic = time.monotonic()
        if metrics_registry is None:
            metrics_registry = MetricsRegistry()
        self.scheduler = ServiceScheduler(
            self.engine,
            slots=slots,
            observer=self._on_transition,
            registry=metrics_registry,
        )
        self.drain_timeout = drain_timeout
        self.results: ResultStore | None = None
        self.journal: JobJournal | None = None
        recovered: "list[dict[str, Any]]" = []
        if cache_dir is not None:
            self.results = ResultStore(Path(cache_dir) / RESULTS_DIRNAME)
            journal_path = Path(cache_dir) / JOURNAL_FILENAME
            recovered = replay_journal(journal_path)
            compact_journal(journal_path, states=recovered)
            self.journal = JobJournal(journal_path)
        self._lock = threading.Lock()
        self._closed = False
        self._compilers_cache: "tuple[tuple, list[dict[str, object]]] | None" = None
        self.metrics = ServiceMetrics(self, registry=metrics_registry)
        self._recover(recovered)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler slots (idempotent; ``submit`` calls it)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the service has been closed")
        self.scheduler.start()

    def close(self, drain_timeout: float | None = None) -> None:
        """Graceful shutdown: drain running jobs, cancel the queue.

        Running batches get ``drain_timeout`` seconds (defaulting to the
        service's ``drain_timeout``) to finish; still-queued jobs are
        marked ``cancelled`` — and journaled as such, so a restart does
        not resurrect work the operator shut down on purpose.  The
        journal is flushed and closed, then the engine's workers are
        released.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        self.scheduler.close(drain_timeout=drain_timeout)
        if self.journal is not None:
            self.journal.close()
        if self.results is not None:
            self.results.close()
        if self.scheduler.active_count() == 0:
            self.engine.close()
        # else: slots outlived the drain deadline.  Terminating the warm
        # pool under their live engine.run calls would leave the daemon
        # slot threads blocked in the pool's result iterators forever —
        # leave the workers to die with the process instead (they are
        # daemonic), and let the cooperative cancel land if it can.

    def __enter__(self) -> "CompilationService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    def _on_transition(self, job: ServiceJob, transition: str) -> None:
        """Scheduler observer: journal every state change, seal results.

        On ``done``, the durable result store's partial stream gains the
        terminal ``end`` line (the same bytes :meth:`stream_encoded`
        ends with) and is finalised; failed and cancelled jobs abandon
        theirs — those ids are retryable, and a stale partial stream
        must not shadow the retry.
        """
        if self.journal is None:
            return
        if transition == "done":
            self.results.finalize(job.job_id, self._encoded_end_line(job))
        elif transition in TERMINAL_STATUSES:
            self.results.abandon(job.job_id)
        fields: dict[str, Any] = {}
        if transition == "done" and job.summary is not None:
            fields["summary"] = job.summary
        if transition == "failed" and job.error is not None:
            fields["error"] = job.error
        self.journal.append(transition, job.job_id, **fields)

    def _journal_submission(
        self, job: ServiceJob, document: Any
    ) -> None:
        if self.journal is None:
            return
        # A document that resists JSON (live objects in a Python-side
        # submission) is dropped by JobJournal.append's own fallback;
        # replay then sees manifest=None and marks the job failed
        # rather than resubmitting it.
        self.journal.append(
            "submitted",
            job.job_id,
            created_at=job.created_at,
            priority=job.priority,
            jobs=len(job.jobs),
            specs=job.spec_rows(),
            manifest=document,
        )

    def _recover(self, recovered: "list[dict[str, Any]]") -> None:
        """Rebuild the job table from replayed journal states."""
        for state in recovered:
            status = state["status"]
            if status in ("done", "failed", "cancelled"):
                job = ServiceJob.from_journal(
                    state["job_id"],
                    status,
                    created_at=state["created_at"] or 0.0,
                    priority=state["priority"],
                    total_jobs=state["total_jobs"],
                    spec_rows=state["spec_rows"],
                    summary=state["summary"],
                    error=state["error"],
                    started_at=state["started_at"],
                    finished_at=state["finished_at"],
                )
                if status == "done":
                    # The durable store may hold the job's full original
                    # stream; attaching it makes the results replayable
                    # byte-for-byte with zero recompilation.
                    job.stored_lines = self.results.load(job.job_id)
                self.store.put(job)
                continue
            # Interrupted mid-flight.  Resubmit when we can, otherwise
            # record the restart as the failure it was.
            resubmitted = False
            if state["manifest"] is not None:
                try:
                    jobs = jobs_from_manifest(state["manifest"])
                    job = ServiceJob(
                        state["job_id"], jobs, priority=state["priority"]
                    )
                    job.replayed = True
                except Exception:  # noqa: BLE001 - fall through to failure marker
                    pass
                else:
                    self.store.put(job)
                    # Stored like any submission, so the next restart
                    # can serve the re-run's stream too.
                    job.on_encoded_line = self.results.open_writer(job.job_id).append
                    self.scheduler.submit(job)
                    resubmitted = True
            if not resubmitted:
                failed = ServiceJob.from_journal(
                    state["job_id"],
                    "failed",
                    created_at=state["created_at"] or 0.0,
                    priority=state["priority"],
                    total_jobs=state["total_jobs"],
                    spec_rows=state["spec_rows"],
                    error={
                        "type": "ServiceRestart",
                        "message": "restart: the service stopped while this "
                        "job was in flight and it could not be resubmitted",
                    },
                    started_at=state["started_at"],
                )
                self.store.put(failed)
                self.journal.append("failed", failed.job_id, error=failed.error)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_document(
        self, document: Any, priority: int = 0
    ) -> "tuple[ServiceJob, bool]":
        """Submit a parsed manifest document; returns ``(job, resubmitted)``.

        Raises :class:`~repro.exceptions.ManifestError` for invalid
        documents.  A manifest whose fingerprint-derived id matches an
        existing job that is neither ``failed`` nor ``cancelled`` is
        **not** re-run: the original job is returned with
        ``resubmitted=True`` (its results may already be streaming, or
        complete).  Failed and cancelled jobs are retried.
        """
        jobs = jobs_from_manifest(document)
        return self._enqueue(jobs, priority=priority, document=document)

    def submit_text(
        self, body: "str | bytes", priority: int = 0
    ) -> "tuple[ServiceJob, bool]":
        """Submit a raw JSON manifest body (the POST request path)."""
        document = manifest_document_from_text(body)
        return self.submit_document(document, priority=priority)

    def _enqueue(
        self, jobs: list, priority: int, document: Any
    ) -> "tuple[ServiceJob, bool]":
        self.start()
        job_id = job_batch_id(jobs)
        with self._lock:
            existing = self.store.get(job_id)
            if existing is not None and not self._retryable(existing):
                return existing, True
            job = ServiceJob(job_id, jobs, priority=priority)
            self.store.put(job)
        if self.results is not None:
            # Attach the durable writer before the scheduler can run the
            # job, so no outcome line can land unpersisted.
            job.on_encoded_line = self.results.open_writer(job_id).append
        self._journal_submission(job, document)
        self.scheduler.submit(job)
        return job, False

    @staticmethod
    def _retryable(existing: ServiceJob) -> bool:
        """Whether a resubmission should re-run instead of deduplicate.

        Failed and cancelled jobs retry.  So does a **replayed terminal
        job without stored results**: its status and summary survived
        the restart but its streamed outcome buffers did not, so
        deduplicating against it would make the results permanently
        unretrievable — while the schedule cache makes the re-run nearly
        free.  A replayed job whose full stream survived in the result
        store deduplicates like any live finished job: its results are
        servable as stored bytes, with zero recompilation.
        """
        if existing.status in ("failed", "cancelled"):
            return True
        return (
            existing.replayed
            and existing.finished
            and not existing.encoded_lines
            and existing.stored_lines is None
        )

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> "tuple[ServiceJob, bool]":
        """Request cancellation of a job; returns ``(job, accepted)``.

        Raises :class:`KeyError` for unknown ids.  A queued job lands in
        ``cancelled`` immediately (and is journaled); a running one is
        flagged and transitions at its next outcome boundary; a job
        already terminal is returned with ``accepted=False``.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(job_id)
        was_queued = job.status == "queued"
        accepted = job.cancel()
        if accepted and was_queued and job.status == "cancelled":
            # Running jobs are journaled by the scheduler when the
            # cooperative cancel lands; queued ones finish right here.
            self._on_transition(job, "cancelled")
        return job, accepted

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> ServiceJob | None:
        """The job record for an id, or ``None``."""
        return self.store.get(job_id)

    def jobs_payload(
        self, offset: int = 0, limit: int | None = None
    ) -> dict[str, object]:
        """A paginated job listing, oldest submission first."""
        if offset < 0:
            raise ValueError("offset cannot be negative")
        if limit is not None and limit < 0:
            raise ValueError("limit cannot be negative")
        jobs = self.store.all()
        window = jobs[offset:] if limit is None else jobs[offset : offset + limit]
        return {
            "jobs": [job.status_payload() for job in window],
            "total": len(jobs),
            "offset": offset,
            "count": len(window),
        }

    def stream_lines(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict[str, object]]:
        """JSON-ready result lines for a job, in job order, as they land.

        Yields one ``{"type": "outcome", ...}`` object per compile job
        and exactly one terminal ``{"type": "end", ...}`` object carrying
        the batch summary (or the failure).  Unknown ids raise
        :class:`KeyError` — eagerly, before the first iteration, so HTTP
        handlers can turn it into a 404 while the status line is still
        unsent.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return self._stream_lines(job, timeout)

    def _stream_lines(
        self, job: ServiceJob, timeout: float | None
    ) -> Iterator[dict[str, object]]:
        # Parsed from the byte stream itself, so the two streams cannot
        # diverge.
        for line in self._stream_encoded(job, timeout):
            yield json.loads(line)

    def stream_encoded(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[bytes]:
        """The result stream as ready-to-write JSON line bytes.

        The fast-path twin of :meth:`stream_lines`: outcome lines are the
        bytes :meth:`ServiceJob.add_outcome` encoded when each outcome
        landed, passed through verbatim, so replaying a finished job's
        stream serialises nothing.  Only the terminal ``end`` line is
        encoded per call (it depends on the job's status at stream time).
        Every line is byte-identical to ``json.dumps(line, sort_keys=True)``
        of the corresponding :meth:`stream_lines` object.  Unknown ids
        raise :class:`KeyError` eagerly, as :meth:`stream_lines` does.
        """
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return self._stream_encoded(job, timeout)

    @staticmethod
    def _encoded_end_line(job: ServiceJob) -> bytes:
        """The terminal ``end`` line's bytes for a job's current state.

        One encoder shared by live streaming and result-store
        finalisation, so the stored stream is byte-identical to the one
        the original client read.
        """
        end: dict[str, object] = {
            "type": "end",
            "job_id": job.job_id,
            "status": job.status,
        }
        if job.summary is not None:
            end["summary"] = dict(job.summary)
        if job.error is not None:
            end["error"] = dict(job.error)
        return json.dumps(end, sort_keys=True).encode("utf-8")

    def _stream_encoded(
        self, job: ServiceJob, timeout: float | None
    ) -> Iterator[bytes]:
        if job.stored_lines is not None:
            # Restored from the durable result store after a restart:
            # the full original stream (end line included), verbatim.
            yield from job.stored_lines
            return
        yield from job.iter_encoded_lines(timeout=timeout)
        yield self._encoded_end_line(job)

    def cache_entry_bytes(self, compile_fingerprint: str) -> "bytes | None":
        """One cache entry as raw binary bytes (``GET /v1/cache/<fp>``).

        The server half of the network cache tier: answers the exact
        ``RCEN`` payload a peer's :class:`HttpCacheTier` will feed to
        :meth:`CachedCompilation.from_bytes`.  Uses :meth:`peek` —
        remote probes must not skew this node's hit/miss statistics.
        """
        entry = self.engine.cache.peek(compile_fingerprint)
        if entry is None:
            return None
        return entry.to_bytes()

    def cache_store_bytes(self, compile_fingerprint: str, payload: bytes) -> bool:
        """Accept a binary cache entry pushed by a peer (``PUT /v1/cache``).

        The body must parse as a current-format entry — a corrupt or
        foreign payload is refused (``False``) rather than stored, so one
        bad peer cannot poison the shared tier.  Stored with
        ``propagate=False``: an inbound PUT must not echo back out to
        this node's own tiers.
        """
        from repro.runtime.cache import CachedCompilation

        try:
            entry = CachedCompilation.from_bytes(payload)
        except Exception:  # noqa: BLE001 - any parse failure is a refusal
            return False
        self.engine.cache.put(compile_fingerprint, entry, propagate=False)
        return True

    def schedule_payload(self, compile_fingerprint: str) -> dict[str, object] | None:
        """The cached compilation stored under a compile fingerprint.

        Uses :meth:`ScheduleCache.peek`, so lookups neither skew the
        cache statistics nor reorder the LRU tier.  ``None`` when the
        fingerprint is unknown (or its on-disk entry has a mismatched
        format version).
        """
        entry = self.engine.cache.peek(compile_fingerprint)
        if entry is None:
            return None
        return {"compile_fingerprint": compile_fingerprint, "entry": entry.to_dict()}

    def compilers_payload(self) -> list[dict[str, object]]:
        """The registry listing, mirroring ``python -m repro compilers``.

        Building the payload materialises one pipeline per compiler, so
        the rows are cached and recomputed only when the registry
        contents change (spec equality includes factory identity, so a
        re-registration under the same name invalidates too).
        """
        specs = available_compilers()
        cached = self._compilers_cache
        if cached is not None and cached[0] == specs:
            return cached[1]
        device = paper_device("G-2x2")  # a representative device to materialise pipelines
        rows = []
        for spec in specs:
            pipeline = make_pipeline(spec.name, device)
            rows.append(
                {
                    "name": spec.name,
                    "aliases": list(spec.aliases),
                    "passes": list(pipeline.pass_names()),
                    "mapping": spec.default_mapping or "built-in",
                    "accepts_mapping": spec.accepts_mapping,
                    "accepts_config": spec.accepts_config,
                    "builtin": spec.builtin,
                    "description": spec.description,
                }
            )
        self._compilers_cache = (specs, rows)
        return rows

    def metrics_text(self) -> str:
        """The Prometheus exposition behind ``GET /v1/metrics``."""
        return self.metrics.render()

    def health_payload(self) -> dict[str, object]:
        """Liveness plus the numbers an operator wants at a glance.

        ``jobs`` is the per-state job census, ``scheduler`` the queue
        depth and slot occupancy, ``cache`` the shared schedule cache's
        hit/miss/eviction counters.  ``uptime_seconds`` and the journal
        size ride along so a liveness probe can alert on a restarted or
        journal-bloated service without scraping the full metrics
        endpoint.
        """
        # Imported lazily: repro/__init__ re-exports this package, so a
        # top-level import of the package root would be circular.
        from repro import __version__

        journal: "dict[str, object] | None" = None
        if self.journal is not None:
            journal = {
                "path": str(self.journal.path),
                "size_bytes": self.journal.size_bytes(),
                "events_appended": self.journal.events_appended,
            }
        results: "dict[str, object] | None" = None
        if self.results is not None:
            results = {
                "path": str(self.results.directory),
                "entries": self.results.entries(),
                "disk_bytes": self.results.disk_bytes(),
                "stores": self.results.stores,
                "replays": self.results.replays,
            }
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "jobs": self.store.counts(),
            "scheduler": self.scheduler.stats(),
            "engine": {"workers": self.engine.workers, "warm": self.engine.warm},
            "cache": self.engine.cache.stats.as_dict(),
            "journal": journal,
            "results": results,
        }
