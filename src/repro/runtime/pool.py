"""The batch-compilation engine.

:class:`BatchCompiler` takes a list of :class:`CompileJob` items and
produces one :class:`JobOutcome` per job, in job order, through three
tiers:

1. **cache** — jobs whose compile fingerprint is already in the
   :class:`~repro.runtime.cache.ScheduleCache` skip compilation;
2. **dedup** — remaining jobs are grouped by compile fingerprint so each
   distinct compilation runs exactly once per batch (the four
   gate-implementation evaluations of one circuit share one compile);
3. **fan-out** — distinct compilations run either serially (the
   deterministic fallback, also used for single jobs) or across a
   ``multiprocessing`` pool.

Every schedule — fresh or cached, local or from a worker — travels as
plain serialised data and is re-evaluated in the parent process, so the
result **records are byte-identical** across the serial, parallel and
warm-cache paths; only the timing side-channel (``compile_time_s``,
``from_cache``) differs.  A run decodes each distinct schedule once and
evaluates every job that shares it from that one decode.

Two service-oriented modes layer on top of the same engine:

* **warm pool** (``BatchCompiler(warm=True)``) — the worker pool is
  created once and survives across :meth:`BatchCompiler.run` calls, so
  small batches amortise the process-spawn cost instead of paying it per
  batch.  ``BatchResult.extra["worker_pids"]`` records which processes
  compiled, making the reuse observable;
* **completion callbacks** (``run(jobs, on_outcome=...)``) — each
  :class:`JobOutcome` is delivered in job order as soon as its
  compilation lands, instead of after the whole batch.  This is what the
  :mod:`repro.service` streaming endpoint consumes.

:meth:`BatchCompiler.run` is **re-entrant**: any number of threads may
call it concurrently on one engine (the service scheduler runs several
batches at once over a single warm pool).  Each call keeps its state in
locals, the shared :class:`ScheduleCache` takes its own lock, the warm
pool accepts task submissions from multiple threads, and per-run cache
statistics are accounted locally instead of as deltas of the shared
counters (which interleave across overlapping runs).  Deduplication
extends across overlapping runs: a run that misses the cache but finds
the same compile fingerprint **in flight** in another run waits for that
compilation and serves it as a cache hit instead of compiling it twice
(falling back to compiling locally if the other run fails or is
cancelled).  The ``on_outcome`` in-job-order guarantee holds per call,
and records stay byte-identical whether runs overlap or not.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.exceptions import ReproError
from repro.noise.evaluator import evaluate_schedule
from repro.runtime.cache import CachedCompilation, CacheStats, ScheduleCache
from repro.runtime.jobs import CompileJob, compile_job
from repro.schedule.schedule import Schedule


def _compile_entry(
    item: "tuple[str, CompileJob]",
) -> "tuple[str, bytes, int]":
    """Worker function: compile one job and return plain data.

    Must stay a module-level function so it pickles under every
    multiprocessing start method.  The entry crosses the process
    boundary in its binary form — the same bytes later written to the
    disk cache — so a pooled compile pays for serialisation exactly
    once.  The compiling process id travels with the result so warm-pool
    reuse is observable from the parent.
    """
    fingerprint, job = item
    result = compile_job(job)
    return fingerprint, CachedCompilation.from_result(result).to_bytes(), os.getpid()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, no re-import) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: Upper bound on waiting for another run's in-flight compilation of the
#: same fingerprint.  Generously above any real compile time — on expiry
#: the waiter assumes the holder died and compiles locally, so a wedged
#: run can never wedge its neighbours.
_INFLIGHT_WAIT_S = 600.0


@dataclass(frozen=True)
class JobOutcome:
    """Result of one job: the deterministic record plus timing metadata.

    ``record`` contains only deterministic fields (schedule counts and
    evaluation metrics) and is identical whichever execution tier served
    the job; wall-clock compile time and cache provenance live alongside
    it.
    """

    job: CompileJob
    fingerprint: str
    compile_fingerprint: str
    record: dict[str, object]
    compile_time_s: float
    from_cache: bool
    pass_timings: tuple[dict[str, object], ...] = ()

    def as_dict(self) -> dict[str, object]:
        """Record plus timing columns, for tables and result files.

        ``pass_timings`` sit with the wall-clock side channel, not the
        deterministic record: like ``compile_time_s`` they replay the
        original compilation's profile on a cache hit and vary between
        serial and parallel runs.
        """
        row = dict(self.record)
        row["compile_time_s"] = self.compile_time_s
        row["from_cache"] = self.from_cache
        row["pass_timings"] = [dict(t) for t in self.pass_timings]
        return row

    def encoded_record(self) -> bytes:
        """The record as canonical JSON bytes (sorted keys), cached.

        Encoded lazily once and memoised on the (frozen) instance, so
        the service can splice the same bytes into every stream that
        replays this outcome without re-serialising the record.
        """
        cached = self.__dict__.get("_encoded_record")
        if cached is None:
            cached = json.dumps(self.record, sort_keys=True).encode("utf-8")
            object.__setattr__(self, "_encoded_record", cached)
        return cached


@dataclass
class BatchResult:
    """Everything one :meth:`BatchCompiler.run` call produced."""

    outcomes: list[JobOutcome]
    cache_stats: CacheStats
    compilations: int
    workers: int
    wall_time_s: float = 0.0
    extra: dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def records(self) -> list[dict[str, object]]:
        """The deterministic records, in job order."""
        return [outcome.record for outcome in self.outcomes]

    def as_dicts(self) -> list[dict[str, object]]:
        """Records with timing columns, in job order (for reporting)."""
        return [outcome.as_dict() for outcome in self.outcomes]

    def summary(self) -> dict[str, object]:
        """One-line batch statistics for logs and CLI footers."""
        return {
            "jobs": len(self.outcomes),
            "compilations": self.compilations,
            "cache_hits": self.cache_stats.hits,
            "cache_misses": self.cache_stats.misses,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
        }


class BatchCompiler:
    """Fan compile jobs out over a worker pool, with schedule caching.

    Parameters
    ----------
    workers:
        Process count for the compilation stage.  ``0``/``1`` (or a
        single distinct compilation) selects the deterministic serial
        path; ``None`` means one worker per CPU.
    cache:
        Schedule cache shared across runs.  When omitted the engine owns
        a private in-memory cache, so repeated ``run`` calls on one
        instance still deduplicate.
    warm:
        Keep one persistent worker pool alive across :meth:`run` calls
        instead of spawning (and tearing down) a pool per batch.  Warm
        engines route every pooled compilation — even a single one —
        through the persistent workers, amortising process spawn on
        small jobs; call :meth:`close` (or use the engine as a context
        manager) to release the workers.
    """

    def __init__(
        self,
        workers: int | None = 1,
        cache: ScheduleCache | None = None,
        warm: bool = False,
    ) -> None:
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 0:
            raise ReproError("workers cannot be negative")
        self.workers = max(workers, 1)
        self.cache = cache if cache is not None else ScheduleCache()
        self.warm = bool(warm)
        self._pool: "multiprocessing.pool.Pool | None" = None
        # Guards warm-pool creation/teardown only; ``run`` itself keeps
        # all batch state in locals and needs no engine-wide lock.
        self._pool_lock = threading.Lock()
        # Compile fingerprints currently being compiled by some run, each
        # mapped to the event its completion sets.  Concurrent runs use
        # this to wait for each other's compilations instead of
        # duplicating them.
        self._inflight: "dict[str, threading.Event]" = {}
        self._inflight_lock = threading.Lock()
        # Optional instruments; bound by bind_metrics (the service does).
        self._m_runs = None
        self._m_jobs = None
        self._m_compilations = None
        self._m_compile_seconds = None
        self._m_dedup = None

    def bind_metrics(self, registry: "Any") -> None:
        """Record engine activity into a :class:`~repro.obs.MetricsRegistry`.

        Creates the ``repro_engine_*`` counters (runs, jobs,
        fresh compilations, compile seconds, deduplications by kind) and
        a workers gauge.  Unbound engines skip all accounting — the
        library batch path stays observability-free unless asked.
        """
        self._m_runs = registry.counter(
            "repro_engine_runs_total", "Completed BatchCompiler.run calls."
        )
        self._m_jobs = registry.counter(
            "repro_engine_jobs_total", "Compile jobs processed across all runs."
        )
        self._m_compilations = registry.counter(
            "repro_engine_compilations_total",
            "Fresh compilations executed (cache misses actually compiled).",
        )
        self._m_compile_seconds = registry.counter(
            "repro_engine_compile_seconds_total",
            "Wall-clock seconds spent inside fresh compilations; divide by "
            "uptime times workers for pool utilisation.",
        )
        self._m_dedup = registry.counter(
            "repro_engine_dedup_total",
            "Compilations avoided by deduplication: 'batch' folds repeats "
            "within one run, 'inflight' waits on another run's compile.",
            ("kind",),
        )
        registry.gauge(
            "repro_engine_workers",
            "Configured worker-process count of the engine.",
            callback=lambda: self.workers,
        )

    def run(
        self,
        jobs: Sequence[CompileJob],
        on_outcome: "Callable[[JobOutcome], None] | None" = None,
    ) -> BatchResult:
        """Execute ``jobs`` and return outcomes in job order.

        ``on_outcome`` is called once per job, in job order, as soon as
        the job's outcome is known — cache hits fire before the first
        compilation finishes, compiled jobs as their schedule lands.  The
        callback runs in the calling thread and sees exactly the outcomes
        the returned :class:`BatchResult` will contain.  An exception
        raised by the callback aborts the run between compilations and
        propagates to the caller (the service scheduler cancels jobs this
        way); outcomes already delivered stay delivered, and compilations
        already cached stay cached.

        Re-entrant: concurrent calls on one engine are safe and share the
        cache and (in warm mode) the worker pool.
        """
        start = time.perf_counter()
        jobs = list(jobs)
        # Per-run statistics are accumulated locally: with several runs
        # in flight, before/after deltas of the shared cache counters
        # would attribute other runs' traffic to this batch.
        run_stats = CacheStats()

        entries: dict[str, CachedCompilation] = {}
        from_cache: dict[str, bool] = {}
        pending: "dict[str, CompileJob]" = {}
        # Fingerprints another run is compiling right now: wait for its
        # event instead of compiling a second copy.  Insertion order is
        # job order, which is the order waits resolve in below.
        awaited: "dict[str, tuple[threading.Event, CompileJob]]" = {}
        claimed: set[str] = set()
        compilations = 0
        batch_dedups = 0
        inflight_dedups = 0
        fresh_seconds = 0.0
        compile_fps = [job.compile_fingerprint() for job in jobs]

        def _record_hit(fingerprint: str, entry: CachedCompilation, tier: str) -> None:
            run_stats.hits += 1
            if tier == "disk":
                run_stats.disk_hits += 1
            elif tier == "network":
                run_stats.network_hits += 1
            entries[fingerprint] = entry
            from_cache[fingerprint] = True

        outcomes: list[JobOutcome] = []
        worker_pids: set[int] = set()
        # Each distinct schedule is decoded once, on its first outcome, and
        # dropped after its last one: the four gate-implementation
        # evaluations of one compilation share a single decode, and no
        # decoded schedule outlives this run.
        decoded: dict[str, Schedule] = {}
        uses_left = Counter(compile_fps)

        def _drain() -> None:
            """Emit every job whose compilation is resolved, in job order."""
            while len(outcomes) < len(jobs):
                fingerprint = compile_fps[len(outcomes)]
                entry = entries.get(fingerprint)
                if entry is None:
                    return
                schedule = decoded.get(fingerprint)
                if schedule is None:
                    schedule = decoded[fingerprint] = entry.schedule()
                uses_left[fingerprint] -= 1
                if not uses_left[fingerprint]:
                    del decoded[fingerprint]
                outcome = self._build_outcome(
                    jobs[len(outcomes)],
                    fingerprint,
                    entry,
                    schedule,
                    from_cache[fingerprint],
                )
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)

        def _store_compiled(fingerprint: str, entry: CachedCompilation) -> None:
            nonlocal fresh_seconds
            fresh_seconds += entry.compile_time_s
            evictions, disk_evictions = self.cache.put(fingerprint, entry)
            run_stats.stores += 1
            run_stats.evictions += evictions
            run_stats.disk_evictions += disk_evictions
            entries[fingerprint] = entry
            from_cache[fingerprint] = False

        try:
            for job, fingerprint in zip(jobs, compile_fps):
                if (
                    fingerprint in entries
                    or fingerprint in pending
                    or fingerprint in awaited
                ):
                    if fingerprint in pending or fingerprint in awaited:
                        batch_dedups += 1
                    continue
                entry, tier = self.cache.lookup(fingerprint)
                if entry is not None:
                    _record_hit(fingerprint, entry, tier)
                    continue
                holder = self._claim_inflight(fingerprint)
                if holder is not None:
                    awaited[fingerprint] = (holder, job)
                    continue
                claimed.add(fingerprint)
                # Re-check after claiming: the holder may have finished
                # (and released) between our cache miss and our claim.
                # peek, not lookup — the miss was already counted above,
                # and this rare-hit probe must not count a second one.
                entry = self.cache.peek(fingerprint)
                if entry is not None:
                    claimed.discard(fingerprint)
                    self._release_inflight(fingerprint)
                    _record_hit(fingerprint, entry, "memory")
                    continue
                run_stats.misses += 1
                pending[fingerprint] = job

            _drain()  # jobs fully served by the cache stream before any compile
            for fingerprint, entry_data, pid in self._iter_compiled(pending):
                entry = CachedCompilation.from_bytes(entry_data)
                _store_compiled(fingerprint, entry)
                compilations += 1
                worker_pids.add(pid)
                # Release before draining: a waiting run may proceed even
                # if our on_outcome callback raises (cancellation).
                claimed.discard(fingerprint)
                self._release_inflight(fingerprint)
                _drain()
            for fingerprint, (event, job) in awaited.items():
                resolved = event.wait(timeout=_INFLIGHT_WAIT_S)
                entry, tier = self.cache.lookup(fingerprint) if resolved else (None, None)
                if entry is not None:
                    inflight_dedups += 1
                    _record_hit(fingerprint, entry, tier)
                else:
                    # The other run failed, was cancelled before this
                    # compilation, or is pathologically slow: compile it
                    # ourselves rather than lose the batch.
                    run_stats.misses += 1
                    _, entry_data, pid = _compile_entry((fingerprint, job))
                    _store_compiled(fingerprint, CachedCompilation.from_bytes(entry_data))
                    compilations += 1
                    worker_pids.add(pid)
                _drain()
        finally:
            # Claims this run never compiled (its callback raised, or a
            # worker died): wake the waiters so they self-serve.
            for fingerprint in claimed:
                self._release_inflight(fingerprint)

        if self._m_runs is not None:
            self._m_runs.inc()
            self._m_jobs.inc(len(jobs))
            self._m_compilations.inc(compilations)
            self._m_compile_seconds.inc(fresh_seconds)
            if batch_dedups:
                self._m_dedup.labels(kind="batch").inc(batch_dedups)
            if inflight_dedups:
                self._m_dedup.labels(kind="inflight").inc(inflight_dedups)
        return BatchResult(
            outcomes=outcomes,
            cache_stats=run_stats,
            compilations=compilations,
            workers=self.workers,
            wall_time_s=time.perf_counter() - start,
            extra={"worker_pids": sorted(worker_pids)},
        )

    def close(self) -> None:
        """Release the persistent warm pool (no-op for cold engines).

        Thread-safe and idempotent.  Callers owning concurrent batches
        (the service) must drain them first — terminating the pool under
        a live ``run`` kills its in-flight compilations.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "BatchCompiler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _claim_inflight(self, fingerprint: str) -> "threading.Event | None":
        """Claim a fingerprint for compilation by this run.

        Returns ``None`` when the claim succeeded (this run compiles it
        and must eventually :meth:`_release_inflight` it), or the holding
        run's completion event to wait on.
        """
        with self._inflight_lock:
            event = self._inflight.get(fingerprint)
            if event is not None:
                return event
            self._inflight[fingerprint] = threading.Event()
            return None

    def _release_inflight(self, fingerprint: str) -> None:
        """Drop a claim and wake every run waiting on it (idempotent)."""
        with self._inflight_lock:
            event = self._inflight.pop(fingerprint, None)
        if event is not None:
            event.set()

    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        """The persistent warm pool, created on first use (thread-safe)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = _pool_context().Pool(processes=self.workers)
            return self._pool

    def _split_items(
        self, items: "list[tuple[str, CompileJob]]"
    ) -> "tuple[list[tuple[str, CompileJob]], list[tuple[str, CompileJob]]]":
        """Partition items into (pooled, compile-in-this-process).

        Spawned workers re-import the package and therefore only see the
        built-in compilers; a warm pool additionally snapshots the parent
        at creation time, so even under ``fork`` a compiler registered
        after the pool started would be missing.  In both situations jobs
        using runtime-registered backends compile in this process, where
        the registration happened.
        """
        if not self.warm and _pool_context().get_start_method() == "fork":
            return items, []
        from repro.registry import compiler_spec

        pooled = [item for item in items if compiler_spec(item[1].compiler).builtin]
        local = [item for item in items if not compiler_spec(item[1].compiler).builtin]
        return pooled, local

    def _iter_compiled(
        self, pending: "dict[str, CompileJob]"
    ) -> "Iterator[tuple[str, bytes, int]]":
        """Compile pending items, yielding each as soon as it completes."""
        items = list(pending.items())
        if not items:
            return
        if not self.warm and (self.workers <= 1 or len(items) == 1):
            for item in items:
                yield _compile_entry(item)
            return
        pooled, local = self._split_items(items)
        if not pooled:
            for item in local:
                yield _compile_entry(item)
            return
        if self.warm:
            results = self._ensure_pool().imap_unordered(_compile_entry, pooled)
            for item in local:
                yield _compile_entry(item)
            yield from results
        else:
            with _pool_context().Pool(processes=min(self.workers, len(pooled))) as pool:
                results = pool.imap_unordered(_compile_entry, pooled)
                for item in local:
                    yield _compile_entry(item)
                yield from results

    @staticmethod
    def _build_outcome(
        job: CompileJob,
        compile_fingerprint: str,
        entry: CachedCompilation,
        schedule: Schedule,
        cached: bool,
    ) -> JobOutcome:
        """Evaluate ``entry``'s decoded ``schedule`` under ``job``'s settings."""
        implementation = job.resolved_gate_implementation()
        evaluation = evaluate_schedule(
            schedule, gate_implementation=implementation, heating=job.heating
        )
        # The circuit label comes from the job, not the cached schedule: the
        # circuit *name* is not part of the compile fingerprint (identical
        # gate lists dedup regardless of name), so a cache hit may carry
        # another job's circuit_name.  The device name needs no such care —
        # it is hashed via device_to_dict.
        circuit_name = (
            job.circuit.lower() if isinstance(job.circuit, str) else job.circuit.name
        )
        record: dict[str, object] = {
            "label": job.label,
            "parameter": job.parameter,
            "value": job.value,
            "circuit": circuit_name,
            "device": schedule.device.name,
            "compiler": entry.compiler_name,
            "mapping": entry.mapping_name,
            "gate_implementation": implementation.value,
            "shuttles": schedule.shuttle_count,
            "swaps": schedule.swap_count,
            "two_qubit_gates": schedule.two_qubit_gate_count,
            "success_rate": evaluation.success_rate,
            "log_success_rate": evaluation.log_success_rate,
            "execution_time_us": evaluation.execution_time_us,
        }
        # Scheduler statistics are deterministic counters, so they belong
        # in the record proper (byte-identical across serial/parallel/
        # cached paths); wall-clock pass timings stay a side channel.
        record.update(entry.statistics)
        return JobOutcome(
            job=job,
            fingerprint=job.fingerprint(),
            compile_fingerprint=compile_fingerprint,
            record=record,
            compile_time_s=entry.compile_time_s,
            from_cache=cached,
            pass_timings=entry.pass_timings,
        )
