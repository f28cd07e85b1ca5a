"""High-level entry points of the batch runtime.

:func:`run_batch` executes any job list and returns the full
:class:`~repro.runtime.pool.BatchResult`; :func:`run_sweep` is the
sweep-shaped convenience used by :mod:`repro.analysis.sweeps`, returning
flat row dictionaries (record + compile time) in job order.

Schedules move through this layer on the binary artifact path: worker
processes return compiled entries as cache-format-v4 byte blobs, the
:class:`ScheduleCache` stores those same bytes on disk
(``<fingerprint>.sched``), and decoding is lazy — callers that only
read records or statistics never materialise operation objects.  See
``docs/architecture.md`` (cache format v4) for the wire layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

from repro.runtime.cache import ScheduleCache
from repro.runtime.jobs import CompileJob
from repro.runtime.pool import BatchCompiler, BatchResult, JobOutcome


def _resolve_cache(
    cache: ScheduleCache | None,
    cache_dir: "Path | str | None",
    max_cache_entries: int,
) -> ScheduleCache | None:
    if cache is not None:
        return cache
    if cache_dir is not None:
        return ScheduleCache(max_entries=max_cache_entries, directory=cache_dir)
    return None


def run_batch(
    jobs: Sequence[CompileJob],
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
    cache_dir: "Path | str | None" = None,
    max_cache_entries: int = 256,
    on_outcome: "Callable[[JobOutcome], None] | None" = None,
    engine: BatchCompiler | None = None,
) -> BatchResult:
    """Compile and evaluate every job, parallelising distinct compilations.

    Parameters
    ----------
    jobs:
        The work items, in the order results should come back.
    workers:
        Worker-process count (``0``/``1`` = deterministic serial path,
        ``None`` = one per CPU).
    cache:
        An existing :class:`ScheduleCache` to reuse across calls.
    cache_dir:
        Shorthand for a disk-backed cache at this directory (ignored when
        ``cache`` is given).
    on_outcome:
        Called once per job, in job order, as soon as the job's outcome
        is known (streamed result delivery; see
        :meth:`BatchCompiler.run`).
    engine:
        An existing :class:`BatchCompiler` to run on instead of building
        a throwaway one; ``workers``/``cache``/``cache_dir`` are then
        ignored and the engine is **not** closed afterwards.  This is how
        long-lived callers (the service scheduler, REPL sessions holding
        ``BatchCompiler(warm=True)``) route one-off batches through their
        shared warm pool — :meth:`BatchCompiler.run` is re-entrant, so
        such calls may overlap freely.
    """
    if engine is not None:
        return engine.run(jobs, on_outcome=on_outcome)
    engine = BatchCompiler(
        workers=workers, cache=_resolve_cache(cache, cache_dir, max_cache_entries)
    )
    with engine:
        return engine.run(jobs, on_outcome=on_outcome)


def run_sweep(
    jobs: Sequence[CompileJob],
    workers: int | None = 1,
    cache: ScheduleCache | None = None,
    cache_dir: "Path | str | None" = None,
) -> list[dict[str, object]]:
    """Run sweep jobs and return flat rows (record + timing) in job order."""
    return run_batch(jobs, workers=workers, cache=cache, cache_dir=cache_dir).as_dicts()
