"""Content-addressed cache of compiled schedules.

Compilation dominates the cost of every sweep and comparison pipeline,
and the same (circuit, device, config) point recurs constantly — across
the gate-implementation sweep, across repeated benchmark runs, across
CLI invocations.  :class:`ScheduleCache` memoises compilations keyed by
the job's compile fingerprint (:meth:`CompileJob.compile_fingerprint`):
an in-memory LRU serves the hot set, and an optional on-disk store (one
``<fingerprint>.sched`` file per fingerprint) makes hits survive process
restarts.  The on-disk store keeps every entry it is given; only the
in-memory tier evicts.

Entries store plain data (the binary-encoded schedule, via
:mod:`repro.schedule.serialize`), never live objects, so a cached result
replays identically to a fresh compilation no matter which process
produced it.  The on-disk **format v4** entry is a small binary
envelope: a magic + version header, a varint-framed JSON metadata
header (compiler/mapping names, compile time, statistics, pass timings
— no sidecar file), then the columnar schedule blob (binary schedule
version 2).  A ``.sched`` entry of any other format version is a plain
miss: the job recompiles and the new entry overwrites the file.  Files
of the v2 era (one JSON document per fingerprint) are not read at all,
so they are misses too.

The cache is **thread-safe**: an internal lock guards the LRU table and
the counters, so any number of concurrently running batches (the service
scheduler runs several at once over one shared cache) can look up, store
and evict without torn LRU state or corrupted counters.  Disk I/O —
entry reads and the atomic write — deliberately happens *outside* the
lock, so one slot faulting an entry in from disk never stalls another
slot's in-memory hits.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.exceptions import ReproError
from repro.schedule.schedule import Schedule
from repro.schedule.serialize import (
    read_varint,
    schedule_from_bytes,
    schedule_to_bytes,
    schedule_to_dict,
    write_varint,
)

#: Format marker of on-disk cache entries.  Version 2 added the scheduler
#: statistics and per-pass timings alongside the schedule; version 3
#: switched the on-disk representation from one JSON document per entry
#: to the binary ``.sched`` envelope; version 4 carries binary schedule
#: version 2 (fixed-width gate operand columns).  Only the current
#: version is read; any other is a cache miss.
CACHE_FORMAT_VERSION = 4

#: Magic prefix of a binary ``.sched`` cache entry.
ENTRY_MAGIC = b"RCEN"


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (or a snapshot of them)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    network_hits: int = 0
    network_misses: int = 0
    network_stores: int = 0
    network_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat dictionary for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "network_hits": self.network_hits,
            "network_misses": self.network_misses,
            "network_stores": self.network_stores,
            "network_errors": self.network_errors,
        }

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(**self.as_dict())


@dataclass(frozen=True)
class CachedCompilation:
    """One cached compilation: compile metadata plus the encoded schedule.

    The schedule travels as its **binary blob** (the columnar encoding
    from :func:`repro.schedule.serialize.schedule_to_bytes`), not as a
    live object or a JSON tree: the blob moves between worker processes
    and onto disk without any re-serialisation, and :meth:`schedule`
    decodes it lazily only when somebody actually needs the operation
    log.  ``statistics`` (the deterministic scheduler counters) and
    ``pass_timings`` (the pipeline's per-pass profile) travel with the
    schedule, so a cache hit replays the original compilation's full
    provenance — not just its operation log.
    """

    compiler_name: str
    mapping_name: str
    compile_time_s: float
    schedule_blob: bytes
    statistics: dict[str, int] = field(default_factory=dict)
    pass_timings: tuple[dict[str, Any], ...] = ()

    def schedule(self) -> Schedule:
        """Decode the live schedule object from the stored blob."""
        return schedule_from_bytes(self.schedule_blob)

    def to_bytes(self) -> bytes:
        """The binary ``.sched`` entry: header envelope + schedule blob.

        Layout: ``ENTRY_MAGIC``, one version byte, a varint-framed JSON
        metadata header (sorted keys, so identical entries encode to
        identical bytes), then the schedule blob verbatim to the end of
        the buffer.
        """
        meta = json.dumps(
            {
                "compiler_name": self.compiler_name,
                "mapping_name": self.mapping_name,
                "compile_time_s": self.compile_time_s,
                "statistics": dict(self.statistics),
                "pass_timings": [dict(t) for t in self.pass_timings],
            },
            sort_keys=True,
        ).encode("utf-8")
        out = bytearray(ENTRY_MAGIC)
        out.append(CACHE_FORMAT_VERSION)
        write_varint(out, len(meta))
        out += meta
        out += self.schedule_blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CachedCompilation":
        """Parse a binary entry written by :meth:`to_bytes`."""
        if data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
            raise ReproError("not a binary cache entry (bad magic)")
        if len(data) < len(ENTRY_MAGIC) + 1:
            raise ReproError("truncated binary cache entry")
        version = data[len(ENTRY_MAGIC)]
        if version != CACHE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported cache entry format version {version} "
                f"(this library writes version {CACHE_FORMAT_VERSION})"
            )
        meta_len, pos = read_varint(data, len(ENTRY_MAGIC) + 1)
        if pos + meta_len > len(data):
            raise ReproError("truncated binary cache entry")
        try:
            meta = json.loads(data[pos : pos + meta_len])
        except json.JSONDecodeError as exc:
            raise ReproError(f"corrupt binary cache entry header: {exc}") from exc
        blob = data[pos + meta_len :]
        try:
            return cls(
                compiler_name=meta["compiler_name"],
                mapping_name=meta["mapping_name"],
                compile_time_s=meta["compile_time_s"],
                schedule_blob=blob,
                statistics=dict(meta.get("statistics", {})),
                pass_timings=tuple(dict(t) for t in meta.get("pass_timings", ())),
            )
        except KeyError as exc:
            raise ReproError(f"cache entry is missing the {exc.args[0]!r} field") from exc

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (for JSON observers such as ``/v1/schedules``).

        Decodes the blob — use :meth:`to_bytes` on hot paths.
        """
        return {
            "format_version": CACHE_FORMAT_VERSION,
            "compiler_name": self.compiler_name,
            "mapping_name": self.mapping_name,
            "compile_time_s": self.compile_time_s,
            "schedule": schedule_to_dict(self.schedule()),
            "statistics": dict(self.statistics),
            "pass_timings": [dict(t) for t in self.pass_timings],
        }

    @classmethod
    def from_result(cls, result: "Any") -> "CachedCompilation":
        """Build an entry from a :class:`~repro.core.result.CompilationResult`."""
        return cls(
            compiler_name=result.compiler_name,
            mapping_name=result.mapping_name,
            compile_time_s=result.compile_time_s,
            schedule_blob=schedule_to_bytes(result.schedule),
            statistics=result.statistics_dict(),
            pass_timings=tuple(t.as_dict() for t in result.pass_timings),
        )


class ScheduleCache:
    """LRU cache of :class:`CachedCompilation` entries, optionally on disk.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory LRU tier.
    directory:
        When given, every stored entry is also written to
        ``<directory>/<fingerprint>.sched`` and memory misses fall back
        to disk (promoting hits back into memory).  An entry file of
        another format version is a miss.
    tiers:
        Optional remote tiers (:class:`~repro.runtime.cache_tier.CacheTier`
        instances, e.g. a fleet's shared network cache) consulted after a
        disk miss, in order.  A tier hit is promoted into memory *and*
        disk, so the next lookup is local; every local store is
        propagated to each tier best-effort.  Tiers are expected never to
        raise — an unreachable tier is a miss, not an error, so a dead
        network cache degrades the fleet to per-node caching instead of
        failing requests.
    """

    def __init__(
        self,
        max_entries: int = 256,
        directory: "Path | str | None" = None,
        tiers: "Sequence[Any]" = (),
    ) -> None:
        if max_entries < 1:
            raise ReproError("a schedule cache needs room for at least one entry")
        self.max_entries = max_entries
        self.tiers = tuple(tiers)
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, CachedCompilation]" = OrderedDict()
        self.stats = CacheStats()
        # One re-entrant lock guards the LRU table and the counters.
        # Re-entrant because ``get`` promotes disk entries through
        # ``_insert`` while already holding it.
        self._lock = threading.RLock()
        # Bytes serialised to disk, keyed by codec ("binary" for .sched
        # writes, the only codec; the label leaves room for others).
        # Guarded by the lock; exposed by the scrape-time collector when
        # metrics are bound.
        self._serialize_bytes: dict[str, int] = {}
        # Live decode-latency histogram, attached by bind_metrics().
        self._decode_histogram: "Any | None" = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _entry_paths(self) -> "list[Path]":
        """Every ``.sched`` entry file on disk."""
        assert self.directory is not None
        return list(self.directory.glob("*.sched"))

    def disk_bytes(self) -> int:
        """Total size of the on-disk entry files (0 without a disk tier)."""
        if self.directory is None:
            return 0
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - removed while listing
                continue
        return total

    def disk_entries(self) -> int:
        """How many entry files the on-disk tier currently holds."""
        if self.directory is None:
            return 0
        return len(self._entry_paths())

    def bind_metrics(self, registry: "Any") -> None:
        """Expose this cache through a :class:`~repro.obs.MetricsRegistry`.

        Registers a scrape-time collector mirroring :attr:`stats` (the
        counters stay the single source of truth — the hot paths gain no
        extra bookkeeping) plus gauges for the in-memory entry count and
        the disk tier's entry files and bytes.  Also attaches a live
        ``repro_cache_decode_seconds`` histogram that disk-entry decodes
        observe from then on.
        """
        registry.register_collector(self._collect_metrics)
        self._decode_histogram = registry.histogram(
            "repro_cache_decode_seconds",
            "Wall time spent decoding one on-disk cache entry.",
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25),
        )

    def _collect_metrics(self) -> "list[Any]":
        from repro.obs.metrics import Counter, Gauge

        with self._lock:
            stats = self.stats.snapshot()
            entries = len(self._entries)
            serialize_bytes = dict(self._serialize_bytes)
        hits = Counter(
            "repro_cache_hits_total",
            "Schedule-cache hits, by serving tier.",
            ("tier",),
        )
        hits.labels(tier="memory").inc(stats.hits - stats.disk_hits - stats.network_hits)
        hits.labels(tier="disk").inc(stats.disk_hits)
        hits.labels(tier="network").inc(stats.network_hits)
        misses = Counter(
            "repro_cache_misses_total",
            "Schedule-cache misses: tier=local is a lookup that missed every "
            "tier; tier=network is one remote-tier consultation that missed.",
            ("tier",),
        )
        misses.labels(tier="local").inc(stats.misses)
        misses.labels(tier="network").inc(stats.network_misses)
        stores = Counter(
            "repro_cache_stores_total",
            "Compilations stored into the schedule cache, by tier.",
            ("tier",),
        )
        stores.labels(tier="local").inc(stats.stores)
        stores.labels(tier="network").inc(stats.network_stores)
        network_errors = Counter(
            "repro_cache_network_errors_total",
            "Remote cache-tier operations that failed or returned corrupt "
            "entries (always served locally instead — never an error).",
        )
        network_errors.inc(stats.network_errors)
        evictions = Counter(
            "repro_cache_evictions_total",
            "Schedule-cache entries evicted, by tier.",
            ("tier",),
        )
        evictions.labels(tier="memory").inc(stats.evictions)
        serialized = Counter(
            "repro_serialize_bytes_total",
            "Bytes of cache entries serialised to disk, by codec.",
            ("codec",),
        )
        for codec, count in sorted(serialize_bytes.items()):
            serialized.labels(codec=codec).inc(count)
        memory_entries = Gauge(
            "repro_cache_entries", "Entries currently in the in-memory LRU tier."
        )
        memory_entries.set(entries)
        disk_files = Gauge(
            "repro_cache_disk_entries", "Entry files currently in the on-disk tier."
        )
        disk_files.set(self.disk_entries())
        disk_size = Gauge(
            "repro_cache_disk_bytes", "Bytes used by the on-disk cache tier."
        )
        disk_size.set(self.disk_bytes())
        return [
            hits,
            misses,
            stores,
            network_errors,
            evictions,
            serialized,
            memory_entries,
            disk_files,
            disk_size,
        ]

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
        return self._disk_path_if_present(fingerprint) is not None

    def lookup(self, fingerprint: str) -> "tuple[CachedCompilation | None, str | None]":
        """Like :meth:`get`, but also reports where the entry came from.

        Returns ``(entry, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"``, ``"network"`` (a remote tier served it) or ``None``
        (a miss everywhere).  Concurrent batches use the tier to account
        run-local hit statistics without reading the shared counters,
        whose deltas interleave across overlapping runs.

        Disk reads (and remote-tier fetches) happen **outside** the lock
        — a slot faulting an entry in must not stall another slot's
        in-memory hits behind its I/O.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                return entry, "memory"
        path = self._disk_path_if_present(fingerprint)
        if path is not None:
            entry = self._read_disk_entry(path)
            if entry is not None:
                with self._lock:
                    self._insert(fingerprint, entry)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                return entry, "disk"
        entry = self._tier_fetch(fingerprint)
        if entry is not None:
            with self._lock:
                self._insert(fingerprint, entry)
                self.stats.hits += 1
                self.stats.network_hits += 1
            if self.directory is not None:
                # Promote into the disk tier so restarts see the entry
                # as a local citizen.
                self._write_entry_file(self._disk_path(fingerprint), entry)
            return entry, "network"
        with self._lock:
            self.stats.misses += 1
        return None, None

    def _tier_fetch(self, fingerprint: str) -> CachedCompilation | None:
        """First remote tier that serves ``fingerprint``; ``None`` on miss.

        A payload that fails to parse as a current-format binary entry —
        a corrupt blob, a foreign format, version skew — counts as a
        ``network_errors`` miss rather than raising: a bad shared-cache
        byte must never poison a local compilation.
        """
        for tier in self.tiers:
            payload = tier.load(fingerprint)
            if payload is None:
                with self._lock:
                    self.stats.network_misses += 1
                continue
            try:
                entry = CachedCompilation.from_bytes(payload)
            except (ReproError, IndexError, ValueError, TypeError):
                with self._lock:
                    self.stats.network_errors += 1
                continue
            return entry
        return None

    def get(self, fingerprint: str) -> CachedCompilation | None:
        """Look up a compilation; ``None`` on a miss (counted in stats)."""
        return self.lookup(fingerprint)[0]

    def peek(self, fingerprint: str) -> CachedCompilation | None:
        """Look up a compilation without touching stats or LRU recency.

        Read-only observers (the service's cached-schedule endpoint, CLI
        inspection) use this so they neither skew the hit/miss counters
        batch runs report as deltas nor promote entries over the working
        set.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                return entry
        path = self._disk_path_if_present(fingerprint)
        if path is not None:
            return self._read_disk_entry(path)
        return None

    def put(
        self, fingerprint: str, entry: CachedCompilation, propagate: bool = True
    ) -> int:
        """Store a compilation under ``fingerprint`` (memory and disk).

        Returns how many in-memory entries this store evicted, so a
        concurrently running batch can attribute the displacement it
        triggered to its own run-local statistics.  As with lookups, the
        disk write runs outside the lock.

        With ``propagate=True`` (the default) the encoded entry is also
        offered to every remote tier, best-effort.  The server side of a
        network tier stores inbound ``PUT`` bodies with
        ``propagate=False`` so a fleet of mutually-tiered caches cannot
        echo entries back and forth.
        """
        with self._lock:
            evictions_before = self.stats.evictions
            self._insert(fingerprint, entry)
            self.stats.stores += 1
            evictions = self.stats.evictions - evictions_before
        payload: bytes | None = None
        if self.directory is not None:
            payload = self._write_entry_file(self._disk_path(fingerprint), entry)
        if propagate and self.tiers:
            if payload is None:  # memory-only cache: encode once for the tiers
                payload = entry.to_bytes()
            for tier in self.tiers:
                if tier.store(fingerprint, payload):
                    with self._lock:
                        self.stats.network_stores += 1
                else:
                    with self._lock:
                        self.stats.network_errors += 1
        return evictions

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory tier (and the disk tier when ``disk=True``)."""
        with self._lock:
            self._entries.clear()
            if disk and self.directory is not None:
                for path in self._entry_paths():
                    path.unlink()
                for path in self.directory.glob("*.tmp"):
                    path.unlink()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _insert(self, fingerprint: str, entry: CachedCompilation) -> None:
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, fingerprint: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fingerprint}.sched"

    def _disk_path_if_present(self, fingerprint: str) -> Path | None:
        """The ``.sched`` file serving ``fingerprint``, if there is one."""
        if self.directory is None:
            return None
        path = self._disk_path(fingerprint)
        return path if path.exists() else None

    def _write_entry_file(self, path: Path, entry: CachedCompilation) -> bytes:
        """Atomically write ``entry`` in the binary format at ``path``.

        Unique temp name per writer: concurrent processes sharing a cache
        directory must not interleave writes before the atomic replace.
        Returns the encoded payload so callers (tier propagation) reuse
        the bytes instead of re-serialising.
        """
        payload = entry.to_bytes()
        tmp = path.with_suffix(f".{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_bytes(payload)
        tmp.replace(path)
        with self._lock:
            self._serialize_bytes["binary"] = (
                self._serialize_bytes.get("binary", 0) + len(payload)
            )
        return payload

    def _read_disk_entry(self, path: Path) -> CachedCompilation | None:
        """Decode one ``.sched`` entry file; ``None`` skips it.

        An entry written by an older (or newer) library version is a
        cache miss, not an error: the caller recompiles and overwrites it
        with the current format.  Truncated or undecodable files raise —
        they signal corruption, not version skew.
        """
        started = time.perf_counter()
        raw = path.read_bytes()
        if len(raw) > len(ENTRY_MAGIC) and raw[: len(ENTRY_MAGIC)] == ENTRY_MAGIC:
            if raw[len(ENTRY_MAGIC)] != CACHE_FORMAT_VERSION:
                return None
        try:
            entry = CachedCompilation.from_bytes(raw)
        except ReproError as exc:
            raise ReproError(f"corrupt cache entry {path}: {exc}") from exc
        histogram = self._decode_histogram
        if histogram is not None:
            histogram.observe(time.perf_counter() - started)
        return entry
