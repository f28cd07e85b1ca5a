"""A fleet front door: one router process, N shared-nothing workers.

``repro serve --fleet N`` (or :func:`make_fleet`) runs the compilation
service as a small process fleet instead of one process:

* the **router** owns the public HTTP surface.  It parses each submitted
  manifest just far enough to compute its deterministic job id
  (:func:`~repro.service.jobs.job_batch_id` — pure fingerprint hashing,
  no compilation) and forwards the request to the worker that owns the
  id's shard: ``int(job_id, 16) % N``.  Routing is consistent, so a
  byte-identical resubmission lands on the worker that already holds the
  job — idempotency keeps working fleet-wide without shared state.
* each **worker** is a full single-process service
  (:class:`~repro.service.app.CompilationService` behind its own
  ephemeral-port HTTP server) in its own OS process, with its own engine
  pool, journal, result store and cache directory under
  ``<cache_dir>/worker-<i>``.  Workers share nothing with each other.
* the workers' schedule caches are **tiered onto the router**: the
  router serves ``GET/PUT /v1/cache/<fingerprint>`` from a shared
  :class:`~repro.runtime.cache.ScheduleCache` (under
  ``<cache_dir>/shared``), so a circuit compiled by worker 2 is a
  network-tier hit for worker 5 — cross-worker cache sharing with zero
  recompilation, speaking the same binary entry format as local disk.

Failure handling is bounded and explicit.  A health thread watches every
worker process and respawns dead ones (same shard, same directories — a
respawned worker replays its journal and resubmits whatever was running
when it died).  While a shard is down, submissions walk to the next
alive worker; result fetches for jobs the fleet has already acknowledged
fail over the same way, re-submitting the memoized manifest body and
resuming the stream at the first line the client has not yet seen.
Compilation is deterministic and the schedule cache is shared, so a
failover replay streams the same bytes the dead worker would have sent.

Aggregated read endpoints: ``GET /v1/jobs`` merges every worker's job
table (newest-last, one consistent pagination), ``GET /v1/healthz``
reports per-worker liveness plus fleet totals, ``GET /v1/metrics`` sums
every worker's Prometheus exposition sample-by-sample and appends the
router's own ``repro_fleet_*`` families, and ``GET /v1/fleet`` describes
the topology.  Everything is standard library, like the rest of the
service stack.
"""

from __future__ import annotations

import http.client
import json
import logging
import multiprocessing
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ManifestError, ReproError, ServiceError
from repro.obs.metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    Counter,
    Gauge,
    MetricsRegistry,
    ParsedMetric,
    Sample,
    parse_exposition,
    render_families,
)
from repro.runtime.cache import CachedCompilation, ScheduleCache
from repro.runtime.manifest import jobs_from_manifest, manifest_document_from_text
from repro.service.client import ServiceClient
from repro.service.jobs import job_batch_id
from repro.service.server import ServiceRequestHandler, _route_template

logger = logging.getLogger("repro.service.fleet")

#: Subdirectory of the fleet cache directory holding the shared tier.
SHARED_CACHE_DIRNAME = "shared"

#: Manifest bodies memoized for failover, newest-kept (per router).
MAX_ROUTED_MEMO = 4096

#: Seconds a spawned worker gets to report its listening port.
WORKER_READY_TIMEOUT = 120.0


def _fleet_worker_main(
    index: int,
    host: str,
    cache_tier_url: str,
    conn: Any,
    service_kwargs: dict,
) -> None:
    """Entry point of one worker process (spawned, so module-level).

    Builds a complete single-process service on an ephemeral port,
    reports the port back through ``conn``, then serves until the router
    terminates it.  SIGTERM triggers the same graceful drain an operator
    Ctrl-C would.
    """
    import signal

    from repro.service.server import make_server

    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server = make_server(
            host=host, port=0, cache_tier=cache_tier_url, **service_kwargs
        )
    except Exception as exc:  # noqa: BLE001 - reported to the router
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", server.server_address[1]))
    conn.close()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        try:
            server.server_close()
            server.service.close()
        except Exception:  # noqa: BLE001 - dying anyway
            logger.debug("worker %d shutdown error", index, exc_info=True)


class FleetWorker:
    """The router's record of one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: "multiprocessing.process.BaseProcess | None" = None
        self.port: "int | None" = None
        self.client: "ServiceClient | None" = None
        self.restarts = 0
        self.jobs_routed = 0

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.is_alive()
            and self.client is not None
        )

    @property
    def url(self) -> "str | None":
        return self.client.base_url if self.client is not None else None

    def describe(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "url": self.url,
            "alive": self.alive,
            "pid": self.process.pid if self.process is not None else None,
            "restarts": self.restarts,
            "jobs_routed": self.jobs_routed,
        }


class FleetRouter:
    """Owns the worker fleet, the shared cache tier and the routing state."""

    def __init__(
        self,
        size: int,
        cache_dir: "Path | str | None" = None,
        worker_host: str = "127.0.0.1",
        health_interval: float = 0.5,
        ready_timeout: float = WORKER_READY_TIMEOUT,
        max_cache_entries: int = 256,
        **service_kwargs: Any,
    ) -> None:
        if size < 1:
            raise ReproError("a fleet needs at least one worker")
        self.size = size
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.worker_host = worker_host
        self.health_interval = health_interval
        self.ready_timeout = ready_timeout
        self.service_kwargs = dict(service_kwargs)
        shared_dir = (
            self.cache_dir / SHARED_CACHE_DIRNAME
            if self.cache_dir is not None
            else None
        )
        #: The shared schedule cache behind GET/PUT /v1/cache on the router.
        self.cache = ScheduleCache(
            max_entries=max_cache_entries, directory=shared_dir
        )
        self.workers = [FleetWorker(index) for index in range(size)]
        self.started_at = time.monotonic()
        self._mp = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._overrides: dict[str, int] = {}  # job_id -> off-shard worker
        self._bodies: "dict[str, tuple[bytes, int]]" = {}  # job_id -> manifest
        self._closing = threading.Event()
        self._health_thread: "threading.Thread | None" = None
        self.registry = MetricsRegistry()
        self.http_requests = self.registry.counter(
            "repro_fleet_http_requests_total",
            "HTTP requests served by the fleet router, by route and status.",
            ("method", "route", "status"),
        )
        self.routed = self.registry.counter(
            "repro_fleet_jobs_routed_total",
            "Job submissions forwarded to each worker shard.",
            ("worker",),
        )
        self.failovers = self.registry.counter(
            "repro_fleet_failovers_total",
            "Submissions or result fetches re-routed off a dead shard.",
        )
        self.respawns = self.registry.counter(
            "repro_fleet_respawns_total",
            "Worker processes restarted by the router's health loop.",
        )
        self.registry.register_collector(self._collect)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and start the health loop (idempotent)."""
        if self._health_thread is not None:
            return
        for worker in self.workers:
            self._spawn(worker)
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-fleet-health", daemon=True
        )
        self._health_thread.start()

    def close(self, join_timeout: float = 15.0) -> None:
        """Stop the health loop and terminate every worker."""
        self._closing.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=join_timeout)
            self._health_thread = None
        for worker in self.workers:
            if worker.client is not None:
                worker.client.close()
            process = worker.process
            if process is not None and process.is_alive():
                process.terminate()
        for worker in self.workers:
            process = worker.process
            if process is not None:
                process.join(timeout=join_timeout)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=join_timeout)

    def _worker_cache_dir(self, index: int) -> "Path | None":
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"worker-{index}"

    def _spawn(self, worker: FleetWorker) -> bool:
        """Start (or restart) one worker process; ``True`` when it's up."""
        kwargs = dict(self.service_kwargs)
        cache_dir = self._worker_cache_dir(worker.index)
        if cache_dir is not None:
            kwargs["cache_dir"] = cache_dir
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_fleet_worker_main,
            args=(
                worker.index,
                self.worker_host,
                self.url,
                child_conn,
                kwargs,
            ),
            name=f"repro-fleet-worker-{worker.index}",
            # Not a daemon: warm workers run their own engine process
            # pool, and daemonic processes may not have children.
            # close() terminates them explicitly instead.
            daemon=False,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.port = None
        if worker.client is not None:
            worker.client.close()
            worker.client = None
        try:
            if not parent_conn.poll(self.ready_timeout):
                raise ReproError(
                    f"fleet worker {worker.index} did not report ready "
                    f"within {self.ready_timeout}s"
                )
            kind, value = parent_conn.recv()
        except (EOFError, OSError) as exc:
            logger.error("fleet worker %d died during startup: %s", worker.index, exc)
            return False
        finally:
            parent_conn.close()
        if kind != "ready":
            logger.error("fleet worker %d failed to start: %s", worker.index, value)
            return False
        worker.port = int(value)
        worker.client = ServiceClient(
            f"http://{self.worker_host}:{worker.port}", timeout=300.0
        )
        return True

    def _health_loop(self) -> None:
        while not self._closing.wait(self.health_interval):
            for worker in self.workers:
                process = worker.process
                if process is None or process.is_alive():
                    continue
                if self._closing.is_set():
                    return
                logger.warning(
                    "fleet worker %d (pid %s) died; respawning",
                    worker.index,
                    process.pid,
                )
                worker.restarts += 1
                self.respawns.inc()
                self._spawn(worker)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Set by :class:`FleetServer` once the router socket is bound."""
        return self._url

    @url.setter
    def url(self, value: str) -> None:
        self._url = value

    def shard_of(self, job_id: str) -> int:
        return int(job_id, 16) % self.size

    def _alive_from(self, start: int, exclude: "int | None" = None) -> Iterator[FleetWorker]:
        for offset in range(self.size):
            worker = self.workers[(start + offset) % self.size]
            if worker.index == exclude:
                continue
            if worker.alive:
                yield worker

    def assigned_worker(self, job_id: str) -> "FleetWorker | None":
        """The worker currently responsible for ``job_id`` (if alive)."""
        with self._lock:
            index = self._overrides.get(job_id, self.shard_of(job_id))
        worker = self.workers[index]
        return worker if worker.alive else None

    def _remember(
        self, job_id: str, worker: FleetWorker, body: bytes, priority: int
    ) -> None:
        with self._lock:
            if worker.index != self.shard_of(job_id):
                self._overrides[job_id] = worker.index
            else:
                self._overrides.pop(job_id, None)
            self._bodies[job_id] = (body, priority)
            while len(self._bodies) > MAX_ROUTED_MEMO:
                dropped = next(iter(self._bodies))
                del self._bodies[dropped]
                self._overrides.pop(dropped, None)

    def submit(self, body: bytes, priority: int = 0) -> dict[str, Any]:
        """Route one manifest submission to its shard (with failover).

        Raises :class:`~repro.exceptions.ManifestError` for bodies the
        fleet cannot even derive a job id from, and the worker's own
        :class:`ServiceError` when the shard rejects the submission.
        """
        document = manifest_document_from_text(body)
        job_id = job_batch_id(jobs_from_manifest(document))
        shard = self.shard_of(job_id)
        last_error: "ServiceError | None" = None
        for worker in self._alive_from(shard):
            try:
                receipt = worker.client.submit(body, priority=priority)
            except ServiceError as exc:
                if exc.status:
                    raise  # the worker answered; that answer stands
                last_error = exc  # transport failure: walk to the next shard
                self.failovers.inc()
                continue
            if worker.index != shard:
                self.failovers.inc()
            worker.jobs_routed += 1
            self.routed.labels(worker=str(worker.index)).inc()
            self._remember(job_id, worker, body, priority)
            return receipt
        raise last_error or ServiceError("no alive fleet workers", status=503)

    def _resubmit_elsewhere(
        self, job_id: str, exclude: "int | None" = None
    ) -> bool:
        """Failover: replay the memoized manifest on another shard."""
        with self._lock:
            memo = self._bodies.get(job_id)
        if memo is None:
            return False
        body, priority = memo
        for worker in self._alive_from(self.shard_of(job_id), exclude=exclude):
            try:
                worker.client.submit(body, priority=priority)
            except ServiceError as exc:
                if exc.status:
                    raise
                continue
            worker.jobs_routed += 1
            self.routed.labels(worker=str(worker.index)).inc()
            self.failovers.inc()
            self._remember(job_id, worker, body, priority)
            return True
        return False

    def stream_results(
        self, job_id: str, timeout: "float | None" = None
    ) -> Iterator[bytes]:
        """Yield raw result lines for ``job_id``, failing over on death.

        The stream resumes on the failover shard at the first line the
        caller has not yet received: compilation is deterministic and the
        schedule cache is shared, so the replayed stream is byte-identical
        to the one the dead worker was sending.  Raises :class:`KeyError`
        when no worker knows the job and no manifest memo exists.
        """
        path = f"/v1/jobs/{job_id}/results"
        if timeout is not None:
            path += f"?timeout={timeout}"
        skip = 0
        for _attempt in range(2 * self.size + 2):
            worker = self.assigned_worker(job_id)
            if worker is None:
                # Shard down and no override yet: replay onto another
                # shard before giving up.
                if not self._resubmit_elsewhere(job_id):
                    raise KeyError(job_id)
                continue
            try:
                response = worker.client._open("GET", path)
            except ServiceError as exc:
                if exc.status == 404:
                    # A respawned (or failover) worker that never saw the
                    # job: replay the memoized manifest onto it.
                    if not self._resubmit_elsewhere(job_id):
                        raise KeyError(job_id) from exc
                    continue
                if exc.status:
                    raise
                if not self._resubmit_elsewhere(job_id, exclude=worker.index):
                    raise
                continue
            index = 0
            try:
                with response:
                    for raw in response:
                        line = raw.rstrip(b"\n")
                        if not line:
                            continue
                        if index >= skip:
                            yield line
                        index += 1
            except (OSError, http.client.HTTPException) as exc:
                # The worker died mid-stream.  Resume where the client
                # stopped hearing from us, on whichever shard takes over.
                skip = index
                self.failovers.inc()
                logger.warning(
                    "results stream for %s broke on worker %d (%s); failing over",
                    job_id,
                    worker.index,
                    exc,
                )
                if not self._resubmit_elsewhere(job_id, exclude=worker.index):
                    raise
                continue
            return
        raise ServiceError(f"results for {job_id} kept failing over", status=503)

    def proxy_job(self, job_id: str) -> dict[str, Any]:
        """Status lookup, walking shards when the assignment is stale."""
        return self._proxy(job_id, lambda client: client.job(job_id))

    def proxy_cancel(self, job_id: str) -> dict[str, Any]:
        return self._proxy(job_id, lambda client: client.cancel(job_id))

    def _proxy(self, job_id: str, call: Any) -> dict[str, Any]:
        worker = self.assigned_worker(job_id)
        tried: set[int] = set()
        last: "ServiceError | None" = None
        candidates = ([worker] if worker is not None else []) + list(
            self._alive_from(self.shard_of(job_id))
        )
        for candidate in candidates:
            if candidate.index in tried:
                continue
            tried.add(candidate.index)
            try:
                return call(candidate.client)
            except ServiceError as exc:
                last = exc
                if exc.status == 404:
                    continue  # maybe another shard owns it (router restarted)
                raise
        if last is not None:
            raise last
        raise ServiceError("no alive fleet workers", status=503)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def jobs_payload(
        self, offset: int = 0, limit: "int | None" = None
    ) -> dict[str, Any]:
        """Every worker's job table merged into one consistent listing."""
        merged: list[dict[str, Any]] = []
        for worker in self._alive_from(0):
            try:
                merged.extend(worker.client.jobs_page()["jobs"])
            except ServiceError:
                continue
        merged.sort(key=lambda job: (job.get("created_at") or 0, job["job_id"]))
        window = merged[offset:]
        if limit is not None:
            window = window[:limit]
        return {
            "jobs": window,
            "total": len(merged),
            "offset": offset,
            "count": len(window),
        }

    def health_payload(self) -> dict[str, Any]:
        from repro import __version__

        workers = [worker.describe() for worker in self.workers]
        alive = sum(1 for entry in workers if entry["alive"])
        return {
            "status": "ok" if alive == self.size else "degraded",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self.started_at,
            "fleet": {
                "size": self.size,
                "alive": alive,
                "workers": workers,
            },
            "cache": self.cache.stats.as_dict(),
        }

    def fleet_payload(self) -> dict[str, Any]:
        with self._lock:
            overrides = dict(self._overrides)
            memoized = len(self._bodies)
        return {
            "size": self.size,
            "workers": [worker.describe() for worker in self.workers],
            "shared_cache": self.cache.stats.as_dict(),
            "overrides": overrides,
            "memoized_jobs": memoized,
        }

    def metrics_text(self) -> str:
        """Fleet-wide exposition: worker samples summed, router appended.

        Same-name samples with identical label sets are added across
        workers, so counters become fleet totals and gauges fleet sums
        (``repro_scheduler_slots`` is the fleet's total slot count, and
        ``repro_service_info`` sums to the number of alive workers on
        that version — a liveness signal in its own right).
        """
        # name -> (the first worker's family, for kind and help; samples)
        merged: "dict[str, tuple[ParsedMetric, dict[tuple, Sample]]]" = {}
        for worker in self.workers:
            if not worker.alive:
                continue
            try:
                text = worker.client.metrics()
            except ServiceError:
                continue
            for name, family in parse_exposition(text).items():
                _, index = merged.setdefault(name, (family, {}))
                for sample in family.samples:
                    key = (sample.name, sample.labels)
                    seen = index.get(key)
                    index[key] = sample if seen is None else Sample(
                        sample.name, sample.labels, seen.value + sample.value
                    )
        worker_text = render_families(
            (name, family.kind, family.help, index.values())
            for name, (family, index) in merged.items()
        )
        return worker_text + self.registry.render()

    def _collect(self) -> list:
        workers = Gauge(
            "repro_fleet_workers",
            "Fleet worker processes, by liveness.",
            ("state",),
        )
        alive = sum(1 for worker in self.workers if worker.alive)
        workers.labels(state="alive").set(alive)
        workers.labels(state="configured").set(self.size)
        restarts = Counter(
            "repro_fleet_worker_restarts_total",
            "Total worker restarts across the fleet's lifetime.",
        )
        restarts.inc(sum(worker.restarts for worker in self.workers))
        return [workers, restarts]

    # ------------------------------------------------------------------
    # shared cache tier (server side)
    # ------------------------------------------------------------------
    def cache_entry_bytes(self, fingerprint: str) -> "bytes | None":
        entry = self.cache.peek(fingerprint)
        if entry is None:
            return None
        return entry.to_bytes()

    def cache_store_bytes(self, fingerprint: str, payload: bytes) -> bool:
        try:
            entry = CachedCompilation.from_bytes(payload)
        except Exception:  # noqa: BLE001 - any refusal is "not an entry"
            return False
        self.cache.put(fingerprint, entry, propagate=False)
        return True


class FleetRequestHandler(ServiceRequestHandler):
    """The router's HTTP surface: same wire protocol, fleet semantics.

    Inherits the keep-alive discipline, JSON encoding and error envelope
    from :class:`ServiceRequestHandler`; every route is reimplemented in
    terms of the :class:`FleetRouter` instead of a local service.
    """

    server_version = "repro-fleet"

    @property
    def router(self) -> FleetRouter:
        return self.server.router  # type: ignore[attr-defined]

    def _record_request(self, method: str, path: str, seconds: float) -> None:
        try:
            route = _route_template(path)
            if route == "other" and path == "/v1/fleet":
                route = "/v1/fleet"
            self.router.http_requests.labels(
                method=method, route=route, status=str(self._metrics_status)
            ).inc()
        except Exception:  # noqa: BLE001 - metrics must never break serving
            logger.debug("failed to record router metrics", exc_info=True)

    def _route(self, method: str, path: str, query: dict[str, list[str]]) -> None:
        from repro.service.server import _CACHE_ENTRY, _JOB_RESULTS, _JOB_STATUS

        if path == "/v1/jobs":
            if method == "POST":
                return self._handle_submit(query)
            if method == "GET":
                return self._handle_list(query)
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _JOB_STATUS.match(path)
        if match:
            if method == "GET":
                return self._proxy_call(
                    lambda: self.router.proxy_job(match.group("job_id"))
                )
            if method == "DELETE":
                return self._proxy_call(
                    lambda: self.router.proxy_cancel(match.group("job_id"))
                )
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _CACHE_ENTRY.match(path)
        if match:
            if method == "GET":
                return self._handle_cache_get(match.group("fingerprint"))
            if method == "PUT":
                return self._handle_cache_put(match.group("fingerprint"))
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        if method != "GET":
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _JOB_RESULTS.match(path)
        if match:
            return self._handle_results(match.group("job_id"), query)
        if path == "/v1/compilers":
            return self._proxy_call(
                lambda: {"compilers": self._any_worker().compilers()}
            )
        if path.startswith("/v1/schedules/"):
            fingerprint = path.rsplit("/", 1)[1]
            return self._proxy_call(lambda: self._any_worker().schedule(fingerprint))
        if path == "/v1/healthz":
            return self._send_json(200, self.router.health_payload())
        if path == "/v1/fleet":
            return self._send_json(200, self.router.fleet_payload())
        if path == "/v1/metrics":
            return self._handle_metrics()
        return self._send_error_json(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _any_worker(self) -> ServiceClient:
        for worker in self.router._alive_from(0):
            return worker.client
        raise ServiceError("no alive fleet workers", status=503)

    def _proxy_call(self, call: Any) -> None:
        try:
            payload = call()
        except ServiceError as exc:
            return self._send_worker_error(exc)
        self._send_json(200, payload)

    def _send_worker_error(self, exc: ServiceError) -> None:
        status = exc.status or 502
        if isinstance(exc.payload, dict) and "error" in exc.payload:
            return self._send_json(status, exc.payload)
        self._send_error_json(status, "upstream_error", str(exc))

    def _handle_submit(self, query: dict[str, list[str]]) -> None:
        try:
            priority = self._int_query(query, "priority", 0)
        except ValueError:
            return self._reject(400, "bad_query", "priority must be an integer")
        body = self._read_body("POST /v1/jobs", "manifest bodies")
        if body is None:
            return
        try:
            receipt = self.router.submit(body, priority=priority or 0)
        except ManifestError as exc:
            return self._send_error_json(400, "manifest_error", str(exc))
        except ServiceError as exc:
            return self._send_worker_error(exc)
        self._send_json(200 if receipt.get("resubmitted") else 202, receipt)

    def _handle_list(self, query: dict[str, list[str]]) -> None:
        try:
            offset = self._int_query(query, "offset", 0)
            limit = self._int_query(query, "limit", None)
        except ValueError:
            return self._send_error_json(
                400, "bad_query", "offset/limit must be non-negative integers"
            )
        self._send_json(200, self.router.jobs_payload(offset=offset, limit=limit))

    def _handle_metrics(self) -> None:
        body = self.router.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle_cache_get(self, fingerprint: str) -> None:
        payload = self.router.cache_entry_bytes(fingerprint)
        if payload is None:
            return self._send_error_json(
                404, "unknown_fingerprint", f"no cache entry for {fingerprint!r}"
            )
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _handle_cache_put(self, fingerprint: str) -> None:
        body = self._read_body("PUT /v1/cache", "cache entries")
        if body is None:
            return
        if not self.router.cache_store_bytes(fingerprint, body):
            return self._send_error_json(
                400, "bad_entry", "body is not a current-format binary cache entry"
            )
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _handle_results(self, job_id: str, query: dict[str, list[str]]) -> None:
        timeout: "float | None" = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"][0])
            except ValueError:
                return self._send_error_json(
                    400, "bad_query", "timeout must be a number of seconds"
                )
        lines = self.router.stream_results(job_id, timeout=timeout)
        try:
            first = next(lines)
        except KeyError:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        except StopIteration:
            first = None
        except ServiceError as exc:
            return self._send_worker_error(exc)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

        def write(line: bytes) -> None:
            data = line + b"\n"
            self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))
            self.wfile.flush()

        try:
            if first is not None:
                write(first)
                for line in lines:
                    write(line)
            self.wfile.write(b"0\r\n\r\n")
        except (ServiceError, OSError, http.client.HTTPException):
            # Upstream kept failing (or the client went away) mid-stream;
            # terminating the chunked body early is the remaining signal.
            self.close_connection = True


class FleetServer(ThreadingHTTPServer):
    """The router's HTTP server; owns the :class:`FleetRouter`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: "tuple[str, int]", router: FleetRouter) -> None:
        super().__init__(address, FleetRequestHandler)
        self.router = router
        router.url = self.url

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Terminate the fleet (the server itself is shut down by callers)."""
        self.router.close()


def make_fleet(
    host: str = "127.0.0.1",
    port: int = 8000,
    size: int = 2,
    cache_dir: "Path | str | None" = None,
    health_interval: float = 0.5,
    **service_kwargs: Any,
) -> FleetServer:
    """Build a bound, fully-spawned fleet: router socket plus workers.

    The router binds first (workers need its URL for their cache tier),
    then every worker process is spawned and health-checked.  Returns
    the :class:`FleetServer`; callers run ``serve_forever`` themselves
    (tests run it on a thread) and must call ``close()`` afterwards.
    ``service_kwargs`` are forwarded to every worker's
    :class:`~repro.service.app.CompilationService` (``workers`` — engine
    processes per fleet worker — ``slots``, ``warm``, ...).
    """
    router = FleetRouter(
        size=size,
        cache_dir=cache_dir,
        worker_host=host,
        health_interval=health_interval,
        **service_kwargs,
    )
    server = FleetServer((host, port), router)
    try:
        router.start()
    except Exception:
        router.close()
        server.server_close()
        raise
    return server

