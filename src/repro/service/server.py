"""The stdlib HTTP front-end over :class:`CompilationService`.

Endpoints (all JSON; see ``docs/service.md`` for schemas and examples):

==========  =================================  =====================================
method      path                               meaning
==========  =================================  =====================================
``POST``    ``/v1/jobs``                       submit a manifest body, get a job id
``GET``     ``/v1/jobs``                       list submitted jobs (paginated)
``GET``     ``/v1/jobs/<id>``                  one job's status
``DELETE``  ``/v1/jobs/<id>``                  cancel a queued/running job
``GET``     ``/v1/jobs/<id>/results``          **stream** results as JSON lines
``GET``     ``/v1/schedules/<fingerprint>``    cached-schedule lookup
``GET``     ``/v1/cache/<fingerprint>``        raw binary cache entry (network tier)
``PUT``     ``/v1/cache/<fingerprint>``        store a binary cache entry
``GET``     ``/v1/compilers``                  the compiler registry listing
``GET``     ``/v1/healthz``                    liveness + scheduler/cache counters
``GET``     ``/v1/metrics``                    Prometheus text-format metrics
==========  =================================  =====================================

``POST /v1/jobs`` takes an optional ``?priority=<int>`` (larger runs
earlier); ``GET /v1/jobs`` takes ``?offset=`` / ``?limit=``.  Cancelling
an already-finished job answers ``409 Conflict`` with the job's terminal
status in the error body.

``GET /v1/metrics`` serves the service's whole observability surface
(scheduler, cache, engine, journal and the HTTP layer itself) in
Prometheus text exposition format — every other endpoint is instrumented
with per-route request counters and latency histograms recorded into the
service's shared :class:`~repro.obs.metrics.MetricsRegistry`.

The results endpoint answers with ``Transfer-Encoding: chunked`` and
media type ``application/x-ndjson``: one JSON object per line, each
flushed as soon as the corresponding compilation lands, so a client
reads the first result while the rest of the batch is still compiling.

Errors are structured — every non-2xx response carries
``{"error": {"type", "message", "status"}}`` — and client-side problems
(malformed JSON, unknown compiler names, bad device specs: everything
:class:`~repro.exceptions.ManifestError` covers) map to 400 rather than
500.

Built entirely on :mod:`http.server` (``ThreadingHTTPServer``); the
service has no dependencies beyond the standard library.
"""

from __future__ import annotations

import json
import logging
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ManifestError, ReproError
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.service.app import CompilationService

logger = logging.getLogger("repro.service")

#: Request bodies larger than this are refused (413) instead of buffered.
MAX_BODY_BYTES = 16 * 1024 * 1024

_JOB_RESULTS = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})/results$")
_JOB_STATUS = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]{16})$")
_SCHEDULE = re.compile(r"^/v1/schedules/(?P<fingerprint>[0-9a-f]{16,64})$")
_CACHE_ENTRY = re.compile(r"^/v1/cache/(?P<fingerprint>[0-9a-f]{16,64})$")


def _route_template(path: str) -> str:
    """Collapse a request path onto its route template for metric labels.

    Raw paths would explode label cardinality (every job id a new
    series), so the HTTP metrics label by template instead; unknown
    paths share one ``other`` bucket for the same reason.
    """
    if path in (
        "/v1/jobs",
        "/v1/compilers",
        "/v1/healthz",
        "/v1/metrics",
    ):
        return path
    if _JOB_RESULTS.match(path):
        return "/v1/jobs/{id}/results"
    if _JOB_STATUS.match(path):
        return "/v1/jobs/{id}"
    if _SCHEDULE.match(path):
        return "/v1/schedules/{fingerprint}"
    if _CACHE_ENTRY.match(path):
        return "/v1/cache/{fingerprint}"
    return "other"


def _encode(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`ServiceServer`'s service."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # Nagle off: on keep-alive connections the small header/chunk writes
    # otherwise collide with delayed ACKs into ~40 ms stalls per response.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> CompilationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Route access logs through :mod:`logging` instead of stderr."""
        logger.debug("%s - %s", self.address_string(), format % args)

    def send_response(self, code: int, message: "str | None" = None) -> None:
        # Remember the status line for the per-request metrics recorded
        # in _dispatch; handlers answer through many paths, the status
        # line is the one thing they all emit.
        self._metrics_status = code
        super().send_response(code, message)

    def _send_json(self, status: int, payload: object) -> None:
        body = _encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Advertise the closure, so a pooling client discards this
            # connection instead of reusing a socket we are about to
            # shut (or one with an unread request body still on it).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, error_type: str, message: str) -> None:
        self._send_json(
            status,
            {"error": {"type": error_type, "message": message, "status": status}},
        )

    def _reject(self, status: int, error_type: str, message: str) -> None:
        """Answer an error before the request body was read.

        On a keep-alive connection the unread body bytes would be parsed
        as the next request line, so the connection closes too.
        """
        self.close_connection = True
        self._send_error_json(status, error_type, message)

    def _read_body(self, request: str, noun: str) -> "bytes | None":
        """The request body, read by its ``Content-Length`` header.

        Returns ``None`` after answering the refusal: 411 without the
        header, 400 when it is not a non-negative integer, 413 past
        :data:`MAX_BODY_BYTES`.  ``request`` (``"POST /v1/jobs"``) and
        ``noun`` (``"manifest bodies"``) name the route and its body in
        the messages.
        """
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            self._reject(411, "length_required", f"{request} needs a Content-Length header")
            return None
        try:
            length = int(length_header)
        except ValueError:
            self._reject(400, "bad_request", f"invalid Content-Length {length_header!r}")
            return None
        if length < 0:
            self._reject(400, "bad_request", "Content-Length cannot be negative")
            return None
        if length > MAX_BODY_BYTES:
            self._reject(
                413, "payload_too_large", f"{noun} are capped at {MAX_BODY_BYTES} bytes"
            )
            return None
        body = self.rfile.read(length)
        self.close_connection = False  # body consumed; keep-alive is safe again
        return body

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT")

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        self._metrics_status = 0  # no status line sent (client vanished)
        started = time.perf_counter()
        # A request body we never read would be parsed as the next
        # request line on a keep-alive connection.  Assume the worst
        # until a handler actually consumes it (those clear the flag),
        # so every other path answers with Connection: close.
        if (self.headers.get("Content-Length") or "0").strip() not in ("0", ""):
            self.close_connection = True
        try:
            self._route(method, url.path, parse_qs(url.query))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True
        except ManifestError as exc:
            self._send_error_json(400, "manifest_error", str(exc))
        except ReproError as exc:
            self._send_error_json(500, "repro_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_error_json(500, "internal_error", str(exc))
        finally:
            self._record_request(method, url.path, time.perf_counter() - started)

    def _record_request(self, method: str, path: str, seconds: float) -> None:
        """Feed the HTTP-layer instruments; never fails the request."""
        try:
            metrics = self.service.metrics
            route = _route_template(path)
            metrics.http_requests.labels(
                method=method, route=route, status=str(self._metrics_status)
            ).inc()
            # Streaming results hold the connection open while results
            # land, so that route's latency measures time-to-last-byte.
            metrics.http_latency.labels(method=method, route=route).observe(seconds)
        except Exception:  # noqa: BLE001 - metrics must never break serving
            logger.debug("failed to record request metrics", exc_info=True)

    def _route(self, method: str, path: str, query: dict[str, list[str]]) -> None:
        if path == "/v1/jobs":
            if method == "POST":
                return self._handle_submit(query)
            if method == "GET":
                return self._handle_list(query)
            return self._send_error_json(405, "method_not_allowed", f"{method} {path}")
        match = _JOB_STATUS.match(path)
        if match:
            if method == "GET":
                return self._handle_status(match.group("job_id"))
            if method == "DELETE":
                return self._handle_cancel(match.group("job_id"))
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
        match = _SCHEDULE.match(path)
        if match:
            return self._handle_schedule(match.group("fingerprint"))
        if path == "/v1/compilers":
            return self._send_json(200, {"compilers": self.service.compilers_payload()})
        if path == "/v1/healthz":
            return self._send_json(200, self.service.health_payload())
        if path == "/v1/metrics":
            return self._handle_metrics()
        return self._send_error_json(404, "not_found", f"no route for {path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _int_query(
        self, query: dict[str, list[str]], key: str, default: "int | None"
    ) -> "int | None":
        """Parse one integer query parameter; raises ``ValueError``."""
        if key not in query:
            return default
        return int(query[key][0])

    def _handle_list(self, query: dict[str, list[str]]) -> None:
        try:
            offset = self._int_query(query, "offset", 0)
            limit = self._int_query(query, "limit", None)
            payload = self.service.jobs_payload(offset=offset, limit=limit)
        except ValueError:
            return self._send_error_json(
                400, "bad_query", "offset/limit must be non-negative integers"
            )
        self._send_json(200, payload)

    def _handle_cancel(self, job_id: str) -> None:
        try:
            job, accepted = self.service.cancel(job_id)
        except KeyError:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        if not accepted:
            # Terminal before the request arrived: nothing to cancel.
            return self._send_error_json(
                409,
                "job_finished",
                f"job {job_id!r} already reached terminal state {job.status!r}",
            )
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "status": job.status,
                "cancel_requested": job.cancel_requested,
            },
        )

    def _handle_submit(self, query: dict[str, list[str]]) -> None:
        try:
            priority = self._int_query(query, "priority", 0)
        except ValueError:
            return self._reject(400, "bad_query", "priority must be an integer")
        body = self._read_body("POST /v1/jobs", "manifest bodies")
        if body is None:
            return
        job, resubmitted = self.service.submit_text(body, priority=priority)
        self._send_json(
            200 if resubmitted else 202,
            {
                "job_id": job.job_id,
                "status": job.status,
                "jobs": len(job.jobs),
                "resubmitted": resubmitted,
                "results_path": f"/v1/jobs/{job.job_id}/results",
            },
        )

    def _handle_metrics(self) -> None:
        body = self.service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle_status(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        self._send_json(200, job.status_payload())

    def _handle_schedule(self, fingerprint: str) -> None:
        payload = self.service.schedule_payload(fingerprint)
        if payload is None:
            return self._send_error_json(
                404,
                "unknown_fingerprint",
                f"no cached schedule under compile fingerprint {fingerprint!r}",
            )
        self._send_json(200, payload)

    def _handle_cache_get(self, fingerprint: str) -> None:
        """Serve one cache entry as raw RCEN bytes (the network-tier GET)."""
        payload = self.service.cache_entry_bytes(fingerprint)
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
        """Accept one RCEN entry body into the local cache (network-tier PUT)."""
        body = self._read_body("PUT /v1/cache", "cache entries")
        if body is None:
            return
        if not self.service.cache_store_bytes(fingerprint, body):
            return self._send_error_json(
                400, "bad_entry", "body is not a current-format binary cache entry"
            )
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _handle_results(self, job_id: str, query: dict[str, list[str]]) -> None:
        timeout: float | None = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"][0])
            except ValueError:
                return self._send_error_json(
                    400, "bad_query", "timeout must be a number of seconds"
                )
        try:
            # The fast path: each line arrives pre-encoded (the service
            # serialised every outcome record exactly once, when it
            # landed), so streaming — and re-streaming — writes cached
            # bytes straight to the wire.
            lines = self.service.stream_encoded(job_id, timeout=timeout)
        except KeyError:
            return self._send_error_json(404, "unknown_job", f"no job {job_id!r}")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            for line in lines:
                data = line + b"\n"
                self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except TimeoutError:
            # Mid-stream, the status line is gone; terminating the chunked
            # body early is the only way left to signal the timeout.
            self.close_connection = True

    # BaseHTTPRequestHandler replies 501 for other verbs on its own.


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`CompilationService`.

    Handler threads are daemons, so a blocked streaming client never
    prevents interpreter exit; ``service`` is shared by every handler.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: "tuple[str, int]", service: CompilationService
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: CompilationService | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    **service_kwargs: object,
) -> ServiceServer:
    """Build a ready-to-serve :class:`ServiceServer`.

    When ``service`` is omitted a fresh :class:`CompilationService` is
    created from ``service_kwargs`` (``workers``, ``cache_dir``, ...).
    ``port=0`` binds an ephemeral port — read it back from
    :attr:`ServiceServer.server_address` (tests do).
    """
    if service is None:
        service = CompilationService(**service_kwargs)  # type: ignore[arg-type]
    service.start()
    return ServiceServer((host, port), service)
