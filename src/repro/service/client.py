"""A thin stdlib client for the compilation service.

:class:`ServiceClient` wraps the HTTP API in Python calls returning the
parsed JSON payloads; :meth:`ServiceClient.stream_results` exposes the
chunked JSON-lines endpoint as a generator, yielding each result object
the moment the service flushes it.  Error responses raise the typed
:class:`~repro.exceptions.ServiceError` with the HTTP status and the
structured error payload attached.

The transport **keeps connections alive**: requests run over a small
pool of persistent :class:`http.client.HTTPConnection` objects instead
of one ``urllib`` socket per call, so a loadgen worker (or a fleet
router proxying thousands of submissions) pays TCP setup once per
connection, not once per request.  A response that is read to the end
returns its connection to the pool; a request that fails on a *reused*
connection is retried once on a fresh socket — the server may simply
have closed an idle keep-alive connection between calls.  The pool is
thread-safe: concurrent threads draw distinct connections.

Used by the test suite, ``examples/service_client.py`` and CI's service
smoke step; applications embedding the service in-process can skip HTTP
entirely and talk to :class:`~repro.service.app.CompilationService`.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import urllib.parse
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.exceptions import ServiceError

#: Idle connections kept per client beyond which extras are closed.
MAX_IDLE_CONNECTIONS = 8

#: Transport failures that mark a pooled connection stale (the server
#: closed its side) rather than the service unreachable.
_STALE_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


def _shared_keys(pairs: "list[tuple[str, Any]]") -> dict[str, Any]:
    """A parsed JSON object whose keys are shared with every other line's.

    Result lines repeat one small key vocabulary; the parser would give
    every line its own copies, so a caller that keeps many records (a
    load generator, a sweep) holds ~0.8 KB less per record this way.
    """
    return {sys.intern(key): value for key, value in pairs}


class _PooledResponse:
    """One HTTP response tied to its pooled connection.

    Mimics the slice of the ``urllib`` response API the client (and its
    callers) use: ``read``, line iteration, ``close`` and the context
    manager.  Closing after the body was fully consumed returns the
    connection to the owner's idle pool; closing early (an abandoned
    stream) discards the connection — the unread body would poison the
    next request on that socket.
    """

    def __init__(
        self,
        owner: "ServiceClient",
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> None:
        self._owner = owner
        self._connection = connection
        self.raw = response
        self.status = response.status
        self.headers = response.headers

    def read(self, amt: "int | None" = None) -> bytes:
        return self.raw.read(amt)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.raw)

    def close(self) -> None:
        connection, self._connection = self._connection, None
        if connection is None:
            return
        if self.raw.isclosed() and not self.raw.will_close:
            self._owner._release(connection)
        else:
            connection.close()

    def __enter__(self) -> "_PooledResponse":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ServiceClient:
    """Talks to one service at ``base_url`` (e.g. ``http://127.0.0.1:8000``)."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("", "http"):
            raise ServiceError(f"the service client speaks plain http, got {base_url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._base_path = parsed.path.rstrip("/")
        self._pool_lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        #: Fresh TCP connections opened (reuse delta shows in loadgen).
        self.connections_opened = 0

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _acquire(self) -> "tuple[http.client.HTTPConnection, bool]":
        """An idle pooled connection, or a fresh one; ``(conn, reused)``."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop(), True
        self.connections_opened += 1
        return (
            http.client.HTTPConnection(self._host, self._port, timeout=self.timeout),
            False,
        )

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            if len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle pooled connection (idempotent)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _open(
        self, method: str, path: str, body: bytes | None = None
    ) -> _PooledResponse:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        last_error: "Exception | None" = None
        for attempt in range(2):
            connection, reused = self._acquire()
            try:
                connection.request(
                    method, self._base_path + path, body=body, headers=headers
                )
                response = connection.getresponse()
            except _STALE_ERRORS as exc:
                connection.close()
                last_error = exc
                if reused:
                    # The server closed this idle keep-alive socket under
                    # us; the request never ran — retry it on a fresh
                    # connection (safe even for POST).
                    continue
                raise ServiceError(
                    f"cannot reach {self.base_url}: {exc}"
                ) from exc
            except OSError as exc:
                connection.close()
                raise ServiceError(
                    f"cannot reach {self.base_url}: "
                    f"{getattr(exc, 'strerror', None) or exc}"
                ) from exc
            if response.status >= 400:
                raw = response.read()  # drains: the connection stays reusable
                if response.will_close:
                    connection.close()
                else:
                    self._release(connection)
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = {}
                error = payload.get("error", {}) if isinstance(payload, dict) else {}
                message = error.get("message") or f"{response.status} {response.reason}"
                raise ServiceError(message, status=response.status, payload=payload)
            return _PooledResponse(self, connection, response)
        raise ServiceError(
            f"cannot reach {self.base_url}: {last_error}"
        ) from last_error  # pragma: no cover - both attempts were stale reuses

    def _json(self, method: str, path: str, body: bytes | None = None) -> Any:
        with self._open(method, path, body) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        manifest: "Mapping | Sequence | str | bytes",
        priority: int | None = None,
    ) -> dict[str, Any]:
        """POST a manifest (dict/list, or raw JSON text) to ``/v1/jobs``.

        ``priority`` orders the job in the scheduler queue (larger runs
        earlier; default 0).  Returns the submission receipt: ``job_id``,
        ``status``, ``resubmitted`` and the results path.
        """
        if isinstance(manifest, bytes):
            body = manifest
        elif isinstance(manifest, str):
            body = manifest.encode("utf-8")
        else:
            body = json.dumps(manifest).encode("utf-8")
        path = "/v1/jobs"
        if priority is not None:
            path += f"?priority={int(priority)}"
        return self._json("POST", path, body)

    def submit_file(
        self, path: "Path | str", priority: int | None = None
    ) -> dict[str, Any]:
        """Submit a JSON manifest file from disk."""
        return self.submit(Path(path).read_bytes(), priority=priority)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /v1/jobs/<id>``: cancel a queued or running job.

        Queued jobs land in ``cancelled`` immediately; running jobs stop
        cooperatively at their next outcome boundary.  Raises
        :class:`ServiceError` with status 409 when the job already
        finished, 404 when the id is unknown.
        """
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def stream_results(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield result lines for a job as the service flushes them.

        Each yielded object is either an ``outcome`` (one per compile
        job, in job order) or the terminal ``end`` object.  ``timeout``
        is forwarded to the server, bounding how long the stream may
        stay open overall.
        """
        path = f"/v1/jobs/{job_id}/results"
        if timeout is not None:
            path += f"?timeout={timeout}"
        with self._open("GET", path) as response:
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line.decode("utf-8"), object_pairs_hook=_shared_keys)

    def results(self, job_id: str, timeout: float | None = None) -> list[dict[str, Any]]:
        """Collect every outcome of a job, blocking until it finishes.

        Raises :class:`ServiceError` when the job failed server-side
        (the error payload carries the failure detail).
        """
        outcomes: list[dict[str, Any]] = []
        for line in self.stream_results(job_id, timeout=timeout):
            if line.get("type") == "outcome":
                outcomes.append(line)
            elif line.get("type") == "end" and line.get("status") == "failed":
                error = line.get("error") or {}
                raise ServiceError(
                    f"job {job_id} failed: {error.get('message', 'unknown error')}",
                    payload=line,
                )
        return outcomes

    def records(self, job_id: str, timeout: float | None = None) -> list[dict[str, Any]]:
        """Just the deterministic result records, in job order."""
        return [outcome["record"] for outcome in self.results(job_id, timeout=timeout)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> dict[str, Any]:
        """One job's status payload (404 raises :class:`ServiceError`)."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(
        self, offset: int = 0, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Status payloads of submitted jobs, oldest first (one page)."""
        return self.jobs_page(offset=offset, limit=limit)["jobs"]

    def jobs_page(
        self, offset: int = 0, limit: int | None = None
    ) -> dict[str, Any]:
        """The full paginated listing: ``jobs``, ``total``, ``offset``,
        ``count`` — for walking a long job table page by page."""
        path = f"/v1/jobs?offset={int(offset)}"
        if limit is not None:
            path += f"&limit={int(limit)}"
        return self._json("GET", path)

    def schedule(self, compile_fingerprint: str) -> dict[str, Any]:
        """The cached compilation stored under a compile fingerprint."""
        return self._json("GET", f"/v1/schedules/{compile_fingerprint}")

    def compilers(self) -> list[dict[str, Any]]:
        """The registry listing (name, aliases, passes, description)."""
        return self._json("GET", "/v1/compilers")["compilers"]

    def health(self) -> dict[str, Any]:
        """The health payload (status, version, job counts, cache stats)."""
        return self._json("GET", "/v1/healthz")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /v1/metrics``.

        Returned as text because that *is* the interchange format; feed
        it to :func:`repro.obs.parse_exposition` for structured access
        (``repro jobs --metrics`` does exactly that).
        """
        with self._open("GET", "/v1/metrics") as response:
            return response.read().decode("utf-8")
