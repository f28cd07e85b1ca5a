"""Async compilation service: an HTTP front-end over the batch runtime.

The service turns the library into something a user can submit work to
without importing Python: POST a job manifest, get a fingerprint-derived
job id back, stream each result as its compilation lands.  Six modules
split the responsibilities:

* :mod:`repro.service.jobs` — submission bookkeeping:
  :class:`ServiceJob` life cycle (queued/running/done/failed/cancelled),
  the thread-safe outcome buffer streams read from, cooperative
  cancellation, and deterministic job ids derived from
  :meth:`CompileJob.fingerprint`;
* :mod:`repro.service.scheduler` — :class:`ServiceScheduler`, the
  multi-slot scheduler running several submitted batches concurrently
  over the shared warm engine (priority order, FIFO within priority,
  cancellation between compilations, graceful drain on shutdown);
* :mod:`repro.service.journal` — :class:`JobJournal`, the JSON-lines
  journal under the cache directory that makes the job table durable:
  finished jobs survive restarts, interrupted ones are resubmitted from
  their journaled manifests (or marked failed), and the file is
  compacted after every replay (:func:`compact_journal`);
* :mod:`repro.service.app` — :class:`CompilationService`, the
  transport-independent core wiring engine + store + scheduler +
  journal together;
* :mod:`repro.service.server` — the stdlib ``http.server`` front-end:
  ``/v1/jobs`` (submit/list/status/cancel), the chunked JSON-lines
  ``/v1/jobs/<id>/results`` stream, ``/v1/schedules/<fingerprint>``,
  ``/v1/compilers``, ``/v1/healthz`` and the Prometheus-format
  ``/v1/metrics`` (see :mod:`repro.obs`), with structured 4xx errors
  for everything :class:`~repro.exceptions.ManifestError` covers;
* :mod:`repro.service.client` — :class:`ServiceClient`, the pooled
  keep-alive stdlib client used by tests, examples, CI and the
  ``repro submit`` / ``repro results`` / ``repro jobs`` CLI commands;
* :mod:`repro.service.results` — :class:`ResultStore`, the
  content-addressed durable result store: finished jobs' streamed bytes
  survive restarts and replay byte-identically with zero recompilation;
* :mod:`repro.service.fleet` — :class:`FleetRouter` /
  :func:`make_fleet`, the multi-process front door: submissions shard
  onto N worker processes by job-fingerprint hash, schedule caches tier
  onto the router's shared cache, and dead workers are respawned with
  failover in between (``repro serve --fleet N``).

Start one from the CLI (``python -m repro serve --port 8000``; the
``--fleet N`` flag starts a fleet), which owns the serve loop: it serves
until Ctrl-C, turns a fleet router's SIGTERM into the same shutdown, and
drains and closes the service.  In-process, build the server and drive
``serve_forever`` yourself::

    from repro.service import CompilationService, ServiceClient, make_server
    import threading

    server = make_server(workers=2, port=0)          # ephemeral port
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(server.url)
    receipt = client.submit({"jobs": [{"circuit": "qft_12", "device": "G-2x2"}]})
    for line in client.stream_results(receipt["job_id"]):
        print(line)

Everything is standard library — no web framework, no new dependencies.
"""

from repro.service.app import CompilationService
from repro.service.client import ServiceClient
from repro.service.fleet import FleetRouter, FleetServer, make_fleet
from repro.service.jobs import JobStore, ServiceJob, job_batch_id
from repro.service.journal import JobJournal, compact_journal, replay_journal
from repro.service.results import ResultStore
from repro.service.scheduler import ServiceScheduler
from repro.service.server import ServiceServer, make_server

__all__ = [
    "CompilationService",
    "FleetRouter",
    "FleetServer",
    "JobJournal",
    "JobStore",
    "ResultStore",
    "ServiceClient",
    "ServiceJob",
    "ServiceScheduler",
    "ServiceServer",
    "compact_journal",
    "job_batch_id",
    "make_fleet",
    "make_server",
    "replay_journal",
]
