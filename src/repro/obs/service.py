"""Service-side metrics wiring: one registry across the whole stack.

:class:`ServiceMetrics` is how :class:`~repro.service.app.CompilationService`
turns the generic instruments of :mod:`repro.obs.metrics` into the
service's observability surface.  It owns the shared
:class:`~repro.obs.metrics.MetricsRegistry`, creates the HTTP-layer
instruments the request handler records into, registers scrape-time
collectors for state that already lives elsewhere (job census, journal
size, uptime, service version), and binds the schedule cache and batch
engine to the same registry.  The scheduler binds itself at
construction, since it exists before this object does.

The full metric-name reference lives in ``docs/observability.md``; the
rendered output of :meth:`ServiceMetrics.render` is what
``GET /v1/metrics`` serves.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

from repro.obs.metrics import (
    SERVICE_LATENCY_BUCKETS,
    Counter,
    Gauge,
    MetricsRegistry,
    _Metric,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports obs)
    from repro.service.app import CompilationService


class ServiceMetrics:
    """The metrics surface of one :class:`CompilationService`.

    Parameters
    ----------
    service:
        The owning service; collectors read its job store, journal and
        start time at scrape time.
    registry:
        An existing registry to expose through (embedding applications
        merge service metrics into their own); a private one is created
        by default.
    """

    def __init__(
        self,
        service: "CompilationService",
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.service = service
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.http_requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method, route template and status code.",
            ("method", "route", "status"),
        )
        self.http_latency = reg.histogram(
            "repro_http_request_seconds",
            "HTTP request latency in seconds, by method and route template.",
            ("method", "route"),
            buckets=SERVICE_LATENCY_BUCKETS,
        )
        reg.gauge(
            "repro_service_uptime_seconds",
            "Seconds since this service instance was created.",
            callback=self._uptime,
        )
        reg.register_collector(self._collect)
        # Tests inject stub engines satisfying only the scheduler's
        # protocol; instrument the real engine stack when present.
        engine = service.engine
        cache = getattr(engine, "cache", None)
        if cache is not None and hasattr(cache, "bind_metrics"):
            cache.bind_metrics(reg)
        if hasattr(engine, "bind_metrics"):
            engine.bind_metrics(reg)
        results = getattr(service, "results", None)
        if results is not None:
            results.bind_metrics(reg)

    # ------------------------------------------------------------------
    # scrape-time state
    # ------------------------------------------------------------------
    def _uptime(self) -> float:
        return time.monotonic() - self.service.started_monotonic

    def _collect(self) -> Iterable[_Metric]:
        # Imported lazily: repro/__init__ re-exports the service package,
        # so a top-level import here would be circular.
        from repro import __version__

        info = Gauge(
            "repro_service_info",
            "Constant 1, carrying the service version as a label.",
            ("version",),
        )
        info.labels(version=__version__).set(1)
        census = Gauge(
            "repro_service_jobs",
            "Jobs currently known to the service, by state.",
            ("status",),
        )
        for status, count in self.service.store.counts().items():
            census.labels(status=status).set(count)
        families: list[_Metric] = [info, census]
        journal = self.service.journal
        if journal is not None:
            events = Counter(
                "repro_journal_events_total",
                "Journal events appended by this service instance.",
            )
            events.inc(journal.events_appended)
            written = Counter(
                "repro_journal_bytes_written_total",
                "Journal bytes written by this service instance.",
            )
            written.inc(journal.bytes_written)
            size = Gauge(
                "repro_journal_file_bytes",
                "Current size of the job journal file on disk.",
            )
            size.set(journal.size_bytes())
            families.extend((events, written, size))
        return families

    def render(self) -> str:
        """The Prometheus text exposition served at ``GET /v1/metrics``."""
        return self.registry.render()
