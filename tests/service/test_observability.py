"""Service observability tests: /v1/metrics, healthz extras, the client.

Covers the wiring the obs unit tests cannot: the endpoint serves valid
Prometheus text with the right content type, HTTP traffic lands in the
per-route counters (including error statuses), scheduler/cache/journal
families are all present, and the health payload carries uptime and
journal size.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.exceptions import ServiceError
from repro.obs import MetricsRegistry, parse_exposition
from repro.service import CompilationService, ServiceClient, make_server

SMOKE_MANIFEST = Path(__file__).resolve().parents[2] / "examples" / "manifests" / "smoke.json"

#: Metric families the service contract promises on /v1/metrics.
EXPECTED_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds",
    "repro_service_uptime_seconds",
    "repro_service_info",
    "repro_service_jobs",
    "repro_scheduler_slots",
    "repro_scheduler_queued_jobs",
    "repro_scheduler_jobs_total",
    "repro_scheduler_queue_latency_seconds",
    "repro_scheduler_slot_busy_seconds_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_entries",
    "repro_engine_runs_total",
    "repro_engine_compilations_total",
    "repro_engine_workers",
    "repro_journal_events_total",
    "repro_journal_file_bytes",
    "repro_cache_stores_total",
    "repro_cache_network_errors_total",
    "repro_result_store_events_total",
    "repro_result_store_bytes_written_total",
    "repro_result_store_entries",
    "repro_result_store_disk_bytes",
)


@pytest.fixture(scope="module")
def service_stack(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("obs-service-cache")
    server = make_server(workers=2, port=0, cache_dir=cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=120.0)
    # One completed job so every instrument has seen traffic.
    client.results(client.submit_file(SMOKE_MANIFEST)["job_id"])
    yield server, client
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)


class TestMetricsEndpoint:
    def test_serves_prometheus_content_type(self, service_stack):
        server, _ = service_stack
        with urllib.request.urlopen(f"{server.url}/v1/metrics") as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert body.endswith("\n")

    def test_exposition_is_valid_and_covers_the_contract(self, service_stack):
        _, client = service_stack
        parsed = parse_exposition(client.metrics())  # raises on malformed text
        for family in EXPECTED_FAMILIES:
            assert family in parsed, f"missing metric family {family}"
        version_sample = parsed["repro_service_info"].samples[0]
        from repro import __version__

        assert version_sample.labels_dict() == {"version": __version__}
        assert parsed["repro_scheduler_slots"].value() == 2

    def test_http_counters_track_traffic_and_status_codes(self, service_stack):
        _, client = service_stack
        before = parse_exposition(client.metrics())

        client.health()
        with pytest.raises(ServiceError):
            client.job("0" * 16)  # unknown id -> 404

        after = parse_exposition(client.metrics())
        healthz = after["repro_http_requests_total"].value(
            method="GET", route="/v1/healthz", status="200"
        )
        try:
            healthz_before = before["repro_http_requests_total"].value(
                method="GET", route="/v1/healthz", status="200"
            )
        except KeyError:
            healthz_before = 0
        assert healthz == healthz_before + 1
        missing = after["repro_http_requests_total"].value(
            method="GET", route="/v1/jobs/{id}", status="404"
        )
        assert missing >= 1
        # The latency histogram counts the same requests.
        assert after["repro_http_request_seconds"].value(
            method="GET", route="/v1/healthz", le="+Inf"
        ) >= healthz

    def test_latency_histograms_use_tuned_buckets(self, service_stack):
        # The bucket edges are tuned from measured service latencies,
        # which all fell in a 3-66 ms band (see SERVICE_LATENCY_BUCKETS),
        # so the HTTP histogram must resolve it finer than the default
        # 10/25/50 ms edges.
        from repro.obs import QUEUE_LATENCY_BUCKETS, SERVICE_LATENCY_BUCKETS

        _, client = service_stack
        parsed = parse_exposition(client.metrics())

        def edges(family):
            return sorted(
                {
                    float(sample.labels_dict()["le"])
                    for sample in parsed[family].samples
                    if sample.name.endswith("_bucket")
                    and sample.labels_dict()["le"] != "+Inf"
                }
            )

        assert edges("repro_http_request_seconds") == list(
            SERVICE_LATENCY_BUCKETS
        )
        assert edges("repro_scheduler_queue_latency_seconds") == list(
            QUEUE_LATENCY_BUCKETS
        )
        # The tuned band really is finer where the traffic lives: at
        # least eight edges below 100 ms (the defaults have six).
        assert sum(1 for edge in SERVICE_LATENCY_BUCKETS if edge < 0.1) >= 8

    def test_job_census_counts_the_completed_job(self, service_stack):
        _, client = service_stack
        parsed = parse_exposition(client.metrics())
        assert parsed["repro_service_jobs"].value(status="done") >= 1
        assert parsed["repro_scheduler_jobs_total"].value(transition="done") >= 1

    def test_journal_metrics_reflect_appended_events(self, service_stack):
        server, client = service_stack
        parsed = parse_exposition(client.metrics())
        journal = server.service.journal
        assert journal is not None
        # submitted + running + done for at least one job.
        assert parsed["repro_journal_events_total"].value() >= 3
        assert parsed["repro_journal_file_bytes"].value() == journal.size_bytes()

    def test_counters_reconcile_with_concurrent_traffic(self, service_stack):
        # The fixture is shared across the module, so every count is a
        # delta against one scrape taken before the traffic.
        _, client = service_stack
        requests = 8

        def counts():
            parsed = parse_exposition(client.metrics())
            routes = [
                (s.labels_dict()["method"], s.labels_dict()["route"], s.value)
                for s in parsed["repro_http_requests_total"].samples
            ]
            return [
                sum(v for m, r, v in routes if (m, r) == ("POST", "/v1/jobs")),
                sum(v for m, r, v in routes if (m, r) == ("GET", "/v1/jobs/{id}/results")),
                parsed["repro_scheduler_jobs_total"].value(transition="done"),
                parsed["repro_http_request_seconds"].value(
                    method="POST", route="/v1/jobs", le="+Inf"
                ),
            ]

        def submit_and_drain(index):
            manifest = {
                "jobs": [{"circuit": "qft_4", "device": "G-2x2", "label": f"reconcile-{index}"}]
            }
            return list(client.stream_results(client.submit(manifest)["job_id"]))[-1]

        before = counts()
        with ThreadPoolExecutor(max_workers=3) as pool:
            ends = list(pool.map(submit_and_drain, range(requests)))
        assert [end["status"] for end in ends] == ["done"] * requests

        # A request is counted after its response body is flushed, so the
        # client can read the last byte before the handler thread books
        # it: poll briefly rather than scrape once.
        deadline = time.monotonic() + 10.0
        while True:
            deltas = [after - first for after, first in zip(counts(), before)]
            if min(deltas) >= requests or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert deltas == [requests] * 4

    def test_uptime_counts_upward(self, service_stack):
        _, client = service_stack
        first = parse_exposition(client.metrics())["repro_service_uptime_seconds"].value()
        second = parse_exposition(client.metrics())["repro_service_uptime_seconds"].value()
        assert 0 < first <= second


class TestHealthExtras:
    def test_healthz_reports_uptime_and_journal_size(self, service_stack):
        _, client = service_stack
        health = client.health()
        assert health["uptime_seconds"] > 0
        journal = health["journal"]
        assert journal["size_bytes"] > 0
        assert journal["events_appended"] >= 3
        assert Path(journal["path"]).exists()

    def test_journal_is_null_when_disabled(self):
        service = CompilationService(workers=1)  # no cache_dir: nothing on disk
        try:
            health = service.health_payload()
            assert health["journal"] is None and health["results"] is None
            assert health["uptime_seconds"] >= 0
        finally:
            service.close()


class TestEmbeddingRegistry:
    def test_external_registry_receives_service_metrics(self, tmp_path):
        registry = MetricsRegistry()
        own = registry.counter("app_events_total", "The embedder's own counter.")
        own.inc(5)
        service = CompilationService(
            workers=1, cache_dir=tmp_path, metrics_registry=registry
        )
        try:
            rendered = service.metrics_text()
            assert "app_events_total 5" in rendered
            assert "repro_service_uptime_seconds" in rendered
            assert service.metrics.registry is registry
        finally:
            service.close()

    def test_client_metrics_returns_raw_text(self, service_stack):
        _, client = service_stack
        text = client.metrics()
        assert isinstance(text, str)
        assert text.startswith("# HELP")
