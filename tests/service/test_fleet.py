"""Fleet router tests: sharded routing, shared cache, death and failover.

The fleet contract under test: consistent fingerprint-hash routing (a
resubmission lands on the worker that owns the job), cross-worker
schedule-cache sharing through the router tier (one compilation
fleet-wide per distinct circuit), aggregated read endpoints, and bounded
failover — killing a worker never loses an acknowledged job, and the
replayed result records are byte-identical to the originals.

Workers are real spawned processes, so this file keeps fleets small
(two workers, one engine process each) and reuses one fleet across the
read-only tests.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
import urllib.request

import pytest

from repro.obs import MetricsRegistry, parse_exposition
from repro.service import ServiceClient
from repro.service.fleet import FleetRouter, make_fleet

WAIT = 120.0


def wait_until(predicate, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.05)


def manifest(circuit: str, label: str) -> dict:
    return {"jobs": [{"circuit": circuit, "device": "G-2x2", "label": label}]}


def boot_fleet(cache_dir, size: int = 2, **kwargs):
    server = make_fleet(
        port=0,
        size=size,
        cache_dir=cache_dir,
        workers=1,
        warm=False,
        slots=1,
        **kwargs,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_fleet(server, thread) -> None:
    server.shutdown()
    server.server_close()
    server.close()
    thread.join(timeout=10)


def fetch_json(url: str):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fleet-cache")
    server, thread = boot_fleet(cache_dir)
    client = ServiceClient(server.url, timeout=WAIT)
    yield server, client
    client.close()
    stop_fleet(server, thread)


class TestRoutingAndAggregation:
    def test_submissions_shard_and_resubmissions_stay_put(self, fleet):
        server, client = fleet
        receipts = [
            client.submit(manifest("qft_4", f"shard-{index}")) for index in range(6)
        ]
        for receipt in receipts:
            records = client.records(receipt["job_id"])
            assert len(records) == 1
        # Deterministic routing: every job id maps onto its hash shard.
        fleet_state = fetch_json(f"{server.url}/v1/fleet")
        routed = [worker["jobs_routed"] for worker in fleet_state["workers"]]
        assert sum(routed) >= 6
        # Byte-identical resubmission dedups on the owning worker rather
        # than compiling anywhere else.
        again = client.submit(manifest("qft_4", "shard-0"))
        assert again["resubmitted"]
        assert again["job_id"] == receipts[0]["job_id"]

    def test_jobs_listing_merges_every_worker(self, fleet):
        server, client = fleet
        page = client.jobs_page()
        assert page["total"] >= 6
        assert len(page["jobs"]) == page["count"]
        created = [job["created_at"] for job in page["jobs"]]
        assert created == sorted(created)
        # Pagination windows the merged listing, not one worker's.
        window = client.jobs_page(offset=1, limit=2)
        assert window["count"] == 2
        assert window["jobs"][0]["job_id"] == page["jobs"][1]["job_id"]

    def test_health_reports_fleet_topology(self, fleet):
        _, client = fleet
        health = client.health()
        assert health["status"] == "ok"
        assert health["fleet"]["size"] == 2
        assert health["fleet"]["alive"] == 2
        assert len(health["fleet"]["workers"]) == 2
        assert all(worker["url"] for worker in health["fleet"]["workers"])

    def test_metrics_aggregate_workers_and_add_fleet_families(self, fleet):
        _, client = fleet
        parsed = parse_exposition(client.metrics())  # must stay well-formed
        assert parsed["repro_fleet_workers"].value(state="alive") == 2
        assert parsed["repro_fleet_workers"].value(state="configured") == 2
        # Worker families survive aggregation, summed across the fleet.
        done = parsed["repro_scheduler_jobs_total"].value(transition="done")
        assert done >= 6
        routed = sum(s.value for s in parsed["repro_fleet_jobs_routed_total"].samples)
        assert routed >= 6
        assert "repro_fleet_failovers_total" in parsed
        assert "repro_fleet_respawns_total" in parsed

    def test_cross_worker_cache_sharing_compiles_each_circuit_once(self, fleet):
        server, client = fleet
        # All the distinct-label qft_4 jobs above share one compile
        # fingerprint; the fleet-wide compilation count proves the first
        # worker's schedule reached the others through the router tier.
        parsed = parse_exposition(client.metrics())
        assert parsed["repro_engine_compilations_total"].value() == 1
        fleet_state = fetch_json(f"{server.url}/v1/fleet")
        assert fleet_state["shared_cache"]["stores"] >= 1

    def test_unknown_job_and_bad_manifest_map_to_client_errors(self, fleet):
        server, client = fleet
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.job("0" * 16)
        assert excinfo.value.status == 404
        for body in (
            b"{not json",
            b'{"jobs": 3}',
            b'{"jobs": [{"circuit": "qft_0", "device": "G-2x2"}]}',
            b'{"jobs": [{"circuit": "/srv/ghz.qasm", "device": "G-2x2"}]}',
            b'{"default": {}, "jobs": [{"circuit": "qft_8", "device": "G-2x2"}]}',
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(body)
            assert excinfo.value.status == 400
        # A negative Content-Length is refused before any body is read.
        hostname, port = server.url.removeprefix("http://").rsplit(":", 1)
        for method, path in (("POST", "/v1/jobs"), ("PUT", "/v1/cache/" + "ab" * 32)):
            connection = http.client.HTTPConnection(hostname, int(port), timeout=10)
            try:
                connection.putrequest(method, path)
                connection.putheader("Content-Length", "-1")
                connection.endheaders()
                assert connection.getresponse().status == 400
            finally:
                connection.close()


class _LiveProcess:
    pid = None

    def is_alive(self) -> bool:
        return True


class _MetricsOnlyClient:
    def __init__(self, text: str) -> None:
        self.text = text

    def metrics(self) -> str:
        return self.text


def _odd_registry(value: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter(
        "repro_odd_total", 'Escapes: a \\ backslash\nand a newline.', ("path",)
    )
    counter.labels(path='C:\\say "hi"').inc(value)
    return registry


class TestMetricsMerge:
    def test_escaped_help_and_labels_survive_the_merge(self):
        router = FleetRouter(size=2)  # never started: no worker processes
        for worker, value in zip(router.workers, (1, 2)):
            worker.process = _LiveProcess()
            worker.client = _MetricsOnlyClient(_odd_registry(value).render())
        text = router.metrics_text()
        # Rendered exactly as one registry renders the summed family.
        assert text.startswith(_odd_registry(3).render())
        family = parse_exposition(text)["repro_odd_total"]
        assert family.help == 'Escapes: a \\ backslash\nand a newline.'
        assert family.value(path='C:\\say "hi"') == 3


class TestFailover:
    def test_killed_worker_fails_over_and_respawns(self, tmp_path):
        server, thread = boot_fleet(tmp_path, health_interval=0.2)
        client = ServiceClient(server.url, timeout=WAIT)
        try:
            receipt = client.submit(manifest("bv_5", "survivor"))
            job_id = receipt["job_id"]
            original = client.records(job_id)
            assert len(original) == 1

            router: FleetRouter = server.router
            owner = router.workers[router.shard_of(job_id)]
            victim_pid = owner.process.pid
            os.kill(victim_pid, signal.SIGKILL)

            # The fleet keeps answering while the shard is down: the
            # router replays the memoized manifest on the other worker
            # (or the respawned one) and streams identical records.
            replayed = client.records(job_id)
            assert replayed == original

            # The health loop brings the fleet back to full strength.
            wait_until(
                lambda: client.health()["fleet"]["alive"] == 2, timeout=WAIT
            )
            health = client.health()
            assert health["status"] == "ok"
            restarts = sum(
                worker["restarts"] for worker in health["fleet"]["workers"]
            )
            failures = parse_exposition(client.metrics())
            assert (
                restarts >= 1
                or failures["repro_fleet_failovers_total"].value() >= 1
            )
        finally:
            client.close()
            stop_fleet(server, thread)

    def test_death_before_results_still_serves_the_job(self, tmp_path):
        # Kill the owning worker *immediately* after the submission is
        # acknowledged — before anyone has read a single result line —
        # and slow the health loop so failover (not respawn) must serve.
        server, thread = boot_fleet(tmp_path, health_interval=30.0)
        client = ServiceClient(server.url, timeout=WAIT)
        try:
            receipt = client.submit(manifest("qaoa_5", "mid-flight"))
            job_id = receipt["job_id"]
            router: FleetRouter = server.router
            owner = router.workers[router.shard_of(job_id)]
            os.kill(owner.process.pid, signal.SIGKILL)

            records = client.records(job_id)
            assert len(records) == 1
            assert records[0]["circuit"] == "qaoa_5"
            assert parse_exposition(client.metrics())[
                "repro_fleet_failovers_total"
            ].value() >= 1
        finally:
            client.close()
            stop_fleet(server, thread)
