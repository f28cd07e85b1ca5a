"""HTTP service tests: parity with run_batch, caching, error paths."""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path

import pytest

from repro.exceptions import ManifestError, ReproError, ServiceError
from repro.registry import available_compilers
from repro.runtime.api import run_batch
from repro.runtime.manifest import load_manifest
from repro.service import CompilationService, ServiceClient, job_batch_id, make_server

SMOKE_MANIFEST = Path(__file__).resolve().parents[2] / "examples" / "manifests" / "smoke.json"


@pytest.fixture(scope="module")
def service_stack():
    """One live service + HTTP server + client, shared across the module."""
    server = make_server(workers=2, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=120.0)
    yield server.service, client
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)


class TestEndToEndParity:
    def test_streamed_records_byte_identical_to_run_batch(self, service_stack):
        _, client = service_stack
        receipt = client.submit_file(SMOKE_MANIFEST)
        lines = list(client.stream_results(receipt["job_id"]))
        assert lines[-1]["type"] == "end" and lines[-1]["status"] == "done"
        streamed = [line["record"] for line in lines[:-1]]
        assert all(line["type"] == "outcome" for line in lines[:-1])

        direct = run_batch(load_manifest(SMOKE_MANIFEST))
        assert json.dumps(streamed, sort_keys=True) == json.dumps(
            direct.records(), sort_keys=True
        )

    def test_encoded_stream_byte_identical_to_dict_stream(self, service_stack):
        """The zero-re-serialisation fast path changes no wire bytes."""
        service, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        client.results(job_id)  # wait until the job finishes
        dict_lines = list(service.stream_lines(job_id, timeout=60))
        encoded = list(service.stream_encoded(job_id, timeout=60))
        assert encoded == [
            json.dumps(line, sort_keys=True).encode("utf-8") for line in dict_lines
        ]

    def test_restream_serves_cached_line_bytes(self, service_stack):
        service, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        client.results(job_id)
        job = service.job(job_id)
        replay = list(service.stream_encoded(job_id, timeout=60))
        # Every outcome line is the exact cached object, not a re-encode.
        for line, cached in zip(replay, job.encoded_lines):
            assert line is cached

    def test_streamed_lines_share_their_key_strings(self, service_stack):
        _, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        first, second = client.records(job_id)
        assert first.keys() == second.keys()
        assert all(a is b for a, b in zip(first, second))

    def test_repeated_submission_is_idempotent(self, service_stack):
        _, client = service_stack
        first = client.submit_file(SMOKE_MANIFEST)
        again = client.submit_file(SMOKE_MANIFEST)
        assert again["job_id"] == first["job_id"]
        assert again["resubmitted"] is True
        # The deduplicated job still streams its full results.
        assert len(client.records(again["job_id"])) == 2

    def test_equivalent_compilations_served_from_schedule_cache(self, service_stack):
        _, client = service_stack
        client.results(client.submit_file(SMOKE_MANIFEST)["job_id"])
        # Same compilations, different evaluation settings: a distinct
        # job id whose compile fingerprints are already cached.
        manifest = json.loads(SMOKE_MANIFEST.read_text())
        manifest["defaults"]["gate_implementation"] = "pm"
        receipt = client.submit(manifest)
        outcomes = client.results(receipt["job_id"])
        assert all(outcome["from_cache"] for outcome in outcomes)
        assert client.job(receipt["job_id"])["summary"]["compilations"] == 0

    def test_job_ids_derive_from_fingerprints(self, service_stack):
        _, client = service_stack
        receipt = client.submit_file(SMOKE_MANIFEST)
        assert receipt["job_id"] == job_batch_id(load_manifest(SMOKE_MANIFEST))

    def test_metadata_only_differences_get_distinct_jobs(self, service_stack):
        # label/parameter/value never enter the compile fingerprints but
        # do appear in records — two manifests differing only there must
        # not collide on one job id (the collision would silently serve
        # the first manifest's records to the second submitter).
        _, client = service_stack
        base = {"jobs": [{"circuit": "qft_12", "device": "G-2x2", "label": "run-A"}]}
        relabelled = {"jobs": [{"circuit": "qft_12", "device": "G-2x2", "label": "run-B"}]}
        first = client.submit(base)
        second = client.submit(relabelled)
        assert first["job_id"] != second["job_id"]
        assert client.records(second["job_id"])[0]["label"] == "run-B"
        # ... while the compilation itself is still shared via the cache.
        assert client.results(second["job_id"])[0]["from_cache"] is True

    def test_status_endpoint_reports_progress(self, service_stack):
        _, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        client.results(job_id)
        payload = client.job(job_id)
        assert payload["status"] == "done"
        assert payload["completed"] == payload["jobs"] == 2
        assert [spec["circuit"] for spec in payload["job_specs"]] == ["qft_12", "bv_16"]
        assert any(entry["job_id"] == job_id for entry in client.jobs())


class TestCachedScheduleLookup:
    def test_lookup_by_compile_fingerprint(self, service_stack):
        _, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        outcome = client.results(job_id)[0]
        payload = client.schedule(outcome["compile_fingerprint"])
        entry = payload["entry"]
        assert entry["compiler_name"] == "s-sync"
        assert entry["schedule"]["operations"]

    def test_unknown_fingerprint_is_structured_404(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.schedule("f" * 64)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"]["type"] == "unknown_fingerprint"

    def test_format_version_mismatch_is_a_miss_not_a_500(self, tmp_path):
        # An on-disk entry from another library version must surface as
        # "unknown fingerprint", never as a server error.
        service = CompilationService(workers=1, cache_dir=tmp_path, warm=False)
        fingerprint = "a" * 64
        (tmp_path / f"{fingerprint}.json").write_text(
            json.dumps({"format_version": 999, "schedule": {}})
        )
        try:
            assert service.schedule_payload(fingerprint) is None
        finally:
            service.close()


class TestRegistryAndHealth:
    def test_compilers_endpoint_mirrors_registry(self, service_stack):
        _, client = service_stack
        listed = {row["name"]: row for row in client.compilers()}
        assert set(listed) == {spec.name for spec in available_compilers()}
        assert listed["s-sync"]["accepts_mapping"] is True
        assert "routing" in " ".join(listed["s-sync"]["passes"])

    def test_health_reports_engine_and_cache(self, service_stack):
        _, client = service_stack
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["engine"]["warm"] is True
        assert set(payload["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }

    def test_health_reports_scheduler_depth_and_cache_counters(self, service_stack):
        _, client = service_stack
        payload = client.health()
        scheduler = payload["scheduler"]
        assert scheduler["slots"] >= 1
        assert scheduler["active"] >= 0 and scheduler["queued"] >= 0
        assert {"hits", "misses", "stores", "evictions"} <= set(payload["cache"])


class TestJobListingAndCancel:
    def test_jobs_listing_paginates(self, service_stack):
        _, client = service_stack
        client.results(client.submit_file(SMOKE_MANIFEST)["job_id"])
        page = client.jobs_page(offset=0, limit=1)
        assert page["count"] == 1 and page["total"] >= 1
        assert len(page["jobs"]) == 1
        everything = client.jobs_page()
        assert everything["count"] == everything["total"]
        # Pages tile the full listing without overlap.
        ids = [job["job_id"] for job in everything["jobs"]]
        paged = [
            job["job_id"]
            for offset in range(everything["total"])
            for job in client.jobs(offset=offset, limit=1)
        ]
        assert paged == ids

    def test_bad_pagination_query_is_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/jobs?offset=nope")
        assert excinfo.value.status == 400

    def test_cancel_of_finished_job_is_409(self, service_stack):
        _, client = service_stack
        job_id = client.submit_file(SMOKE_MANIFEST)["job_id"]
        client.results(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"]["type"] == "job_finished"

    def test_cancel_of_unknown_job_is_404(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("0" * 16)
        assert excinfo.value.status == 404

    def test_submit_rejects_non_integer_priority(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/jobs?priority=high", b"{}")
        assert excinfo.value.status == 400


class TestErrorPaths:
    def test_malformed_json_body_is_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(b"{not json")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "manifest_error"
        assert "invalid JSON" in str(excinfo.value)

    def test_unknown_compiler_is_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"jobs": [{"circuit": "qft_8", "device": "G-2x2", "compiler": "nope"}]})
        assert excinfo.value.status == 400
        assert "unknown compiler" in str(excinfo.value)

    def test_bad_device_spec_is_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"jobs": [{"circuit": "qft_8", "device": "X-9"}]})
        assert excinfo.value.status == 400
        assert "invalid device spec" in str(excinfo.value)

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ({"lookahead_weight": "abc"}, "lookahead_weight must be a number"),
            ({"decay_delta": "x"}, "decay_delta must be a number"),
            ({"incremental": True}, "unknown S-SYNC config key"),
            ({"default_mapping": 3}, "default_mapping must be a str"),
            ({"mapping_reserve_per_trap": "x"}, "mapping_reserve_per_trap must be an int"),
            ({"mapping_lookahead_layers": -5}, "mapping_lookahead_layers must be at least 1"),
            ({"default_mapping": "bogus"}, "unknown initial mapping 'bogus'"),
            ({"decay_delta": -1}, "decay_delta must be at least 0"),
            ({"decay_reset_interval": 0}, "decay_reset_interval must be at least 1"),
        ],
    )
    def test_ill_typed_scheduler_config_is_400(self, service_stack, config, message):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"jobs": [{"circuit": "qft_8", "device": "G-2x2", "config": config}]})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "manifest_error"
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        ("keys", "message"),
        [
            ({"mapping": "bogus"}, "unknown initial mapping 'bogus'"),
            ({"gate_implementation": "bogus"}, "unknown gate implementation 'bogus'"),
            ({"gate_implementation": 3}, "gate_implementation must be a string"),
            ({"config": 3}, "config must be an object"),
            ({"heating": 3}, "heating must be an object"),
            ({"circuit": 4}, "circuit must be a string"),
            ({"device": 3}, "device must be a string"),
            ({"circuit": "bogus_4"}, "invalid circuit 'bogus_4'"),
            ({"circuit": "qft_0"}, "invalid circuit 'qft_0'"),
            ({"capacity": [4, 4, 4, 4]}, "capacity must be an int"),
            ({"capacity": True}, "capacity must be an int"),
            ({"heating": {"k1": float("nan")}}, "NaN is not a finite number"),
            ({"circuit": "/srv/ghz.qasm"}, "circuit files are read only by repro batch"),
        ],
    )
    def test_ill_typed_job_keys_are_400(self, service_stack, keys, message):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"jobs": [{"circuit": "qft_8", "device": "G-2x2", **keys}]})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "manifest_error"
        assert message in str(excinfo.value)

    def test_empty_manifest_is_400(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"jobs": []})
        assert excinfo.value.status == 400

    def test_unknown_top_level_keys_are_400(self, service_stack):
        _, client = service_stack
        job = {"circuit": "qft_8", "device": "G-2x2"}
        document = {"default": {"device": "G-2x2"}, "jobs": [job]}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "manifest_error"
        assert "unknown manifest keys: default" in str(excinfo.value)

    @pytest.mark.parametrize("body", [b'{"jobs": 3}', b'{"jobs": true}'])
    def test_jobs_that_are_not_a_list_are_400(self, service_stack, body):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.submit(body)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == "manifest_error"

    def test_unknown_job_is_404(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client.job("0" * 16)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"]["type"] == "unknown_job"

    def test_unknown_results_stream_is_404(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            list(client.stream_results("0" * 16))
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_invalid_content_length_is_400_not_500(self, service_stack):
        _, client = service_stack
        host = client.base_url.removeprefix("http://")
        hostname, port = host.rsplit(":", 1)
        connection = http.client.HTTPConnection(hostname, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read().decode())
            assert payload["error"]["type"] == "bad_request"
        finally:
            connection.close()

    def test_oversized_body_is_413(self, service_stack):
        _, client = service_stack
        host = client.base_url.removeprefix("http://")
        hostname, port = host.rsplit(":", 1)
        connection = http.client.HTTPConnection(hostname, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Length", str(10**9))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "method, path", [("POST", "/v1/jobs"), ("PUT", "/v1/cache/" + "ab" * 32)]
    )
    def test_negative_content_length_is_400(self, service_stack, method, path):
        _, client = service_stack
        host = client.base_url.removeprefix("http://")
        hostname, port = host.rsplit(":", 1)
        connection = http.client.HTTPConnection(hostname, int(port), timeout=10)
        try:
            connection.putrequest(method, path)
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read().decode())
            assert payload["error"]["type"] == "bad_request"
        finally:
            connection.close()

    def test_wrong_method_is_405(self, service_stack):
        _, client = service_stack
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/compilers", b"{}")
        assert excinfo.value.status == 405

    def test_infeasible_job_fails_the_batch_not_the_service(self, service_stack):
        _, client = service_stack
        # qft_40 passes manifest validation but cannot fit the device;
        # the job ends "failed" with a typed error, and the service keeps
        # serving afterwards.
        receipt = client.submit(
            {"jobs": [{"circuit": "qft_40", "device": "G-2x2", "capacity": 4}]}
        )
        with pytest.raises(ServiceError, match="failed"):
            client.results(receipt["job_id"])
        payload = client.job(receipt["job_id"])
        assert payload["status"] == "failed"
        assert payload["error"]["type"] == "MappingError"
        assert client.health()["status"] == "ok"


class TestTypedManifestErrors:
    def test_manifest_error_is_a_repro_error(self):
        assert issubclass(ManifestError, ReproError)

    def test_service_rejects_without_running_anything(self, service_stack):
        service, client = service_stack
        before = len(service.store)
        with pytest.raises(ServiceError):
            client.submit({"jobs": [{"circuit": "qft_8"}]})
        assert len(service.store) == before
