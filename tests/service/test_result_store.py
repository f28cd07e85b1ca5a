"""The durable result store: streamed persistence and replay.

The contract: a finished job's ``GET /v1/jobs/<id>/results`` stream is
byte-identical across a full service restart, served from the store with
zero recompilation, and failed/cancelled jobs leave nothing behind.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.service.app import CompilationService
from repro.service.results import ResultStore
from repro.service.server import make_server

WAIT = 60.0


def wait_until(predicate, timeout: float = WAIT) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def manifest(circuit: str, label: str) -> dict:
    return {"jobs": [{"circuit": circuit, "device": "G-2x2", "label": label}]}


class TestResultStoreUnit:
    def test_stream_then_finalize_round_trips_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        writer = store.open_writer("a" * 16)
        writer.append(b'{"index": 0}')
        writer.append(b'{"index": 1}')
        store.finalize("a" * 16, b'{"type": "end"}')
        assert store.load("a" * 16) == [
            b'{"index": 0}',
            b'{"index": 1}',
            b'{"type": "end"}',
        ]
        assert store.stores == 1 and store.entries() == 1

    def test_unknown_and_abandoned_jobs_load_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load("f" * 16) is None
        writer = store.open_writer("b" * 16)
        writer.append(b'{"index": 0}')
        store.abandon("b" * 16)
        assert store.load("b" * 16) is None
        assert store.entries() == 0 and store.abandoned == 1
        assert not list(tmp_path.iterdir())  # no .part litter either

    def test_stale_part_files_are_swept_at_startup(self, tmp_path):
        (tmp_path / "deadbeefdeadbeef.part").write_bytes(b"torn stream\n")
        (tmp_path / "cafecafecafecafe.results").write_bytes(b'{"ok": 1}\n')
        store = ResultStore(tmp_path)
        assert not (tmp_path / "deadbeefdeadbeef.part").exists()
        assert store.load("cafecafecafecafe") == [b'{"ok": 1}']

    def test_torn_final_file_is_unservable(self, tmp_path):
        (tmp_path / ("ab" * 8 + ".results")).write_bytes(b'{"no": "newline"}')
        store = ResultStore(tmp_path)
        assert store.load("ab" * 8) is None


class TestServiceIntegration:
    def test_failed_jobs_leave_no_result_file(self, tmp_path):
        with CompilationService(workers=1, cache_dir=tmp_path, warm=False) as service:
            with pytest.raises(Exception):
                service.submit_document({"jobs": [{"circuit": "nope"}]})
            job, _ = service.submit_document(manifest("qft_4", "ok"))
            wait_until(lambda: job.finished)
            wait_until(lambda: service.results.entries() == 1)
            assert service.results.load(job.job_id) is not None

    def test_restart_serves_byte_identical_stream_with_zero_compilations(
        self, tmp_path
    ):
        def boot():
            server = make_server(workers=1, port=0, cache_dir=tmp_path, warm=False)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            return server

        def fetch(server, job_id: str) -> bytes:
            with urllib.request.urlopen(
                f"{server.url}/v1/jobs/{job_id}/results"
            ) as response:
                return response.read()

        def stop(server):
            server.shutdown()
            server.server_close()
            server.service.close()

        server = boot()
        body = json.dumps(manifest("qft_4", "durable")).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/jobs", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            job_id = json.loads(response.read())["job_id"]
        original = fetch(server, job_id)
        stop(server)

        restarted = boot()
        try:
            assert fetch(restarted, job_id) == original
            # Served from the store: the engine compiled nothing.
            engine_stats = restarted.service.engine.cache.stats
            assert restarted.service.results.replays >= 1
            assert engine_stats.stores == 0  # no compilation reached the cache
            # And a resubmission deduplicates instead of re-running.
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"{restarted.url}/v1/jobs", data=body, method="POST"
                )
            ) as response:
                again = json.loads(response.read())
            assert again["resubmitted"] and again["job_id"] == job_id
            assert fetch(restarted, job_id) == original
        finally:
            stop(restarted)
