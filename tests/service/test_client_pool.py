"""Keep-alive behaviour of the pooled ServiceClient transport."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service import ServiceClient
from repro.service.server import make_server


@pytest.fixture()
def server(tmp_path):
    server = make_server(workers=1, port=0, cache_dir=tmp_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)


MANIFEST = {"jobs": [{"circuit": "qft_4", "device": "G-2x2"}]}


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self, server):
        client = ServiceClient(server.url)
        for _ in range(5):
            assert client.health()["status"] == "ok"
        assert client.connections_opened == 1

    def test_streaming_results_returns_the_connection_to_the_pool(self, server):
        client = ServiceClient(server.url)
        receipt = client.submit(MANIFEST)
        records = client.records(receipt["job_id"])
        assert len(records) == 1
        assert client.health()["status"] == "ok"
        # submit + stream + health all rode the same socket.
        assert client.connections_opened == 1

    def test_error_responses_keep_the_connection_alive(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.job("0" * 16)
        assert excinfo.value.status == 404
        assert client.health()["status"] == "ok"
        assert client.connections_opened == 1

    def test_unread_body_paths_do_not_poison_the_pool(self, server):
        """A body posted to a route that never reads it must not leak
        into the next request on a reused connection."""
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/compilers", b"{}")
        assert excinfo.value.status == 405
        # The poisoned connection was closed, not pooled; this request
        # runs clean (on a fresh socket).
        receipt = client.submit(MANIFEST)
        assert receipt["job_id"]

    def test_stale_pooled_connection_reconnects_transparently(self, server):
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"
        # Kill the pooled socket under the client, as an idle-timeout or
        # restarted server would.
        with client._pool_lock:
            for connection in client._idle:
                connection.close()
        assert client.health()["status"] == "ok"  # retried on a fresh socket

    def test_concurrent_threads_draw_distinct_connections(self, server):
        client = ServiceClient(server.url)
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def probe() -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    assert client.health()["status"] == "ok"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert 1 <= client.connections_opened <= 4

    def test_close_empties_the_idle_pool(self, server):
        client = ServiceClient(server.url)
        client.health()
        client.close()
        assert client._idle == []
        # Still usable afterwards — a new connection is simply opened.
        assert client.health()["status"] == "ok"
        assert client.connections_opened == 2
