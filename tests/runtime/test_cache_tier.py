"""The network cache tier: seam, HTTP transport, and degraded modes.

The contract under test is the one the fleet depends on: a reachable
tier turns any peer's compilation into a local hit, and a dead, slow or
corrupt tier silently degrades the cache to local-only behaviour —
never a wrong result, never an exception on the lookup path.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime.cache import CachedCompilation, ScheduleCache
from repro.runtime.cache_tier import HttpCacheTier
from repro.runtime.jobs import CompileJob, compile_job
from repro.service.server import make_server


@pytest.fixture(scope="module")
def entry() -> CachedCompilation:
    result = compile_job(CompileJob(circuit="qft_4", device="G-2x2", capacity=6))
    return CachedCompilation.from_result(result)


@pytest.fixture()
def tier_server(tmp_path):
    """A service whose /v1/cache endpoints back an HttpCacheTier."""
    server = make_server(workers=1, port=0, cache_dir=tmp_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)


FP_A = "aa" * 32
FP_B = "bb" * 32


class FakeTier:
    """An in-memory CacheTier for seam tests without sockets."""

    def __init__(self) -> None:
        self.blobs: dict[str, bytes] = {}
        self.loads = 0
        self.stores = 0

    def load(self, fingerprint: str) -> "bytes | None":
        self.loads += 1
        return self.blobs.get(fingerprint)

    def store(self, fingerprint: str, payload: bytes) -> bool:
        self.stores += 1
        self.blobs[fingerprint] = payload
        return True


class TestTierSeam:
    def test_tier_hit_promotes_to_memory_and_disk(self, entry, tmp_path):
        tier = FakeTier()
        tier.blobs[FP_A] = entry.to_bytes()
        cache = ScheduleCache(max_entries=4, directory=tmp_path, tiers=(tier,))
        got, where = cache.lookup(FP_A)
        assert where == "network"
        assert got.schedule_blob == entry.schedule_blob
        assert cache.stats.network_hits == 1 and cache.stats.hits == 1
        # Promoted: the next lookup is a memory hit, no tier round-trip.
        _, where = cache.lookup(FP_A)
        assert where == "memory" and tier.loads == 1
        # ... and the disk tier now holds a local copy for restarts.
        assert (tmp_path / f"{FP_A}.sched").exists()

    def test_put_propagates_encoded_entry_to_tiers(self, entry, tmp_path):
        tier = FakeTier()
        cache = ScheduleCache(max_entries=4, directory=tmp_path, tiers=(tier,))
        cache.put(FP_A, entry)
        assert tier.blobs[FP_A] == entry.to_bytes()
        assert cache.stats.network_stores == 1
        # A peer cache (no shared disk) can now serve it from the tier.
        peer = ScheduleCache(max_entries=4, tiers=(tier,))
        got, where = peer.lookup(FP_A)
        assert where == "network" and got.statistics == entry.statistics

    def test_put_without_propagation_stays_local(self, entry, tier_server):
        """The server-side PUT path must not echo entries back out."""
        tier = FakeTier()
        cache = ScheduleCache(max_entries=4, tiers=(tier,))
        cache.put(FP_A, entry, propagate=False)
        assert tier.stores == 0 and FP_A not in tier.blobs

    def test_corrupt_tier_entry_is_a_miss_not_a_crash(self, tmp_path):
        tier = FakeTier()
        tier.blobs[FP_A] = b"RCEN\x03 definitely not a real entry"
        tier.blobs[FP_B] = b"not even magic"
        cache = ScheduleCache(max_entries=4, directory=tmp_path, tiers=(tier,))
        assert cache.lookup(FP_A) == (None, None)
        assert cache.lookup(FP_B) == (None, None)
        assert cache.stats.network_errors == 2
        assert cache.stats.misses == 2
        # Nothing corrupt was promoted anywhere.
        assert len(cache) == 0 and cache.disk_entries() == 0

    def test_tier_miss_counts_and_falls_through(self, tmp_path):
        tier = FakeTier()
        cache = ScheduleCache(max_entries=4, directory=tmp_path, tiers=(tier,))
        assert cache.get(FP_A) is None
        assert cache.stats.network_misses == 1
        assert cache.stats.misses == 1


class TestHttpCacheTier:
    def test_round_trip_through_a_live_service(self, entry, tier_server):
        tier = HttpCacheTier(tier_server.url)
        payload = entry.to_bytes()
        assert tier.load(FP_A) is None  # nothing there yet
        assert tier.store(FP_A, payload)
        assert tier.load(FP_A) == payload
        # The server parsed and re-encoded through its own cache.
        assert tier_server.service.engine.cache.peek(FP_A) is not None

    def test_server_refuses_corrupt_put(self, tier_server):
        tier = HttpCacheTier(tier_server.url)
        assert not tier.store(FP_A, b"garbage")
        assert tier.load(FP_A) is None

    def test_two_caches_share_compilations_through_one_tier(
        self, entry, tier_server, tmp_path
    ):
        """The fleet scenario: worker A compiles, worker B hits."""
        a = ScheduleCache(
            max_entries=4,
            directory=tmp_path / "a",
            tiers=(HttpCacheTier(tier_server.url),),
        )
        b = ScheduleCache(
            max_entries=4,
            directory=tmp_path / "b",
            tiers=(HttpCacheTier(tier_server.url),),
        )
        a.put(FP_B, entry)
        got, where = b.lookup(FP_B)
        assert where == "network"
        assert got.schedule_blob == entry.schedule_blob
        assert got.to_bytes() == entry.to_bytes()

    def test_down_tier_degrades_to_local_with_cooldown(self, entry):
        dead = HttpCacheTier("http://127.0.0.1:9", timeout=0.2, failure_cooldown_s=60)
        cache = ScheduleCache(max_entries=4, tiers=(dead,))
        assert cache.lookup(FP_A) == (None, None)
        assert dead.failures == 1
        # Inside the cooldown window further lookups don't retry the socket.
        assert cache.lookup(FP_A) == (None, None)
        assert dead.failures == 1
        # Local operation is unaffected: store + hit still work.
        cache.put(FP_A, entry)
        got, where = cache.lookup(FP_A)
        assert where == "memory" and got is not None
        assert cache.stats.network_errors >= 1  # the failed store

    def test_cooldown_expires_and_the_tier_recovers(self, entry, tier_server):
        tier = HttpCacheTier(tier_server.url, timeout=2.0, failure_cooldown_s=0.05)
        tier._down_until = time.monotonic() + 0.05  # as if it just failed
        assert tier.load(FP_A) is None  # still cooling down
        time.sleep(0.06)
        assert tier.store(FP_A, entry.to_bytes())
        assert tier.load(FP_A) == entry.to_bytes()

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            HttpCacheTier("https://example.com")
        with pytest.raises(ValueError):
            HttpCacheTier("http://")
