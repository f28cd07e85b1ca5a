"""Unit tests for the schedule cache (LRU + on-disk tiers)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.runtime.api import run_batch
from repro.runtime.cache import CACHE_FORMAT_VERSION, CachedCompilation, ScheduleCache
from repro.runtime.jobs import CompileJob, compile_job


@pytest.fixture(scope="module")
def entry() -> CachedCompilation:
    result = compile_job(CompileJob(circuit="qft_8", device="G-2x2", capacity=6))
    return CachedCompilation.from_result(result)


class TestMemoryTier:
    def test_hit_miss_accounting(self, entry):
        cache = ScheduleCache(max_entries=4)
        assert cache.get("fp-a") is None
        cache.put("fp-a", entry)
        assert cache.get("fp-a") is entry
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "evictions": 0,
            "disk_hits": 0,
            "network_hits": 0,
            "network_misses": 0,
            "network_stores": 0,
            "network_errors": 0,
        }

    def test_lru_evicts_least_recently_used(self, entry):
        cache = ScheduleCache(max_entries=2)
        cache.put("a", entry)
        cache.put("b", entry)
        cache.get("a")  # refresh a, so b becomes the eviction victim
        cache.put("c", entry)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_needs_positive_capacity(self):
        with pytest.raises(ReproError):
            ScheduleCache(max_entries=0)


class TestDiskTier:
    def test_round_trip_through_a_fresh_cache(self, tmp_path, entry):
        ScheduleCache(directory=tmp_path).put("fp", entry)
        fresh = ScheduleCache(directory=tmp_path)
        loaded = fresh.get("fp")
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        schedule = loaded.schedule()
        assert schedule.count_summary() == entry.schedule().count_summary()
        assert loaded.compiler_name == entry.compiler_name
        assert loaded.mapping_name == entry.mapping_name

    def test_disk_hit_promotes_into_memory(self, tmp_path, entry):
        ScheduleCache(directory=tmp_path).put("fp", entry)
        fresh = ScheduleCache(directory=tmp_path)
        fresh.get("fp")
        fresh.get("fp")
        assert fresh.stats.hits == 2
        assert fresh.stats.disk_hits == 1  # second hit came from memory

    def test_corrupt_binary_entry_rejected(self, tmp_path):
        (tmp_path / "bad.sched").write_bytes(b"not a cache entry")
        with pytest.raises(ReproError):
            ScheduleCache(directory=tmp_path).get("bad")

    def test_truncated_binary_entry_rejected(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        path = tmp_path / "fp.sched"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ReproError):
            ScheduleCache(directory=tmp_path).get("fp")

    def test_future_binary_version_is_a_miss(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        path = tmp_path / "fp.sched"
        raw = bytearray(path.read_bytes())
        raw[4] = CACHE_FORMAT_VERSION + 1  # version byte follows the magic
        path.write_bytes(bytes(raw))
        assert ScheduleCache(directory=tmp_path).get("fp") is None

    def test_clear_disk(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        cache.clear(disk=True)
        assert ScheduleCache(directory=tmp_path).get("fp") is None


class TestEntryFormat:
    def test_bytes_round_trip(self, entry):
        blob = entry.to_bytes()
        rebuilt = CachedCompilation.from_bytes(blob)
        assert rebuilt == entry
        assert rebuilt.to_bytes() == blob  # deterministic re-encode

    def test_version_mismatch_rejected(self, entry):
        raw = bytearray(entry.to_bytes())
        raw[4] = CACHE_FORMAT_VERSION - 1  # version byte follows the magic
        with pytest.raises(ReproError, match="version"):
            CachedCompilation.from_bytes(bytes(raw))

    def test_missing_field_rejected(self):
        meta = json.dumps({"compiler_name": "s-sync", "compile_time_s": 0.0}).encode()
        assert len(meta) < 0x80  # so its varint length is one byte
        raw = b"RCEN" + bytes([CACHE_FORMAT_VERSION, len(meta)]) + meta
        with pytest.raises(ReproError, match="mapping_name"):
            CachedCompilation.from_bytes(raw)

    def test_bad_magic_rejected(self, entry):
        with pytest.raises(ReproError):
            CachedCompilation.from_bytes(b"XXXX" + entry.to_bytes()[4:])

    def test_disk_entry_is_binary(self, tmp_path, entry):
        cache = ScheduleCache(directory=tmp_path)
        cache.put("fp", entry)
        raw = (tmp_path / "fp.sched").read_bytes()
        assert raw.startswith(b"RCEN")
        assert raw[4] == CACHE_FORMAT_VERSION
        loaded = CachedCompilation.from_bytes(raw)
        assert loaded.schedule().circuit_name == "qft_8"

    def test_binary_entry_smaller_than_json(self, entry):
        json_bytes = len(json.dumps(entry.to_dict(), sort_keys=True))
        assert len(entry.to_bytes()) * 2 < json_bytes


class TestLegacyEntries:
    def test_v2_json_entry_is_a_miss_and_the_rerun_hits_v4(self, tmp_path):
        """A v2-era JSON entry is not read: one compile, then a .sched hit."""
        job = CompileJob(circuit="qft_8", device="G-2x2", capacity=6)
        fingerprint = job.compile_fingerprint()
        legacy = CachedCompilation.from_result(compile_job(job)).to_dict()
        legacy["format_version"] = 2
        (tmp_path / f"{fingerprint}.json").write_text(json.dumps(legacy, sort_keys=True))

        first = run_batch([job], cache_dir=tmp_path)
        assert first.compilations == 1
        assert first.cache_stats.hits == 0
        raw = (tmp_path / f"{fingerprint}.sched").read_bytes()
        assert raw[4] == CACHE_FORMAT_VERSION == 4

        second = run_batch([job], cache_dir=tmp_path)
        assert second.compilations == 0
        assert second.cache_stats.disk_hits == 1
        assert second.records() == first.records()
