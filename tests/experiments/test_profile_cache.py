"""The persistent profile cache: hits, misses, corruption, disabling.

The cache must be invisible except for speed: a hit returns numbers
bit-identical to a rebuild (floats survive the JSON round-trip via
repr), a corrupt entry is a miss, and the env switches turn it off
entirely.  Every test redirects the cache root into ``tmp_path`` so
nothing leaks into the working directory.
"""

import json

import pytest

from repro.core.persistence import output_to_dict
from repro.experiments import ExperimentConfig
from repro.experiments import profile_cache
from repro.experiments.runner import clear_caches, get_profiler_output
from repro.telemetry.logs import BufferSink, configure_logging

FAST = ExperimentConfig(scale=0.02, quantum=0.8e-3, curve_batches=2)
ENTRIES = [("inception_v4", 100)]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_PROFILE_CACHE", raising=False)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def log_buffer():
    """Capture structured-log records (the cache logs through
    repro.telemetry.logs, not stdlib logging)."""
    sink = BufferSink()
    previous = configure_logging(sink)
    yield sink
    configure_logging(previous)


def cache_files(tmp_path):
    return sorted((tmp_path / "profiles").glob("*.json"))


class TestRoundTrip:
    def test_build_stores_then_hits(self, tmp_path, log_buffer):
        cold = get_profiler_output(ENTRIES, FAST)
        assert len(cache_files(tmp_path)) == 1

        clear_caches()  # drop the in-process cache, keep the disk one
        log_buffer.clear()
        warm = get_profiler_output(ENTRIES, FAST)
        assert any(
            "profile cache hit" in r.message for r in log_buffer.records
        )
        # Bit-identical, not merely approximately equal.
        assert output_to_dict(warm) == output_to_dict(cold)

    def test_in_process_cache_shadows_disk(self, tmp_path, log_buffer):
        get_profiler_output(ENTRIES, FAST)
        log_buffer.clear()
        get_profiler_output(ENTRIES, FAST)
        # Second call is served from memory: the disk layer is silent.
        assert log_buffer.records == []

    def test_corrupt_entry_rebuilds(self, tmp_path, log_buffer):
        cold = get_profiler_output(ENTRIES, FAST)
        (path,) = cache_files(tmp_path)
        path.write_text("{not json")

        clear_caches()
        log_buffer.clear()
        rebuilt = get_profiler_output(ENTRIES, FAST)
        assert any(
            "unreadable" in r.message for r in log_buffer.records
        )
        assert output_to_dict(rebuilt) == output_to_dict(cold)
        # The rebuild overwrote the bad entry with a valid one.
        (path,) = cache_files(tmp_path)
        assert "output" in json.loads(path.read_text())


class TestSwitches:
    def test_env_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "0")
        assert not profile_cache.cache_enabled()
        get_profiler_output(ENTRIES, FAST)
        assert cache_files(tmp_path) == []

    def test_enabled_by_default(self):
        assert profile_cache.cache_enabled()


class TestKeying:
    def test_key_is_stable(self):
        a = profile_cache.cache_key(ENTRIES, FAST, with_curves=False)
        b = profile_cache.cache_key(ENTRIES, FAST, with_curves=False)
        assert a == b and len(a) == 64

    def test_key_covers_config_and_entries(self):
        from dataclasses import replace

        base = profile_cache.cache_key(ENTRIES, FAST, with_curves=False)
        assert profile_cache.cache_key(
            [("inception_v4", 50)], FAST, with_curves=False
        ) != base
        assert profile_cache.cache_key(
            ENTRIES, replace(FAST, tolerance=0.5), with_curves=False
        ) != base
        assert profile_cache.cache_key(
            ENTRIES, FAST, with_curves=True
        ) != base

    def test_entry_order_does_not_matter(self):
        entries = [("inception_v4", 100), ("resnet_152", 100)]
        assert profile_cache.cache_key(
            entries, FAST, with_curves=False
        ) == profile_cache.cache_key(
            list(reversed(entries)), FAST, with_curves=False
        )

    def test_in_process_cache_keys_like_the_disk(self):
        from dataclasses import replace

        # The profiler's solo runs see n_cores and pool_size, so the
        # in-process cache must not hand one host's profile to another.
        base = get_profiler_output(ENTRIES, FAST)
        assert get_profiler_output(ENTRIES, replace(FAST, n_cores=4)) is not base
        assert get_profiler_output(ENTRIES, replace(FAST, pool_size=64)) is not base
        assert get_profiler_output(ENTRIES, FAST) is base

    def test_load_missing_key_is_none(self):
        assert profile_cache.load("0" * 64) is None
