"""Disk-persisted calibration cache: hits, keys, corruption, clearing."""

import json

import pytest

from repro.analysis import calibcache
from repro.analysis.calibcache import calibrated_platform
from repro.netmodel.packet import PacketNetworkParams
from repro.netmodel.params import NetworkParams
from repro.testbed.cluster import VirtualCluster


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A private, empty cache directory for each test."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return cache


def test_store_load_roundtrip(fresh_cache):
    params = NetworkParams(latency=1.5e-4, bandwidth=9.3e6, per_object_overhead=2e-5)
    calibcache.store("abc123", params)
    assert calibcache.load("abc123") == params
    assert calibcache.load("missing") is None


def test_second_calibration_hits_disk(fresh_cache, monkeypatch):
    """The expensive fit must run once; the repeat invocation (modelling a
    fresh CLI process) reads the persisted parameters instead."""
    cluster = VirtualCluster(num_nodes=4, seed=1)
    first = calibrated_platform(cluster)
    assert len(calibcache.entries()) == 1

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("calibrate() ran despite a cache hit")

    monkeypatch.setattr(calibcache, "calibrate", boom)
    second = calibrated_platform(cluster)
    assert second.network == first.network


def test_key_depends_on_fit_inputs_only():
    """The key covers what the single-probe fit reads (network params,
    packet knobs, calibration seed) and nothing else, so sweeps over many
    cluster sizes and measurement seeds share one calibration entry."""
    cluster = VirtualCluster(num_nodes=4, seed=1)
    base = calibcache.cache_key(cluster)
    assert calibcache.cache_key(cluster) == base
    assert calibcache.cache_key(cluster.with_nodes(8)) == base
    assert calibcache.cache_key(cluster.with_seed(2)) == base
    assert calibcache.cache_key(cluster, calibration_seed=7) != base
    richer = VirtualCluster(
        num_nodes=4, seed=1, packet_params=PacketNetworkParams(mtu=9000)
    )
    assert calibcache.cache_key(richer) != base
    from repro.netmodel.params import GIGABIT_ETHERNET

    faster = VirtualCluster(num_nodes=4, seed=1, network=GIGABIT_ETHERNET)
    assert calibcache.cache_key(faster) != base


def test_corrupt_entry_is_a_miss(fresh_cache):
    calibcache.store("deadbeef", NetworkParams(latency=1e-4, bandwidth=1e6))
    path = calibcache.entries()[0]
    path.write_text("not json{", encoding="utf-8")
    assert calibcache.load("deadbeef") is None


def test_clear_removes_entries(fresh_cache):
    for key in ("k1", "k2"):
        calibcache.store(key, NetworkParams(latency=1e-4, bandwidth=1e6))
    assert len(calibcache.entries()) == 2
    assert calibcache.clear() == 2
    assert calibcache.entries() == []
    assert calibcache.clear() == 0


def test_use_disk_cache_false_bypasses(fresh_cache):
    cluster = VirtualCluster(num_nodes=2, seed=3)
    calibrated_platform(cluster, use_disk_cache=False)
    assert calibcache.entries() == []


def test_entry_payload_is_versioned(fresh_cache):
    calibcache.store("k", NetworkParams(latency=1e-4, bandwidth=1e6))
    payload = json.loads(calibcache.entries()[0].read_text(encoding="utf-8"))
    assert payload["version"] == calibcache.CACHE_VERSION
