"""Artifact store: integrity degradation and LRU bounds.

Mirrors ``tests/exec/test_codegen_cache.py`` for the service layer: a
torn or truncated artifact degrades to a miss (the job re-runs, never a
crash), a poisoned entry — copied under the wrong key or edited without
its checksum — is rejected with ``service.cache.bad``, and the directory
is mtime-LRU bounded.
"""

import json
import os
import shutil
import time

import pytest

from repro import perf
from repro.service.store import ArtifactStore, job_key


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"), max_entries=64)


def _put(store, fp, payload=None):
    key = job_key(fp)
    assert store.store(key, fp, payload or {"kind": "tune", "fp": fp})
    return key


def _counter(name):
    return perf.counters().get(name, 0)


class TestEntryIntegrity:
    def test_round_trip(self, store):
        payload = {"kind": "tune", "thresholds": {"t0": 32}}
        key = job_key("fp-A")
        assert store.store(key, "fp-A", payload)
        assert store.load(key, "fp-A") == payload

    def test_miss_on_absent_key(self, store):
        before = _counter("service.cache.miss")
        assert store.load(job_key("never-stored"), "never-stored") is None
        assert _counter("service.cache.miss") == before + 1

    def test_hit_counts(self, store):
        key = _put(store, "fp-A")
        before = _counter("service.cache.hit")
        assert store.load(key, "fp-A") is not None
        assert _counter("service.cache.hit") == before + 1

    def test_torn_entry_degrades_to_miss(self, store):
        key = _put(store, "fp-A")
        path = os.path.join(store.directory, key + ".json")
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn write
        bad = _counter("service.cache.bad")
        miss = _counter("service.cache.miss")
        assert store.load(key, "fp-A") is None
        assert _counter("service.cache.bad") == bad + 1
        assert _counter("service.cache.miss") == miss + 1

    def test_entry_copied_under_wrong_key_rejected(self, store):
        # poisoning: a valid entry copied to another job's key must not
        # serve that other job's artifact
        key_a = _put(store, "fp-A")
        key_b = job_key("fp-B")
        shutil.copy(
            os.path.join(store.directory, key_a + ".json"),
            os.path.join(store.directory, key_b + ".json"),
        )
        bad = _counter("service.cache.bad")
        assert store.load(key_b, "fp-B") is None
        assert _counter("service.cache.bad") == bad + 1

    def test_tampered_payload_rejected(self, store):
        key = _put(store, "fp-A", {"kind": "tune", "thresholds": {"t0": 32}})
        path = os.path.join(store.directory, key + ".json")
        blob = open(path, "rb").read()
        assert blob.count(b'"t0":32') == 1
        with open(path, "wb") as fh:  # edit without checksum
            fh.write(blob.replace(b'"t0":32', b'"t0":99'))
        bad = _counter("service.cache.bad")
        assert store.load(key, "fp-A") is None
        assert _counter("service.cache.bad") == bad + 1

    def test_older_format_entry_is_a_plain_miss(self, store):
        key = job_key("fp-A")
        payload = {"kind": "tune", "thresholds": {"t0": 32}}
        os.makedirs(store.directory)
        with open(os.path.join(store.directory, key + ".json"), "w") as fh:
            json.dump({"kind": "repro-service-artifact", "version": 1,
                       "key": key, "fingerprint": "fp-A", "sha256": "0" * 64,
                       "payload": payload}, fh)
        bad = _counter("service.cache.bad")
        miss = _counter("service.cache.miss")
        assert store.load(key, "fp-A") is None
        assert _counter("service.cache.bad") == bad
        assert _counter("service.cache.miss") == miss + 1
        assert store.store(key, "fp-A", payload)  # the re-run overwrites it
        assert store.load(key, "fp-A") == payload

    def test_no_cache_env_disables_store(self, store, configure):
        configure(cache=False)
        assert not store.store(job_key("fp-A"), "fp-A", {"x": 1})
        configure(cache=True)
        key = _put(store, "fp-B")
        configure(cache=False)
        assert store.load(key, "fp-B") is None


class TestLRUBound:
    def test_eviction_beyond_cap(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_entries=3)
        keys = []
        for i in range(5):
            keys.append(_put(store, f"fp-{i}"))
            time.sleep(0.01)  # distinct mtimes
        assert len(store) == 3
        # oldest two are gone, newest three survive
        assert store.load(keys[0], "fp-0") is None
        assert store.load(keys[4], "fp-4") is not None

    def test_reads_refresh_lru(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_entries=2)
        k0 = _put(store, "fp-0")
        time.sleep(0.01)
        _put(store, "fp-1")
        time.sleep(0.01)
        assert store.load(k0, "fp-0") is not None  # touch: now newest
        time.sleep(0.01)
        _put(store, "fp-2")  # evicts fp-1, not the freshly-read fp-0
        assert store.load(k0, "fp-0") is not None

    def test_clear(self, store):
        _put(store, "fp-A")
        _put(store, "fp-B")
        store.clear()
        assert len(store) == 0
