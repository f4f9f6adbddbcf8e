"""Tests for write-once publication of content-addressed store entries.

What is pinned here:

* a second store of an existing ``.sel``, ``.dec`` or ``.snp`` entry
  writes nothing and refreshes the entry's recency, so count-bounded GC
  keeps it;
* a corrupt entry still loads as a miss and is deleted, and the next
  store publishes it again;
* a ``.cal`` table is replaced on every store: a table stored after each
  of several observations reloads with all of them after a restart;
* the keys of ``cache_stats()`` do not change.
"""

import pytest

from repro.db import BlockDecomposition, Database, PrimaryKeySet, fact
from repro.engine import CacheCoordinator, CountJob, SolverPool
from repro.query import parse_query
from repro.repairs import prepare_certificates
from repro.store import (
    DecompositionDiskCache,
    FilesystemBackend,
    MemoryBackend,
    SelectorDiskCache,
    SnapshotStore,
)
from repro.workloads import employee_example

_QUERY = "EXISTS x. R(1, x)"


class _CountingFilesystem(FilesystemBackend):
    def __init__(self, directory):
        super().__init__(directory)
        self.writes = 0

    def write(self, name, blob):
        self.writes += 1
        return super().write(name, blob)


class _CountingMemory(MemoryBackend):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, name, blob):
        self.writes += 1
        return super().write(name, blob)


class _Clock:
    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


def _instance(value="c"):
    database = Database(
        [fact("R", 1, "a"), fact("R", 1, "b"), fact("R", 2, value)]
    ).freeze()
    keys = PrimaryKeySet.from_dict({"R": [1]})
    return database, keys, (database.content_digest(), keys.content_digest())


def _selector_entry(value="c"):
    database, keys, token = _instance(value)
    prepared = prepare_certificates(database, keys, parse_query(_QUERY), ())
    return (
        SelectorDiskCache,
        lambda cache: cache.store(token, _QUERY, (), (), prepared),
        lambda cache: cache.load(token, _QUERY, (), ()),
        SelectorDiskCache.entry_name(token, _QUERY, (), ()),
    )


def _decomposition_entry(value="c"):
    database, keys, token = _instance(value)
    decomposition = BlockDecomposition(database, keys)
    return (
        DecompositionDiskCache,
        lambda cache: cache.store(token, decomposition),
        lambda cache: cache.load(token, database, keys),
        DecompositionDiskCache.entry_name(token),
    )


def _snapshot_entry(value="c"):
    database, _, token = _instance(value)
    return (
        SnapshotStore,
        lambda cache: cache.store(token, database),
        lambda cache: cache.load(token),
        SnapshotStore.entry_name(token),
    )


_KINDS = {
    "sel": _selector_entry,
    "dec": _decomposition_entry,
    "snp": _snapshot_entry,
}


@pytest.fixture(params=["memory", "filesystem"])
def backend(request, tmp_path):
    if request.param == "memory":
        return _CountingMemory()
    return _CountingFilesystem(tmp_path)


def _stamp(backend, name):
    return dict((entry, stamp) for stamp, entry in backend.entries(""))[name]


@pytest.mark.parametrize("kind", sorted(_KINDS))
class TestWriteOnce:
    def test_second_store_writes_nothing_and_refreshes_recency(self, kind, backend):
        cls, store, load, name = _KINDS[kind]()
        clock = _Clock(1_000.0)
        cache = cls(backend, clock=clock)
        assert store(cache)
        assert backend.writes == 1
        backend.set_mtime(name, 100.0)
        clock.now = 2_000.0
        assert store(cache)
        assert backend.writes == 1
        assert _stamp(backend, name) == 2_000.0
        assert cache.stats()["stores"] == 1
        assert load(cache) is not None

    def test_count_bounded_gc_keeps_a_re_stored_entry(self, kind, backend):
        cls, store_old, _, old_name = _KINDS[kind]("c")
        _, store_new, _, new_name = _KINDS[kind]("d")
        clock = _Clock(100.0)
        cache = cls(backend, clock=clock)
        store_old(cache)
        store_new(cache)
        backend.set_mtime(old_name, 100.0)
        backend.set_mtime(new_name, 200.0)
        clock.now = 300.0
        store_old(cache)  # refreshes the older entry past the newer one
        assert cache.collect_garbage(max_entries=1) == 1
        assert backend.exists(old_name)
        assert not backend.exists(new_name)

    def test_corrupt_entry_is_a_miss_then_republished(self, kind, backend):
        cls, store, load, name = _KINDS[kind]()
        cache = cls(backend)
        store(cache)
        backend.write(name, b"not an entry")
        writes = backend.writes
        assert load(cache) is None
        assert cache.stats()["corrupt"] == 1
        assert not backend.exists(name)
        assert store(cache)
        assert backend.writes == writes + 1
        assert load(cache) is not None


class TestCalibrationTables:
    def test_tables_stored_per_observation_reload_whole_after_restart(self, tmp_path):
        token = ("a" * 64, "b" * 64)
        coordinator = CacheCoordinator(persist_dir=tmp_path)
        observed = [(10.0, 2.0, 10.4), (7.0, 1.5, 6.6), (3.0, 0.5, 3.9), (5.0, 1.0, 5.0)]
        for estimate, uncertainty, exact in observed:
            coordinator.record_calibration(token, "fpras", estimate, uncertainty, exact)
        restarted = CacheCoordinator(persist_dir=tmp_path)
        calibrator = restarted.calibrator(token, "fpras")
        assert calibrator.observations == tuple(observed)
        assert restarted.cache_stats()["calibration-disk"]["entries"] == 1


class TestCacheStatsShape:
    def test_keys_are_unchanged(self, tmp_path):
        scenario = employee_example()
        pool = SolverPool(persist_dir=tmp_path)
        pool.register("emp", scenario.database, scenario.keys)
        query = "EXISTS x, y, z . (Employee(1, x, y) AND Employee(2, z, y))"
        pool.run_job(CountJob(database="emp", query=query), 0)
        stats = pool.cache_stats()
        assert set(stats) == {
            "query",
            "decomposition",
            "selectors",
            "selectors-disk",
            "decomposition-disk",
            "snapshots-disk",
            "calibration-disk",
        }
        disk = {"entries", "bytes", "hits", "misses", "stores", "corrupt", "gc_evictions"}
        for layer in ("selectors-disk", "decomposition-disk", "snapshots-disk", "calibration-disk"):
            assert set(stats[layer]) == disk
