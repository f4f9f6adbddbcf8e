"""Tests for the ``repro.store`` subsystem.

What is pinned here:

* the two backends (filesystem, memory) satisfy one contract — atomic
  publication, recency stamps, suffix listing — and the caches behave
  identically over either;
* the shared entry format rejects truncation, bit-flips, magic and
  version skew as misses, never errors;
* entry names are token-prefixed, byte-stable, and the duplicated naming
  logic of the two cache subclasses is gone (one base implementation);
* the snapshot catalog is append-only, survives restarts, tolerates a
  corrupt record by truncating the loaded chain, and never lets cache GC
  touch its records.
"""

import pickle

import pytest

from repro.db import (
    BlockDecomposition,
    Database,
    Delta,
    LineageRecord,
    PrimaryKeySet,
    fact,
)
from repro.errors import StoreError
from repro.query import parse_query
from repro.repairs import prepare_certificates
from repro.store import (
    FORMAT_VERSION,
    DecompositionDiskCache,
    FilesystemBackend,
    MemoryBackend,
    SelectorDiskCache,
    SnapshotCatalog,
    as_backend,
    decode_entry,
    encode_entry,
    token_prefix,
)


def _instance():
    database = Database(
        [fact("R", 1, "a"), fact("R", 1, "b"), fact("R", 2, "c")]
    )
    keys = PrimaryKeySet.from_dict({"R": [1]})
    return database, keys


def _token(database, keys):
    return (database.content_digest(), keys.content_digest())


class TestBackends:
    @pytest.fixture(params=["memory", "filesystem"])
    def backend(self, request, tmp_path):
        if request.param == "memory":
            return MemoryBackend()
        return FilesystemBackend(tmp_path)

    def test_write_read_delete_roundtrip(self, backend):
        assert backend.write("entry.sel", b"payload")
        assert backend.read("entry.sel") == b"payload"
        assert backend.delete("entry.sel")
        assert backend.read("entry.sel") is None
        assert not backend.delete("entry.sel")

    def test_entries_filters_by_suffix(self, backend):
        backend.write("a.sel", b"1")
        backend.write("b.dec", b"2")
        backend.write("c.rec", b"3")
        assert [name for _, name in backend.entries(".sel")] == ["a.sel"]
        assert len(backend.entries(".rec")) == 1

    def test_set_mtime_orders_entries(self, backend):
        backend.write("old.sel", b"1")
        backend.write("new.sel", b"2")
        backend.set_mtime("old.sel", 1_000.0)
        backend.set_mtime("new.sel", 2_000.0)
        ordered = sorted(backend.entries(".sel"))
        assert [name for _, name in ordered] == ["old.sel", "new.sel"]

    def test_overwrite_is_atomic_last_write_wins(self, backend):
        backend.write("x.sel", b"first")
        backend.write("x.sel", b"second")
        assert backend.read("x.sel") == b"second"

    def test_as_backend_coerces_paths(self, tmp_path):
        assert isinstance(as_backend(tmp_path), FilesystemBackend)
        memory = MemoryBackend()
        assert as_backend(memory) is memory


class TestEntryFormat:
    def test_roundtrip(self):
        blob = encode_entry(b"RSEL", b"the payload")
        assert decode_entry(b"RSEL", blob) == b"the payload"

    def test_version_skew_is_a_miss(self):
        blob = encode_entry(b"RSEL", b"x")
        skewed = blob[:4] + (FORMAT_VERSION + 1).to_bytes(4, "big") + blob[8:]
        assert decode_entry(b"RSEL", skewed) is None

    def test_corruption_is_a_miss(self):
        blob = encode_entry(b"RSEL", b"x" * 50)
        assert decode_entry(b"RSEL", blob[:-5]) is None  # truncated
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])  # bit-flipped
        assert decode_entry(b"RSEL", flipped) is None
        assert decode_entry(b"RSEL", b"") is None

    def test_entry_names_are_token_prefixed(self):
        database, keys = _instance()
        token = _token(database, keys)
        selector_name = SelectorDiskCache.entry_name(token, "Q", (), ())
        decomposition_name = DecompositionDiskCache.entry_name(token)
        prefix = token_prefix(token)
        assert selector_name.startswith(prefix + "-")
        assert decomposition_name.startswith(prefix + "-")
        assert selector_name.endswith(".sel")
        assert decomposition_name.endswith(".dec")
        # Distinct tokens get distinct prefixes (GC pinning relies on it).
        other = ("f" * 64, "0" * 64)
        assert not SelectorDiskCache.entry_name(other, "Q", (), ()).startswith(
            prefix
        )


class TestCachesOverEitherBackend:
    @pytest.fixture(params=["memory", "filesystem"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryBackend()
        return FilesystemBackend(tmp_path)

    def test_selector_cache_roundtrip(self, store):
        database, keys = _instance()
        token = _token(database, keys)
        prepared = prepare_certificates(
            database, keys, parse_query("EXISTS x. R(1, x)"), ()
        )
        cache = SelectorDiskCache(store)
        assert cache.load(token, "EXISTS x. R(1, x)", (), ()) is None
        assert cache.store(token, "EXISTS x. R(1, x)", (), (), prepared)
        loaded = cache.load(token, "EXISTS x. R(1, x)", (), ())
        assert loaded.certificate_count == prepared.certificate_count
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_decomposition_cache_roundtrip(self, store):
        database, keys = _instance()
        token = _token(database, keys)
        cache = DecompositionDiskCache(store)
        assert cache.store(token, BlockDecomposition(database, keys))
        loaded = cache.load(token, database, keys)
        assert loaded.blocks == BlockDecomposition(database, keys).blocks

    def test_pinned_tokens_survive_any_bounds(self, store):
        database, keys = _instance()
        token = _token(database, keys)
        cache = DecompositionDiskCache(store)
        cache.store(token, BlockDecomposition(database, keys))
        cache.set_pinned_tokens([token])
        assert cache.collect_garbage(max_entries=0, max_age_seconds=0) == 0
        cache.set_pinned_tokens([])
        assert cache.collect_garbage(max_entries=0) == 1

    def test_pinned_entries_do_not_shield_others_from_count_bounds(self, store):
        database, keys = _instance()
        token = _token(database, keys)
        cache = SelectorDiskCache(store)
        prepared = prepare_certificates(
            database, keys, parse_query("EXISTS x. R(1, x)"), ()
        )
        for index in range(3):
            cache.store(token, f"EXISTS x. R({index}, x)", (), (), prepared)
        other = ("e" * 64, "f" * 64)
        cache.store(other, "EXISTS x. R(1, x)", (), (), prepared)
        cache.set_pinned_tokens([token])
        # max_entries=3: the three pinned entries already fill the budget,
        # so the unpinned one is evicted.
        assert cache.collect_garbage(max_entries=3) == 1
        assert cache.entry_count() == 3


class TestSnapshotCatalog:
    def _record(self, sequence, digest, parent=None, kind="register", delta=None):
        return LineageRecord(
            name="live",
            sequence=sequence,
            digest=digest,
            keys_digest="k" * 64,
            parent_digest=parent,
            kind=kind,
            delta=delta,
            wall_time=float(sequence),
        )

    def test_append_and_reload_across_restarts(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        delta = Delta(inserted=[fact("R", 9, "z")])
        assert catalog.append(self._record(0, "a" * 64))
        assert catalog.append(
            self._record(1, "b" * 64, parent="a" * 64, kind="delta", delta=delta)
        )
        restarted = SnapshotCatalog(tmp_path)
        chain = restarted.lineage("live")
        assert [record.kind for record in chain] == ["register", "delta"]
        assert chain.head.delta == delta
        assert restarted.lineage("other-name").records == ()

    def test_corrupt_record_truncates_the_loaded_chain(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        catalog.append(self._record(0, "a" * 64))
        catalog.append(
            self._record(
                1,
                "b" * 64,
                parent="a" * 64,
                kind="delta",
                delta=Delta(inserted=[fact("R", 9, "z")]),
            )
        )
        middle = tmp_path / SnapshotCatalog.entry_name("live", 0)
        middle.write_bytes(b"garbage")
        chain = SnapshotCatalog(tmp_path).lineage("live")
        assert len(chain) == 0  # truncated at the damaged record, no error
        assert not middle.exists()  # dead weight removed best-effort

    def test_truncation_purges_successors_so_no_stale_splice(self, tmp_path):
        """Regression: deleting only the corrupt record frees its sequence
        slot, and a later append would splice the *old* successors (with
        dangling parent digests) back into loaded chains."""
        catalog = SnapshotCatalog(tmp_path)
        delta = Delta(inserted=[fact("R", 9, "z")])
        catalog.append(self._record(0, "a" * 64))
        catalog.append(
            self._record(1, "b" * 64, parent="a" * 64, kind="delta", delta=delta)
        )
        catalog.append(
            self._record(2, "c" * 64, parent="b" * 64, kind="delta", delta=delta)
        )
        (tmp_path / SnapshotCatalog.entry_name("live", 1)).write_bytes(b"garbage")

        restart_a = SnapshotCatalog(tmp_path)
        assert len(restart_a.lineage("live")) == 1
        assert restart_a.truncated == 1  # record #2 purged with #1
        # The freed slot is reused by a new head move...
        restart_a.append(self._record(1, "d" * 64, parent="a" * 64))
        # ...and a later load sees exactly the coherent two-record chain,
        # never the stale record #2.
        chain = SnapshotCatalog(tmp_path).lineage("live")
        assert [record.digest for record in chain] == ["a" * 64, "d" * 64]

    def test_non_record_payload_is_rejected(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        with pytest.raises(StoreError, match="LineageRecords"):
            catalog.append("not a record")
        # A decodable entry holding the wrong type truncates, not crashes.
        blob = encode_entry(b"RCAT", pickle.dumps({"not": "a record"}))
        (tmp_path / SnapshotCatalog.entry_name("live", 0)).write_bytes(blob)
        assert len(SnapshotCatalog(tmp_path).lineage("live")) == 0

    def test_cache_gc_never_touches_catalog_records(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path)
        catalog.append(self._record(0, "a" * 64))
        cache = SelectorDiskCache(tmp_path)
        cache.collect_garbage(max_entries=0, max_age_seconds=0)
        assert SnapshotCatalog(tmp_path).entry_count() == 1

    def test_memory_backend_catalog(self):
        backend = MemoryBackend()
        catalog = SnapshotCatalog(backend)
        catalog.append(self._record(0, "a" * 64))
        assert len(SnapshotCatalog(backend).lineage("live")) == 1

