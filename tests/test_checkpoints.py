"""Tests for checkpoint-based lineage compaction across the layers.

What is pinned here:

* explicit (``SolverPool.checkpoint``) and automatic (``checkpoint_every``)
  checkpoints persist the full snapshot through the store, mark the chain
  position in the catalog, and are idempotent per head;
* deep ``as_of`` materialisation replays from the **nearest** checkpoint —
  O(distance to checkpoint) delta applications, not O(chain length) — and
  stays bit-identical to both a checkpoint-less replay and a fresh
  registration of the ancestor;
* a lost or corrupted checkpoint snapshot entry demotes the checkpoint
  (replay falls back to the head) and never produces a wrong count;
* checkpoints survive restarts through the catalog, work across
  rollbacks, and their snapshot entries participate in GC (live head
  pinned, ancestors evictable — evicted means cold, never wrong);
* the server forwards ``checkpoint_every`` to its shards and exposes the
  ``checkpoints``/``checkpoint`` probes;
* the ``repro checkpoint`` command and the checkpoint markers (``*`` /
  ``"checkpoint": true``) in ``repro history`` round-trip via the CLI.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.db import Database, Delta, PrimaryKeySet, database_to_json, fact
from repro.engine import CountJob, SolverPool
from repro.errors import EngineError
from repro.store import SnapshotCatalog, SnapshotStore

_QUERY = "EXISTS x, y. R(x, 'a', y)"


def _chain_pool(tmp_path, deltas=12, checkpoint_every=None, **kwargs):
    """A pool whose single database has ``deltas`` recorded versions."""
    database = Database(
        [fact("R", 1, "a", "x"), fact("R", 1, "b", "x"), fact("R", 2, "a", "y")]
    )
    keys = PrimaryKeySet.from_dict({"R": [1]})
    pool = SolverPool(
        persist_dir=tmp_path / "store",
        checkpoint_every=checkpoint_every,
        **kwargs,
    )
    pool.register("live", database, keys)
    digests = [pool.snapshot_token("live")[0]]
    for step in range(deltas):
        value = "a" if step % 2 == 0 else "b"
        pool.apply_delta(
            "live", Delta(inserted=[fact("R", 10 + step, value, f"z{step}")])
        )
        digests.append(pool.snapshot_token("live")[0])
    return pool, keys, digests


def _count_replays(monkeypatch):
    """Patch Database.apply_delta to count how many deltas get replayed."""
    calls = []
    original = Database.apply_delta

    def counting(self, delta):
        calls.append(delta)
        return original(self, delta)

    monkeypatch.setattr(Database, "apply_delta", counting)
    return calls


class TestExplicitCheckpoints:
    def test_checkpoint_persists_snapshot_and_marks_the_chain(self, tmp_path):
        pool, keys, digests = _chain_pool(tmp_path, deltas=3)
        record = pool.checkpoint("live")
        assert record is not None
        assert record.digest == digests[-1]
        assert record.sequence == 3
        # The full snapshot is on disk under the head token...
        store = SnapshotStore(tmp_path / "store")
        assert store.load((record.digest, record.keys_digest)) == pool.lookup("live")[0]
        # ...and the chain position is marked in the catalog.
        catalog = SnapshotCatalog(tmp_path / "store")
        markers = catalog.checkpoints("live")
        assert [marker.sequence for marker in markers] == [3]
        assert pool.cache_stats()["snapshots-disk"]["entries"] == 1

    def test_checkpoint_is_idempotent_per_head(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=2)
        first = pool.checkpoint("live")
        second = pool.checkpoint("live")
        assert first == second
        assert len(pool.checkpoints("live")) == 1

    def test_checkpoint_without_a_store_fails_loudly(self):
        pool = SolverPool()
        pool.register(
            "live",
            Database([fact("R", 1, "a", "x")]),
            PrimaryKeySet.from_dict({"R": [1]}),
        )
        with pytest.raises(EngineError, match="persist_dir"):
            pool.checkpoint("live")

    def test_checkpoints_survive_restart_via_the_catalog(self, tmp_path):
        pool, keys, _ = _chain_pool(tmp_path, deltas=4, checkpoint_every=2)
        assert [c.sequence for c in pool.checkpoints("live")] == [2, 4]

        restarted = SolverPool(persist_dir=tmp_path / "store")
        restarted.register("live", pool.lookup("live")[0], keys)
        assert [c.sequence for c in restarted.checkpoints("live")] == [2, 4]


class TestAutomaticCheckpoints:
    def test_checkpoint_every_cuts_on_the_effective_delta_cadence(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=9, checkpoint_every=4)
        # register is sequence 0; deltas land at 1..9; checkpoints every 4.
        assert [c.sequence for c in pool.checkpoints("live")] == [4, 8]

    def test_no_interval_means_no_automatic_checkpoints(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=6)
        assert pool.checkpoints("live") == ()

    def test_bad_interval_is_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="checkpoint_every"):
            SolverPool(persist_dir=tmp_path, checkpoint_every=0)

    def test_rollback_restarts_the_compaction_count(self, tmp_path):
        """Rolled-back-over deltas must not count toward the next interval."""
        pool, _, digests = _chain_pool(tmp_path, deltas=5, checkpoint_every=3)
        assert [c.sequence for c in pool.checkpoints("live")] == [3]
        pool.rollback("live", digests[3])  # deltas 4-5 are rolled over
        for step in range(2):
            pool.apply_delta(
                "live", Delta(inserted=[fact("R", 90 + step, "a", "post")])
            )
        # Only 2 post-rollback deltas: the rolled-over ones (and the
        # rollback record itself) must not push the count to 3 early.
        assert [c.sequence for c in pool.checkpoints("live")] == [3]
        pool.apply_delta("live", Delta(inserted=[fact("R", 99, "a", "post")]))
        assert [c.sequence for c in pool.checkpoints("live")] == [3, 9]

    def test_rollback_to_a_checkpointed_digest_marks_the_new_position(
        self, tmp_path
    ):
        """Revisiting a checkpointed digest at a new sequence gets its own
        marker — the reported chain position must be the head, not the
        stale earlier record."""
        pool, _, digests = _chain_pool(tmp_path, deltas=4, checkpoint_every=2)
        early = next(c for c in pool.checkpoints("live") if c.sequence == 2)
        pool.rollback("live", early.digest)  # head: sequence 5, digest of #2
        record = pool.checkpoint("live")
        assert record is not None
        assert record.digest == early.digest
        assert record.sequence == 5
        markers = SnapshotCatalog(tmp_path / "store").checkpoints("live")
        assert {marker.sequence for marker in markers} >= {2, 5}

    def test_truncation_sweeps_orphaned_checkpoint_markers(self, tmp_path):
        """Purging damaged records also purges their checkpoint markers."""
        pool, _, digests = _chain_pool(tmp_path, deltas=3, checkpoint_every=1)
        store = tmp_path / "store"
        catalog = SnapshotCatalog(store)
        assert [c.sequence for c in catalog.checkpoints("live")] == [1, 2, 3]
        # Damage the record at sequence 2: loading truncates there and
        # must sweep the markers of slots 2 and 3 along with the records.
        (store / SnapshotCatalog.entry_name("live", 2)).write_bytes(b"garbage")
        fresh = SnapshotCatalog(store)
        assert len(fresh.lineage("live")) == 2  # sequences 0 and 1 survive
        suffixes = [p.name for p in store.glob("*.ckp")]
        assert len(suffixes) == 1  # only sequence 1's marker remains
        assert [c.sequence for c in fresh.checkpoints("live")] == [1]

    def test_recheckpointing_restores_an_evicted_snapshot(self, tmp_path):
        """A surviving .ckp marker whose .snp payload was GC'd is re-stored."""
        pool, keys, digests = _chain_pool(tmp_path, deltas=2)
        record = pool.checkpoint("live")
        assert record is not None
        # Advance the head (unpinning the checkpoint), GC everything
        # evictable, then roll back: the marker survives, the payload not.
        pool.apply_delta("live", Delta(inserted=[fact("R", 77, "a", "gc")]))
        pool.collect_garbage(max_entries=0, max_age_seconds=0)
        store = SnapshotStore(tmp_path / "store")
        assert store.load((record.digest, record.keys_digest)) is None
        pool.rollback("live", record.digest)
        again = pool.checkpoint("live")
        assert again is not None and again.digest == record.digest
        assert store.load((record.digest, record.keys_digest)) is not None


class TestCheckpointedMaterialisation:
    def test_replay_starts_at_the_nearest_checkpoint(self, tmp_path, monkeypatch):
        pool, keys, digests = _chain_pool(tmp_path, deltas=16, checkpoint_every=4)
        restarted = SolverPool(persist_dir=tmp_path / "store")
        restarted.register("live", pool.lookup("live")[0], keys)

        calls = _count_replays(monkeypatch)
        # Sequence 5 is distance 1 from the checkpoint at 4 (and 3 from
        # the one at 8) but distance 11 from the head at 16.
        snapshot, _, _ = restarted.materialise("live", digests[5])
        assert snapshot.content_digest() == digests[5]
        assert len(calls) == 1

    def test_checkpointed_and_plain_replay_are_bit_identical(self, tmp_path):
        pool, keys, digests = _chain_pool(tmp_path, deltas=10, checkpoint_every=3)
        plain = SolverPool()
        plain.register("live", pool.lookup("live")[0], keys)
        plain.adopt_lineage("live", pool.lineage("live"))
        for digest in digests:
            with_checkpoints = pool.materialise("live", digest)[0]
            without = plain.materialise("live", digest)[0]
            assert with_checkpoints == without
            assert with_checkpoints.content_digest() == digest

    def test_historical_counts_match_fresh_registration(self, tmp_path):
        pool, keys, digests = _chain_pool(tmp_path, deltas=8, checkpoint_every=2)
        for digest in (digests[1], digests[4], digests[7]):
            historical = pool.run_job(
                CountJob(database="live", query=_QUERY, as_of=digest)
            )
            fresh = SolverPool()
            fresh.register(
                "live", Database(pool.materialise("live", digest)[0].facts()), keys
            )
            expected = fresh.run_job(CountJob(database="live", query=_QUERY))
            assert historical.count_fields()[1:] == expected.count_fields()[1:]

    def test_damaged_checkpoint_falls_back_to_head_replay(
        self, tmp_path, monkeypatch
    ):
        pool, keys, digests = _chain_pool(tmp_path, deltas=8, checkpoint_every=4)
        # Corrupt every persisted snapshot entry in place.
        for path in (tmp_path / "store").glob("*.snp"):
            path.write_bytes(b"garbage")
        restarted = SolverPool(persist_dir=tmp_path / "store")
        restarted.register("live", pool.lookup("live")[0], keys)
        calls = _count_replays(monkeypatch)
        snapshot, _, _ = restarted.materialise("live", digests[3])
        # Correct result, via the long way round (5 backward steps from
        # the head at sequence 8 — the checkpoints could not load).
        assert snapshot.content_digest() == digests[3]
        assert len(calls) == 5

    def test_rollback_and_checkpoints_compose(self, tmp_path):
        pool, keys, digests = _chain_pool(tmp_path, deltas=6, checkpoint_every=2)
        pool.rollback("live", digests[0])
        # The head is now the root; deep-in-chain states resolve through
        # the checkpoints, not through the (now distant) head.
        snapshot, _, _ = pool.materialise("live", digests[5])
        assert snapshot.content_digest() == digests[5]
        # And the rolled-back head can itself be checkpointed.
        record = pool.checkpoint("live")
        assert record is not None
        assert record.digest == digests[0]


class TestCheckpointGarbageCollection:
    def test_live_head_checkpoint_is_pinned_ancestors_are_not(self, tmp_path):
        pool, keys, digests = _chain_pool(tmp_path, deltas=4, checkpoint_every=2)
        # Checkpoints at sequences 2 and 4; the head (4) is live/pinned.
        assert pool.cache_stats()["snapshots-disk"]["entries"] == 2
        evicted = pool.collect_garbage(max_entries=0, max_age_seconds=0)
        assert evicted["snapshots-disk"] == 1
        assert pool.cache_stats()["snapshots-disk"]["entries"] == 1

        # The evicted ancestor checkpoint makes replay longer, never wrong.
        restarted = SolverPool(persist_dir=tmp_path / "store")
        restarted.register("live", pool.lookup("live")[0], keys)
        snapshot, _, _ = restarted.materialise("live", digests[2])
        assert snapshot.content_digest() == digests[2]


class TestServerCheckpoints:
    def test_shards_cut_and_report_checkpoints(self, tmp_path):
        import asyncio

        from repro.engine import UpdateJob
        from repro.server import AsyncServer

        database = Database([fact("R", 1, "a", "x"), fact("R", 2, "a", "y")])
        keys = PrimaryKeySet.from_dict({"R": [1]})
        deltas = [
            Delta(inserted=[fact("R", 10 + step, "a", f"z{step}")])
            for step in range(4)
        ]

        async def run():
            server = AsyncServer(
                shards=2,
                persist_dir=tmp_path / "store",
                checkpoint_every=2,
            )
            server.register("live", database, keys)
            async with server:
                for index, delta in enumerate(deltas):
                    await server.submit(UpdateJob(database="live", delta=delta), index)
                automatic = await server.checkpoints("live")
                explicit = await server.checkpoint("live")
                after = await server.checkpoints("live")
            return automatic, explicit, after

        automatic, explicit, after = asyncio.run(run())
        assert [c.sequence for c in automatic] == [2, 4]
        assert explicit is not None and explicit.sequence == 4
        assert [c.sequence for c in after] == [2, 4]
        # The markers are in the shared catalog for offline readers too.
        assert [
            c.sequence for c in SnapshotCatalog(tmp_path / "store").checkpoints("live")
        ] == [2, 4]


class TestCheckpointCLI:
    @pytest.fixture
    def instance_files(self, tmp_path):
        database = Database(
            [fact("R", 1, "a", "x"), fact("R", 1, "b", "x"), fact("R", 2, "a", "y")]
        )
        keys = PrimaryKeySet.from_dict({"R": [1]})
        deltas = [
            Delta(inserted=[fact("R", 10 + step, "a", f"z{step}")])
            for step in range(4)
        ]
        db_path = tmp_path / "db.json"
        db_path.write_text(json.dumps(database_to_json(database, keys)))
        jobs = {
            "databases": {"live": {"path": "db.json"}},
            "jobs": [{"database": "live", "query": _QUERY}]
            + [{"update": "live", **delta.to_json()} for delta in deltas]
            + [{"database": "live", "query": _QUERY, "as_of": -3}],
        }
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        head = database
        for delta in deltas:
            head = head.apply_delta(delta)
        head_path = tmp_path / "head.json"
        head_path.write_text(json.dumps(database_to_json(head, keys)))
        return tmp_path, jobs_path, head_path

    def test_batch_checkpoint_every_and_history_markers(
        self, instance_files, capsys
    ):
        tmp_path, jobs_path, head_path = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache),
                     "--checkpoint-every", "2"]) == 0
        capsys.readouterr()

        assert main(["history", "live", "--persist-cache", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "#2*" in output and "#4*" in output  # the checkpointed rows
        assert "#1 " in output  # unmarked rows keep a plain marker column
        assert "2 checkpoint(s)" in output

        assert main(["history", "live", "--persist-cache", str(cache),
                     "--json-lines"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        flagged = [line["sequence"] for line in lines if line.get("checkpoint")]
        assert flagged == [2, 4]

    def test_history_limit_reports_elided_records(self, instance_files, capsys):
        tmp_path, jobs_path, _ = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["history", "live", "--persist-cache", str(cache),
                     "--limit", "2"]) == 0
        output = capsys.readouterr().out
        assert "3 older record(s) elided" in output
        assert output.count("#") >= 2 and "#0" not in output

    def test_history_rejects_a_negative_limit(self, instance_files, capsys):
        tmp_path, jobs_path, _ = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["history", "live", "--persist-cache", str(cache),
                     "--limit", "-2"]) == 2
        assert "--limit must be >= 0" in capsys.readouterr().err

    def test_checkpoint_command_round_trip(self, instance_files, capsys):
        tmp_path, jobs_path, head_path = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache)]) == 0
        capsys.readouterr()

        assert main(["checkpoint", "live", "--json", str(head_path),
                     "--persist-cache", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "checkpointed: #4" in output
        assert "checkpoints: 1" in output

        assert main(["history", "live", "--persist-cache", str(cache)]) == 0
        assert "#4*" in capsys.readouterr().out

    def test_checkpoint_command_rejects_a_stale_snapshot(
        self, instance_files, capsys
    ):
        tmp_path, jobs_path, _ = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache)]) == 0
        capsys.readouterr()
        # db.json is the *root*, not the post-delta head.
        assert main(["checkpoint", "live", "--json", str(tmp_path / "db.json"),
                     "--persist-cache", str(cache)]) == 2
        assert "not the recorded head" in capsys.readouterr().err
        assert SnapshotCatalog(cache).checkpoints("live") == ()

    def test_checkpoint_command_rejects_an_unknown_name(
        self, instance_files, capsys
    ):
        """A typo'd name must not seed a brand-new chain in the catalog."""
        tmp_path, jobs_path, head_path = instance_files
        cache = tmp_path / "cache"
        assert main(["batch", "--jobs", str(jobs_path),
                     "--persist-cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "liev", "--json", str(head_path),
                     "--persist-cache", str(cache)]) == 2
        assert "no recorded lineage" in capsys.readouterr().err
        assert len(SnapshotCatalog(cache).lineage("liev")) == 0

    def test_checkpoint_every_requires_a_cache(self, instance_files, capsys):
        _, jobs_path, _ = instance_files
        assert main(["batch", "--jobs", str(jobs_path),
                     "--checkpoint-every", "2"]) == 2
        assert "requires --persist-cache" in capsys.readouterr().err

    def test_checkpoint_every_rejects_bad_intervals_before_spawning(
        self, instance_files, capsys
    ):
        """A bad interval must be a clean exit 2 in the parent, never a
        start-up error surfaced from every call to a shard worker."""
        from repro.errors import ServerError
        from repro.server import AsyncServer

        tmp_path, jobs_path, _ = instance_files
        for command in ("batch", "serve"):
            assert main([command, "--jobs", str(jobs_path),
                         "--persist-cache", str(tmp_path / "cache"),
                         "--checkpoint-every", "0"]) == 2
            assert "must be >= 1" in capsys.readouterr().err
        with pytest.raises(ServerError, match="checkpoint_every"):
            AsyncServer(shards=1, checkpoint_every=0)
