"""Tests for cost-model-driven self-tuning of the storage/replay layer.

What is pinned here:

* the observation layer is deterministic under an injected clock:
  :class:`DecayedCounter` halves on schedule, :class:`AccessLog` keeps
  per-digest read rates, a per-name EWMA step cost and snapshot byte
  estimates, and :func:`split_byte_budget` water-fills a global byte
  budget by hit-rate-per-byte (never granting a kind more than it uses);
* :class:`FixedIntervalPolicy` reproduces the exact ``checkpoint_every``
  trailing-run semantics, and passing both an interval and a policy to
  the pool (or the server) fails loudly;
* :class:`AdaptiveCheckpointPolicy` promotes a checkpoint at a hot deep
  chain position after a measured replay, respects ``min_distance``,
  feeds observed snapshot bytes back, demotes a checkpoint whose decayed
  read rate falls below ``demote_below`` — and never demotes the head;
  it prices a checkpoint load in replayed deltas from measured load and
  step costs, so a read, single or in a range walk, replays from the
  head when that is cheaper, load time never counts as replay time, and
  a position read from memory earns a checkpoint only when its replay
  costs more than a load; a read whose checkpoint fails to load reports
  the distance it replayed from the head, and the failed load is no
  sample of the load cost;
* stores expose ``bytes`` in ``stats()`` (and through
  ``SolverPool.cache_stats``), age GC reads the injected clock, and
  byte-bounded GC evicts cold entries first while **pinned live-head
  snapshot/calibration entries survive any budget** (unpinned ancestor
  selector/decomposition entries go first);
* delta-record compaction is off by default, warns loudly when enabled,
  keeps compacted chains coherent across restarts (``repro history``
  renders them; checkpointed digests stay materialisable) and fails
  loudly when a compacted-away ancestor is requested;
* the ``repro gc`` command prints the per-kind budget split and the
  eviction counts as JSON, honouring ``--pin``.
"""

import json
import pickle
import time
import warnings

import pytest

from repro.cli import main
from repro.db import Database, Delta, PrimaryKeySet, fact
from repro.db.lineage import LineageRecord
from repro.engine import CountJob, SolverPool
from repro.engine.cache_coordinator import CacheCoordinator
from repro.errors import EngineError, LineageError, ServerError
from repro.server import AsyncServer
from repro.store import (
    AccessLog,
    AdaptiveCheckpointPolicy,
    CheckpointDecision,
    DecayedCounter,
    FixedIntervalPolicy,
    ManualClock,
    SnapshotStore,
    split_byte_budget,
)

_QUERY = "EXISTS x, y. R(x, 'a', y)"


def _chain_pool(tmp_path, deltas=10, checkpoints=(), **kwargs):
    """A persisted pool whose single database has ``deltas`` versions.

    The head is checkpointed whenever the chain reaches a position in
    ``checkpoints``.
    """
    database = Database(
        [fact("R", 1, "a", "x"), fact("R", 1, "b", "x"), fact("R", 2, "a", "y")]
    )
    keys = PrimaryKeySet.from_dict({"R": [1]})
    pool = SolverPool(persist_dir=tmp_path / "store", **kwargs)
    pool.register("live", database, keys)
    digests = [pool.snapshot_token("live")[0]]
    for step in range(deltas):
        value = "a" if step % 2 == 0 else "b"
        pool.apply_delta(
            "live", Delta(inserted=[fact("R", 10 + step, value, f"z{step}")])
        )
        digests.append(pool.snapshot_token("live")[0])
        if step + 1 in checkpoints:
            pool.checkpoint("live")
    return pool, keys, digests


def _reopen(tmp_path, source_pool, **kwargs):
    """A fresh pool over the same store, registered at the same head.

    A fresh pool's in-memory snapshot LRU holds only the head, so deep
    ``as_of`` reads actually replay — the condition the adaptive policy
    observes.
    """
    database, keys = source_pool.lookup("live")
    pool = SolverPool(persist_dir=tmp_path / "store", **kwargs)
    pool.register("live", database, keys)
    return pool


# ---------------------------------------------------------------------- #
# observation layer
# ---------------------------------------------------------------------- #
class TestDecayedCounter:
    def test_halves_every_half_life(self):
        clock = ManualClock(0.0)
        counter = DecayedCounter(half_life=10.0, clock=clock)
        counter.add()
        counter.add()
        assert counter.value() == pytest.approx(2.0)
        clock.advance(10.0)
        assert counter.value() == pytest.approx(1.0)
        clock.advance(20.0)
        assert counter.value() == pytest.approx(0.25)

    def test_mass_deposited_at_current_time(self):
        clock = ManualClock(0.0)
        counter = DecayedCounter(half_life=10.0, clock=clock)
        counter.add()
        clock.advance(10.0)
        counter.add()  # old mass halved, fresh mass undecayed
        assert counter.value() == pytest.approx(1.5)

    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(ValueError):
            DecayedCounter(half_life=0.0)


class TestAccessLog:
    def test_read_rates_are_per_digest_and_decay(self):
        clock = ManualClock(0.0)
        log = AccessLog(half_life=10.0, clock=clock)
        log.record_read("live", "aa", distance=3, elapsed=0.3)
        log.record_read("live", "aa", distance=0, elapsed=0.0)
        log.record_read("live", "bb", distance=0, elapsed=0.0)
        assert log.read_rate("live", "aa") == pytest.approx(2.0)
        assert log.read_rate("live", "bb") == pytest.approx(1.0)
        assert log.read_rate("live", "cc") == 0.0
        clock.advance(10.0)
        assert log.read_rate("live", "aa") == pytest.approx(1.0)
        assert sorted(log.digests_read("live")) == ["aa", "bb"]

    def test_step_cost_ewma_ignores_zero_distance(self):
        log = AccessLog(clock=ManualClock())
        log.record_read("live", "aa", distance=4, elapsed=0.4)
        assert log.step_cost("live") == pytest.approx(0.1)
        log.record_read("live", "aa", distance=0, elapsed=9.9)  # cache hit
        assert log.step_cost("live") == pytest.approx(0.1)
        log.record_read("live", "aa", distance=2, elapsed=0.4)
        assert log.step_cost("live") == pytest.approx(0.7 * 0.1 + 0.3 * 0.2)

    def test_load_steps_price_a_load_in_replayed_deltas(self):
        log = AccessLog(clock=ManualClock())
        log.record_load("live", 0.5)
        assert log.load_steps("live") == 0.0  # no replay measured yet
        log.record_read("live", "aa", distance=4, elapsed=0.4)
        assert log.load_cost("live") == pytest.approx(0.5)
        assert log.load_steps("live") == pytest.approx(5.0)
        log.record_load("live", 1.0)
        assert log.load_cost("live") == pytest.approx(0.7 * 0.5 + 0.3 * 1.0)

    def test_byte_estimate_is_running_mean(self):
        log = AccessLog(clock=ManualClock())
        assert log.byte_estimate("live") == 0.0
        log.record_snapshot_bytes("live", 100)
        log.record_snapshot_bytes("live", 300)
        assert log.byte_estimate("live") == pytest.approx(200.0)

    def test_modeled_saving_composes_the_three_signals(self):
        log = AccessLog(clock=ManualClock())
        log.record_read("live", "aa", distance=5, elapsed=0.5)
        # rate 1.0 x distance 8 x step cost 0.1
        assert log.modeled_saving("live", "aa", 8) == pytest.approx(0.8)


class TestSplitByteBudget:
    def test_proportional_to_hit_rate_per_byte(self):
        split = split_byte_budget(100, {"a": (9.0, 30), "b": (1.0, 1000)})
        assert split == {"a": 30, "b": 70}

    def test_water_filling_caps_at_current_usage(self):
        split = split_byte_budget(100, {"hot": (10.0, 50), "cold": (0.1, 500)})
        assert split == {"hot": 50, "cold": 50}

    def test_no_hits_falls_back_to_size_proportional(self):
        split = split_byte_budget(300, {"a": (0.0, 100), "b": (0.0, 200)})
        assert split == {"a": 100, "b": 200}

    def test_zero_budget_and_empty_kinds(self):
        assert split_byte_budget(0, {"a": (1.0, 10)}) == {"a": 0}
        assert split_byte_budget(50, {"a": (1.0, 0)}) == {"a": 0}
        assert split_byte_budget(50, {}) == {}

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            split_byte_budget(-1, {"a": (1.0, 10)})


# ---------------------------------------------------------------------- #
# policies
# ---------------------------------------------------------------------- #
class TestFixedIntervalPolicy:
    def test_trailing_run_semantics(self):
        policy = FixedIntervalPolicy(3)
        kinds = ("register", "delta", "delta", "delta")
        assert policy.after_delta("live", kinds, set()).checkpoint_head
        # A checkpointed position restarts the count...
        assert not policy.after_delta("live", kinds, {3}).checkpoint_head
        # ...and so does a non-delta record.
        mixed = ("register", "delta", "rollback", "delta", "delta")
        assert not policy.after_delta("live", mixed, set()).checkpoint_head

    def test_reads_are_inert(self):
        policy = FixedIntervalPolicy(1)
        decision = policy.after_read("live", "hh", "aa", set(), 9, 1.0)
        assert not decision

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalPolicy(0)

    def test_pool_rejects_interval_plus_policy(self, tmp_path):
        with pytest.raises(EngineError, match="not both"):
            SolverPool(
                persist_dir=tmp_path / "store",
                checkpoint_every=2,
                checkpoint_policy=FixedIntervalPolicy(2),
            )

    def test_server_rejects_interval_plus_policy(self, tmp_path):
        with pytest.raises(ServerError, match="not both"):
            AsyncServer(
                persist_dir=tmp_path / "store",
                checkpoint_every=2,
                checkpoint_policy=FixedIntervalPolicy(2),
            )


class TestAdaptiveCheckpointPolicy:
    def test_policies_pickle_for_shard_initargs(self):
        policy = AdaptiveCheckpointPolicy(byte_cost=0.5, min_distance=3)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.byte_cost == 0.5
        assert clone.min_distance == 3

    def test_promotes_hot_deep_read_and_observes_bytes(self, tmp_path):
        pool, _, digests = _chain_pool(tmp_path)
        clock = ManualClock(time.time())
        policy = AdaptiveCheckpointPolicy(
            byte_cost=0.0, min_distance=2, clock=clock
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        deep = digests[3]
        fresh.materialise("live", deep)
        placed = fresh.checkpoints("live")
        assert [record.digest for record in placed] == [deep]
        # The actual stored entry size was fed back to the cost model.
        assert policy.log.byte_estimate("live") > 0

    def test_min_distance_keeps_near_head_reads_uncheckpointed(self, tmp_path):
        pool, _, digests = _chain_pool(tmp_path)
        policy = AdaptiveCheckpointPolicy(
            min_distance=4, clock=ManualClock(time.time())
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        fresh.materialise("live", digests[-2])  # distance 1 from the head
        assert fresh.checkpoints("live") == ()

    def test_demotes_decayed_checkpoint_but_never_head(self, tmp_path):
        pool, _, digests = _chain_pool(tmp_path)
        clock = ManualClock(time.time())
        policy = AdaptiveCheckpointPolicy(
            min_distance=2, demote_below=0.05, half_life=10.0, clock=clock
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        fresh.materialise("live", digests[3])
        assert [record.digest for record in fresh.checkpoints("live")] == [
            digests[3]
        ]
        clock.advance(1000.0)  # the digest-3 rate decays to ~nothing
        fresh.materialise("live", digests[5])
        placed = [record.digest for record in fresh.checkpoints("live")]
        assert digests[3] not in placed
        assert digests[5] in placed
        # Demotion dropped the snapshot entry, not just the marker.
        store = SnapshotStore(tmp_path / "store")
        assert not store.contains((digests[3], fresh.snapshot_token("live")[1]))

    def test_explicit_checkpoints_are_never_demoted(self, tmp_path):
        pool, _, digests = _chain_pool(tmp_path)
        clock = ManualClock(time.time())
        policy = AdaptiveCheckpointPolicy(
            min_distance=2, demote_below=10.0, half_life=10.0, clock=clock
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        fresh.checkpoint("live")  # operator-cut head checkpoint
        clock.advance(1000.0)
        fresh.materialise("live", digests[3])
        placed = [record.digest for record in fresh.checkpoints("live")]
        assert digests[-1] in placed  # the head checkpoint stayed put

    def test_measured_loads_route_reads_and_stay_out_of_step_cost(
        self, tmp_path, monkeypatch
    ):
        pool, _, digests = _chain_pool(tmp_path, deltas=16, checkpoint_every=8)
        # min_distance keeps the checkpoint layout (8 and the head, 16) fixed.
        policy = AdaptiveCheckpointPolicy(
            min_distance=100, clock=ManualClock(time.time())
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        loads = []
        load = CacheCoordinator.load_checkpoint

        def slow_load(self, token):
            loads.append(token)
            time.sleep(0.05)
            return load(self, token)

        monkeypatch.setattr(CacheCoordinator, "load_checkpoint", slow_load)
        replays = []
        apply_delta = Database.apply_delta
        monkeypatch.setattr(
            Database,
            "apply_delta",
            lambda self, delta: replays.append(delta) or apply_delta(self, delta),
        )
        # Cold, the checkpoint at 8 is 2 deltas from 6, the head 10.
        fresh.materialise("live", digests[6])
        assert (len(loads), len(replays)) == (1, 2)
        assert policy.log.load_cost("live") >= 0.05
        assert policy.log.step_cost("live") < 0.01  # the load is not replay
        # Now a load is priced above the 6 deltas from 10 to the head.
        fresh.materialise("live", digests[10])
        assert (len(loads), len(replays)) == (1, 8)
        # Range walks take the same price: 5 deltas from the head to 11
        # beat loading the checkpoint 3 deltas away.
        fresh.materialise_range("live", [digests[11]])
        assert (len(loads), len(replays)) == (1, 13)

    def test_a_lost_checkpoint_reports_the_replayed_distance(
        self, tmp_path, monkeypatch
    ):
        pool, _, digests = _chain_pool(tmp_path, deltas=11, checkpoints=(2,))
        for path in (tmp_path / "store").glob("*.snp"):
            path.unlink()  # the checkpoint at 2 loses its snapshot entry
        policy = AdaptiveCheckpointPolicy(
            min_distance=100, clock=ManualClock(time.time())
        )
        fresh = _reopen(tmp_path, pool, checkpoint_policy=policy)
        distances = []
        after_read = policy.after_read

        def observed(*args, **kwargs):
            distances.append(args[4])
            return after_read(*args, **kwargs)

        monkeypatch.setattr(policy, "after_read", observed)
        # The checkpoint 1 delta from 3 fails to load, so the read
        # replays the 8 deltas from the head, and the failed attempt is
        # no sample of what a load costs.
        fresh.materialise("live", digests[3])
        assert distances == [8]
        assert policy.log.load_cost("live") == 0.0

    def test_cut_rule_weighs_a_measured_load(self):
        policy = AdaptiveCheckpointPolicy(min_distance=1, clock=ManualClock(0.0))

        def promoted(digest, distance, loads=()):
            decision = policy.after_read(
                "live", "hh", digest, set(), distance, distance * 0.001, loads=loads
            )
            return decision.promote == (digest,)

        assert promoted("aa", 4)  # no load measured yet: any replay pays
        # A read that loaded a checkpoint would save its whole replay.
        assert promoted("bb", 2, loads=(0.010,))
        # Read from memory, 5 ms of replay cannot pay for a 10 ms load,
        assert not promoted("cc", 5)
        # but 20 ms can.
        assert promoted("dd", 20)

    def test_decision_truthiness(self):
        assert not CheckpointDecision()
        assert CheckpointDecision(promote=("aa",))
        assert CheckpointDecision(checkpoint_head=True)


# ---------------------------------------------------------------------- #
# byte accounting and GC
# ---------------------------------------------------------------------- #
class TestByteAwareGc:
    def test_stats_expose_bytes_per_layer(self, tmp_path):
        pool, keys, _ = _chain_pool(tmp_path, deltas=2)
        pool.run([CountJob(database="live", query=_QUERY)])
        stats = pool.cache_stats()
        for layer in ("selectors-disk", "decomposition-disk"):
            assert stats[layer]["bytes"] > 0
        assert stats["snapshots-disk"]["bytes"] == 0

    def test_age_gc_reads_the_injected_clock(self, tmp_path):
        clock = ManualClock(time.time())
        store = SnapshotStore(tmp_path / "snaps", clock=clock)
        database = Database([fact("R", 1, "a", "x")]).freeze()
        keys = PrimaryKeySet.from_dict({"R": [1]})
        token = (database.content_digest(), keys.content_digest())
        assert store.store(token, database)
        assert store.collect_garbage(max_age_seconds=3600.0) == 0
        clock.advance(7200.0)  # no real time passes, only the clock moves
        assert store.collect_garbage(max_age_seconds=3600.0) == 1
        assert store.entry_count() == 0

    def test_collect_bytes_evicts_cold_entries_first(self, tmp_path):
        clock = ManualClock(time.time() + 60.0)
        store = SnapshotStore(tmp_path / "snaps", clock=clock)
        keys = PrimaryKeySet.from_dict({"R": [1]})
        tokens = []
        for step in range(3):
            database = Database([fact("R", 1, "a", f"v{step}")]).freeze()
            token = (database.content_digest(), keys.content_digest())
            assert store.store(token, database)
            tokens.append(token)
        # Loading refreshes recency through the clock, so the untouched
        # entries are the cold ones the byte budget evicts.
        assert store.load(tokens[0]) is not None
        budget = store.backend.size(store.entry_name(tokens[0])) or 0
        assert store.collect_bytes(budget) == 2
        assert store.contains(tokens[0])
        assert not store.contains(tokens[1])
        assert store.decayed_hit_rate() > 0

    def test_pinned_live_entries_survive_any_budget(self, tmp_path):
        """Satellite guarantee: a starvation budget evicts unpinned
        selector/decomposition entries of ancestors, never the pinned
        live head's snapshot or calibration entries."""
        pool, keys, digests = _chain_pool(tmp_path, deltas=3)
        job = CountJob(database="live", query=_QUERY)
        pool.run([job])  # head selector/decomposition entries (pinned)
        pool.checkpoint("live")  # head *.snp entry (pinned)
        pool.calibrate_from(
            [
                CountJob(
                    database="live",
                    query=_QUERY,
                    method="fpras",
                    epsilon=0.5,
                    delta=0.2,
                    seed=11,
                )
            ]
        )  # head *.cal entry (pinned)
        stats = pool.cache_stats()
        assert stats["snapshots-disk"]["entries"] == 1
        assert stats["calibration-disk"]["entries"] >= 1
        cal_entries = stats["calibration-disk"]["entries"]
        head_token = pool.snapshot_token("live")

        evictions = pool.collect_garbage(max_bytes=1)  # starvation budget
        after = pool.cache_stats()
        # Ancestor-token derived entries (unpinned) were evicted...
        assert evictions["decomposition-disk"] > 0
        assert after["decomposition-disk"]["entries"] < stats[
            "decomposition-disk"
        ]["entries"]
        # ...while every pinned live-head entry survived.
        assert after["snapshots-disk"]["entries"] == 1
        assert after["calibration-disk"]["entries"] == cal_entries
        store = SnapshotStore(tmp_path / "store")
        assert store.contains(head_token)
        # Post-GC, counts against the head recompute nothing.
        before = pool.selector_recomputations
        pool.run([job])
        assert pool.selector_recomputations == before

    def test_plan_byte_budget_shape(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=2)
        pool.run([CountJob(database="live", query=_QUERY)])
        plan = pool.plan_byte_budget(10_000)
        assert set(plan) == {
            "selectors-disk",
            "decomposition-disk",
            "snapshots-disk",
            "calibration-disk",
        }
        for share in plan.values():
            assert set(share) == {"bytes", "hit_rate", "budget"}
            assert share["budget"] <= share["bytes"] or share["bytes"] == 0
        total = sum(share["budget"] for share in plan.values())
        assert total <= 10_000

    def test_configured_byte_budget_applies_on_plain_gc(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=3)
        pool.run([CountJob(database="live", query=_QUERY)])
        database, keys = pool.lookup("live")
        bounded = SolverPool(
            persist_dir=tmp_path / "store", persist_max_bytes=1
        )
        bounded.register("live", database, keys)
        evictions = bounded.collect_garbage()
        assert sum(evictions.values()) > 0


# ---------------------------------------------------------------------- #
# compaction
# ---------------------------------------------------------------------- #
class TestCompaction:
    def test_checkpoint_does_not_compact_by_default(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silence is part of the contract
            pool.checkpoint("live")
        assert all(
            record.delta is not None
            for record in pool.lineage("live")
            if record.kind == "delta"
        )

    def test_compact_warns_and_releases_payloads(self, tmp_path):
        pool, _, _ = _chain_pool(tmp_path, deltas=4)
        with pytest.warns(UserWarning, match="compacted 4 delta record"):
            pool.checkpoint("live", compact=True)
        for record in pool.lineage("live"):
            if record.kind == "delta":
                assert record.delta is None
                assert record.compacted == (1, 0)
        payload = pool.lineage("live").head.to_json()
        assert payload["compacted"] is True
        assert (payload["inserted"], payload["deleted"]) == (1, 0)

    def test_compacted_chain_coheres_across_restart(self, tmp_path):
        pool, _, digests = _chain_pool(tmp_path, deltas=4)
        mid = digests[2]
        pool.checkpoint("live")
        fresh = _reopen(tmp_path, pool)
        fresh.materialise("live", mid)  # reachable pre-compaction
        with pytest.warns(UserWarning, match="compacted"):
            fresh.checkpoint("live", compact=True)
        reread = _reopen(tmp_path, pool)
        chain = reread.lineage("live")
        assert all(
            record.delta is None
            for record in chain
            if record.kind == "delta"
        )
        # The checkpointed head still materialises (snapshot entry)...
        database, _, _ = reread.materialise("live", digests[-1])
        assert database.content_digest() == digests[-1]
        # ...but a compacted-away ancestor fails loudly, never wrongly.
        with pytest.raises(LineageError, match="no recorded delta chain"):
            reread.materialise("live", mid)

    def test_old_pickled_records_gain_compacted_none(self):
        record = LineageRecord(
            "live", 0, "a" * 64, "b" * 64, None, "register", None, 0.0
        )
        state = dict(record.__dict__)
        del state["compacted"]  # a record pickled before the field existed
        revived = LineageRecord.__new__(LineageRecord)
        revived.__setstate__(state)
        assert revived.compacted is None
        assert revived.digest == record.digest

    def test_compact_requires_replayable_delta(self):
        record = LineageRecord(
            "live", 0, "a" * 64, "b" * 64, None, "register", None, 0.0
        )
        with pytest.raises(LineageError):
            record.compact()

    def test_history_cli_renders_compacted_ranges(self, tmp_path, capsys):
        pool, _, _ = _chain_pool(tmp_path, deltas=3)
        with pytest.warns(UserWarning):
            pool.checkpoint("live", compact=True)
        assert main(
            ["history", "live", "--persist-cache", str(tmp_path / "store")]
        ) == 0
        output = capsys.readouterr().out
        assert "(+1/-0)" in output
        assert "compacted: 3 record(s)" in output
        # JSON lines stay parseable and flag the compacted records.
        assert main(
            [
                "history",
                "live",
                "--persist-cache",
                str(tmp_path / "store"),
                "--json-lines",
            ]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert sum(1 for line in lines if line.get("compacted")) == 3


# ---------------------------------------------------------------------- #
# the gc command
# ---------------------------------------------------------------------- #
class TestGcCommand:
    def test_reports_split_and_evictions_as_json(self, tmp_path, capsys):
        pool, _, _ = _chain_pool(tmp_path, deltas=3)
        pool.run([CountJob(database="live", query=_QUERY)])
        pool.checkpoint("live")
        store = str(tmp_path / "store")
        assert main(["gc", "--persist-cache", store, "--max-bytes", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document["layers"]) == {
            "selectors-disk",
            "decomposition-disk",
            "snapshots-disk",
            "calibration-disk",
        }
        assert document["evicted"] > 0
        for layer in document["layers"].values():
            assert set(layer) == {"bytes", "hit_rate", "budget", "evicted"}
        # Without --pin, even the head checkpoint entry was fair game.
        assert document["layers"]["snapshots-disk"]["evicted"] == 1

    def test_pin_exempts_the_recorded_head(self, tmp_path, capsys):
        pool, _, _ = _chain_pool(tmp_path, deltas=3)
        pool.checkpoint("live")
        head_token = pool.snapshot_token("live")
        store = str(tmp_path / "store")
        assert main(
            [
                "gc",
                "--persist-cache",
                store,
                "--max-bytes",
                "1",
                "--pin",
                "live",
            ]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["pinned"] == ["live"]
        assert document["layers"]["snapshots-disk"]["evicted"] == 0
        assert SnapshotStore(tmp_path / "store").contains(head_token)

    def test_requires_a_bound_and_a_known_pin(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        (tmp_path / "store").mkdir()
        assert main(["gc", "--persist-cache", store]) == 2
        assert "at least one bound" in capsys.readouterr().err
        assert main(
            ["gc", "--persist-cache", store, "--max-bytes", "1", "--pin", "x"]
        ) == 2
        assert "no recorded lineage" in capsys.readouterr().err
