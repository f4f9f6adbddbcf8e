"""Tests for the layered engine core behind the :class:`SolverPool` facade.

The decomposition contract: ``repro.engine`` is four stacked modules —
registry, cache coordinator, lineage service, executor — and each layer
is usable on its own, without the facade.  These tests drive the layers
directly (the facade's behaviour is pinned by the pre-existing
``test_engine_*`` / ``test_time_travel`` / ``test_server`` suites, which
this PR keeps passing unmodified) and pin the facade's delegation
boundaries: the pool holds *no* engine state of its own.
"""

import pickle

import pytest

from repro.db import Block, Database, Delta, PrimaryKeySet, fact
from repro.engine import (
    CacheCoordinator,
    CountJob,
    JobExecutor,
    LineageService,
    SnapshotRegistry,
    SolverPool,
)
from repro.errors import EngineError, FrozenDatabaseError
from repro.lams import union_of_boxes


def _instance():
    database = Database(
        [fact("R", 1, "a", "x"), fact("R", 1, "b", "x"), fact("R", 2, "a", "y")]
    )
    return database, PrimaryKeySet.from_dict({"R": [1]})


def _stack(**coordinator_kwargs):
    registry = SnapshotRegistry()
    caches = CacheCoordinator(**coordinator_kwargs)
    lineage = LineageService(registry, caches)
    executor = JobExecutor(registry, caches, lineage)
    return registry, caches, lineage, executor


class TestSnapshotRegistry:
    def test_register_freezes_and_reports_displacement(self):
        database, keys = _instance()
        registry = SnapshotRegistry()
        token, displaced = registry.register("live", database, keys)
        assert displaced is None
        assert registry.token("live") == token
        with pytest.raises(FrozenDatabaseError):
            database.add(fact("R", 9, "q", "q"))

        other = Database([fact("R", 5, "c", "z")])
        _, displaced = registry.register("live", other, keys)
        assert displaced == token  # content changed: old token handed back
        _, displaced = registry.register("live", other, keys)
        assert displaced is None  # identical content displaces nothing

    def test_unknown_names_fail_loudly(self):
        registry = SnapshotRegistry()
        with pytest.raises(EngineError, match="unknown database"):
            registry.lookup("ghost")
        with pytest.raises(EngineError, match="non-empty name"):
            registry.register("", *_instance())

    def test_live_tokens_cover_every_head(self):
        database, keys = _instance()
        registry = SnapshotRegistry()
        registry.register("a", database, keys)
        registry.register("b", Database(database.facts()), keys)
        assert len(registry.names()) == 2
        assert set(registry.live_tokens()) == {registry.token("a")}  # shared


class TestLayeredExecution:
    def test_the_stack_answers_jobs_without_the_facade(self):
        database, keys = _instance()
        registry, caches, lineage, executor = _stack()
        token, _ = registry.register("live", database, keys)
        lineage.record_head("live", token, kind="register")

        job = CountJob(database="live", query="EXISTS x, y. R(x, 'a', y)")
        first = executor.run_job(job)
        second = executor.run_job(job)
        assert first.count_fields()[1:] == second.count_fields()[1:]
        assert "selectors" in second.cache_hits

        # ...bit-identically to the facade over the same instance.
        pool = SolverPool()
        pool.register("live", Database(database.facts()), keys)
        assert pool.run_job(job).count_fields() == first.count_fields()

    @pytest.mark.parametrize("method", ["certificate", "inclusion-exclusion"])
    def test_a_warm_job_does_no_work_per_block(self, monkeypatch, method):
        """A warm exact job costs O(#certificates), not O(#blocks).

        1,000 two-fact blocks, three of which also hold a 'hot' fact the
        query asks for: the decomposition keeps its sizes and total, so
        the second run neither re-measures a block nor multiplies the
        sizes of blocks no certificate pins.  Forced inclusion–exclusion
        over every block multiplies each block size once, for the whole
        space, and carries that product down its intersections.
        """
        blocks = 1000
        hot = (1, 2, 3)
        facts = [fact("R", i, tag, "x") for i in range(blocks) for tag in ("a", "b")]
        facts += [fact("R", i, "hot", "x") for i in hot]
        registry, caches, lineage, executor = _stack()
        token, _ = registry.register(
            "wide", Database(facts), PrimaryKeySet.from_dict({"R": [1]})
        )
        lineage.record_head("wide", token, kind="register")
        job = CountJob(
            database="wide", query="EXISTS x, y. R(x, 'hot', y)", method=method
        )
        first = executor.run_job(job)

        lengths = []
        real_len = Block.__len__

        def counting_len(block):
            lengths.append(block.key_value)
            return real_len(block)

        factors = []
        real_product = union_of_boxes._product

        def counting_product(values):
            values = list(values)
            factors.extend(values)
            return real_product(values)

        monkeypatch.setattr(Block, "__len__", counting_len)
        monkeypatch.setattr(union_of_boxes, "_product", counting_product)
        second = executor.run_job(job)

        assert second.count_fields()[1:] == first.count_fields()[1:]
        cold = 2 ** (blocks - len(hot))
        assert second.total == cold * 3 ** len(hot)
        assert second.satisfying == second.total - cold * 2 ** len(hot)
        assert lengths == []
        if method == "certificate":
            assert len(factors) <= 2 * len(hot)
        else:
            assert len(factors) <= blocks

    def test_kept_results_are_slotted_and_share_their_provenance(self):
        """A caller that keeps every result pays for no per-result dict
        and no per-result label tuples; results still pickle."""
        database, keys = _instance()
        registry, caches, lineage, executor = _stack()
        token, _ = registry.register("live", database, keys)
        lineage.record_head("live", token, kind="register")
        job = CountJob(database="live", query="EXISTS x, y. R(x, 'a', y)")
        executor.run_job(job)
        first, second = executor.run_job(job), executor.run_job(job)

        anytime = executor.run_job(
            CountJob(
                database="live", query="EXISTS x, y. R(x, 'a', y)",
                method="fpras", epsilon=0.5, delta=0.3, seed=1, anytime=True,
            )
        )
        assert anytime.samples is not None and anytime.stop_reason is not None

        for result in (first, second, anytime):
            assert not hasattr(result, "__dict__")
            restored = pickle.loads(pickle.dumps(result))
            assert restored == result
            assert type(restored) is type(result)
        assert first.cache_hits is second.cache_hits

    def test_apply_delta_records_history_through_the_lineage_layer(self):
        database, keys = _instance()
        registry, caches, lineage, executor = _stack()
        token, _ = registry.register("live", database, keys)
        lineage.record_head("live", token, kind="register")

        report = executor.apply_delta(
            "live", Delta(inserted=[fact("R", 7, "a", "w")])
        )
        assert report.inserted == 1
        chain = lineage.lineage("live")
        assert [record.kind for record in chain] == ["register", "delta"]
        assert registry.token("live")[0] == chain.head.digest

    def test_facade_delegates_instead_of_owning_state(self):
        """The pool is a facade: its engine state lives in the four layers."""
        pool = SolverPool()
        component_types = (
            SnapshotRegistry, CacheCoordinator, LineageService, JobExecutor,
        )
        components = {
            name: value
            for name, value in vars(pool).items()
            if isinstance(value, component_types)
        }
        assert len(components) == 4
        # Nothing but the four layer objects hangs off the facade.
        assert set(vars(pool)) == set(components)


class TestCacheCoordinatorStandalone:
    def test_decomposition_provenance_labels(self, tmp_path):
        database, keys = _instance()
        database.freeze()
        token = (database.content_digest(), keys.content_digest())
        caches = CacheCoordinator(persist_dir=tmp_path)
        assert caches.decomposition(token, database, keys)[1] == "computed"
        assert caches.decomposition(token, database, keys)[1] == "memory"
        # A second coordinator over the same store loads from disk.
        fresh = CacheCoordinator(persist_dir=tmp_path)
        assert fresh.decomposition(token, database, keys)[1] == "disk"
        assert fresh.decomposition_recomputations == 0

    def test_checkpoint_snapshots_round_trip(self, tmp_path):
        database, keys = _instance()
        database.freeze()
        token = (database.content_digest(), keys.content_digest())
        caches = CacheCoordinator(persist_dir=tmp_path)
        assert caches.store_checkpoint(token, database)
        assert caches.load_checkpoint(token) == database
        assert CacheCoordinator().store_checkpoint(token, database) is False
