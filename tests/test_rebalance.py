"""Tests for elastic shard ownership (``repro.server.rebalance``).

What is pinned here:

* the :class:`GreedyRebalancer` policy is a pure, deterministic function
  of a :class:`LoadSnapshot` — it triggers only past ``max_imbalance``,
  never relocates a hotspot made of one monolithic name, and breaks ties
  stably;
* :meth:`AsyncServer.move` performs a *live* ownership handoff whose
  results stay bit-identical to a sequential
  :meth:`SolverPool.run_stream` of the same stream, even with the move
  landing mid-stream;
* every routing change — registration, move, ``add_shard``,
  ``remove_shard`` — bumps :attr:`AsyncServer.routing_version`, and
  plain dispatches never do, so cached shard assignments are detectably
  stale;
* a handoff over a shared persistent store is *warm*: the destination
  shard answers without a single selector or decomposition
  recomputation;
* misuse is loud: unknown shards and conflicting moves raise
  :class:`RebalanceError`, removing the last shard refuses;
* a moved name takes its load along, live or stopped, so a shard's
  counters are always the sums over the names it owns and a rebalancing
  loop settles instead of draining every name onto one shard.
"""

import asyncio

import pytest

from repro.engine import CountJob, SolverPool
from repro.errors import EngineError, RebalanceError
from repro.server import (
    AsyncServer,
    GreedyRebalancer,
    LoadSnapshot,
    Move,
    NameLoad,
    ShardLoad,
)
from repro.workloads import employee_example, serve_workload

_EMPLOYEE_QUERY = "EXISTS x, y, z . (Employee(1, x, y) AND Employee(2, z, y))"


def _snapshot(shard_names, name_weights):
    """Build a LoadSnapshot from {shard: [names]} and {name: busy_time}."""
    placement = {
        name: shard for shard, names in shard_names.items() for name in names
    }
    names = tuple(
        NameLoad(
            name=name,
            shard=placement[name],
            dispatched=int(weight),
            completed=int(weight),
            in_flight=0,
            busy_time=float(weight),
        )
        for name, weight in sorted(name_weights.items())
    )
    shards = tuple(
        ShardLoad(
            shard=shard,
            names=tuple(sorted(owned)),
            dispatched=sum(int(name_weights[n]) for n in owned),
            completed=sum(int(name_weights[n]) for n in owned),
            in_flight=0,
            queue_depth=0,
            busy_time=float(sum(name_weights[n] for n in owned)),
        )
        for shard, owned in sorted(shard_names.items())
    )
    return LoadSnapshot(shards=shards, names=names)


class TestGreedyRebalancer:
    def test_moves_the_hottest_name_to_the_coldest_shard(self):
        snapshot = _snapshot(
            {0: ["hot", "warm"], 1: ["cold"], 2: []},
            {"hot": 8.0, "warm": 3.0, "cold": 1.0},
        )
        moves = GreedyRebalancer(max_imbalance=1.5).propose(snapshot)
        assert moves == (Move(name="hot", source=0, destination=2),)

    def test_below_threshold_proposes_nothing(self):
        snapshot = _snapshot(
            {0: ["a"], 1: ["b"]}, {"a": 5.0, "b": 4.0}
        )
        assert GreedyRebalancer(max_imbalance=2.0).propose(snapshot) == ()

    def test_monolithic_hotspot_is_left_alone(self):
        # One name carries the whole hot shard: moving it only relocates
        # the hotspot, so the policy must decline.
        snapshot = _snapshot(
            {0: ["whale"], 1: ["minnow"]}, {"whale": 99.0, "minnow": 1.0}
        )
        assert GreedyRebalancer(max_imbalance=1.2).propose(snapshot) == ()

    def test_single_shard_never_rebalances(self):
        snapshot = _snapshot({0: ["a", "b"]}, {"a": 9.0, "b": 1.0})
        assert GreedyRebalancer(max_imbalance=1.0).propose(snapshot) == ()

    def test_idle_snapshot_proposes_nothing(self):
        snapshot = _snapshot({0: ["a"], 1: []}, {"a": 0.0})
        assert GreedyRebalancer(max_imbalance=1.0).propose(snapshot) == ()

    def test_proposals_are_deterministic(self):
        snapshot = _snapshot(
            {0: ["a", "b", "c"], 1: ["d"], 2: []},
            {"a": 4.0, "b": 4.0, "c": 2.0, "d": 1.0},
        )
        policy = GreedyRebalancer(max_imbalance=1.1, moves_per_round=2)
        first = policy.propose(snapshot)
        assert first == policy.propose(snapshot)
        # Equal-weight names break lexicographically.
        assert first[0].name == "a"

    def test_falls_back_to_dispatch_counts_before_any_busy_time(self):
        names = (
            NameLoad("hot", 0, dispatched=9, completed=0, in_flight=9,
                     busy_time=0.0),
            NameLoad("tepid", 0, dispatched=3, completed=0, in_flight=3,
                     busy_time=0.0),
            NameLoad("cold", 1, dispatched=1, completed=0, in_flight=1,
                     busy_time=0.0),
        )
        shards = (
            ShardLoad(0, ("hot", "tepid"), dispatched=12, completed=0,
                      in_flight=12, queue_depth=11, busy_time=0.0),
            ShardLoad(1, ("cold",), dispatched=1, completed=0, in_flight=1,
                      queue_depth=0, busy_time=0.0),
        )
        snapshot = LoadSnapshot(shards=shards, names=names)
        assert not snapshot.uses_busy_time()
        moves = GreedyRebalancer(max_imbalance=1.5).propose(snapshot)
        assert moves == (Move(name="hot", source=0, destination=1),)

    def test_invalid_configuration_is_loud(self):
        with pytest.raises(RebalanceError, match="max_imbalance"):
            GreedyRebalancer(max_imbalance=0.5)
        with pytest.raises(RebalanceError, match="moves_per_round"):
            GreedyRebalancer(moves_per_round=0)


class TestRoutingVersion:
    def test_every_routing_change_bumps_the_version(self):
        registry, _ = serve_workload(jobs=1, databases=3, seed=2)
        server = AsyncServer(shards=2)
        seen = [server.routing_version]
        for name, (database, keys) in registry.items():
            server.register(name, database, keys)
            seen.append(server.routing_version)
        new_shard = server.add_shard()
        seen.append(server.routing_version)
        name = server.database_names()[0]
        if server.shard_of(name) != new_shard:
            assert asyncio.run(server.move(name, new_shard))
            seen.append(server.routing_version)
        asyncio.run(server.remove_shard(new_shard))
        seen.append(server.routing_version)
        # Strictly increasing: every change is observable.
        assert seen == sorted(set(seen))
        assert len(seen) == len(set(seen))

    def test_dispatch_does_not_bump_the_version(self):
        async def run():
            scenario = employee_example()
            server = AsyncServer(shards=2)
            server.register("emp", scenario.database, scenario.keys)
            async with server:
                before = server.routing_version
                await server.submit(
                    CountJob(database="emp", query=_EMPLOYEE_QUERY)
                )
                assert server.routing_version == before

        asyncio.run(run())

    def test_shard_of_reflects_a_completed_move(self):
        scenario = employee_example()
        server = AsyncServer(shards=2)
        server.register("emp", scenario.database, scenario.keys)
        source = server.shard_of("emp")
        target = next(s for s in server.shard_ids if s != source)
        assert asyncio.run(server.move("emp", target))  # cold move
        assert server.shard_of("emp") == target


class TestMove:
    def test_move_to_the_owning_shard_is_a_no_op(self):
        scenario = employee_example()
        server = AsyncServer(shards=2)
        server.register("emp", scenario.database, scenario.keys)
        before = server.routing_version
        assert asyncio.run(server.move("emp", server.shard_of("emp"))) is False
        assert server.routing_version == before

    def test_unknown_shard_and_name_are_loud(self):
        scenario = employee_example()
        server = AsyncServer(shards=2)
        server.register("emp", scenario.database, scenario.keys)
        with pytest.raises(RebalanceError, match="unknown shard"):
            asyncio.run(server.move("emp", 99))
        with pytest.raises(EngineError, match="unknown database"):
            asyncio.run(server.move("ghost", 0))

    def test_live_move_mid_stream_is_bit_identical_to_sequential(self):
        registry, stream = serve_workload(
            jobs=14, databases=3, seed=11, update_every=4
        )

        async def sharded():
            server = AsyncServer(shards=2, queue_limit=4)
            for name, (database, keys) in registry.items():
                server.register(name, database, keys)
            results = []
            async with server:
                midpoint = len(stream) // 2
                for index, item in enumerate(stream):
                    if index == midpoint:
                        source = server.shard_of("served-0")
                        target = next(
                            s for s in server.shard_ids if s != source
                        )
                        assert await server.move("served-0", target)
                        assert server.shard_of("served-0") == target
                    results.append(await server.submit(item, index))
            return results

        moved = asyncio.run(sharded())

        pool = SolverPool()
        for name, (database, keys) in registry.items():
            pool.register(name, database, keys)
        sequential = pool.run_stream(stream)
        expected = {
            result.index: (result.satisfying, result.total)
            for result in sequential.results
        }
        got = {
            result.index: (result.satisfying, result.total)
            for result in moved
            if hasattr(result, "satisfying")
        }
        assert got == expected
        assert len(expected) == sum(
            1 for item in stream if isinstance(item, CountJob)
        )

    def test_warm_handoff_recomputes_nothing(self, tmp_path):
        async def run():
            scenario = employee_example()
            server = AsyncServer(
                shards=2, queue_limit=8, persist_dir=str(tmp_path)
            )
            server.register("emp", scenario.database, scenario.keys)
            job = CountJob(
                database="emp", query=_EMPLOYEE_QUERY, method="certificate"
            )
            async with server:
                for index in range(4):
                    await server.submit(job, index)
                source = server.shard_of("emp")
                target = next(s for s in server.shard_ids if s != source)
                assert await server.move("emp", target)
                for index in range(4, 8):
                    await server.submit(job, index)
                stats = await server.stats()
                destination = stats["shards"][str(target)]
                assert destination["selector_recomputations"] == 0
                assert destination["decomposition_recomputations"] == 0
                handoff = destination["cache"]["handoff"]
                assert handoff["handoffs"] == 1
                assert handoff["warm_decompositions"] == 1
                # The source worker genuinely forgot the name.
                assert "emp" not in stats["shards"][str(source)]["databases"]
                assert stats["rebalance"]["moves"] == 1

        asyncio.run(run())

    def test_busy_time_accrues_into_the_load_accounting(self):
        async def run():
            scenario = employee_example()
            server = AsyncServer(shards=1)
            server.register("emp", scenario.database, scenario.keys)
            async with server:
                for index in range(3):
                    await server.submit(
                        CountJob(database="emp", query=_EMPLOYEE_QUERY), index
                    )
                snapshot = server.load_snapshot()
                (shard,) = snapshot.shards
                assert shard.dispatched == shard.completed == 3
                assert shard.in_flight == 0 and shard.queue_depth == 0
                assert shard.busy_time > 0
                (name,) = snapshot.names
                assert name.name == "emp" and name.completed == 3
                assert snapshot.uses_busy_time()

        asyncio.run(run())


def _assert_shard_load_is_its_names_load(snapshot):
    for shard in snapshot.shards:
        owned = [name for name in snapshot.names if name.shard == shard.shard]
        assert shard.busy_time == pytest.approx(sum(n.busy_time for n in owned))
        assert shard.dispatched == sum(n.dispatched for n in owned)
        assert shard.completed == sum(n.completed for n in owned)


class TestLoadFollowsAMovedName:
    def test_rebalancing_a_skewed_load_settles(self):
        # Every name starts on shard 0 and only shard 0 has worked.  A
        # moved name takes its load along, so the first move narrows the
        # gap and the loop stops with both shards serving; if the load
        # stayed behind, shard 0 would look hot until it owned nothing.
        policy = GreedyRebalancer(max_imbalance=1.2)

        async def run():
            scenario = employee_example()
            server = AsyncServer(shards=2)
            jobs = {"hot": 12, "warm-a": 3, "warm-b": 3}
            for name in jobs:
                server.register(name, scenario.database, scenario.keys)
                await server.move(name, 0)
            async with server:
                index = 0
                for name, count in jobs.items():
                    for _ in range(count):
                        job = CountJob(database=name, query=_EMPLOYEE_QUERY)
                        await server.submit(job, index)
                        index += 1
                executed = []
                for _ in range(len(jobs)):
                    moves = await server.rebalance(policy)
                    if not moves:
                        break
                    executed.extend(moves)
                assert executed
                assert await server.rebalance(policy) == ()
                snapshot = server.load_snapshot()
            return snapshot

        snapshot = asyncio.run(run())
        _assert_shard_load_is_its_names_load(snapshot)
        assert all(shard.names for shard in snapshot.shards)

    def test_a_move_on_a_stopped_server_carries_the_load(self):
        async def run():
            scenario = employee_example()
            server = AsyncServer(shards=2)
            server.register("emp", scenario.database, scenario.keys)
            async with server:
                for index in range(3):
                    job = CountJob(database="emp", query=_EMPLOYEE_QUERY)
                    await server.submit(job, index)
            source = server.shard_of("emp")
            target = next(s for s in server.shard_ids if s != source)
            assert await server.move("emp", target)
            return server.load_snapshot(), source, target

        snapshot, source, target = asyncio.run(run())
        _assert_shard_load_is_its_names_load(snapshot)
        loads = {shard.shard: shard for shard in snapshot.shards}
        assert loads[source].completed == 0 and loads[source].busy_time == 0.0
        assert loads[target].completed == 3 and loads[target].busy_time > 0


class TestElasticFleet:
    def test_add_and_remove_shards_on_a_live_server(self):
        registry, stream = serve_workload(jobs=8, databases=2, seed=4)

        async def run():
            server = AsyncServer(shards=1, queue_limit=4)
            for name, (database, keys) in registry.items():
                server.register(name, database, keys)
            async with server:
                first = [
                    await server.submit(item, index)
                    for index, item in enumerate(stream[:4])
                ]
                new_id = server.add_shard()
                assert new_id in server.shard_ids
                moved_name = server.database_names()[0]
                await server.move(moved_name, new_id)
                second = [
                    await server.submit(item, index)
                    for index, item in enumerate(stream[4:], start=4)
                ]
                surrendered = await server.remove_shard(new_id)
                assert moved_name in surrendered
                assert new_id not in server.shard_ids
                third = await server.submit(stream[0], 0)
            return first, second, third

        first, second, third = asyncio.run(run())

        pool = SolverPool()
        for name, (database, keys) in registry.items():
            pool.register(name, database, keys)
        sequential = pool.run_stream(stream)
        expected = {
            result.index: (result.satisfying, result.total)
            for result in sequential.results
        }
        for result in first + second:
            if hasattr(result, "satisfying"):
                assert (result.satisfying, result.total) == expected[
                    result.index
                ]

    def test_removing_the_last_shard_refuses(self):
        scenario = employee_example()
        server = AsyncServer(shards=1)
        server.register("emp", scenario.database, scenario.keys)
        with pytest.raises(RebalanceError, match="only shard"):
            asyncio.run(server.remove_shard(0))

    def test_rebalance_round_executes_the_greedy_proposal(self):
        registry, stream = serve_workload(
            jobs=12, databases=3, seed=7, zipf=2.0
        )

        async def run():
            server = AsyncServer(shards=1, queue_limit=4)
            for name, (database, keys) in registry.items():
                server.register(name, database, keys)
            async with server:
                for index, item in enumerate(stream):
                    await server.submit(item, index)
                server.add_shard()
                before = {
                    name: server.shard_of(name) for name in registry
                }
                moves = await server.rebalance(
                    GreedyRebalancer(max_imbalance=1.05)
                )
                assert moves  # all load sits on shard 0: must rebalance
                for move in moves:
                    assert before[move.name] == move.source
                    assert server.shard_of(move.name) == move.destination
                stats = await server.stats()
                assert stats["rebalance"]["rounds"] == 1
                assert stats["rebalance"]["moves"] == len(moves)

        asyncio.run(run())

    def test_background_rebalancer_moves_load_off_the_hot_shard(self):
        registry, stream = serve_workload(
            jobs=10, databases=3, seed=9, zipf=2.0
        )

        async def run():
            server = AsyncServer(
                shards=1,
                queue_limit=4,
                rebalance_interval=0.05,
                max_imbalance=1.05,
            )
            for name, (database, keys) in registry.items():
                server.register(name, database, keys)
            async with server:
                for index, item in enumerate(stream):
                    await server.submit(item, index)
                server.add_shard()
                for _ in range(100):
                    if server.moves_completed:
                        break
                    await asyncio.sleep(0.05)
                assert server.moves_completed >= 1
                owners = {server.shard_of(name) for name in registry}
                assert len(owners) == 2

        asyncio.run(run())
