"""Tests for the shard command path (``repro.server.shards``).

What is pinned here:

* ``Shard.call`` refuses any operation outside ``SHARD_OPS`` in the
  parent, naming it, before a worker exists or anything is queued;
* every ``SHARD_OPS`` entry names a real ``SolverPool`` attribute, so a
  renamed pool method fails here rather than inside a shard worker;
* the worker pipe: calls run in submission order, a call cancelled
  before it is sent never runs, frames larger than the socket buffer
  travel both ways while other calls queue and other shards answer, a
  reply that cannot cross the pipe fails only its own call, and a worker
  that fails to start reports the cause on every call.
"""

import asyncio
import pickle
import socket

import pytest

from repro.db import Database, Delta, PrimaryKeySet, fact
from repro.engine import CountJob, JobResult, SolverPool, UpdateJob
from repro.errors import ServerError, StoreError
from repro.server import shards
from repro.server.shards import SHARD_OPS, Shard
from repro.workloads import employee_example

_EMPLOYEE_QUERY = "EXISTS x, y, z . (Employee(1, x, y) AND Employee(2, z, y))"


def _count(**kwargs) -> CountJob:
    return CountJob(database="emp", query=_EMPLOYEE_QUERY, **kwargs)


def _update(inserted=(), deleted=()) -> UpdateJob:
    return UpdateJob(
        database="emp", delta=Delta(inserted=inserted, deleted=deleted)
    )


def _employee_shard(shard_id: int = 0) -> Shard:
    scenario = employee_example()
    shard = Shard(shard_id)
    shard.own("emp", scenario.database, scenario.keys)
    return shard


class TestShardOps:
    @pytest.mark.parametrize("op", ["_registry", "__class__", "run"])
    def test_call_refuses_ops_outside_the_allow_list(self, op):
        shard = Shard(0)
        with pytest.raises(ServerError, match=repr(op)):
            shard.call(op)
        assert not shard.is_running
        assert shard.jobs_submitted == shard.updates_submitted == 0

    def test_every_allowed_op_exists_on_the_pool(self):
        missing = sorted(op for op in SHARD_OPS if not hasattr(SolverPool, op))
        assert missing == []


class TestWorkerPipe:
    def test_interleaved_calls_run_in_submission_order(self):
        """Counts, deltas and probes queued back to back on one shard
        answer exactly as the same sequence run on one in-process pool."""
        bob_it = fact("Employee", 1, "Bob", "IT")
        zed_hr = fact("Employee", 2, "Zed", "HR")
        calls = [
            ("run_job", _count(), 0),
            ("apply_delta", _update(deleted=(bob_it,)), 1),
            ("lineage", "emp"),
            ("run_job", _count(), 2),
            ("apply_delta", _update(inserted=(zed_hr,)), 3),
            ("cache_stats",),
            ("run_job", _count(), 4),
            ("lineage", "emp"),
        ]

        def comparable(op, value):
            if op == "run_job":
                return value.count_fields()
            if op == "apply_delta":
                return (value.index, value.new_digest)
            if op == "lineage":
                return tuple(record.digest for record in value)
            return value["query"]["hits"], value["query"]["misses"]

        scenario = employee_example()
        reference = SolverPool()
        reference.register("emp", scenario.database, scenario.keys)
        expected = []
        for op, *args in calls:
            if op == "apply_delta":
                job, index = args
                report = reference.apply_delta("emp", job.delta)
                expected.append((index, report.new_digest))
            elif op == "run_job":
                expected.append(comparable(op, reference.run_job(*args)))
            else:
                expected.append(comparable(op, getattr(reference, op)(*args)))

        async def run():
            shard = _employee_shard()
            shard.start()
            try:
                futures = [shard.call(*call) for call in calls]
                return await asyncio.gather(*futures)
            finally:
                await shard.shutdown()

        replies = asyncio.run(run())
        got = [comparable(call[0], reply) for call, reply in zip(calls, replies)]
        assert got == expected
        # The deltas changed the answer, so order was observable.
        assert len({got[0], got[3], got[6]}) == 3

    def test_a_call_cancelled_before_it_is_sent_never_runs(self):
        async def run():
            shard = _employee_shard()
            shard.start()
            try:
                (database, _), = await asyncio.gather(shard.call("lookup", "emp"))
                before = database.content_digest()
                # Two calls fill the wire; the delta waits in the parent.
                on_the_wire = [
                    shard.call("run_job", _count(), 0),
                    shard.call("run_job", _count(), 1),
                ]
                delta = shard.call(
                    "apply_delta",
                    _update(deleted=(fact("Employee", 1, "Bob", "IT"),)),
                    2,
                )
                delta.cancel()
                await asyncio.gather(*on_the_wire)
                (after, _), lineage = await asyncio.gather(
                    shard.call("lookup", "emp"), shard.call("lineage", "emp")
                )
                return before, after.content_digest(), len(lineage)
            finally:
                await shard.shutdown()

        before, after, versions = asyncio.run(run())
        assert after == before
        assert versions == 1

    def test_large_frames_cross_while_calls_queue_and_other_shards_answer(self):
        """A multi-MB registration and a range reply larger than the
        socket buffer complete, with counts queued behind them, while a
        second shard answers a probe."""
        versions = 1400  # toggled deltas: two contents, so the range is cheap
        toggled = fact("Employee", 100, "Xi", "HR")
        big = Database(
            [fact("R", index, f"{index % 7}-" + "x" * 96) for index in range(20_000)]
        )
        assert len(pickle.dumps(big)) > 2_000_000

        async def run():
            shard, other = _employee_shard(0), _employee_shard(1)
            shard.start()
            other.start()
            try:
                deltas = [
                    shard.call(
                        "apply_delta",
                        _update(inserted=(toggled,))
                        if index % 2 == 0
                        else _update(deleted=(toggled,)),
                        index,
                    )
                    for index in range(versions)
                ]
                shard.own("big", big, PrimaryKeySet.from_dict({"R": [1]}))
                span = shard.call(
                    "run_range", _count(as_of_range=(-versions, 0)), versions
                )
                queued = [
                    shard.call("run_job", _count(), versions + 1 + index)
                    for index in range(3)
                ]
                names = await other.call("database_names")
                answered_first = not span.done()
                await asyncio.gather(*deltas)
                results = await span
                counts = await asyncio.gather(*queued)
                lineage = await shard.call("lineage", "big")
                return names, answered_first, results, counts, lineage
            finally:
                await asyncio.gather(shard.shutdown(), other.shutdown())

        names, answered_first, results, counts, lineage = asyncio.run(run())
        assert names == ("emp",)
        assert answered_first
        ends = socket.socketpair()
        buffer = ends[0].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        for end in ends:
            end.close()
        assert len(pickle.dumps((True, results))) > buffer
        assert len(results) == versions + 1
        assert all(
            isinstance(result, JobResult)
            and (result.satisfying, result.total) == (2, 4)
            for result in results
        )
        assert [(c.satisfying, c.total) for c in counts] == [(2, 4)] * 3
        assert lineage.head.digest == big.content_digest()

    @pytest.mark.parametrize(
        "op, reply, message",
        [
            ("database_names", lambda: None, "could not send the reply"),
            ("cache_stats", "unreadable", "could not read the reply"),
        ],
    )
    def test_a_reply_that_cannot_cross_fails_only_its_call(
        self, monkeypatch, op, reply, message
    ):
        # Patched before start: the forked worker carries the patch.
        value = _Unreadable() if reply == "unreadable" else reply
        monkeypatch.setattr(SolverPool, op, lambda pool: value)

        async def run():
            shard = _employee_shard()
            shard.start()
            try:
                failing = shard.call(op)
                following = shard.call("run_job", _count(), 0)
                with pytest.raises(ServerError, match=f"{message} to {op!r}"):
                    await failing
                return await following
            finally:
                await shard.shutdown()

        result = asyncio.run(run())
        assert (result.satisfying, result.total) == (2, 4)

    def test_a_failed_start_names_its_cause_on_every_call(self, monkeypatch):
        def unwritable(**options):
            raise StoreError("the cache directory is read-only")

        monkeypatch.setattr(shards, "SolverPool", unwritable)

        async def run():
            shard = _employee_shard()
            shard.start()
            try:
                return await asyncio.gather(
                    shard.call("run_job", _count(), 0),
                    shard.call("database_names"),
                    return_exceptions=True,
                )
            finally:
                await shard.shutdown()

        for outcome in asyncio.run(run()):
            assert isinstance(outcome, ServerError)
            assert "failed to start" in str(outcome)
            assert "StoreError: the cache directory is read-only" in str(outcome)


def _refuse() -> None:
    raise RuntimeError("this reply does not unpickle")


class _Unreadable:
    """Pickles fine in the worker; unpickling it in the parent raises."""

    def __reduce__(self):
        return (_refuse, ())
