"""Regression tests for the serving path's failure-handling bugs.

Each test here reproduces a bug this PR fixed — against the old code
every one of them fails:

* :meth:`AsyncServer.run_stream` used to abandon already-dispatched
  futures when a mid-stream ``dispatch`` raised (overload under
  ``"reject"``, unknown database): their slots never settled and their
  exceptions died as "exception was never retrieved".  Now the futures
  are cancelled-or-drained before the error propagates, and a job
  failure surfaces deterministically (lowest stream index) after every
  other job ran to completion.
* :meth:`AsyncServer.results` had the same abandonment on early exit and
  could not report a failing element without tearing the stream down;
  ``on_error="yield"`` now emits :class:`StreamFailure` in band.
* :meth:`AsyncServer.stop` dropped the queue semaphore while completion
  callbacks were still queued on the loop, so ``in_flight``/``completed``
  drifted permanently after a stop with in-flight jobs.
* :meth:`Shard.stop` skipped clearing ``_pending_registrations`` when a
  failed late registration raised, so a *second* ``stop`` re-raised the
  same stale error; and a failed registration behind an unfinished one
  was never surfaced at all.
"""

import asyncio
import concurrent.futures

import pytest

from repro.engine import CountJob
from repro.errors import (
    EngineError,
    LineageError,
    ServerError,
    ServerOverloadedError,
)
from repro.server import AsyncServer, Shard, StreamFailure
from repro.workloads import employee_example

_EMPLOYEE_QUERY = "EXISTS x, y, z . (Employee(1, x, y) AND Employee(2, z, y))"


def _employee_server(**kwargs) -> AsyncServer:
    scenario = employee_example()
    server = AsyncServer(**kwargs)
    server.register("emp", scenario.database, scenario.keys)
    return server


def _job(**kwargs) -> CountJob:
    return CountJob(database="emp", query=_EMPLOYEE_QUERY, **kwargs)


#: An as_of reference that parses but names no recorded snapshot: the job
#: dispatches fine and fails at execution time with LineageError.
_UNKNOWN_AS_OF = "0" * 12


class TestRunStreamDrainsOnDispatchFailure:
    def test_overload_mid_stream_drains_dispatched_futures(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=1, policy="reject")
            async with server:
                with pytest.raises(ServerOverloadedError):
                    # Job 0 takes the only slot; dispatching job 1 raises
                    # mid-stream.  The old code left job 0's future
                    # abandoned: its slot never released, in_flight stuck
                    # at 1, its exception unretrieved.
                    await server.run_stream([_job(), _job()])
                assert server.in_flight == 0
                # Job 0 was cancelled-or-drained: completed if the worker
                # had already picked it up, cleanly cancelled otherwise —
                # either way its slot settled and nothing leaked.
                assert server.completed in (0, 1)
                # The slot is free again: the server still serves.
                result = await server.submit(_job())
                assert (result.satisfying, result.total) == (2, 4)

        asyncio.run(run())

    def test_unknown_database_mid_stream_drains_dispatched_futures(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                with pytest.raises(EngineError, match="ghost"):
                    await server.run_stream(
                        [_job(), CountJob(database="ghost", query="R(x)")]
                    )
                assert server.in_flight == 0
                assert server.completed in (0, 1)  # drained, never leaked
                result = await server.submit(_job())
                assert result.satisfying == 2

        asyncio.run(run())

    def test_job_failure_surfaces_lowest_index_after_full_drain(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                # Index 1 fails at execution; indexes 0 and 2 succeed.
                with pytest.raises(LineageError):
                    await server.run_stream(
                        [_job(), _job(as_of=_UNKNOWN_AS_OF), _job()]
                    )
                # Deterministic drain: every job finished, nothing in flight.
                assert server.in_flight == 0
                assert server.completed == 2

        asyncio.run(run())


class TestResultsFailureModes:
    def test_raise_mode_drains_pending_on_first_failure(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                consumed = []
                with pytest.raises(LineageError):
                    async for outcome in server.results(
                        [_job(as_of=_UNKNOWN_AS_OF), _job(), _job()]
                    ):
                        consumed.append(outcome)
                assert server.in_flight == 0  # pending futures were drained
                # The failure struck before any result was surfaced (the
                # failing element has the lowest stream index).
                assert consumed == []

        asyncio.run(run())

    def test_yield_mode_reports_failure_in_band_and_keeps_flowing(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                outcomes = [
                    outcome
                    async for outcome in server.results(
                        [_job(), _job(as_of=_UNKNOWN_AS_OF), _job()],
                        on_error="yield",
                    )
                ]
                failures = [o for o in outcomes if isinstance(o, StreamFailure)]
                results = [o for o in outcomes if not isinstance(o, StreamFailure)]
                assert len(outcomes) == 3  # nothing dropped, nothing extra
                assert [f.index for f in failures] == [1]
                assert isinstance(failures[0].error, LineageError)
                assert sorted(r.index for r in results) == [0, 2]
                assert server.in_flight == 0

        asyncio.run(run())

    def test_yield_mode_reports_dispatch_failures_in_band(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                outcomes = [
                    outcome
                    async for outcome in server.results(
                        [_job(), CountJob(database="ghost", query="R(x)")],
                        on_error="yield",
                    )
                ]
                failures = [o for o in outcomes if isinstance(o, StreamFailure)]
                assert [f.index for f in failures] == [1]
                assert isinstance(failures[0].error, EngineError)
                assert server.in_flight == 0

        asyncio.run(run())

    def test_abandoned_iterator_drains_pending(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                iterator = server.results([_job(), _job(), _job()])
                async for _ in iterator:
                    break  # the consumer walks away mid-stream
                await iterator.aclose()
                assert server.in_flight == 0
                # The server still serves after the abandonment.
                result = await server.submit(_job())
                assert result.satisfying == 2

        asyncio.run(run())

    def test_rejects_unknown_on_error_mode(self):
        async def run():
            async with _employee_server(shards=1) as server:
                with pytest.raises(ServerError, match="on_error"):
                    async for _ in server.results([_job()], on_error="ignore"):
                        pass

        asyncio.run(run())


class TestResultsSettleBeforeYield:
    @pytest.mark.parametrize("on_error", ["raise", "yield"])
    def test_a_yielded_job_is_no_longer_in_flight(self, monkeypatch, on_error):
        """A job finishing in the loop iteration in which the stream's
        zero-timeout wait wakes is done before its done callback has run.
        Each shard call here returns a future that turns done exactly then
        (two loop hops after dispatch), so the old code yielded every job
        while ``in_flight`` and the shard and name loads still counted it.
        """

        async def run():
            server = _employee_server(shards=1, queue_limit=4)
            async with server:
                answer = await server.submit(_job())
                loop = asyncio.get_running_loop()

                def late_call(shard, op, job, index):
                    future = loop.create_future()

                    def finish():
                        if job.as_of is None:
                            future.set_result(answer)
                        else:
                            future.set_exception(LineageError("unknown snapshot"))

                    loop.call_soon(loop.call_soon, finish)
                    return future

                monkeypatch.setattr(Shard, "call", late_call)
                jobs = [_job(), _job(), _job()]
                if on_error == "yield":
                    jobs[1] = _job(as_of=_UNKNOWN_AS_OF)
                outcomes = []
                async for outcome in server.results(jobs, on_error=on_error):
                    outcomes.append(outcome)
                    loads = server.load_snapshot()
                    assert server.in_flight == 0
                    assert [shard.in_flight for shard in loads.shards] == [0]
                    assert [name.in_flight for name in loads.names] == [0]
                assert len(outcomes) == 3
                failures = [o for o in outcomes if isinstance(o, StreamFailure)]
                assert len(failures) == (1 if on_error == "yield" else 0)
                assert server.completed == 1 + 3 - len(failures)

        asyncio.run(run())


class TestStopCounterConsistency:
    def test_stop_settles_counters_before_returning(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            await server.start()
            futures = [await server.dispatch(_job(), i) for i in range(4)]
            # Stop without awaiting the futures: the old code dropped the
            # semaphore while completion callbacks were still queued, so
            # in_flight stayed >0 and completed undercounted forever.
            await server.stop()
            assert server.in_flight == 0
            assert server.completed == 4
            for future in futures:
                assert future.done() and future.exception() is None

        asyncio.run(run())


class TestRejectBoundary:
    def test_reject_fires_exactly_at_full_queue_and_recovers(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=2, policy="reject")
            async with server:
                first = await server.dispatch(_job(), 0)
                second = await server.dispatch(_job(), 1)  # exactly full: accepted
                with pytest.raises(ServerOverloadedError):
                    await server.dispatch(_job(), 2)  # one past full: rejected
                assert server.rejected == 1
                await asyncio.gather(first, second)
                # Slots freed: the boundary resets.
                result = await server.submit(_job())
                assert result.satisfying == 2
                assert server.rejected == 1  # no spurious rejections

        asyncio.run(run())


class TestStaleRegistrationErrors:
    def _failed_future(self, message: str) -> "concurrent.futures.Future":
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        future.set_exception(RuntimeError(message))
        return future

    def test_failure_behind_unfinished_registration_still_surfaces(self):
        shard = Shard(0)
        unfinished: "concurrent.futures.Future" = concurrent.futures.Future()
        shard._pending_registrations.extend(
            [unfinished, self._failed_future("bad keys")]
        )
        # The old head-only loop stopped at the unfinished future and let
        # the completed failure behind it pass silently.
        with pytest.raises(ServerError, match="bad keys"):
            shard._raise_failed_registrations()
        # The unfinished future is still tracked; the failed one is gone.
        assert shard._pending_registrations == [unfinished]
        unfinished.set_result(None)

    def test_second_stop_does_not_rereaise_stale_error(self):
        shard = Shard(0)
        shard._pending_registrations.append(self._failed_future("bad keys"))
        with pytest.raises(ServerError, match="bad keys"):
            shard.stop()
        # The old code skipped the clear when the raise fired, so a
        # second stop re-raised the same stale error.
        shard.stop()  # must be clean
        assert shard._pending_registrations == []

    def test_error_is_raised_exactly_once_across_probes(self):
        shard = Shard(0)
        shard._pending_registrations.append(self._failed_future("bad keys"))
        with pytest.raises(ServerError, match="bad keys"):
            shard._raise_failed_registrations()
        shard._raise_failed_registrations()  # consumed: no re-raise
