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
* A shard whose worker was killed failed its calls with a raw
  ``BrokenProcessPool`` (HTTP 500).  Now its in-flight, queued and later
  calls fail with :class:`ShardLostError` (HTTP 503 with
  ``Retry-After``), its load counters settle, and other shards serve on.
* A shard worker must not outlive its server: it exits when the server
  process is killed, nothing survives SIGINT to ``repro serve --http``,
  and a worker forked by a live ``add_shard`` keeps no client connection
  open.
"""

import asyncio
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.db import database_to_json
from repro.engine import CountJob, SolverPool
from repro.errors import (
    EngineError,
    LineageError,
    ServerError,
    ServerOverloadedError,
    ShardLostError,
)
from repro.server import AsyncServer, HttpServer, ServeClient, Shard, StreamFailure
from repro.server import wire
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


def _worker_pid(label: str) -> int:
    """The pid in a ``shard-{id}:pid-{pid}`` worker label."""
    return int(label.rsplit("pid-", 1)[1])


def _exited(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie nobody reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True
    except OSError:  # pragma: no cover - no /proc on this platform
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False


def _all_exit_within(pids, seconds: float) -> bool:
    """Whether every pid exits within ``seconds``; survivors are killed."""
    deadline = time.monotonic() + seconds
    while not all(_exited(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)  # leave no orphan behind
            return False
        time.sleep(0.05)
    return True


def _two_shard_server(**kwargs) -> AsyncServer:
    """``emp`` and ``emp2`` on two shards (the second demoted to the idle one)."""
    scenario = employee_example()
    server = AsyncServer(shards=2, **kwargs)
    for name in ("emp", "emp2"):
        server.register(name, scenario.database, scenario.keys)
    assert server.shard_of("emp") != server.shard_of("emp2")
    return server


class TestLostWorker:
    def test_in_flight_queued_and_later_calls_raise_shard_lost(self, monkeypatch):
        run_job = SolverPool.run_job

        def slow_run_job(pool, job, index, **kwargs):
            if job.label == "slow":
                time.sleep(60)
            return run_job(pool, job, index, **kwargs)

        # Patched before start: the forked workers carry the patch.
        monkeypatch.setattr(SolverPool, "run_job", slow_run_job)

        async def run():
            server = _two_shard_server(queue_limit=8)
            async with server:
                pid = _worker_pid((await server.submit(_job())).worker)
                running = await server.dispatch(_job(label="slow"), 1)
                queued = [await server.dispatch(_job(), index) for index in (2, 3)]
                await asyncio.sleep(0.1)  # the slow job is running
                os.kill(pid, signal.SIGKILL)
                outcomes = await asyncio.gather(
                    running, *queued, return_exceptions=True
                )
                with pytest.raises(ShardLostError, match=f"pid {pid}"):
                    await server.submit(_job())
                loads = server.load_snapshot()
                settled = (
                    server.in_flight,
                    [shard.in_flight for shard in loads.shards],
                    [name.in_flight for name in loads.names],
                )
                other = await server.submit(
                    CountJob(database="emp2", query=_EMPLOYEE_QUERY)
                )
                return outcomes, settled, other

        outcomes, settled, other = asyncio.run(asyncio.wait_for(run(), 60))
        assert [type(outcome) for outcome in outcomes] == [ShardLostError] * 3
        assert settled == (0, [0, 0], [0, 0])
        assert (other.satisfying, other.total) == (2, 4)

    def test_count_answers_503_with_retry_after(self):
        document = {"database": "emp", "query": _EMPLOYEE_QUERY}

        async def run():
            server = _employee_server(shards=1)
            async with server:
                async with HttpServer(server) as front:
                    pid = _worker_pid((await server.submit(_job())).worker)
                    os.kill(pid, signal.SIGKILL)
                    reader, writer = await asyncio.open_connection(
                        front.host, front.port
                    )
                    address = f"{front.host}:{front.port}"
                    try:
                        responses = []
                        for _ in range(2):  # the second must not hang
                            writer.write(wire.render_request(
                                "POST", "/count", address,
                                json.dumps(document).encode(),
                            ))
                            await writer.drain()
                            responses.append(await wire.read_response(reader))
                    finally:
                        writer.close()
                        await writer.wait_closed()
                    return responses

        responses = asyncio.run(asyncio.wait_for(run(), 60))
        for response in responses:
            assert response.status == 503
            assert wire.parse_retry_after(response.headers) is not None
            assert response.json()["error"]["type"] == "ShardLostError"


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


def _default_sigint() -> None:
    """Undo an inherited ``SIG_IGN`` so SIGINT reaches the server."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class TestWorkerHygiene:
    def test_workers_exit_when_the_server_process_is_killed(self):
        script = textwrap.dedent(f"""
            import asyncio
            from repro.engine import CountJob
            from repro.server import AsyncServer
            from repro.workloads import employee_example

            async def main():
                scenario = employee_example()
                server = AsyncServer(shards=2)
                for name in ("emp", "emp2"):
                    server.register(name, scenario.database, scenario.keys)
                await server.start()
                for name in ("emp", "emp2"):
                    job = CountJob(database=name, query={_EMPLOYEE_QUERY!r})
                    print((await server.submit(job)).worker, flush=True)
                await asyncio.sleep(3600)

            asyncio.run(main())
        """)
        process = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env=_subprocess_env(), text=True,
        )
        try:
            pids = [_worker_pid(process.stdout.readline()) for _ in range(2)]
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
        assert len(set(pids)) == 2
        # A worker reads end of file only once no other process holds the
        # server's end of its pipe -- the other shard's worker included.
        assert _all_exit_within(pids, 5.0)

    def test_sigint_to_the_process_group_leaves_no_process(self, tmp_path):
        scenario = employee_example()
        document = database_to_json(scenario.database, scenario.keys)
        jobfile = tmp_path / "databases.json"
        jobfile.write_text(
            json.dumps({"databases": {"emp": document, "emp2": document}})
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(jobfile),
             "--shards", "2", "--http", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_subprocess_env(), text=True,
            start_new_session=True, preexec_fn=_default_sigint,
        )
        try:
            ready = json.loads(process.stdout.readline())["http"]

            async def worker_labels():
                async with ServeClient(ready["host"], ready["port"]) as client:
                    return [
                        (await client.count(
                            {"database": name, "query": _EMPLOYEE_QUERY}
                        ))["worker"]
                        for name in ("emp", "emp2")
                    ]

            pids = [_worker_pid(label) for label in asyncio.run(worker_labels())]
            os.killpg(process.pid, signal.SIGINT)
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=30)
            process.stdout.close()
        assert code == 0, process.stderr.read()
        process.stderr.close()
        assert len(set(pids)) == 2
        assert _all_exit_within(pids, 5.0)

    def test_a_live_add_shard_keeps_no_client_connection_open(self):
        async def run():
            server = _employee_server(shards=1)
            async with server:
                async with HttpServer(server) as front:
                    address = f"{front.host}:{front.port}"
                    reader, writer = await asyncio.open_connection(
                        front.host, front.port
                    )
                    try:
                        # The new worker forks while this connection is open.
                        writer.write(wire.render_request(
                            "POST", "/shards", address, b'{"action": "add"}'
                        ))
                        await writer.drain()
                        added = await wire.read_response(reader)
                        # A malformed request: the server answers 400, closes.
                        writer.write(b"NONSENSE\r\n\r\n")
                        await writer.drain()
                        refused = await wire.read_response(reader)
                        rest = await asyncio.wait_for(reader.read(), 5)
                    finally:
                        writer.close()
                        await writer.wait_closed()
                    return added.status, refused.status, rest

        assert asyncio.run(run()) == (200, 400, b"")
