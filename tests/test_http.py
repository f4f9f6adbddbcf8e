"""Tests for the HTTP network front (``repro.server.http`` + client).

What is pinned here:

* the request/response wire surface: every endpoint answers with the
  documented JSON shape, unknown paths are 404, wrong methods are 405,
  malformed bodies are 400 — and the error body always names the
  exception type and message;
* backpressure over the wire: a full reject-policy queue answers **429
  with a Retry-After hint**, a stopped engine answers **503**, and the
  client's retry budget turns a transient 429 into a success while an
  exhausted budget raises the same exception type the in-process server
  would;
* streaming: ``POST /stream`` is chunked JSON-lines in completion order
  with failures in band and a terminating summary, and the keep-alive
  connection stays usable afterwards;
* results over HTTP are bit-identical to in-process submission (the
  wire must not perturb seeds);
* the CLI's ``serve --http`` mode: ready line, live service, clean
  SIGINT exit.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import CountJob
from repro.errors import (
    BatchSpecError,
    EngineError,
    RebalanceError,
    ServerError,
    ServerOverloadedError,
    WireError,
)
from repro.server import AsyncServer, HttpServer, ServeClient
from repro.server import wire
from repro.workloads import employee_example

_EMPLOYEE_QUERY = "EXISTS x, y, z . (Employee(1, x, y) AND Employee(2, z, y))"


def _employee_server(**kwargs) -> AsyncServer:
    scenario = employee_example()
    server = AsyncServer(**kwargs)
    server.register("emp", scenario.database, scenario.keys)
    return server


def _count_doc(**extra):
    return {"database": "emp", "query": _EMPLOYEE_QUERY, **extra}


class TestEndpoints:
    def test_count_health_databases_and_errors(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            async with server:
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        health = await client.health()
                        assert health["status"] == "ok"
                        assert health["shards"] == 1
                        assert await client.databases() == ["emp"]

                        result = await client.count(_count_doc())
                        assert (result["satisfying"], result["total"]) == (2, 4)
                        assert result["index"] == 0

                        stats = await client.stats()
                        assert stats["queue"]["completed"] >= 1
                        assert stats["http"]["requests"] >= 3

                        # Unknown path, wrong method, bad payloads: loud.
                        # A path shape no route has is 404, even under a
                        # known first segment; 405 needs the same shape
                        # routed under another method, and names it.
                        for method, target in [
                            ("GET", "/no-such-route"),
                            ("GET", "/history"),
                            ("POST", "/count/emp"),
                            ("GET", "/history/emp/x"),
                        ]:
                            with pytest.raises(EngineError):
                                await client._call(method, target)
                        with pytest.raises(ServerError, match="405"):
                            await client._call("GET", "/count")
                        reader, writer = await asyncio.open_connection(
                            front.host, front.port
                        )
                        writer.write(wire.render_request("GET", "/count", "test"))
                        response = await wire.read_response(reader)
                        writer.close()
                        await writer.wait_closed()
                        assert response.status == 405
                        assert response.headers["allow"] == "POST"
                        with pytest.raises(BatchSpecError):
                            await client.count({"database": "emp"})
                        with pytest.raises(EngineError):
                            await client.count(
                                {"database": "ghost", "query": "R(x)"}
                            )
                        with pytest.raises(BatchSpecError, match="index"):
                            await client.count(_count_doc(), index=-1)
                        # The keep-alive connection survived every error.
                        assert (await client.health())["status"] == "ok"

        asyncio.run(run())

    def test_http_results_are_bit_identical_to_in_process(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            job = CountJob(database="emp", query=_EMPLOYEE_QUERY, method="fpras",
                           epsilon=0.2, delta=0.2)
            async with server:
                direct = await server.submit(job, 7)
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        over_wire = await client.count(job.to_json(), index=7)
            # The wire must not perturb the computation: every
            # deterministic field agrees (cache hit/miss split and timing
            # legitimately differ between the cold and warm run).
            volatile = {"cache_hits", "cache_misses", "elapsed", "worker"}
            direct_doc = direct.to_json()
            assert {k: v for k, v in over_wire.items() if k not in volatile} == {
                k: v for k, v in direct_doc.items() if k not in volatile
            }

        asyncio.run(run())

    def test_update_history_and_rollback_over_http(self, tmp_path):
        async def run():
            server = _employee_server(
                shards=1, queue_limit=8, persist_dir=tmp_path / "cache"
            )
            async with server:
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        before = await client.count(_count_doc())
                        report = await client.update(
                            {
                                "update": "emp",
                                "insert": [
                                    {
                                        "relation": "Employee",
                                        "arguments": [3, "Zoe", "HR"],
                                    }
                                ],
                            },
                            index=1,
                        )
                        assert report["index"] == 1
                        history = await client.history("emp")
                        assert history["name"] == "emp"
                        assert len(history["records"]) == 2
                        assert history["head"] == history["records"][-1]["digest"]
                        limited = await client.history("emp", limit=1)
                        assert len(limited["records"]) == 1
                        assert limited["elided"] == 1

                        cut = await client.checkpoint("emp")
                        assert cut["checkpoint"] is not None
                        known = await client.checkpoints("emp")
                        assert len(known["checkpoints"]) >= 1

                        rolled = await client.rollback("emp", -1)
                        assert rolled["record"]["digest"] == history["records"][0]["digest"]
                        after = await client.count(_count_doc())
                        assert after["satisfying"] == before["satisfying"]

                        with pytest.raises(BatchSpecError, match="rollback"):
                            await client._call("POST", "/rollback/emp", {})

        asyncio.run(run())

    def test_shards_admin_surface_over_http(self):
        async def run():
            server = _employee_server(shards=2, queue_limit=8)
            async with server:
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        view = await client.shards()
                        assert view["version"] == server.routing_version
                        assert sorted(view["shards"]) == ["0", "1"]
                        owner = server.shard_of("emp")
                        assert "emp" in view["shards"][str(owner)]["names"]
                        for load in view["shards"].values():
                            assert load["queue_depth"] == 0
                            assert load["in_flight"] == 0

                        grown = await client.add_shard()
                        new_id = grown["added"]
                        assert grown["shards"] == 3
                        assert grown["version"] == server.routing_version

                        moved = await client.move("emp", new_id)
                        assert moved["moved"] is True
                        assert server.shard_of("emp") == new_id
                        result = await client.count(_count_doc())
                        assert (result["satisfying"], result["total"]) == (2, 4)

                        balanced = await client.rebalance()
                        assert balanced["moves"] == []  # nothing hot enough

                        shrunk = await client.remove_shard(new_id)
                        assert shrunk["removed"] == new_id
                        assert "emp" in shrunk["moved"]
                        assert shrunk["shards"] == 2

                        # Misuse is loud and maps to the right statuses.
                        with pytest.raises(RebalanceError, match="unknown"):
                            await client.move("emp", 99)
                        with pytest.raises(BatchSpecError, match="action"):
                            await client._call(
                                "POST", "/shards", {"action": "explode"}
                            )
                        with pytest.raises(BatchSpecError, match="shard"):
                            await client._call(
                                "POST", "/shards", {"action": "remove"}
                            )
                        # The connection survived the 409/400 answers.
                        assert (await client.health())["status"] == "ok"

        asyncio.run(run())


class TestStreaming:
    def test_stream_is_chunked_with_failures_in_band(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            async with server:
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        items = [
                            _count_doc(),
                            {"database": "ghost", "query": "R(x)"},
                            _count_doc(method="certificate"),
                        ]
                        documents = [doc async for doc in client.stream(items)]
                        assert len(documents) == 3
                        failures = [d for d in documents if "error" in d]
                        results = [d for d in documents if "error" not in d]
                        assert [f["index"] for f in failures] == [1]
                        assert failures[0]["status"] == 404
                        assert failures[0]["error"]["type"] == "EngineError"
                        assert sorted(r["index"] for r in results) == [0, 2]
                        assert client.last_stream_summary == {
                            "results": 2,
                            "failures": 1,
                        }
                        # The keep-alive connection is clean after the
                        # chunked exchange: the next request still works.
                        assert (await client.health())["status"] == "ok"

        asyncio.run(run())

    def test_malformed_stream_line_is_rejected_before_dispatch(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            async with server:
                async with HttpServer(server) as front:
                    reader, writer = await asyncio.open_connection(
                        front.host, front.port
                    )
                    body = (json.dumps(_count_doc()) + "\nnot json\n").encode()
                    writer.write(
                        wire.render_request(
                            "POST", "/stream", f"{front.host}:{front.port}", body
                        )
                    )
                    await writer.drain()
                    response = await wire.read_response(reader)
                    assert response.status == 400
                    payload = response.json()
                    assert payload["error"]["type"] == "WireError"
                    # Nothing was dispatched: all-or-nothing parsing.
                    assert server.submitted == 0
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())


class TestBackpressureOverTheWire:
    def test_full_queue_answers_429_with_retry_after(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=1, policy="reject")
            async with server:
                async with HttpServer(server) as front:
                    # Hold the single queue slot for the duration of the
                    # exchange (deterministic, unlike racing a real job).
                    await server._slots.acquire()
                    try:
                        # Raw exchange: the status and header are under test.
                        reader, writer = await asyncio.open_connection(
                            front.host, front.port
                        )
                        writer.write(
                            wire.render_request(
                                "POST",
                                "/count",
                                f"{front.host}:{front.port}",
                                json.dumps(_count_doc()).encode(),
                            )
                        )
                        await writer.drain()
                        response = await wire.read_response(reader)
                        writer.close()
                        await writer.wait_closed()
                    finally:
                        server._slots.release()

                    assert response.status == 429
                    assert wire.parse_retry_after(response.headers) is not None
                    assert response.json()["error"]["type"] == (
                        "ServerOverloadedError"
                    )
                    assert front.rejected == 1

        asyncio.run(run())

    def test_retry_budget_rescues_transient_overload(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=1, policy="reject")
            async with server:
                async with HttpServer(server) as front:
                    await server._slots.acquire()

                    async def free_slot_later():
                        await asyncio.sleep(0.15)
                        server._slots.release()

                    release = asyncio.create_task(free_slot_later())
                    client = ServeClient(
                        front.host, front.port, retries=20, backoff=0.02
                    )
                    try:
                        # The slot frees while the client is backing off:
                        # the budgeted retry turns 429 into a result.
                        result = await client.count(_count_doc())
                        assert result["satisfying"] == 2
                        assert client.retries_used >= 1
                        assert client.rejections >= 1
                    finally:
                        await client.close()
                        await release

        asyncio.run(run())

    def test_exhausted_budget_raises_the_servers_exception(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=1, policy="reject")
            async with server:
                async with HttpServer(server) as front:
                    await server._slots.acquire()  # keep the queue full
                    client = ServeClient(front.host, front.port, retries=0)
                    try:
                        with pytest.raises(ServerOverloadedError):
                            await client.count(_count_doc())
                        assert client.rejections == 1
                        assert client.retries_used == 0
                    finally:
                        await client.close()
                        server._slots.release()

        asyncio.run(run())

    def test_stopped_engine_answers_503(self):
        async def run():
            server = _employee_server(shards=1)
            # The engine is NOT started: the front must answer 503, not hang.
            async with HttpServer(server) as front:
                client = ServeClient(front.host, front.port, retries=0)
                try:
                    with pytest.raises(ServerError):
                        await client.count(_count_doc())
                    assert client.rejections == 1  # 503 is retryable-class
                finally:
                    await client.close()
                assert front.unavailable == 1

        asyncio.run(run())


class TestClientTimeout:
    def test_a_server_that_never_answers_raises_within_the_timeout(self):
        async def run():
            async def silent(reader, writer):
                await reader.read()  # reads the request, never answers
                writer.close()

            listener = await asyncio.start_server(silent, "127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            client = ServeClient(host, port, retries=0, timeout=0.2)
            started = time.perf_counter()
            try:
                with pytest.raises(WireError, match="after 1 attempts"):
                    await client.health()
                return time.perf_counter() - started
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()

        assert asyncio.run(run()) < 2.0

    def test_a_request_that_timed_out_is_not_resent(self):
        # A listener that answers every request after 0.5 s: a client
        # with a 0.2 s deadline and retries to spare must give up on the
        # first request instead of sending the delta again.
        async def run():
            received = []

            async def slow(reader, writer):
                try:
                    while True:
                        head = await reader.readuntil(b"\r\n\r\n")
                        received.append(head.split(b"\r\n", 1)[0])
                        length = 0
                        for line in head.split(b"\r\n"):
                            name, _, value = line.partition(b":")
                            if name.strip().lower() == b"content-length":
                                length = int(value)
                        await reader.readexactly(length)
                        await asyncio.sleep(0.5)
                        writer.write(
                            b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                            b"\r\nContent-Length: 2\r\n\r\n{}"
                        )
                        await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass
                finally:
                    writer.close()

            listener = await asyncio.start_server(slow, "127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            client = ServeClient(host, port, retries=2, backoff=0.01, timeout=0.2)
            try:
                with pytest.raises(WireError, match="not resent"):
                    await client.update(
                        {"update": "emp", "insert": [], "delete": []}
                    )
                await asyncio.sleep(1.0)  # room for any resent request
                return received, client.retries_used
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()

        received, retries_used = asyncio.run(run())
        assert received == [b"POST /update HTTP/1.1"]
        assert retries_used == 0


class TestWireDiscipline:
    def test_malformed_request_line_gets_400_and_close(self):
        async def run():
            server = _employee_server(shards=1)
            async with server:
                async with HttpServer(server) as front:
                    reader, writer = await asyncio.open_connection(
                        front.host, front.port
                    )
                    writer.write(b"THIS IS NOT HTTP\r\n\r\n")
                    await writer.drain()
                    response = await wire.read_response(reader)
                    assert response.status == 400
                    assert response.json()["error"]["type"] == "WireError"
                    # The server closed the connection after the 400.
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(run())

    def test_truncated_stream_raises_wire_error(self):
        async def run():
            # A fake server that starts a chunked stream and dies mid-way.
            async def half_stream(reader, writer):
                await wire.read_request(reader)
                writer.write(wire.render_response(200, chunked=True))
                wire.write_chunk(writer, {"index": 0, "satisfying": 1})
                await writer.drain()
                writer.close()  # no terminating chunk: truncation

            fake = await asyncio.start_server(half_stream, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            client = ServeClient("127.0.0.1", port, retries=0)
            try:
                with pytest.raises(WireError, match="mid-stream|summary"):
                    async for _ in client.stream([_count_doc()]):
                        pass
            finally:
                await client.close()
                fake.close()
                await fake.wait_closed()

        asyncio.run(run())


class TestServeHttpCli:
    def test_serve_http_ready_line_service_and_clean_exit(self, tmp_path):
        jobfile = tmp_path / "databases.json"
        jobfile.write_text(
            json.dumps(
                {
                    "databases": {
                        "emp": {
                            "facts": [
                                {"relation": "Employee", "arguments": [1, "Bob", "HR"]},
                                {"relation": "Employee", "arguments": [1, "Bob", "IT"]},
                                {"relation": "Employee", "arguments": [2, "Alice", "IT"]},
                                {"relation": "Employee", "arguments": [2, "Tim", "IT"]},
                            ],
                            "keys": {"Employee": [1]},
                        }
                    },
                    "jobs": [],
                }
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--jobs", str(jobfile), "--shards", "1", "--http", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready = json.loads(process.stdout.readline())
            host, port = ready["http"]["host"], ready["http"]["port"]
            assert port > 0

            async def hit():
                async with ServeClient(host, port) as client:
                    health = await client.health()
                    result = await client.count(_count_doc())
                    return health, result

            health, result = asyncio.run(hit())
            assert health["status"] == "ok"
            assert (result["satisfying"], result["total"]) == (2, 4)
        finally:
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=60)
        assert code == 0, process.stderr.read()

    def test_serve_http_refuses_jobs_and_stdin(self, tmp_path):
        jobfile = tmp_path / "with_jobs.json"
        jobfile.write_text(
            json.dumps(
                {
                    "databases": {},
                    "jobs": [{"database": "x", "query": "R(x)"}],
                }
            )
        )
        from repro.cli import main

        assert main(
            ["serve", "--jobs", str(jobfile), "--http", "0"]
        ) == 2
        assert main(
            ["serve", "--jobs", str(jobfile), "--http", "0", "--stdin"]
        ) == 2


class TestCalibrationOverTheWire:
    """SLA intervals and the ``/calibration`` admin surface over HTTP."""

    def test_anytime_sla_refinement_and_calibration(self):
        async def run():
            server = _employee_server(shards=1, queue_limit=8)
            async with server:
                async with HttpServer(server) as front:
                    async with ServeClient(front.host, front.port) as client:
                        doc = _count_doc(
                            method="fpras",
                            epsilon=0.05,
                            delta=0.05,
                            anytime=True,
                            max_latency=1e-6,
                        )
                        result = await client.count(doc)
                        # The latency budget cut the run short; the body
                        # carries the interval payload.
                        assert result["stop_reason"] == "latency"
                        assert result["is_estimate"] is True
                        assert result["samples"] > 0
                        interval = result["interval"]
                        assert (
                            interval["low"]
                            <= result["satisfying"]
                            <= interval["high"]
                        )
                        assert interval["calibrated"] is False

                        # Drain the refine-to-exact continuation, then
                        # re-ask: exact from cache, zero samples drawn.
                        report = await client.refine()
                        assert report["refined"] == 1
                        again = await client.count(doc, index=1)
                        assert again["stop_reason"] == "exact"
                        assert again["is_estimate"] is False
                        assert "samples" not in again or again["samples"] == 0
                        assert again["satisfying"] == 2
                        assert "exact" in again["cache_hits"]
                        assert again["interval"] == {
                            "low": 2.0,
                            "high": 2.0,
                            "calibrated": False,
                        }

                        view = await client.calibration()
                        assert view["totals"]["refinements_completed"] == 1
                        assert view["totals"]["observations"] >= 1
                        assert "0" in view["shards"]

                        # A held-out batch over the wire: randomised jobs
                        # contribute pairs, exact jobs are skipped.
                        held_out = [
                            _count_doc(
                                method="fpras", epsilon=0.3, delta=0.2
                            ),
                            _count_doc(),
                        ]
                        observed = await client.calibrate(held_out)
                        assert observed == {"pairs": 1, "skipped": 1}

                        # Misuse maps to loud 400s, connection survives.
                        with pytest.raises(BatchSpecError, match="action"):
                            await client._call(
                                "POST", "/calibration", {"action": "explode"}
                            )
                        with pytest.raises(BatchSpecError, match="limit"):
                            await client.refine(limit=-1)
                        with pytest.raises(BatchSpecError, match="jobs"):
                            await client._call(
                                "POST",
                                "/calibration",
                                {"action": "observe", "jobs": "nope"},
                            )
                        assert (await client.health())["status"] == "ok"

        asyncio.run(run())

    def test_sla_flags_round_trip_through_the_job_document(self):
        # The wire representation keeps the SLA knobs: a document with
        # max_latency/max_error/anytime parses back to an identical job.
        job = CountJob(
            database="emp",
            query=_EMPLOYEE_QUERY,
            method="fpras",
            epsilon=0.2,
            delta=0.1,
            anytime=True,
            max_latency=0.5,
            max_error=0.1,
        )
        assert CountJob.from_json(job.to_json()) == job
        assert job.to_json()["anytime"] is True
