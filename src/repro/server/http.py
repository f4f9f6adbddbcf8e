"""The HTTP network front: :class:`HttpServer` over :class:`AsyncServer`.

This is the first layer of the system an *external* client can hit: a
zero-dependency ``asyncio`` HTTP/1.1 server (framing in
:mod:`repro.server.wire`) exposing the full serving surface of
:class:`~repro.server.AsyncServer` — counting (including ``as_of`` time
travel), deltas, streamed mixed job stacks, history, checkpoints,
rollback and statistics — while preserving the two disciplines the
in-process server already enforces:

**Backpressure becomes status codes.**  A full queue under the
``"reject"`` policy answers **429 Too Many Requests**, a stopped (or
stopping) server answers **503 Service Unavailable**, and both carry a
``Retry-After`` hint; under the ``"wait"`` policy the handler coroutine
simply suspends in ``dispatch``, so the connection itself is the queue
and flow control reaches all the way back to the client's socket.  A
request is never silently dropped: it is answered with a result, or with
a structured error body saying exactly why not.

**Streams fail in band.**  ``POST /stream`` serves a JSON-lines body of
mixed count/update jobs and streams results back in completion order as
chunked JSON-lines.  A failing element is emitted as an in-band
``{"index": …, "error": …}`` line (via
:meth:`AsyncServer.results` with ``on_error="yield"``) and the remaining
results keep flowing; the stream always terminates with an ``{"end": …}``
summary line, so a client can distinguish "done" from "connection died".

Endpoints (all request/response bodies are JSON):

====== ========================== ==========================================
method path                       meaning
====== ========================== ==========================================
GET    ``/health``                liveness + shard/database counts
GET    ``/stats``                 queue + per-shard counters (+ HTTP front)
GET    ``/databases``             registered names
GET    ``/shards``                routing table + per-shard load snapshot
POST   ``/shards``                admin: ``{"action": "add" | "remove" |
                                  "move" | "rebalance", ...}``
GET    ``/calibration``           conformal calibration + refinement state
POST   ``/calibration``           admin: ``{"action": "refine" |
                                  "observe", ...}``
POST   ``/count``                 one :class:`CountJob` body -> result
POST   ``/update``                one update body -> delta report
POST   ``/stream``                JSON-lines of jobs -> chunked JSON-lines
POST   ``/range``                 one ``as_of_range`` job -> chunked
                                  JSON-lines, one result per version
GET    ``/history/{name}``        recorded lineage (``?limit=N`` trims)
GET    ``/checkpoints/{name}``    known compaction checkpoints
POST   ``/checkpoint/{name}``     cut a checkpoint now
POST   ``/rollback/{name}``       body ``{"to": ref}`` -> new head record
====== ========================== ==========================================

The table above is :data:`ROUTES`, keyed by method, first path segment
and segment count.  A path shape no route has answers **404**; a shape
routed only under other methods answers **405** with an ``Allow`` header.

The ``/shards`` admin surface drives elastic sharding over the wire:
``add`` grows the fleet, ``remove`` (body ``{"shard": id}``) drains and
retires a shard, ``move`` (body ``{"name": …, "shard": id}``) hands one
name off, and ``rebalance`` runs one policy round.  A refused operation —
conflicting handoff, unknown shard, removing the last shard — answers
**409 Conflict** (:class:`~repro.errors.RebalanceError` client-side),
which is deliberately *not* retryable-by-resend.  Responses carry the
server's ``routing_version`` so callers can invalidate cached views; no
HTTP consumer may cache a shard assignment across requests.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import AsyncIterator
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from ..engine.executor import RangeFailure
from ..engine.jobs import CountJob, UpdateJob, UpdateReport
from ..engine.jobfile import parse_stream_item
from ..errors import ReproError, WireError
from .async_server import AsyncServer, StreamFailure
from .wire import HttpRequest
from . import wire

__all__ = ["HttpServer"]

#: The Retry-After hint (seconds) sent with 429/503 responses.  The server
#: cannot know when a slot frees, so this is a pacing hint for the
#: client's backoff, not a promise.
DEFAULT_RETRY_AFTER = 0.05


def _parse_stream_line(line: bytes) -> object:
    """Parse one JSON-lines request line (:class:`WireError` on junk)."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"malformed stream line {line!r}: {exc}") from exc


class HttpServer:
    """Serve an (already running) :class:`AsyncServer` over HTTP.

    The two lifecycles are deliberately separate: the ``AsyncServer`` owns
    shard processes and is usually started first and stopped last, while
    the ``HttpServer`` owns listening sockets and connections.  Requests
    that arrive while the engine side is stopped are answered ``503`` —
    the wire stays polite even when the engine is mid-restart.

    Parameters
    ----------
    server:
        The engine-side server; must be started separately.
    host, port:
        Bind address.  ``port=0`` asks the OS for a free port; the bound
        address is available as :attr:`host`/:attr:`port` after ``start``.
    retry_after:
        The ``Retry-After`` hint (seconds) attached to 429/503 responses.

    Usage::

        server = AsyncServer(shards=4)
        ...register...
        async with server:
            async with HttpServer(server, port=8080) as front:
                await front.serve_forever()   # until cancelled
    """

    def __init__(
        self,
        server: AsyncServer,
        host: str = "127.0.0.1",
        port: int = 0,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        self._server = server
        self.host = host
        self.port = port
        self.retry_after = retry_after
        self._listener: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self.requests = 0
        self.rejected = 0  # 429 responses
        self.unavailable = 0  # 503 responses
        self.errors = 0  # 4xx/5xx other than 429/503

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._listener is not None:
            raise WireError("the HTTP front is already started")
        self._listener = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        address = self._listener.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]

    async def stop(self) -> None:
        """Stop accepting, then close every open connection."""
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's ``--http`` mode)."""
        if self._listener is None:
            raise WireError("start the HTTP front before serve_forever")
        await self._listener.serve_forever()

    async def __aenter__(self) -> "HttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # connection loop
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await wire.read_request(reader)
                except WireError as exc:
                    writer.write(
                        wire.json_response(400, wire.payload_for_error(exc))
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._serve_request(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away or the front is stopping: nothing to save
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _serve_request(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; return whether to keep the connection."""
        self.requests += 1
        try:
            await self._route(request, writer)
            return True
        except ReproError as exc:
            status = wire.status_for_error(exc)
            headers: Dict[str, str] = {}
            if status in wire.RETRYABLE_STATUSES:
                headers["Retry-After"] = f"{self.retry_after:g}"
                if status == 429:
                    self.rejected += 1
                else:
                    self.unavailable += 1
            else:
                self.errors += 1
            writer.write(
                wire.json_response(status, wire.payload_for_error(exc), headers)
            )
            await writer.drain()
            return True
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # a bug, but the wire still answers
            self.errors += 1
            writer.write(wire.json_response(500, wire.payload_for_error(exc)))
            await writer.drain()
            return False

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one request from :data:`ROUTES`.

        A path shape (first segment, segment count) that no route has
        answers 404; a shape routed only under other methods answers 405
        with the ``Allow`` header listing them.
        """
        segments = [piece for piece in request.path.split("/") if piece]
        shape = (segments[0] if segments else "", len(segments))
        handler = ROUTES.get((request.method, *shape))
        if handler is None:
            self.errors += 1
            allowed = sorted(route[0] for route in ROUTES if route[1:] == shape)
            if allowed:
                error = {"type": "MethodNotAllowed",
                         "message": f"{request.method} {request.path}"}
                headers = {"Allow": ", ".join(allowed)}
                writer.write(wire.json_response(405, {"error": error}, headers))
            else:
                error = {"type": "NotFound",
                         "message": f"no route for {request.path!r}"}
                writer.write(wire.json_response(404, {"error": error}))
        else:
            payload = await handler(self, request, *segments[1:])
            if isinstance(payload, AsyncIterator):
                await self._write_lines(writer, payload)
            else:
                writer.write(wire.json_response(200, payload))
        await writer.drain()

    async def _write_lines(
        self, writer: asyncio.StreamWriter, outcomes: AsyncIterator[object]
    ) -> None:
        """Chunked JSON-lines of stream outcomes, errors in band.

        The one writer behind ``/stream`` and ``/range``: a result is its
        ``to_json`` document (a delta report tagged ``"type": "update"``),
        a failure an ``{"index", "status", "error"}`` line (plus
        ``retry_after`` for an overload), and an ``{"end": …}`` summary
        line always closes the stream.
        """
        writer.write(wire.render_response(200, chunked=True))
        delivered = failures = 0
        async for outcome in outcomes:
            if isinstance(outcome, (StreamFailure, RangeFailure)):
                failures += 1
                status = wire.status_for_error(outcome.error)
                line: Dict[str, object] = {
                    "index": outcome.index,
                    "status": status,
                    **wire.payload_for_error(outcome.error),
                }
                if status == 429:
                    self.rejected += 1
                    line["retry_after"] = self.retry_after
            else:
                delivered += 1
                line = outcome.to_json()
                if isinstance(outcome, UpdateReport):
                    line["type"] = "update"
            wire.write_chunk(writer, line)
            await writer.drain()
        wire.write_chunk(
            writer, {"end": {"results": delivered, "failures": failures}}
        )
        wire.end_chunks(writer)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # endpoint bodies: each returns a JSON payload or an outcome stream
    # ------------------------------------------------------------------ #
    async def _health(self, request: HttpRequest) -> Dict[str, object]:
        return {
            "status": "ok",
            "shards": self._server.shard_count,
            "databases": len(self._server.database_names()),
        }

    async def _stats(self, request: HttpRequest) -> Dict[str, object]:
        stats = await self._server.stats()
        stats["http"] = {
            "requests": self.requests,
            "rejected": self.rejected,
            "unavailable": self.unavailable,
            "errors": self.errors,
        }
        return stats

    async def _databases(self, request: HttpRequest) -> Dict[str, object]:
        return {"databases": list(self._server.database_names())}

    async def _shards_view(self, request: HttpRequest) -> Dict[str, object]:
        """``GET /shards``: the routing table plus the live load snapshot."""
        snapshot = self._server.load_snapshot()
        return {
            "version": self._server.routing_version,
            "imbalance": snapshot.imbalance(),
            "shards": {
                str(load.shard): {
                    "names": list(load.names),
                    "dispatched": load.dispatched,
                    "completed": load.completed,
                    "in_flight": load.in_flight,
                    "queue_depth": load.queue_depth,
                    "busy_time": load.busy_time,
                }
                for load in snapshot.shards
            },
        }

    async def _shards_admin(self, request: HttpRequest) -> Dict[str, object]:
        """``POST /shards``: add/remove/move/rebalance, routed by action."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise WireError(
                'shards admin expects a body like {"action": "add"}'
            )
        action = payload.get("action")
        if action == "add":
            shard_id = self._server.add_shard()
            document: Dict[str, object] = {"added": shard_id}
        elif action == "remove":
            shard_id = payload.get("shard")
            if not isinstance(shard_id, int) or isinstance(shard_id, bool):
                raise WireError(
                    f"remove expects an integer 'shard', got {shard_id!r}"
                )
            moved = await self._server.remove_shard(shard_id)
            document = {"removed": shard_id, "moved": list(moved)}
        elif action == "move":
            name = payload.get("name")
            shard_id = payload.get("shard")
            if not isinstance(name, str) or not name:
                raise WireError(f"move expects a 'name', got {name!r}")
            if not isinstance(shard_id, int) or isinstance(shard_id, bool):
                raise WireError(
                    f"move expects an integer 'shard', got {shard_id!r}"
                )
            changed = await self._server.move(name, shard_id)
            document = {"name": name, "shard": shard_id, "moved": changed}
        elif action == "rebalance":
            moves = await self._server.rebalance()
            document = {
                "moves": [
                    {
                        "name": move.name,
                        "from": move.source,
                        "to": move.destination,
                    }
                    for move in moves
                ]
            }
        else:
            raise WireError(
                f"unknown shards action {action!r}; expected one of "
                f"'add', 'remove', 'move', 'rebalance'"
            )
        document["shards"] = self._server.shard_count
        document["version"] = self._server.routing_version
        return document

    async def _calibration(self, request: HttpRequest) -> Dict[str, object]:
        return await self._server.calibration()

    async def _calibration_admin(self, request: HttpRequest) -> Dict[str, object]:
        """``POST /calibration``: refine-to-exact drain or calibration batch.

        ``{"action": "refine"}`` (optional integer ``"limit"`` per shard)
        drains queued refine-to-exact continuations;
        ``{"action": "observe", "jobs": [...]}`` runs a held-out batch of
        count-job bodies through :meth:`AsyncServer.calibrate_from`.
        """
        payload = request.json()
        if not isinstance(payload, dict):
            raise WireError(
                'calibration admin expects a body like {"action": "refine"}'
            )
        action = payload.get("action")
        if action == "refine":
            limit = payload.get("limit")
            if limit is not None and (
                not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
            ):
                raise WireError(
                    f"refine expects a non-negative integer 'limit', got {limit!r}"
                )
            return dict(await self._server.refine(limit))
        if action == "observe":
            jobs = payload.get("jobs")
            if not isinstance(jobs, list):
                raise WireError(
                    f"observe expects a 'jobs' list of count-job bodies, "
                    f"got {type(jobs).__name__}"
                )
            batch = [CountJob.from_json(body) for body in jobs]
            return dict(await self._server.calibrate_from(batch))
        raise WireError(
            f"unknown calibration action {action!r}; expected one of "
            f"'refine', 'observe'"
        )

    @staticmethod
    def _payload_and_index(request: HttpRequest) -> Tuple[Dict[str, object], int]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise WireError(
                f"expected a JSON object body, got {type(payload).__name__}"
            )
        index = payload.pop("index", 0)
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise WireError(f"index must be a non-negative integer, got {index!r}")
        return payload, index

    async def _count(self, request: HttpRequest) -> Dict[str, object]:
        payload, index = self._payload_and_index(request)
        job = CountJob.from_json(payload)
        result = await self._server.submit(job, index)
        return result.to_json()

    async def _update(self, request: HttpRequest) -> Dict[str, object]:
        payload, index = self._payload_and_index(request)
        job = UpdateJob.from_json(payload)
        report = await self._server.submit(job, index)
        return report.to_json()

    async def _stream(self, request: HttpRequest) -> AsyncIterator[object]:
        """``POST /stream``: results in completion order, errors in band.

        The whole JSON-lines body is parsed before anything is
        dispatched, so a malformed line is a 400 and nothing runs.
        """
        lines = request.body.split(b"\n")
        items = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            items.append(parse_stream_item(_parse_stream_line(line)))
        return self._server.results(items, on_error="yield")

    async def _range(self, request: HttpRequest) -> AsyncIterator[object]:
        """``POST /range``: one ``as_of_range`` job, chunked results.

        The body is a single count-job document carrying ``as_of_range``
        (plus an optional ``index`` for the first version's stream
        position).  The whole range runs as one unit of shard work
        (:meth:`AsyncServer.run_range`), so backpressure applies to the
        range, not per version: a full queue under the ``"reject"``
        policy answers **429** for the whole request (with
        ``Retry-After``), a stopped server **503** — exactly like
        ``/stream``'s dispatch errors, but before any chunk is written.
        The response streams one chunked JSON line per version in range
        order; a version that fails is reported in band as
        ``{"index": …, "status": …, "error": …}`` and the remaining
        versions still arrive.  The stream terminates with an
        ``{"end": …}`` summary line.
        """
        payload, first_index = self._payload_and_index(request)
        job = CountJob.from_json(payload)
        outcomes = await self._server.run_range(job, first_index)

        async def each() -> AsyncIterator[object]:
            for outcome in outcomes:
                yield outcome

        return each()

    async def _history(self, request: HttpRequest, name: str) -> Dict[str, object]:
        lineage = await self._server.history(name)
        records = list(lineage)
        elided = 0
        limit_text = request.query_parameters().get("limit")
        if limit_text is not None:
            try:
                limit = int(limit_text)
            except ValueError as exc:
                raise WireError(f"limit must be an integer, got {limit_text!r}") from exc
            if limit < 0:
                raise WireError(f"limit must be >= 0, got {limit}")
            if limit:
                elided = max(0, len(records) - limit)
                records = records[-limit:]
        head = lineage.head
        return {
            "name": name,
            "records": [record.to_json() for record in records],
            "elided": elided,
            "head": None if head is None else head.digest,
        }

    async def _checkpoints(self, request: HttpRequest, name: str) -> Dict[str, object]:
        records = await self._server.checkpoints(name)
        return {
            "name": name,
            "checkpoints": [record.to_json() for record in records],
        }

    async def _checkpoint(self, request: HttpRequest, name: str) -> Dict[str, object]:
        record = await self._server.checkpoint(name)
        return {
            "name": name,
            "checkpoint": None if record is None else record.to_json(),
        }

    async def _rollback(self, request: HttpRequest, name: str) -> Dict[str, object]:
        payload = request.json()
        if not isinstance(payload, dict) or "to" not in payload:
            raise WireError('rollback expects a body like {"to": <ref>}')
        reference = payload["to"]
        if not isinstance(reference, (str, int)) or isinstance(reference, bool):
            raise WireError(f"rollback ref must be a digest or index, got {reference!r}")
        record = await self._server.rollback(name, reference)
        return {"name": name, "record": record.to_json()}


#: A route handler: ``handler(front, request, *path_arguments)`` resolves
#: to the JSON payload of a 200 answer, or to an async iterator of stream
#: outcomes that is written as chunked JSON-lines.
Handler = Callable[..., Awaitable[object]]

#: The route table: ``(method, first path segment, segment count)`` ->
#: handler; the segments after the first are the handler's arguments.
#: The only routing authority — 404 and 405 are derived from it.
ROUTES: Dict[Tuple[str, str, int], Handler] = {
    ("GET", "health", 1): HttpServer._health,
    ("GET", "stats", 1): HttpServer._stats,
    ("GET", "databases", 1): HttpServer._databases,
    ("GET", "shards", 1): HttpServer._shards_view,
    ("POST", "shards", 1): HttpServer._shards_admin,
    ("GET", "calibration", 1): HttpServer._calibration,
    ("POST", "calibration", 1): HttpServer._calibration_admin,
    ("POST", "count", 1): HttpServer._count,
    ("POST", "update", 1): HttpServer._update,
    ("POST", "stream", 1): HttpServer._stream,
    ("POST", "range", 1): HttpServer._range,
    ("GET", "history", 2): HttpServer._history,
    ("GET", "checkpoints", 2): HttpServer._checkpoints,
    ("POST", "checkpoint", 2): HttpServer._checkpoint,
    ("POST", "rollback", 2): HttpServer._rollback,
}
