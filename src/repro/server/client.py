"""The HTTP client library: :class:`ServeClient`.

The client side of the wire protocol in :mod:`repro.server.wire`: a
keep-alive connection to an :class:`~repro.server.http.HttpServer`, with
the two behaviours a client of a *backpressured* server must have built
in rather than bolted on:

**Retry budgets with exponential backoff.**  Overload answers (HTTP 429)
and unavailable answers (HTTP 503) are retried up to ``retries`` times,
sleeping the larger of the server's ``Retry-After`` hint and the client's
own exponentially growing delay (capped at ``backoff_cap``).  When the
budget is exhausted the *server's* exception is raised
(:class:`~repro.errors.ServerOverloadedError` for 429), so callers handle
wire overload exactly like in-process overload.  Connection failures are
retried on the same budget: every request in this protocol is either
read-only or idempotent at the engine level (a delta is applied by the
shard in submission order; a torn connection before the *request* was
written costs nothing, and the client only auto-reconnects when the
failure strikes before a byte of the request hit the socket).  A request
that outlives ``timeout`` is never resent, since the server may still be
running it: the client closes the connection and raises
:class:`~repro.errors.WireError`.

**Streaming result iterators.**  :meth:`stream` sends a JSON-lines job
stack and yields each result line as it arrives off the chunked response
— completion order, failures in band as ``{"index": …, "error": …}``
documents — terminating exactly at the server's ``{"end": …}`` summary
(exposed afterwards as :attr:`last_stream_summary`).  A connection that
dies mid-stream raises :class:`~repro.errors.WireError`; a truncated
stream never masquerades as a short result set.

Every method returns plain JSON dicts (the ``to_json`` document shapes),
not dataclasses: the client is a *network* client and speaks the wire's
vocabulary.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Dict, List, Optional, Tuple

from ..errors import ServerError, WireError
from . import wire

__all__ = ["ServeClient"]


class ServeClient:
    """An asyncio client for the HTTP serving front.

    Parameters
    ----------
    host, port:
        The address :class:`~repro.server.http.HttpServer` is bound to.
    retries:
        How many times a retryable answer (429/503) or a pre-request
        connection failure is retried before the error is raised.
    backoff, backoff_cap:
        Exponential backoff schedule: the n-th retry sleeps
        ``max(retry_after_hint, backoff * 2**n)`` capped at
        ``backoff_cap`` seconds.
    timeout:
        Per-request ceiling in seconds: one deadline covers writing the
        request and reading the response head (the chunks of a streamed
        body have none).  A request past it raises
        :class:`~repro.errors.WireError` and is not retried.

    Usage::

        async with ServeClient("127.0.0.1", 8080) as client:
            result = await client.count({"database": "r", "query": "..."})

    The client holds one keep-alive connection; concurrent callers are
    serialised on an internal lock (open several clients for parallelism —
    that is what the load harness does).
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 4,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        timeout: float = 60.0,
    ) -> None:
        if retries < 0:
            raise ServerError(f"retries must be >= 0, got {retries}")
        if backoff < 0 or backoff_cap < 0:
            raise ServerError("backoff and backoff_cap must be >= 0")
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        #: The ``{"results": …, "failures": …}`` summary of the last
        #: completed :meth:`stream` call.
        self.last_stream_summary: Optional[Dict[str, object]] = None
        self.attempts = 0
        self.retries_used = 0
        self.rejections = 0  # 429/503 answers seen (including retried ones)

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #
    async def connect(self) -> None:
        """Open the connection (lazy: requests connect on demand)."""
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # one request/response exchange, with the retry budget
    # ------------------------------------------------------------------ #
    async def _exchange(
        self, method: str, target: str, body: bytes = b""
    ) -> Tuple[wire.HttpResponse, "asyncio.StreamReader"]:
        """Send one request; return the (response, reader) pair.

        Applies the retry budget to 429/503 answers and to connection
        failures.  A request that times out is never resent: the
        connection is closed and :class:`WireError` raised.  The reader
        is returned alongside the response so :meth:`_lines` can keep
        consuming a chunked body.
        """
        delay = self.backoff
        attempt = 0
        while True:
            self.attempts += 1
            try:
                await self.connect()
                assert self._reader is not None and self._writer is not None
                request = wire.render_request(
                    method, target, f"{self.host}:{self.port}", body
                )
                self._writer.write(request)
                try:
                    async with asyncio.timeout(self.timeout):
                        await self._writer.drain()
                        response = await wire.read_response(self._reader)
                except TimeoutError as exc:
                    # The request is out and may still run on the server:
                    # resending it could apply a delta twice.
                    await self.close()
                    raise WireError(
                        f"no answer from {self.host}:{self.port} within "
                        f"{self.timeout} s after {attempt + 1} attempts; "
                        f"a request that timed out is not resent"
                    ) from exc
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                # The connection died; nothing of this request survives on
                # the server side that a retry would duplicate (see module
                # docstring).  Reconnect and retry on the same budget.
                await self.close()
                if attempt >= self.retries:
                    raise WireError(
                        f"connection to {self.host}:{self.port} failed "
                        f"after {attempt + 1} attempts: {exc}"
                    ) from exc
                attempt += 1
                self.retries_used += 1
                await asyncio.sleep(delay)
                delay = min(delay * 2 if delay else self.backoff, self.backoff_cap)
                continue
            if response.status in wire.RETRYABLE_STATUSES:
                self.rejections += 1
                if attempt >= self.retries:
                    raise wire.error_from_status(response.status, self._json_of(response))
                attempt += 1
                self.retries_used += 1
                hint = wire.parse_retry_after(response.headers)
                await asyncio.sleep(max(hint or 0.0, delay))
                delay = min(delay * 2 if delay else self.backoff, self.backoff_cap)
                continue
            if response.status >= 400:
                raise wire.error_from_status(response.status, self._json_of(response))
            assert self._reader is not None
            return response, self._reader

    @staticmethod
    def _json_of(response: wire.HttpResponse) -> object:
        try:
            return response.json()
        except WireError:
            return {}

    async def _call(
        self, method: str, target: str, payload: Optional[object] = None
    ) -> Dict[str, object]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        async with self._lock:
            response, _reader = await self._exchange(method, target, body)
            document = response.json()
            if not isinstance(document, dict):
                raise WireError(
                    f"expected a JSON object from {target}, got "
                    f"{type(document).__name__}"
                )
            return document

    async def _lines(
        self, target: str, body: bytes
    ) -> AsyncIterator[Dict[str, object]]:
        """``POST`` ``body`` and yield the chunked JSON-lines answer.

        The one reader behind :meth:`stream` and :meth:`range`: documents
        are yielded as chunks arrive, the ``{"end": …}`` summary lands in
        :attr:`last_stream_summary`, and a stream that dies before it
        raises :class:`WireError`.
        """
        async with self._lock:
            response, reader = await self._exchange("POST", target, body)
            if not response.chunked:
                raise WireError(
                    f"expected a chunked stream, got status {response.status}"
                )
            self.last_stream_summary = None
            async for document in wire.iter_chunked_lines(reader):
                if isinstance(document, dict) and "end" in document:
                    # Keep draining: the terminating zero-chunk is still on
                    # the wire, and leaving it there would corrupt the next
                    # request on this keep-alive connection.
                    end = document["end"]
                    self.last_stream_summary = end if isinstance(end, dict) else {}
                    continue
                if isinstance(document, dict):
                    yield document
            if self.last_stream_summary is None:
                raise WireError(f"POST {target} ended without a summary line")

    # ------------------------------------------------------------------ #
    # the serving surface
    # ------------------------------------------------------------------ #
    async def health(self) -> Dict[str, object]:
        """``GET /health`` — liveness plus shard/database counts."""
        return await self._call("GET", "/health")

    async def stats(self) -> Dict[str, object]:
        """``GET /stats`` — queue, shard and HTTP-front counters."""
        return await self._call("GET", "/stats")

    async def databases(self) -> List[str]:
        """``GET /databases`` — the registered names."""
        document = await self._call("GET", "/databases")
        names = document.get("databases")
        return list(names) if isinstance(names, list) else []

    async def count(
        self, job: Dict[str, object], index: int = 0
    ) -> Dict[str, object]:
        """``POST /count`` — one counting job document -> result document.

        ``job`` is the :meth:`CountJob.to_json` shape (``database``,
        ``query``, optional ``mode``/``epsilon``/``delta``/``as_of``…);
        ``index`` is the stream position and fixes the derived seed.
        """
        return await self._call("POST", "/count", {**job, "index": index})

    async def update(
        self, job: Dict[str, object], index: int = 0
    ) -> Dict[str, object]:
        """``POST /update`` — one delta document -> update report."""
        return await self._call("POST", "/update", {**job, "index": index})

    def stream(
        self, items: List[Dict[str, object]]
    ) -> AsyncIterator[Dict[str, object]]:
        """``POST /stream`` — yield result documents as they arrive.

        ``items`` are stream-item documents (count jobs, or updates with
        ``"update": name``); results come back in completion order, each
        carrying its ``index``.  Failed elements appear in band as
        ``{"index": …, "status": …, "error": …}`` documents.  The
        terminating summary is stored in :attr:`last_stream_summary`, and
        a stream that dies before it raises :class:`WireError`.
        """
        body = "\n".join(json.dumps(item) for item in items)
        return self._lines("/stream", body.encode("utf-8"))

    def range(
        self, job: Dict[str, object], index: int = 0
    ) -> AsyncIterator[Dict[str, object]]:
        """``POST /range`` — yield one result document per range version.

        ``job`` is a count-job document carrying ``as_of_range`` (a
        two-element ``[lo, hi]`` list of snapshot refs); ``index`` is the
        stream position of the first version.  Results arrive in range
        order.  A version that failed appears in band as an
        ``{"index": …, "status": …, "error": …}`` document and the
        remaining versions still arrive; a whole-range rejection (full
        queue under the ``"reject"`` policy) retries on the client's
        budget and then raises, exactly like every other call.  The
        terminating summary is stored in :attr:`last_stream_summary`,
        and a stream that dies before it raises :class:`WireError`.
        """
        body = json.dumps({**job, "index": index}).encode("utf-8")
        return self._lines("/range", body)

    async def shards(self) -> Dict[str, object]:
        """``GET /shards`` — routing table, version, per-shard load.

        The returned assignment is valid only at the returned
        ``version``; never cache it across requests (ownership moves).
        """
        return await self._call("GET", "/shards")

    async def add_shard(self) -> Dict[str, object]:
        """``POST /shards`` ``{"action": "add"}`` — grow the fleet."""
        return await self._call("POST", "/shards", {"action": "add"})

    async def remove_shard(self, shard: int) -> Dict[str, object]:
        """``POST /shards`` remove — drain and retire one shard.

        Raises :class:`~repro.errors.RebalanceError` (HTTP 409) for an
        unknown id or when the shard is the last one.
        """
        return await self._call(
            "POST", "/shards", {"action": "remove", "shard": shard}
        )

    async def move(self, name: str, shard: int) -> Dict[str, object]:
        """``POST /shards`` move — hand one name off to another shard."""
        return await self._call(
            "POST", "/shards", {"action": "move", "name": name, "shard": shard}
        )

    async def rebalance(self) -> Dict[str, object]:
        """``POST /shards`` rebalance — run one policy round now."""
        return await self._call("POST", "/shards", {"action": "rebalance"})

    async def calibration(self) -> Dict[str, object]:
        """``GET /calibration`` — calibration tables + refinement state."""
        return await self._call("GET", "/calibration")

    async def refine(self, limit: Optional[int] = None) -> Dict[str, object]:
        """``POST /calibration`` refine — drain refine-to-exact queues.

        ``limit`` bounds the continuations per shard; ``None`` drains
        everything queued at the time of the call.
        """
        payload: Dict[str, object] = {"action": "refine"}
        if limit is not None:
            payload["limit"] = limit
        return await self._call("POST", "/calibration", payload)

    async def calibrate(
        self, jobs: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """``POST /calibration`` observe — run a held-out calibration batch.

        ``jobs`` are count-job documents; every randomised one contributes
        an (estimate, exact) residual pair to its shard's calibrator.
        """
        return await self._call(
            "POST", "/calibration", {"action": "observe", "jobs": jobs}
        )

    async def history(
        self, name: str, limit: Optional[int] = None
    ) -> Dict[str, object]:
        """``GET /history/{name}`` — the recorded lineage document."""
        target = f"/history/{name}"
        if limit is not None:
            target += f"?limit={limit}"
        return await self._call("GET", target)

    async def checkpoints(self, name: str) -> Dict[str, object]:
        """``GET /checkpoints/{name}`` — the known checkpoints document."""
        return await self._call("GET", f"/checkpoints/{name}")

    async def checkpoint(self, name: str) -> Dict[str, object]:
        """``POST /checkpoint/{name}`` — cut a checkpoint now."""
        return await self._call("POST", f"/checkpoint/{name}")

    async def rollback(self, name: str, to: object) -> Dict[str, object]:
        """``POST /rollback/{name}`` — re-register a recorded ancestor."""
        return await self._call("POST", f"/rollback/{name}", {"to": to})

    def __repr__(self) -> str:
        state = "connected" if self._writer is not None else "disconnected"
        return (
            f"ServeClient({self.host}:{self.port}, retries={self.retries}, "
            f"{state})"
        )
