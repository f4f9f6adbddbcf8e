"""The asyncio serving front-end: :class:`AsyncServer`.

:class:`~repro.engine.SolverPool` is a library object: callers hand it a
batch and wait.  A long-lived service needs the opposite shape — jobs
arrive continuously, concurrency must be *bounded* (an unbounded backlog
is an outage with extra steps), and the data set is sharded so independent
databases are served by independent worker processes.  ``AsyncServer``
provides that shape on top of the pool:

**Sharding** — each registered snapshot is owned by exactly one
:class:`~repro.server.shards.Shard` (a warm worker process hosting its
own pool, reached over one socketpair with at most two calls on the
wire).  Ownership is assigned at registration time from the snapshot
token: the token digest picks a preferred shard, demoted to the
least-loaded shard when the preferred one is already above the minimum
load, so shard assignment is deterministic for a given registration order
and databases spread evenly.  Jobs and deltas route to the owning shard —
including *time-travel* jobs (``CountJob.as_of``): a name's historical
snapshots live in the lineage its owning shard recorded (and, with a
persistent store, in the shared snapshot catalog), so routing by name is
routing by historical token, and an ``as_of`` count hits whatever
selector/decomposition state was warm when that snapshot was live.

**Ordering** — a shard executes its queue FIFO, so all counts and updates
of one database are serialised in submission order; a count therefore
observes exactly the snapshots produced by the deltas submitted before it.
Across *different* databases there is no ordering (none is needed — a
delta cannot affect another database's counts), which is precisely the
parallelism the shards exploit.  Results remain **bit-identical** to a
sequential :meth:`SolverPool.run_stream` of the same stream: per-job seeds
derive from the job content and its stream position, both of which the
server preserves.

**Backpressure** — at most ``queue_limit`` jobs are in flight (accepted
but not finished) at any moment.  When the queue is full, the ``"wait"``
policy suspends the submitter until a slot frees and the ``"reject"``
policy raises :class:`~repro.errors.ServerOverloadedError` immediately.
Either way a job is never silently dropped: it is finished, or the caller
holds an exception saying it was not.

**Elasticity** — ownership is not fixed for life.  The server keeps
per-name load accounting (dispatched, completed, in-flight, cumulative
busy seconds); a shard's load is the sum over the names it owns, so a
moved name takes its load along.  :meth:`AsyncServer.move`
transfers a name to another shard mid-serve: new dispatches of the name
park on a gate, its in-flight jobs drain on the old shard (FIFO, so
bit-identical ordering survives), the *worker-side* head and lineage are
exported and adopted by the destination (whose caches are primed through
the shared store — a warm handoff ships zero recomputations), and the
routing table flips in one step.  Jobs for other names never stall.
:meth:`add_shard`/:meth:`remove_shard` grow and shrink the fleet at
runtime, and the :class:`~repro.server.rebalance.GreedyRebalancer` can
run those moves on a timer via ``rebalance_interval`` (:meth:`rebalance`
takes any :class:`~repro.server.rebalance.RebalancePolicy`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.lineage import CheckpointRecord, Lineage, LineageRecord
from ..engine.jobs import (
    BatchReport,
    CountJob,
    JobResult,
    UpdateJob,
    UpdateReport,
    aggregate_cache_stats,
)
from ..engine.executor import RangeFailure
from ..errors import (
    EngineError,
    RebalanceError,
    ServerError,
    ServerOverloadedError,
)
from ..store.tuning import CheckpointPolicy
from .rebalance import (
    GreedyRebalancer,
    LoadSnapshot,
    Move,
    NameLoad,
    RebalancePolicy,
    ShardLoad,
)
from .shards import Shard

__all__ = [
    "AsyncServer",
    "BACKPRESSURE_POLICIES",
    "StreamFailure",
    "serve_stream",
]

#: The supported reactions to a full job queue.
BACKPRESSURE_POLICIES = ("wait", "reject")

#: A stream element: one counting job or one delta.
StreamItem = Union[CountJob, UpdateJob]
#: What one stream element resolves to.
StreamResult = Union[JobResult, UpdateReport]


@dataclass(frozen=True)
class StreamFailure:
    """One stream element that produced an error instead of a result.

    Yielded by :meth:`AsyncServer.results` under ``on_error="yield"`` so a
    streaming consumer (the HTTP front, the CLI) can report the failure in
    band and keep draining the remaining results — a failed job must never
    take the rest of the stream down with it, and must never be silently
    dropped either.

    ``index`` is the element's stream position (the same index a
    successful result would carry); ``error`` is the exception the element
    produced, either at dispatch time (overload, unknown database) or at
    execution time (bad query, unknown ``as_of`` reference).
    """

    index: int
    error: BaseException


class AsyncServer:
    """A sharded, backpressured asyncio server over :class:`SolverPool`.

    Parameters
    ----------
    shards:
        Number of worker shards.  Each shard is one warm process owning a
        disjoint subset of the registered snapshots.
    queue_limit:
        Bound on in-flight jobs (accepted, not yet finished) across the
        whole server.
    policy:
        What a full queue does to a submitter: ``"wait"`` suspends it,
        ``"reject"`` raises :class:`~repro.errors.ServerOverloadedError`.
    persist_dir, persist_max_entries, persist_max_age, persist_max_bytes, \
checkpoint_every, checkpoint_policy:
        Forwarded to every shard's pool (see :class:`SolverPool`); shards
        share one persistent cache directory, ``checkpoint_every`` makes
        each shard cut compaction checkpoints for its owned names, and
        ``checkpoint_policy`` replaces the fixed interval with a
        cost-model-driven placement policy (e.g.
        :class:`~repro.store.AdaptiveCheckpointPolicy`) — each shard
        worker unpickles its own instance and observes its own reads.
        ``persist_max_bytes`` bounds the shared store's total footprint,
        split between entry kinds by observed hit-rate-per-byte.
        A shared ``persist_dir`` is also what makes ownership handoffs
        *warm*: the destination reads the migrated name's selector and
        decomposition entries through the store instead of recomputing.
    rebalance_interval, max_imbalance:
        Automatic rebalancing: every ``rebalance_interval`` seconds the
        server asks its policy for moves and executes them.  The policy
        is :class:`~repro.server.rebalance.GreedyRebalancer` with
        threshold ``max_imbalance`` (hottest shard over mean shard
        load); :meth:`rebalance` accepts another policy.  Leave the interval
        ``None`` (default) for on-demand rebalancing via
        :meth:`rebalance`.

    Example — three jobs through a one-shard server (the synchronous
    :func:`serve_stream` wrapper drives exactly this API):

    >>> import asyncio
    >>> from repro.db import Database, PrimaryKeySet, fact
    >>> from repro.engine import CountJob
    >>> db = Database([fact("R", 1, "a"), fact("R", 1, "b")])
    >>> keys = PrimaryKeySet.from_dict({"R": [1]})
    >>> async def main():
    ...     server = AsyncServer(shards=1, queue_limit=2)
    ...     server.register("r", db, keys)
    ...     async with server:
    ...         return await server.run_stream(
    ...             [CountJob(database="r", query="EXISTS x. R(1, x)")])
    >>> report = asyncio.run(main())
    >>> (report.results[0].satisfying, report.results[0].total)
    (2, 2)
    """

    def __init__(
        self,
        shards: int = 2,
        queue_limit: int = 64,
        policy: str = "wait",
        persist_dir: Optional[Union[str, Path]] = None,
        persist_max_entries: Optional[int] = None,
        persist_max_age: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        persist_max_bytes: Optional[int] = None,
        rebalance_interval: Optional[float] = None,
        max_imbalance: float = 2.0,
    ) -> None:
        if shards < 1:
            raise ServerError(f"shards must be >= 1, got {shards}")
        if queue_limit < 1:
            raise ServerError(f"queue_limit must be >= 1, got {queue_limit}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ServerError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            # Validate in the parent: a bad interval must fail here, not
            # as a start-up error on every call to the shard workers.
            raise ServerError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_policy is not None:
            raise ServerError(
                "pass checkpoint_every or checkpoint_policy, not both; "
                "checkpoint_every=K is FixedIntervalPolicy(K)"
            )
        if persist_max_bytes is not None and persist_max_bytes < 0:
            raise ServerError(
                f"persist_max_bytes must be >= 0, got {persist_max_bytes}"
            )
        if rebalance_interval is not None and rebalance_interval <= 0:
            raise ServerError(
                f"rebalance_interval must be > 0, got {rebalance_interval}"
            )
        self._shard_options = {
            "persist_dir": persist_dir,
            "persist_max_entries": persist_max_entries,
            "persist_max_age": persist_max_age,
            "checkpoint_every": checkpoint_every,
            "checkpoint_policy": checkpoint_policy,
            "persist_max_bytes": persist_max_bytes,
        }
        self._shards = [
            Shard(shard_id, **self._shard_options) for shard_id in range(shards)
        ]
        self._next_shard_id = shards
        self._owner: Dict[str, Shard] = {}
        self._routing_version = 0
        self._queue_limit = queue_limit
        self._policy = policy
        self._slots: Optional[asyncio.Semaphore] = None
        #: future -> database name of every in-flight job.
        self._outstanding: Dict["asyncio.Future[StreamResult]", str] = {}
        #: name -> gate event while that name is mid-handoff.
        self._moving: Dict[str, asyncio.Event] = {}
        #: name -> its lifetime load; a shard's load is the sum over the
        #: names it owns, so a moved name takes its load along.
        self._name_load: Dict[str, Dict[str, float]] = {}
        self._rebalance_interval = rebalance_interval
        self._rebalancer = GreedyRebalancer(max_imbalance=max_imbalance)
        self._rebalance_task: Optional["asyncio.Task[None]"] = None
        self._running = False
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.moves_completed = 0
        self.rebalance_rounds = 0

    # ------------------------------------------------------------------ #
    # registration and routing
    # ------------------------------------------------------------------ #
    def register(self, name: str, database: Database, keys: PrimaryKeySet) -> None:
        """Register a snapshot and assign it to its owning shard.

        Re-registering a known name keeps it on its shard (the shard's
        pool handles the content change); a new name is routed by its
        snapshot token as described in the module docstring.  Registration
        is allowed both before ``start`` (priming) and while running
        (live registration, ordered with subsequent jobs on that shard).
        """
        if name in self._owner:
            self._owner[name].own(name, database, keys)
            return
        database.freeze()
        token = (database.content_digest(), keys.content_digest())
        shard = self._assign_shard(token)
        shard.own(name, database, keys)
        self._owner[name] = shard
        self._routing_version += 1

    def _assign_shard(self, token: Tuple[str, str]) -> Shard:
        """Token-preferred, load-balanced *initial* shard choice.

        Deterministic for a given registration order and shard set —
        but only the initial placement: ownership may move later, so
        every routing decision must read :meth:`shard_of` (or the
        internal :meth:`_owner_of`) at dispatch time, never cache a
        shard reference across an await.
        """
        preferred = int(token[0][:16], 16) % len(self._shards)
        least_loaded = min(len(shard) for shard in self._shards)
        for offset in range(len(self._shards)):
            candidate = self._shards[(preferred + offset) % len(self._shards)]
            if len(candidate) == least_loaded:
                return candidate
        raise AssertionError("unreachable: some shard has the minimum load")

    def shard_of(self, name: str) -> int:
        """The shard id *currently* owning the registration ``name``.

        The single routing lookup: valid only until the next ownership
        change (watch :attr:`routing_version`), so callers must resolve
        it per dispatch rather than caching the result.
        """
        return self._owner_of(name).shard_id

    @property
    def routing_version(self) -> int:
        """Monotonic counter, bumped on every ownership/topology change.

        Increments on registration, on every completed :meth:`move`, and
        on :meth:`add_shard`/:meth:`remove_shard` — a cheap staleness
        probe for anything that snapshots the routing table.
        """
        return self._routing_version

    def database_names(self) -> Tuple[str, ...]:
        """All registered names, in registration order."""
        return tuple(self._owner)

    @property
    def shard_count(self) -> int:
        """The number of worker shards this server fans out over."""
        return len(self._shards)

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """The live shard ids (stable ids, not indices: they survive
        removals and keep growing across :meth:`add_shard`)."""
        return tuple(shard.shard_id for shard in self._shards)

    def _shard_by_id(self, shard_id: int) -> Shard:
        for shard in self._shards:
            if shard.shard_id == shard_id:
                return shard
        raise RebalanceError(
            f"unknown shard {shard_id}; live shards: {list(self.shard_ids)}"
        )

    def _owner_of(self, name: str) -> Shard:
        try:
            return self._owner[name]
        except KeyError as exc:
            raise EngineError(
                f"unknown database {name!r}; registered: {sorted(self._owner)}"
            ) from exc

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start every shard worker.  Idempotent calls are an error."""
        if self._running:
            raise ServerError("the server is already running")
        self._slots = asyncio.Semaphore(self._queue_limit)
        for shard in self._shards:
            shard.start()
        self._running = True
        if self._rebalance_interval is not None:
            self._rebalance_task = asyncio.get_running_loop().create_task(
                self._rebalance_loop()
            )

    async def stop(self) -> None:
        """Drain and stop every shard (waits for in-flight jobs).

        Teardown is a two-phase drain: first every shard worker is shut
        down (a stop frame queued behind its pending calls, answered once
        they have run), then the loop is yielded to until every completion
        callback has run.  Only then is the semaphore dropped — a callback
        must never find ``_slots`` already gone, or the
        ``in_flight``/``completed`` counters would still be mid-flight when
        ``stop`` returns (and would never settle at all if the event loop
        exits right after).
        """
        if not self._running:
            return
        self._running = False
        if self._rebalance_task is not None:
            # Stop the timer before draining shards: a rebalance firing
            # mid-teardown would race the shards it moves names over.
            self._rebalance_task.cancel()
            try:
                await self._rebalance_task
            except asyncio.CancelledError:
                pass
            self._rebalance_task = None
        outcomes = await asyncio.gather(
            *(shard.shutdown() for shard in self._shards),
            return_exceptions=True,
        )
        # Every shard future is done now (shutdown waited), but the
        # completion callbacks are delivered via call_soon and may still
        # be queued; yield until they have all run.
        while self._outstanding:
            await asyncio.sleep(0)
        self._slots = None
        errors = [error for error in outcomes if isinstance(error, BaseException)]
        if errors:
            raise errors[0]

    async def __aenter__(self) -> "AsyncServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _require_running(self) -> None:
        if not self._running:
            raise ServerError("the server is not running; use 'async with server'")

    async def _admit(self, name: str, op: str, *args: Any) -> "asyncio.Future[Any]":
        """The one admission path: queue ``op`` for ``name`` on its owner.

        Validates the name before taking a slot, applies the backpressure
        policy, waits out an in-flight handoff of the name, queues
        :meth:`Shard.call(op, *args) <repro.server.shards.Shard.call>` on
        the owning shard, and opens the load accounting that
        :meth:`_on_done` settles.  Returns the job's asyncio future.
        """
        self._require_running()
        self._owner_of(name)  # validate before taking a slot
        if self._policy == "reject" and self._slots.locked():
            self.rejected += 1
            job = "range job" if op == "run_range" else "job"
            raise ServerOverloadedError(
                f"queue full ({self._queue_limit} jobs in flight); "
                f"{job} for {name!r} rejected"
            )
        await self._slots.acquire()
        try:
            # Routing resolves *after* the slot wait and after any
            # in-flight handoff of this name: a shard reference taken
            # before either await could be stale by the time the job is
            # queued.  One shard_of lookup, at the last possible moment.
            while True:
                gate = self._moving.get(name)
                if gate is None:
                    break
                await gate.wait()
            shard = self._owner_of(name)
            future = shard.call(op, *args)
        except BaseException:
            self._slots.release()
            raise
        self.submitted += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        load = self._name_load.setdefault(name, self._new_load())
        load["dispatched"] += 1
        load["in_flight"] += 1
        self._outstanding[future] = name
        future.add_done_callback(self._on_done)
        return future

    @staticmethod
    def _queue(shard: Shard, *calls: Tuple[Any, ...]) -> "asyncio.Future[List[Any]]":
        """Queue ``(op, *args)`` calls back to back on ``shard``'s FIFO.

        Every call is submitted before this returns, so nothing queued
        later can land between them; the future resolves to their results
        in order.  Probes and handoff steps bypass admission: they take no
        backpressure slot and open no load accounting.
        """
        return asyncio.gather(*(shard.call(*call) for call in calls))

    async def _on_owner(self, name: str, op: str, *args: Any) -> Any:
        """Run one probe ``op(name, *args)`` on the shard owning ``name``."""
        self._require_running()
        (result,) = await self._queue(self._owner_of(name), (op, name, *args))
        return result

    async def _on_every_shard(self, *calls: Tuple[Any, ...]) -> List[List[Any]]:
        """Run the same back-to-back calls on every shard; results per shard."""
        self._require_running()
        return await asyncio.gather(
            *(self._queue(shard, *calls) for shard in self._shards)
        )

    async def dispatch(
        self, item: StreamItem, index: int = 0
    ) -> "asyncio.Future[StreamResult]":
        """Accept one stream element and return a future for its result.

        Applies the backpressure policy *before* accepting: with a full
        queue, ``"wait"`` suspends here and ``"reject"`` raises
        :class:`ServerOverloadedError` (the job was never accepted).  The
        returned future resolves to a :class:`JobResult` (count jobs) or
        an :class:`UpdateReport` (updates); ``index`` is the position in
        the caller's stream and fixes both result ordering and the derived
        per-job seeds, exactly as in :meth:`SolverPool.run_stream`.
        """
        if isinstance(item, UpdateJob):
            op = "apply_delta"
        elif isinstance(item, CountJob):
            op = "run_job"
        else:
            raise EngineError(
                f"stream items must be CountJob or UpdateJob, "
                f"got {type(item).__name__}"
            )
        return await self._admit(item.database, op, item, index)

    async def run_range(
        self, job: CountJob, first_index: int = 0
    ) -> List[Union[JobResult, RangeFailure]]:
        """Serve one ``as_of_range`` job as a single unit of shard work.

        The whole range routes to the one shard owning ``job.database``
        and occupies exactly one backpressure slot and one FIFO queue
        position: every version counts against the same lineage state
        (no delta submitted afterwards can interleave), and the shard
        worker resolves all versions through one shared replay walk
        (:meth:`SolverPool.run_range
        <repro.engine.pool.SolverPool.run_range>`).  Returns one outcome
        per version, oldest-endpoint first (or newest first for a
        descending range), failures in band as
        :class:`~repro.engine.RangeFailure` — bit-identical, version for
        version, to submitting the expanded ``as_of`` jobs one by one.

        Backpressure applies exactly as in :meth:`dispatch`: a full
        queue suspends the submitter under ``"wait"`` and raises
        :class:`~repro.errors.ServerOverloadedError` under ``"reject"``.
        """
        self._require_running()
        if job.as_of_range is None:
            raise EngineError(
                "run_range needs a job with as_of_range; "
                "plain jobs go through dispatch/submit"
            )
        return await (await self._admit(job.database, "run_range", job, first_index))

    @staticmethod
    def _new_load() -> Dict[str, float]:
        return {
            "dispatched": 0,
            "completed": 0,
            "in_flight": 0,
            "busy_time": 0.0,
        }

    def _on_done(self, future: "asyncio.Future[StreamResult]") -> None:
        """Settle a finished job's counters and free its queue slot, once.

        Runs as the future's done callback, and earlier from
        :meth:`results`, which settles a job before yielding it; whichever
        call comes second finds the future gone and does nothing.
        """
        name = self._outstanding.pop(future, None)
        if name is None:
            return
        self.in_flight -= 1
        failed = future.cancelled() or future.exception() is not None
        elapsed = 0.0
        if not failed:
            self.completed += 1
            result = future.result()
            if isinstance(result, list):
                # A range resolves to one outcome per version; its busy
                # time is the sum of the versions that produced results.
                elapsed = sum(
                    float(getattr(item, "elapsed", 0.0) or 0.0)
                    for item in result
                )
            else:
                elapsed = float(getattr(result, "elapsed", 0.0) or 0.0)
        load = self._name_load[name]
        load["in_flight"] -= 1
        if not failed:
            load["completed"] += 1
            load["busy_time"] += elapsed
        if self._slots is not None:
            self._slots.release()

    async def _drain(
        self, futures: Iterable["asyncio.Future[StreamResult]"]
    ) -> None:
        """Cancel-or-drain dispatched futures that will not be consumed.

        Queued jobs that have not started are cancelled; running ones are
        awaited.  Either way every future is *retrieved* — its completion
        callback runs (releasing the queue slot and settling the
        counters) and its exception, if any, is observed rather than left
        to die as "exception was never retrieved".
        """
        futures = list(futures)
        for future in futures:
            if not future.done():
                future.cancel()
        if futures:
            await asyncio.gather(*futures, return_exceptions=True)

    async def submit(self, item: StreamItem, index: int = 0) -> StreamResult:
        """Accept one stream element and await its result."""
        future = await self.dispatch(item, index)
        return await future

    async def run_stream(self, items: Iterable[StreamItem]) -> BatchReport:
        """Serve a whole stream; return the aggregated report.

        Elements are dispatched in stream order (so per-database ordering
        holds) but execute concurrently across shards; the report's
        ``results`` and ``updates`` are ordered by stream position and are
        bit-identical to :meth:`SolverPool.run_stream` on the same stream.
        Backpressure applies per element: the stream submitter itself
        waits (or, under ``"reject"``, the overload error propagates out).

        Failure handling is drain-first: if a mid-stream ``dispatch``
        raises (overload under ``"reject"``, unknown database), the
        already-dispatched futures are cancelled-or-drained before the
        error propagates, and if any *job* fails, every other job is
        still run to completion and the failure of the lowest stream
        index is raised — deterministically, with no in-flight result
        abandoned and no exception left unretrieved.
        """
        started = time.perf_counter()
        futures: List["asyncio.Future[StreamResult]"] = []
        try:
            for index, item in enumerate(items):
                futures.append(await self.dispatch(item, index))
        except BaseException:
            await self._drain(futures)
            raise
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        elapsed = time.perf_counter() - started
        for outcome in outcomes:  # futures order == stream order
            if isinstance(outcome, BaseException):
                raise outcome

        results = sorted(
            (outcome for outcome in outcomes if isinstance(outcome, JobResult)),
            key=lambda result: result.index,
        )
        updates = sorted(
            (outcome for outcome in outcomes if isinstance(outcome, UpdateReport)),
            key=lambda report: -1 if report.index is None else report.index,
        )
        return BatchReport(
            results=tuple(results),
            elapsed=elapsed,
            workers=len(self._shards),
            cache_stats=aggregate_cache_stats(results),
            updates=tuple(updates),
        )

    async def results(
        self, items: Iterable[StreamItem], on_error: str = "raise"
    ) -> AsyncIterator[Union[StreamResult, StreamFailure]]:
        """Serve a stream, yielding each result as soon as it is ready.

        Completion order, not stream order — every yielded result carries
        its stream ``index`` so consumers can reorder if they need to.
        This is the CLI's streaming mode; ``run_stream`` is the batch
        shape of the same computation.

        ``on_error`` picks the failure semantics:

        * ``"raise"`` (default) — the first failing element raises out of
          the iterator; every still-pending future is cancelled-or-drained
          first, so no in-flight result is abandoned and no exception goes
          unretrieved.  The same drain runs if the consumer abandons the
          iterator early.
        * ``"yield"`` — a failing element (at dispatch time *or* at
          execution time) is yielded in band as a :class:`StreamFailure`
          and the remaining results keep flowing.  This is the HTTP
          front's mode: one bad job must not tear down the response
          stream.
        """
        if on_error not in ("raise", "yield"):
            raise ServerError(
                f"on_error must be 'raise' or 'yield', got {on_error!r}"
            )
        pending: Dict["asyncio.Future[StreamResult]", int] = {}

        def settle(
            done: "Iterable[asyncio.Future[StreamResult]]",
        ) -> List[Union[StreamResult, StreamFailure]]:
            # Completion sets are unordered; settle by stream index so
            # simultaneous completions are reported deterministically.  A
            # future can be done before its done callback has run, so the
            # counters are settled here: a yielded job is no longer in
            # flight.
            settled: List[Union[StreamResult, StreamFailure]] = []
            for future in sorted(done, key=pending.__getitem__):
                index = pending.pop(future)
                self._on_done(future)
                error = (
                    asyncio.CancelledError()
                    if future.cancelled()
                    else future.exception()
                )
                if error is None:
                    settled.append(future.result())
                elif on_error == "yield":
                    settled.append(StreamFailure(index=index, error=error))
                else:
                    raise error
            return settled

        try:
            for index, item in enumerate(items):
                try:
                    pending[await self.dispatch(item, index)] = index
                except (EngineError, ServerError) as exc:
                    if on_error != "yield":
                        raise
                    yield StreamFailure(index=index, error=exc)
                # Drain whatever already finished so results flow while
                # the submitter is still reading input.
                while pending:
                    done, _ = await asyncio.wait(set(pending), timeout=0)
                    if not done:
                        break
                    for outcome in settle(done):
                        yield outcome
            while pending:
                done, _ = await asyncio.wait(
                    set(pending), return_when=asyncio.FIRST_COMPLETED
                )
                for outcome in settle(done):
                    yield outcome
        finally:
            if pending:
                await self._drain(list(pending))
                pending.clear()

    # ------------------------------------------------------------------ #
    # elastic sharding: load accounting, handoff, topology
    # ------------------------------------------------------------------ #
    def load_snapshot(self) -> LoadSnapshot:
        """An immutable view of the per-shard/per-name load accounting.

        The input to a :class:`~repro.server.rebalance.RebalancePolicy`;
        also serves ``GET /shards``.  Pure parent-side state — no worker
        round-trip, callable whether or not the server is running.  A
        shard's counters are the sums over the names it owns now, so
        after a :meth:`move` the load is where the name is.
        """
        names = []
        totals = {shard.shard_id: self._new_load() for shard in self._shards}
        for name, shard in self._owner.items():
            counters = self._name_load.get(name) or self._new_load()
            total = totals[shard.shard_id]
            for field, value in counters.items():
                total[field] += value
            names.append(
                NameLoad(
                    name=name,
                    shard=shard.shard_id,
                    dispatched=int(counters["dispatched"]),
                    completed=int(counters["completed"]),
                    in_flight=int(counters["in_flight"]),
                    busy_time=counters["busy_time"],
                )
            )
        shards = []
        for shard in self._shards:
            counters = totals[shard.shard_id]
            in_flight = int(counters["in_flight"])
            shards.append(
                ShardLoad(
                    shard=shard.shard_id,
                    names=shard.owned_names(),
                    dispatched=int(counters["dispatched"]),
                    completed=int(counters["completed"]),
                    in_flight=in_flight,
                    queue_depth=max(0, in_flight - 1),
                    busy_time=counters["busy_time"],
                )
            )
        return LoadSnapshot(shards=tuple(shards), names=tuple(names))

    async def move(self, name: str, shard: int) -> bool:
        """Transfer ownership of ``name`` to the shard with id ``shard``.

        Returns ``False`` when the name already lives there, ``True``
        after a completed transfer.  On a running server the move is a
        live handoff in five steps, none of which stalls other names:

        1. **Gate** — new dispatches of ``name`` park on an event (other
           names route freely; :class:`RebalanceError` if the name is
           already mid-move).
        2. **Quiesce** — the name's in-flight jobs drain on the source
           shard, preserving the per-database FIFO order that makes
           results bit-identical to a sequential replay.
        3. **Export** — the source *worker* ships its current head and
           recorded lineage (the post-delta truth, not the registration-
           time priming copy).
        4. **Adopt** — the destination worker registers the head, adopts
           the lineage, and primes its caches through the shared store
           (zero recomputations when the store is warm); the source
           worker then forgets the name.
        5. **Flip** — the routing table points at the destination,
           :attr:`routing_version` bumps, and the gate opens.

        On a stopped server the move is a plain re-homing of the priming
        set.  Unknown names raise :class:`~repro.errors.EngineError`,
        unknown shards :class:`~repro.errors.RebalanceError`.
        """
        destination = self._shard_by_id(shard)
        source = self._owner_of(name)
        if source is destination:
            return False
        if name in self._moving:
            raise RebalanceError(
                f"{name!r} is already mid-handoff; retry after it completes"
            )
        if not self._running:
            database, keys = source.release(name)
            destination.own(name, database, keys)
            self._owner[name] = destination
            self._routing_version += 1
            self.moves_completed += 1
            return True
        gate = asyncio.Event()
        self._moving[name] = gate
        try:
            pending = [
                future
                for future, owner in self._outstanding.items()
                if owner == name
            ]
            if pending:
                # Quiesce without consuming outcomes: the original
                # dispatchers still own these futures' results/errors.
                await asyncio.wait(pending)
            (database, keys), lineage = await self._queue(
                source, ("lookup", name), ("lineage", name)
            )
            destination.own(name, database, keys)
            await self._queue(
                destination, ("adopt_lineage", name, lineage), ("prime_handoff", name)
            )
            source.release(name)
            await self._queue(source, ("forget", name))
            self._owner[name] = destination
            self._routing_version += 1
            self.moves_completed += 1
        finally:
            del self._moving[name]
            gate.set()
        return True

    def add_shard(self) -> int:
        """Grow the fleet by one shard; returns the new shard's id.

        The shard starts empty (ownership only moves via :meth:`move` or
        the rebalancer) and, on a running server, its worker process
        starts immediately.  Ids are never reused: a server that grew and
        shrank keeps monotonically increasing ids.
        """
        shard = Shard(self._next_shard_id, **self._shard_options)
        self._next_shard_id += 1
        if self._running:
            shard.start()
        self._shards.append(shard)
        self._routing_version += 1
        return shard.shard_id

    async def remove_shard(self, shard: int) -> Tuple[str, ...]:
        """Drain one shard and retire it; returns the names it gave up.

        Every owned name is moved (full live handoff, ordering and warm
        caches preserved) to the survivor with the fewest names, then the
        worker is shut down.  Removing the last shard — or an unknown id —
        raises :class:`~repro.errors.RebalanceError`.
        """
        doomed = self._shard_by_id(shard)
        if len(self._shards) <= 1:
            raise RebalanceError("cannot remove the only shard")
        moved = []
        for name in doomed.owned_names():
            survivors = [s for s in self._shards if s is not doomed]
            target = min(survivors, key=lambda s: (len(s), s.shard_id))
            await self.move(name, target.shard_id)
            moved.append(name)
        self._shards.remove(doomed)
        await doomed.shutdown()
        self._routing_version += 1
        return tuple(moved)

    async def rebalance(
        self, policy: Optional[RebalancePolicy] = None
    ) -> Tuple[Move, ...]:
        """Run one rebalancing round; returns the moves actually executed.

        Asks ``policy`` (default: the server's greedy rebalancer) for
        proposals against the current :meth:`load_snapshot` and executes
        them in order.  Proposals that went stale between snapshot and
        execution — the name re-homed, the destination shard removed —
        are skipped, not errors: the policy is advisory, the routing
        table is the truth.
        """
        active = policy if policy is not None else self._rebalancer
        self.rebalance_rounds += 1
        executed = []
        for proposal in active.propose(self.load_snapshot()):
            owner = self._owner.get(proposal.name)
            if owner is None or owner.shard_id != proposal.source:
                continue
            if proposal.destination not in self.shard_ids:
                continue
            if await self.move(proposal.name, proposal.destination):
                executed.append(proposal)
        return tuple(executed)

    async def _rebalance_loop(self) -> None:
        """The timer behind ``rebalance_interval`` (cancelled by stop)."""
        while True:
            await asyncio.sleep(self._rebalance_interval or 0)
            try:
                await self.rebalance()
            except RebalanceError:
                # A concurrent admin action (manual move, shard removal)
                # won this round; the next tick sees the settled state.
                continue

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    async def history(self, name: str) -> Lineage:
        """The recorded snapshot lineage of ``name``, from its owning shard.

        The probe is a queued job on the owning shard, so the returned
        chain reflects every registration and delta submitted before the
        call — the server-side counterpart of
        :meth:`~repro.engine.SolverPool.lineage`.
        """
        return await self._on_owner(name, "lineage")

    async def checkpoints(self, name: str) -> Tuple[CheckpointRecord, ...]:
        """The known compaction checkpoints of ``name``, oldest first.

        The checkpoint-aware companion of :meth:`history`: also a queued
        probe on the owning shard, so it reflects every delta — and every
        automatic ``checkpoint_every`` checkpoint those deltas cut —
        submitted before the call.
        """
        return await self._on_owner(name, "checkpoints")

    async def checkpoint(self, name: str) -> Optional[CheckpointRecord]:
        """Cut an explicit compaction checkpoint of ``name`` on its shard.

        FIFO with the name's jobs: the checkpoint captures exactly the
        snapshot produced by the deltas submitted before the call.
        Returns the record, or ``None`` if the snapshot store refused it.
        """
        return await self._on_owner(name, "checkpoint")

    async def rollback(
        self, name: str, ref: Union[str, int]
    ) -> LineageRecord:
        """Re-register a recorded ancestor of ``name`` as its head.

        Routed to the owning shard and FIFO with the name's jobs, so the
        rollback observes every delta submitted before it and every job
        submitted after it counts against the rolled-back snapshot.
        ``ref`` is an ``as_of``-style reference: a recorded content digest
        (or unique >=8-character prefix) or a non-positive chain index.
        """
        return await self._on_owner(name, "rollback", ref)

    async def calibration(self) -> Dict[str, object]:
        """Per-shard conformal calibration state (the admin probe).

        Each shard worker reports its calibration tables (observation
        counts per method, persisted-store statistics when configured)
        plus its refine-to-exact queue counters; totals are aggregated
        parent-side.  Served by ``GET /calibration`` on the HTTP front.
        """
        probes = await self._on_every_shard(
            ("calibration_stats",), ("pending_refinements",), ("refinements_completed",)
        )
        tables, pending, completed = zip(*probes)
        return {
            "shards": {
                str(shard.shard_id): {
                    **stats,
                    "pending_refinements": waiting,
                    "refinements_completed": done,
                }
                for shard, (stats, waiting, done) in zip(self._shards, probes)
            },
            "totals": {
                "observations": sum(
                    int(stats.get("records", 0)) for stats in tables
                ),
                "pending_refinements": sum(pending),
                "refinements_completed": sum(completed),
            },
        }

    async def refine(self, limit: Optional[int] = None) -> Dict[str, int]:
        """Drain queued refine-to-exact continuations on every shard.

        ``limit`` bounds the continuations per shard (``None`` drains
        everything).  FIFO with each shard's jobs, so the drain observes
        exactly the anytime jobs submitted before the call; later anytime
        jobs on the refined snapshots/queries are answered exactly from
        the shard's cache with zero sampling.
        """
        probes = await self._on_every_shard(
            ("drain_refinements", limit),
            ("pending_refinements",),
            ("refinements_completed",),
        )
        refined, pending, completed = map(sum, zip(*probes))
        return {"refined": refined, "pending": pending, "completed": completed}

    async def calibrate_from(self, jobs: Iterable[CountJob]) -> Dict[str, int]:
        """Record calibration pairs from a held-out batch, shard-routed.

        Every randomised job runs twice on the shard owning its database
        (full-budget estimate plus exact count) and feeds that shard's
        conformal calibrator; exact jobs are skipped.  Returns aggregate
        ``{"pairs": ..., "skipped": ...}`` counts.
        """
        self._require_running()
        batches: Dict[Shard, List[CountJob]] = {}
        for job in jobs:
            batches.setdefault(self._owner_of(job.database), []).append(job)
        reports = await asyncio.gather(
            *(
                self._queue(shard, ("calibrate_from", batch))
                for shard, batch in batches.items()
            )
        )
        return {
            "pairs": sum(report["pairs"] for (report,) in reports),
            "skipped": sum(report["skipped"] for (report,) in reports),
        }

    async def stats(self) -> Dict[str, object]:
        """Aggregate live statistics: queue counters plus per-shard state.

        Per-shard entries come straight from each worker pool's
        :meth:`SolverPool.cache_stats` (including the persist layers and
        their GC evictions) plus its recomputation counters, merged with
        the parent-side load accounting (dispatched, completed,
        in-flight, queue depth, cumulative busy seconds); the ``queue``
        section reports the backpressure configuration and lifetime
        submission counters; ``names`` is the per-name load map;
        ``routing`` the ownership table and its version; ``rebalance``
        the policy configuration and its lifetime move counters.  The
        probe is itself a queued job, so the numbers reflect every job
        submitted before the call.
        """
        probes = await self._on_every_shard(
            ("cache_stats",),
            ("selector_recomputations",),
            ("decomposition_recomputations",),
            ("database_names",),
        )
        snapshot = self.load_snapshot()
        shard_loads = {load.shard: load for load in snapshot.shards}
        return {
            "queue": {
                "limit": self._queue_limit,
                "policy": self._policy,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
            },
            "shards": {
                # "databases" comes from the worker-side payload: it is the
                # execution truth (what the shard's pool can actually
                # serve), which parent-side ownership can only approximate.
                str(shard.shard_id): {
                    "jobs_submitted": shard.jobs_submitted,
                    "updates_submitted": shard.updates_submitted,
                    "dispatched": shard_loads[shard.shard_id].dispatched,
                    "completed": shard_loads[shard.shard_id].completed,
                    "in_flight": shard_loads[shard.shard_id].in_flight,
                    "queue_depth": shard_loads[shard.shard_id].queue_depth,
                    "busy_time": shard_loads[shard.shard_id].busy_time,
                    "cache": cache,
                    "selector_recomputations": selectors,
                    "decomposition_recomputations": decompositions,
                    "databases": list(names),
                }
                for shard, (cache, selectors, decompositions, names) in zip(
                    self._shards, probes
                )
            },
            "names": {
                load.name: {
                    "shard": load.shard,
                    "dispatched": load.dispatched,
                    "completed": load.completed,
                    "in_flight": load.in_flight,
                    "busy_time": load.busy_time,
                }
                for load in snapshot.names
            },
            "routing": {
                "version": self._routing_version,
                "owners": {
                    name: shard.shard_id for name, shard in self._owner.items()
                },
            },
            "rebalance": {
                "interval": self._rebalance_interval,
                "policy": type(self._rebalancer).__name__,
                "max_imbalance": getattr(
                    self._rebalancer, "max_imbalance", None
                ),
                "imbalance": snapshot.imbalance(),
                "rounds": self.rebalance_rounds,
                "moves": self.moves_completed,
            },
        }

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return (
            f"AsyncServer(shards={len(self._shards)}, "
            f"queue_limit={self._queue_limit}, policy={self._policy!r}, "
            f"databases={len(self._owner)}, {state})"
        )


def serve_stream(
    databases: Dict[str, Tuple[Database, PrimaryKeySet]],
    items: Iterable[StreamItem],
    **server_options: Any,
) -> BatchReport:
    """Serve one stream through a temporary :class:`AsyncServer`.

    The synchronous convenience wrapper (used by benchmarks and scripts
    that do not run their own event loop): registers ``databases``,
    starts the server, runs the stream, stops the server.  The report is
    bit-identical to ``SolverPool.run_stream`` on the same stream.
    ``server_options`` are :class:`AsyncServer` constructor arguments.

    >>> from repro.db import Database, PrimaryKeySet, fact
    >>> from repro.engine import CountJob
    >>> db = Database([fact("R", 1, "a"), fact("R", 1, "b")])
    >>> keys = PrimaryKeySet.from_dict({"R": [1]})
    >>> report = serve_stream(
    ...     {"r": (db, keys)},
    ...     [CountJob(database="r", query="EXISTS x. R(1, x)")],
    ...     shards=1,
    ... )
    >>> report.results[0].satisfying
    2
    """

    async def _run() -> BatchReport:
        server = AsyncServer(**server_options)
        for name, (database, keys) in databases.items():
            server.register(name, database, keys)
        async with server:
            return await server.run_stream(items)

    return asyncio.run(_run())
