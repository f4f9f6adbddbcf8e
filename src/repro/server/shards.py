"""Shard plumbing: single-worker pool processes behind the async server.

A :class:`Shard` is one unit of serving capacity: a dedicated worker
process hosting its own :class:`~repro.engine.SolverPool`, primed with the
subset of registered snapshots the shard *owns*.  The worker is created
once (``start``) and kept warm for the shard's lifetime, so — unlike the
per-batch fan-out of :meth:`SolverPool.run` — its caches persist across
every job the shard ever serves, which is the steady state a long-lived
service runs in.

Ordering is the load-bearing property: each shard's executor has exactly
one worker, so jobs execute in submission order.  The async front-end
routes every job of a database to the one shard owning it, hence all
counts and deltas of a database are serialised per shard and every count
observes exactly the snapshots produced by the deltas submitted before it
— the same stream semantics as :meth:`SolverPool.run_stream`, without a
global barrier between segments.

There is one way to put work on a shard: :meth:`Shard.call` queues one
allow-listed :class:`~repro.engine.SolverPool` operation (see
:data:`SHARD_OPS`), and the worker runs it on its pool.  Multi-step
operations — exporting a name for a handoff, adopting it on the
destination, the stats and calibration probes — are back-to-back calls on
the same FIFO queue, so nothing submitted later can interleave with them.

All cross-process payloads are primitive job/report dataclasses (already
picklable by design); databases are shipped once at worker start, not per
job.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..engine.pool import SolverPool
from ..errors import ServerError

__all__ = ["SHARD_OPS", "Shard"]

#: The :class:`~repro.engine.SolverPool` attributes :meth:`Shard.call`
#: may run inside a shard worker.  Methods are called with the given
#: arguments; properties (the counters) are read.  Anything else — a
#: typo, a private attribute — is refused in the parent before queueing.
SHARD_OPS = frozenset({
    # stream elements: counting jobs, ranges, deltas
    "run_job", "run_range", "apply_delta",
    # the ownership handoff (registration goes through ``own``)
    "lookup", "adopt_lineage", "prime_handoff", "forget",
    # lineage probes and admin
    "lineage", "checkpoints", "checkpoint", "rollback",
    # anytime refinement and calibration
    "drain_refinements", "pending_refinements", "refinements_completed",
    "calibrate_from", "calibration_stats",
    # statistics
    "cache_stats", "selector_recomputations", "decomposition_recomputations",
    "database_names",
})

#: Ops whose results carry the ``shard-{id}:pid-{pid}`` worker label.
_LABELLED_OPS = ("run_job", "run_range")


class Shard:
    """One serving shard: an owned snapshot set plus a warm worker process.

    Shards are created and owned by
    :class:`~repro.server.async_server.AsyncServer`; they are not meant to
    be driven directly.  :meth:`call` returns
    :class:`concurrent.futures.Future` objects that the server awaits via
    asyncio.  ``pool_options`` are the :class:`~repro.engine.SolverPool`
    constructor arguments the worker builds its pool with.

    >>> shard = Shard(0)
    >>> (shard.owned_names(), shard.is_running)
    ((), False)
    """

    def __init__(self, shard_id: int, **pool_options: Any) -> None:
        self.shard_id = shard_id
        self._pool_options = pool_options
        self._databases: Dict[str, Tuple[Database, PrimaryKeySet]] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pending_registrations: List["Future[None]"] = []
        self.jobs_submitted = 0
        self.updates_submitted = 0

    # ------------------------------------------------------------------ #
    # ownership
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._databases)

    def owns(self, name: str) -> bool:
        """True iff this shard owns the registration ``name``."""
        return name in self._databases

    def owned_names(self) -> Tuple[str, ...]:
        """The registration names this shard owns, in registration order."""
        return tuple(self._databases)

    def own(self, name: str, database: Database, keys: PrimaryKeySet) -> None:
        """Give this shard ownership of a registered snapshot.

        Before ``start`` the snapshot simply joins the priming set; after
        ``start`` it is additionally registered inside the live worker (in
        submission order, so jobs submitted afterwards can use it).  A
        failed in-worker registration is never swallowed: its exception is
        re-raised, as :class:`ServerError`, by the next submission on this
        shard (see :meth:`_raise_failed_registrations`).
        """
        self._databases[name] = (database, keys)
        if self._executor is not None:
            self._pending_registrations.append(
                self._executor.submit(_shard_call, "register", name, database, keys)
            )

    def release(self, name: str) -> Tuple[Database, PrimaryKeySet]:
        """Drop parent-side ownership of ``name``; returns the priming pair.

        The bookkeeping half of a handoff: the caller re-owns the
        snapshot on the destination shard (and, for a live source worker,
        additionally queues a ``forget`` call).  A stopped shard
        restarted later will no longer prime the released name.
        """
        if name not in self._databases:
            raise ServerError(f"shard {self.shard_id} does not own {name!r}")
        return self._databases.pop(name)

    def _raise_failed_registrations(self) -> None:
        """Surface any completed-and-failed late registration, loudly.

        The whole pending list is scanned, not just its head: a failed
        registration must surface even while an earlier one is still in
        flight.  Completed futures are removed as they are inspected, so
        an error is raised exactly once — callers that clean up afterwards
        (``stop``) never see it again on a retry.
        """
        for future in list(self._pending_registrations):
            if not future.done():
                continue
            self._pending_registrations.remove(future)
            error = future.exception()
            if error is not None:
                raise ServerError(
                    f"shard {self.shard_id} failed to register a database: {error}"
                ) from error

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Create the worker process, primed with the owned snapshots."""
        if self._executor is not None:
            raise ServerError(f"shard {self.shard_id} is already started")
        self._executor = ProcessPoolExecutor(
            max_workers=1,
            initializer=_initialise_shard,
            initargs=(self.shard_id, dict(self._databases), self._pool_options),
        )

    def stop(self) -> None:
        """Shut the worker down, waiting for in-flight jobs to finish.

        A late registration that failed without a subsequent submission to
        surface it is raised here — a failed registration must never exit
        the server silently.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        try:
            self._raise_failed_registrations()
        finally:
            # Raised or not, a stopped shard holds no pending state: a
            # second stop() must be clean, never a re-raise of the same
            # stale registration error.
            self._pending_registrations.clear()

    @property
    def is_running(self) -> bool:
        """True between ``start`` and ``stop``."""
        return self._executor is not None

    # ------------------------------------------------------------------ #
    # work submission (FIFO per shard — one worker, one queue)
    # ------------------------------------------------------------------ #
    def call(self, op: str, *args: Any) -> "Future[Any]":
        """Queue one :class:`~repro.engine.SolverPool` operation on the worker.

        ``op`` must be in :data:`SHARD_OPS`; the worker runs
        ``pool.<op>(*args)`` (or reads the property) and the future
        resolves to its result.  Calls execute in submission order, so a
        probe observes every job and delta queued before it, and jobs
        queued after a ``rollback`` or ``checkpoint`` see its effect.

        The stream-element ops take ``(job, index)`` — the job and its
        stream position: ``run_job`` and ``run_range`` results carry the
        ``shard-{id}:pid-{pid}`` worker label, and ``apply_delta`` takes
        the :class:`~repro.engine.UpdateJob` itself and returns its report
        with the job's ``index`` and ``label``.  They also advance the
        ``jobs_submitted``/``updates_submitted`` counters.
        """
        if op not in SHARD_OPS:
            raise ServerError(f"shard operation {op!r} is not allowed")
        if self._executor is None:
            raise ServerError(
                f"shard {self.shard_id} is not running; start the server first"
            )
        self._raise_failed_registrations()
        if op == "apply_delta":
            self.updates_submitted += 1
        elif op in _LABELLED_OPS:
            self.jobs_submitted += 1
        return self._executor.submit(_shard_call, op, *args)

    def __repr__(self) -> str:
        state = "running" if self.is_running else "stopped"
        return (
            f"Shard(id={self.shard_id}, databases={list(self._databases)}, "
            f"{state})"
        )


# ---------------------------------------------------------------------- #
# worker-process side
# ---------------------------------------------------------------------- #
#: The per-process pool a shard worker serves from.  Module-level so job
#: submissions only ship (op, args) pairs, never the pool's databases.
_SHARD_POOL: Optional[SolverPool] = None
_SHARD_ID: Optional[int] = None


def _initialise_shard(
    shard_id: int,
    databases: Dict[str, Tuple[Database, PrimaryKeySet]],
    pool_options: Dict[str, Any],
) -> None:
    """Prime the shard worker: build its pool, register its snapshots.

    Shards share one persistent cache directory (safe: entries are pure
    functions of their content-hash key and writes are atomic, so
    concurrent writers merely race to store the same bytes).  Checkpoint
    policies travel here pickled inside ``pool_options`` — each worker
    gets its own instance, observing its own shard's reads.
    """
    global _SHARD_POOL, _SHARD_ID
    pool = SolverPool(**pool_options)
    for name, (database, keys) in databases.items():
        pool.register(name, database, keys)
    _SHARD_POOL = pool
    _SHARD_ID = shard_id


def _shard_call(op: str, *args: Any) -> Any:
    """Run one pool operation: a :data:`SHARD_OPS` entry, or ``register``."""
    pool = _SHARD_POOL
    if pool is None:  # pragma: no cover - initializer always runs first
        raise ServerError("shard worker used before initialisation")
    if op in _LABELLED_OPS:
        job, index = args
        return getattr(pool, op)(
            job, index, worker_label=f"shard-{_SHARD_ID}:pid-{os.getpid()}"
        )
    if op == "apply_delta":
        job, index = args
        report = pool.apply_delta(job.database, job.delta)
        return replace(report, index=index, label=job.label)
    value = getattr(pool, op)
    return value(*args) if callable(value) else value
