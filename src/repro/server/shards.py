"""Shard plumbing: one worker process per shard, one socketpair per worker.

A :class:`Shard` is one unit of serving capacity: a dedicated worker
process hosting its own :class:`~repro.engine.SolverPool`, primed with the
subset of registered snapshots the shard *owns*.  The worker is created
once (``start``) and kept warm for the shard's lifetime, so — unlike the
per-batch fan-out of :meth:`SolverPool.run` — its caches persist across
every job the shard ever serves, which is the steady state a long-lived
service runs in.

Ordering is the load-bearing property: each shard has exactly one worker
reading one FIFO stream of calls, so jobs execute in submission order.
The async front-end routes every job of a database to the one shard
owning it, hence all counts and deltas of a database are serialised per
shard and every count observes exactly the snapshots produced by the
deltas submitted before it — the same stream semantics as
:meth:`SolverPool.run_stream`, without a global barrier between segments.

There is one way to put work on a shard: :meth:`Shard.call` queues one
allow-listed :class:`~repro.engine.SolverPool` operation (see
:data:`SHARD_OPS`), and the worker runs it on its pool.  Multi-step
operations — exporting a name for a handoff, adopting it on the
destination, the stats and calibration probes — are back-to-back calls on
the same FIFO queue, so nothing submitted later can interleave with them.

**Transport.**  The parent talks to a worker over one
``socket.socketpair()``.  Frames are an 8-byte big-endian length followed
by a pickle: requests are ``(op, args)``, replies ``(ok, value)``, where a
failed op replies with its exception (same type, same message).  The
running event loop reads the parent end (``loop.add_reader``) and writes
to it without blocking, registering a writer only while a frame does not
fit the socket buffer — no executor threads sit between a call and its
reply.  At most two calls are on the wire, the one the worker is running
and one queued behind it; the rest wait in a parent-side deque, so a call
cancelled before it is sent never runs and the loop never blocks on a
full pipe.  End of file on the pipe is the crash signal: every pending
call of a shard whose worker died fails with
:class:`~repro.errors.ShardLostError`, and so does every later call.

Databases are shipped once at worker start (inherited through the fork on
platforms whose default start method forks), not per job.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import socket
import struct
from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..engine.pool import SolverPool
from ..errors import ServerError, ShardLostError

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

#: The internal op that asks a worker to answer and exit.
_STOP = "stop"

#: A frame's length prefix.
_HEADER = struct.Struct(">Q")

#: Calls on the wire at once: the running one and one queued behind it.
_ON_THE_WIRE = 2

#: Bytes read from a worker's pipe per readiness callback.
_RECV_BYTES = 1 << 16


class Shard:
    """One serving shard: an owned snapshot set plus a warm worker process.

    Shards are created and owned by
    :class:`~repro.server.async_server.AsyncServer`; they are not meant to
    be driven directly.  :meth:`start` must run inside the event loop that
    will serve the shard, and :meth:`call` returns asyncio futures of that
    loop.  ``pool_options`` are the :class:`~repro.engine.SolverPool`
    constructor arguments the worker builds its pool with.

    >>> shard = Shard(0)
    >>> (shard.owned_names(), shard.is_running)
    ((), False)
    """

    def __init__(self, shard_id: int, **pool_options: Any) -> None:
        self.shard_id = shard_id
        self._pool_options = pool_options
        self._databases: Dict[str, Tuple[Database, PrimaryKeySet]] = {}
        self._worker: Optional[_Worker] = None
        self._pending_registrations: List["asyncio.Future[None]"] = []
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
        if self._worker is not None:
            self._pending_registrations.append(
                self._worker.call("register", (name, database, keys))
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
        """Fork the worker process, primed with the owned snapshots."""
        if self._worker is not None:
            raise ServerError(f"shard {self.shard_id} is already started")
        self._worker = _Worker(
            self.shard_id, dict(self._databases), self._pool_options
        )

    async def shutdown(self) -> None:
        """Stop the worker once every call queued before this has run.

        Sends the stop frame behind every pending call, waits for the
        worker to answer it and exit, then :meth:`stop`\\ s the shard.  A
        shard whose worker was lost stops at once.
        """
        if self._worker is not None:
            await self._worker.drain()
        self.stop()

    def stop(self) -> None:
        """Close the worker's pipe and reap the process.

        Without a prior :meth:`shutdown`, calls still queued fail with
        :class:`ServerError` and the worker exits once its running call
        returns.  A late registration that failed without a subsequent
        submission to surface it is raised here — a failed registration
        must never exit the server silently.
        """
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()
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
        return self._worker is not None

    # ------------------------------------------------------------------ #
    # work submission (FIFO per shard — one worker, one queue)
    # ------------------------------------------------------------------ #
    def call(self, op: str, *args: Any) -> "asyncio.Future[Any]":
        """Queue one :class:`~repro.engine.SolverPool` operation on the worker.

        ``op`` must be in :data:`SHARD_OPS`; the worker runs
        ``pool.<op>(*args)`` (or reads the property) and the future
        resolves to its result.  Calls execute in submission order, so a
        probe observes every job and delta queued before it, and jobs
        queued after a ``rollback`` or ``checkpoint`` see its effect.
        A shard whose worker died raises
        :class:`~repro.errors.ShardLostError` here.

        The stream-element ops take ``(job, index)`` — the job and its
        stream position: ``run_job`` and ``run_range`` results carry the
        ``shard-{id}:pid-{pid}`` worker label, and ``apply_delta`` takes
        the :class:`~repro.engine.UpdateJob` itself and returns its report
        with the job's ``index`` and ``label``.  They also advance the
        ``jobs_submitted``/``updates_submitted`` counters.
        """
        if op not in SHARD_OPS:
            raise ServerError(f"shard operation {op!r} is not allowed")
        if self._worker is None:
            raise ServerError(
                f"shard {self.shard_id} is not running; start the server first"
            )
        self._raise_failed_registrations()
        future = self._worker.call(op, args)
        if op == "apply_delta":
            self.updates_submitted += 1
        elif op in _LABELLED_OPS:
            self.jobs_submitted += 1
        return future

    def __repr__(self) -> str:
        state = "running" if self.is_running else "stopped"
        return (
            f"Shard(id={self.shard_id}, databases={list(self._databases)}, "
            f"{state})"
        )


class _Worker:
    """The parent's end of one shard worker: its process and its pipe.

    Owns the frame format and the two queues of calls: ``_waiting``
    (not yet sent, cancellable) and ``_sent`` (on the wire, answered in
    order).  Every method runs on the event loop thread.
    """

    def __init__(
        self,
        shard_id: int,
        databases: Dict[str, Tuple[Database, PrimaryKeySet]],
        pool_options: Dict[str, Any],
    ) -> None:
        loop = asyncio.get_running_loop()
        parent, child = socket.socketpair()
        try:
            # The platform's default start method, as a process pool
            # would use: on Linux the worker forks, inheriting the
            # priming set instead of unpickling it.
            process = multiprocessing.get_context().Process(
                target=_serve,
                args=(child, shard_id, databases, pool_options),
                name=f"repro-shard-{shard_id}",
            )
            process.start()
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        parent.setblocking(False)
        self.shard_id = shard_id
        self.process = process
        self._loop = loop
        self._socket = parent
        self._waiting: Deque[Tuple["asyncio.Future[Any]", str, Tuple[Any, ...]]] = deque()
        self._sent: Deque[Tuple["asyncio.Future[Any]", str]] = deque()
        self._inbox = bytearray()
        self._outbox = bytearray()
        self._writing = False
        self._stopping = False
        self._lost: Optional[str] = None
        self._closed = asyncio.Event()
        loop.add_reader(parent.fileno(), self._on_readable)

    # -- calls ----------------------------------------------------------- #
    def call(self, op: str, args: Tuple[Any, ...]) -> "asyncio.Future[Any]":
        """Queue ``op(*args)``; the future resolves to the worker's reply."""
        if self._lost is not None:
            raise ShardLostError(self._lost)
        if self._stopping:
            raise ServerError(f"shard {self.shard_id} is stopping")
        future = self._loop.create_future()
        self._waiting.append((future, op, args))
        self._send_waiting()
        return future

    async def drain(self) -> None:
        """Queue the stop frame behind every call; wait for the worker to exit."""
        if self._lost is None and not self._stopping:
            stop = self.call(_STOP, ())
            self._stopping = True
            try:
                await stop
            except ShardLostError:
                pass
        # The pipe reaches end of file when the worker has exited.
        await self._closed.wait()

    def close(self) -> None:
        """Close the pipe, fail what is still queued, reap the process."""
        self._fail_all(ServerError, f"shard {self.shard_id} was stopped")
        self._close_pipe()
        # The worker exits on end of file, once its running call returns.
        self.process.join()

    # -- the pipe -------------------------------------------------------- #
    def _send_waiting(self) -> None:
        """Move waiting calls onto the wire while fewer than two are there."""
        while self._waiting and len(self._sent) < _ON_THE_WIRE:
            future, op, args = self._waiting.popleft()
            if future.cancelled():
                continue  # cancelled before it was sent: it never runs
            try:
                payload = pickle.dumps((op, args), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # fails this call only
                future.set_exception(ServerError(
                    f"shard {self.shard_id} could not send {op!r}: "
                    f"{type(exc).__name__}: {exc}"
                ))
                continue
            self._outbox += _HEADER.pack(len(payload))
            self._outbox += payload
            self._sent.append((future, op))
        if self._outbox and not self._writing:
            self._write()

    def _write(self) -> None:
        """Send what the socket buffer takes; keep a writer only for the rest."""
        try:
            sent = self._socket.send(self._outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self._lose(f"writing to its pipe failed: {exc}")
            return
        del self._outbox[:sent]
        if self._outbox and not self._writing:
            self._loop.add_writer(self._socket.fileno(), self._write)
            self._writing = True
        elif not self._outbox and self._writing:
            self._loop.remove_writer(self._socket.fileno())
            self._writing = False

    def _on_readable(self) -> None:
        """Read what arrived; resolve the calls whose replies are complete."""
        try:
            data = self._socket.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._lose(f"reading its pipe failed: {exc}")
            return
        if not data:
            if self._stopping and not self._sent:
                self._close_pipe()  # answered the stop frame and exited
            else:
                self._lose("its pipe closed")
            return
        inbox = self._inbox
        inbox += data
        start = 0
        while len(inbox) - start >= _HEADER.size:
            (size,) = _HEADER.unpack_from(inbox, start)
            end = start + _HEADER.size + size
            if len(inbox) < end:
                break
            self._deliver(inbox[start + _HEADER.size:end])
            start = end
        del inbox[:start]
        self._send_waiting()

    def _deliver(self, frame: bytearray) -> None:
        """Resolve the oldest call on the wire with one reply frame."""
        future, op = self._sent.popleft()
        try:
            ok, value = pickle.loads(frame)
        except Exception as exc:  # the stream stays in sync: frames are sized
            ok, value = False, ServerError(
                f"shard {self.shard_id} could not read the reply to {op!r}: "
                f"{type(exc).__name__}: {exc}"
            )
        if future.done():
            return  # cancelled while it ran
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _lose(self, reason: str) -> None:
        """The worker is gone: fail every pending and every later call."""
        if self._lost is not None:
            return
        self._lost = (
            f"shard {self.shard_id} lost its worker process "
            f"(pid {self.process.pid}): {reason}"
        )
        self._fail_all(ShardLostError, self._lost)
        self._close_pipe()

    def _fail_all(self, error: type, message: str) -> None:
        for future, *_ in (*self._sent, *self._waiting):
            if not future.done():
                future.set_exception(error(message))
        self._sent.clear()
        self._waiting.clear()

    def _close_pipe(self) -> None:
        if self._closed.is_set():
            return
        self._loop.remove_reader(self._socket.fileno())
        if self._writing:
            self._loop.remove_writer(self._socket.fileno())
            self._writing = False
        self._socket.close()
        self._outbox.clear()
        self._closed.set()


# ---------------------------------------------------------------------- #
# worker-process side
# ---------------------------------------------------------------------- #
#: The per-process pool a shard worker serves from.  Module-level so job
#: submissions only ship (op, args) pairs, never the pool's databases.
_SHARD_POOL: Optional[SolverPool] = None
_SHARD_ID: Optional[int] = None


def _serve(
    channel: socket.socket,
    shard_id: int,
    databases: Dict[str, Tuple[Database, PrimaryKeySet]],
    pool_options: Dict[str, Any],
) -> None:
    """A shard worker's life: prime the pool, answer frames until told to stop.

    The worker must not outlive its server, so it keeps nothing the
    server process had open except stdio and its own end of the pipe:
    a forked copy of the server's end, the listening socket or a client
    socket would keep that peer from ever seeing end of file.  It
    ignores SIGINT (the server drives its shutdown) and exits on the stop
    frame or on end of file.  A failed start keeps it answering, so every
    call reports the cause.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The server's event loop may have aimed signal wake-ups at one of
    # the descriptors closed below.
    signal.set_wakeup_fd(-1)
    keep = channel.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    startup_error: Optional[ServerError] = None
    try:
        _initialise_shard(shard_id, databases, pool_options)
    except Exception as exc:
        startup_error = ServerError(
            f"shard {shard_id} failed to start: {type(exc).__name__}: {exc}"
        )
    reader = channel.makefile("rb")
    try:
        while True:
            header = reader.read(_HEADER.size)
            if len(header) < _HEADER.size:
                return  # end of file: the server is gone
            (size,) = _HEADER.unpack(header)
            frame = reader.read(size)
            op = "a request"
            outcome: Tuple[bool, Any]
            try:
                op, args = pickle.loads(frame)
                if op == _STOP:
                    outcome = (True, None)
                elif startup_error is not None:
                    outcome = (False, startup_error)
                else:
                    outcome = (True, _shard_call(op, *args))
            except Exception as exc:  # travels back as the call's error
                outcome = (False, exc)
            _reply(channel, shard_id, op, outcome)
            if op == _STOP:
                return
    except OSError:
        return  # the server's end broke mid-frame: it is gone


def _reply(
    channel: socket.socket, shard_id: int, op: str, outcome: Tuple[bool, Any]
) -> None:
    """Send one reply frame; an unpicklable reply fails only its call."""
    try:
        payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        payload = pickle.dumps((False, ServerError(
            f"shard {shard_id} could not send the reply to {op!r}: "
            f"{type(exc).__name__}: {exc}"
        )))
    channel.sendall(_HEADER.pack(len(payload)) + payload)


def _initialise_shard(
    shard_id: int,
    databases: Dict[str, Tuple[Database, PrimaryKeySet]],
    pool_options: Dict[str, Any],
) -> None:
    """Prime the shard worker: build its pool, register its snapshots.

    Shards share one persistent cache directory (safe: entries are pure
    functions of their content-hash key and writes are atomic, so
    concurrent writers merely race to store the same bytes).  Checkpoint
    policies travel here inside ``pool_options`` — each worker gets its
    own instance, observing its own shard's reads.
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
    if pool is None:  # pragma: no cover - _serve always initialises first
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
