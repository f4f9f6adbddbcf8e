"""The batch counting engine facade: :class:`SolverPool`.

A :class:`SolverPool` answers streams of :class:`~repro.engine.jobs.CountJob`
requests over one or more registered databases.  It is a thin facade over
the four layers of the engine core, each usable (and tested) on its own:
the :class:`~repro.engine.registry.SnapshotRegistry` (name -> frozen
snapshot state), the
:class:`~repro.engine.cache_coordinator.CacheCoordinator` (every cache
layer, memory and disk, with GC and live-token pinning), the
:class:`~repro.engine.lineage_service.LineageService` (history recording,
``as_of`` materialisation, rollback and **checkpoint compaction**) and
the :class:`~repro.engine.executor.JobExecutor` (jobs, deltas,
batch/stream scheduling, worker fan-out).

The facade exists so the public API stays exactly what PR 1–4 shipped:
callers (the server's shards, the CLI, job files) construct one object
and never see the layering.  The caching model, invalidation rules and
determinism contract are documented in :mod:`repro.engine`'s package
docstring (and ``docs/architecture.md``); history, time travel and
checkpoint semantics in :mod:`repro.engine.lineage_service` (and
``docs/history.md``).

>>> from repro.db import Database, PrimaryKeySet, fact
>>> pool = SolverPool()
>>> pool.register("hr", Database([fact("Employee", 1, "Bob", "HR"),
...                               fact("Employee", 1, "Bob", "IT")]),
...               PrimaryKeySet.from_dict({"Employee": [1]}))
>>> report = pool.run([CountJob(database="hr",
...                             query="EXISTS x. Employee(1, x, 'HR')")] * 2)
>>> [(r.satisfying, r.total) for r in report.results]
[(1, 2), (1, 2)]
>>> report.results[1].cache_hits
('query', 'decomposition', 'selectors')
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..db.blocks import BlockDecomposition
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.delta import Delta
from ..db.lineage import CheckpointRecord, Lineage, LineageRecord, SnapshotRef
from ..store.tuning import CheckpointPolicy
from .cache_coordinator import CacheCoordinator
from .executor import JobExecutor, RangeFailure
from .jobs import BatchReport, CountJob, JobResult, UpdateJob, UpdateReport
from .lineage_service import LineageService
from .registry import SnapshotRegistry, SnapshotToken

__all__ = ["SolverPool"]


class SolverPool:
    """A multi-database, multi-query counting engine with shared caches.

    ``max_databases``/``max_queries``/``max_prepared`` bound the in-memory
    LRU layers; ``workers`` is the default fan-out of :meth:`run`;
    ``persist_dir`` enables the persistent store (selector/decomposition
    caches, checkpoint snapshots, the snapshot catalog) with optional GC
    bounds ``persist_max_entries``/``persist_max_age``/``persist_max_bytes``
    (the byte budget is split between the entry kinds by observed
    hit-rate-per-byte — see :func:`repro.store.split_byte_budget`);
    ``checkpoint_every`` cuts an automatic compaction checkpoint every
    that-many effective deltas of a name, so deep ``as_of`` replays stay
    O(distance to the nearest checkpoint) — :meth:`checkpoint` cuts one
    on demand.  ``checkpoint_policy`` replaces the fixed interval with a
    cost-model-driven :class:`~repro.store.CheckpointPolicy` (e.g.
    :class:`~repro.store.AdaptiveCheckpointPolicy`) that places
    checkpoints where observed reads earn them.
    """

    def __init__(
        self,
        max_databases: int = 32,
        max_queries: int = 256,
        max_prepared: int = 1024,
        workers: Optional[int] = None,
        persist_dir: Optional[Union[str, Path]] = None,
        persist_max_entries: Optional[int] = None,
        persist_max_age: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        persist_max_bytes: Optional[int] = None,
    ) -> None:
        self._registry = SnapshotRegistry()
        self._caches = CacheCoordinator(
            max_databases=max_databases,
            max_queries=max_queries,
            max_prepared=max_prepared,
            persist_dir=persist_dir,
            persist_max_entries=persist_max_entries,
            persist_max_age=persist_max_age,
            persist_max_bytes=persist_max_bytes,
        )
        self._lineage = LineageService(
            self._registry,
            self._caches,
            checkpoint_every=checkpoint_every,
            checkpoint_policy=checkpoint_policy,
        )
        self._executor = JobExecutor(
            self._registry, self._caches, self._lineage, workers=workers
        )

    # ------------------------------------------------------------------ #
    # database registry
    # ------------------------------------------------------------------ #
    def register(self, name: str, database: Database, keys: PrimaryKeySet) -> None:
        """Register (or replace) a frozen database snapshot under ``name``.

        A lineage event: a recorded chain already ending at this snapshot
        is adopted (how a restarted pool regains history), otherwise a
        fresh ``"register"`` record is appended.  Re-registering different
        content drops the previous snapshot's cached state.
        """
        token, displaced = self._registry.register(name, database, keys)
        if displaced is not None:
            self._caches.drop_token(displaced)
        self._lineage.record_head(name, token, kind="register")

    def forget(self, name: str) -> None:
        """Drop a registration entirely (the ownership-handoff path).

        The inverse of :meth:`register` for elastic sharding: the name
        leaves the registry, its in-memory derived state is dropped
        unless another name still points at the same content, and its
        lineage chain is released — the persistent catalog, when
        configured, keeps the durable history for the destination pool
        (or a later re-registration here) to reload.
        """
        token = self._registry.forget(name)
        if token not in self._registry.live_tokens():
            self._caches.drop_token(token)
        self._lineage.forget(name)

    def prime_handoff(self, name: str) -> Dict[str, object]:
        """Warm the caches for a snapshot that just arrived via handoff.

        Call after :meth:`register` (and :meth:`adopt_lineage`) on the
        destination of an ownership move; see
        :meth:`CacheCoordinator.prime_for_handoff` for the cost model.
        """
        database, keys = self._registry.lookup(name)
        return self._caches.prime_for_handoff(
            self._registry.token(name), database, keys
        )

    def register_scenario(self, scenario) -> None:
        """Register a named workload :class:`~repro.workloads.scenarios.Scenario`."""
        self.register(scenario.name, scenario.database, scenario.keys)

    def invalidate(self, name: str) -> None:
        """Drop the in-memory state of ``name``'s snapshot (perf-only).

        The persistent store is content-addressed — it can only ever be
        cold, not wrong — so it is never invalidated.
        """
        token = self._registry.get_token(name)
        if token is not None:
            self._caches.drop_token(token)

    def database_names(self) -> Tuple[str, ...]:
        """The registered database names, in registration order."""
        return self._registry.names()

    def lookup(self, name: str) -> Tuple[Database, PrimaryKeySet]:
        """The registered (database, keys) pair for ``name``."""
        return self._registry.lookup(name)

    def snapshot_token(self, name: str) -> SnapshotToken:
        """The content-addressed (database digest, keys digest) of ``name``."""
        return self._registry.token(name)

    # ------------------------------------------------------------------ #
    # lineage, time travel, checkpoints
    # ------------------------------------------------------------------ #
    def lineage(self, name: str) -> Lineage:
        """The recorded snapshot chain of ``name`` (head last)."""
        return self._lineage.lineage(name)

    def adopt_lineage(self, name: str, lineage: Lineage) -> None:
        """Replace the recorded chain of ``name`` with a richer one."""
        self._lineage.adopt(name, lineage)

    def materialise(
        self, name: str, ref: SnapshotRef
    ) -> Tuple[Database, PrimaryKeySet, SnapshotToken]:
        """The (database, keys, token) of a recorded snapshot of ``name``.

        Replayed (digest-verified) from the cheapest materialised source —
        the head or a loadable checkpoint, a load priced by the checkpoint
        policy — and cached by token.
        """
        return self._lineage.materialise(name, ref)

    def materialise_range(
        self, name: str, refs: Iterable[SnapshotRef]
    ) -> List[Tuple[Database, PrimaryKeySet, SnapshotToken]]:
        """Materialise several recorded snapshots of ``name`` in one walk.

        A shared-replay :meth:`materialise`: the refs are settled by the
        same priced search over the delta chain (checkpoints as extra
        entry points), the chain is replayed once, and every resolved
        snapshot is digest-verified and cached exactly as if requested
        alone.  Results come back in ``refs`` order.
        """
        return self._lineage.materialise_range(name, list(refs))

    def resolve_range(
        self, name: str, ref_lo: SnapshotRef, ref_hi: SnapshotRef
    ) -> Tuple[LineageRecord, ...]:
        """The recorded snapshots of ``name`` between two refs, inclusive.

        Endpoint order is preserved: a descending pair yields the records
        newest-first.
        """
        return tuple(self._lineage.resolve_range(name, ref_lo, ref_hi))

    def rollback(self, name: str, ref: SnapshotRef) -> LineageRecord:
        """Re-register a recorded ancestor as the head (append-only)."""
        return self._lineage.rollback(name, ref)

    def checkpoint(
        self, name: str, compact: bool = False
    ) -> Optional[CheckpointRecord]:
        """Persist the current head of ``name`` as a compaction checkpoint.

        Requires a ``persist_dir``; idempotent on an already-checkpointed
        head; ``None`` if the snapshot could not be persisted.
        ``compact=True`` additionally releases the delta payloads covered
        by the newest checkpoint — an explicit, loudly-warned trade of
        time-travel reach for space (see
        :meth:`LineageService.compact
        <repro.engine.lineage_service.LineageService.compact>`).
        """
        return self._lineage.checkpoint(name, compact=compact)

    def checkpoints(self, name: str) -> Tuple[CheckpointRecord, ...]:
        """The known checkpoints of ``name``, oldest chain position first."""
        return self._lineage.checkpoints(name)

    # ------------------------------------------------------------------ #
    # cached state and maintenance
    # ------------------------------------------------------------------ #
    def decomposition(self, name: str) -> BlockDecomposition:
        """The (cached) block decomposition of the database ``name``."""
        database, keys = self._registry.lookup(name)
        value, _ = self._caches.decomposition(
            self._registry.token(name), database, keys
        )
        return value

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Lifetime statistics of every cache layer (memory and disk)."""
        return self._caches.cache_stats()

    def collect_garbage(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Run GC on the on-disk layers (live tokens stay pinned).

        ``max_bytes`` bounds the *total* on-disk footprint: the budget is
        split between the entry kinds proportional to observed
        hit-rate-per-byte before each layer evicts down to its share.
        """
        return self._caches.collect_garbage(max_entries, max_age_seconds, max_bytes)

    def plan_byte_budget(
        self, max_bytes: Optional[int] = None
    ) -> Dict[str, Dict[str, object]]:
        """The per-layer byte-budget split GC would apply (no eviction)."""
        return self._caches.plan_byte_budget(max_bytes)

    @property
    def selector_recomputations(self) -> int:
        """How many selector preparations this pool actually computed.

        Memory hits, disk hits and delta migrations leave it untouched —
        the warm-restart guarantee is stated in terms of this counter.
        """
        return self._caches.selector_recomputations

    @property
    def decomposition_recomputations(self) -> int:
        """How many block decompositions this pool actually computed."""
        return self._caches.decomposition_recomputations

    # ------------------------------------------------------------------ #
    # anytime refinement and calibration
    # ------------------------------------------------------------------ #
    @property
    def pending_refinements(self) -> int:
        """Queued refine-to-exact continuations of served anytime jobs."""
        return self._executor.pending_refinements

    @property
    def refinements_completed(self) -> int:
        """Refine-to-exact continuations this pool has completed."""
        return self._executor.refinements_completed

    def drain_refinements(self, limit: Optional[int] = None) -> int:
        """Run queued refine-to-exact continuations (all, or ``limit``).

        Each computes the exact count of one served anytime job,
        publishes it through the lineage-keyed exact cache and feeds the
        conformal calibrator of its ``(token, method)`` pair.
        """
        return self._executor.drain_refinements(limit)

    def calibrate_from(self, jobs: Iterable[CountJob]) -> Dict[str, int]:
        """Record (estimate, exact) calibration pairs from a held-out batch."""
        return self._executor.calibrate_from(jobs)

    def calibration_stats(self) -> Dict[str, object]:
        """Statistics of the conformal calibration tables (and their store)."""
        return self._caches.calibration_stats()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def apply_delta(self, name: str, delta: Delta) -> UpdateReport:
        """Update the snapshot of ``name`` incrementally (never drop-all).

        Unaffected selector entries migrate to the new snapshot, the
        effective delta is recorded as a lineage step, and an automatic
        checkpoint is cut when the compaction interval is due.  Counts
        against the new snapshot are bit-identical to a cold rebuild.
        """
        return self._executor.apply_delta(name, delta)

    def run_job(
        self,
        job: CountJob,
        index: int = 0,
        worker_label: str = "sequential",
    ) -> JobResult:
        """Run one job against the pool's caches and return its result."""
        return self._executor.run_job(job, index, worker_label)

    def run(
        self, jobs: Iterable[CountJob], workers: Optional[int] = None
    ) -> BatchReport:
        """Run a batch of jobs (fanned out when ``workers`` > 1)."""
        return self._executor.run(jobs, workers)

    def expand_range(self, job: CountJob) -> List[CountJob]:
        """Expand an ``as_of_range`` job into its per-version ``as_of`` jobs."""
        return self._executor.expand_range(job)

    def run_range(
        self,
        job: CountJob,
        first_index: int = 0,
        worker_label: str = "sequential",
    ) -> List[Union[JobResult, RangeFailure]]:
        """Run an ``as_of_range`` job, one outcome per version, in order.

        The range is expanded (:meth:`expand_range`), the underlying
        snapshots are pre-materialised through one shared replay walk,
        and each version's job runs exactly as an independent ``as_of``
        job would — bit-identical results.  A version that fails yields
        an in-band :class:`~repro.engine.executor.RangeFailure` instead
        of aborting the rest of the range.
        """
        return self._executor.run_range(
            job, first_index=first_index, worker_label=worker_label
        )

    def run_stream(
        self,
        items: Iterable[Union[CountJob, UpdateJob]],
        workers: Optional[int] = None,
    ) -> BatchReport:
        """Run a stream interleaving count jobs with delta updates."""
        return self._executor.run_stream(items, workers)

    def __repr__(self) -> str:
        return f"SolverPool(databases={list(self._registry.names())!r})"
