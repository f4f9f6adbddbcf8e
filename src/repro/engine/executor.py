"""The job executor: running counts and deltas over the engine core.

The top layer of the engine core.  A :class:`JobExecutor` turns the three
state layers below it — the snapshot registry, the cache coordinator and
the lineage service — into answered jobs:

* :meth:`run_job` executes one :class:`~repro.engine.jobs.CountJob`
  against the caches (resolving ``as_of`` references through the lineage
  service, checkpoints included);
* :meth:`apply_delta` derives the next snapshot incrementally, migrates
  the selector cache across it and records the lineage step (consulting
  the pool's checkpoint policy — a fixed interval or an adaptive
  cost-model placement — for an automatic checkpoint);
* :meth:`run` / :meth:`run_stream` schedule batches and interleaved
  count/update streams — contiguous count segments may fan out to a
  primed process pool, updates run in the parent in stream order, and
  results are **bit-identical** to a sequential run either way.

Worker plumbing lives here too: workers are primed once with the
registered databases and the parent's lineage chains (via the pool
initializer, so databases are pickled once per worker, not once per job)
and rebuild their caches locally, sharing only the content-addressed
persistent store.

>>> from repro.db import Database, PrimaryKeySet, fact
>>> from repro.engine.cache_coordinator import CacheCoordinator
>>> from repro.engine.jobs import CountJob
>>> from repro.engine.lineage_service import LineageService
>>> from repro.engine.registry import SnapshotRegistry
>>> registry, caches = SnapshotRegistry(), CacheCoordinator()
>>> lineage = LineageService(registry, caches)
>>> executor = JobExecutor(registry, caches, lineage)
>>> token, _ = registry.register(
...     "hr", Database([fact("R", 1, "a"), fact("R", 1, "b")]),
...     PrimaryKeySet.from_dict({"R": [1]}))
>>> lineage.record_head("hr", token, kind="register")
>>> result = executor.run_job(CountJob(database="hr", query="EXISTS x. R(1, x)"))
>>> (result.satisfying, result.total)
(2, 2)
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.solver import count_query, count_query_anytime
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.delta import Delta
from ..db.facts import Constant
from ..db.lineage import Lineage
from ..errors import EngineError, ReproError
from ..query.ast import Query
from ..query.classify import is_existential_positive
from ..repairs.counting import PreparedCertificates
from .cache_coordinator import CacheCoordinator
from .jobs import (
    BatchReport,
    CountJob,
    JobResult,
    UpdateJob,
    UpdateReport,
    aggregate_cache_stats,
)
from .lineage_service import LineageService
from .registry import SnapshotRegistry, SnapshotToken

__all__ = ["JobExecutor", "RangeFailure"]

#: Key of the refine-to-exact cache: the snapshot token plus everything
#: that identifies the count (the exact answer is method-independent, so
#: ``method`` is deliberately absent — one refinement serves both
#: estimator families).
ExactKey = Tuple[SnapshotToken, str, Tuple[str, ...], Tuple[Constant, ...]]

#: One shared tuple per sequence of cache-layer labels a result has
#: carried, so kept results share their provenance tuples.  The labels
#: come from the fixed set of cache layers, so the table stays small, and
#: each value equals its key, so sharing it across executors changes no
#: result.
_LABEL_TUPLES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


def _labels(names: List[str]) -> Tuple[str, ...]:
    """The shared tuple holding ``names`` (see :data:`_LABEL_TUPLES`)."""
    labels = tuple(names)
    return _LABEL_TUPLES.setdefault(labels, labels)


@dataclass(frozen=True)
class RangeFailure:
    """In-band failure of one version of an expanded range job.

    ``run_range`` answers every version of the range it can and carries
    the versions it cannot (an unmaterialisable ancestor behind a
    compacted record, say) as in-band failures, so one broken version
    never voids the rest of the range.  ``index`` is the version's
    position in the range expansion.
    """

    index: int
    error: Exception


@dataclass(frozen=True)
class _PendingRefinement:
    """One queued refine-to-exact continuation of an anytime job."""

    key: ExactKey
    database: Database
    keys: PrimaryKeySet
    token: SnapshotToken
    job: CountJob
    estimate: float
    raw_half_width: float


class JobExecutor:
    """Executes jobs, deltas and streams over the engine's state layers."""

    def __init__(
        self,
        registry: SnapshotRegistry,
        caches: CacheCoordinator,
        lineage: LineageService,
        workers: Optional[int] = None,
    ) -> None:
        self._registry = registry
        self._caches = caches
        self._lineage = lineage
        self._workers = workers
        #: Exact counts published by completed refine-to-exact
        #: continuations, consulted only for anytime jobs (plain jobs
        #: keep their exact bit-for-bit report shape).
        self._exact_cache: Dict[ExactKey, Tuple[float, int]] = {}
        self._pending_refinements: List[_PendingRefinement] = []
        self._refined = 0

    # ------------------------------------------------------------------ #
    # single-job execution
    # ------------------------------------------------------------------ #
    def run_job(
        self,
        job: CountJob,
        index: int = 0,
        worker_label: str = "sequential",
    ) -> JobResult:
        """Run one job against the caches and return its result.

        A job carrying ``as_of`` runs against the referenced *historical*
        snapshot, materialised through the lineage service (nearest
        checkpoint or head) and served through the ordinary token-keyed
        caches.
        """
        started = time.perf_counter()
        self._caches.run_startup_gc()
        database, keys, token, query, decomposition, prepared, hits, misses = (
            self._resolve_inputs(job)
        )

        if job.is_randomised and job.has_sla:
            exact_key: ExactKey = (
                token,
                job.query,
                job.answer_variables,
                job.answer,
            )
            cached = self._exact_cache.get(exact_key)
            if cached is not None:
                satisfying, total = cached
                hits.append("exact")
                return JobResult(
                    index=index,
                    job=job,
                    satisfying=satisfying,
                    total=total,
                    method=job.method,
                    is_estimate=False,
                    elapsed=time.perf_counter() - started,
                    cache_hits=_labels(hits),
                    cache_misses=_labels(misses),
                    worker=worker_label,
                    interval_low=float(satisfying),
                    interval_high=float(satisfying),
                    samples=0,
                    stop_reason="exact",
                )
            misses.append("exact")
            result, trace = count_query_anytime(
                database,
                keys,
                query,
                answer=job.answer,
                method=job.method,
                epsilon=job.epsilon,
                delta=job.delta,
                rng=job.effective_seed(index),
                decomposition=decomposition,
                prepared=prepared,
                max_latency=job.max_latency,
                max_error=job.max_error,
                calibrator=self._caches.calibrator(token, job.method),
            )
            self._schedule_refinement(
                exact_key, database, keys, token, job, trace
            )
            final = trace.final
            return JobResult(
                index=index,
                job=job,
                satisfying=result.satisfying,
                total=result.total,
                method=result.method,
                is_estimate=result.is_estimate,
                elapsed=time.perf_counter() - started,
                cache_hits=_labels(hits),
                cache_misses=_labels(misses),
                worker=worker_label,
                interval_low=final.lo,
                interval_high=final.hi,
                samples=final.samples,
                stop_reason=trace.stop_reason,
                calibrated=trace.calibrated,
            )

        result = count_query(
            database,
            keys,
            query,
            answer=job.answer,
            method=job.method,
            epsilon=job.epsilon,
            delta=job.delta,
            rng=job.effective_seed(index) if job.is_randomised else None,
            decomposition=decomposition,
            prepared=prepared,
        )
        return JobResult(
            index=index,
            job=job,
            satisfying=result.satisfying,
            total=result.total,
            method=result.method,
            is_estimate=result.is_estimate,
            elapsed=time.perf_counter() - started,
            cache_hits=_labels(hits),
            cache_misses=_labels(misses),
            worker=worker_label,
        )

    def _resolve_inputs(
        self, job: CountJob
    ) -> Tuple[
        Database,
        PrimaryKeySet,
        SnapshotToken,
        Query,
        object,
        Optional[PreparedCertificates],
        List[str],
        List[str],
    ]:
        """Resolve a job's snapshot and warm the cache layers it needs."""
        if job.as_of_range is not None:
            raise EngineError(
                "a range job cannot run directly; submit it through "
                "run_range (or run/run_stream, which expand it in place)"
            )
        database, keys = self._registry.lookup(job.database)
        token = self._registry.token(job.database)
        if job.as_of is not None:
            database, keys, token = self._lineage.materialise(job.database, job.as_of)
        hits: List[str] = []
        misses: List[str] = []

        query, query_hit = self._caches.query(job.query, job.answer_variables)
        (hits if query_hit else misses).append("query")

        decomposition, source = self._caches.decomposition(token, database, keys)
        if source == "memory":
            hits.append("decomposition")
        elif source == "disk":
            hits.append("decomposition-disk")
        else:
            misses.append("decomposition")

        prepared: Optional[PreparedCertificates] = None
        if job.method != "naive" and is_existential_positive(query):
            prepared, source = self._caches.prepared(
                token,
                job.query,
                job.answer_variables,
                job.answer,
                database,
                keys,
                query,
                decomposition,
            )
            if source == "memory":
                hits.append("selectors")
            elif source == "disk":
                hits.append("selectors-disk")
            else:
                misses.append("selectors")
        return database, keys, token, query, decomposition, prepared, hits, misses

    # ------------------------------------------------------------------ #
    # refine-to-exact continuations and calibration
    # ------------------------------------------------------------------ #
    def _schedule_refinement(
        self,
        key: ExactKey,
        database: Database,
        keys: PrimaryKeySet,
        token: SnapshotToken,
        job: CountJob,
        trace,
    ) -> None:
        """Queue a background refine-to-exact continuation for ``key``.

        The continuation is deduplicated per key: one exact count serves
        every later anytime job on the same snapshot/query, whichever
        estimator asked first.
        """
        if key in self._exact_cache:
            return
        if any(pending.key == key for pending in self._pending_refinements):
            return
        self._pending_refinements.append(
            _PendingRefinement(
                key=key,
                database=database,
                keys=keys,
                token=token,
                job=job,
                estimate=trace.estimate,
                raw_half_width=trace.raw_half_width,
            )
        )

    @property
    def pending_refinements(self) -> int:
        """Number of queued refine-to-exact continuations."""
        return len(self._pending_refinements)

    @property
    def refinements_completed(self) -> int:
        """Number of refine-to-exact continuations run so far."""
        return self._refined

    def drain_refinements(self, limit: Optional[int] = None) -> int:
        """Run queued refine-to-exact continuations (all, or up to ``limit``).

        Each continuation computes the exact count for its snapshot/query,
        publishes it in the lineage-keyed exact cache (so later anytime
        jobs are answered exactly with zero sampling) and feeds the
        (estimate, uncertainty, exact) triple to the conformal calibrator
        of its ``(token, method)`` pair.  Returns the number of
        continuations actually computed.
        """
        if limit is not None and limit < 0:
            raise EngineError(f"limit must be >= 0, got {limit}")
        drained = 0
        while self._pending_refinements and (limit is None or drained < limit):
            pending = self._pending_refinements.pop(0)
            if pending.key in self._exact_cache:
                continue
            query, _ = self._caches.query(
                pending.job.query, pending.job.answer_variables
            )
            decomposition, _ = self._caches.decomposition(
                pending.token, pending.database, pending.keys
            )
            prepared: Optional[PreparedCertificates] = None
            if is_existential_positive(query):
                prepared, _ = self._caches.prepared(
                    pending.token,
                    pending.job.query,
                    pending.job.answer_variables,
                    pending.job.answer,
                    pending.database,
                    pending.keys,
                    query,
                    decomposition,
                )
            exact = count_query(
                pending.database,
                pending.keys,
                query,
                answer=pending.job.answer,
                method="auto",
                decomposition=decomposition,
                prepared=prepared,
            )
            self._exact_cache[pending.key] = (exact.satisfying, exact.total)
            raw = pending.raw_half_width
            if math.isfinite(raw) and raw > 0.0:
                self._caches.record_calibration(
                    pending.token,
                    pending.job.method,
                    pending.estimate,
                    raw,
                    float(exact.satisfying),
                )
            self._refined += 1
            drained += 1
        return drained

    def calibrate_from(self, jobs: Iterable[CountJob]) -> Dict[str, int]:
        """Hold out (estimate, exact) pairs from ``jobs`` for calibration.

        Every randomised job is run twice against its snapshot — once
        through the full-budget sampling plan and once exactly — and the
        (estimate, raw half-width, exact) triple is recorded with the
        conformal calibrator of its ``(token, method)`` pair.  Exact jobs
        (and degenerate plans with no usable uncertainty) are skipped.
        Returns ``{"pairs": ..., "skipped": ...}``.
        """
        pairs = 0
        skipped = 0
        for index, job in enumerate(list(jobs)):
            if not job.is_randomised:
                skipped += 1
                continue
            database, keys, token, query, decomposition, prepared, _, _ = (
                self._resolve_inputs(job)
            )
            _, trace = count_query_anytime(
                database,
                keys,
                query,
                answer=job.answer,
                method=job.method,
                epsilon=job.epsilon,
                delta=job.delta,
                rng=job.effective_seed(index),
                decomposition=decomposition,
                prepared=prepared,
            )
            exact = count_query(
                database,
                keys,
                query,
                answer=job.answer,
                method="auto",
                decomposition=decomposition,
                prepared=prepared,
            )
            raw = trace.raw_half_width
            if not math.isfinite(raw) or raw <= 0.0:
                skipped += 1
                continue
            self._caches.record_calibration(
                token, job.method, trace.estimate, raw, float(exact.satisfying)
            )
            pairs += 1
        return {"pairs": pairs, "skipped": skipped}

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def apply_delta(self, name: str, delta: Delta) -> UpdateReport:
        """Update the snapshot of ``name`` in place of a re-registration.

        The database and its block decomposition are updated incrementally
        (cost proportional to the touched blocks, not the database), the
        selector cache is *walked, not dropped* (see
        :meth:`CacheCoordinator.migrate_for_delta`), the effective delta
        is recorded as a lineage step, and the pool's checkpoint policy
        is consulted: ``checkpoint_every`` cuts a compaction checkpoint
        once enough effective deltas have accumulated, an adaptive policy
        may demote decayed checkpoints here (its placement is driven by
        observed ``as_of`` reads).
        """
        started = time.perf_counter()
        self._caches.run_startup_gc()
        database, keys = self._registry.lookup(name)
        old_token = self._registry.token(name)
        old_decomposition, _ = self._caches.decomposition(old_token, database, keys)

        new_database = database.apply_delta(delta)
        new_decomposition = old_decomposition.apply_delta(delta, database=new_database)
        new_token: SnapshotToken = (
            new_database.content_digest(),
            keys.content_digest(),
        )

        really_inserted, really_deleted = delta.effective_against(database)
        inserted_relations = {item.relation for item in really_inserted}
        deleted_unkeyed_relations = {
            item.relation for item in really_deleted if not keys.has_key(item.relation)
        }
        deleted_keys = {keys.key_value(item) for item in really_deleted}
        touched_keys = {
            keys.key_value(item) for item in really_inserted + really_deleted
        }

        kept, migrated, dropped = self._caches.migrate_for_delta(
            old_token,
            new_token,
            old_decomposition,
            new_decomposition,
            inserted_relations,
            deleted_unkeyed_relations,
            deleted_keys,
        )

        self._caches.put_decomposition(new_token, new_decomposition)
        # The old snapshot stays materialised — and its decomposition stays
        # in the (LRU-bounded) cache — for time travel: the head is about
        # to move, making it an ``as_of``-reachable ancestor.
        self._caches.remember_snapshot(old_token, database)
        self._registry.set_head(name, new_database, keys, new_token)
        if new_token != old_token:
            # Calibration residuals describe the estimator, not the data,
            # so the tables follow the head across the delta (the old
            # token's persisted entries stay for time travel).
            self._caches.adopt_calibration(old_token, new_token)
            # Record the *effective* core, which is exactly invertible —
            # the property lineage replay (both directions) relies on.
            self._lineage.record_head(
                name,
                new_token,
                kind="delta",
                delta=Delta(inserted=really_inserted, deleted=really_deleted),
            )
            self._lineage.maybe_checkpoint(name)

        return UpdateReport(
            database=name,
            old_digest=old_token[0],
            new_digest=new_token[0],
            inserted=len(really_inserted),
            deleted=len(really_deleted),
            touched_blocks=len(touched_keys),
            blocks_before=len(old_decomposition),
            blocks_after=len(new_decomposition),
            selectors_kept=kept,
            selectors_migrated=migrated,
            selectors_dropped=dropped,
            elapsed=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # batch and stream scheduling
    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Iterable[CountJob],
        workers: Optional[int] = None,
    ) -> BatchReport:
        """Run a batch of jobs and return the aggregated report.

        Jobs carrying ``as_of_range`` are expanded in place into one
        per-version ``as_of`` job each (report indices are positions in
        the *expanded* batch — exactly the batch a caller writing the
        per-version jobs by hand would have submitted).
        """
        job_list = self._expand_ranges(list(jobs))
        workers = self._resolve_workers(workers)
        started = time.perf_counter()
        results, workers = self._run_segment(job_list, workers, first_index=0)
        elapsed = time.perf_counter() - started
        return BatchReport(
            results=tuple(results),
            elapsed=elapsed,
            workers=workers,
            cache_stats=aggregate_cache_stats(results),
        )

    def run_stream(
        self,
        items: Iterable[Union[CountJob, UpdateJob]],
        workers: Optional[int] = None,
    ) -> BatchReport:
        """Run a stream that interleaves count jobs with delta updates.

        Stream order is the semantics: every count job observes exactly the
        snapshots produced by the updates before it.  Contiguous runs of
        count jobs form segments that may fan out to worker processes;
        updates execute in the parent between segments via
        :meth:`apply_delta`.  Indices in the returned report are positions
        in the original stream (updates included) with ``as_of_range``
        jobs expanded in place — each expands *when the stream reaches
        it*, so a range may reference versions recorded by updates
        earlier in the same stream, and indices match the hand-expanded
        stream exactly.
        """
        workers = self._resolve_workers(workers)
        started = time.perf_counter()
        results: List[JobResult] = []
        updates: List[UpdateReport] = []
        used_workers = 1
        next_index = 0

        segment: List[Tuple[int, CountJob]] = []

        def flush_segment() -> None:
            nonlocal used_workers
            if not segment:
                return
            jobs = [job for _, job in segment]
            segment_results, segment_workers = self._run_segment(
                jobs, workers, first_index=segment[0][0]
            )
            used_workers = max(used_workers, segment_workers)
            results.extend(segment_results)
            segment.clear()

        for item in list(items):
            if isinstance(item, UpdateJob):
                flush_segment()
                report = self.apply_delta(item.database, item.delta)
                updates.append(
                    replace(report, index=next_index, label=item.label)
                )
                next_index += 1
            elif isinstance(item, CountJob):
                # Ranges expand here — after every update before them has
                # applied — so their endpoints resolve against the chain
                # state a per-version ``as_of`` job at this stream
                # position would see.
                if item.as_of_range is not None:
                    expanded_jobs = self.expand_range(item)
                else:
                    expanded_jobs = [item]
                for expanded_job in expanded_jobs:
                    segment.append((next_index, expanded_job))
                    next_index += 1
            else:
                raise EngineError(
                    f"stream items must be CountJob or UpdateJob, "
                    f"got {type(item).__name__}"
                )
        flush_segment()

        elapsed = time.perf_counter() - started
        return BatchReport(
            results=tuple(results),
            elapsed=elapsed,
            workers=used_workers,
            cache_stats=aggregate_cache_stats(results),
            updates=tuple(updates),
        )

    # ------------------------------------------------------------------ #
    # shared-replay range resolution
    # ------------------------------------------------------------------ #
    def expand_range(self, job: CountJob) -> List[CountJob]:
        """The per-version ``as_of`` jobs a range job stands for.

        One job per recorded version from ``ref_lo`` to ``ref_hi``
        inclusive (in chain order between the endpoints), each pinned to
        its version's digest.  Because ``as_of`` never enters the derived
        seed, the expansion is bit-identical to a caller writing the
        per-version jobs by hand.
        """
        if job.as_of_range is None:
            raise EngineError("expand_range needs a job carrying as_of_range")
        ref_lo, ref_hi = job.as_of_range
        records = self._lineage.resolve_range(job.database, ref_lo, ref_hi)
        return [
            replace(job, as_of=record.digest, as_of_range=None)
            for record in records
        ]

    def run_range(
        self,
        job: CountJob,
        first_index: int = 0,
        worker_label: str = "sequential",
    ) -> List[Union[JobResult, RangeFailure]]:
        """Run one ``as_of_range`` job: expand, share the walk, answer.

        The range's versions are resolved via **one** shared replay walk
        (the per-version jobs then hit the warmed token-keyed caches),
        and each version is answered independently: a version that fails
        to materialise or count becomes an in-band :class:`RangeFailure`
        instead of voiding the range.  Outcomes are returned in version
        order, indexed from ``first_index``.
        """
        expanded = self.expand_range(job)
        self._prewarm_as_of_groups(expanded)
        outcomes: List[Union[JobResult, RangeFailure]] = []
        for offset, item in enumerate(expanded):
            index = first_index + offset
            try:
                outcomes.append(
                    self.run_job(item, index=index, worker_label=worker_label)
                )
            except ReproError as exc:
                outcomes.append(RangeFailure(index=index, error=exc))
        return outcomes

    def _expand_ranges(self, items: List) -> List:
        """Replace every ``as_of_range`` job in ``items`` by its expansion."""
        if not any(
            isinstance(item, CountJob) and item.as_of_range is not None
            for item in items
        ):
            return items
        expanded: List = []
        for item in items:
            if isinstance(item, CountJob) and item.as_of_range is not None:
                expanded.extend(self.expand_range(item))
            else:
                expanded.append(item)
        return expanded

    def _prewarm_as_of_groups(self, job_list: Sequence[CountJob]) -> None:
        """One shared replay walk per same-name ``as_of`` group.

        Groups the segment's time-travel jobs by database name, and
        resolves each group's distinct references through
        :meth:`LineageService.materialise_range
        <repro.engine.lineage_service.LineageService.materialise_range>`
        (which sorts them by lineage position and replays the chain
        once).  Purely a cache warmer: the per-job path then serves the
        very same digest-verified snapshots from the token-keyed caches,
        so results and ordering are bit-identical to the unwarmed path —
        and references that fail to resolve here are simply skipped, so
        the per-job path surfaces their errors unchanged.
        """
        groups: Dict[str, List[Union[str, int]]] = {}
        for item in job_list:
            if isinstance(item, CountJob) and item.as_of is not None:
                groups.setdefault(item.database, []).append(item.as_of)
        for name, refs in groups.items():
            distinct = list(dict.fromkeys(refs))
            if len(distinct) < 2:
                continue  # nothing to amortise
            try:
                self._registry.lookup(name)
                chain = self._lineage.chain(name)
            except ReproError:
                continue
            resolvable = []
            for ref in distinct:
                try:
                    chain.resolve(ref)
                except ReproError:
                    continue
                resolvable.append(ref)
            if not resolvable:
                continue
            try:
                self._lineage.materialise_range(name, resolvable)
            except ReproError:
                # Fall back to the per-job path (e.g. an ancestor behind
                # a compacted record): the failing job raises there with
                # its ordinary error, the rest replay independently.
                pass

    def _resolve_workers(self, workers: Optional[int]) -> int:
        if workers is None:
            workers = self._workers or 1
        if workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        return workers

    def _run_segment(
        self, job_list: Sequence[CountJob], workers: int, first_index: int
    ) -> Tuple[List[JobResult], int]:
        """Run one contiguous run of count jobs, sequentially or fanned out.

        ``first_index`` offsets the job indices so stream positions (and
        hence derived per-job seeds) are identical between ``run`` and
        ``run_stream``, sequential and pooled.
        """
        indices = range(first_index, first_index + len(job_list))
        if workers == 1 or len(job_list) <= 1:
            self._prewarm_as_of_groups(job_list)
            return (
                [self.run_job(job, index) for index, job in zip(indices, job_list)],
                1,
            )
        chunksize = max(1, len(job_list) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialise_worker,
            initargs=(
                self._registry.snapshot_map(),
                self._caches.persist_directory,
                self._lineage.chain_map(),
            ),
        ) as executor:
            results = list(
                executor.map(
                    _run_job_in_worker,
                    zip(indices, job_list),
                    chunksize=chunksize,
                )
            )
        return results, workers


# ---------------------------------------------------------------------- #
# worker-process plumbing
# ---------------------------------------------------------------------- #
#: The per-process pool a worker builds from the databases it was primed
#: with.  Module-level so `executor.map` only ships (index, job) pairs.
_WORKER_POOL = None


def _initialise_worker(
    databases: Dict[str, Tuple[Database, PrimaryKeySet]],
    persist_dir: Optional[Path] = None,
    lineage: Optional[Dict[str, Lineage]] = None,
) -> None:
    """Prime a worker process: register every database once, build caches.

    Workers share the parent's persistent store directory (safe: entries
    are pure functions of their content-hash key and writes are atomic,
    so concurrent writers merely race to store the same bytes) and adopt
    the parent's lineage chains so ``as_of`` references resolve in the
    worker exactly as they would sequentially.
    """
    from .pool import SolverPool  # deferred: pool is the layer above us

    global _WORKER_POOL
    pool = SolverPool(persist_dir=persist_dir)
    for name, (database, keys) in databases.items():
        pool.register(name, database, keys)
    for name, chain in (lineage or {}).items():
        pool.adopt_lineage(name, chain)
    _WORKER_POOL = pool


def _run_job_in_worker(item: Tuple[int, CountJob]) -> JobResult:
    """Run one job inside a primed worker process."""
    index, job = item
    if _WORKER_POOL is None:  # pragma: no cover - initializer always runs first
        raise EngineError("worker used before initialisation")
    return _WORKER_POOL.run_job(index=index, job=job, worker_label=f"pid-{os.getpid()}")
