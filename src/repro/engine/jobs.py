"""Batch job descriptions and reports.

A :class:`CountJob` is one (database, query, method) request expressed in
primitive, JSON-able data: the database is referenced by the name it was
registered under in the :class:`~repro.engine.pool.SolverPool` and the
query is carried as text in the CLI's formula syntax (formula plus
answer-variable names).  Keeping jobs textual makes them trivially
picklable for worker processes, diffable in job files and stable across
processes — the engine guarantees that a pooled run is bit-identical to a
sequential one precisely because a job fully determines its computation
(including the random seed of the randomised estimators).

A :class:`JobResult` pairs the job with its count and with execution
provenance (timing, which cache layers were hit, which worker ran it); a
:class:`BatchReport` aggregates the results of one ``SolverPool.run`` call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..db.delta import Delta
from ..db.facts import Constant
from ..errors import BatchSpecError

__all__ = [
    "BATCH_METHODS",
    "CACHE_LAYERS",
    "CountJob",
    "UpdateJob",
    "UpdateReport",
    "JobResult",
    "BatchReport",
    "aggregate_cache_stats",
]

#: Every method a job may request (exact strategies plus the randomised ones).
BATCH_METHODS = (
    "auto",
    "naive",
    "certificate",
    "inclusion-exclusion",
    "enumeration",
    "fpras",
    "karp-luby",
)

#: The cache layers a job may hit, in report order.  ``selectors-disk`` and
#: ``decomposition-disk`` record hits served from the persistent on-disk
#: caches (no in-memory entry, but no recomputation either); ``exact``
#: records anytime jobs answered from a completed refine-to-exact
#: continuation (the served count is exact, with zero sampling).
CACHE_LAYERS = (
    "query",
    "decomposition",
    "decomposition-disk",
    "selectors",
    "selectors-disk",
    "exact",
)


@dataclass(frozen=True)
class CountJob:
    """One #CQA request against a registered database.

    Attributes
    ----------
    database:
        Name the target database was registered under in the pool.
    query:
        The query formula in the textual syntax of
        :func:`repro.query.parser.parse_query`.
    answer_variables:
        Names of the answer variables (empty for a Boolean query).
    answer:
        Candidate answer tuple for non-Boolean queries.
    method:
        One of :data:`BATCH_METHODS`.
    epsilon, delta:
        Accuracy/confidence of the randomised methods (ignored by exact ones).
    seed:
        Seed of the randomised methods.  ``None`` derives a deterministic
        per-job seed from the job's content and position, so batches are
        reproducible (and pooled runs bit-identical to sequential ones)
        even when no seed is given.
    as_of:
        Optional *time-travel* reference: count against a historical
        snapshot of the database instead of its head.  Either a recorded
        content digest (or a unique prefix of at least 8 hex characters)
        or a non-positive chain index (``-2`` = two versions ago, ``0`` =
        the head).  The pool materialises the ancestor by replaying the
        recorded delta chain and serves it through the ordinary
        snapshot-token caches; an unknown reference raises
        :class:`~repro.errors.LineageError` at execution time.
    as_of_range:
        Optional *range* time-travel reference: a ``(ref_lo, ref_hi)``
        pair of ``as_of``-style references (digests, unique prefixes or
        non-positive chain indices).  The engine expands the job into one
        per-version ``as_of`` job for every recorded version from
        ``ref_lo`` to ``ref_hi`` inclusive (in chain order between the
        two endpoints) and resolves the whole group through one shared
        replay walk — bit-identical to writing the per-version jobs by
        hand, but ``O(chain length)`` instead of ``O(N × chain length)``
        delta applications.  Mutually exclusive with ``as_of``.
    label:
        Free-form tag carried through to the result (e.g. a scenario name).
    max_latency, max_error, anytime:
        The accuracy–latency SLA knobs of the randomised methods (a
        :class:`~repro.errors.BatchSpecError` on exact ones).  Any of
        them routes the job through the chunked anytime estimator:
        ``max_latency`` bounds the sampling wall-clock (seconds),
        ``max_error`` stops once the calibrated interval is relatively
        tight enough, and ``anytime=True`` alone runs the full budget
        while still reporting the interval trace.  None of the three
        enters the derived seed, so an anytime job running to full
        budget is bit-identical to the plain job.

    >>> job = CountJob(database="hr", query="EXISTS x. R(1, x)", method="fpras")
    >>> job.is_randomised
    True
    >>> CountJob.from_json(job.to_json()) == job
    True
    >>> CountJob(database="hr", query="EXISTS x. R(1, x)", seed=7).effective_seed(3)
    7
    """

    database: str
    query: str
    answer_variables: Tuple[str, ...] = ()
    answer: Tuple[Constant, ...] = ()
    method: str = "auto"
    epsilon: float = 0.1
    delta: float = 0.05
    seed: Optional[int] = None
    as_of: Optional[Union[str, int]] = None
    as_of_range: Optional[Tuple[Union[str, int], Union[str, int]]] = None
    label: Optional[str] = None
    max_latency: Optional[float] = None
    max_error: Optional[float] = None
    anytime: bool = False

    def __post_init__(self) -> None:
        if not self.database or not isinstance(self.database, str):
            raise BatchSpecError("a job must name a registered database")
        if not self.query or not isinstance(self.query, str):
            raise BatchSpecError("a job must carry a textual query")
        if self.method not in BATCH_METHODS:
            raise BatchSpecError(
                f"unknown method {self.method!r}; expected one of {BATCH_METHODS}"
            )
        if self.as_of is not None:
            self._check_snapshot_ref("as_of", self.as_of)
        if self.as_of_range is not None:
            if self.as_of is not None:
                raise BatchSpecError(
                    "as_of and as_of_range are mutually exclusive; a range "
                    "job names its endpoints only"
                )
            if isinstance(self.as_of_range, str) or not isinstance(
                self.as_of_range, Sequence
            ) or len(self.as_of_range) != 2:
                raise BatchSpecError(
                    f"as_of_range must be a (ref_lo, ref_hi) pair, "
                    f"got {self.as_of_range!r}"
                )
            for endpoint in self.as_of_range:
                self._check_snapshot_ref("as_of_range", endpoint)
            object.__setattr__(self, "as_of_range", tuple(self.as_of_range))
        for knob, value in (
            ("max_latency", self.max_latency),
            ("max_error", self.max_error),
        ):
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise BatchSpecError(f"{knob} must be a number, got {value!r}")
                if value <= 0:
                    raise BatchSpecError(f"{knob} must be positive, got {value}")
        if not isinstance(self.anytime, bool):
            raise BatchSpecError(
                f"anytime must be a boolean, got {self.anytime!r}"
            )
        if self.has_sla and not self.is_randomised:
            raise BatchSpecError(
                f"max_latency/max_error/anytime only apply to the "
                f"randomised methods ('fpras', 'karp-luby'), "
                f"got method {self.method!r}"
            )
        object.__setattr__(self, "answer_variables", tuple(self.answer_variables))
        object.__setattr__(self, "answer", tuple(self.answer))

    @staticmethod
    def _check_snapshot_ref(field_name: str, ref: object) -> None:
        """Validate one ``as_of``-style snapshot reference."""
        if isinstance(ref, bool) or not isinstance(ref, (str, int)):
            raise BatchSpecError(
                f"{field_name} must be a digest string or a chain index, "
                f"got {ref!r}"
            )
        if isinstance(ref, int) and ref > 0:
            raise BatchSpecError(
                f"{field_name} chain indices count back from the head and "
                f"must be <= 0, got {ref}"
            )
        if isinstance(ref, str) and len(ref) < 8:
            raise BatchSpecError(
                f"{field_name} digest references need at least 8 characters, "
                f"got {ref!r}"
            )

    @property
    def is_randomised(self) -> bool:
        """True iff the job runs an estimator rather than an exact counter."""
        return self.method in ("fpras", "karp-luby")

    @property
    def has_sla(self) -> bool:
        """True iff any anytime knob routes this job through the driver."""
        return (
            self.anytime
            or self.max_latency is not None
            or self.max_error is not None
        )

    def effective_seed(self, index: int) -> int:
        """The seed actually used for this job at position ``index``.

        Explicit seeds win; otherwise the seed is a CRC of the job's
        content plus its batch position — stable across processes (CRC32,
        unlike :func:`hash`, is not salted) so sequential and pooled runs
        draw identical sample sequences.
        """
        if self.seed is not None:
            return self.seed
        token = "\x1f".join(
            [
                self.database,
                self.query,
                ",".join(self.answer_variables),
                repr(self.answer),
                self.method,
                repr(self.epsilon),
                repr(self.delta),
                str(index),
            ]
        )
        # ``as_of`` is deliberately *not* part of the seed material: a
        # historical job must draw the same samples as the identical job
        # served when its snapshot was the head, which is what makes
        # time-travel estimates bit-identical to registering the ancestor
        # fresh (asserted in benchmark E16).
        return zlib.crc32(token.encode("utf-8"))

    def to_json(self) -> Dict[str, object]:
        """The job as a JSON-able dict (inverse of :meth:`from_json`)."""
        payload: Dict[str, object] = {
            "database": self.database,
            "query": self.query,
            "method": self.method,
        }
        if self.answer_variables:
            payload["answer_variables"] = list(self.answer_variables)
        if self.answer:
            payload["answer"] = list(self.answer)
        if self.is_randomised:
            payload["epsilon"] = self.epsilon
            payload["delta"] = self.delta
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.as_of is not None:
            payload["as_of"] = self.as_of
        if self.as_of_range is not None:
            payload["as_of_range"] = list(self.as_of_range)
        if self.label is not None:
            payload["label"] = self.label
        if self.max_latency is not None:
            payload["max_latency"] = self.max_latency
        if self.max_error is not None:
            payload["max_error"] = self.max_error
        if self.anytime:
            payload["anytime"] = self.anytime
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "CountJob":
        """Build a job from a JSON mapping, validating types and fields."""
        if not isinstance(payload, Mapping):
            raise BatchSpecError(f"a job must be a JSON object, got {type(payload).__name__}")
        known = {
            "database",
            "query",
            "answer_variables",
            "answer",
            "method",
            "epsilon",
            "delta",
            "seed",
            "as_of",
            "as_of_range",
            "label",
            "max_latency",
            "max_error",
            "anytime",
        }
        unknown = set(payload) - known
        if unknown:
            raise BatchSpecError(f"unknown job fields: {sorted(unknown)}")
        missing = {"database", "query"} - set(payload)
        if missing:
            raise BatchSpecError(f"a job requires fields: {sorted(missing)}")
        answer_variables = payload.get("answer_variables", ())
        answer = payload.get("answer", ())
        if isinstance(answer_variables, str) or not isinstance(answer_variables, Sequence):
            raise BatchSpecError("answer_variables must be a list of names")
        if isinstance(answer, str) or not isinstance(answer, Sequence):
            raise BatchSpecError("answer must be a list of constants")
        try:
            epsilon = float(payload.get("epsilon", 0.1))
            delta = float(payload.get("delta", 0.05))
        except (TypeError, ValueError) as exc:
            raise BatchSpecError(f"epsilon/delta must be numbers: {exc}") from exc
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise BatchSpecError(f"seed must be an integer, got {seed!r}")
        sla: Dict[str, object] = {}
        for knob in ("max_latency", "max_error"):
            value = payload.get(knob)
            if value is not None:
                try:
                    sla[knob] = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError) as exc:
                    raise BatchSpecError(f"{knob} must be a number: {exc}") from exc
        anytime = payload.get("anytime", False)
        if not isinstance(anytime, bool):
            raise BatchSpecError(f"anytime must be a boolean, got {anytime!r}")
        as_of_range = payload.get("as_of_range")
        if as_of_range is not None:
            if isinstance(as_of_range, str) or not isinstance(
                as_of_range, Sequence
            ):
                raise BatchSpecError(
                    f"as_of_range must be a [ref_lo, ref_hi] pair, "
                    f"got {as_of_range!r}"
                )
            as_of_range = tuple(as_of_range)
        return cls(
            database=payload["database"],  # type: ignore[arg-type]
            query=payload["query"],  # type: ignore[arg-type]
            answer_variables=tuple(str(name) for name in answer_variables),
            answer=tuple(answer),
            method=str(payload.get("method", "auto")),
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            as_of=payload.get("as_of"),  # type: ignore[arg-type]
            as_of_range=as_of_range,  # type: ignore[arg-type]
            label=payload.get("label"),  # type: ignore[arg-type]
            max_latency=sla.get("max_latency"),  # type: ignore[arg-type]
            max_error=sla.get("max_error"),  # type: ignore[arg-type]
            anytime=anytime,
        )


@dataclass(frozen=True)
class UpdateJob:
    """One delta applied to a registered database, as a stream element.

    Update jobs interleave with :class:`CountJob` entries in batch streams
    (and in ``repro batch`` job files): all counts before the update see the
    old snapshot, all counts after it see the new one.  The JSON shape is
    ``{"update": "<name>", "insert": [...], "delete": [...]}`` with facts in
    the database JSON format.

    >>> from repro.db import Delta, fact
    >>> update = UpdateJob(database="hr", delta=Delta(inserted=[fact("R", 1, "a")]))
    >>> UpdateJob.from_json(update.to_json()) == update
    True
    """

    database: str
    delta: Delta
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.database or not isinstance(self.database, str):
            raise BatchSpecError("an update must name a registered database")
        if not isinstance(self.delta, Delta):
            raise BatchSpecError(
                f"an update needs a Delta, got {type(self.delta).__name__}"
            )

    def to_json(self) -> Dict[str, object]:
        """The update as a JSON-able dict (inverse of :meth:`from_json`)."""
        payload: Dict[str, object] = {"update": self.database}
        payload.update(self.delta.to_json())
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "UpdateJob":
        """Build an update job from its JSON mapping."""
        if not isinstance(payload, Mapping) or "update" not in payload:
            raise BatchSpecError("an update entry must carry an 'update' field")
        unknown = set(payload) - {"update", "insert", "delete", "label"}
        if unknown:
            raise BatchSpecError(f"unknown update fields: {sorted(unknown)}")
        delta = Delta.from_json(
            {
                key: payload[key]
                for key in ("insert", "delete")
                if key in payload
            }
        )
        return cls(
            database=str(payload["update"]),
            delta=delta,
            label=payload.get("label"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`~repro.engine.SolverPool.apply_delta` call did.

    The selector counters are the provenance of delta invalidation: of the
    entries cached for the pre-delta snapshot, ``selectors_dropped`` had to
    be recomputed (the delta touched their blocks or could create new
    certificates), ``selectors_migrated`` were remapped to the new snapshot
    without recomputation, and ``selectors_kept`` belonged to other
    snapshots and were left alone.
    """

    database: str
    old_digest: str
    new_digest: str
    inserted: int
    deleted: int
    touched_blocks: int
    blocks_before: int
    blocks_after: int
    selectors_kept: int
    selectors_migrated: int
    selectors_dropped: int
    elapsed: float
    index: Optional[int] = None
    label: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        """The report as a JSON-able dict (part of the batch CLI output)."""
        payload: Dict[str, object] = {
            "database": self.database,
            "old_digest": self.old_digest,
            "new_digest": self.new_digest,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "touched_blocks": self.touched_blocks,
            "blocks_before": self.blocks_before,
            "blocks_after": self.blocks_after,
            "selectors": {
                "kept": self.selectors_kept,
                "migrated": self.selectors_migrated,
                "dropped": self.selectors_dropped,
            },
            "elapsed": self.elapsed,
        }
        if self.index is not None:
            payload["index"] = self.index
        if self.label is not None:
            payload["label"] = self.label
        return payload


@dataclass(frozen=True, slots=True)
class JobResult:
    """The outcome of one job, with execution provenance.

    ``count_fields`` is the deterministic payload (what must be
    bit-identical between sequential and pooled runs); ``elapsed``,
    ``cache_hits``/``cache_misses`` and ``worker`` are provenance and may
    legitimately differ between runs.

    A result is slotted (no per-instance ``__dict__``) because callers
    such as a long-running stream consumer keep every result they get.

    Anytime jobs additionally carry their confidence interval
    (``interval_low``/``interval_high``), the number of samples actually
    drawn, the ``stop_reason`` (one of ``"budget"``, ``"latency"``,
    ``"error"`` — or ``"exact"`` when a refine-to-exact continuation
    served the count) and whether the interval was conformally
    ``calibrated``.  All five stay ``None``/``False`` for plain jobs so
    existing report shapes are untouched.
    """

    index: int
    job: CountJob
    satisfying: float
    total: int
    method: str
    is_estimate: bool
    elapsed: float
    cache_hits: Tuple[str, ...] = ()
    cache_misses: Tuple[str, ...] = ()
    worker: str = "sequential"
    interval_low: Optional[float] = None
    interval_high: Optional[float] = None
    samples: Optional[int] = None
    stop_reason: Optional[str] = None
    calibrated: bool = False

    def count_fields(self) -> Tuple[int, float, int, str, bool]:
        """The deterministic part of the result, for equivalence checks."""
        return (self.index, self.satisfying, self.total, self.method, self.is_estimate)

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        # The constructor arguments in field order: pickling then skips the
        # Python-level __getstate__/__setstate__ that a frozen slotted
        # dataclass is given, which cost a result crossing a process
        # boundary about twice the CPU.
        return JobResult, _result_fields(self)

    @property
    def frequency(self) -> float:
        """Relative frequency of the answer (estimated iff the count is)."""
        if self.total == 0:
            return 0.0
        return self.satisfying / self.total

    def to_json(self) -> Dict[str, object]:
        """The result as a JSON-able dict (counts, provenance and the job)."""
        payload: Dict[str, object] = {
            "index": self.index,
            "job": self.job.to_json(),
            "satisfying": self.satisfying,
            "total": self.total,
            "method": self.method,
            "is_estimate": self.is_estimate,
            "frequency": self.frequency,
            "elapsed": self.elapsed,
            "cache_hits": list(self.cache_hits),
            "cache_misses": list(self.cache_misses),
            "worker": self.worker,
        }
        if self.interval_low is not None and self.interval_high is not None:
            payload["interval"] = {
                "low": self.interval_low,
                "high": self.interval_high,
                "calibrated": self.calibrated,
            }
        if self.samples is not None:
            payload["samples"] = self.samples
        if self.stop_reason is not None:
            payload["stop_reason"] = self.stop_reason
        return payload


_result_fields = attrgetter(*(item.name for item in fields(JobResult)))


@dataclass(frozen=True)
class BatchReport:
    """Aggregate outcome of one ``SolverPool.run``/``run_stream`` call.

    ``updates`` holds the :class:`UpdateReport` of every delta that was
    interleaved with the counting jobs (empty for plain ``run`` batches).
    """

    results: Tuple[JobResult, ...]
    elapsed: float
    workers: int
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    updates: Tuple[UpdateReport, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    @property
    def jobs_per_second(self) -> float:
        """Throughput of the run (0 when the batch was empty or instant)."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.results) / self.elapsed

    def counts(self) -> List[Tuple[int, float, int, str, bool]]:
        """Deterministic per-job payloads, for cross-run comparison."""
        return [result.count_fields() for result in self.results]

    def to_json(self) -> Dict[str, object]:
        """The report as a JSON-able dict (the CLI's output format)."""
        payload: Dict[str, object] = {
            "jobs": [result.to_json() for result in self.results],
            "summary": {
                "jobs": len(self.results),
                "elapsed": self.elapsed,
                "jobs_per_second": self.jobs_per_second,
                "workers": self.workers,
                "cache": self.cache_stats,
            },
        }
        if self.updates:
            payload["updates"] = [update.to_json() for update in self.updates]
            payload["summary"]["updates"] = len(self.updates)  # type: ignore[index]
        return payload


def aggregate_cache_stats(results: Sequence[JobResult]) -> Dict[str, Dict[str, int]]:
    """Per-layer hit/miss totals across a result set.

    Derived from the per-job provenance rather than from the caches
    themselves so the aggregation works identically for sequential runs
    (one shared cache) and pooled runs (one cache per worker process).
    """
    stats = {layer: {"hits": 0, "misses": 0} for layer in CACHE_LAYERS}
    for result in results:
        for layer in result.cache_hits:
            stats[layer]["hits"] += 1
        for layer in result.cache_misses:
            stats[layer]["misses"] += 1
    return stats
