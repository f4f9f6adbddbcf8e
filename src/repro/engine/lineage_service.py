"""The lineage service: history recording, time travel and compaction.

Sits between the snapshot registry (which only knows the *heads*) and the
cache coordinator (which only knows *derived state*): one
:class:`LineageService` owns the in-memory
:class:`~repro.db.lineage.Lineage` chains of every registered name,
records every head move through the snapshot catalog, refreshes the GC
pin set when heads move, materialises ``as_of`` references, performs
rollbacks and adoption — and implements **checkpoint compaction**.

Checkpoints bound the replay cost of deep time travel.  Without them,
materialising an ancestor replays the delta chain all the way from the
held head (or, offline, from the chain origin) — ``O(chain length)``.
A checkpoint persists the *full database* of a chain position through the
store (:class:`~repro.store.SnapshotStore`) and marks the position in the
catalog; :meth:`LineageService.materialise` then hands those positions to
:meth:`Lineage.materialise <repro.db.lineage.Lineage.materialise>`, which
replays from the **closest** source — so resolution is ``O(distance to
the nearest checkpoint)``.  Checkpoints are cut explicitly
(:meth:`checkpoint`) or automatically every ``checkpoint_every``
effective deltas, and a lost or damaged checkpoint entry only ever makes
replay longer, never wrong (replay stays digest-verified).

>>> from repro.db import Database, PrimaryKeySet, fact
>>> from repro.engine.cache_coordinator import CacheCoordinator
>>> from repro.engine.registry import SnapshotRegistry
>>> registry = SnapshotRegistry()
>>> service = LineageService(registry, CacheCoordinator())
>>> db = Database([fact("R", 1, "a")])
>>> keys = PrimaryKeySet.from_dict({"R": [1]})
>>> token, _ = registry.register("live", db, keys)
>>> service.record_head("live", token, kind="register")
>>> [record.kind for record in service.chain("live")]
['register']
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.delta import Delta
from ..db.lineage import CheckpointRecord, Lineage, LineageRecord, SnapshotRef
from ..errors import EngineError, LineageError
from ..store.tuning import CheckpointDecision, CheckpointPolicy, FixedIntervalPolicy
from .cache_coordinator import CacheCoordinator
from .registry import SnapshotRegistry, SnapshotToken

__all__ = ["LineageService"]

#: What one replayed read reports to the policy: the seconds of the walk
#: (checkpoint loads included), the seconds of each checkpoint load it
#: made, and the deltas it replayed.
_Replay = Tuple[float, Tuple[float, ...], int]


class LineageService:
    """Owns the recorded chains and the checkpoint index of a pool."""

    def __init__(
        self,
        registry: SnapshotRegistry,
        caches: CacheCoordinator,
        checkpoint_every: Optional[int] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise EngineError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_policy is not None:
            raise EngineError(
                "pass checkpoint_every or checkpoint_policy, not both; "
                "checkpoint_every=K is FixedIntervalPolicy(K)"
            )
        self._registry = registry
        self._caches = caches
        self._catalog = caches.catalog
        self._policy: Optional[CheckpointPolicy] = checkpoint_policy
        if checkpoint_every is not None:
            self._policy = FixedIntervalPolicy(checkpoint_every)
        self._chains: Dict[str, Lineage] = {}
        #: Per name: digest -> checkpoint record (loaded with the chain).
        self._checkpoints: Dict[str, Dict[str, CheckpointRecord]] = {}

    # ------------------------------------------------------------------ #
    # chain access and recording
    # ------------------------------------------------------------------ #
    def chain(self, name: str) -> Lineage:
        """The in-memory chain of ``name``, loading the catalog on first use."""
        chain = self._chains.get(name)
        if chain is None:
            if self._catalog is not None:
                chain = self._catalog.lineage(name)
                self._checkpoints[name] = {
                    record.digest: record
                    for record in self._catalog.checkpoints(name, chain)
                }
            else:
                chain = Lineage(name)
            self._chains.setdefault(name, chain)
        return self._chains[name]

    def lineage(self, name: str) -> Lineage:
        """The recorded chain of a *registered* name (head last)."""
        self._registry.lookup(name)
        return self._chains[name]

    def chain_map(self) -> Dict[str, Lineage]:
        """A shallow copy of the chains (worker-process priming)."""
        return dict(self._chains)

    def record_head(
        self,
        name: str,
        token: SnapshotToken,
        kind: str,
        delta: Optional[Delta] = None,
    ) -> None:
        """Append a lineage record for the new head (and persist it).

        A no-op when the chain already ends at ``token`` — re-registering
        identical content (including every restart against a persisted
        catalog) extends nothing.
        """
        chain = self.chain(name)
        head = chain.head
        if head is not None and (head.digest, head.keys_digest) == token:
            self.refresh_pins()
            return
        record = LineageRecord(
            name=name,
            sequence=len(chain),
            digest=token[0],
            keys_digest=token[1],
            parent_digest=head.digest if head is not None else None,
            kind=kind,
            delta=delta,
            wall_time=time.time(),
        )
        self._chains[name] = chain.append(record)
        if self._catalog is not None:
            self._catalog.append(record)
        self.refresh_pins()

    def refresh_pins(self) -> None:
        """Pin the live snapshot tokens (the lineage heads) against GC.

        Disk-cache garbage collection must never evict entries of the
        *current* snapshot of a registered name — that would force
        recomputation of active state on the next load.
        """
        self._caches.set_pinned_tokens(self._registry.live_tokens())

    def forget(self, name: str) -> None:
        """Release the in-memory chain state of a name that left this pool.

        The source side of an ownership handoff, called after the
        registry entry is gone: the catalog (when persistent) keeps the
        full durable history — the destination, or a later
        re-registration here, reloads it via :meth:`chain` — and the GC
        pin set shrinks to the remaining registered heads.
        """
        self._chains.pop(name, None)
        self._checkpoints.pop(name, None)
        self.refresh_pins()

    def adopt(self, name: str, lineage: Lineage) -> None:
        """Replace the recorded chain of ``name`` with a richer one.

        Worker processes are primed with the parent pool's chains so that
        ``as_of`` references resolve identically in fanned-out runs even
        without a shared catalog.  The chain must belong to ``name`` and
        end at the currently registered snapshot.
        """
        database, keys = self._registry.lookup(name)
        head = lineage.head
        if lineage.name != name or head is None:
            raise EngineError(
                f"cannot adopt a lineage of {lineage.name!r} for {name!r}"
            )
        token = (database.content_digest(), keys.content_digest())
        if (head.digest, head.keys_digest) != token:
            raise EngineError(
                f"adopted lineage of {name!r} ends at {head.digest[:12]}, "
                f"but the registered snapshot is {token[0][:12]}"
            )
        self._chains[name] = lineage

    # ------------------------------------------------------------------ #
    # time travel
    # ------------------------------------------------------------------ #
    def materialise(
        self, name: str, ref: SnapshotRef
    ) -> Tuple[Database, PrimaryKeySet, SnapshotToken]:
        """The (database, keys, token) of a recorded snapshot of ``name``.

        ``ref`` is an ``as_of`` reference (digest, unique ≥8-hex-char
        prefix, or non-positive chain index).  The head resolves without
        work; an ancestor is reconstructed by replaying the recorded
        effective-delta chain from the **cheapest materialised source** —
        the head or any checkpoint whose snapshot entry loads, a load
        priced in replayed deltas by the policy's
        :meth:`~repro.store.CheckpointPolicy.load_cost` (see
        :meth:`~repro.db.lineage.Lineage.materialise`) — verified against
        the recorded content digest and cached by token, so repeated
        historical queries replay nothing.
        """
        database, keys = self._registry.lookup(name)
        chain = self.chain(name)
        record = chain.resolve(ref)
        token = (record.digest, record.keys_digest)
        if token == self._registry.token(name):
            return database, keys, token
        self._check_keys(name, record, keys.content_digest())
        replays: List[_Replay] = []

        def factory() -> Database:
            ((_, snapshot, replay),) = self._replay(
                name, chain, database, [record.digest]
            )
            replays.append(replay)
            return snapshot

        snapshot = self._caches.materialised(token, factory)
        if self._policy is not None:
            self._observe_read(name, record, snapshot, *replays)
        return snapshot, keys, token

    def materialise_range(
        self, name: str, refs: Sequence[SnapshotRef]
    ) -> List[Tuple[Database, PrimaryKeySet, SnapshotToken]]:
        """Resolve many ``as_of`` references of ``name`` in one shared walk.

        The amortised sibling of :meth:`materialise`, same per-reference
        contract (resolution, key-constraint check, digest-verified
        replay from the cheapest sources, token-keyed caching,
        tuning-policy observation) but one planned route: references the
        materialised-ancestor cache cannot serve are sorted by chain
        position and handed to :meth:`Lineage.materialise_range
        <repro.db.lineage.Lineage.materialise_range>`, which replays the
        chain **once** for all of them.  Each yielded snapshot is fed
        through the cache coordinator (so the token-keyed selector and
        decomposition caches warm exactly as if :meth:`materialise` had
        run) and reported to the checkpoint policy with its marginal
        share of the walk.  Returns ``(database, keys, token)`` triples
        in the order of ``refs``.
        """
        database, keys = self._registry.lookup(name)
        chain = self.chain(name)
        records = [chain.resolve(ref) for ref in refs]
        keys_digest = keys.content_digest()
        head_token = self._registry.token(name)
        resolved: Dict[str, Database] = {}
        missing: Dict[str, LineageRecord] = {}
        for record in records:
            token = (record.digest, record.keys_digest)
            if token == head_token:
                resolved[record.digest] = database
                continue
            self._check_keys(name, record, keys_digest)
            if record.digest in resolved or record.digest in missing:
                continue
            if self._caches.has_materialised(token):
                snapshot = self._caches.materialised(
                    token, lambda: database  # never runs: probed above
                )
                resolved[record.digest] = snapshot
                if self._policy is not None:
                    self._observe_read(name, record, snapshot)
            else:
                missing[record.digest] = record
        ordered = sorted(missing.values(), key=lambda record: record.sequence)
        for digest, snapshot, replay in self._replay(
            name, chain, database, [record.digest for record in ordered]
        ):
            record = missing[digest]
            token = (digest, record.keys_digest)
            snapshot = self._caches.materialised(token, lambda: snapshot)
            resolved[digest] = snapshot
            if self._policy is not None:
                self._observe_read(name, record, snapshot, replay)
        return [
            (resolved[record.digest], keys, (record.digest, record.keys_digest))
            for record in records
        ]

    def resolve_range(
        self, name: str, ref_lo: SnapshotRef, ref_hi: SnapshotRef
    ) -> List[LineageRecord]:
        """Every recorded version from ``ref_lo`` to ``ref_hi`` inclusive.

        Both endpoints are ordinary ``as_of`` references; the result
        walks the chain from the first endpoint's position to the
        second's (ascending or descending with the endpoints' order), one
        record per recorded version — the expansion order of
        ``CountJob.as_of_range``.
        """
        self._registry.lookup(name)
        chain = self.chain(name)
        start = chain.resolve(ref_lo)
        end = chain.resolve(ref_hi)
        step = 1 if start.sequence <= end.sequence else -1
        return [
            chain.records[sequence]
            for sequence in range(start.sequence, end.sequence + step, step)
        ]

    @staticmethod
    def _check_keys(name: str, record: LineageRecord, keys_digest: str) -> None:
        """Refuse to replay a snapshot recorded under other key constraints."""
        if record.keys_digest != keys_digest:
            raise LineageError(
                f"snapshot {record.digest[:12]} of {name!r} was recorded "
                f"under different key constraints; its lineage cannot be "
                f"replayed against the current keys"
            )

    def _replay(
        self, name: str, chain: Lineage, database: Database, digests: Sequence[str]
    ) -> Iterator[Tuple[str, Database, _Replay]]:
        """Walk ``chain`` once from ``database`` to every digest in ``digests``.

        The one replay path of both reads: checkpoint loads are priced by
        the policy's :meth:`~repro.store.CheckpointPolicy.load_cost`, and
        each digest is yielded with its frozen snapshot and its
        :data:`_Replay` — the walk's seconds and checkpoint loads since the
        previous yield, and the deltas it replayed.
        """
        loads: List[float] = []
        replayed: Dict[str, int] = {}
        load_cost = self._policy.load_cost(name) if self._policy is not None else 0.0
        walk = chain.materialise_range(
            database,
            digests,
            checkpoints=self.checkpoint_loaders(name, loads),
            load_cost=load_cost,
            replayed=replayed,
        )
        reported = 0
        started = time.perf_counter()
        for digest, snapshot in walk:
            snapshot = snapshot.freeze()
            elapsed = time.perf_counter() - started
            replay = (elapsed, tuple(loads[reported:]), replayed[digest])
            yield digest, snapshot, replay
            reported = len(loads)
            started = time.perf_counter()

    def _observe_read(
        self,
        name: str,
        record: LineageRecord,
        snapshot: Database,
        replay: _Replay = (0.0, (), 0),
    ) -> None:
        """Feed one resolved ``as_of`` read to the checkpoint policy.

        ``replay`` is what the walk reported for the read (see
        :meth:`_replay`); the default is a read the materialised-ancestor
        cache served, which still counts (a hot digest is hot however it
        was served) with distance and cost zero.  The load seconds go to
        the policy, and their sum is taken out of the replay seconds, so
        the per-step cost measures replay alone.  The policy's decision
        is executed immediately: promotions are honoured only for the
        digest just materialised (the one database this service holds
        without extra work), demotions for any checkpointed digest except
        the live head.
        """
        elapsed, loads, distance = replay
        head = self.chain(name).head
        head_digest = head.digest if head is not None else ""
        decision = self._policy.after_read(  # type: ignore[union-attr]
            name,
            head_digest,
            record.digest,
            set(self._checkpoints.get(name, {})),
            distance,
            max(elapsed - sum(loads), 0.0),
            loads=loads,
        )
        if record.digest in decision.promote:
            self.checkpoint_at(name, record, snapshot)
        self._apply_demotions(name, decision)

    def rollback(self, name: str, ref: SnapshotRef) -> LineageRecord:
        """Re-register a recorded ancestor of ``name`` as the head.

        Append-only: the move is recorded as a ``"rollback"`` record and
        the rolled-back-over states remain reachable via ``as_of``.
        Rolling back to the current head is a no-op.  Returns the head
        record.
        """
        snapshot, keys, token = self.materialise(name, ref)
        if token != self._registry.token(name):
            self._registry.set_head(name, snapshot, keys, token)
            self.record_head(name, token, kind="rollback")
        return self._chains[name].head  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # checkpoint compaction
    # ------------------------------------------------------------------ #
    def checkpoint(
        self, name: str, compact: bool = False
    ) -> Optional[CheckpointRecord]:
        """Persist the current head of ``name`` as a checkpoint.

        Stores the full database through the snapshot store and marks the
        chain position in the catalog; future deep ``as_of`` replays (in
        this or any later process) start here instead of walking the whole
        chain.  Idempotent on an already-checkpointed head.  Returns the
        checkpoint record, or ``None`` when the snapshot could not be
        persisted (store I/O failures are non-fatal by contract).

        ``compact=True`` additionally **releases the delta payloads** of
        every record at or below the newest checkpointed position (see
        :meth:`compact`).  Off by default and loud when used: compaction
        trades time-travel reach for space.
        """
        database, _ = self._registry.lookup(name)
        if not self._caches.has_snapshot_store:
            raise EngineError(
                "checkpoints need a persistent store; construct the pool "
                "with persist_dir=..."
            )
        token = self._registry.token(name)
        head = self.chain(name).head
        if head is None or (head.digest, head.keys_digest) != token:
            raise EngineError(
                f"the chain of {name!r} does not end at the registered "
                f"snapshot; cannot checkpoint"
            )
        record = self.checkpoint_at(name, head, database)
        if record is not None and compact:
            self.compact(name)
        return record

    def checkpoint_at(
        self, name: str, record: LineageRecord, database: Database
    ) -> Optional[CheckpointRecord]:
        """Persist the chain position ``record`` as a checkpoint.

        The one store path: :meth:`checkpoint` cuts the head through it,
        and the adaptive-placement path cuts a position the lineage
        service just replayed for an ``as_of`` read and the policy judged
        worth keeping materialised — either way the database is in hand,
        so checkpointing costs one store, no replay.  Returns the
        checkpoint record, or ``None`` without a snapshot store or when
        the store fails.
        """
        if not self._caches.has_snapshot_store:
            return None
        token = (record.digest, record.keys_digest)
        existing = self._checkpoints.get(name, {}).get(record.digest)
        if (
            existing is not None
            and existing.sequence == record.sequence
            and self._caches.has_checkpoint(existing.token)
        ):
            # Idempotent only while the marker names the *same* chain
            # position (a rollback can revisit a checkpointed digest at a
            # new sequence — that position gets its own marker) and the
            # snapshot payload still exists — an entry GC'd while the
            # head was elsewhere must be re-stored, not silently trusted.
            # The existence probe is cheap (no load); a present-but-
            # damaged entry is demoted at load time and re-storable then.
            return existing
        if not self._caches.store_checkpoint(token, database):
            return None
        marker = CheckpointRecord(
            name=name,
            sequence=record.sequence,
            digest=record.digest,
            keys_digest=record.keys_digest,
            wall_time=time.time(),
        )
        if self._catalog is not None:
            self._catalog.record_checkpoint(marker)
        self._checkpoints.setdefault(name, {})[marker.digest] = marker
        self._observe_checkpoint_bytes(name, marker)
        return marker

    def demote_checkpoint(self, name: str, digest: str) -> bool:
        """Drop one checkpoint: snapshot entry, catalog marker, index entry.

        The inverse of :meth:`checkpoint_at`, used when a checkpoint's
        observed read rate no longer earns its bytes.  The live head is
        never demoted (its entries are pinned anyway), and lineage
        records are untouched — replays of the digest fall back to the
        next closest source, slower but still digest-verified.
        """
        chain = self.chain(name)
        head = chain.head
        if head is not None and head.digest == digest:
            return False
        marker = self._checkpoints.get(name, {}).pop(digest, None)
        if marker is None:
            return False
        if self._catalog is not None:
            self._catalog.remove_checkpoint(name, marker.sequence)
        self._caches.drop_checkpoint(marker.token)
        return True

    def _apply_demotions(self, name: str, decision: CheckpointDecision) -> None:
        for digest in decision.demote:
            self.demote_checkpoint(name, digest)

    def _observe_checkpoint_bytes(
        self, name: str, record: CheckpointRecord
    ) -> None:
        """Feed the stored entry size back to a byte-aware policy."""
        observe = getattr(self._policy, "observe_snapshot_bytes", None)
        if observe is None:
            return
        size = self._caches.checkpoint_bytes(record.token)
        if size is not None:
            observe(name, size)

    def compact(self, name: str) -> int:
        """Release the delta payloads covered by the newest checkpoint.

        Every ``"delta"`` record at or below the newest checkpointed
        sequence has its payload dropped — rewritten in place (in memory
        and, when persistent, in the catalog) as a *compacted* record
        that keeps the digests, the kind and the inserted/deleted fact
        counts, but can no longer be replayed through.  Checkpointed
        digests stay materialisable from their snapshot entries; every
        other digest below the checkpoint becomes unreachable and a
        later ``as_of`` against it fails loudly.  Returns how many
        records were compacted, warning (loudly, once per call) when any
        were — compaction is an explicit space-for-auditability trade.
        """
        chain = self.chain(name)
        markers = self._checkpoints.get(name, {})
        if not markers:
            return 0
        horizon = max(marker.sequence for marker in markers.values())
        compacted = []
        records = list(chain.records)
        for index, record in enumerate(records):
            if (
                record.sequence <= horizon
                and record.kind == "delta"
                and record.delta is not None
            ):
                records[index] = record.compact()
                compacted.append(records[index])
        if not compacted:
            return 0
        self._chains[name] = Lineage(name, tuple(records))
        if self._catalog is not None:
            for record in compacted:
                self._catalog.append(record)
        warnings.warn(
            f"compacted {len(compacted)} delta record(s) of {name!r} at or "
            f"below sequence {horizon}; ancestors reachable only through "
            f"them can no longer be materialised",
            stacklevel=2,
        )
        return len(compacted)

    def maybe_checkpoint(self, name: str) -> Optional[CheckpointRecord]:
        """Consult the checkpoint policy after one recorded delta.

        With ``checkpoint_every=K`` (i.e. a
        :class:`~repro.store.FixedIntervalPolicy`) this cuts a head
        checkpoint once ``K`` effective deltas have accumulated past the
        newest checkpointed position — the behaviour the interval always
        had.  An adaptive policy typically declines here (placement is
        read-driven) but may demote decayed checkpoints.  Inert without
        a policy or a store.
        """
        if self._policy is None or not self._caches.has_snapshot_store:
            return None
        chain = self.chain(name)
        checkpointed = {
            record.sequence for record in self._checkpoints.get(name, {}).values()
        }
        decision = self._policy.after_delta(
            name,
            tuple(record.kind for record in chain.records),
            checkpointed,
        )
        self._apply_demotions(name, decision)
        if decision.checkpoint_head:
            return self.checkpoint(name)
        return None

    def checkpoints(self, name: str) -> Tuple[CheckpointRecord, ...]:
        """The known checkpoints of ``name``, oldest chain position first."""
        self._registry.lookup(name)
        self.chain(name)
        return tuple(
            sorted(
                self._checkpoints.get(name, {}).values(),
                key=lambda record: record.sequence,
            )
        )

    def checkpoint_loaders(
        self, name: str, timings: Optional[List[float]] = None
    ) -> Dict[str, Callable[[], Optional[Database]]]:
        """Lazy digest -> database loaders for the name's checkpoints.

        With ``timings``, every load that returns a snapshot appends its
        wall-clock seconds there; a failed load is no sample of the cost.
        """

        def loader(token: SnapshotToken) -> Optional[Database]:
            started = time.perf_counter()
            snapshot = self._caches.load_checkpoint(token)
            if timings is not None and snapshot is not None:
                timings.append(time.perf_counter() - started)
            return snapshot

        return {
            digest: (lambda token=record.token: loader(token))
            for digest, record in self._checkpoints.get(name, {}).items()
        }

    def __repr__(self) -> str:
        return (
            f"LineageService(chains={list(self._chains)!r}, "
            f"policy={self._policy!r})"
        )
