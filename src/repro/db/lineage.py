"""Snapshot lineage: the recorded history of a registered database name.

Content-addressed snapshots (PR 2) made every database state a digest and
every update a :class:`~repro.db.delta.Delta` between two digests — but
the engine only ever kept the *head*.  A :class:`Lineage` keeps the whole
chain: an append-only sequence of :class:`LineageRecord` entries, one per
registration, delta or rollback of a name, each carrying the digest it
produced, the digest it came from and (for deltas) the **effective** delta
connecting the two.

Effective deltas are exactly invertible (``Delta.inverse``), so a lineage
is a bidirectional replay log: given *any* materialised snapshot on the
chain — in practice the head, which the engine always holds —
:meth:`Lineage.materialise` reconstructs the database of *any other*
recorded digest by walking the delta chain forwards and/or backwards, and
**verifies** the result against the recorded content digest.  That
verification is what makes time travel safe on top of a merely
corruption-*tolerant* store: a damaged history can refuse to replay, but
it can never fabricate a snapshot.

Long chains are compacted with **checkpoints**: a
:class:`CheckpointRecord` marks a chain position whose full database
snapshot has been persisted (through the store's snapshot entries), and
:meth:`Lineage.materialise` accepts a mapping of checkpointed digests to
lazy snapshot loaders — it then replays from the *closest* materialised
source (the head or any loadable checkpoint), so resolution cost is
``O(distance to the nearest checkpoint)`` instead of ``O(chain length)``.

The engine records lineage on ``register``/``apply_delta``
(:class:`~repro.engine.SolverPool`), persists it through the snapshot
catalog (:class:`~repro.store.catalog.SnapshotCatalog`) and serves
historical counts through ``CountJob.as_of``; ``repro history`` prints it.
"""

from __future__ import annotations

import heapq
import string
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import LineageError
from .database import Database
from .delta import Delta

__all__ = ["CheckpointRecord", "LineageRecord", "Lineage", "LINEAGE_KINDS"]

#: A lazy snapshot source for checkpoint-aware replay: digest -> loader.
#: A loader returns the checkpointed database, or ``None`` when its stored
#: entry is missing or damaged (the replay then falls back to the next
#: closest source — a lost checkpoint makes resolution slower, never wrong).
CheckpointLoaders = Mapping[str, Callable[[], Optional[Database]]]

#: How a record entered the chain: a (re-)registration, an incremental
#: delta, or a rollback re-registering an ancestor as the head.
LINEAGE_KINDS = ("register", "delta", "rollback")

#: A reference to a recorded snapshot: a digest (or ≥8-character unique
#: digest prefix), or a non-positive chain index (``0`` is the head,
#: ``-2`` is two versions ago).
SnapshotRef = Union[str, int]

_HEX = set(string.hexdigits.lower())


@dataclass(frozen=True)
class LineageRecord:
    """One step of a name's history: the snapshot it produced and its origin.

    Attributes
    ----------
    name:
        The registration name whose chain this record extends.
    sequence:
        Position in the chain (0 for the first record of the name).
    digest:
        Content digest of the database *after* this step.
    keys_digest:
        Content digest of the primary-key set at this step.
    parent_digest:
        Digest the step started from (``None`` for a fresh root).
    kind:
        One of :data:`LINEAGE_KINDS`.  Only ``"delta"`` records connect
        two digests replayably; ``"register"`` and ``"rollback"`` records
        mark head movements whose states are reached through *other*
        records' deltas (or not at all, for unrelated re-registrations).
    delta:
        For ``"delta"`` records, the **effective** delta from parent to
        child (exactly invertible); ``None`` otherwise — including for
        compacted delta records, whose payload has been released.
    wall_time:
        Seconds since the epoch when the step was recorded (provenance
        only — replay never consults it).
    compacted:
        ``None`` for ordinary records.  For a ``"delta"`` record whose
        payload was **compacted** (released once a checkpoint covered
        it), the preserved ``(inserted, deleted)`` fact counts of the
        dropped delta — the audit trail keeps *that* the step happened
        and its magnitude, but the step can no longer be replayed
        through, so ancestors reachable only through it become
        unmaterialisable (loudly, via :class:`~repro.errors.LineageError`).
    """

    name: str
    sequence: int
    digest: str
    keys_digest: str
    parent_digest: Optional[str]
    kind: str
    delta: Optional[Delta]
    wall_time: float
    compacted: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise LineageError("a lineage record needs a non-empty name")
        if self.sequence < 0:
            raise LineageError(f"negative lineage sequence: {self.sequence}")
        if self.kind not in LINEAGE_KINDS:
            raise LineageError(
                f"unknown lineage record kind {self.kind!r}; "
                f"expected one of {LINEAGE_KINDS}"
            )
        if self.compacted is not None:
            if self.kind != "delta":
                raise LineageError(
                    f"only delta records compact; a {self.kind!r} record "
                    f"has no delta payload to release"
                )
            if self.delta is not None:
                raise LineageError(
                    "a compacted record must have released its delta payload"
                )
            if self.parent_digest is None:
                raise LineageError("a delta record needs both a delta and a parent")
        elif self.kind == "delta" and (
            self.delta is None or self.parent_digest is None
        ):
            raise LineageError("a delta record needs both a delta and a parent")
        if self.kind != "delta" and self.delta is not None:
            raise LineageError(f"a {self.kind!r} record must not carry a delta")

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Records pickled before the ``compacted`` field existed restore
        # without it; default it so old catalogs keep loading.
        state.setdefault("compacted", None)
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def compact(self) -> "LineageRecord":
        """This record with its delta payload released (counts preserved).

        Raises :class:`~repro.errors.LineageError` for records that are
        not replayable delta steps; compacting an already-compacted
        record is the identity.
        """
        if self.compacted is not None:
            return self
        if self.kind != "delta" or self.delta is None:
            raise LineageError(
                f"record {self.sequence} of {self.name!r} is a "
                f"{self.kind!r} record; only delta payloads compact"
            )
        return LineageRecord(
            name=self.name,
            sequence=self.sequence,
            digest=self.digest,
            keys_digest=self.keys_digest,
            parent_digest=self.parent_digest,
            kind=self.kind,
            delta=None,
            wall_time=self.wall_time,
            compacted=(len(self.delta.inserted), len(self.delta.deleted)),
        )

    def to_json(self) -> Dict[str, object]:
        """The record as a JSON-able dict (the CLI history line format)."""
        payload: Dict[str, object] = {
            "sequence": self.sequence,
            "kind": self.kind,
            "digest": self.digest,
            "keys_digest": self.keys_digest,
            "parent_digest": self.parent_digest,
            "wall_time": self.wall_time,
        }
        if self.delta is not None:
            payload["inserted"] = len(self.delta.inserted)
            payload["deleted"] = len(self.delta.deleted)
        elif self.compacted is not None:
            payload["inserted"], payload["deleted"] = self.compacted
            payload["compacted"] = True
        return payload


@dataclass(frozen=True)
class CheckpointRecord:
    """A chain position whose full snapshot is persisted for fast replay.

    A checkpoint does not move the head and is not part of the record
    chain; it *annotates* an existing record (same ``name``/``sequence``/
    ``digest``) and promises that the database of that digest can be
    loaded whole from the store's snapshot entries, so replay can start
    there instead of at the chain origin or the live head.

    >>> CheckpointRecord("live", 2, "a" * 64, "b" * 64, 0.0).sequence
    2
    """

    name: str
    sequence: int
    digest: str
    keys_digest: str
    wall_time: float

    def __post_init__(self) -> None:
        if not self.name:
            raise LineageError("a checkpoint record needs a non-empty name")
        if self.sequence < 0:
            raise LineageError(f"negative checkpoint sequence: {self.sequence}")
        if not self.digest or not self.keys_digest:
            raise LineageError("a checkpoint record needs both digests")

    @property
    def token(self) -> Tuple[str, str]:
        """The snapshot token of the checkpointed state."""
        return (self.digest, self.keys_digest)

    def to_json(self) -> Dict[str, object]:
        """The record as a JSON-able dict (CLI and probe output)."""
        return {
            "sequence": self.sequence,
            "digest": self.digest,
            "keys_digest": self.keys_digest,
            "wall_time": self.wall_time,
        }


class Lineage:
    """The ordered record chain of one registration name.

    Immutable: :meth:`append` returns a new lineage.  The interesting
    operations are :meth:`resolve` (turn an ``as_of`` reference into a
    record), :meth:`materialise` (reconstruct the database of a recorded
    digest from any materialised snapshot on the chain) and
    :meth:`materialise_range` (reconstruct many digests in one shared
    replay walk).

    >>> from repro.db import Database, Delta, fact
    >>> root = Database([fact("R", 1, "a")]).freeze()
    >>> delta = Delta(inserted=[fact("R", 2, "b")])
    >>> head = root.apply_delta(delta)
    >>> chain = Lineage("live").append(
    ...     LineageRecord("live", 0, root.content_digest(), "k", None,
    ...                   "register", None, 0.0)
    ... ).append(
    ...     LineageRecord("live", 1, head.content_digest(), "k",
    ...                   root.content_digest(), "delta", delta, 0.0)
    ... )
    >>> chain.resolve(-1).digest == root.content_digest()  # one version ago
    True
    >>> chain.materialise(head, root.content_digest()) == root  # time travel
    True
    """

    def __init__(self, name: str, records: Tuple[LineageRecord, ...] = ()) -> None:
        if not name:
            raise LineageError("a lineage needs a non-empty name")
        for index, record in enumerate(records):
            if record.name != name:
                raise LineageError(
                    f"record for {record.name!r} cannot join the lineage of {name!r}"
                )
            if record.sequence != index:
                raise LineageError(
                    f"lineage of {name!r} is not contiguous: record at position "
                    f"{index} has sequence {record.sequence}"
                )
        self._name = name
        self._records = tuple(records)
        # The delta adjacency map is derived from the (immutable) records
        # tuple, so it is built at most once per instance; ``append``
        # returns a *new* lineage and never mutates this one.
        self._edges: Optional[Dict[str, List[Tuple[str, Delta, bool]]]] = None

    @property
    def name(self) -> str:
        """The registration name this chain belongs to."""
        return self._name

    @property
    def records(self) -> Tuple[LineageRecord, ...]:
        """The records, oldest first."""
        return self._records

    @property
    def head(self) -> Optional[LineageRecord]:
        """The newest record (the current snapshot), or ``None`` if empty."""
        return self._records[-1] if self._records else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LineageRecord]:
        return iter(self._records)

    def append(self, record: LineageRecord) -> "Lineage":
        """A new lineage extended by ``record`` (which must be next in line)."""
        return Lineage(self._name, self._records + (record,))

    def digests(self) -> Tuple[str, ...]:
        """Every recorded digest, oldest first (duplicates preserved)."""
        return tuple(record.digest for record in self._records)

    # ------------------------------------------------------------------ #
    # reference resolution
    # ------------------------------------------------------------------ #
    def resolve(self, ref: SnapshotRef) -> LineageRecord:
        """The record an ``as_of`` reference names.

        ``ref`` is a digest, a unique digest prefix of at least 8
        characters, or a non-positive int counting versions back from the
        head (``0`` → head, ``-2`` → two versions ago).  When a digest
        appears more than once (a rollback revisits states), the *latest*
        record wins — the states are identical by content addressing.
        """
        if not self._records:
            raise LineageError(f"the lineage of {self._name!r} is empty")
        if isinstance(ref, bool) or not isinstance(ref, (str, int)):
            raise LineageError(
                f"a snapshot reference must be a digest or a chain index, "
                f"got {ref!r}"
            )
        if isinstance(ref, int):
            if ref > 0:
                raise LineageError(
                    f"chain indices count back from the head and must be <= 0, "
                    f"got {ref}"
                )
            position = len(self._records) - 1 + ref
            if position < 0:
                raise LineageError(
                    f"{self._name!r} has only {len(self._records)} recorded "
                    f"version(s); cannot go back {-ref}"
                )
            return self._records[position]

        prefix = ref.lower()
        if len(prefix) < 8 or not set(prefix) <= _HEX:
            raise LineageError(
                f"a digest reference needs at least 8 hex characters, got {ref!r}"
            )
        matches = [
            record for record in self._records if record.digest.startswith(prefix)
        ]
        if not matches:
            raise LineageError(
                f"no recorded snapshot of {self._name!r} matches digest {ref!r}"
            )
        distinct = {record.digest for record in matches}
        if len(distinct) > 1:
            raise LineageError(
                f"digest prefix {ref!r} is ambiguous for {self._name!r}: "
                f"{sorted(digest[:12] for digest in distinct)}"
            )
        return matches[-1]

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def materialise(
        self,
        database: Database,
        target_digest: str,
        checkpoints: Optional[CheckpointLoaders] = None,
        load_cost: float = 0.0,
    ) -> Database:
        """Reconstruct the snapshot ``target_digest`` from the cheapest source.

        ``database`` may be *any* materialised snapshot whose digest
        appears on (or connects to) the chain — in practice the head.  The
        recorded delta records form a graph over digests; each edge can be
        walked forwards (apply the delta) or backwards (apply its
        inverse, exact because recorded deltas are effective).

        ``checkpoints`` optionally maps checkpointed digests to lazy
        snapshot loaders (see :data:`CheckpointLoaders`).  Replay then
        starts from the **cheapest** available source — the provided
        database or any loadable checkpoint — so resolving a deep
        reference on a long, checkpointed chain replays
        ``O(distance to the nearest checkpoint)`` deltas instead of the
        whole chain.  A loader returning ``None`` (missing or damaged
        snapshot entry) simply demotes that checkpoint; the next cheapest
        source is used instead.

        ``load_cost`` prices one checkpoint load in replayed deltas: a
        checkpoint at distance ``d`` costs ``d + load_cost``, the provided
        database costs its distance, and the cheapest source wins (ties go
        to the provided database, then to checkpoints by digest).  The
        default 0.0 ranks by distance alone; a measured price keeps a
        near-head read from loading a snapshot that costs more than the
        replay it saves.

        Whatever the source, the result's ``content_digest`` is checked
        against ``target_digest`` — a corrupt or incomplete history fails
        loudly instead of producing a wrong database.  This is the
        one-target case of :meth:`materialise_range`.
        """
        ((_, snapshot),) = self.materialise_range(
            database, [target_digest], checkpoints, load_cost
        )
        return snapshot

    def materialise_range(
        self,
        database: Database,
        target_digests: Sequence[str],
        checkpoints: Optional[CheckpointLoaders] = None,
        load_cost: float = 0.0,
        replayed: Optional[Dict[str, int]] = None,
    ) -> Iterator[Tuple[str, Database]]:
        """Reconstruct *many* recorded snapshots in one shared replay walk.

        The one replay walk, of which :meth:`materialise` is the
        one-target case: one priced search (:meth:`_plan`, entered at the
        provided ``database`` and at every checkpointed digest, priced
        as :meth:`materialise` describes) settles **all** targets at
        once, the per-target cheapest paths are unioned into a replay
        tree, and the chain is walked once — each requested
        ``(digest, Database)`` pair is yielded as the walk passes it, so
        N versions of one chain segment cost ``O(chain length)`` delta
        applications instead of ``O(N × chain length)``.

        Every yielded snapshot is digest-verified exactly like
        :meth:`materialise`, and a checkpoint whose loader returns
        ``None`` (or a damaged snapshot) demotes silently: its targets
        are re-planned against the remaining entry points.  Duplicate
        target digests are collapsed; each distinct digest is yielded
        once.  Snapshots materialised early in the walk join the entry
        points, free, for the rest of it, so no target costs more than it
        would independently.  With ``replayed``, the walk records for each
        yielded digest how many deltas it applied since the previous
        yield — the work behind that one snapshot.

        >>> from repro.db import Database, Delta, fact
        >>> root = Database([fact("R", 1, "a")]).freeze()
        >>> delta = Delta(inserted=[fact("R", 2, "b")])
        >>> head = root.apply_delta(delta)
        >>> chain = Lineage("live").append(
        ...     LineageRecord("live", 0, root.content_digest(), "k", None,
        ...                   "register", None, 0.0)
        ... ).append(
        ...     LineageRecord("live", 1, head.content_digest(), "k",
        ...                   root.content_digest(), "delta", delta, 0.0)
        ... )
        >>> resolved = dict(chain.materialise_range(
        ...     head, [root.content_digest(), head.content_digest()]
        ... ))
        >>> resolved[root.content_digest()] == root
        True
        >>> resolved[head.content_digest()] == head
        True
        """
        source_digest = database.content_digest()
        loaders = dict(checkpoints or {})
        # In-memory entry points, in acquisition order: the provided
        # database first, then every target materialised earlier in this
        # very walk.
        in_memory: Dict[str, Database] = {source_digest: database}
        pending = list(dict.fromkeys(target_digests))
        while pending:
            entries = list(in_memory) + sorted(set(loaders) - set(in_memory))
            settled, via = self._plan(entries, len(in_memory), load_cost, pending)
            unreachable = [digest for digest in pending if digest not in settled]
            if unreachable:
                # Entry points are only ever *removed* on a lost
                # checkpoint and *added* on a successful materialisation,
                # so a target unreachable now can never become reachable.
                raise LineageError(
                    f"no recorded delta chain of {self._name!r} connects "
                    f"{source_digest[:12]} to {unreachable[0][:12]} "
                    f"(history may have been lost, or the snapshots belong "
                    f"to unrelated roots)"
                )
            rank = min(settled[digest][0] for digest in pending)
            entry = entries[rank]
            base = in_memory.get(entry)
            if base is None:
                base = loaders[entry]()
                if base is None or base.content_digest() != entry:
                    # Lost/damaged checkpoint: demote silently and
                    # re-plan its targets from the remaining entries.
                    del loaders[entry]
                    continue
            group = [digest for digest in pending if settled[digest][0] == rank]
            wanted = set(group)
            if entry in wanted:
                # A target that is itself an entry point: in memory, or
                # loaded and digest-verified above, zero deltas to replay.
                if replayed is not None:
                    replayed[entry] = 0
                yield (entry, base)
                in_memory[entry] = base

            # Union the search-tree paths entry -> target into a replay
            # tree.  Each digest settles once, so walking each target back
            # until a node already in the tree yields a well-formed tree
            # whose edge count is at most the sum of the path lengths.
            children: Dict[str, List[Tuple[str, Delta, bool]]] = {}
            in_tree = {entry}
            for target in group:
                path: List[Tuple[str, str, Delta, bool]] = []
                node = target
                while node not in in_tree:
                    parent, delta, forward = via[node]
                    path.append((parent, node, delta, forward))
                    node = parent
                for parent, child, delta, forward in reversed(path):
                    children.setdefault(parent, []).append(
                        (child, delta, forward)
                    )
                    in_tree.add(child)

            # Walk the tree once.  The search ran from the entry points
            # towards the targets, so each edge is already in replay
            # orientation.  Every leaf of the tree is a target, so each
            # applied delta is counted towards the next yield.
            stack: List[Tuple[str, Database]] = [(entry, base)]
            walked = 0
            while stack:
                node, state = stack.pop()
                for child, delta, forward in children.get(node, ()):
                    branch = state.apply_delta(
                        delta if forward else delta.inverse()
                    )
                    walked += 1
                    if child in wanted:
                        if branch.content_digest() != child:
                            raise LineageError(
                                f"replaying the recorded chain of "
                                f"{self._name!r} produced "
                                f"{branch.content_digest()[:12]} instead of "
                                f"{child[:12]}; the lineage log is corrupt"
                            )
                        if replayed is not None:
                            replayed[child] = walked
                        walked = 0
                        yield (child, branch)
                        in_memory[child] = branch
                    stack.append((child, branch))
            pending = [digest for digest in pending if digest not in wanted]

    def replay_distance(
        self,
        source_digest: str,
        target_digest: str,
        checkpoints: Optional[CheckpointLoaders] = None,
        load_cost: float = 0.0,
    ) -> Optional[int]:
        """How many deltas :meth:`materialise` would replay, or ``None``.

        The cost model of checkpoint compaction, queryable without doing
        the work: the same planner :meth:`materialise` runs, entered at
        ``source_digest`` and the checkpointed digests with the same
        ``load_cost``, without the walk.  Loaders are *not* invoked, so a
        lost snapshot entry may make the real replay longer.
        """
        entries = [source_digest] + sorted(set(checkpoints or ()) - {source_digest})
        settled, _ = self._plan(entries, 1, load_cost, [target_digest])
        return settled[target_digest][1] if target_digest in settled else None

    def _delta_edges(self) -> Dict[str, List[Tuple[str, Delta, bool]]]:
        """The bidirectional digest graph of the recorded delta records.

        Memoised on the instance: the records tuple is immutable, so the
        adjacency map never changes — and every replayed read plans over
        it, which made the per-call rebuild a measurable hot spot on long
        chains.
        """
        if self._edges is None:
            edges: Dict[str, List[Tuple[str, Delta, bool]]] = {}
            for record in self._records:
                if record.kind != "delta" or record.delta is None:
                    continue
                assert record.parent_digest is not None  # enforced at construction
                edges.setdefault(record.parent_digest, []).append(
                    (record.digest, record.delta, True)
                )
                edges.setdefault(record.digest, []).append(
                    (record.parent_digest, record.delta, False)
                )
            self._edges = edges
        return self._edges

    def _plan(
        self,
        entries: Sequence[str],
        free: int,
        load_cost: float,
        targets: Sequence[str],
    ) -> Tuple[Dict[str, Tuple[int, int]], Dict[str, Tuple[str, Delta, bool]]]:
        """The replay planner: one priced search from every entry point.

        ``entries`` are the materialised sources in rank order; the first
        ``free`` are in memory and start at cost 0, the rest are
        checkpoints and start at ``load_cost``, and every delta costs 1.
        Returns ``settled`` — digest -> ``(rank, hops)`` of the cheapest
        entry, ties going to the lower rank — and ``via`` — digest -> the
        ``(parent, delta, forward)`` edge the search reached it by, already
        in replay orientation.  The search stops once every target has
        settled, so a near source on a long chain costs its distance, not
        the chain length.
        """
        edges = self._delta_edges()
        settled: Dict[str, Tuple[int, int]] = {}
        via: Dict[str, Tuple[str, Delta, bool]] = {}
        # (cost, rank, push order, hops, digest, edge): the push order
        # pops equal (cost, rank) items first in, first out, so with free
        # loads the search settles every digest exactly as a multi-source
        # breadth-first search would.
        queue: List[
            Tuple[float, int, int, int, str, Optional[Tuple[str, Delta, bool]]]
        ] = [
            (0.0 if rank < free else load_cost, rank, rank, 0, digest, None)
            for rank, digest in enumerate(entries)
        ]
        heapq.heapify(queue)
        pushed = len(queue)
        remaining = set(targets)
        while queue and remaining:
            cost, rank, _, hops, digest, edge = heapq.heappop(queue)
            if digest in settled:
                continue
            settled[digest] = (rank, hops)
            if edge is not None:
                via[digest] = edge
            remaining.discard(digest)
            for neighbour, delta, forward in edges.get(digest, ()):
                if neighbour not in settled:
                    heapq.heappush(
                        queue,
                        (cost + 1, rank, pushed, hops + 1, neighbour,
                         (digest, delta, forward)),
                    )
                    pushed += 1
        return settled, via

    def __repr__(self) -> str:
        head = self.head.digest[:12] if self.head else "<empty>"
        return f"Lineage({self._name!r}, versions={len(self)}, head={head})"
