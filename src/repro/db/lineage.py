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

import string
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
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
        """Reconstruct the snapshot ``target_digest`` from the closest source.

        ``database`` may be *any* materialised snapshot whose digest
        appears on (or connects to) the chain — in practice the head.  The
        recorded delta records form a graph over digests; each edge can be
        walked forwards (apply the delta) or backwards (apply its
        inverse, exact because recorded deltas are effective).

        ``checkpoints`` optionally maps checkpointed digests to lazy
        snapshot loaders (see :data:`CheckpointLoaders`).  Replay then
        starts from the **closest** available source — the provided
        database or any loadable checkpoint — so resolving a deep
        reference on a long, checkpointed chain replays
        ``O(distance to the nearest checkpoint)`` deltas instead of the
        whole chain.  A loader returning ``None`` (missing or damaged
        snapshot entry) simply demotes that checkpoint; the next closest
        source is used instead.

        ``load_cost`` prices one checkpoint load in replayed deltas: a
        checkpoint at distance ``d`` costs ``d + load_cost``, the provided
        database costs its distance, and the cheapest source wins (ties go
        to the provided database).  The default 0.0 ranks by distance
        alone; a measured price keeps a near-head read from loading a
        snapshot that costs more than the replay it saves.

        Whatever the source, the result's ``content_digest`` is checked
        against ``target_digest`` — a corrupt or incomplete history fails
        loudly instead of producing a wrong database.
        """
        source_digest = database.content_digest()
        if source_digest == target_digest:
            return database

        edges = self._delta_edges()
        # One BFS *from the target* ranks the possible sources by replay
        # distance; it settles predecessor pointers (not whole paths) and
        # stops as soon as every wanted source is found, so resolving a
        # near ancestor of a long chain never walks the whole graph.
        wanted = {source_digest, *(checkpoints or ())}
        previous, distance = self._search_from(edges, target_digest, wanted)

        for _, rank, digest in self._ranked_sources(
            distance, source_digest, checkpoints, load_cost
        ):
            if rank == 0:
                source: Optional[Database] = database
            else:
                source = checkpoints[digest]()  # type: ignore[index]
                if source is None or source.content_digest() != digest:
                    continue  # lost/damaged checkpoint: fall back, never fail
            current = source
            for delta, forward in self._replay_path(previous, digest):
                current = current.apply_delta(delta if forward else delta.inverse())
            if current.content_digest() != target_digest:
                raise LineageError(
                    f"replaying the recorded chain of {self._name!r} produced "
                    f"{current.content_digest()[:12]} instead of "
                    f"{target_digest[:12]}; the lineage log is corrupt"
                )
            return current
        raise LineageError(
            f"no recorded delta chain of {self._name!r} connects "
            f"{source_digest[:12]} to {target_digest[:12]} (history may "
            f"have been lost, or the snapshots belong to unrelated roots)"
        )

    def materialise_range(
        self,
        database: Database,
        target_digests: Sequence[str],
        checkpoints: Optional[CheckpointLoaders] = None,
    ) -> Iterator[Tuple[str, Database]]:
        """Reconstruct *many* recorded snapshots in one shared replay walk.

        The amortised sibling of :meth:`materialise`: instead of one BFS
        and one replay per target, a single multi-source BFS (seeded with
        the provided ``database`` and every checkpointed digest, exactly
        the entry points :meth:`materialise` ranks) settles **all**
        targets at once, the per-target shortest paths are unioned into a
        replay tree, and the chain is walked once — each requested
        ``(digest, Database)`` pair is yielded as the walk passes it, so
        N versions of one chain segment cost ``O(chain length)`` delta
        applications instead of ``O(N × chain length)``.

        Every yielded snapshot is digest-verified exactly like
        :meth:`materialise`, and a checkpoint whose loader returns
        ``None`` (or a damaged snapshot) demotes silently: its targets
        are re-planned against the remaining entry points.  Duplicate
        target digests are collapsed; each distinct digest is yielded
        once.  Snapshots materialised early in the walk join the entry
        points for the rest of it, so later targets never replay further
        than they would have independently.

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
        targets = list(dict.fromkeys(target_digests))
        if not targets:
            return
        source_digest = database.content_digest()
        loaders = dict(checkpoints or {})

        # In-memory entry points, in acquisition order: the provided
        # database first (materialise's rank-0 tie-break), then every
        # target materialised earlier in this very walk.
        in_memory: Dict[str, Database] = {source_digest: database}
        pending: List[str] = []
        for digest in targets:
            if digest == source_digest:
                yield (digest, database)
            else:
                pending.append(digest)

        edges = self._delta_edges()
        while pending:
            # Seed order fixes the tie-break among equal-distance entry
            # points: in-memory snapshots outrank checkpoints (nothing to
            # load), checkpoints tie-break deterministically by digest.
            seeds = list(in_memory) + sorted(
                digest for digest in loaders if digest not in in_memory
            )
            previous, origin, distance = self._search_from_seeds(
                edges, seeds, set(pending)
            )
            unreachable = [digest for digest in pending if digest not in distance]
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
            groups: Dict[str, List[str]] = {}
            for digest in pending:
                groups.setdefault(origin[digest], []).append(digest)
            entry = next(seed for seed in seeds if seed in groups)
            if entry in in_memory:
                base = in_memory[entry]
            else:
                loaded = loaders[entry]()
                if loaded is None or loaded.content_digest() != entry:
                    # Lost/damaged checkpoint: demote silently and
                    # re-plan its targets from the remaining entries.
                    del loaders[entry]
                    continue
                base = loaded

            wanted = set(groups[entry])
            if entry in wanted:
                # A target that is itself a checkpoint: loaded and
                # digest-verified above, zero deltas to replay.
                yield (entry, base)
                in_memory[entry] = base

            # Union the BFS-tree paths entry -> target into a replay
            # tree.  BFS parents are unique, so walking each target back
            # until a node already in the tree yields a well-formed tree
            # whose edge count is at most the sum of the path lengths.
            children: Dict[str, List[Tuple[str, Delta, bool]]] = {}
            in_tree = {entry}
            for target in groups[entry]:
                if target == entry:
                    continue
                path: List[Tuple[str, str, Delta, bool]] = []
                node = target
                while node not in in_tree:
                    parent, delta, forward = previous[node]
                    path.append((parent, node, delta, forward))
                    node = parent
                for parent, child, delta, forward in reversed(path):
                    children.setdefault(parent, []).append(
                        (child, delta, forward)
                    )
                    in_tree.add(child)

            # Walk the tree once.  Edges were traversed entry -> target,
            # so each is applied in its *stored* orientation (the
            # opposite of _replay_path, which walks target -> source).
            stack: List[Tuple[str, Database]] = [(entry, base)]
            while stack:
                node, state = stack.pop()
                for child, delta, forward in children.get(node, ()):
                    branch = state.apply_delta(
                        delta if forward else delta.inverse()
                    )
                    if child in wanted:
                        if branch.content_digest() != child:
                            raise LineageError(
                                f"replaying the recorded chain of "
                                f"{self._name!r} produced "
                                f"{branch.content_digest()[:12]} instead of "
                                f"{child[:12]}; the lineage log is corrupt"
                            )
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
        the work: the delta distance from ``target_digest`` to the source
        :meth:`materialise` would pick for the same ``load_cost`` — with
        the default 0.0, the nearest of ``source_digest`` and the
        checkpointed digests (loaders are *not* invoked — a lost snapshot
        entry may make the real replay longer).
        """
        if source_digest == target_digest:
            return 0
        wanted = {source_digest, *(checkpoints or ())}
        _, distance = self._search_from(self._delta_edges(), target_digest, wanted)
        ranked = self._ranked_sources(distance, source_digest, checkpoints, load_cost)
        return distance[ranked[0][2]] if ranked else None

    @staticmethod
    def _ranked_sources(
        distance: Dict[str, int],
        source_digest: str,
        checkpoints: Optional[CheckpointLoaders],
        load_cost: float,
    ) -> List[Tuple[float, int, str]]:
        """The reachable sources, cheapest first, as ``(cost, rank, digest)``.

        A source costs its replay distance, plus ``load_cost`` for a
        checkpoint (rank 1); the provided database (rank 0) wins ties,
        since there is no snapshot entry to load.
        """
        ranked: List[Tuple[float, int, str]] = []
        if source_digest in distance:
            ranked.append((distance[source_digest], 0, source_digest))
        for digest in checkpoints or ():
            if digest in distance and digest != source_digest:
                ranked.append((distance[digest] + load_cost, 1, digest))
        return sorted(ranked)

    def _delta_edges(self) -> Dict[str, List[Tuple[str, Delta, bool]]]:
        """The bidirectional digest graph of the recorded delta records.

        Memoised on the instance: the records tuple is immutable, so the
        adjacency map never changes — and the adaptive checkpoint policy
        probes :meth:`replay_distance` after every read, which made the
        per-call rebuild a measurable hot spot on long chains.
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

    @staticmethod
    def _search_from(
        edges: Dict[str, List[Tuple[str, Delta, bool]]],
        start: str,
        wanted: Set[str],
    ) -> Tuple[Dict[str, Tuple[str, Delta, bool]], Dict[str, int]]:
        """BFS from ``start``: predecessor pointers and hop distances.

        Stores O(1) per settled digest (parent pointer + distance), not a
        path — paths are reconstructed on demand by :meth:`_replay_path`
        for the one candidate actually replayed — and stops as soon as
        every digest in ``wanted`` has been settled, so a near source on
        a long chain costs its distance, not the chain length.
        """
        previous: Dict[str, Tuple[str, Delta, bool]] = {}
        distance: Dict[str, int] = {start: 0}
        remaining = set(wanted) - {start}
        queue: "deque[str]" = deque([start])
        while queue and remaining:
            digest = queue.popleft()
            for neighbour, delta, forward in edges.get(digest, ()):
                if neighbour in distance:
                    continue
                # In an unweighted BFS the distance is final at discovery.
                distance[neighbour] = distance[digest] + 1
                previous[neighbour] = (digest, delta, forward)
                remaining.discard(neighbour)
                queue.append(neighbour)
        return previous, distance

    @staticmethod
    def _search_from_seeds(
        edges: Dict[str, List[Tuple[str, Delta, bool]]],
        seeds: Sequence[str],
        wanted: Set[str],
    ) -> Tuple[
        Dict[str, Tuple[str, Delta, bool]],
        Dict[str, str],
        Dict[str, int],
    ]:
        """Multi-source BFS: predecessor pointers, origin seed, distances.

        All seeds start at distance 0, so every settled digest records
        the *nearest* seed (``origin``) — exactly the candidate ranking
        :meth:`materialise` computes one target at a time.  Because the
        queue is seeded in order, equal-distance ties break towards the
        earlier seed (FIFO keeps each depth level in seed order), and the
        search stops once every digest in ``wanted`` has been settled.

        Unlike :meth:`_search_from`, the traversal runs *from* the entry
        points *towards* the targets, so each predecessor edge is already
        in replay orientation — no flip on walk-back.
        """
        previous: Dict[str, Tuple[str, Delta, bool]] = {}
        origin: Dict[str, str] = {}
        distance: Dict[str, int] = {}
        queue: "deque[str]" = deque()
        for seed in seeds:
            if seed in distance:
                continue
            distance[seed] = 0
            origin[seed] = seed
            queue.append(seed)
        remaining = set(wanted) - set(distance)
        while queue and remaining:
            digest = queue.popleft()
            for neighbour, delta, forward in edges.get(digest, ()):
                if neighbour in distance:
                    continue
                distance[neighbour] = distance[digest] + 1
                previous[neighbour] = (digest, delta, forward)
                origin[neighbour] = origin[digest]
                remaining.discard(neighbour)
                queue.append(neighbour)
        return previous, origin, distance

    @staticmethod
    def _replay_path(
        previous: Dict[str, Tuple[str, Delta, bool]],
        source: str,
    ) -> List[Tuple[Delta, bool]]:
        """The edges to replay from ``source`` back to the BFS start.

        ``previous[child] = (parent, delta, forward)`` records that BFS
        reached ``child`` from ``parent`` by traversing the delta with
        ``forward`` orientation; replaying source->start walks each edge
        the *other* way, so every orientation flips — and because the
        walk itself runs source->start, the flipped edges are already in
        replay order.
        """
        steps: List[Tuple[Delta, bool]] = []
        digest = source
        while digest in previous:
            digest, delta, forward = previous[digest]
            steps.append((delta, not forward))
        return steps

    def __repr__(self) -> str:
        head = self.head.digest[:12] if self.head else "<empty>"
        return f"Lineage({self._name!r}, versions={len(self)}, head={head})"
