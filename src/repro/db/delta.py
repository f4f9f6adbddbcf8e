"""Deltas: first-class descriptions of database updates.

A :class:`Delta` is an immutable pair of fact sets — facts to insert and
facts to delete — that turns one database snapshot into the next.  Deltas
are the unit of change everywhere updates are first-class: the data layer
(:meth:`repro.db.database.Database.apply_delta` derives a new snapshot,
:meth:`repro.db.blocks.BlockDecomposition.apply_delta` updates the block
decomposition incrementally), the batch engine
(:meth:`repro.engine.SolverPool.apply_delta` invalidates only the cache
entries the delta actually touches) and the CLI (``repro update`` and
delta entries in ``repro batch`` job files).

Deltas are declarative, not imperative: inserting a fact that is already
present and deleting a fact that is absent are no-ops, so the same delta
document can be replayed idempotently.  :meth:`Delta.effective_against`
computes the no-op-free core against a concrete database, which is what
every incremental algorithm works from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple, TYPE_CHECKING

from ..errors import DeltaError
from .facts import Fact, canonical_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .constraints import KeyValue, PrimaryKeySet
    from .database import Database

__all__ = ["Delta"]


def _as_sorted_fact_tuple(facts: Iterable[Fact], role: str) -> Tuple[Fact, ...]:
    collected: Set[Fact] = set()
    for item in facts:
        if not isinstance(item, Fact):
            raise DeltaError(
                f"delta {role} entries must be Facts, got {type(item).__name__}"
            )
        collected.add(item)
    return tuple(canonical_order(collected))


@dataclass(frozen=True)
class Delta:
    """An immutable update: facts to insert and facts to delete.

    Duplicates are collapsed and both sides are kept canonically sorted so
    that equal deltas compare (and hash) equal regardless of construction
    order.  A fact may not appear on both sides — "delete then re-insert"
    is a no-op that would make the applied order observable, so it is
    rejected outright.

    >>> from repro.db import Delta, fact
    >>> delta = Delta(inserted=[fact("R", 2, "b")], deleted=[fact("R", 1, "a")])
    >>> len(delta)
    2
    >>> sorted(delta.relations())
    ['R']
    >>> Delta.from_json(delta.to_json()) == delta
    True
    """

    inserted: Tuple[Fact, ...] = ()
    deleted: Tuple[Fact, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inserted", _as_sorted_fact_tuple(self.inserted, "insert")
        )
        object.__setattr__(
            self, "deleted", _as_sorted_fact_tuple(self.deleted, "delete")
        )
        overlap = set(self.inserted) & set(self.deleted)
        if overlap:
            rendered = ", ".join(str(item) for item in canonical_order(overlap))
            raise DeltaError(
                f"delta lists the same fact(s) as inserted and deleted: {rendered}"
            )

    # ------------------------------------------------------------------ #
    # basic shape
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def is_empty(self) -> bool:
        """True iff the delta changes nothing whatever it is applied to.

        >>> Delta().is_empty()
        True
        """
        return not self.inserted and not self.deleted

    def relations(self) -> FrozenSet[str]:
        """Every relation named by an inserted or deleted fact."""
        return frozenset(
            item.relation for item in self.inserted + self.deleted
        )

    # ------------------------------------------------------------------ #
    # application helpers
    # ------------------------------------------------------------------ #
    def effective_against(
        self, database: "Database"
    ) -> Tuple[Tuple[Fact, ...], Tuple[Fact, ...]]:
        """The no-op-free core ``(really_inserted, really_deleted)``.

        Inserting a present fact and deleting an absent fact are no-ops;
        incremental algorithms (block updates, cache invalidation) must work
        from the effective core or they would invalidate state that did not
        change.

        >>> from repro.db import Database, Delta, fact
        >>> database = Database([fact("R", 1, "a")])
        >>> Delta(inserted=[fact("R", 1, "a")]).effective_against(database)
        ((), ())
        >>> inserted, deleted = Delta(
        ...     inserted=[fact("R", 2, "b")], deleted=[fact("R", 1, "a")]
        ... ).effective_against(database)
        >>> (len(inserted), len(deleted))
        (1, 1)
        """
        really_inserted = tuple(
            item for item in self.inserted if item not in database
        )
        really_deleted = tuple(item for item in self.deleted if item in database)
        return really_inserted, really_deleted

    def inverse(self) -> "Delta":
        """The delta that undoes this one: inserts deleted, deletes inserted.

        Exact *only* for effective deltas (every inserted fact was absent,
        every deleted fact was present — see :meth:`effective_against`):
        then applying the delta and its inverse in either order is the
        identity.  Snapshot lineages record effective deltas precisely so
        that history can be replayed in both directions
        (:meth:`repro.db.lineage.Lineage.materialise`).

        >>> from repro.db import Database, Delta, fact
        >>> database = Database([fact("R", 1, "a")]).freeze()
        >>> delta = Delta(inserted=[fact("R", 2, "b")], deleted=[fact("R", 1, "a")])
        >>> database.apply_delta(delta).apply_delta(delta.inverse()) == database
        True
        """
        return Delta(inserted=self.deleted, deleted=self.inserted)

    def touched_key_values(
        self, keys: "PrimaryKeySet", database: "Database"
    ) -> FrozenSet["KeyValue"]:
        """The key values (block identities) the delta effectively touches."""
        really_inserted, really_deleted = self.effective_against(database)
        return frozenset(
            keys.key_value(item) for item in really_inserted + really_deleted
        )

    # ------------------------------------------------------------------ #
    # serialisation (the job-file / CLI wire format)
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, object]:
        """The delta as a JSON-able dict (inverse of :meth:`from_json`)."""
        payload: Dict[str, object] = {}
        if self.inserted:
            payload["insert"] = [
                {"relation": item.relation, "arguments": list(item.arguments)}
                for item in self.inserted
            ]
        if self.deleted:
            payload["delete"] = [
                {"relation": item.relation, "arguments": list(item.arguments)}
                for item in self.deleted
            ]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "Delta":
        """Build a delta from ``{"insert": [...], "delete": [...]}``.

        Fact entries use the database JSON format:
        ``{"relation": "R", "arguments": [1, "a"]}``.
        """
        if not isinstance(payload, Mapping):
            raise DeltaError(
                f"a delta must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"insert", "delete"}
        if unknown:
            raise DeltaError(f"unknown delta fields: {sorted(unknown)}")

        def parse_side(side: str) -> List[Fact]:
            entries = payload.get(side, [])
            if not isinstance(entries, list):
                raise DeltaError(f"delta {side!r} must be an array of facts")
            facts: List[Fact] = []
            for entry in entries:
                if (
                    not isinstance(entry, Mapping)
                    or "relation" not in entry
                    or "arguments" not in entry
                ):
                    raise DeltaError(
                        f"delta {side!r} entries must look like "
                        f"{{'relation': ..., 'arguments': [...]}}, got {entry!r}"
                    )
                arguments = entry["arguments"]
                if isinstance(arguments, str) or not isinstance(arguments, list):
                    raise DeltaError(
                        f"delta fact arguments must be an array, got {arguments!r}"
                    )
                facts.append(Fact(str(entry["relation"]), tuple(arguments)))
            return facts

        return cls(inserted=parse_side("insert"), deleted=parse_side("delete"))

    def __str__(self) -> str:
        plus = ", ".join(f"+{item}" for item in self.inserted)
        minus = ", ".join(f"-{item}" for item in self.deleted)
        body = ", ".join(piece for piece in (plus, minus) if piece)
        return f"Delta{{{body}}}"
