"""Databases: finite sets of facts.

The :class:`Database` class is the central data container of the library.
It behaves like an immutable-by-convention set of :class:`~repro.db.facts.Fact`
objects, indexed by relation name for fast access, and carries an optional
:class:`~repro.db.schema.Schema` against which facts are validated.

Databases additionally support an explicit *snapshot* lifecycle: calling
:meth:`Database.freeze` pins the content (further mutation raises
:class:`~repro.errors.FrozenDatabaseError`), makes the stable
:meth:`Database.content_digest` the identity used by ``__hash__``/``__eq__``,
and enables :meth:`Database.apply_delta`, which derives the *next* frozen
snapshot from a :class:`~repro.db.delta.Delta` while sharing the per-relation
index sets of every relation the delta does not touch.  Content-addressed
snapshots are what the batch engine keys its caches by.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import FrozenDatabaseError, SchemaError
from .delta import Delta
from .facts import Constant, Fact, canonical_order, canonical_position
from .schema import RelationSchema, Schema

__all__ = ["Database"]


def _fact_token(item: Fact) -> str:
    """A canonical, type-tagged rendering of a fact.

    ``repr`` alone would conflate ``1`` and ``"1"`` across type changes in
    future constant kinds; tagging each argument with its type name makes
    the token (and hence the content digest) injective on facts for all
    practical constant types, and stable across processes and Python
    versions (unlike salted ``hash``).
    """
    arguments = "\x1e".join(
        f"{type(argument).__name__}:{argument!r}" for argument in item.arguments
    )
    return f"{item.relation}\x1f{arguments}"


def _encoded_token(item: Fact) -> bytes:
    """One fact's share of the content digest: its token, UTF-8, then NUL."""
    return _fact_token(item).encode("utf-8") + b"\x00"


def _splice(
    order: List[Fact],
    tokens: List[bytes],
    deleted: Sequence[Fact],
    inserted: Sequence[Fact],
) -> Tuple[List[Fact], List[bytes]]:
    """The canonical fact and token lists after an effective delta.

    ``deleted`` and ``inserted`` are in canonical order (as a
    :class:`~repro.db.delta.Delta` keeps them); every deleted fact is in
    ``order`` and no inserted fact is.  Each cut is found by binary search
    in the old order, and the new lists are assembled from slices of the
    old ones, so the cost is ``O(|delta| log n)`` comparisons plus one
    C-level copy of each list.
    """
    cuts = sorted(
        [(canonical_position(order, item), 1, item) for item in deleted]
        + [(canonical_position(order, item), 0, item) for item in inserted],
        key=itemgetter(0, 1),  # an insertion lands before the fact it precedes
    )
    new_order: List[Fact] = []
    new_tokens: List[bytes] = []
    start = 0
    for position, is_deleted, item in cuts:
        new_order += order[start:position]
        new_tokens += tokens[start:position]
        if is_deleted:
            start = position + 1
        else:
            new_order.append(item)
            new_tokens.append(_encoded_token(item))
            start = position
    new_order += order[start:]
    new_tokens += tokens[start:]
    return new_order, new_tokens


class Database:
    """A finite set of facts over a schema.

    Parameters
    ----------
    facts:
        The facts of the database.  Duplicates are silently collapsed (a
        database is a set).
    schema:
        Optional schema.  When provided, every fact is validated against it
        (declared relation, correct arity).  When omitted, a schema is
        inferred from the facts themselves: each relation gets the arity of
        its first fact, and facts with a conflicting arity are rejected.
    """

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        schema: Optional[Schema] = None,
    ) -> None:
        self._facts: Set[Fact] = set()
        self._by_relation: Dict[str, Set[Fact]] = defaultdict(set)
        self._schema = schema if schema is not None else Schema()
        self._schema_was_given = schema is not None
        self._frozen = False
        self._digest: Optional[str] = None
        self._hash: Optional[int] = None
        # A frozen snapshot's facts in canonical order and their encoded
        # digest tokens, built on first use and spliced by apply_delta.
        # One attribute, so a racing reader never sees half of the pair.
        self._ordered: Optional[Tuple[List[Fact], List[bytes]]] = None
        # (relation, position) -> constant -> the facts with that constant
        # there, built by facts_with on first lookup and dropped on mutation.
        self._positions: Dict[
            Tuple[str, int], Dict[Constant, Tuple[Fact, ...]]
        ] = {}
        for item in facts:
            self.add(item)

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    def add(self, new_fact: Fact) -> None:
        """Add a fact, validating or extending the schema as appropriate."""
        if self._frozen:
            raise FrozenDatabaseError(
                f"cannot add {new_fact} to a frozen database snapshot; "
                f"derive a new snapshot with apply_delta() instead"
            )
        if not isinstance(new_fact, Fact):
            raise TypeError(f"expected a Fact, got {type(new_fact).__name__}")
        if new_fact.relation in self._schema:
            self._schema.check_terms(new_fact.relation, new_fact.arguments)
        elif self._schema_was_given:
            raise SchemaError(
                f"fact {new_fact} uses relation {new_fact.relation!r} which is "
                f"not declared in the provided schema"
            )
        else:
            self._schema.add_relation(
                RelationSchema(new_fact.relation, new_fact.arity)
            )
        self._facts.add(new_fact)
        self._by_relation[new_fact.relation].add(new_fact)
        self._digest = None
        if self._positions:
            self._positions = {}

    def update(self, facts: Iterable[Fact]) -> None:
        """Add every fact from ``facts``."""
        for item in facts:
            self.add(item)

    def discard(self, old_fact: Fact) -> None:
        """Remove ``old_fact`` if present (no error if absent)."""
        if self._frozen:
            raise FrozenDatabaseError(
                f"cannot discard {old_fact} from a frozen database snapshot; "
                f"derive a new snapshot with apply_delta() instead"
            )
        if old_fact in self._facts:
            self._facts.discard(old_fact)
            self._by_relation[old_fact.relation].discard(old_fact)
            self._digest = None
            if self._positions:
                self._positions = {}

    # ------------------------------------------------------------------ #
    # snapshots: freezing, content addressing, deltas
    # ------------------------------------------------------------------ #
    @property
    def is_frozen(self) -> bool:
        """True once :meth:`freeze` has pinned the content."""
        return self._frozen

    def freeze(self) -> "Database":
        """Pin the database as an immutable snapshot and return ``self``.

        Freezing is idempotent.  A frozen database rejects ``add``/
        ``discard``/``update`` with :class:`~repro.errors.FrozenDatabaseError`
        and switches ``__hash__``/``__eq__`` to the digest fast path, which
        is what makes snapshots cheap dictionary keys for engine caches.
        """
        if not self._frozen:
            self._frozen = True
            self.content_digest()  # pin the digest eagerly
            # Cache the set hash too: hashing stays consistent with equal
            # unfrozen databases while costing O(1) per lookup once frozen.
            self._hash = hash(frozenset(self._facts))
        return self

    def content_digest(self) -> str:
        """A stable SHA-256 hex digest of the fact set.

        The digest is computed from a canonical (sorted, type-tagged)
        serialisation of the facts, so it is identical across processes,
        machines and Python versions for equal databases — the property the
        persistent selector cache relies on.  It is cached until the next
        mutation (and forever once frozen).
        """
        if self._digest is None:
            self._digest = hashlib.sha256(b"".join(self._canonical()[1])).hexdigest()
        return self._digest

    def _canonical(self) -> Tuple[List[Fact], List[bytes]]:
        """The facts in canonical order, with each fact's encoded token.

        A frozen snapshot keeps both lists, so :meth:`apply_delta` can
        splice them instead of sorting and rendering every fact again; a
        mutable database builds them on every call.  The lists are never
        changed in place.
        """
        if self._ordered is not None:
            return self._ordered
        order = canonical_order(self._facts)
        ordered = (order, [_encoded_token(item) for item in order])
        if self._frozen:
            self._ordered = ordered
        return ordered

    def apply_delta(self, delta: Delta) -> "Database":
        """Derive the next frozen snapshot ``(self - deleted) + inserted``.

        Unchanged relations *share* their per-relation index sets with
        ``self`` (safe because both snapshots are frozen), so the cost of an
        update is proportional to the facts of the touched relations plus
        one ``O(n)`` fact-set copy — not a full re-validation of every fact.
        A frozen ``self`` also hands on its canonical order and digest
        tokens with the delta spliced in, so the new digest costs
        ``O(|delta| log n)`` comparisons plus one hash over ``n`` cached
        tokens instead of a sort and a rendering of every fact.
        Inserted facts are validated against the schema exactly like
        :meth:`add` would; deleting a fact that is absent and inserting a
        fact that is present are no-ops (deltas are declarative).

        ``self`` need not be frozen, but the result always is.
        """
        really_inserted, really_deleted = delta.effective_against(self)
        touched = {item.relation for item in really_inserted + really_deleted}

        schema = self._schema
        schema_was_given = self._schema_was_given
        new_relations = [
            item
            for item in really_inserted
            if item.relation not in schema
        ]
        for item in really_inserted:
            if item.relation in schema:
                schema.check_terms(item.relation, item.arguments)
            elif schema_was_given:
                raise SchemaError(
                    f"delta inserts {item} over relation {item.relation!r} "
                    f"which is not declared in the database's schema"
                )
        # The snapshot must not share mutable structure with a mutable
        # source: an unfrozen source could later extend the shared schema
        # (or edit shared index sets) behind the frozen snapshot's back,
        # making equal-digest snapshots behave differently.
        share_untouched = self._frozen
        if new_relations or not self._frozen:
            schema = Schema(iter(schema))
        for item in new_relations:
            if item.relation not in schema:
                schema.add_relation(RelationSchema(item.relation, item.arity))
            else:
                schema.check_terms(item.relation, item.arguments)
        clone = Database.__new__(Database)
        clone._schema = schema
        clone._schema_was_given = schema_was_given
        clone._facts = set(self._facts)
        clone._facts.difference_update(really_deleted)
        clone._facts.update(really_inserted)
        clone._by_relation = defaultdict(set)
        for name, facts in self._by_relation.items():
            if name in touched:
                clone._by_relation[name] = set(facts)
            elif facts:
                clone._by_relation[name] = facts if share_untouched else set(facts)
        for item in really_deleted:
            clone._by_relation[item.relation].discard(item)
        for item in really_inserted:
            clone._by_relation[item.relation].add(item)
        clone._frozen = False
        clone._digest = None
        clone._hash = None
        clone._ordered = None
        clone._positions = {}
        if self._frozen:
            clone._ordered = _splice(
                *self._canonical(), really_deleted, really_inserted
            )
        return clone.freeze()

    # ------------------------------------------------------------------ #
    # set-like protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, item: object) -> bool:
        return item in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            if self._frozen and other._frozen:
                return self.content_digest() == other.content_digest()
            return self._facts == other._facts
        if isinstance(other, (set, frozenset)):
            return self._facts == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is not None:
            return self._hash
        return hash(frozenset(self._facts))

    def __getstate__(self) -> Dict[str, object]:
        # The cached set hash is salted per-process (PYTHONHASHSEED), so it
        # must not travel to worker processes; the content digest is stable
        # and may.  The canonical lists and the position maps are derived
        # state that would double the payload; the receiver rebuilds them on
        # first use.
        state = self.__dict__.copy()
        state["_hash"] = None
        del state["_ordered"]
        del state["_positions"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._ordered = None
        self._positions = {}
        self.__dict__.update(state)
        if self._frozen:
            self._hash = hash(frozenset(self._facts))

    def facts(self) -> FrozenSet[Fact]:
        """Return the facts as a frozen set."""
        return frozenset(self._facts)

    def sorted_facts(self) -> List[Fact]:
        """Return the facts in the canonical (lexicographic) order.

        See :func:`~repro.db.facts.canonical_order`; a frozen snapshot
        returns a copy of the order it carries.
        """
        if self._frozen:
            return list(self._canonical()[0])
        return canonical_order(self._facts)

    # ------------------------------------------------------------------ #
    # schema and relation access
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema the database conforms to (given or inferred)."""
        return self._schema

    def relation(self, name: str) -> FrozenSet[Fact]:
        """Return all facts of relation ``name`` (empty set if none)."""
        return frozenset(self._by_relation.get(name, frozenset()))

    def facts_with(
        self, relation: str, position: int, constant: Constant
    ) -> Tuple[Fact, ...]:
        """The facts of ``relation`` whose argument at ``position`` is ``constant``.

        ``position`` is 0-based.  The first lookup at a ``(relation,
        position)`` pair groups that relation's facts by their argument
        there, in one pass; every later lookup at the pair is one dict read.
        The maps are per database: :meth:`add` and :meth:`discard` drop
        them, :meth:`apply_delta` does not carry them to the new snapshot,
        and pickling leaves them out.  Constants that compare equal share a
        bucket (``1``, ``1.0`` and ``True`` do; ``1`` and ``'1'`` do not).

        >>> from repro.db import Database, fact
        >>> db = Database([fact("R", 1, "a"), fact("R", 2, "a"), fact("R", 2, "b")])
        >>> sorted(db.facts_with("R", 1, "a"))
        [Fact(relation='R', arguments=(1, 'a')), Fact(relation='R', arguments=(2, 'a'))]
        >>> db.facts_with("R", 0, 3), db.facts_with("S", 0, 1)
        ((), ())
        """
        by_constant = self._positions.get((relation, position))
        if by_constant is None:
            grouped: Dict[Constant, List[Fact]] = defaultdict(list)
            for item in self._by_relation.get(relation, ()):
                if position < len(item.arguments):
                    grouped[item.arguments[position]].append(item)
            by_constant = {key: tuple(facts) for key, facts in grouped.items()}
            self._positions[(relation, position)] = by_constant
        return by_constant.get(constant, ())

    def relation_names(self) -> Tuple[str, ...]:
        """Return the names of relations that have at least one fact."""
        return tuple(sorted(name for name, facts in self._by_relation.items() if facts))

    # ------------------------------------------------------------------ #
    # domain
    # ------------------------------------------------------------------ #
    def active_domain(self) -> FrozenSet[Constant]:
        """The active domain ``dom(D)``: all constants occurring in ``D``."""
        domain: Set[Constant] = set()
        for item in self._facts:
            domain.update(item.arguments)
        return frozenset(domain)

    def active_domain_sorted(self) -> List[Constant]:
        """The active domain as a deterministically ordered list.

        Constants of mixed types (ints and strings) are ordered by
        ``(type name, value as string)`` so the order is total and stable,
        which matters for reproducible enumeration in tests and benchmarks.
        """
        return sorted(self.active_domain(), key=lambda c: (type(c).__name__, str(c)))

    # ------------------------------------------------------------------ #
    # derived databases
    # ------------------------------------------------------------------ #
    def restrict(self, facts: Iterable[Fact]) -> "Database":
        """Return a new database containing only the given facts of ``self``."""
        kept = [item for item in facts if item in self._facts]
        return Database(kept, schema=self._schema)

    def union(self, other: "Database") -> "Database":
        """Return a new database with the facts of both databases."""
        combined = Database(self._facts)
        combined.update(other)
        return combined

    def copy(self) -> "Database":
        """Return a shallow copy (facts are immutable, so this is safe)."""
        return Database(self._facts, schema=self._schema if self._schema_was_given else None)

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        if len(self._facts) <= 8:
            rendered = ", ".join(str(item) for item in self.sorted_facts())
            return f"Database({{{rendered}}})"
        return f"Database(<{len(self._facts)} facts over {len(self.relation_names())} relations>)"

    def pretty(self, max_facts_per_relation: Optional[int] = None) -> str:
        """Return a human-readable multi-line rendering of the database."""
        lines: List[str] = []
        for name in self.relation_names():
            facts = canonical_order(self._by_relation[name])
            shown: Sequence[Fact] = facts
            suffix = ""
            if max_facts_per_relation is not None and len(facts) > max_facts_per_relation:
                shown = facts[:max_facts_per_relation]
                suffix = f"  ... ({len(facts) - max_facts_per_relation} more)"
            lines.append(f"{name} ({len(facts)} facts):")
            lines.extend(f"  {item}" for item in shown)
            if suffix:
                lines.append(suffix)
        return "\n".join(lines) if lines else "<empty database>"
