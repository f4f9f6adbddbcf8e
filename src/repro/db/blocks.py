"""Block decomposition of an inconsistent database.

Under primary keys, the facts of a database partition into *blocks*: maximal
sets of facts sharing the same key value ``key_Σ(α)``.  A repair keeps
exactly one fact from each block, so the set of repairs is (isomorphic to)
the cartesian product of the blocks.  The paper fixes a canonical ordering
``≺_{D,Σ}`` of the blocks (lexicographic on key values), which this module
reproduces: :class:`BlockDecomposition` exposes the blocks as an ordered
sequence ``B1, ..., Bn`` and is the backbone of repair enumeration,
counting, the guess–check–expand transducer and the compactor.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ConstraintError
from .constraints import KeyValue, PrimaryKeySet
from .database import Database
from .delta import Delta
from .facts import Fact, canonical_order

__all__ = ["Block", "BlockDecomposition"]


def _key_sort_token(value: KeyValue) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """A total-order token for a key value.

    Key values may mix constant types (ints, strings); we order constants by
    ``(type name, string rendering)`` so the lexicographic ordering
    ``≺_{D,Σ}`` is total, deterministic and independent of insertion order.
    """
    relation, constants = value
    return (relation, tuple((type(c).__name__, str(c)) for c in constants))


@dataclass(frozen=True)
class Block:
    """One block ``B_i``: all facts of ``D`` with a given key value.

    Attributes
    ----------
    key_value:
        The shared key value of the facts in the block.
    facts:
        The facts of the block, sorted canonically so that position ``j``
        within the block is well defined (used by samplers and compactors).
    """

    key_value: KeyValue
    facts: Tuple[Fact, ...]

    def __post_init__(self) -> None:
        if not self.facts:
            raise ValueError("a block must contain at least one fact")

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __contains__(self, item: object) -> bool:
        return item in self.facts

    @property
    def relation(self) -> str:
        """The relation all facts of the block belong to."""
        return self.key_value[0]

    def is_conflicting(self) -> bool:
        """True iff the block holds more than one fact (an actual conflict)."""
        return len(self.facts) > 1

    def index_of(self, item: Fact) -> int:
        """Return the 0-based position of ``item`` within the block."""
        return self.facts.index(item)

    def __str__(self) -> str:
        rendered = ", ".join(str(item) for item in self.facts)
        return f"Block[{self.relation}{self.key_value[1]}]{{{rendered}}}"


class BlockDecomposition:
    """The ordered block sequence ``B1 ≺ B2 ≺ ... ≺ Bn`` of ``(D, Σ)``.

    The ordering is the lexicographic ordering of key values used throughout
    the paper (``≺_{D,Σ}``).  The decomposition is computed once and reused
    by every algorithm that needs it (enumeration, counting, sampling,
    transducers, compactors).
    """

    def __init__(self, database: Database, keys: PrimaryKeySet) -> None:
        grouped: Dict[KeyValue, List[Fact]] = defaultdict(list)
        for item in database:
            grouped[keys.key_value(item)].append(item)
        ordered_values = sorted(grouped, key=_key_sort_token)
        blocks = tuple(
            Block(value, tuple(canonical_order(grouped[value])))
            for value in ordered_values
        )
        self._install(database, keys, blocks)

    def _install(
        self, database: Database, keys: PrimaryKeySet, blocks: Tuple[Block, ...]
    ) -> None:
        """Set every field from an already-ordered block sequence."""
        self._database = database
        self._keys = keys
        self._blocks: Tuple[Block, ...] = blocks
        # Keyed by block, not by fact: a fact is found through its key
        # value, so installing costs O(#blocks) and hashes no fact.
        self._index_by_key: Dict[KeyValue, int] = {
            block.key_value: index for index, block in enumerate(self._blocks)
        }
        # Pure functions of the frozen blocks, kept so that a warm job reads
        # them in O(1); this costs O(#blocks) on top of the pass above.
        self._sizes: Tuple[int, ...] = tuple([len(block.facts) for block in blocks])
        self._total: int = math.prod(self._sizes)
        self._max_size: int = max(self._sizes, default=0)

    @classmethod
    def _from_blocks(
        cls, database: Database, keys: PrimaryKeySet, blocks: Tuple[Block, ...]
    ) -> "BlockDecomposition":
        """Build a decomposition from blocks already in ``≺_{D,Σ}`` order."""
        decomposition = cls.__new__(cls)
        decomposition._install(database, keys, blocks)
        return decomposition

    @classmethod
    def from_blocks(
        cls, database: Database, keys: PrimaryKeySet, blocks: Sequence[Block]
    ) -> "BlockDecomposition":
        """Rehydrate a decomposition from an already-ordered block sequence.

        This is the persistence hook: the on-disk decomposition cache
        (:class:`~repro.store.DecompositionDiskCache`) stores only
        the blocks and reattaches the caller's (database, keys) pair at
        load time.  The blocks must be exactly the blocks of ``(database,
        keys)`` in ``≺_{D,Σ}`` order — which content addressing guarantees
        when the entry is keyed by the pair's snapshot token.
        """
        return cls._from_blocks(database, keys, tuple(blocks))

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, delta: Delta, database: Optional[Database] = None
    ) -> "BlockDecomposition":
        """The decomposition of ``self.database.apply_delta(delta)``.

        Only the blocks whose key value is touched by the delta are
        regrouped and re-sorted; every untouched :class:`Block` object is
        reused as-is and the merged ordering is produced by splicing the
        touched keys into the existing ``≺_{D,Σ}`` sequence.  The result is
        guaranteed equal (block for block) to a full
        ``BlockDecomposition(new_database, keys)`` rebuild — the randomized
        property suite pins this equivalence.

        ``database`` optionally passes the already-derived new snapshot so
        callers that need both do not apply the delta twice.
        """
        if database is None:
            database = self._database.apply_delta(delta)
        really_inserted, really_deleted = delta.effective_against(self._database)

        changes: Dict[KeyValue, Tuple[Set[Fact], Set[Fact]]] = {}
        for item in really_inserted:
            changes.setdefault(self._keys.key_value(item), (set(), set()))[0].add(item)
        for item in really_deleted:
            changes.setdefault(self._keys.key_value(item), (set(), set()))[1].add(item)
        if not changes:
            return BlockDecomposition._from_blocks(database, self._keys, self._blocks)

        replaced: Dict[KeyValue, Optional[Block]] = {}  # None marks a vanished block
        brand_new: List[Block] = []
        for key_value, (added, removed) in changes.items():
            index = self._index_by_key.get(key_value)
            if index is None:
                brand_new.append(Block(key_value, tuple(canonical_order(added))))
                continue
            facts = set(self._blocks[index].facts)
            facts.difference_update(removed)
            facts.update(added)
            replaced[key_value] = (
                Block(key_value, tuple(canonical_order(facts))) if facts else None
            )

        merged: List[Block] = []
        for block in self._blocks:
            if block.key_value in replaced:
                replacement = replaced[block.key_value]
                if replacement is not None:
                    merged.append(replacement)
            else:
                merged.append(block)
        for block in brand_new:
            insort(merged, block, key=lambda b: _key_sort_token(b.key_value))
        return BlockDecomposition._from_blocks(database, self._keys, tuple(merged))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> Database:
        """The database that was decomposed."""
        return self._database

    @property
    def keys(self) -> PrimaryKeySet:
        """The primary keys used for the decomposition."""
        return self._keys

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """The blocks in ``≺_{D,Σ}`` order."""
        return self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def block_of(self, item: Fact) -> Block:
        """Return the block containing ``item`` (the paper's ``block_Σ(α, D)``)."""
        return self._blocks[self.block_index_of(item)]

    def block_index_of(self, item: Fact) -> int:
        """Return the 0-based index of the block containing ``item``.

        The block is found by ``item``'s key value, so a fact whose key
        matches a block it is not in raises :class:`KeyError` like any other
        fact outside the database.
        """
        try:
            index = self._index_by_key.get(self._keys.key_value(item))
        except ConstraintError:  # ``item`` is too short for its relation's key
            index = None
        if index is None or item not in self._blocks[index].facts:
            raise KeyError(f"fact {item} does not belong to the database")
        return index

    def block_for_key(self, key_value: KeyValue) -> Block:
        """Return the block with the given key value."""
        return self._blocks[self._index_by_key[key_value]]

    def index_for_key(self, key_value: KeyValue) -> Optional[int]:
        """The 0-based index of the block with ``key_value`` (None if absent).

        The engine's delta-migration path uses this to remap selector
        coordinates from one snapshot's decomposition to the next.
        """
        return self._index_by_key.get(key_value)

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def block_sizes(self) -> Tuple[int, ...]:
        """Sizes ``|B1|, ..., |Bn|`` in block order."""
        return self._sizes

    def conflicting_blocks(self) -> Tuple[Block, ...]:
        """Blocks with at least two facts (actual conflicts)."""
        return tuple(block for block in self._blocks if block.is_conflicting())

    def max_block_size(self) -> int:
        """``max_i |B_i|`` — the quantity ``m`` in the FPRAS sample bound."""
        return self._max_size

    def total_repairs(self) -> int:
        """``|rep(D, Σ)| = Π_i |B_i|`` (1 for the empty database).

        This is the "easy" counting problem the paper notes is in FP.
        """
        return self._total

    def is_consistent(self) -> bool:
        """True iff the database has no conflicting block."""
        return all(not block.is_conflicting() for block in self._blocks)

    # ------------------------------------------------------------------ #
    # repair assembly
    # ------------------------------------------------------------------ #
    def repair_from_choices(self, choices: Sequence[int]) -> Database:
        """Build the repair selecting fact ``choices[i]`` from block ``B_i``.

        ``choices`` must have one 0-based index per block.  Because every
        repair keeps exactly one fact per block, this gives a bijection
        between index vectors and repairs — it is the library counterpart of
        the tuple ``⟨α1, ..., αn⟩ ∈ Π_{D,Σ}`` in the paper.
        """
        if len(choices) != len(self._blocks):
            raise ValueError(
                f"expected {len(self._blocks)} choices (one per block), "
                f"got {len(choices)}"
            )
        selected = [
            block.facts[choice] for block, choice in zip(self._blocks, choices)
        ]
        return Database(selected, schema=self._database.schema)

    def choices_from_repair(self, repair: Database) -> Tuple[int, ...]:
        """Inverse of :meth:`repair_from_choices` for a valid repair."""
        choices: List[int] = []
        facts_by_block: Dict[int, Fact] = {}
        for item in repair:
            index = self.block_index_of(item)
            if index in facts_by_block:
                raise ValueError(
                    f"not a repair: block {index} contributes both "
                    f"{facts_by_block[index]} and {item}"
                )
            facts_by_block[index] = item
        for index, block in enumerate(self._blocks):
            if index not in facts_by_block:
                raise ValueError(f"not a repair: block {index} ({block}) is missing")
            choices.append(block.index_of(facts_by_block[index]))
        return tuple(choices)

    def is_repair(self, candidate: Database) -> bool:
        """True iff ``candidate`` is a repair of ``(D, Σ)``.

        A repair is a maximal consistent subset of ``D``, equivalently a set
        keeping exactly one fact from each block.
        """
        try:
            self.choices_from_repair(candidate)
        except (ValueError, KeyError):
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"BlockDecomposition(blocks={len(self._blocks)}, "
            f"repairs={self.total_repairs()})"
        )
