"""Unit and property tests for the block decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Block, BlockDecomposition, Database, Delta, PrimaryKeySet, fact


class TestBlockDecompositionEmployee:
    def test_two_blocks_of_size_two(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        assert len(decomposition) == 2
        assert decomposition.block_sizes() == (2, 2)
        assert decomposition.total_repairs() == 4
        assert decomposition.max_block_size() == 2

    def test_blocks_are_ordered_by_key_value(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        assert decomposition[0].key_value == ("Employee", (1,))
        assert decomposition[1].key_value == ("Employee", (2,))

    def test_block_of_and_index(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        item = fact("Employee", 2, "Alice", "IT")
        assert item in decomposition.block_of(item)
        assert decomposition.block_index_of(item) == 1

    def test_block_of_unknown_fact(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        with pytest.raises(KeyError):
            decomposition.block_index_of(fact("Employee", 9, "X", "Y"))

    def test_block_of_a_foreign_fact_with_a_known_key(self, employee_db, employee_keys):
        """Blocks are found by key value; a fact sharing a block's key but
        not in the block is still foreign."""
        decomposition = BlockDecomposition(employee_db, employee_keys)
        stranger = fact("Employee", 2, "Eve", "HR")
        assert decomposition.index_for_key(employee_keys.key_value(stranger)) == 1
        with pytest.raises(KeyError):
            decomposition.block_index_of(stranger)
        with pytest.raises(KeyError):
            decomposition.block_of(stranger)
        with pytest.raises(KeyError):
            decomposition.block_index_of(fact("Dept", 1))  # no such relation
        # A fact too short to have a key value is foreign, not an error.
        keyed_late = PrimaryKeySet.from_dict({"R": [2]})
        short = BlockDecomposition(Database([fact("R", 1, "a")]), keyed_late)
        with pytest.raises(KeyError):
            short.block_index_of(fact("R", 1))
        assert not short.is_repair(Database([fact("R", 1)]))

    def test_one_fact_delta_touches_no_other_block(self, monkeypatch):
        """A one-fact delta on 1,000 blocks rebuilds no per-fact index: the
        untouched blocks are never iterated."""
        keys = PrimaryKeySet.from_dict({"R": [1]})
        database = Database(
            [fact("R", i, tag) for i in range(1000) for tag in ("a", "b")]
        ).freeze()
        decomposition = BlockDecomposition(database, keys)
        delta = Delta(inserted=[fact("R", 500, "c")])
        iterated = []
        real_iter = Block.__iter__

        def counting_iter(block):
            iterated.append(block.key_value)
            return real_iter(block)

        monkeypatch.setattr(Block, "__iter__", counting_iter)
        updated = decomposition.apply_delta(delta)
        assert len(iterated) <= 3
        monkeypatch.undo()
        rebuilt = BlockDecomposition(database.apply_delta(delta), keys)
        assert updated.blocks == rebuilt.blocks
        index = updated.block_index_of(fact("R", 500, "c"))
        assert updated[index].key_value == ("R", (500,))
        assert updated.block_sizes()[index] == 3

    def test_repair_from_choices_roundtrip(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        repair = decomposition.repair_from_choices([0, 1])
        assert len(repair) == 2
        assert decomposition.choices_from_repair(repair) == (0, 1)
        assert decomposition.is_repair(repair)

    def test_non_repairs_are_rejected(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        assert not decomposition.is_repair(Database([fact("Employee", 1, "Bob", "HR")]))
        assert not decomposition.is_repair(employee_db)

    def test_wrong_number_of_choices(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        with pytest.raises(ValueError):
            decomposition.repair_from_choices([0])

    def test_conflicting_blocks(self, employee_db, employee_keys):
        decomposition = BlockDecomposition(employee_db, employee_keys)
        assert len(decomposition.conflicting_blocks()) == 2
        assert not decomposition.is_consistent()

    def test_consistent_database_has_singleton_blocks(self, employee_keys):
        database = Database(
            [fact("Employee", 1, "Bob", "HR"), fact("Employee", 2, "Tim", "IT")]
        )
        decomposition = BlockDecomposition(database, employee_keys)
        assert decomposition.is_consistent()
        assert decomposition.total_repairs() == 1

    def test_empty_database(self, employee_keys):
        decomposition = BlockDecomposition(Database(), employee_keys)
        assert len(decomposition) == 0
        assert decomposition.total_repairs() == 1
        assert decomposition.max_block_size() == 0


# --------------------------------------------------------------------------- #
# property-based invariants
# --------------------------------------------------------------------------- #
_fact_strategy = st.builds(
    lambda key, payload: fact("R", key, payload),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


@given(st.lists(_fact_strategy, max_size=25))
@settings(max_examples=60, deadline=None)
def test_blocks_partition_the_database(facts):
    """Blocks are a partition of the database's facts."""
    database = Database(facts)
    keys = PrimaryKeySet.from_dict({"R": [1]})
    decomposition = BlockDecomposition(database, keys)
    union = set()
    total = 0
    for block in decomposition:
        block_facts = set(block.facts)
        assert not (union & block_facts), "blocks must be disjoint"
        union |= block_facts
        total += len(block)
    assert union == set(database.facts())
    assert total == len(database)


@given(st.lists(_fact_strategy, max_size=25))
@settings(max_examples=60, deadline=None)
def test_total_repairs_is_product_of_block_sizes(facts):
    """|rep(D, Σ)| equals the product of the block sizes."""
    database = Database(facts)
    keys = PrimaryKeySet.from_dict({"R": [1]})
    decomposition = BlockDecomposition(database, keys)
    product = 1
    for size in decomposition.block_sizes():
        product *= size
    assert decomposition.total_repairs() == product


@given(st.lists(_fact_strategy, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_every_repair_is_consistent_and_maximal(facts):
    """Every assembled repair satisfies Σ and keeps one fact per block."""
    database = Database(facts)
    keys = PrimaryKeySet.from_dict({"R": [1]})
    decomposition = BlockDecomposition(database, keys)
    import itertools

    for choices in itertools.islice(
        itertools.product(*(range(len(block)) for block in decomposition)), 20
    ):
        repair = decomposition.repair_from_choices(choices)
        assert keys.is_consistent(repair)
        assert len(repair) == len(decomposition)
        assert decomposition.is_repair(repair)
