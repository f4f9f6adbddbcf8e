"""Tests for the snapshot layer: Delta, freeze/digest, incremental blocks."""

from __future__ import annotations

import pickle

import pytest

from repro.db import (
    BlockDecomposition,
    Database,
    Delta,
    PrimaryKeySet,
    Schema,
    fact,
)
from repro.errors import DeltaError, FrozenDatabaseError, SchemaError


class TestDelta:
    def test_canonicalises_and_deduplicates(self):
        delta = Delta(
            inserted=[fact("R", 2, "b"), fact("R", 1, "a"), fact("R", 1, "a")],
            deleted=[fact("S", 1, "x")],
        )
        assert delta.inserted == (fact("R", 1, "a"), fact("R", 2, "b"))
        assert delta.deleted == (fact("S", 1, "x"),)
        assert len(delta) == 3
        assert delta.relations() == {"R", "S"}

    def test_equal_deltas_hash_equal_regardless_of_order(self):
        first = Delta(inserted=[fact("R", 1, "a"), fact("R", 2, "b")])
        second = Delta(inserted=[fact("R", 2, "b"), fact("R", 1, "a")])
        assert first == second
        assert hash(first) == hash(second)

    def test_rejects_overlapping_sides(self):
        with pytest.raises(DeltaError, match="inserted and deleted"):
            Delta(inserted=[fact("R", 1, "a")], deleted=[fact("R", 1, "a")])

    def test_rejects_non_facts(self):
        with pytest.raises(DeltaError, match="must be Facts"):
            Delta(inserted=["R(1)"])  # type: ignore[list-item]

    def test_effective_against_drops_noops(self, employee_db):
        delta = Delta(
            inserted=[fact("Employee", 1, "Bob", "HR"), fact("Employee", 3, "Eve", "IT")],
            deleted=[fact("Employee", 2, "Tim", "IT"), fact("Employee", 9, "Nobody", "X")],
        )
        inserted, deleted = delta.effective_against(employee_db)
        assert inserted == (fact("Employee", 3, "Eve", "IT"),)
        assert deleted == (fact("Employee", 2, "Tim", "IT"),)

    def test_touched_key_values(self, employee_db, employee_keys):
        delta = Delta(
            inserted=[fact("Employee", 3, "Eve", "IT")],
            deleted=[fact("Employee", 1, "Bob", "HR")],
        )
        touched = delta.touched_key_values(employee_keys, employee_db)
        assert touched == {("Employee", (3,)), ("Employee", (1,))}

    def test_json_round_trip(self):
        delta = Delta(
            inserted=[fact("R", 1, "a")], deleted=[fact("S", "k", 2)]
        )
        assert Delta.from_json(delta.to_json()) == delta
        assert Delta.from_json({}) == Delta()

    def test_from_json_rejects_malformed_documents(self):
        with pytest.raises(DeltaError):
            Delta.from_json([1, 2])  # type: ignore[arg-type]
        with pytest.raises(DeltaError):
            Delta.from_json({"surprise": []})
        with pytest.raises(DeltaError):
            Delta.from_json({"insert": "R(1)"})
        with pytest.raises(DeltaError):
            Delta.from_json({"insert": [{"relation": "R"}]})
        with pytest.raises(DeltaError):
            Delta.from_json({"insert": [{"relation": "R", "arguments": "a"}]})


class TestFreezeAndDigest:
    def test_freeze_is_idempotent_and_guards_mutation(self, employee_db):
        assert not employee_db.is_frozen
        assert employee_db.freeze() is employee_db
        assert employee_db.freeze() is employee_db  # idempotent
        with pytest.raises(FrozenDatabaseError, match="apply_delta"):
            employee_db.add(fact("Employee", 5, "Zed", "HR"))
        with pytest.raises(FrozenDatabaseError):
            employee_db.discard(fact("Employee", 1, "Bob", "HR"))
        with pytest.raises(FrozenDatabaseError):
            employee_db.update([fact("Employee", 5, "Zed", "HR")])
        # FrozenDatabaseError is in the SchemaError family.
        assert issubclass(FrozenDatabaseError, SchemaError)

    def test_digest_is_content_addressed(self):
        first = Database([fact("R", 1, "a"), fact("R", 2, "b")])
        second = Database([fact("R", 2, "b"), fact("R", 1, "a")])
        assert first.content_digest() == second.content_digest()
        second.add(fact("R", 3, "c"))
        assert first.content_digest() != second.content_digest()

    def test_digest_distinguishes_constant_types(self):
        assert (
            Database([fact("R", 1, 1)]).content_digest()
            != Database([fact("R", 1, "1")]).content_digest()
        )

    def test_digest_cached_and_invalidated_by_mutation(self):
        database = Database([fact("R", 1, "a")])
        before = database.content_digest()
        database.add(fact("R", 2, "b"))
        after = database.content_digest()
        assert before != after
        database.discard(fact("R", 2, "b"))
        assert database.content_digest() == before

    def test_frozen_equality_fast_path_and_hash_consistency(self):
        first = Database([fact("R", 1, "a")]).freeze()
        second = Database([fact("R", 1, "a")]).freeze()
        third = Database([fact("R", 1, "a")])  # unfrozen
        assert first == second and hash(first) == hash(second)
        assert first == third and hash(first) == hash(third)
        assert {first: "x"}[second] == "x"

    def test_frozen_database_pickles_with_stable_digest(self):
        database = Database([fact("R", 1, "a"), fact("S", 2, "b")]).freeze()
        clone = pickle.loads(pickle.dumps(database))
        assert clone.is_frozen
        assert clone.content_digest() == database.content_digest()
        assert clone == database

    def test_digest_golden_values(self, employee_db):
        """Lineage records, store keys and update reports persist these hex
        values, so the token format and the fact order must never move."""
        assert employee_db.content_digest() == (
            "1c8fb3e8442611132bb3f3e92aff42078810dc113fbb27132f6b0e01717d0e16"
        )
        updated = employee_db.freeze().apply_delta(
            Delta(
                inserted=[fact("Employee", 3, "Eve", "HR"), fact("Employee", 2, "Alice", "HR")],
                deleted=[fact("Employee", 1, "Bob", "IT")],
            )
        )
        assert updated.content_digest() == (
            "12074c5d822257a3b03eb4fe346de7af18caf5322f498f9618912161a79510ab"
        )

    def test_pickles_carry_no_canonical_order(self, employee_db):
        shipped = pickle.loads(pickle.dumps(employee_db.freeze()))
        payload = pickle.dumps(shipped)
        assert shipped.sorted_facts() == employee_db.sorted_facts()
        assert pickle.dumps(shipped) == payload  # the rebuilt order stays home


class TestApplyDelta:
    def test_result_is_frozen_and_source_untouched(self, employee_db):
        employee_db.freeze()
        delta = Delta(
            inserted=[fact("Employee", 3, "Eve", "IT")],
            deleted=[fact("Employee", 2, "Tim", "IT")],
        )
        updated = employee_db.apply_delta(delta)
        assert updated.is_frozen
        assert len(employee_db) == 4 and len(updated) == 4
        assert fact("Employee", 3, "Eve", "IT") in updated
        assert fact("Employee", 2, "Tim", "IT") not in updated

    def test_matches_manual_rebuild(self, employee_db):
        delta = Delta(
            inserted=[fact("Employee", 7, "Gil", "HR")],
            deleted=[fact("Employee", 1, "Bob", "IT")],
        )
        updated = employee_db.freeze().apply_delta(delta)
        expected = (set(employee_db.facts()) - set(delta.deleted)) | set(delta.inserted)
        assert updated.facts() == frozenset(expected)
        assert updated.content_digest() == Database(expected).content_digest()

    def test_unfrozen_source_is_supported_and_stays_mutable(self):
        database = Database([fact("R", 1, "a")])
        updated = database.apply_delta(Delta(inserted=[fact("R", 2, "b")]))
        assert updated.is_frozen and not database.is_frozen
        database.add(fact("R", 3, "c"))  # source still mutable
        assert fact("R", 3, "c") not in updated

    def test_snapshot_schema_is_isolated_from_a_mutable_source(self):
        # Regression: the snapshot must not share the schema of an unfrozen
        # source — later source mutations would change the frozen
        # snapshot's validation behaviour behind its back.
        database = Database([fact("R", 1, "a")])
        snapshot = database.apply_delta(Delta(inserted=[fact("R", 2, "b")]))
        database.add(fact("S", 1, 2))  # extends the *source's* schema only
        assert "S" not in snapshot.schema
        follow_up = snapshot.apply_delta(Delta(inserted=[fact("S", 9)]))
        assert fact("S", 9) in follow_up  # arity inferred fresh, not from source

    def test_new_relation_extends_a_schema_copy(self):
        database = Database([fact("R", 1, "a")]).freeze()
        updated = database.apply_delta(Delta(inserted=[fact("T", 9)]))
        assert "T" in updated.schema
        assert "T" not in database.schema

    def test_given_schema_rejects_unknown_relations_and_bad_arity(self):
        schema = Schema.from_arities({"R": 2})
        database = Database([fact("R", 1, "a")], schema=schema).freeze()
        with pytest.raises(SchemaError, match="not declared"):
            database.apply_delta(Delta(inserted=[fact("T", 9)]))
        with pytest.raises(SchemaError):
            database.apply_delta(Delta(inserted=[fact("R", 1, "a", "extra")]))

    def test_empty_delta_preserves_digest(self, employee_db):
        employee_db.freeze()
        updated = employee_db.apply_delta(Delta())
        assert updated.content_digest() == employee_db.content_digest()
        assert updated == employee_db


class TestIncrementalBlockDecomposition:
    def _keys(self):
        return PrimaryKeySet.from_dict({"R": [1], "S": [1]})

    def _database(self):
        return Database(
            [
                fact("R", 1, "a"),
                fact("R", 1, "b"),
                fact("R", 2, "c"),
                fact("S", 1, "x"),
                fact("S", 2, "y"),
                fact("S", 2, "z"),
            ]
        ).freeze()

    def _check(self, delta):
        database = self._database()
        keys = self._keys()
        decomposition = BlockDecomposition(database, keys)
        updated = database.apply_delta(delta)
        incremental = decomposition.apply_delta(delta, database=updated)
        full = BlockDecomposition(updated, keys)
        assert incremental.blocks == full.blocks
        assert incremental.database is updated
        assert incremental.total_repairs() == full.total_repairs()
        for block in incremental:
            for item in block:
                assert incremental.block_of(item) == full.block_of(item)
        return incremental

    def test_grow_existing_block(self):
        self._check(Delta(inserted=[fact("R", 2, "d")]))

    def test_shrink_existing_block(self):
        self._check(Delta(deleted=[fact("R", 1, "b")]))

    def test_remove_whole_block(self):
        incremental = self._check(Delta(deleted=[fact("R", 2, "c")]))
        assert incremental.index_for_key(("R", (2,))) is None

    def test_add_new_block_in_the_middle_of_the_order(self):
        incremental = self._check(Delta(inserted=[fact("R", 0, "early")]))
        assert incremental.index_for_key(("R", (0,))) == 0

    def test_mixed_multi_relation_delta(self):
        self._check(
            Delta(
                inserted=[fact("R", 9, "new"), fact("S", 2, "w")],
                deleted=[fact("S", 1, "x"), fact("R", 1, "a")],
            )
        )

    def test_delta_applies_derived_database_when_not_given(self):
        database = self._database()
        keys = self._keys()
        decomposition = BlockDecomposition(database, keys)
        delta = Delta(inserted=[fact("S", 3, "q")])
        incremental = decomposition.apply_delta(delta)
        assert incremental.database == database.apply_delta(delta)

    def test_empty_delta_reuses_every_block(self):
        database = self._database()
        decomposition = BlockDecomposition(database, self._keys())
        incremental = decomposition.apply_delta(Delta())
        assert incremental.blocks == decomposition.blocks

    def test_untouched_block_objects_are_shared_not_rebuilt(self):
        database = self._database()
        decomposition = BlockDecomposition(database, self._keys())
        delta = Delta(inserted=[fact("S", 3, "q")])
        incremental = decomposition.apply_delta(delta)
        for block in decomposition:
            assert incremental.block_for_key(block.key_value) is block
