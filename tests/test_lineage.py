"""Tests for snapshot lineage (``repro.db.lineage``).

What is pinned here:

* record and chain validation reject malformed histories loudly;
* ``resolve`` handles digests, unique prefixes and negative chain
  indices, and rejects unknown/ambiguous/out-of-range references;
* ``materialise`` replays recorded effective deltas forwards *and*
  backwards (``Delta.inverse``), finds paths across rollbacks, verifies
  the result against the recorded content digest, and refuses corrupt or
  disconnected histories instead of fabricating data;
* a priced checkpoint load (``load_cost``) makes ``materialise`` and
  ``materialise_range`` replay from the provided database when that is
  cheaper, and ``replay_distance`` reports the route ``materialise``
  takes.
"""

import pytest

from repro.db import Database, Delta, Lineage, LineageRecord, fact
from repro.errors import LineageError

_KEYS_DIGEST = "k" * 64


def _record(sequence, digest, parent=None, kind="register", delta=None):
    return LineageRecord(
        name="live",
        sequence=sequence,
        digest=digest,
        keys_digest=_KEYS_DIGEST,
        parent_digest=parent,
        kind=kind,
        delta=delta,
        wall_time=float(sequence),
    )


def _chain_of(*databases_and_deltas):
    """Build (databases, lineage) from a root database and deltas."""
    root, *deltas = databases_and_deltas
    databases = [root]
    records = [_record(0, root.content_digest())]
    for sequence, delta in enumerate(deltas, start=1):
        inserted, deleted = delta.effective_against(databases[-1])
        effective = Delta(inserted=inserted, deleted=deleted)
        nxt = databases[-1].apply_delta(effective)
        records.append(
            _record(
                sequence,
                nxt.content_digest(),
                parent=databases[-1].content_digest(),
                kind="delta",
                delta=effective,
            )
        )
        databases.append(nxt)
    return databases, Lineage("live", tuple(records))


def _three_version_chain():
    root = Database([fact("R", 1, "a"), fact("R", 2, "b")]).freeze()
    return _chain_of(
        root,
        Delta(inserted=[fact("R", 3, "c")]),
        Delta(deleted=[fact("R", 1, "a")], inserted=[fact("R", 4, "d")]),
    )


class TestValidation:
    def test_delta_records_need_delta_and_parent(self):
        with pytest.raises(LineageError, match="delta record"):
            _record(0, "a" * 64, kind="delta")
        with pytest.raises(LineageError, match="must not carry"):
            _record(0, "a" * 64, kind="register", delta=Delta())

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(LineageError, match="kind"):
            _record(0, "a" * 64, kind="time-machine")

    def test_chain_must_be_contiguous_and_single_name(self):
        with pytest.raises(LineageError, match="contiguous"):
            Lineage("live", (_record(1, "a" * 64),))
        record = LineageRecord(
            "other", 0, "a" * 64, _KEYS_DIGEST, None, "register", None, 0.0
        )
        with pytest.raises(LineageError, match="cannot join"):
            Lineage("live", (record,))

    def test_append_returns_a_new_chain(self):
        chain = Lineage("live").append(_record(0, "a" * 64))
        longer = chain.append(
            _record(1, "b" * 64, parent="a" * 64, kind="delta", delta=Delta(
                inserted=[fact("R", 1, "x")]))
        )
        assert len(chain) == 1 and len(longer) == 2
        assert longer.head.sequence == 1

    def test_record_json_shape(self):
        payload = _record(
            2,
            "a" * 64,
            parent="b" * 64,
            kind="delta",
            delta=Delta(inserted=[fact("R", 1, "x")]),
        ).to_json()
        assert payload["sequence"] == 2
        assert payload["kind"] == "delta"
        assert (payload["inserted"], payload["deleted"]) == (1, 0)


class TestResolve:
    def test_by_digest_prefix_and_chain_index(self):
        databases, chain = _three_version_chain()
        digests = [database.content_digest() for database in databases]
        assert chain.resolve(digests[1]).sequence == 1
        assert chain.resolve(digests[0][:12]).sequence == 0
        assert chain.resolve(0).digest == digests[2]  # the head
        assert chain.resolve(-2).digest == digests[0]  # two versions ago

    def test_rejects_bad_references(self):
        _, chain = _three_version_chain()
        with pytest.raises(LineageError, match="no recorded snapshot"):
            chain.resolve("f" * 64)
        with pytest.raises(LineageError, match="at least 8 hex"):
            chain.resolve("abc")
        with pytest.raises(LineageError, match="cannot go back"):
            chain.resolve(-99)
        with pytest.raises(LineageError, match="must be <= 0"):
            chain.resolve(3)
        with pytest.raises(LineageError, match="digest or a chain index"):
            chain.resolve(None)
        with pytest.raises(LineageError, match="empty"):
            Lineage("live").resolve(0)

    def test_duplicate_digest_resolves_to_the_latest_record(self):
        databases, chain = _three_version_chain()
        root_digest = databases[0].content_digest()
        rolled = chain.append(
            _record(
                3,
                root_digest,
                parent=databases[2].content_digest(),
                kind="rollback",
            )
        )
        assert rolled.resolve(root_digest).sequence == 3

    def test_ambiguous_prefix_is_rejected(self):
        first = _record(0, "ab" * 32)
        second = _record(
            1,
            "ab" * 4 + "c" * 56,  # shares the first 8 characters
            parent="ab" * 32,
            kind="delta",
            delta=Delta(inserted=[fact("R", 1, "x")]),
        )
        chain = Lineage("live", (first, second))
        with pytest.raises(LineageError, match="ambiguous"):
            chain.resolve("ab" * 4)


class TestMaterialise:
    def test_backwards_from_the_head(self):
        databases, chain = _three_version_chain()
        head = databases[-1]
        for ancestor in databases[:-1]:
            replayed = chain.materialise(head, ancestor.content_digest())
            assert replayed == ancestor
            assert replayed.content_digest() == ancestor.content_digest()

    def test_forwards_from_the_root(self):
        databases, chain = _three_version_chain()
        replayed = chain.materialise(
            databases[0], databases[-1].content_digest()
        )
        assert replayed == databases[-1]

    def test_across_a_rollback_record(self):
        databases, chain = _three_version_chain()
        root, middle, head = databases
        rolled = chain.append(
            _record(
                3,
                root.content_digest(),
                parent=head.content_digest(),
                kind="rollback",
            )
        )
        # The post-rollback head *is* the root state; middle and old head
        # are still reachable through the recorded delta edges.
        assert rolled.materialise(root, middle.content_digest()) == middle
        assert rolled.materialise(root, head.content_digest()) == head

    def test_same_digest_is_identity(self):
        databases, chain = _three_version_chain()
        assert (
            chain.materialise(databases[0], databases[0].content_digest())
            is databases[0]
        )

    def test_disconnected_roots_refuse_to_replay(self):
        databases, chain = _three_version_chain()
        stranger = Database([fact("S", 1, "zzz")]).freeze()
        rerooted = chain.append(
            _record(3, stranger.content_digest(), kind="register")
        )
        with pytest.raises(LineageError, match="no recorded delta chain"):
            rerooted.materialise(stranger, databases[0].content_digest())

    def test_corrupt_chain_fails_the_digest_check(self):
        databases, chain = _three_version_chain()
        records = list(chain.records)
        # Corrupt the recorded delta of step 1 (wrong inserted fact): BFS
        # still finds the "path", but the replay cannot reproduce the
        # recorded digest and must refuse.
        bad = Delta(inserted=[fact("R", 3, "WRONG")])
        records[1] = LineageRecord(
            "live",
            1,
            records[1].digest,
            _KEYS_DIGEST,
            records[1].parent_digest,
            "delta",
            bad,
            1.0,
        )
        corrupt = Lineage("live", tuple(records))
        with pytest.raises(LineageError, match="corrupt"):
            corrupt.materialise(databases[0], databases[1].content_digest())


class TestLoadCost:
    def _chain(self):
        root = Database([fact("R", 0, "a")]).freeze()
        return _chain_of(
            root, *(Delta(inserted=[fact("R", step, "b")]) for step in range(1, 7))
        )

    def test_priced_loads_pick_the_cheaper_source(self):
        databases, chain = self._chain()
        head, target = databases[-1], databases[1].content_digest()
        loads = []

        def load_root():
            loads.append(1)
            return databases[0]

        checkpoints = {databases[0].content_digest(): load_root}
        # The checkpoint is 1 delta away, the head 5: free loads take it.
        assert chain.replay_distance(head.content_digest(), target, checkpoints) == 1
        # Priced at 5 deltas, a load costs 6 against the head's 5.
        assert (
            chain.replay_distance(
                head.content_digest(), target, checkpoints, load_cost=5.0
            )
            == 5
        )

        def single(load_cost=0.0):
            return chain.materialise(head, target, checkpoints, load_cost=load_cost)

        def ranged(load_cost=0.0):
            return dict(
                chain.materialise_range(
                    head, [target], checkpoints, load_cost=load_cost
                )
            )[target]

        for resolve in (single, ranged):
            loads.clear()
            assert resolve() == databases[1]
            assert len(loads) == 1
            assert resolve(load_cost=5.0) == databases[1]
            assert len(loads) == 1
            # At an equal cost the provided database wins the tie.
            resolve(load_cost=4.0)
            assert len(loads) == 1
            resolve(load_cost=3.5)
            assert len(loads) == 2
