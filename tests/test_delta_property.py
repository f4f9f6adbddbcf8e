"""Randomized delta property suite.

For 50 seeded (database, delta) pairs the incremental paths must be
indistinguishable from recomputation:

* ``BlockDecomposition.apply_delta`` equals a full rebuild of the updated
  database's decomposition, block for block;
* the updated snapshot's spliced canonical order and digest equal a
  rebuild's, and stay equal through a second delta, applied both to the
  snapshot and to a pickled copy that has to rebuild its order;
* a warm ``SolverPool`` that took the delta via ``apply_delta`` returns
  counts bit-identical to a fresh sequential ``CQASolver`` over the updated
  database — regardless of which selector entries were dropped, migrated
  or recomputed along the way.

And for 50 seeded randomized *update streams*, the lineage the pool
records must be a faithful replay log:

* materialising the head from the root database along the recorded chain
  reproduces the head's ``content_digest`` exactly (and vice versa, root
  from head via inverse deltas) — the property time-travel queries and
  ``repro rollback`` stand on.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core import CQASolver
from repro.db import BlockDecomposition, Database, Delta, Fact
from repro.engine import CountJob, SolverPool
from repro.query import parse_query
from repro.workloads import InconsistentDatabaseSpec, random_inconsistent_database

_RELATIONS = {"R": 3, "S": 3}

#: One Boolean query per relation plus one cross-relation join, so every
#: delta exercises dropped entries (touched relation), migrated entries
#: (untouched relation) and the join in between.
_QUERIES = (
    "EXISTS x, y. R(x, 'v1', y)",
    "EXISTS x, y. S(x, 'v2', y)",
    "EXISTS x, y, z, w. (R(x, 'v1', y) AND S(z, 'v2', w))",
)


def _random_pair(seed: int):
    """One seeded (database, delta) pair over the shared R/S schema."""
    rng = random.Random(seed)
    spec = InconsistentDatabaseSpec(
        relations=_RELATIONS,
        blocks_per_relation=rng.randint(3, 7),
        conflict_rate=0.6,
        max_block_size=3,
        domain_size=6,
    )
    database, keys = random_inconsistent_database(spec, seed=rng.randrange(2**16))
    database.freeze()
    return database, keys, _random_delta(rng, database)


def _random_delta(rng: random.Random, database: Database) -> Delta:
    """A delta of up to 4 deletions and 4 insertions (some into blocks)."""
    facts = database.sorted_facts()
    deleted = rng.sample(facts, k=min(len(facts), rng.randint(0, 4)))
    inserted = []
    for _ in range(rng.randint(0, 4)):
        relation = rng.choice(sorted(_RELATIONS))
        if rng.random() < 0.5 and facts:
            key_token = rng.choice(facts).arguments[0]  # may grow a block
        else:
            key_token = f"{relation.lower()}_extra_{rng.randrange(50)}"
        candidate = Fact(
            relation,
            (key_token,) + tuple(f"v{rng.randrange(6)}" for _ in range(2)),
        )
        if candidate not in deleted:
            inserted.append(candidate)
    return Delta(inserted=inserted, deleted=deleted)


@pytest.mark.parametrize("seed", range(50))
def test_incremental_update_equals_recomputation(seed):
    database, keys, delta = _random_pair(seed)

    # Property 1: incremental block maintenance == full rebuild.
    decomposition = BlockDecomposition(database, keys)
    updated = database.apply_delta(delta)
    incremental = decomposition.apply_delta(delta, database=updated)
    full = BlockDecomposition(updated, keys)
    assert incremental.blocks == full.blocks

    # The spliced canonical order and digest equal a rebuild's, also one
    # delta later, whether the snapshot carried its order or lost it to a
    # pickle round trip.
    rebuilt = Database(updated.facts())
    assert updated.content_digest() == rebuilt.content_digest()
    assert updated.sorted_facts() == rebuilt.sorted_facts()
    second = _random_delta(random.Random(1_000 + seed), updated)
    expected = Database(
        (updated.facts() - set(second.deleted)) | set(second.inserted)
    ).content_digest()
    assert updated.apply_delta(second).content_digest() == expected
    shipped = pickle.loads(pickle.dumps(updated))
    assert shipped.apply_delta(second).content_digest() == expected

    # Property 2: post-delta pool counts == a fresh sequential solver's.
    pool = SolverPool()
    pool.register("live", database, keys)
    jobs = [CountJob(database="live", query=query) for query in _QUERIES]
    pool.run(jobs)  # warm every cache layer against the pre-delta snapshot
    pool.apply_delta("live", delta)
    report = pool.run(jobs)

    solver = CQASolver(Database(updated.facts()), keys)
    for job, result in zip(jobs, report.results):
        expected = solver.count(parse_query(job.query))
        assert (result.satisfying, result.total) == (
            expected.satisfying,
            expected.total,
        ), f"seed {seed}, query {job.query!r}: pool diverged from fresh solver"


@pytest.mark.parametrize("seed", range(50))
def test_recorded_lineage_replays_root_to_head(seed):
    """The recorded chain of a random update stream is a faithful log."""
    rng = random.Random(10_000 + seed)
    spec = InconsistentDatabaseSpec(
        relations=_RELATIONS,
        blocks_per_relation=rng.randint(3, 7),
        conflict_rate=0.6,
        max_block_size=3,
        domain_size=6,
    )
    root, keys = random_inconsistent_database(spec, seed=rng.randrange(2**16))
    root.freeze()

    pool = SolverPool()
    pool.register("live", root, keys)
    for _ in range(rng.randint(1, 5)):
        _, _, delta = _random_pair(rng.randrange(2**16))
        # The generated delta was drawn against another instance, so parts
        # of it may be no-ops here — exactly what exercises the
        # effective-core recording.
        current, _ = pool.lookup("live")
        inserted, deleted = delta.effective_against(current)
        if not inserted and not deleted:
            continue
        pool.apply_delta("live", delta)

    chain = pool.lineage("live")
    head, _ = pool.lookup("live")
    head_digest = head.content_digest()
    assert chain.head.digest == head_digest

    # Forward: root database + recorded deltas => the head, bit for bit.
    replayed_head = chain.materialise(Database(root.facts()), head_digest)
    assert replayed_head.content_digest() == head_digest
    assert replayed_head == head

    # Backward: head database + inverse deltas => the root, bit for bit.
    replayed_root = chain.materialise(head, root.content_digest())
    assert replayed_root.content_digest() == root.content_digest()
    assert replayed_root == root
