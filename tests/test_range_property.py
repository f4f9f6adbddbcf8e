"""Randomized property suite: shared range replay ≡ independent replays.

Satellite of the range-materialisation PR: over ≥50 randomly generated
lineage chains — random effective deltas, interspersed rollback records,
random checkpoint placements, randomly *missing* checkpoint snapshots,
and randomly *compacted* delta records below a surviving checkpoint —
:meth:`Lineage.materialise_range` must be

* **bit-identical** to N independent :meth:`Lineage.materialise` calls
  for the same targets (same digests, equal databases),
* **accounted**: the deltas the walk reports per target (``replayed``)
  add up to the delta applications it made, and
* **never more expensive**: the priced cost of the one shared walk —
  its delta applications plus ``load_cost`` per successful checkpoint
  load — is at most the sum the independent calls pay, with loads free
  (``load_cost`` 0.0, so the cost is the delta count) and priced.  Once
  loads are priced, a shared walk may apply more raw deltas than the
  independent calls to save a load.

Targets are every digest still reachable in the surviving delta graph
(compaction removes edges on purpose; unreachable ancestors fail loudly
on both paths and are excluded here), so a wrong replay-tree union, a
bad tie-break among entry points, a stale in-memory seed or a lost
checkpoint mishandled mid-walk would show up as a digest mismatch, an
inequality or a cost regression in this suite.
"""

import random
from collections import deque

import pytest

from repro.db import Database, Delta, Lineage, LineageRecord, fact

_RELATIONS = ("R", "S")
_CHAINS = 60
_KEYS_DIGEST = "k" * 64


def _random_fact(rng):
    relation = rng.choice(_RELATIONS)
    return fact(relation, rng.randrange(12), f"v{rng.randrange(6)}")


def _random_effective_delta(rng, database):
    """A non-empty delta whose inserted/deleted sets are exactly effective."""
    for _ in range(32):
        present = sorted(database.facts())
        inserted = {
            item
            for item in (_random_fact(rng) for _ in range(rng.randint(1, 4)))
            if item not in database.facts()
        }
        deleted = set()
        if present and rng.random() < 0.6:
            deleted = set(rng.sample(present, k=rng.randint(1, min(3, len(present)))))
        if inserted or deleted:
            return Delta(inserted=sorted(inserted), deleted=sorted(deleted))
    raise AssertionError("could not generate an effective delta")


def _random_chain(seed):
    """A random lineage with deltas and rollbacks, plus its state table."""
    rng = random.Random(seed)
    database = Database(
        [_random_fact(rng) for _ in range(rng.randint(2, 8))]
    ).freeze()
    states = {database.content_digest(): database}
    chain = Lineage("live").append(
        LineageRecord(
            "live", 0, database.content_digest(), _KEYS_DIGEST, None,
            "register", None, 0.0,
        )
    )
    head = database
    for _ in range(rng.randint(4, 14)):
        if len(chain) > 2 and rng.random() < 0.15:
            # A rollback: the head jumps to a random earlier digest.
            target = rng.choice(chain.records[:-1]).digest
            head = states[target]
            chain = chain.append(
                LineageRecord(
                    "live", len(chain), target, _KEYS_DIGEST,
                    chain.head.digest, "rollback", None, 0.0,
                )
            )
            continue
        delta = _random_effective_delta(rng, head)
        previous = head
        head = head.apply_delta(delta).freeze()
        chain = chain.append(
            LineageRecord(
                "live", len(chain), head.content_digest(), _KEYS_DIGEST,
                previous.content_digest(), "delta", delta, 0.0,
            )
        )
        states[head.content_digest()] = head
    return chain, states, head, rng


def _random_loaders(rng, states):
    """Checkpoint loaders over a random subset of states; some are 'lost'."""
    digests = sorted(states)
    chosen = rng.sample(digests, k=rng.randint(0, len(digests)))
    loaders = {}
    lost = set()
    for digest in chosen:
        if rng.random() < 0.25:
            # A checkpoint whose snapshot entry is missing/corrupt: the
            # loader yields None and replay must fall back gracefully.
            loaders[digest] = lambda: None
            lost.add(digest)
        else:
            snapshot = states[digest]
            loaders[digest] = lambda snapshot=snapshot: Database(snapshot.facts())
    return loaders, lost


def _maybe_compact(rng, chain, loaders, lost):
    """Sometimes release delta payloads covered by a *surviving* checkpoint.

    Mirrors :meth:`LineageService.compact`: every ``"delta"`` record at
    or below the anchor checkpoint's sequence loses its payload, so the
    digests below it stay materialisable only through checkpoints.
    """
    good = sorted(digest for digest in loaders if digest not in lost)
    if not good or rng.random() < 0.5:
        return chain
    anchor = rng.choice(good)
    horizon = max(
        (record.sequence for record in chain.records if record.digest == anchor),
        default=None,
    )
    if horizon is None:
        return chain
    records = tuple(
        record.compact()
        if record.sequence <= horizon
        and record.kind == "delta"
        and record.delta is not None
        else record
        for record in chain.records
    )
    return Lineage("live", records)


def _reachable(chain, loaders, lost, head_digest):
    """Digests connected to the head or a surviving checkpoint.

    Rebuilds the surviving (uncompacted) delta graph independently of
    the implementation's memoised adjacency, then floods from exactly
    the entry points replay is allowed to use.
    """
    edges = {}
    for record in chain.records:
        if record.kind != "delta" or record.delta is None:
            continue
        edges.setdefault(record.parent_digest, set()).add(record.digest)
        edges.setdefault(record.digest, set()).add(record.parent_digest)
    seeds = {head_digest} | {digest for digest in loaders if digest not in lost}
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        digest = queue.popleft()
        for neighbour in edges.get(digest, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


def _counting_apply_delta(monkeypatch):
    """Patch ``Database.apply_delta`` to tally every delta application."""
    counter = {"applied": 0}
    original = Database.apply_delta

    def counted(self, delta):
        counter["applied"] += 1
        return original(self, delta)

    monkeypatch.setattr(Database, "apply_delta", counted)
    return counter


def _counting_loads(loaders, counter):
    """Wrap checkpoint loaders to tally every load that returns a snapshot."""

    def counted(loader):
        def load():
            snapshot = loader()
            counter["loaded"] += snapshot is not None
            return snapshot

        return load

    return {digest: counted(loader) for digest, loader in loaders.items()}


@pytest.mark.parametrize("seed", range(_CHAINS))
def test_range_materialisation_is_bit_identical_to_independent(seed, monkeypatch):
    chain, states, head, rng = _random_chain(seed)
    loaders, lost = _random_loaders(rng, states)
    chain = _maybe_compact(rng, chain, loaders, lost)
    head_digest = head.content_digest()
    targets = sorted(
        digest
        for digest in states
        if digest in _reachable(chain, loaders, lost, head_digest)
    )
    rng.shuffle(targets)
    assert targets, "every chain keeps at least its head reachable"

    counter = _counting_apply_delta(monkeypatch)
    loaders = _counting_loads(loaders, counter)
    for load_cost in (0.0, 2.5):
        counter["applied"] = counter["loaded"] = 0
        independent = {}
        for digest in targets:
            independent[digest] = chain.materialise(
                head, digest, checkpoints=loaders, load_cost=load_cost
            )
        independent_cost = counter["applied"] + load_cost * counter["loaded"]

        counter["applied"] = counter["loaded"] = 0
        replayed = {}
        shared = dict(
            chain.materialise_range(
                head,
                targets,
                checkpoints=loaders,
                load_cost=load_cost,
                replayed=replayed,
            )
        )
        range_cost = counter["applied"] + load_cost * counter["loaded"]
        # The walk reports every delta it applied, each against one target.
        assert sorted(replayed) == sorted(shared)
        assert sum(replayed.values()) == counter["applied"]

        assert sorted(shared) == sorted(independent)
        for digest in targets:
            assert shared[digest].content_digest() == digest
            assert shared[digest] == independent[digest] == states[digest]
        # The cost model: one shared walk never costs more than the
        # independent replays it replaces.
        assert range_cost <= independent_cost


@pytest.mark.parametrize("seed", range(0, _CHAINS, 7))
def test_range_collapses_duplicates_and_handles_head_target(seed, monkeypatch):
    chain, states, head, rng = _random_chain(seed)
    loaders, lost = _random_loaders(rng, states)
    head_digest = head.content_digest()
    reachable = _reachable(chain, loaders, lost, head_digest)
    targets = sorted(digest for digest in states if digest in reachable)
    # Duplicates (and the head itself) must each resolve exactly once.
    request = targets + targets[:2] + [head_digest]
    produced = list(chain.materialise_range(head, request, checkpoints=loaders))
    digests = [digest for digest, _ in produced]
    assert len(digests) == len(set(digests))
    assert set(digests) == set(request)
    for digest, database in produced:
        assert database.content_digest() == digest
        assert database == states[digest]
