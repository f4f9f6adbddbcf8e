"""Persisted full-database snapshots: the checkpoint payloads.

The caches (:mod:`repro.store.caches`) persist *derived* state — selector
preparations and block decompositions.  Checkpoint compaction needs one
more kind of entry: the **database itself**, stored whole, so that
:meth:`~repro.db.lineage.Lineage.materialise` can start a replay at a
checkpointed chain position instead of at the live head or the chain
origin.

A :class:`SnapshotStore` persists the canonically ordered fact sequence
of a frozen database keyed by its snapshot token, through the same
framed, versioned, checksummed, atomically-published format as every
other store entry (``*.snp`` suffix, ``RSNP`` magic).  Loads are
**digest-verified**: the rebuilt database's ``content_digest`` must equal
the token's database digest, so a damaged or mismatched entry reads as a
miss — replay then falls back to a longer delta walk (cold, never wrong).

Snapshot entries are GC'd like cache entries (age/count bounds, pinned
live tokens exempt); an evicted checkpoint only lengthens future replays.

>>> import tempfile
>>> from repro.db import Database, PrimaryKeySet, fact
>>> db = Database([fact("R", 1, "a"), fact("R", 2, "b")]).freeze()
>>> keys = PrimaryKeySet.from_dict({"R": [1]})
>>> token = (db.content_digest(), keys.content_digest())
>>> store = SnapshotStore(tempfile.mkdtemp())
>>> store.store(token, db)
True
>>> store.load(token) == db
True
>>> store.load(("0" * 64, keys.content_digest())) is None  # unknown token
True
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..db.database import Database
from ..db.facts import Fact
from .caches import ContentAddressedStore

__all__ = ["SnapshotStore"]

#: The snapshot token entry names are rooted in.
SnapshotToken = Tuple[str, str]


class SnapshotStore(ContentAddressedStore):
    """A store of whole-database entries keyed by snapshot token."""

    _MAGIC = b"RSNP"
    _SUFFIX = ".snp"

    def _validate_payload(self, value: object) -> bool:
        return isinstance(value, tuple) and all(
            isinstance(item, Fact) for item in value
        )

    @classmethod
    def _key_material(cls, *key: object) -> Tuple[str, ...]:
        (snapshot_token,) = key
        database_digest, keys_digest = snapshot_token  # type: ignore[misc]
        return (database_digest, keys_digest)

    def contains(self, snapshot_token: SnapshotToken) -> bool:
        """Whether a snapshot entry is present, without rebuilding it.

        A cheap existence probe (no read, no unpickle, no digest): use it
        to decide whether a checkpoint needs re-storing.  A present entry
        may still fail :meth:`load`'s validation — loads stay the
        authority on soundness; a false positive here only delays the
        re-store until the damaged entry is actually read (and demoted).
        """
        return self._backend.exists(self.entry_name(snapshot_token))

    def load(self, snapshot_token: SnapshotToken) -> Optional[Database]:
        """Rebuild the stored database, or ``None`` on miss/mismatch.

        The rebuilt database is frozen (checkpoints are snapshots) and
        digest-verified against the token before it is returned; an entry
        whose content does not hash to its own key is corruption and is
        deleted best-effort, exactly like an undecodable one.
        """
        name = self.entry_name(snapshot_token)
        facts = self._load_entry(name)
        if facts is None:
            return None
        database = Database(facts).freeze()  # type: ignore[arg-type]
        if database.content_digest() != snapshot_token[0]:
            self.corrupt += 1
            self.loads -= 1  # it never really loaded
            self.misses += 1
            self._backend.delete(name)
            return None
        return database

    def store(self, snapshot_token: SnapshotToken, database: Database) -> bool:
        """Persist one database's facts atomically; False on I/O failure."""
        return self._store_entry(
            self.entry_name(snapshot_token), tuple(database.sorted_facts())
        )

    def entry_bytes(self, snapshot_token: SnapshotToken) -> Optional[int]:
        """The stored byte size of one snapshot entry (``None`` if absent).

        Feeds the adaptive checkpoint policy's byte estimates: pricing a
        prospective checkpoint needs to know what comparable snapshots of
        the same name actually cost on disk.
        """
        return self._backend.size(self.entry_name(snapshot_token))

    def discard(self, snapshot_token: SnapshotToken) -> bool:
        """Delete one snapshot entry (checkpoint demotion); True iff removed.

        Dropping an entry can only lengthen future replays, never break
        them: replay falls back to the next closest source exactly as it
        does for an entry lost to GC or corruption.
        """
        return self._backend.delete(self.entry_name(snapshot_token))
