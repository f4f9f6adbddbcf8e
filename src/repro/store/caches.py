"""The persistent caches: content-addressed, versioned, crash-safe, GC'd.

Two cache layers of the engine are pure functions of content-addressed
inputs, which makes them safe to persist across process restarts:

* the **selector** layer (:class:`SelectorDiskCache`) — the
  :class:`~repro.repairs.counting.PreparedCertificates` of a
  ``(database digest, keys digest, query text, answer)`` key, the most
  expensive per-query state;
* the **decomposition** layer (:class:`DecompositionDiskCache`) — the
  block structure of a ``(database digest, keys digest)`` snapshot, which
  dominates *cold registration* of huge databases.

A pool pointed at the same store answers an unchanged workload after a
restart with **zero** selector *and* decomposition recomputations — and,
with the snapshot catalog alongside (:mod:`repro.store.catalog`), answers
*historical* (``as_of``) queries against any snapshot whose entries are
still stored without recomputing either.

Design notes
------------
* **Backends** — all physical I/O goes through a
  :class:`~repro.store.backend.StoreBackend` (filesystem in production,
  in-memory for tests); the cache classes only ever see named immutable
  blobs.
* **Keying** — the entry name is ``<token prefix>-<content hash><suffix>``:
  a 16-hex prefix identifying the snapshot token, then the SHA-256 of the
  full key material (format version plus the content-addressed inputs).
  Nothing is trusted from the name at load time beyond locating the
  entry; content hashes do the addressing.  The prefix exists so that GC
  can recognise — from names alone — which entries belong to which
  snapshot.
* **Versioning / corruption tolerance / crash safety** — entries use the
  shared framed format of :mod:`repro.store.format`: a version gate (skewed
  entries are misses, never errors), a payload checksum (truncated or
  bit-flipped entries are counted, deleted best-effort and reported as
  misses) and atomic publication (a crash mid-write leaves the old entry
  or none, never a torn one).  A damaged store can make counts *cold*,
  never *wrong*.
* **Write-once publication** — a ``.sel``, ``.dec`` or ``.snp`` name
  hashes every input of its payload, so an entry already present holds
  what a store would write: storing it again writes nothing and only
  refreshes its recency.  A damaged entry is deleted when a load finds
  it, and the next store publishes it afresh.  The ``.cal`` table of a
  ``(token, method)`` grows with every observation, so
  :class:`CalibrationDiskCache` replaces its entry on each store.
* **Garbage collection** — :meth:`collect_garbage` bounds the store by
  entry *age* and entry *count*.  Loading an entry refreshes its recency,
  so count-bounded eviction drops the least-recently-*used* entries.
  Entries of **pinned** snapshot tokens (the live snapshots of a pool's
  registered names — its lineage heads) are never evicted, so GC can never
  force recomputation of active state; eviction only ever removes whole
  entries, so survivors are untouched and an evicted entry is a future
  miss, never an error.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..db.blocks import Block, BlockDecomposition
from ..db.constraints import PrimaryKeySet
from ..db.database import Database
from ..db.facts import Constant
from ..repairs.counting import PreparedCertificates
from .backend import StoreBackend, as_backend
from .format import FORMAT_VERSION, decode_entry, encode_entry, token_prefix
from .tuning import DecayedCounter

__all__ = [
    "ContentAddressedStore",
    "SelectorDiskCache",
    "DecompositionDiskCache",
    "CalibrationDiskCache",
]

#: The snapshot token entry names are rooted in.
SnapshotToken = Tuple[str, str]

#: With GC bounds configured, re-check them after this many stores so a
#: long-lived process cannot grow the store unboundedly between explicit
#: :meth:`collect_garbage` calls.
_COLLECT_EVERY = 64


def _type_tagged(values: Sequence[Constant]) -> str:
    return "\x1e".join(f"{type(value).__name__}:{value!r}" for value in values)


class ContentAddressedStore:
    """Shared machinery of the persistent caches (see the module docstring).

    Subclasses fix the four-byte ``_MAGIC``, the entry ``_SUFFIX``, the
    key-material hook and the payload validation hook; this base provides
    atomic stores, checksum verification, lifetime counters, token
    pinning and age/count-bounded garbage collection.  Thread-unsafe by
    design (the pool is single-threaded per process); multi-process safe
    in the usual "last atomic write wins" sense, which is correct here
    because every writer computes the same pure function.
    """

    _MAGIC: bytes = b"????"
    _SUFFIX: str = ".bin"
    #: Whether an entry's name fixes its payload (see "Write-once
    #: publication" in the module docstring); False for kinds whose
    #: payload under one name changes.
    _WRITE_ONCE: bool = True

    def __init__(
        self,
        store: Union[str, Path, StoreBackend],
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        collect_on_init: bool = True,
        clock: Callable[[], float] = time.time,
        hit_half_life: float = 600.0,
    ) -> None:
        self._backend = as_backend(store)
        self._max_entries = max_entries
        self._max_age_seconds = max_age_seconds
        self._stores_since_collect = 0
        self._pinned: Set[str] = set()
        #: The clock every age/recency decision reads — injectable so GC
        #: horizons and decayed hit rates are deterministically testable.
        self._clock = clock
        self._decayed_hits = DecayedCounter(half_life=hit_half_life, clock=clock)
        self.loads = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.gc_evictions = 0
        # ``collect_on_init=False`` lets owners that pin tokens (the pool)
        # defer the startup collection until the pins are known — an
        # eager collection here would run pin-less and could evict the
        # very entries the owner is about to register as live.
        if collect_on_init and self._bounded:
            self.collect_garbage()

    @property
    def backend(self) -> StoreBackend:
        """The backend holding the entries."""
        return self._backend

    @property
    def directory(self) -> Optional[Path]:
        """The backing directory (``None`` for directory-less backends)."""
        return self._backend.directory

    @property
    def _bounded(self) -> bool:
        return self._max_entries is not None or self._max_age_seconds is not None

    # ------------------------------------------------------------------ #
    # keying (one implementation; subclasses only name their material)
    # ------------------------------------------------------------------ #
    @classmethod
    def _key_material(cls, *key: object) -> Tuple[str, ...]:
        """Subclass hook: the content-addressed material of one key."""
        raise NotImplementedError

    @classmethod
    def entry_name(cls, *key: object) -> str:
        """The entry name of one key: token prefix + content hash + suffix.

        The first key element is always the snapshot token; its prefix
        leads the name so GC pinning can work from names alone.
        """
        material = "\x1f".join((f"v{FORMAT_VERSION}",) + cls._key_material(*key))
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return f"{token_prefix(key[0])}-{digest}{cls._SUFFIX}"  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # load / store primitives
    # ------------------------------------------------------------------ #
    def _validate_payload(self, value: object) -> bool:
        """Subclass hook: is this unpickled payload of the expected shape?"""
        raise NotImplementedError

    def _load_entry(self, name: str) -> Optional[object]:
        """Return the validated payload stored under ``name``, or ``None``."""
        blob = self._backend.read(name)
        if blob is None:
            self.misses += 1
            return None
        value = self._decode(blob)
        if value is None:
            self.corrupt += 1
            self.misses += 1
            self._backend.delete(name)  # a corrupt entry is dead weight
            return None
        self.loads += 1
        self._decayed_hits.add()
        # Refresh recency (through the injectable clock) so count- and
        # byte-bounded GC evict cold entries first.
        self._backend.set_mtime(name, self._clock())
        return value

    def _store_entry(self, name: str, payload_value: object) -> bool:
        """Atomically persist a payload; returns False on I/O failure.

        A write-once kind whose entry is present only refreshes its
        recency, so count-bounded GC keeps what is still being stored.
        Persistence failures are deliberately non-fatal: the cache is an
        accelerator, and a full disk must not fail a counting job.
        """
        if self._WRITE_ONCE and self._backend.exists(name):
            self._backend.set_mtime(name, self._clock())
            return True
        try:
            payload = pickle.dumps(payload_value, protocol=pickle.HIGHEST_PROTOCOL)
        except pickle.PicklingError:
            return False
        if not self._backend.write(name, encode_entry(self._MAGIC, payload)):
            return False
        self.stores += 1
        self._stores_since_collect += 1
        if self._bounded and self._stores_since_collect >= _COLLECT_EVERY:
            self.collect_garbage()
        return True

    def _decode(self, blob: bytes) -> Optional[object]:
        """Validate and unpickle an entry; ``None`` for anything unsound."""
        payload = decode_entry(self._MAGIC, blob)
        if payload is None:
            return None
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickling failure is corruption
            return None
        if not self._validate_payload(value):
            return None
        return value

    # ------------------------------------------------------------------ #
    # pinning and garbage collection
    # ------------------------------------------------------------------ #
    def set_pinned_tokens(self, tokens: Iterable[SnapshotToken]) -> None:
        """Declare the snapshot tokens whose entries GC must never evict.

        Pools pin the tokens of their registered names (their lineage
        heads) so :meth:`collect_garbage` — explicit, periodic or
        construction-time — can never force recomputation of *active*
        state.  Replaces the previous pin set.
        """
        self._pinned = {token_prefix(token) for token in tokens}

    def pinned_prefixes(self) -> Tuple[str, ...]:
        """The currently pinned entry-name prefixes (sorted, for tests)."""
        return tuple(sorted(self._pinned))

    def _is_pinned(self, name: str) -> bool:
        return any(name.startswith(prefix) for prefix in self._pinned)

    def collect_garbage(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Evict entries beyond the age/count bounds; return how many.

        ``max_entries`` keeps at most that many entries, evicting the
        least recently used first (recency order; loads refresh recency).
        ``max_age_seconds`` evicts every entry not stored or loaded within
        that window.  Arguments override the bounds configured at
        construction; with neither configured nor passed, nothing is
        evicted.  Entries of pinned tokens (see :meth:`set_pinned_tokens`)
        are exempt from both bounds; eviction removes whole entries only —
        surviving entries are byte-for-byte untouched.
        """
        if max_entries is None:
            max_entries = self._max_entries
        if max_age_seconds is None:
            max_age_seconds = self._max_age_seconds
        self._stores_since_collect = 0
        if max_entries is None and max_age_seconds is None:
            return 0

        entries = sorted(self._backend.entries(self._SUFFIX))  # oldest first
        pinned_count = sum(1 for _, name in entries if self._is_pinned(name))
        candidates = [
            (stamp, name) for stamp, name in entries if not self._is_pinned(name)
        ]

        doomed: List[str] = []
        if max_age_seconds is not None:
            horizon = self._clock() - max_age_seconds
            expired = [entry for entry in candidates if entry[0] < horizon]
            doomed.extend(name for _, name in expired)
            candidates = candidates[len(expired):]
        if max_entries is not None:
            excess = pinned_count + len(candidates) - max_entries
            if excess > 0:
                doomed.extend(name for _, name in candidates[:excess])

        evicted = 0
        for name in doomed:
            if self._backend.delete(name):
                evicted += 1
        self.gc_evictions += evicted
        return evicted

    def collect_bytes(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until at most ``max_bytes`` remain.

        The byte-budget half of garbage collection: entries are dropped
        oldest recency stamp first (loads refresh recency, so survivors
        are the entries actually being hit) until the layer's total byte
        size fits the budget.  Pinned entries are never evicted — and
        still count against the budget, so a budget smaller than the
        pinned footprint simply evicts everything unpinned.  Returns the
        eviction count.
        """
        if max_bytes < 0:
            max_bytes = 0
        entries = sorted(self._backend.entries(self._SUFFIX))  # oldest first
        sizes = {
            name: self._backend.size(name) or 0 for _, name in entries
        }
        total = sum(sizes.values())
        evicted = 0
        for _, name in entries:
            if total <= max_bytes:
                break
            if self._is_pinned(name):
                continue
            if self._backend.delete(name):
                total -= sizes[name]
                evicted += 1
        self.gc_evictions += evicted
        return evicted

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def entry_count(self) -> int:
        """Number of entries currently stored."""
        return len(self._backend.entries(self._SUFFIX))

    def total_bytes(self) -> int:
        """The summed stored byte size of every entry of this kind."""
        return sum(
            self._backend.size(name) or 0
            for _, name in self._backend.entries(self._SUFFIX)
        )

    def decayed_hit_rate(self) -> float:
        """The exponentially decayed hit count (the GC tuner's demand signal)."""
        return self._decayed_hits.value()

    def token_entry_count(self, token: SnapshotToken) -> int:
        """How many stored entries belong to one snapshot token.

        A prefix scan over entry names (every name leads with the token
        prefix, see :meth:`entry_name`); the warm-handoff probe uses it
        to report how much of a migrating snapshot's derived state is
        already on the shared store.
        """
        prefix = f"{token_prefix(token)}-"
        return sum(
            1
            for _, name in self._backend.entries(self._SUFFIX)
            if name.startswith(prefix)
        )

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current entry count.

        ``hits`` counts successful loads (the key existed, decoded and
        validated), ``misses`` everything else, ``stores`` the entries
        written (a store of a write-once entry already present writes
        nothing and is not counted), ``corrupt`` the subset of
        misses caused by undecodable entries, ``gc_evictions`` the
        entries removed by :meth:`collect_garbage`/:meth:`collect_bytes`,
        and ``bytes`` the current stored footprint of this entry kind.
        """
        return {
            "entries": self.entry_count(),
            "bytes": self.total_bytes(),
            "hits": self.loads,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "gc_evictions": self.gc_evictions,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._backend!r}, "
            f"loads={self.loads}, stores={self.stores})"
        )


class SelectorDiskCache(ContentAddressedStore):
    """A store of :class:`PreparedCertificates` entries keyed by content.

    Example — a stored preparation survives a "restart" (a second cache
    instance over the same directory):

    >>> import tempfile
    >>> from repro.db import Database, PrimaryKeySet, fact
    >>> from repro.query import parse_query
    >>> from repro.repairs import prepare_certificates
    >>> db = Database([fact("R", 1, "a"), fact("R", 1, "b")])
    >>> keys = PrimaryKeySet.from_dict({"R": [1]})
    >>> prepared = prepare_certificates(
    ...     db, keys, parse_query("EXISTS x. R(1, x)"), ())
    >>> directory = tempfile.mkdtemp()
    >>> token = (db.content_digest(), keys.content_digest())
    >>> SelectorDiskCache(directory).store(
    ...     token, "EXISTS x. R(1, x)", (), (), prepared)
    True
    >>> restarted = SelectorDiskCache(directory)
    >>> restarted.load(
    ...     token, "EXISTS x. R(1, x)", (), ()).certificate_count
    2
    """

    _MAGIC = b"RSEL"
    _SUFFIX = ".sel"

    def _validate_payload(self, value: object) -> bool:
        return isinstance(value, PreparedCertificates)

    @classmethod
    def _key_material(cls, *key: object) -> Tuple[str, ...]:
        snapshot_token, query, answer_variables, answer = key
        database_digest, keys_digest = snapshot_token  # type: ignore[misc]
        return (
            database_digest,
            keys_digest,
            query,  # type: ignore[return-value]
            ",".join(answer_variables),  # type: ignore[arg-type]
            _type_tagged(answer),  # type: ignore[arg-type]
        )

    def load(
        self,
        snapshot_token: SnapshotToken,
        query: str,
        answer_variables: Sequence[str],
        answer: Sequence[Constant],
    ) -> Optional[PreparedCertificates]:
        """Return the cached preparation, or ``None`` on miss/corruption."""
        value = self._load_entry(
            self.entry_name(snapshot_token, query, answer_variables, answer)
        )
        return value  # type: ignore[return-value]

    def store(
        self,
        snapshot_token: SnapshotToken,
        query: str,
        answer_variables: Sequence[str],
        answer: Sequence[Constant],
        prepared: PreparedCertificates,
    ) -> bool:
        """Persist one preparation atomically; returns False on I/O failure."""
        return self._store_entry(
            self.entry_name(snapshot_token, query, answer_variables, answer),
            prepared,
        )


class DecompositionDiskCache(ContentAddressedStore):
    """A store of block-decomposition entries keyed by snapshot token.

    Only the ordered :class:`~repro.db.blocks.Block` sequence is pickled —
    the database itself is *not* stored.  At load time the caller passes
    the registered (database, keys) pair, and the decomposition is
    rehydrated around it via
    :meth:`~repro.db.blocks.BlockDecomposition.from_blocks`; because the
    entry is addressed by the snapshot token ``(database digest, keys
    digest)``, the stored blocks are the blocks of exactly that pair.

    Example — a decomposition stored once is rebuilt from the store, not
    recomputed:

    >>> import tempfile
    >>> from repro.db import BlockDecomposition, Database, PrimaryKeySet, fact
    >>> db = Database([fact("R", 1, "a"), fact("R", 1, "b"), fact("R", 2, "c")])
    >>> keys = PrimaryKeySet.from_dict({"R": [1]})
    >>> token = (db.content_digest(), keys.content_digest())
    >>> cache = DecompositionDiskCache(tempfile.mkdtemp())
    >>> cache.store(token, BlockDecomposition(db, keys))
    True
    >>> len(cache.load(token, db, keys))
    2
    """

    _MAGIC = b"RDEC"
    _SUFFIX = ".dec"

    def _validate_payload(self, value: object) -> bool:
        return isinstance(value, tuple) and all(
            isinstance(item, Block) for item in value
        )

    @classmethod
    def _key_material(cls, *key: object) -> Tuple[str, ...]:
        (snapshot_token,) = key
        database_digest, keys_digest = snapshot_token  # type: ignore[misc]
        return (database_digest, keys_digest)

    def load(
        self,
        snapshot_token: SnapshotToken,
        database: Database,
        keys: PrimaryKeySet,
    ) -> Optional[BlockDecomposition]:
        """Rehydrate the snapshot's decomposition, or ``None`` on miss."""
        blocks = self._load_entry(self.entry_name(snapshot_token))
        if blocks is None:
            return None
        return BlockDecomposition.from_blocks(
            database, keys, blocks  # type: ignore[arg-type]
        )

    def store(
        self, snapshot_token: SnapshotToken, decomposition: BlockDecomposition
    ) -> bool:
        """Persist one decomposition's blocks; returns False on I/O failure."""
        return self._store_entry(
            self.entry_name(snapshot_token), decomposition.blocks
        )


class CalibrationDiskCache(ContentAddressedStore):
    """A store of conformal-calibration tables keyed by (token, method).

    The payload is the JSON-friendly
    :meth:`~repro.approx.calibration.ConformalCalibrator.to_payload`
    document — a list of held-out (estimate, uncertainty, exact) triples.
    Entries are keyed by the snapshot token and the estimator method
    (``fpras`` / ``karp-luby``) whose residuals they hold: calibration is
    a property of *that estimator on that snapshot's sampling geometry*.
    Because the entry name leads with the token prefix, calibration
    tables of live (registered) snapshots are pinned through the same
    :meth:`set_pinned_tokens` mechanism as every other entry kind — GC
    exempt while referenced.  Unlike the other kinds, a table grows
    under one name, so each store replaces the entry.

    Example — a table stored once survives a restart:

    >>> import tempfile
    >>> directory = tempfile.mkdtemp()
    >>> token = ("a" * 64, "b" * 64)
    >>> payload = {"observations": [[10.0, 2.0, 10.4], [7.0, 1.5, 6.6]]}
    >>> CalibrationDiskCache(directory).store(token, "fpras", payload)
    True
    >>> restarted = CalibrationDiskCache(directory)
    >>> len(restarted.load(token, "fpras")["observations"])
    2
    """

    _MAGIC = b"RCAL"
    _SUFFIX = ".cal"
    _WRITE_ONCE = False

    def _validate_payload(self, value: object) -> bool:
        return isinstance(value, dict) and isinstance(
            value.get("observations"), (list, tuple)
        )

    @classmethod
    def _key_material(cls, *key: object) -> Tuple[str, ...]:
        snapshot_token, method = key
        database_digest, keys_digest = snapshot_token  # type: ignore[misc]
        return (database_digest, keys_digest, str(method))

    def load(
        self, snapshot_token: SnapshotToken, method: str
    ) -> Optional[Dict[str, object]]:
        """Return the cached calibration payload, or ``None`` on miss."""
        value = self._load_entry(self.entry_name(snapshot_token, method))
        return value  # type: ignore[return-value]

    def store(
        self, snapshot_token: SnapshotToken, method: str, payload: Dict[str, object]
    ) -> bool:
        """Persist one calibration table; returns False on I/O failure."""
        return self._store_entry(self.entry_name(snapshot_token, method), payload)
