"""The persistence subsystem: backends, content-addressed caches, lineage.

``repro.store`` is where everything durable lives.  It grew out of
``repro.engine.persist`` when persistence stopped being a cache bolt-on
and became a layer of its own with three kinds of state:

**Backends** (:mod:`repro.store.backend`)
    A :class:`StoreBackend` is a named-immutable-blob store with atomic
    publication and recency stamps — :class:`FilesystemBackend` in
    production, :class:`MemoryBackend` for tests.  Every store component
    accepts either a directory path or a backend instance.

**Caches** (:mod:`repro.store.caches`)
    :class:`SelectorDiskCache` and :class:`DecompositionDiskCache` persist
    the two expensive engine layers, keyed by snapshot token.  Entries are
    versioned, checksummed, atomically written and garbage-collected by
    age/count — with the tokens of *live* snapshots pinned so GC can never
    force recomputation of active state.

**History** (:mod:`repro.store.catalog`)
    :class:`SnapshotCatalog` persists each name's
    :class:`~repro.db.lineage.Lineage` — the append-only chain of
    ``(digest, parent digest, effective delta, wall time)`` records that
    ``register``/``apply_delta`` produce — plus the **checkpoint markers**
    of compacted chains.  Replaying the chain is what powers time-travel
    (``as_of``) queries and ``repro rollback``.

**Snapshots** (:mod:`repro.store.snapshots`)
    :class:`SnapshotStore` persists whole databases at checkpointed chain
    positions, so deep ``as_of`` replays start at the nearest checkpoint
    instead of the live head or the chain origin.

**Tuning** (:mod:`repro.store.tuning`)
    The self-tuning loop over all of the above: :class:`AccessLog`
    observes replay cost, read frequency and entry bytes with decayed
    counters; a :class:`CheckpointPolicy`
    (:class:`FixedIntervalPolicy` / :class:`AdaptiveCheckpointPolicy`)
    decides where checkpoints appear and disappear; and
    :func:`split_byte_budget` divides one global GC byte budget across
    entry kinds by observed hit-rate-per-byte.

Example — the catalog records a chain that replays to any ancestor:

>>> import tempfile
>>> from repro.db import Database, Delta, PrimaryKeySet, fact
>>> from repro.engine import CountJob, SolverPool
>>> directory = tempfile.mkdtemp()
>>> pool = SolverPool(persist_dir=directory)
>>> pool.register("hr", Database([fact("Employee", 1, "Bob", "HR"),
...                               fact("Employee", 1, "Bob", "IT")]),
...               PrimaryKeySet.from_dict({"Employee": [1]}))
>>> _ = pool.apply_delta("hr", Delta(inserted=[fact("Employee", 2, "Ann", "HR")]))
>>> [record.kind for record in SnapshotCatalog(directory).lineage("hr")]
['register', 'delta']
>>> old = pool.lineage("hr").resolve(-1).digest  # one version ago
>>> pool.run([CountJob(database="hr",
...     query="EXISTS x. Employee(2, x, 'HR')", as_of=old)]).results[0].satisfying
0
"""

from .backend import FilesystemBackend, MemoryBackend, StoreBackend, as_backend
from .caches import (
    CalibrationDiskCache,
    ContentAddressedStore,
    DecompositionDiskCache,
    SelectorDiskCache,
)
from .catalog import SnapshotCatalog
from .format import FORMAT_VERSION, decode_entry, encode_entry, token_prefix
from .snapshots import SnapshotStore
from .tuning import (
    AccessLog,
    AdaptiveCheckpointPolicy,
    CheckpointDecision,
    CheckpointPolicy,
    DecayedCounter,
    FixedIntervalPolicy,
    ManualClock,
    split_byte_budget,
)

__all__ = [
    "FORMAT_VERSION",
    "AccessLog",
    "AdaptiveCheckpointPolicy",
    "CalibrationDiskCache",
    "CheckpointDecision",
    "CheckpointPolicy",
    "ContentAddressedStore",
    "DecayedCounter",
    "DecompositionDiskCache",
    "FilesystemBackend",
    "FixedIntervalPolicy",
    "ManualClock",
    "MemoryBackend",
    "SelectorDiskCache",
    "SnapshotCatalog",
    "SnapshotStore",
    "StoreBackend",
    "as_backend",
    "decode_entry",
    "encode_entry",
    "split_byte_budget",
    "token_prefix",
]
