"""Cost-model-driven self-tuning of the storage/replay layer.

PR 5 shipped every *mechanism* the store needs to tune itself —
:meth:`~repro.db.lineage.Lineage.replay_distance` as a queryable cost
model, per-layer cache statistics, GC eviction counters, fixed
``checkpoint_every=K`` compaction — but nothing closed the loop.  This
module is the loop:

* :class:`DecayedCounter` — an exponentially-decayed event counter with
  an injectable clock, so "how often is this read *lately*" is a number,
  deterministically testable.
* :class:`AccessLog` — the observation layer: per-``(name, digest)``
  decayed read rates, per-name EWMAs of the measured *per-delta replay
  cost* and *checkpoint load cost*, and per-name snapshot byte estimates
  refined from actual stores.
* :class:`CheckpointPolicy` — the decision interface the lineage service
  consults after every ``as_of`` replay and every recorded delta.  Two
  implementations ship: :class:`FixedIntervalPolicy` (the exact every-K
  behaviour ``checkpoint_every`` always had) and
  :class:`AdaptiveCheckpointPolicy`, which cuts a checkpoint at a chain
  position only when the modeled saving
  ``expected_reads x replay_distance x per_step_cost`` (less a load per
  read, for reads that replayed from memory) exceeds the modeled byte
  cost of materialising it — and demotes checkpoints whose read rate
  has decayed away.
* :func:`split_byte_budget` — the GC half of the loop: split one global
  byte budget across entry kinds (``*.sel`` / ``*.dec`` / ``*.snp`` /
  ``*.cal``) proportional to each kind's observed hit-rate-per-byte,
  with water-filling so a kind never receives more budget than it uses.

Everything here is deliberately free of store/engine imports (plain data
in, plain decisions out), so the policies pickle cleanly across the
shard-worker process boundary.

>>> clock = ManualClock(0.0)
>>> counter = DecayedCounter(half_life=10.0, clock=clock)
>>> counter.add(); counter.add()
>>> round(counter.value(), 3)
2.0
>>> clock.advance(10.0)  # one half-life later, half the mass remains
>>> round(counter.value(), 3)
1.0
>>> split_byte_budget(100, {"a": (9.0, 30), "b": (1.0, 1000)})
{'a': 30, 'b': 70}
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "AccessLog",
    "AdaptiveCheckpointPolicy",
    "CheckpointDecision",
    "CheckpointPolicy",
    "DecayedCounter",
    "FixedIntervalPolicy",
    "ManualClock",
    "split_byte_budget",
]

Clock = Callable[[], float]


class ManualClock:
    """A deterministic clock for tests: call it, advance it, set it.

    >>> clock = ManualClock(5.0)
    >>> clock()
    5.0
    >>> clock.advance(2.5); clock()
    7.5
    """

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class DecayedCounter:
    """An event counter whose mass halves every ``half_life`` seconds.

    ``add`` deposits mass at the current clock reading; ``value`` reports
    the remaining (exponentially decayed) mass.  The decay is applied
    lazily — the counter stores one ``(mass, stamp)`` pair, so it is O(1)
    in space and per operation, and pickles as plain state.
    """

    def __init__(self, half_life: float = 600.0, clock: Clock = time.time) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {half_life}")
        self._half_life = half_life
        self._clock = clock
        self._mass = 0.0
        self._stamp = clock()

    def _decay_to_now(self) -> None:
        now = self._clock()
        elapsed = now - self._stamp
        if elapsed > 0:
            self._mass *= 0.5 ** (elapsed / self._half_life)
            self._stamp = now

    def add(self, amount: float = 1.0) -> None:
        """Deposit ``amount`` of mass at the current time."""
        self._decay_to_now()
        self._mass += amount

    def value(self) -> float:
        """The decayed mass as of now."""
        self._decay_to_now()
        return self._mass

    def __repr__(self) -> str:
        return f"DecayedCounter(value={self.value():.3f}, half_life={self._half_life})"


class AccessLog:
    """The observation layer: what gets read, how deep, and at what cost.

    Four families of observations, all fed by the lineage service:

    * **read rates** — a :class:`DecayedCounter` per ``(name, digest)``,
      bumped on every ``as_of`` resolution of that digest (cache hits
      included: a hit is still evidence the digest is hot);
    * **per-step replay cost** — an EWMA over ``elapsed / distance`` of
      every replay that actually walked deltas, per name (replay cost is
      a property of the database's size and delta shape, not of one
      digest); ``elapsed`` excludes any checkpoint load on the way;
    * **load cost** — an EWMA over the seconds of every checkpoint
      snapshot load, per name; :meth:`load_steps` prices a load in
      replayed deltas, which is how replay sources are ranked;
    * **snapshot bytes** — a running mean of the observed ``*.snp``
      entry sizes per name, refined after every checkpoint store, used
      to price a prospective checkpoint before it exists.

    >>> log = AccessLog()
    >>> log.load_steps("live")  # cold: sources rank by distance alone
    0.0
    >>> log.record_read("live", "d1", distance=4, elapsed=0.004)
    >>> log.record_load("live", 0.02)
    >>> round(log.load_steps("live"), 6)  # one load costs 20 replayed deltas
    20.0
    """

    def __init__(self, half_life: float = 600.0, clock: Clock = time.time) -> None:
        self._half_life = half_life
        self._clock = clock
        self._reads: Dict[Tuple[str, str], DecayedCounter] = {}
        self._step_cost: Dict[str, float] = {}
        self._load_cost: Dict[str, float] = {}
        self._byte_mean: Dict[str, float] = {}
        self._byte_samples: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def record_read(
        self, name: str, digest: str, distance: int, elapsed: float
    ) -> None:
        """Observe one ``as_of`` resolution of ``digest``.

        ``distance`` is the delta count the replay walked (0 for a
        memory/checkpoint hit); ``elapsed`` the wall-clock seconds the
        replay took, checkpoint loads excluded.  Only replays with
        ``distance > 0`` update the per-step cost model.
        """
        counter = self._reads.get((name, digest))
        if counter is None:
            counter = DecayedCounter(self._half_life, self._clock)
            self._reads[(name, digest)] = counter
        counter.add()
        if distance > 0 and elapsed >= 0:
            self._step_cost[name] = _ewma(
                self._step_cost.get(name), elapsed / distance
            )

    def record_load(self, name: str, elapsed: float) -> None:
        """Observe one checkpoint snapshot load of ``name`` (``elapsed`` s)."""
        if elapsed >= 0:
            self._load_cost[name] = _ewma(self._load_cost.get(name), elapsed)

    def record_snapshot_bytes(self, name: str, size: int) -> None:
        """Refine the snapshot byte estimate of ``name`` after a store."""
        samples = self._byte_samples.get(name, 0)
        mean = self._byte_mean.get(name, 0.0)
        self._byte_mean[name] = (mean * samples + size) / (samples + 1)
        self._byte_samples[name] = samples + 1

    # ------------------------------------------------------------------ #
    # the model
    # ------------------------------------------------------------------ #
    def read_rate(self, name: str, digest: str) -> float:
        """The decayed read count of ``(name, digest)`` (0.0 if never read)."""
        counter = self._reads.get((name, digest))
        return counter.value() if counter is not None else 0.0

    def step_cost(self, name: str) -> float:
        """The EWMA per-delta replay cost of ``name`` in seconds (0.0 cold)."""
        return self._step_cost.get(name, 0.0)

    def load_cost(self, name: str) -> float:
        """The EWMA seconds of one checkpoint load of ``name`` (0.0 cold)."""
        return self._load_cost.get(name, 0.0)

    def load_steps(self, name: str) -> float:
        """One checkpoint load of ``name`` priced in replayed deltas.

        ``load_cost / step_cost`` once both have been measured; 0.0 before
        that, which ranks replay sources by distance alone (and so gets a
        checkpoint loaded, and its cost measured, on the first deep read).
        """
        step = self.step_cost(name)
        load = self.load_cost(name)
        return load / step if step > 0 and load > 0 else 0.0

    def byte_estimate(self, name: str) -> float:
        """The mean observed snapshot byte size of ``name`` (0.0 cold)."""
        return self._byte_mean.get(name, 0.0)

    def modeled_saving(self, name: str, digest: str, distance: int) -> float:
        """``expected_reads x replay_distance x per_step_cost`` in seconds.

        The projected replay seconds per decay window that a checkpoint
        at ``digest`` would erase; the adaptive policy's cut rule takes
        one load per read off it for reads served from memory.
        """
        return self.read_rate(name, digest) * distance * self.step_cost(name)

    def digests_read(self, name: str) -> Tuple[str, ...]:
        """Every digest of ``name`` with a (possibly decayed-away) counter."""
        return tuple(
            digest for (owner, digest) in self._reads if owner == name
        )


def _ewma(previous: Optional[float], sample: float) -> float:
    """An EWMA step with alpha = 0.3: responsive to drift, stable under noise."""
    return sample if previous is None else 0.7 * previous + 0.3 * sample


@dataclass(frozen=True)
class CheckpointDecision:
    """What a policy wants done after one observation.

    ``promote`` lists digests to checkpoint *now* (the lineage service
    only honours digests it holds materialised — in practice the digest
    just replayed); ``demote`` lists checkpointed digests whose snapshot
    entry and marker should be dropped; ``checkpoint_head`` asks for the
    classic cut-at-the-head compaction checkpoint.
    """

    promote: Tuple[str, ...] = ()
    demote: Tuple[str, ...] = ()
    checkpoint_head: bool = False

    def __bool__(self) -> bool:
        return bool(self.promote or self.demote or self.checkpoint_head)


#: The do-nothing decision, shared.
NO_DECISION = CheckpointDecision()


class CheckpointPolicy(abc.ABC):
    """Where checkpoints appear (and disappear) on a lineage chain.

    The lineage service consults the policy at its two observation
    points: :meth:`after_read` once per ``as_of`` resolution (with the
    measured replay distance and elapsed time) and :meth:`after_delta`
    once per recorded effective delta, and asks :meth:`load_cost` how to
    price a checkpoint load when it picks a replay source.  Policies are
    plain picklable objects — they travel to shard workers inside the
    process-pool initargs.
    """

    @abc.abstractmethod
    def after_read(
        self,
        name: str,
        head_digest: str,
        digest: str,
        checkpointed: Set[str],
        distance: int,
        elapsed: float,
        loads: Sequence[float] = (),
    ) -> CheckpointDecision:
        """React to one resolved ``as_of`` read of ``digest``.

        ``distance`` is the delta count the read replayed and ``elapsed``
        the seconds that replay took; ``loads`` are the seconds of the
        checkpoint loads the read made on the way (not in ``elapsed``).
        """

    @abc.abstractmethod
    def after_delta(
        self,
        name: str,
        chain_kinds: Tuple[str, ...],
        checkpointed_sequences: Set[int],
    ) -> CheckpointDecision:
        """React to one recorded delta.

        ``chain_kinds`` is the record-kind sequence of the chain (oldest
        first) and ``checkpointed_sequences`` the checkpointed positions,
        which is all an interval policy needs; adaptive policies keep
        their own observations.
        """

    def load_cost(self, name: str) -> float:
        """The price of one checkpoint load of ``name``, in replayed deltas.

        Replay sources are ranked by distance plus this price for a
        checkpoint.  The default 0.0 ranks by distance alone, which keeps
        the work of a read independent of timings.
        """
        return 0.0


class FixedIntervalPolicy(CheckpointPolicy):
    """Cut a head checkpoint every ``every`` effective deltas.

    Exactly the behaviour ``checkpoint_every=K`` always had: count the
    *trailing run* of delta records — stopping at the newest checkpointed
    position or at any non-delta record (a rollback or re-registration
    restarts the count) — and checkpoint the head once ``every`` of them
    have accumulated.  Reads never cut or demote anything.

    >>> policy = FixedIntervalPolicy(2)
    >>> policy.after_delta("live", ("register", "delta"), set()).checkpoint_head
    False
    >>> policy.after_delta("live", ("register", "delta", "delta"),
    ...                    set()).checkpoint_head
    True
    """

    def __init__(self, every: int) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.every = every

    def after_read(
        self,
        name: str,
        head_digest: str,
        digest: str,
        checkpointed: Set[str],
        distance: int,
        elapsed: float,
        loads: Sequence[float] = (),
    ) -> CheckpointDecision:
        return NO_DECISION

    def after_delta(
        self,
        name: str,
        chain_kinds: Tuple[str, ...],
        checkpointed_sequences: Set[int],
    ) -> CheckpointDecision:
        pending = 0
        for sequence in range(len(chain_kinds) - 1, -1, -1):
            if (
                sequence in checkpointed_sequences
                or chain_kinds[sequence] != "delta"
            ):
                break
            pending += 1
        if pending >= self.every:
            return CheckpointDecision(checkpoint_head=True)
        return NO_DECISION

    def __repr__(self) -> str:
        return f"FixedIntervalPolicy(every={self.every})"


class AdaptiveCheckpointPolicy(CheckpointPolicy):
    """Cut checkpoints where the observed workload says the bytes pay.

    After each ``as_of`` replay the policy feeds its :class:`AccessLog`
    and scores the position just read:

    ``read_rate x (distance x step_cost - load)  >  byte_cost x snapshot_bytes``

    — the projected replay seconds a checkpoint there would erase per
    decay window, against the priced byte cost of materialising it.
    ``load`` is the measured cost of one checkpoint load when the read
    replayed from memory (served from a checkpoint there instead, it
    would pay that load) and 0 when the read already loaded one.
    ``byte_cost`` is in seconds-per-byte; ``0.0`` (the default) means
    bytes are free and any repeatedly-replayed position at distance >=
    ``min_distance`` whose replay outweighs a load earns a checkpoint —
    the GC byte budget, not the cut rule, then bounds the snapshot
    footprint.  ``min_distance`` keeps near-head reads (cheap replays
    from the in-memory head) from being materialised at all.

    Checkpoints the policy has promoted are **demoted** again when their
    decayed read rate falls below ``demote_below`` (``None`` disables
    demotion): the snapshot entry and its catalog marker are dropped, so
    cold checkpoints stop occupying budget that hot ones could use.

    Deltas never cut checkpoints here — placement is driven purely by
    observed reads, which is what keeps the snapshot footprint lean on
    write-heavy chains.

    The same measurements price replay sources: :meth:`load_cost` is one
    checkpoint load in replayed deltas (see :meth:`AccessLog.load_steps`),
    so a read replays from the head whenever that is cheaper than
    loading a nearer checkpoint.
    """

    def __init__(
        self,
        byte_cost: float = 0.0,
        min_distance: int = 2,
        min_rate: float = 0.0,
        demote_below: Optional[float] = None,
        half_life: float = 600.0,
        clock: Clock = time.time,
    ) -> None:
        if byte_cost < 0:
            raise ValueError(f"byte_cost must be >= 0, got {byte_cost}")
        if min_distance < 1:
            raise ValueError(f"min_distance must be >= 1, got {min_distance}")
        self.byte_cost = byte_cost
        self.min_distance = min_distance
        self.min_rate = min_rate
        self.demote_below = demote_below
        self.log = AccessLog(half_life=half_life, clock=clock)
        #: Digests this policy promoted (only these are ever demoted, so
        #: explicit/interval checkpoints cut by the operator stay put).
        self._promoted: Set[str] = set()

    def after_read(
        self,
        name: str,
        head_digest: str,
        digest: str,
        checkpointed: Set[str],
        distance: int,
        elapsed: float,
        loads: Sequence[float] = (),
    ) -> CheckpointDecision:
        for seconds in loads:
            self.log.record_load(name, seconds)
        self.log.record_read(name, digest, distance, elapsed)
        rate = self.log.read_rate(name, digest)
        saving = self.log.modeled_saving(name, digest, distance)
        if not loads:
            saving -= rate * self.log.load_cost(name)
        promote: Tuple[str, ...] = ()
        if (
            digest not in checkpointed
            and digest != head_digest
            and distance >= self.min_distance
            and rate > self.min_rate
            and saving > self.byte_cost * self.log.byte_estimate(name)
        ):
            promote = (digest,)
            self._promoted.add(digest)
        return CheckpointDecision(
            promote=promote, demote=self._stale(name, checkpointed, head_digest)
        )

    def after_delta(
        self,
        name: str,
        chain_kinds: Tuple[str, ...],
        checkpointed_sequences: Set[int],
    ) -> CheckpointDecision:
        return NO_DECISION

    def load_cost(self, name: str) -> float:
        return self.log.load_steps(name)

    def observe_snapshot_bytes(self, name: str, size: int) -> None:
        """Feed back the actual byte size of a stored checkpoint."""
        self.log.record_snapshot_bytes(name, size)

    def _stale(
        self, name: str, checkpointed: Set[str], head_digest: str
    ) -> Tuple[str, ...]:
        if self.demote_below is None:
            return ()
        return tuple(
            digest
            for digest in sorted(checkpointed & self._promoted)
            if digest != head_digest
            and self.log.read_rate(name, digest) < self.demote_below
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveCheckpointPolicy(byte_cost={self.byte_cost}, "
            f"min_distance={self.min_distance}, "
            f"demote_below={self.demote_below})"
        )


def split_byte_budget(
    total: int, usage: Mapping[str, Tuple[float, int]]
) -> Dict[str, int]:
    """Split one global byte budget across entry kinds by hit-rate-per-byte.

    ``usage`` maps each kind to ``(decayed_hit_rate, current_bytes)``.
    The split is proportional to ``hit_rate / bytes`` — a kind earning
    the same hits from 10x the bytes gets a tenth of the weight — with
    **water-filling**: a kind is never allocated more than it currently
    uses, and the surplus is redistributed among the still-hungry kinds
    by the same weights.  Kinds with no hits anywhere fall back to a
    split proportional to current bytes (so an under-budget store evicts
    nothing just because it is cold).

    >>> split_byte_budget(100, {"hot": (10.0, 50), "cold": (0.1, 500)})
    {'hot': 50, 'cold': 50}
    >>> split_byte_budget(300, {"a": (0.0, 100), "b": (0.0, 200)})
    {'a': 100, 'b': 200}
    """
    if total < 0:
        raise ValueError(f"byte budget must be >= 0, got {total}")
    shares: Dict[str, int] = {kind: 0 for kind in usage}
    hungry: Dict[str, Tuple[float, int]] = {
        kind: (rate, size) for kind, (rate, size) in usage.items() if size > 0
    }
    remaining = float(total)
    while hungry and remaining >= 1.0:
        weights = {
            kind: (rate / size if rate > 0 else 0.0)
            for kind, (rate, size) in hungry.items()
        }
        if not any(weights.values()):
            # Nothing observed: keep what exists, proportionally by size.
            weights = {kind: float(size) for kind, (_, size) in hungry.items()}
        scale = sum(weights.values())
        allocation = {
            kind: remaining * weight / scale for kind, weight in weights.items()
        }
        capped = [
            kind
            for kind in hungry
            if allocation[kind] >= hungry[kind][1]
        ]
        if not capped:
            for kind in hungry:
                shares[kind] += int(allocation[kind])
            break
        for kind in capped:
            size = hungry[kind][1]
            shares[kind] += size
            remaining -= size
            del hungry[kind]
    return shares

