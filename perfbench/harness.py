"""Shared machinery of the benchmark: statistics, naming, probes, output.

Nothing here imports the program under test, so the self-tests in
``selftest.py`` run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A metric name as the benchmark contract allows it.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.9)
#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class BenchmarkError(Exception):
    """A run that cannot produce a trustworthy result (exit non-zero)."""


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not NAME_PATTERN.fullmatch(name):
        raise BenchmarkError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    if not UNIT_PATTERN.fullmatch(unit):
        raise BenchmarkError(f"illegal metric unit {unit!r}")
    return unit


# ---------------------------------------------------------------------- #
# order statistics
# ---------------------------------------------------------------------- #
def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below it."""
    if not samples:
        raise BenchmarkError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(fraction, value)`` of the highest percentile with ≥10 samples beyond it."""
    for fraction in TAIL_PERCENTILES:
        if beyond(len(samples), fraction) >= MIN_BEYOND:
            return fraction, percentile(samples, fraction)
    return None


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


# ---------------------------------------------------------------------- #
# lanes: one client connection per database
# ---------------------------------------------------------------------- #
def partition_lanes(databases: Sequence[str], lanes: int) -> List[List[int]]:
    """Split stream positions into ``lanes`` lanes, each database in one lane.

    ``databases[i]`` names the database of stream item ``i``.  Databases
    are placed greedily, busiest first, on the lane with the fewest items
    so far; each lane lists its positions in stream order, so every
    database's items keep their order and their interleaving with that
    database's updates.
    """
    if lanes < 1:
        raise BenchmarkError(f"need at least one lane, got {lanes}")
    load: Dict[str, int] = {}
    for name in databases:
        load[name] = load.get(name, 0) + 1
    lane_load = [0] * lanes
    lane_of: Dict[str, int] = {}
    for name in sorted(load, key=lambda name: (-load[name], name)):
        chosen = min(range(lanes), key=lambda lane: (lane_load[lane], lane))
        lane_of[name] = chosen
        lane_load[chosen] += load[name]
    positions: List[List[int]] = [[] for _ in range(lanes)]
    for index, name in enumerate(databases):
        positions[lane_of[name]].append(index)
    return positions


# ---------------------------------------------------------------------- #
# host, memory, digests, scratch space
# ---------------------------------------------------------------------- #
def host_ref_rate(seconds: float = 0.5) -> float:
    """Iterations per second of a fixed pure-Python loop (a host-speed probe)."""
    iterations = 0
    started = time.perf_counter()
    while True:
        total = 0
        for value in range(10_000):
            total += value
        iterations += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return iterations / elapsed


def pin_to_one_cpu() -> Optional[int]:
    """Run this process, and every process it starts later, on one CPU.

    The host's vCPUs are descheduled now and then; a request that hops
    between processes on different vCPUs also waits for each wake-up on
    the other one.  On one CPU the hops cost CPU time and context
    switches only.  Returns the CPU, or ``None`` where affinity cannot
    be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def own_peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process (plus its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb_of(pids: Iterable[int]) -> float:
    """Sum of the peak resident sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def digest(documents: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of the generated inputs."""
    hasher = hashlib.sha256()
    for document in documents:
        hasher.update(json.dumps(document, sort_keys=True, default=str).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def filesystem_of(path: Path) -> str:
    """The type of the filesystem holding ``path`` (``tmpfs``, ``ext4``, ...)."""
    resolved, best, kind = str(path.resolve()), "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                point = fields[1]
                if (resolved == point or resolved.startswith(point.rstrip("/") + "/")) and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def fresh_directory(root: Path, name: str) -> Path:
    """An empty scratch directory ``root/name`` (inside the checkout)."""
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class BestOf:
    """Latencies of steps that are repeated with the same work, and their fastest repeats.

    The host is shared: its speed swings by tens of percent within
    seconds and between minutes, and a slow spell can only make a step
    slower.  The fastest repeat of a step is therefore the closest a run
    gets to the program's own cost of that step.
    """

    def __init__(self) -> None:
        self.busy = 0.0
        self.latencies: Dict[object, List[float]] = {}

    def record(self, key: object, seconds: float) -> None:
        """One step's latency; ``key`` names the step within a repeat."""
        self.latencies.setdefault(key, []).append(seconds)
        self.busy += seconds

    @contextmanager
    def step(self, key: object) -> Iterator[None]:
        """Record the latency of the ``with`` body as step ``key``."""
        tick = time.perf_counter()
        yield
        self.record(key, time.perf_counter() - tick)

    def best_total(self) -> float:
        """Sum over the steps of each step's fastest repeat, in seconds."""
        if not self.latencies:
            raise BenchmarkError("no step completed")
        return sum(min(samples) for samples in self.latencies.values())

    def best_mean_ms(self) -> float:
        """Mean over the steps of each step's fastest repeat, in ms."""
        return 1e3 * self.best_total() / len(self.latencies)

    def best_p50_ms(self) -> float:
        """Median (nearest rank) over the steps of each step's fastest repeat, in ms."""
        if not self.latencies:
            raise BenchmarkError("no step completed")
        return 1e3 * percentile([min(samples) for samples in self.latencies.values()], 0.5)


class Rounds(BestOf):
    """A timed phase made of rounds of one fixed op sequence.

    Every round replays the same ops from the same starting state, so the
    op under one key does the same work in every round, and
    :meth:`best_mean_ms` — the mean over the round's ops of each op's
    fastest round — is the run's steady figure.

    Untraced runs start rounds until ``seconds`` have passed (a started
    round finishes; at least ``MIN_ROUNDS`` run).  A traced run executes
    ``traced_rounds`` rounds instead, so the counts it reports (cache
    hits, replays, store I/O, pool spawns) repeat exactly at a given
    seed; it still stops starting rounds at three times ``seconds``.
    """

    MIN_ROUNDS = 2

    def __init__(self, seconds: float, traced_rounds: Optional[int] = None) -> None:
        super().__init__()
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.cap = self.started + 3 * seconds
        self.traced_rounds = traced_rounds
        self.done = 0

    def more(self) -> bool:
        """Whether to start another round (counts the one it allows)."""
        now = time.perf_counter()
        if self.traced_rounds is not None:
            go = self.done < self.traced_rounds and (self.done < 1 or now < self.cap)
        else:
            go = self.done < self.MIN_ROUNDS or now < self.deadline
        self.done += go
        return go


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one workload run produced, before formatting."""

    workload: str
    attempted: int
    failed: int
    correct: bool
    end_to_end: List[Metric] = field(default_factory=list)
    per_layer: List[Metric] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.end_to_end.append(Metric(name, float(value), unit, samples, note))

    def layer(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.per_layer.append(Metric(name, float(value), unit, samples, note))


def latency_metrics(outcome: Outcome, prefix: str, seconds_samples: Sequence[float]) -> None:
    """Add ``<prefix>_p50_ms`` and the tail percentile allowed by the ≥10 rule."""
    if not seconds_samples:
        return
    millis = [value * 1e3 for value in seconds_samples]
    outcome.add(f"{prefix}_p50_ms", percentile(millis, 0.5), "ms", len(millis))
    found = tail(millis)
    if found is not None:
        fraction, value = found
        label = f"p{fraction * 100:g}".replace(".", "")
        outcome.add(f"{prefix}_{label}_ms", value, "ms", len(millis))


def render(outcome: Outcome, keys: Sequence[Tuple[str, str]], traced: bool) -> str:
    """The report lines plus the final one-line JSON document.

    ``keys`` lists the ``(name, unit)`` pairs the contract expects in the
    JSON for this mode; a metric the workload does not exercise is
    written as 0 (per-layer only) and marked ``n/a`` in the report.
    """
    def line(metric: Metric) -> str:
        validate_name(metric.name)
        validate_unit(metric.unit)
        note = f"  # {metric.note}" if metric.note else ""
        return f"{outcome.workload}/{metric.name} {metric.value:.6g} {metric.unit} n={metric.samples}{note}"

    lines = list(outcome.lines) + [line(metric) for metric in outcome.end_to_end]
    chosen = outcome.per_layer if traced else outcome.end_to_end
    by_name = {metric.name: metric for metric in chosen}
    payload: Dict[str, Dict[str, object]] = {}
    for name, unit in keys:
        metric = by_name.get(name)
        if metric is None:
            if not traced:
                raise BenchmarkError(f"{outcome.workload} did not measure {name}")
            metric = Metric(name, 0.0, unit, 0, "n/a")
        if metric.unit != unit:
            raise BenchmarkError(f"{name}: unit {metric.unit!r}, expected {unit!r}")
        if traced:
            lines.append(line(metric))
        payload[name] = {"value": metric.value, "unit": unit}
    lines.append(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": payload,
            }
        )
    )
    return "\n".join(lines)
