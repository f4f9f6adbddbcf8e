"""The four workloads: inputs from a seed, timed closed-loop rounds, an answer check.

Every workload generates its inputs with the generators of
``repro.workloads`` (so a change to what they emit shows up as a changed
input digest), drives the program only through public entry points, and
checks every answer against a reference computed outside the timed phase.
The timed phase repeats one round of ops from the same starting state
(see :class:`harness.Rounds`) until the run's seconds are spent.

* ``engine-hot`` — one caller, warm exact reads on the 800-block E13
  fixture through an in-process ``SolverPool``; a round is one pass.
* ``serve-mixed`` — ``repro serve --http`` in a subprocess, two keep-alive
  ``ServeClient`` connections, reads plus a delta about every 10 reads;
  a round sends the stream to a fresh copy of every database.
* ``time-travel`` — one caller, ``as_of`` reads, 16-version ranges and
  deltas on a chain of 200+ versions with a filesystem store; a round is
  a session on a fresh pool over a copy of the built store.
* ``pooled-stream`` — ``SolverPool.run_stream(chunk, workers=2)`` over
  consecutive two-segment chunks of one 224-item serving stream; a round
  runs them on a fresh pool.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    BenchmarkError,
    Outcome,
    digest,
    fresh_directory,
    group_members,
    host_ref_rate,
    BestOf,
    Rounds,
    filesystem_of,
    latency_metrics,
    median,
    own_peak_rss_mb,
    partition_lanes,
    peak_rss_mb_of,
    percentile,
    pin_to_one_cpu,
)
from spans import EXTRA, NAME, PARENT, Recorder, SpanIndex, op_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# engine-hot: the E13 fixture and a catalogue of anchored joins drawn in
# two bands of certificate count: at most 6 (per-job O(#blocks) work
# dominates, ~0.8 ms) and exactly 12 (the union-of-boxes kernel
# dominates, ~7 ms).  One fixed count per band keeps the mix, and so
# every percentile, nearly the same from seed to seed.  The catalogue
# is small enough that a 20 s run repeats every job about 80 times.
E13_BLOCKS = 800
E13_CHEAP = (6, 20)
E13_KERNEL = (12, 10)
E13_PASSES = 10
E13_SETUPS = 3
E13_TRACE_ROUNDS = 20
# serve-mixed
SERVE_DATABASES = 8
SERVE_JOBS = 240
SERVE_METHODS = ("auto", "certificate") * 7 + ("auto", "fpras")
SERVE_STARTS = 5
#: The server holds this many copies of every database; round r uses copy r.
SERVE_COPIES = 48
SERVE_TRACE_ROUNDS = 3
# time-travel
TT_BLOCKS = 60
TT_CHAIN = 200
# One range per session (2.5% of its ops): two 16-version ranges took
# nearly half of a session's time, so which windows a seed drew moved
# the whole session's mean.
TT_READS = 32
TT_RANGES = 1
TT_WRITES = 7
TT_SESSION_OPS = TT_READS + TT_RANGES + TT_WRITES
TT_CHECKPOINT_EVERY = 16
TT_RANGE = 16
TT_BUILDS = 5
TT_ANCHORED = 6
TT_TRACE_ROUNDS = 3
# pooled-stream
# pooled-stream: a round is 224 items, sent as chunks of two segments
# (~18 items, tens of ms) rather than one 224-item call, so that each
# chunk's fastest round is likely to have run on a quiet host.
POOL_ROUND_ITEMS = 224
POOL_CHUNK_UPDATES = 2
POOL_WORKERS = 2
POOL_SETUPS = 7
POOL_TRACE_ROUNDS = 2
POOL_SETUP_SCRIPT = """
import json, sys
from repro.engine import SolverPool, parse_job_document
databases, _ = parse_job_document(json.load(open(sys.argv[1])), require_jobs=False)
pool = SolverPool()
for name, (database, keys) in databases.items():
    pool.register(name, database, keys)
"""

#: Bounds on a serving count's exact work (see bounded_stream).
MAX_COMPONENT_BOXES = 12
MAX_CERTIFICATES = 48

#: Span names whose time counts as lineage replay.
REPLAY = ("lineage.materialise", "lineage.materialise_range")
#: Span names of the delta write path.
DELTA = ("db.database.apply_delta", "db.blocks.apply_delta")


# ---------------------------------------------------------------------- #
# tracing: which entry points belong to which layer
# ---------------------------------------------------------------------- #
def install_engine_spans(recorder: Recorder) -> None:
    """Wrap the in-process layers' entry points where their callers look them up."""
    import repro.core.solver as solver
    import repro.engine.cache_coordinator as coordinator
    import repro.engine.executor as executor
    import repro.repairs.counting as counting
    from repro.approx.cqa_fpras import CQAFpras
    from repro.db.blocks import BlockDecomposition
    from repro.db.database import Database
    from repro.engine.lineage_service import LineageService
    from repro.store.backend import FilesystemBackend

    wrap = recorder.wrap
    wrap(executor.JobExecutor, "run_job", "engine.run_job")
    wrap(executor.JobExecutor, "run_range", "engine.run_range")
    wrap(executor.JobExecutor, "run_stream", "engine.run_stream")
    wrap(executor.JobExecutor, "apply_delta", "engine.apply_delta")
    wrap(executor, "ProcessPoolExecutor", "engine.pool_spawn")
    wrap(BlockDecomposition, "block_sizes", "db.blocks.block_sizes")
    wrap(BlockDecomposition, "total_repairs", "db.blocks.total_repairs")
    wrap(BlockDecomposition, "apply_delta", "db.blocks.apply_delta")
    wrap(Database, "apply_delta", "db.database.apply_delta")
    wrap(counting, "count_union_of_boxes", "lams.union_of_boxes")
    wrap(coordinator, "prepare_certificates", "repairs.prepare")
    wrap(CQAFpras, "estimate", "approx.fpras", extra=lambda args, result: result.samples)
    wrap(solver, "estimate_union_karp_luby", "approx.karp_luby",
         extra=lambda args, result: result.samples)
    wrap(LineageService, "materialise", "lineage.materialise")
    wrap(LineageService, "materialise_range", "lineage.materialise_range")
    wrap(FilesystemBackend, "read", "store.read",
         extra=lambda args, result: len(result) if result else 0)
    wrap(FilesystemBackend, "write", "store.write", extra=lambda args, result: len(args[2]))


def engine_layers(outcome: Outcome, index: SpanIndex, reads: int) -> None:
    """Per-layer metrics derivable from in-process spans (absent layers: n/a)."""
    jobs = index.named("engine.run_job")
    if jobs:
        outcome.layer("engine.run_job_us", percentile([index.duration(i) for i in jobs], 0.5) * 1e6, "us", len(jobs))
        outcome.layer("engine.self_us", percentile([index.self_time[i] for i in jobs], 0.5) * 1e6, "us", len(jobs))
        blocks = [i for i in index.named("db.blocks.block_sizes", "db.blocks.total_repairs")
                  if index.under(i, ("engine.run_job",))]
        outcome.layer("db.blocks.us_per_job", sum(index.duration(i) for i in blocks) / len(jobs) * 1e6, "us", len(jobs))
        outcome.layer("db.blocks.calls_per_job", len(blocks) / len(jobs), "calls", len(jobs))
        union = [i for i in index.named("lams.union_of_boxes") if index.under(i, ("engine.run_job",))]
        outcome.layer("lams.union_us_per_job", sum(index.duration(i) for i in union) / len(jobs) * 1e6, "us", len(jobs))
    writes = index.named("engine.apply_delta")
    if writes:
        outcome.layer("engine.apply_delta_ms", percentile([index.duration(i) for i in writes], 0.5) * 1e3, "ms", len(writes))
    prepares = index.named("repairs.prepare")
    outcome.layer("repairs.prepares", len(prepares), "count", len(prepares))
    if prepares:
        outcome.layer("repairs.prepare_ms", percentile([index.duration(i) for i in prepares], 0.5) * 1e3, "ms", len(prepares))
    estimates = index.named("approx.fpras", "approx.karp_luby")
    if estimates:
        outcome.layer("approx.sampling_ms_per_job", sum(index.duration(i) for i in estimates) / len(estimates) * 1e3, "ms", len(estimates))
        outcome.layer("approx.samples_per_job", sum(index.spans[i][EXTRA] for i in estimates) / len(estimates), "samples", len(estimates))
    materialise = index.named("lineage.materialise")
    replayed = [i for i in index.named("db.database.apply_delta") if index.under(i, REPLAY)]
    if materialise:
        replaying = set()
        for i in replayed:
            parent = index.spans[i][PARENT]
            while parent >= 0 and index.spans[parent][NAME] not in REPLAY:
                parent = index.spans[parent][PARENT]
            if parent >= 0 and index.spans[parent][NAME] == "lineage.materialise":
                replaying.add(parent)
        if replaying:
            outcome.layer("lineage.materialise_ms", percentile([index.duration(i) for i in replaying], 0.5) * 1e3, "ms", len(replaying))
        outcome.layer("lineage.materialised_hit_ratio", 1 - len(replaying) / len(materialise), "ratio", len(materialise))
    if reads and (materialise or index.named("lineage.materialise_range")):
        single = [i for i in replayed if index.under(i, ("lineage.materialise",))]
        outcome.layer("lineage.deltas_replayed_per_read", len(single) / reads, "deltas", reads)
    walks = index.named("lineage.materialise_range")
    if walks:
        outcome.layer("lineage.range_walk_ms", percentile([index.duration(i) for i in walks], 0.5) * 1e3, "ms", len(walks))
    per_write: Dict[int, float] = {}
    for i in index.named(*DELTA):
        if index.under(i, DELTA + REPLAY):
            continue
        write = index.spans[i][PARENT]
        while write >= 0 and index.spans[write][NAME] != "engine.apply_delta":
            write = index.spans[write][PARENT]
        per_write[write] = per_write.get(write, 0.0) + index.duration(i)
    if per_write:
        outcome.layer("db.delta.apply_us", percentile(list(per_write.values()), 0.5) * 1e6, "us", len(per_write))
    for kind in ("read", "write"):
        calls = index.named(f"store.{kind}")
        outcome.layer(f"store.{kind}s", len(calls), "count", len(calls))
        if calls:
            outcome.layer(f"store.{kind}_bytes", sum(index.spans[i][EXTRA] for i in calls), "bytes", len(calls))
            outcome.layer(f"store.{kind}_ms", sum(index.duration(i) for i in calls) * 1e3, "ms", len(calls))


CACHE_LAYERS = ("query", "decomposition", "selectors", "decomposition-disk",
                "selectors-disk", "snapshots-disk")


def cache_layers(outcome: Outcome, before: Dict, after: Dict) -> None:
    """Hit ratios of the cache layers over the timed phase (lookups = n)."""
    for layer in CACHE_LAYERS:
        hits = after.get(layer, {}).get("hits", 0) - before.get(layer, {}).get("hits", 0)
        misses = after.get(layer, {}).get("misses", 0) - before.get(layer, {}).get("misses", 0)
        if hits + misses:
            outcome.layer(f"cache.{layer}.hit_ratio", hits / (hits + misses), "ratio", hits + misses)


def layer_report(outcome: Outcome, index: SpanIndex) -> None:
    """Print calls, busy time, self time and the summed counter per layer."""
    outcome.lines.append(f"{'layer':<32} {'calls':>8} {'busy_ms':>11} {'self_ms':>11} {'extra':>10}")
    for name, row in sorted(index.layer_table().items()):
        outcome.lines.append(
            f"{name:<32} {row['calls']:>8} {row['busy'] * 1e3:>11.2f} "
            f"{row['self'] * 1e3:>11.2f} {row['extra']:>10}"
        )
    share = index.unaccounted()
    outcome.lines.append(f"trace: {share:.2%} of op latency is covered by no layer span")
    if share > 0.10:
        raise BenchmarkError(
            f"layer self times explain only {1 - share:.1%} of the ops' latency (need 90%)"
        )


def bounded_stream(registry: Dict, stream: List) -> List:
    """The generated stream with every count's exact work kept small.

    ``serve_workload`` draws random conjunctive queries; a few of them are
    cross products with hundreds of certificates, whose preparation and
    union-of-boxes count cost up to seconds, so whether a seed draws one
    would decide the run's throughput.  A count on a (database, query)
    pair with more than ``MAX_CERTIFICATES`` certificates, or a component
    of more than ``MAX_COMPONENT_BOXES`` boxes, on the registered snapshot
    is sent with that database's first admissible query instead (dropped
    if it has none), which keeps the stream's length and its count/update
    interleaving.
    """
    from repro.db import BlockDecomposition
    from repro.engine import CountJob
    from repro.lams.union_of_boxes import component_union_tasks
    from repro.query import parse_query
    from repro.repairs.counting import prepare_certificates

    def admissible(item: CountJob) -> bool:
        database, keys = registry[item.database]
        decomposition = BlockDecomposition(database, keys)
        query = parse_query(item.query, answer_variables=list(item.answer_variables))
        prepared = prepare_certificates(database, keys, query, decomposition=decomposition)
        tasks, _ = component_union_tasks(decomposition.block_sizes(), prepared.selectors)
        return prepared.certificate_count <= MAX_CERTIFICATES and all(
            len(task.selectors) <= MAX_COMPONENT_BOXES for task in tasks
        )

    verdict: Dict[Tuple, bool] = {}
    fallback: Dict[str, CountJob] = {}
    for item in stream:
        if isinstance(item, CountJob):
            pair = (item.database, item.query, item.answer_variables)
            if pair not in verdict:
                verdict[pair] = admissible(item)
            if verdict[pair]:
                fallback.setdefault(item.database, item)
    bounded = []
    for item in stream:
        if isinstance(item, CountJob) and not verdict[(item.database, item.query, item.answer_variables)]:
            substitute = fallback.get(item.database)
            if substitute is None:
                continue
            item = replace(item, query=substitute.query, answer_variables=substitute.answer_variables,
                           label=substitute.label)
        bounded.append(item)
    return bounded


def closed_form_count(database, atoms: Sequence[Tuple[str, int, str]]) -> Tuple[int, int]:
    """``(satisfying, total)`` repairs for a query of anchored atoms, from the facts alone.

    The query is a conjunction of atoms over distinct relations, each
    pinning attribute ``position`` to ``value`` with every other term a
    distinct existential variable; keys are the first attribute.  A
    repair keeps one fact per key block, blocks choose independently, so
    the satisfying count is the product over the query's relations of
    (all choices − choices avoiding the value) times every other block's
    size.  This shares no code with the program's certificate machinery,
    which is what makes it a reference for the exact counts.
    """
    blocks: Dict[Tuple[str, object], List] = {}
    for fact in database:
        blocks.setdefault((fact.relation, fact.arguments[0]), []).append(fact)
    total = 1
    for facts in blocks.values():
        total *= len(facts)
    satisfying = total
    for relation, position, value in atoms:
        choices = avoiding = 1
        for (owner, _), facts in blocks.items():
            if owner == relation:
                choices *= len(facts)
                avoiding *= sum(fact.arguments[position] != value for fact in facts)
        satisfying = satisfying // choices * (choices - avoiding)
    return satisfying, total


def finish(outcome: Outcome, rounds: Rounds, wall: float, completed: int, failures: int,
           setup: BestOf, setups: Sequence[float], peak_mb: float) -> None:
    """The end-to-end metrics; ``setups`` are the whole set-ups' times, ``setup`` their steps."""
    outcome.add("setup_s", setup.best_total(), "s", len(setups),
                f"each set-up step at its fastest of {len(setups)} set-ups")
    outcome.add("setup_median_s", median(setups), "s", len(setups), "whole set-ups")
    outcome.add("best_p50_ms", rounds.best_p50_ms(), "ms", len(rounds.latencies),
                f"median op of the round, each op at its fastest of {rounds.done} rounds")
    outcome.add("best_mean_ms", rounds.best_mean_ms(), "ms", len(rounds.latencies),
                f"mean op of the round, each op at its fastest of {rounds.done} rounds")
    outcome.add("ops_per_s", completed / wall, "ops/s", completed)
    outcome.add("peak_rss_mb", peak_mb, "MB", 1)
    outcome.add("failed_frac", failures / max(1, outcome.attempted), "ratio", outcome.attempted)
    outcome.failed = failures


# ---------------------------------------------------------------------- #
# engine-hot
# ---------------------------------------------------------------------- #
def engine_hot(seed: int, seconds: float, recorder: Optional[Recorder], work: Path) -> Outcome:
    from repro.db import database_to_json
    from repro.engine import CountJob, SolverPool
    from repro.workloads import InconsistentDatabaseSpec, random_inconsistent_database

    rng = random.Random(seed)
    databases = {}
    catalogue: List[Tuple[str, str, str]] = []
    for number in range(2):
        spec = InconsistentDatabaseSpec(
            relations={"R": 3, "S": 3}, blocks_per_relation=E13_BLOCKS,
            conflict_rate=0.4, max_block_size=4, domain_size=200,
        )
        name = f"e13-{number}"
        database, keys = random_inconsistent_database(spec, seed=rng.randrange(2**16))
        databases[name] = (database, keys)
        anchors = Counter((item.relation, item.arguments[1]) for item in database)
        left = sorted(value for relation, value in anchors if relation == "R")
        right = sorted(value for relation, value in anchors if relation == "S")
        pairs = [(anchors["R", a] * anchors["S", b], a, b) for a in left for b in right]
        cheap = [(a, b) for certificates, a, b in pairs if certificates <= E13_CHEAP[0]]
        kernel = [(a, b) for certificates, a, b in pairs if certificates == E13_KERNEL[0]]
        for band, wanted in ((cheap, E13_CHEAP[1]), (kernel, E13_KERNEL[1])):
            catalogue += [(name, a, b) for a, b in rng.sample(band, min(wanted, len(band)))]
    jobs = [
        CountJob(database=name, query=f"EXISTS x, y, z, w. (R(x, '{a}', y) AND S(z, '{b}', w))",
                 method=method)
        for name, a, b in catalogue for method in ("certificate", "auto")
    ]
    # A round is one pass over every job, in one of E13_PASSES seeded orders.
    orders: List[List[int]] = []
    for _ in range(E13_PASSES):
        order = list(range(len(jobs)))
        rng.shuffle(order)
        orders.append(order)

    outcome = Outcome("engine-hot", 0, 0, True)
    outcome.lines.append("digest engine-hot sha256=" + digest(
        [database_to_json(*databases[name]) for name in sorted(databases)]
        + [job.to_json() for job in jobs] + [orders]
    ))

    setup, setups = BestOf(), []
    for _ in range(E13_SETUPS):
        started = time.perf_counter()
        with setup.step("pool"):
            pool = SolverPool()
        for name, (database, keys) in databases.items():
            with setup.step(name):
                pool.register(name, database, keys)
        for job_index in range(0, len(jobs), 2):
            with setup.step(job_index):
                pool.run_job(jobs[job_index])
        setups.append(time.perf_counter() - started)

    if recorder is not None:
        install_engine_spans(recorder)
    stats_before = pool.cache_stats()
    recomputed = (pool.selector_recomputations, pool.decomposition_recomputations)
    latencies: List[float] = []
    answers: List[Tuple[int, object]] = []
    failures = 0
    rounds = Rounds(seconds, E13_TRACE_ROUNDS if recorder is not None else None)
    position = 0
    while rounds.more():
        for job_index in orders[(rounds.done - 1) % E13_PASSES]:
            tick = time.perf_counter()
            try:
                with op_span(recorder, position):
                    result = pool.run_job(jobs[job_index], job_index)
            except Exception as exc:  # every failure is counted, none is fatal
                result = exc
                failures += 1
            latency = time.perf_counter() - tick
            latencies.append(latency)
            rounds.record(job_index, latency)
            answers.append((job_index, result))
            position += 1
    wall = time.perf_counter() - rounds.started
    if recorder is not None:
        recorder.restore()
    peak_mb = own_peak_rss_mb()
    outcome.attempted = position

    reference: Dict[int, Tuple[int, int]] = {}
    problems: List[str] = []
    for job_index, result in answers:
        if isinstance(result, Exception):
            continue
        entry = job_index // 2
        if entry not in reference:
            name, a, b = catalogue[entry]
            reference[entry] = closed_form_count(databases[name][0], [("R", 1, a), ("S", 1, b)])
        if (result.satisfying, result.total) != reference[entry] or result.method != "certificate" or result.is_estimate:
            problems.append(f"engine-hot job {job_index}: {result.count_fields()} vs {reference[entry]}")
    outcome.correct = not problems
    outcome.lines.extend(problems[:5])
    finish(outcome, rounds, wall, position - failures, failures, setup, setups, peak_mb)
    latency_metrics(outcome, "read", latencies)
    if recorder is not None:
        index = SpanIndex(recorder.spans)
        engine_layers(outcome, index, reads=position)
        cache_layers(outcome, stats_before, pool.cache_stats())
        outcome.layer("cache.selector_recomputations", pool.selector_recomputations - recomputed[0], "count", position)
        outcome.layer("cache.decomposition_recomputations", pool.decomposition_recomputations - recomputed[1], "count", position)
        layer_report(outcome, index)
    return outcome


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #
SERVER_PGID_FILE = WORK / "server.pgid"


def reap_leftover_server(outcome: Outcome) -> None:
    """Kill and report processes of a server an earlier run left behind."""
    try:
        pgid = int(SERVER_PGID_FILE.read_text())
    except (OSError, ValueError):
        return
    survivors = group_members(pgid)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if survivors:
        outcome.lines.append(f"killed {len(survivors)} process(es) left by an earlier server: {survivors}")
    SERVER_PGID_FILE.unlink(missing_ok=True)


def default_sigint() -> None:
    """Undo an inherited ``SIG_IGN`` (background jobs get one) so SIGINT stops the server."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def start_server(jobfile: Path, store: Path, log: Path) -> Tuple[subprocess.Popen, str, int]:
    """``repro serve --http 0`` in its own process group; wait for the ready line."""
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as errors:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(jobfile), "--http", "0",
             "--shards", "1", "--persist-cache", str(store)],
            cwd=str(ROOT), env=environment, stdout=subprocess.PIPE, stderr=errors,
            start_new_session=True, preexec_fn=default_sigint,
        )
    SERVER_PGID_FILE.write_text(str(process.pid))
    line = process.stdout.readline()
    try:
        ready = json.loads(line)["http"]
    except (ValueError, KeyError, TypeError):
        stop_server(process)
        raise BenchmarkError(f"repro serve did not print a ready line (got {line!r}); see {log}")
    return process, ready["host"], ready["port"]


def stop_server(process: subprocess.Popen) -> List[int]:
    """SIGINT the server's process group, wait, then kill and return survivors."""
    try:
        os.killpg(process.pid, signal.SIGINT)
    except OSError:
        pass
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass
    survivors = group_members(process.pid)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if process.poll() is None:
        process.wait(timeout=10)
    process.stdout.close()
    SERVER_PGID_FILE.unlink(missing_ok=True)
    return survivors


async def first_answer(host: str, port: int) -> Dict:
    """The first request a server answers: ``GET /stats`` reaches the shard."""
    from repro.server import ServeClient

    client = ServeClient(host, port, retries=20, backoff=0.01)
    try:
        return await client.stats()
    finally:
        await client.close()


def round_documents(stream: List, copy: int) -> List[Dict]:
    """The stream's request documents aimed at copy ``copy`` of every database.

    Counts carry the seed they would derive under the database's own
    name, so a randomised estimate is the same on every copy.
    """
    from repro.engine import UpdateJob

    documents = []
    for index, item in enumerate(stream):
        if isinstance(item, UpdateJob):
            item = replace(item, database=f"{item.database}-{copy}")
        else:
            item = replace(item, database=f"{item.database}-{copy}", seed=item.effective_seed(index))
        documents.append(item.to_json())
    return documents


async def drive_rounds(host, port, stream, lanes, rounds: Rounds, recorder):
    """Rounds of two closed-loop connections; each lane sends its items in stream order.

    Round ``r`` sends the stream to copy ``r`` of every database, so
    every round starts from the same contents.  Returns one
    ``{index: (latency, answer)}`` map per round, the summed round wall
    time and the client retries.
    """
    from repro.engine import UpdateJob
    from repro.server import ServeClient

    clients = [ServeClient(host, port) for _ in lanes]
    results: List[Dict[int, Tuple[float, object]]] = []
    wall = 0.0

    async def lane(client, positions, documents, records):
        for index in positions:
            call = client.update if isinstance(stream[index], UpdateJob) else client.count
            tick = time.perf_counter()
            try:
                with op_span(recorder, len(results) * len(stream) + index):
                    answer = await call(documents[index], index=index)
            except Exception as exc:  # refused or failed: counted, and the lane stops
                records[index] = (time.perf_counter() - tick, exc)
                return
            records[index] = (time.perf_counter() - tick, answer)

    try:
        while rounds.done < SERVE_COPIES and rounds.more():
            documents = round_documents(stream, rounds.done - 1)
            records: Dict[int, Tuple[float, object]] = {}
            began = time.perf_counter()
            await asyncio.gather(*(lane(client, positions, documents, records)
                                   for client, positions in zip(clients, lanes)))
            wall += time.perf_counter() - began
            results.append(records)
            failed = False
            for index, (latency, answer) in records.items():
                if isinstance(answer, Exception):
                    failed = True
                else:
                    rounds.record(index, latency)
            if failed:
                break
    finally:
        for client in clients:
            await client.close()
    return results, wall, sum(client.retries_used for client in clients)


async def replay_in_process(registry, stream, lanes, completed, store):
    """The same ops through an in-process ``AsyncServer.submit``: latency per op."""
    from repro.server import AsyncServer

    server = AsyncServer(shards=1, persist_dir=store)
    for name, (database, keys) in registry.items():
        server.register(name, database, keys)
    latencies: Dict[int, Tuple[float, float]] = {}

    async def lane(positions):
        for index in positions:
            if index not in completed:
                return
            tick = time.perf_counter()
            result = await server.submit(stream[index], index)
            latencies[index] = (time.perf_counter() - tick, result.elapsed)

    async with server:
        await asyncio.gather(*(lane(positions) for positions in lanes))
    return latencies


def serve_mixed(seed: int, seconds: float, recorder: Optional[Recorder], work: Path) -> Outcome:
    from repro.db import database_to_json
    from repro.engine import CountJob, SolverPool, UpdateJob
    from repro.workloads import serve_workload

    # Every database gets 9 blocks per relation (the middle of the
    # generator's 6-12): FPRAS work per sample grows with the block count,
    # and drawing sizes per seed made throughput a property of the seed.
    registry, stream = serve_workload(
        jobs=SERVE_JOBS, databases=SERVE_DATABASES, update_every=10, zipf=0.6,
        queries_per_database=6, blocks_per_relation=(9, 9), seed=seed,
    )
    stream = bounded_stream(registry, stream)
    # Methods by count position rather than drawn, one FPRAS count in
    # sixteen: an FPRAS count costs several exact round trips, and how many
    # of them a seed drew moved a round's mean latency from seed to seed.
    counts = 0
    for index, item in enumerate(stream):
        if isinstance(item, CountJob):
            stream[index] = replace(item, method=SERVE_METHODS[counts % len(SERVE_METHODS)])
            counts += 1
    lanes = partition_lanes([item.database for item in stream], 2)
    outcome = Outcome("serve-mixed", 0, 0, True)
    outcome.lines.append("digest serve-mixed sha256=" + digest(
        [database_to_json(*registry[name]) for name in sorted(registry)]
        + [item.to_json() for item in stream]
    ))
    jobfile = work / "databases.json"
    jobfile.write_text(json.dumps({"databases": {
        f"{name}-{copy}": database_to_json(*pair)
        for name, pair in registry.items() for copy in range(SERVE_COPIES)
    }}))
    reap_leftover_server(outcome)

    setup, setups = BestOf(), []
    survivors: List[int] = []
    for attempt in range(SERVE_STARTS):
        with setup.step("spawn"):
            process, host, port = start_server(jobfile, work / f"store-{attempt}", work / "server.log")
            try:
                asyncio.run(first_answer(host, port))
            except Exception:
                stop_server(process)
                raise
        setups.append(setup.latencies["spawn"][-1])
        if attempt < SERVE_STARTS - 1:
            survivors += stop_server(process)

    rounds = Rounds(seconds, SERVE_TRACE_ROUNDS if recorder is not None else None)
    try:
        if recorder is not None:
            from repro.server import ServeClient

            recorder.wrap(ServeClient, "count", "server.http.client")
            recorder.wrap(ServeClient, "update", "server.http.client")
        results, wall, retries = asyncio.run(
            drive_rounds(host, port, stream, lanes, rounds, recorder)
        )
        if recorder is not None:
            recorder.restore()
        stats = asyncio.run(first_answer(host, port))
        peak_mb = peak_rss_mb_of(group_members(process.pid))
    finally:
        survivors += stop_server(process)
    if survivors:
        outcome.lines.append(f"killed {len(survivors)} server process(es) that outlived SIGINT")

    failures = 0
    for records in results:
        outcome.attempted += len(records)
        for index, (_, answer) in records.items():
            if isinstance(answer, Exception):
                failures += 1
                outcome.lines.append(f"op {index} failed: {answer!r}")
    last = results[-1]
    completed = {index for index, (_, answer) in last.items() if not isinstance(answer, Exception)}

    replay = None
    if recorder is not None:
        replay = asyncio.run(replay_in_process(registry, stream, lanes, completed, work / "replay-store"))
        install_engine_spans(recorder)
    # The reference runs the stream once, in stream order, on the
    # databases' own names with the seeds the rounds sent.
    reference = SolverPool()
    for name, (database, keys) in registry.items():
        reference.register(name, database, keys)
    expected: Dict[int, object] = {}
    dropped: List[int] = []
    for index, item in enumerate(stream):
        with op_span(recorder, index):
            if isinstance(item, UpdateJob):
                report = reference.apply_delta(item.database, item.delta)
                dropped.append(report.selectors_dropped)
                expected[index] = report.new_digest
            else:
                job = replace(item, seed=item.effective_seed(index))
                expected[index] = reference.run_job(job, index).count_fields()[1:]
    if recorder is not None:
        recorder.restore()
    problems: List[str] = []
    reads: List[float] = []
    writes: List[float] = []
    for records in results:
        for index, (latency, answer) in sorted(records.items()):
            if isinstance(answer, Exception):
                continue
            if isinstance(stream[index], UpdateJob):
                writes.append(latency)
                got = answer.get("new_digest")
            else:
                reads.append(latency)
                got = (answer.get("satisfying"), answer.get("total"), answer.get("method"), answer.get("is_estimate"))
            if got != expected[index]:
                problems.append(f"serve-mixed op {index}: {got} vs {expected[index]}")
    outcome.correct = not problems
    outcome.lines.extend(problems[:5])
    finish(outcome, rounds, wall, outcome.attempted - failures, failures, setup, setups, peak_mb)
    latency_metrics(outcome, "read", reads)
    latency_metrics(outcome, "write", writes)

    if recorder is not None:
        index = SpanIndex(recorder.spans)
        http = stats.get("http", {})
        outcome.layer("server.http.requests", http.get("requests", 0), "count", outcome.attempted)
        outcome.layer("server.http.retries", retries, "count", outcome.attempted)
        queue = stats.get("queue", {})
        outcome.layer("server.peak_in_flight", queue.get("peak_in_flight", 0), "count", outcome.attempted)
        shard = next(iter(stats.get("shards", {}).values()), {})
        outcome.layer("server.shard_busy_frac", shard.get("busy_time", 0.0) / wall, "ratio", outcome.attempted)
        # Both sides minus the engine's own elapsed: HTTP front vs in-process hop.
        hop = [replay[i][0] - replay[i][1] for i in replay]
        own = [last[i][0] - last[i][1].get("elapsed", 0.0) - hop_i
               for i, hop_i in zip(replay, hop)]
        if hop:
            outcome.layer("server.hop_ms", percentile(hop, 0.5) * 1e3, "ms", len(hop))
            outcome.layer("server.http.self_ms", percentile(own, 0.5) * 1e3, "ms", len(own))
        engine_layers(outcome, index, reads=0)
        cache_layers(outcome, {}, shard.get("cache", {}))
        outcome.layer("cache.selector_recomputations", shard.get("selector_recomputations", 0), "count", outcome.attempted)
        outcome.layer("cache.decomposition_recomputations", shard.get("decomposition_recomputations", 0), "count", outcome.attempted)
        if dropped:
            outcome.layer("cache.selectors_dropped_per_write", sum(dropped) / len(dropped), "count", len(dropped))
        outcome.lines.append("engine layers below come from the in-process reference replay")
        layer_report(outcome, index)
    return outcome


# ---------------------------------------------------------------------- #
# time-travel
# ---------------------------------------------------------------------- #
def time_travel(seed: int, seconds: float, recorder: Optional[Recorder], work: Path) -> Outcome:
    from repro.db import database_to_json
    from repro.engine import CountJob, SolverPool, UpdateJob
    from repro.engine.executor import RangeFailure
    from repro.workloads import history_workload

    registry, feed_stream = history_workload(
        jobs=TT_CHAIN + TT_SESSION_OPS + 1, update_every=1, history_fraction=0.0, databases=1,
        blocks_per_relation=(TT_BLOCKS, TT_BLOCKS), methods=("auto", "certificate"), seed=seed,
    )
    (name, (database, keys)), = registry.items()
    deltas = [item.delta for item in feed_stream if isinstance(item, UpdateJob)]
    rng = random.Random(seed)
    # Anchored single-atom reads: a handful of certificates each, so the
    # cost of a read is its lineage replay and cache traffic.  The
    # generator's own random queries are not used: on 60-block relations
    # some are cross-product self-joins that take seconds per version.
    anchors = [
        (relation, position, value)
        for relation in ("R", "S")
        for position, wanted in ((1, TT_ANCHORED), (2, TT_ANCHORED // 2))
        for value in rng.sample(sorted({item.arguments[position] for item in database.relation(relation)}), wanted)
    ]
    queries = []
    for relation, position, value in anchors:
        terms = ["x", "y", "z"]
        terms[position] = f"'{value}'"
        free = ", ".join(term for term in terms if not term.startswith("'"))
        queries.append(f"EXISTS {free}. {relation}({', '.join(terms)})")
    # Exact op counts, and every read's version spread evenly over the
    # positions between two checkpoints, so the replay work of a session
    # is nearly the same from seed to seed.
    kinds = ["read"] * TT_READS + ["range"] * TT_RANGES + ["write"] * TT_WRITES
    rng.shuffle(kinds)
    residues = list(range(TT_CHECKPOINT_EVERY)) * (TT_READS // TT_CHECKPOINT_EVERY)
    rng.shuffle(residues)
    ops: List[Tuple] = []
    head = TT_CHAIN
    for kind in kinds:
        query = rng.randrange(len(queries))
        method = rng.choice(("auto", "certificate"))
        if kind == "read":
            depth = rng.randint(TT_CHECKPOINT_EVERY, TT_CHAIN)
            depth -= (head - depth - residues.pop()) % TT_CHECKPOINT_EVERY
            ops.append(("read", query, method, depth))
        elif kind == "range":
            ops.append(("range", query, method, rng.randint(0, TT_CHAIN - TT_RANGE)))
        else:
            ops.append(("write",))
            head += 1
    outcome = Outcome("time-travel", 0, 0, True)
    outcome.lines.append("digest time-travel sha256=" + digest(
        [database_to_json(database, keys)] + [delta.to_json() for delta in deltas]
        + [queries, ops]
    ))

    setup, setups = BestOf(), []
    for build in range(TT_BUILDS):
        template = fresh_directory(work, f"store-{build}")
        tick = time.perf_counter()
        with setup.step("register"):
            pool = SolverPool(persist_dir=template, checkpoint_every=TT_CHECKPOINT_EVERY)
            pool.register(name, database, keys)
        for number, delta in enumerate(deltas[:TT_CHAIN]):
            with setup.step(number):
                pool.apply_delta(name, delta)
        setups.append(time.perf_counter() - tick)
    versions = [database]
    for delta in deltas[: TT_CHAIN + sum(op[0] == "write" for op in ops)]:
        versions.append(versions[-1].apply_delta(delta))

    def job(query: int, method: str, **ref) -> "CountJob":
        return CountJob(database=name, query=queries[query], method=method, **ref)

    # A round is a session: a fresh pool on a copy of the built store runs
    # every op, so each session starts from the same disk state with cold
    # in-memory caches, and op i replays the same versions every time.
    rounds = Rounds(seconds, TT_TRACE_ROUNDS if recorder is not None else None)
    sessions: List[List[Tuple[int, float, object]]] = []
    totals: Dict[str, Dict[str, int]] = {}
    recomputed = [0, 0]
    failures = 0
    while rounds.more():
        directory = work / "session"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(template, directory)
        pool = SolverPool(persist_dir=directory, checkpoint_every=TT_CHECKPOINT_EVERY)
        pool.register(name, versions[TT_CHAIN], keys)
        before = pool.cache_stats()
        recomputed_before = (pool.selector_recomputations, pool.decomposition_recomputations)
        if recorder is not None:
            install_engine_spans(recorder)
        records: List[Tuple[int, float, object]] = []
        next_delta = TT_CHAIN
        for position, op in enumerate(ops):
            if op[0] == "read":
                call = lambda: pool.run_job(job(op[1], op[2], as_of=-op[3]), position)
            elif op[0] == "range":
                call = lambda: pool.run_range(job(op[1], op[2], as_of_range=(-(op[3] + TT_RANGE - 1), -op[3])), position)
            else:
                call = lambda: pool.apply_delta(name, deltas[next_delta])
            tick = time.perf_counter()
            try:
                with op_span(recorder, len(sessions) * len(ops) + position):
                    answer = call()
            except Exception as exc:  # counted; a failed write would desynchronise the chain
                records.append((position, time.perf_counter() - tick, exc))
                failures += 1
                break
            latency = time.perf_counter() - tick
            rounds.record(position, latency)
            records.append((position, latency, answer))
            if op[0] == "write":
                next_delta += 1
            elif op[0] == "range":
                failures += any(isinstance(item, RangeFailure) for item in answer)
        if recorder is not None:
            recorder.restore()
        after = pool.cache_stats()
        for layer in CACHE_LAYERS:
            for key in ("hits", "misses"):
                total = totals.setdefault(layer, {}).get(key, 0)
                totals[layer][key] = (total + after.get(layer, {}).get(key, 0)
                                      - before.get(layer, {}).get(key, 0))
        recomputed[0] += pool.selector_recomputations - recomputed_before[0]
        recomputed[1] += pool.decomposition_recomputations - recomputed_before[1]
        sessions.append(records)
        if len(records) < len(ops):
            break
    wall = rounds.busy
    peak_mb = own_peak_rss_mb()
    outcome.attempted = sum(len(records) for records in sessions)

    expected_cache: Dict[Tuple[int, int], Tuple] = {}
    digests: Dict[int, str] = {}

    def expected(version: int, query: int) -> Tuple:
        if (version, query) not in expected_cache:
            satisfying, total = closed_form_count(versions[version], [anchors[query]])
            expected_cache[version, query] = (satisfying, total, "certificate", False)
        return expected_cache[version, query]

    problems: List[str] = []
    reads, ranges, writes, dropped = [], [], [], []
    for records in sessions:
        head = TT_CHAIN
        for position, latency, answer in records:
            op = ops[position]
            if isinstance(answer, Exception):
                outcome.lines.append(f"op {position} failed: {answer!r}")
                continue
            if op[0] == "write":
                head += 1
                writes.append(latency)
                dropped.append(answer.selectors_dropped)
                if head not in digests:
                    digests[head] = versions[head].content_digest()
                if answer.new_digest != digests[head]:
                    problems.append(f"time-travel write {position}: digest differs")
            elif op[0] == "read":
                reads.append(latency)
                if answer.count_fields()[1:] != expected(head - op[3], op[1]):
                    problems.append(f"time-travel read {position}: {answer.count_fields()}")
            else:
                ranges.append(latency)
                low = head - (op[3] + TT_RANGE - 1)
                if len(answer) != TT_RANGE:
                    problems.append(f"time-travel range {position}: {len(answer)} versions")
                for offset, version_result in enumerate(answer):
                    if isinstance(version_result, RangeFailure):
                        outcome.lines.append(f"range {position} version {offset} failed: {version_result.error!r}")
                    elif version_result.count_fields()[1:] != expected(low + offset, op[1]):
                        problems.append(f"time-travel range {position} version {offset}")
    outcome.correct = not problems
    outcome.lines.extend(problems[:5])
    finish(outcome, rounds, wall, outcome.attempted - failures, failures, setup, setups, peak_mb)
    latency_metrics(outcome, "read", reads)
    latency_metrics(outcome, "range", ranges)
    latency_metrics(outcome, "write", writes)
    if recorder is not None:
        index = SpanIndex(recorder.spans)
        engine_layers(outcome, index, reads=len(reads))
        cache_layers(outcome, {}, totals)
        outcome.layer("cache.selector_recomputations", recomputed[0], "count", outcome.attempted)
        outcome.layer("cache.decomposition_recomputations", recomputed[1], "count", outcome.attempted)
        if dropped:
            outcome.layer("cache.selectors_dropped_per_write", sum(dropped) / len(dropped), "count", len(dropped))
        layer_report(outcome, index)
    return outcome


# ---------------------------------------------------------------------- #
# pooled-stream
# ---------------------------------------------------------------------- #
def pooled_stream(seed: int, seconds: float, recorder: Optional[Recorder], work: Path) -> Outcome:
    from repro.db import database_to_json
    from repro.engine import CountJob, SolverPool, UpdateJob, parse_job_document
    from repro.workloads import serve_workload

    # Exact methods only: FPRAS sample counts grow as m^k with the seeded
    # catalogue, which made throughput a property of the seed; what this
    # workload measures is the per-segment process-pool fan-out.
    registry, stream = serve_workload(
        jobs=POOL_ROUND_ITEMS, databases=4, update_every=8, queries_per_database=6,
        methods=("auto", "certificate"), seed=seed,
    )
    stream = bounded_stream(registry, stream)
    # A chunk ends after every POOL_CHUNK_UPDATES-th update, so every chunk
    # holds whole segments and chunking adds no pool spawn.
    chunks, start, updates = [], 0, 0
    for end, item in enumerate(stream, 1):
        updates += isinstance(item, UpdateJob)
        if end == len(stream) or (isinstance(item, UpdateJob) and updates % POOL_CHUNK_UPDATES == 0):
            chunks.append(stream[start:end])
            start = end
    outcome = Outcome("pooled-stream", 0, 0, True)
    outcome.lines.append("digest pooled-stream sha256=" + digest(
        [database_to_json(*registry[name]) for name in sorted(registry)]
        + [item.to_json() for item in stream]
    ))

    document = {"databases": {name: database_to_json(*pair) for name, pair in registry.items()}}

    jobfile = work / "databases.json"
    jobfile.write_text(json.dumps(document))

    def new_pool() -> SolverPool:
        databases, _ = parse_job_document(document, require_jobs=False)
        pool = SolverPool()
        for name, (database, keys) in databases.items():
            pool.register(name, database, keys)
        return pool

    # Set-up is a batch program's start: a fresh interpreter that imports
    # the engine, loads the job document and registers its databases.
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    setup, setups = BestOf(), []
    for _ in range(POOL_SETUPS):
        with setup.step("start"):
            # No timeout: waiting with one polls every 50 ms, which would quantise set-up.
            subprocess.run([sys.executable, "-c", POOL_SETUP_SCRIPT, str(jobfile)],
                           cwd=str(ROOT), env=environment, check=True)
        setups.append(setup.latencies["start"][-1])

    # A round runs the consecutive chunks on a fresh pool, so chunk i
    # does the same work in every round.
    rounds = Rounds(seconds, POOL_TRACE_ROUNDS if recorder is not None else None)
    reports = []
    latencies: List[float] = []
    failures = 0
    while rounds.more() and not failures:
        pool = new_pool()
        if recorder is not None:
            install_engine_spans(recorder)
        for position, chunk in enumerate(chunks):
            outcome.attempted += len(chunk)
            tick = time.perf_counter()
            try:
                with op_span(recorder, len(reports)):
                    report = pool.run_stream(chunk, workers=POOL_WORKERS)
            except Exception as exc:  # the whole chunk failed; later chunks depend on it
                failures += len(chunk)
                outcome.lines.append(f"chunk {position} failed: {exc!r}")
                break
            latency = time.perf_counter() - tick
            latencies.append(latency)
            rounds.record(position, latency)
            reports.append((position, report))
        if recorder is not None:
            recorder.restore()
    wall = rounds.busy
    peak_mb = own_peak_rss_mb(children=True)

    reference = new_pool()
    tick = time.perf_counter()
    expected = [reference.run_stream(chunk, workers=1) for chunk in chunks]
    sequential_wall = time.perf_counter() - tick
    problems: List[str] = []
    for position, report in reports:
        if report.counts() != expected[position].counts():
            problems.append(f"pooled-stream chunk {position}: counts differ from sequential")
        if [u.new_digest for u in report.updates] != [u.new_digest for u in expected[position].updates]:
            problems.append(f"pooled-stream chunk {position}: update digests differ")
    completed = sum(len(chunks[position]) for position, _ in reports)
    outcome.correct = not problems
    outcome.lines.extend(problems[:5])
    finish(outcome, rounds, wall, completed, failures, setup, setups, peak_mb)
    outcome.add("chunk_p50_ms", percentile(latencies, 0.5) * 1e3, "ms", len(latencies),
                f"one run_stream call of {POOL_CHUNK_UPDATES} segments and their updates")
    if recorder is not None:
        index = SpanIndex(recorder.spans)
        segments = sum(
            1 for position, _ in reports for offset, item in enumerate(chunks[position])
            if isinstance(item, CountJob) and (offset == 0 or not isinstance(chunks[position][offset - 1], CountJob))
        )
        outcome.layer("engine.segments", segments, "count", len(reports))
        outcome.layer("engine.pool_spawns", len(index.named("engine.pool_spawn")), "count", len(reports))
        outcome.layer("engine.fanout_ratio", wall / rounds.done / sequential_wall, "ratio", len(reports))
        engine_layers(outcome, index, reads=0)
        totals: Dict[str, Dict[str, int]] = {}
        for _, report in reports:
            for layer, row in report.cache_stats.items():
                for key, value in row.items():
                    totals.setdefault(layer, {}).setdefault(key, 0)
                    totals[layer][key] += value
        cache_layers(outcome, {}, totals)
        updates = [update for _, report in reports for update in report.updates]
        if updates:
            outcome.layer("cache.selectors_dropped_per_write",
                          sum(u.selectors_dropped for u in updates) / len(updates), "count", len(updates))
        layer_report(outcome, index)
    return outcome


NOISE_CONTROLS = {
    "engine-hot": f"one caller, read-only; a round is one pass over every job; "
                  f"setup_s over {E13_SETUPS} set-ups (registration, cold jobs)",
    "serve-mixed": f"server in its own process group, stopped by SIGINT; each database pinned to "
                   f"one of 2 connections; a round is {SERVE_JOBS} requests on a fresh copy of "
                   f"every database; setup_s over {SERVE_STARTS} spawns",
    "time-travel": f"checkpoint_every={TT_CHECKPOINT_EVERY} (fixed, not adaptive); store writes are "
                   f"temp file + os.replace, no fsync; a round is a {TT_SESSION_OPS}-op session on a "
                   f"copy of the built store; setup_s over {TT_BUILDS} chain builds",
    "pooled-stream": f"a round is {POOL_ROUND_ITEMS} items in chunks of {POOL_CHUNK_UPDATES} segments "
                     f"on a fresh pool; setup_s over {POOL_SETUPS} interpreter starts",
}

WORKLOADS: Dict[str, Callable] = {
    "engine-hot": engine_hot,
    "serve-mixed": serve_mixed,
    "time-travel": time_travel,
    "pooled-stream": pooled_stream,
}


def run(workload: str, seed: int, seconds: float, traced: bool) -> Tuple[Outcome, Optional[Recorder]]:
    """Run one workload, pinned to one CPU, between two host-speed probes."""
    work = fresh_directory(WORK, f"run-{os.getpid()}")
    recorder = Recorder() if traced else None
    cpu = pin_to_one_cpu()
    try:
        before = host_ref_rate()
        started = time.perf_counter()
        outcome = WORKLOADS[workload](seed, seconds, recorder, work)
        elapsed = time.perf_counter() - started
        after = host_ref_rate()
    finally:
        if recorder is not None:
            recorder.restore()
        shutil.rmtree(work, ignore_errors=True)
    outcome.lines[:0] = [
        f"host.ref_rate before={before:.1f} after={after:.1f} loops/s",
        f"noise: fresh interpreter; {'every process on CPU %d' % cpu if cpu is not None else 'CPU affinity not set'}; "
        f"scratch {work.relative_to(ROOT)} on {filesystem_of(work)}, "
        f"removed after the run; {NOISE_CONTROLS[workload]}",
        f"run: {elapsed:.1f} s for inputs, set-up, {seconds:g} s measured, answer check and teardown",
    ]
    outcome.layer("host.ref_rate", (before + after) / 2, "loops/s", 2)
    return outcome, recorder
